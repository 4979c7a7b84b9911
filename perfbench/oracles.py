"""Output checks for the benchmark, written apart from dnacf.

Every check recomputes what it needs from the definitions (brute-force pair
scans, naive string scans, the published block table read backwards, the
Golay generator polynomial, the affine description of first-order
Reed-Muller codes) and never calls the dnacf function that produced the
value.  Each check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import numpy as np

_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_CODE = np.zeros(256, dtype=np.uint64)
for _i, _b in enumerate(b"ACGT"):
    _CODE[_b] = _i
_LOW = np.uint64(0x5555555555555555)
_LANE = 32  # bases per uint64 lane
_CHUNK = 1 << 17  # pairs per scan step, so the checks stay small in memory

#: published sizes at d = 1 (the closed seed set), keyed by (n, ell)
PUBLISHED_D1 = {(4, 2): 48, (8, 4): 2024, (10, 5): 13008}

#: the published block transition table under bit 0; bit 1 gives the
#: complement of that block
_NEXT0 = {"x": "y", "xc": "yc", "y": "xc", "yc": "x"}
_COMP = {"x": "xc", "xc": "x", "y": "yc", "yc": "y"}

#: x^11 + x^9 + x^7 + x^6 + x^5 + x + 1, generator of the cyclic [23,12,7]
#: Golay code (first character of a word is the x^22 coefficient)
GOLAY_POLY = 0b101011100011


def complement(s: str) -> str:
    return s.translate(_COMPLEMENT)


def reverse(s: str) -> str:
    return s[::-1]


def gc(s: str) -> int:
    return s.count("G") + s.count("C")


def hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def conflict_level(s: str) -> int:
    """Largest ell such that no two adjacent equal t-blocks occur for any
    t <= ell, by scanning every offset."""
    for t in range(1, len(s) // 2 + 1):
        if any(s[p:p + t] == s[p + t:p + 2 * t] for p in range(len(s) - 2 * t + 1)):
            return t - 1
    return len(s) // 2


def hairpin_free(s: str) -> bool:
    """No 3-mer occurs together with its reverse-complement."""
    kmers = {s[p:p + 3] for p in range(len(s) - 2)}
    return not any(reverse(complement(k)) in kmers for k in kmers)


# ---------------------------------------------------------------------------
# brute-force pair scans over 2-bit packed words
# ---------------------------------------------------------------------------

def _pack(words: list[str]) -> np.ndarray:
    """(M, lanes) uint64 array, 2 bits per base, 32 bases per lane."""
    n = len(words[0])
    codes = _CODE[np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)]
    codes = codes.reshape(len(words), n)
    lanes = -(-n // _LANE)
    codes = np.pad(codes, ((0, 0), (0, lanes * _LANE - n)))
    shifts = np.arange(2 * _LANE - 2, -1, -2, dtype=np.uint64)
    return (codes.reshape(len(words), lanes, _LANE) << shifts).sum(axis=2, dtype=np.uint64)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = a[:, None, :] ^ b[None, :, :]
    return np.bitwise_count((x | (x >> np.uint64(1))) & _LOW).sum(axis=2)


def min_distance(words: list[str]) -> int:
    """Minimum Hamming distance over all distinct pairs (n for one word)."""
    if len(words) < 2:
        return len(words[0])
    p = _pack(words)
    step = max(1, _CHUNK // len(words))
    cols = np.arange(len(words))[None, :]
    best = len(words[0])
    for lo in range(0, len(words), step):
        d = _distances(p[lo:lo + step], p)
        d = d[np.arange(lo, lo + len(d))[:, None] < cols]
        if d.size:
            best = min(best, int(d.min()))
    return best


def min_cross_distance(words: list[str], others: list[str]) -> int | None:
    """Minimum over all (x, y) of d(x, y) with x != y; None if every pair is
    equal."""
    p, q = _pack(words), _pack(others)
    step = max(1, _CHUNK // len(others))
    best = None
    for lo in range(0, len(words), step):
        d = _distances(p[lo:lo + step], q)
        d = d[d > 0]
        if d.size:
            best = int(d.min()) if best is None else min(best, int(d.min()))
    return best


# ---------------------------------------------------------------------------
# search-bounds: a search JSON document
# ---------------------------------------------------------------------------

def check_search(doc: dict, n: int, ell: int, g: int, trials: int, master_seed: int,
                 law: str) -> list[str]:
    problems = []
    want = {"n": n, "ell": ell, "gc": g, "trials": trials, "master_seed": master_seed,
            "subset_law": law}
    if doc.get("parameters") != want:
        problems.append(f"parameters {doc.get('parameters')} != {want}")
    seed_size = doc.get("seed_set_size")
    if seed_size != PUBLISHED_D1[(n, ell)]:
        problems.append(f"seed_set_size {seed_size} != published {PUBLISHED_D1[(n, ell)]}")
    buckets = {int(d): e for d, e in doc.get("buckets", {}).items()}
    sizes = [buckets[d]["size"] if d in buckets else 0 for d in range(1, n + 1)]
    if any(d not in range(1, n + 1) for d in buckets):
        problems.append(f"bucket keys {sorted(buckets)} outside 1..{n}")
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        problems.append(f"bucket sizes increase with d: {sizes}")
    if sizes[0] > PUBLISHED_D1[(n, ell)]:
        problems.append(f"d=1 size {sizes[0]} exceeds the seed set")
    if sizes[-1] > (4 if n % 2 == 0 else 2):
        problems.append(f"d=n size {sizes[-1]} exceeds the extremal size")
    for d, entry in sorted(buckets.items()):
        problems += [f"d={d}: {p}" for p in check_witness(entry, n, ell, g, d, trials)]
    return problems


def check_witness(entry: dict, n: int, ell: int, g: int, d: int, trials: int) -> list[str]:
    words = entry["code"]
    problems = []
    if not 0 <= entry["trial"] < trials:
        problems.append(f"trial {entry['trial']} outside 0..{trials - 1}")
    if entry["size"] != len(words) or len(set(words)) != len(words):
        return problems + [f"size {entry['size']} != {len(set(words))} distinct words"]
    if any(len(w) != n or set(w) - set("ACGT") for w in words):
        return problems + ["word of wrong length or alphabet"]
    present = set(words)
    if any(reverse(w) not in present or complement(w) not in present for w in words):
        problems.append("not closed under reverse and complement")
    if any(gc(w) != g for w in words):
        problems.append(f"GC content differs from {g}")
    if any(conflict_level(w) < ell for w in words):
        problems.append(f"a word is not {ell}-conflict-free")
    if d > 1 and len(words) > 1 and min_distance(words) < d:
        problems.append(f"a pair is closer than {d}")
    return problems


# ---------------------------------------------------------------------------
# encode-golay: an encoded code file and its build report
# ---------------------------------------------------------------------------

def is_table_pair(x: str, y: str) -> bool:
    """The conditions the published block-pair tables satisfy: x differs
    everywhere from y, from the reverse of y and from its own
    reverse-complement, GC(x) + GC(y) = ell, and every string x y* x* y* and
    y x* y* x* (starred blocks may be complemented) is (2 ell - 1)-conflict-free."""
    ell = len(x)
    xs, ys = (x, complement(x)), (y, complement(y))
    fours = [x + a + b + c for a in ys for b in xs for c in ys]
    fours += [y + a + b + c for a in xs for b in ys for c in xs]
    return (
        len(y) == ell
        and hamming(x, y) == hamming(x, reverse(y)) == hamming(x, reverse(complement(x))) == ell
        and gc(x) + gc(y) == ell
        and all(conflict_level(s) >= 2 * ell - 1 for s in fours)
    )


def decode(word: str, x: str, y: str, h0: str) -> str | None:
    """Invert the block encoding; None if the word is not an encoding."""
    ell = len(x)
    names = {x: "x", complement(x): "xc", y: "y", complement(y): "yc"}
    blocks = [names.get(word[i:i + ell]) for i in range(0, len(word), ell)]
    if len(word) % ell or None in blocks:
        return None
    bits = []
    expected = h0
    for block in blocks:
        if block == expected:
            bits.append("0")
        elif block == _COMP[expected]:
            bits.append("1")
        else:
            return None
        expected = _NEXT0[block]
    return "".join(bits)


def is_golay_codeword(bits: str) -> bool:
    v = int(bits, 2)
    top = GOLAY_POLY.bit_length()
    while v.bit_length() >= top:
        v ^= GOLAY_POLY << (v.bit_length() - top)
    return len(bits) == 23 and v == 0


def is_rm1_codeword(bits: str, m: int) -> bool:
    """First-order Reed-Muller: the evaluations of an affine function
    a0 + <a, i> over the points i of GF(2)^m in binary order."""
    if len(bits) != 1 << m:
        return False
    a0 = int(bits[0])
    a = [int(bits[1 << j]) ^ a0 for j in range(m)]
    for i, b in enumerate(bits):
        value = a0
        for j in range(m):
            value ^= a[j] & (i >> j)
        if int(b) != value & 1:
            return False
    return True


def check_encode(words: list[str], report: dict, pair: tuple[str, str], h0: str,
                 size: int, member, distance: int) -> list[str]:
    """``member`` tests binary codewords of the source code, which has
    ``size`` codewords; ``distance`` is the predicted encoded minimum."""
    problems = []
    if tuple(report.get("pair", ())) != pair or report.get("h0") != h0:
        problems.append(f"report pair {report.get('pair')} h0 {report.get('h0')} != {pair} {h0}")
    if report.get("pass") is not True:
        problems.append("report does not pass")
    if not is_table_pair(*pair):
        problems.append(f"pair {pair} fails the published table conditions")
    decoded = [decode(w, *pair, h0) for w in words]
    if None in decoded:
        problems.append(f"{decoded.count(None)} words do not decode")
        return problems
    if len(set(decoded)) != len(decoded) or len(decoded) != size:
        problems.append(f"{len(set(decoded))} distinct decodings of {len(decoded)} words, want {size}")
    outside = sum(not member(b) for b in decoded)
    if outside:
        problems.append(f"{outside} decoded words are not codewords")
    d = min_distance(words)
    if d != distance:
        problems.append(f"minimum distance {d} != {distance}")
    gcs = {gc(w) for w in words}
    if len(gcs) != 1:
        problems.append(f"GC content not constant: {sorted(gcs)}")
    measured = report.get("measured") or {}
    if measured.get("min_hamming") != d or measured.get("size") != len(words):
        problems.append("report's measured distance or size disagrees with the words")
    if len(gcs) == 1 and measured.get("gc_constant") != gcs.pop():
        problems.append("report's GC content disagrees with the words")
    return problems


# ---------------------------------------------------------------------------
# verify-library: a verify report against a naive recomputation
# ---------------------------------------------------------------------------

def verify_fields(words: list[str], floor: int) -> dict:
    """Every field of a verify report, recomputed from the definitions."""
    d = min_distance(words)
    gcs = {gc(w) for w in words}

    def cross_ok(transform):
        best = min_cross_distance(words, [transform(w) for w in words])
        return best is None or best >= floor

    return {
        "n": len(words[0]),
        "size": len(words),
        "min_hamming": d,
        "distance_floor": floor,
        "reverse_ok": cross_ok(reverse),
        "reverse_complement_ok": cross_ok(lambda w: reverse(complement(w))),
        "complement_ok": cross_ok(complement),
        "gc_constant": gcs.pop() if len(gcs) == 1 else None,
        "conflict_free_level": min(conflict_level(w) for w in words),
        "hairpin_free": all(hairpin_free(w) for w in words),
    }


def claims_hold(fields: dict, claims: dict) -> bool:
    return (
        fields["min_hamming"] >= claims["distance"]
        and fields["reverse_ok"]
        and fields["reverse_complement_ok"]
        and fields["conflict_free_level"] >= claims["conflict"]
        and fields["gc_constant"] == claims["gc"]
    )


def check_verify(doc: dict, exit_code: int, expected: dict, claims: dict) -> list[str]:
    problems = []
    report = doc.get("report", {})
    for key, want in expected.items():
        if report.get(key) != want:
            problems.append(f"{key}: report {report.get(key)!r} != oracle {want!r}")
    if set(report) != set(expected):
        problems.append(f"report fields {sorted(report)} != {sorted(expected)}")
    ok = claims_hold(expected, claims)
    if doc.get("pass") is not ok or exit_code != (0 if ok else 1):
        problems.append(f"pass {doc.get('pass')} exit {exit_code}, oracle says claims hold: {ok}")
    return problems
