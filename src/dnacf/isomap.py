"""Recursive block encoding of binary strings into DNA, and its metric.

A block pair (x, y) of equal length ell, together with the complements xc
and yc, forms a four-letter block alphabet.  Each bit becomes one block under
the published transition table, which the encoder evaluates in closed form:
block classes alternate from the start block's, and a block is complemented
by the word's prefix parity.  The map is an isometry between binary strings
under the support-gap distance implemented here and DNA strings under
Hamming distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from . import _kernels, core
from .constraints import is_complete_conflict_free, rc_present, rows_3mers, rows_gc, rows_repeat

BLOCK_NAMES = ("x", "xc", "y", "yc")


def _bits(a: str | Sequence[int]) -> list[int]:
    if isinstance(a, str):
        if any(ch not in "01" for ch in a):
            raise ValueError(f"not a binary string: {a!r}")
        return [int(ch) for ch in a]
    out = [int(b) for b in a]
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"not a binary sequence: {a!r}")
    return out


@dataclass(frozen=True)
class BlockPair:
    """Two distinct blocks whose four complement variants are pairwise distinct."""

    x: str
    y: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", core.clean(self.x))
        object.__setattr__(self, "y", core.clean(self.y))
        if len(self.x) != len(self.y):
            raise ValueError("blocks must have equal length")
        if len({self.x, self.y, core.complement(self.x), core.complement(self.y)}) != 4:
            raise ValueError("x, y and their complements must be four distinct blocks")

    @property
    def ell(self) -> int:
        return len(self.x)

    def blocks(self) -> dict[str, str]:
        return {
            "x": self.x,
            "xc": core.complement(self.x),
            "y": self.y,
            "yc": core.complement(self.y),
        }


@dataclass(frozen=True)
class TransitionMap:
    """The published transition table of a block pair, started at h0.

    Bit 0 steps x->y, xc->yc, y->xc, yc->x and bit 1 to the complement of
    that block; a leading 0 emits h0 and a leading 1 its complement.
    """

    pair: BlockPair
    h0: str = "x"

    def __post_init__(self) -> None:
        if self.h0 not in BLOCK_NAMES:
            raise ValueError(f"h0 must be one of {BLOCK_NAMES}")

    def start_class(self) -> str:
        """'x' if encodings beginning with bit 0 start in {x, xc}, else 'y'."""
        return "x" if self.h0 in ("x", "xc") else "y"


def encode(a: str | Sequence[int], tmap: TransitionMap) -> str:
    """Encode a binary string into a DNA string of length n*ell."""
    return encode_all(np.array([_bits(a)], dtype=np.uint8), tmap)[0]


def encode_all(bits: np.ndarray, tmap: TransitionMap) -> list[str]:
    """Encode every row of a 0/1 matrix, as :func:`encode` does one word.

    Block j's class alternates from h0's, and it is complemented when the
    prefix parity P_j differs from h0's flag plus the number of y-class
    blocks before j, mod 2.  So each block is one gather from
    [x, xc, y, yc] at 2 * class + flag.
    """
    n = bits.shape[1]
    if n == 0:
        raise ValueError("empty binary string")
    j = np.arange(n) + (tmap.start_class() == "y")
    column = 2 * (j & 1) + ((j // 2 + (tmap.h0 in ("xc", "yc"))) & 1)
    index = _prefix_parity(bits) ^ column.astype(np.uint8)
    blocks = "".join(tmap.pair.blocks().values()).encode("ascii")
    text = np.frombuffer(blocks, dtype=np.uint8).reshape(4, -1)
    return core.rows_text(text[index].reshape(len(bits), -1))


def image_set(n: int, tmap: TransitionMap) -> set[str]:
    """All 2^n encodings of length-n binary strings (n <= 16)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > 16:
        raise ValueError(f"refusing image_set for n={n} (2^n strings; limit 16)")
    words = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return set(encode_all(words.astype(np.uint8), tmap))


# ---------------------------------------------------------------------------
# the support-gap distance on binary strings
# ---------------------------------------------------------------------------

def binary_distance(a: str | Sequence[int], b: str | Sequence[int], ell: int) -> int:
    """Distance between binary strings: ell times the summed gaps between
    consecutive pairs of differing positions (sentinel n+1 appended when the
    number of differing positions is odd)."""
    va, vb = _bits(a), _bits(b)
    if len(va) != len(vb):
        raise ValueError("length mismatch")
    n = len(va)
    support = [i + 1 for i in range(n) if va[i] != vb[i]]
    if len(support) % 2 == 1:
        support.append(n + 1)
    gaps = sum(support[i + 1] - support[i] for i in range(0, len(support), 2))
    return ell * gaps


def _prefix_parity(words: Sequence[str | Sequence[int]]) -> np.ndarray:
    """One uint8 row per word: bit i is the parity of the word's first i + 1
    bits.  The support-gap distance of two words is ell times the Hamming
    distance of their rows, because the gap sum counts the positions whose
    prefix parity differs.  A 0/1 matrix is checked and read as it is; any
    other sequence of words is parsed here."""
    if not isinstance(words, np.ndarray):
        words = np.array([_bits(w) for w in words], dtype=np.uint8)
    elif ((words & 1) != words).any():
        raise ValueError("not a 0/1 matrix")
    return np.bitwise_xor.accumulate(words, axis=1, dtype=np.uint8)


def binary_distances(words: Sequence[str | Sequence[int]], ell: int) -> tuple[int, int]:
    """The minimum of :func:`binary_distance` over all pairs of entries (0 when
    a word repeats), and the minimum distance from one word's encoding to the
    complement of another's or its own, skipping pairs where the two are equal.

    The complement of v's encoding encodes v with its leading bit flipped,
    whose prefix parity is 1 - P(v).  Scaled to 0/3, that is 3 - 3P(v), the
    kernel's complement, so one pair scan gives both minima.
    """
    parity = _prefix_parity(words)
    d, d_comp = _kernels.min_cross_u8(3 * parity)
    if len(np.unique(core.bit_row_keys(parity))) < len(words):
        d = 0  # a repeated word; the kernel skips the pair
    return ell * d, ell * d_comp


def min_binary_distance(words: Sequence[str | Sequence[int]], ell: int) -> int:
    """Minimum of :func:`binary_distance` over all pairs of entries; 0 when a
    word repeats."""
    if len(words) < 2:
        raise ValueError("need at least two codewords")
    return binary_distances(words, ell)[0]


# ---------------------------------------------------------------------------
# pair validation and enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairValidation:
    """Which encoder guarantees a block pair supports.

    ``fully_valid`` matches the published pair tables: x differs everywhere
    from y, from the reverse of y, and from its own reverse-complement, the
    GC contents of x and y sum to ell, and the pair is conflict safe.  (The
    table caption instead prints the distance of x to the reverse-complement
    of y; the listed pairs demonstrably satisfy the self variant, so that is
    what this flag checks.  Hairpin safety is reported separately; it is not
    part of the table conditions, and it covers every block junction.)
    """

    conflict_safe: bool
    hairpin_safe: bool
    reverse_safe: bool
    gc_balanced: bool
    fully_valid: bool


def validate_pair(pair: BlockPair) -> PairValidation:
    x, y = core.codes_matrix([pair.x, pair.y])[:, None]
    separated, reverse_safe, gc_balanced = (bool(flag[0]) for flag in _pair_conditions(x[0], y))
    conflict_safe = bool(_pairs_conflict_free(x, y)[0])
    # every 3-mer of an encoding lies in a reachable three-block window
    # a*·b*·a*, so the union of the windows' 3-mers must be rc free; the
    # complemented windows hold the complemented 3-mers, codes 63 - c
    kmers = rows_3mers(_windows(x, y, 3)[0]).any(axis=0)
    kmers |= kmers[::-1]
    return PairValidation(
        conflict_safe=conflict_safe,
        hairpin_safe=not rc_present(kmers[None])[0],
        reverse_safe=reverse_safe,
        gc_balanced=gc_balanced,
        fully_valid=separated and gc_balanced and conflict_safe,
    )


def _pair_conditions(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table conditions of :class:`PairValidation` but conflict safety,
    as (separated, reverse_safe, gc_balanced), of block rows x against block
    rows y in base codes, broadcast over the leading axes."""
    unlike_rev = (x != y[..., ::-1]).all(axis=-1)
    separated = (x != y).all(axis=-1) & unlike_rev & (x != 3 - x[..., ::-1]).all(axis=-1)
    reverse_safe = (x != 3 - y[..., ::-1]).all(axis=-1) & unlike_rev
    gc_balanced = rows_gc(x) + rows_gc(y) == x.shape[-1]
    return separated, reverse_safe, gc_balanced


def _windows(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Every run of k blocks of alternating class over each row pair (x, y):
    x y* x* ... and y x* y* ..., where a starred block may be complemented.
    The first block stays fixed: the other windows are the complements of
    these.  Shape (pairs, windows, k * ell)."""
    flags = np.array([(0, *f) for f in product((0, 3), repeat=k - 1)], np.uint8)  # XOR 3 complements
    masks = np.repeat(flags, x.shape[1], axis=1)
    runs = [np.concatenate([(a, b)[j % 2] for j in range(k)], axis=1) for a, b in ((x, y), (y, x))]
    return np.concatenate([run[:, None] ^ masks for run in runs], axis=1)


def _pairs_conflict_free(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row pair: whether the 16 windows x y* x* y* and y x* y* x* are all
    (2 ell - 1) conflict free; complementing a whole window keeps its repeats,
    so the first block stays fixed.  A pair drops out at its first repeat."""
    ell = x.shape[1]
    safe = np.zeros(len(x), dtype=bool)
    step = max(1, _kernels.PAIR_CHUNK // (64 * ell))  # pairs per chunk of PAIR_CHUNK window bases
    for lo in range(0, len(x), step):
        windows = _windows(x[lo:lo + step], y[lo:lo + step], 4)
        alive = np.arange(len(windows))
        for t in range(1, 2 * ell):
            repeats = rows_repeat(windows[alive].reshape(-1, 4 * ell), t)
            alive = alive[~repeats.reshape(len(alive), windows.shape[1]).any(axis=1)]
        safe[lo + alive] = True
    return safe


def enumerate_valid_pairs(ell: int) -> list[BlockPair]:
    """All ordered pairs (x, y) passing the published table conditions, in
    lexicographic order.  Guarded to ell <= 6 (16^ell ordered pairs)."""
    if not 1 <= ell <= 6:
        raise ValueError(f"refusing pair enumeration for ell={ell} (limit 6)")
    words = core.unpack_all(np.arange(4 ** ell), ell)
    # column-major, so each reduction over a block is ell vector operations
    digits = np.asfortranarray(core.codes_matrix(words))
    step = max(1, 4 * _kernels.PAIR_CHUNK // (ell << 2 * ell))  # x rows per 4 * PAIR_CHUNK bases
    found = []
    for lo in range(0, len(digits), step):
        x = digits[lo:lo + step, None]
        separated, _, gc_balanced = _pair_conditions(x, digits)
        # the four blocks must also be pairwise distinct; argwhere keeps (x, y) in order
        found.append(np.argwhere(separated & gc_balanced & (x != 3 - digits).any(axis=-1)) + [lo, 0])
    found = np.concatenate(found)
    safe = _pairs_conflict_free(digits[found[:, 0]], digits[found[:, 1]])
    return [BlockPair(words[i], words[j]) for i, j in found[safe].tolist()]


# ---------------------------------------------------------------------------
# closed-form distance and content formulas for encoded strings
# ---------------------------------------------------------------------------

def encoded_gc_content(n: int, g_x: int, g_y: int, start_class: str = "x") -> int:
    """GC content of any length-n encoding, given block GC contents and the
    class of the initial block."""
    if start_class not in ("x", "y"):
        raise ValueError("start_class must be 'x' or 'y'")
    if n % 2 == 0:
        return (g_x + g_y) * n // 2
    first = g_x if start_class == "x" else g_y
    return first + (g_x + g_y) * (n - 1) // 2


def flip_distance(n: int, ell: int, i: int, j: int | None = None) -> int:
    """Hamming distance between encodings of binary strings differing at
    position i (and optionally also at j > i); 1-indexed."""
    if not 1 <= i <= n:
        raise ValueError(f"flip index i={i} out of 1..{n}")
    if j is None:
        return ell * (n - i + 1)
    if not i < j <= n:
        raise ValueError(f"flip index j={j} out of {i + 1}..{n}")
    return ell * (j - i)


def half_distance_bounds(d_hamming: int, n: int, ell: int) -> tuple[int, int]:
    """(lower, upper) bounds on the encoded distance of binary strings at
    Hamming distance d_hamming: ell*ceil(d/2) and ell*(n - floor(d/2))."""
    if not 0 <= d_hamming <= n:
        raise ValueError("d_hamming out of range")
    lower = ell * ((d_hamming + 1) // 2)
    upper = ell * (n - d_hamming // 2)
    return lower, upper


def pair_sigma(pair: BlockPair) -> int:
    """min over cross-class block pairs of min(d, ell - d); the coefficient
    printed with the append-distance cases.  Degenerates to 0 for pairs at
    full separation, which is why tests drive the cases with ell instead."""
    x, y = pair.x, pair.y
    xc, yc = core.complement(x), core.complement(y)
    best = pair.ell
    for z1 in (x, xc):
        for z2 in (y, yc):
            d = core.hamming_distance(z1, z2)
            best = min(best, d, pair.ell - d)
    return best


def append_distance_bound(d_binary: int, bit_dist: int, sigma: int) -> int:
    """The four printed append cases: sigma*(d+1) when the appended bits
    disagree with even d or agree with odd d, else sigma*d."""
    if bit_dist not in (0, 1):
        raise ValueError("bit_dist must be 0 or 1")
    if d_binary % 2 == 0:
        return sigma * (d_binary + 1) if bit_dist == 1 else sigma * d_binary
    return sigma * d_binary if bit_dist == 1 else sigma * (d_binary + 1)


# ---------------------------------------------------------------------------
# the printed binary condition for complete conflict freedom
# ---------------------------------------------------------------------------

def binary_complete_conflict_condition(a: str | Sequence[int], mode: str = "corrected") -> bool:
    """Window condition on a binary string meant to force complete conflict
    freedom of its encoding.

    ``literal`` evaluates the inequality exactly as printed: a sum of 2*mu
    indicator terms must exceed 2*mu, which no string satisfies once any
    window exists.  ``corrected`` requires instead that no window repeats,
    i.e. not all positions of the two adjacent half-windows agree.  Neither
    is sufficient for the encoding to be complete conflict free; use
    :func:`encodes_to_complete_conflict_free` for ground truth.
    """
    bits = _bits(a)
    n = len(bits)
    if mode not in ("literal", "corrected"):
        raise ValueError("mode must be 'literal' or 'corrected'")
    for two_mu in range(2, n // 2 + 1, 2):
        for lam in range(0, n - two_mu + 1):
            if lam + 2 * two_mu > n:
                continue  # window runs past the string: skipped
            agreements = sum(
                1 for i in range(lam, lam + two_mu) if bits[i] == bits[i + two_mu]
            )
            if mode == "literal":
                if not two_mu < agreements:
                    return False
            else:
                if agreements == two_mu:
                    return False
    return True


def encodes_to_complete_conflict_free(a: str | Sequence[int], tmap: TransitionMap) -> bool:
    """Ground truth: encode and scan."""
    return is_complete_conflict_free(encode(a, tmap))


@lru_cache(maxsize=8)
def default_pair(ell: int) -> BlockPair:
    """Lexicographically first fully valid pair for a block length."""
    pairs = enumerate_valid_pairs(ell)
    if not pairs:
        raise ValueError(f"no fully valid pair at ell={ell}")
    return pairs[0]
