from itertools import accumulate, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnacf import _kernels, bincodes, core
from dnacf.constraints import (
    ConstraintReport,
    DnaCode,
    conflict_free_level,
    count_special_strings,
    is_complete_conflict_free,
    is_conflict_free,
    is_rc_substring_free,
    verify_code,
)
from dnacf.factory import build_dna_code
from dnacf.isomap import BlockPair, default_pair

dna = st.text(alphabet="ACGT", min_size=2, max_size=80)


def oracle_conflict_free(s, ell):
    for t in range(1, ell + 1):
        for p in range(len(s) - 2 * t + 1):
            if s[p:p + t] == s[p + t:p + 2 * t]:
                return False
    return True


def oracle_level(s):
    return max((ell for ell in range(1, len(s) // 2 + 1) if oracle_conflict_free(s, ell)), default=0)


def oracle_rc_free(s):
    # every substring pair of every length >= 3
    n = len(s)
    for length in range(3, n + 1):
        subs = {s[i:i + length] for i in range(n - length + 1)}
        if any(core.reverse_complement(w) in subs for w in subs):
            return False
    return True


def test_conflict_free_examples():
    assert is_conflict_free("ATCATCG", 2)
    assert not is_conflict_free("ATCATCG", 3)
    assert not is_conflict_free("ACGGGGAT", 1)
    assert not is_conflict_free("AGATATATGC", 2)
    with pytest.raises(ValueError):
        is_conflict_free("ACGT", 3)
    with pytest.raises(ValueError):
        is_conflict_free("ACGT", 0)


def test_complete_conflict_free_examples():
    assert is_complete_conflict_free("ACGT")
    assert not is_complete_conflict_free("AA")
    # the adjacent ATC blocks make this fail at level 3 = floor(7/2)
    assert not is_complete_conflict_free("ATCATCG")
    assert is_complete_conflict_free("A")


def test_rc_substring_free_examples():
    assert is_rc_substring_free("ACATCG")
    assert not is_rc_substring_free("ATACGCGAATGCGTGC")
    assert is_rc_substring_free("AAAA")


def test_oracle_agreement_small_exhaustive():
    for n in range(2, 6):
        for tup in product("ACGT", repeat=n):
            s = "".join(tup)
            for ell in range(1, n // 2 + 1):
                assert is_conflict_free(s, ell) == oracle_conflict_free(s, ell)
            assert is_rc_substring_free(s) == oracle_rc_free(s)


@given(dna)
def test_oracle_agreement_random(s):
    assert is_rc_substring_free(s) == oracle_rc_free(s)
    for ell in range(1, len(s) // 2 + 1):
        assert is_conflict_free(s, ell) == oracle_conflict_free(s, ell)
    assert conflict_free_level(s) == oracle_level(s)
    assert is_complete_conflict_free(s) == (oracle_level(s) == len(s) // 2)


@given(st.text(alphabet="01", min_size=1, max_size=30))
def test_oracle_agreement_encoded(bits):
    # encodings through a conflict-safe pair reach level 2*ell - 1, so random
    # strings alone would rarely test the deep levels of long words
    from dnacf.isomap import TransitionMap, default_pair, encode

    s = encode(bits, TransitionMap(default_pair(3)))
    assert conflict_free_level(s) == oracle_level(s)
    assert is_rc_substring_free(s) == oracle_rc_free(s)


@given(dna.filter(lambda s: len(s) >= 4))
def test_conflict_closure_and_monotonicity(s):
    for ell in range(1, len(s) // 2 + 1):
        v = is_conflict_free(s, ell)
        assert is_conflict_free(core.complement(s), ell) == v
        assert is_conflict_free(core.reverse(s), ell) == v
        assert is_conflict_free(core.reverse_complement(s), ell) == v
        if ell >= 2 and v:
            assert is_conflict_free(s, ell - 1)


@given(dna)
def test_rc_free_closure(s):
    v = is_rc_substring_free(s)
    assert is_rc_substring_free(core.complement(s)) == v
    assert is_rc_substring_free(core.reverse(s)) == v
    assert is_rc_substring_free(core.reverse_complement(s)) == v


def brute_count(n, kind, m=None):
    total = 0
    for tup in product("ACGT", repeat=n):
        s = "".join(tup)
        if kind == "self_reverse":
            ok = s == core.reverse(s)
        elif kind == "self_rc":
            ok = s == core.reverse_complement(s)
        elif kind == "gc_exact":
            ok = core.gc_content(s) == m
        elif kind == "gc_and_self_rc":
            ok = core.gc_content(s) == m and s == core.reverse_complement(s)
        else:
            ok = core.gc_content(s) == m and s == core.reverse(s)
        total += ok
    return total


def test_count_examples():
    assert count_special_strings(4, "self_reverse") == 16
    assert count_special_strings(3, "self_rc") == 0
    assert count_special_strings(2, "gc_exact", 1) == 8
    with pytest.raises(ValueError):
        count_special_strings(4, "gc_exact", 9)
    with pytest.raises(ValueError):
        count_special_strings(4, "bogus", 1)


def test_counts_match_brute_force_small():
    # acceptance covers n <= 8; keep the unit test quick
    for n in range(1, 6):
        assert count_special_strings(n, "self_reverse") == brute_count(n, "self_reverse")
        assert count_special_strings(n, "self_rc") == brute_count(n, "self_rc")
        for m in range(n + 1):
            for kind in ("gc_exact", "gc_and_self_rc", "gc_and_self_reverse"):
                assert count_special_strings(n, kind, m) == brute_count(n, kind, m), (n, kind, m)


def test_verify_code_worked_example():
    code = {"CAC", "CGT", "ACG", "TGC", "GCA", "GTG"}
    rep = verify_code(code)
    assert rep.min_hamming == 2
    assert rep.gc_constant == 2
    assert rep.reverse_ok and rep.reverse_complement_ok


def test_verify_code_published_12_word_code():
    words = ("ACTG", "AGCT", "ATGC", "CAGT", "CGTA", "CTAG",
             "GATC", "GCAT", "GTCA", "TACG", "TCGA", "TGAC")
    rep = verify_code(words, claimed_d=3)
    assert rep.min_hamming == 3
    assert rep.gc_constant == 2
    assert rep.conflict_free_level == 2
    assert rep.reverse_ok and rep.reverse_complement_ok


def test_verify_code_singleton_convention():
    rep = verify_code(["ACGT"])
    assert rep.min_hamming == 4
    assert rep.reverse_ok and rep.reverse_complement_ok and rep.complement_ok
    assert rep.gc_constant == 2


def test_verify_code_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        verify_code(["ACG", "ACGT"])
    with pytest.raises(ValueError):
        DnaCode(("ACG", "ACG"))


def test_reverse_plus_complement_implies_rc_for_closed_codes():
    # codes closed under reverse and complement satisfy all three transform
    # constraints at their own minimum distance
    from dnacf.search import orbit_closure

    for seedset in ({"ACGTT"}, {"CAC", "CGT"}, {"ATGCA", "GGATC"}):
        rep = verify_code(orbit_closure(seedset))
        assert rep.reverse_ok and rep.complement_ok
        assert rep.reverse_complement_ok


def test_reverse_plus_complement_does_not_imply_rc_in_general():
    # pinned counterexample: the published remark deriving the
    # reverse-complement constraint from the other two fails once pairs
    # where a word equals the transform are skipped
    rep = verify_code(["GAC", "AGA", "GGG"])
    assert rep.reverse_ok and rep.complement_ok
    assert not rep.reverse_complement_ok


def test_conflict_level_descending_scan():
    assert conflict_free_level("ACGT") == 2
    assert conflict_free_level("AA") == 0
    assert conflict_free_level("ATCATCG") == 2


def test_report_shape():
    rep = verify_code(["ACGT", "TGCA"])
    assert isinstance(rep, ConstraintReport)
    d = rep.to_dict()
    assert set(d) == {
        "n", "size", "min_hamming", "distance_floor", "reverse_ok",
        "reverse_complement_ok", "complement_ok", "gc_constant",
        "conflict_free_level", "hairpin_free",
    }


# ---------------------------------------------------------------------------
# verify_code against a naive oracle on random small codes
# ---------------------------------------------------------------------------

_NAIVE_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_NAIVE_TRANSFORMS = {
    "reverse_ok": lambda s: s[::-1],
    "reverse_complement_ok": lambda s: s[::-1].translate(_NAIVE_COMPLEMENT),
    "complement_ok": lambda s: s.translate(_NAIVE_COMPLEMENT),
}


def _naive_distance(x, y):
    return sum(a != b for a, b in zip(x, y))


def naive_report(words, claimed_d=None):
    """Every ConstraintReport field from the definitions, pair by pair."""
    n = len(words[0])
    min_h = min((_naive_distance(x, y) for x in words for y in words if x != y), default=n)
    floor = min_h if claimed_d is None else claimed_d
    report = {"n": n, "size": len(words), "min_hamming": min_h, "distance_floor": floor}
    for field, t in _NAIVE_TRANSFORMS.items():
        # ordered pairs (x, y), skipping those where x equals the transform of y
        report[field] = all(_naive_distance(x, t(y)) >= floor for x in words for y in words if x != t(y))
    gcs = {w.count("G") + w.count("C") for w in words}
    report["gc_constant"] = gcs.pop() if len(gcs) == 1 else None
    report["conflict_free_level"] = min(oracle_level(w) for w in words)
    report["hairpin_free"] = all(oracle_rc_free(w) for w in words)
    return report


@st.composite
def small_codes(draw):
    """Up to 12 distinct words of length n <= 8, drawn in groups that favour
    palindromes, words equal to their own reverse-complement (at odd n, equal
    but for the middle base) and complement, reverse and rc partners."""
    n = draw(st.integers(1, 8))
    word = st.text(alphabet="ACGT", min_size=n, max_size=n)
    half, mid = n // 2, n - 2 * (n // 2)
    rc = _NAIVE_TRANSFORMS["reverse_complement_ok"]
    group = st.one_of(
        word.map(lambda w: [w]),
        word.map(lambda w: [w[:half + mid] + w[:half][::-1]]),
        word.map(lambda w: [w[:half + mid] + rc(w[:half])]),
        word.map(lambda w: [w, w.translate(_NAIVE_COMPLEMENT)]),
        word.map(lambda w: [w, w[::-1], rc(w)]),
    )
    groups = draw(st.lists(group, min_size=1, max_size=6))
    words = list(dict.fromkeys(w for g in groups for w in g))[:12]
    return words, draw(st.none() | st.integers(0, n + 1))


@given(small_codes())
def test_verify_code_matches_naive_oracle(case):
    words, claimed_d = case
    assert verify_code(words, claimed_d=claimed_d).to_dict() == naive_report(words, claimed_d)


# ---------------------------------------------------------------------------
# verify_code's matrix scans against the string predicates
# ---------------------------------------------------------------------------

@st.composite
def long_word_codes(draw):
    """Up to 30 distinct words of length 1..70; a quarter of the draws are
    low-entropy: two letters, a repeated block, a palindrome, or a word equal
    to its own reverse-complement (at odd n, but for the middle base).  The
    rest are uniform words, or walks whose steps never repeat a base, so that
    conflict levels above 0 are common and the code's level varies by row."""
    n = draw(st.integers(1, 70))
    half, mid = n // 2, n % 2
    walk = st.lists(st.integers(1, 3), min_size=n, max_size=n).map(
        lambda steps: "".join("ACGT"[v % 4] for v in accumulate(steps)))
    word = st.one_of(st.text(alphabet="ACGT", min_size=n, max_size=n), walk)
    low = st.one_of(
        st.sampled_from(["AT", "CG", "AC", "GT", "AG"]).flatmap(
            lambda ab: st.text(alphabet=ab, min_size=n, max_size=n)),
        st.text(alphabet="ACGT", min_size=1, max_size=5).map(lambda b: (b * n)[:n]),
        word.map(lambda w: w[:half + mid] + w[:half][::-1]),
        word.map(lambda w: w[:half + mid] + core.reverse_complement(w[:half])),
    )
    kind = st.integers(0, 3).flatmap(lambda k: low if k == 0 else word)
    words = draw(st.lists(kind, min_size=1, max_size=30))
    return list(dict.fromkeys(words))


def _assert_matrix_scans_match_strings(words, report):
    gcs = {core.gc_content(w) for w in words}
    assert report.gc_constant == (gcs.pop() if len(gcs) == 1 else None)
    assert report.conflict_free_level == min(conflict_free_level(w) for w in words)
    assert report.hairpin_free == all(is_rc_substring_free(w) for w in words)


@pytest.mark.parametrize("chunk", [None, 64])
@given(words=long_word_codes())
def test_verify_code_matrix_scans_match_string_predicates(chunk, words):
    # a 64-cell chunk puts every row in a chunk of its own, so the first
    # repeat or hairpin often lies in a later chunk
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(_kernels, "PAIR_CHUNK", chunk)
        _assert_matrix_scans_match_strings(words, verify_code(words))


@pytest.mark.parametrize("code, pair", [
    (bincodes.golay_23_12(), BlockPair("ATA", "CGC")),
    (bincodes.reed_muller_code(1, 5), default_pair(4)),
    (bincodes.reed_muller_code(1, 7), default_pair(3)),
])
@pytest.mark.parametrize("h0", ["x", "yc"])
def test_verify_code_matrix_scans_on_encoded_codes(code, pair, h0):
    dna, report = build_dna_code(code, pair, h0=h0, require=("conflict", "gc_balanced"))
    _assert_matrix_scans_match_strings(dna.words, report.constraint_report)
