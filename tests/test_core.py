import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dnacf import core

dna = st.text(alphabet="ACGT", min_size=1, max_size=24)


def test_complement_examples():
    assert core.complement("ACGT") == "TGCA"
    assert core.complement("AAAA") == "TTTT"
    assert core.complement("CAC") == "GTG"


def test_reverse_examples():
    assert core.reverse("ACG") == "GCA"
    assert core.reverse("A") == "A"
    assert core.reverse("GCTACA") == "ACATCG"


def test_reverse_complement_examples():
    assert core.reverse_complement("ACA") == "TGT"
    assert core.reverse_complement("ACATCG") == "CGATGT"
    assert core.reverse_complement("AT") == "AT"


def test_hamming_examples():
    assert core.hamming_distance("ACGT", "ACGT") == 0
    assert core.hamming_distance("AAAA", "TTTT") == 4
    assert core.hamming_distance("ACT", "GTC") == 3
    with pytest.raises(ValueError):
        core.hamming_distance("ACG", "AC")


def test_gc_examples():
    assert core.gc_content("ATA") == 0
    assert core.gc_content("CGC") == 3
    assert core.gc_content("ACATCG") == 3


def test_clean_rejects_ambiguity_codes():
    assert core.clean("acgt") == "ACGT"
    for bad in ("ACGN", "ACGU", "AC-T", ""):
        with pytest.raises(core.AlphabetError):
            core.clean(bad)


@given(dna)
def test_involutions(s):
    assert core.reverse(core.reverse(s)) == s
    assert core.complement(core.complement(s)) == s
    assert core.reverse_complement(core.reverse_complement(s)) == s
    assert core.reverse_complement(s) == core.complement(core.reverse(s))


@given(dna)
def test_gc_invariance(s):
    g = core.gc_content(s)
    assert core.gc_content(core.complement(s)) == g
    assert core.gc_content(core.reverse(s)) == g
    assert core.gc_content(core.reverse_complement(s)) == g


@given(dna, dna)
def test_complement_preserves_distance(s, t):
    n = min(len(s), len(t))
    s, t = s[:n], t[:n]
    assert core.hamming_distance(core.complement(s), core.complement(t)) == core.hamming_distance(s, t)


def test_all_invariants_exhaustive_small():
    # every string of length <= 6
    from itertools import product

    for n in range(1, 7):
        for tup in product("ACGT", repeat=n):
            s = "".join(tup)
            assert core.reverse(core.reverse(s)) == s
            assert core.complement(core.complement(s)) == s
            rc = core.reverse_complement(s)
            assert core.reverse_complement(rc) == s
            assert core.gc_content(rc) == core.gc_content(s)


# n = 1, and n = 31, whose leftmost base sits at the top int64 shift of 60
@example("A")
@example("T")
@example("T" + "A" * 30)
@example("ACGT" * 7 + "GTC")
@given(st.text(alphabet="ACGT", min_size=1, max_size=31))
def test_pack_roundtrip(s):
    v, n = core.pack(s), len(s)
    assert core.unpack_all([v, core.reverse_packed(v, n)], n) == [s, core.reverse(s)]


def test_packed_order_is_lexicographic():
    words = ["AC", "CA", "GT", "TG", "AA", "TT"]
    packed = sorted(core.pack(w) for w in words)
    assert core.unpack_all(packed, 2) == sorted(words)
    assert core.unpack_all(np.empty(0, dtype=np.int64), 2) == []


def test_codes_matrix_roundtrip():
    words = ["ACGT", "TTTT", "CAGC"]
    mat = core.codes_matrix(words)
    assert mat.dtype == np.uint8
    assert ["".join(core.ALPHABET[c] for c in row) for row in mat] == words
    with pytest.raises(ValueError):
        core.codes_matrix(["AC", "ACG"])
    with pytest.raises(ValueError, match="mixed lengths"):
        core.codes_matrix(["ACG", "A", "ACGTA"])  # the total length alone matches


@pytest.mark.parametrize("bad", ["ACGa", "ACGN", "AC?T", "AC\u00e9T", "AC\U0001f600T", "AC T"])
def test_codes_matrix_rejects_every_other_character(bad):
    with pytest.raises(core.AlphabetError, match="invalid base"):
        core.codes_matrix(["ACGT", bad])


@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(st.text(alphabet="ACGT", min_size=n, max_size=n), min_size=1, max_size=6)))
def test_codes_matrix_matches_the_code_table(words):
    mat = core.codes_matrix(words)
    assert mat.tolist() == [["ACGT".index(ch) for ch in w] for w in words]
