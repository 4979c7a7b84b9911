import numpy as np
import pytest

from dnacf.bincodes import (
    BinaryCode,
    CodeTooLargeError,
    codeword_matrix,
    enumerate_codewords,
    gf2_rank,
    golay_23_12,
    hamming_7_4,
    measured_min_distance,
    reed_muller,
    reed_muller_code,
    repetition_code,
)


def test_repetition():
    code = repetition_code(5)
    assert set(code.words) == {"00000", "11111"}
    assert measured_min_distance(code) == 5
    assert set(repetition_code(1).words) == {"0", "1"}


def test_hamming_7_4_listing():
    code = hamming_7_4()
    words = enumerate_codewords(code)
    assert len(words) == 16
    assert "1110000" in words and "1111111" in words
    assert measured_min_distance(code) == 3
    # closed under addition: the listing is the whole linear code
    ws = set(words)
    for a in words:
        for b in words:
            s = "".join(str(int(x) ^ int(y)) for x, y in zip(a, b))
            assert s in ws


def test_reed_muller_base_cases():
    assert reed_muller(0, 3).tolist() == [[1] * 8]
    g = reed_muller(3, 3)
    assert g.shape == (8, 8)
    assert gf2_rank(g) == 8


def test_reed_muller_parameters():
    for r, m in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]:
        code = reed_muller_code(r, m)
        from math import comb

        assert code.n == 2 ** m
        assert code.dimension == sum(comb(m, i) for i in range(r + 1))
        assert measured_min_distance(code) == 2 ** (m - r)
    with pytest.raises(ValueError):
        reed_muller(3, 2)


def test_reed_muller_1_3_parameters():
    code = reed_muller_code(1, 3)
    assert code.size == 16
    assert measured_min_distance(code) == 4


def test_golay():
    code = golay_23_12()
    assert code.size == 4096
    assert measured_min_distance(code) == 7
    words = enumerate_codewords(code)
    assert len(set(words)) == 4096


def test_enumerate_limit(monkeypatch):
    import dnacf.bincodes as bincodes

    monkeypatch.setattr(bincodes, "ENUMERATION_LIMIT", 100)
    with pytest.raises(CodeTooLargeError):
        enumerate_codewords(golay_23_12())
    # the limit counts codewords times length, read at call time
    golay = golay_23_12()
    monkeypatch.setattr(bincodes, "ENUMERATION_LIMIT", 4096 * 23)
    assert len(enumerate_codewords(golay)) == 4096
    monkeypatch.setattr(bincodes, "ENUMERATION_LIMIT", 4096 * 23 - 1)
    with pytest.raises(CodeTooLargeError):
        enumerate_codewords(golay)
    with pytest.raises(CodeTooLargeError):
        measured_min_distance(golay)
    monkeypatch.setattr(bincodes, "ENUMERATION_LIMIT", 2 * 9 - 1)
    with pytest.raises(CodeTooLargeError):
        measured_min_distance(repetition_code(9))


def test_reed_muller_refused_before_building(monkeypatch):
    import dnacf.bincodes as bincodes

    def no_building(r, m):
        raise AssertionError("built past the limit")

    monkeypatch.setattr(bincodes, "reed_muller", no_building)
    for r, m in [(1, 20), (1, 25), (2, 17)]:
        with pytest.raises(CodeTooLargeError):
            reed_muller_code(r, m)
    with pytest.raises(AssertionError):  # generator under the limit: built
        reed_muller_code(1, 19)


def _span(generator):
    # every XOR of a subset of the generator rows, as 0/1 strings
    words = {"0" * generator.shape[1]}
    for row in generator:
        words |= {"".join(str(int(a) ^ int(b)) for a, b in zip(w, row)) for w in words}
    return words


@pytest.mark.parametrize("code", [hamming_7_4(), golay_23_12(), reed_muller_code(1, 5),
                                  reed_muller_code(2, 4), repetition_code(5)], ids=lambda c: c.name)
def test_codeword_matrix_is_the_sorted_code(code):
    mat = codeword_matrix(code)
    assert mat.dtype == np.uint8 and mat.shape == (code.size, code.n)
    rows = ["".join(map(str, row)) for row in mat]
    assert rows == sorted(enumerate_codewords(code))
    expected = set(code.words) if code.words is not None else _span(code.generator)
    assert rows == sorted(expected)


def test_codeword_matrix_sorts_long_words():
    # rows are sorted by one key each: a sort key per bit column would take
    # 2^20 keys here
    n = 1 << 20
    code = BinaryCode(name="long", n=n, words=("1" + "0" * (n - 1), "0" * (n - 1) + "1"))
    mat = codeword_matrix(code)
    assert mat.shape == (2, n)
    assert mat[0, -1] == 1 and mat[1, 0] == 1 and mat.sum() == 2
    assert codeword_matrix(reed_muller_code(0, 20)).sum(axis=1).tolist() == [0, n]


def test_codeword_matrix_rejects_non_binary_words(monkeypatch):
    import dnacf.bincodes as bincodes

    with pytest.raises(ValueError, match="0102"):
        codeword_matrix(BinaryCode(name="f", n=4, words=("0000", "0102")))
    with pytest.raises(ValueError, match="not a binary word"):
        codeword_matrix(BinaryCode(name="f", n=2, words=("00", "1\u00e9")))
    monkeypatch.setattr(bincodes, "ENUMERATION_LIMIT", 7)
    with pytest.raises(CodeTooLargeError):  # the size guard runs first
        codeword_matrix(BinaryCode(name="f", n=4, words=("0000", "0102")))


def test_published_rm_row_is_inconsistent():
    # the published parameter row labels the order-1 length-8 code
    # "[8,4,2]" with 256 words; an [8,4] code has 16, and the printed size
    # exponent (summing binomials from i=1) gives 8 -- both wrong
    from dnacf import reference

    code = reed_muller_code(1, 3)
    row = next(r for r in reference.PARAMS_TABLE if r["name"] == "rm(1,3)")
    assert code.size == 16
    assert row["size"] == 256 != code.size
    assert 2 ** 3 != code.size  # exponent from i=1: C(3,1) = 3


def test_binary_code_validation():
    with pytest.raises(ValueError):
        BinaryCode(name="bad", n=3, words=("010", "0101"))
    with pytest.raises(ValueError):
        BinaryCode(name="bad", n=3)
    dep = np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        BinaryCode(name="dep", n=3, generator=dep)
