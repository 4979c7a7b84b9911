import numpy as np
import pytest

from dnacf.bincodes import (
    BinaryCode,
    codeword_matrix,
    golay_23_12,
    hamming_7_4,
    reed_muller_code,
    repetition_code,
)
from dnacf.constraints import verify_code
from dnacf.factory import (
    BuildRefusedError,
    build_dna_code,
    printed_complement_condition,
    reed_muller_dna,
)
from dnacf.isomap import BlockPair, binary_distances, default_pair, min_binary_distance

PAIR3 = BlockPair("ATA", "CGC")


def test_hamming_build():
    dna, report = build_dna_code(hamming_7_4(), PAIR3, h0="xc")
    assert dna.size == 16 and dna.n == 21
    assert report.constraint_report.min_hamming == 6
    assert report.passed


def test_repetition_build():
    dna, report = build_dna_code(repetition_code(5), PAIR3)
    assert dna.size == 2
    assert report.constraint_report.min_hamming == 9  # three block lengths


def test_single_bit_build_gives_complement_pair():
    code = BinaryCode(name="bits1", n=1, words=("0", "1"))
    dna, report = build_dna_code(code, PAIR3, h0="x")
    assert set(dna.words) == {"ATA", "TAT"}
    assert report.passed


def test_reports_never_overclaim():
    for code in (hamming_7_4(), repetition_code(5)):
        dna, report = build_dna_code(code, PAIR3)
        measured = verify_code(dna, claimed_d=report.constraint_report.distance_floor)
        for row in report.checks:
            assert row.passed, row
        # claimed flags are re-derivable from a fresh measurement
        assert measured.to_dict() == report.constraint_report.to_dict()


def test_build_refuses_missing_flag():
    with pytest.raises(BuildRefusedError, match="conflict_safe"):
        build_dna_code(hamming_7_4(), BlockPair("ACT", "CTG"), require=("conflict",))
    with pytest.raises(ValueError):
        build_dna_code(hamming_7_4(), PAIR3, require=("bogus",))


def test_printed_complement_condition_is_not_sufficient():
    # the published trigger fires for the [7,4,3] build, yet the measured
    # complement check fails; builds therefore use the exact rule instead
    dna, report = build_dna_code(hamming_7_4(), PAIR3)
    assert printed_complement_condition(6, 7, 3)
    assert not report.constraint_report.complement_ok
    assert all(row.name != "complement" for row in report.checks)
    assert report.passed


def _e1_codes():
    six = np.array([[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 0], [0, 0, 1, 1, 0, 1]], dtype=np.uint8)
    return [reed_muller_code(m, m) for m in range(1, 5)] + [
        BinaryCode(name="identity5", n=5, generator=np.eye(5, dtype=np.uint8)),
        BinaryCode(name="six3", n=6, generator=six),
    ]


@pytest.mark.parametrize("ell", [1, 3])
def test_exact_complement_rule_covers_codes_holding_e1(ell):
    # flipping the leading bit complements an encoding, and for a linear code
    # holding e1 = 10...0 that flip maps codewords to codewords
    # (1 - P(v) = P(v ^ e1)), so the exact rule alone predicts the constraint
    for code in _e1_codes():
        bits = codeword_matrix(code)
        e1 = np.eye(1, code.n, dtype=np.uint8)
        assert (bits == e1).all(axis=1).any()
        assert binary_distances(bits, ell)[1] >= min_binary_distance(bits, ell)
    dna, report = build_dna_code(_e1_codes()[4], default_pair(ell))
    assert "complement" in [row.name for row in report.checks]
    assert report.constraint_report.complement_ok


def test_reed_muller_dna_parameters():
    dna, report = reed_muller_dna(1, 3, PAIR3)
    rep = report.constraint_report
    assert dna.n == 24 and dna.size == 16
    assert rep.min_hamming == 6
    assert rep.gc_constant == 12
    assert rep.conflict_free_level >= 5
    assert rep.reverse_ok and rep.reverse_complement_ok and rep.complement_ok


def test_reed_muller_dna_order_zero():
    dna, report = reed_muller_dna(0, 2, PAIR3)
    assert dna.size == 2
    assert report.constraint_report.min_hamming == 3 * 2  # ell * 2^(m-1)


def test_reed_muller_dna_guards():
    with pytest.raises(ValueError):
        reed_muller_dna(3, 3, PAIR3)
    with pytest.raises(ValueError):
        reed_muller_dna(1, 5, PAIR3)
    with pytest.raises(BuildRefusedError):
        reed_muller_dna(1, 3, BlockPair("ACT", "CTG"))


def test_encoded_code_distance_equals_binary_distance():
    # isometry corollary on a non-linear explicit code
    code = BinaryCode(name="odd", n=5, words=("00000", "00111", "11001", "10110"))
    from dnacf.isomap import min_binary_distance

    dna, report = build_dna_code(code, PAIR3)
    assert report.constraint_report.min_hamming == min_binary_distance(code.words, 3)


@pytest.mark.slow
def test_golay_build():
    dna, report = build_dna_code(golay_23_12(), PAIR3)
    assert dna.size == 4096
    assert report.constraint_report.min_hamming == 12  # four block lengths
    assert report.passed
