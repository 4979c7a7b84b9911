"""Compose a binary code with a validated block pair into a DNA code, and
check every predicted property against measurement.

Predictions are computed from sound rules only, so a finished build's report
never over-claims: the encoded minimum distance comes from the binary
support-gap distance (an exact isometry), the complement check from the exact
prefix-parity rule, and the reverse/conflict/hairpin checks from the
corresponding pair flags.  The codewords enter once, as a sorted 0/1 matrix
that the encoder and the binary-side scan read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence

from . import core
from .bincodes import BinaryCode, codeword_matrix, reed_muller_code
from .constraints import ConstraintReport, DnaCode, verify_code
from .isomap import (
    BlockPair,
    TransitionMap,
    binary_distances,
    encode_all,
    encoded_gc_content,
    validate_pair,
)


class BuildRefusedError(RuntimeError):
    """The pair lacks a flag needed for a requested claim."""


class BuildFailedError(RuntimeError):
    """A predicted property failed measurement."""


#: claim name -> pair flag it needs
_CLAIM_FLAGS = {
    "reverse": "reverse_safe",
    "conflict": "conflict_safe",
    "hairpin": "hairpin_safe",
    "gc_balanced": "gc_balanced",
}


@dataclass(frozen=True)
class CheckRow:
    name: str
    predicted: object
    measured: object
    passed: bool


@dataclass
class DnaCodeBuildReport:
    source: str
    pair: tuple[str, str]
    h0: str
    n_bits: int
    ell: int
    checks: list[CheckRow] = field(default_factory=list)
    constraint_report: Optional[ConstraintReport] = None

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.checks)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "pair": list(self.pair),
            "h0": self.h0,
            "n_bits": self.n_bits,
            "ell": self.ell,
            "measured": self.constraint_report.to_dict() if self.constraint_report else None,
            "claims": [
                {
                    "name": row.name,
                    "predicted": row.predicted,
                    "measured": row.measured,
                    "pass": row.passed,
                }
                for row in self.checks
            ],
            "pass": self.passed,
        }


def printed_complement_condition(d_min: int, n_bits: int, ell: int) -> bool:
    """The published trigger for the complement constraint: minimum encoded
    distance at most half the codeword length.  Kept for auditability; it is
    not sufficient (see tests), so builds do not use it."""
    return d_min <= n_bits * ell / 2


def build_dna_code(
    code: BinaryCode,
    pair: BlockPair,
    h0: str = "x",
    require: Sequence[str] = (),
) -> tuple[DnaCode, DnaCodeBuildReport]:
    """Encode every codeword and verify the predicted constraint profile.

    ``require`` names claims ("reverse", "conflict", "hairpin",
    "gc_balanced") that must be supported by the pair; the build refuses,
    naming the missing flag, when one is not.
    """
    flags = validate_pair(pair)
    for claim in require:
        flag = _CLAIM_FLAGS.get(claim)
        if flag is None:
            raise ValueError(f"unknown claim {claim!r}")
        if not getattr(flags, flag):
            raise BuildRefusedError(f"pair ({pair.x},{pair.y}) lacks {flag} for claim {claim!r}")

    tmap = TransitionMap(pair, h0)
    bits = codeword_matrix(code)
    n_bits, ell = code.n, pair.ell
    dna = DnaCode(tuple(encode_all(bits, tmap)))

    d_bin, d_comp = binary_distances(bits, ell)
    d_pred = d_bin if len(bits) >= 2 else None
    report = DnaCodeBuildReport(
        source=code.name, pair=(pair.x, pair.y), h0=h0, n_bits=n_bits, ell=ell
    )
    measured = verify_code(dna, claimed_d=d_pred)
    report.constraint_report = measured

    def check(name, predicted, got, ok):
        report.checks.append(CheckRow(name=name, predicted=predicted, measured=got, passed=ok))

    check("length", n_bits * ell, dna.n, dna.n == n_bits * ell)
    check("size", len(bits), dna.size, dna.size == len(bits))
    if d_pred is not None:
        check("hamming_distance", d_pred, measured.min_hamming, measured.min_hamming == d_pred)
    gc_pred = encoded_gc_content(
        n_bits, core.gc_content(pair.x), core.gc_content(pair.y), tmap.start_class()
    )
    check("gc_content", gc_pred, measured.gc_constant, measured.gc_constant == gc_pred)
    if flags.conflict_safe:
        # short encodings cap the level at floor(len/2)
        level_pred = min(2 * ell - 1, (n_bits * ell) // 2)
        check(
            "conflict_level",
            level_pred,
            measured.conflict_free_level,
            measured.conflict_free_level >= level_pred,
        )
    if flags.hairpin_safe:
        check("hairpin_free", True, measured.hairpin_free, measured.hairpin_free)
    if flags.reverse_safe and n_bits % 2 == 0:
        check("reverse", True, measured.reverse_ok, measured.reverse_ok)
    # the encoded code's complement distance, measured on the binary side
    if d_pred is not None and d_comp >= d_pred:
        check("complement", True, measured.complement_ok, measured.complement_ok)
        if flags.reverse_safe and n_bits % 2 == 0:
            check(
                "reverse_complement",
                True,
                measured.reverse_complement_ok,
                measured.reverse_complement_ok,
            )
    if not report.passed:
        failed = [row.name for row in report.checks if not row.passed]
        raise BuildFailedError(f"predicted properties failed measurement: {failed}")
    return dna, report


def reed_muller_dna(
    r: int, m: int, pair: BlockPair, h0: str = "x"
) -> tuple[DnaCode, DnaCodeBuildReport]:
    """Encode the order-r length-2^m binary code through a fully valid pair
    and assert the predicted parameters.

    Refused for r = m (the distance formula ell*2^(m-r-1) is fractional) and
    for m > 4 (enumeration scale).
    """
    if not 0 <= r < m:
        raise ValueError(f"need 0 <= r < m (distance formula); got r={r}, m={m}")
    if m > 4:
        raise ValueError("m > 4 exceeds desk scale")
    flags = validate_pair(pair)
    if not flags.fully_valid:
        raise BuildRefusedError(f"pair ({pair.x},{pair.y}) is not fully valid")
    code = reed_muller_code(r, m)
    dna, report = build_dna_code(code, pair, h0=h0, require=("conflict", "gc_balanced"))
    ell = pair.ell
    expected_d = ell * (1 << (m - r - 1))
    expected_size = 1 << sum(comb(m, i) for i in range(r + 1))
    measured = report.constraint_report
    rows = [
        CheckRow("rm_distance", expected_d, measured.min_hamming, measured.min_hamming == expected_d),
        CheckRow("rm_size", expected_size, dna.size, dna.size == expected_size),
        CheckRow(
            "rm_gc", ell * (1 << (m - 1)), measured.gc_constant,
            measured.gc_constant == ell * (1 << (m - 1)),
        ),
    ]
    report.checks.extend(rows)
    if not all(row.passed for row in rows):
        failed = [row.name for row in rows if not row.passed]
        raise BuildFailedError(f"predicted properties failed measurement: {failed}")
    return dna, report
