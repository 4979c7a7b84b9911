"""String- and code-level constraint predicates, plus closed-form counters.

The predicates treat a string as 1-indexed where the definitions do; all
window scans check every offset, not just block-aligned ones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb
from typing import Iterable, Optional

import numpy as np

from . import _kernels, core


def is_conflict_free(s: str, ell: int) -> bool:
    """True iff no two adjacent identical t-blocks occur for any t = 1..ell.

    ``ell`` must satisfy 1 <= ell <= floor(n/2).
    """
    n = len(s)
    if not 1 <= ell <= n // 2:
        raise ValueError(f"ell={ell} out of range for length {n} (1..{n // 2})")
    return _conflict_level(s, ell) == ell


def _conflict_level(s: str, top: int) -> int:
    # one ascending pass: the first block length t with a repeat caps the level
    n = len(s)
    for t in range(1, top + 1):
        for p in range(n - 2 * t + 1):
            if s[p:p + t] == s[p + t:p + 2 * t]:
                return t - 1
    return top


def is_complete_conflict_free(s: str) -> bool:
    """Conflict free at every block length up to floor(n/2); true for n = 1."""
    return conflict_free_level(s) == len(s) // 2


def conflict_free_level(s: str) -> int:
    """Largest ell for which the string is ell conflict free (0 if none)."""
    return _conflict_level(s, len(s) // 2)


def is_rc_substring_free(s: str) -> bool:
    """True iff no length-3 substring has its reverse-complement elsewhere
    in the string (occurrences may overlap).

    Any reverse-complement substring pair of length k > 3 contains a length-3
    pair, so checking 3-mers covers all stem lengths above 2.
    """
    seen = {s[p:p + 3] for p in range(len(s) - 2)}
    return not any(core.reverse_complement(w) in seen for w in seen)


# 3-mer code 16a + 4b + c -> 63 - (16c + 4b + a), the code of its reverse-complement
_RC_3MER = 63 - np.arange(64).reshape(4, 4, 4).transpose().ravel()


def rows_repeat(rows: np.ndarray, t: int) -> np.ndarray:
    """Per row of a base-code matrix: whether two adjacent t-blocks are equal,
    i.e. t equal positions in a run between the row and itself shifted by t."""
    same = np.zeros((rows.shape[0], rows.shape[1] - t + 1), dtype=np.int32)
    np.cumsum(rows[:, t:] == rows[:, :-t], axis=1, out=same[:, 1:])
    return (same[:, t:] - same[:, :-t] == t).any(axis=1)


def rows_3mers(rows: np.ndarray) -> np.ndarray:
    """(rows, 64) presence table of each row's 3-mers, coded 16a + 4b + c."""
    seen = np.zeros((rows.shape[0], 64), dtype=bool)
    seen[np.arange(rows.shape[0])[:, None], 16 * rows[:, :-2] + 4 * rows[:, 1:-1] + rows[:, 2:]] = True
    return seen


def rc_present(seen: np.ndarray) -> np.ndarray:
    """Per row of a 3-mer table: whether some 3-mer and its reverse-complement
    are both present, which is :func:`is_rc_substring_free` failing."""
    return (seen & seen[:, _RC_3MER]).any(axis=1)


def rows_gc(rows: np.ndarray) -> np.ndarray:
    """GC content of each row of a base-code array, the last axis: C = 01 and
    G = 10 are the codes whose two bits differ."""
    return ((rows ^ (rows >> 1)) & 1).sum(axis=-1)


@dataclass(frozen=True)
class DnaCode:
    """A set of distinct, equal-length DNA codewords."""

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("empty code")
        n = len(self.words[0])
        if any(len(w) != n for w in self.words):
            raise ValueError("mixed codeword lengths")
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate codewords")

    @classmethod
    def from_iterable(cls, words: Iterable[str]) -> "DnaCode":
        return cls(tuple(core.clean(w) for w in words))

    @property
    def n(self) -> int:
        return len(self.words[0])

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class ConstraintReport:
    """Measured constraint profile of a code against a distance floor."""

    n: int
    size: int
    min_hamming: int
    distance_floor: int
    reverse_ok: bool
    reverse_complement_ok: bool
    complement_ok: bool
    gc_constant: Optional[int]
    conflict_free_level: int
    hairpin_free: bool

    def to_dict(self) -> dict:
        return asdict(self)


def verify_code(code: DnaCode | Iterable[str], claimed_d: int | None = None) -> ConstraintReport:
    """Measure every constraint of a code.

    ``min_hamming`` for a singleton code is n by convention.  The reverse,
    reverse-complement, and complement checks compare every ordered codeword
    pair (x, y) against the transformed y, skipping pairs where x equals the
    transform, and require distance >= ``claimed_d`` (measured min if absent).
    The reverse scan stops once both of its verdicts are settled, so a code
    that passes either one at a floor of 2 or more has every pair scanned.
    """
    if not isinstance(code, DnaCode):
        code = DnaCode.from_iterable(code)
    n = code.n
    mat = core.codes_matrix(code.words)
    min_h, comp = _kernels.min_cross_u8(mat)  # comp <= n: a word and its own complement
    min_h = min(n, min_h)  # rows are distinct; n + 1 for one row
    floor = claimed_d if claimed_d is not None else min_h
    # pairs at distance 0 (x equals the transform of y) are skipped; both values
    # are only compared with floor, and every verdict holds below 2
    rev, rc = _kernels.min_cross_u8(mat, reverse=True, stop=max(floor, 2))

    gcs: set[int] = set()
    level, hairpin = n // 2, True
    step = max(1, _kernels.PAIR_CHUNK // max(n, 64))  # rows per chunk of the scans below
    for lo in range(0, code.size, step):
        rows = mat[lo:lo + step]
        gcs.update(rows_gc(rows).tolist())
        # ascending t: the first block length with a repeat caps the level
        level = next((t - 1 for t in range(1, level + 1) if rows_repeat(rows, t).any()), level)
        hairpin = hairpin and not rc_present(rows_3mers(rows)).any()
    gc_constant = gcs.pop() if len(gcs) == 1 else None
    return ConstraintReport(
        n=n,
        size=code.size,
        min_hamming=min_h,
        distance_floor=floor,
        reverse_ok=rev >= floor,
        reverse_complement_ok=rc >= floor,
        complement_ok=comp >= floor,
        gc_constant=gc_constant,
        conflict_free_level=level,
        hairpin_free=hairpin,
    )


SPECIAL_KINDS = ("self_reverse", "self_rc", "gc_exact", "gc_and_self_rc", "gc_and_self_reverse")


def count_special_strings(n: int, kind: str, m: int | None = None) -> int:
    """Closed-form counts of constrained strings of length n.

    ``kind`` selects which family:

    - ``self_reverse``: x equal to its reverse
    - ``self_rc``: x equal to its reverse-complement (0 for odd n)
    - ``gc_exact``: GC content exactly m
    - ``gc_and_self_rc``: GC content m and x equal to its reverse-complement
    - ``gc_and_self_reverse``: GC content m and x equal to its reverse
    """
    if n < 1:
        raise ValueError("n must be positive")
    if kind == "self_reverse":
        return 4 ** ((n + 1) // 2)
    if kind == "self_rc":
        return 4 ** (n // 2) if n % 2 == 0 else 0
    if m is None or not 0 <= m <= n:
        raise ValueError(f"kind {kind!r} needs 0 <= m <= n, got {m}")
    if kind == "gc_exact":
        return comb(n, m) * 2 ** n
    if kind == "gc_and_self_rc":
        # complementary position pairs contribute GC 0 or 2, so m must be even
        if n % 2 == 1 or m % 2 == 1:
            return 0
        return comb(n // 2, m // 2) * 2 ** (n // 2)
    if kind == "gc_and_self_reverse":
        if n % 2 == 0 and m % 2 == 1:
            return 0
        return comb(n // 2, m // 2) * 2 ** ((n + 1) // 2)
    raise ValueError(f"unknown kind {kind!r}; expected one of {SPECIAL_KINDS}")
