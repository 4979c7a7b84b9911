"""Classical binary codes feeding the DNA encoder.

Codes are either explicit word lists or generator matrices over GF(2).
:func:`codeword_matrix` enumerates either kind once, as sorted 0/1 rows;
codewords render as 0/1 strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from . import _kernels, core

# The sixteen words of the [7,4,3] Hamming code, kept as the published
# listing so encoded tables reproduce row for row.
HAMMING_7_4_WORDS = (
    "0000000", "1110000", "1001100", "0111100",
    "0101010", "1011010", "1100110", "0010110",
    "1101001", "0011001", "0100101", "1010101",
    "1000011", "0110011", "0001111", "1111111",
)

# Systematic [23,12,7] Golay generator, reduced from the cyclic code of the
# quadratic-residue polynomial x^11+x^9+x^7+x^6+x^5+x+1 and committed here
# verbatim; weight enumeration over all 4096 words is pinned in tests.
GOLAY_23_12_ROWS = (
    "10000000000010101110001",
    "01000000000011111001001",
    "00100000000011010010101",
    "00010000000011000111011",
    "00001000000011001101100",
    "00000100000001100110110",
    "00000010000000110011011",
    "00000001000010110111100",
    "00000000100001011011110",
    "00000000010000101101111",
    "00000000001010111000110",
    "00000000000101011100011",
)

#: largest code, in codewords times length (one byte each once enumerated),
#: that will be enumerated: 16 MiB admits RM(1,11) and refuses RM(1,12).
ENUMERATION_LIMIT = 1 << 24


class CodeTooLargeError(RuntimeError):
    """Raised when full enumeration of a code would exceed :data:`ENUMERATION_LIMIT`."""


@dataclass(frozen=True)
class BinaryCode:
    """A binary code, explicit or generator-defined."""

    name: str
    n: int
    words: Optional[tuple[str, ...]] = None
    generator: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.words is None) == (self.generator is None):
            raise ValueError("need exactly one of words or generator")
        if self.words is not None:
            if any(len(w) != self.n for w in self.words):
                raise ValueError("mixed word lengths")
            if len(set(self.words)) != len(self.words):
                raise ValueError("duplicate words")
        else:
            if self.generator.shape[1] != self.n:
                raise ValueError("generator width does not match n")
            if gf2_rank(self.generator) != self.generator.shape[0]:
                raise ValueError("generator rows are linearly dependent")

    @property
    def size(self) -> int:
        if self.words is not None:
            return len(self.words)
        return 1 << self.generator.shape[0]

    @property
    def dimension(self) -> Optional[int]:
        return None if self.generator is None else self.generator.shape[0]


def gf2_rank(mat: np.ndarray) -> int:
    m = (np.asarray(mat, dtype=np.uint8) % 2).copy()
    rank = 0
    for c in range(m.shape[1]):
        piv = None
        for r in range(rank, m.shape[0]):
            if m[r, c]:
                piv = r
                break
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        for r in range(m.shape[0]):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def codeword_matrix(code: BinaryCode) -> np.ndarray:
    """All codewords as uint8 0/1 rows, lexicographically sorted."""
    if code.size * code.n > ENUMERATION_LIMIT:
        raise CodeTooLargeError(f"{code.name}: {code.size} codewords of length {code.n} "
                                f"exceed the enumeration limit of {ENUMERATION_LIMIT} bits")
    if code.words is not None:
        text = "".join(code.words).encode("ascii", "replace")  # one byte per character
        mat = (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(code.size, code.n)
        bad = (mat > 1).any(axis=1)
        if bad.any():
            raise ValueError(f"not a binary word: {code.words[int(bad.argmax())]!r}")
    else:
        k = code.generator.shape[0]
        msgs = ((np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1).astype(np.uint8)
        mat = msgs @ code.generator % 2
    return mat[np.argsort(core.bit_row_keys(mat), kind="stable")]


def enumerate_codewords(code: BinaryCode) -> list[str]:
    """All codewords as 0/1 strings, lexicographically sorted."""
    return core.rows_text(codeword_matrix(code) + ord("0"))


def measured_min_distance(code: BinaryCode) -> int:
    """Minimum Hamming distance by full enumeration.

    Linear codes reduce to minimum nonzero weight (row 0 is the zero word);
    explicit codes scan pairs with the packed pair kernel.
    """
    mat = codeword_matrix(code)
    if code.generator is not None:
        return int(mat[1:].sum(axis=1).min())
    return min(code.n, _kernels.min_cross_u8(mat)[0])  # the words are distinct


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def repetition_code(n: int) -> BinaryCode:
    if n < 1:
        raise ValueError("n must be positive")
    return BinaryCode(name=f"repetition{n}", n=n, words=("0" * n, "1" * n))


def hamming_7_4() -> BinaryCode:
    return BinaryCode(name="hamming74", n=7, words=HAMMING_7_4_WORDS)


def reed_muller(r: int, m: int) -> np.ndarray:
    """Generator matrix of the order-r length-2^m Reed-Muller code, built by
    the block recursion [[G(r,m-1), G(r,m-1)], [0, G(r-1,m-1)]]."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    if r == 0:
        return np.ones((1, 1 << m), dtype=np.uint8)
    if r == m:
        top = reed_muller(m - 1, m)
        last = np.ones((1, 1 << m), dtype=np.uint8)
        last[0, -1] = 0
        return np.vstack([top, last])
    left = reed_muller(r, m - 1)
    low = reed_muller(r - 1, m - 1)
    top = np.hstack([left, left])
    bottom = np.hstack([np.zeros((low.shape[0], 1 << (m - 1)), dtype=np.uint8), low])
    return np.vstack([top, bottom])


def reed_muller_code(r: int, m: int) -> BinaryCode:
    """RM(r, m).  A generator above :data:`ENUMERATION_LIMIT` is refused
    before it is built: the codeword list would be larger still."""
    dim = sum(comb(m, i) for i in range(r + 1)) if 0 <= r <= m else 0
    if dim and dim << m > ENUMERATION_LIMIT:  # dim is 0 only when (r, m) is invalid
        raise CodeTooLargeError(f"rm({r},{m}): a generator of {dim} x {1 << m} bits "
                                f"exceeds the enumeration limit of {ENUMERATION_LIMIT} bits")
    gen = reed_muller(r, m)
    assert gen.shape == (dim, 1 << m)
    return BinaryCode(name=f"rm({r},{m})", n=1 << m, generator=gen)


def golay_23_12() -> BinaryCode:
    gen = np.array([[int(c) for c in row] for row in GOLAY_23_12_ROWS], dtype=np.uint8)
    return BinaryCode(name="golay23", n=23, generator=gen)
