"""Alphabet, DNA string involutions, and the packed 2-bit representation.

Strings are plain ``str`` over ``ACGT`` in the public API.  For exhaustive
enumeration and distance scans, strings are packed two bits per base into a
single integer (leftmost base in the most significant pair), so that ascending
packed values enumerate strings in lexicographic order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ALPHABET = "ACGT"

# A=0, C=1, G=2, T=3.  Complement A<->T, C<->G is XOR with 0b11 per base.
_CODE_OF = {b: i for i, b in enumerate(ALPHABET)}
_COMPLEMENT_TABLE = str.maketrans("ACGTacgt", "TGCATGCA")
# ASCII byte -> base code, 255 for every byte that is not a base
_CODE_LUT = np.full(256, 255, dtype=np.uint8)
_BASES = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)
_CODE_LUT[_BASES] = np.arange(4)

#: low bit of every 2-bit group in a 64-bit word
LOW_BITS = 0x5555555555555555


class AlphabetError(ValueError):
    """Raised when a string contains a character outside ACGT."""


def clean(s: str) -> str:
    """Normalize to uppercase ACGT, rejecting anything else (incl. IUPAC codes)."""
    t = s.strip().upper()
    if not t:
        raise AlphabetError("empty DNA string")
    for ch in t:
        if ch not in _CODE_OF:
            raise AlphabetError(f"invalid base {ch!r} in {s!r}")
    return t


def complement(s: str) -> str:
    """Watson-Crick complement, position by position."""
    return s.translate(_COMPLEMENT_TABLE)


def reverse(s: str) -> str:
    """The string read right to left."""
    return s[::-1]


def reverse_complement(s: str) -> str:
    """reverse(complement(s)); the strand this string hybridizes with."""
    return complement(s)[::-1]


def hamming_distance(s: str, t: str) -> int:
    """Number of positions at which two equal-length strings differ."""
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} vs {len(t)}")
    return sum(a != b for a, b in zip(s, t))


def gc_content(s: str) -> int:
    """Number of G and C symbols; invariant under reverse and complement."""
    return sum(ch in "GC" for ch in s)


# ---------------------------------------------------------------------------
# packed representation (2 bits per base, leftmost base most significant)
# ---------------------------------------------------------------------------

def pack(s: str) -> int:
    """Pack a string of length <= 31 into one integer."""
    v = 0
    for ch in s:
        v = (v << 2) | _CODE_OF[ch]
    return v


def unpack_all(values, n: int) -> list[str]:
    """Inverse of :func:`pack` over an array of values of a known length n."""
    shifts = np.arange(2 * n - 2, -1, -2, dtype=np.int64)
    codes = (np.asarray(values, dtype=np.int64)[:, None] >> shifts) & 3
    return rows_text(_BASES[codes])


def bit_row_keys(mat: np.ndarray) -> np.ndarray:
    """One key per row of a 0/1 matrix; the keys sort and compare as the rows
    do in lexicographic order."""
    packed = np.ascontiguousarray(np.packbits(mat, axis=1))
    return packed.view(f"V{packed.shape[1]}")[:, 0]


def rows_text(mat: np.ndarray) -> list[str]:
    """The rows of a uint8 matrix of ASCII bytes, one string each."""
    rows = np.ascontiguousarray(mat).view(f"S{mat.shape[1]}")[:, 0]
    return list(map(bytes.decode, rows.tolist()))


def reverse_packed(v, n: int):
    """Reverse a packed value, or elementwise an integer array of them."""
    out = 0
    for _ in range(n):
        out = (out << 2) | (v & 3)
        v = v >> 2
    return out


# ---------------------------------------------------------------------------
# code-array representation for strings too long to pack (one byte per base)
# ---------------------------------------------------------------------------

def codes_matrix(words: Sequence[str]) -> np.ndarray:
    """Stack equal-length strings into an (M, n) uint8 matrix of base codes."""
    n = len(words[0]) if words else 0
    for w in words:
        if len(w) != n:
            raise ValueError(f"mixed lengths: {len(w)} vs {n}")
    text = "".join(words)
    # one byte per character: anything outside ASCII becomes "?", then 255
    mat = _CODE_LUT[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
    if (mat > 3).any():
        i = int((mat > 3).argmax())
        raise AlphabetError(f"invalid base {text[i]!r} in {words[i // n]!r}")
    return mat.reshape(len(words), n)
