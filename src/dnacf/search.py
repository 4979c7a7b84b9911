"""Seed-set enumeration, closure under reverse/complement, and the random
construction that drives the lower-bound tables.

The search is deterministic given (spec, config): every trial derives its
randomness from a counter-based mix of the master seed and the trial index,
so results are independent of scheduling; each bucket's witness code is the
closure that the trial loop measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import _kernels, core
from ._kernels import InstanceTooLargeError  # noqa: F401  (re-exported for the CLI)


@dataclass(frozen=True)
class SeedSetSpec:
    """Length, conflict level, and GC target of a seed set."""

    n: int
    ell: int
    g: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 1 <= self.ell <= self.n // 2:
            raise ValueError(f"ell={self.ell} out of 1..{self.n // 2}")
        if not 0 <= self.g <= self.n:
            raise ValueError(f"g={self.g} out of 0..{self.n}")


@dataclass(frozen=True)
class SearchConfig:
    trials: int = 100_000
    master_seed: int = 1
    subset_law: str = "mixed"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.master_seed < 1 << 63:
            raise ValueError("master_seed must fit in 63 bits")
        if self.subset_law not in _kernels.LAW_CODES:
            raise ValueError(f"unknown subset law {self.subset_law!r}")


def enumerate_seed_set(spec: SeedSetSpec) -> list[str]:
    """All length-n strings with GC content g that are ell conflict free,
    lexicographically sorted."""
    vals = _kernels.enumerate_seed_values(spec.n, spec.ell, spec.g)
    return core.unpack_all(vals, spec.n)


def orbit_closure(words: Iterable[str]) -> set[str]:
    """Smallest superset closed under reverse and complement (hence also
    under reverse-complement).  The two maps commute and are involutions, so
    the closure is each word's four images."""
    words = [core.clean(w) for w in words]
    if len({len(w) for w in words}) > 1:
        raise ValueError("mixed lengths")
    return {u for w in words for u in (w, core.reverse(w), core.complement(w), core.reverse_complement(w))}


@dataclass(frozen=True)
class BoundEntry:
    size: int
    trial: int
    code: tuple[str, ...]


@dataclass
class BoundTable:
    """Best code found per Hamming-distance floor for one (n, ell, g)."""

    spec: SeedSetSpec
    config: SearchConfig
    seed_set_size: int
    buckets: dict[int, BoundEntry] = field(default_factory=dict)

    def best_size(self, d: int) -> int:
        entry = self.buckets.get(d)
        return entry.size if entry else 0

    def to_dict(self) -> dict:
        return {
            "parameters": {
                "n": self.spec.n,
                "ell": self.spec.ell,
                "gc": self.spec.g,
                "trials": self.config.trials,
                "master_seed": self.config.master_seed,
                "subset_law": self.config.subset_law,
            },
            "seed_set_size": self.seed_set_size,
            "buckets": {
                str(d): {"size": e.size, "trial": e.trial, "code": list(e.code)}
                for d, e in sorted(self.buckets.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _orbit_partition(vals: np.ndarray, n: int, ops: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """Partition of seed values into orbits under the group generated by
    ``ops`` (any of "r", "c", "rc"; other names are ignored).

    Returns ``orb_of``, the orbit of each seed, and ``images``, one row per
    group element, identity first: ``images[g, a]`` is the packed image of
    orbit a's smallest word under element g, so column a lists orbit a's
    words, with repeats when a map fixes them.  Orbits are numbered by their
    smallest word.  The seed set must be closed under the maps.
    """
    ops = set(ops) & {"r", "c", "rc"}
    mask = (1 << (2 * n)) - 1
    rev = core.reverse_packed(vals, n)
    maps = {"r": rev, "c": vals ^ mask, "rc": rev ^ mask}
    # any two of r, c, rc generate all three
    group = [vals] + [maps[op] for op in sorted(maps if len(ops) > 1 else ops)]
    if not all(np.isin(img, vals).all() for img in group[1:]):
        raise ValueError("seed set not closed under the requested maps")
    # vals ascend, so each orbit first occurs at its smallest word
    _, first, orb_of = np.unique(np.minimum.reduce(group), return_index=True, return_inverse=True)
    return orb_of, np.stack([img[first] for img in group])


def random_construction(spec: SeedSetSpec, config: SearchConfig) -> BoundTable:
    """Run the randomized closure construction and keep, per distance floor,
    the largest closure whose measured minimum distance reaches that floor."""
    vals = _kernels.enumerate_seed_values(spec.n, spec.ell, spec.g)
    if vals.size == 0:
        raise ValueError(f"empty seed set for {spec}")
    _kernels.check_orbit_count(-(-vals.size // 4))  # an orbit under r and c has at most 4 seeds
    orb_of, images = _orbit_partition(vals, spec.n, ("r", "c"))
    dist = _kernels.orbit_distances(images, spec.n)
    law = _kernels.LAW_CODES[config.subset_law]
    best_size, best_trial, closures = _kernels.run_trials(
        vals, orb_of, images, dist, spec.n, config.trials, config.master_seed, law
    )
    table = BoundTable(spec=spec, config=config, seed_set_size=int(vals.size))
    for d in range(1, spec.n + 1):
        if best_size[d] > 0:
            words = tuple(core.unpack_all(closures[d], spec.n))
            assert len(words) == int(best_size[d])
            table.buckets[d] = BoundEntry(size=len(words), trial=int(best_trial[d]), code=words)
    return table


def extremal_size(n: int) -> int:
    """Maximum size at full distance d = n: 2 for odd n, 4 for even n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return 2 if n % 2 else 4


# ---------------------------------------------------------------------------
# exact small-instance maxima via branch and bound over orbits
# ---------------------------------------------------------------------------

_CONSTRAINT_OPS = {"r", "rc", "c", "GC"}


def exact_max_size(
    n: int,
    ell: int,
    g: int,
    d: int,
    constraint_set: Iterable[str] = ("r", "rc", "GC"),
) -> int:
    """Exact maximum code size over the seed set, with the code closed under
    the requested involutions and all pairwise distances >= d.

    The vertices are the orbits whose own minimum distance is >= d, weighted
    by size; two are adjacent when their orbit distance is >= d.  Only
    desk-scale instances are accepted (seed set <= 512 or n <= 6).
    """
    ops = set(constraint_set)
    if not ops <= _CONSTRAINT_OPS:
        raise ValueError(f"unknown constraint ops {ops - _CONSTRAINT_OPS}")
    SeedSetSpec(n, ell, g)  # raises ValueError where no seed set exists
    if not 1 <= d <= n:
        raise ValueError("d out of range")
    vals = _kernels.enumerate_seed_values(n, ell, g if "GC" in ops else None)
    if vals.size > 512 and n > 6:
        raise InstanceTooLargeError(
            f"seed set of {vals.size} strings at n={n}; exact search refused"
        )
    orb_of, images = _orbit_partition(vals, n, ops)
    if d == 1:
        return int(vals.size)  # distinctness alone; the closed seed set is optimal

    # orbit compatibility graph: a clique is a valid closed code
    dist = _kernels.orbit_distances(images, n)
    sizes = np.bincount(orb_of)
    idxs = np.flatnonzero(np.diag(dist) >= d)
    # renumber vertices 0..V-1, heaviest first
    idxs = idxs[np.argsort(-sizes[idxs], kind="stable")]
    ok = dist[np.ix_(idxs, idxs)] >= d
    np.fill_diagonal(ok, False)
    adj = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in ok]
    return _max_weight_clique(sizes[idxs].tolist(), adj)


def _colour_bound(mask: int, weights: list[int], adj: list[int]) -> int:
    """Greedy colouring bound on a clique within ``mask``: each independent
    class contributes its heaviest member."""
    bound = 0
    while mask:
        cls_max, avail = 0, mask
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~adj[v] & (avail - 1)
            mask &= ~(1 << v)
            cls_max = max(cls_max, weights[v])
        bound += cls_max
    return bound


def _max_weight_clique(weights: list[int], adj: list[int]) -> int:
    """Heaviest clique's weight by branch and bound over an explicit stack of
    ``[candidates, weight]`` frames.  The top frame takes its lowest
    candidate until the colouring bound of the rest cannot beat the best
    clique found; the first dive is the greedy clique from vertex 0."""
    best, stack = 0, [[(1 << len(weights)) - 1, 0]]
    while stack:
        cand, total = frame = stack[-1]
        best = max(best, total)
        if not cand or total + _colour_bound(cand, weights, adj) <= best:
            stack.pop()
            continue
        v = (cand & -cand).bit_length() - 1
        frame[0] = cand & ~(1 << v)
        stack.append([cand & adj[v], total + weights[v]])
    return best
