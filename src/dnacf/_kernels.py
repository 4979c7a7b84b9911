"""Hot loops behind enumeration, distance scans, and the random search.

Every kernel is NumPy-vectorized where the work is array shaped, and plain
Python where it is a short scalar loop (the per-trial draws).  The search's
distance work goes through one orbit-distance matrix (:func:`orbit_distances`);
its size is capped by :data:`DIST_MEMORY_LIMIT`.

Packed layout: two bits per base, leftmost base most significant, so packed
values ascend in lexicographic string order.
"""

from __future__ import annotations

import numpy as np

from .core import LOW_BITS

#: kernel backend; recorded by benchmarks.  There is no compiled backend.
NUMBA_ENABLED = False

_M64 = (1 << 64) - 1

#: largest orbit-distance matrix that :func:`orbit_distances` will allocate,
#: in bytes (one byte per orbit pair).  512 MiB admits the (n, n/2, n/2)
#: seed sets up to n = 12 (21,064 orbits) and refuses n = 13 (48,858).
DIST_MEMORY_LIMIT = 512 << 20

#: largest string space, 4**n, that :func:`enumerate_seed_values` will scan.
#: The scan visits every string, about 0.3 s at n = 12 and 4x more per extra
#: base, so n = 16 takes minutes; the int64 packing also breaks past n = 31.
SEED_SPACE_LIMIT = 4 ** 16

# subset-cardinality laws for the random construction
LAW_UNIFORM = 0
LAW_DYADIC = 1
LAW_MIXED = 2
LAW_FULL = 3
LAW_CODES = {"uniform": LAW_UNIFORM, "dyadic": LAW_DYADIC, "mixed": LAW_MIXED, "full": LAW_FULL}


class InstanceTooLargeError(RuntimeError):
    """Raised when an exact computation is refused at the requested size."""


# ---------------------------------------------------------------------------
# counter-based RNG: an independent SplitMix64 stream per (master_seed, trial),
# so results do not depend on how trials are scheduled
# ---------------------------------------------------------------------------

def _trial_state(master_seed: int, trial: int) -> int:
    return (master_seed * 0x9E3779B97F4A7C15 + trial * 0xD1B54A32D192ED03 + 1) & _M64


def _next_u64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _draw_size(state: int, law: int, n_seed: int) -> tuple[int, int]:
    if law == LAW_FULL:
        return state, n_seed
    if law == LAW_UNIFORM:
        state, z = _next_u64(state)
        return state, 1 + z % n_seed
    if law == LAW_MIXED:
        state, z = _next_u64(state)
        if z & 1:
            return state, min(n_seed, 1 + (z >> 1) % 16)
    # dyadic band: pick a power-of-two size range, then uniform inside it
    bits = n_seed.bit_length()
    state, z1 = _next_u64(state)
    m = z1 % bits
    lo = 1 << m
    hi = min(n_seed, (1 << (m + 1)) - 1)
    state, z2 = _next_u64(state)
    return state, lo + z2 % (hi - lo + 1)


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def enumerate_seed_values(n, ell, g):
    """Packed values of every length-n string with GC content g that is ell
    conflict free, ascending.  Refuses a space larger than
    :data:`SEED_SPACE_LIMIT` before any work."""
    total = 1 << (2 * n)
    if total > SEED_SPACE_LIMIT:
        raise InstanceTooLargeError(
            f"seed enumeration at n={n} would scan 4**{n} strings (limit {SEED_SPACE_LIMIT})"
        )
    low_mask = LOW_BITS & ((1 << (2 * n)) - 1)
    parts = []
    for lo in range(0, total, 1 << 20):
        v = np.arange(lo, min(lo + (1 << 20), total), dtype=np.int64)
        v = v[np.bitwise_count((v ^ (v >> 1)) & low_mask) == g]
        for t in range(1, ell + 1):
            if v.size == 0:
                break
            bm = (1 << (2 * t)) - 1
            ok = np.ones(v.size, dtype=bool)
            for p in range(n - 2 * t + 1):
                ok &= ((v >> (2 * (n - p - t))) & bm) != ((v >> (2 * (n - p - 2 * t))) & bm)
            v = v[ok]
        parts.append(v)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def min_pairwise_u8(mat):
    """Minimum Hamming distance over the distinct row pairs of a uint8 matrix."""
    m, n = mat.shape
    best = n + 1
    step = max(1, (1 << 22) // max(1, m * n))
    cols = np.arange(m)[None, :]
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        d = (mat[lo:hi, None, :] != mat[None, :, :]).sum(axis=2)
        iu = np.arange(lo, hi)[:, None] < cols
        if iu.any():
            cand = int(d[iu].min())
            if cand < best:
                best = cand
                if best == 1:
                    return 1
    return best


def min_cross_u8(a, b):
    """Minimum of d(a_i, b_j) over all row pairs; identical rows are skipped."""
    m, n = a.shape
    best = n + 1
    step = max(1, (1 << 22) // max(1, b.shape[0] * n))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        d = (a[lo:hi, None, :] != b[None, :, :]).sum(axis=2)
        pos = d[d > 0]
        if pos.size:
            cand = int(pos.min())
            if cand < best:
                best = cand
                if best == 1:
                    return 1
    return best


def orbit_distances(vals, orb_ptr, orb_members, n):
    """Minimum Hamming distance between every pair of orbits, as uint8.

    ``D[a, b]`` is the smallest distance between a word of orbit a and a word
    of orbit b; ``D[a, a]`` is the smallest inside orbit a, and ``n + 1`` for a
    singleton.  The orbits come from maps that preserve distance when applied
    to both words, so row a only scans the words against a's first member.
    Refuses, before allocating, a matrix larger than :data:`DIST_MEMORY_LIMIT`.
    """
    n_orb = orb_ptr.shape[0] - 1
    if n_orb * n_orb > DIST_MEMORY_LIMIT:
        raise InstanceTooLargeError(
            f"{n_orb} orbits need a {n_orb * n_orb / (1 << 20):.0f} MiB distance matrix; "
            f"the limit is {DIST_MEMORY_LIMIT >> 20} MiB"
        )
    words = vals[orb_members]
    starts = orb_ptr[:-1]
    reps = words[starts]
    low_mask = LOW_BITS & ((1 << (2 * n)) - 1)
    dist = np.empty((n_orb, n_orb), dtype=np.uint8)
    step = max(1, (1 << 20) // max(1, words.size))
    for lo in range(0, n_orb, step):
        hi = min(lo + step, n_orb)
        x = reps[lo:hi, None] ^ words[None, :]
        d = np.bitwise_count((x | (x >> 1)) & low_mask)
        d[np.arange(hi - lo), starts[lo:hi]] = n + 1  # a word against itself
        dist[lo:hi] = np.minimum.reduceat(d, starts, axis=1)
    return dist


def _closure_distance(dist, orbs, d_gate):
    """Minimum of ``dist`` over the orbits ``orbs``, scanned in row chunks.

    Stops early once the minimum is below ``d_gate`` (the closure cannot
    enter any bucket) or reaches 1 (no distinct words are closer)."""
    k = orbs.size
    step = max(1, (1 << 16) // k)
    d_star = 255  # above every distance
    for lo in range(0, k, step):
        # dist is symmetric: earlier chunks already covered columns before lo
        d_star = min(d_star, int(dist[orbs[lo:lo + step]][:, orbs[lo:]].min()))
        if d_star < d_gate or d_star == 1:
            break
    return d_star


def run_trials(vals, orb_of, orb_ptr, orb_members, n, trials, master_seed, law):
    """Run the random closure construction; return per-floor best sizes and
    the trial that first reached each, both indexed by distance 0..n.

    Each trial draws a subset size from the law and a partial Fisher-Yates
    subset of seeds, closes it under the orbits, and measures the closure's
    minimum distance from :func:`orbit_distances`.  Closures that cannot
    improve any bucket are not measured.  Every orbit must have two or more
    members, as under r and c (the complement changes every base), so a
    closure's distance never exceeds n.
    """
    n_seed = vals.shape[0]
    dist = orbit_distances(vals, orb_ptr, orb_members, n)
    orb_size = np.diff(orb_ptr)
    pool = list(range(n_seed))
    best_size = [0] * (n + 1)
    best_trial = [-1] * (n + 1)
    for t in range(trials):
        state = _trial_state(master_seed, t)
        state, r = _draw_size(state, law, n_seed)
        swaps = []
        for i in range(r):
            state, z = _next_u64(state)
            j = i + z % (n_seed - i)
            swaps.append(j)
            pool[i], pool[j] = pool[j], pool[i]
        orbs = np.unique(orb_of[pool[:r]])
        size_c = int(orb_size[orbs].sum())
        # smallest bucket this closure could still improve
        d_gate = next((d for d in range(1, n + 1) if best_size[d] < size_c), 0)
        if d_gate:
            d_star = _closure_distance(dist, orbs, d_gate)
            if d_star >= d_gate:
                for d in range(1, d_star + 1):
                    if size_c > best_size[d]:
                        best_size[d] = size_c
                        best_trial[d] = t
        for i in range(r - 1, -1, -1):
            j = swaps[i]
            pool[i], pool[j] = pool[j], pool[i]
    return np.array(best_size, dtype=np.int64), np.array(best_trial, dtype=np.int64)


def replay_trial(vals, orb_of, orb_ptr, orb_members, trial, master_seed, law):
    """Re-run one trial's draws and return the sorted closure member indices."""
    n_seed = vals.shape[0]
    state = _trial_state(master_seed, trial)
    state, r = _draw_size(state, law, n_seed)
    pool = list(range(n_seed))
    for i in range(r):
        state, z = _next_u64(state)
        j = i + z % (n_seed - i)
        pool[i], pool[j] = pool[j], pool[i]
    members: list[int] = []
    seen: set[int] = set()
    for i in range(r):
        k = int(orb_of[pool[i]])
        if k not in seen:
            seen.add(k)
            members.extend(int(m) for m in orb_members[orb_ptr[k]:orb_ptr[k + 1]])
    return sorted(members)
