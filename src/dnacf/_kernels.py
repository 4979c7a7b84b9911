"""Hot loops behind enumeration, distance scans, and the random search.

Every kernel is NumPy-vectorized.  Every code-level distance scan goes
through one packed pair kernel, :func:`min_cross_u8`, capped by
:data:`PAIR_WORK_LIMIT`; it stops once both of its minima are below the
caller's ``stop``, so two failed verdicts against a floor end the scan.  The
random search draws the subsets of a whole batch of trials as array
expressions over counter-based SplitMix64 streams, at most
:data:`DRAW_BATCH_LIMIT` draws per batch, and a swap-free partial
Fisher-Yates of one value sort and one scatter; it hands back the closure
behind each bucket, so witnesses need no second pass.  The search's distance
work goes through one orbit-distance matrix (:func:`orbit_distances`), built
tile by tile over its upper triangle from the group's images of each orbit's
representative and capped by :data:`DIST_MEMORY_LIMIT`.

Packed layout: two bits per base, leftmost base most significant, so packed
values ascend in lexicographic string order.
"""

from __future__ import annotations

import numpy as np

from .core import LOW_BITS

#: kernel backend; recorded by benchmarks.  There is no compiled backend.
NUMBA_ENABLED = False

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64 increment
_TRIAL_GAMMA = 0xD1B54A32D192ED03  # spreads the trial streams

#: largest orbit-distance matrix, in bytes (one byte per orbit pair), that
#: :func:`check_orbit_count` admits.  512 MiB admits the (n, n/2, n/2) seed
#: sets up to n = 12 (21,064 orbits, built in about 2 s) and refuses n = 13 (48,858).
DIST_MEMORY_LIMIT = 512 << 20

#: largest scan, in rows times rows times uint64 words per row, that
#: :func:`min_cross_u8` will make.  It covers about 4.5e8 of these units/s on
#: rows of 192 words (8.5e8 on the Golay code's 3), on one core of a 2-core
#: x86-64 machine with NumPy 2.4, so the limit is about 10 s per scan.
PAIR_WORK_LIMIT = 1 << 32

#: row pairs per chunk of :func:`min_cross_u8`, and cells per temporary of the
#: row scans of ``constraints.verify_code``; the pair kernel's uint64
#: temporaries are 256 KiB each
PAIR_CHUNK = 1 << 15

#: most seeds of the mixed law's small draws, and most orbits of a closure
#: that :func:`run_trials` measures in the batch's one gather
SMALL_DRAW = 16

#: largest string space, 4**n, that :func:`enumerate_seed_values` accepts.  Its
#: work follows the kept prefixes, but at small ell the seed sets grow about 3x
#: per base, to millions of strings by n = 14; int64 packing ends at n = 31.
SEED_SPACE_LIMIT = 4 ** 16

#: most Fisher-Yates draws that :func:`run_trials` makes as one batch of
#: array expressions; a trial that draws more runs alone.  2**16 draws keep
#: every batch array to about half a MB.
DRAW_BATCH_LIMIT = 1 << 16

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
# so results do not depend on how trials are scheduled.  A trial's stream
# starts at state (master_seed * GAMMA + trial * TRIAL_GAMMA + 1) mod 2**64,
# and its k-th draw mixes state + k * GAMMA.
# ---------------------------------------------------------------------------

def _mix(x):
    """SplitMix64 output function over a uint64 array (wraps mod 2**64)."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def _draws(state, count):
    """The ``count``-th draw (1-based) of every stream in ``state``."""
    return _mix(state + np.asarray(count, dtype=np.uint64) * np.uint64(_GAMMA))


def _dyadic_sizes(z1, z2, n_seed):
    """A power-of-two size band ``[2**m, 2**(m+1))`` picked by the draw z1,
    clipped to ``n_seed``, then a size uniform inside it picked by z2."""
    m = z1 % n_seed.bit_length()
    lo = np.left_shift(np.uint64(1), m)
    hi = np.minimum(n_seed, np.left_shift(np.uint64(2), m) - 1)
    return lo + z2 % (hi - lo + 1)


def _subset_sizes(state, law, n_seed):
    """The subset size of every stream in ``state`` under ``law``, and how
    many draws each size used.  Uniform: 1 + z1 mod n_seed.  Dyadic: the
    band of :func:`_dyadic_sizes`.  Mixed: odd z1 gives 1 + (z1 >> 1) mod 16,
    capped at n_seed, even z1 the dyadic band from the next two draws.
    Full: every seed, no draw."""
    if law == LAW_FULL:
        return np.full(state.shape, n_seed, dtype=np.int64), np.zeros(state.shape, dtype=np.int64)
    z1 = _draws(state, 1)
    if law == LAW_UNIFORM:
        size, used = 1 + z1 % n_seed, 1
    elif law == LAW_DYADIC:
        size, used = _dyadic_sizes(z1, _draws(state, 2), n_seed), 2
    else:
        odd = (z1 & 1).astype(bool)
        small = np.minimum(n_seed, 1 + (z1 >> 1) % SMALL_DRAW)
        size = np.where(odd, small, _dyadic_sizes(_draws(state, 2), _draws(state, 3), n_seed))
        used = np.where(odd, 1, 3)
    return size.astype(np.int64), np.broadcast_to(used, state.shape).astype(np.int64)


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def enumerate_seed_values(n, ell, g=None):
    """Packed values of every length-n string with GC content g (any GC
    content for ``g=None``) that is ell conflict free, ascending.  Refuses a
    space larger than :data:`SEED_SPACE_LIMIT` before any work.

    The strings grow one base at a time, each kept prefix v into its children
    ``v << 2 | b``.  A repeat can only appear at the base that completes it,
    so a child is tested only for equal t-blocks ending at its last base, and
    with g given, for a GC count that the bases left can still bring to g."""
    if 4 ** n > SEED_SPACE_LIMIT:
        raise InstanceTooLargeError(
            f"seed enumeration at n={n} spans a space of 4**{n} strings (limit {SEED_SPACE_LIMIT})"
        )
    v = np.zeros(1, dtype=np.int64)
    for k in range(1, n + 1):
        v = (v[:, None] << 2 | np.arange(4)).ravel()
        for t in range(1, min(ell, k // 2) + 1):
            v = v[(v ^ (v >> (2 * t))) & ((1 << (2 * t)) - 1) != 0]
        if g is not None:  # C = 01 and G = 10 are the codes whose bits differ
            gc = np.bitwise_count((v ^ (v >> 1)) & LOW_BITS)
            v = v[(gc <= g) & (gc >= g - (n - k))]
    return v


def _pack_rows(mat):
    """Each row of values 0..3 as ``ceil(n / 32)`` uint64 words in the packed
    layout, zero-padded on the right; word column w is ``out[w]``."""
    m, n = mat.shape
    pad = np.zeros((m, -(-n // 32) * 32), dtype=np.uint8)
    pad[:, :n] = mat
    out = np.zeros((pad.shape[1] // 32, m), dtype=np.uint64)
    for j in range(32):  # position j of every word
        out |= pad[:, j::32].T.astype(np.uint64) << np.uint64(62 - 2 * j)
    return out


def min_cross_u8(a, reverse=False, stop=2):
    """Two minima over the row pairs i <= j of a uint8 matrix of values 0..3:
    of d(a_i, b_j) and of d(a_i, 3 - b_j), where b is ``a``, or ``a`` with
    every row reversed for ``reverse=True``.  Pairs at distance 0 are
    skipped; a minimum with no pair left is ``n + 1``.

    The scan stops once both running minima are below ``stop``: each value
    is then at least its true minimum, compares with ``stop`` exactly, and
    is exact if either true minimum is at least ``stop`` (default 2: both 1).

    The upper triangle covers every pair because reverse, complement and
    reverse-complement preserve distance and are involutions, so
    d(a_i, T a_j) = d(a_j, T a_i).  Packed rows (:func:`_pack_rows`) are
    compared a word column at a time, in chunks of about :data:`PAIR_CHUNK`
    row pairs; the chunk of rows lo..hi meets rows lo onwards.  One XOR per
    word pair gives both counts: its nonzero 2-bit groups are d, and its
    ``0b11`` groups, popcount minus nonzero groups, are the positions where
    a_i is the complement of b_j, so d(a_i, 3 - b_j) = n - their number.
    Refuses, before packing, a scan of more than :data:`PAIR_WORK_LIMIT` word
    pairs.
    """
    m, n = a.shape
    words = -(-n // 32)
    if m * m * words > PAIR_WORK_LIMIT:
        raise InstanceTooLargeError(f"a {m} x {m} row scan of {words} words per row "
                                    f"exceeds the pair-work limit of {PAIR_WORK_LIMIT} word pairs")
    best, best_comp = n + 1, n + 1
    if m == 0:
        return best, best_comp
    pa = _pack_rows(a)
    pb = _pack_rows(a[:, ::-1]) if reverse else pa
    # Both counters wrap modulo 2**bits.  ``nz`` starts at its top value, so it
    # holds d - 1 and an identical pair wraps round to the top, above every
    # d - 1 <= n - 1.  ``pc`` starts at -n, so nz - pc = n - 1 - (0b11
    # groups) = d(a_i, 3 - b_j) - 1, and a complementary pair wraps to the top
    # the same way.  Only that difference, in -1..n - 1, has to fit, so the
    # type of n serves for both.
    acc_type = np.min_scalar_type(n)  # uint8 up to n = 255, uint16 above
    top = np.iinfo(acc_type).max
    size = max(PAIR_CHUNK, m)  # one buffer per temporary, reused by every chunk
    x_buf, y_buf = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    cnt_buf = np.empty(size, dtype=np.uint8)
    nz_buf, pc_buf = np.empty(size, dtype=acc_type), np.empty(size, dtype=acc_type)
    lo = 0
    while lo < m:
        hi = min(m, lo + max(1, PAIR_CHUNK // (m - lo)))
        shape, cells = (hi - lo, m - lo), (hi - lo) * (m - lo)
        x, y, cnt = (buf[:cells].reshape(shape) for buf in (x_buf, y_buf, cnt_buf))
        nz, pc = nz_buf[:cells].reshape(shape), pc_buf[:cells].reshape(shape)
        nz.fill(top)
        pc.fill(top - n + 1)  # -n modulo 2**bits
        for wa, wb in zip(pa, pb):
            np.bitwise_xor(wa[lo:hi, None], wb[None, lo:], out=x)
            pc += np.bitwise_count(x, out=cnt)
            np.right_shift(x, 1, out=y)
            x |= y
            x &= LOW_BITS
            nz += np.bitwise_count(x, out=cnt)
        best = min(best, int(nz.min()) + 1)
        best_comp = min(best_comp, int(np.subtract(nz, pc, out=pc).min()) + 1)
        if best < stop and best_comp < stop:
            break
        lo = hi
    return best, best_comp


def check_orbit_count(n_orb):
    """Refuse ``n_orb`` or more orbits if their ``D`` would exceed :data:`DIST_MEMORY_LIMIT`."""
    if n_orb * n_orb > DIST_MEMORY_LIMIT:
        raise InstanceTooLargeError(f"{n_orb} or more orbits need a distance matrix of at least "
                                    f"{n_orb * n_orb >> 20} MiB; the limit is {DIST_MEMORY_LIMIT >> 20} MiB")


def orbit_distances(images, n):
    """Minimum Hamming distance between every pair of orbits, as uint8.

    ``images`` holds the packed words of :func:`search._orbit_partition`: row
    0 the orbit representatives, each later row their images under one more
    group element, so column a lists orbit a's words.  ``D[a, b]`` is the
    smallest distance between a word of orbit a and a word of orbit b;
    ``D[a, a]`` is the smallest between distinct words of orbit a, and
    ``n + 1`` when it has no two.  The group's maps preserve distance when
    applied to both words, so row a only measures a's representative against
    every image, and ``D`` is symmetric: only its 128 x 512 tiles that meet
    the upper triangle are measured (on 32-bit words when 2n bits fit), each
    written with its transpose.  Refuses, before allocating, a matrix larger
    than :data:`DIST_MEMORY_LIMIT`.
    """
    n_orb = images.shape[1]
    check_orbit_count(n_orb)
    dist = np.empty((n_orb, n_orb), dtype=np.uint8)
    if n_orb == 0:
        return dist
    words = images.astype(np.uint32 if 2 * n <= 32 else np.uint64)
    low_mask = words.dtype.type(LOW_BITS & ((1 << (2 * n)) - 1))
    bufs = [np.empty(128 * 512, dtype=t) for t in (words.dtype, words.dtype, np.uint8, np.uint8)]
    for lo in range(0, n_orb, 128):
        reps = words[0, lo:lo + 128, None]
        for c_lo in range(lo, n_orb, 512):
            cols = words[:, c_lo:c_lo + 512]
            x, y, cnt, d = (b[:reps.size * cols.shape[1]].reshape(reps.size, -1) for b in bufs)
            d.fill(255)
            for row in cols:
                x |= np.right_shift(np.bitwise_xor(reps, row, out=x), 1, out=y)
                x &= low_mask
                np.minimum(d, np.bitwise_count(x, out=cnt), out=d)
            dist[lo:lo + 128, c_lo:c_lo + 512] = d
            dist[c_lo:c_lo + 512, lo:lo + 128] = d.T
    # on the diagonal, distance 0 is the representative meeting itself
    x = words[0] ^ words[1:]
    own = np.bitwise_count((x | (x >> 1)) & low_mask)
    own[own == 0] = n + 1
    np.fill_diagonal(dist, own.min(axis=0, initial=n + 1))
    return dist


def _closure_distance(dist, orbs, d_gate):
    """Minimum of ``dist`` over ``orbs``, in row chunks of 4, 8, 16, ... rows (at most 2**16 cells).

    Stops early once the minimum is below ``d_gate`` (the closure cannot
    enter any bucket) or reaches 1 (no distinct words are closer)."""
    k = orbs.size
    d_star, lo, step = 255, 0, 4  # 255 is above every distance
    while lo < k:
        hi = lo + min(step, max(1, (1 << 16) // k))
        # dist is symmetric: earlier chunks already covered columns before lo
        d_star = min(d_star, int(dist[orbs[lo:hi]][:, orbs[lo:]].min()))
        if d_star < d_gate or d_star == 1:
            break
        lo, step = hi, 2 * step
    return d_star


def _small_closure_distances(dist, orbs, starts):
    """Minimum of ``dist`` over each closure ``orbs[starts[b]:starts[b + 1]]``
    of at most :data:`SMALL_DRAW` orbits, all in one gather, padded with the
    closure's first orbit; 0 for a larger closure (:func:`_closure_distance`)."""
    k = np.diff(starts)
    i = np.arange(min(SMALL_DRAW, int(k.max())))
    o = orbs[starts[:-1, None] + np.where(i < k[:, None], i, 0)]
    return np.where(k <= SMALL_DRAW, dist[o[:, :, None], o[:, None, :]].min(axis=(1, 2)), 0).tolist()


def _trial_batches(trials, master_seed, law, n_seed):
    """Yield ``(first trial, states, sizes, draws used)`` for runs of
    consecutive trials that together make at most :data:`DRAW_BATCH_LIMIT`
    Fisher-Yates draws; a trial that makes more runs alone."""
    cap = DRAW_BATCH_LIMIT
    base = np.uint64((master_seed * _GAMMA + 1) & _M64)
    for lo in range(0, trials, cap):  # every trial draws at least one seed
        t = np.arange(lo, min(lo + cap, trials), dtype=np.uint64)
        state = base + t * np.uint64(_TRIAL_GAMMA)
        size, used = _subset_sizes(state, law, n_seed)
        ends = np.cumsum(size)
        i = 0
        while i < t.size:
            stop = max(i + 1, int(np.searchsorted(ends, cap + (ends[i - 1] if i else 0), "right")))
            yield lo + i, state[i:stop], size[i:stop], used[i:stop]
            i = stop


def _fisher_yates(state, size, used, n_seed):
    """The first ``size[b]`` picks of a partial Fisher-Yates shuffle of
    ``range(n_seed)`` for every trial b, concatenated in trial order.

    Draw k of trial b targets ``j = k + r``, ``r = z % (n_seed - k)``, and
    swaps slots k and j.  Slot k keeps j unless an earlier draw of the trial
    also targeted j; then it gets the value that the last such draw h carried
    into j.  That value came from slot h, so it is found by following "last
    earlier draw that targeted my own slot" back to a draw whose slot nobody
    targeted before it, and it is that draw's slot index.  No swap is made.
    A draw that targets slot x has k <= x, so sorted by (trial, target,
    draw), that earlier draw for draw x is the last entry of group (trial,
    x).  It is draw x itself only if x targets its own slot (r = 0), and no
    chain reads such a draw: chains start at entries that another of their
    group follows, and step to draws that targeted a later slot than their own.
    """
    total = int(size.sum())
    trial = np.repeat(np.arange(size.size), size)
    k = np.arange(total) - np.repeat(np.cumsum(size) - size, size)
    z = _draws(state[trial], used[trial] + k + 1)
    r = (z % (n_seed - k).astype(np.uint64)).astype(np.int64)
    j = k + r
    # one value sort; the key fits in 63 bits, as a batch makes at most 2**16 draws
    # (DRAW_BATCH_LIMIT), a lone trial at most n_seed, and the search admits at most
    # 4 x 23,170 < 2**17 seeds (check_orbit_count): bits <= 17, key < 2**(16 + 17 + 17)
    bits = total.bit_length()
    key = np.sort((trial * n_seed + j) << bits | np.arange(total))
    order = key & ((1 << bits) - 1)
    key >>= bits
    last = np.r_[key[1:] != key[:-1], True]  # last entry of its group
    rep = np.flatnonzero(~last[:-1])  # entries rep and rep + 1 target one slot
    # own[d]: the last draw before d that targeted d's slot, d itself if none,
    # scattered from the group ends whose slot belongs to a draw of their trial
    src = order[last & (j < size[trial])[order]]
    own = np.arange(total)
    own[src + r[src]] = src
    cur = order[rep]  # chains are followed only where a repeated target reads them
    while not np.array_equal(nxt := own[cur], cur):
        cur = nxt
    j[order[rep + 1]] = k[cur]
    return j


def run_trials(vals, orb_of, images, dist, n, trials, master_seed, law):
    """Run the random closure construction over the seed values ``vals``,
    their orbits ``orb_of`` and ``images`` (:func:`search._orbit_partition`)
    and the orbit distances ``dist`` (:func:`orbit_distances`).  Return
    per-floor best sizes, the trial that first reached each, and that trial's
    closure as ascending seed values, all indexed by distance 0..n (an empty
    closure where no trial reached the floor).

    Each trial draws a subset size from the law and a partial Fisher-Yates
    subset of seeds, closes it under the orbits, and measures the closure's
    minimum distance in ``dist``.  Draws, closures and the distances of
    closures of at most :data:`SMALL_DRAW` orbits are array expressions over
    a batch of trials (:data:`DRAW_BATCH_LIMIT`); only the size gate and the
    scan of a larger closure, skipped if it cannot improve any bucket, run
    per trial in trial order, so the result does not depend on the batching.
    Every orbit must have two or more members, as under r and c (the
    complement changes every base), so a closure's distance never exceeds n.
    """
    n_seed = vals.shape[0]
    orb_size = np.bincount(orb_of)
    n_orb = orb_size.size
    best_size = [0] * (n + 1)
    best_trial = [-1] * (n + 1)
    best_orbs = [np.empty(0, dtype=np.int64)] * (n + 1)
    for first, state, size, used in _trial_batches(trials, master_seed, law, n_seed):
        picks = _fisher_yates(state, size, used, n_seed)
        trial = np.repeat(np.arange(size.size), size)
        # every trial's closure: its sorted orbits, and its size
        closed = np.sort(trial * n_orb + orb_of[picks])
        closed = closed[np.r_[True, closed[1:] != closed[:-1]]]
        orbs = closed % n_orb
        starts = np.searchsorted(closed, np.arange(size.size + 1) * n_orb)
        sizes_c = np.add.reduceat(orb_size[orbs], starts[:-1]).tolist()
        small_d = _small_closure_distances(dist, orbs, starts)
        starts = starts.tolist()
        for b, size_c in enumerate(sizes_c):
            # smallest bucket this closure could still improve
            d_gate = next((d for d in range(1, n + 1) if best_size[d] < size_c), 0)
            if d_gate:
                closure = orbs[starts[b]:starts[b + 1]]
                d_star = small_d[b] or _closure_distance(dist, closure, d_gate)
                # best sizes never grow with d, so every bucket from d_gate
                # to d_star improves; copies keep no batch array alive
                for d in range(d_gate, d_star + 1):
                    best_size[d], best_trial[d], best_orbs[d] = size_c, first + b, closure.copy()
    closures = [np.unique(images[:, orbs]) for orbs in best_orbs]
    return np.array(best_size, dtype=np.int64), np.array(best_trial, dtype=np.int64), closures
