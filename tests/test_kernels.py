"""The kernels against independent oracles: brute-force string scans, the
string predicates, a scalar replay of the search's random stream, and search
results pinned before the trial loop moved onto the orbit-distance matrix."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from dnacf import _kernels, constraints, core, search

# (n, law, master seed): (best_size, best_trial) for d = 1..n, at
# (n, n // 2, n // 2) with TRIALS[n] trials
TRIALS = {4: 2000, 5: 1000, 6: 600, 8: 150, 10: 400}
TRIAL_PINS = {
    (4, "uniform", 1): ((48, 2), (28, 210), (10, 485), (4, 99)),
    (4, "uniform", 7): ((48, 3), (28, 632), (8, 482), (4, 20)),
    (4, "uniform", 12345): ((48, 1), (28, 627), (8, 147), (4, 3)),
    (4, "dyadic", 1): ((48, 3), (30, 1184), (10, 1376), (4, 30)),
    (4, "dyadic", 7): ((48, 1), (32, 970), (10, 1114), (4, 6)),
    (4, "dyadic", 12345): ((48, 4), (28, 227), (10, 1617), (4, 1)),
    (4, "mixed", 1): ((48, 5), (30, 1424), (10, 9), (4, 12)),
    (4, "mixed", 7): ((48, 3), (28, 734), (10, 1714), (4, 6)),
    (4, "mixed", 12345): ((48, 1), (32, 1305), (12, 590), (4, 3)),
    (4, "full", 1): ((48, 0), (0, -1), (0, -1), (0, -1)),
    (4, "full", 7): ((48, 0), (0, -1), (0, -1), (0, -1)),
    (4, "full", 12345): ((48, 0), (0, -1), (0, -1), (0, -1)),
    (5, "uniform", 1): ((108, 6), (32, 320), (10, 998), (4, 309), (2, 46)),
    (5, "uniform", 7): ((108, 0), (36, 79), (4, 95), (4, 326), (0, -1)),
    (5, "uniform", 12345): ((108, 7), (22, 519), (8, 819), (4, 467), (2, 119)),
    (5, "dyadic", 1): ((108, 29), (40, 742), (10, 808), (4, 0), (2, 102)),
    (5, "dyadic", 7): ((108, 26), (32, 649), (12, 563), (4, 20), (2, 13)),
    (5, "dyadic", 12345): ((108, 1), (34, 261), (10, 635), (4, 12), (2, 56)),
    (5, "mixed", 1): ((108, 18), (36, 981), (10, 320), (4, 22), (2, 372)),
    (5, "mixed", 7): ((108, 8), (32, 647), (8, 12), (4, 10), (2, 67)),
    (5, "mixed", 12345): ((108, 0), (32, 263), (10, 489), (4, 61), (2, 3)),
    (5, "full", 1): ((108, 0), (0, -1), (0, -1), (0, -1), (0, -1)),
    (5, "full", 7): ((108, 0), (0, -1), (0, -1), (0, -1), (0, -1)),
    (5, "full", 12345): ((108, 0), (0, -1), (0, -1), (0, -1), (0, -1)),
    (6, "uniform", 1): ((320, 3), (52, 571), (4, 208), (4, 208), (0, -1), (0, -1)),
    (6, "uniform", 7): ((320, 3), (48, 404), (4, 20), (4, 20), (4, 20), (4, 20)),
    (6, "uniform", 12345): ((320, 6), (56, 118), (4, 489), (4, 489), (4, 489), (4, 489)),
    (6, "dyadic", 1): ((320, 0), (52, 273), (12, 135), (12, 143), (4, 60), (4, 60)),
    (6, "dyadic", 7): ((320, 1), (56, 313), (16, 491), (12, 391), (4, 5), (4, 5)),
    (6, "dyadic", 12345): ((320, 5), (64, 417), (16, 358), (12, 118), (4, 31), (4, 31)),
    (6, "mixed", 1): ((320, 4), (60, 19), (20, 566), (12, 257), (4, 1), (4, 1)),
    (6, "mixed", 7): ((320, 7), (60, 431), (16, 262), (12, 451), (4, 14), (4, 14)),
    (6, "mixed", 12345): ((320, 1), (56, 97), (12, 166), (12, 177), (4, 4), (4, 4)),
    (6, "full", 1): ((320, 0), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (6, "full", 7): ((320, 0), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (6, "full", 12345): ((320, 0), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (8, "uniform", 1): ((2024, 0), (64, 38), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (8, "uniform", 7): ((2024, 1), (12, 84), (12, 84), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (8, "uniform", 12345): ((2024, 8), (60, 45), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (8, "dyadic", 1): ((2024, 15), (78, 51), (28, 14), (20, 134), (8, 20), (8, 20), (4, 48), (4, 48)),
    (8, "dyadic", 7): ((2024, 2), (80, 45), (40, 33), (28, 135), (8, 22), (8, 22), (4, 13), (4, 13)),
    (8, "dyadic", 12345): ((2024, 1), (108, 124), (28, 35), (16, 31), (4, 9), (4, 9), (4, 9), (4, 9)),
    (8, "mixed", 1): ((2024, 99), (122, 111), (32, 38), (18, 133), (8, 1), (4, 87), (0, -1), (0, -1)),
    (8, "mixed", 7): ((2024, 84), (64, 44), (34, 122), (16, 18), (4, 46), (4, 46), (4, 46), (4, 46)),
    (8, "mixed", 12345): ((2024, 6), (60, 48), (44, 148), (20, 50), (4, 34), (4, 34), (4, 49), (4, 49)),
    (8, "full", 1): ((2024, 0), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (8, "full", 7): ((2024, 0), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (8, "full", 12345): ((2024, 0), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1), (0, -1)),
    (10, "mixed", 1): (
        (13008, 67), (184, 286), (68, 122), (44, 253), (20, 251), (16, 263), (4, 33), (4, 33), (4, 33), (4, 33)
    ),
    (10, "mixed", 7): (
        (13008, 89), (244, 63), (60, 310), (48, 94), (28, 297), (16, 143), (8, 139), (4, 104), (4, 104), (4, 104)
    ),
    (10, "mixed", 12345): (
        (13008, 0), (232, 241), (64, 316), (44, 290), (32, 68), (16, 209), (8, 160), (8, 160), (4, 61), (4, 61)
    ),
}

_STRING_MAPS = {"r": core.reverse, "c": core.complement, "rc": core.reverse_complement}


def _brute_orbits(words, ops):
    """Orbits of ``words`` under the group generated by ``ops``, by string maps."""
    maps = [_STRING_MAPS[op] for op in ops]
    orbits = {}
    for w in words:
        orbit = {w}
        for _ in range(2):  # the group is abelian of exponent 2
            orbit |= {m(x) for m in maps for x in orbit}
        orbits[w] = frozenset(orbit)
    return orbits


def _pack_all(words):
    return np.array([core.pack(w) for w in words], dtype=np.int64)


def _brute_min_distance(words_a, words_b):
    return min(
        (core.hamming_distance(x, y) for x in words_a for y in words_b if x != y),
        default=len(next(iter(words_a))) + 1,
    )


@pytest.mark.parametrize(
    "n,ell,g,ops",
    [
        (4, 2, 2, ("r", "c")),
        (5, 2, 2, ("r", "c")),
        (6, 3, 3, ("r", "c")),
        (4, 1, None, ("r",)),
        (4, 1, None, ("c",)),
        (4, 1, None, ("rc",)),
        (4, 1, None, ()),
    ],
)
def test_orbit_distances_match_string_scan(n, ell, g, ops):
    vals = _kernels.enumerate_seed_values(n, ell, g)
    orb_of, images = search._orbit_partition(vals, n, ops)
    words = core.unpack_all(vals, n)
    orbits = [set(core.unpack_all(images[:, a], n)) for a in range(images.shape[1])]
    # the partition is the string-level orbit partition, numbered by smallest
    # word; row 0 is the identity, so it holds those smallest words
    assert orbits == sorted(set(_brute_orbits(words, ops).values()), key=min)
    assert core.unpack_all(images[0], n) == [min(o) for o in orbits]
    assert images.shape[0] == (4 if len(ops) > 1 else 1 + len(ops))
    assert all(w in orbits[orb_of[i]] for i, w in enumerate(words))
    dist = _kernels.orbit_distances(images, n)
    assert dist.dtype == np.uint8 and dist.shape == (len(orbits),) * 2
    for a, b in itertools.combinations_with_replacement(range(len(orbits)), 2):
        want = _brute_min_distance(orbits[a], orbits[b])
        assert dist[a, b] == dist[b, a] == want, (a, b)


def test_orbit_distances_match_string_words():
    # singleton orbits of random words up to length 31, as the one identity
    # row of images that ops=() gives: D is the plain distance
    rng = np.random.default_rng(8)
    for n in (1, 3, 8, 20, 31):
        words = ["".join(rng.choice(list("ACGT"), n)) for _ in range(30)]
        dist = _kernels.orbit_distances(_pack_all(words)[None], n)
        for i, j in itertools.product(range(len(words)), repeat=2):
            want = n + 1 if i == j else core.hamming_distance(words[i], words[j])
            assert dist[i, j] == want, (n, i, j)
    assert _kernels.orbit_distances(np.empty((1, 0), dtype=np.int64), 4).shape == (0, 0)


def _untiled_distances(images, n):
    """``orbit_distances`` in one untiled NumPy expression: the elementwise
    minimum over the image rows of the packed Hamming distance from each
    representative, and on the diagonal the nearest distinct image."""
    x = images[0][:, None, None] ^ images.T[None, :, :]
    d = np.bitwise_count((x | (x >> 1)) & (core.LOW_BITS & ((1 << (2 * n)) - 1)))
    diag = d[np.arange(d.shape[0]), np.arange(d.shape[0])]
    diag[diag == 0] = n + 1
    d = d.min(axis=2)
    np.fill_diagonal(d, diag.min(axis=1))
    return d


@pytest.mark.parametrize("ops", [("r", "c"), ("rc",), ("c",)])
def test_orbit_distances_match_untiled_reference_across_tiles(ops):
    # (8,4,4) under r and c has 514 orbits: five row tiles of 128 and two
    # column blocks of 512; under rc or c alone, about twice as many
    vals = _kernels.enumerate_seed_values(8, 4, 4)
    _, images = search._orbit_partition(vals, 8, ops)
    assert images.shape[1] >= 514
    assert np.array_equal(_kernels.orbit_distances(images, 8), _untiled_distances(images, 8))


@pytest.mark.parametrize("n", [20, 31])
def test_orbit_distances_match_untiled_reference_on_64_bit_words(n):
    rng = np.random.default_rng(n)
    images = rng.integers(0, 1 << (2 * n), size=(1, 700), dtype=np.int64)
    images[0, 5] = images[0, 600]  # a repeated word: distance 0 off the diagonal
    assert np.array_equal(_kernels.orbit_distances(images, n), _untiled_distances(images, n))


def test_closure_distance_early_exit_keeps_the_verdict():
    # the chunked scan may stop early, but never changes which side of the
    # gate a closure falls on, and is exact whenever it passes the gate;
    # one planted minimum anywhere in a many-chunk closure must be found.
    # Row chunks are 4, 8, 16, ... rows, so rows 4 and 12 open the second
    # and third chunks
    rng = np.random.default_rng(11)
    for k, planted, where in itertools.product((2, 5, 13, 29, 40, 700), (1, 2, 3), (0, 4, 12, -2, None)):
        if where is not None and where >= k - 1:
            continue
        full = rng.integers(planted + 1, 9, size=(k + 5, k + 5), dtype=np.uint8)
        dist = np.minimum(full, full.T)
        orbs = np.sort(rng.choice(k + 5, size=k, replace=False))
        # in the row chunk that starts at row `where`, the last one, or anywhere
        i, j = orbs[[where, -1]] if where is not None else rng.choice(orbs, size=2)
        dist[i, j] = dist[j, i] = planted
        true = int(dist[np.ix_(orbs, orbs)].min())
        for d_gate in range(1, 10):
            got = _kernels._closure_distance(dist, orbs, d_gate)
            assert (got >= d_gate) == (true >= d_gate), (k, planted, where, d_gate)
            if got >= d_gate:
                assert got == true, (k, planted, where, d_gate)


def test_small_closure_distances_match_the_closure_minimum():
    # one gather over closures of 1, 2, 16 and 17 orbits: exact up to
    # SMALL_DRAW orbits, 0 (left to the row scan) above; a diagonal above
    # every other entry shows any pair from outside a closure
    rng = np.random.default_rng(3)
    full = rng.integers(1, 9, size=(40, 40), dtype=np.uint8)
    dist = np.minimum(full, full.T)
    np.fill_diagonal(dist, 9)
    closures = [np.sort(rng.choice(40, size=k, replace=False)) for k in (1, 2, 16, 17, 2, 16)]
    starts = np.cumsum([0] + [o.size for o in closures])
    got = _kernels._small_closure_distances(dist, np.concatenate(closures), starts)
    want = [int(dist[np.ix_(o, o)].min()) if o.size <= _kernels.SMALL_DRAW else 0 for o in closures]
    assert got == want and want[3] == 0 and _kernels.SMALL_DRAW == 16


def test_run_trials_scans_only_closures_above_the_small_draw(monkeypatch):
    # every closure of at most SMALL_DRAW orbits is measured by the gather;
    # only larger ones reach the row scan, and the buckets do not move
    vals = _kernels.enumerate_seed_values(6, 3, 3)
    orb_of, images = search._orbit_partition(vals, 6, ("r", "c"))
    args = (vals, orb_of, images, _kernels.orbit_distances(images, 6), 6, 600, 7, _kernels.LAW_MIXED)
    want = _kernels.run_trials(*args)
    scanned, scan = [], _kernels._closure_distance

    def recording_scan(dist, orbs, d_gate):
        scanned.append(orbs.size)
        return scan(dist, orbs, d_gate)

    monkeypatch.setattr(_kernels, "_closure_distance", recording_scan)
    assert _same_trials(_kernels.run_trials(*args), want)
    assert scanned and min(scanned) > _kernels.SMALL_DRAW


def test_orbit_distances_refuse_before_allocating(monkeypatch):
    vals = _kernels.enumerate_seed_values(4, 2, 2)
    _, images = search._orbit_partition(vals, 4, ("r", "c"))
    n_orb = images.shape[1]
    monkeypatch.setattr(_kernels, "DIST_MEMORY_LIMIT", n_orb * n_orb)
    assert _kernels.orbit_distances(images, 4).shape == (n_orb, n_orb)
    monkeypatch.setattr(_kernels, "DIST_MEMORY_LIMIT", n_orb * n_orb - 1)
    with pytest.raises(_kernels.InstanceTooLargeError):
        _kernels.orbit_distances(images, 4)
    with pytest.raises(search.InstanceTooLargeError):
        search.random_construction(search.SeedSetSpec(4, 2, 2), search.SearchConfig(trials=10))
    with pytest.raises(search.InstanceTooLargeError):
        search.exact_max_size(4, 2, 2, 3, ("r", "c", "GC"))


def test_search_refuses_before_the_orbit_partition(monkeypatch):
    # (4,2,2) has 48 seeds, so at least 12 orbits under r and c, whatever
    # the partition would find; 12 * 12 cells over the limit is refused first
    def no_partition(*args):
        raise AssertionError("partitioned an instance the seed count refuses")

    monkeypatch.setattr(search, "_orbit_partition", no_partition)
    monkeypatch.setattr(_kernels, "DIST_MEMORY_LIMIT", 12 * 12 - 1)
    with pytest.raises(search.InstanceTooLargeError, match="12 or more orbits"):
        search.random_construction(search.SeedSetSpec(4, 2, 2), search.SearchConfig(trials=10))


@functools.lru_cache(maxsize=None)
def _string_predicates(n, ell):
    words = ["".join(p) for p in itertools.product("ACGT", repeat=n)]
    return [(w, core.gc_content(w), constraints.is_conflict_free(w, ell)) for w in words]


@pytest.mark.parametrize(
    "n,ell,g",
    [(n, ell, g) for n in range(2, 8) for ell in range(1, n // 2 + 1) for g in [*range(n + 1), None]],
)
def test_enumeration_parity(n, ell, g):
    # the packed enumeration agrees with the string predicates; g=None
    # skips the GC filter
    want = [w for w, wg, free in _string_predicates(n, ell) if g in (None, wg) and free]
    got = _kernels.enumerate_seed_values(n, ell, g)
    assert got.dtype == np.int64
    assert core.unpack_all(got, n) == want


# (n, ell, g): size and sha256 of the int64 bytes of the seed values,
# recorded from the scan over all 4^n strings that the prefix growth replaced;
# they cover the g=None path and n > 10, past the string oracle's reach
SEED_PINS = {
    (10, 5, None): (33480, "3fd20c47a16b73a87d456b36c942e9754f6f7259507d14253aeea57bdbc9caa5"),
    (12, 6, 6): (84064, "37baa0739b929a94aa8dfca7d10211821d8ef68dfc67745e086810faa571fac2"),
    (13, 1, 6): (602880, "0170a8f9a9526fea99290018b83fae2bc22fbe0f87c56d3169cbcda71d234076"),
    (14, 7, 7): (546176, "cf57642ffe45ea56beb9c05a5e6501210a3cf32a7ceeec4aee16d2e0a4d8c7dd"),
}


@pytest.mark.parametrize("n,ell,g", list(SEED_PINS))
def test_seed_values_pinned(n, ell, g):
    vals = _kernels.enumerate_seed_values(n, ell, g)
    assert vals.dtype == np.int64
    assert (vals.size, hashlib.sha256(vals.tobytes()).hexdigest()) == SEED_PINS[n, ell, g]


def _brute_min_pairwise(words):
    mat = core.codes_matrix(words)
    return min(int((mat[i + 1:] != mat[i]).sum(axis=1).min()) for i in range(len(words) - 1))


# the scalar SplitMix64 stream and swapping Fisher-Yates that the batched
# draws of _kernels.run_trials must reproduce, trial by trial
_M64 = (1 << 64) - 1


def _trial_state(master_seed, trial):
    return (master_seed * 0x9E3779B97F4A7C15 + trial * 0xD1B54A32D192ED03 + 1) & _M64


def _next_u64(state):
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _draw_size(state, law, n_seed):
    if law == _kernels.LAW_FULL:
        return state, n_seed
    if law == _kernels.LAW_UNIFORM:
        state, z = _next_u64(state)
        return state, 1 + z % n_seed
    if law == _kernels.LAW_MIXED:
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


def _scalar_picks(master_seed, trial, law, n_seed):
    """One trial's subset, by the scalar stream and a swapping Fisher-Yates."""
    state = _trial_state(master_seed, trial)
    state, r = _draw_size(state, law, n_seed)
    pool = list(range(n_seed))
    for i in range(r):
        state, z = _next_u64(state)
        j = i + z % (n_seed - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:r]


def _replay_trial(vals, orb_of, n, trial, master_seed, law):
    """One trial's closure, replayed from the scalar stream, as sorted words."""
    orbs = {int(orb_of[p]) for p in _scalar_picks(master_seed, trial, law, vals.shape[0])}
    return sorted(core.unpack_all(vals[np.isin(orb_of, list(orbs))], n))


@pytest.mark.parametrize("law", sorted(_kernels.LAW_CODES))
def test_run_trials_parity(law):
    # pinned buckets; every emitted witness is the replayed closure of its
    # trial, word for word, and passes a brute-force pair scan
    code = _kernels.LAW_CODES[law]
    for (n, pinned_law, seed), pinned in TRIAL_PINS.items():
        if pinned_law != law:
            continue
        vals = _kernels.enumerate_seed_values(n, n // 2, n // 2)
        orb_of, images = search._orbit_partition(vals, n, ("r", "c"))
        dist = _kernels.orbit_distances(images, n)
        best_size, best_trial, closures = _kernels.run_trials(
            vals, orb_of, images, dist, n, TRIALS[n], seed, code
        )
        assert best_size[0] == 0 and best_trial[0] == -1 and closures[0].size == 0
        assert list(zip(best_size[1:].tolist(), best_trial[1:].tolist())) == list(pinned), (n, seed)
        table = search.random_construction(
            search.SeedSetSpec(n, n // 2, n // 2), search.SearchConfig(TRIALS[n], seed, law)
        )
        assert sorted(table.buckets) == [d for d, (size, _) in enumerate(pinned, start=1) if size]
        for d, entry in table.buckets.items():
            words = list(entry.code)
            assert (entry.size, entry.trial) == pinned[d - 1], (n, seed, d)
            assert words == _replay_trial(vals, orb_of, n, entry.trial, seed, code), (n, seed, d)
            assert len(words) == entry.size
            assert search.orbit_closure(words) == set(words)
            if d == 1:  # distance >= 1 means distinct words
                assert len(set(words)) == entry.size, (n, seed)
            else:
                assert _brute_min_pairwise(words) >= d, (n, seed, d)


@pytest.mark.parametrize("law", sorted(_kernels.LAW_CODES))
@pytest.mark.parametrize("master_seed", [0, 1, (1 << 63) - 1])
def test_batched_draws_match_scalar_stream(law, master_seed, monkeypatch):
    # every trial's subset, in draw order, against the scalar oracle; a small
    # cap splits chunks into many batches and leaves some trials alone.  At
    # n_seed = 1 every draw targets its own slot; at 3 two full-law trials in
    # three repeat a target; 84,064 is the (12,6,6) seed count, the most the
    # caps admit, where a full-law trial of 84,064 draws runs alone and fills
    # the key's widest draw field
    code = _kernels.LAW_CODES[law]
    for n_seed, trials, cap in [(1, 3000, 40), (2, 3000, 1 << 16), (3, 3000, 1 << 16), (48, 3000, 40),
                                (2024, 2000, 1 << 16), (84064, 2, 1 << 16)]:
        monkeypatch.setattr(_kernels, "DRAW_BATCH_LIMIT", cap)
        got = []
        for first, state, size, used in _kernels._trial_batches(trials, master_seed, code, n_seed):
            assert first == len(got) and (size.sum() <= cap or size.size == 1)
            picks = _kernels._fisher_yates(state, size, used, n_seed).tolist()
            ends = np.cumsum(size).tolist()
            got += [picks[e - r:e] for e, r in zip(ends, size.tolist())]
        assert len(got) == trials
        for t in range(trials):
            assert got[t] == _scalar_picks(master_seed, t, code, n_seed), (n_seed, t)


def _same_trials(got, want):
    best_size, best_trial, closures = got
    return (np.array_equal(best_size, want[0]) and np.array_equal(best_trial, want[1])
            and all(np.array_equal(g, w) for g, w in zip(closures, want[2], strict=True)))


@pytest.mark.parametrize("law", sorted(_kernels.LAW_CODES))
def test_run_trials_ignores_batch_boundaries(law, monkeypatch):
    code = _kernels.LAW_CODES[law]
    for n, trials in [(4, 300), (6, 200), (8, 60)]:
        vals = _kernels.enumerate_seed_values(n, n // 2, n // 2)
        orb_of, images = search._orbit_partition(vals, n, ("r", "c"))
        args = (vals, orb_of, images, _kernels.orbit_distances(images, n), n, trials, 7, code)
        want = _kernels.run_trials(*args)
        for cap in (1, 1 << 30):
            monkeypatch.setattr(_kernels, "DRAW_BATCH_LIMIT", cap)
            assert _same_trials(_kernels.run_trials(*args), want), (n, cap)


def _brute_min(a, reverse=False):
    """Both minima of the pair scan by byte comparison of every ordered row
    pair (i, j): of d(a_i, b_j) and of d(a_i, 3 - b_j), b the rows of ``a``,
    reversed for ``reverse``, skipping distance 0; n + 1 where none is left."""
    b = a[:, ::-1] if reverse else a
    out = []
    for t in (b, 3 - b):
        d = (a[:, None, :] != t[None, :, :]).sum(axis=2)
        d = d[d > 0]
        out.append(int(d.min()) if d.size else a.shape[1] + 1)
    return tuple(out)


def _distinct_rows(rng, m, n):
    return np.unique(rng.integers(0, 4, size=(m, n), dtype=np.uint8), axis=0)


def test_min_pairwise_parity():
    # both modes against a pure-Python scan of every ordered pair of strings
    rng = np.random.default_rng(9)
    comp = str.maketrans("0123", "3210")
    for m, n in [(2, 4), (10, 6), (40, 21), (100, 9)]:
        mat = _distinct_rows(rng, m, n)
        words = ["".join(map(str, row)) for row in mat]
        for reverse in (False, True):
            partners = [w[::-1] if reverse else w for w in words]
            want = []
            for ys in (partners, [y.translate(comp) for y in partners]):
                d = [sum(p != q for p, q in zip(x, y)) for x in words for y in ys]
                want.append(min((v for v in d if v > 0), default=n + 1))
            assert _kernels.min_cross_u8(mat, reverse) == tuple(want)


# word boundaries (32 positions per uint64 word) and accumulator boundaries
# (uint8 up to n = 255, uint16 above; 2n leaves uint8 past 127)
BOUNDARY_LENGTHS = (1, 31, 32, 33, 64, 65, 127, 128, 255, 256)


@pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
def test_pair_scan_matches_brute_force_at_boundaries(n, monkeypatch):
    rng = np.random.default_rng(n)
    monkeypatch.setattr(_kernels, "PAIR_CHUNK", 50)  # several chunks of rows
    for m in (1, 2, 30):
        mat = _distinct_rows(rng, m, n)
        half = mat[: len(mat) // 2]
        cases = (
            mat,
            np.vstack([mat, half]),  # identical rows to skip
            np.vstack([mat, 3 - half, half[:, ::-1], 3 - half[:, ::-1]]),  # transformed partners
            3 * (mat & 1),  # prefix parities, scaled to 0/3
        )
        for case in cases:
            for reverse in (False, True):
                assert _kernels.min_cross_u8(case, reverse) == _brute_min(case, reverse)
    # the skips and the extremes: every position differs (n), no pair left (n + 1)
    row = rng.integers(0, 4, size=(1, n), dtype=np.uint8)
    assert _kernels.min_cross_u8(row) == (n + 1, n)  # a word is n from its own complement
    assert _kernels.min_cross_u8(row[:0]) == _kernels.min_cross_u8(row[:0], True) == (n + 1, n + 1)
    assert _kernels.min_cross_u8(np.vstack([row, row])) == (n + 1, n)  # identical
    assert _kernels.min_cross_u8(np.vstack([row, 3 - row])) == (n, n)  # complement
    palindrome = row.copy()
    palindrome[0, n - n // 2:] = row[0, : n // 2][::-1]
    assert _kernels.min_cross_u8(palindrome, True) == (n + 1, n)
    if n % 2 == 0:
        self_rc = row.copy()
        self_rc[0, n // 2:] = 3 - row[0, : n // 2][::-1]
        assert _kernels.min_cross_u8(self_rc, True) == (n, n + 1)


def test_pair_scan_over_many_default_chunks():
    # 700 x 700 pairs span several chunks of PAIR_CHUNK pairs in both modes
    rng = np.random.default_rng(12)
    mat = _distinct_rows(rng, 700, 9)
    mat[::7] = 3 - mat[1::7][: len(mat[::7])]  # complement partners to skip
    assert len(mat) * len(mat) > 3 * _kernels.PAIR_CHUNK
    for reverse in (False, True):
        assert _kernels.min_cross_u8(mat, reverse) == _brute_min(mat, reverse)


# the transform t of a planted partner, and the (mode, minimum) it pulls to 1
PLANTS = {
    "hamming": (lambda w: w, False, 0),
    "complement": (lambda w: 3 - w, False, 1),
    "reverse": (lambda w: w[::-1], True, 0),
    "reverse_complement": (lambda w: 3 - w[::-1], True, 1),
}


@pytest.mark.parametrize("where", [0, 1, -2, -1])
def test_pair_scan_finds_a_planted_distance_one_pair(where, monkeypatch):
    # rows whose four minima are all >= 3 (a repetition code), one row planted
    # at distance 1 from the transform of another, in the first chunk, early,
    # late or in the last chunk
    monkeypatch.setattr(_kernels, "PAIR_CHUNK", 64)
    rng = np.random.default_rng(13)
    base = np.repeat(_distinct_rows(rng, 200, 5), 3, axis=1)
    assert min(_brute_min(base) + _brute_min(base, True)) >= 3
    i = np.arange(len(base))[where]
    j = (i + 1) % len(base) if where >= 0 else i - 1
    for transform, reverse, slot in PLANTS.values():
        mat = base.copy()
        mat[j] = transform(mat[i])
        mat[j, 0] = (mat[j, 0] + 1) % 4
        want = _brute_min(mat, reverse)
        assert want[slot] == 1
        assert _kernels.min_cross_u8(mat, reverse) == want


def _stop_cases():
    # random rows, a repetition code (every minimum >= 3), and that code with
    # one partner planted at distance 1 in the first or the last chunk
    rng = np.random.default_rng(26)
    for m, n in ((2, 5), (12, 4), (40, 9), (60, 15), (30, 33)):
        yield _distinct_rows(rng, m, n)
    base = np.repeat(_distinct_rows(rng, 80, 5), 3, axis=1)
    yield base
    for transform, _, _ in PLANTS.values():
        for i, j in ((0, 1), (-2, -1)):
            mat = base.copy()
            mat[j] = transform(mat[i])
            mat[j, 0] = (mat[j, 0] + 1) % 4
            yield mat


@pytest.mark.parametrize("chunk", [None, 16])
def test_pair_scan_stop_contract(chunk, monkeypatch):
    # each value >= its true minimum, its comparison with stop exact, and both
    # values exact once either true minimum is not below stop; a 16-pair
    # chunk puts most rows in a chunk of their own, so the stop fires mid-scan
    if chunk:
        monkeypatch.setattr(_kernels, "PAIR_CHUNK", chunk)
    for mat in _stop_cases():
        n = mat.shape[1]
        for reverse in (False, True):
            want = _brute_min(mat, reverse)
            for stop in range(n + 3):
                got = _kernels.min_cross_u8(mat, reverse, stop)
                case = (mat.shape, reverse, stop, got, want)
                assert all(g >= w for g, w in zip(got, want)), case
                assert [g < stop for g in got] == [w < stop for w in want], case
                if max(want) >= stop:
                    assert got == want, case


def test_pair_scan_refuses_before_packing(monkeypatch):
    a = np.zeros((6, 40), dtype=np.uint8)  # two words per row
    a[np.arange(6), np.arange(6)] = 1
    monkeypatch.setattr(_kernels, "PAIR_WORK_LIMIT", 6 * 6 * 2)
    assert _kernels.min_cross_u8(a) == _brute_min(a) == (2, 40)
    assert _kernels.min_cross_u8(a, True) == _brute_min(a, True)
    assert _kernels.min_cross_u8(a, True, stop=42) == _brute_min(a, True)
    monkeypatch.setattr(_kernels, "PAIR_WORK_LIMIT", 6 * 6 * 2 - 1)

    def no_packing(mat):
        raise AssertionError("packed past the limit")

    monkeypatch.setattr(_kernels, "_pack_rows", no_packing)
    for reverse in (False, True):
        with pytest.raises(_kernels.InstanceTooLargeError):
            _kernels.min_cross_u8(a, reverse)
        with pytest.raises(_kernels.InstanceTooLargeError):
            _kernels.min_cross_u8(a, reverse, stop=42)


def test_min_cross_parity_and_skip_rule():
    # rows with repeats, complements, reverses and reverse-complements of
    # other rows, against a pure-Python scan of every ordered pair
    rng = np.random.default_rng(10)
    for m, n in [(5, 4), (30, 7)]:
        a = rng.integers(0, 4, size=(m, n), dtype=np.uint8)
        a = np.vstack([a, a[::2], 3 - a[:2], a[2:4, ::-1], 3 - a[4:6, ::-1]])
        for reverse in (False, True):
            b = a[:, ::-1] if reverse else a
            want = [
                min(
                    (int((x != y).sum()) for x in a for y in ys if (x != y).any()),
                    default=n + 1,
                )
                for ys in (b, 3 - b)
            ]
            assert _kernels.min_cross_u8(a, reverse) == tuple(want)
