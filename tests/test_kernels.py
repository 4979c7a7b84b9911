"""The kernels against independent oracles: brute-force string scans, the
string predicates, and search results pinned before the trial loop moved onto
the orbit-distance matrix."""

import functools
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
    if g is None:
        vals = search._enumerate_conflict_free(n, ell)
    else:
        vals = _kernels.enumerate_seed_values(n, ell, g)
    orb_of, orb_ptr, orb_members = search._orbit_partition(vals, n, ops)
    words = core.unpack_all(vals, n)
    orbits = [[words[i] for i in orb_members[orb_ptr[k]:orb_ptr[k + 1]]] for k in range(len(orb_ptr) - 1)]
    # the partition is the string-level orbit partition, ascending
    assert [frozenset(o) for o in orbits] == sorted(set(_brute_orbits(words, ops).values()), key=min)
    assert all(o == sorted(o) for o in orbits)
    assert all(w in orbits[orb_of[i]] for i, w in enumerate(words))
    dist = _kernels.orbit_distances(vals, orb_ptr, orb_members, n)
    assert dist.dtype == np.uint8 and dist.shape == (len(orbits),) * 2
    for a, b in itertools.combinations_with_replacement(range(len(orbits)), 2):
        want = _brute_min_distance(orbits[a], orbits[b])
        assert dist[a, b] == dist[b, a] == want, (a, b)


def test_orbit_distances_match_string_words():
    # singleton orbits of random words up to length 31: D is the plain distance
    rng = np.random.default_rng(8)
    for n in (1, 3, 8, 20, 31):
        words = ["".join(rng.choice(list("ACGT"), n)) for _ in range(30)]
        ident = np.arange(len(words) + 1)
        dist = _kernels.orbit_distances(core.pack_all(words), ident, ident[:-1], n)
        for i, j in itertools.product(range(len(words)), repeat=2):
            want = n + 1 if i == j else core.hamming_distance(words[i], words[j])
            assert dist[i, j] == want, (n, i, j)
        # two-member orbits, some holding one word twice: the diagonal skips
        # the representative by index, so a repeated word is at distance 0
        for i in range(0, len(words), 6):
            words[i + 1] = words[i]
        dist = _kernels.orbit_distances(core.pack_all(words), ident[::2], ident[:-1], n)
        for a, b in itertools.product(range(len(words) // 2), repeat=2):
            want = min(core.hamming_distance(words[2 * a], words[y]) for y in (2 * b, 2 * b + 1) if y != 2 * a)
            assert dist[a, b] == want, (n, a, b)
    empty = np.empty(0, dtype=np.int64)
    assert _kernels.orbit_distances(empty, np.zeros(1, dtype=np.int64), empty, 4).shape == (0, 0)


def test_closure_distance_early_exit_keeps_the_verdict():
    # the chunked scan may stop early, but never changes which side of the
    # gate a closure falls on, and is exact whenever it passes the gate;
    # one planted minimum anywhere in a many-chunk closure must be found
    rng = np.random.default_rng(11)
    for k, planted, where in itertools.product((2, 40, 700), (1, 2, 3), (0, -2, None)):
        full = rng.integers(planted + 1, 9, size=(k + 5, k + 5), dtype=np.uint8)
        dist = np.minimum(full, full.T)
        orbs = np.sort(rng.choice(k + 5, size=k, replace=False))
        # in the first chunk, the last one, or anywhere
        i, j = orbs[[where, -1]] if where is not None else rng.choice(orbs, size=2)
        dist[i, j] = dist[j, i] = planted
        true = int(dist[np.ix_(orbs, orbs)].min())
        for d_gate in range(1, 10):
            got = _kernels._closure_distance(dist, orbs, d_gate)
            assert (got >= d_gate) == (true >= d_gate), (k, planted, where, d_gate)
            if got >= d_gate:
                assert got == true, (k, planted, where, d_gate)


def test_orbit_distances_refuse_before_allocating(monkeypatch):
    vals = _kernels.enumerate_seed_values(4, 2, 2)
    _, orb_ptr, orb_members = search._orbit_partition(vals, 4, ("r", "c"))
    n_orb = len(orb_ptr) - 1
    monkeypatch.setattr(_kernels, "DIST_MEMORY_LIMIT", n_orb * n_orb)
    assert _kernels.orbit_distances(vals, orb_ptr, orb_members, 4).shape == (n_orb, n_orb)
    monkeypatch.setattr(_kernels, "DIST_MEMORY_LIMIT", n_orb * n_orb - 1)
    with pytest.raises(_kernels.InstanceTooLargeError):
        _kernels.orbit_distances(vals, orb_ptr, orb_members, 4)
    with pytest.raises(search.InstanceTooLargeError):
        search.random_construction(search.SeedSetSpec(4, 2, 2), search.SearchConfig(trials=10))
    with pytest.raises(search.InstanceTooLargeError):
        search.exact_max_size(4, 2, 2, 3, ("r", "c", "GC"))


@functools.lru_cache(maxsize=None)
def _string_predicates(n, ell):
    words = ["".join(p) for p in itertools.product("ACGT", repeat=n)]
    return [(w, core.gc_content(w), constraints.is_conflict_free(w, ell)) for w in words]


@pytest.mark.parametrize(
    "n,ell,g",
    [(n, ell, g) for n in range(2, 8) for ell in range(1, n // 2 + 1) for g in range(n + 1)],
)
def test_enumeration_parity(n, ell, g):
    # the packed enumeration agrees with the string predicates
    want = [w for w, wg, free in _string_predicates(n, ell) if wg == g and free]
    got = _kernels.enumerate_seed_values(n, ell, g)
    assert got.dtype == np.int64
    assert core.unpack_all(got, n) == want


def _brute_min_pairwise(words):
    mat = core.codes_matrix(words)
    return min(int((mat[i + 1:] != mat[i]).sum(axis=1).min()) for i in range(len(words) - 1))


@pytest.mark.parametrize("law", sorted(_kernels.LAW_CODES))
def test_run_trials_parity(law):
    # pinned buckets, and a brute-force pair scan of every replayed witness
    code = _kernels.LAW_CODES[law]
    for (n, pinned_law, seed), pinned in TRIAL_PINS.items():
        if pinned_law != law:
            continue
        vals = _kernels.enumerate_seed_values(n, n // 2, n // 2)
        orb_of, orb_ptr, orb_members = search._orbit_partition(vals, n, ("r", "c"))
        best_size, best_trial = _kernels.run_trials(
            vals, orb_of, orb_ptr, orb_members, n, TRIALS[n], seed, code
        )
        assert best_size[0] == 0 and best_trial[0] == -1
        assert list(zip(best_size[1:].tolist(), best_trial[1:].tolist())) == list(pinned), (n, seed)
        for d, (size, trial) in enumerate(pinned, start=1):
            if size == 0:
                continue
            members = _kernels.replay_trial(vals, orb_of, orb_ptr, orb_members, trial, seed, code)
            words = core.unpack_all(vals[members], n)
            assert len(words) == size
            assert search.orbit_closure(words) == set(words)
            if d == 1:  # distance >= 1 means distinct words
                assert len(set(words)) == size, (n, seed)
            else:
                assert _brute_min_pairwise(words) >= d, (n, seed, d)


def _scalar_picks(master_seed, trial, law, n_seed):
    """One trial's subset, by the scalar SplitMix64 stream and swapping
    Fisher-Yates that :func:`_kernels.replay_trial` uses."""
    state = _kernels._trial_state(master_seed, trial)
    state, r = _kernels._draw_size(state, law, n_seed)
    pool = list(range(n_seed))
    for i in range(r):
        state, z = _kernels._next_u64(state)
        j = i + z % (n_seed - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:r]


@pytest.mark.parametrize("law", sorted(_kernels.LAW_CODES))
@pytest.mark.parametrize("master_seed", [0, 1, (1 << 63) - 1])
def test_batched_draws_match_scalar_stream(law, master_seed, monkeypatch):
    # every trial's subset, in draw order, against the scalar oracle; a small
    # cap splits chunks into many batches and leaves some trials alone
    code = _kernels.LAW_CODES[law]
    for n_seed, trials, cap in [(2, 3000, 1 << 16), (48, 3000, 40), (2024, 2000, 1 << 16)]:
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


@pytest.mark.parametrize("law", sorted(_kernels.LAW_CODES))
def test_run_trials_ignores_batch_boundaries(law, monkeypatch):
    code = _kernels.LAW_CODES[law]
    for n, trials in [(4, 300), (6, 200), (8, 60)]:
        vals = _kernels.enumerate_seed_values(n, n // 2, n // 2)
        args = (vals, *search._orbit_partition(vals, n, ("r", "c")), n, trials, 7, code)
        want = _kernels.run_trials(*args)
        for cap in (1, 1 << 30):
            monkeypatch.setattr(_kernels, "DRAW_BATCH_LIMIT", cap)
            got = _kernels.run_trials(*args)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (n, cap)


def _brute_min(a, b=None):
    """The pair scan's answer by byte comparison of every row pair: over i < j
    for ``b=None``, else over every pair at nonzero distance; n + 1 if none."""
    d = (a[:, None, :] != (a if b is None else b)[None, :, :]).sum(axis=2)
    d = d[np.triu_indices(len(a), 1)] if b is None else d[d > 0]
    return int(d.min()) if d.size else a.shape[1] + 1


def _distinct_rows(rng, m, n):
    return np.unique(rng.integers(0, 4, size=(m, n), dtype=np.uint8), axis=0)


def test_min_pairwise_parity():
    # b=None: the distinct row pairs, against a brute-force scan of every pair
    rng = np.random.default_rng(9)
    for m, n in [(2, 4), (10, 6), (40, 21), (100, 9)]:
        mat = _distinct_rows(rng, m, n)
        brute = min(
            int((mat[i] != mat[j]).sum()) for i in range(len(mat)) for j in range(i + 1, len(mat))
        )
        assert int(_kernels.min_cross_u8(mat)) == brute


# word boundaries (32 positions per uint64 word) and accumulator boundaries
# (uint8 up to n = 255, uint16 above)
BOUNDARY_LENGTHS = (1, 31, 32, 33, 64, 65, 255, 256)


@pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
def test_pair_scan_matches_brute_force_at_boundaries(n, monkeypatch):
    rng = np.random.default_rng(n)
    monkeypatch.setattr(_kernels, "PAIR_CHUNK", 50)  # several chunks of rows
    for m in (1, 2, 30):
        mat = _distinct_rows(rng, m, n)
        other = rng.integers(0, 4, size=(m + 3, n), dtype=np.uint8)
        other[: len(mat) // 2] = mat[: len(mat) // 2]  # identical rows to skip
        assert _kernels.min_cross_u8(mat) == _brute_min(mat)
        assert _kernels.min_cross_u8(mat, other) == _brute_min(mat, other)
        assert _kernels.min_cross_u8(other, mat) == _brute_min(other, mat)
        # binary rows (prefix parities) use the same layout
        assert _kernels.min_cross_u8(mat & 1, 1 - (mat & 1)) == _brute_min(mat & 1, 1 - (mat & 1))
    # the extremes: every position differs (d = n), and no pair left (n + 1)
    row = rng.integers(0, 4, size=(1, n), dtype=np.uint8)
    assert _kernels.min_cross_u8(row, 3 - row) == n
    assert _kernels.min_cross_u8(np.vstack([row, 3 - row])) == n
    assert _kernels.min_cross_u8(row, np.vstack([row, row])) == n + 1
    assert _kernels.min_cross_u8(row) == n + 1
    assert _kernels.min_cross_u8(row, row[:0]) == n + 1


def test_pair_scan_over_many_default_chunks():
    # 700 x 700 pairs span several chunks of PAIR_CHUNK pairs in both modes
    rng = np.random.default_rng(12)
    mat = _distinct_rows(rng, 700, 9)
    other = rng.integers(0, 4, size=(650, 9), dtype=np.uint8)
    other[::7] = mat[:93]
    assert len(mat) * len(other) > 3 * _kernels.PAIR_CHUNK
    assert _kernels.min_cross_u8(mat) == _brute_min(mat)
    assert _kernels.min_cross_u8(mat, other) == _brute_min(mat, other)


@pytest.mark.parametrize("where", [0, 1, -2, -1])
def test_pair_scan_finds_a_planted_distance_one_pair(where, monkeypatch):
    # rows pairwise at distance >= 3 (a repetition code), one pair planted at
    # distance 1 in the first chunk, early, late or in the last chunk
    monkeypatch.setattr(_kernels, "PAIR_CHUNK", 64)
    rng = np.random.default_rng(13)
    base = _distinct_rows(rng, 200, 5)
    mat = np.repeat(base, 3, axis=1)
    assert _brute_min(mat) >= 3
    i = np.arange(len(mat))[where]
    j = (i + 1) % len(mat) if where >= 0 else i - 1
    mat[j] = mat[i]
    mat[j, 0] = (mat[i, 0] + 1) % 4
    assert _brute_min(mat) == 1
    assert _kernels.min_cross_u8(mat) == 1
    assert _kernels.min_cross_u8(mat, mat[::-1].copy()) == 1
    assert _kernels.min_cross_u8(mat[[i]], mat) == 1


def test_pair_scan_refuses_before_packing(monkeypatch):
    a = np.zeros((6, 40), dtype=np.uint8)  # two words per row
    b = np.ones((5, 40), dtype=np.uint8)
    monkeypatch.setattr(_kernels, "PAIR_WORK_LIMIT", 6 * 5 * 2)
    assert _kernels.min_cross_u8(a, b) == 40
    monkeypatch.setattr(_kernels, "PAIR_WORK_LIMIT", 6 * 5 * 2 - 1)

    def no_packing(mat):
        raise AssertionError("packed past the limit")

    monkeypatch.setattr(_kernels, "_pack_rows", no_packing)
    with pytest.raises(_kernels.InstanceTooLargeError):
        _kernels.min_cross_u8(a, b)
    monkeypatch.setattr(_kernels, "PAIR_WORK_LIMIT", 6 * 6 * 2 - 1)
    with pytest.raises(_kernels.InstanceTooLargeError):
        _kernels.min_cross_u8(a)


def test_min_cross_parity_and_skip_rule():
    # against a brute-force scan of every row pair
    rng = np.random.default_rng(10)
    for m, n in [(5, 4), (30, 7)]:
        a = rng.integers(0, 4, size=(m, n), dtype=np.uint8)
        b = a[::-1].copy()  # guarantees some identical rows to skip
        dists = [
            int((a[i] != b[j]).sum())
            for i in range(m)
            for j in range(m)
            if (a[i] != b[j]).any()
        ]
        assert int(_kernels.min_cross_u8(a, b)) == min(dists)
