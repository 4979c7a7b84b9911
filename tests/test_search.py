import inspect
import random
import sys

import pytest

from dnacf import core, reference
from dnacf.constraints import DnaCode, verify_code
from dnacf.search import (
    InstanceTooLargeError,
    SearchConfig,
    SeedSetSpec,
    _max_weight_clique,
    enumerate_seed_set,
    exact_max_size,
    extremal_size,
    orbit_closure,
    random_construction,
)


def verify_table(table):
    """Check every stored code against its bucket's distance floor."""
    for d, entry in table.buckets.items():
        report = verify_code(DnaCode(entry.code), claimed_d=d)
        if report.min_hamming < d and report.size > 1:
            return False
        if not (report.reverse_ok and report.reverse_complement_ok and report.complement_ok):
            return False
        if report.gc_constant != table.spec.g:
            return False
    return True


def test_seed_set_worked_example():
    got = enumerate_seed_set(SeedSetSpec(3, 1, 2))
    assert got == sorted(
        ["ACG", "AGC", "CAC", "CAG", "CGA", "CGT", "CTC", "CTG",
         "GAC", "GAG", "GCA", "GCT", "GTC", "GTG", "TCG", "TGC"]
    )


def test_seed_set_sizes():
    assert len(enumerate_seed_set(SeedSetSpec(4, 2, 2))) == 48
    assert enumerate_seed_set(SeedSetSpec(2, 1, 1)) == [
        "AC", "AG", "CA", "CT", "GA", "GT", "TC", "TG"
    ]


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSetSpec(4, 3, 2)
    with pytest.raises(ValueError):
        SeedSetSpec(4, 0, 2)
    with pytest.raises(ValueError):
        SeedSetSpec(4, 2, 5)
    # the exact solver refuses what the spec refuses: ell past n // 2,
    # ell = 0 and n = 1
    for n, ell, g, d in [(4, 3, 2, 2), (4, 0, 2, 2), (1, 1, 0, 1)]:
        with pytest.raises(ValueError):
            SeedSetSpec(n, ell, g)
        with pytest.raises(ValueError):
            exact_max_size(n, ell, g, d, ("r", "c", "GC"))


def test_orbit_closure_examples():
    got = orbit_closure({"CAC", "CGT", "ACG", "TGC"})
    assert got == {"CAC", "CGT", "ACG", "TGC", "GCA", "GTG"}
    assert orbit_closure([]) == set()
    assert orbit_closure({"AT"}) == {"AT", "TA"}
    # idempotent
    assert orbit_closure(got) == got


def test_orbit_closure_is_closed():
    got = orbit_closure({"ACGTT", "CCATG"})
    for w in got:
        assert core.reverse(w) in got
        assert core.complement(w) in got
        assert core.reverse_complement(w) in got


def closure_by_frontier(words):
    """Oracle: close under reverse and complement by walking a frontier until
    no new word appears."""
    out = set()
    frontier = [core.clean(w) for w in words]
    if frontier:
        n = len(frontier[0])
        if any(len(w) != n for w in frontier):
            raise ValueError("mixed lengths")
    while frontier:
        w = frontier.pop()
        if w in out:
            continue
        out.add(w)
        frontier.append(core.reverse(w))
        frontier.append(core.complement(w))
    return out


def _outcome(f, words):
    try:
        return f(words)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def test_orbit_closure_matches_frontier_oracle():
    rng = random.Random(24)
    for _ in range(3_000):
        n = rng.randint(1, 7)
        words = ["".join(rng.choices("ACGTacgt", k=n)) for _ in range(rng.randint(0, 6))]
        kind = rng.randrange(4)
        if kind == 0:  # one word of another length
            other = rng.choice([m for m in range(1, 9) if m != n])
            words.insert(rng.randint(0, len(words)), "".join(rng.choices("ACGT", k=other)))
        elif kind == 1:  # one invalid base
            words.insert(rng.randint(0, len(words)), "".join(rng.choices("ACGTN", k=n - 1)) + "N")
        assert _outcome(orbit_closure, words) == _outcome(closure_by_frontier, words), words


def test_random_construction_full_law():
    table = random_construction(
        SeedSetSpec(3, 1, 1), SearchConfig(trials=1, master_seed=7, subset_law="full")
    )
    assert table.best_size(1) == 16
    assert table.buckets[1].code == tuple(enumerate_seed_set(SeedSetSpec(3, 1, 1)))


def test_random_construction_reaches_small_cell():
    table = random_construction(
        SeedSetSpec(4, 2, 2), SearchConfig(trials=20_000, master_seed=1)
    )
    assert table.best_size(3) >= 12
    assert verify_table(table)


def test_table_monotone_and_verified():
    table = random_construction(
        SeedSetSpec(5, 2, 2), SearchConfig(trials=5_000, master_seed=3)
    )
    sizes = [table.best_size(d) for d in range(1, 6)]
    assert all(sizes[i] >= sizes[i + 1] for i in range(4))
    assert verify_table(table)
    for d, entry in table.buckets.items():
        rep = verify_code(entry.code, claimed_d=d)
        assert rep.gc_constant == 2
        assert rep.conflict_free_level >= 2


def test_determinism_byte_identical():
    spec, cfg = SeedSetSpec(4, 2, 2), SearchConfig(trials=3_000, master_seed=11)
    a = random_construction(spec, cfg).to_json()
    b = random_construction(spec, cfg).to_json()
    assert a == b


def test_extremal_size():
    assert extremal_size(9) == 2
    assert extremal_size(10) == 4
    assert extremal_size(5) == 2
    with pytest.raises(ValueError):
        extremal_size(1)


def test_exact_max_size_examples():
    assert exact_max_size(3, 1, 1, 1, ("r", "c", "GC")) == 16
    assert exact_max_size(4, 2, 2, 4, ("r", "c", "GC")) == 4
    assert exact_max_size(3, 1, 1, 3, ("r", "c", "GC")) == 2


def test_exact_max_matches_published_row():
    # n=4 row of the published table: 48, 32, 12, 4
    row = reference.BOUND_TABLE[(4, 2)]
    for d in range(1, 5):
        assert exact_max_size(4, 2, 2, d, ("r", "c", "GC")) == row[d - 1]


# exact_max_size pinned before the branch and bound moved onto the
# orbit-distance matrix: (n, ell, ops) -> {g: maxima for d = 1..n}.  Without
# "GC" the seed set ignores g and only g = n // 2 is recorded.
EXACT_PINS = {
    (2, 1, ""): {1: (12, 4)},
    (2, 1, "r"): {1: (12, 4)},
    (2, 1, "rc"): {1: (12, 4)},
    (2, 1, "c"): {1: (12, 4)},
    (2, 1, "GC"): {0: (2, 2), 1: (8, 4), 2: (2, 2)},
    (2, 1, "r,rc"): {1: (12, 4)},
    (2, 1, "r,c"): {1: (12, 4)},
    (2, 1, "r,GC"): {0: (2, 2), 1: (8, 4), 2: (2, 2)},
    (2, 1, "rc,c"): {1: (12, 4)},
    (2, 1, "rc,GC"): {0: (2, 2), 1: (8, 4), 2: (2, 2)},
    (2, 1, "c,GC"): {0: (2, 2), 1: (8, 4), 2: (2, 2)},
    (2, 1, "r,rc,c"): {1: (12, 4)},
    (2, 1, "r,rc,GC"): {0: (2, 2), 1: (8, 4), 2: (2, 2)},
    (2, 1, "r,c,GC"): {0: (2, 2), 1: (8, 4), 2: (2, 2)},
    (2, 1, "rc,c,GC"): {0: (2, 2), 1: (8, 4), 2: (2, 2)},
    (2, 1, "r,rc,c,GC"): {0: (2, 2), 1: (8, 4), 2: (2, 2)},
    (3, 1, ""): {1: (36, 12, 4)},
    (3, 1, "r"): {1: (36, 12, 4)},
    (3, 1, "rc"): {1: (36, 12, 4)},
    (3, 1, "c"): {1: (36, 12, 4)},
    (3, 1, "GC"): {0: (2, 2, 2), 1: (16, 8, 3), 2: (16, 8, 3), 3: (2, 2, 2)},
    (3, 1, "r,rc"): {1: (36, 12, 4)},
    (3, 1, "r,c"): {1: (36, 12, 4)},
    (3, 1, "r,GC"): {0: (2, 2, 2), 1: (16, 8, 2), 2: (16, 8, 2), 3: (2, 2, 2)},
    (3, 1, "rc,c"): {1: (36, 12, 4)},
    (3, 1, "rc,GC"): {0: (2, 2, 2), 1: (16, 6, 2), 2: (16, 6, 2), 3: (2, 2, 2)},
    (3, 1, "c,GC"): {0: (2, 2, 2), 1: (16, 6, 2), 2: (16, 6, 2), 3: (2, 2, 2)},
    (3, 1, "r,rc,c"): {1: (36, 12, 4)},
    (3, 1, "r,rc,GC"): {0: (2, 2, 2), 1: (16, 6, 2), 2: (16, 6, 2), 3: (2, 2, 2)},
    (3, 1, "r,c,GC"): {0: (2, 2, 2), 1: (16, 6, 2), 2: (16, 6, 2), 3: (2, 2, 2)},
    (3, 1, "rc,c,GC"): {0: (2, 2, 2), 1: (16, 6, 2), 2: (16, 6, 2), 3: (2, 2, 2)},
    (3, 1, "r,rc,c,GC"): {0: (2, 2, 2), 1: (16, 6, 2), 2: (16, 6, 2), 3: (2, 2, 2)},
    (4, 1, ""): {2: (108, 36, 12, 4)},
    (4, 1, "r"): {2: (108, 36, 12, 4)},
    (4, 1, "rc"): {2: (108, 36, 12, 4)},
    (4, 1, "c"): {2: (108, 36, 12, 4)},
    (4, 1, "GC"): {0: (2, 2, 2, 2), 1: (24, 12, 4, 2), 2: (56, 32, 12, 4), 3: (24, 12, 4, 2), 4: (2, 2, 2, 2)},
    (4, 1, "r,rc"): {2: (108, 36, 12, 4)},
    (4, 1, "r,c"): {2: (108, 36, 12, 4)},
    (4, 1, "r,GC"): {0: (2, 2, 2, 2), 1: (24, 12, 2, 2), 2: (56, 32, 12, 4), 3: (24, 12, 2, 2), 4: (2, 2, 2, 2)},
    (4, 1, "rc,c"): {2: (108, 36, 12, 4)},
    (4, 1, "rc,GC"): {0: (2, 2, 2, 2), 1: (24, 12, 2, 2), 2: (56, 32, 12, 4), 3: (24, 12, 2, 2), 4: (2, 2, 2, 2)},
    (4, 1, "c,GC"): {0: (2, 2, 2, 2), 1: (24, 12, 4, 2), 2: (56, 32, 12, 4), 3: (24, 12, 4, 2), 4: (2, 2, 2, 2)},
    (4, 1, "r,rc,c"): {2: (108, 36, 12, 4)},
    (4, 1, "r,rc,GC"): {0: (2, 2, 2, 2), 1: (24, 12, 0, 0), 2: (56, 32, 12, 4), 3: (24, 12, 0, 0), 4: (2, 2, 2, 2)},
    (4, 1, "r,c,GC"): {0: (2, 2, 2, 2), 1: (24, 12, 0, 0), 2: (56, 32, 12, 4), 3: (24, 12, 0, 0), 4: (2, 2, 2, 2)},
    (4, 1, "rc,c,GC"): {0: (2, 2, 2, 2), 1: (24, 12, 0, 0), 2: (56, 32, 12, 4), 3: (24, 12, 0, 0), 4: (2, 2, 2, 2)},
    (4, 1, "r,rc,c,GC"): {0: (2, 2, 2, 2), 1: (24, 12, 0, 0), 2: (56, 32, 12, 4), 3: (24, 12, 0, 0), 4: (2, 2, 2, 2)},
    (4, 2, ""): {2: (96, 36, 12, 4)},
    (4, 2, "r"): {2: (96, 36, 12, 4)},
    (4, 2, "rc"): {2: (96, 36, 12, 4)},
    (4, 2, "c"): {2: (96, 36, 12, 4)},
    (4, 2, "GC"): {0: (0, 0, 0, 0), 1: (24, 12, 4, 2), 2: (48, 32, 12, 4), 3: (24, 12, 4, 2), 4: (0, 0, 0, 0)},
    (4, 2, "r,rc"): {2: (96, 36, 12, 4)},
    (4, 2, "r,c"): {2: (96, 36, 12, 4)},
    (4, 2, "r,GC"): {0: (0, 0, 0, 0), 1: (24, 12, 2, 2), 2: (48, 32, 12, 4), 3: (24, 12, 2, 2), 4: (0, 0, 0, 0)},
    (4, 2, "rc,c"): {2: (96, 36, 12, 4)},
    (4, 2, "rc,GC"): {0: (0, 0, 0, 0), 1: (24, 12, 2, 2), 2: (48, 32, 12, 4), 3: (24, 12, 2, 2), 4: (0, 0, 0, 0)},
    (4, 2, "c,GC"): {0: (0, 0, 0, 0), 1: (24, 12, 4, 2), 2: (48, 32, 12, 4), 3: (24, 12, 4, 2), 4: (0, 0, 0, 0)},
    (4, 2, "r,rc,c"): {2: (96, 36, 12, 4)},
    (4, 2, "r,rc,GC"): {0: (0, 0, 0, 0), 1: (24, 12, 0, 0), 2: (48, 32, 12, 4), 3: (24, 12, 0, 0), 4: (0, 0, 0, 0)},
    (4, 2, "r,c,GC"): {0: (0, 0, 0, 0), 1: (24, 12, 0, 0), 2: (48, 32, 12, 4), 3: (24, 12, 0, 0), 4: (0, 0, 0, 0)},
    (4, 2, "rc,c,GC"): {0: (0, 0, 0, 0), 1: (24, 12, 0, 0), 2: (48, 32, 12, 4), 3: (24, 12, 0, 0), 4: (0, 0, 0, 0)},
    (4, 2, "r,rc,c,GC"): {0: (0, 0, 0, 0), 1: (24, 12, 0, 0), 2: (48, 32, 12, 4), 3: (24, 12, 0, 0), 4: (0, 0, 0, 0)},
    (5, 2, "r,c,GC"): {2: (108, 60, 14, 4, 2)},
    (6, 3, "r,c,GC"): {3: (320, 168, 44, 20, 4, 4)},
}


def test_exact_max_size_pinned():
    for (n, ell, ops), per_g in EXACT_PINS.items():
        for g, want in per_g.items():
            got = tuple(exact_max_size(n, ell, g, d, ops.split(",") if ops else ()) for d in range(1, n + 1))
            assert got == want, (n, ell, g, ops)


def test_exact_runs_under_a_low_recursion_limit():
    # the clique search keeps its own stack; a recursive one needs a frame
    # per clique vertex, and the 168-word optimum has dozens of orbits
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 25)
    try:
        assert exact_max_size(6, 3, 3, 2, ("r", "c", "GC")) == 168
    finally:
        sys.setrecursionlimit(limit)


def test_max_weight_clique_matches_subset_enumeration():
    rng = random.Random(2007)
    for _ in range(400):
        v_count, density = rng.randint(0, 12), rng.random()
        weights = [rng.randint(1, 4) for _ in range(v_count)]
        adj = [0] * v_count
        for a in range(v_count):
            for b in range(a):
                if rng.random() < density:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        # clique[mask]: mask without its lowest vertex is a clique inside
        # that vertex's neighbourhood
        clique, weight = [True] * (1 << v_count), [0] * (1 << v_count)
        for mask in range(1, 1 << v_count):
            v = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            clique[mask] = clique[rest] and rest & ~adj[v] == 0
            weight[mask] = weight[rest] + weights[v]
        want = max(w for w, ok in zip(weight, clique) if ok)
        assert _max_weight_clique(weights, adj) == want, (weights, adj)


def test_exact_refuses_large_instances():
    with pytest.raises(InstanceTooLargeError):
        exact_max_size(8, 4, 4, 4, ("r", "c", "GC"))


def test_even_n_reverse_rc_equivalence():
    for n in (2, 4):
        for d in range(1, n + 1):
            a_r = exact_max_size(n, max(1, n // 2), n // 2, d, ("r", "GC"))
            a_rc = exact_max_size(n, max(1, n // 2), n // 2, d, ("rc", "GC"))
            assert a_r == a_rc, (n, d)


def test_constraint_chain_monotone():
    for d in (2, 3, 4):
        chain = [
            exact_max_size(4, 1, 2, d, ()),
            exact_max_size(4, 1, 2, d, ("GC",)),
            exact_max_size(4, 1, 2, d, ("GC", "r")),
            exact_max_size(4, 1, 2, d, ("GC", "r", "rc")),
        ]
        assert all(chain[i] >= chain[i + 1] for i in range(3)), (d, chain)
    # more conflict structure can only shrink the code
    assert exact_max_size(4, 1, 2, 3, ("GC", "r", "rc")) >= exact_max_size(
        4, 2, 2, 3, ("GC", "r", "rc")
    )


@pytest.mark.slow
def test_full_distance_cell_found_at_n6():
    table = random_construction(
        SeedSetSpec(6, 3, 3), SearchConfig(trials=100_000, master_seed=1)
    )
    assert table.best_size(6) == 4
    assert verify_code(table.buckets[6].code, claimed_d=6).min_hamming == 6


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(trials=0)
    with pytest.raises(ValueError):
        SearchConfig(subset_law="bogus")
    with pytest.raises(ValueError):
        SearchConfig(master_seed=1 << 63)
