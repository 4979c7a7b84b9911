import random
from dataclasses import astuple
from itertools import product

import numpy as np
import pytest

from dnacf import core, reference
from dnacf.constraints import is_conflict_free, is_rc_substring_free
from dnacf.isomap import (
    BlockPair,
    PairValidation,
    TransitionMap,
    append_distance_bound,
    binary_complete_conflict_condition,
    binary_distance,
    binary_distances,
    default_pair,
    BLOCK_NAMES,
    encode,
    encode_all,
    encoded_gc_content,
    encodes_to_complete_conflict_free,
    enumerate_valid_pairs,
    flip_distance,
    half_distance_bounds,
    image_set,
    min_binary_distance,
    pair_sigma,
    validate_pair,
)

PAIR_CG_AT = BlockPair("CG", "AT")
PAIR_ATA_CGC = BlockPair("ATA", "CGC")


def all_bits(n):
    return ("".join(w) for w in product("01", repeat=n))


def test_block_pair_validation():
    with pytest.raises(ValueError):
        BlockPair("ATA", "TAT")  # y equals the complement of x
    with pytest.raises(ValueError):
        BlockPair("ATA", "ATA")
    with pytest.raises(ValueError):
        BlockPair("AT", "ACG")


# the published transition table by block name: (previous block, bit) -> next
PUBLISHED_TABLE = {
    ("x", 0): "y", ("x", 1): "yc",
    ("xc", 0): "yc", ("xc", 1): "y",
    ("y", 0): "xc", ("y", 1): "x",
    ("yc", 0): "x", ("yc", 1): "xc",
}
FLIPPED = {"x": "xc", "xc": "x", "y": "yc", "yc": "y"}


def _table_of(pair):
    b = pair.blocks()
    return {(b[prev], bit): b[nxt] for (prev, bit), nxt in PUBLISHED_TABLE.items()}


def test_transition_table_worked_example():
    table = _table_of(PAIR_CG_AT)
    assert table["CG", 0] == "AT"
    assert table["TA", 1] == "GC"
    assert table["CG", 1] == "TA"  # bit 1 gives the complement block
    assert TransitionMap(PAIR_CG_AT).start_class() == "x"
    assert TransitionMap(PAIR_CG_AT, "yc").start_class() == "y"
    with pytest.raises(ValueError, match="h0"):
        TransitionMap(PAIR_CG_AT, "z")


def test_transition_complement_symmetry():
    for pair in (PAIR_CG_AT, PAIR_ATA_CGC):
        table = _table_of(pair)
        for blk in pair.blocks().values():
            for bit in (0, 1):
                nxt = table[blk, bit]
                assert table[core.complement(blk), bit] == core.complement(nxt)
                assert table[blk, 1 - bit] == core.complement(nxt)


def test_encode_worked_example():
    tm = TransitionMap(PAIR_CG_AT, "x")
    assert encode("011", tm) == "CGTAGC"
    assert encode("0", tm) == "CG"
    assert encode("1", tm) == "GC"
    with pytest.raises(ValueError, match="empty"):
        encode("", tm)
    with pytest.raises(ValueError, match="0/1"):
        encode_all(np.array([[0, 2, 1]]), tm)
    with pytest.raises(ValueError, match="0/1"):
        encode_all(np.array([[0, -1]]), tm)


def _scalar_encode(a, pair, h0):
    # the published table walked word by word: the leading bit picks h0 or
    # its complement, every later bit one table entry
    names = [h0 if a[0] == "0" else FLIPPED[h0]]
    for bit in a[1:]:
        names.append(PUBLISHED_TABLE[names[-1], int(bit)])
    blocks = pair.blocks()
    return "".join(blocks[name] for name in names)


def _bit_rows(words):
    return np.array([[int(c) for c in w] for w in words], dtype=np.uint8)


@pytest.mark.parametrize("pair", [PAIR_ATA_CGC, PAIR_CG_AT, default_pair(4)], ids=str)
def test_encode_all_matches_scalar_walk(pair):
    rng = random.Random(5)
    batches = [list(all_bits(n)) for n in range(1, 9)]
    for n in (23, 64):
        batches.append(["".join(rng.choice("01") for _ in range(n)) for _ in range(50)])
    # few long words: two rows of 2^16 bits
    batches.append([format(rng.getrandbits(1 << 16), "065536b") for _ in range(2)])
    for h0 in BLOCK_NAMES:
        tm = TransitionMap(pair, h0)
        for words in batches:
            assert encode_all(_bit_rows(words), tm) == [_scalar_encode(a, pair, h0) for a in words]


def test_image_set():
    tm = TransitionMap(PAIR_CG_AT, "x")
    assert image_set(1, tm) == {"CG", "GC"}
    assert image_set(2, tm) == {"CGAT", "CGTA", "GCTA", "GCAT"}
    for n in range(1, 9):
        assert len(image_set(n, tm)) == 2 ** n  # encoding is injective
    with pytest.raises(ValueError):
        image_set(17, tm)


def test_binary_distance_examples():
    assert binary_distance("11110", "01100", 2) == 6
    assert binary_distance("1010", "1010", 5) == 0
    assert binary_distance("10", "00", 3) == 6
    with pytest.raises(ValueError):
        binary_distance("10", "100", 2)


def test_min_binary_distance_examples():
    from dnacf.bincodes import enumerate_codewords, hamming_7_4, reed_muller_code

    assert min_binary_distance(enumerate_codewords(hamming_7_4()), 3) == 6
    assert min_binary_distance(enumerate_codewords(reed_muller_code(1, 3)), 1) == 2
    assert min_binary_distance(["00000", "11111"], 1) == 3
    with pytest.raises(ValueError):
        min_binary_distance(["0101"], 2)


def test_min_binary_distance_of_a_repeated_word_is_zero():
    assert min_binary_distance(["0110", "1011", "0110"], 3) == 0
    assert min_binary_distance([[0, 1, 1], [0, 1, 1]], 2) == 0
    assert min_binary_distance(["0110", "1011", "0111"], 3) == 3
    assert binary_distances(["0110", "1011", "0110"], 3) == (0, 6)


def test_min_binary_distance_reads_any_memory_order():
    rng = np.random.default_rng(5)
    mat = rng.integers(0, 2, size=(50, 23), dtype=np.uint8)
    fortran = np.asfortranarray(mat)
    assert (core.bit_row_keys(fortran) == core.bit_row_keys(mat)).all()
    assert binary_distances(fortran, 2) == binary_distances(mat, 2)
    assert min_binary_distance(fortran, 2) == min_binary_distance(mat, 2)
    # a matrix that is not 0/1 is refused, as the scalar distance refuses it
    bad = np.array([[0, 2, 1], [0, 0, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        binary_distance(bad[0], bad[1], 1)
    for scan in (binary_distances, min_binary_distance):
        with pytest.raises(ValueError, match="0/1"):
            scan(bad, 1)


def _flip_lead(a):
    return ("1" if a[0] == "0" else "0") + a[1:]


def test_pair_scans_match_scalar_distance():
    import random

    rng = random.Random(2024)
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    for k in range(200):
        n = rng.randint(1, 8)
        ell = rng.randint(1, 4)
        m = rng.randint(2, min(12, 1 << n))
        words = rng.sample(sorted(all_bits(n)), m)
        if k % 2 == 0 and _flip_lead(words[0]) not in words:
            words[1] = _flip_lead(words[0])  # a pair differing only in the leading bit
        dists = [binary_distance(a, b, ell) for i, a in enumerate(words) for b in words[i + 1:]]
        assert min_binary_distance(words, ell) == min(dists)
        comp = [binary_distance(a, _flip_lead(b), ell) for a in words for b in words]
        assert binary_distances(words, ell)[1] == min(d for d in comp if d > 0)
        if ell == 3:  # the same minimum, measured on the encodings
            enc = [encode(w, tm) for w in words]
            dna = [core.hamming_distance(x, core.complement(y)) for x in enc for y in enc]
            assert binary_distances(words, ell)[1] == min(d for d in dna if d > 0)


@pytest.mark.parametrize(
    "name, ell, expected",
    [("golay", 3, (12, 9)), ("rm15", 4, (32, 32)), ("hamming74", 3, (6, 3)), ("repetition5", 3, (9, 6))],
)
def test_pair_scans_pinned(name, ell, expected):
    from dnacf.bincodes import (
        enumerate_codewords, golay_23_12, hamming_7_4, reed_muller_code, repetition_code,
    )

    code = {
        "golay": golay_23_12,
        "rm15": lambda: reed_muller_code(1, 5),
        "hamming74": hamming_7_4,
        "repetition5": lambda: repetition_code(5),
    }[name]()
    words = enumerate_codewords(code)
    assert (min_binary_distance(words, ell), binary_distances(words, ell)[1]) == expected
    assert binary_distances(words, ell) == expected


def test_isometry_exhaustive_small():
    for pair in (PAIR_ATA_CGC, PAIR_CG_AT):
        tm = TransitionMap(pair, "x")
        for n in range(1, 5):
            enc = {a: encode(a, tm) for a in all_bits(n)}
            for a in enc:
                for b in enc:
                    assert binary_distance(a, b, pair.ell) == core.hamming_distance(enc[a], enc[b])


def test_isometry_random_samples_up_to_n12():
    import random

    rng = random.Random(77)
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    for n in range(7, 13):
        for _ in range(300):
            a = "".join(rng.choice("01") for _ in range(n))
            b = "".join(rng.choice("01") for _ in range(n))
            assert binary_distance(a, b, 3) == core.hamming_distance(encode(a, tm), encode(b, tm))


def test_metric_axioms_exhaustive_n5():
    ell = 2
    for n in (3, 5):
        words = list(all_bits(n))
        for a in words:
            assert binary_distance(a, a, ell) == 0
            for b in words:
                dab = binary_distance(a, b, ell)
                assert dab == binary_distance(b, a, ell)
                if a != b:
                    assert dab > 0
                for c in words:
                    assert dab <= binary_distance(a, c, ell) + binary_distance(c, b, ell)


def test_complement_theorem():
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    for n in range(1, 9):
        for a in all_bits(n):
            flipped = ("1" if a[0] == "0" else "0") + a[1:]
            assert encode(flipped, tm) == core.complement(encode(a, tm))


def test_block_recurrence_exhaustive_n10():
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    ell = 3
    for n in (3, 6, 10):
        for a in all_bits(n):
            u = encode(a, tm)
            blocks = [u[i * ell:(i + 1) * ell] for i in range(n)]
            for i in range(n - 2):
                assert (blocks[i + 2] == blocks[i]) == (a[i + 1] != a[i + 2])


def test_reverse_distance_bound_even_n():
    # for even n the distance from any encoding to a reversed encoding is at
    # least n times the smaller cross-class reverse distance
    for pair in (PAIR_ATA_CGC, BlockPair("ATCA", "CGAC")):
        tm = TransitionMap(pair, "x")
        x, y = pair.x, pair.y
        floor_per_block = min(
            core.hamming_distance(x, core.reverse(y)),
            core.hamming_distance(x, core.reverse_complement(y)),
        )
        for n in (2, 4, 6):
            strings = [encode(a, tm) for a in all_bits(n)]
            for u in strings:
                for v in strings:
                    assert core.hamming_distance(u, core.reverse(v)) >= n * floor_per_block


def test_fully_valid_pair_encode_guarantees_n8():
    # conflict level and the GC formula hold for every encoding; hairpin
    # freedom is NOT implied (no fully valid pair is hairpin safe, pinned in
    # the acceptance suite)
    for pair in (PAIR_ATA_CGC, BlockPair("ATCA", "CGAC"), BlockPair("GTCA", "CGAT")):
        tm = TransitionMap(pair, "x")
        ell = pair.ell
        gx, gy = core.gc_content(pair.x), core.gc_content(pair.y)
        balanced_split = (gx, gy) == (ell // 2, (ell + 1) // 2)
        for n in (2, 5, 8):
            for a in all_bits(n):
                u = encode(a, tm)
                assert is_conflict_free(u, min(2 * ell - 1, len(u) // 2))
                g = core.gc_content(u)
                assert g == encoded_gc_content(n, gx, gy, "x")
                if n % 2 == 0:
                    assert g == n * ell // 2  # GC sums to ell per block pair
                elif balanced_split:
                    # near balance at odd n needs the floor/ceil block split
                    assert g in ((n * ell) // 2, (n * ell + 1) // 2)


def test_validate_pair_examples():
    v = validate_pair(PAIR_ATA_CGC)
    assert v.fully_valid and v.conflict_safe and v.reverse_safe and v.gc_balanced
    assert not v.hairpin_safe  # palindromic blocks force a stem pair
    v = validate_pair(BlockPair("ATCA", "CGAC"))
    assert v.fully_valid
    assert not v.reverse_safe  # distance to the reverse-complement of y is 2
    v = validate_pair(BlockPair("ACT", "CTG"))
    assert not v.conflict_safe and not v.fully_valid
    assert v.reverse_safe and v.gc_balanced
    # TCT (in x·y) and AGA (in xc·yc) lie in different windows
    assert not v.hairpin_safe
    tm = TransitionMap(BlockPair("ACT", "CTG"))
    assert not is_rc_substring_free(encode("0000000", tm))


def _oracle_conflict_safe(pair):
    # the 16 strings (x y* x* y*) and (y x* y* x*), x* in {x,xc}, y* in {y,yc}
    xs = (pair.x, core.complement(pair.x))
    ys = (pair.y, core.complement(pair.y))
    strings = ([pair.x + "".join(w) for w in product(ys, xs, ys)]
               + [pair.y + "".join(w) for w in product(xs, ys, xs)])
    return all(is_conflict_free(s, 2 * pair.ell - 1) for s in strings)


def _oracle_validate_pair(pair):
    # the five flags by string predicates, one pair at a time
    x, y = pair.x, pair.y
    ell = pair.ell
    xc, yc = core.complement(x), core.complement(y)
    conflict_safe = _oracle_conflict_safe(pair)
    xs, ys = (x, xc), (y, yc)
    windows = ["".join(w) for w in (*product(xs, ys, xs), *product(ys, xs, ys))]
    kmers = {w[p:p + 3] for w in windows for p in range(3 * ell - 2)}
    hairpin_safe = not any(core.reverse_complement(k) in kmers for k in kmers)
    reverse_safe = (
        core.hamming_distance(x, core.reverse_complement(y)) == ell
        and core.hamming_distance(x, core.reverse(y)) == ell
    )
    gc_balanced = core.gc_content(x) + core.gc_content(y) == ell
    separated = (
        core.hamming_distance(x, y) == ell
        and core.hamming_distance(x, core.reverse(y)) == ell
        and core.hamming_distance(x, core.reverse_complement(x)) == ell
    )
    return PairValidation(
        conflict_safe=conflict_safe,
        hairpin_safe=hairpin_safe,
        reverse_safe=reverse_safe,
        gc_balanced=gc_balanced,
        fully_valid=separated and gc_balanced and conflict_safe,
    )


def _all_block_pairs(ell):
    words = ["".join(w) for w in product("ACGT", repeat=ell)]
    for x, y in product(words, repeat=2):
        try:
            yield BlockPair(x, y)
        except ValueError:
            continue


def _assert_flags_match_oracle(pair):
    got = validate_pair(pair)
    assert got == _oracle_validate_pair(pair), pair
    assert all(type(flag) is bool for flag in astuple(got)), got


def test_validate_pair_matches_string_oracle_exhaustive():
    pairs = [p for ell in (1, 2, 3) for p in _all_block_pairs(ell)]
    assert len(pairs) == 4200
    for pair in pairs:
        _assert_flags_match_oracle(pair)


@pytest.mark.parametrize("ell", [4, 5, 6, 7])
def test_validate_pair_matches_string_oracle_random(ell):
    # ell = 7 lies past the enumeration guard; validation still works there
    rng = random.Random(ell)
    pairs = []
    while len(pairs) < 300:
        x, y = ("".join(rng.choice("ACGT") for _ in range(ell)) for _ in range(2))
        if x != y and x != core.complement(y):
            pairs.append(BlockPair(x, y))
    # random pairs are rarely fully valid: add every enumerated one
    if ell <= 6:
        pairs += enumerate_valid_pairs(ell)
    for pair in pairs:
        _assert_flags_match_oracle(pair)


def test_hairpin_flag_is_sound():
    flagged = {}
    for ell in (1, 2, 3):
        pairs = [pair for pair in _all_block_pairs(ell) if validate_pair(pair).hairpin_safe]
        flagged[ell] = len(pairs)
        for pair in pairs:
            for h0 in BLOCK_NAMES:
                tm = TransitionMap(pair, h0)
                for n in range(1, 9):
                    for u in encode_all(_bit_rows(all_bits(n)), tm):
                        assert is_rc_substring_free(u), (pair, h0, u)
    assert flagged == {1: 0, 2: 16, 3: 32}


def test_enumerate_valid_pairs_counts_and_fixture():
    for ell, expect in ((3, 8), (4, 32), (5, 112)):
        pairs = enumerate_valid_pairs(ell)
        assert len(pairs) == expect
        assert {(p.x, p.y) for p in pairs} == set(reference.PAIR_TABLES[ell])
        assert pairs == sorted(pairs, key=lambda p: (p.x, p.y))
    # every enumerated pair is fully valid, so default_pair takes the first;
    # at ell = 2 there is none
    for ell, expect in ((1, 8), (3, 8), (4, 32), (5, 112)):
        pairs = enumerate_valid_pairs(ell)
        assert len(pairs) == expect and all(validate_pair(p).fully_valid for p in pairs)
        assert default_pair(ell) == pairs[0]
    assert enumerate_valid_pairs(2) == []
    with pytest.raises(ValueError):
        default_pair(2)
    with pytest.raises(ValueError):
        enumerate_valid_pairs(7)


def test_caption_conditions_differ_from_tables():
    # the caption's x-vs-reverse-complement-of-y reading excludes listed
    # pairs: the first published length-4 entry fails it
    x, y = "ATCA", "CGAC"
    assert core.hamming_distance(x, core.reverse_complement(y)) != 4
    assert (x, y) in reference.PAIR_TABLES[4]


def test_default_pair():
    assert (default_pair(3).x, default_pair(3).y) == ("ATA", "CGC")
    assert validate_pair(default_pair(4)).fully_valid


def test_encoded_gc_content():
    assert encoded_gc_content(4, 1, 2) == 6
    assert encoded_gc_content(3, 1, 2, "x") == 4
    assert encoded_gc_content(3, 1, 2, "y") == 5
    assert encoded_gc_content(2, 0, 0) == 0


def test_gc_formula_matches_measurement():
    for pair, h0 in ((PAIR_ATA_CGC, "x"), (PAIR_ATA_CGC, "y"), (PAIR_CG_AT, "xc")):
        tm = TransitionMap(pair, h0)
        gx, gy = core.gc_content(pair.x), core.gc_content(pair.y)
        for n in range(1, 6):
            for a in all_bits(n):
                assert core.gc_content(encode(a, tm)) == encoded_gc_content(
                    n, gx, gy, tm.start_class()
                )


def test_flip_distance_examples_and_measurement():
    assert flip_distance(7, 3, 1) == 21
    assert flip_distance(7, 3, 7) == 3
    assert flip_distance(7, 3, 2, 5) == 9
    with pytest.raises(ValueError):
        flip_distance(7, 3, 0)
    with pytest.raises(ValueError):
        flip_distance(7, 3, 3, 3)
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    for n in (1, 3, 5):
        for a in all_bits(n):
            u = encode(a, tm)
            for i in range(1, n + 1):
                b = a[:i - 1] + ("1" if a[i - 1] == "0" else "0") + a[i:]
                assert core.hamming_distance(u, encode(b, tm)) == flip_distance(n, 3, i)
                for j in range(i + 1, n + 1):
                    c = b[:j - 1] + ("1" if b[j - 1] == "0" else "0") + b[j:]
                    assert core.hamming_distance(u, encode(c, tm)) == flip_distance(n, 3, i, j)


def test_half_distance_bounds():
    assert half_distance_bounds(3, 7, 3) == (6, 18)
    assert half_distance_bounds(2, 5, 2) == (2, 8)
    assert half_distance_bounds(5, 5, 4) == (12, 12)
    tm = TransitionMap(PAIR_CG_AT, "x")
    for n in (2, 5):
        for a in all_bits(n):
            for b in all_bits(n):
                dh = sum(x != y for x, y in zip(a, b))
                lo, hi = half_distance_bounds(dh, n, 2)
                d = core.hamming_distance(encode(a, tm), encode(b, tm))
                assert lo <= d <= hi


def test_append_distance_cases():
    assert append_distance_bound(2, 1, 5) == 15
    assert append_distance_bound(3, 1, 5) == 15
    assert append_distance_bound(3, 0, 5) == 20
    assert append_distance_bound(0, 0, 7) == 0


def test_append_increment_matches_measurement():
    # the four cases encode the exact distance increment when the coefficient
    # is the block length
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    ell = 3
    for n in (1, 2, 4):
        for a in all_bits(n):
            for b in all_bits(n):
                base = core.hamming_distance(encode(a, tm), encode(b, tm))
                dh = sum(x != y for x, y in zip(a, b))
                for abit in "01":
                    for bbit in "01":
                        measured = core.hamming_distance(
                            encode(a + abit, tm), encode(b + bbit, tm)
                        )
                        incr = append_distance_bound(dh, int(abit != bbit), ell) - ell * dh
                        assert measured == base + incr


def test_printed_sigma_is_not_an_upper_bound():
    # with the printed coefficient the bound degenerates to zero for pairs at
    # full separation and is violated by the very first append
    sigma = pair_sigma(PAIR_ATA_CGC)
    assert sigma == 0
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    measured = core.hamming_distance(encode("00", tm), encode("01", tm))
    assert measured > append_distance_bound(0, 1, sigma)


def test_binary_condition_literal_rejects_everything():
    for n in range(4, 9):
        assert not any(
            binary_complete_conflict_condition(a, "literal") for a in all_bits(n)
        )


def test_binary_condition_corrected_is_not_sufficient():
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    assert binary_complete_conflict_condition("0010", "corrected")
    assert not encodes_to_complete_conflict_free("0010", tm)
    assert not binary_complete_conflict_condition("0000", "corrected")
    assert encodes_to_complete_conflict_free("0", tm)


def test_published_hamming_dna_listing():
    # the published encoded listing verifies at its measurable parameters but
    # was generated with transitions that contradict the published mapping
    # table (after a y-class block, bit 0 yields x there, not the complement)
    from dnacf.constraints import verify_code

    binary = [b for b, _ in reference.HAMMING_DNA_TABLE]
    dna = [d for _, d in reference.HAMMING_DNA_TABLE]
    from dnacf.bincodes import enumerate_codewords, hamming_7_4

    assert sorted(binary) == enumerate_codewords(hamming_7_4())
    rep = verify_code(dna, claimed_d=6)
    assert rep.min_hamming == 6
    assert rep.conflict_free_level == 5
    assert rep.gc_constant == 9
    tm = TransitionMap(PAIR_ATA_CGC, "x")
    table = dict(reference.HAMMING_DNA_TABLE)
    assert encode("0000000", tm) != table["0000000"]
    assert core.hamming_distance(encode("0000000", tm), encode("1111111", tm)) == \
        core.hamming_distance(table["0000000"], table["1111111"])


def test_conflict_and_rc_guarantees_for_valid_pairs():
    # every encoding through a fully valid pair keeps the promised conflict
    # level; hairpin freedom additionally needs the hairpin flag.  Six blocks
    # cover every encoding length: a repeat of t <= 2 ell - 1 bases fits in
    # five blocks from any offset, and since prefix parity is a bijection the
    # 64 six-bit words under h0 = x and y give every five-block window of
    # either start class with any complement pattern
    words = _bit_rows(all_bits(6))
    for ell in (1, 3, 4, 5):
        for pair in enumerate_valid_pairs(ell):
            for h0 in ("x", "y"):
                for u in encode_all(words, TransitionMap(pair, h0)):
                    assert is_conflict_free(u, 2 * ell - 1), (pair, h0, u)
