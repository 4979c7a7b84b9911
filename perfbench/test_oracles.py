"""The benchmark's oracles accept dnacf's correct outputs and reject planted
faults.  Run with ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from dnacf import bincodes, cli, reference  # noqa: E402


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _flip(word: str, i: int) -> str:
    return word[:i] + {"A": "C", "C": "A", "G": "T", "T": "G"}[word[i]] + word[i + 1:]


@pytest.fixture(scope="module")
def rm_build(tmp_path_factory):
    out = tmp_path_factory.mktemp("encode") / "rm.dna"
    assert _cli("encode", "--code", "rm,1,4", "--ell", "3", "--pair", "ATA,CGC", "--out", str(out)) == 0
    words = workloads._read_code(out)
    report = json.loads(out.with_suffix(".dna.report.json").read_text())
    return words, report


def _check_rm(words, report):
    return oracles.check_encode(words, report, ("ATA", "CGC"), "x", 32,
                                lambda b: oracles.is_rm1_codeword(b, 4), 3 * 4)


def test_encode_accepts_build(rm_build):
    assert _check_rm(*rm_build) == []


@pytest.mark.parametrize("position", [0, 7, 47])
def test_encode_rejects_one_flipped_base(rm_build, position):
    words, report = rm_build
    planted = list(words)
    planted[5] = _flip(planted[5], position)
    assert _check_rm(planted, report)


def test_encode_rejects_report_off_by_one(rm_build):
    words, report = rm_build
    planted = json.loads(json.dumps(report))
    planted["measured"]["min_hamming"] += 1
    assert _check_rm(words, planted)


def test_golay_membership_matches_generator():
    words = bincodes.enumerate_codewords(bincodes.golay_23_12())
    assert all(oracles.is_golay_codeword(w) for w in words)
    flipped = [w[:3] + str(1 - int(w[3])) + w[4:] for w in words[:64]]
    assert not any(oracles.is_golay_codeword(w) for w in flipped)


def test_table_pair_conditions():
    assert all(oracles.is_table_pair(x, y) for ell in (3, 4, 5) for x, y in reference.PAIR_TABLES[ell])
    assert not oracles.is_table_pair("ATA", "GCC")


def test_decode_inverts_the_block_table():
    # 0 -> x, then bit 0: x -> y, bit 1: y -> x (the complement of xc)
    assert oracles.decode("ATACGCATA", "ATA", "CGC", "x") == "001"
    assert oracles.decode("ATACGCATT", "ATA", "CGC", "x") is None


@pytest.fixture(scope="module")
def search_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("search") / "s.json"
    assert _cli("search", "--n", "4", "--ell", "2", "--gc", "2", "--trials", "400",
                "--seed", "5", "--out", str(out)) == 0
    return json.loads(out.read_text())


def test_search_accepts_output(search_doc):
    assert oracles.check_search(search_doc, 4, 2, 2, 400, 5, "mixed") == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_search_rejects_witness_with_one_word_swapped(search_doc, d):
    planted = json.loads(json.dumps(search_doc))
    code = planted["buckets"][str(d)]["code"]
    others = ["".join(p) for p in product("ACGT", repeat=4) if "".join(p) not in code]
    seeds = [w for w in others if oracles.gc(w) == 2 and oracles.conflict_level(w) >= 2]
    code[0] = (seeds or others)[0]
    assert oracles.check_search(planted, 4, 2, 2, 400, 5, "mixed")


def test_search_rejects_size_off_by_one(search_doc):
    planted = json.loads(json.dumps(search_doc))
    planted["buckets"]["2"]["size"] += 1
    assert oracles.check_search(planted, 4, 2, 2, 400, 5, "mixed")


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    words = reference.CODEWORD_TABLES[(6, 20, 4)]
    (tmp / "code.txt").write_text("\n".join(words) + "\n")
    claims = {"distance": 4, "conflict": 3, "gc": 3}
    code = _cli("verify", str(tmp / "code.txt"), "--claim-distance", "4", "--claim-reverse",
                "--claim-rc", "--claim-conflict", "3", "--claim-gc", "3", "--out", str(tmp / "r.json"))
    doc = json.loads((tmp / "r.json").read_text())
    return doc, code, oracles.verify_fields(list(words), 4), claims


def test_verify_accepts_report(verify_run):
    doc, code, fields, claims = verify_run
    assert code == 0
    assert oracles.check_verify(doc, code, fields, claims) == []


@pytest.mark.parametrize("field", ["min_hamming", "conflict_free_level", "gc_constant", "size"])
def test_verify_rejects_field_off_by_one(verify_run, field):
    doc, code, fields, claims = verify_run
    planted = json.loads(json.dumps(doc))
    planted["report"][field] += 1
    assert oracles.check_verify(planted, code, fields, claims)


def test_verify_rejects_flipped_boolean(verify_run):
    doc, code, fields, claims = verify_run
    planted = json.loads(json.dumps(doc))
    planted["report"]["reverse_ok"] = not planted["report"]["reverse_ok"]
    assert oracles.check_verify(planted, code, fields, claims)


def test_oracle_scans_match_pure_python():
    rng = random.Random(3)
    words = sorted({"".join(rng.choice("ACGT") for _ in range(40)) for _ in range(60)})
    naive = min(oracles.hamming(a, b) for i, a in enumerate(words) for b in words[i + 1:])
    assert oracles.min_distance(words) == naive
    rev = [w[::-1] for w in words]
    naive_cross = min(d for a in words for b in rev if (d := oracles.hamming(a, b)) > 0)
    assert oracles.min_cross_distance(words, rev) == naive_cross


def test_generated_code_has_its_properties():
    words = workloads.generated_code(random.Random(1), 12, 200, 3, 2)
    present = set(words)
    assert len(present) == len(words) >= 200
    assert all(oracles.reverse(w) in present and oracles.complement(w) in present for w in words)
    assert all(oracles.gc(w) == 6 and oracles.conflict_level(w) >= 2 for w in words)
    assert min(oracles.hamming(a, b) for i, a in enumerate(words) for b in words[i + 1:]) >= 3


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
