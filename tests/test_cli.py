import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dnacf
from dnacf import _kernels, factory, isomap, reference
from dnacf.cli import main, read_code_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_imports_only_stdlib_and_numpy():
    # the CLI's start-up cost: a fresh interpreter importing dnacf.cli may
    # load the standard library, NumPy and dnacf, and nothing else
    probe = (
        "import sys; before = set(sys.modules); import dnacf.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    src = str(Path(dnacf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert "dnacf" in out and "numpy" in out
    assert set(out) - set(sys.stdlib_module_names) == {"dnacf", "numpy"}


def test_seeds_command(tmp_path, capsys):
    out = tmp_path / "seeds.txt"
    code, _, _ = run(capsys, "seeds", "--n", "3", "--ell", "1", "--gc", "2", "--out", str(out))
    assert code == 0
    words = read_code_file(str(out))
    assert len(words) == 16
    header = out.read_text().splitlines()[0]
    assert header.startswith("# dnacf seeds")


def test_seeds_counts(tmp_path, capsys):
    for n, ell, g, expect in ((4, 2, 2, 48), (2, 1, 1, 8)):
        out = tmp_path / f"s{n}.txt"
        assert run(capsys, "seeds", "--n", str(n), "--ell", str(ell), "--gc", str(g),
                   "--out", str(out))[0] == 0
        assert len(read_code_file(str(out))) == expect


def test_seeds_memory_stays_bounded():
    # 602,880 seeds, 8.4 MB of text: written a block at a time, the words are
    # never all held as strings (that took 176 MiB).  The child reports its
    # own peak, VmHWM of its own address space: RUSAGE_CHILDREN would report
    # the largest child ever waited for, and RUSAGE_SELF keeps the peak of the
    # forking pytest process across execve
    probe = (
        "import sys; from dnacf.cli import main; "
        "code = main(['seeds', '--n', '13', '--ell', '1', '--gc', '6']); "
        "hwm = next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')); "
        "print(code, hwm, file=sys.stderr)"
    )
    src = str(Path(dnacf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    err = subprocess.run([sys.executable, "-c", probe], env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True, check=True, timeout=120).stderr
    code, hwm_kib = map(int, err.split())
    assert code == 0
    assert hwm_kib < 120 * 1024


def test_seeds_usage_error(capsys):
    code, _, err = run(capsys, "seeds", "--n", "4", "--ell", "3", "--gc", "2")
    assert code == 2
    assert "error" in err


def test_search_deterministic_json(tmp_path, capsys):
    args = ["search", "--n", "4", "--ell", "2", "--gc", "2",
            "--trials", "3000", "--seed", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["seed_set_size"] == 48
    assert doc["parameters"]["master_seed"] == 1


def test_search_empty_seed_set_errors(capsys):
    # no conflict-free string of length 4 over {A,T} survives block level 2
    code, _, err = run(capsys, "search", "--n", "4", "--ell", "2", "--gc", "0",
                       "--trials", "10")
    assert code == 2
    assert "empty seed set" in err


def test_search_reaches_published_cell(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(capsys, "search", "--n", "4", "--ell", "2", "--gc", "2",
               "--trials", "20000", "--seed", "1", "--out", str(out))[0] == 0
    doc = json.loads(out.read_text())
    assert doc["buckets"]["3"]["size"] >= 12


def test_verify_published_codes(tmp_path, capsys):
    for (n, M, d), words in reference.CODEWORD_TABLES.items():
        f = tmp_path / f"code_{n}_{M}_{d}.txt"
        f.write_text("\n".join(words) + "\n")
        code, out, _ = run(capsys, "verify", str(f), "--claim-distance", str(d),
                           "--claim-reverse", "--claim-rc",
                           "--claim-conflict", str(n // 2), "--claim-gc", str(n // 2))
        assert code == 0, (n, M, d)
        doc = json.loads(out)
        assert doc["report"]["min_hamming"] == d
        assert doc["report"]["size"] == M


def test_verify_failure_exit(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("AA\n")
    code, out, _ = run(capsys, "verify", str(f), "--claim-conflict", "1")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_parse_error_names_line(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("ACGT\nACGN\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert ":2:" in err


def test_verify_mixed_lengths(tmp_path, capsys):
    f = tmp_path / "mixed.txt"
    f.write_text("ACGT\nACG\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "missing.txt" in err and "Traceback" not in err


def test_pairs_command(tmp_path, capsys):
    for ell, expect in ((3, 8), (4, 32)):
        out = tmp_path / f"p{ell}.tsv"
        assert run(capsys, "pairs", "--ell", str(ell), "--out", str(out))[0] == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == expect
        assert all("\t" in l for l in lines)
        assert f"# count: {expect}" in out.read_text()


def test_encode_roundtrip(tmp_path, capsys):
    out = tmp_path / "ham.dna"
    code, _, _ = run(capsys, "encode", "--code", "hamming74", "--ell", "3",
                     "--pair", "ATA,CGC", "--out", str(out))
    assert code == 0
    report = json.loads((tmp_path / "ham.dna.report.json").read_text())
    assert report["pass"] is True
    measured = report["measured"]
    assert measured["min_hamming"] == 6
    # verify round-trips the measured values exactly
    code, vout, _ = run(capsys, "verify", str(out), "--claim-distance", "6")
    assert code == 0
    assert json.loads(vout)["report"] == measured


def test_encode_named_codes(tmp_path, capsys):
    out = tmp_path / "rep.dna"
    assert run(capsys, "encode", "--code", "repetition5", "--ell", "3",
               "--out", str(out))[0] == 0
    assert len(read_code_file(str(out))) == 2
    out2 = tmp_path / "rm.dna"
    assert run(capsys, "encode", "--code", "rm,1,3", "--ell", "3",
               "--out", str(out2))[0] == 0
    report = json.loads((tmp_path / "rm.dna.report.json").read_text())
    assert report["measured"]["gc_constant"] == 12
    assert report["measured"]["conflict_free_level"] >= 5


def test_encode_invalid_pair_names_flag(capsys):
    code, _, err = run(capsys, "encode", "--code", "hamming74", "--ell", "3",
                       "--pair", "ACT,CTG")
    assert code == 1
    assert "conflict_safe" in err


def test_encode_unknown_code(capsys):
    code, _, err = run(capsys, "encode", "--code", "mystery", "--ell", "3")
    assert code == 2


def test_tables_pairs(capsys):
    code, out, _ = run(capsys, "tables", "--which", "pairs")
    assert code == 0
    assert "MATCH" in out and "DIFF" not in out


def test_tables_params(capsys):
    code, out, _ = run(capsys, "tables", "--which", "params")
    assert code == 0
    assert "golay23" in out and "skipped" in out  # nordstrom-robinson row


def test_tables_bounds_small(capsys):
    code, out, _ = run(capsys, "tables", "--which", "bounds", "--n-max", "3",
                       "--trials", "4000")
    assert code == 0
    assert "n=2 ell=1" in out and "n=3 ell=1" in out


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DNACF_OUT_DIR", str(tmp_path))
    assert run(capsys, "seeds", "--n", "2", "--ell", "1", "--gc", "1",
               "--out", "rel/seeds.txt")[0] == 0
    assert (tmp_path / "rel" / "seeds.txt").exists()


def test_encode_empty_file_code(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("\n")
    code, _, err = run(capsys, "encode", "--code", f"file:{f}", "--ell", "3")
    assert code == 2
    assert "no codewords" in err


def test_search_distance_matrix_limit(monkeypatch, capsys):
    monkeypatch.setattr(_kernels, "DIST_MEMORY_LIMIT", 100)
    code, _, err = run(capsys, "search", "--n", "4", "--ell", "2", "--gc", "2", "--trials", "10")
    assert code == 2
    assert "MiB" in err


def test_encode_failed_claim_exits_1(capsys, monkeypatch):
    # a pair flag that over-claims hairpin safety: (ACT, CTG) is not safe,
    # and its encodings are not hairpin free
    def over_claiming(pair):
        return dataclasses.replace(isomap.validate_pair(pair), hairpin_safe=True)

    monkeypatch.setattr(factory, "validate_pair", over_claiming)
    code, out, err = run(capsys, "encode", "--code", "hamming74", "--ell", "3",
                         "--pair", "ACT,CTG", "--allow-partial")
    assert code == 1
    assert "hairpin_free" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("code", ["hamming74", "golay23", "rm,1,3"])
def test_encode_at_ell_1(code, capsys):
    # no ell = 1 pair is hairpin safe, so no build claims hairpin freedom
    status, out, err = run(capsys, "encode", "--code", code, "--ell", "1")
    assert status == 0, err
    assert len(out.splitlines()) > 2


def test_encode_non_binary_file_code(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("0000\n0102\n")
    code, out, err = run(capsys, "encode", "--code", f"file:{f}", "--ell", "3")
    assert code == 2
    assert "0102" in err and out == ""


@pytest.mark.parametrize("code", ["rm,1,25", "rm,1,20", "rm,1,12"])
def test_encode_refuses_oversized_codes(code, capsys):
    # the first two are refused before their generators are built, the last
    # before its codewords are enumerated
    status, out, err = run(capsys, "encode", "--code", code, "--ell", "3")
    assert status == 2
    assert "enumeration limit" in err and "Traceback" not in err
    assert out == ""


def test_verify_refuses_oversized_pair_scan(tmp_path, monkeypatch, capsys):
    f = tmp_path / "code.txt"
    f.write_text("ACGTAC\nTTGACA\nCAGTCA\n")
    monkeypatch.setattr(_kernels, "PAIR_WORK_LIMIT", 3 * 3 - 1)
    code, out, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "pair-work limit" in err
    assert out == ""


@pytest.mark.parametrize("n", [40, 17])
def test_seeds_refuses_large_space(n, capsys):
    code, _, err = run(capsys, "seeds", "--n", str(n), "--ell", "1", "--gc", str(n // 2))
    assert code == 2
    assert f"4**{n}" in err


# sha256 of stdout, recorded before the binary-side scans moved onto the
# prefix-parity kernels; any change here is a change of CLI output
GOLDEN_STDOUT = {
    ("encode", "--code", "hamming74", "--ell", "3", "--pair", "ATA,CGC"):
        "f1ba90b1cc3dbb3048bd8695119317b5c278d6a1aab618d7b0f3097cfcc59c59",
    ("encode", "--code", "rm,1,5", "--ell", "4", "--h0", "yc"):
        "d37684fd6c0623b68fc7d2c0ba0137c9189141caddbbe66aa0ac5b9840fdeec5",
    ("encode", "--code", "rm,2,4", "--ell", "4"):
        "93207e155583819cad868937ca6df58eefbc4924f980f3c4ffa8902b76d6cb26",
    ("encode", "--code", "repetition5", "--ell", "3"):
        "bef08a675c3512131955b49fea8343b3e20db44513acf659e1a411f3ca734511",
    ("tables", "--which", "params"):
        "3a8737ab4c3a762f1851b7b5483fd5906afb263233c498c497a024afbcc3af09",
    ("tables", "--which", "pairs"):
        "5488a991fbfe75019d023d52d71d0717fde5463a8436de61df2df23aafb2dc34",
    # recorded before the pair scans moved onto the packed kernel
    ("encode", "--code", "golay23", "--ell", "3", "--pair", "ATA,CGC"):
        "e135a81b12ee580fe44749924f5e8fef79c93cdf8891bfc0e7cd062aec55b373",
    # recorded before witnesses came straight from the trial loop
    ("search", "--n", "8", "--ell", "4", "--gc", "4", "--trials", "2000", "--seed", "3"):
        "2b835e97bc8d235ddc1a5577a9bf78c8bac53ada03147f2157897ebe5f2ee5b1",
    ("search", "--n", "10", "--ell", "5", "--gc", "5", "--trials", "400", "--seed", "3"):
        "a9d9ed4114860990c61ea0977eaaf0db614f9444f071b80fe3c9af68c491abfc",
    ("search", "--n", "6", "--ell", "3", "--gc", "3", "--trials", "1000", "--seed", "7", "--law", "uniform"):
        "535b5a93f01f1af195f7cb4540999c342345d247f9745b7ca4273ce337f7494e",
    ("search", "--n", "5", "--ell", "2", "--gc", "2", "--trials", "1000", "--seed", "12345", "--law", "dyadic"):
        "5556e3861aac3c699529855c092ecbca8a6c06e1ceb37ac5da7ece8cca661533",
    ("seeds", "--n", "8", "--ell", "4", "--gc", "4"):
        "b9769305d0942f5369b50caef12729109e2cc152e26047f3623e2fe03cb225fb",
    ("tables", "--which", "bounds", "--trials", "2000", "--seed", "1"):
        "6a7f4b09b01089c69334d10bb13ef76c2f5bca3c78b6cc8b2a58ecb409e01019",
    # recorded before the pair conditions moved onto the row kernels
    ("pairs", "--ell", "1"):
        "803ebd6b05db0e28e6d0abfb054c2e3c045548a5fb9f89f0be3bc9f2a790b777",
    ("pairs", "--ell", "2"):
        "f677a856e7512cb143c6ac87dbcdc188488e3548fd3908dfda3fd654692f20e1",
    ("pairs", "--ell", "6"):
        "75f5b0b21944525006271111a433ebfe62190ff35273e0f98d2179363220e7fa",
    # recorded before the batched Fisher-Yates became one value sort: the
    # benchmark's heaviest draw cell (about 1M draws), and the full law
    ("search", "--n", "8", "--ell", "4", "--gc", "4", "--trials", "1000", "--seed", "3", "--law", "uniform"):
        "89ec7ef586206210aba7a4958422ef4ba8e162a79bf82fd938a36f4040d54c4d",
    ("search", "--n", "8", "--ell", "4", "--gc", "4", "--trials", "20", "--seed", "3", "--law", "full"):
        "c47387bfbb6c19babf3596e971d4494fdd74ea30a5ab33a8dca47bcb5e183d90",
    # recorded before the reverse scan stopped at the distance floor: both
    # reverse verdicts fail in the report
    ("encode", "--code", "golay23", "--ell", "3", "--pair", "ATA,CGC", "--h0", "yc"):
        "f57824138d765188ae594b7fb81e94b9222b6b38f07783afa0542af18152103f",
    ("encode", "--code", "golay23", "--ell", "3", "--pair", "ATA,CGC", "--h0", "y"):
        "d9197ade3be752b82f64ff4be837359d987386c8760b9bcf5af0d5b6e5805ac0",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_golden_stdout(argv, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


# The fuzz draws stay small.  Left out, because they pass every guard yet
# start seconds to minutes of work: n = 10..16 for seeds and search (at
# n = 13..16 the seed sets reach millions of strings: seeds prints 1.9
# million at --n 14 --ell 1 --gc 7 in about 1.5 s and 500 MiB; search
# enumerates them before its seed-count bound refuses the distance matrix,
# 0.4 s at --n 15 --ell 6 --gc 7, and at n = 10..12 it builds a distance
# matrix of up to 423 MiB), pair enumeration at ell = 6 (16^6 pairs), RM(2,5),
# RM(3,4) and RM(4,4), whose encoded pair scans run from seconds to over a
# minute, and RM(0,20..23): two words of 2^20..2^23 bits, seconds to minutes
# of encoding and scans.
_GARBAGE = st.sampled_from(["", "x", "1.5", "-", "0x3", "ACGT", "\u00e9"])
_N = st.integers(-2, 9) | st.integers(17, 40)
_ELL = st.integers(-2, 5) | st.integers(7, 12)
_HEAVY_RM = {(2, 5), (3, 4), (4, 4), (0, 20), (0, 21), (0, 22), (0, 23)}
_CODES = st.one_of(
    st.just("hamming74"),
    st.integers(-1, 9).map(lambda k: f"repetition{k}"),
    st.tuples(st.integers(-1, 6), st.integers(-1, 5) | st.integers(20, 30))
    .filter(lambda rm: rm not in _HEAVY_RM).map(lambda rm: f"rm,{rm[0]},{rm[1]}"),
    st.sampled_from(["file:{dir}/code.txt", "file:{dir}/missing.txt"]),
)
_PAIRS = st.lists(st.text("ACGTN", max_size=6), min_size=1, max_size=3).map(",".join)


def _words(alphabet):
    # distinct words of one length
    return st.integers(1, 8).flatmap(
        lambda n: st.lists(st.text(alphabet, min_size=n, max_size=n), unique=True, max_size=10))


_LINES = st.one_of(
    _words("ACGT"), _words("01"), st.lists(st.text("01ACGTacgtN#\u00e9 ", max_size=8), max_size=10),
).map("\n".join)


def _opt(name, values, required=False):
    """``[name, value]``; an optional option may also be left out."""
    given_ = values.map(lambda v: [name, str(v)])
    return given_ if required else st.one_of(st.just([]), given_)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["seeds", "search", "verify", "pairs", "encode", "tables"]))
    argv = [command]
    if command in ("seeds", "search"):
        argv += draw(_opt("--n", _N, required=True))
        argv += draw(_opt("--ell", st.integers(-1, 6), required=True))
        argv += draw(_opt("--gc", st.integers(-1, 10), required=True))
        if command == "search":
            # the default of 100,000 trials would run for seconds
            argv += draw(_opt("--trials", st.integers(-5, 50), required=True))
            argv += draw(_opt("--seed", st.integers(-3, 2 ** 64 + 3)))
            argv += draw(_opt("--law", st.sampled_from(["uniform", "dyadic", "mixed", "full"])))
    elif command == "verify":
        argv.append(draw(st.sampled_from(["{dir}/code.txt"] * 4 + ["{dir}/missing.txt", "{dir}"])))
        for name in ("--claim-distance", "--claim-conflict", "--claim-gc"):
            argv += draw(_opt(name, st.integers(-2, 12)))
        argv += draw(st.lists(st.sampled_from(["--claim-reverse", "--claim-rc"]), max_size=2))
    elif command == "pairs":
        argv += draw(_opt("--ell", _ELL, required=True))
    elif command == "encode":
        argv += draw(_opt("--code", _CODES, required=True))
        argv += draw(_opt("--ell", _ELL, required=True))
        argv += draw(_opt("--pair", _PAIRS))
        argv += draw(_opt("--h0", st.sampled_from(isomap.BLOCK_NAMES)))
        argv += draw(st.sampled_from([[], ["--allow-partial"]]))
    else:
        argv += draw(_opt("--which", st.sampled_from(["bounds", "pairs", "params"]), required=True))
        # the defaults (n <= 6, 100,000 trials) would run for seconds, too
        argv += draw(_opt("--n-max", st.integers(-1, 4), required=True))
        argv += draw(_opt("--trials", st.integers(-5, 20), required=True))
        argv += draw(_opt("--ell", _ELL))
        argv += draw(_opt("--law", st.sampled_from(["uniform", "mixed"])))
    if draw(st.integers(0, 3)) == 0:  # one token in a quarter of the cases is garbage
        argv[draw(st.integers(1, len(argv) - 1))] = draw(_GARBAGE)
    return argv, draw(_LINES)


@given(_argv())
def test_cli_fuzz_exit_codes(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "code.txt").write_text(text, encoding="utf-8")
        argv = [a.replace("{dir}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
