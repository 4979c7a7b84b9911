#!/usr/bin/env python3
"""End-to-end benchmark of the dnacf command line: search, encode, verify.

    python3 perfbench/run.py --workload search-bounds --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a dnacf source checkout; the package is imported from
its ``src/`` directory and nowhere else.  Every operation is a ``dnacf``
command run in this process through ``dnacf.cli.main(argv)`` on one thread.
The run repeats whole rounds of its workload's commands until ``--seconds``
would be exceeded, checks every command's output against the oracles in
``oracles.py``, and prints each metric by name and unit.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each round
twice, untraced and then traced (see ``spans.py``), and reports the
per-layer metrics, including the tracing overhead.  Results and traces are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer, layer_table, trial_us

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 7
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import dnacf.cli; print('ready', flush=True)"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "codewords_per_s": "codewords/s"}

#: per-layer metric -> (layer, field of spans.layer_table)
LAYER_TIMES = {
    "kernels.run_trials_s": ("kernels.run_trials", "total_s"),
    "kernels.enumerate_seed_values_s": ("kernels.enumerate_seed_values", "total_s"),
    "search.orbit_partition_s": ("search.orbit_partition", "total_s"),
    "kernels.replay_trial_s": ("kernels.replay_trial", "total_s"),
    "bincodes.enumerate_codewords_s": ("bincodes.enumerate_codewords", "total_s"),
    "isomap.enumerate_valid_pairs_s": ("isomap.enumerate_valid_pairs", "total_s"),
    "isomap.encode_s": ("isomap.encode", "total_s"),
    "isomap.min_binary_distance_s": ("isomap.min_binary_distance", "total_s"),
    "isomap.max_binary_distance_s": ("isomap.max_binary_distance", "total_s"),
    "factory.build_dna_code_s": ("factory.build_dna_code", "total_s"),
    "factory.build_dna_code_self_s": ("factory.build_dna_code", "self_s"),
    "constraints.verify_code_s": ("constraints.verify_code", "total_s"),
    "constraints.verify_code_self_s": ("constraints.verify_code", "self_s"),
    "constraints.conflict_free_level_s": ("constraints.conflict_free_level", "total_s"),
    "constraints.is_rc_substring_free_s": ("constraints.is_rc_substring_free", "total_s"),
    "core.gc_content_s": ("core.gc_content", "total_s"),
    "core.codes_matrix_s": ("core.codes_matrix", "total_s"),
    "kernels.min_pairwise_u8_s": ("kernels.min_pairwise_u8", "total_s"),
    "kernels.min_cross_u8_s": ("kernels.min_cross_u8", "total_s"),
    "cli.read_code_file_s": ("cli.read_code_file", "total_s"),
    "cli.emit_s": ("cli.emit", "total_s"),
}
TRIAL_CELLS = [f"n{n}_{law}" for n, _, law, _ in workloads.SearchBounds.CELLS]
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{f"kernels.trial_us.{cell}": "us" for cell in TRIAL_CELLS},
    "isomap.binary_pairs": "count",
    "cli.search.trials_per_s": "trials/s",
    "trace.overhead_s": "s",
}


def load_dnacf():
    """Import dnacf from this checkout's src/, or stop."""
    package = SRC / "dnacf" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a dnacf source checkout")
    sys.path.insert(0, str(SRC))
    import dnacf
    import dnacf.cli
    import dnacf.reference

    if Path(dnacf.__file__).resolve() != package.resolve():
        sys.exit(f"error: dnacf imported from {dnacf.__file__}, not from {SRC}")
    return dnacf


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until dnacf.cli is imported,
    once per repetition."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"error: set-up probe exited with {child.returncode}")
    return times


def environment(dnacf, loadavg) -> dict:
    import numpy

    return {
        "numba_enabled": bool(dnacf._kernels.NUMBA_ENABLED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in loadavg],
        "machine": platform.machine(),
    }


def clear_caches() -> None:
    """Empty every functools cache in dnacf, since each real CLI command
    starts in a fresh process (``isomap.default_pair`` caches the pair
    enumeration, for one)."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dnacf":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_op(dnacf, argv: list[str], tracer=None) -> tuple[int | None, float, str]:
    """Run one command in this process; returns (exit code or None if it
    raised, seconds, captured output)."""
    clear_caches()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = dnacf.cli.main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", dnacf.cli.main, argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this operation, not the run
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


def run_round(dnacf, workload, k: int, tracer=None) -> dict:
    result = {"attempted": 0, "failed": 0, "failures": [], "problems": [],
              "command_s": 0.0, "op_s": [], "codewords": 0, "trials": 0}
    for op in workload.ops(k):
        code, elapsed, output = run_op(dnacf, op.argv, tracer)
        result["attempted"] += 1
        result["command_s"] += elapsed
        result["op_s"].append(elapsed)
        if code is None or code == 2:
            result["failed"] += 1
            result["failures"].append(f"{' '.join(op.argv)}: exit {code}: {output[-500:]}")
            continue
        result["codewords"] += op.codewords
        result["trials"] += op.trials
        try:
            problems = op.check(code)
        except Exception as exc:  # unreadable or malformed output is a wrong output
            problems = [f"check raised {exc!r}"]
        result["problems"] += [f"{' '.join(op.argv)}: {p}" for p in problems]
    return result


def measure(dnacf, workload, seconds: float, traced: bool) -> tuple[list, list]:
    """Whole rounds until the next one would end after ``seconds``; with
    tracing, every round is repeated under the tracer."""
    plain, with_spans = [], []
    start = time.perf_counter()
    k = 0
    while True:
        plain.append(run_round(dnacf, workload, k))
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                with_spans.append((run_round(dnacf, workload, k, tracer), tracer.spans))
            finally:
                tracer.restore()
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return plain, with_spans


def end_to_end(rounds: list[dict], setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["command_s"] for r in rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codewords_per_s": statistics.median(r["codewords"] / r["command_s"] for r in rounds),
    }


def per_layer(plain: list[dict], traced: list[tuple]) -> tuple[dict, list]:
    tables = [layer_table(spans) for _, spans in traced]
    metrics = {}
    for name, (layer, field) in LAYER_TIMES.items():
        metrics[name] = statistics.median(t.get(layer, {}).get(field, 0.0) for t in tables)
    per_trial = [trial_us(spans) for _, spans in traced]
    for cell in TRIAL_CELLS:
        metrics[f"kernels.trial_us.{cell}"] = statistics.median(p.get(cell, 0.0) for p in per_trial)
    metrics["isomap.binary_pairs"] = statistics.median(
        sum(t.get(layer, {}).get("count", 0) for layer in ("isomap.min_binary_distance", "isomap.max_binary_distance"))
        for t in tables
    )
    metrics["cli.search.trials_per_s"] = statistics.median(r["trials"] / r["command_s"] for r in plain)
    metrics["trace.overhead_s"] = statistics.median(
        t["command_s"] - p["command_s"] for p, (t, _) in zip(plain, traced)
    )
    return metrics, tables


def write_trace(path: Path, traced: list[tuple], tables: list[dict]) -> None:
    names = sorted({s[0] for _, spans in traced for s in spans})
    index = {name: i for i, name in enumerate(names)}
    rounds = []
    for (_, spans), table in zip(traced, tables):
        t0 = spans[0][1] if spans else 0.0
        rounds.append({
            "layers": table,
            # [name index, start, end, parent span index, tag], seconds from the round's start
            "spans": [[index[n], round(s - t0, 7), round(e - t0, 7), p, tag]
                      for n, s, e, p, tag in spans],
        })
    path.write_text(json.dumps({"names": names, "rounds": rounds}, separators=(",", ":")) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    loadavg = os.getloadavg()
    dnacf = load_dnacf()
    setup = [] if trace else measure_setup()
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, out, dnacf)
    plain, traced = measure(dnacf, workload, seconds, trace)
    rounds = plain + [r for r, _ in traced]
    problems = [p for r in rounds for p in r["problems"]]
    failures = [f for r in rounds for f in r["failures"]]
    if trace:
        metrics, tables = per_layer(plain, traced)
        units = PER_LAYER_UNITS
        write_trace(out / f"trace-seed{seed}.json", traced, tables)
    else:
        metrics, units = end_to_end(plain, setup), END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(dnacf, loadavg), "rounds": len(plain),
              "round_op_s": [r["op_s"] for r in plain], "setup_s": setup,
              "problems": problems[:50], "failures": failures[:50], **result}
    (out / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# {name} seed {seed}: {len(plain)} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed, {len(problems)} check problems")
    for line in [f"failure: {f}" for f in failures[:5]] + [f"problem: {p}" for p in problems[:20]]:
        print(f"# {line}")
    for key, metric in result["metrics"].items():
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']}")
    return result


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
