"""Command-line interface: seed sets, bound search, verification, pair
tables, encoding, and reproduction of the published tables.

Exit codes: 0 success, 1 a claimed constraint failed, 2 usage or parse error.
Text outputs carry their run manifest as ``#`` header lines; JSON outputs
embed it under ``"manifest"``.  Output paths resolve against DNACF_OUT_DIR
when set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Iterable

from . import __version__, _kernels, bincodes, factory, isomap, reference, search
from .constraints import DnaCode, verify_code
from .core import clean, unpack_all

_BLOCK = 1 << 16  # lines per write; seeds are also decoded a block at a time


def _out_path(name: str | None) -> Path | None:
    if name is None:
        return None
    p = Path(name)
    base = os.environ.get("DNACF_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _manifest(args: argparse.Namespace, exclude=("func", "out")) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in exclude and v is not None}
    return {"command": params.pop("command"), "parameters": params, "version": __version__}


def _emit_lines(path: Path | None, manifest: dict, lines: Iterable[str]) -> None:
    # one write per block of lines, so a generator is never held whole
    header = [f"# dnacf {manifest['command']} (version {manifest['version']})"]
    header += (f"# {k}: {v}" for k, v in sorted(manifest["parameters"].items()))
    lines = iter(lines)
    with contextlib.nullcontext(sys.stdout) if path is None else path.open("w") as out:
        out.write("\n".join(header) + "\n")
        while block := list(islice(lines, _BLOCK)):
            out.write("\n".join(block) + "\n")


def _emit_json(path: Path | None, obj: dict) -> None:
    payload = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(payload)
    else:
        path.write_text(payload)


def read_code_file(path: str) -> list[str]:
    words = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words.append(clean(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return words


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_seeds(args) -> int:
    spec = search.SeedSetSpec(args.n, args.ell, args.gc)
    vals = _kernels.enumerate_seed_values(spec.n, spec.ell, spec.g)
    manifest = _manifest(args)
    manifest["parameters"]["count"] = int(vals.size)
    words = (w for i in range(0, vals.size, _BLOCK) for w in unpack_all(vals[i : i + _BLOCK], spec.n))
    _emit_lines(_out_path(args.out), manifest, words)
    return 0


def cmd_search(args) -> int:
    spec = search.SeedSetSpec(args.n, args.ell, args.gc)
    config = search.SearchConfig(
        trials=args.trials, master_seed=args.seed, subset_law=args.law
    )
    t0 = time.time()
    table = search.random_construction(spec, config)
    print(f"search finished in {time.time() - t0:.1f}s", file=sys.stderr)
    doc = table.to_dict()
    doc["manifest"] = {"command": args.command, "version": __version__}
    _emit_json(_out_path(args.out), doc)
    return 0


def cmd_verify(args) -> int:
    code = DnaCode(tuple(read_code_file(args.code_file)))
    report = verify_code(code, claimed_d=args.claim_distance)
    doc = {
        "manifest": _manifest(args, exclude=("func", "out", "code_file")),
        "file": args.code_file,
        "report": report.to_dict(),
    }
    ok = True
    if args.claim_distance is not None:
        ok &= report.min_hamming >= args.claim_distance
    if args.claim_reverse:
        ok &= report.reverse_ok
    if args.claim_rc:
        ok &= report.reverse_complement_ok
    if args.claim_conflict is not None:
        ok &= report.conflict_free_level >= args.claim_conflict
    if args.claim_gc is not None:
        ok &= report.gc_constant == args.claim_gc
    doc["pass"] = bool(ok)
    _emit_json(_out_path(args.out), doc)
    return 0 if ok else 1


def cmd_pairs(args) -> int:
    pairs = isomap.enumerate_valid_pairs(args.ell)
    manifest = _manifest(args)
    lines = [f"{p.x}\t{p.y}" for p in pairs]
    lines.append(f"# count: {len(pairs)}")
    _emit_lines(_out_path(args.out), manifest, lines)
    return 0


def _named_code(name: str) -> bincodes.BinaryCode:
    if name == "hamming74":
        return bincodes.hamming_7_4()
    if name == "golay23":
        return bincodes.golay_23_12()
    if name.startswith("repetition"):
        return bincodes.repetition_code(int(name[len("repetition"):]))
    if name.startswith("rm,"):
        _, r, m = name.split(",")
        return bincodes.reed_muller_code(int(r), int(m))
    if name.startswith("file:"):
        path = name[len("file:"):]
        words = [w.strip() for w in Path(path).read_text().split() if w.strip()]
        if not words:
            raise ValueError(f"{path}: no codewords")
        return bincodes.BinaryCode(name=path, n=len(words[0]), words=tuple(words))
    raise ValueError(
        f"unknown code {name!r}; use hamming74, golay23, repetitionN, rm,R,M, or file:PATH"
    )


def cmd_encode(args) -> int:
    code = _named_code(args.code)
    if args.pair:
        x, y = args.pair.split(",")
        pair = isomap.BlockPair(x, y)
    else:
        pair = isomap.default_pair(args.ell)
    if pair.ell != args.ell:
        print(f"error: pair length {pair.ell} does not match --ell {args.ell}", file=sys.stderr)
        return 2
    require = () if args.allow_partial else ("conflict", "gc_balanced")
    try:
        dna, report = factory.build_dna_code(code, pair, h0=args.h0, require=require)
    except (factory.BuildRefusedError, factory.BuildFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = _manifest(args)
    out = _out_path(args.out)
    code_path = out if out else None
    _emit_lines(code_path, manifest, list(dna.words))
    doc = report.to_dict()
    doc["manifest"] = manifest
    report_path = out.with_suffix(out.suffix + ".report.json") if out else None
    _emit_json(report_path, doc)
    return 0 if report.passed else 1


def cmd_tables(args) -> int:
    if args.which == "pairs":
        return _table_pairs(args)
    if args.which == "bounds":
        return _table_bounds(args)
    return _table_params(args)


def _table_pairs(args) -> int:
    ok = True
    print("block-pair table reproduction (computed vs published)")
    for ell in (3, 4, 5):
        got = {(p.x, p.y) for p in isomap.enumerate_valid_pairs(ell)}
        want = set(reference.PAIR_TABLES[ell])
        match = got == want
        ok &= match
        print(f"  ell={ell}: computed {len(got)} published {len(want)} "
              f"{'MATCH' if match else 'DIFF'}")
    return 0 if ok else 1


def _table_bounds(args) -> int:
    print("lower-bound table reproduction")
    print("cell provenance: seed = deterministic seed-set size; extremal = closed")
    print("form at d = n; search = randomized construction (lower bound)")
    ok = True
    for (n, ell), row in sorted(reference.BOUND_TABLE.items()):
        if n > args.n_max:
            continue
        spec = search.SeedSetSpec(n, ell, n // 2)
        table = search.random_construction(
            spec, search.SearchConfig(trials=args.trials, master_seed=args.seed, subset_law=args.law)
        )
        cells = []
        for d in range(1, n + 1):
            want = row[d - 1]
            if d == 1:
                got, prov = table.seed_set_size, "seed"
            elif d == n:
                got, prov = search.extremal_size(n), "extremal"
            else:
                got, prov = table.best_size(d), "search"
            mark = "=" if got == want else ("+" if got > want else "-")
            if prov != "search" and got != want:
                ok = False
            cells.append(f"d{d}:{got}{mark}({prov})")
        print(f"  n={n} ell={ell}: " + " ".join(cells))
    print("legend: = matches published, - below (search shortfall), + above")
    return 0 if ok else 1


def _table_params(args) -> int:
    ell = args.ell
    pair = isomap.default_pair(ell)
    print(f"encoded-code parameters at ell={ell}, pair ({pair.x},{pair.y})")
    builders = {
        "repetition5": lambda: bincodes.repetition_code(5),
        "hamming74": bincodes.hamming_7_4,
        "rm(1,3)": lambda: bincodes.reed_muller_code(1, 3),
        "golay23": bincodes.golay_23_12,
    }
    ok = True
    for row in reference.PARAMS_TABLE:
        name = row["name"]
        if name not in builders:
            print(f"  {name} {row['printed']}: skipped ({row.get('note', 'out of scope')})")
            continue
        code = builders[name]()
        words = bincodes.codeword_matrix(code)
        d = isomap.min_binary_distance(words, ell)
        mult = d // ell if d % ell == 0 else d / ell
        published = row["distance_mult"]
        note = f"  [published row: {row['note']}]" if "note" in row else ""
        match = mult == published and len(words) == row["size"]
        ok &= match or "note" in row
        print(f"  {name} {row['printed']}: length {code.n}*ell size {len(words)} "
              f"distance {mult}*ell (published {published}*ell, size {row['size']})"
              f" {'OK' if match else 'DIFF'}{note}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dnacf", description=__doc__)
    ap.add_argument("--version", action="version", version=f"dnacf {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seeds", help="enumerate the conflict-free, fixed-GC seed set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--gc", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_seeds)

    p = sub.add_parser("search", help="randomized closure search for code-size lower bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--gc", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--law", default="mixed", choices=sorted(search._kernels.LAW_CODES))
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="measure the constraint profile of a code file")
    p.add_argument("code_file")
    p.add_argument("--claim-distance", type=int)
    p.add_argument("--claim-reverse", action="store_true",
                   help="require the reverse constraint at the distance floor")
    p.add_argument("--claim-rc", action="store_true",
                   help="require the reverse-complement constraint at the distance floor")
    p.add_argument("--claim-conflict", type=int)
    p.add_argument("--claim-gc", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pairs", help="enumerate valid block pairs for an encoder length")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("encode", help="encode a binary code into a DNA code")
    p.add_argument("--code", required=True,
                   help="hamming74 | golay23 | repetitionN | rm,R,M | file:PATH")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--pair", help="X,Y blocks; default: first fully valid pair")
    p.add_argument("--h0", default="x", choices=["x", "xc", "y", "yc"])
    p.add_argument("--allow-partial", action="store_true",
                   help="build even when the pair lacks conflict/GC flags")
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("tables", help="reproduce published tables and diff against fixtures")
    p.add_argument("--which", required=True, choices=["bounds", "pairs", "params"])
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--law", default="mixed", choices=sorted(search._kernels.LAW_CODES))
    p.add_argument("--ell", type=int, default=3)
    p.set_defaults(func=cmd_tables)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, search.InstanceTooLargeError,
            bincodes.CodeTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
