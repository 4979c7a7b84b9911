"""The benchmark's workloads: their inputs, their CLI operations and the
checks on each operation's output.

A workload is prepared once per run (inputs generated from the seed, checks
precomputed) and then yields rounds: round k is a fixed list of ``dnacf``
command lines.  Every operation's check reads the files the command wrote
and returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Op:
    argv: list[str]
    #: exit code -> problems; called only when the command returned
    check: Callable[[int], list[str]]
    #: codewords this command searches over, builds or verifies
    codewords: int
    #: trials this command runs (search only)
    trials: int = 0


def _fresh(path: Path) -> str:
    """An output path with no stale file in it, so a check never reads an
    earlier command's output."""
    path.unlink(missing_ok=True)
    return str(path)


def _read_code(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    return [w for w in (line.strip() for line in lines) if w and not w.startswith("#")]


class SearchBounds:
    """Closure search on three (n, ell, gc) cells under the mixed law and
    one cell under the uniform law.  Round k gets its own master seeds,
    derived from the benchmark seed, so longer runs average over more
    trial streams."""

    name = "search-bounds"
    #: (n, ell, law, trials)
    CELLS = ((4, 2, "mixed", 10000), (8, 4, "mixed", 2000), (10, 5, "mixed", 400), (8, 4, "uniform", 1000))

    def __init__(self, seed: int, out: Path, dnacf) -> None:
        self.seed, self.out = seed, out

    def master_seed(self, k: int, cell: int) -> int:
        return random.Random(f"search:{self.seed}:{k}:{cell}").getrandbits(62)

    def ops(self, k: int) -> list[Op]:
        ops = []
        for i, (n, ell, law, trials) in enumerate(self.CELLS):
            path = self.out / f"search-n{n}-{law}.json"
            master = self.master_seed(k, i)
            argv = ["search", "--n", str(n), "--ell", str(ell), "--gc", str(n // 2),
                    "--trials", str(trials), "--seed", str(master), "--law", law,
                    "--out", _fresh(path)]

            def check(code, path=path, n=n, ell=ell, law=law, trials=trials, master=master):
                if code != 0:
                    return [f"exit code {code}"]
                doc = json.loads(path.read_text())
                return oracles.check_search(doc, n, ell, n // 2, trials, master, law)

            ops.append(Op(argv, check, oracles.PUBLISHED_D1[(n, ell)], trials))
        return ops


class EncodeGolay:
    """The Golay [23,12,7] code through the pair (ATA, CGC) at ell = 3, and
    RM(1,5) through the default pair at ell = 4 with a seed-chosen initial
    block, so pair enumeration runs too."""

    name = "encode-golay"
    RM_ELL = 4

    def __init__(self, seed: int, out: Path, dnacf) -> None:
        self.out = out
        self.h0 = random.Random(f"encode:{seed}").choice(("x", "xc", "y", "yc"))
        self.verified: dict[bytes, list[str]] = {}

    def ops(self, k: int) -> list[Op]:
        golay = self._op(["--code", "golay23", "--ell", "3", "--pair", "ATA,CGC"], "golay",
                         ("ATA", "CGC"), "x", 4096, oracles.is_golay_codeword, 4 * 3)
        # RM(r=1, m=5): 2^(m+1) words at encoded distance ell * 2^(m-r-1)
        rm = self._op(["--code", "rm,1,5", "--ell", str(self.RM_ELL), "--h0", self.h0], "rm15",
                      None, self.h0, 64, lambda bits: oracles.is_rm1_codeword(bits, 5),
                      self.RM_ELL * 2 ** (5 - 1 - 1))
        return [golay, rm]

    def _op(self, args, stem, pair, h0, size, member, distance) -> Op:
        path = self.out / f"{stem}.dna"
        report_path = self.out / f"{stem}.dna.report.json"
        _fresh(report_path)
        argv = ["encode", *args, "--out", _fresh(path)]

        def check(code):
            if code != 0:
                return [f"exit code {code}"]
            raw = path.read_bytes() + report_path.read_bytes()
            if raw not in self.verified:  # identical output is checked once per run
                report = json.loads(report_path.read_text())
                used = pair or tuple(report.get("pair", ()))
                self.verified[raw] = oracles.check_encode(
                    _read_code(path), report, used, h0, size, member, distance
                )
            return self.verified[raw]

        return Op(argv, check, size)


class VerifyLibrary:
    """``dnacf verify`` with true claims on the seven published codeword
    tables and on generated codes of short words (n = 12..24, GC n/2,
    conflict-free at ell = 2, closed under reverse and complement, minimum
    distance at least 3)."""

    name = "verify-library"
    GENERATED = ((12, 1200), (16, 1200), (20, 1200), (24, 1200))  # (n, size)
    DISTANCE, LEVEL = 3, 2

    def __init__(self, seed: int, out: Path, dnacf) -> None:
        self.out = out
        inputs = out / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.files = []  # (stem, path, claims, oracle fields, size)
        for (n, size, d), words in dnacf.reference.CODEWORD_TABLES.items():
            claims = {"distance": d, "conflict": n // 2, "gc": n // 2}
            self._add(inputs, f"published-n{n}-M{size}-d{d}", words, claims)
        for n, size in self.GENERATED:
            rng = random.Random(f"verify:{seed}:{n}")
            words = generated_code(rng, n, size, self.DISTANCE, self.LEVEL)
            claims = {"distance": self.DISTANCE, "conflict": self.LEVEL, "gc": n // 2}
            self._add(inputs, f"generated-n{n}", words, claims)

    def _add(self, inputs: Path, stem: str, words, claims: dict) -> None:
        path = inputs / f"{stem}.txt"
        path.write_text(f"# {stem}\n" + "\n".join(words) + "\n")
        fields = oracles.verify_fields(list(words), claims["distance"])
        self.files.append((stem, path, claims, fields, len(words)))

    def ops(self, k: int) -> list[Op]:
        ops = []
        for stem, path, claims, fields, size in self.files:
            out = self.out / f"verify-{stem}.json"
            argv = ["verify", str(path), "--claim-distance", str(claims["distance"]),
                    "--claim-reverse", "--claim-rc", "--claim-conflict", str(claims["conflict"]),
                    "--claim-gc", str(claims["gc"]), "--out", _fresh(out)]

            def check(code, out=out, claims=claims, fields=fields):
                if code not in (0, 1):
                    return [f"exit code {code}"]
                return oracles.check_verify(json.loads(out.read_text()), code, fields, claims)

            ops.append(Op(argv, check, size))
        return ops


WORKLOADS = {w.name: w for w in (SearchBounds, EncodeGolay, VerifyLibrary)}


# ---------------------------------------------------------------------------
# generated codes for verify-library
# ---------------------------------------------------------------------------

def _ends_in_repeat(s: str, level: int) -> bool:
    return any(s[-2 * t:-t] == s[-t:] for t in range(1, min(level, len(s) // 2) + 1))


def _random_word(rng: random.Random, n: int, level: int) -> str | None:
    """A word with GC content n/2 and no adjacent equal t-blocks for
    t <= level, built base by base; None on a dead end."""
    word = ""
    gc_left = n // 2
    for left in range(n, 0, -1):
        classes = ("GC", "AT") if rng.random() < gc_left / left else ("AT", "GC")
        choices = []
        for bases in classes:
            if bases == ("GC" if gc_left == 0 else "AT" if gc_left == left else ""):
                continue  # this class would miss the GC target
            choices = [b for b in bases if not _ends_in_repeat(word + b, level)]
            if choices:
                break
        if not choices:
            return None
        base = rng.choice(choices)
        word += base
        gc_left -= base in "GC"
    return word


def generated_code(rng: random.Random, n: int, size: int, distance: int, level: int) -> list[str]:
    """A code of about ``size`` words closed under reverse and complement,
    grown orbit by orbit: an orbit is kept when all its words are at least
    ``distance`` from each other and from every word kept so far."""
    rows = np.empty((size + 4, n), dtype=np.uint8)
    words: list[str] = []
    for _ in range(200 * size):
        if len(words) >= size:
            return words
        w = _random_word(rng, n, level)
        if w is None:
            continue
        orbit = sorted({w, oracles.reverse(w), oracles.complement(w),
                        oracles.reverse(oracles.complement(w))})
        cand = np.frombuffer("".join(orbit).encode("ascii"), dtype=np.uint8).reshape(len(orbit), n)
        inner = (cand[:, None, :] != cand[None, :, :]).sum(axis=2) + distance * np.eye(len(orbit), dtype=int)
        if inner.min() < distance:
            continue
        if words and (rows[:len(words), None, :] != cand[None, :, :]).sum(axis=2).min() < distance:
            continue
        rows[len(words):len(words) + len(orbit)] = cand
        words += orbit
    raise RuntimeError(f"could not grow a code of {size} words at n={n}")
