"""Spans around dnacf's layers, recorded from outside the program.

The tracer replaces a function at the module attribute its callers look up
(``dnacf.factory.encode``, not only ``dnacf.isomap.encode``) with a wrapper
that records a span: name, start, end and the index of the enclosing span.
Spans stay in memory until the run writes them out.  ``restore`` puts every
original function back, so untraced rounds run the program untouched.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

#: (layer name, module, attribute); several entries may share a layer
LAYERS = (
    ("kernels.run_trials", "dnacf._kernels", "run_trials"),
    ("kernels.enumerate_seed_values", "dnacf._kernels", "enumerate_seed_values"),
    ("search.orbit_partition", "dnacf.search", "_orbit_partition"),
    ("kernels.replay_trial", "dnacf._kernels", "replay_trial"),
    ("bincodes.enumerate_codewords", "dnacf.factory", "enumerate_codewords"),
    ("isomap.enumerate_valid_pairs", "dnacf.isomap", "enumerate_valid_pairs"),
    ("isomap.encode", "dnacf.factory", "encode"),
    ("isomap.min_binary_distance", "dnacf.factory", "min_binary_distance"),
    ("isomap.max_binary_distance", "dnacf.factory", "max_binary_distance"),
    ("factory.build_dna_code", "dnacf.factory", "build_dna_code"),
    ("constraints.verify_code", "dnacf.cli", "verify_code"),
    ("constraints.verify_code", "dnacf.factory", "verify_code"),
    ("constraints.conflict_free_level", "dnacf.constraints", "conflict_free_level"),
    ("constraints.is_rc_substring_free", "dnacf.constraints", "is_rc_substring_free"),
    ("core.gc_content", "dnacf.core", "gc_content"),
    ("core.codes_matrix", "dnacf.core", "codes_matrix"),
    ("kernels.min_pairwise_u8", "dnacf._kernels", "min_pairwise_u8"),
    ("kernels.min_cross_u8", "dnacf._kernels", "min_cross_u8"),
    ("cli.read_code_file", "dnacf.cli", "read_code_file"),
    ("cli.emit", "dnacf.cli", "_emit_lines"),
    ("cli.emit", "dnacf.cli", "_emit_json"),
)

_LAW_NAMES = {0: "uniform", 1: "dyadic", 2: "mixed", 3: "full"}


def _pairs(args) -> int:
    m = len(args[0])
    return m * (m - 1) // 2


#: layer -> function of the call's arguments whose value the span keeps:
#: the trial loop keeps its cell and trial count, the binary-distance scans
#: the number of pairs they cover
TAGS = {
    "kernels.run_trials": lambda a: (f"n{a[4]}_{_LAW_NAMES.get(int(a[7]), a[7])}", int(a[5])),
    "isomap.min_binary_distance": _pairs,
    "isomap.max_binary_distance": _pairs,
}


class Tracer:
    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, tag)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, tag=None, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, tag)

    def install(self) -> None:
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # the layer is gone from this version; it reports 0
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, TAGS.get(name)))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, name, fn, tag_of):
        def traced(*args, **kwargs):
            tag = tag_of(args) if tag_of else None
            return self.call(name, fn, *args, tag=tag, **kwargs)

        return traced


def layer_table(spans: list[tuple]) -> dict[str, dict]:
    """Per layer: calls, total seconds, self seconds (total minus the time
    its child spans cover) and summed tags where they are numbers."""
    child_time = defaultdict(float)
    for name, start, end, parent, tag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        if isinstance(tag, int):
            row["count"] = row.get("count", 0) + tag
    return table


def trial_us(spans: list[tuple]) -> dict[str, float]:
    """Microseconds per trial of the trial loop, per (n, law) cell."""
    seconds, trials = defaultdict(float), defaultdict(int)
    for name, start, end, parent, tag in spans:
        if name == "kernels.run_trials":
            cell, count = tag
            seconds[cell] += end - start
            trials[cell] += count
    return {cell: 1e6 * seconds[cell] / trials[cell] for cell in seconds}
