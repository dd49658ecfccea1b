"""Spans around the primdeg functions that callers import, and the per-layer
metrics derived from them.

Spans are recorded only by this file: :meth:`Recorder.install` replaces
module attributes in the benchmark's own worker process, so the package is
unchanged and the untraced runs pay nothing. Each span keeps its name, its
parent span, the job it belongs to and its start and end; they stay in memory
until the job list ends. Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

from primdeg.patterns import Cycled, Exhausted, Reached

# (module, attribute, span name). A function is wrapped at every name it is
# looked up by: ``analyze`` is imported into cli and families, and
# digraphs.matrix_gamma imports it from patterns at call time.
TARGETS = (
    ("primdeg.cli", "main", "cli.main"),
    ("primdeg.cli", "parse_document", "formats.parse"),
    ("primdeg.cli", "check_necessary_conditions", "patterns.conditions"),
    ("primdeg.cli", "analyze", "patterns.analyze"),
    ("primdeg.families", "analyze", "patterns.analyze"),
    ("primdeg.patterns", "analyze", "patterns.analyze"),
    ("primdeg.cli", "random_pattern", "cli.random_pattern"),
    ("primdeg.cli", "RunReport.emit", "cli.emit"),
    ("primdeg.bitsets", "minimize_masks", "bitsets.minimize"),
    ("primdeg.cli", "exponent_set", "families.exponent_set"),
    ("primdeg.families", "degree_witness", "families.witness"),
    ("primdeg.families", "wielandt_frontier_tensor", "families.frontier"),
    ("primdeg.families", "column_states", "patterns.column_states"),
    ("primdeg.families", "matrix_gamma", "digraphs.matrix_gamma"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# Layers whose inclusive time is a metric of its own (``<layer>_s``).
INCLUSIVE = (
    "patterns.analyze",
    "patterns.conditions",
    "cli.random_pattern",
    "cli.emit",
    "bitsets.minimize",
    "families.witness",
    "families.frontier",
    "digraphs.matrix_gamma",
    "formats.parse",
)
CALLS = ("patterns.analyze", "cli.random_pattern", "bitsets.minimize")


def _count_analyze(counts: Counter, args: tuple, report) -> None:
    steps = 0
    for trace in report.traces:
        o = trace.outcome
        if isinstance(o, Reached):
            counts["patterns.reached"] += 1
            steps += o.step
        elif isinstance(o, Cycled):
            counts["patterns.cycled"] += 1
            steps += o.first_repeat_at
        elif isinstance(o, Exhausted):
            counts["patterns.exhausted"] += 1
            steps += o.bound
        counts["patterns.states_retained"] += len(trace.states)
    counts["patterns.steps"] += steps
    counts["patterns.row_evals"] += steps * len(report.gamma_by_column)


def _count_parse(counts: Counter, args: tuple, document) -> None:
    counts["formats.bytes_in"] += len(args[0].encode("utf-8"))


COUNTERS = {"patterns.analyze": _count_analyze, "formats.parse": _count_parse}


class Recorder:
    """In-memory span store. ``spans[i]`` is ``[name, parent, job, start_ns,
    end_ns]`` with ``parent`` the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, counts = self.spans, self._open, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, self.job, clock(), 0]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in place; call before the first job."""
        for module, attr, name in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer times and counts of one traced job list.

    A layer's inclusive time sums its outermost spans (a span nested in one
    of the same name is not counted twice); its self time is each span's
    duration minus the durations of its direct children.
    """
    dur = [s[4] - s[3] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    inclusive: Counter = Counter()
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    verify = 0
    for i, (name, parent, _job, _t0, _t1) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += dur[i] - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            inclusive[name] += dur[i]
        if name == "patterns.analyze" and parent >= 0 and spans[parent][0] == "families.witness":
            verify += dur[i]
    out: dict[str, float] = {f"{layer}_s": inclusive[layer] / 1e9 for layer in INCLUSIVE}
    out.update({f"{layer}_calls": calls[layer] for layer in CALLS})
    out["families.verify_s"] = verify / 1e9
    for key in ("steps", "states_retained", "row_evals", "reached", "cycled", "exhausted"):
        out[f"patterns.{key}"] = counts.get(f"patterns.{key}", 0)
    out["formats.bytes_in"] = counts.get("formats.bytes_in", 0)
    analyze_s = out["patterns.analyze_s"]
    out["patterns.steps_per_s"] = out["patterns.steps"] / analyze_s if analyze_s else 0.0
    out.update({f"{layer}_self_s": self_ns[layer] / 1e9 for layer in LAYERS})
    out["trace.spans"] = len(spans)
    return out
