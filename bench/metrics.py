"""Every metric the benchmark reports: name, unit, which way is better, and
which end-to-end metric it should move on which workload.

BENCHMARK.json at the repository root lists the same names, units and
directions (``test_bench.py`` keeps the two in step); the ``moves`` notes
live only here.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


EXTREMAL_CYCLING = "wall_s on analyze-extremal and analyze-cycling"

# Measured with tracing off (``--trace 0``).
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median time for a fresh interpreter to import primdeg.cli, on the reference clock (run.py)"),
    Metric("wall_s", "s", "lower",
           "median wall time of the workload's job list after set-up, on the reference clock (run.py)"),
    Metric("peak_rss_mb", "MB", "lower", "median peak RSS (ru_maxrss) of the process running the job list"),
    Metric("ok_ratio", "ratio", "higher", "jobs passed / jobs attempted; 1 - fail_ratio"),
)

# From the traced run (``--trace 1``). ``<layer>_s`` is the inclusive time of
# the layer's spans, ``<layer>_self_s`` that time minus its child spans.
PER_LAYER = (
    Metric("patterns.analyze_s", "s", "lower", EXTREMAL_CYCLING),
    Metric("patterns.analyze_calls", "count", "lower", EXTREMAL_CYCLING),
    Metric("patterns.steps", "count", "lower", EXTREMAL_CYCLING + "; the sum of trace lengths"),
    Metric("patterns.steps_per_s", "1/s", "higher", EXTREMAL_CYCLING),
    Metric("patterns.states_retained", "count", "lower",
           "peak_rss_mb on analyze-extremal; IndexSet objects kept in the returned traces"),
    Metric("patterns.row_evals", "count", "lower", "wall_s on analyze-extremal; steps x dim"),
    Metric("patterns.reached", "count", "higher", "none: fixed by the inputs, a change means changed answers"),
    Metric("patterns.cycled", "count", "higher", "none: fixed by the inputs, a change means changed answers"),
    Metric("patterns.exhausted", "count", "lower", "none: fixed by the inputs, a change means changed answers"),
    Metric("patterns.conditions_s", "s", "lower", "wall_s on analyze-extremal and analyze-cycling; negligible"),
    Metric("cli.random_pattern_s", "s", "lower", "wall_s on scan-random; about 0 elsewhere"),
    Metric("cli.random_pattern_calls", "count", "lower", "wall_s on scan-random; 0 elsewhere"),
    Metric("cli.emit_s", "s", "lower", "wall_s on analyze-extremal (its --per-column job)"),
    Metric("bitsets.minimize_s", "s", "lower", "wall_s on scan-random and exponent-set"),
    Metric("bitsets.minimize_calls", "count", "lower", "wall_s on scan-random and exponent-set"),
    Metric("families.witness_s", "s", "lower", "wall_s on exponent-set"),
    Metric("families.frontier_s", "s", "lower", "wall_s on exponent-set"),
    Metric("families.verify_s", "s", "lower", "wall_s on exponent-set; analyze time directly under degree_witness"),
    Metric("digraphs.matrix_gamma_s", "s", "lower", "wall_s on exponent-set"),
    Metric("formats.parse_s", "s", "lower", "wall_s on analyze-extremal and analyze-cycling; negligible"),
    Metric("formats.bytes_in", "count", "lower", "wall_s on analyze-extremal and analyze-cycling; negligible"),
    Metric("setup.numpy_import_s", "s", "lower", "setup_s on every workload; from -X importtime"),
    Metric("setup.primdeg_import_s", "s", "lower", "setup_s on every workload; primdeg.cli minus numpy, from -X importtime"),
    Metric("cli.main_self_s", "s", "lower", "wall_s on every workload; argument handling and command glue"),
    Metric("formats.parse_self_s", "s", "lower", "wall_s on analyze-extremal and analyze-cycling"),
    Metric("patterns.conditions_self_s", "s", "lower", "wall_s on analyze-extremal and analyze-cycling"),
    Metric("patterns.analyze_self_s", "s", "lower", EXTREMAL_CYCLING),
    Metric("cli.random_pattern_self_s", "s", "lower", "wall_s on scan-random"),
    Metric("cli.emit_self_s", "s", "lower", "wall_s on analyze-extremal"),
    Metric("bitsets.minimize_self_s", "s", "lower", "wall_s on scan-random and exponent-set"),
    Metric("families.exponent_set_self_s", "s", "lower", "wall_s on exponent-set"),
    Metric("families.witness_self_s", "s", "lower", "wall_s on exponent-set"),
    Metric("families.frontier_self_s", "s", "lower", "wall_s on exponent-set"),
    Metric("patterns.column_states_self_s", "s", "lower", "wall_s on exponent-set"),
    Metric("digraphs.matrix_gamma_self_s", "s", "lower", "wall_s on exponent-set"),
    Metric("trace.spans", "count", "lower", "none: spans recorded per job list"),
    Metric("trace.untraced_wall_s", "s", "lower", "none: wall_s of the untraced job lists of the traced run"),
    Metric("trace.wall_s", "s", "lower", "none: wall_s of the traced job lists, on the reference clock too"),
    Metric("trace.overhead_s", "s", "lower", "none: trace.wall_s minus trace.untraced_wall_s"),
    Metric("machine.reference_s", "s", "lower",
           "none: median raw seconds of the reference loop; the host's speed, which the reference clock divides out"),
)
