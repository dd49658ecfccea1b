"""Benchmark of the primdeg CLI; BENCHMARK.json at the repository root
describes it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory, never from an installed copy. The run:

1. builds the workload's inputs from the seed (see workloads.py);
2. starts fresh interpreters that only import ``primdeg.cli``, for
   ``setup_s``, after one untimed start that fills the bytecode cache;
3. for ``--seconds`` seconds, runs the workload's job list again and again,
   each time in a fresh single-threaded process (worker.py) that calls
   ``primdeg.cli.main`` once per job, and checks every job's output.

Times are read on a reference clock. The host this runs on is shared, and
its speed drifts by up to 2x for minutes at a time, far longer than one
run. So every worker also times a fixed pure-Python loop
(``worker.reference``) right after its import and after every second or so
of jobs, and each measured time is divided by the loop's time next to it and
multiplied by ``REFERENCE_S``, the loop's time on an unloaded core. A
change to ``primdeg`` moves these times as it moves wall time; a slow spell
of the host moves both the time and the loop and cancels out. The table
also prints the raw seconds and the loop's own times.

It prints every metric with its unit, then a stamp line, and last one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones. With ``--trace 1`` the job lists
alternate between untraced and traced, ``-X importtime`` splits the set-up,
and the metrics are the per-layer ones (see metrics.py and tracing.py).

Exits 1 without a result when the checkout has no ``src/primdeg`` or a
worker cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # timed fresh imports per run, besides one per job list
# worker.reference's seconds on an unloaded core of the 2.0 GHz Xeon the
# benchmark was tuned on, so that times on the reference clock read as
# seconds on that machine.
REFERENCE_S = 0.18
IMPORTTIME_PROBES = 3
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A worker process exited nonzero or wrote no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(workdir: Path, argvs: list[list[str]], trace: bool = False, importtime: bool = False) -> dict:
    """Run one worker process to completion and return its result record."""
    jobs_path, result_path = workdir / "jobs.json", workdir / "result.json"
    jobs_path.write_text(json.dumps({"argvs": argvs, "trace": trace, "src": str(SRC)}))
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else [])]
    cmd += [str(HERE / "worker.py"), str(jobs_path), str(result_path)]
    proc = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0 or not result_path.exists():
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result["importtime"] = proc.stderr if importtime else ""
    return result


def import_breakdown(stderr: str) -> tuple[float, float]:
    """(numpy, primdeg.cli minus numpy) cumulative import seconds from the
    output of ``-X importtime``."""
    cumulative = {}
    for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", stderr, re.M):
        cumulative.setdefault(m[2], int(m[1]) / 1e6)
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative["primdeg.cli"] - numpy_s


def measure(jobs, workdir: Path, seconds: float, modes: tuple[bool, ...]) -> list[dict]:
    """Run the job list in fresh workers until ``seconds`` would be exceeded,
    cycling through ``modes`` (traced or not) and running each at least once;
    check each output and record failures. Alternating the modes exposes
    traced and untraced runs to the same drift in machine speed."""
    from workloads import check

    argvs = [job.argv for job in jobs]
    runs: list[dict] = []
    took: list[float] = []
    start = time.perf_counter()
    while len(runs) < len(modes) or time.perf_counter() - start + statistics.median(took) <= seconds:
        trace = modes[len(runs) % len(modes)]
        t0 = time.perf_counter()
        try:
            run = launch(workdir, argvs, trace=trace)
        except (WorkerError, subprocess.TimeoutExpired) as e:
            run = {"codes": [None] * len(jobs), "stdout": [""] * len(jobs), "stderr": [""] * len(jobs),
                   "trace": trace, "error": str(e)}
        took.append(time.perf_counter() - t0)
        run["failures"] = []
        for i, job in enumerate(jobs):
            why = check(job, run["codes"][i], run["stdout"][i])
            if why is not None:
                # The CLI ends stderr with its timing line; keep the line before.
                last = [s for s in run["stderr"][i].splitlines() if s and not s.startswith("elapsed:")][-1:]
                run["failures"].append(f"job {i} {' '.join(job.argv)}: {why} {' '.join(last)}")
        del run["stdout"], run["stderr"]
        run["trace"] = trace
        runs.append(run)
    return runs


def timed(runs: list[dict]) -> list[dict]:
    """The runs whose worker finished its job list."""
    return [r for r in runs if "wall_s" in r]


def clock_wall(run: dict) -> float:
    """The job list's time on the reference clock: each segment's seconds
    over the mean of the reference times before and after it."""
    refs = run["refs"]
    return REFERENCE_S * sum(s / ((refs[k] + refs[k + 1]) / 2) for k, s in enumerate(run["segments"]))


def clock_import(run: dict) -> float:
    """The import's time on the reference clock, against the reference
    timed right after it in the same process."""
    return REFERENCE_S * run["import_s"] / run["refs"][0]


def end_to_end(probes: list[dict], runs: list[dict]) -> dict[str, float]:
    done = timed(runs)
    attempted = sum(len(r["codes"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    return {
        "setup_s": statistics.median(clock_import(r) for r in probes + done),
        "wall_s": statistics.median(clock_wall(r) for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(importtimes: list[tuple[float, float]], untraced: list[dict], traced: list[dict]) -> dict:
    from tracing import layer_metrics

    layers = [layer_metrics(r["spans"], r["counts"]) for r in timed(traced)]
    out = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    out["setup.numpy_import_s"] = statistics.median(n for n, _ in importtimes)
    out["setup.primdeg_import_s"] = statistics.median(p for _, p in importtimes)
    traced_wall = statistics.median(clock_wall(r) for r in timed(traced))
    untraced_wall = statistics.median(clock_wall(r) for r in timed(untraced))
    out["machine.reference_s"] = statistics.median(t for r in timed(untraced + traced) for t in r["refs"])
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def stamp(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "primdeg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build, measure and check one workload; return the result record plus
    the end-to-end metrics and per-run details that the table prints."""
    import workloads
    from metrics import END_TO_END, PER_LAYER

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / "_work"))
    try:
        jobs = workloads.build(workload, seed, workdir)
        launch(workdir, [])  # fills the bytecode cache; untimed
        probes = [launch(workdir, []) for _ in range(SETUP_PROBES)]
        if trace:
            importtimes = [
                import_breakdown(launch(workdir, [], importtime=True)["importtime"])
                for _ in range(IMPORTTIME_PROBES)
            ]
        runs = measure(jobs, workdir, seconds, (False, True) if trace else (False,))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    untraced = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    if not timed(untraced) or (trace and not timed(traced)):
        raise WorkerError("no job list ran to completion")
    e2e = end_to_end(probes, untraced)
    metrics = per_layer(importtimes, untraced, traced) if trace else e2e
    units = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
    attempted = sum(len(r["codes"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "end_to_end": e2e,
        "probes": probes,
        "runs": runs,
    }


def print_table(out: dict, trace: bool) -> None:
    from metrics import END_TO_END, PER_LAYER

    runs = out["runs"]
    untraced = [r for r in timed(runs) if not r["trace"]]
    walls = sorted(r["wall_s"] for r in untraced)
    result = out["result"]
    print(f"job lists run: {len(runs)}; untraced wall_s samples: {len(walls)}"
          + (f" (raw seconds: median {statistics.median(walls):.4f}, min {walls[0]:.4f}, max {walls[-1]:.4f})" if walls else ""))
    imports = [r["import_s"] for r in out["probes"] + untraced]
    refs = sorted(t for r in out["probes"] + timed(runs) for t in r["refs"])
    print(f"raw import seconds: median {statistics.median(imports):.4f}; reference loop seconds: "
          f"median {statistics.median(refs):.4f}, min {refs[0]:.4f}, max {refs[-1]:.4f} (REFERENCE_S = {REFERENCE_S})")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':32} {fail_ratio:14.6g} ratio    ({result['failed']}/{result['attempted']} jobs)")
    for m in END_TO_END:
        print(f"{m.name:32} {out['end_to_end'][m.name]:14.6g} {m.unit:8} {m.better}")
    if trace:
        for m in PER_LAYER:
            print(f"{m.name:32} {result['metrics'][m.name]['value']:14.6g} {m.unit:8} moves {m.moves}")
    for r in runs:
        for line in r["failures"][:5]:
            print(f"FAILED {line}", file=sys.stderr)
        if "error" in r:
            print(f"worker error: {r['error']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primdeg" / "cli.py").is_file():
        print(f"error: {SRC / 'primdeg'} not found; run from a checkout of the repository", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {', '.join(workloads.BUILDERS)}")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print_table(out, bool(args.trace))
    print("stamp: " + json.dumps(stamp(args), sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
