"""One fresh benchmark process: time ``import primdeg.cli``, run a job list
through ``primdeg.cli.main``, and write what happened as JSON.

    python worker.py JOBS_JSON RESULT_JSON

JOBS_JSON holds ``{"argvs": [[...], ...], "trace": bool, "src": DIR}``; an
empty job list only measures the import. The import is timed before this
file imports anything else, so every fresh process measures the same set-up
a CLI call pays. Each job's stdout is captured in memory and returned, with
its exit code, for the parent to check.

The machine's momentary speed is sampled with :func:`reference`, a fixed
pure-Python loop that touches no ``primdeg`` code: once right after the
import, and again after every segment of jobs (consecutive jobs that took at
least ``SEGMENT_S`` together, or the last ones). The parent divides each
segment's time by the reference times on either side of it.
"""

import sys
import time

_t0 = time.perf_counter()
import primdeg.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SEGMENT_S = 1.0


def reference() -> float:
    """Seconds taken by a fixed loop of the engine's kind of work: integer
    bit operations and small objects, few enough kept alive that the loop
    does not raise the process's peak RSS."""
    t0 = time.perf_counter()
    keep = []
    x = 0x9E3779B97F4A7C15
    for _ in range(120_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        keep.append((x & (x >> 7), frozenset((x >> k) & 63 for k in range(0, 24, 6))))
        if len(keep) > 4_000:
            del keep[:2_000]
    return time.perf_counter() - t0


def main(jobs_path: str, result_path: str) -> int:
    spec = json.loads(Path(jobs_path).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(primdeg.cli.__file__).resolve().parents:
        print(f"primdeg.cli came from {primdeg.cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    refs = [reference()]
    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    codes, outputs, errors = [], [], []
    segments = []
    segment = 0.0
    argvs = spec["argvs"]
    for i, argv in enumerate(argvs):
        if recorder is not None:
            recorder.job = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = primdeg.cli.main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        segment += time.perf_counter() - t0
        if segment >= SEGMENT_S or i == len(argvs) - 1:
            segments.append(segment)
            segment = 0.0
            refs.append(reference())
        codes.append(code)
        outputs.append(out.getvalue())
        errors.append(err.getvalue())
    result = {
        "import_s": IMPORT_S,
        "wall_s": sum(segments),
        "segments": segments,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes": codes,
        "stdout": outputs,
        "stderr": errors,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counts"] = dict(recorder.counts)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
