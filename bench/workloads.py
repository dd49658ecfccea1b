"""The benchmark's workloads: seeded inputs, CLI job lists, output checks.

Each workload is a fixed list of ``primdeg`` CLI calls. Its inputs are built
from the benchmark seed before any timing starts, and the CLI sees only the
generated documents and arguments. Every job carries the values its output
must show, derived here from how the input was built rather than from the
trace engine; :func:`check` turns an exit code and stdout into a failure
message, or None when the output is right.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from primdeg.bitsets import SupportFamily
from primdeg.families import wielandt_tensor
from primdeg.formats import render_document
from primdeg.patterns import PatternTensor, make_pattern

# Sizes the benchmark runs at; the self-tests substitute smaller ones.
SIZES = {
    # n = 128 is left out: about 45 s per analyze with the per-column engine.
    "analyze-extremal": {"order": 3, "dim": 64},
    # Pairwise coprime cycle lengths summing to n = 100: the columns cycle at
    # different periods, and the tuple of all column states would only repeat
    # after lcm = 223092870 steps, far beyond the 9802-step budget.
    "analyze-cycling": {"order": 3, "cycles": (2, 3, 5, 7, 11, 13, 17, 19, 23), "documents": 24},
    "scan-random": {"order": 3, "dim": 10, "budget": 2000},
    "exponent-set": {"order": 16, "dim": 16},
}

# sha256 of the scan's stdout, recorded from the engine at the commit that
# introduced this benchmark, keyed by (order, dim, budget, seed).
SCAN_DIGESTS = {
    (3, 10, 2000, 0): "852b5750bc5ad7736b8ce5687873676fe651aab153ff95103a91e48dd93ad9a3",
}


@dataclass
class Job:
    """One CLI call: its arguments, which check applies, and what it expects."""

    argv: list[str]
    kind: str
    expect: dict


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of a workload; documents are written under ``workdir``."""
    return BUILDERS[name](random.Random(f"{name}/{seed}"), workdir, **SIZES[name])


def _relabel(tensor: PatternTensor, perm: list[int]) -> PatternTensor:
    """The same tensor with index i renamed perm[i-1] + 1 in rows and supports;
    a simultaneous relabelling keeps primitivity and every degree."""
    dim = tensor.dim

    def remap(mask: int) -> int:
        return sum(1 << perm[i] for i in range(dim) if mask >> i & 1)

    rows: list[SupportFamily | None] = [None] * dim
    for u, fam in enumerate(tensor.rows):
        rows[perm[u]] = SupportFamily.from_masks(dim, [remap(m) for m in fam.masks])
    return PatternTensor(tensor.order, dim, tuple(rows))


def _extremal(rng: random.Random, workdir: Path, order: int, dim: int) -> list[Job]:
    base = wielandt_tensor(order, dim)
    gamma = (dim - 1) ** 2 + 1  # Wielandt's bound, which the lift attains
    jobs = []
    for i, extra in enumerate(([], ["--per-column", "--format", "json-lines"])):
        path = workdir / f"wielandt-{i}.txt"
        path.write_text(render_document(_relabel(base, rng.sample(range(dim), dim))))
        expect = {"json": bool(extra), "primitive": True, "gamma": gamma}
        if extra:
            expect["reached"] = dim
        jobs.append(Job(["analyze", str(path), *extra], "analyze", expect))
    return jobs


def _cycling(
    rng: random.Random, workdir: Path, order: int, cycles: tuple[int, ...], documents: int
) -> list[Job]:
    dim = sum(cycles)
    jobs = []
    for d in range(documents):
        labels = rng.sample(range(1, dim + 1), dim)
        periods = [0] * dim
        entries = []
        start = 0
        for length in cycles:
            cycle = labels[start : start + length]
            start += length
            for i, j in enumerate(cycle):
                periods[j - 1] = length
                # Row cycle[i+1] holds {j}: from the state {j} the trace moves
                # to {cycle[i+1]}, so column j walks its cycle.
                entries.append((cycle[(i + 1) % length], (j,) * (order - 1)))
        for u in range(1, dim + 1):
            # A support of order-1 distinct indices never fits in a one-index
            # state, so it leaves every trace unchanged.
            entries.append((u, tuple(rng.sample(range(1, dim + 1), order - 1))))
        path = workdir / f"cycles-{d:02d}.txt"
        path.write_text(render_document(make_pattern(order, dim, entries)))
        json_lines = d % 2 == 1
        argv = ["analyze", str(path), "--per-column"]
        if json_lines:
            argv += ["--format", "json-lines"]
        expect = {"json": json_lines, "primitive": False, "gamma": None, "periods": periods}
        jobs.append(Job(argv, "analyze", expect))
    return jobs


def _scan(rng: random.Random, workdir: Path, order: int, dim: int, budget: int) -> list[Job]:
    # The scan's default seed 0, whose stdout digest is recorded, and one
    # seed drawn from the benchmark seed.
    jobs = []
    for seed in (0, rng.randrange(1, 2**31)):
        argv = ["scan-open-problem", "--m", str(order), "--n", str(dim)]
        argv += ["--budget", str(budget), "--seed", str(seed)]
        expect = {
            "header": f"order={order} dim={dim} budget={budget} seed={seed}",
            "budget": budget,
            "sha256": SCAN_DIGESTS.get((order, dim, budget, seed)),
        }
        jobs.append(Job(argv, "scan", expect))
    return jobs


def _exponent(rng: random.Random, workdir: Path, order: int, dim: int) -> list[Job]:
    # The input is the parameters alone, so the seed changes nothing here.
    argv = ["exponent-set", "--m", str(order), "--n", str(dim), "--max-n", str(dim)]
    return [Job(argv, "exponent", {"top": (dim - 1) ** 2 + 1})]


BUILDERS = {
    "analyze-extremal": _extremal,
    "analyze-cycling": _cycling,
    "scan-random": _scan,
    "exponent-set": _exponent,
}


# ---------------------------------------------------------------------------
# checks

_COLUMN_RE = re.compile(r"column (\d+): gamma_j=(\S+) (\w+)((?: \w+=\d+)*)")


def _analyze_records(out: str, json_lines: bool) -> list[dict]:
    if json_lines:
        return [json.loads(line) for line in out.splitlines()]
    records: list[dict] = []
    for line in out.splitlines():
        if line.startswith("primitive: "):
            records.append({"record": "analysis", "primitive": line == "primitive: yes"})
        elif line.startswith("gamma: ") and records:
            value = line.removeprefix("gamma: ")
            records[-1]["gamma"] = None if value == "-" else int(value)
        elif m := _COLUMN_RE.fullmatch(line):
            rec = {
                "record": "column",
                "j": int(m[1]),
                "gamma_j": None if m[2] == "-" else int(m[2]),
                "outcome": m[3],
            }
            rec.update((k, int(v)) for k, v in re.findall(r"(\w+)=(\d+)", m[4]))
            records.append(rec)
    return records


def _check_analyze(out: str, expect: dict) -> str | None:
    records = _analyze_records(out, expect["json"])
    verdicts = [r for r in records if r["record"] == "analysis"]
    if len(verdicts) != 1:
        return f"expected one verdict, got {len(verdicts)}"
    got = (verdicts[0]["primitive"], verdicts[0].get("gamma"))
    if got != (expect["primitive"], expect["gamma"]):
        return f"primitive, gamma = {got}, expected {(expect['primitive'], expect['gamma'])}"
    columns = [r for r in records if r["record"] == "column"]
    if "reached" in expect:
        if len(columns) != expect["reached"]:
            return f"{len(columns)} column records, expected {expect['reached']}"
        for c in columns:
            if c["outcome"] != "reached" or c.get("step") != c["gamma_j"]:
                return f"column {c['j']} is {c['outcome']} step={c.get('step')} gamma_j={c['gamma_j']}"
        if max(c["gamma_j"] for c in columns) != expect["gamma"]:
            return "largest column degree differs from gamma"
    if "periods" in expect:
        periods = expect["periods"]
        if sorted(c["j"] for c in columns) != list(range(1, len(periods) + 1)):
            return f"column records {len(columns)}, expected one for each of {len(periods)} columns"
        for c in columns:
            want = periods[c["j"] - 1]
            if c["outcome"] != "cycled" or c.get("period") != want or c["gamma_j"] is not None:
                return f"column {c['j']} is {c['outcome']} period={c.get('period')}, expected cycled period={want}"
    return None


def _check_scan(out: str, expect: dict) -> str | None:
    if not re.search(rf"^NON-EXHAUSTIVE random sample: {expect['header']}$", out, re.M):
        return f"no scan header for {expect['header']}"
    summary = re.search(r"^primitive (\d+)/(\d+) sampled;", out, re.M)
    if summary is None:
        return "no scan summary"
    primitive, samples = int(summary[1]), int(summary[2])
    counted = sum(int(c) for c in re.findall(r"^gamma=\d+ count=(\d+)$", out, re.M))
    if counted != primitive or samples != expect["budget"]:
        return f"histogram sums to {counted}, primitive {primitive}, samples {samples}"
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    if expect["sha256"] is not None and digest != expect["sha256"]:
        return f"stdout digest {digest} differs from the recorded {expect['sha256']}"
    return None


def _check_exponent(out: str, expect: dict) -> str | None:
    top = expect["top"]
    lines = out.splitlines()
    if not lines or lines[-1] != f"achieved == expected (1..{top})":
        return f"last line {lines[-1] if lines else ''!r}"
    verified = re.findall(r"^t=(\d+) kind=\S+(?: k=\d+)? gamma=(\d+) ok$", out, re.M)
    if sorted(int(t) for t, g in verified if t == g) != list(range(1, top + 1)):
        return f"{len(verified)} verified degrees, expected 1..{top}"
    return None


CHECKS = {"analyze": _check_analyze, "scan": _check_scan, "exponent": _check_exponent}


def check(job: Job, code: int | None, out: str) -> str | None:
    """Why the job's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKS[job.kind](out, job.expect)
    except (ValueError, KeyError) as e:
        return f"unreadable output: {e!r}"
