"""Self-tests of the benchmark harness.

    python -m pytest bench -q

They run every workload end to end at a tiny size, check that a wrong
expectation is counted as a failure, and keep BENCHMARK.json in step with
metrics.py.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

TINY = {
    "analyze-extremal": {"order": 3, "dim": 6},
    "analyze-cycling": {"order": 3, "cycles": (2, 3), "documents": 2},
    "scan-random": {"order": 3, "dim": 5, "budget": 50},
    "exponent-set": {"order": 4, "dim": 4},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, size in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, size)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "IMPORTTIME_PROBES", 1)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_at_tiny_size(workload):
    out = run.run(workload, seed=7, seconds=0.01, trace=True)
    result = out["result"]
    assert result["correct"], [r["failures"] for r in out["runs"]]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m.name for m in PER_LAYER}
    assert set(out["end_to_end"]) == {m.name for m in END_TO_END}
    assert out["end_to_end"]["ok_ratio"] == 1.0
    assert result["metrics"]["patterns.analyze_calls"]["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    for name in TINY:
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        a.mkdir(parents=True)
        b.mkdir()
        jobs_a, jobs_b = workloads.build(name, 3, a), workloads.build(name, 3, b)
        assert [j.expect for j in jobs_a] == [j.expect for j in jobs_b]
        assert [p.read_text() for p in sorted(a.iterdir())] == [p.read_text() for p in sorted(b.iterdir())]


def test_corrupted_expected_gamma_is_a_failure(monkeypatch):
    build = workloads.build

    def corrupted(*args):
        jobs = build(*args)
        for job in jobs:
            job.expect["gamma"] += 1
        return jobs

    monkeypatch.setattr(workloads, "build", corrupted)
    out = run.run("analyze-extremal", seed=7, seconds=0.01, trace=False)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert out["end_to_end"]["ok_ratio"] == 0.0
    assert "primitive, gamma = (True, 26)" in out["runs"][0]["failures"][0]


def test_wrong_period_and_digest_are_failures():
    job = workloads.Job(["analyze", "x"], "analyze", {
        "json": False, "primitive": False, "gamma": None, "periods": [2, 3],
    })
    out = "primitive: no\ngamma: -\ncolumn 1: gamma_j=- cycled first_repeat_at=3 period=2\n"
    assert workloads.check(job, 0, out + "column 2: gamma_j=- cycled first_repeat_at=4 period=3\n") is None
    assert workloads.check(job, 0, out + "column 2: gamma_j=- cycled first_repeat_at=3 period=2\n")
    assert workloads.check(job, 1, "") == "exit code 1"
    scan = workloads.Job([], "scan", {"header": "order=3 dim=4 budget=2 seed=0", "budget": 2, "sha256": "0" * 64})
    text = (
        "NON-EXHAUSTIVE random sample: order=3 dim=4 budget=2 seed=0\n"
        "gamma=3 count=1\nprimitive 1/2 sampled; absence of a degree here is not evidence of a gap\n"
    )
    assert "digest" in workloads.check(scan, 0, text)
    assert "histogram" in workloads.check(scan, 0, text.replace("count=1", "count=2"))


def test_reference_clock_divides_out_the_host_speed():
    run_ = {"import_s": 0.1, "segments": [2.0, 1.0], "refs": [0.2, 0.2, 0.4]}
    slow = {"import_s": 0.2, "segments": [4.0, 2.0], "refs": [0.4, 0.4, 0.8]}
    for clock in (run.clock_wall, run.clock_import):
        assert clock(slow) == pytest.approx(clock(run_))
    assert run.clock_wall(run_) == pytest.approx(run.REFERENCE_S * (2.0 / 0.2 + 1.0 / 0.3))


def test_benchmark_json_matches_metric_table():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert doc["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.BUILDERS)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-random", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
