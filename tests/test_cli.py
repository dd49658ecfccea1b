import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import primdeg
from primdeg import VerificationError, make_pattern, parse_document, render_document, wielandt_tensor
from primdeg.bitsets import minimize_masks
from primdeg.cli import _random_rows, main, random_pattern
from primdeg.formats import render_pattern


@pytest.fixture
def wielandt_file(tmp_path):
    path = tmp_path / "a0.txt"
    path.write_text(render_pattern(wielandt_tensor(5, 5)))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this primdeg."""
    env = dict(os.environ)
    src = str(Path(primdeg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


class TestAnalyze:
    def test_primitive_document(self, capsys, wielandt_file):
        code, out, err = run(capsys, ["analyze", str(wielandt_file)])
        assert code == 0
        assert "document: pattern order=5 dim=5" in out
        assert "conditions: ok" in out
        assert "primitive: yes" in out
        assert "gamma: 17" in out
        assert "sha256:" in out
        assert "elapsed" in err

    def test_per_column_table(self, capsys, wielandt_file):
        code, out, _ = run(capsys, ["analyze", str(wielandt_file), "--per-column"])
        assert code == 0
        assert "column 4: gamma_j=13 reached step=13" in out
        assert "column 5: gamma_j=17 reached step=17" in out

    def test_json_lines_carry_same_values(self, capsys, wielandt_file):
        code, out, _ = run(
            capsys,
            ["analyze", str(wielandt_file), "--per-column", "--format", "json-lines"],
        )
        assert code == 0
        records = json_records(out)
        by_kind = {}
        for r in records:
            by_kind.setdefault(r["record"], []).append(r)
        analysis = by_kind["analysis"][0]
        assert analysis["gamma"] == 17
        assert analysis["primitive"] is True
        assert analysis["bound"] == 17 == analysis["max_steps"]
        cols = {r["j"]: r for r in by_kind["column"]}
        assert [cols[j]["gamma_j"] for j in range(1, 6)] == [16, 15, 14, 13, 17]
        assert all(r["outcome"] == "reached" for r in by_kind["column"])

    def test_not_primitive_still_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text(
            "tensor-pattern v1\norder 2\ndim 3\nrow 1: {2}\nrow 2: {3}\nrow 3: {1}\n"
        )
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        assert "primitive: no" in out
        assert "gamma: -" in out
        assert "cycled" in out or "column" not in out  # cycle note only with table

    def test_budget_override(self, capsys, wielandt_file):
        code, out, _ = run(capsys, ["analyze", str(wielandt_file), "--max-k", "5"])
        assert code == 0
        assert "primitive: no" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["analyze", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "error:" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tensor-pattern v1\norder 3\ndim 3\nrow 1: {9}\n")
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert "error: line 4: index 9 out of range 1..3" in err

    def test_violations_reported(self, capsys, tmp_path):
        path = tmp_path / "stuck.txt"
        path.write_text(
            "tensor-pattern v1\norder 2\ndim 2\nrow 1: {1}\nrow 2: {1}\n"
        )
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        assert "conditions: violation zero-out-degree vertex=2" in out
        assert "primitive: no" in out

    @pytest.mark.parametrize(
        "body, line",
        [
            ("entry 1 2 nan\n", 4),
            ("entry 2 1 inf\n", 4),
            ("entry 1 1 1.0\nentry 1 1 0\n", 5),
        ],
    )
    def test_altered_sparse_values_rejected(self, capsys, tmp_path, body, line):
        path = tmp_path / "bad.txt"
        path.write_text("tensor-sparse v1\norder 2\ndim 2\n" + body)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert f"error: line {line}:" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("tensor-pattern v1\norder 3\ndim 3\nrow 1: {+2}\n", 4),
            ("tensor-pattern v1\norder 3\ndim 3\nrow 1: {0_2}\n", 4),
            ("tensor-pattern v1\norder 3\ndim 3\nrow 1: {02}\n", 4),
            ("tensor-pattern v1\norder 3\ndim 3\nrow ١: {2}\n", 4),
            ("tensor-pattern v1\norder 03\ndim 3\n", 2),
            ("tensor-sparse v1\norder 2\ndim 2\nentry 1 +2 1_0\n", 4),
            ("tensor-sparse v1\norder 2\ndim 2\nentry 1 2 ١\n", 4),
        ],
        ids=["sign", "underscore", "leading-zero", "arabic-indic-row", "header-leading-zero", "sparse", "sparse-value"],
    )
    def test_loose_integers_rejected(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert f"error: line {line}:" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("tensor-sparse v1\norder 1\ndim 2\nentry 1 1.0\n", 2),
            ("tensor-pattern v1\norder 3\ndim 200\n", 3),
            ("tensor-pattern v1\norder 3\ndim 200\nrow 1: {2}\n", 3),
            ("matrix v1\ndim 200\n" + ("0 " * 199 + "1\n") * 200, 2),
        ],
        ids=["sparse-order-1", "pattern-over-cap", "pattern-over-cap-with-row", "matrix-over-cap"],
    )
    def test_header_errors_name_their_line(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert f"error: line {line}: " in err

    def test_one_entry_sparse_document_beyond_dense_cell_cap(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("tensor-sparse v1\norder 6\ndim 11\nentry 1 2 3 4 5 6 1.0\n")
        code, out, _ = run(capsys, ["analyze", str(path)])
        assert code == 0
        assert "document: sparse order=6 dim=11" in out
        assert "primitive: no" in out

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--help"])
        assert code == 0
        assert "usage" in out


class TestConstruct:
    def test_wielandt_matrix_to_stdout(self, capsys):
        code, out, err = run(capsys, ["construct", "wielandt", "--n", "5"])
        assert code == 0
        assert out.startswith("matrix v1\ndim 5\n")
        assert "gamma=17" in err

    def test_a0_round_trips_through_analyze(self, capsys, tmp_path):
        out_path = tmp_path / "a0.txt"
        code, out, _ = run(
            capsys,
            ["construct", "a0", "--n", "5", "--m", "5", "--out", str(out_path)],
        )
        assert code == 0
        assert "gamma=17" in out
        doc = parse_document(out_path.read_text())
        assert doc.kind == "pattern"
        code2, out2, _ = run(capsys, ["analyze", str(out_path)])
        assert code2 == 0 and "gamma: 17" in out2

    def test_ak_document(self, capsys, tmp_path):
        out_path = tmp_path / "ak.txt"
        code, out, _ = run(
            capsys,
            ["construct", "ak", "--n", "5", "--m", "5", "--k", "3", "--out", str(out_path)],
        )
        assert code == 0
        assert "gamma=8" in out

    def test_bt_document(self, capsys, tmp_path):
        out_path = tmp_path / "bt.txt"
        code, out, _ = run(
            capsys,
            ["construct", "bt", "--n", "5", "--m", "5", "--t", "11", "--out", str(out_path)],
        )
        assert code == 0
        assert "gamma=11" in out

    def test_small_matrix(self, capsys):
        code, out, err = run(capsys, ["construct", "small-matrix", "--n", "4", "--t", "3"])
        assert code == 0
        assert out.startswith("matrix v1\ndim 4\n")
        assert "gamma=3" in err

    def test_missing_parameter_message(self, capsys):
        code, _, err = run(capsys, ["construct", "ak", "--n", "5", "--m", "5"])
        assert code == 1
        assert "error: kind 'ak' requires --k" in err
        code, _, err = run(capsys, ["construct", "a0", "--n", "5"])
        assert code == 1
        assert "requires --m" in err

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run(
            capsys, ["construct", "ak", "--n", "5", "--m", "5", "--k", "13"]
        )
        assert code == 1
        assert "error:" in err

    def test_unknown_kind_rejected(self, capsys):
        code, _, _ = run(capsys, ["construct", "b0", "--n", "5"])
        assert code == 1


class TestExponentSet:
    def test_covers_interval(self, capsys):
        code, out, _ = run(capsys, ["exponent-set", "--m", "4", "--n", "4"])
        assert code == 0
        assert "t=4 kind=monomial-lift" in out
        assert "t=5 kind=wielandt-frontier k=1 gamma=5 ok" in out
        assert "achieved == expected (1..10)" in out

    def test_witness_files_parse_and_verify(self, capsys, tmp_path):
        wdir = tmp_path / "w"
        code, out, _ = run(
            capsys,
            ["exponent-set", "--m", "3", "--n", "3", "--emit-witnesses", str(wdir)],
        )
        assert code == 0
        files = sorted(wdir.iterdir())
        assert [f.name for f in files] == [
            "witness-t001.txt",
            "witness-t002.txt",
            "witness-t003.txt",
            "witness-t004.txt",
            "witness-t005.txt",
        ]
        from primdeg import analyze

        for i, f in enumerate(files, 1):
            doc = parse_document(f.read_text())
            assert analyze(doc.as_pattern_tensor()).gamma == i

    def test_json_lines_summary(self, capsys):
        code, out, _ = run(
            capsys, ["exponent-set", "--m", "3", "--n", "3", "--format", "json-lines"]
        )
        assert code == 0
        records = json_records(out)
        summary = [r for r in records if r["record"] == "degree-summary"][0]
        assert summary["complete"] is True
        assert summary["missing"] == []
        assert summary["expected_max"] == 5
        oks = [r["t"] for r in records if r["record"] == "degree" and r["status"] == "ok"]
        assert oks == [1, 2, 3, 4, 5]

    def test_dimension_guard(self, capsys):
        code, _, err = run(capsys, ["exponent-set", "--m", "20", "--n", "20"])
        assert code == 1
        assert "max-n" in err

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        import primdeg.cli as cli_mod

        def boom(order, dim):
            raise VerificationError("forced mismatch")

        monkeypatch.setattr(cli_mod, "exponent_set", boom)
        code, _, err = run(capsys, ["exponent-set", "--m", "3", "--n", "3"])
        assert code == 2
        assert "forced mismatch" in err


class TestOracleCheck:
    def test_all_trials_agree(self, capsys):
        code, out, _ = run(
            capsys,
            ["oracle-check", "--m", "3", "--n", "3", "--trials", "10", "--seed", "1"],
        )
        assert code == 0
        assert "10/10 agree" in out

    def test_matrix_mode_includes_gamma_cross_check(self, capsys):
        code, out, _ = run(
            capsys,
            ["oracle-check", "--m", "2", "--n", "4", "--trials", "8", "--seed", "2"],
        )
        assert code == 0
        assert "8/8 agree" in out

    def test_json_summary_counts(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "oracle-check",
                "--m",
                "3",
                "--n",
                "2",
                "--trials",
                "12",
                "--format",
                "json-lines",
            ],
        )
        assert code == 0
        summary = [r for r in json_records(out) if r["record"] == "oracle-summary"][0]
        assert summary["trials"] == 12
        assert summary["agreements"] == 12
        assert summary["associativity_triples"] == 12


    def test_without_numpy_names_the_oracle_extra(self):
        proc = run_python(
            "import sys; sys.modules['numpy'] = None\n"
            "from primdeg.cli import main\n"
            "sys.exit(main(['oracle-check', '--m', '2', '--n', '3']))\n"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "primdeg[oracle]" in errors[0]


class TestScan:
    def test_requires_order_below_dim(self, capsys):
        code, _, err = run(capsys, ["scan-open-problem", "--m", "4", "--n", "4"])
        assert code == 1
        assert "requires 3 <= order < dim" in err

    def test_header_marks_non_exhaustive(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan-open-problem", "--m", "3", "--n", "4", "--budget", "20", "--seed", "0"],
        )
        assert code == 0
        assert "NON-EXHAUSTIVE random sample" in out
        assert "not evidence of a gap" in out

    def test_deterministic_for_fixed_seed(self, capsys):
        argv = ["scan-open-problem", "--m", "3", "--n", "4", "--budget", "15", "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_seed_changes_sample(self, capsys):
        base = ["scan-open-problem", "--m", "3", "--n", "5", "--budget", "25"]
        _, out1, _ = run(capsys, base + ["--seed", "1"])
        _, out2, _ = run(capsys, base + ["--seed", "2"])
        assert out1 != out2

    def test_dim_guard(self, capsys):
        code, _, err = run(capsys, ["scan-open-problem", "--m", "3", "--n", "30"])
        assert code == 1
        assert "error:" in err

    def test_draws_match_random_pattern(self):
        # the scan hands gammas the row masks random_pattern draws, unminimized,
        # so the scan, oracle-check and the tests read one random stream
        for order, dim in ((3, 4), (3, 10), (5, 6)):
            a, b = random.Random(5), random.Random(5)
            for _ in range(50):
                rows = _random_rows(a, order, dim)
                t = random_pattern(b, order, dim)
                assert a.getstate() == b.getstate()
                assert [minimize_masks(masks) for masks in rows] == [f.masks for f in t.rows]


class TestGoldenOutput:
    """stdout digests recorded from the engine before the trace loops were
    merged into one; any byte change in these outputs is a regression."""

    def test_analyze_per_column_json_lines(self, capsys, tmp_path, monkeypatch):
        # The meta record carries the input path, so it is given relative.
        monkeypatch.chdir(tmp_path)
        assert main(["construct", "a0", "--m", "3", "--n", "12", "--out", "a0.txt"]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["analyze", "a0.txt", "--per-column", "--format", "json-lines"])
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "1d15288dd26169683da5b7e0d614b7544a68db352b41f319a9e966971c6730c9"
        )

    @pytest.mark.parametrize(
        "extra, digest",
        [
            # every column cycles within the default budget
            ([], "234f1930fd4565b1db05f449a35bd6f19d326dd115ac4ebe803aecc9aeab4f98"),
            # 11 columns cycle within 4 steps; 6 and 8 are traced alone and exhausted
            (["--max-k", "4"], "5fdda8b0edd2560abfa0e295601988031c507cc99ade6a2146c5c53205b27d08"),
        ],
    )
    def test_analyze_tails_and_periods(self, capsys, tmp_path, monkeypatch, extra, digest):
        # periods 1, 2 and 3 behind tails of lengths 1-3: the cycle-start pass
        # and the column_trace fallback, recorded before analyze and gammas
        # shared one sliced run
        arcs = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (8, 6), (6, 7), (7, 1), (10, 9), (9, 4), (13, 12)]
        monkeypatch.chdir(tmp_path)
        Path("tails.txt").write_text(render_pattern(make_pattern(2, 13, [(u, (i,)) for i, u in arcs])))
        code, out, _ = run(capsys, ["analyze", "tails.txt", "--per-column", "--format", "json-lines"] + extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_exponent_set(self, capsys):
        code, out, _ = run(capsys, ["exponent-set", "--m", "5", "--n", "5"])
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "b8acec8e2450ba9b5253666496837ee9d199047b873bcb63a254999f40aae95b"
        )

    def test_exponent_set_at_the_benchmark_size(self, capsys):
        # recorded while every witness was still verified by its own analyze
        code, out, _ = run(capsys, ["exponent-set", "--m", "16", "--n", "16", "--max-n", "16"])
        assert code == 0
        assert out.splitlines()[-1] == "achieved == expected (1..226)"
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "99f018a19253f74af2efbc7b6ba451950526025b3b779f3facca4eb67319a616"
        )

    def test_exponent_set_json_lines_with_witness_files(self, capsys, tmp_path):
        # stdout, and a sha256sum-style listing of the 26 witness files,
        # recorded while every witness was still verified by its own analyze
        wdir = tmp_path / "w"
        argv = ["exponent-set", "--m", "6", "--n", "6", "--format", "json-lines", "--emit-witnesses", str(wdir)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "be06f364aa21c851403daf91e3a6f641a157da73f7f0bfff1eacaf8c44412d4b"
        )
        listing = "".join(
            f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n" for f in sorted(wdir.iterdir())
        )
        assert listing.count("\n") == 26
        assert (
            hashlib.sha256(listing.encode()).hexdigest()
            == "59d01a3d22670dfff1f8e1ed10558c14598ce6faca04e7ec91d58f7748dcd602"
        )

    @pytest.mark.parametrize(
        "m, n, budget, seed, digest",
        [
            # 8 primitive of 500 (degrees 5-8); 500 = three 128-tensor batches and 116
            (3, 4, 500, 1, "82f0d50ba316786b8011785f0acdbed54d109742aacf28a05d0fa210747030a9"),
            # 11 primitive of 2000 (degrees 4-7)
            (3, 5, 2000, 1, "06dad3195fef4649714271b796d2c181da192c410a82899c2254834a49dae5ca"),
            # 1 primitive of 2000 (degree 10)
            (4, 6, 2000, 6, "1eea1f5c7076f73e394462652511192b99d692561ee2b9cc8bd3b0210616ccae"),
        ],
    )
    def test_scan_open_problem(self, capsys, m, n, budget, seed, digest):
        # recorded while the scan still analyzed one tensor at a time
        argv = ["scan-open-problem", "--m", str(m), "--n", str(n), "--budget", str(budget), "--seed", str(seed)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "m, n, budget, seed, digest",
        [
            (3, 4, 500, 1, "f3627115ce69f694a42fa282e2387d88dae78d607b63dd1c87ad0b3161c2117a"),
            (3, 5, 2000, 1, "acad11ee79bcd1ddbe3fbee6ba39217748a300884857ec9a0b837e1263b469bc"),
            (4, 6, 2000, 6, "ff325c20a75b1bb05cd0a45b08bb2d4a955268f1b3332f4dffbd33fe4874461b"),
        ],
    )
    def test_scan_open_problem_json_lines(self, capsys, m, n, budget, seed, digest):
        # the same scans as json-lines, recorded while the scan still built a
        # PatternTensor per draw
        argv = ["scan-open-problem", "--m", str(m), "--n", str(n), "--budget", str(budget), "--seed", str(seed)]
        code, out, _ = run(capsys, argv + ["--format", "json-lines"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTopLevel:
    def test_import_does_not_load_numpy(self):
        proc = run_python(
            "import sys, primdeg, primdeg.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_no_command_shows_usage(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, ["analyze", "--wat"])
        assert code == 1

    def test_version_like_help(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "analyze" in out and "construct" in out

    def test_unexpected_exception_exit_code(self, capsys, monkeypatch):
        import primdeg.cli as cli_mod

        def boom(order, dim):
            raise RuntimeError("unexpected state")

        monkeypatch.setattr(cli_mod, "exponent_set", boom)
        code, out, err = run(capsys, ["exponent-set", "--m", "3", "--n", "3"])
        assert code == 3
        assert out == ""
        assert "Traceback" in err and "RuntimeError: unexpected state" in err
        assert err.splitlines()[-1].startswith("elapsed: ")
