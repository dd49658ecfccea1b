import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import primdeg
from primdeg import families, patterns
from primdeg import IndexSet, ParseError, PatternTensor, VerificationError, as_pattern_tensor, degree_witness, load_document, make_pattern, parse_document, render_document, wielandt_tensor
from primdeg.bitsets import minimize_masks
from primdeg.cli import _COMMANDS, _random_rows, _subset_pool, build_parser, main, random_pattern
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


def run_python(code, *args, timeout=120):
    """Run ``code`` with ``args`` in a fresh interpreter that imports this primdeg."""
    env = dict(os.environ)
    src = str(Path(primdeg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=timeout
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

    @pytest.mark.parametrize(
        "budget, tail",
        [(["--max-k", "10"], "cycled first_repeat_at=3 period=2"), ([], "exhausted bound=2")],
    )
    def test_per_column_lines_of_a_column_that_does_not_reach(self, capsys, tmp_path, budget, tail):
        # the n = 2 row swap: both columns alternate {1} and {2}, which the
        # default budget of 2 steps cannot certify as a cycle
        path = tmp_path / "swap.txt"
        path.write_text(render_pattern(make_pattern(3, 2, [(1, (2, 2)), (2, (1, 1))])))
        code, out, _ = run(capsys, ["analyze", str(path), "--per-column", *budget])
        assert code == 0
        assert out.splitlines()[-2:] == [f"column {j}: gamma_j=- {tail}" for j in (1, 2)]

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

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"tensor-pattern v1\norder 3\ndim 2\nrow 1: {1}\nrow 2: {2} \xff\n", 5),
            (b"tensor-pattern v1\r\norder 3\r\n\r\ndim 2\r\nrow 1: {1}\xc3\r\n", 5),  # a cut-off sequence
            (b"\xfftensor-pattern v1\n", 1),
            (b"matrix v1\rdim 1\r\xe9\r", 3),
        ],
        ids=["lf", "crlf-blank-line", "first-byte", "cr"],
    )
    def test_a_byte_that_is_not_utf8_names_its_line(self, capsys, tmp_path, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: line {line}: not UTF-8: byte 0x")
        with pytest.raises(ParseError) as e:
            load_document(str(path))
        assert e.value.line_no == line

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

    @pytest.mark.parametrize(
        "text, error",
        [
            ("tensor-pattern v1\n", "line 1: missing 'order N' line"),
            ("matrix v1\n", "line 1: missing 'dim N' line"),
            ("tensor-sparse v1\norder 3\n", "line 2: missing 'dim N' line"),
        ],
        ids=["pattern", "matrix", "sparse"],
    )
    def test_a_truncated_header_names_its_last_line(self, capsys, tmp_path, text, error):
        path = tmp_path / "short.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert f"error: {error}\n" in err

    def test_budget_must_be_positive(self, capsys, wielandt_file):
        code, out, err = run(capsys, ["analyze", str(wielandt_file), "--max-k", "0"])
        assert code == 1
        assert out == ""
        assert "error: max_steps must be >= 1, got 0\n" in err

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
        assert isinstance(parse_document(out_path.read_text()), PatternTensor)
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

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (5, 1), (5, 7), (5, 12), (6, 20)])
    def test_ak_is_bt_at_n_plus_k(self, capsys, n, k):
        m = ["--m", str(n), "--n", str(n)]
        ak = run(capsys, ["construct", "ak", *m, "--k", str(k)])
        bt = run(capsys, ["construct", "bt", *m, "--t", str(n + k)])
        assert ak[0] == bt[0] == 0
        assert ak[1] == bt[1]
        assert ak[2].splitlines()[0] == bt[2].splitlines()[0] == f"gamma={n + k}"

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

    def test_small_matrix_with_a_wrong_exponent_exits_2(self, capsys, monkeypatch):
        from primdeg import families

        monkeypatch.setattr(families, "matrix_gamma", lambda m: 4)
        code, out, err = run(capsys, ["construct", "small-matrix", "--n", "4", "--t", "3"])
        assert code == 2
        assert out == ""
        assert "small_exponent_matrix(dim=4, target=3) self-check failed: exponent is 4" in err

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


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["construct", "wielandt", "--n", "200000"], 200000),
        (["construct", "a0", "--m", "3", "--n", "200000"], 200000),
        (["exponent-set", "--m", "60000", "--n", "60000", "--max-n", "60000"], 60000),
    ],
)
def test_a_dimension_over_the_cap_fails_before_any_build(argv, dim):
    # under a 1 GB address space and a 10 s timeout: the cap is checked
    # before n-bit rows are built and before the degrees 1..(n-1)^2+1 are
    code = "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    code += "from primdeg.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = run_python(code, *argv, timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines()[0] == f"error: dimension {dim} exceeds the cap 128 (set PRIMDEG_MAX_DIM to raise it)"


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
            assert analyze(as_pattern_tensor(parse_document(f.read_text()))).gamma == i

    def test_witness_files_render_the_degree_witnesses(self, capsys, tmp_path):
        # the files are written from tensors built on read; each is the
        # canonical document of degree_witness for its degree
        wdir = tmp_path / "w"
        code, _, _ = run(capsys, ["exponent-set", "--m", "5", "--n", "5", "--emit-witnesses", str(wdir)])
        assert code == 0
        files = sorted(wdir.iterdir())
        assert [f.name for f in files] == [f"witness-t{t:03d}.txt" for t in range(1, 18)]
        for t, f in enumerate(files, 1):
            assert f.read_bytes() == render_document(degree_witness(5, 5, t).tensor).encode()

    def test_witness_file_names_sort_in_degree_order_past_three_digits(self, capsys, tmp_path):
        # n = 33 reaches degree 1025, so names are padded to four digits
        wdir = tmp_path / "w"
        argv = ["exponent-set", "--m", "33", "--n", "33", "--max-n", "33", "--emit-witnesses", str(wdir)]
        code, _, _ = run(capsys, argv)
        assert code == 0
        names = sorted(f.name for f in wdir.iterdir())
        assert names == [f"witness-t{t:04d}.txt" for t in range(1, 1026)]

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

    def test_one_wrong_degree_is_reported_and_exits_2(self, capsys, monkeypatch):
        # the sweep records the frontier witness for degree 8 as failed and
        # the summary names it
        real = families.extra_support_gammas
        monkeypatch.setattr(
            families, "extra_support_gammas", lambda base, *rest: [None if g == 8 else g for g in real(base, *rest)]
        )
        code, out, _ = run(capsys, ["exponent-set", "--m", "5", "--n", "5"])
        assert code == 2
        lines = out.splitlines()
        assert "t=8 kind=- FAILED (degree_witness(order=5, dim=5, degree=8) self-check failed: analyzed degree is None)" in lines
        assert "t=8 kind=wielandt-frontier k=3 gamma=8 ok" not in lines
        assert lines[-1] == "MISMATCH: missing degrees [8] of 1..17"

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


    def test_a_shifted_engine_degree_is_a_mismatch(self, capsys, monkeypatch):
        # the order-2 degree check reads the dense powers, so an engine whose
        # every degree reads one too high disagrees with it: the sliced run
        # and, for a primitive matrix, the repeated squaring
        real_run, real_squared = patterns._sliced_run, patterns._squared_ends

        def shifted_run(*args, **kwargs):
            ends, *rest = real_run(*args, **kwargs)
            return [None if k is None else k + 1 for k in ends], *rest

        def shifted_squared(*args, **kwargs):
            return [None if k is None else k + 1 for k in real_squared(*args, **kwargs)]

        monkeypatch.setattr(patterns, "_sliced_run", shifted_run)
        monkeypatch.setattr(patterns, "_squared_ends", shifted_squared)
        code, out, _ = run(capsys, ["oracle-check", "--m", "2", "--n", "4", "--trials", "40", "--seed", "2"])
        assert code == 2
        assert "mismatch trial=" in out
        assert "/40 agree" in out and "40/40 agree" not in out

    def test_a_corrupted_trace_state_is_a_mismatch(self, capsys, monkeypatch):
        # flip one member of S_1 of column 2 as the cross-check reads it: every
        # route that compares states reports it, in every trial
        from primdeg import dense

        real = dense.column_states

        def corrupted(tensor, column, steps):
            states = real(tensor, column, steps)
            if column != 2:
                return states
            return (IndexSet(states[0].mask ^ 1, tensor.dim), *states[1:])

        monkeypatch.setattr(dense, "column_states", corrupted)
        code, out, _ = run(capsys, ["oracle-check", "--m", "3", "--n", "3", "--trials", "5", "--seed", "1"])
        assert code == 2
        assert "0/5 agree" in out
        for route in ("basis iterate support", "majorization recursion", "explicit power pattern"):
            assert out.count(f": {route} differs at j=2 k=1\n") == 5

    def test_trials_must_be_positive(self, capsys):
        code, out, err = run(capsys, ["oracle-check", "--m", "2", "--n", "3", "--trials", "0"])
        assert code == 1
        assert out == ""
        assert "trials must be >= 1" in err

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--m", "3", "--n", "17"], "random_pattern enumerates subsets; dim 17 > 16"),
            (["--m", "1", "--n", "3"], "order must be >= 2, got 1"),
            (["--m", "3", "--n", "3", "--max-k", "0"], "max-k must be >= 1, got 0"),
        ],
        ids=["dim-past-16", "order-1", "max-k-0"],
    )
    def test_parameters_out_of_range(self, capsys, args, error):
        code, out, err = run(capsys, ["oracle-check", *args])
        assert code == 1
        assert out == ""
        assert f"error: {error}\n" in err

    def test_without_numpy_in_process(self, capsys, monkeypatch):
        # the same path as the subprocess test below, run in process so that coverage of cli.py sees it
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(sys.modules, "primdeg.dense", raising=False)
        code, out, err = run(capsys, ["oracle-check", "--m", "2", "--n", "3"])
        assert code == 1
        assert out == ""
        assert "install the primdeg[oracle] extra" in err

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

    def test_budget_must_be_positive(self, capsys):
        code, out, err = run(capsys, ["scan-open-problem", "--m", "3", "--n", "4", "--budget", "0"])
        assert code == 1
        assert out == ""
        assert "budget must be >= 1" in err

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

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_draws_match_the_stdlib_calls(self, order):
        # the draw inlines randint(1, 3) and choice(pool): the same values,
        # and the generator left in the same state; order 2 at dims 1, 2, 4,
        # 8 and 16 has a pool whose size is a power of two, where the stdlib
        # reads one bit more than the index needs
        for dim in range(1, 17):
            pool = _subset_pool(order, dim)
            for seed in range(20):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    rows = _random_rows(rng, order, dim)
                    assert rows == [[ref.choice(pool) for _ in range(ref.randint(1, 3))] for _ in range(dim)]
                    assert rng.getstate() == ref.getstate()


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

    def test_construct_ak(self, capsys):
        # stdout of k = 1..12 at (5, 5), joined, recorded while the frontier
        # builder built its own tensor and the CLI analyzed it
        outs = []
        for k in range(1, 13):
            code, out, _ = run(capsys, ["construct", "ak", "--m", "5", "--n", "5", "--k", str(k)])
            assert code == 0
            outs.append(out)
        assert (
            hashlib.sha256("".join(outs).encode()).hexdigest()
            == "e378252e253f00beaf9fa0fbc2b765bb828fa59424a13cd8f5b75fcb4b8e18fe"
        )

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--m", "5", "--n", "2", "--k", "1"], "error: dim must be >= 3, got 2"),
            (["--m", "4", "--n", "5", "--k", "1"], "error: order must be >= dim, got order 4 < dim 5"),
            (["--m", "5", "--n", "5", "--k", "13"], "error: k must be in 1..12 for dim 5, got 13"),
        ],
    )
    def test_construct_ak_errors(self, capsys, args, error):
        code, out, err = run(capsys, ["construct", "ak", *args])
        assert code == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [error]

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
            # the benchmark's scan (bench/workloads.py SCAN_DIGESTS), which
            # pins the draw stream on every Python version the tests run on
            (3, 10, 2000, 0, "852b5750bc5ad7736b8ce5687873676fe651aab153ff95103a91e48dd93ad9a3"),
            # 0 primitive of 20000, and only 3 draws hold every singleton
            # support, so nearly all are decided at step 1 (CI pins it too)
            (3, 8, 20000, 0, "5c57fee5be436bdc8e1ffa5f3a6834069befe2822134c3a73c2d45b55e973834"),
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

    def test_import_does_not_load_dataclasses_inspect_or_traceback(self):
        # start-up cost: records are plain classes, and only the exit-3
        # handler imports traceback
        proc = run_python(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import primdeg.cli\n"
            "loaded = {'dataclasses', 'inspect', 'traceback'} & (set(sys.modules) - before)\n"
            "assert not loaded, loaded\n"
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
        assert all(f"\n    {command}" in out for command in _COMMANDS)

    @staticmethod
    def full_parser() -> argparse.ArgumentParser:
        """One parser of all five commands with their arguments."""
        full = argparse.ArgumentParser(prog="primdeg", description=build_parser().description)
        subparsers = full.add_subparsers(dest="command", required=True)
        for name, (help_text, add_args, _) in _COMMANDS.items():
            add_args(subparsers.add_parser(name, help=help_text))
        return full

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_command_help_is_the_full_parsers(self, capsys, command):
        # main parses a named command with that command's parser alone; its
        # help must be the bytes of the command's subparser in the full parser
        subparsers = next(a for a in self.full_parser()._actions if isinstance(a, argparse._SubParsersAction))
        code, out, _ = run(capsys, [command, "--help"])
        assert code == 0
        assert out == subparsers.choices[command].format_help()

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"]])
    def test_top_level_output_is_the_full_parsers(self, capsys, argv):
        # build_parser lists the commands without their arguments, which
        # --help, a missing command and an unknown one never read
        with pytest.raises(SystemExit):
            self.full_parser().parse_args(argv)
        expected = capsys.readouterr()
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (0 if argv == ["--help"] else 1, expected.out, expected.err)

    @pytest.mark.parametrize(
        "argv", [["bogus"], ["--format", "text", "analyze"], ["analyze"], ["construct", "wielandt"], ["exponent-set", "--m", "x"]]
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 1 and out == ""

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
