import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from jointrdf import cli, realization, sim, solve, solver, DistortionPair
from jointrdf.cli import main
from jointrdf.model import PSD_RTOL, SourceValidationError, parse_source
from conftest import EXAMPLE_Q
from helpers import fail_blocks_after_first


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_one_line(err):
    """A failure prints exactly one line on stderr and no traceback."""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def _tamper_realize(monkeypatch, factor=1.0 - 1e-3):
    """Make the CLI realize its channel from factor * Sigma instead of the
    solver's Sigma; the default fails the reproduction check."""
    honest = realization.realize
    monkeypatch.setattr(
        realization, "realize", lambda src, sigma: honest(src, factor * sigma.sigma)
    )


class TestSolveCommand:
    def test_case1_json(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "0.4", "--d2", "0.5"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj.keys() == {"d1", "d2", "unit", "rate", "branch", "gray_bound", "sigma",
                              "kkt", "iterations", "wall_time_s"}
        assert obj["branch"] == "ClosedFormInteriorD"
        np.testing.assert_allclose(
            np.array(obj["sigma"]), np.diag([0.2, 0.2, 0.25, 0.25]), atol=1e-12
        )

    def test_case2_json(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "1.65", "--d2", "1.85"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["branch"] == "InteriorPoint"
        assert obj["kkt"]["stationarity_residual"] <= 1e-7
        assert len(obj["kkt"]["slackness_residuals"]) == 3

    def test_sigma_payload_roundtrips_bit_exact(self, example_source, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "1.65", "--d2", "1.85"
        )
        assert code == 0
        emitted = np.array(json.loads(out)["sigma"])
        direct = solve(example_source, DistortionPair(1.65, 1.85)).sigma.sigma
        assert np.array_equal(emitted, direct)

    def test_bits_conversion(self, example_source_file, capsys):
        _, out_nats, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "0.4", "--d2", "0.5"
        )
        _, out_bits, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--unit", "bits",
        )
        nats = json.loads(out_nats)["rate"]
        bits = json.loads(out_bits)["rate"]
        assert abs(bits - nats / math.log(2.0)) <= 1e-12

    def test_reaches_dual_stopping_rule(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "1.65", "--d2", "1.85"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["branch"] == "InteriorPoint"
        assert obj["iterations"] == 5
        # both multipliers are positive, so both traces meet their budgets
        # to TRACE_SLACK_TOL of the budget
        sigma = np.array(obj["sigma"])
        assert obj["kkt"]["lambda1"] > 0.0 and obj["kkt"]["lambda2"] > 0.0
        for tr, di in ((np.trace(sigma[:2, :2]), 1.65), (np.trace(sigma[2:, 2:]), 1.85)):
            assert abs(tr - di) <= solver.TRACE_SLACK_TOL * di

    def test_zero_budget_exits_3(self, example_source_file, capsys):
        code, _, err = run_cli(
            capsys, "solve", example_source_file, "--d1", "0", "--d2", "1"
        )
        assert code == 3
        assert "infinite" in err

    @pytest.mark.parametrize("command, extra", [
        ("realize", ()), ("verify", ("--samples", "1000", "--seed", "1")),
    ])
    def test_zero_budget_exits_3_like_solve(self, example_source_file, capsys, command, extra):
        budgets = ("--d1", "0", "--d2", "1")
        _, _, solve_err = run_cli(capsys, "solve", example_source_file, *budgets)
        code, out, err = run_cli(capsys, command, example_source_file, *budgets, *extra)
        assert code == 3
        assert out == ""
        assert err == solve_err

    def test_capped_dual_solve_exits_1(self, example_source_file, capsys, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_EVALUATIONS", 2)
        code, out, err = run_cli(
            capsys, "solve", example_source_file, "--d1", "1.65", "--d2", "1.85"
        )
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_tiny_budgets_report_a_finite_residual(self, example_source_file, capsys):
        # ||0.5 Sigma^{-1}||_F overflows here unless it is scaled first
        with np.errstate(over="raise", invalid="raise"):
            code, out, _ = run_cli(
                capsys, "solve", example_source_file, "--d1", "1e-300", "--d2", "1e-300"
            )
        assert code == 0
        obj = json.loads(out)
        assert obj["branch"] == "ClosedFormInteriorD"
        assert obj["kkt"]["stationarity_residual"] <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("budgets", [("1e-308", "1e-308"), ("5e-324", "5e-324"),
                                         ("5e-324", "1")])
    def test_unrepresentable_multiplier_exits_2_with_one_line(
        self, example_source_file, capsys, budgets
    ):
        # the start multiplier p / (2 d) or the matrix it scales overflows
        code, out, err = run_cli(
            capsys, "solve", example_source_file, "--d1", budgets[0], "--d2", budgets[1]
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "not representable" in err and "budget d1" in err

    def test_failed_allocation_exits_1(self, example_source_file, capsys):
        # 1e15 samples of 4 doubles is 28 PiB, which numpy refuses outright,
        # so nothing is allocated
        code, out, err = run_cli(
            capsys, "verify", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--samples", "1000000000000000", "--seed", "1",
        )
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("internal failure:")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command, extra", [
        ("solve", ("--d1", "1.65", "--d2", "1.85")),
        ("sweep", ("--grid", "1:2:2,1:2:2")),
        ("realize", ("--d1", "1.65", "--d2", "1.85")),
        ("verify", ("--d1", "1.65", "--d2", "1.85", "--samples", "1000", "--seed", "1")),
    ])
    def test_bad_tol_gap_exits_2(self, example_source_file, capsys, command, extra, tol):
        # a solve takes no tolerance, so every --tol-gap is refused
        with pytest.raises(SystemExit) as exc:
            main([command, example_source_file, *extra, "--tol-gap", tol])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --tol-gap" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", str(bad), "--d1", "1", "--d2", "1")
        assert code == 2
        assert "invalid source" in err

    @pytest.mark.parametrize("q", [[["a"]], [[1.0, 0.0], [0.0]]], ids=["string", "ragged"])
    def test_non_numeric_q_exits_2(self, tmp_path, capsys, q):
        path = tmp_path / "source.json"
        path.write_text(json.dumps({"p1": 1, "p2": 1, "Q": q}))
        code, out, err = run_cli(capsys, "canonical", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("invalid source: source document must carry p1, p2 and Q")

    @pytest.mark.parametrize(
        "p1, p2",
        [(True, 3), ("2", 2), (2.0, 2), (2.5, 2), (2, 2.0)],
        ids=["true", "string", "float", "fraction", "float-p2"],
    )
    def test_non_integer_block_size_exits_2(self, tmp_path, capsys, p1, p2):
        # each of these used to be coerced to block sizes that fit the 4x4 Q
        doc = {"p1": p1, "p2": p2, "Q": EXAMPLE_Q.tolist()}
        with pytest.raises(SourceValidationError, match="must be integers"):
            parse_source(doc)
        path = tmp_path / "source.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "canonical", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("invalid source: p1 and p2 must be integers")

    @pytest.mark.parametrize("command, extra", [
        ("solve", ("--d1", "0.5", "--d2", "0.5")),
        ("sweep", ("--grid", "0.5:1:2,0.5:1:2")),
        ("realize", ("--d1", "0.5", "--d2", "0.5")),
        ("verify", ("--d1", "0.5", "--d2", "0.5", "--samples", "1000", "--seed", "1")),
        ("canonical", ()),
    ])
    def test_singular_source_exits_2(self, tmp_path, capsys, command, extra):
        doc = tmp_path / "singular.json"
        doc.write_text(json.dumps({"p1": 2, "p2": 1, "Q": np.diag([1.0, 0.0, 1.0]).tolist()}))
        code, out, err = run_cli(capsys, command, str(doc), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid source: covariance is not positive definite")

    def test_asymmetric_matrix_exits_2(self, tmp_path, capsys):
        q = EXAMPLE_Q.copy()
        q[0, 1] += 1e-3
        doc = tmp_path / "asym.json"
        doc.write_text(json.dumps({"p1": 2, "p2": 2, "Q": q.tolist()}))
        code, _, err = run_cli(capsys, "solve", str(doc), "--d1", "1", "--d2", "1")
        assert code == 2

    def test_csv_output_single_row(self, example_source_file, capsys):
        # the CSV row of a single solve comes from a one-point sweep
        code, out, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "0.4:0.4:1,0.5:0.5:1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d1,d2,rate,branch,gray_bound"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 5
        assert fields[3] == "ClosedFormInteriorD"

    def test_csv_output_refused(self, example_source_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", example_source_file, "--d1", "0.4", "--d2", "0.5", "--output", "csv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --output csv" in err


class TestSweepCommand:
    def test_grid_rows_and_ordering(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "0.5:7:4,0.5:6:4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d1,d2,rate,branch,gray_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 16
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)
        # the top corner exceeds both block traces: zero rate
        assert rows[-1][3] == "ZeroRate"
        assert float(rows[-1][2]) == 0.0
        # rates non-increasing along each axis
        rates = np.array([float(r[2]) for r in rows]).reshape(4, 4)
        assert np.all(np.diff(rates, axis=0) <= 1e-8)
        assert np.all(np.diff(rates, axis=1) <= 1e-8)

    def test_single_point_grid_matches_solve(self, example_source_file, capsys):
        code, sweep_out, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "0.4:0.4:1,0.5:0.5:1"
        )
        assert code == 0
        row = sweep_out.strip().splitlines()[1].split(",")
        code, solve_out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "0.4", "--d2", "0.5"
        )
        obj = json.loads(solve_out)
        assert row == [f"{obj['d1']:.12g}", f"{obj['d2']:.12g}", f"{obj['rate']:.12g}",
                       obj["branch"], f"{obj['gray_bound']:.12g}"]

    def test_values_use_12_significant_digits(self, example_source_file, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "0.4:0.4:1,0.5:0.5:1"
        )
        rate_field = out.strip().splitlines()[1].split(",")[2]
        assert rate_field == f"{4.637126643586592:.12g}"

    def test_parallel_jobs_identical_output(self, example_source_file, capsys):
        _, serial, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "0.8:2.2:3,0.9:2.1:3"
        )
        _, parallel, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "0.8:2.2:3,0.9:2.1:3",
            "--jobs", "2",
        )
        assert serial == parallel

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_exits_2(self, example_source_file, capsys, jobs):
        code, out, err = run_cli(
            capsys, "sweep", example_source_file, "--grid", "1:2:2,1:2:2", "--jobs", jobs
        )
        assert code == 2
        assert out == ""
        assert "invalid input" in err and "--jobs" in err

    def test_bad_grid_exits_2(self, example_source_file, capsys):
        # a zero bound, one axis, and an axis without a step count
        for grid in ("0:3:5,1:2:2", "1:2:2", "1:2,1:2:2"):
            code, out, err = run_cli(capsys, "sweep", example_source_file, "--grid", grid)
            assert code == 2
            assert out == ""
            _assert_one_line(err)
            assert "grid" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "grid", ["0.1:inf:2,1:2:2", "0.1:1e309:2,1:2:2", "1:2:2,0.1:inf:2", "1:2:2,0.1:1e309:2"]
    )
    def test_infinite_grid_bound_exits_2_with_one_line(self, example_source_file, capsys, grid):
        code, _, err = run_cli(capsys, "sweep", example_source_file, "--grid", grid)
        assert code == 2
        assert len(err.splitlines()) == 1 and "grid" in err

    def test_unrepresentable_budget_exits_2(self, example_source_file, capsys):
        code, out, err = run_cli(
            capsys, "sweep", example_source_file, "--grid", "1e-320:1e-320:1,1:1:1"
        )
        assert code == 2
        assert out == ""
        _assert_one_line(err)
        assert err.startswith("invalid input:") and "not representable" in err

    def test_failed_point_exits_1_and_names_it(self, example_source_file, monkeypatch, capsys):
        honest = cli.solve

        def failing(src, d):
            if (d.d1, d.d2) == (2.0, 1.0):
                raise RuntimeError("ratio bracket collapsed")
            return honest(src, d)

        monkeypatch.setattr(cli, "solve", failing)
        code, out, err = run_cli(capsys, "sweep", example_source_file, "--grid", "1:2:2,1:2:2")
        assert code == 1
        assert out == ""
        _assert_one_line(err)
        assert err == "sweep failed at grid point (d1=2, d2=1): ratio bracket collapsed\n"

    def test_rising_rate_exits_1(self, example_source_file, monkeypatch, capsys):
        honest = cli.solve

        def rising(src, d):
            report = honest(src, d)
            if (d.d1, d.d2) == (2.0, 2.0):  # raised one nat: the rate rises into (2, 2)
                return dataclasses.replace(report, rate_nats=report.rate_nats + 1.0)
            return report

        monkeypatch.setattr(cli, "solve", rising)
        code, out, err = run_cli(capsys, "sweep", example_source_file, "--grid", "1:2:2,1:2:2")
        assert code == 1
        assert out == ""
        _assert_one_line(err)
        assert err == "sweep rates are not non-increasing near (d1=2, d2=2)\n"

    def test_json_output(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "1:2:2,1:2:2",
            "--output", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(row.keys() == {"d1", "d2", "rate", "branch", "gray_bound"} for row in rows)


class TestRealizeCommand:
    @pytest.mark.parametrize("budgets", [("0.4", "0.5"), ("1.65", "1.85")])
    def test_structural_checks_pass(self, example_source_file, capsys, budgets):
        rank = {"0.4": 4, "1.65": 3}[budgets[0]]  # Q - Sigma is singular at (1.65, 1.85)
        code, out, _ = run_cli(
            capsys, "realize", example_source_file, "--d1", budgets[0], "--d2", budgets[1]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["checks"]["passed"] is True
        assert obj["checks"]["condition1_deviation"] <= 1e-8
        assert obj["checks"]["reproduction_error"] <= 1e-8
        assert obj["checks"]["tolerance"] == 1e-8
        assert obj["checks"].keys() == {"condition1_deviation", "condition1_rank",
                                        "reproduction_error", "tolerance", "passed"}
        assert obj["checks"]["condition1_rank"] == rank
        h = np.array(obj["H"])
        assert h.shape == (4, 4)

    @pytest.mark.parametrize("c, tamper, expected", [
        (1e8, False, 0),  # round-off of 4e-7 absolute is 5e-15 of ||Q||_2
        (1e-8, True, 4),  # 1e-3 of Sigma is 2e-11 absolute
    ])
    def test_checks_are_relative_to_q(self, tmp_path, monkeypatch, capsys, c, tamper, expected):
        if tamper:
            _tamper_realize(monkeypatch)
        doc = tmp_path / "scaled.json"
        doc.write_text(json.dumps({"p1": 2, "p2": 2, "Q": (c * EXAMPLE_Q).tolist()}))
        code, _, _ = run_cli(
            capsys, "realize", str(doc), "--d1", repr(1.65 * c), "--d2", repr(1.85 * c)
        )
        assert code == expected

    @pytest.mark.parametrize("flag", [("--tol-check", "1e-8"), ("--debug-tamper-sigma", "1e-3")])
    def test_removed_flags_rejected(self, example_source_file, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["realize", example_source_file, "--d1", "0.4", "--d2", "0.5", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tampered_sigma_exits_4(self, example_source_file, monkeypatch, capsys):
        _tamper_realize(monkeypatch)
        code, out, err = run_cli(
            capsys, "realize", example_source_file, "--d1", "0.4", "--d2", "0.5"
        )
        assert code == 4
        _assert_one_line(err)
        assert err == "structural failure: realization checks exceeded tolerance\n"
        obj = json.loads(out)
        assert obj["checks"]["passed"] is False
        assert obj["checks"]["reproduction_error"] > 1e-8

    def test_rejected_realization_exits_4(self, example_source_file, monkeypatch, capsys):
        # Q - (1 + 1e-3) Sigma has eigenvalue -5.2e-4, so realize refuses it
        # and no document is printed
        _tamper_realize(monkeypatch, 1.0 + 1e-3)
        code, out, err = run_cli(
            capsys, "realize", example_source_file, "--d1", "1.65", "--d2", "1.85"
        )
        assert code == 4
        assert out == ""
        _assert_one_line(err)
        assert err.startswith("structural failure: realization rejected: Q - sigma is not PSD")


class TestVerifyCommand:
    def test_rejected_realization_exits_4_like_realize(self, example_source_file, monkeypatch,
                                                       capsys):
        # the refusal that realize reports as a structural failure
        _tamper_realize(monkeypatch, 1.0 + 1e-3)
        code, out, err = run_cli(
            capsys, "verify", example_source_file, "--d1", "1.65", "--d2", "1.85",
            "--samples", "100000", "--seed", "7",
        )
        assert code == 4
        assert out == ""
        _assert_one_line(err)
        assert err.startswith("structural failure: realization rejected: Q - sigma is not PSD")

    def test_failure_in_a_sampling_thread_exits_1(self, example_source_file, monkeypatch,
                                                  capsys):
        threads = threading.active_count()
        fail_blocks_after_first(monkeypatch)
        code, out, err = run_cli(
            capsys, "verify", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--samples", str(2 * sim._BLOCK_ROWS + 17), "--seed", "7",
        )
        assert code == 1
        assert out == ""
        _assert_one_line(err)
        assert err.startswith("internal failure: failure in block")
        assert threading.active_count() == threads

    def test_moderate_sample_run_passes(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "verify", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--samples", "200000", "--seed", "31415",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj.keys() == {"samples", "seed", "generator", "distortion", "cm_optimality",
                              "passed", "solve"}
        assert obj["passed"] is True
        assert obj["generator"] == "sfc64"
        assert obj["distortion"]["passed"] is True
        assert obj["cm_optimality"]["passed"] is True

    def test_insufficient_samples_skips_checks(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "verify", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--samples", "10", "--seed", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj.keys() == {"samples", "seed", "generator", "warning", "minimum_samples",
                              "checks_skipped"}
        assert obj["warning"] == "insufficient samples"
        assert obj["checks_skipped"] is True

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one_exits_2(self, example_source_file, capsys, samples):
        code, out, err = run_cli(
            capsys, "verify", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--samples", samples, "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "invalid input" in err and "--samples" in err

    def test_failed_distortion_check_exits_5(self, example_source_file, monkeypatch, capsys):
        # a channel from 1.2 Sigma overshoots both budgets by 20%
        _tamper_realize(monkeypatch, 1.2)
        code, out, err = run_cli(
            capsys, "verify", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--samples", "100000", "--seed", "7",
        )
        assert code == 5
        _assert_one_line(err)
        assert err == "statistical check failed\n"
        obj = json.loads(out)
        assert obj["passed"] is False
        assert obj["distortion"]["passed"] is False


class TestCanonicalCommand:
    def test_example_source(self, example_source_file, capsys):
        code, out, _ = run_cli(capsys, "canonical", example_source_file)
        assert code == 0
        obj = json.loads(out)
        assert obj.keys() == {"p1", "p2", "S1", "S2", "d1_vals", "d2_vals", "d4_vals",
                              "partition", "det_identity_residual"}
        assert obj["partition"] == {"p12": 2, "p13": 0, "p22": 2, "p23": 0}
        assert len(obj["d4_vals"]) == 2
        assert all(0.0 < v < 1.0 for v in obj["d4_vals"])
        assert obj["det_identity_residual"] <= 1e-10

    def test_identity_source_empty_d4(self, tmp_path, capsys):
        doc = tmp_path / "id.json"
        doc.write_text(json.dumps({"p1": 2, "p2": 2, "Q": np.eye(4).tolist()}))
        code, out, _ = run_cli(capsys, "canonical", str(doc))
        assert code == 0
        assert json.loads(out)["d4_vals"] == []

    def test_rank_deficient_marginal_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "rankdef.json"
        doc.write_text(
            json.dumps({"p1": 2, "p2": 1, "Q": np.diag([1.0, 0.0, 1.0]).tolist()})
        )
        code, _, err = run_cli(capsys, "canonical", str(doc))
        assert code == 2

    @pytest.mark.parametrize("flag", [("--unit", "bits"), ("--d1", "1")])
    def test_solver_flags_rejected(self, example_source_file, capsys, flag):
        # canonical never solves, so it refuses the solver's flags
        with pytest.raises(SystemExit) as exc:
            main(["canonical", example_source_file, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _strict_json(text):
    """json.loads that refuses the non-standard NaN, Infinity and -Infinity."""

    def refuse(name):
        raise ValueError(f"not valid JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestPositiveDefiniteCutoff:
    """Q = U diag(lmin, 0.5, 1, 1) U^T with p1 = p2 = 2, near the cutoff
    lmin = PSD_RTOL * ||Q||_2 = 1e-10."""

    @staticmethod
    def _write(tmp_path, q):
        doc = tmp_path / "cutoff.json"
        doc.write_text(json.dumps({"p1": 2, "p2": 2, "Q": q.tolist()}))
        return str(doc)

    @pytest.mark.parametrize("command, extra", [
        ("canonical", ()),
        ("solve", ("--d1", "0.9", "--d2", "0.9")),
        ("realize", ("--d1", "0.9", "--d2", "0.9")),
    ])
    def test_accepted_just_above(self, tmp_path, capsys, command, extra):
        for seed in range(4):
            v, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
            q = (v * np.array([2e-10, 0.5, 1.0, 1.0])) @ v.T
            code, out, _ = run_cli(capsys, command, self._write(tmp_path, 0.5 * (q + q.T)), *extra)
            assert code == 0
            obj = _strict_json(out)
            if command == "canonical":
                assert obj["partition"] == {"p12": 2, "p13": 0, "p22": 2, "p23": 0}
                # round-off of about cond(Q) * eps = 1.1e-6
                assert obj["det_identity_residual"] <= 1e-5

    def test_refused_at_cutoff(self, tmp_path, capsys):
        # unrotated, so eigh returns lmin and ||Q||_2 exactly
        q = np.diag([PSD_RTOL, 0.5, 1.0, 1.0])
        code, out, err = run_cli(capsys, "canonical", self._write(tmp_path, q))
        assert code == 2
        assert out == ""
        assert err.startswith("invalid source: covariance is not positive definite")


class TestOutputFile:
    def test_out_flag_writes_file(self, example_source_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "-o", str(target),
        )
        assert code == 0
        assert out == ""
        obj = json.loads(target.read_text())
        assert obj["branch"] == "ClosedFormInteriorD"

    @pytest.mark.parametrize("argv", [
        ("solve", "--d1", "0.4", "--d2", "0.5"),
        ("sweep", "--grid", "1:2:2,1:2:2"),
        ("realize", "--d1", "0.4", "--d2", "0.5"),
        ("verify", "--d1", "0.4", "--d2", "0.5", "--samples", "1000", "--seed", "1"),
        ("canonical",),
    ])
    def test_unwritable_out_exits_2(self, example_source_file, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(
            capsys, argv[0], example_source_file, *argv[1:], "-o", str(target)
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("invalid output path:")
        assert "Traceback" not in err
        assert not target.parent.exists()


class _ClosedPipe:
    """A stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestBrokenPipe:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("sweep", "--grid", "0.1:3:3,0.1:3:3"), 0),
            (("realize", "--d1", "0.4", "--d2", "0.5"), 4),  # with a tampered Sigma
        ],
    )
    def test_closed_reader_keeps_exit_code(
        self, example_source_file, tmp_path, monkeypatch, capsys, argv, expected
    ):
        if argv[0] == "realize":
            _tamper_realize(monkeypatch)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            code = main([argv[0], example_source_file, *argv[1:]])
            # stdout's descriptor now points at devnull, so the final flush
            # at interpreter exit cannot raise again
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == expected
        assert "Traceback" not in capsys.readouterr().err


class TestColdProcess:
    """`python -m jointrdf.cli` in a fresh interpreter, through sys.exit(main())."""

    @pytest.mark.parametrize("budgets, expected", [(("1.65", "1.85"), 0), (("0", "1"), 3)])
    def test_module_entry_point(self, example_source_file, budgets, expected):
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "jointrdf.cli", "solve", example_source_file,
             "--d1", budgets[0], "--d2", budgets[1]],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == expected
        if expected == 0:
            assert proc.stderr == ""
            assert json.loads(proc.stdout)["branch"] == "InteriorPoint"
        else:
            assert proc.stdout == ""
            _assert_one_line(proc.stderr)
            assert proc.stderr.startswith("infeasible:")
