import json
import math
import os
import sys

import numpy as np
import pytest

from jointrdf import solve, solver, DistortionPair
from jointrdf.cli import main
from conftest import EXAMPLE_Q


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_case1_json(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "0.4", "--d2", "0.5"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["branch"] == "ClosedFormInteriorD"
        assert obj["in_region_d"] is True
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

    @pytest.mark.parametrize(
        "flags, evaluations, gap_bound", [((), 4, 1e-9), (("--tol-gap", "1e-2"), 3, 1e-2)]
    )
    def test_tol_gap_reaches_dual_stopping_rule(
        self, example_source_file, capsys, flags, evaluations, gap_bound
    ):
        code, out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "1.65", "--d2", "1.85", *flags
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["branch"] == "InteriorPoint"
        assert obj["iterations"] == evaluations
        sigma = np.array(obj["sigma"])
        gap = abs(obj["kkt"]["lambda1"] * (np.trace(sigma[:2, :2]) - 1.65)) + abs(
            obj["kkt"]["lambda2"] * (np.trace(sigma[2:, 2:]) - 1.85)
        )
        assert gap <= gap_bound

    def test_zero_budget_exits_3(self, example_source_file, capsys):
        code, _, err = run_cli(
            capsys, "solve", example_source_file, "--d1", "0", "--d2", "1"
        )
        assert code == 3
        assert "infinite" in err

    def test_capped_dual_solve_exits_1(self, example_source_file, capsys, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_EVALUATIONS", 2)
        code, out, err = run_cli(
            capsys, "solve", example_source_file, "--d1", "1.65", "--d2", "1.85"
        )
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", str(bad), "--d1", "1", "--d2", "1")
        assert code == 2
        assert "invalid source" in err

    def test_asymmetric_matrix_exits_2(self, tmp_path, capsys):
        q = EXAMPLE_Q.copy()
        q[0, 1] += 1e-3
        doc = tmp_path / "asym.json"
        doc.write_text(json.dumps({"p1": 2, "p2": 2, "Q": q.tolist()}))
        code, _, err = run_cli(capsys, "solve", str(doc), "--d1", "1", "--d2", "1")
        assert code == 2

    def test_csv_output_single_row(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d1,d2,rate,branch,gray_bound,in_region_d"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[3] == "ClosedFormInteriorD"
        assert fields[5] == "true"


class TestSweepCommand:
    def test_grid_rows_and_ordering(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "0.5:7:4,0.5:6:4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d1,d2,rate,branch,gray_bound,in_region_d"
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
            capsys, "solve", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--output", "csv",
        )
        assert row == solve_out.strip().splitlines()[1].split(",")

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

    def test_bad_grid_exits_2(self, example_source_file, capsys):
        code, _, err = run_cli(
            capsys, "sweep", example_source_file, "--grid", "0:3:5,1:2:2"
        )
        assert code == 2
        assert "grid" in err

    def test_json_output(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", example_source_file, "--grid", "1:2:2,1:2:2",
            "--output", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert {"d1", "d2", "rate", "branch", "gray_bound", "in_region_d"} <= rows[0].keys()


class TestRealizeCommand:
    @pytest.mark.parametrize("budgets", [("0.4", "0.5"), ("1.65", "1.85")])
    def test_structural_checks_pass(self, example_source_file, capsys, budgets):
        code, out, _ = run_cli(
            capsys, "realize", example_source_file, "--d1", budgets[0], "--d2", budgets[1]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["checks"]["passed"] is True
        assert obj["checks"]["condition1_deviation"] <= 1e-8
        assert obj["checks"]["reproduction_error"] <= 1e-8
        h = np.array(obj["H"])
        assert h.shape == (4, 4)

    def test_check_tolerance_does_not_move_rank(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "realize", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--tol-check", "1e-15",
        )
        assert code == 4  # round-off exceeds the 1e-15 pass threshold
        checks = json.loads(out)["checks"]
        assert checks["condition1_rank"] == 4
        assert checks["full_rank"] is True

    def test_tampered_sigma_exits_4(self, example_source_file, capsys):
        code, out, err = run_cli(
            capsys, "realize", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--debug-tamper-sigma", "1e-3",
        )
        assert code == 4
        assert "structural failure" in err
        obj = json.loads(out)
        assert obj["checks"]["passed"] is False
        assert obj["checks"]["reproduction_error"] > 1e-8


class TestVerifyCommand:
    def test_moderate_sample_run_passes(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "verify", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--samples", "200000", "--seed", "31415",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert obj["generator"] == "philox4x64"
        assert obj["distortion"]["passed"] is True
        assert obj["cm_optimality"]["passed"] is True

    def test_insufficient_samples_skips_checks(self, example_source_file, capsys):
        code, out, _ = run_cli(
            capsys, "verify", example_source_file, "--d1", "0.4", "--d2", "0.5",
            "--samples", "10", "--seed", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["warning"] == "insufficient samples"
        assert obj["checks_skipped"] is True


class TestCanonicalCommand:
    def test_example_source(self, example_source_file, capsys):
        code, out, _ = run_cli(capsys, "canonical", example_source_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["partition"] == {
            "p11": 0, "p12": 2, "p13": 0, "p21": 0, "p22": 2, "p23": 0,
        }
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

    @pytest.mark.parametrize("flag", [("--tol-gap", "5"), ("--unit", "bits")])
    def test_solver_flags_rejected(self, example_source_file, capsys, flag):
        # canonical never solves, so it refuses the solver's flags
        with pytest.raises(SystemExit) as exc:
            main(["canonical", example_source_file, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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
            (("realize", "--d1", "0.4", "--d2", "0.5", "--debug-tamper-sigma", "1e-3"), 4),
        ],
    )
    def test_closed_reader_keeps_exit_code(
        self, example_source_file, tmp_path, monkeypatch, capsys, argv, expected
    ):
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
