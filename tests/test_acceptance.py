"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each test prints PASS/FAIL with its wall time even when an
assertion trips, so the gate status is always visible.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from jointrdf import (
    DistortionPair,
    SolveBranch,
    check_cm_optimality,
    check_distortion,
    conditional_mean_map,
    cvf_objective,
    det_identity_residual,
    gray_lower_bound,
    in_region_d,
    push_channel,
    rate_of,
    realize,
    sample_source,
    solve,
    to_canonical_form,
    validate_source,
    verify_condition1,
)
from jointrdf.cli import main as cli_main
from conftest import CASE2_SIGMA_3SF
from helpers import random_pd_pair, scalar_bruteforce_rate


@contextmanager
def criterion(num: int, description: str):
    ok = False
    start = time.perf_counter()
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {num}: {status} ({elapsed:.2f}s) {description}")


def _region_instances(count: int = 50, seed: int = 20240811):
    """Random positive-definite sources with budgets inside the closed-form region."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        p1 = int(rng.integers(1, 5))
        p2 = int(rng.integers(1, 5))
        src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
        lam_min = float(np.linalg.eigvalsh(src.q)[0])
        d = DistortionPair(
            float(rng.uniform(0.2, 0.8)) * p1 * lam_min,
            float(rng.uniform(0.2, 0.8)) * p2 * lam_min,
        )
        if in_region_d(src, d):
            instances.append((src, d))
    return instances


@pytest.fixture(scope="module")
def region_instances():
    return _region_instances()


def test_criterion_1_case1_reproduction(example_source, case1):
    with criterion(1, "closed-form reproduction at budgets (0.4, 0.5)"):
        start = time.perf_counter()
        report = solve(example_source, case1)
        elapsed = time.perf_counter() - start
        expected = np.diag([0.2, 0.2, 0.25, 0.25])
        assert np.abs(report.sigma.sigma - expected).max() <= 1e-4
        assert report.branch is SolveBranch.CLOSED_FORM_INTERIOR_D
        assert np.linalg.eigvalsh(example_source.q - report.sigma.sigma)[0] > 0.0
        assert elapsed < 1.0


def test_criterion_2_case2_reproduction(example_source, case2):
    with criterion(2, "interior-point reproduction at budgets (1.65, 1.85)"):
        start = time.perf_counter()
        report = solve(example_source, case2)
        elapsed = time.perf_counter() - start
        assert np.abs(report.sigma.sigma - CASE2_SIGMA_3SF).max() <= 5e-3
        w = np.linalg.eigvalsh(example_source.q - report.sigma.sigma)
        norm_q = float(np.abs(np.linalg.eigvalsh(example_source.q)).max())
        assert w[0] >= -1e-10 * norm_q  # PSD within tolerance
        assert w[0] <= 1e-6 * norm_q  # boundary contact
        assert np.abs(report.sigma.sigma[:2, 2:]).max() > 1e-3  # cross coupling present
        assert elapsed < 5.0


def test_criterion_3_gray_equality_on_region(region_instances):
    with criterion(3, "additive-bound equality on 50 random region points"):
        start = time.perf_counter()
        for src, d in region_instances:
            report = solve(src, d)
            assert report.in_region_d
            assert abs(report.rate_nats - gray_lower_bound(src, d)) <= 1e-6
        assert time.perf_counter() - start < 30.0


def test_criterion_4_kkt_certification(example_source, case2, region_instances):
    with criterion(4, "KKT residuals <= 1e-7 on the interior-point and region-D solves"):
        reports = [solve(example_source, case2)]
        assert reports[0].branch is SolveBranch.INTERIOR_POINT
        for src, d in region_instances:
            reports.append(solve(src, d))
            assert reports[-1].branch is SolveBranch.CLOSED_FORM_INTERIOR_D
        for report in reports:
            cert = report.certificate
            assert cert.stationarity_residual <= 1e-7
            assert max(abs(r) for r in cert.slackness_residuals) <= 1e-7
            assert cert.dual_feasible


def test_criterion_5_scalar_oracle_equivalence():
    with criterion(5, "scalar solves match brute-force grid search to 1e-3"):
        start = time.perf_counter()
        rng = np.random.default_rng(550)
        for _ in range(20):
            v1 = float(rng.uniform(0.4, 3.0))
            v2 = float(rng.uniform(0.4, 3.0))
            rho = float(rng.uniform(-0.9, 0.9))
            c = rho * math.sqrt(v1 * v2)
            src = validate_source(np.array([[v1, c], [c, v2]]), 1, 1)
            for _ in range(5):
                d = DistortionPair(
                    float(rng.uniform(0.1, 1.3)) * v1,
                    float(rng.uniform(0.1, 1.3)) * v2,
                )
                report = solve(src, d)
                oracle = scalar_bruteforce_rate(src.q, d.d1, d.d2)
                assert abs(report.rate_nats - oracle) <= 1e-3
        assert time.perf_counter() - start < 60.0


def test_criterion_6_structural_property_suite(example_source, case1, case2, region_instances):
    with criterion(6, "conditional-mean structure at every solver optimum"):
        optima = [
            (example_source, solve(example_source, case1)),
            (example_source, solve(example_source, case2)),
        ]
        optima.extend((src, solve(src, d)) for src, d in region_instances)
        for src, report in optima:
            r = realize(src, report.sigma)
            check = verify_condition1(r)
            assert check.passed
            m = conditional_mean_map(r)
            projector = r.xhat_cov.pinv @ r.xhat_covariance()
            assert np.linalg.norm(m - projector, "fro") <= 1e-8


def test_criterion_7_canonical_form_identity():
    with criterion(7, "canonical determinant identity and objective equality"):
        rng = np.random.default_rng(770)
        for _ in range(50):
            p1 = int(rng.integers(1, 5))
            p2 = int(rng.integers(1, 5))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            form = to_canonical_form(src)
            assert det_identity_residual(src, form) <= 1e-8
            d = DistortionPair(
                float(rng.uniform(0.15, 1.1)) * float(np.trace(src.q11)),
                float(rng.uniform(0.15, 1.1)) * float(np.trace(src.q22)),
            )
            report = solve(src, d)
            err_form = to_canonical_form(validate_source(report.sigma.sigma, p1, p2))
            direct = rate_of(src, report.sigma)
            assert abs(cvf_objective(form, err_form) - direct) <= 1e-8


def test_criterion_8_monte_carlo_validation(example_source, case1, case2):
    with criterion(8, "Monte-Carlo distortions and MSE dominance at n = 1e6"):
        start = time.perf_counter()
        rng = np.random.default_rng(888)
        for d, seeds in ((case1, (81, 82)), (case2, (83, 84))):
            report = solve(example_source, d)
            r = realize(example_source, report.sigma)
            batch = sample_source(example_source, 1_000_000, seed=seeds[0])
            batch = push_channel(batch, r, seed=seeds[1])
            dist = check_distortion(batch, d)
            assert abs(dist.empirical_d1 - d.d1) <= 0.02 * d.d1
            assert abs(dist.empirical_d2 - d.d2) <= 0.02 * d.d2
            assert dist.passed
            alternatives = [
                0.9 * np.eye(4),
                1.1 * np.eye(4),
                rng.standard_normal((4, 4)),
            ]
            cm = check_cm_optimality(batch, r, alternatives)
            assert cm.passed
        assert time.perf_counter() - start < 60.0


def test_criterion_9_surface_properties(example_source_file, tmp_path):
    with criterion(9, "20x20 sweep: monotone and midpoint-convex surface"):
        start = time.perf_counter()
        out = tmp_path / "surface.csv"
        code = cli_main(
            ["sweep", example_source_file, "--grid", "0.1:3:20,0.1:3:20", "-o", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d1,d2,rate,branch,gray_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 400
        rates = np.array([float(r[2]) for r in rows]).reshape(20, 20)
        assert np.all(np.diff(rates, axis=0) <= 1e-8)
        assert np.all(np.diff(rates, axis=1) <= 1e-8)
        mid_rows = rates[1:-1, :] - 0.5 * (rates[:-2, :] + rates[2:, :])
        mid_cols = rates[:, 1:-1] - 0.5 * (rates[:, :-2] + rates[:, 2:])
        assert np.all(mid_rows <= 1e-6)
        assert np.all(mid_cols <= 1e-6)
        assert time.perf_counter() - start < 120.0
