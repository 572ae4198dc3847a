import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from jointrdf import (
    DistortionPair,
    ErrorCovariance,
    FeasibilityError,
    KktCertificate,
    SolveBranch,
    SourceValidationError,
    closed_form_candidate,
    gray_lower_bound,
    in_region_d,
    kkt_residuals,
    rate_of,
    sample_source,
    solve,
    validate_source,
)
from jointrdf import solver
from conftest import CASE1_RATE, CASE2_BUDGETS, CASE2_SIGMA_3SF, EXAMPLE_Q
from helpers import (
    conditioned_pd,
    oracle_tol,
    random_pd_pair,
    scalar_bruteforce_rate,
    scalar_pair_rate,
)


class TestClosedFormCandidate:
    def test_example_budgets_split_evenly(self, example_source, case1):
        cand = closed_form_candidate(example_source, case1)
        np.testing.assert_allclose(cand.sigma, np.diag([0.2, 0.2, 0.25, 0.25]), atol=0)

    def test_scalar_fill(self):
        src = validate_source(np.array([[2.0, 0.1], [0.1, 3.0]]), 1, 1)
        cand = closed_form_candidate(src, DistortionPair(1.0, 1.0))
        np.testing.assert_allclose(cand.sigma, np.eye(2), atol=0)

    def test_zero_budget_gives_zero_matrix(self, example_source):
        cand = closed_form_candidate(example_source, DistortionPair(0.0, 0.0))
        assert np.all(cand.sigma == 0.0)


class TestInRegionD:
    def test_case1_inside(self, example_source, case1):
        assert in_region_d(example_source, case1)

    def test_case2_outside(self, example_source, case2):
        assert not in_region_d(example_source, case2)

    def test_zero_budget_guard(self, example_source):
        assert not in_region_d(example_source, DistortionPair(0.0, 0.0))
        assert not in_region_d(example_source, DistortionPair(0.0, 1.0))

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e12])
    def test_boundary_is_outside_at_every_scale(self, c):
        # Q = s D + V V^T with V of n - 1 columns, so Q - D is singular at
        # s = 1 and strictly positive at s = 1 + 1e-6, under random block
        # rotations, which keep D
        rng = np.random.default_rng(4242)
        for _ in range(20):
            p1, p2 = (int(p) for p in rng.integers(1, 5, size=2))
            n = p1 + p2
            d = DistortionPair(c * float(rng.uniform(0.2, 2.0)), c * float(rng.uniform(0.2, 2.0)))
            diag = np.diag(np.repeat([d.d1 / p1, d.d2 / p2], [p1, p2]))
            v = np.sqrt(c) * rng.standard_normal((n, n - 1))
            o = np.zeros((n, n))
            o[:p1, :p1] = np.linalg.qr(rng.standard_normal((p1, p1)))[0]
            o[p1:, p1:] = np.linalg.qr(rng.standard_normal((p2, p2)))[0]
            for s, branch in ((1.0, SolveBranch.INTERIOR_POINT),
                              (1.0 + 1e-6, SolveBranch.CLOSED_FORM_INTERIOR_D)):
                q = o @ (s * diag + v @ v.T) @ o.T
                src = validate_source(0.5 * (q + q.T), p1, p2)
                report = solve(src, d)
                assert report.branch is branch
                assert report.in_region_d == in_region_d(src, d) == (s > 1.0)

    def test_solve_label_agrees_with_region_test(self):
        rng = np.random.default_rng(13)
        closed = 0
        for _ in range(500):
            p1, p2 = (int(p) for p in rng.integers(1, 6, size=2))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            t1, t2 = src.block_traces
            d = DistortionPair(float(rng.uniform(0.05, 1.1)) * t1,
                               float(rng.uniform(0.05, 1.1)) * t2)
            report = solve(src, d)
            assert report.in_region_d == in_region_d(src, d)
            if report.branch is SolveBranch.CLOSED_FORM_INTERIOR_D:
                closed += 1
                assert report.iterations == 1
        assert closed >= 10


class TestRateOf:
    def test_full_distortion_zero_rate(self, example_source):
        sigma = ErrorCovariance(2, 2, example_source.q.copy())
        assert rate_of(example_source, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_halved_covariance(self, example_source):
        sigma = ErrorCovariance(2, 2, 0.5 * example_source.q)
        assert rate_of(example_source, sigma) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_case1_sigma_matches_closed_form_value(self, example_source, case1):
        report = solve(example_source, case1)
        assert rate_of(example_source, report.sigma) == pytest.approx(CASE1_RATE, abs=1e-10)

    def test_singular_sigma_infinite(self, example_source):
        sigma = ErrorCovariance(2, 2, np.diag([1.0, 1.0, 1.0, 0.0]))
        assert rate_of(example_source, sigma) == math.inf


class TestSolveCase1:
    def test_closed_form_branch(self, example_source, case1):
        report = solve(example_source, case1)
        assert report.branch is SolveBranch.CLOSED_FORM_INTERIOR_D
        assert report.in_region_d
        np.testing.assert_allclose(
            report.sigma.sigma, np.diag([0.2, 0.2, 0.25, 0.25]), atol=1e-12
        )
        assert report.rate_nats == pytest.approx(CASE1_RATE, abs=1e-10)
        assert abs(report.rate_nats - report.gray_bound_nats) <= 1e-6
        # the dual starts at the closed-form multipliers, optimal on region D
        assert report.iterations == 1

    def test_certificate_is_tight(self, example_source, case1):
        report = solve(example_source, case1)
        cert = report.certificate
        assert cert.lambda1 == pytest.approx(2 / (2 * 0.4))
        assert cert.lambda2 == pytest.approx(2 / (2 * 0.5))
        assert cert.stationarity_residual <= 1e-10
        assert max(abs(r) for r in cert.slackness_residuals) <= 1e-10


class TestSolveCase2:
    def test_interior_point_matches_published_sigma(self, example_source, case2):
        report = solve(example_source, case2)
        assert report.branch is SolveBranch.INTERIOR_POINT
        assert not report.in_region_d
        assert np.abs(report.sigma.sigma - CASE2_SIGMA_3SF).max() <= 5e-3

    def test_boundary_contact_and_cross_coupling(self, example_source, case2):
        report = solve(example_source, case2)
        gap = example_source.q - report.sigma.sigma
        w = np.linalg.eigvalsh(gap)
        norm_q = float(np.abs(np.linalg.eigvalsh(example_source.q)).max())
        assert w[0] >= -1e-10 * norm_q
        assert w[0] <= 1e-6 * norm_q
        assert np.abs(report.sigma.sigma12).max() > 0.05

    def test_certificate_residuals(self, example_source, case2):
        report = solve(example_source, case2)
        cert = report.certificate
        assert cert.stationarity_residual <= 1e-7
        assert max(abs(r) for r in cert.slackness_residuals) <= 1e-7
        assert cert.dual_feasible

    def test_tighter_gap_agrees(self, example_source, case2):
        # decreasing the gap tolerance 10x moves the final iterate by little
        # and keeps the certificate valid
        base = solve(example_source, case2)
        tight = solve(example_source, case2, gap_tol=1e-10)
        assert abs(base.rate_nats - tight.rate_nats) <= 1e-8
        assert np.linalg.norm(base.sigma.sigma - tight.sigma.sigma) <= 1e-6
        assert tight.certificate.stationarity_residual <= 1e-7

    def test_rate_dominates_gray_bound(self, example_source, case2):
        report = solve(example_source, case2)
        assert report.rate_nats >= report.gray_bound_nats - oracle_tol(report)


class TestSolveEdges:
    def test_zero_rate_branch(self, example_source):
        d = DistortionPair(7.0, 6.0)  # traces are 6.558 and 5.637
        report = solve(example_source, d)
        assert report.branch is SolveBranch.ZERO_RATE
        assert report.rate_nats == 0.0
        # at l = 0 no block enters K, and Sigma is Q itself
        assert np.array_equal(report.sigma.sigma, example_source.q)
        assert report.certificate.max_residual <= 1e-9
        assert report.iterations == 1  # the dual starts at its optimum l = 0

    def test_covered_budget_multiplier_starts_at_zero(self, example_source):
        # d1 covers tr Q11 = 6.558 and d2 does not: lambda1 starts at 0 and
        # stays there, where the closed-form start 1/7 took 4 evaluations
        report = solve(example_source, DistortionPair(7.0, 1.85))
        assert report.branch is SolveBranch.INTERIOR_POINT
        assert report.certificate.lambda1 == 0.0
        assert report.iterations < 4

    def test_scalar_budgets_beyond_variances(self):
        src = validate_source(np.array([[2.0, 0.5], [0.5, 1.0]]), 1, 1)
        report = solve(src, DistortionPair(2.5, 1.5))
        assert report.branch is SolveBranch.ZERO_RATE
        assert report.rate_nats == 0.0

    def test_zero_budget_infeasible(self, example_source):
        report = solve(example_source, DistortionPair(0.0, 1.0))
        assert report.branch is SolveBranch.INFEASIBLE
        assert report.rate_nats == math.inf
        assert report.certificate is None

    @pytest.mark.parametrize("gap_tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_gap_tol_rejected(self, example_source, case2, gap_tol):
        with pytest.raises(ValueError, match="gap_tol"):
            solve(example_source, case2, gap_tol=gap_tol)

    def test_non_pd_source_rejected(self):
        # the source is refused before any solve
        with pytest.raises(SourceValidationError, match="not positive definite"):
            solve(validate_source(np.diag([1.0, 0.0, 1.0]), 2, 1), DistortionPair(0.5, 0.5))

    def test_report_invariant_rate_vs_gray(self, example_source):
        rng = np.random.default_rng(61)
        for _ in range(8):
            d = DistortionPair(float(rng.uniform(0.05, 8.0)), float(rng.uniform(0.05, 8.0)))
            report = solve(example_source, d)
            assert report.rate_nats >= max(report.gray_bound_nats, 0.0) - oracle_tol(report)
            assert (report.branch is SolveBranch.ZERO_RATE) == (report.rate_nats == 0.0)


class TestExtremeBudgetRatios:
    """Budgets whose closed-form multipliers p_i / (2 d_i) differ by up to
    1e15: each block's scale is read off K, not off Q."""

    @pytest.mark.parametrize("budgets", [(1e-8, 0.1), (1e-7, 1.0), (1.0, 1e-8), (1e-15, 1.0),
                                         (2e-7, 1.0), (1.0, 1e-7), (1e-305, 1e-305)])
    def test_closed_form_in_one_evaluation(self, example_source, budgets):
        d = DistortionPair(*budgets)
        report = solve(example_source, d)
        assert report.branch is SolveBranch.CLOSED_FORM_INTERIOR_D
        assert report.iterations == 1
        assert in_region_d(example_source, d)
        assert report.rate_nats == pytest.approx(report.gray_bound_nats, rel=1e-9, abs=1e-9)

    def test_interior_point_certifies(self, example_source):
        d = DistortionPair(1e-8, 3.0)
        report = solve(example_source, d)
        assert report.branch is SolveBranch.INTERIOR_POINT
        assert not in_region_d(example_source, d)
        report.sigma.validate(example_source, d)
        assert report.certificate.max_residual <= 1e-7
        assert report.certificate.dual_feasible
        assert report.rate_nats >= report.gray_bound_nats - oracle_tol(report)


class TestKktResiduals:
    def test_closed_form_multipliers_stationary(self, example_source, case1):
        sigma = closed_form_candidate(example_source, case1)
        cert = KktCertificate(
            lambda1=2 / (2 * 0.4),
            lambda2=2 / (2 * 0.5),
            theta=np.zeros((4, 4)),
            stationarity_residual=0.0,
            slackness_residuals=(0.0, 0.0, 0.0, 0.0),
            dual_feasible=True,
        )
        out = kkt_residuals(example_source, case1, sigma, cert)
        assert out.stationarity_residual <= 1e-10
        assert max(abs(r) for r in out.slackness_residuals) <= 1e-12
        assert out.dual_feasible

    def test_non_optimal_point_detected(self, example_source, case1):
        sigma = ErrorCovariance(2, 2, 0.05 * np.eye(4))
        cert = KktCertificate(
            lambda1=0.0,
            lambda2=0.0,
            theta=np.zeros((4, 4)),
            stationarity_residual=0.0,
            slackness_residuals=(0.0, 0.0, 0.0, 0.0),
            dual_feasible=True,
        )
        out = kkt_residuals(example_source, case1, sigma, cert)
        # with zero multipliers the residual is all of 0.5 Sigma^{-1}
        assert out.stationarity_residual == pytest.approx(1.0, rel=1e-12)

    def test_interior_point_passes_recheck(self, example_source, case2):
        # the second point, near the d1 trace, is the interior-point point of
        # the perfbench surface grid at seed 6
        for d in (case2, DistortionPair(5.866379201378499, 3.6220907481218694)):
            report = solve(example_source, d)
            out = kkt_residuals(example_source, d, report.sigma, report.certificate)
            assert out.stationarity_residual <= 1e-7
            assert max(abs(r) for r in out.slackness_residuals) <= 1e-7

    @pytest.mark.parametrize("c", [1.0, 1e8])
    def test_negative_theta_mode_flagged_at_any_scale(self, c):
        src = validate_source(c * EXAMPLE_Q, 2, 2)
        d = DistortionPair(1.65 * c, 1.85 * c)
        report = solve(src, d)
        w, u = np.linalg.eigh(report.certificate.theta)
        w[0] = -1e-4 * np.abs(w).max()
        cert = replace(report.certificate, theta=(u * w) @ u.T)
        assert not kkt_residuals(src, d, report.sigma, cert).dual_feasible

    def test_ill_conditioned_optimum_certifies(self):
        # cond(Q) = 1e8: ||0.5 Sigma^{-1}||_F is large, and the residual is
        # measured against it
        q = conditioned_pd(np.random.default_rng(5), 6, 1e8)
        src = validate_source(q, 3, 3)
        d = DistortionPair(0.3 * float(np.trace(q[:3, :3])), 0.3 * float(np.trace(q[3:, 3:])))
        report = solve(src, d)
        assert report.certificate.stationarity_residual <= 1e-7
        assert report.certificate.dual_feasible

    def test_stationarity_bound_near_cutoff(self):
        # at cond(Q) 5e9-1e10 both sides of the recheck carry round-off of
        # about cond(Q) * eps, so 1e-7 no longer holds; cond(Q) * eps does
        eps = np.finfo(float).eps
        rng = np.random.default_rng(1010)
        for _ in range(40):
            p1, p2 = (int(k) for k in rng.integers(1, 5, size=2))
            src = validate_source(conditioned_pd(rng, p1 + p2, rng.uniform(5e9, 9.9e9)), p1, p2)
            w = src.q_eigh[0]
            bound = max(1e-7, float(w[-1] / w[0]) * eps)
            t1, t2 = src.block_traces
            f1, f2 = rng.uniform(0.05, 1.2, size=2)
            for d in (DistortionPair(f1 * t1, f2 * t2), DistortionPair(1.1 * t1, 1.1 * t2)):
                assert solve(src, d).certificate.stationarity_residual <= bound

    def test_singular_sigma_rejected(self, example_source, case1):
        sigma = ErrorCovariance(2, 2, np.zeros((4, 4)))
        cert = KktCertificate(0.0, 0.0, np.zeros((4, 4)), 0.0, (0.0,) * 4, True)
        with pytest.raises(FeasibilityError):
            kkt_residuals(example_source, case1, sigma, cert)


class TestErrorCovarianceValidation:
    def test_feasible_passes(self, example_source, case1):
        closed_form_candidate(example_source, case1).validate(example_source, case1)

    def test_trace_violation_rejected(self, example_source, case1):
        sigma = ErrorCovariance(2, 2, np.diag([0.3, 0.3, 0.25, 0.25]))
        with pytest.raises(FeasibilityError, match="trace budget"):
            sigma.validate(example_source, case1)

    @pytest.mark.parametrize("c", [1e-10, 1.0, 1e10])
    @pytest.mark.parametrize("delta, rejected", [(1e-6, True), (1e-12, False)])
    def test_trace_slack_is_relative_to_budget(self, case1, c, delta, rejected):
        src = validate_source(c * EXAMPLE_Q, 2, 2)
        d = DistortionPair(c * case1.d1, c * case1.d2)
        s = np.array(closed_form_candidate(src, d).sigma)
        s[:2, :2] *= 1.0 + delta
        sigma = ErrorCovariance(2, 2, s)
        if rejected:
            with pytest.raises(FeasibilityError, match="trace budget"):
                sigma.validate(src, d)
        else:
            sigma.validate(src, d)

    def test_dominance_violation_rejected(self, example_source):
        sigma = ErrorCovariance(2, 2, 1.1 * example_source.q)
        with pytest.raises(FeasibilityError, match="Q - sigma"):
            sigma.validate(example_source, DistortionPair(10.0, 10.0))

    def test_indefinite_rejected(self, example_source, case1):
        sigma = ErrorCovariance(2, 2, np.diag([0.1, -0.1, 0.1, 0.1]))
        with pytest.raises(FeasibilityError, match="not PSD"):
            sigma.validate(example_source, case1)


class TestScalarOracle:
    def test_agrees_with_bruteforce_grid(self):
        rng = np.random.default_rng(880)
        for _ in range(6):
            v1 = float(rng.uniform(0.4, 3.0))
            v2 = float(rng.uniform(0.4, 3.0))
            rho = float(rng.uniform(-0.85, 0.85))
            c = rho * math.sqrt(v1 * v2)
            src = validate_source(np.array([[v1, c], [c, v2]]), 1, 1)
            for _ in range(3):
                d = DistortionPair(
                    float(rng.uniform(0.1, 1.3)) * v1, float(rng.uniform(0.1, 1.3)) * v2
                )
                report = solve(src, d)
                oracle = scalar_bruteforce_rate(src.q, d.d1, d.d2)
                assert abs(report.rate_nats - oracle) <= 1e-3

    def test_agrees_with_closed_form_pair(self):
        rng = np.random.default_rng(20050930)
        branches = set()
        for _ in range(500):
            v1, v2 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            rho = float(rng.uniform(-0.95, 0.95))
            c = rho * math.sqrt(v1 * v2)
            src = validate_source(np.array([[v1, c], [c, v2]]), 1, 1)
            d = DistortionPair(
                float(rng.uniform(0.05, 1.3)) * v1, float(rng.uniform(0.05, 1.3)) * v2
            )
            report = solve(src, d)
            branches.add(report.branch)
            oracle = scalar_pair_rate(v1, v2, rho, d.d1, d.d2)
            assert abs(report.rate_nats - oracle) <= oracle_tol(report)
        assert branches == {
            SolveBranch.ZERO_RATE,
            SolveBranch.CLOSED_FORM_INTERIOR_D,
            SolveBranch.INTERIOR_POINT,
        }


class TestSolverProperties:
    def test_monotone_and_convex_on_grid(self):
        rng = np.random.default_rng(424242)
        for _ in range(5):
            p1 = int(rng.integers(1, 4))
            p2 = int(rng.integers(1, 4))
            if p1 + p2 > 6:
                p2 = 6 - p1
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            d1_axis = np.linspace(0.1, 1.1, 12) * float(np.trace(src.q11))
            d2_axis = np.linspace(0.1, 1.1, 12) * float(np.trace(src.q22))
            rates = np.array(
                [
                    [solve(src, DistortionPair(float(a), float(b))).rate_nats for b in d2_axis]
                    for a in d1_axis
                ]
            )
            assert np.all(np.diff(rates, axis=0) <= 1e-6)
            assert np.all(np.diff(rates, axis=1) <= 1e-6)
            mid_rows = rates[1:-1, :] - 0.5 * (rates[:-2, :] + rates[2:, :])
            mid_cols = rates[:, 1:-1] - 0.5 * (rates[:, :-2] + rates[:, 2:])
            assert np.all(mid_rows <= 1e-6)
            assert np.all(mid_cols <= 1e-6)

    def test_closed_form_interior_point_consistency(self):
        rng = np.random.default_rng(31416)
        for _ in range(5):
            p1 = int(rng.integers(1, 4))
            p2 = int(rng.integers(1, 4))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            lam_min = float(np.linalg.eigvalsh(src.q)[0])
            d = DistortionPair(
                float(rng.uniform(0.2, 0.8)) * p1 * lam_min,
                float(rng.uniform(0.2, 0.8)) * p2 * lam_min,
            )
            assert in_region_d(src, d)
            report = solve(src, d)
            closed = closed_form_candidate(src, d)
            assert report.branch is SolveBranch.CLOSED_FORM_INTERIOR_D
            assert abs(report.rate_nats - rate_of(src, closed)) <= 1e-12
            err = np.abs(report.sigma.sigma - closed.sigma).max()
            assert err <= 1e-12 * src.q_norm
            assert report.certificate.stationarity_residual <= 1e-7
            assert max(abs(r) for r in report.certificate.slackness_residuals) <= 1e-7

    def test_gray_equality_inside_region(self):
        rng = np.random.default_rng(271828)
        for _ in range(10):
            p1 = int(rng.integers(1, 5))
            p2 = int(rng.integers(1, 5))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            lam_min = float(np.linalg.eigvalsh(src.q)[0])
            d = DistortionPair(
                float(rng.uniform(0.2, 0.8)) * p1 * lam_min,
                float(rng.uniform(0.2, 0.8)) * p2 * lam_min,
            )
            assert in_region_d(src, d)
            report = solve(src, d)
            assert abs(report.rate_nats - gray_lower_bound(src, d)) <= 1e-6

    def test_block_diagonal_rate_equals_gray_bound(self):
        # with Q12 = 0 the blocks decouple, so the additive bound is exact on
        # the whole plane, slack budgets included
        rng = np.random.default_rng(19730701)
        interior = 0
        for _ in range(200):
            p1, p2 = (int(p) for p in rng.integers(1, 6, size=2))
            q = np.zeros((p1 + p2, p1 + p2))
            q[:p1, :p1] = random_pd_pair(rng, p1, 0)
            q[p1:, p1:] = random_pd_pair(rng, p2, 0)
            src = validate_source(q, p1, p2)
            d = DistortionPair(
                float(rng.uniform(0.05, 1.2)) * float(np.trace(q[:p1, :p1])),
                float(rng.uniform(0.05, 1.2)) * float(np.trace(q[p1:, p1:])),
            )
            report = solve(src, d)
            interior += report.branch is SolveBranch.INTERIOR_POINT
            assert abs(report.rate_nats - gray_lower_bound(src, d)) <= oracle_tol(report)
        assert interior >= 100

    def test_feasibility_of_interior_point_solutions(self, example_source):
        rng = np.random.default_rng(11)
        for _ in range(5):
            d = DistortionPair(float(rng.uniform(0.8, 3.0)), float(rng.uniform(0.8, 3.0)))
            report = solve(example_source, d)
            report.sigma.validate(example_source, d)


class TestInvariances:
    """The rate is unchanged under the problem's exact symmetries."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(20210214)
        for p1, p2 in ((2, 2), (2, 4), (3, 3), (5, 7), (6, 6)):
            q = random_pd_pair(rng, p1, p2)
            d = DistortionPair(
                float(rng.uniform(0.2, 0.6)) * float(np.trace(q[:p1, :p1])),
                float(rng.uniform(0.2, 0.6)) * float(np.trace(q[p1:, p1:])),
            )
            yield rng, q, p1, p2, d

    def test_joint_scaling(self):
        for _, q, p1, p2, d in self._instances():
            base = solve(validate_source(q, p1, p2), d).rate_nats
            for c in (1e-3, 1e3):
                scaled = solve(validate_source(c * q, p1, p2), DistortionPair(c * d.d1, c * d.d2))
                assert scaled.rate_nats == pytest.approx(base, rel=1e-9)

    def test_joint_scaling_near_trace(self):
        # one budget above its block trace and one just below it: the dual
        # optimum lies near l = 0, where an absolute trace slack would let
        # Sigma = Q pass at small scales
        rng = np.random.default_rng(10**8)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p1 = int(rng.integers(1, n))
            q = random_pd_pair(rng, p1, n - p1)
            q = 0.5 * (q + q.T)
            fracs = [rng.uniform(1.0, 1.3), rng.uniform(0.9, 1.0)]
            if rng.random() < 0.5:
                fracs.reverse()
            d = DistortionPair(
                float(fracs[0]) * float(np.trace(q[:p1, :p1])),
                float(fracs[1]) * float(np.trace(q[p1:, p1:])),
            )
            base = solve(validate_source(q, p1, n - p1), d).rate_nats
            for c in (1e-10, 1e-8, 1e8):
                scaled = solve(
                    validate_source(c * q, p1, n - p1), DistortionPair(c * d.d1, c * d.d2)
                )
                assert scaled.rate_nats == pytest.approx(base, rel=1e-9)

    def test_block_rotation(self):
        for rng, q, p1, p2, d in self._instances():
            base = solve(validate_source(q, p1, p2), d).rate_nats
            o = np.zeros_like(q)
            o[:p1, :p1] = np.linalg.qr(rng.standard_normal((p1, p1)))[0]
            o[p1:, p1:] = np.linalg.qr(rng.standard_normal((p2, p2)))[0]
            q_rot = o @ q @ o.T
            rotated = solve(validate_source(0.5 * (q_rot + q_rot.T), p1, p2), d)
            assert rotated.rate_nats == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1e2, 1e4])
    def test_block_scaling(self, c, block):
        # X_i -> c X_i maps Q to S Q S and d_i to c^2 d_i, with S = c I on
        # block i and I on the other: R is unchanged, Sigma goes to S Sigma S
        # and the multiplier of block i to lambda_i / c^2
        for _, q, p1, p2, d in self._instances():
            sv = np.ones(p1 + p2)
            sv[slice(0, p1) if block == 1 else slice(p1, None)] = c
            f = (c * c, 1.0) if block == 1 else (1.0, c * c)
            base = solve(validate_source(q, p1, p2), d)
            scaled = solve(validate_source(q * np.outer(sv, sv), p1, p2),
                           DistortionPair(f[0] * d.d1, f[1] * d.d2))
            assert scaled.rate_nats == pytest.approx(base.rate_nats, rel=1e-9)
            np.testing.assert_allclose(scaled.sigma.sigma / np.outer(sv, sv), base.sigma.sigma,
                                       rtol=1e-9, atol=1e-9 * np.abs(base.sigma.sigma).max())
            for lam, lam_base, fi in zip(
                (scaled.certificate.lambda1, scaled.certificate.lambda2),
                (base.certificate.lambda1, base.certificate.lambda2), f,
            ):
                assert lam == pytest.approx(lam_base / fi, rel=1e-9)

    def test_block_scaled_random_sources_solve(self):
        # 60 seeded sources Q = A A^T + 0.1 I with block 1 scaled by c: every
        # instance validate_source accepts solves, to the unscaled rate
        rng = np.random.default_rng(2021)
        solved = 0
        for _ in range(60):
            p1, p2 = (int(k) for k in rng.integers(1, 5, size=2))
            a = rng.standard_normal((p1 + p2, p1 + p2))
            q = a @ a.T + 0.1 * np.eye(p1 + p2)
            f1, f2 = rng.uniform(0.05, 0.9, size=2)
            d = DistortionPair(f1 * np.trace(q[:p1, :p1]), f2 * np.trace(q[p1:, p1:]))
            base = solve(validate_source(q, p1, p2), d).rate_nats
            for c in (1e-4, 1e-3, 1e-2, 1e2, 1e3, 1e4):
                sv = np.r_[np.full(p1, c), np.ones(p2)]
                try:
                    src = validate_source(q * np.outer(sv, sv), p1, p2)
                except SourceValidationError:
                    continue
                report = solve(src, DistortionPair(c * c * d.d1, d.d2))
                assert report.rate_nats == pytest.approx(base, rel=1e-9)
                assert report.iterations <= STRESS_MAX_EVALUATIONS
                solved += 1
        assert solved >= 350

    def test_block_swap(self):
        for _, q, p1, p2, d in self._instances():
            base = solve(validate_source(q, p1, p2), d).rate_nats
            perm = np.r_[p1 : p1 + p2, 0:p1]
            swapped = solve(
                validate_source(q[np.ix_(perm, perm)], p2, p1), DistortionPair(d.d2, d.d1)
            )
            assert swapped.rate_nats == pytest.approx(base, rel=1e-9)


# The largest evaluation count the dual solver takes over the draws of
# TestDualStress.
STRESS_MAX_EVALUATIONS = 16


class TestDualStress:
    def test_forced_solves_certify(self):
        # n from 2 to 14, Q scaled over eight decades, budgets from 0.05 to
        # 1.3 of each block trace (above it, the dual optimum is l = 0)
        rng = np.random.default_rng(12001200)
        for _ in range(300):
            n = int(rng.integers(2, 15))
            p1 = int(rng.integers(1, n))
            q = random_pd_pair(rng, p1, n - p1) * 10.0 ** rng.uniform(-4.0, 4.0)
            q = 0.5 * (q + q.T)
            src = validate_source(q, p1, n - p1)
            d = DistortionPair(
                float(rng.uniform(0.05, 1.3)) * float(np.trace(q[:p1, :p1])),
                float(rng.uniform(0.05, 1.3)) * float(np.trace(q[p1:, p1:])),
            )
            report = solve(src, d)
            report.sigma.validate(src, d)
            assert report.certificate.stationarity_residual <= 1e-12
            assert report.certificate.dual_feasible
            assert report.iterations <= STRESS_MAX_EVALUATIONS

    def test_large_scale_traces_stay_within_budget(self):
        # at ||Q|| ~ 1e6 and above, round-off in assembling Sigma is large in
        # absolute terms: it must not push a converged trace over its
        # budget's relative slack, nor stall the iteration
        rng = np.random.default_rng(10**6)
        for k in range(200):
            n = int(rng.integers(2, 13))
            p1 = int(rng.integers(1, n))
            q = random_pd_pair(rng, p1, n - p1) * 10.0 ** (6 + k % 7)
            q = 0.5 * (q + q.T)
            src = validate_source(q, p1, n - p1)
            d = DistortionPair(
                float(rng.uniform(0.05, 0.9)) * float(np.trace(q[:p1, :p1])),
                float(rng.uniform(0.05, 0.9)) * float(np.trace(q[p1:, p1:])),
            )
            report = solve(src, d)
            report.sigma.validate(src, d)
            assert report.iterations <= STRESS_MAX_EVALUATIONS


class TestEvaluationCap:
    def test_capped_solve_raises(self, example_source, case2, monkeypatch):
        # case2 needs 4 evaluations
        monkeypatch.setattr(solver, "_MAX_EVALUATIONS", 2)
        with pytest.raises(RuntimeError, match="2 evaluations"):
            solve(example_source, case2)


class TestFactorCounts:
    """Exact counts of the factorizations a solve makes, which timing noise
    cannot hide: one eigh per dual evaluation, and Q, Q11 and Q22 factored
    only while the source's cache fills, Q and Block-diag(Q11, Q22) in one
    stacked Cholesky call."""

    ROUTINES = ("eigh", "eigvalsh", "cholesky", "solve")

    def _count(self, monkeypatch) -> defaultdict:
        calls = defaultdict(list)
        for name in self.ROUTINES:
            def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name].append(np.array(a))
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @staticmethod
    def _factored(calls, block) -> bool:
        return any(a.shape == block.shape and np.array_equal(a, block)
                   for name in calls for a in calls[name])

    @staticmethod
    def _stacked(calls, src) -> list:
        blocks = np.zeros_like(src.q)
        blocks[: src.p1, : src.p1], blocks[src.p1 :, src.p1 :] = src.q11, src.q22
        stack = np.stack((src.q, blocks))
        return [a for a in calls["cholesky"]
                if a.shape == stack.shape and np.array_equal(a, stack)]

    def test_solve_factors_each_source_once(self, monkeypatch):
        src = validate_source(EXAMPLE_Q, 2, 2)
        calls = self._count(monkeypatch)
        first = solve(src, DistortionPair(*CASE2_BUDGETS))
        # validate_source hands its eigh(Q) to the cache, so the dual's
        # evaluations are the only eigh; the Gray bound fills the rest
        assert len(calls["eigh"]) == first.iterations
        assert not calls["solve"]
        # the log-dets in one stacked call, then sigma in the certificate
        assert len(self._stacked(calls, src)) == 1
        assert len(calls["cholesky"]) == 2
        assert all(self._factored(calls, b) for b in (src.q11, src.q22))
        calls.clear()
        second = solve(src, DistortionPair(2.5, 1.2))
        assert second.branch is SolveBranch.INTERIOR_POINT
        assert len(calls["eigh"]) == second.iterations
        # sigma >= 0 and Q - sigma >= 0 in the feasibility check and Theta's
        # PSD test in the certificate; the label costs none
        assert len(calls["eigvalsh"]) == 3
        assert not calls["solve"]
        assert not self._stacked(calls, src) and len(calls["cholesky"]) == 1
        assert not any(self._factored(calls, b) for b in (src.q, src.q11, src.q22))

    def test_sampling_a_warm_source_factors_nothing(self, monkeypatch):
        src = validate_source(EXAMPLE_Q, 2, 2)
        solve(src, DistortionPair(*CASE2_BUDGETS))
        calls = self._count(monkeypatch)
        sample_source(src, 10, seed=1)
        assert not any(calls.values())
