import math
from dataclasses import replace

import numpy as np
import pytest

from jointrdf import (
    DistortionPair,
    ErrorCovariance,
    FeasibilityError,
    KktCertificate,
    SolveBranch,
    closed_form_candidate,
    gray_lower_bound,
    in_region_d,
    kkt_residuals,
    rate_of,
    solve,
    validate_source,
)
from jointrdf import solver
from jointrdf.solver import GAP_TOL, TRACE_SLACK_TOL
from conftest import CASE1_RATE, CASE2_SIGMA_3SF, EXAMPLE_Q
from helpers import conditioned_pd, random_pd_pair, scalar_bruteforce_rate, scalar_pair_rate


def _oracle_tol(report) -> float:
    """What a solve may miss an exact rate by: the duality gap it stops at,
    plus the trace overshoot it accepts priced at its own multipliers."""
    cert = report.certificate
    return GAP_TOL + (cert.lambda1 + cert.lambda2) * TRACE_SLACK_TOL


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
        assert report.rate_nats >= report.gray_bound_nats - 1e-6


class TestSolveEdges:
    def test_zero_rate_branch(self, example_source):
        d = DistortionPair(7.0, 6.0)  # traces are 6.558 and 5.637
        report = solve(example_source, d)
        assert report.branch is SolveBranch.ZERO_RATE
        assert report.rate_nats == 0.0
        np.testing.assert_array_equal(report.sigma.sigma, example_source.q)
        assert report.certificate.max_residual <= 1e-9

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

    def test_non_pd_source_rejected(self):
        src = validate_source(np.diag([1.0, 0.0, 1.0]), 2, 1)
        with pytest.raises(ValueError):
            solve(src, DistortionPair(0.5, 0.5))

    def test_report_invariant_rate_vs_gray(self, example_source):
        rng = np.random.default_rng(61)
        for _ in range(8):
            d = DistortionPair(float(rng.uniform(0.05, 8.0)), float(rng.uniform(0.05, 8.0)))
            report = solve(example_source, d)
            assert report.rate_nats >= max(report.gray_bound_nats, 0.0) - 1e-6
            assert (report.branch is SolveBranch.ZERO_RATE) == (report.rate_nats == 0.0)


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
        report = solve(src, d, force_interior=True)
        assert report.certificate.stationarity_residual <= 1e-7
        assert report.certificate.dual_feasible

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
            assert abs(report.rate_nats - oracle) <= _oracle_tol(report)
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
            closed = solve(src, d)
            forced = solve(src, d, force_interior=True)
            assert closed.branch is SolveBranch.CLOSED_FORM_INTERIOR_D
            assert forced.branch is SolveBranch.INTERIOR_POINT
            assert abs(closed.rate_nats - forced.rate_nats) <= 1e-6
            assert np.linalg.norm(closed.sigma.sigma - forced.sigma.sigma) <= 1e-5
            assert forced.certificate.stationarity_residual <= 1e-7
            assert max(abs(r) for r in forced.certificate.slackness_residuals) <= 1e-7

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
            assert abs(report.rate_nats - gray_lower_bound(src, d)) <= _oracle_tol(report)
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
            report = solve(src, d, force_interior=True)
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
            report = solve(src, d, force_interior=True)
            report.sigma.validate(src, d)
            assert report.iterations <= STRESS_MAX_EVALUATIONS


class TestEvaluationCap:
    def test_capped_solve_raises(self, example_source, case2, monkeypatch):
        # case2 needs 4 evaluations
        monkeypatch.setattr(solver, "_MAX_EVALUATIONS", 2)
        with pytest.raises(RuntimeError, match="2 evaluations"):
            solve(example_source, case2)
