import numpy as np
import pytest

from jointrdf import (
    DistortionPair,
    ErrorCovariance,
    FeasibilityError,
    closed_form_candidate,
    conditional_mean_map,
    implied_error_covariance,
    rate_of,
    realize,
    solve,
    validate_source,
    verify_condition1,
)
from jointrdf import TestChannelRealization as ChannelRealization  # avoid pytest collection
from helpers import (
    conditioned_pd,
    gaussian_mi_of_channel,
    random_feasible_sigma,
    random_pd_pair,
)


class TestRealize:
    def test_zero_error_perfect_reproduction(self, example_source):
        r = realize(example_source, np.zeros((4, 4)))
        np.testing.assert_allclose(r.h, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(r.qv, np.zeros((4, 4)), atol=1e-14)

    def test_full_distortion_zero_channel(self, example_source):
        r = realize(example_source, example_source.q.copy())
        np.testing.assert_allclose(r.h, np.zeros((4, 4)), atol=1e-12)
        np.testing.assert_allclose(r.qv, np.zeros((4, 4)), atol=1e-12)

    def test_case1_explicit_gain(self, example_source, case1):
        sigma = closed_form_candidate(example_source, case1)
        r = realize(example_source, sigma)
        expected_h = np.eye(4) - sigma.sigma @ np.linalg.inv(example_source.q)
        np.testing.assert_allclose(r.h, expected_h, atol=1e-10)
        check = verify_condition1(r)
        assert check.passed and check.full_rank
        np.testing.assert_allclose(
            implied_error_covariance(r), sigma.sigma, atol=1e-8
        )

    def test_gain_symmetrizes_against_q(self, example_source, case2):
        report = solve(example_source, case2)
        r = realize(example_source, report.sigma)
        hq = r.h @ example_source.q
        np.testing.assert_allclose(hq, hq.T, atol=1e-9)
        np.testing.assert_allclose(hq, example_source.q - report.sigma.sigma, atol=1e-9)

    def test_noise_covariance_psd(self, example_source, case2):
        report = solve(example_source, case2)
        r = realize(example_source, report.sigma)
        assert np.linalg.eigvalsh(r.qv)[0] >= -1e-10

    def test_infeasible_sigma_rejected(self, example_source):
        with pytest.raises(FeasibilityError, match="Q - sigma"):
            realize(example_source, 1.2 * example_source.q)

    def test_non_psd_sigma_rejected(self, example_source):
        # Q - sigma = Q + 0.1 I is PD, but the induced noise covariance is not
        with pytest.raises(FeasibilityError, match="sigma is not PSD"):
            realize(example_source, -0.1 * np.eye(4))

    def test_non_pd_source_rejected(self):
        src = validate_source(np.diag([1.0, 0.0, 1.0]), 2, 1)
        with pytest.raises(ValueError):
            realize(src, np.zeros((3, 3)))


class TestVerifyCondition1:
    def test_zero_error_realization_exact(self, example_source):
        r = realize(example_source, np.zeros((4, 4)))
        check = verify_condition1(r)
        assert check.passed and check.full_rank
        assert check.deviation <= 1e-12

    def test_case2_degenerate_path_passes(self, example_source, case2):
        report = solve(example_source, case2)
        r = realize(example_source, report.sigma)
        check = verify_condition1(r)
        assert check.passed
        assert not check.full_rank  # Q - sigma touches the PSD boundary
        assert check.rank == 3

    def test_perturbed_gain_detected(self, example_source, case1):
        report = solve(example_source, case1)
        r = realize(example_source, report.sigma)
        rng = np.random.default_rng(99)
        bad = ChannelRealization(
            h=r.h + 1e-3 * rng.standard_normal((4, 4)),
            qv=r.qv,
            source=example_source,
        )
        check = verify_condition1(bad)
        assert not check.passed
        assert check.deviation >= 1e-4

    def test_check_tolerance_does_not_move_rank(self, example_source, case1):
        r = realize(example_source, closed_form_candidate(example_source, case1))
        check = verify_condition1(r, tol=1e-15)
        assert check.rank == 4 and check.full_rank

    def test_rank_zero_channel_reported_not_failed(self, example_source):
        r = realize(example_source, example_source.q.copy())
        check = verify_condition1(r)
        assert check.rank == 0
        assert check.passed  # deviation against the zero projector


class TestConditionalMeanMap:
    def test_identity_at_zero_error(self, example_source):
        r = realize(example_source, np.zeros((4, 4)))
        np.testing.assert_allclose(conditional_mean_map(r), np.eye(4), atol=1e-12)

    def test_identity_at_optima(self, example_source, case1, case2):
        for d in (case1, case2):
            report = solve(example_source, d)
            r = realize(example_source, report.sigma)
            m = conditional_mean_map(r)
            assert np.linalg.norm(m - r.xhat_cov.projector, "fro") <= 1e-8

    def test_scaled_channel_halves_the_map(self, example_source):
        # xhat = 2x carries the same information but fails the structural
        # property: the conditional-mean map becomes 0.5 I, not I.
        r = ChannelRealization(
            h=2.0 * np.eye(4), qv=np.zeros((4, 4)), source=example_source
        )
        np.testing.assert_allclose(conditional_mean_map(r), 0.5 * np.eye(4), atol=1e-12)
        assert not verify_condition1(r).passed


class TestStructuralProperties:
    def test_error_covariance_reproduction_random(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            p1 = int(rng.integers(1, 4))
            p2 = int(rng.integers(1, 4))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            sigma = random_feasible_sigma(rng, src.q)
            r = realize(src, sigma)
            np.testing.assert_allclose(implied_error_covariance(r), sigma, atol=1e-8)
            assert verify_condition1(r).passed

    def test_psd_equivalence_of_feasibility_tests(self):
        # Q - sigma >= 0 iff sigma - sigma Q^-1 sigma >= 0, for PSD sigma
        rng = np.random.default_rng(321)
        for k in range(200):
            n = int(rng.integers(2, 6))
            q = random_pd_pair(rng, 1, n - 1)
            q_inv = np.linalg.inv(q)
            if k % 2 == 0:
                sigma = random_feasible_sigma(rng, q, lo=0.1, hi=0.9)
                expect = True
            else:
                sigma = random_feasible_sigma(rng, q, lo=1.1, hi=1.6)
                expect = False
            lhs = np.linalg.eigvalsh(q - sigma)[0] >= -1e-10
            mid = sigma - sigma @ q_inv @ sigma
            rhs = np.linalg.eigvalsh(0.5 * (mid + mid.T))[0] >= -1e-10
            assert lhs == rhs == expect

    def test_rate_equals_channel_mutual_information(self):
        rng = np.random.default_rng(808)
        for _ in range(10):
            p1 = int(rng.integers(1, 4))
            p2 = int(rng.integers(1, 4))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            sigma = random_feasible_sigma(rng, src.q)
            r = realize(src, sigma)
            mi = gaussian_mi_of_channel(src.q, r.h, r.qv)
            assert rate_of(src, sigma) == pytest.approx(mi, abs=1e-8)


class TestRankLadder:
    """cov(Xhat) = Q - Sigma loses one rank per mode of Sigma on the boundary."""

    def test_rank_counts_boundary_modes(self):
        rng = np.random.default_rng(606)
        for cond in (1e2, 1e4, 1e6, 1e8):
            for n in range(2, 9):
                src = validate_source(conditioned_pd(rng, n, cond), n // 2, n - n // 2)
                for j in range(n + 1):
                    sigma = random_feasible_sigma(rng, src.q, 0.05, 0.95, boundary=j)
                    check = verify_condition1(realize(src, sigma))
                    assert check.rank == n - j, (cond, n, j, check)
                    # the absolute 1e-8 deviation cannot certify modes near
                    # 1e-7 of ||Q||, so pass/fail is asserted only below 1e6
                    if cond < 1e6:
                        assert check.passed, (cond, n, j, check)

    def test_forced_dual_optima_pass(self):
        rng = np.random.default_rng(607)
        for cond in (1e2, 1e4, 1e6, 1e8, 1e9):
            for n in range(2, 9):
                src = validate_source(conditioned_pd(rng, n, cond), n // 2, n - n // 2)
                d = DistortionPair(
                    0.3 * float(np.trace(src.q11)), 0.3 * float(np.trace(src.q22))
                )
                report = solve(src, d, force_interior=True)
                check = verify_condition1(realize(src, report.sigma))
                assert check.passed, (cond, n, check)
