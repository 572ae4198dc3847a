import math

import numpy as np
import pytest

from jointrdf import (
    DistortionPair,
    SourceValidationError,
    cvf_objective,
    det_identity_residual,
    mutual_information,
    rate_of,
    solve,
    to_canonical_form,
    validate_source,
)
from jointrdf.canonical import _SIGN_REL_TOL
from helpers import random_feasible_sigma, random_pd_pair, scalar_pair_rate


def _check_invariants(src, form, tol=1e-9):
    np.testing.assert_allclose(
        form.s1 @ src.q11 @ form.s1.T, np.eye(src.p1), atol=tol
    )
    np.testing.assert_allclose(
        form.s2 @ src.q22 @ form.s2.T, np.eye(src.p2), atol=tol
    )
    np.testing.assert_allclose(form.s1 @ src.q12 @ form.s2.T, form.d3, atol=tol)


class TestToCanonicalForm:
    def test_identity_source(self):
        src = validate_source(np.eye(5), 3, 2)
        form = to_canonical_form(src)
        assert form.d4_vals.size == 0
        assert form.partition == (0, 3, 0, 2)
        np.testing.assert_allclose(form.s1 @ form.s1.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(form.s2 @ form.s2.T, np.eye(2), atol=1e-12)

    def test_scalar_half_correlation(self):
        src = validate_source(np.array([[1.0, 0.5], [0.5, 1.0]]), 1, 1)
        form = to_canonical_form(src)
        np.testing.assert_allclose(form.d4_vals, [0.5], atol=1e-12)
        assert form.s1[0, 0] == pytest.approx(1.0)
        assert form.s2[0, 0] == pytest.approx(1.0)

    def test_example_matrix_partition_and_invariants(self, example_source):
        form = to_canonical_form(example_source)
        assert form.partition == (2, 0, 2, 0)
        assert np.all(form.d4_vals > 0.0) and np.all(form.d4_vals < 1.0)
        _check_invariants(example_source, form)
        mi = -0.5 * float(np.sum(np.log1p(-form.d4_vals**2)))
        assert mutual_information(example_source) == pytest.approx(mi, abs=1e-10)

    def test_invariants_on_random_sources(self):
        rng = np.random.default_rng(90)
        for _ in range(15):
            p1 = int(rng.integers(1, 5))
            p2 = int(rng.integers(1, 5))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            form = to_canonical_form(src)
            _check_invariants(src, form)
            p12, p13, p22, p23 = form.partition
            assert p12 == p22 == form.d4_vals.size
            assert p12 + p13 == p1
            assert p22 + p23 == p2

    def test_descending_order(self):
        rng = np.random.default_rng(14)
        src = validate_source(random_pd_pair(rng, 3, 4), 3, 4)
        form = to_canonical_form(src)
        for vals in (form.d1_vals, form.d2_vals, form.d4_vals):
            assert np.all(np.diff(vals) <= 1e-14)

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(4242)
        src = validate_source(random_pd_pair(rng, 3, 2), 3, 2)
        form = to_canonical_form(src)
        s1_inv = np.linalg.inv(form.s1)
        s2_inv = np.linalg.inv(form.s2)
        np.testing.assert_allclose(s1_inv @ s1_inv.T, src.q11, atol=1e-8)
        np.testing.assert_allclose(s2_inv @ s2_inv.T, src.q22, atol=1e-8)
        np.testing.assert_allclose(s1_inv @ form.d3 @ s2_inv.T, src.q12, atol=1e-8)

    def test_deterministic_transforms(self, example_source):
        a = to_canonical_form(example_source)
        b = to_canonical_form(example_source)
        assert np.array_equal(a.s1, b.s1)
        assert np.array_equal(a.s2, b.s2)

    def test_singular_marginal_rejected(self):
        with pytest.raises(SourceValidationError, match="not positive definite"):
            to_canonical_form(validate_source(np.diag([1.0, 0.0, 1.0]), 2, 1))


def _assert_leading_entries_positive(rows):
    for row in rows:
        cut = _SIGN_REL_TOL * np.abs(row).max()
        assert next(x for x in row if abs(x) > cut) > 0.0


class TestSignRule:
    """Each row of S1 leads with a positive entry, each paired row of S2
    makes its canonical correlation positive, and the unpaired rows of S2
    lead with a positive entry too."""

    @staticmethod
    def _source_with_correlations(rng, p1, p2, rho):
        l1 = rng.standard_normal((p1, p1)) + 3.0 * np.eye(p1)
        l2 = rng.standard_normal((p2, p2)) + 3.0 * np.eye(p2)
        core = np.zeros((p1, p2))
        core[range(rho.size), range(rho.size)] = rho
        q12 = l1 @ core @ l2.T
        q = np.block([[l1 @ l1.T, q12], [q12.T, l2 @ l2.T]])
        return validate_source(q, p1, p2)

    def _check(self, src):
        form = to_canonical_form(src)
        _check_invariants(src, form)
        k = min(src.p1, src.p2)
        cross = form.s1 @ src.q12 @ form.s2.T
        np.testing.assert_allclose(np.diag(cross)[: form.d4_vals.size], form.d4_vals,
                                   rtol=0, atol=1e-12)
        _assert_leading_entries_positive(form.s1)
        _assert_leading_entries_positive(form.s2[k:])
        return form

    def test_example_source(self, example_source):
        self._check(example_source)

    @pytest.mark.parametrize("p1, p2", [(2, 4), (3, 3), (4, 2)])
    @pytest.mark.parametrize("planted_zero", [False, True])
    def test_block_shapes(self, p1, p2, planted_zero):
        rng = np.random.default_rng(100 * p1 + 10 * p2 + planted_zero)
        for _ in range(10):
            rho = np.sort(rng.uniform(0.1, 0.9, size=min(p1, p2)))[::-1]
            if planted_zero:
                rho[-1] = 0.0
            form = self._check(self._source_with_correlations(rng, p1, p2, rho))
            assert form.partition[0] == np.count_nonzero(rho)


class TestDeterminantIdentity:
    def test_relative_residual_small_on_random_sources(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            p1 = int(rng.integers(1, 5))
            p2 = int(rng.integers(1, 5))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            form = to_canonical_form(src)
            assert det_identity_residual(src, form) <= 1e-8


class TestCvfObjective:
    def test_scaled_source_error(self, example_source):
        # err = alpha * Q shares canonical correlations with Q, so the
        # objective collapses to 0.5 * ln(1 / alpha^(p1+p2)).
        src_form = to_canonical_form(example_source)
        for alpha in (0.25, 0.5, 0.9):
            err_form = to_canonical_form(validate_source(alpha * example_source.q, 2, 2))
            expected = 0.5 * np.log(1.0 / alpha**4)
            assert cvf_objective(src_form, err_form) == pytest.approx(expected, abs=1e-10)

    def test_matches_direct_determinant_on_random_feasible_sigma(self):
        rng = np.random.default_rng(2024)
        for _ in range(4):
            p1 = int(rng.integers(1, 4))
            p2 = int(rng.integers(1, 4))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            src_form = to_canonical_form(src)
            for _ in range(100):
                sigma = random_feasible_sigma(rng, src.q)
                err_form = to_canonical_form(validate_source(sigma, p1, p2))
                direct = rate_of(src, sigma)
                assert cvf_objective(src_form, err_form) == pytest.approx(direct, abs=1e-8)

    def test_matches_rate_at_solver_optima(self, example_source, case1, case2):
        src_form = to_canonical_form(example_source)
        for d in (case1, case2):
            report = solve(example_source, d)
            err_form = to_canonical_form(validate_source(report.sigma.sigma, 2, 2))
            assert cvf_objective(src_form, err_form) == pytest.approx(
                report.rate_nats, abs=1e-8
            )

    def test_near_unit_source_correlation_matches_rate(self):
        # a correlation 5e-10 below 1 is still interior: every accepted
        # source has 1 - rho_max > PSD_RTOL.  One ulp of rho (1.1e-16 near 1)
        # moves ln(1 - rho^2) by about 1.1e-16 / (1 - rho) = 2.2e-7, on either
        # side of the comparison.
        eps = 5e-10
        q = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
        src = validate_source(q, 1, 1)
        form = to_canonical_form(src)
        assert form.partition == (1, 0, 1, 0)
        sigma = 0.5 * np.eye(2)
        err_form = to_canonical_form(validate_source(sigma, 1, 1))
        assert cvf_objective(form, err_form) == pytest.approx(rate_of(src, sigma), abs=1e-6)

    def test_near_degenerate_error_covariance_matches_rate(self, example_source):
        src_form = to_canonical_form(example_source)
        eps = 5e-10
        block = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
        sigma = np.zeros((4, 4))
        sigma[np.ix_([0, 2], [0, 2])] = block
        sigma[1, 1] = sigma[3, 3] = 1.0
        err_form = to_canonical_form(validate_source(sigma, 2, 2))
        assert err_form.partition == (1, 1, 1, 1)
        assert cvf_objective(src_form, err_form) == pytest.approx(
            rate_of(example_source, sigma), abs=1e-6
        )

    def test_mismatched_block_sizes_rejected(self, example_source):
        src_form = to_canonical_form(example_source)
        err_form = to_canonical_form(validate_source(0.5 * example_source.q, 1, 3))
        with pytest.raises(ValueError, match="mismatched block sizes"):
            cvf_objective(src_form, err_form)

    def test_zero_rate_optimum_gives_zero(self, example_source):
        d = DistortionPair(7.0, 6.0)
        report = solve(example_source, d)
        src_form = to_canonical_form(example_source)
        err_form = to_canonical_form(validate_source(report.sigma.sigma, 2, 2))
        assert cvf_objective(src_form, err_form) == pytest.approx(0.0, abs=1e-12)


class TestScaledIdentityMarginals:
    """Oracle at any n: with Q11 = v1 I and Q22 = v2 I the canonical block
    transforms are orthogonal up to sqrt(v_i), so the trace budgets keep their
    meaning in canonical coordinates.  There the source splits into scalar
    pairs with correlations d4 plus uncorrelated coordinates, and the optimal
    Sigma splits the same way."""

    @staticmethod
    def _planted_source(rng):
        p1, p2 = (int(p) for p in rng.integers(1, 7, size=2))
        k = min(p1, p2)
        v1, v2 = rng.uniform(0.2, 5.0, size=2)
        rho = np.sort(rng.uniform(0.05, 0.95, size=k))[::-1]
        if rng.random() < 0.3:
            rho[-1] = 0.0
        r1 = np.linalg.qr(rng.standard_normal((p1, p1)))[0]
        r2 = np.linalg.qr(rng.standard_normal((p2, p2)))[0]
        core = np.zeros((p1, p2))
        core[:k, :k] = np.diag(rho)
        q12 = math.sqrt(v1 * v2) * r1 @ core @ r2.T
        q = np.block([[v1 * np.eye(p1), q12], [q12.T, v2 * np.eye(p2)]])
        return validate_source(q, p1, p2), v1, v2, rho[rho > 0.0]

    def test_solver_sigma_is_pair_structured_and_rates_add_up(self):
        rng = np.random.default_rng(1707)
        for _ in range(60):
            src, v1, v2, rho = self._planted_source(rng)
            p1, p2 = src.p1, src.p2
            form = to_canonical_form(src)
            t = np.zeros((src.n, src.n))
            t[:p1, :p1] = math.sqrt(v1) * form.s1
            t[p1:, p1:] = math.sqrt(v2) * form.s2
            np.testing.assert_allclose(t @ t.T, np.eye(src.n), rtol=0, atol=1e-12)
            np.testing.assert_allclose(form.d4_vals, rho, rtol=0, atol=1e-12)

            d = DistortionPair(*(rng.uniform(0.05, 1.1) * p * v for p, v in ((p1, v1), (p2, v2))))
            report = solve(src, d)
            sc = t @ report.sigma.sigma @ t.T
            pairs = np.eye(src.n, dtype=bool)
            for k in range(rho.size):
                pairs[k, p1 + k] = pairs[p1 + k, k] = True
            assert np.abs(sc[~pairs]).max(initial=0.0) <= 1e-12 * src.q_norm

            diag = np.diag(sc)
            total = sum(
                scalar_pair_rate(v1, v2, r, diag[k], diag[p1 + k]) for k, r in enumerate(rho)
            )
            total += sum(0.5 * math.log(v1 / s) for s in diag[rho.size : p1])
            total += sum(0.5 * math.log(v2 / s) for s in diag[p1 + rho.size :])
            assert abs(total - report.rate_nats) <= 1e-12 * max(1.0, report.rate_nats)
