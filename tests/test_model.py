import json
import math
import pickle

import numpy as np
import pytest

from jointrdf import (
    DistortionPair,
    SourceValidationError,
    SolveBranch,
    gray_lower_bound,
    mutual_information,
    parse_source,
    solve,
    to_canonical_form,
    validate_source,
)
from jointrdf.model import PSD_RTOL, _water_fill
from conftest import EXAMPLE_Q
from helpers import (
    conditioned_pd,
    oracle_tol,
    random_pd_pair,
    waterfill_bisection_rate,
    waterfill_oracle,
)


class TestValidateSource:
    def test_example_matrix_accepted_positive_definite(self):
        src = validate_source(EXAMPLE_Q, 2, 2)
        assert src.q_eigh[0][0] > PSD_RTOL * src.q_norm
        assert src.p1 == src.p2 == 2

    def test_identity_accepted_zero_cross_block(self):
        src = validate_source(np.eye(4), 2, 2)
        assert np.all(src.q12 == 0.0)

    def test_asymmetry_rejected(self):
        q = EXAMPLE_Q.copy()
        q[0, 1] += 1e-3
        with pytest.raises(SourceValidationError, match="asymmetric"):
            validate_source(q, 2, 2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SourceValidationError, match="3x3"):
            validate_source(np.eye(4), 2, 1)
        with pytest.raises(SourceValidationError, match="must be positive, got p1=0"):
            validate_source(np.eye(4), 0, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        q = np.eye(4)
        q[1, 2] = q[2, 1] = bad
        with pytest.raises(SourceValidationError, match="non-finite"):
            validate_source(q, 2, 2)

    def test_negative_eigenvalue_rejected(self):
        q = np.diag([1.0, 1.0, -0.5, 1.0])
        with pytest.raises(SourceValidationError, match="not positive definite"):
            validate_source(q, 2, 2)

    @pytest.mark.parametrize("lam", [0.0, -1e-12])
    def test_semidefinite_rejected(self, lam):
        with pytest.raises(SourceValidationError, match="not positive definite"):
            validate_source(np.diag([1.0, 1.0, 1.0, lam]), 2, 2)

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    def test_positive_definite_cutoff(self, c):
        # diagonal, so eigh returns the entries exactly; ||Q||_2 = 4c
        cutoff = PSD_RTOL * (4.0 * c)
        with pytest.raises(SourceValidationError, match="not positive definite"):
            validate_source(np.diag([cutoff, c, 2.0 * c, 4.0 * c]), 2, 2)
        above = np.nextafter(cutoff, math.inf)
        src = validate_source(np.diag([above, c, 2.0 * c, 4.0 * c]), 2, 2)
        assert src.q_norm == 4.0 * c
        assert "q_eigh" in vars(src)
        assert src.q_eigh[0][0] == above

    @pytest.mark.parametrize("p1", [2, np.int64(2), np.int32(2), np.uint8(2), np.array(2)],
                             ids=["int", "int64", "int32", "uint8", "0-d array"])
    def test_integer_block_sizes_accepted_as_int(self, p1):
        src = validate_source(EXAMPLE_Q, p1, np.int16(2))
        assert type(src.p1) is int and type(src.p2) is int
        assert src.n == 4

    @pytest.mark.parametrize("p1", [True, np.True_, 2.0, np.float64(2.0), 2.5, "2", None],
                             ids=["true", "numpy-true", "float", "float64", "fraction", "string",
                                  "none"])
    def test_non_integer_block_sizes_refused(self, p1):
        # 2.0 used to pass and fail later inside solve, as a TypeError on a
        # slice index; True used to pass as 1, which fits a 3x3 Q
        q = np.eye(3) if p1 in (True, np.True_) else EXAMPLE_Q
        for args in ((q, p1, 2), (q, 2, p1)):
            with pytest.raises(SourceValidationError, match="p1 and p2 must be integers"):
                validate_source(*args)

    def test_block_reassembly_exact(self):
        src = validate_source(EXAMPLE_Q, 2, 2)
        rebuilt = np.block([[src.q11, src.q12], [src.q12.T, src.q22]])
        assert np.array_equal(rebuilt, src.q)

    def test_json_roundtrip_bit_exact(self):
        src = validate_source(EXAMPLE_Q, 2, 2)
        doc = json.loads(json.dumps({"p1": src.p1, "p2": src.p2, "Q": src.q.tolist()}))
        again = parse_source(doc)
        assert np.array_equal(again.q, src.q)


class TestDistortionPair:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DistortionPair(-0.1, 1.0)


class TestMutualInformation:
    def test_independent_blocks_zero(self):
        src = validate_source(np.diag([2.0, 1.0, 3.0]), 2, 1)
        assert mutual_information(src) == 0.0

    def test_scalar_correlation_half(self):
        src = validate_source(np.array([[1.0, 0.5], [0.5, 1.0]]), 1, 1)
        expected = -0.5 * math.log(1.0 - 0.25)
        got = mutual_information(src)
        assert got == pytest.approx(expected, abs=1e-14)
        # canonical-form identity: MI = -0.5 * sum ln(1 - d4^2)
        form = to_canonical_form(src)
        oracle = -0.5 * float(np.sum(np.log1p(-form.d4_vals**2)))
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_example_matrix_matches_canonical_identity(self, example_source):
        form = to_canonical_form(example_source)
        oracle = -0.5 * float(np.sum(np.log1p(-form.d4_vals**2)))
        assert mutual_information(example_source) == pytest.approx(oracle, abs=1e-10)

    def test_nonnegative_and_zero_iff_uncorrelated(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            p1 = int(rng.integers(1, 4))
            p2 = int(rng.integers(1, 4))
            q = random_pd_pair(rng, p1, p2)
            src = validate_source(q, p1, p2)
            mi = mutual_information(src)
            assert mi >= 0.0
            if np.abs(src.q12).max() > 1e-6:
                assert mi > 1e-12
            # zero out the cross block: MI collapses
            q0 = q.copy()
            q0[:p1, p1:] = 0.0
            q0[p1:, :p1] = 0.0
            assert mutual_information(validate_source(q0, p1, p2)) <= 1e-12

    def test_singular_source_rejected(self):
        # ln det Q is finite on every source: a singular Q is never one
        with pytest.raises(SourceValidationError, match="not positive definite"):
            mutual_information(validate_source(np.diag([1.0, 0.0, 1.0]), 2, 1))


class TestMarginalRdf:
    """Reverse water-filling on the ascending spectrum of one block."""

    def test_budget_covering_trace_gives_zero(self):
        assert _water_fill(np.ones(2), 2.0) == 0.0
        assert _water_fill(np.ones(2), 5.0) == 0.0

    def test_two_modes_level_below_both(self):
        # eigenvalues (1, 4), delta 1: level 0.5, rate 0.5*ln(4/0.5) + 0.5*ln(1/0.5)
        got = _water_fill(np.array([1.0, 4.0]), 1.0)
        assert got == pytest.approx(1.3862943611198906, abs=1e-10)
        assert got == pytest.approx(waterfill_oracle(np.array([4.0, 1.0]), 1.0), abs=1e-8)

    def test_small_mode_floods_first(self):
        got = _water_fill(np.array([0.1, 4.0]), 1.0)
        assert got == pytest.approx(0.7458274383888585, abs=1e-10)
        assert got == pytest.approx(waterfill_oracle(np.array([4.0, 0.1]), 1.0), abs=1e-8)

    def test_zero_budget_nonzero_cov_infinite(self):
        assert _water_fill(np.ones(2), 0.0) == math.inf

    def test_zero_covariance_zero_rate(self):
        assert _water_fill(np.zeros(2), 0.0) == 0.0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            a = rng.standard_normal((m, m))
            mu = np.linalg.eigvalsh(a @ a.T)
            delta = float(rng.uniform(0.05, 1.0)) * float(mu.sum())
            assert _water_fill(mu, delta) == pytest.approx(
                waterfill_oracle(mu, delta), abs=1e-8
            )

    def test_closed_form_level_matches_bisection(self):
        rng = np.random.default_rng(2024)
        spectra = [
            np.array([2.0, 2.0, 2.0]),
            np.array([0.0, 0.0, 1.5, 3.0]),
            np.array([0.0, 0.7, 0.7, 0.7, 4.0]),
            np.array([5.0]),
        ]
        for _ in range(8):
            m = int(rng.integers(1, 8))
            mu = rng.uniform(0.0, 3.0, size=m)
            mu[rng.random(m) < 0.3] = 0.0
            if m > 1:
                mu[1] = mu[0]
            if mu.sum() > 0.0:
                spectra.append(mu)
        for mu in spectra:
            trace = float(mu.sum())
            for delta in (0.01 * trace, 0.5 * trace, trace * (1.0 - 1e-9), np.nextafter(trace, 0.0)):
                got = _water_fill(np.sort(mu), float(delta))
                ref = waterfill_bisection_rate(mu, float(delta))
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-12), (mu, delta)

    def test_nonincreasing_and_convex_in_delta(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            m = int(rng.integers(1, 7))
            a = rng.standard_normal((m, m))
            mu = np.linalg.eigvalsh(a @ a.T)
            deltas = np.linspace(0.01, 1.2 * float(mu.sum()), 50)
            rates = np.array([_water_fill(mu, float(d)) for d in deltas])
            assert np.all(np.diff(rates) <= 1e-10)
            midpoint_gap = rates[1:-1] - 0.5 * (rates[:-2] + rates[2:])
            assert np.all(midpoint_gap <= 1e-9)

    @pytest.mark.parametrize("delta", [5e-324, 1e-323])
    def test_subnormal_budget_gives_finite_rate(self, delta):
        # two unit modes share delta: the level delta / 2 underflows to 0 at
        # 5e-324, and 1 / level overflows at 1e-323, but the rate
        # ln(2 / delta) is about 745 nats
        assert _water_fill(np.ones(2), delta) == pytest.approx(
            math.log(2.0) - math.log(delta), rel=1e-15
        )


class TestGrayLowerBound:
    def test_independent_blocks_sum_of_marginals(self):
        q = np.diag([2.0, 1.0, 3.0, 0.5])
        src = validate_source(q, 2, 2)
        d = DistortionPair(0.7, 0.9)
        expected = _water_fill(np.array([1.0, 2.0]), 0.7) + _water_fill(np.array([0.5, 3.0]), 0.9)
        assert gray_lower_bound(src, d) == pytest.approx(expected, abs=1e-12)

    def test_equals_rate_inside_region(self, example_source, case1):
        report = solve(example_source, case1)
        bound = gray_lower_bound(example_source, case1)
        assert abs(report.rate_nats - bound) <= 1e-6

    def test_strictly_below_rate_outside_region(self, example_source, case2):
        report = solve(example_source, case2)
        bound = gray_lower_bound(example_source, case2)
        assert report.rate_nats - bound > 1e-3

    def test_never_exceeds_rate(self):
        # each source at its random budgets and with one or both of them
        # moved above its block trace: R == 0 iff both budgets cover
        rng = np.random.default_rng(5150)
        covered = []
        for _ in range(10):
            p1 = int(rng.integers(1, 4))
            p2 = int(rng.integers(1, 4))
            src = validate_source(random_pd_pair(rng, p1, p2), p1, p2)
            traces = (float(np.trace(src.q11)), float(np.trace(src.q22)))
            f1, f2 = float(rng.uniform(0.1, 1.2)), float(rng.uniform(0.1, 1.2))
            for g1, g2 in ((f1, f2), (f1, 1.1), (1.1, f2), (1.1, 1.1)):
                d = DistortionPair(g1 * traces[0], g2 * traces[1])
                report = solve(src, d)
                assert report.rate_nats >= gray_lower_bound(src, d) - oracle_tol(report)
                covered.append(d.d1 >= traces[0] and d.d2 >= traces[1])
                assert (report.rate_nats == 0.0) == covered[-1]
        assert 10 <= sum(covered) < len(covered)

    def test_subnormal_budget_is_finite(self, example_source):
        assert math.isfinite(gray_lower_bound(example_source, DistortionPair(5e-324, 1.0)))

    def test_zero_budget_rejected(self, example_source):
        with pytest.raises(ValueError):
            gray_lower_bound(example_source, DistortionPair(0.0, 1.0))


def _assert_same_report(a, b):
    """Every field of two solve reports but the wall time, bit for bit."""
    assert (a.rate_nats, a.branch, a.in_region_d, a.iterations) == (
        b.rate_nats, b.branch, b.in_region_d, b.iterations
    )
    assert np.array_equal(a.sigma.sigma, b.sigma.sigma)
    ca, cb = a.certificate, b.certificate
    assert (ca.lambda1, ca.lambda2, ca.stationarity_residual, ca.slackness_residuals,
            ca.dual_feasible) == (cb.lambda1, cb.lambda2, cb.stationarity_residual,
                                  cb.slackness_residuals, cb.dual_feasible)
    assert np.array_equal(ca.theta, cb.theta)


# interior-point, region-D and zero-rate budgets on the example source
_BUDGETS = [DistortionPair(1.65, 1.85), DistortionPair(0.4, 0.5), DistortionPair(7.0, 6.0),
            DistortionPair(3.0, 0.9)]


class TestSourceCache:
    def test_cached_arrays_read_only(self):
        src = validate_source(EXAMPLE_Q, 2, 2)
        arrays = [*src.q_eigh, *src.block_eigenvalues]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        # the eigh handed over by validate_source is that of the stored q
        w, u = src.q_eigh
        np.testing.assert_allclose((u * w) @ u.T, src.q, rtol=0, atol=1e-14 * src.q_norm)

    def test_warm_source_solves_like_a_fresh_one(self):
        warm = validate_source(EXAMPLE_Q, 2, 2)
        for d in _BUDGETS:
            solve(warm, d)
        for d in reversed(_BUDGETS):
            _assert_same_report(solve(warm, d), solve(validate_source(EXAMPLE_Q, 2, 2), d))

    def test_pickled_warm_source_gives_identical_reports(self):
        warm = validate_source(EXAMPLE_Q, 2, 2)
        solve(warm, _BUDGETS[0])
        gray_lower_bound(warm, _BUDGETS[0])  # the Gray bound fills block_eigenvalues
        copy = pickle.loads(pickle.dumps(warm))
        arrays = [a for value in vars(copy).values()
                  for a in (value if isinstance(value, tuple) else (value,))
                  if isinstance(a, np.ndarray)]
        # q, both halves of q_eigh and of block_eigenvalues
        assert len(arrays) == 5
        assert not any(a.flags.writeable for a in arrays)
        for d in _BUDGETS:
            _assert_same_report(solve(copy, d), solve(warm, d))

    def test_cached_gray_bound_matches_direct_computation(self):
        def chol_logdet(a):
            return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(a)))))

        rng = np.random.default_rng(20211011)
        for _ in range(200):
            p1, p2 = (int(k) for k in rng.integers(1, 7, size=2))
            q = conditioned_pd(rng, p1 + p2, 10.0 ** rng.uniform(0.0, 8.0))
            src = validate_source(q, p1, p2)
            d = DistortionPair(float(rng.uniform(0.05, 1.2)) * float(np.trace(src.q11)),
                               float(rng.uniform(0.05, 1.2)) * float(np.trace(src.q22)))
            r1 = _water_fill(np.linalg.eigvalsh(src.q11), d.d1)
            r2 = _water_fill(np.linalg.eigvalsh(src.q22), d.d2)
            mi = max(0.5 * (chol_logdet(src.q11) + chol_logdet(src.q22) - chol_logdet(src.q)),
                     0.0)
            for _ in range(2):  # filling the cache, then reading it
                bound = gray_lower_bound(src, d)
                assert abs(bound - (r1 + r2 - mi)) <= 1e-12 * (r1 + r2 + mi)
