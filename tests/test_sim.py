import math
import tracemalloc

import numpy as np
import pytest

from jointrdf import (
    DistortionPair,
    check_cm_optimality,
    check_distortion,
    conditional_mean_map,
    empirical_error_covariance,
    push_channel,
    realize,
    sample_source,
    solve,
    validate_source,
)
from jointrdf import sim
from helpers import (
    batch_of_rows,
    one_shot_batch,
    one_shot_rows,
    one_shot_moments,
    random_pd_pair,
    unchunked_cm_optimality,
    unchunked_distortion,
)

N_BIG = 1_000_000
SEEDS = {"case1": (2001, 2002), "case2": (3001, 3002)}


def _run(src, d, seeds):
    report = solve(src, d)
    r = realize(src, report.sigma)
    batch = push_channel(sample_source(src, N_BIG, seed=seeds[0]), r, seed=seeds[1])
    return report, r, batch


@pytest.fixture(scope="module")
def case1_run(example_source, case1):
    return _run(example_source, case1, SEEDS["case1"])


@pytest.fixture(scope="module")
def case2_run(example_source, case2):
    return _run(example_source, case2, SEEDS["case2"])


@pytest.fixture(scope="module")
def one_shot_draws(example_source, case1_run, case2_run):
    """(x, xhat) of each bundled case's batch, from one whole-batch draw each."""
    runs = {"case1": case1_run, "case2": case2_run}
    return {
        which: one_shot_batch(example_source, runs[which][1], N_BIG, SEEDS[which])
        for which in runs
    }


class TestSampleSource:
    def test_empirical_covariance_concentrates(self):
        src = validate_source(np.eye(2), 1, 1)
        batch = sample_source(src, N_BIG, seed=7)
        emp = (batch.x.T @ batch.x) / batch.n
        assert np.abs(emp - np.eye(2)).max() <= 3.0 * math.sqrt(2.0 / N_BIG)

    def test_single_row(self, example_source):
        batch = sample_source(example_source, 1, seed=5)
        assert batch.x.shape == (1, 4)
        assert batch.moments is None

    def test_deterministic_for_fixed_seed(self, example_source):
        a = sample_source(example_source, 1000, seed=11)
        b = sample_source(example_source, 1000, seed=11)
        assert np.array_equal(a.x, b.x)
        c = sample_source(example_source, 1000, seed=12)
        assert not np.array_equal(a.x, c.x)

    def test_invalid_count_rejected(self, example_source):
        with pytest.raises(ValueError):
            sample_source(example_source, 0, seed=1)

    def test_count_beyond_the_draw_rejected(self, example_source):
        sample_source(example_source, sim.MAX_SAMPLES, seed=1)
        with pytest.raises(ValueError, match="sample count must be between 1 and"):
            sample_source(example_source, sim.MAX_SAMPLES + 1, seed=1)

    @pytest.mark.parametrize("rows", [1, 3, 4, 5, 63, 64, 1000, 200_000])
    def test_rows_have_the_batch_gram(self, example_source, rows):
        # x is drawn on demand from the factor: short batches by Householder
        # QR, long ones by Cholesky-QR (64 rows is where n >= 16 k at n = 4)
        batch = sample_source(example_source, rows, seed=15)
        gram = batch.factor @ batch.factor.T
        assert batch.factor.shape == (4, min(rows, 4))
        assert batch.x.shape == (rows, 4)
        np.testing.assert_allclose(batch.x.T @ batch.x, gram, rtol=0.0,
                                   atol=1e-13 * float(np.abs(gram).max()))

    def test_rows_depend_on_the_seed_alone(self, example_source, case2):
        # the pushed batch, read after the checks, gives the same rows as a
        # fresh batch of the same seed
        r = realize(example_source, solve(example_source, case2).sigma)
        pushed = push_channel(sample_source(example_source, 5000, seed=16), r, seed=17)
        check_distortion(pushed, case2)
        assert np.array_equal(pushed.x, sample_source(example_source, 5000, seed=16).x)
        assert not np.array_equal(pushed.x, sample_source(example_source, 5000, seed=18).x)


class TestPushChannel:
    def test_identity_channel_reproduces_exactly(self, example_source):
        r = realize(example_source, np.zeros((4, 4)))
        batch = sample_source(example_source, 1000, seed=21)
        c = push_channel(batch, r, seed=22).moments
        # xhat == x, so every block of the moments is the same matrix
        for block in (c[:4, 4:], c[4:, :4], c[4:, 4:]):
            np.testing.assert_array_equal(block, c[:4, :4])

    def test_zero_channel_distortion_equals_traces(self, example_source):
        r = realize(example_source, example_source.q.copy())
        batch = push_channel(sample_source(example_source, N_BIG, seed=31), r, seed=32)
        e = empirical_error_covariance(batch)
        assert np.trace(e[:2, :2]) == pytest.approx(np.trace(example_source.q11), rel=0.02)
        assert np.trace(e[2:, 2:]) == pytest.approx(np.trace(example_source.q22), rel=0.02)

    def test_case1_empirical_distortions(self, case1_run, case1):
        _, _, batch = case1_run
        e = empirical_error_covariance(batch)
        assert np.trace(e[:2, :2]) == pytest.approx(case1.d1, rel=0.02)
        assert np.trace(e[2:, 2:]) == pytest.approx(case1.d2, rel=0.02)

    def test_determinism(self, example_source, case1):
        r = realize(example_source, solve(example_source, case1).sigma)
        base = sample_source(example_source, 2000, seed=41)
        a = push_channel(base, r, seed=42)
        b = push_channel(base, r, seed=42)
        assert np.array_equal(a.moments, b.moments)
        c = push_channel(base, r, seed=43)
        assert not np.array_equal(a.moments, c.moments)


    def test_reads_no_row_of_x(self, example_source, case1):
        # sampling, the push and every check leave x undrawn: the cached
        # property is never filled
        r = realize(example_source, solve(example_source, case1).sigma)
        batch = sample_source(example_source, 200_000, seed=45)
        pushed = push_channel(batch, r, seed=46)
        check_distortion(pushed, case1)
        check_cm_optimality(pushed, r, [np.eye(4)])
        empirical_error_covariance(pushed)
        assert "x" not in vars(batch) and "x" not in vars(pushed)

    def test_batch_without_gram_rejected(self, example_source, case1):
        # a factor of other than min(N, n) columns is no Gram factor of N rows
        r = realize(example_source, solve(example_source, case1).sigma)
        for columns in (0, 3):
            batch = sim.SampleBatch(2, 10, np.ones((4, columns)), 49)
            with pytest.raises(ValueError, match="sample_source"):
                push_channel(batch, r, seed=50)

    @pytest.mark.parametrize("p1, p2", [(1, 2), (3, 1)])
    def test_channel_of_another_split_rejected(self, example_source, case2_run, p1, p2):
        # a 1 + 2 channel has another dimension; a 3 + 1 channel has the
        # batch's dimension but other blocks.  Both checks must refuse it.
        _, _, batch = case2_run
        src = validate_source(random_pd_pair(np.random.default_rng(91), p1, p2), p1, p2)
        r = realize(src, 0.1 * np.eye(p1 + p2))
        match = f"batch split 2\\+2.*channel split {p1}\\+{p2}"
        with pytest.raises(ValueError, match=match):
            push_channel(batch, r, seed=92)
        with pytest.raises(ValueError, match=match):
            check_cm_optimality(batch, r, [np.eye(p1 + p2)])


class TestChunkedBatch:
    """Reading x of a long batch overwrites the Gaussian with x in 4096-row
    chunks; chunk by chunk it must give the rows of one whole-batch product,
    and the pushed moments' x block must be their Gram."""

    def _assert_rows_match(self, example_source, case2, rows, seeds):
        r = realize(example_source, solve(example_source, case2).sigma)
        batch = push_channel(sample_source(example_source, rows, seed=seeds[0]), r, seed=seeds[1])
        x = one_shot_rows(batch)
        for got, want in ((batch.x, x), (batch.moments[:4, :4], x.T @ x / rows)):
            np.testing.assert_allclose(got, want, rtol=1e-13,
                                       atol=1e-13 * float(np.abs(want).max()))

    def test_matches_one_shot_draw(self, example_source, case2):
        self._assert_rows_match(example_source, case2, 3 * 4096 + 17, (111, 112))

    @pytest.mark.parametrize("rows", [16 * 4096, 16 * 4096 + 1, 32 * 4096 + 17])
    def test_matches_per_block_draw_across_blocks(self, example_source, case2, rows):
        # the last chunk whole, one row long, and 17 rows long
        self._assert_rows_match(example_source, case2, rows, (113, 114))

    def test_memory_is_one_array_plus_chunks(self, example_source, case2):
        # tracemalloc sees numpy's data buffers.  Sampling, the push and both
        # checks hold O(n^2) numbers at any N; reading x adds x itself and
        # per-chunk temporaries of 128 KiB at n = 4
        r = realize(example_source, solve(example_source, case2).sigma)
        alternatives = [0.9 * np.eye(4), 1.1 * np.eye(4), np.ones((4, 4))]

        def peak_beyond_x(rows, read_x):
            tracemalloc.start()
            try:
                batch = push_channel(sample_source(example_source, rows, seed=121), r, seed=122)
                check_distortion(batch, case2)
                check_cm_optimality(batch, r, alternatives)
                empirical_error_covariance(batch)
                x_bytes = batch.x.nbytes if read_x else 0
                return tracemalloc.get_traced_memory()[1] - x_bytes
            finally:
                tracemalloc.stop()

        peak_beyond_x(10, True)  # lazy imports and first-call set-up stay out of the peak
        assert peak_beyond_x(10**9, False) < 2**20
        assert peak_beyond_x(200_000, True) < 2**20


class TestGramRoute:
    """sample_source and push_channel draw the Gram and the moments, never a
    row; they must have the law of helpers.one_shot_batch's row-by-row draw."""

    DRAWS = 2000

    @pytest.mark.parametrize("rows", [3, 40])
    def test_law_matches_row_by_row_draw(self, example_source, case2, rows):
        # the mean and the variance of each entry of gram / N and of the
        # pushed C, over DRAWS seeds of each route, within five standard
        # errors; 3 rows makes the Bartlett factor trapezoidal, and case 2's
        # channel is rank-deficient.  The two routes use disjoint seeds.
        r = realize(example_source, solve(example_source, case2).sigma)
        draws = self.DRAWS

        def entries(x_gram, c):
            return np.concatenate([x_gram.ravel() / rows, c.ravel()])

        route, rows_drawn = [], []
        for seed in range(draws):
            batch = push_channel(sample_source(example_source, rows, seed), r, draws + seed)
            route.append(entries(batch.factor @ batch.factor.T, batch.moments))
            x, xhat = one_shot_batch(example_source, r, rows, (2 * draws + seed, 3 * draws + seed))
            rows_drawn.append(entries(x.T @ x, one_shot_moments(x, xhat)))

        def mean_and_error(samples):
            return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(draws)

        # round-off scale, for entries that vanish in both routes
        floor = 1e-12 * example_source.q_norm
        got, want = np.array(route), np.array(rows_drawn)
        (m_got, e_got), (m_want, e_want) = mean_and_error(got), mean_and_error(want)
        assert np.all(np.abs(m_got - m_want) <= 5.0 * np.hypot(e_got, e_want) + floor)
        (v_got, e_got), (v_want, e_want) = (mean_and_error((got - m_got) ** 2),
                                            mean_and_error((want - m_want) ** 2))
        assert np.all(np.abs(v_got - v_want) <= 5.0 * np.hypot(e_got, e_want) + floor**2)


class TestStatisticDraw:
    """sim._draw_statistic against the law of the second moments of [x, w],
    for x a fixed rows x n matrix and w independent standard normals."""

    N = 4
    MIX = np.array([[2.0, 0.0, 0.0, 0.0], [0.7, 1.0, 0.0, 0.0],
                    [-0.4, 0.3, 0.5, 0.0], [0.2, -0.6, 0.1, 1.5]])

    def _rows(self, rows, seed):
        return np.random.default_rng(seed).standard_normal((rows, self.N)) @ self.MIX.T

    @staticmethod
    def _draw(x, seed):
        # F_x = R^T for x = U R, the factor sample_source hands the push
        f_x = np.linalg.qr(x, mode="r").T
        return sim._draw_statistic(f_x, x.shape[0], np.random.Generator(np.random.Philox(seed)))

    @pytest.mark.parametrize("rows", [1, 3, 4, 5, 7, 8, 50])
    def test_is_a_gram_matrix_of_rank_min_rows_2n(self, rows):
        # S is the Gram matrix of the rows x 2n matrix [x, w]: symmetric,
        # PSD and of rank min(rows, 2n), with x^T x in its top-left block
        for seed in range(20):
            x = self._rows(rows, seed)
            s_xx = x.T @ x
            s = self._draw(x, seed)
            assert s.shape == (2 * self.N, 2 * self.N)
            assert np.array_equal(s, s.T)
            np.testing.assert_allclose(s[:self.N, :self.N], s_xx, rtol=0.0,
                                       atol=1e-13 * float(np.abs(s_xx).max()))
            w = np.linalg.eigvalsh(s)
            assert w[0] >= -1e-10 * w[-1]
            assert int(np.sum(w > 1e-10 * w[-1])) == min(rows, 2 * self.N)

    def test_moments_match_theory(self):
        # given S_xx: E S_xw = 0, each column of S_xw has covariance S_xx,
        # E S_ww = rows I, and the Schur complement S_ww - S_wx S_xx^-1 S_xw,
        # the Gram of w's part orthogonal to x, has mean (rows - n) I
        rows, n, draws = 50, self.N, 2000
        x = self._rows(rows, 0)
        s_xx = x.T @ x
        s = np.array([self._draw(x, seed) for seed in range(draws)])
        s_xw, s_ww = s[:, :n, n:], s[:, n:, n:]
        schur = s_ww - s_xw.transpose(0, 2, 1) @ np.linalg.solve(s_xx, s_xw)
        column_products = s_xw[:, :, None, :] * s_xw[:, None, :, :]

        def assert_mean(samples, want):
            mean = samples.mean(axis=0)
            std_error = samples.std(axis=0, ddof=1) / math.sqrt(draws)
            assert np.all(np.abs(mean - want) <= 5.0 * std_error)

        assert_mean(s_xw, np.zeros((n, n)))
        assert_mean(s_ww, rows * np.eye(n))
        assert_mean(schur, (rows - n) * np.eye(n))
        for j in range(n):
            assert_mean(column_products[..., j], s_xx)


class TestWishart:
    @pytest.mark.parametrize("dof", [0, 1, 3, 4, 5, 9])
    def test_law_at_every_dof(self, dof):
        # Wishart(dof, I_n) has rank min(dof, n), E W = dof I, E W_ii^2 =
        # 2 dof + dof^2 and E W_ij^2 = dof off the diagonal
        n, draws = 4, 4000
        a = np.array([sim._bartlett(dof, n, np.random.Generator(np.random.Philox(seed)))
                      for seed in range(draws)])
        w = a @ a.transpose(0, 2, 1)
        assert all(np.linalg.matrix_rank(a) == min(dof, n) for a in w[:20])
        for samples, want in ((w, dof * np.eye(n)),
                              (w**2, dof * np.ones((n, n)) + (dof + dof**2) * np.eye(n))):
            std_error = samples.std(axis=0, ddof=1) / math.sqrt(draws)
            assert np.all(np.abs(samples.mean(axis=0) - want) <= 5.0 * std_error)


class TestCheckDistortion:
    def test_case1_passes_within_budgets(self, case1_run, case1):
        _, _, batch = case1_run
        rep = check_distortion(batch, case1)
        assert rep.passed
        assert rep.empirical_d1 == pytest.approx(case1.d1, rel=0.02)
        assert rep.empirical_d2 == pytest.approx(case1.d2, rel=0.02)

    def test_case2_passes_within_budgets(self, case2_run, case2):
        _, _, batch = case2_run
        rep = check_distortion(batch, case2)
        assert rep.passed
        assert rep.empirical_d1 == pytest.approx(case2.d1, rel=0.02)
        assert rep.empirical_d2 == pytest.approx(case2.d2, rel=0.02)

    def test_zero_residual_batch(self, example_source):
        r = realize(example_source, np.zeros((4, 4)))
        batch = push_channel(sample_source(example_source, 100, seed=51), r, seed=52)
        rep = check_distortion(batch, DistortionPair(0.4, 0.5))
        assert rep.passed
        assert rep.empirical_d1 == 0.0 and rep.empirical_d2 == 0.0

    def test_incomplete_batch_rejected(self, example_source):
        batch = sample_source(example_source, 10, seed=1)
        with pytest.raises(ValueError, match="push_channel"):
            check_distortion(batch, DistortionPair(1.0, 1.0))

    def test_mismatched_channel_rejected(self, example_source):
        # a 1 + 1 channel cannot carry a batch of the 2 + 2 source
        pair = validate_source(np.array([[1.0, 0.5], [0.5, 1.0]]), 1, 1)
        r = realize(pair, 0.5 * np.eye(2))
        batch = sample_source(example_source, 10, seed=1)
        with pytest.raises(ValueError, match="dimension 4 does not match channel dimension 2"):
            push_channel(batch, r, seed=2)

    @pytest.mark.parametrize("p1, p2, floor", [(2, 2, 144), (1, 3, 216), (3, 1, 216)])
    def test_minimum_samples_is_where_the_allowance_reaches_half(self, p1, p2, floor):
        n = p1 + p2
        src = validate_source(np.eye(n), p1, p2)

        def allowance(samples):
            batch = sim.SampleBatch(p1, samples, np.zeros((n, min(samples, n))), 0,
                                    np.zeros((2 * n, 2 * n)))
            rep = check_distortion(batch, DistortionPair(1.0, 1.0))
            return max(rep.bound_d1, rep.bound_d2) - 1.0

        assert sim.minimum_samples(src) == floor
        assert allowance(floor) <= 0.5 < allowance(floor - 1)

    def test_fails_below_attained_distortions(self, case1_run, case1):
        _, _, batch = case1_run
        rep = check_distortion(batch, DistortionPair(0.95 * case1.d1, 0.95 * case1.d2))
        assert rep.passed is False


class TestCheckCmOptimality:
    def test_identity_alternative_ties_at_optimum(self, case1_run):
        # at the optimum the conditional-mean map is the identity, so the
        # identity alternative has margin ~0 within statistical slack
        _, r, batch = case1_run
        rep = check_cm_optimality(batch, r, [np.eye(4)])
        assert rep.passed
        for (m1, m2), (s1, s2) in rep.margins:
            assert abs(m1) <= s1 + 1e-12 and abs(m2) <= s2 + 1e-12

    def test_scaled_and_random_alternatives_dominate(self, case1_run):
        _, r, batch = case1_run
        rng = np.random.default_rng(606)
        alts = [0.9 * np.eye(4), 1.1 * np.eye(4), rng.standard_normal((4, 4))]
        rep = check_cm_optimality(batch, r, alts)
        assert rep.passed
        # the random map should lose by a wide margin
        (m1, m2), _ = rep.margins[2]
        assert m1 > 0.1 and m2 > 0.1

    def test_exact_map_alternative_margin_zero(self, case2_run):
        _, r, batch = case2_run
        m = conditional_mean_map(r)
        rep = check_cm_optimality(batch, r, [m])
        (m1, m2), _ = rep.margins[0]
        assert m1 == 0.0 and m2 == 0.0
        assert rep.passed

    def test_wrong_channel_loses_to_true_conditional_mean(self, example_source, case1_run,
                                                          case2):
        # The batch went through case 1's channel; case 2's channel supplies
        # its range projector as the estimator, which the true conditional
        # mean of case 1 beats.
        _, r1, batch = case1_run
        r2 = realize(example_source, solve(example_source, case2).sigma)
        rep = check_cm_optimality(batch, r2, [conditional_mean_map(r1)])
        assert rep.passed is False

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_model_slack_matches_sample_slack(self, which, case1_run, case2_run,
                                              one_shot_draws):
        # the Gaussian (Isserlis) slack against 3 std / sqrt(N) of the
        # whole-batch per-sample differences; the largest gap seen is 0.27 %
        _, r, _ = case1_run if which == "case1" else case2_run
        x, xhat = one_shot_draws[which]
        batch = batch_of_rows(x, xhat, 2)
        rng = np.random.default_rng(606)
        alternatives = [0.9 * np.eye(4), 1.1 * np.eye(4), rng.standard_normal((4, 4))]
        rep = check_cm_optimality(batch, r, alternatives)
        base = x - xhat @ conditional_mean_map(r).T
        for g, (_, slacks) in zip(alternatives, rep.margins):
            res = x - xhat @ g.T
            for b, blk in enumerate((slice(0, 2), slice(2, 4))):
                diff = np.sum(res[:, blk] ** 2, axis=1) - np.sum(base[:, blk] ** 2, axis=1)
                sample_slack = 3.0 * float(diff.std(ddof=1)) / math.sqrt(N_BIG)
                assert slacks[b] == pytest.approx(sample_slack, rel=0.01)


def _assert_matches_unchunked(batch, r, d, alternatives, x, xhat):
    """The streamed checks against whole-batch references on the same draw."""
    dist = check_distortion(batch, d)
    ref_d1, ref_d2 = unchunked_distortion(x, xhat, batch.p1)
    assert dist.empirical_d1 == pytest.approx(ref_d1, rel=1e-12, abs=0.0)
    assert dist.empirical_d2 == pytest.approx(ref_d2, rel=1e-12, abs=0.0)
    cm = check_cm_optimality(batch, r, alternatives)
    ref_base, ref_margins = unchunked_cm_optimality(x, xhat, batch.p1, r, alternatives)
    np.testing.assert_allclose(cm.base_mse, ref_base, rtol=1e-12, atol=0.0)
    assert len(cm.margins) == len(ref_margins)
    for (margins, slacks), (ref_m, ref_s) in zip(cm.margins, ref_margins):
        for got, want, slack, want_slack in zip(margins, ref_m, slacks, ref_s):
            assert abs(got - want) <= 1e-12 * max(abs(want), want_slack)
            assert abs(slack - want_slack) <= 1e-12 * want_slack
    return cm


class TestStreamedChecksMatchUnchunked:
    @staticmethod
    def _alternatives(r, n):
        rng = np.random.default_rng(808)
        return [0.9 * np.eye(n), 1.1 * np.eye(n), rng.standard_normal((n, n)),
                conditional_mean_map(r)]

    @staticmethod
    def _one_shot(src, r, rows, seeds):
        x, xhat = one_shot_batch(src, r, rows, seeds)
        return batch_of_rows(x, xhat, src.p1), x, xhat

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 4097])
    def test_rows_around_chunk_size(self, example_source, case2, rows):
        r = realize(example_source, solve(example_source, case2).sigma)
        batch, x, xhat = self._one_shot(example_source, r, rows, (61, 62))
        _assert_matches_unchunked(batch, r, case2, self._alternatives(r, 4), x, xhat)

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_full_batch(self, which, case1, case2, case1_run, case2_run, one_shot_draws):
        _, r, _ = case1_run if which == "case1" else case2_run
        d = case1 if which == "case1" else case2
        x, xhat = one_shot_draws[which]
        batch = batch_of_rows(x, xhat, 2)
        _assert_matches_unchunked(batch, r, d, self._alternatives(r, 4), x, xhat)

    def test_uneven_split(self):
        src = validate_source(random_pd_pair(np.random.default_rng(71), 1, 3), 1, 3)
        d = DistortionPair(0.3 * float(np.trace(src.q11)), 0.3 * float(np.trace(src.q22)))
        r = realize(src, solve(src, d).sigma)
        batch, x, xhat = self._one_shot(src, r, 3 * 4096 + 17, (72, 73))
        _assert_matches_unchunked(batch, r, d, self._alternatives(r, 4), x, xhat)

    def test_no_alternatives(self, example_source, case2):
        r = realize(example_source, solve(example_source, case2).sigma)
        batch, x, xhat = self._one_shot(example_source, r, 4096 + 5, (81, 82))
        cm = _assert_matches_unchunked(batch, r, case2, [], x, xhat)
        assert cm.margins == () and cm.passed

    def test_wrong_alternative_shape_rejected(self, case2_run):
        _, r, batch = case2_run
        with pytest.raises(ValueError, match="alternative map"):
            check_cm_optimality(batch, r, [np.eye(3)])


class TestResidualStatistics:
    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_residual_covariance_converges(self, which, case1_run, case2_run):
        report, _, batch = case1_run if which == "case1" else case2_run
        emp = empirical_error_covariance(batch)
        sigma = report.sigma.sigma
        bound = 5.0 * np.linalg.norm(sigma, "fro") * math.sqrt(16.0 / N_BIG)
        assert np.linalg.norm(emp - sigma, "fro") <= bound

    def test_case1_cross_block_consistent_with_zero(self, case1_run):
        _, _, batch = case1_run
        emp = empirical_error_covariance(batch)
        cross = emp[:2, 2:]
        # var of a sample-covariance entry with zero true correlation
        three_sigma = 3.0 * np.sqrt(
            np.outer(np.diag(emp[:2, :2]), np.diag(emp[2:, 2:])) / N_BIG
        )
        assert np.all(np.abs(cross) <= three_sigma)
