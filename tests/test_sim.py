import math
import sys
import threading
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
from jointrdf.sim import _BLOCK_ROWS, _CHUNK_ROWS
from helpers import (
    fail_blocks_after_first,
    one_shot_batch,
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


class TestChunkedBatch:
    def test_matches_one_shot_draw(self, example_source, case2):
        rows = 3 * _CHUNK_ROWS + 17
        r = realize(example_source, solve(example_source, case2).sigma)
        batch = push_channel(sample_source(example_source, rows, seed=111), r, seed=112)
        x, xhat = one_shot_batch(example_source, r, rows, (111, 112))
        for got, want in ((batch.x, x), (batch.moments, one_shot_moments(x, xhat))):
            np.testing.assert_allclose(got, want, rtol=1e-13,
                                       atol=1e-13 * float(np.abs(want).max()))

    def test_matches_per_block_draw_across_blocks(self, example_source, case2):
        rows = 2 * _BLOCK_ROWS + 17
        r = realize(example_source, solve(example_source, case2).sigma)
        batch = push_channel(sample_source(example_source, rows, seed=113), r, seed=114)
        x, xhat = one_shot_batch(example_source, r, rows, (113, 114))
        for got, want in ((batch.x, x), (batch.moments, one_shot_moments(x, xhat))):
            np.testing.assert_allclose(got, want, rtol=1e-13,
                                       atol=1e-13 * float(np.abs(want).max()))

    def test_memory_is_one_array_plus_chunks(self, example_source, case2, monkeypatch):
        # tracemalloc sees numpy's data buffers.  The batch holds x and the
        # 8x8 moments; everything else is per-chunk temporaries, about
        # 0.27 MB at n = 4 with two threads (128 KiB of normals per thread).
        monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
        r = realize(example_source, solve(example_source, case2).sigma)
        alternatives = [0.9 * np.eye(4), 1.1 * np.eye(4), np.ones((4, 4))]

        def pipeline(rows):
            batch = push_channel(sample_source(example_source, rows, seed=121), r, seed=122)
            check_distortion(batch, case2)
            check_cm_optimality(batch, r, alternatives)
            empirical_error_covariance(batch)
            return batch.x.nbytes

        pipeline(10)  # lazy imports and first-call set-up stay out of the peak
        tracemalloc.start()
        try:
            x_bytes = pipeline(200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x_bytes + 2**20


class TestThreadedBlocks:
    ROWS = 2 * _BLOCK_ROWS + 17

    def test_same_batch_on_any_worker_count(self, example_source, case2, monkeypatch):
        # neither the block layout nor the order of the block sums may depend
        # on how the threads share the blocks; a short switch interval makes
        # them interleave often
        r = realize(example_source, solve(example_source, case2).sigma)
        batches = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(sim, "_cpu_count", lambda: workers)
                batches.append(push_channel(sample_source(example_source, self.ROWS, seed=131),
                                            r, seed=132))
        finally:
            sys.setswitchinterval(interval)
        for other in batches[1:]:
            assert np.array_equal(other.x, batches[0].x)
            assert np.array_equal(other.moments, batches[0].moments)

    def test_failure_in_a_block_reaches_the_caller(self, example_source, case2, monkeypatch):
        r = realize(example_source, solve(example_source, case2).sigma)
        batch = sample_source(example_source, self.ROWS, seed=141)
        threads = threading.active_count()
        fail_blocks_after_first(monkeypatch)
        with pytest.raises(MemoryError, match="no memory for block"):
            sample_source(example_source, self.ROWS, seed=141)
        assert threading.active_count() == threads
        with pytest.raises(MemoryError, match="no memory for block"):
            push_channel(batch, r, seed=142)
        assert threading.active_count() == threads


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
        _, r, batch = case1_run if which == "case1" else case2_run
        x, xhat = one_shot_draws[which]
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
    def _push(src, r, rows, seeds):
        batch = push_channel(sample_source(src, rows, seed=seeds[0]), r, seed=seeds[1])
        return batch, *one_shot_batch(src, r, rows, seeds)

    @pytest.mark.parametrize("rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    def test_rows_around_chunk_size(self, example_source, case2, rows):
        r = realize(example_source, solve(example_source, case2).sigma)
        batch, x, xhat = self._push(example_source, r, rows, (61, 62))
        _assert_matches_unchunked(batch, r, case2, self._alternatives(r, 4), x, xhat)

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_full_batch(self, which, case1, case2, case1_run, case2_run, one_shot_draws):
        _, r, batch = case1_run if which == "case1" else case2_run
        d = case1 if which == "case1" else case2
        _assert_matches_unchunked(batch, r, d, self._alternatives(r, 4),
                                  *one_shot_draws[which])

    def test_uneven_split(self):
        src = validate_source(random_pd_pair(np.random.default_rng(71), 1, 3), 1, 3)
        d = DistortionPair(0.3 * float(np.trace(src.q11)), 0.3 * float(np.trace(src.q22)))
        r = realize(src, solve(src, d).sigma)
        batch, x, xhat = self._push(src, r, 3 * _CHUNK_ROWS + 17, (72, 73))
        _assert_matches_unchunked(batch, r, d, self._alternatives(r, 4), x, xhat)

    def test_no_alternatives(self, example_source, case2):
        r = realize(example_source, solve(example_source, case2).sigma)
        batch, x, xhat = self._push(example_source, r, _CHUNK_ROWS + 5, (81, 82))
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
