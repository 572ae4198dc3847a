"""Monte-Carlo validation of a solved instance.

Draws source samples, pushes them through a test-channel realization, and
compares empirical block distortions, residual statistics, and estimator
mean-squared errors against their analytic values.  Randomness comes from the
counter-based Philox bit generator, which is seedable and splittable; its
name is GENERATOR, which the CLI's verify output records.
All pass/fail thresholds are statistical (concentration-based), never exact.

Every check reads one streamed statistic.  Sampling and the channel push
split their rows into fixed blocks of _BLOCK_ROWS; block b draws its normals
from Philox(seed).jumped(b), an independent stream, chunk by chunk.  The
blocks run on one thread per CPU (numpy's normal draws and BLAS release the
GIL), but the layout never depends on the thread count and per-block sums
are added in block order, so x and C are bitwise the same on any number of
cores.  The push draws only the noise w, accumulates the second moments
S of [x, w], and returns C = T^T S T / N, the 2n x 2n second-moment matrix of
z = [x, xhat] = [x, w] T.  X and Xhat are jointly Gaussian, so C holds
everything the checks need: a block mean squared error is tr(A C) for a
quadratic form z^T A z, and by Isserlis' theorem that form has variance
2 tr((A C)^2).  The batch holds x and C; xhat is never stored, so memory
beyond x is O(chunk) per thread.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import sqrt_factor, sym
from .model import DistortionPair, GaussianPairSource
from .realization import TestChannelRealization, conditional_mean_map

GENERATOR = "philox4x64"


@dataclass(frozen=True)
class SampleBatch:
    """Source draws x and the second moments of z = [x, xhat].

    sample_source fills x only; push_channel returns a completed batch whose
    moments is the 2n x 2n matrix C = (1/N) sum z z^T, coordinates of x
    first.  Rows of x are samples, columns the stacked (p1 + p2)
    coordinates.  The reproductions xhat are not stored.
    """

    p1: int
    p2: int
    n: int
    x: np.ndarray
    moments: np.ndarray | None = None


@dataclass(frozen=True)
class DistortionReport:
    empirical_d1: float
    empirical_d2: float
    bound_d1: float
    bound_d2: float
    passed: bool


@dataclass(frozen=True)
class CmOptimalityReport:
    """Per-alternative MSE margins against the conditional-mean estimator.

    margins[k] holds ((margin_block1, margin_block2), (slack1, slack2)) for
    alternative k; the check passes when every margin clears -slack.
    """

    base_mse: tuple[float, float]
    margins: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    passed: bool


# Rows per chunk of sampling and the channel push: a chunk's temporaries stay
# small (128 KiB of normals per thread at n = 4), and the per-chunk Python
# overhead stays small against the arithmetic.
_CHUNK_ROWS = 4096
# Rows per block, the unit of work of one thread and of one Philox stream.
# A batch of at most one block draws exactly what Philox(seed) draws.
_BLOCK_ROWS = 16 * _CHUNK_ROWS


def _row_chunks(rows: int) -> Iterator[slice]:
    return (slice(start, start + _CHUNK_ROWS) for start in range(0, rows, _CHUNK_ROWS))


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed).jumped(block))


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(rows: int, work: Callable[[int, slice], np.ndarray | None]) -> list:
    """[work(b, rows of block b) for each block b], computed on one thread per
    CPU, the caller's among them.  The first failure in any thread stops
    every thread from taking another block and is raised here once all have
    stopped."""
    count = -(-rows // _BLOCK_ROWS)
    results = [None] * count
    failures: list[BaseException] = []
    blocks = iter(range(count))
    lock = threading.Lock()

    def worker() -> None:
        while not failures:
            with lock:
                b = next(blocks, None)
            if b is None:
                return
            try:
                results[b] = work(b, slice(b * _BLOCK_ROWS, (b + 1) * _BLOCK_ROWS))
            except BaseException as exc:
                failures.append(exc)

    threads = []
    try:
        for _ in range(min(_cpu_count(), count) - 1):
            thread = threading.Thread(target=worker)
            thread.start()
            threads.append(thread)
        worker()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return results


def sample_source(src: GaussianPairSource, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. zero-mean Gaussian rows with covariance q.

    The covariance factor U diag(sqrt(w)) comes from the source's cached
    eigendecomposition, whose eigenvalues are all positive.  Block b of
    _BLOCK_ROWS rows is _block_rng(seed, b)'s normals times that factor, so
    x depends on the seed alone, not on the number of CPUs.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    w, u = src.q_eigh
    factor_t = (u * np.sqrt(w)).T
    x = np.empty((n, src.n))

    def draw(b: int, block: slice) -> None:
        rng = _block_rng(seed, b)
        out = x[block]
        for rows in _row_chunks(out.shape[0]):
            chunk = out[rows]
            np.matmul(rng.standard_normal(chunk.shape), factor_t, out=chunk)

    _map_blocks(n, draw)
    return SampleBatch(p1=src.p1, p2=src.p2, n=n, x=x)


def push_channel(batch: SampleBatch, r: TestChannelRealization, seed: int) -> SampleBatch:
    """Apply xhat = x H^T + v with v ~ N(0, qv) independent of x, and return
    the batch with the moments of [x, xhat].

    v = w F^T for F F^T = qv and standard normals w, drawn per block like
    sample_source's.  Each block sums the second moments S of [x, w], the
    block sums are added in block order, and C = T^T S T / N with
    T = [[I, H^T], [0, F^T]]: the same C on any number of CPUs.
    """
    dim = batch.x.shape[1]
    if dim != r.n:
        raise ValueError(f"batch dimension {dim} does not match channel dimension {r.n}")

    def moments(b: int, block: slice) -> np.ndarray:
        rng = _block_rng(seed, b)
        s = np.zeros((2 * dim, 2 * dim))
        x_block = batch.x[block]
        noise = np.empty((min(_CHUNK_ROWS, x_block.shape[0]), dim))
        for rows in _row_chunks(x_block.shape[0]):
            x = x_block[rows]
            w = rng.standard_normal(out=noise[: x.shape[0]])
            s[:dim, :dim] += x.T @ x
            s[:dim, dim:] += x.T @ w
            s[dim:, dim:] += w.T @ w
        s[dim:, :dim] = s[:dim, dim:].T
        return s

    s = sum(_map_blocks(batch.n, moments))
    t = np.block([[np.eye(dim), r.h.T], [np.zeros((dim, dim)), sqrt_factor(r.qv).T]])
    return replace(batch, moments=sym(t.T @ s @ t) / batch.n)


def _moments(batch: SampleBatch) -> np.ndarray:
    if batch.moments is None:
        raise ValueError("batch has no reproductions; run push_channel first")
    return batch.moments


def empirical_error_covariance(batch: SampleBatch) -> np.ndarray:
    """Second moment of the residual x - xhat (zero-mean convention), from
    the batch's moments as C_xx + C_yy - (C_xy + C_yx), exactly symmetric."""
    c = _moments(batch)
    n = batch.x.shape[1]
    return c[:n, :n] + c[n:, n:] - (c[:n, n:] + c[n:, :n])


def check_distortion(batch: SampleBatch, d: DistortionPair) -> DistortionReport:
    """Empirical per-block mean squared residuals against the budgets.

    The empirical distortions are the block traces of the residual second
    moment.  Passes iff each is at most the budget inflated by the
    three-sigma allowance 1 + 3*sqrt(2 p_i / n).
    """
    e = empirical_error_covariance(batch)
    p1 = batch.p1
    emp1, emp2 = float(np.trace(e[:p1, :p1])), float(np.trace(e[p1:, p1:]))
    bound1 = d.d1 * (1.0 + 3.0 * math.sqrt(2.0 * batch.p1 / batch.n))
    bound2 = d.d2 * (1.0 + 3.0 * math.sqrt(2.0 * batch.p2 / batch.n))
    return DistortionReport(empirical_d1=emp1, empirical_d2=emp2, bound_d1=bound1,
                            bound_d2=bound2, passed=bool(emp1 <= bound1 and emp2 <= bound2))


def _block_forms(g: np.ndarray, p1: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_1, A_2) with z^T A_b z the squared error of block b of x - g xhat:
    A_b = P_b^T P_b, for P_b the rows of P = [I, -g] in block b."""
    p = np.hstack([np.eye(g.shape[0]), -g])
    return p[:p1].T @ p[:p1], p[p1:].T @ p[p1:]


def check_cm_optimality(
    batch: SampleBatch,
    r: TestChannelRealization,
    alternatives: list[np.ndarray],
) -> CmOptimalityReport:
    """Empirical MSE dominance of the conditional-mean estimate.

    For each alternative linear map g the per-block MSE of x - g(xhat) must
    not beat the conditional-mean map M by more than the statistical slack.
    Block b's per-sample difference is z^T A z, A = A_b(g) - A_b(M), so its
    margin is tr(A C) and its slack 3 sqrt(2 tr((A C)^2) / n), three
    standard errors of the mean of a Gaussian quadratic form.  Both come
    from S = F^T A F with C = F F^T, as tr(S) and |S|_F, so round-off cannot
    make the variance negative.  For g == M, A is exactly zero and so are
    the margin and the slack.
    """
    n = batch.x.shape[1]
    f = sqrt_factor(_moments(batch))

    def mean_and_slack(a: np.ndarray) -> tuple[float, float]:
        s = f.T @ a @ f
        return float(np.trace(s)), 3.0 * float(np.linalg.norm(s)) * math.sqrt(2.0 / batch.n)

    base = _block_forms(conditional_mean_map(r), batch.p1)
    margins = []
    for g in alternatives:
        g = np.asarray(g, dtype=float)
        if g.shape != (n, n):
            raise ValueError(f"alternative map must be {n}x{n}, got shape {g.shape}")
        stats = [mean_and_slack(a - b) for a, b in zip(_block_forms(g, batch.p1), base)]
        margins.append(tuple(zip(*stats)))
    return CmOptimalityReport(
        base_mse=(mean_and_slack(base[0])[0], mean_and_slack(base[1])[0]),
        margins=tuple(margins),
        passed=not any(m < -s for ms, ss in margins for m, s in zip(ms, ss)),
    )
