"""Monte-Carlo validation of a solved instance.

Draws source samples, pushes them through a test-channel realization, and
compares empirical block distortions, residual statistics, and estimator
mean-squared errors against their analytic values.  Every draw comes from
stream(seed, *key): the SFC64 bit generator seeded by SeedSequence(seed)
spawned along key, so streams of distinct keys or seeds are independent.
The generator's name is GENERATOR, which the CLI's verify output records.
All pass/fail thresholds are statistical (concentration-based), never exact.

Sampling is the only pass over the rows.  It splits them into fixed blocks
of _BLOCK_ROWS; block b draws its normals from stream(seed, b), chunk by
chunk, and returns its Gram.  The blocks run on min(CPUs, blocks) threads,
since numpy's normal draws and BLAS release the GIL; the layout never depends
on the thread count and the Grams are added in block order, so x and
S_xx = x^T x are bitwise the same on any number of cores.  The push writes
xhat = x H^T + w F^T with F F^T = Qv and w standard normal noise, and needs
only the second moments S of [x, w]: C = T^T S T / N is the 2n x 2n
second-moment matrix of z = [x, xhat] = [x, w] T.  It reads S_xx, no row of
x, and draws S_xw = x^T w and S_ww = w^T w from their exact law given S_xx.
X and Xhat are jointly Gaussian, so C holds everything the checks need: a
block mean squared error is tr(A C) for a quadratic form z^T A z, and by
Isserlis' theorem that form has variance 2 tr((A C)^2).  Neither w nor xhat
is ever drawn row by row, so memory beyond x is O(chunk) per sampling thread.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import sqrt_factor, sym
from .model import DistortionPair, GaussianPairSource
from .realization import TestChannelRealization, conditional_mean_map

GENERATOR = "sfc64"


@dataclass(frozen=True)
class SampleBatch:
    """Source draws x, their Gram x^T x, and the second moments of z = [x, xhat].

    sample_source fills x and gram, push_channel moments: the 2n x 2n matrix
    C = (1/N) sum z z^T, coordinates of x first.  Rows of x are samples,
    columns the stacked (p1 + p2) coordinates; xhat is not stored.
    """

    p1: int
    x: np.ndarray
    moments: np.ndarray | None = None
    gram: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p2(self) -> int:
        return self.x.shape[1] - self.p1


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


# Rows per chunk of sampling: a chunk's temporaries stay small (128 KiB of
# normals per thread at n = 4), and the per-chunk Python overhead stays small
# against the arithmetic.
_CHUNK_ROWS = 4096
# Rows per block, the unit of work of one thread and of one stream of x: block
# b draws from stream(seed, b).
_BLOCK_ROWS = 16 * _CHUNK_ROWS


def stream(seed: int, *key: int) -> np.random.Generator:
    """The Monte-Carlo stream of seed and key: SFC64 seeded by
    SeedSequence(seed, spawn_key=key).  stream(seed) is the root sequence and
    stream(seed, b) its b-th spawned child.  SFC64 draws normals faster than
    the counter-based generators, and spawning keeps the streams apart."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(rows: int, work: Callable[[int, slice], np.ndarray]) -> list:
    """[work(b, rows of block b) for each block b] on a pool of min(CPUs,
    blocks) threads that the caller waits on.  A failure cancels every block
    not yet started and is raised here once the running ones have finished."""
    # Imported here: nothing else that import jointrdf loads imports
    # concurrent.futures, and loading it costs 5-8 ms of start-up.
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    count = -(-rows // _BLOCK_ROWS)
    pool = ThreadPoolExecutor(max_workers=min(_cpu_count(), count))
    try:
        futures = [pool.submit(work, b, slice(b * _BLOCK_ROWS, (b + 1) * _BLOCK_ROWS))
                   for b in range(count)]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]


def sample_source(src: GaussianPairSource, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. zero-mean Gaussian rows x with covariance q, and x^T x.

    Block b of _BLOCK_ROWS rows is stream(seed, b)'s normals times
    U diag(sqrt(w)), from the source's cached eigendecomposition; the block
    Grams are added in block order, so x and gram depend on the seed alone.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    w, u = src.q_eigh
    factor_t = (u * np.sqrt(w)).T
    x = np.empty((n, src.n))

    def draw(b: int, block: slice) -> np.ndarray:
        rng = stream(seed, b)
        out = x[block]
        for start in range(0, out.shape[0], _CHUNK_ROWS):
            chunk = out[start:start + _CHUNK_ROWS]
            np.matmul(rng.standard_normal(chunk.shape), factor_t, out=chunk)
        return out.T @ out

    return SampleBatch(p1=src.p1, x=x, gram=sum(_map_blocks(n, draw)))


def _wishart(dof: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A draw of Wishart(dof, I_n), the law of H^T H for a dof x n matrix H of
    standard normals: A A^T for the transpose A of H's QR factor R, an n x k
    lower-trapezoidal matrix, k = min(dof, n), with A_ii^2 ~ chi^2(dof - i)
    and standard normals below the diagonal (Bartlett's A when dof >= n)."""
    k = min(dof, n)
    a = np.tril(rng.standard_normal((n, k)), -1)
    a[np.diag_indices(k)] = np.sqrt(rng.chisquare(dof - np.arange(k)))
    return a @ a.T


def _draw_statistic(s_xx: np.ndarray, rows: int, rng: np.random.Generator) -> np.ndarray:
    """S = [[S_xx, x^T w], [w^T x, w^T w]] for w a rows x n matrix of standard
    normals independent of x, drawn from its exact law given S_xx = x^T x.

    Write x = U R with U^T U = I_r, r = min(rows, n).  Then U^T w and the
    part of w orthogonal to x are independent standard normals, so
    x^T w = R^T (U^T w) and w^T w = (U^T w)^T (U^T w) + Wishart(rows - r, I_n).
    F, the top r modes of S_xx times their root, has F F^T = R^T R, so
    F = R^T O for an orthogonal O, which leaves the law of U^T w unchanged:
    with G an r x n matrix of standard normals, x^T w ~ F G and
    w^T w ~ G^T G + Wishart(rows - r, I_n), jointly.
    """
    n = s_xx.shape[0]
    r = min(rows, n)
    f = sqrt_factor(s_xx)[:, n - r:]
    g = rng.standard_normal((r, n))
    s_xw = f @ g
    return np.block([[s_xx, s_xw], [s_xw.T, g.T @ g + _wishart(rows - r, n, rng)]])


def _check_channel(batch: SampleBatch, r: TestChannelRealization) -> None:
    """Raise ValueError unless r's source splits x into the batch's blocks p1 + p2."""
    src, dim = r.source, batch.x.shape[1]
    if (batch.p1, dim) != (src.p1, src.n):
        clash = (f"dimension {dim} does not match channel dimension {src.n}"
                 if dim != src.n else "blocks do not match")
        raise ValueError(f"batch {clash}: batch split {batch.p1}+{batch.p2}, "
                         f"channel split {src.p1}+{src.p2}")


def push_channel(batch: SampleBatch, r: TestChannelRealization, seed: int) -> SampleBatch:
    """Apply xhat = x H^T + v, v ~ N(0, qv) independent of x, and return the
    batch with the moments of [x, xhat], from batch.gram and no row of x.

    v = w F^T for F F^T = qv and standard normals w.  _draw_statistic
    completes the second moments S of [x, w] from S_xx = batch.gram and
    stream(seed), and C = T^T S T / N with T = [[I, H^T], [0, F^T]].
    """
    _check_channel(batch, r)
    if batch.gram is None:
        raise ValueError("batch has no Gram x^T x; draw it with sample_source")
    s = _draw_statistic(batch.gram, batch.n, stream(seed))
    dim = r.source.n
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


def minimum_samples(src: GaussianPairSource) -> int:
    """Fewest samples n at which check_distortion's allowance 3*sqrt(2 p_i / n) is <= 1/2."""
    return 72 * max(src.p1, src.p2)


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
    _check_channel(batch, r)
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
