"""Monte-Carlo validation of a solved instance.

Draws source samples, pushes them through a test-channel realization, and
compares empirical block distortions, residual statistics, and estimator
mean-squared errors against their analytic values.  Randomness comes from the
counter-based Philox bit generator, which is seedable and splittable; the
generator identity is recorded on every report so runs are self-describing.
All pass/fail thresholds are statistical (concentration-based), never exact.

Every check reads one streamed statistic.  Sampling and the channel push
draw their normals chunk by chunk from one Philox stream each (bit-identical
to one large draw); the push forms each row chunk of z = [x, xhat] and adds
its z^T z into the 2n x 2n second-moment matrix C = (1/N) sum z z^T.  X and
Xhat are jointly Gaussian, so C holds everything the checks need: a block
mean squared error is tr(A C) for a quadratic form z^T A z, and by Isserlis'
theorem that form has variance 2 tr((A C)^2).  The batch holds x and C;
xhat is never stored, so memory beyond x is O(chunk).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import sqrt_factor
from .model import DistortionPair, GaussianPairSource
from .realization import TestChannelRealization, conditional_mean_map

GENERATOR = "philox4x64"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


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
    generator: str = GENERATOR


@dataclass(frozen=True)
class CmOptimalityReport:
    """Per-alternative MSE margins against the conditional-mean estimator.

    margins[k] holds ((margin_block1, margin_block2), (slack1, slack2)) for
    alternative k; the check passes when every margin clears -slack.
    """

    base_mse: tuple[float, float]
    margins: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    passed: bool
    generator: str = GENERATOR


# Rows per chunk of sampling and the channel push: a chunk's temporaries stay
# small (about 0.6 MB at n = 4: the normals, their product and the chunk of
# z), and the per-chunk Python overhead stays small against the arithmetic.
_CHUNK_ROWS = 4096


def _row_chunks(rows: int) -> Iterator[slice]:
    return (slice(start, start + _CHUNK_ROWS) for start in range(0, rows, _CHUNK_ROWS))


def sample_source(src: GaussianPairSource, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. zero-mean Gaussian rows with covariance q.

    The covariance factor U diag(sqrt(w)) comes from the source's cached
    eigendecomposition, whose eigenvalues are all positive.  Deterministic
    for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    w, u = src.q_eigh
    factor_t = (u * np.sqrt(w)).T
    x = np.empty((n, src.n))
    rng = _rng(seed)
    for rows in _row_chunks(n):
        chunk = x[rows]
        np.matmul(rng.standard_normal(chunk.shape), factor_t, out=chunk)
    return SampleBatch(p1=src.p1, p2=src.p2, n=n, x=x)


def push_channel(batch: SampleBatch, r: TestChannelRealization, seed: int) -> SampleBatch:
    """Apply xhat = x H^T + v with v ~ N(0, qv) independent of x, one row
    chunk at a time, and return the batch with the moments of [x, xhat]."""
    dim = batch.x.shape[1]
    if dim != r.n:
        raise ValueError(f"batch dimension {dim} does not match channel dimension {r.n}")
    # A chunk of z is x [I, H^T] + w [0, F^T] for standard normals w and
    # F F^T = qv: two products into contiguous rows, no strided copies.
    x_to_z = np.hstack([np.eye(dim), r.h.T])
    noise_to_z = np.hstack([np.zeros((dim, dim)), sqrt_factor(r.qv).T])
    z = np.empty((min(batch.n, _CHUNK_ROWS), 2 * dim))
    gram = np.zeros((2 * dim, 2 * dim))
    rng = _rng(seed)
    for rows in _row_chunks(batch.n):
        x = batch.x[rows]
        chunk = z[: x.shape[0]]
        np.matmul(x, x_to_z, out=chunk)
        chunk += rng.standard_normal(x.shape) @ noise_to_z
        gram += chunk.T @ chunk
    return replace(batch, moments=gram / batch.n)


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
