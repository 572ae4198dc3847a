"""Monte-Carlo validation of a solved instance.

Draws source samples, pushes them through a test-channel realization, and
compares empirical block distortions, residual statistics, and estimator
mean-squared errors against their analytic values.  Randomness comes from the
counter-based Philox bit generator, which is seedable and splittable; the
generator identity is recorded on every report so runs are self-describing.
All pass/fail thresholds are statistical (concentration-based), never exact.

Every step walks the batch in row chunks.  Sampling and the channel push
draw their normals chunk by chunk from one Philox stream each (bit-identical
to one large draw) and write straight into the preallocated x and xhat; the
checks form the residual x - xhat per chunk, and their means and variances
merge across chunks by a stable pairwise update.  So the batch holds x and
xhat in full and nothing else does: memory beyond them is O(chunk).
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
    """Source draws x and reproductions xhat.

    sample_source fills x only; push_channel returns a completed batch.
    Rows are samples, columns the stacked (p1 + p2) coordinates.  The
    residuals x - xhat are not stored.
    """

    p1: int
    p2: int
    n: int
    x: np.ndarray
    xhat: np.ndarray | None = None


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


# Rows per chunk of every pass over a batch: a chunk's temporaries stay small
# (at most about 1.4 MB, in the dominance check at n = 4 with three
# alternatives), and the per-chunk Python overhead stays small against the
# arithmetic.
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
    """Apply xhat = x H^T + v with v ~ N(0, qv) independent of x."""
    if batch.x.shape[1] != r.n:
        raise ValueError(
            f"batch dimension {batch.x.shape[1]} does not match channel dimension {r.n}"
        )
    noise_t = sqrt_factor(r.qv).T
    h_t = r.h.T
    xhat = np.empty_like(batch.x)
    rng = _rng(seed)
    for rows in _row_chunks(batch.n):
        chunk = xhat[rows]
        np.matmul(rng.standard_normal(chunk.shape), noise_t, out=chunk)
        chunk += batch.x[rows] @ h_t
    return replace(batch, xhat=xhat)


def _residual_chunks(batch: SampleBatch) -> Iterator[np.ndarray]:
    """The residual x - xhat, one new row-chunk array at a time."""
    if batch.xhat is None:
        raise ValueError("batch has no residuals; run push_channel first")
    return (batch.x[rows] - batch.xhat[rows] for rows in _row_chunks(batch.n))


def _col_sums(a: np.ndarray) -> np.ndarray:
    # A BLAS product: on narrow arrays .sum(axis=0) is several times slower.
    return np.ones(a.shape[0]) @ a


def _block_means(col_sq: np.ndarray, p1: int, rows: int) -> tuple[float, float]:
    return float(col_sq[:p1].sum()) / rows, float(col_sq[p1:].sum()) / rows


class _RunningMoments:
    """Per-column count, mean and centered second moment over row chunks.

    Chunks merge by the pairwise update of Chan, Golub and LeVeque (1979),
    which avoids the cancellation of a single-pass sum of squares.
    """

    def __init__(self, columns: int) -> None:
        self.count = 0
        self.mean = np.zeros(columns)
        self.m2 = np.zeros(columns)

    def add(self, chunk: np.ndarray) -> None:
        """Merge the rows of chunk; chunk is centered in place."""
        k = chunk.shape[0]
        chunk_mean = _col_sums(chunk) / k
        chunk -= chunk_mean
        total = self.count + k
        delta = chunk_mean - self.mean
        self.mean = self.mean + delta * (k / total)
        self.m2 = self.m2 + _col_sums(chunk * chunk) + delta * delta * (self.count * k / total)
        self.count = total

    def std(self, ddof: int) -> np.ndarray:
        return np.sqrt(self.m2 / (self.count - ddof))


def check_distortion(batch: SampleBatch, d: DistortionPair) -> DistortionReport:
    """Empirical per-block mean squared residuals against the budgets.

    Passes iff each empirical distortion is at most the budget inflated by
    the three-sigma allowance 1 + 3*sqrt(2 p_i / n).  The column sums of
    squares stream over row chunks, so memory beyond the batch is O(chunk).
    """
    col_sq = np.zeros(batch.x.shape[1])
    for e in _residual_chunks(batch):
        col_sq += _col_sums(e * e)
    emp1, emp2 = _block_means(col_sq, batch.p1, batch.n)
    bound1 = d.d1 * (1.0 + 3.0 * math.sqrt(2.0 * batch.p1 / batch.n))
    bound2 = d.d2 * (1.0 + 3.0 * math.sqrt(2.0 * batch.p2 / batch.n))
    return DistortionReport(
        empirical_d1=emp1,
        empirical_d2=emp2,
        bound_d1=bound1,
        bound_d2=bound2,
        passed=bool(emp1 <= bound1 and emp2 <= bound2),
    )


def check_cm_optimality(
    batch: SampleBatch,
    r: TestChannelRealization,
    alternatives: list[np.ndarray],
) -> CmOptimalityReport:
    """Empirical MSE dominance of the conditional-mean estimate.

    For each alternative linear map g the per-block MSE of x - g(xhat) must
    not beat the conditional-mean map by more than the statistical slack
    3 * std / sqrt(n) of the per-sample MSE difference.

    One pass over row chunks: with u = x - xhat M^T the conditional-mean
    residual and delta_g = xhat (M - g)^T, the per-sample block difference is
    sum_{j in block} delta_j (delta_j + 2 u_j), formed for every alternative
    by one product against the stacked (M - g)^T.  Its mean and variance
    merge across chunks by a stable pairwise update, so memory beyond the
    batch is O(chunk).  For g == M, delta is exactly zero and so is the margin.
    """
    if batch.xhat is None:
        raise ValueError("batch has no reproductions; run push_channel first")
    n = batch.x.shape[1]
    m = conditional_mean_map(r)
    maps = [np.asarray(g, dtype=float) for g in alternatives]
    for g in maps:
        if g.shape != (n, n):
            raise ValueError(f"alternative map must be {n}x{n}, got shape {g.shape}")
    # Column k*n + j of deltas_t is row j of (M - g_k)^T; the empty leading
    # block keeps hstack valid when there are no alternatives.
    deltas_t = np.hstack([np.empty((n, 0))] + [(m - g).T for g in maps])
    twice_tiled = np.tile(2.0 * np.eye(n), (1, len(maps)))
    blocks = np.zeros((n, 2))
    blocks[: batch.p1, 0] = 1.0
    blocks[batch.p1 :, 1] = 1.0
    # Sums each alternative's n columns into its (block 1, block 2) pair.
    block_sums = np.kron(np.eye(len(maps)), blocks)

    base_sq = np.zeros(n)
    diffs = _RunningMoments(2 * len(maps))
    for rows in _row_chunks(batch.n):
        xhat = batch.xhat[rows]
        u = batch.x[rows] - xhat @ m.T
        base_sq += _col_sums(u * u)
        delta = xhat @ deltas_t
        # |u + delta|^2 - |u|^2 per column, as delta * (delta + 2u)
        sq_diff = u @ twice_tiled
        sq_diff += delta
        sq_diff *= delta
        diffs.add(sq_diff @ block_sums)

    slacks = 3.0 * diffs.std(ddof=1 if batch.n > 1 else 0) / math.sqrt(batch.n)
    means = diffs.mean
    return CmOptimalityReport(
        base_mse=_block_means(base_sq, batch.p1, batch.n),
        margins=tuple(
            ((float(means[i]), float(means[i + 1])), (float(slacks[i]), float(slacks[i + 1])))
            for i in range(0, means.size, 2)
        ),
        passed=not bool(np.any(means < -slacks)),
    )


def empirical_error_covariance(batch: SampleBatch) -> np.ndarray:
    """Sample covariance of the residuals (zero-mean convention), summed
    over row chunks."""
    cov = np.zeros((batch.x.shape[1], batch.x.shape[1]))
    for e in _residual_chunks(batch):
        cov += e.T @ e
    return cov / batch.n
