"""Monte-Carlo validation of a solved instance.

Draws the second moments of N source samples, pushes them through a
test-channel realization, and compares empirical block distortions, residual
statistics, and estimator mean-squared errors against their analytic values.
Every draw comes from stream(seed, *key): the SFC64 bit generator seeded by
SeedSequence(seed) spawned along key, so streams of distinct keys or seeds
are independent.  The generator's name is GENERATOR, which the CLI's verify
output records.  All pass/fail thresholds are statistical
(concentration-based), never exact.

No row is drawn.  X and Xhat are jointly Gaussian, so every check reads only
C, the 2n x 2n second-moment matrix of z = [x, xhat]: a block mean squared
error is tr(A C) for a quadratic form z^T A z, and by Isserlis' theorem that
form has variance 2 tr((A C)^2).  Sampling draws S_xx = x^T x ~ Wishart(N, Q)
as F_x F_x^T, with F_x = L A for L L^T = Q and A Bartlett's factor, O(n^2)
normals at any N.  The push writes xhat = x H^T + w F^T with F F^T = Qv and
w standard normal noise; it needs only the second moments S of [x, w], and
C = T^T S T / N.  It draws S_xw = x^T w and S_ww = w^T w from their exact law
given F_x, again with O(n^2) normals, so the cost of a run does not depend
on N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import sqrt_factor, sym
from .model import DistortionPair, GaussianPairSource
from .realization import TestChannelRealization, conditional_mean_map

GENERATOR = "sfc64"
# The largest sample count: the degrees of freedom of the Wishart draw are
# int64, so a count beyond this has no draw (the CLI exits 2 on it).
MAX_SAMPLES = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SampleBatch:
    """N source draws, held as a factor of their Gram, and the second
    moments of z = [x, xhat].

    sample_source fills p1, n, factor and seed: factor F_x is a dim x k
    matrix, k = min(n, dim), with F_x F_x^T = x^T x.  push_channel fills
    moments: the 2n x 2n matrix C = (1/N) sum z z^T, coordinates of x first.
    Columns are the stacked (p1 + p2) coordinates; xhat is not stored.  The
    rows x are drawn only if read, and only perfbench reads them (their size).
    """

    p1: int
    n: int
    factor: np.ndarray
    seed: int
    moments: np.ndarray | None = None

    @property
    def p2(self) -> int:
        return self.factor.shape[0] - self.p1

    @functools.cached_property
    def x(self) -> np.ndarray:
        """The n rows themselves, drawn on first read: x = U F_x^T for an
        n x k Haar frame U from stream(seed, 1), the orthonormal QR factor of
        an n x k Gaussian.  So x has the law of n i.i.d. N(0, q) rows,
        x^T x = F_x F_x^T to round-off, and x depends on the seed alone.  A
        long batch takes U by Cholesky-QR and overwrites the Gaussian with x
        chunk by chunk, so reading x allocates one n x dim array.
        """
        dim, k = self.factor.shape
        g = stream(self.seed, 1).standard_normal((self.n, k))
        if self.n < 16 * k:
            # Few rows: g may be ill-conditioned, so take Householder QR,
            # orthonormal at any condition, with R's diagonal made positive.
            u, r = np.linalg.qr(g)
            return (u * np.sign(np.diag(r))) @ self.factor.T
        # Here k == dim and g is well-conditioned: U = g L^-T for L L^T = g^T g.
        m = np.linalg.solve(np.linalg.cholesky(g.T @ g).T, self.factor.T)
        step = 4096  # rows per in-place product: 128 KiB of temporaries at dim = 4
        for start in range(0, self.n, step):
            rows = g[start:start + step]
            rows[...] = rows @ m
        return g


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


def stream(seed: int, *key: int) -> np.random.Generator:
    """The Monte-Carlo stream of seed and key: SFC64 seeded by
    SeedSequence(seed, spawn_key=key).  stream(seed) is the root sequence and
    stream(seed, b) its b-th spawned child.  SFC64 draws normals faster than
    the counter-based generators, and spawning keeps the streams apart."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def sample_source(src: GaussianPairSource, n: int, seed: int) -> SampleBatch:
    """The Gram x^T x of n i.i.d. zero-mean Gaussian rows x with covariance
    q, as its factor, without drawing the rows.

    x^T x ~ Wishart(n, q) is F_x F_x^T for F_x = U diag(sqrt(w)) A, from the
    source's cached eigendecomposition and Bartlett's A from stream(seed).
    """
    if not 1 <= n <= MAX_SAMPLES:
        raise ValueError(f"sample count must be between 1 and {MAX_SAMPLES}, got {n}")
    w, u = src.q_eigh
    factor = (u * np.sqrt(w)) @ _bartlett(n, src.n, stream(seed))
    return SampleBatch(p1=src.p1, n=n, factor=factor, seed=seed)


def _bartlett(dof: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A with A A^T ~ Wishart(dof, I_n), the law of H^T H for a dof x n
    matrix H of standard normals: the transpose of H's QR factor R, an n x k
    lower-trapezoidal matrix, k = min(dof, n), with A_ii^2 ~ chi^2(dof - i)
    and standard normals below the diagonal (Bartlett's A when dof >= n)."""
    k = min(dof, n)
    a = np.tril(rng.standard_normal((n, k)), -1)
    a[np.diag_indices(k)] = np.sqrt(rng.chisquare(dof - np.arange(k)))
    return a


def _draw_statistic(f_x: np.ndarray, rows: int, rng: np.random.Generator) -> np.ndarray:
    """S = [[S_xx, x^T w], [w^T x, w^T w]] for w a rows x n matrix of standard
    normals independent of x, drawn from its exact law given x = U F_x^T,
    U^T U = I_r, r = min(rows, n), so that S_xx = F_x F_x^T.

    U^T w and the part of w orthogonal to x are independent standard
    normals, so x^T w = F_x (U^T w) and w^T w = (U^T w)^T (U^T w) +
    Wishart(rows - r, I_n).  With G an r x n matrix of standard normals and
    B Bartlett's factor of the Wishart term, S = M M^T for
    M = [[F_x, 0], [G^T, B]].
    """
    n, r = f_x.shape
    g = rng.standard_normal((r, n))
    b = _bartlett(rows - r, n, rng)
    m = np.block([[f_x, np.zeros((n, b.shape[1]))], [g.T, b]])
    return m @ m.T


def _check_channel(batch: SampleBatch, r: TestChannelRealization) -> None:
    """Raise ValueError unless r's source splits x into the batch's blocks p1 + p2."""
    src, dim = r.source, batch.factor.shape[0]
    if (batch.p1, dim) != (src.p1, src.n):
        clash = (f"dimension {dim} does not match channel dimension {src.n}"
                 if dim != src.n else "blocks do not match")
        raise ValueError(f"batch {clash}: batch split {batch.p1}+{batch.p2}, "
                         f"channel split {src.p1}+{src.p2}")


def push_channel(batch: SampleBatch, r: TestChannelRealization, seed: int) -> SampleBatch:
    """Apply xhat = x H^T + v, v ~ N(0, qv) independent of x, and return the
    batch with the moments of [x, xhat], from batch.factor and no row of x.

    v = w F^T for F F^T = qv and standard normals w.  _draw_statistic
    completes the second moments S of [x, w] from F_x = batch.factor and
    stream(seed), and C = T^T S T / N with T = [[I, H^T], [0, F^T]].
    """
    _check_channel(batch, r)
    dim = r.source.n
    if batch.factor.shape[1] != min(batch.n, dim):
        raise ValueError(f"batch factor of shape {batch.factor.shape} is no Gram factor of "
                         f"{batch.n} rows; draw it with sample_source")
    s = _draw_statistic(batch.factor, batch.n, stream(seed))
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
    n = batch.factor.shape[0]
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
    n = batch.factor.shape[0]
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
