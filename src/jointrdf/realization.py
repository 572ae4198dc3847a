"""Synthesis of the linear-plus-noise channel attaining an error covariance.

Given a source with covariance Q and a feasible error covariance Sigma, the
reproduction Xhat = H X + V with H = I - Sigma Q^{-1} and noise covariance
Qv = Sigma - Sigma Q^{-1} Sigma reproduces X with error covariance exactly
Sigma, and the reproduction equals the conditional mean E{X | Xhat}.  The
checks here verify that structure numerically: the cross-covariance of X and
Xhat composed with the (pseudo)inverse of the Xhat covariance must be the
identity, or the projector onto the Xhat range when that covariance is
rank-deficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eig_pinv, readonly, spectral_norm, sym
from .model import GaussianPairSource, NotPositiveDefiniteError
from .solver import FeasibilityError

CHECK_TOL = 1e-8
RANK_RTOL = 1e-10


def _rank_cutoff(n: int, tol: float, rank_rtol: float = RANK_RTOL) -> float:
    """Relative eigenvalue cutoff for the verification pseudoinverses.

    A mode of relative size w in cov(Xhat, Xhat) amplifies the assembly
    round-off between cov(X, Xhat) and cov(Xhat, Xhat) (equal in exact
    arithmetic for conditional-mean channels) by 1/w, so modes below
    ~ n*eps/tol cannot be certified at tolerance tol and must be treated as
    zero.
    """
    noise_rel = 4.0 * n * float(np.finfo(float).eps)
    return max(rank_rtol, noise_rel / tol)


@dataclass(frozen=True)
class TestChannelRealization:
    """Channel Xhat = H X + V with V ~ N(0, qv) independent of X."""

    h: np.ndarray
    qv: np.ndarray
    source: GaussianPairSource

    @property
    def n(self) -> int:
        return self.source.n

    def xhat_covariance(self) -> np.ndarray:
        return sym(self.h @ self.source.q @ self.h.T + self.qv)

    def cross_covariance(self) -> np.ndarray:
        """cov(X, Xhat) = Q H^T."""
        return self.source.q @ self.h.T

    def rank_scale(self) -> float:
        """Reference scale for rank decisions on the xhat covariance."""
        return max(spectral_norm(self.xhat_covariance()), spectral_norm(self.source.q))


@dataclass(frozen=True)
class Condition1Report:
    """Outcome of the conditional-mean structure check."""

    deviation: float
    passed: bool
    rank: int
    full_rank: bool


def realize(
    src: GaussianPairSource,
    sigma,
    *,
    psd_rtol: float = 1e-10,
) -> TestChannelRealization:
    """Build the channel realizing an error covariance against its source.

    Requires q > 0 and Q - Sigma >= 0 (equivalently the induced noise
    covariance Sigma - Sigma Q^{-1} Sigma is PSD); raises FeasibilityError
    otherwise.
    """
    if not src.positive_definite:
        raise NotPositiveDefiniteError("realization requires q > 0")
    s = sym(np.asarray(getattr(sigma, "sigma", sigma), dtype=float))
    n = src.n
    if s.shape != (n, n):
        raise FeasibilityError(f"sigma must be {n}x{n}, got {s.shape}")
    scale_q = float(np.abs(np.linalg.eigvalsh(src.q)).max())
    w = np.linalg.eigvalsh(src.q - s)
    if w[0] < -psd_rtol * scale_q:
        raise FeasibilityError(
            f"Q - sigma is not PSD (min eigenvalue {w[0]:.3e}); "
            "equivalently the noise covariance sigma - sigma Q^-1 sigma fails PSD"
        )
    q_inv_s = np.linalg.solve(src.q, s)  # Q^{-1} Sigma
    h = np.eye(n) - q_inv_s.T
    qv = sym(s - q_inv_s.T @ s)
    return TestChannelRealization(h=readonly(h), qv=readonly(qv), source=src)


def channel_gain_lstsq(q: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Least-squares solution H of H Q = Q - Sigma.

    Experimental: covers sources with singular Q, where the inverse-based
    construction in :func:`realize` is unavailable.  Returns the minimum-norm
    solution; feasibility of sigma is not checked.
    """
    q = sym(np.asarray(q, dtype=float))
    s = sym(np.asarray(sigma, dtype=float))
    ht, *_ = np.linalg.lstsq(q, q - s, rcond=None)
    return ht.T


def verify_condition1(
    r: TestChannelRealization,
    *,
    tol: float = CHECK_TOL,
    rank_rtol: float = RANK_RTOL,
) -> Condition1Report:
    """Check cov(X, Xhat) cov(Xhat, Xhat)^+ against the range projector.

    On the full-rank path the projector is the identity and the check is the
    exact conditional-mean condition; rank deficiency is reported, not
    failed, with the comparison taken against the orthogonal projector onto
    the range of cov(Xhat, Xhat).
    """
    c_hh = r.xhat_covariance()
    cutoff = _rank_cutoff(r.n, tol, rank_rtol)
    pinv, proj, rank = eig_pinv(c_hh, cutoff, scale=r.rank_scale())
    m = r.cross_covariance() @ pinv
    deviation = float(np.linalg.norm(m - proj, "fro"))
    return Condition1Report(
        deviation=deviation,
        passed=bool(deviation <= tol),
        rank=rank,
        full_rank=bool(rank == r.n),
    )


def conditional_mean_target(
    r: TestChannelRealization, *, tol: float = CHECK_TOL, rank_rtol: float = RANK_RTOL
) -> np.ndarray:
    """Comparison target for :func:`conditional_mean_map`: the identity when
    cov(Xhat, Xhat) has full numerical rank, else the projector onto its
    resolvable range."""
    _, proj, rank = eig_pinv(
        r.xhat_covariance(), _rank_cutoff(r.n, tol, rank_rtol), scale=r.rank_scale()
    )
    if rank == r.n:
        return np.eye(r.n)
    return proj


def conditional_mean_map(r: TestChannelRealization) -> np.ndarray:
    """Linear map taking xhat to E{X | Xhat = xhat}.

    Equals cov(X, Xhat) cov(Xhat, Xhat)^+; the identity (or the range
    projector, on the degenerate path) exactly when the channel has the
    conditional-mean structure.
    """
    pinv, _, _ = eig_pinv(
        r.xhat_covariance(), _rank_cutoff(r.n, CHECK_TOL), scale=r.rank_scale()
    )
    return r.cross_covariance() @ pinv


def implied_error_covariance(r: TestChannelRealization) -> np.ndarray:
    """Error covariance of the conditional-mean estimate through the channel:
    Q - cov(X, Xhat) cov(Xhat, Xhat)^+ cov(X, Xhat)^T."""
    c_xh = r.cross_covariance()
    pinv, _, _ = eig_pinv(
        r.xhat_covariance(), _rank_cutoff(r.n, CHECK_TOL), scale=r.rank_scale()
    )
    return sym(r.source.q - c_xh @ pinv @ c_xh.T)
