"""Synthesis of the linear-plus-noise channel attaining an error covariance.

Given a source with covariance Q and a feasible error covariance Sigma, the
reproduction Xhat = H X + V with H = I - Sigma Q^{-1} and noise covariance
Qv = Sigma - Sigma Q^{-1} Sigma reproduces X with error covariance exactly
Sigma, and the reproduction equals the conditional mean E{X | Xhat}.  The
checks here verify that structure numerically: the cross-covariance of X and
Xhat composed with the (pseudo)inverse of the Xhat covariance must be the
identity, or the projector onto the Xhat range when that covariance is
rank-deficient.

The rank is decided once per channel, by one rule: the number of eigenvalues
of cov(Xhat) = H Q H^T + Qv above PSD_RTOL * ||Q||_2.  For a realized
channel cov(Xhat) = Q - Sigma, which loses rank exactly where the budgets
push Q - Sigma onto the PSD boundary.  The check tolerance only decides
pass or fail; it never moves the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._linalg import readonly, sym
from .model import PSD_RTOL, GaussianPairSource, NotPositiveDefiniteError
from .solver import check_psd_bounds

CHECK_TOL = 1e-8


class XhatCovariance(NamedTuple):
    """Rank, pseudoinverse and range projector of cov(Xhat)."""

    rank: int
    pinv: np.ndarray
    projector: np.ndarray


@dataclass(frozen=True)
class TestChannelRealization:
    """Channel Xhat = H X + V with V ~ N(0, qv) independent of X.

    The arrays are treated as immutable: cov(Xhat) is factored on first use
    and cached on the instance.
    """

    h: np.ndarray
    qv: np.ndarray
    source: GaussianPairSource

    @property
    def n(self) -> int:
        return self.source.n

    @cached_property
    def xhat_cov(self) -> XhatCovariance:
        """cov(Xhat) = H Q H^T + Qv, factored once; modes at or below
        PSD_RTOL * ||Q||_2 count as zero."""
        cov = sym(self.h @ self.source.q @ self.h.T + self.qv)
        w, u = np.linalg.eigh(cov)
        keep = w > PSD_RTOL * self.source.q_norm
        ur = u[:, keep]
        return XhatCovariance(
            rank=int(np.count_nonzero(keep)),
            pinv=readonly(sym((ur / w[keep]) @ ur.T)),
            projector=readonly(sym(ur @ ur.T)),
        )

    def cross_covariance(self) -> np.ndarray:
        """cov(X, Xhat) = Q H^T."""
        return self.source.q @ self.h.T


@dataclass(frozen=True)
class Condition1Report:
    """Outcome of the conditional-mean structure check."""

    deviation: float
    passed: bool
    rank: int
    full_rank: bool


def realize(src: GaussianPairSource, sigma) -> TestChannelRealization:
    """Build the channel realizing an error covariance against its source.

    Requires q > 0 and 0 <= Sigma <= Q, each within PSD_RTOL (for such Sigma
    the noise covariance Sigma - Sigma Q^{-1} Sigma is PSD as well); raises
    FeasibilityError otherwise.
    """
    if not src.positive_definite:
        raise NotPositiveDefiniteError("realization requires q > 0")
    s = sym(np.asarray(getattr(sigma, "sigma", sigma), dtype=float))
    check_psd_bounds(src, s)
    q_inv_s = np.linalg.solve(src.q, s)  # Q^{-1} Sigma
    h = np.eye(src.n) - q_inv_s.T
    qv = sym(s - q_inv_s.T @ s)
    return TestChannelRealization(h=readonly(h), qv=readonly(qv), source=src)


def verify_condition1(r: TestChannelRealization, *, tol: float = CHECK_TOL) -> Condition1Report:
    """Check cov(X, Xhat) cov(Xhat, Xhat)^+ against the range projector.

    On the full-rank path the projector is the identity and the check is the
    exact conditional-mean condition; rank deficiency is reported, not
    failed, with the comparison taken against the orthogonal projector onto
    the range of cov(Xhat, Xhat).  tol is the pass threshold only.
    """
    m = conditional_mean_map(r)
    deviation = float(np.linalg.norm(m - r.xhat_cov.projector, "fro"))
    return Condition1Report(
        deviation=deviation,
        passed=bool(deviation <= tol),
        rank=r.xhat_cov.rank,
        full_rank=bool(r.xhat_cov.rank == r.n),
    )


def conditional_mean_map(r: TestChannelRealization) -> np.ndarray:
    """Linear map taking xhat to E{X | Xhat = xhat}.

    Equals cov(X, Xhat) cov(Xhat, Xhat)^+; the identity (or the range
    projector, on the degenerate path) exactly when the channel has the
    conditional-mean structure.
    """
    return r.cross_covariance() @ r.xhat_cov.pinv


def implied_error_covariance(r: TestChannelRealization) -> np.ndarray:
    """Error covariance of the conditional-mean estimate through the channel:
    Q - cov(X, Xhat) cov(Xhat, Xhat)^+ cov(X, Xhat)^T."""
    c_xh = r.cross_covariance()
    return sym(r.source.q - c_xh @ r.xhat_cov.pinv @ c_xh.T)
