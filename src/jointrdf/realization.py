"""Synthesis of the linear-plus-noise channel attaining an error covariance.

Given a source with covariance Q and a feasible error covariance Sigma, the
reproduction Xhat = H X + V with H = I - Sigma Q^{-1} and noise covariance
Qv = Sigma - Sigma Q^{-1} Sigma reproduces X with error covariance exactly
Sigma, and the reproduction equals the conditional mean E{X | Xhat}.  The
checks here verify that structure numerically through the orthogonality
principle: the error X - Xhat is uncorrelated with Xhat, i.e.
cov(X, Xhat) = cov(Xhat).  That holds iff cov(X, Xhat) cov(Xhat)^+ is the
projector onto the range of cov(Xhat) (the identity at full rank), and it
needs no pseudoinverse, so it stays exact relative to ||Q||_2 however small
the modes of cov(Xhat) are.

The rank is decided once per channel, by one rule: the number of eigenvalues
of cov(Xhat) = H Q H^T + Qv above PSD_RTOL * ||Q||_2.  For a realized
channel cov(Xhat) = Q - Sigma, which loses rank exactly where the budgets
push Q - Sigma onto the PSD boundary.  The fixed CHECK_TOL, also relative to
||Q||_2, only decides pass or fail; it never moves the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._linalg import readonly, sym
from .model import PSD_RTOL, GaussianPairSource
from .solver import _as_matrix, check_psd_bounds

CHECK_TOL = 1e-8


class XhatCovariance(NamedTuple):
    """Rank and pseudoinverse of cov(Xhat)."""

    rank: int
    pinv: np.ndarray


@dataclass(frozen=True)
class TestChannelRealization:
    """Channel Xhat = H X + V with V ~ N(0, qv) independent of X.

    The arrays are treated as immutable: cov(Xhat) is factored on first use
    and cached on the instance.
    """

    h: np.ndarray
    qv: np.ndarray
    source: GaussianPairSource

    @cached_property
    def xhat_cov(self) -> XhatCovariance:
        """cov(Xhat), factored once; modes at or below PSD_RTOL * ||Q||_2
        count as zero."""
        w, u = np.linalg.eigh(self.xhat_covariance())
        keep = w > PSD_RTOL * self.source.q_norm
        ur = u[:, keep]
        return XhatCovariance(
            rank=int(np.count_nonzero(keep)),
            pinv=readonly(sym((ur / w[keep]) @ ur.T)),
        )

    def xhat_covariance(self) -> np.ndarray:
        """cov(Xhat) = H Q H^T + Qv."""
        return sym(self.h @ self.source.q @ self.h.T + self.qv)

    def cross_covariance(self) -> np.ndarray:
        """cov(X, Xhat) = Q H^T."""
        return self.source.q @ self.h.T


@dataclass(frozen=True)
class Condition1Report:
    """Outcome of the conditional-mean structure check."""

    deviation: float
    passed: bool
    rank: int


def realize(src: GaussianPairSource, sigma) -> TestChannelRealization:
    """Build the channel realizing an error covariance against its source.

    Requires 0 <= Sigma <= Q within PSD_RTOL (for such Sigma the noise
    covariance Sigma - Sigma Q^{-1} Sigma is PSD as well); raises
    FeasibilityError otherwise.  Sigma is an ErrorCovariance or an array.
    """
    s = sym(_as_matrix(sigma))
    check_psd_bounds(src, s)
    q_inv_s = np.linalg.solve(src.q, s)  # Q^{-1} Sigma
    h = np.eye(src.n) - q_inv_s.T
    qv = sym(s - q_inv_s.T @ s)
    return TestChannelRealization(h=readonly(h), qv=readonly(qv), source=src)


def verify_condition1(r: TestChannelRealization) -> Condition1Report:
    """Check the orthogonality principle cov(X, Xhat) = cov(Xhat).

    deviation is ||Q H^T - (H Q H^T + Qv)||_F / ||Q||_2; it vanishes iff
    cov(X, Xhat) cov(Xhat)^+ is the range projector of cov(Xhat), the
    conditional-mean condition.  The check passes iff deviation is at most
    CHECK_TOL; rank deficiency is reported, not failed.
    """
    residual = r.cross_covariance() - r.xhat_covariance()
    deviation = float(np.linalg.norm(residual, "fro")) / r.source.q_norm
    return Condition1Report(
        deviation=deviation,
        passed=bool(deviation <= CHECK_TOL),
        rank=r.xhat_cov.rank,
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
