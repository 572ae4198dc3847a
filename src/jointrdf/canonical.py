"""Canonical variable form of a two-block covariance.

Two whitening transforms S1, S2 take the blocks to identity marginal
covariance while the cross block becomes D3 = Block-diag(D4, 0): a diagonal
D4 of canonical correlations strictly inside (0, 1), and zeros for
uncorrelated coordinates.  The transformed covariance is
Q_cvf = (I, D3; D3^T, I).  No correlation reaches 1: whitening Q by
Block-diag(Q11, Q22) gives eigenvalues 1 +- rho_k, and the smallest is at
least lambda_min(Q) / ||Q||_2 > PSD_RTOL on every source validate_source
accepts.  The resulting determinant identities turn the joint rate objective
into a product over scalar canonical quantities, which this module evaluates
for verification against the direct determinant form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import readonly
from .model import GaussianPairSource

# Canonical correlations <= ZERO_CORR_TOL count as exactly 0: a block-diagonal
# Q has them, and an exact-arithmetic index partition needs such a tolerance
# in floating point.
ZERO_CORR_TOL = 1e-9

_SIGN_REL_TOL = 1e-12


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical variable form of a two-block covariance.

    s1 and s2 are the block transforms, d1_vals / d2_vals the descending
    eigenvalues of the marginal blocks, and d4_vals the canonical
    correlations in (0, 1), descending.  d3 is the transformed cross block
    S1 Q12 S2^T = Block-diag(D4, 0).
    """

    p1: int
    p2: int
    s1: np.ndarray
    s2: np.ndarray
    d1_vals: np.ndarray
    d2_vals: np.ndarray
    d4_vals: np.ndarray

    @property
    def partition(self) -> tuple[int, int, int, int]:
        """Index counts (p12, p13, p22, p23): p12 = p22 canonical correlations
        in (0, 1), p13 / p23 uncorrelated coordinates of each block.  The
        paper's unit class (correlations equal to 1) is empty for every
        positive-definite source."""
        k = self.d4_vals.size
        return (k, self.p1 - k, k, self.p2 - k)

    @property
    def d3(self) -> np.ndarray:
        k = self.d4_vals.size
        d3 = np.zeros((self.p1, self.p2))
        d3[range(k), range(k)] = self.d4_vals
        return d3


def _row_signs(a: np.ndarray) -> np.ndarray:
    """Column of -1 for each row whose first significant entry is negative, else +1."""
    mag = np.abs(a)
    first = np.argmax(mag > _SIGN_REL_TOL * mag.max(axis=1, keepdims=True), axis=1, keepdims=True)
    return np.where(np.take_along_axis(a, first, axis=1) < 0.0, -1.0, 1.0)


def to_canonical_form(src: GaussianPairSource) -> CanonicalForm:
    """Transform a pair covariance to canonical variable form.

    Steps: eigendecompose each marginal block, whiten the cross block,
    singular-value decompose it, and classify each singular value as
    interior or 0 using ZERO_CORR_TOL.  Signs are fixed once, on the
    transforms: each row of S1, and each unpaired row of S2, leads with a
    positive entry (the first above _SIGN_REL_TOL times the row's largest
    magnitude); each paired row of S2 takes the sign of its S1 row.
    """
    p1, p2 = src.p1, src.p2
    w1, u1 = np.linalg.eigh(src.q11)
    w2, u2 = np.linalg.eigh(src.q22)
    t1 = u1.T / np.sqrt(w1)[:, None]
    t2 = u2.T / np.sqrt(w2)[:, None]
    u3, svals, v4t = np.linalg.svd(t1 @ src.q12 @ t2.T)
    s1, s2 = u3.T @ t1, v4t @ t2
    k = min(p1, p2)
    signs = _row_signs(s1)
    s1 *= signs
    s2[:k] *= signs[:k]
    s2[k:] *= _row_signs(s2[k:])

    return CanonicalForm(
        p1=p1,
        p2=p2,
        s1=readonly(s1),
        s2=readonly(s2),
        d1_vals=readonly(w1[::-1]),
        d2_vals=readonly(w2[::-1]),
        d4_vals=readonly(svals[svals > ZERO_CORR_TOL]),
    )


def log_det_cvf(form: CanonicalForm) -> float:
    """ln det of the canonical covariance: sum of ln(1 - d4_i^2), which is
    0.0 when there are no interior correlations."""
    return float(np.sum(np.log1p(-form.d4_vals**2)))


def _log_det_product(form: CanonicalForm) -> float:
    """ln of det(D1) det(D2) det(Q_cvf), which the canonical determinant
    identity equates to ln det of the covariance the form came from."""
    return (
        float(np.sum(np.log(form.d1_vals)))
        + float(np.sum(np.log(form.d2_vals)))
        + log_det_cvf(form)
    )


def cvf_objective(src_cvf: CanonicalForm, err_cvf: CanonicalForm) -> float:
    """Rate value in canonical coordinates, in nats.

    0.5 * ln of det(D1) det(D2) det(Q_cvf) over the same product for the
    error form.  Coincides with 0.5 * ln(det Q / det Sigma) through the
    canonical determinant identity.
    """
    if (src_cvf.p1, src_cvf.p2) != (err_cvf.p1, err_cvf.p2):
        raise ValueError("source and error canonical forms have mismatched block sizes")
    return 0.5 * (_log_det_product(src_cvf) - _log_det_product(err_cvf))


def det_identity_residual(src: GaussianPairSource, form: CanonicalForm) -> float:
    """Relative residual of det(Q) = det(Q11) det(Q22) prod(1 - d4_i^2).

    The log-dets of Q11, Q22 and Q are the source's cached Cholesky ones.
    """
    ld11, ld22, ld = src.log_dets
    return abs(math.expm1(ld11 + ld22 + log_det_cvf(form) - ld))
