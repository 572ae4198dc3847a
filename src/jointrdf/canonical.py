"""Canonical variable form of a two-block covariance.

Two whitening transforms S1, S2 take the blocks to identity marginal
covariance while the cross block becomes Block-diag(D4, 0): a diagonal D4 of
canonical correlations strictly inside (0, 1), and zeros for uncorrelated
coordinates.  No correlation reaches 1: whitening Q by Block-diag(Q11, Q22)
gives eigenvalues 1 +- rho_k, and the smallest is at least
lambda_min(Q) / ||Q||_2 > PSD_RTOL on every source validate_source accepts.
The resulting determinant identities turn the joint rate objective into a
product over scalar canonical quantities, which this module evaluates for
verification against the direct determinant form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import readonly, sym
from .model import GaussianPairSource, validate_source

# Canonical correlations <= ZERO_CORR_TOL count as exactly 0: a block-diagonal
# Q has them, and an exact-arithmetic index partition needs such a tolerance
# in floating point.
ZERO_CORR_TOL = 1e-9

_SIGN_REL_TOL = 1e-12


@dataclass(frozen=True)
class CanonicalPartition:
    """Index counts (p12, p13, p22, p23) of the canonical split.

    p12 = p22 counts the canonical correlations in (0, 1), and p13 / p23 the
    uncorrelated remainder of each block.  The paper's unit class (p11 = p21,
    correlations equal to 1) is empty for every positive-definite source.
    """

    p12: int
    p13: int
    p22: int
    p23: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.p12, self.p13, self.p22, self.p23)


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical variable form of a two-block covariance.

    s1 and s2 are the block transforms, d1_vals / d2_vals the descending
    eigenvalues of the marginal blocks, d4_vals the canonical correlations in
    (0, 1), and q_cvf the transformed covariance (I, D3; D3.T, I).
    """

    p1: int
    p2: int
    s1: np.ndarray
    s2: np.ndarray
    d1_vals: np.ndarray
    d2_vals: np.ndarray
    d4_vals: np.ndarray
    partition: CanonicalPartition
    q_cvf: np.ndarray

    @property
    def d3(self) -> np.ndarray:
        return self.q_cvf[: self.p1, self.p1 :]


def _column_signs(u: np.ndarray) -> np.ndarray:
    """-1 for each column whose first significant entry is negative, else +1."""
    signs = np.ones(u.shape[1])
    for k in range(u.shape[1]):
        col = u[:, k]
        thresh = _SIGN_REL_TOL * float(np.abs(col).max() or 1.0)
        sig = np.nonzero(np.abs(col) > thresh)[0]
        if sig.size and col[sig[0]] < 0.0:
            signs[k] = -1.0
    return signs


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip columns so the first significant entry of each is positive."""
    # The copy is C-ordered; u * signs would keep the column-major layout of
    # eigh's reordered vectors and change the last bits of later products.
    out = u.copy()
    out *= _column_signs(u)
    return out


def _descending_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, u = np.linalg.eigh(sym(block))
    order = np.argsort(w)[::-1]
    return w[order], _fix_column_signs(u[:, order])


def to_canonical_form(src: GaussianPairSource) -> CanonicalForm:
    """Transform a pair covariance to canonical variable form.

    Steps: eigendecompose each marginal block, whiten the cross block,
    singular-value decompose it, and classify each singular value as
    interior or 0 using ZERO_CORR_TOL.  Signs of the decomposition factors
    are normalized so the transforms are deterministic.
    """
    p1, p2 = src.p1, src.p2
    d1_vals, u1 = _descending_eigh(src.q11)
    d2_vals, u2 = _descending_eigh(src.q22)
    t1 = (u1 / np.sqrt(d1_vals)).T
    t2 = (u2 / np.sqrt(d2_vals)).T
    c = t1 @ src.q12 @ t2.T
    u3, svals, v4t = np.linalg.svd(c, full_matrices=True)
    u4 = v4t.T
    # Flip (u3, u4) column pairs together to keep the product unchanged,
    # then the unpaired columns of either on their own.
    k = min(p1, p2)
    signs = _column_signs(u3[:, :k])
    u3[:, :k] *= signs
    u4[:, :k] *= signs
    u3[:, k:] *= _column_signs(u3[:, k:])
    u4[:, k:] *= _column_signs(u4[:, k:])

    n_mid = int(np.count_nonzero(svals > ZERO_CORR_TOL))
    part = CanonicalPartition(p12=n_mid, p13=p1 - n_mid, p22=n_mid, p23=p2 - n_mid)
    d4_vals = svals[:n_mid].copy()

    d3 = np.zeros((p1, p2))
    d3[:n_mid, :n_mid] = np.diag(d4_vals)
    q_cvf = np.block([[np.eye(p1), d3], [d3.T, np.eye(p2)]])

    return CanonicalForm(
        p1=p1,
        p2=p2,
        s1=readonly(u3.T @ t1),
        s2=readonly(u4.T @ t2),
        d1_vals=readonly(d1_vals),
        d2_vals=readonly(d2_vals),
        d4_vals=readonly(d4_vals),
        partition=part,
        q_cvf=readonly(q_cvf),
    )


def canonical_form_of_covariance(q: np.ndarray, p1: int, p2: int) -> CanonicalForm:
    """Canonical form of a raw covariance matrix (validates it first).

    Convenience used for error covariances, which share the block structure
    of the source.
    """
    return to_canonical_form(validate_source(q, p1, p2))


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
