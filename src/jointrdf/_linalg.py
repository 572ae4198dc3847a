"""Dense symmetric-matrix helpers shared across the package."""

from __future__ import annotations

import numpy as np


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a.T) / 2."""
    return 0.5 * (a + a.T)


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    if a.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(sym(a))
    return float(np.abs(w).max())


def chol_logdet(a: np.ndarray) -> float:
    """log det of a symmetric positive-definite matrix via Cholesky.

    Raises np.linalg.LinAlgError if the matrix is not positive definite.
    """
    lower = np.linalg.cholesky(sym(a))
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def psd_project(a: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive-semidefinite matrix: clip negative eigenvalues."""
    s = sym(a)
    w, u = np.linalg.eigh(s)
    if w.size == 0 or w[0] >= 0.0:
        return s
    return sym((u * np.maximum(w, 0.0)) @ u.T)


def eig_pinv(
    a: np.ndarray, rel_tol: float = 1e-10, scale: float | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pseudoinverse of a symmetric PSD matrix by rank-revealing eigendecomposition.

    Eigenvalues at or below rel_tol * scale are treated as zero; scale
    defaults to ||a||_2 but callers comparing against an external reference
    (e.g. a source covariance) should pass that reference, so a numerically
    zero matrix does not acquire rank from round-off.
    Returns (pinv, range_projector, rank).
    """
    s = sym(a)
    w, u = np.linalg.eigh(s)
    if scale is None:
        scale = float(np.abs(w).max()) if w.size else 0.0
    keep = w > rel_tol * scale
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        z = np.zeros_like(s)
        return z, z.copy(), 0
    ur = u[:, keep]
    pinv = sym((ur / w[keep]) @ ur.T)
    proj = sym(ur @ ur.T)
    return pinv, proj, rank


def sqrt_factor(a: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T = a, for symmetric PSD a.

    Uses eigendecomposition with negative eigenvalues clipped to zero, so
    semidefinite (rank-deficient) inputs are handled.
    """
    w, u = np.linalg.eigh(sym(a))
    return u * np.sqrt(np.maximum(w, 0.0))


def readonly(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous float copy with the writeable flag cleared."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out
