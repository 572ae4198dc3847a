"""Dense symmetric-matrix helpers shared across the package."""

from __future__ import annotations

import numpy as np


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a.T) / 2, of each matrix of a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def chol_logdet(a: np.ndarray) -> float:
    """log det of a symmetric positive-definite matrix via Cholesky.

    Raises np.linalg.LinAlgError if the matrix is not positive definite.
    """
    lower = np.linalg.cholesky(sym(a))
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


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
