"""Gaussian source-pair model and the classical information quantities on it.

A source pair is a zero-mean jointly Gaussian vector split into two blocks of
dimensions p1 and p2, described entirely by its joint covariance.  This module
validates such covariances, computes the mutual information between the two
blocks, evaluates the single-source rate-distortion function by reverse
water-filling, and combines the three into the additive lower bound on the
joint rate-distortion function.

Two fixed relative tolerances govern validation: SYMMETRY_RTOL for the
asymmetry of the input and PSD_RTOL for its eigenvalues.  A source is
positive definite by construction: validate_source refuses any Q whose
smallest eigenvalue is not above PSD_RTOL * ||Q||_2, so nothing downstream
checks definiteness again.  The source stores eigh(Q), which validate_source
computes anyway; ||Q||_2 is its largest eigenvalue, and every tolerance on
the spectrum of Q, here and in the solver and realization, is taken
relative to that one value.

A source also caches, read-only and from Q alone on first use, what the bound
and the solver need: the log-dets of Q11, Q22 and Q, the block traces and
the block eigenvalues.  After the first call on a source, the Gray bound
and the mutual information factor nothing.

All rates are in nats.  Display conversion to bits lives in the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import readonly, sym

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10


class SourceValidationError(ValueError):
    """Covariance input failed a shape, symmetry, or definiteness check."""


@dataclass(frozen=True)
class GaussianPairSource:
    """Validated joint covariance of a two-block zero-mean Gaussian vector.

    Construct through :func:`validate_source`, which guarantees q > 0.  The
    stored matrix is symmetrized and marked read-only; block views q11, q12,
    q22 index directly into it.  q_eigh is eigh(q), read-only: ascending
    eigenvalues and orthonormal eigenvectors.  q_norm, its largest
    eigenvalue, is ||q||_2, the scale against which every PSD tolerance on
    q is measured.

    The cached properties below are functions of q alone, computed once on
    first use and read-only, so a solve stays a pure function of (q, d).
    """

    p1: int
    p2: int
    q: np.ndarray
    q_eigh: tuple[np.ndarray, np.ndarray]

    def __setstate__(self, state: dict) -> None:
        # pickle does not keep numpy's writeable flag, so an unpickled source
        # would hand out writable q and factors; clear the flag again
        for value in state.values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
        vars(self).update(state)

    @property
    def n(self) -> int:
        return self.p1 + self.p2

    @property
    def q_norm(self) -> float:
        return float(self.q_eigh[0][-1])

    @property
    def q11(self) -> np.ndarray:
        return self.q[: self.p1, : self.p1]

    @property
    def q12(self) -> np.ndarray:
        return self.q[: self.p1, self.p1 :]

    @property
    def q22(self) -> np.ndarray:
        return self.q[self.p1 :, self.p1 :]

    @cached_property
    def log_dets(self) -> tuple[float, float, float]:
        """ln det of (Q11, Q22, Q), from one Cholesky call on Q and Block-diag(Q11, Q22)."""
        p1, blocks = self.p1, np.zeros_like(self.q)
        blocks[:p1, :p1], blocks[p1:, p1:] = self.q11, self.q22
        logs = 2.0 * np.log(np.diagonal(np.linalg.cholesky(np.stack((self.q, blocks))), 0, 1, 2))
        return float(logs[1, :p1].sum()), float(logs[1, p1:].sum()), float(logs[0].sum())

    @cached_property
    def block_traces(self) -> tuple[float, float]:
        """(tr Q11, tr Q22)."""
        return float(np.trace(self.q11)), float(np.trace(self.q22))

    @cached_property
    def block_eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues of Q11 and Q22, all positive: they interlace
        those of q, which exceed PSD_RTOL * ||q||_2."""
        return tuple(readonly(np.linalg.eigvalsh(b)) for b in (self.q11, self.q22))


@dataclass(frozen=True)
class DistortionPair:
    """Per-block squared-error budgets (d1, d2), both nonnegative.

    A zero budget is admissible: solve answers it with the Infeasible branch
    and an infinite rate, and :func:`gray_lower_bound` refuses it.
    """

    d1: float
    d2: float

    def __post_init__(self) -> None:
        for name, value in (("d1", self.d1), ("d2", self.d2)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def validate_source(raw_matrix: np.ndarray, p1: int, p2: int) -> GaussianPairSource:
    """Validate a raw joint covariance and wrap it as a GaussianPairSource.

    Checks, in order: dimensions match (p1 + p2) square; entries finite;
    relative asymmetry within SYMMETRY_RTOL (then symmetrized); minimum
    eigenvalue above PSD_RTOL * ||q||_2.  Raises SourceValidationError on
    the first that fails, so every source is positive definite.  eigh(q)
    is stored on the result.
    """
    if p1 < 1 or p2 < 1:
        raise SourceValidationError(f"block dimensions must be positive, got p1={p1}, p2={p2}")
    a = np.asarray(raw_matrix, dtype=float)
    n = p1 + p2
    if a.ndim != 2 or a.shape != (n, n):
        raise SourceValidationError(
            f"covariance must be {n}x{n} for p1={p1}, p2={p2}, got shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise SourceValidationError("covariance contains non-finite entries")
    scale = float(np.abs(a).max())
    asym = float(np.abs(a - a.T).max())
    if asym > SYMMETRY_RTOL * scale:
        raise SourceValidationError(
            f"covariance is asymmetric: max |q - q.T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.1e} * max|q| = {SYMMETRY_RTOL * scale:.3e}"
        )
    q = sym(a)
    w, u = np.linalg.eigh(q)
    cutoff = PSD_RTOL * float(w[-1])
    if not w[0] > cutoff:
        raise SourceValidationError(
            f"covariance is not positive definite: min eigenvalue {w[0]:.3e} "
            f"is not above {PSD_RTOL:.0e} * ||Q||_2 = {cutoff:.3e}"
        )
    return GaussianPairSource(p1=p1, p2=p2, q=readonly(q), q_eigh=(readonly(w), readonly(u)))


def mutual_information(src: GaussianPairSource) -> float:
    """Mutual information between the two blocks, in nats.

    Equals 0.5 * ln(det(Q11) det(Q22) / det(Q)); zero exactly when the
    cross-covariance block vanishes.
    """
    ld11, ld22, ld = src.log_dets
    return max(0.5 * (ld11 + ld22 - ld), 0.0)


def _water_level(mu: list[float], delta: float) -> tuple[float, int, float]:
    """(theta, k, below) with sum_j min(theta, mu_j) = delta > 0 for the ascending,
    non-empty mu: theta = (delta - below) / (len(mu) - k), below = sum_{j<k} mu_j,
    at the first k with theta <= mu_k, else the last k, which is the level in
    exact arithmetic and above max(mu) once delta >= sum(mu)."""
    below = 0.0
    for k, mu_k in enumerate(mu):
        theta = (delta - below) / (len(mu) - k)
        if theta <= mu_k or k == len(mu) - 1:
            return theta, k, below
        below += mu_k


def _water_fill(mu: np.ndarray, delta: float) -> float:
    """Rate-distortion function of one Gaussian block by reverse water-filling:
    sum_j 0.5*ln(max(mu_j/theta, 1)) over the ascending eigenvalues mu_j >= 0,
    at the level theta of :func:`_water_level`.  Returns 0 when delta >= sum(mu)
    and +inf when delta == 0 with a nonzero spectrum."""
    mu = mu.tolist()
    if delta >= sum(mu):
        return 0.0
    if delta == 0.0:
        return math.inf
    theta, k, below = _water_level(mu, delta)
    # in logs: at a subnormal delta, theta underflows to 0 or mu_j / theta overflows
    log_theta = math.log(delta - below) - math.log(len(mu) - k)
    return 0.5 * sum(math.log(mu_j) - log_theta for mu_j in mu if mu_j > theta)


def gray_lower_bound(src: GaussianPairSource, d: DistortionPair) -> float:
    """Additive lower bound on the joint rate: sum of marginal rates minus
    the mutual information between the blocks.  May be negative.
    """
    if d.d1 <= 0.0 or d.d2 <= 0.0:
        raise ValueError("lower bound requires strictly positive distortion budgets")
    mu1, mu2 = src.block_eigenvalues
    return _water_fill(mu1, d.d1) + _water_fill(mu2, d.d2) - mutual_information(src)


def parse_source(obj: dict) -> GaussianPairSource:
    """Build a source from a decoded JSON document {"p1": int, "p2": int, "Q": [[...]]};
    block sizes such as true, "2" or 2.0 are refused, not coerced."""
    try:
        p1, p2, q = obj["p1"], obj["p2"], np.asarray(obj["Q"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SourceValidationError(f"source document must carry p1, p2 and Q: {exc}") from exc
    if not all(isinstance(p, int) and not isinstance(p, bool) for p in (p1, p2)):
        raise SourceValidationError(f"p1 and p2 must be integers, got p1={p1!r}, p2={p2!r}")
    return validate_source(q, p1, p2)


def load_source(path: str) -> GaussianPairSource:
    """Read and validate a source covariance from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SourceValidationError(f"invalid JSON in {path}: {exc}") from exc
    return parse_source(obj)
