"""Joint rate-distortion solver for a Gaussian source pair.

The rate is the infimum of 0.5 * ln(det Q / det Sigma) over error covariances
Sigma with 0 <= Sigma <= Q and per-block trace budgets.  Three branches:

* ZeroRate when both budgets cover the block traces (Sigma = Q).
* A closed form Sigma = Block-diag((d1/p1) I, (d2/p2) I) on the distortion
  region where Q - Sigma stays strictly positive definite; there the additive
  lower bound of :func:`jointrdf.model.gray_lower_bound` is attained.
* Otherwise the two-multiplier dual (block reverse water-filling).  Only the
  trace budgets are dualized, with multipliers (l1, l2) >= 0.  With
  M = Q^{1/2} Block-diag(l1 I, l2 I) Q^{1/2} = U diag(m) U^T the Lagrangian
  is minimized over 0 <= Sigma <= Q by
  Sigma = Q^{1/2} U diag(min(1, 1/(2 m_i))) U^T Q^{1/2}, the spectral form of
  reverse water-filling.  The dual g(l1, l2) is concave with gradient
  (tr Sigma11 - d1, tr Sigma22 - d2); it is maximized by nested monotone
  root-finds, one n x n eigh per evaluation.

Every solve carries a certificate (lambda1, lambda2, Theta) whose stationarity
and complementary-slackness residuals are recomputable via
:func:`kkt_residuals`.  On the dual branch Theta is exact by construction.

gap_tol of :func:`solve` (default GAP_TOL), the duality gap in nats at which
the dual iteration stops, is the only tolerance a caller sets.  The others
are fixed: REGION_TOL, the strict-positivity margin of the region test
relative to ||Q||_2; TRACE_SLACK_TOL, the absolute trace overshoot the dual
iteration and the feasibility check accept; and model.PSD_RTOL for the PSD
checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._linalg import chol_logdet, readonly, sym
from .model import (
    PSD_RTOL,
    DistortionPair,
    GaussianPairSource,
    NotPositiveDefiniteError,
    gray_lower_bound,
)


class FeasibilityError(ValueError):
    """Error covariance violates PSD or budget constraints."""


class SolveBranch(Enum):
    CLOSED_FORM_INTERIOR_D = "ClosedFormInteriorD"
    INTERIOR_POINT = "InteriorPoint"
    ZERO_RATE = "ZeroRate"
    INFEASIBLE = "Infeasible"


GAP_TOL = 1e-9
REGION_TOL = 1e-9
TRACE_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class ErrorCovariance:
    """Symmetric error covariance with the block partition of its source."""

    p1: int
    p2: int
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return self.p1 + self.p2

    @property
    def sigma11(self) -> np.ndarray:
        return self.sigma[: self.p1, : self.p1]

    @property
    def sigma12(self) -> np.ndarray:
        return self.sigma[: self.p1, self.p1 :]

    @property
    def sigma22(self) -> np.ndarray:
        return self.sigma[self.p1 :, self.p1 :]

    def validate(self, src: GaussianPairSource, d: DistortionPair) -> None:
        """Raise FeasibilityError unless sigma >= 0, Q - sigma >= 0 and the
        block traces exceed the budgets by at most TRACE_SLACK_TOL."""
        check_psd_bounds(src, self.sigma)
        tr1 = float(np.trace(self.sigma11))
        tr2 = float(np.trace(self.sigma22))
        if tr1 > d.d1 + TRACE_SLACK_TOL or tr2 > d.d2 + TRACE_SLACK_TOL:
            raise FeasibilityError(
                f"trace budget violated: tr(sigma11)={tr1:.6g} vs d1={d.d1:.6g}, "
                f"tr(sigma22)={tr2:.6g} vs d2={d.d2:.6g}"
            )


def check_psd_bounds(src: GaussianPairSource, s: np.ndarray) -> None:
    """Raise FeasibilityError unless sigma is n x n and 0 <= sigma <= Q, with
    eigenvalues down to -PSD_RTOL * max(||sigma||_2, ||Q||_2) (resp.
    -PSD_RTOL * ||Q||_2 for Q - sigma) accepted as round-off."""
    n = src.n
    if s.shape != (n, n):
        raise FeasibilityError(f"sigma must be {n}x{n}, got {s.shape}")
    w_s = np.linalg.eigvalsh(sym(s))
    if w_s[0] < -PSD_RTOL * max(float(np.abs(w_s).max()), src.q_norm):
        raise FeasibilityError(f"sigma is not PSD: min eigenvalue {w_s[0]:.3e}")
    w_qs = np.linalg.eigvalsh(sym(src.q - s))
    if w_qs[0] < -PSD_RTOL * src.q_norm:
        raise FeasibilityError(f"Q - sigma is not PSD: min eigenvalue {w_qs[0]:.3e}")


def _as_matrix(sigma) -> np.ndarray:
    return np.asarray(getattr(sigma, "sigma", sigma), dtype=float)


@dataclass(frozen=True)
class KktCertificate:
    """Multipliers certifying optimality of an error covariance.

    slackness_residuals holds, in order: lambda1*(tr sigma11 - d1),
    lambda2*(tr sigma22 - d2), tr(V sigma) which is identically zero since
    the optimal sigma is strictly positive definite, and tr(Theta (sigma - Q)).
    """

    lambda1: float
    lambda2: float
    theta: np.ndarray
    stationarity_residual: float
    slackness_residuals: tuple[float, float, float, float]
    dual_feasible: bool

    @property
    def max_residual(self) -> float:
        return max(self.stationarity_residual, max(abs(r) for r in self.slackness_residuals))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: rate, optimizer, certificate, and diagnostics."""

    rate_nats: float
    sigma: ErrorCovariance
    certificate: KktCertificate | None
    branch: SolveBranch
    in_region_d: bool
    gray_bound_nats: float
    iterations: int
    wall_time: float


def closed_form_candidate(src: GaussianPairSource, d: DistortionPair) -> ErrorCovariance:
    """Equal split of each budget over its block diagonal, zero cross block.

    Makes no feasibility claim; pair with :func:`in_region_d`.
    """
    diag = np.concatenate(
        [np.full(src.p1, d.d1 / src.p1), np.full(src.p2, d.d2 / src.p2)]
    )
    return ErrorCovariance(p1=src.p1, p2=src.p2, sigma=readonly(np.diag(diag)))


def in_region_d(src: GaussianPairSource, d: DistortionPair) -> bool:
    """True iff Q minus the closed-form candidate is strictly positive definite.

    Zero budgets are excluded outright: the closed-form candidate is then
    singular and the rate infinite, so the point cannot lie in the region.
    Boundary contact within REGION_TOL * ||Q||_2 is classified as outside so
    the general branch handles it.
    """
    if d.d1 <= 0.0 or d.d2 <= 0.0:
        return False
    cand = closed_form_candidate(src, d)
    w = np.linalg.eigvalsh(src.q - cand.sigma)
    return bool(w[0] > REGION_TOL * src.q_norm)


def rate_of(src: GaussianPairSource, sigma) -> float:
    """0.5 * (ln det Q - ln det Sigma) in nats; +inf for singular sigma."""
    if not src.positive_definite:
        raise NotPositiveDefiniteError("rate requires q > 0")
    try:
        ld_sigma = chol_logdet(_as_matrix(sigma))
    except np.linalg.LinAlgError:
        return math.inf
    return 0.5 * (chol_logdet(src.q) - ld_sigma)


def kkt_residuals(
    src: GaussianPairSource,
    d: DistortionPair,
    sigma: ErrorCovariance,
    cert: KktCertificate,
) -> KktCertificate:
    """Recompute all certificate residuals for (sigma, cert) on this instance.

    Stationarity is the Frobenius norm of
    -0.5 * Sigma^{-1} + Block-diag(lambda1 I, lambda2 I) + Theta; the four
    slackness residuals follow the field order documented on KktCertificate.
    """
    s = sym(_as_matrix(sigma))
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise FeasibilityError("kkt residuals require sigma > 0") from exc
    eye = np.eye(sigma.n)
    s_inv = np.linalg.solve(chol.T, np.linalg.solve(chol, eye))
    lam_block = np.zeros((sigma.n, sigma.n))
    lam_block[: sigma.p1, : sigma.p1] = cert.lambda1 * np.eye(sigma.p1)
    lam_block[sigma.p1 :, sigma.p1 :] = cert.lambda2 * np.eye(sigma.p2)
    stat = float(np.linalg.norm(-0.5 * sym(s_inv) + lam_block + cert.theta, "fro"))
    slack = (
        cert.lambda1 * (float(np.trace(sigma.sigma11)) - d.d1),
        cert.lambda2 * (float(np.trace(sigma.sigma22)) - d.d2),
        0.0,
        float(np.sum(cert.theta * (s - src.q))),
    )
    w_theta = np.linalg.eigvalsh(sym(cert.theta))
    theta_scale = float(np.abs(w_theta).max()) if w_theta.size else 0.0
    dual_ok = (
        cert.lambda1 >= 0.0
        and cert.lambda2 >= 0.0
        and w_theta[0] >= -1e-10 * max(theta_scale, 1.0)
    )
    return replace(
        cert,
        stationarity_residual=stat,
        slackness_residuals=slack,
        dual_feasible=bool(dual_ok),
    )


# ---------------------------------------------------------------------------
# two-multiplier dual (block reverse water-filling)
# ---------------------------------------------------------------------------

# Safety cap on the steps of one scalar root-find; the bracket collapses to
# float resolution long before it is reached.
_MAX_ROOT_STEPS = 100


class _DualPoint(NamedTuple):
    """Lagrangian minimizer Sigma = b diag(z) b^T at multipliers (l1, l2)."""

    l1: float
    l2: float
    m: np.ndarray
    u: np.ndarray
    z: np.ndarray
    b: np.ndarray
    traces: tuple[float, float]
    jac: np.ndarray


def _dual_point(q_half: np.ndarray, p1: int, l1: float, l2: float) -> _DualPoint:
    """Spectral reverse water-filling at (l1, l2), from one n x n eigh.

    (m, u) are the eigenpairs of M = Q^{1/2} Block-diag(l1 I, l2 I) Q^{1/2},
    b = Q^{1/2} u and z = min(1, 1/(2 m)).  traces holds (tr Sigma11,
    tr Sigma22); by the Daleckii-Krein formula their Jacobian in (l1, l2) is
    sum(A_k * A_j * F), with A_k = b_k^T b_k over the rows b_k of block k and
    F the divided differences of z(m) = 1 / (2 max(m, 1/2)).
    """
    n = q_half.shape[0]
    lam = np.concatenate([np.full(p1, l1), np.full(n - p1, l2)])
    m, u = np.linalg.eigh(sym((q_half * lam) @ q_half))
    g = np.maximum(m, 0.5)
    z = 0.5 / g
    b = q_half @ u
    a = (b[:p1].T @ b[:p1], b[p1:].T @ b[p1:])
    dm = m[:, None] - m[None, :]
    active = (m > 0.5).astype(float)
    dg_dm = np.divide(
        g[:, None] - g[None, :], dm, out=np.outer(active, active), where=dm != 0.0
    )
    f = -dg_dm / (2.0 * np.outer(g, g))
    jac = np.array([[float(np.sum(ak * aj * f)) for aj in a] for ak in a])
    traces = (float(np.diag(a[0]) @ z), float(np.diag(a[1]) @ z))
    return _DualPoint(l1, l2, m, u, z, b, traces, jac)


def _level_root(f, w: float, done):
    """Root on (0, inf] of a non-decreasing function of a water level w.

    The level w = 1 / (2 l) of a multiplier l makes each block trace linear
    in w on the closed-form region, where one Newton step is exact; w = inf
    stands for l = 0, an inactive budget.  f(w) returns (value, slope, point).
    Newton steps stay inside the bracket of levels seen so far and fall back
    to bisection (geometric, as levels span decades) when they would leave
    it or fail to halve the previous step.  Returns the point at which
    done(w, value) holds or, should the bracket collapse first, the last
    point below the root.
    """
    lo, hi = 0.0, math.inf
    below, inf_tried, dx_old = None, False, math.inf
    for _ in range(_MAX_ROOT_STEPS):
        value, slope, point = f(w)
        if done(w, value):
            return point
        if value <= 0.0:
            lo, below = w, point
        elif w < math.inf:
            hi = w
        inf_tried = inf_tried or w == math.inf
        step = w - value / slope if slope > 0.0 else math.inf
        if hi < math.inf:
            if not lo < step < hi or abs(step - w) > 0.5 * dx_old:
                step = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
                if not lo < step < hi:
                    break
        elif step == math.inf or (step > 2.0 * lo and not inf_tried):
            # far above every level seen: test l = 0 once, then double
            step = 2.0 * lo if inf_tried else math.inf
        dx_old, w = abs(step - w), step
    return below if below is not None else point


def _solve_dual(
    src: GaussianPairSource, d: DistortionPair, gap_tol: float
) -> tuple[np.ndarray, float, float, np.ndarray, int]:
    """Maximize the concave dual g(l1, l2) by nested monotone root-finds.

    The inner one solves tr Sigma22(l1, .) = d2 for l2, the outer one
    tr Sigma11(l1, l2*(l1)) = d1 for l1, with the Schur complement of the
    Jacobian as slope; both start from the closed-form levels d_i / p_i.
    Each stops once its share l_i |tr Sigma_ii - d_i| of the duality gap
    g(l) - R(Sigma(l)) is within gap_tol / 2 and its trace overshoots by at
    most TRACE_SLACK_TOL.  Returns (sigma, lambda1, lambda2, theta,
    evaluations); Theta = Q^{-1/2} u diag(max(0, 1/2 - m)) u^T Q^{-1/2} is
    PSD and complementary to Q - Sigma mode by mode.
    """
    p1 = src.p1
    w_q, v = np.linalg.eigh(src.q)
    root = np.sqrt(w_q)
    q_half = sym((v * root) @ v.T)
    evaluations = 0

    def evaluate(l1: float, l2: float) -> _DualPoint:
        nonlocal evaluations
        evaluations += 1
        return _dual_point(q_half, p1, l1, l2)

    def done(w: float, value: float) -> bool:
        # l * |value| <= gap_tol / 2 with l = 1 / (2 w)
        return value <= TRACE_SLACK_TOL and abs(value) / w <= gap_tol

    w2 = d.d2 / src.p2

    def outer(w1: float):
        nonlocal w2
        l1 = 0.5 / w1

        def inner(w: float):
            pt = evaluate(l1, 0.5 / w)
            return pt.traces[1] - d.d2, -2.0 * pt.l2**2 * pt.jac[1, 1], pt

        pt = _level_root(inner, w2, done)
        w2 = 0.5 / pt.l2 if pt.l2 > 0.0 else d.d2 / src.p2
        j = pt.jac
        # l2 follows l1 only while budget 2 binds
        slope = j[0, 0] - (j[0, 1] ** 2 / j[1, 1] if pt.l2 > 0.0 and j[1, 1] < 0.0 else 0.0)
        return pt.traces[0] - d.d1, -2.0 * l1**2 * slope, pt

    pt = _level_root(outer, d.d1 / p1, done)
    c = ((v / root) @ v.T) @ pt.u
    theta = (c * np.maximum(0.5 - pt.m, 0.0)) @ c.T
    sigma = (pt.b * pt.z) @ pt.b.T
    return sym(sigma), pt.l1, pt.l2, sym(theta), evaluations


def _certificate(
    src: GaussianPairSource,
    d: DistortionPair,
    sigma: ErrorCovariance,
    lambda1: float,
    lambda2: float,
    theta: np.ndarray,
) -> KktCertificate:
    blank = KktCertificate(lambda1, lambda2, readonly(theta), 0.0, (0.0,) * 4, True)
    return kkt_residuals(src, d, sigma, blank)


# ---------------------------------------------------------------------------
# public solve
# ---------------------------------------------------------------------------


def solve(
    src: GaussianPairSource,
    d: DistortionPair,
    *,
    gap_tol: float = GAP_TOL,
    force_interior: bool = False,
) -> SolveReport:
    """Compute the joint rate-distortion value and its optimal error covariance.

    Branch selection follows the module docstring; gap_tol is the duality
    gap in nats at which the dual iteration stops.  force_interior skips the
    zero-rate and closed-form shortcuts so the dual path can be exercised on
    any instance (used by consistency checks).  On that path iterations
    counts dual evaluations, one eigh each.

    A zero budget against a block with positive variance yields the
    Infeasible branch with an infinite rate: every admissible error
    covariance is then singular.
    """
    start = time.perf_counter()
    if not src.positive_definite:
        raise NotPositiveDefiniteError("solve requires q > 0")
    n = src.n

    if d.d1 <= 0.0 or d.d2 <= 0.0:
        sigma = ErrorCovariance(p1=src.p1, p2=src.p2, sigma=readonly(np.zeros((n, n))))
        return SolveReport(
            rate_nats=math.inf,
            sigma=sigma,
            certificate=None,
            branch=SolveBranch.INFEASIBLE,
            in_region_d=False,
            gray_bound_nats=math.inf,
            iterations=0,
            wall_time=time.perf_counter() - start,
        )

    gray = gray_lower_bound(src, d)
    region = in_region_d(src, d)
    tr1 = float(np.trace(src.q11))
    tr2 = float(np.trace(src.q22))

    def report(branch, rate, sigma, cert, iterations=0) -> SolveReport:
        wall = time.perf_counter() - start
        return SolveReport(rate, sigma, cert, branch, region, gray, iterations, wall)

    if d.d1 >= tr1 and d.d2 >= tr2 and not force_interior:
        sigma = ErrorCovariance(p1=src.p1, p2=src.p2, sigma=readonly(src.q.copy()))
        theta = 0.5 * sym(np.linalg.solve(src.q, np.eye(n)))
        cert = _certificate(src, d, sigma, 0.0, 0.0, theta)
        return report(SolveBranch.ZERO_RATE, 0.0, sigma, cert)

    if region and not force_interior:
        sigma = closed_form_candidate(src, d)
        lam1 = src.p1 / (2.0 * d.d1)
        lam2 = src.p2 / (2.0 * d.d2)
        cert = _certificate(src, d, sigma, lam1, lam2, np.zeros((n, n)))
        return report(SolveBranch.CLOSED_FORM_INTERIOR_D, rate_of(src, sigma), sigma, cert)

    s, lam1, lam2, theta, iterations = _solve_dual(src, d, gap_tol)
    sigma = ErrorCovariance(p1=src.p1, p2=src.p2, sigma=readonly(s))
    sigma.validate(src, d)
    cert = _certificate(src, d, sigma, lam1, lam2, theta)
    return report(SolveBranch.INTERIOR_POINT, rate_of(src, sigma), sigma, cert, iterations)
