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
  (tr Sigma11 - d1, tr Sigma22 - d2); it is maximized by projected Newton
  ascent over l >= 0, one n x n eigh per evaluation.

Every solve carries a certificate (lambda1, lambda2, Theta) whose stationarity
and complementary-slackness residuals are recomputable via
:func:`kkt_residuals`.  On the dual branch Theta is exact by construction.

gap_tol of :func:`solve` (default GAP_TOL), the duality gap in nats at which
the dual iteration stops, is the only tolerance a caller sets.  The others
are fixed and scale with the problem, so scaling (Q, d) to (cQ, cd) moves
no decision: REGION_TOL, the strict-positivity margin of the region test
relative to ||Q||_2; TRACE_SLACK_TOL, the trace overshoot the dual iteration
and the feasibility check accept, relative to each budget; and
model.PSD_RTOL for the PSD checks, Theta's included.
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
        """Raise FeasibilityError unless sigma >= 0, Q - sigma >= 0 and each
        block trace exceeds its budget d_i by at most TRACE_SLACK_TOL * d_i."""
        check_psd_bounds(src, self.sigma)
        tr1 = float(np.trace(self.sigma11))
        tr2 = float(np.trace(self.sigma22))
        if tr1 > d.d1 * (1.0 + TRACE_SLACK_TOL) or tr2 > d.d2 * (1.0 + TRACE_SLACK_TOL):
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

    stationarity_residual is ||-0.5 Sigma^{-1} + Block-diag(lambda1 I,
    lambda2 I) + Theta||_F relative to ||0.5 Sigma^{-1}||_F, so 1.0 for zero
    multipliers.  dual_feasible means lambda1, lambda2 >= 0 and Theta PSD to
    within PSD_RTOL of its own norm.  slackness_residuals holds, in order:
    lambda1*(tr sigma11 - d1), lambda2*(tr sigma22 - d2), tr(V sigma) which
    is identically zero since the optimal sigma is strictly positive
    definite, and tr(Theta (sigma - Q)).
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
    -0.5 * Sigma^{-1} + Block-diag(lambda1 I, lambda2 I) + Theta divided by
    that of 0.5 * Sigma^{-1}; the four slackness residuals follow the field
    order documented on KktCertificate.  Theta counts as PSD down to
    -PSD_RTOL times its largest eigenvalue magnitude.
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
    half_inv = 0.5 * sym(s_inv)
    stat = float(np.linalg.norm(lam_block + cert.theta - half_inv) / np.linalg.norm(half_inv))
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
        and w_theta[0] >= -PSD_RTOL * theta_scale
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

# Cap on the dual evaluations of one solve, line-search trials included.
_MAX_EVALUATIONS = 100


class _DualPoint(NamedTuple):
    """Lagrangian minimizer Sigma = b diag(z) b^T at multipliers l = (l1, l2)."""

    l: np.ndarray
    m: np.ndarray
    u: np.ndarray
    z: np.ndarray
    b: np.ndarray
    r: np.ndarray
    value: float
    scale: float


def _dual_point(q_half: np.ndarray, p1: int, l: np.ndarray, budget: np.ndarray) -> _DualPoint:
    """Spectral reverse water-filling at l = (l1, l2), from one n x n eigh.

    (m, u) are the eigenpairs of M = Q^{1/2} Block-diag(l1 I, l2 I) Q^{1/2},
    b = Q^{1/2} u and z = min(1, 1/(2 m)).  r holds (tr Sigma11 - d1,
    tr Sigma22 - d2), the gradient of the dual value g(l) = -0.5 sum ln z +
    l . r, and scale the sum of the magnitudes of g's terms.
    """
    n = q_half.shape[0]
    m, u = np.linalg.eigh(sym((q_half * np.repeat(l, (p1, n - p1))) @ q_half))
    z = 0.5 / np.maximum(m, 0.5)
    b = q_half @ u
    traces = np.add.reduceat(b * b, [0, p1]) @ z
    rate = -0.5 * float(np.log(z).sum())
    value = rate + float(l @ (traces - budget))
    scale = rate + float(l @ (traces + budget))
    return _DualPoint(l, m, u, z, b, traces - budget, value, scale)


def _hessian(pt: _DualPoint, p1: int) -> np.ndarray:
    """Jacobian of pt.r in l, the Hessian of the dual, in one product.

    By the Daleckii-Krein formula it is sum(A_k * A_j * F), with
    A_k = b_k^T b_k over the rows b_k of block k and F the divided
    differences of z(m) = 1 / (2 max(m, 1/2)).
    """
    m, z, b = pt.m, pt.z, pt.b
    a = np.stack([b[:p1].T @ b[:p1], b[p1:].T @ b[p1:]]).reshape(2, m.size**2)
    # dz/dm = -2 z^2 on active modes (m > 1/2) and 0 on the others
    z_active = np.where(m > 0.5, z, 0.0)
    dm = m[:, None] - m[None, :]
    f = np.divide(z[:, None] - z[None, :], dm, out=-2.0 * np.outer(z_active, z_active),
                  where=dm != 0.0)
    return (a * f.ravel()) @ a.T


def _newton_step(pt: _DualPoint, jac: np.ndarray, l0: np.ndarray) -> np.ndarray:
    """Ascent step on the concave dual from pt, whose Hessian is jac.

    A multiplier with a slack budget that its own Newton step would take
    below zero, as on a flat diagonal (every mode it touches at z = 1), goes
    to zero.  A binding budget on a flat diagonal rises by the limit below.
    The rest take the Newton step given those moves, scaled so that none
    rises by more than its own value, or past l0 from zero: a near-flat
    diagonal would overshoot the next mode to turn active.
    """
    l, r = pt.l, pt.r
    jd = np.diag(jac)
    limit = np.where(l > 0.0, l, l0)
    bound = (r <= 0.0) & (l * jd >= r)
    newton = ~bound & (-jd > 1e-13 * np.abs(jac).max())
    step = np.where(bound, -l, limit)
    rhs = -(r + jac @ np.where(newton, 0.0, step))
    if newton.all():
        (j11, j12), (_, j22) = jac.tolist()
        step = np.array([[j22, -j12], [-j12, j11]]) @ rhs / (j11 * j22 - j12 * j12)
    else:
        step[newton] = rhs[newton] / jd[newton]
    rise = newton & (step > limit)
    if rise.any():
        step[newton] *= np.min(limit[rise] / step[rise])
    return step


def _solve_dual(
    src: GaussianPairSource, d: DistortionPair, gap_tol: float
) -> tuple[np.ndarray, float, float, np.ndarray, int]:
    """Maximize the concave dual g(l) by projected Newton ascent over l >= 0.

    Starts from the closed-form multipliers l0 = p_i / (2 d_i).  A multiplier
    that :func:`_newton_step` changes by less than its own value moves by the
    same step in its level w = 1 / (2 l), in which the traces are nearly
    linear; the others move straight and are projected onto l >= 0.  Steps
    are halved until g rises by the Armijo rule, up to round-off in g's terms.
    Stops once each share l_i |r_i| of the duality gap g(l) - R(Sigma(l)) is
    within gap_tol / 2 and each trace overshoots its budget d_i by at most
    TRACE_SLACK_TOL * d_i; raises RuntimeError if _MAX_EVALUATIONS comes
    first.  Returns (sigma, lambda1, lambda2, theta, evaluations); Theta =
    Q^{-1/2} u diag(max(0, 1/2 - m)) u^T Q^{-1/2} is PSD and complementary
    to Q - Sigma mode by mode.
    """
    w_q, v = np.linalg.eigh(src.q)
    root = np.sqrt(w_q)
    q_half = sym((v * root) @ v.T)
    budget = np.array([d.d1, d.d2])
    l0 = np.array([src.p1, src.p2]) / (2.0 * budget)

    def done(pt: _DualPoint) -> bool:
        return bool(np.all((pt.r <= TRACE_SLACK_TOL * budget)
                           & (pt.l * np.abs(pt.r) <= 0.5 * gap_tol)))

    pt, evaluations = _dual_point(q_half, src.p1, l0, budget), 1
    while not done(pt) and evaluations < _MAX_EVALUATIONS:
        step = _newton_step(pt, _hessian(pt, src.p1), l0)
        level = np.abs(step) < pt.l
        t = 1.0
        while True:
            ts = t * step
            l = np.divide(pt.l**2, pt.l - ts, out=np.maximum(pt.l + ts, 0.0), where=level)
            trial, evaluations = _dual_point(q_half, src.p1, l, budget), evaluations + 1
            armijo = 1e-4 * float(pt.r @ (trial.l - pt.l)) - 1e-13 * pt.scale
            if trial.value - pt.value >= armijo or done(trial) or evaluations >= _MAX_EVALUATIONS:
                break
            t *= 0.5
        pt = trial
    if not done(pt):
        raise RuntimeError(f"dual solver did not converge within {evaluations} evaluations")
    c = ((v / root) @ v.T) @ pt.u
    theta = (c * np.maximum(0.5 - pt.m, 0.0)) @ c.T
    sigma = (pt.b * pt.z) @ pt.b.T
    return sym(sigma), float(pt.l[0]), float(pt.l[1]), sym(theta), evaluations


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
