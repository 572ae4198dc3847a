"""Joint rate-distortion solver for a Gaussian source pair.

The rate is the infimum of 0.5 * ln(det Q / det Sigma) over error covariances
Sigma with 0 <= Sigma <= Q and per-block trace budgets; Q > 0 holds for every
source (see :func:`jointrdf.model.validate_source`).  Every feasible
instance is solved by the two-multiplier dual (block reverse water-filling).
Only the trace budgets are dualized, with multipliers (l1, l2) >= 0.  With
M = Q^{1/2} Block-diag(l1 I, l2 I) Q^{1/2} = U diag(m) U^T the Lagrangian is
minimized over 0 <= Sigma <= Q by
Sigma = Q^{1/2} U diag(min(1, 1/(2 m_i))) U^T Q^{1/2}, the spectral form of
reverse water-filling, whose rate is 0.5 sum ln(2 max(m_i, 1/2)).  The dual
g(l1, l2) is concave with gradient (tr Sigma11 - d1, tr Sigma22 - d2); it is
maximized by projected Newton ascent over l >= 0.  One evaluation is one
n x n eigh and a few O(n^2) array operations; the 2x2 Newton step, the
stopping rule and the line search run on Python floats.  Q^{1/2}, Q^{-1/2},
the block traces and the Gray bound's factors come from the source's cache
(see :class:`jointrdf.model.GaussianPairSource`), so a solve factors Q only
the first time a source is solved.  The certificate recheck and the
feasibility check recompute from Sigma and Q.

The branch labels the instance, read off the dual's first evaluation (see
:func:`_solve_dual`); it selects no computation:

* ZeroRate when both budgets cover the block traces: the optimum is l = 0,
  where Sigma = Q and the rate is exactly 0.
* ClosedFormInteriorD on the distortion region where Q - D stays strictly
  positive definite, D = Block-diag((d1/p1) I, (d2/p2) I): the optimum is
  l_i = p_i / (2 d_i), where Sigma = D and the additive lower bound of
  :func:`jointrdf.model.gray_lower_bound` is attained.
* InteriorPoint otherwise.

Every solve carries a certificate (lambda1, lambda2, Theta) whose stationarity
and complementary-slackness residuals are recomputable via
:func:`kkt_residuals`; Theta is exact by construction.

gap_tol of :func:`solve` (default GAP_TOL, finite and positive), the
duality gap in nats at which the dual iteration stops, is the only
tolerance a caller sets.  The others are fixed and scale with the problem,
so scaling (Q, d) to (cQ, cd) moves no decision: REGION_TOL, the margin of
the region test relative to the budgets (Q - D > REGION_TOL * D);
TRACE_SLACK_TOL, the trace overshoot the dual iteration and the
feasibility check accept, relative to each budget; and model.PSD_RTOL for
the PSD checks, Theta's included.
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
    gray_bound_nats: float
    iterations: int
    wall_time: float

    @property
    def in_region_d(self) -> bool:
        """Derived from the branch, not stored: the region is ClosedFormInteriorD."""
        return self.branch is SolveBranch.CLOSED_FORM_INTERIOR_D


def closed_form_candidate(src: GaussianPairSource, d: DistortionPair) -> ErrorCovariance:
    """Equal split of each budget over its block diagonal, zero cross block.

    Makes no feasibility claim; pair with :func:`in_region_d`.
    """
    diag = np.concatenate(
        [np.full(src.p1, d.d1 / src.p1), np.full(src.p2, d.d2 / src.p2)]
    )
    return ErrorCovariance(p1=src.p1, p2=src.p2, sigma=readonly(np.diag(diag)))


def in_region_d(src: GaussianPairSource, d: DistortionPair) -> bool:
    """True iff Q - D > REGION_TOL * D for the closed-form candidate D.

    An independent check of the label :func:`solve` reads off its first dual
    evaluation, with the same margin: eigvalsh(D^{-1/2} Q D^{-1/2}) above
    1 + REGION_TOL.  Zero budgets are excluded outright: D is then singular
    and the rate infinite.
    """
    if d.d1 <= 0.0 or d.d2 <= 0.0:
        return False
    inv_sqrt = 1.0 / np.sqrt(np.diag(closed_form_candidate(src, d).sigma))
    w = np.linalg.eigvalsh(src.q * np.outer(inv_sqrt, inv_sqrt))
    return bool(w[0] > 1.0 + REGION_TOL)


def rate_of(src: GaussianPairSource, sigma) -> float:
    """0.5 * (ln det Q - ln det Sigma) in nats; +inf for singular sigma."""
    try:
        ld_sigma = chol_logdet(_as_matrix(sigma))
    except np.linalg.LinAlgError:
        return math.inf
    return 0.5 * (src.log_dets[2] - ld_sigma)


def kkt_residuals(
    src: GaussianPairSource,
    d: DistortionPair,
    sigma: ErrorCovariance,
    cert: KktCertificate,
) -> KktCertificate:
    """Recompute all certificate residuals for (sigma, cert) on this instance.

    Stationarity is the Frobenius norm of
    -0.5 * Sigma^{-1} + Block-diag(lambda1 I, lambda2 I) + Theta divided by
    that of 0.5 * Sigma^{-1}, both over its largest entry first so that a tiny
    Sigma cannot overflow them; the four slackness residuals follow the field
    order documented on KktCertificate.  Theta counts as PSD down to
    -PSD_RTOL times its largest eigenvalue magnitude.
    """
    s = sym(_as_matrix(sigma))
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise FeasibilityError("kkt residuals require sigma > 0") from exc
    half_inv = 0.5 * (chol_inv.T @ chol_inv)  # exactly symmetric: a product with its transpose
    lam_block = np.diag([cert.lambda1] * sigma.p1 + [cert.lambda2] * sigma.p2)
    unit = float(np.abs(half_inv).max())
    stat = float(np.linalg.norm((lam_block + cert.theta - half_inv) / unit)
                 / np.linalg.norm(half_inv / unit))
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

    l: tuple[float, float]
    m: np.ndarray
    u: np.ndarray
    z: np.ndarray
    b: np.ndarray
    r: tuple[float, float]
    rate: float
    value: float
    scale: float


def _dual_point(
    q_half: np.ndarray, p1: int, l: tuple[float, float], budget: tuple[float, float]
) -> _DualPoint:
    """Spectral reverse water-filling at l = (l1, l2), from one n x n eigh.

    (m, u) are the eigenpairs of M = Q^{1/2} Block-diag(l1 I, l2 I) Q^{1/2},
    b = Q^{1/2} u and z = min(1, 1/(2 m)).  r holds (tr Sigma11 - d1,
    tr Sigma22 - d2), the gradient of the dual value g(l) = rate + l . r;
    rate = 0.5 sum ln(2 max(m, 1/2)) = -0.5 sum ln z is the rate of Sigma,
    exactly 0.0 at l = 0, and scale the sum of the magnitudes of g's terms.
    l, r and the scalars are Python floats.
    """
    (l1, l2), (d1, d2) = l, budget
    scaling = np.array([l1] * p1 + [l2] * (q_half.shape[0] - p1))
    m, u = np.linalg.eigh(sym((q_half * scaling) @ q_half))
    top = np.maximum(m, 0.5)
    z = 0.5 / top
    b = q_half @ u
    diag = ((b * b) @ z).tolist()
    t1, t2 = sum(diag[:p1]), sum(diag[p1:])
    rate = 0.5 * sum(np.log(2.0 * top).tolist())
    r = (t1 - d1, t2 - d2)
    value = rate + (l1 * r[0] + l2 * r[1])
    scale = rate + (l1 * (t1 + d1) + l2 * (t2 + d2))
    return _DualPoint(l, m, u, z, b, r, rate, value, scale)


def _hessian(pt: _DualPoint, p1: int) -> tuple[float, float, float]:
    """Jacobian of pt.r in l, the Hessian of the dual, as (j11, j12, j22).

    By the Daleckii-Krein formula j_kj = sum(A_k * A_j * F), with
    A_k = b_k^T b_k over the rows b_k of block k and F the divided
    differences of z(m) = 1 / (2 max(m, 1/2)).
    """
    m, z, b1, b2 = pt.m, pt.z, pt.b[:p1], pt.b[p1:]
    a1, a2 = b1.T @ b1, b2.T @ b2
    # dz/dm = -2 z^2 on active modes (m > 1/2) and 0 on the others
    z_active = z * (m > 0.5)
    dm = m[:, None] - m
    f = np.divide(z[:, None] - z, dm, out=(-2.0 * z_active)[:, None] * z_active,
                  where=dm != 0.0)
    a1f = a1 * f
    return float(np.vdot(a1f, a1)), float(np.vdot(a1f, a2)), float(np.vdot(a2 * f, a2))


def _newton_step(
    pt: _DualPoint, jac: tuple[float, float, float], l0: tuple[float, float]
) -> list[float]:
    """Ascent step on the concave dual from pt, whose Hessian is jac.

    A multiplier with a slack budget that its own Newton step would take
    below zero, as on a flat diagonal (every mode it touches at z = 1), goes
    to zero.  A binding budget on a flat diagonal rises by the limit below.
    The rest take the Newton step given those moves, scaled so that none
    rises by more than its own value, or past l0 from zero: a near-flat
    diagonal would overshoot the next mode to turn active.
    """
    j11, j12, j22 = jac
    jd = (j11, j22)
    flat = 1e-13 * max(abs(j11), abs(j12), abs(j22))
    limit = [li if li > 0.0 else l0i for li, l0i in zip(pt.l, l0)]
    bound = [ri <= 0.0 and li * ji >= ri for li, ri, ji in zip(pt.l, pt.r, jd)]
    newton = [not bi and -ji > flat for bi, ji in zip(bound, jd)]
    step = [-li if bi else lim for li, bi, lim in zip(pt.l, bound, limit)]
    s1, s2 = (0.0 if nw else si for nw, si in zip(newton, step))
    rhs = (-(pt.r[0] + (j11 * s1 + j12 * s2)), -(pt.r[1] + (j12 * s1 + j22 * s2)))
    if all(newton):
        det = j11 * j22 - j12 * j12
        step = [(j22 * rhs[0] - j12 * rhs[1]) / det, (j11 * rhs[1] - j12 * rhs[0]) / det]
    else:
        step = [hi / ji if nw else si for hi, ji, nw, si in zip(rhs, jd, newton, step)]
    over = [lim / si for nw, si, lim in zip(newton, step, limit) if nw and si > lim]
    if over:
        t = min(over)
        step = [si * t if nw else si for nw, si in zip(newton, step)]
    return step


def _solve_dual(
    src: GaussianPairSource, d: DistortionPair, gap_tol: float
) -> tuple[np.ndarray, np.ndarray, tuple[float, float], float, int, SolveBranch]:
    """Maximize the concave dual g(l) by projected Newton ascent over l >= 0.

    Starts from l0, which is 0 for a budget that covers its block trace (the
    constraint is then implied by Sigma <= Q and its multiplier stays 0) and
    the closed-form multiplier p_i / (2 d_i) otherwise, so a zero-rate or a
    region-D instance stops at its first evaluation, which also sets the
    branch: with no budget covered, M at l0 has the eigenvalues of
    0.5 D^{-1/2} Q D^{-1/2}, so Q - D > REGION_TOL * D iff all exceed
    (1 + REGION_TOL) / 2.  A multiplier that
    :func:`_newton_step` changes by less than its own value moves by the
    same step in its level w = 1 / (2 l), in which the traces are nearly
    linear; the others move straight and are projected onto l >= 0.  Steps
    are halved until g rises by the Armijo rule, up to round-off in g's terms.
    Stops once each share l_i |r_i| of the duality gap g(l) - R(Sigma(l)) is
    within gap_tol / 2 and each trace overshoots its budget d_i by at most
    TRACE_SLACK_TOL * d_i; raises RuntimeError if _MAX_EVALUATIONS comes
    first.  Returns (sigma, theta, l, rate, evaluations, branch); Theta =
    Q^{-1/2} u diag(max(0, 1/2 - m)) u^T Q^{-1/2} is PSD and complementary
    to Q - Sigma mode by mode.  Q^{1/2} and Q^{-1/2} come from the source's
    cache, so each evaluation costs one eigh and O(n^2) bookkeeping.
    """
    q_half, p1 = src.q_half, src.p1
    budget = (d.d1, d.d2)
    covered = tuple(di >= ti for di, ti in zip(budget, src.block_traces))
    l0 = tuple(0.0 if c else p / (2.0 * di) for c, p, di in zip(covered, (p1, src.p2), budget))
    slack = tuple(TRACE_SLACK_TOL * di for di in budget)
    half_gap = 0.5 * gap_tol

    def done(pt: _DualPoint) -> bool:
        return all(ri <= si and li * abs(ri) <= half_gap
                   for li, ri, si in zip(pt.l, pt.r, slack))

    pt, evaluations = _dual_point(q_half, p1, l0, budget), 1
    if all(covered):
        branch = SolveBranch.ZERO_RATE
    elif not any(covered) and pt.m[0] > 0.5 * (1.0 + REGION_TOL):
        branch = SolveBranch.CLOSED_FORM_INTERIOR_D
    else:
        branch = SolveBranch.INTERIOR_POINT
    while not done(pt) and evaluations < _MAX_EVALUATIONS:
        step = _newton_step(pt, _hessian(pt, p1), l0)
        t = 1.0
        while True:
            l = tuple(li * li / (li - t * si) if abs(si) < li else max(li + t * si, 0.0)
                      for li, si in zip(pt.l, step))
            trial, evaluations = _dual_point(q_half, p1, l, budget), evaluations + 1
            rise = sum(ri * (tl - li) for ri, tl, li in zip(pt.r, trial.l, pt.l))
            armijo = 1e-4 * rise - 1e-13 * pt.scale
            if trial.value - pt.value >= armijo or done(trial) or evaluations >= _MAX_EVALUATIONS:
                break
            t *= 0.5
        pt = trial
    if not done(pt):
        raise RuntimeError(f"dual solver did not converge within {evaluations} evaluations")
    c = src.q_inv_half @ pt.u
    theta = (c * np.maximum(0.5 - pt.m, 0.0)) @ c.T
    sigma = (pt.b * pt.z) @ pt.b.T
    return sym(sigma), sym(theta), pt.l, pt.rate, evaluations, branch


# ---------------------------------------------------------------------------
# public solve
# ---------------------------------------------------------------------------


def solve(
    src: GaussianPairSource,
    d: DistortionPair,
    *,
    gap_tol: float = GAP_TOL,
) -> SolveReport:
    """Compute the joint rate-distortion value and its optimal error covariance.

    Every feasible instance is solved by the two-multiplier dual; gap_tol
    is the duality gap in nats at which its iteration stops (ValueError
    unless finite and positive), and iterations counts its evaluations,
    one eigh each (1 on the zero-rate and region-D instances).  The rate
    is that of the returned Sigma, from the final dual point's
    eigenvalues.  The branch labels the instance as the module docstring
    describes; it does not select a computation.

    A zero budget against a block with positive variance yields the
    Infeasible branch with an infinite rate: every admissible error
    covariance is then singular.
    """
    start = time.perf_counter()
    if not 0.0 < gap_tol < math.inf:
        raise ValueError(f"gap_tol must be finite and positive, got {gap_tol!r}")

    if d.d1 <= 0.0 or d.d2 <= 0.0:
        sigma = ErrorCovariance(p1=src.p1, p2=src.p2, sigma=readonly(np.zeros((src.n, src.n))))
        return SolveReport(math.inf, sigma, None, SolveBranch.INFEASIBLE, math.inf, 0,
                           time.perf_counter() - start)

    gray = gray_lower_bound(src, d)
    s, theta, lam, rate, iterations, branch = _solve_dual(src, d, gap_tol)
    sigma = ErrorCovariance(p1=src.p1, p2=src.p2, sigma=readonly(s))
    sigma.validate(src, d)
    blank = KktCertificate(*lam, readonly(theta), 0.0, (0.0,) * 4, True)
    cert = kkt_residuals(src, d, sigma, blank)
    wall = time.perf_counter() - start
    return SolveReport(rate, sigma, cert, branch, gray, iterations, wall)
