"""Joint rate-distortion solver for a Gaussian source pair.

The rate is the infimum of 0.5 * ln(det Q / det Sigma) over error covariances
Sigma with 0 <= Sigma <= Q and per-block trace budgets; Q > 0 holds for every
source (see :func:`jointrdf.model.validate_source`).  Every feasible
instance is solved by the two-multiplier dual (block reverse water-filling):
only the trace budgets are dualized, with multipliers (l1, l2) >= 0.  With
s = sqrt(l) per coordinate and K = Q * outer(s, s) = V diag(m) V^T, the
Lagrangian is minimized over 0 <= Sigma <= Q by
Sigma = diag(s)^{-1} V diag(min(m, 1/2)) V^T diag(s)^{-1}, whose rate is
0.5 sum ln(2 max(m, 1/2)); a zero multiplier drops its block from K.
Scaling one block, Q -> S Q S with l -> S^{-2} l, leaves K unchanged, as it
leaves R.  The concave dual g(l) has gradient (tr Sigma11 - d1,
tr Sigma22 - d2).  K(t u) = t K(u), so one eigh of K(u) describes the whole
ray l = t u, and g's maximum on it is scalar reverse water-filling of K(u)'s
eigenvalues; only the ratio of the two multipliers is searched, by a bracketed
one-dimensional search.  Each evaluation is one eigh and a few O(n^2) array
operations.

The branch labels the instance, read off the dual's first evaluation (see
:func:`_solve_dual`); it selects no computation:

* ZeroRate when both budgets cover the block traces: the optimum is l = 0,
  where Sigma = Q and the rate is exactly 0.
* ClosedFormInteriorD on the distortion region where Q - D stays strictly
  positive definite, D = Block-diag((d1/p1) I, (d2/p2) I): the optimum is
  l_i = p_i / (2 d_i), where Sigma = D and the additive lower bound of
  :func:`jointrdf.model.gray_lower_bound` is attained.
* InteriorPoint otherwise.

Every solve carries a certificate (lambda1, lambda2, Theta), exact by
construction, whose residuals :func:`kkt_residuals` recomputes.  A caller
sets no tolerance: REGION_TOL, the margin of the region test
(Q - D > REGION_TOL * D), TRACE_SLACK_TOL, the trace residual relative to
each budget at which the dual iteration stops, and model.PSD_RTOL are fixed
and scale with the problem.  Every dual point has l . r = 0, so its rate is
R(d + r), which is R(d) to second order in r: the trace rule alone fixes the
rate.
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
    _water_level,
)


class FeasibilityError(ValueError):
    """Error covariance violates PSD or budget constraints."""


class SolveBranch(Enum):
    CLOSED_FORM_INTERIOR_D = "ClosedFormInteriorD"
    INTERIOR_POINT = "InteriorPoint"
    ZERO_RATE = "ZeroRate"
    INFEASIBLE = "Infeasible"


REGION_TOL = 1e-9
TRACE_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class ErrorCovariance:
    """Symmetric error covariance, split into blocks by the source it is checked against."""

    sigma: np.ndarray

    def validate(self, src: GaussianPairSource, d: DistortionPair) -> None:
        """Raise FeasibilityError unless sigma is n x n, sigma >= 0, Q - sigma >= 0
        and each block trace exceeds its budget d_i by at most TRACE_SLACK_TOL * d_i."""
        check_psd_bounds(src, self.sigma)
        tr1, tr2 = _block_traces(src, self.sigma)
        if tr1 > d.d1 * (1.0 + TRACE_SLACK_TOL) or tr2 > d.d2 * (1.0 + TRACE_SLACK_TOL):
            raise FeasibilityError(
                f"trace budget violated: tr(sigma11)={tr1:.6g} vs d1={d.d1:.6g}, "
                f"tr(sigma22)={tr2:.6g} vs d2={d.d2:.6g}"
            )


def _block_traces(src: GaussianPairSource, s: np.ndarray) -> tuple[float, float]:
    """(tr S11, tr S22) of an n x n matrix under src's partition."""
    return float(np.trace(s[: src.p1, : src.p1])), float(np.trace(s[src.p1 :, src.p1 :]))


def _check_shape(src: GaussianPairSource, s: np.ndarray) -> None:
    if s.shape != (src.n, src.n):
        raise FeasibilityError(f"sigma must be {src.n}x{src.n}, got {s.shape}")


def check_psd_bounds(src: GaussianPairSource, s: np.ndarray) -> None:
    """Raise FeasibilityError unless sigma is n x n and 0 <= sigma <= Q, with
    eigenvalues of sigma and of Q - sigma down to -PSD_RTOL * ||Q||_2
    accepted as round-off."""
    _check_shape(src, s)
    w_s = np.linalg.eigvalsh(sym(s))
    if w_s[0] < -PSD_RTOL * src.q_norm:
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
    lambda1*(tr sigma11 - d1), lambda2*(tr sigma22 - d2) and
    tr(Theta (sigma - Q)).  The optimal sigma is strictly positive definite,
    so the constraint sigma >= 0 carries no multiplier.
    """

    lambda1: float
    lambda2: float
    theta: np.ndarray
    stationarity_residual: float
    slackness_residuals: tuple[float, float, float]
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
    iterations: int
    wall_time: float

    @property
    def in_region_d(self) -> bool:
        """Derived from the branch, not stored: the region is ClosedFormInteriorD."""
        return self.branch is SolveBranch.CLOSED_FORM_INTERIOR_D


def in_region_d(src: GaussianPairSource, d: DistortionPair) -> bool:
    """True iff Q - D > REGION_TOL * D for D = Block-diag((d1/p1) I, (d2/p2) I).

    One Cholesky of Q - (1 + REGION_TOL) D, independent of the dual, whose
    first evaluation labels a solve by the same inequality.  A budget that is
    zero (D is singular) or at least its block trace is excluded before any
    factorization: Q - D > 0 implies tr Q_ii > d_i.
    """
    if not all(0.0 < di < ti for di, ti in zip((d.d1, d.d2), src.block_traces)):
        return False
    diag = np.repeat([d.d1 / src.p1, d.d2 / src.p2], [src.p1, src.p2])
    try:
        np.linalg.cholesky(src.q - np.diag((1.0 + REGION_TOL) * diag))
    except np.linalg.LinAlgError:
        return False
    return True


def rate_of(src: GaussianPairSource, sigma) -> float:
    """0.5 * (ln det Q - ln det Sigma) in nats; +inf for singular sigma.  A
    sigma that is not n x n raises FeasibilityError."""
    s = _as_matrix(sigma)
    _check_shape(src, s)
    try:
        ld_sigma = chol_logdet(s)
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
    Sigma cannot overflow them; the three slackness residuals follow the field
    order documented on KktCertificate.  Theta counts as PSD down to
    -PSD_RTOL times its largest eigenvalue magnitude.  A sigma that is not
    n x n raises FeasibilityError, as in ErrorCovariance.validate.
    """
    _check_shape(src, sigma.sigma)
    s = sym(sigma.sigma)
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise FeasibilityError("kkt residuals require sigma > 0") from exc
    half_inv = 0.5 * (chol_inv.T @ chol_inv)  # exactly symmetric: a product with its transpose
    lam_block = np.diag([cert.lambda1] * src.p1 + [cert.lambda2] * src.p2)
    unit = float(np.abs(half_inv).max())
    stat = float(np.linalg.norm((lam_block + cert.theta - half_inv) / unit)
                 / np.linalg.norm(half_inv / unit))
    tr1, tr2 = _block_traces(src, s)
    slack = (
        cert.lambda1 * (tr1 - d.d1),
        cert.lambda2 * (tr2 - d.d2),
        float(np.sum(cert.theta * (s - src.q))),
    )
    w_theta = np.linalg.eigvalsh(sym(cert.theta))
    theta_scale = float(np.abs(w_theta).max())
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

# Cap on the dual evaluations of one solve.
_MAX_EVALUATIONS = 100


class _DualPoint(NamedTuple):
    """Maximizer of the dual on the ray l = t u, in modal form."""

    l: tuple[float, float]
    pos: slice
    zero: slice
    s: np.ndarray
    m: np.ndarray
    v: np.ndarray
    c: np.ndarray | None
    r: tuple[float, float]
    rate: float


def _dual_point(
    src: GaussianPairSource, u: tuple[float, float], budget: tuple[float, float]
) -> _DualPoint:
    """Maximizer of the concave dual g on the ray l = t u, t >= 0, from one eigh.

    On pos, the coordinates with u > 0, (mu, v) = eigh(K(u)), K(u) = Q_pos,pos *
    outer(sqrt(u), sqrt(u)), read from the triangle of the larger multiplier:
    only so does eigh keep the small mu of a graded K to high relative accuracy.
    K(t u) = t K(u), so K(l) has eigenvalues m = t mu, which the point keeps, and
    u . r = sum(min(mu, w)) - u . d with w = 1 / (2 t): g peaks at the water level
    w of :func:`jointrdf.model._water_level`, where l . r = 0 and g equals the rate.
    Sigma's diagonal there is ((v * v) @ min(m, 1/2)) / l; a zero block has
    trace tr Q_ii - sum(c^2 (1 - z) / m), z = min(1, 1/(2 m)) and
    c = Q_zero,pos diag(s) v, s = sqrt(l).  r = (tr Sigma11 - d1, tr Sigma22 - d2)
    is the gradient of g(l) = rate + l . r, rate = 0.5 sum ln(2 max(m, 1/2)).
    u = 0 gives l = 0.  ValueError unless max(u) ||Q||_2, which bounds every
    entry of K(u), is finite.
    """
    (u1, u2), (d1, d2) = u, budget
    q, p1, n = src.q, src.p1, src.n
    lo, hi = (0 if u1 > 0.0 else p1), (n if u2 > 0.0 else p1)
    pos = slice(lo, hi)
    # the rest is one slice too, all of Q when both multipliers are zero
    zero = slice(0, n) if lo == hi else slice(hi, n) if lo == 0 else slice(0, lo)
    if not math.isfinite(max(u) * src.q_norm):
        i = 2 if u2 > u1 else 1
        raise ValueError(f"budget d{i} = {budget[i - 1]!r} is too small for this Q: "
                         f"its multiplier p{i} / (2 d{i}) is not representable")
    up = np.array([u1] * p1 + [u2] * (n - p1))[pos]
    su = np.sqrt(up)
    mu, v = np.linalg.eigh(q[pos, pos] * (su[:, None] * su), UPLO="L" if u1 >= u2 else "U")
    t = 0.5 / _water_level(mu.tolist(), u1 * d1 + u2 * d2)[0] if lo < hi else 0.0
    l, lp, m = (t * u1, t * u2), t * up, t * mu
    s, top = np.sqrt(lp), np.maximum(m, 0.5)
    diag = (((v * v) @ np.minimum(m, 0.5)) / lp).tolist()
    tr, c = (sum(diag[: p1 - lo]), sum(diag[p1 - lo :])), None
    if zero.start < zero.stop:
        c = (q[zero, pos] * s) @ v
        removed = float(np.vdot(c * ((top - 0.5) / top**2), c))
        tr = tuple(ti if ui > 0.0 else tq - removed for ti, ui, tq in zip(tr, u, src.block_traces))
    rate = 0.5 * sum(np.log(2.0 * top).tolist())
    return _DualPoint(l, pos, zero, s, m, v, c, (tr[0] - d1, tr[1] - d2), rate)


def _in_region(first: _DualPoint) -> bool:
    """Region D at the dual's first point, on the ray of l0: no budget covers its trace
    (c is None) and every m exceeds (1 + REGION_TOL) / 2, i.e. Q - D > REGION_TOL * D:
    t = 1 if K(l0) = 0.5 D^{-1/2} Q D^{-1/2} >= I / 2, so m is its spectrum, else t < 1."""
    return first.c is None and bool(first.m[0] > 0.5 * (1.0 + REGION_TOL))


def _solve_dual(
    src: GaussianPairSource, d: DistortionPair
) -> tuple[np.ndarray, np.ndarray, tuple[float, float], float, int, SolveBranch]:
    """Maximize the concave dual g(l) over l >= 0, one ray at a time.

    l0 is 0 for a budget that covers its block trace (Sigma <= Q then implies
    it), else p_i / (2 d_i).  Each evaluation maximizes g on the ray of
    u(a) = 2 ((1 - a) l0_1, a l0_2), so only a in [0, 1] is searched.  Its
    maximum phi(a) is quasi-concave (a superlevel set of phi holds the
    directions of a convex superlevel set of g), and by the envelope theorem
    its slope has the sign of r2, which f = r2 / d2 - r1 / d1 shares since
    l . r = 0: f changes sign at most once, at the optimum.

    The first evaluation, at a = 1/2, is l0: the optimum on zero-rate and
    region-D instances and when one budget covers its trace (the other
    multiplier is then exact by water-filling); it also sets the branch, by
    :func:`_in_region` on region D.  The second trial scales each l_i by
    tr Sigma_ii / d_i, exact where Sigma is diagonal.  Later trials take secant
    steps on f; one that leaves the bracket of evaluated signs goes to its
    unevaluated end, a = 0 or 1, an exact zero multiplier, or else bisects the
    bracket.  Stops once no trace exceeds its budget d_i by more than
    TRACE_SLACK_TOL * d_i and none falls short by more than that unless its
    multiplier is exactly zero; RuntimeError if the bracket collapses
    first (both ends evaluated and no float strictly between them, so every
    later step would repeat an end) or if _MAX_EVALUATIONS does.  Returns
    (sigma, theta, l, rate, evaluations, branch).
    """
    budget = (d.d1, d.d2)
    l0 = tuple(0.0 if di >= ti else p / (2.0 * di)
               for p, di, ti in zip((src.p1, src.p2), budget, src.block_traces))
    slack = tuple(TRACE_SLACK_TOL * di for di in budget)

    def done(pt: _DualPoint) -> bool:
        return all(ri <= si and (li == 0.0 or -ri <= si) for li, ri, si in zip(pt.l, pt.r, slack))

    def at(a: float) -> tuple[_DualPoint, float]:
        pt = _dual_point(src, (2.0 * (1.0 - a) * l0[0], 2.0 * a * l0[1]), budget)
        return pt, pt.r[1] / d.d2 - pt.r[0] / d.d1

    (pt, f), a, evaluations = at(0.5), 0.5, 1
    if l0 == (0.0, 0.0):
        branch = SolveBranch.ZERO_RATE
    elif _in_region(pt):
        branch = SolveBranch.CLOSED_FORM_INTERIOR_D
    else:
        branch = SolveBranch.INTERIOR_POINT
    # the bracket's ends (a, f), f None while unevaluated; f > 0 below the optimum
    lo, hi, prev, collapsed = [0.0, None], [1.0, None], None, False
    while 0.0 not in l0 and not done(pt) and evaluations < _MAX_EVALUATIONS:
        (lo if f > 0.0 else hi)[:] = a, f
        mid = 0.5 * (lo[0] + hi[0])
        collapsed = None not in (lo[1], hi[1]) and not lo[0] < mid < hi[0]
        if collapsed:
            break
        if prev is None:
            g1, g2 = (1.0 + ri / di for ri, di in zip(pt.r, budget))
            step = g2 / (g1 + g2)
        else:
            step = a - f * (a - prev[0]) / (f - prev[1]) if f != prev[1] else math.nan
        if not lo[0] < step < hi[0]:
            step = 1.0 if hi[1] is None else 0.0 if lo[1] is None else mid
        prev, a = (a, f), step
        (pt, f), evaluations = at(a), evaluations + 1
    if not done(pt):
        how = "its ratio bracket collapsed after" if collapsed else "it reached its cap of"
        raise RuntimeError(f"dual solver did not converge: {how} {evaluations} evaluations")
    return (*_optimum(src, pt), pt.l, pt.rate, evaluations, branch)


def _optimum(src: GaussianPairSource, pt: _DualPoint) -> tuple[np.ndarray, np.ndarray]:
    """Sigma and Theta at pt, with s, m, v, c and z as in :func:`_dual_point`.

    On pos, Sigma = diag(1/s) v diag(min(m, 1/2)) v^T diag(1/s) and Theta =
    diag(s) v diag(max(0, 1/2 - m) / m) v^T diag(s), PSD and complementary to
    Q - Sigma mode by mode.  A zero block adds Sigma_zero,pos =
    c diag(z) v^T diag(1/s), Sigma_zero,zero = Q_zero,zero - c diag((1 - z) / m) c^T
    and to Theta 0.5 Q^{-1} E (E^T Q^{-1} E)^{-1} E^T Q^{-1}, E = I[:, zero],
    as 0.5 Y C^{-1} Y^T: C = Q_zero,zero - c diag(1/m) c^T, Y = E - diag(s) v diag(1/m) c^T.
    """
    q, pos, zero, s, m, v, c = src.q, pt.pos, pt.zero, pt.s, pt.m, pt.v, pt.c
    y, ss = np.minimum(m, 0.5), s[:, None] * s
    sigma, theta = np.empty_like(q), np.zeros_like(q)
    sigma[pos, pos] = ((v * y) @ v.T) / ss
    theta[pos, pos] = ((v * ((0.5 - y) / m)) @ v.T) * ss
    if c is not None:
        cz = c * (0.5 / np.maximum(m, 0.5))
        sigma[zero, pos] = (cz @ v.T) / s
        sigma[pos, zero] = sigma[zero, pos].T
        sigma[zero, zero] = q[zero, zero] - ((c - cz) / m) @ c.T
        e = np.eye(src.n)[:, zero]
        e[pos] = -((s[:, None] * v) / m) @ c.T
        theta += 0.5 * (e @ np.linalg.solve(q[zero, zero] - (c / m) @ c.T, e.T))
    return sym(sigma), sym(theta)


# ---------------------------------------------------------------------------
# public solve
# ---------------------------------------------------------------------------


def solve(src: GaussianPairSource, d: DistortionPair) -> SolveReport:
    """Compute the joint rate-distortion value and its optimal error covariance.

    Every feasible instance is solved by the two-multiplier dual, which stops
    once each trace is within TRACE_SLACK_TOL * d_i of its budget d_i, or
    below it with a zero multiplier (ValueError for a budget whose multiplier
    p_i / (2 d_i) is not representable for Q; RuntimeError if the iteration
    fails, see :func:`_solve_dual`).  iterations counts its evaluations, one
    eigh each (1 on the zero-rate and region-D instances).  The rate is that
    of the returned Sigma, from the final dual point's eigenvalues; the
    branch labels the instance as the module docstring says.  The additive
    lower bound is :func:`jointrdf.model.gray_lower_bound`.

    A zero budget against a block with positive variance yields the
    Infeasible branch with an infinite rate: every admissible error
    covariance is then singular.
    """
    start = time.perf_counter()
    if d.d1 <= 0.0 or d.d2 <= 0.0:
        sigma = ErrorCovariance(readonly(np.zeros((src.n, src.n))))
        return SolveReport(math.inf, sigma, None, SolveBranch.INFEASIBLE, 0,
                           time.perf_counter() - start)

    s, theta, lam, rate, iterations, branch = _solve_dual(src, d)
    sigma = ErrorCovariance(readonly(s))
    sigma.validate(src, d)
    blank = KktCertificate(*lam, readonly(theta), 0.0, (0.0,) * 3, True)
    cert = kkt_residuals(src, d, sigma, blank)
    wall = time.perf_counter() - start
    return SolveReport(rate, sigma, cert, branch, iterations, wall)
