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
tr Sigma22 - d2) and is maximized by projected Newton ascent over l >= 0;
each evaluation is one eigh and a few O(n^2) array operations.

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
construction, whose residuals :func:`kkt_residuals` recomputes.  gap_tol of
:func:`solve` (default GAP_TOL), the duality gap in nats at which the dual
iteration stops, is the only tolerance a caller sets.  REGION_TOL, the margin
of the region test (Q - D > REGION_TOL * D), TRACE_SLACK_TOL, the trace
overshoot accepted relative to each budget, and model.PSD_RTOL are fixed and
scale with the problem.
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
    eigenvalues of sigma and of Q - sigma down to -PSD_RTOL * ||Q||_2
    accepted as round-off."""
    n = src.n
    if s.shape != (n, n):
        raise FeasibilityError(f"sigma must be {n}x{n}, got {s.shape}")
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

    The label :func:`solve` reads off its first dual evaluation, at
    l_i = p_i / (2 d_i): K = 0.5 D^{-1/2} Q D^{-1/2} has its eigenvalues above
    (1 + REGION_TOL) / 2.  Zero budgets are excluded outright: D is singular.
    """
    if d.d1 <= 0.0 or d.d2 <= 0.0:
        return False
    l0 = (src.p1 / (2.0 * d.d1), src.p2 / (2.0 * d.d2))
    return bool(_dual_point(src, l0, (d.d1, d.d2)).m[0] > 0.5 * (1.0 + REGION_TOL))


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

# Cap on the dual evaluations of one solve, line-search trials included.
_MAX_EVALUATIONS = 100


class _DualPoint(NamedTuple):
    """Lagrangian minimizer at multipliers l = (l1, l2), in modal form."""

    l: tuple[float, float]
    pos: slice
    zero: slice
    s: np.ndarray
    m: np.ndarray
    v: np.ndarray
    c: np.ndarray | None
    r: tuple[float, float]
    rate: float
    value: float
    scale: float


def _dual_point(
    src: GaussianPairSource, l: tuple[float, float], budget: tuple[float, float]
) -> _DualPoint:
    """Spectral reverse water-filling at l = (l1, l2), from one eigh.

    On pos, the coordinates with l > 0, (m, v) = eigh(K), K = Q_pos,pos *
    outer(s, s), s = sqrt(l), read from the triangle of the larger multiplier:
    only so does eigh keep the small m of a graded K to high relative
    accuracy.  Sigma's diagonal there is ((v * v) @ min(m, 1/2)) / l; a zero
    block has trace tr Q_ii - sum(c^2 (1 - z) / m), z = min(1, 1/(2 m)) and
    c = Q_zero,pos diag(s) v.  r = (tr Sigma11 - d1, tr Sigma22 - d2) is the
    gradient of g(l) = rate + l . r, rate = 0.5 sum ln(2 max(m, 1/2)); scale
    sums the magnitudes of g's terms.  ValueError unless max(l) ||Q||_2, which
    bounds every entry of K, is finite.
    """
    (l1, l2), (d1, d2) = l, budget
    q, p1, n = src.q, src.p1, src.n
    lo, hi = (0 if l1 > 0.0 else p1), (n if l2 > 0.0 else p1)
    pos = slice(lo, hi)
    # the rest is one slice too, all of Q when both multipliers are zero
    zero = slice(0, n) if lo == hi else slice(hi, n) if lo == 0 else slice(0, lo)
    if not math.isfinite(max(l) * src.q_norm):
        i = 2 if l2 > l1 else 1
        raise ValueError(f"budget d{i} = {budget[i - 1]!r} is too small for this Q: "
                         f"its multiplier p{i} / (2 d{i}) is not representable")
    lp = np.array([l1] * p1 + [l2] * (n - p1))[pos]
    s = np.sqrt(lp)
    m, v = np.linalg.eigh(q[pos, pos] * (s[:, None] * s), UPLO="L" if l1 >= l2 else "U")
    top = np.maximum(m, 0.5)
    diag = (((v * v) @ np.minimum(m, 0.5)) / lp).tolist()
    t, c = (sum(diag[: p1 - lo]), sum(diag[p1 - lo :])), None
    if zero.start < zero.stop:
        c = (q[zero, pos] * s) @ v
        removed = float(np.vdot(c * ((top - 0.5) / top**2), c))
        t = tuple(ti if li > 0.0 else tq - removed for ti, li, tq in zip(t, l, src.block_traces))
    rate = 0.5 * sum(np.log(2.0 * top).tolist())
    r = (t[0] - d1, t[1] - d2)
    value = rate + (l1 * r[0] + l2 * r[1])
    scale = rate + (l1 * (t[0] + d1) + l2 * (t[1] + d2))
    return _DualPoint(l, pos, zero, s, m, v, c, r, rate, value, scale)


def _newton_step(pt: _DualPoint, p1: int, l0: tuple[float, float]) -> list[float]:
    """Ascent step on the concave dual from pt, on h = diag(l) J diag(l).

    By Daleckii-Krein, h_ij = sum(F * G_i * G_j): G_i = v_i^T v_i over block
    i's rows of v (none if l_i = 0), F = m_a m_b (z_a - z_b) / (m_a - m_b),
    exactly -1/2 between active modes (m > 1/2) and 0 between inactive ones.
    Multipliers move in units of their own value, or of l0 from zero, and
    every test reads h and (l1 r1, l2 r2), so scaling a block moves nothing.
    A slack budget whose own Newton step crosses zero goes to zero; a binding
    one on a flat diagonal (its modes all at z = 1, or l_i = 0) rises by one
    unit.  The rest take the Newton step given those moves, shrunk to rise by
    at most one unit: a near-flat diagonal would overshoot the next mode.  A
    full unit doubles l_i, but a rise of delta < 1 goes through the level map
    of :func:`_solve_dual`, which multiplies l_i by 1 / (1 - t delta).
    """
    m, y, split = pt.m, np.minimum(pt.m, 0.5), p1 - pt.pos.start
    g1, g2 = pt.v[:split].T @ pt.v[:split], pt.v[split:].T @ pt.v[split:]
    dm, active = m[:, None] - m, m > 0.5
    f = np.divide(y[:, None] * m - m[:, None] * y, dm,
                  out=np.where(active[:, None] & active, -0.5, 0.0), where=dm != 0.0)
    g1f = g1 * f
    h11, h12, h22 = float(np.vdot(g1f, g1)), float(np.vdot(g1f, g2)), float(np.vdot(g2 * f, g2))
    hd, g = (h11, h22), [li * ri for li, ri in zip(pt.l, pt.r)]
    flat = 1e-13 * max(abs(h11), abs(h12), abs(h22))
    bound = [ri <= 0.0 and hi >= gi for ri, hi, gi in zip(pt.r, hd, g)]
    newton = [not bi and -hi > flat for bi, hi in zip(bound, hd)]
    d1, d2 = (0.0 if nw else -1.0 if bi else 1.0 for nw, bi in zip(newton, bound))
    rhs = (-(g[0] + (h11 * d1 + h12 * d2)), -(g[1] + (h12 * d1 + h22 * d2)))
    if all(newton):
        det = h11 * h22 - h12 * h12
        delta = [(h22 * rhs[0] - h12 * rhs[1]) / det, (h11 * rhs[1] - h12 * rhs[0]) / det]
    else:
        delta = [hi / hdi if nw else di for hi, hdi, nw, di in zip(rhs, hd, newton, (d1, d2))]
    over = max([di for nw, di in zip(newton, delta) if nw], default=0.0)
    if over > 1.0:
        delta = [di / over if nw else di for nw, di in zip(newton, delta)]
    return [(li or l0i) * di for li, l0i, di in zip(pt.l, l0, delta)]


def _solve_dual(
    src: GaussianPairSource, d: DistortionPair, gap_tol: float
) -> tuple[np.ndarray, np.ndarray, tuple[float, float], float, int, SolveBranch]:
    """Maximize the concave dual g(l) by projected Newton ascent over l >= 0.

    Starts from l0: 0 for a budget that covers its block trace (Sigma <= Q
    then implies it), else p_i / (2 d_i), so zero-rate and region-D instances
    stop at the first evaluation, which also sets the branch as
    :func:`in_region_d` does.  A multiplier that moves by less than its own
    value moves in its level w = 1 / (2 l), in which the traces are nearly
    linear; the others move straight, projected onto l >= 0.  Steps halve
    until g rises by the Armijo rule, up to round-off in g's terms.  Stops
    once each l_i |r_i| <= gap_tol / 2 and each trace is within
    TRACE_SLACK_TOL * d_i above d_i; RuntimeError if _MAX_EVALUATIONS comes
    first.  Returns (sigma, theta, l, rate, evaluations, branch).
    """
    p1, p2, budget = src.p1, src.p2, (d.d1, d.d2)
    covered = tuple(di >= ti for di, ti in zip(budget, src.block_traces))
    l0 = tuple(0.0 if c else p / (2.0 * di) for c, p, di in zip(covered, (p1, p2), budget))
    slack = tuple(TRACE_SLACK_TOL * di for di in budget)
    half_gap = 0.5 * gap_tol

    def done(pt: _DualPoint) -> bool:
        return all(ri <= si and li * abs(ri) <= half_gap
                   for li, ri, si in zip(pt.l, pt.r, slack))

    pt, evaluations = _dual_point(src, l0, budget), 1
    if all(covered):
        branch = SolveBranch.ZERO_RATE
    elif not any(covered) and pt.m[0] > 0.5 * (1.0 + REGION_TOL):
        branch = SolveBranch.CLOSED_FORM_INTERIOR_D
    else:
        branch = SolveBranch.INTERIOR_POINT
    while not done(pt) and evaluations < _MAX_EVALUATIONS:
        step = _newton_step(pt, p1, l0)
        t = 1.0
        while True:
            l = tuple(li * li / (li - t * si) if abs(si) < li else max(li + t * si, 0.0)
                      for li, si in zip(pt.l, step))
            trial, evaluations = _dual_point(src, l, budget), evaluations + 1
            rise = sum(ri * (tl - li) for ri, tl, li in zip(pt.r, trial.l, pt.l))
            armijo = 1e-4 * rise - 1e-13 * pt.scale
            if trial.value - pt.value >= armijo or done(trial) or evaluations >= _MAX_EVALUATIONS:
                break
            t *= 0.5
        pt = trial
    if not done(pt):
        raise RuntimeError(f"dual solver did not converge within {evaluations} evaluations")
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


def solve(
    src: GaussianPairSource,
    d: DistortionPair,
    *,
    gap_tol: float = GAP_TOL,
) -> SolveReport:
    """Compute the joint rate-distortion value and its optimal error covariance.

    Every feasible instance is solved by the two-multiplier dual; gap_tol
    is the duality gap in nats at which its iteration stops (ValueError
    unless finite and positive, and for a budget whose multiplier
    p_i / (2 d_i) is not representable for Q).  iterations counts its
    evaluations, one eigh each (1 on the zero-rate and region-D instances).
    The rate is that of the returned Sigma, from the final dual point's
    eigenvalues; the branch labels the instance as the module docstring says.

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
