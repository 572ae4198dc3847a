"""Shared test utilities: random instance generators and independent oracles.

The oracles deliberately avoid the library's own code paths: the water-filling
oracles locate the level by brute-force grid refinement or by plain bisection
instead of the closed form, and the scalar joint-rate oracle maximizes the 2x2 determinant over a refined
grid with eigenvalue-free feasibility tests.  scalar_pair_rate gives the same
scalar joint rate in closed form, from its three candidate optima.
"""

from __future__ import annotations

import math

import numpy as np

from jointrdf.solver import GAP_TOL, TRACE_SLACK_TOL


def random_pd_pair(rng: np.random.Generator, p1: int, p2: int, ridge: float = 0.4):
    """Random strictly positive-definite (p1+p2) pair covariance."""
    n = p1 + p2
    a = rng.standard_normal((n, n))
    return a @ a.T + ridge * np.eye(n)


def conditioned_pd(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """Random rotation of diag of n eigenvalues log-spaced from 1 to 1/cond."""
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = (v * np.logspace(0.0, -np.log10(cond), n)) @ v.T
    return 0.5 * (q + q.T)


def random_feasible_sigma(
    rng: np.random.Generator,
    q: np.ndarray,
    lo: float = 0.1,
    hi: float = 0.9,
    boundary: int = 0,
) -> np.ndarray:
    """Random sigma = Q^(1/2) W Q^(1/2) with eigenvalues of W drawn in
    (lo, hi), so 0 < sigma < q strictly for 0 < lo < hi < 1.  The first
    ``boundary`` eigenvalues of W are then set to exactly 1, so that
    Q - sigma has rank n - boundary."""
    n = q.shape[0]
    w_eig, u_q = np.linalg.eigh(q)
    q_half = (u_q * np.sqrt(w_eig)) @ u_q.T
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    scales = rng.uniform(lo, hi, size=n)
    scales[:boundary] = 1.0
    w = (basis * scales) @ basis.T
    s = q_half @ w @ q_half
    return 0.5 * (s + s.T)


def oracle_tol(report) -> float:
    """What a solve may miss an exact rate by: the duality gap it stops at,
    plus the trace overshoot it accepts priced at its own multipliers."""
    cert = report.certificate
    return GAP_TOL + (cert.lambda1 + cert.lambda2) * TRACE_SLACK_TOL


def waterfill_oracle(eigenvalues: np.ndarray, delta: float) -> float:
    """Reverse water-filling rate by 1-D grid search over the water level.

    Refines the grid around the level whose filled distortion matches delta;
    independent of the bisection used by the library.
    """
    mu = np.maximum(np.asarray(eigenvalues, dtype=float), 0.0)
    total = mu.sum()
    if delta >= total:
        return 0.0
    lo, hi = 0.0, float(mu.max())
    for _ in range(6):
        grid = np.linspace(lo, hi, 2001)
        filled = np.minimum(grid[:, None], mu[None, :]).sum(axis=1)
        k = int(np.argmin(np.abs(filled - delta)))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
    theta = 0.5 * (lo + hi)
    return float(0.5 * np.sum(np.log(np.maximum(mu / theta, 1.0))))


def waterfill_bisection_rate(eigenvalues: np.ndarray, delta: float) -> float:
    """Reverse water-filling rate with the level found by plain bisection.

    Halves [0, max mu] until the midpoint stops moving, so the level is
    exact to round-off; a brute-force reference for the closed-form level.
    """
    mu = np.maximum(np.asarray(eigenvalues, dtype=float), 0.0)
    lo, hi = 0.0, float(mu.max())
    while True:
        theta = 0.5 * (lo + hi)
        if theta in (lo, hi):
            break
        if float(np.minimum(theta, mu).sum()) > delta:
            hi = theta
        else:
            lo = theta
    return float(0.5 * np.sum(np.log(np.maximum(mu / theta, 1.0))))


def _best_det_given_diagonal(
    s1g: np.ndarray, s2g: np.ndarray, q11: float, q22: float, q12: float
) -> np.ndarray:
    """Max of det(sigma) over the cross term c, elementwise on an (s1, s2) grid.

    det = s1 s2 - c^2 decreases in |c|, so the best feasible c is the point
    closest to zero in [q12 - r, q12 + r] with r = sqrt((q11-s1)(q22-s2))
    (the q - sigma >= 0 band), intersected with |c| <= sqrt(s1 s2)
    (the sigma >= 0 band).  Infeasible cells evaluate to -inf.
    """
    r11 = q11 - s1g
    r22 = q22 - s2g
    rad = np.sqrt(np.maximum(r11 * r22, 0.0))
    lo = q12 - rad
    hi = q12 + rad
    c_best = np.clip(0.0, lo, hi)  # closest-to-zero point of the band
    own = np.sqrt(np.maximum(s1g * s2g, 0.0))
    feasible = (r11 >= -1e-12) & (r22 >= -1e-12) & (np.abs(c_best) <= own + 1e-12)
    det = s1g * s2g - c_best**2
    return np.where(feasible & (det > 0.0), det, -np.inf)


def scalar_bruteforce_rate(q: np.ndarray, d1: float, d2: float) -> float:
    """Joint rate for p1 = p2 = 1 by refined grid search over 2x2 sigma.

    Maximizes det(sigma) over the diagonal (s1 <= min(d1, q11),
    s2 <= min(d2, q22)) on a refined grid, with the cross term eliminated
    exactly per cell and feasibility checked through 2x2 determinant tests.
    Six refinement rounds bring the final grid step far below 1e-3.
    """
    q11, q22, q12 = float(q[0, 0]), float(q[1, 1]), float(q[0, 1])
    s1_hi = min(d1, q11)
    s2_hi = min(d2, q22)
    bounds = [(1e-12 * s1_hi, s1_hi), (1e-12 * s2_hi, s2_hi)]
    hard = [tuple(b) for b in bounds]
    best = -np.inf
    steps = 81
    for _ in range(6):
        axes = [np.linspace(lo, hi, steps) for lo, hi in bounds]
        s1g, s2g = np.meshgrid(*axes, indexing="ij")
        det = _best_det_given_diagonal(s1g, s2g, q11, q22, q12)
        idx = np.unravel_index(np.argmax(det), det.shape)
        if not np.isfinite(det[idx]):
            break
        best = max(best, float(det[idx]))
        new_bounds = []
        for ax, (lo_h, hi_h), i in zip(axes, hard, idx):
            step = ax[1] - ax[0] if len(ax) > 1 else (hi_h - lo_h)
            new_bounds.append(
                (max(lo_h, ax[i] - 2.0 * step), min(hi_h, ax[i] + 2.0 * step))
            )
        bounds = new_bounds
    if not np.isfinite(best) or best <= 0.0:
        return float("inf")
    det_q = q11 * q22 - q12**2
    return max(0.5 * float(np.log(det_q / best)), 0.0)


def scalar_pair_rate(v1: float, v2: float, rho: float, d1: float, d2: float) -> float:
    """Joint rate for p1 = p2 = 1 in closed form (variances v1, v2, correlation rho).

    Three candidates for the optimal sigma: both budgets binding, with
    diagonal a_i = min(d_i, v_i) and the cross term closest to zero inside
    the Q - sigma >= 0 band; or one budget binding alone, with the other
    block's error that of its linear estimate from the first block's
    reconstruction, a candidate only when that error stays within its own
    budget.  The rate is 0.5 ln(det Q / det sigma) at the largest
    determinant, floored at zero.
    """
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    a1, a2 = min(d1, v1), min(d2, v2)
    c = rho * s1 * s2
    cross = math.copysign(max(0.0, abs(c) - math.sqrt((v1 - a1) * (v2 - a2))), c)
    dets = [a1 * a2 - cross**2]
    e2 = v2 * (1.0 - rho**2) + rho**2 * v2 * d1 / v1
    if e2 <= d2:
        dets.append(d1 * e2 - (rho * s2 * d1 / s1) ** 2)
    e1 = v1 * (1.0 - rho**2) + rho**2 * v1 * d2 / v2
    if e1 <= d1:
        dets.append(d2 * e1 - (rho * s1 * d2 / s2) ** 2)
    return max(0.0, 0.5 * math.log(v1 * v2 * (1.0 - rho**2) / max(dets)))


def gaussian_mi_of_channel(q: np.ndarray, h: np.ndarray, qv: np.ndarray) -> float:
    """Mutual information I(X; HX + V) from the assembled joint covariance."""
    n = q.shape[0]
    c_xh = q @ h.T
    c_hh = h @ q @ h.T + qv
    joint = np.block([[q, c_xh], [c_xh.T, c_hh]])
    sign_j, ld_joint = np.linalg.slogdet(joint)
    assert sign_j > 0
    return 0.5 * (np.linalg.slogdet(q)[1] + np.linalg.slogdet(c_hh)[1] - ld_joint)


def one_shot_moments(x, xhat) -> np.ndarray:
    """The second-moment matrix z^T z / N of z = [x, xhat], in one product."""
    z = np.hstack([x, xhat])
    return z.T @ z / x.shape[0]


def unchunked_distortion(x, xhat, p1: int) -> tuple[float, float]:
    """Empirical block distortions from whole-batch per-row block sums."""
    e = x - xhat
    return (
        float(np.sum(e[:, :p1] ** 2, axis=1).mean()),
        float(np.sum(e[:, p1:] ** 2, axis=1).mean()),
    )


def unchunked_cm_optimality(x, xhat, p1: int, r, alternatives):
    """base_mse and per-alternative (margins, slacks) from whole-batch
    residuals.  A margin is the mean of the per-sample block differences;
    its slack is 3 sqrt(2 tr((A C)^2) / N), with A the block's quadratic
    form in z = [x, xhat] built from an explicit selector S_b, and C the
    one-shot second moments of z."""
    from jointrdf import conditional_mean_map

    n = x.shape[1]
    rows = x.shape[0]
    c = one_shot_moments(x, xhat)
    selectors = (np.diag((np.arange(n) < p1).astype(float)),
                 np.diag((np.arange(n) >= p1).astype(float)))

    def block_sq(g):
        res = x - xhat @ g.T
        return np.sum(res[:, :p1] ** 2, axis=1), np.sum(res[:, p1:] ** 2, axis=1)

    def forms(g):
        p = np.hstack([np.eye(n), -g])
        return [p.T @ s @ p for s in selectors]

    m = conditional_mean_map(r)
    base1, base2 = block_sq(m)
    results = []
    for g in alternatives:
        g = np.asarray(g, dtype=float)
        alt1, alt2 = block_sq(g)
        margins = (float((alt1 - base1).mean()), float((alt2 - base2).mean()))
        slacks = []
        for a_g, a_m in zip(forms(g), forms(m)):
            ac = (a_g - a_m) @ c
            slacks.append(3.0 * np.sqrt(2.0 * np.trace(ac @ ac) / rows))
        results.append((margins, tuple(float(s) for s in slacks)))
    return (float(base1.mean()), float(base2.mean())), tuple(results)


def one_shot_batch(src, r, rows: int, seeds: tuple[int, int]):
    """x and xhat each from a single whole-batch Philox draw: x = Z F^T with
    F F^T = Q, then xhat = W G^T + x H^T with G G^T = Qv."""

    def draw(seed):
        return np.random.Generator(np.random.Philox(seed)).standard_normal((rows, src.n))

    def factor(a):
        w, u = np.linalg.eigh(0.5 * (a + a.T))
        return u * np.sqrt(np.maximum(w, 0.0))

    x = draw(seeds[0]) @ factor(src.q).T
    xhat = draw(seeds[1]) @ factor(r.qv).T
    xhat += x @ r.h.T
    return x, xhat
