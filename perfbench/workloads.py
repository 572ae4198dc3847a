"""Seeded inputs, timed pipelines and output checks of the benchmark workloads.

Each workload is a list of points.  A point carries only generated arrays and
numbers (covariance, block sizes, budgets, Philox seeds, estimator matrices);
the pipeline hands them to jointrdf's public API and times the calls.  Checks
run after the timed pipeline and return one message per failed check.

* ``surface``: the bundled 4x4 source over a d1 x d2 grid, in grid order.
  Every point shares one Q, so per-source caching and warm starts across
  neighbouring points would show here.  The grid passes both block traces,
  so all three solver branches occur.
* ``scaling``: random positive-definite sources with n = p1 + p2 in
  {6, 8, 10, 12}, even and uneven splits, budgets below the block traces and
  outside the closed-form region.  Full analysis per source; no input is
  shared, so caching and warm starts should not move it.  The seed rotates
  fixed base sources, so the work per seed is the same.
* ``monte_carlo``: the bundled source at the closed-form case (0.4, 0.5) and
  the rank-deficient interior-point case (1.65, 1.85), each pushed through
  the sampling pipeline at 1e6 samples.  The only memory-heavy workload.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import jointrdf as jr

HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLE_SOURCE = os.path.join(HERE, "data", "example_source.json")

GRID_STEPS = 10
SCALING_SPLITS = ((3, 3), (2, 4), (4, 4), (3, 5), (5, 5), (3, 7), (6, 6), (4, 8))
# Fixed, so that every run seed rotates the same base sources.
SCALING_BASE_SEED = 20210214
MC_CASES = ((0.4, 0.5), (1.65, 1.85))
MC_SAMPLES = 1_000_000

# Known optimum at (1.65, 1.85) to 3 significant figures; compared with the
# acceptance suite's tolerance.
CASE2_BUDGETS = (1.65, 1.85)
CASE2_SIGMA_3SF = np.array(
    [
        [0.849, -0.0017, -0.0053, 0.0036],
        [-0.0017, 0.801, -0.144, 0.0961],
        [-0.0053, -0.144, 0.804, 0.293],
        [0.0036, 0.0961, 0.293, 1.05],
    ]
)
CASE2_TOL = 5e-3
KKT_TOL = 1e-7
GRAY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-6
MONOTONE_TOL = 1e-8


@dataclass(frozen=True)
class Point:
    id: str
    q: np.ndarray
    p1: int
    p2: int
    d1: float
    d2: float
    philox: tuple[int, int] = (0, 0)
    alternatives: tuple = ()


@dataclass
class Outcome:
    src: jr.GaussianPairSource
    d: jr.DistortionPair
    report: jr.SolveReport
    solve_s: float
    total_s: float = 0.0
    sim_s: float = 0.0
    channel: jr.TestChannelRealization | None = None
    cond1: jr.Condition1Report | None = None
    dist: jr.DistortionReport | None = None
    cm: jr.CmOptimalityReport | None = None
    samples: int = 0
    bytes_computed: int = 0


@dataclass
class Workload:
    name: str
    points: list[Point]
    run: object
    check: object
    source_docs: list[dict] = field(default_factory=list)
    # Leading points run once, untimed, before measuring.
    warmup: int = 1
    # Check over a whole pass of outcomes, or None.
    check_pass: object = None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def load_example() -> dict:
    with open(EXAMPLE_SOURCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _doc(q: np.ndarray, p1: int, p2: int) -> dict:
    return {"p1": p1, "p2": p2, "Q": q.tolist()}


def surface_workload(seed: int) -> Workload:
    doc = load_example()
    q, p1 = np.asarray(doc["Q"], dtype=float), doc["p1"]
    rng = np.random.default_rng([seed, 1])
    axes = []
    for block in (slice(0, p1), slice(p1, None)):
        trace = float(np.trace(q[block, block]))
        axes.append(np.linspace(0.1 * rng.uniform(1.0, 1.5), trace * rng.uniform(1.05, 1.2),
                                GRID_STEPS))
    points = [
        Point(f"g{i:02d}{j:02d}", q, doc["p1"], doc["p2"], float(a), float(b))
        for i, a in enumerate(axes[0])
        for j, b in enumerate(axes[1])
    ]
    return Workload("surface", points, run_solve, check_solve, [doc],
                    check_pass=check_monotone)


def _outside_region(q: np.ndarray, p1: int, d1: float, d2: float) -> bool:
    """Region test done here, not by jointrdf, so inputs never depend on the code under test."""
    n = q.shape[0]
    cand = np.concatenate([np.full(p1, d1 / p1), np.full(n - p1, d2 / (n - p1))])
    return bool(np.linalg.eigvalsh(q - np.diag(cand))[0] < 0.0)


def _base_source(rng: np.random.Generator, p1: int, p2: int) -> tuple[np.ndarray, float, float]:
    """Random PD source with budgets below the block traces, outside region D."""
    n = p1 + p2
    while True:
        a = rng.standard_normal((n, n))
        q = a @ a.T / n + 0.2 * np.eye(n)
        q = 0.5 * (q + q.T)
        frac = rng.uniform(0.35, 0.6, size=2)
        d1 = float(frac[0] * np.trace(q[:p1, :p1]))
        d2 = float(frac[1] * np.trace(q[p1:, p1:]))
        if _outside_region(q, p1, d1, d2):
            return q, d1, d2


def _orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    """Haar-random k x k orthogonal matrix."""
    m, r = np.linalg.qr(rng.standard_normal((k, k)))
    return m * np.sign(np.diag(r))


def scaling_workload(seed: int) -> Workload:
    """Each seed rotates fixed base sources by a random blockdiag(O1, O2).

    The rate problem is invariant under block rotations, which keep the block
    traces and the region test, so every seed asks for the same work while
    no two seeds share an input matrix.
    """
    base_rng = np.random.default_rng(SCALING_BASE_SEED)
    rng = np.random.default_rng([seed, 2])
    points, docs = [], []
    for p1, p2 in SCALING_SPLITS:
        q0, d1, d2 = _base_source(base_rng, p1, p2)
        rot = np.zeros_like(q0)
        rot[:p1, :p1] = _orthogonal(rng, p1)
        rot[p1:, p1:] = _orthogonal(rng, p2)
        q = rot @ q0 @ rot.T
        q = 0.5 * (q + q.T)
        points.append(Point(f"n{p1 + p2}_{p1}x{p2}", q, p1, p2, d1, d2))
        docs.append(_doc(q, p1, p2))
    return Workload("scaling", points, run_analysis, check_analysis, docs)


def monte_carlo_workload(seed: int) -> Workload:
    doc = load_example()
    q = np.asarray(doc["Q"], dtype=float)
    n = q.shape[0]
    seq = np.random.SeedSequence([seed, 3])
    points = []
    for (d1, d2), child in zip(MC_CASES, seq.spawn(len(MC_CASES))):
        s_sample, s_push, s_alt = (int(s) for s in child.generate_state(3, np.uint64))
        alt_rng = np.random.Generator(np.random.Philox(s_alt))
        alternatives = (0.9 * np.eye(n), 1.1 * np.eye(n), alt_rng.standard_normal((n, n)))
        points.append(Point(f"case_{d1}_{d2}", q, doc["p1"], doc["p2"], d1, d2,
                            philox=(s_sample, s_push), alternatives=alternatives))
    return Workload("monte_carlo", points, run_monte_carlo, check_monte_carlo, [doc],
                    warmup=len(points))


WORKLOADS = {
    "surface": surface_workload,
    "scaling": scaling_workload,
    "monte_carlo": monte_carlo_workload,
}


# ---------------------------------------------------------------------------
# timed pipelines
# ---------------------------------------------------------------------------


def _solve(point: Point, tr) -> Outcome:
    src = tr.call("model.validate_source", jr.validate_source, point.q, point.p1, point.p2)
    d = jr.DistortionPair(point.d1, point.d2)
    start = time.perf_counter()
    report = tr.call("solver.solve", jr.solve, src, d)
    solve_s = time.perf_counter() - start
    tr.annotate(branch=report.branch.value, n=src.n, iterations=report.iterations)
    return Outcome(src, d, report, solve_s)


def run_solve(point: Point, tr) -> Outcome:
    start = time.perf_counter()
    out = _solve(point, tr)
    out.total_s = time.perf_counter() - start
    return out


def run_analysis(point: Point, tr) -> Outcome:
    start = time.perf_counter()
    out = _solve(point, tr)
    out.channel = tr.call("realization.realize", jr.realize, out.src, out.report.sigma)
    out.cond1 = tr.call("realization.verify_condition1", jr.verify_condition1, out.channel)
    tr.call("canonical.to_canonical_form", jr.to_canonical_form, out.src)
    out.total_s = time.perf_counter() - start
    return out


def run_monte_carlo(point: Point, tr) -> Outcome:
    start = time.perf_counter()
    out = _solve(point, tr)
    out.channel = tr.call("realization.realize", jr.realize, out.src, out.report.sigma)
    sim_start = time.perf_counter()
    batch = tr.call("sim.sample_source", jr.sample_source, out.src, MC_SAMPLES, point.philox[0])
    batch = tr.call("sim.push_channel", jr.push_channel, batch, out.channel, point.philox[1])
    out.dist = tr.call("sim.check_distortion", jr.check_distortion, batch, out.d)
    out.cm = tr.call("sim.check_cm_optimality", jr.check_cm_optimality, batch, out.channel,
                     list(point.alternatives))
    end = time.perf_counter()
    out.sim_s = end - sim_start
    out.total_s = end - start
    out.samples = batch.n
    # Computed from array sizes: x written by sampling; x read and xhat, e
    # written by the push; e read by the distortion check; x and xhat read
    # once per estimator by the dominance check.
    block = batch.x.nbytes
    out.bytes_computed = block * (1 + 3 + 1 + 2 * (1 + len(point.alternatives)))
    return out


# ---------------------------------------------------------------------------
# checks (run outside the timed pipeline)
# ---------------------------------------------------------------------------


def check_solve(point: Point, out: Outcome, tr) -> list[str]:
    """Checks every solve gets: Gray bound, region test, certificate."""
    fails = []
    report = out.report
    gray = tr.call("model.gray_lower_bound", jr.gray_lower_bound, out.src, out.d)
    region = tr.call("solver.in_region_d", jr.in_region_d, out.src, out.d)
    if region != report.in_region_d:
        fails.append(f"in_region_d {region} disagrees with the report")
    if not report.rate_nats >= gray - GRAY_TOL:
        fails.append(f"rate {report.rate_nats!r} below the Gray bound {gray!r}")
    if report.branch is jr.SolveBranch.CLOSED_FORM_INTERIOR_D:
        if abs(report.rate_nats - gray) > CLOSED_FORM_TOL:
            fails.append(f"closed-form rate {report.rate_nats!r} != Gray bound {gray!r}")
    if report.branch is jr.SolveBranch.INTERIOR_POINT:
        cert = tr.call("solver.kkt_residuals", jr.kkt_residuals, out.src, out.d,
                       report.sigma, report.certificate)
        if not cert.max_residual <= KKT_TOL:
            fails.append(f"KKT residual {cert.max_residual:.3e} > {KKT_TOL:g}")
        if not cert.dual_feasible:
            fails.append("certificate is not dual feasible")
        try:
            report.sigma.validate(out.src, out.d)
        except jr.FeasibilityError as exc:
            fails.append(f"sigma fails validation: {exc}")
    return fails


def check_monotone(outcomes: list[Outcome]) -> list[str]:
    """The surface must be non-increasing along both budget axes."""
    rates = np.array([o.report.rate_nats for o in outcomes]).reshape(GRID_STEPS, GRID_STEPS)
    fails = []
    for axis in (0, 1):
        rise = float(np.diff(rates, axis=axis).max())
        if rise > MONOTONE_TOL:
            fails.append(f"rate rises by {rise:.3e} along axis d{axis + 1}")
    return fails


def check_analysis(point: Point, out: Outcome, tr) -> list[str]:
    fails = check_solve(point, out, tr)
    if out.report.branch is not jr.SolveBranch.INTERIOR_POINT:
        fails.append(f"expected the interior-point branch, got {out.report.branch.value}")
    if not out.cond1.passed:
        fails.append(f"verify_condition1 deviation {out.cond1.deviation:.3e}")
    return fails


def check_monte_carlo(point: Point, out: Outcome, tr) -> list[str]:
    fails = check_solve(point, out, tr)
    cond1 = tr.call("realization.verify_condition1", jr.verify_condition1, out.channel)
    if not cond1.passed:
        fails.append(f"verify_condition1 deviation {cond1.deviation:.3e}")
    if not out.dist.passed:
        fails.append(
            f"empirical distortion ({out.dist.empirical_d1:.6g}, {out.dist.empirical_d2:.6g}) "
            f"above ({out.dist.bound_d1:.6g}, {out.dist.bound_d2:.6g})"
        )
    if not out.cm.passed:
        fails.append("an alternative estimator beats the conditional mean")
    if (point.d1, point.d2) == CASE2_BUDGETS:
        dev = float(np.abs(out.report.sigma.sigma - CASE2_SIGMA_3SF).max())
        if not dev <= CASE2_TOL:
            fails.append(f"sigma at {CASE2_BUDGETS} deviates {dev:.3e} from the reference")
    return fails

