"""Command-line front end.

Subcommands: solve a single instance, sweep a distortion grid to CSV,
synthesize and structurally verify a channel realization, run Monte-Carlo
validation, and emit the canonical variable form.  Sources are JSON documents
{"p1": int, "p2": int, "Q": [[...]]} with Q row-major.

Exit codes: 0 success, 2 invalid input (or an unwritable -o path), 3
infeasible (zero budget against positive variance), 4 structural check
failure, 5 statistical check failure, 1 internal failure (a dual solve that
reaches its evaluation cap, a sweep point whose solve misbehaves, or an
allocation that fails, such as a sample count too large for memory).  A reader
that closes the output pipe early (e.g. `| head`) does not change the exit
code.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import canonical as canon
from . import realization as real
from . import sim
from .model import (
    DistortionPair,
    GaussianPairSource,
    SourceValidationError,
    load_source,
)
from .solver import GAP_TOL, FeasibilityError, SolveBranch, SolveReport, solve

LN2 = math.log(2.0)

# Below this many samples the three-sigma distortion allowance exceeds 50%,
# so the statistical checks carry no information and are skipped.
def _min_samples(src: GaussianPairSource) -> int:
    return 72 * max(src.p1, src.p2)


def _unit_scale(unit: str) -> float:
    return 1.0 / LN2 if unit == "bits" else 1.0


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe (e.g. `| head`).  Point stdout at
            # devnull so the interpreter's flush at exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _kkt_dict(report: SolveReport) -> dict | None:
    cert = report.certificate
    if cert is None:
        return None
    return {
        "lambda1": cert.lambda1,
        "lambda2": cert.lambda2,
        "theta": cert.theta.tolist(),
        "stationarity_residual": cert.stationarity_residual,
        "slackness_residuals": list(cert.slackness_residuals),
        "dual_feasible": cert.dual_feasible,
    }


def _solve_dict(report: SolveReport, d: DistortionPair, unit: str) -> dict:
    scale = _unit_scale(unit)
    return {
        "d1": d.d1,
        "d2": d.d2,
        "unit": unit,
        "rate": report.rate_nats * scale,
        "branch": report.branch.value,
        "in_region_d": report.in_region_d,
        "gray_bound": report.gray_bound_nats * scale,
        "sigma": report.sigma.sigma.tolist(),
        "kkt": _kkt_dict(report),
        "iterations": report.iterations,
        "wall_time_s": report.wall_time,
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


class _Infeasible(Exception):
    """A zero budget against positive variance; main exits 3."""


def _solve(
    src: GaussianPairSource, args: argparse.Namespace
) -> tuple[DistortionPair, SolveReport]:
    """Solve at (args.d1, args.d2), raising _Infeasible on the Infeasible branch."""
    d = DistortionPair(args.d1, args.d2)
    report = solve(src, d, gap_tol=args.tol_gap)
    if report.branch is SolveBranch.INFEASIBLE:
        raise _Infeasible
    return d, report


def _row(d: DistortionPair, report: SolveReport) -> dict:
    """One CSV or sweep-JSON row, rates in nats."""
    return {"d1": d.d1, "d2": d.d2, "rate": report.rate_nats, "branch": report.branch.value,
            "gray_bound": report.gray_bound_nats, "in_region_d": report.in_region_d}


def _scaled(row: dict, scale: float) -> dict:
    return {**row, "rate": row["rate"] * scale, "gray_bound": row["gray_bound"] * scale}


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else _fmt(value)


def _csv(rows: list[dict], scale: float) -> str:
    lines = [",".join(rows[0])]
    lines += [",".join(map(_cell, _scaled(r, scale).values())) for r in rows]
    return "\n".join(lines)


def _cmd_solve(src: GaussianPairSource, args: argparse.Namespace) -> int:
    d, report = _solve(src, args)
    if args.output == "csv":
        _emit(_csv([_row(d, report)], _unit_scale(args.unit)), args.out)
    else:
        _emit(json.dumps(_solve_dict(report, d, args.unit), indent=2), args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> tuple[np.ndarray, np.ndarray]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"grid must look like 'a:b:k,c:d:m', got {text!r}")
    axes = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"grid axis must be 'min:max:steps', got {part!r}")
        lo, hi = float(fields[0]), float(fields[1])
        steps = int(fields[2])
        if not (0.0 < lo <= hi < math.inf and steps >= 1):
            raise ValueError(
                f"grid bounds must be finite, positive and increasing with steps >= 1, "
                f"got {part!r}"
            )
        axes.append(np.linspace(lo, hi, steps))
    return axes[0], axes[1]


def _sweep_point(src: GaussianPairSource, gap_tol: float, d1: float, d2: float) -> dict:
    d = DistortionPair(d1, d2)
    return _row(d, solve(src, d, gap_tol=gap_tol))


def _check_sweep_monotone(
    d1_axis: np.ndarray, d2_axis: np.ndarray, rates: np.ndarray, tol: float = 1e-8
) -> None:
    for axis in (0, 1):
        bad = np.argwhere(np.diff(rates, axis=axis) > tol)
        if bad.size:
            # the rise is into the next point along this axis
            i, j = (int(k) + (a == axis) for a, k in enumerate(bad[0]))
            raise RuntimeError(
                f"sweep rates are not non-increasing near (d1={d1_axis[i]:.6g}, "
                f"d2={d2_axis[j]:.6g})"
            )


def _cmd_sweep(src: GaussianPairSource, args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        d1_axis, d2_axis = _parse_grid(args.grid)
    except ValueError as exc:
        print(f"invalid grid: {exc}", file=sys.stderr)
        return 2
    points = [(float(a), float(b)) for a in d1_axis for b in d2_axis]
    d1s, d2s = zip(*points)
    point = functools.partial(_sweep_point, src, args.tol_gap)
    rows: list[dict] = []
    try:
        if args.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                for row in pool.map(point, d1s, d2s):
                    rows.append(row)
        else:
            for row in map(point, d1s, d2s):
                rows.append(row)
    except ValueError:  # invalid input such as a bad --tol-gap: main exits 2, as for solve
        raise
    except Exception as exc:  # results arrive in order, so len(rows) names the point
        at = points[min(len(rows), len(points) - 1)]
        print(f"sweep failed at grid point (d1={at[0]:.6g}, d2={at[1]:.6g}): {exc}",
              file=sys.stderr)
        return 1

    rates = np.array([row["rate"] for row in rows]).reshape(len(d1_axis), len(d2_axis))
    try:
        _check_sweep_monotone(d1_axis, d2_axis, rates)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    scale = _unit_scale(args.unit)
    if args.output == "json":
        _emit(json.dumps([_scaled(r, scale) for r in rows], indent=2), args.out)
    else:
        _emit(_csv(rows, scale), args.out)
    return 0


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def _cmd_realize(src: GaussianPairSource, args: argparse.Namespace) -> int:
    d, report = _solve(src, args)
    try:
        r = real.realize(src, report.sigma)
    except FeasibilityError as exc:
        print(f"structural failure: realization rejected: {exc}", file=sys.stderr)
        return 4
    c1 = real.verify_condition1(r)
    implied = real.implied_error_covariance(r)
    rep_err = float(np.linalg.norm(implied - report.sigma.sigma, "fro")) / src.q_norm
    passed = c1.passed and rep_err <= real.CHECK_TOL
    obj = {
        "H": r.h.tolist(),
        "Qv": r.qv.tolist(),
        "checks": {
            "condition1_deviation": c1.deviation,
            "condition1_rank": c1.rank,
            "full_rank": c1.full_rank,
            "reproduction_error": rep_err,
            "tolerance": real.CHECK_TOL,
            "passed": passed,
        },
        "solve": _solve_dict(report, d, args.unit),
    }
    _emit(json.dumps(obj, indent=2), args.out)
    if not passed:
        print("structural failure: realization checks exceeded tolerance", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(src: GaussianPairSource, args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    d, report = _solve(src, args)
    n_min = _min_samples(src)
    if args.samples < n_min:
        obj = {
            "samples": args.samples,
            "seed": args.seed,
            "generator": sim.GENERATOR,
            "warning": "insufficient samples",
            "minimum_samples": n_min,
            "checks_skipped": True,
        }
        _emit(json.dumps(obj, indent=2), args.out)
        return 0
    seeds = np.random.SeedSequence(args.seed).generate_state(3, np.uint64)
    r = real.realize(src, report.sigma)
    batch = sim.sample_source(src, args.samples, int(seeds[0]))
    batch = sim.push_channel(batch, r, int(seeds[1]))
    dist = sim.check_distortion(batch, d)
    eye = np.eye(src.n)
    alt_rng = np.random.Generator(np.random.Philox(int(seeds[2])))
    alternatives = [0.9 * eye, 1.1 * eye, alt_rng.standard_normal((src.n, src.n))]
    cm = sim.check_cm_optimality(batch, r, alternatives)
    passed = dist.passed and cm.passed
    obj = {
        "samples": args.samples,
        "seed": args.seed,
        "generator": sim.GENERATOR,
        "distortion": {
            "empirical_d1": dist.empirical_d1,
            "empirical_d2": dist.empirical_d2,
            "bound_d1": dist.bound_d1,
            "bound_d2": dist.bound_d2,
            "passed": dist.passed,
        },
        "cm_optimality": {
            "base_mse": list(cm.base_mse),
            "margins": [
                {"margin": list(mm), "slack": list(ss)} for mm, ss in cm.margins
            ],
            "passed": cm.passed,
        },
        "passed": passed,
        "solve": _solve_dict(report, d, args.unit),
    }
    _emit(json.dumps(obj, indent=2), args.out)
    if not passed:
        print("statistical check failed", file=sys.stderr)
        return 5
    return 0


# ---------------------------------------------------------------------------
# canonical
# ---------------------------------------------------------------------------


def _cmd_canonical(src: GaussianPairSource, args: argparse.Namespace) -> int:
    form = canon.to_canonical_form(src)
    obj = {
        "p1": form.p1,
        "p2": form.p2,
        "S1": form.s1.tolist(),
        "S2": form.s2.tolist(),
        "d1_vals": form.d1_vals.tolist(),
        "d2_vals": form.d2_vals.tolist(),
        "d4_vals": form.d4_vals.tolist(),
        "partition": dataclasses.asdict(form.partition),
        "det_identity_residual": canon.det_identity_residual(src, form),
    }
    _emit(json.dumps(obj, indent=2), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("source", help="path to source JSON {p1, p2, Q}")
    sp.add_argument("-o", "--out", default=None, help="write output to file instead of stdout")


def _add_solve_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--unit", choices=("nats", "bits"), default="nats")
    sp.add_argument("--tol-gap", type=float, default=GAP_TOL,
                    help="duality-gap tolerance in nats of the dual solver (default 1e-9)")


def _add_distortions(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--d1", type=float, required=True, help="distortion budget of block 1")
    sp.add_argument("--d2", type=float, required=True, help="distortion budget of block 2")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointrdf",
        description="Joint rate-distortion analysis of a correlated Gaussian source pair",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="compute the rate and optimal error covariance")
    _add_common(sp)
    _add_solve_options(sp)
    _add_distortions(sp)
    sp.add_argument("--output", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_solve)

    sp = sub.add_parser("sweep", help="solve a distortion grid and emit surface data")
    _add_common(sp)
    _add_solve_options(sp)
    sp.add_argument("--grid", required=True,
                    help="grid axes d1_min:d1_max:steps,d2_min:d2_max:steps")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes for grid points")
    sp.add_argument("--output", choices=("json", "csv"), default="csv")
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("realize", help="synthesize and structurally verify a channel")
    _add_common(sp)
    _add_solve_options(sp)
    _add_distortions(sp)
    sp.set_defaults(handler=_cmd_realize)

    sp = sub.add_parser("verify", help="Monte-Carlo validation of a solved instance")
    _add_common(sp)
    _add_solve_options(sp)
    _add_distortions(sp)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("canonical", help="emit the canonical variable form")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_canonical)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        src = load_source(args.source)
    except (OSError, SourceValidationError) as exc:
        print(f"invalid source: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(src, args)
    except _Infeasible:
        print(
            "infeasible: rate is infinite (zero distortion budget against "
            "positive source variance)",
            file=sys.stderr,
        )
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the source was read above; what is left is writing the output
        print(f"invalid output path: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
