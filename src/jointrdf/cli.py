"""Command-line front end.

Subcommands: solve a single instance (JSON), sweep a distortion grid to CSV
or JSON (a one-point grid gives the CSV row of a single solve), synthesize
and structurally verify a channel realization, run Monte-Carlo validation,
and emit the canonical variable form.  Sources are JSON documents
{"p1": int, "p2": int, "Q": [[...]]} with Q row-major.

Handlers raise; only :func:`main` writes a failure to stderr, as one line,
and picks the exit code (argparse prints its own usage error and exits 2).
Exit codes, each with its stderr prefix:

- 0 success;
- 1 internal failure: a dual solve whose ratio bracket collapses or that
  reaches its evaluation cap, or an allocation that fails, such as a sample
  count too large for memory (``internal failure:``); a sweep point whose
  solve fails (``sweep failed at grid point``) or a sweep whose rates rise
  (``sweep rates are not non-increasing``);
- 2 invalid input: an unreadable or invalid source (``invalid source:``),
  a bad option value, grid or unrepresentable budget (``invalid input:``)
  or an unwritable -o path (``invalid output path:``);
- 3 infeasible, a zero budget against positive variance (``infeasible:``);
- 4 structural check failure (``structural failure:``);
- 5 statistical check failure (``statistical check failed``).

Exits 4 and 5 print their JSON document first, unless realize refuses the
error covariance outright.  A reader that closes the output pipe early
(e.g. `| head`) does not change the exit code.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
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
    gray_lower_bound,
    load_source,
)
from .solver import FeasibilityError, SolveBranch, SolveReport, solve

LN2 = math.log(2.0)

# A sweep rate may rise by this many nats into the next grid point before
# the surface counts as non-monotone.
MONOTONE_TOL = 1e-8


class _Exit(Exception):
    """Ends a command: main prints the message on one stderr line and exits
    with the code.  Both are in args, so the exception pickles across a pool."""

    def __init__(self, code: int, message: str):
        super().__init__(code, message)
        self.code, self.message = code, message


def _unit_scale(unit: str) -> float:
    return 1.0 / LN2 if unit == "bits" else 1.0


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json(obj) -> str:
    """Indented JSON; numpy arrays and scalars become lists and numbers."""
    return json.dumps(obj, indent=2, default=lambda x: x.tolist())


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


def _solve_dict(src: GaussianPairSource, report: SolveReport, d: DistortionPair, unit: str) -> dict:
    scale = _unit_scale(unit)
    return {
        "d1": d.d1,
        "d2": d.d2,
        "unit": unit,
        "rate": report.rate_nats * scale,
        "branch": report.branch.value,
        "gray_bound": gray_lower_bound(src, d) * scale,
        "sigma": report.sigma.sigma,
        "kkt": dataclasses.asdict(report.certificate),
        "iterations": report.iterations,
        "wall_time_s": report.wall_time,
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve(
    src: GaussianPairSource, args: argparse.Namespace
) -> tuple[DistortionPair, SolveReport]:
    """Solve at (args.d1, args.d2); the Infeasible branch exits 3."""
    d = DistortionPair(args.d1, args.d2)
    report = solve(src, d)
    if report.branch is SolveBranch.INFEASIBLE:
        raise _Exit(3, "infeasible: rate is infinite (zero distortion budget against "
                       "positive source variance)")
    return d, report


def _cmd_solve(src: GaussianPairSource, args: argparse.Namespace) -> None:
    d, report = _solve(src, args)
    _emit(_json(_solve_dict(src, report, d, args.unit)), args.out)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _scaled(row: dict, scale: float) -> dict:
    return {**row, "rate": row["rate"] * scale, "gray_bound": row["gray_bound"] * scale}


def _cell(value) -> str:
    return value if isinstance(value, str) else _fmt(value)


def _csv(rows: list[dict], scale: float) -> str:
    lines = [",".join(rows[0])]
    lines += [",".join(map(_cell, _scaled(r, scale).values())) for r in rows]
    return "\n".join(lines)


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


def _sweep_point(src: GaussianPairSource, d1: float, d2: float) -> dict:
    """One CSV or sweep-JSON row, rates in nats; a failed solve names the point."""
    d = DistortionPair(d1, d2)
    try:
        report = solve(src, d)
    except (RuntimeError, MemoryError) as exc:
        raise _Exit(1, f"sweep failed at grid point (d1={d1:.6g}, d2={d2:.6g}): {exc}") from exc
    return {"d1": d1, "d2": d2, "rate": report.rate_nats, "branch": report.branch.value,
            "gray_bound": gray_lower_bound(src, d)}


def _check_sweep_monotone(d1_axis: np.ndarray, d2_axis: np.ndarray, rates: np.ndarray) -> None:
    for axis in (0, 1):
        bad = np.argwhere(np.diff(rates, axis=axis) > MONOTONE_TOL)
        if bad.size:
            # the rise is into the next point along this axis
            i, j = (int(k) + (a == axis) for a, k in enumerate(bad[0]))
            raise _Exit(1, f"sweep rates are not non-increasing near "
                           f"(d1={d1_axis[i]:.6g}, d2={d2_axis[j]:.6g})")


def _cmd_sweep(src: GaussianPairSource, args: argparse.Namespace) -> None:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    d1_axis, d2_axis = _parse_grid(args.grid)
    d1s, d2s = zip(*((float(a), float(b)) for a in d1_axis for b in d2_axis))
    point = functools.partial(_sweep_point, src)
    with (concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1
          else contextlib.nullcontext()) as pool:
        rows = list((pool.map if pool else map)(point, d1s, d2s))
    rates = np.array([row["rate"] for row in rows]).reshape(len(d1_axis), len(d2_axis))
    _check_sweep_monotone(d1_axis, d2_axis, rates)
    scale = _unit_scale(args.unit)
    if args.output == "json":
        _emit(_json([_scaled(r, scale) for r in rows]), args.out)
    else:
        _emit(_csv(rows, scale), args.out)


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def _realize(src: GaussianPairSource, report: SolveReport) -> real.TestChannelRealization:
    """The channel of the solved Sigma; an error covariance realize refuses exits 4."""
    try:
        return real.realize(src, report.sigma)
    except FeasibilityError as exc:
        raise _Exit(4, f"structural failure: realization rejected: {exc}") from exc


def _cmd_realize(src: GaussianPairSource, args: argparse.Namespace) -> None:
    d, report = _solve(src, args)
    r = _realize(src, report)
    c1 = real.verify_condition1(r)
    implied = real.implied_error_covariance(r)
    rep_err = float(np.linalg.norm(implied - report.sigma.sigma, "fro")) / src.q_norm
    passed = c1.passed and rep_err <= real.CHECK_TOL
    obj = {
        "H": r.h,
        "Qv": r.qv,
        "checks": {
            "condition1_deviation": c1.deviation,
            "condition1_rank": c1.rank,
            "reproduction_error": rep_err,
            "tolerance": real.CHECK_TOL,
            "passed": passed,
        },
        "solve": _solve_dict(src, report, d, args.unit),
    }
    _emit(_json(obj), args.out)
    if not passed:
        raise _Exit(4, "structural failure: realization checks exceeded tolerance")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(src: GaussianPairSource, args: argparse.Namespace) -> None:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    d, report = _solve(src, args)
    n_min = sim.minimum_samples(src)
    if args.samples < n_min:
        obj = {
            "samples": args.samples,
            "seed": args.seed,
            "generator": sim.GENERATOR,
            "warning": "insufficient samples",
            "minimum_samples": n_min,
            "checks_skipped": True,
        }
        _emit(_json(obj), args.out)
        return
    seeds = np.random.SeedSequence(args.seed).generate_state(3, np.uint64)
    r = _realize(src, report)
    batch = sim.sample_source(src, args.samples, int(seeds[0]))
    batch = sim.push_channel(batch, r, int(seeds[1]))
    dist = sim.check_distortion(batch, d)
    eye = np.eye(src.n)
    random_map = sim.stream(int(seeds[2])).standard_normal((src.n, src.n))
    alternatives = [0.9 * eye, 1.1 * eye, random_map]
    cm = sim.check_cm_optimality(batch, r, alternatives)
    passed = dist.passed and cm.passed
    obj = {
        "samples": args.samples,
        "seed": args.seed,
        "generator": sim.GENERATOR,
        "distortion": dataclasses.asdict(dist),
        "cm_optimality": {
            "base_mse": cm.base_mse,
            "margins": [{"margin": mm, "slack": ss} for mm, ss in cm.margins],
            "passed": cm.passed,
        },
        "passed": passed,
        "solve": _solve_dict(src, report, d, args.unit),
    }
    _emit(_json(obj), args.out)
    if not passed:
        raise _Exit(5, "statistical check failed")


# ---------------------------------------------------------------------------
# canonical
# ---------------------------------------------------------------------------


def _cmd_canonical(src: GaussianPairSource, args: argparse.Namespace) -> None:
    form = canon.to_canonical_form(src)
    obj = {
        "p1": form.p1,
        "p2": form.p2,
        "S1": form.s1,
        "S2": form.s2,
        "d1_vals": form.d1_vals,
        "d2_vals": form.d2_vals,
        "d4_vals": form.d4_vals,
        "partition": dict(zip(("p12", "p13", "p22", "p23"), form.partition)),
        "det_identity_residual": canon.det_identity_residual(src, form),
    }
    _emit(_json(obj), args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("source", help="path to source JSON {p1, p2, Q}")
    sp.add_argument("-o", "--out", default=None, help="write output to file instead of stdout")


def _add_solve_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--unit", choices=("nats", "bits"), default="nats")


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


def _load(path: str) -> GaussianPairSource:
    try:
        return load_source(path)
    except (OSError, SourceValidationError) as exc:
        raise _Exit(2, f"invalid source: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(_load(args.source), args)
        return 0
    except _Exit as exc:
        code, message = exc.code, exc.message
    except ValueError as exc:
        code, message = 2, f"invalid input: {exc}"
    except OSError as exc:  # the source is read by _load; what is left is writing the output
        code, message = 2, f"invalid output path: {exc}"
    except (RuntimeError, MemoryError) as exc:
        code, message = 1, f"internal failure: {exc}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
