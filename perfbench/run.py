"""Benchmark of jointrdf: one workload per run, closed loop, one caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload surface --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; jointrdf is imported
from ``src/`` of the tree that holds this script.  After set-up and a warm-up,
the workload's points are run in passes until ``--seconds`` have elapsed, and
every point's outputs are checked outside the timed pipeline.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced passes, prints per-layer metrics taken from the spans of the
traced passes, reports the tracing overhead against the untraced passes, and
times each CLI subcommand in a cold interpreter.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Details
(sample counts, environment, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_RUNS = 5
MIN_PASSES = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SWEEP_GRID = "0.1:3:10,0.1:3:10"
# Fields of the per-point timing rows kept for every pass.
TOTAL, SOLVE, SIM = 0, 1, 2


def _import_program():
    """Import jointrdf from this tree's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "jointrdf", "__init__.py")):
        sys.exit(f"perfbench: no jointrdf package under {SRC}")
    sys.path.insert(0, SRC)
    import jointrdf

    if not os.path.abspath(jointrdf.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported jointrdf from {jointrdf.__file__}, not from {SRC}")
    return jointrdf


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def measure_setup(source_paths: list[str]) -> list[float]:
    """Wall time of fresh interpreters that import jointrdf and load the sources."""
    code = "import sys, jointrdf\nfor p in sys.argv[1:]: jointrdf.load_source(p)"
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *source_paths], cwd=ROOT,
                       env=_child_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def time_cli(source: str, seed: int) -> tuple[dict[str, float], list[str]]:
    """Run each CLI subcommand once in a cold interpreter; check its output."""
    budgets = ["--d1", "1.65", "--d2", "1.85"]
    runs = {
        "solve": ["solve", source, *budgets],
        "sweep": ["sweep", source, "--grid", SWEEP_GRID, "--jobs", "1"],
        "sweep_jobs2": ["sweep", source, "--grid", SWEEP_GRID, "--jobs", "2"],
        "realize": ["realize", source, *budgets],
        "verify": ["verify", source, "--d1", "0.4", "--d2", "0.5",
                   "--samples", "1000000", "--seed", str(seed)],
        "canonical": ["canonical", source],
    }
    walls, outputs, fails = {}, {}, []
    for name, argv in runs.items():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "jointrdf.cli", *argv], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True)
        walls[name] = time.perf_counter() - start
        outputs[name] = proc.stdout
        if proc.returncode != 0:
            fails.append(f"cli {name} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    if outputs["sweep"] != outputs["sweep_jobs2"]:
        fails.append("cli sweep output differs between --jobs 1 and --jobs 2")
    if len(outputs["sweep"].splitlines()) != 101:
        fails.append("cli sweep did not print 100 rows")
    for name in ("realize", "verify"):
        try:
            obj = json.loads(outputs[name])
        except json.JSONDecodeError:
            fails.append(f"cli {name} printed no JSON")
            continue
        passed = obj["checks"]["passed"] if name == "realize" else obj["passed"]
        if not passed:
            fails.append(f"cli {name} reports failed checks")
    return walls, fails


def per_point_medians(passes: list[list], field: int) -> list[float]:
    """Median of one timing field per point across passes; failed runs are left out."""
    medians = []
    for runs in zip(*passes):
        values = [row[field] for row in runs if row is not None]
        if values:
            medians.append(statistics.median(values))
    return medians


def run_passes(wl, tracer, seconds: float, trace: bool):
    """Run passes over the workload's points until ``seconds`` have elapsed.

    Only timing rows are kept for every pass, so memory does not grow with
    the number of passes; the first pass's outcomes are kept whole.
    """
    passes, traced_flags, failures, first = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        tracer.enabled = traced
        pass_start = time.perf_counter()
        outcomes = []
        for point in wl.points:
            pid = f"{len(passes)}:{point.id}"
            attempted += 1
            try:
                with tracer.span("point", pid):
                    out = wl.run(point, tracer)
                with tracer.span("bench.check", pid):
                    msgs = wl.check(point, out, tracer)
            except Exception:  # a crashing point is a failed operation; keep measuring
                msgs = [traceback.format_exc(limit=3)]
                out = None
            if msgs:
                failures.append((pid, msgs))
            outcomes.append(out)
        tracer.enabled = False
        if wl.check_pass is not None and all(o is not None for o in outcomes):
            attempted += 1
            msgs = wl.check_pass(outcomes)
            if msgs:
                failures.append((f"{len(passes)}:pass", msgs))
        if not passes:
            first = outcomes
        passes.append([None if o is None else (o.total_s, o.solve_s, o.sim_s) for o in outcomes])
        traced_flags.append(traced)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + 0.5 * (now - pass_start) > seconds:
            break
    return passes, traced_flags, first, attempted, failures, time.perf_counter() - start


def end_to_end(passes, first, setup_times):
    """End-to-end metrics, and the rows that are printed but not in the JSON."""
    total = per_point_medians(passes, TOTAL)
    solve_ms = [1e3 * s for s in per_point_medians(passes, SOLVE)]
    n = len(total)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "points_per_s": (n / sum(total), "1/s", n),
        "solve_p50_ms": (float(np.percentile(solve_ms, 50)), "ms", n),
        "solve_p90_ms": (float(np.percentile(solve_ms, 90)), "ms", n),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    printed = {}
    samples = sum(o.samples for o in first if o is not None)
    if samples:
        printed["samples_per_s"] = (samples / sum(per_point_medians(passes, SIM)), "1/s", n)
    return metrics, printed


def per_layer(passes, traced_flags, first, tracer, warmup_s, cli_walls):
    metrics = {k: (v, unit, None) for k, (v, unit) in tracing.layer_metrics(tracer.spans).items()}
    first = [o for o in first if o is not None]
    metrics["solver.newton_steps"] = (sum(o.report.iterations for o in first), "count", None)
    metrics["sim.bytes_computed"] = (sum(o.bytes_computed for o in first), "bytes", None)
    samples = sum(o.samples for o in first)
    sim_s = sum(per_point_medians(passes, SIM))
    metrics["sim.samples_per_s"] = (samples / sim_s if samples else 0.0, "1/s", None)
    for name, wall in cli_walls.items():
        metrics[f"cli.{name}.wall_s"] = (wall, "s", None)
    metrics["bench.warmup_s"] = (warmup_s, "s", None)
    traced = sum(per_point_medians([p for p, t in zip(passes, traced_flags) if t], TOTAL))
    plain = sum(per_point_medians([p for p, t in zip(passes, traced_flags) if not t], TOTAL))
    metrics["bench.trace_overhead_share"] = (traced / plain - 1.0, "share", None)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("surface", "scaling", "monte_carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    env = environment(args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer()
    os.makedirs(OUT, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        paths = []
        for k, doc in enumerate(wl.source_docs):
            paths.append(os.path.join(tmp, f"source{k}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        setup_times = measure_setup(paths)

    warm_start = time.perf_counter()
    try:
        for point in wl.points[: wl.warmup]:
            wl.run(point, tracer)
    except Exception:  # the same point fails again, and is counted, in the first pass
        traceback.print_exc()
    warmup_s = time.perf_counter() - warm_start

    passes, traced_flags, first, attempted, failures, elapsed = run_passes(
        wl, tracer, args.seconds, bool(args.trace))
    if not any(row is not None for p in passes for row in p):
        sys.exit("perfbench: no point completed, nothing to report")

    printed = {"setup_s": (statistics.median(setup_times), "s", len(setup_times))}
    if args.trace:
        seed = int(np.random.SeedSequence([args.seed, 4]).generate_state(1)[0])
        cli_walls, cli_fails = time_cli(os.path.relpath(workloads.EXAMPLE_SOURCE, ROOT), seed)
        attempted += len(cli_walls)
        failures.extend(("cli", [msg]) for msg in cli_fails)
        metrics = per_layer(passes, traced_flags, first, tracer, warmup_s, cli_walls)
    else:
        metrics, printed = end_to_end(passes, first, setup_times)
    failed = len(failures)

    branches: dict[str, int] = {}
    for out in first:
        if out is not None:
            key = out.report.branch.value
            branches[key] = branches.get(key, 0) + 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes over {len(wl.points)} points in {elapsed:.2f} s, "
          f"warm-up {warmup_s:.3f} s")
    print("branches " + " ".join(f"{k}={v}" for k, v in sorted(branches.items())))
    for name, (value, unit, count) in {**metrics, **printed}.items():
        note = f"  (n={count})" if count is not None else ""
        print(f"{name:40s} {value:>16.6g} {unit}{note}")
    print(f"{'failed_share':40s} {failed / attempted:>16.6g} share  "
          f"({failed} of {attempted} operations)")
    for pid, msgs in failures[:10]:
        print(f"FAILED {pid}: {'; '.join(msgs)}", file=sys.stderr)
    print("env " + json.dumps(env))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "points": len(wl.points),
        "branches": branches,
        "env": env,
        "metrics": {k: {"value": v, "unit": u, "samples": c}
                    for k, (v, u, c) in {**metrics, **printed}.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
    }
    if args.trace:
        record["spans"] = tracer.spans
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
