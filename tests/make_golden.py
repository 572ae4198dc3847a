"""Record the golden outputs that tests/test_golden.py compares against.

Drives jointrdf.cli.main in-process on the bundled source
(perfbench/data/example_source.json) and records, with every wall_time_s
dropped: the 20x20 sweep as JSON rows and the CSV header; solve, realize and
verify (1e5 samples, seed 7) at both bundled budgets; canonical; and the rate
and evaluation count of each TestDualStress draw.  Every command's exit code
is kept beside its output.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

It rewrites tests/golden.json.  Regenerate only for a change that is meant
to move outputs, and list every changed entry with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from jointrdf import solve
from jointrdf.cli import main
from test_solver import TestDualStress

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden.json"
SOURCE = str(TESTS.parent / "perfbench" / "data" / "example_source.json")
GRID = "0.1:7.5:20,0.1:7:20"
BUDGETS = ((0.4, 0.5), (1.65, 1.85))
SAMPLES = ("--samples", "100000", "--seed", "7")


def _drop_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_time(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_drop_wall_time(v) for v in obj]
    return obj


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv])
    return code, out.getvalue()


def _command(*argv: str) -> dict:
    code, out = _run(*argv)
    return {"exit_code": code, "output": _drop_wall_time(json.loads(out))}


def collect() -> dict:
    """Every golden output, as written to golden.json."""
    code, csv = _run("sweep", SOURCE, "--grid", GRID)
    golden = {
        "sweep_csv_header": {"exit_code": code, "header": csv.splitlines()[0]},
        "sweep": _command("sweep", SOURCE, "--grid", GRID, "--output", "json"),
        "canonical": _command("canonical", SOURCE),
    }
    for d1, d2 in BUDGETS:
        budgets = ("--d1", repr(d1), "--d2", repr(d2))
        for name, extra in (("solve", ()), ("realize", ()), ("verify", SAMPLES)):
            golden[f"{name} {d1} {d2}"] = _command(name, SOURCE, *budgets, *extra)
    draws = [*TestDualStress._forced_draws(), *TestDualStress._large_scale_draws()]
    reports = [solve(src, d) for src, d in draws]
    golden["stress"] = [{"rate": r.rate_nats, "evaluations": r.iterations} for r in reports]
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
