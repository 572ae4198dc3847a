"""The CLI outputs and stress-draw rates still match tests/golden.json.

tests/make_golden.py writes that file and computes the outputs compared
here.  Discrete fields (branch, rank, partition, exit code, evaluation
counts, verdicts) must match exactly; the tolerances below cover what a
different BLAS build may change in the last bits.
"""

import json

import pytest

from jointrdf import load_source
from make_golden import GOLDEN, SOURCE, collect

# Rates and other scalars, relative to the recorded value.
RTOL = 1e-12
# Matrix entries, relative to ||Q||_2 of the source.
MATRIX_RTOL = 1e-12
# Fields that are round-off sized by construction, absolute.
ROUNDOFF_ATOL = 1e-12

MATRIX_FIELDS = {"sigma", "theta", "H", "Qv", "S1", "S2"}
ROUNDOFF_FIELDS = {"stationarity_residual", "slackness_residuals", "condition1_deviation",
                   "reproduction_error", "det_identity_residual"}

WANT = json.loads(GOLDEN.read_text(encoding="utf-8"))
Q_NORM = load_source(SOURCE).q_norm


@pytest.fixture(scope="module")
def got():
    return collect()


def _allowed(field: str, want: float) -> float:
    if field in ROUNDOFF_FIELDS:
        return ROUNDOFF_ATOL
    if field in MATRIX_FIELDS:
        return MATRIX_RTOL * Q_NORM
    return RTOL * abs(want)


def _mismatches(got, want, field="", path=""):
    """(path, got, want) for every float of got off want by more than its
    field's tolerance, and every other value that differs at all; list items
    take the tolerance of the field that holds them."""
    if isinstance(want, dict):
        if got.keys() != want.keys():
            yield path, sorted(got), sorted(want)
            return
        for key in want:
            yield from _mismatches(got[key], want[key], key, f"{path}/{key}")
    elif isinstance(want, list):
        if len(got) != len(want):
            yield path, len(got), len(want)
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(g, w, field, f"{path}[{i}]")
    elif isinstance(want, float):
        if not (isinstance(got, float) and abs(got - want) <= _allowed(field, want)):
            yield path, got, want
    elif type(got) is not type(want) or got != want:
        yield path, got, want


@pytest.mark.parametrize("entry", sorted(WANT))
def test_matches_golden(got, entry):
    assert list(_mismatches(got[entry], WANT[entry])) == []
