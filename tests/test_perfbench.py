"""One pass of each benchmark workload runs clean through its own checks.

The benchmark under perfbench/ drives jointrdf's public API and checks every
output; running one pass here makes an API or branch-label change that would
break it fail the test suite first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_has_no_failed_check(name):
    wl = workloads.WORKLOADS[name](1)
    tracer = tracing.Tracer()
    assert not tracer.enabled
    outcomes = []
    for point in wl.points:
        out = wl.run(point, tracer)
        assert wl.check(point, out, tracer) == [], point.id
        outcomes.append(out)
    if wl.check_pass is not None:
        assert wl.check_pass(outcomes) == []
