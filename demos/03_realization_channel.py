"""Synthesize the test channel xhat = H x + v attaining a solved optimum.

The channel's defining property is that the reproduction equals the
conditional mean of the source given itself: cov(X, Xhat) composed with the
pseudoinverse of cov(Xhat, Xhat) is the identity (or, when the budgets push
Q - sigma onto the PSD boundary, the projector onto the reachable range).
A deliberately rescaled channel shows the property failing.
"""

import numpy as np

from jointrdf import (
    DistortionPair,
    conditional_mean_map,
    implied_error_covariance,
    realize,
    solve,
    validate_source,
    verify_condition1,
)
from jointrdf import TestChannelRealization

Q = np.array(
    [
        [3.929, -0.11, 0.642, 0.976],
        [-0.11, 2.629, -0.859, 0.337],
        [0.642, -0.859, 2.142, 1.797],
        [0.976, 0.337, 1.797, 3.495],
    ]
)
src = validate_source(Q, 2, 2)

for budgets in [(0.4, 0.5), (1.65, 1.85)]:
    report = solve(src, DistortionPair(*budgets))
    r = realize(src, report.sigma)
    check = verify_condition1(r)
    print(f"budgets {budgets}:")
    print(f"  rank of cov(Xhat, Xhat): {check.rank} (full rank: {check.rank == r.source.n})")
    print(f"  conditional-mean deviation: {check.deviation:.2e} -> "
          f"{'pass' if check.passed else 'FAIL'}")
    rep_err = np.linalg.norm(implied_error_covariance(r) - report.sigma.sigma)
    print(f"  error-covariance reproduction: {rep_err:.2e}")
    print(f"  noise covariance min eigenvalue: {np.linalg.eigvalsh(r.qv)[0]:.2e}")

# a channel that doubles the source carries the same information but is not
# a conditional-mean reproduction: the map collapses to 0.5 I
doubled = TestChannelRealization(h=2.0 * np.eye(4), qv=np.zeros((4, 4)), source=src)
m = conditional_mean_map(doubled)
print("\nscaled channel xhat = 2x:")
print("  conditional-mean map diag:", np.diag(m))
print("  structural check passes:", verify_condition1(doubled).passed)
