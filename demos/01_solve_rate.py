"""Solve the joint rate-distortion problem for a 2+2 Gaussian source pair.

Two budget pairs on the same source show both solver regimes: small budgets
land in the closed-form region where each budget spreads evenly over its
block, while large budgets push the error covariance against the PSD
boundary and require the interior-point branch.
"""

import numpy as np

from jointrdf import DistortionPair, SolveBranch, gray_lower_bound, solve, validate_source

Q = np.array(
    [
        [3.929, -0.11, 0.642, 0.976],
        [-0.11, 2.629, -0.859, 0.337],
        [0.642, -0.859, 2.142, 1.797],
        [0.976, 0.337, 1.797, 3.495],
    ]
)
src = validate_source(Q, p1=2, p2=2)
print(f"source: p1={src.p1}, p2={src.p2}, ||Q||_2 = {src.q_norm:.3f}")
print(f"block traces: {np.trace(src.q11):.3f}, {np.trace(src.q22):.3f}")

for budgets in [(0.4, 0.5), (1.65, 1.85)]:
    d = DistortionPair(*budgets)
    report = solve(src, d)
    print(f"\nbudgets (d1, d2) = {budgets}")
    print(f"  branch        : {report.branch.value}")
    print(f"  rate          : {report.rate_nats:.6f} nats "
          f"({report.rate_nats / np.log(2):.6f} bits)")
    print(f"  lower bound   : {gray_lower_bound(src, d):.6f} nats "
          f"(tight iff inside region: "
          f"{report.branch is SolveBranch.CLOSED_FORM_INTERIOR_D})")
    print(f"  trace(sigma11): {np.trace(report.sigma.sigma[:src.p1, :src.p1]):.6f}")
    print(f"  trace(sigma22): {np.trace(report.sigma.sigma[src.p1:, src.p1:]):.6f}")
    with np.printoptions(precision=4, suppress=True):
        print("  optimal error covariance:")
        for line in str(report.sigma.sigma).splitlines():
            print("   ", line.strip("[ ").rstrip("]"))
    cert = report.certificate
    print(f"  multipliers   : lambda1={cert.lambda1:.6f}, lambda2={cert.lambda2:.6f}")
    print(f"  KKT residuals : stationarity={cert.stationarity_residual:.2e}, "
          f"max slackness={max(abs(r) for r in cert.slackness_residuals):.2e}")
