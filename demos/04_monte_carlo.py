"""Monte-Carlo validation of a solved instance.

A million source draws go through the optimal channel; the empirical block
distortions land on the budgets, the residual covariance converges to the
optimizer sigma, and no linear estimator beats the conditional-mean
reproduction in mean squared error.
"""

import numpy as np

from jointrdf import (
    DistortionPair,
    check_cm_optimality,
    check_distortion,
    empirical_error_covariance,
    push_channel,
    realize,
    sample_source,
    sim,
    solve,
    validate_source,
)

Q = np.array(
    [
        [3.929, -0.11, 0.642, 0.976],
        [-0.11, 2.629, -0.859, 0.337],
        [0.642, -0.859, 2.142, 1.797],
        [0.976, 0.337, 1.797, 3.495],
    ]
)
src = validate_source(Q, 2, 2)
d = DistortionPair(0.4, 0.5)

report = solve(src, d)
channel = realize(src, report.sigma)

n = 1_000_000
batch = sample_source(src, n, seed=101)
batch = push_channel(batch, channel, seed=102)

dist = check_distortion(batch, d)
print(f"samples: {n} (generator {sim.GENERATOR})")
print(f"empirical distortions: {dist.empirical_d1:.5f}, {dist.empirical_d2:.5f} "
      f"vs budgets {d.d1}, {d.d2} -> {'pass' if dist.passed else 'FAIL'}")

emp = empirical_error_covariance(batch)
gap = np.linalg.norm(emp - report.sigma.sigma, "fro")
print(f"residual covariance error |emp - sigma|_F = {gap:.5f}")

rng = np.random.default_rng(103)
alternatives = [0.9 * np.eye(4), 1.1 * np.eye(4), rng.standard_normal((4, 4))]
labels = ["0.9 I", "1.1 I", "random map"]
cm = check_cm_optimality(batch, channel, alternatives)
print(f"\nconditional-mean MSE per block: {cm.base_mse[0]:.5f}, {cm.base_mse[1]:.5f}")
for label, ((m1, m2), (s1, s2)) in zip(labels, cm.margins):
    print(f"  vs {label:10s}: excess MSE ({m1:+.5f}, {m2:+.5f}) "
          f"with slack ({s1:.5f}, {s2:.5f})")
print("dominance holds:", cm.passed)
