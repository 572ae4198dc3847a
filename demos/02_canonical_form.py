"""Canonical variable form: whiten both blocks, expose canonical correlations.

After the transform the marginal blocks are identities and the cross block
is diagonal with entries in (0, 1).  The determinant identity that follows
lets the joint rate be written as a product of scalar canonical quantities,
checked here against the direct determinant evaluation.
"""

import numpy as np

from jointrdf import (
    DistortionPair,
    cvf_objective,
    det_identity_residual,
    mutual_information,
    rate_of,
    solve,
    to_canonical_form,
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
form = to_canonical_form(src)

print("index partition (p12, p13, p22, p23):", form.partition)
print("canonical correlations:", form.d4_vals)
print("marginal eigenvalues   :", form.d1_vals, form.d2_vals)

# the transforms whiten each block and diagonalize the cross block
w1 = form.s1 @ src.q11 @ form.s1.T
cross = form.s1 @ src.q12 @ form.s2.T
print("\n|S1 Q11 S1' - I |_max =", np.abs(w1 - np.eye(2)).max())
print("|S1 Q12 S2' - D3|_max =", np.abs(cross - form.d3).max())

# det(Q) = det(Q11) det(Q22) prod(1 - d4_i^2)
print("determinant identity residual:", det_identity_residual(src, form))

# mutual information from canonical correlations alone
mi_direct = mutual_information(src)
mi_canonical = -0.5 * np.sum(np.log1p(-form.d4_vals**2))
print(f"mutual information: direct {mi_direct:.12f}, canonical {mi_canonical:.12f}")

# the canonical objective reproduces the rate at a solver optimum
report = solve(src, DistortionPair(1.65, 1.85))
err_form = to_canonical_form(validate_source(report.sigma.sigma, 2, 2))
print(f"\nrate at optimum    : {rate_of(src, report.sigma):.12f} nats")
print(f"canonical objective: {cvf_objective(form, err_form):.12f} nats")
