"""The exact error identity behind the reconstruction bound.

For any kernel vector z the squared reconstruction error splits into
three mutually orthogonal pieces:

    ||u - u~(z)||^2 = ||u - u^||^2 + ||D(u - u^)||^2 + ||z^ - z||^2

(out-of-range truncation, its obliquely mapped image, kernel mismatch).
The bound prefactor * E_m(u) + ||z - z^|| follows. This script checks the
identity on random instances and shows how the bound tightens as z
approaches the optimal kernel vector.
"""

import numpy as np

from sdeim import (
    BasisMatrix,
    SensorSelection,
    build_deim_core,
    error_report,
    optimal_kernel,
)

rng = np.random.default_rng(3)

worst = 0.0
for _ in range(200):
    q, _ = np.linalg.qr(rng.normal(size=(12, 7)))
    basis = BasisMatrix(q)
    sel = SensorSelection(12, np.sort(rng.choice(12, size=3, replace=False)))
    core = build_deim_core(basis, sel)
    u = rng.normal(size=12)
    rep = error_report(core, u, rng.normal(size=core.kernel_dim))
    lhs = rep.total_sq
    rhs = rep.trunc_sq + rep.oblique_sq + rep.kernel_sq
    worst = max(worst, abs(lhs - rhs) / lhs)
print(f"identity residual over 200 random instances: worst {worst:.2e}")

# bound tightening as z -> optimal
q, _ = np.linalg.qr(rng.normal(size=(12, 7)))
basis = BasisMatrix(q)
sel = SensorSelection(12, np.array([2, 5, 9]))
core = build_deim_core(basis, sel)
u = rng.normal(size=12)
xi_hat = optimal_kernel(core, u)
xi_rand = rng.normal(size=core.kernel_dim)

print("\nblending an arbitrary kernel vector toward the optimal one:")
print(f"{'blend':>6} {'actual error':>13} {'upper bound':>12}")
for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
    rep = error_report(core, u, (1 - lam) * xi_rand + lam * xi_hat)
    print(f"{lam:6.2f} {np.sqrt(rep.total_sq):13.4f} {rep.upper_bound:12.4f}")
print("at blend 1.0 only the truncation terms remain")
