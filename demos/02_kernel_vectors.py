"""Why the kernel vector matters when sensors are scarcer than modes.

With n < m the sampled basis has a null space: infinitely many coefficient
vectors reproduce the same observations. The minimum-norm choice (plain
interpolation) can be far from the truth even when the truth lies exactly
in the basis range; the optimal kernel vector closes that gap completely.
Withholding some sensors to fit the kernel vector buys nothing: the
two-stage estimate collapses back to plain interpolation on all sensors.
"""

import numpy as np

from sdeim import (
    BasisMatrix,
    SensorSelection,
    build_deim_core,
    error_report,
    observe,
    optimal_kernel,
    sdeim,
    two_stage_sdeim,
    vanilla_deim,
)

rng = np.random.default_rng(7)
n_state, m, n = 24, 8, 3

q, _ = np.linalg.qr(rng.normal(size=(n_state, m)))
basis = BasisMatrix(q)
sel = SensorSelection(n_state, np.sort(rng.choice(n_state, size=n, replace=False)))
core = build_deim_core(basis, sel)
print(f"{n} sensors, {m} modes -> kernel dimension {core.kernel_dim}")

u_true = basis.phi @ rng.normal(size=m)  # exactly representable state
y = observe(u_true, sel)

rec_plain = vanilla_deim(core, y)
xi_hat = optimal_kernel(core, u_true)
rec_best = sdeim(core, y, xi_hat)

print(f"plain interpolation error : {np.linalg.norm(rec_plain - u_true):.3e}")
print(f"optimal-kernel error      : {np.linalg.norm(rec_best - u_true):.3e} (exact recovery)")

# error decomposition for an arbitrary kernel vector, given by its coordinates
xi_arbitrary = rng.normal(size=core.kernel_dim)
rep = error_report(core, u_true, xi_arbitrary)
print("\nerror decomposition with an arbitrary kernel vector:")
print(f"  truncation part  : {np.sqrt(rep.trunc_sq):.3e}")
print(f"  oblique part     : {np.sqrt(rep.oblique_sq):.3e}")
print(f"  kernel mismatch  : {np.sqrt(rep.kernel_sq):.3e}")
print(f"  total            : {np.sqrt(rep.total_sq):.3e}")
print(f"  upper bound      : {rep.upper_bound:.3e}")

# two-stage fit on withheld sensors equals single-stage on all sensors
idx = rng.choice(n_state, size=6, replace=False)
sel1 = SensorSelection(n_state, idx[:3])
sel2 = SensorSelection(n_state, idx[3:])
u = rng.normal(size=n_state)
rec_two = two_stage_sdeim(basis, sel1, sel2, u[idx[:3]], u[idx[3:]])
rec_all = vanilla_deim(build_deim_core(basis, SensorSelection(n_state, idx)), u[idx])
gap = np.linalg.norm(rec_two - rec_all) / np.linalg.norm(rec_all)
print(f"\ntwo-stage vs all-sensors gap: {gap:.2e} (they coincide)")
