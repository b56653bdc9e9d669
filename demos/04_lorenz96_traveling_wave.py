"""Lorenz96 at weak forcing: a traveling wave seen through one noisy sensor.

At F=2 the 40-site lattice settles onto a traveling wave whose snapshots
span just five directions (mean + two Fourier harmonic pairs): the
singular spectrum collapses by eight orders of magnitude after the fifth
value. A single noisy sensor then suffices for the kernel ODE to
reconstruct the whole wave to a few percent, while the plain estimate is
stuck above fifty percent error.

Runs a shortened version of the bundled lorenz96 preset (~10 s).
"""

from dataclasses import replace

import numpy as np

from sdeim.experiments import load_preset, run_pipeline

cfg = replace(load_preset("lorenz96"), train_horizon=100.0, test_horizon=30.0)
result = run_pipeline(cfg, write=False)

s = result.raw_singular_values
print("raw snapshot singular values (scaled by largest):")
print(" ", np.array2string(s[:7] / s[0], precision=2, suppress_small=False))
print(f"sigma6 / sigma5 = {s[5] / s[4]:.2e}  (five-dimensional wave subspace)")

print(f"\nsensor chosen by greedy placement: site {result.summary['sensor_indices'][0]}"
      " (all sites tie by symmetry; lowest index wins)")

vanilla = result.summary["vanilla_post_transient_mean"]
das = result.summary["dasdeim_post_transient_mean"]
print(f"\nnoisy single-sensor estimates (std 0.1):")
print(f"  plain interpolation post-transient mean error : {vanilla:.3f}")
print(f"  kernel-ODE assimilation post-transient mean   : {das:.3f}")
print(f"  improvement factor                            : {vanilla / das:.1f}x")

print("\nprefactor ||(S^T Phi_m)^+||_2 vs mode count (fixed sensor):")
for m, v in result.prefactors_fixed:
    print(f"  m = {m}: {v:.3f}")
print("adding modes always helps the bound when sensors are fixed")
