"""The VM's speed during a run, from a fixed reference computation.

On a shared VM the same code runs up to 2x slower for minutes at a time,
while neighbours load the host; a run of a minute cannot average that
out, so end-to-end times from two runs minutes apart differ by more than
a regression worth catching. The benchmark therefore times, after every
pass, a fixed piece of numpy work of the same kind as the workload's
(it calls no `sdeim` code, so no change to the program moves it), and
scales the run's times by NOMINAL_S / (median reference time): a time is
reported as the time it would have taken at the speed at which the
reference takes NOMINAL_S. The raw times and the reference samples are
kept in the result file.
"""

import time

import numpy as np

# Reference time at the VM's usual uncontended speed (2-core Intel Xeon,
# OpenBLAS 0.3.31); only a scale, it cancels when two runs are compared.
NOMINAL_S = {"l63": 0.2, "field_recon": 0.2}


def _lorenz63(x):
    return np.array([10.0 * (x[1] - x[0]), x[0] * (28.0 - x[2]) - x[1],
                     x[0] * x[1] - 8.0 / 3.0 * x[2]])


class Reference:
    """The reference computation for one workload: `l63` integrates
    Lorenz-63 with RK4 on 3-vectors (interpreter and small-array bound,
    like the pipeline pass); `field_recon` takes a thin SVD of a tall
    matrix and reconstructs states from a 20-column basis at 10^4 points
    (BLAS bound, like the field pass)."""

    STEPS = 8000
    STATES = 1000

    def __init__(self, workload):
        self.run = self._l63 if workload == "l63" else self._field
        rng = np.random.default_rng(0)
        self.tall = rng.standard_normal((3000, 120))
        self.basis = rng.standard_normal((10_000, 20))
        self.rows = np.sort(rng.choice(10_000, 8, replace=False))

    def _l63(self):
        x, h = np.array([1.0, 1.0, 1.0]), 1e-3
        for _ in range(self.STEPS):
            k1 = _lorenz63(x)
            k2 = _lorenz63(x + h / 2 * k1)
            k3 = _lorenz63(x + h / 2 * k2)
            k4 = _lorenz63(x + h * k3)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    def _field(self):
        u = np.linalg.svd(self.tall, full_matrices=False)[0]
        pinv = np.linalg.pinv(self.basis[self.rows])
        for j in range(self.STATES):
            state = self.basis @ u[j % u.shape[0], :20]
            self.basis @ (pinv @ state[self.rows])
        return u

    def seconds(self):
        """Run the reference once; its wall time."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
