"""Host-speed reference for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host whose speed drifts by
1.5x and more over minutes, as other tenants come and go: a fixed replay
budget took 0.6 s per repetition in a quiet stretch and 1.0 to 1.2 s half
an hour later.  No run is long enough to average that out.  So each run
also times a fixed chunk of work that does not touch ``tshc``, made of
what a rollout step is made of (small matrix-vector products, ``tanh``
and ``clip`` on short arrays, Python arithmetic and list appends),
interleaved with the workload's repetitions.  The run's time metrics are
scaled by ``REFERENCE_S`` over the median chunk time, so they read as
seconds on a host on which one chunk takes ``REFERENCE_S``.  A change to
``tshc`` moves the scaled metrics as much as the raw ones; the raw values
are in the run record.
"""

import time

import numpy as np

# the host speed the time metrics are scaled to; on the 2-vCPU host the
# baseline was measured on, the median chunk of a run took 0.025 to 0.034 s
REFERENCE_S = 0.04
STEPS = 2000

_rng = np.random.default_rng(0)
_X0 = _rng.standard_normal(4)
_W1 = _rng.standard_normal((16, 4)) * 0.5
_W2 = _rng.standard_normal((2, 16)) * 0.5


def chunk():
    """Seconds one fixed chunk of reference work takes now."""
    t0 = time.perf_counter()
    x = _X0.copy()
    rows = []
    for _ in range(STEPS):
        u = np.clip(np.tanh(_W2 @ np.tanh(_W1 @ x)), -1.0, 1.0)
        x = 0.99 * x + 0.01 * np.concatenate((u, -u))
        rows.append((float(x[0]), float(x[1]), float(u[0])))
    if not np.all(np.isfinite(rows[-1])):
        raise RuntimeError("host-speed reference diverged")
    return time.perf_counter() - t0
