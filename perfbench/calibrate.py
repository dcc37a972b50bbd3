"""A fixed CPU kernel that measures how fast the machine runs right now.

On a shared machine the speed of one core wanders by 15-20% over tens
of seconds, which is longer than a pass and about as long as a run, so
medians alone cannot remove it. The benchmark times this kernel after
every pass and scales each measured time by ``CAL_REF_S`` over the
kernel time nearest to it: seconds on a machine where the kernel takes
``CAL_REF_S``. The kernel uses numpy and scipy only, never emdkit, so a
change to the library moves the pass times and not the kernel.

It mixes the work emdkit does, in two halves of about equal time: an
envelope-like half (Python loops over extrema, small numpy operations, a
banded solve) and a CLI-like half (formatting floats to text and parsing
them back). Under load from other tenants the first half slows down
more than interpreter-bound code does, so a kernel of that half alone
over-corrects the CLI workload.
"""

import time

import numpy as np
from scipy.linalg import solve_banded

#: Kernel time, in seconds, on the machine the reference units are
#: named after; roughly its time on a 2-core x86-64 shared virtual machine.
CAL_REF_S = 0.2
ARRAY_REPS = 100
TEXT_REPS = 20
_SIGNAL = np.random.default_rng(0).standard_normal(4096)
_VALUES = _SIGNAL[:2000].tolist()


def calibrate() -> float:
    """Seconds for a fixed amount of envelope-like and CLI-like work."""
    x = _SIGNAL
    q = np.arange(x.size, dtype=float)
    t0 = time.perf_counter()
    for _ in range(ARRAY_REPS):
        d = np.diff(x)
        peaks = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0)) + 1
        pairs = tuple((int(i), float(x[i])) for i in peaks)
        t = np.array([i for i, _ in pairs], dtype=float)
        y = np.array([v for _, v in pairs])
        h = np.diff(t)
        ab = np.zeros((3, t.size - 2))
        ab[0, 1:] = h[1:-1]
        ab[1] = 2.0 * (h[:-1] + h[1:])
        ab[2, :-1] = h[1:-1]
        solve_banded((1, 1), ab, np.diff(y[1:]) / h[1:] - np.diff(y[:-1]) / h[:-1])
        k = np.clip(np.searchsorted(t, q) - 1, 0, t.size - 2)
        a = (t[k + 1] - q) / h[k]
        np.sum(a * y[k] + (1.0 - a) * y[k + 1])
    for _ in range(TEXT_REPS):
        text = "\n".join(f"{v:.17g},{0.5 * v:.17g}" for v in _VALUES)
        sum(float(f) for line in text.splitlines() for f in line.split(","))
    return time.perf_counter() - t0
