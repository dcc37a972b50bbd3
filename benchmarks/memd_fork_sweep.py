"""Where forked MEMD direction shares pay: time ``memd`` with its helpers
forced on and forced off over a range of K x n x channels, the work of one
mean envelope, and print the forked/serial ratio of the medians.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/memd_fork_sweep.py [pairs]

Sifting is capped as in the benchmark workload (3 modes x 4 iterations).
Each of ``pairs`` rounds (default 7) times one forked and one serial
call of every case, alternating, and asserts that the two give the same
bytes. Needs more than one CPU; with one, both runs are serial.
"""

import sys
import time

import numpy as np

from emdkit import MultivariateSignal, SampledSignal, SiftConfig

memd_module = sys.modules["emdkit.memd"]
CFG = SiftConfig(max_imfs=3, max_sift_iterations=4)

#: (directions K, samples n, channels): K x n x channels from 2^13 to 2^18.
CASES = [(8, 512, 2), (2, 1024, 4), (4, 1024, 4), (8, 1024, 4), (16, 1024, 4),
         (64, 256, 4), (16, 2048, 2), (32, 1024, 4), (128, 256, 4), (64, 1024, 2),
         (64, 1024, 4), (64, 4096, 2)]


def signal(n, channels):
    """Channels of two tones each plus a little noise, 256 samples/s."""
    t = np.arange(n) / 256.0
    rng = np.random.default_rng(n + channels)
    return MultivariateSignal(tuple(
        SampledSignal(np.sin(2 * np.pi * (8 + j) * t) + 0.5 * np.sin(2 * np.pi * (32 + 3 * j) * t)
                      + 0.05 * rng.standard_normal(n), 256.0)
        for j in range(channels)))


def timed(x, K, min_work):
    memd_module._FORK_MIN_WORK = min_work
    start = time.perf_counter()
    d = memd_module.memd(x, K, CFG)
    elapsed = time.perf_counter() - start
    return elapsed, np.array([[c.samples for c in m.channels] for m in d.imfs]).tobytes()


def main(pairs=7):
    default = memd_module._FORK_MIN_WORK
    print(f"{'K':>3} {'n':>5} {'ch':>2} {'K*n*ch':>8} {'forked s':>9} {'serial s':>9} {'ratio':>6}")
    try:
        for K, n, channels in CASES:
            x = signal(n, channels)
            timed(x, K, 0)  # warm-up
            forked, serial = [], []
            for _ in range(pairs):
                f, f_bytes = timed(x, K, 0)
                s, s_bytes = timed(x, K, float("inf"))
                assert f_bytes == s_bytes, (K, n, channels)
                forked.append(f)
                serial.append(s)
            f, s = np.median(forked), np.median(serial)
            print(f"{K:3d} {n:5d} {channels:2d} {K * n * channels:8d} {f:9.4f} {s:9.4f} {f / s:6.2f}")
    finally:
        memd_module._FORK_MIN_WORK = default


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
