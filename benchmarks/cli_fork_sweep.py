"""Where forked CSV text work pays: time the CLI's artifact writer and its
numpy-reader path with helpers forced on and forced off over a range of
table sizes, and print the forked/serial ratio of the medians.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/cli_fork_sweep.py [pairs]

Each case is a table of random floats at 17 significant digits, a time
column first. Each of ``pairs`` rounds (default 7) writes it forked and
serially, then reads it forked and serially, alternating, and asserts
that both give the same bytes. Needs more than one CPU; with one, both
runs are serial.
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from emdkit import cli

#: (rows, columns): 8,192 to 330,000 values. 16,384 x 12 and 110,000 x 3
#: are cli-roundtrip's imfs.csv and spectrum.csv.
CASES = [(4096, 2), (16384, 2), (8192, 4), (16384, 4), (4096, 16), (16384, 8),
         (32768, 4), (16384, 10), (16384, 12), (16384, 15), (110000, 3)]


def table(rows, columns):
    rng = np.random.default_rng(rows * columns)
    return [np.arange(rows) / 256.0, *rng.standard_normal((columns - 1, rows))]


def timed(fn, share_values):
    cli._FORK_SHARE_VALUES = share_values
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def main(pairs=7):
    default = cli._FORK_SHARE_VALUES
    print(f"{'rows':>6} {'cols':>4} {'values':>7} {'write':>6} {'read':>6}   (forked/serial)")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for rows, columns in CASES:
                artifact = {"t.csv": cli._Table("time," + ",".join(
                    f"c{j}" for j in range(1, columns)), table(rows, columns))}
                path = tmp / "t.csv"

                def write():
                    cli._write(tmp, artifact)
                    return path.read_bytes()

                def read():
                    return cli._load_plain(path).tobytes()

                ratios = []
                for fn in (write, read):
                    timed(fn, 1)  # warm-up
                    forked, serial = [], []
                    for _ in range(pairs):
                        f, f_out = timed(fn, 1)
                        s, s_out = timed(fn, 2**62)
                        assert f_out == s_out, (fn.__name__, rows, columns)
                        forked.append(f)
                        serial.append(s)
                    ratios.append(np.median(forked) / np.median(serial))
                print(f"{rows:6d} {columns:4d} {rows * columns:7d} {ratios[0]:6.2f} {ratios[1]:6.2f}")
    finally:
        cli._FORK_SHARE_VALUES = default


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
