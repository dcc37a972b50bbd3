"""Long records: ``emd``, ``orthogonal_variants`` (ROIMF) and
``hilbert_spectrum`` of white noise at n = 2^14, 2^15, ... 2^top samples,
each with its wall time (best of ``repeats``), the minor page faults of
one call (``ru_minflt``, the fewest over the timed calls), its traced
peak above what was allocated before the call (tracemalloc, a call of
its own), the bytes it returns and the ratio of the two.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/long_record.py [repeats] [top]

``repeats`` defaults to 3 and ``top`` to 18; ``top`` 20 adds 2^19 and
2^20 (~10 s a repeat). Each operation runs once untimed first, so the
heap is warm. ROIMF and the spectrum take the ``emd`` result; the
spectrum's bytes are its cells and marginal. Every ``emd`` result is
checked to reconstruct its input.
"""

import sys
import time
import tracemalloc
from resource import RUSAGE_SELF, getrusage

import numpy as np

from emdkit import SampledSignal, Variant, emd, hilbert_spectrum, orthogonal_variants


def returned_bytes(result) -> int:
    if hasattr(result, "components"):  # a Decomposition
        return sum(c.samples.nbytes for c in result.components)
    return sum(a.nbytes for a in (*result.cells, result.marginal))


def measure(fn, arg, repeats):
    """(result, best wall s, fewest minor faults a call, traced peak bytes)."""
    result = fn(arg)
    best, faults = float("inf"), float("inf")
    for _ in range(repeats):
        before = getrusage(RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
        faults = min(faults, getrusage(RUSAGE_SELF).ru_minflt - before)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(arg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, best, faults, peak


def main(repeats=3, top=18):
    ops = (("emd", emd),
           ("roimf", lambda d: orthogonal_variants(d, Variant.ROIMF)),
           ("spectrum", hilbert_spectrum))
    print(f"{'n':>8} {'op':>8} {'IMFs':>4} {'best s':>8} {'minflt':>7} "
          f"{'peak MiB':>9} {'out MiB':>8} {'peak/out':>8}")
    for e in range(14, top + 1):
        n = 2**e
        x = SampledSignal(np.random.default_rng(e).standard_normal(n), 1.0)
        arg = x
        for name, fn in ops:
            result, best, faults, peak = measure(fn, arg, repeats)
            if name == "emd":
                assert np.allclose(result.reconstruct().samples, x.samples, rtol=0, atol=1e-10)
                arg = result
            out = returned_bytes(result)
            print(f"{n:>8} {name:>8} {len(arg.imfs):>4} {best:>8.4f} {faults:>7} "
                  f"{peak / 2**20:>9.2f} {out / 2**20:>8.2f} {peak / out:>8.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
