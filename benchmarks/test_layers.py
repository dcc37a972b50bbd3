"""Layer micro-benchmarks: the spline and envelope routines at the sizes
the benchmark workloads use them.

    PYTHONPATH=src python -m pytest benchmarks                      # timed
    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable  # each case once

The directory lies outside ``testpaths``, so the tier-1 suite does not
collect it. Each case also checks its result, so the file cannot rot.
"""

import numpy as np
import pytest

from emdkit import (
    SignalKind,
    SignalSpec,
    cubic_spline,
    generate_multitone4,
    hammersley_directions,
    multivariate_mean_envelope,
)
from emdkit.envelope import _LAYOUT_MEMO, _envelope_knots, _grid_pair

N = 1024


@pytest.fixture
def memd_knots():
    """139 random whole-number knots spanning past the grid 0...N-1, as
    many as MEMD's mirror-extended extrema of a 1,024-sample multitone4
    projection, the values of one channel, and the grid."""
    rng = np.random.default_rng(0)
    inner = np.sort(rng.choice(np.arange(1, N - 1), 135, replace=False))
    t = np.concatenate(([-7.0, -2.0], inner, [N + 1.0, N + 6.0]))
    return t, rng.standard_normal(t.size), np.arange(N, dtype=float)


def test_cubic_spline_cold(benchmark, memd_knots):
    t, y, q = memd_knots

    def cold():
        _LAYOUT_MEMO[0] = None
        return cubic_spline(t, y, q)

    assert benchmark(cold).shape == (N,)


def test_cubic_spline_memo_hit(benchmark, memd_knots):
    t, y, q = memd_knots
    _LAYOUT_MEMO[0] = None
    want = cubic_spline(t, y, q).tobytes()
    assert benchmark(cubic_spline, t, y, q).tobytes() == want


@pytest.mark.parametrize("rows", [1, 8])
def test_grid_pair(benchmark, rows):
    rng = np.random.default_rng(rows)
    knots = [_envelope_knots(rng.standard_normal(N)) for _ in range(rows)]
    ts = [t for _, kt, _, _ in knots for t in kt]
    ys = [y for _, _, ky, _ in knots for y in ky]
    assert benchmark(_grid_pair, ts, ys, N).shape == (2 * rows * N,)


def test_multivariate_mean_envelope(benchmark):
    x = generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                       duration=4.0, seed=3))
    dirs = hammersley_directions(4, 64)
    assert benchmark(multivariate_mean_envelope, x, dirs).shape == (N, 4)
