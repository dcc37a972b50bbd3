"""Layer micro-benchmarks: extrema detection, the spline and envelope
routines, one sift and a whole EMD, at the sizes the benchmark workloads
use them and, for the univariate layers, at 16,384 samples too.

    PYTHONPATH=src python -m pytest benchmarks                      # timed
    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable  # each case once

The directory lies outside ``testpaths``, so the tier-1 suite does not
collect it. Each case also checks its result, so the file cannot rot.
"""

import numpy as np
import pytest

from emdkit import (
    SampledSignal,
    SignalKind,
    SignalSpec,
    build_envelopes,
    cubic_spline,
    detect_extrema,
    emd,
    generate_multitone4,
    hammersley_directions,
    multivariate_mean_envelope,
    sift_one_imf,
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


def _noise(n):
    return np.random.default_rng(n).standard_normal(n)


@pytest.mark.parametrize("n", [1024, 16384])
def test_detect_extrema(benchmark, n):
    v = _noise(n)  # continuous samples: no plateaus
    ext = benchmark(detect_extrema, v)
    mid = v[1:-1]
    assert ext.max_idx.tolist() == (((mid > v[:-2]) & (mid > v[2:])).nonzero()[0] + 1).tolist()
    assert ext.min_idx.tolist() == (((mid < v[:-2]) & (mid < v[2:])).nonzero()[0] + 1).tolist()


@pytest.mark.parametrize("n", [1024, 16384])
def test_build_envelopes(benchmark, n):
    v = _noise(n)
    env = benchmark(build_envelopes, v)
    ext = env.extrema
    # Each envelope passes through its extrema; the mean is their average.
    assert np.allclose(env.upper[ext.max_idx], ext.max_val, rtol=0, atol=1e-12)
    assert np.allclose(env.lower[ext.min_idx], ext.min_val, rtol=0, atol=1e-12)
    assert env.mean.tobytes() == ((env.upper + env.lower) / 2.0).tobytes()


@pytest.mark.parametrize("n", [1024, 16384])
def test_sift_one_imf(benchmark, n):
    x = SampledSignal(_noise(n), 1.0)
    imf, residue = benchmark(sift_one_imf, x)
    assert residue.samples.tobytes() == (x.samples - imf.samples).tobytes()
    assert abs(imf.samples.mean()) < 0.1 * np.abs(imf.samples).max()


@pytest.mark.parametrize("n", [1024, 16384])
def test_emd(benchmark, n):
    x = SampledSignal(_noise(n), 1.0)
    d = benchmark(emd, x)
    assert len(d.imfs) >= 5
    assert np.allclose(d.reconstruct().samples, x.samples, rtol=0, atol=1e-10)
