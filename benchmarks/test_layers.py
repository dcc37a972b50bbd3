"""Layer micro-benchmarks: extrema detection, the end knots, the spline
and envelope routines, one sift, a whole EMD, one lockstep batch of EMD
rows and a whole MEMD, at the sizes the benchmark workloads use them and,
for the univariate layers, at 16,384 samples too (a whole EMD also at
65,536); the analytic signal at 16,384 samples and the Hilbert spectrum
at 16,384 and 262,144; the CLI's CSV formatting and parsing of a
16,384 x 15 table, the shape of cli-roundtrip's imfs.csv; and the import
of emdkit and its CLI in a fresh interpreter.

    PYTHONPATH=src python -m pytest benchmarks                      # timed
    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable  # each case once

The directory lies outside ``testpaths``, so the tier-1 suite does not
collect it. Each case also checks its result, so the file cannot rot.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emdkit
from emdkit import (
    SampledSignal,
    analytic_signal,
    SiftConfig,
    SignalKind,
    SignalSpec,
    build_envelopes,
    cubic_spline,
    detect_extrema,
    emd,
    generate_multitone4,
    hammersley_directions,
    hilbert_spectrum,
    memd,
    multivariate_mean_envelope,
    sift_one_imf,
)
from emdkit import cli
from emdkit import hsa
from emdkit.core import _unit_stack
from emdkit.emd import _extract_rows
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


def test_envelope_knots(benchmark):
    # One lockstep step of a noise band at 1,024 samples: the extrema and
    # end knots of 8 rows. Each knot set rises strictly and spans the grid.
    rows = np.random.default_rng(8).standard_normal((8, N))
    knots = benchmark(lambda: [_envelope_knots(v) for v in rows])
    for _, kt, ky, k in knots:
        assert k == 0
        for t, y in zip(kt, ky):
            assert t.shape == y.shape and np.all(np.diff(t) > 0)
            assert t[0] <= 0 and t[-1] >= N - 1


@pytest.mark.parametrize("rows", [1, 8])
def test_grid_pair(benchmark, rows):
    rng = np.random.default_rng(rows)
    knots = [_envelope_knots(rng.standard_normal(N)) for _ in range(rows)]
    ts = [t for _, kt, _, _ in knots for t in kt]
    ys = [y for _, _, ky, _ in knots for y in ky]
    assert benchmark(_grid_pair, ts, ys, N).shape == (2 * rows * N,)


def _multitone4():
    return generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                          duration=4.0, seed=3))


def test_multivariate_mean_envelope(benchmark):
    dirs = hammersley_directions(4, 64)
    assert benchmark(multivariate_mean_envelope, _multitone4(), dirs).shape == (N, 4)


def test_memd(benchmark):
    # The benchmark workload's caps: 3 modes x 4 sift iterations. At K = 64
    # the directions are shared out to forked helpers on every CPU.
    x = _multitone4()
    d = benchmark(memd, x, 64, SiftConfig(max_imfs=3, max_sift_iterations=4))
    assert len(d.imfs) == 3
    for j, ch in enumerate(x.channels):
        recon = d.residue.channels[j].samples + sum(m.channels[j].samples for m in d.imfs)
        assert np.allclose(recon, ch.samples, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("n", [1024, 16384, 65536])
def test_emd(benchmark, n):
    x = SampledSignal(_noise(n), 1.0)
    d = benchmark(emd, x)
    assert len(d.imfs) >= 5
    assert np.allclose(d.reconstruct().samples, x.samples, rtol=0, atol=1e-10)


def test_extract_rows(benchmark):
    # One lockstep batch of a noise band at 1,024 samples: 8 rows.
    rows = np.random.default_rng(8).standard_normal((8, N))
    modes, residues = benchmark(_extract_rows, rows, SiftConfig(), 1.0)
    for v, ms, res in zip(rows, modes, residues, strict=True):
        alone = emd(SampledSignal(v, 1.0))
        assert [c.samples.tobytes() for c in (*ms, res)] == \
            [c.samples.tobytes() for c in alone.components]


def _scipy_fft_analytic_signal(x):
    """``analytic_signal``'s default attributes from scipy.fft's full
    complex transform, the build the real FFT replaced: reference bytes."""
    from scipy.fft import fft, ifft

    (y,), k = _unit_stack(x.samples)
    spec = fft(y)
    spec[1:(x.n + 1) // 2] *= 2.0
    spec[x.n // 2 + 1:] = 0.0
    z = ifft(spec)
    phase = np.unwrap(np.angle(z))
    return hsa.AnalyticAttributes(np.ldexp(np.abs(z), -k), phase,
                                  np.gradient(phase, x.dt) / (2 * np.pi), x.sample_rate)


def test_analytic_signal(benchmark):
    x = SampledSignal(_noise(16384), 1.0)
    got, want = benchmark(analytic_signal, x), _scipy_fft_analytic_signal(x)
    for field in ("amplitude", "phase", "inst_freq"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


@pytest.mark.parametrize("n", [16384, 262144])
def test_hilbert_spectrum(benchmark, monkeypatch, n):
    d = emd(SampledSignal(_noise(n), 1.0))
    with monkeypatch.context() as mp:
        mp.setattr(hsa, "analytic_signal", _scipy_fft_analytic_signal)
        want = hilbert_spectrum(d)
    got = benchmark(hilbert_spectrum, d)
    assert [a.tobytes() for a in (*got.cells, got.marginal)] == \
        [a.tobytes() for a in (*want.cells, want.marginal)]


@pytest.fixture(scope="module")
def wide_csv():
    """A time column and 14 noise channels at 16,384 rows, and its CSV text
    formatted one value at a time."""
    n = 16384
    table = np.column_stack((np.arange(n) / 256.0,
                             np.random.default_rng(15).standard_normal((n, 14))))
    header = "time," + ",".join(f"imf{j}" for j in range(1, 15))
    text = header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                   for row in table.tolist())
    return table, header, text.encode()


def test_csv_format(benchmark, tmp_path, wide_csv):
    # Past the size rule: forked helpers format chunks besides the caller.
    table, header, text = wide_csv
    artifact = {"t.csv": cli._Table(header, list(table.T))}
    benchmark(cli._write, tmp_path, artifact)
    assert (tmp_path / "t.csv").read_bytes() == text


def test_csv_parse(benchmark, tmp_path, wide_csv):
    # Past the size rule: forked helpers parse spans besides the caller.
    table, _, text = wide_csv
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    assert benchmark(cli._load_plain, path).tobytes() == table.tobytes()


def test_import_emdkit_cli(benchmark):
    # A whole interpreter start, as every emdkit process pays it; no scipy
    # package, not even scipy itself, may be imported.
    src = str(Path(emdkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, emdkit, emdkit.cli; sys.exit('scipy' in sys.modules)"

    def fresh():
        return subprocess.run([sys.executable, "-c", code], env=env).returncode

    assert benchmark.pedantic(fresh, rounds=5, warmup_rounds=1) == 0
