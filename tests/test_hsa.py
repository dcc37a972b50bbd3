import warnings
from functools import partial

import numpy as np
import pytest

import emdkit
import emdkit.cli
from emdkit import (
    CHIRP_TF_PRESET,
    InsufficientDataError,
    SampledSignal,
    SignalSpec,
    SignalKind,
    Variant,
    Decomposition,
    analytic_signal,
    emd,
    energy,
    epemd,
    generate,
    hilbert_spectrum,
    spectral_ridge,
)
from emdkit.core import _unit_stack
from emdkit.hsa import AnalyticAttributes
from conftest import dense_grid, fresh_process, sine, traced_peak_mb


def cos_signal(freq, rate, n):
    t = np.arange(n) / rate
    return SampledSignal(np.cos(2 * np.pi * freq * t), rate)


def scipy_fft_analytic_signal(x):
    """``analytic_signal`` as built on scipy.fft's full complex transform."""
    from scipy.fft import fft, ifft  # reference only; the library avoids it

    (y,), k = _unit_stack(x.samples)
    spec = fft(y)
    spec[1:(x.n + 1) // 2] *= 2.0
    spec[x.n // 2 + 1:] = 0.0
    z = ifft(spec)
    with np.errstate(over="ignore"):
        amplitude = np.ldexp(np.abs(z), -k)
    phase = np.unwrap(np.angle(z))
    inst_freq = np.gradient(phase, x.dt) / (2 * np.pi)
    return AnalyticAttributes(amplitude, phase, inst_freq, x.sample_rate)


def central(arr, fraction=0.8):
    n = len(arr)
    k = int(n * (1 - fraction) / 2)
    return arr[k: n - k]


class TestAnalyticSignal:
    @pytest.mark.parametrize("ratio", [0.005, 0.02, 0.1, 0.2])
    def test_cosine_oracle(self, ratio):
        rate = 1000.0
        freq = ratio * rate
        attrs = analytic_signal(cos_signal(freq, rate, 16384))
        amp = central(attrs.amplitude)
        if_hz = central(attrs.inst_freq)
        assert np.max(np.abs(amp - 1.0)) <= 0.01
        assert np.max(np.abs(if_hz - freq)) <= 0.005 * freq

    def test_constant_signal(self):
        attrs = analytic_signal(SampledSignal(np.full(64, 3.0), 10.0))
        np.testing.assert_allclose(attrs.amplitude, 3.0, rtol=1e-9)
        np.testing.assert_allclose(central(attrs.inst_freq), 0.0, atol=1e-9)

    def test_chirp_tracks_linear_ramp(self):
        spec = SignalSpec(SignalKind.CHIRP, sample_rate=10_000.0, duration=0.3,
                          f_start=100.0, f_end=200.0)
        x = generate(spec)
        attrs = analytic_signal(x)
        t = x.times
        true_if = 100.0 + (200.0 - 100.0) * t / 0.3
        err = np.abs(central(attrs.inst_freq) - central(true_if))
        assert np.max(err) <= 3.0

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            analytic_signal(SampledSignal(np.arange(4, dtype=float), 1.0))

    @pytest.mark.parametrize("n", [255, 256])
    def test_matches_scipy_hilbert_bit_for_bit(self, rng, n):
        from scipy.signal import hilbert  # reference only; the library avoids it

        v = rng.standard_normal(n)
        z = hilbert(v)
        a = analytic_signal(SampledSignal(v, 1.0))
        assert np.array_equal(a.amplitude, np.abs(z))
        assert np.array_equal(a.phase, np.unwrap(np.angle(z)))

    @pytest.mark.parametrize("kind", ["noise", "sine 1e300", "sine 1e-300", "impulse"])
    def test_matches_scipy_fft_build_bit_for_bit(self, kind):
        # The library's real FFT against the full complex transform of
        # scipy.fft, which it replaced: every output byte.
        rng = np.random.default_rng(len(kind))
        moved = []
        for n in [*range(8, 301), 1500, 4097, 16384, 65537]:
            if kind == "noise":
                v = rng.standard_normal(n)
            elif kind == "impulse":
                v = np.zeros(n)
                v[n // 3] = 1.0
            else:
                v = np.sin(0.3 * np.arange(n)) * float(kind.split()[1])
            x = SampledSignal(v, 100.0)
            got, want = analytic_signal(x), scipy_fft_analytic_signal(x)
            if any(getattr(got, f).tobytes() != getattr(want, f).tobytes()
                   for f in ("amplitude", "phase", "inst_freq")):
                moved.append(n)
        assert moved == []

    def test_import_leaves_out_scipy_signal(self):
        code = ("import sys, emdkit, emdkit.cli; "
                "sys.exit('scipy.signal' in sys.modules)")
        assert fresh_process(code) == 0

    def test_spectrum_leaves_out_scipy_fft_and_special(self):
        code = ("import sys, numpy as np, emdkit, emdkit.cli; "
                "x = emdkit.SampledSignal(np.sin(np.arange(512) / 5.0), 50.0); "
                "emdkit.hilbert_spectrum(emdkit.emd(x)); "
                "sys.exit(any(m in sys.modules for m in ('scipy.fft', 'scipy.special', 'scipy.linalg')))")
        assert fresh_process(code) == 0

    def test_if_invariant_under_positive_scaling(self):
        x = cos_signal(15.0, 500.0, 1024)
        a = analytic_signal(x)
        b = analytic_signal(5.0 * x)
        np.testing.assert_allclose(a.inst_freq, b.inst_freq, atol=1e-10)


class TestHilbertSpectrum:
    def test_single_tone_energy_concentrated(self):
        x = sine(20.0, 500.0, 4.0)
        d = Decomposition((x,), x.with_samples(np.zeros(x.n)), Variant.EMD)
        h = hilbert_spectrum(d, n_freq_bins=125)  # 2 Hz bins up to 250 Hz
        per_bin = dense_grid(h).sum(axis=1)
        peak = int(np.argmax(per_bin))
        assert abs(h.freq_bins[peak] - 20.0) <= 2.0
        # The tone straddles at most two adjacent bins.
        frac = per_bin[max(peak - 1, 0): peak + 2].sum() / per_bin.sum()
        assert frac >= 0.95

    def test_binning_conserves_energy(self):
        x = sine(20.0, 500.0, 4.0)
        d = emd(x)
        h = hilbert_spectrum(d)
        total_binned = dense_grid(h).sum() * x.dt
        total_direct = sum(
            float(np.sum(analytic_signal(imf).amplitude ** 2)) * x.dt
            for imf in d.imfs
        )
        assert abs(total_binned - total_direct) <= 1e-6 * total_direct

    def test_marginal_definition(self):
        x = sine(20.0, 500.0, 4.0)
        h = hilbert_spectrum(emd(x))
        np.testing.assert_allclose(h.marginal, dense_grid(h).sum(axis=1) * h.dt,
                                   rtol=1e-12)

    @pytest.mark.parametrize("bins", [dict(n_freq_bins=0), dict(n_time_bins=0)])
    def test_empty_grid_rejected(self, bins):
        x = sine(20.0, 500.0, 4.0)
        d = Decomposition((x,), x.with_samples(np.zeros(x.n)), Variant.EMD)
        with pytest.raises(ValueError):
            hilbert_spectrum(d, **bins)

    def test_no_imfs_rejected(self):
        x = SampledSignal(np.full(64, 1.0), 10.0)
        d = Decomposition((), x, Variant.EMD)
        with pytest.raises(ValueError):
            hilbert_spectrum(d)

    def test_epemd_chirp_ridge_monotone(self):
        x = generate(SignalSpec(SignalKind.CHIRP, sample_rate=10_000.0,
                                duration=0.3, f_start=100.0, f_end=200.0))
        d = epemd(x)
        h = hilbert_spectrum(d, n_freq_bins=1000, n_time_bins=50)
        ridge = spectral_ridge(h)
        core = central(ridge)
        assert np.all(np.diff(core) >= 0)

    def test_ridge_nan_for_empty_columns(self):
        x = sine(20.0, 500.0, 4.0)
        d = Decomposition((x,), x.with_samples(np.zeros(x.n)), Variant.EMD)
        h = hilbert_spectrum(d, n_freq_bins=64, n_time_bins=10)
        ridge = spectral_ridge(h)
        occupied = dense_grid(h).sum(axis=0) > 0
        assert np.all(np.isfinite(ridge[occupied]))
        assert np.all(np.isnan(ridge[~occupied]))

    def test_marginal_total_matches_component_energy(self):
        x = generate(SignalSpec(SignalKind.AM))
        for d in (epemd(x), emd(x)):
            h = hilbert_spectrum(d)
            imf_energy = sum(energy(imf) for imf in d.imfs)
            total = float(h.marginal.sum())
            # Analytic amplitude-squared integrates to twice the signal
            # energy for zero-mean oscillatory components; end effects
            # keep this within a few percent.
            assert total == pytest.approx(2 * imf_energy, rel=0.05)

    def test_no_dense_grid_allocated(self):
        # A dense 256 x 16,384 float64 grid alone is 32 MiB; the build
        # peaked at 34.4 MiB with one.
        x = SampledSignal(np.random.default_rng(7).standard_normal(16384), 1000.0)
        d = emd(x)
        assert traced_peak_mb(hilbert_spectrum, d, 256) < 16

    def test_peak_memory_scales_with_the_cells(self):
        # Narrow cells written straight into frequency-major order peak at
        # 12.4 MiB here, 2.65x their 4.67 MiB. 24-byte cells put in order by
        # a sort of their concatenation peaked at 18.8 MiB, 1.85x their
        # 10.2 MiB; one np.unique over every (IMF, sample) key read 4.3x
        # those cells at 16,384 samples and 4.8x at 262,144.
        x = SampledSignal(np.random.default_rng(16).standard_normal(2**16), 1000.0)
        d = emd(x)
        cells = sum(a.nbytes for a in hilbert_spectrum(d).cells) / 2**20
        assert traced_peak_mb(hilbert_spectrum, d) <= 3 * cells

    @pytest.mark.parametrize("bins, name", [(dict(n_freq_bins=256.0), "n_freq_bins"),
                                            (dict(n_time_bins=10.5), "n_time_bins"),
                                            (dict(n_time_bins="8"), "n_time_bins")])
    def test_non_integer_bin_count_named(self, bins, name):
        x = sine(20.0, 500.0, 4.0)
        d = Decomposition((x,), x.with_samples(np.zeros(x.n)), Variant.EMD)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            hilbert_spectrum(d, **bins)

    def test_numpy_integer_bin_counts(self):
        d = _noise_decomposition(512)
        h, want = hilbert_spectrum(d, np.uint16(300), np.int64(100)), hilbert_spectrum(d, 300, 100)
        assert [a.tobytes() for a in (*h.cells, h.marginal)] == \
            [a.tobytes() for a in (*want.cells, want.marginal)]

    def test_negative_if_counted(self, rng):
        # A component violating the oscillatory-mode property produces
        # negative instantaneous frequencies that the grid must count.
        t = np.arange(2048) / 256.0
        bad = SampledSignal(np.sin(2 * np.pi * 3 * t) + 5.0, 256.0)
        d = Decomposition((bad,), bad.with_samples(np.zeros(2048)), Variant.EMD)
        h = hilbert_spectrum(d)
        assert h.negative_if_samples > 0


def _dense_build(d, n_freq_bins, n_time_bins):
    """Reference Hilbert spectrum on a dense ``freq x time`` grid:
    ``np.add.at`` per IMF, ``grid.sum(axis=1) * dt`` for the marginal,
    the first argmax of each column for the ridge (NaN where the column
    holds no energy), and the non-zero cells frequency-major."""
    ref = d.imfs[0]
    f_width = ref.sample_rate / 2.0 / n_freq_bins
    freq_bins = (np.arange(n_freq_bins) + 0.5) * f_width
    n_time = ref.n if n_time_bins is None else n_time_bins
    time_bins = ref.t0 + (np.arange(n_time) + 0.5) * (ref.n / (ref.sample_rate * n_time))
    t_idx = np.minimum((np.arange(ref.n) // (ref.n / n_time)).astype(int), n_time - 1)
    grid = np.zeros((n_freq_bins, n_time))
    with np.errstate(over="ignore"):
        for imf in d.imfs:
            attrs = analytic_signal(imf)
            f_idx = np.clip(np.floor(attrs.inst_freq / f_width).astype(int), 0, n_freq_bins - 1)
            np.add.at(grid, (f_idx, t_idx), attrs.amplitude**2)
        marginal = grid.sum(axis=1) * ref.dt
    ridge = freq_bins[np.argmax(grid, axis=0)]
    ridge[grid.sum(axis=0) == 0] = np.nan
    rows = "".join("%.17g,%.17g,%.17g\n" % (freq_bins[fi], time_bins[ti], grid[fi, ti])
                   for fi, ti in np.argwhere(grid != 0))
    return grid, marginal, ridge, "freq_bin,time_bin,energy\n" + rows


def _noise_decomposition(n, scale=1.0):
    v = np.random.default_rng(n).standard_normal(n) * scale
    return emd(SampledSignal(v, 100.0))


def _with_zero_imf(n):
    d = _noise_decomposition(n)
    zero = d.residue.with_samples(np.zeros(n))
    return Decomposition((d.imfs[0], zero, *d.imfs[1:]), d.residue, Variant.EMD)


def _only_zero_imf(n):
    zero = SampledSignal(np.zeros(n), 100.0)
    return Decomposition((zero,), zero, Variant.EMD)


def _offset_sine(n):
    t = np.arange(n) / 256.0
    bad = SampledSignal(np.sin(2 * np.pi * 3 * t) + 5.0, 256.0)
    return Decomposition((bad,), bad.with_samples(np.zeros(n)), Variant.EMD)


SPECTRUM_CASES = [
    *[(f"noise-{n}", partial(_noise_decomposition, n), bins)
      for n in (64, 256, 1024, 4096) for bins in ((256, None), (16, n // 3 + 1))],
    ("negative-if", partial(_offset_sine, 2048), (256, None)),
    ("zero-imf", partial(_with_zero_imf, 512), (32, None)),
    ("zero-imf-binned", partial(_with_zero_imf, 512), (32, 100)),
    ("only-zero-imf", partial(_only_zero_imf, 256), (32, 40)),
    ("inf-energy", partial(_noise_decomposition, 1024, 2.0**1000), (64, None)),
    ("inf-energy-binned", partial(_noise_decomposition, 1024, 2.0**1000), (64, 50)),
    # Cells are found in blocks of whole time columns of ~1,024 samples:
    # 16,384 one-sample columns; columns of 3-4 samples, one holding
    # samples 2,047 and 2,048; one column of every sample; and bins
    # stored as uint16.
    ("blocks-16384", partial(_noise_decomposition, 16384), (256, None)),
    ("blocks-straddled", partial(_noise_decomposition, 5000), (256, 1500)),
    ("one-column", partial(_noise_decomposition, 5000), (64, 1)),
    ("uint16-bins", partial(_noise_decomposition, 1024), (300, None)),
]


class TestSpectrumMatchesDenseBuild:
    """Spectrum, marginal, ridge and ``spectrum.csv`` are bit for bit
    those of the dense reference build above."""

    @pytest.mark.parametrize("make, bins", [c[1:] for c in SPECTRUM_CASES],
                             ids=[c[0] for c in SPECTRUM_CASES])
    def test_bit_identical(self, make, bins, tmp_path, monkeypatch):
        d = make()
        n_freq, n_time = bins
        grid, marginal, ridge, spectrum_csv = _dense_build(d, n_freq, n_time)
        h = hilbert_spectrum(d, n_freq_bins=n_freq, n_time_bins=n_time)
        f, t, e = h.cells
        assert np.array_equal(np.column_stack((f, t)), np.argwhere(grid != 0))
        assert e.tobytes() == grid[grid != 0].tobytes()
        assert h.marginal.tobytes() == marginal.tobytes()
        assert spectral_ridge(h).tobytes() == ridge.tobytes()

        ref = d.imfs[0]
        csv = tmp_path / "in.csv"
        csv.write_text("".join(f"{k / ref.sample_rate!r},0.0\n" for k in range(ref.n)))
        monkeypatch.setattr(emdkit.cli, "emd", lambda *a: d)
        argv = ["decompose", "--input", str(csv), "--out", "spectrum,marginal",
                "--freq-bins", str(n_freq), "--output-dir", str(tmp_path / "out")]
        if n_time is not None:
            argv += ["--time-bins", str(n_time)]
        assert emdkit.cli.main(argv) == 0
        assert (tmp_path / "out" / "spectrum.csv").read_text() == spectrum_csv
        marginal_csv = "freq,energy\n" + "".join(
            "%.17g,%.17g\n" % fe for fe in zip(h.freq_bins, marginal))
        assert (tmp_path / "out" / "marginal.csv").read_text() == marginal_csv

    def test_cases_cover_the_edges(self):
        make = {name: make for name, make, _ in SPECTRUM_CASES}
        assert hilbert_spectrum(make["negative-if"]()).negative_if_samples > 0
        assert not np.any(make["zero-imf"]().imfs[1].samples)
        assert np.isnan(spectral_ridge(hilbert_spectrum(make["only-zero-imf"]()))).all()
        h = hilbert_spectrum(make["inf-energy"](), n_freq_bins=64)
        assert np.isinf(dense_grid(h)).any() and np.isinf(h.marginal).any()


def test_more_time_bins_than_samples():
    # Library only: the command line bounds --time-bins by the sample count.
    d = _noise_decomposition(1024)
    n_time = 2 * 1024 + 3  # some columns hold no sample
    grid, marginal, ridge, _ = _dense_build(d, 256, n_time)
    h = hilbert_spectrum(d, n_freq_bins=256, n_time_bins=n_time)
    f, t, e = h.cells
    assert not grid.any(axis=0).all()
    assert np.array_equal(np.column_stack((f, t)), np.argwhere(grid != 0))
    assert e.tobytes() == grid[grid != 0].tobytes()
    assert h.marginal.tobytes() == marginal.tobytes()
    assert spectral_ridge(h).tobytes() == ridge.tobytes()


def _unique_build(d, n_freq_bins, n_time_bins):
    """Reference cells built in one pass: one int64 ``np.unique`` over
    every (IMF, sample) key, ``np.bincount`` of the energies, the zero
    cells dropped, then a stable sort on the frequency bin."""
    ref = d.imfs[0]
    n_time = ref.n if n_time_bins is None else n_time_bins
    f_width = ref.sample_rate / 2.0 / n_freq_bins
    t_idx = np.minimum((np.arange(ref.n) // (ref.n / n_time)).astype(int), n_time - 1)
    keys, weights = [], []
    with np.errstate(over="ignore"):
        for imf in d.imfs:
            attrs = analytic_signal(imf)
            f_idx = np.clip(np.floor(attrs.inst_freq / f_width).astype(int), 0, n_freq_bins - 1)
            keys.append(f_idx * n_time + t_idx)
            weights.append(attrs.amplitude**2)
        cell_keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        energy = np.bincount(inverse, np.concatenate(weights))
    cell_keys, energy = cell_keys[energy != 0], energy[energy != 0]
    order = np.argsort(cell_keys // n_time, kind="stable")
    f, t = np.divmod(cell_keys[order], n_time)
    return f, t, energy[order]


def _tone_and_zero_imf(n):
    tone = SampledSignal(np.sin(0.4 * np.pi * np.arange(n)), 100.0)  # 20 Hz
    zero = tone.with_samples(np.zeros(n))
    return Decomposition((tone, zero), zero, Variant.EMD)


ORACLE_CASES = [
    # (name, decomposition, (n_freq_bins, n_time_bins), (freq_idx, time_idx) dtypes)
    ("one-column", partial(_noise_decomposition, 5000), (64, 1), ("uint8", "uint8")),
    ("column-per-sample", partial(_noise_decomposition, 4096), (256, None), ("uint8", "uint16")),
    ("column-per-sample-given", partial(_noise_decomposition, 4096), (256, 4096),
     ("uint8", "uint16")),
    ("columns-wider-than-a-block", partial(_noise_decomposition, 5000), (256, 3),
     ("uint8", "uint8")),
    ("uint16-freq-bins", partial(_noise_decomposition, 1024), (300, None), ("uint16", "uint16")),
    ("uint32-time-bins", partial(_noise_decomposition, 1024), (256, 65_536 + 7),
     ("uint8", "uint32")),
    # one frequency bin: the key type must also hold the row stride, 256
    ("one-freq-bin", partial(_noise_decomposition, 1024), (1, 256), ("uint8", "uint8")),
    ("inf-energy", partial(_noise_decomposition, 1024, 2.0**1000), (64, None),
     ("uint8", "uint16")),
    ("inf-energy-binned", partial(_noise_decomposition, 1024, 2.0**1000), (64, 50),
     ("uint8", "uint8")),
    ("zero-cells-dropped", partial(_tone_and_zero_imf, 512), (32, None), ("uint8", "uint16")),
    ("no-cells", partial(_only_zero_imf, 256), (32, 40), ("uint8", "uint8")),
]


@pytest.mark.parametrize("make, bins, types", [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_cells_match_the_one_pass_build(make, bins, types):
    d = make()
    h = hilbert_spectrum(d, *bins)
    want = _unique_build(d, *bins)
    assert [c.dtype for c in h.cells] == [np.dtype(types[0]), np.dtype(types[1]), np.float64]
    assert [c.tobytes() for c in h.cells] == \
        [w.astype(c.dtype).tobytes() for w, c in zip(want, h.cells)]


def test_oracle_cases_cover_the_edges():
    make = {name: make for name, make, _, _ in ORACLE_CASES}
    assert np.isinf(hilbert_spectrum(make["inf-energy"](), 64).cells[2]).any()
    # The zero IMF puts every sample in bin 0 with no energy, and the
    # 20 Hz tone none there, so those cells are dropped.
    f, _, e = hilbert_spectrum(make["zero-cells-dropped"](), 32).cells
    assert not np.any(f == 0) and e.all() and e.size == 512
    assert hilbert_spectrum(make["no-cells"](), 32, 40).cells[2].size == 0
    assert make["columns-wider-than-a-block"]().imfs[0].n / 3 > 1024


def test_frequency_stays_finite_at_the_top_of_the_rate_range():
    # At a sample rate near the top of the float64 range dt is subnormal,
    # and the phase derivative over it would overflow to +inf: those
    # samples are taken in cycles per sample, times the rate, instead.
    v = np.random.default_rng(9).standard_normal(512)
    x = SampledSignal(v, 1e308)
    d = Decomposition((x,), x.with_samples(np.zeros(x.n)), Variant.EMD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst_freq = analytic_signal(x).inst_freq
        h = hilbert_spectrum(d, n_freq_bins=16)
    assert np.isfinite(inst_freq).all()
    assert np.abs(inst_freq).max() <= x.sample_rate / 2
    per_sample = analytic_signal(SampledSignal(v, 1.0)).inst_freq
    np.testing.assert_allclose(inst_freq / x.sample_rate, per_sample, rtol=0, atol=1e-15)
    # Each sample is binned at its own frequency, not clipped into the top bin.
    f, t, e = h.cells
    want = np.clip(np.floor(inst_freq / (x.sample_rate / 32)), 0, 15)
    assert f.tolist() == want[t].tolist() and (f < 15).any()
    assert h.negative_if_samples == np.count_nonzero(inst_freq < 0)