import numpy as np
import pytest

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
from conftest import sine


def cos_signal(freq, rate, n):
    t = np.arange(n) / rate
    return SampledSignal(np.cos(2 * np.pi * freq * t), rate)


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

    def test_quotient_method_agrees_centrally(self):
        x = cos_signal(20.0, 1000.0, 4096)
        a = analytic_signal(x, method="phase_diff")
        b = analytic_signal(x, method="quotient")
        diff = np.abs(central(a.inst_freq) - central(b.inst_freq))
        assert np.max(diff) <= 0.5

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            analytic_signal(cos_signal(5.0, 100.0, 64), method="nope")

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            analytic_signal(SampledSignal(np.arange(4, dtype=float), 1.0))

    def test_roundtrip_real_part(self, rng):
        from scipy.signal import hilbert

        v = rng.standard_normal(256)
        z = hilbert(v)
        assert np.max(np.abs(z.real - v)) <= 1e-10

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
        per_bin = h.energy.sum(axis=1)
        peak = int(np.argmax(per_bin))
        assert abs(h.freq_bins[peak] - 20.0) <= 2.0
        # The tone straddles at most two adjacent bins.
        frac = per_bin[max(peak - 1, 0): peak + 2].sum() / per_bin.sum()
        assert frac >= 0.95

    def test_binning_conserves_energy(self):
        x = sine(20.0, 500.0, 4.0)
        d = emd(x)
        h = hilbert_spectrum(d)
        total_binned = h.energy.sum() * x.dt
        total_direct = sum(
            float(np.sum(analytic_signal(imf).amplitude ** 2)) * x.dt
            for imf in d.imfs
        )
        assert abs(total_binned - total_direct) <= 1e-6 * total_direct

    def test_marginal_definition(self):
        x = sine(20.0, 500.0, 4.0)
        h = hilbert_spectrum(emd(x))
        np.testing.assert_allclose(h.marginal, h.energy.sum(axis=1) * h.dt,
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
        occupied = h.energy.sum(axis=0) > 0
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

    def test_negative_if_counted(self, rng):
        # A component violating the oscillatory-mode property produces
        # negative instantaneous frequencies that the grid must count.
        t = np.arange(2048) / 256.0
        bad = SampledSignal(np.sin(2 * np.pi * 3 * t) + 5.0, 256.0)
        d = Decomposition((bad,), bad.with_samples(np.zeros(2048)), Variant.EMD)
        h = hilbert_spectrum(d)
        assert h.negative_if_samples > 0
