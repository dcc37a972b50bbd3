import numpy as np
import pytest

from emdkit import (
    EemdConfig,
    SampledSignal,
    SiftConfig,
    Variant,
    eemd,
    emd,
    is_imf,
    sift_one_imf,
)
from emdkit.emd import zero_crossing_count
from conftest import fft_peak_hz, sine


def sig(values, rate=1.0):
    return SampledSignal(np.asarray(values, dtype=float), rate)


class TestConfigs:
    def test_sift_config_validation(self):
        with pytest.raises(ValueError):
            SiftConfig(sd_threshold=0.0)
        with pytest.raises(ValueError):
            SiftConfig(max_sift_iterations=0)
        with pytest.raises(ValueError):
            SiftConfig(max_imfs=-1)

    def test_eemd_config_validation(self):
        with pytest.raises(ValueError):
            EemdConfig(noise_stddev_ratio=-0.1)
        with pytest.raises(ValueError):
            EemdConfig(ensemble_size=0)


class TestZeroCrossings:
    def test_sine(self):
        # 5 Hz over 1 s crosses zero twice per period, minus the end.
        assert zero_crossing_count(sine(5.0, 1000.0, 1.0, phase=0.1)) == 10

    def test_constant(self):
        assert zero_crossing_count(sig([2, 2, 2])) == 0

    def test_ignores_exact_zeros(self):
        assert zero_crossing_count(sig([1, 0, -1])) == 1


class TestIsImf:
    def test_pure_sine(self):
        assert is_imf(sine(5.0, 500.0, 2.0))

    def test_monotone_ramp(self):
        assert not is_imf(sig(np.linspace(0, 1, 100)))

    def test_riding_waves_fail(self):
        rate = 1000.0
        t = np.arange(int(rate * 2)) / rate
        x = sig(np.sin(2 * np.pi * 3 * t) + np.sin(2 * np.pi * 40 * t), rate)
        assert not is_imf(x)


class TestSiftOneImf:
    def test_completeness_is_exact(self, rng):
        x = sig(rng.standard_normal(400), 100.0)
        imf, residue = sift_one_imf(x)
        err = np.max(np.abs(imf.samples + residue.samples - x.samples))
        assert err <= 1e-15 * np.max(np.abs(x.samples))  # at most 1 ulp

    def test_sine_passes_through(self):
        x = sine(5.0, 500.0, 2.0)
        imf, _ = sift_one_imf(x)
        n = x.n
        central = slice(n // 10, -n // 10)
        rel = np.linalg.norm(imf.samples[central] - x.samples[central]) / np.linalg.norm(
            x.samples[central]
        )
        assert rel < 0.05

    def test_extracts_fast_tone_first(self):
        rate, dur = 256.0, 4.0
        t = np.arange(int(rate * dur)) / rate
        fast = np.sin(2 * np.pi * 32 * t)
        x = sig(np.sin(2 * np.pi * 4 * t) + fast, rate)
        imf, _ = sift_one_imf(x)
        n = x.n
        central = slice(n // 10, -n // 10)
        corr = np.corrcoef(imf.samples[central], fast[central])[0, 1]
        assert corr > 0.95


class TestEmd:
    def test_constant_signal(self):
        d = emd(sig(np.full(100, 3.0), 10.0))
        assert d.imfs == ()
        np.testing.assert_array_equal(d.residue.samples, 3.0)
        assert d.variant is Variant.EMD

    def test_four_tone_ordering(self):
        rate, dur = 256.0, 4.0
        t = np.arange(int(rate * dur)) / rate
        x = sig(sum(np.sin(2 * np.pi * f * t) for f in (4, 8, 16, 32)), rate)
        d = emd(x)
        assert len(d.imfs) >= 3
        assert abs(fft_peak_hz(d.imfs[0]) - 32.0) <= 2.0

    def test_completeness(self, rng):
        x = sig(rng.standard_normal(1000), 100.0)
        d = emd(x)
        recon = d.reconstruct()
        err = np.max(np.abs(recon.samples - x.samples))
        assert err <= 1e-10 * np.max(np.abs(x.samples))

    def test_chirp_short_record(self):
        from emdkit import CHIRP_TF_PRESET, generate

        x = generate(CHIRP_TF_PRESET)
        d = emd(x)
        assert len(d.imfs) >= 1
        err = np.max(np.abs(d.reconstruct().samples - x.samples))
        assert err <= 1e-10 * np.max(np.abs(x.samples))

    def test_max_imfs_cap(self, rng):
        x = sig(rng.standard_normal(2000), 100.0)
        d = emd(x, SiftConfig(max_imfs=2))
        assert len(d.imfs) == 2

    def test_spectral_centroid_ordering_statistical(self, rng):
        def centroid(s):
            power = np.abs(np.fft.rfft(s.samples)) ** 2
            freqs = np.fft.rfftfreq(s.n, s.dt)
            return float(np.sum(freqs * power) / np.sum(power))

        ordered = 0
        total = 0
        for _ in range(50):
            freqs = rng.uniform(2, 60, rng.integers(2, 5))
            t = np.arange(1024) / 256.0
            x = sig(sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
                        for f in freqs), 256.0)
            d = emd(x)
            cs = [centroid(imf) for imf in d.imfs]
            for a, b in zip(cs, cs[1:]):
                total += 1
                ordered += a >= b
        assert ordered / total >= 0.9


class TestEemd:
    def test_zero_noise_equals_emd(self):
        x = sine(5.0, 200.0, 2.0)
        d_plain = emd(x)
        d_ens = eemd(x, ecfg=EemdConfig(noise_stddev_ratio=0.0, ensemble_size=3))
        assert len(d_plain.imfs) == len(d_ens.imfs)
        for a, b in zip(d_plain.imfs, d_ens.imfs):
            np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)

    def test_determinism(self):
        x = sine(5.0, 100.0, 2.0)
        cfg = EemdConfig(ensemble_size=10, rng_seed=7)
        a = eemd(x, ecfg=cfg)
        b = eemd(x, ecfg=cfg)
        for u, v in zip(a.imfs, b.imfs):
            np.testing.assert_array_equal(u.samples, v.samples)
        np.testing.assert_array_equal(a.residue.samples, b.residue.samples)

    def test_reconstruction_error_scale(self):
        rate, dur = 256.0, 4.0
        t = np.arange(int(rate * dur)) / rate
        x = sig(np.sin(2 * np.pi * 4 * t) + np.sin(2 * np.pi * 32 * t), rate)
        ecfg = EemdConfig(noise_stddev_ratio=0.2, ensemble_size=50, rng_seed=0)
        d = eemd(x, ecfg=ecfg)
        err = d.diagnostics["reconstruction_error"]
        sigma_over_sqrt_n = 0.2 * float(np.std(x.samples)) / np.sqrt(50)
        scale = float(np.max(np.abs(x.samples)))
        # Error should be on the ensemble-average noise floor, not zero
        # and not signal-sized.
        assert err < 10 * sigma_over_sqrt_n / scale

    def test_variant_tag(self):
        d = eemd(sine(5.0, 100.0, 1.0), ecfg=EemdConfig(ensemble_size=3))
        assert d.variant is Variant.EEMD
