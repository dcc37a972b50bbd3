import sys
import tracemalloc

import numpy as np
import pytest

from emdkit import (
    EemdConfig,
    InsufficientDataError,
    MultivariateSignal,
    NoEnvelopeError,
    SampledSignal,
    SiftConfig,
    Variant,
    build_envelopes,
    detect_extrema,
    eemd,
    emd,
    epemd,
    is_imf,
    memd,
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
        for bad in (-0.1, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="noise_stddev_ratio"):
                EemdConfig(noise_stddev_ratio=bad)
        assert EemdConfig(noise_stddev_ratio=0.0).noise_stddev_ratio == 0.0
        with pytest.raises(ValueError):
            EemdConfig(ensemble_size=0)


class TestZeroCrossings:
    def test_sine(self):
        # 5 Hz over 1 s crosses zero twice per period, minus the end.
        assert zero_crossing_count(sine(5.0, 1000.0, 1.0, phase=0.1).samples) == 10

    def test_constant(self):
        assert zero_crossing_count([2, 2, 2]) == 0

    def test_ignores_exact_zeros(self):
        assert zero_crossing_count([1, 0, -1]) == 1


@pytest.mark.parametrize("fn", [detect_extrema, build_envelopes, is_imf, zero_crossing_count])
@pytest.mark.parametrize("bad", [[1.0, np.nan, -1.0, 2.0, -2.0],
                                 [1.0, -1.0, np.inf, -2.0, 2.0],
                                 [[1.0, -1.0, 2.0], [-2.0, 1.0, -1.0]]])
def test_sample_functions_reject_non_finite_or_2d_input(fn, bad):
    with pytest.raises(ValueError):
        fn(np.array(bad))


def _reference_is_imf(x):
    """The IMF test as first written: its own extrema, then the envelope."""
    ext = detect_extrema(x)
    if ext.n_extrema == 0 or abs(ext.n_extrema - zero_crossing_count(x)) > 1:
        return False
    try:
        env = build_envelopes(x)
    except NoEnvelopeError:
        return False
    peak = float(np.max(np.abs(x)))
    return peak != 0.0 and float(np.max(np.abs(env.mean))) <= 0.05 * peak


class TestIsImf:
    def test_pure_sine(self):
        assert is_imf(sine(5.0, 500.0, 2.0).samples)

    def test_monotone_ramp(self):
        assert not is_imf(np.linspace(0, 1, 100))

    def test_riding_waves_fail(self):
        rate = 1000.0
        t = np.arange(int(rate * 2)) / rate
        assert not is_imf(np.sin(2 * np.pi * 3 * t) + np.sin(2 * np.pi * 40 * t))

    def test_matches_reference_rule(self, rng):
        verdicts = []
        for i in range(600):
            n = int(rng.integers(3, 41))
            if i % 3 == 0:  # plateau-heavy
                v = np.round(rng.standard_normal(n))
            elif i % 3 == 1:
                v = np.sin(np.arange(n) * rng.uniform(0.2, 2.0)) + 0.01 * rng.standard_normal(n)
            else:
                v = rng.standard_normal(n)
            verdicts.append(is_imf(v))
            assert verdicts[-1] == _reference_is_imf(v), v
        assert 0 < sum(verdicts) < len(verdicts)

    def test_two_samples_are_not_an_imf(self):
        assert not is_imf([1.0, 2.0])


class TestSiftOneImf:
    def test_one_extrema_pass_per_envelope(self, rng, monkeypatch):
        env_mod, emd_mod = sys.modules["emdkit.envelope"], sys.modules["emdkit.emd"]
        calls = {"extrema": 0, "envelopes": 0, "is_imf": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(env_mod, "detect_extrema", counted("extrema", env_mod.detect_extrema))
        monkeypatch.setattr(emd_mod, "build_envelopes", counted("envelopes", emd_mod.build_envelopes))
        monkeypatch.setattr(emd_mod, "is_imf", counted("is_imf", emd_mod.is_imf))
        d = emd_mod.emd(sig(rng.standard_normal(512)))
        assert len(d.imfs) > 2
        assert calls["extrema"] == calls["envelopes"] > 0
        assert calls["is_imf"] == 0

    def test_builds_two_signals_however_many_iterations(self, rng, monkeypatch):
        emd_mod = sys.modules["emdkit.emd"]
        signal_cls = sys.modules["emdkit.core"].SampledSignal
        x = sig(rng.standard_normal(512))
        post_init, original = signal_cls.__post_init__, emd_mod.build_envelopes
        built, envelopes = [], []

        def counted(signal):
            built.append(signal)
            post_init(signal)

        def build_envelopes(h):
            envelopes.append(h)
            return original(h)

        monkeypatch.setattr(signal_cls, "__post_init__", counted)
        monkeypatch.setattr(emd_mod, "build_envelopes", build_envelopes)
        iterations = []
        for cfg in (SiftConfig(max_sift_iterations=1),
                    SiftConfig(sd_threshold=1e-6, max_sift_iterations=8)):
            built.clear()
            envelopes.clear()
            sift_one_imf(x, cfg)
            assert len(built) == 2
            iterations.append(len(envelopes))
        assert iterations[0] == 1 and iterations[1] > 4

    @pytest.mark.parametrize("error", [RuntimeError, InsufficientDataError])
    def test_unexpected_errors_propagate(self, rng, monkeypatch, error):
        def broken(h):
            raise error("bug")

        monkeypatch.setattr(sys.modules["emdkit.emd"], "build_envelopes", broken)
        x = sig(rng.standard_normal(256))
        for decompose in (emd, epemd):
            with pytest.raises(error):
                decompose(x)

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

    @pytest.mark.parametrize("k", [500, -500, 900, -900])
    def test_exactly_scale_equivariant(self, rng, k):
        # Scaling by 2**k is exact, so every IMF must scale bit for bit;
        # huge or tiny amplitudes must not overflow or underflow the sift.
        for _ in range(3):
            x = rng.standard_normal(512)
            ref = emd(sig(x))
            got = emd(sig(x * 2.0 ** k))
            assert len(got.imfs) == len(ref.imfs)
            for a, b in zip(got.imfs, ref.imfs):
                assert np.array_equal(a.samples, b.samples * 2.0 ** k)
            assert np.array_equal(got.residue.samples, ref.residue.samples * 2.0 ** k)

    def test_two_samples_give_zero_imfs(self):
        x = sig([1.0, 2.0])
        decomps = [emd(x), epemd(x), eemd(x, ecfg=EemdConfig(ensemble_size=3)),
                   memd(MultivariateSignal((x,)), 8).channels[0]]
        for d in decomps:
            assert d.imfs == ()
        for d in decomps[:2] + decomps[3:]:
            np.testing.assert_array_equal(d.residue.samples, x.samples)

    def test_subnormal_amplitude_is_residue(self, rng):
        x = sig(rng.standard_normal(512) * 2.0 ** -1060)
        d = emd(x)
        assert d.imfs == ()
        np.testing.assert_array_equal(d.residue.samples, x.samples)

    def test_rounding_noise_is_residue(self, rng):
        # Sifting a constant plus noise of a roundoff unit or so gives an IMF
        # of rounding noise, and would give another from every residue.
        x = sig(0.967 + rng.standard_normal(256) * 7e-17)
        for d in (emd(x, SiftConfig(max_imfs=20)), epemd(x, SiftConfig(max_imfs=20))):
            assert d.imfs == ()
            np.testing.assert_array_equal(d.residue.samples, x.samples)

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


    def test_peak_memory_of_a_long_record(self):
        # A long record's envelope grids are evaluated 8,192 queries at a
        # time: emd of 2**16 noise samples peaks at 1.42x the bytes it
        # returns, against 2.67x with each grid evaluated whole.
        x = sig(np.random.default_rng(16).standard_normal(2**16))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            d = emd(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * sum(c.samples.nbytes for c in d.components)

class TestEemd:
    def test_constant_signal_has_no_imfs(self):
        # The noise added to a constant is a fraction of its std: roundoff.
        d = eemd(sig(np.full(77, 0.1)), SiftConfig(max_imfs=20), EemdConfig(ensemble_size=4))
        assert d.imfs == ()
        np.testing.assert_allclose(d.residue.samples, 0.1, rtol=1e-15)

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

    def test_peak_memory_does_not_hold_every_trial(self, rng):
        # Every trial of 50 held to the end would need ~15 MB here.
        x = sig(rng.standard_normal(4096))
        tracemalloc.start()
        try:
            eemd(x, ecfg=EemdConfig(ensemble_size=50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_variant_tag(self):
        d = eemd(sine(5.0, 100.0, 1.0), ecfg=EemdConfig(ensemble_size=3))
        assert d.variant is Variant.EEMD
