from types import SimpleNamespace

import numpy as np
import pytest

from emdkit import (
    CHIRP_TF_PRESET,
    SampledSignal,
    SignalKind,
    SignalSpec,
    generate,
    generate_multitone4,
    sweep_io_t,
)
from emdkit.siggen import MULTITONE4_FREQS


def band_magnitudes(x: SampledSignal, lo: float, hi: float) -> float:
    mag = np.abs(np.fft.rfft(x.samples))
    freqs = np.fft.rfftfreq(x.n, x.dt)
    mask = (freqs >= lo) & (freqs <= hi)
    return float(np.mean(mag[mask]))


class TestGenerate:
    def test_am_starts_at_zero(self):
        x = generate(SignalSpec(SignalKind.AM))
        assert x.samples[0] == 0.0

    def test_lp_energy_matches_direct_summation(self):
        spec = SignalSpec(SignalKind.LP)
        x = generate(spec)
        t = np.arange(x.n) / spec.sample_rate
        direct = np.zeros(x.n)
        for i in range(1, 21):
            direct += spec.a2 * np.sin(2 * np.pi * (50 - i) * t)
            direct += spec.a1 * np.sin(2 * np.pi * (1 + i) * t)
        e_direct = float(np.sum(direct ** 2)) / spec.sample_rate
        e_got = float(np.sum(x.samples ** 2)) / spec.sample_rate
        assert abs(e_got - e_direct) <= 1e-10 * e_direct

    def test_determinism(self):
        a = generate(SignalSpec(SignalKind.WGN, seed=5))
        b = generate(SignalSpec(SignalKind.WGN, seed=5))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_seed_changes_noise(self):
        a = generate(SignalSpec(SignalKind.WGN, seed=5))
        b = generate(SignalSpec(SignalKind.WGN, seed=6))
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("kind,strong,weak", [
        (SignalKind.LP, (2.0, 21.0), (30.0, 49.0)),
        (SignalKind.HP, (30.0, 49.0), (2.0, 21.0)),
        (SignalKind.BP, (16.0, 35.0), (2.0, 14.0)),
        (SignalKind.BS, (1.0, 20.0), (21.0, 29.0)),
    ])
    def test_band_structure(self, kind, strong, weak):
        x = generate(SignalSpec(kind))
        assert band_magnitudes(x, *strong) >= 50.0 * band_magnitudes(x, *weak)

    def test_chirp_padding(self):
        x = generate(CHIRP_TF_PRESET)
        assert x.n == 3000 + 2 * 50
        np.testing.assert_array_equal(x.samples[:50], 0.0)
        np.testing.assert_array_equal(x.samples[-50:], 0.0)

    def test_chirp_frequency_endpoints(self):
        spec = SignalSpec(SignalKind.CHIRP, sample_rate=10_000.0, duration=0.3,
                          f_start=100.0, f_end=200.0)
        x = generate(spec)
        from emdkit import analytic_signal

        attrs = analytic_signal(x)
        quarter = x.n // 4
        assert attrs.inst_freq[quarter] == pytest.approx(125.0, abs=3.0)
        assert attrs.inst_freq[3 * quarter] == pytest.approx(175.0, abs=3.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SignalSpec(SignalKind.AM, duration=0.0)
        with pytest.raises(ValueError):
            SignalSpec(SignalKind.AM, sample_rate=-1.0)

    def test_multitone4_needs_dedicated_generator(self):
        with pytest.raises(ValueError):
            generate(SignalSpec(SignalKind.MULTITONE4))


def today_band(kind, a1, a2, t):
    """The band formulas as first written, one branch per kind."""
    if kind is SignalKind.LP:
        return sum(a2 * np.sin(2 * np.pi * (50 - i) * t) + a1 * np.sin(2 * np.pi * (1 + i) * t)
                   for i in range(1, 21))
    if kind is SignalKind.BP:
        return sum(a2 * np.sin(2 * np.pi * (50 - i) * t)
                   + a1 * np.sin(2 * np.pi * (15 + i) * t)
                   + a2 * np.sin(2 * np.pi * (1 + i) * t)
                   for i in range(1, 21))
    if kind is SignalKind.HP:
        return sum(a1 * np.sin(2 * np.pi * (50 - i) * t) + a2 * np.sin(2 * np.pi * (1 + i) * t)
                   for i in range(1, 21))
    if kind is SignalKind.BS:
        return sum(a1 * np.sin(2 * np.pi * (50 - i) * t)
                   + a2 * np.sin(2 * np.pi * (15 + i) * t)
                   + a1 * np.sin(2 * np.pi * (0 + i) * t)
                   for i in range(1, 21))
    return sum(a1 * np.sin(2 * np.pi * i * t) for i in range(1, 51))


BAND_KINDS = (SignalKind.LP, SignalKind.BP, SignalKind.HP, SignalKind.BS, SignalKind.AP)


class TestBandFormulas:
    """The band signals and the comb, byte for byte (signed zeros too)
    against the formulas written out term by term."""

    @pytest.mark.parametrize("kind", BAND_KINDS)
    @pytest.mark.parametrize("params", [
        {},
        {"a1": -3.0, "a2": 0.5, "sample_rate": 333.0, "duration": 1.7},
        {"a1": 0.0, "a2": -0.0, "sample_rate": 333.0, "duration": 1.7},
    ])
    def test_generate_matches_the_written_formulas(self, kind, params):
        spec = SignalSpec(kind, **params)
        t = np.arange(int(round(spec.sample_rate * spec.duration))) / spec.sample_rate
        want = today_band(kind, spec.a1, spec.a2, t)
        assert generate(spec).samples.tobytes() == want.tobytes()


class TestMultitone4:
    def test_four_channels_with_expected_variance(self):
        spec = SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0, duration=4.0,
                          seed=0, noise_std=0.1)
        x = generate_multitone4(spec)
        assert x.n_channels == 4
        for ch in x.channels:
            var = float(np.var(ch.samples))
            assert var == pytest.approx(4 * 0.5 + 0.01, rel=0.05)

    def test_tones_present(self):
        x = generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                           duration=4.0, seed=0))
        mag = np.abs(np.fft.rfft(x.channels[0].samples))
        freqs = np.fft.rfftfreq(x.n, 1 / 256.0)
        for f in MULTITONE4_FREQS:
            idx = int(np.argmin(np.abs(freqs - f)))
            assert mag[idx] > 10 * np.median(mag)

    def test_channels_differ_by_noise_only(self):
        x = generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                           duration=4.0, seed=0, noise_std=0.1))
        diff = x.channels[0].samples - x.channels[1].samples
        assert float(np.std(diff)) == pytest.approx(0.1 * np.sqrt(2), rel=0.1)


class TestSweep:
    def test_rejects_aliasing_rate(self):
        with pytest.raises(ValueError):
            sweep_io_t([100.0])

    def test_comb_content(self):
        # The sweep's comb is the AP band signal: 50 tones at 1..50 Hz.
        x = generate(SignalSpec(SignalKind.AP, a1=2.0, sample_rate=256.0, duration=2.0))
        mag = np.abs(np.fft.rfft(x.samples))
        freqs = np.fft.rfftfreq(x.n, x.dt)
        for f in range(1, 51):
            idx = int(np.argmin(np.abs(freqs - f)))
            assert mag[idx] > 50 * np.median(mag)

    @pytest.mark.parametrize("fs", [150.0, 333.0])
    def test_sweep_decomposes_the_written_comb(self, monkeypatch, fs):
        # Each rate's signal is the 50-tone comb of amplitude 100 over 10 s,
        # byte for byte; the decompositions themselves are stubbed out.
        import emdkit.siggen as siggen
        seen = []
        monkeypatch.setattr(siggen, "emd", lambda x, cfg: seen.append(x) or "emd")
        monkeypatch.setattr(siggen, "epemd", lambda x, cfg: seen.append(x) or "epemd")
        monkeypatch.setattr(siggen, "ortho_report", lambda x, d: SimpleNamespace(io_total=d))
        assert sweep_io_t([fs]) == [(fs, "emd", "epemd")]
        t = np.arange(int(round(fs * 10.0))) / fs
        want = today_band(SignalKind.AP, 100.0, 1.0, t)
        assert [x.samples.tobytes() for x in seen] == [want.tobytes()] * 2
        assert all(x.sample_rate == fs for x in seen)

    def test_sweep_rows(self):
        rows = sweep_io_t([150.0, 200.0])
        assert [r[0] for r in rows] == [150.0, 200.0]
        for _, io_emd, io_ep in rows:
            assert abs(io_ep) <= 1e-12
            assert np.isfinite(io_emd)
