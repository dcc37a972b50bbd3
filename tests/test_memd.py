import numpy as np
import pytest

from emdkit import (
    Decomposition,
    DimensionMismatchError,
    MultivariateDecomposition,
    MultivariateSignal,
    NoEnvelopeError,
    SampledSignal,
    SignalKind,
    SignalSpec,
    Variant,
    build_envelopes,
    emd,
    generate_multitone4,
    hammersley_directions,
    memd,
    multivariate_mean_envelope,
    project,
)
from emdkit.memd import DirectionSet, _primes, _radical_inverse
from conftest import fft_peak_hz, sine


class TestHammersleyMachinery:
    def test_radical_inverse_base2(self):
        got = _radical_inverse(np.arange(8), 2)
        want = [0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]
        np.testing.assert_allclose(got, want)

    def test_radical_inverse_base3(self):
        got = _radical_inverse(np.arange(4), 3)
        np.testing.assert_allclose(got, [0, 1 / 3, 2 / 3, 1 / 9])

    def test_primes(self):
        assert _primes(6) == [2, 3, 5, 7, 11, 13]


class TestDirections:
    def test_unit_norm(self):
        d = hammersley_directions(4, 64)
        np.testing.assert_allclose(np.linalg.norm(d.directions, axis=1), 1.0,
                                   atol=1e-12)

    def test_planar_angles_quasi_uniform(self):
        d = hammersley_directions(2, 4)
        angles = np.sort(np.arctan2(d.directions[:, 1], d.directions[:, 0]) % (2 * np.pi))
        gaps = np.diff(np.concatenate((angles, [angles[0] + 2 * np.pi])))
        assert float(np.max(gaps)) < 2 * (2 * np.pi / 4)

    def test_determinism(self):
        a = hammersley_directions(3, 32)
        b = hammersley_directions(3, 32)
        np.testing.assert_array_equal(a.directions, b.directions)

    def test_rejects_low_dimension(self):
        with pytest.raises(DimensionMismatchError):
            hammersley_directions(1, 8)

    def test_rejects_non_unit_directions(self):
        with pytest.raises(ValueError):
            DirectionSet(np.array([[1.0, 1.0]]))

    def test_better_spread_than_iid(self, rng):
        # Quasi-uniform points should have a larger minimum nearest-
        # neighbor angle than i.i.d. uniform points, on average.
        d = hammersley_directions(3, 64).directions

        def min_nn_angle(pts):
            cos = np.clip(pts @ pts.T, -1, 1)
            np.fill_diagonal(cos, -1)
            return float(np.min(np.arccos(np.max(cos, axis=1))))

        ham = min_nn_angle(d)
        iid = []
        for _ in range(20):
            p = rng.standard_normal((64, 3))
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            iid.append(min_nn_angle(p))
        assert ham > np.mean(iid)


class TestProject:
    def test_basis_direction_selects_channel(self):
        a = sine(4.0, 100.0, 1.0)
        b = sine(9.0, 100.0, 1.0)
        x = MultivariateSignal((a, b))
        np.testing.assert_array_equal(project(x, np.array([1.0, 0.0])).samples,
                                      a.samples)

    def test_cancelling_channels(self):
        s = sine(4.0, 100.0, 1.0)
        x = MultivariateSignal((s, -1.0 * s))
        p = project(x, np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(p.samples, 0.0, atol=1e-12)

    def test_matches_dot_product_oracle(self, rng):
        chans = tuple(SampledSignal(rng.standard_normal(64), 8.0) for _ in range(3))
        x = MultivariateSignal(chans)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        want = x.as_array() @ d
        np.testing.assert_allclose(project(x, d).samples, want, atol=1e-12)

    def test_dimension_mismatch(self):
        x = MultivariateSignal((sine(4.0, 100.0, 1.0), sine(5.0, 100.0, 1.0)))
        with pytest.raises(DimensionMismatchError):
            project(x, np.array([1.0, 0.0, 0.0]))


class TestMeanEnvelope:
    def test_duplicated_channel_matches_univariate(self):
        s = sine(5.0, 500.0, 2.0)
        x = MultivariateSignal((s, s))
        dirs = DirectionSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        env = multivariate_mean_envelope(x, dirs)
        uni = build_envelopes(s).mean
        n = s.n
        central = slice(n // 10, -n // 10)
        diff = np.max(np.abs(env.channels[0].samples[central] - uni.samples[central]))
        assert diff <= 0.05 * float(np.max(np.abs(s.samples)))

    def test_constant_signal_has_no_envelope(self):
        c = SampledSignal(np.full(100, 2.0), 10.0)
        x = MultivariateSignal((c, c))
        with pytest.raises(NoEnvelopeError):
            multivariate_mean_envelope(x, hammersley_directions(2, 8))

    def test_first_sift_shrinks_envelope(self):
        x = generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                           duration=4.0, seed=3))
        dirs = hammersley_directions(4, 64)
        env = multivariate_mean_envelope(x, dirs)
        after = x.from_array(x.as_array() - env.as_array())
        env2 = multivariate_mean_envelope(after, dirs)
        e_env = sum(float(np.sum(c.samples ** 2)) for c in env2.channels)
        e_sig = sum(float(np.sum(c.samples ** 2)) for c in x.channels)
        assert e_env < 0.1 * e_sig


@pytest.fixture(scope="module")
def multitone_decomp():
    x = generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                       duration=4.0, seed=11))
    return x, memd(x, K=64)


class TestMemd:

    def test_mode_channel_alignment(self, multitone_decomp):
        x, d = multitone_decomp
        for mode in d.imfs:
            assert mode.n_channels == x.n_channels

    def test_each_tone_has_a_mode(self, multitone_decomp):
        x, d = multitone_decomp
        assert len(d.imfs) >= 4
        for f in (4.0, 8.0, 16.0, 32.0):
            found = False
            for mode in d.imfs:
                peaks = [fft_peak_hz(ch) for ch in mode.channels]
                if all(abs(p - f) <= 1.0 for p in peaks):
                    found = True
                    break
            assert found, f"no mode matches {f} Hz in every channel"

    def test_per_channel_completeness(self, multitone_decomp):
        x, d = multitone_decomp
        for j, ch in enumerate(x.channels):
            recon = d.residue.channels[j].samples.copy()
            for mode in d.imfs:
                recon = recon + mode.channels[j].samples
            err = np.max(np.abs(recon - ch.samples))
            assert err <= 1e-9 * np.max(np.abs(ch.samples))

    def test_identical_sine_channels(self):
        s = sine(8.0, 256.0, 2.0)
        d = memd(MultivariateSignal((s, s)), K=16)
        for ch in d.imfs[0].channels:
            corr = np.corrcoef(ch.samples, s.samples)[0, 1]
            assert corr > 0.99

    def test_single_channel_falls_back_to_emd(self):
        s = sine(8.0, 256.0, 2.0) + sine(32.0, 256.0, 2.0)
        uni = emd(s)
        multi = memd(MultivariateSignal((s,)))
        assert len(multi.imfs) == len(uni.imfs)
        for a, b in zip(multi.imfs, uni.imfs):
            np.testing.assert_array_equal(a.channels[0].samples, b.samples)


class TestMultivariateDecomposition:
    def test_one_decomposition_per_channel(self, multitone_decomp):
        x, d = multitone_decomp
        assert len(d.channels) == x.n_channels
        for j, ch in enumerate(d.channels):
            assert ch.variant is Variant.MEMD
            assert ch.dc_constant == 0.0
            assert all(a is m.channels[j] for a, m in zip(ch.imfs, d.imfs, strict=True))
            assert ch.residue is d.residue.channels[j]

    def test_single_channel_fallback_labelled_memd(self):
        d = memd(MultivariateSignal((sine(8.0, 256.0, 2.0),)))
        assert [c.variant for c in d.channels] == [Variant.MEMD]

    def test_unequal_mode_counts_rejected(self):
        s = sine(8.0, 64.0, 1.0)
        with pytest.raises(DimensionMismatchError):
            MultivariateDecomposition((Decomposition((s,), s, Variant.MEMD),
                                       Decomposition((), s, Variant.MEMD)))


class TestMultivariateSignal:
    def test_channel_compatibility_enforced(self):
        with pytest.raises(DimensionMismatchError):
            MultivariateSignal((sine(4.0, 100.0, 1.0), sine(4.0, 200.0, 1.0)))

    def test_array_round_trip(self, rng):
        chans = tuple(SampledSignal(rng.standard_normal(32), 4.0) for _ in range(3))
        x = MultivariateSignal(chans)
        y = x.from_array(x.as_array())
        for a, b in zip(x.channels, y.channels):
            np.testing.assert_array_equal(a.samples, b.samples)
