import sys
import threading

import numpy as np
import pytest

from emdkit import (
    Decomposition,
    DimensionMismatchError,
    InvalidKnotsError,
    MultivariateDecomposition,
    MultivariateSignal,
    NoEnvelopeError,
    SampledSignal,
    SiftConfig,
    SignalKind,
    SignalSpec,
    Variant,
    build_envelopes,
    emd,
    epmemd,
    generate_multitone4,
    hammersley_directions,
    memd,
    multivariate_mean_envelope,
)
from emdkit.memd import DirectionSet, _primes, _radical_inverse
from conftest import fft_peak_hz, no_child_left, sine

memd_module = sys.modules["emdkit.memd"]


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


class TestMeanEnvelope:
    def test_duplicated_channel_matches_univariate(self):
        s = sine(5.0, 500.0, 2.0)
        x = MultivariateSignal((s, s))
        dirs = DirectionSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        env = multivariate_mean_envelope(x, dirs)
        uni = build_envelopes(s.samples).mean
        n = s.n
        central = slice(n // 10, -n // 10)
        diff = np.max(np.abs(env[central, 0] - uni[central]))
        assert diff <= 0.05 * float(np.max(np.abs(s.samples)))

    def test_directions_of_the_wrong_length_are_rejected(self):
        x = MultivariateSignal((sine(4.0, 100.0, 1.0), sine(5.0, 100.0, 1.0)))
        with pytest.raises(DimensionMismatchError):
            multivariate_mean_envelope(x, hammersley_directions(3, 8))

    def test_builds_no_signal(self, rng, monkeypatch):
        x = MultivariateSignal(tuple(SampledSignal(rng.standard_normal(256), 1.0)
                                     for _ in range(3)))
        signal_cls = sys.modules["emdkit.core"].SampledSignal
        post_init, built = signal_cls.__post_init__, []

        def counted(signal):
            built.append(signal)
            post_init(signal)

        monkeypatch.setattr(signal_cls, "__post_init__", counted)
        env = multivariate_mean_envelope(x, hammersley_directions(3, 16))
        assert env.shape == (256, 3) and built == []

    def test_cancelling_projection_is_skipped(self):
        # The direction (1, 1)/sqrt(2) projects (s, -s) onto roundoff noise.
        s = sine(4.0, 100.0, 1.0)
        x = MultivariateSignal((s, -1.0 * s))
        with pytest.raises(NoEnvelopeError):
            multivariate_mean_envelope(x, DirectionSet(np.array([[1.0, 1.0]]) / np.sqrt(2)))

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
        after = x.from_array(x.as_array() - env)
        env2 = multivariate_mean_envelope(after, dirs)
        e_env = sum(float(np.sum(c ** 2)) for c in env2.T)
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

    def test_two_sample_input_has_no_modes(self):
        x = MultivariateSignal((SampledSignal(np.array([1.0, -2.0]), 1.0),
                                SampledSignal(np.array([0.5, 3.0]), 1.0)))
        d = memd(x, K=8)
        assert d.imfs == ()
        np.testing.assert_array_equal(d.residue.as_array(), x.as_array())

    def test_rounding_noise_has_no_modes(self, rng):
        x = MultivariateSignal(tuple(SampledSignal(0.967 + c * 7e-17, 1.0)
                                     for c in rng.standard_normal((2, 128))))
        d = memd(x, 8, SiftConfig(max_imfs=20))
        assert d.imfs == ()
        np.testing.assert_array_equal(d.residue.as_array(), x.as_array())

    def test_unexpected_extrema_errors_propagate(self, monkeypatch):
        def broken(p):
            raise RuntimeError("bug")

        # The package re-exports shadow the submodule name; look it up directly.
        monkeypatch.setattr(memd_module, "detect_extrema", broken)
        s = sine(8.0, 256.0, 2.0)
        with pytest.raises(RuntimeError):
            memd(MultivariateSignal((s, s)), K=8)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("K", [0, -5])
    @pytest.mark.parametrize("decompose", [memd, epmemd])
    def test_direction_count_checked_for_any_channel_count(self, channels, K, decompose):
        s = sine(8.0, 256.0, 2.0)
        with pytest.raises(ValueError, match="^need K >= 1$"):
            decompose(MultivariateSignal((s,) * channels), K)

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


#: The benchmark's caps: 3 modes x 4 sift iterations.
CAPPED = SiftConfig(max_imfs=3, max_sift_iterations=4)


def _multitone(seed=3):
    return generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                          duration=4.0, seed=seed))


def _component_bytes(d):
    return b"".join(c.samples.tobytes() for m in d.imfs + (d.residue,) for c in m.channels)


def _planar(angles):
    return DirectionSet(np.column_stack((np.cos(angles), np.sin(angles))))


class TestForkedDirections:
    # multitone4 has 4 channels of 1,024 samples, so K = 33 and K = 64 are
    # both past the 2^17 projected samples from which helpers start.

    @pytest.mark.parametrize("K", [64, 33])
    @pytest.mark.parametrize("decompose", [memd, epmemd])
    def test_bytes_do_not_depend_on_the_cpu_count(self, forks, cpus, decompose, K):
        x = _multitone()
        out = []
        for k in (1, 2, 3):
            cpus(k)
            d = decompose(x, K, CAPPED)
            out.append((_component_bytes(d), [c.diagnostics for c in d.channels]))
        assert len(forks) == 0 + 1 + 2
        assert out[1] == out[0] and out[2] == out[0]
        no_child_left()

    def test_helper_share_with_every_direction_skipped(self):
        # (1, 1)/sqrt(2) projects (s, -s) onto roundoff noise: the helper's
        # half of the directions is skipped, the caller's half is not.
        s = sine(4.0, 256.0, 1.0)
        x = MultivariateSignal((s, -1.0 * s))
        dirs = _planar(np.r_[np.linspace(0.1, 1.2, 4), np.full(4, np.pi / 4)])
        want = multivariate_mean_envelope(x, dirs)
        with memd_module._forked_shares(dirs, 2) as helpers:
            assert multivariate_mean_envelope(x, dirs, helpers).tobytes() == want.tobytes()
        no_child_left()

    def test_no_envelope_when_every_share_is_skipped(self):
        s = sine(4.0, 256.0, 1.0)
        cancelling = MultivariateSignal((s, -1.0 * s))
        dirs = _planar(np.full(9, np.pi / 4))
        other = MultivariateSignal((s, sine(6.0, 256.0, 1.0)))
        with memd_module._forked_shares(dirs, 3) as helpers:
            with pytest.raises(NoEnvelopeError, match="^no direction projection"):
                multivariate_mean_envelope(cancelling, dirs, helpers)
            # Every helper answered, so the next envelope is exchanged in step.
            got = multivariate_mean_envelope(other, dirs, helpers)
        assert got.tobytes() == multivariate_mean_envelope(other, dirs).tobytes()
        no_child_left()

    def test_helpers_of_other_directions_are_refused(self):
        s = sine(4.0, 256.0, 1.0)
        x = MultivariateSignal((s, sine(6.0, 256.0, 1.0)))
        dirs = _planar(np.linspace(0.1, 3.0, 8))
        with memd_module._forked_shares(dirs, 2) as helpers:
            with pytest.raises(ValueError, match="^the helpers share out other directions$"):
                multivariate_mean_envelope(x, _planar(np.linspace(0.1, 3.0, 8)), helpers)
            got = multivariate_mean_envelope(x, dirs, helpers)
        assert got.tobytes() == multivariate_mean_envelope(x, dirs).tobytes()
        no_child_left()

    @pytest.mark.parametrize("decompose", [memd, epmemd])
    def test_helper_error_raises_as_in_a_serial_run(self, monkeypatch, forks, cpus, decompose):
        # Both channels start at 1, so the directions past the first half,
        # pointing into the third quadrant, project a negative first sample;
        # each such projection fails with its own message. The first one
        # falls in a helper's share, with 2 CPUs and with 3.
        x = MultivariateSignal((sine(4.0, 256.0, 4.0, phase=np.pi / 2),
                                sine(6.0, 256.0, 4.0, phase=np.pi / 2)))
        dirs = _planar(np.r_[np.linspace(0.1, 1.4, 32), np.linspace(3.3, 4.6, 32)])
        extrema = memd_module.detect_extrema

        def failing(p):
            if p[0] < 0:
                raise InvalidKnotsError(f"projection starts at {float(p[0])!r}")
            return extrema(p)

        monkeypatch.setattr(memd_module, "detect_extrema", failing)
        monkeypatch.setattr(memd_module, "hammersley_directions", lambda n, K: dirs)
        raised = []
        for k in (1, 2, 3):
            cpus(k)
            with pytest.raises(InvalidKnotsError) as exc:
                decompose(x, 64, CAPPED)
            raised.append(str(exc.value))
        assert len(forks) == 3 and raised == [raised[0]] * 3
        data = x.as_array()
        first = (np.ldexp(data, memd_module._unit_exponent(data)) @ dirs.directions[32])[0]
        assert raised[0] == f"projection starts at {float(first)!r}"
        no_child_left()

    def test_dead_helper_is_reported(self, monkeypatch, forks, cpus):
        cpus(2)
        monkeypatch.setattr(memd_module, "_serve_directions", lambda directions, pipe, share: None)
        with pytest.raises(ChildProcessError, match="^forked process .* died$"):
            memd(_multitone(), 64, CAPPED)
        assert len(forks) == 1
        no_child_left()

    @pytest.mark.parametrize("n, K, channels, forked", [
        (10_000, 8, 2, 1), (10_001, 8, 2, 0),  # the BLAS threshold
        (1024, 64, 2, 1), (1024, 63, 2, 0),  # 2^17 projected samples
        (512, 8, 2, 0),  # the benchmark's traced call
    ])
    def test_forks_only_below_the_blas_threshold_and_past_the_size_rule(
            self, forks, cpus, n, K, channels, forked):
        cpus(2)
        rng = np.random.default_rng(n)
        x = MultivariateSignal(tuple(SampledSignal(v, 1.0)
                                     for v in rng.standard_normal((channels, n))))
        memd(x, K, SiftConfig(max_imfs=1, max_sift_iterations=1))
        assert len(forks) == forked
        no_child_left()

    def test_no_fork_while_another_thread_runs(self, forks, cpus):
        cpus(2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            memd(_multitone(), 64, SiftConfig(max_imfs=1, max_sift_iterations=1))
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and forks == []
