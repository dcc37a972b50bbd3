import logging
import re
import sys
import threading
from functools import partial

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
from emdkit import _fork
from emdkit.emd import _ROUNDING_NOISE
from emdkit.memd import DirectionSet, _primes, _radical_inverse
from emdkit.metrics import verdicts
from conftest import fft_peak_hz, no_child_left, sine

memd_module = sys.modules["emdkit.memd"]
envelope_module = sys.modules["emdkit.envelope"]


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

    @pytest.mark.parametrize("directions", [np.empty((0, 2)), np.array([1.0, 0.0])])
    def test_rejects_an_empty_set(self, directions):
        with pytest.raises(ValueError, match="^need at least one direction$"):
            DirectionSet(directions)

    @pytest.mark.parametrize("K", [0, -3])
    def test_rejects_fewer_than_one_direction(self, K):
        with pytest.raises(ValueError, match="^need K >= 1$"):
            hammersley_directions(3, K)

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

    def test_later_sift_without_an_envelope_ends_the_mode(self, monkeypatch, cpus):
        # The first mean envelope of this input leaves a mode whose every
        # projection lacks two maxima or two minima: the sift stops there.
        cpus(1)
        x = MultivariateSignal((SampledSignal(np.array([-1.0, -1, -3, 1, -3, 0]), 1.0),
                                SampledSignal(np.array([2.0, 0, 1, 2, -2, -3]), 1.0)))
        envelope, outcomes = memd_module.multivariate_mean_envelope, []

        def recorded(*args):
            try:
                env = envelope(*args)
            except NoEnvelopeError:
                outcomes.append("none")
                raise
            outcomes.append("envelope")
            return env

        monkeypatch.setattr(memd_module, "multivariate_mean_envelope", recorded)
        d = memd(x, 6, SiftConfig(max_imfs=1))
        assert outcomes == ["envelope", "none"]
        data = x.as_array()
        (mode,), residue = [m.as_array() for m in d.imfs], d.residue.as_array()
        assert mode.tobytes() == (data - envelope(x, hammersley_directions(2, 6))).tobytes()
        assert residue.tobytes() == (data - mode).tobytes()
        # Small-integer samples make the sum exact.
        assert (mode + residue).tobytes() == data.tobytes()

    def test_unexpected_extrema_errors_propagate(self, monkeypatch):
        def broken(p):
            raise RuntimeError("bug")

        # The package re-exports shadow the submodule name; look it up directly.
        monkeypatch.setattr(envelope_module, "detect_extrema", broken)
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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("decompose", [memd, epmemd])
    def test_too_short_for_envelopes(self, n, decompose):
        # No projection of 2 or 3 samples has two maxima and two minima.
        data = np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]])[:n]
        x = MultivariateSignal(tuple(SampledSignal(c, 4.0) for c in data.T))
        md = decompose(x, 16)
        assert md.imfs == ()
        for ch, d in zip(x.channels, md.channels):
            assert d.residue.samples.tobytes() == ch.samples.tobytes()
            # Completeness and the energy identity, and for epmemd the chain.
            assert [ok for _, ok, _ in verdicts(ch, d)] == [True] * (3 if decompose is epmemd else 2)

    @pytest.mark.parametrize("n", [64, 1000])
    @pytest.mark.parametrize("decompose", [memd, epmemd])
    def test_constant_sum_channels_have_no_modes(self, n, decompose):
        # A ramp and its reversal: the 45-degree projections are constant
        # but for rounding noise, whose extrema are no envelope; every other
        # projection is monotone.
        ramp = np.arange(n, dtype=float)
        x = MultivariateSignal((SampledSignal(ramp, 1.0), SampledSignal(ramp[::-1].copy(), 1.0)))
        md = decompose(x, 8, SiftConfig(max_imfs=50))
        assert md.imfs == ()
        for ch, d in zip(x.channels, md.channels):
            assert d.residue.samples.tobytes() == ch.samples.tobytes()


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
    def test_needs_a_channel(self):
        with pytest.raises(ValueError, match="^need at least one channel$"):
            MultivariateSignal(())

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


def _helpers(dirs, workers):
    """Pipes to forked helpers for every share of ``dirs`` but the first,
    as ``memd`` forks them."""
    return _fork.forked(partial(memd_module._serve_directions, dirs.directions),
                        _fork.shares(dirs.count, workers)[1:])


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
        with _helpers(dirs, 2) as pipes:
            assert multivariate_mean_envelope(x, dirs, pipes).tobytes() == want.tobytes()
        no_child_left()

    def test_no_envelope_when_every_share_is_skipped(self):
        s = sine(4.0, 256.0, 1.0)
        cancelling = MultivariateSignal((s, -1.0 * s))
        dirs = _planar(np.full(9, np.pi / 4))
        other = MultivariateSignal((s, sine(6.0, 256.0, 1.0)))
        with _helpers(dirs, 3) as pipes:
            with pytest.raises(NoEnvelopeError, match="^no direction projection"):
                multivariate_mean_envelope(cancelling, dirs, pipes)
            # Every helper answered, so the next envelope is exchanged in step.
            got = multivariate_mean_envelope(other, dirs, pipes)
        assert got.tobytes() == multivariate_mean_envelope(other, dirs).tobytes()
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
        extrema = envelope_module.detect_extrema

        def failing(p):
            if p[0] < 0:
                raise InvalidKnotsError(f"projection starts at {float(p[0])!r}")
            return extrema(p)

        monkeypatch.setattr(envelope_module, "detect_extrema", failing)
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


def _old_sift(x, data, dirs, cfg, subtractions):
    """The MEMD sift as it was written before it ran ``emd._sift``, kept as
    the reference, on the (n, channels) matrix ``data`` of signals sampled
    as ``x``; appends its subtraction count to ``subtractions`` once it gets
    past the first build, where ``_sift`` logs it."""
    mode = data
    work = x.from_array(data)
    for it in range(cfg.max_sift_iterations):
        try:
            env = memd_module.multivariate_mean_envelope(work, dirs, ())
        except NoEnvelopeError:
            if it == 0:
                raise
            break
        if float(np.abs(env).max()) <= memd_module.ENVELOPE_RATIO_THRESHOLD * float(
                np.abs(mode).max()):
            break
        mode = mode - env
        work = x.from_array(mode)
    else:
        it = cfg.max_sift_iterations
    subtractions.append(it)
    if float(np.abs(mode).max()) <= _ROUNDING_NOISE * float(np.abs(data).max()):
        raise NoEnvelopeError("the mode is rounding noise")
    return mode, data - mode


def _sifted(monkeypatch, decompose, x, K, cfg, reference):
    """``decompose(x, K, cfg)``, serial, by its own sift or, with
    ``reference``, by ``_old_sift`` under the same mode loop over the scaled
    (n, channels) matrix, residue floor and EPMEMD stage. Returns the
    decomposition, the mean envelopes built for each mode extraction (the
    last, which ends the loop, included) and the reference's subtraction
    count per sift."""
    builds, subtractions = [], []
    envelope, modes_loop = memd_module.multivariate_mean_envelope, memd_module._extract_modes

    def counted_envelope(*args):
        builds[-1] += 1
        return envelope(*args)

    def extract_modes(start, extract, stage, max_imfs):
        if reference:
            dirs = hammersley_directions(x.n_channels, K)
            floor = max(memd_module.NEGLIGIBLE_RESIDUE_THRESHOLD * float(
                np.abs(start).max()), np.finfo(float).tiny)

            def extract(work):
                if float(np.abs(work).max()) <= floor:
                    raise NoEnvelopeError("the residue is negligible")
                return _old_sift(x, work, dirs, cfg, subtractions)

        def counted_extract(work):
            builds.append(0)
            return extract(work)

        return modes_loop(start, counted_extract, stage, max_imfs)

    with monkeypatch.context() as m:
        m.setattr(memd_module, "multivariate_mean_envelope", counted_envelope)
        m.setattr(memd_module, "_extract_modes", extract_modes)
        d = decompose(x, K, cfg)
    return d, builds, subtractions


def _six_samples():
    return MultivariateSignal((SampledSignal(np.array([-1.0, -1, -3, 1, -3, 0]), 1.0),
                               SampledSignal(np.array([2.0, 0, 1, 2, -2, -3]), 1.0)))


def _same_sines():
    s = sine(8.0, 256.0, 2.0)
    return MultivariateSignal((s, s))


ORACLE_CASES = {
    "multitone4 default": (_multitone, 8, SiftConfig()),
    "multitone4 capped": (_multitone, 8, CAPPED),
    "multitone4 one sift": (_multitone, 8, SiftConfig(max_imfs=2, max_sift_iterations=1)),
    "six samples": (_six_samples, 6, SiftConfig(max_imfs=1)),
    "identical sines": (_same_sines, 8, SiftConfig()),
}


class TestSharedSift:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("decompose", [memd, epmemd])
    def test_same_bytes_and_builds_as_the_old_loop(self, monkeypatch, cpus, decompose, case):
        cpus(1)
        make, K, cfg = ORACLE_CASES[case]
        got, builds, _ = _sifted(monkeypatch, decompose, make(), K, cfg, reference=False)
        want, want_builds, _ = _sifted(monkeypatch, decompose, make(), K, cfg, reference=True)
        assert _component_bytes(got) == _component_bytes(want)
        assert [c.diagnostics for c in got.channels] == [c.diagnostics for c in want.channels]
        assert builds == want_builds
        if case == "identical sines":  # the ratio stops the first sift at its first build
            assert builds[0] == 1 and len(got.imfs) > 0

    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("decompose", [memd, epmemd])
    def test_logs_each_mode_sift_as_emd_does(self, monkeypatch, cpus, caplog, decompose, case):
        cpus(1)
        make, K, cfg = ORACLE_CASES[case]
        caplog.set_level(logging.DEBUG, logger="emdkit.emd")
        d = decompose(make(), K, cfg)
        logged = [int(re.fullmatch(r"sift finished after (\d+) iteration\(s\)",
                                   r.getMessage())[1]) for r in caplog.records]
        *_, subtractions = _sifted(monkeypatch, decompose, make(), K, cfg, reference=True)
        assert len(logged) == len(d.imfs) > 0
        assert logged == subtractions

    @pytest.mark.parametrize("decompose, most", [(memd, 64), (epmemd, 64)])
    def test_mode_loop_runs_on_one_matrix(self, monkeypatch, cpus, decompose, most):
        # Signals are built for each mean envelope's argument and the result
        # alone; EPMEMD's stage splits the matrix columns themselves (92 and
        # 116 when the loop rewrapped its matrices in signals, then 64 and
        # 112 while the stage wrapped each channel's columns).
        cpus(1)
        x = _multitone()

        def counting(cls):
            post_init, built = cls.__post_init__, []

            def counted(obj):
                built.append(obj)
                post_init(obj)

            monkeypatch.setattr(cls, "__post_init__", counted)
            return built

        signals, multivariate = counting(SampledSignal), counting(MultivariateSignal)
        envelope, arguments = memd_module.multivariate_mean_envelope, []

        def recorded(signal, *args):
            arguments.append(signal)
            return envelope(signal, *args)

        monkeypatch.setattr(memd_module, "multivariate_mean_envelope", recorded)
        decompose(x, 64, CAPPED)
        assert len(signals) <= most
        assert list(map(id, multivariate)) == list(map(id, arguments))

    @pytest.mark.parametrize("decompose", [memd, epmemd])
    def test_sd_threshold_has_no_effect(self, decompose):
        cfgs = [SiftConfig(sd_threshold=sd, max_imfs=2) for sd in (0.2, 1e-9)]
        out = [_component_bytes(decompose(_multitone(), 8, cfg)) for cfg in cfgs]
        assert out[0] == out[1]
