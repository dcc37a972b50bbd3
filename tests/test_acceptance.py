"""End-to-end acceptance suite: one test (or class) per guaranteed
property, with pinned tolerances."""

import numpy as np
import pytest

from emdkit import (
    Decomposition,
    SampledSignal,
    SiftConfig,
    SignalKind,
    SignalSpec,
    Variant,
    analytic_signal,
    cubic_spline,
    emd,
    energy,
    epemd,
    epmemd,
    generate,
    generate_multitone4,
    gram_schmidt,
    hilbert_spectrum,
    imf_property_report,
    inner_product,
    memd,
    orthogonal_variants,
    ortho_report,
    pee_identity_check,
    significance_test,
    spectral_ridge,
    sweep_io_t,
    white_noise_band,
)
from emdkit.emd import _extract_rows
from emdkit.siggen import MULTITONE4_FREQS
from test_envelope import _dense_natural_spline

NINE_KINDS = (SignalKind.LP, SignalKind.BP, SignalKind.HP, SignalKind.BS,
              SignalKind.AP, SignalKind.AM, SignalKind.FM, SignalKind.WGN,
              SignalKind.CHIRP)


class TestEnergyPreservation:
    """1. Per-stage orthogonalization keeps the component energies summing
    to the signal energy on the full benchmark signal family."""

    @pytest.mark.parametrize("kind", NINE_KINDS, ids=[k.value for k in NINE_KINDS])
    def test_epemd_energy_identity(self, kind):
        x = generate(SignalSpec(kind, seed=0))
        rep = ortho_report(x, epemd(x))
        assert abs(rep.pee) <= 1e-10
        assert abs(rep.io_total) <= 1e-12


class TestSamplingSweep:
    """2. Across sampling rates the energy-preserving chain stays leak-free
    while plain sifting exhibits severe leakage at some rates."""

    def test_sweep(self):
        rows = sweep_io_t(list(range(105, 401, 5)))
        assert len(rows) == 60
        io_emd = np.array([r[1] for r in rows])
        io_ep = np.array([r[2] for r in rows])
        assert np.max(np.abs(io_ep)) <= 1e-12
        assert np.max(np.abs(io_emd)) > 1.0


class TestEnergyErrorIdentity:
    """3. Pee equals 100 times the overall orthogonality index."""

    def test_hundred_random_decompositions(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            x = SampledSignal(rng.standard_normal(256), 32.0)
            worst = max(worst, pee_identity_check(ortho_report(x, emd(x))))
        assert worst <= 1e-9


def six_tone():
    t = np.arange(1024) / 256.0
    v = sum(np.sin(2 * np.pi * f * t) for f in (2, 4, 8, 16, 32, 64)) + 0.5
    return SampledSignal(v, 256.0)


@pytest.fixture(scope="module")
def decomp():
    x = six_tone()
    return x, emd(x)


class TestOrthogonalizedVariantSuite:
    """4. The post-hoc orthogonalization family on a six-tone signal."""

    @pytest.mark.parametrize("variant", [Variant.ROIMF, Variant.FOIMF])
    def test_full_orderings_leak_free(self, decomp, variant):
        x, d = decomp
        rep = ortho_report(x, orthogonal_variants(d, variant))
        assert abs(rep.pee) <= 1e-10

    def test_residue_exclusion_leaks_more(self, decomp):
        x, d = decomp
        io_o = ortho_report(x, orthogonal_variants(d, Variant.OIMF)).io_total
        io_r = ortho_report(x, orthogonal_variants(d, Variant.ROIMF)).io_total
        assert abs(io_o) >= abs(io_r)

    def test_uncorrelated_energy_split(self, decomp):
        x, d = decomp
        out = orthogonal_variants(d, Variant.ROUIMF)
        e_x = energy(x)
        e_split = (sum(energy(c) for c in out.components)
                   + out.dc_constant ** 2 * x.duration)
        assert abs(e_split - e_x) <= 1e-9 * e_x

    def test_uncorrelated_components_uncorrelated(self, decomp):
        _, d = decomp
        comps = orthogonal_variants(d, Variant.ROUIMF).components
        live = [c.samples for c in comps if float(np.std(c.samples)) > 0]
        corr = np.corrcoef(np.array(live))
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) <= 1e-6


class TestImfPropertyPreservation:
    """5. Reverse-order orthogonalization preserves the oscillatory-mode
    property at least as well as forward order on a multitone suite."""

    def test_reverse_order_wins(self):
        cfg = SiftConfig(sd_threshold=0.05, max_sift_iterations=200)
        rng = np.random.default_rng(0)
        t = np.arange(256 * 8) / 256.0
        wins = 0
        for _ in range(20):
            nt = int(rng.integers(3, 6))
            freqs = np.sort(rng.uniform(2, 60, nt))
            amps = rng.uniform(0.5, 2, nt)
            v = sum(a * np.sin(2 * np.pi * f * t + rng.uniform(0, 6.28))
                    for a, f in zip(amps, freqs))
            v = v + 0.2 * rng.standard_normal(t.size)
            d = emd(SampledSignal(v, 256.0), cfg)
            ro = sum(imf_property_report(
                orthogonal_variants(d, Variant.ROIMF).components))
            fo = sum(imf_property_report(
                orthogonal_variants(d, Variant.FOIMF).components))
            wins += ro >= fo
        assert wins >= 18


@pytest.fixture(scope="module")
def signal():
    return generate_multitone4(SignalSpec(SignalKind.MULTITONE4,
                                          sample_rate=256.0, duration=4.0,
                                          seed=11))


@pytest.fixture(scope="module")
def raw(signal):
    return memd(signal, 64)


class TestMultivariateSuite:
    """6. Four-tone four-channel decomposition: mode alignment, raw
    leakage, and its elimination by the energy-preserving variant."""

    def test_each_tone_isolated_in_every_channel(self, signal, raw):
        freqs = np.fft.rfftfreq(signal.channels[0].n, 1 / 256.0)
        peaks = np.array([
            [freqs[int(np.argmax(np.abs(np.fft.rfft(ch.samples))))]
             for ch in mode.channels]
            for mode in raw.imfs
        ])
        for f in MULTITONE4_FREQS:
            hits = np.all(np.abs(peaks - f) <= 1.0, axis=1)
            assert np.any(hits), f"no aligned mode for {f} Hz"

    def test_raw_modes_leak(self, signal, raw):
        worst = 0.0
        for j, ch in enumerate(signal.channels):
            d = Decomposition(tuple(m.channels[j] for m in raw.imfs),
                              raw.residue.channels[j], Variant.EMD)
            worst = max(worst, abs(ortho_report(ch, d).pee))
        assert worst > 1.0

    def test_energy_preserving_chain_does_not(self, signal):
        ep = epmemd(signal, 64)
        for j, ch in enumerate(signal.channels):
            d = Decomposition(tuple(m.channels[j] for m in ep.imfs),
                              ep.residue.channels[j], Variant.EPEMD)
            assert abs(ortho_report(ch, d).pee) <= 1e-10

    def test_reverse_orthogonalization_does_not(self, signal, raw):
        for j, ch in enumerate(signal.channels):
            d = Decomposition(tuple(m.channels[j] for m in raw.imfs),
                              raw.residue.channels[j], Variant.EMD)
            out = orthogonal_variants(d, Variant.ROIMF)
            assert abs(ortho_report(ch, out).pee) <= 1e-10


class TestChirpTimeFrequency:
    """7. The chirp's spectral ridge is clean under the energy-preserving
    decomposition, and zero padding provokes severe plain-EMD leakage."""

    def test_ridge_tracks_linear_ramp(self):
        x = generate(SignalSpec(SignalKind.CHIRP, sample_rate=10_000.0,
                                duration=0.3, f_start=100.0, f_end=200.0))
        h = hilbert_spectrum(epemd(x), n_freq_bins=1000, n_time_bins=50)
        ridge = spectral_ridge(h)
        k = len(ridge) // 10
        core = ridge[k: len(ridge) - k]
        times = h.time_bins[k: len(ridge) - k]
        assert np.all(np.diff(core) >= 0)
        true_if = 100.0 + (200.0 - 100.0) * times / 0.3
        assert np.max(np.abs(core - true_if)) <= 10.0

    def test_padded_chirp_leaks_under_plain_emd(self):
        x = generate(SignalSpec(SignalKind.CHIRP, sample_rate=10_000.0,
                                duration=0.3, f_start=100.0, f_end=200.0,
                                pad_zeros=40_000))
        rep = ortho_report(x, emd(x))
        assert abs(rep.pee) > 100.0


class TestHilbertOracle:
    """8. Analytic amplitude and instantaneous frequency of a pure cosine
    match the closed form over a wide relative-frequency range."""

    @pytest.mark.parametrize("ratio", [0.005, 0.02, 0.05, 0.1, 0.2])
    def test_cosine(self, ratio):
        rate = 1000.0
        freq = ratio * rate
        t = np.arange(16384) / rate
        attrs = analytic_signal(SampledSignal(np.cos(2 * np.pi * freq * t), rate))
        k = 16384 // 10
        amp = attrs.amplitude[k:-k]
        if_hz = attrs.inst_freq[k:-k]
        assert np.max(np.abs(amp - 1.0)) <= 0.01
        assert np.max(np.abs(if_hz - freq)) <= 0.005 * freq


@pytest.fixture(scope="module")
def shared_emd():
    """``emd`` memoized on (sample bytes, rate, config), and the lockstep
    row driver that ``white_noise_band`` sifts EMD batches with memoized
    on (row bytes, config, rate) and patched into ``emdkit.significance``: the
    Gram-Schmidt noise tests post-process the same 100 band-trial and 10
    scored white-noise EMDs."""
    memo = {}

    def cached(x, cfg=SiftConfig()):
        key = (x.samples.tobytes(), x.sample_rate, cfg)
        if key not in memo:
            memo[key] = emd(x, cfg)
        return memo[key]

    def cached_rows(rows, cfg, sample_rate, stages=None):
        if stages is not None:  # EPEMD: its alphas go to the caller's stages
            return _extract_rows(rows, cfg, sample_rate, stages)
        key = (rows.tobytes(), rows.shape, cfg, sample_rate)
        if key not in memo:
            memo[key] = _extract_rows(rows, cfg, sample_rate)
        return memo[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("emdkit.significance._extract_rows", cached_rows)
        yield cached


class TestNoiseSignificance:
    """9. White-noise components stay inside their own Monte-Carlo band
    for the leak-free variants, while forward-ordered orthogonalization
    pushes components outside."""

    LENGTH = 2 ** 14

    def _score(self, variant, emd):
        band = white_noise_band(self.LENGTH, variant, trials=100, seed=0)
        inside = total = 0
        seeds_with_outlier = 0
        for s in range(10):
            rng = np.random.default_rng([5000, s])
            x = SampledSignal(rng.standard_normal(self.LENGTH), 1.0)
            if variant is Variant.EPEMD:
                d = epemd(x)
            else:
                d = orthogonal_variants(emd(x), variant)
            dec = [p.inside_bounds for p in significance_test(d, band)
                   if p.inside_bounds is not None]
            inside += sum(dec)
            total += len(dec)
            seeds_with_outlier += any(not b for b in dec)
        return inside / total, seeds_with_outlier

    @pytest.mark.parametrize("variant", [Variant.EPEMD, Variant.ROIMF,
                                         Variant.ROUIMF])
    def test_leak_free_variants_inside(self, shared_emd, variant):
        frac, _ = self._score(variant, shared_emd)
        assert frac >= 0.90

    def test_forward_order_flags_outliers(self, shared_emd):
        _, seeds_with_outlier = self._score(Variant.FOIMF, shared_emd)
        assert seeds_with_outlier >= 6


class TestNumericalOracles:
    """10. Core numerics agree with independent dense reimplementations."""

    def test_gram_schmidt_matches_dense_qr(self):
        rng = np.random.default_rng(7)
        inputs = [SampledSignal(rng.standard_normal(64), 8.0) for _ in range(5)]
        res = gram_schmidt(inputs)
        y = np.array([s.samples for s in inputs]).T
        q, _ = np.linalg.qr(y)
        s = np.array([p.samples / np.linalg.norm(p.samples)
                      for p in res.orthogonal_components]).T
        np.testing.assert_allclose(np.abs(q.T @ s), np.eye(5), atol=1e-9)

    def test_spline_matches_dense_solve(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            t = np.sort(rng.uniform(0, 10, n))
            while np.min(np.diff(t)) < 1e-3:
                t = np.sort(rng.uniform(0, 10, n))
            y = rng.standard_normal(n)
            q = np.linspace(t[0], t[-1], 200)
            np.testing.assert_allclose(cubic_spline(t, y, q),
                                       _dense_natural_spline(t, y, q),
                                       atol=1e-10)

    def test_inner_product_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rate = float(rng.uniform(1.0, 500.0))
            a = SampledSignal(rng.standard_normal(128), rate)
            b = SampledSignal(rng.standard_normal(128), rate)
            direct = sum(float(u) * float(v)
                         for u, v in zip(a.samples, b.samples)) / rate
            assert abs(inner_product(a, b) - direct) <= 1e-12 * max(
                1.0, abs(direct))
