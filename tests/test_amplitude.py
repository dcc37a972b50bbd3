"""Decompositions and energy ratios at huge and tiny amplitudes.

Scaling a signal by 2**k is exact, so every ratio (IO_T, Pee, IO_jk,
EPEMD alphas, Gram-Schmidt coefficients) must come out bit for bit the
same as for the unscaled signal, and every component must scale exactly,
up to the top of the float64 range. Absolute energies beyond that range
are inf, without a warning.
"""

import warnings

import numpy as np
import pytest

from emdkit import (
    EemdConfig,
    MultivariateSignal,
    SampledSignal,
    SiftConfig,
    analytic_signal,
    eemd,
    emd,
    epemd,
    epmemd,
    memd,
    orthogonal_variants,
    ortho_report,
    verify_linoep,
)
from emdkit.gsom import GRAM_SCHMIDT_VARIANTS

SCALES = [900, -900, 500, -500]


def noise_pair(rng, k):
    x = rng.standard_normal(512)
    return SampledSignal(x, 1.0), SampledSignal(np.ldexp(x, k), 1.0)


def assert_scaled(got, ref, k):
    assert len(got.components) == len(ref.components)
    for a, b in zip(got.components, ref.components):
        assert np.array_equal(a.samples, np.ldexp(b.samples, k))
    assert got.dc_constant == np.ldexp(ref.dc_constant, k)


@pytest.mark.parametrize("k", SCALES)
def test_ortho_report_ratios_are_scale_free(rng, k):
    x0, x = noise_pair(rng, k)
    ref, got = ortho_report(x0, emd(x0)), ortho_report(x, emd(x))
    assert np.isfinite(got.io_total) and np.isfinite(got.pee)
    assert got.io_total == ref.io_total
    assert got.pee == ref.pee
    assert np.array_equal(got.io_pairs, ref.io_pairs)
    assert got.reconstruction_error == ref.reconstruction_error
    if abs(k) == 500:  # energies are still inside the float64 range
        assert got.signal_energy == np.ldexp(ref.signal_energy, 2 * k)
        assert got.total_component_energy == np.ldexp(ref.total_component_energy, 2 * k)


@pytest.mark.parametrize("k", SCALES)
def test_epemd_alphas_are_scale_free(rng, k):
    x0, x = noise_pair(rng, k)
    ref, got = epemd(x0), epemd(x)
    assert got.diagnostics["alphas"] == ref.diagnostics["alphas"]
    assert any(a != 0.0 for a in got.diagnostics["alphas"])
    assert_scaled(got, ref, k)
    assert verify_linoep(got.components)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("variant", GRAM_SCHMIDT_VARIANTS)
def test_gram_schmidt_variants_scale_exactly(rng, k, variant):
    x0, x = noise_pair(rng, k)
    ref = orthogonal_variants(emd(x0), variant)
    got = orthogonal_variants(emd(x), variant)
    assert_scaled(got, ref, k)
    assert np.array_equal(ortho_report(x, got).io_pairs, ortho_report(x0, ref).io_pairs)


@pytest.mark.parametrize("k", [600, -600, 900, -900, 1022])
def test_eemd_scales_exactly(rng, k):
    x = rng.standard_normal(256)
    cfg = EemdConfig(ensemble_size=4)
    ref = eemd(SampledSignal(x, 1.0), ecfg=cfg)
    got = eemd(SampledSignal(np.ldexp(x, k), 1.0), ecfg=cfg)
    assert_scaled(got, ref, k)
    assert got.diagnostics == ref.diagnostics


@pytest.mark.parametrize("scale", [1e306, 1e307])
def test_eemd_trial_sums_stay_in_range(rng, scale):
    # The default 100 trials: their running sums, unscaled, pass the
    # float64 maximum at these amplitudes.
    x = SampledSignal(rng.standard_normal(256) * scale, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = eemd(x)
    assert len(d.imfs) > 2
    assert np.isfinite(d.diagnostics["reconstruction_error"])


def test_eemd_of_subnormal_amplitude_has_no_imfs(rng):
    # emd's rule: below the normal range samples carry too few bits for
    # envelopes, whatever noise the ensemble adds in proportion.
    x = SampledSignal(rng.standard_normal(256) * 2.0 ** -1060, 1.0)
    d = eemd(x, ecfg=EemdConfig(ensemble_size=4))
    assert d.imfs == ()
    assert np.array_equal(d.residue.samples, x.samples)


@pytest.mark.parametrize("algo", [memd, epmemd])
def test_multivariate_of_subnormal_amplitude_has_no_imfs(rng, algo):
    x = MultivariateSignal(tuple(SampledSignal(c * 2.0 ** -1060, 1.0)
                                 for c in rng.standard_normal((2, 256))))
    d = algo(x, 8, SiftConfig(max_imfs=4))
    for dj, xj in zip(d.channels, x.channels, strict=True):
        assert dj.imfs == ()
        assert np.array_equal(dj.residue.samples, xj.samples)


@pytest.mark.parametrize("k", [1019, 1022])
@pytest.mark.parametrize("algo", [emd, epemd])
def test_decomposition_scales_exactly_near_the_float64_maximum(rng, algo, k):
    # White noise x 2**1022 peaks just below the float64 maximum; the
    # spline system's right-hand side alone can reach ~24x the peak.
    x0, x = noise_pair(rng, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = algo(x)
    ref = algo(x0)
    assert len(ref.imfs) > 2
    assert_scaled(got, ref, k)


@pytest.mark.parametrize("k", [900, -900, 1022])
@pytest.mark.parametrize("algo", [memd, epmemd])
def test_multivariate_decomposition_scales_exactly(rng, algo, k):
    x = rng.standard_normal((2, 128))
    cfg = SiftConfig(max_imfs=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = algo(MultivariateSignal(tuple(SampledSignal(np.ldexp(c, k), 1.0) for c in x)), 8, cfg)
    ref = algo(MultivariateSignal(tuple(SampledSignal(c, 1.0) for c in x)), 8, cfg)
    assert len(ref.imfs) > 2
    for g, r in zip(got.channels, ref.channels, strict=True):
        assert_scaled(g, r, k)


@pytest.mark.parametrize("k", [900, -900])
def test_analytic_signal_scales_exactly(rng, k):
    x = rng.standard_normal(512)
    ref = analytic_signal(SampledSignal(x, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = analytic_signal(SampledSignal(np.ldexp(x, k), 1.0))
    assert np.array_equal(got.amplitude, np.ldexp(ref.amplitude, k))
    assert np.array_equal(got.phase, ref.phase)
    assert np.array_equal(got.inst_freq, ref.inst_freq)


def test_ortho_report_energies_overflow_to_inf_silently(rng):
    x0, x = noise_pair(rng, 1000)
    d = emd(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ortho_report(x, d)
    ref = ortho_report(x0, emd(x0))
    assert got.signal_energy == np.inf and got.total_component_energy == np.inf
    assert np.isinf(got.leakage_matrix).any()
    assert np.isfinite(got.io_total) and np.isfinite(got.pee)
    assert got.io_total == ref.io_total and got.pee == ref.pee
