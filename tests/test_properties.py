"""Whole-pipeline properties of every decomposition over generated inputs.

Inputs are 3 to 512 samples, each exactly 0 or of magnitude between
1e-6 and 1e6: dense records that mix zeros and up to twelve decades of
amplitude, and records of one repeated value with scattered others
(plateaus, steps, spikes). memd and epmemd take the record and its
reversal as two channels. Examples are derandomized, so every run
checks the same ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emdkit import (EemdConfig, MultivariateSignal, SampledSignal, eemd, emd, epemd, epmemd,
                    memd, verify_linoep)

MAGNITUDES = st.floats(1e-6, 1e6)
VALUES = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda v: -v))


@st.composite
def dense(draw):
    n = draw(st.integers(3, 512))
    lo, hi = sorted(draw(st.lists(st.floats(-6, 6), min_size=2, max_size=2)))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = np.clip(10.0 ** rng.uniform(lo, hi, n), 1e-6, 1e6)
    return np.where(rng.random(n) < zeros, 0.0, rng.choice([-1.0, 1.0], n) * magnitude)


SAMPLES = st.one_of(
    dense(), st.integers(3, 512).flatmap(lambda n: arrays(np.float64, n, elements=VALUES, fill=VALUES)))


@pytest.mark.parametrize("algo", [emd, epemd])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(v=SAMPLES, k=st.sampled_from([200, -200]))
def test_pipeline_properties(algo, v, k):
    d = algo(SampledSignal(v, 1.0))
    err = np.max(np.abs(d.reconstruct().samples - v))
    assert err <= 1e-9 * np.max(np.abs(v)), "completeness"
    assert len(d.imfs) <= math.log2(v.size) + 1, "IMF count"
    if algo is epemd and len(d.components) >= 2:
        assert verify_linoep(d.components), "EPEMD chain"

    assert_scaled(algo(SampledSignal(np.ldexp(v, k), 1.0)), d, k)


@pytest.mark.parametrize("algo", [memd, epmemd])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(v=SAMPLES, k=st.sampled_from([200, -200]))
def test_multivariate_pipeline_properties(algo, v, k):
    x = np.stack((v, v[::-1]))
    md = algo(MultivariateSignal(tuple(SampledSignal(c, 1.0) for c in x)), 8)
    assert len(md.imfs) <= math.log2(v.size) + 1, "mode count"
    for d, c in zip(md.channels, x, strict=True):
        err = np.max(np.abs(d.reconstruct().samples - c))
        assert err <= 1e-9 * np.max(np.abs(c)), "completeness per channel"
        if algo is epmemd and len(d.components) >= 2:
            assert verify_linoep(d.components), "EPMEMD chain per channel"

    scaled = algo(MultivariateSignal(tuple(SampledSignal(np.ldexp(c, k), 1.0) for c in x)), 8)
    for a, b in zip(scaled.channels, md.channels, strict=True):
        assert_scaled(a, b, k)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(v=SAMPLES, k=st.sampled_from([200, -200]))
def test_ensemble_properties(v, k):
    # Completeness is approximate by design: the ensemble's noise stays.
    cfg = EemdConfig(ensemble_size=4)
    d = eemd(SampledSignal(v, 1.0), ecfg=cfg)
    assert len(d.imfs) <= math.log2(v.size) + 1, "IMF count"
    assert_scaled(eemd(SampledSignal(np.ldexp(v, k), 1.0), ecfg=cfg), d, k)


def assert_scaled(scaled, d, k):
    assert len(scaled.imfs) == len(d.imfs), "IMF count under 2**k scaling"
    for a, b in zip(scaled.components, d.components, strict=True):
        assert np.array_equal(a.samples, np.ldexp(b.samples, k)), "2**k scaling"
    assert scaled.dc_constant == np.ldexp(d.dc_constant, k)
