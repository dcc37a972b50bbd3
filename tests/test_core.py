import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdkit import (
    DimensionMismatchError,
    InsufficientDataError,
    SampledSignal,
    energy,
    inner_product,
)
from conftest import sine


def sig(values, rate=1.0):
    return SampledSignal(np.asarray(values, dtype=float), rate)


class TestSampledSignal:
    def test_rejects_short_signal(self):
        with pytest.raises(InsufficientDataError):
            SampledSignal(np.array([1.0]), 1.0)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            sig([1.0, float("nan")])
        with pytest.raises(ValueError):
            sig([1.0, float("inf")])

    def test_rejects_bad_rate(self):
        for rate in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                SampledSignal(np.array([1.0, 2.0]), rate)

    def test_samples_are_immutable(self):
        x = sig([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            x.samples[0] = 9.0

    def test_derived_properties(self):
        x = sig([0.0, 1.0, 2.0, 3.0], rate=2.0)
        assert x.n == 4
        assert x.dt == 0.5
        assert x.duration == 2.0
        np.testing.assert_allclose(x.times, [0.0, 0.5, 1.0, 1.5])

    def test_arithmetic(self):
        a = sig([1.0, 2.0])
        b = sig([3.0, 5.0])
        np.testing.assert_allclose((a + b).samples, [4.0, 7.0])
        np.testing.assert_allclose((a - b).samples, [-2.0, -3.0])
        np.testing.assert_allclose((2.0 * a).samples, [2.0, 4.0])

    def test_incompatible_operands_rejected(self):
        with pytest.raises(DimensionMismatchError):
            sig([1.0, 2.0]) + sig([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            sig([1.0, 2.0], rate=1.0) + sig([1.0, 2.0], rate=2.0)


class TestInnerProduct:
    def test_orthogonal_axis_vectors(self):
        assert inner_product(sig([1, 0]), sig([0, 1])) == 0.0

    def test_scaled_dot_product(self):
        assert inner_product(sig([1, 1], rate=2.0), sig([1, 1], rate=2.0)) == 1.0

    def test_harmonics_orthogonal_over_full_periods(self):
        a = sine(4.0, 256.0, 1.0)
        b = sine(8.0, 256.0, 1.0)
        assert abs(inner_product(a, b)) < 1e-10

    def test_matches_direct_summation(self, rng):
        a = rng.standard_normal(257)
        b = rng.standard_normal(257)
        rate = 37.0
        direct = sum(float(x) * float(y) for x, y in zip(a, b)) / rate
        got = inner_product(SampledSignal(a, rate), SampledSignal(b, rate))
        assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(sig([1, 2]), sig([1, 2, 3]))


class TestEnergy:
    def test_zero_signal(self):
        assert energy(sig([0, 0, 0])) == 0.0

    def test_pythagorean_values(self):
        assert energy(sig([3, 4])) == 25.0

    def test_sine_energy_matches_analytic(self):
        x = sine(1.0, 100.0, 10.0)  # 10 full periods, 1000 samples
        assert energy(x) == pytest.approx(5.0, rel=1e-6)


finite_arrays = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=8, max_size=64
)


class TestInnerProductProperties:
    @settings(max_examples=50, deadline=None)
    @given(finite_arrays, finite_arrays, finite_arrays,
           st.floats(-100, 100), st.floats(-100, 100))
    def test_bilinearity(self, a, b, c, alpha, beta):
        n = min(len(a), len(b), len(c))
        a, b, c = sig(a[:n]), sig(b[:n]), sig(c[:n])
        lhs = inner_product(alpha * a + beta * b, c)
        rhs = alpha * inner_product(a, c) + beta * inner_product(b, c)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale

    @settings(max_examples=50, deadline=None)
    @given(finite_arrays, finite_arrays)
    def test_cauchy_schwarz(self, a, b):
        n = min(len(a), len(b))
        a, b = sig(a[:n]), sig(b[:n])
        bound = energy(a) * energy(b)
        assert inner_product(a, b) ** 2 <= bound + 1e-12 * max(bound, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(finite_arrays, finite_arrays)
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = sig(a[:n]), sig(b[:n])
        assert inner_product(a, b) == inner_product(b, a)
