import numpy as np
import pytest

from emdkit import (
    InsufficientDataError,
    InvalidKnotsError,
    NoEnvelopeError,
    SampledSignal,
    build_envelopes,
    cubic_spline,
    detect_extrema,
)
from conftest import sine


def sig(values, rate=1.0):
    return SampledSignal(np.asarray(values, dtype=float), rate)


class TestDetectExtrema:
    def test_alternating(self):
        ext = detect_extrema(sig([1, 3, 1, 3, 1]))
        assert ext.max_idx.tolist() == [1, 3]
        assert ext.min_idx.tolist() == [2]

    def test_monotone_has_none(self):
        ext = detect_extrema(sig([1, 2, 3, 4, 5]))
        assert ext.max_idx.size == 0 and ext.min_idx.size == 0

    def test_sine_counts(self):
        ext = detect_extrema(sine(5.0, 1000.0, 1.0))
        assert ext.max_idx.size == 5
        assert ext.min_idx.size == 5

    def test_plateau_collapses_to_center(self):
        ext = detect_extrema(sig([0, 1, 2, 2, 2, 1, 0]))
        assert ext.max_idx.tolist() == [3]

    def test_endpoints_never_extrema(self):
        ext = detect_extrema(sig([5, 1, 5]))
        assert ext.min_idx.tolist() == [1]
        assert ext.max_idx.size == 0

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            detect_extrema(sig([1, 2]))

    def test_matches_bruteforce_scan(self, rng):
        for _ in range(200):
            v = rng.standard_normal(rng.integers(3, 60))
            ext = detect_extrema(sig(v))
            brute_max = [i for i in range(1, v.size - 1)
                         if v[i] > v[i - 1] and v[i] > v[i + 1]]
            brute_min = [i for i in range(1, v.size - 1)
                         if v[i] < v[i - 1] and v[i] < v[i + 1]]
            assert ext.max_idx.tolist() == brute_max
            assert ext.min_idx.tolist() == brute_min
            assert ext.max_idx.dtype.kind == "i" and ext.min_idx.dtype.kind == "i"

    def test_values_are_the_samples_at_the_indices(self, rng):
        v = np.round(rng.standard_normal(300), 1)  # rounding makes plateaus
        ext = detect_extrema(sig(v))
        np.testing.assert_array_equal(ext.max_val, v[ext.max_idx])
        np.testing.assert_array_equal(ext.min_val, v[ext.min_idx])
        assert ext.n_extrema == ext.max_idx.size + ext.min_idx.size > 0


def _dense_natural_spline(t, y, q):
    """Independent oracle: assemble and solve the full dense system."""
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    n = t.size
    h = np.diff(t)
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    A[0, 0] = A[-1, -1] = 1.0
    for i in range(1, n - 1):
        A[i, i - 1] = h[i - 1]
        A[i, i] = 2 * (h[i - 1] + h[i])
        A[i, i + 1] = h[i]
        rhs[i] = 6 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    m = np.linalg.solve(A, rhs)
    out = np.empty(len(q))
    for j, x in enumerate(q):
        i = min(max(np.searchsorted(t, x, side="right") - 1, 0), n - 2)
        a = (t[i + 1] - x) / h[i]
        b = (x - t[i]) / h[i]
        out[j] = (a * y[i] + b * y[i + 1]
                  + ((a ** 3 - a) * m[i] + (b ** 3 - b) * m[i + 1]) * h[i] ** 2 / 6)
    return out


class TestCubicSpline:
    def test_two_knots_is_linear(self):
        assert cubic_spline([0, 1], [0, 1], [0.5])[0] == pytest.approx(0.5)

    def test_constant_data(self):
        q = np.linspace(0, 2, 11)
        np.testing.assert_allclose(cubic_spline([0, 1, 2], [1, 1, 1], q), 1.0)

    def test_interpolates_knots_exactly(self, rng):
        t = np.sort(rng.uniform(0, 10, 5))
        t += np.arange(5) * 1e-3  # ensure strictly increasing
        y = rng.standard_normal(5)
        np.testing.assert_allclose(cubic_spline(t, y, t), y, atol=1e-12)

    def test_matches_dense_solve_oracle(self, rng):
        for _ in range(20):
            k = rng.integers(3, 12)
            t = np.sort(rng.uniform(0, 10, k))
            while np.any(np.diff(t) < 1e-6):
                t = np.sort(rng.uniform(0, 10, k))
            y = rng.standard_normal(k)
            q = np.linspace(t[0], t[-1], 200)
            got = cubic_spline(t, y, q)
            want = _dense_natural_spline(t, y, q)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_leaves_inputs_unmodified(self, rng):
        t = np.cumsum(rng.uniform(0.5, 2.0, 12))
        y = rng.standard_normal(12)
        q = np.linspace(t[0] - 1, t[-1] + 1, 101)
        t0, y0, q0 = t.copy(), y.copy(), q.copy()
        cubic_spline(t, y, q)
        np.testing.assert_array_equal(t, t0)
        np.testing.assert_array_equal(y, y0)
        np.testing.assert_array_equal(q, q0)

    def test_repeated_calls_are_byte_identical(self, rng):
        for k in (2, 3, 4, 40):
            t = np.cumsum(rng.uniform(0.5, 2.0, k))
            y = rng.standard_normal(k)
            q = np.linspace(t[0], t[-1], 77)
            first = cubic_spline(t, y, q)
            for _ in range(3):
                assert cubic_spline(t, y, q).tobytes() == first.tobytes()

    def test_rejects_non_finite_system(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            cubic_spline([0, 1, 2, 3], [0, 1e308, -1e308, 0], [0.5])

    def test_rejects_bad_knots(self):
        with pytest.raises(InvalidKnotsError):
            cubic_spline([0, 0, 1], [1, 2, 3], [0.5])
        with pytest.raises(InvalidKnotsError):
            cubic_spline([1, 0], [1, 2], [0.5])
        with pytest.raises(InvalidKnotsError):
            cubic_spline([0], [1], [0.0])


class TestBuildEnvelopes:
    def test_sine_mean_envelope_small_centrally(self):
        x = sine(5.0, 500.0, 2.0)
        env = build_envelopes(x)
        n = x.n
        central = env.mean[n // 10: -n // 10]
        assert float(np.max(np.abs(central))) < 0.05

    def test_single_bump_has_no_envelope(self):
        v = np.zeros(50)
        v[25] = 1.0
        with pytest.raises(NoEnvelopeError):
            build_envelopes(sig(v))

    def test_two_tone_upper_envelope_tracks_slow_component(self):
        rate, dur = 1000.0, 2.0
        t = np.arange(int(rate * dur)) / rate
        x = sig(np.sin(2 * np.pi * 3 * t) + 0.2 * np.sin(2 * np.pi * 30 * t), rate)
        env = build_envelopes(x)
        analytic_upper = np.sin(2 * np.pi * 3 * t) + 0.2
        n = x.n
        central = slice(n // 10, -n // 10)
        err = np.max(np.abs(env.upper[central] - analytic_upper[central]))
        assert err < 0.1 * 1.2  # within 10% of the slow-component amplitude

    def test_mean_is_exact_average(self):
        x = sine(7.0, 300.0, 1.0)
        env = build_envelopes(x)
        np.testing.assert_array_equal(
            env.mean, (env.upper + env.lower) / 2.0
        )

    def test_envelopes_cover_full_record(self):
        x = sine(3.0, 100.0, 1.0, phase=0.4)
        env = build_envelopes(x)
        assert env.upper.size == x.n and env.lower.size == x.n
        assert np.all(np.isfinite(env.upper))
        assert np.all(np.isfinite(env.lower))

    def test_end_rule_is_symmetric_in_time(self, rng):
        # Plateaus are left out on purpose: an even-length plateau centres
        # on its left-middle sample, so reversing the record moves that
        # extremum by one sample and the knots differ for that reason alone.
        from emdkit.envelope import _boundary_knots

        def knots(v):
            ext = detect_extrema(sig(v))
            return _boundary_knots(ext.max_idx.astype(float), ext.max_val,
                                   ext.min_idx.astype(float), ext.min_val,
                                   float(v[0]), float(v[-1]), v.size)

        checked = 0
        for n in range(8, 301):
            t = np.arange(n)
            freq, phase = rng.uniform(0.01, 0.45), rng.uniform(0.0, 2 * np.pi)
            for v in (rng.standard_normal(n), np.sin(2 * np.pi * freq * t + phase)):
                ext = detect_extrema(sig(v))
                if np.any(v[1:] == v[:-1]) or min(ext.max_idx.size, ext.min_idx.size) < 2:
                    continue
                e = float(n - 1)
                for (fi, fv), (ri, rv) in zip(knots(v), knots(v[::-1])):
                    np.testing.assert_array_equal(ri, e - fi[::-1])
                    np.testing.assert_array_equal(rv, fv[::-1])
                checked += 1
        assert checked > 500
