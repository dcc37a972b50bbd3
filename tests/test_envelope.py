import numpy as np
import pytest

from emdkit import (
    InsufficientDataError,
    InvalidKnotsError,
    NoEnvelopeError,
    build_envelopes,
    cubic_spline,
    detect_extrema,
)
from emdkit import envelope
from conftest import sine


class TestDetectExtrema:
    def test_alternating(self):
        ext = detect_extrema([1, 3, 1, 3, 1])
        assert ext.max_idx.tolist() == [1, 3]
        assert ext.min_idx.tolist() == [2]

    def test_monotone_has_none(self):
        ext = detect_extrema([1, 2, 3, 4, 5])
        assert ext.max_idx.size == 0 and ext.min_idx.size == 0

    def test_sine_counts(self):
        ext = detect_extrema(sine(5.0, 1000.0, 1.0).samples)
        assert ext.max_idx.size == 5
        assert ext.min_idx.size == 5

    def test_plateau_collapses_to_center(self):
        ext = detect_extrema([0, 1, 2, 2, 2, 1, 0])
        assert ext.max_idx.tolist() == [3]

    def test_endpoints_never_extrema(self):
        ext = detect_extrema([5, 1, 5])
        assert ext.min_idx.tolist() == [1]
        assert ext.max_idx.size == 0

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            detect_extrema([1, 2])

    def test_matches_bruteforce_scan(self, rng):
        for _ in range(200):
            v = rng.standard_normal(rng.integers(3, 60))
            ext = detect_extrema(v)
            brute_max = [i for i in range(1, v.size - 1)
                         if v[i] > v[i - 1] and v[i] > v[i + 1]]
            brute_min = [i for i in range(1, v.size - 1)
                         if v[i] < v[i - 1] and v[i] < v[i + 1]]
            assert ext.max_idx.tolist() == brute_max
            assert ext.min_idx.tolist() == brute_min
            assert ext.max_idx.dtype.kind == "i" and ext.min_idx.dtype.kind == "i"

    def test_values_are_the_samples_at_the_indices(self, rng):
        v = np.round(rng.standard_normal(300), 1)  # rounding makes plateaus
        ext = detect_extrema(v)
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


def _reference_start_knots(max_i, max_v, min_i, min_v, x0):
    """The array end-knot rule that ``build_envelopes`` must reproduce."""
    def reflect(sym, idx, val):
        return (2.0 * sym - idx[:2])[::-1], val[:2][::-1]

    if max_i[0] < min_i[0]:
        if x0 > min_v[0]:
            sym = max_i[0]
            return reflect(sym, max_i[1:], max_v[1:]), reflect(sym, min_i, min_v)
        return (reflect(0.0, max_i, max_v),
                reflect(0.0, np.concatenate(([0.0], min_i[:1])),
                        np.concatenate(([x0], min_v[:1]))))
    if x0 < max_v[0]:
        sym = min_i[0]
        return reflect(sym, max_i, max_v), reflect(sym, min_i[1:], min_v[1:])
    return (reflect(0.0, np.concatenate(([0.0], max_i[:1])),
                    np.concatenate(([x0], max_v[:1]))),
            reflect(0.0, min_i, min_v))


def _reference_envelopes(v):
    """Reference envelope build: array end knots, then one natural spline
    per envelope through ``cubic_spline`` on the sample grid."""
    n = v.size
    ext = detect_extrema(v)
    max_i, max_v = ext.max_idx.astype(float), ext.max_val
    min_i, min_v = ext.min_idx.astype(float), ext.min_val
    x0, xe, e = float(v[0]), float(v[-1]), float(n - 1)
    lm, ln = _reference_start_knots(max_i, max_v, min_i, min_v, x0)
    rm, rn = ((e - i[::-1], w[::-1]) for i, w in _reference_start_knots(
        e - max_i[:-4:-1], max_v[:-4:-1], e - min_i[:-4:-1], min_v[:-4:-1], xe))

    def knots(left, mid_i, mid_v, right, value_left, value_right):
        ti = np.concatenate((left[0], mid_i, right[0]))
        tv = np.concatenate((left[1], mid_v, right[1]))
        keep = np.concatenate(([True], np.diff(ti) > 0))
        ti, tv = ti[keep], tv[keep]
        if ti[0] > 0:
            ti, tv = np.concatenate(([0.0], ti)), np.concatenate(([value_left], tv))
        if ti[-1] < e:
            ti, tv = np.concatenate((ti, [e])), np.concatenate((tv, [value_right]))
        return ti, tv

    ui, uv = knots(lm, max_i, max_v, rm, max(x0, max_v[0]), max(xe, max_v[-1]))
    li, lv = knots(ln, min_i, min_v, rn, min(x0, min_v[0]), min(xe, min_v[-1]))
    query = np.arange(n, dtype=float)
    return cubic_spline(ui, uv, query), cubic_spline(li, lv, query), ui.size, li.size


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
        with pytest.raises(InvalidKnotsError):
            cubic_spline([[0, 1, 2]], [[0, 1, 0]], [0.5])
        with pytest.raises(InvalidKnotsError):
            cubic_spline([0, 1, 2], [[0, 1, 0]], [0.5])

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rejects_non_finite_knots_at_every_count(self, k):
        t, y = np.arange(k, dtype=float), np.ones(k)
        for bad in (np.nan, np.inf, -np.inf):
            for which in (t, y):
                for i in (0, k - 1):
                    tt, yy = t.copy(), y.copy()
                    (tt if which is t else yy)[i] = bad
                    with pytest.raises(ValueError):
                        cubic_spline(tt, yy, [0.5])

    def test_query_of_any_shape(self):
        t, y = [0, 1, 2], [0, 1, 0]
        for q in (0.5, np.float64(0.5), [0.5], [[0.5], [1.5]], np.empty((0, 3))):
            got = cubic_spline(t, y, q)
            flat = np.asarray(q, dtype=float).reshape(-1)
            assert got.shape == np.shape(q)
            assert got.tobytes() == cubic_spline(t, y, flat).tobytes()
        assert float(cubic_spline(t, y, 0.5)) == cubic_spline(t, y, [0.5])[0]


def _memo_free(t, y, q):
    """``cubic_spline`` from an empty layout memo: the reference."""
    envelope._LAYOUT_MEMO[0] = None
    return cubic_spline(t, y, q)


def _knot_set(rng, k, n):
    """``k`` strictly increasing whole-number abscissae spanning past the
    grid 0...n-1, as MEMD's mirror-extended extrema do."""
    inner = np.sort(rng.choice(np.arange(1, n - 1), k - 2, replace=False))
    return np.concatenate(([-3.0], inner, [n + 2.0]))


class TestSplineLayoutMemo:
    """The layout memo behind ``cubic_spline`` changes no result byte."""

    def _check(self, calls):
        """Each ``(t, y, q)`` call, made in sequence through the memo,
        against its memo-free result; the references come first."""
        want = [_memo_free(t, y, q).tobytes() for t, y, q in calls]
        for (t, y, q), w in zip(calls, want):
            assert cubic_spline(t, y, q).tobytes() == w

    def test_repeated_and_alternating_abscissae(self, rng):
        q = np.arange(300, dtype=float)
        sets = [_knot_set(rng, 40, 300) for _ in range(3)]
        order = [0, 0, 0, 1, 0, 1, 1, 2, 0, 2, 2, 1, 1, 0]
        self._check([(sets[i], rng.standard_normal(40), q) for i in order])

    def test_one_ulp_nudge(self, rng):
        q = np.arange(200, dtype=float) + 0.25
        t = _knot_set(rng, 30, 200)
        y = rng.standard_normal(30)
        # The first knot is left out: 1 ulp of -3 is lost in its spacing.
        for i in (7, 15, 29):
            for direction in (-np.inf, np.inf):
                nudged = t.copy()
                nudged[i] = np.nextafter(t[i], direction)
                assert _memo_free(nudged, y, q).tobytes() != _memo_free(t, y, q).tobytes()
                self._check([(t, y, q), (nudged, y, q), (t, y, q)])

    def test_signed_zero_knot(self):
        # The knot at 0.0 or -0.0 gives a query at -0.0 a result of the
        # same sign, so equal-comparing keys would mix the two up.
        t = np.array([-2.0, 0.0, 1.0, 2.0])
        y = np.array([-1.0, -0.0, -0.0, -1.0])
        q = np.array([-0.0, 0.0, 0.5, -0.5])
        negative = t.copy()
        negative[1] = -0.0
        assert _memo_free(t, y, q).tobytes() != _memo_free(negative, y, q).tobytes()
        self._check([(t, y, q), (negative, y, q), (t, y, q), (negative, y, q)])

    def test_shorter_and_shifted_queries(self, rng):
        t = _knot_set(rng, 25, 150)
        y = rng.standard_normal(25)
        grid = np.arange(150, dtype=float)
        queries = [grid, grid[:-1], grid[1:], grid + 0.5, grid, grid[:1], grid[:0], grid]
        self._check([(t, y, q) for q in queries])

    def test_same_query_other_knots(self, rng):
        q = np.arange(128, dtype=float)
        y = rng.standard_normal(20)
        self._check([(_knot_set(rng, 20, 128), y, q) for _ in range(6)])

    def test_caller_mutates_its_arrays_in_place(self, rng):
        t = _knot_set(rng, 20, 100)
        y = rng.standard_normal(20)
        q = np.arange(100, dtype=float)
        first = _memo_free(t, y, q)
        assert cubic_spline(t, y, q).tobytes() == first.tobytes()
        t[5] += 0.5
        want = _memo_free(t, y, q).tobytes()
        t[5] -= 0.5
        cubic_spline(t, y, q)
        t[5] += 0.5
        assert cubic_spline(t, y, q).tobytes() == want
        q += 0.25
        want = _memo_free(t, y, q).tobytes()
        q -= 0.25
        cubic_spline(t, y, q)
        q += 0.25
        assert cubic_spline(t, y, q).tobytes() == want

    def test_non_increasing_knots_raise_on_every_call(self, rng):
        q = np.arange(100, dtype=float)
        t = _knot_set(rng, 20, 100)
        y = rng.standard_normal(20)
        for bad_at in (1, 10, 19):
            bad = t.copy()
            bad[bad_at] = bad[bad_at - 1]
            cubic_spline(t, y, q)
            for _ in range(3):
                with pytest.raises(InvalidKnotsError):
                    cubic_spline(bad, y, q)
            assert cubic_spline(t, y, q).tobytes() == _memo_free(t, y, q).tobytes()

    def test_stored_layout_is_private_and_read_only(self, rng):
        t = _knot_set(rng, 20, 100)
        y = rng.standard_normal(20)
        q = np.arange(100, dtype=float)
        out = _memo_free(t, y, q)
        key, layout = envelope._LAYOUT_MEMO[0]
        assert key == (t.tobytes(), q.tobytes())
        for arr in layout:
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, a) for a in (t, y, q, out))
        out[:] = 7.0
        assert cubic_spline(t, y, q).tobytes() == _memo_free(t, y, q).tobytes()

    def test_threads_match_serial_bytes(self, rng):
        # More threads than cores, switching every microsecond, all
        # replacing the one memo entry with their own knot sets.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        q = np.arange(512, dtype=float)
        jobs = [(_knot_set(rng, 60, 512), rng.standard_normal((40, 60))) for _ in range(8)]

        def run(job):
            t, ys = job
            return [cubic_spline(t, y, q).tobytes() for y in ys]

        want = [[_memo_free(t, y, q).tobytes() for y in ys] for t, ys in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(run, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_multivariate_mean_envelope_matches_memo_free(self, monkeypatch):
        import sys

        from emdkit import SignalKind, SignalSpec, generate_multitone4

        memd_module = sys.modules["emdkit.memd"]  # ``emdkit.memd`` is the function

        x = generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                           duration=4.0, seed=3))
        dirs = memd_module.hammersley_directions(4, 64)
        got = memd_module.multivariate_mean_envelope(x, dirs)
        monkeypatch.setattr(memd_module, "cubic_spline", _memo_free)
        assert got.tobytes() == memd_module.multivariate_mean_envelope(x, dirs).tobytes()


class TestBuildEnvelopes:
    def test_sine_mean_envelope_small_centrally(self):
        x = sine(5.0, 500.0, 2.0).samples
        env = build_envelopes(x)
        n = x.size
        central = env.mean[n // 10: -n // 10]
        assert float(np.max(np.abs(central))) < 0.05

    def test_single_bump_has_no_envelope(self):
        v = np.zeros(50)
        v[25] = 1.0
        with pytest.raises(NoEnvelopeError):
            build_envelopes(v)

    def test_two_tone_upper_envelope_tracks_slow_component(self):
        rate, dur = 1000.0, 2.0
        t = np.arange(int(rate * dur)) / rate
        x = np.sin(2 * np.pi * 3 * t) + 0.2 * np.sin(2 * np.pi * 30 * t)
        env = build_envelopes(x)
        analytic_upper = np.sin(2 * np.pi * 3 * t) + 0.2
        n = x.size
        central = slice(n // 10, -n // 10)
        err = np.max(np.abs(env.upper[central] - analytic_upper[central]))
        assert err < 0.1 * 1.2  # within 10% of the slow-component amplitude

    def test_mean_is_exact_average(self):
        x = sine(7.0, 300.0, 1.0).samples
        env = build_envelopes(x)
        np.testing.assert_array_equal(
            env.mean, (env.upper + env.lower) / 2.0
        )

    def test_envelopes_cover_full_record(self):
        x = sine(3.0, 100.0, 1.0, phase=0.4).samples
        env = build_envelopes(x)
        assert env.upper.size == x.size and env.lower.size == x.size
        assert np.all(np.isfinite(env.upper))
        assert np.all(np.isfinite(env.lower))


    def test_matches_reference_build_byte_for_byte(self, rng):
        # White noise, plateau-heavy rounded noise (signed zeros included),
        # random walks, sines at 1e+-5, sines of about two periods (two
        # extrema of a kind: the smallest systems), n = 3...400, and copies
        # of the noise and walks scaled by 2**+-900.
        built = smallest = 0
        fewest = np.inf
        for n in range(3, 401):
            t = np.arange(n)
            noise = rng.standard_normal(n)
            walk = np.cumsum(rng.standard_normal(n))
            amp = 1e5 if n % 2 else 1e-5
            signals = [
                noise,
                np.round(rng.standard_normal(n) * rng.uniform(0.3, 3.0)),
                walk,
                amp * np.sin(2 * np.pi * rng.uniform(0.01, 0.45) * t
                             + rng.uniform(0.0, 2 * np.pi)),
                np.sin(2 * np.pi * rng.uniform(1.6, 2.4) * t / n
                       + rng.uniform(0.0, 2 * np.pi)),
            ]
            signals += [np.ldexp(w, k) for w in (noise, walk) for k in (900, -900)]
            for v in signals:
                ext = detect_extrema(v)
                if min(ext.max_idx.size, ext.min_idx.size) < 2:
                    with pytest.raises(NoEnvelopeError):
                        build_envelopes(v)
                    continue
                upper, lower, ku, kl = _reference_envelopes(v)
                env = build_envelopes(v)
                assert env.upper.tobytes() == upper.tobytes()
                assert env.lower.tobytes() == lower.tobytes()
                assert env.mean.tobytes() == ((upper + lower) / 2.0).tobytes()
                built += 1
                fewest = min(fewest, ku, kl)
                smallest += min(ku, kl) == 5
        assert built > 3000
        # Two extrema of a kind give the smallest system: five knots, three
        # interior equations. A reflection adds at least one knot at each
        # end, so no envelope system is 1x1.
        assert fewest == 5 and smallest > 100

    def test_block_solve_matches_two_splines(self, rng):
        # Whole-number knots covering the grid 0...n-1, some past its ends,
        # blocks of 3 knots (one interior equation, a 1x1 block) and more;
        # values drawn from a few integers, so runs of +-0.0 occur.
        from emdkit.envelope import _grid_pair

        def knots(n, k):
            inner = np.sort(rng.choice(np.arange(1, n - 1), k - 2, replace=False))
            t = np.concatenate(([-rng.integers(0, 4)], inner, [n - 1 + rng.integers(0, 4)]))
            if rng.random() < 0.5:
                t = np.concatenate(([t[0] - rng.integers(1, 5)], t, [t[-1] + rng.integers(1, 5)]))
            v = rng.standard_normal(t.size) if rng.random() < 0.5 else \
                np.round(rng.standard_normal(t.size)) * rng.choice([-1.0, 1.0])
            return t.astype(float), v

        for _ in range(500):
            n = int(rng.integers(4, 60))
            ui, uv = knots(n, int(rng.integers(3, min(n, 12))))
            li, lv = knots(n, int(rng.integers(3, min(n, 12))))
            grid = np.arange(n, dtype=float)
            want = np.concatenate((cubic_spline(ui, uv, grid), cubic_spline(li, lv, grid)))
            assert _grid_pair([ui, li], [uv, lv], n).tobytes() == want.tobytes()

    def test_end_rule_is_symmetric_in_time(self, rng):
        # Plateaus are left out on purpose: an even-length plateau centres
        # on its left-middle sample, so reversing the record moves that
        # extremum by one sample and the knots differ for that reason alone.
        from emdkit.envelope import _boundary_knots

        def knots(v):
            ext = detect_extrema(v)
            return _boundary_knots(ext.max_idx.astype(float), ext.max_val,
                                   ext.min_idx.astype(float), ext.min_val,
                                   float(v[0]), float(v[-1]), v.size)

        checked = 0
        for n in range(8, 301):
            t = np.arange(n)
            freq, phase = rng.uniform(0.01, 0.45), rng.uniform(0.0, 2 * np.pi)
            for v in (rng.standard_normal(n), np.sin(2 * np.pi * freq * t + phase)):
                ext = detect_extrema(v)
                if np.any(v[1:] == v[:-1]) or min(ext.max_idx.size, ext.min_idx.size) < 2:
                    continue
                e = float(n - 1)
                for (fi, fv), (ri, rv) in zip(knots(v), knots(v[::-1])):
                    np.testing.assert_array_equal(ri, e - fi[::-1])
                    np.testing.assert_array_equal(rv, fv[::-1])
                checked += 1
        assert checked > 500
