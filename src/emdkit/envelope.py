"""Local extrema detection and natural cubic-spline envelopes for sifting.

End effects are handled by mirror extension: the two extrema nearest each
end of the record are reflected about the record boundary before spline
fitting, so both envelopes are defined over the full record.

``cubic_spline`` works in two halves: a layout (spacings, each query's
piece and its weights), which depends only on the knot abscissae and
the queries, then the solve and evaluation for the knot values. The last
layout is memoised, so MEMD's channels, splined through the same knot
instants on the same grid, compute it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .core import (
    InsufficientDataError,
    InvalidKnotsError,
    NoEnvelopeError,
)


@dataclass(frozen=True, eq=False)  # arrays: compare fields explicitly
class ExtremaSet:
    """Interior strict extrema, plateau-collapsed: sample indices (int)
    and values (float) of the maxima and of the minima, in time order."""

    max_idx: np.ndarray
    max_val: np.ndarray
    min_idx: np.ndarray
    min_val: np.ndarray

    @property
    def n_extrema(self) -> int:
        return self.max_idx.size + self.min_idx.size


@dataclass(frozen=True, eq=False)  # arrays: compare fields explicitly
class EnvelopePair:
    """Envelope samples, their mean, and the extrema they were splined through."""

    upper: np.ndarray
    lower: np.ndarray
    mean: np.ndarray
    extrema: ExtremaSet


def _samples(x) -> np.ndarray:
    """``x`` as a float array; ValueError unless it is 1-D and finite."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or not np.isfinite(v).all():
        raise ValueError("samples must be a finite 1-D array")
    return v


def detect_extrema(x) -> ExtremaSet:
    """Find all strict interior extrema of the 1-D sample array ``x``.

    A plateau of equal consecutive values counts as a single extremum at
    its center sample. Record endpoints are never extrema.
    """
    v = _samples(x)
    n = v.size
    if n < 3:
        raise InsufficientDataError("extrema detection needs at least 3 samples")

    # Collapse runs of equal values to one representative per run.
    change = (v[1:] != v[:-1]).nonzero()[0]
    # Interior run j spans [change[j-1] + 1, change[j]].
    starts = change[:-1] + 1
    centers = (starts + change[1:]) >> 1
    rv = v[np.concatenate(([0], starts, [n - 1]))]
    # Neighbouring runs differ, so an interior run is a maximum where the
    # record rises into it and falls out of it, a minimum where the reverse.
    up = rv[1:] > rv[:-1]
    is_max = (up[:-1] > up[1:]).nonzero()[0]
    is_min = (up[:-1] < up[1:]).nonzero()[0]
    mid = rv[1:-1]
    return ExtremaSet(centers[is_max], mid[is_max], centers[is_min], mid[is_min])


#: The last ``_layout``: one ``(key, layout)`` tuple, replaced whole in
#: place (never rebound), so each caller reads one consistent entry.
_LAYOUT_MEMO = [None]


def cubic_spline(knots_t, knots_v, query_t) -> np.ndarray:
    """Natural cubic spline through the knots, evaluated at ``query_t``
    (any shape; the result has its shape).

    Second derivative is zero at both end knots; with two knots the
    spline degenerates to the straight line through them.
    """
    t = np.asarray(knots_t, dtype=float)
    y = np.asarray(knots_v, dtype=float)
    q = np.asarray(query_t, dtype=float)
    if t.ndim != 1 or t.size < 2 or t.shape != y.shape:
        raise InvalidKnotsError("need a 1-D array of at least 2 knots with matching values")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError("knots must be finite")
    h, idx, a, b, ca, cb, hi2 = _layout(t, q.reshape(-1))
    m = _natural_second_derivatives(h, y)
    # _evaluate's expression, in its order, with the layout's weights.
    out = y[idx]
    out *= a
    w = y[1:][idx]
    w *= b
    out += w
    w = m[idx]
    np.multiply(ca, w, out=w)
    v = m[1:][idx]
    np.multiply(cb, v, out=v)
    w += v
    w *= hi2
    w /= 6.0
    out += w
    return out.reshape(q.shape)


def _layout(t: np.ndarray, q: np.ndarray):
    """What a spline through abscissae ``t`` (finite) at the 1-D queries
    ``q`` needs besides the knot values: spacings ``h``, each query's
    piece ``idx`` and the weights ``a``, ``b``, ``a**3 - a``, ``b**3 - b``
    and ``h[idx]**2`` of ``_evaluate``, as read-only arrays. The last
    layout is memoised under the bytes of ``t`` and ``q``, so splining
    several channels through the same knot instants computes it once."""
    key = (t.tobytes(), q.tobytes())
    memo = _LAYOUT_MEMO[0]
    if memo is not None and memo[0] == key:
        return memo[1]
    h = t[1:] - t[:-1]
    if np.any(h <= 0):
        raise InvalidKnotsError("knot abscissae must be strictly increasing")
    # Clamp so queries beyond the knot range use the end polynomial pieces.
    idx = np.searchsorted(t, q, side="right")
    idx -= 1
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, t.size - 2, out=idx)
    hi = h[idx]
    a = t[1:][idx]
    a -= q
    a /= hi
    b = q - t[idx]
    b /= hi
    ca = np.power(a, 3)
    ca -= a
    cb = np.power(b, 3)
    cb -= b
    hi *= hi
    layout = (h, idx, a, b, ca, cb, hi)
    for arr in layout:
        arr.flags.writeable = False
    _LAYOUT_MEMO[0] = (key, layout)
    return layout


def _evaluate(t, y, h, m, idx, q) -> np.ndarray:
    """The spline with knots ``t``, values ``y``, spacings ``h`` and second
    derivatives ``m`` at ``q``, each query on the piece from knot ``idx``
    to knot ``idx + 1``: ``a*y0 + b*y1 + ((a**3 - a)*m0 + (b**3 - b)*m1)
    * hi**2 / 6`` with ``a = (t1 - q)/hi``, ``b = (q - t0)/hi``, in that
    order of operations, with temporaries reused in place.
    """
    hi = h[idx]
    a = t[1:][idx]
    a -= q
    a /= hi
    b = q - t[idx]
    b /= hi
    out = y[idx]
    out *= a
    w = y[1:][idx]
    w *= b
    out += w
    np.power(a, 3, out=w)
    w -= a
    w *= m[idx]
    np.power(b, 3, out=a)
    a -= b
    a *= m[1:][idx]
    w += a
    hi *= hi
    w *= hi
    w /= 6.0
    out += w
    return out


def _natural_second_derivatives(h: np.ndarray, y: np.ndarray, starts=()) -> np.ndarray:
    """Second derivatives at the knots of a natural cubic spline with knot
    spacings ``h`` and values ``y``.

    The interior equations form a symmetric tridiagonal system, solved
    by LAPACK ``dgtsv`` (Gaussian elimination with partial pivoting).
    With ``starts`` the knots hold one spline per block, each block
    starting at a knot index in ``starts`` (the first at 0 implied) and
    holding at least 3 knots; the ``h`` entry before each start is no
    spacing. All blocks are solved in one block-diagonal system: the
    rows of the inner end knots become ``1 * m = 0`` and every coupling
    entry next to them is 0. Elimination then never pivots across a
    block and its multiplier there is exactly 0, so each block gets the
    same arithmetic as when solved alone.
    """
    m = np.zeros(y.size)
    if y.size == 2:
        return m
    diag = 2.0 * (h[:-1] + h[1:])
    s = (y[1:] - y[:-1]) / h
    rhs = 6.0 * (s[1:] - s[:-1])
    if not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if rhs.size == 1:  # the dgtsv wrapper rejects empty off-diagonals
        m[1] = rhs[0] / diag[0]
        return m
    # dgtsv overwrites all four arguments in place; the off-diagonals are
    # fresh copies so that ``h`` survives for the evaluation.
    dl = h[1:-1].copy()
    for s in starts:
        diag[s - 2:s] = 1.0
        rhs[s - 2:s] = 0.0
        dl[s - 3:s] = 0.0
    _, _, _, m[1:-1], info = dgtsv(dl, diag, dl.copy(), rhs, overwrite_dl=1,
                                   overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError("singular matrix")
    return m


def _mirror_extend(idx: np.ndarray, val: np.ndarray, n: int):
    """Reflect the two extrema nearest each end about the record boundary."""
    k = min(2, idx.size)
    left_i = -idx[:k][::-1]
    left_v = val[:k][::-1]
    right_i = 2 * (n - 1) - idx[-k:][::-1]
    right_v = val[-k:][::-1]
    return (
        np.concatenate((left_i, idx, right_i)),
        np.concatenate((left_v, val, right_v)),
    )


def _reflect(sym: float, idx: list, val: list):
    """The first two knots of ``idx`` mirrored about ``sym``, in time order."""
    return [2.0 * sym - i for i in idx[1::-1]], val[1::-1]


def _start_knots(max_i: list, max_v: list, min_i: list, min_v: list, x0: float):
    """Upper and lower knots before the record start (the mirror rule of
    Rilling, Flandrin & Goncalves 2003), from the (at most) three extrema
    of each kind nearest the start, as Python lists.

    Extrema are mirrored about the first extremum; when the start sample
    ``x0`` pokes outside the would-be envelopes it is anchored as an
    extra extremum and the reflection pivots on the record start
    instead, which keeps the end swing of the envelopes bounded.
    """
    if max_i[0] < min_i[0]:
        if x0 > min_v[0]:
            sym = max_i[0]
            return _reflect(sym, max_i[1:], max_v[1:]), _reflect(sym, min_i, min_v)
        return (_reflect(0.0, max_i, max_v),
                _reflect(0.0, [0.0, min_i[0]], [x0, min_v[0]]))
    if x0 < max_v[0]:
        sym = min_i[0]
        return _reflect(sym, max_i, max_v), _reflect(sym, min_i[1:], min_v[1:])
    return (_reflect(0.0, [0.0, max_i[0]], [x0, max_v[0]]),
            _reflect(0.0, min_i, min_v))


def _boundary_knots(max_i, max_v, min_i, min_v, x0: float, xe: float, n: int):
    """Upper and lower knot arrays ``(t, v)``: the extrema (indices int or
    float) extended past the record ends by ``_start_knots``, the right
    end being the start of the time-reversed record. Reflected knots
    always lie outside the extrema they extend; a record end that no
    reflection reaches is anchored at the nearer of the end sample and
    the end extremum."""
    e = float(n - 1)
    lm, ln = _start_knots(max_i[:3].tolist(), max_v[:3].tolist(),
                          min_i[:3].tolist(), min_v[:3].tolist(), x0)
    rm, rn = _start_knots([e - i for i in max_i[:-4:-1].tolist()], max_v[:-4:-1].tolist(),
                          [e - i for i in min_i[:-4:-1].tolist()], min_v[:-4:-1].tolist(), xe)

    def knots(left, mid_i, mid_v, right, pick):
        ti, tv = left
        ri = [e - i for i in right[0][::-1]]
        rv = right[1][::-1]
        if ti[0] > 0:
            ti, tv = [0.0] + ti, [pick(x0, mid_v[0])] + tv
        if ri[-1] < e:
            ri, rv = ri + [e], rv + [pick(xe, mid_v[-1])]
        return np.concatenate((ti, mid_i, ri)), np.concatenate((tv, mid_v, rv))

    return knots(lm, max_i, max_v, rm, max), knots(ln, min_i, min_v, rn, min)


def _grid_pair(ts, ys, n: int) -> np.ndarray:
    """The natural splines through the knot blocks ``ts[i]``/``ys[i]``
    (for envelopes: each row's upper, then lower knots) on the sample
    grid 0...n-1, as one array of ``len(ts) * n`` values, block after
    block: one block solve, one evaluation.

    The knots are whole numbers covering the grid, so the piece of each
    grid point follows from counting grid points per knot gap, with the
    point n-1 on a block's last piece, as a clamped search would place
    it.
    """
    t = np.concatenate(ts)
    y = np.concatenate(ys)
    ends = np.cumsum([b.size for b in ts]) - 1  # each block's last knot
    h = t[1:] - t[:-1]
    m = _natural_second_derivatives(h, y, (ends[:-1] + 1).tolist())
    c = t.astype(np.intp)
    np.maximum(c, 0, out=c)
    np.minimum(c, n, out=c)
    c[ends] = n
    counts = c[1:] - c[:-1]
    counts[ends[:-1]] = 0  # the gap between two blocks holds no grid point
    idx = np.repeat(np.arange(t.size - 1), counts)
    return _evaluate(t, y, h, m, idx, np.concatenate([np.arange(n, dtype=float)] * len(ts)))


#: Peak |knot value| range with ample headroom for the envelope arithmetic:
#: for records shorter than 2**40 samples no intermediate overflows, and
#: none leaves the normal range unless it is over 2**500 below the peak.
_SAFE_PEAK = (2.0**-500, 2.0**500)


def _envelope_knots(v: np.ndarray):
    """The extrema of the finite samples ``v``, the abscissae and values
    of their upper and lower knots, and the exponent k: outside
    ``_SAFE_PEAK`` the values are scaled by 2**k into [0.5, 1). Raises
    NoEnvelopeError as ``build_envelopes`` does."""
    if v.size < 3:
        raise NoEnvelopeError("envelopes need at least 3 samples")
    ext = detect_extrema(v)
    if ext.max_idx.size < 2 or ext.min_idx.size < 2:
        raise NoEnvelopeError(
            f"need >= 2 maxima and >= 2 minima, got {ext.max_idx.size}/{ext.min_idx.size}"
        )
    x0, xe = float(v[0]), float(v[-1])
    (ui, uv), (li, lv) = _boundary_knots(
        ext.max_idx, ext.max_val, ext.min_idx, ext.min_val, x0, xe, v.size)
    # Every knot value is an extremum or an end sample; the largest |value|
    # among them is the largest maximum or the smallest minimum, or an end.
    peak = max(float(ext.max_val.max()), -float(ext.min_val.min()), abs(x0), abs(xe))
    k = 0 if _SAFE_PEAK[0] <= peak <= _SAFE_PEAK[1] else -math.frexp(peak)[1]
    if k:
        uv, lv = np.ldexp(uv, k), np.ldexp(lv, k)
    return ext, [ui, li], [uv, lv], k


def _envelopes(knots: list, n: int):
    """The envelopes on the grid 0...n-1 for each ``_envelope_knots``
    result in ``knots``, from one block solve and one grid evaluation
    for all of them: the (upper, lower) pairs and their means, each as
    an array of rows."""
    ts = [t for _, kt, _, _ in knots for t in kt]
    ys = [y for _, _, ky, _ in knots for y in ky]
    pairs = _grid_pair(ts, ys, n).reshape(-1, 2, n) if ts else np.empty((0, 2, n))
    means = (pairs[:, 0] + pairs[:, 1]) / 2.0
    for pair, mean, (*_, k) in zip(pairs, means, knots):
        if k:
            with np.errstate(over="ignore"):  # an envelope past the float64 range is inf
                np.ldexp(pair, -k, out=pair)
                np.ldexp(mean, -k, out=mean)
    return pairs, means


def build_envelopes(x) -> EnvelopePair:
    """Upper/lower natural-spline envelopes of the samples ``x`` and their mean.

    Raises NoEnvelopeError when ``x`` is too short for extrema or has
    fewer than two maxima or two minima; the caller then treats ``x`` as
    the final residue. The envelopes may cross locally (real EMD
    behavior), which is not an error. At any finite amplitude the result
    is the envelope pair of ``x`` rescaled by a power of two, scaled
    back: outside ``_SAFE_PEAK`` the build runs on such a copy.
    """
    v = _samples(x)
    knots = _envelope_knots(v)
    pairs, means = _envelopes([knots], v.size)
    return EnvelopePair(pairs[0, 0], pairs[0, 1], means[0], knots[0])
