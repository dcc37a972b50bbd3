"""Local extrema detection and natural cubic-spline envelopes for sifting.

End effects are handled by mirror extension: the two extrema nearest each
end of the record are reflected about the record boundary before spline
fitting, so both envelopes are defined over the full record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .core import (
    InsufficientDataError,
    InvalidKnotsError,
    NoEnvelopeError,
    SampledSignal,
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


def detect_extrema(x: SampledSignal) -> ExtremaSet:
    """Find all strict interior extrema of ``x``.

    A plateau of equal consecutive values counts as a single extremum at
    its center sample. Record endpoints are never extrema.
    """
    v = x.samples
    n = v.size
    if n < 3:
        raise InsufficientDataError("extrema detection needs at least 3 samples")

    # Collapse runs of equal values to one representative per run.
    change = np.flatnonzero(v[1:] != v[:-1])
    # Interior run j spans [change[j-1] + 1, change[j]].
    starts = change[:-1] + 1
    centers = (starts + change[1:]) // 2
    rv = v[np.concatenate(([0], starts, [n - 1]))]
    left, mid, right = rv[:-2], rv[1:-1], rv[2:]
    is_max = (mid > left) & (mid > right)
    is_min = (mid < left) & (mid < right)
    return ExtremaSet(centers[is_max], mid[is_max], centers[is_min], mid[is_min])


def cubic_spline(knots_t, knots_v, query_t) -> np.ndarray:
    """Natural cubic spline through the knots, evaluated at ``query_t``.

    Second derivative is zero at both end knots; with two knots the
    spline degenerates to the straight line through them.
    """
    t = np.asarray(knots_t, dtype=float)
    y = np.asarray(knots_v, dtype=float)
    q = np.asarray(query_t, dtype=float)
    if t.size < 2 or t.size != y.size:
        raise InvalidKnotsError("need at least 2 knots with matching values")
    h = t[1:] - t[:-1]
    if np.any(h <= 0):
        raise InvalidKnotsError("knot abscissae must be strictly increasing")

    m = _natural_second_derivatives(h, y)
    # Clamp so queries beyond the knot range use the end polynomial pieces.
    idx = np.searchsorted(t, q, side="right")
    idx -= 1
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, t.size - 2, out=idx)
    idx1 = idx + 1
    hi = h[idx]
    a = (t[idx1] - q) / hi
    b = (q - t[idx]) / hi
    return (
        a * y[idx]
        + b * y[idx1]
        + ((a**3 - a) * m[idx] + (b**3 - b) * m[idx1]) * hi**2 / 6.0
    )


def _natural_second_derivatives(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives at the knots of a natural cubic spline with knot
    spacings ``h`` and values ``y``.

    The interior equations form a symmetric tridiagonal system, solved
    by LAPACK ``dgtsv`` (Gaussian elimination with partial pivoting).
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
    off = h[1:-1]
    _, _, _, m[1:-1], info = dgtsv(off.copy(), diag, off.copy(), rhs, overwrite_dl=1,
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


def _reflect(sym: float, idx: np.ndarray, val: np.ndarray):
    """The first two knots of ``idx`` mirrored about ``sym``, in time order."""
    return (2.0 * sym - idx[:2])[::-1], val[:2][::-1]


def _start_knots(max_i, max_v, min_i, min_v, x0: float):
    """Upper and lower knots before the record start (the mirror rule of
    Rilling, Flandrin & Goncalves 2003).

    Extrema are mirrored about the first extremum; when the start sample
    ``x0`` pokes outside the would-be envelopes it is anchored as an
    extra extremum and the reflection pivots on the record start
    instead, which keeps the end swing of the envelopes bounded. Only
    the three extrema of each kind nearest the start are read.
    """
    if max_i[0] < min_i[0]:
        if x0 > min_v[0]:
            sym = max_i[0]
            return _reflect(sym, max_i[1:], max_v[1:]), _reflect(sym, min_i, min_v)
        return (_reflect(0.0, max_i, max_v),
                _reflect(0.0, np.concatenate(([0.0], min_i[:1])),
                         np.concatenate(([x0], min_v[:1]))))
    if x0 < max_v[0]:
        sym = min_i[0]
        return _reflect(sym, max_i, max_v), _reflect(sym, min_i[1:], min_v[1:])
    return (_reflect(0.0, np.concatenate(([0.0], max_i[:1])),
                     np.concatenate(([x0], max_v[:1]))),
            _reflect(0.0, min_i, min_v))


def _boundary_knots(max_i, max_v, min_i, min_v, x0: float, xe: float, n: int):
    """Extend both extrema sets past the record ends by ``_start_knots``;
    the right end is the start of the time-reversed record."""
    e = float(n - 1)
    lm, ln = _start_knots(max_i, max_v, min_i, min_v, x0)
    rm, rn = ((e - i[::-1], v[::-1]) for i, v in _start_knots(
        e - max_i[:-4:-1], max_v[:-4:-1], e - min_i[:-4:-1], min_v[:-4:-1], xe))

    def _assemble(left, mid_i, mid_v, right):
        li, lv = left
        ri, rv = right
        ti = np.concatenate((li, mid_i, ri))
        tv = np.concatenate((lv, mid_v, rv))
        # Reflection can produce coincident knots (pivot on an extremum);
        # keep the first of any duplicate pair.
        keep = np.concatenate(([True], np.diff(ti) > 0))
        return ti[keep], tv[keep]

    # Anchor the endpoint whenever reflection failed to span the record.
    def _cover(ti, tv, value_left, value_right):
        if ti[0] > 0:
            ti = np.concatenate(([0.0], ti))
            tv = np.concatenate(([value_left], tv))
        if ti[-1] < e:
            ti = np.concatenate((ti, [e]))
            tv = np.concatenate((tv, [value_right]))
        return ti, tv

    ui, uv = _assemble(lm, max_i, max_v, rm)
    li, lv = _assemble(ln, min_i, min_v, rn)
    ui, uv = _cover(ui, uv, max(x0, max_v[0]), max(xe, max_v[-1]))
    li, lv = _cover(li, lv, min(x0, min_v[0]), min(xe, min_v[-1]))
    return (ui, uv), (li, lv)


def build_envelopes(x: SampledSignal) -> EnvelopePair:
    """Upper/lower natural-spline envelopes and their mean.

    Raises NoEnvelopeError when ``x`` is too short for extrema or has
    fewer than two maxima or two minima; the caller then treats ``x`` as
    the final residue. The envelopes may cross locally (real EMD
    behavior), which is not an error.
    """
    if x.n < 3:
        raise NoEnvelopeError("envelopes need at least 3 samples")
    ext = detect_extrema(x)
    if ext.max_idx.size < 2 or ext.min_idx.size < 2:
        raise NoEnvelopeError(
            f"need >= 2 maxima and >= 2 minima, got {ext.max_idx.size}/{ext.min_idx.size}"
        )
    query = np.arange(x.n, dtype=float)
    (ui, uv), (li, lv) = _boundary_knots(
        ext.max_idx.astype(float), ext.max_val, ext.min_idx.astype(float), ext.min_val,
        float(x.samples[0]), float(x.samples[-1]), x.n,
    )
    upper = cubic_spline(ui, uv, query)
    lower = cubic_spline(li, lv, query)
    return EnvelopePair(upper, lower, (upper + lower) / 2.0, ext)
