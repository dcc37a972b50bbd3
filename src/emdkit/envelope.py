"""Local extrema detection and natural cubic-spline envelopes for sifting.

End effects: ``build_envelopes`` extends the knots past both record ends
by the mirror rule of Rilling, Flandrin & Goncalves 2003 (``_end_knots``,
at the start and the time-reversed end); MEMD's envelopes reflect the
two extrema nearest each end about the record boundary.

Every spline is evaluated by ``_evaluate`` from ``_weights``; a long
record's grid in slices whose temporaries the heap reuses (``_BATCH_SAMPLES``).
``cubic_spline`` memoises its last layout (spacings, each query's piece
and its weights), so MEMD's channels, splined through the same knot
instants on the same grid, compute it once.

The spline's one LAPACK routine, ``dgtsv``, is taken from scipy's
compiled wrapper ``scipy.linalg._flapack``, loaded alone from scipy's
directory (``find_spec``: no scipy package set-up runs), as the
``scipy.linalg`` package would add ~0.25 s and ~24 MB to every process
for nothing else. The extension is created once per process, so a later
``import scipy.linalg`` shares it, and one imported before is reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np
from numpy.linalg import LinAlgError  # is scipy.linalg.LinAlgError

from .core import (
    InsufficientDataError,
    InvalidKnotsError,
    NoEnvelopeError,
)

# find_spec runs none of scipy's code; without scipy, __import__ raises.
_dir = (find_spec("scipy") or __import__("scipy")).submodule_search_locations[0]
_spec = PathFinder.find_spec("scipy.linalg._flapack", [_dir + "/linalg"])
_flapack = module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
dgtsv = _flapack.dgtsv
del _dir, _spec, _flapack


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
    h, idx, *weights = _layout(t, q.reshape(-1))
    return _evaluate(y, _natural_second_derivatives(h, y), idx, weights).reshape(q.shape)


def _layout(t: np.ndarray, q: np.ndarray):
    """What a spline through abscissae ``t`` (finite) at the 1-D queries
    ``q`` needs besides the knot values: spacings ``h``, each query's
    piece ``idx`` and its ``_weights``, as read-only arrays. The last
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
    layout = (h, idx, *_weights(t, h, idx, q))
    for arr in layout:
        arr.flags.writeable = False
    _LAYOUT_MEMO[0] = (key, layout)
    return layout


def _weights(t, h, idx, q):
    """The weights of queries ``q`` on the pieces from knot ``idx`` to
    ``idx + 1`` of abscissae ``t`` with spacings ``h``: ``a = (t1 - q)/hi``,
    ``b = (q - t0)/hi``, ``a**3 - a``, ``b**3 - b`` and ``hi**2``."""
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
    return a, b, ca, cb, hi


def _evaluate(y, m, idx, weights, out=None) -> np.ndarray:
    """The spline with knot values ``y`` and second derivatives ``m`` at
    the queries of ``weights`` (``_weights``), each on the piece from knot
    ``idx`` to knot ``idx + 1``: ``a*y0 + b*y1 + ((a**3 - a)*m0 +
    (b**3 - b)*m1) * hi**2 / 6``, in that order of operations, into ``out``."""
    a, b, ca, cb, hi2 = weights
    out = y.take(idx, out=out, mode="clip")  # idx is in range; "raise" buffers out
    out *= a
    w = y[1:][idx]
    w *= b
    out += w
    w = m[idx]
    w *= ca
    v = m[1:][idx]
    v *= cb
    w += v
    w *= hi2
    w /= 6.0
    out += w
    return out


def _natural_second_derivatives(h: np.ndarray, y: np.ndarray, starts=()) -> np.ndarray:
    """Second derivatives at the knots of a natural cubic spline with knot
    spacings ``h`` and values ``y``.

    The interior equations form a symmetric tridiagonal system, solved
    by LAPACK ``dgtsv`` (Gaussian elimination with partial pivoting),
    from scipy's compiled wrapper alone: see the module docstring.
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


def _end_knots(x0: float, ui: list, uv: list, li: list, lv: list):
    """Upper and lower knots ``(t, v)`` before the record start, as Python
    lists, by the mirror rule of Rilling, Flandrin & Goncalves 2003, from
    the start sample ``x0`` and the (at most) three maxima ``ui``/``uv``
    and minima ``li``/``lv`` nearest the start, in time order.

    Extrema are mirrored about the first extremum, whose own kind then
    reflects from its second on. When ``x0`` pokes outside the would-be
    envelopes, the other kind takes it as an extra extremum at the start
    and the reflection pivots on the start instead, which keeps the end
    swing of the envelopes bounded. A kind whose reflected knots all lie
    after the start is anchored there, at the outer of ``x0`` and its
    first extremum."""
    u0, l0 = uv[0], lv[0]
    if ui[0] < li[0]:
        if x0 > l0:
            sym, ui, uv = ui[0], ui[1:], uv[1:]
        else:
            sym, li, lv = 0.0, [0.0, li[0]], [x0, l0]
    elif x0 < u0:
        sym, li, lv = li[0], li[1:], lv[1:]
    else:
        sym, ui, uv = 0.0, [0.0, ui[0]], [x0, u0]
    out = []
    for i, v, pick, first in ((ui, uv, max, u0), (li, lv, min, l0)):
        t, v = [2.0 * sym - j for j in i[1::-1]], v[1::-1]
        if t[0] > 0:
            t, v = [0.0] + t, [pick(x0, first)] + v
        out.append((t, v))
    return out


def _boundary_knots(max_i, max_v, min_i, min_v, x0: float, xe: float, n: int):
    """Upper and lower knot arrays ``(t, v)``: the extrema (indices int or
    float) extended past both record ends by ``_end_knots``, run on the start
    and on the time-reversed end; reflections lie outside the extrema."""
    e = float(n - 1)
    hu, hl = _end_knots(x0, max_i[:3].tolist(), max_v[:3].tolist(),
                        min_i[:3].tolist(), min_v[:3].tolist())
    tu, tl = _end_knots(xe, [e - i for i in max_i[:-4:-1].tolist()], max_v[:-4:-1].tolist(),
                        [e - i for i in min_i[:-4:-1].tolist()], min_v[:-4:-1].tolist())
    return ((np.concatenate((hu[0], max_i, [e - i for i in tu[0][::-1]])),
             np.concatenate((hu[1], max_v, tu[1][::-1]))),
            (np.concatenate((hl[0], min_i, [e - i for i in tl[0][::-1]])),
             np.concatenate((hl[1], min_v, tl[1][::-1]))))


#: Samples in a lockstep batch: 8 rows at n = 1,024, one from 8,193 up (16
#: rows were ~6% slower on a noise band: their grid outgrows the cache). A
#: grid of more queries than a batch's two envelopes is evaluated this many
#: at a time: each temporary is then 64 KiB, below glibc's 128 KiB mmap
#: threshold, so the heap reuses it, where whole builds faulted it in anew.
_BATCH_SAMPLES = 8192


def _grid_pair(ts, ys, n: int) -> np.ndarray:
    """The natural splines through the knot blocks ``ts[i]``/``ys[i]``
    (for envelopes: each row's upper, then lower knots) on the sample
    grid 0...n-1, as one array of ``len(ts) * n`` values, block after
    block: one block solve, then one evaluation, in slices of
    ``_BATCH_SAMPLES`` queries past twice that: the same arithmetic, on
    temporaries below the mmap threshold, which the heap reuses.

    The knots are whole numbers covering the grid, so the piece of each
    grid point follows from counting grid points per knot gap, with the
    point n-1 on a block's last piece, as a clamped search would place
    it.
    """
    t, y = np.concatenate(ts), np.concatenate(ys)
    ends = np.cumsum([b.size for b in ts]) - 1  # each block's last knot
    h = t[1:] - t[:-1]
    m = _natural_second_derivatives(h, y, (ends[:-1] + 1).tolist())
    c = t.astype(np.intp)
    np.clip(c, 0, n, out=c)
    c[ends] = n
    size, out = len(ts) * n, None
    c += np.repeat(np.arange(0, size, n), [b.size for b in ts])  # piece j: c[j]...c[j+1]-1
    grid = np.arange(n, dtype=float)
    step = size if size <= 2 * _BATCH_SAMPLES else _BATCH_SAMPLES
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        first, last = c.searchsorted(lo, "right") - 1, c.searchsorted(hi)
        idx = np.repeat(np.arange(first, last), np.diff(np.clip(c[first:last + 1], lo, hi)))
        q = np.concatenate([grid[max(lo - b, 0):hi - b] for b in range(lo - lo % n, hi, n)])
        weights = _weights(t, h, idx, q)
        # Allocated after the first temporaries, the result lies above them
        # on the heap, so glibc cannot trim their pages once they are freed.
        out = np.empty(size) if out is None else out
        _evaluate(y, m, idx, weights, out[lo:hi])
    return out


#: Peak |knot value| range with ample headroom for the envelope arithmetic:
#: for records shorter than 2**40 samples no intermediate overflows, and
#: none leaves the normal range unless it is over 2**500 below the peak.
_SAFE_PEAK = (2.0**-500, 2.0**500)


def _envelope_extrema(v: np.ndarray) -> ExtremaSet:
    """The extrema of the finite samples ``v``; NoEnvelopeError unless
    there are at least 3 samples, 2 maxima and 2 minima to span envelopes."""
    if v.size < 3:
        raise NoEnvelopeError("envelopes need at least 3 samples")
    ext = detect_extrema(v)
    if ext.max_idx.size < 2 or ext.min_idx.size < 2:
        raise NoEnvelopeError(
            f"need >= 2 maxima and >= 2 minima, got {ext.max_idx.size}/{ext.min_idx.size}"
        )
    return ext


def _envelope_knots(v: np.ndarray):
    """The ``_envelope_extrema`` of the finite samples ``v``, the abscissae
    and values of their upper and lower knots, and the exponent k: outside
    ``_SAFE_PEAK`` the values are scaled by 2**k into [0.5, 1)."""
    ext = _envelope_extrema(v)
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
