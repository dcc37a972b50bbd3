"""Multivariate EMD: quasi-uniform direction sampling on the unit
hypersphere, signal projections, multivariate envelope means and
multivariate sifting.

Directions come from the Hammersley point set on the unit cube (first
coordinate k/K, remaining coordinates van der Corput radical inverses in
successive prime bases) mapped linearly through spherical angles. The
multivariate stoppage criterion accepts a mode once the mean-envelope
max-norm falls below 0.075 of the mode max-norm across all channels; the
univariate extrema/zero-crossing condition is not imposed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _fork
from .core import (
    Decomposition,
    DimensionMismatchError,
    InsufficientDataError,
    NoEnvelopeError,
    SampledSignal,
    Variant,
    _unit_exponent,
)
from .emd import SiftConfig, _below_normal, _extract_modes, _rounding_noise, emd
from .envelope import _mirror_extend, cubic_spline, detect_extrema

#: Stoppage ratio: mean-envelope max-norm over mode max-norm.
ENVELOPE_RATIO_THRESHOLD = 0.075

#: Projections whose amplitude falls below this fraction of the signal
#: amplitude are roundoff noise (the direction is orthogonal to the
#: subspace actually spanned by the channels) and carry no envelope
#: information.
DEGENERATE_PROJECTION_THRESHOLD = 1e-10

#: A residue below this fraction of the input amplitude ends mode
#: extraction.
NEGLIGIBLE_RESIDUE_THRESHOLD = 1e-12

#: Fewest projected samples (directions x samples x channels) per mean
#: envelope for which forked helpers share the directions: the smallest
#: size at which every case of ``benchmarks/memd_fork_sweep.py`` was faster
#: forked in every sweep.
_FORK_MIN_WORK = 2**17


@dataclass(frozen=True)
class MultivariateSignal:
    """Channels of equal length and rate; columns of the p x n data matrix."""

    channels: tuple[SampledSignal, ...]

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(self.channels) < 1:
            raise ValueError("need at least one channel")
        for ch in self.channels[1:]:
            self.channels[0]._check_compatible(ch)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n(self) -> int:
        return self.channels[0].n

    @property
    def sample_rate(self) -> float:
        return self.channels[0].sample_rate

    def as_array(self) -> np.ndarray:
        """(n_samples, n_channels) data matrix."""
        return np.column_stack([ch.samples for ch in self.channels])

    def from_array(self, data: np.ndarray) -> "MultivariateSignal":
        return MultivariateSignal(
            tuple(self.channels[j].with_samples(data[:, j]) for j in range(self.n_channels))
        )


@dataclass(frozen=True)
class MultivariateDecomposition:
    """One ``Decomposition`` per channel, all with the same mode count."""

    channels: tuple[Decomposition, ...]

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if len({len(d.imfs) for d in self.channels}) != 1:
            raise DimensionMismatchError("channels need one decomposition each "
                                         "with equal mode counts")

    @property
    def imfs(self) -> tuple[MultivariateSignal, ...]:
        """Modes across channels, highest frequency first."""
        return tuple(MultivariateSignal(m) for m in zip(*(d.imfs for d in self.channels)))

    @property
    def residue(self) -> MultivariateSignal:
        return MultivariateSignal(tuple(d.residue for d in self.channels))


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of each index in the given base."""
    result = np.zeros(indices.size)
    denom = np.ones(indices.size)
    k = indices.astype(np.int64).copy()
    while np.any(k > 0):
        denom *= base
        result += (k % base) / denom
        k //= base
    return result


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


@dataclass(frozen=True)
class DirectionSet:
    directions: np.ndarray  # (K, n), rows unit-norm

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        if d.ndim != 2 or d.shape[0] < 1:
            raise ValueError("need at least one direction")
        if np.any(np.abs(np.linalg.norm(d, axis=1) - 1.0) > 1e-12):
            raise ValueError("directions must be unit vectors")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "directions", d)

    @property
    def count(self) -> int:
        return self.directions.shape[0]


def hammersley_directions(n: int, K: int) -> DirectionSet:
    """K quasi-uniform unit vectors on the (n-1)-sphere.

    The Hammersley points on [0, 1]^(n-1) are mapped linearly to the
    spherical angles: the first n-2 angles span [0, pi], the last spans
    [0, 2*pi). Deterministic in (n, K).
    """
    if n < 2:
        raise DimensionMismatchError("hypersphere directions need n >= 2")
    if K < 1:
        raise ValueError("need K >= 1")
    idx = np.arange(K)
    cube = np.empty((K, n - 1))
    cube[:, 0] = idx / K
    for j, base in enumerate(_primes(n - 2)):
        cube[:, j + 1] = _radical_inverse(idx, base)

    angles = cube * np.pi
    angles[:, -1] = cube[:, -1] * 2 * np.pi

    d = np.ones((K, n))
    sin_prod = np.ones(K)
    for j in range(n - 1):
        d[:, j] = sin_prod * np.cos(angles[:, j])
        sin_prod = sin_prod * np.sin(angles[:, j])
    d[:, n - 1] = sin_prod
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return DirectionSet(d)


def _interp_channels(data: np.ndarray, knot_idx: np.ndarray, n: int) -> np.ndarray:
    """Spline every channel through its values at the (mirror-extended)
    knot instants; returns an (n, n_channels) envelope surface."""
    query = np.arange(n, dtype=float)
    # Mirror the knot instants once; ``rows`` are the samples whose values
    # the (possibly reflected) knots take, the same for every channel.
    ki, rows = _mirror_extend(knot_idx.astype(float), knot_idx, n)
    out = np.empty_like(data)
    for j in range(data.shape[1]):
        out[:, j] = cubic_spline(ki, data[rows, j], query)
    return out


def _direction_means(data: np.ndarray, directions: np.ndarray):
    """Mean of the upper and lower envelope surfaces of the (n, channels)
    matrix ``data`` along each of ``directions`` in turn, skipping those
    whose projection lacks two maxima or two minima."""
    scale = float(np.abs(data).max())
    for d in directions:
        p = data @ d
        if float(np.abs(p).max()) <= DEGENERATE_PROJECTION_THRESHOLD * scale:
            continue
        try:
            ext = detect_extrema(p)
        except InsufficientDataError:
            continue
        if ext.max_idx.size < 2 or ext.min_idx.size < 2:
            continue
        upper = _interp_channels(data, ext.max_idx, data.shape[0])
        lower = _interp_channels(data, ext.min_idx, data.shape[0])
        yield (upper + lower) / 2.0


def _serve_directions(directions: np.ndarray, pipe, share: range) -> None:
    """A forked helper's loop: for each mode matrix the caller sends, take
    the means of its share of ``directions`` while the caller takes its
    own, then add them in order to the running sum and count it passes on."""
    directions = directions[share.start:share.stop]
    while True:
        data = pipe.recv()
        try:
            means = list(_direction_means(data, directions))
        except Exception as exc:
            means = exc
        acc, used = pipe.recv()
        if not isinstance(means, Exception):
            for m in means:
                acc += m
            means = (acc, used + len(means))
        pipe.send(means)


@dataclass(frozen=True)
class _Shares:
    """The caller's share of ``directions`` and the pipes to the forked
    helpers that take the following shares, in direction order."""

    directions: np.ndarray
    own: range
    pipes: list


@contextmanager
def _forked_shares(dirs: DirectionSet, workers: int):
    """``dirs`` cut into ``workers`` shares: the first for the caller, one
    forked helper for each other, all gone on exit."""
    own, *rest = _fork.shares(dirs.count, workers)
    with _fork.forked(partial(_serve_directions, dirs.directions), rest) as pipes:
        yield _Shares(dirs.directions, own, pipes)


def multivariate_mean_envelope(x: MultivariateSignal, dirs: DirectionSet,
                               helpers: _Shares | None = None) -> np.ndarray:
    """Direction-averaged mean of the multidimensional upper and lower
    envelopes, as an (n, n_channels) array.

    Directions whose projection lacks two maxima or two minima are
    skipped; if every direction is skipped the signal has no envelope.
    ``helpers`` are the direction shares of ``_forked_shares``: each helper
    takes the means of its share while the caller takes its own, and the
    sum passes through them in direction order, so the result is bit for
    bit the serial one.
    """
    if dirs.directions.shape[1] != x.n_channels:
        raise DimensionMismatchError(f"directions need {x.n_channels} coordinates")
    if helpers is None:
        own, pipes = range(dirs.count), ()
    elif helpers.directions is dirs.directions:
        own, pipes = helpers.own, helpers.pipes
    else:
        raise ValueError("the helpers share out other directions")
    data = x.as_array()
    for pipe in pipes:
        pipe.send(data)
    acc = np.zeros_like(data)
    used, failed = 0, None
    try:
        for m in _direction_means(data, dirs.directions[own.start:own.stop]):
            acc += m
            used += 1
    except Exception as exc:
        failed = exc
    for pipe in pipes:  # every helper replies, so all stay in step
        pipe.send((acc, used))
        try:
            acc, used = pipe.recv()
        except Exception as exc:
            failed = failed or exc
    if failed is not None:
        raise failed
    if used == 0:
        raise NoEnvelopeError("no direction projection has enough extrema")
    return acc / used


def _extract_one_multivariate_imf(x: MultivariateSignal, dirs: DirectionSet,
                                  cfg: SiftConfig, helpers: _Shares | None = None):
    """One MEMD mode from ``x``: repeated mean-envelope subtraction until
    the stoppage ratio holds. Returns (mode, residue); raises
    NoEnvelopeError when ``x`` has no envelope or the mode is rounding
    noise (end of decomposition)."""
    data = mode = x.as_array()
    work = x
    for it in range(cfg.max_sift_iterations):
        try:
            env = multivariate_mean_envelope(work, dirs, helpers)
        except NoEnvelopeError:
            if it == 0:
                raise
            break
        if float(np.abs(env).max()) <= ENVELOPE_RATIO_THRESHOLD * float(np.abs(mode).max()):
            break
        mode = mode - env
        work = x.from_array(mode)
    if _rounding_noise(mode, data):
        raise NoEnvelopeError("the mode is rounding noise")
    return x.from_array(mode), x.from_array(data - mode)


def _multivariate_modes(x: MultivariateSignal, K: int, cfg: SiftConfig, variant: Variant,
                        univariate, stage=None) -> MultivariateDecomposition:
    """Body of memd and epmemd: MEMD extraction over K Hammersley
    directions until the residue is negligible, with ``stage`` applied to
    each extracted pair. A single-channel input goes to ``univariate``.
    Extraction runs on the input rescaled by a power of two (exact, so
    safe up to the top of the float64 range), and the modes are scaled back.
    Input below the normal range keeps its scale, as in eemd, and so falls
    under the residue floor: like emd, it has no IMFs. Where it pays, one
    forked helper per extra CPU lives as long as the extraction and takes a
    share of every mean envelope's directions.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    if x.n_channels == 1:
        d = univariate(x.channels[0], cfg)
        return MultivariateDecomposition((replace(d, variant=variant),))

    dirs = hammersley_directions(x.n_channels, K)
    data = x.as_array()
    k = 0 if _below_normal(data) else _unit_exponent(data)
    np.ldexp(data, k, out=data)
    floor = max(NEGLIGIBLE_RESIDUE_THRESHOLD * float(np.abs(data).max()), np.finfo(float).tiny)

    workers = _fork.worker_count(x.n, K if K * x.n * x.n_channels >= _FORK_MIN_WORK else 1)
    with _forked_shares(dirs, workers) as helpers:

        def extract(work):
            if float(np.abs(work.as_array()).max()) <= floor:
                raise NoEnvelopeError("the residue is negligible or below the normal range")
            return _extract_one_multivariate_imf(work, dirs, cfg, helpers)

        modes, residue = _extract_modes(x.from_array(data), extract, stage, cfg.max_imfs)
    *modes, residue = (x.from_array(np.ldexp(m.as_array(), -k)) for m in (*modes, residue))
    return MultivariateDecomposition(tuple(
        Decomposition(tuple(m.channels[j] for m in modes), r, variant)
        for j, r in enumerate(residue.channels)))


def memd(x: MultivariateSignal, K: int = 64,
         cfg: SiftConfig = SiftConfig()) -> MultivariateDecomposition:
    """Multivariate EMD with K projection directions.

    Mode and channel counts are aligned by construction; per-channel
    completeness follows from the telescoping subtraction. A
    single-channel input falls back to univariate EMD.
    """
    return _multivariate_modes(x, K, cfg, Variant.MEMD, emd)
