"""Multivariate EMD: quasi-uniform direction sampling on the unit
hypersphere, signal projections, multivariate envelope means and
multivariate sifting.

Directions come from the Hammersley point set on the unit cube (first
coordinate k/K, remaining coordinates van der Corput radical inverses in
successive prime bases) mapped linearly through spherical angles. The
sift is ``emd._sift`` under MEMD's stop rule alone (no IMF test, no SD
stop): a mode is accepted once the mean-envelope max-norm is at most
0.075 of the mode max-norm across all channels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _fork
from .core import (
    Decomposition,
    DimensionMismatchError,
    NoEnvelopeError,
    SampledSignal,
    Variant,
    _unit_exponent,
)
from .emd import _ROUNDING_NOISE, SiftConfig, _below_normal, _drive, _modes, _sift, emd
from .envelope import _envelope_extrema, cubic_spline

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
    """Spline every channel through its values at the knot instants, the two nearest
    each record end also reflected about it; returns an (n, n_channels) envelope surface."""
    # ``rows`` are the samples whose values the knots take, for every channel.
    rows = np.concatenate((knot_idx[1::-1], knot_idx, knot_idx[:-3:-1]))
    knots = np.concatenate((-rows[:2], knot_idx, 2 * (n - 1) - rows[-2:])).astype(float)
    query = np.arange(n, dtype=float)
    return np.column_stack([cubic_spline(knots, v, query) for v in data[rows].T])


def _direction_means(data: np.ndarray, directions: np.ndarray):
    """Mean of the upper and lower envelope surfaces of the (n, channels)
    matrix ``data`` along each of ``directions`` in turn, skipping those
    whose projection lacks two maxima or two minima, or varies by no more
    than the rounding noise of ``data`` (whose extrema are no envelope)."""
    scale = float(np.abs(data).max())
    for d in directions:
        p = data @ d
        hi, lo = float(p.max()), float(p.min())
        if (max(hi, -lo) <= DEGENERATE_PROJECTION_THRESHOLD * scale
                or hi - lo <= _ROUNDING_NOISE * scale):
            continue
        try:
            ext = _envelope_extrema(p)
        except NoEnvelopeError:
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


def multivariate_mean_envelope(x: MultivariateSignal, dirs: DirectionSet,
                               pipes=()) -> np.ndarray:
    """Direction-averaged mean of the multidimensional upper and lower
    envelopes, as an (n, n_channels) array.

    Directions whose projection lacks two maxima or two minima, or varies
    by no more than rounding noise, are skipped; if every direction is
    skipped the signal has no envelope.
    ``pipes`` lead to forked ``_serve_directions`` helpers of ``dirs``, one
    for each share of ``_fork.shares(dirs.count, len(pipes) + 1)`` but the
    first, which the caller takes: each helper takes the means of its share
    while the caller takes its own, and the sum passes through them in
    direction order, so the result is bit for bit the serial one.
    """
    if dirs.directions.shape[1] != x.n_channels:
        raise DimensionMismatchError(f"directions need {x.n_channels} coordinates")
    own = _fork.shares(dirs.count, len(pipes) + 1)[0]
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


def _ratio_stop(h: np.ndarray, mean: np.ndarray, n: int):
    """``_sift``'s stop rule for MEMD: end on ``h`` once ``mean`` is small against it."""
    small = float(np.abs(mean).max()) <= ENVELOPE_RATIO_THRESHOLD * float(np.abs(h).max())
    return None if small else (h - mean, False)


def _multivariate_modes(x: MultivariateSignal, K: int, cfg: SiftConfig, variant: Variant,
                        univariate, stage=None) -> MultivariateDecomposition:
    """Body of memd and epmemd: MEMD extraction over K Hammersley
    directions until the residue is negligible, with ``stage`` applied to
    each extracted pair. A single-channel input goes to ``univariate``.
    Extraction and ``stage`` run on the input's (n, channels) matrix scaled by a
    power of two (exact, so safe to the top of the float64 range), scaled back once.
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

    def sift(work):
        if float(np.abs(work).max()) <= floor:
            raise NoEnvelopeError("the residue is negligible or below the normal range")
        return (yield from _sift(work, cfg, _ratio_stop))

    workers = _fork.worker_count(x.n, K if K * x.n * x.n_channels >= _FORK_MIN_WORK else 1)
    with _fork.forked(partial(_serve_directions, dirs.directions),
                      _fork.shares(K, workers)[1:]) as pipes:
        modes, residue = _drive(_modes(data, sift, stage, cfg.max_imfs),
                                lambda h: multivariate_mean_envelope(x.from_array(h), dirs, pipes))
    return MultivariateDecomposition(tuple(
        Decomposition(tuple(ch.with_samples(np.ldexp(m[:, j], -k)) for m in modes),
                      ch.with_samples(np.ldexp(residue[:, j], -k)), variant)
        for j, ch in enumerate(x.channels)))


def memd(x: MultivariateSignal, K: int = 64,
         cfg: SiftConfig = SiftConfig()) -> MultivariateDecomposition:
    """Multivariate EMD with K projection directions.

    Mode and channel counts are aligned by construction; per-channel
    completeness follows from the telescoping subtraction. A
    single-channel input falls back to univariate EMD; on more channels
    ``cfg.sd_threshold`` has no effect.
    """
    return _multivariate_modes(x, K, cfg, Variant.MEMD, emd)
