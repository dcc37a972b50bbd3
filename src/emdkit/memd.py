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

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Decomposition,
    DimensionMismatchError,
    NoEnvelopeError,
    SampledSignal,
    Variant,
)
from .emd import SiftConfig, _extract_modes, emd
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


def project(x: MultivariateSignal, d: np.ndarray) -> SampledSignal:
    """Per-sample dot product of the channels with the direction vector."""
    d = np.asarray(d, dtype=float)
    if d.shape != (x.n_channels,):
        raise DimensionMismatchError(
            f"direction has {d.size} coordinates for {x.n_channels} channels"
        )
    return x.channels[0].with_samples(x.as_array() @ d)


def _interp_channels(data: np.ndarray, knot_idx: np.ndarray, n: int) -> np.ndarray:
    """Spline every channel through its values at the (mirror-extended)
    knot instants; returns an (n, n_channels) envelope surface."""
    query = np.arange(n, dtype=float)
    out = np.empty_like(data)
    for j in range(data.shape[1]):
        ki, kv = _mirror_extend(knot_idx.astype(float), data[knot_idx, j], n)
        out[:, j] = cubic_spline(ki, kv, query)
    return out


def multivariate_mean_envelope(
    x: MultivariateSignal, dirs: DirectionSet
) -> MultivariateSignal:
    """Direction-averaged mean of the multidimensional upper and lower
    envelopes.

    Directions whose projection lacks two maxima or two minima are
    skipped; if every direction is skipped the signal has no envelope.
    """
    data = x.as_array()
    acc = np.zeros_like(data)
    used = 0
    scale = float(np.max(np.abs(data)))
    for d in dirs.directions:
        p = project(x, d)
        if float(np.max(np.abs(p.samples))) <= DEGENERATE_PROJECTION_THRESHOLD * scale:
            continue
        try:
            ext = detect_extrema(p)
        except Exception:
            continue
        if len(ext.maxima) < 2 or len(ext.minima) < 2:
            continue
        max_idx = np.array([i for i, _ in ext.maxima])
        min_idx = np.array([i for i, _ in ext.minima])
        upper = _interp_channels(data, max_idx, x.n)
        lower = _interp_channels(data, min_idx, x.n)
        acc += (upper + lower) / 2.0
        used += 1
    if used == 0:
        raise NoEnvelopeError("no direction projection has enough extrema")
    return x.from_array(acc / used)


def _extract_one_multivariate_imf(x: MultivariateSignal, dirs: DirectionSet,
                                  cfg: SiftConfig):
    """One MEMD mode from ``x``: repeated mean-envelope subtraction until
    the stoppage ratio holds. Returns (mode, residue) or None when no
    envelope exists (end of decomposition)."""
    mode = x.as_array().copy()
    work = x
    for _ in range(cfg.max_sift_iterations):
        try:
            env = multivariate_mean_envelope(work, dirs)
        except NoEnvelopeError:
            if np.array_equal(mode, x.as_array()):
                return None
            break
        env_arr = env.as_array()
        if float(np.max(np.abs(env_arr))) <= ENVELOPE_RATIO_THRESHOLD * float(
            np.max(np.abs(mode))
        ):
            break
        mode = mode - env_arr
        work = x.from_array(mode)
    residue = x.from_array(x.as_array() - mode)
    return x.from_array(mode), residue


def _multivariate_modes(x: MultivariateSignal, K: int, cfg: SiftConfig, variant: Variant,
                        univariate, stage=None) -> MultivariateDecomposition:
    """Body of memd and epmemd: MEMD extraction over K Hammersley
    directions until the residue is negligible, with ``stage`` applied to
    each extracted pair. A single-channel input goes to ``univariate``."""
    if x.n_channels == 1:
        d = univariate(x.channels[0], cfg)
        return MultivariateDecomposition((replace(d, variant=variant),))

    dirs = hammersley_directions(x.n_channels, K)
    floor = NEGLIGIBLE_RESIDUE_THRESHOLD * float(np.max(np.abs(x.as_array())))

    def extract(work):
        if float(np.max(np.abs(work.as_array()))) <= floor:
            return None
        return _extract_one_multivariate_imf(work, dirs, cfg)

    modes, residue = _extract_modes(x, extract, stage, cfg.max_imfs)
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
