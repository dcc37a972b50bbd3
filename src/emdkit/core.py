"""Foundational signal types, discrete inner products and energy.

All quantities are discrete realizations of integrals over the record,
using the rectangle rule (sum times the sample period), so every metric
built on top of them is a ratio of scaled dot products.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class EmdkitError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(EmdkitError):
    """Operands differ in length, sample rate or channel count."""


class InsufficientDataError(EmdkitError):
    """Signal too short for the requested operation."""


class InvalidKnotsError(EmdkitError):
    """Spline knot abscissae are not strictly increasing."""


class NoEnvelopeError(EmdkitError):
    """Too few extrema to build envelopes; caller treats the signal as residue."""


class RankDeficiencyError(EmdkitError):
    """A signal in an orthogonalization sweep is (nearly) linearly dependent."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"input {index} is linearly dependent on its predecessors")

    def __reduce__(self):  # pickled by a forked noise-band worker
        return type(self), (self.index, str(self))


class PeriodUndefinedError(EmdkitError):
    """Component has no zero crossings, so its mean period is undefined."""


class Variant(enum.Enum):
    EMD = "EMD"
    EEMD = "EEMD"
    EPEMD = "EPEMD"
    OIMF = "OIMF"
    FOIMF = "FOIMF"
    ROIMF = "ROIMF"
    FOUIMF = "FOUIMF"
    ROUIMF = "ROUIMF"
    MEMD = "MEMD"
    EPMEMD = "EPMEMD"


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real time series.

    Parameters
    ----------
    samples : array_like
        Signal values; at least two, all finite.
    sample_rate : float
        Sampling frequency in Hz, strictly positive.
    t0 : float
        Start time in seconds.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise InsufficientDataError("signal needs at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal contains NaN or Inf")
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError("sample_rate must be finite and > 0")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        return self.n / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n) / self.sample_rate

    def with_samples(self, samples: np.ndarray) -> "SampledSignal":
        """New signal with the same rate/t0 and different values."""
        return SampledSignal(samples, self.sample_rate, self.t0)

    def _check_compatible(self, other: "SampledSignal"):
        if self.n != other.n or self.sample_rate != other.sample_rate:
            raise DimensionMismatchError(
                f"shape/rate mismatch: ({self.n} @ {self.sample_rate} Hz) vs "
                f"({other.n} @ {other.sample_rate} Hz)"
            )

    def __add__(self, other: "SampledSignal") -> "SampledSignal":
        self._check_compatible(other)
        return self.with_samples(self.samples + other.samples)

    def __sub__(self, other: "SampledSignal") -> "SampledSignal":
        self._check_compatible(other)
        return self.with_samples(self.samples - other.samples)

    def __mul__(self, scalar: float) -> "SampledSignal":
        return self.with_samples(self.samples * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Decomposition:
    """Ordered IMF list (highest frequency first) plus residue.

    ``dc_constant`` is nonzero only for the uncorrelated Gram-Schmidt
    variants, where it carries the mean removed from the components.
    """

    imfs: tuple[SampledSignal, ...]
    residue: SampledSignal
    variant: Variant
    dc_constant: float = 0.0
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "imfs", tuple(self.imfs))
        for imf in self.imfs:
            self.residue._check_compatible(imf)

    @property
    def components(self) -> tuple[SampledSignal, ...]:
        """IMFs followed by the residue."""
        return self.imfs + (self.residue,)

    def reconstruct(self) -> SampledSignal:
        total = self.residue.samples + self.dc_constant
        for imf in self.imfs:
            total = total + imf.samples
        return self.residue.with_samples(total)


def _unit_exponent(*arrays) -> int:
    """Exponent k for which ``np.ldexp(a, k)`` brings the largest |value|
    of ``arrays`` into [0.5, 1). Scaling by a power of two is exact, so
    ratios of dot products are unchanged, but the dots can neither
    overflow nor underflow at huge or tiny amplitudes."""
    peak = max(max(float(a.max()), -float(a.min())) for a in arrays)  # max |a|, no temporary
    return -math.frexp(peak)[1]


def _unit_stack(*arrays) -> tuple[np.ndarray, int]:
    """The sample arrays as the rows of one new matrix, scaled in place by
    ``2**k`` with k = ``_unit_exponent``; returns (rows, k). Every energy
    ratio is taken on these rows, so it is the same at any amplitude."""
    rows = np.array(arrays, dtype=float)
    k = _unit_exponent(rows)
    np.ldexp(rows, k, out=rows)
    return rows, k


def inner_product(a: SampledSignal, b: SampledSignal) -> float:
    """Discrete inner product: sum(a*b) times the sample period."""
    a._check_compatible(b)
    return float(np.dot(a.samples, b.samples)) * a.dt


def energy(x: SampledSignal) -> float:
    """Signal energy over the record, always >= 0."""
    return inner_product(x, x)
