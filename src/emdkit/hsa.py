"""Hilbert spectral analysis: discrete analytic signal, instantaneous
amplitude/phase/frequency, the time-frequency energy grid and its
marginal.

The analytic signal is built in the frequency domain (double the
positive frequencies, zero the negative ones, keep DC and Nyquist);
instantaneous frequency comes from central differences of the unwrapped
phase, with the quotient formula available as an alternate method for
cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import hilbert

from .core import Decomposition, InsufficientDataError, SampledSignal


@dataclass(frozen=True)
class AnalyticAttributes:
    amplitude: np.ndarray  # >= 0
    phase: np.ndarray  # unwrapped radians
    inst_freq: np.ndarray  # Hz, defined at every sample
    sample_rate: float


def analytic_signal(x: SampledSignal, method: str = "phase_diff") -> AnalyticAttributes:
    """Instantaneous amplitude, phase and frequency of ``x``.

    ``method`` selects the IF estimator: "phase_diff" differentiates the
    unwrapped phase (default), "quotient" uses the analytic-signal
    quotient formula; both are identical in continuous time, the latter
    is noisier discretely.
    """
    if x.n < 8:
        raise InsufficientDataError("analytic signal needs at least 8 samples")
    z = hilbert(x.samples)
    amplitude = np.abs(z)
    phase = np.unwrap(np.angle(z))
    if method == "phase_diff":
        inst_freq = np.gradient(phase, x.dt) / (2 * np.pi)
    elif method == "quotient":
        y = x.samples
        yh = z.imag
        dy = np.gradient(y, x.dt)
        dyh = np.gradient(yh, x.dt)
        denom = y**2 + yh**2
        with np.errstate(divide="ignore", invalid="ignore"):
            omega = np.where(denom > 0, (dyh * y - yh * dy) / denom, 0.0)
        inst_freq = omega / (2 * np.pi)
    else:
        raise ValueError(f"unknown IF method {method!r}")
    return AnalyticAttributes(amplitude, phase, inst_freq, x.sample_rate)


@dataclass(frozen=True)
class HilbertSpectrum:
    freq_bins: np.ndarray  # bin centers, Hz, ascending
    time_bins: np.ndarray  # bin centers, s
    energy: np.ndarray  # [freq][time], accumulated squared amplitude
    marginal: np.ndarray  # per freq bin, time-integrated
    dt: float
    negative_if_samples: int  # IF samples clipped into bin 0


def hilbert_spectrum(
    d: Decomposition, n_freq_bins: int = 256, n_time_bins: int | None = None
) -> HilbertSpectrum:
    """Accumulate per-IMF squared instantaneous amplitude onto a linear
    frequency grid from 0 to Nyquist; the residue is excluded.

    Negative instantaneous frequencies are clipped into bin 0 and
    counted, so orderings that break the IMF property stay observable.
    With ``n_time_bins`` unset every sample is its own time column.
    """
    if not d.imfs:
        raise ValueError("decomposition has no IMFs")
    if n_freq_bins < 1 or (n_time_bins is not None and n_time_bins < 1):
        raise ValueError("frequency and time bin counts must be >= 1")
    ref = d.imfs[0]
    nyquist = ref.sample_rate / 2.0
    f_width = nyquist / n_freq_bins
    freq_bins = (np.arange(n_freq_bins) + 0.5) * f_width

    if n_time_bins is None:
        n_time_bins = ref.n
    t_width = ref.n / (ref.sample_rate * n_time_bins)
    time_bins = ref.t0 + (np.arange(n_time_bins) + 0.5) * t_width
    t_idx = np.minimum((np.arange(ref.n) // (ref.n / n_time_bins)).astype(int),
                       n_time_bins - 1)

    grid = np.zeros((n_freq_bins, n_time_bins))
    clipped = 0
    for imf in d.imfs:
        attrs = analytic_signal(imf)
        f_idx = np.floor(attrs.inst_freq / f_width).astype(int)
        clipped += int(np.count_nonzero(f_idx < 0))
        f_idx = np.clip(f_idx, 0, n_freq_bins - 1)
        np.add.at(grid, (f_idx, t_idx), attrs.amplitude**2)
    marginal = grid.sum(axis=1) * ref.dt
    return HilbertSpectrum(freq_bins, time_bins, grid, marginal, ref.dt, clipped)


def spectral_ridge(h: HilbertSpectrum) -> np.ndarray:
    """Frequency of the strongest bin in each time column (NaN where a
    column holds no energy)."""
    ridge = h.freq_bins[np.argmax(h.energy, axis=0)].astype(float)
    ridge[h.energy.sum(axis=0) == 0] = np.nan
    return ridge
