"""Hilbert spectral analysis: discrete analytic signal, instantaneous
amplitude/phase/frequency, the time-frequency energy cells and their
marginal.

The analytic signal is built in the frequency domain (double the
positive frequencies, zero the negative ones, keep DC and Nyquist) from
numpy's real-input FFT; instantaneous frequency comes from central
differences of the unwrapped phase, with the quotient formula available
as an alternate method for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Decomposition, InsufficientDataError, SampledSignal, _unit_stack


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

    The FFT runs on samples rescaled by a power of two; phase and IF are
    scale-free, and the amplitude is scaled back (inf past the float64 range).
    """
    if x.n < 8:
        raise InsufficientDataError("analytic signal needs at least 8 samples")
    (y,), k = _unit_stack(x.samples)
    # The spectrum a full complex FFT of y would give, built from the real
    # FFT: the two agree bit for bit but for the zero imaginary part at DC
    # and Nyquist, which the full transform writes as -0.0. The negative
    # half is zero, so only the real FFT's bins are filled in.
    spec = np.zeros(x.n, dtype=complex)
    spec[:x.n // 2 + 1] = np.fft.rfft(y)
    spec[1:(x.n + 1) // 2] *= 2.0
    spec.imag[0] = -0.0
    if x.n % 2 == 0:
        spec.imag[x.n // 2] = -0.0
    z = np.fft.ifft(spec)
    with np.errstate(over="ignore"):
        amplitude = np.ldexp(np.abs(z), -k)
    phase = np.unwrap(np.angle(z))
    if method == "phase_diff":
        inst_freq = np.gradient(phase, x.dt) / (2 * np.pi)
    elif method == "quotient":
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
    cells: tuple[np.ndarray, np.ndarray, np.ndarray]  # non-zero (freq_idx, time_idx, energy)
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

    Each time column holds at most one cell per IMF, so only the
    non-zero cells are kept, frequency-major. Each cell sums its
    energies in (IMF, sample) order, and each marginal entry sums its
    frequency row as a dense row: the bits of a dense grid build.
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

    keys = np.empty((len(d.imfs), ref.n), dtype=int)  # cell of each (IMF, sample)
    weights = np.empty((len(d.imfs), ref.n))
    clipped = 0
    with np.errstate(over="ignore"):  # energies past the float64 range are inf
        for i, imf in enumerate(d.imfs):
            attrs = analytic_signal(imf)
            f_idx = np.floor(attrs.inst_freq / f_width).astype(int)
            clipped += int(np.count_nonzero(f_idx < 0))
            f_idx = np.clip(f_idx, 0, n_freq_bins - 1)
            keys[i] = f_idx * n_time_bins + t_idx
            weights[i] = attrs.amplitude**2
        cell_keys, inverse = np.unique(keys, return_inverse=True)
        energy = np.bincount(inverse.ravel(), weights.ravel())
        nonzero = energy != 0
        f_cell, t_cell = np.divmod(cell_keys[nonzero], n_time_bins)
        energy = energy[nonzero]
        row_sums = np.zeros(n_freq_bins)
        row = np.zeros(n_time_bins)
        occupied, starts = np.unique(f_cell, return_index=True)
        for f, t, e in zip(occupied, np.split(t_cell, starts[1:]), np.split(energy, starts[1:])):
            row[t] = e
            row_sums[f] = row.sum()
            row[t] = 0.0
        marginal = row_sums * ref.dt
    return HilbertSpectrum(freq_bins, time_bins, (f_cell, t_cell, energy), marginal,
                           ref.dt, clipped)


def spectral_ridge(h: HilbertSpectrum) -> np.ndarray:
    """Frequency of the strongest bin in each time column, the lowest of
    equals (NaN where a column holds no energy)."""
    f, t, e = h.cells
    order = np.lexsort((-e, t))  # stable: ties stay frequency-ascending
    columns, first = np.unique(t[order], return_index=True)
    ridge = np.full(h.time_bins.size, np.nan)
    ridge[columns] = h.freq_bins[f[order[first]]]
    return ridge
