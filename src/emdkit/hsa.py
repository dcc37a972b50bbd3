"""Hilbert spectral analysis: discrete analytic signal, instantaneous
amplitude/phase/frequency, the time-frequency energy cells and their
marginal.

The analytic signal is built in the frequency domain (double the
positive frequencies, zero the negative ones, keep DC and Nyquist) from
numpy's real-input FFT; instantaneous frequency comes from central
differences of the unwrapped phase.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import Decomposition, InsufficientDataError, SampledSignal, _unit_stack


@dataclass(frozen=True)
class AnalyticAttributes:
    amplitude: np.ndarray  # >= 0
    phase: np.ndarray  # unwrapped radians
    inst_freq: np.ndarray  # Hz, defined at every sample
    sample_rate: float


def analytic_signal(x: SampledSignal) -> AnalyticAttributes:
    """Instantaneous amplitude, phase and frequency of ``x``; the frequency
    is the central-difference derivative of the unwrapped phase.

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
    del y
    spec[1:(x.n + 1) // 2] *= 2.0
    spec.imag[0] = -0.0
    if x.n % 2 == 0:
        spec.imag[x.n // 2] = -0.0
    z = np.fft.ifft(spec)
    del spec
    with np.errstate(over="ignore"):
        amplitude = np.ldexp(np.abs(z), -k)
    phase = np.angle(z)
    del z
    phase = np.unwrap(phase)
    with np.errstate(over="ignore"):  # a phase step over a subnormal dt
        inst_freq = np.gradient(phase, x.dt) / (2 * np.pi)
    big = np.isinf(inst_freq)  # recomputed in cycles per sample, times the rate
    if big.any():
        inst_freq[big] = np.gradient(phase)[big] / (2 * np.pi) * x.sample_rate
    return AnalyticAttributes(amplitude, phase, inst_freq, x.sample_rate)


@dataclass(frozen=True)
class HilbertSpectrum:
    freq_bins: np.ndarray  # bin centers, Hz, ascending
    time_bins: np.ndarray  # bin centers, s
    # the non-zero cells, frequency-major: (freq_idx, time_idx, energy), each
    # index in the smallest unsigned type that holds every bin, energy float64
    cells: tuple[np.ndarray, np.ndarray, np.ndarray]
    marginal: np.ndarray  # per freq bin, time-integrated
    dt: float
    negative_if_samples: int  # IF samples clipped into bin 0


def _runs(a: np.ndarray):
    """The distinct values of the sorted array ``a``, where each first
    appears and how many times."""
    starts = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    return a[first], first, np.diff(first, append=a.size)


def hilbert_spectrum(
    d: Decomposition, n_freq_bins: int = 256, n_time_bins: int | None = None
) -> HilbertSpectrum:
    """Accumulate per-IMF squared instantaneous amplitude onto a linear
    frequency grid from 0 to Nyquist; the residue is excluded.

    Negative instantaneous frequencies are clipped into bin 0 and
    counted, so orderings that break the IMF property stay observable.
    With ``n_time_bins`` unset every sample is its own time column.

    Each time column holds at most one cell per IMF, so only the
    non-zero cells are kept, frequency-major, with each bin index in the
    smallest unsigned type that holds it (uint8 at 256 bins). They are
    found one block of whole time columns at a time, ~1,024 samples each
    (a wider column is a block of its own), under keys of the smallest
    type that holds them. Each block's cells, ordered by (frequency,
    time), are then written straight to their frequency-major places and
    freed, so no concatenated or sorted copy is made. Each cell sums its
    energies in (IMF, sample) order, and each marginal entry sums its
    frequency row as a dense row: the bits of a dense grid build.
    """
    if not d.imfs:
        raise ValueError("decomposition has no IMFs")
    ref = d.imfs[0]
    counts = {"n_freq_bins": n_freq_bins,
              "n_time_bins": ref.n if n_time_bins is None else n_time_bins}
    for name, value in counts.items():
        if not hasattr(type(value), "__index__") or operator.index(value) < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    n_freq_bins, n_time_bins = map(operator.index, counts.values())
    f_width = ref.sample_rate / 2.0 / n_freq_bins  # Nyquist over the bin count
    freq_bins = (np.arange(n_freq_bins) + 0.5) * f_width

    t_width = ref.n / (ref.sample_rate * n_time_bins)
    time_bins = ref.t0 + (np.arange(n_time_bins) + 0.5) * t_width
    # The smallest types that hold every bin; a key, f * n_time_bins + t,
    # takes one that also holds its stride n_time_bins.
    f_type, t_type, key_type = map(np.min_scalar_type, (
        n_freq_bins - 1, n_time_bins - 1, n_freq_bins * n_time_bins))
    t_idx = np.minimum(np.arange(ref.n) // (ref.n / n_time_bins), n_time_bins - 1).astype(t_type)

    f_idx = np.empty((len(d.imfs), ref.n), dtype=f_type)  # bin of each (IMF, sample)
    weights = np.empty((len(d.imfs), ref.n))
    clipped = 0
    with np.errstate(over="ignore"):  # energies past the float64 range are inf
        for i, imf in enumerate(d.imfs):
            attrs = analytic_signal(imf)
            f = attrs.inst_freq  # binned in place
            np.floor(np.divide(f, f_width, out=f), out=f)
            clipped += int(np.count_nonzero(f < 0))
            f_idx[i] = np.clip(f, 0, n_freq_bins - 1, out=f)
            np.square(attrs.amplitude, out=weights[i])
        del attrs, f
        blocks = []  # (key, energy) of each block's non-zero cells
        totals = np.zeros(n_freq_bins, dtype=np.intp)  # cells in each frequency row
        # a block starts where the column of every 1,024th sample starts
        bounds = np.unique(np.searchsorted(t_idx, t_idx[::1024]))
        for a, b in zip(bounds, [*bounds[1:], ref.n]):
            keys = f_idx[:, a:b].astype(key_type)
            keys *= n_time_bins
            keys += t_idx[a:b]
            keys, inverse = np.unique(keys, return_inverse=True)
            energy = np.bincount(inverse.ravel(), weights[:, a:b].ravel())
            keys, energy = keys[energy != 0], energy[energy != 0]
            rows, _, count = _runs(keys // n_time_bins)
            totals[rows] += count
            blocks.append((keys, energy))
        del f_idx, weights
        # Blocks run in time order and each is (frequency, time)-ordered, so
        # placing each block's rows after the earlier blocks' is frequency-major.
        starts = np.concatenate(([0], np.cumsum(totals)))  # of each frequency row
        f_cell = np.repeat(np.arange(n_freq_bins, dtype=f_type), totals)
        t_cell, energy = np.empty(starts[-1], dtype=t_type), np.empty(starts[-1])
        cursor = starts[:-1].copy()  # next free place in each row
        blocks.reverse()  # popped in time order, each freed once placed
        while blocks:
            keys, e = blocks.pop()
            f, t = np.divmod(keys, n_time_bins)
            rows, first, count = _runs(f)
            at = np.arange(keys.size) + np.repeat(cursor[rows] - first, count)
            cursor[rows] += count
            t_cell[at], energy[at] = t, e
        row_sums, row = np.zeros(n_freq_bins), np.zeros(n_time_bins)
        for f in np.flatnonzero(totals):
            t = t_cell[starts[f]:starts[f + 1]]
            row[t] = energy[starts[f]:starts[f + 1]]
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
