"""Statistical significance of IMFs against a white-noise null.

Each component is summarized by its mean period (two zero crossings per
oscillation) and mean energy density. The 5th/95th percentile confidence
band is built by Monte Carlo: decompose seeded unit-variance white-noise
realizations, pool the (period, energy) pairs of their components and
take empirical percentiles per octave of log period. Components whose
energy falls inside the band are indistinguishable from white noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import _fork
from .core import Decomposition, PeriodUndefinedError, SampledSignal, Variant, _unit_stack
from .emd import SiftConfig, _extract_rows, _row_batches, _trial_noise, zero_crossing_count
from .epemd import _linoep_stage
from .gsom import GRAM_SCHMIDT_VARIANTS, orthogonal_variants

#: Width of a log-period pooling bin, in octaves.
OCTAVES_PER_BIN = 1.0

#: Fewest samples a component needs for its period statistics.
MIN_LENGTH = 8


@dataclass(frozen=True)
class SignificancePoint:
    mean_period: float  # seconds
    energy_density: float  # per-sample mean of imf^2
    inside_bounds: Optional[bool]  # None when the period is undefined


@dataclass(frozen=True)
class ConfidenceBand:
    period_grid: np.ndarray  # seconds, ascending
    lower_5th: np.ndarray
    upper_95th: np.ndarray
    ensemble_size: int
    noise_length: int


def imf_statistics(imf: SampledSignal) -> SignificancePoint:
    """Mean period and mean energy density of one component."""
    if imf.n < MIN_LENGTH:
        raise ValueError("component too short for period statistics")
    zc = zero_crossing_count(imf.samples)
    if zc == 0:
        raise PeriodUndefinedError("no zero crossings: component is a trend")
    mean_period = 2.0 * imf.duration / zc
    energy_density = float(np.mean(imf.samples**2))
    return SignificancePoint(mean_period, energy_density, None)


def _decompose_variant(rows: np.ndarray, decomposer: Variant, cfg: SiftConfig,
                       sample_rate: float) -> list[Decomposition]:
    """The ``decomposer`` decompositions of one batch of noise rows sifted in
    lockstep, each bit for bit as of its row alone: EPEMD with its alphas,
    EMD, or a Gram-Schmidt variant of that EMD."""
    if decomposer is Variant.EPEMD:
        alphas: list[list[float]] = [[] for _ in rows]
        stages = [partial(_linoep_stage, a) for a in alphas]
        return [Decomposition(ms, res, Variant.EPEMD, diagnostics={"alphas": a})
                for ms, res, a in zip(*_extract_rows(rows, cfg, sample_rate, stages), alphas)]
    ds = [Decomposition(ms, res, Variant.EMD)
          for ms, res in zip(*_extract_rows(rows, cfg, sample_rate))]
    return ds if decomposer is Variant.EMD else [orthogonal_variants(d, decomposer) for d in ds]


def _batch_points(length: int, decomposer: Variant, seed: int, sample_rate: float,
                  cfg: SiftConfig, starts: range, start: int) -> list[tuple[float, float]]:
    """(mean period, energy density) of each periodic component of the trials
    of the lockstep batch of ``starts`` at ``start``."""
    points = []
    for d in _decompose_variant(_trial_noise(seed, length, starts, start), decomposer, cfg,
                                sample_rate):
        for imf in d.imfs:
            try:
                pt = imf_statistics(imf)
            except PeriodUndefinedError:
                continue
            points.append((pt.mean_period, pt.energy_density))
    return points


def white_noise_band(
    length: int,
    decomposer: Variant = Variant.EMD,
    trials: int = 100,
    seed: int = 0,
    sample_rate: float = 1.0,
    cfg: SiftConfig = SiftConfig(),
) -> ConfidenceBand:
    """Monte-Carlo 5th/95th percentile band for components of white noise.

    Deterministic given ``seed``; trial streams are derived from
    (seed, trial index) so evaluation order does not matter. The lockstep
    batches of trials go through ``_fork.ordered``, at most one process per
    batch, and their points are pooled in trial order on any CPU count.
    """
    if trials < 50:
        raise ValueError("need at least 50 trials")
    if length < MIN_LENGTH:
        raise ValueError(f"need a noise length of at least {MIN_LENGTH} samples, "
                         f"got {length}")
    if decomposer not in (Variant.EMD, Variant.EPEMD, *GRAM_SCHMIDT_VARIANTS):
        raise ValueError(f"unsupported decomposer {decomposer}")
    starts = _row_batches(trials, length)
    with _fork.ordered(partial(_batch_points, length, decomposer, seed, sample_rate, cfg, starts),
                       starts, _fork.worker_count(length, len(starts))) as points:
        periods, energies = np.array([p for ps in points for p in ps]).reshape(-1, 2).T
    log_p = np.log2(periods)
    e = energies
    lo_edge = np.floor(log_p.min())
    n_bins = int(np.ceil((log_p.max() - lo_edge) / OCTAVES_PER_BIN)) + 1
    grid, lower, upper = [], [], []
    for b in range(n_bins):
        mask = (log_p >= lo_edge + b * OCTAVES_PER_BIN) & (
            log_p < lo_edge + (b + 1) * OCTAVES_PER_BIN
        )
        if np.count_nonzero(mask) < 5:
            continue
        # Anchor the grid at the mean log-period of the bin's points, not
        # the bin center: component periods cluster dyadically, and a
        # grid aligned with the clusters keeps the interpolated band
        # honest where the points actually fall.
        grid.append(2.0 ** float(np.mean(log_p[mask])))
        lower.append(float(np.percentile(e[mask], 5)))
        upper.append(float(np.percentile(e[mask], 95)))
    return ConfidenceBand(
        np.array(grid), np.array(lower), np.array(upper), trials, length
    )


def significance_test(d: Decomposition, band: ConfidenceBand) -> list[SignificancePoint]:
    """Mark each IMF of ``d`` inside/outside the band.

    The input variance is normalized to one before testing so the
    decision is invariant under uniform scaling, at any finite amplitude:
    every energy is taken on one ``_unit_stack`` of the reconstruction and
    the IMFs. The band's percentile curves are interpolated in log-log
    space and held at the ends.
    """
    rows, k = _unit_stack(d.reconstruct().samples, *(imf.samples for imf in d.imfs))
    var = float(np.var(rows[0]))
    scale = var if var > 0 else 1.0
    log_grid = np.log2(band.period_grid)
    log_lo = np.log2(np.maximum(band.lower_5th, 1e-300))
    log_hi = np.log2(np.maximum(band.upper_95th, 1e-300))

    points: list[SignificancePoint] = []
    with np.errstate(over="ignore"):  # a density past the float64 range reads inf
        for imf, u in zip(d.imfs, rows[1:]):
            e = float(np.mean(u**2))
            density = float(np.ldexp(e, -2 * k))
            try:
                period = imf_statistics(imf).mean_period
            except PeriodUndefinedError:
                points.append(SignificancePoint(float("nan"), density, None))
                continue
            lp = np.log2(period)
            lo = 2.0 ** float(np.interp(lp, log_grid, log_lo))
            hi = 2.0 ** float(np.interp(lp, log_grid, log_hi))
            points.append(SignificancePoint(period, density, lo <= e / scale <= hi))
    return points
