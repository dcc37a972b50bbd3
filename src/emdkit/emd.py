"""Sifting, the IMF test, plain EMD and ensemble EMD.

Sifting stops on the Cauchy SD criterion (default threshold 0.2), an
early IMF-test pass, or a hard iteration cap. Extraction of modes stops
when the running residue no longer supports envelopes (constant,
monotone, or down to a single maximum/minimum).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Decomposition, SampledSignal, Variant
from .envelope import NoEnvelopeError, build_envelopes, detect_extrema

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SiftConfig:
    sd_threshold: float = 0.2
    max_sift_iterations: int = 100
    max_imfs: int = 0  # 0 = unlimited

    def __post_init__(self):
        if not self.sd_threshold > 0:
            raise ValueError("sd_threshold must be > 0")
        if self.max_sift_iterations < 1:
            raise ValueError("max_sift_iterations must be >= 1")
        if self.max_imfs < 0:
            raise ValueError("max_imfs must be >= 0")


@dataclass(frozen=True)
class EemdConfig:
    noise_stddev_ratio: float = 0.2
    ensemble_size: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if self.noise_stddev_ratio < 0:
            raise ValueError("noise_stddev_ratio must be >= 0")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")


def zero_crossing_count(x: SampledSignal) -> int:
    """Count sign changes, ignoring exactly-zero samples."""
    s = x.samples[x.samples != 0.0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(s)) != 0))


def is_imf(x: SampledSignal) -> bool:
    """IMF test: extrema/zero-crossing counts differ by at most one and
    the envelope mean is small (max-norm <= 5% of max |x|)."""
    ext = detect_extrema(x)
    if ext.n_extrema == 0:
        return False
    if abs(ext.n_extrema - zero_crossing_count(x)) > 1:
        return False
    try:
        env = build_envelopes(x)
    except NoEnvelopeError:
        return False
    peak = float(np.max(np.abs(x.samples)))
    if peak == 0.0:
        return False
    return float(np.max(np.abs(env.mean.samples))) <= 0.05 * peak


def sift_one_imf(x: SampledSignal, cfg: SiftConfig = SiftConfig()):
    """Extract one IMF from ``x``; returns (imf, residue) with
    imf + residue == x exactly (elementwise float identity).

    Raises NoEnvelopeError if ``x`` has no envelopes at all, signalling
    the end of the decomposition to the caller.
    """
    h = x.samples
    env = build_envelopes(x)  # propagate NoEnvelopeError on first pass
    for it in range(cfg.max_sift_iterations):
        h_new = h - env.mean.samples
        denom = float(np.dot(h, h))
        sd = float(np.dot(h - h_new, h - h_new)) / denom if denom > 0 else 0.0
        h = h_new
        candidate = x.with_samples(h)
        if sd <= cfg.sd_threshold or is_imf(candidate):
            break
        try:
            env = build_envelopes(candidate)
        except NoEnvelopeError:
            break
    logger.debug("sift finished after %d iteration(s)", it + 1)
    imf = x.with_samples(h)
    return imf, x.with_samples(x.samples - h)


def _extract_modes(x, extract, stage=None, max_imfs: int = 0):
    """The mode-extraction loop behind emd, epemd, memd and epmemd.

    ``extract(work)`` splits the working signal into ``(mode, residue)``
    with mode + residue == work, or returns None when ``work`` has no
    envelope. ``stage(mode, residue)``, if given, returns the pair that
    replaces it (EPEMD's per-stage orthogonalization). Extraction
    continues on the residue; returns (modes, final residue).
    """
    modes = []
    work = x
    while not (max_imfs and len(modes) >= max_imfs):
        pair = extract(work)
        if pair is None:
            break
        mode, work = pair if stage is None else stage(*pair)
        modes.append(mode)
    return tuple(modes), work


def _sifter(cfg: SiftConfig):
    """``sift_one_imf`` as an extractor for ``_extract_modes``."""
    def extract(work):
        try:
            return sift_one_imf(work, cfg)
        except NoEnvelopeError:
            return None
    return extract


def emd(x: SampledSignal, cfg: SiftConfig = SiftConfig()) -> Decomposition:
    """Plain EMD: iterate sifting on successive residues.

    Degenerate inputs (constant, monotone, single hump) yield zero IMFs
    with residue equal to the input.
    """
    imfs, residue = _extract_modes(x, _sifter(cfg), max_imfs=cfg.max_imfs)
    return Decomposition(imfs, residue, Variant.EMD)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Per-trial stream derived from (seed, trial) so trial order is irrelevant.
    return np.random.default_rng([seed, trial])


def eemd(
    x: SampledSignal,
    scfg: SiftConfig = SiftConfig(),
    ecfg: EemdConfig = EemdConfig(),
) -> Decomposition:
    """Ensemble EMD: average EMD over noise-perturbed copies of ``x``.

    Trials whose IMF count falls short of the ensemble maximum are
    zero-padded before averaging. Completeness holds only approximately
    (residual noise ~ sigma/sqrt(N)); the reconstruction error is
    reported in ``diagnostics``.
    """
    sigma = ecfg.noise_stddev_ratio * float(np.std(x.samples))
    trials = []
    for i in range(ecfg.ensemble_size):
        noise = _trial_rng(ecfg.rng_seed, i).standard_normal(x.n) * sigma
        trials.append(emd(x.with_samples(x.samples + noise), scfg))

    n_modes = max(len(d.imfs) for d in trials)
    imf_acc = np.zeros((n_modes, x.n))
    res_acc = np.zeros(x.n)
    for d in trials:
        for k, imf in enumerate(d.imfs):
            imf_acc[k] += imf.samples
        res_acc += d.residue.samples
    imf_acc /= ecfg.ensemble_size
    res_acc /= ecfg.ensemble_size

    imfs = tuple(x.with_samples(row) for row in imf_acc)
    residue = x.with_samples(res_acc)
    recon = imf_acc.sum(axis=0) + res_acc
    scale = float(np.max(np.abs(x.samples))) or 1.0
    diag = {"reconstruction_error": float(np.max(np.abs(recon - x.samples))) / scale}
    return Decomposition(imfs, residue, Variant.EEMD, diagnostics=diag)
