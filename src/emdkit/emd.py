"""Sifting, the IMF test, plain EMD and ensemble EMD.

Sifting stops on the Cauchy SD criterion (default threshold 0.2), an
early IMF-test pass, or a hard iteration cap. Extraction of modes stops
when the running residue no longer supports envelopes (constant,
monotone, down to a single maximum/minimum, or of subnormal amplitude)
or its next IMF would be rounding noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Decomposition, SampledSignal, Variant, _unit_exponent, _unit_stack
from .envelope import EnvelopePair, NoEnvelopeError, _samples, build_envelopes

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


def zero_crossing_count(x) -> int:
    """Count sign changes of the samples ``x``, ignoring exact zeros."""
    v = _samples(x)
    s = v[v != 0.0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(np.sign(s)) != 0))


def is_imf(x) -> bool:
    """IMF test of the samples ``x``: extrema/zero-crossing counts differ
    by at most one and the envelope mean is small (max-norm <= 5% of max |x|)."""
    try:
        env = build_envelopes(x)
    except NoEnvelopeError:
        return False
    return _imf_test(x, env)


def _below_normal(x) -> bool:
    """True for nonzero samples ``x`` whose peak is below the normal
    floating-point range; every decomposition gives them no IMFs."""
    return 0.0 < float(np.abs(x).max()) < np.finfo(float).tiny


def _rounding_noise(mode, x) -> bool:
    """True when the peak of ``mode``, sifted from the samples ``x``, is at
    most 16 eps times the peak of ``x``: the sift's rounding errors alone
    make such a mode, and would make another from every residue."""
    return float(np.abs(mode).max()) <= 16 * np.finfo(float).eps * float(np.abs(x).max())


def _imf_test(x, env: EnvelopePair) -> bool:
    """The IMF test of the samples ``x``, read from their envelope ``env``."""
    if abs(env.extrema.n_extrema - zero_crossing_count(x)) > 1:
        return False
    return float(np.abs(env.mean).max()) <= 0.05 * float(np.abs(x).max())


def sift_one_imf(x: SampledSignal, cfg: SiftConfig = SiftConfig()):
    """Extract one IMF from ``x``; returns (imf, residue) with
    imf + residue == x exactly (elementwise float identity).

    Raises NoEnvelopeError if ``x`` has no envelopes at all, signalling
    the end of the decomposition to the caller. A nonzero ``x`` whose
    amplitude is below the normal floating-point range counts as having
    none: its samples carry too few significant bits for envelopes, and
    the spline's rounding noise would feed new extrema to every residue.
    So does an ``x`` whose IMF comes out as rounding noise.
    """
    h = x.samples
    if _below_normal(h):
        raise NoEnvelopeError("amplitude below the normal floating-point range")
    env = build_envelopes(h)  # propagate NoEnvelopeError on first pass
    for it in range(cfg.max_sift_iterations):
        h_new = h - env.mean
        (hs, ds), _ = _unit_stack(h, h - h_new)
        denom = float(np.dot(hs, hs))
        sd = float(np.dot(ds, ds)) / denom if denom > 0 else 0.0
        h = h_new
        if sd <= cfg.sd_threshold:
            break
        try:
            env = build_envelopes(h)
        except NoEnvelopeError:
            break
        if _imf_test(h, env):
            break
    logger.debug("sift finished after %d iteration(s)", it + 1)
    if _rounding_noise(h, x.samples):
        raise NoEnvelopeError("the IMF is rounding noise")
    return x.with_samples(h), x.with_samples(x.samples - h)


def _extract_modes(x, extract, stage=None, max_imfs: int = 0):
    """The mode-extraction loop behind emd, epemd, memd and epmemd.

    ``extract(work)`` splits the working signal into ``(mode, residue)``
    with mode + residue == work; its NoEnvelopeError ends extraction.
    ``stage(mode, residue)``, if given, returns the pair that replaces it
    (EPEMD's per-stage orthogonalization). Extraction continues on the
    residue; returns (modes, final residue).
    """
    modes = []
    work = x
    while not (max_imfs and len(modes) >= max_imfs):
        try:
            pair = extract(work)
        except NoEnvelopeError:
            break
        mode, work = pair if stage is None else stage(*pair)
        modes.append(mode)
    return tuple(modes), work


def emd(x: SampledSignal, cfg: SiftConfig = SiftConfig()) -> Decomposition:
    """Plain EMD: iterate sifting on successive residues.

    Degenerate inputs (constant, monotone, single hump, amplitude below
    the normal floating-point range) yield zero IMFs with residue equal
    to the input.
    """
    imfs, residue = _extract_modes(x, partial(sift_one_imf, cfg=cfg), max_imfs=cfg.max_imfs)
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
    # The ensemble runs on x scaled by 2**k, as in memd, so that neither the
    # noise nor the trial sums leave the float64 range; the averages are
    # scaled back exactly. Subnormal x keeps k = 0: emd gives it no IMFs.
    k = 0 if _below_normal(x.samples) else _unit_exponent(x.samples)
    xs = np.ldexp(x.samples, k)
    sigma = ecfg.noise_stddev_ratio * float(np.std(xs))
    # Trials go into running sums; a mode no earlier trial reached starts at 0.
    imf_acc = np.zeros((0, x.n))
    res_acc = np.zeros(x.n)
    for i in range(ecfg.ensemble_size):
        noise = _trial_rng(ecfg.rng_seed, i).standard_normal(x.n) * sigma
        d = emd(x.with_samples(xs + noise), scfg)
        if len(d.imfs) > len(imf_acc):
            imf_acc = np.vstack((imf_acc, np.zeros((len(d.imfs) - len(imf_acc), x.n))))
        for j, imf in enumerate(d.imfs):
            imf_acc[j] += imf.samples
        res_acc += d.residue.samples
    imf_acc /= ecfg.ensemble_size
    res_acc /= ecfg.ensemble_size

    recon = imf_acc.sum(axis=0) + res_acc
    scale = float(np.max(np.abs(xs))) or 1.0
    diag = {"reconstruction_error": float(np.max(np.abs(recon - xs))) / scale}
    imfs = tuple(x.with_samples(np.ldexp(row, -k)) for row in imf_acc)
    residue = x.with_samples(np.ldexp(res_acc, -k))
    return Decomposition(imfs, residue, Variant.EEMD, diagnostics=diag)
