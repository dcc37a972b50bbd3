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
from .envelope import (NoEnvelopeError, _BATCH_SAMPLES, _envelope_knots, _envelopes, _samples,
                       build_envelopes)

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
        if not 0 <= self.noise_stddev_ratio < np.inf:  # NaN fails every comparison
            raise ValueError("noise_stddev_ratio must be finite and >= 0")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")


def zero_crossing_count(x) -> int:
    """Count sign changes of the samples ``x``, ignoring exact zeros."""
    return _zero_crossings(_samples(x))


def _zero_crossings(v: np.ndarray) -> int:
    """``zero_crossing_count`` of the validated sample array ``v``."""
    s = np.signbit(v[v != 0.0])
    return int(np.count_nonzero(s[1:] != s[:-1]))


def is_imf(x) -> bool:
    """IMF test of the samples ``x``: extrema/zero-crossing counts differ
    by at most one and the envelope mean is small (max-norm <= 5% of max |x|)."""
    v = _samples(x)
    try:
        env = build_envelopes(v)
    except NoEnvelopeError:
        return False
    return _imf_test(v, env.extrema.n_extrema, env.mean)


def _below_normal(x) -> bool:
    """True for nonzero samples ``x`` whose peak is below the normal
    floating-point range; every decomposition gives them no IMFs."""
    return 0.0 < float(np.abs(x).max()) < np.finfo(float).tiny


#: Rounding errors alone vary a result of float64 arithmetic on samples by
#: up to this fraction of the samples' peak.
_ROUNDING_NOISE = 16 * np.finfo(float).eps


def _imf_test(v: np.ndarray, n_extrema: int, mean: np.ndarray) -> bool:
    """``is_imf`` of the validated samples ``v`` from its extrema count and mean envelope."""
    return (abs(n_extrema - _zero_crossings(v)) <= 1
            and float(np.abs(mean).max()) <= 0.05 * float(np.abs(v).max()))


def _imf_or_sd(sd_threshold: float, h: np.ndarray, env, n: int):
    """``_sift``'s default stop rule, sent ``env = (n_extrema, mean)``: end on ``h`` if it
    passes the IMF test after a subtraction, else on ``h - mean`` if that step's Cauchy SD
    is at most ``sd_threshold``."""
    if n and _imf_test(h, *env):
        return None
    h_new = h - env[1]
    (hs, ds), _ = _unit_stack(h, h - h_new)
    denom = float(np.dot(hs, hs))
    return h_new, denom == 0 or float(np.dot(ds, ds)) / denom <= sd_threshold


def _sift(x: np.ndarray, cfg: SiftConfig, stop=None):
    """The sift of one IMF from the samples ``x``, for every algorithm: it
    yields each candidate h whose envelopes it needs, is sent them or None,
    and returns (imf, x - imf). ``stop(h, env, n)`` returns None to end on
    h, else the next candidate and whether to end on it; n counts the
    subtractions, at most ``cfg.max_sift_iterations``.

    Raises NoEnvelopeError, which ends a decomposition, if ``x`` has no
    envelopes at all, is nonzero but below the normal range, or sifts to an
    IMF peaking at most ``_ROUNDING_NOISE`` of ``x``'s: in the last two the
    sift's rounding noise alone would make a mode of every residue.
    """
    if _below_normal(x):
        raise NoEnvelopeError("amplitude below the normal floating-point range")
    stop = stop or partial(_imf_or_sd, cfg.sd_threshold)
    h, n, last = x, 0, False
    while not last and n < cfg.max_sift_iterations:
        env = yield h
        if env is None and n == 0:
            raise NoEnvelopeError("no envelopes")
        if env is None or (step := stop(h, env, n)) is None:
            break
        (h, last), n = step, n + 1
    logger.debug("sift finished after %d iteration(s)", n)
    if float(np.abs(h).max()) <= _ROUNDING_NOISE * float(np.abs(x).max()):
        raise NoEnvelopeError("the IMF is rounding noise")
    return h, x - h


def _drive(sift, build, wrap):
    """Run the ``_sift`` generator ``sift``, sending it ``build(h)`` per candidate h,
    or None where that raises NoEnvelopeError; returns wrap(imf), wrap(residue)."""
    env = None
    try:
        while True:
            h = sift.send(env)
            try:
                env = build(h)
            except NoEnvelopeError:
                env = None
    except StopIteration as done:
        return tuple(map(wrap, done.value))


def sift_one_imf(x: SampledSignal, cfg: SiftConfig = SiftConfig()):
    """Extract one IMF from ``x`` by ``_sift``, with one ``build_envelopes``
    per candidate; returns (imf, residue), imf + residue == x to within
    one rounding per sample. Raises NoEnvelopeError where ``_sift`` does.
    """
    return _drive(_sift(x.samples, cfg),
                  lambda h: ((e := build_envelopes(h)).extrema.n_extrema, e.mean), x.with_samples)


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


def _row_batches(count: int, n: int) -> range:
    """The first row of each lockstep batch of ``n``-sample rows that
    ``range(count)`` is cut into, as a range: no plan is held in memory."""
    return range(0, count, max(1, _BATCH_SAMPLES // n))


def _batch(starts: range, start: int) -> range:
    """The rows of the batch that begins at ``start`` in the plan ``starts``."""
    return range(start, min(start + starts.step, starts.stop))


def _row_modes(x: SampledSignal, cfg: SiftConfig, stage):
    """``_extract_modes`` with ``sift_one_imf`` as a generator: yields
    what each ``_sift`` yields; returns (modes, final residue)."""
    modes, work = [], x
    while not (cfg.max_imfs and len(modes) >= cfg.max_imfs):
        try:
            imf, residue = yield from _sift(work.samples, cfg)
        except NoEnvelopeError:
            break
        pair = work.with_samples(imf), work.with_samples(residue)
        mode, work = pair if stage is None else stage(*pair)
        modes.append(mode)
    return modes, work


def _extract_rows(rows: np.ndarray, cfg: SiftConfig, sample_rate: float, stages=None):
    """``_row_modes`` for each row of the 2-D samples ``rows`` at ``sample_rate``,
    in lockstep: each step builds the envelopes of every candidate the rows
    yield at once. ``stages[r]``, if given, is row r's ``stage``. Returns
    each row's modes and final residue, as signals."""
    out = [None] * len(rows)
    sifts = [(r, _row_modes(SampledSignal(v, sample_rate), cfg,
                            None if stages is None else stages[r]), None)
             for r, v in enumerate(rows)]
    while sifts:
        cands = []
        for r, sift, env in sifts:
            try:
                cands.append((r, sift, sift.send(env)))
            except StopIteration as done:
                out[r] = done.value
        knots = []
        for *_, h in cands:
            try:
                knots.append(_envelope_knots(h))
            except NoEnvelopeError:
                knots.append(None)
        # The pairs stay referenced until the next build: freed at once, their
        # heap pages went back to the OS and were faulted in every step (one CPU
        # of a 2-core x86 box: 42k minor faults per band against 5k, ~30% slower).
        pairs, means = _envelopes([k for k in knots if k is not None], rows.shape[1])
        means = iter(means)
        sifts = [(r, sift, None if k is None else (k[0].n_extrema, next(means)))
                 for (r, sift, _), k in zip(cands, knots)]
    return [m for m, _ in out], [w for _, w in out]


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
    # Trials go into running sums, in trial order; a mode no earlier trial
    # reached starts at 0.
    imf_acc = np.zeros((0, x.n))
    res_acc = np.zeros(x.n)
    starts = _row_batches(ecfg.ensemble_size, x.n)
    for start in starts:
        rows = np.array([xs + _trial_rng(ecfg.rng_seed, i).standard_normal(x.n) * sigma
                         for i in _batch(starts, start)])
        for modes, residue in zip(*_extract_rows(rows, scfg, x.sample_rate)):
            if len(modes) > len(imf_acc):
                imf_acc = np.vstack((imf_acc, np.zeros((len(modes) - len(imf_acc), x.n))))
            for j, mode in enumerate(modes):
                imf_acc[j] += mode.samples
            res_acc += residue.samples
    imf_acc /= ecfg.ensemble_size
    res_acc /= ecfg.ensemble_size

    recon = imf_acc.sum(axis=0) + res_acc
    scale = float(np.max(np.abs(xs))) or 1.0
    diag = {"reconstruction_error": float(np.max(np.abs(recon - xs))) / scale}
    imfs = tuple(x.with_samples(np.ldexp(row, -k)) for row in imf_acc)
    residue = x.with_samples(np.ldexp(res_acc, -k))
    return Decomposition(imfs, residue, Variant.EEMD, diagnostics=diag)
