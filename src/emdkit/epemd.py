"""Energy-preserving EMD: per-stage orthogonalization of each extracted
IMF against its residue.

Each stage splits the working signal exactly into an orthogonal pair
(imf - alpha*residue, (1 + alpha)*residue); recursing on the second
member yields a component chain in which every component is orthogonal
to the sum of all later ones, so the component energies sum to the
signal energy although the components are not pairwise orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Decomposition, SampledSignal, Variant, _unit_stack
from .emd import SiftConfig, _modes_by_call
from .memd import MultivariateDecomposition, MultivariateSignal, _multivariate_modes

#: Residue energy below this fraction of the stage input energy triggers
#: the pass-through branch (no orthogonalization against ~zero).
ZERO_RESIDUE_THRESHOLD = 1e-14


@dataclass(frozen=True)
class LinoepStage:
    alpha: float
    epimf: SampledSignal
    residue_out: SampledSignal


def _split(imf: np.ndarray, residue: np.ndarray, dt: float):
    """``orthogonalize_stage`` on arrays of period ``dt``: (alpha, epimf, residue_out)."""
    (u, r), _ = _unit_stack(imf, residue)
    e_res = float(np.dot(r, r)) * dt
    if e_res <= ZERO_RESIDUE_THRESHOLD * (float(np.dot(u, u)) * dt + e_res):
        return 0.0, imf, residue
    alpha = float(np.dot(u, r)) * dt / e_res
    shift = alpha * residue
    # Adding/subtracting the same float array keeps the sum exact.
    return alpha, imf - shift, residue + shift


def orthogonalize_stage(imf: SampledSignal, residue: SampledSignal) -> LinoepStage:
    """Project ``imf`` onto ``residue`` and split their sum into an
    orthogonal pair; epimf + residue_out equals imf + residue exactly.
    The energies behind alpha are taken on exactly rescaled samples."""
    imf._check_compatible(residue)
    alpha, m, r = _split(imf.samples, residue.samples, imf.dt)
    return LinoepStage(alpha, imf.with_samples(m), residue.with_samples(r))


def _linoep_stage(alphas: list, imf: SampledSignal, residue: SampledSignal):
    """One EPEMD stage of ``emd._modes``: the orthogonal pair, with its
    alpha appended to ``alphas``."""
    st = orthogonalize_stage(imf, residue)
    alphas.append(st.alpha)
    return st.epimf, st.residue_out


def epemd(x: SampledSignal, cfg: SiftConfig = SiftConfig()) -> Decomposition:
    """Energy-preserving EMD of ``x``.

    At each stage one EMD extraction runs on the working signal, the IMF
    is orthogonalized against the residue, and the procedure recurses on
    the adjusted residue. Per-stage alphas are kept in ``diagnostics``.
    """
    alphas: list[float] = []
    components, residue = _modes_by_call(x, cfg, partial(_linoep_stage, alphas))
    return Decomposition(components, residue, Variant.EPEMD,
                         diagnostics={"alphas": alphas})


def _orthogonalize_channels(x: MultivariateSignal, mode: np.ndarray, residue: np.ndarray):
    """``_split`` of each channel's columns of a pair of (n, channels) matrices of ``x``."""
    pairs = [_split(m, r, ch.dt)[1:] for ch, m, r in zip(x.channels, mode.T, residue.T)]
    return tuple(map(np.column_stack, zip(*pairs)))


def epmemd(x: MultivariateSignal, K: int = 64,
           cfg: SiftConfig = SiftConfig()) -> MultivariateDecomposition:
    """Energy-preserving multivariate EMD: per-stage MEMD extraction
    followed by channel-wise orthogonalization against the residue. A
    single-channel input falls back to ``epemd``; on more channels
    ``cfg.sd_threshold`` has no effect."""
    stage = partial(_orthogonalize_channels, x)
    return _multivariate_modes(x, K, cfg, Variant.EPMEMD, epemd, stage)
