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

import numpy as np

from .core import (
    Decomposition,
    SampledSignal,
    Variant,
    energy,
    inner_product,
)
from .emd import SiftConfig, _extract_modes, _sifter
from .memd import MultivariateDecomposition, MultivariateSignal, _multivariate_modes

#: Residue energy below this fraction of the stage input energy triggers
#: the pass-through branch (no orthogonalization against ~zero).
ZERO_RESIDUE_THRESHOLD = 1e-14


@dataclass(frozen=True)
class LinoepStage:
    alpha: float
    epimf: SampledSignal
    residue_out: SampledSignal


def orthogonalize_stage(imf: SampledSignal, residue: SampledSignal) -> LinoepStage:
    """Project ``imf`` onto ``residue`` and split their sum into an
    orthogonal pair; epimf + residue_out equals imf + residue exactly."""
    e_res = energy(residue)
    e_in = energy(imf) + e_res
    if e_res <= ZERO_RESIDUE_THRESHOLD * e_in:
        return LinoepStage(0.0, imf, residue)
    alpha = inner_product(imf, residue) / e_res
    shift = alpha * residue.samples
    # Adding/subtracting the same float array keeps the sum exact.
    epimf = imf.with_samples(imf.samples - shift)
    residue_out = residue.with_samples(residue.samples + shift)
    return LinoepStage(alpha, epimf, residue_out)


def epemd(x: SampledSignal, cfg: SiftConfig = SiftConfig()) -> Decomposition:
    """Energy-preserving EMD of ``x``.

    At each stage one EMD extraction runs on the working signal, the IMF
    is orthogonalized against the residue, and the procedure recurses on
    the adjusted residue. Per-stage alphas are kept in ``diagnostics``.
    """
    alphas: list[float] = []

    def stage(imf, residue):
        st = orthogonalize_stage(imf, residue)
        alphas.append(st.alpha)
        return st.epimf, st.residue_out

    components, residue = _extract_modes(x, _sifter(cfg), stage, cfg.max_imfs)
    return Decomposition(components, residue, Variant.EPEMD,
                         diagnostics={"alphas": alphas})


def verify_linoep(components) -> bool:
    """True iff the components satisfy the chain condition (each one
    orthogonal to the sum of all later ones) and the resulting energy
    identity, both within 1e-9 of the total energy."""
    components = list(components)
    if len(components) < 2:
        raise ValueError("need at least 2 components")
    ref = components[0]
    for sig in components[1:]:
        ref._check_compatible(sig)

    stack = np.array([c.samples for c in components])
    dt = ref.dt
    e_total = float((stack * stack).sum()) * dt
    if e_total == 0.0:
        return True
    tail = np.cumsum(stack[::-1], axis=0)[::-1]  # tail[i] = sum of rows i..end
    for i in range(len(components) - 1):
        if abs(float(np.dot(stack[i], tail[i + 1])) * dt) > 1e-9 * e_total:
            return False
    e_sum = float(np.dot(tail[0], tail[0])) * dt
    return abs(e_total - e_sum) <= 1e-9 * e_total


def _orthogonalize_channels(mode: MultivariateSignal, residue: MultivariateSignal):
    """``orthogonalize_stage`` on each channel of a multivariate pair."""
    stages = [orthogonalize_stage(m, r) for m, r in zip(mode.channels, residue.channels)]
    return (MultivariateSignal(tuple(st.epimf for st in stages)),
            MultivariateSignal(tuple(st.residue_out for st in stages)))


def epmemd(x: MultivariateSignal, K: int = 64,
           cfg: SiftConfig = SiftConfig()) -> MultivariateDecomposition:
    """Energy-preserving multivariate EMD: per-stage MEMD extraction
    followed by channel-wise orthogonalization against the residue. A
    single-channel input falls back to ``epemd``."""
    return _multivariate_modes(x, K, cfg, Variant.EPMEMD, epemd, _orthogonalize_channels)
