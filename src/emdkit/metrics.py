"""Orthogonality and energy-leakage diagnostics.

The overall index IO_T sums every cross inner product of the components
(residue included) and normalizes by the signal energy; the percentage
energy error Pee compares the signal energy with the summed component
energies. For exact decompositions the identity Pee = 100 * IO_T holds
to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Decomposition, SampledSignal, Variant, _unit_stack


@dataclass(frozen=True)
class OrthoReport:
    leakage_matrix: np.ndarray  # symmetric; diagonal = component energies
    io_total: float
    io_pairs: np.ndarray
    pee: float  # percent; negative when component energies exceed E_x
    total_component_energy: float
    signal_energy: float
    reference_energy: float
    reconstruction_error: float  # relative max-norm of x - sum(components)
    component_labels: tuple[str, ...]


def ortho_report(x: SampledSignal, d: Decomposition) -> OrthoReport:
    """Leakage matrix, IO_T, pairwise IO_jk and Pee for a decomposition.

    The residue counts as the last component; a nonzero dc constant is
    appended as an extra constant component. For EEMD (whose completeness
    is only approximate) the ratios are normalized by the energy of the
    reconstructed sum rather than of ``x``, and the reconstruction error
    is reported alongside.

    Every ratio is taken on samples rescaled by one exact power of two,
    so it is the same at any amplitude; the energies are scaled back and
    are ``inf``, without a warning, only where they exceed the float64
    range.
    """
    x._check_compatible(d.residue)  # Decomposition checks every IMF against it
    comps = [c.samples for c in d.components]
    labels = tuple(f"imf{i}" for i in range(1, len(d.imfs) + 1)) + ("residue",)
    if d.dc_constant != 0.0:
        comps.append(np.full(x.n, d.dc_constant))
        labels += ("dc",)
    rows, k = _unit_stack(*comps, x.samples)
    stack, xs = rows[:-1], rows[-1]
    e_x = float(np.dot(xs, xs)) * x.dt
    if e_x == 0.0:
        raise ZeroDivisionError("zero-energy signal: orthogonality ratios undefined")

    gram = (stack @ stack.T) * x.dt
    energies = np.diag(gram)
    total_comp = float(energies.sum())
    cross = float(gram.sum() - total_comp)

    recon = stack.sum(axis=0)
    recon_err = float(np.max(np.abs(recon - xs))) / float(np.max(np.abs(xs)))

    if d.variant is Variant.EEMD:
        e_ref = float(np.dot(recon, recon)) * x.dt
    else:
        e_ref = e_x

    with np.errstate(divide="ignore", invalid="ignore"):
        denom = energies[:, None] + energies[None, :]
        io_pairs = np.where(denom > 0, gram / denom, 0.0)
    np.fill_diagonal(io_pairs, 0.0)

    with np.errstate(over="ignore"):  # energies past the float64 range are inf
        return OrthoReport(
            leakage_matrix=np.ldexp(gram, -2 * k),
            io_total=cross / e_ref,
            io_pairs=io_pairs,
            pee=(e_ref - total_comp) / e_ref * 100.0,
            total_component_energy=float(np.ldexp(total_comp, -2 * k)),
            signal_energy=float(np.ldexp(e_x, -2 * k)),
            reference_energy=float(np.ldexp(e_ref, -2 * k)),
            reconstruction_error=recon_err,
            component_labels=labels,
        )


def pee_identity_check(report: OrthoReport) -> float:
    """Residual of the Pee = 100 * IO_T identity; callers assert <= 1e-9."""
    return abs(report.pee - 100.0 * report.io_total)
