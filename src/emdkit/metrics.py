"""Orthogonality and energy-leakage diagnostics, and the contracts ``emdkit verify`` checks.

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
from .gsom import GRAM_SCHMIDT_VARIANTS, _variant_ordering

#: Relative tolerance of the exact contracts: completeness, the LINOEP
#: chain and its energy identity, and Pee = 100 * IO_T.
EXACT_TOL = 1e-9

#: Largest |IO_jk| between two Gram-Schmidt components.
PAIRWISE_TOL = 1e-6

#: Variants whose components sum to the signal only approximately (EEMD's
#: ensemble mean): their ratios are taken against the energy of the
#: reconstruction, and their completeness is reported, never failed.
APPROXIMATE_VARIANTS = frozenset({Variant.EEMD})


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
    appended as an extra constant component. For ``APPROXIMATE_VARIANTS``
    the ratios are normalized by the energy of the reconstructed sum
    rather than of ``x``, and the reconstruction error is reported
    alongside.

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

    e_ref = float(np.dot(recon, recon)) * x.dt if d.variant in APPROXIMATE_VARIANTS else e_x

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
    """Residual of the Pee = 100 * IO_T identity: at most ``EXACT_TOL`` when exact."""
    return abs(report.pee - 100.0 * report.io_total)


def verify_linoep(components) -> bool:
    """True iff the components satisfy the chain condition (each one
    orthogonal to the sum of all later ones) and the resulting energy
    identity, both within ``EXACT_TOL`` of the total energy."""
    components = list(components)
    if len(components) < 2:
        raise ValueError("need at least 2 components")
    return _linoep_defect(components) <= EXACT_TOL


def _linoep_defect(components) -> float:
    """The largest |<c_i, c_i+1 + ... + c_m>| and the energy identity's
    defect, whichever is larger, over the total energy (0 when that is 0)."""
    for sig in components[1:]:
        components[0]._check_compatible(sig)
    stack, _ = _unit_stack(*(c.samples for c in components))
    gram = stack @ stack.T
    e_total = float(np.trace(gram))
    # Row i of the strict upper triangle sums to <c_i, c_i+1 + ... + c_m>;
    # the whole matrix sums to the energy of the component sum.
    chain = np.triu(gram, 1).sum(axis=1)
    defect = max(float(np.abs(chain).max()), abs(e_total - float(gram.sum())))
    return defect / e_total if e_total else 0.0


def _worst_pair(r: OrthoReport, d: Decomposition) -> float:
    """The largest |IO_jk| among the components ``d``'s sweep made orthogonal."""
    slots = _variant_ordering(d, d.variant)
    return float(np.max(np.abs(r.io_pairs[np.ix_(slots, slots)]), initial=0.0))


#: Every contract, in the order ``emdkit verify`` prints them: its name, the
#: variants it applies to, its tolerance (None: reported, never failed), what
#: it measures from a channel's report and decomposition, and its detail, a
#: format of that ``value`` and the number of ``components``.
CONTRACTS = (
    ("completeness", frozenset(Variant) - APPROXIMATE_VARIANTS, EXACT_TOL,
     lambda r, d: r.reconstruction_error, "relative error {value:.3e}"),
    ("completeness (diagnostic)", APPROXIMATE_VARIANTS, None,
     lambda r, d: r.reconstruction_error, "relative error {value:.3e} (approximate by design)"),
    ("pairwise orthogonality", frozenset(GRAM_SCHMIDT_VARIANTS), PAIRWISE_TOL,
     _worst_pair, "max |IO_jk| {value:.3e}"),
    ("chain orthogonality", frozenset({Variant.EPEMD, Variant.EPMEMD}), EXACT_TOL,
     lambda r, d: _linoep_defect(d.components), "{components} components"),
    ("energy-error identity", frozenset(Variant), EXACT_TOL,
     lambda r, d: pee_identity_check(r), "|Pee - 100*IO_T| = {value:.3e}"),
)


def verdicts(x: SampledSignal, d: Decomposition):
    """(name, pass, detail) of each of ``CONTRACTS`` that applies to
    ``d.variant``, for ``d`` a decomposition of ``x``."""
    r = ortho_report(x, d)
    for name, variants, tol, measure, detail in CONTRACTS:
        if d.variant in variants:
            value = measure(r, d)
            yield (name, tol is None or value <= tol,
                   detail.format(value=value, components=len(d.components)))
