"""Gram-Schmidt orthogonalization with configurable component ordering.

One sweep of modified Gram-Schmidt with a second reorthogonalization
pass; all projection coefficients are accumulated in a lower
unitriangular matrix whose column sums rescale the orthogonal basis so
that the component sum is preserved exactly.

Orderings (components of an EMD-style decomposition):
  OIMF    IMFs only, highest frequency first; residue left untouched.
  FOIMF   IMFs then residue, highest frequency first.
  ROIMF   residue first, then IMFs lowest to highest frequency.
  FOUIMF / ROUIMF   the same orders after removing each component's
  mean; the summed means are returned as a dc constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Decomposition,
    RankDeficiencyError,
    SampledSignal,
    Variant,
    _unit_exponent,
    _unit_stack,
)
from .emd import is_imf

#: Relative energy below which a swept signal counts as linearly dependent.
DEPENDENCE_THRESHOLD = 1e-12

#: The variants ``orthogonal_variants`` produces.
GRAM_SCHMIDT_VARIANTS = (Variant.OIMF, Variant.FOIMF, Variant.ROIMF,
                         Variant.FOUIMF, Variant.ROUIMF)


@dataclass(frozen=True)
class GsomResult:
    orthogonal_components: tuple[SampledSignal, ...]  # p_i, sum to the input sum
    coefficient_matrix: np.ndarray  # lower unitriangular
    column_sums: np.ndarray


def gram_schmidt(inputs) -> GsomResult:
    """Orthogonalize ``inputs`` in the given order.

    Returns components p_i = c_i * s_i where s_i is the orthogonal basis
    and c_i the i-th column sum of the coefficient matrix, so that
    sum(p_i) equals sum(inputs) elementwise up to roundoff. The sweep
    runs in place on one scaled copy of the inputs: s_k overwrites row k.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("need at least one input signal")
    ref = inputs[0]
    for sig in inputs[1:]:
        ref._check_compatible(sig)

    s, exp = _unit_stack(*(sig.samples for sig in inputs))
    coeff = np.eye(len(s))
    energy = []  # np.dot(s[i], s[i]) of each basis vector
    for k in range(len(s)):
        v = s[k]
        e_in = np.dot(v, v)
        # Two projection passes keep orthogonality at roundoff level even
        # for ill-conditioned component sets; coefficients accumulate so
        # the unitriangular representation stays exact.
        for _ in range(2):
            for i in range(k):
                c = np.dot(v, s[i]) / energy[i]
                v -= c * s[i]
                coeff[k, i] += c
        if (e := np.dot(v, v)) <= DEPENDENCE_THRESHOLD * e_in:
            raise RankDeficiencyError(k)
        energy.append(e)

    col_sums = coeff.sum(axis=0)
    np.ldexp(np.multiply(s, col_sums[:, None], out=s), -exp, out=s)
    return GsomResult(tuple(map(ref.with_samples, s)), coeff, col_sums)


def _variant_ordering(d: Decomposition, variant: Variant):
    """Component slots (IMF indices, then ``len(d.imfs)`` for the residue)
    in orthogonalization order; OIMF leaves the residue out."""
    n = len(d.imfs)
    if variant is Variant.OIMF:
        order = list(range(n))  # IMFs only
    elif variant in (Variant.FOIMF, Variant.FOUIMF):
        order = list(range(n)) + [n]  # IMFs then residue
    elif variant in (Variant.ROIMF, Variant.ROUIMF):
        order = [n] + list(range(n - 1, -1, -1))  # residue, then low to high
    else:
        raise ValueError(f"{variant} is not a Gram-Schmidt variant")
    return order


def orthogonal_variants(d: Decomposition, variant: Variant) -> Decomposition:
    """Apply Gram-Schmidt to ``d`` under the ordering implied by
    ``variant`` and relabel the output back into IMF-first order."""
    order = _variant_ordering(d, variant)
    out = list(d.components)
    dc = d.dc_constant
    if variant in (Variant.FOUIMF, Variant.ROUIMF):
        means = [float(np.mean(c.samples)) for c in out]
        out = [c.with_samples(c.samples - m) for c, m in zip(out, means)]
        dc += float(sum(means))

    # A (near-)zero component carries no direction to orthogonalize
    # against -- a constant residue centered by the uncorrelated variants
    # is the common case -- so, like OIMF's residue, it keeps its slot.
    k = _unit_exponent(*(c.samples for c in out))
    energies = [float(np.dot(u, u)) for u in (np.ldexp(c.samples, k) for c in out)]
    e_total = sum(energies)
    active = [i for i in order if energies[i] > 1e-24 * e_total]
    # No active component (an OIMF of no IMFs, a centred constant): nothing to sweep.
    if active:
        result = gram_schmidt([out[i] for i in active])
        for i, p in zip(active, result.orthogonal_components):
            out[i] = p
    return Decomposition(out[:-1], out[-1], variant, dc)


def imf_property_report(components) -> list[bool]:
    """Run the IMF test on each component; used to compare orderings
    empirically."""
    return [is_imf(c.samples) for c in components]
