from dataclasses import replace

import numpy as np
import pytest

from emdkit import (
    Decomposition,
    DimensionMismatchError,
    EemdConfig,
    SampledSignal,
    SignalKind,
    SignalSpec,
    Variant,
    eemd,
    emd,
    generate,
    orthogonal_variants,
    ortho_report,
    pee_identity_check,
)
from emdkit.metrics import CONTRACTS, EXACT_TOL, PAIRWISE_TOL, verdicts
from conftest import sine


def sig(values, rate=1.0):
    return SampledSignal(np.asarray(values, dtype=float), rate)


class TestOrthoReport:
    def test_orthogonal_split_is_leak_free(self):
        a = sine(4.0, 256.0, 1.0)
        b = sine(8.0, 256.0, 1.0)
        x = a + b
        d = Decomposition((a,), b, Variant.EMD)
        rep = ortho_report(x, d)
        assert abs(rep.io_total) <= 1e-12
        assert abs(rep.pee) <= 1e-10

    def test_duplicated_component_gives_half(self):
        y = sine(4.0, 256.0, 1.0)
        x = 2.0 * y
        d = Decomposition((y,), y, Variant.EMD)
        rep = ortho_report(x, d)
        assert rep.io_total == pytest.approx(0.5, abs=1e-12)

    def test_epemd_lp_signal(self):
        from emdkit import epemd

        x = generate(SignalSpec(SignalKind.LP))
        rep = ortho_report(x, epemd(x))
        assert abs(rep.io_total) <= 1e-12

    def test_leakage_matrix_structure(self, rng):
        x = sig(rng.standard_normal(512), 64.0)
        d = emd(x)
        rep = ortho_report(x, d)
        m = rep.leakage_matrix
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.all(np.diag(m) >= 0)
        assert rep.component_labels[-1] == "residue"

    def test_dc_component_appended(self):
        x = sig(np.sin(2 * np.pi * 4 * np.arange(256) / 64.0) + 2.0, 64.0)
        d = orthogonal_variants(emd(x), Variant.ROUIMF)
        rep = ortho_report(x, d)
        assert rep.component_labels[-1] == "dc"

    def test_zero_energy_rejected(self):
        x = sig(np.zeros(16))
        d = Decomposition((), x, Variant.EMD)
        with pytest.raises(ZeroDivisionError):
            ortho_report(x, d)

    def test_scaling_invariance(self, rng):
        x = sig(rng.standard_normal(512), 64.0)
        d = emd(x)
        rep1 = ortho_report(x, d)
        alpha = 7.5
        xs = alpha * x
        ds = Decomposition(tuple(alpha * i for i in d.imfs), alpha * d.residue,
                           Variant.EMD)
        rep2 = ortho_report(xs, ds)
        assert rep2.io_total == pytest.approx(rep1.io_total, rel=1e-10, abs=1e-14)
        assert rep2.pee == pytest.approx(rep1.pee, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n, rate", [(255, 64.0), (256, 32.0)])
    def test_signal_must_match_the_decomposition(self, rng, n, rate):
        d = emd(sig(rng.standard_normal(256), 64.0))
        with pytest.raises(DimensionMismatchError):
            ortho_report(sig(rng.standard_normal(n), rate), d)

    def test_pee_sign_convention(self):
        # Component energies exceeding the signal energy make Pee negative.
        y = sine(4.0, 256.0, 1.0)
        x = 2.0 * y
        d = Decomposition((3.0 * y,), -1.0 * y, Variant.EMD)
        rep = ortho_report(x, d)
        assert rep.pee < 0


class TestPeeIdentity:
    def test_random_emd_decompositions(self, rng):
        worst = 0.0
        for _ in range(100):
            x = sig(rng.standard_normal(256), 32.0)
            rep = ortho_report(x, emd(x))
            worst = max(worst, pee_identity_check(rep))
        assert worst <= 1e-9

    def test_eemd_uses_reconstructed_reference(self):
        x = sine(4.0, 256.0, 2.0) + sine(32.0, 256.0, 2.0)
        d = eemd(x, ecfg=EemdConfig(ensemble_size=20, rng_seed=1))
        rep = ortho_report(x, d)
        assert pee_identity_check(rep) <= 1e-9
        assert rep.reference_energy != rep.signal_energy
        assert rep.reconstruction_error > 0

    def test_roimf_tiny_residuals(self):
        t = np.arange(1024) / 256.0
        x = sig(sum(np.sin(2 * np.pi * f * t) for f in (4, 8, 16, 32)), 256.0)
        d = orthogonal_variants(emd(x), Variant.ROIMF)
        rep = ortho_report(x, d)
        assert abs(rep.pee) <= 1e-12
        assert abs(rep.io_total) <= 1e-12
        assert pee_identity_check(rep) <= 1e-13


#: README's contract table: the checks ``verify`` applies to each variant.
README_CONTRACTS = {
    Variant.EMD: ("completeness", "energy-error identity"),
    Variant.MEMD: ("completeness", "energy-error identity"),
    Variant.EEMD: ("completeness (diagnostic)", "energy-error identity"),
    Variant.EPEMD: ("completeness", "chain orthogonality", "energy-error identity"),
    Variant.EPMEMD: ("completeness", "chain orthogonality", "energy-error identity"),
    **{v: ("completeness", "pairwise orthogonality", "energy-error identity")
       for v in (Variant.OIMF, Variant.FOIMF, Variant.ROIMF, Variant.FOUIMF, Variant.ROUIMF)},
}


def verdict(name, x, d):
    """The (pass, detail) of the contract ``name`` for ``d``."""
    return next((ok, detail) for n, ok, detail in verdicts(x, d) if n == name)


class TestContractTable:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_each_variant_gets_the_readme_contracts(self, variant):
        x = sine(4.0, 256.0, 1.0) + sine(16.0, 256.0, 1.0)
        d = replace(emd(x), variant=variant)
        assert tuple(name for name, _, _ in verdicts(x, d)) == README_CONTRACTS[variant]

    def test_tolerances(self):
        tolerances = {name: tol for name, _, tol, *_ in CONTRACTS}
        assert tolerances == {"completeness": EXACT_TOL, "completeness (diagnostic)": None,
                              "pairwise orthogonality": PAIRWISE_TOL,
                              "chain orthogonality": EXACT_TOL,
                              "energy-error identity": EXACT_TOL}
        assert (EXACT_TOL, PAIRWISE_TOL) == (1e-9, 1e-6)

    @pytest.mark.parametrize("f, ok", [(0.99, True), (1.01, False)])
    def test_completeness_at_its_tolerance(self, f, ok):
        # The residue misses x by f tolerances at a zero sample, x's peak is 1.
        x = sig([1.0, 0.0, -0.5, 0.25])
        d = Decomposition((), sig([1.0, f * EXACT_TOL, -0.5, 0.25]), Variant.EMD)
        assert verdict("completeness", x, d) == (ok, f"relative error {f * EXACT_TOL:.3e}")
        # An approximate variant reports the same error and never fails.
        assert verdict("completeness (diagnostic)", x, replace(d, variant=Variant.EEMD)) == (
            True, f"relative error {f * EXACT_TOL:.3e} (approximate by design)")

    @pytest.mark.parametrize("f, ok", [(0.99, True), (1.01, False)])
    def test_pairwise_at_its_tolerance(self, f, ok):
        # IO_12 = t / (2 + t**2) for a unit imf and a residue (t, 1).
        t = 2.0 * f * PAIRWISE_TOL
        t *= 1.0 + t * t / 2.0
        imf, residue = sig([1.0, 0.0, 0.0]), sig([t, 1.0, 0.0])
        d = Decomposition((imf,), residue, Variant.FOIMF)
        got, detail = verdict("pairwise orthogonality", imf + residue, d)
        assert got is ok and detail == f"max |IO_jk| {f * PAIRWISE_TOL:.3e}"

    def test_pairwise_scope_is_the_sweep_order(self):
        # Orthogonal IMFs over a residue that leaks into the first: OIMF,
        # which leaves the residue out of its sweep, passes; the others fail.
        imfs = (sig([1.0, 0.0, 0.0, 0.0]), sig([0.0, 1.0, 0.0, 0.0]))
        residue = sig([0.5, 0.0, 1.0, 0.0])
        x = imfs[0] + imfs[1] + residue
        for variant in (Variant.OIMF, Variant.FOIMF, Variant.ROIMF, Variant.FOUIMF, Variant.ROUIMF):
            ok, _ = verdict("pairwise orthogonality", x, Decomposition(imfs, residue, variant))
            assert ok is (variant is Variant.OIMF)

    @pytest.mark.parametrize("f, ok", [(0.99, True), (1.01, False)])
    def test_identity_at_its_tolerance(self, f, ok):
        # A lone residue 1 + e against x = 1 at one sample: |Pee - 100*IO_T|
        # = 100 * ((1 + e)**2 - 1) over an energy of 1.
        e = f * EXACT_TOL / 200.0
        x = sig([1.0, 0.0])
        d = Decomposition((), sig([1.0 + e, 0.0]), Variant.EMD)
        got, detail = verdict("energy-error identity", x, d)
        assert got is ok and float(detail.split("= ")[1]) == pytest.approx(f * EXACT_TOL, rel=1e-3)

    def test_chain_of_one_component_holds(self):
        x = sig([1.0, 2.0, 0.5])
        assert verdict("chain orthogonality", x, Decomposition((), x, Variant.EPEMD)) == (
            True, "1 components")
