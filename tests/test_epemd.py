import numpy as np
import pytest

from emdkit import (
    MultivariateSignal,
    SampledSignal,
    SignalKind,
    SignalSpec,
    Variant,
    energy,
    epemd,
    epmemd,
    generate_multitone4,
    inner_product,
    orthogonalize_stage,
    verify_linoep,
)
from conftest import sine


def sig(values, rate=1.0):
    return SampledSignal(np.asarray(values, dtype=float), rate)


class TestOrthogonalizeStage:
    def test_already_orthogonal(self):
        imf = sig([1, 0, -1, 0] * 8)
        residue = sig([1, 1, 1, 1] * 8)
        st = orthogonalize_stage(imf, residue)
        assert st.alpha == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(st.epimf.samples, imf.samples, atol=1e-15)

    def test_identical_pair(self):
        r = sine(3.0, 100.0, 1.0)
        st = orthogonalize_stage(r, r)
        assert st.alpha == pytest.approx(1.0)
        np.testing.assert_allclose(st.epimf.samples, 0.0, atol=1e-12)
        np.testing.assert_allclose(st.residue_out.samples, 2 * r.samples, atol=1e-12)

    def test_random_pair_matches_projection_oracle(self, rng):
        imf = sig(rng.standard_normal(64), 8.0)
        residue = sig(rng.standard_normal(64), 8.0)
        st = orthogonalize_stage(imf, residue)
        # Least-squares projection coefficient oracle.
        alpha_oracle = float(np.dot(imf.samples, residue.samples)
                             / np.dot(residue.samples, residue.samples))
        assert st.alpha == pytest.approx(alpha_oracle, abs=1e-12)
        cross = inner_product(st.epimf, st.residue_out)
        scale = np.sqrt(energy(st.epimf) * energy(st.residue_out))
        assert abs(cross) <= 1e-10 * scale

    def test_exact_sum_split(self, rng):
        imf = sig(rng.standard_normal(128), 16.0)
        residue = sig(rng.standard_normal(128), 16.0)
        st = orthogonalize_stage(imf, residue)
        total_in = imf.samples + residue.samples
        err = np.max(np.abs(st.epimf.samples + st.residue_out.samples - total_in))
        assert err <= 1e-15 * np.max(np.abs(total_in))  # at most 1 ulp

    def test_zero_residue_passthrough(self):
        imf = sine(3.0, 100.0, 1.0)
        residue = sig(np.zeros(imf.n), 100.0)
        st = orthogonalize_stage(imf, residue)
        assert st.alpha == 0.0
        np.testing.assert_array_equal(st.epimf.samples, imf.samples)


class TestVerifyLinoep:
    def test_orthogonal_set(self):
        comps = [sig([1, 0, 0]), sig([0, 2, 0]), sig([0, 0, 3])]
        assert verify_linoep(comps)

    def test_three_vector_chain(self):
        # c2 and c3 are not orthogonal to each other... build instead:
        # c1 orthogonal to (c2 + c3) and c2 orthogonal to c3, with c1 not
        # orthogonal to c2 or c3 individually.
        c3 = sig([1.0, 0.0, 0.0])
        c2 = sig([0.0, 1.0, 0.0])
        c1 = sig([1.0, -1.0, 1.0])  # <c1, c2 + c3> = 1 - 1 = 0
        assert inner_product(c1, c2 + c3) == 0.0
        assert inner_product(c2, c3) == 0.0
        assert inner_product(c1, c2) != 0.0
        assert verify_linoep([c1, c2, c3])
        e_sum = energy(c1 + c2 + c3)
        assert e_sum == pytest.approx(energy(c1) + energy(c2) + energy(c3))

    def test_chain_violation(self):
        x = sine(3.0, 100.0, 1.0)
        assert not verify_linoep([x, x])

    def test_needs_two_components(self):
        with pytest.raises(ValueError):
            verify_linoep([sine(3.0, 100.0, 1.0)])


SUITE = [SignalKind.LP, SignalKind.AM, SignalKind.FM, SignalKind.WGN]


class TestEpemd:
    @pytest.mark.parametrize("kind", SUITE)
    def test_energy_identity(self, kind):
        from emdkit import generate

        x = generate(SignalSpec(kind))
        d = epemd(x)
        e_comp = sum(energy(c) for c in d.components)
        assert abs(energy(x) - e_comp) <= 1e-9 * energy(x)

    @pytest.mark.parametrize("kind", SUITE)
    def test_chain_condition(self, kind):
        from emdkit import generate

        x = generate(SignalSpec(kind))
        d = epemd(x)
        assert verify_linoep(list(d.components))

    def test_completeness(self):
        from emdkit import generate

        x = generate(SignalSpec(SignalKind.LP))
        d = epemd(x)
        err = np.max(np.abs(d.reconstruct().samples - x.samples))
        assert err <= 1e-10 * np.max(np.abs(x.samples))

    def test_not_pairwise_orthogonal(self):
        from emdkit import generate

        x = generate(SignalSpec(SignalKind.LP))
        d = epemd(x)
        comps = d.components
        e_x = energy(x)
        worst = max(
            abs(inner_product(comps[i], comps[j]))
            for i in range(len(comps))
            for j in range(i + 1, len(comps))
        )
        assert worst > 1e-6 * e_x

    def test_constant_input(self):
        d = epemd(sig(np.full(64, 5.0), 8.0))
        assert d.imfs == ()
        np.testing.assert_array_equal(d.residue.samples, 5.0)

    def test_alpha_diagnostics(self):
        from emdkit import generate

        d = epemd(generate(SignalSpec(SignalKind.AM)))
        assert len(d.diagnostics["alphas"]) == len(d.imfs)
        assert d.variant is Variant.EPEMD


class TestEpmemd:
    def test_per_channel_energy_identity(self):
        x = generate_multitone4(SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0,
                                           duration=4.0, seed=11))
        d = epmemd(x, K=64)
        for j, ch in enumerate(x.channels):
            comps = [m.channels[j] for m in d.imfs] + [d.residue.channels[j]]
            e_comp = sum(energy(c) for c in comps)
            assert abs(energy(ch) - e_comp) <= 1e-9 * energy(ch)
            assert verify_linoep(comps)

    def test_single_channel_matches_epemd(self):
        s = sine(4.0, 256.0, 2.0) + sine(32.0, 256.0, 2.0)
        uni = epemd(s)
        multi = epmemd(MultivariateSignal((s,)))
        assert multi.channels[0].variant is Variant.EPMEMD
        assert multi.channels[0].diagnostics == uni.diagnostics
        assert len(multi.imfs) == len(uni.imfs)
        for a, b in zip(multi.imfs, uni.imfs):
            np.testing.assert_array_equal(a.channels[0].samples, b.samples)

    def test_two_channel_random(self, rng):
        chans = tuple(
            SampledSignal(np.sin(2 * np.pi * f * np.arange(512) / 128.0)
                          + 0.1 * rng.standard_normal(512), 128.0)
            for f in (8.0, 20.0)
        )
        x = MultivariateSignal(chans)
        d = epmemd(x, K=16)
        assert [c.variant for c in d.channels] == [Variant.EPMEMD] * 2
        for j in range(2):
            comps = [m.channels[j] for m in d.imfs] + [d.residue.channels[j]]
            if len(comps) >= 2:
                assert verify_linoep(comps)
