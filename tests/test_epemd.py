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
from emdkit.epemd import _orthogonalize_channels, _split
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


    def test_matrix_columns_split_as_each_channel_alone(self, rng):
        # EPMEMD's stage splits the strided columns of its (n, channels)
        # pair with this arithmetic. The last residue column is zero, so
        # that channel passes through.
        mode, residue = rng.standard_normal((2, 200, 3))
        residue[:, 2] = 0.0
        x = MultivariateSignal(tuple(sig(c, 3.0) for c in mode.T))
        epimfs, residues_out = _orthogonalize_channels(x, mode, residue)
        alphas = []
        for j, ch in enumerate(x.channels):
            m, r = mode[:, j], residue[:, j]
            assert not m.flags.contiguous
            st = orthogonalize_stage(ch.with_samples(m), ch.with_samples(r))
            alphas.append(_split(m, r, ch.dt)[0])
            assert alphas[-1] == st.alpha
            assert epimfs[:, j].tobytes() == st.epimf.samples.tobytes()
            assert residues_out[:, j].tobytes() == st.residue_out.samples.tobytes()
        assert alphas[0] != 0.0 and alphas[2] == 0.0


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

    @pytest.mark.parametrize("k", [0, 1000, -1000])
    def test_agrees_with_the_tail_sum_check(self, k):
        for comps, expected in linoep_battery(np.random.default_rng(7)):
            comps = [c.with_samples(np.ldexp(c.samples, k)) for c in comps]
            assert verify_linoep(comps) == linoep_by_tail_sums(comps) == expected


def linoep_by_tail_sums(components) -> bool:
    """The chain check as a cumulative tail sum and a loop over components,
    on the same exactly rescaled stack: the reference for verify_linoep."""
    stack = np.array([c.samples for c in components])
    np.ldexp(stack, -int(np.frexp(np.max(np.abs(stack)))[1]), out=stack)
    dt = components[0].dt
    e_total = float((stack * stack).sum()) * dt
    if e_total == 0.0:
        return True
    tail = np.cumsum(stack[::-1], axis=0)[::-1]  # tail[i] = sum of rows i..end
    for i in range(len(components) - 1):
        if abs(float(np.dot(stack[i], tail[i + 1])) * dt) > 1e-9 * e_total:
            return False
    e_sum = float(np.dot(tail[0], tail[0])) * dt
    return abs(e_total - e_sum) <= 1e-9 * e_total


def with_chain_defects(components, defects):
    """Components whose i-th chain product <c_i, c_i+1 + ... + c_m> is
    ``defects[i]`` times 1e-9 of the total energy; c_i moves along the
    sum of the later components, which leaves every later product as is."""
    rows = [c.samples.copy() for c in components]
    tol = 1e-9 * sum(float(np.dot(r, r)) for r in rows)
    for i in sorted(defects, reverse=True):
        tail = np.sum(rows[i + 1:], axis=0)
        rows[i] += (defects[i] * tol - float(np.dot(rows[i], tail))) / float(np.dot(tail, tail)) * tail
    return [c.with_samples(r) for c, r in zip(components, rows)]


def linoep_battery(rng):
    """(components, expected verdict) pairs: EPEMD chains of white noise,
    random sets, chains perturbed around the tolerance and all-zero sets.
    The energy identity's defect is twice the summed chain defects, so one
    defect of f/2 puts the identity at f times its tolerance, and a pair of
    opposite defects leaves it intact while the chain check fails."""
    cases = []
    for n, rate in ((64, 1.0), (512, 100.0), (300, 1e-3)):
        chain = list(epemd(sig(rng.standard_normal(n), rate)).components)
        cases.append((chain, True))
        cases.append((chain[::-1], False))
        for f in (0.5, 2.0):
            cases.append((with_chain_defects(chain, {0: f / 2}), f < 1))
            cases.append((with_chain_defects(chain, {0: f, 1: -f}), f < 1))
        for m in (2, 3, 6):
            cases.append(([sig(v, rate) for v in rng.standard_normal((m, n))], False))
        cases.append(([sig(np.zeros(n), rate)] * 3, True))
    return cases


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
