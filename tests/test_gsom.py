import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from emdkit import (
    RankDeficiencyError,
    SampledSignal,
    Variant,
    emd,
    energy,
    gram_schmidt,
    imf_property_report,
    inner_product,
    orthogonal_variants,
)
from emdkit.core import _unit_stack
from conftest import sine


def sig(values, rate=1.0):
    return SampledSignal(np.asarray(values, dtype=float), rate)


def six_tone(rate=256.0, duration=4.0):
    t = np.arange(int(rate * duration)) / rate
    v = sum(np.sin(2 * np.pi * f * t) for f in (2, 4, 8, 16, 32, 64)) + 0.5
    return sig(v, rate)


class TestGramSchmidt:
    def test_already_orthogonal_inputs(self):
        inputs = [sig([1, 0, 0]), sig([0, 2, 0]), sig([0, 0, 3])]
        res = gram_schmidt(inputs)
        np.testing.assert_allclose(res.coefficient_matrix, np.eye(3), atol=1e-12)
        for p, y in zip(res.orthogonal_components, inputs):
            np.testing.assert_allclose(p.samples, y.samples, atol=1e-12)

    def test_hand_worked_two_vectors(self):
        res = gram_schmidt([sig([1, 0]), sig([1, 1])])
        np.testing.assert_allclose(res.coefficient_matrix, [[1, 0], [1, 1]],
                                   atol=1e-14)
        np.testing.assert_allclose(res.column_sums, [2, 1], atol=1e-14)
        np.testing.assert_allclose(res.orthogonal_components[0].samples, [2, 0],
                                   atol=1e-14)
        np.testing.assert_allclose(res.orthogonal_components[1].samples, [0, 1],
                                   atol=1e-14)

    def test_sum_preserved_and_orthogonal(self, rng):
        inputs = [sig(rng.standard_normal(128), 16.0) for _ in range(6)]
        res = gram_schmidt(inputs)
        total_in = sum(y.samples for y in inputs)
        total_out = sum(p.samples for p in res.orthogonal_components)
        scale = np.max(np.abs(total_in))
        assert np.max(np.abs(total_in - total_out)) <= 1e-10 * scale
        for i in range(6):
            for j in range(i + 1, 6):
                pi, pj = res.orthogonal_components[i], res.orthogonal_components[j]
                bound = 1e-9 * np.sqrt(max(energy(pi), 1e-300) * max(energy(pj), 1e-300))
                assert abs(inner_product(pi, pj)) <= bound

    def test_unitriangular_coefficients(self, rng):
        inputs = [sig(rng.standard_normal(64), 8.0) for _ in range(4)]
        res = gram_schmidt(inputs)
        c = res.coefficient_matrix
        np.testing.assert_allclose(np.diag(c), 1.0)
        assert np.all(np.triu(c, 1) == 0.0)

    def test_matches_dense_qr_oracle(self, rng):
        # The orthogonal directions must span the same nested subspaces
        # as a dense QR factorization: compare normalized Gram matrices.
        inputs = [sig(rng.standard_normal(64), 8.0) for _ in range(5)]
        res = gram_schmidt(inputs)
        y = np.array([s.samples for s in inputs]).T
        q, _ = np.linalg.qr(y)
        s = np.array([p.samples / np.linalg.norm(p.samples)
                      for p in res.orthogonal_components]).T
        overlap = np.abs(q.T @ s)
        np.testing.assert_allclose(overlap, np.eye(5), atol=1e-9)

    def test_rank_deficiency_detected(self):
        a = sig([1.0, 2.0, 3.0])
        with pytest.raises(RankDeficiencyError) as exc:
            gram_schmidt([a, 2.0 * a])
        assert exc.value.index == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            gram_schmidt([])

    def test_rank_deficiency_pickles_as_raised(self):
        # A forked noise-band worker sends its exception back pickled.
        exc = pickle.loads(pickle.dumps(RankDeficiencyError(3)))
        assert type(exc) is RankDeficiencyError and exc.index == 3
        assert str(exc) == str(RankDeficiencyError(3))


def _out_of_place_sweep(inputs):
    """``gram_schmidt``'s components and coefficients from the sweep with a
    basis stack of its own beside the inputs' copy: reference bytes."""
    y, exp = _unit_stack(*(x.samples for x in inputs))
    s = np.zeros_like(y)
    coeff = np.eye(len(inputs))
    energies = []
    for k in range(len(inputs)):
        v = y[k].copy()
        for _ in range(2):
            for i in range(k):
                c = np.dot(v, s[i]) / energies[i]
                v -= c * s[i]
                coeff[k, i] += c
        s[k] = v
        energies.append(np.dot(s[k], s[k]))
    col_sums = coeff.sum(axis=0)
    return [np.ldexp(col_sums[i] * s[i], -exp) for i in range(len(inputs))], coeff


@pytest.mark.parametrize("n, scale", [(1024, 1.0), (16384, 1.0), (4096, 1e300), (4096, 1e-300)])
def test_in_place_sweep_matches_out_of_place_bytes(n, scale):
    d = emd(sig(np.random.default_rng(n).standard_normal(n) * scale))
    for order in (d.components, d.components[::-1]):
        got = gram_schmidt(order)
        want, coeff = _out_of_place_sweep(order)
        assert [p.samples.tobytes() for p in got.orthogonal_components] == \
            [w.tobytes() for w in want]
        assert got.coefficient_matrix.tobytes() == coeff.tobytes()

@pytest.fixture(scope="module")
def decomp():
    return six_tone(), emd(six_tone())


class TestOrthogonalVariants:

    @pytest.mark.parametrize("variant", [Variant.FOIMF, Variant.ROIMF,
                                         Variant.FOUIMF, Variant.ROUIMF])
    def test_pairwise_orthogonality(self, decomp, variant):
        _, d = decomp
        out = orthogonal_variants(d, variant)
        comps = out.components
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                bound = 1e-9 * np.sqrt(
                    max(energy(comps[i]), 1e-300) * max(energy(comps[j]), 1e-300))
                assert abs(inner_product(comps[i], comps[j])) <= bound

    @pytest.mark.parametrize("variant", [Variant.FOIMF, Variant.ROIMF,
                                         Variant.FOUIMF, Variant.ROUIMF])
    def test_completeness(self, decomp, variant):
        x, d = decomp
        out = orthogonal_variants(d, variant)
        err = np.max(np.abs(out.reconstruct().samples - x.samples))
        assert err <= 1e-9 * np.max(np.abs(x.samples))

    def test_oimf_residue_untouched(self, decomp):
        _, d = decomp
        out = orthogonal_variants(d, Variant.OIMF)
        np.testing.assert_array_equal(out.residue.samples, d.residue.samples)
        # The IMFs themselves are pairwise orthogonal.
        for i in range(len(out.imfs)):
            for j in range(i + 1, len(out.imfs)):
                bound = 1e-9 * np.sqrt(
                    max(energy(out.imfs[i]), 1e-300) * max(energy(out.imfs[j]), 1e-300))
                assert abs(inner_product(out.imfs[i], out.imfs[j])) <= bound

    def test_uncorrelated_variants_have_zero_mean_components(self, decomp):
        _, d = decomp
        out = orthogonal_variants(d, Variant.ROUIMF)
        for c in out.components:
            assert abs(float(np.mean(c.samples))) <= 1e-10 * np.max(np.abs(c.samples))

    @pytest.mark.parametrize("variant", [Variant.FOUIMF, Variant.ROUIMF])
    def test_centring_moves_the_component_means_into_dc(self, rng, variant):
        # Each component's sample mean is taken out before the sweep and
        # added to the DC constant; an offset of 17 is the mean of the input.
        x = SampledSignal(rng.standard_normal(500) + 17.0, 10.0)
        d = emd(x)
        means = [float(np.mean(c.samples)) for c in d.components]
        out = orthogonal_variants(d, variant)
        assert out.dc_constant == d.dc_constant + float(sum(means))
        assert out.dc_constant == pytest.approx(float(np.mean(x.samples)), rel=1e-12)
        for c in out.components:
            assert abs(float(np.mean(c.samples))) < 1e-12 * float(np.max(np.abs(x.samples)))

    def test_rouimf_energy_split_with_dc(self, decomp):
        x, d = decomp
        out = orthogonal_variants(d, Variant.ROUIMF)
        e_comp = sum(energy(c) for c in out.components)
        e_dc = out.dc_constant ** 2 * x.duration
        assert abs(energy(x) - (e_comp + e_dc)) <= 1e-9 * energy(x)

    def test_uncorrelated_pairwise_correlations(self, decomp):
        _, d = decomp
        out = orthogonal_variants(d, Variant.ROUIMF)
        comps = [c.samples for c in out.components]
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                corr = abs(float(np.corrcoef(comps[i], comps[j])[0, 1]))
                assert corr <= 1e-6

    def test_all_orderings_of_three_components_valid(self, rng):
        base = [sig(rng.standard_normal(64), 8.0) for _ in range(3)]
        total = sum(s.samples for s in base)
        for order in itertools.permutations(range(3)):
            res = gram_schmidt([base[i] for i in order])
            out_total = sum(p.samples for p in res.orthogonal_components)
            assert np.max(np.abs(out_total - total)) <= 1e-10 * np.max(np.abs(total))

    @pytest.mark.parametrize("variant", [Variant.OIMF, Variant.FOIMF, Variant.ROIMF,
                                         Variant.FOUIMF, Variant.ROUIMF])
    @pytest.mark.parametrize("samples", [[0.3, -1.2, 0.7, 2.0], [2.5] * 64])
    def test_no_active_component(self, variant, samples):
        # No IMF for OIMF to sweep, or a constant the uncorrelated variants
        # centre to zero: the components come back relabelled, not swept.
        x = sig(samples, 8.0)
        d = emd(x)
        assert not d.imfs
        out = orthogonal_variants(d, variant)
        assert out.variant is variant and not out.imfs
        centred = variant in (Variant.FOUIMF, Variant.ROUIMF)
        assert out.dc_constant == (np.mean(samples) if centred else 0.0)
        np.testing.assert_allclose(out.reconstruct().samples, x.samples, rtol=1e-15)

    def test_roimf_peak_memory(self):
        # The sweep runs in place on one scaled copy of the components, and
        # the activity energies are taken one component at a time: ROIMF of
        # 2**16 noise samples peaks at 2.0 component stacks (that copy and
        # the output), against 3.17 with a second stack for the basis and a
        # third for the energies.
        d = emd(sig(np.random.default_rng(16).standard_normal(2**16)))
        stack = sum(c.samples.nbytes for c in d.components)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            orthogonal_variants(d, Variant.ROIMF)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * stack

    def test_non_gsom_variant_rejected(self, decomp):
        _, d = decomp
        with pytest.raises(ValueError):
            orthogonal_variants(d, Variant.EEMD)


class TestImfPropertyReport:
    def test_pure_tone_list(self):
        comps = [sine(5.0, 500.0, 2.0), sine(11.0, 500.0, 2.0)]
        assert imf_property_report(comps) == [True, True]

    def test_reverse_order_preserves_more_than_forward(self):
        # Aggregated over several signals: orthogonalizing residue-first
        # keeps more components passing the oscillatory-mode test than
        # orthogonalizing highest-frequency-first.
        rng = np.random.default_rng(0)
        ro_total = fo_total = 0
        for _ in range(8):
            freqs = rng.uniform(2, 60, 4)
            t = np.arange(2048) / 256.0
            v = sum(rng.uniform(0.5, 2) * np.sin(2 * np.pi * f * t + rng.uniform(0, 6))
                    for f in freqs) + 0.2 * rng.standard_normal(t.size)
            d = emd(sig(v, 256.0))
            ro = orthogonal_variants(d, Variant.ROIMF)
            fo = orthogonal_variants(d, Variant.FOIMF)
            ro_total += sum(imf_property_report(ro.components))
            fo_total += sum(imf_property_report(fo.components))
        assert ro_total >= fo_total
