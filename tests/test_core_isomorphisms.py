"""Tests for the constructive isomorphisms of Propositions 3.2, 3.3 and 3.9."""

import numpy as np
import pytest

from repro.core.alphabet_digraph import (
    AlphabetDigraphSpec,
    b_sigma,
    debruijn_spec,
)
from repro.core.isomorphisms import (
    compose_mappings,
    count_alternative_definitions,
    debruijn_to_alphabet_isomorphism,
    debruijn_to_imase_itoh_isomorphism,
    enumerate_alternative_definitions,
    g_permutation,
    invert_mapping,
    prop_3_2_inverse,
    prop_3_2_isomorphism,
    prop_3_9_isomorphism,
)
from repro.graphs.generators import de_bruijn, imase_itoh
from repro.graphs.isomorphism import is_isomorphism
from repro.permutations import (
    Permutation,
    all_permutations,
    identity,
    random_cyclic_permutation,
    random_permutation,
    rotation,
)


class TestProposition32:
    def test_w_is_isomorphism_binary(self):
        # W : B_sigma(d, D) -> B(d, D)
        for sigma in all_permutations(2):
            for D in (2, 3, 4):
                mapping = prop_3_2_isomorphism(2, D, sigma)
                assert is_isomorphism(b_sigma(2, D, sigma), de_bruijn(2, D), mapping)

    def test_w_is_isomorphism_larger_alphabets(self):
        rng = np.random.default_rng(0)
        for d, D in ((3, 3), (4, 2), (5, 2)):
            sigma = random_permutation(d, rng)
            mapping = prop_3_2_isomorphism(d, D, sigma)
            assert is_isomorphism(b_sigma(d, D, sigma), de_bruijn(d, D), mapping)

    def test_w_formula_positions(self):
        # W applies sigma^{D-1-i} at position i.
        sigma = Permutation([1, 2, 0])
        d, D = 3, 3
        mapping = prop_3_2_isomorphism(d, D, sigma)
        # word (2, 1, 0) -> sigma^0(2) sigma^1(1) sigma^2(0)
        from repro.words import int_to_word, word_to_int

        u = word_to_int((2, 1, 0), 3)
        # sigma^0 is the identity, so the leftmost letter is unchanged.
        expected = (2, sigma(1), (sigma * sigma)(0))
        assert int_to_word(int(mapping[u]), d, D) == expected

    def test_w_identity_sigma_is_identity_map(self):
        mapping = prop_3_2_isomorphism(2, 5, identity(2))
        assert np.array_equal(mapping, np.arange(32))

    def test_inverse(self):
        sigma = Permutation([2, 0, 1])
        forward = prop_3_2_isomorphism(3, 3, sigma)
        backward = prop_3_2_inverse(3, 3, sigma)
        assert np.array_equal(forward[backward], np.arange(27))

    def test_validation(self):
        with pytest.raises(ValueError):
            prop_3_2_isomorphism(2, 3, identity(3))


class TestProposition33:
    def test_debruijn_imase_itoh_isomorphism(self):
        for d, D in ((2, 3), (2, 4), (3, 3), (4, 2)):
            mapping = debruijn_to_imase_itoh_isomorphism(d, D)
            assert is_isomorphism(de_bruijn(d, D), imase_itoh(d, d**D), mapping)

    def test_corollary_3_4_three_way(self):
        # B(d, D), RRK(d, d^D) and II(d, d^D) are pairwise isomorphic.
        from repro.graphs.generators import reddy_raghavan_kuhl

        d, D = 2, 4
        B = de_bruijn(d, D)
        RRK = reddy_raghavan_kuhl(d, d**D)
        II = imase_itoh(d, d**D)
        assert B.same_arcs(RRK)  # identical labelled digraphs (Remark 2.6)
        mapping = debruijn_to_imase_itoh_isomorphism(d, D)
        assert is_isomorphism(RRK, II, mapping)


class TestGPermutation:
    def test_figure_4_values(self):
        # Example 3.3.1: g(0)=2, g(1)=5, g(2)=1, g(3)=4, g(4)=0, g(5)=3.
        f = Permutation([3, 4, 5, 2, 0, 1])
        g = g_permutation(f, 2)
        assert g.as_tuple() == (2, 5, 1, 4, 0, 3)

    def test_conjugation_property(self):
        # g^{-1} f g is the rotation i -> i+1 and g^{-1}(j) = 0.
        rng = np.random.default_rng(4)
        for D in (3, 4, 5, 6):
            f = random_cyclic_permutation(D, rng)
            for j in range(D):
                g = g_permutation(f, j)
                conjugated = g.inverse() * f * g
                assert conjugated.as_tuple() == rotation(D).as_tuple()
                assert g.inverse()(j) == 0

    def test_non_cyclic_rejected(self):
        with pytest.raises(ValueError):
            g_permutation(Permutation([2, 1, 0]), 1)
        with pytest.raises(ValueError):
            g_permutation(identity(4), 0)

    def test_position_validation(self):
        with pytest.raises(ValueError):
            g_permutation(rotation(4), 7)


class TestProposition39:
    def test_example_3_3_1_full_isomorphism(self):
        # A(f, Id, 2) with the example's f is isomorphic to B(d, 6).
        f = Permutation([3, 4, 5, 2, 0, 1])
        spec = AlphabetDigraphSpec(d=2, D=6, f=f, sigma=identity(2), j=2)
        mapping = debruijn_to_alphabet_isomorphism(spec)
        assert is_isomorphism(de_bruijn(2, 6), spec.build(), mapping)

    def test_prop_3_9_mapping_from_b_sigma(self):
        # ->g maps B_sigma onto A(f, sigma, j).
        rng = np.random.default_rng(1)
        for d, D in ((2, 4), (3, 3)):
            f = random_cyclic_permutation(D, rng)
            sigma = random_permutation(d, rng)
            j = int(rng.integers(D))
            spec = AlphabetDigraphSpec(d=d, D=D, f=f, sigma=sigma, j=j)
            mapping = prop_3_9_isomorphism(spec)
            assert is_isomorphism(b_sigma(d, D, sigma), spec.build(), mapping)

    def test_full_composition_random_specs(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            d = int(rng.integers(2, 4))
            D = int(rng.integers(2, 5))
            spec = AlphabetDigraphSpec(
                d=d,
                D=D,
                f=random_cyclic_permutation(D, rng),
                sigma=random_permutation(d, rng),
                j=int(rng.integers(D)),
            )
            mapping = debruijn_to_alphabet_isomorphism(spec)
            assert is_isomorphism(de_bruijn(d, D), spec.build(), mapping)

    def test_rotation_identity_spec_gives_identity_mapping(self):
        spec = debruijn_spec(2, 4)
        mapping = debruijn_to_alphabet_isomorphism(spec)
        assert np.array_equal(mapping, np.arange(16))

    def test_non_cyclic_raises(self):
        spec = AlphabetDigraphSpec(
            d=2, D=3, f=Permutation([2, 1, 0]), sigma=identity(2), j=1
        )
        with pytest.raises(ValueError):
            prop_3_9_isomorphism(spec)
        with pytest.raises(ValueError):
            debruijn_to_alphabet_isomorphism(spec)


class TestMappingUtilities:
    def test_compose_and_invert(self):
        rng = np.random.default_rng(9)
        a = rng.permutation(10)
        b = rng.permutation(10)
        composed = compose_mappings(a, b)
        assert np.array_equal(composed, a[b])
        assert np.array_equal(invert_mapping(a)[a], np.arange(10))

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            compose_mappings(np.arange(3), np.arange(4))


class TestEnumeration:
    def test_count(self):
        assert count_alternative_definitions(2, 3) == 4
        assert count_alternative_definitions(3, 3) == 12

    def test_enumerate_small_case(self):
        specs = list(enumerate_alternative_definitions(2, 3))
        assert len(specs) == 4
        # every spec is genuinely isomorphic to B(2, 3)
        B = de_bruijn(2, 3)
        seen = set()
        for spec in specs:
            assert spec.is_debruijn_isomorphic()
            mapping = debruijn_to_alphabet_isomorphism(spec)
            assert is_isomorphism(B, spec.build(), mapping)
            seen.add((spec.sigma.as_tuple(), spec.f.as_tuple()))
        assert len(seen) == 4  # all distinct (sigma, f) pairs

    def test_enumerate_validates_position(self):
        with pytest.raises(ValueError):
            list(enumerate_alternative_definitions(2, 3, j=5))
