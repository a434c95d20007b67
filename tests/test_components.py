"""Tests for the component decomposition of non-cyclic alphabet digraphs
(Remark 3.10, Example 3.3.2 / Figure 5)."""


from repro.core.alphabet_digraph import AlphabetDigraphSpec, debruijn_spec
from repro.core.components import component_structure, decompose_non_cyclic
from repro.graphs.generators import circuit, de_bruijn
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.operations import conjunction, induced_subgraph
from repro.permutations import Permutation, from_cycles, identity


class TestComponentStructure:
    def test_cyclic_spec_is_connected(self):
        report = component_structure(debruijn_spec(2, 4))
        assert report.is_connected
        assert report.num_components == 1
        assert report.matches_prop_3_9()

    def test_example_3_3_2_components(self):
        # Figure 5: one square component (4 vertices) + two 2-vertex components.
        spec = AlphabetDigraphSpec(
            d=2, D=3, f=Permutation([2, 1, 0]), sigma=identity(2), j=1
        )
        report = component_structure(spec)
        assert not report.is_connected
        assert report.num_components == 3
        assert report.component_sizes == (2, 2, 4)
        assert report.matches_prop_3_9()

    def test_identity_f_components(self):
        # f = identity is as non-cyclic as it gets (D fixed points).
        spec = AlphabetDigraphSpec(
            d=2, D=3, f=identity(3), sigma=identity(2), j=0
        )
        report = component_structure(spec)
        assert not report.is_connected
        # Each component fixes the two untouched positions: 4 components of 2.
        assert report.component_sizes == (2, 2, 2, 2)

    def test_prop_3_9_connectivity_check_over_all_f_small(self):
        # Exhaustively over all permutations of Z_3: connected iff cyclic.
        import itertools

        for perm in itertools.permutations(range(3)):
            f = Permutation(perm)
            spec = AlphabetDigraphSpec(d=2, D=3, f=f, sigma=identity(2), j=0)
            report = component_structure(spec)
            assert report.is_connected == f.is_cyclic()


class TestDecomposition:
    def test_example_3_3_2_factorisation(self):
        # Components are C_2 (x) B(2,1) (the square) and C_1 (x) B(2,1).
        spec = AlphabetDigraphSpec(
            d=2, D=3, f=Permutation([2, 1, 0]), sigma=identity(2), j=1
        )
        factors = decompose_non_cyclic(spec)
        assert len(factors) == 3
        summary = sorted((f.size, f.debruijn_dimension, f.circuit_length) for f in factors)
        assert summary == [(2, 1, 1), (2, 1, 1), (4, 1, 2)]
        assert all(f.certified for f in factors)

    def test_certification_against_explicit_conjunction(self):
        # Rebuild each component and compare with B(d, r) (x) C_k directly.
        spec = AlphabetDigraphSpec(
            d=2, D=3, f=Permutation([2, 1, 0]), sigma=identity(2), j=1
        )
        graph = spec.build()
        for factorisation in decompose_non_cyclic(spec):
            component = induced_subgraph(graph, list(factorisation.vertices))
            reference = conjunction(
                de_bruijn(spec.d, factorisation.debruijn_dimension),
                circuit(factorisation.circuit_length),
            )
            assert are_isomorphic(component, reference)

    def test_cyclic_case_is_single_debruijn(self):
        factors = decompose_non_cyclic(debruijn_spec(2, 3))
        assert len(factors) == 1
        assert factors[0].debruijn_dimension == 3
        assert factors[0].circuit_length == 1
        assert factors[0].certified

    def test_two_cycle_f_on_four_positions(self):
        # f = (0 1)(2 3): orbit of j=0 has length 2.
        f = from_cycles(4, [[0, 1], [2, 3]])
        spec = AlphabetDigraphSpec(d=2, D=4, f=f, sigma=identity(2), j=0)
        report = component_structure(spec)
        assert not report.is_connected
        factors = decompose_non_cyclic(spec)
        assert sum(f.size for f in factors) == 16
        for factorisation in factors:
            # every component is a de Bruijn-by-circuit conjunction
            assert factorisation.certified
            assert (
                spec.d**factorisation.debruijn_dimension
                * factorisation.circuit_length
                == factorisation.size
            )

    def test_uncertified_mode(self):
        spec = AlphabetDigraphSpec(
            d=2, D=3, f=Permutation([2, 1, 0]), sigma=identity(2), j=1
        )
        factors = decompose_non_cyclic(spec, certify=False)
        assert all(not f.certified for f in factors)
        assert sum(f.size for f in factors) == 8

    def test_non_identity_sigma_decomposition(self):
        # Remark 3.10 holds for any sigma; use the complement.
        from repro.permutations import complement

        spec = AlphabetDigraphSpec(
            d=2, D=4, f=from_cycles(4, [[0, 2], [1, 3]]), sigma=complement(2), j=0
        )
        factors = decompose_non_cyclic(spec)
        assert sum(f.size for f in factors) == 16
        assert all(f.certified for f in factors)
