"""Unit tests for the digraph family generators."""

import pytest

from repro.graphs.generators import (
    bidirectional_torus,
    butterfly,
    circuit,
    complete_digraph_with_loops,
    de_bruijn,
    de_bruijn_words,
    gemnet,
    hypercube_digraph,
    imase_itoh,
    kautz,
    kautz_words,
    reddy_raghavan_kuhl,
    ring,
    shuffle_exchange,
    shufflenet,
)
from repro.graphs.moore import de_bruijn_order, kautz_order
from repro.graphs.properties import diameter
from repro.graphs.traversal import is_strongly_connected
from repro.words import word_to_int


class TestDeBruijn:
    def test_basic_counts(self):
        B = de_bruijn(2, 3)
        assert B.num_vertices == 8
        assert B.degree == 2
        assert B.num_arcs == 16
        assert B.num_loops() == 2  # 000 and 111

    def test_definition_2_2_word_adjacency(self):
        # x_{D-1}...x_0 -> x_{D-2}...x_0 lambda
        B = de_bruijn(2, 3)
        word = (1, 0, 1)
        u = word_to_int(word, 2)
        expected = {word_to_int((0, 1, 0), 2), word_to_int((0, 1, 1), 2)}
        assert set(B.out_neighbors(u)) == expected

    def test_figure_1_structure(self):
        # Figure 1: B(2,3) on words 000..111; spot-check a few arcs.
        B = de_bruijn(2, 3)
        assert B.has_arc(word_to_int((0, 0, 1), 2), word_to_int((0, 1, 0), 2))
        assert B.has_arc(word_to_int((1, 1, 0), 2), word_to_int((1, 0, 1), 2))
        assert not B.has_arc(word_to_int((1, 1, 1), 2), word_to_int((0, 0, 0), 2))

    def test_regular_and_connected(self):
        for d, D in ((2, 4), (3, 3), (4, 2)):
            B = de_bruijn(d, D)
            assert B.is_regular()
            assert is_strongly_connected(B)
            assert diameter(B) == D

    def test_labels_match_words(self):
        B = de_bruijn(2, 3)
        assert B.labels == de_bruijn_words(2, 3)
        assert B.label_of(5) == (1, 0, 1)

    def test_order_helper(self):
        assert de_bruijn(3, 2).num_vertices == de_bruijn_order(3, 2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            de_bruijn(0, 3)
        with pytest.raises(ValueError):
            de_bruijn(2, 0)


class TestRRKAndImaseItoh:
    def test_rrk_congruence(self):
        # RRK(d, n): u -> d*u + lambda mod n
        G = reddy_raghavan_kuhl(3, 10)
        assert set(G.out_neighbors(4)) == {(3 * 4 + k) % 10 for k in range(3)}

    def test_rrk_equals_debruijn_at_powers(self):
        # Remark 2.6: with the standard integer labelling they coincide.
        assert reddy_raghavan_kuhl(2, 8).same_arcs(de_bruijn(2, 3))
        assert reddy_raghavan_kuhl(3, 27).same_arcs(de_bruijn(3, 3))

    def test_figure_2_rrk_2_8(self):
        G = reddy_raghavan_kuhl(2, 8)
        assert set(G.out_neighbors(3)) == {6, 7}
        assert set(G.out_neighbors(7)) == {6, 7}

    def test_imase_itoh_congruence(self):
        # II(d, n): u -> -d*u - lambda mod n, lambda in 1..d
        G = imase_itoh(2, 8)
        assert set(G.out_neighbors(0)) == {6, 7}
        assert set(G.out_neighbors(3)) == {(-6 - 1) % 8, (-6 - 2) % 8}

    def test_figure_3_ii_2_8_regular_connected(self):
        G = imase_itoh(2, 8)
        assert G.is_regular()
        assert is_strongly_connected(G)
        assert diameter(G) == 3

    def test_imase_itoh_kautz_order_diameter(self):
        # II(d, d^(D-1)(d+1)) is isomorphic to K(d, D) hence diameter D.
        assert diameter(imase_itoh(2, 12)) == 3
        assert diameter(imase_itoh(2, 24)) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            imase_itoh(2, 0)
        with pytest.raises(ValueError):
            reddy_raghavan_kuhl(2, -1)


class TestKautz:
    def test_counts(self):
        K = kautz(2, 3)
        assert K.num_vertices == kautz_order(2, 3) == 12
        assert K.degree == 2
        assert K.num_loops() == 0

    def test_words_are_valid(self):
        for word in kautz_words(2, 4):
            assert all(a != b for a, b in zip(word, word[1:]))
        assert len(kautz_words(3, 3)) == kautz_order(3, 3)

    def test_adjacency_respects_kautz_rule(self):
        K = kautz(2, 3)
        for u in range(K.num_vertices):
            word = K.labels[u]
            for v in K.out_neighbors(u):
                target = K.labels[v]
                assert target[:-1] == word[1:]
                assert target[-1] != word[-1]

    def test_diameter_and_connectivity(self):
        for d, D in ((2, 3), (2, 4), (3, 2)):
            K = kautz(d, D)
            assert is_strongly_connected(K)
            assert diameter(K) == D


class TestSmallFamilies:
    def test_circuit(self):
        C = circuit(5)
        assert C.num_vertices == 5
        assert all(C.out_neighbors(i) == [(i + 1) % 5] for i in range(5))
        assert circuit(1).num_loops() == 1
        with pytest.raises(ValueError):
            circuit(0)

    def test_complete_with_loops(self):
        K = complete_digraph_with_loops(4)
        assert K.degree == 4
        assert K.num_loops() == 4
        assert diameter(K) == 1

    def test_ring(self):
        R = ring(6)
        assert R.degree == 2
        assert diameter(R) == 3
        assert diameter(ring(6, bidirectional=False)) == 5


class TestMultistageNetworks:
    def test_shuffle_exchange(self):
        G = shuffle_exchange(3)
        assert G.num_vertices == 8
        assert all(G.out_degree(u) == 2 for u in range(8))
        # exchange arc flips the last bit
        assert G.has_arc(0, 1) and G.has_arc(5, 4)

    def test_butterfly_structure(self):
        G = butterfly(2, 2)
        # 3 levels of 4 words
        assert G.num_vertices == 12
        # only levels 0..D-1 have outgoing arcs, each of degree d
        assert all(G.out_degree(u) == 2 for u in range(8))
        assert all(G.out_degree(u) == 0 for u in range(8, 12))

    def test_shufflenet(self):
        G = shufflenet(2, 2)
        assert G.num_vertices == 2 * 4
        assert all(G.out_degree(u) == 2 for u in range(G.num_vertices))
        assert is_strongly_connected(G)

    def test_gemnet_any_size(self):
        # GEMNET exists for sizes that are not powers of d.
        G = gemnet(2, 3, 5)
        assert G.num_vertices == 15
        assert is_strongly_connected(G)

    def test_hypercube(self):
        Q = hypercube_digraph(3)
        assert Q.num_vertices == 8
        assert Q.degree == 3
        assert diameter(Q) == 3

    def test_torus(self):
        T = bidirectional_torus(3, 4)
        assert T.num_vertices == 12
        assert T.degree == 4
        assert diameter(T) == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            shuffle_exchange(0)
        with pytest.raises(ValueError):
            gemnet(2, 0, 5)
        with pytest.raises(ValueError):
            hypercube_digraph(0)
        with pytest.raises(ValueError):
            bidirectional_torus(0, 3)
