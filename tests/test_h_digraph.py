"""Tests for the OTIS-induced digraph H(p, q, d) (Section 4.2, Figures 7–8)."""

import pytest

from repro.graphs.generators import de_bruijn, imase_itoh, kautz
from repro.graphs.isomorphism import are_isomorphic
from repro.graphs.properties import diameter
from repro.otis.architecture import OTISArchitecture
from repro.otis.h_digraph import h_digraph, otis_node_assignment
from repro.otis.search import candidate_splits
from repro.words import word_to_int


class TestConstruction:
    def test_counts(self):
        H = h_digraph(4, 8, 2)
        assert H.num_vertices == 16
        assert H.degree == 2
        assert H.is_regular()

    def test_d_must_divide(self):
        with pytest.raises(ValueError):
            h_digraph(3, 5, 2)
        with pytest.raises(ValueError):
            h_digraph(0, 4, 2)

    def test_figure_7_adjacency(self):
        # H(4, 8, 2): Gamma+(x3 x2 x1 x0) = complement(x1) complement(x0) lam complement(x3)
        H = h_digraph(4, 8, 2)
        assert set(H.out_neighbors(word_to_int((0, 0, 0, 0), 2))) == {
            word_to_int((1, 1, 0, 1), 2),
            word_to_int((1, 1, 1, 1), 2),
        }
        assert set(H.out_neighbors(word_to_int((1, 0, 1, 1), 2))) == {
            word_to_int((0, 0, 0, 0), 2),
            word_to_int((0, 0, 1, 0), 2),
        }

    def test_figure_8_h_4_8_2_is_debruijn(self):
        assert are_isomorphic(h_digraph(4, 8, 2), de_bruijn(2, 4))
        assert diameter(h_digraph(4, 8, 2)) == 4

    def test_consistency_with_architecture(self):
        # Rebuild H(p, q, d) slot by slot from the OTIS wiring and compare.
        for p, q, d in [(6, 4, 2), (1, 8, 2), (8, 1, 2), (1, 1, 1), (3, 5, 1),
                        (4, 6, 3), (9, 4, 6)]:
            otis = OTISArchitecture(p, q)
            H = h_digraph(p, q, d)
            n = p * q // d
            for u in range(n):
                expected = []
                for lam in range(d):
                    t = d * u + lam
                    i, j = otis.transmitter_coords(t)
                    a, b = otis.receiver_of(i, j)
                    r = otis.receiver_index(a, b)
                    expected.append(r // d)
                assert H.out_neighbors(u) == expected

    def test_imase_itoh_layout_identity(self):
        # H(d, n, d) equals II(d, n) on integer labels (known layout, ref [14]).
        for d, n in [(2, 8), (2, 12), (3, 27), (3, 12), (4, 20)]:
            assert h_digraph(d, n, d).same_arcs(imase_itoh(d, n))

    def test_kautz_has_otis_layout(self):
        # K(2, 3) has 12 nodes and an OTIS(2, 12) layout through II(2, 12).
        assert are_isomorphic(kautz(2, 3), h_digraph(2, 12, 2))

    def test_reverse_layout_relationship(self):
        # If G ~ H(p, q, d) then G reversed ~ H(q, p, d).
        from repro.graphs.operations import reverse

        G = h_digraph(4, 8, 2)
        G_rev = reverse(G)
        assert are_isomorphic(G_rev, h_digraph(8, 4, 2))


class TestSplits:
    def test_h_digraph_splits(self):
        splits = candidate_splits(8, 2)
        assert splits == [(1, 16), (2, 8), (4, 4)]
        for p, q in splits:
            assert p * q == 16

    def test_splits_validation(self):
        with pytest.raises(ValueError):
            candidate_splits(0, 2)


class TestNodeAssignment:
    def test_assignment_counts(self):
        assignment = otis_node_assignment(4, 8, 2, 5)
        assert assignment.node == 5
        assert len(assignment.transmitters) == 2
        assert len(assignment.receivers) == 2

    def test_assignment_matches_definition(self):
        p, q, d = 4, 8, 2
        for node in (0, 3, 15):
            assignment = otis_node_assignment(p, q, d, node)
            for lam, (i, j) in enumerate(assignment.transmitters):
                t = d * node + lam
                assert (i, j) == (t // q, t % q)
            for lam, (a, b) in enumerate(assignment.receivers):
                r = d * node + lam
                assert (a, b) == (r // p, r % p)

    def test_every_transceiver_assigned_exactly_once(self):
        p, q, d = 4, 8, 2
        n = p * q // d
        transmitters = set()
        receivers = set()
        for node in range(n):
            assignment = otis_node_assignment(p, q, d, node)
            transmitters.update(assignment.transmitters)
            receivers.update(assignment.receivers)
        assert len(transmitters) == p * q
        assert len(receivers) == p * q

    def test_validation(self):
        with pytest.raises(ValueError):
            otis_node_assignment(4, 8, 2, 99)
        with pytest.raises(ValueError):
            otis_node_assignment(3, 5, 2, 0)
