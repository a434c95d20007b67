"""Unit tests for metric digraph properties (diameter, girth, etc.)."""

import numpy as np
import pytest

from repro.graphs.digraph import Digraph
from repro.graphs.generators import circuit, de_bruijn, imase_itoh, kautz
from repro.graphs.properties import (
    _bfs_distance_matrix,
    average_distance,
    degree_summary,
    diameter,
    distance_matrix,
    eccentricities,
    girth,
    radius,
)


class TestDistanceMatrix:
    def test_matches_bfs_oracle(self):
        # Every metric on the bit sweep must agree with the per-source BFS.
        for graph in (
            de_bruijn(2, 4),
            kautz(2, 3),
            circuit(6),
            Digraph(1),
            Digraph(4, arcs=[(0, 0), (0, 1), (0, 1), (1, 2), (3, 3)]),
        ):
            dist = _bfs_distance_matrix(graph)
            assert np.array_equal(distance_matrix(graph), dist)
            unreachable = (dist < 0).any(axis=1)
            expected_ecc = np.where(unreachable, -1, dist.max(axis=1, initial=0))
            assert np.array_equal(eccentricities(graph), expected_ecc)
            if not unreachable.any() and graph.num_vertices > 1:
                off_diagonal = ~np.eye(graph.num_vertices, dtype=bool)
                assert average_distance(graph) == dist[off_diagonal].mean()

    def test_unreachable_marked_minus_one(self):
        g = Digraph(3, arcs=[(0, 1)])
        dist = distance_matrix(g)
        assert dist[0, 2] == -1
        assert dist[1, 0] == -1
        assert dist[0, 1] == 1

    def test_empty_graph(self):
        assert distance_matrix(Digraph(0)).shape == (0, 0)

    def test_parallel_arcs_do_not_change_distances(self):
        g = Digraph(3, arcs=[(0, 1), (0, 1), (1, 2)])
        dist = distance_matrix(g)
        assert dist[0, 2] == 2


class TestDiameter:
    def test_debruijn_diameter_is_D(self):
        # B(d, D) has diameter exactly D.
        for d, D in ((2, 3), (2, 5), (3, 3), (4, 2)):
            assert diameter(de_bruijn(d, D)) == D

    def test_kautz_diameter_is_D(self):
        for d, D in ((2, 3), (2, 4), (3, 2)):
            assert diameter(kautz(d, D)) == D

    def test_imase_itoh_diameter_at_powers(self):
        # II(d, d^D) is isomorphic to B(d, D) so its diameter is D.
        assert diameter(imase_itoh(2, 16)) == 4
        assert diameter(imase_itoh(3, 27)) == 3

    def test_circuit_diameter(self):
        assert diameter(circuit(7)) == 6
        assert diameter(circuit(1)) == 0

    def test_disconnected_diameter(self):
        g = Digraph(3, arcs=[(0, 1)])
        assert diameter(g) == -1

    def test_radius_le_diameter(self):
        for graph in (de_bruijn(2, 4), kautz(2, 3)):
            assert 0 < radius(graph) <= diameter(graph)

    def test_eccentricities_vertex_transitive_families(self):
        # Every de Bruijn vertex has out-eccentricity exactly D.
        ecc = eccentricities(de_bruijn(2, 4))
        assert np.all(ecc == 4)


class TestOtherMetrics:
    def test_average_distance_circuit(self):
        # On C_n the average over ordered pairs is n/2.
        assert average_distance(circuit(6)) == pytest.approx(3.0)

    def test_average_distance_requires_connected(self):
        with pytest.raises(ValueError):
            average_distance(Digraph(3, arcs=[(0, 1)]))

    def test_average_distance_below_diameter(self):
        graph = de_bruijn(2, 5)
        assert average_distance(graph) < diameter(graph)

    def test_girth_with_loops(self):
        # de Bruijn digraphs contain d loops, so girth 1.
        assert girth(de_bruijn(2, 3)) == 1

    def test_girth_kautz(self):
        # Kautz digraphs have no loops; shortest cycles have length 2
        # (words ababab... alternate).
        assert girth(kautz(2, 3)) == 2

    def test_girth_circuit(self):
        assert girth(circuit(5)) == 5
        assert girth(circuit(1)) == 1

    def test_girth_acyclic(self):
        assert girth(Digraph(3, arcs=[(0, 1), (1, 2)])) == -1

    def test_girth_max_length_cutoff(self):
        assert girth(circuit(5), max_length=3) == -1
        assert girth(circuit(5), max_length=4) == -1
        assert girth(circuit(5), max_length=5) == 5

    def test_girth_truncation_prunes_the_bfs(self, monkeypatch):
        # Regression: max_length used to be applied only as a post-filter,
        # with every BFS run to completion.  The BFS must now stop expanding
        # at the cutoff depth.
        import repro.graphs.properties as properties

        observed = []
        original = properties._distance_between

        def spy(graph, source, target, cutoff=None):
            observed.append(cutoff)
            return original(graph, source, target, cutoff=cutoff)

        monkeypatch.setattr(properties, "_distance_between", spy)
        girth(circuit(6), max_length=2)
        assert observed and all(c == 1 for c in observed)

    def test_girth_two_cycle_early_exit(self):
        # A 2-cycle plus a long tail: the answer is 2 regardless of the rest.
        g = Digraph(6, arcs=[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        assert girth(g) == 2

    def test_girth_best_so_far_tightens_cutoff(self):
        # Two disjoint cycles of different lengths: the shorter must win.
        arcs = [(0, 1), (1, 2), (2, 0)] + [(3, 4), (4, 5), (5, 6), (6, 3)]
        assert girth(Digraph(7, arcs=arcs)) == 3

    def test_degree_summary(self):
        summary = degree_summary(de_bruijn(2, 3))
        assert summary["num_vertices"] == 8
        assert summary["num_arcs"] == 16
        assert summary["is_regular"] is True
        assert summary["num_loops"] == 2
        assert summary["out_degree_min"] == summary["out_degree_max"] == 2
