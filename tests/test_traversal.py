"""Unit tests for BFS, components and related traversal algorithms."""

import numpy as np
import pytest

from repro.graphs.digraph import Digraph
from repro.graphs.generators import circuit, de_bruijn
from repro.graphs.traversal import (
    bfs_distances,
    bfs_distances_regular,
    is_strongly_connected,
    is_weakly_connected,
    reachable_set,
    strongly_connected_components,
    topological_order,
    weakly_connected_components,
)


def path_digraph(n):
    g = Digraph(n)
    for i in range(n - 1):
        g.add_arc(i, i + 1)
    return g


class TestBFS:
    def test_path(self):
        g = path_digraph(5)
        dist = bfs_distances(g, 0)
        assert list(dist) == [0, 1, 2, 3, 4]
        dist_back = bfs_distances(g, 4)
        assert list(dist_back) == [-1, -1, -1, -1, 0]

    def test_source_validation(self):
        with pytest.raises(ValueError):
            bfs_distances(path_digraph(3), 5)
        with pytest.raises(ValueError):
            bfs_distances_regular(circuit(3), -1)

    def test_regular_matches_reference(self):
        for graph in (de_bruijn(2, 4), de_bruijn(3, 3), circuit(7)):
            for source in (0, 1, graph.num_vertices - 1):
                assert np.array_equal(
                    bfs_distances(graph, source),
                    bfs_distances_regular(graph, source),
                )

    def test_reachable_set(self):
        g = path_digraph(4)
        assert reachable_set(g, 1) == {1, 2, 3}
        assert reachable_set(circuit(5), 2) == set(range(5))


class TestComponents:
    def test_weak_components_of_disjoint_circuits(self):
        g = Digraph(6)
        for offset in (0, 3):
            for i in range(3):
                g.add_arc(offset + i, offset + (i + 1) % 3)
        components = weakly_connected_components(g)
        assert components == [[0, 1, 2], [3, 4, 5]]
        assert not is_weakly_connected(g)

    def test_weak_ignores_direction(self):
        g = path_digraph(4)
        assert is_weakly_connected(g)
        assert not is_strongly_connected(g)

    def test_strong_components_path(self):
        g = path_digraph(3)
        components = strongly_connected_components(g)
        assert components == [[0], [1], [2]]

    def test_strong_components_mixed(self):
        # A 3-cycle feeding a 2-cycle.
        g = Digraph(5, arcs=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)])
        components = strongly_connected_components(g)
        assert sorted(map(tuple, components)) == [(0, 1, 2), (3, 4)]

    def test_strongly_connected_debruijn(self):
        assert is_strongly_connected(de_bruijn(2, 4))
        assert is_strongly_connected(circuit(9))

    def test_single_vertex(self):
        assert is_strongly_connected(Digraph(1))
        assert is_strongly_connected(Digraph(0))

    def test_components_cover_all_vertices(self):
        graph = de_bruijn(2, 3)
        strong = strongly_connected_components(graph)
        assert sorted(v for comp in strong for v in comp) == list(range(8))
        assert len(strong) == 1


class TestTopologicalOrder:
    def test_dag(self):
        g = Digraph(4, arcs=[(0, 1), (0, 2), (1, 3), (2, 3)])
        order = topological_order(g)
        assert order is not None
        position = {v: i for i, v in enumerate(order)}
        for u, v in g.arcs():
            assert position[u] < position[v]

    def test_cycle_returns_none(self):
        assert topological_order(circuit(4)) is None
        assert topological_order(de_bruijn(2, 2)) is None

    def test_empty(self):
        assert topological_order(Digraph(0)) == []
