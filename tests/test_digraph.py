"""Unit tests for the digraph data structures (Digraph / RegularDigraph)."""

import numpy as np
import pytest

from repro.graphs.digraph import Digraph, RegularDigraph


class TestDigraph:
    def test_empty(self):
        g = Digraph(0)
        assert g.num_vertices == 0
        assert g.num_arcs == 0
        assert list(g.arcs()) == []

    def test_add_arcs_and_neighbors(self):
        g = Digraph(3)
        g.add_arc(0, 1)
        g.add_arc(0, 2)
        g.add_arc(2, 0)
        assert g.out_neighbors(0) == [1, 2]
        assert g.out_degree(0) == 2
        assert g.num_arcs == 3
        assert g.has_arc(2, 0)
        assert not g.has_arc(1, 0)

    def test_parallel_arcs_and_loops(self):
        g = Digraph(2)
        g.add_arcs([(0, 1), (0, 1), (1, 1)])
        assert g.out_neighbors(0) == [1, 1]
        assert g.num_loops() == 1
        assert g.arc_multiset()[(0, 1)] == 2

    def test_remove_arc(self):
        g = Digraph(2, arcs=[(0, 1), (0, 1)])
        g.remove_arc(0, 1)
        assert g.out_neighbors(0) == [1]
        with pytest.raises(ValueError):
            g.remove_arc(1, 0)

    def test_add_vertex(self):
        g = Digraph(2)
        new = g.add_vertex()
        assert new == 2
        assert g.num_vertices == 3
        g.add_arc(2, 0)
        assert g.has_arc(2, 0)

    def test_vertex_range_checked(self):
        g = Digraph(2)
        with pytest.raises(ValueError):
            g.add_arc(0, 2)
        with pytest.raises(ValueError):
            g.out_neighbors(5)

    def test_copy_is_independent(self):
        g = Digraph(2, arcs=[(0, 1)])
        h = g.copy()
        h.add_arc(1, 0)
        assert g.num_arcs == 1
        assert h.num_arcs == 2

    def test_degrees(self):
        g = Digraph(3, arcs=[(0, 1), (0, 2), (1, 2)])
        assert np.array_equal(g.out_degrees(), [2, 1, 0])
        assert np.array_equal(g.in_degrees(), [0, 1, 2])
        assert g.in_neighbors(2) == [0, 1]

    def test_regularity_flags(self):
        g = Digraph(2, arcs=[(0, 1), (1, 0)])
        assert g.is_out_regular()
        assert g.is_regular()
        g.add_arc(0, 0)
        assert not g.is_out_regular()

    def test_same_arcs(self):
        g = Digraph(2, arcs=[(0, 1), (1, 0)])
        h = Digraph(2, arcs=[(1, 0), (0, 1)])
        assert g.same_arcs(h)
        h.add_arc(0, 0)
        assert not g.same_arcs(h)

    def test_successor_matrix_requires_regular(self):
        g = Digraph(2, arcs=[(0, 1)])
        with pytest.raises(ValueError):
            g.successor_matrix()

    def test_repr_contains_counts(self):
        g = Digraph(3, arcs=[(0, 1)], name="demo")
        text = repr(g)
        assert "demo" in text and "n=3" in text and "m=1" in text


class TestRegularDigraph:
    def test_construction_and_neighbors(self):
        g = RegularDigraph([[1, 2], [2, 0], [0, 1]])
        assert g.num_vertices == 3
        assert g.degree == 2
        assert g.out_neighbors(0) == [1, 2]
        assert g.num_arcs == 6

    def test_invalid_successors(self):
        with pytest.raises(ValueError):
            RegularDigraph([[0, 3], [0, 1]])
        with pytest.raises(ValueError):
            RegularDigraph(np.zeros((2, 2, 2), dtype=int))

    def test_matrix_read_only(self):
        g = RegularDigraph([[0], [1]])
        with pytest.raises(ValueError):
            g.successors[0, 0] = 1

    def test_in_degrees_vectorised(self):
        g = RegularDigraph([[1, 1], [0, 1]])
        assert np.array_equal(g.in_degrees(), [1, 3])

    def test_labels(self):
        g = RegularDigraph([[1], [0]], labels=["a", "b"])
        assert g.label_of(0) == "a"
        assert g.label_of(1) == "b"
        unlabelled = RegularDigraph([[1], [0]])
        assert unlabelled.label_of(1) == 1
        with pytest.raises(ValueError):
            RegularDigraph([[1], [0]], labels=["only-one"])

    def test_relabel(self):
        g = RegularDigraph([[1, 2], [2, 0], [0, 1]], labels=["a", "b", "c"])
        mapping = [2, 0, 1]  # u -> mapping[u]
        h = g.relabel(mapping)
        # arc (0, 1) becomes (2, 0)
        assert sorted(h.out_neighbors(2)) == sorted([0, 1])
        assert h.label_of(2) == "a"
        with pytest.raises(ValueError):
            g.relabel([0, 0, 1])

    def test_relabel_preserves_isomorphism(self):
        from repro.graphs.isomorphism import is_isomorphism

        g = RegularDigraph([[1, 2], [2, 0], [0, 1]])
        mapping = np.array([1, 2, 0])
        h = g.relabel(mapping)
        assert is_isomorphism(g, h, mapping)

    def test_reverse(self):
        g = RegularDigraph([[1], [2], [0]])
        rev = g.reverse()
        assert rev.has_arc(1, 0) and rev.has_arc(2, 1) and rev.has_arc(0, 2)

    def test_round_trip_digraph_regular(self):
        g = RegularDigraph([[1, 1], [0, 0]], name="multi")
        mutable = g.to_digraph()
        back = mutable.to_regular()
        assert back.same_arcs(g)
