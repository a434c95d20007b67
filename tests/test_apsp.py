"""Parity tests for the batched bit-parallel eccentricity/APSP engine.

The engine (:mod:`repro.graphs.apsp`) shadows two reference
implementations — per-source queue BFS and the BFS distance-matrix oracle of
:mod:`repro.graphs.properties` — so every test here pits them against each
other on the
adversarial digraph shapes the search actually meets: multigraphs with
parallel arcs, disconnected digraphs, loops, and the OTIS digraphs
``H(p, q, d)`` themselves.
"""

import numpy as np
import pytest

from repro.graphs.apsp import (
    batched_eccentricities,
    bit_distance_matrix,
    padded_predecessor_matrix,
    padded_successor_matrix,
    pairwise_distance_sum,
    subset_distance_rows,
)
from repro.graphs.digraph import Digraph, RegularDigraph
from repro.graphs.generators import circuit, de_bruijn, kautz
from repro.graphs.properties import (
    _bfs_distance_matrix,
    distance_matrix,
    eccentricities,
)
from repro.graphs.traversal import (
    bfs_distances,
    reverse_bfs_distances_regular,
)
from repro.otis.h_digraph import h_digraph


def reference_eccentricities(graph) -> np.ndarray:
    dist = _bfs_distance_matrix(graph)
    n = graph.num_vertices
    ecc = np.empty(n, dtype=np.int64)
    for u in range(n):
        ecc[u] = -1 if (dist[u] < 0).any() else dist[u].max()
    return ecc


def random_digraph(rng, n, m, parallel=False):
    arcs = []
    for _ in range(m):
        u, v = rng.integers(n, size=2)
        arcs.append((int(u), int(v)))
        if parallel and rng.random() < 0.3:
            arcs.append((int(u), int(v)))  # duplicate: genuine parallel arc
    return Digraph(n, arcs=arcs)


class TestDistanceParity:
    def test_named_families(self):
        for graph in (de_bruijn(2, 4), de_bruijn(3, 3), kautz(2, 4), circuit(9)):
            assert np.array_equal(
                bit_distance_matrix(graph), _bfs_distance_matrix(graph)
            )
            assert np.array_equal(distance_matrix(graph), _bfs_distance_matrix(graph))

    def test_random_digraphs_including_disconnected(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, 3 * n))
            graph = random_digraph(rng, n, m, parallel=(trial % 2 == 0))
            ref = _bfs_distance_matrix(graph)
            assert np.array_equal(bit_distance_matrix(graph), ref)
            # Per-source queue BFS as an extra independent reference.
            source = int(rng.integers(n))
            assert np.array_equal(ref[source], bfs_distances(graph, source))

    def test_every_small_h_with_parallel_arcs(self):
        # All H(p, q, d) on <= 40 vertices that actually have parallel arcs
        # (184 instances exist over the paper's parameter space; these are
        # the small ones).
        found = 0
        for d in (2, 3):
            for p in range(1, 7):
                for q in range(p, 13):
                    if (p * q) % d:
                        continue
                    graph = h_digraph(p, q, d)
                    if graph.num_vertices > 40:
                        continue
                    multiset = graph.arc_multiset()
                    if max(multiset.values()) < 2:
                        continue
                    found += 1
                    assert np.array_equal(
                        bit_distance_matrix(graph),
                        _bfs_distance_matrix(graph),
                    )
                    ecc, aborted = batched_eccentricities(graph)
                    assert not aborted
                    assert np.array_equal(ecc, reference_eccentricities(graph))
        assert found >= 5  # the sweep really exercised multigraph instances

    def test_empty_and_trivial(self):
        assert bit_distance_matrix(Digraph(0)).shape == (0, 0)
        assert np.array_equal(bit_distance_matrix(Digraph(1)), [[0]])
        loop = Digraph(1, arcs=[(0, 0)])
        assert np.array_equal(bit_distance_matrix(loop), [[0]])
        for graph in (Digraph(0), Digraph(1), loop):
            assert np.array_equal(distance_matrix(graph), _bfs_distance_matrix(graph))

    def test_word_boundary_sizes(self):
        # Exercise n below/at/above the 64-bit word boundary.
        for n in (63, 64, 65, 128, 130):
            graph = circuit(n)
            assert np.array_equal(
                bit_distance_matrix(graph), _bfs_distance_matrix(graph)
            )


class TestEccentricities:
    def test_matches_reference_on_random_digraphs(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(1, 50))
            graph = random_digraph(rng, n, int(rng.integers(0, 4 * n)), parallel=True)
            ecc, aborted = batched_eccentricities(graph)
            assert not aborted
            assert np.array_equal(ecc, reference_eccentricities(graph))
            # properties.eccentricities defaults onto the engine.
            assert np.array_equal(eccentricities(graph), ecc)

    def test_early_abort_fires(self):
        graph = de_bruijn(2, 6)  # diameter 6
        ecc, aborted = batched_eccentricities(graph, upper_bound=3)
        assert aborted
        # With a loose bound it runs to completion.
        ecc, aborted = batched_eccentricities(graph, upper_bound=6)
        assert not aborted
        assert ecc.max() == 6

    def test_disconnected_converges_before_loose_bound(self):
        # The sweep converges (no bit changes) before the bound is reached,
        # so the answer is definitive: no abort, -1 everywhere.
        graph = Digraph(3, arcs=[(0, 1), (1, 0)])
        ecc, aborted = batched_eccentricities(graph, upper_bound=5)
        assert not aborted
        assert list(ecc) == [-1, -1, -1]
        ecc, aborted = batched_eccentricities(graph)
        assert not aborted
        assert list(ecc) == [-1, -1, -1]

    def test_abort_on_slowly_converging_disconnected(self):
        # A directed path keeps changing past the bound, so the abort fires
        # before convergence can prove disconnection.
        graph = Digraph(6, arcs=[(i, i + 1) for i in range(5)])
        ecc, aborted = batched_eccentricities(graph, upper_bound=2)
        assert aborted

    def test_accepts_raw_successor_matrix(self):
        graph = kautz(2, 3)
        ecc_graph, _ = batched_eccentricities(graph)
        ecc_matrix, _ = batched_eccentricities(graph.successors)
        assert np.array_equal(ecc_graph, ecc_matrix)


class TestDistanceSum:
    def test_matches_matrix_sum(self):
        for graph in (de_bruijn(2, 4), kautz(2, 3), circuit(8)):
            total, complete = pairwise_distance_sum(graph)
            assert complete
            dist = _bfs_distance_matrix(graph)
            assert total == int(dist.sum())

    def test_incomplete_on_disconnected(self):
        total, complete = pairwise_distance_sum(Digraph(3, arcs=[(0, 1)]))
        assert not complete
        assert total == 1  # only d(0, 1) is finite

    def test_partial_sum_is_exactly_the_finite_distances(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            n = int(rng.integers(2, 30))
            graph = random_digraph(rng, n, int(rng.integers(0, 2 * n)))
            total, complete = pairwise_distance_sum(graph)
            dist = _bfs_distance_matrix(graph)
            assert total == int(dist[dist > 0].sum())
            assert complete == bool((dist >= 0).all())


class TestPaddedSuccessorMatrix:
    def test_regular_passthrough(self):
        graph = de_bruijn(2, 3)
        assert padded_successor_matrix(graph) is graph.successors

    def test_padding_is_inert(self):
        # Irregular out-degrees: padding with the vertex itself must not
        # change any distance.
        graph = Digraph(4, arcs=[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 0)])
        matrix = padded_successor_matrix(graph)
        assert matrix.shape == (4, 3)
        assert np.array_equal(
            bit_distance_matrix(graph), _bfs_distance_matrix(graph)
        )

    def test_no_arcs(self):
        assert padded_successor_matrix(Digraph(3)).shape == (3, 0)


class TestReverseBfs:
    def test_matches_distance_matrix_column(self):
        rng = np.random.default_rng(11)
        for graph in (de_bruijn(2, 4), kautz(2, 3), h_digraph(4, 8, 2)):
            target = int(rng.integers(graph.num_vertices))
            rdist = reverse_bfs_distances_regular(graph, target)
            expected = _bfs_distance_matrix(graph)[:, target]
            assert np.array_equal(rdist, expected)

    def test_unreachable_marked(self):
        graph = RegularDigraph([[1], [1]])  # vertex 1 absorbs; 0 unreachable
        rdist = reverse_bfs_distances_regular(graph, 0)
        assert list(rdist) == [0, -1]

    def test_bad_target(self):
        with pytest.raises(ValueError):
            reverse_bfs_distances_regular(de_bruijn(2, 3), 99)


class TestSubsetSources:
    """``sources=`` subset sweeps agree with the full engine everywhere."""

    def test_subset_matches_full_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 60))
            graph = random_digraph(rng, n, int(rng.integers(0, 4 * n)), parallel=True)
            full, _ = batched_eccentricities(graph)
            sources = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            subset, aborted = batched_eccentricities(graph, sources=sources)
            assert not aborted
            assert np.array_equal(subset, full[sources])

    def test_more_than_64_sources(self):
        # more sources than one machine word: the multi-word state path
        graph = de_bruijn(2, 7)  # n = 128
        sources = np.arange(100)
        full, _ = batched_eccentricities(graph)
        subset, _ = batched_eccentricities(graph, sources=sources)
        assert np.array_equal(subset, full[:100])

    def test_duplicate_and_unordered_sources(self):
        graph = kautz(2, 3)
        full, _ = batched_eccentricities(graph)
        sources = np.array([5, 0, 5, 2])
        subset, _ = batched_eccentricities(graph, sources=sources)
        assert np.array_equal(subset, full[sources])

    def test_upper_bound_abort_parity_with_full_sweep(self):
        graphs = [
            de_bruijn(2, 5),
            Digraph(6, arcs=[(i, i + 1) for i in range(5)]),
            Digraph(3, arcs=[(0, 1), (1, 0)]),
        ]
        for graph in graphs:
            n = graph.num_vertices
            for bound in range(0, 7):
                full, full_abort = batched_eccentricities(graph, upper_bound=bound)
                subset, subset_abort = batched_eccentricities(
                    graph, upper_bound=bound, sources=np.arange(n)
                )
                assert subset_abort == full_abort
                assert np.array_equal(subset, full)

    def test_sampled_screen_on_unreachable_source(self):
        graph = Digraph(4, arcs=[(0, 1), (1, 0), (1, 2)])
        subset, aborted = batched_eccentricities(graph, sources=np.array([2, 0]))
        assert not aborted
        assert list(subset) == [-1, -1]  # neither 2 nor 0 reaches vertex 3

    def test_rejects_bad_sources(self):
        graph = de_bruijn(2, 3)
        with pytest.raises(ValueError):
            batched_eccentricities(graph, sources=np.array([99]))
        with pytest.raises(ValueError):
            batched_eccentricities(graph, sources=np.array([[0, 1]]))
        with pytest.raises(ValueError):
            batched_eccentricities(graph.successors, sources=np.array([0]))


class TestSubsetDistanceRows:
    def test_rows_match_distance_matrix(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            graph = random_digraph(rng, n, int(rng.integers(0, 4 * n)), parallel=True)
            matrix = bit_distance_matrix(graph)
            sources = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            rows = subset_distance_rows(graph, sources)
            assert np.array_equal(rows, matrix[sources])

    def test_precomputed_predecessors_path(self):
        graph = h_digraph(4, 8, 2)
        predecessors = padded_predecessor_matrix(graph)
        sources = np.array([0, 7, 3])
        with_pred = subset_distance_rows(graph, sources, predecessors=predecessors)
        without = subset_distance_rows(graph, sources)
        assert np.array_equal(with_pred, without)

    def test_predecessor_matrix_covers_multiplicity(self):
        graph = h_digraph(1, 4, 2)  # parallel arcs
        predecessors = padded_predecessor_matrix(graph)
        in_degrees = graph.in_degrees()
        assert predecessors.shape[1] == in_degrees.max()

    def test_raw_matrix_needs_explicit_predecessors(self):
        graph = de_bruijn(2, 3)
        with pytest.raises(ValueError, match="predecessors"):
            subset_distance_rows(graph.successors, np.array([0]))

    def test_empty_sources(self):
        rows = subset_distance_rows(de_bruijn(2, 3), np.zeros(0, dtype=np.int64))
        assert rows.shape == (0, 8)
