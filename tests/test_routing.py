"""Tests for shortest-path routing, broadcast and gossip schedules."""

import numpy as np
import pytest

from repro.graphs.digraph import Digraph
from repro.graphs.generators import circuit, de_bruijn, kautz, ring
from repro.graphs.properties import _bfs_distance_matrix, diameter, distance_matrix
from repro.routing.broadcast import (
    all_port_broadcast_schedule,
    breadth_first_arborescence,
    single_port_broadcast_schedule,
)
from repro.routing.gossip import all_port_gossip_schedule
from repro.routing.paths import (
    _build_routing_table_python,
    bfs_route,
    build_routing_table,
    debruijn_distance,
    debruijn_route,
    debruijn_route_words,
    kautz_route,
)


class TestDeBruijnRouting:
    def test_route_is_valid_path(self):
        d, D = 2, 4
        B = de_bruijn(d, D)
        for source in range(0, 16, 3):
            for target in range(0, 16, 5):
                path = debruijn_route(source, target, d, D)
                assert path[0] == source and path[-1] == target
                for u, v in zip(path, path[1:]):
                    assert B.has_arc(u, v)

    def test_route_is_shortest(self):
        d, D = 2, 4
        dist = distance_matrix(de_bruijn(d, D))
        for source in range(16):
            for target in range(16):
                path = debruijn_route(source, target, d, D)
                assert len(path) - 1 == dist[source, target]
                assert debruijn_distance(source, target, d, D) == dist[source, target]

    def test_route_ternary(self):
        d, D = 3, 3
        dist = distance_matrix(de_bruijn(d, D))
        rng = np.random.default_rng(0)
        for _ in range(40):
            s, t = rng.integers(27, size=2)
            assert debruijn_distance(int(s), int(t), d, D) == dist[s, t]

    def test_route_words_known_case(self):
        assert debruijn_route_words((1, 0, 1), (0, 1, 1), 2) == [(1, 0, 1), (0, 1, 1)]
        assert len(debruijn_route_words((0, 0, 0), (1, 1, 1), 2)) == 4

    def test_route_length_mismatch(self):
        with pytest.raises(ValueError):
            debruijn_route_words((1, 0), (1, 0, 1), 2)


class TestKautzRouting:
    def test_route_is_valid_kautz_path(self):
        d, D = 2, 3
        K = kautz(d, D)
        index = {word: i for i, word in enumerate(K.labels)}
        for source_word in K.labels[::3]:
            for target_word in K.labels[::4]:
                path = kautz_route(source_word, target_word, d)
                assert path[0] == source_word and path[-1] == target_word
                assert len(path) - 1 <= D
                for a, b in zip(path, path[1:]):
                    assert K.has_arc(index[a], index[b])

    def test_rejects_non_kautz_words(self):
        with pytest.raises(ValueError):
            kautz_route((0, 0, 1), (1, 0, 1), 2)


class TestGenericRouting:
    def test_bfs_route(self):
        B = de_bruijn(2, 3)
        path = bfs_route(B, 0, 7)
        assert path is not None and path[0] == 0 and path[-1] == 7
        assert len(path) - 1 == 3
        assert bfs_route(B, 4, 4) == [4]

    def test_bfs_route_unreachable(self):
        g = Digraph(3, arcs=[(0, 1)])
        assert bfs_route(g, 1, 0) is None

    def test_routing_table_consistency(self):
        for graph in (de_bruijn(2, 3), kautz(2, 3), circuit(6), ring(8)):
            table = build_routing_table(graph)
            assert table.is_consistent(graph)
            assert table.num_vertices == graph.num_vertices

    def test_bitset_and_python_builders_agree(self):
        # The vectorised builder must produce the same distances as the
        # per-target reverse BFS reference, and a consistent next-hop table,
        # on regular, irregular and multigraph topologies.
        from repro.otis.h_digraph import h_digraph

        graphs = [
            de_bruijn(2, 4),
            kautz(2, 3),
            ring(7),
            h_digraph(1, 4, 2),  # parallel arcs
            Digraph(5, arcs=[(0, 1), (0, 1), (1, 2), (2, 0), (3, 0)]),  # vertex 4 isolated
        ]
        for graph in graphs:
            fast = build_routing_table(graph)
            slow = _build_routing_table_python(graph)
            assert np.array_equal(fast.distance, slow.distance)
            assert fast.is_consistent(graph)
            assert slow.is_consistent(graph)

    def test_routing_table_empty_graph(self):
        table = build_routing_table(Digraph(0))
        assert table.num_vertices == 0

    def test_routing_table_distances_match_bfs(self):
        graph = de_bruijn(2, 4)
        table = build_routing_table(graph)
        assert np.array_equal(table.distance, _bfs_distance_matrix(graph))

    def test_routing_table_route_reconstruction(self):
        graph = kautz(2, 3)
        table = build_routing_table(graph)
        path = table.route(0, 7)
        assert path is not None
        assert path[0] == 0 and path[-1] == 7
        for u, v in zip(path, path[1:]):
            assert graph.has_arc(u, v)

    def test_routing_table_unreachable(self):
        g = Digraph(2, arcs=[(0, 1)])
        table = build_routing_table(g)
        assert table.route(1, 0) is None
        assert table.distance[1, 0] == -1


class TestBroadcast:
    def test_arborescence(self):
        B = de_bruijn(2, 3)
        parent = breadth_first_arborescence(B, 0)
        assert parent[0] == 0
        assert np.all(parent >= 0)
        # following parents always terminates at the root
        for v in range(8):
            current, steps = v, 0
            while current != 0:
                current = int(parent[current])
                steps += 1
                assert steps <= 8

    def test_all_port_rounds_equal_eccentricity(self):
        for graph, expected in ((de_bruijn(2, 4), 4), (kautz(2, 3), 3), (circuit(5), 4)):
            schedule = all_port_broadcast_schedule(graph, 0)
            assert schedule.num_rounds == expected
            assert schedule.covers_all()
            assert schedule.is_valid(graph, single_port=False)

    def test_single_port_valid_and_complete(self):
        for graph in (de_bruijn(2, 3), de_bruijn(2, 4), kautz(2, 3), ring(9)):
            schedule = single_port_broadcast_schedule(graph, 0)
            assert schedule.covers_all()
            assert schedule.is_valid(graph, single_port=True)
            # single-port can never beat all-port
            assert schedule.num_rounds >= all_port_broadcast_schedule(graph, 0).num_rounds
            # information-theoretic lower bound: ceil(log2(n)) rounds
            n = graph.num_vertices
            assert schedule.num_rounds >= int(np.ceil(np.log2(n)))

    def test_single_port_on_circuit_is_n_minus_1(self):
        schedule = single_port_broadcast_schedule(circuit(7), 2)
        assert schedule.num_rounds == 6

    def test_invalid_root(self):
        with pytest.raises(ValueError):
            breadth_first_arborescence(circuit(3), 5)


class TestGossip:
    def test_gossip_rounds_equal_diameter(self):
        for graph in (de_bruijn(2, 3), de_bruijn(2, 4), kautz(2, 3), circuit(6)):
            schedule = all_port_gossip_schedule(graph)
            assert schedule.completed()
            assert schedule.num_rounds == diameter(graph)
            final = schedule.knowledge_counts[-1]
            assert np.all(final == graph.num_vertices)

    def test_gossip_monotone_knowledge(self):
        schedule = all_port_gossip_schedule(de_bruijn(2, 4))
        counts = schedule.knowledge_counts
        assert np.all(np.diff(counts, axis=0) >= 0)
        assert np.all(counts[0] == 1)

    def test_gossip_incomplete_on_disconnected(self):
        g = Digraph(4, arcs=[(0, 1), (1, 0), (2, 3), (3, 2)])
        schedule = all_port_gossip_schedule(g)
        assert not schedule.completed()

    def test_gossip_traffic_positive(self):
        schedule = all_port_gossip_schedule(de_bruijn(2, 3))
        assert schedule.arc_traffic > 0

    def test_empty_graph(self):
        schedule = all_port_gossip_schedule(Digraph(0))
        assert schedule.completed()
        assert schedule.num_rounds == 0


def on_demand(monkeypatch, graph, columns):
    """A table router whose budget holds ``columns`` columns of ``graph``."""
    from repro.routing import routers

    monkeypatch.setattr(routers, "TABLE_BUDGET_BYTES", 5 * graph.num_vertices * columns)
    return routers.DenseTableRouter(graph)


class TestRoutingTableCache:
    """The table router's column store: bounded by its budget, emptied when
    full, refilled exactly, and built from the digraph's current arcs."""

    def test_hit_returns_same_instance(self, monkeypatch):
        # present columns are read in place, never refilled
        router = on_demand(monkeypatch, de_bruijn(2, 4), 4)
        first = router.columns([3, 5])
        second = router.columns([5])
        assert all(a is b for a, b in zip(first, second))

    def test_bounded_across_many_topologies(self, monkeypatch):
        # a long multi-topology sweep holds at most a budget per router
        for D in range(5, 9):
            graph = de_bruijn(2, D)
            n = graph.num_vertices
            router = on_demand(monkeypatch, graph, 2)
            empty = router.state_bytes()
            rng = np.random.default_rng(D)
            for _ in range(10):
                router.next_hops(rng.integers(n, size=20), np.full(20, rng.integers(n)))
            assert router.state_bytes() - empty <= 2 * 5 * n

    def test_evicted_table_is_recomputed_not_stale(self, monkeypatch):
        graph = de_bruijn(2, 4)
        router = on_demand(monkeypatch, graph, 1)
        col, slot, hops = router.columns([6])
        kept = slot[col[6]].copy(), hops[col[6]].copy()
        router.columns([9])  # empties the one-column store
        col, slot, hops = router.columns([6])
        assert np.array_equal(slot[col[6]], kept[0])
        assert np.array_equal(hops[col[6]], kept[1])

    def test_zero_limit_disables_caching(self, monkeypatch):
        # a budget below one column still holds the column a call needs
        from repro.routing import routers

        graph = de_bruijn(2, 3)
        monkeypatch.setattr(routers, "TABLE_BUDGET_BYTES", 0)
        router = routers.DenseTableRouter(graph)
        table = build_routing_table(graph)
        for s in range(8):
            for t in range(8):
                assert router.next_hop(s, t) == table.next_hop[s, t]

    def test_mutation_still_invalidates(self):
        from repro.routing.routers import make_router

        graph = Digraph(3, arcs=[(0, 1), (1, 0), (1, 2)])
        assert make_router(graph).next_hop(0, 2) == 1
        graph.remove_arc(1, 2)
        graph.add_arc(0, 2)  # same (n, m), different topology
        router = make_router(graph)
        assert router.next_hop(0, 2) == 2
        assert router.path_lengths(np.array([0]), np.array([2])).tolist() == [1]


class TestRoutingTableCacheThreadSafety:
    """The column store shared by threads (serve executor threads share one
    router): concurrent fills and emptying never hand back another target's
    column, and the store stays within its budget."""

    def test_threaded_lookups_stay_consistent(self, monkeypatch):
        import threading

        graphs = [de_bruijn(2, D) for D in (3, 4, 5)] + [kautz(2, 3)]
        expected = [build_routing_table(g).next_hop for g in graphs]
        routers = [on_demand(monkeypatch, g, 2) for g in graphs]
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for step in range(25):
                index = (seed + step) % len(graphs)
                n = graphs[index].num_vertices
                s, t = rng.integers(n, size=(2, 16))
                if not (routers[index].next_hops(s, t) == expected[index][s, t]).all():
                    errors.append(index)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

    def test_cache_stays_bounded_under_threads(self, monkeypatch):
        import threading

        graph = de_bruijn(2, 6)
        router = on_demand(monkeypatch, graph, 2)
        empty = router.state_bytes()

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                t = int(rng.integers(64))
                router.next_hops(rng.integers(64, size=8), np.full(8, t))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert router.state_bytes() - empty <= 2 * 5 * 64
