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


class TestRoutingTableCache:
    """The shared table LRU: bounded, evictable, mutation-safe."""

    def setup_method(self):
        from repro.routing.paths import (
            clear_routing_table_cache,
            set_routing_table_cache_limit,
        )

        clear_routing_table_cache()
        set_routing_table_cache_limit(4)

    teardown_method = setup_method

    def test_hit_returns_same_instance(self):
        from repro.routing.paths import routing_table_cache_info, routing_table_for

        graph = de_bruijn(2, 4)
        table = routing_table_for(graph)
        assert routing_table_for(graph) is table
        info = routing_table_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_bounded_across_many_topologies(self):
        # A long multi-topology sweep must not accumulate dense tables: the
        # LRU evicts the oldest entries instead of pinning one per graph.
        from repro.routing.paths import (
            routing_table_cache_info,
            routing_table_for,
            set_routing_table_cache_limit,
        )

        set_routing_table_cache_limit(2)
        graphs = [de_bruijn(2, D) for D in range(2, 7)]
        for graph in graphs:
            routing_table_for(graph)
        assert routing_table_cache_info()["entries"] == 2

    def test_evicted_table_is_recomputed_not_stale(self):
        from repro.routing.paths import routing_table_for, set_routing_table_cache_limit

        set_routing_table_cache_limit(1)
        a, b = de_bruijn(2, 3), de_bruijn(2, 4)
        table_a = routing_table_for(a)
        routing_table_for(b)  # evicts a's table
        fresh = routing_table_for(a)
        assert fresh is not table_a
        assert np.array_equal(fresh.distance, table_a.distance)

    def test_zero_limit_disables_caching(self):
        from repro.routing.paths import routing_table_cache_info, routing_table_for, set_routing_table_cache_limit

        set_routing_table_cache_limit(0)
        graph = de_bruijn(2, 3)
        assert routing_table_for(graph) is not routing_table_for(graph)
        assert routing_table_cache_info()["entries"] == 0

    def test_mutation_still_invalidates(self):
        from repro.routing.paths import routing_table_for

        graph = Digraph(3, arcs=[(0, 1), (1, 0), (1, 2)])
        table = routing_table_for(graph)
        graph.remove_arc(1, 2)
        graph.add_arc(0, 2)  # same (n, m), different topology
        fresh = routing_table_for(graph)
        assert fresh is not table
        assert fresh.next_hop[0, 2] == 2

    def test_cache_token_is_not_pickled(self):
        # Regression: the per-graph token shipped inside a pickled graph
        # could alias another graph's cache entry in a process whose token
        # counter restarted (sharded-simulation workers unpickle graphs).
        import pickle

        from repro.routing.paths import routing_table_for

        graph = de_bruijn(2, 4)
        routing_table_for(graph)
        assert hasattr(graph, "_routing_table_cache")
        clone = pickle.loads(pickle.dumps(graph))
        assert not hasattr(clone, "_routing_table_cache")
        # the clone still routes correctly (fresh token, fresh/cached table)
        table = routing_table_for(clone)
        assert table.num_vertices == 16
        assert table.is_consistent(clone)

    def test_token_ids_are_process_qualified(self):
        import os

        from repro.routing.paths import routing_table_for

        graph = de_bruijn(2, 3)
        routing_table_for(graph)
        signature, token_id = graph._routing_table_cache
        assert token_id.startswith(f"{os.getpid()}-")


class TestRoutingTableCacheThreadSafety:
    """Regression: the module-level table LRU is shared across simulator
    engines and serve executor threads; concurrent lookups and evictions
    must never corrupt the OrderedDict or hand back a half-registered
    entry."""

    def setup_method(self):
        from repro.routing.paths import (
            clear_routing_table_cache,
            set_routing_table_cache_limit,
        )

        clear_routing_table_cache()
        set_routing_table_cache_limit(2)  # constant eviction pressure

    teardown_method = setup_method

    def test_threaded_lookups_stay_consistent(self):
        import threading

        from repro.routing.paths import build_routing_table, routing_table_for

        graphs = [de_bruijn(2, D) for D in (3, 4, 5)] + [kautz(2, 3)]
        expected = [build_routing_table(g).next_hop for g in graphs]
        errors = []

        def worker(seed):
            order = list(range(len(graphs)))
            for step in range(25):
                index = order[(seed + step) % len(order)]
                table = routing_table_for(graphs[index])
                if not (table.next_hop == expected[index]).all():
                    errors.append(index)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_cache_stays_bounded_under_threads(self):
        import threading

        from repro.routing.paths import (
            routing_table_cache_info,
            routing_table_for,
        )

        graphs = [de_bruijn(2, D) for D in (3, 4, 5, 6)]

        def worker(seed):
            for step in range(20):
                routing_table_for(graphs[(seed + step) % len(graphs)])

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        info = routing_table_cache_info()
        assert info["entries"] <= 2
        assert info["hits"] + info["misses"] >= 120
