"""Router parity suite: closed form vs table router vs dense table vs BFS.

The contract of :mod:`repro.routing.routers` is that every router returns,
for every ``(source, target)`` pair, the *same* next hop the dense table of
:func:`repro.routing.paths.build_routing_table` holds — bit-identical
routes, so the simulators' engine-parity contract is router-independent.
This suite enforces it exhaustively on the paper's families (including
parallel-arc ``H`` instances and the Kautz no-repeated-letter constraint),
on hypothesis-generated ``(d, D)`` pairs, and on arbitrary/disconnected
digraphs for the table router — on both kernel backends, with the whole
table filled and in the on-demand mode (labelled ``lru`` below), whose
store of a few columns empties mid-run.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.graphs.digraph import Digraph
from repro.graphs.generators import (
    de_bruijn,
    imase_itoh,
    kautz,
    reddy_raghavan_kuhl,
    ring,
)
from repro.otis.h_digraph import h_digraph
from repro.routing.paths import build_routing_table
from repro.routing import routers
from repro.routing.routers import (
    AUTO_DENSE_MAX_N,
    ClosedFormRouter,
    DenseTableRouter,
    Router,
    make_router,
    resolve_router,
)
from repro.words import word_to_int

#: The kernel backends of this host: the table router fills its columns
#: with the compiled ``slot_columns`` kernel or the numpy derivation.
BACKENDS = kernels.available_backends()


def on_demand(monkeypatch, graph, columns):
    """A table router whose budget holds ``columns`` columns (fewer than
    the vertices): calls fill the columns they need and empty a full store."""
    monkeypatch.setattr(routers, "TABLE_BUDGET_BYTES", 5 * graph.num_vertices * columns)
    return DenseTableRouter(graph)


def build_router(monkeypatch, graph, kind):
    """``make_router(graph, kind)``, or for ``"lru"`` the on-demand table
    router with a store of three columns."""
    if kind == "lru":
        return on_demand(monkeypatch, graph, 3)
    return make_router(graph, kind)


def all_pairs(n):
    source, target = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return source.ravel(), target.ravel()


def assert_full_route_parity(graph, router):
    """Every (source, target) next hop and hop count equals the dense
    table's."""
    table = build_routing_table(graph)
    source, target = all_pairs(graph.num_vertices)
    expected = table.next_hop[source, target]
    np.testing.assert_array_equal(router.next_hops(source, target), expected)
    np.testing.assert_array_equal(
        router.path_lengths(source, target), table.distance[source, target]
    )
    # scalar path agrees with the vector path
    rng = np.random.default_rng(0)
    for _ in range(20):
        s, t = map(int, rng.integers(graph.num_vertices, size=2))
        assert router.next_hop(s, t) == int(table.next_hop[s, t])


CLOSED_FORM_GRAPHS = [
    de_bruijn(2, 4),
    de_bruijn(3, 3),
    kautz(2, 4),
    kautz(3, 3),
    imase_itoh(2, 16),
    reddy_raghavan_kuhl(2, 32),
    h_digraph(2, 4, 2),    # parallel arcs (H(d^1, d^2, d), D = 2)
    h_digraph(4, 8, 2),
    h_digraph(8, 16, 2),   # balanced even-D split (D = 6), Corollary 4.4
    h_digraph(32, 64, 2),  # the Table 1 flagship row, n = 1024
]


@pytest.mark.parametrize(
    "graph", CLOSED_FORM_GRAPHS, ids=lambda g: g.name
)
def test_closed_form_matches_dense_table(graph):
    assert_full_route_parity(graph, ClosedFormRouter.for_graph(graph))


#: Parallel-arc ``H`` instances (non-power splits, outside the closed form's
#: reach) plus an irregular baseline — the table router's home turf.
TABLE_EXTRA_GRAPHS = [
    ring(9),
    h_digraph(1, 4, 2),
    h_digraph(2, 8, 4),
    h_digraph(4, 16, 2),  # not strongly connected
    Digraph(5, [(0, 1), (1, 0), (1, 2), (3, 3)]),  # sink, loop, isolated vertex
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "graph", CLOSED_FORM_GRAPHS + TABLE_EXTRA_GRAPHS, ids=lambda g: g.name
)
def test_table_router_matches_dense_table(graph, backend, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", backend)
    assert_full_route_parity(graph, DenseTableRouter(graph))


@pytest.mark.parametrize(
    "graph", CLOSED_FORM_GRAPHS + TABLE_EXTRA_GRAPHS, ids=lambda g: g.name
)
def test_lru_rows_match_dense_table(graph, monkeypatch):
    # the on-demand mode: a store of five columns empties mid-suite, on
    # both backends; parity must survive it
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_KERNELS", backend)
        assert_full_route_parity(graph, on_demand(monkeypatch, graph, 5))


def test_parity_graph_set_includes_parallel_arcs():
    multi = [g for g in TABLE_EXTRA_GRAPHS if max(g.arc_multiset().values()) >= 2]
    assert multi, "the parity set must cover parallel-arc H instances"


class TestClosedFormAgainstWordRouting:
    """The vector router agrees with the word-level O(D) routing functions."""

    def test_debruijn_next_hop_is_unique_closer_neighbor(self):
        from repro.routing.paths import debruijn_route

        d, D = 2, 5
        router = ClosedFormRouter.for_de_bruijn(d, D)
        rng = np.random.default_rng(1)
        for _ in range(50):
            s, t = map(int, rng.integers(d**D, size=2))
            if s == t:
                continue
            path = debruijn_route(s, t, d, D)
            assert router.next_hop(s, t) == path[1]

    def test_kautz_hops_respect_no_repeat_constraint(self):
        d, D = 2, 4
        graph = kautz(d, D)
        router = ClosedFormRouter.for_graph(graph)
        source, target = all_pairs(graph.num_vertices)
        hops = router.next_hops(source, target)
        labels = graph.labels
        for s, t, hop in zip(source.tolist(), target.tolist(), hops.tolist()):
            word = labels[hop]
            assert all(a != b for a, b in zip(word, word[1:]))
            if s != t:
                assert hop in graph.out_neighbors(s)

    def test_kautz_code_table_is_lexicographic(self):
        d, D = 2, 3
        graph = kautz(d, D)
        codes = [word_to_int(word, d + 1) for word in graph.labels]
        assert codes == sorted(codes)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=3),
    D=st.integers(min_value=2, max_value=4),
    family=st.sampled_from(["de_bruijn", "kautz"]),
)
def test_hypothesis_closed_form_parity(d, D, family):
    graph = de_bruijn(d, D) if family == "de_bruijn" else kautz(d, D)
    table = build_routing_table(graph)
    router = ClosedFormRouter.for_graph(graph)
    source, target = all_pairs(graph.num_vertices)
    np.testing.assert_array_equal(
        router.next_hops(source, target), table.next_hop[source, target]
    )


@settings(max_examples=15, deadline=None)
@given(
    p_prime=st.integers(min_value=1, max_value=4),
    q_prime=st.integers(min_value=1, max_value=4),
)
def test_hypothesis_h_split_routing(p_prime, q_prime):
    """Power splits either route closed-form (cyclic f) or are rejected."""
    from repro.core.checks import is_otis_layout_of_de_bruijn

    d = 2
    graph = h_digraph(d**p_prime, d**q_prime, d)
    if is_otis_layout_of_de_bruijn(d, p_prime, q_prime):
        assert_full_route_parity(graph, ClosedFormRouter.for_graph(graph))
    else:
        with pytest.raises(ValueError):
            ClosedFormRouter.for_graph(graph)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hypothesis_table_router_parity(data):
    """Random digraphs: parallel arcs, self-loops, sinks and disconnected
    pieces, whole table and on demand, on both backends."""
    n = data.draw(st.integers(min_value=1, max_value=24))
    vertex = st.integers(min_value=0, max_value=n - 1)
    arcs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    graph = Digraph(n, arcs)
    columns = data.draw(st.integers(min_value=1, max_value=n))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_KERNELS", backend)
            assert_full_route_parity(graph, on_demand(monkeypatch, graph, columns))


class TestOnDemandTableRouter:
    """The table router's on-demand mode: a budget smaller than the table."""

    def test_unreachable_pairs_return_minus_one(self, monkeypatch):
        graph = Digraph(4, arcs=[(0, 1), (1, 0), (1, 2)])
        for router in (DenseTableRouter(graph), on_demand(monkeypatch, graph, 1)):
            assert router.next_hop(2, 0) == -1
            assert router.next_hops(np.array([2, 3]), np.array([0, 1])).tolist() == [-1, -1]
            assert router.path_lengths(np.array([2, 0]), np.array([0, 2])).tolist() == [-1, 2]

    def test_eviction_keeps_parity(self, monkeypatch):
        graph = de_bruijn(2, 4)
        table = build_routing_table(graph)
        router = on_demand(monkeypatch, graph, 2)
        empty = router.state_bytes()
        rng = np.random.default_rng(3)
        pairs = rng.integers(16, size=(200, 2))
        for s, t in pairs.tolist():
            assert router.next_hop(s, t) == int(table.next_hop[s, t])
        # more targets than the store holds: it emptied, and stayed in budget
        assert np.unique(pairs[:, 1]).size > 2
        assert router.state_bytes() - empty <= 2 * 5 * 16

    def test_batch_wider_than_capacity(self, monkeypatch):
        # one call with more targets than the budget holds is still exact,
        # and the next call that does not fit empties the store again
        graph = de_bruijn(2, 4)
        table = build_routing_table(graph)
        router = on_demand(monkeypatch, graph, 3)
        source, target = all_pairs(16)
        for _ in range(2):
            np.testing.assert_array_equal(
                router.next_hops(source, target), table.next_hop[source, target]
            )
            assert router.next_hop(3, 9) == int(table.next_hop[3, 9])

    def test_state_bytes_bounded_by_capacity(self, monkeypatch):
        graph = de_bruijn(2, 5)
        full_bytes = DenseTableRouter(graph).state_bytes()
        router = on_demand(monkeypatch, graph, 4)
        rng = np.random.default_rng(4)
        for _ in range(20):
            targets = rng.choice(32, 3)[rng.integers(3, size=8)]
            router.next_hops(rng.integers(32, size=8), targets)
        assert router.state_bytes() < full_bytes

    def test_out_degree_above_the_slot_range_is_refused(self):
        star = Digraph(300, [(0, v) for v in range(1, 300)])
        with pytest.raises(ValueError, match="out-degree 299"):
            DenseTableRouter(star)


class TestSelection:
    def test_auto_prefers_dense_below_threshold(self):
        graph = h_digraph(4, 8, 2)
        assert graph.num_vertices <= AUTO_DENSE_MAX_N
        assert make_router(graph, "auto").kind == "dense"

    def test_auto_goes_closed_form_above_threshold(self):
        graph = h_digraph(64, 128, 2)  # n = 4096
        assert graph.num_vertices > AUTO_DENSE_MAX_N
        router = make_router(graph, "auto")
        assert router.kind == "closed-form"
        # O(n) state, not O(n^2)
        assert router.state_bytes() < 32 * graph.num_vertices

    def test_auto_falls_back_to_the_table_router(self):
        # no closed form above the threshold: the table router, whole table
        graph = Digraph(AUTO_DENSE_MAX_N + 1, name="big-arbitrary")
        for u in range(graph.num_vertices):
            graph.add_arc(u, (u + 1) % graph.num_vertices)
        router = make_router(graph, "auto")
        assert router.kind == "dense"
        assert router.next_hop(0, AUTO_DENSE_MAX_N) == 1

    def test_closed_form_rejects_unsupported(self):
        for graph in (ring(8), h_digraph(3, 8, 2), h_digraph(1, 4, 2)):
            with pytest.raises(ValueError):
                ClosedFormRouter.for_graph(graph)
            assert not ClosedFormRouter.supports(graph)

    def test_spot_check_catches_impostor_name(self):
        impostor = Digraph(8, arcs=[(u, (u + 1) % 8) for u in range(8)], name="B(2,3)")
        with pytest.raises(ValueError, match="disagrees with the digraph"):
            ClosedFormRouter.for_graph(impostor)

    def test_rewired_vertex_keeping_the_name_is_refused(self):
        # B(2,10) with vertex 5's two arcs turned into self-loops: still
        # 2-out-regular and still named B(2,10), but next_hop(5, 0) would
        # be 10, which is no longer an arc.  A 32-vertex sample missed it.
        graph = de_bruijn(2, 10).to_digraph()
        for head in graph.out_neighbors(5):
            graph.remove_arc(5, head)
        graph.add_arc(5, 5)
        graph.add_arc(5, 5)
        assert graph.name == "B(2,10)"
        with pytest.raises(ValueError, match="vertex 5 of 'B\\(2,10\\)'"):
            ClosedFormRouter.for_graph(graph)
        assert not ClosedFormRouter.supports(graph)
        assert make_router(graph, "auto").kind == "dense"  # n <= 2048

    def test_every_family_member_passes_the_exact_check(self):
        for graph in CLOSED_FORM_GRAPHS:
            ClosedFormRouter.for_graph(graph)
        # a relabelled arc set with the right degrees is still refused
        arcs = list(kautz(2, 4).arcs())
        (u, v), (x, y) = arcs[0], arcs[-1]
        swapped = Digraph(
            kautz(2, 4).num_vertices, [(u, y), *arcs[1:-1], (x, v)], name="K(2,4)"
        )
        with pytest.raises(ValueError, match="disagrees with the digraph"):
            ClosedFormRouter.for_graph(swapped)

    def test_resolve_rejects_ambiguous_arguments(self):
        graph = de_bruijn(2, 3)
        router = DenseTableRouter(graph)
        assert resolve_router(graph, router=router) is router
        assert resolve_router(graph, router="dense").kind == "dense"
        for unknown in ("magic", "lru"):
            with pytest.raises(ValueError, match="unknown router kind"):
                make_router(graph, unknown)


class TestSimulatorIntegration:
    """All routers produce identical simulations on both engines."""

    @pytest.mark.parametrize("router_kind", ["dense", "closed-form", "lru"])
    def test_router_choice_does_not_change_results(self, router_kind, monkeypatch):
        from repro.simulation.network import (
            BatchedNetworkSimulator,
            LinkModel,
            NetworkSimulator,
        )
        from repro.simulation.workloads import uniform_random_pairs

        graph = h_digraph(8, 16, 2)
        link = LinkModel(0.7, 0.3)
        traffic = uniform_random_pairs(graph.num_vertices, 200, rng=5, rate=2.0)
        base_stats, base_messages = BatchedNetworkSimulator(
            graph, link=link, router="dense"
        ).run(traffic)
        for engine_cls in (NetworkSimulator, BatchedNetworkSimulator):
            router = build_router(monkeypatch, graph, router_kind)
            stats, messages = engine_cls(graph, link=link, router=router).run(traffic)
            assert stats == base_stats
            assert [(m.hops, m.arrival_time) for m in messages] == [
                (m.hops, m.arrival_time) for m in base_messages
            ]


class TestRouterHelpers:
    """full_path / path_lengths / etas agree with the dense table's BFS."""

    HELPER_GRAPHS = [de_bruijn(2, 4), kautz(2, 3), h_digraph(4, 8, 2)]

    @pytest.mark.parametrize("graph", HELPER_GRAPHS, ids=lambda g: g.name)
    @pytest.mark.parametrize("kind", ["dense", "closed-form", "lru"])
    def test_path_lengths_equal_bfs_distance(self, graph, kind, monkeypatch):
        router = build_router(monkeypatch, graph, kind)
        table = build_routing_table(graph)
        source, target = all_pairs(graph.num_vertices)
        np.testing.assert_array_equal(
            router.path_lengths(source, target), table.distance[source, target]
        )

    @pytest.mark.parametrize("graph", HELPER_GRAPHS, ids=lambda g: g.name)
    def test_full_path_walks_real_arcs(self, graph):
        router = make_router(graph, "closed-form")
        table = build_routing_table(graph)
        arcs = {(int(u), int(v)) for u, v in graph.arcs()}
        rng = np.random.default_rng(3)
        for _ in range(30):
            s, t = map(int, rng.integers(graph.num_vertices, size=2))
            path = router.full_path(s, t)
            assert path is not None
            assert path[0] == s and path[-1] == t
            assert len(path) - 1 == int(table.distance[s, t])
            for u, v in zip(path, path[1:]):
                assert (u, v) in arcs

    def test_full_path_unreachable_is_none(self, monkeypatch):
        disconnected = Digraph(4, [(0, 1), (2, 3)])
        router = on_demand(monkeypatch, disconnected, 2)
        assert router.full_path(0, 3) is None
        np.testing.assert_array_equal(
            router.path_lengths(np.array([0, 0]), np.array([1, 3])), [1, -1]
        )

    def test_etas_formula(self):
        from repro.simulation.network import LinkModel

        graph = de_bruijn(2, 3)
        router = make_router(graph, "dense")
        table = build_routing_table(graph)
        link = LinkModel(0.7, 0.3)
        sources = np.arange(graph.num_vertices)
        targets = (sources + 3) % graph.num_vertices
        expected = table.distance[sources, targets] * (0.7 + 0.3)
        np.testing.assert_allclose(
            router.etas(sources, targets, link=link), expected
        )

    def test_etas_unreachable_is_minus_one(self):
        disconnected = Digraph(3, [(0, 1)])
        router = make_router(disconnected, "dense")
        etas = router.etas(np.array([0]), np.array([2]))
        np.testing.assert_array_equal(etas, [-1.0])


#: Every router kind over every graph it routes: the closed form over its
#: families, the whole and the on-demand (``lru``) table over all of them.
PATH_CASES = [
    (graph, kind)
    for graphs, kinds in (
        (CLOSED_FORM_GRAPHS, ("dense", "closed-form", "lru")),
        (TABLE_EXTRA_GRAPHS, ("dense", "lru")),
    )
    for graph in graphs
    for kind in kinds
]


def sampled_pairs(n):
    """Every pair up to 256 vertices, else 4096 random pairs and the first
    64 diagonal ones."""
    if n <= 256:
        return all_pairs(n)
    rng = np.random.default_rng(n)
    diagonal = np.arange(64)
    return (
        np.concatenate((rng.integers(n, size=4096), diagonal)),
        np.concatenate((rng.integers(n, size=4096), diagonal)),
    )


class TestPathsParity:
    """``path_lengths`` and ``paths`` of every router kind equal the
    base-class walk over its ``next_hops``, hop count for hop count and
    vertex for vertex, on both kernel backends — diagonal pairs
    (zero hops) and unreachable ones (``-1``, no vertices) included."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "graph, kind", PATH_CASES, ids=lambda c: getattr(c, "name", c) or "irregular"
    )
    def test_paths_and_lengths_match_the_generic_walk(
        self, graph, kind, backend, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNELS", backend)
        router = build_router(monkeypatch, graph, kind)
        sources, targets = sampled_pairs(graph.num_vertices)
        expected = Router.paths(router, sources, targets)
        got = router.paths(sources, targets)
        for want, have in zip(expected, got):
            assert have.dtype == np.int64
            assert have.tobytes() == want.tobytes()
        assert router.path_lengths(sources, targets).tobytes() == expected[0].tobytes()
        assert np.any(sources == targets)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["closed-form", "dense", "lru"])
    @pytest.mark.parametrize("graph", [de_bruijn(2, 4), kautz(2, 3)], ids=["B", "K"])
    @pytest.mark.parametrize("source, target", [(0, "n"), ("n", 1), (-1, 1), (2, -3)])
    def test_pairs_outside_the_topology_are_refused(
        self, graph, kind, source, target, backend, monkeypatch
    ):
        # the formula would count hops for any codes, and a negative index
        # would wrap to vertex n - 1 in a lookup; B is identity-relabelled
        monkeypatch.setenv("REPRO_KERNELS", backend)
        router = build_router(monkeypatch, graph, kind)
        n = router.num_vertices()
        pair = [n if end == "n" else end for end in (source, target)]
        sources, targets = np.array([0, pair[0]]), np.array([1, pair[1]])
        calls = [router.paths]
        if kind == "closed-form":
            calls += [router.path_lengths, router.next_hops]
        for call in calls:
            with pytest.raises(IndexError, match=rf"pair \({pair[0]}, {pair[1]}\) is outside"):
                call(sources, targets)

    def test_generic_walk_cuts_paths_at_their_hop_counts(self, monkeypatch):
        # the oracle itself: full_path per pair, None as no vertices
        graph = h_digraph(4, 16, 2)  # not strongly connected
        router = build_router(monkeypatch, graph, "dense")
        sources, targets = all_pairs(graph.num_vertices)
        lengths, offsets, vertices = Router.paths(router, sources, targets)
        assert np.any(lengths < 0) and np.any(lengths == 0)
        for i, (s, t) in enumerate(zip(sources.tolist(), targets.tolist())):
            path = router.full_path(s, t)
            assert vertices[offsets[i] : offsets[i + 1]].tolist() == (path or [])
            assert lengths[i] == (-1 if path is None else len(path) - 1)

    def test_closed_form_route_args_are_built_once_and_survive_pickle(self, monkeypatch):
        import pickle

        built = []
        real = routers.route_args
        monkeypatch.setattr(routers, "route_args", lambda *a: built.append(a) or real(*a))
        router = ClosedFormRouter.for_graph(kautz(2, 4))
        sources, targets = all_pairs(router.num_vertices())
        hops = router.next_hops(sources, targets)
        paths = router.paths(sources, targets)
        assert len(built) == 1
        clone = pickle.loads(pickle.dumps(router))
        assert len(built) == 2  # the clone's own, in its own arrays
        assert clone.next_hops(sources, targets).tobytes() == hops.tobytes()
        for want, have in zip(paths, clone.paths(sources, targets)):
            assert have.tobytes() == want.tobytes()


class TestRouterThreadSafety:
    """The on-demand table router shared between threads.

    Concurrent calls fill columns while others read and empty the store; a
    full store is replaced, never overwritten, so a call never reads a
    column another call refilled for a different target.  Any thread mix
    must stay bit-identical to the dense table.
    """

    def test_threaded_on_demand_table_matches_dense_under_eviction_pressure(
        self, monkeypatch
    ):
        graph = h_digraph(4, 8, 2)
        table = build_routing_table(graph)
        router = on_demand(monkeypatch, graph, 4)  # constant emptying
        n = graph.num_vertices
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                sources = rng.integers(n, size=32)
                targets = rng.choice(n, 3)[rng.integers(3, size=32)]
                got = router.next_hops(sources, targets)
                expected = table.next_hop[sources, targets]
                if not np.array_equal(got, expected):
                    errors.append((sources, targets, got, expected))
                s, t = int(sources[0]), int(rng.integers(n))
                if router.next_hop(s, t) != table.next_hop[s, t]:
                    errors.append((s, t))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, f"table router raced: {len(errors)} mismatching calls"

    def test_table_router_survives_pickle(self, monkeypatch):
        import pickle

        graph = de_bruijn(2, 4)
        for router in (DenseTableRouter(graph), on_demand(monkeypatch, graph, 3)):
            router.next_hop(0, 5)  # fill a column so state round-trips
            clone = pickle.loads(pickle.dumps(router))
            for s, t in ((1, 9), (0, 5), (7, 2), (3, 3)):
                assert clone.next_hop(s, t) == router.next_hop(s, t)


def layout_valid_h_splits(max_n):
    """``(p, q, d)`` of every ``H(d^p', d^q', d)`` with a de Bruijn OTIS
    layout (Corollary 4.2) and at most ``max_n`` vertices."""
    from repro.core.checks import is_otis_layout_of_de_bruijn

    splits = []
    for d in range(2, 9):
        for p_prime in range(1, 13):
            for q_prime in range(1, 13):
                if d ** (p_prime + q_prime - 1) > max_n:
                    continue
                if is_otis_layout_of_de_bruijn(d, p_prime, q_prime):
                    splits.append((d**p_prime, d**q_prime, d))
    return splits


def test_closed_form_hops_lower_the_bfs_distance_by_one():
    """Every layout-valid H(p, q, d) with n <= 4096: each closed-form hop is
    an arc one BFS step closer to its target.

    All pairs up to n = 512; above that, every target from 32 sources
    spread over the vertex range.  (Together with the exact arc check of
    ``for_graph`` — H is the relabelled B(d, D) arc for arc — that covers
    the rest: the relabelling preserves distances.)
    """
    from repro.graphs.apsp import subset_distance_rows

    splits = layout_valid_h_splits(4096)
    assert len(splits) > 100
    for p, q, d in splits:
        graph = h_digraph(p, q, d)
        router = ClosedFormRouter.for_graph(graph)
        n = graph.num_vertices
        succ = graph.successor_matrix()
        sources = (
            np.arange(n) if n <= 512 else np.unique(np.linspace(0, n - 1, 32).astype(np.int64))
        )
        rows_for = np.unique(np.concatenate((sources, succ[sources].ravel())))
        dist = subset_distance_rows(graph, rows_for)
        row_of = np.full(n, -1, dtype=np.int64)
        row_of[rows_for] = np.arange(rows_for.size)
        source = np.repeat(sources, n)
        target = np.tile(np.arange(n), sources.size)
        off = source != target
        source, target = source[off], target[off]
        hop = router.next_hops(source, target)
        assert np.all((succ[source] == hop[:, None]).any(axis=1)), (p, q, d)
        here = dist[row_of[source], target]
        there = dist[row_of[hop], target]
        assert np.array_equal(there, here - 1), (p, q, d)


class WrappingRouter(Router):
    """A router known only by another router's scalar and vector next hops:
    every derived query takes the base-class walks."""

    kind = "wrapping"

    def __init__(self, inner):
        self.inner = inner

    def next_hop(self, source, target):
        return self.inner.next_hop(source, target)

    def next_hops(self, sources, targets):
        return self.inner.next_hops(sources, targets)

    def num_vertices(self):
        return self.inner.num_vertices()


def range_router(graph, kind):
    """A router of ``kind``: ``dense``, ``closed-form``, ``on-demand`` (a
    store of three columns) or ``wrapping`` (around the whole table)."""
    if kind == "wrapping":
        return WrappingRouter(DenseTableRouter(graph))
    if kind == "on-demand":
        with pytest.MonkeyPatch.context() as monkeypatch:
            return on_demand(monkeypatch, graph, 3)
    return make_router(graph, kind)


class TestEveryMethodRefusesOutsidePairs:
    """Every public router method, on every router kind and both backends,
    with pairs drawn from ``[-n, 2n)``: a batch of pairs inside the
    topology gets the answer of the :meth:`Router.paths` walk over the
    whole table, and a batch holding a pair outside it raises
    ``IndexError`` naming its first such pair — no negative vertex wraps."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["dense", "closed-form", "on-demand", "wrapping"])
    @pytest.mark.parametrize("graph", [de_bruijn(2, 4), kautz(2, 3)], ids=["B", "K"])
    def test_answer_equals_the_walk_or_names_the_pair(self, graph, kind, backend):
        n = graph.num_vertices
        oracle = DenseTableRouter(graph)
        per_hop = 1.0 + 1.0
        from repro.simulation.network import LinkModel

        link = LinkModel(latency=1.0, transmission_time=1.0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("REPRO_KERNELS", backend)
            router = range_router(graph, kind)
            self.check(router, oracle, n, link, per_hop)

    @staticmethod
    def check(router, oracle, n, link, per_hop):
        @settings(max_examples=60, deadline=None)
        @given(st.lists(st.tuples(st.integers(-n, 2 * n - 1), st.integers(-n, 2 * n - 1)), max_size=6))
        def run(pairs):
            sources = np.array([s for s, _ in pairs], dtype=np.int64)
            targets = np.array([t for _, t in pairs], dtype=np.int64)
            outside = [(s, t) for s, t in pairs if not (0 <= s < n and 0 <= t < n)]
            if outside:
                pattern = rf"pair \({outside[0][0]}, {outside[0][1]}\) is outside"
                for method in (router.next_hops, router.path_lengths, router.paths):
                    with pytest.raises(IndexError, match=pattern):
                        method(sources, targets)
                with pytest.raises(IndexError, match=pattern):
                    router.etas(sources, targets, link=link)
                for s, t in outside:
                    pattern = rf"pair \({s}, {t}\) is outside"
                    for method in (router.next_hop, router.full_path):
                        with pytest.raises(IndexError, match=pattern):
                            method(s, t)
                return
            lengths, offsets, vertices = Router.paths(oracle, sources, targets)
            paths = [
                vertices[offsets[i] : offsets[i + 1]].tolist() or None
                for i in range(len(pairs))
            ]
            hops = [
                -1 if path is None else path[min(1, len(path) - 1)] for path in paths
            ]
            got = router.paths(sources, targets)
            for want, have in zip((lengths, offsets, vertices), got):
                assert have.tobytes() == want.tobytes()
            assert router.next_hops(sources, targets).tolist() == hops
            assert router.path_lengths(sources, targets).tolist() == lengths.tolist()
            etas = np.where(lengths < 0, -1.0, lengths * per_hop)
            assert router.etas(sources, targets, link=link).tobytes() == etas.tobytes()
            for (s, t), hop, path in zip(pairs, hops, paths):
                assert router.next_hop(s, t) == hop
                assert router.full_path(s, t) == path

        run()
