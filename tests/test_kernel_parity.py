"""Differential test layer: the compiled kernels vs. the numpy reference.

The compiled kernels (:mod:`repro.kernels`) promise results **byte-identical**
to the vectorised numpy paths — not statistically equal, not approximately
equal.  This suite is the proof obligation:

* the apsp kernels (full / subset eccentricity sweeps, subset distance
  rows) are compared against the numpy bit-sweep on exhaustively enumerated
  tiny digraphs and on hypothesis-randomised digraphs (with parallel arcs,
  self-loops, sinks and disconnected pieces), with and without the
  ``upper_bound`` early cut;
* the split screen ``screen_splits`` is compared with the numpy BFS pair
  of ``h_diameter`` (stages 1-2) on every small ``H(p, q, d)`` split, the
  Table 1 ranges and hypothesis-drawn splits, under several bounds, and
  ``run_chunk`` (screen, then the eccentricity stage for the survivors)
  with the per-split ``h_diameter`` loop on every chunk of the D = 8
  range; ``h_diameter(..., backend=...)`` itself is compared on
  hypothesis-randomised regular digraphs (degree 0-3, self-loops,
  parallel arcs, not strongly connected);
* the simulator kernels are compared against the numpy vector path on
  randomised workloads over parallel-arc topologies, zero-``T`` /
  zero-``L`` link timings (same-instant event cascades), truncated runs
  (``until`` / ``max_events``), multi-replica ``run_many`` pools, empty
  traffics, and scenario edge cases (fault at ``t=0``, ``capacity=0``) —
  checking stats and per-message records (a traced run takes the numpy
  path on every backend, so the flattened transmission trace is checked
  between that path and the reference loops);
* the degrading-scenario kernel (``run_scenario``) is compared byte for byte
  against the reference engine, workload by workload, on the compositions
  of ``tests/test_scenarios.py``, hypothesis-generated scenarios, truncated
  runs, stacked replicas and closed-form routers;
* the kernel-side event queue is checked by whole-run parity with the
  numpy path on adversarial time sequences (duplicates, ``-0.0`` vs
  ``+0.0``, truncation at every event count).

Backend under test: ``cnative``, the only kernel implementation.  Every
test that runs it carries :data:`requires_cnative`, so on a host without a C
compiler those tests report *skipped* rather than passing with nothing
compared.  The numpy reference itself is cross-checked against the scalar
event-loop engine by ``tests/test_simulation_parity.py``, closing the loop:
reference engine == numpy path == compiled kernels.
"""

import dataclasses
import functools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels.native import route_args
from repro.graphs.apsp import batched_eccentricities, subset_distance_rows
from repro.graphs.digraph import Digraph, RegularDigraph
from repro.graphs.generators import (
    de_bruijn,
    imase_itoh,
    kautz,
    reddy_raghavan_kuhl,
)
from repro.graphs.traversal import (
    bfs_distances_regular,
    reverse_bfs_distances_regular,
)
from repro.otis.h_digraph import h_digraph
from repro.otis.search import PAPER_TABLE1, candidate_splits, h_diameter
from repro.otis.sweep import ChunkManifest, SplitVerdictCache, run_chunk
from repro.routing.routers import ClosedFormRouter, DenseTableRouter, Router, next_slots
from repro.simulation.network import (
    BatchedNetworkSimulator,
    BufferedLinkModel,
    LinkModel,
    NetworkSimulator,
    validate_traffic,
)
from repro.simulation.scenarios import (
    BurstyArrivals,
    DiurnalArrivals,
    FaultEvent,
    FaultPlan,
    Scenario,
    UniformArrivals,
)
from repro.simulation.workloads import hotspot_pairs, uniform_random_pairs
# the compositions of the cross-engine scenario suite, reused as kernel inputs
from test_scenarios import GRAPH as SCENARIO_GRAPH
from test_scenarios import SCENARIOS
from test_scenarios import _scenario_strategy as scenario_strategy
from test_scenarios import WrappingRouter

#: Skips a test on a host where the compiled backend cannot be built.
requires_cnative = pytest.mark.skipif(
    "cnative" not in kernels.available_backends(), reason="no C compiler"
)


@pytest.fixture(params=[pytest.param("cnative", marks=requires_cnative)])
def backend(request):
    """The compiled kernel backend, compared against ``"numpy"``."""
    return request.param


# ---------------------------------------------------------------------- apsp


def all_tiny_digraphs():
    """Every digraph on <= 3 vertices with 0/1 arcs per ordered pair."""
    graphs = []
    for n in (1, 2, 3):
        for mask in range(1 << (n * n)):
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if (mask >> (u * n + v)) & 1
            ]
            graphs.append(Digraph(n, arcs))
    return graphs


TINY_DIGRAPHS = all_tiny_digraphs()


def assert_apsp_parity(graph, back, upper_bound=None, sources=None):
    ref = batched_eccentricities(
        graph, upper_bound, sources=sources, backend="numpy"
    )
    got = batched_eccentricities(
        graph, upper_bound, sources=sources, backend=back
    )
    assert got[0].dtype == ref[0].dtype
    assert got[0].tobytes() == ref[0].tobytes()  # byte-identical, not close
    assert got[1] == ref[1]


def test_ecc_sweep_exhaustive_tiny(backend):
    # 585 digraphs: every 0/1 adjacency on 1-3 vertices, including the
    # empty digraph, all-loops, sinks, sources and disconnected pieces.
    for graph in TINY_DIGRAPHS:
        assert_apsp_parity(graph, backend)
        assert_apsp_parity(graph, backend, upper_bound=0)
        assert_apsp_parity(graph, backend, upper_bound=1)


def test_subset_sweeps_exhaustive_tiny(backend):
    for graph in TINY_DIGRAPHS:
        n = graph.num_vertices
        sources = list(range(n))
        assert_apsp_parity(graph, backend, sources=sources)
        ref = subset_distance_rows(graph, sources, backend="numpy")
        got = subset_distance_rows(graph, sources, backend=backend)
        assert got.tobytes() == ref.tobytes()


@st.composite
def digraphs(draw, max_n=40):
    """Random digraphs: parallel arcs, self-loops, sinks all possible."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    num_arcs = draw(st.integers(min_value=0, max_value=3 * n))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=num_arcs,
            max_size=num_arcs,
        )
    )
    return Digraph(n, arcs)


@requires_cnative
@settings(max_examples=30, deadline=None)
@given(graph=digraphs(), data=st.data())
def test_ecc_sweep_randomised(graph, data):
    n = graph.num_vertices
    ub = data.draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=n + 1))
    )
    k = data.draw(st.integers(min_value=1, max_value=n))
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    assert_apsp_parity(graph, "cnative", upper_bound=ub)
    assert_apsp_parity(graph, "cnative", upper_bound=ub, sources=sources)
    ref = subset_distance_rows(graph, sources, backend="numpy")
    got = subset_distance_rows(graph, sources, backend="cnative")
    assert got.tobytes() == ref.tobytes()


def test_h_diameter_sized_sweep(backend):
    # One realistic topology end to end (64-word boundary: n = 64 for
    # H(1,4,2)'s line digraph would be ideal; H(4,8,2) has n=32, H(2,8,4)
    # n=64 exercising an exact word boundary).
    for graph in (h_digraph(4, 8, 2), h_digraph(2, 8, 4)):
        assert_apsp_parity(graph, backend)
        assert_apsp_parity(graph, backend, upper_bound=3)


def assert_slot_parity(graph, back):
    """The compiled ``slot_columns`` equals the numpy derivation byte for
    byte on every distance-to-target column of ``graph``."""
    succ = DenseTableRouter(graph).successors
    n = graph.num_vertices
    rows = subset_distance_rows(succ, np.arange(n), predecessors=succ, backend="numpy")
    slot = np.empty(rows.shape, dtype=np.uint8)
    kernels.get_kernels(back).slot_columns(succ, rows, slot)
    assert slot.tobytes() == next_slots(succ, rows).tobytes()


def test_slot_columns_exhaustive_tiny(backend):
    # every 0/1 adjacency on 1-3 vertices (sinks, loops, disconnected
    # pieces), plus a disconnected H and parallel arcs
    for graph in TINY_DIGRAPHS + [h_digraph(4, 16, 2), h_digraph(2, 8, 4), DOUBLED_B24]:
        assert_slot_parity(graph, backend)


@requires_cnative
@settings(max_examples=30, deadline=None)
@given(graph=digraphs())
def test_slot_columns_randomised(graph):
    assert_slot_parity(graph, "cnative")


# ----------------------------------------------------------- split screen


def bfs_pair(graph):
    """Stages 1-2 of ``h_diameter``: the numpy forward and reverse BFS."""
    return bfs_distances_regular(graph, 0), reverse_bfs_distances_regular(graph, 0)


def pair_status(pair, n, bound):
    """The ``screen_splits`` status the numpy BFS pair implies, in its
    exit order: unreachable (-1) before over the bound (1), forward first."""
    limit = n if bound is None else min(bound, n)
    for dist in pair:
        if np.any(dist < 0):
            return -1
        if int(dist.max()) > limit:
            return 1
    return 0


def screen(back, splits, d, bound):
    status = kernels.get_kernels(back).screen_splits(
        [p for p, _ in splits], [q for _, q in splits], d, bound
    )
    assert status.dtype == np.int64 and status.shape == (len(splits),)
    return status.tolist()


def assert_screen_parity(graph, back, upper_bound):
    ref = h_diameter(graph, upper_bound, backend="numpy")
    assert h_diameter(graph, upper_bound, backend=back) == ref
    return ref


def test_h_diameter_screen_every_split(backend):
    # Every split H(p, q, d), d = 1..5, on up to 200 vertices: the kernel's
    # status against the numpy BFS pair under no bound and bounds that cut
    # in stage 1 or 2, and against the per-split numpy h_diameter under its
    # exact diameter (every strongly connected split passes the screen).
    for d in range(1, 6):
        splits = [(p, q) for n in range(1, 201) for p, q in candidate_splits(n, d)]
        graphs = [h_digraph(p, q, d) for p, q in splits]
        pairs = [bfs_pair(graph) for graph in graphs]
        for bound in (None, 0, 2):
            assert screen(backend, splits, d, bound) == [
                pair_status(pair, graph.num_vertices, bound)
                for pair, graph in zip(pairs, graphs)
            ], (d, bound)
        exact = [h_diameter(graph, backend="numpy") for graph in graphs]
        assert [h_diameter(graph, backend=backend) for graph in graphs] == exact
        assert screen(backend, splits, d, None) == [
            -1 if value < 0 else 0 for value in exact
        ]
        for value in set(exact) - {-1}:
            chosen = [split for split, e in zip(splits, exact) if e == value]
            assert screen(backend, chosen, d, value) == [0] * len(chosen)


@st.composite
def regular_digraphs(draw, max_n=40):
    """Random ``d``-regular successor matrices, ``d`` in 0..3: self-loops,
    parallel arcs and digraphs that are not strongly connected included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.integers(min_value=0, max_value=3))
    heads = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=n * d,
            max_size=n * d,
        )
    )
    return RegularDigraph(np.array(heads, dtype=np.int64).reshape(n, d))


@requires_cnative
@settings(max_examples=60, deadline=None)
@given(graph=regular_digraphs(), data=st.data())
def test_h_diameter_screen_randomised(graph, data):
    ub = data.draw(
        st.one_of(
            st.none(), st.integers(min_value=0, max_value=graph.num_vertices + 1)
        )
    )
    assert_screen_parity(graph, "cnative", ub)


@pytest.mark.parametrize("diameter", [8, 9, 10])
def test_screen_splits_table1_ranges(backend, diameter):
    # Every split of the printed Table 1 range, screened as the sweep does.
    n_min, n_max = PAPER_TABLE1[diameter][0][0], PAPER_TABLE1[diameter][-1][0]
    splits = [
        (p, q) for n in range(n_min, n_max + 1) for p, q in candidate_splits(n, 2)
    ]
    expected = []
    for p, q in splits:
        graph = h_digraph(p, q, 2)
        expected.append(pair_status(bfs_pair(graph), graph.num_vertices, diameter))
    assert screen(backend, splits, 2, diameter) == expected


@requires_cnative
@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=48),
    q=st.integers(min_value=1, max_value=48),
    data=st.data(),
)
def test_screen_splits_randomised(p, q, data):
    d = data.draw(st.sampled_from([k for k in range(1, 7) if (p * q) % k == 0]))
    graph = h_digraph(p, q, d)
    n = graph.num_vertices
    bound = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n + 1)))
    assert screen("cnative", [(p, q)], d, bound) == [pair_status(bfs_pair(graph), n, bound)]


def test_screen_splits_kernel_corners(backend):
    for d in (1, 2, 3):
        # n = 1: trivially strongly connected under every bound
        assert screen(backend, [(1, d)], d, 0) == [0]
        assert screen(backend, [(1, d)], d, None) == [0]
    # H(1, 2, 1) is the 2-cycle: eccentricity 1 both ways
    assert screen(backend, [(1, 2)], 1, 0) == [1]
    assert screen(backend, [(1, 2)], 1, 1) == [0]
    # H(8, 64, 2) is disconnected: unreachable wins over the bound
    assert screen(backend, [(8, 64)], 2, 0) == [-1]
    # H(2, 11, 2): vertex 0 reaches everything within 3 steps, but some
    # vertex needs 4 to reach it, so only the reverse BFS rejects bound 3
    forward, reverse = bfs_pair(h_digraph(2, 11, 2))
    assert (int(forward.max()), int(reverse.max())) == (3, 4)
    assert screen(backend, [(2, 11)], 2, 3) == [1]
    assert screen(backend, [(2, 11)], 2, 4) == [0]
    assert screen(backend, [], 2, 3) == []
    kern = kernels.get_kernels(backend)
    bad = [
        (([0], [4], 2, 3), "p >= 1"),
        (([2], [-1], 2, 3), "q >= 1"),
        (([1], [3], 2, 3), "divide"),
        (([4], [8], 0, 3), "d >= 1"),
        (([4], [8], 2, -1), "upper_bound >= 0"),
        (([4, 2], [8], 2, 3), "equal length"),
        (([1 << 16], [1 << 15], 1, 3), "2\\*\\*31"),  # n = 2**31: int32 ids overflow
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            kern.screen_splits(*args)


@requires_cnative
def test_h_diameter_screen_threads_do_not_share_workspace():
    # Compiled kernels run without the interpreter lock, so concurrent
    # screen_splits calls must each screen in their own workspace.
    splits = [(p, q) for n in range(200, 260) for p, q in candidate_splits(n, 2)]
    expected = []
    for p, q in splits:
        graph = h_digraph(p, q, 2)
        expected.append(pair_status(bfs_pair(graph), graph.num_vertices, 8))

    def verdicts(offset):
        order = splits[offset:] + splits[:offset]
        got = []
        for k in range(0, len(order), 7):  # many short calls interleave
            got.extend(screen("cnative", order[k:k + 7], 2, 8))
        return got[len(splits) - offset:] + got[: len(splits) - offset]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(verdicts, 37 * k) for k in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for got in results:
        assert got == expected


@pytest.mark.parametrize("shared_cache", [False, True])
def test_run_chunk_matches_numpy_on_every_d8_chunk(
    backend, shared_cache, monkeypatch, tmp_path
):
    # The sweep path (one screen per chunk, stage 3 for its survivors)
    # against the per-split h_diameter loop, chunk by chunk, on the full
    # D = 8 range: byte-identical records, and with a shared cache the same
    # hit/miss ledger and the same set of cache file lines.
    manifest = ChunkManifest.build(2, 8, range(253, 385), code_version="parity")
    outputs = {}
    for back in ("numpy", backend):
        monkeypatch.setenv(kernels.ENV_VAR, back)
        cache = (
            SplitVerdictCache(tmp_path / back, 2, 8, version="parity")
            if shared_cache
            else None
        )
        # every chunk twice, so a shared cache is read warm as well as cold
        records = [
            json.dumps(run_chunk(2, 8, chunk.items, cache))
            for _ in range(2)
            for chunk in manifest.chunks
        ]
        ledger = None
        if cache is not None:
            ledger = (cache.hits, cache.misses, set(cache.path.read_text().splitlines()))
        outputs[back] = (records, ledger)
    assert outputs[backend] == outputs["numpy"]
    if shared_cache:
        hits, misses, lines = outputs["numpy"][1]
        assert hits == misses == len(lines) == 705


def test_h_diameter_n1_every_backend(backend):
    for d in (0, 1, 2):
        graph = RegularDigraph(np.zeros((1, d), dtype=np.int64))
        for bound in (None, 0, 3):
            assert assert_screen_parity(graph, backend, bound) == 0


# ----------------------------------------------------------------- simulator


def simulator(graph, back, **kwargs):
    return BatchedNetworkSimulator(graph, kernels=back, **kwargs)


def assert_messages_equal(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.ident == r.ident
        assert g.source == r.source
        assert g.destination == r.destination
        assert g.creation_time == r.creation_time
        assert g.hops == r.hops
        assert g.drop_reason == r.drop_reason
        if math.isnan(r.arrival_time):
            assert math.isnan(g.arrival_time)
        else:
            assert g.arrival_time == r.arrival_time  # exact, not approx


def flat_trace(trace):
    """Flatten per-batch trace triples to one (link, start, mover) list."""
    return [
        (int(l), float(s), int(m))
        for links, starts, movers in trace
        for l, s, m in zip(links, starts, movers)
    ]


def assert_sim_parity(graph, traffics, back, link=None, scenario=None, **kw):
    ref_trace, got_trace = [], []
    ref = simulator(graph, "numpy", link=link, scenario=scenario).run_many(
        traffics, trace=ref_trace, **kw
    )
    sim = simulator(graph, back, link=link, scenario=scenario)
    for got in (sim.run_many(traffics, **kw), sim.run_many(traffics, trace=got_trace, **kw)):
        assert len(got) == len(ref)
        for (got_stats, got_msgs), (ref_stats, ref_msgs) in zip(got, ref):
            assert got_stats == ref_stats
            if ref_msgs is None:
                assert got_msgs is None
            else:
                assert_messages_equal(got_msgs, ref_msgs)
    assert flat_trace(got_trace) == flat_trace(ref_trace)
    return ref


PARITY_LINKS = [
    LinkModel(latency=1.0, transmission_time=1.0),
    LinkModel(latency=0.7, transmission_time=0.3),
    LinkModel(latency=1.0, transmission_time=0.0),
    LinkModel(latency=0.0, transmission_time=0.0),
]

# H(1,4,2) and H(2,8,4) are multigraphs (parallel optical channels), where
# the earliest-free-link greedy is subtlest.
PARITY_GRAPHS = [h_digraph(1, 4, 2), h_digraph(2, 8, 4), h_digraph(4, 8, 2)]


@pytest.mark.parametrize("link", PARITY_LINKS, ids=lambda l: f"T{l.transmission_time}_L{l.latency}")
def test_sim_parity_workloads(backend, link):
    for graph in PARITY_GRAPHS:
        n = graph.num_vertices
        traffic = uniform_random_pairs(n, 50, rng=3)
        stats = assert_sim_parity(graph, [traffic], backend, link=link)
        assert stats[0][0].delivered == 50


def test_sim_parity_multi_replica_and_empty(backend):
    graph = h_digraph(2, 8, 4)
    n = graph.num_vertices
    traffics = [
        uniform_random_pairs(n, 30, rng=0),
        [],  # empty replica pooled with busy ones
        uniform_random_pairs(n, 45, rng=1),
    ]
    assert_sim_parity(graph, traffics, backend)
    assert_sim_parity(graph, [[]], backend)  # nothing scheduled at all


def test_sim_parity_truncated_runs(backend):
    graph = h_digraph(4, 8, 2)
    n = graph.num_vertices
    traffic = uniform_random_pairs(n, 60, rng=5)
    assert_sim_parity(graph, [traffic], backend, until=3.0)
    assert_sim_parity(graph, [traffic], backend, max_events=37)
    assert_sim_parity(graph, [traffic], backend, until=2.5, max_events=111)
    assert_sim_parity(graph, [traffic], backend, max_events=0)


def test_sim_parity_unreachable_drops(backend):
    # A sink vertex: messages to it from elsewhere are dropped by the
    # router (next hop -1) — the no-route branch of the kernel.
    graph = Digraph(3, [(0, 1), (1, 0), (0, 2), (1, 2)])  # 2 has no out-arcs
    traffic = [(2, 0, 0.0), (0, 2, 0.0), (1, 2, 0.5), (0, 1, 0.5)]
    assert_sim_parity(graph, [traffic], backend)


def test_sim_parity_same_instant_cascades(backend):
    # T=0, L=0: every forward lands back in the queue at the *same*
    # timestamp — the re-push-into-the-current-bucket path of the queue,
    # plus -0.0 creation times (the float bit pattern differs from +0.0
    # but the queue must treat them as one time, like the reference dict).
    graph = h_digraph(1, 4, 2)
    n = graph.num_vertices
    link = LinkModel(latency=0.0, transmission_time=0.0)
    traffic = [(i % n, (i * 3 + 1) % n, -0.0 if i % 2 else 0.0) for i in range(20)]
    assert_sim_parity(graph, [traffic], backend, link=link)
    assert_sim_parity(graph, [traffic], backend, link=link, max_events=7)


@requires_cnative
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sim_parity_randomised(data):
    graph = data.draw(st.sampled_from(PARITY_GRAPHS))
    n = graph.num_vertices
    count = data.draw(st.integers(min_value=0, max_value=40))
    traffic = [
        (
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(
                st.floats(
                    min_value=0.0, max_value=4.0, allow_nan=False, width=32
                )
            ),
        )
        for _ in range(count)
    ]
    link = data.draw(st.sampled_from(PARITY_LINKS))
    until = data.draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=6.0)))
    assert_sim_parity(graph, [traffic], "cnative", link=link, until=until)


# ------------------------------------------------------------------ scenarios


def test_scenario_fault_at_t0_runs_reference_loop(backend):
    # A degrading scenario (fault at t=0) with a dense router runs the
    # run_scenario kernel, and the simulator reports the backend that runs
    # it.  A trace (as assert_sim_parity asks for) runs the scalar
    # scenario loop on both sides; the untraced kernel pass is compared in
    # the run_scenario section below.
    graph = h_digraph(4, 8, 2)
    scenario = Scenario(
        arrivals=UniformArrivals(30),
        faults=FaultPlan.random_link_failures(graph, 5, at=0.0, seed=2),
    )
    sim = simulator(graph, backend, scenario=scenario)
    assert sim.kernel_backend == backend
    traffic = scenario.traffic(graph.num_vertices, rng=0)
    assert_sim_parity(graph, [traffic], backend, scenario=scenario)


def test_scenario_capacity_zero_runs_reference_loop(backend):
    graph = h_digraph(1, 4, 2)
    scenario = Scenario(
        arrivals=UniformArrivals(20),
        link=BufferedLinkModel(capacity=0),
    )
    sim = simulator(graph, backend, scenario=scenario)
    assert sim.kernel_backend == backend
    traffic = scenario.traffic(graph.num_vertices, rng=1)
    assert_sim_parity(graph, [traffic], backend, scenario=scenario)


def test_scenario_arrival_only_uses_kernels(backend):
    # Arrival-only scenarios keep the base-model fast path — on a kernel
    # backend that IS the kernel path, and results must still match numpy.
    graph = h_digraph(2, 8, 4)
    scenario = Scenario(arrivals=UniformArrivals(40, rate=2.0))
    sim = simulator(graph, backend, scenario=scenario)
    assert sim.kernel_backend == backend
    traffic = scenario.traffic(graph.num_vertices, rng=4)
    assert_sim_parity(graph, [traffic], backend, scenario=scenario)


# ------------------------------------------------------- event queue, whole run


@requires_cnative
@settings(max_examples=25, deadline=None)
@given(
    times=st.lists(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        min_size=1,
        max_size=24,
    ),
)
def test_queue_pop_order_matches_reference(times):
    """The kernel queue pops like BatchEventQueue: runs cut after every
    event count equal the numpy path's and the reference engine's.

    Messages created at equal times contend for the same links, so a
    wrong insertion order, a ``-0.0`` bucket apart from ``+0.0`` or a
    limit that drops or repeats events changes the results.
    """
    graph = de_bruijn(2, 2)
    traffic = [(i % 4, (3 * i + 1) % 4, t) for i, t in enumerate(times)]
    for link in (LinkModel(latency=0.5, transmission_time=0.5), PARITY_LINKS[3]):
        engine = NetworkSimulator(graph, link=link)
        for max_events in range(len(times) + 1):
            fused, reference = fused_runs(
                graph, None, "cnative", [traffic], link, max_events=max_events
            )
            assert result_bytes(fused) == result_bytes(reference)
            solo = [engine.run(traffic, max_events=max_events)]
            assert result_bytes(fused) == result_bytes(solo)


# ------------------------------------------------- closed-form routing kernel


def closed_form_graphs():
    """Every closed-form family, power-of-two and other word bases alike:
    identity codes (B, RRK), relabelled (II, H) and sorted Kautz codes."""
    return [
        de_bruijn(2, 3),
        de_bruijn(3, 4),
        de_bruijn(2, 8),
        reddy_raghavan_kuhl(2, 16),
        reddy_raghavan_kuhl(3, 27),
        imase_itoh(2, 32),
        imase_itoh(3, 81),
        kautz(2, 4),
        kautz(3, 3),
        kautz(2, 8),
        h_digraph(4, 8, 2),
        h_digraph(9, 27, 3),
        h_digraph(32, 64, 2),
        h_digraph(64, 128, 2),
        de_bruijn(2, 12),
        kautz(3, 6),
    ]


def numpy_next_hops(monkeypatch, router, sources, targets):
    """``router.next_hops`` on the numpy path (``shift_route_next_hops``)."""
    with monkeypatch.context() as patched:
        patched.setenv(kernels.ENV_VAR, "numpy")
        return router.next_hops(sources, targets)


def kernel_next_hops(router, sources, targets):
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    out = np.full(sources.size, -7, dtype=np.int64)
    bad = kernels.get_kernels("cnative").shift_next_hops(
        sources, targets, sources.size, route_args(*router.shift_spec()), out
    )
    assert bad == -1
    return out


def pair_block(n, sources):
    """Every (source, target) pair for the given sources."""
    sources = np.asarray(sources, dtype=np.int64)
    return np.repeat(sources, n), np.tile(np.arange(n, dtype=np.int64), sources.size)


@requires_cnative
@pytest.mark.parametrize("graph", closed_form_graphs(), ids=lambda g: g.name)
def test_shift_next_hops_matches_numpy(graph, monkeypatch):
    # All pairs up to n = 1024, 64 sources x all targets on the n = 4096
    # graphs.
    router = ClosedFormRouter.for_graph(graph)
    n = graph.num_vertices
    rows = range(n) if n <= 1024 else np.linspace(0, n - 1, 64).astype(np.int64)
    sources, targets = pair_block(n, rows)
    ref = numpy_next_hops(monkeypatch, router, sources, targets)
    got = kernel_next_hops(router, sources, targets)
    assert got.tobytes() == ref.tobytes()


@functools.lru_cache(maxsize=None)
def large_router(family):
    graph = {
        "B": lambda: de_bruijn(2, 17),
        "K": lambda: kautz(3, 9),
        "II": lambda: imase_itoh(3, 3**9),
        "H": lambda: h_digraph(128, 512, 2),
    }[family]()
    return ClosedFormRouter.for_graph(graph)


@requires_cnative
@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["B", "K", "II", "H"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_shift_next_hops_sampled_large(family, seed):
    # Graphs past 4096 vertices (n up to 2^17), sampled pairs, including the
    # diagonal and the relabelled / sorted decodes.
    router = large_router(family)
    n = router.num_vertices()
    rng = np.random.default_rng(seed)
    sources = rng.integers(n, size=512)
    targets = np.concatenate((rng.integers(n, size=511), sources[-1:]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        ref = numpy_next_hops(monkeypatch, router, sources, targets)
    got = kernel_next_hops(router, sources, targets)
    assert got.tobytes() == ref.tobytes()


@requires_cnative
def test_shift_next_hops_reports_out_of_range_pairs():
    router = ClosedFormRouter.for_graph(h_digraph(4, 8, 2))  # 16 vertices
    out = np.empty(3, dtype=np.int64)
    cur = np.array([1, 16, 2], dtype=np.int64)
    tgt = np.array([3, 4, -1], dtype=np.int64)
    bad = kernels.get_kernels("cnative").shift_next_hops(
        cur, tgt, 3, route_args(*router.shift_spec()), out
    )
    assert bad == 1  # the first pair naming a vertex past the relabelling


def test_closed_form_router_dispatches_on_the_backend(monkeypatch):
    # Compiled backends route through shift_next_hops; REPRO_KERNELS=numpy
    # through shift_route_next_hops — with the same answers and shapes.
    router = ClosedFormRouter.for_graph(kautz(2, 5))
    n = router.num_vertices()
    sources, targets = pair_block(n, range(n))
    ref = numpy_next_hops(monkeypatch, router, sources, targets)
    got = router.next_hops(sources, targets)
    assert got.tobytes() == ref.tobytes()
    # broadcasting and 0-d inputs behave like the numpy path
    np.testing.assert_array_equal(
        router.next_hops(np.arange(n), 5),
        numpy_next_hops(monkeypatch, router, np.arange(n), 5),
    )
    assert router.next_hops(3, 7) == numpy_next_hops(monkeypatch, router, 3, 7)
    if kernels.active_backend() != "numpy":
        with pytest.raises(IndexError):
            router.next_hops(np.array([0, n]), np.array([1, 2]))


# ------------------------------------------------------- fused round loop


def result_bytes(results):
    """Byte-level digest of ``run_many`` results: every stats field (floats
    as hex) and every message record."""
    rows = []
    for stats, messages in results:
        rows.append(
            json.dumps(
                {
                    k: (v.hex() if isinstance(v, float) else v)
                    for k, v in dataclasses.asdict(stats).items()
                },
                sort_keys=True,
            )
        )
        for m in messages or ():
            rows.append(
                repr(
                    (m.ident, m.source, m.destination, m.creation_time.hex(),
                     m.arrival_time.hex(), m.hops, m.drop_reason)
                )
            )
    return "\n".join(rows).encode()


def fused_runs(graph, router, back, traffics, link=None, **kw):
    """``(fused, numpy)`` results of one workload: the ``run_rounds``
    kernel and the numpy vector path."""
    fused = BatchedNetworkSimulator(graph, link=link, router=router, kernels=back)
    assert fused.kernel_backend == back  # the kernel, not the numpy path
    reference = BatchedNetworkSimulator(graph, link=link, router=router, kernels="numpy")
    return fused.run_many(traffics, **kw), reference.run_many(traffics, **kw)


def assert_fused_parity(graph, router, back, traffics, link=None, **kw):
    """The fused loop equals the numpy path byte for byte, and the
    reference engine workload by workload (``max_events`` counts the
    events of the whole pool, so that check needs a single workload)."""
    fused, reference = fused_runs(graph, router, back, traffics, link, **kw)
    assert result_bytes(fused) == result_bytes(reference)
    if len(traffics) == 1 or kw.get("max_events") is None:
        engine = NetworkSimulator(graph, link=link, router=router)
        solo = [engine.run(traffic, **kw) for traffic in traffics]
        assert result_bytes(fused) == result_bytes(solo)
    return reference


def doubled_de_bruijn(d, D):
    """``B(d, D)`` with every arc doubled: parallel optical channels that
    the closed form still routes (its hops are arcs, twice over)."""
    single = de_bruijn(d, D)
    arcs = [arc for arc in single.arcs() for _ in range(2)]
    return Digraph(single.num_vertices, arcs, name=f"2xB({d},{D})")


def spy_kernel(monkeypatch, sim, name):
    """The list every call of ``sim``'s kernel ``name`` appends it to."""
    calls = []
    real = getattr(sim._kernels, name)
    spied = {**vars(sim._kernels), name: lambda *a: calls.append(name) or real(*a)}
    monkeypatch.setattr(sim, "_kernels", SimpleNamespace(**spied))
    return calls


def test_fused_loop_is_taken_for_closed_form_without_trace(backend, monkeypatch):
    graph = h_digraph(4, 8, 2)
    sim = BatchedNetworkSimulator(graph, router="closed-form", kernels=backend)
    calls = spy_kernel(monkeypatch, sim, "run_rounds")
    traffic = uniform_random_pairs(graph.num_vertices, 40, rng=2)
    sim.run(traffic)
    assert calls == ["run_rounds"]
    sim.run(traffic, trace=[])  # a trace runs the numpy path
    assert calls == ["run_rounds"]


H48 = h_digraph(4, 8, 2)
DOUBLED_B24 = doubled_de_bruijn(2, 4)


@pytest.mark.parametrize("link", PARITY_LINKS, ids=lambda l: f"T{l.transmission_time}_L{l.latency}")
def test_fused_loop_parity(backend, link):
    h927, k24 = h_digraph(9, 27, 3), kautz(2, 4)
    cases = [
        (H48, ClosedFormRouter.for_graph(H48)),
        (h927, ClosedFormRouter.for_graph(h927)),  # odd base: the divide path
        (k24, ClosedFormRouter.for_graph(k24)),  # sorted codes
        (DOUBLED_B24, ClosedFormRouter.for_de_bruijn(2, 4)),
        (H48, DenseTableRouter(H48)),
        (k24, DenseTableRouter(k24)),
        (DOUBLED_B24, DenseTableRouter(DOUBLED_B24)),
    ]
    for graph, router in cases:
        n = graph.num_vertices
        traffics = [uniform_random_pairs(n, 60, rng=seed) for seed in (3, 4)]
        stats = assert_fused_parity(graph, router, backend, traffics, link=link)
        assert all(s.delivered == 60 for s, _ in stats)
    # -1 table entries: messages into a sink drop, on both paths alike
    sink = Digraph(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    traffic = [(2, 0, 0.0), (0, 2, 0.0), (1, 2, 0.5), (0, 1, 0.5), (2, 1, 1.0)]
    ((stats, _),) = assert_fused_parity(
        sink, DenseTableRouter(sink), backend, [traffic], link=link
    )
    assert stats.delivered == 3


def test_fused_loop_truncated_runs(backend):
    cases = [
        (H48, ClosedFormRouter.for_graph(H48)),
        (H48, DenseTableRouter(H48)),
        (DOUBLED_B24, DenseTableRouter(DOUBLED_B24)),
    ]
    for graph, router in cases:
        traffic = uniform_random_pairs(graph.num_vertices, 60, rng=5)
        for kw in ({"until": 3.0}, {"max_events": 37}, {"until": 2.5, "max_events": 111},
                   {"max_events": 0}, {"until": 0.0}):
            assert_fused_parity(graph, router, backend, [traffic], **kw)
        link = LinkModel(latency=0.0, transmission_time=0.0)  # same-instant cascades
        assert_fused_parity(graph, router, backend, [traffic], link=link, max_events=7)
        assert_fused_parity(graph, router, backend, [[], traffic, []])
        assert_fused_parity(graph, router, backend, [[]])  # nothing scheduled


@requires_cnative
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fused_loop_randomised(data):
    graph = data.draw(st.sampled_from([h_digraph(4, 8, 2), kautz(2, 3)]))
    router = ClosedFormRouter.for_graph(graph)
    n = graph.num_vertices
    count = data.draw(st.integers(min_value=0, max_value=40))
    traffic = [
        (
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(st.floats(min_value=0.0, max_value=4.0, width=32)),
        )
        for _ in range(count)
    ]
    link = data.draw(st.sampled_from(PARITY_LINKS))
    until = data.draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=6.0)))
    max_events = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=80)))
    assert_fused_parity(
        graph, router, "cnative", [traffic], link=link, until=until, max_events=max_events
    )


# ------------------------------------------- degrading scenarios: run_scenario


def scenario_results(graph, scenario, back, traffics, router=None, **kw):
    """``run_many`` results of one scenario pass on backend ``back``."""
    sim = BatchedNetworkSimulator(graph, scenario=scenario, router=router, kernels=back)
    return sim.run_many(traffics, **kw)


def assert_scenario_kernel_parity(graph, scenario, back, traffics, router=None, **kw):
    """The kernel pass equals the reference engine byte for byte, workload
    by workload."""
    sim = BatchedNetworkSimulator(graph, scenario=scenario, router=router, kernels=back)
    assert sim.kernel_backend == back  # the kernel, not the scalar loop
    got = sim.run_many(traffics, **kw)
    reference = NetworkSimulator(graph, scenario=scenario, router=router)
    solo = [reference.run(traffic, **kw) for traffic in traffics]
    assert result_bytes(got) == result_bytes(solo)
    return got


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_scenario_parity_every_scenario(backend, name):
    scenario = SCENARIOS[name]
    for seed in range(3):
        traffic = scenario.traffic(SCENARIO_GRAPH.num_vertices, rng=seed)
        assert_scenario_kernel_parity(SCENARIO_GRAPH, scenario, backend, [traffic])


@requires_cnative
@settings(max_examples=40, deadline=None)
@given(scenario=scenario_strategy(), seed=st.integers(0, 2**16))
def test_run_scenario_randomised(scenario, seed):
    traffic = scenario.traffic(SCENARIO_GRAPH.num_vertices, rng=seed)
    assert_scenario_kernel_parity(SCENARIO_GRAPH, scenario, "cnative", [traffic])


@pytest.mark.parametrize(
    "run_kwargs",
    [{"max_events": 0}, {"max_events": 7}, {"max_events": 23}, {"until": 1.5}],
    ids=["ev0", "ev7", "ev23", "until"],
)
def test_run_scenario_truncated_runs(backend, run_kwargs):
    scenario = SCENARIOS["bursty-kitchen-sink"]
    traffic = scenario.traffic(SCENARIO_GRAPH.num_vertices, rng=5)
    assert_scenario_kernel_parity(SCENARIO_GRAPH, scenario, backend, [traffic], **run_kwargs)


def test_run_scenario_corner_cases(backend):
    graph = SCENARIO_GRAPH
    n = graph.num_vertices
    # faults at t=0 outrank the same-instant injections: nothing moves
    blackout = Scenario(
        arrivals=UniformArrivals(40, rate=1.0),
        faults=FaultPlan.all_links_down(graph, at=0.0),
    )
    (stats, _), = assert_scenario_kernel_parity(
        graph, blackout, backend, [blackout.traffic(n, rng=3)]
    )
    assert stats.dropped_fault == 40
    node_at_t0 = Scenario(
        arrivals=UniformArrivals(40),
        faults=FaultPlan.node_outage(2, at=0.0, heal_at=3.0),
        reroute="arc-disjoint",
    )
    assert_scenario_kernel_parity(graph, node_at_t0, backend, [node_at_t0.traffic(n, rng=4)])
    # zero-capacity buffers with retries: every message exhausts them
    zero = Scenario(
        arrivals=UniformArrivals(40, rate=1.0),
        link=BufferedLinkModel(capacity=0, on_full="retry", retry_delay=1.0, max_retries=2),
    )
    (stats, _), = assert_scenario_kernel_parity(graph, zero, backend, [zero.traffic(n, rng=3)])
    assert stats.retransmits == 80 and stats.dropped_buffer == 40
    # parallel links: a tie in free time goes to the lowest link id, which
    # decides whether the second message finds buffer room after link 0 fails
    twin = Digraph(2, arcs=[(0, 1), (0, 1), (1, 0)])
    tie = Scenario(
        link=BufferedLinkModel(capacity=1),
        faults=FaultPlan((FaultEvent(0.5, "link_down", 0),)),
    )
    (stats, _), = assert_scenario_kernel_parity(
        twin, tie, backend, [[(0, 1, 0.0), (0, 1, 0.5)]]
    )
    assert stats.delivered == 2
    # the hop TTL: a message with hops >= max_hops is dropped
    b24 = de_bruijn(2, 4)
    short_ttl = Scenario(arrivals=UniformArrivals(60, rate=2.0), max_hops=2)
    (stats, _), = assert_scenario_kernel_parity(
        b24, short_ttl, backend, [short_ttl.traffic(16, rng=1)]
    )
    assert stats.dropped_hops > 0
    # a destination unreachable in the healthy topology stays plain undelivered
    sink = Digraph(3, arcs=[(0, 1), (1, 0), (1, 2)])
    for reroute in ("none", "arc-disjoint"):
        scenario = Scenario(max_hops=10, reroute=reroute)
        (stats, messages), = assert_scenario_kernel_parity(
            sink, scenario, backend, [[(2, 0, 0.0), (0, 2, 0.0), (2, 1, 0.5)]]
        )
        assert stats.undelivered == 2 and stats.dropped_fault == 0
        assert messages[0].drop_reason is None


def test_run_scenario_reroute_ties(backend):
    # Out-degree 4: a severed primary leaves up to three candidates, often
    # at equal healthy distance — the lowest neighbour id must win, as in
    # the scalar loop's strict < over ascending neighbours.
    graph = de_bruijn(4, 3)
    n = graph.num_vertices
    for seed in range(3):
        scenario = Scenario(
            arrivals=UniformArrivals(120, rate=4.0),
            link=BufferedLinkModel(capacity=3, on_full="retry", retry_delay=0.5),
            faults=FaultPlan.random_link_failures(graph, 40, at=1.0, heal_after=8.0, seed=seed),
            reroute="arc-disjoint",
        )
        (stats, _), = assert_scenario_kernel_parity(
            graph, scenario, backend, [scenario.traffic(n, rng=seed)]
        )
        assert stats.rerouted_hops > 0


def test_run_scenario_stacked_equals_solo(backend):
    scenario = SCENARIOS["bursty-kitchen-sink"]
    n = SCENARIO_GRAPH.num_vertices
    traffics = [scenario.traffic(n, rng=seed) for seed in range(4)]
    traffics.insert(2, [])  # an empty replica pooled with busy ones
    stacked = assert_scenario_kernel_parity(SCENARIO_GRAPH, scenario, backend, traffics)
    solo = [
        scenario_results(SCENARIO_GRAPH, scenario, backend, [traffic])[0]
        for traffic in traffics
    ]
    assert result_bytes(stacked) == result_bytes(solo)


@pytest.mark.parametrize("reroute", ["none", "arc-disjoint"])
def test_run_scenario_closed_form_router(backend, reroute):
    cases = [
        (h_digraph(4, 8, 2), None),
        (kautz(2, 4), None),  # sorted codes
        (doubled_de_bruijn(2, 4), ClosedFormRouter.for_de_bruijn(2, 4)),
    ]
    for graph, router in cases:
        router = router or ClosedFormRouter.for_graph(graph)
        n = graph.num_vertices
        scenario = Scenario(
            arrivals=BurstyArrivals(60, burst_size=6, burst_rate=6.0, gap=2.0),
            link=BufferedLinkModel(capacity=2, on_full="retry"),
            faults=FaultPlan.random_link_failures(graph, 4, at=1.0, heal_after=4.0, seed=2),
            reroute=reroute,
        )
        traffics = [scenario.traffic(n, rng=seed) for seed in (1, 2)]
        for traffic in traffics:
            assert_scenario_kernel_parity(graph, scenario, backend, [traffic], router=router)
        assert_scenario_kernel_parity(graph, scenario, backend, traffics, router=router)


def test_run_scenario_is_taken_only_without_trace(backend, monkeypatch):
    scenario = SCENARIOS["fault-reroute"]
    sim = BatchedNetworkSimulator(SCENARIO_GRAPH, scenario=scenario, kernels=backend)
    calls = spy_kernel(monkeypatch, sim, "run_scenario")
    traffic = scenario.traffic(SCENARIO_GRAPH.num_vertices, rng=0)
    untraced = sim.run(traffic)
    assert calls == ["run_scenario"]
    trace = []
    traced = sim.run(traffic, trace=trace)  # a trace runs the scalar loop
    assert calls == ["run_scenario"]
    assert result_bytes([traced]) == result_bytes([untraced])
    assert len(trace) == sum(m.hops for m in traced[1])
    # a router only python calls can ask runs the scalar scenario loop or
    # the numpy path on every backend, says so, and holds no kernels
    healthy = BatchedNetworkSimulator(SCENARIO_GRAPH, kernels=backend).run(traffic)
    for back in ("numpy", backend):
        for scen, expected in ((scenario, untraced), (None, healthy)):
            wrapped = BatchedNetworkSimulator(
                SCENARIO_GRAPH, scenario=scen, router=WrappingRouter(SCENARIO_GRAPH),
                kernels=back,
            )
            assert wrapped.kernel_backend == "numpy"
            assert wrapped._kernels is None
            assert result_bytes([wrapped.run(traffic)]) == result_bytes([expected])


def test_table_routed_h_above_the_auto_threshold_runs_compiled():
    # No closed form and n > AUTO_DENSE_MAX_N: auto picks the table router,
    # which the compiled loop reads; its bytes equal the numpy path's.
    graph = h_digraph(48, 96, 2)  # n = 2304
    traffic = uniform_random_pairs(graph.num_vertices, 300, rng=4)
    sim = BatchedNetworkSimulator(graph)
    assert sim.router.kind == "dense"
    assert sim.kernel_backend == kernels.active_backend()
    reference = BatchedNetworkSimulator(graph, router=sim.router, kernels="numpy")
    assert result_bytes([sim.run(traffic)]) == result_bytes([reference.run(traffic)])


# ----------------------------------------------------- hops over non-arcs


class OffByOneRouter(Router):
    """A deliberately wrong router: the dense table's hop, plus one."""

    kind = "off-by-one"

    def __init__(self, graph):
        self._inner = DenseTableRouter(graph)

    def next_hop(self, source, target):
        hop = self._inner.next_hop(source, target)
        return hop if hop < 0 or source == target else (hop + 1) % self.num_vertices()

    def next_hops(self, sources, targets):
        return np.array(
            [self.next_hop(s, t) for s, t in zip(sources.tolist(), targets.tolist())],
            dtype=np.int64,
        )

    def num_vertices(self):
        return self._inner.num_vertices()

    def state_bytes(self):
        return self._inner.state_bytes()


NON_ARC = r"next hop from node \d+ is \d+, but \(\d+, \d+\) is not an arc"


@pytest.mark.parametrize("messages", [8, 200], ids=["scalar-batches", "vector-batches"])
def test_non_arc_hop_raises_on_numpy_path(messages):
    graph = de_bruijn(2, 4)
    router = OffByOneRouter(graph)
    traffic = [(u % 16, (u * 7 + 3) % 16, 0.0) for u in range(messages)]
    traffic = [(s, t, 0.0) for s, t, _ in traffic if s != t]
    # only the injection batch runs (scalar path for 8 events, vector path
    # for 200), so the error must come from that path — and a regression
    # that dropped the check cannot cycle forever
    first_batch = len(traffic)
    with pytest.raises(ValueError, match=NON_ARC):
        BatchedNetworkSimulator(graph, router=router, kernels="numpy").run(
            traffic, max_events=first_batch
        )
    with pytest.raises(ValueError, match=NON_ARC):
        NetworkSimulator(graph, router=router).run(traffic, max_events=first_batch)


def test_non_arc_hop_raises_on_kernel_backends(backend):
    graph = de_bruijn(2, 4)
    traffic = [(u % 16, (u * 7 + 3) % 16, 0.0) for u in range(64) if u % 16 != (u * 7 + 3) % 16]
    # a table entry naming a non-arc: the fused loop and the numpy path
    # raise the same error
    errors = []
    for back in (backend, "numpy"):
        with pytest.raises(ValueError, match=NON_ARC) as raised:
            BatchedNetworkSimulator(
                graph, router=off_by_one_dense_router(graph), kernels=back
            ).run(traffic, max_events=10_000)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    # the fused loop, with a closed form of the wrong de Bruijn digraph:
    # B(2,4) shift hops on the 16-vertex ring are not its arcs
    ring16 = Digraph(16, [(u, (u + 1) % 16) for u in range(16)] * 2)
    with pytest.raises(ValueError, match=NON_ARC):
        BatchedNetworkSimulator(
            ring16, router=ClosedFormRouter.for_de_bruijn(2, 4), kernels=backend
        ).run(traffic, max_events=10_000)
    # a relabelling shorter than the topology: refused, never read past
    short = ClosedFormRouter(2, 3, to_code=np.arange(8), from_code=np.arange(8))
    with pytest.raises(IndexError):
        BatchedNetworkSimulator(graph, router=short, kernels=backend).run(traffic)


NON_ARC_TRAFFIC = [
    (u % 16, (u * 7 + 3) % 16, 0.0) for u in range(64) if u % 16 != (u * 7 + 3) % 16
]


@pytest.mark.parametrize("reroute", ["none", "arc-disjoint"])
def test_non_arc_hop_raises_under_scenarios_on_python_loops(reroute):
    # the scalar scenario loop, over either engine's topology, names
    # (node, hop) instead of failing on a missing link lookup
    graph = de_bruijn(2, 4)
    scenario = Scenario(max_hops=50, reroute=reroute)
    with pytest.raises(ValueError, match=NON_ARC):
        BatchedNetworkSimulator(
            graph, router=OffByOneRouter(graph), scenario=scenario, kernels="numpy"
        ).run(NON_ARC_TRAFFIC)
    with pytest.raises(ValueError, match=NON_ARC):
        NetworkSimulator(graph, router=OffByOneRouter(graph), scenario=scenario).run(
            NON_ARC_TRAFFIC
        )


def off_by_one_dense_router(graph):
    """A table router the kernel reads, whose hops are not ``graph``'s arcs:
    the table of ``graph`` with every arc's head moved one vertex on."""
    n = graph.num_vertices
    return DenseTableRouter(Digraph(n, [(u, (v + 1) % n) for u, v in graph.arcs()]))


@pytest.mark.parametrize("reroute", ["none", "arc-disjoint"])
def test_non_arc_hop_raises_under_scenarios_on_kernel_backends(backend, reroute):
    graph = de_bruijn(2, 4)
    scenario = Scenario(max_hops=50, reroute=reroute)
    # the kernel's table lookup, and the scalar loop a non-table router keeps
    for router in (off_by_one_dense_router(graph), OffByOneRouter(graph)):
        with pytest.raises(ValueError, match=NON_ARC):
            BatchedNetworkSimulator(
                graph, router=router, scenario=scenario, kernels=backend
            ).run(NON_ARC_TRAFFIC)
    # the kernel's shift routing: B(2,4) hops on the 16-vertex ring
    ring16 = Digraph(16, [(u, (u + 1) % 16) for u in range(16)] * 2)
    with pytest.raises(ValueError, match=NON_ARC):
        BatchedNetworkSimulator(
            ring16, router=ClosedFormRouter.for_de_bruijn(2, 4), scenario=scenario,
            kernels=backend,
        ).run(NON_ARC_TRAFFIC)
    # a relabelling shorter than the topology: refused, never read past
    short = ClosedFormRouter(2, 3, to_code=np.arange(8), from_code=np.arange(8))
    with pytest.raises(IndexError):
        BatchedNetworkSimulator(
            graph, router=short, scenario=scenario, kernels=backend
        ).run(NON_ARC_TRAFFIC)


# ------------------------------------------------- vectorised uniform traffic


def frozen_uniform_random_pairs(num_nodes, num_messages, generator, rate=None):
    """The scalar generator as it was before vectorisation (the reference)."""
    times = (
        np.cumsum(generator.exponential(1.0 / rate, size=num_messages))
        if rate is not None
        else np.zeros(num_messages)
    )
    traffic = []
    for k in range(num_messages):
        source = int(generator.integers(num_nodes))
        destination = int(generator.integers(num_nodes))
        while destination == source:
            destination = int(generator.integers(num_nodes))
        traffic.append((source, destination, float(times[k])))
    return traffic


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 5, 1024, 4096, 2**33 + 1])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 500])
@pytest.mark.parametrize("rate", [None, 3.0])
def test_uniform_pairs_are_stream_identical(num_nodes, count, rate):
    for seed in range(4):
        ref_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        ref = frozen_uniform_random_pairs(num_nodes, count, ref_rng, rate)
        got = uniform_random_pairs(num_nodes, count, got_rng, rate=rate)
        assert got == ref
        assert all(
            type(s) is int and type(t) is int and type(at) is float for s, t, at in got
        )
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_arrival_processes_are_stream_identical(monkeypatch):
    # The arrival processes draw their times after the pairs, so an extra or
    # missing draw would shift every time: compare them and the state after.
    from repro.simulation import scenarios

    processes = [
        UniformArrivals(300),
        UniformArrivals(300, rate=2.5),
        UniformArrivals(0),
        BurstyArrivals(300, burst_size=5),
        DiurnalArrivals(300),
    ]
    for num_nodes in (2, 3, 64):
        for process in processes:
            got_rng = np.random.default_rng(11)
            got = process.traffic(num_nodes, got_rng)
            with monkeypatch.context() as patched:
                patched.setattr(
                    scenarios,
                    "uniform_random_pairs",
                    lambda n, k, g: validate_traffic(
                        frozen_uniform_random_pairs(n, k, g)
                    ),
                )
                ref_rng = np.random.default_rng(11)
                ref = process.traffic(num_nodes, ref_rng)
            assert got == ref
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------- compiled hotspot traffic


def frozen_hotspot_pairs(num_nodes, num_messages, hotspot, fraction, generator):
    """The scalar hotspot generator as it was before the kernel (the oracle)."""
    traffic = []
    for _ in range(num_messages):
        source = int(generator.integers(num_nodes))
        if generator.random() < fraction and source != hotspot:
            destination = hotspot
        else:
            destination = int(generator.integers(num_nodes))
            while destination == source:
                destination = int(generator.integers(num_nodes))
        traffic.append((source, destination, 0.0))
    return traffic


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the ``hotspot_pairs`` kernel runs behind the public generator."""
    from repro.simulation import workloads

    calls = []
    replay = workloads._hotspot_endpoints

    def spy(kernel, *args):
        def counted(*kernel_args):
            calls.append(kernel_args[0].shape[0])
            return kernel(*kernel_args)

        return replay(counted, *args)

    monkeypatch.setattr(workloads, "_hotspot_endpoints", spy)
    return calls


def generator_state(generator) -> str:
    """The bit generator's state as JSON (MT19937 keeps an array in it)."""
    return json.dumps(
        generator.bit_generator.state, default=lambda x: np.asarray(x).tolist()
    )


def assert_hotspot_matches_oracle(generator_factory, n, count, hotspot, fraction,
                                  pending=False):
    ref_rng = generator_factory()
    got_rng = generator_factory()
    if pending:  # leave a buffered 32-bit half in the bit generator
        ref_rng.integers(7)
        got_rng.integers(7)
    ref = frozen_hotspot_pairs(n, count, hotspot, fraction, ref_rng)
    got = hotspot_pairs(n, count, hotspot, fraction, got_rng)
    assert got == ref
    assert all(
        type(s) is int and type(t) is int and type(at) is float for s, t, at in got
    )
    assert generator_state(got_rng) == generator_state(ref_rng)
    assert got_rng.random() == ref_rng.random()
    assert got_rng.integers(n) == ref_rng.integers(n)


@pytest.mark.parametrize(
    "kernel_backend", ["numpy", pytest.param("cnative", marks=requires_cnative)]
)
@pytest.mark.parametrize("num_nodes", [2, 3, 5, 1024, 2**32 - 1])
@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("hotspot", ["first", "last"])
@pytest.mark.parametrize("pending", [False, True])
def test_hotspot_pairs_are_stream_identical(
    kernel_backend, num_nodes, fraction, hotspot, pending, monkeypatch, kernel_calls
):
    monkeypatch.setenv(kernels.ENV_VAR, kernel_backend)
    target = 0 if hotspot == "first" else num_nodes - 1
    for seed in range(3):
        assert_hotspot_matches_oracle(
            lambda: np.random.default_rng(seed), num_nodes, 300, target, fraction,
            pending,
        )
    assert bool(kernel_calls) == (kernel_backend == "cnative")


@requires_cnative
@pytest.mark.parametrize("num_nodes", [2**32, 2**33 + 1])
def test_hotspot_pairs_wide_ranges_take_the_scalar_loop(
    num_nodes, monkeypatch, kernel_calls
):
    monkeypatch.setenv(kernels.ENV_VAR, "cnative")
    for fraction in (0.0, 0.5):
        assert_hotspot_matches_oracle(
            lambda: np.random.default_rng(4), num_nodes, 200, num_nodes - 1, fraction
        )
    assert kernel_calls == []


@requires_cnative
@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.PCG64DXSM], ids=lambda c: c.__name__
)
def test_hotspot_pairs_other_bit_generators_take_the_scalar_loop(
    bit_generator, monkeypatch, kernel_calls
):
    monkeypatch.setenv(kernels.ENV_VAR, "cnative")
    for pending in (False, True):
        assert_hotspot_matches_oracle(
            lambda: np.random.Generator(bit_generator(9)), 64, 200, 0, 0.5, pending
        )
    assert kernel_calls == []


@pytest.mark.parametrize(
    "kernel_backend", ["numpy", pytest.param("cnative", marks=requires_cnative)]
)
@pytest.mark.parametrize("num_nodes", [2, 5, 1024])
def test_hotspot_fraction_equal_to_the_draw_is_not_a_hit(
    kernel_backend, num_nodes, monkeypatch
):
    # ``random() < fraction`` is strict: with the fraction set to exactly the
    # uniform the first message draws, that message is not sent to the hotspot
    monkeypatch.setenv(kernels.ENV_VAR, kernel_backend)
    for seed in range(5):
        probe = np.random.default_rng(seed)
        source = int(probe.integers(num_nodes))
        drawn = probe.random()
        hotspot = (source + 1) % num_nodes
        assert_hotspot_matches_oracle(
            lambda: np.random.default_rng(seed), num_nodes, 3, hotspot, drawn
        )
        first = hotspot_pairs(num_nodes, 1, hotspot, drawn, np.random.default_rng(seed))
        assert first[0][0] == source


@requires_cnative
def test_hotspot_pairs_redraws_an_exhausted_block(monkeypatch, kernel_calls):
    # n = 2**31 + 1 rejects about half of its 32-bit draws, so a message
    # costs about 3 words: some seeds overrun the first block (3 words per
    # message plus slack) and must re-draw a larger one from the saved state.
    monkeypatch.setenv(kernels.ENV_VAR, "cnative")
    for seed in range(12):
        assert_hotspot_matches_oracle(
            lambda: np.random.default_rng(seed), 2**31 + 1, 2000, 0, 0.0
        )
    runs = len(kernel_calls)
    assert runs > 12  # at least one re-draw happened
    assert max(kernel_calls) > min(kernel_calls)


@requires_cnative
@settings(max_examples=60, deadline=None)
@given(
    num_nodes=st.one_of(
        st.integers(2, 40), st.integers(2, 2**32 - 1), st.integers(2**32, 2**40)
    ),
    count=st.integers(0, 150),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    pending=st.booleans(),
    at_end=st.booleans(),
)
def test_hotspot_pairs_match_the_scalar_loop(
    num_nodes, count, fraction, seed, pending, at_end
):
    hotspot = num_nodes - 1 if at_end else 0
    assert_hotspot_matches_oracle(
        lambda: np.random.default_rng(seed), num_nodes, count, hotspot, fraction,
        pending,
    )
