"""Dispatch, fallback and identity semantics of :mod:`repro.kernels`.

Three contracts beyond bit-identity (which ``test_kernel_parity.py`` owns):

* **Fallback** — the compiled backend is an optimisation, never a
  dependency: ``REPRO_KERNELS=numpy`` forces the original vectorised
  paths, a compiler-less environment (simulated here by failing the C
  build) degrades silently under ``auto``, and an *explicitly* requested
  but unavailable backend warns and falls back rather than erroring.
* **Identity** — the active backend is *not* part of ``code_version()`` /
  ``sim_code_version()``: the parity suites prove both backends write the
  same records, so a sweep store and a replica store filled under
  ``numpy`` finish and merge under ``cnative`` without recomputing a
  chunk.
* **Surfacing** — ``warmup()`` compiles end to end, ``diagnostics()``
  reports every backend's availability, and the engines/sweeps expose the
  resolved name (``kernel_backend``) all the way into their JSON.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.otis import search
from repro.otis.h_digraph import h_digraph
from repro.otis.sweep import (
    ChunkManifest,
    SplitVerdictCache,
    code_version,
    run_chunk,
)
from repro.simulation.network import (
    BatchedNetworkSimulator,
    LinkModel,
    NetworkSimulator,
)
from repro.fleet import SimFleetJob, SweepFleetJob, run_fleet
from repro.simulation.sharding import ReplicaChunkManifest, sim_code_version
from repro.simulation.workloads import (
    make_workload,
    run_throughput_sweep,
    uniform_random_pairs,
)

from test_scenarios import WrappingRouter

GRAPH = h_digraph(4, 8, 2)

#: Skips a test on a host where the compiled backend cannot be built.
requires_cnative = pytest.mark.skipif(
    "cnative" not in kernels.available_backends(), reason="no C compiler"
)


@pytest.fixture
def fresh_probes():
    """Reset the backend probe cache around a test that fakes availability."""
    kernels._reset_probe_cache()
    yield
    kernels._reset_probe_cache()


class TestResolution:
    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_backends()
        assert kernels.resolve_backend("numpy") == "numpy"

    def test_env_var_forces_numpy(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.resolve_backend() == "numpy"
        assert kernels.active_backend() == "numpy"
        sim = BatchedNetworkSimulator(GRAPH)
        assert sim.kernel_backend == "numpy"
        assert sim._kernels is None

    def test_unknown_name_is_a_typo_not_a_fallback(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("fortran")

    def test_explicit_unavailable_backend_warns_and_falls_back(
        self, monkeypatch, fresh_probes
    ):
        monkeypatch.setattr(kernels, "_probe", lambda b: b == "numpy")
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert kernels.resolve_backend("cnative") == "numpy"

    def test_auto_prefers_compiled_backends(self):
        resolved = kernels.resolve_backend("auto")
        available = kernels.available_backends()
        assert resolved == available[0]

    def test_compiler_absent_degrades_silently(self, monkeypatch, fresh_probes):
        from repro.kernels import native

        def no_compiler():
            raise native.NativeBuildError("no C compiler (simulated)")

        monkeypatch.setattr(native, "build_native_kernels", no_compiler)
        assert kernels.available_backends() == ("numpy",)
        # auto must neither raise nor warn — it falls through to numpy.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.resolve_backend("auto") == "numpy"

    def test_auto_keeps_numpy_path_for_sparse_workloads(self, monkeypatch):
        # One rule at every event density: a router the kernels can
        # consult (a table router, a closed form) takes the fused run_rounds
        # loop, one kernel call per run, on sparse and saturated traffic
        # alike; a wrapping router keeps the numpy path and reports it.
        if kernels.resolve_backend("auto") == "numpy":
            pytest.skip("no compiled backend available")
        # an outer REPRO_KERNELS (e.g. the CI numpy leg) would force both
        # simulators; this test is about genuine "auto" resolution
        monkeypatch.setenv(kernels.ENV_VAR, "auto")
        sparse = [(i % 4, (i + 1) % 4, float(i)) for i in range(64)]
        dense = [(i % 4, (i + 1) % 4, 0.0) for i in range(64)]
        for sim in (
            BatchedNetworkSimulator(GRAPH),  # auto, dense table
            BatchedNetworkSimulator(GRAPH, kernels=kernels.resolve_backend()),
            BatchedNetworkSimulator(GRAPH, router="closed-form"),  # auto
        ):
            assert sim.kernel_backend == kernels.resolve_backend()
            entered = []

            def spied(*args, _real=sim._kernels.run_rounds):
                entered.append(1)
                return _real(*args)

            monkeypatch.setattr(
                sim, "_kernels", SimpleNamespace(**{**vars(sim._kernels), "run_rounds": spied})
            )
            sim.run(sparse)
            sim.run(dense)
            assert entered == [1, 1]
        wrapped = BatchedNetworkSimulator(GRAPH, router=WrappingRouter(GRAPH))
        assert wrapped.kernel_backend == "numpy" and wrapped._kernels is None

    def test_env_var_numpy_takes_numpy_bfs_screen(self, monkeypatch):
        # Under REPRO_KERNELS=numpy the sweep runs h_diameter per split, so
        # the vectorised forward and reverse BFS stages; a compiled backend
        # screens the whole chunk in one screen_splits call instead.  Same
        # records either way.
        calls = []
        for name in ("bfs_distances_regular", "reverse_bfs_distances_regular"):
            real = getattr(search, name)
            monkeypatch.setattr(
                search,
                name,
                lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a),
            )
        screens = []
        real_get = kernels.get_kernels

        def spying_get(backend=None):
            ns = real_get(backend)
            if ns is None:
                return None
            spy = SimpleNamespace(**vars(ns))
            spy.screen_splits = lambda *a: screens.append(a) or ns.screen_splits(*a)
            return spy

        monkeypatch.setattr(kernels, "get_kernels", spying_get)
        items = ((16, 4, 8),)
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        expected = [{"n": 16, "p": 4, "q": 8, "verdict": 4}]
        assert run_chunk(2, 4, items) == expected
        assert calls == ["bfs_distances_regular", "reverse_bfs_distances_regular"]
        assert screens == []
        monkeypatch.setenv(kernels.ENV_VAR, "auto")
        if kernels.active_backend() == "numpy":
            pytest.skip("no compiled backend available")
        calls.clear()
        assert run_chunk(2, 4, items) == expected
        assert calls == []
        assert len(screens) == 1

    def test_numpy_forced_simulation_matches_auto(self, monkeypatch):
        # The fallback is not merely "doesn't crash": forced-numpy results
        # equal whatever the auto backend produces (bit-identity contract).
        traffic = uniform_random_pairs(GRAPH.num_vertices, 40, rng=9)
        auto = BatchedNetworkSimulator(GRAPH).run_many([traffic])
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        forced = BatchedNetworkSimulator(GRAPH).run_many([traffic])
        assert [s for s, _ in forced] == [s for s, _ in auto]


class TestWarmupAndDiagnostics:
    def test_warmup_returns_resolved_backend(self):
        name = kernels.warmup()
        assert name in kernels.KERNEL_BACKENDS

    def test_warmup_runs_the_bfs_screen(self, monkeypatch):
        if kernels.resolve_backend("auto") == "numpy":
            pytest.skip("no compiled backend available")
        monkeypatch.setenv(kernels.ENV_VAR, "auto")
        screens = []
        real_get = kernels.get_kernels

        def spying_get(backend=None):
            ns = real_get(backend)
            spy = SimpleNamespace(**vars(ns))
            spy.screen_splits = lambda *a: screens.append(a) or ns.screen_splits(*a)
            return spy

        monkeypatch.setattr(kernels, "get_kernels", spying_get)
        kernels.warmup()
        assert len(screens) == 1

    def test_warmup_runs_closed_form_routing_and_the_fused_loop(self, monkeypatch):
        if kernels.resolve_backend("auto") == "numpy":
            pytest.skip("no compiled backend available")
        monkeypatch.setenv(kernels.ENV_VAR, "auto")
        seen = []
        real_get = kernels.get_kernels

        def spying_get(backend=None):
            ns = real_get(backend)
            spy = SimpleNamespace(**vars(ns))
            for name in ("shift_next_hops", "run_rounds", "run_scenario"):
                setattr(spy, name, lambda *a, _name=name: (
                    seen.append(_name) or getattr(ns, _name)(*a)
                ))
            return spy

        monkeypatch.setattr(kernels, "get_kernels", spying_get)
        kernels.warmup()
        assert seen.count("shift_next_hops") == 1
        assert seen.count("run_rounds") == 1  # the closed-form simulation
        assert seen.count("run_scenario") == 1  # the degrading scenario kernel

    def test_env_var_numpy_routes_through_shift_route_next_hops(self, monkeypatch):
        # Under REPRO_KERNELS=numpy the closed-form router runs the numpy
        # oracle; a compiled backend replaces it with the shift_next_hops
        # kernel.  Same hops either way.
        from repro.routing import routers
        from repro.routing.routers import ClosedFormRouter

        calls = []
        real = routers.shift_route_next_hops
        monkeypatch.setattr(
            routers,
            "shift_route_next_hops",
            lambda *a: calls.append(1) or real(*a),
        )
        router = ClosedFormRouter.for_graph(GRAPH)
        sources = np.repeat(np.arange(16), 16)
        targets = np.tile(np.arange(16), 16)
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        oracle = router.next_hops(sources, targets)
        assert calls == [1]
        monkeypatch.setenv(kernels.ENV_VAR, "auto")
        if kernels.active_backend() == "numpy":
            pytest.skip("no compiled backend available")
        assert router.next_hops(sources, targets).tobytes() == oracle.tobytes()
        assert calls == [1]

    def test_warmup_numpy_is_a_noop(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.warmup() == "numpy"

    def test_diagnostics_lists_every_backend(self):
        report = kernels.diagnostics()
        for backend in kernels.KERNEL_BACKENDS:
            assert backend in report
        assert kernels.ENV_VAR in report

    def test_cli_version_prints_diagnostics(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--version"])
        out = capsys.readouterr().out
        assert "repro " in out
        assert "kernels:" in out


class TestCodeIdentity:
    def test_code_versions_ignore_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        sweep_numpy = code_version()
        sim_numpy = sim_code_version()
        # Fake a different active backend: both backends write the same
        # records, so the fingerprint must not move.
        monkeypatch.setattr(kernels, "active_backend", lambda: "cnative")
        assert code_version() == sweep_numpy
        assert sim_code_version() == sim_numpy
        # ... and stay stable/hex-formatted.
        assert code_version() == code_version()
        assert len(code_version()) == 12
        int(code_version(), 16)

    @requires_cnative
    def test_resume_after_backend_switch_is_accepted(self, monkeypatch, tmp_path):
        """Half of each store under ``numpy``, the rest and the merge under
        ``cnative``: no chunk is recomputed and both merges are unchanged."""
        link = LinkModel(latency=1.0, transmission_time=1.0)
        traffics = [
            uniform_random_pairs(GRAPH.num_vertices, 30, rng=seed)
            for seed in range(4)
        ]

        def jobs():
            sweep = ChunkManifest.build(2, 6, range(60, 71), chunk_size=4)
            replicas = ReplicaChunkManifest.build(
                GRAPH, traffics, link=link, chunk_size=2
            )
            return (
                SweepFleetJob(sweep, tmp_path / "sweep"),
                SimFleetJob(replicas, tmp_path / "sim", GRAPH, traffics),
            )

        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        first = [run_fleet(job, wait=False, max_chunks=1)["ran"] for job in jobs()]

        monkeypatch.setenv(kernels.ENV_VAR, "cnative")
        backends = []
        for job, ran in zip(jobs(), first):
            compute = job.run_chunk

            def traced(chunk, compute=compute):
                backends.append(kernels.active_backend())
                return compute(chunk)

            job.run_chunk = traced
            outcome = run_fleet(job, wait=False)  # no StoreIdentityError
            assert outcome["complete"]
            assert len(ran) == 1
            assert sorted(outcome["ran"]) == sorted(
                chunk.chunk_id for chunk in job.chunks() if chunk.chunk_id not in ran
            )
        assert set(backends) == {"cnative"}

        sweep_job, sim_job = jobs()
        serial = search.degree_diameter_search(2, 6, 60, 70)
        assert sweep_job.merge().rows == serial.rows
        expected = [
            stats
            for stats, _ in BatchedNetworkSimulator(GRAPH, link=link).run_many(
                traffics, return_messages=False
            )
        ]
        assert sim_job.merge() == expected

    def test_split_verdict_cache_survives_backend_switch(
        self, monkeypatch, tmp_path
    ):
        # The verdict cache keys its file name by code_version: a backend
        # switch reopens the same file and reuses its verdicts.
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        cache_numpy = SplitVerdictCache(tmp_path, 2, 6)
        cache_numpy.put(4, 16, 6)
        monkeypatch.setattr(kernels, "active_backend", lambda: "cnative")
        cache_other = SplitVerdictCache(tmp_path, 2, 6)
        assert cache_other.path == cache_numpy.path
        assert cache_other.get(4, 16) == 6


class TestSweepSurfacing:
    def test_throughput_sweep_records_backend(self):
        sweep = run_throughput_sweep(
            GRAPH, seeds=range(1), num_messages=50
        )
        assert sweep.kernel_backend == kernels.active_backend()
        assert sweep.to_json()["kernel_backend"] == sweep.kernel_backend

    def test_wrapping_router_sweep_records_numpy(self):
        # A router the kernels cannot consult (a wrapping router) runs the
        # numpy path, and the sweep still matches the reference engine.
        sweep = run_throughput_sweep(
            GRAPH, seeds=range(1), num_messages=30, router=WrappingRouter(GRAPH)
        )
        assert sweep.kernel_backend == "numpy"
        traffic = make_workload("uniform", GRAPH.num_vertices, 30, rng=0)
        assert sweep.points[0].stats == NetworkSimulator(GRAPH).run(traffic)[0]
