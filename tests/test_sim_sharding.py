"""Chunked ``run_many``: byte-identical merge, resume, determinism.

The contract of :mod:`repro.simulation.sharding`: per-replica
:class:`~repro.simulation.network.NetworkStats` merged from the chunk store
are **byte-identical** to the in-process
:meth:`~repro.simulation.network.BatchedNetworkSimulator.run_many` pass, no
matter how the replicas were chunked, split across fleet workers,
interrupted or resumed — exactly the guarantee the degree–diameter sweep
gives for Table 1 rows.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import SimFleetJob, run_fleet
from repro.otis.h_digraph import h_digraph
from repro.otis.sweep import StoreIdentityError, import_closure
from repro.simulation import sharding
from repro.simulation.network import BatchedNetworkSimulator, LinkModel
from repro.simulation.sharding import (
    ReplicaChunkManifest,
    merge_replica_stats,
    run_many_sharded,
    sim_code_version,
    stats_from_json,
    stats_to_json,
    traffic_digest,
)
from repro.simulation.workloads import make_workload

GRAPH = h_digraph(8, 16, 2)  # n = 64, parallel-arc-free but loop-carrying
LINK = LinkModel(latency=0.7, transmission_time=0.3)


def example_traffics(count=6, messages=120):
    n = GRAPH.num_vertices
    traffics = [
        make_workload("uniform", n, messages, rng=seed, rate=2.0)
        for seed in range(count - 2)
    ]
    traffics.append(make_workload("hotspot", n, messages, rng=17))
    traffics.append(make_workload("permutation", n, 0, rng=19))
    return traffics


def run_worker(manifest, store, traffics, *, max_chunks=None):
    """One fleet worker over ``store``: runs until nothing is claimable."""
    job = SimFleetJob(manifest, store, GRAPH, traffics)
    return run_fleet(job, wait=False, max_chunks=max_chunks)


def in_process_stats(traffics):
    simulator = BatchedNetworkSimulator(GRAPH, link=LINK)
    return [s for s, _ in simulator.run_many(traffics, return_messages=False)]


class TestStatsCodec:
    def test_round_trip_is_exact(self):
        traffics = example_traffics(3)
        for stats in in_process_stats(traffics):
            assert stats_from_json(stats_to_json(stats)) == stats

    def test_round_trip_survives_json_text(self):
        import json

        stats = in_process_stats(example_traffics(2))[0]
        text = json.dumps(stats_to_json(stats))
        assert stats_from_json(json.loads(text)) == stats


class TestManifest:
    def test_deterministic_chunk_ids(self):
        traffics = example_traffics()
        a = ReplicaChunkManifest.build(GRAPH, traffics, link=LINK, chunk_size=2)
        b = ReplicaChunkManifest.build(GRAPH, traffics, link=LINK, chunk_size=2)
        assert [c.chunk_id for c in a.chunks] == [c.chunk_id for c in b.chunks]

    def test_identity_changes_rename_chunks(self):
        traffics = example_traffics(4)
        base = ReplicaChunkManifest.build(GRAPH, traffics, link=LINK, chunk_size=2)
        variants = [
            ReplicaChunkManifest.build(
                GRAPH, traffics, link=LinkModel(1.0, 1.0), chunk_size=2
            ),
            ReplicaChunkManifest.build(
                GRAPH, traffics, link=LINK, chunk_size=2, router="dense"
            ),
            ReplicaChunkManifest.build(
                GRAPH, traffics, link=LINK, chunk_size=2, code_version="other"
            ),
            ReplicaChunkManifest.build(
                h_digraph(4, 8, 2), traffics, link=LINK, chunk_size=2
            ),
        ]
        base_ids = {c.chunk_id for c in base.chunks}
        for variant in variants:
            assert base_ids.isdisjoint({c.chunk_id for c in variant.chunks})

    def test_traffic_content_changes_chunk_id(self):
        traffics = example_traffics(2)
        base = ReplicaChunkManifest.build(GRAPH, traffics, link=LINK)
        altered = [list(traffics[0]), list(traffics[1])]
        source, dest, time = altered[1][0]
        altered[1][0] = (source, dest, time + 1.0)
        changed = ReplicaChunkManifest.build(GRAPH, altered, link=LINK)
        assert base.chunks[0].chunk_id != changed.chunks[0].chunk_id

    @pytest.mark.parametrize(
        "source",
        [
            # defines the replica record (run_replica_chunk, stats_to_json)
            "simulation/sharding.py",
            # imported lazily by ClosedFormRouter to build its relabelling
            "core/isomorphisms.py",
            "core/checks.py",
            "graphs/generators.py",
        ],
    )
    def test_record_defining_sources_are_fingerprinted(self, source):
        assert source in import_closure(Path(sharding.__file__))

    def test_code_version_is_source_fingerprint(self):
        assert len(sim_code_version()) == 12
        assert sim_code_version() == sim_code_version()

    def test_traffic_digest_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            traffic_digest(np.zeros((3, 2)))


class TestShardedExecution:
    def test_merge_is_byte_identical_to_in_process(self, tmp_path):
        traffics = example_traffics()
        expected = in_process_stats(traffics)
        merged = run_many_sharded(
            GRAPH, traffics, link=LINK, store=tmp_path, chunk_size=2
        )
        assert merged == expected

    def test_shard_union_is_byte_identical(self, tmp_path):
        traffics = example_traffics()
        expected = in_process_stats(traffics)
        manifest = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=1
        )
        # Three workers that each stop after a third of the chunks.
        share = -(-len(manifest.chunks) // 3)
        ran = [
            run_worker(manifest, tmp_path, traffics, max_chunks=share)["ran"]
            for _ in range(3)
        ]
        assert sorted(sum(ran, [])) == sorted(c.chunk_id for c in manifest.chunks)
        assert merge_replica_stats(manifest, tmp_path) == expected

    def test_resume_after_kill_recomputes_only_missing(self, tmp_path):
        traffics = example_traffics()
        expected = in_process_stats(traffics)
        manifest = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=2
        )
        run_worker(manifest, tmp_path, traffics)
        # simulate a kill mid-chunk: one published file disappears
        victim = manifest.chunks[1]
        os.unlink(tmp_path / f"chunk-{victim.chunk_id}.jsonl")
        outcome = run_worker(manifest, tmp_path, traffics)
        # Only the lost chunk reran; every other chunk was skipped.
        assert outcome["ran"] == [victim.chunk_id]
        assert outcome["complete"]
        assert merge_replica_stats(manifest, tmp_path) == expected

    def test_merge_refuses_incomplete_store(self, tmp_path):
        traffics = example_traffics()
        manifest = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=2
        )
        run_worker(manifest, tmp_path, traffics, max_chunks=1)
        with pytest.raises(FileNotFoundError, match="incomplete"):
            merge_replica_stats(manifest, tmp_path)

    def test_worker_pool_matches_serial(self, tmp_path, fleet_processes):
        # Two fleet worker processes fill the store; the one-call wrapper
        # then finds every chunk published and merges.
        traffics = example_traffics(4, messages=60)
        expected = in_process_stats(traffics)
        manifest = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=1
        )
        fleet_processes(SimFleetJob(manifest, tmp_path, GRAPH, traffics), 2)
        merged = run_many_sharded(
            GRAPH, traffics, link=LINK, store=tmp_path, chunk_size=1
        )
        assert merged == expected

    def test_mismatched_traffic_is_rejected(self, tmp_path):
        traffics = example_traffics(3)
        manifest = ReplicaChunkManifest.build(GRAPH, traffics, link=LINK)
        tampered = list(traffics)
        tampered[0] = make_workload("uniform", GRAPH.num_vertices, 10, rng=99)
        with pytest.raises(ValueError, match="digest"):
            run_worker(manifest, tmp_path, tampered)
        with pytest.raises(ValueError, match="replicas"):
            run_worker(manifest, tmp_path, traffics[:2])

    def test_sharded_respects_router_kind(self, tmp_path):
        # closed-form routing through the sharded path stays byte-identical too
        traffics = example_traffics(3, messages=80)
        expected = in_process_stats(traffics)
        merged = run_many_sharded(
            GRAPH, traffics, link=LINK, router="closed-form", store=tmp_path
        )
        assert merged == expected


class TestMergeDiagnostics:
    def test_identity_mismatch_fails_fast(self, tmp_path):
        # A store filled under one chunk size, relaunched or merged under
        # another, must fail on the persisted manifest.json — naming the
        # differing field — before any simulation or merge work runs.
        traffics = example_traffics(4, messages=40)
        written = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=2
        )
        run_worker(written, tmp_path, traffics)
        mismatched = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=3
        )
        with pytest.raises(StoreIdentityError, match="chunk_size"):
            merge_replica_stats(mismatched, tmp_path)
        with pytest.raises(StoreIdentityError, match="chunk_size"):
            run_worker(mismatched, tmp_path, traffics)

    def test_orphan_chunks_hint_at_parameter_mismatch(self, tmp_path):
        # Pre-identity-file stores (no manifest.json) still get the orphan
        # diagnostic instead of just "run the workers".
        traffics = example_traffics(4, messages=40)
        written = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=2
        )
        run_worker(written, tmp_path, traffics)
        os.unlink(tmp_path / "manifest.json")
        mismatched = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=3
        )
        with pytest.raises(FileNotFoundError, match="different manifest"):
            merge_replica_stats(mismatched, tmp_path)

    def test_missing_and_orphan_chunk_are_both_named(self, tmp_path):
        # One chunk of the store's own manifest is missing and one foreign
        # chunk file sits beside the others: the merge names both.
        traffics = example_traffics(4, messages=40)
        manifest = ReplicaChunkManifest.build(
            GRAPH, traffics, link=LINK, chunk_size=2, code_version="test-v1"
        )
        run_worker(manifest, tmp_path, traffics)
        victim = tmp_path / f"chunk-{manifest.chunks[0].chunk_id}.jsonl"
        victim.rename(tmp_path / "chunk-0123456789abcdef.jsonl")
        with pytest.raises(FileNotFoundError) as excinfo:
            merge_replica_stats(manifest, tmp_path)
        message = str(excinfo.value)
        assert f"1 of {len(manifest.chunks)} chunks incomplete" in message
        assert "1 chunk file(s) from a different manifest" in message
        assert "test-v1" in message  # the current code version is named


class TestScenarioSharding:
    """Scenario digests join the chunk identity; merges stay byte-identical."""

    def scenario(self):
        from repro.simulation.network import BufferedLinkModel
        from repro.simulation.scenarios import (
            FaultPlan,
            Scenario,
            UniformArrivals,
        )

        return Scenario(
            arrivals=UniformArrivals(40, rate=1.5),
            link=BufferedLinkModel(capacity=2, on_full="retry"),
            faults=FaultPlan.random_link_failures(GRAPH, 8, at=2.0, seed=3),
            reroute="arc-disjoint",
        )

    def test_scenario_digest_renames_chunks(self):
        from repro.simulation.scenarios import Scenario, UniformArrivals

        scenario = self.scenario()
        traffics = [
            scenario.traffic(GRAPH.num_vertices, rng=seed) for seed in range(4)
        ]
        ids = lambda manifest: [chunk.chunk_id for chunk in manifest.chunks]
        with_faults = ReplicaChunkManifest.build(GRAPH, traffics, scenario=scenario)
        healthy = ReplicaChunkManifest.build(
            GRAPH,
            traffics,
            scenario=Scenario(arrivals=UniformArrivals(40, rate=1.5)),
        )
        plain = ReplicaChunkManifest.build(GRAPH, traffics)
        assert ids(with_faults) != ids(healthy)
        assert ids(healthy) != ids(plain)
        assert with_faults.identity()["scenario_digest"] == scenario.digest()
        assert "scenario_digest" not in plain.identity()

    def test_link_and_scenario_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ReplicaChunkManifest.build(
                GRAPH, [], link=LINK, scenario=self.scenario()
            )

    def test_sharded_scenario_merge_is_byte_identical(self, tmp_path):
        scenario = self.scenario()
        traffics = [
            scenario.traffic(GRAPH.num_vertices, rng=seed) for seed in range(5)
        ]
        expected = [
            s
            for s, _ in BatchedNetworkSimulator(
                GRAPH, scenario=scenario
            ).run_many(traffics, return_messages=False)
        ]
        assert any(stats.dropped_fault or stats.rerouted_hops for stats in expected)
        merged = run_many_sharded(
            GRAPH, traffics, scenario=scenario, store=tmp_path, chunk_size=2
        )
        assert merged == expected
        # The counters survive the JSON codec exactly.
        for stats in merged:
            assert stats_from_json(stats_to_json(stats)) == stats
