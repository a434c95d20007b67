"""Tests for the lease-based fleet driver (repro.fleet).

The contracts pinned down here are the ones the fleet's safety rests on:

* **mutual exclusion** — two workers (processes!) can never hold one
  chunk's lease at the same time, so no chunk ever runs twice concurrently;
* **crash recovery** — a worker killed with ``SIGKILL`` mid-chunk leaves an
  expired lease that a relaunched fleet reclaims and completes;
* **merge parity** — however chunks were claimed, crashed, reclaimed or
  reordered, the merged result is byte-identical to the serial
  ``degree_diameter_search`` / in-process ``run_many`` output;
* **worker-process routing parity** — the pickled-graph path that worker
  processes rely on (table routers rebuilt in the worker, or pickled with
  the columns they hold) routes bit-identically to the parent process, and
  fleet worker processes sharing one store merge byte-identically.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import (
    Lease,
    LeaseManager,
    SimFleetJob,
    SweepFleetJob,
    fleet_status,
    format_status,
    run_fleet,
    store_status,
)
from repro.fleet.leases import Heartbeat
from repro.otis.h_digraph import h_digraph
from repro.otis.search import degree_diameter_search
from repro.otis.sweep import (
    ChunkManifest,
    ChunkStore,
    StoreIdentityError,
    ensure_store_identity,
)
from repro.routing import routers
from repro.routing.routers import DenseTableRouter, make_router
from repro.simulation.network import BatchedNetworkSimulator, LinkModel
from repro.simulation.sharding import ReplicaChunkManifest, run_many_sharded
from repro.simulation.workloads import make_workload
from test_scenarios import WrappingRouter

SRC = str(Path(__file__).resolve().parents[1] / "src")


def sweep_manifest(chunk_size=4):
    return ChunkManifest.build(2, 6, range(60, 71), chunk_size=chunk_size)


def sim_inputs(replicas=4, messages=60, chunk_size=1):
    graph = h_digraph(8, 16, 2)
    link = LinkModel(latency=0.7, transmission_time=0.3)
    traffics = [
        make_workload("uniform", graph.num_vertices, messages, rng=seed)
        for seed in range(replicas)
    ]
    manifest = ReplicaChunkManifest.build(
        graph, traffics, link=link, chunk_size=chunk_size
    )
    return graph, link, traffics, manifest


# ---------------------------------------------------------------------------
# Lease protocol
# ---------------------------------------------------------------------------
class TestLeases:
    def test_acquire_is_exclusive(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=30)
        first = manager.try_acquire("abc123", worker="w1")
        assert isinstance(first, Lease)
        assert manager.try_acquire("abc123", worker="w2") is None
        first.release()
        assert manager.try_acquire("abc123", worker="w2") is not None

    def test_distinct_chunks_are_independent(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=30)
        assert manager.try_acquire("aaa", worker="w1") is not None
        assert manager.try_acquire("bbb", worker="w1") is not None

    def test_expired_lease_is_reclaimed(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=0.5)
        stale = manager.try_acquire("abc123", worker="dead")
        backdated = time.time() - 60
        os.utime(stale.path, (backdated, backdated))
        fresh = manager.try_acquire("abc123", worker="alive")
        assert fresh is not None
        assert fresh.worker == "alive"
        # the dead worker's handle knows it lost ownership
        assert not stale.owned()

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=30)
        held = manager.try_acquire("abc123", worker="w1")
        assert manager.try_acquire("abc123", worker="w2") is None
        assert held.owned()

    def test_stale_reclaim_guard_does_not_wedge_the_chunk(self, tmp_path):
        # A reclaimer that crashed between creating the guard and removing
        # it must not block the chunk forever: the guard expires on the TTL.
        manager = LeaseManager(tmp_path, ttl=0.5)
        stale = manager.try_acquire("abc123", worker="dead")
        backdated = time.time() - 60
        os.utime(stale.path, (backdated, backdated))
        guard = stale.path.with_suffix(".reclaim")
        guard.write_text("{}")
        os.utime(guard, (backdated, backdated))
        # first attempt clears the stale guard, a retry wins the claim
        lease = manager.try_acquire("abc123", worker="alive")
        if lease is None:
            lease = manager.try_acquire("abc123", worker="alive")
        assert lease is not None
        assert not guard.exists()

    def test_refresh_keeps_lease_alive_and_release_drops_it(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=0.4)
        lease = manager.try_acquire("abc123", worker="w1")
        with Heartbeat(lease, interval=0.05):
            time.sleep(0.6)  # > ttl: only the heartbeat keeps it alive
            assert manager.try_acquire("abc123", worker="w2") is None
        time.sleep(0.6)  # heartbeat stopped: now it expires
        assert manager.try_acquire("abc123", worker="w2") is not None

    def test_owned_detects_theft(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=30)
        lease = manager.try_acquire("abc123", worker="w1")
        record = json.loads(lease.path.read_text())
        record["token"] = "somebody-else"
        lease.path.write_text(json.dumps(record))
        assert not lease.owned()
        assert not lease.refresh()
        lease.release()  # must NOT unlink the thief's lease
        assert lease.path.exists()

    def test_active_snapshot(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=0.5)
        manager.try_acquire("young", worker="w1")
        old = manager.try_acquire("old", worker="w2")
        backdated = time.time() - 60
        os.utime(old.path, (backdated, backdated))
        infos = {info.chunk_id: info for info in manager.active()}
        assert set(infos) == {"young", "old"}
        assert not infos["young"].expired
        assert infos["old"].expired
        assert infos["old"].worker == "w2"

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseManager(tmp_path, ttl=0)

    @pytest.mark.parametrize(
        "content",
        [b"", b'{"chunk": "abc123", "wor', b"\0" * 64],
        ids=["empty", "truncated", "zeroed"],
    )
    def test_unreadable_lease_is_owned_by_nobody_and_expires(
        self, tmp_path, capsys, content
    ):
        # A claim is not fsynced, so a host crash can leave its lease file
        # empty, truncated or zero-filled.  Nobody owns such a file, the
        # status readers list it, and it expires on the TTL like any dead
        # worker's lease.
        from repro.chaos import ChaosClock
        from repro.cli import main

        manifest = sweep_manifest()
        store = ChunkStore(tmp_path / "sweep")
        ensure_store_identity(store, manifest.identity())
        clock = ChaosClock()
        lease_dir = store.directory / "leases"
        crashed = LeaseManager(
            lease_dir, ttl=10, clock=clock.time, monotonic=clock.monotonic
        )
        chunk_id = manifest.chunks[0].chunk_id
        lease = crashed.try_acquire(chunk_id, worker="crashed")
        lease.path.write_bytes(content)
        assert not lease.owned()
        (info,) = crashed.active()
        assert (info.chunk_id, info.worker, info.pid) == (chunk_id, "?", -1)
        (running,) = store_status(store.directory, ttl=60)["running"]
        assert running.chunk_id == chunk_id
        assert main(["fleet", "status", "--out-dir", str(store.directory)]) == 0
        assert chunk_id in capsys.readouterr().out
        fresh = LeaseManager(
            lease_dir, ttl=10, clock=clock.time, monotonic=clock.monotonic
        )
        assert fresh.try_acquire(chunk_id, worker="fresh") is None
        clock.advance(10 + 1.0)
        reclaimed = fresh.try_acquire(chunk_id, worker="fresh")
        assert reclaimed is not None and reclaimed.owned()


# ---------------------------------------------------------------------------
# Two-process lease contention (the mutual-exclusion stress test)
# ---------------------------------------------------------------------------
def _claim_stress_worker(lease_dir, chunk_ids, out_file, barrier):
    manager = LeaseManager(lease_dir, ttl=60)
    barrier.wait()  # maximise contention: both processes start together
    claimed = []
    for chunk_id in chunk_ids:
        lease = manager.try_acquire(chunk_id, worker=f"pid-{os.getpid()}")
        if lease is not None:
            claimed.append(chunk_id)  # hold every claim, never release
    Path(out_file).write_text(json.dumps(claimed))


class TestLeaseContention:
    def test_two_processes_never_claim_the_same_chunk(self, tmp_path):
        chunk_ids = [f"chunk{i:04d}" for i in range(200)]
        barrier = multiprocessing.Barrier(2)
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        procs = [
            multiprocessing.Process(
                target=_claim_stress_worker,
                args=(tmp_path / "leases", chunk_ids, out, barrier),
            )
            for out in outs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        claims = [set(json.loads(out.read_text())) for out in outs]
        assert claims[0].isdisjoint(claims[1])
        assert claims[0] | claims[1] == set(chunk_ids)


# ---------------------------------------------------------------------------
# Fleet driver over both backends
# ---------------------------------------------------------------------------
class TestFleetDriver:
    def test_sweep_fleet_merge_is_byte_identical_to_serial(self, tmp_path):
        manifest = sweep_manifest()
        job = SweepFleetJob(manifest, ChunkStore(tmp_path / "sweep"))
        outcome = run_fleet(job, ttl=10, heartbeat=2)
        assert outcome["complete"]
        assert sorted(outcome["ran"]) == sorted(
            chunk.chunk_id for chunk in manifest.chunks
        )
        assert job.merge().rows == degree_diameter_search(2, 6, 60, 70).rows

    def test_sim_fleet_merge_is_byte_identical_to_in_process(self, tmp_path):
        graph, link, traffics, manifest = sim_inputs()
        job = SimFleetJob(manifest, ChunkStore(tmp_path / "sim"), graph, traffics)
        outcome = run_fleet(job, ttl=10, heartbeat=2)
        assert outcome["complete"]
        expected = [
            stats
            for stats, _ in BatchedNetworkSimulator(graph, link=link).run_many(
                traffics, return_messages=False
            )
        ]
        assert job.merge() == expected

    def test_worker_skips_chunks_leased_by_a_live_peer(self, tmp_path):
        manifest = sweep_manifest()
        store = ChunkStore(tmp_path / "sweep")
        leases = LeaseManager(store.directory / "leases", ttl=30)
        held = manifest.chunks[0]
        assert leases.try_acquire(held.chunk_id, worker="peer") is not None
        job = SweepFleetJob(manifest, store)
        outcome = run_fleet(job, ttl=30, heartbeat=5, wait=False)
        assert held.chunk_id not in outcome["ran"]
        assert not outcome["complete"]
        assert len(outcome["ran"]) == len(manifest.chunks) - 1

    def test_worker_holds_one_lease_at_a_time(self, tmp_path):
        store = ChunkStore(tmp_path / "sweep")
        held = []

        class CountingJob(SweepFleetJob):
            def run_chunk(self, chunk):
                held.append(len(list(self.store.directory.glob("leases/*.lease"))))
                return super().run_chunk(chunk)

        manifest = sweep_manifest()
        assert len(manifest.chunks) >= 3
        outcome = run_fleet(CountingJob(manifest, store), ttl=30, heartbeat=5)
        assert outcome["complete"]
        assert held == [1] * len(manifest.chunks)

    def test_one_heartbeat_thread_serves_every_chunk(self, tmp_path, monkeypatch):
        # One thread per run_fleet call refreshes the lease of the chunk
        # being computed: never a released lease, never during a publish,
        # and no lease is held between chunks.
        manifest = sweep_manifest(chunk_size=2)
        assert len(manifest.chunks) >= 5
        store = ChunkStore(tmp_path / "sweep")
        started, refreshed, claims_held, released = [], [], [], set()
        publishing = threading.Event()
        thread_start = threading.Thread.start
        refresh, release = Lease.refresh, Lease.release
        try_acquire, write = LeaseManager.try_acquire, ChunkStore.write

        def counting_start(thread):
            started.append(thread.name)
            thread_start(thread)

        def tracked_refresh(lease):
            refreshed.append(
                (lease.chunk_id, lease.token in released, publishing.is_set())
            )
            return refresh(lease)

        def tracked_release(lease):
            released.add(lease.token)
            release(lease)

        def tracked_acquire(manager, chunk_id, **kwargs):
            claims_held.append(len(list(manager.directory.glob("*.lease"))))
            return try_acquire(manager, chunk_id, **kwargs)

        def tracked_write(chunk_store, chunk, records):
            publishing.set()
            try:
                return write(chunk_store, chunk, records)
            finally:
                publishing.clear()

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(Lease, "refresh", tracked_refresh)
        monkeypatch.setattr(Lease, "release", tracked_release)
        monkeypatch.setattr(LeaseManager, "try_acquire", tracked_acquire)
        monkeypatch.setattr(ChunkStore, "write", tracked_write)

        class SlowJob(SweepFleetJob):
            def run_chunk(self, chunk):
                time.sleep(0.1)  # ten heartbeat intervals
                return super().run_chunk(chunk)

        outcome = run_fleet(SlowJob(manifest, store), ttl=30, heartbeat=0.01)
        assert outcome["complete"] and not outcome["lost"]
        assert started == ["fleet-heartbeat"]
        assert claims_held == [0] * len(manifest.chunks)
        assert list(store.directory.glob("leases/*.lease")) == []
        assert len({chunk_id for chunk_id, _, _ in refreshed}) >= 2
        assert not any(gone or during for _, gone, during in refreshed)

    def test_claim_recheck_does_not_list_the_store(self, tmp_path, monkeypatch):
        # One directory listing per pass, however many chunks are claimed:
        # the re-check after a claim is a stat of that chunk's file.
        listings = []
        completed_ids = ChunkStore.completed_ids

        def counted(store):
            listings.append(store.directory)
            return completed_ids(store)

        monkeypatch.setattr(ChunkStore, "completed_ids", counted)
        counts = {}
        for chunk_size in (4, 1):
            manifest = ChunkManifest.build(2, 6, [60], chunk_size=chunk_size)
            store = ChunkStore(tmp_path / f"size-{chunk_size}")
            listings.clear()
            outcome = run_fleet(SweepFleetJob(manifest, store), ttl=30, wait=False)
            assert outcome["complete"]
            counts[len(manifest.chunks)] = len(listings)
        assert set(counts) == {2, 8}
        assert counts[2] == counts[8]

    def test_fleet_refuses_mismatched_store(self, tmp_path):
        store = ChunkStore(tmp_path / "sweep")
        run_fleet(SweepFleetJob(sweep_manifest(chunk_size=4), store), ttl=10)
        other = sweep_manifest(chunk_size=5)
        with pytest.raises(StoreIdentityError, match="chunk_size"):
            run_fleet(SweepFleetJob(other, store), ttl=10)

    def test_fleet_resumes_partially_filled_shard_store(self, tmp_path):
        # A fleet finishes what an interrupted worker started: same
        # manifest, same store, the leases only cover what is left.
        from repro.otis.sweep import merge_sweep

        manifest = sweep_manifest()
        store = ChunkStore(tmp_path / "sweep")
        first = run_fleet(
            SweepFleetJob(manifest, store), ttl=10, heartbeat=2, max_chunks=2
        )
        assert len(first["ran"]) == 2 and not first["complete"]
        job = SweepFleetJob(manifest, store)
        outcome = run_fleet(job, ttl=10, heartbeat=2)
        assert outcome["complete"]
        assert sorted(outcome["ran"]) == sorted(
            chunk.chunk_id
            for chunk in manifest.chunks
            if chunk.chunk_id not in first["ran"]
        )
        assert merge_sweep(manifest, store).rows == degree_diameter_search(
            2, 6, 60, 70
        ).rows

    def test_status_snapshot_counts(self, tmp_path):
        manifest = sweep_manifest()
        store = ChunkStore(tmp_path / "sweep")
        job = SweepFleetJob(manifest, store)
        run_fleet(job, ttl=10, heartbeat=2, max_chunks=1)
        leases = LeaseManager(store.directory / "leases", ttl=10)
        leases.try_acquire(
            next(
                chunk.chunk_id
                for chunk in manifest.chunks
                if not store.is_complete(chunk)
            ),
            worker="peer",
        )
        status = fleet_status(job, ttl=10)
        assert status["chunks"] == len(manifest.chunks)
        assert status["complete"] == 1
        assert len(status["running"]) == 1
        assert status["pending"] == len(manifest.chunks) - 2
        assert not status["done"]
        text = format_status(status, summary="probe")
        assert "held by peer" in text
        assert "probe" in text

    def test_store_status_json_schema_round_trips(self, tmp_path):
        # The `repro fleet status --json` contract: the snapshot read from
        # the store alone (no job parameters) serialises to JSON, round-trips
        # exactly, and agrees with the job-based reader.
        from repro.fleet import status_to_json, store_status

        manifest = sweep_manifest()
        store = ChunkStore(tmp_path / "sweep")
        job = SweepFleetJob(manifest, store)
        run_fleet(job, ttl=10, heartbeat=2, max_chunks=1)
        leases = LeaseManager(store.directory / "leases", ttl=10)
        leases.try_acquire(
            next(
                chunk.chunk_id
                for chunk in manifest.chunks
                if not store.is_complete(chunk)
            ),
            worker="peer",
        )
        status = store_status(store.directory, ttl=10)
        reference = fleet_status(job, ttl=10)
        for key in ("chunks", "complete", "pending", "done"):
            assert status[key] == reference[key]
        payload = status_to_json(status)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["chunks"] == len(manifest.chunks)
        assert payload["complete"] == 1
        (running,) = payload["running"]
        assert set(running) == {
            "chunk_id",
            "worker",
            "pid",
            "host",
            "age_s",
            "expired",
        }
        assert running["worker"] == "peer"
        assert running["expired"] is False
        assert payload["identity"]["kind"] == "degree-diameter-sweep"
        # format_status renders the store-read snapshot too.
        assert "held by peer" in format_status(status)

    def test_manifest_json_key_sets_are_pinned(self, tmp_path):
        # `fleet status --json` prints a store's manifest.json as its
        # "identity": its keys are part of that contract, per store kind.
        from repro.simulation.network import BufferedLinkModel
        from repro.simulation.scenarios import Scenario, UniformArrivals

        shared = {"kind", "chunk_size", "code_version", "num_chunks", "chunk_ids"}
        sim = shared | {
            "graph_fingerprint",
            "link_latency",
            "link_transmission_time",
            "router",
            "num_replicas",
        }
        graph, _, traffics, sim_manifest = sim_inputs(replicas=2, messages=5)
        scenario = Scenario(
            arrivals=UniformArrivals(5), link=BufferedLinkModel(capacity=2)
        )
        scenario_manifest = ReplicaChunkManifest.build(
            graph, traffics, scenario=scenario
        )
        cases = [
            (sweep_manifest(), shared | {"d", "diameter", "require_exact", "n_values"}),
            (sim_manifest, sim),
            (scenario_manifest, sim | {"scenario_digest"}),
        ]
        for index, (manifest, keys) in enumerate(cases):
            store = ChunkStore(tmp_path / str(index))
            ensure_store_identity(store, manifest.identity())
            assert set(json.loads((store.directory / "manifest.json").read_text())) == keys
            assert set(store_status(store.directory, ttl=10)["identity"]) == keys

    def test_store_status_without_manifest_fails_fast(self, tmp_path):
        from repro.fleet import store_status

        with pytest.raises(FileNotFoundError, match="manifest.json"):
            store_status(tmp_path / "empty", ttl=10)

    def test_scenario_fleet_merge_is_byte_identical(self, tmp_path):
        # A fleet job whose manifest carries a Scenario runs the degraded
        # model (faults + finite buffers + reroute) and still merges
        # byte-identically to the in-process scenario run_many.
        from repro.simulation.network import BufferedLinkModel
        from repro.simulation.scenarios import (
            FaultPlan,
            Scenario,
            UniformArrivals,
        )

        graph = h_digraph(8, 16, 2)
        scenario = Scenario(
            arrivals=UniformArrivals(40, rate=1.5),
            link=BufferedLinkModel(capacity=2, on_full="retry"),
            faults=FaultPlan.random_link_failures(graph, 10, at=2.0, seed=3),
            reroute="arc-disjoint",
        )
        traffics = [
            scenario.traffic(graph.num_vertices, rng=seed) for seed in range(4)
        ]
        manifest = ReplicaChunkManifest.build(
            graph, traffics, scenario=scenario, chunk_size=2
        )
        job = SimFleetJob(manifest, ChunkStore(tmp_path / "sim"), graph, traffics)
        outcome = run_fleet(job, ttl=10, heartbeat=2)
        assert outcome["complete"]
        expected = [
            stats
            for stats, _ in BatchedNetworkSimulator(
                graph, scenario=scenario
            ).run_many(traffics, return_messages=False)
        ]
        assert job.merge() == expected
        assert any(stats.dropped_fault or stats.rerouted_hops for stats in expected)


# ---------------------------------------------------------------------------
# Concurrent fleet processes: dynamic assignment, no chunk ever runs twice
# ---------------------------------------------------------------------------
class _SlowSweepJob(SweepFleetJob):
    """Sweep job with an artificial per-chunk delay so two concurrent
    workers genuinely overlap instead of one draining the queue first."""

    def run_chunk(self, chunk):
        time.sleep(0.05)
        return super().run_chunk(chunk)


def _fleet_worker_process(out_dir, result_file, barrier):
    job = _SlowSweepJob(sweep_manifest(chunk_size=2), ChunkStore(out_dir))
    barrier.wait()
    outcome = run_fleet(job, ttl=30, heartbeat=5, worker_id=f"pid-{os.getpid()}")
    Path(result_file).write_text(json.dumps(outcome))


class TestConcurrentFleet:
    def test_two_fleet_processes_split_the_chunks_exactly_once(self, tmp_path):
        manifest = sweep_manifest(chunk_size=2)
        out_dir = tmp_path / "sweep"
        barrier = multiprocessing.Barrier(2)
        results = [tmp_path / "a.json", tmp_path / "b.json"]
        procs = [
            multiprocessing.Process(
                target=_fleet_worker_process, args=(out_dir, result, barrier)
            )
            for result in results
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        outcomes = [json.loads(result.read_text()) for result in results]
        ran = [set(outcome["ran"]) for outcome in outcomes]
        # the core guarantee: no chunk executed by both workers...
        assert ran[0].isdisjoint(ran[1])
        # ...every chunk executed by someone...
        assert ran[0] | ran[1] == {chunk.chunk_id for chunk in manifest.chunks}
        assert not outcomes[0]["lost"] and not outcomes[1]["lost"]
        # ...and the merge is byte-identical to the serial search.
        job = SweepFleetJob(manifest, ChunkStore(out_dir))
        assert job.merge().rows == degree_diameter_search(2, 6, 60, 70).rows


# ---------------------------------------------------------------------------
# SIGKILL a worker mid-chunk: expired lease is reclaimed, merge identical
# ---------------------------------------------------------------------------
_KILL_WORKER_TEMPLATE = """
import sys, time
sys.path.insert(0, {src!r})
{setup}
real = job.run_chunk
def slow(chunk):
    time.sleep(60.0)  # parked mid-chunk until SIGKILL arrives
    return real(chunk)
job.run_chunk = slow
from repro.fleet import run_fleet
run_fleet(job, ttl=600, heartbeat=0.1)
"""

_SWEEP_SETUP = """
from repro.fleet import SweepFleetJob
from repro.otis.sweep import ChunkManifest, ChunkStore
manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=4)
job = SweepFleetJob(manifest, ChunkStore({out!r}))
"""

_SIM_SETUP = """
from repro.fleet import SimFleetJob
from repro.otis.h_digraph import h_digraph
from repro.otis.sweep import ChunkStore
from repro.simulation.network import LinkModel
from repro.simulation.sharding import ReplicaChunkManifest
from repro.simulation.workloads import make_workload
graph = h_digraph(8, 16, 2)
link = LinkModel(latency=0.7, transmission_time=0.3)
traffics = [make_workload("uniform", graph.num_vertices, 60, rng=seed)
            for seed in range(4)]
manifest = ReplicaChunkManifest.build(graph, traffics, link=link, chunk_size=1)
job = SimFleetJob(manifest, ChunkStore({out!r}), graph, traffics)
"""


def _kill_nine_mid_chunk(tmp_path, setup_template, out_dir):
    """Start a fleet worker subprocess, SIGKILL it once it holds a lease.

    Returns the chunk id the victim was holding when it died.
    """
    script = tmp_path / "victim.py"
    script.write_text(
        _KILL_WORKER_TEMPLATE.format(
            src=SRC, setup=setup_template.format(out=str(out_dir))
        )
    )
    victim = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    lease_dir = Path(out_dir) / "leases"
    deadline = time.time() + 60
    victim_chunk = None
    while time.time() < deadline:
        for lease in lease_dir.glob("*.lease"):
            try:  # the payload lands just after the O_EXCL create
                victim_chunk = json.loads(lease.read_text())["chunk"]
                break
            except (OSError, ValueError):
                continue
        if victim_chunk is not None:
            break
        if victim.poll() is not None:
            pytest.fail("victim worker exited before claiming a lease")
        time.sleep(0.01)
    assert victim_chunk is not None, "victim never claimed a lease"
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait(timeout=30)
    # the orphaned lease file survives the kill - that is the point
    assert (lease_dir / f"{victim_chunk}.lease").exists()
    return victim_chunk


class TestKillNineRecovery:
    def test_sweep_fleet_reclaims_after_sigkill(self, tmp_path):
        out_dir = tmp_path / "sweep"
        victim_chunk = _kill_nine_mid_chunk(tmp_path, _SWEEP_SETUP, out_dir)
        manifest = sweep_manifest()
        job = SweepFleetJob(manifest, ChunkStore(out_dir))
        # relaunched fleet: the victim's lease expires on our TTL and is
        # reclaimed; wait=True keeps polling until the store completes.
        outcome = run_fleet(job, ttl=0.5, heartbeat=0.1)
        assert outcome["complete"]
        assert victim_chunk in outcome["ran"]
        assert job.merge().rows == degree_diameter_search(2, 6, 60, 70).rows

    def test_sim_fleet_reclaims_after_sigkill(self, tmp_path):
        out_dir = tmp_path / "sim"
        victim_chunk = _kill_nine_mid_chunk(tmp_path, _SIM_SETUP, out_dir)
        graph, link, traffics, manifest = sim_inputs()
        job = SimFleetJob(manifest, ChunkStore(out_dir), graph, traffics)
        outcome = run_fleet(job, ttl=0.5, heartbeat=0.1)
        assert outcome["complete"]
        assert victim_chunk in outcome["ran"]
        expected = [
            stats
            for stats, _ in BatchedNetworkSimulator(graph, link=link).run_many(
                traffics, return_messages=False
            )
        ]
        assert job.merge() == expected


# ---------------------------------------------------------------------------
# CLI smoke: the end-to-end claim/run/reclaim/merge cycle in tier-1
# ---------------------------------------------------------------------------
class TestFleetCli:
    def test_fleet_smoke_end_to_end(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "expired lease reclaimed: True" in out
        assert "merge identical to serial search: True" in out
        assert "merge identical to in-process run_many: True" in out
        assert "fleet smoke: OK" in out
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "smoke"])
        assert excinfo.value.code == 2

    def test_fleet_sweep_run_watch_merge(self, capsys, tmp_path):
        from repro.cli import main

        args = [
            "fleet", "sweep",
            "-D", "6",
            "--n-min", "62",
            "--n-max", "66",
            "--out-dir", str(tmp_path / "sweep"),
            "--chunk-size", "8",
        ]
        assert main(args + ["--ttl", "10"]) == 0
        out = capsys.readouterr().out
        assert "chunks complete" in out
        assert main(args + ["--watch"]) == 0
        assert "complete" in capsys.readouterr().out
        assert main(args + ["--merge"]) == 0
        assert "B(2,6)" in capsys.readouterr().out

    def test_fleet_sim_run_then_merge(self, capsys, tmp_path):
        from repro.cli import main

        args = [
            "fleet", "sim",
            "-p", "4", "-q", "8",
            "--messages", "25",
            "--seeds", "4",
            "--out-dir", str(tmp_path / "sim"),
            "--chunk-size", "2",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--merge"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "100/100" in out

    def test_fleet_sim_merge_writes_bench_json_without_a_check(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        args = [
            "fleet", "sim",
            "-p", "4", "-q", "8",
            "--messages", "20",
            "--seeds", "2",
            "--out-dir", str(tmp_path / "sim"),
            "--chunk-size", "2",
        ]
        assert main(args) == 0
        capsys.readouterr()
        target = tmp_path / "BENCH_sim.json"
        assert main(args + ["--merge", "--json", str(target)]) == 0
        out = capsys.readouterr().out
        entry = json.loads(target.read_text())["sweep_H(4,8,2)_fleet"]
        assert entry["curves"][0]["delivered"] == 40
        assert "wall_time_s" not in entry  # the fold never timed the sim
        # the merge writes the BENCH file and nothing more: the regression
        # gate is `python -m repro.analysis.bench_check`, run on purpose
        assert f"wrote {target}" in out
        assert "bench-check" not in out

    def test_fleet_cli_reports_identity_mismatch(self, capsys, tmp_path):
        from repro.cli import main

        common = [
            "fleet", "sweep",
            "-D", "6",
            "--out-dir", str(tmp_path / "sweep"),
            "--chunk-size", "8",
        ]
        assert main(common + ["--n-min", "62", "--n-max", "66"]) == 0
        capsys.readouterr()
        assert main(common + ["--n-min", "62", "--n-max", "67"]) == 1
        assert "identity mismatch" in capsys.readouterr().err

    def test_fleet_without_mode_errors(self, capsys):
        from repro.cli import main

        assert main(["fleet"]) == 2
        assert "fleet needs a mode" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Router parity inside worker processes (the fleet/sharded run_many path)
# ---------------------------------------------------------------------------
def on_demand(graph, columns):
    """A table router whose budget holds ``columns`` columns of ``graph``
    (the budget is restored after construction)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(
            routers, "TABLE_BUDGET_BYTES", 5 * graph.num_vertices * columns
        )
        return DenseTableRouter(graph)


def _routes_in_worker(graph, kind, sources, targets):
    """Build a router of ``kind`` from a pickled graph; return its hops.
    ``"lru"`` is the table router with a store of three columns."""
    router = on_demand(graph, 3) if kind == "lru" else make_router(graph, kind)
    return router.next_hops(np.asarray(sources), np.asarray(targets)).tolist()


class TestRouterWorkerParity:
    def test_on_demand_eviction_stays_bit_identical_to_dense(self):
        # the table router's on-demand store, emptied again and again
        graph = h_digraph(8, 16, 2)
        n = graph.num_vertices
        dense = DenseTableRouter(graph)
        lru = on_demand(graph, 3)
        empty = lru.state_bytes()
        rng = np.random.default_rng(7)
        for _ in range(25):  # far more distinct targets than columns
            sources = rng.integers(n, size=40)
            targets = rng.choice(n, 2)[rng.integers(2, size=40)]
            assert np.array_equal(
                lru.next_hops(sources, targets), dense.next_hops(sources, targets)
            )
        assert lru.state_bytes() - empty <= 3 * 5 * n

    def test_on_demand_router_pickle_round_trip_parity(self):
        graph = h_digraph(8, 16, 2)
        n = graph.num_vertices
        rng = np.random.default_rng(11)
        warm_sources = rng.integers(n, size=30)
        warm_targets = rng.choice(n, 3)[rng.integers(3, size=30)]
        original = on_demand(graph, 4)
        original.next_hops(warm_sources, warm_targets)  # fill three columns
        clone = pickle.loads(pickle.dumps(original))
        assert clone.state_bytes() == original.state_bytes()
        dense = DenseTableRouter(graph)
        probe_sources = rng.integers(n, size=200)
        probe_targets = rng.integers(n, size=200)
        assert np.array_equal(
            clone.next_hops(probe_sources, probe_targets),
            dense.next_hops(probe_sources, probe_targets),
        )

    @pytest.mark.parametrize("kind", ["dense", "lru"])
    def test_worker_process_routes_match_parent(self, kind):
        from concurrent.futures import ProcessPoolExecutor

        graph = h_digraph(8, 16, 2)
        n = graph.num_vertices
        rng = np.random.default_rng(3)
        sources = rng.integers(n, size=150).tolist()
        targets = rng.integers(n, size=150).tolist()
        parent = make_router(graph, "dense").next_hops(
            np.asarray(sources), np.asarray(targets)
        )
        with ProcessPoolExecutor(max_workers=1) as pool:
            worker = pool.submit(
                _routes_in_worker, graph, kind, sources, targets
            ).result()
        assert np.array_equal(parent, np.asarray(worker))

    def test_two_table_router_workers_match_the_wrapping_router_pass(
        self, tmp_path, fleet_processes
    ):
        # The full stack: the job (graph included) pickled into two spawned
        # fleet worker processes on one store, each rebuilding its own table
        # router, then the one-call wrapper merges the store byte-identical
        # to the in-process pass through a wrapping router (the numpy path).
        graph, link, traffics, _ = sim_inputs(replicas=4, messages=50)
        expected = [
            stats
            for stats, _ in BatchedNetworkSimulator(
                graph, link=link, router=WrappingRouter(graph)
            ).run_many(traffics, return_messages=False)
        ]
        manifest = ReplicaChunkManifest.build(
            graph, traffics, link=link, router="dense", chunk_size=1
        )
        job = SimFleetJob(manifest, ChunkStore(tmp_path), graph, traffics)
        fleet_processes(job, 2)
        assert job.store.completed_ids() == {c.chunk_id for c in manifest.chunks}
        merged = run_many_sharded(
            graph, traffics, link=link, router="dense", store=tmp_path, chunk_size=1
        )
        assert merged == expected
