"""Chaos tests: the seeded fault-injection harness and what it proves.

Three layers:

* unit tests of the harness itself (``repro.chaos``) — schedule determinism
  and order-independence, fault budgets, injector scoping/restoration, the
  torn-write and swallowed-heartbeat fault shapes;
* a fast fixed-seed subset (always runs) driving the real production seams —
  ``run_fleet``/``merge_sweep`` resume, the lease claim/heartbeat/reclaim
  cycle on an injected clock, and the serve registry's degrade-to-last-good
  reload — under a handful of schedules;
* the full sweeps behind ``@pytest.mark.chaos`` (``--run-chaos``): 200
  seeded fault schedules in total (120 sweep-resume, 80 lease-protocol),
  each asserting the acceptance contract: **no double
  claims, no corrupt merges, byte-identical convergence to the fault-free
  result** once the fault budget is spent.

Every schedule caps its injections (``max_faults``), so "retry until it
converges" terminates by construction — a loop that does not converge within
``max_faults + 1`` attempts is a genuine robustness bug, and the tests fail
it loudly rather than spinning.
"""

import io
import json
import os
import time
import warnings
from pathlib import Path

import pytest

from repro.chaos import (
    DEFAULT_KINDS,
    ChaosClock,
    ChaosFault,
    ChaosInjector,
    ChaosSchedule,
)
from repro.fleet import SweepFleetJob, run_fleet
from repro.fleet.driver import LEASE_DIR_NAME
from repro.fleet.leases import LeaseManager
from repro.otis.sweep import (
    ChunkManifest,
    ChunkStore,
    merge_sweep,
    run_chunk,
)
from repro.serve.registry import RouterRegistry

#: Fixed stand-in for :func:`repro.otis.sweep.code_version` — keeps the tiny
#: chaos manifests' chunk ids stable across kernel backends and source edits
#: (the chaos suite tests the I/O seams, not the verdict code).
CODE_VERSION = "chaos-test-v1"

#: Seed ranges.  The ``FAST_*`` subsets always run; the full ranges are the
#: ``--run-chaos`` acceptance sweeps (200 schedules in total).
FAST_SWEEP_SEEDS = range(12)
FULL_SWEEP_SEEDS = range(12, 132)  # 120 schedules
FAST_LEASE_SEEDS = range(1000, 1006)
FULL_LEASE_SEEDS = range(1006, 1086)  # 80 schedules


def tiny_manifest(chunk_size: int = 2) -> ChunkManifest:
    return ChunkManifest.build(
        2, 4, [16], chunk_size=chunk_size, code_version=CODE_VERSION
    )


def chunk_records(chunk) -> list[dict]:
    """Fault-free records of one chunk (no cache, pure computation)."""
    return run_chunk(2, 4, chunk.items)


# ---------------------------------------------------------------------------
# ChaosSchedule: determinism, order-independence, budgets, normalisation
# ---------------------------------------------------------------------------
class TestChaosSchedule:
    OPS = [
        ("write", "chunk-aa.jsonl"),
        ("fsync", "chunk-aa.jsonl"),
        ("rename", "chunk-aa.jsonl"),
        ("write", "chunk-bb.jsonl"),
        ("utime", "aa.lease"),
        ("read-open", "manifest.json"),
        ("link", "aa.lease"),
        ("unlink", "aa.lease"),
    ]

    def drive(self, schedule: ChaosSchedule, rounds: int = 20) -> list:
        for _ in range(rounds):
            for op, name in self.OPS:
                schedule.decide(op, name)
        return schedule.log

    def test_same_seed_same_log(self):
        first = self.drive(ChaosSchedule(7))
        second = self.drive(ChaosSchedule(7))
        assert first == second
        assert first  # the default rates do inject something in 160 ops

    def test_different_seeds_diverge(self):
        logs = {tuple(self.drive(ChaosSchedule(seed))) for seed in range(5)}
        assert len(logs) == 5

    def test_decisions_are_order_independent_across_files(self):
        # Interleaved vs file-grouped operation orders must produce the
        # same per-(op, name, count) decisions — the property that makes
        # replay survive thread scheduling differences.
        interleaved = ChaosSchedule(3)
        for _ in range(15):
            interleaved.decide("write", "chunk-aa.jsonl")
            interleaved.decide("write", "chunk-bb.jsonl")
        grouped = ChaosSchedule(3)
        for _ in range(15):
            grouped.decide("write", "chunk-aa.jsonl")
        for _ in range(15):
            grouped.decide("write", "chunk-bb.jsonl")
        key = lambda e: (e.op, e.name, e.count)  # noqa: E731
        assert {key(e): e.kind for e in interleaved.log} == {
            key(e): e.kind for e in grouped.log
        }

    def test_zero_rates_never_fault(self):
        schedule = ChaosSchedule(1, rates={op: 0.0 for op in DEFAULT_KINDS})
        assert not self.drive(schedule, rounds=50)
        assert schedule.injected == 0

    def test_unknown_op_never_faults(self):
        schedule = ChaosSchedule(1)
        assert all(
            schedule.decide("mmap", "chunk-aa.jsonl") is None for _ in range(100)
        )

    def test_max_faults_budget_is_exact(self):
        schedule = ChaosSchedule(
            2, rates={"write": 1.0}, kinds={"write": ("eio",)}, max_faults=3
        )
        kinds = [schedule.decide("write", "chunk-aa.jsonl") for _ in range(10)]
        assert kinds[:3] == ["eio"] * 3
        assert kinds[3:] == [None] * 7
        assert schedule.injected == 3

    def test_normalize_collapses_random_tmp_names(self):
        assert ChaosSchedule.normalize("/a/b/.tmp-1234-cafe.jsonl") == ".tmp"
        assert ChaosSchedule.normalize(Path("/x/.tmp-9-beef")) == ".tmp"
        assert (
            ChaosSchedule.normalize("/a/b/chunk-0011.jsonl") == "chunk-0011.jsonl"
        )
        assert ChaosSchedule.normalize("abc123.lease") == "abc123.lease"


# ---------------------------------------------------------------------------
# ChaosInjector: scoping, errno fidelity, fault shapes, restoration
# ---------------------------------------------------------------------------
def always(op: str, kind: str, *, max_faults: int | None = None) -> ChaosSchedule:
    """A schedule injecting ``kind`` on every ``op`` (until the budget)."""
    return ChaosSchedule(
        0, rates={op: 1.0}, kinds={op: (kind,)}, max_faults=max_faults
    )


class TestChaosInjector:
    def test_fault_is_oserror_with_real_errno(self, tmp_path):
        with ChaosInjector(always("open", "eio"), roots=[tmp_path]):
            with pytest.raises(ChaosFault) as excinfo:
                open(tmp_path / "x.txt", "w")
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.errno == 17 or excinfo.value.errno > 0
        import errno as errno_mod

        assert excinfo.value.errno == errno_mod.EIO
        assert excinfo.value.kind == "eio"
        assert excinfo.value.op == "open"

    def test_out_of_scope_paths_pass_through(self, tmp_path):
        inside, outside = tmp_path / "in", tmp_path / "out"
        inside.mkdir(), outside.mkdir()
        with ChaosInjector(always("open", "eio"), roots=[inside]):
            (outside / "ok.txt").write_text("fine")
        assert (outside / "ok.txt").read_text() == "fine"

    def test_injectors_refuse_to_nest(self, tmp_path):
        with ChaosInjector(ChaosSchedule(0), roots=[tmp_path]):
            with pytest.raises(RuntimeError, match="already active"):
                ChaosInjector(ChaosSchedule(1), roots=[tmp_path]).__enter__()

    def test_originals_restored_on_exit(self, tmp_path):
        saved = (os.open, os.write, os.replace, os.link, os.utime, io.open, open)
        with ChaosInjector(ChaosSchedule(0), roots=[tmp_path]):
            assert os.open is not saved[0]
        assert (os.open, os.write, os.replace, os.link, os.utime, io.open, open) == (
            saved
        )
        (tmp_path / "sanity.txt").write_text("post-exit writes work")

    def test_torn_write_leaves_half_the_payload(self, tmp_path):
        target = tmp_path / "torn.bin"
        with ChaosInjector(always("write", "torn", max_faults=1), roots=[tmp_path]):
            fd = os.open(target, os.O_CREAT | os.O_WRONLY)
            try:
                with pytest.raises(ChaosFault, match="torn"):
                    os.write(fd, b"0123456789")
            finally:
                os.close(fd)
        assert target.read_bytes() == b"01234"  # exactly half landed

    def test_lost_utime_swallows_the_heartbeat(self, tmp_path):
        target = tmp_path / "hb.lease"
        target.write_text("{}")
        os.utime(target, (1000.0, 1000.0))
        with ChaosInjector(always("utime", "lost", max_faults=1), roots=[tmp_path]):
            os.utime(target, (2000.0, 2000.0))  # swallowed: no error, no effect
        assert target.stat().st_mtime == 1000.0
        os.utime(target, (2000.0, 2000.0))  # budget spent: applies normally
        assert target.stat().st_mtime == 2000.0

    def test_lost_rename_never_publishes(self, tmp_path):
        source, target = tmp_path / "a.txt", tmp_path / "b.txt"
        source.write_text("payload")
        with ChaosInjector(
            always("rename", "lost", max_faults=1), roots=[tmp_path]
        ):
            os.replace(source, target)  # silently not applied
        assert source.exists() and not target.exists()

    def test_applied_eio_rename_both_applies_and_raises(self, tmp_path):
        source, target = tmp_path / "a.txt", tmp_path / "b.txt"
        source.write_text("payload")
        with ChaosInjector(
            always("rename", "applied-eio", max_faults=1), roots=[tmp_path]
        ):
            with pytest.raises(ChaosFault):
                os.replace(source, target)
        assert target.read_text() == "payload" and not source.exists()


class TestChaosClock:
    def test_advance_moves_both_clocks(self):
        clock = ChaosClock(start=100.0)
        clock.advance(5.0)
        assert clock.time() == 105.0 and clock.monotonic() == 105.0

    def test_skew_offsets_wall_time_only(self):
        clock = ChaosClock(start=100.0, skew=7.0)
        assert clock.time() == 107.0 and clock.monotonic() == 100.0

    def test_time_only_moves_forward(self):
        with pytest.raises(ValueError):
            ChaosClock().advance(-1.0)


# ---------------------------------------------------------------------------
# Sweep-resume chaos: retry run_fleet/merge_sweep until byte-identical
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sweep_baseline(tmp_path_factory):
    """Fault-free reference: chunk files' bytes and the merged rows."""
    manifest = tiny_manifest()
    store = ChunkStore(tmp_path_factory.mktemp("baseline") / "store")
    for chunk in manifest.chunks:
        store.write(chunk, chunk_records(chunk))
    chunk_bytes = {
        chunk.chunk_id: store.path_for(chunk).read_bytes()
        for chunk in manifest.chunks
    }
    return chunk_bytes, merge_sweep(manifest, store).rows


def expire_leases(lease_dir: Path) -> None:
    """Age every lease (and reclaim guard) past the TTL.

    The real-clock counterpart of ``clock.advance(LEASE_TTL + 1.0)`` in the
    lease chaos tests below: a fault can orphan a lease (a release whose
    ownership re-read failed leaves the file behind), and only expiry lets
    the next worker reclaim it — exactly how a relaunched fleet recovers
    from a crashed worker, one TTL later.
    """
    backdated = time.time() - 3600
    for path in sorted(lease_dir.glob("*")):
        os.utime(path, (backdated, backdated))


def converge_sweep(root: Path, seed: int, *, max_faults: int = 8):
    """One chaos schedule against run_fleet + merge_sweep, retried dry.

    Returns ``(manifest, store, merged_rows, schedule)``.  Any exception
    other than an injected :class:`ChaosFault` is a robustness bug and
    propagates to fail the test.  Faults are injected only while a worker
    runs; between attempts a TTL passes (:func:`expire_leases`).
    """
    manifest = tiny_manifest()
    store_dir = root / "store"
    cache_dir = root / "cache"
    schedule = ChaosSchedule(seed, max_faults=max_faults)
    injector = ChaosInjector(schedule, roots=[root])
    merged = None
    with warnings.catch_warnings():
        # Torn cache lines are recovered with a RuntimeWarning by design.
        warnings.simplefilter("ignore", RuntimeWarning)
        for attempt in range(max_faults + 2):
            if attempt:
                expire_leases(store_dir / LEASE_DIR_NAME)
            try:
                with injector:
                    job = SweepFleetJob(manifest, store_dir, cache=cache_dir)
                    run_fleet(job, wait=False)
                    merged = merge_sweep(manifest, store_dir)
                break
            except ChaosFault:
                continue
            except FileNotFoundError:
                # A fault left a chunk unpublished (a lost rename, or a
                # lease the worker could not reclaim yet); the next worker
                # run recomputes it — exactly how a relaunched fleet
                # converges.
                continue
        else:  # pragma: no cover - convergence bug
            pytest.fail(
                f"seed {seed}: not converged after {max_faults + 2} "
                f"attempts with a budget of {max_faults} faults"
            )
    return manifest, ChunkStore(store_dir), merged.rows, schedule


def assert_sweep_converged(root: Path, seed: int, baseline) -> int:
    baseline_bytes, baseline_rows = baseline
    manifest, store, rows, schedule = converge_sweep(root, seed)
    assert rows == baseline_rows
    for chunk in manifest.chunks:
        assert store.path_for(chunk).read_bytes() == baseline_bytes[chunk.chunk_id], (
            f"seed {seed}: chunk {chunk.chunk_id} bytes diverged "
            f"(faults: {schedule.log})"
        )
        store.read(chunk)  # footer still validates — no corrupt publication
    return schedule.injected


class TestSweepChaosFast:
    @pytest.mark.parametrize("seed", FAST_SWEEP_SEEDS)
    def test_sweep_converges_byte_identical(self, tmp_path, seed, sweep_baseline):
        assert_sweep_converged(tmp_path, seed, sweep_baseline)

    def test_fixed_seeds_do_inject(self, tmp_path, sweep_baseline):
        # Meta-check: the fast subset is not vacuous — across its seeds the
        # schedules actually fired faults into the production seams.
        total = sum(
            assert_sweep_converged(tmp_path / f"s{seed}", seed, sweep_baseline)
            for seed in FAST_SWEEP_SEEDS
        )
        assert total >= len(FAST_SWEEP_SEEDS)  # on average ≥1 fault per seed


@pytest.mark.chaos
class TestSweepChaosFull:
    @pytest.mark.parametrize("seed", FULL_SWEEP_SEEDS)
    def test_sweep_converges_byte_identical(self, tmp_path, seed, sweep_baseline):
        assert_sweep_converged(tmp_path, seed, sweep_baseline)


# ---------------------------------------------------------------------------
# Lease-protocol chaos: injected clock, swallowed heartbeats, no double claim
# ---------------------------------------------------------------------------
LEASE_TTL = 10.0

#: Rates tuned for the lease seams; ``link`` keeps its NFS-honest kinds from
#: DEFAULT_KINDS (no silent "lost" link — a lost NFS link reply means the op
#: WAS applied, which is exactly the ``applied-eio`` + ``st_nlink`` case).
LEASE_RATES = {
    "open": 0.05,
    "read-open": 0.08,
    "write": 0.05,
    "fsync": 0.05,
    "link": 0.10,
    "unlink": 0.08,
    "utime": 0.20,
}


def lease_chaos_round(root: Path, seed: int) -> dict:
    """Three simulated workers contending for one chunk over 120 fake seconds.

    Each round every worker either heartbeats its held lease, finishes a
    5-step hold (publishing only if ``owned()``), or attempts a claim.  The
    invariant asserted *every* round is mutual exclusion: at most one worker's
    lease verifies as owned.  Returns counters for the meta-assertions.
    """
    root.mkdir(parents=True, exist_ok=True)
    clock = ChaosClock()
    schedule = ChaosSchedule(seed, rates=LEASE_RATES, max_faults=12)
    managers = [
        LeaseManager(
            root, ttl=LEASE_TTL, clock=clock.time, monotonic=clock.monotonic
        )
        for _ in range(3)
    ]
    held: dict[int, tuple] = {}  # worker -> (lease, acquired_step)
    counts = {"acquired": 0, "published": 0, "lost": 0, "claim_faults": 0}
    with ChaosInjector(schedule, roots=[root]):
        for step in range(120):
            clock.advance(1.0)
            for w, manager in enumerate(managers):
                if w in held:
                    lease, since = held[w]
                    if step - since >= 5:  # "computation" done — publish?
                        if lease.owned():
                            counts["published"] += 1
                            lease.release()
                        else:
                            counts["lost"] += 1
                        del held[w]
                    else:
                        lease.refresh()  # heartbeat (maybe swallowed)
                elif (step + w) % 3 == 0:
                    try:
                        lease = manager.try_acquire("chunk01", worker=f"w{w}")
                    except ChaosFault:
                        counts["claim_faults"] += 1
                        lease = None
                    if lease is not None:
                        counts["acquired"] += 1
                        held[w] = (lease, step)
            # THE invariant: never two simultaneously verified owners.
            owners = [w for w, (lease, _) in held.items() if lease.owned()]
            assert len(owners) <= 1, (
                f"seed {seed} step {step}: double claim by workers {owners} "
                f"(faults so far: {schedule.log})"
            )
    # Liveness within the budget: work did complete despite the faults.
    assert counts["published"] >= 1, f"seed {seed}: no hold ever completed"
    # Post-chaos: the directory is never wedged — once the (fault-free)
    # dust settles a fresh manager can always claim the chunk.
    fresh = LeaseManager(
        root, ttl=LEASE_TTL, clock=clock.time, monotonic=clock.monotonic
    )
    lease = None
    for _ in range(6):
        lease = fresh.try_acquire("chunk01", worker="post")
        if lease is not None:
            break
        clock.advance(LEASE_TTL + 1.0)
    assert lease is not None, f"seed {seed}: chunk wedged after chaos"
    return counts


class TestLeaseChaosFast:
    @pytest.mark.parametrize("seed", FAST_LEASE_SEEDS)
    def test_no_double_claims_under_faults(self, tmp_path, seed):
        lease_chaos_round(tmp_path / "leases", seed)

    def test_swallowed_heartbeats_do_cause_reclaims(self, tmp_path):
        # Meta-check: the 20% lost-utime rate makes some seeds lose a live
        # lease to a reclaimer — the scenario the token check exists for.
        lost = sum(
            lease_chaos_round(tmp_path / f"l{seed}", seed)["lost"]
            for seed in FAST_LEASE_SEEDS
        )
        assert lost >= 1


@pytest.mark.chaos
class TestLeaseChaosFull:
    @pytest.mark.parametrize("seed", FULL_LEASE_SEEDS)
    def test_no_double_claims_under_faults(self, tmp_path, seed):
        lease_chaos_round(tmp_path / "leases", seed)


class TestLeaseClockSkew:
    """Deterministic (fault-free) clock-semantics tests on the injected clock."""

    def test_skewed_observer_cannot_steal_within_margin(self, tmp_path):
        clock = ChaosClock(start=1000.0)
        owner = LeaseManager(
            tmp_path, ttl=10.0, clock=clock.time, monotonic=clock.monotonic
        )
        lease = owner.try_acquire("c", worker="owner")
        # Fake a file mtime the wall-clock path can reason about.
        stamp = clock.time()
        os.utime(lease.path, (stamp, stamp))
        fast = ChaosClock(start=1000.0, skew=12.0)  # wall clock runs 12 s fast
        observer = LeaseManager(
            tmp_path,
            ttl=10.0,
            clock=fast.time,
            monotonic=fast.monotonic,
            clock_skew=15.0,
        )
        # Wall age reads 12 s — past the raw TTL, inside the skew margin.
        assert observer.try_acquire("c", worker="thief") is None
        assert lease.owned()

    def test_unskewed_observer_reclaims_after_ttl(self, tmp_path):
        clock = ChaosClock(start=1000.0)
        manager = LeaseManager(
            tmp_path, ttl=10.0, clock=clock.time, monotonic=clock.monotonic
        )
        lease = manager.try_acquire("c", worker="dead")
        stamp = clock.time()
        os.utime(lease.path, (stamp, stamp))
        clock.advance(11.0)  # one TTL + 1 with no heartbeat
        taken = manager.try_acquire("c", worker="alive")
        assert taken is not None and taken.worker == "alive"

    def test_observation_path_expires_frozen_mtime_without_wall_clock(
        self, tmp_path
    ):
        # The file's real mtime is "in the future" of the injected wall clock
        # (age clamps to 0), so only the monotonic observation path can ever
        # call it expired — exactly the no-clock-agreement scenario.
        clock = ChaosClock(start=1000.0)
        manager = LeaseManager(
            tmp_path, ttl=10.0, clock=clock.time, monotonic=clock.monotonic
        )
        assert manager.try_acquire("c", worker="dead") is not None
        assert manager.try_acquire("c", worker="w2") is None  # starts the watch
        clock.advance(11.0)
        assert manager.try_acquire("c", worker="w2") is not None


# ---------------------------------------------------------------------------
# Registry reload chaos: injected read faults degrade to last-good
# ---------------------------------------------------------------------------
class TestRegistryReloadChaos:
    def test_reload_degrades_to_last_good_under_read_faults(self, tmp_path):
        spec = tmp_path / "topologies.json"
        spec.write_text(json.dumps({"demo": "B(2,3)"}))
        registry = RouterRegistry()
        registry.load_spec_file(spec)
        assert registry.get("demo").spec == "B(2,3)"
        spec.write_text(json.dumps({"demo": "B(2,4)"}))
        with ChaosInjector(
            always("read-open", "estale", max_faults=1), roots=[tmp_path]
        ):
            assert registry.reload(force=True) == []  # degraded, not raised
            assert registry.failed_reloads == 1
            assert "chaos[estale]" in registry.last_error
            assert registry.get("demo").spec == "B(2,3)"  # last-good serves on
            # Budget spent — the periodic retry heals without intervention.
            assert registry.reload(force=True) == ["demo"]
        assert registry.get("demo").spec == "B(2,4)"
        assert registry.last_error is None

    def test_strict_reload_propagates_the_fault(self, tmp_path):
        spec = tmp_path / "topologies.json"
        spec.write_text(json.dumps({"demo": "B(2,3)"}))
        registry = RouterRegistry()
        registry.load_spec_file(spec)
        spec.write_text(json.dumps({"demo": "B(2,4)"}))
        with ChaosInjector(
            always("read-open", "eio", max_faults=1), roots=[tmp_path]
        ):
            with pytest.raises(ChaosFault):
                registry.reload(force=True, strict=True)
        assert registry.get("demo").spec == "B(2,3)"
