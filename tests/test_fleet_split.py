"""Tests for deterministic straggler splitting (sweep + fleet layers).

The contract under test, top to bottom:

* :func:`split_chunk` is a pure function — every worker derives the same
  sub-chunk names and the same contiguous slices, with no coordination;
* :meth:`ChunkStore.request_split` is a consensus point — racing proposers
  all come away with the *winner's* part count;
* :func:`assemble_split` is byte-identical to never having split — the
  merge layer cannot tell (and therefore does not care) whether a chunk ran
  whole or as sub-chunks;
* :func:`run_fleet` with ``split_after`` turns a live straggler's chunk into
  claimable sub-chunks, runs them, assembles the parent, and the final merge
  still matches the serial search exactly.
"""

import time

import pytest

from repro.fleet import LeaseManager, SweepFleetJob, run_fleet
from repro.fleet.status import fleet_status, format_status, store_status
from repro.otis.search import degree_diameter_search
from repro.otis.sweep import (
    ChunkManifest,
    ChunkStore,
    assemble_split,
    merge_sweep,
    run_chunk,
    split_chunk,
)

CODE_VERSION = "split-test-v1"


def small_manifest(chunk_size=4):
    return ChunkManifest.build(2, 6, range(60, 71), chunk_size=chunk_size)


def records_for(chunk, manifest):
    return run_chunk(manifest.d, manifest.diameter, chunk.items)


# ---------------------------------------------------------------------------
# split_chunk: deterministic naming and slicing
# ---------------------------------------------------------------------------
class TestSplitChunk:
    def chunk(self, items=6):
        manifest = ChunkManifest.build(
            2, 4, [16], chunk_size=4, code_version=CODE_VERSION
        )
        (chunk,) = manifest.chunks
        return chunk

    def test_names_and_slices_are_deterministic(self):
        chunk = self.chunk()
        first = split_chunk(chunk, 2)
        second = split_chunk(chunk, 2)
        assert first == second
        assert [sub.chunk_id for sub in first] == [
            f"{chunk.chunk_id}.s0",
            f"{chunk.chunk_id}.s1",
        ]

    def test_concatenation_reproduces_the_parent_items(self):
        chunk = self.chunk()
        for parts in (2, 3):
            subs = split_chunk(chunk, parts)
            flattened = tuple(item for sub in subs for item in sub.items)
            assert flattened == chunk.items
            # contiguous slices, larger slices first (divmod distribution)
            sizes = [len(sub.items) for sub in subs]
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)

    def test_parts_clamp_to_item_count(self):
        chunk = self.chunk()  # 3 items
        subs = split_chunk(chunk, 10)
        assert len(subs) == len(chunk.items)
        assert all(len(sub.items) == 1 for sub in subs)

    def test_rejects_degenerate_splits(self):
        chunk = self.chunk()
        with pytest.raises(ValueError, match="parts >= 2"):
            split_chunk(chunk, 1)
        single = type(chunk)(chunk_id="aa", index=0, items=((16, 1, 32),))
        with pytest.raises(ValueError, match="fewer than 2"):
            split_chunk(single, 2)


# ---------------------------------------------------------------------------
# request_split: one agreed winner, losers read it back
# ---------------------------------------------------------------------------
class TestRequestSplit:
    def test_racing_proposers_agree_on_the_winner(self, tmp_path):
        manifest = ChunkManifest.build(
            2, 4, [16], chunk_size=4, code_version=CODE_VERSION
        )
        (chunk,) = manifest.chunks
        store = ChunkStore(tmp_path)
        winner = store.request_split(chunk, 2)
        assert winner == 2
        # A later proposer with a different preference observes the winner.
        assert store.request_split(chunk, 3) == 2
        assert store.split_parts(chunk) == 2
        # Another store view of the same directory agrees too.
        assert ChunkStore(tmp_path).split_parts(chunk) == 2

    def test_unsplit_chunk_reports_none(self, tmp_path):
        manifest = ChunkManifest.build(
            2, 4, [16], chunk_size=4, code_version=CODE_VERSION
        )
        (chunk,) = manifest.chunks
        assert ChunkStore(tmp_path).split_parts(chunk) is None

    def test_foreign_marker_is_ignored(self, tmp_path):
        manifest = ChunkManifest.build(
            2, 4, [16], chunk_size=4, code_version=CODE_VERSION
        )
        (chunk,) = manifest.chunks
        store = ChunkStore(tmp_path)
        store.split_path(chunk).write_text('{"chunk": "someone-else", "parts": 2}')
        assert store.split_parts(chunk) is None


# ---------------------------------------------------------------------------
# assemble_split: byte-identical to the unsplit publication
# ---------------------------------------------------------------------------
class TestAssembleSplit:
    def test_assembled_parent_matches_unsplit_bytes(self, tmp_path):
        manifest = small_manifest()
        chunk = manifest.chunks[0]
        whole = ChunkStore(tmp_path / "whole")
        whole.write(chunk, records_for(chunk, manifest))
        split_store = ChunkStore(tmp_path / "split")
        for parts in (2, 3):
            for sub in split_chunk(chunk, parts):
                split_store.write(sub, records_for(sub, manifest))
            assert assemble_split(split_store, chunk, parts)
            assert (
                split_store.path_for(chunk).read_bytes()
                == whole.path_for(chunk).read_bytes()
            )
            split_store.path_for(chunk).unlink()

    def test_incomplete_subs_assemble_nothing(self, tmp_path):
        manifest = small_manifest()
        chunk = manifest.chunks[0]
        store = ChunkStore(tmp_path)
        subs = split_chunk(chunk, 2)
        store.write(subs[0], records_for(subs[0], manifest))
        assert not assemble_split(store, chunk, 2)
        assert not store.is_complete(chunk)

    def test_merge_sweep_folds_a_published_split(self, tmp_path):
        # An assembler that died right after the last sub-chunk published:
        # the merge folds the split itself instead of reporting it missing.
        manifest = small_manifest()
        store = ChunkStore(tmp_path)
        run_fleet(SweepFleetJob(manifest, store), wait=False)
        target = manifest.chunks[0]
        store.path_for(target).unlink()
        store.request_split(target, 2)
        for sub in split_chunk(target, 2):
            store.write(sub, records_for(sub, manifest))
        merged = merge_sweep(manifest, store)
        assert merged.rows == degree_diameter_search(2, 6, 60, 70).rows


# ---------------------------------------------------------------------------
# run_fleet end to end: a live straggler's chunk is split, run, assembled
# ---------------------------------------------------------------------------
class TestFleetStragglerSplit:
    def test_fleet_splits_a_live_straggler_and_merges_identically(
        self, tmp_path
    ):
        manifest = small_manifest()
        store = ChunkStore(tmp_path / "sweep")
        job = SweepFleetJob(manifest, store)
        straggler_chunk = manifest.chunks[0]
        # A live peer (heartbeat-fresh lease, far from TTL expiry) that has
        # held its chunk since "long ago" — the straggler.
        leases = LeaseManager(store.directory / "leases", ttl=600)
        held = leases.try_acquire(straggler_chunk.chunk_id, worker="straggler")
        assert held is not None
        time.sleep(0.1)  # let the hold age past split_after
        outcome = run_fleet(
            job,
            ttl=600,
            heartbeat=5,
            wait=False,
            split_after=0.05,
            split_parts=2,
        )
        assert outcome["splits"] == [straggler_chunk.chunk_id]
        assert outcome["complete"]
        sub_ids = {f"{straggler_chunk.chunk_id}.s{i}" for i in range(2)}
        assert sub_ids <= set(outcome["ran"])
        assert not outcome["lost"]
        # The straggler still "computes" (its lease is alive); the fleet got
        # the work done around it and the merge is exactly the serial rows.
        assert held.owned()
        assert job.merge().rows == degree_diameter_search(2, 6, 60, 70).rows

    def test_assembled_chunk_bytes_match_a_serial_sweep(self, tmp_path):
        manifest = small_manifest()
        serial = ChunkStore(tmp_path / "serial")
        for chunk in manifest.chunks:
            serial.write(chunk, records_for(chunk, manifest))
        fleet_store = ChunkStore(tmp_path / "fleet")
        job = SweepFleetJob(manifest, fleet_store)
        leases = LeaseManager(fleet_store.directory / "leases", ttl=600)
        target = manifest.chunks[0]
        assert leases.try_acquire(target.chunk_id, worker="straggler")
        time.sleep(0.1)
        run_fleet(job, ttl=600, heartbeat=5, wait=False, split_after=0.05)
        for chunk in manifest.chunks:
            assert (
                fleet_store.path_for(chunk).read_bytes()
                == serial.path_for(chunk).read_bytes()
            )

    def test_live_fresh_lease_is_not_split(self, tmp_path):
        manifest = small_manifest()
        store = ChunkStore(tmp_path / "sweep")
        job = SweepFleetJob(manifest, store)
        leases = LeaseManager(store.directory / "leases", ttl=600)
        assert leases.try_acquire(manifest.chunks[0].chunk_id, worker="peer")
        # split_after far beyond the hold age: policy must not trigger.
        outcome = run_fleet(
            job, ttl=600, heartbeat=5, wait=False, split_after=3600
        )
        assert outcome["splits"] == []
        assert not outcome["complete"]
        assert store.split_parts(manifest.chunks[0]) is None

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_merge_parity_with_and_without_prefetch(self, tmp_path, prefetch):
        manifest = small_manifest()
        job = SweepFleetJob(manifest, ChunkStore(tmp_path / "sweep"))
        outcome = run_fleet(job, ttl=10, heartbeat=2, prefetch=prefetch)
        assert outcome["complete"]
        assert not outcome["lost"]
        assert job.merge().rows == degree_diameter_search(2, 6, 60, 70).rows


# ---------------------------------------------------------------------------
# status surfaces splits
# ---------------------------------------------------------------------------
class TestSplitStatus:
    def test_status_counts_split_markers(self, tmp_path):
        manifest = small_manifest()
        store = ChunkStore(tmp_path / "sweep")
        job = SweepFleetJob(manifest, store)
        run_fleet(job, ttl=10, heartbeat=2, max_chunks=1)
        store.request_split(manifest.chunks[1], 2)
        status = fleet_status(job, ttl=10)
        assert status["splits"] == 1
        assert "1 split into sub-chunks" in format_status(status)
        from_store = store_status(store.directory, ttl=10)
        assert from_store["splits"] == 1

    def test_sub_chunk_files_do_not_skew_complete_counts(self, tmp_path):
        manifest = small_manifest()
        store = ChunkStore(tmp_path / "sweep")
        job = SweepFleetJob(manifest, store)
        target = manifest.chunks[0]
        store.request_split(target, 2)
        sub = split_chunk(target, 2)[0]
        store.write(sub, records_for(sub, manifest))
        run_fleet(job, ttl=10, heartbeat=2, max_chunks=0, wait=False)
        status = fleet_status(job, ttl=10)
        # one published sub-chunk is progress-in-flight, not a complete chunk
        assert status["complete"] == 0
        assert status["pending"] == len(manifest.chunks)
