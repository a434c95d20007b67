"""Tests for the resumable sweep chunk store (repro.otis.sweep).

The fast tests cover the contracts the orchestration rests on: manifest
determinism (same parameters → same chunk ids, everywhere), atomic chunk
publication (a store never shows a half-written chunk), resume-after-kill
(relaunching reproduces byte-identical merged rows), cache hit/miss
semantics and code-version invalidation, and parity of stores filled by
fleet workers with the in-process ``degree_diameter_search``.  The one
slow end-to-end exercise (kill/resume over a real Table 1 block) is opt-in
via ``--run-sweep``.
"""

import json
import os
from pathlib import Path

import pytest

from repro import kernels
from repro.fleet import SweepFleetJob, run_fleet
from repro.otis import sweep
from repro.otis.search import degree_diameter_search, table1_rows
from repro.otis.sweep import (
    ChunkManifest,
    ChunkStore,
    SplitVerdictCache,
    StoreIdentityError,
    code_version,
    import_closure,
    merge_sweep,
)

D6_ARGS = dict(d=2, diameter=6, n_min=60, n_max=70)


def run_worker(manifest, store, *, cache=None, max_chunks=None):
    """One fleet worker over ``store``: runs until nothing is claimable."""
    job = SweepFleetJob(manifest, store, cache=cache)
    return run_fleet(job, wait=False, max_chunks=max_chunks)


def d6_manifest(**overrides):
    params = dict(
        d=2, diameter=6, n_values=range(60, 71), chunk_size=9, code_version="test-v1"
    )
    params.update(overrides)
    return ChunkManifest.build(
        params.pop("d"), params.pop("diameter"), params.pop("n_values"), **params
    )


class TestCodeVersion:
    def test_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 12

    def test_is_hex(self):
        int(code_version(), 16)

    def test_fingerprints_the_module_that_computes_the_records(self):
        # _item_verdict makes the h_diameter call whose verdict every chunk
        # record stores, so editing it must rename every chunk.
        assert "otis/sweep.py" in import_closure(Path(sweep.__file__))


class TestManifestDeterminism:
    def test_same_inputs_same_chunk_ids(self):
        first = d6_manifest()
        second = d6_manifest()
        assert [c.chunk_id for c in first.chunks] == [
            c.chunk_id for c in second.chunks
        ]
        assert first == second

    def test_n_values_order_and_duplicates_are_canonicalised(self):
        shuffled = d6_manifest(n_values=[70, 60, 65, 60, 61, 62, 63, 64, 66, 67, 68, 69, 65])
        assert shuffled == d6_manifest()

    def test_code_version_changes_every_chunk_id(self):
        v1 = d6_manifest()
        v2 = d6_manifest(code_version="test-v2")
        assert {c.chunk_id for c in v1.chunks}.isdisjoint(
            c.chunk_id for c in v2.chunks
        )

    def test_parameters_change_chunk_ids(self):
        base = {c.chunk_id for c in d6_manifest().chunks}
        assert base.isdisjoint(c.chunk_id for c in d6_manifest(diameter=7).chunks)
        assert base.isdisjoint(
            c.chunk_id for c in d6_manifest(require_exact=False).chunks
        )

    def test_items_cover_all_candidate_splits_in_order(self):
        from repro.otis.search import candidate_splits

        manifest = d6_manifest()
        items = [item for chunk in manifest.chunks for item in chunk.items]
        expected = [
            (n, p, q) for n in range(60, 71) for p, q in candidate_splits(n, 2)
        ]
        assert items == expected

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            d6_manifest(chunk_size=0)

    def test_negative_diameter_raises(self):
        # Its verdicts would store -1 + 1 = 0 as "too large".
        with pytest.raises(ValueError, match="diameter"):
            d6_manifest(diameter=-1)


class TestChunkStore:
    def test_atomic_write_and_read(self, tmp_path):
        manifest = d6_manifest()
        store = ChunkStore(tmp_path)
        chunk = manifest.chunks[0]
        records = [{"n": 60, "p": 2, "q": 60, "verdict": 6}]
        store.write(chunk, records)
        assert store.is_complete(chunk)
        assert store.read(chunk) == records
        assert store.completed_ids() == {chunk.chunk_id}

    def test_chunk_file_is_compact_json_lines(self, tmp_path):
        # The published bytes: one compact JSON object per record, then the
        # footer; a blank line does not stop the file from reading back.
        chunk = d6_manifest().chunks[0]
        store = ChunkStore(tmp_path)
        records = [
            {"n": 60, "p": 2, "q": 60, "verdict": 6},
            {"n": 60, "p": 3, "q": 40, "verdict": 7},
        ]
        store.write(chunk, records)
        footer = {ChunkStore.FOOTER_KEY: chunk.chunk_id, "records": 2}
        path = store.path_for(chunk)
        assert path.read_text() == "".join(
            json.dumps(item, separators=(",", ":")) + "\n"
            for item in records + [footer]
        )
        path.write_text("\n" + path.read_text().replace("\n", "\n\n", 1))
        assert store.read(chunk) == records

    def test_no_temp_files_left_behind(self, tmp_path):
        manifest = d6_manifest()
        store = ChunkStore(tmp_path)
        store.write(manifest.chunks[0], [{"n": 60, "p": 2, "q": 60, "verdict": 6}])
        leftovers = [p.name for p in tmp_path.iterdir() if not p.name.startswith("chunk-")]
        assert leftovers == []

    def test_orphaned_temp_file_is_not_a_completed_chunk(self, tmp_path):
        # Simulate a writer killed mid-chunk: a .tmp-* file exists but was
        # never published.  The store must not count it as complete.
        manifest = d6_manifest()
        store = ChunkStore(tmp_path)
        chunk = manifest.chunks[0]
        (tmp_path / f".tmp-{chunk.chunk_id}-dead.jsonl").write_text('{"n": 60}\n')
        assert not store.is_complete(chunk)
        assert store.completed_ids() == set()

    def test_read_refuses_truncated_chunk(self, tmp_path):
        # A published file cut short (interrupted copy between hosts) has
        # lost its footer: read must raise, not fold partial data.
        manifest = d6_manifest()
        store = ChunkStore(tmp_path)
        chunk = manifest.chunks[0]
        records = [
            {"n": 60, "p": 2, "q": 60, "verdict": 6},
            {"n": 60, "p": 4, "q": 30, "verdict": -1},
        ]
        store.write(chunk, records)
        path = store.path_for(chunk)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the footer
        with pytest.raises(ValueError, match="footer"):
            store.read(chunk)

    def test_read_refuses_short_payload_under_intact_footer(self, tmp_path):
        manifest = d6_manifest()
        store = ChunkStore(tmp_path)
        chunk = manifest.chunks[0]
        store.write(chunk, [{"n": 60, "p": 2, "q": 60, "verdict": 6}] * 3)
        path = store.path_for(chunk)
        lines = path.read_text().splitlines()
        del lines[1]  # lose a record, keep the footer promising 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="partial chunk payload"):
            store.read(chunk)

    def test_read_refuses_foreign_chunk_file(self, tmp_path):
        # A chunk file renamed (or copied) under another chunk's name is
        # caught by the footer's chunk id.
        manifest = d6_manifest()
        store = ChunkStore(tmp_path)
        first, second = manifest.chunks[0], manifest.chunks[1]
        store.write(first, [{"n": 60, "p": 2, "q": 60, "verdict": 6}])
        os.replace(store.path_for(first), store.path_for(second))
        with pytest.raises(ValueError, match="different chunk"):
            store.read(second)

    def test_read_refuses_corrupt_json_line(self, tmp_path):
        manifest = d6_manifest()
        store = ChunkStore(tmp_path)
        chunk = manifest.chunks[0]
        store.write(chunk, [{"n": 60, "p": 2, "q": 60, "verdict": 6}])
        path = store.path_for(chunk)
        path.write_text('{"n": 60, "p": 2, "q"\n' + path.read_text())
        with pytest.raises(ValueError, match="not valid JSON"):
            store.read(chunk)


class TestSplitVerdictCache:
    def test_miss_then_hit(self, tmp_path):
        cache = SplitVerdictCache(tmp_path, 2, 6, version="test-v1")
        assert cache.get(2, 64) is None
        cache.put(2, 64, 6)
        assert cache.get(2, 64) == 6
        assert (cache.hits, cache.misses) == (1, 1)

    def test_persists_across_instances(self, tmp_path):
        SplitVerdictCache(tmp_path, 2, 6, version="test-v1").put(4, 32, 6)
        reopened = SplitVerdictCache(tmp_path, 2, 6, version="test-v1")
        assert reopened.get(4, 32) == 6
        assert len(reopened) == 1

    def test_code_version_bump_invalidates(self, tmp_path):
        old = SplitVerdictCache(tmp_path, 2, 6, version="test-v1")
        old.put(2, 64, 6)
        bumped = SplitVerdictCache(tmp_path, 2, 6, version="test-v2")
        assert bumped.get(2, 64) is None  # fresh file, cold cache
        assert old.path != bumped.path

    def test_scoped_by_degree_and_diameter(self, tmp_path):
        SplitVerdictCache(tmp_path, 2, 6, version="v").put(2, 64, 6)
        other_d = SplitVerdictCache(tmp_path, 3, 6, version="v")
        other_D = SplitVerdictCache(tmp_path, 2, 7, version="v")
        assert other_d.get(2, 64) is None
        assert other_D.get(2, 64) is None

    def test_torn_trailing_line_is_skipped_with_warning(self, tmp_path):
        # A torn tail that is not JSON takes the line-by-line parse; one
        # that is JSON but no verdict record is dropped by the one-pass load.
        for name, tail in (("torn", '{"p": 4, "q": 32, "verd'), ("short", '{"p": 4}')):
            cache = SplitVerdictCache(tmp_path / name, 2, 6, version="test-v1")
            cache.put(2, 64, 6)
            with cache.path.open("a") as handle:
                handle.write(tail)  # crash mid-write
            with pytest.warns(RuntimeWarning, match="dropped 1 unparseable"):
                reopened = SplitVerdictCache(tmp_path / name, 2, 6, version="test-v1")
            assert reopened.get(2, 64) == 6
            assert len(reopened) == 1

    def test_put_appends_via_unbuffered_o_append(self, tmp_path):
        # Each put is one whole line on disk immediately (single O_APPEND
        # os.write, no buffered handle a crash could leave half-flushed).
        cache = SplitVerdictCache(tmp_path, 2, 6, version="test-v1")
        cache.put(2, 64, 6)
        cache.put(4, 32, 6)
        lines = cache.path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"p": 2, "q": 64, "verdict": 6},
            {"p": 4, "q": 32, "verdict": 6},
        ]

    def test_duplicate_put_is_idempotent(self, tmp_path):
        cache = SplitVerdictCache(tmp_path, 2, 6, version="test-v1")
        cache.put(2, 64, 6)
        cache.put(2, 64, 6)
        assert len(cache.path.read_text().splitlines()) == 1

    @pytest.mark.parametrize(
        "backend",
        [
            "numpy",
            pytest.param(
                "cnative",
                marks=pytest.mark.skipif(
                    "cnative" not in kernels.available_backends(),
                    reason="no C compiler",
                ),
            ),
        ],
    )
    def test_run_chunk_appends_each_chunk_in_one_write(
        self, tmp_path, monkeypatch, backend
    ):
        # A chunk's fresh verdicts reach the cache file in one os.write (an
        # all-hit rerun writes nothing), and the file holds the same lines,
        # in item order, as one compact line written per verdict.
        monkeypatch.setenv(kernels.ENV_VAR, backend)
        manifest = d6_manifest(chunk_size=4)
        assert len(manifest.chunks) >= 3
        cache = SplitVerdictCache(tmp_path, 2, 6, version="test-v1")
        cache_fds: set[int] = set()
        writes: list[int] = []
        real_open, real_write, real_close = os.open, os.write, os.close

        def tracking_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if Path(path) == cache.path:
                cache_fds.add(fd)
            return fd

        def tracking_write(fd, data):
            if fd in cache_fds:
                writes.append(fd)
            return real_write(fd, data)

        def tracking_close(fd):
            cache_fds.discard(fd)
            real_close(fd)

        monkeypatch.setattr(os, "open", tracking_open)
        monkeypatch.setattr(os, "write", tracking_write)
        monkeypatch.setattr(os, "close", tracking_close)
        records = []
        for chunk in manifest.chunks:
            before = len(writes)
            records += sweep.run_chunk(2, 6, chunk.items, cache)
            assert len(writes) - before == 1
        warm = SplitVerdictCache(tmp_path, 2, 6, version="test-v1")
        for chunk in manifest.chunks:
            assert sweep.run_chunk(2, 6, chunk.items, warm) == [
                r for r in records if (r["n"], r["p"], r["q"]) in chunk.items
            ]
        assert len(writes) == len(manifest.chunks)
        assert warm.misses == 0
        assert cache.path.read_text() == "".join(
            json.dumps(
                {"p": r["p"], "q": r["q"], "verdict": r["verdict"]},
                separators=(",", ":"),
            )
            + "\n"
            for r in records
        )


class TestSweepParity:
    def test_shard_union_equals_unsharded_search(self, tmp_path):
        # Three workers that each stop after a third of the chunks fill the
        # store together; the merge equals the in-process search.
        direct = degree_diameter_search(2, 6, 60, 70)
        manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=5)
        store = ChunkStore(tmp_path)
        share = -(-len(manifest.chunks) // 3)
        ran = [run_worker(manifest, store, max_chunks=share)["ran"] for _ in range(3)]
        assert sorted(sum(ran, [])) == sorted(c.chunk_id for c in manifest.chunks)
        merged = merge_sweep(manifest, store)
        assert merged.rows == direct.rows
        assert merged.d == direct.d and merged.diameter == direct.diameter

    def test_resume_after_kill_reproduces_identical_rows(self, tmp_path):
        direct = degree_diameter_search(2, 6, 60, 70)
        manifest = ChunkManifest.build(2, 6, range(60, 71), chunk_size=5)
        store = ChunkStore(tmp_path)
        run_worker(manifest, store)
        # Kill simulation: delete one published chunk and plant an orphaned
        # temp file, as an interrupted writer would leave behind.
        victim = manifest.chunks[1]
        os.unlink(store.path_for(victim))
        (tmp_path / f".tmp-{victim.chunk_id}-dead.jsonl").write_text("{}\n")
        with pytest.raises(FileNotFoundError):
            merge_sweep(manifest, store)
        outcome = run_worker(manifest, store)
        # Only the lost chunk reran; every other chunk was skipped.
        assert outcome["ran"] == [victim.chunk_id]
        assert outcome["complete"]
        assert merge_sweep(manifest, store).rows == direct.rows

    def test_merge_names_missing_chunks(self, tmp_path):
        manifest = d6_manifest()
        with pytest.raises(FileNotFoundError, match="chunks incomplete"):
            merge_sweep(manifest, ChunkStore(tmp_path))

    def test_merge_fails_fast_on_identity_mismatch(self, tmp_path):
        # A completed sweep relaunched or merged under different parameters
        # (code-version bump, chunk size, range) must fail fast on the
        # persisted manifest.json — naming the differing field — instead of
        # matching zero chunks and pretending the work was never done.
        store = ChunkStore(tmp_path)
        old = d6_manifest(code_version="test-v1")
        run_worker(old, store)
        bumped = d6_manifest(code_version="test-v2")
        with pytest.raises(StoreIdentityError, match="code_version"):
            merge_sweep(bumped, store)
        with pytest.raises(StoreIdentityError, match="code_version"):
            run_worker(bumped, store)

    def test_merge_flags_manifest_mismatch_over_unidentified_store(self, tmp_path):
        # Stores written before the identity file existed carry no
        # manifest.json: the merge still refuses with the orphan-chunk
        # diagnostic instead of "run the workers".
        store = ChunkStore(tmp_path)
        old = d6_manifest(code_version="test-v1")
        run_worker(old, store)
        os.unlink(tmp_path / "manifest.json")
        bumped = d6_manifest(code_version="test-v2")
        with pytest.raises(FileNotFoundError, match="different manifest"):
            merge_sweep(bumped, store)

    def test_missing_and_orphan_chunk_are_both_named(self, tmp_path):
        # One chunk of the store's own manifest is missing and one foreign
        # chunk file sits beside the others: the merge names both.
        manifest = d6_manifest()
        store = ChunkStore(tmp_path)
        run_worker(manifest, store)
        victim = store.path_for(manifest.chunks[0])
        victim.rename(tmp_path / "chunk-0123456789abcdef.jsonl")
        with pytest.raises(FileNotFoundError) as excinfo:
            merge_sweep(manifest, store)
        message = str(excinfo.value)
        assert f"1 of {len(manifest.chunks)} chunks incomplete" in message
        assert "1 chunk file(s) from a different manifest" in message
        assert "test-v1" in message  # the current code version is named

    def test_worker_pool_sweep_matches_serial(self, tmp_path, fleet_processes):
        # Two fleet worker processes on one store against one worker.
        manifest = ChunkManifest.build(2, 6, range(60, 67), chunk_size=4)
        serial_store = ChunkStore(tmp_path / "serial")
        pooled_store = ChunkStore(tmp_path / "pooled")
        run_worker(manifest, serial_store)
        fleet_processes(SweepFleetJob(manifest, pooled_store), 2)
        assert (
            merge_sweep(manifest, serial_store).rows
            == merge_sweep(manifest, pooled_store).rows
        )

    def test_at_most_filter_applied_at_merge(self, tmp_path):
        manifest = ChunkManifest.build(
            2, 5, [16], require_exact=False, chunk_size=8
        )
        store = ChunkStore(tmp_path)
        run_worker(manifest, store)
        relaxed = merge_sweep(manifest, store)
        # B(2, 4) has diameter 4 <= 5: present under the at-most filter.
        assert relaxed.splits_for(16) != []

    def test_chunk_records_hold_raw_verdicts(self, tmp_path):
        manifest = ChunkManifest.build(2, 6, [64], chunk_size=8)
        store = ChunkStore(tmp_path)
        run_worker(manifest, store)
        records = store.read(manifest.chunks[0])
        by_split = {(r["p"], r["q"]): r["verdict"] for r in records}
        assert by_split[(2, 64)] == 6  # B(2, 6) layout, exact diameter
        assert by_split[(1, 128)] == -1  # p=1 split is never strongly connected


class TestSearchCacheIntegration:
    def test_cached_search_matches_uncached(self, tmp_path):
        uncached = degree_diameter_search(2, 6, 62, 66)
        cache = SplitVerdictCache(tmp_path, 2, 6)
        cold = degree_diameter_search(2, 6, 62, 66, cache=cache)
        assert cold.rows == uncached.rows
        assert cache.hits == 0 and cache.misses > 0
        warm_cache = SplitVerdictCache(tmp_path, 2, 6)
        warm = degree_diameter_search(2, 6, 62, 66, cache=warm_cache)
        assert warm.rows == uncached.rows
        assert warm_cache.misses == 0
        assert warm_cache.hits == cache.misses

    def test_cache_accepts_directory_path(self, tmp_path):
        first = degree_diameter_search(2, 6, 62, 66, cache=tmp_path)
        assert list(tmp_path.glob("verdicts-d2-D6-*.jsonl"))
        second = degree_diameter_search(2, 6, 62, 66, cache=str(tmp_path))
        assert first.rows == second.rows

    def test_overlapping_blocks_share_cache_entries(self, tmp_path):
        cache = SplitVerdictCache(tmp_path, 2, 6)
        degree_diameter_search(2, 6, 60, 66, cache=cache)
        follow_up = SplitVerdictCache(tmp_path, 2, 6)
        degree_diameter_search(2, 6, 62, 70, cache=follow_up)
        # n=62..66 overlap: those verdicts come from the first sweep's cache.
        assert follow_up.hits > 0

    def test_cache_file_format_is_documented_jsonl(self, tmp_path):
        cache = SplitVerdictCache(tmp_path, 2, 6, version="test-v1")
        cache.put(2, 64, 6)
        (line,) = cache.path.read_text().splitlines()
        assert json.loads(line) == {"p": 2, "q": 64, "verdict": 6}


@pytest.mark.sweep
class TestEndToEndTable1Block:
    """Slow end-to-end exercise over a real Table 1 block (opt-in)."""

    def test_sharded_resumed_cached_diameter_8_block(self, tmp_path):
        direct = table1_rows(8)
        manifest = ChunkManifest.build(
            2, 8, range(253, 385), chunk_size=64
        )
        store = ChunkStore(tmp_path / "chunks")
        cache_dir = tmp_path / "cache"
        half = len(manifest.chunks) // 2
        run_worker(manifest, store, cache=cache_dir, max_chunks=half)
        run_worker(manifest, store, cache=cache_dir)
        # Interrupt and resume with a warm cache: the recomputed chunk is
        # answered from the verdict cache, not recomputed from scratch.
        victim = manifest.chunks[0]
        os.unlink(store.path_for(victim))
        cache = SplitVerdictCache(cache_dir, 2, 8)
        outcome = run_worker(manifest, store, cache=cache)
        assert outcome["ran"] == [victim.chunk_id]
        assert cache.misses == 0  # every verdict of the redone chunk was cached
        merged = merge_sweep(manifest, store)
        assert merged.rows == direct.rows


class TestPartialMerge:
    def test_partial_merge_covers_completed_chunks_only(self, tmp_path):
        manifest = d6_manifest(chunk_size=4)
        assert len(manifest.chunks) > 2
        store = ChunkStore(tmp_path / "chunks")
        run_worker(manifest, store, max_chunks=len(manifest.chunks) // 2)
        partial = merge_sweep(manifest, store, partial=True)
        with pytest.raises(FileNotFoundError):
            merge_sweep(manifest, store)  # strict mode still refuses
        # every row of the partial result is a row of the full result
        run_worker(manifest, store)
        full = merge_sweep(manifest, store)
        full_rows = dict(full.rows)
        for n, splits in partial.rows:
            assert set(splits) <= set(full_rows[n])
        # and the partial result genuinely misses some of the full rows
        assert partial.rows != full.rows

    def test_partial_merge_of_complete_store_equals_strict(self, tmp_path):
        manifest = d6_manifest(chunk_size=4)
        store = ChunkStore(tmp_path / "chunks")
        run_worker(manifest, store)
        assert merge_sweep(manifest, store, partial=True) == merge_sweep(
            manifest, store
        )


class TestMakeChunks:
    def test_generic_chunking_matches_manifest_ids(self):
        # ChunkManifest.build routes through make_chunks: identical payloads
        # must yield identical ids (the cross-subsystem coordination rule).
        from repro.otis.sweep import make_chunks

        manifest = d6_manifest()
        items = [item for chunk in manifest.chunks for item in chunk.items]
        rebuilt = make_chunks(
            items,
            manifest.chunk_size,
            [manifest.d, manifest.diameter, manifest.require_exact, manifest.code_version],
        )
        assert [c.chunk_id for c in rebuilt] == [c.chunk_id for c in manifest.chunks]

    def test_identity_renames_chunks(self):
        from repro.otis.sweep import make_chunks

        items = [(1, "a"), (2, "b")]
        assert (
            make_chunks(items, 2, ["x"])[0].chunk_id
            != make_chunks(items, 2, ["y"])[0].chunk_id
        )
        with pytest.raises(ValueError):
            make_chunks(items, 0, ["x"])
