"""Tests for the Table 1 degree-diameter search (Section 4.3)."""

import functools

import pytest

from repro.graphs.generators import de_bruijn, kautz
from repro.graphs.properties import diameter
from repro.otis.h_digraph import h_digraph
from repro.otis.search import (
    PAPER_TABLE1,
    candidate_splits,
    compare_with_paper,
    degree_diameter_search,
    h_diameter,
    table1_rows,
)


class TestCandidateSplits:
    def test_splits(self):
        assert candidate_splits(8, 2) == [(1, 16), (2, 8), (4, 4)]
        assert candidate_splits(6, 2) == [(1, 12), (2, 6), (3, 4)]

    def test_validation(self):
        with pytest.raises(ValueError):
            candidate_splits(0, 2)


class TestHDiameter:
    def test_matches_generic_diameter(self):
        for p, q, d in [(4, 8, 2), (2, 12, 2), (2, 16, 2), (3, 9, 3)]:
            H = h_digraph(p, q, d)
            assert h_diameter(H) == diameter(H)

    def test_disconnected_returns_minus_one(self):
        # H(8, 64, 2) is disconnected (non-cyclic f, Section 4.3).
        assert h_diameter(h_digraph(8, 64, 2)) == -1

    def test_upper_bound_early_exit(self):
        H = h_digraph(2, 64, 2)  # B(2, 6)-like, diameter 6
        assert h_diameter(H, upper_bound=3) == 4  # sentinel "too large"
        assert h_diameter(H, upper_bound=10) == 6

    def test_trivial_graph(self):
        assert h_diameter(h_digraph(1, 2, 2)) == 0

    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    def test_negative_bound_raises_instead_of_a_legal_diameter(self, backend):
        # A bound of -1 used to return its sentinel 0: a legal-looking
        # diameter for a digraph whose diameter is 4.
        graph = h_digraph(4, 8, 2)
        assert h_diameter(graph, backend=backend) == 4
        for bound in (-1, -5):
            with pytest.raises(ValueError, match="upper_bound"):
                h_diameter(graph, upper_bound=bound, backend=backend)
        with pytest.raises(ValueError, match="upper_bound"):
            h_diameter(h_digraph(1, 2, 2), upper_bound=-1, backend=backend)

    def test_negative_diameter_search_raises(self):
        with pytest.raises(ValueError, match="diameter"):
            degree_diameter_search(2, -1, 14, 17)
        with pytest.raises(ValueError, match="diameter"):
            table1_rows(-1, n_min=14, n_max=17)


@functools.lru_cache(maxsize=None)
def per_split_rows(d, target, n_min, n_max, require_exact):
    """Table rows from one ``h_diameter`` call per candidate split."""
    rows = []
    for n in range(n_min, n_max + 1):
        splits = []
        for p, q in candidate_splits(n, d):
            verdict = h_diameter(h_digraph(p, q, d), target)
            if 0 <= verdict <= target and (verdict == target or not require_exact):
                splits.append((p, q))
        if splits:
            rows.append((n, splits))
    return rows


class TestSmallSearches:
    def test_debruijn_2_4_found_at_diameter_4(self):
        result = degree_diameter_search(2, 4, 14, 17)
        assert result.splits_for(16) == [(2, 16), (4, 8)]
        assert result.largest_n >= 16

    def test_kautz_2_4_found_at_diameter_4(self):
        # K(2, 4) has 24 nodes and an OTIS(2, 24) layout of diameter 4.
        result = degree_diameter_search(2, 4, 16, 30)
        assert (2, 24) in result.splits_for(24)
        assert result.largest_n >= 24

    def test_require_exact_vs_at_most(self):
        exact = degree_diameter_search(2, 5, 16, 16)
        relaxed = degree_diameter_search(2, 5, 16, 16, require_exact=False)
        # B(2, 4) has diameter 4 < 5: excluded when exact, included otherwise.
        assert exact.splits_for(16) == []
        assert relaxed.splits_for(16) != []

    def test_result_table_rendering(self):
        result = degree_diameter_search(2, 4, 16, 24)
        text = result.as_table()
        assert "B(2,4)" in text
        assert "K(2,4)" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            degree_diameter_search(2, 4, 10, 5)
        with pytest.raises(ValueError):
            degree_diameter_search(2, 4, 5, 10, chunk_size=0)

    @pytest.mark.parametrize("require_exact", [True, False])
    @pytest.mark.parametrize("chunk_size", [1, 2, 64])
    @pytest.mark.parametrize(
        "target, n_min, n_max",
        [(4, 12, 30), (5, 28, 40), (6, 56, 70), (7, 120, 130), (8, 250, 258)],
    )
    def test_rows_match_the_per_split_oracle_without_a_manifest(
        self, monkeypatch, target, n_min, n_max, chunk_size, require_exact
    ):
        # The in-process search slices its work list itself: it names no
        # chunk, and its rows are the per-split h_diameter verdicts filtered
        # and grouped, whatever the slice size.
        from repro.otis.sweep import ChunkManifest

        def forbidden(*args, **kwargs):
            raise AssertionError("ChunkManifest.build called by the search")

        monkeypatch.setattr(ChunkManifest, "build", forbidden)
        result = degree_diameter_search(
            2, target, n_min, n_max, chunk_size=chunk_size, require_exact=require_exact
        )
        assert result.rows == per_split_rows(2, target, n_min, n_max, require_exact)
        assert result.n_range == (n_min, n_max)

    def test_worker_pool_matches_serial(self, tmp_path, fleet_processes):
        # Deterministic chunking: fleet worker processes sharing one store
        # must reproduce the serial result exactly, regardless of worker
        # scheduling or chunk size.
        from repro.fleet import SweepFleetJob
        from repro.otis.sweep import ChunkManifest, ChunkStore, merge_sweep

        serial = degree_diameter_search(2, 4, 14, 26)
        for workers, chunk_size in ((2, 3), (3, 5)):
            manifest = ChunkManifest.build(2, 4, range(14, 27), chunk_size=chunk_size)
            store = ChunkStore(tmp_path / f"chunks-{chunk_size}")
            fleet_processes(SweepFleetJob(manifest, store), workers)
            assert merge_sweep(manifest, store) == serial

    def test_no_distance_matrix_on_search_path(self, monkeypatch):
        # The acceptance criterion of the batched engine: h_diameter must
        # never materialise an (n, n) int64 distance matrix.
        import numpy as np

        import repro.graphs.properties as properties
        import repro.otis.search as search_module

        def forbidden(*args, **kwargs):
            raise AssertionError("distance_matrix called on the search path")

        monkeypatch.setattr(properties, "distance_matrix", forbidden)
        # Shadow the name inside the search module too, so a regression that
        # reinstates `from repro.graphs.properties import distance_matrix`
        # (a module-level binding the patch above cannot reach) is caught.
        monkeypatch.setattr(search_module, "distance_matrix", forbidden, raising=False)

        # Belt and braces: trap square numeric allocations at the numpy
        # layer — both the bit-sweep and the BFS matrix paths create one.
        def guarded(allocate):
            def wrapped(*args, **kwargs):
                out = allocate(*args, **kwargs)
                if (
                    getattr(out, "ndim", 0) == 2
                    and out.shape[0] == out.shape[1]
                    and out.shape[0] > 8
                    and out.dtype in (np.int64, np.float64)
                ):
                    raise AssertionError(
                        f"square {out.dtype} matrix of shape {out.shape} "
                        "allocated on the search path"
                    )
                return out

            return wrapped

        for name in ("empty", "zeros", "full"):
            monkeypatch.setattr(np, name, guarded(getattr(np, name)))

        H = h_digraph(2, 16, 2)
        assert h_diameter(H) == 4
        assert h_diameter(H, upper_bound=2) == 3  # sentinel: too large
        result = degree_diameter_search(2, 4, 14, 17)
        assert result.splits_for(16) == [(2, 16), (4, 8)]


class TestTable1:
    def test_table1_diameter_8_block_around_debruijn(self):
        # The rows 253..258 of Table 1, including the three splits at n=256.
        result = table1_rows(8, n_min=253, n_max=258)
        assert result.splits_for(253) == [(2, 253)]
        assert result.splits_for(254) == [(2, 254)]
        assert result.splits_for(255) == [(2, 255)]
        assert result.splits_for(256) == [(2, 256), (4, 128), (16, 32)]
        assert result.splits_for(257) == []  # the paper's table skips 257
        assert result.splits_for(258) == [(2, 258)]

    def test_table1_comparison_helper(self):
        result = table1_rows(8, n_min=253, n_max=258)
        report = compare_with_paper(result)
        assert report["all_match"]
        assert report["rows_compared"] == 5

    def test_table1_kautz_top_row_diameter_8(self):
        result = table1_rows(8, n_min=384, n_max=384)
        assert result.splits_for(384) == [(2, 384)]

    def test_printed_rows_only_mode(self):
        result = table1_rows(9, printed_rows_only=True, n_min=509, n_max=513)
        assert result.splits_for(512) == [(2, 512), (8, 128)]
        assert result.splits_for(509) == [(2, 509)]

    def test_unknown_diameter_requires_range(self):
        with pytest.raises(ValueError):
            table1_rows(6)

    def test_paper_table_constants(self):
        # The stored table's landmark rows match the closed-form orders.
        for D in (8, 9, 10):
            ns = [n for n, _ in PAPER_TABLE1[D]]
            assert 2**D in ns  # de Bruijn row
            assert 3 * 2 ** (D - 1) == ns[-1]  # Kautz row is the largest

    def test_diameters_of_named_digraphs(self):
        # Independent confirmation that the table's landmarks have the right
        # diameter through the direct generators.
        assert diameter(de_bruijn(2, 8)) == 8
        assert diameter(kautz(2, 8)) == 8
