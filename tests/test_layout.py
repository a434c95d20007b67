"""Tests for OTIS layouts of de Bruijn-like digraphs (Section 4.4)."""

import numpy as np
import pytest

from repro.otis.h_digraph import h_digraph
from repro.otis.layout import (
    OTISLayout,
    debruijn_layout,
    find_layout_by_search,
    imase_itoh_layout,
    kautz_layout,
    optimal_debruijn_layout,
)


class TestDebruijnLayout:
    def test_even_diameter_optimal(self):
        # Corollary 4.4: B(2, 8) on OTIS(16, 32) with 48 lenses.
        layout = optimal_debruijn_layout(2, 8)
        assert (layout.p, layout.q) == (16, 32)
        assert layout.num_lenses == 48
        assert layout.num_nodes == 256
        assert layout.verify()

    def test_small_even_diameters_verify(self):
        for d, D in [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4)]:
            layout = optimal_debruijn_layout(d, D)
            assert layout.verify()
            assert layout.num_lenses == (1 + d) * d ** (D // 2)

    def test_odd_diameter_verifies(self):
        layout = optimal_debruijn_layout(2, 5)
        assert layout.verify()
        assert layout.p * layout.q == 2 * 2**5

    def test_explicit_split(self):
        layout = debruijn_layout(2, 6, 2, 5)
        assert (layout.p, layout.q) == (4, 32)
        assert layout.verify()

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            debruijn_layout(2, 6, 3, 3)  # p' + q' - 1 != D
        with pytest.raises(ValueError):
            debruijn_layout(2, 8, 3, 6)  # non-cyclic f (paper Section 4.3)

    def test_lens_efficiency_constant_for_even_D(self):
        for D in (4, 6, 8):
            layout = optimal_debruijn_layout(2, D)
            assert layout.lens_efficiency == pytest.approx(3.0)

    def test_node_assignment_and_transmitter_map(self):
        layout = optimal_debruijn_layout(2, 4)
        assignment = layout.node_assignment(3)
        assert len(assignment.transmitters) == 2
        tmap = layout.transmitter_map()
        assert tmap.shape == (16, 2, 2)
        # transmitters across all nodes cover the whole optical plane
        flat = {tuple(x) for x in tmap.reshape(-1, 2)}
        assert len(flat) == 32

    def test_summary(self):
        layout = optimal_debruijn_layout(2, 4)
        summary = layout.summary()
        assert summary["nodes"] == 16
        assert summary["lenses"] == layout.num_lenses
        assert "Corollary" in summary["description"]


class TestKnownLayouts:
    def test_imase_itoh_layout_verifies(self):
        for d, n in [(2, 8), (2, 12), (3, 27), (2, 20)]:
            layout = imase_itoh_layout(d, n)
            assert layout.verify()
            assert layout.num_lenses == d + n  # the O(n)-lens baseline

    def test_kautz_layout_verifies(self):
        layout = kautz_layout(2, 3)
        assert layout.verify()
        assert layout.num_nodes == 12
        assert (layout.p, layout.q) == (2, 12)

    def test_lens_comparison_paper_headline(self):
        # The paper's point: Theta(sqrt(n)) lenses vs O(n) lenses for B(2, 8).
        optimal = optimal_debruijn_layout(2, 8)
        baseline_lenses = 2 + 256  # II(2, 256) layout
        assert optimal.num_lenses == 48
        assert optimal.num_lenses < baseline_lenses / 5


class TestLayoutSearchBaseline:
    def test_search_finds_debruijn_layout(self):
        from repro.graphs.generators import de_bruijn

        layout = find_layout_by_search(de_bruijn(2, 3))
        assert layout is not None
        assert layout.verify()
        assert layout.p * layout.q == 16

    def test_search_none_for_unlayoutable_graph(self):
        # A 3-cycle with a chord of degree... use a digraph whose degree
        # divides nothing nicely: the directed 5-cycle has d=1, m=5 and the
        # only splits are (1,5)/(5,1); H(1,5,1)/H(5,1,1) are single cycles
        # too, so a layout exists.  Use instead a degree-1 digraph that is
        # NOT a single cycle: two disjoint cycles cannot be H(p, q, 1) of the
        # same size unless the wiring matches; check the search stays exact.
        from repro.graphs.digraph import RegularDigraph

        two_cycles = RegularDigraph([[1], [0], [3], [2]])
        result = find_layout_by_search(two_cycles)
        # H(p, q, 1) on 4 nodes is a permutation digraph; whether a layout
        # exists is decided exactly by the search — verify whatever it says.
        if result is None:
            from repro.graphs.isomorphism import are_isomorphic
            from repro.otis.search import candidate_splits

            for p, q in candidate_splits(4, 1):
                assert not are_isomorphic(two_cycles, h_digraph(p, q, 1))
                assert not are_isomorphic(two_cycles, h_digraph(q, p, 1))
        else:
            assert result.verify()

    def test_structural_layout_matches_search_lens_count(self):
        # For B(2, 4) the structural optimum must be at least as good as the
        # brute-force search's first hit.
        from repro.graphs.generators import de_bruijn

        structural = optimal_debruijn_layout(2, 4)
        searched = find_layout_by_search(de_bruijn(2, 4))
        assert searched is not None
        assert structural.num_lenses <= searched.num_lenses


class TestOTISLayoutValidation:
    def test_verify_detects_bad_mapping(self):
        layout = optimal_debruijn_layout(2, 4)
        bad = OTISLayout(
            graph=layout.graph,
            p=layout.p,
            q=layout.q,
            d=layout.d,
            node_to_h=np.roll(layout.node_to_h, 1),
            description="corrupted",
        )
        assert not bad.verify()

    def test_h_cached(self):
        layout = optimal_debruijn_layout(2, 4)
        assert layout.h() is layout.h()
