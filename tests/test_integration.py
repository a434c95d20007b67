"""Integration tests: end-to-end flows across subpackages.

These exercise the library the way the examples do: pick a de Bruijn network,
compute its optimal OTIS layout, check the hardware bill of materials, route
and simulate traffic on it, and confirm the figure-level facts of the paper on
the way.
"""

import numpy as np

import repro
from repro.analysis.tables import paper_vs_measured
from repro.core import AlphabetDigraphSpec, debruijn_to_alphabet_isomorphism
from repro.core.components import decompose_non_cyclic
from repro.graphs import de_bruijn, diameter, kautz
from repro.graphs.isomorphism import are_isomorphic, is_isomorphism
from repro.otis import HardwareModel, h_digraph, optimal_debruijn_layout
from repro.otis.layout import imase_itoh_layout
from repro.permutations import Permutation, identity
from repro.routing import build_routing_table
from repro.simulation import LinkModel, NetworkSimulator, run_broadcast
from repro.simulation.workloads import permutation_pairs


class TestPublicAPI:
    def test_top_level_exports(self):
        assert repro.__version__
        layout = repro.optimal_debruijn_layout(2, 6)
        assert layout.verify()
        assert repro.is_otis_layout_of_de_bruijn(2, 3, 4)
        assert repro.diameter(repro.de_bruijn(2, 5)) == 5

    def test_docstring_example(self):
        layout = repro.optimal_debruijn_layout(2, 8)
        assert (layout.p, layout.q, layout.num_lenses) == (16, 32, 48)
        assert layout.verify()


class TestEndToEndLayoutAndSimulation:
    def test_design_lay_out_and_run_a_network(self):
        # 1. choose the topology: B(2, 6), 64 processors
        d, D = 2, 6
        network = de_bruijn(d, D)
        assert diameter(network) == D

        # 2. lay it out optically (Corollary 4.4)
        layout = optimal_debruijn_layout(d, D)
        assert layout.verify()
        assert layout.num_lenses == 3 * 2 ** (D // 2)

        # 3. hardware bill of materials
        report = HardwareModel().evaluate(layout)
        assert report.num_transmitters == 64 * 2
        baseline = HardwareModel().evaluate(imase_itoh_layout(d, 2**D))
        assert report.num_lenses < baseline.num_lenses

        # 4. run a permutation workload on the laid-out network
        simulator = NetworkSimulator(
            network, link=LinkModel(latency=1.0, transmission_time=0.1)
        )
        stats, messages = simulator.run(permutation_pairs(64, rng=0))
        assert stats.delivered == 64
        assert stats.mean_hops <= D

        # 5. broadcast completes in D all-port rounds
        result = run_broadcast(network, root=0)
        assert result["all_port_rounds"] == D

    def test_layout_node_assignment_consistency(self):
        # The physical assignment derived from the layout must reproduce the
        # logical de Bruijn adjacency through the OTIS wiring.
        from repro.otis.architecture import OTISArchitecture

        d, D = 2, 4
        layout = optimal_debruijn_layout(d, D)
        otis = OTISArchitecture(layout.p, layout.q)
        B = layout.graph
        h_of = layout.node_to_h
        h_to_node = {int(h_of[u]): u for u in range(B.num_vertices)}
        for u in range(B.num_vertices):
            assignment = layout.node_assignment(u)
            reached = set()
            for (i, j) in assignment.transmitters:
                a, b = otis.receiver_of(i, j)
                receiver_index = otis.receiver_index(a, b)
                reached.add(h_to_node[receiver_index // d])
            assert reached == set(B.out_neighbors(u))


class TestPaperFigures:
    def test_figure_1_2_3_are_the_same_digraph(self):
        B = de_bruijn(2, 3)
        RRK = repro.reddy_raghavan_kuhl(2, 8)
        II = repro.imase_itoh(2, 8)
        assert B.same_arcs(RRK)
        assert are_isomorphic(B, II)
        mapping = repro.debruijn_to_imase_itoh_isomorphism(2, 3)
        assert is_isomorphism(B, II, mapping)

    def test_figure_5_decomposition(self):
        spec = AlphabetDigraphSpec(
            d=2, D=3, f=Permutation([2, 1, 0]), sigma=identity(2), j=1
        )
        factors = decompose_non_cyclic(spec)
        sizes = sorted(f.size for f in factors)
        assert sizes == [2, 2, 4]

    def test_figures_7_8_h_4_8_2(self):
        H = h_digraph(4, 8, 2)
        B = de_bruijn(2, 4)
        assert are_isomorphic(H, B)
        # the constructive mapping via Proposition 4.1 / Corollary 4.2
        from repro.core.checks import otis_alphabet_spec

        spec = otis_alphabet_spec(2, 2, 3)
        mapping = debruijn_to_alphabet_isomorphism(spec)
        assert is_isomorphism(B, H, mapping)

    def test_paper_vs_measured_rows(self):
        # A few headline numbers recorded in EXPERIMENTS.md.
        layout = optimal_debruijn_layout(2, 8)
        rows = [
            paper_vs_measured("B(2,8) nodes", 256, layout.num_nodes),
            paper_vs_measured("B(2,8) optimal lenses", 48, layout.num_lenses),
            paper_vs_measured("B(2,8) diameter", 8, diameter(layout.graph)),
            paper_vs_measured("K(2,8) order", 384, kautz(2, 8).num_vertices),
        ]
        assert all(row["match"] for row in rows)


class TestCrossSubstrateConsistency:
    def test_routing_on_h_digraph_matches_debruijn_distances(self):
        # Routing on H(16, 32, 2) relabelled by the layout mapping gives the
        # same distance distribution as routing on B(2, 8) directly.
        d, D = 2, 6
        layout = optimal_debruijn_layout(d, D)
        B = layout.graph
        H = layout.h()
        table_B = build_routing_table(B)
        table_H = build_routing_table(H)
        mapping = layout.node_to_h
        sample = np.random.default_rng(0).integers(0, B.num_vertices, size=(30, 2))
        for s, t in sample:
            assert (
                table_B.distance[s, t]
                == table_H.distance[mapping[s], mapping[t]]
            )
