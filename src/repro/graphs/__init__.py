"""Digraph substrate: data structures, families, operations and properties.

This subpackage is the self-contained graph layer underneath the paper's
isomorphism machinery (:mod:`repro.core`) and the OTIS optical layouts
(:mod:`repro.otis`).  It provides

* :class:`~repro.graphs.digraph.Digraph` and
  :class:`~repro.graphs.digraph.RegularDigraph` — integer-labelled digraphs
  with loops and parallel arcs allowed,
* the classic digraph families of the paper
  (:mod:`repro.graphs.generators`): de Bruijn, Kautz, Reddy–Raghavan–Kuhl,
  Imase–Itoh, circuits, complete digraphs, and the multistage networks the
  introduction cites (shuffle-exchange, butterfly, ShuffleNet, GEMNET),
* graph operations (:mod:`repro.graphs.operations`): conjunction
  (Definition 2.3), line digraph, reverse, disjoint union, relabelling,
* traversal and metric properties (:mod:`repro.graphs.traversal`,
  :mod:`repro.graphs.properties`): BFS, strongly/weakly connected components,
  diameter and eccentricities (batched bit-parallel sweep in
  :mod:`repro.graphs.apsp`, with a per-source BFS reference for the tests),
  girth, Moore bounds,
* a generic digraph isomorphism tester (:mod:`repro.graphs.isomorphism`) used
  as the *baseline* against the paper's O(D) structural checks,
* networkx interoperability (:mod:`repro.graphs.nx_interop`).
"""

from repro.graphs.apsp import (
    batched_eccentricities,
    bit_distance_matrix,
    pairwise_distance_sum,
)
from repro.graphs.digraph import Digraph, RegularDigraph
from repro.graphs.generators import (
    circuit,
    complete_digraph_with_loops,
    de_bruijn,
    imase_itoh,
    kautz,
    reddy_raghavan_kuhl,
)
from repro.graphs.isomorphism import are_isomorphic, find_isomorphism, is_isomorphism
from repro.graphs.operations import conjunction, line_digraph, relabel, reverse
from repro.graphs.properties import (
    average_distance,
    diameter,
    distance_matrix,
    eccentricities,
    girth,
    is_strongly_connected,
    is_weakly_connected,
    radius,
)

__all__ = [
    "Digraph",
    "RegularDigraph",
    "de_bruijn",
    "kautz",
    "imase_itoh",
    "reddy_raghavan_kuhl",
    "circuit",
    "complete_digraph_with_loops",
    "conjunction",
    "line_digraph",
    "reverse",
    "relabel",
    "diameter",
    "distance_matrix",
    "eccentricities",
    "radius",
    "average_distance",
    "girth",
    "batched_eccentricities",
    "bit_distance_matrix",
    "pairwise_distance_sum",
    "is_strongly_connected",
    "is_weakly_connected",
    "are_isomorphic",
    "find_isomorphism",
    "is_isomorphism",
]
