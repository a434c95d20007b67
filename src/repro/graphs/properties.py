"""Metric and structural digraph properties.

The quantity that matters most for the paper's evaluation is the **diameter**:
Table 1 reports, for degree 2 and diameters 8, 9 and 10, the largest OTIS
digraphs ``H(p, q, 2)`` found by exhaustive search.  Regenerating that table
requires thousands of diameter computations on digraphs with up to ~1500
vertices, so every metric runs on the batched bit-parallel sweep of
:mod:`repro.graphs.apsp`, which processes 64 BFS sources per machine word;
only :func:`distance_matrix`, whose output *is* the full matrix,
materialises an ``n × n`` array.

:func:`_bfs_distance_matrix` (repeated per-source BFS) is the reference the
unit tests compare every metric against, as the HPC guide recommends when
an optimised path shadows a straightforward one.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.apsp import (
    batched_eccentricities,
    bit_distance_matrix,
    pairwise_distance_sum,
)
from repro.graphs.digraph import BaseDigraph, RegularDigraph
from repro.graphs.traversal import (
    bfs_distances,
    bfs_distances_regular,
    is_strongly_connected,
    is_weakly_connected,
)

__all__ = [
    "distance_matrix",
    "eccentricities",
    "diameter",
    "radius",
    "average_distance",
    "girth",
    "degree_summary",
    "is_strongly_connected",
    "is_weakly_connected",
]


def distance_matrix(graph: BaseDigraph) -> np.ndarray:
    """All-pairs unweighted shortest-path distances.

    Entry ``[u, v]`` is the number of arcs on a shortest directed path from
    ``u`` to ``v``, or ``-1`` when ``v`` is unreachable from ``u``.
    """
    return bit_distance_matrix(graph)


def _bfs_distance_matrix(graph: BaseDigraph) -> np.ndarray:
    """Reference :func:`distance_matrix`: one BFS per source vertex."""
    n = graph.num_vertices
    bfs = bfs_distances_regular if isinstance(graph, RegularDigraph) else bfs_distances
    dist = np.empty((n, n), dtype=np.int64)
    for source in range(n):
        dist[source] = bfs(graph, source)
    return dist


def eccentricities(graph: BaseDigraph) -> np.ndarray:
    """Out-eccentricity of every vertex; ``-1`` marks vertices that cannot
    reach the whole digraph (the batched bit-parallel sweep of
    :mod:`repro.graphs.apsp`, no ``n × n`` matrix).
    """
    ecc, _ = batched_eccentricities(graph)
    return ecc


def diameter(graph: BaseDigraph) -> int:
    """Directed diameter; ``-1`` when the digraph is not strongly connected.

    The de Bruijn digraph ``B(d, D)`` has diameter exactly ``D``; the Kautz
    digraph ``K(d, D)`` also has diameter ``D`` with more vertices, which is
    why it tops Table 1.
    """
    if graph.num_vertices == 0:
        return -1
    ecc = eccentricities(graph)
    if np.any(ecc < 0):
        return -1
    return int(ecc.max())


def radius(graph: BaseDigraph) -> int:
    """Directed radius (minimum finite out-eccentricity); ``-1`` if none."""
    ecc = eccentricities(graph)
    finite = ecc[ecc >= 0]
    if finite.size == 0:
        return -1
    return int(finite.min())


def average_distance(graph: BaseDigraph) -> float:
    """Mean directed distance over ordered pairs of distinct vertices.

    Raises :class:`ValueError` if some pair is unreachable, because the mean
    would be meaningless.
    """
    n = graph.num_vertices
    if n < 2:
        return 0.0
    total, complete = pairwise_distance_sum(graph)
    if not complete:
        raise ValueError("average_distance requires a strongly connected digraph")
    return total / (n * (n - 1))


def girth(graph: BaseDigraph, max_length: int | None = None) -> int:
    """Length of the shortest directed cycle, or ``-1`` if the digraph is acyclic.

    Loops count as cycles of length 1 (the de Bruijn digraph has ``d`` of
    them).  The search performs one BFS per vertex, optionally truncated at
    ``max_length``.
    """
    n = graph.num_vertices
    # Loops first: once no vertex has a loop, no cycle shorter than 2 exists,
    # which is what makes the 2-cycle early exit below sound.
    for u in range(n):
        if u in graph.out_neighbors(u):
            return 1
    best: int | None = None
    for u in range(n):
        # Shortest cycle through u is 1 + min distance from a successor back
        # to u; the BFS is truncated at the tightest useful cutoff (improving
        # on the best cycle found so far, never beyond max_length).
        for v in set(graph.out_neighbors(u)):
            cutoff: int | None = None
            if best is not None:
                cutoff = best - 2  # a shorter cycle needs back <= best - 2
            if max_length is not None:
                cutoff = (
                    max_length - 1 if cutoff is None else min(cutoff, max_length - 1)
                )
            back = _distance_between(graph, v, u, cutoff=cutoff)
            if back < 0:
                continue
            length = back + 1
            if best is None or length < best:
                best = length
            if best == 2:
                return 2  # nothing shorter remains after the loop check
    return -1 if best is None else int(best)


def _distance_between(
    graph: BaseDigraph, source: int, target: int, cutoff: int | None = None
) -> int:
    """Distance from ``source`` to ``target`` (early-exit BFS).

    With a ``cutoff`` the BFS never expands beyond that depth and returns
    ``-1`` when the distance exceeds it — the truncation :func:`girth`
    advertises for its ``max_length`` argument.
    """
    from collections import deque

    if source == target:
        return 0
    if cutoff is not None and cutoff < 1:
        return -1
    n = graph.num_vertices
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    queue = deque([(source, 0)])
    while queue:
        u, d = queue.popleft()
        for v in graph.out_neighbors(u):
            if v == target:
                return d + 1
            if not seen[v] and (cutoff is None or d + 1 < cutoff):
                seen[v] = True
                queue.append((v, d + 1))
    return -1


def degree_summary(graph: BaseDigraph) -> dict[str, object]:
    """Summary of degree statistics used by the reporting helpers."""
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    return {
        "num_vertices": graph.num_vertices,
        "num_arcs": graph.num_arcs,
        "out_degree_min": int(out_deg.min()) if out_deg.size else 0,
        "out_degree_max": int(out_deg.max()) if out_deg.size else 0,
        "in_degree_min": int(in_deg.min()) if in_deg.size else 0,
        "in_degree_max": int(in_deg.max()) if in_deg.size else 0,
        "is_out_regular": graph.is_out_regular(),
        "is_regular": graph.is_regular(),
        "num_loops": graph.num_loops(),
    }
