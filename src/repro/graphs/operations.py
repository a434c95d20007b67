"""Digraph operations: conjunction, line digraph, reverse, unions, relabelling.

The *conjunction* (tensor / categorical product, Definition 2.3) is the
operation behind two facts used in the paper:

* ``B(d, k) ⊗ B(d', k) = B(d d', k)`` (Remark 2.4), and
* every connected component of a non-cyclic alphabet digraph ``A(f, sigma, j)``
  is the conjunction of a de Bruijn digraph with a circuit (Remark 3.10,
  illustrated by Example 3.3.2 / Figure 5).

The *line digraph* is included because iterated line digraphs of complete
digraphs are exactly the de Bruijn digraphs (``L(B(d, D)) = B(d, D+1)``),
which the tests use as an independent consistency check of the generators.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs.digraph import BaseDigraph, Digraph

__all__ = [
    "conjunction",
    "line_digraph",
    "reverse",
    "disjoint_union",
    "relabel",
    "induced_subgraph",
    "cartesian_product",
]


def conjunction(g1: BaseDigraph, g2: BaseDigraph) -> Digraph:
    """The conjunction ``G1 ⊗ G2`` (Definition 2.3).

    The vertex set is ``V1 x V2`` and ``((u1, u2), (v1, v2))`` is an arc iff
    ``(u1, v1)`` is an arc of ``G1`` **and** ``(u2, v2)`` is an arc of ``G2``.
    Vertex ``(u1, u2)`` is numbered ``u1 * |V2| + u2``.

    Multiplicities multiply: if ``(u1, v1)`` appears ``a`` times and
    ``(u2, v2)`` appears ``b`` times, the product arc appears ``a * b`` times.
    """
    n1, n2 = g1.num_vertices, g2.num_vertices
    product = Digraph(n1 * n2, name=_binary_name("⊗", g1, g2))
    for u1 in g1.vertices():
        successors1 = g1.out_neighbors(u1)
        for u2 in g2.vertices():
            successors2 = g2.out_neighbors(u2)
            source = u1 * n2 + u2
            for v1 in successors1:
                for v2 in successors2:
                    product.add_arc(source, v1 * n2 + v2)
    return product


def line_digraph(graph: BaseDigraph) -> Digraph:
    """The line digraph ``L(G)``.

    Vertices of ``L(G)`` are the arcs of ``G`` (numbered in the order produced
    by :meth:`BaseDigraph.arcs`); there is an arc from ``(u, v)`` to
    ``(v, w)`` for every pair of consecutive arcs.  The classical fact
    ``L(B(d, D)) ≅ B(d, D+1)`` is exercised by the tests.
    """
    arcs = list(graph.arcs())
    line = Digraph(len(arcs), name=f"L({graph.name})" if graph.name else "L")
    # Group arc indices by their tail for O(m * d) construction.
    arcs_by_tail: dict[int, list[int]] = {}
    for index, (u, _v) in enumerate(arcs):
        arcs_by_tail.setdefault(u, []).append(index)
    for index, (_u, v) in enumerate(arcs):
        for next_index in arcs_by_tail.get(v, ()):
            line.add_arc(index, next_index)
    return line


def reverse(graph: BaseDigraph) -> Digraph:
    """The reverse digraph ``G^-`` (all arcs flipped).

    The paper uses it in Section 4.2: if ``G`` admits an ``OTIS(p, q)``
    layout then ``G^-`` admits an ``OTIS(q, p)`` layout.
    """
    result = Digraph(
        graph.num_vertices, name=f"reverse({graph.name})" if graph.name else ""
    )
    for u, v in graph.arcs():
        result.add_arc(v, u)
    return result


def disjoint_union(graphs: Sequence[BaseDigraph]) -> Digraph:
    """Disjoint union; vertices of the ``i``-th graph are shifted by the
    total size of the preceding graphs."""
    total = sum(g.num_vertices for g in graphs)
    result = Digraph(total, name="+".join(g.name for g in graphs if g.name))
    offset = 0
    for g in graphs:
        for u, v in g.arcs():
            result.add_arc(u + offset, v + offset)
        offset += g.num_vertices
    return result


def relabel(graph: BaseDigraph, mapping: Sequence[int] | np.ndarray) -> Digraph:
    """Rename vertex ``u`` to ``mapping[u]`` (mapping must be a permutation)."""
    n = graph.num_vertices
    mapping = np.asarray(mapping, dtype=np.int64)
    if mapping.shape != (n,) or sorted(mapping.tolist()) != list(range(n)):
        raise ValueError("mapping must be a permutation of the vertex set")
    result = Digraph(n, name=graph.name)
    for u, v in graph.arcs():
        result.add_arc(int(mapping[u]), int(mapping[v]))
    return result


def induced_subgraph(graph: BaseDigraph, vertices: Sequence[int]) -> Digraph:
    """The subgraph induced by ``vertices`` (relabelled ``0..k-1`` in order)."""
    vertex_list = [int(v) for v in vertices]
    if len(set(vertex_list)) != len(vertex_list):
        raise ValueError("vertices must be distinct")
    index = {v: i for i, v in enumerate(vertex_list)}
    result = Digraph(len(vertex_list), name=f"{graph.name}[{len(vertex_list)}]")
    for u in vertex_list:
        for v in graph.out_neighbors(u):
            if v in index:
                result.add_arc(index[u], index[v])
    return result


def cartesian_product(g1: BaseDigraph, g2: BaseDigraph) -> Digraph:
    """The Cartesian product ``G1 □ G2`` (move in one coordinate at a time)."""
    n1, n2 = g1.num_vertices, g2.num_vertices
    product = Digraph(n1 * n2, name=_binary_name("□", g1, g2))
    for u1 in g1.vertices():
        for u2 in g2.vertices():
            source = u1 * n2 + u2
            for v1 in g1.out_neighbors(u1):
                product.add_arc(source, v1 * n2 + u2)
            for v2 in g2.out_neighbors(u2):
                product.add_arc(source, u1 * n2 + v2)
    return product


def _binary_name(op: str, g1: BaseDigraph, g2: BaseDigraph) -> str:
    if g1.name and g2.name:
        return f"{g1.name} {op} {g2.name}"
    return ""
