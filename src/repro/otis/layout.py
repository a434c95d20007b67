"""OTIS layouts of de Bruijn-like digraphs (Section 4.2 and 4.4).

A digraph ``G`` with ``n`` nodes of constant degree ``d`` *has an
OTIS(p, q)-layout* when ``p*q = n*d`` and ``G`` is isomorphic to
``H(p, q, d)``.  A layout is therefore more than a yes/no answer: it is an
explicit assignment of every node of ``G`` to a group of ``d`` transmitters
and ``d`` receivers of the optical plane.  :class:`OTISLayout` packages that
assignment together with its hardware cost.

The constructions provided:

* :func:`imase_itoh_layout` — the previously known ``OTIS(d, n)`` layout of
  ``II(d, n)`` (ref. [14]), which through Proposition 3.3 also lays out the
  de Bruijn digraph, but with ``p + q = d + n = O(n)`` lenses.
* :func:`kautz_layout` — the ``OTIS(d, n)`` layout of the Kautz digraph
  ``K(d, D)`` (``n = d^D + d^{D-1}``), again ``O(n)`` lenses.
* :func:`debruijn_layout` — the paper's contribution: for any valid split
  ``p' + q' - 1 = D`` (Corollary 4.2) an explicit layout of ``B(d, D)`` on
  ``OTIS(d^{p'}, d^{q'})``, built from the constructive isomorphism
  ``Ψ : B(d, D) → A(f, C, p'-1) = H(d^{p'}, d^{q'}, d)``.
* :func:`optimal_debruijn_layout` — the lens-minimising split of Corollary
  4.6, which for even ``D`` is the balanced ``Θ(√n)``-lens layout of
  Corollary 4.4.

Every layout can ``verify()`` itself by checking that relabelling ``G`` by
the node assignment reproduces ``H(p, q, d)`` arc-for-arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import (
    LensSplit,
    minimal_lens_split,
    otis_alphabet_spec,
)
from repro.core.isomorphisms import debruijn_to_alphabet_isomorphism
from repro.graphs.digraph import BaseDigraph, RegularDigraph
from repro.graphs.generators import de_bruijn, imase_itoh, kautz
from repro.graphs.isomorphism import find_isomorphism, is_isomorphism
from repro.otis.h_digraph import NodeAssignment, h_digraph, otis_node_assignment

__all__ = [
    "OTISLayout",
    "debruijn_layout",
    "optimal_debruijn_layout",
    "imase_itoh_layout",
    "kautz_layout",
    "find_layout_by_search",
]


@dataclass
class OTISLayout:
    """An explicit OTIS(p, q) layout of a digraph.

    Attributes
    ----------
    graph:
        The digraph being laid out (nodes ``0 .. n-1``).
    p, q:
        The OTIS system parameters; the optical plane has ``p*q``
        transmitters, ``p*q`` receivers and ``p + q`` lenses.
    d:
        Transceivers per node (= the digraph's constant degree).
    node_to_h:
        Array of length ``n``: ``node_to_h[u]`` is the ``H(p, q, d)`` node
        index assigned to node ``u`` of ``graph``.  This single array encodes
        the whole physical layout, because the transceivers of an ``H`` node
        are fixed by the architecture (:func:`otis_node_assignment`).
    description:
        Human-readable provenance (which corollary / search produced it).
    """

    graph: BaseDigraph
    p: int
    q: int
    d: int
    node_to_h: np.ndarray
    description: str = ""
    _h_cache: RegularDigraph | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------ hardware
    @property
    def num_nodes(self) -> int:
        """Number of processors ``n``."""
        return self.graph.num_vertices

    @property
    def num_lenses(self) -> int:
        """Number of lenses ``p + q`` used by the optical system."""
        return self.p + self.q

    @property
    def num_transceivers_per_node(self) -> int:
        """Transmitter/receiver pairs per processor (= degree ``d``)."""
        return self.d

    @property
    def lens_efficiency(self) -> float:
        """Ratio ``(p + q) / sqrt(n)`` — the paper's optimum is ``Θ(1)`` here.

        For the balanced even-``D`` layout of Corollary 4.4 this equals
        exactly ``1 + d``; for the Imase–Itoh layout it grows like ``sqrt(n)``.
        """
        return self.num_lenses / float(np.sqrt(self.num_nodes))

    # ------------------------------------------------------------- assembly
    def h(self) -> RegularDigraph:
        """The target OTIS digraph ``H(p, q, d)`` (cached)."""
        if self._h_cache is None:
            self._h_cache = h_digraph(self.p, self.q, self.d)
        return self._h_cache

    def node_assignment(self, node: int) -> NodeAssignment:
        """Physical transceivers assigned to ``node`` of the laid-out digraph."""
        return otis_node_assignment(self.p, self.q, self.d, int(self.node_to_h[node]))

    def transmitter_map(self) -> np.ndarray:
        """Array ``(n, d, 2)``: transmitter (group, offset) per node and slot."""
        n = self.num_nodes
        result = np.empty((n, self.d, 2), dtype=np.int64)
        for u in range(n):
            assignment = self.node_assignment(u)
            for slot, (i, j) in enumerate(assignment.transmitters):
                result[u, slot] = (i, j)
        return result

    def verify(self) -> bool:
        """Check that the assignment is an isomorphism onto ``H(p, q, d)``.

        Returns True when relabelling ``graph`` by ``node_to_h`` reproduces
        the OTIS digraph exactly (arc multisets compared).
        """
        return is_isomorphism(self.graph, self.h(), self.node_to_h)

    def summary(self) -> dict[str, object]:
        """A dictionary of the headline layout figures (for reports/benches)."""
        return {
            "graph": self.graph.name or repr(self.graph),
            "nodes": self.num_nodes,
            "degree": self.d,
            "p": self.p,
            "q": self.q,
            "lenses": self.num_lenses,
            "lens_efficiency": self.lens_efficiency,
            "description": self.description,
        }


# --------------------------------------------------------------------------
# The paper's de Bruijn layouts
# --------------------------------------------------------------------------
def debruijn_layout(d: int, D: int, p_prime: int, q_prime: int) -> OTISLayout:
    """Lay out ``B(d, D)`` on ``OTIS(d^{p'}, d^{q'})`` (Corollary 4.2).

    Parameters
    ----------
    d, D:
        De Bruijn degree and diameter; ``n = d**D`` nodes.
    p_prime, q_prime:
        The split; must satisfy ``p' + q' - 1 = D`` and pass the cyclicity
        test of Corollary 4.2.

    Raises
    ------
    ValueError
        If the split does not cover ``D`` or does not yield a de Bruijn
        layout (e.g. the balanced split for odd ``D > 1``, Proposition 4.3).
    """
    if p_prime + q_prime - 1 != D:
        raise ValueError(
            f"split ({p_prime}, {q_prime}) does not satisfy p' + q' - 1 = D = {D}"
        )
    spec = otis_alphabet_spec(d, p_prime, q_prime)
    if not spec.is_debruijn_isomorphic():
        raise ValueError(
            f"H(d^{p_prime}, d^{q_prime}, d) is not isomorphic to B({d},{D}): "
            "the index permutation of Proposition 4.1 is not cyclic"
        )
    mapping = debruijn_to_alphabet_isomorphism(spec)
    graph = de_bruijn(d, D)
    return OTISLayout(
        graph=graph,
        p=d**p_prime,
        q=d**q_prime,
        d=d,
        node_to_h=mapping,
        description=(
            f"B({d},{D}) on OTIS({d**p_prime},{d**q_prime}) via Corollary 4.2 "
            f"(p'={p_prime}, q'={q_prime})"
        ),
    )


def optimal_debruijn_layout(d: int, D: int) -> OTISLayout:
    """The lens-minimising layout of ``B(d, D)`` (Corollaries 4.4 and 4.6).

    For even ``D`` this is the balanced split ``p' = D/2``, ``q' = D/2 + 1``
    with ``p + q = Θ(√n)`` lenses; for odd ``D`` the best valid split found by
    the ``O(D^2)`` search of Corollary 4.6 is used.
    """
    split: LensSplit = minimal_lens_split(d, D)
    return debruijn_layout(d, D, split.p_prime, split.q_prime)


def imase_itoh_layout(d: int, n: int) -> OTISLayout:
    """The previously known ``OTIS(d, n)`` layout of ``II(d, n)`` (ref. [14]).

    Uses ``d + n = O(n)`` lenses — the baseline the paper improves upon.  The
    node assignment is the identity: ``II(d, n)`` equals ``H(d, n, d)`` on
    integer labels (verified by the tests for many ``(d, n)``).
    """
    graph = imase_itoh(d, n)
    return OTISLayout(
        graph=graph,
        p=d,
        q=n,
        d=d,
        node_to_h=np.arange(n, dtype=np.int64),
        description=f"II({d},{n}) on OTIS({d},{n}) (known layout, O(n) lenses)",
    )


def kautz_layout(d: int, D: int) -> OTISLayout:
    """An ``OTIS(d, n)`` layout of the Kautz digraph ``K(d, D)``.

    ``K(d, D)`` is isomorphic to ``II(d, d^{D-1}(d+1))`` (Imase & Itoh, ref.
    [21]), so it inherits the ``OTIS(d, n)`` layout of the Imase–Itoh digraph.
    The node assignment is computed with the generic isomorphism search for
    small instances (the closed-form congruence isomorphism is exercised by
    the routing tests); this keeps the function exact while staying out of any
    hot path.
    """
    n = d ** (D - 1) * (d + 1)
    graph = kautz(d, D)
    target = h_digraph(d, n, d)
    mapping = find_isomorphism(graph, target)
    if mapping is None:  # pragma: no cover - would contradict Imase & Itoh 1983
        raise RuntimeError(f"K({d},{D}) unexpectedly has no OTIS({d},{n}) layout")
    return OTISLayout(
        graph=graph,
        p=d,
        q=n,
        d=d,
        node_to_h=np.asarray(mapping, dtype=np.int64),
        description=f"K({d},{D}) on OTIS({d},{n}) via II isomorphism",
    )


def find_layout_by_search(graph: RegularDigraph) -> OTISLayout | None:
    """Search every OTIS split for a layout of ``graph`` (generic, small n only).

    Tries all ``(p, q)`` with ``p*q = n*d`` in order of increasing ``p + q``
    and runs the generic isomorphism search against ``H(p, q, d)``.  Returns
    the first (fewest-lens) layout found, or ``None``.  This is the brute
    force the paper's structural theory replaces; it is used by the tests and
    the ablation benchmarks as the baseline.
    """
    from repro.otis.search import candidate_splits

    n = graph.num_vertices
    d = graph.degree
    candidates = []
    for p, q in candidate_splits(n, d):
        candidates.append((p, q))
        if p != q:
            candidates.append((q, p))
    candidates.sort(key=lambda pq: (pq[0] + pq[1], pq[0]))
    for p, q in candidates:
        target = h_digraph(p, q, d)
        mapping = find_isomorphism(graph, target)
        if mapping is not None:
            return OTISLayout(
                graph=graph,
                p=p,
                q=q,
                d=d,
                node_to_h=np.asarray(mapping, dtype=np.int64),
                description=f"found by exhaustive split search",
            )
    return None
