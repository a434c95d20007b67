"""Integer-labelled digraph data structures.

Two concrete classes are provided, sharing the :class:`BaseDigraph`
interface:

* :class:`Digraph` — a mutable adjacency-list digraph, convenient while a
  graph is being *constructed* (e.g. by the OTIS wiring code or by the
  degree–diameter search).
* :class:`RegularDigraph` — an immutable digraph of constant out-degree ``d``
  whose arcs are stored as an ``(n, d)`` numpy successor matrix.  All the
  digraph families in this library (de Bruijn, Kautz, Imase–Itoh, ``H(p,q,d)``,
  ``A(f, sigma, j)``) are out-regular, and the successor-matrix form lets the
  hot paths (diameter sweeps for Table 1, isomorphism certificates, the
  network simulator) operate on whole numpy arrays instead of Python loops,
  per the HPC guideline of vectorising the bottleneck.

Vertices are always the integers ``0 .. n-1``.  Loops and parallel arcs are
allowed — the de Bruijn digraph has ``d`` loops, and conjunctions with small
circuits can create parallel arcs.  Arc multiplicity is therefore tracked
everywhere (arc multisets, not arc sets).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["BaseDigraph", "Digraph", "RegularDigraph"]

Arc = tuple[int, int]


class BaseDigraph:
    """Common read-only interface shared by :class:`Digraph` and
    :class:`RegularDigraph`.

    Subclasses must implement :attr:`num_vertices` and
    :meth:`out_neighbors`; everything else is derived.
    """

    #: Optional human-readable name (e.g. ``"B(2,3)"``), set by generators.
    name: str = ""

    # ----------------------------------------------------------- interface
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``; vertices are ``0 .. n-1``."""
        raise NotImplementedError

    def out_neighbors(self, u: int) -> list[int]:
        """Successors of ``u``, with multiplicity, in construction order."""
        raise NotImplementedError

    # ------------------------------------------------------------- derived
    def __len__(self) -> int:
        return self.num_vertices

    def vertices(self) -> range:
        """The vertex set as a range object."""
        return range(self.num_vertices)

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.num_vertices:
            raise ValueError(
                f"vertex {u} out of range for digraph on {self.num_vertices} vertices"
            )

    def arcs(self) -> Iterator[Arc]:
        """Iterate over all arcs ``(u, v)`` with multiplicity."""
        for u in self.vertices():
            for v in self.out_neighbors(u):
                yield (u, v)

    def arc_multiset(self) -> Counter[Arc]:
        """Multiset of arcs, for equality and isomorphism verification."""
        return Counter(self.arcs())

    @property
    def num_arcs(self) -> int:
        """Total number of arcs ``m`` (counting multiplicity)."""
        return sum(self.out_degree(u) for u in self.vertices())

    def out_degree(self, u: int) -> int:
        """Out-degree of ``u`` (counting multiplicity)."""
        return len(self.out_neighbors(u))

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees of every vertex (counting multiplicity)."""
        degrees = np.zeros(self.num_vertices, dtype=np.int64)
        for _, v in self.arcs():
            degrees[v] += 1
        return degrees

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees of every vertex (counting multiplicity)."""
        return np.array(
            [self.out_degree(u) for u in self.vertices()], dtype=np.int64
        )

    def in_neighbors(self, v: int) -> list[int]:
        """Predecessors of ``v`` with multiplicity (O(m); prefer batch use)."""
        self._check_vertex(v)
        return [u for u, w in self.arcs() if w == v]

    def has_arc(self, u: int, v: int) -> bool:
        """True when there is at least one arc from ``u`` to ``v``."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.out_neighbors(u)

    def is_out_regular(self) -> bool:
        """True when every vertex has the same out-degree."""
        degrees = self.out_degrees()
        return bool(degrees.size == 0 or np.all(degrees == degrees[0]))

    def is_regular(self) -> bool:
        """True when every in-degree and out-degree equals the same constant."""
        out_deg = self.out_degrees()
        in_deg = self.in_degrees()
        if out_deg.size == 0:
            return True
        d = out_deg[0]
        return bool(np.all(out_deg == d) and np.all(in_deg == d))

    def num_loops(self) -> int:
        """Number of loops (arcs ``(u, u)``), counting multiplicity."""
        return sum(1 for u, v in self.arcs() if u == v)

    def successor_matrix(self) -> np.ndarray:
        """The ``(n, d)`` numpy successor matrix (requires out-regularity)."""
        if not self.is_out_regular():
            raise ValueError("successor_matrix requires an out-regular digraph")
        n = self.num_vertices
        if n == 0:
            return np.zeros((0, 0), dtype=np.int64)
        d = self.out_degree(0)
        matrix = np.empty((n, d), dtype=np.int64)
        for u in self.vertices():
            matrix[u, :] = self.out_neighbors(u)
        return matrix

    def to_digraph(self) -> "Digraph":
        """Copy into a mutable :class:`Digraph`."""
        graph = Digraph(self.num_vertices, name=self.name)
        for u, v in self.arcs():
            graph.add_arc(u, v)
        return graph

    def to_regular(self) -> "RegularDigraph":
        """Copy into an immutable :class:`RegularDigraph` (must be out-regular)."""
        return RegularDigraph(self.successor_matrix(), name=self.name)

    # ------------------------------------------------------------- equality
    def same_arcs(self, other: "BaseDigraph") -> bool:
        """True when both digraphs have identical vertex count and arc multisets.

        This is *labelled* equality, not isomorphism; use
        :func:`repro.graphs.isomorphism.are_isomorphic` for the latter.
        """
        return (
            self.num_vertices == other.num_vertices
            and self.arc_multiset() == other.arc_multiset()
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<{type(self).__name__}{label} n={self.num_vertices} "
            f"m={self.num_arcs}>"
        )


class Digraph(BaseDigraph):
    """A mutable adjacency-list digraph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices.
    arcs:
        Optional iterable of ``(u, v)`` pairs to add immediately.
    name:
        Optional descriptive name.
    """

    def __init__(
        self,
        num_vertices: int,
        arcs: Iterable[Arc] | None = None,
        name: str = "",
    ):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._n = int(num_vertices)
        self._succ: list[list[int]] = [[] for _ in range(self._n)]
        self.name = name
        if arcs is not None:
            for u, v in arcs:
                self.add_arc(u, v)

    @property
    def num_vertices(self) -> int:
        return self._n

    def out_neighbors(self, u: int) -> list[int]:
        self._check_vertex(u)
        return list(self._succ[u])

    def add_arc(self, u: int, v: int) -> None:
        """Add an arc ``(u, v)``; parallel arcs and loops are allowed."""
        self._check_vertex(u)
        self._check_vertex(v)
        self._succ[u].append(v)

    def add_arcs(self, arcs: Iterable[Arc]) -> None:
        """Add many arcs at once."""
        for u, v in arcs:
            self.add_arc(u, v)

    def remove_arc(self, u: int, v: int) -> None:
        """Remove one copy of the arc ``(u, v)``; raises if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            self._succ[u].remove(v)
        except ValueError as exc:
            raise ValueError(f"arc ({u}, {v}) not present") from exc

    def add_vertex(self) -> int:
        """Append a new isolated vertex and return its label."""
        self._succ.append([])
        self._n += 1
        return self._n - 1

    def copy(self) -> "Digraph":
        """An independent copy of this digraph."""
        graph = Digraph(self._n, name=self.name)
        graph._succ = [list(successors) for successors in self._succ]
        return graph


class RegularDigraph(BaseDigraph):
    """An immutable out-regular digraph stored as an ``(n, d)`` successor matrix.

    ``successors[u, k]`` is the head of the ``k``-th arc leaving ``u``.  The
    matrix is kept read-only; construction-time validation guarantees every
    entry is a valid vertex.

    Parameters
    ----------
    successors:
        Array-like of shape ``(n, d)``.
    name:
        Optional descriptive name (e.g. ``"B(2,4)"``).
    labels:
        Optional sequence of ``n`` vertex labels (e.g. the length-``D`` words
        labelling de Bruijn vertices); purely informational.
    """

    def __init__(
        self,
        successors: np.ndarray | Sequence[Sequence[int]],
        name: str = "",
        labels: Sequence[object] | None = None,
    ):
        matrix = np.array(successors, dtype=np.int64)
        if matrix.ndim != 2:
            raise ValueError("successors must be a 2-D (n, d) array")
        n = matrix.shape[0]
        if matrix.size and (matrix.min() < 0 or matrix.max() >= n):
            raise ValueError("successor entries must be vertices in 0..n-1")
        matrix.setflags(write=False)
        self._succ = matrix
        self.name = name
        if labels is not None and len(labels) != n:
            raise ValueError("labels must have one entry per vertex")
        self.labels = list(labels) if labels is not None else None

    @property
    def num_vertices(self) -> int:
        return int(self._succ.shape[0])

    @property
    def degree(self) -> int:
        """The constant out-degree ``d``."""
        return int(self._succ.shape[1])

    @property
    def successors(self) -> np.ndarray:
        """The read-only ``(n, d)`` successor matrix."""
        return self._succ

    def out_neighbors(self, u: int) -> list[int]:
        self._check_vertex(u)
        return [int(v) for v in self._succ[u]]

    def out_degree(self, u: int) -> int:
        self._check_vertex(u)
        return self.degree

    @property
    def num_arcs(self) -> int:
        return self.num_vertices * self.degree

    def successor_matrix(self) -> np.ndarray:
        return self._succ

    def in_degrees(self) -> np.ndarray:
        return np.bincount(
            self._succ.ravel(), minlength=self.num_vertices
        ).astype(np.int64)

    def relabel(self, mapping: Sequence[int] | np.ndarray) -> "RegularDigraph":
        """Return the digraph with vertex ``u`` renamed ``mapping[u]``.

        ``mapping`` must be a permutation of ``0 .. n-1``.  The result has an
        arc ``(mapping[u], mapping[v])`` for every arc ``(u, v)``.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        n = self.num_vertices
        if mapping.shape != (n,) or sorted(mapping.tolist()) != list(range(n)):
            raise ValueError("mapping must be a permutation of the vertex set")
        new_succ = np.empty_like(self._succ)
        new_succ[mapping, :] = mapping[self._succ]
        labels = None
        if self.labels is not None:
            labels = [None] * n
            for u in range(n):
                labels[mapping[u]] = self.labels[u]
        return RegularDigraph(new_succ, name=self.name, labels=labels)

    def reverse(self) -> "Digraph":
        """The digraph with every arc reversed (``G^-`` in the paper)."""
        graph = Digraph(self.num_vertices, name=f"reverse({self.name})" if self.name else "")
        n, d = self._succ.shape
        for u in range(n):
            for k in range(d):
                graph.add_arc(int(self._succ[u, k]), u)
        return graph

    def label_of(self, u: int) -> object:
        """The stored label of vertex ``u`` (or ``u`` itself if unlabelled)."""
        self._check_vertex(u)
        if self.labels is None:
            return u
        return self.labels[u]
