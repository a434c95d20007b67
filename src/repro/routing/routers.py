"""Pluggable routers: table-free O(D) routing for million-node simulation.

The paper's central argument for de Bruijn/Kautz-based OTIS layouts is that
routing is *search-free*: the next hop is computable in O(D) from the word
labels alone, so no per-node state grows with ``n`` (Section 2, refs. [12,
19, 30]).  Until this module, the simulator contradicted that premise — it
materialised the dense ``(n, n)`` next-hop table of
:func:`repro.routing.paths.build_routing_table` (~1 GB at ``n = 8192``,
hopeless at ``n = 10^5``).  Three interchangeable :class:`Router`
implementations now cover the whole size range, all **bit-identical on
routes** (enforced by ``tests/test_routers.py``):

* :class:`DenseTableRouter` — wraps the all-pairs table; O(1) lookups,
  ``O(n^2)`` state.  The small-``n`` fast path.
* :class:`ClosedFormRouter` — shift routing on word labels: the compiled
  ``shift_next_hops`` kernel of :mod:`repro.kernels` (inside the simulator's
  fused round loop), or :func:`repro.routing.paths.shift_route_next_hops`
  vectorised over whole ``(current, target)`` arrays under
  ``REPRO_KERNELS=numpy``.  O(D) per hop, O(n) state (two relabelling
  arrays; zero for the de Bruijn itself).  Covers ``B(d, D)``, ``K(d, D)``,
  ``RRK(d, d^D)``, ``II(d, d^D)`` and every ``H(d^p', d^q', d)`` whose split
  passes the Corollary 4.2 cyclicity test — the next hop is computed in de
  Bruijn word space and carried through the explicit isomorphism of
  Propositions 3.2/3.9/4.1.
* :class:`LruRowRouter` — for arbitrary digraphs: per-source next-hop rows
  computed on demand from ``d + 1`` subset-source distance sweeps
  (:func:`repro.graphs.apsp.subset_distance_rows`) and kept in a bounded LRU
  of rows.  ``O(max_rows * n)`` state, exact dense-table semantics.

Why the three agree bit-for-bit: the dense builder picks, for every pair,
the *lowest out-arc slot whose head is one step closer* to the target.  On a
de Bruijn-isomorphic digraph that neighbour is unique (appending a letter
grows the suffix/prefix overlap by at most one, and only the target's next
letter achieves it), so the closed form has no choice to make; and the LRU
rows apply literally the same lowest-slot rule to the same BFS distances.

:func:`make_router` picks a kind; ``"auto"`` keeps the dense table below
:data:`AUTO_DENSE_MAX_N` vertices and switches to the closed form (falling
back to LRU rows) above it, which is what lets ``repro sim`` run 100k
messages on topologies whose dense table would not fit in memory.
"""

from __future__ import annotations

import re
import threading
from typing import NamedTuple

import numpy as np

from repro import kernels as _kernels
from repro.graphs.apsp import (
    padded_predecessor_matrix,
    padded_successor_matrix,
    subset_distance_rows,
)
from repro.graphs.digraph import BaseDigraph
from repro.routing.paths import (
    RoutingTable,
    routing_table_for,
    shift_route_next_hop,
    shift_route_next_hops,
)

__all__ = [
    "Router",
    "ShiftSpec",
    "DenseTableRouter",
    "ClosedFormRouter",
    "LruRowRouter",
    "ROUTER_KINDS",
    "AUTO_DENSE_MAX_N",
    "make_router",
    "resolve_router",
]

#: ``make_router(..., "auto")`` keeps the dense table up to this many
#: vertices (an ``(n, n)`` int64 table pair is ~64 MiB at the boundary) and
#: goes table-free above it.
AUTO_DENSE_MAX_N = 2048

#: Router kinds accepted by :func:`make_router` and the ``repro sim`` CLI.
ROUTER_KINDS = ("auto", "dense", "closed-form", "lru")


class ShiftSpec(NamedTuple):
    """What a compiled kernel needs to route a :class:`ClosedFormRouter`.

    Words of length ``D`` over ``Z_base``; ``to_code`` / ``from_code`` are
    the int64 relabelling arrays (empty = identity), and ``sorted_codes``
    decodes by binary search over the sorted ``to_code``.  The argument
    order of ``repro.kernels`` ``shift_next_hops``.
    """

    base: int
    D: int
    to_code: np.ndarray
    from_code: np.ndarray
    sorted_codes: bool


class Router:
    """Next-hop oracle used by the network simulators and the serve layer.

    Subclasses implement :meth:`next_hops` (vectorised, the batched engine's
    hot path) and :meth:`next_hop` (scalar, the reference loop and the
    batched engine's sparse-batch path).  Both must return, for every
    ``(source, target)`` pair, the *same* vertex the dense table of
    :func:`repro.routing.paths.build_routing_table` holds: the lowest-slot
    out-neighbour of ``source`` one BFS step closer to ``target`` (``source``
    itself on the diagonal, ``-1`` when unreachable).

    **Thread-safety contract.**  :meth:`next_hops` is the hot path, so the
    base class takes no lock around it; the contract is instead:

    * *Stateless* routers (:class:`DenseTableRouter`,
      :class:`ClosedFormRouter`) never mutate after construction and are safe
      for any number of concurrent reader threads with no synchronisation.
    * *Stateful* routers must serialise their own cache mutation internally
      (:class:`LruRowRouter` holds a private lock across each call), so
      callers never need an external lock — but a stateful router's calls may
      contend.  The simulators are single-writer by construction (one
      simulator thread owns its router); the serve layer relies on this
      contract to share one router between executor threads.
    """

    #: Kind string (matches the :data:`ROUTER_KINDS` entry that builds it).
    kind: str = ""

    def next_hop(self, source: int, target: int) -> int:
        """Next hop from ``source`` towards ``target`` (``-1`` unreachable)."""
        raise NotImplementedError

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`next_hop` over aligned index arrays."""
        raise NotImplementedError

    def num_vertices(self) -> int:
        """Number of vertices of the routed topology."""
        raise NotImplementedError

    def state_bytes(self) -> int:
        """Bytes of routing state currently held (the benchmarks record it)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable summary (CLI output)."""
        return f"{self.kind} router ({self.state_bytes()} bytes of state)"

    def shift_spec(self) -> ShiftSpec | None:
        """The closed-form description compiled kernels can route with.

        None (the default) for every router whose answers only
        :meth:`next_hops` knows; the batched simulator then runs its numpy
        path unless the router is a dense table.
        """
        return None

    # ------------------------------------------------------ derived queries
    def path_lengths(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Vectorised hop counts of the routed paths (``-1`` unreachable).

        The generic implementation walks :meth:`next_hops` until every pair
        reaches its target, so the count is *exactly* the number of hops a
        message routed by this router takes — and because all router kinds
        are bit-identical on next hops, all kinds return bit-identical hop
        counts (the serve parity tests enforce this).  Routers with a
        distance table override this with an O(1) lookup.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        hops = np.zeros(sources.shape, dtype=np.int64)
        current = sources.copy()
        active = np.flatnonzero(current != targets)
        limit = self.num_vertices()
        steps = 0
        while active.size:
            if steps >= limit:  # pragma: no cover - defensive (cyclic router)
                raise RuntimeError(
                    "routing walk exceeded the vertex count: the router is "
                    "not converging to the target"
                )
            nxt = self.next_hops(current[active], targets[active])
            unreachable = nxt < 0
            if np.any(unreachable):
                hops[active[unreachable]] = -1
            current[active] = np.where(unreachable, targets[active], nxt)
            hops[active[~unreachable]] += 1
            still = current[active] != targets[active]
            active = active[still]
            steps += 1
        return hops

    def full_path(self, source: int, target: int) -> list[int] | None:
        """The routed path as a vertex list, or None when unreachable.

        Follows :meth:`next_hop` from ``source`` to ``target``; on every
        supported topology this is a shortest path (the next hop is always
        one BFS step closer).
        """
        path = [int(source)]
        current = int(source)
        limit = self.num_vertices()
        while current != target:
            nxt = self.next_hop(current, target)
            if nxt < 0:
                return None
            current = int(nxt)
            path.append(current)
            if len(path) > limit:  # pragma: no cover - defensive
                raise RuntimeError(
                    "routing walk exceeded the vertex count: the router is "
                    "not converging to the target"
                )
        return path

    def etas(
        self, sources: np.ndarray, targets: np.ndarray, link=None
    ) -> np.ndarray:
        """Uncongested delivery-time estimates for ``(source, target)`` pairs.

        A message over ``h`` hops on idle links arrives after
        ``h * (latency + transmission_time)`` time units (each hop pays the
        propagation latency plus the serialisation time; no queueing).
        ``link=None`` uses the default
        :class:`~repro.simulation.network.LinkModel`.  Unreachable pairs
        return ``-1.0``.
        """
        if link is None:
            from repro.simulation.network import LinkModel

            link = LinkModel()
        hops = self.path_lengths(sources, targets)
        per_hop = float(link.latency + link.transmission_time)
        eta = hops.astype(np.float64) * per_hop
        return np.where(hops < 0, -1.0, eta)


class DenseTableRouter(Router):
    """The all-pairs next-hop table as a :class:`Router` (small-``n`` path)."""

    kind = "dense"

    def __init__(self, table: RoutingTable):
        self.table = table

    def next_hop(self, source: int, target: int) -> int:
        return int(self.table.next_hop[source, target])

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.table.next_hop[sources, targets]

    def num_vertices(self) -> int:
        return self.table.num_vertices

    def path_lengths(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        # O(1) per pair: the BFS distance *is* the walk length (every next
        # hop is one step closer), so this matches the generic walk exactly.
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        return self.table.distance[sources, targets]

    def state_bytes(self) -> int:
        return int(self.table.next_hop.nbytes + self.table.distance.nbytes)

    @classmethod
    def for_graph(cls, graph: BaseDigraph) -> "DenseTableRouter":
        """Build (or fetch from the shared LRU) the graph's dense table."""
        return cls(routing_table_for(graph))


# --------------------------------------------------------------------------
# Closed-form shift routing
# --------------------------------------------------------------------------
_NAME_PATTERNS = {
    "B": re.compile(r"^B\((\d+),(\d+)\)$"),
    "K": re.compile(r"^K\((\d+),(\d+)\)$"),
    "RRK": re.compile(r"^RRK\((\d+),(\d+)\)$"),
    "II": re.compile(r"^II\((\d+),(\d+)\)$"),
    "H": re.compile(r"^H\((\d+),(\d+),(\d+)\)$"),
}


def _power_exponent(value: int, base: int) -> int | None:
    """``e`` with ``base**e == value``, or None."""
    if value < 1 or base < 2:
        return None
    e = 0
    acc = 1
    while acc < value:
        acc *= base
        e += 1
    return e if acc == value else None


class ClosedFormRouter(Router):
    """Table-free O(D) shift routing on word labels.

    Every supported family is (isomorphic to) the de Bruijn digraph
    ``B(base', D)`` for a suitable alphabet: the router maps vertices to word
    codes, shifts in the unique overlap-extending letter
    (:func:`repro.routing.paths.shift_route_next_hops`) and maps back.  The
    per-vertex relabelling arrays are the only state — ``O(n)`` against the
    dense table's ``O(n^2)`` — and none at all for the de Bruijn digraph
    itself, whose vertices *are* their word codes.

    Parameters
    ----------
    base, D:
        Word alphabet size and length of the routing word space.
    to_code:
        Vertex -> word-code array (None: vertices are their own codes).
    from_code:
        Word-code -> vertex array (None: identity).  For the Kautz digraph
        the valid codes are sparse in ``Z_{(d+1)^D}``; pass
        ``sorted_codes=True`` and ``to_code`` doubles as the sorted code
        table decoded by binary search instead.
    """

    kind = "closed-form"

    def __init__(
        self,
        base: int,
        D: int,
        *,
        to_code: np.ndarray | None = None,
        from_code: np.ndarray | None = None,
        sorted_codes: bool = False,
        family: str = "de Bruijn",
    ):
        if base < 1 or D < 1:
            raise ValueError("base and D must be positive")
        self.base = int(base)
        self.D = int(D)
        self.family = family
        self._to_code = None if to_code is None else np.asarray(to_code, np.int64)
        self._from_code = (
            None if from_code is None else np.asarray(from_code, np.int64)
        )
        self._sorted_codes = bool(sorted_codes)
        if sorted_codes and self._to_code is None:
            raise ValueError("sorted_codes needs the code table in to_code")
        identity = np.zeros(0, dtype=np.int64)
        self._spec = ShiftSpec(
            self.base,
            self.D,
            identity if self._to_code is None else np.ascontiguousarray(self._to_code),
            identity if self._from_code is None else np.ascontiguousarray(self._from_code),
            self._sorted_codes,
        )

    # ------------------------------------------------------------- routing
    def next_hop(self, source: int, target: int) -> int:
        if source == target:
            return source
        to_code = self._to_code
        u = int(to_code[source]) if to_code is not None else source
        v = int(to_code[target]) if to_code is not None else target
        code = shift_route_next_hop(u, v, self.base, self.D)
        return self._decode_scalar(code)

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorised next hops: the compiled ``shift_next_hops`` kernel on
        a compiled backend, :func:`~repro.routing.paths.shift_route_next_hops`
        under ``REPRO_KERNELS=numpy`` (bit-identical)."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        kern = _kernels.get_kernels()
        if kern is None:
            to_code = self._to_code
            if to_code is not None:
                sources = to_code[sources]
                targets = to_code[targets]
            return self._decode(
                shift_route_next_hops(sources, targets, self.base, self.D)
            )
        if sources.shape != targets.shape:
            sources, targets = np.broadcast_arrays(sources, targets)
        cur = np.ascontiguousarray(sources).reshape(-1)
        tgt = np.ascontiguousarray(targets).reshape(-1)
        out = np.empty(cur.shape[0], dtype=np.int64)
        bad = kern.shift_next_hops(cur, tgt, cur.shape[0], *self._spec, out)
        if bad >= 0:
            raise IndexError(
                f"pair ({cur[bad]}, {tgt[bad]}) is outside the "
                f"{self.num_vertices()} vertices this router relabels"
            )
        return out.reshape(sources.shape)

    def shift_spec(self) -> ShiftSpec:
        return self._spec

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        if self._sorted_codes:
            return np.searchsorted(self._to_code, codes).astype(np.int64)
        if self._from_code is not None:
            return self._from_code[codes]
        return codes

    def _decode_scalar(self, code: int) -> int:
        if self._sorted_codes:
            return int(np.searchsorted(self._to_code, code))
        if self._from_code is not None:
            return int(self._from_code[code])
        return code

    def num_vertices(self) -> int:
        if self._to_code is not None:
            return int(self._to_code.shape[0])
        if self._from_code is not None:  # pragma: no cover - to_code set too
            return int(self._from_code.shape[0])
        return self.base**self.D

    def state_bytes(self) -> int:
        total = 0
        for array in (self._to_code, self._from_code):
            if array is not None:
                total += int(array.nbytes)
        return total

    def describe(self) -> str:
        return (
            f"closed-form shift router [{self.family}, base {self.base}, "
            f"D={self.D}] ({self.state_bytes()} bytes of state)"
        )

    # -------------------------------------------------------- constructors
    @classmethod
    def for_de_bruijn(cls, d: int, D: int) -> "ClosedFormRouter":
        """Router for ``B(d, D)`` (and ``RRK(d, d^D)``, the same digraph)."""
        return cls(d, D, family=f"B({d},{D})")

    @classmethod
    def for_kautz(
        cls, d: int, D: int, labels: list | None = None
    ) -> "ClosedFormRouter":
        """Router for ``K(d, D)``: codes are the words over ``Z_{d+1}``.

        Kautz vertices are numbered in lexicographic word order, so the code
        table is sorted and decoding is a binary search.
        """
        from repro.graphs.generators import kautz_words
        from repro.words import words_to_ints

        words = labels if labels is not None else kautz_words(d, D)
        codes = words_to_ints(np.asarray(words, dtype=np.int64), d + 1)
        if not np.all(np.diff(codes) > 0):  # pragma: no cover - defensive
            raise ValueError("Kautz labels are not in lexicographic order")
        return cls(
            d + 1, D, to_code=codes, sorted_codes=True, family=f"K({d},{D})"
        )

    @classmethod
    def for_imase_itoh(cls, d: int, D: int) -> "ClosedFormRouter":
        """Router for ``II(d, d^D)`` via the Proposition 3.3 isomorphism."""
        from repro.core.isomorphisms import (
            debruijn_to_imase_itoh_isomorphism,
            invert_mapping,
        )

        b_to_ii = debruijn_to_imase_itoh_isomorphism(d, D)
        return cls(
            d,
            D,
            to_code=invert_mapping(b_to_ii),
            from_code=b_to_ii,
            family=f"II({d},{d**D})",
        )

    @classmethod
    def for_h(cls, p: int, q: int, d: int) -> "ClosedFormRouter":
        """Router for ``H(p, q, d)`` with a de Bruijn-isomorphic power split.

        Requires ``p = d^p'``, ``q = d^q'`` and the Corollary 4.2 cyclicity
        test to pass; the vertex relabelling is the explicit isomorphism
        ``Ψ : B(d, D) -> H`` of Propositions 3.2/3.9/4.1
        (:func:`repro.core.isomorphisms.debruijn_to_alphabet_isomorphism`).

        Raises
        ------
        ValueError
            When the split is not a power split or fails the cyclicity test
            (then ``H`` is not a de Bruijn digraph and has no closed form —
            use :class:`LruRowRouter`).
        """
        from repro.core.checks import otis_alphabet_spec
        from repro.core.isomorphisms import (
            debruijn_to_alphabet_isomorphism,
            invert_mapping,
        )

        if d < 2:
            raise ValueError(f"H({p},{q},{d}): need d >= 2 for word routing")
        p_prime = _power_exponent(p, d)
        q_prime = _power_exponent(q, d)
        if p_prime is None or q_prime is None or p_prime < 1 or q_prime < 1:
            raise ValueError(
                f"H({p},{q},{d}) is not a power split H(d^p', d^q', d); "
                "no closed-form routing is known for it"
            )
        spec = otis_alphabet_spec(d, p_prime, q_prime)
        if not spec.is_debruijn_isomorphic():
            raise ValueError(
                f"H({p},{q},{d}) fails the Corollary 4.2 cyclicity test: it "
                "is not isomorphic to a de Bruijn digraph (Proposition 3.9), "
                "so shift routing does not apply"
            )
        b_to_h = debruijn_to_alphabet_isomorphism(spec)
        D = p_prime + q_prime - 1
        return cls(
            d,
            D,
            to_code=invert_mapping(b_to_h),
            from_code=b_to_h,
            family=f"H({p},{q},{d})≅B({d},{D})",
        )

    # ------------------------------------------------------------- factory
    @classmethod
    def for_graph(cls, graph: BaseDigraph) -> "ClosedFormRouter":
        """Recognise a supported family from the generator-assigned name.

        The generators of :mod:`repro.graphs.generators` and
        :func:`repro.otis.h_digraph.h_digraph` stamp canonical names
        (``B(d,D)``, ``K(d,D)``, ``RRK(d,n)``, ``II(d,n)``, ``H(p,q,d)``);
        anything else — or a named instance whose parameters do not admit
        shift routing — raises ``ValueError``, and so does a graph whose
        arcs are not exactly the family's (:func:`_verify_arcs`), so a
        renamed impostor can never be routed over arcs it does not have.
        """
        name = graph.name or ""
        router: ClosedFormRouter | None = None
        match = _NAME_PATTERNS["B"].match(name)
        if match:
            d, D = map(int, match.groups())
            if graph.num_vertices != d**D:
                raise ValueError(f"{name}: vertex count is not d**D")
            router = cls.for_de_bruijn(d, D)
        if router is None:
            match = _NAME_PATTERNS["RRK"].match(name)
            if match:
                d, n = map(int, match.groups())
                D = _power_exponent(n, d)
                if D is None or D < 1 or graph.num_vertices != n:
                    raise ValueError(
                        f"{name}: only RRK(d, d**D) coincides with B(d, D); "
                        "no closed form otherwise"
                    )
                router = cls.for_de_bruijn(d, D)
        if router is None:
            match = _NAME_PATTERNS["II"].match(name)
            if match:
                d, n = map(int, match.groups())
                D = _power_exponent(n, d)
                if D is None or D < 1 or graph.num_vertices != n:
                    raise ValueError(
                        f"{name}: only II(d, d**D) is de Bruijn-isomorphic "
                        "with a closed-form relabelling here"
                    )
                router = cls.for_imase_itoh(d, D)
        if router is None:
            match = _NAME_PATTERNS["K"].match(name)
            if match:
                d, D = map(int, match.groups())
                expected = (d + 1) * d ** (D - 1)
                if graph.num_vertices != expected:
                    raise ValueError(f"{name}: vertex count is not (d+1)d^(D-1)")
                router = cls.for_kautz(d, D, labels=getattr(graph, "labels", None))
        if router is None:
            match = _NAME_PATTERNS["H"].match(name)
            if match:
                p, q, d = map(int, match.groups())
                if graph.num_vertices * d != p * q:
                    raise ValueError(f"{name}: vertex count is not p*q/d")
                router = cls.for_h(p, q, d)
        if router is None:
            raise ValueError(
                f"no closed-form routing for {name or 'unnamed digraph'!r} "
                f"(supported families: {sorted(_NAME_PATTERNS)})"
            )
        _verify_arcs(router, graph)
        return router

    @classmethod
    def supports(cls, graph: BaseDigraph) -> bool:
        """Whether :meth:`for_graph` would succeed (used by ``"auto"``)."""
        try:
            cls.for_graph(graph)
        except ValueError:
            return False
        return True


def _verify_arcs(router: ClosedFormRouter, graph: BaseDigraph) -> None:
    """Refuse ``graph`` unless its arcs are exactly the router's shift arcs.

    In word space vertex ``c`` of ``B(base, D)`` has the ``base`` successors
    ``(c mod base^(D-1)) * base + a``; the Kautz digraph keeps the ``d`` of
    them whose new letter ``a`` differs from the last one.  Mapped back
    through the router's relabelling, every vertex's sorted successor row
    must equal the graph's, multiplicities included — an ``O(n d)``
    comparison, so a name promising a family the arcs do not deliver is
    refused instead of routed over a link that does not exist.
    """
    n = graph.num_vertices
    if router.num_vertices() != n:
        raise ValueError(
            f"{graph.name!r}: the closed form relabels "
            f"{router.num_vertices()} vertices, the digraph has {n}"
        )
    base, D, to_code, from_code, sorted_codes = router.shift_spec()
    codes = to_code if to_code.size else np.arange(n, dtype=np.int64)
    letters = np.arange(base, dtype=np.int64)
    heads = (codes % base ** (D - 1))[:, None] * base + letters
    if sorted_codes:  # Kautz: the new letter differs from the last one
        keep = letters[None, :] != (codes % base)[:, None]
        heads = heads[keep].reshape(n, base - 1)
        found = np.searchsorted(to_code, heads)
        if np.any(found >= n) or np.any(to_code[np.minimum(found, n - 1)] != heads):
            raise ValueError(f"{graph.name!r}: shift arcs leave the Kautz words")
        heads = found
    elif from_code.size:
        heads = from_code[heads]
    expected = np.sort(heads, axis=1)
    try:
        actual = np.sort(np.asarray(graph.successor_matrix(), dtype=np.int64), axis=1)
    except ValueError:
        actual = None  # not out-regular
    if actual is None or actual.shape != expected.shape:
        raise ValueError(
            f"closed-form routing disagrees with the digraph: {graph.name!r} "
            f"is not {expected.shape[1]}-out-regular like its family"
        )
    wrong = np.flatnonzero(np.any(actual != expected, axis=1))
    if wrong.size:
        u = int(wrong[0])
        raise ValueError(
            f"closed-form routing disagrees with the digraph: vertex {u} of "
            f"{graph.name!r} has successors {actual[u].tolist()}, its family "
            f"gives {expected[u].tolist()} (the name does not match the topology)"
        )


# --------------------------------------------------------------------------
# LRU of per-source next-hop rows
# --------------------------------------------------------------------------
class LruRowRouter(Router):
    """On-demand per-source next-hop rows under a bounded LRU.

    For digraphs with no word structure the dense-table semantics are kept
    but the table is never materialised: when a source first routes, its
    whole next-hop row is computed from ``d + 1`` subset-source distance
    sweeps (:func:`repro.graphs.apsp.subset_distance_rows` over the source
    and its out-neighbours — ``dist(s, ·)`` and ``dist(w_j, ·)`` are all a
    row needs) and cached.  State is ``O(max_rows * n)``, bounded by
    ``max_bytes`` by default; eviction is least-recently-routed, with rows
    referenced by the in-flight batch pinned (a batch touching more sources
    than ``max_rows`` computes the overflow rows without caching them).

    Row entries are bit-identical to the dense table: the same BFS distances
    and the same "lowest out-arc slot one step closer" tie-break.
    """

    kind = "lru"

    def __init__(
        self,
        graph: BaseDigraph,
        *,
        max_rows: int | None = None,
        max_bytes: int = 64 << 20,
    ):
        self.graph = graph
        n = graph.num_vertices
        self._n = n
        self._successors = padded_successor_matrix(graph)
        self._predecessors = padded_predecessor_matrix(graph)
        if max_rows is None:
            max_rows = max(1, min(max(n, 1), max_bytes // max(8 * n, 1)))
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        self.max_rows = int(max_rows)
        self._rows = np.empty((self.max_rows, n), dtype=np.int64)
        self._slot_of = np.full(n, -1, dtype=np.int64) if n else np.zeros(0, np.int64)
        self._source_of = np.full(self.max_rows, -1, dtype=np.int64)
        self._last_used = np.zeros(self.max_rows, dtype=np.int64)
        self._used = 0
        self._tick = 0
        self.hits = 0
        self.misses = 0
        # Serialises cache mutation (insert/evict/tick) against concurrent
        # row reads: two threads racing next_hops could otherwise evict a
        # slot between another batch's slot lookup and its row read,
        # returning a different source's row.  Reentrant so next_hop can be
        # called from code already holding the lock.
        self._lock = threading.RLock()

    # -------------------------------------------------------------- pickle
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle; workers get a fresh one
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ----------------------------------------------------------- row maths
    def _compute_row(self, source: int) -> np.ndarray:
        """The dense table's row for ``source``, without the table."""
        heads = self._successors[source]
        sweep_sources = np.concatenate(([source], heads))
        dist = subset_distance_rows(
            self.graph, sweep_sources, predecessors=self._predecessors
        )
        from_source = dist[0]
        row = np.full(self._n, -1, dtype=np.int64)
        row[source] = source
        reachable = from_source > 0
        # Lowest arc slot wins ties — walk slots last-to-first, matching the
        # dense builder.  Padding heads repeat the source itself and can
        # never be one step closer.
        for j in range(heads.shape[0] - 1, -1, -1):
            closer = reachable & (dist[1 + j] == from_source - 1)
            row = np.where(closer, heads[j], row)
        return row

    def _evict_slot(self, pinned: np.ndarray | None) -> int | None:
        """Least-recently-used unpinned slot, or None when all are pinned."""
        age = self._last_used.copy()
        if pinned is not None:
            age[pinned] = np.iinfo(np.int64).max
        slot = int(np.argmin(age))
        if pinned is not None and pinned[slot]:
            return None
        return slot

    def _insert(self, source: int, pinned: np.ndarray | None = None) -> int | None:
        """Compute and cache the row of ``source``; returns its slot."""
        if self._used < self.max_rows:
            slot = self._used
            self._used += 1
        else:
            slot = self._evict_slot(pinned)
            if slot is None:
                return None
            old = int(self._source_of[slot])
            if old >= 0:
                self._slot_of[old] = -1
        self._rows[slot] = self._compute_row(source)
        self._source_of[slot] = source
        self._slot_of[source] = slot
        self._tick += 1
        self._last_used[slot] = self._tick
        return slot

    # ------------------------------------------------------------- routing
    def next_hop(self, source: int, target: int) -> int:
        with self._lock:
            slot = int(self._slot_of[source])
            if slot < 0:
                self.misses += 1
                slot = self._insert(source)
            else:
                self.hits += 1
                self._tick += 1
                self._last_used[slot] = self._tick
            return int(self._rows[slot, target])

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.size == 0:
            return np.zeros(0, dtype=np.int64)
        with self._lock:
            return self._next_hops_locked(sources, targets)

    def _next_hops_locked(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        slots = self._slot_of[sources]
        missing = np.unique(sources[slots < 0])
        self.hits += int(np.unique(sources[slots >= 0]).size)
        self.misses += int(missing.size)
        overflow: dict[int, np.ndarray] = {}
        if missing.size:
            # Pin every slot the in-flight batch references so a miss storm
            # cannot evict a row before it is read.
            pinned = np.zeros(self.max_rows, dtype=bool)
            present = self._slot_of[sources]
            pinned[present[present >= 0]] = True
            for source in missing.tolist():
                slot = self._insert(source, pinned)
                if slot is None:  # batch touches more sources than max_rows
                    overflow[source] = self._compute_row(source)
                else:
                    pinned[slot] = True
            slots = self._slot_of[sources]
        touched = np.unique(slots[slots >= 0])
        if touched.size:
            self._tick += 1
            self._last_used[touched] = self._tick
        out = np.empty(sources.shape, dtype=np.int64)
        cached = slots >= 0
        out[cached] = self._rows[slots[cached], targets[cached]]
        if overflow:
            rest = np.flatnonzero(~cached)
            for i in rest.tolist():
                out[i] = overflow[int(sources[i])][targets[i]]
        return out

    # ---------------------------------------------------------------- misc
    def num_vertices(self) -> int:
        return self._n

    def cached_rows(self) -> int:
        """Number of rows currently cached."""
        with self._lock:
            return self._used

    def state_bytes(self) -> int:
        return int(
            self._used * self._n * 8
            + self._slot_of.nbytes
            + self._source_of.nbytes
            + self._last_used.nbytes
            + self._successors.nbytes
            + self._predecessors.nbytes
        )

    def describe(self) -> str:
        return (
            f"LRU row router [{self.cached_rows()}/{self.max_rows} rows] "
            f"({self.state_bytes()} bytes of state)"
        )


# --------------------------------------------------------------------------
# Selection
# --------------------------------------------------------------------------
def make_router(
    graph: BaseDigraph,
    kind: str = "auto",
    *,
    max_rows: int | None = None,
) -> Router:
    """Build a router of the requested ``kind`` for ``graph``.

    ``"auto"`` keeps the dense table while it is cheap (``n`` up to
    :data:`AUTO_DENSE_MAX_N`), then prefers the closed form and falls back
    to LRU rows — so small topologies keep their O(1) lookups and large ones
    never allocate ``O(n^2)``.
    """
    if kind not in ROUTER_KINDS:
        raise ValueError(f"unknown router kind {kind!r} (expected one of {ROUTER_KINDS})")
    if kind == "dense":
        return DenseTableRouter.for_graph(graph)
    if kind == "closed-form":
        return ClosedFormRouter.for_graph(graph)
    if kind == "lru":
        return LruRowRouter(graph, max_rows=max_rows)
    # auto
    if graph.num_vertices <= AUTO_DENSE_MAX_N:
        return DenseTableRouter.for_graph(graph)
    try:
        return ClosedFormRouter.for_graph(graph)
    except ValueError:
        return LruRowRouter(graph, max_rows=max_rows)


def resolve_router(
    graph: BaseDigraph, *, router: "Router | str | None" = None
) -> Router:
    """Normalise the simulators' ``router=`` parameter: a :class:`Router`
    instance, a :data:`ROUTER_KINDS` string, or None for ``"auto"``."""
    if router is None:
        return make_router(graph, "auto")
    if isinstance(router, Router):
        return router
    return make_router(graph, str(router))
