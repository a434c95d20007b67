"""Pluggable routers: table-free O(D) routing for million-node simulation.

The paper's central argument for de Bruijn/Kautz-based OTIS layouts is that
routing is *search-free*: the next hop is computable in O(D) from the word
labels alone, so no per-node state grows with ``n`` (Section 2, refs. [12,
19, 30]).  The ``H(p, q, d)`` that are not de Bruijn digraphs (Corollary
4.5's test fails) have no closed form and need a table.  Two interchangeable
:class:`Router` implementations cover both, **bit-identical on routes**
(enforced by ``tests/test_routers.py``):

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
* :class:`DenseTableRouter` — any digraph: one column per destination ``t``
  holding, per vertex, the uint8 out-arc slot of the next hop and the int32
  hop count.  One reverse sweep
  (:func:`repro.graphs.apsp.subset_distance_rows` over the successors)
  fills 64 columns.  The whole table is filled at construction when it
  fits :data:`TABLE_BUDGET_BYTES`; otherwise the columns a call needs are
  filled on demand.

Why the two agree bit-for-bit: the dense builder
:func:`repro.routing.paths.build_routing_table` picks, for every pair, the
*lowest out-arc slot whose head is one step closer* to the target.  The
table router applies literally that rule to the same BFS distances, and on
a de Bruijn-isomorphic digraph that neighbour is unique (appending a letter
grows the suffix/prefix overlap by at most one, and only the target's next
letter achieves it), so the closed form has no choice to make.

:func:`make_router` picks a kind; ``"auto"`` keeps the table below
:data:`AUTO_DENSE_MAX_N` vertices and switches to the closed form (falling
back to the table) above it, which is what lets ``repro sim`` run 100k
messages on topologies whose full table would not fit in memory.
"""

from __future__ import annotations

import re
import threading
from typing import NamedTuple

import numpy as np

from repro import kernels as _kernels
from repro.graphs.apsp import padded_successor_matrix, subset_distance_rows
from repro.graphs.digraph import BaseDigraph
from repro.kernels.native import route_args
from repro.routing.paths import (
    shift_route_lengths,
    shift_route_next_hop,
    shift_route_next_hops,
    shift_route_paths,
)

__all__ = [
    "Router",
    "ShiftSpec",
    "DenseTableRouter",
    "ClosedFormRouter",
    "ROUTER_KINDS",
    "AUTO_DENSE_MAX_N",
    "TABLE_BUDGET_BYTES",
    "make_router",
    "resolve_router",
]

#: ``make_router(..., "auto")`` keeps the table up to this many vertices
#: and prefers the closed form above it.
AUTO_DENSE_MAX_N = 2048

#: Bytes of columns a :class:`DenseTableRouter` keeps (5 per vertex and
#: column): the whole table up to n = 3,663, fewer columns above.
TABLE_BUDGET_BYTES = 64 << 20

#: Router kinds accepted by :func:`make_router` and the ``repro sim`` CLI.
ROUTER_KINDS = ("auto", "dense", "closed-form")


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
    base class takes no lock around it; the contract is instead that any
    number of threads may call one router with no external lock (the serve
    layer shares one router between executor threads):

    * :class:`ClosedFormRouter` never mutates after construction.
    * :class:`DenseTableRouter` with its whole table filled never mutates
      either.  Filling columns on demand takes a lock and never rewrites a
      column a concurrent call may be reading: a full store is replaced, not
      overwritten.
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

    def lock_free(self) -> bool:
        """Whether every answer takes no lock and fills no state, so a small
        batch costs microseconds (the serve layer answers such batches on
        its event loop).  False (the default) for a router this module does
        not know.
        """
        return False

    def shift_spec(self) -> ShiftSpec | None:
        """The closed-form description compiled kernels can route with.

        None (the default) for every router whose answers only
        :meth:`next_hops` knows; the batched simulator then runs its numpy
        path unless the router is a :class:`DenseTableRouter`.
        """
        return None

    # ------------------------------------------------------ derived queries
    def paths(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The routed paths of a batch: ``(lengths, offsets, vertices)``.

        ``lengths[i]`` is pair ``i``'s hop count (``-1`` unreachable) and
        ``vertices[offsets[i]:offsets[i + 1]]`` its path from source to
        target (empty when unreachable), all int64.  This generic walk calls
        :meth:`next_hops` once per level over the pairs still on their way,
        so a batch of diameter ``D`` costs ``D`` calls; it is the oracle of
        the compiled overrides and the path of wrapping routers.  A pair
        naming a vertex outside the topology raises ``IndexError`` (here
        and in every router method).
        """
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        targets = np.asarray(targets, dtype=np.int64).reshape(-1)
        _check_pairs(sources, targets, self.num_vertices())
        # levels[l] holds every pair's vertex after l hops (its target once
        # it has arrived or hit a dead end)
        levels = [sources]
        lengths = np.zeros(sources.size, dtype=np.int64)
        current = sources.copy()
        active = np.flatnonzero(current != targets)
        limit = self.num_vertices()
        while active.size:
            if len(levels) > limit:  # pragma: no cover - defensive (cyclic router)
                raise RuntimeError(
                    "routing walk exceeded the vertex count: the router is "
                    "not converging to the target"
                )
            nxt = self.next_hops(current[active], targets[active])
            reachable = nxt >= 0
            lengths[active[reachable]] += 1
            lengths[active[~reachable]] = -1
            current[active] = np.where(reachable, nxt, targets[active])
            levels.append(current.copy())
            active = active[current[active] != targets[active]]
        on_path = np.arange(len(levels)) <= lengths[:, None]
        return lengths, path_offsets(lengths), np.stack(levels, axis=1)[on_path]

    def path_lengths(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Vectorised hop counts of the routed paths (``-1`` unreachable),
        shaped like ``sources``.

        The count is *exactly* the number of hops a message routed by this
        router takes, and because all router kinds are bit-identical on
        next hops, all kinds return bit-identical hop counts.  The generic
        implementation is the :meth:`paths` walk; the table router looks
        its hop counts up and the closed form computes them from the shift
        rule (the router parity tests compare both with this walk).
        """
        return self.paths(sources, targets)[0].reshape(np.shape(sources))

    def full_path(self, source: int, target: int) -> list[int] | None:
        """The routed path as a vertex list, or None when unreachable.

        Follows :meth:`next_hop` from ``source`` to ``target``; on every
        supported topology this is a shortest path (the next hop is always
        one BFS step closer).
        """
        limit = self.num_vertices()
        _check_pair(source, target, limit)
        path = [int(source)]
        current = int(source)
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


def path_offsets(lengths: np.ndarray) -> np.ndarray:
    """The ``offsets`` of :meth:`Router.paths` for hop counts ``lengths``:
    ``lengths + 1`` vertices per reachable pair, none per unreachable one."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(np.where(lengths < 0, 0, lengths + 1), out=offsets[1:])
    return offsets


def _routed_paths(kern, n, sources, targets, lengths, route=None, table=None):
    """:meth:`Router.paths` by the compiled ``route_paths`` kernel over
    ``n`` vertices, given the pairs' hop counts ``lengths`` and either the
    shift arguments ``route`` or the slot columns ``table``."""
    offsets = path_offsets(lengths)
    vertices = np.empty(int(offsets[-1]), dtype=np.int64)
    bad = kern.route_paths(sources, targets, offsets, vertices, route, table)
    if bad >= 0:
        pair = (int(sources[bad]), int(targets[bad]))
        if all(0 <= v < n for v in pair):  # pragma: no cover - defensive
            raise RuntimeError(f"the routed path of pair {pair} disagrees with its hop count")
        raise _outside(pair, n)
    return lengths, offsets, vertices


def _outside(pair, n: int) -> IndexError:
    return IndexError(f"pair {pair} is outside the {n} vertices this router routes")


def _check_pair(source: int, target: int, n: int) -> None:
    """:func:`_check_pairs` for one pair."""
    if not (0 <= source < n and 0 <= target < n):
        raise _outside((int(source), int(target)), n)


def _check_pairs(sources: np.ndarray, targets: np.ndarray, n: int) -> None:
    """Raise :func:`_outside` for the first pair naming a vertex outside
    ``range(n)`` (the compiled kernels' check, for the numpy paths).  The
    int64 ends are read as uint64, where a negative one is above ``n``:
    one reduction per side."""
    for ends in (sources, targets):
        if ends.size and ends.view(np.uint64).max() >= n:
            sources, targets = np.broadcast_arrays(sources, targets)
            outside = (sources < 0) | (sources >= n) | (targets < 0) | (targets >= n)
            bad = np.flatnonzero(outside)[0]
            raise _outside((int(sources.flat[bad]), int(targets.flat[bad])), n)


#: The slot of a vertex with no next hop: the target itself, or unreachable.
NO_SLOT = 255

#: Serialises on-demand column fills (whole-table routers never take it).
_FILL_LOCK = threading.Lock()


def next_slots(successors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The out-arc slot of every ``(column, vertex)`` of distance-to-target
    ``rows`` (``rows[b, u] = dist(u, t_b)``, ``-1`` unreachable): the lowest
    ``j`` whose head ``successors[u, j]`` is one step closer, else
    :data:`NO_SLOT`.  The rule of
    :func:`repro.routing.paths.build_routing_table`; this numpy derivation
    is the oracle of the compiled ``slot_columns`` kernel and the path of
    hosts without one.
    """
    slot = np.full(rows.shape, NO_SLOT, dtype=np.uint8)
    reachable = rows > 0
    # last slot first, so the lowest slot one step closer is written last
    for j in range(successors.shape[1] - 1, -1, -1):
        closer = reachable & (rows[:, successors[:, j]] == rows - 1)
        slot[closer] = j
    return slot


class DenseTableRouter(Router):
    """Destination-keyed next-hop table for any digraph.

    Column ``t`` holds, for every vertex ``u``, the out-arc slot of the next
    hop (``next_hop = succ[u, slot]``, :data:`NO_SLOT` when ``t`` is
    unreachable or ``u == t``) and the hop count ``dist(u, t)`` (int32,
    ``-1`` unreachable) — 5 bytes per pair against the 16 of an int64
    next-hop and distance pair.  One reverse sweep fills 64 columns.

    The constructor fills every column when the table fits
    :data:`TABLE_BUDGET_BYTES`.  Otherwise each call fills the columns of its
    targets it lacks; a store that cannot take them is replaced by an empty
    one first (sized to the call when its targets alone exceed the budget).
    """

    kind = "dense"

    def __init__(self, graph: BaseDigraph):
        successors = padded_successor_matrix(graph)
        n = int(successors.shape[0])
        if successors.shape[1] == 0:  # no arcs: a self slot, never closer
            successors = np.arange(n, dtype=np.int64)[:, None]
        if successors.shape[1] >= NO_SLOT:
            raise ValueError(
                f"the table router stores uint8 slots: out-degree "
                f"{successors.shape[1]} is above {NO_SLOT - 1}"
            )
        #: The padded successor matrix the slots index (see
        #: :func:`repro.graphs.apsp.padded_successor_matrix`).
        self.successors = np.ascontiguousarray(successors, dtype=np.int64)
        # the successors plus a -1 column for NO_SLOT, flat: one take per lookup
        self._hop_of = np.hstack(
            (self.successors, np.full((n, 1), -1, dtype=np.int64))
        ).reshape(-1)
        self._n = n
        self._capacity = min(n, max(1, TABLE_BUDGET_BYTES // (5 * max(n, 1))))
        self._store = self._empty_store(self._capacity)
        self._used = 0
        if self._capacity == n:
            self._fill(np.arange(n, dtype=np.int64))

    def _empty_store(self, capacity: int):
        """``(col, slot, hops)``: the column of every target (``-1`` none)
        and ``capacity`` slot and hop-count rows."""
        return (
            np.full(self._n, -1, dtype=np.int64),
            np.empty((capacity, self._n), dtype=np.uint8),
            np.empty((capacity, self._n), dtype=np.int32),
        )

    def _fill(self, targets: np.ndarray) -> None:
        """Fill the columns of ``targets`` (distinct, absent, and fitting the
        store's free rows), 64 per reverse sweep."""
        col, slot, hops = self._store
        kern = _kernels.get_kernels()
        for lo in range(0, targets.shape[0], 64):
            block = targets[lo : lo + 64]
            rows = subset_distance_rows(self.successors, block, predecessors=self.successors)
            at = slice(self._used, self._used + block.shape[0])
            hops[at] = rows
            if kern is None:
                slot[at] = next_slots(self.successors, rows)
            else:
                kern.slot_columns(self.successors, rows, slot[at])
            col[block] = np.arange(at.start, at.stop)
            self._used = at.stop

    def columns(self, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(col, slot, hops)`` with a column for every one of ``targets``.

        ``slot[col[t], u]`` and ``hops[col[t], u]`` are the entries of the
        pair ``(u, t)``.  The arrays are never written again where they
        cover ``targets``, so a caller may read them after the call (the
        simulator's compiled loops do).
        """
        store = self._store
        if store[1].shape[0] == self._n:  # the whole table, never replaced
            return store
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        with _FILL_LOCK:
            missing = targets[self._store[0][targets] < 0]
            if missing.size:
                if self._used + missing.size > self._store[1].shape[0]:
                    self._store = self._empty_store(max(self._capacity, targets.size))
                    self._used = 0
                    missing = targets
                self._fill(missing)
            return self._store

    def _entries(self, sources, targets, field: int):
        """The slot (``field`` 1) or hop-count (2) entry of every pair; a
        pair naming a vertex outside the topology raises ``IndexError``."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        _check_pairs(sources, targets, self._n)
        store = self.columns(targets)
        # a store of n columns is only ever filled whole, column t for target t
        rows = targets if store[1].shape[0] == self._n else store[0][targets]
        return sources, targets, store[field][rows, sources]

    def next_hop(self, source: int, target: int) -> int:
        _check_pair(source, target, self._n)
        if source == target:
            return source
        col, slot, _ = self.columns([target])
        s = int(slot[col[target], source])
        return -1 if s == NO_SLOT else int(self.successors[source, s])

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        sources, targets, slot = self._entries(sources, targets, 1)
        d = self.successors.shape[1]
        hop = self._hop_of.take(sources * (d + 1) + np.minimum(slot, d))
        return np.where(sources == targets, sources, hop)

    def path_lengths(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        # O(1) per pair: the BFS distance *is* the walk length (every next
        # hop is one step closer), so this matches the generic walk exactly.
        return self._entries(sources, targets, 2)[2].astype(np.int64)

    def paths(self, sources, targets):
        """The hop counts looked up, then one compiled walk of the slot
        columns (the generic walk without a compiler).  A pair naming a
        vertex outside the topology raises ``IndexError``."""
        sources = np.ascontiguousarray(sources, dtype=np.int64).reshape(-1)
        targets = np.ascontiguousarray(targets, dtype=np.int64).reshape(-1)
        _check_pairs(sources, targets, self._n)
        kern = _kernels.get_kernels()
        if kern is None:
            return super().paths(sources, targets)
        col, slot, hops = self.columns(targets)  # one store for both reads
        lengths = hops[col[targets], sources].astype(np.int64)
        return _routed_paths(
            kern, self._n, sources, targets, lengths, table=(self.successors, slot, col)
        )

    def num_vertices(self) -> int:
        return self._n

    def lock_free(self) -> bool:
        """True once the whole table is filled: on demand, calls fill columns."""
        return self._store[1].shape[0] == self._n

    def state_bytes(self) -> int:
        return int(5 * self._used * self._n + self._store[0].nbytes + self.successors.nbytes)

    def describe(self) -> str:
        return (
            f"table router [{self._used}/{self._n} columns] "
            f"({self.state_bytes()} bytes of state)"
        )


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
        self._args = route_args(*self._spec)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_args"]  # pointers into this process's arrays
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._args = route_args(*self._spec)

    # ------------------------------------------------------------- routing
    def next_hop(self, source: int, target: int) -> int:
        _check_pair(source, target, self.num_vertices())
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
        under ``REPRO_KERNELS=numpy`` (bit-identical).  Here and in
        :meth:`path_lengths` and :meth:`paths`, a pair naming a vertex
        outside the topology raises ``IndexError`` on both backends."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        kern = _kernels.get_kernels()
        if kern is None:
            return self._decode(
                shift_route_next_hops(*self._codes(sources, targets), self.base, self.D)
            )
        return self._per_pair(kern.shift_next_hops, sources, targets)

    def path_lengths(self, sources, targets):
        """Closed-form hop counts: ``D`` minus the longest suffix(source) /
        prefix(target) overlap of the word codes (0 on the diagonal), by the
        compiled ``shift_path_lengths`` kernel or
        :func:`~repro.routing.paths.shift_route_lengths`."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        kern = _kernels.get_kernels()
        if kern is None:
            return shift_route_lengths(*self._codes(sources, targets), self.base, self.D)
        return self._per_pair(kern.shift_path_lengths, sources, targets)

    def paths(self, sources, targets):
        """Closed-form paths: after ``h`` of ``L`` hops the word is the
        source's last ``D - h`` letters then the target's ``h`` letters past
        their overlap — the compiled ``route_paths`` kernel or
        :func:`~repro.routing.paths.shift_route_paths` plus the decode."""
        sources = np.ascontiguousarray(sources, dtype=np.int64).reshape(-1)
        targets = np.ascontiguousarray(targets, dtype=np.int64).reshape(-1)
        lengths = self.path_lengths(sources, targets)
        kern = _kernels.get_kernels()
        if kern is not None:
            return _routed_paths(
                kern, self.num_vertices(), sources, targets, lengths, route=self._args
            )
        codes = shift_route_paths(*self._codes(sources, targets), lengths, self.base, self.D)
        return lengths, path_offsets(lengths), self._decode(codes)

    def _codes(self, sources, targets):
        """The word codes of the pairs' vertices."""
        _check_pairs(sources, targets, self.num_vertices())
        if self._to_code is None:
            return sources, targets
        return self._to_code[sources], self._to_code[targets]

    def _per_pair(self, kernel, sources, targets):
        """A compiled per-pair shift kernel over aligned index arrays."""
        if sources.shape != targets.shape:
            sources, targets = np.broadcast_arrays(sources, targets)
        cur = np.ascontiguousarray(sources).reshape(-1)
        tgt = np.ascontiguousarray(targets).reshape(-1)
        out = np.empty(cur.shape[0], dtype=np.int64)
        bad = kernel(cur, tgt, cur.shape[0], self._args, out)
        if bad >= 0:
            raise _outside((int(cur[bad]), int(tgt[bad])), self.num_vertices())
        return out.reshape(sources.shape)

    def shift_spec(self) -> ShiftSpec:
        return self._spec

    def lock_free(self) -> bool:
        return True

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
            use :class:`DenseTableRouter`).
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
# Selection
# --------------------------------------------------------------------------
def make_router(graph: BaseDigraph, kind: str = "auto") -> Router:
    """Build a router of the requested ``kind`` for ``graph``.

    ``"auto"`` keeps the table while it is cheap (``n`` up to
    :data:`AUTO_DENSE_MAX_N`), then prefers the closed form and falls back
    to the table, whose columns then fill on demand past
    :data:`TABLE_BUDGET_BYTES` — so small topologies keep their O(1)
    lookups and large ones never allocate ``O(n^2)``.
    """
    if kind not in ROUTER_KINDS:
        raise ValueError(f"unknown router kind {kind!r} (expected one of {ROUTER_KINDS})")
    if kind == "closed-form":
        return ClosedFormRouter.for_graph(graph)
    if kind == "auto" and graph.num_vertices > AUTO_DENSE_MAX_N:
        try:
            return ClosedFormRouter.for_graph(graph)
        except ValueError:
            pass
    return DenseTableRouter(graph)


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
