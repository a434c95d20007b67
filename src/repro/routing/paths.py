"""Shortest-path routing.

On the de Bruijn digraph the shortest path between two words is determined by
their longest suffix/prefix overlap: to go from ``x = x_{D-1} … x_0`` to
``y = y_{D-1} … y_0`` one shifts in the digits of ``y`` one at a time, and the
number of shifts needed is ``D - k`` where ``k`` is the length of the longest
suffix of ``x`` equal to a prefix of ``y`` (reading both words left to
right).  This gives an O(D)-time, search-free router — one of the properties
that make the de Bruijn attractive for the parallel machines the paper cites
(refs. [12, 19, 30]).

The Kautz digraph admits the same shift routing with the extra "no equal
consecutive letters" constraint automatically satisfied by its words.

For arbitrary digraphs (e.g. the raw ``H(p, q, d)`` of a candidate layout)
:func:`build_routing_table` computes all-pairs next-hop tables on the
bit-parallel frontier machinery of :mod:`repro.graphs.apsp` (the per-target
reverse BFS survives as the tests' reference).  It is the int64 oracle of
the simulator's table router, :class:`repro.routing.routers.DenseTableRouter`,
which holds the same next hops as uint8 out-arc slots per destination.

:func:`shift_route_next_hops` is the *vectorised* O(D) form of the word
routing: given whole arrays of ``(current, target)`` pairs (words encoded as
radix-``base`` integers) it computes every next hop with ``D`` passes of
numpy integer arithmetic and no Python loop over pairs.  It is the kernel of
the table-free :class:`repro.routing.routers.ClosedFormRouter`, and — because
the digit that shortens the suffix/prefix overlap is *unique* — its choices
are bit-identical to the dense table's "lowest arc slot one step closer"
rule (the router parity suite enforces this).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.graphs.apsp import bit_distance_matrix, padded_successor_matrix
from repro.graphs.digraph import BaseDigraph
from repro.words import int_to_word, longest_overlap, word_to_int

__all__ = [
    "debruijn_route_words",
    "debruijn_route",
    "debruijn_distance",
    "kautz_route",
    "shift_route_next_hops",
    "shift_route_next_hop",
    "shift_route_lengths",
    "shift_route_paths",
    "bfs_route",
    "RoutingTable",
    "build_routing_table",
]


# --------------------------------------------------------------------------
# de Bruijn word routing
# --------------------------------------------------------------------------
def debruijn_route_words(
    source: tuple[int, ...], target: tuple[int, ...], d: int
) -> list[tuple[int, ...]]:
    """Shortest path between two de Bruijn words, as a list of words.

    The path has length ``D - k`` where ``k`` is the longest overlap between a
    suffix of ``source`` and a prefix of ``target``.

    >>> debruijn_route_words((1, 0, 1), (0, 1, 1), 2)
    [(1, 0, 1), (0, 1, 1)]
    """
    if len(source) != len(target):
        raise ValueError("source and target must have the same length")
    D = len(source)
    overlap = longest_overlap(source, target)
    path = [tuple(int(x) for x in source)]
    current = list(source)
    # Shift in the remaining D - overlap digits of the target, left to right.
    for position in range(overlap, D):
        current = current[1:] + [int(target[position])]
        path.append(tuple(current))
    return path


def debruijn_route(source: int, target: int, d: int, D: int) -> list[int]:
    """Shortest path between two de Bruijn vertices given as integers.

    Returns the list of intermediate vertices including both endpoints.  The
    result is a valid directed path of ``B(d, D)`` of minimal length.
    """
    words = debruijn_route_words(int_to_word(source, d, D), int_to_word(target, d, D), d)
    return [word_to_int(word, d) for word in words]


def debruijn_distance(source: int, target: int, d: int, D: int) -> int:
    """Distance from ``source`` to ``target`` in ``B(d, D)`` in O(D) time."""
    a = int_to_word(source, d, D)
    b = int_to_word(target, d, D)
    return D - longest_overlap(a, b)


# --------------------------------------------------------------------------
# Kautz word routing
# --------------------------------------------------------------------------
def kautz_route(
    source: tuple[int, ...], target: tuple[int, ...], d: int
) -> list[tuple[int, ...]]:
    """A shortest-or-near-shortest path between two Kautz words.

    The route shifts in the digits of ``target`` after the longest valid
    overlap, exactly as in the de Bruijn case; every intermediate word is a
    valid Kautz word because consecutive letters of both endpoint words
    already differ.  (For a few source/target pairs a path shorter by one hop
    exists through a different overlap; the simulator only needs a valid,
    near-minimal route, and the tests assert validity and length ``<= D``.)
    """
    if len(source) != len(target):
        raise ValueError("source and target must have the same length")
    D = len(source)
    for word in (source, target):
        for a, b in zip(word, word[1:]):
            if a == b:
                raise ValueError(f"{word} is not a Kautz word (equal consecutive letters)")
    overlap = longest_overlap(source, target)
    path = [tuple(int(x) for x in source)]
    current = list(source)
    for position in range(overlap, D):
        current = current[1:] + [int(target[position])]
        path.append(tuple(current))
    return path


# --------------------------------------------------------------------------
# Vectorised shift routing (words as radix integers)
# --------------------------------------------------------------------------
def shift_route_next_hops(
    current: np.ndarray, target: np.ndarray, base: int, D: int
) -> np.ndarray:
    """Next-hop word codes for whole arrays of ``(current, target)`` pairs.

    Words of length ``D`` over ``Z_base`` are encoded as integers
    ``sum x_i base**i`` (:func:`repro.words.word_to_int`).  For every pair
    the longest suffix(``current``)/prefix(``target``) overlap ``k`` is found
    with ``D - 1`` whole-array comparisons (a suffix of length ``j`` is
    ``current mod base**j``; a prefix of length ``j`` is
    ``target // base**(D-j)``), and the next hop shifts in the target's
    letter at position ``k``:  ``(current mod base**(D-1)) * base + digit``.

    The digit shifted in is the *unique* one that shortens the overlap
    (appending one letter can grow the longest overlap by at most 1, and
    only by appending exactly the target's next letter), so on the de Bruijn
    digraph — and on every digraph reached through an isomorphism onto it,
    including the Kautz digraph over ``Z_{d+1}`` — this next hop is the
    unique out-neighbour one step closer to the target, i.e. precisely the
    entry the dense table of :func:`build_routing_table` holds.

    ``current == target`` pairs return ``current`` (matching the dense
    table's diagonal); the simulators never ask for them.
    """
    current, target, powers, overlap = _shift_overlaps(current, target, base, D)
    digit = (target // powers[D - 1 - overlap]) % base
    next_code = (current % powers[D - 1]) * base + digit
    return np.where(current == target, current, next_code)


def _shift_overlaps(current, target, base: int, D: int):
    """``(current, target, powers, overlap)``: the pairs as int64 arrays,
    ``powers[j] = base**j`` for ``j <= D`` and every pair's longest
    suffix(``current``)/prefix(``target``) overlap below ``D``."""
    current = np.asarray(current, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    if D < 1:
        raise ValueError("word length D must be positive")
    powers = base ** np.arange(D + 1, dtype=np.int64)
    overlap = np.zeros(current.shape, dtype=np.int64)
    # Ascending j with overwrite leaves the *largest* matching j in place.
    for j in range(1, D):
        match = (current % powers[j]) == (target // powers[D - j])
        overlap = np.where(match, j, overlap)
    return current, target, powers, overlap


def shift_route_lengths(
    current: np.ndarray, target: np.ndarray, base: int, D: int
) -> np.ndarray:
    """Hop counts of the shift walk for whole arrays of word-code pairs.

    Each hop of :func:`shift_route_next_hops` grows the overlap by exactly
    one letter, so the walk takes ``D - k`` hops, ``k`` the longest
    suffix(``current``)/prefix(``target``) overlap (0 when
    ``current == target``) — the paper's closed-form de Bruijn distance.

    >>> shift_route_lengths([0b101, 0b011], [0b011, 0b011], 2, 3).tolist()
    [1, 0]
    """
    current, target, _, overlap = _shift_overlaps(current, target, base, D)
    return np.where(current == target, 0, D - overlap)


def shift_route_paths(
    current: np.ndarray, target: np.ndarray, lengths: np.ndarray, base: int, D: int
) -> np.ndarray:
    """The word codes of the shift walks, concatenated pair by pair.

    ``lengths`` are the walks' hop counts (:func:`shift_route_lengths`).
    After ``h`` of ``L`` hops the word is the last ``D - h`` letters of
    ``current`` followed by the ``h`` letters of ``target`` past their
    overlap: ``(current mod base**(D-h)) * base**h + (target // base**(L-h))
    mod base**h``, so pair ``i`` contributes ``lengths[i] + 1`` codes.

    >>> shift_route_paths([0b100], [0b011], [2], 2, 3).tolist()  # overlap 0
    [4, 1, 3]
    """
    current = np.asarray(current, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    powers = base ** np.arange(D + 1, dtype=np.int64)
    pair, hop = np.nonzero(np.arange(D + 1) <= lengths[:, None])
    tail = target[pair] // powers[lengths[pair] - hop]
    return (current[pair] % powers[D - hop]) * powers[hop] + tail % powers[hop]


def shift_route_next_hop(current: int, target: int, base: int, D: int) -> int:
    """Scalar :func:`shift_route_next_hops` (no array round-trips).

    >>> shift_route_next_hop(0b101, 0b011, 2, 3)   # 101 -> 011 via overlap 01
    3
    """
    if current == target:
        return current
    overlap = 0
    for j in range(1, D):
        if current % base**j == target // base ** (D - j):
            overlap = j
    digit = (target // base ** (D - 1 - overlap)) % base
    return (current % base ** (D - 1)) * base + digit


# --------------------------------------------------------------------------
# Generic routing
# --------------------------------------------------------------------------
def bfs_route(graph: BaseDigraph, source: int, target: int) -> list[int] | None:
    """A shortest directed path in an arbitrary digraph, or None if unreachable."""
    n = graph.num_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("source/target out of range")
    if source == target:
        return [source]
    parent = np.full(n, -1, dtype=np.int64)
    parent[source] = source
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.out_neighbors(u):
            if parent[v] < 0:
                parent[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(int(parent[path[-1]]))
                    return list(reversed(path))
                queue.append(v)
    return None


@dataclass
class RoutingTable:
    """All-pairs next-hop routing table of a digraph.

    ``next_hop[s, t]`` is the neighbour of ``s`` on a shortest path towards
    ``t`` (and ``s`` itself when ``s == t``); ``-1`` marks unreachable pairs.
    ``distance[s, t]`` is the corresponding hop count (``-1`` unreachable).
    """

    next_hop: np.ndarray
    distance: np.ndarray

    @property
    def num_vertices(self) -> int:
        """Number of vertices the table covers."""
        return int(self.next_hop.shape[0])

    def route(self, source: int, target: int) -> list[int] | None:
        """Reconstruct the full path from the table (None when unreachable)."""
        if self.distance[source, target] < 0:
            return None
        path = [source]
        current = source
        while current != target:
            current = int(self.next_hop[current, target])
            path.append(current)
        return path

    def is_consistent(self, graph: BaseDigraph) -> bool:
        """Validate the table against the digraph (used by property tests)."""
        n = graph.num_vertices
        for s in range(n):
            neighbors = set(graph.out_neighbors(s))
            for t in range(n):
                hop = int(self.next_hop[s, t])
                if s == t:
                    if hop != s or self.distance[s, t] != 0:
                        return False
                    continue
                if self.distance[s, t] < 0:
                    if hop != -1:
                        return False
                    continue
                if hop not in neighbors:
                    return False
                if self.distance[hop, t] != self.distance[s, t] - 1:
                    return False
        return True


def build_routing_table(graph: BaseDigraph) -> RoutingTable:
    """Compute the all-pairs next-hop routing table.

    Extracts the distance matrix from the bit-parallel frontier sweep of
    :mod:`repro.graphs.apsp` and then picks, for every pair, the first
    out-arc whose head is one step closer to the target — a handful of
    whole-array operations per out-arc slot.  The per-target reverse BFS
    :func:`_build_routing_table_python` is the tests' reference (both
    produce identical ``distance`` arrays; the ``next_hop`` choices may
    differ but are always heads of shortest-path arcs).
    """
    n = graph.num_vertices
    distance = bit_distance_matrix(graph)
    successors = padded_successor_matrix(graph)
    next_hop = np.full((n, n), -1, dtype=np.int64)
    if n:
        np.fill_diagonal(next_hop, np.arange(n, dtype=np.int64))
    reachable = distance > 0
    # Walk the arc slots last-to-first so the lowest slot wins ties, matching
    # construction order.  Padding entries (the vertex itself) can never
    # satisfy "one step closer" and are ignored automatically.
    for j in range(successors.shape[1] - 1, -1, -1):
        heads = successors[:, j]
        closer = reachable & (distance[heads, :] == distance - 1)
        next_hop = np.where(closer, heads[:, None], next_hop)
    return RoutingTable(next_hop=next_hop, distance=distance)


def _build_routing_table_python(graph: BaseDigraph) -> RoutingTable:
    """Reference implementation: one reverse BFS per target.

    Complexity ``O(n (n + m))``; fine for the network sizes the simulator
    handles (up to a few thousand nodes).
    """
    n = graph.num_vertices
    # Reverse adjacency so one BFS per *target* fills a whole column.
    reverse_adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in graph.out_neighbors(u):
            reverse_adj[v].append(u)

    next_hop = np.full((n, n), -1, dtype=np.int64)
    distance = np.full((n, n), -1, dtype=np.int64)
    for target in range(n):
        distance[target, target] = 0
        next_hop[target, target] = target
        queue: deque[int] = deque([target])
        while queue:
            v = queue.popleft()
            for u in reverse_adj[v]:
                if distance[u, target] < 0:
                    distance[u, target] = distance[v, target] + 1
                    next_hop[u, target] = v
                    queue.append(u)
    return RoutingTable(next_hop=next_hop, distance=distance)
