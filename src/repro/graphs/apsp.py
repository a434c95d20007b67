"""Batched bit-parallel reachability and eccentricity engine.

The degree–diameter search of Table 1 (Section 4.3) asks one question of each
candidate ``H(p, q, d)``: *is the maximum out-eccentricity exactly D?*  The
answer never needs the full ``n × n`` distance matrix — only, per source, the
first BFS level at which the source's reachable set covers the whole vertex
set.  This module answers that question for **all sources simultaneously**:

* the state is a bit-packed reachability matrix ``R`` of shape
  ``(n, ceil(n/64))`` ``uint64`` — bit ``v`` of row ``u`` means "``u`` reaches
  ``v`` within the current number of levels";
* one level-synchronous step is ``R'[u] = R[u] | ⋃_j R[succ(u, j)]``, i.e.
  one :func:`numpy.bitwise_or` gather per out-arc slot, advancing 64 sources
  per machine word per operation;
* eccentricities stream out as rows *complete* (become all-ones): the
  completing level is exactly the source's out-eccentricity;
* with an ``upper_bound`` the sweep **aborts early** the moment some row is
  still incomplete after ``upper_bound`` levels — the search path therefore
  never materialises an ``(n, n)`` int64 matrix.

The same frontier machinery also yields the pairwise distance *sum* (for
:func:`repro.graphs.properties.average_distance`) via the identity
``Σ d(u, v) = Σ_k #{(u, v) : d(u, v) > k}``, and an explicit distance matrix
(:func:`bit_distance_matrix`) used by the vectorised routing-table builder —
the latter two are off the search path and may allocate ``(n, n)`` arrays.

Arbitrary digraphs (non-regular, parallel arcs, disconnected) are supported
through :func:`padded_successor_matrix`: adjacency lists are padded with the
vertex itself, which is a no-op under the union step because ``R[u]`` always
contains ``R[u]``.

For very large ``n`` even the bit-packed ``(n, ceil(n/64))`` state is more
than a *sampled* screen needs.  :func:`subset_distance_rows` therefore runs
the **transposed** sweep for ``k`` selected sources: the state is one bit per
``(vertex, source)`` pair — ``(n, ceil(k/64))`` words — and one step gathers
over each vertex's *predecessors* (``v`` is reached by ``s`` within ``L+1``
levels iff some in-neighbour of ``v`` is reached within ``L``).  The same
engine backs ``batched_eccentricities(..., sources=...)`` (sampled
eccentricity screens) and, run over the *successors* as a reverse sweep,
the distance-to-target columns of :class:`repro.routing.routers.
DenseTableRouter`.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import kernels as _kernels
from repro.graphs.digraph import BaseDigraph, RegularDigraph

__all__ = [
    "padded_successor_matrix",
    "padded_predecessor_matrix",
    "batched_eccentricities",
    "subset_distance_rows",
    "pairwise_distance_sum",
    "bit_distance_matrix",
]

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def padded_successor_matrix(graph: BaseDigraph) -> np.ndarray:
    """An ``(n, d_max)`` successor matrix for *any* digraph.

    :class:`RegularDigraph` instances return their stored matrix unchanged.
    Other digraphs get each adjacency list padded up to the maximum out-degree
    with the vertex's own index; a self entry is inert for reachability
    unions (and can never sit on a shortest path, so the routing-table builder
    ignores it too).  Parallel arcs simply repeat a successor, which is
    likewise harmless under bitwise union.
    """
    if isinstance(graph, RegularDigraph):
        return graph.successors
    n = graph.num_vertices
    lists = [graph.out_neighbors(u) for u in range(n)]
    d_max = max((len(successors) for successors in lists), default=0)
    if n == 0 or d_max == 0:
        return np.zeros((n, 0), dtype=np.int64)
    matrix = np.repeat(np.arange(n, dtype=np.int64)[:, None], d_max, axis=1)
    for u, successors in enumerate(lists):
        matrix[u, : len(successors)] = successors
    return matrix


def padded_predecessor_matrix(graph: BaseDigraph) -> np.ndarray:
    """An ``(n, in_d_max)`` predecessor matrix, padded like its successor twin.

    Row ``v`` lists the tails of all arcs into ``v`` (with multiplicity),
    padded up to the maximum in-degree with ``v`` itself — inert under the
    bitwise-union step of the transposed sweep, exactly as self-padding is for
    :func:`padded_successor_matrix`.
    """
    n = graph.num_vertices
    lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.arcs():
        lists[v].append(u)
    d_max = max((len(tails) for tails in lists), default=0)
    if n == 0 or d_max == 0:
        return np.zeros((n, 0), dtype=np.int64)
    matrix = np.repeat(np.arange(n, dtype=np.int64)[:, None], d_max, axis=1)
    for v, tails in enumerate(lists):
        matrix[v, : len(tails)] = tails
    return matrix


class _BitSweep:
    """Shared state of one level-synchronous bit-parallel sweep.

    ``reach`` holds, after ``k`` calls to :meth:`step`, the within-``k``-steps
    reachability bitmap of every vertex.  Bits beyond ``n`` in the last word
    stay zero throughout.
    """

    def __init__(self, successors: np.ndarray):
        successors = np.ascontiguousarray(successors, dtype=np.int64)
        self.successors = successors
        self.n = n = int(successors.shape[0])
        self.words = words = (n + _WORD_BITS - 1) // _WORD_BITS
        reach = np.zeros((n, words), dtype=np.uint64)
        rows = np.arange(n)
        reach[rows, rows // _WORD_BITS] = np.uint64(1) << (
            rows % _WORD_BITS
        ).astype(np.uint64)
        self.reach = reach
        full = np.full(words, _ALL_ONES, dtype=np.uint64)
        remainder = n % _WORD_BITS
        if remainder:
            full[-1] = (np.uint64(1) << np.uint64(remainder)) - np.uint64(1)
        self._full_row = full

    def complete_rows(self) -> np.ndarray:
        """Boolean mask of sources whose reachable set is the whole digraph."""
        return (self.reach == self._full_row).all(axis=1)

    def step(self) -> bool:
        """Advance one BFS level; returns False once the sweep has converged."""
        successors = self.successors
        reach = self.reach
        if successors.shape[1] == 0:
            return False
        merged = reach[successors[:, 0]].copy()
        for j in range(1, successors.shape[1]):
            np.bitwise_or(merged, reach[successors[:, j]], out=merged)
        np.bitwise_or(merged, reach, out=merged)
        if np.array_equal(merged, reach):
            return False
        self.reach = merged
        return True

    def unreached_pairs(self) -> int:
        """Number of ordered pairs ``(u, v)`` with ``v`` not yet reached."""
        return self.n * self.n - int(_popcount(self.reach))


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(bits: np.ndarray) -> int:
        return int(np.bitwise_count(bits).sum())

else:  # pragma: no cover - exercised only on numpy 1.x
    _POPCOUNT_TABLE = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint32
    )

    def _popcount(bits: np.ndarray) -> int:
        return int(_POPCOUNT_TABLE[bits.view(np.uint8)].sum())


def _unpack_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """Expand an ``(n, words)`` uint64 bitmap into an ``(n, n)`` bool mask."""
    if sys.byteorder == "big":  # pragma: no cover - little-endian everywhere
        bits = bits.byteswap()
    as_bytes = bits.view(np.uint8)
    unpacked = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return unpacked[:, :n].astype(bool, copy=False)


class _SubsetSweep:
    """Transposed level-synchronous sweep for ``k`` selected sources.

    Bit ``b`` of word row ``v`` means "``sources[b]`` reaches ``v`` within the
    current number of levels"; the state is ``(n, ceil(k/64))`` words and one
    step gathers over each vertex's *predecessors* (``v`` is reached within
    ``L+1`` iff some in-neighbour is reached within ``L``).  Duplicate
    sources are harmless — every bit column evolves independently.
    """

    def __init__(self, predecessors: np.ndarray, sources: np.ndarray):
        predecessors = np.ascontiguousarray(predecessors, dtype=np.int64)
        self.predecessors = predecessors
        self.n = n = int(predecessors.shape[0])
        self.sources = sources = np.ascontiguousarray(sources, dtype=np.int64)
        self.k = k = int(sources.shape[0])
        self.words = words = (k + _WORD_BITS - 1) // _WORD_BITS if k else 0
        state = np.zeros((n, max(words, 1)), dtype=np.uint64)
        bits = np.arange(k)
        np.bitwise_or.at(
            state,
            (sources, bits // _WORD_BITS),
            np.uint64(1) << (bits % _WORD_BITS).astype(np.uint64),
        )
        self.state = state

    def step(self) -> bool:
        """Advance one level; returns False once nothing new was reached."""
        predecessors = self.predecessors
        state = self.state
        if predecessors.shape[1] == 0:
            return False
        merged = state[predecessors[:, 0]].copy()
        for j in range(1, predecessors.shape[1]):
            np.bitwise_or(merged, state[predecessors[:, j]], out=merged)
        np.bitwise_or(merged, state, out=merged)
        if np.array_equal(merged, state):
            return False
        self.state = merged
        return True

    def complete_columns(self) -> np.ndarray:
        """Boolean mask over sources whose reach covers every vertex."""
        if self.k == 0:
            return np.zeros(0, dtype=bool)
        covered = np.bitwise_and.reduce(self.state, axis=0)
        return _unpack_rows(covered[None, :], self.k)[0]


def subset_distance_rows(
    graph: BaseDigraph | np.ndarray,
    sources,
    *,
    predecessors: np.ndarray | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Distances from each of ``sources`` to every vertex, ``-1`` unreachable.

    Returns a ``(k, n)`` int64 array with ``rows[b, v] = d(sources[b], v)``.
    The cost scales with ``k``, not ``n``: the transposed sweep keeps one bit
    per ``(vertex, source)`` pair, so screening 64 sources on a 10^5-vertex
    digraph costs one machine word per vertex per level.  Pass a precomputed
    ``predecessors`` matrix (:func:`padded_predecessor_matrix`) when calling
    repeatedly on one topology; passing the successor matrix instead gives
    distances *to* the sources (the table router's columns).

    ``backend`` selects the kernel backend (see :mod:`repro.kernels`);
    ``None`` resolves ``REPRO_KERNELS``.  All backends are bit-identical.
    """
    if predecessors is None:
        if isinstance(graph, np.ndarray):
            raise ValueError(
                "subset_distance_rows needs predecessors= when given a raw "
                "successor matrix (it cannot tell successor and predecessor "
                "matrices apart)"
            )
        predecessors = padded_predecessor_matrix(graph)
    n = int(predecessors.shape[0])
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1:
        raise ValueError("sources must be a 1-D array of vertex indices")
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("sources out of range")
    k = int(sources.shape[0])
    rows = np.full((k, n), -1, dtype=np.int64)
    if k == 0 or n == 0:
        return rows
    sweep = _SubsetSweep(predecessors, sources)
    rows[np.arange(k), sources] = 0
    kern = _kernels.get_kernels(backend)
    if kern is not None:
        kern.subset_rows_sweep(
            sweep.predecessors, sweep.state, np.empty_like(sweep.state), rows
        )
        return rows
    level = 0
    while True:
        previous = sweep.state
        level += 1
        if not sweep.step():
            return rows
        newly = sweep.state ^ previous
        changed = np.flatnonzero(newly.any(axis=1))
        if changed.size:
            mask = _unpack_rows(newly[changed], k)
            vertex_index, source_index = np.nonzero(mask)
            rows[source_index, changed[vertex_index]] = level


def _subset_eccentricities(
    graph: BaseDigraph | np.ndarray,
    sources: np.ndarray,
    upper_bound: int | None,
    backend: str | None = None,
) -> tuple[np.ndarray, bool]:
    """``batched_eccentricities`` restricted to a subset of sources.

    Same contract as the full sweep: ``ecc[b]`` is the out-eccentricity of
    ``sources[b]`` (``-1`` when it cannot reach the whole digraph), and
    ``aborted`` fires exactly when the ``upper_bound`` cut stopped the sweep
    before it finished or converged.
    """
    if isinstance(graph, np.ndarray):
        raise ValueError(
            "sources= needs a digraph (the transposed sweep gathers over "
            "predecessors, which a successor matrix alone cannot provide "
            "cheaply); pass the BaseDigraph instead"
        )
    predecessors = padded_predecessor_matrix(graph)
    n = graph.num_vertices
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1:
        raise ValueError("sources must be a 1-D array of vertex indices")
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("sources out of range")
    k = int(sources.shape[0])
    ecc = np.full(k, -1, dtype=np.int64)
    if k == 0 or n == 0:
        return ecc, False
    sweep = _SubsetSweep(predecessors, sources)
    kern = _kernels.get_kernels(backend)
    if kern is not None:
        words = sweep.state.shape[1]
        full = np.full(words, _ALL_ONES, dtype=np.uint64)
        remainder = k % _WORD_BITS
        if remainder:
            full[-1] = (np.uint64(1) << np.uint64(remainder)) - np.uint64(1)
        aborted = kern.subset_ecc_sweep(
            sweep.predecessors,
            sweep.state,
            np.empty_like(sweep.state),
            full,
            np.zeros(words, dtype=np.uint64),
            ecc,
            -1 if upper_bound is None else int(upper_bound),
        )
        return ecc, bool(aborted)
    done = sweep.complete_columns()
    ecc[done] = 0
    level = 0
    while not done.all():
        if upper_bound is not None and level >= upper_bound:
            return ecc, True
        level += 1
        if not sweep.step():
            break  # converged: the remaining sources can never complete
        newly_done = ~done & sweep.complete_columns()
        ecc[newly_done] = level
        done |= newly_done
    return ecc, False


def batched_eccentricities(
    graph: BaseDigraph | np.ndarray,
    upper_bound: int | None = None,
    *,
    sources=None,
    backend: str | None = None,
) -> tuple[np.ndarray, bool]:
    """Out-eccentricity of every vertex, all sources swept at once.

    Parameters
    ----------
    graph:
        A digraph, or directly an ``(n, d)`` successor matrix (full sweep
        only — the ``sources=`` path needs the digraph itself).
    upper_bound:
        When given, the sweep stops as soon as some vertex is still missing
        part of the digraph after ``upper_bound`` levels, i.e. as soon as it
        is certain that ``max eccentricity > upper_bound`` *or* the digraph is
        not strongly connected.  A digraph whose sweep converges in fewer
        levels is answered definitively instead (no abort) — in particular a
        disconnected digraph that converges early returns ``aborted=False``
        with ``-1`` entries.
    sources:
        Optional 1-D array of vertex indices.  When given, only those
        sources are swept (``ecc`` is aligned with ``sources``, not with the
        vertex set) via the transposed ``(n, ceil(k/64))``-word engine, so a
        sampled eccentricity screen on a very large digraph costs ``O(k/64)``
        machine words per vertex per level instead of ``O(n/64)``.

    Returns
    -------
    (ecc, aborted):
        ``ecc[u]`` is the out-eccentricity of ``u`` (``-1`` when ``u`` cannot
        reach the whole digraph).  ``aborted`` is True iff the ``upper_bound``
        cut fired before the sweep finished or converged; incomplete entries
        then still hold ``-1``.  ``aborted=False`` therefore does *not* imply
        strong connectivity — check ``(ecc >= 0).all()`` (or pre-screen, as
        :func:`repro.otis.search.h_diameter` does) before trusting
        ``ecc.max()``.

    ``backend`` selects the kernel backend (see :mod:`repro.kernels`);
    ``None`` resolves ``REPRO_KERNELS``.  All backends are bit-identical.
    """
    if sources is not None:
        return _subset_eccentricities(graph, sources, upper_bound, backend)
    successors = (
        graph if isinstance(graph, np.ndarray) else padded_successor_matrix(graph)
    )
    n = int(successors.shape[0])
    ecc = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return ecc, False
    sweep = _BitSweep(successors)
    kern = _kernels.get_kernels(backend)
    if kern is not None:
        aborted = kern.ecc_sweep(
            sweep.successors,
            sweep.reach,
            np.empty_like(sweep.reach),
            sweep._full_row,
            ecc,
            np.zeros(n, dtype=np.uint8),
            -1 if upper_bound is None else int(upper_bound),
        )
        return ecc, bool(aborted)
    done = sweep.complete_rows()
    ecc[done] = 0
    level = 0
    while not done.all():
        if upper_bound is not None and level >= upper_bound:
            return ecc, True
        level += 1
        if not sweep.step():
            break  # converged: the remaining sources can never complete
        newly_done = ~done & sweep.complete_rows()
        ecc[newly_done] = level
        done |= newly_done
    return ecc, False


def pairwise_distance_sum(graph: BaseDigraph | np.ndarray) -> tuple[int, bool]:
    """Sum of ``d(u, v)`` over all ordered pairs, without a distance matrix.

    Uses ``Σ_{u,v} d(u, v) = Σ_{k >= 0} #{(u, v) : d(u, v) > k}``, counting
    unset bits of the reachability bitmap level by level.

    Returns ``(total, complete)``; ``complete`` is False when some ordered
    pair is unreachable, and ``total`` is then exactly the sum over the
    *finite* distances (every never-reachable pair sat in all ``levels``
    per-level counts, so subtracting ``levels`` copies of the converged
    unreached count removes them without touching the finite terms).
    """
    successors = (
        graph if isinstance(graph, np.ndarray) else padded_successor_matrix(graph)
    )
    n = int(successors.shape[0])
    if n == 0:
        return 0, True
    sweep = _BitSweep(successors)
    total = 0
    levels = 0
    while True:
        unreached = sweep.unreached_pairs()
        if unreached == 0:
            return total, True
        total += unreached
        levels += 1
        if not sweep.step():
            return total - levels * unreached, False


def bit_distance_matrix(graph: BaseDigraph | np.ndarray) -> np.ndarray:
    """All-pairs distance matrix extracted from the bit-parallel sweep.

    Off the search path (it materialises the ``(n, n)`` result by design);
    used by the vectorised routing-table builder and as a third independent
    implementation for the parity tests.  Unreachable pairs get ``-1``.
    """
    successors = (
        graph if isinstance(graph, np.ndarray) else padded_successor_matrix(graph)
    )
    n = int(successors.shape[0])
    dist = np.full((n, n), -1, dtype=np.int64)
    if n == 0:
        return dist
    np.fill_diagonal(dist, 0)
    sweep = _BitSweep(successors)
    level = 0
    while True:
        previous = sweep.reach
        level += 1
        if not sweep.step():
            return dist
        newly_reached = sweep.reach ^ previous
        dist[_unpack_rows(newly_reached, n)] = level
