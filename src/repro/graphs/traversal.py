"""Traversal algorithms: BFS distances, connected components, reachability.

The degree–diameter search of Table 1 performs thousands of diameter
computations on digraphs with up to ~1500 vertices, so BFS is implemented
twice:

* a pure-Python queue BFS (:func:`bfs_distances`), the reference
  implementation used by the tests, and
* a vectorised frontier BFS over the successor matrix
  (:func:`bfs_distances_regular`), which processes an entire frontier per
  numpy call and backs the per-source BFS reference of
  :mod:`repro.graphs.properties`.

Both return ``-1`` for unreachable vertices.  Strongly connected components
use Kosaraju's two-pass algorithm (iterative, so deep graphs do not hit the
recursion limit); weak connectivity uses a union–find structure.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.digraph import BaseDigraph, RegularDigraph

__all__ = [
    "bfs_distances",
    "bfs_distances_regular",
    "reverse_bfs_distances_regular",
    "reachable_set",
    "weakly_connected_components",
    "strongly_connected_components",
    "is_strongly_connected",
    "is_weakly_connected",
    "topological_order",
]


def bfs_distances(graph: BaseDigraph, source: int) -> np.ndarray:
    """Unweighted shortest-path distances from ``source`` to every vertex.

    Unreachable vertices get distance ``-1``.  This is the straightforward
    queue implementation used as the reference for the vectorised path.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.out_neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_distances_regular(graph: RegularDigraph, source: int) -> np.ndarray:
    """Frontier-at-a-time BFS over the successor matrix of a regular digraph.

    Each BFS level expands the whole current frontier with one fancy-indexing
    operation, which is substantially faster than the per-vertex queue for
    the dense sweeps performed by the Table 1 search.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    successors = graph.successors
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        candidates = successors[frontier].ravel()
        candidates = candidates[dist[candidates] < 0]
        if candidates.size == 0:
            break
        # A vertex may be reached from several frontier vertices; keep one.
        frontier = np.unique(candidates)
        dist[frontier] = level
    return dist


def reverse_bfs_distances_regular(graph: RegularDigraph, target: int) -> np.ndarray:
    """Distance from every vertex *to* ``target``; ``-1`` when it cannot reach it.

    This is the reverse-direction counterpart of :func:`bfs_distances_regular`
    and the second half of the connectivity screen used by the Table 1 search:
    a digraph is strongly connected iff every vertex is reachable *from* 0 and
    every vertex can reach 0.  The reverse adjacency is built once in CSR form
    (a stable argsort of the flattened successor matrix) and each level gathers
    the whole frontier's predecessors with a ragged fancy-index.
    """
    n = graph.num_vertices
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range")
    successors = graph.successors
    d = graph.degree
    dist = np.full(n, -1, dtype=np.int64)
    dist[target] = 0
    if d == 0:
        return dist
    heads = successors.ravel()
    order = np.argsort(heads, kind="stable")
    tails = order // d
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])

    frontier = np.array([target], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Ragged gather: positions 0..counts[i]-1 within each block, offset
        # by that block's start in the CSR tail array.
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        indices = np.repeat(starts, counts) + (np.arange(total) - offsets)
        candidates = tails[indices]
        candidates = candidates[dist[candidates] < 0]
        if candidates.size == 0:
            break
        frontier = np.unique(candidates)
        dist[frontier] = level
    return dist


def reachable_set(graph: BaseDigraph, source: int) -> set[int]:
    """Set of vertices reachable from ``source`` (including ``source``)."""
    dist = bfs_distances(graph, source)
    return {int(v) for v in np.nonzero(dist >= 0)[0]}


def weakly_connected_components(graph: BaseDigraph) -> list[list[int]]:
    """Weakly connected components (ignoring arc orientation), sorted.

    Uses a union–find structure with path compression; components are
    returned as sorted vertex lists, ordered by their smallest vertex.
    """
    n = graph.num_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for u, v in graph.arcs():
        union(u, v)

    buckets: dict[int, list[int]] = {}
    for v in range(n):
        buckets.setdefault(find(v), []).append(v)
    return [sorted(component) for _, component in sorted(buckets.items())]


def strongly_connected_components(graph: BaseDigraph) -> list[list[int]]:
    """Strongly connected components via Kosaraju's algorithm (iterative).

    Components are returned as sorted vertex lists, ordered by their smallest
    vertex.
    """
    n = graph.num_vertices
    # First pass: iterative DFS finishing order.
    visited = [False] * n
    finish_order: list[int] = []
    for start in range(n):
        if visited[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        visited[start] = True
        while stack:
            vertex, index = stack[-1]
            neighbors = graph.out_neighbors(vertex)
            if index < len(neighbors):
                stack[-1] = (vertex, index + 1)
                nxt = neighbors[index]
                if not visited[nxt]:
                    visited[nxt] = True
                    stack.append((nxt, 0))
            else:
                finish_order.append(vertex)
                stack.pop()

    # Build reverse adjacency once.
    reverse_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.arcs():
        reverse_adj[v].append(u)

    # Second pass: DFS on the reverse graph in reverse finishing order.
    assigned = [False] * n
    components: list[list[int]] = []
    for start in reversed(finish_order):
        if assigned[start]:
            continue
        component = []
        stack2 = [start]
        assigned[start] = True
        while stack2:
            vertex = stack2.pop()
            component.append(vertex)
            for prev in reverse_adj[vertex]:
                if not assigned[prev]:
                    assigned[prev] = True
                    stack2.append(prev)
        components.append(sorted(component))
    components.sort(key=lambda comp: comp[0])
    return components


def is_strongly_connected(graph: BaseDigraph) -> bool:
    """True when every vertex can reach every other vertex."""
    n = graph.num_vertices
    if n <= 1:
        return True
    if np.any(bfs_distances(graph, 0) < 0):
        return False
    # Check reachability of vertex 0 in the reverse graph.
    reverse_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.arcs():
        reverse_adj[v].append(u)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue: deque[int] = deque([0])
    while queue:
        u = queue.popleft()
        for v in reverse_adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return bool(seen.all())


def is_weakly_connected(graph: BaseDigraph) -> bool:
    """True when the underlying undirected graph is connected."""
    return len(weakly_connected_components(graph)) <= 1


def topological_order(graph: BaseDigraph) -> list[int] | None:
    """A topological order of the vertices, or ``None`` if the digraph has a cycle.

    De Bruijn-like digraphs are strongly connected, so this mostly serves the
    simulator's dependency graphs and the test-suite's adversarial cases.
    """
    n = graph.num_vertices
    in_degree = graph.in_degrees().copy()
    queue: deque[int] = deque(int(v) for v in np.nonzero(in_degree == 0)[0])
    order: list[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in graph.out_neighbors(u):
            in_degree[v] -= 1
            if in_degree[v] == 0:
                queue.append(v)
    if len(order) != n:
        return None
    return order
