"""The batch route-query wire format and its vectorised answer kernels.

One request is one JSON object (the body of a ``POST /v1/query``)::

    {"op": "next-hop", "topology": "prod", "pairs": [[0, 5], [3, 7], ...]}

``pairs`` may hold thousands of ``(source, target)`` pairs; they are decoded
into numpy arrays once and answered with *one* router call per batch —
``next_hops`` for ``op="next-hop"``, ``path_lengths`` (+ the uncongested ETA
formula) for ``op="eta"``, and a vectorised next-hop walk for ``op="path"``.
``{"sources": [...], "targets": [...]}`` is accepted as an alternative to
``pairs``.

Replies mirror the request::

    {"ok": true, "op": "next-hop", "topology": "prod", "version": 3,
     "count": 2, "hops": [1, 6]}

``op="eta"`` replies carry ``lengths`` (hop counts, ``-1`` unreachable) and
``etas`` (``hops * (latency + transmission_time)``, ``-1.0`` unreachable);
``op="path"`` carries ``paths`` (vertex lists, ``null`` when unreachable).
Failures are ``{"ok": false, "error": "..."}`` with an HTTP 4xx status.

Answers are bit-identical to calling the underlying router directly — the
serve layer adds batching and transport, never arithmetic (the parity tests
in ``tests/test_serve.py`` enforce this for every family and router kind).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.routers import Router

__all__ = [
    "QUERY_OPS",
    "ProtocolError",
    "BatchQuery",
    "decode_query",
    "check_range",
    "batch_paths",
    "answer_query",
]

#: Operations a query may request.
QUERY_OPS = ("next-hop", "path", "eta")


class ProtocolError(ValueError):
    """A malformed or unanswerable query (maps to an HTTP 4xx reply)."""


@dataclass
class BatchQuery:
    """One decoded batch query."""

    op: str
    topology: str
    sources: np.ndarray
    targets: np.ndarray
    id: object = None

    @property
    def count(self) -> int:
        return int(self.sources.size)


def _as_index_array(values, what: str) -> np.ndarray:
    try:
        array = np.asarray(values, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as error:
        raise ProtocolError(f"{what} must be an array of integers: {error}")
    if array.ndim != 1:
        raise ProtocolError(f"{what} must be one-dimensional")
    return array


def decode_query(obj: object, *, max_pairs: int | None = None) -> BatchQuery:
    """Validate and decode one JSON query object into numpy arrays."""
    if not isinstance(obj, dict):
        raise ProtocolError("query must be a JSON object")
    op = obj.get("op")
    if op not in QUERY_OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {QUERY_OPS})")
    topology = obj.get("topology")
    if not isinstance(topology, str) or not topology:
        raise ProtocolError('query needs a "topology" name')
    if "pairs" in obj:
        try:
            pairs = np.asarray(obj["pairs"], dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as error:
            raise ProtocolError(f"pairs must be [[source, target], ...]: {error}")
        if pairs.size == 0:
            sources = targets = np.zeros(0, dtype=np.int64)
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ProtocolError("pairs must be [[source, target], ...]")
        else:
            sources, targets = pairs[:, 0].copy(), pairs[:, 1].copy()
    elif "sources" in obj and "targets" in obj:
        sources = _as_index_array(obj["sources"], "sources")
        targets = _as_index_array(obj["targets"], "targets")
        if sources.size != targets.size:
            raise ProtocolError("sources and targets must have equal length")
    else:
        raise ProtocolError('query needs "pairs" or "sources"+"targets"')
    if max_pairs is not None and sources.size > max_pairs:
        raise ProtocolError(
            f"batch of {sources.size} pairs exceeds the per-request limit "
            f"of {max_pairs}"
        )
    return BatchQuery(
        op=op,
        topology=topology,
        sources=sources,
        targets=targets,
        id=obj.get("id"),
    )


def check_range(query: BatchQuery, n: int) -> None:
    """Raise :class:`ProtocolError` unless every endpoint is below ``n``."""
    for what, array in (("source", query.sources), ("target", query.targets)):
        if array.size and (array.min() < 0 or array.max() >= n):
            raise ProtocolError(
                f"{what} index out of range for {query.topology!r} "
                f"(topology has {n} vertices)"
            )


def batch_paths(
    router: Router, sources: np.ndarray, targets: np.ndarray
) -> list[list[int] | None]:
    """Full routed paths for a batch, one vectorised router call per hop.

    Walks :meth:`Router.next_hops` level-synchronously over the still-active
    pairs, so a batch of ``k`` paths of diameter ``D`` costs ``D`` router
    calls, not ``sum(len(path))`` scalar lookups.  Unreachable pairs yield
    ``None`` (matching :meth:`Router.full_path`).
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    # Row l holds every pair's vertex after l hops (its target once it has
    # arrived); hops[i] is pair i's hop count, -1 once it hit a dead end.
    levels = [sources]
    hops = np.zeros(sources.size, dtype=np.int64)
    current = sources.copy()
    active = np.flatnonzero(current != targets)
    limit = router.num_vertices()
    while active.size:
        if len(levels) > limit:  # pragma: no cover - defensive (cyclic router)
            raise RuntimeError("routing walk exceeded the vertex count")
        nxt = router.next_hops(current[active], targets[active])
        reachable = nxt >= 0
        hops[active[reachable]] += 1
        hops[active[~reachable]] = -1
        current[active] = np.where(reachable, nxt, targets[active])
        levels.append(current.copy())
        active = active[current[active] != targets[active]]
    rows = zip(np.stack(levels, axis=1).tolist(), hops.tolist())
    return [None if count < 0 else row[: count + 1] for row, count in rows]


def answer_query(
    query: BatchQuery, router: Router, *, link=None, version: int | None = None
) -> dict:
    """Answer one decoded query against a router; returns the reply object.

    This is the single compute kernel the server's micro-batcher executes
    (in a worker thread); everything in it is a router call plus array
    serialisation.  The server has already refused out-of-range endpoints
    (:func:`check_range`) when it admitted the query.
    """
    reply: dict = {
        "ok": True,
        "op": query.op,
        "topology": query.topology,
        "count": query.count,
    }
    if version is not None:
        reply["version"] = version
    if query.id is not None:
        reply["id"] = query.id
    if query.op == "next-hop":
        reply["hops"] = router.next_hops(query.sources, query.targets).tolist()
    elif query.op == "eta":
        lengths = router.path_lengths(query.sources, query.targets)
        if link is None:
            from repro.simulation.network import LinkModel

            link = LinkModel()
        per_hop = float(link.latency + link.transmission_time)
        etas = np.where(lengths < 0, -1.0, lengths.astype(np.float64) * per_hop)
        reply["lengths"] = lengths.tolist()
        reply["etas"] = etas.tolist()
    else:  # "path"
        reply["paths"] = batch_paths(router, query.sources, query.targets)
    return reply
