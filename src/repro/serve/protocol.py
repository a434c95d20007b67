"""The batch route-query wire format and its vectorised answer kernels.

One request is one JSON object (the body of a ``POST /v1/query``)::

    {"op": "next-hop", "topology": "prod", "pairs": [[0, 5], [3, 7], ...]}

``pairs`` may hold thousands of ``(source, target)`` pairs; they are decoded
into numpy arrays once (a list of two-element lists in one ``np.fromiter``
pass) and answered with *one* router call per batch — ``next_hops`` for
``op="next-hop"``, ``path_lengths`` (+ the uncongested ETA formula) for
``op="eta"`` and ``paths`` for ``op="path"``.  On closed-form and table
routers the latter two are one compiled pass over the batch (numpy closed
forms without a compiler); other routers walk ``next_hops`` level by level.
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
from itertools import chain
from operator import countOf

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


def _decode_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """``(sources, targets)`` of a query's ``pairs``.

    A list of two-element lists takes one ``np.fromiter`` pass over the
    chained pairs.  Any other shape, or a pass that raises, takes the
    ``np.asarray`` decode, which gives the same arrays and words every
    error.
    """
    try:
        n = len(pairs)
        if (
            type(pairs) is list
            and countOf(map(type, pairs), list) == n
            and countOf(map(len, pairs), 2) == n
        ):
            flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * n)
            return flat[0::2].copy(), flat[1::2].copy()
    except Exception:
        pass
    try:
        array = np.asarray(pairs, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as error:
        raise ProtocolError(f"pairs must be [[source, target], ...]: {error}")
    if array.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ProtocolError("pairs must be [[source, target], ...]")
    return array[:, 0].copy(), array[:, 1].copy()


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
        sources, targets = _decode_pairs(obj["pairs"])
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
    """Full routed paths for a batch: one :meth:`Router.paths` call, then
    the vertex lists cut from one ``tolist()`` of its flat vertices.
    Unreachable pairs yield ``None`` (matching :meth:`Router.full_path`).
    """
    _, offsets, vertices = router.paths(sources, targets)
    flat = vertices.tolist()
    bounds = offsets.tolist()
    return [flat[a:b] if a < b else None for a, b in zip(bounds, bounds[1:])]


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
