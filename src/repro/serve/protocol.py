"""The batch route-query wire format and its vectorised answer kernels.

One request is one JSON object (the body of a ``POST /v1/query``)::

    {"op": "next-hop", "topology": "prod", "pairs": [[0, 5], [3, 7], ...]}

``pairs`` may hold thousands of ``(source, target)`` pairs; they are decoded
into numpy arrays once and answered with *one* router call per batch —
``next_hops`` for ``op="next-hop"``, ``path_lengths`` (+ the uncongested ETA
formula) for ``op="eta"`` and ``paths`` for ``op="path"``.  On closed-form
and table routers the latter two are one compiled pass over the batch
(numpy closed forms without a compiler); other routers walk ``next_hops``
level by level.  ``{"sources": [...], "targets": [...]}`` is accepted as
an alternative to ``pairs``.

Replies mirror the request::

    {"ok": true, "op": "next-hop", "topology": "prod", "version": 3,
     "count": 2, "hops": [1, 6]}

``op="eta"`` replies carry ``lengths`` (hop counts, ``-1`` unreachable) and
``etas`` (``hops * (latency + transmission_time)``, ``-1.0`` unreachable);
``op="path"`` carries ``paths`` (vertex lists, ``null`` when unreachable).
Failures are ``{"ok": false, "error": "..."}`` with an HTTP 4xx status.

**Arrays, not lists.**  :func:`answer_query` returns its reply with numpy
arrays in the array fields (:class:`ReplyArray`, which is true when it
holds pairs, as a list is; :class:`PathArrays` for ``paths``: the offsets
and vertices of :meth:`Router.paths`).  :func:`reply_as_lists` gives the
JSON object a reply stands for, and :func:`encode_replies` its wire bytes,
``(json.dumps(reply_as_lists(reply)) + "\n").encode()``: on the compiled
backend one C pass writes every reply of a round, else ``json.dumps`` does.
:func:`read_query` is the compiled reader of a *canonical* body (the keys
``op``, ``topology`` and ``pairs`` only, plain ASCII strings, pairs of ints
of at most 18 digits); it declines everything else, which then takes
``json.loads`` and :func:`decode_query` with their error messages.

Answers are bit-identical to calling the underlying router directly — the
serve layer adds batching and transport, never arithmetic (the parity tests
in ``tests/test_serve.py`` enforce this for every family and router kind).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import countOf

import numpy as np

from repro import kernels as _kernels
from repro.routing.routers import Router

__all__ = [
    "QUERY_OPS",
    "ARRAY_FIELDS",
    "ProtocolError",
    "BatchQuery",
    "PathArrays",
    "ReplyArray",
    "read_query",
    "decode_query",
    "check_range",
    "answer_query",
    "reply_as_lists",
    "encode_replies",
]

#: Operations a query may request.
QUERY_OPS = ("next-hop", "path", "eta")

#: The reply fields that hold arrays.
ARRAY_FIELDS = ("hops", "lengths", "etas", "paths")

_ARRAY_KEYS = frozenset(ARRAY_FIELDS)

#: The compiled writer's kind of each run of array fields a reply may hold.
_WRITER_KINDS = {("hops",): 0, ("lengths", "etas"): 1, ("paths",): 2}
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)

#: The types of the reply values whose texts the compiled writer caches:
#: equal values of one of them have one JSON text (not so for floats:
#: ``0.0 == -0.0``).
_PLAIN_TYPES = frozenset((str, int, bool, type(None)))

#: The compiled writer's remembered reply frames (see :func:`_frame`): the
#: replies of a server share a few heads.  It keeps at most
#: :data:`_FRAME_COUNT` frames of at most :data:`_FRAME_BYTES` bytes each
#: (a long request id is not kept), and starts over when full.
_FRAMES: dict = {}
_FRAME_COUNT = 1024
_FRAME_BYTES = 256


class ReplyArray(np.ndarray):
    """A reply's array field: a numpy array that, like the JSON list it
    stands for, is true when it has elements (a plain array of more than
    one element has no truth value).  Slices stay reply arrays; what a
    ufunc computes from one (``reply["hops"] == expected``, say) is a
    plain array, so a comparison is never true just for being non-empty."""

    def __bool__(self) -> bool:
        return self.size > 0

    def __array_wrap__(self, array, context=None, return_scalar=False):
        return array[()] if return_scalar else array.view(np.ndarray)


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


@dataclass(frozen=True)
class PathArrays:
    """The routed paths of a run of pairs, in :meth:`Router.paths`' own
    arrays: pair ``i``'s vertices are ``vertices[offsets[i]:offsets[i +
    1]]``, none when it is unreachable.  Slicing takes a run of the pairs
    and keeps the vertices."""

    offsets: np.ndarray
    vertices: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, pairs: slice) -> "PathArrays":
        start, stop, _ = pairs.indices(len(self))
        return PathArrays(self.offsets[start : stop + 1], self.vertices)

    def tolist(self) -> list[list[int] | None]:
        """Every pair's vertex list, None when unreachable (matching
        :meth:`Router.full_path`)."""
        first = int(self.offsets[0])
        flat = self.vertices[first : int(self.offsets[-1])].tolist()
        bounds = (self.offsets - first).tolist()
        return [flat[a:b] if a < b else None for a, b in zip(bounds, bounds[1:])]


def read_query(body: bytes, *, max_pairs: int | None = None) -> BatchQuery | None:
    """The compiled read of a canonical query body: the :class:`BatchQuery`
    that ``decode_query(json.loads(body), max_pairs=max_pairs)`` gives, or
    None to decline.

    It declines on the numpy backend, for every body that is not canonical
    (see the module docstring) and for every query :func:`decode_query`
    would refuse (an unknown op, an empty topology, more than
    ``max_pairs`` pairs), so that those take the Python decode and its
    error messages.
    """
    kern = _kernels.get_kernels()
    read = None if kern is None else kern.read_query(body, max_pairs)
    if read is None:
        return None
    op, topology, sources, targets = read
    if op not in QUERY_OPS or not topology:
        return None
    return BatchQuery(op=op, topology=topology, sources=sources, targets=targets)


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


def _per_hop(link) -> float:
    """The uncongested time of one hop: ``latency + transmission_time``
    (of the default :class:`~repro.simulation.network.LinkModel` when
    ``link`` is None)."""
    if link is None:
        return _default_per_hop()
    return float(link.latency + link.transmission_time)


@lru_cache(maxsize=1)
def _default_per_hop() -> float:
    from repro.simulation.network import LinkModel

    return _per_hop(LinkModel())


def answer_query(
    query: BatchQuery, router: Router, *, link=None, version: int | None = None
) -> dict:
    """Answer one decoded query against a router; returns the reply object,
    with :class:`ReplyArray` arrays (:class:`PathArrays` for ``paths``) in
    its :data:`ARRAY_FIELDS`.

    This is the single compute kernel the server's micro-batcher executes;
    everything in it is a router call.  The server has already refused
    out-of-range endpoints (:func:`check_range`) when it admitted the query.
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
        reply["hops"] = router.next_hops(query.sources, query.targets).view(ReplyArray)
    elif query.op == "eta":
        lengths = router.path_lengths(query.sources, query.targets)
        etas = np.where(lengths < 0, -1.0, lengths.astype(np.float64) * _per_hop(link))
        reply["lengths"] = lengths.view(ReplyArray)
        reply["etas"] = etas.view(ReplyArray)
    else:  # "path"
        reply["paths"] = PathArrays(*router.paths(query.sources, query.targets)[1:])
    return reply


def reply_as_lists(reply: dict) -> dict:
    """The JSON object a reply stands for: its arrays as lists."""
    return {
        key: value.tolist() if isinstance(value, (np.ndarray, PathArrays)) else value
        for key, value in reply.items()
    }


def encode_replies(replies: list[dict], *, link=None) -> list[bytes]:
    """The wire bytes of replies (of one op), each
    ``(json.dumps(reply_as_lists(reply)) + "\n").encode()``.

    On the compiled backend one ``write_replies`` call writes them all:
    every int exactly, and each ETA from a table of the ``json.dumps`` text
    of ``float(k) * per_hop`` per hop count ``k`` (``link`` as in
    :func:`answer_query`), which the C checks against the reply's own
    values bit for bit.  Replies it cannot write that way (another layout,
    dtype or value) take ``json.dumps``.
    """
    kern = _kernels.get_kernels()
    if kern is not None and replies:
        payloads = _write_compiled(kern, replies, link)
        if payloads is not None:
            return payloads
    return [(json.dumps(reply_as_lists(reply)) + "\n").encode() for reply in replies]


def _write_compiled(kern, replies: list[dict], link) -> list[bytes] | None:
    """:func:`encode_replies` by the C writer, or None when it cannot."""
    kind = None
    texts, pieces, runs = [], [], []
    for reply in replies:
        keys = tuple(reply)
        layout = _layout(keys)
        if layout is None or kind is not None and layout[0] != kind:
            return None
        kind, start, stop = layout
        values = tuple(reply.values())
        others = values[:start] + values[stop:]
        types = tuple(map(type, others))
        if _PLAIN_TYPES.issuperset(types):
            text, lengths = _FRAMES.get((keys, others, types)) or _remember_frame(
                keys, others, types
            )
        else:
            text, lengths = _frame(keys, others)
        texts.append(text)
        pieces += lengths
        runs.append(values[start:stop])
    text = b"".join(texts)
    if kind == 2:
        paths = [run[0] for run in runs]
        if not all(type(run) is PathArrays for run in paths) or any(
            run.vertices is not paths[0].vertices for run in paths
        ):
            return None
        offsets = _joined([run.offsets for run in paths], _INT64)
        vertices = _joined([paths[0].vertices], _INT64)
        if offsets is None or vertices is None:
            return None
        counts = [len(run) for run in paths]
        return kern.write_replies(2, counts, pieces, text, offsets, v=vertices)
    first = _joined([run[0] for run in runs], _INT64)  # hops or lengths
    if first is None:
        return None
    counts = [len(run[0]) for run in runs]
    if kind == 0:
        return kern.write_replies(0, counts, pieces, text, first)
    etas = _joined([run[1] for run in runs], _FLOAT64)
    if etas is None or counts != [len(run[1]) for run in runs]:
        return None
    longest = int(first.max()) if first.size else -1
    table = _eta_table(_per_hop(link), longest)
    return kern.write_replies(1, counts, pieces, text, first, etas=etas, table=table)


@lru_cache(maxsize=256)
def _layout(keys: tuple) -> tuple[int, int, int] | None:
    """``(kind, start, stop)`` of a reply with these keys: its array fields
    are the run ``keys[start:stop]``, the compiled writer's ``kind``; None
    for a reply whose array fields are not one such run."""
    at = [i for i, key in enumerate(keys) if key in _ARRAY_KEYS]
    kind = _WRITER_KINDS.get(keys[at[0] : at[-1] + 1]) if at else None
    return None if kind is None else (kind, at[0], at[-1] + 1)


def _frame(keys: tuple, others: tuple) -> tuple[bytes, tuple[int, ...]]:
    """The texts around a reply's arrays, end to end, and their lengths:
    the ``json.dumps`` text of the reply up to its first array, for an ETA
    reply the text between its two arrays, then the rest.  ``others`` are
    the values of its keys that are not array fields, in order."""
    _, start, stop = _layout(keys)
    head = json.dumps(dict(zip(keys[:start], others)))
    pieces = [f'{head[:-1]}{", " if start else ""}"{keys[start]}": ']
    if stop - start == 2:
        pieces.append(f', "{keys[start + 1]}": ')
    if stop < len(keys):
        tail = json.dumps(dict(zip(keys[stop:], others[start:])))
        pieces.append(f", {tail[1:]}\n")
    else:
        pieces.append("}\n")
    return "".join(pieces).encode(), tuple(map(len, pieces))


def _remember_frame(keys: tuple, others: tuple, types: tuple):
    """:func:`_frame`, kept in :data:`_FRAMES` under ``(keys, others,
    types)`` when its text is short.  ``others`` must all be of
    :data:`_PLAIN_TYPES`; ``types`` (theirs) is in the key since ``True ==
    1`` while their texts differ."""
    frame = _frame(keys, others)
    if len(frame[0]) <= _FRAME_BYTES:
        if len(_FRAMES) >= _FRAME_COUNT:
            _FRAMES.clear()
        _FRAMES[keys, others, types] = frame
    return frame


def _joined(arrays: list, dtype: np.dtype) -> np.ndarray | None:
    """The arrays end to end as one C-contiguous array, None unless each
    is a one-dimensional array of ``dtype``."""
    for array in arrays:
        if not isinstance(array, np.ndarray) or array.dtype != dtype or array.ndim != 1:
            return None
    if len(arrays) > 1:
        return np.concatenate(arrays)
    array = arrays[0]
    return array if array.flags.c_contiguous else np.ascontiguousarray(array)


@lru_cache(maxsize=64)
def _eta_table(per_hop: float, longest: int):
    """The compiled writer's ETA table up to hop count ``longest``: the
    ``json.dumps`` texts of ``-1.0`` (unreachable) and of ``float(k) *
    per_hop`` for ``k`` in ``0..longest``, and their values."""
    values = [-1.0] + [float(k) * per_hop for k in range(longest + 1)]
    texts = [json.dumps(value) for value in values]
    return _kernels.get_kernels("cnative").eta_table(texts, values)
