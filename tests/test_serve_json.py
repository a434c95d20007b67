"""The serve layer's JSON on the wire: the compiled query reader and reply
writer against the Python path they replace.

Two contracts, on both kernel backends:

* **Replies are byte-identical.**  Every reply the server writes is
  ``(json.dumps(reply_as_lists) + "\\n").encode()`` of the reply answered
  by direct router calls — every op, every router kind (the whole table,
  the closed form, the on-demand table, a wrapping router), 0 to 2048
  pairs, unreachable pairs, request ids and multi-query rounds, with the
  ``id`` key where the server has always put it.
* **The reader reads exactly what json.loads + decode_query read, or
  declines.**  Canonical bodies are read in C; every other body (escapes,
  non-ASCII, leading zeros, floats, ints past int64, duplicate keys, NaN,
  trailing bytes, truncation, ``id``, ``sources``/``targets``) is declined
  and takes the Python decode, so every 400 message is the Python one.
"""

import json
import socket
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.routing import routers
from repro.routing.routers import Router, make_router
from repro.serve import ProtocolError, RouterRegistry, ServerThread, build_graph, decode_query
from repro.serve import protocol
from repro.serve.protocol import (
    ARRAY_FIELDS,
    QUERY_OPS,
    BatchQuery,
    ReplyArray,
    answer_query,
    encode_replies,
    read_query,
    reply_as_lists,
)
from repro.serve.server import RouteQueryServer
from repro.simulation.network import LinkModel

BACKENDS = kernels.available_backends()
COMPILED = pytest.mark.skipif("cnative" not in BACKENDS, reason="no C compiler")

#: (spec, router kind): every kind on a strongly connected digraph, and the
#: table kinds on H(4,16,2), which is not (unreachable pairs).
ROUTER_CASES = [
    ("B(2,4)", "dense"),
    ("B(2,4)", "closed-form"),
    ("B(2,4)", "on-demand"),
    ("B(2,4)", "wrapping"),
    ("H(4,16,2)", "dense"),
    ("H(4,16,2)", "on-demand"),
    ("H(4,16,2)", "wrapping"),
]


class WrappingRouter(Router):
    """A router known only by another router's next hops."""

    kind = "wrapping"

    def __init__(self, inner):
        self.inner = inner

    def next_hops(self, sources, targets):
        return self.inner.next_hops(sources, targets)

    def num_vertices(self):
        return self.inner.num_vertices()


def serve_router(spec, kind):
    graph = build_graph(spec)
    if kind == "wrapping":
        return WrappingRouter(make_router(graph, "dense"))
    if kind == "on-demand":
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(routers, "TABLE_BUDGET_BYTES", 5 * graph.num_vertices * 3)
            return make_router(graph, "dense")
    return make_router(graph, kind)


def expected_reply(op, topology, version, sources, targets, query_id, router, single):
    """The reply as lists from direct router calls, keys in the server's
    order: a lone query's id before its arrays, a round's after them."""
    reply = {"ok": True, "op": op, "topology": topology, "count": len(sources), "version": version}
    if single and query_id is not None:
        reply["id"] = query_id
    if op == "next-hop":
        reply["hops"] = router.next_hops(sources, targets).tolist()
    elif op == "eta":
        lengths = router.path_lengths(sources, targets).tolist()
        per_hop = LinkModel().latency + LinkModel().transmission_time
        reply["lengths"] = lengths
        reply["etas"] = [-1.0 if k < 0 else float(k) * per_hop for k in lengths]
    else:
        lengths, offsets, vertices = Router.paths(router, sources, targets)
        reply["paths"] = [
            vertices[offsets[i] : offsets[i + 1]].tolist() if lengths[i] >= 0 else None
            for i in range(len(sources))
        ]
    if not single and query_id is not None:
        reply["id"] = query_id
    return reply


def wire(reply) -> bytes:
    return (json.dumps(reply) + "\n").encode()


#: Request ids: any JSON value, text with quotes, escapes and non-ASCII.
IDS = st.one_of(
    st.none(),
    st.integers(-(2**70), 2**70),
    st.text(max_size=6),
    st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.booleans(), max_size=2),
)
BUCKETS = st.lists(
    st.tuples(st.sampled_from([0, 1, 16, 2048]), st.integers(0, 2**32 - 1), IDS),
    min_size=1,
    max_size=3,
)


class TestRepliesAreByteIdentical:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("spec, kind", ROUTER_CASES)
    def test_every_reply_of_a_round_is_json_dumps_of_its_lists(self, spec, kind, backend):
        router = serve_router(spec, kind)
        n = router.num_vertices()
        server = RouteQueryServer(RouterRegistry())
        entry = SimpleNamespace(name="t", version=3, router=router)

        @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(st.sampled_from(QUERY_OPS), BUCKETS)
        def run(op, bucket):
            queries = []
            for size, seed, query_id in bucket:
                rng = np.random.default_rng(seed)
                sources, targets = rng.integers(n, size=(2, size))
                queries.append(BatchQuery(op, "t", sources, targets, id=query_id))
            payloads = server._run_batch(entry, queries)
            assert len(payloads) == len(queries)
            for query, payload in zip(queries, payloads):
                expected = expected_reply(
                    op, "t", 3, query.sources, query.targets, query.id, router,
                    single=len(queries) == 1,
                )
                assert payload == wire(expected)

        try:
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setenv(kernels.ENV_VAR, backend)
                run()
        finally:
            server._executor.shutdown()

    def test_unreachable_pairs_are_in_the_case_set(self):
        router = serve_router("H(4,16,2)", "dense")
        sources, targets = np.random.default_rng(0).integers(router.num_vertices(), size=(2, 64))
        assert np.any(router.path_lengths(sources, targets) < 0)

    @COMPILED
    @pytest.mark.parametrize("op", QUERY_OPS)
    def test_bytes_on_the_socket(self, op, monkeypatch):
        # the compiled reader and writer over a real connection: the body
        # after the headers is exactly the expected reply's JSON line
        monkeypatch.setenv(kernels.ENV_VAR, "cnative")
        registry = RouterRegistry()
        registry.add("b", "B(2,6)", "closed-form")
        entry = registry.get("b")
        rng = np.random.default_rng(1)
        sources, targets = rng.integers(64, size=(2, 300))
        pairs = np.stack([sources, targets], axis=1).tolist()
        with ServerThread(registry, reload_interval_s=0) as server:
            for body in (
                {"op": op, "topology": "b", "pairs": pairs},
                {"id": ["x", 1], "op": op, "topology": "b", "pairs": pairs[:5]},
            ):
                payload = json.dumps(body).encode()
                with socket.create_connection((server.host, server.port), timeout=30) as sock:
                    sock.sendall(
                        b"POST /v1/query HTTP/1.1\r\nConnection: close\r\n"
                        b"Content-Length: %d\r\n\r\n" % len(payload) + payload
                    )
                    response = b""
                    while chunk := sock.recv(65536):
                        response += chunk
                count = len(body["pairs"])
                expected = expected_reply(
                    op, "b", entry.version, sources[:count], targets[:count],
                    body.get("id"), entry.router, single=True,
                )
                head, _, got = response.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 OK")
                assert got == wire(expected)

    def test_encode_takes_json_dumps_for_a_layout_it_cannot_write(self):
        # lists in the array fields, or a field out of its run: json.dumps
        reply = {"ok": True, "hops": [1, 2], "count": 2}
        assert encode_replies([reply]) == [wire(reply)]
        reply = {"lengths": np.array([1]), "id": 4, "etas": np.array([2.0])}
        assert encode_replies([reply]) == [b'{"lengths": [1], "id": 4, "etas": [2.0]}\n']

    def test_etas_off_the_link_table_fall_back_to_json_dumps(self):
        # the C checks every eta against its table bit for bit
        reply = {"lengths": np.array([1, -1, 2]), "etas": np.array([0.1 + 0.2, -1.0, 7.0])}
        assert encode_replies([reply]) == [wire({"lengths": [1, -1, 2], "etas": [0.1 + 0.2, -1.0, 7.0]})]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equal_head_values_of_other_types_keep_their_own_text(self, backend, monkeypatch):
        # True == 1 == 1.0 and 0.0 == -0.0, but each has its own JSON text;
        # every value is written twice, so a remembered head is reused
        monkeypatch.setenv(kernels.ENV_VAR, backend)
        for query_id in (1, True, 1.0, 0, False, 0.0, -0.0, "1", None, [1], {"a": True}) * 2:
            reply = {"ok": True, "id": query_id, "count": 1, "hops": np.array([3])}
            assert encode_replies([reply]) == [wire(reply_as_lists(reply))]

    @COMPILED
    def test_remembered_frames_are_few_and_short(self, monkeypatch):
        # unique or long request ids cannot grow the writer's frame cache
        monkeypatch.setenv(kernels.ENV_VAR, "cnative")
        monkeypatch.setattr(protocol, "_FRAMES", {})
        monkeypatch.setattr(protocol, "_FRAME_COUNT", 4)
        for query_id in [*range(10), "x" * 1000]:
            reply = {"ok": True, "id": query_id, "hops": np.array([1])}
            assert encode_replies([reply]) == [wire(reply_as_lists(reply))]
            assert len(protocol._FRAMES) <= 4
        assert protocol._FRAMES
        assert all(len(text) <= protocol._FRAME_BYTES for text, _ in protocol._FRAMES.values())


class TestReplyArrays:
    @pytest.mark.parametrize("op", QUERY_OPS)
    def test_array_fields_are_true_when_they_hold_pairs(self, op):
        # as the lists they stand for: a caller may test a field for truth
        router = serve_router("B(2,4)", "closed-form")
        for size in (0, 1, 16):
            sources = np.arange(size) % 16
            reply = answer_query(BatchQuery(op, "t", sources, sources[::-1].copy()), router)
            for field in ARRAY_FIELDS:
                if field in reply:
                    assert bool(reply[field]) == (size > 0)

    def test_what_a_ufunc_computes_from_them_has_numpy_truth(self):
        # only the field itself is list-like: comparing it is not vacuous
        hops = ReplyArray((2,), dtype=np.int64, buffer=np.array([3, 4]))
        assert type(hops == [3, 5]) is np.ndarray and type(hops + 1) is np.ndarray
        assert not (hops[:1] == [5])
        assert type(hops[1:]) is ReplyArray and bool(hops[2:]) is False
        with pytest.raises(ValueError):
            bool(hops == [3, 5])
        assert hops.max() == 4 and type(hops.sum()) is np.int64

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_changed_answer_is_what_goes_on_the_wire(self, backend, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, backend)
        router = serve_router("B(2,4)", "closed-form")
        sources = np.arange(16)
        reply = answer_query(BatchQuery("next-hop", "t", sources, sources[::-1].copy()), router)
        if reply["hops"]:
            reply["hops"][0] = (reply["hops"][0] + 1) % 16
        expected = reply_as_lists(reply)
        assert expected["hops"][0] == (router.next_hops([0], [15])[0] + 1) % 16
        assert encode_replies([reply]) == [wire(expected)]


# ------------------------------------------------------------------ reader
def python_read(body: bytes, max_pairs):
    """What the server read before the compiled reader: the BatchQuery of
    json.loads + decode_query, or the message of the 400 they give."""
    try:
        obj = json.loads(body)
    except ValueError as error:
        return f"request body is not JSON: {error}"
    try:
        return decode_query(obj, max_pairs=max_pairs)
    except ProtocolError as error:
        return str(error)


INTS = st.one_of(st.integers(-20, 300), st.integers(-(10**18) + 1, 10**18 - 1))
PLAIN = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7F, blacklist_characters='"\\'),
    max_size=8,
)
WHITESPACE = st.sampled_from(["", " ", "\n", "\t", "\r\n  "])


@st.composite
def canonical_bodies(draw):
    """``(body, parts)``: a canonical query body and its parts, keys in any
    order, any JSON whitespace between tokens."""
    ws = lambda: draw(WHITESPACE)  # noqa: E731
    op = draw(st.sampled_from(QUERY_OPS + ("teleport", "")))
    topology = draw(PLAIN)
    pairs = draw(st.lists(st.tuples(INTS, INTS), max_size=5))
    rendered = "[" + ws() + ("," + ws()).join(
        f"[{ws()}{s}{ws()},{ws()}{t}{ws()}]" for s, t in pairs
    ) + ws() + "]"
    fields = {"op": f'"{op}"', "topology": f'"{topology}"', "pairs": rendered}
    order = draw(st.permutations(list(fields)))
    body = (
        ws() + "{" + ws()
        + ("," + ws()).join(f'"{key}"{ws()}:{ws()}{fields[key]}{ws()}' for key in order)
        + "}" + ws()
    )
    return body, {"op": op, "topology": topology, "pairs": pairs, "order": order}


def mutate(body: str, parts: dict, kind: str, data) -> str:
    """One way a body stops being canonical (it may stay valid JSON)."""
    pairs = json.dumps([list(pair) for pair in parts["pairs"]])
    if kind == "escape":
        return body.replace(f'"{parts["op"]}"', '"' + "".join(f"\\u{ord(c):04x}" for c in parts["op"]) + '"', 1)
    if kind == "non-ascii":
        return body.replace('"topology"', '"topology": "té", "x"', 1)
    if kind == "leading zero":
        return body.replace("[", "[0", 2)
    if kind == "float":
        return body.replace("]", ".0]", 1) if parts["pairs"] else body.replace("[]", "[[1.0, 2]]", 1)
    if kind == "big int":
        return body.replace('"pairs"', f'"pairs": [[{data.draw(st.sampled_from([2**63, 10**19, -(2**63) - 1]))}, 0]], "x"', 1)
    if kind == "duplicate key":
        return body.replace("{", '{"op": "eta", ', 1)
    if kind == "nan":
        return body.replace('"pairs"', '"pairs": [[NaN, 1]], "y"', 1)
    if kind == "trailing":
        return body + data.draw(st.sampled_from(["x", "}", ",", "[]", "0"]))
    if kind == "truncation":
        return body[: data.draw(st.integers(0, max(len(body) - 1, 0)))]
    if kind == "id":
        return body.replace("{", '{"id": %s, ' % json.dumps(data.draw(IDS)), 1)
    if kind == "sources/targets":
        sources = [s for s, _ in parts["pairs"]]
        targets = [t for _, t in parts["pairs"]]
        return body.replace('"pairs"', f'"sources": {sources}, "targets": {targets}, "z"', 1)
    raise AssertionError(kind)


MUTATIONS = [
    "escape", "non-ascii", "leading zero", "float", "big int", "duplicate key",
    "nan", "trailing", "truncation", "id", "sources/targets",
]


def assert_read_or_declined(body: bytes, max_pairs) -> BatchQuery | None:
    got = read_query(body, max_pairs=max_pairs)
    if got is None:
        return None
    expected = python_read(body, max_pairs)
    assert isinstance(expected, BatchQuery), expected
    assert (got.op, got.topology, got.id) == (expected.op, expected.topology, expected.id)
    for have, want in ((got.sources, expected.sources), (got.targets, expected.targets)):
        assert have.dtype == np.int64 and have.ndim == 1 and have.flags.c_contiguous
        assert have.tobytes() == want.tobytes()
    return got


@COMPILED
class TestCompiledReader:
    @pytest.fixture(autouse=True)
    def compiled(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "cnative")

    @settings(max_examples=400, deadline=None)
    @given(canonical_bodies(), st.sampled_from([None, 3]))
    def test_canonical_bodies_are_read_as_decode_query_reads_them(self, case, max_pairs):
        body, parts = case
        got = assert_read_or_declined(body.encode(), max_pairs)
        accepted = parts["op"] in QUERY_OPS and parts["topology"] and (
            max_pairs is None or len(parts["pairs"]) <= max_pairs
        )
        assert (got is not None) == bool(accepted)

    @settings(max_examples=800, deadline=None)
    @given(canonical_bodies(), st.sampled_from(MUTATIONS), st.data())
    def test_mutated_bodies_are_read_exactly_or_declined(self, case, kind, data):
        body, parts = case
        mutated = mutate(body, parts, kind, data)
        got = assert_read_or_declined(mutated.encode(), None)
        if kind in ("escape", "non-ascii", "big int", "duplicate key", "nan", "id", "sources/targets"):
            assert got is None

    def test_the_pair_buffer_holds_at_most_max_pairs(self):
        # the C declines at pair max_pairs + 1 and never reserves room past it
        kern = kernels.get_kernels()
        body = b'{"op": "eta", "topology": "t", "pairs": [%s]}' % b", ".join([b"[0, 1]"] * 50)
        _, _, sources, targets = kern.read_query(body, 50)
        assert sources.size == targets.size == 50 and sources.base.size == 4 + 2 * 50
        assert kern.read_query(body, 49) is None
        assert kern.read_query(body, 0) is None
        assert kern.read_query(b'{"op": "eta", "topology": "t", "pairs": []}', 0)[2].size == 0

    def test_bytes_that_are_not_utf8_or_not_bytes_are_declined(self):
        assert read_query(b'{"op": "eta", "topology": "\xff", "pairs": []}') is None
        assert read_query('{"op": "eta", "topology": "t", "pairs": []}') is None
        assert read_query(b"") is None

    def test_400_messages_over_http_are_the_python_decode_messages(self):
        registry = RouterRegistry()
        registry.add("t", "B(2,3)", "closed-form")
        bodies = [
            b'{"op": "teleport", "topology": "t", "pairs": [[0, 1]]}',
            b'{"op": "eta", "topology": "", "pairs": [[0, 1]]}',
            b'{"op": "eta", "topology": "t", "pairs": [[0, 1], [1, 2], [2, 3]]}',
            b'{"op": "eta", "topology": "t", "pairs": [[0, 99999999999999999999]]}',
            b'{"op": "eta", "topology": "t", "pairs": [[0, NaN]]}',
            b'{"op": "eta", "topology": "t", "pairs": [[0, 1]]} trailing',
            b'{"op": "eta", "topology": "t", "pairs": [[0, 1]',
            b'{"op": "eta", "topology": "t", "pairs": [[0, 1, 2]]}',
        ]
        with ServerThread(registry, reload_interval_s=0, max_pairs=2) as server:
            for body in bodies:
                expected = python_read(body, 2)
                assert isinstance(expected, str)
                with socket.create_connection((server.host, server.port), timeout=30) as sock:
                    sock.sendall(
                        b"POST /v1/query HTTP/1.1\r\nConnection: close\r\n"
                        b"Content-Length: %d\r\n\r\n" % len(body) + body
                    )
                    response = b""
                    while chunk := sock.recv(65536):
                        response += chunk
                head, _, reply = response.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400")
                assert json.loads(reply) == {"ok": False, "error": expected}


@COMPILED
def test_the_writer_declines_counts_and_offsets_past_its_arrays(monkeypatch):
    # the C checks every count, path offset and text piece against the
    # lengths it was given, and declines instead of reading past them
    monkeypatch.setenv(kernels.ENV_VAR, "cnative")
    kern = kernels.get_kernels()
    text = b'{"hops": }\n'
    hops = np.array([3, 4, 5])
    assert kern.write_replies(0, [3], [9, 2], text, hops) == [b'{"hops": [3, 4, 5]}\n']
    assert kern.write_replies(0, [4], [9, 2], text, hops) is None
    assert kern.write_replies(0, [2, 2], [9, 2, 9, 2], text * 2, hops) is None
    assert kern.write_replies(0, [3], [9, 3], text, hops) is None
    path = b'{"paths": }\n'
    vertices = np.array([0, 1, 2])
    assert kern.write_replies(2, [1], [10, 2], path, np.array([0, 3]), v=vertices) == [
        b'{"paths": [[0, 1, 2]]}\n'
    ]
    assert kern.write_replies(2, [1], [10, 2], path, np.array([1, 4]), v=vertices) is None
    assert kern.write_replies(2, [1], [10, 2], path, np.array([-1, 2]), v=vertices) is None
    assert kern.write_replies(2, [1], [10, 2], path, np.array([2, 2]), v=vertices) == [
        b'{"paths": [null]}\n'
    ]


def test_numpy_backend_declines_every_body(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    assert read_query(b'{"op": "eta", "topology": "t", "pairs": [[0, 1]]}') is None


@COMPILED
@pytest.mark.parametrize("op", QUERY_OPS)
def test_a_round_of_server_replies_takes_one_compiled_write(op, monkeypatch):
    # the byte-identity tests above cannot tell the C writer from its
    # json.dumps fallback: pin that a round's replies take one C call
    monkeypatch.setenv(kernels.ENV_VAR, "cnative")
    kern = kernels.get_kernels()
    calls = []
    real = kern.write_replies

    def recorded(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(kern, "write_replies", recorded)
    router = serve_router("H(4,16,2)", "dense")
    server = RouteQueryServer(RouterRegistry())
    try:
        queries = [
            BatchQuery(op, "t", np.arange(5), np.arange(5)[::-1].copy(), id=query_id)
            for query_id in (None, "a", 7)
        ]
        entry = SimpleNamespace(name="t", version=1, router=router)
        assert len(server._run_batch(entry, queries)) == 3
        assert len(server._run_batch(entry, queries[1:2])) == 1
    finally:
        server._executor.shutdown()
    assert len(calls) == 2 and all(payloads is not None for payloads in calls)
