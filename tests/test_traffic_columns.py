"""The columnar traffic path: generators return ``Traffic``.

Traffic generators return a :class:`~repro.simulation.network.Traffic` (three
read-only columns the batched engine reads directly).  It must behave as the
list of triples it replaced: same iteration, same equality, same traffic
digests (pinned below), same engine records.
"""

import math
import pickle

import numpy as np
import pytest

from repro.graphs.generators import de_bruijn
from repro.simulation.network import (
    BatchedNetworkSimulator,
    BufferedLinkModel,
    LinkModel,
    NetworkSimulator,
    Traffic,
    _pool_traffics,
)
from repro.simulation.scenarios import (
    FaultEvent,
    FaultPlan,
    HotspotArrivals,
    Scenario,
    UniformArrivals,
    make_arrivals,
    validate_traffic,
)
from repro.simulation.sharding import traffic_digest
from repro.simulation.workloads import (
    all_to_all_pairs,
    broadcast_pairs,
    hotspot_pairs,
    SWEEP_WORKLOADS,
    make_workload,
    permutation_pairs,
    uniform_random_pairs,
)

#: Every generator, with the digest its output had as a list of triples.
GENERATORS = {
    "uniform": (lambda: uniform_random_pairs(64, 200, rng=7), "e0478975fef2c1e8"),
    "uniform-rate": (
        lambda: uniform_random_pairs(64, 200, rng=7, rate=1.5),
        "555ccb1da9995846",
    ),
    "permutation": (lambda: permutation_pairs(64, rng=7), "a591815e3ad656b2"),
    "hotspot": (
        lambda: hotspot_pairs(64, 200, hotspot=5, hotspot_fraction=0.3, rng=7),
        "adeb948e4edb6170",
    ),
    "broadcast": (lambda: broadcast_pairs(64, root=3), "09833f43cc782fb8"),
    "all-to-all": (lambda: all_to_all_pairs(9), "211a2d918aad83a4"),
    "make-uniform": (
        lambda: make_workload("uniform", 64, 200, rng=7, rate=2.0),
        "582492492ce3b22c",
    ),
    "make-hotspot": (
        lambda: make_workload("hotspot", 64, 200, rng=7, rate=2.0),
        "fd7bed18c69b8459",
    ),
    "make-permutation": (
        lambda: make_workload("permutation", 64, 200, rng=7, rate=2.0),
        "7b6f730b4e9685ec",
    ),
    "make-bursty": (
        lambda: make_workload("bursty", 64, 200, rng=7, rate=2.0),
        "477e5e99ef8e10a3",
    ),
    "make-diurnal": (
        lambda: make_workload("diurnal", 64, 200, rng=7),
        "8107b4f8537e39bd",
    ),
    "hotspot-arrivals": (
        lambda: HotspotArrivals(200, hotspot=3, rate=1.0).traffic(64, rng=7),
        "73c08b418bde8a90",
    ),
    "empty": (lambda: uniform_random_pairs(64, 0, rng=7), "e3b0c44298fc1c14"),
}


#: ``make_workload(kind, 64, 200, rng=7, rate=rate, hotspot=5,
#: hotspot_fraction=0.3)`` digests, pinned from its generator if-chain.
WORKLOAD_DIGESTS = {
    ("uniform", None): "e0478975fef2c1e8",
    ("uniform", 3.0): "7ec3b0a6017a925c",
    ("hotspot", None): "adeb948e4edb6170",
    ("hotspot", 3.0): "d6dab8749e87babb",
    ("permutation", None): "a591815e3ad656b2",
    ("permutation", 3.0): "67be0aeae1404108",
    ("bursty", None): "1949bd4b6c3df77e",
    ("bursty", 3.0): "402dd87f192eff76",
    ("diurnal", None): "8107b4f8537e39bd",
    ("diurnal", 3.0): "1601fc63b86c12dc",
}


@pytest.mark.parametrize("kind, rate", list(WORKLOAD_DIGESTS))
def test_make_workload_is_the_arrival_process_traffic(kind, rate):
    workload = make_workload(
        kind, 64, 200, rng=7, rate=rate, hotspot=5, hotspot_fraction=0.3
    )
    params = {} if kind == "permutation" else {"num_messages": 200}
    if kind == "hotspot":
        params.update(hotspot=5, hotspot_fraction=0.3)
    arrivals = make_arrivals(kind, **params).with_rate(rate).traffic(64, rng=7)
    assert traffic_digest(workload) == traffic_digest(arrivals)
    assert traffic_digest(workload) == WORKLOAD_DIGESTS[kind, rate]
    assert {kind for kind, _ in WORKLOAD_DIGESTS} == set(SWEEP_WORKLOADS)


# -------------------------------------------------------------------- Traffic
@pytest.mark.parametrize("name", list(GENERATORS))
def test_generator_digests_are_unchanged(name):
    generate, digest = GENERATORS[name]
    traffic = generate()
    assert isinstance(traffic, Traffic)
    as_list = list(traffic)
    assert traffic_digest(traffic) == traffic_digest(as_list) == digest
    assert np.asarray(traffic).dtype == np.float64
    assert np.asarray(traffic).shape == (len(as_list), 3)


@pytest.mark.parametrize("name", list(GENERATORS))
def test_traffic_iterates_as_python_triples(name):
    traffic = GENERATORS[name][0]()
    triples = list(traffic)
    assert len(traffic) == len(triples)
    assert all(
        type(s) is int and type(d) is int and type(t) is float for s, d, t in triples
    )
    assert traffic == triples and triples == traffic
    assert traffic == tuple(triples)
    assert traffic == GENERATORS[name][0]()  # Traffic == Traffic
    if triples:
        assert traffic[0] == triples[0] and traffic[-1] == triples[-1]
        assert traffic != triples[:-1]
        changed = list(triples)
        changed[-1] = (changed[-1][0], changed[-1][1], changed[-1][2] + 1.0)
        assert traffic != changed


def test_traffic_indexing_slicing_and_freezing():
    traffic = uniform_random_pairs(16, 10, rng=1, rate=2.0)
    triples = list(traffic)
    head = traffic[2:5]
    assert isinstance(head, Traffic) and head == triples[2:5]
    assert traffic[::-1] == triples[::-1]
    assert traffic[-3] == triples[-3]
    with pytest.raises(IndexError):
        traffic[10]
    with pytest.raises(ValueError):
        traffic.src[0] = 3  # the columns are read-only
    assert traffic.src.dtype == traffic.dst.dtype == np.int64
    assert traffic.t.dtype == np.float64
    assert traffic != 5 and traffic != "abc"
    with pytest.raises(TypeError):
        hash(traffic)


def _columns(triples) -> Traffic:
    """A non-empty list of triples as a ``Traffic``."""
    return Traffic(*zip(*triples))


def test_traffic_construction():
    src = np.array([0, 1, 2])
    traffic = Traffic(src, [1, 2, 0], [0.0, 0.5, 1.0])
    assert traffic == [(0, 1, 0.0), (1, 2, 0.5), (2, 0, 1.0)]
    digest = traffic_digest(traffic)
    src[0] = 2  # the caller keeps its own array writeable ...
    assert src.flags.writeable
    # ... and writing to it does not change the traffic or its digest
    assert traffic == [(0, 1, 0.0), (1, 2, 0.5), (2, 0, 1.0)]
    assert traffic_digest(traffic) == digest
    with pytest.raises(ValueError, match="one length"):
        Traffic([0, 1], [1], [0.0, 0.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        Traffic([[0, 1]], [[1, 0]], [[0.0, 0.0]])
    assert _columns([(3, 4, 2.5)]) == [(3, 4, 2.5)]
    times = np.array([1.0, 2.0, 3.0])
    timed = traffic.with_times(times)
    times[0] = 9.0
    assert list(timed) == [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]
    assert traffic == [(0, 1, 0.0), (1, 2, 0.5), (2, 0, 1.0)]


def test_traffic_pickles_read_only():
    traffic = uniform_random_pairs(16, 10, rng=1, rate=2.0)
    loaded = pickle.loads(pickle.dumps(traffic))
    assert isinstance(loaded, Traffic) and loaded == traffic
    for column in (loaded.src, loaded.dst, loaded.t):
        assert not column.flags.writeable
    assert traffic_digest(loaded) == traffic_digest(traffic)


def test_pooling_takes_the_columns_as_lists_would():
    traffics = [uniform_random_pairs(16, 30, rng=seed, rate=1.0) for seed in range(3)]
    columnar = _pool_traffics(traffics, 16)
    listed = _pool_traffics([list(traffic) for traffic in traffics], 16)
    for got, ref in zip(columnar, listed):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "traffic, message",
    [
        ([(0, 1, 0.0), (0, 16, 0.0)], "message 1 has endpoints out of range"),
        ([(0, 1, 0.0), (-1, 2, 0.0)], "message 1 has endpoints out of range"),
        ([(0, 1, 0.0), (0, 1, -1.0)], "message 1 has invalid release time -1.0"),
        ([(0, 1, math.nan)], "message 0 has invalid release time nan"),
        ([(0, 1, math.inf)], "message 0 has invalid release time inf"),
        ([(0, 1, 0.0), (0, 99, -1.0)], "message 1 has invalid release time -1.0"),
    ],
)
def test_columnar_checks_give_the_list_errors(traffic, message):
    columns = _columns(traffic)
    for given in (traffic, columns):
        with pytest.raises(ValueError, match=message):
            _pool_traffics([given], 16)
        with pytest.raises(ValueError, match=message):
            validate_traffic(given, 16)
        with pytest.raises(ValueError, match=message):
            BatchedNetworkSimulator(de_bruijn(2, 4)).run(given)
        with pytest.raises(ValueError, match=message):
            NetworkSimulator(de_bruijn(2, 4)).run(given)


@pytest.mark.parametrize(
    "traffic, message",
    [
        (
            [(0, 1), (0, 1, 0.0)],
            r"message 0 is not a \(source, destination, time\) triple",
        ),
        ([(0, 1, 0.0), (0, 1, 0.0, 5)], "message 1 is not a .* triple"),
        ([(0, 1, -1.0), (0, 1)], "message 0 has invalid release time -1.0"),
    ],
    ids=["ragged", "four-tuple", "time-before-ragged"],
)
def test_engines_and_validator_name_the_first_non_triple(traffic, message):
    # one validator behind all three front-ends: ragged input never reaches
    # numpy's "setting an array element with a sequence" error
    front_ends = (
        lambda given: validate_traffic(given, 16),
        NetworkSimulator(de_bruijn(2, 4)).run,
        BatchedNetworkSimulator(de_bruijn(2, 4)).run,
    )
    for run in front_ends:
        with pytest.raises(ValueError, match=message):
            run(traffic)


def test_validate_traffic_returns_traffic():
    triples = [(0, 1, 0.5), (2, 3, 1.0)]
    checked = validate_traffic(triples, 4)
    assert isinstance(checked, Traffic) and checked == triples
    assert validate_traffic(checked, 4) is checked
    assert validate_traffic([(np.int64(1), 2.0, 3)]) == [(1, 2, 3.0)]
    arrivals = UniformArrivals(20, rate=1.0)
    assert isinstance(Scenario(arrivals=arrivals).traffic(8, rng=1), Traffic)


# ------------------------------------------------------------------- records
GRAPH = de_bruijn(2, 4)
LINK = LinkModel(latency=1.0, transmission_time=1.0)


def test_messages_equal_the_reference_list():
    traffic = uniform_random_pairs(GRAPH.num_vertices, 80, rng=3, rate=2.0)
    ref_stats, reference = NetworkSimulator(GRAPH, link=LINK).run(traffic)
    stats, messages = BatchedNetworkSimulator(GRAPH, link=LINK).run(traffic)
    assert stats == ref_stats and ref_stats.delivered == 80
    assert messages == reference


def test_scenario_messages_match_the_reference():
    scenario = Scenario(
        arrivals=UniformArrivals(60),
        link=BufferedLinkModel(capacity=1),
        faults=FaultPlan((FaultEvent(0.0, "node_down", 5),)),
        max_hops=3,
    )
    traffic = scenario.traffic(GRAPH.num_vertices, rng=2)
    ref_stats, reference = NetworkSimulator(GRAPH, scenario=scenario).run(traffic)
    stats, messages = BatchedNetworkSimulator(GRAPH, scenario=scenario).run(traffic)
    assert stats == ref_stats
    reasons = {m.drop_reason for m in messages}
    assert {"fault", "buffer"} <= reasons
    assert [m.drop_reason for m in messages] == [m.drop_reason for m in reference]
    assert [(m.source, m.destination, m.hops) for m in messages] == [
        (m.source, m.destination, m.hops) for m in reference
    ]


def test_run_many_without_messages():
    traffic = uniform_random_pairs(GRAPH.num_vertices, 10, rng=5)
    ((_, messages),) = BatchedNetworkSimulator(GRAPH).run_many(
        [traffic], return_messages=False
    )
    assert messages is None


def test_validate_traffic_reports_the_first_bad_message():
    # release time before endpoints within a message, earliest message first
    triples = [(0, 1, 0.0), (0, 99, -1.0), (0, 99, 0.0)]
    for given in (triples, _columns(triples)):
        with pytest.raises(ValueError, match="message 1 has invalid release time"):
            validate_traffic(given, 16)
    triples = [(0, 1, 0.0), (0, 99, 0.0), (0, 1, -1.0)]
    for given in (triples, _columns(triples)):
        with pytest.raises(ValueError, match="message 1 has endpoints out of range"):
            validate_traffic(given, 16)
