"""Regenerate ``perfbench/expected.json``, the outputs the benchmark checks.

Run from the repository root after a change that is meant to change results
(new traffic generators, a new scenario semantics)::

    python3 perfbench/make_expected.py

* ``table1``: every row of the serial search for D = 8, 9, 10 over the
  printed ranges, checked here against the rows the paper prints;
* ``sim_saturation`` / ``sim_degraded``: for every size and every traffic
  seed of the pool, the digest of ``NetworkStats`` and all message records
  produced by the ``kernels="numpy"`` reference engine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import (  # noqa: E402
    EXPECTED_PATH,
    SIZES,
    degraded_scenario,
    pool_seed,
    sim_digest,
    spec_key,
)


def table1_rows() -> dict:
    from repro.otis.search import compare_with_paper, table1_rows

    blocks = {}
    for diameter, (n_min, n_max) in SIZES["full"]["table1"].items():
        result = table1_rows(diameter, n_min=n_min, n_max=n_max)
        if not compare_with_paper(result)["all_match"]:
            raise SystemExit(f"D={diameter}: search disagrees with the paper")
        blocks[str(diameter)] = [[n, [list(s) for s in splits]] for n, splits in result.rows]
    return blocks


def saturation_digests(size: str) -> tuple[str, dict]:
    from repro.otis.h_digraph import h_digraph
    from repro.simulation import BatchedNetworkSimulator, make_workload

    spec = SIZES[size]["saturation"]
    graph = h_digraph(*spec["split"], 2)
    sim = BatchedNetworkSimulator(graph, kernels="numpy")
    digests = {}
    for kind in ("uniform", "hotspot"):
        digests[kind] = []
        for slot in range(SIZES[size]["pool"]):
            traffic = make_workload(kind, graph.num_vertices, spec[kind], rng=pool_seed(slot))
            digests[kind].append(sim_digest(*sim.run(traffic)))
    return spec_key(spec), digests


def degraded_digests(size: str) -> tuple[str, list]:
    from repro.otis.h_digraph import h_digraph
    from repro.simulation import BatchedNetworkSimulator

    spec = SIZES[size]["degraded"]
    graph = h_digraph(*spec["split"], 2)
    scenario = degraded_scenario(graph, spec)
    sim = BatchedNetworkSimulator(graph, scenario=scenario, kernels="numpy")
    digests = []
    for slot in range(SIZES[size]["pool"]):
        traffic = scenario.traffic(graph.num_vertices, pool_seed(slot))
        digests.append(sim_digest(*sim.run(traffic)))
    return spec_key(spec), digests


def main() -> int:
    expected = {"table1": table1_rows(), "sim_saturation": {}, "sim_degraded": {}}
    for size in SIZES:
        key, digests = saturation_digests(size)
        expected["sim_saturation"][key] = digests
        key, digests = degraded_digests(size)
        expected["sim_degraded"][key] = digests
        print(f"{size}: done", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
