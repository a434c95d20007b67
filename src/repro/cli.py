"""Command-line interface: ``python -m repro <command>``.

Exposes the reproduction's main entry points without writing any Python:

* ``layout``  — compute the lens-optimal OTIS layout of ``B(d, D)``
  (Corollaries 4.4 / 4.6) and optionally dump the node→transceiver table,
* ``check``   — the O(D) isomorphism test of Corollary 4.5 for a given split,
* ``splits``  — the whole design space of splits for one diameter,
* ``table1``  — regenerate a block of Table 1 and compare with the paper,
* ``figure``  — emit a DOT rendering of one of the paper's figure digraphs,
* ``sim``     — throughput/latency sweep of workloads on ``H(p, q, d)`` with
  the batched network simulator.  ``--router`` selects the routing backend
  (``auto``/``dense``/``closed-form``); ``fleet sim`` runs the
  same study as resumable chunks,
* ``scenarios`` — degraded-mode scenario sweeps on ``H(p, q, d)``
  (:mod:`repro.simulation.scenarios`): compose an arrival process
  (``--arrival uniform|hotspot|permutation|bursty|diurnal``), finite link
  buffers (``--capacity``/``--on-full``), a deterministic fault plan
  (``--fail-links``/``--fail-at``/``--heal-after``) and a reroute policy
  (``--reroute arc-disjoint``: deflect onto the alternate arc-disjoint
  paths), sweep the offered-load axis and print throughput–latency rows
  with drop/retransmit/reroute counters and Pareto-front flags
  (``--json`` merges them into e.g. ``BENCH_scenarios.json``),
* ``serve``   — the async batch route-query service (:mod:`repro.serve`):
  ``serve run`` starts an asyncio HTTP server answering batch next-hop /
  full-path / ETA queries from a named-topology router registry (with hot
  reload of a ``--specs`` file), ``serve bench`` replays a
  simulator-generated workload against a running (or ``--self-host``-ed)
  server and merges throughput + tail latency into ``BENCH_serve.json``,
  and ``serve stats`` / ``repro serve --stats`` print a running server's
  metrics snapshot,
* ``fleet``   — the one way to run a chunk store (:mod:`repro.fleet`):
  workers **auto-assign** degree–diameter sweep chunks
  (:mod:`repro.otis.sweep`) or replica-simulation chunks
  (:mod:`repro.simulation.sharding`) through atomic TTL leases on a shared
  out-dir; crashed workers' chunks are reclaimed and a relaunch skips every
  published chunk.  ``fleet sweep ...`` / ``fleet sim ...`` start a worker
  (start N of them on one out-dir to run in parallel), ``--watch`` tails a
  live progress/heartbeat snapshot, ``fleet status --out-dir ...`` prints a
  one-shot snapshot of any fleet's store (``--json`` for the
  machine-readable schema), ``--merge`` folds the completed store
  (``fleet sweep --merge --partial`` reports progress over an incomplete
  one; ``--cache-dir`` memoises split verdicts across runs), and ``fleet
  --smoke`` runs a seconds-long end-to-end claim → run → reclaim → merge
  exercise of both backends.

Each subcommand prints plain text to stdout and exits non-zero on failure, so
the CLI can be scripted.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import format_table, merge_bench_json
from repro.core.checks import enumerate_layout_splits, is_otis_layout_of_de_bruijn
from repro.graphs.drawing import adjacency_listing, otis_wiring_dot, to_dot
from repro.graphs.generators import de_bruijn, imase_itoh, reddy_raghavan_kuhl
from repro.otis.layout import optimal_debruijn_layout
from repro.otis.search import PAPER_TABLE1, compare_with_paper, table1_rows
from repro.version import __version__

__all__ = ["main", "build_parser"]


class _VersionAction(argparse.Action):
    """``--version`` with kernel-backend diagnostics.

    Lazy on purpose: probing the backends may compile the C kernels, which
    must never happen at parser-build time.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "show version and kernel backend diagnostics")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro import kernels

        print(f"repro {__version__}")
        print(kernels.diagnostics())
        parser.exit()


def _active_kernel_backend() -> str:
    """The kernel backend sweeps run on (lazy: probing may compile)."""
    from repro import kernels

    return kernels.active_backend()


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="De Bruijn isomorphisms and free space optical networks "
        "(IPDPS 2000) — reproduction CLI",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    layout = sub.add_parser("layout", help="optimal OTIS layout of B(d, D)")
    layout.add_argument("-d", type=int, default=2, help="degree (alphabet size)")
    layout.add_argument("-D", type=int, required=True, help="diameter (word length)")
    layout.add_argument(
        "--assignments",
        action="store_true",
        help="also print the per-processor transceiver assignment",
    )

    check = sub.add_parser("check", help="O(D) layout test (Corollary 4.5)")
    check.add_argument("-d", type=int, default=2)
    check.add_argument("--p-prime", type=int, required=True)
    check.add_argument("--q-prime", type=int, required=True)

    splits = sub.add_parser("splits", help="all splits for one diameter")
    splits.add_argument("-d", type=int, default=2)
    splits.add_argument("-D", type=int, required=True)

    table = sub.add_parser("table1", help="regenerate a Table 1 block")
    table.add_argument("diameter", type=int, choices=sorted(PAPER_TABLE1))
    table.add_argument(
        "--full", action="store_true", help="full sweep instead of printed rows only"
    )

    figure = sub.add_parser("figure", help="emit a figure digraph as DOT / text")
    figure.add_argument(
        "which",
        choices=["1", "2", "3", "5", "6", "7", "8"],
        help="paper figure number",
    )
    figure.add_argument(
        "--format", choices=["dot", "text"], default="dot", help="output format"
    )

    sim = sub.add_parser(
        "sim", help="batched throughput/latency sweep on H(p, q, d)"
    )
    sim.add_argument("-p", type=int, required=True, help="OTIS parameter p")
    sim.add_argument("-q", type=int, required=True, help="OTIS parameter q")
    sim.add_argument("-d", type=int, default=2, help="transceivers per node")
    sim.add_argument(
        "--messages", type=int, default=2000, help="messages per workload instance"
    )
    sim.add_argument(
        "--seeds", type=int, default=3, help="seeds per (workload, rate) point"
    )
    sim.add_argument(
        "--workloads",
        nargs="+",
        default=["uniform"],
        choices=["uniform", "hotspot", "permutation", "bursty", "diurnal"],
        help="workload kinds to sweep",
    )
    sim.add_argument(
        "--rates",
        nargs="*",
        type=float,
        default=None,
        help="Poisson injection rates (omit for inject-everything-at-time-0)",
    )
    sim.add_argument(
        "--router",
        choices=["auto", "dense", "closed-form"],
        default="auto",
        help="routing backend (auto: dense table for small n, table-free above)",
    )
    sim.add_argument(
        "--json",
        metavar="PATH",
        help="merge the sweep result into a JSON file (e.g. BENCH_sim.json)",
    )
    scenarios = sub.add_parser(
        "scenarios",
        help="degraded-mode scenario sweep on H(p, q, d): arrivals x "
        "buffers x faults x rerouting, with Pareto-front curves",
    )
    scenarios.add_argument("-p", type=int, required=True, help="OTIS parameter p")
    scenarios.add_argument("-q", type=int, required=True, help="OTIS parameter q")
    scenarios.add_argument("-d", type=int, default=2, help="transceivers per node")
    scenarios.add_argument(
        "--arrival",
        choices=["uniform", "hotspot", "permutation", "bursty", "diurnal"],
        default="uniform",
        help="arrival process (the who-sends-to-whom-when layer)",
    )
    scenarios.add_argument(
        "--messages", type=int, default=2000, help="messages per replica"
    )
    scenarios.add_argument(
        "--rates",
        nargs="*",
        type=float,
        default=None,
        help="offered-load axis of the Pareto curve (arrival-process rates; "
        "omit for the process defaults)",
    )
    scenarios.add_argument(
        "--seeds", type=int, default=3, help="seeds per rate point"
    )
    scenarios.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="finite per-link buffer capacity (omit for infinite buffers)",
    )
    scenarios.add_argument(
        "--on-full",
        choices=["drop", "retry"],
        default="drop",
        help="full-buffer policy: drop the message, or back off and retry",
    )
    scenarios.add_argument(
        "--retry-delay",
        type=float,
        default=1.0,
        help="with --on-full retry: backoff before re-attempting the hop",
    )
    scenarios.add_argument(
        "--max-retries",
        type=int,
        default=16,
        help="with --on-full retry: attempts before the message is dropped",
    )
    scenarios.add_argument(
        "--fail-links",
        type=int,
        default=0,
        help="sever that many links (chosen by --fail-seed) at --fail-at",
    )
    scenarios.add_argument(
        "--fail-at",
        type=float,
        default=0.0,
        help="time at which the failed links go down (default 0)",
    )
    scenarios.add_argument(
        "--heal-after",
        type=float,
        default=None,
        help="bring the failed links back up after that many time units",
    )
    scenarios.add_argument(
        "--fail-seed",
        type=int,
        default=0,
        help="seed choosing which links fail (deterministic across hosts)",
    )
    scenarios.add_argument(
        "--reroute",
        choices=["none", "arc-disjoint"],
        default="none",
        help="severed-primary-hop policy: drop, or deflect onto the "
        "alternate arc-disjoint paths the topologies guarantee",
    )
    scenarios.add_argument(
        "--max-hops",
        type=int,
        default=None,
        help="per-message hop TTL (default: unlimited; 4n under reroute)",
    )
    scenarios.add_argument(
        "--router",
        choices=["auto", "dense", "closed-form"],
        default="auto",
    )
    scenarios.add_argument(
        "--json",
        metavar="PATH",
        help="merge the sweep into a JSON file (e.g. BENCH_scenarios.json)",
    )

    serve = sub.add_parser(
        "serve",
        help="async batch route-query service: next-hop/path/ETA over HTTP",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="shorthand for 'serve stats' against the default host/port",
    )
    serve_sub = serve.add_subparsers(dest="serve_command")

    def _add_server_address(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1", help="server address")
        p.add_argument(
            "--port", type=int, default=8642, help="server port (default 8642)"
        )

    serve_run = serve_sub.add_parser(
        "run", help="start the route-query server"
    )
    _add_server_address(serve_run)
    serve_run.add_argument(
        "--topology",
        action="append",
        default=[],
        metavar="NAME=SPEC[:ROUTER]",
        help="serve SPEC (e.g. prod=H(16,32,2):closed-form); repeatable",
    )
    serve_run.add_argument(
        "--specs",
        metavar="FILE",
        help="JSON spec file mapping names to specs; hot-reloaded on change",
    )
    serve_run.add_argument(
        "--batch-pairs",
        type=int,
        default=8192,
        help="send a micro-batch to the router at once at this many pairs",
    )
    serve_run.add_argument(
        "--max-pairs",
        type=int,
        default=65536,
        help="reject single requests above this many pairs",
    )
    serve_run.add_argument(
        "--reload-interval",
        type=float,
        default=2.0,
        help="seconds between spec-file change checks (0 disables)",
    )
    serve_run.add_argument(
        "--link-latency",
        type=float,
        default=1.0,
        help="LinkModel latency used by ETA answers",
    )
    serve_run.add_argument(
        "--link-transmission",
        type=float,
        default=1.0,
        help="LinkModel transmission time used by ETA answers",
    )
    serve_run.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="shed /v1/query requests with 429 + Retry-After beyond this "
        "many concurrently processed ones (default: unbounded)",
    )
    serve_run.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline: cancel and answer 503 beyond it "
        "(default: none)",
    )
    serve_run.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="Retry-After hint sent with 429/503 answers (default 0.5)",
    )
    serve_run.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT: seconds to let in-flight requests finish "
        "before stopping (default 10)",
    )

    serve_bench = serve_sub.add_parser(
        "bench",
        help="trace-replay load generator: replay a workload against a "
        "running server, record throughput + tail latency",
    )
    _add_server_address(serve_bench)
    serve_bench.add_argument(
        "--topology",
        required=True,
        metavar="NAME[=SPEC[:ROUTER]]",
        help="topology to query (NAME=SPEC form required with --self-host)",
    )
    serve_bench.add_argument(
        "--op", choices=["next-hop", "path", "eta"], default="next-hop"
    )
    serve_bench.add_argument(
        "--workload",
        choices=["uniform", "hotspot", "permutation", "bursty", "diurnal"],
        default="uniform",
        help="trace to replay (same generators as the simulators)",
    )
    serve_bench.add_argument(
        "--messages", type=int, default=100000, help="queries to replay"
    )
    serve_bench.add_argument(
        "--rate", type=float, default=None, help="workload arrival rate knob"
    )
    serve_bench.add_argument(
        "--batch", type=int, default=1024, help="pairs per request"
    )
    serve_bench.add_argument(
        "--connections", type=int, default=4, help="concurrent connections"
    )
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument(
        "--self-host",
        action="store_true",
        help="start an in-process server for the bench instead of targeting "
        "a running one (--topology must carry =SPEC)",
    )
    serve_bench.add_argument(
        "--json",
        metavar="PATH",
        help="merge the result into a JSON file (e.g. BENCH_serve.json)",
    )

    serve_stats = serve_sub.add_parser(
        "stats", help="print a running server's /stats snapshot"
    )
    _add_server_address(serve_stats)
    serve_stats.add_argument(
        "--raw", action="store_true", help="print the raw JSON snapshot"
    )

    lint = sub.add_parser(
        "lint",
        help="AST contract checker: clock seams, atomic writes, sorted "
        "listings, lock discipline, private access",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable findings on stdout"
    )
    lint.add_argument(
        "--rules",
        help="comma-separated rule names to run (default: all; see --list-rules)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule names and exit"
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline of accepted findings to subtract (default: "
        "lint-baseline.json when it exists; pass 'none' to disable)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )

    fleet = sub.add_parser(
        "fleet",
        help="lease-based fleet driver: workers auto-assign sweep/sim chunks",
    )
    fleet.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long end-to-end exercise of the claim/run/reclaim/merge "
        "cycle on both backends (tiny sweep + tiny sim in a temp dir)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command")

    def _add_lease_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ttl",
            type=float,
            default=60.0,
            help="lease TTL seconds - a protocol constant of the out-dir: "
            "every worker of one fleet must use the same value (default 60)",
        )
        p.add_argument(
            "--heartbeat",
            type=float,
            default=None,
            help="lease refresh interval while computing (default ttl/4)",
        )
        p.add_argument(
            "--worker-id", help="lease owner label (default host-pid-nonce)"
        )
        p.add_argument(
            "--max-chunks",
            type=int,
            default=None,
            help="stop this worker after running that many chunks",
        )
        p.add_argument(
            "--no-wait",
            action="store_true",
            help="exit when nothing is claimable instead of polling until "
            "the whole store completes",
        )
        p.add_argument(
            "--watch",
            action="store_true",
            help="do not run chunks: print a live progress/heartbeat "
            "snapshot until the store completes",
        )
        p.add_argument(
            "--interval",
            type=float,
            default=2.0,
            help="refresh period of --watch, seconds (default 2)",
        )
        p.add_argument(
            "--merge",
            action="store_true",
            help="fold the completed store into the final result instead of "
            "running chunks",
        )
        p.add_argument(
            "--clock-skew",
            type=float,
            default=0.0,
            metavar="SECONDS",
            help="worst-case wall-clock offset between fleet hosts; widens "
            "the lease-expiry margin on shared filesystems (default 0)",
        )

    fleet_sweep = fleet_sub.add_parser(
        "sweep", help="degree-diameter sweep chunks under fleet leases"
    )
    fleet_sweep.add_argument("-d", type=int, default=2, help="degree")
    fleet_sweep.add_argument(
        "-D", "--diameter", type=int, required=True, help="target diameter"
    )
    fleet_sweep.add_argument("--n-min", type=int, required=True)
    fleet_sweep.add_argument("--n-max", type=int, required=True)
    fleet_sweep.add_argument(
        "--out-dir",
        required=True,
        help="shared chunk store (all fleet workers point at the same one)",
    )
    fleet_sweep.add_argument(
        "--cache-dir", help="shared on-disk split-verdict cache"
    )
    fleet_sweep.add_argument(
        "--chunk-size", type=int, default=32, help="(n, p, q) items per chunk"
    )
    fleet_sweep.add_argument(
        "--at-most",
        action="store_true",
        help="accept any diameter <= D instead of exactly D",
    )
    fleet_sweep.add_argument(
        "--partial",
        action="store_true",
        help="with --merge: report progress over an incomplete store "
        "(folds only the completed chunks)",
    )
    _add_lease_args(fleet_sweep)

    fleet_sim = fleet_sub.add_parser(
        "sim", help="replica-simulation chunks under fleet leases"
    )
    fleet_sim.add_argument("-p", type=int, required=True, help="OTIS parameter p")
    fleet_sim.add_argument("-q", type=int, required=True, help="OTIS parameter q")
    fleet_sim.add_argument("-d", type=int, default=2, help="transceivers per node")
    fleet_sim.add_argument(
        "--messages", type=int, default=2000, help="messages per workload instance"
    )
    fleet_sim.add_argument(
        "--seeds", type=int, default=3, help="seeds per (workload, rate) point"
    )
    fleet_sim.add_argument(
        "--workloads",
        nargs="+",
        default=["uniform"],
        choices=["uniform", "hotspot", "permutation", "bursty", "diurnal"],
    )
    fleet_sim.add_argument("--rates", nargs="*", type=float, default=None)
    fleet_sim.add_argument(
        "--router",
        choices=["auto", "dense", "closed-form"],
        default="auto",
    )
    fleet_sim.add_argument(
        "--out-dir",
        required=True,
        help="shared replica chunk store (all fleet workers point at it)",
    )
    fleet_sim.add_argument(
        "--chunk-size", type=int, default=4, help="replicas per chunk"
    )
    fleet_sim.add_argument(
        "--json",
        metavar="PATH",
        help="with --merge: merge the curves into a JSON file (e.g. BENCH_sim.json)",
    )
    _add_lease_args(fleet_sim)

    fleet_status_p = fleet_sub.add_parser(
        "status",
        help="one-shot store snapshot (no job parameters needed): "
        "completion counts plus live/expired leases",
    )
    fleet_status_p.add_argument(
        "--out-dir",
        required=True,
        help="the fleet's shared chunk store directory",
    )
    fleet_status_p.add_argument(
        "--ttl",
        type=float,
        default=60.0,
        help="the fleet's lease TTL (decides live vs. expired; default 60)",
    )
    fleet_status_p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable JSON snapshot instead of text",
    )
    return parser


def _cmd_layout(args: argparse.Namespace) -> int:
    layout = optimal_debruijn_layout(args.d, args.D)
    print(f"B({args.d},{args.D}): {layout.num_nodes} processors")
    print(f"layout: OTIS({layout.p},{layout.q}), {layout.num_lenses} lenses")
    verified = layout.verify()
    print(f"verified: {verified}")
    if args.assignments:
        rows = []
        for node in range(layout.num_nodes):
            assignment = layout.node_assignment(node)
            rows.append(
                {
                    "node": node,
                    "word": "".join(map(str, layout.graph.label_of(node))),
                    "transmitters": assignment.transmitters,
                    "receivers": assignment.receivers,
                }
            )
        print(format_table(rows))
    # A failed verification is a broken layout, not a report to ignore.
    return 0 if verified else 1


def _cmd_check(args: argparse.Namespace) -> int:
    verdict = is_otis_layout_of_de_bruijn(args.d, args.p_prime, args.q_prime)
    D = args.p_prime + args.q_prime - 1
    print(
        f"H({args.d}^{args.p_prime}, {args.d}^{args.q_prime}, {args.d}) "
        f"{'IS' if verdict else 'is NOT'} isomorphic to B({args.d},{D})"
    )
    return 0 if verdict else 1


def _cmd_splits(args: argparse.Namespace) -> int:
    rows = [
        {
            "p'": s.p_prime,
            "q'": s.q_prime,
            "p": s.p,
            "q": s.q,
            "lenses": s.lenses,
            "layout": "yes" if s.is_layout else "no",
        }
        for s in enumerate_layout_splits(args.d, args.D)
    ]
    print(format_table(rows))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    result = table1_rows(args.diameter, printed_rows_only=not args.full)
    print(result.as_table())
    report = compare_with_paper(result)
    print(f"all printed rows reproduced: {report['all_match']}")
    return 0 if report["all_match"] else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    graphs = {
        "1": de_bruijn(2, 3),
        "2": reddy_raghavan_kuhl(2, 8),
        "3": imase_itoh(2, 8),
        "7": None,  # handled below (OTIS wiring of H(4,8,2))
        "8": de_bruijn(2, 4),
    }
    if args.which == "6":
        print(otis_wiring_dot(3, 6) if args.format == "dot" else _otis_text(3, 6))
        return 0
    if args.which == "7":
        print(otis_wiring_dot(4, 8) if args.format == "dot" else _otis_text(4, 8))
        return 0
    if args.which == "5":
        from repro.core.alphabet_digraph import alphabet_digraph
        from repro.permutations import Permutation, identity

        graph = alphabet_digraph(2, 3, Permutation([2, 1, 0]), identity(2), 1)
    else:
        graph = graphs[args.which]
    print(to_dot(graph) if args.format == "dot" else adjacency_listing(graph))
    return 0


def _otis_text(p: int, q: int) -> str:
    from repro.graphs.drawing import otis_wiring_text

    return otis_wiring_text(p, q)


def _print_sweep_curves(sweep) -> None:
    rows = [
        {
            "workload": row["workload"],
            "rate": "t=0" if row["rate"] is None else f"{row['rate']:g}",
            "seeds": row["seeds"],
            "delivered": f"{row['delivered']}/{row['messages']}",
            "throughput": f"{row['throughput']:.3f}",
            "mean latency": f"{row['mean_latency']:.3f}",
            "mean hops": f"{row['mean_hops']:.3f}",
            "max queue": row["max_link_queue"],
        }
        for row in sweep.curves()
    ]
    print(format_table(rows))


def _cmd_sim(args: argparse.Namespace) -> int:
    from repro.otis.h_digraph import h_digraph
    from repro.simulation.workloads import run_throughput_sweep

    graph = h_digraph(args.p, args.q, args.d)
    rates = tuple(args.rates) if args.rates else (None,)
    sweep = run_throughput_sweep(
        graph,
        workloads=tuple(args.workloads),
        rates=rates,
        seeds=range(args.seeds),
        num_messages=args.messages,
        router=args.router,
    )
    print(
        f"{sweep.graph_name}: {sweep.num_nodes} nodes, {sweep.num_links} links, "
        f"kernels={sweep.kernel_backend}, wall={sweep.wall_time_s:.3f}s"
    )
    _print_sweep_curves(sweep)
    if args.json:
        key = f"sweep_H({args.p},{args.q},{args.d})_batched"
        path = merge_bench_json(args.json, key, sweep.to_json())
        print(f"wrote {path}")
    return 0


def _print_scenario_curves(sweep) -> None:
    rows = [
        {
            "rate": "default" if row["rate"] is None else f"{row['rate']:g}",
            "seeds": row["seeds"],
            "delivered": f"{row['delivered']}/{row['messages']}",
            "drop b/f/h": f"{row['dropped_buffer']}/{row['dropped_fault']}"
            f"/{row['dropped_hops']}",
            "retrans": row["retransmits"],
            "rerouted": row["rerouted_hops"],
            "throughput": f"{row['throughput']:.3f}",
            "mean latency": f"{row['mean_latency']:.3f}",
            "pareto": "*" if row["pareto"] else "",
        }
        for row in sweep.curves()
    ]
    print(format_table(rows))


def _build_scenario(args: argparse.Namespace, graph):
    """The :class:`~repro.simulation.scenarios.Scenario` a CLI call describes."""
    from repro.simulation.network import BufferedLinkModel, LinkModel
    from repro.simulation.scenarios import FaultPlan, Scenario, make_arrivals

    if args.arrival == "permutation":
        arrivals = make_arrivals(args.arrival)
    else:
        arrivals = make_arrivals(args.arrival, num_messages=args.messages)
    if args.capacity is not None:
        link = BufferedLinkModel(
            capacity=args.capacity,
            on_full=args.on_full,
            retry_delay=args.retry_delay,
            max_retries=args.max_retries,
        )
    else:
        link = LinkModel()
    if args.fail_links:
        faults = FaultPlan.random_link_failures(
            graph,
            args.fail_links,
            at=args.fail_at,
            heal_after=args.heal_after,
            seed=args.fail_seed,
        )
    else:
        faults = FaultPlan.none()
    return Scenario(
        arrivals=arrivals,
        link=link,
        faults=faults,
        reroute=args.reroute,
        max_hops=args.max_hops,
    )


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.otis.h_digraph import h_digraph
    from repro.simulation.scenarios import run_scenario_sweep

    graph = h_digraph(args.p, args.q, args.d)
    scenario = _build_scenario(args, graph)
    rates = tuple(args.rates) if args.rates else (None,)
    sweep = run_scenario_sweep(
        graph, scenario, rates=rates, seeds=range(args.seeds), router=args.router
    )
    print(
        f"{sweep.graph_name}: {sweep.num_nodes} nodes, {sweep.num_links} links, "
        f"kernels={sweep.kernel_backend}, wall={sweep.wall_time_s:.3f}s"
    )
    print(f"scenario [{scenario.digest()}]: {scenario.describe()}")
    _print_scenario_curves(sweep)
    if args.json:
        key = f"scenarios_H({args.p},{args.q},{args.d})_{args.arrival}"
        path = merge_bench_json(args.json, key, sweep.to_json())
        print(f"wrote {path}")
    return 0


def _parse_topology_arg(
    text: str, *, require_spec: bool
) -> tuple[str, str | None, str]:
    """``NAME=SPEC[:ROUTER]`` (or plain ``NAME``) -> (name, spec, router)."""
    from repro.routing.routers import ROUTER_KINDS

    if "=" not in text:
        if require_spec:
            raise ValueError(
                f"--topology {text!r}: --self-host/serve run need the "
                "NAME=SPEC[:ROUTER] form (e.g. prod=H(16,32,2):closed-form)"
            )
        return text, None, "auto"
    name, _, rest = text.partition("=")
    router = "auto"
    spec, _, candidate = rest.rpartition(":")
    if spec and candidate in ROUTER_KINDS:
        rest, router = spec, candidate
    if not name or not rest:
        raise ValueError(f"--topology {text!r}: expected NAME=SPEC[:ROUTER]")
    return name, rest, router


def _serve_run(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import RouteQueryServer, RouterRegistry
    from repro.simulation.network import LinkModel

    registry = RouterRegistry()
    try:
        if args.specs:
            registry.load_spec_file(args.specs)
        for text in args.topology:
            name, spec, router = _parse_topology_arg(text, require_spec=True)
            registry.add(name, spec, router)
    except (OSError, ValueError) as error:
        print(f"serve run failed: {error}", file=sys.stderr)
        return 1
    if not registry.names():
        print(
            "serve run needs at least one --topology NAME=SPEC or --specs "
            "FILE",
            file=sys.stderr,
        )
        return 2
    link = LinkModel(
        latency=args.link_latency, transmission_time=args.link_transmission
    )
    server = RouteQueryServer(
        registry,
        host=args.host,
        port=args.port,
        link=link,
        batch_pairs=args.batch_pairs,
        max_pairs=args.max_pairs,
        reload_interval_s=args.reload_interval,
        max_inflight=args.max_inflight,
        request_timeout_s=args.request_timeout,
        retry_after_s=args.retry_after,
    )

    async def main() -> None:
        import signal as _signal

        port = await server.start()
        print(f"serving on http://{args.host}:{port}", flush=True)
        for name, info in sorted(registry.snapshot().items()):
            print(
                f"  {name}: {info['spec']} via {info['router']} router "
                f"({info['nodes']} nodes, {info['state_bytes']} bytes of "
                "routing state)",
                flush=True,
            )
        # Graceful shutdown: SIGTERM/SIGINT stop admission, let in-flight
        # requests finish (up to --drain-grace), then exit 0 — so rolling
        # restarts and supervisors never cut answered connections short.
        loop = asyncio.get_running_loop()
        stop_signal = asyncio.Event()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_signal.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loops
        serving = asyncio.ensure_future(server.serve_forever())
        waiter = asyncio.ensure_future(stop_signal.wait())
        try:
            await asyncio.wait(
                {serving, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            waiter.cancel()
            serving.cancel()
            await asyncio.gather(serving, waiter, return_exceptions=True)
        if stop_signal.is_set():
            print("draining...", flush=True)
            await server.drain(grace_s=args.drain_grace)
            print("drained, stopped", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("stopped")
    except OSError as error:
        print(f"serve run failed: {error}", file=sys.stderr)
        return 1
    return 0


def _serve_stats(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.bench import http_request

    try:
        stats = http_request(args.host, args.port, "GET", "/stats")
    except OSError as error:
        print(
            f"stats failed: no server at {args.host}:{args.port} ({error})",
            file=sys.stderr,
        )
        return 1
    if getattr(args, "raw", False):
        print(_json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(
        f"uptime {stats['uptime_s']:.1f}s, "
        f"{stats['queries_per_second']:.0f} queries/s (10s window)"
    )
    batching = stats["batching"]
    print(
        f"micro-batching: {batching['batches']} batches, "
        f"{batching['coalesced_requests']} coalesced requests, "
        f"max {batching['max_batch_pairs']} pairs"
    )
    endpoint_rows = [
        {
            "op": name,
            "requests": e["requests"],
            "queries": e["queries"],
            "errors": e["errors"],
            "p50": "-" if e["latency_p50_s"] is None else f"{e['latency_p50_s'] * 1e3:.2f}ms",
            "p99": "-" if e["latency_p99_s"] is None else f"{e['latency_p99_s'] * 1e3:.2f}ms",
        }
        for name, e in sorted(stats["endpoints"].items())
    ]
    if endpoint_rows:
        print(format_table(endpoint_rows))
    topo_rows = [
        {
            "topology": name,
            "spec": info["spec"],
            "router": info["router"],
            "nodes": info["nodes"],
            "state bytes": info["state_bytes"],
            "version": info["version"],
        }
        for name, info in sorted(stats["topologies"].items())
    ]
    if topo_rows:
        print(format_table(topo_rows))
    return 0


def _serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import RouterRegistry, ServerThread, run_bench

    try:
        name, spec, router = _parse_topology_arg(
            args.topology, require_spec=args.self_host
        )
    except ValueError as error:
        print(f"bench failed: {error}", file=sys.stderr)
        return 2

    def bench_against(host: str, port: int):
        return run_bench(
            host,
            port,
            topology=name,
            op=args.op,
            workload=args.workload,
            messages=args.messages,
            batch_pairs=args.batch,
            connections=args.connections,
            seed=args.seed,
            rate=args.rate,
        )

    try:
        if args.self_host:
            registry = RouterRegistry()
            registry.add(name, spec, router)
            with ServerThread(registry) as server:
                print(f"self-hosting {name}={spec} on port {server.port}")
                result = bench_against(server.host, server.port)
        else:
            result = bench_against(args.host, args.port)
    except (OSError, ValueError, RuntimeError) as error:
        print(f"bench failed: {error}", file=sys.stderr)
        return 1
    print(result.describe())
    if args.json:
        key = f"serve_{name}_{args.op}_{args.workload}"
        path = merge_bench_json(args.json, key, result.to_json())
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    command = getattr(args, "serve_command", None)
    if command == "run":
        return _serve_run(args)
    if command == "bench":
        return _serve_bench(args)
    if command == "stats" or (command is None and args.stats):
        # `repro serve --stats` hits the default host/port.
        if command is None:
            args.host, args.port = "127.0.0.1", 8642
        return _serve_stats(args)
    print(
        "serve needs a mode: serve run ..., serve bench ..., serve stats, "
        "or serve --stats",
        file=sys.stderr,
    )
    return 2


def _fleet_kwargs(args: argparse.Namespace) -> dict:
    """The ``run_fleet`` keyword arguments shared by fleet sweep/sim."""
    return dict(
        worker_id=args.worker_id,
        ttl=args.ttl,
        heartbeat=args.heartbeat,
        wait=not args.no_wait,
        max_chunks=args.max_chunks,
        clock_skew=args.clock_skew,
        # CLI workers are real processes under a supervisor: convert
        # SIGTERM into a prompt lease release + clean exit.
        handle_sigterm=True,
    )


def _fleet_watch(job, args: argparse.Namespace) -> int:
    """``--watch``: print status snapshots until the store completes.

    The refresh sleep backs off exponentially (capped at
    ``max(--interval, 5 s)``) while nothing changes and snaps back to
    ``--interval`` on any progress — a hundred idle watchers must not
    hammer the shared store with stat storms.
    """
    import time as _time

    from repro.fleet import fleet_status, format_status

    sleep_s = args.interval
    cap_s = max(args.interval, 5.0)
    last = None
    while True:
        status = fleet_status(job, ttl=args.ttl)
        try:
            summary = job.progress_summary()
        except (OSError, ValueError):
            summary = ""
        print(format_status(status, summary=summary), flush=True)
        if status["done"]:
            return 0
        # Heartbeat ages churn every snapshot; progress is judged on the
        # stable parts only (who holds what, how much is complete).
        fingerprint = (
            status["complete"],
            tuple(sorted((i.chunk_id, i.worker) for i in status["running"])),
            tuple(sorted(i.chunk_id for i in status["expired"])),
        )
        if fingerprint == last:
            sleep_s = min(cap_s, sleep_s * 2)
        else:
            sleep_s = args.interval
            last = fingerprint
        _time.sleep(sleep_s)


def _fleet_run(job, args: argparse.Namespace, merge) -> int:
    """The flow of ``fleet sweep`` and ``fleet sim``: describe the job, then
    ``--watch``, ``--merge`` (``merge()`` folds and prints; an incomplete
    store exits 1) or run one worker."""
    from repro.fleet import run_fleet

    print(job.describe())
    if args.watch:
        return _fleet_watch(job, args)
    if args.merge:
        try:
            merge()
        except FileNotFoundError as error:
            print(f"merge failed: {error}", file=sys.stderr)
            return 1
        return 0
    outcome = run_fleet(job, **_fleet_kwargs(args))
    line = (
        f"worker {outcome['worker']}: ran {len(outcome['ran'])} chunks; "
        f"store {outcome['store']}: {_chunks_complete(job)}/{outcome['chunks']} "
        "chunks complete"
    )
    if outcome["lost"]:
        line += f"; {len(outcome['lost'])} lease(s) lost mid-run (reclaimed)"
    print(line)
    return 0


def _chunks_complete(job) -> int:
    return len(job.store.completed_ids() & {c.chunk_id for c in job.chunks()})


def _fleet_sweep(args: argparse.Namespace) -> int:
    from repro.fleet import SweepFleetJob
    from repro.otis.search import PAPER_TABLE1, compare_with_paper
    from repro.otis.sweep import ChunkManifest, merge_sweep

    if args.n_min < 1 or args.n_max < args.n_min:
        print("need 1 <= --n-min <= --n-max", file=sys.stderr)
        return 2
    if args.partial and not args.merge:
        print("--partial only makes sense with --merge", file=sys.stderr)
        return 2
    manifest = ChunkManifest.build(
        args.d,
        args.diameter,
        range(args.n_min, args.n_max + 1),
        require_exact=not args.at_most,
        chunk_size=args.chunk_size,
    )
    job = SweepFleetJob(manifest, args.out_dir, cache=args.cache_dir)

    def merge() -> None:
        result = merge_sweep(manifest, job.store, partial=args.partial)
        if args.partial:
            print(
                f"PARTIAL merge: {_chunks_complete(job)}/{len(manifest.chunks)} "
                "chunks complete - rows below cover only the published chunks"
            )
        print(result.as_table())
        if args.diameter in PAPER_TABLE1 and not args.at_most and not args.partial:
            report = compare_with_paper(result)
            print(f"paper rows in range reproduced: {report['all_match']}")

    return _fleet_run(job, args, merge)


def _fleet_sim(args: argparse.Namespace) -> int:
    import time as _time

    from repro.fleet import SimFleetJob
    from repro.otis.h_digraph import h_digraph
    from repro.simulation.network import LinkModel
    from repro.simulation.sharding import ReplicaChunkManifest
    from repro.simulation.workloads import (
        assemble_throughput_sweep,
        sweep_combos,
        sweep_traffics,
    )

    graph = h_digraph(args.p, args.q, args.d)
    rates = tuple(args.rates) if args.rates else (None,)
    combos = sweep_combos(tuple(args.workloads), rates, range(args.seeds))
    traffics = sweep_traffics(graph.num_vertices, combos, args.messages)
    link = LinkModel()
    manifest = ReplicaChunkManifest.build(
        graph, traffics, link=link, router=args.router, chunk_size=args.chunk_size
    )
    job = SimFleetJob(manifest, args.out_dir, graph, traffics)

    def merge() -> None:
        start = _time.perf_counter()
        stats = job.merge()
        sweep = assemble_throughput_sweep(
            graph,
            combos,
            traffics,
            stats,
            link=link,
            wall_time_s=_time.perf_counter() - start,
            kernel_backend=_active_kernel_backend(),
        )
        _print_sweep_curves(sweep)
        if args.json:
            key = f"sweep_H({args.p},{args.q},{args.d})_fleet"
            entry = sweep.to_json()
            # The fold never timed the simulation (the workers did, possibly
            # on other hosts); recording the fold time under `wall_time_s`
            # would pollute the BENCH trajectory with a bogus near-zero
            # "simulation" timing.
            entry.pop("wall_time_s", None)
            entry["merge_wall_time_s"] = round(sweep.wall_time_s, 4)
            path = merge_bench_json(args.json, key, entry)
            print(f"wrote {path}")

    return _fleet_run(job, args, merge)


def _fleet_smoke(args: argparse.Namespace) -> int:
    """Tiny end-to-end fleet exercise: claim → run → reclaim → merge, both
    backends, asserting byte-identical merges against the serial paths."""
    import os
    import tempfile
    import time as _time
    from pathlib import Path

    from repro.fleet import LeaseManager, SimFleetJob, SweepFleetJob, run_fleet
    from repro.otis.h_digraph import h_digraph
    from repro.otis.search import degree_diameter_search
    from repro.otis.sweep import ChunkManifest, ChunkStore
    from repro.simulation.network import BatchedNetworkSimulator, LinkModel
    from repro.simulation.sharding import ReplicaChunkManifest
    from repro.simulation.workloads import make_workload

    with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as base_str:
        base = Path(base_str)

        manifest = ChunkManifest.build(2, 6, range(62, 67), chunk_size=4)
        job = SweepFleetJob(
            manifest, ChunkStore(base / "sweep"), cache=base / "cache"
        )
        # Plant an already-expired foreign lease on the first chunk: the
        # worker must reclaim it, exercising the crashed-owner path.
        leases = LeaseManager(job.store.directory / "leases", ttl=5.0)
        stale = leases.try_acquire(
            manifest.chunks[0].chunk_id, worker="smoke-crashed-worker"
        )
        backdated = _time.time() - 3600
        os.utime(stale.path, (backdated, backdated))
        outcome = run_fleet(job, ttl=5.0, heartbeat=1.0)
        reclaimed = manifest.chunks[0].chunk_id in outcome["ran"]
        merged = job.merge()
        direct = degree_diameter_search(2, 6, 62, 66)
        sweep_ok = merged.rows == direct.rows and reclaimed
        print(
            f"sweep backend: {len(outcome['ran'])} chunks via leases, "
            f"expired lease reclaimed: {reclaimed}, "
            f"merge identical to serial search: {merged.rows == direct.rows}"
        )

        graph = h_digraph(4, 8, 2)
        link = LinkModel()
        traffics = [
            make_workload("uniform", graph.num_vertices, 30, rng=seed)
            for seed in range(4)
        ]
        sim_manifest = ReplicaChunkManifest.build(
            graph, traffics, link=link, chunk_size=2
        )
        sim_job = SimFleetJob(
            sim_manifest, ChunkStore(base / "sim"), graph, traffics
        )
        sim_outcome = run_fleet(sim_job, ttl=5.0, heartbeat=1.0)
        stats = sim_job.merge()
        expected = [
            s
            for s, _ in BatchedNetworkSimulator(graph, link=link).run_many(
                traffics, return_messages=False
            )
        ]
        sim_ok = stats == expected and sim_outcome["complete"]
        print(
            f"sim backend: {len(sim_outcome['ran'])} chunks via leases, "
            f"merge identical to in-process run_many: {stats == expected}"
        )
    ok = sweep_ok and sim_ok
    print(f"fleet smoke: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _fleet_status(args: argparse.Namespace) -> int:
    """``fleet status``: one-shot snapshot of a store, text or JSON."""
    import json as _json

    from repro.fleet import format_status, status_to_json, store_status
    from repro.otis.sweep import StoreIdentityError

    try:
        status = store_status(args.out_dir, ttl=args.ttl)
    except (FileNotFoundError, StoreIdentityError) as error:
        print(f"status failed: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(status_to_json(status), indent=2, sort_keys=True))
    else:
        print(format_status(status))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    command = getattr(args, "fleet_command", None)
    if args.smoke:
        return _fleet_smoke(args)
    if command == "sweep":
        return _fleet_sweep(args)
    if command == "sim":
        return _fleet_sim(args)
    if command == "status":
        return _fleet_status(args)
    print(
        "fleet needs a mode: fleet sweep ..., fleet sim ..., fleet status "
        "..., or fleet --smoke",
        file=sys.stderr,
    )
    return 2


def _cmd_lint(args) -> int:
    """``repro lint``: 0 clean, 1 findings, 2 usage errors."""
    from pathlib import Path

    from repro import lint

    if args.list_rules:
        for rule in lint.all_rules():
            print(rule)
        return 0

    rules = None
    if args.rules:
        rules = tuple(part.strip() for part in args.rules.split(",") if part.strip())

    baseline_path: Path | None
    if args.baseline == "none":
        baseline_path = None
    elif args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        default = Path("lint-baseline.json")
        baseline_path = default if default.exists() else None

    try:
        findings = lint.run_lint([Path(p) for p in args.paths], rules=rules)
    except ValueError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path or Path("lint-baseline.json")
        lint.write_baseline(findings, target)
        print(f"wrote {len(findings)} finding(s) to {target}")
        return 0

    if baseline_path is not None:
        try:
            findings = lint.apply_baseline(findings, lint.load_baseline(baseline_path))
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"repro lint: bad baseline {baseline_path}: {error}", file=sys.stderr)
            return 2

    output = lint.render_json(findings) if args.json else lint.render_text(findings)
    print(output, end="")
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.otis.sweep import StoreIdentityError

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "layout": _cmd_layout,
        "check": _cmd_check,
        "splits": _cmd_splits,
        "table1": _cmd_table1,
        "figure": _cmd_figure,
        "sim": _cmd_sim,
        "scenarios": _cmd_scenarios,
        "fleet": _cmd_fleet,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except StoreIdentityError as error:
        print(f"store identity mismatch: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
