"""Routing and collective communication on de Bruijn-like digraphs.

The paper's introduction motivates the de Bruijn digraph through the body of
routing, broadcasting and gossiping results that exist for it (refs. [3, 19,
28]).  This subpackage implements the standard algorithms so that the OTIS
layouts produced by :mod:`repro.otis` can actually be *used*: the discrete
event simulator (:mod:`repro.simulation`) routes messages with these tables.

* :mod:`repro.routing.paths` — shortest-path routing by word overlap on the
  de Bruijn and Kautz digraphs (O(D) per route, no search), plus generic BFS
  routing and all-pairs next-hop tables for arbitrary digraphs.
* :mod:`repro.routing.routers` — the pluggable :class:`Router` hierarchy the
  simulators route through: table-free closed-form shift routing (de
  Bruijn/Kautz/``H(d^p', d^q', d)``) and destination-keyed table columns
  (every other digraph) — bit-identical on routes.
* :mod:`repro.routing.broadcast` — BFS broadcast arborescences and
  single-port / all-port broadcast schedules.
* :mod:`repro.routing.gossip` — all-to-all (gossip) schedules and their round
  counts.
"""

from repro.routing.broadcast import (
    BroadcastSchedule,
    all_port_broadcast_schedule,
    breadth_first_arborescence,
    single_port_broadcast_schedule,
)
from repro.routing.gossip import GossipSchedule, all_port_gossip_schedule
from repro.routing.paths import (
    RoutingTable,
    bfs_route,
    build_routing_table,
    debruijn_distance,
    debruijn_route,
    kautz_route,
    shift_route_next_hop,
    shift_route_next_hops,
)
from repro.routing.routers import (
    ROUTER_KINDS,
    ClosedFormRouter,
    DenseTableRouter,
    Router,
    make_router,
)

__all__ = [
    "debruijn_route",
    "debruijn_distance",
    "kautz_route",
    "bfs_route",
    "build_routing_table",
    "shift_route_next_hop",
    "shift_route_next_hops",
    "RoutingTable",
    "Router",
    "DenseTableRouter",
    "ClosedFormRouter",
    "make_router",
    "ROUTER_KINDS",
    "breadth_first_arborescence",
    "single_port_broadcast_schedule",
    "all_port_broadcast_schedule",
    "BroadcastSchedule",
    "GossipSchedule",
    "all_port_gossip_schedule",
]
