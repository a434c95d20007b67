"""Named-topology router registry with atomic hot reload.

The registry maps service-visible names to built :class:`Router` instances.
Specs are the same canonical family strings the rest of the repository uses
(``B(d,D)``, ``K(d,D)``, ``RRK(d,n)``, ``II(d,n)``, ``H(p,q,d)``), so a
registry entry is exactly "the graph the CLI would build, routed by the
router ``make_router`` would pick".

Hot reload: the registry can be bound to a JSON spec file
(:meth:`RouterRegistry.load_spec_file`); :meth:`RouterRegistry.reload`
re-reads it when its mtime/size changed and rebuilds only the entries whose
spec or router kind actually differ.  Rebuilds are atomic — the new
:class:`RouterEntry` replaces the old one in a single dict assignment under
the registry lock, so in-flight queries either see the complete old router
or the complete new one, never a half-built state.  Entry versions increase
monotonically so clients can detect a reload in ``/stats``.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.graphs.digraph import BaseDigraph
from repro.routing.routers import ROUTER_KINDS, Router, make_router

__all__ = ["build_graph", "RouterEntry", "RouterRegistry", "SPEC_PATTERN"]

#: Accepted topology spec strings: a family name and its integer parameters.
SPEC_PATTERN = re.compile(r"^(B|K|RRK|II|H)\((\d+(?:,\d+)*)\)$")


def build_graph(spec: str) -> BaseDigraph:
    """Build the digraph a canonical family spec string names.

    >>> build_graph("B(2,3)").num_vertices
    8
    """
    match = SPEC_PATTERN.match(spec.replace(" ", ""))
    if not match:
        raise ValueError(
            f"bad topology spec {spec!r} (expected e.g. B(2,6), K(2,5), "
            "RRK(2,64), II(2,64) or H(16,32,2))"
        )
    family = match.group(1)
    params = tuple(int(x) for x in match.group(2).split(","))
    from repro.graphs.generators import (
        de_bruijn,
        imase_itoh,
        kautz,
        reddy_raghavan_kuhl,
    )
    from repro.otis.h_digraph import h_digraph

    builders = {
        "B": (de_bruijn, 2),
        "K": (kautz, 2),
        "RRK": (reddy_raghavan_kuhl, 2),
        "II": (imase_itoh, 2),
        "H": (h_digraph, 3),
    }
    builder, arity = builders[family]
    if len(params) != arity:
        raise ValueError(
            f"bad topology spec {spec!r}: {family} takes {arity} parameters"
        )
    return builder(*params)


@dataclass(frozen=True)
class RouterEntry:
    """One immutable registry entry: a built router plus its provenance."""

    name: str
    spec: str
    router_kind: str  #: the *requested* kind ("auto" resolves at build time)
    graph: BaseDigraph
    router: Router
    version: int  #: bumps on every rebuild of this name (hot reload marker)

    def snapshot(self) -> dict:
        """JSON-able description for ``/stats``."""
        return {
            "spec": self.spec,
            "requested_router": self.router_kind,
            "router": self.router.kind,
            "nodes": self.graph.num_vertices,
            "links": self.graph.num_arcs,
            "state_bytes": self.router.state_bytes(),
            "version": self.version,
        }


class RouterRegistry:
    """Thread-safe name -> :class:`RouterEntry` map with hot reload.

    Lookups (:meth:`get`) take the lock only for the dict read; the returned
    entry is immutable, so queries answered from it are not affected by a
    concurrent reload — they finish on the router they started with.
    """

    def __init__(self):
        self._entries: dict[str, RouterEntry] = {}
        self._lock = threading.RLock()
        self._versions = 0
        self._spec_file: Path | None = None
        self._spec_file_stamp: tuple[float, int] | None = None
        self.reloads = 0
        self.failed_reloads = 0
        self.last_error: str | None = None  #: message of the last failed reload

    # -------------------------------------------------------------- access
    def get(self, name: str) -> RouterEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise KeyError(name)
        return entry

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def snapshot(self) -> dict:
        """Per-topology ``/stats`` section."""
        with self._lock:
            entries = list(self._entries.values())
        return {entry.name: entry.snapshot() for entry in entries}

    # --------------------------------------------------------------- build
    def add(self, name: str, spec: str, router: str = "auto") -> RouterEntry:
        """Build (or rebuild) the entry for ``name``; returns it.

        A no-op returning the existing entry when ``(spec, router)`` are
        unchanged — hot reload only rebuilds what actually differs.
        """
        if router not in ROUTER_KINDS:
            raise ValueError(
                f"unknown router kind {router!r} (expected one of {ROUTER_KINDS})"
            )
        with self._lock:
            current = self._entries.get(name)
            if (
                current is not None
                and current.spec == spec
                and current.router_kind == router
            ):
                return current
        # Build outside the lock (graph + router construction can be slow);
        # the final dict assignment is the atomic switch-over.
        graph = build_graph(spec)
        built = make_router(graph, router)
        with self._lock:
            self._versions += 1
            entry = RouterEntry(
                name=name,
                spec=spec,
                router_kind=router,
                graph=graph,
                router=built,
                version=self._versions,
            )
            self._entries[name] = entry
        return entry

    def remove(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    # ---------------------------------------------------------- spec files
    @staticmethod
    def _parse_spec_value(name: str, value) -> tuple[str, str]:
        """``(spec, router)`` from a spec-file value (string or object)."""
        if isinstance(value, str):
            return value, "auto"
        if isinstance(value, dict) and "spec" in value:
            return str(value["spec"]), str(value.get("router", "auto"))
        raise ValueError(
            f"spec file entry {name!r} must be a spec string or an object "
            'with a "spec" key'
        )

    def load_spec_file(self, path: str | Path) -> list[str]:
        """Bind the registry to a JSON spec file and (re)build its entries.

        The file maps names to either a spec string or
        ``{"spec": ..., "router": ...}``::

            {"prod": {"spec": "H(16,32,2)", "router": "closed-form"},
             "lab": "B(2,6)"}

        Returns the names whose entries changed (rebuilt, added or removed).

        **Transactional**: the file is parsed in full and every new entry is
        built *before* anything is committed to the live registry, in one
        dict update under the lock.  A truncated file, unparseable JSON, a
        bad spec string or a router that fails to build therefore leaves the
        registry exactly on its last good snapshot — a half-written reload
        can never tear down entries the server is answering from.
        """
        path = Path(path)
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: spec file must be a JSON object")
        parsed = {
            name: self._parse_spec_value(name, value)
            for name, value in raw.items()
        }
        # Build every changed entry outside the lock (construction can be
        # slow, and it can fail — nothing is committed yet).
        with self._lock:
            current = dict(self._entries)
        built: dict[str, RouterEntry] = {}
        for name, (spec, router) in sorted(parsed.items()):
            if router not in ROUTER_KINDS:
                raise ValueError(
                    f"unknown router kind {router!r} "
                    f"(expected one of {ROUTER_KINDS})"
                )
            before = current.get(name)
            if (
                before is not None
                and before.spec == spec
                and before.router_kind == router
            ):
                continue  # unchanged — keep the live entry
            graph = build_graph(spec)
            built[name] = RouterEntry(
                name=name,
                spec=spec,
                router_kind=router,
                graph=graph,
                router=make_router(graph, router),
                version=0,  # stamped at commit time below
            )
        removed = [name for name in current if name not in parsed]
        stat = path.stat()
        # Commit: one atomic switch-over of everything that changed.
        changed: list[str] = []
        with self._lock:
            for name, entry in built.items():
                self._versions += 1
                self._entries[name] = RouterEntry(
                    name=entry.name,
                    spec=entry.spec,
                    router_kind=entry.router_kind,
                    graph=entry.graph,
                    router=entry.router,
                    version=self._versions,
                )
                changed.append(name)
            for name in removed:
                if name in self._entries:
                    del self._entries[name]
                    changed.append(name)
            self._spec_file = path
            self._spec_file_stamp = (stat.st_mtime, stat.st_size)
            if changed:
                self.reloads += 1
            self.last_error = None
        return changed

    def reload(self, force: bool = False, *, strict: bool = False) -> list[str]:
        """Re-read the bound spec file if it changed; returns changed names.

        Cheap when nothing changed (one ``stat``), so the server calls this
        periodically.  ``force=True`` skips the mtime check (the ``/reload``
        endpoint).

        By default a failed re-read **degrades instead of raising**: the
        registry keeps serving its last good snapshot, the failure is
        recorded in :attr:`last_error`/:attr:`failed_reloads` (surfaced via
        ``/stats``), and the next poll retries.  ``strict=True`` propagates
        the exception — the explicit ``/reload`` endpoint uses it so a
        caller asking for a reload hears that it failed.
        """
        with self._lock:
            path = self._spec_file
            stamp = self._spec_file_stamp
        if path is None:
            return []
        try:
            stat = path.stat()
        except OSError as exc:
            if strict:
                raise
            with self._lock:
                self.failed_reloads += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
            return []
        if not force and stamp == (stat.st_mtime, stat.st_size):
            return []
        try:
            return self.load_spec_file(path)
        except (OSError, ValueError) as exc:
            if strict:
                raise
            with self._lock:
                self.failed_reloads += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
            return []
