"""Compiled kernel backends for the engine hot loops.

The uint64 bit-sweep behind :mod:`repro.graphs.apsp`, the forward/reverse
BFS connectivity screen of the Table 1 sweep
(:func:`repro.otis.sweep.run_chunk`), the closed-form shift routing of
:class:`repro.routing.routers.ClosedFormRouter`, the hotspot traffic draws
of :func:`repro.simulation.workloads.hotspot_pairs`, the healthy event
loop of :class:`repro.simulation.network.BatchedNetworkSimulator` and its
degrading-scenario event loop (faults, finite buffers, reroute) each have
a compiled implementation here, selected at run time:

``cnative``
    The kernels as C source (:mod:`repro.kernels.native`), compiled once
    with the system C compiler and loaded via ctypes.  Used when a working
    compiler is available.
``numpy``
    No kernels at all — the engines run their original vectorised numpy
    paths.  Always available; this is the reference the differential tests
    compare the compiled backend against, and results are
    **bit-identical** across both by contract (see
    ``tests/test_kernel_parity.py`` and ``docs/kernels.md``).

Selection: the ``REPRO_KERNELS`` environment variable (``auto`` — the
default — or an explicit backend name) decides the process-wide default;
``batched_eccentricities(..., backend=...)`` / ``h_diameter(...,
backend=...)`` / ``BatchedNetworkSimulator(..., kernels=...)`` override per
call site.
Requesting an unavailable backend explicitly warns and falls back to
numpy; ``auto`` silently picks the best available (``cnative`` >
``numpy``).

The active backend is *not* part of result identity: ``code_version()`` /
``sim_code_version()`` (see ``repro.otis.sweep`` and
``repro.simulation.sharding``) hash the source files of the result path
only, because the parity suites prove that both backends write the same
record bytes.  So a chunk store or verdict cache filled under one backend
resumes and merges under the other, recomputing nothing.  See § Identity
in ``docs/kernels.md``.
"""

from __future__ import annotations

import os
import warnings

__all__ = [
    "KERNEL_BACKENDS",
    "ENV_VAR",
    "available_backends",
    "resolve_backend",
    "active_backend",
    "get_kernels",
    "warmup",
    "diagnostics",
]

#: All backend names, in ``auto`` preference order.
KERNEL_BACKENDS = ("cnative", "numpy")

#: The environment override: ``auto`` or one of :data:`KERNEL_BACKENDS`.
ENV_VAR = "REPRO_KERNELS"

_probe_cache: dict[str, bool] = {}


def _probe(backend: str) -> bool:
    """Is ``backend`` usable in this process?  (Cached; may compile.)"""
    if backend == "numpy":
        return True
    cached = _probe_cache.get(backend)
    if cached is not None:
        return cached
    from repro.kernels.native import NativeBuildError, build_native_kernels

    try:
        build_native_kernels()
        ok = True
    except NativeBuildError:
        ok = False
    _probe_cache[backend] = ok
    return ok


def _reset_probe_cache() -> None:
    """Forget probe results (test hook — lets tests simulate absent backends)."""
    _probe_cache.clear()


def available_backends() -> tuple[str, ...]:
    """The backends usable in this process, in preference order."""
    return tuple(b for b in KERNEL_BACKENDS if _probe(b))


def resolve_backend(request: str | None = None) -> str:
    """Resolve a backend request to an available backend name.

    ``request=None`` reads :data:`ENV_VAR` (default ``auto``).  ``auto``
    picks the first available backend in :data:`KERNEL_BACKENDS` order.  An
    explicit, unavailable backend warns (``RuntimeWarning``) and resolves
    to ``numpy`` — never an error, so a pinned configuration still runs
    anywhere.  An unknown name raises ``ValueError`` (that is a typo, not
    an environment problem).
    """
    if request is None:
        request = os.environ.get(ENV_VAR, "auto") or "auto"
    request = request.strip().lower()
    if request == "auto":
        for backend in KERNEL_BACKENDS:
            if _probe(backend):
                return backend
        return "numpy"  # unreachable (numpy always probes True); explicit anyway
    if request not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {request!r}; expected 'auto' or one of "
            f"{', '.join(KERNEL_BACKENDS)}"
        )
    if not _probe(request):
        warnings.warn(
            f"kernel backend {request!r} is unavailable in this environment; "
            f"falling back to 'numpy'",
            RuntimeWarning,
            stacklevel=2,
        )
        return "numpy"
    return request


def active_backend() -> str:
    """The backend the current environment resolves to (no override)."""
    return resolve_backend(None)


def get_kernels(backend: str | None = None):
    """The kernel namespace for ``backend`` (resolved), or None for numpy.

    Returns the namespace of :func:`repro.kernels.native.
    build_native_kernels` for ``cnative``, and ``None`` for ``numpy`` —
    callers treat ``None`` as "run the original vectorised path".
    """
    resolved = resolve_backend(backend)
    if resolved == "numpy":
        return None
    return (_native or _import_native()).build_native_kernels()


#: :mod:`repro.kernels.native` once imported (an import statement costs
#: about a microsecond per call, and the serve path resolves its kernels
#: a few times a request).
_native = None


def _import_native():
    global _native
    from repro.kernels import native

    _native = native
    return native


def warmup(backend: str | None = None) -> str:
    """Force-compile every kernel of the resolved backend; returns its name.

    One tiny end-to-end call per engine seam: one split through the Table 1
    sweep (``run_chunk`` on ``H(1, 2, 1)``: a ``screen_splits`` call, then
    the eccentricity sweep of its survivor), a 1-source subset sweep, one
    closed-form ``next_hops`` call, a 2-message closed-form simulation on
    ``B(2,2)`` (the ``run_rounds`` kernel), a 2-message degrading scenario
    on ``B(2,2)`` with its dense table — a failed link, arc-disjoint
    reroute, capacity-1 retry buffers (the ``run_scenario`` kernel), 2
    messages of hotspot traffic (the ``hotspot_pairs`` kernel), and one
    tiny query body read and reply written (``read_query`` and
    ``write_replies``, the serve layer's JSON kernels).  After this
    returns, no C compile or first-call cost can land inside a benchmark key
    or a first request.  A no-op (beyond resolution) for ``numpy``.
    """
    resolved = resolve_backend(backend)
    if resolved == "numpy":
        return resolved
    import numpy as np

    from repro.graphs.apsp import batched_eccentricities, subset_distance_rows
    from repro.graphs.digraph import Digraph
    from repro.graphs.generators import de_bruijn
    from repro.otis.sweep import run_chunk
    from repro.routing.routers import ClosedFormRouter
    from repro.simulation.network import BatchedNetworkSimulator, BufferedLinkModel
    from repro.simulation.scenarios import FaultEvent, FaultPlan, Scenario
    from repro.simulation.workloads import hotspot_pairs

    graph = Digraph(2, [(0, 1), (1, 0)])
    run_chunk(1, 1, ((2, 1, 2),))
    batched_eccentricities(graph, 1, sources=[0], backend=resolved)
    subset_distance_rows(graph, [0], backend=resolved)
    b22 = de_bruijn(2, 2)
    router = ClosedFormRouter.for_graph(b22)
    router.next_hops(np.array([0, 3]), np.array([3, 0]))
    sim = BatchedNetworkSimulator(b22, router=router, kernels=resolved)
    sim.run_many([[(0, 3, 0.0), (3, 0, 0.0)]], return_messages=False)
    scenario = Scenario(
        link=BufferedLinkModel(capacity=1, on_full="retry"),
        faults=FaultPlan((FaultEvent(0.0, "link_down", 1),)),
        reroute="arc-disjoint",
    )
    sim = BatchedNetworkSimulator(b22, scenario=scenario, kernels=resolved)
    sim.run_many([[(0, 3, 0.0), (3, 0, 0.0)]], return_messages=False)
    hotspot_pairs(4, 2, rng=0)
    kern = get_kernels(resolved)
    kern.read_query(b'{"op": "next-hop", "topology": "t", "pairs": [[0, 3]]}')
    kern.write_replies(0, [1], [9, 2], b'{"hops": }\n', np.array([3]))
    return resolved


def diagnostics() -> str:
    """One line per backend for ``repro --version``-style output."""
    requested = os.environ.get(ENV_VAR, "auto") or "auto"
    active = active_backend()
    lines = [f"kernels: {active} ({ENV_VAR}={requested})"]
    for backend in KERNEL_BACKENDS:
        status = "available" if _probe(backend) else "unavailable"
        note = ""
        if backend == "cnative" and _probe(backend):
            from repro.kernels import native

            note = f" ({native.library_path()})"
        lines.append(f"  {backend}: {status}{note}")
    return "\n".join(lines)
