"""Degree–diameter exhaustive search over OTIS digraphs (Table 1).

Section 4.3 of the paper asks: for a fixed degree ``d`` and diameter ``D``,
what is the largest digraph of the family ``H(p, q, d)`` — i.e. the largest
network realisable with a single OTIS system and ``d`` transceivers per
processor?  The authors answer by exhaustive search for ``d = 2`` and
``D ∈ {8, 9, 10}``; Table 1 lists, for each diameter, the node counts ``n``
near the optimum together with the splits ``(p, q)`` that achieve them, the
de Bruijn digraph ``B(2, D)`` sitting at ``n = 2^D``, and the Kautz digraph
``K(2, D)`` at the very top with ``n = 3 · 2^{D-1}``.

This module re-runs that search:

* :func:`candidate_splits` — all ``(p, q)`` with ``p*q = n*d`` and ``p <= q``
  (the paper lists layouts with ``p <= q``; the reverse split lays out the
  converse digraph, Section 4.2),
* :func:`h_diameter` — staged diameter computation with early rejection: a
  forward BFS screen, a reverse BFS screen (together they decide strong
  connectivity), then the batched bit-parallel eccentricity sweep of
  :mod:`repro.graphs.apsp` with early abort at the target diameter.  It is
  the generic, per-digraph oracle; the sweep itself screens a whole chunk
  of splits in one compiled ``screen_splits`` call and hands only the
  survivors to the same eccentricity stage (see :mod:`repro.otis.sweep`),
* :func:`degree_diameter_search` — sweep a range of ``n`` in this process
  and report every ``(n, p, q)`` whose OTIS digraph has exactly the
  requested diameter,
* :func:`table1_rows` — the paper's Table 1 rows regenerated (restricted, by
  default, to the ``n`` range the paper prints).

The in-process search is one serial loop: it expands each ``n`` into its
candidate splits, cuts that ``(n, p, q)`` work list into slices of
``chunk_size`` items and runs each slice through
:func:`repro.otis.sweep.run_chunk`.  The partition is a pure function of
the parameters, so nothing needs a name until it is persisted: the fleet
path (``python -m repro fleet sweep``: any number of workers on one chunk
store) names the same slices in its chunk manifest.  Both paths fold their
records through :func:`repro.otis.sweep.fold_records` and consult the
on-disk :class:`repro.otis.sweep.SplitVerdictCache` of ``h_diameter``
verdicts when a ``cache`` is supplied — overlapping Table 1 blocks share
many splits, and the verdicts are pure functions of ``(p, q, d, D)``.

The expensive part is the all-pairs stage; it runs on the bit-packed
``(n, ceil(n/64))`` reachability matrix of
:func:`repro.graphs.apsp.batched_eccentricities`, so no ``n × n`` int64
distance matrix is ever materialised on the search path (the matrix-based
:func:`repro.graphs.properties.distance_matrix`, on the same sweep, is
checked against a per-source BFS by the tests).  See ``docs/apsp.md`` for
the engine's contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.apsp import batched_eccentricities
from repro.graphs.digraph import RegularDigraph
from repro.graphs.moore import kautz_order
from repro.graphs.traversal import (
    bfs_distances_regular,
    reverse_bfs_distances_regular,
)

__all__ = [
    "candidate_splits",
    "h_diameter",
    "eccentricity_verdict",
    "DegreeDiameterResult",
    "degree_diameter_search",
    "table1_rows",
    "PAPER_TABLE1",
]

#: The rows of Table 1 exactly as printed in the paper: for each diameter,
#: a list of ``(n, [(p, q), ...])`` pairs (splits with ``p <= q``), annotated
#: with the named digraphs ``B(2, D)`` and ``K(2, D)`` where the paper does.
PAPER_TABLE1: dict[int, list[tuple[int, list[tuple[int, int]]]]] = {
    8: [
        (253, [(2, 253)]),
        (254, [(2, 254)]),
        (255, [(2, 255)]),
        (256, [(2, 256), (4, 128), (16, 32)]),  # B(2,8)
        (258, [(2, 258)]),
        (264, [(2, 264)]),
        (288, [(2, 288)]),
        (384, [(2, 384)]),  # K(2,8)
    ],
    9: [
        (509, [(2, 509)]),
        (510, [(2, 510)]),
        (511, [(2, 511)]),
        (512, [(2, 512), (8, 128)]),  # B(2,9)
        (513, [(2, 513)]),
        (516, [(2, 516)]),
        (528, [(2, 528)]),
        (576, [(2, 576)]),
        (768, [(2, 768)]),  # K(2,9)
    ],
    10: [
        (1022, [(2, 1022)]),
        (1023, [(2, 1023)]),
        (1024, [(2, 1024), (4, 512), (8, 256), (16, 128), (32, 64)]),  # B(2,10)
        (1026, [(2, 1026)]),
        (1032, [(2, 1032)]),
        (1056, [(2, 1056)]),
        (1152, [(2, 1152)]),
        (1536, [(2, 1536)]),  # K(2,10)
    ],
}


def candidate_splits(n: int, d: int) -> list[tuple[int, int]]:
    """All OTIS splits ``(p, q)`` with ``p*q = n*d`` and ``p <= q``."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    m = n * d
    splits = []
    p = 1
    while p * p <= m:
        if m % p == 0:
            splits.append((p, m // p))
        p += 1
    return splits


def h_diameter(
    graph: RegularDigraph,
    upper_bound: int | None = None,
    *,
    backend: str | None = None,
) -> int:
    """Diameter of an OTIS digraph with staged early rejection.

    Returns ``-1`` when the digraph is not strongly connected.  When
    ``upper_bound`` is given and a diameter lower bound already exceeds it,
    the (useless for the search) exact value is not computed and
    ``upper_bound + 1`` is returned as a sentinel meaning "too large".  A
    negative ``upper_bound`` raises ``ValueError``: its sentinel would read
    as a legal diameter.

    The screening order follows the cost ladder:

    1. one forward BFS from vertex 0 — detects forward-unreachable vertices
       and yields the diameter lower bound ``ecc(0)``;
    2. one reverse BFS to vertex 0 — together with stage 1 this decides
       strong connectivity, and ``max_u d(u, 0)`` is another diameter lower
       bound;
    3. the batched bit-parallel eccentricity sweep
       (:func:`repro.graphs.apsp.batched_eccentricities`), which aborts the
       moment any eccentricity is certain to exceed ``upper_bound``.  No
       ``(n, n)`` int64 matrix is allocated at any stage.

    Stages 1-2 are the vectorised BFS pair of :mod:`repro.graphs.traversal`
    under every backend: this function is the per-digraph oracle of the
    compiled ``screen_splits`` kernel the sweep runs.  ``backend`` selects
    the kernel backend of stage 3 (see :mod:`repro.kernels`); ``None``
    resolves ``REPRO_KERNELS``.  Verdicts are identical.
    """
    if upper_bound is not None and upper_bound < 0:
        raise ValueError(f"upper_bound must be non-negative, got {upper_bound}")
    if graph.num_vertices <= 1:
        return 0
    # Stage 1: forward BFS from vertex 0.
    dist0 = bfs_distances_regular(graph, 0)
    if np.any(dist0 < 0):
        return -1
    if upper_bound is not None and int(dist0.max()) > upper_bound:
        return upper_bound + 1
    # Stage 2: reverse BFS to vertex 0 — completes the connectivity check
    # before the all-pairs stage is paid for.
    rdist0 = reverse_bfs_distances_regular(graph, 0)
    if np.any(rdist0 < 0):
        return -1
    if upper_bound is not None and int(rdist0.max()) > upper_bound:
        return upper_bound + 1
    return eccentricity_verdict(graph, upper_bound, backend=backend)


def eccentricity_verdict(
    graph: RegularDigraph,
    upper_bound: int | None = None,
    *,
    backend: str | None = None,
) -> int:
    """Stage 3 of :func:`h_diameter` on a strongly connected digraph.

    The batched bit-parallel sweep over all sources at once.  The caller
    has settled connectivity (stages 1-2, or the sweep's ``screen_splits``
    call), so an abort can only mean the diameter exceeds the bound:
    ``upper_bound + 1`` is returned, else the exact diameter.
    """
    ecc, aborted = batched_eccentricities(
        graph, upper_bound=upper_bound, backend=backend
    )
    if aborted:
        return upper_bound + 1
    return int(ecc.max())


@dataclass(frozen=True)
class DegreeDiameterResult:
    """Outcome of the exhaustive search for one diameter value.

    Attributes
    ----------
    d:
        Degree (transceivers per node).
    diameter:
        The target diameter.
    rows:
        List of ``(n, splits)`` pairs, in increasing ``n``: every node count
        in the searched range for which at least one OTIS split yields a
        strongly connected ``H(p, q, d)`` of exactly this diameter, together
        with all such splits (``p <= q``).
    n_range:
        The inclusive ``(n_min, n_max)`` range that was searched.
    """

    d: int
    diameter: int
    rows: list[tuple[int, list[tuple[int, int]]]]
    n_range: tuple[int, int]

    @property
    def largest_n(self) -> int:
        """The largest node count achieving the diameter (0 when none found)."""
        return self.rows[-1][0] if self.rows else 0

    def splits_for(self, n: int) -> list[tuple[int, int]]:
        """The splits recorded for a given node count (empty when absent)."""
        for row_n, splits in self.rows:
            if row_n == n:
                return splits
        return []

    def as_table(self) -> str:
        """Plain-text rendering in the shape of the paper's Table 1 block."""
        lines = [f"degree d={self.d}, diameter D={self.diameter}", "   n    p     q"]
        for n, splits in self.rows:
            first = True
            for p, q in splits:
                label = ""
                if n == self.d**self.diameter:
                    label = f"  B({self.d},{self.diameter})" if first else ""
                if n == kautz_order(self.d, self.diameter):
                    label = f"  K({self.d},{self.diameter})" if first else ""
                prefix = f"{n:6d}" if first else " " * 6
                lines.append(f"{prefix} {p:5d} {q:6d}{label}")
                first = False
        return "\n".join(lines)


def degree_diameter_search(
    d: int,
    diameter: int,
    n_min: int,
    n_max: int,
    *,
    require_exact: bool = True,
    n_values: list[int] | None = None,
    chunk_size: int = 64,
    cache: "object | str | None" = None,
) -> DegreeDiameterResult:
    """Exhaustive search over ``H(p, q, d)`` for a given diameter.

    One process runs the whole ``(n, p, q)`` work list serially, in memory,
    in slices of ``chunk_size`` items.  The slices are the chunks a fleet
    run names in its manifest, and both paths fold their verdict records
    canonically (cf. the deterministic work-splitting of Bobpp-style
    exhaustive search), so the result is identical to a fleet run over a
    chunk store (:func:`repro.fleet.run_fleet` on a
    :class:`repro.fleet.SweepFleetJob`, then
    :func:`repro.otis.sweep.merge_sweep`) with any number of workers.  No
    result is persisted here, so no chunk is named.

    Parameters
    ----------
    d:
        Degree.
    diameter:
        The target diameter ``D``.
    n_min, n_max:
        Inclusive node-count range to sweep.
    require_exact:
        When True (default) only digraphs of *exactly* the target diameter
        are reported, matching the paper's table; when False, any diameter
        ``<= D`` qualifies.
    n_values:
        Optional explicit list of node counts to test instead of the full
        ``n_min..n_max`` sweep (used by the benchmarks to restrict the heavy
        diameter-10 block to the rows the paper prints).
    chunk_size:
        ``(n, p, q)`` work items per :func:`~repro.otis.sweep.run_chunk`
        call (the unit a fleet run persists as one chunk; results do not
        depend on it).
    cache:
        A :class:`repro.otis.sweep.SplitVerdictCache`, or a directory path
        from which one is opened keyed by ``(d, diameter, code_version)``.
        Memoised ``h_diameter`` verdicts are consulted before any graph is
        built, so overlapping Table 1 blocks and repeated runs skip the
        expensive all-pairs stage entirely.

    Returns
    -------
    DegreeDiameterResult
    """
    from repro.otis.sweep import (
        SplitVerdictCache,
        check_chunking,
        fold_records,
        run_chunk,
    )

    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    check_chunking(chunk_size, diameter)
    if n_values is None:
        sweep_ns = range(n_min, n_max + 1)
    else:
        sweep_ns = sorted({int(n) for n in n_values})
    items = [(n, p, q) for n in sweep_ns for p, q in candidate_splits(n, d)]
    # One shared cache view across all slices, so a caller-supplied cache
    # object accumulates its hit/miss ledger.
    if cache is not None and not isinstance(cache, SplitVerdictCache):
        cache = SplitVerdictCache(cache, d, diameter)
    records: list[dict] = []
    for start in range(0, len(items), chunk_size):
        records.extend(
            run_chunk(d, diameter, tuple(items[start : start + chunk_size]), cache)
        )
    return fold_records(
        records,
        d=d,
        diameter=diameter,
        require_exact=require_exact,
        n_range=(n_min, n_max),
    )


def table1_rows(
    diameter: int,
    d: int = 2,
    n_min: int | None = None,
    n_max: int | None = None,
    *,
    printed_rows_only: bool = False,
    cache: "object | str | None" = None,
) -> DegreeDiameterResult:
    """Regenerate one block of Table 1.

    By default the searched range matches what the paper prints: from the
    first row shown for that diameter up to the Kautz order
    ``3 · 2^{D-1}`` (the table's maximum).  With ``printed_rows_only=True``
    only the node counts printed by the paper are tested (much faster for the
    diameter-10 block; the full sweep is run by
    ``examples/degree_diameter_search.py``).

    ``cache`` (a :class:`repro.otis.sweep.SplitVerdictCache` or a directory
    path) memoises the per-split verdicts on disk: the Table 1 blocks share
    many ``(p, q)`` splits, so warming the cache on one block speeds up the
    others — and makes a repeated run of the same block near-instant (the
    cold-vs-warm timing is tracked in ``BENCH_table1.json`` by
    ``benchmarks/test_sweep_cache.py``).

    >>> result = table1_rows(8, n_min=255, n_max=256)
    >>> result.splits_for(256)
    [(2, 256), (4, 128), (16, 32)]
    """
    if diameter not in PAPER_TABLE1 and (n_min is None or n_max is None):
        raise ValueError(
            "for diameters not printed in the paper, pass n_min and n_max explicitly"
        )
    if n_min is None:
        n_min = PAPER_TABLE1[diameter][0][0]
    if n_max is None:
        n_max = PAPER_TABLE1[diameter][-1][0]
    n_values = None
    if printed_rows_only and diameter in PAPER_TABLE1:
        n_values = [
            n for n, _ in PAPER_TABLE1[diameter] if n_min <= n <= n_max
        ]
    return degree_diameter_search(
        d, diameter, n_min, n_max, n_values=n_values, cache=cache
    )


def compare_with_paper(result: DegreeDiameterResult) -> dict[str, object]:
    """Compare a search result against the printed Table 1 rows.

    Returns a dictionary with the paper rows restricted to the searched range,
    the measured rows, and per-row agreement flags.  Only node counts printed
    by the paper are compared (the paper's table elides intermediate rows with
    an ellipsis).
    """
    if result.diameter not in PAPER_TABLE1:
        raise ValueError(f"paper does not print diameter {result.diameter}")
    n_lo, n_hi = result.n_range
    expected = [
        (n, splits)
        for n, splits in PAPER_TABLE1[result.diameter]
        if n_lo <= n <= n_hi
    ]
    agreement = []
    for n, splits in expected:
        measured = result.splits_for(n)
        agreement.append(
            {
                "n": n,
                "paper_splits": splits,
                "measured_splits": measured,
                "match": sorted(splits) == sorted(measured),
            }
        )
    return {
        "diameter": result.diameter,
        "rows_compared": len(expected),
        "all_match": all(entry["match"] for entry in agreement),
        "rows": agreement,
    }
