"""The OTIS free-space optical substrate and its induced digraphs.

The Optical Transpose Interconnection System ``OTIS(p, q)`` (Marsden et al.,
ref. [25]; Section 4.1 of the paper) connects ``p`` groups of ``q``
transmitters to ``q`` groups of ``p`` receivers with ``p + q`` lenses, wiring
transmitter ``(i, j)`` to receiver ``(q-j-1, p-i-1)``.

This package models that architecture and everything the paper builds on it:

* :mod:`repro.otis.architecture` — the optical wiring itself (transmitter →
  receiver permutation, lens groups, per-connection optical paths),
* :mod:`repro.otis.h_digraph` — the induced processor digraph ``H(p, q, d)``
  of Section 4.2,
* :mod:`repro.otis.layout` — OTIS layouts of arbitrary digraphs and the
  paper's optimal ``Θ(√n)``-lens layouts of the de Bruijn digraph
  (Corollaries 4.4 / 4.6), plus the known ``O(n)``-lens Imase–Itoh layout,
* :mod:`repro.otis.search` — the degree–diameter exhaustive search that
  regenerates Table 1,
* :mod:`repro.otis.sweep` — the chunk store behind that search:
  deterministic chunk manifest, atomic per-chunk result store, merge step
  and the on-disk split-verdict cache (filled by :mod:`repro.fleet`),
* :mod:`repro.otis.hardware` — a parametric hardware cost / power model of
  the free-space optical system (the substitution for physical hardware
  documented in DESIGN.md).
"""

from repro.otis.architecture import OTISArchitecture
from repro.otis.h_digraph import h_digraph, otis_node_assignment
from repro.otis.hardware import HardwareModel, OpticalTechnology
from repro.otis.layout import (
    OTISLayout,
    debruijn_layout,
    imase_itoh_layout,
    kautz_layout,
    optimal_debruijn_layout,
)
from repro.otis.search import (
    DegreeDiameterResult,
    candidate_splits,
    degree_diameter_search,
    table1_rows,
)
from repro.otis.sweep import (
    ChunkManifest,
    ChunkStore,
    SplitVerdictCache,
    merge_sweep,
)

__all__ = [
    "OTISArchitecture",
    "h_digraph",
    "candidate_splits",
    "otis_node_assignment",
    "OTISLayout",
    "debruijn_layout",
    "optimal_debruijn_layout",
    "imase_itoh_layout",
    "kautz_layout",
    "DegreeDiameterResult",
    "degree_diameter_search",
    "table1_rows",
    "ChunkManifest",
    "ChunkStore",
    "SplitVerdictCache",
    "merge_sweep",
    "HardwareModel",
    "OpticalTechnology",
]
