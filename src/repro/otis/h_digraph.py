"""The OTIS-induced processor digraph ``H(p, q, d)`` (Section 4.2).

Let ``m = p*q`` and let ``d`` divide ``m``.  ``OTIS(p, q)`` connects ``m``
transmitters to ``m`` receivers; grouping them ``d`` at a time onto
``n = m/d`` processors yields the ``d``-regular digraph ``H(p, q, d)``:

* node ``u`` owns transmitters ``(⌊(du+λ)/q⌋, (du+λ) mod q)`` for
  ``λ ∈ Z_d``,
* node ``u`` owns receivers ``(⌊(du+λ)/p⌋, (du+λ) mod p)`` for ``λ ∈ Z_d``,
* there is an arc ``u → v`` whenever one of ``u``'s transmitters illuminates
  one of ``v``'s receivers.

Figure 7 of the paper draws ``H(4, 8, 2)``; the paper's results identify the
power-of-``d`` cases ``H(d^{p'}, d^{q'}, d)`` with alphabet digraphs
(Proposition 4.1) and characterise when they are de Bruijn digraphs
(Corollary 4.2).

A digraph ``G`` *has an OTIS(p, q)-layout* when it is isomorphic to
``H(p, q, d)``; that notion lives in :mod:`repro.otis.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.digraph import RegularDigraph

__all__ = ["h_digraph", "otis_node_assignment", "NodeAssignment"]


def h_digraph(p: int, q: int, d: int) -> RegularDigraph:
    """Construct the OTIS digraph ``H(p, q, d)``.

    Parameters
    ----------
    p, q:
        OTIS parameters (``p`` groups of ``q`` transmitters).
    d:
        Number of transceivers per processor; must divide ``p*q``.

    Returns
    -------
    RegularDigraph
        A ``d``-regular digraph on ``n = p*q/d`` vertices.  Successor slot
        ``λ`` of node ``u`` is the node receiving the beam of transmitter
        ``d*u + λ``.

    Examples
    --------
    >>> H = h_digraph(4, 8, 2)
    >>> H.num_vertices, H.degree
    (16, 2)
    >>> H.out_neighbors(0)          # 0000 -> {1101, 1111}  (Figure 7/8)
    [15, 13]
    """
    if p < 1 or q < 1 or d < 1:
        raise ValueError("p, q and d must be positive")
    m = p * q
    if m % d != 0:
        raise ValueError(f"d={d} must divide p*q={m}")
    n = m // d

    # Transmitter i*q + j lights receiver (q-j-1)*p + (p-i-1): entry (i, j)
    # of this (p, q) grid, so its row-major order is transmitter order.
    receiver_global = (
        np.arange(q - 1, -1, -1, dtype=np.int64) * p
        + np.arange(p - 1, -1, -1, dtype=np.int64)[:, None]
    )
    successors = (receiver_global // d).reshape(n, d)
    return RegularDigraph(successors, name=f"H({p},{q},{d})")


@dataclass(frozen=True)
class NodeAssignment:
    """The transceivers owned by one processor of ``H(p, q, d)``.

    Attributes
    ----------
    node:
        The processor index ``u ∈ Z_n``.
    transmitters:
        The ``d`` transmitter coordinates ``(i, j)`` owned by the node.
    receivers:
        The ``d`` receiver coordinates ``(a, b)`` owned by the node.
    """

    node: int
    transmitters: tuple[tuple[int, int], ...]
    receivers: tuple[tuple[int, int], ...]


def otis_node_assignment(p: int, q: int, d: int, node: int) -> NodeAssignment:
    """The transmitters and receivers assigned to ``node`` in ``H(p, q, d)``.

    This is the physical content of a layout: it tells the hardware designer
    which ``d`` VCSELs and which ``d`` photodetectors of the OTIS plane belong
    to each processor.
    """
    m = p * q
    if m % d != 0:
        raise ValueError(f"d={d} must divide p*q={m}")
    n = m // d
    if not 0 <= node < n:
        raise ValueError(f"node {node} out of range for H({p},{q},{d})")
    transmitters = tuple(
        ((d * node + lam) // q, (d * node + lam) % q) for lam in range(d)
    )
    receivers = tuple(
        ((d * node + lam) // p, (d * node + lam) % p) for lam in range(d)
    )
    return NodeAssignment(node=node, transmitters=transmitters, receivers=receivers)
