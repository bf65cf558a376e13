"""Kernel-based independence bounds on finite graphs.

The desk-scale counterpart of the packing bound: for a finite loopless graph,
find a kernel K with K - J positive semidefinite and K(x, y) <= 0 on distinct
nonadjacent pairs; any B >= max_x K(x, x) then bounds the independence
number.  Minimizing B gives exactly the theta-prime variant of the Lovasz
number, solved here with the embedded SDP solver.  A branch-and-bound search
provides the exact independence number for small graphs as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sdp import Block, LinearTerm, SdpProblem
from .solver import solve


@dataclass(frozen=True)
class FiniteGraph:
    """Undirected graph without loops, as a symmetric boolean adjacency."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if a.diagonal().any():
            raise ValueError("graph must not have loops")
        if not (a == a.T).all():
            raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @classmethod
    def from_edges(cls, n: int, edges) -> "FiniteGraph":
        a = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError("loops are not allowed")
            a[u, v] = a[v, u] = True
        return cls(a)


def cycle_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [])


def petersen_graph() -> FiniteGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return FiniteGraph.from_edges(10, outer + spokes + inner)


def _int(token: str, line: str) -> int:
    """The integer `token` of `line`; anything else is refused, naming the line."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{token.strip()!r} is not an integer in {line!r}") from None


def _vertex(token: str, first: int, n: int, line: str) -> int:
    """The 0-based vertex that `token` of `line` names, counting from `first`; one out of range is refused."""
    v = _int(token, line) - first
    if not 0 <= v < n:
        raise ValueError(f"vertex {token.strip()} outside {first}..{n - 1 + first} in {line!r}")
    return v


def parse_graph(text: str) -> FiniteGraph:
    """Parse an adjacency-list or DIMACS-like edge-list description.

    DIMACS-like: lines "p edge N M" then "e u v" with 1-based vertices.
    Adjacency list: first line is the vertex count, then "u: v w ..." lines
    with 0-based vertices.  Comment lines start with "c" or "#".
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith(("c ", "#"))]
    if not lines:
        raise ValueError("empty graph description")
    if lines[0].startswith("p"):
        parts = lines[0].split()
        if len(parts) < 3:
            raise ValueError(f"no vertex count in {lines[0]!r}")
        n = _int(parts[2], lines[0])
        edges = []
        for ln in lines[1:]:
            if ln.startswith("e"):
                parts = ln.split()
                if len(parts) != 3:
                    raise ValueError(f"expected 'e u v', got {ln!r}")
                edges.append((_vertex(parts[1], 1, n, ln), _vertex(parts[2], 1, n, ln)))
        return FiniteGraph.from_edges(n, edges)
    n = _int(lines[0], lines[0])
    edges = []
    for ln in lines[1:]:
        head, colon, rest = ln.partition(":")
        if not colon:
            raise ValueError(f"expected 'u: v w ...', got {ln!r}")
        u = _vertex(head, 0, n, ln)
        for tok in rest.split():
            v = _vertex(tok, 0, n, ln)
            if u != v:
                edges.append((u, v))
    return FiniteGraph.from_edges(n, edges)


def theta_prime_bound(g: FiniteGraph) -> float:
    """Optimal kernel bound on the independence number (theta prime).

    Solves  min B  s.t.  K - J >= 0 (PSD), K(x, y) <= 0 for distinct
    nonadjacent x, y, and K(x, x) <= B, with the embedded interior-point
    solver.  Raises RuntimeError when the solver fails.
    """
    n = g.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    # Variables: Y = K - J (PSD block), B (1x1 diagonal, B >= 1 > 0 holds at
    # any feasible point so the sign restriction is harmless), slack vectors.
    nonadj = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not g.adjacency[i, j]
    ]
    blocks = [Block("Y", n, "psd"), Block("B", 1, "diag")]
    ineqs = []
    for i, j in nonadj:
        E = np.zeros((n, n))
        E[i, j] = E[j, i] = 0.5
        ineqs.append(LinearTerm({"Y": E}, -1.0, f"offdiag[{i},{j}]"))  # Y_ij + 1 <= 0
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        ineqs.append(LinearTerm({"Y": E, "B": -np.ones(1)}, -1.0, f"diag[{i}]"))  # Y_ii + 1 - B <= 0
    problem = SdpProblem(blocks, {"B": np.ones(1)}, [], ineqs)
    sol = solve(problem, gap_tol=1e-8, feas_tol=1e-8)
    if not sol.is_usable():
        raise RuntimeError(f"theta-prime solve failed with status {sol.status}")
    return float(sol.blocks["B"][0])


def brute_force_alpha(g: FiniteGraph) -> int:
    """Exact independence number by branch and bound (n <= 30)."""
    n = g.n
    if n > 30:
        raise ValueError(f"graph too large for exhaustive search (n={n} > 30)")
    adj_bits = [0] * n
    for i in range(n):
        for j in range(n):
            if g.adjacency[i, j]:
                adj_bits[i] |= 1 << j
    best = 0

    def grow(candidates: int, size: int):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return  # cannot beat the incumbent
        if candidates == 0:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        grow(candidates & ~((1 << v) | adj_bits[v]), size + 1)  # take v
        grow(candidates & ~(1 << v), size)  # skip v
    grow((1 << n) - 1, 0)
    return best
