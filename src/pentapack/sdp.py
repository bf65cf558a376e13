"""Block-diagonal semidefinite programs and their solutions.

A problem is: minimize <C, X> over block-diagonal X >= 0 subject to linear
equality constraints <A_i, X> = b_i and inequality constraints <G_j, X> <= h_j.
Blocks are either dense symmetric ("psd") or diagonal ("diag"); diagonal
blocks hold entrywise-nonnegative vectors.  Constraint and objective data are
sparse over blocks: a mapping from block label to a dense symmetric matrix
(or a vector for diagonal blocks).

`standard_form` rewrites the inequalities with a slack block, which is also
the convention used by the SDPA file writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SLACK_LABEL = "SLACK"


@dataclass(frozen=True)
class Block:
    label: str
    dim: int
    kind: str = "psd"  # "psd" or "diag"

    def __post_init__(self):
        if self.kind not in ("psd", "diag"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("block dimension must be positive")


@dataclass
class LinearTerm:
    """One linear functional on the blocks, with right-hand side."""

    coeffs: dict[str, np.ndarray]
    rhs: float
    label: str = ""


@dataclass
class SdpProblem:
    blocks: list[Block]
    objective: dict[str, np.ndarray]
    eq_constraints: list[LinearTerm] = field(default_factory=list)
    ineq_constraints: list[LinearTerm] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Refuse duplicate labels, unknown blocks, wrong shapes, non-finite numbers and asymmetric psd coefficients.

        Symmetry is `np.allclose(c, c.T, atol=1e-12)` for every coefficient
        of a psd block, objective included, checked in one call per block;
        a stack equal to its transpose passes without it.
        """
        mats: dict[str, list[np.ndarray]] = {b.label: [] for b in self.blocks}
        if len(mats) != len(self.blocks):
            raise ValueError("duplicate block labels")
        for kind, terms in (("eq", self.eq_constraints), ("ineq", self.ineq_constraints)):
            for i, t in enumerate(terms):
                if not math.isfinite(t.rhs):
                    raise ValueError(f"right-hand side {t.rhs} of row {t.label or f'{kind}[{i}]'} is not finite")
        for term in [LinearTerm(self.objective, 0.0)] + self.eq_constraints + self.ineq_constraints:
            for lab, mat in term.coeffs.items():
                if lab not in mats:
                    raise KeyError(lab)
                mats[lab].append(np.asarray(mat))
        for blk in self.blocks:
            shape = (blk.dim, blk.dim) if blk.kind == "psd" else (blk.dim,)
            if any(mat.shape != shape for mat in mats[blk.label]):
                raise ValueError(f"bad coefficient shape for {blk.kind} block {blk.label}")
            stack = np.array(mats[blk.label]).reshape(-1, *shape)
            if not np.isfinite(stack).all():
                raise ValueError(f"coefficient for block {blk.label} is not finite")
            if blk.kind == "psd":
                transposed = stack.transpose(0, 2, 1)
                if not np.array_equal(stack, transposed) and not np.allclose(stack, transposed, atol=1e-12):
                    raise ValueError(f"coefficient for block {blk.label} is not symmetric")

    def value(self, term_coeffs: dict[str, np.ndarray], blocks: dict[str, np.ndarray]) -> float:
        """Evaluate a linear functional at a block assignment."""
        total = 0.0
        for lab, mat in term_coeffs.items():
            x = blocks[lab]
            total += float(np.tensordot(np.asarray(mat), x, axes=x.ndim))
        return total


@dataclass
class SdpSolution:
    blocks: dict[str, np.ndarray]
    y: np.ndarray
    objective: float
    status: str  # optimal | near-optimal | infeasible | numerical-failure
    gap: float
    iterations: int
    dual_blocks: dict[str, np.ndarray] | None = None
    # converged | stalled | step-stall | y-divergence | cholesky-failure |
    # max-iter for the embedded solver; imported for a read-in solution
    stop_reason: str = ""

    def is_usable(self) -> bool:
        return self.status in ("optimal", "near-optimal")


def stack_rows(blocks: list[Block], terms: list[LinearTerm]) -> tuple[np.ndarray, np.ndarray]:
    """The terms as dense rows of unit norm, and their right-hand sides scaled alike.

    A row runs over the blocks in the given order, each psd coefficient
    matrix flattened row-major and each diag vector as it is.  A row with no
    nonzero coefficient has no unit-norm form and raises ValueError.
    """
    offs, total = {}, 0
    for b in blocks:
        offs[b.label] = total
        total += b.dim * b.dim if b.kind == "psd" else b.dim
    rows, rhs = np.zeros((len(terms), total)), np.zeros(len(terms))
    for i, t in enumerate(terms):
        for lab, c in t.coeffs.items():
            c = np.asarray(c)
            rows[i, offs[lab]: offs[lab] + c.size] = c.ravel()
        n = np.linalg.norm(rows[i])
        if n == 0.0:
            raise ValueError(f"row {i} ({t.label!r}) has no nonzero coefficient")
        rows[i] /= n
        rhs[i] = t.rhs / n
    return rows, rhs


def standard_form(p: SdpProblem) -> tuple[list[Block], dict, list[LinearTerm]]:
    """Rewrite inequalities <G, X> <= h as equalities with slack variables.

    Returns (blocks, objective, equality constraints) where a diagonal block
    SLACK with one entry per inequality has been appended (when inequalities
    exist).  Constraint order: all original equalities, then inequalities.
    """
    blocks = list(p.blocks)
    eqs = [LinearTerm(dict(t.coeffs), t.rhs, t.label) for t in p.eq_constraints]
    if p.ineq_constraints:
        ns = len(p.ineq_constraints)
        blocks.append(Block(SLACK_LABEL, ns, "diag"))
        for i, t in enumerate(p.ineq_constraints):
            coeffs = dict(t.coeffs)
            e = np.zeros(ns)
            e[i] = 1.0
            coeffs[SLACK_LABEL] = e
            eqs.append(LinearTerm(coeffs, t.rhs, t.label or f"ineq[{i}]"))
    return blocks, dict(p.objective), eqs
