"""SDPA sparse-format export/import and the solution text format.

The exported .dat-s file encodes the problem in the usual convention, where
a reader solves

    max tr(F0 Y)  s.t.  tr(Fi Y) = c_i,  Y >= 0 block-diagonal,

so the writer emits F0 = -C (our problems minimize), Fi = A_i and c = b with
inequalities already rewritten through the slack block.  An external solver's
optimal Y is then exactly our primal X, and its objective is the negative of
ours.  Entry lines are "matno blockno i j value" with 1-based indices,
i <= j, and diagonal blocks flagged by a negative dimension.  Ordering and
float repr are canonical, so export -> parse -> export is byte-identical.

Solution files follow the classic layout: one line with the dual vector y,
then entries "1 blk i j v" for the dual slack matrix and "2 blk i j v" for
the primal matrix.
"""

from __future__ import annotations

import numpy as np

from .sdp import Block, LinearTerm, SdpProblem, SdpSolution, standard_form


class MalformedFileError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


def export_sdpa(p: SdpProblem) -> str:
    """Serialize a problem (inequalities via slacks) to SDPA sparse format."""
    p.validate()
    blocks, objective, eqs = standard_form(p)
    lines = ['"pentapack sdpa export v1']
    lines.append(f"{len(eqs)}")
    lines.append(f"{len(blocks)}")
    lines.append(" ".join(str(b.dim if b.kind == "psd" else -b.dim) for b in blocks))
    lines.append(" ".join(repr(float(t.rhs)) for t in eqs))
    negated = {lab: -np.asarray(c, dtype=float) for lab, c in objective.items()}
    lines += _entry_lines(blocks, [negated] + [t.coeffs for t in eqs])
    return "\n".join(lines) + "\n"


def _entry_lines(blocks: list[Block], mats: list[dict | None], first: int = 0) -> list[str]:
    """The lines "matno blockno i j value" of the nonzero upper-triangle entries, 1-based, in that
    order; mats[k] (None for no entries) is matrix first + k.  Each block's matrices are stacked,
    each distinct value of a block is formatted once, and a line joins the cached texts "matno "
    and "blockno i j " to its value's."""
    keys, lines = [np.zeros(0, dtype=int)], []
    matnos = [f"{m} " for m in range(first, first + len(mats))]
    for bno, blk in enumerate(blocks, start=1):
        have = np.array([k for k, m in enumerate(mats) if m is not None and blk.label in m], dtype=int)
        if not have.size:
            continue
        stack = np.array([np.asarray(mats[k][blk.label], dtype=float) for k in have])
        n = blk.dim
        if blk.kind == "psd":
            k, i, j = np.nonzero((stack != 0.0) & np.triu(np.ones((n, n), dtype=bool)))
            vals, cell = stack[k, i, j], i * n + j
            cells = [f"{bno} {a} {b} " for a in range(1, n + 1) for b in range(1, n + 1)]
        else:
            k, cell = np.nonzero(stack != 0.0)
            vals = stack[k, cell]
            cells = [f"{bno} {a} {a} " for a in range(1, n + 1)]
        distinct, which = np.unique(vals, return_inverse=True)  # no zeros, so no -0.0 beside 0.0
        texts = [repr(v) for v in distinct.tolist()]
        keys.append(have[k])
        lines += [matnos[m] + cells[c] + texts[u]
                  for m, c, u in zip(have[k].tolist(), cell.tolist(), which.tolist())]
    return [lines[n] for n in np.argsort(np.concatenate(keys), kind="stable").tolist()]  # blocks stay in order


def _entry_fields(ln: str) -> tuple[int, int, int, int, float]:
    """The fields (matno, blockno, i, j, value) of an entry line; the value must be finite."""
    parts = ln.split()
    if len(parts) != 5:
        raise MalformedFileError(f"bad entry line: {ln!r}")
    try:
        matno, bno, i, j = (int(v) for v in parts[:4])
        val = float(parts[4])
    except ValueError:
        raise MalformedFileError(f"non-numeric field in entry line: {ln!r}") from None
    if not np.isfinite(val):
        raise MalformedFileError(f"non-finite value in entry line: {ln!r}")
    return matno, bno, i, j, val


def _store(mats: dict[str, np.ndarray], blk: Block, i: int, j: int, val: float) -> None:
    """Set entry (i, j), 1-based, of `blk` in `mats`, and (j, i) of a psd block; a missing matrix starts at zero."""
    if blk.kind != "psd" and i != j:
        raise MalformedFileError("off-diagonal entry in diagonal block")
    if blk.label not in mats:
        mats[blk.label] = np.zeros((blk.dim, blk.dim) if blk.kind == "psd" else blk.dim)
    if blk.kind == "psd":
        mats[blk.label][i - 1, j - 1] = mats[blk.label][j - 1, i - 1] = val
    else:
        mats[blk.label][i - 1] = val


def parse_sdpa(text: str) -> SdpProblem:
    """Parse SDPA sparse format back into a problem (equalities only)."""
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln[0] in '"*':
            continue
        rows.append(ln)
    if len(rows) < 4:
        raise MalformedFileError("truncated SDPA file")
    try:
        m = int(rows[0])
        nblocks = int(rows[1])
        dims = [int(v) for v in rows[2].replace(",", " ").split()]
        rhs = [float(v) for v in rows[3].replace(",", " ").split()]
    except ValueError as e:
        raise MalformedFileError(f"bad SDPA header: {e}") from e
    if not np.isfinite(rhs).all():
        raise MalformedFileError(f"non-finite right-hand side: {rows[3]!r}")
    if len(dims) != nblocks:
        raise MalformedFileError("block count does not match dimension list")
    if len(rhs) != m:
        raise MalformedFileError("right-hand side length does not match m")
    blocks = [
        Block(f"B{i + 1}" if d > 0 else f"D{i + 1}", abs(d), "psd" if d > 0 else "diag")
        for i, d in enumerate(dims)
    ]
    mats: list[dict[str, np.ndarray]] = [dict() for _ in range(m + 1)]
    for ln in rows[4:]:
        matno, bno, i, j, val = _entry_fields(ln)
        if not (0 <= matno <= m and 1 <= bno <= nblocks):
            raise MalformedFileError(f"entry indices out of range: {ln!r}")
        blk = blocks[bno - 1]
        if not (1 <= i <= j <= blk.dim):
            raise MalformedFileError(f"matrix indices out of range: {ln!r}")
        _store(mats[matno], blk, i, j, val)
    objective = {lab: -mat for lab, mat in mats[0].items()}
    eqs = [LinearTerm(mats[k], rhs[k - 1], f"row[{k}]") for k in range(1, m + 1)]
    return SdpProblem(blocks, objective, eqs, [])


def export_solution(sol: SdpSolution, p: SdpProblem) -> str:
    """Serialize a solution in the dual-vector-then-entries layout."""
    blocks, _, eqs = standard_form(p)
    if len(sol.y) != len(eqs):
        raise DimensionMismatchError("dual vector length does not match problem")
    lines = ['"pentapack solution v1', " ".join(repr(float(v)) for v in sol.y)]
    lines += _entry_lines(blocks, [sol.dual_blocks, sol.blocks], first=1)
    lines.append('"end')
    return "\n".join(lines) + "\n"


def import_solution(text: str, p: SdpProblem) -> SdpSolution:
    """Parse a solution file and map blocks back onto the problem's labels.

    An entry line sets (i, j) and (j, i) of a psd block, so the matrices
    are symmetric, and a later line for the same pair wins; the objective is
    recomputed from the imported primal blocks.
    """
    blocks, _, eqs = standard_form(p)
    raw = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not raw or raw[0] != '"pentapack solution v1' or raw[-1] != '"end':
        raise MalformedFileError("missing solution header or terminator (truncated file?)")
    rows = [ln for ln in raw if ln[0] not in '"*']
    if not rows:
        raise MalformedFileError("empty solution file")
    try:
        y = np.array([float(v) for v in rows[0].split()])
    except ValueError as e:
        raise MalformedFileError(f"bad dual vector line: {e}") from e
    if not np.isfinite(y).all():
        raise MalformedFileError(f"non-finite value in dual vector line: {rows[0]!r}")
    if len(y) != len(eqs):
        raise DimensionMismatchError(
            f"dual vector has {len(y)} entries, problem has {len(eqs)} constraints"
        )
    prim: dict[str, np.ndarray] = {}
    dual: dict[str, np.ndarray] = {}
    for blk in blocks:
        zero = np.zeros((blk.dim, blk.dim)) if blk.kind == "psd" else np.zeros(blk.dim)
        prim[blk.label] = zero.copy()
        dual[blk.label] = zero.copy()
    for ln in rows[1:]:
        matno, bno, i, j, val = _entry_fields(ln)
        if matno not in (1, 2):
            raise MalformedFileError(f"unknown matrix number {matno}")
        if not (1 <= bno <= len(blocks)):
            raise DimensionMismatchError(f"block number out of range: {ln!r}")
        blk = blocks[bno - 1]
        if not (1 <= i <= blk.dim and 1 <= j <= blk.dim):
            raise DimensionMismatchError(f"matrix indices out of range: {ln!r}")
        _store(prim if matno == 2 else dual, blk, i, j, val)
    return SdpSolution(
        blocks=prim, y=y, objective=p.value(p.objective, prim), status="imported", gap=float("nan"),
        iterations=0, dual_blocks=dual, stop_reason="imported",
    )
