"""Primal-dual interior-point solver for block-diagonal SDPs.

Infeasible-start path following with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Problem sizes here are small (blocks of dimension
up to a few dozen, around a thousand constraints), so all but the diag
blocks is dense: the Newton system is reduced to the Schur complement
M[i,j] = <A_i, W A_j W>, which is symmetric positive definite under NT
scaling and solved by Cholesky.

M is assembled block by block.  A psd block's rows split into runs of
consecutive constraint indices, and its dense product is added into M one
basic slice per pair of runs.  A diag block adds the outer product
w_j^2 a_j a_j^T of each column j over that column's nonzero rows, so the
slack block of the inequalities adds only its diagonal.  Within one
iteration the factors of X and Z, W Rd W and the Cholesky factor of M serve
both the predictor and the corrector.

Every float of a solve is fixed, since one ulp in M moves the paper's bound
by about 2e-6; these things make the iteration cheaper without moving one:

- The psd blocks of one size live in one (k, n, n) stack (a group), and
  each per-matrix kernel (eigh, cholesky, solve, eigvalsh, matmul) runs
  once per stack; the step lengths of X and Z run as one stack of X's
  factors then Z's.  numpy's linalg gufuncs and matmul call the same LAPACK
  or BLAS routine on each matrix of a stack as on that matrix alone.  What
  sums across entries of a block or across blocks (inner products, norms,
  A(X), A*(y), the Newton right-hand side, M itself) still runs block by
  block in label order, because its summation order fixes the bits.
- The NT scaling forms only the roots it uses, X^(1/2) and
  (X^(1/2) Z X^(1/2))^(-1/2), each the same product as beside its sibling.
- The step test factors sym(X + a dX) for every block to see that the step
  stays interior.  The update of an accepted step is that same expression,
  so its factors are the next X's and the next step-length computation
  takes them instead of factoring X again; likewise for Z and for a
  restored X.
- W A_j W replays the two gemms that np.einsum("ij,kjl,lm->kim", W, A, W)
  makes on its optimized path, with A's transpose copied once per block
  instead of once per call.  The second gemm takes its rows in einsum's
  (i, k) order.  Reordering the rows of a gemm's left operand is not exact:
  on OpenBLAS's SkylakeX kernels the (k, i) order, which would spare a
  copy, gave the same bits, but on its Haswell kernels it moved the bits of
  a solve.  The plain stacked W @ A @ W multiplies in another order and
  differs in the last bit at n = 36.
- An X left as it was by the feasibility restoration passes on its
  b - A(X) as the next rp.  The Schur solves call LAPACK potrs, fetched
  once per solve, with the arguments scipy's cho_solve passes it.  With no
  shift the refinement's residual skips subtracting 0 x, which could change
  no more than the sign of a zero entry.
- M and the Gram matrix are factored by `cholesky_lower` straight into a
  Fortran-ordered buffer, the layout potrs reads without a copy.  It calls
  numpy's private gufunc `_umath_linalg.cholesky_lo`, the one
  np.linalg.cholesky calls, with an `out` argument that np.linalg.cholesky
  does not offer: the gufunc copies its input into the same column-major
  buffer and runs the same LAPACK potrf on it whatever the layout of `out`,
  so the factor has the same bits; only the copy of the result differs,
  column by column instead of the strided copy into C order (and then
  np.asfortranarray's second copy).  The private name is pinned against
  np.linalg.cholesky by the tests.
- A diag block keeps its nonzeros, and A(X), A*(y) and the Gram matrix sum
  only those.  A sum with one nonzero per row (A(X), Gram) or per column
  (A*(y)) is that one rounded product in the dense product too, as in the
  slack block; a column shared by several rows, like theta's B, may round
  A*(y) differently in the last bit.
- M and the Gram matrix start as np.zeros.  A pair of row runs that no
  earlier block in label order touches still holds those zeros, so
  `_add_runs` writes it as sub + 0.0 without reading M; x + 0.0 is 0.0 + x
  in IEEE arithmetic, -0.0 included (a plain copy would keep -0.0).  A
  shift retry forms M + 0.0 and adds the shift on the diagonal
  (`_shifted`), which is M + shift I: shift * 0.0 is +0.0 off the diagonal
  for a finite shift, and (M_ii + 0.0) + shift = M_ii + shift.

The search direction solves
    A(dX) = rp,   A*(dy) + dZ = Rd,   dX + W dZ W = R Uc R
where W is the NT scaling point (W Z W = X), R = W^(1/2), and Uc comes from
the symmetrized complementarity linearization in the scaled space (a Lyapunov
solve against V = R^(-1) X R^(-1)).  The predictor uses Uc = -V.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np
from numpy.linalg import _umath_linalg

from .sdp import SdpProblem, SdpSolution, standard_form

log = logging.getLogger("pentapack.solver")


MAX_ITER = 200
STEP_FRAC = 0.98  # fraction of the step to the cone boundary
SIGMA_FIXED = 0.3  # centering when the corrector is disabled
Y_DIVERGENCE = 1e10  # |y| beyond this reads as an infeasible problem


class _BlockData:
    """Dense constraint data for one block, restricted to its active rows."""

    def __init__(self, kind, dim, rows, A, C):
        self.kind = kind  # "psd" | "diag"
        self.dim = dim
        self.rows = rows  # indices of constraints touching this block, ascending
        self.A = A  # (mb, n, n) or (mb, n)
        self.C = C  # (n, n) or (n,)
        # (slice of M, slice of the block's rows) per run of consecutive rows
        cuts = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist(), len(rows)]
        self.runs = [(slice(rows[a], rows[b - 1] + 1), slice(a, b)) for a, b in zip(cuts, cuts[1:]) if b > a]
        if kind == "psd":
            # The A_k transposed, rows (k, l) and columns j: the left operand of the first gemm
            # of W A_k W.  When every A_k is symmetric bit for bit, as the assembly's are,
            # A itself has those bytes, and no copy is kept.
            At = A.transpose(0, 2, 1)
            self.At = (A if np.array_equal(A.view(np.uint64), At.view(np.uint64)) else At).reshape(-1, dim)
        else:
            # the nonzeros a_rj as (r, j, a_rj), column by column
            c, r = np.nonzero(A.T)
            self.nz = (r, c, A[r, c])
            # rows of M, column j and entries a_rj, a_sj of each pair (r, s) sharing a nonzero column,
            # column by column, r outer and s inner; column j's nonzero rows are its run of self.nz,
            # in ascending order, and its t-th pair is (t // count_j, t % count_j) in that run
            count = np.bincount(c, minlength=dim)
            first = np.cumsum(count) - count  # where each column's run starts
            j = np.repeat(np.arange(dim), count**2)
            t = np.arange(len(j)) - np.repeat(np.cumsum(count**2) - count**2, count**2)
            r, s = r[first[j] + t // count[j]], r[first[j] + t % count[j]]
            self.outer = (rows[r], rows[s], j, A[r, j], A[s, j])


def _not_positive_definite(err, flag):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def cholesky_lower(a, out=None):
    """np.linalg.cholesky(a) for a float64 matrix a, written into `out` (a new Fortran-ordered array by default).

    Returns `out`; raises LinAlgError, as np.linalg.cholesky does, when a is
    not positive definite, and `out` then holds NaNs.
    """
    out = np.empty(a.shape, order="F") if out is None else out
    with np.errstate(call=_not_positive_definite, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.cholesky_lo(a, out=out, signature="d->d")


def _add_runs(M, pairs, sub):
    """M[np.ix_(rows, rows)] += sub, as one basic slice per pair of row runs (`_Workspace.pairs`).

    A pair marked first still holds the zeros of np.zeros, so it is written
    as sub + 0.0 without reading M: x + 0.0 is 0.0 + x, -0.0 included.
    """
    for mi, mj, si, sj, first in pairs:
        if first:
            np.add(sub[si, sj], 0.0, out=M[mi, mj])
        else:
            M[mi, mj] += sub[si, sj]


def _shifted(M, shift):
    """M + shift * np.eye(len(M)) bit for bit, for shift >= 0, in one pass over M when shift is finite.

    Off the diagonal shift * 0.0 is +0.0, so the sum there is M + 0.0; on
    it (M_ii + 0.0) + shift is M_ii + shift, as x + 0.0 differs from x only
    for x = -0.0, and -0.0 + shift = +0.0 + shift.  An infinite or NaN
    shift (M holds one) makes shift * 0.0 NaN, so it takes the dense sum.
    """
    if not math.isfinite(shift):
        return M + shift * np.eye(len(M))
    out = M + 0.0
    out.reshape(-1)[:: len(M) + 1] += shift
    return out


def _sym(m):
    """The symmetric part of a matrix or of each matrix of a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _eig_psd_sqrt(mat, powers=(1, -1)):
    """[mat^(p/2) for p in powers], p = 1 or -1, of each symmetric positive definite matrix of a stack."""
    w, q = np.linalg.eigh(mat)
    if (w.min(axis=-1) <= 0).any():
        raise FloatingPointError("matrix lost positive definiteness")
    rw = np.sqrt(w)[..., None, :]
    qt = q.swapaxes(-1, -2)
    return [(q * rw if p == 1 else q / rw) @ qt for p in powers]


def _nt_scaling(X, Z):
    """(W, R, R^-1, eigenvalues and eigenvectors of V) for stacks of psd X and Z."""
    xs, = _eig_psd_sqrt(X, (1,))
    s_isqrt, = _eig_psd_sqrt(_sym(xs @ Z @ xs), (-1,))
    W = _sym(xs @ s_isqrt @ xs)
    R, Rinv = _eig_psd_sqrt(W)
    lamV, QV = np.linalg.eigh(_sym(Rinv @ X @ Rinv))
    return W, R, Rinv, lamV, QV


def _corrector(scal, dX_a, dZ_a, target):
    """R U R for a psd stack, U solving the scaled Lyapunov equation of the corrector."""
    W, R, Rinv, lamV, QV = scal
    Ea = _sym(Rinv @ dX_a @ Rinv)
    Fa = _sym(R @ dZ_a @ R)
    n = lamV.shape[-1]
    lam2 = np.zeros(QV.shape)  # diag(lamV^2) per block, multiplied as a matrix
    lam2[:, range(n), range(n)] = lamV**2
    QVt = QV.swapaxes(-1, -2)
    Wmat = target * np.eye(n) - QV @ lam2 @ QVt - _sym(Ea @ Fa)
    Uh = 2.0 * (QVt @ Wmat @ QV) / (lamV[:, :, None] + lamV[:, None, :])
    return _sym(R @ (QV @ Uh @ QVt) @ R)


def _max_step(x_chol, direction, frac):
    """Largest alpha <= 1 with X + alpha*dX staying in the cone, per block of a psd stack."""
    # Kept as general solves: scipy's triangular solve with a matrix
    # right-hand side wakes scipy's own BLAS thread pool, which then competes
    # with numpy's, and the default solve's stopping point is sensitive to
    # the rounding of these step lengths.
    s = np.linalg.solve(x_chol, np.linalg.solve(x_chol, direction).swapaxes(-1, -2))
    lams = np.linalg.eigvalsh(_sym(s)).min(axis=-1).tolist()
    return [1.0 if lam >= 0 else min(1.0, frac / -lam) for lam in lams]


def _max_step_diag(x, dx, frac):
    neg = dx < 0
    if not neg.any():
        return [1.0]
    return [min(1.0, frac * float((x[neg] / -dx[neg]).min()))]


class _Workspace:
    """Per-solve state: problem data in standard form.

    The iteration holds each block variable (X, Z, their steps, W, ...) as a
    list over `groups`: a (k, n, n) stack for the k psd blocks of size n, in
    label order, and a vector for each diag block.  `by_label` views such a
    list block by block in label order.
    """

    def __init__(self, p: SdpProblem):
        p.validate()
        blocks, objective, eqs = standard_form(p)
        self.block_meta = blocks
        self.m = len(eqs)
        if self.m == 0:
            raise ValueError("problem has no constraints")
        b = np.array([t.rhs for t in eqs])
        rows = {blk.label: [] for blk in blocks}  # the constraints touching each block, ascending
        for i, t in enumerate(eqs):
            for lab in t.coeffs:
                rows[lab].append(i)
        shapes = {blk.label: (blk.dim, blk.dim) if blk.kind == "psd" else (blk.dim,) for blk in blocks}
        stacks = {lab: np.array([eqs[i].coeffs[lab] for i in rows[lab]], dtype=float).reshape(-1, *shape)
                  for lab, shape in shapes.items()}
        # Row scaling: normalize each constraint to unit Frobenius norm, its
        # blocks' squared norms (each one sum over the flattened entries)
        # added in the constraint's own block order.
        squares = [{} for _ in eqs]
        for lab, stack in stacks.items():
            flat = stack.reshape(len(stack), math.prod(shapes[lab]))
            for i, sq in zip(rows[lab], (flat**2).sum(axis=1).tolist()):
                squares[i][lab] = sq
        norms = np.array([math.sqrt(sum(squares[i][lab] for lab in t.coeffs)) for i, t in enumerate(eqs)])
        if (norms == 0).any():
            raise ValueError("constraint with identically zero coefficients")
        self.row_scale = norms
        self.b = b / norms
        self.data: dict[str, _BlockData] = {}
        for blk in blocks:
            shape = shapes[blk.label]
            A = stacks[blk.label] / norms[rows[blk.label]].reshape(-1, *(1 for _ in shape))
            C = np.array(objective.get(blk.label, np.zeros(shape)), dtype=float)
            if blk.kind == "psd":
                C = _sym(C)
            self.data[blk.label] = _BlockData(blk.kind, blk.dim, np.array(rows[blk.label], dtype=int), A, C)
        self.total_dim = sum(blk.dim for blk in blocks)
        members = {}  # the psd labels of each size, each diag label alone
        for lab, d in self.data.items():
            members.setdefault(d.dim if d.kind == "psd" else lab, []).append(lab)
        self.groups = [(self.data[labs[0]].kind, labs) for labs in members.values()]
        place = {lab: (g, i if kind == "psd" else None)
                 for g, (kind, labs) in enumerate(self.groups) for i, lab in enumerate(labs)}
        self.where = {lab: place[lab] for lab in self.data}  # label -> (group, index in its stack), label order
        # Per psd label, (slice of M, slice of M, slice of the block's rows, slice of its rows, first) per
        # pair of its runs, first when no earlier block in label order touches that part of M or of G
        touched = np.zeros((self.m, self.m), bool)
        self.pairs = {}
        for lab, d in self.data.items():
            if d.kind == "diag":
                touched[d.outer[:2]] = True
                continue
            self.pairs[lab] = [(mi, mj, si, sj, not touched[mi, mj].any()) for mi, si in d.runs for mj, sj in d.runs]
            for mi, mj, *_ in self.pairs[lab]:
                touched[mi, mj] = True
        self.C = self.stacked({lab: d.C for lab, d in self.data.items()})

    def by_label(self, G):
        """Label -> block of the group list G, in label order; a psd block is a view into its stack."""
        return {lab: G[g] if i is None else G[g][i] for lab, (g, i) in self.where.items()}

    def stacked(self, blocks):
        """The group list of a label -> block mapping."""
        return [np.stack([blocks[lab] for lab in labs]) if kind == "psd" else blocks[labs[0]]
                for kind, labs in self.groups]

    def apply_A(self, X, out=None):
        """A(X) over all blocks, added block by block in label order into `out` (zeros by default)."""
        out = np.zeros(self.m) if out is None else out
        for lab, x in self.by_label(X).items():
            d = self.data[lab]
            if d.kind == "psd":
                out[d.rows] += np.einsum("kij,ij->k", d.A, x)
            else:
                r, j, a = d.nz
                out[d.rows] += np.bincount(r, a * x[j], len(d.rows))
        return out

    def gram_factor(self):
        """Cholesky factor of A A^T for feasibility restoration (or None)."""
        G = np.zeros((self.m, self.m))
        for lab, d in self.data.items():
            if d.kind == "diag":
                i, j, _, a_i, a_j = d.outer
                np.add.at(G, (i, j), a_i * a_j)
            elif len(d.rows):
                Ab = d.A.reshape(len(d.rows), -1)
                _add_runs(G, self.pairs[lab], Ab @ Ab.T)
        try:
            return cholesky_lower(G)  # Fortran-ordered, which cho_solve takes without a copy
        except np.linalg.LinAlgError:
            return None

    def schur(self, W):
        """M[i,j] = <A_i, W A_j W>; W maps a psd label to its W, a diag label to w with W = diag(w)."""
        M = np.zeros((self.m, self.m))
        for lab, d in self.data.items():
            mb, n = len(d.rows), d.dim
            if mb == 0:
                continue
            if d.kind == "psd":
                w = W[lab]
                # B[k] = W A_k W by the gemms of np.einsum("ij,kjl,lm->kim", w, d.A, w, optimize=True):
                # T[k, l, i] = sum_j A[k, j, l] W[i, j], then B[k, i, m] = sum_l T[k, l, i] W[l, m],
                # the second gemm's rows in einsum's (i, k) order
                T = (d.At @ w.T).reshape(mb, n, n)
                B = (T.transpose(2, 0, 1).reshape(n * mb, n) @ w).reshape(n, mb, n).transpose(1, 0, 2)
                _add_runs(M, self.pairs[lab], d.A.reshape(mb, -1) @ B.reshape(mb, -1).T)
            else:
                i, j, col, a_i, a_j = d.outer
                np.add.at(M, (i, j), a_i * W[lab][col] ** 2 * a_j)
        return M

    def restore(self, X, gram_chol, rp):
        """Minimum-norm correction moving X onto the affine constraint set."""
        from scipy.linalg import cho_solve  # imported on first use: scipy.linalg takes longer to load than pentapack
        lam = cho_solve((gram_chol, True), rp, check_finite=False)
        return [x + c for x, c in zip(X, self.apply_At(lam))]

    def apply_At(self, y):
        """A*(y) as a group list."""
        out = {}
        for lab, d in self.data.items():
            yb = y[d.rows]
            if d.kind == "psd":
                out[lab] = np.einsum("k,kij->ij", yb, d.A)
            else:
                r, j, a = d.nz
                out[lab] = np.bincount(j, yb[r] * a, d.dim)
        return self.stacked(out)

    def inner(self, X, Y):
        """sum over blocks of <X, Y>, in label order."""
        return sum(float(np.sum(x * y)) for x, y in zip(self.by_label(X).values(), self.by_label(Y).values()))

    def factors(self, G):
        """Cholesky factors of each symmetrized psd stack of G (None for a diag block); LinAlgError if one has none."""
        return [np.linalg.cholesky(_sym(v)) if kind == "psd" else None for (kind, _), v in zip(self.groups, G)]

    def interior(self, G):
        """G's `factors` if every psd block has a Cholesky factor and every diag entry is positive, else None."""
        if any((v <= 0).any() for (kind, _), v in zip(self.groups, G) if kind == "diag"):
            return None
        try:
            return self.factors(G)
        except np.linalg.LinAlgError:
            return None

    def backtrack(self, V, dV, step: float):
        """(step * 0.7^k, factors of sym(V + that step dV)) for the least k < 40 keeping it interior, else (0.0, None).

        The boundary fraction comes from eigenvalues and can overshoot by
        rounding when V is very ill-conditioned.
        """
        for _ in range(40):
            factors = self.interior([v + step * d for v, d in zip(V, dV)])
            if factors is not None:
                return step, factors
            step *= 0.7
        return 0.0, None

    def step_lengths(self, X, Z, fx, fz, dX, dZ):
        """`_max_step`'s (ap, ad) for dX and dZ, given X's and Z's `factors`; both of a psd group as one stack."""
        ap = ad = 1.0
        for (kind, _), x, z, lx, lz, dx, dz in zip(self.groups, X, Z, fx, fz, dX, dZ):
            if kind == "psd":
                steps = _max_step(np.concatenate((lx, lz)), np.concatenate((dx, dz)), STEP_FRAC)
                sx, sz = steps[:len(lx)], steps[len(lx):]
            else:
                sx, sz = _max_step_diag(x, dx, STEP_FRAC), _max_step_diag(z, dz, STEP_FRAC)
            ap, ad = min(ap, *sx), min(ad, *sz)
        return ap, ad


def solve(p: SdpProblem, gap_tol: float = 1e-8, feas_tol: float = 1e-8, mehrotra: bool = True) -> SdpSolution:
    """Solve a block-diagonal SDP to the requested tolerances.

    Returns a solution with status "optimal" when the scaled duality gap and
    the primal/dual residuals all fall below their tolerances, and weaker
    statuses otherwise; never raises on numerical trouble.  With `mehrotra`
    the centering comes from the predictor step, otherwise it is
    SIGMA_FIXED.  `stop_reason` says why the iteration ended: converged,
    stalled (8 iterations without improvement), step-stall (5 vanishing
    steps), y-divergence (|y| above Y_DIVERGENCE), cholesky-failure or
    max-iter (MAX_ITER iterations).  Logs one DEBUG line per iteration and
    one INFO line per solve on the `pentapack.solver` logger.
    """
    from scipy.linalg import get_lapack_funcs  # imported on first use: scipy.linalg takes longer to load than pentapack
    started = time.perf_counter()
    ws = _Workspace(p)
    m = ws.m
    potrs, = get_lapack_funcs(("potrs",), (ws.b,))  # the routine cho_solve picks for float64 data
    L = np.empty((m, m), order="F")  # the Schur factor of every iteration, in the layout potrs reads

    # Initial iterates: scaled identities, sized from the problem data.
    bnorm = float(np.abs(ws.b).max()) if m else 1.0
    cnorm = max(
        (float(np.abs(d.C).max()) for d in ws.data.values()), default=1.0
    )
    xi_p = max(10.0, math.sqrt(ws.total_dim), 10.0 * bnorm)
    xi_d = max(10.0, math.sqrt(ws.total_dim), 10.0 * cnorm)
    unit = [np.broadcast_to(np.eye(c.shape[-1]), c.shape) if kind == "psd" else np.ones(c.shape)
            for (kind, _), c in zip(ws.groups, ws.C)]
    X = [xi_p * u for u in unit]
    Z = [xi_d * u for u in unit]
    y = np.zeros(m)
    psd = [kind == "psd" for kind, _ in ws.groups]

    status = "numerical-failure"
    stop_reason = "max-iter"
    it = 0
    ap = ad = sigma = math.nan  # the step that reached the current iterate
    stall = 0
    best = None  # (score, X, Z, y, metrics); iterates are replaced, never modified in place
    no_improve = 0
    fx = fz = None  # `factors` of X and Z, known from the step test that accepted them
    schur_s = 0.0  # forming and factoring the Schur matrix
    gram_chol = ws.gram_factor()
    rp = ws.b - ws.apply_A(X)
    for it in range(1, MAX_ITER + 1):
        Rd = [c - z - a for c, z, a in zip(ws.C, Z, ws.apply_At(y))]
        gap = ws.inner(X, Z)
        mu = gap / ws.total_dim
        pobj = ws.inner(ws.C, X)
        dobj = float(ws.b @ y)
        pinf = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(ws.b)))
        dinf = max(
            float(np.linalg.norm(rd)) / (1.0 + float(np.linalg.norm(ws.data[lab].C)))
            for lab, rd in ws.by_label(Rd).items()
        )
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        log.debug(
            "it %3d  pobj %+.9e  relgap %.2e  pinf %.2e  dinf %.2e  ap %.2e  ad %.2e  sigma %.2e",
            it, pobj, relgap, pinf, dinf, ap, ad, sigma,
        )
        score = max(pinf / feas_tol, dinf / feas_tol, relgap / gap_tol)
        if best is None or score < best[0] * 0.98:
            best = (score, X, Z, y, (pobj, relgap, pinf, dinf))
            no_improve = 0
        else:
            no_improve += 1
        if pinf <= feas_tol and dinf <= feas_tol and relgap <= gap_tol:
            status = "optimal"
            stop_reason = "converged"
            break
        if no_improve >= 8:
            stop_reason = "stalled"  # classify from the best iterate below
            break
        if float(np.abs(y).max(initial=0.0)) > Y_DIVERGENCE:
            status = "infeasible"
            stop_reason = "y-divergence"
            break

        # NT scaling per group.
        try:
            scal = [_nt_scaling(x, z) if p else (np.sqrt(x / z), np.sqrt(x * z)) for p, x, z in zip(psd, X, Z)]
            W = [sc[0] for sc in scal]

            schur_started = time.perf_counter()
            M = ws.schur(ws.by_label(W))
            factored = False
            shift = 0.0
            for attempt in range(4):
                try:
                    cholesky_lower(_shifted(M, shift) if shift else M, L)
                    factored = True
                    break
                except np.linalg.LinAlgError:
                    if attempt == 0:
                        mnorm = float(np.abs(M).max())
                    shift = mnorm * (1e-13 if attempt == 0 else shift / mnorm * 1e3)
            schur_s += time.perf_counter() - schur_started
            if not factored:
                status = "numerical-failure"
                stop_reason = "cholesky-failure"
                break

            # Unchanged between the predictor and the corrector.
            fx = ws.factors(X) if fx is None else fx
            fz = ws.factors(Z) if fz is None else fz
            WRW = [_sym(w @ rd @ w) if p else w**2 * rd for p, w, rd in zip(psd, W, Rd)]

            def schur_solve(rhs):
                x = potrs(L, rhs, lower=True, overwrite_b=False)[0]
                # one step of iterative refinement; the Schur matrix turns
                # very ill-conditioned near convergence
                r = rhs - M @ x - shift * x if shift else rhs - M @ x
                return x + potrs(L, r, lower=True, overwrite_b=False)[0]

            def newton(Rc):
                """Solve the Newton system for a given centrality target."""
                dy = schur_solve(ws.apply_A([v - rc for v, rc in zip(WRW, Rc)], rp.copy()))
                dZ = [rd - a for rd, a in zip(Rd, ws.apply_At(dy))]
                dX = [_sym(rc - w @ dz @ w) if p else rc - w**2 * dz for p, w, rc, dz in zip(psd, W, Rc, dZ)]
                return dy, dX, dZ

            # Predictor (affine) direction: Uc = -V, i.e. Rc = -X.
            dy_a, dX_a, dZ_a = newton([-x for x in X])

            if mehrotra:
                ap_a, ad_a = ws.step_lengths(X, Z, fx, fz, dX_a, dZ_a)
                gap_aff = ws.inner([x + ap_a * dx for x, dx in zip(X, dX_a)], [z + ad_a * dz for z, dz in zip(Z, dZ_a)])
                sigma = min(0.9999, max(1e-6, (max(gap_aff, 0.0) / gap) ** 3))
            else:
                sigma = SIGMA_FIXED

            # Corrector: Lyapunov solve in the scaled space per group.
            Rc = []
            for p, sc, dx, dz in zip(psd, scal, dX_a, dZ_a):
                if p:
                    Rc.append(_corrector(sc, dx, dz, sigma * mu))
                else:
                    w, v = sc
                    Rc.append(w * ((sigma * mu - v * v - dx * dz) / v))
            dy, dX, dZ = newton(Rc)
            ap, ad = ws.step_lengths(X, Z, fx, fz, dX, dZ)
        except (FloatingPointError, np.linalg.LinAlgError):
            status = "numerical-failure"
            stop_reason = "cholesky-failure"
            break

        # Apply the step, backtracking if roundoff pushed an iterate out of
        # the cone; an accepted step's factors are those of the next iterate.
        ap, fx = ws.backtrack(X, dX, ap)
        ad, fz = ws.backtrack(Z, dZ, ad)

        if max(ap, ad) < 1e-10:
            stall += 1
            if stall >= 5:
                stop_reason = "step-stall"
                break
        else:
            stall = 0
        X = [_sym(x + ap * dx) if p else x + ap * dx for p, x, dx in zip(psd, X, dX)]
        Z = [_sym(z + ad * dz) if p else z + ad * dz for p, z, dz in zip(psd, Z, dZ)]
        y = y + ad * dy
        rp = ws.b - ws.apply_A(X)

        # Feasibility restoration: once the primal residual is small, snap X
        # onto the affine constraint set when that keeps it inside the cone.
        if gram_chol is not None:
            nrm = float(np.linalg.norm(rp))
            if 0.0 < nrm <= 1e-3 * (1.0 + float(np.linalg.norm(ws.b))):
                Xr = ws.restore(X, gram_chol, rp)
                fr = ws.interior(Xr)
                if fr is not None:
                    X, fx = [_sym(v) if p else v for p, v in zip(psd, Xr)], fr
                    rp = ws.b - ws.apply_A(X)

    # Report the best iterate seen (later iterations can drift once the
    # Schur system degenerates).  An optimal or infeasible stop breaks at the
    # top of an iteration, so pobj and relgap are those of the X, Z and y it
    # reports; any other stop reports the best iterate, with its own.
    if status not in ("optimal", "infeasible"):
        _, X, Z, y, (pobj, relgap, pinf, dinf) = best
        if pinf <= feas_tol and dinf <= feas_tol and relgap <= gap_tol:
            status = "optimal"
        elif pinf <= 1e3 * feas_tol and dinf <= 1e3 * feas_tol and relgap <= 1e3 * gap_tol:
            status = "near-optimal"
        else:
            status = "numerical-failure"

    elapsed = time.perf_counter() - started
    log.info(
        "solve: %d iterations, status %s, stop %s, %.2f s, Schur %.2f s, %.1f ms/iteration",
        it, status, stop_reason, elapsed, schur_s, 1e3 * elapsed / max(it, 1),
    )
    return SdpSolution(
        blocks={lab: x.copy() for lab, x in ws.by_label(X).items()},
        y=y / ws.row_scale,
        objective=pobj,
        status=status,
        gap=relgap,
        iterations=it,
        dual_blocks={lab: z.copy() for lab, z in ws.by_label(Z).items()},
        stop_reason=stop_reason,
    )
