"""Primal-dual interior-point solver for block-diagonal SDPs.

Infeasible-start path following with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Problem sizes here are small (blocks of dimension
up to a few dozen, around a thousand constraints), so everything is dense:
the Newton system is reduced to the Schur complement M[i,j] = <A_i, W A_j W>,
which is symmetric positive definite under NT scaling and solved by Cholesky.

M is assembled block by block.  A psd block's rows split into runs of
consecutive constraint indices, and its dense product is added into M one
basic slice per pair of runs.  A diag block adds the outer product
w_j^2 a_j a_j^T of each column j over that column's nonzero rows, so the
slack block of the inequalities adds only its diagonal.  Within one
iteration the factors of X and Z, W Rd W and the Cholesky factor of M serve
both the predictor and the corrector.

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
            # the contraction path depends only on the shapes; C stands in for W
            self.path = np.einsum_path("ij,kjl,lm->kim", C, A, C, optimize=True)[0]
        else:
            # rows of M, column j and entries a_rj, a_sj of each pair (r, s) sharing a nonzero column
            nz = [np.flatnonzero(A[:, j]) for j in range(dim)]
            r = np.concatenate([np.repeat(k, len(k)) for k in nz])
            s = np.concatenate([np.tile(k, len(k)) for k in nz])
            j = np.repeat(np.arange(dim), [len(k) ** 2 for k in nz])
            self.outer = (rows[r], rows[s], j, A[r, j], A[s, j])


def _add_runs(M, runs, sub):
    """M[np.ix_(rows, rows)] += sub, as one basic slice per pair of row runs."""
    for mi, si in runs:
        for mj, sj in runs:
            M[mi, mj] += sub[si, sj]


def _sym(m):
    return 0.5 * (m + m.T)


def _eig_psd_sqrt(mat):
    """Return (sqrt, inv sqrt) of a symmetric positive definite matrix."""
    w, q = np.linalg.eigh(mat)
    if w.min() <= 0:
        raise FloatingPointError("matrix lost positive definiteness")
    rw = np.sqrt(w)
    return (q * rw) @ q.T, (q / rw) @ q.T


def _max_step(x_chol, direction, frac):
    """Largest alpha <= 1 with X + alpha*dX staying in the cone (PSD block)."""
    # Kept as general solves: scipy's triangular solve with a matrix
    # right-hand side wakes scipy's own BLAS thread pool, which then competes
    # with numpy's, and the default solve's stopping point is sensitive to
    # the rounding of these step lengths.
    s = np.linalg.solve(x_chol, np.linalg.solve(x_chol, direction).T)
    lam = np.linalg.eigvalsh(_sym(s)).min()
    if lam >= 0:
        return 1.0
    return min(1.0, frac / (-lam))


def _max_step_diag(x, dx, frac):
    neg = dx < 0
    if not neg.any():
        return 1.0
    return min(1.0, frac * float((x[neg] / -dx[neg]).min()))


class _Workspace:
    """Per-solve state: problem data in standard form plus iterates."""

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

    def apply_A(self, X):
        """A(X) over all blocks."""
        out = np.zeros(self.m)
        for lab, d in self.data.items():
            x = X[lab]
            if d.kind == "psd":
                out[d.rows] += np.einsum("kij,ij->k", d.A, x)
            else:
                out[d.rows] += d.A @ x
        return out

    def gram_factor(self):
        """Cholesky factor of A A^T for feasibility restoration (or None)."""
        G = np.zeros((self.m, self.m))
        for d in self.data.values():
            if len(d.rows) == 0:
                continue
            Ab = d.A.reshape(len(d.rows), -1)
            _add_runs(G, d.runs, Ab @ Ab.T)
        try:
            return np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return None

    def schur(self, W):
        """M[i,j] = <A_i, W A_j W>; W maps a psd label to its W, a diag label to w with W = diag(w)."""
        M = np.zeros((self.m, self.m))
        for lab, d in self.data.items():
            if len(d.rows) == 0:
                continue
            if d.kind == "psd":
                B = np.einsum("ij,kjl,lm->kim", W[lab], d.A, W[lab], optimize=d.path)
                _add_runs(M, d.runs, d.A.reshape(len(d.rows), -1) @ B.reshape(len(d.rows), -1).T)
            else:
                i, j, col, a_i, a_j = d.outer
                np.add.at(M, (i, j), a_i * W[lab][col] ** 2 * a_j)
        return M

    def restore(self, X, gram_chol, rp):
        """Minimum-norm correction moving X onto the affine constraint set."""
        from scipy.linalg import cho_solve  # imported on first use: scipy.linalg takes longer to load than pentapack
        lam = cho_solve((gram_chol, True), rp, check_finite=False)
        out = {}
        for lab, d in self.data.items():
            corr = (
                np.einsum("k,kij->ij", lam[d.rows], d.A)
                if d.kind == "psd"
                else lam[d.rows] @ d.A
            )
            out[lab] = X[lab] + corr
        return out

    def apply_At(self, y):
        """A*(y) per block."""
        out = {}
        for lab, d in self.data.items():
            yb = y[d.rows]
            if d.kind == "psd":
                out[lab] = np.einsum("k,kij->ij", yb, d.A)
            else:
                out[lab] = yb @ d.A
        return out

    def inner(self, X, Y):
        return sum(float(np.sum(X[lab] * Y[lab])) for lab in X)

    def interior(self, blocks) -> bool:
        """Whether every psd block, symmetrized, has a Cholesky factor and every diag entry is positive."""
        try:
            for lab, v in blocks.items():
                if self.data[lab].kind == "psd":
                    np.linalg.cholesky(_sym(v))
                elif (v <= 0).any():
                    return False
            return True
        except np.linalg.LinAlgError:
            return False

    def backtrack(self, V, dV, step: float) -> float:
        """step * 0.7^k for the least k < 40 keeping V + step dV interior, else 0.

        The boundary fraction comes from eigenvalues and can overshoot by
        rounding when V is very ill-conditioned.
        """
        for _ in range(40):
            if self.interior({lab: V[lab] + step * dV[lab] for lab in V}):
                return step
            step *= 0.7
        return 0.0


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
    from scipy.linalg import cho_solve  # imported on first use: scipy.linalg takes longer to load than pentapack
    started = time.perf_counter()
    ws = _Workspace(p)
    m = ws.m

    # Initial iterates: scaled identities, sized from the problem data.
    bnorm = float(np.abs(ws.b).max()) if m else 1.0
    cnorm = max(
        (float(np.abs(d.C).max()) for d in ws.data.values()), default=1.0
    )
    xi_p = max(10.0, math.sqrt(ws.total_dim), 10.0 * bnorm)
    xi_d = max(10.0, math.sqrt(ws.total_dim), 10.0 * cnorm)
    X, Z = {}, {}
    for lab, d in ws.data.items():
        if d.kind == "psd":
            X[lab] = xi_p * np.eye(d.dim)
            Z[lab] = xi_d * np.eye(d.dim)
        else:
            X[lab] = xi_p * np.ones(d.dim)
            Z[lab] = xi_d * np.ones(d.dim)
    y = np.zeros(m)

    status = "numerical-failure"
    stop_reason = "max-iter"
    it = 0
    ap = ad = sigma = math.nan  # the step that reached the current iterate
    stall = 0
    best = None  # (score, X, Z, y, metrics)
    no_improve = 0
    gram_chol = ws.gram_factor()
    for it in range(1, MAX_ITER + 1):
        rp = ws.b - ws.apply_A(X)
        Aty = ws.apply_At(y)
        Rd = {}
        for lab, d in ws.data.items():
            Rd[lab] = d.C - Z[lab] - Aty[lab]
        gap = ws.inner(X, Z)
        mu = gap / ws.total_dim
        pobj = sum(float(np.sum(ws.data[lab].C * X[lab])) for lab in X)
        dobj = float(ws.b @ y)
        pinf = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(ws.b)))
        dinf = max(
            float(np.linalg.norm(Rd[lab])) / (1.0 + float(np.linalg.norm(ws.data[lab].C)))
            for lab in Rd
        )
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        log.debug(
            "it %3d  pobj %+.9e  relgap %.2e  pinf %.2e  dinf %.2e  ap %.2e  ad %.2e  sigma %.2e",
            it, pobj, relgap, pinf, dinf, ap, ad, sigma,
        )
        score = max(pinf / feas_tol, dinf / feas_tol, relgap / gap_tol)
        if best is None or score < best[0] * 0.98:
            best = (score, {k: v.copy() for k, v in X.items()}, {k: v.copy() for k, v in Z.items()}, y.copy(), (pobj, relgap, pinf, dinf))
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

        # NT scaling per block.
        try:
            scal = {}
            for lab, d in ws.data.items():
                if d.kind == "psd":
                    xs, _ = _eig_psd_sqrt(X[lab])
                    s_mat = _sym(xs @ Z[lab] @ xs)
                    _, s_isqrt = _eig_psd_sqrt(s_mat)
                    W = _sym(xs @ s_isqrt @ xs)
                    R, Rinv = _eig_psd_sqrt(W)
                    V = _sym(Rinv @ X[lab] @ Rinv)
                    lamV, QV = np.linalg.eigh(V)
                    scal[lab] = (W, R, Rinv, lamV, QV)
                else:
                    w = np.sqrt(X[lab] / Z[lab])
                    v = np.sqrt(X[lab] * Z[lab])
                    scal[lab] = (w, v)

            M = ws.schur({lab: sc[0] for lab, sc in scal.items()})

            L = None
            shift = 0.0
            mnorm = float(np.abs(M).max())
            for attempt in range(4):
                try:
                    L = np.linalg.cholesky(M + shift * np.eye(m) if shift else M)
                    break
                except np.linalg.LinAlgError:
                    shift = mnorm * (1e-13 if attempt == 0 else shift / mnorm * 1e3)
            if L is None:
                status = "numerical-failure"
                stop_reason = "cholesky-failure"
                break
            L = np.asfortranarray(L)  # cho_solve would copy a C-ordered factor on every call

            # Unchanged between the predictor and the corrector.
            psd = [lab for lab, d in ws.data.items() if d.kind == "psd"]
            chol = {lab: (np.linalg.cholesky(X[lab]), np.linalg.cholesky(Z[lab])) for lab in psd}
            WRW = {}
            for lab, d in ws.data.items():
                W = scal[lab][0]
                WRW[lab] = _sym(W @ Rd[lab] @ W) if d.kind == "psd" else W**2 * Rd[lab]

            def schur_solve(rhs):
                x = cho_solve((L, True), rhs, check_finite=False)
                # one step of iterative refinement; the Schur matrix turns
                # very ill-conditioned near convergence
                r = rhs - M @ x - shift * x
                return x + cho_solve((L, True), r, check_finite=False)

            def newton(Rc):
                """Solve the Newton system for a given centrality target."""
                rhs = rp.copy()
                for lab, d in ws.data.items():
                    x = WRW[lab] - Rc[lab]
                    if d.kind == "psd":
                        rhs[d.rows] += np.einsum("kij,ij->k", d.A, x)
                    else:
                        rhs[d.rows] += d.A @ x
                dy = schur_solve(rhs)
                dZ, dX = {}, {}
                Atdy = ws.apply_At(dy)
                for lab, d in ws.data.items():
                    dZ[lab] = Rd[lab] - Atdy[lab]
                    if d.kind == "psd":
                        W = scal[lab][0]
                        dX[lab] = _sym(Rc[lab] - W @ dZ[lab] @ W)
                    else:
                        dX[lab] = Rc[lab] - scal[lab][0] ** 2 * dZ[lab]
                return dy, dX, dZ

            def step_lengths(dX, dZ):
                ap = ad = 1.0
                for lab, d in ws.data.items():
                    if d.kind == "psd":
                        ap = min(ap, _max_step(chol[lab][0], dX[lab], STEP_FRAC))
                        ad = min(ad, _max_step(chol[lab][1], dZ[lab], STEP_FRAC))
                    else:
                        ap = min(ap, _max_step_diag(X[lab], dX[lab], STEP_FRAC))
                        ad = min(ad, _max_step_diag(Z[lab], dZ[lab], STEP_FRAC))
                return ap, ad

            # Predictor (affine) direction: Uc = -V, i.e. Rc = -X.
            Rc_aff = {lab: -X[lab] for lab in X}
            dy_a, dX_a, dZ_a = newton(Rc_aff)

            if mehrotra:
                ap_a, ad_a = step_lengths(dX_a, dZ_a)
                gap_aff = 0.0
                for lab in X:
                    gap_aff += float(
                        np.sum((X[lab] + ap_a * dX_a[lab]) * (Z[lab] + ad_a * dZ_a[lab]))
                    )
                sigma = min(0.9999, max(1e-6, (max(gap_aff, 0.0) / gap) ** 3))
            else:
                sigma = SIGMA_FIXED

            # Corrector: Lyapunov solve in the scaled space per block.
            Rc = {}
            for lab, d in ws.data.items():
                if d.kind == "psd":
                    W, R, Rinv, lamV, QV = scal[lab]
                    Ea = _sym(Rinv @ dX_a[lab] @ Rinv)
                    Fa = _sym(R @ dZ_a[lab] @ R)
                    Wmat = sigma * mu * np.eye(d.dim) - QV @ np.diag(lamV**2) @ QV.T - _sym(Ea @ Fa)
                    Wh = QV.T @ Wmat @ QV
                    Uh = 2.0 * Wh / np.add.outer(lamV, lamV)
                    U = QV @ Uh @ QV.T
                    Rc[lab] = _sym(R @ U @ R)
                else:
                    w, v = scal[lab]
                    u = (sigma * mu - v * v - dX_a[lab] * dZ_a[lab]) / v
                    Rc[lab] = w * u
            dy, dX, dZ = newton(Rc)
            ap, ad = step_lengths(dX, dZ)
        except (FloatingPointError, np.linalg.LinAlgError):
            status = "numerical-failure"
            stop_reason = "cholesky-failure"
            break

        # Apply the step, backtracking if roundoff pushed an iterate out of
        # the cone.
        ap = ws.backtrack(X, dX, ap)
        ad = ws.backtrack(Z, dZ, ad)

        if max(ap, ad) < 1e-10:
            stall += 1
            if stall >= 5:
                stop_reason = "step-stall"
                break
        else:
            stall = 0
        for lab in X:
            X[lab] = _sym(X[lab] + ap * dX[lab]) if ws.data[lab].kind == "psd" else X[lab] + ap * dX[lab]
            Z[lab] = _sym(Z[lab] + ad * dZ[lab]) if ws.data[lab].kind == "psd" else Z[lab] + ad * dZ[lab]
        y = y + ad * dy

        # Feasibility restoration: once the primal residual is small, snap X
        # onto the affine constraint set when that keeps it inside the cone.
        if gram_chol is not None:
            rp_now = ws.b - ws.apply_A(X)
            nrm = float(np.linalg.norm(rp_now))
            if 0.0 < nrm <= 1e-3 * (1.0 + float(np.linalg.norm(ws.b))):
                Xr = ws.restore(X, gram_chol, rp_now)
                if ws.interior(Xr):
                    X = {
                        lab: _sym(v) if ws.data[lab].kind == "psd" else v
                        for lab, v in Xr.items()
                    }

    # Report the best iterate seen (later iterations can drift once the
    # Schur system degenerates).
    if best is not None and status not in ("optimal", "infeasible"):
        _, X, Z, y, (pobj, relgap, pinf, dinf) = best
        if pinf <= feas_tol and dinf <= feas_tol and relgap <= gap_tol:
            status = "optimal"
        elif pinf <= 1e3 * feas_tol and dinf <= 1e3 * feas_tol and relgap <= 1e3 * gap_tol:
            status = "near-optimal"
        else:
            status = "numerical-failure"

    pobj = sum(float(np.sum(ws.data[lab].C * X[lab])) for lab in X)
    gap = ws.inner(X, Z)
    relgap = gap / (1.0 + abs(pobj) + abs(float(ws.b @ y)))
    elapsed = time.perf_counter() - started
    log.info(
        "solve: %d iterations, status %s, stop %s, %.2f s, %.1f ms/iteration",
        it, status, stop_reason, elapsed, 1e3 * elapsed / max(it, 1),
    )
    return SdpSolution(
        blocks={lab: x.copy() for lab, x in X.items()},
        y=y / ws.row_scale,
        objective=pobj,
        status=status,
        gap=relgap,
        iterations=it,
        dual_blocks={lab: z.copy() for lab, z in Z.items()},
        stop_reason=stop_reason,
    )
