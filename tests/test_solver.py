import hashlib
import logging
import math
import re

import numpy as np
import pytest

from oracles import (
    apply_A_dense,
    apply_At_dense,
    diag_outer_per_column,
    gram_factor_dense,
    nt_scaling_full,
    step_lengths_per_side,
    workspace_data_per_row,
)
from pentapack import solver, theta
from pentapack.pipeline import RunConfig, build_problem
from pentapack.sos import assemble_feasibility_variant
from pentapack.sdp import Block, LinearTerm, SdpProblem
from pentapack.solver import solve


def lambda_max_problem(A):
    """min t s.t. t I - A >= 0, encoded with a slack PSD block and t = t+ - t-."""
    n = len(A)
    blocks = [Block("S", n, "psd"), Block("t", 2, "diag")]
    eqs = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 0.5 if i != j else 1.0
            tvec = -np.array([1.0, -1.0]) if i == j else np.zeros(2)
            eqs.append(LinearTerm({"S": E, "t": tvec}, -A[i, j], f"S[{i},{j}]"))
    return SdpProblem(blocks, {"t": np.array([1.0, -1.0])}, eqs, [])


def test_lambda_max(caplog):
    rng = np.random.default_rng(50)
    A = rng.standard_normal((3, 3))
    A = 0.5 * (A + A.T)
    with caplog.at_level(logging.DEBUG, logger="pentapack.solver"):
        sol = solve(lambda_max_problem(A))
    assert sol.status == "optimal"
    assert sol.stop_reason == "converged"
    assert sol.objective == pytest.approx(np.linalg.eigvalsh(A).max(), abs=1e-8)
    # one DEBUG line per iteration, then one INFO line for the solve
    records = [r for r in caplog.records if r.name == "pentapack.solver"]
    assert [r.levelno for r in records] == [logging.DEBUG] * sol.iterations + [logging.INFO]
    assert "status optimal, stop converged" in records[-1].getMessage()
    assert re.search(r", Schur \d+\.\d\d s, \d+\.\d ms/iteration$", records[-1].getMessage())


def test_schur_factor_is_never_lu_solved(monkeypatch):
    """The Schur and Gram systems are solved with their Cholesky factors."""
    rng = np.random.default_rng(54)
    A = rng.standard_normal((6, 6))
    A = 0.5 * (A + A.T)
    p = lambda_max_problem(A)
    m = len(p.eq_constraints)  # 21, larger than every block dimension
    shapes = []
    lu_solve = np.linalg.solve

    def recording_solve(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return lu_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    sol = solve(p)
    assert sol.status == "optimal"
    assert shapes  # the step-length computation still goes through np.linalg.solve
    assert not [s for s in shapes if m in s[0] or m in s[1]]


def test_dependent_rows_take_the_shifted_cholesky_path(monkeypatch):
    rng = np.random.default_rng(60)
    C = rng.standard_normal((4, 4))
    C = 0.5 * (C + C.T)
    A = rng.standard_normal((4, 4))
    A = 0.5 * (A + A.T)
    rows = [LinearTerm({"X": np.eye(4)}, 4.0), LinearTerm({"X": A}, float(np.trace(A)))]
    duplicate = LinearTerm({"X": 2.0 * A}, 2.0 * float(np.trace(A)))  # twice the second row
    reference = solve(SdpProblem([Block("X", 4, "psd")], {"X": C}, rows, []))

    failed = []
    cholesky_lower = solver.cholesky_lower

    def recording_cholesky(a, out=None):
        try:
            return cholesky_lower(a, out)
        except np.linalg.LinAlgError:
            failed.append(np.shape(a))
            raise

    monkeypatch.setattr(solver, "cholesky_lower", recording_cholesky)
    sol = solve(SdpProblem([Block("X", 4, "psd")], {"X": C}, rows + [duplicate], []))
    # the singular Gram matrix fails once; every further 3 x 3 failure is an
    # unshifted Schur factorisation that the shift retry recovered from
    assert failed.count((3, 3)) > 1
    assert sol.status == "optimal"
    assert sol.stop_reason == "converged"
    assert sol.objective == pytest.approx(reference.objective, abs=1e-7)


def reference_schur(ws, W):
    """M[i,j] = <A_i, W A_j W> as one dense product per block, scattered with np.ix_."""
    M = np.zeros((ws.m, ws.m))
    for lab, d in ws.data.items():
        if d.kind == "psd":
            B = np.einsum("ij,kjl,lm->kim", W[lab], d.A, W[lab], optimize=True)
            Msub = d.A.reshape(len(d.rows), -1) @ B.reshape(len(d.rows), -1).T
        else:
            Msub = (d.A * W[lab] ** 2) @ d.A.T
        M[np.ix_(d.rows, d.rows)] += Msub
    return M


@pytest.mark.kernel_independent
def test_cholesky_lower_equals_numpy_cholesky_bit_for_bit(monkeypatch):
    """The published Schur matrix, Problem A's Gram matrix and a random SPD matrix, each factored into one buffer."""
    calls, grams = [], []
    schur, cholesky_lower = solver._Workspace.schur, solver.cholesky_lower

    def recording_schur(ws, W):
        calls.append((ws, W))
        return schur(ws, W)

    def recording_cholesky(a, out=None):
        grams.append(a)
        return cholesky_lower(a, out)

    monkeypatch.setattr(solver._Workspace, "schur", recording_schur)
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    solve(build_problem(RunConfig()))
    ws, W = calls[0]
    monkeypatch.setattr(solver, "cholesky_lower", recording_cholesky)
    ws.gram_factor()
    monkeypatch.undo()
    g = np.random.default_rng(67).standard_normal((300, 320))
    out = np.empty((ws.m, ws.m), order="F")
    for a in (reference_schur(ws, W), grams[0], g @ g.T):
        buf = out if len(a) == ws.m else np.empty(a.shape, order="F")
        assert solver.cholesky_lower(a, buf) is buf
        assert buf.flags.f_contiguous
        assert buf.tobytes() == np.linalg.cholesky(a).tobytes()
    indefinite = reference_schur(ws, W)
    indefinite[5, 5] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        solver.cholesky_lower(indefinite, out)
    M = reference_schur(ws, W)
    assert solver.cholesky_lower(M, out).tobytes() == np.linalg.cholesky(M).tobytes()
    assert solver.cholesky_lower(g @ g.T).flags.f_contiguous


def alternating_problem(shared):
    """Block X touches the even rows, Y the odd rows and the diag block D every row.

    Each row has one positive D entry: its own column, or with `shared` the
    column of its pair (2k, 2k+1), so rows 0 and 1 meet only in D.  The
    problem is strictly feasible at X = Y = I, D = 1 and bounded below by 0.
    """
    rng = np.random.default_rng(61)
    m, n = 12, 4
    dim_d = m // 2 if shared else m
    eqs = []
    for i in range(m):
        A = rng.standard_normal((n, n))
        A = A + A.T
        dv = np.zeros(dim_d)
        dv[i // 2 if shared else i] = rng.uniform(0.5, 2.0)
        eqs.append(LinearTerm({"X" if i % 2 == 0 else "Y": A, "D": dv}, float(np.trace(A) + dv.sum())))
    blocks = [Block("X", n), Block("Y", n), Block("D", dim_d, "diag")]
    return SdpProblem(blocks, {"X": np.eye(n), "Y": np.eye(n), "D": np.ones(dim_d)}, eqs, [])


def random_scaling(ws):
    rng = np.random.default_rng(62)
    W = {}
    for lab, d in ws.data.items():
        if d.kind == "psd":
            G = rng.standard_normal((d.dim, d.dim))
            W[lab] = G @ G.T + np.eye(d.dim)
        else:
            W[lab] = rng.uniform(0.5, 2.0, d.dim)
    return W


@pytest.mark.kernel_independent
@pytest.mark.parametrize(
    "cfg",
    [RunConfig(d=5, alpha_count=3, grid_n=16), RunConfig(), RunConfig(N=7, d=9)],
    ids=["tiny", "published", "N7-d9"],
)
def test_schur_matches_dense_reference_on_problem_A(cfg, monkeypatch):
    """Problem A with the scaling of the first iteration and a random one, at every psd block size the pipeline uses."""
    calls = []
    schur = solver._Workspace.schur

    def recording_schur(ws, W):
        calls.append((ws, W))
        return schur(ws, W)

    monkeypatch.setattr(solver._Workspace, "schur", recording_schur)
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    solve(build_problem(cfg))
    ws, W = calls[0]
    assert max(len(d.runs) for d in ws.data.values()) > 1
    assert np.array_equal(ws.schur(W), reference_schur(ws, W))
    W = random_scaling(ws)
    assert np.array_equal(ws.schur(W), reference_schur(ws, W))


def test_workspace_matches_the_per_row_fill_on_problem_A():
    """A, row_scale and b, bit for bit, for Problem A at the published size and its feasibility variant."""
    problem = build_problem(RunConfig())
    for p in (problem, assemble_feasibility_variant(problem, -0.25, 1e-4)):
        ws = solver._Workspace(p)
        data, row_scale, b = workspace_data_per_row(p)
        assert ws.row_scale.tobytes() == row_scale.tobytes()
        assert ws.b.tobytes() == b.tobytes()
        assert list(ws.data) == list(data)
        for lab, (rows, A) in data.items():
            assert ws.data[lab].rows.tobytes() == rows.tobytes()
            assert ws.data[lab].A.shape == A.shape and ws.data[lab].A.tobytes() == A.tobytes()


def test_diag_outer_matches_the_per_column_scan():
    """Each diag column's nonzero rows, taken from the block's nonzeros, bit for bit and in the same dtypes."""
    problem = build_problem(RunConfig())
    problems = (problem, assemble_feasibility_variant(problem, -0.25, 1e-4), alternating_problem(shared=True))
    for p in problems:
        diag = [d for d in solver._Workspace(p).data.values() if d.kind == "diag"]
        assert diag
        for d in diag:
            ref = diag_outer_per_column(d)
            assert len(d.outer) == len(ref)
            assert all(u.dtype == v.dtype and np.array_equal(u, v) for u, v in zip(d.outer, ref))
    shared = solver._Workspace(problems[2]).data["D"]
    assert np.bincount(shared.outer[2]).max() == 4  # each column: two rows, four pairs


def first_iteration(p, monkeypatch):
    """The workspace and the arguments of every `_nt_scaling` and `step_lengths` call in one iteration of solving p."""
    calls = {"nt": [], "steps": []}
    nt_scaling, step_lengths = solver._nt_scaling, solver._Workspace.step_lengths

    def recording_nt(X, Z):
        calls["nt"].append((X, Z))
        return nt_scaling(X, Z)

    def recording_steps(ws, *args):
        calls["ws"] = ws
        calls["steps"].append(args)
        return step_lengths(ws, *args)

    monkeypatch.setattr(solver, "_nt_scaling", recording_nt)
    monkeypatch.setattr(solver._Workspace, "step_lengths", recording_steps)
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    solve(p)
    monkeypatch.undo()
    return calls


def same_bits(a, b):
    return len(a) == len(b) and all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(a, b))


def test_nt_scaling_and_step_lengths_match_their_full_forms_on_problem_A(monkeypatch):
    """Only the roots used, and X's and Z's step lengths from one stack per size, bit for bit."""
    calls = first_iteration(build_problem(RunConfig()), monkeypatch)
    assert [len(X) for X, _ in calls["nt"]] == [2, 4, 2]
    for X, Z in calls["nt"]:
        assert same_bits(solver._nt_scaling(X, Z), nt_scaling_full(X, Z))
    ws = calls["ws"]
    assert len(calls["steps"]) == 2  # predictor and corrector
    for args in calls["steps"]:
        ap, ad = ws.step_lengths(*args)
        assert ap != ad
        assert np.array([ap, ad]).tobytes() == np.array(step_lengths_per_side(ws, *args)).tobytes()


def test_step_lengths_match_per_side_calls_on_random_stacks():
    ws = solver._Workspace(alternating_problem(shared=False))
    rng = np.random.default_rng(64)
    for _ in range(20):
        G = rng.standard_normal((2, 2, 4, 4))
        X, Z = ([g @ g.swapaxes(1, 2) + 0.1 * np.eye(4), rng.uniform(0.5, 2.0, 12)] for g in G)
        H = rng.standard_normal((2, 2, 4, 4))
        dX, dZ = ([h + h.swapaxes(1, 2), rng.standard_normal(12)] for h in H)
        args = (X, Z, ws.factors(X), ws.factors(Z), dX, dZ)
        ap, ad = ws.step_lengths(*args)
        assert np.array([ap, ad]).tobytes() == np.array(step_lengths_per_side(ws, *args)).tobytes()


def check_diag_products(ws, rng, exact=True):
    """apply_A, apply_At and gram_factor against their dense diag forms, bit for bit or to rtol 1e-15."""
    same = same_bits if exact else (lambda a, b: all(np.allclose(u, v, rtol=1e-15, atol=0.0) for u, v in zip(a, b)))
    assert any(kind == "diag" for kind, _ in ws.groups)
    X = [rng.standard_normal(c.shape) for c in ws.C]
    y = rng.standard_normal(ws.m)
    assert same([ws.apply_A(X)], [apply_A_dense(ws, X)])
    assert same(ws.apply_At(y), apply_At_dense(ws, y))
    assert same([ws.gram_factor()], [gram_factor_dense(ws)])


def test_diag_products_match_the_dense_forms_on_problem_A():
    problem = build_problem(RunConfig())
    rng = np.random.default_rng(65)
    for p in (problem, assemble_feasibility_variant(problem, -0.25, 1e-4)):
        check_diag_products(solver._Workspace(p), rng)


def test_diag_products_on_a_column_shared_by_every_row(monkeypatch):
    """theta's B: one column in the n rows K(x, x) <= B, whose A*(y) sums n products in another order."""
    problems = []

    def recording_solve(p, **kw):
        problems.append(p)
        return solve(p, **kw)

    monkeypatch.setattr(theta, "solve", recording_solve)
    theta.theta_prime_bound(theta.cycle_graph(7))
    ws = solver._Workspace(problems[0])
    assert np.count_nonzero(ws.data["B"].A) == 7
    check_diag_products(ws, np.random.default_rng(66), exact=False)


def solution_sha256(sol):
    """sha256 over a solution's blocks, then its dual blocks, in label order, then y."""
    h = hashlib.sha256()
    for blocks in (sol.blocks, sol.dual_blocks):
        for lab, x in blocks.items():
            h.update(lab.encode() + x.tobytes())
    h.update(sol.y.tobytes())
    return h.hexdigest()


def test_published_solves_golden_sha256():
    """Problem A at the published size and its feasibility variant, bit for bit.

    Their psd blocks have sizes 6, 12 and 36, which TINY's golden artifacts
    do not reach.  Recorded with 2 OpenBLAS threads, like the TINY goldens.
    """
    problem = build_problem(RunConfig())
    sol = solve(problem)
    variant = assemble_feasibility_variant(problem, sol.objective, 1e-4)
    ref = solve(variant, gap_tol=1e-7, feas_tol=1e-9, mehrotra=False)
    assert sorted({x.shape[0] for x in sol.blocks.values() if x.ndim == 2}) == [6, 12, 36]
    assert (sol.iterations, sol.stop_reason, ref.iterations, ref.stop_reason) == (35, "stalled", 44, "converged")
    assert solution_sha256(sol) == "c357fd0460e1abc32d294e3805cde51379c53d0ad8af917153410f41faf2ae62"
    assert solution_sha256(ref) == "7c0616188235ebe4284bb9864cb2bce39160462274fa1b15204a55d3ff99e99e"


@pytest.mark.kernel_independent
def test_schur_matches_dense_reference_over_many_runs():
    ws = solver._Workspace(alternating_problem(shared=False))
    assert [len(ws.data[lab].runs) for lab in "XY"] == [6, 6]
    W = random_scaling(ws)
    assert np.array_equal(ws.schur(W), reference_schur(ws, W))


@pytest.mark.kernel_independent
def test_schur_matches_dense_reference_with_a_row_symmetric_to_one_ulp():
    """A block whose coefficients are symmetric only to rounding keeps a transposed copy for W A_k W."""
    p = alternating_problem(shared=False)
    t = p.eq_constraints[0]
    A = t.coeffs["X"].copy()
    A[0, 1] = np.nextafter(A[0, 1], np.inf)
    eqs = [LinearTerm({**t.coeffs, "X": A}, t.rhs), *p.eq_constraints[1:]]
    ws = solver._Workspace(SdpProblem(p.blocks, p.objective, eqs, []))
    assert not np.shares_memory(ws.data["X"].At, ws.data["X"].A)
    assert np.shares_memory(ws.data["Y"].At, ws.data["Y"].A)
    W = random_scaling(ws)
    assert np.array_equal(ws.schur(W), reference_schur(ws, W))


def test_first_touch_pairs_write_what_adding_to_zeros_gives():
    """A pair of runs that no earlier block touches is written as sub + 0.0: zeros plus `+=`, -0.0 included."""
    sub = np.array([[-0.0, 0.0, 5e-324, -2.5], [-5e-324, -0.0, 1.0, -0.0], [3.0, -1e-310, -0.0, 0.0],
                    [0.0, -0.0, -0.0, 7.0]])
    runs = [(slice(1, 3), slice(0, 2)), (slice(5, 7), slice(2, 4))]  # rows 1, 2, 5, 6 of M
    M = np.zeros((8, 8))
    for (mi, si), (mj, sj) in ((a, b) for a in runs for b in runs):
        M[mi, mj] += sub[si, sj]
    for first in (True, False):
        out = np.zeros((8, 8))
        solver._add_runs(out, [(mi, mj, si, sj, first) for mi, si in runs for mj, sj in runs], sub)
        assert out.tobytes() == M.tobytes()
    assert np.signbit(sub[0, 0]) and not np.signbit(M[1, 1])  # where a plain copy would keep -0.0


def test_workspace_marks_the_pairs_no_earlier_block_touches():
    """Y's runs meet X's rows in one pair, which is added to; its other pairs are written; M as the dense reference."""
    rng = np.random.default_rng(64)
    eqs = []
    for i, labs in enumerate(("X", "XY", "X", "Y")):  # X touches rows 0, 1, 2; Y rows 1 and 3
        coeffs = {}
        for lab in labs:
            A = rng.standard_normal((3, 3))
            coeffs[lab] = A + A.T
        eqs.append(LinearTerm(coeffs, float(i)))
    ws = solver._Workspace(SdpProblem([Block("X", 3), Block("Y", 3)], {"X": np.eye(3), "Y": np.eye(3)}, eqs, []))
    assert [first for *_, first in ws.pairs["X"]] == [True]
    assert [(mi.start, mj.start, first) for mi, mj, *_, first in ws.pairs["Y"]] == [
        (1, 1, False), (1, 3, True), (3, 1, True), (3, 3, True)]
    W = random_scaling(ws)
    assert np.array_equal(ws.schur(W), reference_schur(ws, W))
    assert np.array_equal(ws.gram_factor(), gram_factor_dense(ws))


def test_shifted_copy_equals_the_dense_shift_bit_for_bit():
    """`_shifted(M, shift)` is M + shift * np.eye(m) bit for bit, on a matrix with signed zeros and subnormals."""
    rng = np.random.default_rng(65)
    M = rng.standard_normal((9, 9))
    M[[0, 2, 4, 6], [1, 2, 4, 3]] = -0.0  # two of them on the diagonal
    M[[3, 5, 7], [3, 8, 7]] = 0.0
    M[[1, 8, 6, 0], [1, 2, 6, 5]] = [5e-324, -5e-324, -1e-310, 2.2e-308]
    before = M.copy()
    for shift in (0.0, 5e-324, 1e-310, 1e-13, 0.75, 3.5e300, math.inf, math.nan):
        with np.errstate(invalid="ignore"):  # inf * 0.0 off the diagonal
            assert solver._shifted(M, shift).tobytes() == (M + shift * np.eye(9)).tobytes(), shift
    assert M.tobytes() == before.tobytes()


def test_backtrack_shrinks_for_one_block_of_a_stack():
    """X and Y share one stack; only Y leaves the cone at the trial step."""
    ws = solver._Workspace(alternating_problem(shared=False))
    assert [labs for kind, labs in ws.groups] == [["X", "Y"], ["D"]]
    rng = np.random.default_rng(63)
    G = rng.standard_normal((2, 4, 4))
    V = [G @ G.swapaxes(1, 2) + np.eye(4), np.ones(12)]
    H = rng.standard_normal((4, 4))
    dV = [np.stack([0.1 * (H + H.T), -2.0 * V[0][1]]), np.zeros(12)]
    assert np.linalg.eigvalsh(V[0][0] + dV[0][0]).min() > 0
    step, factors = ws.backtrack(V, dV, 1.0)
    # Y + s dY = (1 - 2s) Y is interior from the third try on, as it was for Y alone
    assert step == 1.0 * 0.7 * 0.7
    trial = [v + step * d for v, d in zip(V, dV)]
    assert np.array_equal(factors[0], np.linalg.cholesky(solver._sym(trial[0])))
    assert factors[1] is None
    assert ws.backtrack(V, [dV[0], -1e7 * V[1]], 1.0) == (0.0, None)  # D stays outside for 0.7^39 > 1e-7


def test_one_block_of_a_stack_losing_definiteness_ends_the_solve(monkeypatch):
    nt_scaling = solver._nt_scaling
    calls = []

    def flip_second_block(X, Z):
        calls.append(len(X))
        if len(calls) == 3:
            X = X.copy()
            X[1] = -X[1]
        return nt_scaling(X, Z)

    monkeypatch.setattr(solver, "_nt_scaling", flip_second_block)
    sol = solve(alternating_problem(shared=False))
    assert calls == [2, 2, 2]
    assert sol.stop_reason == "cholesky-failure"


def test_diag_column_shared_by_two_rows():
    p = alternating_problem(shared=True)
    ws = solver._Workspace(p)
    W = random_scaling(ws)
    M = ws.schur(W)
    assert M[0, 1] > 0 and M[1, 0] == M[0, 1]  # rows 0 and 1 meet only in D
    assert np.allclose(M, reference_schur(ws, W), rtol=1e-15, atol=0.0)
    assert solve(p).status == "optimal"


def test_one_dimensional_lp():
    p = SdpProblem(
        [Block("x", 1, "diag")],
        {"x": np.array([1.0])},
        [],
        [LinearTerm({"x": -np.ones(1)}, -3.0)],  # x >= 3
    )
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-7)


def test_feasibility_returns_interior_point():
    p = SdpProblem([Block("X", 4, "psd")], {}, [LinearTerm({"X": np.eye(4)}, 4.0)], [])
    sol = solve(p)
    assert sol.status == "optimal"
    # the analytic center of {tr X = 4, X >= 0} is the identity
    assert np.abs(sol.blocks["X"] - np.eye(4)).max() < 1e-6


def test_solution_invariants():
    rng = np.random.default_rng(51)
    C = rng.standard_normal((4, 4))
    C = 0.5 * (C + C.T)
    p = SdpProblem(
        [Block("X", 4, "psd")],
        {"X": C},
        [LinearTerm({"X": np.eye(4)}, 1.0)],
        [],
    )
    sol = solve(p, gap_tol=1e-9, feas_tol=1e-9)
    assert sol.status == "optimal"
    X = sol.blocks["X"]
    assert np.abs(X - X.T).max() < 1e-12
    # direct recomputation of the certificates backing the status
    assert abs(np.trace(X) - 1.0) <= 1e-8
    assert np.linalg.eigvalsh(X).min() >= -1e-10
    # dual feasibility: Z = C - A*(y) is PSD and matches the returned block
    Z = C - sol.y[0] * np.eye(4)
    assert np.abs(Z - sol.dual_blocks["X"]).max() < 1e-7
    assert np.linalg.eigvalsh(Z).min() >= -1e-8
    # complementarity gap recomputed
    assert abs(float(np.sum(X * Z))) <= 1e-7
    # optimum of min <C, X> over the spectrahedron tr X = 1 is lambda_min
    assert sol.objective == pytest.approx(np.linalg.eigvalsh(C).min(), abs=1e-7)


def test_infeasible_detected(monkeypatch):
    # x <= -1 and x >= 0 (diag block) is infeasible
    p = SdpProblem(
        [Block("x", 1, "diag")],
        {"x": np.array([1.0])},
        [],
        [LinearTerm({"x": np.ones(1)}, -1.0)],
    )
    monkeypatch.setattr(solver, "MAX_ITER", 100)
    sol = solve(p)
    assert sol.status in ("infeasible", "numerical-failure")
    assert (sol.status == "infeasible") == (sol.stop_reason == "y-divergence")


def test_iteration_cap_is_reported(monkeypatch):
    rng = np.random.default_rng(50)
    A = rng.standard_normal((3, 3))
    A = 0.5 * (A + A.T)
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    sol = solve(lambda_max_problem(A))
    assert sol.iterations == 2
    assert sol.stop_reason == "max-iter"


def test_determinism():
    rng = np.random.default_rng(52)
    A = rng.standard_normal((5, 5))
    A = 0.5 * (A + A.T)
    p = lambda_max_problem(A)
    s1 = solve(p)
    s2 = solve(p)
    assert s1.objective == s2.objective
    assert s1.iterations == s2.iterations
    assert all(np.array_equal(s1.blocks[k], s2.blocks[k]) for k in s1.blocks)


def test_validation_rejects_asymmetric_coefficients():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = SdpProblem([Block("X", 2, "psd")], {"X": np.eye(2)}, [LinearTerm({"X": bad}, 0.0)], [])
    with pytest.raises(ValueError):
        solve(p)


def test_medium_instance_against_external_solver():
    """Cross-check the embedded solver against an independent external one."""
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(53)
    n, m = 6, 50
    mats = []
    for _ in range(m):
        A = rng.standard_normal((n, n))
        mats.append(0.5 * (A + A.T))
    X0 = np.eye(n)  # reference interior point makes the instance feasible
    eqs = [LinearTerm({"X": A}, float(np.sum(A * X0))) for A in mats]
    C = rng.standard_normal((n, n))
    C = 0.5 * (C + C.T)
    p = SdpProblem([Block("X", n, "psd")], {"X": C}, eqs, [])
    sol = solve(p)
    assert sol.status == "optimal"

    Xv = cvxpy.Variable((n, n), PSD=True)
    cons = [cvxpy.sum(cvxpy.multiply(A, Xv)) == t.rhs for A, t in zip(mats, eqs)]
    prob = cvxpy.Problem(cvxpy.Minimize(cvxpy.sum(cvxpy.multiply(C, Xv))), cons)
    prob.solve(solver=cvxpy.CLARABEL)
    assert sol.objective == pytest.approx(prob.value, abs=1e-6)
