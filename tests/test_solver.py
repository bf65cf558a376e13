import logging
import re

import numpy as np
import pytest

from oracles import workspace_data_per_row
from pentapack import solver
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
    assert re.search(r", \d+\.\d ms/iteration$", records[-1].getMessage())


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
    cholesky = np.linalg.cholesky

    def recording_cholesky(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            failed.append(np.shape(a))
            raise

    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
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


def test_schur_matches_dense_reference_on_problem_A(monkeypatch):
    """Problem A at TINY's size, with the scaling of the first iteration."""
    calls = []
    schur = solver._Workspace.schur

    def recording_schur(ws, W):
        calls.append((ws, W))
        return schur(ws, W)

    monkeypatch.setattr(solver._Workspace, "schur", recording_schur)
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    solve(build_problem(RunConfig(d=5, alpha_count=3, grid_n=16)))
    ws, W = calls[0]
    assert max(len(d.runs) for d in ws.data.values()) > 1
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


def test_schur_matches_dense_reference_over_many_runs():
    ws = solver._Workspace(alternating_problem(shared=False))
    assert [len(ws.data[lab].runs) for lab in "XY"] == [6, 6]
    W = random_scaling(ws)
    assert np.array_equal(ws.schur(W), reference_schur(ws, W))


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
