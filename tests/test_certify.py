import ast
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mpmath import mp

from oracles import (
    alpha_tables_per_s,
    bernstein_max_operators,
    compiled_pairs_per_term,
    ineq_proved_satisfied_per_row,
    margin_all_mp,
    mp_eval_operators,
    verification_sample,
)
from pentapack import certify
from pentapack.certify import (
    FloatEvaluator,
    MpEvaluator,
    RankDeficiencyError,
    SignVerification,
    VerificationReport,
    VerifySpec,
    _lipschitz_pair,
    _proved_positive_definite,
    build_report,
    feasibility_margin,
    final_bound,
    project_affine,
    tensor_hash,
    verify_nonpositivity,
)
from pentapack.fourier import CoefficientTensor, ModelParams, evaluate_f, random_positive_tensor
from pentapack.geometry import constraint_sample, pentagon
from pentapack.motion import MotionPoint
from pentapack.pipeline import RunConfig, build_problem
from pentapack.sdp import Block, LinearTerm, SdpProblem, SdpSolution, stack_rows
from pentapack.sos import assemble_feasibility_variant, assemble_problem_A
from pentapack.solver import solve


def scaled_unit_tensor(c=1.0, N=2, d=3):
    params = ModelParams(N, d)
    e = np.zeros((2 * N + 1, 2 * N + 1, d + 1))
    e[N, N, 0] = c
    return CoefficientTensor(params, e)


@pytest.fixture(scope="module")
def solved_small():
    params = ModelParams(5, 5)
    problem = assemble_problem_A(params, constraint_sample(3, 16, 1.02))
    sol = solve(problem)
    assert sol.is_usable()
    return params, problem, sol


# -- projection --------------------------------------------------------------


def test_projection_of_feasible_point_is_identity(solved_small):
    params, problem, sol = solved_small
    projected, info = project_affine(sol, problem)
    # already near-feasible: displacement is tiny and residual collapses
    assert info["displacement"] < 1e-5
    assert info["post_residual"] < 1e-13
    projected2, info2 = project_affine(projected, problem)
    assert info2["displacement"] <= 1e-13


def test_projection_repairs_perturbed_solution(solved_small):
    params, problem, sol = solved_small
    rng = np.random.default_rng(80)
    blocks = {}
    for lab, b in sol.blocks.items():
        noise = rng.standard_normal(b.shape)
        if b.ndim == 2:
            noise = 0.5 * (noise + noise.T)
        blocks[lab] = b + 3e-9 * noise
    noisy = SdpSolution(blocks=blocks, y=sol.y, objective=sol.objective,
                        status=sol.status, gap=sol.gap, iterations=sol.iterations)
    projected, info = project_affine(noisy, problem)
    assert 1e-11 < info["pre_residual"] < 1e-7
    assert info["post_residual"] <= 1e-12
    assert info["displacement"] <= 10 * info["pre_residual"] * math.sqrt(info["rows"]) * 10


@pytest.mark.kernel_independent
def test_projection_rejects_rank_deficiency():
    p = SdpProblem(
        [Block("X", 2, "psd")],
        {"X": np.eye(2)},
        [LinearTerm({"X": np.eye(2)}, 1.0), LinearTerm({"X": 2 * np.eye(2)}, 2.0)],
        [],
    )
    sol = SdpSolution(blocks={"X": np.eye(2)}, y=np.zeros(2), objective=0.0,
                      status="optimal", gap=0.0, iterations=0)
    with pytest.raises(RankDeficiencyError):
        project_affine(sol, p)


def _near_dependent_system(ratio):
    """Equality rows e1, e2, e3 and (e1 + s e4) / |.| of one diag block, s = 2 r / (1 - r^2): the last two
    have Gram eigenvalues 1 +/- c, c = 1 / sqrt(1 + s^2), so sigma_min / sigma_max = r."""
    s = 2.0 * ratio / (1.0 - ratio**2)
    rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, s]]
    p = SdpProblem([Block("x", 4, "diag")], {"x": np.ones(4)},
                   [LinearTerm({"x": np.array(r)}, 1.0) for r in rows], [])
    sol = SdpSolution(blocks={"x": np.ones(4)}, y=np.zeros(4), objective=0.0, status="optimal", gap=0.0, iterations=0)
    return p, sol


@pytest.mark.kernel_independent
@pytest.mark.parametrize("ratio", [1e-3, 2e-8, 1e-8 * (1 + 1e-6), 1e-8 * (1 - 1e-6), 5e-9])
def test_rank_screen_leaves_the_close_calls_to_the_svd(ratio, monkeypatch):
    """Far from the threshold the Gram eigenvalues prove the SVD test passes and it is not run;
    near it the SVD runs and refuses exactly when its sigma_min < 1e-8 sigma_max."""
    p, sol = _near_dependent_system(ratio)
    A, _ = stack_rows(p.blocks, p.eq_constraints)
    svals = np.linalg.svd(A.T, compute_uv=False)
    assert svals[-1] / svals[0] == pytest.approx(ratio, rel=1e-7)
    refused = bool(svals[-1] < 1e-8 * svals[0])
    assert refused == (ratio < 1e-8)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    if refused:
        with pytest.raises(RankDeficiencyError):
            project_affine(sol, p)
    else:
        project_affine(sol, p)
    assert len(calls) == (0 if ratio == 1e-3 else 1)


@pytest.fixture
def svd_calls(monkeypatch):
    """The arguments of each np.linalg.svd call made while the test runs."""
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _seeded_near_dependent_system(seed):
    """Eight random rows of one diag block of 60, the last the one before it plus 2.5e-8 times more noise."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 60))
    A[7] = A[6] + 2.5e-8 * rng.standard_normal(60)
    p = SdpProblem([Block("x", 60, "diag")], {"x": np.ones(60)}, [LinearTerm({"x": a}, 1.0) for a in A], [])
    sol = SdpSolution(blocks={"x": np.ones(60)}, y=np.zeros(8), objective=0.0, status="optimal", gap=0.0, iterations=0)
    return p, sol


@pytest.mark.kernel_independent
@pytest.mark.parametrize("ratio", np.logspace(-9, -3, 20).tolist())
def test_gram_proof_skips_the_svd_only_above_its_threshold(ratio, svd_calls):
    """The SVD is skipped only where its sigma_min / sigma_max is >= 1e-8, and always far above it."""
    p, sol = _near_dependent_system(ratio)
    A, _ = stack_rows(p.blocks, p.eq_constraints)
    try:
        project_affine(sol, p)
    except RankDeficiencyError:
        pass
    skipped = not svd_calls
    svals = np.linalg.svd(A.T, compute_uv=False)
    assert not skipped or svals[-1] >= 1e-8 * svals[0]
    assert skipped or ratio < 1e-6


@pytest.mark.kernel_independent
@pytest.mark.parametrize("seed", range(10))
def test_gram_proof_leaves_seeded_near_dependent_rows_to_the_svd(seed, svd_calls):
    """sigma_min / sigma_max is within 2x of 1e-8 at every seed: the SVD decides, and a failed
    Cholesky of A A^T after a passed SVD test is refused as rank deficiency too."""
    p, sol = _seeded_near_dependent_system(seed)
    try:
        project_affine(sol, p)
    except RankDeficiencyError:
        pass
    assert len(svd_calls) == 1


@pytest.mark.kernel_independent
def test_projection_refuses_a_gram_matrix_with_no_cholesky_factor(svd_calls):
    """Seed 0: the SVD's sigma_min / sigma_max = 1.15e-8 passes its test, then A A^T has no float Cholesky factor."""
    p, sol = _seeded_near_dependent_system(0)
    A, _ = stack_rows(p.blocks, p.eq_constraints)
    svals = np.linalg.svd(A.T, compute_uv=False)
    assert svals[-1] / svals[0] == pytest.approx(1.151e-8, rel=1e-3)
    with pytest.raises(RankDeficiencyError, match=r"equality system \(8 x 60\).*no float64 Cholesky factor"):
        project_affine(sol, p)


@pytest.mark.kernel_independent
def test_gram_proof_decides_problem_A_at_degree_15_without_the_svd(svd_calls):
    """At d = 15 the SVD's ratio is 3.3e-5; the Gram matrix's proof settles it."""
    problem = build_problem(RunConfig(d=15))
    blocks = {b.label: np.zeros((b.dim, b.dim) if b.kind == "psd" else b.dim) for b in problem.blocks}
    sol = SdpSolution(blocks=blocks, y=np.zeros(0), objective=0.0, status="optimal", gap=0.0, iterations=0)
    project_affine(sol, problem)
    assert svd_calls == []


@pytest.mark.parametrize("row", [LinearTerm({"X": np.zeros((2, 2))}, 0.0, "zero"), LinearTerm({}, 0.0, "empty")],
                         ids=["zero", "empty"])
def test_projection_refuses_an_equality_row_with_no_nonzero_coefficient(row):
    p = SdpProblem([Block("X", 2, "psd")], {"X": np.eye(2)}, [LinearTerm({"X": np.eye(2)}, 1.0, "trace"), row], [])
    p.validate()
    sol = SdpSolution(blocks={"X": np.eye(2)}, y=np.zeros(2), objective=0.0,
                      status="optimal", gap=0.0, iterations=0)
    with pytest.raises(ValueError, match=re.escape(f"row 1 ({row.label!r}) has no nonzero coefficient")):
        project_affine(sol, p)


def _stream_grid(grid_n):
    """The stream pass's level-0 boxes (row-major: y outer, x inner), without the radial part."""
    dx0 = 2.0 / grid_n
    edges0 = -1.0 + np.arange(grid_n) * dx0
    no_radial = SimpleNamespace(radial=lambda x, y: None)
    return certify._boxes(np.tile(edges0, grid_n), np.repeat(edges0, grid_n), 0.5 * dx0, no_radial)


@pytest.mark.kernel_independent
@pytest.mark.parametrize("grid_n", [1, 2, 7, 128])
def test_grid_screen_equals_the_per_slot_screen(grid_n):
    """`_grid_screen` gives `_screen`'s keep and region masks over the whole stream grid, including at normals
    with a +0.0 or -0.0 component and at a zero margin."""
    boxes = _stream_grid(grid_n)
    grid, pos = boxes._replace(grid_n=grid_n), np.arange(grid_n**2)
    dalpha = 0.4 * math.pi / 33  # the default slices; their first and last midpoints, and the ends themselves
    alphas = (-0.2 * math.pi, -0.2 * math.pi + 0.5 * dalpha, 0.0, 0.2 * math.pi - 0.5 * dalpha, 0.2 * math.pi)
    kept = set()
    for E in (1.0, 1.02, 1.1):
        for alpha in alphas:
            geo = certify._geometry(alpha, E)
            signed = geo.copy()
            signed[0, :4, 0] = [0.0, -0.0, 0.0, -0.0]
            signed[1, 2:6, 0] = [-0.0, 0.0, 0.0, -0.0]
            for g in (geo, signed):
                for margin in (0.0, (0.5 * E + 1e-12) * 0.5 * dalpha):
                    keep, region = certify._grid_screen(grid, g, margin)
                    ref_keep, ref_region = certify._screen(boxes, pos, g, margin)
                    assert keep.tobytes() == ref_keep.tobytes()
                    assert region.tobytes() == ref_region.tobytes()
                    kept.update(keep.tolist())
    assert kept == ({True, False} if grid_n > 1 else {True})


# -- margins -----------------------------------------------------------------


def test_feasibility_margin_trivial_cases():
    p = SdpProblem([Block("X", 3, "psd")], {}, [LinearTerm({"X": np.eye(3)}, 0.0)], [])
    zero = SdpSolution(blocks={"X": np.zeros((3, 3))}, y=np.zeros(1), objective=0.0,
                       status="optimal", gap=0.0, iterations=0)
    assert feasibility_margin(zero, p) == (0.0, 0.0)
    q = SdpProblem([Block("X", 3, "psd")], {}, [], [])
    ident = SdpSolution(blocks={"X": np.eye(3)}, y=np.zeros(0), objective=0.0,
                        status="optimal", gap=0.0, iterations=0)
    mineig, res = feasibility_margin(ident, q)
    assert mineig == pytest.approx(1.0, abs=1e-30)
    assert res == 0.0


def _margin_solution(blocks: dict) -> SdpSolution:
    return SdpSolution(blocks=blocks, y=np.zeros(0), objective=0.0, status="optimal", gap=0.0, iterations=0)


def test_feasibility_margin_keeps_a_nan_diag_entry():
    """min and max once dropped the NaN: X = I, D = [nan, 1] gave (1.0, 0.0), so the margins looked met."""
    p = SdpProblem([Block("X", 2, "psd"), Block("D", 2, "diag")], {},
                   [LinearTerm({"X": np.eye(2)}, 2.0), LinearTerm({"D": np.ones(2)}, 1.0)], [])
    sol = _margin_solution({"X": np.eye(2), "D": np.array([math.nan, 1.0])})
    mineig, res = feasibility_margin(sol, p)
    assert math.isnan(mineig) and math.isnan(res)
    sv = SignVerification(-0.01, (0.0, 0.0, 0.0), -0.01, True, 1, 1, 1.0, 0.0, 128, 1.02)
    assert not build_report(scaled_unit_tensor(1.0), sol, p, sv).certified


def test_feasibility_margin_of_a_psd_block_with_a_nan_entry_is_nan():
    """Such a block once reached mp.eigsy, which raised `tridiag_eigen: no convergence`."""
    p = SdpProblem([Block("X", 2, "psd")], {}, [LinearTerm({"X": np.diag([1.0, 0.0])}, 1.0)], [])
    mineig, res = feasibility_margin(_margin_solution({"X": np.array([[1.0, math.nan], [math.nan, 1.0]])}), p)
    assert math.isnan(mineig) and res == 0.0


@pytest.fixture(scope="module")
def refined_small(solved_small):
    """solved_small's problem and its refined, projected solution."""
    params, problem, sol = solved_small
    variant = assemble_feasibility_variant(problem, sol.objective, margin=1e-4)
    refined = solve(variant, mehrotra=False, gap_tol=1e-7, feas_tol=1e-9)
    assert refined.is_usable()
    return problem, project_affine(refined, problem)[0]


def test_feasibility_margin_on_refined_problem(refined_small):
    problem, projected = refined_small
    mineig, res = feasibility_margin(projected, problem, precision_bits=128)
    # interior point: equality residuals collapse, inequalities have slack,
    # eigenvalues dominate the residual by a wide margin
    assert res < 1e-12
    assert mineig > 1e3 * res


def _traced_margin(sol, p, monkeypatch):
    """feasibility_margin, with the rhs of each row it sums exactly and each matrix it hands to the
    eigenvalue enclosure and to eigsy."""
    rows, enclosed, eigsy_mats = [], [], []
    residual, enclosure, eigsy = certify._residual, certify._min_eig_enclosure, mp.eigsy

    def summed(weights, values, rhs):
        rows.append(rhs)
        return residual(weights, values, rhs)

    def enclosing(x, precision_bits):
        enclosed.append(np.array(x))
        return enclosure(x, precision_bits)

    def counted(A, **kwargs):
        eigsy_mats.append(np.array(A.tolist(), dtype=float))
        return eigsy(A, **kwargs)

    monkeypatch.setattr(certify, "_residual", summed)
    monkeypatch.setattr(certify, "_min_eig_enclosure", enclosing)
    monkeypatch.setattr(mp, "eigsy", counted)
    got = feasibility_margin(sol, p)
    monkeypatch.undo()
    return got, rows, enclosed, eigsy_mats


def test_feasibility_margin_equals_all_mp_reference(solved_small, monkeypatch):
    params, problem, sol = solved_small
    projected, _ = project_affine(sol, problem)
    got, rows, _, _ = _traced_margin(projected, problem, monkeypatch)
    assert got == margin_all_mp(projected, problem)
    # every equality row is summed exactly, and so are the inequality rows the
    # unrefined projection violates (the high-precision equality rows carry an
    # mpf rhs, inequality rows a float one)
    eq = [rhs for _, rhs, _ in problem.meta["hp_rows"]]
    assert rows[: len(eq)] == eq
    assert rows[len(eq):] and not any(isinstance(rhs, mp.mpf) for rhs in rows[len(eq):])


def test_feasibility_margin_sends_a_violated_row_to_mp(refined_small, monkeypatch):
    problem, projected = refined_small
    t = problem.ineq_constraints[7]
    value = sum(np.vdot(c, projected.blocks[lab]) for lab, c in t.coeffs.items())
    norm = math.sqrt(sum(np.vdot(c, c) for c in t.coeffs.values()))
    violated = LinearTerm(t.coeffs, float(value - 1e-9 * norm), t.label)
    rows = list(problem.ineq_constraints)
    rows[7] = violated
    p = SdpProblem(problem.blocks, problem.objective, problem.eq_constraints, rows, problem.meta)
    got, lifted, _, _ = _traced_margin(projected, p, monkeypatch)
    assert got == margin_all_mp(projected, p)
    assert lifted.count(violated.rhs) == 1
    assert got[1] == pytest.approx(1e-9, rel=1e-4)


@pytest.mark.kernel_independent
@pytest.mark.parametrize(
    "cfg", [RunConfig(), RunConfig(d=5, alpha_count=3, grid_n=16), RunConfig(facet_lines=True)],
    ids=["published", "tiny", "facet-lines"],
)
def test_inequality_screen_matches_the_per_row_form(cfg):
    """The stacked screen decides every row as the per-row sums do, at the solve's point and at its
    projection.  A copy of row 7 that the solve's point violates by 1e-9 of its norm is appended, so
    the screen's unproved outcome occurs on every BLAS kernel and thread count."""
    problem = build_problem(cfg)
    sol = solve(problem)
    t = problem.ineq_constraints[7]
    value = sum(np.vdot(c, sol.blocks[lab]) for lab, c in t.coeffs.items())
    norm = math.sqrt(sum(np.vdot(c, c) for c in t.coeffs.values()))
    rows = [*problem.ineq_constraints, LinearTerm(t.coeffs, float(value - 1e-9 * norm), t.label)]
    for point in (sol, project_affine(sol, problem)[0]):
        got = certify._ineqs_proved_satisfied(rows, point.blocks)
        assert got == [ineq_proved_satisfied_per_row(t, point.blocks) for t in rows]
        assert all(type(v) is bool for v in got)
    assert got[0] and not certify._ineqs_proved_satisfied(rows, sol.blocks)[-1]


def test_feasibility_margin_tied_blocks_both_reach_eigsy(refined_small, monkeypatch):
    """Neither of two blocks with one spectrum is skipped: each reaches the enclosure or eigsy."""
    problem, projected = refined_small
    # S0 holds the smallest eigenvalue; R00 becomes S0 reversed, the same spectrum
    s0 = np.asarray(projected.blocks["S0"])
    tied = SdpSolution(blocks={**projected.blocks, "R00": s0[::-1, ::-1].copy()}, y=projected.y,
                       objective=projected.objective, status=projected.status, gap=projected.gap,
                       iterations=projected.iterations)
    lows = sorted(np.linalg.eigvalsh(tied.blocks[lab])[0] for lab in ("S0", "R00"))
    assert lows[1] - lows[0] < 1e-13
    got, _, enclosed, eigsy_mats = _traced_margin(tied, problem, monkeypatch)
    assert got == margin_all_mp(tied, problem)
    assert any(np.array_equal(m, s0) for m in enclosed + eigsy_mats)
    assert any(np.array_equal(m, s0[::-1, ::-1]) for m in enclosed + eigsy_mats)


def test_feasibility_margin_logs_one_summary_line(refined_small, caplog):
    problem, projected = refined_small
    with caplog.at_level(logging.INFO, logger="pentapack.certify"):
        feasibility_margin(projected, problem)
    lines = [r.getMessage() for r in caplog.records if r.name == "pentapack.certify"]
    assert len(lines) == 1
    assert "margins: 26 inequality rows decided in float, 0 summed exactly, 54 equality rows summed exactly, " in lines[0]
    assert "7 blocks proved above the minimum, 1 decided by enclosure, 0 eigsy calls, " in lines[0]
    lo, hi = re.search(r"minimum eigenvalue in \[(\S+), (\S+)\]", lines[0]).groups()
    assert float(lo) <= float(hi)


def _spd(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def _gram_rank_deficient():
    """An exactly singular Gram matrix (integer entries, rank 7 of 8).

    Plain float Cholesky of it runs to completion with a common LAPACK, so
    a test that trusted Cholesky alone would accept it.
    """
    g = np.random.default_rng(0).integers(-4, 5, size=(8, 7)).astype(float)
    return g @ g.T


@pytest.mark.parametrize("b,tau,expected", [
    (np.eye(7), 0.0, True),
    (_spd(12, 1), 0.0, True),
    (_spd(12, 2), np.linalg.eigvalsh(_spd(12, 2))[0] * (1 - 1e-9), True),
    (_gram_rank_deficient(), 0.0, False),
    (np.diag([1.0, 0.0, 1.0]), 0.0, False),
    (np.diag([1.0, -1.0, 1.0]), 0.0, False),
    (_spd(12, 3), np.linalg.eigvalsh(_spd(12, 3))[0] + 1e-15 * np.linalg.norm(_spd(12, 3)), False),
    (np.eye(3), math.nan, False),
])
def test_proved_positive_definite(b, tau, expected):
    assert _proved_positive_definite(b, tau) is expected


def _block_margin(monkeypatch, x, diag=None):
    """feasibility_margin of one dense block (and a diag block), with two float equality rows,
    checked against the all-mp route; the matrices handed to the enclosure and to eigsy."""
    blocks, values = [Block("X", len(x), "psd")], {"X": x}
    if diag is not None:
        blocks.append(Block("D", len(diag), "diag"))
        values["D"] = diag
    rows = [LinearTerm({"X": np.eye(len(x))}, float(np.trace(x)) + 1e-9), LinearTerm({"X": x}, 1.0)]
    p = SdpProblem(blocks, {}, rows, [])
    sol = SdpSolution(blocks=values, y=np.zeros(0), objective=0.0, status="optimal", gap=0.0, iterations=0)
    got, _, enclosed, eigsy_mats = _traced_margin(sol, p, monkeypatch)
    assert got == margin_all_mp(sol, p)
    return got, enclosed, eigsy_mats


def _planted(lams, seed):
    """Q diag(lams) Q^T for a random orthogonal Q, symmetrized."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lams), len(lams))))
    b = (q * np.asarray(lams)) @ q.T
    return 0.5 * (b + b.T)


@pytest.mark.parametrize("x", [
    *(_spd(n, seed) for n, seed in ((2, 20), (12, 21), (36, 22))),
    _planted([1e-6, 2e-6, 0.5, 3.0, 110.0], 23),
    _planted(np.geomspace(1e-9, 1e3, 20), 24),
    _planted([1.0, 1.0 + 1e-12, 2.0, 3.0, 4.0, 5.0], 25),  # a planted gap of 1e-12 is still proved
])
def test_min_eig_enclosure_decides_random_spd(x, monkeypatch):
    got, enclosed, eigsy_mats = _block_margin(monkeypatch, x)
    assert len(enclosed) == 1 and not eigsy_mats


@pytest.mark.parametrize("x", [
    _planted([1.0, 1.0 + 1e-15, 2.0, 3.0, 4.0, 5.0], 25),  # a gap below float resolution
    np.kron(np.eye(2), _spd(6, 26)),  # every eigenvalue exactly twice
])
def test_min_eig_enclosure_falls_back_to_eigsy(x, monkeypatch):
    got, enclosed, eigsy_mats = _block_margin(monkeypatch, x)
    assert len(enclosed) == 1 and len(eigsy_mats) == 1
    with mp.workprec(128):
        assert certify._min_eig_enclosure(x, 128) is None


def test_feasibility_margin_diag_minimum_ties_a_block_minimum(monkeypatch):
    x = _spd(10, 27)
    (low, _), _, _ = _block_margin(monkeypatch, x)
    got, enclosed, eigsy_mats = _block_margin(monkeypatch, x, diag=np.array([2.0 * low, low]))
    assert got[0] == low
    assert len(enclosed) + len(eigsy_mats) >= 1  # the block is not proved above the tie


def test_feasibility_margin_sends_both_near_tied_equality_rows_to_mp(monkeypatch):
    """Two rows whose residuals differ by 1e-30 keep that difference; every row, the one far below them too,
    is summed exactly."""
    x = np.array([[0.75, 0.125], [0.125, 2.5]])
    with mp.workdps(50):
        w = {("X", 0, 0): mp.mpf(1) / 3, ("X", 0, 1): mp.mpf(2) / 7, ("X", 1, 1): mp.sqrt(2)}
        value = sum(c * mp.mpf(float(x[i, j])) for (_, i, j), c in w.items())
        rhs = [value - mp.mpf("1e-12"), value - mp.mpf("1e-12") - mp.mpf("1e-30"), value - mp.mpf("1e-14")]
    p = SdpProblem([Block("X", 2, "psd")], {}, [], [], {"hp_rows": [(w, r, f"row{k}") for k, r in enumerate(rhs)]})
    sol = SdpSolution(blocks={"X": x}, y=np.zeros(0), objective=0.0, status="optimal", gap=0.0, iterations=0)
    got, summed, _, _ = _traced_margin(sol, p, monkeypatch)
    assert got == margin_all_mp(sol, p)
    assert summed == rhs
    with mp.workprec(128):
        norm = mp.sqrt(sum(c * c for c in w.values()))
        assert got[1] == float((mp.mpf("1e-12") + mp.mpf("1e-30")) / norm)


@pytest.mark.parametrize("hp_rows", [True, False])
def test_feasibility_margin_sums_a_cancelling_row_exactly(hp_rows):
    """x_00 - x_11 = -2^-100 at X = diag(2^100, 2^100): the residual 2^-100 / sqrt(2) once read 0.0,
    lost to cancellation in a 128-bit sum; here as a high-precision row and as a float row."""
    weights, x = (1, -1), 2.0**100
    if hp_rows:
        row = ({("X", 0, 0): mp.mpf(weights[0]), ("X", 1, 1): mp.mpf(weights[1])}, -mp.mpf(2) ** -100, "row")
        p = SdpProblem([Block("X", 2, "psd")], {}, [], [], {"hp_rows": [row]})
    else:
        p = SdpProblem([Block("X", 2, "psd")], {}, [LinearTerm({"X": np.diag(weights)}, -(2.0**-100))], [])
    _, res = feasibility_margin(_margin_solution({"X": np.diag([x, x])}), p)
    A = sum(w * Fraction(x) for w in weights) - Fraction(-(2.0**-100))
    N = sum(w * w for w in weights)
    assert Fraction(math.nextafter(res, 0.0)) ** 2 * N < A**2 < Fraction(math.nextafter(res, math.inf)) ** 2 * N
    assert res == 5.578088954947358e-31


@pytest.mark.parametrize("hp_rows", [True, False])
def test_feasibility_margin_refuses_an_equality_row_with_no_nonzero_weight(hp_rows):
    """Its sum of squared weights is 0, so the normalizing division once died with a bare ZeroDivisionError;
    here next to a normal row on X = I, as a high-precision row and as a float row."""
    if hp_rows:
        rows = [({("X", 0, 0): mp.mpf(1), ("X", 1, 1): mp.mpf(1)}, mp.mpf(2), "trace"),
                ({("X", 0, 1): mp.mpf(0)}, mp.mpf(1), "zero")]
        p = SdpProblem([Block("X", 2, "psd")], {}, [], [], {"hp_rows": rows})
    else:
        rows = [LinearTerm({"X": np.eye(2)}, 2.0, "trace"), LinearTerm({"X": np.zeros((2, 2))}, 1.0, "zero")]
        p = SdpProblem([Block("X", 2, "psd")], {}, rows, [])
    with pytest.raises(ValueError, match=r"equality row 1 \('zero'\) has no nonzero weight"):
        feasibility_margin(_margin_solution({"X": np.eye(2)}), p)


# -- Lipschitz ---------------------------------------------------------------


def test_lipschitz_zero_tensor():
    t = scaled_unit_tensor(0.0)
    assert _lipschitz_pair(t, 1.0, 128)[0] == 0.0


def test_lipschitz_unit_tensor_dominates_analytic_maximum():
    t = scaled_unit_tensor(1.0)
    # max |d/drho (1/(2pi)) e^(-pi rho^2)| = e^(-1/2) / sqrt(2 pi)
    analytic = math.exp(-0.5) / math.sqrt(2 * math.pi)
    L = _lipschitz_pair(t, 1.0, 128)[0]
    assert L >= analytic
    assert L < 10 * analytic  # and not wildly loose


def test_lipschitz_dominates_sampled_gradients():
    rng = np.random.default_rng(81)
    for trial in range(5):
        t = random_positive_tensor(ModelParams(2, 3), rng)
        Lx, La = _lipschitz_pair(t, 1.0, 128)
        gmax = amax = 0.0
        eps = 1e-6
        for _ in range(2000):
            x, y = rng.uniform(-0.7, 0.7, 2)
            if x * x + y * y > 1:
                continue
            a = rng.uniform(0, 2 * math.pi)

            def f(xx, yy, aa):
                rho = math.hypot(xx, yy)
                th = math.atan2(yy, xx) if rho > 0 else 0.0
                return evaluate_f(t, MotionPoint(rho, th % (2 * math.pi), aa % (2 * math.pi)))

            gx = (f(x + eps, y, a) - f(x - eps, y, a)) / (2 * eps)
            gy = (f(x, y + eps, a) - f(x, y - eps, a)) / (2 * eps)
            ga = (f(x, y, a + eps) - f(x, y, a - eps)) / (2 * eps)
            gmax = max(gmax, math.hypot(gx, gy))
            amax = max(amax, abs(ga))
        assert Lx >= 1.05 * gmax
        assert La >= amax * 0.999  # alpha bound is near-tight by construction


def weighted_sup_all_panels(coeffs, u_max, panels=None):
    """Reference: `_weighted_sup` by mp on every panel, without the float screen.

    On the shared grid `panels` when given, else on its own 24 panels of [0, u_max].
    """
    if panels is None:
        step = mp.mpf(u_max) / 24
        starts = [i * step for i in range(24)]
    else:
        step, starts = panels.step, panels.starts
    total = mp.mpf(0)
    for a in starts:
        bound = certify._bernstein_max(coeffs, a, a + step) * mp.e ** (-mp.pi * a)
        total = max(total, bound)
    return total


def _count_bernstein_calls(monkeypatch):
    calls = []
    bernstein_max = certify._bernstein_max

    def counted(*args):
        calls.append(args)
        return bernstein_max(*args)

    monkeypatch.setattr(certify, "_bernstein_max", counted)
    return calls


def test_weighted_sup_equals_all_panels_on_paper_default_polynomials(monkeypatch):
    seen = []
    weighted_sup = certify._weighted_sup

    def recorded(coeffs, u_max, panels):
        seen.append((coeffs, u_max, weighted_sup(coeffs, u_max, panels)))
        return seen[-1][2]

    monkeypatch.setattr(certify, "_weighted_sup", recorded)
    _lipschitz_pair(CoefficientTensor.loads(PAPER_DEFAULT_TENSOR.read_text()), math.sqrt(2.0) + 0.01, 256)
    assert len(seen) == 6  # the alpha term of the s = 0 pair is not taken
    with mp.workprec(256):
        for coeffs, u_max, value in seen:
            assert value == weighted_sup_all_panels(coeffs, u_max)


def _cancelling_polynomials():
    """(coefficients, u_max) with alternating signs; values far below the coefficients."""
    rng = np.random.default_rng(83)
    binomials = [  # (u - r)^n expanded
        [mp.mpf(math.comb(n, k)) * (-r) ** (n - k) for k in range(n + 1)]
        for n, r in [(11, 1), (11, 0.5), (8, 2), (13, 1.25)]
    ]
    randoms = [
        [mp.mpf(float(x)) * (-1) ** k * 10 ** float(e) for k, (x, e) in
         enumerate(zip(np.abs(rng.standard_normal(K)), rng.uniform(-4, 4, K)))]
        for K in rng.integers(1, 15, 40)
    ]
    return [(coeffs, mp.mpf(float(rng.uniform(0.1, 4.0)))) for coeffs in binomials + randoms]


def test_weighted_sup_equals_all_panels_under_cancellation():
    with mp.workprec(256):
        for coeffs, u_max in _cancelling_polynomials():
            assert certify._weighted_sup(coeffs, u_max) == weighted_sup_all_panels(coeffs, u_max)


def test_panel_bounds_enclose_every_panel_value():
    with mp.workprec(256):
        for coeffs, u_max in _cancelling_polynomials():
            step = u_max / 24
            starts = [i * step for i in range(24)]
            lo, hi = certify._panel_bounds(coeffs, certify._panels(u_max))
            for a, low, high in zip(starts, lo.tolist(), hi.tolist()):
                value = certify._bernstein_max(coeffs, a, a + step) * mp.e ** (-mp.pi * a)
                assert low <= value <= high


@pytest.mark.parametrize("coeffs", [[], [3.5], [-2.0], [0.0], [0.0] * 6, [0.0, 0.0, 1e-310]])
def test_weighted_sup_degenerate_polynomials(coeffs):
    with mp.workprec(256):
        coeffs = [mp.mpf(c) for c in coeffs]
        u_max = mp.mpf(2.0283)
        assert certify._weighted_sup(coeffs, u_max) == weighted_sup_all_panels(coeffs, u_max)


def test_weighted_sup_sends_tied_panels_to_mp(monkeypatch):
    # p(u) = u: panel i gives (i + 1) w e^(-pi i w), and w = ln 2 / pi ties panels 0 and 1
    calls = _count_bernstein_calls(monkeypatch)
    with mp.workprec(256):
        coeffs, u_max = [mp.mpf(0), mp.mpf(1)], 24 * mp.log(2) / mp.pi
        assert certify._weighted_sup(coeffs, u_max) == weighted_sup_all_panels(coeffs, u_max)
        assert sorted(a for _, a, _ in calls[:-24]) == [0, u_max / 24]


def test_weighted_sup_beyond_float_range_sends_every_panel_to_mp(monkeypatch):
    calls = _count_bernstein_calls(monkeypatch)
    with mp.workprec(256):
        coeffs = [mp.mpf(1), mp.mpf("1e400"), mp.mpf(-3)]
        assert certify._weighted_sup(coeffs, mp.mpf(2)) == weighted_sup_all_panels(coeffs, mp.mpf(2))
    assert len(calls) == 24 + 24  # the screened call, then the reference


def test_lipschitz_pair_on_paper_default_sends_six_panels_to_mp(monkeypatch):
    calls = _count_bernstein_calls(monkeypatch)
    before = dict(certify._panel_counts)
    t = CoefficientTensor.loads(PAPER_DEFAULT_TENSOR.read_text())
    assert _lipschitz_pair(t, math.sqrt(2.0) + 0.01, 256) == (2.626546471299487, 0.0704477702920862)
    assert len(calls) == 6
    assert certify._panel_counts["all"] - before["all"] == 144
    assert certify._panel_counts["mp"] - before["mp"] == 6


def test_lipschitz_pair_equals_all_panels_reference(monkeypatch):
    rng = np.random.default_rng(84)
    tensors = [random_positive_tensor(ModelParams(2, 3), rng) for _ in range(5)]
    tensors += [make() for make, *_ in GOLDEN_CASES.values()]  # 'deep' is the paper-default fixture
    for t in tensors:
        for rho_max, bits in [(math.sqrt(2.0) + 0.01, 256), (1.0, 128)]:
            screened = _lipschitz_pair(t, rho_max, bits)
            with monkeypatch.context() as m:
                m.setattr(certify, "_weighted_sup", weighted_sup_all_panels)
                assert _lipschitz_pair(t, rho_max, bits) == screened


# -- high-precision evaluator ------------------------------------------------


def test_mp_evaluator_matches_closed_form():
    rng = np.random.default_rng(82)
    t = random_positive_tensor(ModelParams(5, 5), rng)
    ev = MpEvaluator(t, 256)
    for _ in range(25):
        x, y = rng.uniform(-1, 1, 2)
        a = rng.uniform(0, 2 * math.pi)
        ct, st = ev.alpha_tables(a)
        got = float(ev.eval(x, y, ct, st))
        rho = math.hypot(x, y)
        th = math.atan2(y, x) if rho > 0 else 0.0
        want = evaluate_f(t, MotionPoint(rho, th % (2 * math.pi), a))
        assert got == pytest.approx(want, abs=1e-13 * max(1, t.l1_norm()))


KERNEL_BITS = [53, 64, 128, 192, 256]


@pytest.mark.parametrize("bits", KERNEL_BITS)
def test_mp_evaluator_equals_its_operator_form(bits):
    """The libmp calls of `MpEvaluator.eval` give the mpf operators' number, the origin included."""
    rng = np.random.default_rng(85)
    tensors = [random_positive_tensor(ModelParams(*nd), rng) for nd in ((2, 3), (5, 5), (3, 7))]
    tensors += [scaled_unit_tensor(0.0), CoefficientTensor.loads(PAPER_DEFAULT_TENSOR.read_text())]
    for t in tensors:
        ev = MpEvaluator(t, bits)
        for x, y in [(0.0, 0.0), (0.0, -0.5), *rng.uniform(-1.2, 1.2, (20, 2)).tolist()]:
            alpha = float(rng.uniform(-math.pi, math.pi))
            ct, st = ev.alpha_tables(alpha)
            assert ev.eval(x, y, ct, st)._mpf_ == mp_eval_operators(ev, x, y, ct, st)._mpf_
            with mp.workprec(bits):
                a = mp.mpf(alpha)
                assert all(ct[s] == mp.cos(s * a) and st[s] == mp.sin(s * a) for s in ct)


@pytest.mark.parametrize("bits", KERNEL_BITS)
def test_bernstein_max_equals_its_operator_form(bits):
    """`_bernstein_max`, with each power once and libmp sums, gives the mpf operators' number."""
    with mp.workprec(bits):
        degenerate = [([mp.mpf(c) for c in cs], mp.mpf(2)) for cs in ([], [0.0, 0.0, 1e-310])]
        for coeffs, u_max in _cancelling_polynomials() + degenerate:
            step = u_max / 24
            for a in (mp.mpf(0), 7 * step, 23 * step):
                got = certify._bernstein_max(coeffs, a, a + step)
                assert got._mpf_ == bernstein_max_operators(coeffs, a, a + step)._mpf_


# -- sign verification -------------------------------------------------------


def test_verify_certifies_negative_tensor():
    t = scaled_unit_tensor(-1.0)
    sv = verify_nonpositivity(t, 1.02, VerifySpec(alpha_count=5, grid_n=24, max_depth=4), 256)
    assert sv.certified_sign
    assert sv.sign_margin < 0
    assert sv.cert_margin <= 0
    assert sv.stream_points > 0
    # every split level-0 box refined to depth 4 without abort; recorded when
    # refinement decided one box's children per batch
    assert asdict(sv) == dict(
        sign_margin=-0.007423448552946542,
        witness=(0.9877724659274748, 4.229875685362213, 5.7805304826052195),
        cert_margin=-1.092129888989428e-05,
        certified_sign=True,
        stream_points=318,
        evaluations=1421680,
        lipschitz_x=1.4242135623745193,
        lipschitz_alpha=0.0,
        precision_bits=256,
        enlargement=1.02,
        failures=[],
        notes=NOTES,
    )


@pytest.mark.parametrize("alpha_count,grid_n", [(5, 24), (8, 64), (33, 40)])
def test_verify_streams_the_verification_sample(alpha_count, grid_n):
    spec = VerifySpec(alpha_count=alpha_count, grid_n=grid_n, max_depth=0)
    sv = verify_nonpositivity(scaled_unit_tensor(-1.0), 1.02, spec, 128)
    assert sv.stream_points == sum(1 for _ in verification_sample(alpha_count, grid_n, 1.02))


def test_verify_flags_positive_tensor():
    t = scaled_unit_tensor(1.0)  # positive everywhere
    sv = verify_nonpositivity(t, 1.02, VerifySpec(alpha_count=3, grid_n=16, max_depth=2), 128)
    assert not sv.certified_sign
    assert sv.sign_margin > 0
    assert sv.failures


def test_verify_alpha_restriction():
    t = scaled_unit_tensor(-1.0)
    sv = verify_nonpositivity(t, 1.02, VerifySpec(alpha_count=5, grid_n=16, max_depth=2), 128)
    lo, hi = -2 * math.pi / 10, 2 * math.pi / 10
    a = sv.witness[2]
    if a > math.pi:
        a -= 2 * math.pi
    assert lo - 1e-12 <= a <= hi + 1e-12


def test_verify_rejects_shrinking():
    with pytest.raises(ValueError):
        verify_nonpositivity(scaled_unit_tensor(-1.0), 0.9, VerifySpec(3, 8, 1))


@pytest.mark.parametrize("enlargement", [math.nan, math.inf])
def test_verify_refuses_a_non_finite_enlargement(enlargement):
    """`enlargement < 1.0` once let NaN through: the verifier ran to completion and final_bound gave nan."""
    t = scaled_unit_tensor(1.0)
    with pytest.raises(ValueError, match="enlargement must be finite and >= 1"):
        verify_nonpositivity(t, enlargement, VerifySpec(3, 8, 1), 128)
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        final_bound(t, enlargement)


@pytest.mark.parametrize("bits, compiles", [(128, 1), (256, 1), (64, 2)])
def test_verify_compiles_the_tensor_once(bits, compiles, monkeypatch):
    """The evaluator and the Lipschitz bound share one compile when both work at the same precision."""
    calls = []
    compiled_pairs = certify._compiled_pairs
    monkeypatch.setattr(certify, "_compiled_pairs", lambda t: calls.append(t) or compiled_pairs(t))
    verify_nonpositivity(scaled_unit_tensor(-1.0), 1.02, VerifySpec(3, 8, 1), bits)
    assert len(calls) == compiles


@pytest.mark.parametrize("bits", [52, 0, -1])
def test_verify_refuses_fewer_than_53_bits(bits, monkeypatch):
    """At 0 bits the verifier once returned sign_margin -0.25 for the paper-default tensor (-0.00105 at 256)."""
    monkeypatch.setattr(certify, "MpEvaluator", None)  # refused before the tensor is compiled
    with pytest.raises(ValueError, match=rf"^precision_bits must be >= 53, got {bits}$"):
        verify_nonpositivity(scaled_unit_tensor(-1.0), 1.02, VerifySpec(3, 8, 1), bits)


@pytest.mark.parametrize("spec, name", [((0, 8, 1), "alpha_count"), ((-3, 8, 1), "alpha_count"),
                                        ((3, 0, 1), "grid_n"), ((3, -4, 1), "grid_n"), ((3, 8, -1), "max_depth")])
def test_verify_refuses_an_empty_sweep(spec, name):
    """A negative grid or alpha count once certified with no stream point; 0 divided by zero."""
    with pytest.raises(ValueError, match=rf"^VerifySpec {name} must be >= [01], got -?\d+$"):
        verify_nonpositivity(scaled_unit_tensor(-1.0), 1.02, VerifySpec(*spec), 128)


def test_build_report_does_not_certify_an_indefinite_block():
    """A proved sign and a residual near 1e-9 do not certify a block whose smallest eigenvalue is -1e-3."""
    p = SdpProblem([Block("X", 2, "psd")], {}, [LinearTerm({"X": np.eye(2)}, 1.0)], [])
    sol = SdpSolution(blocks={"X": np.diag([1.001 + 1e-9, -1e-3])}, y=np.zeros(1), objective=0.0,
                      status="optimal", gap=0.0, iterations=0)
    sv = SignVerification(-0.01, (0.0, 0.0, 0.0), -0.01, True, 1, 1, 1.0, 0.0, 128, 1.02)
    assert not build_report(scaled_unit_tensor(1.0), sol, p, sv).certified


@pytest.mark.parametrize("sign_margin, lipschitz_x, cert_margin", [
    (-0.0004152688227695016, 3.109843462086795, -8.32734014991692e-21),
    (-0.000602703181819313, 2.294141017204881, 0.0),
])
def test_build_report_certifies_on_the_sign_verdict(sign_margin, lipschitz_x, cert_margin):
    """A proved sign and an exactly met equality row certify.

    For these triples sign_margin + L_x * max((cert_margin - sign_margin)/L_x, 0)
    rounds to 5.4e-20 and 1.1e-19, so a sign test on that covering-radius
    round trip turned the proved cert_margin <= 0 into a NO.
    """
    p = SdpProblem([Block("X", 2, "psd")], {}, [LinearTerm({"X": np.eye(2)}, 2.0)], [])
    sol = _margin_solution({"X": np.eye(2)})
    assert feasibility_margin(sol, p) == (1.0, 0.0)
    sv = SignVerification(sign_margin, (0.0, 0.0, 0.0), cert_margin, True, 1, 1, lipschitz_x, 0.0, 128, 1.02)
    assert build_report(scaled_unit_tensor(1.0), sol, p, sv).certified is True


def test_verify_precision_consistency():
    """sign_margin agrees between 256-bit and 128-bit evaluation runs."""
    rng = np.random.default_rng(83)
    t = random_positive_tensor(ModelParams(2, 3), rng)
    spec = VerifySpec(alpha_count=4, grid_n=24, max_depth=0)
    hi = verify_nonpositivity(t, 1.02, spec, 256)
    lo = verify_nonpositivity(t, 1.02, spec, 128)
    assert hi.stream_points == lo.stream_points
    assert hi.sign_margin == pytest.approx(lo.sign_margin, abs=1e-10)


_IMPORT_GRAPH_SCRIPT = """
import json, sys
import numpy as np
import pentapack
from pentapack.certify import VerifySpec, verify_nonpositivity
from pentapack.fourier import CoefficientTensor, ModelParams
from pentapack.sdp import Block, LinearTerm, SdpProblem
e = np.zeros((5, 5, 4))
e[2, 2, 0] = -1.0
sv = verify_nonpositivity(CoefficientTensor(ModelParams(2, 3), e), 1.02, VerifySpec(3, 8, 1), 128)
after_verify = sorted(m for m in ("scipy.linalg", "scipy.integrate", "scipy.special") if m in sys.modules)
sol = pentapack.solve(SdpProblem([Block("X", 2, "psd")], {"X": np.eye(2)}, [LinearTerm({"X": np.eye(2)}, 1.0)], []))
print(json.dumps([sv.sign_margin, after_verify, sol.status, "scipy.linalg" in sys.modules]))
"""


_SRC = Path(certify.__file__).resolve().parents[1]


def _run_fresh(script: str):
    """The JSON a script prints in a fresh process that imports pentapack from this source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_verify_loads_neither_scipy_linalg_nor_integrate():
    """In a fresh process (this one already holds scipy), verify needs no scipy; a solve loads scipy.linalg."""
    sign_margin, after_verify, status, linalg_after_solve = _run_fresh(_IMPORT_GRAPH_SCRIPT)
    assert sign_margin < 0
    assert after_verify == []
    assert status == "optimal"
    assert linalg_after_solve


def test_generate_path_loads_no_scipy_submodule():
    """In a fresh process, building and exporting Problem A loads no scipy submodule."""
    script = """import json, sys
from pentapack.pipeline import RunConfig, build_problem
from pentapack.sdpa import export_sdpa
tiny = dict(d=5, alpha_count=3, grid_n=16, verify_alpha_count=5, verify_grid_n=24, verify_max_depth=3, precision_bits=192)
export_sdpa(build_problem(RunConfig(**tiny)))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))"""
    assert _run_fresh(script) == []


def test_package_holds_no_test_oracle():
    """No pentapack module imports or loads tests/oracles.py, or loads the scipy parts only the oracles use."""
    script = """import importlib, json, pkgutil, sys, pentapack
for m in pkgutil.iter_modules(pentapack.__path__, "pentapack."): importlib.import_module(m.name)
print(json.dumps(sorted(m for m in ("oracles", "scipy.integrate", "scipy.special") if m in sys.modules)))"""
    assert _run_fresh(script) == []
    assert [p.name for p in sorted((_SRC / "pentapack").glob("*.py")) if {"oracles", "tests"} & _imported_names(p)] == []


def _imported_names(path: Path) -> set[str]:
    """Every dotted part of every module an import statement in the file names, nested ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)  # `from . import oracles`
    return names


# -- float64 evaluation with an error radius ---------------------------------


def test_float_evaluator_encloses_mp_value():
    """|v - f_256| <= E at random points, the origin, rho ~ sqrt(2) and slice edges."""
    rng = np.random.default_rng(84)
    dalpha = 0.4 * math.pi / 33
    alphas = [-0.2 * math.pi + k * dalpha for k in range(34)]  # edges of the default 33 slices
    for _ in range(3):
        t = random_positive_tensor(ModelParams(5, 11), rng)
        ev = MpEvaluator(t, 256)
        fe = FloatEvaluator(ev)
        checked = 0
        for alpha in alphas:
            cos_t, sin_t = ev.alpha_tables(alpha)
            x, y = rng.uniform(-1.0, 1.0, (2, 300))
            x[:6] = [0.0, 1.0, -1.0, 1.0, 1.0 - 1e-9, -1.0]
            y[:6] = [0.0, 1.0, 1.0, -1.0, 1.0, -1.0 + 1e-9]
            part = fe.radial(x, y)
            v, E = fe.pair_sum(part, *fe.tables(cos_t, sin_t)), part.E
            f = np.array([float(ev.eval(a, b, cos_t, sin_t)) for a, b in zip(x.tolist(), y.tolist())])
            assert np.all(np.abs(v - f) <= E)
            checked += x.size
        assert checked >= 10_000


def test_split_float_evaluator_equals_eval_bit_for_bit():
    """`pair_sum` on rows taken from one `radial` call equals it on a `radial` of those points alone, bits and all.

    As in the verifier: the alpha-free part of a set of points is computed
    once, and subsets of its points are gathered, each with one table row
    for all or one per point.
    """
    rng = np.random.default_rng(85)
    paper_default = CoefficientTensor.loads(PAPER_DEFAULT_TENSOR.read_text())
    for t in (paper_default, random_positive_tensor(ModelParams(5, 11), rng)):
        ev = MpEvaluator(t, 256)
        fe = FloatEvaluator(ev)
        x, y = rng.uniform(-1.0, 1.0, (2, 2000))
        x[:3], y[:3] = [0.0, 1.0, -1.0], [0.0, 1.0, 0.0]
        grid = fe.radial(x, y)
        tables = [fe.tables(*ev.alpha_tables(a)) for a in rng.uniform(-0.7, 0.7, 40)]
        cos_rows, sin_rows = np.array(tables).swapaxes(0, 1)  # (alpha, pair) each
        for size in (0, 1, 2, 7, 100, 1000, 2000):
            idx = np.sort(rng.choice(x.size, size, replace=False))
            per_box = rng.integers(0, len(cos_rows), size)
            for cos_s, sin_s in [(cos_rows[0], sin_rows[0]), (cos_rows[per_box], sin_rows[per_box])]:
                part = grid.take(idx)
                alone = fe.radial(x[idx], y[idx])
                v, E = fe.pair_sum(alone, cos_s, sin_s), alone.E
                assert fe.pair_sum(part, cos_s, sin_s).tobytes() == v.tobytes()
                assert part.E.tobytes() == E.tobytes()


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_mp_evaluator_pairs_equal_the_per_term_form(bits):
    rng = np.random.default_rng(86)
    tensors = [random_positive_tensor(ModelParams(N, 11), rng) for N in (5, 10)]
    for t in [CoefficientTensor.loads(PAPER_DEFAULT_TENSOR.read_text()), *tensors]:
        want = [(s, md, [c._mpf_ for c in u]) for s, md, u in compiled_pairs_per_term(t, bits)]
        assert [(s, md, [c._mpf_ for c in u]) for s, md, u in MpEvaluator(t, bits).pairs] == want


@pytest.mark.parametrize("bits", [53, 64, 128, 192, 256, 300])
def test_alpha_tables_equal_one_cos_sin_per_s(bits):
    """The -s entries, (cos, -sin) of the s entries, are what `mp.cos_sin(-s alpha)` gives."""
    rng = np.random.default_rng(87)
    ev = MpEvaluator(random_positive_tensor(ModelParams(15, 15), rng), bits)
    assert {-15, -10, -5, 0, 5, 10, 15} <= {s for s, _, _ in ev.pairs}
    for alpha in [0.0, math.pi / 5, -math.pi / 5, *rng.uniform(-4.0, 4.0, 150).tolist()]:
        got, want = ev.alpha_tables(alpha), alpha_tables_per_s(ev, alpha)
        for table, ref in zip(got, want):
            assert {s: v._mpf_ for s, v in table.items()} == {s: v._mpf_ for s, v in ref.items()}


def _tensor(N, d, entries):
    e = np.zeros((2 * N + 1, 2 * N + 1, d + 1))
    for (r, s, k), v in entries.items():
        e[N + r, N + s, k] = v
    return CoefficientTensor(ModelParams(N, d), e)


PAPER_DEFAULT_TENSOR = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "paper_default_tensor.txt"

# (tensor, enlargement, spec, precision_bits): one run certifies, one stops at
# the failure budget, one has a positive witness, and one spends the failure
# budget inside a subtree reaching depth 5 of a paper-default tensor
GOLDEN_CASES = {
    "certifies": (
        lambda: _tensor(2, 3, {(0, 0, 0): -25.0, (0, 0, 1): 118.0, (0, 0, 2): -124.0,
                               (0, 0, 3): 32.5, (1, 1, 0): 0.2, (-1, -1, 0): 0.2}),
        1.02, VerifySpec(5, 16, 3), 192,
    ),
    "aborts": (lambda: scaled_unit_tensor(1.0), 1.02, VerifySpec(3, 24, 2), 128),
    "positive": (
        lambda: random_positive_tensor(ModelParams(5, 11), np.random.default_rng(7)),
        1.02, VerifySpec(3, 12, 2), 256,
    ),
    "deep": (
        lambda: CoefficientTensor.loads(PAPER_DEFAULT_TENSOR.read_text()),
        1.02, VerifySpec(3, 16, 5), 256,
    ),
}

NOTES = "adaptive box certification"
ABORTED = "; refinement aborted at the failure/evaluation budget"

# 'certifies' recorded from the verifier that evaluated every box at
# precision_bits; 'aborts', 'positive' and 'deep' from the verifier that counts
# every box it decides, run with FLOAT_ERROR_RADIUS = inf (every decision by mp).
GOLDEN = {
    'certifies': dict(
        sign_margin=-0.6259127883779854,
        witness=(0.9882117688026185, 4.3906384259880475, 0.0),
        cert_margin=-0.23292003875018863,
        certified_sign=True,
        stream_points=196,
        evaluations=520,
        lipschitz_x=3.1565041213210123,
        lipschitz_alpha=0.06366197723682179,
        precision_bits=192,
        enlargement=1.02,
        failures=[
        ],
        notes=NOTES,
    ),
    'aborts': dict(
        sign_margin=0.013674174104823371,
        witness=(0.8838834764831842, 0.7853981633974483, 5.8643062867009474),
        cert_margin=0.09759676308922942,
        certified_sign=False,
        stream_points=182,
        evaluations=696,
        lipschitz_x=1.4242135623745193,
        lipschitz_alpha=0.0,
        precision_bits=128,
        enlargement=1.02,
        failures=[
            (-0.20833333333333334, -0.9583333333333334, -0.4188790204786391, 0.0077545281104254744, 0.09167711709483152),
            (-0.12500000000000008, -0.9583333333333334, -0.4188790204786391, 0.00846164337956653, 0.09238423236397258),
            (-0.041666666666666706, -0.9583333333333334, -0.4188790204786391, 0.008839025552510866, 0.09276161453691692),
            (0.041666666666666664, -0.9583333333333334, -0.4188790204786391, 0.008839025552510866, 0.09276161453691692),
            (0.12499999999999992, -0.9583333333333334, -0.4188790204786391, 0.00846164337956653, 0.09238423236397258),
            (0.20833333333333318, -0.9583333333333334, -0.4188790204786391, 0.007754528110425476, 0.09167711709483152),
            (-0.4583333333333333, -0.875, -0.4188790204786391, 0.007423448552946542, 0.0913460375373526),
            (-0.37500000000000006, -0.875, -0.4188790204786391, 0.009233238652742932, 0.09315582763714898),
            (-0.2916666666666667, -0.875, -0.4188790204786391, 0.010993924427701697, 0.09491651341210774),
            (-0.20833333333333334, -0.875, -0.4188790204786391, 0.012531462592569913, 0.09645405157697597),
            (-0.12500000000000008, -0.875, -0.4188790204786391, 0.013674174104823359, 0.0975967630892294),
            (0.4583333333333332, -0.875, -0.4188790204786391, 0.0074234485529465445, 0.0913460375373526),
            (-0.5416666666666667, -0.7916666666666667, -0.4188790204786391, 0.008839025552510862, 0.0927616145369169),
            (-0.4583333333333333, -0.7916666666666667, -0.4188790204786391, 0.01148424420408589, 0.09540683318849194),
            (0.5416666666666666, -0.7916666666666667, -0.4188790204786391, 0.008839025552510866, 0.09276161453691692),
            (0.6249999999999999, -0.7083333333333334, -0.4188790204786391, 0.00964503332545393, 0.09356762230985997),
        ],
        notes=NOTES + ABORTED,
    ),
    'positive': dict(
        sign_margin=14.813042335650065,
        witness=(0.9204467514322717, 1.661456213995642, 5.8643062867009474),
        cert_margin=3024.6599056642945,
        certified_sign=False,
        stream_points=46,
        evaluations=455,
        lipschitz_x=24031.39947460307,
        lipschitz_alpha=848.5470330301692,
        precision_bits=256,
        enlargement=1.02,
        failures=[
            (0.08333333333333333, -0.9166666666666666, -0.4188790204786391, 14.813042335650064, 3024.6599056642945),
            (-0.5833333333333334, -0.75, -0.4188790204786391, 1.504798370927284, 3011.3516616995717),
            (0.5833333333333334, -0.75, -0.4188790204786391, 10.648969949445629, 3020.49583327809),
            (0.9166666666666666, -0.25000000000000006, -0.4188790204786391, 12.144787563119852, 3021.991650891764),
            (-0.9166666666666666, 0.08333333333333333, -0.4188790204786391, 4.499232483756531, 3014.346095812401),
            (-0.9166666666666666, 0.24999999999999983, -0.4188790204786391, 12.144787563119872, 3021.991650891764),
            (-0.5833333333333334, 0.7499999999999999, -0.4188790204786391, 10.648969949445638, 3020.49583327809),
            (0.5833333333333334, 0.7499999999999999, -0.4188790204786391, 1.5047983709272723, 3011.3516616995717),
            (-0.08333333333333341, 0.9166666666666666, -0.4188790204786391, 14.813042335650065, 3024.6599056642945),
            (-0.25000000000000006, -0.9166666666666666, 0.0, 6.462264897399923, 3016.3091282260443),
            (0.24999999999999983, -0.9166666666666666, 0.0, 6.4622648973998995, 3016.3091282260443),
            (-0.75, -0.5833333333333334, 0.0, 7.439645934453866, 3017.286509263098),
            (0.7499999999999999, -0.5833333333333334, 0.0, 7.439645934453853, 3017.286509263098),
            (-0.75, 0.5833333333333334, 0.0, 7.439645934453866, 3017.286509263098),
            (0.7499999999999999, 0.5833333333333334, 0.0, 7.439645934453853, 3017.286509263098),
            (-0.25000000000000006, 0.9166666666666666, 0.0, 6.462264897399923, 3016.3091282260443),
        ],
        notes=NOTES + ABORTED,
    ),
    'deep': dict(
        sign_margin=-0.00038964481974729226,
        witness=(0.9395810236483068, 3.208160817365617, 0.0),
        cert_margin=0.004664251479410828,
        certified_sign=False,
        stream_points=112,
        evaluations=5812,
        lipschitz_x=2.626546471299487,
        lipschitz_alpha=0.0704477702920862,
        precision_bits=256,
        enlargement=1.02,
        failures=[
            (0.376953125, 0.876953125, 0.2159844949342982, -0.0030517063058113506, 0.004664251479410828),
            (0.376953125, 0.880859375, 0.2159844949342982, -0.0032023810952659867, 0.004513576689956192),
            (0.380859375, 0.876953125, 0.2159844949342982, -0.003117645897152985, 0.004598311888069194),
            (0.380859375, 0.880859375, 0.2159844949342982, -0.0032650357652105858, 0.0044509220200115935),
            (0.376953125, 0.876953125, 0.22907446432425568, -0.0032602496728237093, 0.004455708112398469),
            (0.376953125, 0.880859375, 0.22907446432425568, -0.0034088948629943487, 0.00430706292222783),
            (0.380859375, 0.876953125, 0.22907446432425568, -0.0033253111258254395, 0.004390646659396739),
            (0.380859375, 0.880859375, 0.22907446432425568, -0.0034706776747444107, 0.004245280110477768),
            (0.376953125, 0.884765625, 0.2159844949342982, -0.003346118332149807, 0.004369839453072372),
            (0.376953125, 0.888671875, 0.2159844949342982, -0.003483021349566902, 0.004232936435655277),
            (0.380859375, 0.884765625, 0.2159844949342982, -0.003405560931127423, 0.004310396854094756),
            (0.380859375, 0.888671875, 0.2159844949342982, -0.0035393243887343944, 0.004176633396487784),
            (0.376953125, 0.884765625, 0.22907446432425568, -0.0035506078319333186, 0.004165349953288861),
            (0.376953125, 0.888671875, 0.22907446432425568, -0.003685492018337705, 0.004030465766884474),
            (0.380859375, 0.884765625, 0.22907446432425568, -0.003609184837227432, 0.004106772947994747),
            (0.380859375, 0.888671875, 0.22907446432425568, -0.0037409357128765698, 0.0039750220723456095),
        ],
        notes=NOTES + ABORTED,
    ),
}


def _run_golden(name):
    make, enlargement, spec, bits = GOLDEN_CASES[name]
    return verify_nonpositivity(make(), enlargement, spec, bits)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_verify_golden_record(name):
    sv = _run_golden(name)
    assert asdict(sv) == GOLDEN[name]
    assert not sv.certified_sign or (sv.cert_margin <= 0 and not sv.failures)


# sha256 of repr(asdict(sv)) for the paper-default fixture at 256 bits, recorded
# from the verifier that evaluated each refinement box's centre on its own;
# unlike the GOLDEN cases these reach depth 6 with several alphas per level
FIXTURE_SHA256 = {
    (1.0, (9, 32, 4)): "3345cf85dc006a8f12de5f4a9679fa3df4eddaaed029c312475ec75de4eac338",
    (1.0, (5, 24, 6)): "db5a52e3cb11f9ab59c0e8abe56cd5433a3cf6463c1573000fcc98330dfb85ba",
    (1.0, (3, 16, 2)): "c59ac4eb25c815494c5a2cf6e709adcf6f1f0df7491cfc7d09db833d0558042a",
    (1.02, (9, 32, 4)): "e8a127522f9508bb7a3e720b24f384184d04b9c6162b2628f3fbf4f5587ddb3a",
    (1.02, (5, 24, 6)): "43cabcc2df3b1934faf6235ebf09be87c983adb648cb15a6da7316aa95ed8325",
    (1.02, (3, 16, 2)): "d13e3334d9a77a696a20fc8f0f0377827aa9db730a912bf5ff4f69f5feff8c6b",
    (1.04, (9, 32, 4)): "85703ba06cdd138fac290579f9873e1d4dc001c4636df925d01bee77dc292ef6",
    (1.04, (5, 24, 6)): "4521a73cd8427f6725d53324e15e36f62bfa35c556dbc859c2240a404d38a3b4",
    (1.04, (3, 16, 2)): "e2dba80f4f23c5d65bfccdaebc47d87790379a2c838f5a974117ef5965a537e1",
    (1.05, (9, 32, 4)): "f0566b3e3806c4ec1a30140bdd16c98673615fec901fcf4aeab95013d78c55b8",
    (1.05, (5, 24, 6)): "ae412f6f4a9bc0863031ed045e6100795a3327538c4d7909e7b0f656bc4638d0",
    (1.05, (3, 16, 2)): "bee851f3b040d9677953ebb1160060e8e9ce3b5205c5517006ac3d4a81d0278f",
    (1.06, (9, 32, 4)): "9de7851429fe2f0e3a0654f7c5e9f0a66f0fe3f1a17f0018bc72cf4fa53bc758",
    (1.06, (5, 24, 6)): "f4d0dbbd2d0d0a389d47ff5d2c99d39176b3e23b8bd335a17e58fb9c2e432294",
    (1.06, (3, 16, 2)): "e4c03cca2da195980f8110895047b9613525434d6fa6f216160602fcc444c30d",
}


@pytest.mark.kernel_independent
@pytest.mark.parametrize("enlargement, spec", list(FIXTURE_SHA256))
def test_verify_fixture_golden_sha256(enlargement, spec):
    t = CoefficientTensor.loads(PAPER_DEFAULT_TENSOR.read_text())
    sv = verify_nonpositivity(t, enlargement, VerifySpec(*spec), 256)
    assert hashlib.sha256(repr(asdict(sv)).encode()).hexdigest() == FIXTURE_SHA256[enlargement, spec]
    assert not sv.certified_sign or (sv.cert_margin <= 0 and not sv.failures)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_verify_mp_fallback_golden_record(name, monkeypatch, caplog):
    """With an infinite error radius every decision goes to mp; nothing changes."""
    calls = []
    mp_eval = MpEvaluator.eval

    def counted(self, *args):
        calls.append(args)
        return mp_eval(self, *args)

    monkeypatch.setattr(certify, "FLOAT_ERROR_RADIUS", math.inf)
    monkeypatch.setattr(MpEvaluator, "eval", counted)
    panels = _count_bernstein_calls(monkeypatch)
    before = dict(certify._panel_counts)
    with caplog.at_level(logging.INFO, logger="pentapack.certify"):
        sv = _run_golden(name)
    assert asdict(sv) == GOLDEN[name]
    assert not sv.certified_sign or (sv.cert_margin <= 0 and not sv.failures)
    assert len(panels) == certify._panel_counts["all"] - before["all"] > 0
    assert certify._panel_counts["mp"] - before["mp"] == len(panels)
    # every mp call belongs to a counted box
    (line,) = [r.getMessage() for r in caplog.records if r.name == "pentapack.certify"]
    n = sv.evaluations
    assert f" {n} evaluations, 0 decisions settled in float, {n} mp fallbacks, " in line
    assert len(calls) == sv.evaluations


def test_verify_refines_in_batches_of_at_most_grid_n_squared(monkeypatch):
    """Each level of a subtree is decided in runs of at most grid_n^2 boxes, the stream pass's batch size.

    The stream pass takes the alpha-free part of its grid_n^2 centres from
    one `radial` call and sums each slice's pairs by `pair_sum`.  The
    refinement makes one `radial` call per level, on the level's distinct
    positions, fewer in all than its kept boxes.
    """
    rows, sums = [], []  # the (x, y) rows of each `radial` call; the size of each `pair_sum`
    radial, pair_sum = FloatEvaluator.radial, FloatEvaluator.pair_sum

    def radial_recorded(self, x, y):
        rows.append(list(zip(x.tolist(), y.tolist())))
        return radial(self, x, y)

    def pair_sum_recorded(self, part, *args):
        sums.append(part.E.size)
        return pair_sum(self, part, *args)

    monkeypatch.setattr(FloatEvaluator, "radial", radial_recorded)
    monkeypatch.setattr(FloatEvaluator, "pair_sum", pair_sum_recorded)
    sv = _run_golden("deep")
    assert asdict(sv) == GOLDEN["deep"]
    grid_n, alpha_count = GOLDEN_CASES["deep"][2].grid_n, GOLDEN_CASES["deep"][2].alpha_count
    assert max(max(map(len, rows)), max(sums)) <= grid_n**2
    assert len(rows[0]) == grid_n**2
    # the refinement's radial rows are pairwise-distinct positions, fewer than its kept boxes
    assert all(len(set(r)) == len(r) for r in rows[1:])
    assert 0 < sum(map(len, rows[1:])) < sum(sums[alpha_count:])
    assert sum(sums) >= sv.evaluations and len(sums) > alpha_count


def test_verify_logs_one_summary_line(caplog):
    with caplog.at_level(logging.INFO, logger="pentapack.certify"):
        sv = _run_golden("aborts")
    lines = [r.getMessage() for r in caplog.records if r.name == "pentapack.certify"]
    assert len(lines) == 1
    assert f"1728 level-0 boxes, {sv.evaluations} evaluations" in lines[0]
    assert "decisions settled in float" in lines[0] and "mp fallbacks" in lines[0]
    assert re.search(r", 1 of 24 Lipschitz panels by mp in \d+\.\d\d s, ", lines[0])
    # per depth and per outcome, from the subtree records of this run
    assert (", 21 mp fallbacks, evaluations by depth 672/4/20, 12 positions evaluated for 24 "
            "refinement slots, 1072 screened out, 0 discharged, 202 failed, 494 split, 1 of 24 ") in lines[0]
    by_depth = re.search(r"evaluations by depth ([\d/]+),", lines[0])[1]
    assert sum(map(int, by_depth.split("/"))) == sv.evaluations == 202 + 494


# -- bound -------------------------------------------------------------------


def test_report_dict_follows_the_field_order():
    report = VerificationReport(
        min_block_eigenvalue=1e-6, max_constraint_residual=1e-15, sign_margin=-1e-3,
        enlargement=1.02, bound=0.98,
        witness=(0.5, 1.0, 0.1), lambda_value=1.0,
    )
    d = report.to_dict()
    assert list(d) == [
        "min_block_eigenvalue", "max_constraint_residual", "sign_margin", "cert_margin",
        "enlargement", "certified", "bound", "safety_factor",
        "witness", "stream_points", "precision_bits", "tensor_hash", "sample_spec", "lambda",
        "f_origin", "notes",
    ]
    assert d["witness"] == [0.5, 1.0, 0.1] and d["lambda"] == 1.0 and d["certified"] is False
    assert report.to_text().splitlines()[9] == "witness: [0.5, 1.0, 0.1]"


def test_final_bound_formula():
    t = scaled_unit_tensor(1.0)
    area = pentagon(1.0).area()
    assert area == pytest.approx(5 / 8 * math.sin(2 * math.pi / 5), rel=1e-14)
    # f(0, I) = 1/(2 pi), lambda = 1: bound = area at enlargement 1
    assert final_bound(t, 1.0) == pytest.approx(area, rel=1e-12)
    assert final_bound(t, 1.02) == pytest.approx(area * 1.02**2, rel=1e-12)


def test_final_bound_monotone_in_enlargement():
    t = scaled_unit_tensor(1.0)
    values = [final_bound(t, e) for e in (1.0, 1.01, 1.02, 1.1)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_final_bound_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        final_bound(scaled_unit_tensor(-1.0), 1.02)
    with pytest.raises(ValueError):
        final_bound(scaled_unit_tensor(0.0), 1.02)


def test_tensor_hash_stable():
    t = scaled_unit_tensor(1.0)
    assert tensor_hash(t) == tensor_hash(scaled_unit_tensor(1.0))
    assert tensor_hash(t) != tensor_hash(scaled_unit_tensor(2.0))
