import hashlib
import math
import re

import numpy as np
import pytest
from mpmath import mp
from mpmath.libmp import dps_to_prec

from oracles import (
    basis_coords_operator_form,
    build_calF,
    build_F,
    build_W,
    evaluate_fhat,
    independent_rows_all_kept,
    tau_radial_coeffs_per_term,
)
from pentapack import sos
from pentapack.certify import project_affine
from pentapack.fourier import ModelParams, evaluate_f, lambda_of
from pentapack.geometry import constraint_sample
from pentapack.motion import MotionPoint
from pentapack.sdpa import export_sdpa
from pentapack.sos import (
    _independent_rows,
    _support_groups,
    assemble_feasibility_variant,
    assemble_problem_A,
    block_specs,
    conv,
    index_sets,
    pair_sets,
    realize_basis,
    recover_tensor,
)
from pentapack.solver import solve
from pentapack.sdp import SdpSolution


PARAMS = ModelParams(5, 11)


@pytest.mark.parametrize("dps", [sos.ASSEMBLY_DPS, 76])  # 76 digits are 256 bits
def test_entry_polynomials_equal_the_operator_forms(dps, monkeypatch):
    """Every entry polynomial of the published-size assembly, run at `dps`, bit for bit: the expansion in u of
    each Q entry's against the per-term form, and the basis coordinates of each against the operator form."""
    precs, coords, expansions = set(), [], []
    basis_coords, expansion = sos._basis_coords, sos.tau_radial_expansion

    def checked_coords(upoly, T, d):
        gamma = basis_coords(upoly, T, d)
        precs.add(mp.prec)
        want = basis_coords_operator_form(upoly, [[mp.make_mpf(t) for t in row] for row in T], d)
        coords.append(gamma == [v._mpf_ for v in want])
        return gamma

    def checked_expansion(m, K):
        expand = expansion(m, K)

        def checked(c):
            u = expand(c)
            expansions.append([v._mpf_ for v in u] == [v._mpf_ for v in tau_radial_coeffs_per_term(c, m)])
            return u

        return checked

    monkeypatch.setattr(sos, "ASSEMBLY_DPS", dps)
    monkeypatch.setattr(sos, "_basis_coords", checked_coords)
    monkeypatch.setattr(sos, "tau_radial_expansion", checked_expansion)
    assemble_problem_A(PARAMS, constraint_sample(3, 16, 1.02))
    assert precs == {dps_to_prec(dps)} and dps_to_prec(76) == 256
    assert len(coords) == 216 and all(coords)
    assert len(expansions) == 144 and all(expansions)


def test_index_sets_for_n5():
    isets = index_sets(5)
    assert isets[0] == [0]
    assert isets[5] == [-5, 5]
    psets = pair_sets(5)
    assert psets[0] == [(r, r) for r in range(6)]
    assert sorted(psets[5]) == [(0, 5), (5, 0)]


def test_basis_polynomials():
    b = realize_basis(11)
    assert b[0] == [1.0]
    # P_1 = (1 - 2 pi x^2) / (2 pi): mu_1 = 2 pi
    assert b[1][0] == pytest.approx(1 / (2 * math.pi))
    assert b[1][1] == pytest.approx(-1.0)
    for k in range(6):
        assert max(abs(c) for c in b[k]) == pytest.approx(1.0, rel=1e-13)
        assert len(b[k]) == k + 1 and b[k][-1] != 0  # degree 2k in x


def test_block_dimensions_match_index_sets():
    specs = {s.label: s.dim for s in block_specs(PARAMS)}
    assert specs == {
        "Q00": 6, "Q05": 12, "Q10": 6, "Q15": 12,
        "R00": 36, "R05": 12, "S0": 36, "S5": 12,
    }


def test_build_F_examples():
    F0 = build_F(0, 0, 0, 0, 11, N=5)
    assert F0[0, 0] == pytest.approx(1.0)  # coeff(a^0, P0 P0) = 1
    F1 = build_F(1, 0, 0, 0, 11, N=5)
    assert not F1.any()  # a^2 P_l P_l' has no constant term
    with pytest.raises(ValueError):
        build_F(0, 1, 0, 0, 11)


def test_build_F_polynomial_reconstruction():
    # sum_k F^i_{r,s;k} a^2k reproduces a^2i P_l P_l' entrywise
    bco = realize_basis(5)
    for i in (0, 1):
        mats = [build_F(i, 0, 0, k, 5, N=1) for k in range(6)]
        for l in range(3):
            for lp in range(3):
                série = [m[l, lp] for m in mats]
                direct = conv(bco[l], bco[lp])
                if i == 1:
                    direct = [0.0] + direct
                for k in range(min(len(série), len(direct))):
                    assert série[k] == pytest.approx(direct[k], abs=1e-12)


def test_calF_entry_at_origin():
    F = build_calF(0, 0, MotionPoint(0.0, 0.0, 0.0), 11, 5)
    assert F[0, 0] == pytest.approx(1 / (2 * math.pi))


def test_W_matrix_structure():
    W = build_W(0, 0, 3, 5)
    entry = W.entries[(0, 0)]
    assert entry.m1 == 0 and entry.m2 == 0
    assert entry.coeffs[0] == pytest.approx(1.0)
    # Hermitian PSD on the torus (rank-structured Gram form)
    M = W.evaluate(1.3, 0.7, 2.1)
    assert np.abs(M - M.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(M).min() > -1e-12
    # (rho^2 - 1) W^{0j} is PSD for rho >= 1
    M2 = (1.5**2 - 1.0) * build_W(0, 5, 3, 5).evaluate(1.5, 0.4, 1.0)
    assert np.linalg.eigvalsh(0.5 * (M2 + M2.conj().T)).min() > -1e-12


@pytest.fixture(scope="module")
def small_problem():
    return assemble_problem_A(ModelParams(5, 5), constraint_sample(3, 16, 1.02))


@pytest.fixture(scope="module")
def small_solved(small_problem):
    params = ModelParams(5, 5)
    sample = constraint_sample(3, 16, 1.02)
    sol = solve(small_problem)
    return params, sample, small_problem, sol


def _assembly_fingerprint(problem) -> dict:
    """SHA-256 hashes of everything an assembly stores, each in its stored order.

    "sdpa" is the SDPA export; "hp_rows" the exact binary values (mpf
    man_exp) of the high-precision rows with keys sorted, "hp_rows_stored"
    the same in the rows' own key order; "manifest" the manifest lines;
    "terms" the objective, equality and inequality terms with each term's
    block order and coefficient bytes.  Any rounding or ordering change in
    any row changes one of them.
    """
    out = {"sdpa": hashlib.sha256(export_sdpa(problem).encode()).hexdigest()}
    for name, order in (("hp_rows", sorted), ("hp_rows_stored", list)):
        h = hashlib.sha256()
        for coeffs, rhs, label in problem.meta["hp_rows"]:
            h.update(f"{label} {rhs.man_exp}\n".encode())
            for key in order(coeffs):
                h.update(f"{key} {coeffs[key].man_exp}\n".encode())
        out[name] = h.hexdigest()
    out["manifest"] = hashlib.sha256("\n".join(problem.meta["manifest"]).encode()).hexdigest()
    h = hashlib.sha256()
    terms = [("objective", 0.0, problem.objective)]
    terms += [(t.label, t.rhs, t.coeffs) for t in problem.eq_constraints + problem.ineq_constraints]
    for label, rhs, coeffs in terms:
        h.update(f"{label} {float(rhs)!r}\n".encode())
        for blk, mat in coeffs.items():
            h.update(blk.encode() + np.ascontiguousarray(mat, dtype=float).tobytes())
    out["terms"] = h.hexdigest()
    return out


# Fingerprints of `assemble_problem_A(ModelParams(N, d), constraint_sample(alpha_count,
# grid_n, 1.02))`, keyed by (N, d, alpha_count, grid_n).  The 3 x 32 sample reaches
# radial terms whose rounding the 3 x 16 sample does not exercise (rho**m taken
# through numpy's array power instead of Python's float power changes it).  At
# (11, 7) the rank test sees 464 rows of 14,880 columns in several support groups.
ASSEMBLY_SHA256 = {
    (5, 5, 3, 16): {
        "sdpa": "f6b9814a4f68baee111d499ce8617c99b441d6fbc785e44d3f3ee584f312f63f",
        "hp_rows": "0d37c8e1a72654659ccbae548daa01c0c77cc1a0a7ce03c4f47130a73de75fe7",
        "hp_rows_stored": "9ff00df0edfa3b628a9d04930356de1ae57664a20ef5fe7def901f61520369ee",
        "manifest": "b35da3a0e8982de40b7a4e5dc1669ab79de37280065e975e73a421bdefde352a",
        "terms": "b8792558306b74d2a8a02773bfc1b8caf1cdac1144901157c1feccdf29d7d5bd",
    },
    (5, 5, 3, 32): {
        "sdpa": "afb6efe4fc4e9a733766cee195998f5815e4ea87d29bcc5fedf1cf9ea6d536a5",
        "hp_rows": "0d37c8e1a72654659ccbae548daa01c0c77cc1a0a7ce03c4f47130a73de75fe7",
        "hp_rows_stored": "9ff00df0edfa3b628a9d04930356de1ae57664a20ef5fe7def901f61520369ee",
        "manifest": "2c9b417c7a6c10966ed79beff5807a500ae716ee57d99b16fea7eb13af7c0077",
        "terms": "df6338a67ba2a330d8d005a257ce2f362cbb46c9356f250960019219eda391aa",
    },
    (11, 7, 5, 50): {
        "sdpa": "e17fdba4e82a3b64c3db484a49f5a774c6bd75f6aa1fc08c0bb9e0de960c3598",
        "hp_rows": "088824af72e1032fe7f0a2b04c113e3e59fc534da3731223d085bed36ac3959b",
        "hp_rows_stored": "c60aa61d40e8cdd193c5f024bafbd1b6b7fee67d4c25e32f77f7fc663dfa615d",
        "manifest": "c152b40838b1381e29e87e3925a741e0947d3eb873b457c0a19d14b73fcd9fe7",
        "terms": "e4e916525ca5c5b3356e19b66d96f35d982832d489696c124897675b33f193a7",
    },
}


def test_assembly_is_bit_stable(small_problem):
    for (N, d, alpha_count, grid_n), want in ASSEMBLY_SHA256.items():
        if (N, d, alpha_count, grid_n) == (5, 5, 3, 16):
            problem = small_problem
        else:
            problem = assemble_problem_A(ModelParams(N, d), constraint_sample(alpha_count, grid_n, 1.02))
        got = _assembly_fingerprint(problem)
        assert got == want, (N, d, alpha_count, grid_n)


def test_independent_rows_keeps_the_first_of_each_dependent_set():
    e1, e2, e3 = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])

    def unit(*rows):
        return np.array([r / np.linalg.norm(r) for r in rows])

    # a repeat, a scaled copy and a sum of two earlier rows are all dropped
    assert _independent_rows(unit(e1, e1, e2, -3.0 * e1, e1 + e2, e3)) == [0, 2, 5]
    # the kept indices are the earliest independent ones, in input order
    assert _independent_rows(unit(e3, e1 + e2, e1, e2)) == [0, 1, 2]


def _check_against_all_kept_rows(rows):
    """The grouped rank test keeps the rows, and leaves the residuals, of the loop over every kept row."""
    grouped, plain = rows.copy(), rows.copy()
    keep = _independent_rows(grouped)
    assert keep == independent_rows_all_kept(plain)
    assert grouped.tobytes() == plain.tobytes()
    return keep


@pytest.mark.parametrize("params", [ModelParams(5, 5), ModelParams(5, 11)])
def test_independent_rows_match_the_loop_over_all_kept_rows_on_problem_A(monkeypatch, params):
    seen = []
    monkeypatch.setattr(sos, "_independent_rows", lambda rows: seen.append(rows.copy()) or _independent_rows(rows))
    problem = assemble_problem_A(params, constraint_sample(3, 16, 1.02))
    (rows,) = seen
    assert len(set(_support_groups(rows))) > 1
    assert len(_check_against_all_kept_rows(rows)) == len(problem.eq_constraints) < len(rows)


def test_independent_rows_match_the_loop_over_all_kept_rows_on_block_sparse_rows():
    """Random rows over 4 column groups, dependent rows inside a group, and a late row bridging two groups."""
    rng = np.random.default_rng(28)
    width = 12
    rows, group = [], []
    for _ in range(40):
        g = int(rng.integers(4))
        v = np.zeros(4 * width)
        cols = g * width + rng.choice(width, size=int(rng.integers(1, 5)), replace=False)
        v[cols] = rng.standard_normal(len(cols))
        rows.append(v)
        group.append(g)
    in_0 = [n for n, g in enumerate(group) if g == 0]
    in_1 = [n for n, g in enumerate(group) if g == 1]
    rows += [rows[in_0[0]], 0.0 - 3.0 * rows[in_0[1]], rows[in_0[0]] + 2.0 * rows[in_0[2]]]  # dependent in group 0
    bridge = rows[in_0[0]] + rows[in_1[0]]
    rows += [bridge, bridge + rows[in_1[1]], rows[in_1[1]]]  # the bridge joins groups 0 and 1
    rows = np.array([r / np.linalg.norm(r) for r in rows])
    assert not np.signbit(rows[rows == 0.0]).any()  # as in the assembled rows: no -0.0
    groups = _support_groups(rows)
    assert groups[in_0[0]] == groups[in_1[0]] != groups[group.index(2)]
    keep = _check_against_all_kept_rows(rows)
    assert {40, 41, 42, 45} & set(keep) == set()


@pytest.mark.parametrize("params", [ModelParams(5, 5), ModelParams(11, 3)])
def test_equality_rows_imply_negation_symmetry(small_problem, params):
    """f_{r,s;k} = f_{-r,-s;k} on Problem A's equality subspace, without rows of its own.

    At N = 11 the class 0 holds r = -10, 0, 10, so (r, s) and (-r, -s) differ
    in more than one index.
    """
    if params == ModelParams(5, 5):
        problem = small_problem
    else:
        problem = assemble_problem_A(params, constraint_sample(3, 16, 1.02))
    rng = np.random.default_rng(44)
    blocks = {}
    for blk in problem.blocks:
        M = rng.standard_normal((blk.dim, blk.dim))
        blocks[blk.label] = 0.5 * (M + M.T)
    sol = SdpSolution(blocks=blocks, y=np.zeros(1), objective=0.0, status="optimal", gap=0.0, iterations=0)
    Q = project_affine(sol, problem)[0].blocks

    def raw_f(r, s, k):
        j = r % 10
        return sum(
            float(np.sum(build_F(i, r, s, k, params.d, N=params.N) * Q[f"Q{i}{j}"]))
            for i in (0, 1)
        )

    isets = index_sets(params.N)
    classes = {bs.j for bs in block_specs(params) if bs.family == "Q"}
    pairs = [(r, s) for j in classes for r in isets[j] for s in isets[j]]
    f = {(r, s, k): raw_f(r, s, k) for r, s in pairs for k in range(params.d + 1)}
    scale = max(abs(v) for v in f.values())
    assert scale > 1.0  # the projected blocks are far from zero
    for (r, s, k), v in f.items():
        assert abs(v - f[-r, -s, k]) <= 1e-9 * scale, (r, s, k)


def test_problem_A_solves_and_normalizes(small_solved):
    params, sample, problem, sol = small_solved
    assert sol.status in ("optimal", "near-optimal")
    t = recover_tensor(sol, params)
    assert lambda_of(t) == pytest.approx(1.0, abs=1e-7)
    # objective equals f at the identity motion
    assert evaluate_f(t, MotionPoint(0.0, 0.0, 0.0)) == pytest.approx(sol.objective, abs=1e-7)


def test_solution_respects_sample(small_solved):
    params, sample, problem, sol = small_solved
    t = recover_tensor(sol, params)
    worst = max(evaluate_f(t, MotionPoint(p.rho, p.theta, p.alpha)) for p in sample)
    assert worst <= 1e-9


def test_cylinder_nonpositivity(small_solved):
    params, sample, problem, sol = small_solved
    t = recover_tensor(sol, params)
    rng = np.random.default_rng(40)
    for _ in range(2000):
        p = MotionPoint(rng.uniform(1.0, 3.0), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        assert evaluate_f(t, p) <= 1e-9


def test_identity_expansion_matches_direct_evaluation(small_solved):
    """The identity rows are a faithful decomposition of the cylinder polynomial."""
    params, sample, problem, sol = small_solved
    d = params.d
    rng = np.random.default_rng(41)
    blocks = {}
    for blk in problem.blocks:
        M = rng.standard_normal((blk.dim, blk.dim))
        blocks[blk.label] = 0.5 * (M + M.T)
    W00, W05 = build_W(0, 0, d, 5), build_W(0, 5, d, 5)
    bco = realize_basis(d)

    def basis_val(k, rho):
        u = rho * rho
        return sum(c * u**i for i, c in enumerate(bco[k]))

    rowvals = {}
    for t in problem.eq_constraints:
        m = re.match(r"identity\[(-?\d+),(-?\d+);k=(\d+)\]", t.label)
        if not m:
            continue
        key = (int(m.group(1)), int(m.group(2)))
        rowvals.setdefault(key, {})[int(m.group(3))] = sum(
            float(np.sum(np.asarray(c) * blocks[lab])) for lab, c in t.coeffs.items()
        )
    for m1, m2 in list(rowvals):
        rowvals.setdefault((-m1, -m2), rowvals[(m1, m2)])  # a class pruned as dependent repeats its negation

    for _ in range(6):
        rho = rng.uniform(0.2, 2.0)
        th = rng.uniform(0, 2 * math.pi)
        al = rng.uniform(0, 2 * math.pi)
        direct = 0j
        for (i, j, lab) in [(0, 0, "Q00"), (0, 5, "Q05"), (1, 0, "Q10"), (1, 5, "Q15")]:
            direct += np.sum(build_calF(i, j, MotionPoint(rho, th, al), d, 5) * blocks[lab])
        for lab, WM in (("R00", W00), ("R05", W05)):
            direct += np.sum(WM.evaluate(rho, th, al) * blocks[lab])
        for lab, WM in (("S0", W00), ("S5", W05)):
            direct += (rho * rho - 1.0) * np.sum(WM.evaluate(rho, th, al) * blocks[lab])
        via_rows = sum(
            sum(v * basis_val(k, rho) for k, v in kv.items())
            * np.exp(1j * (m1 * th + m2 * (al - th)))
            for (m1, m2), kv in rowvals.items()
        )
        assert abs(via_rows - direct) < 1e-10 * max(1.0, abs(direct))


def test_sos_reconstruction_from_random_psd_blocks():
    """recover_tensor reproduces the sigma coefficients exactly."""
    params = ModelParams(5, 5)
    specs = block_specs(params)
    rng = np.random.default_rng(42)
    blocks = {}
    for bs in specs:
        G = rng.standard_normal((bs.dim, bs.dim))
        blocks[bs.label] = G @ G.T
    sol = SdpSolution(blocks=blocks, y=np.zeros(1), objective=0.0, status="optimal", gap=0.0, iterations=0)
    t = recover_tensor(sol, params)
    # independent expansion: sigma = sum <Q, V> with V entries a^2i P_l P_l' y_r y_s,
    # accumulated directly for the (r, s) pairs covered by the retained Q blocks
    bco = realize_basis(params.d)
    for r, s in [(0, 0), (5, 5), (5, -5)]:
        j = r % 10
        sig = np.zeros(params.d + 1)
        for bs in specs:
            if bs.family != "Q" or bs.j != j:
                continue
            pos = {t_: i for i, t_ in enumerate(bs.index)}
            for l in range((params.d // 2) + 1):
                for lp in range((params.d // 2) + 1):
                    prod = conv(bco[l], bco[lp])
                    if bs.i == 1:
                        prod = [0.0] + prod
                    q = blocks[bs.label][pos[(l, r)], pos[(lp, s)]]
                    for k, c in enumerate(prod[: params.d + 1]):
                        sig[k] += c * q
        for k in range(params.d + 1):
            got = t.get(r, s, k)
            assert got == pytest.approx(sig[k], abs=1e-12 * max(1.0, abs(sig[k])))


def test_recovered_fhat_psd_for_psd_blocks():
    params = ModelParams(5, 5)
    rng = np.random.default_rng(43)
    blocks = {}
    for bs in block_specs(params):
        G = rng.standard_normal((bs.dim, bs.dim))
        blocks[bs.label] = G @ G.T
    sol = SdpSolution(blocks=blocks, y=np.zeros(1), objective=0.0, status="optimal", gap=0.0, iterations=0)
    t = recover_tensor(sol, params)

    for a in rng.uniform(0, 5, 100):
        assert np.linalg.eigvalsh(evaluate_fhat(t, a)).min() >= -1e-9


def test_feasibility_variant_contract(small_solved):
    params, sample, problem, sol = small_solved
    variant = assemble_feasibility_variant(problem, sol.objective, margin=1e-4)
    assert not variant.objective
    assert len(variant.ineq_constraints) == len(problem.ineq_constraints) + 1
    fsol = solve(variant, mehrotra=False, gap_tol=1e-7, feas_tol=1e-9)
    assert fsol.is_usable()
    cap = variant.ineq_constraints[-1]
    assert problem.value(cap.coeffs, fsol.blocks) <= cap.rhs + 1e-9
    # interior solution: strictly positive minimum eigenvalues
    for blk in problem.blocks:
        assert np.linalg.eigvalsh(fsol.blocks[blk.label]).min() > 0


def test_zero_solution_recovers_zero_tensor():
    params = ModelParams(5, 5)
    blocks = {bs.label: np.zeros((bs.dim, bs.dim)) for bs in block_specs(params)}
    sol = SdpSolution(blocks=blocks, y=np.zeros(1), objective=0.0, status="optimal", gap=0.0, iterations=0)
    t = recover_tensor(sol, params)
    assert not t.entries.any()


def test_rank_one_recovery():
    params = ModelParams(5, 5)
    blocks = {bs.label: np.zeros((bs.dim, bs.dim)) for bs in block_specs(params)}
    blocks["Q00"][0, 0] = 1.0  # basis index (l=0, r=0)
    sol = SdpSolution(blocks=blocks, y=np.zeros(1), objective=0.0, status="optimal", gap=0.0, iterations=0)
    t = recover_tensor(sol, params)
    assert t.get(0, 0, 0) == pytest.approx(1.0)  # coeff(a^0, P0^2) = 1
    assert all(t.get(0, 0, k) == 0 for k in range(1, 6))
