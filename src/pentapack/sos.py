"""Compile the search for a feasible f into a block-diagonal SDP.

The unknown function is parametrized by PSD blocks: Q blocks express the
matrix polynomial phi(a) as a sum of squares in the normalized Laguerre basis
P_k, the R and S blocks certify nonpositivity of f on the cylinder rho >= 1
through the polynomial identity

    sum <calF(rho, z1, z2), Q> + sum <W(rho, z1, z2), R>
        + sum <(rho^2 - 1) W0(rho, z1, z2), S> = 0,

and a finite sample of motions contributes one nonpositivity inequality each.
The identity is a Laurent polynomial in z1, z2 with even polynomial
coefficients in rho; it is expanded in the basis P_k(rho^2) z1^(-r) z2^(-s)
and each coefficient is forced to zero.  Equality rows that are zero or
linear combinations of earlier rows are dropped; the negation symmetry of f
needs no rows, as the identity implies it (see `assemble_problem_A`).
Coefficient generation runs in
high-precision arithmetic (the Laguerre normalizers mix powers of pi into
everything, so exact rationals are not available); rows are rounded to
float64 for the solver while the high-precision originals are kept for the
certification stage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp
from mpmath.libmp import fzero, mpf_div, mpf_mul, mpf_sub, round_nearest, to_float

from .fourier import ANGULAR_MODULUS, CoefficientTensor, ModelParams
from .sdp import Block, LinearTerm, SdpProblem, SdpSolution, stack_rows
from .specfun import coeff_D_mp, laguerre, laguerre_coeffs_exact, tau_radial_expansion

ASSEMBLY_DPS = 50  # working precision (decimal digits) for row generation


# ---------------------------------------------------------------------------
# index sets and block layout


def index_sets(N: int) -> dict[int, list[int]]:
    """I_j = { -N <= r <= N : r = j mod 10 } for j = 0..9."""
    out = {j: [] for j in range(ANGULAR_MODULUS)}
    for r in range(-N, N + 1):
        out[r % ANGULAR_MODULUS].append(r)
    return out


def pair_sets(N: int) -> dict[int, list[tuple[int, int]]]:
    """P_j = { (r, s) : 0 <= r, s <= N, r - s = j mod 10 } for j = 0..9."""
    out = {j: [] for j in range(ANGULAR_MODULUS)}
    for r in range(N + 1):
        for s in range(N + 1):
            out[(r - s) % ANGULAR_MODULUS].append((r, s))
    return out


@dataclass(frozen=True)
class BlockSpec:
    """One PSD variable block with its index semantics."""

    label: str
    family: str  # Q, R or S
    i: int  # power weight a^(2i) (Q) or rho^(2i) (R); 0 for S
    j: int  # residue class
    index: tuple  # ordered row/column index tuples

    @property
    def dim(self) -> int:
        return len(self.index)


def block_specs(params: ModelParams) -> list[BlockSpec]:
    """Variable blocks of the program: Q0j, Q1j, R0j, then Sj, each for the classes j = 0, 5 that have indices."""
    half = params.d // 2
    isets, psets = index_sets(params.N), pair_sets(params.N)
    specs = []
    for family, i, sets in (("Q", 0, isets), ("Q", 1, isets), ("R", 0, psets), ("S", 0, psets)):
        for j in (0, 5):
            if sets[j]:
                label = f"S{j}" if family == "S" else f"{family}{i}{j}"
                specs.append(BlockSpec(label, family, i, j, tuple((l, q) for l in range(half + 1) for q in sets[j])))
    return specs


# ---------------------------------------------------------------------------
# the normalized Laguerre basis


def _mu_argmax(k: int) -> int:
    """Index of the largest-magnitude coefficient of L_k^0(2 pi x^2)."""
    with mp.workdps(40):
        terms = [abs(mp.mpf(c.numerator) / c.denominator) * (2 * mp.pi) ** j
                 for j, c in enumerate(laguerre_coeffs_exact(k, 0))]
        return max(range(len(terms)), key=lambda i: terms[i])


def realize_basis(d: int, high_precision: bool = False) -> list[list]:
    """Coefficient lists (in the variable a^2) of P_k = L_k^0(2 pi a^2)/mu_k.

    With high_precision=True the coefficients are mpmath values at the
    current working precision; otherwise floats.
    """
    two_pi = 2 * mp.pi if high_precision else 2.0 * math.pi
    out = []
    for k in range(d + 1):
        jstar = _mu_argmax(k)
        coeffs = []
        for j, c in enumerate(laguerre_coeffs_exact(k, 0)):
            if high_precision:
                num = mp.mpf(c.numerator) / c.denominator
            else:
                num = float(c)
            coeffs.append(num * two_pi**j)
        mu = abs(coeffs[jstar])
        out.append([c / mu for c in coeffs])
    return out


def conv(a, b) -> list:
    """Coefficientwise product of two coefficient sequences.

    Works for floats, Fractions and mpmath values alike; the assembly relies
    on that to run the same code at different precisions.
    """
    out = [0 * (a[0] * b[0])] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _products(bcoefs: list[list]) -> dict[tuple[int, int, int], list]:
    """prod[(i, l, l')] = coefficients of a^(2i) P_l P_l' in a^2."""
    half = (len(bcoefs) - 1) // 2
    out = {}
    for l in range(half + 1):
        for lp in range(half + 1):
            base = conv(bcoefs[l], bcoefs[lp])
            out[(0, l, lp)] = base
            out[(1, l, lp)] = [0 * base[0]] + base
    return out


# ---------------------------------------------------------------------------
# the slots of the F matrices in the Q blocks


def _f_entries(specs, r: int, s: int):
    """The slots of F^i_{r,s;k} in the given Q blocks (they do not depend on k).

    Yields (block label, row, column, product key (i, l, l')), l and l'
    ascending, with (F^i_{r,s;k})_{(l,r)(l',s)} = coeff(a^2k, a^2i P_l P_l').
    """
    for bs in specs:
        pos = {t: n for n, t in enumerate(bs.index)}
        half = bs.index[-1][0]
        for l in range(half + 1):
            for lp in range(half + 1):
                yield bs.label, pos[(l, r)], pos[(lp, s)], (bs.i, l, lp)


# ---------------------------------------------------------------------------
# assembly of Problem A


def _basis_coords(upoly: list, T: list[list], d: int) -> list:
    """Solve for gamma with sum_k gamma_k B_k = upoly (B_k lower triangular).

    upoly holds mpf numbers, T and the returned gamma `_mpf_` tuples.  The
    back substitution makes the libmp calls that its operator form makes
    (mpf_mul, mpf_sub and mpf_div at the working precision, round-to-nearest;
    see `certify.MpEvaluator`), so each gamma_k is that form's.
    """
    prec, rnd = mp.prec, round_nearest
    c = [v._mpf_ for v in upoly] + [fzero] * (d + 1 - len(upoly))
    gamma = [fzero] * (d + 1)
    for k in range(d, -1, -1):
        acc = c[k]
        for kp in range(k + 1, d + 1):
            acc = mpf_sub(acc, mpf_mul(gamma[kp], T[kp][k], prec, rnd), prec, rnd)
        gamma[k] = mpf_div(acc, T[k][k], prec, rnd)
    return gamma


class _RowAccumulator:
    """Sparse high-precision constraint row over block entries, each kept with its rounding to float."""

    def __init__(self, label: str):
        self.label = label
        self.entries: dict[tuple[str, int, int], tuple] = {}  # key -> (value, float(value))

    def add(self, block: str, a: int, b: int, value, rounded: float) -> None:
        """Add value, whose float is `rounded`, at (block, a, b); a key's first value is stored as is
        (it is already rounded to the working precision), and a sum is rounded to float again."""
        key = (block, a, b)
        if key in self.entries:
            value = self.entries[key][0] + value
            rounded = float(value)
        self.entries[key] = value, rounded

    def to_term(self, dims: dict[str, int], rhs: float) -> LinearTerm:
        """Round to a float LinearTerm with symmetrized coefficient matrices.

        Each entry's float is the one `add` keeps.  Entries below 1e-35 times
        the row's largest rounded magnitude are dropped.  A row whose largest
        magnitude is below 1e-30 is zero up to the assembly precision and
        rounds to a term without coefficients.
        """
        mats: dict[str, np.ndarray] = {}
        rounded = [(key, fv) for key, (_, fv) in self.entries.items()]
        max_abs = max((abs(fv) for _, fv in rounded), default=0.0)
        if max_abs < 1e-30:
            return LinearTerm(mats, rhs, self.label)
        cutoff = 1e-35 * max_abs
        for (blk, a, b), fv in rounded:
            if abs(fv) < cutoff:
                continue
            if blk not in mats:
                mats[blk] = np.zeros((dims[blk], dims[blk]))
            mats[blk][a, b] += fv
        for blk in list(mats):
            mats[blk] = 0.5 * (mats[blk] + mats[blk].T)
            if not mats[blk].any():
                del mats[blk]
        return LinearTerm(mats, rhs, self.label)


def _support_groups(rows: np.ndarray) -> list[int]:
    """A group root per row: rows that share a nonzero column, directly or through others, share a root."""
    parent = list(range(len(rows)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    nonzero = rows != 0.0
    first = nonzero.argmax(axis=0)  # the first row holding each column
    for i, mask in enumerate(nonzero):
        for j in np.unique(first[mask]).tolist():
            parent[root(i)] = root(j)
    return [root(i) for i in range(len(rows))]


def _independent_rows(rows: np.ndarray) -> list[int]:
    """Indices of a maximal set of linearly independent rows, greedily in order.

    The rows, of unit norm, are orthogonalized in place (modified
    Gram-Schmidt); a row is dropped when its residual against the span of
    the kept rows falls below 1e-10.  Deterministic and stable for the row
    counts that occur here.

    Rows split into groups of connected support (`_support_groups`), and a
    row is orthogonalized only against the kept rows of its own group, in
    row order.  That is the plain loop over all kept rows, bit for bit: a
    kept row of another group is a combination of that group's rows, so its
    support is disjoint from every vector this group forms; their dot
    product is exactly 0, and subtracting 0 times it leaves each entry as it
    was, since no entry here is -0.0 (the rows hold no -0.0, and x - y
    rounds to -0.0 only for x = -0.0).
    """
    groups = _support_groups(rows)
    basis: dict[int, list[np.ndarray]] = {g: [] for g in groups}
    keep: list[int] = []
    for idx, (v, g) in enumerate(zip(rows, groups)):
        for u in basis[g]:
            v -= (u @ v) * u
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            basis[g].append(v / nrm)
            keep.append(idx)
    return keep


def _hp_row_dict(row: _RowAccumulator) -> dict:
    """High-precision row as weights w keyed by (block, i, j) with i <= j.

    The functional value at symmetric X is sum w_ij X_ij with each
    off-diagonal pair folded into its upper-triangle key, matching the
    symmetrized float matrices of `to_term`.
    """
    out: dict[tuple[str, int, int], object] = {}
    for (blk, a, b), (v, _) in row.entries.items():
        key = (blk, a, b) if a <= b else (blk, b, a)
        out[key] = out[key] + v if key in out else v
    return out


def assemble_problem_A(params: ModelParams, sample) -> SdpProblem:
    """Build Problem A for the given model parameters and constraint sample.

    Equality constraints: the cylinder identity expanded coefficientwise,
    the structural zeros (low powers against large |r - s|) and the
    normalization lambda = 1.  Each sample point contributes
    <calF(point), Q> <= 0.  The objective minimizes f at the identity motion.

    One walk over the block entries writes each entry's identity-row terms
    (from its entry polynomial, expanded once per distinct polynomial); for
    Q entries with r = s, the objective term, that polynomial's constant
    coefficient; and for Q entries, the entry of every sample row, a radial
    vector over the points times a phase vector.  Each Q block holds its
    sample rows as one (points, dim, dim) stack.  The sample rows round as a
    scalar evaluation per point would: rho**m is Python's float power point
    by point (numpy's array power rounds differently), the phase is
    math.cos, each entry is added into the zero stack, and the stack is
    symmetrized as (M + M^T)/2 in one pass; a point's row holds the block
    when its matrix has a nonzero entry.  The insertion orders of rows,
    blocks and entries set the summation order of later residuals, so they
    are kept.

    A row that rounds to no coefficients is pruned as zero.  Every other row
    that is a linear combination of earlier rows is pruned by
    `_independent_rows`, which keeps the projection stage full rank; among
    them are the identity rows of a class (m1, m2) that coincide with those
    of (-m1, -m2).  The manifest in `meta` records everything.

    The negation symmetry f_{r,s;k} = f_{-r,-s;k} that makes f real needs
    no rows of its own: the identity rows and the low-k rows imply it.  On
    symmetric R and S the R and S parts of the identity classes (m1, m2)
    and (-m1, -m2) agree, their entries being transposes of each other.  So
    the difference of the two classes' rows is the Q part at (r, s) =
    (-m1, -m2) minus the Q part at (-r, -s), written in the triangular
    Laguerre basis: T_m(g_{r,s} - g_{-r,-s}) with m = |r - s|, g_{r,s}(a^2) =
    sum_k f_{r,s;k} a^2k and T_m the radial part of tau
    (`specfun.tau_radial_expansion`).  T_m sends a^2k to zero for k < m/2 and
    to a polynomial of degree exactly k in rho^2 for k >= m/2, so the
    difference vanishes exactly when f_{r,s;k} = f_{-r,-s;k} for every
    k >= |r - s|/2; for k < |r - s|/2 the low-k rows set both sides to zero.
    """
    N, d = params.N, params.d
    specs = block_specs(params)
    dims = {b.label: b.dim for b in specs}
    blocks = [Block(b.label, b.dim, "psd") for b in specs]
    q_block = {(b.i, b.j): b for b in specs if b.family == "Q"}
    isets = index_sets(N)
    for idx, pt in enumerate(sample):
        if pt.rho > 1.0 + 1e-9:
            raise ValueError(f"sample point {idx} violates rho <= 1")
    rho = [pt.rho for pt in sample]
    trho = math.pi * np.array(rho, dtype=float) * rho

    with mp.workdps(ASSEMBLY_DPS):
        bco = realize_basis(d, high_precision=True)
        prods = _products(bco)  # bco[k]: the coefficients of P_k in u = rho^2, lower triangular
        prods_f = {k: [float(c) for c in v] for k, v in prods.items()}
        T = [[c._mpf_ for c in row] for row in bco]
        expansion = functools.cache(tau_radial_expansion)  # one per (|r - s|, length), made at ASSEMBLY_DPS

        # ------------------------------------------------------------------
        # cylinder identity rows, one per raw class z1^m1 z2^m2; classes whose
        # rows coincide after symmetrization (transpose-related entry sets)
        # are pruned below
        classes: dict[tuple[int, int], list[_RowAccumulator]] = {}

        # The entry polynomial depends only on (family, i, l, l') and, for Q,
        # on |r - s|: far fewer keys than block entries (216 against 3,240 at
        # N = 5, d = 11), so each is expanded in the basis, and each of its
        # coordinates rounded to float, once.
        entry_coords: dict[tuple, tuple] = {}  # key -> (constant coefficient, nonzero basis coordinates)

        def add_identity(m1, m2, key, block, a, b):
            """Add a block entry's terms to the identity rows; return its polynomial's constant (mpf, float)."""
            if key not in entry_coords:
                family, i, l, lp = key[:4]
                base = prods[(i, l, lp)]
                if family == "Q":
                    upoly = expansion(key[4], len(base))(base)
                else:  # R, or S multiplied by (rho^2 - 1)
                    upoly = base if family == "R" else conv(base, [-1, 1])
                coords = [(k, mp.make_mpf(g), to_float(g, rnd=round_nearest))
                          for k, g in enumerate(_basis_coords(upoly, T, d)) if g != fzero]
                entry_coords[key] = (upoly[0], float(upoly[0])), coords
            const, coords = entry_coords[key]
            if (m1, m2) not in classes:
                classes[m1, m2] = [_RowAccumulator(f"identity[{m1},{m2};k={k}]") for k in range(d + 1)]
            rows = classes[m1, m2]
            for k, g, fg in coords:
                rows[k].add(block, a, b, g, fg)
            return const

        # ------------------------------------------------------------------
        # sample rows in float precision (the verification stage re-evaluates
        # f in high precision independently of these rows), over all points
        radial_terms: dict[tuple[int, int], tuple] = {}  # (m, k) -> (D, L^m_{k-m/2}(pi rho^2))
        powers: dict[int, np.ndarray] = {}  # m -> (-1)^(m/2) rho^m
        phases: dict[tuple[int, int], np.ndarray] = {}

        def radial(key) -> np.ndarray:
            """The radial factor of a Q entry's tau at every point."""
            _, i, l, lp, m = key
            c = prods_f[(i, l, lp)]
            out = np.zeros(len(sample))
            for k in range(m // 2, len(c)):
                if c[k] != 0:
                    if (m, k) not in radial_terms:
                        radial_terms[m, k] = float(coeff_D_mp(m, k)), laguerre(k - m // 2, m, trho)
                    dk, lk = radial_terms[m, k]
                    out += c[k] * dk * lk
            if m not in powers:
                sign = (-1.0) ** (m // 2)
                powers[m] = np.array([sign * x**m for x in rho])
            return out * powers[m]

        def phase(r, s) -> np.ndarray:
            if (r, s) not in phases:
                phases[r, s] = np.array([math.cos(s * pt.alpha + (r - s) * pt.theta) for pt in sample])
            return phases[r, s]

        obj_row = _RowAccumulator("objective")  # <calF(0,0,0), Q>, also the feasibility cap
        sample_mats: list[dict[str, np.ndarray]] = [{} for _ in sample]
        for bs in specs:
            if bs.family != "Q":  # R or S over pair index sets
                for a_idx, (l, (u, v)) in enumerate(bs.index):
                    for b_idx, (lp, (up, vp)) in enumerate(bs.index):
                        key = (bs.family, bs.i, l, lp)
                        add_identity(up - u, vp - v, key, bs.label, a_idx, b_idx)
                continue
            stack = np.zeros((len(sample), bs.dim, bs.dim))  # stack[n]: point n's matrix
            for a_idx, (l, r) in enumerate(bs.index):
                for b_idx, (lp, s) in enumerate(bs.index):
                    key = ("Q", bs.i, l, lp, abs(r - s))
                    const = add_identity(-r, -s, key, bs.label, a_idx, b_idx)
                    if r == s and const[0] != 0:  # f at the identity
                        obj_row.add(bs.label, a_idx, b_idx, *const)
                    stack[:, a_idx, b_idx] += radial(key) * phase(r, s)
            # (M + M^T)/2 in place, numpy buffering the overlapping transpose
            stack += stack.transpose(0, 2, 1)
            stack *= 0.5
            for point_mats, mat in zip(sample_mats, stack):
                if mat.any():
                    point_mats[bs.label] = mat
        ineq_terms = [
            LinearTerm(m, 0.0, f"sample[{idx};rho={pt.rho:.6f},theta={pt.theta:.6f},alpha={pt.alpha:.6f}]")
            for idx, (pt, m) in enumerate(zip(sample, sample_mats))
        ]

        eq_rows = [(row, 0.0) for key in sorted(classes) for row in classes[key]]  # (row, rhs)

        def add_f_row(label, k, j, r, s, rhs=0.0):
            """The row sum_i f^i_{r,s;k} over the Q blocks of class j."""
            row = _RowAccumulator(label)
            q_blocks = [q_block[i, j] for i in (0, 1) if (i, j) in q_block]
            for lab, a, b, key in _f_entries(q_blocks, r, s):
                c = prods[key]
                if k < len(c) and c[k] != 0:
                    row.add(lab, a, b, c[k], prods_f[key][k])
            eq_rows.append((row, rhs))

        # ------------------------------------------------------------------
        # structural zero rows (low k against large |r-s|), Q blocks only
        seen_pairs = set()
        for j in range(ANGULAR_MODULUS):
            if (0, j) not in q_block:
                continue
            for r in isets[j]:
                for s in isets[j]:
                    m = abs(r - s)
                    if m // 2 == 0 or (min(r, s), max(r, s)) in seen_pairs:
                        continue
                    seen_pairs.add((min(r, s), max(r, s)))
                    for k in range(min(m // 2, d + 1)):
                        add_f_row(f"lowk[r={r},s={s};k={k}]", k, j, r, s)

        # ------------------------------------------------------------------
        # normalization: f_{0,0;0} = 1
        add_f_row("normalization", 0, 0, 0, 0, rhs=1.0)

        # ------------------------------------------------------------------
        # realize float problem: drop the zero rows, then the rows that are
        # linear combinations of earlier ones, which would make the
        # projection stage rank-deficient
        nonzero = []  # (row, rhs, term)
        for row, rhs in eq_rows:
            term = row.to_term(dims, rhs)
            if term.coeffs:
                nonzero.append((row, rhs, term))
        keep = _independent_rows(stack_rows(blocks, [term for _, _, term in nonzero])[0])
        kept = [nonzero[n] for n in keep]
        eq_terms = [term for _, _, term in kept]
        hp_rows = [(_hp_row_dict(row), mp.mpf(rhs), row.label) for row, rhs, _ in kept]
        obj_term = obj_row.to_term(dims, 0.0)

    manifest = [
        f"blocks: {', '.join(f'{b.label}(dim {b.dim})' for b in specs)}",
        "block index order: (l, r) with l = 0..floor(d/2) outer-major over I_j (Q) "
        "or P_j pairs (R, S)",
        f"pruned rows: {len(eq_rows) - len(nonzero)} zero, {len(nonzero) - len(keep)} dependent",
        "inequalities enter the solver and SDPA export through slack variables",
    ]
    for n, t in enumerate(eq_terms):
        manifest.append(f"eq[{n}] {t.label}")
    for n, t in enumerate(ineq_terms):
        manifest.append(f"ineq[{n}] {t.label}")

    problem = SdpProblem(
        blocks=blocks,
        objective=dict(obj_term.coeffs),
        eq_constraints=eq_terms,
        ineq_constraints=ineq_terms,
        meta={
            "manifest": manifest,
            "hp_rows": hp_rows,
            "kind": "problem-A",
        },
    )
    problem.validate()
    return problem


def assemble_feasibility_variant(base: SdpProblem, z_star: float, margin: float) -> SdpProblem:
    """The re-solve problem: objective removed, objective value capped.

    Adds the inequality <calF(0,0,0), Q> <= z_star + margin so an interior
    solution with healthy minimum eigenvalues can be found.
    """
    if base.meta.get("kind") != "problem-A":
        raise ValueError("feasibility variant requires a problem built by assemble_problem_A")
    cap = LinearTerm(dict(base.objective), float(z_star) + margin, "objective-cap")
    variant = SdpProblem(
        blocks=list(base.blocks),
        objective={},
        eq_constraints=list(base.eq_constraints),
        ineq_constraints=list(base.ineq_constraints) + [cap],
        meta={**base.meta, "kind": "problem-A-feasibility", "cap": float(z_star) + margin},
    )
    return variant


def recover_tensor(sol: SdpSolution, params: ModelParams) -> CoefficientTensor:
    """Recover f[r][s][k] = sum_i <F^i_{r,s;k}, Q^{ij}> from the solution blocks.

    Entries for pairs not covered by any present Q block are zero; values are
    mirrored onto negated index pairs from the lexicographically larger
    representative so the tensor invariants hold exactly.
    """
    N, d = params.N, params.d
    specs = block_specs(params)
    prods = {k: [float(c) for c in v] for k, v in _products(realize_basis(d)).items()}
    n = 2 * N + 1
    raw = np.zeros((n, n, d + 1))
    covered = np.zeros((n, n), dtype=bool)
    for bs in specs:
        if bs.family != "Q":
            continue
        if bs.label not in sol.blocks:
            raise KeyError(f"solution is missing block {bs.label}")
        Q = np.asarray(sol.blocks[bs.label])
        if Q.shape != (bs.dim, bs.dim):
            raise ValueError(f"block {bs.label} has shape {Q.shape}, expected {(bs.dim, bs.dim)}")
        rs = index_sets(N)[bs.j]
        for r in rs:
            for s in rs:
                covered[r + N, s + N] = True
                for _, a, b, key in _f_entries([bs], r, s):
                    c = prods[key]
                    q = Q[a, b]
                    for k in range(len(c)):
                        if c[k] != 0.0:
                            raw[r + N, s + N, k] += c[k] * q
    out = np.zeros_like(raw)
    for r in range(-N, N + 1):
        for s in range(-N, N + 1):
            if not covered[r + N, s + N]:
                continue
            rep = max((r, s), (-r, -s))
            vals = 0.5 * (raw[rep[0] + N, rep[1] + N] + raw[rep[1] + N, rep[0] + N])
            out[r + N, s + N] = vals
    tensor = CoefficientTensor(params, out)
    return tensor
