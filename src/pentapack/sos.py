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
and each coefficient is forced to zero.  Coefficient generation runs in
high-precision arithmetic (the Laguerre normalizers mix powers of pi into
everything, so exact rationals are not available); rows are rounded to
float64 for the solver while the high-precision originals are kept for the
certification stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .fourier import ANGULAR_MODULUS, CoefficientTensor, ModelParams
from .motion import MotionPoint
from .polynomials import EvenPolynomial, conv
from .sdp import Block, LinearTerm, SdpProblem, SdpSolution
from .specfun import coeff_D_exact, laguerre_coeffs_exact

RETAINED_LABELS = ("Q00", "Q05", "Q10", "Q15", "R00", "R05", "S0", "S5")
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


def block_specs(params: ModelParams, retained: bool = True) -> list[BlockSpec]:
    """Variable blocks of the program, optionally restricted to the retained set."""
    N, d = params.N, params.d
    half = d // 2
    isets = index_sets(N)
    psets = pair_sets(N)
    specs = []
    for i in (0, 1):
        for j in range(ANGULAR_MODULUS):
            if isets[j]:
                idx = tuple((l, r) for l in range(half + 1) for r in isets[j])
                specs.append(BlockSpec(f"Q{i}{j}", "Q", i, j, idx))
    for i in (0, 1):
        for j in range(ANGULAR_MODULUS):
            if psets[j]:
                idx = tuple((l, p) for l in range(half + 1) for p in psets[j])
                specs.append(BlockSpec(f"R{i}{j}", "R", i, j, idx))
    for j in range(ANGULAR_MODULUS):
        if psets[j]:
            idx = tuple((l, p) for l in range(half + 1) for p in psets[j])
            specs.append(BlockSpec(f"S{j}", "S", 0, j, idx))
    if retained:
        specs = [b for b in specs if b.label in RETAINED_LABELS]
    return specs


# ---------------------------------------------------------------------------
# the normalized Laguerre basis


def _laguerre_2pi_exact(k: int) -> list[tuple[Fraction, int]]:
    """Coefficients of L_k^0(2 pi x^2) as (rational, power of 2pi) pairs."""
    return [(c, j) for j, c in enumerate(laguerre_coeffs_exact(k, 0))]


def _mu_argmax(k: int) -> int:
    """Index of the largest-magnitude coefficient of L_k^0(2 pi x^2)."""
    with mp.workdps(40):
        terms = [abs(mp.mpf(c.numerator) / c.denominator) * (2 * mp.pi) ** j
                 for c, j in _laguerre_2pi_exact(k)]
        return max(range(len(terms)), key=lambda i: terms[i])


def realize_basis(d: int, high_precision: bool = False) -> list[list]:
    """Coefficient lists (in the variable a^2) of P_k = L_k^0(2 pi a^2)/mu_k.

    With high_precision=True the coefficients are mpmath values at the
    current working precision; otherwise floats.
    """
    two_pi = 2 * mp.pi if high_precision else 2.0 * math.pi
    out = []
    for k in range(d + 1):
        pairs = _laguerre_2pi_exact(k)
        jstar = _mu_argmax(k)
        coeffs = []
        for c, j in pairs:
            if high_precision:
                num = mp.mpf(c.numerator) / c.denominator
            else:
                num = float(c)
            coeffs.append(num * two_pi**j)
        mu = abs(coeffs[jstar])
        out.append([c / mu for c in coeffs])
    return out


@dataclass(frozen=True)
class BasisPolynomials:
    """Normalized Laguerre basis P_k(x) = L_k^0(2 pi x^2) / mu_k, k = 0..d."""

    d: int
    polys: tuple[EvenPolynomial, ...]
    mus: tuple[float, ...]


def basis(d: int) -> BasisPolynomials:
    """The basis used for all block and identity expansions; d must be odd."""
    if d < 1 or d % 2 == 0:
        raise ValueError(f"d must be odd and >= 1, got {d}")
    coeff_lists = realize_basis(d)
    mus = []
    for k in range(d + 1):
        jstar = _mu_argmax(k)
        pairs = _laguerre_2pi_exact(k)
        c, j = pairs[jstar]
        mus.append(abs(float(c)) * (2.0 * math.pi) ** j)
    return BasisPolynomials(d, tuple(EvenPolynomial(c) for c in coeff_lists), tuple(mus))


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
# the F, calF and W matrices (spec surfaces; also used by tests)


def build_F(i: int, r: int, s: int, k: int, b: BasisPolynomials, N: int | None = None) -> np.ndarray:
    """Constraint matrix with (F^i_{r,s;k})_{(l,r)(l',s)} = coeff(a^2k, a^2i P_l P_l')."""
    if (r - s) % ANGULAR_MODULUS != 0:
        raise ValueError("r and s must lie in a common residue class mod 10")
    params = ModelParams(N if N is not None else max(abs(r), abs(s), 1), b.d)
    spec = next(
        bs for bs in block_specs(params, retained=False)
        if bs.family == "Q" and bs.i == i and bs.j == r % ANGULAR_MODULUS
    )
    prods = _products(realize_basis(b.d))
    mat = np.zeros((spec.dim, spec.dim))
    pos = {t: n for n, t in enumerate(spec.index)}
    half = b.d // 2
    for l in range(half + 1):
        for lp in range(half + 1):
            c = prods[(i, l, lp)]
            if k < len(c):
                mat[pos[(l, r)], pos[(lp, s)]] = float(c[k])
    return mat


def _dscal_float(m: int, k: int) -> float:
    q, e, _ = coeff_D_exact(m, 0, k)
    return float(q) * math.pi**e


def build_calF(i: int, j: int, p: MotionPoint, b: BasisPolynomials, N: int) -> np.ndarray:
    """The matrix calF^{ij}(p) with entries tau_{r,s}(a^2i P_l P_l')(p)."""
    params = ModelParams(N, b.d)
    spec = next(
        bs for bs in block_specs(params, retained=False)
        if bs.family == "Q" and bs.i == i and bs.j == j
    )
    prods = _products(realize_basis(b.d))
    t = math.pi * p.rho * p.rho
    mat = np.zeros((spec.dim, spec.dim), dtype=complex)
    for a_idx, (l, r) in enumerate(spec.index):
        for b_idx, (lp, s) in enumerate(spec.index):
            m = abs(r - s)
            c = prods[(i, l, lp)]
            radial = 0.0
            for k in range(m // 2, len(c)):
                if c[k] == 0:
                    continue
                lag = _laguerre_value(k - m // 2, m, t)
                radial += float(c[k]) * _dscal_float(m, k) * p.rho**m * lag
            phase = (-1.0) ** (m // 2) * np.exp(-1j * (s * p.alpha + (r - s) * p.theta))
            mat[a_idx, b_idx] = phase * radial
    return mat


def _laguerre_value(n: int, m: int, x) -> float:
    if n == 0:
        return 1.0
    prev, curr = 1.0, 1.0 + m - x
    for j in range(1, n):
        prev, curr = curr, ((2 * j + 1 + m - x) * curr - (j + m) * prev) / (j + 1)
    return curr


@dataclass(frozen=True)
class LaurentEntry:
    """rho-polynomial times z1^m1 z2^m2 (coefficients in rho^2)."""

    m1: int
    m2: int
    coeffs: tuple

    def __call__(self, rho: float, theta: float, alpha: float) -> complex:
        poly = 0.0
        for c in reversed(self.coeffs):
            poly = poly * rho * rho + float(c)
        return poly * np.exp(1j * (self.m1 * theta + self.m2 * (alpha - theta)))


@dataclass(frozen=True)
class LaurentMatrix:
    """Symbolic matrix over a block index, entry (row, col) -> LaurentEntry."""

    index: tuple
    entries: dict

    def evaluate(self, rho: float, theta: float, alpha: float) -> np.ndarray:
        n = len(self.index)
        out = np.zeros((n, n), dtype=complex)
        for (a, b), e in self.entries.items():
            out[a, b] = e(rho, theta, alpha)
        return out


def build_W(i: int, j: int, b: BasisPolynomials, N: int) -> LaurentMatrix:
    """W^{ij} over {0..d/2} x P_j: entry = rho^2i P_l P_l' z1^(u'-u) z2^(v'-v)."""
    params = ModelParams(N, b.d)
    spec = next(
        bs for bs in block_specs(params, retained=False)
        if bs.family == "R" and bs.i == i and bs.j == j
    )
    prods = _products(realize_basis(b.d))
    entries = {}
    for a_idx, (l, (u, v)) in enumerate(spec.index):
        for b_idx, (lp, (up, vp)) in enumerate(spec.index):
            coeffs = tuple(float(c) for c in prods[(i, l, lp)])
            entries[(a_idx, b_idx)] = LaurentEntry(up - u, vp - v, coeffs)
    return LaurentMatrix(spec.index, entries)


# ---------------------------------------------------------------------------
# assembly of Problem A


def _basis_coords(upoly: list, T: list[list], d: int) -> list:
    """Solve for gamma with sum_k gamma_k B_k = upoly (B_k lower triangular)."""
    c = list(upoly) + [0 * T[0][0]] * (d + 1 - len(upoly))
    gamma = [0 * T[0][0]] * (d + 1)
    for k in range(d, -1, -1):
        acc = c[k]
        for kp in range(k + 1, d + 1):
            acc = acc - gamma[kp] * T[kp][k]
        gamma[k] = acc / T[k][k]
    return gamma


class _RowAccumulator:
    """Sparse high-precision constraint row over block entries."""

    def __init__(self, label: str):
        self.label = label
        self.entries: dict[tuple[str, int, int], object] = {}

    def add(self, block: str, a: int, b: int, value) -> None:
        key = (block, a, b)
        self.entries[key] = self.entries.get(key, 0) + value

    def max_abs(self) -> float:
        return max((abs(float(v)) for v in self.entries.values()), default=0.0)

    def to_term(self, dims: dict[str, int], rhs: float, drop_tol: float) -> LinearTerm:
        """Round to a float LinearTerm with symmetrized coefficient matrices."""
        mats: dict[str, np.ndarray] = {}
        cutoff = drop_tol * max(self.max_abs(), 1e-300)
        for (blk, a, b), v in self.entries.items():
            fv = float(v)
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


def _independent_rows(terms: list[LinearTerm], dims: dict[str, int], tol: float = 1e-10) -> list[int]:
    """Indices of a maximal set of linearly independent rows, greedily in order.

    Rows are normalized and orthogonalized (modified Gram-Schmidt); a row is
    dropped when its residual against the span of the kept rows falls below
    tol.  Deterministic and stable for the row counts that occur here.
    """
    order = sorted(dims)
    offs, total = {}, 0
    for lab in order:
        offs[lab] = total
        total += dims[lab] * dims[lab]
    basis: list[np.ndarray] = []
    keep: list[int] = []
    for idx, t in enumerate(terms):
        v = np.zeros(total)
        for lab, mat in t.coeffs.items():
            v[offs[lab]: offs[lab] + mat.size] = np.asarray(mat).ravel()
        v /= np.linalg.norm(v)
        for u in basis:
            v -= (u @ v) * u
        nrm = np.linalg.norm(v)
        if nrm > tol:
            basis.append(v / nrm)
            keep.append(idx)
    return keep


def _rows_equal(a: dict, b: dict, rel_tol: float = 1e-25) -> bool:
    """Whether two symmetrized high-precision rows define the same functional."""
    if set(a) != set(b):
        return False
    scale = max((abs(v) for v in a.values()), default=0)
    return all(abs(a[k] - b[k]) <= rel_tol * scale for k in a)


def _hp_row_dict(row: _RowAccumulator) -> dict:
    """High-precision row as weights w keyed by (block, i, j) with i <= j.

    The functional value at symmetric X is sum w_ij X_ij with each
    off-diagonal pair folded into its upper-triangle key, matching the
    symmetrized float matrices of `to_term`.
    """
    out: dict[tuple[str, int, int], object] = {}
    for (blk, a, b), v in row.entries.items():
        key = (blk, a, b) if a <= b else (blk, b, a)
        out[key] = out.get(key, 0) + v
    return out


def assemble_problem_A(params: ModelParams, sample) -> SdpProblem:
    """Build Problem A for the given model parameters and constraint sample.

    Equality constraints: the structural zeros (low powers against large
    |r - s|), the negation-symmetry rows that make f real, the cylinder
    identity expanded coefficientwise, and the normalization lambda = 1.
    Each sample point contributes <calF(point), Q> <= 0.  The objective
    minimizes f at the identity motion.

    Rows that are identically zero, or duplicates forced by the tensor
    symmetries, are pruned; the manifest in `meta` records everything.
    """
    N, d = params.N, params.d
    half = d // 2
    specs = block_specs(params)
    spec_by_label = {b.label: b for b in specs}
    dims = {b.label: b.dim for b in specs}
    isets = index_sets(N)
    manifest: list[str] = []
    pruned = {"zero": 0, "duplicate": 0}

    m_values = {0}
    for j in range(ANGULAR_MODULUS):
        for r in isets[j]:
            for s in isets[j]:
                m_values.add(abs(r - s))

    with mp.workdps(ASSEMBLY_DPS):
        bco = realize_basis(d, high_precision=True)
        prods = _products(bco)
        # D-scalar and Laguerre tables at working precision.
        pi = mp.pi
        dscal = {}
        lag_exact = {}
        for m in sorted(m_values):
            for k in range(m // 2, d + 1):
                q, e, _ = coeff_D_exact(m, 0, k)
                dscal[(m, k)] = mp.mpf(q.numerator) / q.denominator * pi**e
                lag_exact[(m, k)] = [
                    mp.mpf(c.numerator) / c.denominator
                    for c in laguerre_coeffs_exact(k - m // 2, m)
                ]
        T = bco  # B_k coefficients in u = rho^2, lower triangular

        def tau_upoly(i, l, lp, r, s):
            """Coefficients in u = rho^2 of tau_{r,s}(a^2i P_l P_l')(rho) / phase."""
            m = abs(r - s)
            c = prods[(i, l, lp)]
            out = [mp.mpf(0)] * (d + 1)
            sign = (-1) ** (m // 2)
            for k in range(m // 2, len(c)):
                if c[k] == 0:
                    continue
                base = sign * c[k] * dscal[(m, k)]
                for t_pow, lam in enumerate(lag_exact[(m, k)]):
                    out[m // 2 + t_pow] += base * lam * pi**t_pow
            return out

        # ------------------------------------------------------------------
        # cylinder identity rows, one per raw z-monomial class; classes whose
        # rows coincide after symmetrization (transpose-related entry sets)
        # are pruned below
        classes: dict[tuple[int, int], list[_RowAccumulator]] = {}

        def class_rows(m1, m2):
            key = (m1, m2)
            if key not in classes:
                classes[key] = [
                    _RowAccumulator(f"identity[{key[0]},{key[1]};k={k}]")
                    for k in range(d + 1)
                ]
            return classes[key]

        def add_identity(m1, m2, upoly, block, a, b):
            rows = class_rows(m1, m2)
            for k, g in enumerate(_basis_coords(upoly, T, d)):
                if g != 0:
                    rows[k].add(block, a, b, g)

        for bs in specs:
            if bs.family == "Q":
                for a_idx, (l, r) in enumerate(bs.index):
                    for b_idx, (lp, s) in enumerate(bs.index):
                        add_identity(-r, -s, tau_upoly(bs.i, l, lp, r, s), bs.label, a_idx, b_idx)
            else:  # R or S over pair index sets
                for a_idx, (l, (u, v)) in enumerate(bs.index):
                    for b_idx, (lp, (up, vp)) in enumerate(bs.index):
                        base = prods[(bs.i, l, lp)]
                        if bs.family == "S":
                            # multiply by (rho^2 - 1)
                            upoly = [-base[0]] + [
                                (base[t - 1] if t - 1 < len(base) else mp.mpf(0))
                                - (base[t] if t < len(base) else mp.mpf(0))
                                for t in range(1, len(base) + 1)
                            ]
                        else:
                            upoly = base
                        add_identity(up - u, vp - v, upoly, bs.label, a_idx, b_idx)

        eq_rows: list[tuple[_RowAccumulator, float]] = []
        seen_signatures: list[dict] = []
        for key in sorted(classes):
            for k, row in enumerate(classes[key]):
                if row.max_abs() < 1e-30:
                    pruned["zero"] += 1
                    continue
                sig = _hp_row_dict(row)
                dup = False
                for other in seen_signatures:
                    if _rows_equal(sig, other):
                        dup = True
                        break
                if dup:
                    pruned["duplicate"] += 1
                    continue
                seen_signatures.append(sig)
                eq_rows.append((row, 0.0))

        # ------------------------------------------------------------------
        # structural zero rows (low k against large |r-s|), Q blocks only
        seen_pairs = set()
        for j in range(ANGULAR_MODULUS):
            if f"Q0{j}" not in spec_by_label:
                continue
            for r in isets[j]:
                for s in isets[j]:
                    m = abs(r - s)
                    if m // 2 == 0 or (min(r, s), max(r, s)) in seen_pairs:
                        continue
                    seen_pairs.add((min(r, s), max(r, s)))
                    for k in range(min(m // 2, d + 1)):
                        row = _RowAccumulator(f"lowk[r={r},s={s};k={k}]")
                        for i in (0, 1):
                            lab = f"Q{i}{j}"
                            if lab not in spec_by_label:
                                continue
                            pos = {t: n for n, t in enumerate(spec_by_label[lab].index)}
                            for l in range(half + 1):
                                for lp in range(half + 1):
                                    c = prods[(i, l, lp)]
                                    if k < len(c) and c[k] != 0:
                                        row.add(lab, pos[(l, r)], pos[(lp, s)], c[k])
                        if row.max_abs() < 1e-30:
                            pruned["zero"] += 1
                        else:
                            eq_rows.append((row, 0.0))

        # ------------------------------------------------------------------
        # negation-symmetry rows f_{r,s;k} = f_{-r,-s;k}
        seen_orbits = set()
        for j in range(ANGULAR_MODULUS):
            if f"Q0{j}" not in spec_by_label:
                continue
            jn = (-j) % ANGULAR_MODULUS
            if f"Q0{jn}" not in spec_by_label:
                continue  # partner class discarded; row would be vacuous
            for r in isets[j]:
                for s in isets[j]:
                    orbit = frozenset(((r, s), (s, r), (-r, -s), (-s, -r)))
                    if orbit in seen_orbits:
                        continue
                    seen_orbits.add(orbit)
                    if (-r, -s) in ((r, s), (s, r)):
                        pruned["duplicate"] += 1  # row is identically zero
                        continue
                    for k in range(d + 1):
                        row = _RowAccumulator(f"realpair[r={r},s={s};k={k}]")
                        for i in (0, 1):
                            lab, labn = f"Q{i}{j}", f"Q{i}{jn}"
                            for sign, ll, rr, ss in ((1, lab, r, s), (-1, labn, -r, -s)):
                                if ll not in spec_by_label:
                                    continue
                                pos = {t: n for n, t in enumerate(spec_by_label[ll].index)}
                                for l in range(half + 1):
                                    for lp in range(half + 1):
                                        c = prods[(i, l, lp)]
                                        if k < len(c) and c[k] != 0:
                                            row.add(ll, pos[(l, rr)], pos[(lp, ss)], sign * c[k])
                        if row.max_abs() < 1e-30:
                            pruned["zero"] += 1
                        else:
                            eq_rows.append((row, 0.0))

        # ------------------------------------------------------------------
        # normalization: f_{0,0;0} = 1
        norm_row = _RowAccumulator("normalization")
        for i in (0, 1):
            lab = f"Q{i}0"
            if lab not in spec_by_label:
                continue
            pos = {t: n for n, t in enumerate(spec_by_label[lab].index)}
            for l in range(half + 1):
                for lp in range(half + 1):
                    c = prods[(i, l, lp)]
                    if c[0] != 0:
                        norm_row.add(lab, pos[(l, 0)], pos[(lp, 0)], c[0])
        eq_rows.append((norm_row, 1.0))

        # ------------------------------------------------------------------
        # objective row <calF(0,0,0), Q> (also reused by the feasibility cap)
        obj_row = _RowAccumulator("objective")
        for bs in specs:
            if bs.family != "Q":
                continue
            for a_idx, (l, r) in enumerate(bs.index):
                for b_idx, (lp, s) in enumerate(bs.index):
                    if r != s:
                        continue
                    c = prods[(bs.i, l, lp)]
                    val = mp.mpf(0)
                    for k in range(len(c)):
                        if c[k] != 0:
                            val += c[k] * dscal[(0, k)]
                    if val != 0:
                        obj_row.add(bs.label, a_idx, b_idx, val)

        # ------------------------------------------------------------------
        # sample nonpositivity rows (float precision; the verification stage
        # re-evaluates f in high precision independently of these rows)
        ineq_terms: list[LinearTerm] = []
        prods_f = {k: [float(c) for c in v] for k, v in prods.items()}
        dscal_f = {k: float(v) for k, v in dscal.items()}
        for idx, pt in enumerate(sample):
            if pt.rho > 1.0 + 1e-9:
                raise ValueError(f"sample point {idx} violates rho <= 1")
            trho = math.pi * pt.rho * pt.rho
            lag_val = {}
            for m in sorted(m_values):
                for k in range(m // 2, d + 1):
                    lag_val[(m, k)] = _laguerre_value(k - m // 2, m, trho)
            mats: dict[str, np.ndarray] = {}
            for bs in specs:
                if bs.family != "Q":
                    continue
                mat = np.zeros((bs.dim, bs.dim))
                for a_idx, (l, r) in enumerate(bs.index):
                    for b_idx, (lp, s) in enumerate(bs.index):
                        m = abs(r - s)
                        if m > 0 and pt.rho == 0.0:
                            continue
                        c = prods_f[(bs.i, l, lp)]
                        radial = 0.0
                        for k in range(m // 2, len(c)):
                            if c[k] != 0:
                                radial += c[k] * dscal_f[(m, k)] * lag_val[(m, k)]
                        if radial == 0.0:
                            continue
                        radial *= (-1.0) ** (m // 2) * pt.rho**m
                        mat[a_idx, b_idx] += radial * math.cos(s * pt.alpha + (r - s) * pt.theta)
                mat = 0.5 * (mat + mat.T)
                if mat.any():
                    mats[bs.label] = mat
            ineq_terms.append(
                LinearTerm(mats, 0.0, f"sample[{idx};rho={pt.rho:.6f},theta={pt.theta:.6f},alpha={pt.alpha:.6f}]")
            )

        # ------------------------------------------------------------------
        # realize float problem
        eq_terms = []
        hp_rows = []
        for row, rhs in eq_rows:
            term = row.to_term(dims, rhs, drop_tol=1e-35)
            if not term.coeffs:
                pruned["zero"] += 1
                continue
            eq_terms.append(term)
            hp_rows.append((_hp_row_dict(row), mp.mpf(rhs), row.label))
        obj_term = obj_row.to_term(dims, 0.0, drop_tol=1e-35)

    # Drop equality rows that are linear combinations of earlier ones (for
    # N = 5 the negation-symmetry rows are implied by the identity rows);
    # keeping them would make the projection stage rank-deficient.
    keep = _independent_rows(eq_terms, dims)
    pruned["dependent"] = len(eq_terms) - len(keep)
    eq_terms = [eq_terms[i] for i in keep]
    hp_rows = [hp_rows[i] for i in keep]

    blocks = [Block(b.label, b.dim, "psd") for b in specs]
    manifest.append(f"blocks: {', '.join(f'{b.label}(dim {b.dim})' for b in specs)}")
    manifest.append(
        "block index order: (l, r) with l = 0..floor(d/2) outer-major over I_j (Q) "
        "or P_j pairs (R, S)"
    )
    manifest.append(f"pruned rows: {pruned['zero']} zero, {pruned['duplicate']} symmetric-duplicate")
    manifest.append("inequalities enter the solver and SDPA export through slack variables")
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
            "params": params,
            "block_specs": specs,
            "manifest": manifest,
            "hp_rows": hp_rows,
            "objective_row": obj_term,
            "kind": "problem-A",
        },
    )
    problem.validate()
    return problem


def assemble_feasibility_variant(base: SdpProblem, z_star: float, margin: float = 1e-5) -> SdpProblem:
    """The re-solve problem: objective removed, objective value capped.

    Adds the inequality <calF(0,0,0), Q> <= z_star + margin so an interior
    solution with healthy minimum eigenvalues can be found.
    """
    if base.meta.get("kind") != "problem-A":
        raise ValueError("feasibility variant requires a problem built by assemble_problem_A")
    obj_term: LinearTerm = base.meta["objective_row"]
    cap = LinearTerm(dict(obj_term.coeffs), float(z_star) + margin, "objective-cap")
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
    half = d // 2
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
        pos = {t: idx for idx, t in enumerate(bs.index)}
        rs = index_sets(N)[bs.j]
        for r in rs:
            for s in rs:
                covered[r + N, s + N] = True
                for l in range(half + 1):
                    for lp in range(half + 1):
                        c = prods[(bs.i, l, lp)]
                        q = Q[pos[(l, r)], pos[(lp, s)]]
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
