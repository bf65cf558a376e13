"""Turn a numerical SDP solution into a defensible density bound.

The chain is: project the solution onto the equality constraints (least
squares, with high-precision residual refinement), recompute feasibility
margins in extended precision, verify the sign condition of the recovered
function over the enlarged-body region with certified Lipschitz bounds, and
evaluate the final bound

    2 pi * f(0, I) / f_{0,0;0} * area(enlargement * K).

Certification follows the eigenvalue-versus-residual argument: when every
block's minimum eigenvalue exceeds safety_factor times the worst constraint
residual, a nearby exactly feasible solution exists, and the cylinder
identity then covers rho >= 1 exactly; the region rho <= 1 outside the
enlarged Minkowski difference is covered by the adaptive box pass below.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp

from .fourier import CoefficientTensor, evaluate_f, lambda_of
from .geometry import minkowski_difference, pentagon
from .motion import ORIGIN
from .sdp import SdpProblem, SdpSolution
from .specfun import coeff_D_exact, laguerre_coeffs_exact

log = logging.getLogger("pentapack.certify")


class RankDeficiencyError(ValueError):
    """The equality system is rank-deficient after pruning."""


# ---------------------------------------------------------------------------
# projection onto the equality constraints


def _stack_layout(p: SdpProblem):
    labels = [b.label for b in p.blocks]
    offs, total = {}, 0
    for b in p.blocks:
        offs[b.label] = total
        total += b.dim * b.dim if b.kind == "psd" else b.dim
    return labels, offs, total


def _stack_rows(p: SdpProblem):
    labels, offs, total = _stack_layout(p)
    rows, rhs = [], []
    for t in p.eq_constraints:
        row = np.zeros(total)
        for lab, c in t.coeffs.items():
            c = np.asarray(c)
            row[offs[lab]: offs[lab] + c.size] = c.ravel()
        n = float(np.linalg.norm(row))
        rows.append(row / n)
        rhs.append(t.rhs / n)
    return labels, offs, total, np.array(rows), np.array(rhs)


def project_affine(sol: SdpSolution, p: SdpProblem) -> tuple[SdpSolution, dict]:
    """Least-squares projection of the blocks onto the equality subspace.

    Inequalities are untouched.  Returns the projected solution together
    with diagnostics: displacement norm and pre/post residuals.  Raises
    RankDeficiencyError when dependent rows survived assembly pruning.
    """
    labels, offs, total, A, b = _stack_rows(p)
    m = len(A)
    svals = np.linalg.svd(A, compute_uv=False)
    if svals[-1] < 1e-8 * svals[0]:
        raise RankDeficiencyError(
            f"equality system nearly rank-deficient (sigma_min/sigma_max = {svals[-1]/svals[0]:.2e})"
        )
    x = np.zeros(total)
    for lab in labels:
        blk = np.asarray(sol.blocks[lab])
        x[offs[lab]: offs[lab] + blk.size] = blk.ravel()
    pre = A @ x - b
    G = np.linalg.cholesky(A @ A.T)
    x1 = x.copy()
    for _ in range(3):  # refinement squeezes the residual toward roundoff
        r = A @ x1 - b
        lam = np.linalg.solve(G.T, np.linalg.solve(G, r))
        x1 = x1 - A.T @ lam
    post = A @ x1 - b
    blocks = dict(sol.blocks)
    for lab in labels:
        blk = np.asarray(sol.blocks[lab])
        v = x1[offs[lab]: offs[lab] + blk.size].reshape(blk.shape)
        blocks[lab] = 0.5 * (v + v.T) if v.ndim == 2 else v
    out = SdpSolution(
        blocks=blocks,
        y=sol.y.copy(),
        objective=sol.objective,
        status=sol.status,
        gap=sol.gap,
        iterations=sol.iterations,
        dual_blocks=sol.dual_blocks,
    )
    info = {
        "displacement": float(np.linalg.norm(x1 - x)),
        "pre_residual": float(np.abs(pre).max()),
        "post_residual": float(np.abs(post).max()),
        "rows": m,
    }
    return out, info


def _equality_residual_mp(sol: SdpSolution, p: SdpProblem):
    """Worst normalized equality residual as an mpf at the working precision.

    Uses the assembly's high-precision rows when the problem carries them and
    lifts the float rows exactly otherwise.
    """
    worst = mp.mpf(0)
    hp_rows = p.meta.get("hp_rows")
    if hp_rows:
        for coeffs, rhs, _label in hp_rows:
            acc = -mp.mpf(rhs)
            nrm = mp.mpf(0)
            for (lab, i, j), w in coeffs.items():
                w = mp.mpf(w)
                acc += w * mp.mpf(float(sol.blocks[lab][i, j]))
                nrm += w * w
            worst = max(worst, abs(acc) / mp.sqrt(nrm))
        return worst
    for t in p.eq_constraints:
        acc = -mp.mpf(t.rhs)
        nrm = mp.mpf(0)
        for lab, c in t.coeffs.items():
            x = np.asarray(sol.blocks[lab])
            for idx, cv in np.ndenumerate(np.asarray(c)):
                if cv != 0.0:
                    acc += mp.mpf(cv) * mp.mpf(float(x[idx]))
                    nrm += mp.mpf(cv) ** 2
        worst = max(worst, abs(acc) / mp.sqrt(nrm))
    return worst


def equality_residual_hp(sol: SdpSolution, p: SdpProblem, precision_bits: int = 128) -> float:
    """Worst normalized equality residual, recomputed in extended precision."""
    with mp.workprec(precision_bits):
        return float(_equality_residual_mp(sol, p))


def feasibility_margin(
    sol: SdpSolution, p: SdpProblem, precision_bits: int = 128
) -> tuple[float, float]:
    """Minimum block eigenvalue and worst constraint residual, recomputed.

    Residuals are evaluated in extended precision against the assembly's
    high-precision rows when the problem carries them (float rows are lifted
    exactly otherwise), each normalized by its coefficient norm so the value
    is the distance to the constraint hyperplane, which is the scale the
    perturbation argument compares against the eigenvalues; inequality rows
    count only their violation.
    """
    with mp.workprec(precision_bits):
        worst = _equality_residual_mp(sol, p)
        for t in p.ineq_constraints:
            acc = -mp.mpf(t.rhs)
            nrm = mp.mpf(0)
            for lab, c in t.coeffs.items():
                x = np.asarray(sol.blocks[lab])
                c = np.asarray(c)
                if c.ndim == 2:
                    for (i, j), cv in np.ndenumerate(c):
                        if cv != 0.0:
                            acc += mp.mpf(cv) * mp.mpf(float(x[i, j]))
                            nrm += mp.mpf(cv) ** 2
                else:
                    for i, cv in enumerate(c):
                        if cv != 0.0:
                            acc += mp.mpf(cv) * mp.mpf(float(x[i]))
                            nrm += mp.mpf(cv) ** 2
            if nrm > 0 and acc / mp.sqrt(nrm) > worst:
                worst = acc / mp.sqrt(nrm)
        min_eig = mp.inf
        for b in p.blocks:
            x = np.asarray(sol.blocks[b.label])
            if b.kind == "diag" or x.ndim == 1:
                min_eig = min(min_eig, mp.mpf(float(x.min())))
                continue
            A = mp.matrix([[mp.mpf(float(x[i, j])) for j in range(x.shape[1])] for i in range(x.shape[0])])
            ev = mp.eigsy(A, eigvals_only=True)
            min_eig = min(min_eig, min(ev))
        return float(min_eig), float(worst)


# ---------------------------------------------------------------------------
# certified Lipschitz bounds


def _bernstein_max(coeffs: list, a, b) -> object:
    """Certified bound on max |p(u)| over [a, b] via Bernstein coefficients."""
    n = len(coeffs) - 1
    if n < 0:
        return mp.mpf(0)
    # shift to [0, 1]: p(a + (b - a) tau) = sum ct_k tau^k
    w = b - a
    ct = [mp.mpf(0)] * (n + 1)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        # (a + w tau)^j expanded
        for k in range(j + 1):
            ct[k] += c * math.comb(j, k) * a ** (j - k) * w**k
    best = mp.mpf(0)
    for i in range(n + 1):
        beta = mp.mpf(0)
        for k in range(i + 1):
            beta += ct[k] * math.comb(i, k) / math.comb(n, k)
        best = max(best, abs(beta))
    return best


def _weighted_sup(coeffs: list, u_max, panels: int = 24) -> object:
    """Certified sup over [0, u_max] of |p(u)| e^(-pi u), by panelled Bernstein."""
    total = mp.mpf(0)
    step = mp.mpf(u_max) / panels
    for i in range(panels):
        a = i * step
        bound = _bernstein_max(coeffs, a, a + step) * mp.e ** (-mp.pi * a)
        total = max(total, bound)
    return total


def _compiled_pairs(t: CoefficientTensor):
    """Per negation-orbit radial polynomials in u = rho^2 (weights folded in).

    Returns (r, s, coefficients of P_{r,s}) at the working precision, so that
    f = sum cos(s alpha + (r-s) theta) P_{r,s}(rho^2) e^(-pi rho^2).
    """
    seen = set()
    for r, s, k, v in t.nonzero_items():
        m = abs(r - s)
        if (r - s) % 10 != 0 or k < m // 2:
            continue
        if (r, s) in seen or (-r, -s) in seen:
            continue
        seen.add((r, s))
    d = t.params.d
    out = []
    for (r, s) in sorted(seen):
        weight = 1 if (r, s) == (-r, -s) else 2
        m = abs(r - s)
        ucoeffs = [mp.mpf(0)] * (d + 1)
        for k in range(m // 2, d + 1):
            v = t.get(r, s, k)
            if v == 0.0:
                continue
            q, e, _ = coeff_D_exact(r, s, k)
            dsc = mp.mpf(q.numerator) / q.denominator * mp.pi**e
            base = mp.mpf(v) * (-1) ** (m // 2) * dsc * weight
            for j, lam in enumerate(laguerre_coeffs_exact(k - m // 2, m)):
                ucoeffs[m // 2 + j] += base * mp.mpf(lam.numerator) / lam.denominator * mp.pi**j
        out.append((r, s, ucoeffs))
    return out


def _lipschitz_pair(t: CoefficientTensor, rho_max: float, precision_bits: int) -> tuple[float, float]:
    """Certified bounds (L_x, L_alpha) on the gradient components of f.

    Works on the compiled per-pair radial polynomials P(u), u = rho^2, with
    f = sum_pairs cos(s alpha + (r-s) theta) P(u) e^(-pi u).  The radial
    derivative is 2 rho (P' - pi P)(u) e^(-pi u) and the angular-in-theta
    part contributes |r-s| P(u)/rho; since P carries the factor u^(|r-s|/2),
    both are polynomials (times a bounded sqrt(u)), and each factor is
    bounded by panelled Bernstein enclosures over [0, rho_max^2].
    """
    with mp.workprec(max(precision_bits, 128)):
        U = mp.mpf(rho_max) ** 2
        sqrtU = mp.sqrt(U)
        Lx = mp.mpf(0)
        La = mp.mpf(0)
        for r, s, ucoeffs in _compiled_pairs(t):
            m = abs(r - s)
            # d/drho: 2 sqrt(u) (P' - pi P)
            dcoef = [
                (i + 1) * ucoeffs[i + 1] if i + 1 < len(ucoeffs) else mp.mpf(0)
                for i in range(len(ucoeffs))
            ]
            q = [dcoef[i] - mp.pi * ucoeffs[i] for i in range(len(ucoeffs))]
            sup_radial = 2 * sqrtU * _weighted_sup(q, U)
            sup_angular = mp.mpf(0)
            if m > 0:
                # |r-s| P(u) / rho = |r-s| sqrt(u) * (P(u)/u); P divisible by u
                shifted = ucoeffs[1:]
                sup_angular = m * sqrtU * _weighted_sup(shifted, U)
            Lx += sup_radial + sup_angular
            La += abs(s) * _weighted_sup(ucoeffs, U)
        return float(Lx * (1 + mp.mpf(1e-12))), float(La * (1 + mp.mpf(1e-12)))


def lipschitz_estimate(t: CoefficientTensor, rho_max: float = 1.0, precision_bits: int = 128) -> float:
    """Certified upper bound on the spatial gradient norm of f for rho <= rho_max."""
    return _lipschitz_pair(t, rho_max, precision_bits)[0]


# ---------------------------------------------------------------------------
# evaluation of f: high precision, and float64 with an error radius


class MpEvaluator:
    """Evaluates f at a fixed precision with precompiled radial polynomials.

    f = sum over canonical pairs of  weight * cos(s alpha + (r-s) theta)
        * rho^|r-s| * P_{r,s}(rho^2) * e^(-pi rho^2),
    where P collects the Laguerre and D-coefficient data.  Trigonometry in
    theta is generated from (x / rho, y / rho) by angle-addition, so a point
    evaluation costs a handful of multiplications per pair.
    """

    def __init__(self, t: CoefficientTensor, precision_bits: int):
        self.prec = precision_bits
        with mp.workprec(precision_bits):
            # (s, r - s, radial coefficients in u = rho^2)
            self.pairs = [(s, r - s, ucoeffs) for r, s, ucoeffs in _compiled_pairs(t)]

    def eval(self, x, y, cos_table, sin_table):
        """f at (x, y) given per-alpha tables cos(s alpha), sin(s alpha)."""
        with mp.workprec(self.prec):
            x = mp.mpf(x)
            y = mp.mpf(y)
            u = x * x + y * y
            rho = mp.sqrt(u)
            if rho > 0:
                c1, s1 = x / rho, y / rho
            else:
                c1, s1 = mp.mpf(1), mp.mpf(0)
            # cos/sin of n*theta for the angular differences we need
            trig = {0: (mp.mpf(1), mp.mpf(0))}
            cn, sn = mp.mpf(1), mp.mpf(0)
            maxn = max((abs(md) for _, md, _ in self.pairs), default=0)
            for n in range(1, maxn + 1):
                cn, sn = cn * c1 - sn * s1, sn * c1 + cn * s1
                trig[n] = (cn, sn)
            total = mp.mpf(0)
            for s, md, ucoeffs in self.pairs:
                poly = mp.mpf(0)
                for c in reversed(ucoeffs):
                    poly = poly * u + c
                if poly == 0:
                    continue
                ct, st = trig[abs(md)]
                if md < 0:
                    st = -st
                ca, sa = cos_table[s], sin_table[s]
                # cos(s alpha + md theta)
                phase = ca * ct - sa * st
                total += poly * phase
            return total * mp.e ** (-mp.pi * u)

    def alpha_tables(self, alpha: float):
        with mp.workprec(self.prec):
            a = mp.mpf(alpha)
            cos_table, sin_table = {}, {}
            for s, _, _ in self.pairs:
                if s not in cos_table:
                    cos_table[s] = mp.cos(s * a)
                    sin_table[s] = mp.sin(s * a)
            return cos_table, sin_table


# Error radius of FloatEvaluator, relative to S (see its docstring).
FLOAT_ERROR_RADIUS = 2.0**-40


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * unit / (1.0 - n * unit)


class FloatEvaluator:
    """f in float64 over arrays of points, with an a-priori error radius.

    Evaluates the expansion of an `MpEvaluator` with its coefficients and
    per-alpha tables rounded to float, by the same operations: u = x^2 + y^2,
    (cos theta, sin theta) = (x, y)/sqrt(u), cos/sin(n theta) by the
    angle-addition recurrence (complex products z_n = z_(n-1) z_1), Horner in
    u, phase = cos(s alpha) cos(m theta) - sin(s alpha) sin(m theta), the sum
    over pairs, and the factor exp(-pi u).  `eval` returns v and a radius E
    with |v - f_mp| <= E, where f_mp is `MpEvaluator.eval` at the same point.

    The bound (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3
    and 5) uses the unit roundoff ur = 2^-53, gamma_n = n ur/(1 - n ur) and
    (1+gamma_j)(1+gamma_k) <= 1+gamma_(j+k).  Let d be the degree in u, M
    the largest |r-s|, J the number of pairs, P_j = sum_k |c_jk| u^k and
    S = e^(-pi u) sum_j P_j:

    - u is computed with relative error gamma_2 (two products, one sum of
      nonnegative terms); sqrt and the divisions give |z_1 - e^(i theta)| <=
      gamma_4.
    - A computed complex product errs by at most sqrt(2) gamma_2 |z||w| <=
      gamma_3 |z||w| (Higham, Lemma 3.5), so by induction |z_n - e^(i n
      theta)| <= (1+gamma_4)^n (1+gamma_3)^(n-1) - 1 <= gamma_(7n).
    - The tables are rounded once (error ur); with one more rounded product
      pair and a difference the phase errs by at most gamma_(7M+4).
    - Horner with rounded coefficients at the rounded u gives
      sum_k (1+theta_(2k+1)) c_k u^k (1+theta_2)^k, an error of at most
      gamma_(4d+1) P_j.
    - Each product poly * phase then errs by at most gamma_(4d+7M+6) P_j,
      and summing J terms, in any order, adds gamma_(J-1) sum_j P_j.
    - The argument -pi u of exp carries relative error gamma_4, at most
      6.5 gamma_4 in absolute terms (u <= 2.05), so exp changes by a factor
      within e^(27 u) of the true one; allowing 4 ulps for exp itself and one
      rounding for the last product gives gamma_36.

    In all |v - f| <= gamma_n S with n = 4d + 7M + J + 42, f computed
    exactly from the mp coefficients and tables.  f_mp differs from that f
    by the same bound at the mp unit 2^-precision_bits.  At N=5, d=11 (M=10,
    J=7) n = 163, gamma_n S ~ 1.8e-14 S, and the radius E = 2^-40 S ~ 9.1e-13
    S is 50 times larger; a larger model raises E to 10 gamma_n S.  The
    margin also covers the rounding of S itself and of v -/+ E, so [v - E,
    v + E] as computed encloses f_mp.  Below 53 bits mp rounds the point
    itself, so there E is infinite and every decision falls back to mp.
    Measured on the paper-default tensor at 4,000 random points, the error
    stays below 1.4 * 2^-52 S.
    """

    def __init__(self, ev: MpEvaluator):
        self.s = [s for s, _, _ in ev.pairs]
        md = np.array([m for _, m, _ in ev.pairs], dtype=int)
        self.m = np.abs(md)
        self.sign = np.where(md < 0, -1.0, 1.0)  # sin(md theta) = sign * sin(|md| theta)
        coeffs = np.array([[float(c) for c in u] for _, _, u in ev.pairs] or np.zeros((0, 1)))
        # Horner runs on the signed coefficients and their absolute values at once,
        # from the leading coefficient down
        self.horner = list(np.concatenate([coeffs, np.abs(coeffs)]).T[::-1])
        self.n_pairs = len(ev.pairs)
        self.M = int(self.m.max(initial=0))
        n = 4 * (coeffs.shape[1] - 1) + 7 * self.M + self.n_pairs + 42
        if ev.prec < 53:
            self.rel = math.inf
        else:
            self.rel = max(FLOAT_ERROR_RADIUS, 10 * _gamma(n, 2.0**-53)) + _gamma(n, 2.0**-ev.prec)

    def tables(self, cos_table, sin_table):
        """Per-pair rows cos(s alpha), sign(r-s) sin(s alpha) from `MpEvaluator.alpha_tables`."""
        return (np.array([float(cos_table[s]) for s in self.s]),
                np.array([float(sin_table[s]) for s in self.s]) * self.sign)

    def eval(self, x, y, cos_s, sin_s):
        """v and E at the points (x, y); cos_s, sin_s: one row of `tables`, or one per point."""
        u = x * x + y * y
        rho = np.sqrt(u)
        nz = rho > 0
        z = np.ones(u.shape + (self.M + 1,), complex)
        z[..., 1:] = (np.divide(x, rho, out=np.ones_like(u), where=nz)
                      + 1j * np.divide(y, rho, out=np.zeros_like(u), where=nz))[..., None]
        z = np.cumprod(z, axis=-1)[..., self.m]  # z_n = z_(n-1) z_1 ~ e^(i n theta)
        phase = cos_s * z.real - sin_s * z.imag
        uu = u[..., None]
        acc = np.zeros(u.shape + (2 * self.n_pairs,))
        for c in self.horner:
            acc *= uu
            acc += c
        g = np.exp(-np.pi * u)
        v = (acc[..., : self.n_pairs] * phase).sum(axis=-1) * g
        S = acc[..., self.n_pairs:].sum(axis=-1) * g
        return v, np.multiply(self.rel, S, out=np.zeros_like(S), where=S > 0)


def tensor_hash(t: CoefficientTensor) -> str:
    return hashlib.sha256(t.dumps().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# sign verification over the enlarged-body region


@dataclass
class VerifySpec:
    """Geometry of the verification sweep (matches verification_sample)."""

    alpha_count: int = 17
    grid_n: int = 160
    max_depth: int = 8


@dataclass
class SignVerification:
    sign_margin: float
    witness: tuple[float, float, float]
    cert_margin: float
    certified_sign: bool
    stream_points: int
    evaluations: int
    lipschitz_x: float
    lipschitz_alpha: float
    covering_radius: float
    base_cell_radius: float
    precision_bits: int
    enlargement: float
    failures: list = field(default_factory=list)
    notes: str = ""

    def __post_init__(self):
        # JSON hands back lists; the verifier produces tuples
        self.witness = tuple(self.witness)
        self.failures = [tuple(f) for f in self.failures]


def _screen(xlo, ylo, h, geo, margin):
    """Disk, erosion and region tests of the boxes [xlo, xlo+2h] x [ylo, ylo+2h].

    `geo` stacks the normal components and offsets (n.x <= c inside) of the
    Minkowski difference, shape (3, edges, 1) for one alpha or (3, edges,
    boxes) for one alpha per box.  Returns (keep, region, cx, cy): keep marks
    boxes that meet the unit disk and are not inside the difference for
    every alpha within `margin`; region marks box centres in the region.
    Per edge the erosion test takes the corner maximizing n.p; rounding is
    monotone, so that corner's rounded value is the largest of the four and
    the test equals the one over all corners.
    """
    n0, n1, off = geo
    xhi = xlo + 2 * h
    yhi = ylo + 2 * h
    nx = np.where((xlo > 0) | (xhi < 0), np.minimum(np.abs(xlo), np.abs(xhi)), 0.0)
    ny = np.where((ylo > 0) | (yhi < 0), np.minimum(np.abs(ylo), np.abs(yhi)), 0.0)
    px = np.where(n0 >= 0, xhi, xlo)
    py = np.where(n1 >= 0, yhi, ylo)
    inside = (n0 * px + n1 * py <= off - margin - 1e-12).all(axis=0)
    cx = xlo + h
    cy = ylo + h
    centre_inside = (n0 * cx + n1 * cy <= off - 1e-12).all(axis=0)
    keep = ~(nx * nx + ny * ny > 1.0) & ~inside
    region = (cx * cx + cy * cy <= 1.0) & ~centre_inside
    return keep, region, cx, cy


def _pad_edges(geo, edges: int):
    """Append edges that every point satisfies (0.x <= inf)."""
    extra = edges - geo.shape[1]
    if not extra:
        return geo
    return np.concatenate([geo, np.tile([[[0.0]], [[0.0]], [[math.inf]]], (1, extra, 1))], axis=1)


class _Leaders:
    """Candidates for a maximum of values known through enclosures [lo, hi].

    Keeps, in arrival order, each item whose hi reaches the largest lo seen.
    An item left out has value <= hi < that lo, so it is not the maximum and
    cannot tie with it.
    """

    def __init__(self):
        self.floor = -math.inf
        self.items: list[tuple] = []
        self._limit = 64

    def add(self, lo: float, hi: float, item) -> None:
        if lo > self.floor:
            self.floor = lo
        if hi >= self.floor:
            self.items.append((hi, item))
            self._prune()

    def add_many(self, lo, hi, make) -> None:
        """Arrays lo, hi; make(i) builds the item of entry i."""
        if lo.size:
            self.floor = max(self.floor, float(lo.max()))
            self.items.extend((h, make(i)) for i, h in enumerate(hi.tolist()) if h >= self.floor)
            self._prune()

    def _prune(self) -> None:
        if len(self.items) > self._limit:
            self.items = [(h, it) for h, it in self.items if h >= self.floor]
            self._limit = 2 * len(self.items) + 64

    def survivors(self) -> list:
        return [it for h, it in self.items if h >= self.floor]


class _Children:
    """The 8 children of a split box, screened and evaluated together."""

    __slots__ = ("next", "xlo", "ylo", "h", "alpha", "ha", "depth", "a", "b",
                 "cx", "cy", "lo", "hi", "glo", "ghi", "action", "fallback", "sub")


def verify_nonpositivity(
    t: CoefficientTensor,
    enlargement: float,
    sample_spec: VerifySpec,
    precision_bits: int = 256,
) -> SignVerification:
    """Certify f <= 0 on {rho <= 1} outside the enlarged Minkowski difference.

    Streams the verification sample (the level-0 box centers), recording the
    maximum of f over it, then runs an adaptive box pass: a box is
    discharged when it cannot meet the region (entirely outside the unit
    disk, or inside the Minkowski difference for every rotation angle it
    spans, via an erosion test), or when the center value fc plus the
    certified Lipschitz radius, bound = (fc + L_x sqrt(2) h) + L_a h_alpha,
    is nonpositive; a box whose center lies in the region with fc > 0 is a
    failure; otherwise it is split 8-way, down to max_depth.  The region
    rho >= 1 is excluded here: the cylinder identity covers it, and its
    residual is reported separately.

    fc is float(f_mp), f_mp the `MpEvaluator` value at `precision_bits`.
    The stream pass handles one alpha slice per numpy batch; refinement
    pops boxes last-in first-out and evaluates the 8 children of a split
    together.  Every value comes first from `FloatEvaluator` as v with a
    proved radius E, |v - f_mp| <= E: Higham's gamma_n bounds for u = x^2 +
    y^2, the angle-addition recurrence, Horner, the pair sum and exp give
    |v - f| <= gamma_n S with n = 4d + 7M + J + 42 (163 at N=5, d=11) and
    S = e^(-pi u) sum |c_k| u^k, and E = 2^-40 S is 50 times that (the
    steps are in its docstring).  The computed ends give floats lo <= f_mp
    <= hi.  Round-to-nearest is monotone, so lo <= fc <=
    hi, and (fc + a) + b lies between (lo + a) + b and (hi + a) + b.  A
    decision (fc > 0, bound <= 0) that has the same answer at lo and at hi
    therefore has that answer at fc.  Where the two ends disagree the box is
    evaluated by `MpEvaluator` and lo = hi = fc.

    Every reported value is fc itself, from `MpEvaluator` unless lo == hi
    (then lo <= fc <= hi pins it): the sign margin and witness come from
    the region points whose hi reaches the largest lo, visited in stream
    order with strict '>'; the cert margin from the boxes whose bound-hi
    reaches the largest bound-lo; and the 16 kept failures.  A point left
    out has fc <= hi < the largest lo, below the maximum, so the results
    equal those of evaluating every box at `precision_bits`.
    """
    if enlargement < 1.0:
        raise ValueError(f"enlargement must be >= 1, got {enlargement}")
    started = time.perf_counter()
    rho_max = math.sqrt(2.0) + 0.01  # boxes live in [-1,1]^2
    L_x, L_a = _lipschitz_pair(t, rho_max, max(precision_bits, 128))
    ev = MpEvaluator(t, precision_bits)
    fe = FloatEvaluator(ev)
    rate = 0.5 * enlargement + 1e-12  # Hausdorff speed of the difference in alpha
    max_depth = sample_spec.max_depth

    alpha_lo = -2.0 * math.pi / 10.0
    dalpha = (4.0 * math.pi / 10.0) / sample_spec.alpha_count
    dx0 = 2.0 / sample_spec.grid_n

    failures = []
    n_failures = 0
    stream_points = 0
    evaluations = 0
    decided_by_mp = 0  # evaluated boxes whose decision needed mp
    sign = _Leaders()  # items (cx, cy, amid, lo, hi)
    cert = _Leaders()  # items (cx, cy, amid, lo, hi, a, b)

    alpha_cache: dict[float, tuple] = {}

    def alpha_data(amid):
        got = alpha_cache.get(amid)
        if got is None:
            edges = minkowski_difference(amid, enlargement).edges()
            geo = np.array([[[n[0]] for n, _ in edges], [[n[1]] for n, _ in edges], [[c] for _, c in edges]])
            cos_t, sin_t = ev.alpha_tables(amid)
            got = (geo, cos_t, sin_t, fe.tables(cos_t, sin_t))
            alpha_cache[amid] = got
        return got

    mp_values: dict[tuple, float] = {}

    def exact(cx, cy, amid):
        """fc by MpEvaluator, once per box."""
        key = (cx, cy, amid)
        if key not in mp_values:
            _, cos_t, sin_t, _ = alpha_data(amid)
            mp_values[key] = float(ev.eval(cx, cy, cos_t, sin_t))
        return mp_values[key]

    def value(cx, cy, amid, lo, hi):
        """fc of a box: hi when the enclosure is a single float, else by mp."""
        return hi if lo == hi else exact(cx, cy, amid)

    def batch(xlo, ylo, h, ha, alphas, geo, cos_s, sin_s, depth):
        """Screen, evaluate and decide boxes of half-widths (h, ha) at `depth`.

        alphas, geo and the table rows give each box's alpha; geo and the
        rows may also be one for all.  Returns, for the boxes kept by the
        screen, their indices, centres, region flags, enclosures [lo, hi] of
        fc and [glo, ghi] of the bound, actions (0 discharged, 1 failure,
        2 split) and which needed mp.  Ambiguous decisions are resolved by
        mp, collapsing lo and hi to fc.
        """
        keep, region, cx, cy = _screen(xlo, ylo, h, geo, rate * ha)
        idx = np.flatnonzero(keep)
        cx, cy, region = cx[idx], cy[idx], region[idx]
        shape = (len(xlo), cos_s.shape[-1])
        v, E = fe.eval(cx, cy, np.broadcast_to(cos_s, shape)[idx], np.broadcast_to(sin_s, shape)[idx])
        lo, hi = v - E, v + E
        a, b = L_x * math.sqrt(2.0) * h, L_a * ha
        glo, ghi = lo + a + b, hi + a + b
        amb = (glo <= 0.0) & (ghi > 0.0)
        at_cap = depth >= max_depth
        if not at_cap:
            amb |= (ghi > 0.0) & region & (lo <= 0.0) & (hi > 0.0)
        for i in np.flatnonzero(amb).tolist():
            lo[i] = hi[i] = exact(float(cx[i]), float(cy[i]), alphas[idx[i]])
        if amb.any():
            glo, ghi = lo + a + b, hi + a + b
        discharged = ghi <= 0.0
        failed = ~discharged & (at_cap | (region & (lo > 0.0)))
        action = np.where(discharged, 0, np.where(failed, 1, 2))
        return idx, cx, cy, region, lo, hi, glo, ghi, action, amb

    def fail(cx, cy, amid, lo, hi, a, b):
        nonlocal n_failures
        if n_failures < 16:
            fc = value(cx, cy, amid, lo, hi)
            failures.append((cx, cy, amid, fc, fc + a + b))
        n_failures += 1

    # Stream pass: every level-0 box is visited so the reported sign_margin
    # covers the full verification sample even when certification fails early.
    edges0 = -1.0 + np.arange(sample_spec.grid_n) * dx0
    xlo0 = np.tile(edges0, sample_spec.grid_n)  # row-major: iy outer, ix inner
    ylo0 = np.repeat(edges0, sample_spec.grid_n)
    h0, ha0 = 0.5 * dx0, 0.5 * dalpha
    a0, b0 = L_x * math.sqrt(2.0) * h0, L_a * ha0
    stack: list = []
    for ia in range(sample_spec.alpha_count):
        amid = alpha_lo + (ia + 0.5) * dalpha
        geo, _, _, (cos_s, sin_s) = alpha_data(amid)
        idx, cx, cy, region, lo, hi, glo, ghi, action, amb = batch(
            xlo0, ylo0, h0, ha0, [amid] * len(xlo0), geo, cos_s, sin_s, 0)
        evaluations += int(idx.size)
        decided_by_mp += int(amb.sum())
        stream_points += int(region.sum())
        cxl, cyl, lol, hil = cx.tolist(), cy.tolist(), lo.tolist(), hi.tolist()
        reg = np.flatnonzero(region)
        sign.add_many(lo[reg], hi[reg], lambda j: (cxl[reg[j]], cyl[reg[j]], amid, lol[reg[j]], hil[reg[j]]))
        con = np.flatnonzero(action <= 1)
        cert.add_many(glo[con], ghi[con],
                      lambda j: (cxl[con[j]], cyl[con[j]], amid, lol[con[j]], hil[con[j]], a0, b0))
        for i in np.flatnonzero(action == 1).tolist():
            fail(cxl[i], cyl[i], amid, lol[i], hil[i], a0, b0)
        split = idx[action == 2]
        stack.extend((x, y, amid) for x, y in zip(xlo0[split].tolist(), ylo0[split].tolist()))

    def expand(parents, h, ha, depth) -> list[_Children]:
        """The 8 children of each parent box (xlo, ylo, alpha), decided in one batch."""
        hh, hha = 0.5 * h, 0.5 * ha
        n = len(parents)
        # child order: da in (-ha/2, ha/2), then ddx in (0, h), then ddy in (0, h)
        xs = (np.array([p[0] for p in parents])[:, None] + np.array([0.0, 0.0, h, h] * 2)).ravel()
        ys = (np.array([p[1] for p in parents])[:, None] + np.array([0.0, h, 0.0, h] * 2)).ravel()
        alphas = [p[2] + da for p in parents for da in (-hha, hha)]
        data = [alpha_data(al) for al in alphas]
        edges = max(d[0].shape[1] for d in data)
        geo = np.repeat(np.concatenate([_pad_edges(d[0], edges) for d in data], axis=2), 4, axis=2)
        cos_s = np.repeat([d[3][0] for d in data], 4, axis=0)
        sin_s = np.repeat([d[3][1] for d in data], 4, axis=0)
        per_box = [al for al in alphas for _ in range(4)]
        idx, cx, cy, _, lo, hi, glo, ghi, action, amb = batch(
            xs, ys, hh, hha, per_box, geo, cos_s, sin_s, depth + 1)

        def spread(vals, fill):
            out = np.full(8 * n, fill, dtype=vals.dtype)
            out[idx] = vals
            return out.tolist()

        cols = [xs.tolist(), ys.tolist(), spread(cx, 0.0), spread(cy, 0.0), spread(lo, 0.0), spread(hi, 0.0),
                spread(glo, 0.0), spread(ghi, 0.0), spread(action, -1), spread(amb, False), per_box]
        a, b = L_x * math.sqrt(2.0) * hh, L_a * hha
        out = []
        for k in range(n):
            ch = _Children()
            (ch.xlo, ch.ylo, ch.cx, ch.cy, ch.lo, ch.hi, ch.glo, ch.ghi, ch.action, ch.fallback,
             ch.alpha) = (col[8 * k: 8 * k + 8] for col in cols)
            ch.next, ch.h, ch.ha, ch.depth, ch.a, ch.b, ch.sub = 7, hh, hha, depth + 1, a, b, None
            out.append(ch)
        return out

    # Refinement pass, bounded by the failure and evaluation budgets.  The
    # stack holds level-0 boxes to split, as (xlo, ylo, alpha), or _Children;
    # the children of a _Children that split are expanded together when it
    # first reaches the top.
    aborted = False
    while stack:
        if n_failures >= 200 or evaluations >= 20_000_000:
            aborted = True
            break
        ch = stack[-1]
        if type(ch) is tuple:
            ch = stack[-1] = expand([ch], h0, ha0, 0)[0]
        if ch.sub is None:
            split = [i for i in range(8) if ch.action[i] == 2]
            parents = [(ch.xlo[i], ch.ylo[i], ch.alpha[i]) for i in split]
            ch.sub = dict(zip(split, expand(parents, ch.h, ch.ha, ch.depth))) if split else {}
        i = ch.next
        ch.next -= 1
        if i == 0:
            stack.pop()
        if ch.action[i] < 0:  # outside the disk or inside the difference
            continue
        evaluations += 1
        decided_by_mp += ch.fallback[i]
        if ch.action[i] == 2:
            stack.append(ch.sub[i])
            continue
        item = (ch.cx[i], ch.cy[i], ch.alpha[i], ch.lo[i], ch.hi[i], ch.a, ch.b)
        cert.add(ch.glo[i], ch.ghi[i], item)
        if ch.action[i] == 1:
            fail(*item)

    sign_margin = -math.inf
    witness = (0.0, 0.0, 0.0)
    for cx, cy, amid, lo, hi in sign.survivors():
        fc = value(cx, cy, amid, lo, hi)
        if fc > sign_margin:
            sign_margin = fc
            witness = (math.hypot(cx, cy), math.atan2(cy, cx) % (2 * math.pi), amid % (2 * math.pi))
    cert_margin = -math.inf
    for cx, cy, amid, lo, hi, a, b in cert.survivors():
        cert_margin = max(cert_margin, value(cx, cy, amid, lo, hi) + a + b)

    certified = not n_failures and not aborted
    base_radius = math.sqrt(2.0) * 0.5 * dx0 + (L_a / L_x) * 0.5 * dalpha if L_x > 0 else 0.0
    if certified and L_x > 0 and math.isfinite(sign_margin):
        covering_radius = max((cert_margin - sign_margin) / L_x, 0.0)
    else:
        covering_radius = base_radius
    notes = (
        "adaptive box certification; covering_radius is the effective radius "
        "(cert_margin - sign_margin)/L_x so that sign_margin + L*covering = cert_margin"
    )
    if aborted:
        notes += "; refinement aborted at the failure/evaluation budget"
    log.info(
        "verify: %d level-0 boxes, %d evaluations, %d decisions settled in float, "
        "%d mp fallbacks, %.2f s",
        sample_spec.alpha_count * sample_spec.grid_n**2, evaluations, evaluations - decided_by_mp,
        len(mp_values), time.perf_counter() - started,
    )
    return SignVerification(
        sign_margin=sign_margin,
        witness=witness,
        cert_margin=cert_margin,
        certified_sign=certified,
        stream_points=stream_points,
        evaluations=evaluations,
        lipschitz_x=L_x,
        lipschitz_alpha=L_a,
        covering_radius=covering_radius,
        base_cell_radius=base_radius,
        precision_bits=precision_bits,
        enlargement=enlargement,
        failures=failures,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# the bound and the assembled report


def final_bound(t: CoefficientTensor, enlargement: float = 1.02) -> float:
    """Density bound 2 pi f(0, I) / lambda * area(enlargement * K).

    The 2 pi restores the inversion-formula normalization relative to the
    literal closed form (see the lambda integration oracle); the enlargement
    enters through the area because packings rescale freely.  Raises when
    lambda <= 0.
    """
    lam = lambda_of(t)
    if lam <= 0.0:
        raise ValueError(f"lambda = {lam} must be positive for a valid bound")
    f0 = evaluate_f(t, ORIGIN)
    return 2.0 * math.pi * f0 / lam * pentagon(enlargement).area()


@dataclass
class VerificationReport:
    min_block_eigenvalue: float
    max_constraint_residual: float
    sign_margin: float
    lipschitz_bound: float
    covering_radius: float
    enlargement: float
    certified: bool
    bound: float
    safety_factor: float = 1e3
    cert_margin: float = math.nan
    witness: tuple = ()
    stream_points: int = 0
    precision_bits: int = 256
    tensor_hash: str = ""
    sample_spec: str = ""
    lambda_value: float = math.nan
    f_origin: float = math.nan
    notes: str = ""

    def invariant_holds(self) -> bool:
        eig_ok = self.min_block_eigenvalue > self.safety_factor * self.max_constraint_residual
        sign_ok = self.sign_margin + self.lipschitz_bound * self.covering_radius <= 0.0
        return eig_ok and sign_ok

    def to_text(self) -> str:
        lines = ["pentapack verification report v1"]
        for k, v in self.to_dict().items():
            lines.append(f"{k}: {v}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "min_block_eigenvalue": self.min_block_eigenvalue,
            "max_constraint_residual": self.max_constraint_residual,
            "sign_margin": self.sign_margin,
            "lipschitz_bound": self.lipschitz_bound,
            "covering_radius": self.covering_radius,
            "cert_margin": self.cert_margin,
            "enlargement": self.enlargement,
            "certified": self.certified,
            "bound": self.bound,
            "safety_factor": self.safety_factor,
            "witness": list(self.witness),
            "stream_points": self.stream_points,
            "precision_bits": self.precision_bits,
            "tensor_hash": self.tensor_hash,
            "sample_spec": self.sample_spec,
            "lambda": self.lambda_value,
            "f_origin": self.f_origin,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def build_report(
    t: CoefficientTensor,
    sol: SdpSolution,
    problem: SdpProblem,
    verification: SignVerification,
    safety_factor: float = 1e3,
    margin_precision_bits: int = 128,
) -> VerificationReport:
    """Combine margins, sign verification and the bound into one report.

    `certified` is true only when the positivity margins dominate the
    residuals (so an exactly feasible nearby solution exists, which also
    discharges the rho >= 1 region through the cylinder identity) and the
    adaptive sign pass succeeded.
    """
    min_eig, max_res = feasibility_margin(sol, problem, margin_precision_bits)
    bound = final_bound(t, verification.enlargement)
    certified = (
        min_eig > safety_factor * max_res
        and verification.certified_sign
        and verification.sign_margin + verification.lipschitz_x * verification.covering_radius <= 0.0
    )
    return VerificationReport(
        min_block_eigenvalue=min_eig,
        max_constraint_residual=max_res,
        sign_margin=verification.sign_margin,
        lipschitz_bound=verification.lipschitz_x,
        covering_radius=verification.covering_radius,
        enlargement=verification.enlargement,
        certified=certified,
        bound=bound,
        safety_factor=safety_factor,
        cert_margin=verification.cert_margin,
        witness=verification.witness,
        stream_points=verification.stream_points,
        precision_bits=verification.precision_bits,
        tensor_hash=tensor_hash(t),
        sample_spec=f"stream={verification.stream_points} evaluations={verification.evaluations}",
        lambda_value=lambda_of(t),
        f_origin=evaluate_f(t, ORIGIN),
        notes=verification.notes,
    )
