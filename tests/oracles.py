"""Independent oracles the tests check the pipeline against, by another route.

The pipeline evaluates f only in its Laguerre closed form; the Bessel matrix
coefficients (`scipy.special.jv`), Kummer's 1F1 (`mpmath.hyp1f1`) and the
quadratures it is derived from live here, and so do the mpf-operator forms
of the high-precision kernels that run on mpmath.libmp calls (the
verifier's, the radial expansion and the assembly's basis coordinates),
and the one-at-a-time forms of what the pipeline batches (tensor entries,
radial constants, alpha tables, polygon edges, the constraint sample's
grid filter and facet-line points, the rank test over every kept row, the
margins' inequality screen, SDPA entry lines, the solver's constraint data,
its NT scaling, step lengths, diag-block products and the diag columns'
nonzero rows),
which the tests hold its results to bit for bit.  The motion group's
Cartesian form (`Motion`, `compose`, `invert` and the polar maps) is here
too: the package needs only the polar `MotionPoint`; so is the strict
interior test `contains_interior`, which only the tests use.  Nothing under
`src/` imports this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import mpmath
import numpy as np
from mpmath import mp
from scipy.integrate import quad
from scipy.special import jv

from pentapack.certify import _equality_rows, _float_row, _gamma
from pentapack.fourier import ANGULAR_MODULUS, CoefficientTensor, ModelParams, evaluate_f
from pentapack.geometry import _COLLINEAR_TOL, ConvexPolygon, _closest_facet_pair, minkowski_difference, pentagon
from pentapack.motion import MotionPoint, rotation_matrix, wrap_angle
from pentapack.sdp import Block, LinearTerm, SdpProblem, SdpSolution, standard_form
from pentapack.solver import STEP_FRAC, _max_step, _max_step_diag, _sym
from pentapack.sos import BlockSpec, _f_entries, _products, block_specs, realize_basis
from pentapack.specfun import coeff_D, coeff_D_mp, laguerre, laguerre_coeffs_exact

A_MAX = 6.0  # quadrature truncation; e^(-pi a^2) < 1e-49 beyond


@dataclass(frozen=True)
class Motion:
    """Euclidean motion (x, A(alpha)) in Cartesian form."""

    x: tuple[float, float]
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "x", (float(self.x[0]), float(self.x[1])))
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))

    @property
    def matrix(self) -> np.ndarray:
        return rotation_matrix(self.alpha)


IDENTITY = Motion((0.0, 0.0), 0.0)


def compose(g: Motion, h: Motion) -> Motion:
    """Group product (g.x + A(g.alpha) h.x, g.alpha + h.alpha)."""
    c, s = math.cos(g.alpha), math.sin(g.alpha)
    hx, hy = h.x
    return Motion(
        (g.x[0] + c * hx - s * hy, g.x[1] + s * hx + c * hy),
        g.alpha + h.alpha,
    )


def invert(g: Motion) -> Motion:
    """Group inverse (-A(alpha)^(-1) x, -alpha)."""
    c, s = math.cos(-g.alpha), math.sin(-g.alpha)
    gx, gy = g.x
    return Motion((-(c * gx - s * gy), -(s * gx + c * gy)), -g.alpha)


def from_polar(p: MotionPoint) -> Motion:
    """Cartesian motion with x = rho (cos theta, sin theta)."""
    return Motion(
        (p.rho * math.cos(p.theta), p.rho * math.sin(p.theta)), p.alpha
    )


def to_polar(g: Motion) -> MotionPoint:
    """Polar parametrization of g; theta is 0 when the translation vanishes."""
    rho = math.hypot(g.x[0], g.x[1])
    theta = math.atan2(g.x[1], g.x[0]) if rho > 0.0 else 0.0
    return MotionPoint(rho, theta, g.alpha)


def coeff_C(r: int, s: int, k: int, rho: float) -> float:
    """Radial prefactor C_{r,s;k}(rho) of the Hankel closed form.

    Defined as Gamma(k + 1 + |r-s|/2) (rho sqrt(pi))^{|r-s|} /
    (2 pi^{k+1} Gamma(|r-s| + 1)); requires |r-s| even.
    """
    m = abs(r - s)
    if m % 2 != 0:
        raise ValueError(f"coeff_C requires |r-s| even, got r={r}, s={s}")
    num = math.factorial(k + m // 2) * (rho * rho * math.pi) ** (m // 2)
    return num / (2.0 * math.pi ** (k + 1) * math.factorial(m))


def hankel_closed_form(r: int, s: int, k: int, rho: float) -> float:
    """Closed form of the Hankel-type integral via Kummer's function.

    Equals (-1)^(s-r) C_{r,s;k}(rho) 1F1(|r-s|/2 - k; |r-s|+1; pi rho^2)
    e^(-pi rho^2); for |r-s| even the sign factor is 1.
    """
    m = abs(r - s)
    if m % 2 != 0:
        raise ValueError("hankel_closed_form requires |r-s| even")
    c = coeff_C(r, s, k, rho)
    f11 = float(mpmath.hyp1f1(m // 2 - k, m + 1, math.pi * rho * rho))
    return c * f11 * math.exp(-math.pi * rho * rho)


def hankel_integral_oracle(r: int, s: int, k: int, rho: float) -> float:
    """Numerically integrate int_0^inf a^(2k+1) e^(-pi a^2) J_{s-r}(2 pi a rho) da.

    Truncated at a = 10 where the Gaussian tail is below 1e-130; raises if
    the quadrature does not converge.
    """
    m = abs(r - s)
    if m % 2 != 0:
        raise ValueError("hankel_integral_oracle requires |r-s| even")
    if k < 0:
        raise ValueError("hankel_integral_oracle requires k >= 0")

    def integrand(a):
        return a ** (2 * k + 1) * math.exp(-math.pi * a * a) * jv(
            s - r, 2.0 * math.pi * a * rho
        )

    val, err = quad(integrand, 0.0, 10.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    if err > 1e-9:
        raise ValueError(f"hankel quadrature failed to converge (err={err})")
    return val


def matrix_coefficient_u(a: float, r: int, s: int, p: MotionPoint) -> complex:
    """Matrix coefficient u^a_{r,s} = i^(s-r) e^(-i(s alpha + (r-s) theta)) J_{s-r}(2 pi a rho)."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    phase = (1j) ** ((s - r) % 4) * np.exp(-1j * (s * p.alpha + (r - s) * p.theta))
    return complex(phase * jv(s - r, 2.0 * math.pi * a * p.rho))


def matrix_coefficient_u_quadrature(a: float, r: int, s: int, p: MotionPoint) -> complex:
    """Quadrature oracle for u^a_{r,s} from its defining inner product.

    Integrates (1/2pi) int_0^2pi e^(2 pi i a rho cos(xi - theta))
    e^(i s (xi - alpha)) e^(-i r xi) d xi with the trapezoid rule, which is
    spectrally accurate for this periodic integrand.
    """
    nodes = 4096
    xi = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
    vals = np.exp(
        2j * math.pi * a * p.rho * np.cos(xi - p.theta)
        + 1j * s * (xi - p.alpha)
        - 1j * r * xi
    )
    return complex(vals.mean())


def tau(r: int, s: int, coeffs, p: MotionPoint) -> complex:
    """Apply the linear operator tau_{r,s} at p to the even polynomial sum_k coeffs[k] a^(2k).

    Each power a^(2k) maps to (-1)^(|r-s|/2) e^(-i(s alpha + (r-s) theta))
    D_{r,s;k}(rho) L_n^{|r-s|}(pi rho^2) with n = k - |r-s|/2, and to zero
    when k < |r-s|/2.
    """
    if (r - s) % ANGULAR_MODULUS != 0:
        raise ValueError(f"tau requires r - s divisible by {ANGULAR_MODULUS}")
    m = abs(r - s)
    t = math.pi * p.rho * p.rho
    radial = 0.0
    for k, c in enumerate(coeffs):
        if c == 0 or k < m // 2:
            continue
        radial += c * coeff_D(r, s, k, p.rho) * laguerre(k - m // 2, m, t)
    phase = (-1.0) ** (m // 2) * np.exp(-1j * (s * p.alpha + (r - s) * p.theta))
    return complex(phase * radial)


def evaluate_fhat(t: CoefficientTensor, a: float) -> np.ndarray:
    """The transform matrix fhat(a)_{r,s} = (sum_k f[r][s][k] a^(2k)) e^(-pi a^2)."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    powers = a ** (2.0 * np.arange(t.params.d + 1))
    return (t.entries @ powers) * math.exp(-math.pi * a * a)


class QuadratureError(RuntimeError):
    """Raised when an oracle quadrature does not converge."""


def evaluate_f_quadrature(t: CoefficientTensor, p: MotionPoint) -> float:
    """Inversion-formula oracle: integrate sum_{r,s} fhat(a)_{r,s} u^a_{r,s} a da.

    Truncates at A_MAX, where the Gaussian factor bounds the tail below the
    target accuracy.
    """
    t.validate()
    items = list(t.nonzero_items())
    phases = np.array(
        [
            (1j) ** ((s - r) % 4) * np.exp(-1j * (s * p.alpha + (r - s) * p.theta))
            for r, s, _k, _v in items
        ]
    )
    values = np.array([v for _r, _s, _k, v in items])
    kpow = np.array([2 * k for _r, _s, k, _v in items])
    orders = np.array([s - r for r, s, _k, _v in items])

    def integrand(a, part):
        total = np.sum(values * a**kpow * phases * jv(orders, 2.0 * math.pi * a * p.rho))
        total *= a * math.exp(-math.pi * a * a)
        return total.real if part == 0 else total.imag

    re, re_err = quad(integrand, 0.0, A_MAX, args=(0,), epsabs=1e-12, epsrel=1e-12, limit=300)
    im, im_err = quad(integrand, 0.0, A_MAX, args=(1,), epsabs=1e-12, epsrel=1e-12, limit=300)
    if re_err > 1e-8 or im_err > 1e-8:
        raise QuadratureError(f"inversion quadrature error too large ({re_err:.2e}, {im_err:.2e})")
    tol = 1e-10 * max(1.0, t.l1_norm()) + 4.0 * t.asymmetry()
    if abs(im) > tol:
        raise QuadratureError(f"imaginary residue {im:.3e} in inversion quadrature")
    return re


def lambda_integral_oracle(t: CoefficientTensor) -> float:
    """Integrate f over the motion group as an independent check on lambda.

    Uses the measure 2 pi * (rho drho dtheta) x (dalpha / 2 pi): with that
    normalization the integral reproduces f[0][0][0] exactly.  Angular
    averages use trapezoid sums, which are exact for trigonometric
    polynomials of the occurring degrees.
    """
    n_theta = 8 * t.params.N + 8
    n_alpha = 4 * t.params.N + 4
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    alphas = np.linspace(0.0, 2.0 * math.pi, n_alpha, endpoint=False)

    def mean_f(rho):
        vals = [
            evaluate_f(t, MotionPoint(rho, th, al)) for th in thetas for al in alphas
        ]
        return math.fsum(vals) / len(vals)

    val, err = quad(lambda rho: mean_f(rho) * rho, 0.0, A_MAX, epsabs=1e-9, limit=100)
    if err > 1e-7:
        raise QuadratureError(f"lambda quadrature error too large ({err:.2e})")
    return (2.0 * math.pi) ** 2 * val


def _spec(params: ModelParams, family: str, i: int, j: int) -> BlockSpec:
    return next(
        bs for bs in block_specs(params)
        if bs.family == family and bs.i == i and bs.j == j
    )


def build_F(i: int, r: int, s: int, k: int, d: int, N: int | None = None) -> np.ndarray:
    """Constraint matrix with (F^i_{r,s;k})_{(l,r)(l',s)} = coeff(a^2k, a^2i P_l P_l')."""
    if (r - s) % ANGULAR_MODULUS != 0:
        raise ValueError("r and s must lie in a common residue class mod 10")
    params = ModelParams(N if N is not None else max(abs(r), abs(s), 1), d)
    spec = _spec(params, "Q", i, r % ANGULAR_MODULUS)
    prods = _products(realize_basis(d))
    mat = np.zeros((spec.dim, spec.dim))
    for _, a, b_idx, key in _f_entries([spec], r, s):
        c = prods[key]
        if k < len(c):
            mat[a, b_idx] = float(c[k])
    return mat


def build_calF(i: int, j: int, p: MotionPoint, d: int, N: int) -> np.ndarray:
    """The matrix calF^{ij}(p) with entries tau_{r,s}(a^2i P_l P_l')(p)."""
    spec = _spec(ModelParams(N, d), "Q", i, j)
    prods = _products(realize_basis(d))
    mat = np.zeros((spec.dim, spec.dim), dtype=complex)
    for a_idx, (l, r) in enumerate(spec.index):
        for b_idx, (lp, s) in enumerate(spec.index):
            mat[a_idx, b_idx] = tau(r, s, prods[(i, l, lp)], p)
    return mat


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


def build_W(i: int, j: int, d: int, N: int) -> LaurentMatrix:
    """W^{ij} over {0..d/2} x P_j: entry = rho^2i P_l P_l' z1^(u'-u) z2^(v'-v)."""
    spec = _spec(ModelParams(N, d), "R", i, j)
    prods = _products(realize_basis(d))
    entries = {}
    for a_idx, (l, (u, v)) in enumerate(spec.index):
        for b_idx, (lp, (up, vp)) in enumerate(spec.index):
            coeffs = tuple(float(c) for c in prods[(i, l, lp)])
            entries[(a_idx, b_idx)] = LaurentEntry(up - u, vp - v, coeffs)
    return LaurentMatrix(spec.index, entries)


def point_in_polygon_raycast(p: ConvexPolygon, x) -> bool:
    """Ray-casting point-in-polygon test; independent oracle for tests."""
    v = p.vertices
    x0, y0 = float(x[0]), float(x[1])
    inside = False
    n = len(v)
    for i in range(n):
        xa, ya = v[i]
        xb, yb = v[(i + 1) % n]
        if (ya > y0) != (yb > y0):
            t = (y0 - ya) / (yb - ya)
            if x0 < xa + t * (xb - xa):
                inside = not inside
    return inside


def contains_interior(p: ConvexPolygon, x) -> bool:
    """True iff x lies strictly inside p."""
    x = np.asarray(x, dtype=float)
    for n, c in p.edges():
        if n @ x >= c - _COLLINEAR_TOL:
            return False
    return True


def copies_disjoint(x, alpha: float, scale: float = 1.0) -> bool:
    """True iff the interiors of scale*K and x + A(alpha) scale*K are disjoint."""
    return not contains_interior(minkowski_difference(alpha, scale), x)


def copies_disjoint_sat(x, alpha: float, scale: float = 1.0) -> bool:
    """Separating-axis disjointness test between the two pentagon copies.

    Independent oracle: projects both vertex sets on each edge normal and
    looks for an axis where the projections do not overlap in their
    interiors.
    """
    a = pentagon(scale).vertices
    b = a @ rotation_matrix(alpha).T + np.asarray(x, dtype=float)
    for poly in (a, b):
        n = len(poly)
        for i in range(n):
            e = poly[(i + 1) % n] - poly[i]
            axis = np.array([e[1], -e[0]])
            pa = a @ axis
            pb = b @ axis
            if pa.max() <= pb.min() + _COLLINEAR_TOL or pb.max() <= pa.min() + _COLLINEAR_TOL:
                return True
    return False


def verification_sample(alpha_count: int, grid_n: int, scale: float) -> Iterator[MotionPoint]:
    """Stream the verification sample for the enlarged body.

    Walks alpha over the cell centers of a uniform partition of
    [-2 pi/10, 2 pi/10] into alpha_count cells and, per slice, the cell
    centers of a grid_n x grid_n partition of [-1, 1]^2.  A point is emitted
    when rho <= 1 and it lies outside the open set scale*(K - A(alpha) K).
    The order is deterministic: alpha ascending, then row-major in (x2, x1).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    dalpha = (4.0 * math.pi / 10.0) / alpha_count
    dx = 2.0 / grid_n
    coords = -1.0 + (np.arange(grid_n) + 0.5) * dx
    X, Y = np.meshgrid(coords, coords)  # row-major in (y, x)
    in_disk = X * X + Y * Y <= 1.0
    for ia in range(alpha_count):
        alpha = float(-2.0 * math.pi / 10.0 + (ia + 0.5) * dalpha)
        mink = minkowski_difference(alpha, scale)
        depth = np.full(X.shape, -np.inf)
        for n, c in mink.edges():
            np.maximum(depth, n[0] * X + n[1] * Y - c, out=depth)
        keep = in_disk & (depth >= -_COLLINEAR_TOL)
        for iy, ix in zip(*np.nonzero(keep)):
            x, y = float(X[iy, ix]), float(Y[iy, ix])
            rho = math.hypot(x, y)
            yield MotionPoint(rho, math.atan2(y, x) if rho > 0 else 0.0, alpha)


def _residual_mp(rhs, terms):
    """(sum w x - rhs, sum w^2) over the (weight, value) pairs, at the working precision.

    Weights are rounded to the working precision, values lifted exactly.
    """
    acc = -mp.mpf(rhs)
    nrm = mp.mpf(0)
    for w, x in terms:
        w = mp.mpf(w)
        acc += w * mp.mpf(float(x))
        nrm += w * w
    return acc, nrm


def ineq_proved_satisfied_per_row(t: LinearTerm, blocks: dict) -> bool:
    """`certify._ineqs_proved_satisfied` for one row, summed block by block with `np.vdot`."""
    acc, S, n = -t.rhs, abs(t.rhs), 1
    for lab, c in t.coeffs.items():
        c, x = np.ravel(c), np.ravel(blocks[lab])
        acc += np.vdot(c, x)
        S += np.vdot(np.abs(c), np.abs(x))
        n += c.size + 1
    return bool(acc + 2.0 * _gamma(n, 2.0**-53) * S < 0.0)


def equality_residual_hp(sol: SdpSolution, p: SdpProblem, precision_bits: int = 128) -> float:
    """Worst normalized equality residual, recomputed in extended precision by `_residual_mp`."""
    with mp.workprec(precision_bits):
        worst = mp.mpf(0)
        for weights, values, rhs in _equality_rows(sol, p):
            acc, nrm = _residual_mp(rhs, zip(weights, values))
            worst = max(worst, abs(acc) / mp.sqrt(nrm))
        return float(worst)


def margin_all_mp(sol: SdpSolution, p: SdpProblem, precision_bits: int = 128) -> tuple[float, float]:
    """`feasibility_margin`'s results with every row through `_residual_mp` and every block through eigsy."""
    with mp.workprec(precision_bits):
        if p.meta.get("hp_rows"):
            rows = [_residual_mp(rhs, ((w, sol.blocks[lab][i, j]) for (lab, i, j), w in coeffs.items()))
                    for coeffs, rhs, _label in p.meta["hp_rows"]]
        else:
            rows = [_residual_mp(rhs, zip(w, x)) for w, x, rhs in (_float_row(t, sol.blocks) for t in p.eq_constraints)]
        worst = mp.mpf(0)
        for acc, nrm in rows:
            worst = max(worst, abs(acc) / mp.sqrt(nrm))
        for t in p.ineq_constraints:
            w, x, rhs = _float_row(t, sol.blocks)
            acc, nrm = _residual_mp(rhs, zip(w, x))
            if nrm > 0 and acc / mp.sqrt(nrm) > worst:
                worst = acc / mp.sqrt(nrm)
        min_eig = mp.inf
        for b in p.blocks:
            x = np.asarray(sol.blocks[b.label])
            if x.ndim == 1:
                min_eig = min(min_eig, mp.mpf(float(x.min())))
            else:
                A = mp.matrix([[mp.mpf(float(v)) for v in row] for row in x.tolist()])
                min_eig = min(min_eig, min(mp.eigsy(A, eigvals_only=True)))
        return float(min_eig), float(worst)


def bernstein_max_operators(coeffs: list, a, b):
    """`certify._bernstein_max` in mpf operators, each power recomputed per term."""
    n = len(coeffs) - 1
    if n < 0:
        return mp.mpf(0)
    w = b - a
    ct = [mp.mpf(0)] * (n + 1)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        for k in range(j + 1):
            ct[k] += c * math.comb(j, k) * a ** (j - k) * w**k
    best = mp.mpf(0)
    for i in range(n + 1):
        beta = mp.mpf(0)
        for k in range(i + 1):
            beta += ct[k] * math.comb(i, k) / math.comb(n, k)
        best = max(best, abs(beta))
    return best


def mp_eval_operators(ev, x, y, cos_table, sin_table):
    """`MpEvaluator.eval` in mpf operators, at the evaluator's precision."""
    with mp.workprec(ev.prec):
        x = mp.mpf(x)
        y = mp.mpf(y)
        u = x * x + y * y
        rho = mp.sqrt(u)
        if rho > 0:
            c1, s1 = x / rho, y / rho
        else:
            c1, s1 = mp.mpf(1), mp.mpf(0)
        trig = {0: (mp.mpf(1), mp.mpf(0))}
        cn, sn = mp.mpf(1), mp.mpf(0)
        maxn = max((abs(md) for _, md, _ in ev.pairs), default=0)
        for n in range(1, maxn + 1):
            cn, sn = cn * c1 - sn * s1, sn * c1 + cn * s1
            trig[n] = (cn, sn)
        total = mp.mpf(0)
        for s, md, ucoeffs in ev.pairs:
            poly = mp.mpf(0)
            for c in reversed(ucoeffs):
                poly = poly * u + c
            if poly == 0:
                continue
            ct, st = trig[abs(md)]
            if md < 0:
                st = -st
            total += poly * (cos_table[s] * ct - sin_table[s] * st)
        return total * mp.e ** (-mp.pi * u)


def nonzero_items_ndenumerate(t: CoefficientTensor):
    """`CoefficientTensor.nonzero_items` by `np.ndenumerate` over every entry."""
    N = t.params.N
    for (i, j, k), v in np.ndenumerate(t.entries):
        if v != 0.0:
            yield (i - N, j - N, k, float(v))


def tau_radial_coeffs_per_term(c, m: int) -> list:
    """`specfun.tau_radial_expansion(m, len(c))(c)` with D, the Laguerre coefficient and pi^j made for every term."""
    out = [mp.mpf(0)] * len(c)
    sign = (-1) ** (m // 2)
    for k in range(m // 2, len(c)):
        if c[k] == 0:
            continue
        base = sign * c[k] * coeff_D_mp(m, k)
        for j, lam in enumerate(laguerre_coeffs_exact(k - m // 2, m)):
            out[m // 2 + j] += base * (mp.mpf(lam.numerator) / lam.denominator) * mp.pi**j
    return out


def basis_coords_operator_form(upoly: list, T: list[list], d: int) -> list:
    """`sos._basis_coords` on mpf operators: T and the returned gamma as mpf numbers."""
    c = list(upoly) + [0 * T[0][0]] * (d + 1 - len(upoly))
    gamma = [0 * T[0][0]] * (d + 1)
    for k in range(d, -1, -1):
        acc = c[k]
        for kp in range(k + 1, d + 1):
            acc = acc - gamma[kp] * T[kp][k]
        gamma[k] = acc / T[k][k]
    return gamma


def constraint_sample_per_point(
    alpha_count: int, grid_n: int, enlargement: float, facet_lines: bool = False
) -> list[MotionPoint]:
    """`geometry.constraint_sample` with the disk and facet tests made point by point in float64 scalars,
    and the facet-line points laid out one by one after all the grid points."""
    coords = -1.0 + np.arange(grid_n) * (2.0 / grid_n)
    alphas = [float(alpha) for alpha in np.linspace(-2.0 * math.pi / 10.0, 0.0, alpha_count)]
    out = []
    for alpha in alphas:
        facets = _closest_facet_pair(minkowski_difference(alpha, enlargement))
        for y in coords:
            for x in coords:
                if x * x + y * y > 1.0 + 1e-12:
                    continue
                if not any(n[0] * x + n[1] * y >= c - 1e-12 for n, c in facets):
                    continue
                rho = math.hypot(x, y)
                out.append(MotionPoint(rho, math.atan2(y, x) if rho > 0 else 0.0, alpha))
    for alpha in alphas if facet_lines else ():
        for n, c in _closest_facet_pair(minkowski_difference(alpha, enlargement)):
            reach = math.sqrt(max(0.0, 1.0 - c * c))
            for tv in np.arange(-reach, reach + 1e-12, 2.0 / grid_n):
                x = c * n[0] - tv * n[1]
                y = c * n[1] + tv * n[0]
                rho = math.hypot(x, y)
                if rho > 1.0 + 1e-12:
                    continue
                out.append(MotionPoint(rho, math.atan2(y, x) if rho > 0 else 0.0, alpha))
    return out


def compiled_pairs_per_term(t: CoefficientTensor, precision_bits: int) -> list:
    """`MpEvaluator.pairs` at precision_bits, each pair by `tau_radial_coeffs_per_term`."""
    with mp.workprec(precision_bits):
        seen = set()
        for r, s, k, _ in nonzero_items_ndenumerate(t):
            m = abs(r - s)
            if (r - s) % ANGULAR_MODULUS == 0 and k >= m // 2 and (-r, -s) not in seen:
                seen.add((r, s))
        out = []
        for r, s in sorted(seen):
            weight = 1 if (r, s) == (-r, -s) else 2
            c = [mp.mpf(t.get(r, s, k)) * weight for k in range(t.params.d + 1)]
            out.append((s, r - s, tau_radial_coeffs_per_term(c, abs(r - s))))
        return out


def alpha_tables_per_s(ev, alpha: float):
    """`MpEvaluator.alpha_tables` with one `mp.cos_sin(s alpha)` per s."""
    with mp.workprec(ev.prec):
        a = mp.mpf(alpha)
        cos_table, sin_table = {}, {}
        for s, _, _ in ev.pairs:
            if s not in cos_table:
                cos_table[s], sin_table[s] = mp.cos_sin(s * a)
        return cos_table, sin_table


def polygon_edges_per_edge(p: ConvexPolygon) -> list:
    """`ConvexPolygon.edges` one edge at a time, each offset by the dot `n @ v[i]`."""
    v = p.vertices
    out = []
    for i in range(len(v)):
        e = v[(i + 1) % len(v)] - v[i]
        n = np.array([e[1], -e[0]])
        n /= math.hypot(*n)
        out.append((n, float(n @ v[i])))
    return out


def independent_rows_all_kept(rows: np.ndarray) -> list[int]:
    """`sos._independent_rows` with each row orthogonalized against every kept row, of any group."""
    basis: list[np.ndarray] = []
    keep: list[int] = []
    for idx, v in enumerate(rows):
        for u in basis:
            v -= (u @ v) * u
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            basis.append(v / nrm)
            keep.append(idx)
    return keep


def entry_lines_per_line(blocks: list[Block], mats: list[dict | None], first: int = 0) -> list[str]:
    """`sdpa._entry_lines` with one `repr` per entry line."""
    keys, lines = [np.zeros(0, dtype=int)], []
    for bno, blk in enumerate(blocks, start=1):
        have = np.array([k for k, m in enumerate(mats) if m is not None and blk.label in m], dtype=int)
        if not have.size:
            continue
        stack = np.array([np.asarray(mats[k][blk.label], dtype=float) for k in have])
        if blk.kind == "psd":
            k, i, j = np.nonzero((stack != 0.0) & np.triu(np.ones((blk.dim, blk.dim), dtype=bool)))
            vals = stack[k, i, j]
        else:
            k, i = np.nonzero(stack != 0.0)
            j, vals = i, stack[k, i]
        keys.append(have[k])
        lines += [f"{m} {bno} {a} {b} {v!r}" for m, a, b, v in
                  zip((have[k] + first).tolist(), (i + 1).tolist(), (j + 1).tolist(), vals.tolist())]
    return [lines[n] for n in np.argsort(np.concatenate(keys), kind="stable")]  # blocks stay in order


def workspace_data_per_row(p: SdpProblem) -> tuple[dict, np.ndarray, np.ndarray]:
    """`solver._Workspace`'s (rows, A) per block label, row_scale and b, filled one constraint at a time."""
    blocks, _, eqs = standard_form(p)
    b = np.array([t.rhs for t in eqs])
    norms = np.zeros(len(eqs))
    for i, t in enumerate(eqs):
        norms[i] = math.sqrt(
            sum(float(np.sum(np.asarray(c) ** 2)) for c in t.coeffs.values())
        )
    data = {}
    for blk in blocks:
        rows = [i for i, t in enumerate(eqs) if blk.label in t.coeffs]
        shape = (blk.dim, blk.dim) if blk.kind == "psd" else (blk.dim,)
        A = np.zeros((len(rows), *shape))
        for k, i in enumerate(rows):
            A[k] = np.asarray(eqs[i].coeffs[blk.label]) / norms[i]
        data[blk.label] = (np.array(rows, dtype=int), A)
    return data, norms, b / norms


def _eig_psd_sqrt_both(mat):
    """(sqrt, inv sqrt) of each symmetric positive definite matrix of a stack, both always formed."""
    w, q = np.linalg.eigh(mat)
    rw = np.sqrt(w)[..., None, :]
    qt = q.swapaxes(-1, -2)
    return (q * rw) @ qt, (q / rw) @ qt


def nt_scaling_full(X, Z):
    """`solver._nt_scaling` with both roots formed at each of the three square roots."""
    xs, _ = _eig_psd_sqrt_both(X)
    _, s_isqrt = _eig_psd_sqrt_both(_sym(xs @ Z @ xs))
    W = _sym(xs @ s_isqrt @ xs)
    R, Rinv = _eig_psd_sqrt_both(W)
    lamV, QV = np.linalg.eigh(_sym(Rinv @ X @ Rinv))
    return W, R, Rinv, lamV, QV


def step_lengths_per_side(ws, X, Z, fx, fz, dX, dZ):
    """`solver._Workspace.step_lengths` with one `_max_step` call for X's stack and one for Z's."""
    ap = ad = 1.0
    for (kind, _), x, z, lx, lz, dx, dz in zip(ws.groups, X, Z, fx, fz, dX, dZ):
        if kind == "psd":
            ap = min(ap, *_max_step(lx, dx, STEP_FRAC))
            ad = min(ad, *_max_step(lz, dz, STEP_FRAC))
        else:
            ap = min(ap, *_max_step_diag(x, dx, STEP_FRAC))
            ad = min(ad, *_max_step_diag(z, dz, STEP_FRAC))
    return ap, ad


def apply_A_dense(ws, X):
    """`solver._Workspace.apply_A` with each diag block's dense coefficient rows."""
    out = np.zeros(ws.m)
    for lab, x in ws.by_label(X).items():
        d = ws.data[lab]
        out[d.rows] += np.einsum("kij,ij->k", d.A, x) if d.kind == "psd" else d.A @ x
    return out


def apply_At_dense(ws, y):
    """`solver._Workspace.apply_At` with each diag block's dense coefficient rows."""
    out = {}
    for lab, d in ws.data.items():
        yb = y[d.rows]
        out[lab] = np.einsum("k,kij->ij", yb, d.A) if d.kind == "psd" else yb @ d.A
    return ws.stacked(out)


def gram_factor_dense(ws):
    """`solver._Workspace.gram_factor` with every block's Gram matrix a dense product."""
    G = np.zeros((ws.m, ws.m))
    for d in ws.data.values():
        if len(d.rows):
            Ab = d.A.reshape(len(d.rows), -1)
            G[np.ix_(d.rows, d.rows)] += Ab @ Ab.T
    return np.linalg.cholesky(G)


def diag_outer_per_column(d):
    """`solver._BlockData.outer` of a diag block, each column's nonzero rows found by scanning that column."""
    nz = [np.flatnonzero(d.A[:, j]) for j in range(d.dim)]
    r = np.concatenate([np.repeat(k, len(k)) for k in nz])
    s = np.concatenate([np.tile(k, len(k)) for k in nz])
    j = np.repeat(np.arange(d.dim), [len(k) ** 2 for k in nz])
    return d.rows[r], d.rows[s], j, d.A[r, j], d.A[s, j]
