"""Turn a numerical SDP solution into a defensible density bound.

The chain is: project the solution onto the equality constraints (least
squares, `project_affine`, with three steps of residual refinement in
float64), recompute feasibility margins in extended precision (float64 with
proved error bounds skips the rows and blocks that cannot change them),
verify the sign condition of the recovered function over the enlarged-body
region with certified Lipschitz bounds, and evaluate the final bound

    2 pi * f(0, I) / f_{0,0;0} * area(enlargement * K).

Certification follows the eigenvalue-versus-residual argument: when every
block's minimum eigenvalue exceeds the safety factor, the constant 1e3 of
`VerificationReport`, times the worst constraint residual, a nearby exactly
feasible solution exists, and the cylinder identity then covers rho >= 1
exactly; the region rho <= 1 outside the enlarged Minkowski difference is
covered by the adaptive box pass below.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np
from mpmath import mp
from mpmath.libmp import (
    fone, from_int, from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_mul_int, mpf_neg,
    mpf_pow_int, mpf_sqrt, mpf_sub, round_nearest,
)

from .fourier import CoefficientTensor, evaluate_f, lambda_of
from .geometry import minkowski_difference, pentagon
from .motion import ORIGIN, MotionPoint
from .sdp import LinearTerm, SdpProblem, SdpSolution, stack_rows
from .solver import cholesky_lower
from .specfun import tau_radial_expansion

log = logging.getLogger("pentapack.certify")


class RankDeficiencyError(ValueError):
    """The equality system is rank-deficient after pruning."""


# ---------------------------------------------------------------------------
# projection onto the equality constraints


def project_affine(sol: SdpSolution, p: SdpProblem) -> tuple[SdpSolution, dict]:
    """Least-squares projection of the blocks onto the equality subspace.

    Inequalities are untouched.  Returns the projected solution together
    with diagnostics: displacement norm and pre/post residuals.  Raises
    RankDeficiencyError when dependent rows survived assembly pruning, that
    is when the SVD of the stacked rows A (m x n) gives sigma_min < 1e-8
    sigma_max as computed, or K = fl(A A^T) has no float Cholesky factor.

    The SVD, most of this function's time, runs only when
    `_proved_positive_definite` cannot prove K - tau I positive definite,
    tau = (gamma_(n+1) + 4e-16) S + 4 m n 2^-1074 rounded up, S = 2 fl(tr K)
    >= ||A||_F^2 - 2 m n 2^-1074 (K's diagonal and its sum lose at most the
    factors 1 - gamma_n and 1 - gamma_m, and gradual underflow n 2^-1074 per
    entry).  K is A A^T + E with ||E||_2 <= gamma_n ||A||_F^2 + m n 2^-1074
    (Higham, Thm 3.5, any summation order); gamma_(n+1) in place of gamma_n
    covers the rounding of tau itself.  So a pass proves sigma_min(A)^2 >
    4e-16 ||A||_F^2, sigma_min > 2e-8 sigma_max, and an SVD with backward
    error p u ||A||_2 returns a ratio above (2e-8 - p u) / (1 + p u) >
    1.0001e-8 for any p u <= 0.99e-8, so its test passes and the refusal is
    raised exactly when the SVD test raises it.
    """
    from scipy.linalg import cho_solve  # imported on first use: scipy.linalg takes longer to load than pentapack
    A, b = stack_rows(p.blocks, p.eq_constraints)
    m = len(A)
    K = A @ A.T
    n, S = A.shape[1], 2.0 * float(np.trace(K))
    tau = math.nextafter((_gamma(n + 1, 2.0**-53) + 4e-16) * S + 4 * m * n * 2.0**-1074, math.inf)
    if not _proved_positive_definite(K, tau):
        svals = np.linalg.svd(A.T, compute_uv=False)  # the tall transpose: the same values, in about half the time
        if svals[-1] < 1e-8 * svals[0]:
            raise RankDeficiencyError(
                f"equality system nearly rank-deficient (sigma_min/sigma_max = {svals[-1]/svals[0]:.2e})"
            )
    x = np.concatenate([np.ravel(sol.blocks[blk.label]) for blk in p.blocks])
    pre = A @ x - b
    try:
        G = cholesky_lower(K)  # Fortran-ordered, which cho_solve takes without a copy
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            f"equality system ({m} x {n}) nearly rank-deficient: sigma_min/sigma_max passes the 1e-8 test, "
            "but the Gram matrix A A^T of its rows has no float64 Cholesky factor"
        ) from None
    x1 = x.copy()
    for _ in range(3):  # refinement squeezes the residual toward roundoff
        r = A @ x1 - b
        lam = cho_solve((G, True), r, check_finite=False)
        x1 = x1 - A.T @ lam
    post = A @ x1 - b
    blocks, at = dict(sol.blocks), 0
    for blk in p.blocks:
        shape = np.shape(sol.blocks[blk.label])
        v = x1[at: at + math.prod(shape)].reshape(shape)
        at += v.size
        blocks[blk.label] = 0.5 * (v + v.T) if v.ndim == 2 else v
    out = replace(sol, blocks=blocks, y=sol.y.copy())
    info = {
        "displacement": float(np.linalg.norm(x1 - x)),
        "pre_residual": float(np.abs(pre).max()),
        "post_residual": float(np.abs(post).max()),
        "rows": m,
    }
    return out, info


def _float_row(t: LinearTerm, blocks: dict) -> tuple[np.ndarray, np.ndarray, float]:
    """(weights, values, rhs) of a float row over its nonzero coefficients, in C order per block."""
    weights, values = [np.zeros(0)], [np.zeros(0)]
    for lab, c in t.coeffs.items():
        c = np.asarray(c)
        weights.append(c[c != 0.0])
        values.append(np.asarray(blocks[lab])[c != 0.0])
    return np.concatenate(weights), np.concatenate(values), t.rhs


def _equality_rows(sol: SdpSolution, p: SdpProblem) -> list:
    """(weights, values, rhs) of each equality row: the assembly's high-precision rows (mpf weights
    and rhs) when the problem carries them, else the float rows.  Refuses a row with no nonzero weight."""
    if p.meta.get("hp_rows"):
        rows = [(list(c.values()), [sol.blocks[lab][i, j] for lab, i, j in c], rhs, label)
                for c, rhs, label in p.meta["hp_rows"]]
    else:
        rows = [(*_float_row(t, sol.blocks), t.label) for t in p.eq_constraints]
    for k, (weights, *_, label) in enumerate(rows):
        if not any(w != 0 for w in weights):
            raise ValueError(f"equality row {k} ({label!r}) has no nonzero weight, so no distance to its hyperplane")
    return [row[:3] for row in rows]


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n = n u / (1 - n u); infinite once n u reaches 1."""
    return n * unit / (1.0 - n * unit) if n * unit < 1.0 else math.inf


def _dyadic(a) -> tuple[np.ndarray, int]:
    """(m, e) with a == m 2^e exactly, m an object array of Python ints; a finite floats."""
    frac, e = np.frexp(np.asarray(a, dtype=float))
    nonzero, e = frac != 0.0, e - 53
    lo = int(e.min(where=nonzero, initial=0))
    m = (frac * 2.0**53).astype(np.int64).astype(object)
    return m << np.where(nonzero, e - lo, 0).astype(object), lo


def _residual(weights, values, rhs):
    """(sum w x - rhs) / sqrt(sum w^2), an mpf, for float values and mpf or float weights and rhs.

    Each number is m 2^e exactly (the `_mpf_` of an mpf, `_dyadic` of a
    float), so both sums are exact in Python integers; only the sqrt and the
    division round, to nearest at the working precision.  NaN if a number is
    not finite.
    """
    x = np.array([*values, -1.0], dtype=float)  # the rhs is the weight of the value -1
    if not np.isfinite(x).all():
        return mp.nan
    if isinstance(rhs, mp.mpf):
        sign, man, exp, _ = (np.array(v, dtype=object) for v in zip(*(w._mpf_ for w in (*weights, rhs))))
        if not ((man != 0) | (exp == 0)).all():  # inf and nan have man 0 and exp != 0
            return mp.nan
        wm, we = np.where(sign.astype(bool), -man, man) << (exp - exp.min()), int(exp.min())
    else:
        w = np.array([*weights, rhs], dtype=float)
        if not np.isfinite(w).all():
            return mp.nan
        wm, we = _dyadic(w)
    (xm, xe), prec, rnd = _dyadic(x), mp.prec, round_nearest
    norm = mpf_sqrt(from_man_exp(wm[:-1].dot(wm[:-1]), 2 * we), prec, rnd)
    return mp.make_mpf(mpf_div(from_man_exp(wm.dot(xm), we + xe), norm, prec, rnd))


def _nan_sticky(f, a, b):
    """f(a, b) for f min or max of mpfs, NaN if either is (both keep a when b is NaN)."""
    return b if mp.isnan(b) else f(a, b)


def _ineqs_proved_satisfied(terms: list[LinearTerm], blocks: dict) -> list[bool]:
    """For each row, True only if its exact residual, sum <c, x> - rhs, is negative.

    In float64, acc = sum <c, x> - rhs is within gamma_n(2^-53) S of the
    exact residual for any summation order (Higham, ch. 3), S = sum
    <|c|, |x|> + |rhs| and n = 1 + sum (size + 1) over the row's blocks, so
    the rows touching a block take their products with it as one
    matrix-vector product.  Doubling the radius covers the rounding of S,
    the radius and the sum, so acc + radius < 0 as computed proves it.
    """
    rhs = np.array([t.rhs for t in terms], dtype=float)
    acc, S, n = -rhs, np.abs(rhs), np.ones(len(terms), dtype=int)
    rows: dict[str, list[int]] = {}  # the rows touching each block
    for i, t in enumerate(terms):
        for lab in t.coeffs:
            rows.setdefault(lab, []).append(i)
    for lab, idx in rows.items():
        x = np.ravel(blocks[lab])
        c = np.array([terms[i].coeffs[lab] for i in idx], dtype=float).reshape(len(idx), -1)
        acc[idx] += c @ x
        S[idx] += np.abs(c) @ np.abs(x)
        n[idx] += c.shape[1] + 1
    radius = 2.0 * np.array([_gamma(k, 2.0**-53) for k in n.tolist()]) * S
    return (acc + radius < 0.0).tolist()


def _proved_positive_definite(b: np.ndarray, tau: float = 0.0) -> bool:
    """True only if b - tau I is positive definite, b a symmetric float matrix.

    Rump's isspd (Rump, "Verification of positive definiteness", BIT 46,
    2006).  If float Cholesky of a symmetric A of order n runs to completion
    with factor R, then R^T R = A + dA, |dA| <= gamma_(n+1) |R^T| |R|
    (Demmel; Higham, Thm 10.3, inner products in any order).  By
    Cauchy-Schwarz and |r_i|^2 <= a_ii / (1 - gamma_(n+1)), ||dA||_2 <=
    alpha tr(A), alpha = gamma_(n+1) / (1 - gamma_(n+1)); gradual underflow
    adds at most (n + 2 + tr) 2^-1074 per entry, n times that in norm.  A is
    b with diagonal b_ii - tau - c, rounded down by `np.nextafter`, c twice
    alpha tr(b - tau I) + 4 n (2 n + 4 + tr) 2^-1074 (the 2 covers c's own
    rounding).  Off the diagonal A = b, so b - tau I >= A + c I = R^T R +
    (c I - dA) >= R^T R, positive definite as diag(R) > 0.  A b_ii <= tau,
    a non-finite entry or an asymmetric b gives False.
    """
    n = len(b)
    if not (math.isfinite(tau) and np.isfinite(b).all() and np.array_equal(b, b.T)):
        return False
    d = np.nextafter(np.diag(b) - tau, -np.inf)  # <= b_ii - tau
    if not (d > 0.0).all():
        return False
    tr, g = d.sum(), _gamma(n + 1, 2.0**-53)
    c = 2.0 * (g / (1.0 - g) * tr + 4 * n * (2 * n + 4 + tr) * 2.0**-1074)
    a = np.array(b, dtype=float)
    np.fill_diagonal(a, np.nextafter(d - c, -np.inf))
    try:
        return bool(np.isfinite(np.linalg.cholesky(a)).all())
    except np.linalg.LinAlgError:
        return False


def _min_eig_enclosure(b: np.ndarray, precision_bits: int):
    """mpfs lo <= hi around min(mp.eigsy(b)) with float(lo) == float(hi), or None.

    Exact in rationals (floats are dyadic), with w, Q = eigh(b), u = Q[:, 0]:
    C = fl(b + t u u^T), t = 2 ||b||_F, is symmetric, and if C - tau I is
    proved positive definite, tau >= mu + ||C - (b + t u u^T)||_F, mu = (w_0
    + w_1) / 2, then lambda_2(b) >= lambda_1(b + t u u^T) > mu (interlacing).
    From v = u, refined by v += -sum_(i>=1) q_i q_i^T r / (w_i - rho) in
    float, r = b v - rho v, Temple's bound (Parlett, ch. 10) puts lambda_1
    in [rho - eps^2 / (mu - rho), rho], rho = v^T b v / v^T v < mu, eps^2 =
    ||r||^2 / v^T v.  Widened by eigsy's assumed accuracy 2^-(bits-20)
    ||b||_F and rounded outward, it decides when both ends round to one
    float.  None for a 1x1, non-finite or asymmetric b, a failed gap proof,
    rho >= mu, or no decision after three Rayleigh quotients.
    """
    from fractions import Fraction
    norm = float(np.linalg.norm(b)) if len(b) > 1 else math.inf
    if not (norm < 2.0**500 and np.array_equal(b, b.T)):  # refuses non-finite b; keeps C, ||D||^2 finite
        return None
    w, Q = np.linalg.eigh(b)
    mu, u, t = Fraction(0.5 * (w[0] + w[1])), Q[:, 0], 2.0 * norm
    c = b + t * np.outer(u, u)
    (cm, ce), (bm, be), (um, ue), ((tm,), te) = (_dyadic(a) for a in (c, b, u, [t]))
    e = min(ce, be, te + 2 * ue)
    d = (cm << ce - e) - (bm << be - e) - ((tm * np.outer(um, um)) << te + 2 * ue - e)  # D = C - (b + t u u^T)
    d2 = math.nextafter(float(Fraction(int(np.sum(d * d))) * Fraction(2) ** (2 * e)), math.inf)  # >= ||D||_F^2
    tau = float(mu) + math.nextafter(math.sqrt(d2), math.inf)
    if not _proved_positive_definite(c, math.nextafter(tau, math.inf)):
        return None
    delta, vm, ve = mp.ldexp(norm, 20 - precision_bits), um, ue
    for _ in range(3):
        bv = bm.dot(vm)  # b v = bv 2^(be + ve)
        num, den = int(vm.dot(bv)), int(vm.dot(vm))
        r = den * bv - num * vm  # b v - rho v = r 2^(be + ve) / den
        rho = Fraction(num, den) * Fraction(2) ** be
        gaps = w[1:] - float(rho)
        if not (rho < mu and (gaps > 0.0).all()):
            return None
        lo = rho - Fraction(int(r.dot(r)), den**3) * Fraction(2) ** (2 * be) / (mu - rho)  # rho - eps^2 / (mu - rho)
        lo = mp.fsub(mp.fdiv(lo.numerator, lo.denominator, rounding="d"), delta, rounding="d")
        hi = mp.fadd(mp.fdiv(rho.numerator, rho.denominator, rounding="u"), delta, rounding="u")
        if float(lo) == float(hi):
            return lo, hi
        scale = Fraction(2) ** (be + ve) / den
        dm, de = _dyadic(-Q[:, 1:] @ ((Q[:, 1:].T @ np.array([float(ri * scale) for ri in r])) / gaps))
        vm, ve = (vm << ve - min(ve, de)) + (dm << de - min(ve, de)), min(ve, de)
    return None


def feasibility_margin(
    sol: SdpSolution, p: SdpProblem, precision_bits: int = 128
) -> tuple[float, float]:
    """Minimum block eigenvalue and worst constraint residual, recomputed.

    Residuals are summed exactly (`_residual`) against the assembly's
    high-precision rows when the problem carries them, else against the
    float rows, each normalized by its coefficient norm so the value is the
    distance to the constraint hyperplane, which is the scale the
    perturbation argument compares against the eigenvalues; only that sqrt
    and division round, at `precision_bits`.  Inequality rows count only
    their violation, and one proved not violated in float64
    (`_ineqs_proved_satisfied`) is skipped.  An equality row with no nonzero
    weight raises ValueError.  The eigenvalues are `mp.eigsy`'s.

    Float64 only skips eigenvalue work that provably cannot change the
    minimum, which is kept as an enclosure [lo, hi] of what eigsy on every
    block would give.
    Blocks go in order of their float `eigvalsh` minimum, a heuristic only;
    a block B is skipped when B - tau I is proved positive definite
    (`_proved_positive_definite`), tau = hi + 2^-(bits-20) ||B||_F rounded
    up, else enclosed by `_min_eig_enclosure`, else sent to `mp.eigsy`.  Each
    enclosure rounds to one float, so float(hi) is eigsy's.  That rests on
    one assumption: `mp.eigsy` at `precision_bits` is accurate to
    2^-(bits-20) ||B||_F (the norm computed in float).  A non-finite block
    entry makes the eigenvalue margin NaN, and a non-finite number in a row
    its residual, so no report certifies.
    """
    started = time.perf_counter()
    with mp.workprec(precision_bits):
        eq_rows = _equality_rows(sol, p)
        settled = _ineqs_proved_satisfied(p.ineq_constraints, sol.blocks)
        ineq_rows = [_float_row(t, sol.blocks) for t, done in zip(p.ineq_constraints, settled) if not done]
        worst = mp.mpf(0)
        for row in eq_rows:
            worst = _nan_sticky(max, worst, abs(_residual(*row)))
        for row in ineq_rows:
            if len(row[0]):  # a row with no nonzero weight has no hyperplane
                worst = _nan_sticky(max, worst, _residual(*row))
        lo_eig, hi_eig, dense = mp.inf, mp.inf, []
        for b in p.blocks:
            x = np.asarray(sol.blocks[b.label])
            if b.kind == "diag" or x.ndim == 1:
                low = mp.mpf(float(x.min()) if np.isfinite(x).all() else math.nan)
                lo_eig, hi_eig = (_nan_sticky(min, m, low) for m in (lo_eig, hi_eig))
            else:
                dense.append(x)
        dense.sort(key=lambda x: np.linalg.eigvalsh(x)[0] if np.isfinite(x).all() else -math.inf)
        proved = enclosed = eigsy_calls = 0
        for x in dense:
            shift = mp.fadd(hi_eig, mp.ldexp(np.linalg.norm(x), 20 - precision_bits), rounding="u")
            if _proved_positive_definite(x, math.nextafter(float(shift), math.inf)):
                proved += 1
                continue
            box = _min_eig_enclosure(x, precision_bits)
            enclosed += box is not None
            if box is None and not np.isfinite(x).all():
                box = (mp.nan, mp.nan)  # eigsy does not converge on a NaN
            elif box is None:
                box = (min(mp.eigsy(mp.matrix(x.tolist()), eigvals_only=True)),) * 2
                eigsy_calls += 1
            lo_eig, hi_eig = _nan_sticky(min, lo_eig, box[0]), _nan_sticky(min, hi_eig, box[1])
        log.info("margins: %d inequality rows decided in float, %d summed exactly, %d equality rows summed exactly, "
                 "%d blocks proved above the minimum, %d decided by enclosure, %d eigsy calls, minimum eigenvalue "
                 "in [%s, %s], %.2f s", len(p.ineq_constraints) - len(ineq_rows), len(ineq_rows), len(eq_rows),
                 proved, enclosed, eigsy_calls, mp.nstr(lo_eig, 25), mp.nstr(hi_eig, 25), time.perf_counter() - started)
        return float(hi_eig), float(worst)


# ---------------------------------------------------------------------------
# certified Lipschitz bounds


def _bernstein_max(coeffs: list, a, b) -> object:
    """Certified bound on max |p(u)| over [a, b] via Bernstein coefficients.

    Each power of a and of w = b - a is computed once, and the sums run on
    libmp calls that equal the mpf operators (see `MpEvaluator`).
    """
    n = len(coeffs) - 1
    if n < 0:
        return mp.mpf(0)
    prec, rnd = mp.prec, round_nearest
    # shift to [0, 1]: p(a + (b - a) tau) = sum ct_k tau^k
    w = b - a
    apow, wpow = ([mpf_pow_int(v._mpf_, e, prec, rnd) for e in range(n + 1)] for v in (a, w))
    ct = [fzero] * (n + 1)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        # (a + w tau)^j expanded
        for k in range(j + 1):
            term = mpf_mul(mpf_mul_int(c._mpf_, math.comb(j, k), prec, rnd), apow[j - k], prec, rnd)
            ct[k] = mpf_add(ct[k], mpf_mul(term, wpow[k], prec, rnd), prec, rnd)
    best = fzero
    for i in range(n + 1):
        beta = fzero
        for k in range(i + 1):
            term = mpf_div(mpf_mul_int(ct[k], math.comb(i, k), prec, rnd), from_int(math.comb(n, k)), prec, rnd)
            beta = mpf_add(beta, term, prec, rnd)
        beta = mpf_abs(beta, prec, rnd)
        best = beta if mpf_gt(beta, best) else best
    return mp.make_mpf(best)


class _Panels(NamedTuple):
    """The 24 panels [a, a + step] of [0, u_max] that `_weighted_sup` bounds on.

    starts and step are mp numbers at the working precision; a and w hold
    each start and (a + step) - a rounded to float, for `_panel_bounds`.
    """

    starts: list
    step: object
    a: np.ndarray
    w: np.ndarray


def _panels(u_max) -> _Panels:
    step = mp.mpf(u_max) / 24
    starts = [i * step for i in range(24)]
    a, w = (np.array([float(x) for x in xs]) for xs in (starts, [x + step - x for x in starts]))
    return _Panels(starts, step, a, w)


def _panel_bounds(coeffs: list, panels: _Panels):
    """Floats lo <= V <= hi for each panel value V of `_weighted_sup`, or None.

    V = `_bernstein_max` on [a, a + w] times mp's e^(-pi a), a in
    `panels.starts`, w = (a + step) - a, at the working precision p.  With
    K coefficients, n = K - 1, numpy forms for all panels the Bernstein coefficients
    b = B T c, T_kj = C(j,k) a^(j-k) w^k (powers by cumulative products),
    B_ik = C(i,k)/C(n,k), from mp's a, w, c rounded to float, and S by the
    same contraction on |c|.  A term of b passes at most 2j + 2K + 7 <= m =
    4K + 5 roundings (c, a and w per use, the powers, C, two products, the
    sum over j, B, one product, the sum over k), so the float b^ is within
    gamma_m S of b, its exact value at mp's inputs (Higham, ch. 3, any
    summation order).  mp rounds each term at most 2K + 9 times (an integer
    power counts twice: mpmath rounds it once, after exact products or
    truncation at p + 4 bitcount + 4 bits), so at p >= 128 its b is within
    2^-100 S of b, and its e^(-pi a) within 2^-100 relative.  Gradual
    underflow adds at most 2^-1075 to a float product or conversion, times
    the other factors of the term (at most G = 2^n max(1, a, w)^n max(1,
    |c|)), over at most 2K + 4 of them; A = K^2 (2K + 4) G 2^-1071 covers
    that in b^ and S four times over.  With R = max(FLOAT_ERROR_RADIUS,
    10 gamma_m), rad = R S + A is at least twice the error of |b^| against
    mp's |b|.  While exp(-pi a) is normal its argument is at most 709, off
    by gamma_3 709; with 4 ulps for exp it errs below 0.29 * 2^-40 <= 0.29
    R, so damp (1 -/+ R) encloses mp's factor.  The margins cover the
    remaining roundings, so hi = max_i(|b^_i| + rad) damp (1 + R) and lo =
    max_i(max(|b^_i| - rad, 0)) damp (1 - R) enclose V.  None when p < 128,
    when an hi or lo is not finite (overflow, NaN, infinite R), or when an
    hi or damp factor is below 2^-1022, where rounding is no longer
    relative.
    """
    K = len(coeffs)
    if not K or mp.prec < 128:
        return None
    comb = np.array([[math.comb(j, k) for j in range(K)] for k in range(K)], dtype=float)
    a, w = panels.a, panels.w
    c = np.array([float(x) for x in coeffs])
    j = np.arange(K)
    apow = np.cumprod(np.where(j > 0, a[:, None], 1.0), axis=1)  # a^j
    wpow = np.cumprod(np.where(j > 0, w[:, None], 1.0), axis=1)
    T = comb * apow[:, np.maximum(j - j[:, None], 0)] * wpow[:, :, None]  # T[panel, k, j]
    B = comb.T / comb[:, -1]  # B[i, k] = C(i, k) / C(n, k)
    R = max(FLOAT_ERROR_RADIUS, 10 * _gamma(4 * K + 5, 2.0**-53))
    with np.errstate(all="ignore"):
        b, S = np.abs((T @ c) @ B.T), (T @ np.abs(c)) @ B.T
        G = np.float64(2.0) ** (K - 1) * max(1.0, a.max(), w.max()) ** (K - 1) * max(1.0, np.abs(c).max())
        rad = np.multiply(R, S, out=np.zeros_like(S), where=S > 0) + np.ldexp(K * K * (2 * K + 4) * G, -1071)
        damp = np.exp(-np.pi * a)
        hi = (b + rad).max(axis=1) * (damp * (1 + R))
        lo = np.maximum(b - rad, 0.0).max(axis=1) * (damp * (1 - R))
    if np.isfinite(hi).all() and np.isfinite(lo).all() and min(hi.min(), damp.min()) >= np.finfo(float).tiny:
        return lo, hi
    return None


# Panels `_weighted_sup` has screened and sent to mp; verify logs its own share.
_panel_counts = {"all": 0, "mp": 0}


def _weighted_sup(coeffs: list, u_max, panels: _Panels | None = None) -> object:
    """Certified sup over [0, u_max] of |p(u)| e^(-pi u), by Bernstein on 24 panels.

    The largest panel value, `_bernstein_max` times e^(-pi a) on [a, a +
    step] in mp, taken only over the panels whose float bound hi reaches the
    largest lo of `_panel_bounds`: a panel left out has value <= hi < max lo
    <= the maximum, so the result is the same mp number as over all panels.
    Without float bounds (non-finite, underflow) every panel goes to mp.
    `panels` is `_panels(u_max)`, built here unless the caller shares one.
    """
    panels = _panels(u_max) if panels is None else panels
    bounds = _panel_bounds(coeffs, panels)
    keep = range(24) if bounds is None else np.flatnonzero(bounds[1] >= bounds[0].max()).tolist()
    _panel_counts["all"] += 24
    _panel_counts["mp"] += len(keep)
    total = mp.mpf(0)
    for i in keep:
        a = panels.starts[i]
        total = max(total, _bernstein_max(coeffs, a, a + panels.step) * mp.e ** (-mp.pi * a))
    return total


def _compiled_pairs(t: CoefficientTensor):
    """Per negation-orbit radial polynomials in u = rho^2 (weights folded in).

    Returns (r, s, coefficients of P_{r,s}) at the working precision, so that
    f = sum cos(s alpha + (r-s) theta) P_{r,s}(rho^2) e^(-pi rho^2).  Pairs
    with one |r - s| share one `tau_radial_expansion`.
    """
    seen = set()
    for r, s, k, _ in t.free_items():
        if (r, s) in seen or (-r, -s) in seen:
            continue
        seen.add((r, s))
    d = t.params.d
    out, expansions = [], {}
    for (r, s) in sorted(seen):
        weight = 1 if (r, s) == (-r, -s) else 2
        c = [mp.mpf(t.get(r, s, k)) * weight for k in range(d + 1)]
        m = abs(r - s)
        if m not in expansions:
            expansions[m] = tau_radial_expansion(m, d + 1)
        out.append((r, s, expansions[m](c)))
    return out


def _lipschitz_pair(
    t: CoefficientTensor, rho_max: float, precision_bits: int, ev: MpEvaluator | None = None
) -> tuple[float, float]:
    """Certified bounds (L_x, L_alpha) on the gradient components of f.

    Works on the compiled per-pair radial polynomials P(u), u = rho^2, with
    f = sum_pairs cos(s alpha + (r-s) theta) P(u) e^(-pi u).  The radial
    derivative is 2 rho (P' - pi P)(u) e^(-pi u) and the angular-in-theta
    part contributes |r-s| P(u)/rho; since P carries the factor u^(|r-s|/2),
    both are polynomials (times a bounded sqrt(u)), and each factor is
    bounded by panelled Bernstein enclosures over [0, rho_max^2]; float64
    bounds send only the panels that can hold each maximum to mp
    (`_weighted_sup`), all on one grid of panels.  A pair with s = 0 adds
    0 times a finite sup to L_alpha, exactly 0, so that sup is not taken.
    The pairs are those of `ev` when it works at this function's precision,
    max(precision_bits, 128), else compiled here.
    """
    bits = max(precision_bits, 128)
    if ev is None or ev.prec != bits:
        ev = MpEvaluator(t, bits)
    with mp.workprec(bits):
        U = mp.mpf(rho_max) ** 2
        sqrtU = mp.sqrt(U)
        panels = _panels(U)
        Lx = mp.mpf(0)
        La = mp.mpf(0)
        for s, md, ucoeffs in ev.pairs:
            m = abs(md)
            # d/drho: 2 sqrt(u) (P' - pi P)
            dcoef = [
                (i + 1) * ucoeffs[i + 1] if i + 1 < len(ucoeffs) else mp.mpf(0)
                for i in range(len(ucoeffs))
            ]
            q = [dcoef[i] - mp.pi * ucoeffs[i] for i in range(len(ucoeffs))]
            sup_radial = 2 * sqrtU * _weighted_sup(q, U, panels)
            sup_angular = mp.mpf(0)
            if m > 0:
                # |r-s| P(u) / rho = |r-s| sqrt(u) * (P(u)/u); P divisible by u
                shifted = ucoeffs[1:]
                sup_angular = m * sqrtU * _weighted_sup(shifted, U, panels)
            Lx += sup_radial + sup_angular
            if s:
                La += abs(s) * _weighted_sup(ucoeffs, U, panels)
        return float(Lx * (1 + mp.mpf(1e-12))), float(La * (1 + mp.mpf(1e-12)))


# ---------------------------------------------------------------------------
# evaluation of f: high precision, and float64 with an error radius


class MpEvaluator:
    """Evaluates f at a fixed precision with precompiled radial polynomials.

    f = sum over canonical pairs of  weight * cos(s alpha + (r-s) theta)
        * rho^|r-s| * P_{r,s}(rho^2) * e^(-pi rho^2),
    where P collects the Laguerre and D-coefficient data.  Trigonometry in
    theta is generated from (x / rho, y / rho) by angle-addition, so a point
    evaluation costs a handful of multiplications per pair.

    `eval`, like `_bernstein_max`, works on the `_mpf_` tuples with
    mpmath.libmp's mpf_* functions and makes the calls the mpf operators
    make on the same operands: the working precision, round-to-nearest,
    mpf_mul_int for an int factor and mpf_div of from_int(n) for a division
    by an int n.  So each result is the mp number of the operator form,
    which the tests keep as the reference; only the object layer goes,
    which costs about as much as the arithmetic on mpmath's python backend.
    """

    def __init__(self, t: CoefficientTensor, precision_bits: int):
        self.prec = precision_bits
        with mp.workprec(precision_bits):
            # (s, r - s, radial coefficients in u = rho^2)
            self.pairs = [(s, r - s, ucoeffs) for r, s, ucoeffs in _compiled_pairs(t)]
        self.maxn = max((abs(md) for _, md, _ in self.pairs), default=0)

    def eval(self, x, y, cos_table, sin_table):
        """f at (x, y) given per-alpha tables cos(s alpha), sin(s alpha)."""
        p, rnd = self.prec, round_nearest
        with mp.workprec(p):
            x, y = mp.mpf(x)._mpf_, mp.mpf(y)._mpf_
            u = mpf_add(mpf_mul(x, x, p, rnd), mpf_mul(y, y, p, rnd), p, rnd)
            rho = mpf_sqrt(u, p, rnd)
            c1, s1 = (mpf_div(x, rho, p, rnd), mpf_div(y, rho, p, rnd)) if mpf_gt(rho, fzero) else (fone, fzero)
            # cos/sin of n*theta for the angular differences we need
            trig = [(fone, fzero)]
            for _ in range(self.maxn):
                cn, sn = trig[-1]
                trig.append((mpf_sub(mpf_mul(cn, c1, p, rnd), mpf_mul(sn, s1, p, rnd), p, rnd),
                             mpf_add(mpf_mul(sn, c1, p, rnd), mpf_mul(cn, s1, p, rnd), p, rnd)))
            total = fzero
            for s, md, ucoeffs in self.pairs:
                poly = fzero
                for c in reversed(ucoeffs):
                    poly = mpf_add(mpf_mul(poly, u, p, rnd), c._mpf_, p, rnd)
                if poly == fzero:
                    continue
                ct, st = trig[abs(md)]
                if md < 0:
                    st = mpf_neg(st, p, rnd)
                ca, sa = cos_table[s]._mpf_, sin_table[s]._mpf_
                # cos(s alpha + md theta)
                phase = mpf_sub(mpf_mul(ca, ct, p, rnd), mpf_mul(sa, st, p, rnd), p, rnd)
                total = mpf_add(total, mpf_mul(poly, phase, p, rnd), p, rnd)
            return mp.make_mpf(total) * mp.e ** (-mp.pi * mp.make_mpf(u))

    def alpha_tables(self, alpha: float):
        """cos(s alpha) and sin(s alpha) by s, from one `mp.cos_sin` per |s|.

        The entry of -s is (cos, -sin) of the entry of s, the numbers
        cos_sin(-s alpha) gives ((-s) alpha = -(s alpha) exactly).
        """
        with mp.workprec(self.prec):
            a = mp.mpf(alpha)
            trig = {k: mp.cos_sin(k * a) for k in {abs(s) for s, _, _ in self.pairs}}
            cos_table = {s: trig[abs(s)][0] for s, _, _ in self.pairs}
            sin_table = {s: trig[abs(s)][1] if s >= 0 else -trig[abs(s)][1] for s, _, _ in self.pairs}
            return cos_table, sin_table


class _Radial(NamedTuple):
    """Per point: cos and sin of |r-s| theta and the signed Horner sum of each pair,
    e^(-pi u) and the radius E (`FloatEvaluator.radial`)."""

    cos_m: np.ndarray
    sin_m: np.ndarray
    poly: np.ndarray
    g: np.ndarray
    E: np.ndarray

    def take(self, idx) -> _Radial:
        """The rows of the points idx; each value keeps its bits."""
        return _Radial(*(a[idx] for a in self))


# Error radius of FloatEvaluator, relative to S (see its docstring).
FLOAT_ERROR_RADIUS = 2.0**-40


class FloatEvaluator:
    """f in float64 over arrays of points, with an a-priori error radius.

    Evaluates the expansion of an `MpEvaluator` with its coefficients and
    per-alpha tables rounded to float, by the same operations: u = x^2 + y^2,
    (cos theta, sin theta) = (x, y)/sqrt(u), cos/sin(n theta) by the
    angle-addition recurrence (complex products z_n = z_(n-1) z_1), Horner in
    u, phase = cos(s alpha) cos(m theta) - sin(s alpha) sin(m theta), the sum
    over pairs, and the factor exp(-pi u).  `radial` computes the alpha-free
    part (u, the z_n, the Horner sums, exp(-pi u) and a radius E) and
    `pair_sum` the phases and the sum over pairs, v; |v - f_mp| <= E, where
    f_mp is `MpEvaluator.eval` at the same point.  Every operation acts on
    one point at a time, so rows taken from a `radial` of many points give
    each point the same v and E bits as a `radial` of it alone, and the
    bound below holds for each of them.  `ev` works at 53 bits or more
    (`verify_nonpositivity` refuses fewer), so mp does not round the point.

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
    v + E] as computed encloses f_mp.  Measured on the paper-default tensor
    at 4,000 random points, the error stays below 1.4 * 2^-52 S.
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
        self.rel = max(FLOAT_ERROR_RADIUS, 10 * _gamma(n, 2.0**-53)) + _gamma(n, 2.0**-ev.prec)

    def tables(self, cos_table, sin_table):
        """Per-pair rows cos(s alpha), sign(r-s) sin(s alpha) from `MpEvaluator.alpha_tables`."""
        return (np.array([float(cos_table[s]) for s in self.s]),
                np.array([float(sin_table[s]) for s in self.s]) * self.sign)

    def radial(self, x, y) -> _Radial:
        """The alpha-free part of f at the points (x, y), E included."""
        u = x * x + y * y
        rho = np.sqrt(u)
        nz = rho > 0
        z = np.ones(u.shape + (self.M + 1,), complex)
        z[..., 1:] = (np.divide(x, rho, out=np.ones_like(u), where=nz)
                      + 1j * np.divide(y, rho, out=np.zeros_like(u), where=nz))[..., None]
        z = np.cumprod(z, axis=-1)[..., self.m]  # z_n = z_(n-1) z_1 ~ e^(i n theta)
        uu = u[..., None]
        acc = np.zeros(u.shape + (2 * self.n_pairs,))
        for c in self.horner:
            acc *= uu
            acc += c
        g = np.exp(-np.pi * u)
        S = acc[..., self.n_pairs:].sum(axis=-1) * g
        E = np.multiply(self.rel, S, out=np.zeros_like(S), where=S > 0)
        return _Radial(z.real, z.imag, acc[..., : self.n_pairs], g, E)

    def pair_sum(self, part: _Radial, cos_s, sin_s):
        """v from a `radial` part (or rows taken from one); cos_s, sin_s: one row of `tables`, or one per point."""
        phase = cos_s * part.cos_m - sin_s * part.sin_m
        return (part.poly * phase).sum(axis=-1) * part.g


def tensor_hash(t: CoefficientTensor) -> str:
    return hashlib.sha256(t.dumps().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# sign verification over the enlarged-body region


@dataclass
class VerifySpec:
    """Geometry of the verification sweep: alpha_count x grid_n^2 cells, refined max_depth times."""

    alpha_count: int
    grid_n: int
    max_depth: int

    def __post_init__(self):
        # an empty sweep would certify vacuously
        for name, least in (("alpha_count", 1), ("grid_n", 1), ("max_depth", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"VerifySpec {name} must be >= {least}, got {getattr(self, name)}")


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
    precision_bits: int
    enlargement: float
    failures: list = field(default_factory=list)
    notes: str = ""

    def __post_init__(self):
        # JSON hands back lists; the verifier produces tuples
        self.witness = tuple(self.witness)
        self.failures = [tuple(f) for f in self.failures]


class _Boxes(NamedTuple):
    """Boxes [xlo, xhi] x [ylo, yhi] with centres (cx, cy); disk: meets the unit disk,
    centre_disk: the centre lies in it; radial: `FloatEvaluator.radial` at the centres (`_boxes`)."""

    xlo: np.ndarray
    xhi: np.ndarray
    ylo: np.ndarray
    yhi: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    disk: np.ndarray
    centre_disk: np.ndarray
    radial: _Radial
    grid_n: int = 0  # n for the stream's n x n grid (`_grid_screen`), 0 for the positions of a refinement level


def _boxes(xlo, ylo, h, fe: FloatEvaluator) -> _Boxes:
    """The alpha-free part of the screen and of f for the boxes [xlo, xlo+2h] x [ylo, ylo+2h]."""
    xhi = xlo + 2 * h
    yhi = ylo + 2 * h
    nx = np.where((xlo > 0) | (xhi < 0), np.minimum(np.abs(xlo), np.abs(xhi)), 0.0)
    ny = np.where((ylo > 0) | (yhi < 0), np.minimum(np.abs(ylo), np.abs(yhi)), 0.0)
    cx = xlo + h
    cy = ylo + h
    return _Boxes(xlo, xhi, ylo, yhi, cx, cy, ~(nx * nx + ny * ny > 1.0), cx * cx + cy * cy <= 1.0, fe.radial(cx, cy))


def _geometry(alpha: float, enlargement: float) -> np.ndarray:
    """The normal components and offsets (n.x <= c inside) of the edges of the enlarged Minkowski difference
    at alpha, shape (3, 10, 1), padded with 0.x <= inf: K - A(alpha)K has at most 5 + 5 edges."""
    edges = minkowski_difference(alpha, enlargement).edges()
    edges += [((0.0, 0.0), math.inf)] * (10 - len(edges))
    return np.array([[[n[0]] for n, _ in edges], [[n[1]] for n, _ in edges], [[c] for _, c in edges]])


def _screen(boxes: _Boxes, pos, geo, margin):
    """Erosion and region tests of the boxes at the positions pos of `boxes`, one per slot.

    `geo` stacks the normal components and offsets (n.x <= c inside) of the
    Minkowski difference, shape (3, edges, 1) for one alpha or (3, edges,
    slots) for one alpha per slot.  Returns (keep, region): keep marks
    slots whose box meets the unit disk and is not inside the difference
    for every alpha within `margin`; region marks slots whose box centre is
    in the region.  Per edge the erosion test takes the corner maximizing
    n.p; rounding is monotone, so that corner's rounded value is the
    largest of the four and the test equals the one over all corners.
    """
    n0, n1, off = geo
    px = np.where(n0 >= 0, boxes.xhi[pos], boxes.xlo[pos])
    py = np.where(n1 >= 0, boxes.yhi[pos], boxes.ylo[pos])
    inside = (n0 * px + n1 * py <= off - margin - 1e-12).all(axis=0)
    centre_inside = (n0 * boxes.cx[pos] + n1 * boxes.cy[pos] <= off - 1e-12).all(axis=0)
    return boxes.disk[pos] & ~inside, boxes.centre_disk[pos] & ~centre_inside


def _grid_screen(boxes: _Boxes, geo, margin):
    """`_screen` at every position of the grid `boxes`, in order, for one alpha (geo of shape (3, edges, 1)).

    The boxes are grid_n x grid_n, row-major (y outer, x inner), so n0 x
    and n1 y are formed once per column and once per row; each box adds the
    same two rounded products and compares the sum with the same threshold.
    """
    n = boxes.grid_n
    n0, n1, off = geo
    cols, rows = slice(None, n), slice(None, None, n)
    a = n0 * np.where(n0 >= 0, boxes.xhi[cols], boxes.xlo[cols])  # (edges, columns)
    b = n1 * np.where(n1 >= 0, boxes.yhi[rows], boxes.ylo[rows])  # (edges, rows)
    inside = (a[:, None, :] + b[:, :, None] <= (off - margin - 1e-12)[:, :, None]).all(axis=0)
    a, b = n0 * boxes.cx[cols], n1 * boxes.cy[rows]
    centre_inside = (a[:, None, :] + b[:, :, None] <= (off - 1e-12)[:, :, None]).all(axis=0)
    return boxes.disk & ~inside.ravel(), boxes.centre_disk & ~centre_inside.ravel()


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

    def add_many(self, lo, hi, make) -> None:
        """Arrays lo, hi; make(i) builds the item of entry i."""
        if lo.size:
            self.floor = max(self.floor, float(lo.max()))
            top = np.flatnonzero(hi >= self.floor)
            self.items.extend((h, make(i)) for i, h in zip(top.tolist(), hi[top].tolist()))
            self._prune()

    def _prune(self) -> None:
        if len(self.items) > self._limit:
            self.items = [(h, it) for h, it in self.items if h >= self.floor]
            self._limit = 2 * len(self.items) + 64

    def survivors(self) -> list:
        return [it for h, it in self.items if h >= self.floor]


class _Level(NamedTuple):
    """The boxes of one `batch`: a stream alpha slice, or a depth level of a refinement subtree.

    A refinement level has 8 child slots per box that split a level up.
    `kept` indexes the slots the screen keeps; the other arrays hold the kept
    boxes' alphas, centres, region flags, enclosures of fc and of the bound,
    actions (0 discharged, 1 failure, 2 split) and whether mp decided them.
    a + b is the boxes' Lipschitz radius.
    """

    slots: int
    a: float
    b: float
    kept: np.ndarray
    alpha: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    region: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    glo: np.ndarray
    ghi: np.ndarray
    action: np.ndarray
    amb: np.ndarray

    def item(self, i: int) -> tuple:
        """(cx, cy, alpha, lo, hi, a, b) of kept box i, in Python floats."""
        return (*(float(v[i]) for v in (self.cx, self.cy, self.alpha, self.lo, self.hi)), self.a, self.b)


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
    The stream pass and the refinement decide their boxes through one
    `batch`, grid_n^2 boxes at a time: the stream pass one alpha slice per
    call, the refinement each depth level of a split level-0 box's subtree,
    taking those boxes last-in first-out.  The failure and evaluation
    budgets are checked before each such subtree, so a run that exhausts
    them stops after the subtree in which it does, and every box decided is
    counted.  Failures count in stream order, then subtree by subtree, each
    level by level in slot order.  A `batch` holds its boxes as slots into
    distinct positions and distinct alphas, known from how the level is
    built, so the alpha-free work runs once per position, in the `_boxes`
    of the level: the disk test, the centres and `FloatEvaluator.radial`
    (for the stream grid once, for all its slices).  The stream's erosion
    and region tests run per grid line (`_grid_screen`): a grid box's x
    bounds are its column's and its y bounds its row's, so n0 x is formed
    once per column and n1 y once per row, and each box adds the same two
    rounded products as the per-slot `_screen` and compares the same sum,
    so its masks are `_screen`'s; a refinement level's positions form no
    grid and take `_screen`.  Every value comes first from
    `FloatEvaluator` as v with a proved radius E, |v - f_mp| <= E: Higham's
    gamma_n bounds for u = x^2 + y^2, the angle-addition recurrence, Horner,
    the pair sum and exp give
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
    equal those of evaluating every box at `precision_bits`.  L_x and L_a
    come from `_lipschitz_pair`, whose panels are screened the same way
    (`_weighted_sup`).  The tensor is compiled once, for the `MpEvaluator`,
    whose pairs `_lipschitz_pair` reuses when precision_bits >= 128.  The
    evaluator and `_bernstein_max` make the libmp calls that the mpf
    operators make, at the working precision and round-to-nearest (see
    `MpEvaluator`), so each mp number is the one the operators give.

    `certified_sign` (no failure, no abort) implies cert_margin <= 0, so a
    report needs no further sign test.  With no failure and no abort, every
    box offered to `cert` was discharged with (hi + a) + b <= 0, and the
    reported (fc + a) + b is no larger, since lo <= fc <= hi and rounding
    is monotone.
    """
    if not 1.0 <= enlargement < math.inf:  # false for NaN too
        raise ValueError(f"enlargement must be finite and >= 1, got {enlargement}")
    if precision_bits < 53:  # at 0 bits mp.pi is 4.0
        raise ValueError(f"precision_bits must be >= 53, got {precision_bits}")
    started = time.perf_counter()
    rho_max = math.sqrt(2.0) + 0.01  # boxes live in [-1,1]^2
    ev = MpEvaluator(t, precision_bits)  # the one compile of t when precision_bits >= 128
    fe = FloatEvaluator(ev)
    panels_before, lip_started = dict(_panel_counts), time.perf_counter()
    L_x, L_a = _lipschitz_pair(t, rho_max, max(precision_bits, 128), ev)
    lipschitz_s = time.perf_counter() - lip_started
    lip_all, lip_mp = (_panel_counts[k] - panels_before[k] for k in ("all", "mp"))
    rate = 0.5 * enlargement + 1e-12  # Hausdorff speed of the difference in alpha
    max_depth = sample_spec.max_depth

    alpha_lo = -2.0 * math.pi / 10.0
    dalpha = (4.0 * math.pi / 10.0) / sample_spec.alpha_count
    dx0 = 2.0 / sample_spec.grid_n
    cap = sample_spec.grid_n**2  # boxes per screen and evaluation

    failures = []
    n_failures = 0
    stream_points = 0
    evaluations = 0
    decided_by_mp = 0  # evaluated boxes whose decision needed mp
    max_failures, max_evaluations = 200, 20_000_000  # the refinement budget
    by_depth = [0] * (max_depth + 1)  # evaluations per depth
    outcomes = np.zeros(4, np.int64)  # screened out, discharged, failed, split
    sign, cert = _Leaders(), _Leaders()  # items from _Level.item

    @functools.cache
    def alpha_data(amid):
        cos_t, sin_t = ev.alpha_tables(amid)
        return _geometry(amid, enlargement), cos_t, sin_t, fe.tables(cos_t, sin_t)

    @functools.cache
    def exact(cx, cy, amid):
        """fc by MpEvaluator, once per box."""
        _, cos_t, sin_t, _ = alpha_data(amid)
        return float(ev.eval(cx, cy, cos_t, sin_t))

    def value(cx, cy, amid, lo, hi, *_):
        """fc of a box item: hi when the enclosure is a single float, else by mp."""
        return hi if lo == hi else exact(cx, cy, amid)

    def batch(boxes: _Boxes, alphas, pos, aix, h, ha, depth) -> _Level:
        """Screen, evaluate and decide the slots (pos, aix) of one level at `depth`.

        Slot i is the box at position pos[i] of `boxes` times [alpha -/+ ha],
        alpha = alphas[aix[i]], for distinct positions and alphas.  Takes
        `cap` slots at a time.  Each alpha's geometry and table row come
        from `alpha_data`; with one alpha they broadcast over all slots (a
        copy per slot made the paper-default verifier 1.8x slower).  The
        kept slots take their positions' rows of `boxes.radial`.  Ambiguous
        decisions are resolved by mp, collapsing lo and hi to fc.
        """
        data = [alpha_data(a) for a in alphas.tolist()]
        one = len(data) == 1
        geo = np.concatenate([d[0] for d in data], axis=2)
        cos_u, sin_u = (np.array([d[3][k] for d in data]) for k in (0, 1))
        a, b = L_x * math.sqrt(2.0) * h, L_a * ha
        at_cap = depth >= max_depth
        runs = []
        for i in range(0, pos.size, cap):
            p, u = pos[i : i + cap], aix[i : i + cap]
            if boxes.grid_n:  # the stream's grid, whose one run is every position in order
                keep, region = _grid_screen(boxes, geo, rate * ha)
            else:
                keep, region = _screen(boxes, p, geo if one else geo[:, :, u], rate * ha)
            idx = np.flatnonzero(keep)
            p, u, region = p[idx], u[idx], region[idx]
            cx, cy, part = boxes.cx[p], boxes.cy[p], boxes.radial.take(p)
            w = 0 if one else u
            v, E = fe.pair_sum(part, cos_u[w], sin_u[w]), part.E
            lo, hi = v - E, v + E
            glo, ghi = lo + a + b, hi + a + b
            amb = (glo <= 0.0) & (ghi > 0.0)
            if not at_cap:
                amb |= (ghi > 0.0) & region & (lo <= 0.0) & (hi > 0.0)
            for j in np.flatnonzero(amb).tolist():
                lo[j] = hi[j] = exact(float(cx[j]), float(cy[j]), float(alphas[u[j]]))
            glo, ghi = lo + a + b, hi + a + b
            action = np.where(ghi <= 0.0, 0, np.where(at_cap | (region & (lo > 0.0)), 1, 2))
            runs.append((idx + i, alphas[u], cx, cy, region, lo, hi, glo, ghi, action, amb))
        return _Level(pos.size, a, b, *map(np.concatenate, zip(*runs)))

    def fail(item):
        nonlocal n_failures
        if n_failures < 16:
            fc = value(*item)
            failures.append((*item[:3], fc, fc + item[5] + item[6]))
        n_failures += 1

    def tally(lv: _Level, depth: int):
        """Count the kept boxes of `lv`, offer them to `cert` and pass their failures to `fail`."""
        nonlocal evaluations, decided_by_mp, outcomes
        evaluations += lv.kept.size
        by_depth[depth] += lv.kept.size
        decided_by_mp += int(lv.amb.sum())
        outcomes += [lv.slots - lv.kept.size, *np.bincount(lv.action, minlength=3)]
        con = np.flatnonzero(lv.action <= 1)
        cert.add_many(lv.glo[con], lv.ghi[con], lambda j: lv.item(con[j]))
        for i in np.flatnonzero(lv.action == 1).tolist():
            fail(lv.item(i))

    # Stream pass: every level-0 box is visited so the reported sign_margin
    # covers the full verification sample even when certification fails early.
    edges0 = -1.0 + np.arange(sample_spec.grid_n) * dx0
    xlo0 = np.tile(edges0, sample_spec.grid_n)  # row-major: iy outer, ix inner
    ylo0 = np.repeat(edges0, sample_spec.grid_n)
    h0, ha0 = 0.5 * dx0, 0.5 * dalpha
    boxes0 = _boxes(xlo0, ylo0, h0, fe)._replace(grid_n=sample_spec.grid_n)  # alpha-free, for every slice
    pos0, aix0 = np.arange(cap), np.zeros(cap, np.intp)
    split0: list = []  # per alpha slice, (alpha, xlo, ylo) of its level-0 boxes to refine
    for ia in range(sample_spec.alpha_count):
        amid = alpha_lo + (ia + 0.5) * dalpha
        lv = batch(boxes0, np.array([amid]), pos0, aix0, h0, ha0, 0)
        stream_points += int(lv.region.sum())
        reg = np.flatnonzero(lv.region)
        sign.add_many(lv.lo[reg], lv.hi[reg], lambda j: lv.item(reg[j]))
        tally(lv, 0)
        split = lv.kept[lv.action == 2]
        split0.append((amid, xlo0[split], ylo0[split]))

    radial_positions = 0  # positions of the refinement levels, each given the alpha-free part once

    def decide(box):
        """Decide and tally the whole subtree below a split level-0 box (xlo, ylo, alpha), a level at a time.

        Level k holds the 8 children of each box that split at level k - 1,
        per parent in the order da in (-ha/2, ha/2), then ddx in (0, h),
        then ddy in (0, h).  Its distinct positions are the 4 corners of
        each parent position that splits, its distinct alphas the 2 halves
        of each such parent alpha (the same float sums as per box); a mask
        and `cumsum` over the parents' indices give the children's.
        """
        nonlocal radial_positions
        x, y, al = (np.array([v]) for v in box)
        pos = aix = np.zeros(1, np.intp)  # the split boxes' position and alpha
        child = np.arange(8)  # child j: corner j % 4 of its parent's position, alpha half j // 4
        h, ha = h0, ha0
        for depth in range(1, max_depth + 1):
            if not pos.size:
                break
            at_pos, at_alpha = np.zeros(x.size, bool), np.zeros(al.size, bool)
            at_pos[pos] = True
            at_alpha[aix] = True
            xs = (x[at_pos][:, None] + np.array([0.0, 0.0, h, h])).ravel()
            ys = (y[at_pos][:, None] + np.array([0.0, h, 0.0, h])).ravel()
            h, ha = 0.5 * h, 0.5 * ha
            als = (al[at_alpha][:, None] + np.array([-ha, ha])).ravel()
            pos = ((np.cumsum(at_pos) - 1)[pos, None] * 4 + child % 4).ravel()
            aix = ((np.cumsum(at_alpha) - 1)[aix, None] * 2 + child // 4).ravel()
            lv = batch(_boxes(xs, ys, h, fe), als, pos, aix, h, ha, depth)
            tally(lv, depth)
            radial_positions += xs.size
            split = lv.kept[lv.action == 2]
            x, y, al, pos, aix = xs, ys, als, pos[split], aix[split]

    # Refinement pass, bounded by the failure and evaluation budgets, which
    # are checked before each split level-0 box (last-in first-out): a
    # subtree once begun is decided and counted in full.
    aborted = False
    lifo = ((x, y, amid) for amid, xs, ys in reversed(split0) for x, y in zip(xs[::-1].tolist(), ys[::-1].tolist()))
    for box in lifo:
        if n_failures >= max_failures or evaluations >= max_evaluations:
            aborted = True
            break
        decide(box)

    sign_margin = -math.inf
    witness = (0.0, 0.0, 0.0)
    for cx, cy, amid, lo, hi, _, _ in sign.survivors():
        fc = value(cx, cy, amid, lo, hi)
        if fc > sign_margin:
            sign_margin = fc
            w = MotionPoint.from_xy(cx, cy, amid)
            witness = (w.rho, w.theta, w.alpha)
    cert_margin = max((value(*item) + item[5] + item[6] for item in cert.survivors()), default=-math.inf)

    certified = not n_failures and not aborted
    notes = "adaptive box certification"
    if aborted:
        notes += "; refinement aborted at the failure/evaluation budget"
    log.info(
        "verify: %d level-0 boxes, %d evaluations, %d decisions settled in float, "
        "%d mp fallbacks, evaluations by depth %s, %d positions evaluated for %d refinement slots, "
        "%d screened out, %d discharged, %d failed, %d split, %d of %d Lipschitz panels by mp in %.2f s, %.2f s",
        sample_spec.alpha_count * sample_spec.grid_n**2, evaluations, evaluations - decided_by_mp,
        exact.cache_info().currsize, "/".join(map(str, by_depth)), radial_positions, evaluations - by_depth[0],
        *outcomes.tolist(),
        lip_mp, lip_all, lipschitz_s, time.perf_counter() - started,
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
    literal closed form (the tests integrate f over the motion group to check
    it); the enlargement enters through the area because packings rescale
    freely.  Raises when lambda <= 0.
    """
    lam = lambda_of(t)
    if lam <= 0.0:
        raise ValueError(f"lambda = {lam} must be positive for a valid bound")
    f0 = evaluate_f(t, ORIGIN)
    return 2.0 * math.pi * f0 / lam * pentagon(enlargement).area()


@dataclass(kw_only=True)
class VerificationReport:
    """The report; fields in the order of the report.json keys."""

    min_block_eigenvalue: float
    max_constraint_residual: float
    sign_margin: float
    cert_margin: float = math.nan
    enlargement: float
    certified: bool = False
    bound: float
    safety_factor: float = 1e3
    witness: tuple = ()
    stream_points: int = 0
    precision_bits: int = 256
    tensor_hash: str = ""
    sample_spec: str = ""
    lambda_value: float = math.nan  # key "lambda"
    f_origin: float = math.nan
    notes: str = ""

    def invariant_holds(self) -> bool:
        return self.min_block_eigenvalue > self.safety_factor * self.max_constraint_residual

    def to_text(self) -> str:
        lines = ["pentapack verification report v1"]
        for k, v in self.to_dict().items():
            lines.append(f"{k}: {v}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        out = {"lambda" if k == "lambda_value" else k: v for k, v in asdict(self).items()}
        out["witness"] = list(self.witness)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def build_report(
    t: CoefficientTensor,
    sol: SdpSolution,
    problem: SdpProblem,
    verification: SignVerification,
) -> VerificationReport:
    """Combine margins, sign verification and the bound into one report.

    `certified` is true only when the positivity margins dominate the
    residuals by the report's constant safety factor (so an exactly
    feasible nearby solution exists, which also discharges the rho >= 1
    region through the cylinder identity) and the adaptive sign pass
    succeeded (`certified_sign`).
    """
    min_eig, max_res = feasibility_margin(sol, problem)
    report = VerificationReport(
        min_block_eigenvalue=min_eig,
        max_constraint_residual=max_res,
        sign_margin=verification.sign_margin,
        enlargement=verification.enlargement,
        bound=final_bound(t, verification.enlargement),
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
    report.certified = verification.certified_sign and report.invariant_holds()
    return report
