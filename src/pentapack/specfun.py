"""Special functions for the radial part of the model.

Generalized Laguerre polynomials and the radial coefficients D_{r,s;k}, which
give the Hankel-type integral

    int_0^inf a^(2k+1) e^(-pi a^2) J_{s-r}(2 pi a rho) da

in closed form as D_{r,s;k}(rho) L_n^{|r-s|}(pi rho^2) e^(-pi rho^2) with
n = k - |r-s|/2, and `tau_radial_expansion`, the one high-precision expansion
of the radial part of tau_{r,s} in u = rho^2.  The pipeline evaluates only this
closed form; the Bessel integral and the Kummer 1F1 form it is derived from
are evaluated in the tests alone.  All gamma values appearing here have
positive integer arguments, so plain factorials suffice.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_mul_int, round_nearest


def laguerre(n: int, m: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^m(x) by the three-term recurrence."""
    if n < 0 or m < 0:
        raise ValueError("laguerre requires n >= 0 and m >= 0")
    if n == 0:
        return 1.0
    prev = 1.0
    curr = 1.0 + m - x
    for j in range(1, n):
        prev, curr = curr, ((2 * j + 1 + m - x) * curr - (j + m) * prev) / (
            j + 1
        )
    return curr


def laguerre_coeffs_exact(n: int, m: int) -> list[Fraction]:
    """Exact coefficients c_j of x^j in L_n^m(x) = sum_j c_j x^j."""
    return [
        Fraction((-1) ** j * math.comb(n + m, n - j), math.factorial(j))
        for j in range(n + 1)
    ]


def coeff_D_exact(r: int, s: int, k: int) -> tuple[Fraction, int, int]:
    """Exact decomposition D_{r,s;k}(rho) = q * pi^e * rho^m.

    Returns (q, e, m) with q rational, so float and high-precision callers
    can realize the same value.  Requires |r-s| even and k >= |r-s|/2.
    """
    m = abs(r - s)
    if m % 2 != 0:
        raise ValueError(f"coeff_D requires |r-s| even, got r={r}, s={s}")
    n = k - m // 2
    if n < 0:
        raise ValueError(f"coeff_D requires k >= |r-s|/2, got k={k}, m={m}")
    return Fraction(math.factorial(n), 2), m // 2 - k - 1, m


def coeff_D_mp(m: int, k: int):
    """D_{r,s;k}(rho) / rho^m for m = |r - s|, in mpmath at the working precision."""
    q, e, _ = coeff_D_exact(m, 0, k)
    return mp.mpf(q.numerator) / q.denominator * mp.pi**e


def coeff_D(r: int, s: int, k: int, rho: float) -> float:
    """D_{r,s;k}(rho) = n! (pi rho^2)^(|r-s|/2) / (2 pi^(k+1)) with n = k - |r-s|/2."""
    q, e, m = coeff_D_exact(r, s, k)
    return float(q) * math.pi**e * rho**m


def tau_radial_expansion(m: int, K: int):
    """The map c -> the coefficients in u = rho^2 of the radial part of tau_{r,s}(sum_k c_k a^(2k)).

    That part is (-1)^(m/2) sum_k c_k D_{r,s;k}(rho) L^m_{k-m/2}(pi rho^2)
    with m = |r - s| even, a polynomial in u divisible by u^(m/2); the phase
    e^(-i(s alpha + (r-s) theta)) is left out.  c has K entries, and the
    values are mpmath numbers at the working precision, one per entry of c.
    pi^j is computed once, and D_{r,s;k} and the Laguerre coefficients of
    each k, as mpf, on the first c with c_k nonzero; the map makes the
    operations of the per-term form ((base * lambda) * pi^j) on the same
    numbers, so its values are that form's.  It makes them as the libmp
    calls the mpf operators make (mpf_mul_int for the sign, mpf_mul and
    mpf_add at the working precision, round-to-nearest; see
    `certify.MpEvaluator`), on the `_mpf_` tuples.  Expanding several c with
    one m through one map builds the constants once.  Call it at the
    precision it was made at, with mpf entries in c.
    """
    h, sign = m // 2, (-1) ** (m // 2)
    pis = [(mp.pi**j)._mpf_ for j in range(K - h)]
    terms: dict[int, tuple] = {}

    def expand(c) -> list:
        prec, rnd = mp.prec, round_nearest
        out = [fzero] * K
        for k in range(h, K):
            if c[k] == 0:
                continue
            if k not in terms:
                lams = laguerre_coeffs_exact(k - h, m)
                terms[k] = coeff_D_mp(m, k)._mpf_, [(mp.mpf(q.numerator) / q.denominator)._mpf_ for q in lams]
            dmk, lams = terms[k]
            base = mpf_mul(mpf_mul_int(c[k]._mpf_, sign, prec, rnd), dmk, prec, rnd)
            for j, lam in enumerate(lams):
                term = mpf_mul(mpf_mul(base, lam, prec, rnd), pis[j], prec, rnd)
                out[h + j] = mpf_add(out[h + j], term, prec, rnd)
        return [mp.make_mpf(v) for v in out]

    return expand
