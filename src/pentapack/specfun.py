"""Special functions for the radial part of the model.

Integer-order Bessel J, generalized Laguerre polynomials and Kummer's 1F1,
plus the radial coefficient functions C_{r,s;k} and D_{r,s;k} that tie the
Hankel-type integral

    int_0^inf a^(2k+1) e^(-pi a^2) J_{s-r}(2 pi a rho) da

to its hypergeometric closed form, and `tau_radial_coeffs`, the one
high-precision expansion of the radial part of tau_{r,s} in u = rho^2.  All
gamma values appearing here have positive integer arguments, so plain
factorials suffice.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

_SERIES_CUTOFF = 9.0  # |z| above which the power series loses too many digits


def _bessel_series(n: int, z: float) -> float:
    # Ascending series sum_j (-1)^j (z/2)^(n+2j) / (j! (n+j)!); safe for
    # small |z| or n well above |z| where there is no cancellation.
    half = 0.5 * z
    term = half**n / math.factorial(n)
    total = term
    j = 0
    while True:
        j += 1
        term *= -(half * half) / (j * (n + j))
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)) or j > 200:
            return total


def _bessel_miller(n: int, z: float) -> float:
    # Backward recurrence (Miller's algorithm): recurse J_{k-1} =
    # (2k/z) J_k - J_{k+1} downward from a trial order well above max(n, z),
    # then normalize with J_0 + 2 sum_k J_{2k} = 1.  Forward recurrence is
    # unstable for orders above the argument, backward is self-correcting.
    top = max(n, int(z)) + 20 + int(12.0 * math.sqrt(max(n, z, 1.0)))
    if top % 2 == 1:
        top += 1
    fp = 0.0  # J_{k+1} trial value
    fc = 1e-30  # J_k trial value
    norm = 0.0
    result = 0.0
    for k in range(top, 0, -1):
        fm = (2.0 * k / z) * fc - fp
        fp, fc = fc, fm
        if abs(fc) > 1e250:  # rescale to dodge overflow
            fc *= 1e-250
            fp *= 1e-250
            norm *= 1e-250
            result *= 1e-250
        if k % 2 == 1:  # fc now holds the trial J_{k-1}, k-1 even
            norm += 2.0 * fc
        if k - 1 == n:
            result = fc
    norm -= fc  # J_0 was added twice
    return result / norm


def bessel_j(n: int, z: float) -> float:
    """Bessel function of the first kind with integer order.

    Absolute error stays below 1e-13 for |z| <= 100 and |n| <= 64.
    """
    n = int(n)
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2 == 1:
            sign = -sign
    if z < 0:
        z = -z
        if n % 2 == 1:
            sign = -sign
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    if z <= _SERIES_CUTOFF or n >= 1.5 * z + 4:
        return sign * _bessel_series(n, z)
    return sign * _bessel_miller(n, z)


def bessel_j_integral_oracle(n: int, z: float) -> float:
    """Evaluate J_n(z) from Bessel's integral by adaptive quadrature.

    Uses (1 / (2 pi i^n)) int_0^2pi e^(i z cos xi) e^(i n xi) d xi; test
    oracle only.
    """
    from scipy.integrate import quad  # imported on first use: scipy.integrate is slow to load
    n = int(n)

    def re_part(xi):
        return math.cos(z * math.cos(xi)) * math.cos(n * xi) - math.sin(
            z * math.cos(xi)
        ) * math.sin(n * xi)

    def im_part(xi):
        return math.sin(z * math.cos(xi)) * math.cos(n * xi) + math.cos(
            z * math.cos(xi)
        ) * math.sin(n * xi)

    re, _ = quad(re_part, 0.0, 2.0 * math.pi, epsabs=1e-13, limit=400)
    im, _ = quad(im_part, 0.0, 2.0 * math.pi, epsabs=1e-13, limit=400)
    val = complex(re, im) / (2.0 * math.pi * (1j) ** (n % 4))
    return val.real


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


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n with (a)_0 = 1."""
    out = 1.0
    for i in range(n):
        out *= a + i
    return out


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric 1F1(a; b; x) by direct series summation.

    b must not be a nonpositive integer.  For nonpositive integer a the
    series terminates; that case is summed in exact rational arithmetic
    (floats are exact rationals) to dodge the alternating-series
    cancellation, so the result is correctly rounded.
    """
    if b <= 0 and b == int(b):
        raise ValueError(f"kummer_1f1 undefined for nonpositive integer b={b}")
    if a == int(a) and a <= 0:
        aq, bq, xq = int(a), Fraction(b), Fraction(x)
        total = Fraction(1)
        term = Fraction(1)
        for j in range(-aq):
            term *= Fraction(aq + j) / (bq + j) * xq / (j + 1)
            total += term
        return float(total)
    total = 1.0
    term = 1.0
    j = 0
    while True:
        term *= (a + j) / (b + j) * x / (j + 1)
        total += term
        j += 1
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            return total
        if j > 600:
            raise ValueError("kummer_1f1 series failed to converge")


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
    poch = math.factorial(m + n) // math.factorial(m)  # (m+1)_n as an integer
    q = Fraction(math.factorial(k + m // 2) * math.factorial(n), 2)
    q /= Fraction(math.factorial(m) * poch)
    return q, m // 2 - k - 1, m


def coeff_D_mp(m: int, k: int):
    """D_{r,s;k}(rho) / rho^m for m = |r - s|, in mpmath at the working precision."""
    q, e, _ = coeff_D_exact(m, 0, k)
    return mp.mpf(q.numerator) / q.denominator * mp.pi**e


def coeff_D(r: int, s: int, k: int, rho: float) -> float:
    """D_{r,s;k}(rho) = C_{r,s;k}(rho) n! / (|r-s|+1)_n with n = k - |r-s|/2."""
    q, e, m = coeff_D_exact(r, s, k)
    return float(q) * math.pi**e * rho**m


def tau_radial_coeffs(c, m: int) -> list:
    """Coefficients in u = rho^2 of the radial part of tau_{r,s}(sum_k c_k a^(2k)).

    That part is (-1)^(m/2) sum_k c_k D_{r,s;k}(rho) L^m_{k-m/2}(pi rho^2)
    with m = |r - s| even, a polynomial in u divisible by u^(m/2); the phase
    e^(-i(s alpha + (r-s) theta)) is left out.  The values are mpmath numbers
    at the working precision, one per entry of c.
    """
    out = [mp.mpf(0)] * len(c)
    sign = (-1) ** (m // 2)
    for k in range(m // 2, len(c)):
        if c[k] == 0:
            continue
        base = sign * c[k] * coeff_D_mp(m, k)
        for j, lam in enumerate(laguerre_coeffs_exact(k - m // 2, m)):
            out[m // 2 + j] += base * (mp.mpf(lam.numerator) / lam.denominator) * mp.pi**j
    return out


def hankel_closed_form(r: int, s: int, k: int, rho: float) -> float:
    """Closed form of the Hankel-type integral via Kummer's function.

    Equals (-1)^(s-r) C_{r,s;k}(rho) 1F1(|r-s|/2 - k; |r-s|+1; pi rho^2)
    e^(-pi rho^2); for |r-s| even the sign factor is 1.
    """
    m = abs(r - s)
    if m % 2 != 0:
        raise ValueError("hankel_closed_form requires |r-s| even")
    c = coeff_C(r, s, k, rho)
    f11 = kummer_1f1(m / 2 - k, m + 1, math.pi * rho * rho)
    return c * f11 * math.exp(-math.pi * rho * rho)


def hankel_integral_oracle(r: int, s: int, k: int, rho: float) -> float:
    """Numerically integrate int_0^inf a^(2k+1) e^(-pi a^2) J_{s-r}(2 pi a rho) da.

    Truncated at a = 10 where the Gaussian tail is below 1e-130; raises if
    the quadrature does not converge.  Test oracle only.
    """
    from scipy.integrate import quad  # imported on first use: scipy.integrate is slow to load
    m = abs(r - s)
    if m % 2 != 0:
        raise ValueError("hankel_integral_oracle requires |r-s| even")
    if k < 0:
        raise ValueError("hankel_integral_oracle requires k >= 0")

    def integrand(a):
        return a ** (2 * k + 1) * math.exp(-math.pi * a * a) * bessel_j(
            s - r, 2.0 * math.pi * a * rho
        )

    val, err = quad(integrand, 0.0, 10.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    if err > 1e-9:
        raise ValueError(f"hankel quadrature failed to converge (err={err})")
    return val
