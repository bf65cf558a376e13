import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp

from oracles import coeff_C, hankel_closed_form, hankel_integral_oracle, tau, tau_radial_coeffs_per_term
from pentapack.motion import MotionPoint
from pentapack.specfun import (
    coeff_D,
    laguerre,
    laguerre_coeffs_exact,
    tau_radial_expansion,
)
from pentapack.sos import ASSEMBLY_DPS


def test_laguerre_at_zero_binomial():
    for n in range(8):
        for m in range(6):
            assert laguerre(n, m, 0.0) == pytest.approx(math.comb(n + m, n), rel=1e-14)


def test_laguerre_degree_zero():
    assert laguerre(0, 4, 2.7) == 1.0


def test_laguerre_explicit_expansion():
    # compare with exact coefficient expansion at a grid of points
    for n, m in [(3, 2), (5, 0), (7, 10), (11, 0)]:
        coeffs = laguerre_coeffs_exact(n, m)
        for x in (0.0, 0.37, 1.5, 4.2):
            explicit = float(sum(Fraction(c) * Fraction(x) ** j for j, c in enumerate(coeffs)))
            assert laguerre(n, m, x) == pytest.approx(explicit, abs=1e-12 * max(1.0, abs(explicit)))
    assert laguerre(3, 2, 1.5) == pytest.approx(0.0625, abs=1e-12)


def test_kummer_laguerre_identity():
    # 1F1(-n; m+1; x) = n!/(m+1)_n L_n^m(x)
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(0, 21))
        m = int(rng.integers(0, 41))
        x = float(rng.uniform(0, 5))
        lhs = float(mpmath.hyp1f1(-n, m + 1, x))
        rhs = math.factorial(n) / float(mpmath.rf(m + 1, n)) * laguerre(n, m, x)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, abs(rhs)))


def test_coeff_D_small_cases():
    for rho in (0.0, 0.5, 1.3):
        assert coeff_D(0, 0, 0, rho) == pytest.approx(1 / (2 * math.pi), rel=1e-15)
    for k in range(6):
        assert coeff_D(0, 0, k, 0.77) == pytest.approx(
            math.factorial(k) / (2 * math.pi ** (k + 1)), rel=1e-14
        )


def test_coeff_D_high_precision_cross_check():
    from mpmath import mp

    with mp.workprec(128):
        m = 10
        k = 5
        rho = 1.0
        n = k - m // 2
        c = (
            mp.factorial(k + m // 2)
            * (rho * mp.sqrt(mp.pi)) ** m
            / (2 * mp.pi ** (k + 1) * mp.factorial(m))
        )
        d = c * mp.factorial(n) / mp.rf(m + 1, n)
        assert coeff_D(10, 0, 5, 1.0) == pytest.approx(float(d), abs=1e-14)


def test_coeff_preconditions():
    with pytest.raises(ValueError):
        coeff_D(1, 0, 3, 0.5)  # odd difference
    with pytest.raises(ValueError):
        coeff_D(10, 0, 2, 0.5)  # k below |r-s|/2
    with pytest.raises(ValueError):
        coeff_C(3, 0, 1, 0.5)


def test_hankel_gaussian_moment():
    assert hankel_integral_oracle(0, 0, 0, 0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-12)


@pytest.mark.parametrize("r,s,k,rho", [(10, 0, 5, 0.7), (2, 2, 3, 1.2), (0, 10, 11, 2.0)])
def test_hankel_identity_spot(r, s, k, rho):
    assert hankel_integral_oracle(r, s, k, rho) == pytest.approx(
        hankel_closed_form(r, s, k, rho), abs=1e-9
    )


def _tau_radial_float(m, c, rho):
    """(-1)^(m/2) sum_k c_k D_{r,s;k}(rho) L^m_{k-m/2}(pi rho^2) from the float coeff_D and laguerre.

    oracles.tau refuses |r - s| not divisible by 10, so m = 2 spells its sum out.
    """
    if m % 10 == 0:
        return tau(m, 0, c, MotionPoint(rho, 0.0, 0.0)).real
    x = math.pi * rho * rho
    return (-1) ** (m // 2) * sum(
        ck * coeff_D(m, 0, k, rho) * laguerre(k - m // 2, m, x) for k, ck in enumerate(c) if k >= m // 2
    )


@pytest.mark.parametrize("m", [0, 2, 10, 20])
def test_tau_radial_coeffs_match_float_tau(m):
    # The mp u-polynomial at u = rho^2 against the float closed form; the
    # signs at m = 2, 10 (negative) and 0, 20 (positive) and the magnitudes
    # of the D and Laguerre factors all enter.
    rng = np.random.default_rng(50 + m)
    c = rng.standard_normal(13)
    with mp.workprec(128):
        u = tau_radial_expansion(m, len(c))([mp.mpf(float(ck)) for ck in c])
        assert len(u) == len(c) and all(v == 0 for v in u[: m // 2])
        for rho in np.linspace(0.0, 1.5, 16):
            got = float(mp.polyval(u[::-1], mp.mpf(float(rho)) ** 2))
            scale = sum(
                abs(ck * coeff_D(m, 0, k, rho) * laguerre(k - m // 2, m, math.pi * rho * rho))
                for k, ck in enumerate(c) if k >= m // 2
            )
            assert got == pytest.approx(_tau_radial_float(m, c, rho), rel=0, abs=1e-12 * scale)


@pytest.mark.parametrize("m", [0, 2, 10])
@pytest.mark.parametrize("bits", [53, 128, 256, "assembly"])
def test_tau_radial_coeffs_equal_the_per_term_form(m, bits):
    """Bit for bit, with zero entries, and for several c through one shared expansion."""
    rng = np.random.default_rng(51 + m)
    with mp.workprec(bits) if bits != "assembly" else mp.workdps(ASSEMBLY_DPS):
        cs = [[mp.mpf(float(x)) * mp.pi for x in rng.standard_normal(12) * (rng.uniform(size=12) < 0.8)]
              for _ in range(4)]
        expand = tau_radial_expansion(m, 12)
        for c in cs:
            want = [v._mpf_ for v in tau_radial_coeffs_per_term(c, m)]
            assert [v._mpf_ for v in tau_radial_expansion(m, len(c))(c)] == want
            assert [v._mpf_ for v in expand(c)] == want
