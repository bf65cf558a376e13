"""Small helpers for even polynomials in one variable.

An even polynomial sum_k c_k a^(2k) is stored as the coefficient sequence
(c_0, c_1, ...).  The generic convolution works for floats, Fractions and
mpmath values alike; the sums-of-squares assembly relies on that to run the
same code at different precisions.
"""

from __future__ import annotations

from dataclasses import dataclass


def conv(a, b) -> list:
    """Coefficientwise product of two coefficient sequences."""
    out = [0 * (a[0] * b[0])] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


@dataclass(frozen=True)
class EvenPolynomial:
    """Even univariate polynomial sum_k c_k a^(2k)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree in a (twice the top nonzero coefficient index)."""
        top = 0
        for i, c in enumerate(self.coeffs):
            if c != 0:
                top = i
        return 2 * top

    def __mul__(self, other: "EvenPolynomial") -> "EvenPolynomial":
        return EvenPolynomial(conv(self.coeffs, other.coeffs))

    def __call__(self, x):
        """Evaluate at x (Horner in x^2)."""
        t = x * x
        out = 0 * t
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def shifted(self, i: int) -> "EvenPolynomial":
        """Multiply by a^(2i)."""
        return EvenPolynomial((0,) * i + self.coeffs)


def monomial(k: int) -> EvenPolynomial:
    """The even monomial a^(2k)."""
    return EvenPolynomial((0,) * k + (1,))
