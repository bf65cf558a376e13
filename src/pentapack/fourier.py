"""The model function f on the motion group and its operator transform.

f is determined by the real coefficient tensor f[r][s][k] through the matrix
polynomial phi(a)_{r,s} = sum_k f[r][s][k] a^(2k) and the transform
fhat(a) = phi(a) e^(-pi a^2).  In closed form,

    f(rho, theta, alpha) = sum_{r,s,k} (-1)^(|r-s|/2) e^(-i(s alpha + (r-s) theta))
                           f[r][s][k] D_{r,s;k}(rho) L_n^{|r-s|}(pi rho^2) e^(-pi rho^2)

with n = k - |r-s|/2.  The inversion-formula quadrature and the matrix
coefficients u^a_{r,s} are kept as independent oracles for the closed form.
The structural zeros (r - s not divisible by 10, or k < |r-s|/2) encode the
five-fold symmetry and the Laguerre reduction; the symmetries
f[r][s][k] = f[s][r][k] = f[-r][-s][k] make f real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .motion import MotionPoint
from .specfun import bessel_j, coeff_D, laguerre

ANGULAR_MODULUS = 10  # r - s must vanish mod this for nonzero coefficients
A_MAX = 6.0  # quadrature truncation; e^(-pi a^2) < 1e-49 beyond


class TensorInvariantError(ValueError):
    """A coefficient tensor violates one of its structural invariants."""


@dataclass(frozen=True)
class ModelParams:
    """Band limit N and odd polynomial degree parameter d."""

    N: int
    d: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.d < 1 or self.d % 2 == 0:
            raise ValueError(f"d must be odd and >= 1, got {self.d}")


class CoefficientTensor:
    """Real tensor f[r][s][k] for -N <= r, s <= N and 0 <= k <= d.

    Entries are addressed with signed indices through `get`; storage is a
    dense array with offset N.  Instances are treated as immutable once
    validated.
    """

    def __init__(self, params: ModelParams, entries: np.ndarray):
        n = 2 * params.N + 1
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (n, n, params.d + 1):
            raise ValueError(
                f"entries must have shape {(n, n, params.d + 1)}, got {entries.shape}"
            )
        self.params = params
        self.entries = entries
        self.entries.setflags(write=False)

    @classmethod
    def zeros(cls, params: ModelParams) -> "CoefficientTensor":
        n = 2 * params.N + 1
        return cls(params, np.zeros((n, n, params.d + 1)))

    def get(self, r: int, s: int, k: int) -> float:
        N = self.params.N
        return float(self.entries[r + N, s + N, k])

    def l1_norm(self) -> float:
        return float(np.abs(self.entries).sum())

    def asymmetry(self) -> float:
        """Largest violation of the symmetry and negation invariants."""
        sym = np.abs(self.entries - self.entries.transpose(1, 0, 2)).max()
        neg = np.abs(self.entries - self.entries[::-1, ::-1, :]).max()
        return float(max(sym, neg))

    def structural_violation(self) -> float:
        """Largest entry that the structural zero constraints forbid."""
        N, d = self.params.N, self.params.d
        worst = 0.0
        for r in range(-N, N + 1):
            for s in range(-N, N + 1):
                if (r - s) % ANGULAR_MODULUS != 0:
                    worst = max(worst, float(np.abs(self.entries[r + N, s + N]).max()))
                    continue
                m = abs(r - s)
                if m // 2 > 0:
                    bad = self.entries[r + N, s + N, : min(m // 2, d + 1)]
                    if bad.size:
                        worst = max(worst, float(np.abs(bad).max()))
        return worst

    def validate(self) -> None:
        tol = 1e-8 * max(1.0, self.l1_norm())
        if self.structural_violation() > tol:
            raise TensorInvariantError("structural zero constraints violated")
        if self.asymmetry() > tol:
            raise TensorInvariantError("tensor symmetry invariants violated")

    def nonzero_items(self):
        """Yield (r, s, k, value) over entries that are exactly nonzero."""
        N = self.params.N
        for (i, j, k), v in np.ndenumerate(self.entries):
            if v != 0.0:
                yield (i - N, j - N, k, float(v))

    # -- text serialization ------------------------------------------------

    FORMAT_HEADER = "pentapack-tensor v1"

    def dumps(self) -> str:
        lines = [self.FORMAT_HEADER, f"N {self.params.N} d {self.params.d}"]
        for r, s, k, v in self.nonzero_items():
            lines.append(f"{r} {s} {k} {v!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "CoefficientTensor":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != cls.FORMAT_HEADER:
            raise ValueError("not a pentapack tensor file")
        if len(lines) < 2:
            raise ValueError(f"tensor file ends after its first line: {lines[0]!r}")
        hdr = lines[1].split()
        try:
            if len(hdr) != 4 or hdr[0] != "N" or hdr[2] != "d":
                raise ValueError
            N, d = int(hdr[1]), int(hdr[3])
        except ValueError:
            raise ValueError(f"malformed tensor header: {lines[1]!r}") from None
        params = ModelParams(N, d)
        n = 2 * params.N + 1
        entries = np.zeros((n, n, params.d + 1))
        for ln in lines[2:]:
            parts = ln.split()
            try:
                if len(parts) != 4:
                    raise ValueError
                r, s, k, v = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError:
                raise ValueError(f"tensor entry is not 'r s k value': {ln!r}") from None
            if max(abs(r), abs(s)) > params.N or not 0 <= k <= params.d or not math.isfinite(v):
                raise ValueError(f"tensor entry out of range for N {params.N} d {params.d}: {ln!r}")
            entries[r + params.N, s + params.N, k] = v
        return cls(params, entries)


def lambda_of(t: CoefficientTensor) -> float:
    """The normalization value lambda = f[0][0][0]."""
    t.validate()
    return t.get(0, 0, 0)


def matrix_coefficient_u(a: float, r: int, s: int, p: MotionPoint) -> complex:
    """Matrix coefficient u^a_{r,s} = i^(s-r) e^(-i(s alpha + (r-s) theta)) J_{s-r}(2 pi a rho)."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    phase = (1j) ** ((s - r) % 4) * np.exp(-1j * (s * p.alpha + (r - s) * p.theta))
    return complex(phase * bessel_j(s - r, 2.0 * math.pi * a * p.rho))


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


def evaluate_f(t: CoefficientTensor, p: MotionPoint) -> float:
    """Evaluate f at p through the Laguerre closed form.

    The complex sum is provably real for tensors satisfying the symmetry
    invariants; the imaginary residue is checked against a tolerance that
    accounts for any residual asymmetry of the tensor, then discarded.
    """
    t.validate()
    x = math.pi * p.rho * p.rho
    expf = math.exp(-x)
    total = 0.0 + 0.0j
    for r, s, k, v in t.nonzero_items():
        m = abs(r - s)
        if (r - s) % ANGULAR_MODULUS != 0 or k < m // 2:
            continue  # structurally zero slot: no closed-form term
        term = (
            v
            * (-1.0) ** (m // 2)
            * coeff_D(r, s, k, p.rho)
            * laguerre(k - m // 2, m, x)
        )
        total += term * np.exp(-1j * (s * p.alpha + (r - s) * p.theta))
    total *= expf
    tol = 1e-12 * max(1.0, t.l1_norm()) + 4.0 * t.asymmetry()
    if abs(total.imag) > tol:
        raise TensorInvariantError(
            f"imaginary residue {total.imag:.3e} exceeds tolerance {tol:.3e}"
        )
    return float(total.real)


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
    target accuracy.  Test oracle only; the closed form is the production
    route.
    """
    from scipy.integrate import quad  # imported on first use: scipy.integrate is slow to load
    t.validate()
    items = list(t.nonzero_items())
    orders = sorted({s - r for r, s, _k, _v in items})
    phases = np.array(
        [
            (1j) ** ((s - r) % 4) * np.exp(-1j * (s * p.alpha + (r - s) * p.theta))
            for r, s, _k, _v in items
        ]
    )
    values = np.array([v for _r, _s, _k, v in items])
    kpow = np.array([2 * k for _r, _s, k, _v in items])
    order_of = np.array([orders.index(s - r) for r, s, _k, _v in items])

    def integrand(a, part):
        jvals = np.array([bessel_j(n, 2.0 * math.pi * a * p.rho) for n in orders])
        total = np.sum(values * a**kpow * phases * jvals[order_of])
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
    from scipy.integrate import quad  # imported on first use: scipy.integrate is slow to load
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


def random_positive_tensor(params: ModelParams, rng: np.random.Generator) -> CoefficientTensor:
    """Random tensor whose phi(a) is positive semidefinite for every a.

    Builds phi = G G^T where row r of G carries a^|r| times random even
    polynomials, with columns segregated by residue class mod 10; that layout
    enforces the structural zeros, and averaging with the index-negated copy
    enforces real-valuedness while preserving positivity.
    """
    N, d = params.N, params.d
    t = np.zeros((2 * N + 1, 2 * N + 1, d + 1))
    for j in range(ANGULAR_MODULUS):
        rows = [r for r in range(-N, N + 1) if (r - j) % ANGULAR_MODULUS == 0]
        if not rows:
            continue
        # polys[r] is a coefficient list of G_{r,c}(a) = a^|r| * poly(a^2)
        for _ in range(2):  # two columns per class
            polys = {}
            for r in rows:
                top = (d - abs(r)) // 2
                polys[r] = rng.standard_normal(top + 1)
            for r in rows:
                for s in rows:
                    # |r| + |s| is even within a class, so the product of
                    # a^|r| poly(a^2) factors is again even in a.
                    base = (abs(r) + abs(s)) // 2
                    prod = np.convolve(polys[r], polys[s])
                    for i, c in enumerate(prod):
                        if base + i <= d:
                            t[r + N, s + N, base + i] += c
    t = 0.5 * (t + t[::-1, ::-1, :])
    tensor = CoefficientTensor(params, t)
    tensor.validate()
    return tensor
