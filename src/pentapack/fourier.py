"""The model function f on the motion group and its operator transform.

f is determined by the real coefficient tensor f[r][s][k] through the matrix
polynomial phi(a)_{r,s} = sum_k f[r][s][k] a^(2k) and the transform
fhat(a) = phi(a) e^(-pi a^2).  In closed form,

    f(rho, theta, alpha) = sum_{r,s,k} (-1)^(|r-s|/2) e^(-i(s alpha + (r-s) theta))
                           f[r][s][k] D_{r,s;k}(rho) L_n^{|r-s|}(pi rho^2) e^(-pi rho^2)

with n = k - |r-s|/2; the pipeline evaluates f only in this form.  The tests
check it against the inversion formula over the matrix coefficients u^a_{r,s}.
The structural zeros (r - s not divisible by 10, or k < |r-s|/2) encode the
five-fold symmetry and the Laguerre reduction; the symmetries
f[r][s][k] = f[s][r][k] = f[-r][-s][k] make f real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .motion import MotionPoint
from .specfun import coeff_D, laguerre

ANGULAR_MODULUS = 10  # r - s must vanish mod this for nonzero coefficients


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

    def _free_mask(self) -> np.ndarray:
        """True at the slots the structural zeros leave free: (r - s) % ANGULAR_MODULUS == 0, k >= |r - s| // 2."""
        N, d = self.params.N, self.params.d
        r = np.arange(-N, N + 1)
        diff = r[:, None] - r[None, :]
        return (diff % ANGULAR_MODULUS == 0)[:, :, None] & (np.arange(d + 1) >= np.abs(diff)[:, :, None] // 2)

    def structural_violation(self) -> float:
        """Largest entry that the structural zero constraints forbid."""
        return float(np.abs(self.entries[~self._free_mask()]).max(initial=0.0))

    def validate(self) -> None:
        """Refuse a non-finite entry, naming its slot, then forbidden or asymmetric entries above 1e-8 max(1, l1)."""
        if not np.isfinite(self.entries).all():
            r, s, k = np.argwhere(~np.isfinite(self.entries))[0] - (self.params.N, self.params.N, 0)
            raise TensorInvariantError(f"tensor entry r {r} s {s} k {k} is {self.get(r, s, k)}, not finite")
        tol = 1e-8 * max(1.0, self.l1_norm())
        if self.structural_violation() > tol:
            raise TensorInvariantError("structural zero constraints violated")
        if self.asymmetry() > tol:
            raise TensorInvariantError("tensor symmetry invariants violated")

    def nonzero_items(self):
        """Yield (r, s, k, value) over entries that are exactly nonzero, in C order.

        `np.nonzero` keeps what `v != 0.0` keeps: NaN, not -0.0.
        """
        N = self.params.N
        idx = np.nonzero(self.entries)
        for i, j, k, v in zip(*(a.tolist() for a in idx), self.entries[idx].tolist()):
            yield (i - N, j - N, k, v)

    def free_items(self):
        """`nonzero_items` less those in structurally zero slots: the terms of f's closed form."""
        N, free = self.params.N, self._free_mask()
        return ((r, s, k, v) for r, s, k, v in self.nonzero_items() if free[r + N, s + N, k])

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
        entries, seen = np.zeros((n, n, params.d + 1)), set()
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
            if (r, s, k) in seen:
                raise ValueError(f"tensor entry repeats the slot of an earlier line: {ln!r}")
            seen.add((r, s, k))
            entries[r + params.N, s + params.N, k] = v
        return cls(params, entries)


def lambda_of(t: CoefficientTensor) -> float:
    """The normalization value lambda = f[0][0][0]."""
    t.validate()
    return t.get(0, 0, 0)


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
    for r, s, k, v in t.free_items():
        m = abs(r - s)
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
