"""Planar Euclidean motions in polar form.

A motion is a pair (x, A) acting on the plane as y -> x + A y, where A is a
rotation.  The package uses motions in the polar parametrization (rho,
theta, alpha) with x = rho * (cos theta, sin theta) and A = A(alpha),
rotations stored as angles; the 2x2 matrix is materialized on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    r = math.fmod(a, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    return 0.0 if r == TWO_PI else r


def rotation_matrix(alpha: float) -> np.ndarray:
    """Counter-clockwise rotation by alpha as a 2x2 array."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class MotionPoint:
    """Polar parametrization (rho, theta, alpha) of a motion.

    rho >= 0 is the translation length; theta is its direction, canonically 0
    when rho == 0; alpha is the rotation angle.  theta and alpha are reduced
    modulo 2*pi.
    """

    rho: float
    theta: float
    alpha: float

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        theta = wrap_angle(self.theta) if self.rho > 0.0 else 0.0
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))


ORIGIN = MotionPoint(0.0, 0.0, 0.0)
