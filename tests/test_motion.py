import math

import numpy as np
import pytest

from oracles import IDENTITY, Motion, compose, from_polar, invert, to_polar
from pentapack.motion import MotionPoint, rotation_matrix


def random_motion(rng):
    return Motion((rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 2 * math.pi))


def test_identity_element():
    g = Motion((0.3, -1.2), 0.7)
    h = compose(g, IDENTITY)
    assert h.x == pytest.approx(g.x, abs=1e-15)
    assert h.alpha == pytest.approx(g.alpha, abs=1e-15)


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = random_motion(rng)
        e = compose(g, invert(g))
        assert abs(e.x[0]) < 1e-12 and abs(e.x[1]) < 1e-12
        assert min(e.alpha, 2 * math.pi - e.alpha) < 1e-12


def test_associativity_on_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g, h, k = (random_motion(rng) for _ in range(3))
        a = compose(compose(g, h), k)
        b = compose(g, compose(h, k))
        assert a.x[0] == pytest.approx(b.x[0], abs=1e-12)
        assert a.x[1] == pytest.approx(b.x[1], abs=1e-12)
        d = abs(a.alpha - b.alpha)
        assert min(d, 2 * math.pi - d) < 1e-12


def test_invert_examples():
    e = invert(Motion((0.0, 0.0), 0.0))
    assert e.x == (0.0, 0.0) and e.alpha == 0.0
    g = invert(Motion((1.0, 0.0), math.pi / 2))
    assert g.x[0] == pytest.approx(0.0, abs=1e-15)
    assert g.x[1] == pytest.approx(1.0, abs=1e-15)
    assert g.alpha == pytest.approx(3 * math.pi / 2)


def test_invert_is_involution():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_motion(rng)
        gg = invert(invert(g))
        assert gg.x[0] == pytest.approx(g.x[0], abs=1e-12)
        assert gg.x[1] == pytest.approx(g.x[1], abs=1e-12)


def test_from_polar_examples():
    m = from_polar(MotionPoint(0.0, 0.0, 0.0))
    assert m.x == (0.0, 0.0) and m.alpha == 0.0
    m = from_polar(MotionPoint(1.0, 0.0, math.pi))
    assert m.x == pytest.approx((1.0, 0.0))
    assert m.alpha == pytest.approx(math.pi)


def test_polar_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = MotionPoint(rng.uniform(0.01, 4), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        q = to_polar(from_polar(p))
        assert q.rho == pytest.approx(p.rho, abs=1e-12)
        dt = abs(q.theta - p.theta)
        assert min(dt, 2 * math.pi - dt) < 1e-12
        assert q.alpha == pytest.approx(p.alpha, abs=1e-12)


def test_rho_zero_theta_canonicalized():
    assert MotionPoint(0.0, 2.3, 1.0).theta == 0.0


def test_negative_rho_rejected():
    with pytest.raises(ValueError):
        MotionPoint(-0.1, 0.0, 0.0)


def test_rotation_matrices_orthogonal():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a = rng.uniform(-10, 10)
        R = rotation_matrix(a)
        assert np.abs(R.T @ R - np.eye(2)).max() < 1e-14
        assert abs(np.linalg.det(R) - 1.0) < 1e-14
