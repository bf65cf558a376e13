import math

import numpy as np
import pytest

from oracles import (
    copies_disjoint,
    copies_disjoint_sat,
    point_in_polygon_raycast,
    verification_sample,
)
from pentapack.geometry import (
    constraint_sample,
    contains_interior,
    minkowski_difference,
    pentagon,
)


def test_pentagon_vertices_and_area():
    K = pentagon(1.0)
    assert K.vertices[0] == pytest.approx([0.5, 0.0])
    assert K.area() == pytest.approx(5 / 8 * math.sin(2 * math.pi / 5), rel=1e-14)


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
def test_pentagon_refuses_a_non_finite_or_nonpositive_scale(scale):
    """`scale <= 0` once let NaN through: `minkowski_difference(0.1, nan)` gave NaN vertices."""
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        pentagon(scale)
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        minkowski_difference(0.1, scale)


def test_pentagon_scaling():
    big = pentagon(1.02)
    small = pentagon(1.0)
    assert np.allclose(big.vertices, 1.02 * small.vertices)


def test_pentagon_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        pentagon(0.0)
    with pytest.raises(ValueError):
        pentagon(-1.0)


def test_minkowski_vertex_norms_bounded():
    rng = np.random.default_rng(20)
    worst = 0.0
    for alpha in rng.uniform(0, 2 * math.pi, 1000):
        M = minkowski_difference(alpha, 1.0)
        worst = max(worst, float(np.linalg.norm(M.vertices, axis=1).max()))
    assert worst <= 1.0 + 1e-12


def test_minkowski_contains_origin():
    for alpha in np.linspace(0, 2 * math.pi, 50):
        assert contains_interior(minkowski_difference(alpha, 1.0), (0.0, 0.0))


def test_minkowski_at_zero_is_decagon():
    M = minkowski_difference(0.0, 1.0)
    assert len(M.vertices) == 10
    center = M.vertices.mean(axis=0)
    assert np.abs(center).max() < 1e-12  # centrally symmetric
    # vertex set closed under negation
    for v in M.vertices:
        assert min(np.linalg.norm(M.vertices + v, axis=1)) < 1e-12


def test_minkowski_degenerate_slice_is_pentagon():
    M = minkowski_difference(-2 * math.pi / 10, 1.0)
    assert len(M.vertices) == 5
    assert np.linalg.norm(M.vertices, axis=1) == pytest.approx(np.ones(5), abs=1e-12)


def test_minkowski_c5_symmetry():
    for alpha in (0.1, -0.4, 1.1):
        a = minkowski_difference(alpha, 1.0).vertices
        b = minkowski_difference(alpha + 2 * math.pi / 5, 1.0).vertices
        for v in a:
            assert min(np.linalg.norm(b - v, axis=1)) < 1e-12


def test_contains_interior_examples():
    K = pentagon(1.0)
    assert contains_interior(K, (0.0, 0.0))
    assert not contains_interior(K, (0.5, 0.0))  # vertex is not interior


def test_contains_interior_agrees_with_raycast():
    rng = np.random.default_rng(21)
    M = minkowski_difference(0.37, 1.0)
    agree = 0
    for _ in range(10_000):
        x = rng.uniform(-1.1, 1.1, 2)
        a = contains_interior(M, x)
        b = point_in_polygon_raycast(M, x)
        # the oracles may disagree within a hair of the boundary
        if a != b:
            d = max(n @ x - c for n, c in M.edges())
            assert abs(d) < 1e-9
        else:
            agree += 1
    assert agree > 9990


def test_copies_disjoint_examples():
    for alpha in np.linspace(0, 2 * math.pi, 25):
        assert not copies_disjoint((0.0, 0.0), alpha)
        assert copies_disjoint((2.0, 0.0), alpha)


def test_copies_disjoint_agrees_with_separating_axis():
    rng = np.random.default_rng(22)
    for _ in range(10_000):
        x = rng.uniform(-1.3, 1.3, 2)
        alpha = rng.uniform(0, 2 * math.pi)
        a = copies_disjoint(x, alpha)
        b = copies_disjoint_sat(x, alpha)
        if a != b:
            M = minkowski_difference(alpha, 1.0)
            d = max(n @ x - c for n, c in M.edges())
            assert abs(d) < 1e-9


def test_constraint_sample_size_and_invariants():
    pts = constraint_sample(5, 50, 1.02)
    assert 450 <= len(pts) <= 650
    for p in pts:
        assert p.rho <= 1.0 + 1e-12
        assert copies_disjoint(p.xy, p.alpha, 1.0)  # outside the unit difference too
        assert copies_disjoint(p.xy, p.alpha, 1.02)


def test_constraint_sample_rejects_bad_args():
    with pytest.raises(ValueError):
        constraint_sample(1, 50)
    with pytest.raises(ValueError):
        constraint_sample(5, 1)


def test_verification_sample_stream():
    pts = list(verification_sample(8, 64, 1.02))
    assert len(pts) > 0
    for p in pts[::7]:
        assert p.rho <= 1.0
        assert -1e-12 <= p.alpha % (2 * math.pi)
        assert copies_disjoint(p.xy, p.alpha, 1.02)
    # deterministic: a second run yields the same sequence
    again = list(verification_sample(8, 64, 1.02))
    assert pts == again


def test_verification_sample_desk_scale_count():
    count = sum(1 for _ in verification_sample(64, 512, 1.02))
    assert 1e5 < count < 1e7
