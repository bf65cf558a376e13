import hashlib
import math

import numpy as np
import pytest

from oracles import (
    constraint_sample_per_point,
    contains_interior,
    copies_disjoint,
    copies_disjoint_sat,
    from_polar,
    point_in_polygon_raycast,
    polygon_edges_per_edge,
    verification_sample,
)
from pentapack.geometry import (
    _VERTEX_MERGE_TOL,
    constraint_sample,
    minkowski_difference,
    pentagon,
)
from pentapack.motion import rotation_matrix
from pentapack.pipeline import RunConfig, build_sample


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


_DALPHA = (4.0 * math.pi / 10.0) / 33  # the default verify slice width
# sha256 of `minkowski_difference(alpha, scale).vertices.tobytes()`: the
# sample, the plot CSVs and the verify records depend on these floats and
# their order, near the degenerate angles alpha = pi/5 mod 2 pi/5 too.
_MINKOWSKI_GOLDEN = {
    ("-2pi/10", 1.0): "1a49ec455dcd470e9e9de334823738145cefc5364b5ab23a0515882581bca203",
    ("-2pi/10", 1.02): "67d8a77073238256692964f6d6d5db1b86e729eec618529adc4721b42f7c2f46",
    ("pi/5", 1.0): "b77e017daa2aab1d503b191fc97121bb59e063ec0a87347cc65946f40e4bfbfa",
    ("pi/5", 1.02): "09c4d17a3dac59ba81037df7077f216fcdd01333184408b2f5e11b8167f517ca",
    ("-pi/5", 1.0): "1a49ec455dcd470e9e9de334823738145cefc5364b5ab23a0515882581bca203",
    ("-pi/5", 1.02): "67d8a77073238256692964f6d6d5db1b86e729eec618529adc4721b42f7c2f46",
    ("-pi/5+2e-16", 1.0): "d60b3ca443597eaf0d70ec0a935bc0c28b044625b81f20caf705041754fdd352",
    ("-pi/5+2e-16", 1.02): "49499725814440173d5b674e4551a3a78b378348d0ecf7773120c05252e05ca6",
    ("-pi/5+1e-12", 1.0): "a3db98ad28692e5df695167d9391dc9b3503d2d040c09fad84b541fd50ba9cd7",
    ("-pi/5+1e-12", 1.02): "e23714434cee204efdd307d42d747c496d5bda431a226cc4f928e9b01f8f989f",
    ("-pi/5+3e-9", 1.0): "4a3a61797bafda012bf686f6bfcf63d5228ea27140686b1bd10edabecd933854",
    ("-pi/5+3e-9", 1.02): "3f3f421b82b4c60cc9b15ff7ae7cbb8f02b72cd2c96cdcf90e9dbfaa31f1a112",
    ("0", 1.0): "90e66a0236b531fddd31e69ca47082fb715fd185f769c2cf5e4e9309f16fca58",
    ("0", 1.02): "bc30b52d45a604d14ed1874531876197b1e49b4d7a6a588c3987e9664ec74790",
    ("0.37", 1.0): "cdd0d0396f260a0602ab6669741f479bb35ada4bd7bd801529fd827c076c15f3",
    ("0.37", 1.02): "7ac9bd62716fa19cdde0b65a600d5145be5ba407a7091fe1f888da0af3a6c01b",
    ("verify slice 0", 1.0): "c0b470d2069d77857a7934a2902962a60773fb6437591f1a180b128dfd40949c",
    ("verify slice 0", 1.02): "1b30c507baa9808b7dc12e292c8a35092aab79f4cfbe1febe94956d1f626b9fc",
    ("verify slice 20", 1.0): "5dc3913a61afd664577bde30c4fede516d649e1c56f2872c32c47f154b6a3bcc",
    ("verify slice 20", 1.02): "d949db71ceeebd2908ffbd0d160ab11887218edb263012bc8288e273bb98e7ed",
}
_GOLDEN_ALPHAS = {
    "-2pi/10": -2.0 * math.pi / 10.0,
    "pi/5": math.pi / 5,
    "-pi/5": -math.pi / 5,
    "-pi/5+2e-16": -math.pi / 5 + 2e-16,
    "-pi/5+1e-12": -math.pi / 5 + 1e-12,
    "-pi/5+3e-9": -math.pi / 5 + 3e-9,
    "0": 0.0,
    "0.37": 0.37,
    "verify slice 0": -2.0 * math.pi / 10.0 + 0.5 * _DALPHA,
    "verify slice 20": -2.0 * math.pi / 10.0 + 20.5 * _DALPHA,
}


@pytest.mark.parametrize("name, scale", list(_MINKOWSKI_GOLDEN))
def test_minkowski_vertices_golden_bits(name, scale):
    M = minkowski_difference(_GOLDEN_ALPHAS[name], scale)
    assert hashlib.sha256(M.vertices.tobytes()).hexdigest() == _MINKOWSKI_GOLDEN[name, scale]


@pytest.mark.parametrize("name, scale", list(_MINKOWSKI_GOLDEN))
def test_minkowski_vertices_are_differences_and_enclose_all(name, scale):
    """Every vertex is one of the 25 differences bit for bit; every difference lies in the closed polygon.

    3e-9 from a degenerate angle the walk merges away vertices that protrude
    8.8e-10 (scale 1) beyond their neighbors' chord, so there the differences
    lie within the merge tolerance of the polygon, not within 1e-12.
    """
    alpha = _GOLDEN_ALPHAS[name]
    k = pentagon(scale).vertices
    diffs = (k[:, None, :] - (k @ rotation_matrix(alpha).T)[None, :, :]).reshape(-1, 2)
    M = minkowski_difference(alpha, scale)
    assert {tuple(v) for v in M.vertices.tolist()} <= {tuple(d) for d in diffs.tolist()}
    outside = max(float(n @ d) - c for n, c in M.edges() for d in diffs)
    assert outside <= (_VERTEX_MERGE_TOL if name == "-pi/5+3e-9" else 1e-12)


def test_edges_equal_the_per_edge_form_bit_for_bit():
    """Normals and offsets of the batched `edges` are those of `n @ v[i]` edge by edge."""
    alphas = list(_GOLDEN_ALPHAS.values()) + np.random.default_rng(22).uniform(-4.0, 4.0, 300).tolist()
    for alpha in alphas:
        for scale in (1.0, 1.02):
            for poly in (minkowski_difference(alpha, scale), pentagon(scale)):
                got, want = poly.edges(), polygon_edges_per_edge(poly)
                assert len(got) == len(want)
                for (n, c), (n0, c0) in zip(got, want):
                    assert n.tobytes() == n0.tobytes() and type(c) is float and c.hex() == c0.hex()


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
        assert copies_disjoint(from_polar(p).x, p.alpha, 1.0)  # outside the unit difference too
        assert copies_disjoint(from_polar(p).x, p.alpha, 1.02)


@pytest.mark.parametrize("args", [
    (5, 50, 1.02), (3, 16, 1.02), (7, 33, 1.0), (33, 64, 1.05), (2, 2, 1.5),
    (5, 50, 1.02, True), (3, 16, 1.02, True), (7, 33, 1.0, True), (33, 64, 1.05, True), (2, 2, 1.5, True),
])
def test_constraint_sample_matches_the_per_point_filter(args):
    """The same points in the same order, each coordinate bit for bit."""
    def bits(points):
        return [np.array([p.rho, p.theta, p.alpha]).tobytes() for p in points]

    assert bits(constraint_sample(*args)) == bits(constraint_sample_per_point(*args))


@pytest.mark.parametrize("alpha_count, grid_n, enlargement, facet_lines", [
    (2, 2, 1.0, True), (5, 50, 1.0, True), (3, 16, 1.0, True), (5, 50, 1.02, True), (5, 50, 1.02, False),
])
def test_sample_angles_lie_in_zero_two_pi(alpha_count, grid_n, enlargement, facet_lines):
    """Every theta and alpha in [0, 2 pi): at enlargement 1 a facet-line point lies just below the
    +x axis, where atan2 gives a tiny negative angle that `% (2 pi)` rounds up to 2 pi."""
    cfg = RunConfig(alpha_count=alpha_count, grid_n=grid_n, enlargement=enlargement, facet_lines=facet_lines)
    for p in build_sample(cfg):
        assert 0.0 <= p.theta < 2 * math.pi and 0.0 <= p.alpha < 2 * math.pi


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
        assert copies_disjoint(from_polar(p).x, p.alpha, 1.02)
    # deterministic: a second run yields the same sequence
    again = list(verification_sample(8, 64, 1.02))
    assert pts == again


def test_verification_sample_desk_scale_count():
    count = sum(1 for _ in verification_sample(64, 512, 1.02))
    assert 1e5 < count < 1e7
