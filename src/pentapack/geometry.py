"""Pentagon geometry: Minkowski differences and the constraint sample.

The regular pentagon K has circumradius 1/2 and vertices at angles 2 pi k / 5.
Two congruent copies K and x + A(alpha) K overlap in their interiors exactly
when x lies in the interior of the Minkowski difference K - A(alpha) K.  Its
edges are those of K and -A(alpha) K sorted by direction, so its vertices are
pairwise vertex differences k_i - A(alpha) k_j, found by one walk over 10 edges.
`constraint_sample` discretizes the complement of that region for the
constraint stage; the verification stage covers it with boxes (`certify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .motion import MotionPoint, rotation_matrix

_COLLINEAR_TOL = 1e-12
# When a vertex of the edge walk in `minkowski_difference` protrudes less
# than this distance beyond the chord of its neighbors it is treated as
# collinear and merged away.  At the degenerate rotation angles (alpha = pi/5
# mod 2 pi/5) edges of K and -A(alpha) K are parallel and the difference is a
# pentagon: the vertices between them protrude by roundoff (~1e-16), or by
# less than 1e-9 a few 1e-9 away from them, where they are merged too.
_VERTEX_MERGE_TOL = 1e-9


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon with counter-clockwise vertex order."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        n = len(v)
        for i in range(n):
            c = _cross(v[i], v[(i + 1) % n], v[(i + 2) % n])
            if c <= _COLLINEAR_TOL:
                raise ValueError("polygon is not strictly convex and CCW")
        object.__setattr__(self, "vertices", v)

    def edges(self) -> list[tuple[np.ndarray, float]]:
        """Outward unit normal n and offset c per edge, with n.x <= c inside.

        The lengths are math.hypot's (np.hypot rounds some differently) and
        the offsets n.v_i come from one batched np.matmul, bit for bit the
        BLAS dot `n @ v[i]`.  Do not write them as n0*x + n1*y in Python
        floats: BLAS's dot may fuse the multiply and add, and most polygons
        would get an offset one ulp off.
        """
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        n /= np.array([math.hypot(a, b) for a, b in n.tolist()])[:, None]
        c = np.matmul(n[:, None, :], v[:, :, None])[:, 0, 0]
        return list(zip(n, c.tolist()))

    def area(self) -> float:
        v = self.vertices
        return 0.5 * abs(
            float(np.dot(v[:, 0], np.roll(v[:, 1], -1)) - np.dot(v[:, 1], np.roll(v[:, 0], -1)))
        )


def pentagon(scale: float) -> ConvexPolygon:
    """Regular pentagon with vertices scale * (1/2)(cos(2 pi k/5), sin(2 pi k/5))."""
    if not 0 < scale < math.inf:  # false for NaN too
        raise ValueError(f"scale must be finite and positive, got {scale}")
    ang = 2.0 * math.pi / 5.0
    verts = [
        (0.5 * scale * math.cos(k * ang), 0.5 * scale * math.sin(k * ang))
        for k in range(5)
    ]
    return ConvexPolygon(np.array(verts))


def minkowski_difference(alpha: float, scale: float = 1.0) -> ConvexPolygon:
    """Minkowski difference scale*(K - A(alpha) K) as a convex polygon.

    Walks the 10 edges of K and -A(alpha) K in order of direction: every
    vertex is a difference k_i - A(alpha) k_j, and an edge of K advances i,
    one of -A(alpha) K advances j.  The walk starts at its lexicographically
    smallest vertex before vertices between (near-)parallel edges are merged.
    """
    k = pentagon(scale).vertices
    kl, rl = k.tolist(), (k @ rotation_matrix(alpha).T).tolist()
    edges = []  # (direction, 0 for K or 1 for -A(alpha)K, index of the edge's first vertex)
    for side, pts, sign in ((0, kl, 1.0), (1, rl, -1.0)):
        for i in range(5):
            (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % 5]
            edges.append((math.atan2(sign * (y1 - y0), sign * (x1 - x0)), side, i))
    edges.sort()
    # Each polygon's first edge by direction leaves the vertex where its walk starts.
    at = [next(i for _, s, i in edges if s == side) for side in (0, 1)]
    verts = []
    for _, side, _ in edges:
        verts.append((kl[at[0]][0] - rl[at[1]][0], kl[at[0]][1] - rl[at[1]][1]))
        at[side] = (at[side] + 1) % 5
    first = verts.index(min(verts))  # rotate before merging: the start must not depend on the merge
    verts = verts[first:] + verts[:first]
    merged = True
    while merged and len(verts) > 3:
        merged = False
        for m, b in enumerate(verts):
            a, c = verts[m - 1], verts[(m + 1) % len(verts)]
            if _cross(a, b, c) / math.hypot(c[0] - a[0], c[1] - a[1]) < _VERTEX_MERGE_TOL:
                verts.pop(m)
                merged = True
                break
    return ConvexPolygon(np.array(verts))


def _closest_facet_pair(poly: ConvexPolygon) -> list[tuple[np.ndarray, float]]:
    """Two adjacent facets with outward normals closest to the +x direction.

    Ties break toward positive normal angle; the second facet is the better
    of the first one's two neighbors, which keeps the pair adjacent.
    """
    edges = poly.edges()
    angs = [math.atan2(n[1], n[0]) for n, _ in edges]

    def rank(i):
        return (abs(angs[i]), -angs[i])  # prefer small |angle|, then positive

    best = min(range(len(edges)), key=rank)
    nbrs = [(best - 1) % len(edges), (best + 1) % len(edges)]
    second = min(nbrs, key=rank)
    return [edges[best], edges[second]]


def constraint_sample(
    alpha_count: int = 5, grid_n: int = 50, enlargement: float = 1.02, facet_lines: bool = False
) -> list[MotionPoint]:
    """Sample of motions at which nonpositivity is enforced in the program.

    For alpha_count uniformly spaced alpha in [-2 pi/10, 0] (both endpoints
    included) and a uniform grid x_j = -1 + 2j/grid_n on [-1, 1]^2, keeps the
    grid points with rho <= 1 that lie outside the open Minkowski difference
    of the enlarged pentagon and on the non-origin side of one of two
    adjacent facets (the five-fold symmetry of the pentagon makes the other
    facets redundant).  Points exactly on a facet line count as kept.

    The sample region matches the sign condition that is certified later:
    nonpositivity is required, and enforced, outside the difference of the
    enlargement*K copies.  With the defaults (5, 50, 1.02) this yields 452
    points and reproduces the published bound.

    With facet_lines, points spaced 2/grid_n along the supporting lines of
    the two facets, within rho <= 1, follow all the grid points, alpha by
    alpha.  They pin the function along those lines, where the grid-only
    sample leaves positive slivers, and raise the optimal value: bound
    quality traded for a verifiable sign condition.
    """
    if alpha_count < 2 or grid_n < 2:
        raise ValueError("alpha_count and grid_n must both be >= 2")
    if not enlargement >= 1.0:  # false for NaN too
        raise ValueError(f"enlargement must be >= 1, got {enlargement}")
    alphas = np.linspace(-2.0 * math.pi / 10.0, 0.0, alpha_count)
    step = 2.0 / grid_n
    coords = -1.0 + np.arange(grid_n) * step
    X, Y = np.meshgrid(coords, coords)  # row by row: y outer, x inner
    disk = X * X + Y * Y <= 1.0 + 1e-12
    out: list[MotionPoint] = []
    lines: list[MotionPoint] = []
    for alpha in alphas.tolist():
        facets = _closest_facet_pair(minkowski_difference(alpha, enlargement))
        keep = disk & np.logical_or.reduce([n[0] * X + n[1] * Y >= c - 1e-12 for n, c in facets])
        out += [MotionPoint.from_xy(x, y, alpha) for x, y in zip(X[keep].tolist(), Y[keep].tolist())]
        if facet_lines:
            for n, c in facets:
                reach = math.sqrt(max(0.0, 1.0 - c * c))
                t = np.arange(-reach, reach + 1e-12, step)
                xs, ys = c * n[0] - t * n[1], c * n[1] + t * n[0]
                lines += [MotionPoint.from_xy(x, y, alpha) for x, y in zip(xs.tolist(), ys.tolist())
                          if math.hypot(x, y) <= 1.0 + 1e-12]
    return out + lines
