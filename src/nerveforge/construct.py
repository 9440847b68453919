"""Paths, grids, the two-ball gluing and the periodic box-union families that
the scenario generators build from."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product

from .lattices import LatticeSubgroup
from .periodic import Box, BoxUnion
from .simplicial import SimplicialComplex, close_downward


def path_complex(n_edges: int) -> SimplicialComplex:
    return SimplicialComplex.from_maximal([(i, i + 1) for i in range(n_edges)])


def _full_subcomplex(c: SimplicialComplex, inside: set) -> frozenset:
    """The simplices of ``c`` with every vertex in ``inside``.

    A face of such a simplex has the same property, so the full
    subcomplex of a closed complex is closed, and it is built without
    ``close_downward``."""
    return frozenset(s for s in c.simplices if inside.issuperset(s))


def interval_subcomplex(path: SimplicialComplex, a: int, b: int) -> frozenset:
    """Full subcomplex of a path on vertices a..b."""
    return _full_subcomplex(path, {v for v in path.vertices if a <= v <= b})


def grid_complex(nx: int, ny: int) -> SimplicialComplex:
    """Triangulated nx-by-ny grid; vertices are (i, j) pairs."""
    tris = []
    for i in range(nx):
        for j in range(ny):
            tris.append(((i, j), (i + 1, j), (i, j + 1)))
            tris.append(((i + 1, j), (i, j + 1), (i + 1, j + 1)))
    return SimplicialComplex.from_maximal(tris)


def rect_subcomplex(grid: SimplicialComplex, i0: int, i1: int, j0: int, j1: int) -> frozenset:
    """Full subcomplex on grid vertices with i0 <= i <= i1, j0 <= j <= j1."""
    return _full_subcomplex(grid, {(i, j) for i, j in grid.vertices
                                   if i0 <= i <= i1 and j0 <= j <= j1})


def two_ball_gluing():
    """Two solid balls glued along a cone: the union houses the boundary
    2-sphere of the 4-simplex spanned by vertices 1..4.

    Returns (ambient, u_simplices, v_simplices, membrane, cycle) where the
    cycle is the boundary of the tetrahedron (1,2,3,4) as a signed chain,
    u and v are solid 3-balls with H_2 = 0, and membrane = u ∩ v is the cone
    from vertex 5 over the square 1-3-2-4 (contractible).
    """
    u = close_downward([(1, 2, 3, 5), (1, 2, 4, 5)])
    v = close_downward([(1, 3, 4, 5), (2, 3, 4, 5)])
    ambient = SimplicialComplex(u | v)
    membrane = u & v
    cycle = {
        (2, 3, 4): 1,
        (1, 3, 4): -1,
        (1, 2, 4): 1,
        (1, 2, 3): -1,
    }
    return ambient, u, v, membrane, cycle


# ---------------------------------------------------------------------------
# periodic box-union families
# ---------------------------------------------------------------------------


def strip_boxes(spacing=2, boxes_per_period=2, dim=2, width=None, overlap=None):
    """Connected Z-periodic solid strip; no box meets its own translates."""
    width = F(1, 2) if width is None else F(width)
    overlap = F(1, 4) if overlap is None else F(overlap)
    lattice = LatticeSubgroup.from_generators([[spacing] + [0] * (dim - 1)], dim)
    step = F(spacing, boxes_per_period)
    if step + 2 * overlap >= spacing:
        raise ValueError("boxes would overlap their own translates")
    boxes = []
    for i in range(boxes_per_period):
        lo = [i * step - overlap] + [-width] * (dim - 1)
        hi = [(i + 1) * step + overlap] + [width] * (dim - 1)
        boxes.append(Box.of(lo, hi))
    return BoxUnion(dim=dim, lattice=lattice, boxes=tuple(boxes))


def hollow_tube_boxes(spacing=2, half_core=None):
    """Z-periodic hollow square tube along the x axis in R^3."""
    h = F(1, 2) if half_core is None else F(half_core)
    lattice = LatticeSubgroup.from_generators([[spacing, 0, 0]], 3)
    walls_yz = [
        ((-3 * h, h), (3 * h, 3 * h)),
        ((-3 * h, -3 * h), (3 * h, -h)),
        ((-3 * h, -3 * h), (-h, 3 * h)),
        ((h, -3 * h), (3 * h, 3 * h)),
    ]
    length = F(3 * spacing, 4)
    step = F(spacing, 2)
    boxes = []
    for (ylo, zlo), (yhi, zhi) in walls_yz:
        for k in range(2):
            xlo = k * step - F(spacing, 8)
            boxes.append(Box.of([xlo, ylo, zlo], [xlo + length, yhi, zhi]))
    return BoxUnion(dim=3, lattice=lattice, boxes=tuple(boxes))


def slab_boxes(spacing=2, thickness=None, overlap=None):
    """Z^2-periodic solid slab in R^3 from overlapping boxes."""
    thickness = F(1, 2) if thickness is None else F(thickness)
    overlap = F(1, 4) if overlap is None else F(overlap)
    step = F(spacing, 2)
    if step + 2 * overlap >= spacing:
        raise ValueError("boxes would overlap their own translates")
    lattice = LatticeSubgroup.from_generators([[spacing, 0, 0], [0, spacing, 0]], 3)
    boxes = []
    for i in range(2):
        for j in range(2):
            lo = [i * step - overlap, j * step - overlap, -thickness]
            hi = [(i + 1) * step + overlap, (j + 1) * step + overlap, thickness]
            boxes.append(Box.of(lo, hi))
    return BoxUnion(dim=3, lattice=lattice, boxes=tuple(boxes))


def tiling_boxes(dim=2, spacing=2, overlap=None):
    """Full-rank overlapping box tiling of R^dim."""
    overlap = F(1, 4) if overlap is None else F(overlap)
    step = F(spacing, 2)
    if step + 2 * overlap >= spacing:
        raise ValueError("boxes would overlap their own translates")
    lattice = LatticeSubgroup.from_generators(
        [[spacing if i == j else 0 for j in range(dim)] for i in range(dim)], dim
    )
    boxes = []
    for offsets in product(range(2), repeat=dim):
        lo = [o * step - overlap for o in offsets]
        hi = [(o + 1) * step + overlap for o in offsets]
        boxes.append(Box.of(lo, hi))
    return BoxUnion(dim=dim, lattice=lattice, boxes=tuple(boxes))
