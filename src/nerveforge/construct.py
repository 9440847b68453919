"""Paths, grids, the two-ball gluing and the periodic box-union families that
the scenario generators build from.

Every periodic family is one call of ``lattice_boxes``: a cubic lattice on
the first axes, a fixed number of overlapping intervals per period along
each of them, and a list of cross-sections on the remaining axes."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product

from .lattices import LatticeSubgroup
from .periodic import Box, BoxUnion, PeriodicError
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


def lattice_boxes(spacing, rank, sections, per_axis, overlap=None) -> BoxUnion:
    """The box union of the lattice spacing·Z^rank on the first ``rank``
    axes, the builder of every family below.

    Each period of a lattice axis holds ``per_axis`` intervals of length
    spacing / per_axis, each widened by ``overlap`` (default 1/4) at both
    ends. Each cross-section ``(lo, hi)`` on the other axes gives one box
    per product of intervals, the sections outer and the interval offsets
    inner. A family with more axes or another cross-section is one more
    call. Raises ``PeriodicError`` when the widened intervals would meet
    their own translates."""
    overlap = F(1, 4) if overlap is None else F(overlap)
    step = F(spacing, per_axis)
    if step + 2 * overlap >= spacing:
        raise PeriodicError("boxes would overlap their own translates")
    dim = rank + len(sections[0][0])
    lattice = LatticeSubgroup.from_generators(
        [[spacing if i == j else 0 for j in range(dim)] for i in range(rank)], dim)
    boxes = tuple(
        Box.of([o * step - overlap for o in offsets] + list(lo),
               [(o + 1) * step + overlap for o in offsets] + list(hi))
        for lo, hi in sections for offsets in product(range(per_axis), repeat=rank))
    return BoxUnion(dim=dim, lattice=lattice, boxes=boxes)


def strip_boxes(spacing=2, boxes_per_period=2, dim=2, width=None, overlap=None):
    """Connected Z-periodic solid strip; no box meets its own translates."""
    width = F(1, 2) if width is None else F(width)
    return lattice_boxes(spacing, 1, [((-width,) * (dim - 1), (width,) * (dim - 1))],
                         boxes_per_period, overlap)


def hollow_tube_boxes(spacing=2, half_core=None):
    """Z-periodic hollow square tube along the x axis in R^3: four walls
    around the core (-h, h)^2 of the (y, z) plane."""
    h = F(1, 2) if half_core is None else F(half_core)
    walls = [((-3 * h, h), (3 * h, 3 * h)),
             ((-3 * h, -3 * h), (3 * h, -h)),
             ((-3 * h, -3 * h), (-h, 3 * h)),
             ((h, -3 * h), (3 * h, 3 * h))]
    return lattice_boxes(spacing, 1, walls, 2, F(spacing, 8))


def slab_boxes(spacing=2, thickness=None, overlap=None):
    """Z^2-periodic solid slab in R^3 from overlapping boxes."""
    t = F(1, 2) if thickness is None else F(thickness)
    return lattice_boxes(spacing, 2, [((-t,), (t,))], 2, overlap)


def tiling_boxes(dim=2, spacing=2, overlap=None):
    """Full-rank overlapping box tiling of R^dim."""
    return lattice_boxes(spacing, dim, [((), ())], 2, overlap)
