"""Stock simplicial complexes that the tests compute with: simplices and
their boundary spheres, the 7-vertex torus, the 6-vertex projective plane,
cycles, an annulus and a disk on a cycle."""

from itertools import combinations

from nerveforge.simplicial import SimplicialComplex


def full_simplex(n_vertices: int) -> SimplicialComplex:
    return SimplicialComplex.from_maximal([tuple(range(n_vertices))])


def simplex_boundary_complex(n_vertices: int) -> SimplicialComplex:
    """Boundary of the (n-1)-simplex, a triangulated S^{n-2}."""
    verts = tuple(range(n_vertices))
    return SimplicialComplex.from_maximal(list(combinations(verts, n_vertices - 1)))


def torus_7() -> SimplicialComplex:
    """Standard 7-vertex triangulation of the torus."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex.from_maximal(tris)


def projective_plane_6() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the real projective plane."""
    tris = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    return SimplicialComplex.from_maximal(tris)


def cycle_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex.from_maximal(
        [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    )


def annulus() -> SimplicialComplex:
    """Six-vertex triangulated annulus; boundary circles (0,1,2) and (3,4,5)."""
    tris = [
        (0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (0, 2, 3), (2, 3, 5),
    ]
    return SimplicialComplex.from_maximal(tris)


def disk_on_circle(n: int, apex="c") -> SimplicialComplex:
    """Cone over the n-cycle: a disk whose boundary is cycle_complex(n)."""
    # apex is a string; keep vertex ids homogeneous by stringifying
    tris = [tuple(sorted((str(i), str((i + 1) % n), apex))) for i in range(n)]
    return SimplicialComplex.from_maximal(tris)
