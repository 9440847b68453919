"""Helpers shared by the tests: a complex's sorted simplices of one
dimension, brute-force chain enumeration for the order complexes (reduced
nerves, barycentric subdivisions) that the package does not build, the
inclusion map of a subcomplex and the map a simplicial map induces on
homology through chain complexes built from simplices, dense SNF
transforms and kernels read off the sparse lines, two references (the
Bareiss determinant and the two-normal-form bijectivity test of a group
map), and a cover's fattening (the total complex of its intersection
diagram)."""

from nerveforge.covers import nerve
from nerveforge.homology import (TotalComplex, chain_map_of_simplicial, degree_homology,
                                 induced_map_on_homology)
from nerveforge.simplicial import SimplicialMap
from nerveforge.snf import smith_normal_form


def simplices_of_dim(c, d):
    """The d-simplices of the complex ``c``, sorted."""
    return sorted(s for s in c.simplices if len(s) == d + 1)


def scanned_chains(elements):
    """Every strictly increasing chain of ``elements`` (vertex tuples) under
    inclusion, each stored sorted, extended by a scan of all elements."""
    chains = set()

    def grow(chain):
        chains.add(tuple(sorted(chain)))
        for s in elements:
            if set(chain[-1]) < set(s):
                grow(chain + [s])

    for s in elements:
        grow([s])
    return frozenset(chains)


def inclusion(source, target):
    """The simplicial inclusion of ``source`` into ``target``; a simplex of
    ``source`` that is not in ``target`` raises ``ComplexError``."""
    return SimplicialMap(source, target, {v: v for v in source.vertices})


def induced_homology_map(f, d):
    """Matrix of H_d(f) in the generator bases, with the chain complexes of
    f's source and target built from their simplices."""
    src, dst, cm = chain_map_of_simplicial(f)
    return induced_map_on_homology(cm, degree_homology(src, d), degree_homology(dst, d))


def dense(lines, n, as_rows):
    """The n×n matrix whose rows (or columns) are the sparse ``lines``, or
    None when they were not requested."""
    if lines is None:
        return None
    out = [[0] * n for _ in range(n)]
    for k, line in enumerate(lines):
        for x, v in line.items():
            if as_rows:
                out[k][x] = v
            else:
                out[x][k] = v
    return out


def dense_transforms(res):
    """``(U, V, U⁻¹, V⁻¹)`` of an ``SNFResult``."""
    return (dense(res.u_rows, res.rows, True), dense(res.v_cols, res.cols, False),
            dense(res.u_inv_cols, res.rows, False), dense(res.v_inv_rows, res.cols, True))


def diagonal_matrix(res):
    """The rows × cols matrix D = U @ m @ V of an ``SNFResult``."""
    d = [[0] * res.cols for _ in range(res.rows)]
    for i, f in enumerate(res.factors):
        d[i][i] = f
    return d


def kernel_basis(matrix):
    """Basis of the right integer kernel {x : matrix @ x = 0}, read off the
    columns rank.. of V; ``matrix`` has at least one row and one column."""
    n = len(matrix[0])
    res = smith_normal_form(matrix, want_u=False, want_v=True)
    return [[col.get(i, 0) for i in range(n)] for col in res.v_cols[res.rank:]]


def determinant(matrix) -> int:
    """Reference: exact determinant of a square ``int`` matrix, by Bareiss
    fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(r) for r in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def group_map_is_bijective(matrix, source_orders, target_orders) -> bool:
    """Reference: bijectivity of a map of finitely generated abelian groups
    presented by generator orders (0 = free) and a coordinate matrix, from
    two normal forms: one for onto, one for a trivial kernel.  It needs no
    relation between the two groups' orders."""
    rows, cols = len(target_orders), len(source_orders)
    if rows == 0 and cols == 0:
        return True
    # surjective: columns of [matrix | diag(target_orders)] generate Z^rows
    aug = [list(matrix[i]) + [target_orders[i] if j == i else 0 for j in range(rows)]
           for i in range(rows)]
    if rows:
        res = smith_normal_form(aug, want_u=False, want_v=False)
        if res.rank < rows or any(f != 1 for f in res.factors):
            return False
    # injective: kernel of the induced map is trivial
    stacked = [list(matrix[i]) + [-(target_orders[i]) if j == i else 0 for j in range(rows)]
               for i in range(rows)]
    if not stacked:
        # target trivial: injective iff source trivial
        return all(o == 1 for o in source_orders) or cols == 0
    res = smith_normal_form(stacked, want_u=False)
    for col in res.v_cols[res.rank:]:
        for i, o in enumerate(source_orders):
            xi = col.get(i, 0)
            if o == 0:
                if xi != 0:
                    return False
            elif xi % o:
                return False
    return True


def fattening(cover):
    """Total complex of the cover's intersection diagram over its nerve; its
    homology is the homology of the union of the pieces."""
    nv = nerve(cover)
    return TotalComplex(nv.intersections, nv.intersections.get)
