"""Helpers shared by the tests: a complex's sorted simplices of one
dimension, brute-force chain enumeration for the order complexes (reduced
nerves, barycentric subdivisions) that the package does not build, the
inclusion map of a subcomplex and the map a simplicial map induces on
homology through chain complexes built from simplices, the check that a
restricted chain complex is the one built from the subcomplex, dense SNF
transforms and kernels read off the sparse lines, and a cover's fattening
(the total complex of its intersection diagram)."""

from nerveforge.covers import nerve
from nerveforge.homology import (TotalComplex, chain_complex, chain_map_of_simplicial,
                                 degree_homology, induced_map_on_homology,
                                 restricted_chain_complex, simplicial_chain_map)
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


def assert_restriction_matches(sub, c):
    """``restricted_chain_complex`` of ``chain_complex(c)`` to ``sub`` has the
    bases and boundary columns of ``chain_complex(sub)``, in the same order,
    and its chain map is the inclusion's."""
    cc = chain_complex(c)
    got, cm = restricted_chain_complex(cc, sub)
    ref = chain_complex(sub)
    assert list(got.basis.items()) == list(ref.basis.items())
    assert list(got.boundaries) == list(ref.boundaries)
    for d, cols in ref.boundaries.items():
        assert list(got.boundaries[d].items()) == list(cols.items())
    assert cm == simplicial_chain_map(inclusion(sub, c), ref, cc)


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


def fattening(cover):
    """Total complex of the cover's intersection diagram over its nerve; its
    homology is the homology of the union of the pieces."""
    nv = nerve(cover)
    return TotalComplex(nv.intersections, nv.intersections.get)
