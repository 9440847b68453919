"""Property tests for Smith-form transforms and homology coordinates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerveforge.construct import full_simplex, projective_plane_6, torus_7
from nerveforge.homology import (
    ChainComplexError,
    IntegerChainComplex,
    chain_complex,
    chain_map_of_simplicial,
    degree_homology,
    homology,
    simplicial_chain_map,
)
from nerveforge.simplicial import SimplicialComplex, SimplicialMap
from nerveforge.snf import identity_matrix, kernel_basis, mat_mul, smith_normal_form

SETTINGS = settings(max_examples=60, deadline=None)
entries = st.integers(-6, 6)


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


def sparse_columns(dense_cols):
    return {j: {i: v for i, v in enumerate(col) if v} for j, col in enumerate(dense_cols)}


@st.composite
def torsion_complexes(draw):
    """C_2 -> C_1 -> C_0 with ∂_1 random and ∂_2 random integer combinations
    of a kernel basis of ∂_1, so degree 1 often carries torsion."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(1, 4))
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    ker = kernel_basis(a) if m else identity_matrix(n)
    k = draw(st.integers(0, 3))
    up = []
    for _ in range(k):
        coeffs = [draw(st.integers(-3, 3)) for _ in ker]
        up.append([sum(c * v[i] for c, v in zip(coeffs, ker)) for i in range(n)])
    a_cols = [[a[i][j] for i in range(m)] for j in range(n)]
    return IntegerChainComplex(
        basis={0: list(range(m)), 1: list(range(n)), 2: list(range(k))},
        boundaries={1: sparse_columns(a_cols), 2: sparse_columns(up)},
    )


@st.composite
def complexes(draw, max_vertices=6):
    nv = draw(st.integers(1, max_vertices))
    facets = draw(st.lists(
        st.lists(st.integers(0, nv - 1), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=6))
    return SimplicialComplex.from_maximal(facets)


chain_complexes = st.one_of(
    torsion_complexes(),
    complexes().map(chain_complex),
    st.sampled_from([projective_plane_6(), torus_7()]).map(chain_complex),
)


@SETTINGS
@given(matrices())
def test_snf_transforms(mat):
    res = smith_normal_form(mat, want_u=True, want_v=True,
                            want_u_inv=True, want_v_inv=True)
    assert mat_mul(res.u, mat_mul(mat, res.v)) == res.diagonal_matrix()
    assert mat_mul(res.v, res.v_inv) == identity_matrix(res.cols)
    assert mat_mul(res.u, res.u_inv) == identity_matrix(res.rows)
    assert all(f > 0 for f in res.factors)
    assert all(b % a == 0 for a, b in zip(res.factors, res.factors[1:]))


def combine(cc, d, h, gen_coeffs, bnd_coeffs):
    """Σ a_i g_i + Σ b_j ∂e_j as a dense degree-d vector."""
    x = [0] * cc.dim(d)
    for a, g in zip(gen_coeffs, h.generators):
        for i, v in enumerate(g):
            x[i] += a * v
    up = cc.boundaries.get(d + 1, {})
    for j, b in enumerate(bnd_coeffs):
        for i, v in up.get(j, {}).items():
            x[i] += b * v
    return x


@SETTINGS
@given(chain_complexes, st.data())
def test_coordinates_recover_coefficients(cc, data):
    coeffs = st.integers(-5, 5)
    for d in cc.degrees():
        h = degree_homology(cc, d)
        a = data.draw(st.lists(coeffs, min_size=len(h.generators), max_size=len(h.generators)))
        b = data.draw(st.lists(coeffs, min_size=cc.dim(d + 1), max_size=cc.dim(d + 1)))
        expect = [x % o if o else x for x, o in zip(a, h.orders)]
        assert h.coordinates(combine(cc, d, h, a, b)) == expect
        # a boundary is the zero class
        assert h.coordinates(combine(cc, d, h, [0] * len(a), b)) == [0] * len(a)


@SETTINGS
@given(chain_complexes)
def test_orders_match_homology(cc):
    summary = homology(cc)
    for d in cc.degrees():
        if cc.dim(d):
            assert degree_homology(cc, d).summary_entry() == (
                summary.betti(d), summary.torsion(d))


@SETTINGS
@given(chain_complexes, st.data())
def test_non_cycle_has_no_coordinates(cc, data):
    for d in cc.degrees():
        bnd = cc.boundaries.get(d, {}) if cc.dim(d - 1) else {}
        moved = [i for i in range(cc.dim(d)) if any(bnd.get(i, {}).values())]
        if not moved:
            continue
        h = degree_homology(cc, d)
        x = combine(cc, d, h, [1] * len(h.generators), [])
        x[data.draw(st.sampled_from(moved))] += 1
        assert h.coordinates(x) is None
        with pytest.raises(ChainComplexError):
            h.class_is_zero(x)


@st.composite
def simplicial_maps(draw):
    c = draw(complexes())
    if draw(st.booleans()):
        facets = sorted(s for s in c.simplices
                        if not any(set(s) < set(t) for t in c.simplices))
        kept = draw(st.lists(st.sampled_from(facets), min_size=1, unique=True))
        return SimplicialMap.inclusion(SimplicialComplex.from_maximal(kept), c)
    # any vertex map into a full simplex is simplicial
    k = draw(st.integers(1, 4))
    target = full_simplex(k)
    verts = sorted(target.vertices)
    return SimplicialMap(c, target, {v: draw(st.sampled_from(verts)) for v in c.vertices})


def push(chains, cols):
    """Image of the chain {col: value} under sparse columns."""
    out = {}
    for col, v in chains.items():
        for row, w in cols.get(col, {}).items():
            out[row] = out.get(row, 0) + v * w
    return {k: v for k, v in out.items() if v}


@SETTINGS
@given(simplicial_maps())
def test_chain_map_from_prebuilt_complexes(f):
    src, dst, cm = chain_map_of_simplicial(f)
    assert simplicial_chain_map(f, chain_complex(f.source), chain_complex(f.target)) == cm
    # f commutes with the boundary
    for d in src.degrees():
        for j in range(src.dim(d)):
            e = {j: 1}
            assert push(push(e, src.boundaries.get(d, {})), cm.get(d - 1, {})) == push(
                push(e, cm.get(d, {})), dst.boundaries.get(d, {}))
