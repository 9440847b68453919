import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerveforge.homology import (
    InducedMap,
    chain_complex,
    degree_homology,
    induced_map_is_isomorphism,
)
from nerveforge.simplicial import SimplicialMap
from nerveforge.snf import (
    SNFResult,
    _Sparse,
    _row_dicts,
    add_to_echelon,
    echelon,
    identity_matrix,
    mat_mul,
    rational_rank,
    reduce_by_echelon,
    smith_normal_form,
    solve_integer,
)

from chain_helpers import (dense_transforms, determinant, diagonal_matrix, induced_homology_map,
                           kernel_basis)
from stock_complexes import projective_plane_6, torus_7


def snf_invariant_factors_oracle(matrix):
    """Independent oracle: elementary reduction without pivoting strategy.

    Determinantal-divisor definition: d_k = gcd of all k x k minors, and the
    k-th invariant factor is d_k / d_{k-1}.
    """
    from itertools import combinations
    from math import gcd

    m, n = len(matrix), len(matrix[0]) if matrix else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, determinant(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def check_decomposition(matrix, res):
    u, v, _, _ = dense_transforms(res)
    assert mat_mul(mat_mul(u, matrix), v) == diagonal_matrix(res)
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1


def test_identity():
    res = smith_normal_form([[1, 0], [0, 1]])
    assert res.factors == (1, 1)
    check_decomposition([[1, 0], [0, 1]], res)


def test_small_example():
    m = [[2, 4], [6, 8]]
    res = smith_normal_form(m)
    assert res.factors == (2, 4)
    assert res.factors == snf_invariant_factors_oracle(m)
    check_decomposition(m, res)


def test_zero_matrix():
    res = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert res.factors == ()
    assert res.rank == 0


def test_empty_matrix():
    assert smith_normal_form([]).factors == ()


def test_divisibility_chain_and_oracle_random():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(mat)
        for a, b in zip(res.factors, res.factors[1:]):
            assert b % a == 0
        assert res.factors == snf_invariant_factors_oracle(mat)
        check_decomposition(mat, res)


def random_unimodular(n, rng):
    t = identity_matrix(n)
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            t[i][k] += c * t[j][k]
    return t


def test_invariance_under_unimodular_multiplication():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        base = smith_normal_form(mat, want_u=False, want_v=False).factors
        left = random_unimodular(m, rng)
        right = random_unimodular(n, rng)
        twisted = mat_mul(left, mat_mul(mat, right))
        assert smith_normal_form(twisted, want_u=False, want_v=False).factors == base


def test_transform_inverses():
    rng = random.Random(3)
    for _ in range(20):
        mat = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(3)]
        u, v, u_inv, v_inv = dense_transforms(smith_normal_form(mat))
        assert mat_mul(u, u_inv) == identity_matrix(3)
        assert mat_mul(v, v_inv) == identity_matrix(3)


def test_kernel_and_solve():
    mat = [[1, 2, 3], [2, 4, 6]]
    ker = kernel_basis(mat)
    assert len(ker) == 2
    for col in ker:
        assert all(sum(mat[i][j] * col[j] for j in range(3)) == 0 for i in range(2))
    x = solve_integer([[2, 0], [0, 3]], [4, 9])
    assert x == [2, 3]
    assert solve_integer([[2]], [3]) is None


def test_ranks_agree():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        rank = smith_normal_form(mat, want_u=False, want_v=False).rank
        assert rank == rational_rank(mat)


# ---------------------------------------------------------------------------
# the heap pivot against a full scan, and the sparse transform lines
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=150, deadline=None)
# few magnitudes, so pivot ties between equal |v| are common
small_entries = st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3])


def scan_smallest(self, t):
    """Reference pivot: the least (|v|, i, j) over a full scan of the block."""
    return min(((abs(v), i, j) for i, row in self.rows.items() if i >= t
                for j, v in row.items() if j >= t), default=None)


@st.composite
def tie_matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    mat = [[draw(small_entries) for _ in range(n)] for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        mat[i] = [0] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in mat:
            row[j] = 0
    return mat


def all_transforms(mat):
    res = smith_normal_form(mat)
    return res.factors, *dense_transforms(res)


@SETTINGS
@given(tie_matrices())
def test_heap_pivots_match_full_scan(mat):
    heap_out = all_transforms(mat)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Sparse, "smallest_in_region", scan_smallest)
        scan_out = all_transforms(mat)
    assert heap_out == scan_out


@SETTINGS
@given(tie_matrices(), st.sampled_from([1, 2, 0]))
@example([[0, 0, 0], [0, 0, 0]], 1)
@example([[1, 1, 0], [0, 0, 0], [1, 0, 1], [0, 1, -1]], 1)
@example([[2, 4], [6, 8], [0, 0]], 1)
def test_factor_only_snf_matches_the_transform_snf(mat, scale):
    """The factor-only form eliminates the ±1 pivots first; its factors are
    those of the forms with transforms. Scaling by 2 leaves no unit entry,
    and by 0 every entry zero; ``tie_matrices`` has empty rows and
    columns."""
    mat = [[scale * v for v in row] for row in mat]
    expected = smith_normal_form(mat).factors
    assert smith_normal_form(mat, want_u=False).factors == expected
    assert smith_normal_form(mat, want_u=False, want_v=False).factors == expected


@pytest.mark.parametrize("cx", [torus_7(), projective_plane_6()], ids=["torus", "rp2"])
def test_factor_only_snf_of_boundaries_matches_the_transform_snf(cx):
    """On boundary matrices, where unit pivots make fill-in."""
    cc = chain_complex(cx)
    for d in cc.degrees():
        mat = cc.dense_boundary(d)
        if mat and mat[0]:
            assert (smith_normal_form(mat, want_u=False, want_v=False).factors
                    == smith_normal_form(mat).factors)


sparse_ops = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 4), st.integers(0, 4), small_entries),
    st.tuples(st.just("add_row"), st.integers(0, 4), st.integers(0, 4), small_entries),
    st.tuples(st.just("add_col"), st.integers(0, 4), st.integers(0, 4), small_entries),
    st.tuples(st.just("swap_rows"), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just("swap_cols"), st.integers(0, 4), st.integers(0, 4)),
)


@SETTINGS
@given(st.lists(st.lists(small_entries, min_size=5, max_size=5), min_size=5, max_size=5),
       st.lists(st.tuples(sparse_ops, st.booleans()), max_size=30))
def test_smallest_in_region_after_random_ops(dense, steps):
    a = _Sparse(_row_dicts(dense))
    t = 0
    for (name, *args), advance in steps:
        if name in ("add_row", "add_col") and args[0] == args[1]:
            continue  # adding a line to itself is not an elementary operation
        getattr(a, name)(*args)
        # the region only shrinks, as in the elimination
        t += advance
        assert a.smallest_in_region(t) == scan_smallest(a, t)


def test_transform_callers_read_sparse_lines():
    # SNFResult has no dense transform view for a caller to build
    assert not any(hasattr(SNFResult, name) for name in ("u", "v", "u_inv", "v_inv"))
    rp2 = projective_plane_6()
    cc = chain_complex(rp2)
    h = degree_homology(cc, 1)
    assert h.orders == [2]
    assert h.coordinates(h.generators[0]) == [1]
    assert degree_homology(chain_complex(torus_7()), 1).orders == [0, 0]
    identity = SimplicialMap(rp2, rp2, {v: v for v in rp2.vertices})
    assert induced_map_is_isomorphism(induced_homology_map(identity, 1))
    # Z² -> Z by (1, 0) is onto, but Z² and Z are not isomorphic
    assert not induced_map_is_isomorphism(InducedMap([[1, 0]], [0, 0], [0], is_zero=False))
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve_integer([[2]], [3]) is None


# ---------------------------------------------------------------------------
# the fraction-free echelon against a Fraction reference
# ---------------------------------------------------------------------------


def fraction_rank(matrix):
    """Reference rank: Gauss-Jordan elimination over Fractions."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][j]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j] / pv
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def sparse_rational_matrices(draw):
    """0-6 rows of 1-7 entries, mostly zeros, denominators 1-6; sometimes a
    last row that is a combination of two others."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entries = st.one_of(st.just(0), st.just(0), st.integers(-4, 4),
                        st.fractions(-3, 3, max_denominator=6))
    mat = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.fractions(-2, 2, max_denominator=6))
        mat.append([a * x + b * y for x, y in zip(mat[i], mat[j])])
    return mat


@SETTINGS
@given(sparse_rational_matrices())
def test_rational_rank_matches_fraction_reference(mat):
    assert rational_rank(mat) == fraction_rank(mat)


@SETTINGS
@given(sparse_rational_matrices())
def test_echelon_rows_are_primitive_and_reduced(mat):
    rows = echelon(mat)
    pivots = [p for p, _ in rows]
    assert pivots == sorted(set(pivots))
    for p, row in rows:
        assert all(isinstance(x, int) for x in row)
        assert gcd(*row) == 1
        assert next(j for j, x in enumerate(row) if x) == p
        assert all(row[q] == 0 for q in pivots if q != p)


@SETTINGS
@given(sparse_rational_matrices(), st.lists(st.integers(-3, 3), min_size=7, max_size=7))
def test_add_to_echelon_rejects_the_span_only(mat, coeffs):
    n = len(mat[0]) if mat else 1
    rows = dict(echelon(mat))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows.values())) for j in range(n)]
    assert not add_to_echelon(rows, combo)
    assert rows == dict(echelon(mat))
    unit = [0] * n
    unit[coeffs[0] % n] = 1
    grows = fraction_rank(list(rows.values()) + [unit]) > len(rows)
    assert add_to_echelon(rows, unit) == grows
    assert len(rows) == fraction_rank(mat + [unit])


@SETTINGS
@given(sparse_rational_matrices(), st.lists(st.integers(-3, 3), min_size=7, max_size=7))
def test_reduce_by_echelon_is_zero_on_the_span_only(mat, entries):
    n = len(mat[0]) if mat else 1
    rows = dict(echelon(mat))
    v = entries[:n]
    left = reduce_by_echelon(rows, v)
    assert rows == dict(echelon(mat)) and v == entries[:n]
    assert all(left[p] == 0 for p in rows)
    assert (not any(left)) == (fraction_rank(list(rows.values()) + [v]) == len(rows))
