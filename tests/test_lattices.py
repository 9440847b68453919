import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nerveforge.lattices import (LatticeSubgroup, hermite_normal_form, intersect, join,
                                 virtually_contains)
from nerveforge.snf import smith_normal_form

from chain_helpers import determinant


def L(rows, d=2):
    return LatticeSubgroup.from_generators(rows, d)


Z2 = L([[1, 0], [0, 1]])


def test_hnf_canonical_examples():
    assert L([[2, 0], [0, 2]]).basis == ((2, 0), (0, 2))
    assert L([[1, 1], [1, -1]]).basis == ((1, 1), (0, 2))
    assert L([[1, 1], [1, -1]]).rank == 2
    assert L([]).rank == 0


def test_hnf_uniqueness_under_regeneration():
    rng = random.Random(0)
    for _ in range(60):
        d = rng.randrange(2, 4)
        rows = [[rng.randrange(-5, 6) for _ in range(d)] for _ in range(rng.randrange(1, 4))]
        g = LatticeSubgroup.from_generators(rows, d)
        # random unimodular recombination of the generators
        mixed = [list(r) for r in rows]
        for _ in range(10):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        coeffs = [rng.randrange(-2, 3) for _ in rows]
        extra = [[sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(d)]]
        g2 = LatticeSubgroup.from_generators(mixed + extra, d)
        assert g == g2


def test_membership_by_back_substitution():
    g = L([[1, 1], [0, 2]])
    assert g.contains_vector([1, 1])
    assert g.contains_vector([1, 3])
    assert not g.contains_vector([1, 2])
    assert g.contains_vector([0, 0])


def test_join_examples():
    a = L([[2, 0]])
    assert join(a, L([])) == a
    j = join(L([[2, 0]]), L([[0, 3]]))
    assert j.rank == 2
    assert j.basis == ((2, 0), (0, 3))  # index 6 in Z^2


def test_join_commutative_idempotent_associative():
    rng = random.Random(1)
    for _ in range(200):
        d = rng.randrange(2, 4)
        def rnd():
            return LatticeSubgroup.from_generators(
                [[rng.randrange(-4, 5) for _ in range(d)]
                 for _ in range(rng.randrange(0, 3))], d)
        a, b, c = rnd(), rnd(), rnd()
        assert join(a, b) == join(b, a)
        assert join(a, a) == a
        assert join(join(a, b), c) == join(a, join(b, c))
        assert join(a, b).contains(a) and join(a, b).contains(b)


def test_intersection():
    a = L([[2, 0], [0, 1]])
    b = L([[3, 0], [0, 1]])
    meet = intersect(a, b)
    assert meet == L([[6, 0], [0, 1]])
    assert intersect(a, L([])).is_trivial()
    diag = L([[1, 1]])
    horiz = L([[1, 0]])
    assert intersect(diag, horiz).is_trivial()


def test_intersection_random_membership():
    rng = random.Random(3)
    for _ in range(60):
        d = rng.randrange(2, 4)
        a = LatticeSubgroup.from_generators(
            [[rng.randrange(-4, 5) for _ in range(d)] for _ in range(2)], d)
        b = LatticeSubgroup.from_generators(
            [[rng.randrange(-4, 5) for _ in range(d)] for _ in range(2)], d)
        m = intersect(a, b)
        for r in m.basis:
            assert a.contains_vector(r) and b.contains_vector(r)
        # intersection is the largest such: a few random common vectors live in m
        for r in a.basis:
            if b.contains_vector(r):
                assert m.contains_vector(r)


def test_virtually_contains():
    assert virtually_contains(L([[2, 0], [0, 2]]), Z2)
    assert not virtually_contains(L([[1, 0]]), Z2)
    assert virtually_contains(Z2, L([[5, 0]]))


def coefficients(g, vec):
    """Coefficients of a member ``vec`` over the HNF basis of ``g``, by
    back-substitution."""
    v, out = list(vec), []
    for row in g.basis:
        col = next(j for j, x in enumerate(row) if x)
        q = v[col] // row[col]
        out.append(q)
        v = [x - q * y for x, y in zip(v, row)]
    assert not any(v)
    return out


def meet_has_finite_index(big, small):
    """Reference: small ∩ big has finite index in small, read off the
    intersection and the determinant of its change of basis into small."""
    if small.is_trivial():
        return True
    meet = intersect(big, small)
    if meet.rank < small.rank:
        return False
    return determinant([coefficients(small, r) for r in meet.basis]) != 0


@st.composite
def lattice_pairs(draw):
    """(big, small) in Z^1..Z^4; small is often built from multiples and
    combinations of big's generators, so containment up to finite index is
    common."""
    d = draw(st.integers(1, 4))
    vectors = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    rows = draw(st.lists(vectors, max_size=3))
    small = draw(st.lists(vectors, max_size=2))
    if rows and draw(st.booleans()):
        coeffs = st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows))
        for c in draw(st.lists(coeffs, min_size=1, max_size=3)):
            small.append([sum(k * r[j] for k, r in zip(c, rows)) for j in range(d)])
    return L(rows, d), L(small, d)


@settings(max_examples=300, deadline=None)
@given(lattice_pairs())
def test_virtually_contains_matches_the_meet_index(pair):
    big, small = pair
    assert virtually_contains(big, small) == meet_has_finite_index(big, small)


# ---------------------------------------------------------------------------
# intersect against the row-kernel route, and HNF canonicity


def row_kernel_basis(matrix):
    """Reference: a basis of {z : z @ matrix = 0}, the rows of U past the
    rank in the Smith normal form U @ matrix @ V."""
    m = len(matrix)
    if m == 0:
        return []
    res = smith_normal_form(matrix, want_u=True, want_v=False)
    return [[row.get(j, 0) for j in range(m)] for row in res.u_rows[res.rank:]]


def ref_intersect(a, b):
    """Reference: a ∩ b from the integer row kernel of a's basis stacked on
    -1 times b's; each kernel vector's first half combines a's basis."""
    d = a.ambient
    if a.is_trivial() or b.is_trivial():
        return L([], d)
    stacked = [list(r) for r in a.basis] + [[-x for x in r] for r in b.basis]
    gens = [[sum(z[i] * a.basis[i][j] for i in range(a.rank)) for j in range(d)]
            for z in row_kernel_basis(stacked)]
    return L(gens, d)


def generator_rows(d, bound=4):
    """0 to d + 1 generators in Z^d, zero vectors allowed."""
    vectors = st.lists(st.integers(-bound, bound), min_size=d, max_size=d)
    return st.lists(vectors, max_size=d + 1)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(d), generator_rows(d), generator_rows(d))))
def test_intersect_matches_the_row_kernel_reference(case):
    d, rows_a, rows_b = case
    a, b = L(rows_a, d), L(rows_b, d)
    assert intersect(a, b) == ref_intersect(a, b)
    assert intersect(b, a) == intersect(a, b)


@st.composite
def unimodular_steps(draw, n):
    """Row operations on n rows: add c times row j to row i (i != j), swap
    two rows, or negate one."""
    if n == 0:
        return []
    index = st.integers(0, n - 1)
    ops = [st.tuples(st.just("swap"), index, index, st.just(0)),
           st.tuples(st.just("negate"), index, st.just(0), st.just(0))]
    if n > 1:
        ops.append(st.tuples(st.just("add"), index, index, st.integers(-3, 3)).filter(
            lambda t: t[1] != t[2]))
    return draw(st.lists(st.one_of(ops), max_size=12))


def apply_steps(rows, steps):
    rows = [list(r) for r in rows]
    for name, i, j, c in steps:
        if name == "add":
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif name == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return rows


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), generator_rows(d, 5))),
       st.data())
def test_hnf_is_canonical_under_permutation_and_row_operations(case, data):
    d, rows = case
    hnf = hermite_normal_form(rows, d)
    order = data.draw(st.permutations(range(len(rows))))
    assert hermite_normal_form([rows[i] for i in order], d) == hnf
    steps = data.draw(unimodular_steps(len(rows)))
    assert hermite_normal_form(apply_steps(rows, steps), d) == hnf
