import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nerveforge import nilpotent
from nerveforge.nilpotent import (
    GroupWord,
    NilpotentError,
    UnitriangularGroup,
    _bracket,
    commutator_word,
    commutes_with_all_generators,
    elementary,
    hirsch_rank,
    identity,
    mat_inv_unitriangular,
    mat_mul,
    _scaled_log,
    small_central_element,
    unitriangular_log,
)

SETTINGS = settings(max_examples=40, deadline=None)


def heisenberg():
    return UnitriangularGroup(3, (elementary(3, 0, 1), elementary(3, 1, 2)))


def random_ut(k, rng, bound=3):
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            if i == j:
                row.append(1)
            elif i < j:
                row.append(rng.randrange(-bound, bound + 1))
            else:
                row.append(0)
        rows.append(tuple(row))
    return tuple(rows)


def test_validation():
    with pytest.raises(NilpotentError):
        UnitriangularGroup(5, ())
    with pytest.raises(NilpotentError):
        UnitriangularGroup(3, (((1, 0, 0), (1, 1, 0), (0, 0, 1)),))


@pytest.mark.parametrize("m", [
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
    ((1, 0, 0), (0, 1), (0, 0, 1)),
    ((1, 0), (0, 1)),
    ((True, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0.0), (0, 0, 1)),
], ids=["3x4", "4x3", "ragged", "2x2", "bool", "float"])
def test_malformed_generators_rejected(m):
    with pytest.raises(NilpotentError):
        UnitriangularGroup(3, (m,))


def test_generators_given_as_lists_are_stored_as_tuples():
    g = UnitriangularGroup(3, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert g.generators == (identity(3),)
    assert g.is_trivial()


def test_inverse():
    rng = random.Random(0)
    for _ in range(30):
        m = random_ut(4, rng)
        assert mat_mul(m, mat_inv_unitriangular(m)) == identity(4)


def test_word_evaluation_recomputable():
    g = heisenberg()
    w = GroupWord(g, ((0, 1), (1, 1), (0, -1), (1, -1)))
    v = w.evaluate()
    assert v == mat_mul(
        mat_mul(g.generators[0], g.generators[1]),
        mat_mul(mat_inv_unitriangular(g.generators[0]), mat_inv_unitriangular(g.generators[1])),
    )


def test_heisenberg_central_element():
    g = heisenberg()
    w = small_central_element(g)
    assert w.length == 4
    assert w.evaluate() == elementary(3, 0, 2)
    assert commutes_with_all_generators(w.evaluate(), g)


def test_abelian_generator_already_central():
    g = UnitriangularGroup(3, (elementary(3, 0, 2),))
    w = small_central_element(g)
    assert w.length == 1
    assert w.letters == ((0, 1),)


def test_trivial_group_rejected():
    with pytest.raises(NilpotentError):
        small_central_element(UnitriangularGroup(3, (identity(3),)))


def test_central_elements_random_ut4():
    rng = random.Random(7)
    for _ in range(100):
        gens = tuple(random_ut(4, rng) for _ in range(rng.randrange(1, 4)))
        g = UnitriangularGroup(4, gens)
        if g.is_trivial():
            continue
        w = small_central_element(g)
        v = w.evaluate()
        assert v != identity(4)
        assert commutes_with_all_generators(v, g)
        assert w.length <= 27
        # word invariant: evaluated element recomputable from the letters
        assert GroupWord(g, w.letters).evaluate() == v


def test_log_heisenberg():
    m = elementary(3, 0, 1)
    log = unitriangular_log(m)
    assert log[0][1] == 1 and log[0][2] == 0


def test_hirsch_rank_examples():
    assert hirsch_rank(UnitriangularGroup(3, (elementary(3, 0, 1),))) == 1
    assert hirsch_rank(heisenberg()) == 3
    full_ut4 = UnitriangularGroup(
        4, (elementary(4, 0, 1), elementary(4, 1, 2), elementary(4, 2, 3))
    )
    assert hirsch_rank(full_ut4) == 6
    # x = I + E01 + E12 and y = I + E01 - E12 have logs whose anticommutator
    # is zero and whose commutator is not.
    x = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    y = ((1, 1, 0), (0, 1, -1), (0, 0, 1))
    assert hirsch_rank(UnitriangularGroup(3, (x, y))) == 3


def test_hirsch_rank_monotone_and_bounded():
    rng = random.Random(9)
    for _ in range(25):
        gens = [random_ut(4, rng) for _ in range(2)]
        g1 = UnitriangularGroup(4, tuple(gens))
        g2 = UnitriangularGroup(4, tuple(gens + [random_ut(4, rng)]))
        r1, r2 = hirsch_rank(g1), hirsch_rank(g2)
        assert r1 <= r2 <= 6


# Reference: the round-based closure over Fraction logs. Each round appends
# every pairwise bracket and stops when the rational span stops growing.


def _fraction_bracket(x, y):
    k = len(x)
    xy = [[sum(x[i][s] * y[s][j] for s in range(k)) for j in range(k)] for i in range(k)]
    yx = [[sum(y[i][s] * x[s][j] for s in range(k)) for j in range(k)] for i in range(k)]
    return [[xy[i][j] - yx[i][j] for j in range(k)] for i in range(k)]


def _rational_span_dim(vectors) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for j in range(ncols):
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


def round_closure_rank(g):
    def flat(m):
        return [v for row in m for v in row]

    basis_mats = [unitriangular_log(m) for m in g.generators]
    basis_mats = [m for m in basis_mats if any(any(r) for r in m)]
    while True:
        dim = _rational_span_dim([flat(m) for m in basis_mats]) if basis_mats else 0
        new = list(basis_mats)
        for x in basis_mats:
            for y in basis_mats:
                b = _fraction_bracket(x, y)
                if any(any(r) for r in b):
                    new.append(b)
        new_dim = _rational_span_dim([flat(m) for m in new]) if new else 0
        if new_dim == dim:
            return dim
        basis_mats = new


@st.composite
def unitriangular(draw, k):
    return tuple(
        tuple(1 if i == j else (draw(st.integers(-3, 3)) if j > i else 0)
              for j in range(k))
        for i in range(k)
    )


@st.composite
def groups(draw):
    k = draw(st.sampled_from([3, 4]))
    gens = draw(st.lists(unitriangular(k), min_size=1, max_size=3))
    return UnitriangularGroup(k, tuple(gens))


@SETTINGS
@given(groups())
def test_hirsch_rank_matches_round_closure(g):
    assert hirsch_rank(g) == round_closure_rank(g)


@SETTINGS
@given(groups(), st.randoms(use_true_random=False))
def test_hirsch_rank_invariant_under_generating_set_changes(g, rng):
    k, gens = g.size, list(g.generators)
    rank = hirsch_rank(g)
    assert rank <= k * (k - 1) // 2
    a, b = rng.choice(gens), rng.choice(gens)
    variants = [
        rng.sample(gens, len(gens)),
        gens + [a],
        gens + [identity(k)],
        gens + [mat_mul(a, b)],
        gens + [mat_inv_unitriangular(a)],
    ]
    for other in variants:
        assert hirsch_rank(UnitriangularGroup(k, tuple(other))) == rank


@SETTINGS
@given(st.sampled_from([3, 4]).flatmap(unitriangular))
def test_scaled_log_is_factorial_times_log(m):
    f = factorial(len(m) - 1)
    scaled = _scaled_log(m)
    assert all(isinstance(v, int) for row in scaled for v in row)
    assert [[f * v for v in row] for row in unitriangular_log(m)] == [
        list(row) for row in scaled]


@SETTINGS
@given(st.sampled_from([3, 4]).flatmap(unitriangular))
def test_exp_of_log_is_the_matrix(m):
    """exp(L) = sum L^t / t! terminates at t = k - 1, since L is nilpotent."""
    k = len(m)
    log = unitriangular_log(m)
    out = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    power = [row[:] for row in out]
    for t in range(1, k):
        power = [[sum(power[i][s] * log[s][j] for s in range(k)) for j in range(k)]
                 for i in range(k)]
        for i in range(k):
            for j in range(k):
                out[i][j] += power[i][j] / factorial(t)
    assert out == [list(row) for row in m]


# Reference: a descent that evaluates every longer word from scratch, with a
# fresh inverse for each inverse letter.


def _evaluate_from_scratch(g, letters):
    out = identity(g.size)
    for idx, exp in letters:
        m = g.generators[idx]
        out = mat_mul(out, m if exp == 1 else mat_inv_unitriangular(m))
    return out


def descent_from_scratch(g):
    ident = identity(g.size)
    start = next(i for i, m in enumerate(g.generators) if m != ident)
    word = GroupWord(g, ((start, 1),))
    value = _evaluate_from_scratch(g, word.letters)
    while True:
        witness = next((i for i, h in enumerate(g.generators)
                        if mat_mul(value, h) != mat_mul(h, value)), None)
        if witness is None:
            return word.letters, value
        word = commutator_word(word, witness)
        value = _evaluate_from_scratch(g, word.letters)
        assert value != ident


@SETTINGS
@given(groups())
def test_central_element_matches_descent_from_scratch(g):
    assume(not g.is_trivial())
    letters, value = descent_from_scratch(g)
    word = small_central_element(g)
    assert word.letters == letters
    assert word.evaluate() == value


def square_matrices(k):
    return st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                    min_size=k, max_size=k)


@SETTINGS
@given(st.sampled_from([3, 4]).flatmap(lambda k: st.tuples(square_matrices(k),
                                                           square_matrices(k))))
def test_bracket_is_the_entrywise_commutator(pair):
    x, y = pair
    k = len(x)
    assert _bracket(x, y) == tuple(
        tuple(sum(x[i][s] * y[s][j] - y[i][s] * x[s][j] for s in range(k))
              for j in range(k))
        for i in range(k))


@pytest.mark.parametrize("k", [3, 4])
def test_hirsch_rank_stops_at_full_rank(k, monkeypatch):
    """Generators whose logarithms span every strictly upper direction give
    rank k(k-1)/2 with no bracket formed."""
    brackets = []

    def counted(x, y):
        brackets.append((x, y))
        return _bracket(x, y)

    monkeypatch.setattr(nilpotent, "_bracket", counted)
    gens = tuple(elementary(k, i, j) for i in range(k) for j in range(i + 1, k))
    assert hirsch_rank(UnitriangularGroup(k, gens)) == k * (k - 1) // 2
    assert brackets == []
