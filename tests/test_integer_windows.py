"""Integer-corner window nerves, the per-instance stabilization memo, and the
exact radical comparison, checked against Fraction references."""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerveforge import periodic
from nerveforge.construct import hollow_tube_boxes
from nerveforge.euclid import sqrt_leq_sum_of_sqrts
from nerveforge.homology import Collapse, IntegerChainComplex
from nerveforge.lattices import LatticeSubgroup
from nerveforge.periodic import (
    Box,
    BoxUnion,
    local_vanishing_check,
    quotient_complex,
    quotient_corner_check,
    stabilization_check,
)

SETTINGS = settings(max_examples=40, deadline=None)
# Coefficient range of the reference vertex scan; the tests assert that every
# vertex found lies strictly inside it.
K = 12


@st.composite
def box_unions(draw):
    """Lattice of rank < dim; boxes with corner denominators 1-6 near the
    origin, with sides from 1/2 to 1, so that they overlap each other but no
    box meets a nonzero integer translate of itself."""
    dim = draw(st.integers(2, 3))
    rank = draw(st.integers(0, dim - 1))
    rows = [[draw(st.integers(-2, 2)) for _ in range(dim)] for _ in range(rank)]
    lattice = LatticeSubgroup.from_generators(rows, dim)
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = [], []
        for _ in range(dim):
            den = draw(st.integers(1, 6))
            a = Fraction(draw(st.integers(-den, 0)), den)
            lo.append(a)
            hi.append(a + Fraction(draw(st.integers((den + 1) // 2, den)), den))
        boxes.append(Box.of(lo, hi))
    boxes = list(dict.fromkeys(boxes))
    return BoxUnion(dim=dim, lattice=lattice, boxes=tuple(boxes))


def all_vertices(bu):
    coeffs = itertools.product(range(-K, K + 1), repeat=bu.rank)
    return [(j, c) for c in coeffs for j in range(len(bu.boxes))]


def simplices_from(bu, first, rest):
    """Nerve simplices made of ``first`` and later vertices from ``rest``,
    decided by Box.intersect on Fraction corners."""
    rest = sorted(v for v in rest if v > first)
    out = set()

    def extend(simplex, inter, start):
        out.add(simplex)
        for i in range(start, len(rest)):
            meet = inter.intersect(bu.vertex_box(rest[i]))
            if meet is not None:
                extend(simplex + (rest[i],), meet, i + 1)

    extend((first,), bu.vertex_box(first), 0)
    return out


def reference_window(bu, w):
    verts = [v for v in all_vertices(bu) if bu.vertex_box(v).meets_cube(w)]
    assert all(abs(x) < K for _, c in verts for x in c)
    return set().union(*(simplices_from(bu, v, verts) for v in verts))


def reference_quotient_simplices(bu):
    """Simplices of the periodic nerve whose least vertex has zero
    coefficients: one representative per lattice orbit."""
    reps = set()
    for j, box in enumerate(bu.boxes):
        near = [v for v in all_vertices(bu) if box.meets(bu.vertex_box(v))]
        assert all(abs(x) < K for _, c in near for x in c)
        reps |= simplices_from(bu, (j, (0,) * bu.rank), near)
    return reps


@SETTINGS
@given(box_unions(), st.integers(1, 2))
def test_window_complex_matches_fraction_reference(bu, w):
    assert set(bu.window_complex(w).simplices) == reference_window(bu, w)


@SETTINGS
@given(box_unions())
def test_quotient_complex_matches_fraction_reference(bu):
    q = quotient_complex(bu)
    got = {s for simplices in q.basis.values() for s in simplices}
    assert got == reference_quotient_simplices(bu)


@SETTINGS
@given(box_unions(), st.randoms(use_true_random=False), st.integers(1, 2))
def test_window_invariant_under_permuting_boxes(bu, rng, w):
    perm = list(range(len(bu.boxes)))
    rng.shuffle(perm)  # new box i is old box perm[i]
    shuffled = BoxUnion(dim=bu.dim, lattice=bu.lattice,
                        boxes=tuple(bu.boxes[k] for k in perm))
    old_index = {i: k for i, k in enumerate(perm)}

    def relabel(simplex):
        return frozenset((old_index[j], c) for j, c in simplex)

    assert ({relabel(s) for s in shuffled.window_complex(w).simplices}
            == {frozenset(s) for s in bu.window_complex(w).simplices})


def no_collapse(cc):
    return Collapse(cc, {d: list(range(cc.dim(d))) for d in cc.basis}, {})


@SETTINGS
@given(box_unions())
@example(hollow_tube_boxes())  # a stable H_1 = Z
def test_stabilization_outcomes_do_not_depend_on_the_collapse(bu):
    collapsed = stabilization_check(bu.window_complex, w_max=8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntegerChainComplex, "collapse", property(no_collapse))
        plain = stabilization_check(bu.window_complex, w_max=8)
    assert collapsed == plain


def test_rank_zero_window_keeps_only_boxes_meeting_it():
    bu = BoxUnion(dim=2, lattice=LatticeSubgroup.from_generators([], 2),
                  boxes=(Box.of([0, 0], [1, 1]), Box.of([3, 3], [4, 4])))
    assert bu.window_vertices(1) == [(0, ())]
    assert set(bu.window_complex(1).simplices) == {((0, ()),)}
    assert bu.window_vertices(4) == [(0, ()), (1, ())]
    q = quotient_complex(bu)
    assert {s for simplices in q.basis.values() for s in simplices} == {
        ((0, ()),), ((1, ()),)}


def strip():
    lattice = LatticeSubgroup.from_generators([[2, 0]], 2)
    boxes = tuple(
        Box.of([i - Fraction(1, 4), Fraction(-1, 2)], [i + Fraction(5, 4), Fraction(1, 2)])
        for i in range(2)
    )
    return BoxUnion(dim=2, lattice=lattice, boxes=boxes)


def count_stabilizations(monkeypatch):
    calls = []
    original = periodic.stabilization_check

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(periodic, "stabilization_check", counted)
    return calls


def test_checks_share_one_stabilization(monkeypatch):
    calls = count_stabilizations(monkeypatch)
    bu = strip()
    lv = local_vanishing_check(bu, n=3, r=1)
    qc = quotient_corner_check(bu)
    assert lv.ok and qc.ok
    assert len(calls) == 1
    quotient_corner_check(bu, w_max=8)
    assert len(calls) == 2


def test_equal_box_unions_keep_separate_memos(monkeypatch):
    calls = count_stabilizations(monkeypatch)
    a, b = strip(), strip()
    a.stabilization()
    assert a == b and hash(a) == hash(b)
    assert "_stabilizations" not in repr(a)
    assert b._stabilizations == {}
    b.stabilization()
    assert len(calls) == 2
    assert a.stabilization() is not b.stabilization()


def test_mutating_verdict_radii_leaves_memo_alone():
    bu = strip()
    first = local_vanishing_check(bu, n=3, r=1)
    first.detail["radii"].append(99)
    assert bu.stabilization().radii == (1, 2, 4)
    assert local_vanishing_check(bu, n=3, r=1).detail["radii"] == [1, 2, 4]


SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11]
ratios = st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)


def decimal(q) -> Decimal:
    q = Fraction(q)
    return Decimal(q.numerator) / Decimal(q.denominator)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(ratios, st.sampled_from(SQUAREFREE)), min_size=1, max_size=4),
    st.tuples(ratios, st.sampled_from(SQUAREFREE)),
    st.booleans(),
)
def test_sqrt_leq_sum_of_sqrts_on_known_squarefree_parts(terms, left, tie):
    """Radicands k^2 * s with s squarefree: sum sqrt(b_i) = sum k_i sqrt(s_i)."""
    bs = [k * k * s for k, s in terms]
    sums: dict[int, Fraction] = {}
    for k, s in terms:
        sums[s] = sums.get(s, 0) + k
    if tie and len(sums) == 1:
        (s, c), = sums.items()
        a = c * c * s  # sqrt(a) equals the sum exactly
        assert sqrt_leq_sum_of_sqrts(a, bs)
        assert not sqrt_leq_sum_of_sqrts(a + Fraction(1, 10**9), bs)
        return
    k, s = left
    a = k * k * s
    if len(sums) == 1 and s in sums:
        expected = k <= sums[s]
    else:
        # sqrt(a) and the independent radicals of the sum differ
        with localcontext() as ctx:
            ctx.prec = 60
            diff = sum(decimal(c) * decimal(t).sqrt() for t, c in sums.items())
            diff -= decimal(a).sqrt()
        assert abs(diff) > Decimal(10) ** -40
        expected = diff > 0
    assert sqrt_leq_sum_of_sqrts(a, bs) == expected
