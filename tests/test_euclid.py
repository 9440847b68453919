import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerveforge import euclid, jsonio, snf
from nerveforge.euclid import (
    AffineSubspace,
    Arrangement,
    EuclidError,
    EuclideanIsometry,
    almost_abelian_vanishing_check,
    block_diagonal,
    minset,
    minset_of_group,
    nerve_of_subspaces,
    pythagorean_rotation,
    rational_row_space_basis,
    semisimple_vanish_check,
    solve_rational,
    splitting_check,
    sqrt_leq_sum_of_sqrts,
    subadditivity_check,
    translation_lattice_on,
    vec,
)
from nerveforge.homology import homology_of_complex


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def apply(g, x):
    """g(x) = a x + b, over ``Fraction``s."""
    return vadd(ref_mat_apply(g.a, x), g.b)


def point(p):
    """The subspace {p}."""
    return AffineSubspace.of(p, [])


def project_point(s, x):
    """The closest point of ``s`` to ``x``: the projection of the point
    subspace {x}."""
    return s.project_subspace(point(x)).base


def in_row_space(v, basis):
    """Whether ``v`` lies in the span of ``basis``: the linear subspace it
    spans contains the point v."""
    return AffineSubspace.of([0] * len(v), basis).contains(point(v))


def rot_z_quarter(dim=3):
    """Rotation by pi/2 about the z axis."""
    m = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    return m


def glide_plane_x0():
    """Reflection across the plane x=0 composed with unit z translation."""
    return EuclideanIsometry.of([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 1])


def glide_plane_y0():
    return EuclideanIsometry.of([[1, 0, 0], [0, -1, 0], [0, 0, 1]], [0, 0, 1])


def glide_plane_x(c):
    """Reflection across x=c with unit z translation."""
    return EuclideanIsometry.of([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [2 * c, 0, 1])


def glide_plane_y(c):
    return EuclideanIsometry.of([[1, 0, 0], [0, -1, 0], [0, 0, 1]], [0, 2 * c, 1])


def test_orthogonality_enforced():
    with pytest.raises(EuclidError):
        EuclideanIsometry.of([[2, 0], [0, 1]], [0, 0])


def test_minset_identity_and_translation():
    ident = EuclideanIsometry.identity(3)
    ms = minset(ident)
    assert ms.subspace.dim == 3
    assert ms.min_displacement_sq == 0
    tr = EuclideanIsometry.translation([3, 4, 0])
    ms = minset(tr)
    assert ms.subspace.dim == 3
    assert ms.min_displacement_sq == 25


def test_minset_screw_motion():
    rot = EuclideanIsometry.of(rot_z_quarter(), [0, 0, 5])
    ms = minset(rot)
    z_axis = AffineSubspace.of([0, 0, 0], [[0, 0, 1]])
    assert ms.subspace == z_axis
    assert ms.min_displacement_sq == 25
    off = vec([1, 1, 0])
    assert rot.displacement_sq(off) > ms.min_displacement_sq


def test_minset_random_points_never_beat_base():
    rng = random.Random(0)
    for _ in range(60):
        blocks = [pythagorean_rotation(2, 1), [[1]]]
        a = block_diagonal(blocks)
        b = [Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)),
             Fraction(rng.randrange(-3, 4))]
        g = EuclideanIsometry.of(a, b)
        ms = minset(g)
        base_disp = g.displacement_sq(ms.subspace.base)
        assert base_disp == ms.min_displacement_sq
        for _ in range(10):
            p = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(3)]
            d = g.displacement_sq(p)
            assert d >= ms.min_displacement_sq
            if not ms.subspace.contains(point(p)):
                assert d > ms.min_displacement_sq


def test_minset_of_group_examples():
    g = EuclideanIsometry.of(rot_z_quarter(), [0, 0, 0])
    assert minset_of_group([g]) == minset(g).subspace
    assert minset_of_group([], dim=4).dim == 4
    assert minset_of_group([EuclideanIsometry.identity(2)]).dim == 2


def test_minset_of_group_block_sum():
    # two commuting rotations acting on orthogonal 2D blocks of R^5;
    # the first fixes coords {2,3,4}, the second fixes {0,1,4}
    a1 = block_diagonal([pythagorean_rotation(2, 1), [[1]], [[1]], [[1]]])
    a2 = block_diagonal([[[1]], [[1]], pythagorean_rotation(3, 2), [[1]]])
    g1 = EuclideanIsometry.of(a1, [0] * 5)
    g2 = EuclideanIsometry.of(a2, [0] * 5)
    ms = minset_of_group([g1, g2])
    expected = AffineSubspace.of([0] * 5, [[0, 0, 0, 0, 1]])
    assert ms == expected


def test_minset_of_group_invariant_under_products():
    rng = random.Random(1)
    for _ in range(20):
        t = EuclideanIsometry.of(
            block_diagonal([pythagorean_rotation(2, 1), [[1]]]), [0, 0, rng.randrange(1, 4)]
        )
        s = EuclideanIsometry.translation([0, 0, rng.randrange(1, 5)])
        base = minset_of_group([t, s])
        extended = minset_of_group([t, s, t.compose(s), s.compose(t.power(2))])
        assert base == extended


def test_noncommuting_rejected():
    g1 = glide_plane_x(0)
    g2 = glide_plane_x(1)
    with pytest.raises(EuclidError):
        minset_of_group([g1, g2])


def test_closest_point_projection():
    z_axis = AffineSubspace.of([0, 0, 0], [[0, 0, 1]])
    p = project_point(z_axis, [3, 4, 7])
    assert p == vec([0, 0, 7])
    assert project_point(z_axis, [0, 0, 2]) == vec([0, 0, 2])


def test_projection_contraction_exact():
    rng = random.Random(2)
    c = AffineSubspace.of([1, 0, 0], [[1, 1, 0]])
    for _ in range(100):
        x = [Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(3)]
        y = [Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(3)]
        px, py = project_point(c, x), project_point(c, y)
        dist_proj = sum((a - b) ** 2 for a, b in zip(px, py))
        dist = sum((a - b) ** 2 for a, b in zip(vec(x), vec(y)))
        assert dist_proj <= dist


def test_projection_equivariance_and_minset_image():
    # gamma preserves the z axis; projection commutes with gamma there
    gamma = EuclideanIsometry.of(rot_z_quarter(), [0, 0, 2])
    z_axis = AffineSubspace.of([0, 0, 0], [[0, 0, 1]])
    rng = random.Random(3)
    for _ in range(30):
        x = [Fraction(rng.randrange(-5, 6)) for _ in range(3)]
        left = project_point(z_axis, apply(gamma, x))
        right = apply(gamma, project_point(z_axis, x))
        assert left == right
    # p_C(Min(gamma)) = C ∩ Min(gamma) for invariant C
    ms = minset(gamma).subspace
    inter = z_axis.intersect(ms)
    proj = z_axis.project_subspace(ms)
    assert proj == inter


def test_splitting_b_trivial():
    a = [EuclideanIsometry.translation([0, 0, 1])]
    rep = splitting_check(a, [])
    assert rep.ok and rep.rank == 1


def test_splitting_translation_and_half_turn():
    a = [EuclideanIsometry.translation([0, 0, 1])]
    b = [EuclideanIsometry.of([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [0, 0, 0])]
    rep = splitting_check(a, b)
    assert rep.ok
    assert rep.rank == 1
    assert rep.min_a.dim == 3
    assert rep.intersection.dim == 1  # the z axis


def random_commuting_pair(rng, dim):
    """Block-diagonal commuting groups: per 2D block both rotate (same plane),
    per 1D block translations where both linear parts are trivial."""
    blocks = []
    remaining = dim
    while remaining:
        if remaining >= 2 and rng.random() < 0.5:
            blocks.append(2)
            remaining -= 2
        else:
            blocks.append(1)
            remaining -= 1
    def build(rng_rot):
        mats = []
        for b in blocks:
            if b == 2 and rng_rot():
                m, k = rng.choice([(2, 1), (3, 2), (4, 1), (3, 1)])
                mats.append(pythagorean_rotation(m, k))
            else:
                mats.append(identity_block(b))
        return mats

    def identity_block(b):
        return [[1 if i == j else 0 for j in range(b)] for i in range(b)]

    a_blocks = build(lambda: rng.random() < 0.6)
    b_blocks = build(lambda: rng.random() < 0.6)
    # translations only where both groups have identity blocks
    pos = 0
    ta = [Fraction(0)] * dim
    tb = [Fraction(0)] * dim
    for blk, ab, bb in zip(blocks, a_blocks, b_blocks):
        ident = identity_block(blk)
        if ab == ident and bb == ident:
            for t in range(blk):
                ta[pos + t] = Fraction(rng.randrange(-2, 3))
                tb[pos + t] = Fraction(rng.randrange(-2, 3))
        pos += blk
    ga = EuclideanIsometry.of(block_diagonal(a_blocks), ta)
    gb = EuclideanIsometry.of(block_diagonal(b_blocks), tb)
    return [ga], [gb]


def test_splitting_random_commuting_pairs():
    rng = random.Random(4)
    for _ in range(60):
        dim = rng.randrange(2, 7)
        a, b = random_commuting_pair(rng, dim)
        rep = splitting_check(a, b)
        assert rep.ok, rep.checks


def level_nerve(arr, k):
    """Nerve of the level-k minsets of the arrangement's groups."""
    return nerve_of_subspaces([arr.level_minset(i, k) for i in range(len(arr.groups))])


def test_ladder_translations_all_levels_identical():
    arr = Arrangement(
        dim=2, base=3,
        groups=((EuclideanIsometry.translation([1, 0]),),
                (EuclideanIsometry.translation([0, 1]),)),
    )
    for k in range(4):
        assert all(arr.level_minset(i, k).dim == 2 for i in range(2))
    for k in range(1, 4):
        assert all(arr.level_minset(i, k).contains(arr.level_minset(i, k - 1))
                   for i in range(2))
        assert level_nerve(arr, k - 1) <= level_nerve(arr, k)


def test_ladder_rotation_jumps_to_full_space():
    # rotation by pi about the z axis; base 2 makes the level-1 power trivial
    half_turn = EuclideanIsometry.of([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [0, 0, 0])
    arr = Arrangement(dim=3, base=2, groups=((half_turn,),))
    assert arr.level_minset(0, 0).dim == 1
    assert arr.level_minset(0, 1).dim == 3
    assert arr.level_minset(0, 1).contains(arr.level_minset(0, 0))


def square_cylinder_arrangement(side=3):
    """Four glide planes around a square tube; adjacent mirrors commute,
    opposite ones are parallel and never meet."""
    return Arrangement(
        dim=3, base=2,
        groups=(
            (glide_plane_x(0),),
            (glide_plane_y(0),),
            (glide_plane_x(side),),
            (glide_plane_y(side),),
        ),
    )


def test_square_cylinder_nerve_is_circle():
    arr = square_cylinder_arrangement()
    nerve0 = level_nerve(arr, 0)
    h = homology_of_complex(nerve0)
    assert h.betti(1) == 1
    # at level 1 every glide squares to a translation, minsets become R^3
    nerve1 = level_nerve(arr, 1)
    assert nerve0 <= nerve1
    assert homology_of_complex(nerve1).betti(1) == 0


def test_almost_abelian_vanishing_circle_coned():
    arr = square_cylinder_arrangement()
    verdict = almost_abelian_vanishing_check(arr, n=3, r=1)
    assert verdict.ok
    assert verdict.detail["level"] == 1
    assert verdict.detail["induced_maps"][1]["is_zero"]


def test_almost_abelian_rank_hypothesis_failure():
    half_turn = EuclideanIsometry.of([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [0, 0, 0])
    arr = Arrangement(dim=3, base=2, groups=((half_turn,),))
    verdict = almost_abelian_vanishing_check(arr, n=3, r=1)
    assert not verdict.ok
    assert verdict.hypothesis_violations


def screw_z(quarter=True, shift=1):
    """Rotation about the z axis composed with a unit z translation."""
    rot = rot_z_quarter() if quarter else [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
    return EuclideanIsometry.of(rot, [0, 0, shift])


def test_semisimple_vanish_two_screws_shared_axis():
    # two screw motions about the same axis: minsets share the R^1 factor,
    # the nerve is a single edge, r = 1, n = 4
    arr = Arrangement(
        dim=3, base=2,
        groups=((screw_z(quarter=True),), (screw_z(quarter=False),)),
    )
    common = [EuclideanIsometry.translation([0, 0, 1])]
    verdict = semisimple_vanish_check(arr, common, k=1, n=4)
    assert verdict.ok, (verdict.detail, verdict.hypothesis_violations)
    assert verdict.detail["threshold_degree"] == 2


def test_semisimple_vanish_single_minset():
    arr = Arrangement(dim=3, base=2, groups=((screw_z(),),))
    common = [EuclideanIsometry.translation([0, 0, 1])]
    verdict = semisimple_vanish_check(arr, common, k=1, n=4)
    assert verdict.ok


def test_semisimple_vanish_flags_orientation_reversal():
    arr = Arrangement(dim=3, base=2, groups=((glide_plane_x0(),),))
    common = [EuclideanIsometry.translation([0, 0, 1])]
    verdict = semisimple_vanish_check(arr, common, k=1, n=4)
    assert not verdict.ok
    assert "orientation-reversing generator" in verdict.hypothesis_violations


def test_sqrt_comparison():
    assert sqrt_leq_sum_of_sqrts(Fraction(25), [Fraction(9), Fraction(16)])
    assert sqrt_leq_sum_of_sqrts(Fraction(8), [Fraction(2), Fraction(2)])  # equality
    assert not sqrt_leq_sum_of_sqrts(Fraction(9), [Fraction(2), Fraction(2)])
    assert sqrt_leq_sum_of_sqrts(Fraction(2), [Fraction(1, 2), Fraction(1, 2)])
    assert not sqrt_leq_sum_of_sqrts(Fraction(49, 4), [Fraction(1), Fraction(9, 4)])


@pytest.mark.parametrize("a,bs", [(-1, []), (0, [-1]), (-4, [0]), (-1, [1]), (1, [2, -1])])
def test_negative_radicand_is_rejected_before_any_answer(a, bs):
    with pytest.raises(EuclidError, match="negative radicand"):
        sqrt_leq_sum_of_sqrts(a, bs)


def test_subadditivity_examples():
    t1 = EuclideanIsometry.translation([3, 0])
    t2 = EuclideanIsometry.translation([0, 4])
    v = subadditivity_check([t1, t2], [0, 0])
    assert v.ok and v.lhs_sq == 25 and v.rhs_terms_sq == (9, 16)
    single = subadditivity_check([t1], [0, 0])
    assert single.ok and single.lhs_sq == 9


def test_subadditivity_random_triples():
    rng = random.Random(5)
    rots = [(2, 1), (3, 2), (4, 1), (5, 2)]
    for _ in range(200):
        gs = []
        for _ in range(3):
            m, k = rng.choice(rots)
            a = block_diagonal([pythagorean_rotation(m, k), [[1]]])
            b = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
            gs.append(EuclideanIsometry.of(a, b))
        x = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
        assert subadditivity_check(gs, x).ok


# ---------------------------------------------------------------------------
# trusted isometry arithmetic and the ladder memo (properties)
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=60, deadline=None)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def fraction_mat_mul(a, b):
    """Reference product: a Fraction triple loop."""
    return [
        [sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@st.composite
def orthogonal_matrices(draw, n):
    """Signed permutation times a block diagonal of Pythagorean rotations,
    times up to two rational Householder reflections I - 2vvᵀ/(vᵀv), whose
    -1 eigenvectors v need not be coordinate axes."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    p = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    blocks, left = [], n
    while left:
        if left >= 2 and draw(st.booleans()):
            blocks.append(pythagorean_rotation(draw(st.integers(1, 4)), draw(st.integers(0, 4))))
            left -= 2
        else:
            blocks.append([[1]])
            left -= 1
    out = fraction_mat_mul(p, block_diagonal(blocks))
    normals = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    for v in draw(st.lists(normals, max_size=2)):
        vv = sum(x * x for x in v)
        out = fraction_mat_mul(out, [[int(i == j) - Fraction(2 * v[i] * v[j], vv)
                                      for j in range(n)] for i in range(n)])
    return out


@st.composite
def isometries(draw, n):
    a = draw(orthogonal_matrices(n))
    return EuclideanIsometry.of(a, draw(st.lists(small_fractions, min_size=n, max_size=n)))


dims = st.integers(1, 4)


@SETTINGS
@given(dims.flatmap(lambda n: st.tuples(isometries(n), isometries(n))), st.integers(-4, 9))
def test_derived_isometries_pass_validation(pair, k):
    g, h = pair
    for r in (g.compose(h), g.power(-1), g.power(k)):
        assert all(isinstance(x, Fraction) for row in r.a for x in row + r.b)
        assert EuclideanIsometry.of(r.a, r.b) == r


@SETTINGS
@given(dims.flatmap(isometries), st.integers(-4, 9))
def test_power_is_repeated_compose(g, k):
    step = g if k >= 0 else g.power(-1)
    out = EuclideanIsometry.identity(g.dim)
    for _ in range(abs(k)):
        out = step.compose(out)
    assert g.power(k) == out
    assert g.compose(g.power(-1)) == EuclideanIsometry.identity(g.dim)


@st.composite
def int_matrices(draw, rows, cols):
    m = [[draw(st.integers(-60, 60)) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1))):
        m[i] = [0] * cols
    return m


@SETTINGS
@given(st.tuples(dims, dims, dims).flatmap(
    lambda s: st.tuples(int_matrices(s[0], s[1]), int_matrices(s[1], s[2]))))
def test_mat_mul_matches_fraction_reference(ab):
    # the product the integer forms multiply by, on rectangular matrices
    # with zero rows
    a, b = ab
    assert snf.mat_mul(a, b) == fraction_mat_mul(a, b)


@st.composite
def arrangements(draw):
    """Groups of products of powers of one commuting pair, so every two
    generators commute."""
    rng = draw(st.randoms(use_true_random=False))
    (ga,), (gb,) = random_commuting_pair(rng, draw(st.integers(2, 4)))
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    groups = draw(st.lists(st.lists(exps, min_size=1, max_size=2), min_size=1, max_size=3))
    return Arrangement(
        dim=ga.dim, base=draw(st.integers(1, 3)),
        groups=tuple(tuple(ga.power(i).compose(gb.power(j)) for i, j in g) for g in groups),
    )


@SETTINGS
@given(arrangements())
def test_level_minset_matches_fresh_computation(arr):
    for k in range(3):
        for i, gens in enumerate(arr.groups):
            fresh = [g.power(arr.base ** k) for g in gens]
            assert arr.level_generators(i, k) == fresh
            assert arr.level_minset(i, k) == minset_of_group(fresh, dim=arr.dim)


def test_level_memo_once_per_level_and_instance(monkeypatch):
    counts = {"minset": 0, "power": 0}
    real_minset, real_power = euclid.minset_of_group, EuclideanIsometry.power

    def counting_minset(*args, **kwargs):
        counts["minset"] += 1
        return real_minset(*args, **kwargs)

    def counting_power(self, k):
        counts["power"] += 1
        return real_power(self, k)

    monkeypatch.setattr(euclid, "minset_of_group", counting_minset)
    monkeypatch.setattr(EuclideanIsometry, "power", counting_power)
    levels = [(i, k) for i in range(4) for k in range(3)]

    def walk(arr):
        for _ in range(2):
            for i, k in levels:
                arr.level_generators(i, k)
                arr.level_minset(i, k)

    arr = square_cylinder_arrangement()
    assert counts == {"minset": 4, "power": 0}      # level 0 comes from __post_init__
    walk(arr)
    assert counts == {"minset": 12, "power": 8}     # levels 1 and 2 of four groups, once

    twin = square_cylinder_arrangement()
    assert twin == arr and hash(twin) == hash(arr) and repr(twin) == repr(arr)
    assert "_levels" not in repr(arr)
    walk(twin)
    assert counts == {"minset": 24, "power": 16}    # an equal instance keeps its own memo

    copy = dataclasses.replace(arr)
    assert copy == arr and set(copy._levels) == {(i, 0) for i in range(4)}
    walk(copy)
    assert counts == {"minset": 36, "power": 24}

    gens = arr.level_generators(0, 1)
    kept = list(gens)
    gens.append(EuclideanIsometry.identity(3))
    gens[0] = EuclideanIsometry.identity(3)
    assert arr.level_generators(0, 1) == kept
    assert counts == {"minset": 36, "power": 24}


# ---------------------------------------------------------------------------
# rational elimination on the fraction-free echelon, against Fraction
# Gauss-Jordan references (properties)
# ---------------------------------------------------------------------------


def fraction_solve(a, b):
    """Reference: one solution of a x = b over Q plus a nullspace basis, or
    None, by Gauss-Jordan elimination over Fractions."""
    rows = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(a, b)]
    n = len(a[0]) if a else 0
    pivots = []
    rank = 0
    for j in range(n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][j]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(j)
        rank += 1
    for i in range(rank, len(rows)):
        if rows[i][n]:
            return None
    x = [Fraction(0)] * n
    for i, j in enumerate(pivots):
        x[j] = rows[i][n]
    null = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, j in enumerate(pivots):
            v[j] = -rows[i][f]
        null.append(tuple(v))
    return tuple(x), null


def fraction_rref(rows):
    """Reference: reduced row echelon basis of the span over Fractions."""
    work = [[Fraction(x) for x in r] for r in rows if any(r)]
    n = len(work[0]) if work else 0
    rank = 0
    for j in range(n):
        pivot = next((i for i in range(rank, len(work)) if work[i][j]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][j]
        work[rank] = [x / pv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][j]:
                c = work[i][j]
                work[i] = [x - c * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return [tuple(r) for r in work[:rank]]


def cofactor_det(m):
    """Reference determinant by cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum((-1) ** j * Fraction(m[0][j]) * cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


ELIM_SETTINGS = settings(max_examples=200, deadline=None)
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-4, 4), small_fractions)


@st.composite
def sparse_rational_matrices(draw):
    """0-6 rows of 1-7 entries, mostly zeros, denominators 1-6; sometimes a
    last row that is a combination of two others."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    mat = [[draw(sparse_entries) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        a, b = draw(st.integers(-3, 3)), draw(small_fractions)
        mat.append([a * x + b * y for x, y in zip(mat[i], mat[j])])
    return mat


def mat_vec(a, x):
    return [sum((Fraction(v) * y for v, y in zip(row, x)), Fraction(0)) for row in a]


@ELIM_SETTINGS
@given(sparse_rational_matrices())
def test_row_space_basis_matches_reference(mat):
    assert repr(rational_row_space_basis(mat)) == repr(fraction_rref(mat))


@st.composite
def linear_systems(draw):
    """(a, b) with b either arbitrary or a·x for an arbitrary x."""
    a = draw(sparse_rational_matrices())
    n = len(a[0]) if a else draw(st.integers(1, 7))
    if draw(st.booleans()):
        b = mat_vec(a, draw(st.lists(sparse_entries, min_size=n, max_size=n)))
    else:
        b = draw(st.lists(sparse_entries, min_size=len(a), max_size=len(a)))
    return a, b


@ELIM_SETTINGS
@given(linear_systems())
def test_solve_rational_matches_reference(system):
    a, b = system
    got = solve_rational(a, b)
    assert repr(got) == repr(fraction_solve(a, b))
    if got is not None:
        x, null = got
        assert mat_vec(a, x) == [Fraction(v) for v in b]
        for z in null:
            assert not any(mat_vec(a, z))


@ELIM_SETTINGS
@given(sparse_rational_matrices(), st.lists(sparse_entries, min_size=7, max_size=7),
       st.lists(st.integers(-3, 3), min_size=7, max_size=7))
def test_in_row_space_matches_reference(mat, entries, coeffs):
    n = len(mat[0]) if mat else len(entries)
    basis = rational_row_space_basis(mat)
    v = entries[:n]
    assert in_row_space(v, basis) == (fraction_rref(basis + [v]) == fraction_rref(basis))
    combo = [sum((c * row[j] for c, row in zip(coeffs, basis)), Fraction(0)) for j in range(n)]
    assert in_row_space(combo, basis)


@SETTINGS
@given(dims.flatmap(isometries))
def test_det_matches_cofactor_reference(g):
    assert g.det() == cofactor_det(g.a)


def loop_intersect(s, t):
    """Reference: ``AffineSubspace.intersect`` with each direction formed as a
    ``Fraction`` sum over ``s.directions``, entry by entry."""
    n = s.ambient_dim
    cols = len(s.directions) + len(t.directions)
    a = [[Fraction(0)] * cols for _ in range(n)]
    for j, d in enumerate(s.directions):
        for i in range(n):
            a[i][j] = d[i]
    for j, d in enumerate(t.directions):
        for i in range(n):
            a[i][len(s.directions) + j] = -d[i]
    sol = solve_rational(a, list(vsub(t.base, s.base)))
    if sol is None:
        return None
    base = s.base
    for c, d in zip(sol[0][: len(s.directions)], s.directions):
        base = vadd(base, tuple(c * y for y in d))
    dirs = [
        tuple(sum((z[j] * d[i] for j, d in enumerate(s.directions)), Fraction(0))
              for i in range(n))
        for z in sol[1]
    ]
    return AffineSubspace.of(base, dirs)


@st.composite
def subspace_pairs(draw):
    """Two affine subspaces of one ambient space (dimension 1-4), each with
    0-4 sparse rational directions; sometimes the second shares a direction
    or the base of the first, so positive-dimensional meets are common."""
    n = draw(st.integers(1, 4))
    vectors = st.lists(sparse_entries, min_size=n, max_size=n)
    s = AffineSubspace.of(draw(vectors), draw(st.lists(vectors, max_size=4)))
    dirs = draw(st.lists(vectors, max_size=4))
    if s.directions and draw(st.booleans()):
        dirs.append(s.directions[0])
    base = s.base if draw(st.booleans()) else draw(vectors)
    return s, AffineSubspace.of(base, dirs)


@ELIM_SETTINGS
@given(subspace_pairs())
def test_intersect_matches_fraction_loop(pair):
    s, t = pair
    assert repr(s.intersect(t)) == repr(loop_intersect(s, t))


# ---------------------------------------------------------------------------
# the integer forms against the Fraction arithmetic they replaced (properties)
# ---------------------------------------------------------------------------


def ref_dot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def ref_mat_apply(m, x):
    return tuple(ref_dot(row, x) for row in m)


def ref_transpose(m):
    return [list(col) for col in zip(*m)]


def ref_compose(f, g):
    """(a, b) of f after g, each an (a, b) pair of Fraction tuples."""
    a = tuple(map(tuple, fraction_mat_mul(f[0], g[0])))
    return a, vadd(ref_mat_apply(f[0], g[1]), f[1])


def ref_inverse(f):
    at = tuple(map(tuple, ref_transpose(f[0])))
    return at, tuple(-x for x in ref_mat_apply(at, f[1]))


def ref_power(f, k):
    n = len(f[1])
    out = (tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)),
           (Fraction(0),) * n)
    step = f if k >= 0 else ref_inverse(f)
    for _ in range(abs(k)):
        out = ref_compose(out, step)
    return out


def fields(g):
    return g.a, g.b


def ref_subspace(base, directions):
    """(base, directions) as ``AffineSubspace.of`` made them over Fractions."""
    return tuple(Fraction(x) for x in base), tuple(fraction_rref(directions))


def ref_minset(g):
    """(base, directions, min_displacement_sq, translation) by the Fraction
    normal equations (A - I)ᵀ(A - I) x = -(A - I)ᵀ b."""
    n = g.dim
    m = [[g.a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    mt = ref_transpose(m)
    x0, null = fraction_solve(fraction_mat_mul(mt, m), [-v for v in ref_mat_apply(mt, g.b)])
    v = vsub(vadd(ref_mat_apply(g.a, x0), g.b), x0)
    return (*ref_subspace(x0, null), ref_dot(v, v), v)


def ref_in_row_space(v, basis):
    return fraction_rref(list(basis) + [list(v)]) == fraction_rref(basis)


def ref_contains(s, t):
    return (ref_in_row_space(vsub(t.base, s.base), s.directions)
            and all(ref_in_row_space(d, s.directions) for d in t.directions))


def ref_intersect(s, t):
    """(base, directions) of the intersection over Fractions, or None."""
    n, k = s.ambient_dim, s.dim
    a = [[d[i] for d in s.directions] + [-d[i] for d in t.directions] for i in range(n)]
    sol = fraction_solve(a, list(vsub(t.base, s.base)))
    if sol is None:
        return None
    x, null = sol
    base = s.base
    for c, d in zip(x[:k], s.directions):
        base = vadd(base, tuple(c * y for y in d))
    dirs = [[sum((z[j] * d[i] for j, d in enumerate(s.directions)), Fraction(0))
             for i in range(n)] for z in null]
    return ref_subspace(base, dirs)


def ref_project_point(s, x):
    if not s.directions:
        return s.base
    diff = vsub(tuple(map(Fraction, x)), s.base)
    gram = [[ref_dot(d, e) for e in s.directions] for d in s.directions]
    coeffs, _ = fraction_solve(gram, [ref_dot(d, diff) for d in s.directions])
    out = s.base
    for c, d in zip(coeffs, s.directions):
        out = vadd(out, tuple(c * y for y in d))
    return out


def ref_project_subspace(s, t):
    base = ref_project_point(s, t.base)
    imgs = [vsub(ref_project_point(s, vadd(t.base, d)), base) for d in t.directions]
    return ref_subspace(base, imgs)


def subspace_fields(s):
    return None if s is None else (s.base, s.directions)


dims6 = st.integers(1, 6)
isometry_pairs6 = dims6.flatmap(lambda n: st.tuples(isometries(n), isometries(n)))


@SETTINGS
@given(isometry_pairs6, st.integers(-4, 9), st.lists(small_fractions, min_size=6, max_size=6))
def test_isometry_kernel_matches_fraction_reference(pair, k, point):
    g, h = pair
    assert repr(fields(g.compose(h))) == repr(ref_compose(fields(g), fields(h)))
    assert repr(fields(g.power(-1))) == repr(ref_inverse(fields(g)))
    assert repr(fields(g.power(k))) == repr(ref_power(fields(g), k))
    x = point[:g.dim]
    step = vsub(apply(g, x), x)
    assert g.displacement_sq(x) == ref_dot(step, step)
    assert g.det() == cofactor_det(g.a)
    assert g.commutes_with(h) == (ref_compose(fields(g), fields(h))
                                  == ref_compose(fields(h), fields(g)))
    assert g.commutes_with(g.power(k)) and g.power(k).commutes_with(g)


@SETTINGS
@given(isometry_pairs6)
def test_minset_and_meets_match_fraction_reference(pair):
    g, h = pair
    mg, mh = minset(g), minset(h)
    for ms, iso in ((mg, g), (mh, h)):
        got = (ms.subspace.base, ms.subspace.directions, ms.min_displacement_sq, ms.translation)
        assert repr(got) == repr(ref_minset(iso))
    s, t = mg.subspace, mh.subspace
    assert repr(subspace_fields(s.intersect(t))) == repr(ref_intersect(s, t))
    assert repr(subspace_fields(s.project_subspace(t))) == repr(ref_project_subspace(s, t))
    assert s.contains(t) == ref_contains(s, t)
    for d in t.directions:
        assert in_row_space(d, s.directions) == ref_in_row_space(d, s.directions)


@ELIM_SETTINGS
@given(subspace_pairs())
def test_subspace_kernel_matches_fraction_reference(pair):
    s, t = pair
    assert repr(subspace_fields(s.intersect(t))) == repr(ref_intersect(s, t))
    assert repr(subspace_fields(s.project_subspace(t))) == repr(ref_project_subspace(s, t))
    assert repr(project_point(s, t.base)) == repr(ref_project_point(s, t.base))
    assert s.contains(t) == ref_contains(s, t)
    assert t.contains(s) == ref_contains(t, s)
    assert all(s.contains(x) for x in (s, s.intersect(t)) if x is not None)


@pytest.mark.parametrize("directions", [[[1, 0, 0]], [[1]], [[1, 0], [0]]])
def test_subspace_rejects_directions_of_another_length(directions):
    with pytest.raises(EuclidError):
        AffineSubspace.of([0, 0], directions)


def test_validation_rejects_shapes_and_near_orthogonal_matrices():
    with pytest.raises(EuclidError):
        EuclideanIsometry.of([[1, 0]], [0, 0])
    with pytest.raises(EuclidError):
        EuclideanIsometry.of([[1, 0], [0, 1]], [0])
    # unit rows over the denominators 5 and 13 that are not perpendicular
    with pytest.raises(EuclidError):
        EuclideanIsometry.of([[Fraction(3, 5), Fraction(4, 5)],
                              [Fraction(-12, 13), Fraction(5, 13)]], [0, 0])
    with pytest.raises(EuclidError):
        EuclideanIsometry.of([[1, 0], [0, Fraction(1000001, 1000000)]], [Fraction(1, 7), 0])
    a = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    g = EuclideanIsometry.of(a, [Fraction(1, 2), 0])
    assert g.a == tuple(map(tuple, a)) and g.b == (Fraction(1, 2), Fraction(0))
    assert all(isinstance(x, Fraction) for row in g.a for x in row + g.b)


def test_integer_forms_leave_equality_hash_and_repr_alone():
    # the views are built on first read, and ==, hash and repr follow them
    g = EuclideanIsometry.of(block_diagonal([pythagorean_rotation(2, 1), [[1]]]),
                             [Fraction(1, 3), 0, 2])
    assert "a" not in vars(g) and "b" not in vars(g)
    again = EuclideanIsometry.of(g.a, g.b)
    roundabout = g.power(5).compose(g.power(-4))
    for h in (again, roundabout):
        assert (h.a, h.b) == (g.a, g.b)
        assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
    assert repr(g) == f"EuclideanIsometry(a={g.a!r}, b={g.b!r})"
    moved = g.compose(EuclideanIsometry.translation([0, 0, Fraction(1, 2)]))
    assert (moved.a, moved.b) != (g.a, g.b) and moved != g

    s = minset(g).subspace
    assert "base" not in vars(s) and "directions" not in vars(s)
    flipped = AffineSubspace.of(s.base, [[-3 * x for x in d] for d in s.directions])
    assert (flipped.base, flipped.directions) == (s.base, s.directions)
    assert s == flipped and hash(s) == hash(flipped) and repr(s) == repr(flipped)
    assert repr(s) == f"AffineSubspace(base={s.base!r}, directions={s.directions!r})"
    # another base point on the same line: equal subspaces, other views
    shifted = AffineSubspace.of(vadd(s.base, s.directions[0]), s.directions)
    assert shifted == s and hash(shifted) == hash(s) and shifted.base != s.base


def test_isometries_of_different_dimensions_are_rejected():
    t3, t2 = EuclideanIsometry.translation([0, 1, 0]), EuclideanIsometry.translation([1, 0])
    for f, g in ((t3, t2), (t2, t3)):
        with pytest.raises(EuclidError, match="dimensions"):
            f.compose(g)
        with pytest.raises(EuclidError, match="dimensions"):
            f.commutes_with(g)


def test_arrangement_generators_of_another_dimension_are_rejected():
    groups = ((EuclideanIsometry.translation([1, 0]),),
              (EuclideanIsometry.translation([0, 1]),))
    with pytest.raises(EuclidError, match="dimension differs"):
        Arrangement(dim=3, base=2, groups=groups)
    payload = {"dim": 3, "base": 2,
               "groups": [[jsonio.isometry_to_json(g) for g in gens] for gens in groups]}
    with pytest.raises(EuclidError, match="dimension differs"):
        jsonio.arrangement_from_json(payload)
