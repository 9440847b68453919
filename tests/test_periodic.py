from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerveforge import periodic
from nerveforge.construct import hollow_tube_boxes, slab_boxes, strip_boxes
from nerveforge.homology import HomologySummary, homology, homology_of_complex
from nerveforge.lattices import LatticeSubgroup
from nerveforge.periodic import (
    Box,
    BoxUnion,
    CoverWindow,
    DegreeOutcome,
    FiniteCoverSpec,
    PeriodicError,
    cover_lift_check,
    full_coverage_check,
    local_vanishing_check,
    quotient_complex,
    quotient_corner_check,
    stabilization_check,
)

from test_integer_windows import (box_unions, chain_of_rings, reference_cover_lift_check,
                                  reference_scan, wide_tube)


def window_nerve_homology(bu, w):
    return homology_of_complex(bu.window_complex(w))


def F(a, b=1):
    return Fraction(a, b)


def strip_ladder(spacing=2, boxes_per_period=2, dim=2):
    """Connected Z-periodic strip built from overlapping boxes; no box meets
    its own translates."""
    lattice = LatticeSubgroup.from_generators([[spacing] + [0] * (dim - 1)], dim)
    boxes = []
    step = Fraction(spacing, boxes_per_period)
    for i in range(boxes_per_period):
        lo = [i * step - Fraction(1, 4)] + [F(-1, 2)] * (dim - 1)
        hi = [(i + 1) * step + Fraction(1, 4)] + [F(1, 2)] * (dim - 1)
        boxes.append(Box.of(lo, hi))
    return BoxUnion(dim=dim, lattice=lattice, boxes=tuple(boxes))


def disjoint_periodic_boxes(dim=2):
    lattice = LatticeSubgroup.from_generators([[3] + [0] * (dim - 1)], dim)
    return BoxUnion(
        dim=dim, lattice=lattice,
        boxes=(Box.of([0] * dim, [1] * dim),),
    )


def hollow_tube(dim=3):
    """Z-periodic hollow square tube along the x axis: the cross-section is a
    square annulus of four walls, each wall built from two overlapping boxes
    per period so the tube is connected along its length."""
    lattice = LatticeSubgroup.from_generators([[2, 0, 0]], dim)
    h = F(1, 2)
    walls_yz = [
        ((-3 * h, h), (3 * h, 3 * h)),      # top: full y range, z in (1/2, 3/2)
        ((-3 * h, -3 * h), (3 * h, -h)),    # bottom
        ((-3 * h, -3 * h), (-h, 3 * h)),    # left: y in (-3/2, -1/2)
        ((h, -3 * h), (3 * h, 3 * h)),      # right
    ]
    boxes = []
    for (ylo, zlo), (yhi, zhi) in walls_yz:
        for xlo in (F(-1, 4), F(3, 4)):
            boxes.append(Box.of([xlo, ylo, zlo], [xlo + F(3, 2), yhi, zhi]))
    return BoxUnion(dim=dim, lattice=lattice, boxes=tuple(boxes))


def solid_slab(dim=3):
    """Z^2-periodic solid slab {|z| < 1/2} from four overlapping boxes."""
    lattice = LatticeSubgroup.from_generators([[2, 0, 0], [0, 2, 0]], dim)
    boxes = []
    for i in range(2):
        for j in range(2):
            lo = [i - F(1, 4), j - F(1, 4), -F(1, 2)]
            hi = [i + 1 + F(1, 4), j + 1 + F(1, 4), F(1, 2)]
            boxes.append(Box.of(lo, hi))
    return BoxUnion(dim=dim, lattice=lattice, boxes=tuple(boxes))


def full_tiling(dim=2):
    """Z^2-periodic overlapping tiling of the plane by four unit-ish boxes."""
    lattice = LatticeSubgroup.from_generators(
        [[2 if i == j else 0 for j in range(dim)] for i in range(dim)], dim
    )
    boxes = []
    for i in range(2):
        for j in range(2):
            lo = [i - F(1, 4), j - F(1, 4)] + [F(0)] * (dim - 2)
            hi = [i + 1 + F(1, 4), j + 1 + F(1, 4)] + [F(1)] * (dim - 2)
            boxes.append(Box.of(lo, hi))
    return BoxUnion(dim=dim, lattice=lattice, boxes=tuple(boxes))


def test_own_translate_overlap_rejected():
    lattice = LatticeSubgroup.from_generators([[1, 0]], 2)
    with pytest.raises(PeriodicError, match="own lattice translate"):
        BoxUnion(dim=2, lattice=lattice, boxes=(Box.of([0, 0], [F(3, 2), 1]),))


def test_single_box_point_homology():
    bu = BoxUnion(
        dim=2,
        lattice=LatticeSubgroup.from_generators([], 2),
        boxes=(Box.of([0, 0], [1, 1]),),
    )
    assert window_nerve_homology(bu, 2) == HomologySummary.of({0: (1, ())})


def test_strip_window_connected():
    bu = strip_ladder()
    h = window_nerve_homology(bu, 3)
    assert h.betti(0) == 1
    assert h.betti(1) == 0


def holes_ladder():
    """Two parallel connected strips joined by one rung per period: the
    windows enclose more holes as the radius grows."""
    lattice = LatticeSubgroup.from_generators([[2, 0]], 2)
    boxes = []
    for y0, y1 in ((1, 2), (-2, -1)):
        boxes.append(Box.of([-F(1, 4), y0], [F(5, 4), y1]))
        boxes.append(Box.of([F(3, 4), y0], [F(9, 4), y1]))
    boxes.append(Box.of([-F(1, 4), -F(5, 4)], [F(3, 4), F(5, 4)]))
    return BoxUnion(dim=2, lattice=lattice, boxes=tuple(boxes))


def test_ladder_with_holes_h1_grows():
    # window H1 grows with the radius, so degree 1 stays inconclusive
    bu = holes_ladder()
    h1_small = window_nerve_homology(bu, 2).betti(1)
    h1_big = window_nerve_homology(bu, 4).betti(1)
    assert h1_small >= 1
    assert h1_big > h1_small
    res = stabilization_check(bu.window)
    assert res.outcomes[1].status == "inconclusive"


def test_stabilization_strip():
    bu = strip_ladder()
    res = stabilization_check(bu.window)
    assert res.outcomes[0].status == "stable" and res.outcomes[0].betti == 0
    for d in range(1, res.top_degree + 1):
        assert res.outcomes[d].stabilized_trivial()


def test_stabilization_disjoint_boxes():
    bu = disjoint_periodic_boxes()
    res = stabilization_check(bu.window)
    # components grow without bound: degree 0 is inconclusive, higher vanish
    assert res.outcomes[0].status == "inconclusive"
    for d in range(1, res.top_degree + 1):
        assert res.outcomes[d].stabilized_trivial()


def test_local_vanishing_strip_r1_d2():
    verdict = local_vanishing_check(strip_ladder(), n=3, r=1)
    assert verdict.ok and verdict.branch == "stabilized"


def test_local_vanishing_disjoint_boxes():
    verdict = local_vanishing_check(disjoint_periodic_boxes(), n=3, r=1)
    assert verdict.ok


def test_local_vanishing_tube_r1_d3():
    verdict = local_vanishing_check(strip_ladder(dim=3), n=4, r=1)
    assert verdict.ok


def test_local_vanishing_hollow_tube():
    # H1 of the tube is stably Z but only degrees >= 2 are asserted
    bu = hollow_tube()
    verdict = local_vanishing_check(bu, n=4, r=1)
    assert verdict.ok, verdict.detail


def test_local_vanishing_slab_r2_d3():
    verdict = local_vanishing_check(solid_slab(), n=4, r=2)
    assert verdict.ok


def test_full_coverage_branch():
    bu = full_tiling()
    assert full_coverage_check(bu)
    verdict = local_vanishing_check(bu, n=3, r=2)
    assert verdict.ok and verdict.branch == "full-coverage"


def test_coverage_detects_gap():
    lattice = LatticeSubgroup.from_generators([[2, 0], [0, 2]], 2)
    bu = BoxUnion(
        dim=2, lattice=lattice,
        boxes=(Box.of([0, 0], [F(3, 2), F(3, 2)]),),
    )
    assert not full_coverage_check(bu)
    verdict = local_vanishing_check(bu, n=3, r=2)
    assert not verdict.ok


def test_quotient_complex_strip_is_circle():
    bu = strip_ladder(spacing=2, boxes_per_period=2)
    q = quotient_complex(bu)
    h = homology(q)
    assert h.betti(0) == 1 and h.betti(1) == 1


def test_quotient_corner_strip():
    v = quotient_corner_check(strip_ladder())
    assert v.ok and v.k == 0 and v.degree == 1


def test_quotient_corner_hollow_tube():
    v = quotient_corner_check(hollow_tube())
    assert not v.inconclusive
    assert v.k == 1 and v.degree == 2
    assert v.ok


def test_quotient_corner_slab():
    v = quotient_corner_check(solid_slab())
    assert v.ok and v.k == 0 and v.degree == 2


def test_quotient_corner_tiling():
    v = quotient_corner_check(full_tiling())
    assert v.ok and v.degree == 2


def test_quotient_corner_inconclusive_propagates():
    v = quotient_corner_check(holes_ladder())
    assert v.inconclusive


def test_finite_cover_spec_elements():
    spec = FiniteCoverSpec.of([[3]], 1)
    assert len(spec.elements()) == 3
    spec2 = FiniteCoverSpec.of([[2, 0], [0, 2]], 2)
    assert len(spec2.elements()) == 4
    with pytest.raises(PeriodicError):
        FiniteCoverSpec.of([[0, 1]], 2)
    # an infinite deck group is rejected when the spec is built, not only by
    # ``of``
    with pytest.raises(PeriodicError):
        FiniteCoverSpec(LatticeSubgroup.from_generators([[0, 1]], 2))
    with pytest.raises(PeriodicError):
        FiniteCoverSpec(LatticeSubgroup.from_generators([], 1))


SPECS = [
    ([], 0),
    ([[3]], 1),
    ([[2, 0], [0, 2]], 2),
    ([[2, 1], [0, 2]], 2),  # cyclic of order 4
    ([[3, 1], [0, 2]], 2),
    ([[2, 1, 0], [0, 1, 1], [0, 0, 2]], 3),
]


def reference_elements(spec):
    """Breadth-first closure of the zero residue under unit steps."""
    rank = spec.sublattice.ambient
    zero = spec.reduce((0,) * rank)
    seen, frontier = {zero}, [zero]
    while frontier:
        new = []
        for g in frontier:
            for i in range(rank):
                for sgn in (1, -1):
                    h = list(g)
                    h[i] += sgn
                    h = spec.reduce(h)
                    if h not in seen:
                        seen.add(h)
                        new.append(h)
        frontier = new
    return sorted(seen)


@pytest.mark.parametrize("rows, rank", SPECS)
def test_elements_match_breadth_first_closure(rows, rank):
    spec = FiniteCoverSpec.of(rows, rank)
    assert spec.elements() == reference_elements(spec)
    if rank == 0:
        assert spec.elements() == [()]


@settings(max_examples=60, deadline=None)
@given(st.data())
@pytest.mark.parametrize("rows, rank", SPECS)
def test_reduce_is_one_canonical_residue(rows, rank, data):
    """The premise of the deck identities ``cover_lift_check`` does not
    compute: ``reduce`` lands in ``elements()``, two vectors share a residue
    exactly when their difference lies in L (tested by the HNF of L joined
    with the difference), and reducing one summand first changes nothing."""
    spec = FiniteCoverSpec.of(rows, rank)
    x, y = (data.draw(st.lists(st.integers(-40, 40), min_size=rank, max_size=rank))
            for _ in range(2))
    assert spec.reduce(x) in spec.elements()
    diff = [a - b for a, b in zip(x, y)]
    in_l = LatticeSubgroup.from_generators(
        [*spec.sublattice.basis, diff], rank) == spec.sublattice
    assert (spec.reduce(x) == spec.reduce(y)) == in_l
    assert spec.add(spec.reduce(x), y) == spec.reduce([a + b for a, b in zip(x, y)])


def x_strips(rank):
    """Two overlapping boxes per period along x, one strip per lattice
    translate in the other directions: a rank-r box union in R^max(r, 1)."""
    dim = max(rank, 1)
    rows = [[2 if j == 0 else 0 for j in range(dim)]] + [
        [3 if j == i else 0 for j in range(dim)] for i in range(1, rank)]
    lattice = LatticeSubgroup.from_generators(rows[:rank], dim)
    rest = [F(0)] * (dim - 1), [F(1)] * (dim - 1)
    boxes = tuple(Box.of([F(-1, 4) + k] + rest[0], [F(5, 4) + k] + rest[1])
                  for k in range(2))
    return BoxUnion(dim=dim, lattice=lattice, boxes=boxes)


def reference_cover_simplices(bu, spec, w):
    """Each base simplex lifted to sheet g + [c - c0] from its least vertex
    (j0, c0), for every deck element g."""
    simplices = set()
    elements = spec.elements()
    for s in bu.window_complex(w).simplices:
        c0 = min(s)[1]
        for g in elements:
            simplices.add(tuple(sorted(
                (j, c, spec.add(g, tuple(x - y for x, y in zip(c, c0))))
                for j, c in s)))
    return frozenset(simplices)


@pytest.mark.parametrize("w", [2, 4])
@pytest.mark.parametrize("rows, rank", SPECS)
def test_cover_window_matches_least_vertex_cocycle(rows, rank, w):
    spec = FiniteCoverSpec.of(rows, rank)
    bases = [x_strips(rank)]
    if rank == 1:
        bases.append(strip_ladder())
    if rank == 2:
        bases.append(full_tiling())
    for bu in bases:
        cw = CoverWindow(bu, spec, w)
        assert cw.complex.simplices == reference_cover_simplices(bu, spec, w)


def test_cover_window_projects_onto_base():
    bu = strip_ladder()
    spec = FiniteCoverSpec.of([[2]], 1)
    cw = CoverWindow(bu, spec, 2)
    base_verts = set(cw.base.vertices)
    assert {v[:2] for v in cw.complex.vertices} == base_verts
    assert len(cw.complex.vertices) == 2 * len(base_verts)


def test_cover_lift_trivial_deck_reduces_to_local_vanishing():
    bu = strip_ladder()
    spec = FiniteCoverSpec.of([[1]], 1)
    v = cover_lift_check(bu, spec, n=3, r=1)
    assert v.ok


def test_cover_lift_strip_z2():
    bu = strip_ladder()
    spec = FiniteCoverSpec.of([[2]], 1)
    v = cover_lift_check(bu, spec, n=3, r=1)
    assert v.ok, v.checks


def direct_stencil(bu):
    """The stencil by its definition: for each ordered pair (j, j2), the
    sorted e for which box j2 moved by e meets box j."""
    return tuple(tuple(tuple(sorted(bu._translates_meeting(j2, *box)))
                       for j2 in range(len(bu.boxes)))
                 for box in bu._scaled)


@settings(max_examples=40, deadline=None)
@given(box_unions())
@example(BoxUnion.of(*hollow_tube_boxes()))
@example(BoxUnion.of(*slab_boxes()))
@example(chain_of_rings())
def test_mirrored_stencil_matches_the_direct_definition(bu):
    stencil = bu._stencil
    assert stencil == direct_stencil(bu)
    for j, row in enumerate(stencil):
        for j2, shifts in enumerate(row):
            assert stencil[j2][j] == tuple(sorted(tuple(-x for x in e) for e in shifts))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cover_lift_rejects_a_translation_that_moves_a_loop(order):
    # the big window (w = 10) is connected, so the degree-0 test passes and
    # only the degree-1 comparison can fail
    bu = chain_of_rings()
    assert window_nerve_homology(bu, 10).betti(0) == 1
    checks = cover_lift_check(bu, FiniteCoverSpec.of([[order]], 1), n=3, r=1).checks
    assert checks["lift_simplicial"]
    assert not checks["acts_trivially_on_homology"]


def test_cover_and_scan_checks_list_no_window_cliques(monkeypatch):
    """The cover-lift comparison and the doubling scan read each window off
    the strong-collapse core of its graph, so they give the verdicts of the
    checks on whole windows without asking for a window nerve."""
    cases = [(chain_of_rings(), FiniteCoverSpec.of([[2]], 1)),
             (BoxUnion.of(*slab_boxes()), FiniteCoverSpec.of([[2, 0], [0, 1]], 2))]
    expected = [(reference_cover_lift_check(bu, spec, bu.dim + 1, bu.rank),
                 reference_scan(bu.window_complex, 16)) for bu, spec in cases]
    assert not expected[0][0].checks["acts_trivially_on_homology"]

    def refuse(self, w):
        raise RuntimeError(f"window_complex({w}) was built")

    monkeypatch.setattr(BoxUnion, "window_complex", refuse)
    assert [(cover_lift_check(bu, spec, bu.dim + 1, bu.rank), bu.stabilization)
            for bu, spec in cases] == expected


def test_cover_lift_rejects_a_translation_that_moves_a_component():
    # the windows have no edge, so only the degree-0 test can fail
    bu = disjoint_periodic_boxes()
    assert bu.window_complex(8).dimension == 0
    checks = cover_lift_check(bu, FiniteCoverSpec.of([[2]], 1), n=3, r=1).checks
    assert checks["lift_simplicial"]
    assert not checks["acts_trivially_on_homology"]


def ring_at_lattice_scale():
    """One ring of four boxes around (10, 0) per multiple of (20, 0): the
    windows up to w = 16 hold each ring only as a path, and the w = 32
    window holds two whole rings."""
    lattice = LatticeSubgroup.from_generators([[20, 0]], 2)
    corners = [((1, F(5, 2)), (19, 3)), ((1, -3), (19, F(-5, 2))),
               ((1, -3), (F(3, 2), 3)), ((F(37, 2), -3), (19, 3))]
    return BoxUnion(dim=2, lattice=lattice, boxes=tuple(Box.of(*c) for c in corners))


@pytest.mark.xfail(strict=True, reason="the doubling scan stops at radii (2, 4, 8) and reads "
                                       "H_1 as stable and 0, before any window holds a ring")
def test_local_vanishing_sees_a_ring_wider_than_the_scanned_windows():
    bu = ring_at_lattice_scale()
    assert window_nerve_homology(bu, 32).betti(1) == 2
    assert homology(quotient_complex(bu)).betti(1) == 1
    verdict = local_vanishing_check(bu, n=3, r=1)
    assert not (verdict.ok and not verdict.inconclusive), verdict.detail


@pytest.mark.xfail(strict=True, reason="ROADMAP items 7 and 8: the windows at radii 1, 2 and 4 "
                                       "each hold one ring, so the scan stops there and reads "
                                       "H_1 as stable, betti 1, though it grows")
def test_scan_does_not_read_a_growing_h1_as_stable():
    bu = chain_of_rings()
    assert [window_nerve_homology(bu, w).betti(1) for w in (1, 2, 4, 8, 16)] == [1, 1, 1, 3, 7]
    assert bu.stabilization.outcomes[1].status != "stable", bu.stabilization


def test_empty_windows_read_inconclusive():
    bu = wide_tube()
    assert not any(bu.window_vertices(w) for w in (1, 2, 4, 8, 16))
    assert window_nerve_homology(bu, 32).betti(1) == 1
    result = bu.stabilization
    assert result.radii == (4, 8, 16)
    assert result.outcomes == {0: DegreeOutcome("inconclusive")}
    assert quotient_corner_check(bu).inconclusive


def test_an_empty_first_window_leaves_a_connected_degree_zero_to_the_next_triple():
    """Degree 0 tests isomorphism before zero. W_1 is empty and W_2, W_4
    are connected, so the first map is zero and the second an isomorphism
    of trivial groups: (1, 2, 4) reads degree 0 "inconclusive", not
    "zero_image", and (2, 4, 8) reads it "stable, betti 0"."""
    bu = BoxUnion.of(*hollow_tube_boxes(spacing=3, half_core=1))
    assert bu.window_vertices(1) == []
    assert all(len(set(bu.window(w).components.values())) == 1 for w in (2, 4, 8))
    result = stabilization_check(bu.window)
    assert result.radii == (2, 4, 8)
    assert result.outcomes[0] == DegreeOutcome("stable", betti=0)


@settings(max_examples=40, deadline=None)
@given(box_unions(), st.integers(1, 3))
@example(wide_tube(), 1)
@example(wide_tube(), 2)
def test_no_outcome_has_a_negative_betti_number(bu, sheets):
    result = stabilization_check(bu.window, sheets=sheets)
    assert all(o.betti is None or o.betti >= 0 for o in result.outcomes.values()), result


@pytest.mark.parametrize("check", [
    local_vanishing_check,
    lambda bu, n, r: cover_lift_check(bu, FiniteCoverSpec.of([[2]], 1), n, r),
], ids=["local_vanishing", "cover_lift"])
@pytest.mark.parametrize("n, r, message", [
    (3, 0, "declared rank 0 differs from lattice rank 1"),
    (4, 1, "declared n-1 = 3 differs from box dimension 2"),
], ids=["rank", "dimension"])
def test_declared_constants_must_match_the_union(check, n, r, message):
    with pytest.raises(PeriodicError, match=message) as raised:
        check(strip_ladder(), n, r)
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("make, order", [(strip_boxes, 2), (hollow_tube_boxes, 3)],
                         ids=["strip", "hollow_tube"])
def test_checks_build_each_window_once(monkeypatch, make, order):
    """The base scan, the scan of the cover and the cover-lift comparison
    share each radius's window: its graph, its core's chain complex and each
    degree's homology are built once."""
    graphs, complexes, groups = [], [], []

    def counted(original, calls, key):
        def wrapper(*args):
            calls.append(key(*args))
            return original(*args)
        return wrapper

    monkeypatch.setattr(BoxUnion, "window_graph",
                        counted(BoxUnion.window_graph, graphs, lambda self, w: w))
    monkeypatch.setattr(periodic, "chain_complex",
                        counted(periodic.chain_complex, complexes, id))
    monkeypatch.setattr(periodic, "degree_homology",
                        counted(periodic.degree_homology, groups, lambda cc, d: (id(cc), d)))
    bu = BoxUnion.of(*make())
    local_vanishing_check(bu, bu.dim + 1, bu.rank)
    quotient_corner_check(bu)
    cover_lift_check(bu, FiniteCoverSpec.of([[order]], 1), bu.dim + 1, bu.rank)
    assert sorted(graphs) == sorted(set(graphs)) and set(bu.stabilization.radii) <= set(graphs)
    assert len(complexes) == len(graphs)
    assert len(groups) == len(set(groups))


def test_cover_lift_slab():
    bu = solid_slab()
    spec = FiniteCoverSpec.of([[2, 0], [0, 1]], 2)
    v = cover_lift_check(bu, spec, n=4, r=2)
    assert v.ok, v.checks


def test_cover_lift_full_tiling_components():
    bu = full_tiling()
    spec = FiniteCoverSpec.of([[3, 0], [0, 1]], 2)
    v = cover_lift_check(bu, spec, n=3, r=2)
    assert v.ok
    assert v.checks["components"] == v.checks["expected_components"]
    assert v.checks["deck_order"] == 3
