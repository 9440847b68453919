"""Integer-corner window nerves, the lattice-point kernel, the neighbour
stencil, the per-instance stabilization memo, and the exact radical
comparison, checked against Fraction references, a scan of coefficient
boxes and Euler-characteristic oracles."""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nerveforge import periodic
from nerveforge.construct import hollow_tube_boxes, slab_boxes, tiling_boxes
from nerveforge.euclid import sqrt_leq_sum_of_sqrts
from nerveforge.homology import (
    Collapse,
    IntegerChainComplex,
    chain_complex,
    degree_homology,
    induced_map_is_isomorphism,
    induced_map_on_homology,
    simplex_boundary,
    simplicial_chain_map,
)
from nerveforge.jsonio import box_union_from_json
from nerveforge.lattices import LatticeSubgroup
from nerveforge.periodic import (
    Box,
    BoxUnion,
    CoverWindow,
    DegreeOutcome,
    FiniteCoverSpec,
    StabilizationResult,
    cover_lift_check,
    full_coverage_check,
    local_vanishing_check,
    quotient_complex,
    quotient_corner_check,
    stabilization_check,
)
from nerveforge.scenarios import generate
from nerveforge.simplicial import ComplexError, SimplicialMap, cliques_of

from chain_helpers import group_map_is_bijective, inclusion

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


def lattice_vector(lattice, coeffs):
    """The combination of the lattice's HNF rows with coefficients
    ``coeffs``."""
    out = [0] * lattice.ambient
    for c, row in zip(coeffs, lattice.basis):
        out = [x + c * y for x, y in zip(out, row)]
    return tuple(out)


def vertex_box(bu, v):
    """Box j moved by the lattice vector of c, on Fraction corners."""
    j, c = v
    box, t = bu.boxes[j], lattice_vector(bu.lattice, c)
    return Box(tuple(a + x for a, x in zip(box.lo, t)), tuple(b + x for b, x in zip(box.hi, t)))


def meets_cube(box, w):
    """Whether the open box meets [-w, w]^dim."""
    return all(a < w and b > -w for a, b in zip(box.lo, box.hi))


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
            meet = inter.intersect(vertex_box(bu, rest[i]))
            if meet is not None:
                extend(simplex + (rest[i],), meet, i + 1)

    extend((first,), vertex_box(bu, first), 0)
    return out


def reference_window(bu, w):
    verts = [v for v in all_vertices(bu) if meets_cube(vertex_box(bu, v), w)]
    assert all(abs(x) < K for _, c in verts for x in c)
    return set().union(*(simplices_from(bu, v, verts) for v in verts))


def reference_quotient_simplices(bu):
    """Simplices of the periodic nerve whose least vertex has zero
    coefficients: one representative per lattice orbit."""
    reps = set()
    for j, box in enumerate(bu.boxes):
        near = [v for v in all_vertices(bu) if box.intersect(vertex_box(bu, v)) is not None]
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
@given(box_unions())
def test_stencil_matches_fraction_scan(bu):
    """``_stencil[j][j2]`` is every e in [-K, K]^rank for which box j2 moved
    by e meets box j."""
    n = len(bu.boxes)
    for j, box in enumerate(bu.boxes):
        near = [v for v in all_vertices(bu) if box.intersect(vertex_box(bu, v)) is not None]
        assert all(abs(x) < K for _, c in near for x in c)
        for j2 in range(n):
            assert set(bu._stencil[j][j2]) == {c for k, c in near if k == j2}


@st.composite
def lattice_steps_and_boxes(draw):
    """HNF lattices of rank 0 to dim, dim 1-3, with entries right of each
    pivot, scaled by 1-2, some rows negated (a negative pivot), and an
    integer open box whose sides may be empty."""
    dim = draw(st.integers(1, 3))
    pivots = sorted(draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim)))
    rows = [[0] * p + [draw(st.integers(1, 3))]
            + [draw(st.integers(-2, 2)) for _ in range(dim - p - 1)] for p in pivots]
    steps = periodic._LatticeSteps.of(LatticeSubgroup.from_generators(rows, dim),
                                      draw(st.integers(1, 2)))
    steps = steps._replace(rows=tuple(tuple(-x for x in row) if draw(st.booleans()) else row
                                      for row in steps.rows))
    lo = [draw(st.integers(-5, 5)) for _ in range(dim)]
    hi = [a + draw(st.integers(-1, 6)) for a in lo]
    return steps, lo, hi


@settings(max_examples=200, deadline=None)
@given(lattice_steps_and_boxes())
@example((periodic._LatticeSteps.of(LatticeSubgroup.from_generators([[1, 2]], 2), 1),
          [-5, -5], [5, 0]))  # the loose axis 1 keeps c = -2 and -1 of -4 to 4
def test_lattice_points_match_a_scan_of_the_coefficient_box(case):
    """The kernel lists, in lexicographic order, what a scan of the
    coefficient box that the pivots bound finds: with M the largest corner,
    row i's coefficient is at most (M + the earlier rows' reach at its
    pivot) / |pivot| in absolute value."""
    steps, lo, hi = case
    big = max(map(abs, lo + hi))
    bounds = []
    for i, (row, p) in enumerate(zip(steps.rows, steps.pivots)):
        reach = sum(b * abs(r[p]) for b, r in zip(bounds, steps.rows[:i]))
        bounds.append((big + reach) // abs(row[p]) + 1)
    expected = []
    for c in itertools.product(*(range(-b, b + 1) for b in bounds)):
        v = [sum(x * row[k] for x, row in zip(c, steps.rows)) for k in range(len(lo))]
        if all(a < x < b for a, x, b in zip(lo, v, hi)):
            expected.append(c)
    assert periodic._lattice_points_in_open_box(steps, lo, hi) == expected


def clique_complex(simplices):
    """Every set of vertices that are pairwise joined by an edge of
    ``simplices``."""
    verts = sorted(s[0] for s in simplices if len(s) == 1)
    edges = {s for s in simplices if len(s) == 2}
    out = set()

    def extend(clique, cands):
        out.add(clique)
        for i, v in enumerate(cands):
            extend(clique + (v,), [u for u in cands[i + 1:] if (v, u) in edges])

    for i, v in enumerate(verts):
        extend((v,), [u for u in verts[i + 1:] if (v, u) in edges])
    return out


@SETTINGS
@given(box_unions(), st.integers(1, 4))
def test_window_complex_is_the_clique_complex_of_its_edges(bu, w):
    simplices = bu.window_complex(w).simplices
    assert simplices == clique_complex(simplices)


def euler_characteristic(simplices):
    return sum((-1) ** (len(s) - 1) for s in simplices)


def signed_cell_count(boxes, dim):
    """Sum of (-1)^(dim of cell) over the open cells of the corner grid that
    lie in the union of the open ``boxes`` (Fraction corners).

    Axis by axis, the corners of the boxes still in play cut the line into
    points and open intervals; pieces held by the same boxes are summed
    together, so each set of boxes recurses once."""
    def rec(axis, active):
        if axis == dim:
            return 1
        cuts = sorted({x for b in active for x in (b.lo[axis], b.hi[axis])})
        weight: dict[tuple, int] = {}
        for p in cuts:
            held = tuple(b for b in active if b.lo[axis] < p < b.hi[axis])
            if held:
                weight[held] = weight.get(held, 0) + 1
        for s, t in zip(cuts, cuts[1:]):
            held = tuple(b for b in active if b.lo[axis] <= s and t <= b.hi[axis])
            if held:
                weight[held] = weight.get(held, 0) - 1
        return sum(sign * rec(axis + 1, held) for held, sign in weight.items())

    return rec(0, boxes)


@SETTINGS
@given(box_unions(), st.integers(1, 2))
def test_window_euler_characteristic_matches_signed_cell_count(bu, w):
    """The window union U is open in R^dim and a union of open grid cells, so
    chi(U) = (-1)^dim * sum over those cells of (-1)^(dim of cell), by
    Poincare duality for the compactly supported Euler characteristic; by
    the nerve theorem chi(U) is chi of the window nerve."""
    boxes = [vertex_box(bu, v) for v in bu.window_vertices(w)]
    expected = (-1) ** bu.dim * signed_cell_count(boxes, bu.dim)
    assert euler_characteristic(bu.window_complex(w).simplices) == expected


def triangular_rows(draw, n, off):
    """Rows of an upper-triangular n x n matrix with diagonal 1-3 and
    entries in [-off, off] above it: a lattice of full rank."""
    return [[0] * i + [draw(st.integers(1, 3))]
            + [draw(st.integers(-off, off)) for _ in range(n - i - 1)]
            for i in range(n)]


@st.composite
def cover_specs(draw, rank):
    return FiniteCoverSpec.of(triangular_rows(draw, rank, 2), rank)


@SETTINGS
@given(box_unions().flatmap(lambda bu: st.tuples(st.just(bu), cover_specs(bu.rank))),
       st.integers(1, 2))
def test_cover_window_euler_characteristic_is_multiplicative(bu_spec, w):
    """chi(cover) = |G| * chi(base) for a |G|-sheeted cover."""
    bu, spec = bu_spec
    cw = CoverWindow(bu, spec, w)
    assert (euler_characteristic(cw.complex.simplices)
            == len(spec.elements()) * euler_characteristic(cw.base.simplices))


@st.composite
def full_rank_box_unions(draw):
    """A full-rank lattice with short HNF rows; the boxes are the products of
    two intervals per axis, which cover the line modulo that axis's period
    when both of their joins overlap. Joins that only touch or leave a gap
    give unions that miss points."""
    dim = draw(st.integers(1, 2))
    rows = triangular_rows(draw, dim, 1)
    lattice = LatticeSubgroup.from_generators(rows, dim)
    joins = st.sampled_from([Fraction(-1, 8), Fraction(0), Fraction(1, 8), Fraction(1, 4)])
    axes = []
    for i in range(dim):
        period = rows[i][i]
        a = Fraction(draw(st.integers(-4, 0)), 4)
        b = a + Fraction(draw(st.integers(1, 4 * period - 1)), 4)
        x, y = draw(joins), draw(joins)
        axes.append([(a - y, b + x), (b - x, a + period + y)])
    try:  # drop empty intervals and boxes that meet their own translates
        boxes = tuple(Box.of(*zip(*corners)) for corners in itertools.product(*axes))
        return BoxUnion(dim=dim, lattice=lattice, boxes=boxes)
    except periodic.PeriodicError:
        assume(False)


def reference_covers(bu):
    """Every point and open interval of the grid cut by the translated corners
    inside the closed cell [0, d] has a sample point inside some translate."""
    cell = [Fraction(0)] * bu.dim
    for row in bu.lattice.basis:
        pivot = next(j for j, x in enumerate(row) if x)
        cell[pivot] = Fraction(abs(row[pivot]))
    translates = [vertex_box(bu, v) for v in all_vertices(bu)]
    near = [b for b in translates
            if all(a < c and h > 0 for a, c, h in zip(b.lo, cell, b.hi))]
    assert all(abs(x) < K for b in near for x in b.lo)
    samples = []
    for axis in range(bu.dim):
        cuts = sorted({Fraction(0), cell[axis]} | {
            x for b in near for x in (b.lo[axis], b.hi[axis]) if 0 < x < cell[axis]})
        samples.append(cuts + [(s + t) / 2 for s, t in zip(cuts, cuts[1:])])
    return all(any(all(a < x < h for a, x, h in zip(b.lo, p, b.hi)) for b in near)
               for p in itertools.product(*samples))


@SETTINGS
@given(full_rank_box_unions())
@example(BoxUnion.of(*tiling_boxes(dim=2, spacing=2)))
@example(BoxUnion.of(*tiling_boxes(dim=2, spacing=3, overlap=Fraction(1, 3))))
def test_full_coverage_matches_fraction_reference(bu):
    assert full_coverage_check(bu) == reference_covers(bu)


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
@example(BoxUnion.of(*hollow_tube_boxes()))  # a stable H_1 = Z
def test_stabilization_outcomes_do_not_depend_on_the_collapse(bu):
    collapsed = stabilization_check(bu.window)
    # a distinct union, so that no window's homology is kept from the scan above
    fresh = BoxUnion(dim=bu.dim, lattice=bu.lattice, boxes=bu.boxes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntegerChainComplex, "collapse", property(no_collapse))
        plain = stabilization_check(fresh.window)
    assert collapsed == plain


def graph_components(cx):
    """Vertex -> least vertex of its component, by a walk over the edges."""
    adjacent = {v: [] for v in cx.vertices}
    for s in cx.simplices:
        if len(s) == 2:
            adjacent[s[0]].append(s[1])
            adjacent[s[1]].append(s[0])
    label = {}
    for v in sorted(adjacent):
        if v not in label:
            label[v] = v
            stack = [v]
            while stack:
                for u in adjacent[stack.pop()]:
                    if u not in label:
                        label[u] = v
                        stack.append(u)
    return label


def reference_degree_zero(labels):
    """Reduced degree 0 of a window triple from the windows' component labels
    (vertex -> label). Each map sends a component to the component that
    holds its vertices. Two bijections read "stable"; two maps that are no
    bijection and hit at most one component read "zero_image"; a triple of
    empty windows, and anything else, reads "inconclusive"."""
    small, mid, big = labels
    if not big:
        return DegreeOutcome("inconclusive")
    maps = [{label: b[v] for v, label in a.items()} for a, b in ((small, mid), (mid, big))]
    bijective = [len(set(m.values())) == len(m) and set(m.values()) == set(b.values())
                 for m, b in zip(maps, (mid, big))]
    if all(bijective):
        return DegreeOutcome("stable", betti=len(set(mid.values())) - 1)
    if not any(bijective) and all(len(set(m.values())) <= 1 for m in maps):
        return DegreeOutcome("zero_image")
    return DegreeOutcome("inconclusive")


def reference_scan(builder, w_max):
    """The doubling scan with every window's chain complex built from its
    simplices, every inclusion chain map through a ``SimplicialMap`` and the
    components found by walking each window's edges."""
    complexes, ccs, hs = {}, {}, {}

    def cc(w):
        if w not in ccs:
            complexes[w] = builder(w)
            ccs[w] = chain_complex(complexes[w])
        return ccs[w]

    def h(w, d):
        if (w, d) not in hs:
            hs[w, d] = degree_homology(cc(w), d)
        return hs[w, d]

    def induced(a, b, d):
        cm = simplicial_chain_map(inclusion(complexes[a], complexes[b]), cc(a), cc(b))
        return induced_map_on_homology(cm, h(a, d), h(b, d))

    best, top_seen, used, w = {}, 0, (), 1
    while 4 * w <= w_max:
        used = (w, 2 * w, 4 * w)
        for x in used:
            cc(x)
        top = max(max(complexes[x].dimension for x in used), 0)
        top_seen = max(top_seen, top)
        outcomes = {0: reference_degree_zero([graph_components(complexes[x]) for x in used])}
        for d in range(1, top + 1):
            m1, m2 = induced(w, 2 * w, d), induced(2 * w, 4 * w, d)
            if induced_map_is_isomorphism(m1) and induced_map_is_isomorphism(m2):
                betti, torsion = h(2 * w, d).summary_entry()
                outcomes[d] = DegreeOutcome("stable", betti=betti, torsion=torsion)
            elif m1.is_zero and m2.is_zero:
                outcomes[d] = DegreeOutcome("zero_image")
            else:
                outcomes[d] = DegreeOutcome("inconclusive")
        for d, o in outcomes.items():
            if best.get(d, DegreeOutcome("inconclusive")).status == "inconclusive":
                best[d] = o
        if all(o.status != "inconclusive" for o in best.values()):
            break
        w *= 2
    return StabilizationResult(outcomes=best, radii=used, top_degree=top_seen)


def catalog_union(family, seed):
    """The union of the benchmark catalog's ``periodic-boxes`` item of
    ``family`` with spacing 3, drawn with generator seed ``seed``."""
    payload = generate("periodic-boxes", {"family": family, "spacing": 3}, seed).payload
    return box_union_from_json(payload)


@SETTINGS
@given(box_unions())
@example(BoxUnion.of(*hollow_tube_boxes()))
@example(catalog_union("slab", 0))  # cores of single vertices: no degree >= 1 is read
@example(catalog_union("hollow-tube", 0))  # degree 1 within the cores' reach
def test_scan_matches_a_scan_that_builds_every_window(bu):
    assert stabilization_check(bu.window) == reference_scan(bu.window_complex, 16)


@SETTINGS
@given(box_unions(), st.integers(1, 2))
def test_isomorphism_test_matches_the_reference_on_window_triples(bu, w):
    windows = [bu.window_complex(x) for x in (w, 2 * w, 4 * w)]
    ccs = [chain_complex(c) for c in windows]
    maps = [simplicial_chain_map(inclusion(a, b), ca, cb)
            for a, b, ca, cb in zip(windows, windows[1:], ccs, ccs[1:])]
    for d in ccs[2].degrees():
        hs = [degree_homology(cc, d) for cc in ccs]
        for cm, src, dst in zip(maps, hs, hs[1:]):
            m = induced_map_on_homology(cm, src, dst)
            assert induced_map_is_isomorphism(m) == group_map_is_bijective(
                m.matrix, m.source_orders, m.target_orders)


def comb():
    """Rank-1 teeth along x that the w = 1 and w = 2 windows hold apart and
    the w = 4 window joins: one copy reads degree 0 as "zero_image" at radii
    (1, 2, 4), two copies read it as stable at (4, 8, 16)."""
    lattice = LatticeSubgroup.from_generators([[2, 0]], 2)
    corners = [((Fraction(-1, 10), -1), (Fraction(1, 10), Fraction(7, 2))),
               ((Fraction(-1, 5), 3), (Fraction(6, 5), 4)),
               ((Fraction(4, 5), Fraction(16, 5)), (Fraction(11, 5), Fraction(19, 5)))]
    return BoxUnion(dim=2, lattice=lattice, boxes=tuple(Box.of(*c) for c in corners))


def test_comb_reads_degree_zero_differently_in_one_and_two_copies():
    bu = comb()
    one = stabilization_check(bu.window)
    two = stabilization_check(bu.window, sheets=2)
    assert (one.outcomes[0].status, one.radii) == ("zero_image", (1, 2, 4))
    assert (two.outcomes[0].status, two.radii) == ("stable", (4, 8, 16))


@settings(max_examples=20, deadline=None)
@given(box_unions().flatmap(lambda bu: st.tuples(st.just(bu), cover_specs(bu.rank))))
@example((BoxUnion.of(*hollow_tube_boxes()), FiniteCoverSpec.of([[2]], 1)))
@example((comb(), FiniteCoverSpec.of([[2]], 1)))
@example((comb(), FiniteCoverSpec.of([[3]], 1)))
def test_cover_scan_matches_a_scan_that_builds_every_window(bu_spec):
    """``sheets=|G|`` gives what the scan of the cover windows gives."""
    bu, spec = bu_spec

    def builder(w):
        return CoverWindow(bu, spec, w).complex

    assert stabilization_check(bu.window, sheets=len(spec.elements())) == (
        reference_scan(builder, 16))


def reference_cover_lift_check(bu, spec, n, r):
    """``cover_lift_check`` for rank < dim on cover windows built sheet by
    sheet: each unit lift sends (j, c, h) to (j, c + e, h + [e]) between
    ``CoverWindow`` complexes, and the stabilization scans the cover
    windows."""
    order = len(spec.elements())
    margin = max((abs(x) for row in bu.lattice.basis for x in row), default=1)
    small, big = (CoverWindow(bu, spec, w).complex for w in (2, 2 + 2 * margin))
    units = [tuple(int(i == j) for j in range(bu.rank)) for i in range(bu.rank)]
    lifts = [{(j, c, h): (j, tuple(map(add, c, e)), spec.add(h, e))
              for j, c, h in small.vertices} for e in units]
    checks = {"deck_order": order, "group_action": True, "commutes_with_deck": True,
              "sheet_choice_deck_difference": True}
    try:
        lift_maps = [SimplicialMap(small, big, lift) for lift in lifts]
    except ComplexError:
        lift_maps = None
    checks["lift_simplicial"] = lift_maps is not None
    result = reference_scan(lambda w: CoverWindow(bu, spec, w).complex, 16)
    inconclusive, bad = result.nonvanishing_from(n - 1 - r)
    checks["cover_vanishing"] = not inconclusive and not bad
    trivial = lift_maps is not None
    if trivial:
        small_cc, big_cc = chain_complex(small), chain_complex(big)
        incl = simplicial_chain_map(inclusion(small, big), small_cc, big_cc)
        maps = [incl] + [simplicial_chain_map(m, small_cc, big_cc) for m in lift_maps]
        for d in range(1, max(small.dimension, 0) + 1):
            src_h = degree_homology(small_cc, d)
            if src_h.generators:
                dst_h = degree_homology(big_cc, d)
                expected, *lifted = [induced_map_on_homology(cm, src_h, dst_h).matrix
                                     for cm in maps]
                trivial = trivial and all(m == expected for m in lifted)
        label = graph_components(big)
        trivial = trivial and all(label[lift[v]] == label[v]
                                  for lift in lifts for v in small.vertices)
    checks["acts_trivially_on_homology"] = trivial
    return periodic.CoverLiftVerdict(
        ok=trivial and checks["lift_simplicial"] and checks["cover_vanishing"],
        inconclusive=inconclusive, checks=checks,
        detail={"threshold_degree": n - 1 - r,
                "outcomes": {str(d): o.status for d, o in sorted(result.outcomes.items())}})


def ring(center, outer, wall):
    """Four boxes around ``center`` in the first two coordinates, each
    ``wall`` thick, ``outer`` from the centre to the outside: the nerve is a
    4-cycle around a hole that no box covers. The boxes reach 1/2 from the
    centre along the other coordinates."""
    half = Fraction(1, 2)
    walls = [((-outer, -outer), (outer, wall - outer)), ((-outer, outer - wall), (outer, outer)),
             ((-outer, -outer), (wall - outer, outer)), ((outer - wall, -outer), (outer, outer))]
    return [Box.of([center[0] + lo[0], center[1] + lo[1]] + [x - half for x in center[2:]],
                   [center[0] + hi[0], center[1] + hi[1]] + [x + half for x in center[2:]])
            for lo, hi in walls]


@st.composite
def chained_box_unions(draw):
    """Connected rank-1 unions: k links chained from the origin along the
    lattice vector v = (k * s, t, 0, ...), link i centred at (i / k) v and
    overlapping the next, the last one overlapping the first one's translate.
    A link is a box or a ring; each ring's hole is an H_1 class that the
    unit translation moves to the next period's hole. Every link reaches
    s / 2 + 1/4 along x from its centre and a ring's walls are 3/8 thick, so
    neighbours overlap along x, two rings side by side have distinct walls,
    no link covers a hole's centre, and a link is shorter along x than the
    period."""
    dim = draw(st.integers(2, 3))
    k, s = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    v = [k * s, draw(st.integers(-1, 1))] + [0] * (dim - 2)
    reach, half = Fraction(s, 2) + Fraction(1, 4), Fraction(1, 2)
    boxes = []
    for i in range(k):
        c = [Fraction(i * x, k) for x in v]
        if draw(st.booleans()):
            boxes += ring(c, reach, Fraction(3, 8))
        else:
            boxes.append(Box.of([c[0] - reach] + [x - half for x in c[1:]],
                                [c[0] + reach] + [x + half for x in c[1:]]))
    return BoxUnion(dim=dim, lattice=LatticeSubgroup.from_generators([v], dim),
                    boxes=tuple(boxes))


@settings(max_examples=30, deadline=None)
@given(st.one_of(box_unions(), chained_box_unions()).flatmap(
    lambda bu: st.tuples(st.just(bu), cover_specs(bu.rank))))
@example((comb(), FiniteCoverSpec.of([[2]], 1)))
@example((BoxUnion.of(*hollow_tube_boxes()), FiniteCoverSpec.of([[2]], 1)))
def test_cover_lift_check_matches_the_check_on_cover_windows(bu_spec):
    bu, spec = bu_spec
    assert cover_lift_check(bu, spec, bu.dim + 1, bu.rank) == reference_cover_lift_check(
        bu, spec, bu.dim + 1, bu.rank)


@settings(max_examples=18, deadline=None)
@given(st.data())
def test_product_cover_components_match_the_cover_window(data):
    """The verdict's closed-form counts are what the w = 4 cover window's
    edges and its base's connect; decks of order 3 to 18 (at most 4 in
    dim 3)."""
    dim = data.draw(st.integers(1, 3))
    spacing = data.draw(st.sampled_from([2, 3]) if dim < 3 else st.just(3))
    bu = BoxUnion.of(*tiling_boxes(dim=dim, spacing=spacing))
    spec = FiniteCoverSpec.of(triangular_rows(data.draw, dim, 2), dim)
    order = len(spec.elements())
    assume(2 < order <= (4 if dim == 3 else 18))
    checks = cover_lift_check(bu, spec, n=dim + 1, r=dim).checks
    cw = CoverWindow(bu, spec, 4)
    assert checks["components"] == len(set(graph_components(cw.complex).values()))
    assert checks["expected_components"] == order * len(
        set(graph_components(cw.base).values()))


@SETTINGS
@given(full_rank_box_unions().flatmap(
    lambda bu: st.tuples(st.just(bu), cover_specs(bu.rank))), st.integers(1, 4))
def test_cover_window_has_order_times_base_components(bu_spec, w):
    """The sheet labels h + [c] are a coboundary, so a cover window is |G|
    disjoint copies of its base: also on unions that leave gaps, whose
    windows have loops that a sheet could close or leave open."""
    bu, spec = bu_spec
    cw = CoverWindow(bu, spec, w)
    assert len(set(graph_components(cw.complex).values())) == len(spec.elements()) * len(
        set(graph_components(cw.base).values()))


@SETTINGS
@given(full_rank_box_unions(), st.integers(1, 4))
@example(BoxUnion.of(*tiling_boxes(dim=2, spacing=3)), 1)
def test_full_coverage_makes_the_base_window_connected(bu, w):
    """The open window boxes each meet the connected cube [-w, w]^dim, and
    under coverage their union contains it, so their nerve is connected."""
    if full_coverage_check(bu):
        assert len(set(graph_components(bu.window_complex(w)).values())) == 1


def two_squares():
    """Two unit squares apart, under the rank-0 lattice."""
    return BoxUnion(dim=2, lattice=LatticeSubgroup.from_generators([], 2),
                    boxes=(Box.of([0, 0], [1, 1]), Box.of([3, 3], [4, 4])))


def test_rank_zero_window_keeps_only_boxes_meeting_it():
    bu = two_squares()
    assert bu.window_vertices(1) == [(0, ())]
    assert set(bu.window_complex(1).simplices) == {((0, ()),)}
    assert bu.window_vertices(4) == [(0, ()), (1, ())]
    q = quotient_complex(bu)
    assert {s for simplices in q.basis.values() for s in simplices} == {
        ((0, ()),), ((1, ()),)}


def chain_of_rings():
    """A ring of four boxes around each multiple of (4, 0), with a bar from
    each ring to the next: a connected union whose translation moves every
    ring's H_1 class to the next ring's."""
    F = Fraction
    lattice = LatticeSubgroup.from_generators([[4, 0]], 2)
    corners = [((-1, -1), (1, F(-1, 2))), ((F(1, 2), -1), (1, 1)),
               ((-1, F(1, 2)), (1, 1)), ((-1, -1), (F(-1, 2), 1)),
               ((F(3, 4), F(-1, 4)), (F(13, 4), F(1, 4)))]
    return BoxUnion(dim=2, lattice=lattice, boxes=tuple(Box.of(*c) for c in corners))


def wide_tube():
    """A tube along the x axis with lattice (1, 0, 0): per period, two boxes
    on each side of a square ring of side 40, each at |y| >= 39/2 or
    |z| >= 39/2. The windows up to w = 16 are empty; the w = 32 window holds
    the ring."""
    F = Fraction
    lattice = LatticeSubgroup.from_generators([[1, 0, 0]], 3)
    inner = F(39, 2)
    walls = [((-20, inner), (20, 20)), ((-20, -20), (20, -inner)),
             ((-20, -20), (-inner, 20)), ((inner, -20), (20, 20))]
    return BoxUnion(dim=3, lattice=lattice, boxes=tuple(
        Box.of([x, ylo, zlo], [x + F(3, 4), yhi, zhi])
        for (ylo, zlo), (yhi, zhi) in walls for x in (F(-1, 8), F(3, 8))))


def with_periodic_fixtures(test):
    """``test`` with every fixture union as an explicit example: the hollow
    tube, the slab, the chain of rings, the wide tube and a rank-0 union."""
    for bu in (BoxUnion.of(*hollow_tube_boxes()), BoxUnion.of(*slab_boxes()),
               chain_of_rings(), wide_tube(), two_squares()):
        test = example(bu)(test)
    return test


def orbit_normalize(simplex):
    """The translate of ``simplex`` whose least vertex has zero
    coefficients, sorted."""
    base = min(simplex)[1]
    return tuple(sorted((j, tuple(x - y for x, y in zip(c, base))) for j, c in simplex))


def reference_orbit_complex(bu):
    """The orbit complex with its order rebuilt after the fact: the
    representatives gathered in a set, grouped by degree, each degree
    sorted, and every face translated back and sorted."""
    reps = set()
    for j, neighbours in enumerate(bu._later_neighbours):
        base_vertex = (j, (0,) * bu.rank)
        reps.add((base_vertex,))
        reps.update((base_vertex,) + alpha
                    for alpha in cliques_of(neighbours, bu._later(neighbours)))
    by_degree = {}
    for s in reps:
        by_degree.setdefault(len(s) - 1, []).append(s)
    for d in by_degree:
        by_degree[d].sort()
    return IntegerChainComplex.of_cells(by_degree, lambda s: [
        (sign, orbit_normalize(f)) for sign, f in simplex_boundary(s)])


def in_order(cc):
    """Bases and boundary columns as nested lists, so that equality also
    compares the order of degrees, columns and entries."""
    return ([(d, cc.basis[d]) for d in sorted(cc.basis)],
            [(d, [(col, list(entries.items())) for col, entries in cc.boundaries[d].items()])
             for d in sorted(cc.boundaries)])


@SETTINGS
@given(box_unions())
@with_periodic_fixtures
def test_orbit_complex_equals_the_sorted_reference(bu):
    q = quotient_complex(bu)
    assert in_order(q) == in_order(reference_orbit_complex(bu))
    assert all(cells == sorted(cells) for cells in q.basis.values())


@SETTINGS
@given(box_unions())
@with_periodic_fixtures
def test_window_vertices_come_sorted(bu):
    for w in (1, 2, 4, 8):
        vertices = bu.window_vertices(w)
        assert vertices == sorted(vertices)


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


def test_equal_box_unions_keep_separate_memos(monkeypatch):
    calls = count_stabilizations(monkeypatch)
    a, b = strip(), strip()
    a.stabilization
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "stabilization" in vars(a) and "stabilization" not in vars(b)
    b.stabilization
    assert len(calls) == 2
    assert a.stabilization is not b.stabilization


def test_stencil_is_lazy_and_outside_equality():
    a, b = strip(), strip()
    assert "_stencil" not in vars(a)
    a.window_complex(2)
    assert "_stencil" in vars(a) and "_stencil" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_mutating_verdict_radii_leaves_memo_alone():
    bu = strip()
    first = local_vanishing_check(bu, n=3, r=1)
    first.detail["radii"].append(99)
    assert bu.stabilization.radii == (1, 2, 4)
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
