import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nerveforge import covers as covers_module
from nerveforge.construct import grid_complex, interval_subcomplex, path_complex, rect_subcomplex
from nerveforge.covers import (
    Cover,
    CoverError,
    assembly_bound_check,
    goodness_check,
    nerve,
    saturate,
)
from nerveforge.homology import (
    ChainComplexError,
    HomologySummary,
    chain_complex,
    degree_homology,
    homology,
    homology_of_complex,
)
from nerveforge.simplicial import SimplicialComplex, close_downward

from chain_helpers import fattening, scanned_chains, simplices_of_dim
from stock_complexes import cycle_complex, simplex_boundary_complex


def interval_cover(path, spans):
    return Cover(path, {i: interval_subcomplex(path, a, b)
                        for i, (a, b) in enumerate(spans)})


def random_rect_cover(rng, nx=3, ny=3, n_pieces=4, max_parts=1):
    """Up to ``n_pieces`` distinct pieces of a grid, each a union of 1 to
    ``max_parts`` random rectangles (so disconnected or annular when > 1)."""
    grid = grid_complex(nx, ny)
    pieces = {}
    for i in range(n_pieces):
        sub = frozenset()
        for _ in range(rng.randrange(1, max_parts + 1) if max_parts > 1 else 1):
            i0 = rng.randrange(nx)
            j0 = rng.randrange(ny)
            i1 = min(nx, i0 + rng.randrange(1, 3))
            j1 = min(ny, j0 + rng.randrange(1, 3))
            sub |= rect_subcomplex(grid, i0, i1, j0, j1)
        if sub not in pieces.values():
            pieces[i] = sub
    return Cover(grid, pieces)


def test_cover_validation():
    path = path_complex(4)
    with pytest.raises(CoverError):
        Cover(path, {0: frozenset()})
    sub = interval_subcomplex(path, 0, 2)
    with pytest.raises(CoverError):
        Cover(path, {0: sub, 1: sub})
    with pytest.raises(CoverError):
        Cover(path, {0: sub}, covering=True)
    # a set piece would later break the frozenset-keyed homology memo
    with pytest.raises(CoverError, match="not a frozenset"):
        Cover(path, {0: set(sub)})


@st.composite
def pieces_with_gaps(draw):
    """A complex and a piece of it: the closure of a few of its simplices,
    minus up to two simplices, so the piece is closed or not."""
    c = SimplicialComplex.from_maximal(draw(st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=5)))
    closed = close_downward(draw(st.lists(st.sampled_from(sorted(c.simplices)),
                                          min_size=1, max_size=3)))
    gaps = draw(st.sets(st.sampled_from(sorted(closed)), max_size=2))
    return c, closed - gaps


@settings(max_examples=200, deadline=None)
@given(pieces_with_gaps())
def test_facet_check_agrees_with_the_all_faces_check(case):
    c, piece = case
    assume(piece)
    closed = all(f in piece for s in piece for k in range(1, len(s))
                 for f in combinations(s, k))
    try:
        Cover(c, {0: piece})
        accepted = True
    except CoverError:
        accepted = False
    assert accepted == closed


def test_nerve_disjoint_pieces():
    path = path_complex(5)
    nv = nerve(interval_cover(path, [(0, 1), (3, 5)]))
    assert set(nv.intersections) == {(0,), (1,)}


def test_nerve_three_arcs_circle():
    c = cycle_complex(6)
    arcs = {
        "a": SimplicialComplex.from_maximal([(0, 1), (1, 2)]).simplices,
        "b": SimplicialComplex.from_maximal([(2, 3), (3, 4)]).simplices,
        "c": SimplicialComplex.from_maximal([(4, 5), (0, 5)]).simplices,
    }
    cov = Cover(c, arcs, covering=True)
    nv = nerve(cov)
    assert set(nv.intersections) == {("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "c")}
    assert homology_of_complex(nv.complex) == HomologySummary.of({0: (1, ()), 1: (1, ())})


def test_nerve_common_vertex_full_simplex():
    path = path_complex(4)
    cov = interval_cover(path, [(0, 2), (1, 3), (2, 4), (1, 2)])
    nv = nerve(cov)
    assert (0, 1, 2, 3) in nv.intersections


def test_nerve_monotone_under_adding_piece():
    rng = random.Random(0)
    for _ in range(10):
        cov = random_rect_cover(rng, n_pieces=3)
        nv1 = set(nerve(cov).intersections)
        grid = cov.ambient
        extra = rect_subcomplex(grid, 0, 1, 0, 1)
        if extra in cov.pieces.values():
            continue
        bigger = Cover(grid, {**cov.pieces, 99: extra})
        nv2 = set(nerve(bigger).intersections)
        assert nv1 <= nv2


def test_saturate_idempotent_extensive():
    rng = random.Random(1)
    for _ in range(15):
        cov = random_rect_cover(rng)
        nv = nerve(cov)
        for alpha in nv.intersections:
            bar = saturate(nv, alpha, cov)
            assert set(alpha) <= set(bar)
            assert nv.intersections.get(bar) == nv.intersections[alpha]
            assert saturate(nv, bar, cov) == bar


def test_saturate_exhaustive_small():
    # exhaustive check on interval covers with <= 5 pieces
    path = path_complex(5)
    spans_pool = [(0, 2), (1, 3), (2, 4), (3, 5), (0, 5)]
    from itertools import combinations
    for k in (2, 3, 4, 5):
        for chosen in combinations(spans_pool, k):
            cov = interval_cover(path, chosen)
            nv = nerve(cov)
            for alpha in nv.intersections:
                bar = saturate(nv, alpha, cov)
                meet = cov.pieces[bar[0]]
                for i in bar[1:]:
                    meet = meet & cov.pieces[i]
                assert meet == nv.intersections[alpha]


def test_saturate_rejects_non_simplex():
    cov = interval_cover(path_complex(5), [(0, 1), (3, 5)])
    nv = nerve(cov)
    with pytest.raises(CoverError, match="not a simplex of the nerve"):
        saturate(nv, (0, 1), cov)
    assert saturate(nv, (1,), cov) == (1,)


def test_reduced_nerve_strict_decrease_rule():
    # saturated s < t have X_t < X_s, so heights along inclusion are the
    # chain lengths of strictly decreasing intersections
    rng = random.Random(2)
    pairs = 0
    for _ in range(10):
        cov = random_rect_cover(rng)
        nv = nerve(cov)
        saturated = {saturate(nv, a, cov) for a in nv.intersections}
        for s in saturated:
            for t in saturated:
                if set(s) < set(t):
                    pairs += 1
                    assert nv.intersections[t] < nv.intersections[s]
    assert pairs


def test_fattening_single_piece():
    path = path_complex(3)
    cov = interval_cover(path, [(0, 3)])
    assert homology(fattening(cov).cc) == HomologySummary.of({0: (1, ())})


def test_fattening_matches_union_and_nerve_on_good_covers():
    rng = random.Random(4)
    for _ in range(12):
        cov = random_rect_cover(rng, n_pieces=4)
        total = fattening(cov)
        h_total = homology(total.cc)
        h_union = homology_of_complex(cov.union_complex())
        assert h_total == h_union
        if goodness_check(cov).good:
            assert h_total == homology_of_complex(nerve(cov).complex)


def union_cycles(cx, d):
    """The generator cycles of H_d(cx), as ``{simplex: value}``."""
    cc = chain_complex(cx)
    return [{cc.basis[d][i]: v for i, v in enumerate(gen) if v}
            for gen in degree_homology(cc, d).generators]


def checked_lift(total, cycle, d):
    """Lift ``cycle`` through ``total``; assert that the lift is a cycle of
    the total complex whose horizontal-degree-0 part sums to ``cycle``, and
    return the highest horizontal degree it reaches."""
    vec = total.lift_cycle(cycle, d)
    boundary = {}
    for col, v in enumerate(vec):
        for row, w in total.cc.boundaries[d][col].items():
            boundary[row] = boundary.get(row, 0) + v * w
    assert not any(boundary.values())
    base = {}
    for (o, s), v in zip(total.cc.basis[d], vec):
        if len(o) == 1:
            base[s] = base.get(s, 0) + v
    assert {s: v for s, v in base.items() if v} == cycle
    return max(len(o) - 1 for (o, _), v in zip(total.cc.basis[d], vec) if v)


def test_fattening_lifts_union_cycles():
    rng = random.Random(8)
    lifted = 0
    for _ in range(60):
        cov = random_rect_cover(rng, nx=5, ny=5, n_pieces=8, max_parts=2)
        total = fattening(cov)
        union = cov.union_complex()
        for d in range(1, union.dimension + 1):
            for cycle in union_cycles(union, d):
                checked_lift(total, cycle, d)
                lifted += 1
    assert lifted >= 10


def test_fattening_lift_of_sphere_reaches_triple_overlaps():
    # the boundary of a tetrahedron covered by its four closed triangles:
    # double overlaps are edges and triple overlaps vertices, so the
    # fundamental class needs a correction in horizontal degree 2
    sphere = simplex_boundary_complex(4)
    cov = Cover(sphere, {
        i: SimplicialComplex.from_maximal([t]).simplices
        for i, t in enumerate(simplices_of_dim(sphere, 2))
    }, covering=True)
    [cycle] = union_cycles(sphere, 2)
    assert checked_lift(fattening(cov), cycle, 2) == 2


def test_fattening_lift_rejects_simplex_outside_every_piece():
    c = cycle_complex(6)
    pieces = {
        0: SimplicialComplex.from_maximal([(0, 1), (1, 2), (2, 3)]).simplices,
        1: SimplicialComplex.from_maximal([(3, 4), (4, 5)]).simplices,
    }
    [cycle] = union_cycles(c, 1)
    with pytest.raises(ChainComplexError, match="not covered"):
        fattening(Cover(c, pieces)).lift_cycle(cycle, 1)


def test_fattening_annulus_union():
    # two interval pieces overlapping at both ends of a circle: union is the
    # circle even though each piece is contractible
    c = cycle_complex(6)
    pieces = {
        0: SimplicialComplex.from_maximal([(0, 1), (1, 2), (2, 3)]).simplices,
        1: SimplicialComplex.from_maximal([(3, 4), (4, 5), (0, 5)]).simplices,
    }
    cov = Cover(c, pieces, covering=True)
    assert homology(fattening(cov).cc) == HomologySummary.of({0: (1, ()), 1: (1, ())})
    # the double overlap has two components, so the cover is not good
    assert not goodness_check(cov).good


def test_goodness_cover_by_simplices():
    grid = grid_complex(2, 1)
    pieces = {
        0: rect_subcomplex(grid, 0, 1, 0, 1),
        1: rect_subcomplex(grid, 1, 2, 0, 1),
    }
    assert goodness_check(Cover(grid, pieces)).good


def test_goodness_annular_intersection():
    grid = grid_complex(3, 3)
    # build an annular piece: full grid minus the open star of the center block
    inner = frozenset(
        s for s in grid.simplices if any(v == (1, 1) or v == (2, 2) or v == (1, 2) or v == (2, 1) for v in s)
    )
    annular = grid.simplices - inner
    pieces = {
        0: annular,
        1: rect_subcomplex(grid, 0, 3, 0, 3),
    }
    cov = Cover(grid, pieces)
    rep = goodness_check(cov)
    flag, summ = rep.entries[(0, 1)]
    assert not flag and summ.betti(1) == 1
    assert not rep.good


def test_assembly_good_cover_contractible_nerve():
    path = path_complex(6)
    cov = interval_cover(path, [(0, 3), (2, 5), (4, 6)])
    for n in (1, 2, 3):
        v = assembly_bound_check(cov, n)
        assert v.hypotheses_hold and v.conclusion_holds and v.implication_holds


def test_assembly_never_violated_random():
    rng = random.Random(5)
    for _ in range(40):
        cov = random_rect_cover(rng, n_pieces=rng.randrange(2, 5))
        v = assembly_bound_check(cov, rng.randrange(1, 4))
        assert v.implication_holds
        assert v.certificate is None


# ---------------------------------------------------------------------------
# the per-cover homology memo against the per-chain loops (properties)
# ---------------------------------------------------------------------------

def loop_goodness_check(cover):
    """Reference: one homology computation per nerve simplex."""
    nv = nerve(cover)
    entries = {}
    for alpha in nv.simplices():
        summ = homology_of_complex(SimplicialComplex(nv.intersections[alpha]), reduced=True)
        entries[alpha] = (summ == HomologySummary.of({}), summ)
    return covers_module.GoodnessReport(good=all(f for f, _ in entries.values()),
                                        entries=entries)


def loop_assembly_bound_check(cover, n):
    """Reference: one homology computation per chain of saturated simplices,
    and the homology of the complex of those chains (the reduced nerve)."""
    nv = nerve(cover)
    chains = scanned_chains(sorted({saturate(nv, a, cover) for a in nv.intersections}))
    coeff_ok = True
    for chain in chains:
        top = max(chain, key=len)
        summ = homology_of_complex(SimplicialComplex(nv.intersections[top]), reduced=True)
        coeff_ok = coeff_ok and summ.is_trivial_at_or_above(n - (len(chain) - 1))
    rn_summary = homology_of_complex(SimplicialComplex(chains))
    nerve_ok = rn_summary.is_trivial_at_or_above(n)
    union_summary = homology_of_complex(cover.union_complex())
    conclusion = union_summary.is_trivial_at_or_above(n)
    hypotheses = coeff_ok and nerve_ok
    certificate = None
    if hypotheses and not conclusion:
        certificate = {"union_homology": union_summary.as_json(), "degree_bound": n}
    return covers_module.AssemblyVerdict(
        hypotheses_hold=hypotheses,
        conclusion_holds=conclusion,
        implication_holds=not (hypotheses and not conclusion),
        degree_bound=n,
        detail={
            "coefficients_vanish": coeff_ok,
            "reduced_nerve_vanishes": nerve_ok,
            "reduced_nerve_homology": rn_summary.as_json(),
            "union_homology": union_summary.as_json(),
        },
        certificate=certificate,
    )


MEMO_SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def random_covers(draw):
    """``random_rect_cover`` on a 3x3 or 4x4 grid with 2-5 pieces, each a
    union of up to two rectangles, so intersections with homology are
    common."""
    rng = draw(st.randoms(use_true_random=False))
    size = draw(st.integers(3, 4))
    return random_rect_cover(rng, nx=size, ny=size, n_pieces=draw(st.integers(2, 5)),
                             max_parts=draw(st.integers(1, 2)))


@MEMO_SETTINGS
@given(random_covers(), st.booleans())
def test_cover_checks_match_per_chain_loops(cov, assembly_first):
    # every degree bound on one cover, so later checks read a filled memo
    verdicts = {}
    if assembly_first:
        verdicts = {n: assembly_bound_check(cov, n) for n in range(4)}
    assert goodness_check(cov).as_json() == loop_goodness_check(cov).as_json()
    for n in range(4):
        asm = verdicts.get(n) or assembly_bound_check(cov, n)
        ref = loop_assembly_bound_check(cov, n)
        assert asm == ref
        assert repr(asm.detail) == repr(ref.detail)


def test_cover_homology_once_per_distinct_intersection(monkeypatch):
    calls = []

    def counted(c, reduced=False):
        calls.append(c)
        return homology_of_complex(c, reduced=reduced)

    monkeypatch.setattr(covers_module, "homology_of_complex", counted)
    rng = random.Random(11)
    shared = 0
    for _ in range(30):
        cov = random_rect_cover(rng, n_pieces=rng.randrange(2, 6), max_parts=2)
        nv = nerve(cov)
        distinct = len(set(nv.intersections.values()))
        shared += len(nv.intersections) > distinct
        calls.clear()
        goodness_check(cov)
        assembly_bound_check(cov, rng.randrange(0, 3))
        assert len(calls) == distinct + 2
        # an equal but distinct cover starts from an empty memo
        twin = Cover(cov.ambient, dict(cov.pieces))
        assert twin == cov and twin is not cov
        calls.clear()
        goodness_check(twin)
        assert len(calls) == distinct
    assert shared  # some nerve simplices share an intersection


def test_cover_checks_build_one_nerve(monkeypatch):
    # through the module-level ``nerve``, where the benchmark's tracer sees it
    calls = []

    def counted(cover):
        calls.append(cover)
        return nerve(cover)

    monkeypatch.setattr(covers_module, "nerve", counted)
    cov = interval_cover(path_complex(6), [(0, 3), (2, 5), (1, 4)])
    good = goodness_check(cov)
    for n in range(3):
        assembly_bound_check(cov, n)
    assert calls == [cov]
    assert set(good.entries) == set(nerve(cov).intersections)
    twin = Cover(cov.ambient, dict(cov.pieces))
    assembly_bound_check(twin, 1)
    goodness_check(twin)
    assert len(calls) == 2 and calls[1] is twin


def test_cover_memo_is_not_part_of_equality_or_repr():
    cov = interval_cover(path_complex(6), [(0, 3), (2, 5), (1, 4)])
    before = repr(cov)
    goodness_check(cov)
    assembly_bound_check(cov, 1)
    fresh = interval_cover(path_complex(6), [(0, 3), (2, 5), (1, 4)])
    assert repr(cov) == before == repr(fresh)
    assert cov == fresh and fresh == cov
