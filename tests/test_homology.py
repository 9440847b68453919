import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerveforge import homology as homology_module
from nerveforge.construct import grid_complex, path_complex, rect_subcomplex
from nerveforge.homology import (
    ChainComplexError,
    HomologySummary,
    InducedMap,
    IntegerChainComplex,
    TotalComplex,
    chain_complex,
    degree_homology,
    homology,
    homology_of_complex,
    induced_map_is_isomorphism,
    induced_map_on_homology,
    simplex_boundary,
)
from nerveforge.simplicial import ComplexError, SimplicialComplex, SimplicialMap
from nerveforge.snf import rational_rank

from chain_helpers import (group_map_is_bijective, inclusion, induced_homology_map,
                           scanned_chains, simplices_of_dim)
from stock_complexes import (annulus, cycle_complex, disk_on_circle, full_simplex,
                             projective_plane_6, simplex_boundary_complex, torus_7)


def rational_betti_oracle(c):
    """Betti numbers over Q by rank-nullity, independent of the SNF path."""
    cc = chain_complex(c)
    out = {}
    for d in cc.degrees():
        n = cc.dim(d)
        r_d = rational_rank(cc.dense_boundary(d)) if cc.dim(d - 1) else 0
        r_up = rational_rank(cc.dense_boundary(d + 1)) if cc.dim(d + 1) else 0
        out[d] = n - r_d - r_up
    return out


def test_sphere():
    s2 = simplex_boundary_complex(4)
    h = homology_of_complex(s2)
    assert h == HomologySummary.of({0: (1, ()), 2: (1, ())})


def test_torus():
    h = homology_of_complex(torus_7())
    assert h == HomologySummary.of({0: (1, ()), 1: (2, ()), 2: (1, ())})
    oracle = rational_betti_oracle(torus_7())
    assert (oracle[0], oracle[1], oracle[2]) == (1, 2, 1)


def test_projective_plane():
    h = homology_of_complex(projective_plane_6())
    assert h == HomologySummary.of({0: (1, ()), 1: (0, (2,))})
    assert h.torsion(1) == (2,)


def test_homology_agrees_with_rational_oracle():
    rng = random.Random(9)
    grid = grid_complex(3, 3)
    for _ in range(20):
        i0, j0 = rng.randrange(3), rng.randrange(3)
        piece = rect_subcomplex(grid, i0, i0 + rng.randrange(1, 3), j0, j0 + rng.randrange(1, 3))
        c = SimplicialComplex(piece)
        h = homology_of_complex(c)
        for d, b in rational_betti_oracle(c).items():
            assert h.betti(d) == b


def test_malformed_complex_reports_degree():
    with pytest.raises(ChainComplexError, match="degree 2"):
        IntegerChainComplex(
            basis={0: ["a", "b"], 1: ["e", "f"], 2: ["t"]},
            boundaries={
                1: {0: {0: -1, 1: 1}, 1: {0: -1, 1: 1}},
                2: {0: {0: 1, 1: 1}},
            },
        )


def test_barycentric_preserves_homology():
    for c in (simplex_boundary_complex(4), annulus(), torus_7(), path_complex(3)):
        subdivision = SimplicialComplex(scanned_chains(sorted(c.simplices)))
        assert homology_of_complex(c) == homology_of_complex(subdivision)


def identity(c):
    """The identity map of ``c``."""
    return SimplicialMap(c, c, {v: v for v in c.vertices})


def compose(later, earlier):
    """The simplicial map ``later`` after ``earlier``."""
    return SimplicialMap(earlier.source, later.target,
                         {v: later.vertex_map[w] for v, w in earlier.vertex_map.items()})


def is_acyclic(c):
    """Vanishing reduced integer homology in every degree."""
    return bool(c.simplices) and homology_of_complex(c, reduced=True) == HomologySummary.of({})


def test_is_acyclic():
    assert is_acyclic(full_simplex(3))
    assert is_acyclic(disk_on_circle(5))
    assert not is_acyclic(cycle_complex(4))
    assert not is_acyclic(SimplicialComplex())


def test_induced_identity_map():
    t = torus_7()
    m = induced_homology_map(identity(t), 1)
    assert m.matrix == [[1, 0], [0, 1]]
    assert not m.is_zero
    assert induced_map_is_isomorphism(m)


def test_equator_in_disk_induces_zero():
    disk = disk_on_circle(4)
    eq = SimplicialComplex.from_maximal(
        [tuple(sorted((str(i), str((i + 1) % 4)))) for i in range(4)]
    )
    f = inclusion(eq, disk)
    m = induced_homology_map(f, 1)
    assert m.is_zero
    assert m.source_orders == [0]
    assert m.target_orders == []


def test_boundary_circle_into_annulus():
    ann = annulus()
    circle = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
    f = inclusion(circle, ann)
    m = induced_homology_map(f, 1)
    assert len(m.matrix) == 1 and len(m.matrix[0]) == 1
    assert abs(m.matrix[0][0]) == 1
    assert not m.is_zero
    # independent oracle: enumerate the cycle/boundary structure directly
    cc = chain_complex(ann)
    h1 = degree_homology(cc, 1)
    assert h1.orders == [0]


def test_out_of_range_degree_flagged():
    c = path_complex(2)
    m = induced_homology_map(identity(c), 5)
    assert m.is_zero


@pytest.mark.parametrize("side", ["source", "target"])
def test_degree_empty_on_one_side_only(side):
    circle = cycle_complex(3)
    if side == "source":
        points = SimplicialComplex.from_maximal([(v,) for v in circle.vertices])
        f = inclusion(points, circle)
    else:
        point = SimplicialComplex.from_maximal([(0,)])
        f = SimplicialMap(circle, point, {v: 0 for v in circle.vertices})
    m = induced_homology_map(f, 1)
    assert m.is_zero
    if side == "source":
        assert (m.matrix, m.source_orders, m.target_orders) == ([[]], [], [0])
    else:
        assert (m.matrix, m.source_orders, m.target_orders) == ([], [0], [])


def test_torsion_aware_zero_flag():
    rp2 = projective_plane_6()
    m = induced_homology_map(identity(rp2), 1)
    assert not m.is_zero
    assert m.source_orders == [2]
    assert m.matrix == [[1]]


def test_image_of_a_cycle_that_is_not_a_cycle_raises():
    # the chain map sends the circle's generating 1-cycle onto one edge
    cc = chain_complex(cycle_complex(3))
    h1 = degree_homology(cc, 1)
    assert h1.orders == [0]
    with pytest.raises(ChainComplexError, match="not a cycle"):
        induced_map_on_homology({1: {0: {0: 1}}}, h1, h1)


def compose_after(later, earlier):
    """The induced map ``later ∘ earlier``: the product of the matrices, each
    row reduced modulo its target order."""
    rows = len(later.matrix)
    mid = len(earlier.matrix)
    cols = len(earlier.matrix[0]) if mid else len(earlier.source_orders)
    out = [[sum(later.matrix[i][k] * earlier.matrix[k][j] for k in range(mid))
            for j in range(cols)] for i in range(rows)]
    for i, o in enumerate(later.target_orders):
        if o:
            out[i] = [x % o for x in out[i]]
    return InducedMap(matrix=out, source_orders=list(earlier.source_orders),
                      target_orders=list(later.target_orders),
                      is_zero=all(not any(r) for r in out))


def test_functoriality_on_inclusion_triples():
    rng = random.Random(4)
    grid = grid_complex(3, 3)
    for _ in range(10):
        i0 = rng.randrange(2)
        j0 = rng.randrange(2)
        small = SimplicialComplex(rect_subcomplex(grid, i0, i0 + 1, j0, j0 + 1))
        mid = SimplicialComplex(rect_subcomplex(grid, 0, 2, 0, 3))
        big = grid
        if not small <= mid:
            continue
        f = inclusion(small, mid)
        g = inclusion(mid, big)
        gf = inclusion(small, big)
        for d in (0, 1):
            lhs = induced_homology_map(gf, d)
            rhs = compose_after(induced_homology_map(g, d), induced_homology_map(f, d))
            assert lhs.matrix == rhs.matrix


# ---------------------------------------------------------------------------
# SNF homology against independent counts on random complexes (properties)
# ---------------------------------------------------------------------------

random_complexes = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=7,
).map(SimplicialComplex.from_maximal)


@settings(max_examples=150, deadline=None)
@given(random_complexes)
def test_betti_numbers_give_euler_characteristic(c):
    chi = sum((-1) ** (len(s) - 1) for s in c.simplices)
    degrees = range(c.dimension + 1)
    h = homology_of_complex(c)
    assert sum((-1) ** d * h.betti(d) for d in degrees) == chi
    reduced = homology_of_complex(c, reduced=True)
    assert sum((-1) ** d * reduced.betti(d) for d in degrees) == chi - 1


@settings(max_examples=150, deadline=None)
@given(random_complexes)
def test_betti_numbers_match_rational_ranks(c):
    h = homology_of_complex(c)
    assert {d: h.betti(d) for d in range(c.dimension + 1)} == rational_betti_oracle(c)


def loop_chain_complex(c):
    """The per-degree basis/index/boundary loop ``chain_complex`` replaced."""
    basis = {}
    index = {}
    for d in range(c.dimension + 1):
        basis[d] = simplices_of_dim(c, d)
        for i, s in enumerate(basis[d]):
            index[s] = i
    boundaries = {}
    for d in range(1, c.dimension + 1):
        cols = {}
        for col, s in enumerate(basis[d]):
            cols[col] = {index[f]: sign for sign, f in simplex_boundary(s)}
        boundaries[d] = cols
    return IntegerChainComplex(basis=basis, boundaries=boundaries)


@settings(max_examples=150, deadline=None)
@given(random_complexes)
def test_chain_complex_matches_loop(c):
    cc, ref = chain_complex(c), loop_chain_complex(c)
    assert cc.basis == ref.basis
    assert cc.boundaries == ref.boundaries


@settings(max_examples=150, deadline=None)
@given(random_complexes)
def test_trusted_chain_complex_equals_the_validated_one(c):
    # chain_complex skips the ∂∂ = 0 check that of_cells makes
    cc = chain_complex(c)
    assert cc == IntegerChainComplex.of_cells(cc.basis, simplex_boundary)


def test_restriction_to_a_complex_outside_raises_like_inclusion():
    c = SimplicialComplex.from_maximal([(0, 1), (1, 2)])
    outside = SimplicialComplex.from_maximal([(0, 2)])
    with pytest.raises(ComplexError):
        inclusion(outside, c)


# Graphs: vertices 0-7, each simplex an isolated vertex or an edge; the empty
# complex included.
random_graphs = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=2, unique=True), max_size=10,
).map(SimplicialComplex.from_maximal)


@settings(max_examples=150, deadline=None)
@given(random_graphs, st.booleans())
@example(SimplicialComplex(), True)
@example(SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2), (5,)]), True)
def test_graph_homology_matches_the_chain_complex(c, reduced):
    assert c.dimension <= 1
    assert homology_of_complex(c, reduced=reduced) == homology(chain_complex(c), reduced=reduced)


def test_graph_homology_builds_no_chain_complex(monkeypatch):
    def refuse(c):
        raise AssertionError("chain complex built for a graph")

    monkeypatch.setattr(homology_module, "chain_complex", refuse)
    theta = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (5,)])
    assert homology_of_complex(theta) == HomologySummary.of({0: (2, ()), 1: (2, ())})


def test_graph_with_a_dangling_edge_raises_like_of_cells():
    dangling = SimplicialComplex(frozenset({(0,), (0, 1)}))
    with pytest.raises(ChainComplexError):
        chain_complex(dangling)
    with pytest.raises(ChainComplexError):
        homology_of_complex(dangling)


def test_of_cells_rejects_faces_outside_the_basis():
    with pytest.raises(ChainComplexError):
        IntegerChainComplex.of_cells({0: [(0,)], 1: [(0, 1)]}, simplex_boundary)
    with pytest.raises(ChainComplexError):
        IntegerChainComplex.of_cells({1: [(0, 1)]}, simplex_boundary)


def test_total_complex_rejects_coefficients_not_downward_closed():
    # the edge's vertices are missing from its own coefficient set
    with pytest.raises(ChainComplexError):
        TotalComplex([(0,)], lambda o: {(0, 1)})
    # the edge object's coefficient vertex (5,) is missing from face (1,)
    coeff = {(0,): {(5,)}, (1,): {(6,)}, (0, 1): {(5,)}}
    with pytest.raises(ChainComplexError):
        TotalComplex(list(coeff), coeff.get)
    coeff[(1,)] = {(5,), (6,)}
    assert TotalComplex(list(coeff), coeff.get).cc.dim(1) == 1


@st.composite
def inclusion_chains(draw):
    """Complexes A ⊆ B ⊆ C, each spanned by faces of the next."""
    c = draw(random_complexes)
    b = SimplicialComplex.from_maximal(
        draw(st.lists(st.sampled_from(sorted(c.simplices)), min_size=1, max_size=6)))
    a = SimplicialComplex.from_maximal(
        draw(st.lists(st.sampled_from(sorted(b.simplices)), min_size=1, max_size=4)))
    return a, b, c


# a loop of RP² through a subcomplex whose H_1 generator it meets with
# sign -1, so the composite's Z/2 coordinate must be reduced
LOOP_IN_RP2 = [(1, 2), (1, 5), (2, 5)]


@settings(max_examples=100, deadline=None)
@given(inclusion_chains())
@example((SimplicialComplex.from_maximal(LOOP_IN_RP2),
          SimplicialComplex.from_maximal(LOOP_IN_RP2 + [(3, 4, 6), (1, 4, 6)]),
          projective_plane_6()))
def test_compose_after_matches_composite_map(chain):
    a, b, c = chain
    f = inclusion(a, b)
    g = inclusion(b, c)
    for d in range(c.dimension + 1):
        direct = induced_homology_map(compose(g, f), d)
        composed = compose_after(induced_homology_map(g, d), induced_homology_map(f, d))
        assert composed.matrix == direct.matrix
        assert composed.source_orders == direct.source_orders
        assert composed.target_orders == direct.target_orders
        assert composed.is_zero == direct.is_zero


# ---------------------------------------------------------------------------
# the one-normal-form isomorphism test against the two-normal-form reference
# ---------------------------------------------------------------------------


@st.composite
def group_orders(draw):
    """Orders as ``DegreeHomology`` gives them: an invariant-factor chain
    t_1 | t_2 | ... with every t_i > 1, then a 0 per free generator."""
    chain = []
    for _ in range(draw(st.integers(0, 3))):
        chain.append(chain[-1] * draw(st.integers(1, 3)) if chain else draw(st.integers(2, 4)))
    return chain + [0] * draw(st.integers(0, 3))


def coefficient_step(t, o):
    """The least c > 0 for which sending a generator of order o to c times
    one of order t is well defined (o·c ≡ 0 mod t), or 0 when only c = 0
    is, for t = 0 < o."""
    if t == 0:
        return 0 if o else 1
    return t // gcd(t, o)


@st.composite
def group_maps(draw):
    """(kind, InducedMap): an isomorphism ("iso": generators matched to
    target generators of the same order, then automorphisms of the target),
    any well-defined map between isomorphic groups ("same"), or any
    well-defined map ("any"), one kind in three."""
    kind = draw(st.sampled_from(["iso", "same", "any"]))
    target = draw(group_orders())
    rows = len(target)
    if kind == "any":
        source = draw(group_orders())
    else:
        perm = draw(st.permutations(range(rows)))
        source = [target[p] for p in perm]
    if kind == "iso":
        matrix = [[int(p == i) for p in perm] for i in range(rows)]
        for _ in range(draw(st.integers(0, 6)) if rows else 0):
            i, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            if i != k:
                # e_k -> e_k + c·e_i, an automorphism when well defined
                c = draw(st.integers(-3, 3)) * coefficient_step(target[i], target[k])
                matrix[i] = [x + c * y for x, y in zip(matrix[i], matrix[k])]
            else:
                # e_i -> u·e_i for a unit u of Z/t_i (of Z when t_i = 0)
                u = draw(st.sampled_from([u for u in range(-5, 6) if gcd(u, target[i]) == 1]))
                matrix[i] = [u * x for x in matrix[i]]
    else:
        matrix = [[draw(st.integers(-3, 3)) * coefficient_step(t, o) for o in source]
                  for t in target]
    return kind, InducedMap(matrix=matrix, source_orders=source, target_orders=target,
                            is_zero=not any(map(any, matrix)))


@settings(max_examples=300, deadline=None)
@given(group_maps())
@example(("same", InducedMap([[2]], [0], [0], is_zero=False)))
@example(("any", InducedMap([[1]], [0], [2], is_zero=False)))
def test_isomorphism_test_matches_the_two_normal_form_reference(drawn):
    kind, m = drawn
    expect = group_map_is_bijective(m.matrix, m.source_orders, m.target_orders)
    assert induced_map_is_isomorphism(m) == expect
    assert expect or kind != "iso"


def test_isomorphism_test_makes_at_most_one_normal_form(monkeypatch):
    calls = []
    snf = homology_module.smith_normal_form

    def counted(*args, **kwargs):
        calls.append(args)
        return snf(*args, **kwargs)

    monkeypatch.setattr(homology_module, "smith_normal_form", counted)
    cases = [
        # groups that are not isomorphic: no normal form
        (InducedMap([[1, 0]], [0, 0], [0], is_zero=False), False, 0),
        (InducedMap([[1]], [0], [2], is_zero=False), False, 0),
        (InducedMap([], [0], [], is_zero=True), False, 0),
        # a trivial target, and so a trivial source: no normal form
        (InducedMap([], [], [], is_zero=True), True, 0),
        # isomorphic nontrivial groups: one normal form
        (InducedMap([[0, 1], [1, 0]], [2, 0], [0, 2], is_zero=False), True, 1),
        (InducedMap([[1, 3], [0, 1]], [0, 0], [0, 0], is_zero=False), True, 1),
        (InducedMap([[2]], [0], [0], is_zero=False), False, 1),
        (InducedMap([[1, 0], [0, 2]], [2, 4], [2, 4], is_zero=False), False, 1),
    ]
    for m, expect, n in cases:
        calls.clear()
        assert induced_map_is_isomorphism(m) == expect
        assert len(calls) == n
