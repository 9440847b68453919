from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerveforge.construct import grid_complex, interval_subcomplex, path_complex, rect_subcomplex
from nerveforge.homology import homology_of_complex
from nerveforge.simplicial import (
    ComplexError,
    SimplicialComplex,
    SimplicialMap,
    clique_number,
    cliques_of,
    close_downward,
    nerve_of,
    strong_core,
)

from stock_complexes import full_simplex


def test_downward_closure_from_maximal():
    c = SimplicialComplex.from_maximal([(0, 1, 2)])
    assert len(c) == 7
    assert c.dimension == 2
    assert (0, 1) in c.simplices


def test_cached_vertices_leave_equality_hash_and_repr_alone():
    a = SimplicialComplex.from_maximal([(0, 1, 2), (2, 3)])
    b = SimplicialComplex.from_maximal([(0, 1, 2), (2, 3)])
    assert a.vertices == frozenset({0, 1, 2, 3})
    assert "vertices" in vars(a) and "vertices" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_cached_dimension_leaves_equality_hash_and_repr_alone():
    a = SimplicialComplex.from_maximal([(0, 1, 2), (2, 3)])
    b = SimplicialComplex.from_maximal([(0, 1, 2), (2, 3)])
    assert a.dimension == 2
    assert "dimension" in vars(a) and "dimension" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert SimplicialComplex().dimension == -1


def test_strict_loader_rejects_gaps_and_duplicates():
    with pytest.raises(ComplexError):
        SimplicialComplex.from_simplices([(0, 1)])  # missing vertices
    with pytest.raises(ComplexError):
        SimplicialComplex.from_simplices([(0,), (1,), (0, 1), (0, 1)])
    with pytest.raises(ComplexError):
        SimplicialComplex.from_maximal([(0, "a")])


def all_faces(simplices) -> frozenset:
    """Reference closure: every nonempty vertex subset of every simplex."""
    return frozenset(f for s in simplices for k in range(1, len(s) + 1)
                     for f in combinations(sorted(s), k))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), max_size=5, unique=True), max_size=8))
def test_close_downward_matches_all_faces(simplices):
    # unsorted simplices, repeats, faces before or after their cofaces
    assert close_downward(simplices) == all_faces(simplices)


def test_close_downward_rejects_repeats_and_mixed_types():
    with pytest.raises(ComplexError, match="repeated vertex"):
        close_downward([(0, 1), (2, 2)])
    # each simplex alone is homogeneous
    with pytest.raises(ComplexError, match="mixed vertex id types"):
        close_downward([(0, 1), ("a", "b")])
    with pytest.raises(ComplexError, match="mixed vertex id types"):
        close_downward([(0, "a")])


def validated_subcomplex(ambient, simplices) -> frozenset:
    """Reference: the closure of ``simplices``, checked to lie in ``ambient``."""
    closed = close_downward(simplices)
    assert closed <= ambient.simplices
    return closed


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_interval_subcomplex_equals_the_validated_one(a, b):
    path = path_complex(6)
    full = [s for s in path.simplices if all(a <= v <= b for v in s)]
    assert interval_subcomplex(path, a, b) == validated_subcomplex(path, full)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_rect_subcomplex_equals_the_validated_one(corners):
    i0, i1, j0, j1 = corners
    grid = grid_complex(3, 4)
    full = [s for s in grid.simplices
            if all(i0 <= v[0] <= i1 and j0 <= v[1] <= j1 for v in s)]
    assert rect_subcomplex(grid, i0, i1, j0, j1) == validated_subcomplex(grid, full)


def test_subcomplex_inclusion_exclusion_random():
    import random
    rng = random.Random(2)
    amb = grid_complex(3, 3)
    for _ in range(25):
        a = rect_subcomplex(amb, rng.randrange(3), 3, rng.randrange(3), 3)
        b = rect_subcomplex(amb, 0, rng.randrange(1, 4), 0, rng.randrange(1, 4))
        u = a | b
        i = a & b
        assert len(u) == len(a) + len(b) - len(i)
        # unions and intersections of subcomplexes are subcomplexes
        assert close_downward(u) == u and close_downward(i) == i


def test_simplicial_map_validation_and_signs():
    src = path_complex(2)
    dst = full_simplex(2)
    f = SimplicialMap(src, dst, {0: 0, 1: 1, 2: 0})
    img, sign = f.image_simplex((1, 2))
    assert img == (0, 1) and sign == -1
    img, sign = f.image_simplex((0, 2))
    assert sign == 0
    with pytest.raises(ComplexError):
        SimplicialMap(src, dst, {0: 0, 1: 1})


def permutation_sign(perm) -> int:
    """(-1) ** (length - number of cycles)."""
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)


@st.composite
def vertex_images(draw):
    """Images of the vertices 0..k-1: any values (repeats make degenerate
    images), distinct values, or distinct values in decreasing order."""
    k = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["any", "distinct", "reversed"]))
    if kind == "any":
        return draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    img = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k, unique=True))
    return sorted(img, reverse=True) if kind == "reversed" else img


@settings(max_examples=200, deadline=None)
@given(vertex_images())
def test_image_simplex_sign_is_permutation_parity(img):
    k = len(img)
    f = SimplicialMap(full_simplex(k), full_simplex(7), dict(enumerate(img)))
    got, sign = f.image_simplex(tuple(range(k)))
    if len(set(img)) < k:
        assert (got, sign) == (None, 0)
        return
    # perm[i]: the source position of the i-th smallest image
    perm = sorted(range(k), key=img.__getitem__)
    assert got == tuple(sorted(img))
    assert sign == permutation_sign(perm)


def folded_nerve(items, meet):
    """Reference: every key subset, in dict order, whose left-fold meet is
    not None, mapped to that meet."""
    keys = list(items)
    out = {}
    for size in range(1, len(keys) + 1):
        for alpha in combinations(keys, size):
            m = items[alpha[0]]
            for k in alpha[1:]:
                m = meet(m, items[k])
                if m is None:
                    break
            else:
                out[alpha] = m
    return out


def check_nerve_of(items, meet):
    calls = []
    pairs = list(nerve_of(items, lambda a, b: calls.append(1) or meet(a, b)))
    got = dict(pairs)
    assert len(got) == len(pairs)  # each set once
    assert got == folded_nerve(items, meet)
    # each pair met once; a set of two or more is tried only with the later
    # keys that meet each of its members
    keys = list(items)
    meets = {(a, b) for a, b in combinations(keys, 2)
             if meet(items[a], items[b]) is not None}
    tries = sum(
        1 for alpha in got if len(alpha) > 1
        for k in keys[keys.index(alpha[-1]) + 1:]
        if all((a, k) in meets for a in alpha))
    assert len(calls) == len(keys) * (len(keys) - 1) // 2 + tries
    position = {k: i for i, k in enumerate(items)}
    sizes = [len(alpha) for alpha, _ in pairs]
    assert sizes == sorted(sizes)
    for alpha in got:
        assert [position[k] for k in alpha] == sorted(position[k] for k in alpha)
        for size in range(1, len(alpha)):
            assert all(face in got for face in combinations(alpha, size))


def set_meet(a, b):
    return (a & b) or None


def box_meet(a, b):
    lo = tuple(map(max, a[0], b[0]))
    hi = tuple(map(min, a[1], b[1]))
    return (lo, hi) if all(x < y for x, y in zip(lo, hi)) else None


# keys are drawn unsorted, so dict order is not key order
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=0, max_size=7, unique=True).flatmap(
    lambda keys: st.lists(st.frozensets(st.integers(0, 4), max_size=4),
                          min_size=len(keys), max_size=len(keys)).map(
        lambda values: dict(zip(keys, values)))))
def test_nerve_of_matches_folded_meets_on_sets(items):
    check_nerve_of(items, set_meet)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda dim: st.lists(
    st.tuples(st.lists(st.integers(0, 5), min_size=dim, max_size=dim),
              st.lists(st.integers(1, 4), min_size=dim, max_size=dim)),
    max_size=8)))
def test_nerve_of_matches_folded_meets_on_boxes(corners):
    items = {f"b{i}": (tuple(lo), tuple(a + s for a, s in zip(lo, size)))
             for i, (lo, size) in enumerate(corners)}
    check_nerve_of(items, box_meet)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(st.lists(st.integers(0, 5), min_size=dim, max_size=dim),
              st.lists(st.integers(1, 4), min_size=dim, max_size=dim)),
    max_size=8)))
def test_box_nerve_is_the_clique_complex_of_its_pairs(corners):
    """Helly's theorem for open boxes: boxes that meet pairwise have a common
    point, so ``cliques_of`` over the pairs gives ``nerve_of``, in order."""
    items = {i: (tuple(lo), tuple(a + s for a, s in zip(lo, size)))
             for i, (lo, size) in enumerate(corners)}
    keys = list(items)
    later = [[j for j in keys[i + 1:] if box_meet(items[i], items[j]) is not None]
             for i in keys]
    assert list(cliques_of(keys, later)) == [alpha for alpha, _ in nerve_of(items, box_meet)]


@st.composite
def graphs(draw):
    """``(keys, later)`` of a random graph on up to 9 vertices."""
    n = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return list(range(n)), [sorted(j for i2, j in edges if i2 == i) for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_clique_number_is_the_size_of_a_largest_clique(graph):
    keys, later = graph
    assert clique_number(later) == max(map(len, cliques_of(keys, later)), default=0)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_strong_core_keeps_the_homology_of_the_clique_complex(graph):
    """The core's clique complex is a deformation retract of the graph's."""
    core_keys, core_later, retraction = strong_core(*graph)
    whole = SimplicialComplex(frozenset(cliques_of(*graph)))
    core = SimplicialComplex(frozenset(cliques_of(core_keys, core_later)))
    SimplicialMap(whole, core, retraction)
    assert homology_of_complex(whole) == homology_of_complex(core)
