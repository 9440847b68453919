"""Strong-collapse cores of window graphs, checked on their own and against
an oracle that builds no nerve: the cubical homology of the window's union
of boxes.

The doubling scan reads each window's homology off the core of its
intersection graph (``simplicial.strong_core``) and its dimension off
``simplicial.clique_number``. Here the core's retraction must be a
simplicial map of the whole window nerve that fixes the core, no core vertex
may be dominated, the core must not depend on the call, and the core's
homology must be that of the union of the window's open boxes, computed on
cubes.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from nerveforge import homology as homology_module
from nerveforge import periodic
from nerveforge.construct import hollow_tube_boxes, slab_boxes
from nerveforge.homology import IntegerChainComplex, chain_complex, homology
from nerveforge.lattices import LatticeSubgroup
from nerveforge.periodic import Box, BoxUnion
from nerveforge.simplicial import (SimplicialComplex, SimplicialMap, clique_number, cliques_of,
                                  strong_core)

from test_integer_windows import SETTINGS, box_unions

# a rank-0 union whose only box lies outside the w = 1 window
FAR = BoxUnion(dim=2, lattice=LatticeSubgroup.from_generators([], 2),
               boxes=(Box.of([3, 3], [4, 4]),))


def core_complex(keys, later):
    return SimplicialComplex(frozenset(cliques_of(keys, later)))


def closed_neighbourhoods(cx):
    """Vertex -> its closed neighbourhood in the 1-skeleton of ``cx``."""
    out = {v: {v} for v in cx.vertices}
    for s in cx.simplices:
        if len(s) == 2:
            out[s[0]].add(s[1])
            out[s[1]].add(s[0])
    return out


@SETTINGS
@given(box_unions(), st.sampled_from([1, 2, 4]))
@example(FAR, 1)
def test_core_retraction_is_a_simplicial_retraction_onto_a_full_subgraph(bu, w):
    keys, later = bu.window_graph(w)
    core_keys, core_later, retraction = strong_core(keys, later)
    window = bu.window_complex(w)
    core = core_complex(core_keys, core_later)
    SimplicialMap(window, core, retraction)  # raises unless simplicial
    assert set(retraction) == set(keys)
    assert all(retraction[v] == v for v in core_keys)
    assert core_keys == sorted(core_keys)
    kept = set(core_keys)
    assert core.simplices == {s for s in window.simplices if kept.issuperset(s)}


@SETTINGS
@given(box_unions(), st.sampled_from([1, 2, 4]))
def test_no_core_vertex_is_dominated(bu, w):
    core = core_complex(*strong_core(*bu.window_graph(w))[:2])
    closed = closed_neighbourhoods(core)
    assert not any(u != v and closed[v] <= closed[u] for v in closed for u in closed[v])


@SETTINGS
@given(box_unions(), st.sampled_from([1, 2, 4]))
def test_a_second_call_gives_the_same_core(bu, w):
    assert strong_core(*bu.window_graph(w)) == strong_core(*bu.window_graph(w))


@SETTINGS
@given(box_unions(), st.sampled_from([1, 2, 4]))
@example(FAR, 1)
def test_clique_number_is_the_window_dimension_plus_one(bu, w):
    assert clique_number(bu.window_graph(w)[1]) == bu.window_complex(w).dimension + 1


def cubical_complex(boxes):
    """Chain complex of the union of closed integer boxes ``(lo, hi)``.

    A cube is a tuple with one entry per axis: 2k for the point k and 2k + 1
    for the interval [k, k + 1], so the odd entries are its free axes. The
    boundary of a cube is the sum over its free axes j of
    (-1)^(free axes before j) times (upper face - lower face) (Kaczynski,
    Mischaikow and Mrozek, *Computational Homology*, 2004, ch. 2)."""
    cubes = set()
    for lo, hi in boxes:
        cells = [()]
        for a, b in zip(lo, hi):
            cells = [c + (x,) for c in cells for x in range(2 * a, 2 * b + 1)]
        cubes.update(cells)
    basis: dict[int, list] = {}
    for q in sorted(cubes):
        basis.setdefault(sum(x % 2 for x in q), []).append(q)

    def faces(q):
        out, free = [], 0
        for j, x in enumerate(q):
            if x % 2:
                sign = (-1) ** free
                out += [(sign, q[:j] + (x + 1,) + q[j + 1:]),
                        (-sign, q[:j] + (x - 1,) + q[j + 1:])]
                free += 1
        return out

    return IntegerChainComplex.of_cells(basis, faces)


def window_union_homology(bu, w):
    """Homology of the union of the window's open boxes, on cubes.

    Per axis the corners are replaced by their ranks, and the open box
    (a, b) by the closed integer box [2 rank(a) + 1, 2 rank(b) - 1]. Two
    such boxes meet exactly when a < b' and a' < b, as the open ones do, so
    every family of them meets exactly when the open family does (Helly's
    theorem for boxes holds for closed boxes too). Both unions are finite
    unions of convex sets with that one nerve, so both have its homology
    (the nerve theorem: Björner, "Topological methods", *Handbook of
    Combinatorics*, 1995, §10)."""
    boxes = [bu._int_box(v) for v in bu.window_vertices(w)]
    ranks = [{x: r for r, x in enumerate(sorted({c[i] for box in boxes for c in box}))}
             for i in range(bu.dim)]
    closed = [(tuple(2 * ranks[i][x] + 1 for i, x in enumerate(lo)),
               tuple(2 * ranks[i][x] - 1 for i, x in enumerate(hi))) for lo, hi in boxes]
    return homology(cubical_complex(closed))


def test_cubical_complex_of_a_hollow_square_is_a_circle():
    walls = [((0, 0), (2, 0)), ((0, 2), (2, 2)), ((0, 0), (0, 2)), ((2, 0), (2, 2))]
    assert homology(cubical_complex(walls)).data == {0: (1, ()), 1: (1, ())}
    assert homology(cubical_complex([((0, 0), (2, 2))])).data == {0: (1, ())}


@SETTINGS
@given(box_unions(), st.sampled_from([1, 2]))
@example(hollow_tube_boxes(), 2)  # H_1 = Z
def test_core_homology_is_the_homology_of_the_window_union(bu, w):
    core = core_complex(*strong_core(*bu.window_graph(w))[:2])
    assert homology(chain_complex(core)) == window_union_homology(bu, w)


def test_slab_stabilization_builds_chains_only_on_one_vertex_cores(monkeypatch):
    """The scan builds chains on cores: every slab window's core is one
    vertex, so it builds fewer cells than the w = 4 window has simplices."""
    bu = slab_boxes()
    cells = []
    original = homology_module.chain_complex

    def counted(c):
        cc = original(c)
        cells.append(sum(len(b) for b in cc.basis.values()))
        return cc

    monkeypatch.setattr(homology_module, "chain_complex", counted)
    monkeypatch.setattr(periodic, "chain_complex", counted)
    result = bu.stabilization
    assert result.conclusive()
    assert sum(cells) < len(bu.window_complex(4))
    for w in (1, 2, 4, 8, 16):
        assert len(strong_core(*bu.window_graph(w))[0]) == 1
    assert result.top_degree == bu.window_complex(result.radii[-1]).dimension

