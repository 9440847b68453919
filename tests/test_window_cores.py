"""Strong-collapse cores of window graphs, checked on their own and against
an oracle that builds no nerve: the cubical homology of the window's union
of boxes.

The doubling scan reads each window's homology off the core of its
intersection graph (``simplicial.strong_core``) and its dimension off
``simplicial.clique_number``. Here the core's retraction must be a
simplicial map of the whole window nerve that fixes the core, no core vertex
may be dominated, the core must not depend on the call, the core's
components pulled back through the retraction must be the whole window's,
and the core's homology must be that of the union of the window's open
boxes, computed on cubes. The scan's outcomes are compared with the maps
between the nested cubical sets of its windows, and each window's graph
must be the full subgraph of the next window's on its vertices.
"""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from nerveforge import homology as homology_module
from nerveforge import periodic
from nerveforge.construct import hollow_tube_boxes, slab_boxes
from nerveforge.homology import (IntegerChainComplex, chain_complex, degree_homology, homology,
                                 induced_map_is_isomorphism, induced_map_on_homology)
from nerveforge.lattices import LatticeSubgroup
from nerveforge.periodic import Box, BoxUnion, DegreeOutcome
from nerveforge.simplicial import (SimplicialComplex, SimplicialMap, _component_labels,
                                  clique_number, cliques_of, strong_core)

from test_integer_windows import SETTINGS, box_unions, ring

NO_LATTICE = LatticeSubgroup.from_generators([], 2)
# a rank-0 union whose only box lies outside the w = 1 window
FAR = BoxUnion(dim=2, lattice=NO_LATTICE, boxes=(Box.of([3, 3], [4, 4]),))


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


def cubical_windows(bu, radii):
    """Cubical chain complexes of the unions of the windows' open boxes at
    increasing ``radii``, compressed with the corners of the largest window.

    Per axis the corners are replaced by their ranks among that window's
    corners, and the open box (a, b) by the closed integer box
    [2 rank(a) + 1, 2 rank(b) - 1]. Two such boxes meet exactly when
    a < b' and a' < b, as the open ones do, so every family of them meets
    exactly when the open family does (Helly's theorem for boxes holds for
    closed boxes too). Both unions are finite unions of convex sets with
    that one nerve, so both have its homology (the nerve theorem: Björner,
    "Topological methods", *Handbook of Combinatorics*, 1995, §10). The
    windows nest and share the one ranking, so their cubical sets nest; the
    nerve theorem's equivalences commute up to homotopy with the inclusion
    of a subfamily, so each inclusion of cubical sets induces the map of
    the nerve inclusion on homology."""
    boxes = {w: [bu._int_box(v) for v in bu.window_vertices(w)] for w in radii}
    ranks = [{x: r for r, x in enumerate(sorted({c[i] for box in boxes[radii[-1]] for c in box}))}
             for i in range(bu.dim)]
    return [cubical_complex([(tuple(2 * ranks[i][x] + 1 for i, x in enumerate(lo)),
                              tuple(2 * ranks[i][x] - 1 for i, x in enumerate(hi)))
                             for lo, hi in boxes[w]]) for w in radii]


def window_union_homology(bu, w):
    """Homology of the union of the window's open boxes, on cubes."""
    return homology(cubical_windows(bu, [w])[0])


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



def whole_graph_components(keys, later):
    """Vertex -> component root by union-find over every edge of the whole
    window graph: the route degree 0 took before it was read off the core."""
    return _component_labels(keys, ((keys[i], keys[j]) for i, row in enumerate(later) for j in row))


def partition(labels):
    """The blocks of a vertex -> label map, as a set of frozensets."""
    blocks: dict = {}
    for v, label in labels.items():
        blocks.setdefault(label, set()).add(v)
    return {frozenset(b) for b in blocks.values()}


@SETTINGS
@given(box_unions(), st.sampled_from([1, 2, 4]))
@example(FAR, 1)
def test_core_components_are_the_whole_window_components(bu, w):
    graph = bu.window_graph(w)
    labels = bu.window(w).components
    assert set(labels) == set(graph[0])
    assert partition(labels) == partition(whole_graph_components(*graph))


def cubical_inclusion(small, big):
    """Chain map of the inclusion of one cubical chain complex in another
    whose cells include its cells."""
    cm = {}
    for d, labels in small.basis.items():
        index = {q: i for i, q in enumerate(big.basis[d])}
        cm[d] = {k: {index[q]: 1} for k, q in enumerate(labels)}
    return cm


# a rank-0 union: a bar from the origin to a ring of four walls whose far
# wall lies outside the w = 2 window, so only the w = 4 window holds the
# ring's hole; H_1 reads "zero_image" at radii (1, 2, 4) (0 -> 0 -> Z)
RING_AT_FOUR = BoxUnion(dim=2, lattice=NO_LATTICE, boxes=tuple(Box.of(*c) for c in (
    ((Fraction(-1, 2), Fraction(-1, 4)), (Fraction(7, 4), Fraction(1, 4))),
    ((Fraction(3, 2), Fraction(-3, 2)), (2, Fraction(3, 2))),
    ((3, Fraction(-3, 2)), (Fraction(7, 2), Fraction(3, 2))),
    ((Fraction(3, 2), 1), (Fraction(7, 2), Fraction(3, 2))),
    ((Fraction(3, 2), Fraction(-3, 2)), (Fraction(7, 2), -1)))))
# a ring around the origin inside every window: H_1 is stable, betti 1
RING_AT_ORIGIN = BoxUnion(dim=2, lattice=NO_LATTICE,
                          boxes=tuple(ring((0, 0), Fraction(3, 4), Fraction(3, 8))))


@SETTINGS
@given(box_unions())
@example(RING_AT_FOUR)
@example(RING_AT_ORIGIN)
@example(hollow_tube_boxes())  # H_1 stable, betti 1 (2,336 cubes at w = 4)
@example(slab_boxes())  # degrees 1-3 stable, betti 0 (5,329 cubes at w = 4)
def test_scan_outcomes_match_the_nested_cubical_windows(bu):
    """Where the scan resolves at radii (1, 2, 4), each degree >= 1 outcome
    is the one the inclusions of the nested cubical sets of those windows
    give, with the middle group's Betti number and torsion."""
    result = bu.stabilization
    if result.radii != (1, 2, 4):
        return
    ccs = cubical_windows(bu, (1, 2, 4))
    inclusions = [cubical_inclusion(ccs[0], ccs[1]), cubical_inclusion(ccs[1], ccs[2])]
    for d in range(1, result.top_degree + 1):
        hs = [degree_homology(cc, d) for cc in ccs]
        m1, m2 = (induced_map_on_homology(cm, src, dst)
                  for cm, src, dst in zip(inclusions, hs, hs[1:]))
        if induced_map_is_isomorphism(m1) and induced_map_is_isomorphism(m2):
            betti, torsion = hs[1].summary_entry()
            expected = DegreeOutcome("stable", betti=betti, torsion=torsion)
        elif m1.is_zero and m2.is_zero:
            expected = DegreeOutcome("zero_image")
        else:
            expected = DegreeOutcome("inconclusive")
        assert result.outcomes[d] == expected, d


@SETTINGS
@given(box_unions(), st.sampled_from([1, 2, 4, 8]))
@example(FAR, 1)
@example(RING_AT_FOUR, 2)
@example(hollow_tube_boxes(), 4)
@example(slab_boxes(), 8)
def test_windows_nest_as_full_subgraphs(bu, w):
    """W_w's vertices are among W_2w's, and its ``later`` rows are those of
    the full subgraph of W_2w's graph on them: the nesting that
    ``stabilization_check`` proves and relies on."""
    small, big = bu.window(w), bu.window(2 * w)
    position = {v: i for i, v in enumerate(big.keys)}
    assert set(small.keys) <= set(position)
    index = {position[v]: i for i, v in enumerate(small.keys)}
    assert small.later == [[index[q] for q in big.later[p] if q in index]
                           for p in map(position.__getitem__, small.keys)]
