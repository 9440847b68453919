"""Finite simplicial complexes and simplicial maps.

A simplex is a tuple of vertex ids sorted in the ambient vertex order
(orientation convention: boundary signs alternate by position in that
order).  Complexes are immutable after construction.  A subcomplex is a
downward-closed ``frozenset`` of simplices of its complex, so unions and
intersections of subcomplexes are ``|`` and ``&``.

Validation happens where simplices enter: ``close_downward``,
``SimplicialComplex.from_maximal`` and ``SimplicialComplex.from_simplices``
sort each simplex, reject repeated vertices and vertex ids of more than one
type, and close downward; ``jsonio.subcomplex_from_json`` reads a
subcomplex through ``close_downward`` and checks that it lies in its
complex.  The dataclass constructor ``SimplicialComplex(simplices)`` trusts
its argument to be a closed set of sorted simplices; the package uses it
for sets that are closed by construction (unions and intersections of
subcomplexes, full subcomplexes, nerves, clique complexes).

``nerve_of`` enumerates nerves: every set of keys whose values have a
common meet. The nerves of covers and of affine subspaces are built by it.
``cliques_of`` enumerates the cliques of a graph by the same frontier walk,
with no meet: the nerves of periodic box windows and of their lattice
quotients are clique complexes (Helly's theorem for boxes, see
``periodic.BoxUnion.window_complex``) and are built by it.

Two helpers work on such a graph before any clique is listed:
``strong_core`` removes dominated vertices, which keeps the homotopy type
of the clique complex, and returns the retraction onto what is left, and
``clique_number`` finds the size of a largest clique by branch and bound.
A periodic union reads each window off its core (``periodic.Window``),
once per radius: the doubling scan (``periodic.stabilization_check``) and
the cover-lift comparison (``periodic.cover_lift_check``) build chains only
on the cores. The scan reads the dimension of each triple's largest window
off ``periodic.Window.clique_number``: the size of the union's witness
clique when the window holds a translate of it, and ``clique_number`` only
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations
from operator import lt


class ComplexError(ValueError):
    pass


def _check_vertex_types(kinds: set):
    """Raise on a set of vertex id types with more than one member."""
    if len(kinds) > 1:
        raise ComplexError(f"mixed vertex id types: {sorted(k.__name__ for k in kinds)}")


def normalize_simplex(simplex) -> tuple:
    _check_vertex_types(set(map(type, simplex)))
    s = tuple(sorted(simplex))
    if len(set(s)) != len(s):
        raise ComplexError(f"repeated vertex in simplex {simplex}")
    return s


def close_downward(simplices) -> frozenset:
    """All faces of the given simplices (including themselves).

    Raises ``ComplexError`` when a simplex repeats a vertex, or when the
    vertex ids of all the simplices together are of more than one type.
    The types are checked once, over every vertex; each simplex is then
    sorted once.  The set built so far is always closed, so a simplex
    already in it brings no new face, and a new simplex adds only its
    facets that are not yet present, each of which is expanded in turn.
    Input that lists faces before their cofaces, as ``complex_to_json``
    writes it, finds every facet present.
    """
    given = [tuple(s) for s in simplices]
    _check_vertex_types({type(v) for s in given for v in s})
    out = set()
    for s in given:
        s = tuple(sorted(s))
        if not s or s in out:
            continue
        if len(set(s)) != len(s):
            raise ComplexError(f"repeated vertex in simplex {s}")
        out.add(s)
        stack = [s]
        while stack:
            t = stack.pop()
            k = len(t) - 1
            if k and not out.issuperset(combinations(t, k)):
                for f in combinations(t, k):
                    if f not in out:
                        out.add(f)
                        stack.append(f)
    return frozenset(out)


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed set of simplices over orderable, hashable vertex ids."""

    simplices: frozenset = field(default_factory=frozenset)

    @staticmethod
    def from_maximal(simplices) -> "SimplicialComplex":
        return SimplicialComplex(close_downward(simplices))

    @staticmethod
    def from_simplices(simplices) -> "SimplicialComplex":
        """Build from an explicit simplex list, which must already be
        downward closed and duplicate-free."""
        given = [normalize_simplex(s) for s in simplices]
        if len(set(given)) != len(given):
            raise ComplexError("duplicate simplices")
        closed = close_downward(given)
        if set(given) != set(closed):
            missing = sorted(closed - set(given))[:3]
            raise ComplexError(f"not downward closed, e.g. missing {missing}")
        return SimplicialComplex(closed)

    @cached_property
    def vertices(self) -> frozenset:
        """Computed once per instance; not part of ``==``, ``hash`` or
        ``repr``."""
        return frozenset(v for s in self.simplices for v in s)

    @cached_property
    def dimension(self) -> int:
        """Computed once per instance, -1 when empty; not part of ``==``,
        ``hash`` or ``repr``."""
        return max(map(len, self.simplices), default=0) - 1

    def __le__(self, other):
        return self.simplices <= other.simplices

    def __len__(self):
        return len(self.simplices)


def union_all(subs: list[frozenset]) -> frozenset:
    out = frozenset()
    for s in subs:
        out = out | s
    return out


def nerve_of(items: dict, meet):
    """``(key tuple, meet)`` for every set of keys of ``items`` whose values
    have a common meet, smaller sets first and each size in lexicographic
    order; key tuples follow the dict order.

    ``meet(a, b)`` returns the meet of two values, or None when it is empty.
    Each pair of values is met once. A set is then tried only with the later
    keys that meet every one of its members, and each try meets the set's
    own meet with the new value.
    """
    keys = list(items)
    values = list(items.values())
    later = []  # later[i]: {j: meet of values i and j} over j > i
    for i, a in enumerate(values):
        yield (keys[i],), a
        later.append({j: m for j in range(i + 1, len(values))
                      if (m := meet(a, values[j])) is not None})
    yield from _frontier_walk(keys, later, values, meet)


def cliques_of(keys: list, later: list):
    """Key tuple of every clique of a graph on ``keys``, smaller cliques
    first and each size in lexicographic order of positions in ``keys``.

    ``later[i]`` lists, in increasing order, the positions j > i whose keys
    are adjacent to key i. This is ``nerve_of`` for values whose sets meet
    as soon as they meet pairwise: no meet is taken beyond the pairs.
    """
    for k in keys:
        yield (k,)
    rows = [dict.fromkeys(row, True) for row in later]
    for alpha, _ in _frontier_walk(keys, rows, None, None):
        yield alpha


def strong_core(keys: list, later: list):
    """``(core keys, core later, retraction)`` of the graph on ``keys``
    given by ``later`` rows, as in ``cliques_of``: the graph left when
    dominated vertices are removed one at a time until none is, and the
    composite retraction ``{key: core key}``, which fixes the core.

    A vertex v is dominated by a neighbour u when N[v] ⊆ N[u] (closed
    neighbourhoods). Then every clique with v is still a clique with v
    replaced by u, so v ↦ u is a simplicial retraction of the clique
    complex onto the clique complex of the graph without v, and it is a
    strong deformation retraction (Barmak and Minian, "Strong homotopy
    types, nerves and collapses", *Discrete Comput. Geom.* 47, 2012). The
    retraction is their composite, so the core's clique complex is a
    deformation retract of the graph's.

    A worklist of positions is drained in increasing order, so the core is
    the same on every call: a vertex taken from it is removed when some
    neighbour dominates it, onto the first such neighbour in ``keys``. A
    removal can make only the removed vertex's neighbours dominated, so
    they go back on the worklist.
    """
    n = len(keys)
    closed = [{i} for i in range(n)]
    for i, row in enumerate(later):
        for j in row:
            closed[i].add(j)
            closed[j].add(i)
    onto = list(range(n))  # onto[v] = u when v was removed onto u
    work = list(range(n))  # a heap, already in order
    queued = [True] * n
    while work:
        v = heappop(work)
        queued[v] = False
        nv = closed[v]
        u = min((u for u in nv if u != v and nv <= closed[u]), default=None)
        if u is None:
            continue
        onto[v] = u
        nv.discard(v)
        for x in nv:
            closed[x].discard(v)
            if not queued[x]:
                queued[x] = True
                heappush(work, x)
    core = [i for i in range(n) if onto[i] == i]
    position = {i: k for k, i in enumerate(core)}
    core_later = [sorted(position[j] for j in closed[i] if j > i) for i in core]

    def root(v):
        while onto[v] != v:
            v = onto[v]
        return v

    return ([keys[i] for i in core], core_later,
            {keys[i]: keys[root(i)] for i in range(n)})


def clique_number(later: list) -> int:
    """Size of a largest clique of the graph given by ``later`` rows, as in
    ``cliques_of``; 0 for a graph with no vertex.

    Branch and bound (Carraghan and Pardalos, *Oper. Res. Lett.* 9, 1990),
    without enumerating every clique: a clique grows only by the later
    positions adjacent to all of its members, and a branch stops as soon as
    its size plus its candidates left cannot beat the best clique found.
    The positions are started from the last one, so the bound is set on the
    small candidate lists first.
    """
    rows = [set(row) for row in later]
    best = 1 if later else 0

    def grow(size, cands):
        nonlocal best
        best = max(best, size)
        for p, j in enumerate(cands):
            if size + len(cands) - p <= best:
                return
            grow(size + 1, [k for k in cands[p + 1:] if k in rows[j]])

    for row in reversed(later):
        grow(1, row)
    return best


def _frontier_walk(keys, later, values, meet):
    """``(key tuple, meet)`` for the sets of two or more keys that the
    ``later`` rows and ``meet`` admit, size by size.

    ``later[i]`` maps each position j > i adjacent to i, in increasing order,
    to the meet of the pair. A set is tried only with the later positions
    adjacent to every one of its members, and a try meets the set's meet
    with ``values`` at the new position. With ``meet`` None every such try
    succeeds.
    """
    frontier = []
    for i, row in enumerate(later):
        cands = list(row)
        for p, j in enumerate(cands):
            alpha = (keys[i], keys[j])
            yield alpha, row[j]
            frontier.append((alpha, row[j], [k for k in cands[p + 1:] if k in later[j]]))
    while frontier:
        new = []
        for alpha, base, cands in frontier:
            for p, i in enumerate(cands):
                m = base if meet is None else meet(base, values[i])
                if m is not None:
                    beta = alpha + (keys[i],)
                    yield beta, m
                    new.append((beta, m, [j for j in cands[p + 1:] if j in later[i]]))
        frontier = new


def _component_labels(vertices, edges) -> dict:
    """Union-find over a graph: each vertex's component root. Every edge is
    a pair of vertices; an endpoint that is not among ``vertices`` raises
    ``KeyError``."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    return {v: find(v) for v in parent}


@dataclass(frozen=True)
class SimplicialMap:
    """Vertex assignment inducing a map of complexes; images of simplices may
    collapse (they must span a target simplex)."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: dict

    def __post_init__(self):
        for v in self.source.vertices:
            if v not in self.vertex_map:
                raise ComplexError(f"vertex map undefined at {v!r}")
        for s in self.source.simplices:
            img = tuple(sorted(set(self.vertex_map[v] for v in s)))
            if img not in self.target.simplices:
                raise ComplexError(f"image of {s} is not a target simplex")

    def image_simplex(self, s: tuple):
        """Image tuple (sorted, deduplicated) and parity sign; sign is 0 when
        the image is degenerate."""
        img = [self.vertex_map[v] for v in s]
        if all(map(lt, img, img[1:])):
            # inclusions and cover lifts keep the order
            return tuple(img), 1
        if len(set(img)) != len(img):
            return None, 0
        order = sorted(range(len(img)), key=lambda i: img[i])
        inversions = sum(
            1 for a in range(len(order)) for b in range(a + 1, len(order))
            if order[a] > order[b]
        )
        return tuple(sorted(img)), (-1) ** inversions
