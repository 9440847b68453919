"""Lattice-periodic unions of open boxes: window nerves, stabilized homology,
quotient complexes, and finite regular covers with lifted translation actions.

The infinite periodic complex is never materialized; every statement about it
is phrased through windows at the doubling radii 1 to 16, with "inconclusive"
a first-class outcome, and a finite cover is read off its base windows. A
union builds each window once (``BoxUnion.window``), as a ``Window`` read off
the strong-collapse core of its intersection graph, and the doubling scan,
the scan of the cover and the cover-lift comparison all read that one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import lcm
from operator import add, sub
from typing import NamedTuple

from .homology import (
    ChainMap,
    DegreeHomology,
    IntegerChainComplex,
    chain_complex,
    degree_homology,
    homology,
    induced_map_is_isomorphism,
    induced_map_on_homology,
    simplex_boundary,
    simplicial_chain_map,
)
from .lattices import LatticeSubgroup
from .simplicial import (SimplicialComplex, SimplicialMap, _component_labels, clique_number,
                         cliques_of, strong_core)


class PeriodicError(ValueError):
    pass


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box with rational corners."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    @staticmethod
    def of(lo, hi) -> "Box":
        """The box with corners ``lo`` and ``hi``, each entry made a
        ``Fraction``; an entry that is one already is kept, not rebuilt."""
        lo = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in lo)
        hi = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in hi)
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise PeriodicError("degenerate box")
        return Box(lo, hi)

    def intersect(self, other: "Box"):
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)


class _LatticeSteps(NamedTuple):
    """A lattice's integer steps, as ``_lattice_points_in_open_box`` reads
    them: the HNF rows scaled by a positive integer, the pivot column of
    each row, the axes on which every row is 0 (``unreached``), and the
    other axes that are no row's pivot (``loose``)."""

    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]
    unreached: tuple[int, ...]
    loose: tuple[int, ...]

    @staticmethod
    def of(lattice: LatticeSubgroup, scale: int) -> "_LatticeSteps":
        rows = tuple(tuple(scale * x for x in row) for row in lattice.basis)
        pivots = tuple(next(j for j, x in enumerate(row) if x) for row in rows)
        axes = range(lattice.ambient)
        unreached = tuple(j for j in axes if not any(row[j] for row in rows))
        return _LatticeSteps(rows, pivots, unreached,
                             tuple(j for j in axes if j not in pivots and j not in unreached))


def _lattice_points_in_open_box(steps: _LatticeSteps, lo, hi) -> list[tuple[int, ...]]:
    """The coefficient tuples c, in lexicographic order, whose combination
    of ``steps.rows`` lies strictly inside the open box (lo, hi), given on
    integer corners.

    The rows are in echelon form: the pivot column of each row lies to the
    right of the previous row's, and every later row is 0 on it. So the
    enumeration runs level by level. Level i holds the prefixes
    (c_1, ..., c_i) with their partial vectors, and extends each prefix by
    the c with lo < (partial + c * row)[p] < hi at row i's pivot p: an
    interval of c, from floor division, for a pivot of either sign. No
    later row changes column p, so that bound is final. Each level is in
    lexicographic order, since its prefixes come in order and each is
    extended by increasing c, one prefix after the other.

    Two kinds of axis are pruned once, not per point. On an ``unreached``
    axis every combination is 0, so a box that misses 0 there has no point
    and the enumeration returns at once; a box that holds 0 there needs no
    test. A ``loose`` axis, reached by rows but no pivot, is tested on the
    full vectors at the end; without one, the last level builds no vector.
    """
    rows, pivots, unreached, loose = steps
    if any(lo[j] >= 0 or hi[j] <= 0 for j in unreached):
        return []
    level = [((0,) * len(lo), ())]
    for i, (row, p) in enumerate(zip(rows, pivots)):
        h = row[p]
        # the last level's vectors are read only on loose axes
        moves = loose or i + 1 < len(rows)
        extended = []
        for vec, coeffs in level:
            a, b = lo[p] - vec[p], hi[p] - vec[p]  # a < c * h < b
            first, stop = (a // h + 1, -(-b // h)) if h > 0 else (b // h + 1, -(-a // h))
            for c in range(first, stop):
                extended.append((tuple([x + c * y for x, y in zip(vec, row)]) if moves else vec,
                                 coeffs + (c,)))
        level = extended
    if loose:
        level = [(vec, coeffs) for vec, coeffs in level
                 if all(lo[j] < vec[j] < hi[j] for j in loose)]
    return [coeffs for _, coeffs in level]


@dataclass(frozen=True)
class BoxUnion:
    """Orbit-representative boxes under a rank-r integer translation lattice.

    Own-translate overlaps are rejected: each box is disjoint from all of its
    nonzero lattice translates, the structural form of the elementwise
    invariance hypothesis.

    Everything is decided on integer corners: at construction every corner
    is scaled once by the lcm of the corner denominators, and so are the
    lattice's HNF rows (``_steps``, with their pivots and the axes no row
    reaches); a vertex box is the scaled box moved by its combination of
    the scaled rows. A nerve depends only on the order of corners, so
    scaling leaves every simplex unchanged. Scaling by a positive integer
    is injective, so the duplicate-box test compares the integer corners.

    Which translates of box j meet an open box is one enumeration,
    ``_translates_meeting``, asked of the window's cube, of box j itself,
    of every box for the stencil and of the fundamental cell for coverage.
    It reads ``_steps`` and builds nothing else per call.

    Vertex (j, c) meets vertex (j2, c + e) exactly when box j2 moved by e
    meets box j, a condition on (j, j2, e) alone. ``_stencil[j][j2]`` lists
    those e, computed once per instance on first use, and only for
    j <= j2: moving both boxes by -e, box j2 moved by e meets box j exactly
    when box j moved by -e meets box j2, so the pairs j > j2 are the
    negations. Window graphs and quotient nerves read their edges from the
    stencil instead of meeting pairs of boxes. ``window(w)`` reads window
    W_w as its graph (``window_graph``) and builds chains only on the
    graph's strong-collapse core (``Window``); ``window_complex`` lists
    every clique of the graph.

    ``stabilization``, the stencil and each radius's ``Window`` are computed
    once per instance. They are not part of ``==``, ``hash`` or ``repr`` and
    live and die with the instance, so an equal but distinct ``BoxUnion``
    computes its own.
    """

    dim: int
    lattice: LatticeSubgroup
    boxes: tuple[Box, ...]
    _den: int = field(init=False, repr=False, compare=False)
    _scaled: tuple = field(init=False, repr=False, compare=False)
    _steps: _LatticeSteps = field(init=False, repr=False, compare=False)
    _windows: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.lattice.ambient != self.dim:
            raise PeriodicError("lattice ambient rank differs from the box dimension")
        if self.lattice.rank > self.dim:
            raise PeriodicError("lattice rank exceeds the dimension")
        if any(len(b.lo) != self.dim for b in self.boxes):
            raise PeriodicError("box dimension mismatch")
        den = lcm(*(x.denominator for b in self.boxes for x in b.lo + b.hi))
        scaled = tuple(
            (tuple(x.numerator * (den // x.denominator) for x in b.lo),
             tuple(x.numerator * (den // x.denominator) for x in b.hi))
            for b in self.boxes
        )
        # scaling by den > 0 is injective: boxes are equal exactly when their
        # integer corners are
        if len(set(scaled)) != len(scaled):
            raise PeriodicError("duplicate boxes")
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_steps", _LatticeSteps.of(self.lattice, den))
        for j, box in enumerate(scaled):
            if any(any(c) for c in self._translates_meeting(j, *box)):
                raise PeriodicError("a box properly overlaps its own lattice translate")

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def _int_box(self, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Vertex box as (lo, hi) integer corners: box j's scaled corners
        moved by c's combination of the scaled lattice rows."""
        j, c = v
        lo, hi = self._scaled[j]
        for x, row in zip(c, self._steps.rows):
            lo = tuple(a + x * y for a, y in zip(lo, row))
            hi = tuple(b + x * y for b, y in zip(hi, row))
        return lo, hi

    def _translates_meeting(self, j, lo, hi) -> list[tuple[int, ...]]:
        """Coefficient tuples c for which box j moved by c meets the open box
        (lo, hi), given on the integer corners: the lattice points of the
        open box (lo - hi_j, hi - lo_j), in lexicographic order."""
        blo, bhi = self._scaled[j]
        return _lattice_points_in_open_box(
            self._steps, tuple(map(sub, lo, bhi)), tuple(map(sub, hi, blo)))

    def window_vertices(self, w) -> list:
        """(box index, coefficient tuple) pairs whose boxes meet [-w, w]^dim,
        in sorted order.

        The pairs come sorted as they are built: j runs in ascending order,
        and for each j the c come from ``_translates_meeting``, which lists
        them in lexicographic order. Pairs compare j first and c only
        between equal j, so the list is sorted."""
        w *= self._den
        return [(j, c) for j in range(len(self.boxes))
                for c in self._translates_meeting(j, (-w,) * self.dim, (w,) * self.dim)]

    @cached_property
    def _stencil(self) -> tuple:
        """``_stencil[j][j2]``: the sorted e for which box j2 moved by e meets
        box j.

        Only the pairs j <= j2 are enumerated. Moving both boxes by -e shows
        that box j2 moved by e meets box j exactly when box j moved by -e
        meets box j2, so ``_stencil[j2][j]`` is the sorted negations of
        ``_stencil[j][j2]``."""
        n = len(self.boxes)
        stencil = [[()] * n for _ in range(n)]
        for j, box in enumerate(self._scaled):
            for j2 in range(j, n):
                shifts = self._translates_meeting(j2, *box)
                stencil[j][j2] = tuple(shifts)
                stencil[j2][j] = tuple(sorted(tuple(-x for x in e) for e in shifts))
        return tuple(map(tuple, stencil))

    @cached_property
    def _later_neighbours(self) -> tuple:
        """Per box j, the sorted (j2, e) with (j2, e) > (j, 0) in the stencil:
        vertex (j, c) meets exactly the later vertices (j2, c + e), which
        come in the same order."""
        zero = (0,) * self.rank
        return tuple(
            tuple((j2, e) for j2, shifts in enumerate(row) for e in shifts
                  if (j2, e) > (j, zero))
            for j, row in enumerate(self._stencil))

    def _later(self, vertices) -> list[list[int]]:
        """Per position i of the sorted ``vertices``, the increasing
        positions of the later vertices whose boxes meet box i, from the
        stencil: the edges of the vertices' nerve."""
        index = {v: i for i, v in enumerate(vertices)}
        later = []
        for j, c in vertices:
            row = []
            for j2, e in self._later_neighbours[j]:
                k = index.get((j2, tuple(map(add, c, e))))
                if k is not None:
                    row.append(k)
            later.append(row)
        return later

    def window_graph(self, w) -> tuple[list, list[list[int]]]:
        """The window's intersection graph: ``window_vertices(w)`` and its
        ``_later`` rows, the graph whose cliques ``window_complex`` lists.

        The nerve of any set of the union's boxes is the clique complex of
        their intersection graph, by Helly's theorem for boxes: open
        axis-parallel boxes that meet pairwise have a common point. Per
        axis, the open intervals (a_i, b_i) meet pairwise, so a_i < b_k for
        all i, k, hence max a_i < min b_k and the interval
        (max a_i, min b_k) lies in all of them; the product of these
        intervals over the axes lies in every box. So only the pairs are
        decided on corners, through the stencil, and each vertex is paired
        with the few vertices its stencil names, not with the whole window;
        the sets of three or more are cliques (``simplicial.cliques_of``).
        The windows (``window``, ``window_complex``) and the orbit complex
        (``quotient_complex``) all read their simplices this way."""
        vertices = self.window_vertices(w)
        return vertices, self._later(vertices)

    def window(self, w) -> Window:
        """Window W_w read off the core of its graph, built on the first
        call for w and kept: the doubling scan, the scan of the cover and
        the cover-lift comparison share it."""
        if w not in self._windows:
            self._windows[w] = Window(*self.window_graph(w))
        return self._windows[w]

    def window_complex(self, w) -> SimplicialComplex:
        """Nerve of the window's boxes: the subsets with a common point,
        the clique complex of the window's intersection graph (see
        ``window_graph`` for why).

        No check builds this complex: the doubling scan and the cover-lift
        comparison read the window graph's core (``window``). Only
        ``CoverWindow``, which the tests compare the cover check with,
        builds it in full.
        """
        return SimplicialComplex(frozenset(cliques_of(*self.window_graph(w))))

    @cached_property
    def stabilization(self) -> StabilizationResult:
        """``stabilization_check`` of the windows in every degree.

        Computed once per instance: ``local_vanishing_check`` and
        ``quotient_corner_check`` share the result. The result is frozen, so
        callers cannot change it.
        """
        return stabilization_check(self.window)


# ---------------------------------------------------------------------------
# stabilization across doubling windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeOutcome:
    status: str  # "stable" | "zero_image" | "inconclusive"
    betti: int | None = None
    torsion: tuple[int, ...] = ()

    def stabilized_trivial(self) -> bool:
        if self.status == "zero_image":
            return True
        return self.status == "stable" and self.betti == 0 and not self.torsion


@dataclass(frozen=True)
class StabilizationResult:
    outcomes: dict[int, DegreeOutcome]
    radii: tuple[int, ...]
    top_degree: int

    def conclusive(self) -> bool:
        return all(o.status != "inconclusive" for o in self.outcomes.values())

    def nonvanishing_from(self, threshold: int):
        """``(inconclusive, bad)`` over the degrees from ``threshold`` to
        ``top_degree``: whether one of them is inconclusive, and the sorted
        resolved ones that are not stabilized trivial."""
        found = [(d, self.outcomes[d]) for d in range(threshold, self.top_degree + 1)
                 if d in self.outcomes]
        inconclusive = any(o.status == "inconclusive" for _, o in found)
        bad = [d for d, o in found
               if o.status != "inconclusive" and not o.stabilized_trivial()]
        return inconclusive, bad

    def top_nonzero_reduced_degree(self) -> int:
        best = 0
        for d, o in sorted(self.outcomes.items()):
            if o.status == "stable" and (o.betti or o.torsion):
                best = max(best, d)
        return best


def _component_reading(small: Window, big: Window, sheets: int) -> tuple[bool, bool]:
    """(isomorphism, zero) for the map small -> big on reduced H_0 of
    ``sheets`` disjoint copies of each window, from the windows' component
    labels: the map sends each component of small to the component of big
    that holds it. An isomorphism is never read as zero."""
    reps = {root: v for v, root in small.components.items()}
    images = {big.components[v] for v in reps.values()}
    iso = len(reps) == len(images) == len(set(big.components.values()))
    return iso, not iso and sheets * len(images) <= 1


class Window:
    """Window W_w of a union, read off the strong-collapse core of its
    intersection graph; ``BoxUnion.window`` builds one per radius.

    ``keys`` and ``later`` are the graph (``BoxUnion.window_graph``), whose
    clique complex is W_w. ``core`` is the clique complex of the graph's
    core C_w (``strong_core``), ``retraction`` is r_w: W_w -> C_w as
    ``{window vertex: core vertex}``, ``cc`` is the core's chain complex,
    and ``components`` labels each window vertex with its component.
    ``homology(d)`` is the core's ``degree_homology`` in degree d, computed
    on the first call for d and kept.

    The labels are the core's components pulled back through the
    retraction, and they are the window's components. Each removal joins v
    to the vertex u it is removed onto by an edge, so v and its image lie
    in one component of the window. Two core vertices lie in one component
    of the core exactly when they do in the window: a core edge is a window
    edge, and the retraction, which is simplicial and fixes the core, sends
    a window path between them to a core path."""

    def __init__(self, keys: list, later: list):
        self.keys, self.later = keys, later
        core_keys, core_later, self.retraction = strong_core(keys, later)
        self.core = SimplicialComplex(frozenset(cliques_of(core_keys, core_later)))
        self.cc = chain_complex(self.core)
        labels = _chain_component_labels(self.cc)
        self.components = {v: labels[r] for v, r in self.retraction.items()}
        self._homology: dict[int, DegreeHomology] = {}

    def homology(self, d: int) -> DegreeHomology:
        if d not in self._homology:
            self._homology[d] = degree_homology(self.cc, d)
        return self._homology[d]


def _core_map(small: Window, big: Window, e=()) -> ChainMap:
    """The chain map C_small -> C_big of the core vertex map
    v ↦ r_big(v + e): the translation by the lattice coefficients e, then
    the big window's retraction. The zero shift, e = () or all zeros, is
    v ↦ r_big(v), the inclusion followed by the retraction."""
    vertex_map = big.retraction
    if any(e):
        vertex_map = {(j, c): vertex_map[j, tuple(map(add, c, e))]
                      for j, c in small.core.vertices}
    return simplicial_chain_map(SimplicialMap(small.core, big.core, vertex_map),
                                small.cc, big.cc)


def stabilization_check(builder, sheets: int = 1) -> StabilizationResult:
    """Doubling-window stabilization for a radius-indexed family of clique
    complexes, read off the strong-collapse cores of their graphs.

    The scan tries the triples of the radii 1, 2, 4, 8, 16 in turn and
    stops at the first that resolves every degree. The degrees run from 0
    to the dimension of each triple's largest window, its clique number
    minus 1 (``clique_number``).

    One rule reads every degree. Each of the maps W_w -> W_2w and
    W_2w -> W_4w gives a pair (isomorphism, zero), in degree 0 from the
    windows' component labels (``_component_reading``) and above it from
    ``induced_map_on_homology``. Two isomorphisms read "stable", with the
    middle window's groups; two zero maps read "zero_image"; anything else,
    and a triple whose largest window is empty (so all three are, and
    reduced H_0 would have Betti number -1), reads "inconclusive". The
    second map is tested for isomorphism only when the first is one.

    Degree 0 tests isomorphism first and never reads an isomorphism as
    zero, though above it the identity of a trivial group is both. So a
    triple whose first window is empty and whose others are connected reads
    "inconclusive", not "zero_image", and the scan goes on to windows that
    hold the union: the hollow tube of spacing 3 and half core 1 reads
    degree 0 "stable, betti 0" at radii (2, 4, 8).

    With ``sheets=k`` the result is the scan of k disjoint copies of each
    window, read off one copy: Betti numbers are multiplied by k, each
    torsion factor appears k times in sorted order, and in reduced degree 0
    a map reads "zero" only when k times its number of images is at most 1.

    ``builder(w)`` returns window W_w as a ``Window`` (``BoxUnion.window``),
    the clique complex of its graph; it is asked once per radius. Every
    degree is read from the core C_w of the graph, with its retraction
    r_w: W_w -> C_w, and the map C_w -> C_2w is v ↦ r_2w(v) (``_core_map``
    with the zero shift). Only the cores' cliques are built. Degree 0 reads
    each window vertex's component as that of its image in the core, which
    is its component in the whole window (see ``Window``).

    The windows of a union nest by construction, so W_w is a subcomplex of
    W_2w and v ↦ r_2w(v) is a simplicial map C_w -> C_2w. W_w holds the
    boxes that meet [-w, w]^dim, and each of them meets [-2w, 2w]^dim, so
    W_w's vertices are among W_2w's. Vertex (j, c) meets (j2, c + e)
    exactly when e is in the stencil of (j, j2) (``BoxUnion._stencil``), a
    condition on the pair of vertices alone, so W_w's graph is the full
    subgraph of W_2w's on W_w's vertices, and every clique of it is a
    clique of W_2w's graph.

    Why the cores give the same outcomes. Each step of ``strong_core``
    removes a vertex v dominated by u, and v ↦ u is a strong deformation
    retraction of flag complexes, so the inclusion i_w: C_w ⊂ W_w is a
    homotopy equivalence with homotopy inverse r_w, and r_w ∘ i_w is the
    identity. Write j: W_w ⊂ W_2w. On C_w the composite r_2w ∘ j ∘ i_w is
    v ↦ r_2w(v), so the map the scan uses on homology is
    (r_2w)_* ∘ j_* ∘ (i_w)_*, the inclusion's map j_* conjugated by the
    isomorphisms (i_w)_* and (r_2w)_* = ((i_2w)_*)⁻¹. A map conjugated by
    isomorphisms is an isomorphism, or zero, exactly when the map is, so
    both tests are unchanged, and the middle group H_d(C_2w) ≅ H_d(W_2w)
    has the same Betti number and torsion. A degree above a core's
    dimension has trivial groups in all three cores, hence in all three
    windows: both maps are isomorphisms of trivial groups and the degree
    reads "stable, betti 0", as a scan of the whole windows reads it.
    """
    radii = (1, 2, 4, 8, 16)
    windows = [builder(radii[0]), builder(radii[1])]
    maps = [_core_map(*windows)]
    best: dict[int, DegreeOutcome] = {}
    for w4 in radii[2:]:
        windows.append(builder(w4))
        maps.append(_core_map(*windows[-2:]))
        small, mid, big = windows[-3:]
        # the windows are nested, so the largest has the top dimension so far
        top = max(clique_number(big.later) - 1, 0)
        for d in range(top + 1):
            if d == 0:
                (iso1, zero1), (iso2, zero2) = (_component_reading(small, mid, sheets),
                                                _component_reading(mid, big, sheets))
            else:
                m1 = induced_map_on_homology(maps[-2], small.homology(d), mid.homology(d))
                m2 = induced_map_on_homology(maps[-1], mid.homology(d), big.homology(d))
                iso1 = induced_map_is_isomorphism(m1)
                iso2 = iso1 and induced_map_is_isomorphism(m2)
                zero1, zero2 = m1.is_zero, m2.is_zero
            if not big.keys:
                outcome = DegreeOutcome("inconclusive")
            elif iso1 and iso2:
                # reduced H_0 of k copies of c components has rank k·c - 1
                betti, torsion = ((len(set(mid.components.values())), ()) if d == 0
                                  else mid.homology(d).summary_entry())
                outcome = DegreeOutcome("stable", betti=sheets * betti - (d == 0),
                                        torsion=tuple(sorted(torsion * sheets)))
            elif zero1 and zero2:
                outcome = DegreeOutcome("zero_image")
            else:
                outcome = DegreeOutcome("inconclusive")
            if d not in best or best[d].status == "inconclusive":
                best[d] = outcome
        if all(o.status != "inconclusive" for o in best.values()):
            break
    return StabilizationResult(outcomes=best, radii=(w4 // 4, w4 // 2, w4), top_degree=top)


# ---------------------------------------------------------------------------
# full-coverage test for rank = dimension
# ---------------------------------------------------------------------------


def _covers_closed_box(boxes: list, lo, hi) -> bool:
    """Exact test that open boxes, given as (lo, hi) integer corner tuples,
    cover the closed box [lo, hi].

    Along each axis the corners inside [lo, hi] cut it into points and open
    intervals; a box holds all or none of such a piece, and every piece must
    be covered by the boxes that hold it, on the remaining axes."""
    dim = len(lo)

    def rec(axis, candidates):
        if axis == dim:
            return bool(candidates)
        a, b = lo[axis], hi[axis]
        cuts = sorted({x for blo, bhi in candidates for x in (blo[axis], bhi[axis])
                       if a < x < b})
        points = [a] + cuts + [b]
        return all(
            rec(axis + 1, [(blo, bhi) for blo, bhi in candidates if blo[axis] < p < bhi[axis]])
            for p in points
        ) and all(
            rec(axis + 1, [(blo, bhi) for blo, bhi in candidates
                           if blo[axis] <= s and bhi[axis] >= t])
            for s, t in zip(points, points[1:])
        )

    return rec(0, list(boxes))


def full_coverage_check(bu: BoxUnion) -> bool:
    """For a full-rank lattice: do the box translates cover R^dim?

    The staircase cell [0, d_1] x ... x [0, d_dim] of the HNF diagonal is a
    fundamental domain, so covering it is equivalent. Only the translates
    that meet the open cell hold a point of the closed one. The test runs on
    the integer corners, with the cell scaled by the same lcm.
    """
    if bu.rank != bu.dim:
        raise PeriodicError("full coverage is only defined for full-rank lattices")
    # full rank: row i of the scaled HNF basis has its positive pivot at i
    cell = tuple(row[i] for i, row in enumerate(bu._steps.rows))
    candidates = [bu._int_box((j, c)) for j in range(len(bu.boxes))
                  for c in bu._translates_meeting(j, (0,) * bu.dim, cell)]
    return _covers_closed_box(candidates, (0,) * bu.dim, cell)


@dataclass(frozen=True)
class LocalVanishingVerdict:
    ok: bool
    branch: str  # "full-coverage" | "stabilized"
    inconclusive: bool
    detail: dict
    certificate: dict | None = None


def _check_declared(bu: BoxUnion, n: int, r: int):
    """Raise ``PeriodicError`` unless the declared r is the lattice rank and
    the declared n - 1 the box dimension."""
    if r != bu.rank:
        raise PeriodicError(f"declared rank {r} differs from lattice rank {bu.rank}")
    if n - 1 != bu.dim:
        raise PeriodicError(f"declared n-1 = {n - 1} differs from box dimension {bu.dim}")


def local_vanishing_check(bu: BoxUnion, n: int, r: int) -> LocalVanishingVerdict:
    """Stabilized reduced homology vanishes from degree n-1-r upward; in the
    full-rank case the box translates must cover all of R^(n-1)."""
    _check_declared(bu, n, r)
    if r == bu.dim:
        covered = full_coverage_check(bu)
        return LocalVanishingVerdict(
            ok=covered,
            branch="full-coverage",
            inconclusive=False,
            detail={"covered": covered},
            certificate=None if covered else {"reason": "fundamental cell not covered"},
        )
    threshold = n - 1 - r
    result = bu.stabilization
    inconclusive, bad = result.nonvanishing_from(threshold)
    ok = not inconclusive and not bad
    return LocalVanishingVerdict(
        ok=ok,
        branch="stabilized",
        inconclusive=inconclusive,
        detail={
            "threshold_degree": threshold,
            "radii": list(result.radii),
            "outcomes": {
                str(d): {"status": o.status, "betti": o.betti, "torsion": list(o.torsion)}
                for d, o in sorted(result.outcomes.items())
            },
        },
        certificate=(
            {"nonvanishing_degrees": bad} if bad else None
        ),
    )


# ---------------------------------------------------------------------------
# quotient of the periodic nerve by the lattice
# ---------------------------------------------------------------------------


def _orbit_faces(s) -> list:
    """The signed faces of an orbit representative s = ((j, 0), v_1, ...,
    v_d), d >= 1, each made a representative, with the signs of
    ``simplex_boundary``.

    Faces 1 to d keep (j, 0), their least vertex, so they are
    representatives as they are. Face 0 drops it and starts at
    v_1 = (j_1, c), so it is moved by -c. A common translation keeps the
    order of (j, c) pairs, which compare c only between equal j, so the
    moved face is still sorted. Face 0 is the one face that leaves the
    orbit's chosen translate: in the equivariant complex over Z[Z^r]
    (ROADMAP item 8) it is the face that carries the monomial t^c."""
    faces = simplex_boundary(s)
    sign, face = faces[0]
    base = face[0][1]
    if any(base):
        faces[0] = sign, tuple((j, tuple(map(sub, c, base))) for j, c in face)
    return faces


def quotient_complex(bu: BoxUnion) -> IntegerChainComplex:
    """Quotient of the infinite periodic nerve by the free lattice action,
    as a chain complex over orbit representatives.

    Each orbit is represented by its simplex whose least vertex has zero
    coefficients. The simplices with least vertex (j, 0) are (j, 0) followed
    by a clique of the later vertices that meet it, which the stencil lists
    (``BoxUnion._later_neighbours``); every such set has a common point (see
    ``BoxUnion.window_graph``). The global vertex order is translation
    invariant, so face signs descend (``_orbit_faces``).

    The cells are built in basis order, each degree sorted. For j
    ascending, (j, 0) and then (j, 0) + α are appended for each α of
    ``cliques_of``, which yields each size in lexicographic order of
    positions in the sorted ``_later_neighbours[j]``: the lexicographic
    order of the α, which the common first vertex (j, 0) keeps. Every cell
    whose least vertex is (j, 0) sorts before every cell whose least vertex
    is (j + 1, 0), since tuples compare their first entries first. No cell
    comes twice: its least vertex names j, and each α comes once.
    """
    by_degree: dict[int, list] = {}
    for j, neighbours in enumerate(bu._later_neighbours):
        base_vertex = (j, (0,) * bu.rank)
        for alpha in chain([()], cliques_of(neighbours, bu._later(neighbours))):
            by_degree.setdefault(len(alpha), []).append((base_vertex,) + alpha)
    return IntegerChainComplex.of_cells(by_degree, _orbit_faces)


@dataclass(frozen=True)
class QuotientCornerVerdict:
    ok: bool
    inconclusive: bool
    k: int | None
    degree: int | None
    detail: dict


def quotient_corner_check(bu: BoxUnion) -> QuotientCornerVerdict:
    """With k the top stabilized nonzero reduced degree of the windows (0 when
    everything vanishes), the quotient complex has H_{r+k} != 0."""
    result = bu.stabilization
    if not result.conclusive():
        return QuotientCornerVerdict(
            ok=False, inconclusive=True, k=None, degree=None,
            detail={"reason": "window stabilization inconclusive"},
        )
    k = result.top_nonzero_reduced_degree()
    q = quotient_complex(bu)
    target = bu.rank + k
    summ = homology(q, degrees=[target])
    nonzero = bool(summ.betti(target) or summ.torsion(target))
    return QuotientCornerVerdict(
        ok=nonzero,
        inconclusive=False,
        k=k,
        degree=target,
        detail={"quotient_homology_at_degree": summ.as_json()},
    )


# ---------------------------------------------------------------------------
# finite regular covers and the lifted translation action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteCoverSpec:
    """Finite-index sublattice of the coefficient lattice Z^r; the deck group
    is the quotient."""

    sublattice: LatticeSubgroup  # ambient rank = bu.rank

    def __post_init__(self):
        if self.sublattice.rank != self.sublattice.ambient:
            raise PeriodicError("sublattice must have finite index")

    @staticmethod
    def of(rows, rank: int) -> "FiniteCoverSpec":
        return FiniteCoverSpec(LatticeSubgroup.from_generators(rows, rank))

    def reduce(self, g):
        return tuple(self.sublattice.reduce(list(g)))

    def elements(self) -> list[tuple[int, ...]]:
        """The residues in sorted order: the box of vectors with entry i in
        [0, pivot_i). The sublattice has full rank, so row i of its HNF basis
        has its pivot at column i, and ``reduce`` leaves entry i below it."""
        return list(product(*(range(row[i]) for i, row in enumerate(self.sublattice.basis))))

    def add(self, g, h):
        return self.reduce(tuple(a + b for a, b in zip(g, h)))


class CoverWindow:
    """Regular G-cover of a window nerve via the coefficient cocycle; the
    tests compare ``cover_lift_check``, which reads the base, with it.

    In sheet h the vertex (j, c) is labelled h + [c], where [c] is the
    residue of c. The cocycle rule labels a simplex with least vertex
    (j0, c0) in sheet g by g + [c - c0] = (g - [c0]) + [c], and h = g - [c0]
    runs over G as g does, so both rules give the same simplices."""

    def __init__(self, bu: BoxUnion, spec: FiniteCoverSpec, w):
        self.base = bu.window_complex(w)
        residue = {v: spec.reduce(v[1]) for v in self.base.vertices}
        simplices = set()
        for h in spec.elements():
            sheet = {v: v + (spec.add(h, r),) for v, r in residue.items()}
            # appending a label keeps the distinct, sorted (j, c) pairs sorted
            simplices.update(tuple(map(sheet.__getitem__, s)) for s in self.base.simplices)
        self.complex = SimplicialComplex(frozenset(simplices))


@dataclass(frozen=True)
class CoverLiftVerdict:
    ok: bool
    inconclusive: bool
    checks: dict
    detail: dict


def cover_lift_check(bu: BoxUnion, spec: FiniteCoverSpec, n: int, r: int) -> CoverLiftVerdict:
    """The translation action lifts through chosen sheets to a group action
    commuting with the deck group, acting trivially on stabilized cover
    homology, with the cover's reduced homology vanishing from degree
    n-1-r; a full-rank tiling lifts to |G| disjoint copies.

    Acting trivially is checked from a small window into a big one that
    holds its unit translates: in each degree d >= 1 the induced map of
    every unit lift on H_d must equal the inclusion's, and in degree 0 every
    lifted vertex must stay in the inclusion's component.

    Every check reads the base windows. Write R for ``spec.reduce``: the
    unique residue mod the full-rank sublattice L in the box of its HNF
    pivots, so R(x) = R(y) exactly when x - y lies in L, and
    R(x + R(y)) = R(x + y). Sheet h labels (j, c) as (j, c, R(h + c)), so
    (j, c, g) lies only in sheet R(g - c): a cover window is |G| disjoint
    copies of its base (Hatcher, *Algebraic Topology*, 1.3). The lift of e,
    (j, c, h) -> (j, c + e, R(h + e)), and the inclusion keep every sheet,
    and on each the lift is the base translation by e. A direct sum of
    copies of a map is an isomorphism, zero, or equal to a second such sum
    exactly when one copy is, except in reduced degree 0. So the base
    decides ``lift_simplicial`` and ``acts_trivially_on_homology``, and
    ``cover_vanishing`` is ``stabilization_check`` with ``sheets=|G|``.

    The two base windows are the union's ``Window`` records, which the
    doubling scan reads too: W_s = W_2 and W_b = W_(2 + 2·margin), with
    cores C_s and C_b, the inclusion i_s: C_s ⊂ W_s and the retractions r_s
    and r_b. Each shift e, the zero shift first and then the unit shifts,
    is the vertex map v ↦ r_b(v + e) on C_s (``_core_map``); the zero shift
    stands for the inclusion, so the inclusion is no special case. This map
    is r_b ∘ T_e ∘ i_s, where T_e: W_s -> W_b is the translation by e (the
    zero shift's T_0 is the inclusion j: W_s ⊂ W_b), so on H_d it is
    (r_b)_* ∘ (T_e)_* ∘ (i_s)_*. The maps (i_s)_* and (r_b)_* are
    isomorphisms (see ``stabilization_check``), so the map of shift e equals
    that of shift 0 exactly when (T_e)_* = j_*: the comparison on the cores
    is the comparison on the whole windows. A degree in which C_s has no
    class is one in which W_s has none, and it is skipped in both. In
    degree 0, each vertex v of W_s is joined to r_s(v) by an edge path, the
    removals' edges (v, u). T_e and j keep edge paths, so v + e lies in
    the component of r_s(v) + e and v in that of r_s(v): testing the core
    vertices tests every vertex, against the components of W_b
    (``Window.components``).

    ``lift_simplicial`` holds by construction and is not computed: each
    core map v ↦ r_b(v + e) is a simplicial map C_s -> C_b, as the
    composite of three. First, C_s is the clique complex of a full subgraph
    of W_s's graph, so i_s is simplicial. Second, T_e is simplicial
    W_s -> W_b: unit e moves a box by row e of the lattice's HNF basis,
    whose entries are at most ``margin`` in absolute value. A box of window
    2 meets [-2, 2]^dim, so its translate meets
    [-2 - margin, 2 + margin]^dim, which lies inside
    [-2 - 2·margin, 2 + 2·margin]^dim: every lifted vertex is a vertex of
    the big window. Vertex (j, c) meets (j2, c + f) exactly when f is in
    the stencil of (j, j2), so translation keeps adjacency, and a window
    nerve is the clique complex of its intersection graph (see
    ``BoxUnion.window_graph``): cliques map to cliques. Third, r_b is a
    simplicial retraction of W_b onto C_b (``strong_core``).

    ``group_action``, ``commutes_with_deck`` and
    ``sheet_choice_deck_difference`` hold by construction too. The deck
    element g sends (j, c, h) to (j, c, R(h + g)), and the constant-sheet
    lift of e sends it to (j, c + e, h). Then:

    - group action: the lift of e1 followed by the lift of e2 ends at
      (j, c + e1 + e2, R(R(h + e1) + e2)) = (j, c + e1 + e2, R(h + e1 + e2)),
      the lift of e1 + e2;
    - commuting with the deck group: lift(e) after deck(g) and deck(g) after
      lift(e) both give (j, c + e, R(h + g + e));
    - sheet choice: deck(R(e)) after the constant-sheet lift of e is
      (j, c + e, R(h + R(e))) = (j, c + e, R(h + e)), the lift of e.

    A full-rank tiling passes once ``full_coverage_check`` does, with
    ``components`` and ``expected_components`` both |G|: a cover window is
    |G| copies of its base, whose boxes are open and convex, each meets the
    connected closed cube [-w, w]^dim, and under coverage their union
    contains that cube, so the base nerve is connected."""
    _check_declared(bu, n, r)
    order = len(spec.elements())
    checks: dict = {"deck_order": order}

    if bu.rank == bu.dim:
        if not full_coverage_check(bu):
            raise PeriodicError("full-rank cover scenario without full coverage")
        checks["components"] = checks["expected_components"] = order
        return CoverLiftVerdict(
            ok=True, inconclusive=False, checks=checks,
            detail={"branch": "product-cover"},
        )

    margin = max(
        (abs(x) for row in bu.lattice.basis for x in row), default=1
    )
    small, big = bu.window(2), bu.window(2 + 2 * margin)
    units = [tuple(int(i == j) for j in range(bu.rank)) for i in range(bu.rank)]
    # the identities proved in the docstring
    checks.update(group_action=True, commutes_with_deck=True, sheet_choice_deck_difference=True,
                  lift_simplicial=True)

    threshold = n - 1 - r
    result = stabilization_check(bu.window, sheets=order)
    inconclusive, bad = result.nonvanishing_from(threshold)
    vanish = not inconclusive and not bad
    checks["cover_vanishing"] = vanish

    # degree 0: each unit translate of a core vertex stays in its component
    comp = big.components
    trivial_ok = all(comp[j, tuple(map(add, c, e))] == comp[j, c]
                     for e in units for j, c in small.core.vertices)
    # trivial on homology: in each degree d >= 1 where the small window
    # has classes, every unit lift induces the same map H_d(small) ->
    # H_d(big) as the inclusion, the zero shift
    maps = [_core_map(small, big, e) for e in [(0,) * bu.rank] + units]
    for d in range(1, max(small.core.dimension, 0) + 1):
        src_h = small.homology(d)
        if not src_h.generators:
            continue
        dst_h = big.homology(d)
        expected, *lifted = [induced_map_on_homology(cm, src_h, dst_h).matrix
                             for cm in maps]
        if any(m != expected for m in lifted):
            trivial_ok = False
    checks["acts_trivially_on_homology"] = trivial_ok

    ok = trivial_ok and vanish and not inconclusive
    return CoverLiftVerdict(
        ok=ok,
        inconclusive=inconclusive,
        checks=checks,
        detail={
            "threshold_degree": threshold,
            "outcomes": {
                str(d): o.status for d, o in sorted(result.outcomes.items())
            },
        },
    )


def _chain_component_labels(cc: IntegerChainComplex) -> dict:
    """Component labels of a simplicial complex's vertices, read from its
    chain complex's degree-0 and degree-1 bases."""
    return _component_labels((s[0] for s in cc.basis.get(0, ())), cc.basis.get(1, ()))
