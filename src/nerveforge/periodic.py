"""Lattice-periodic unions of open boxes: window nerves, stabilized homology,
quotient complexes, and finite regular covers with lifted translation actions.

The infinite periodic complex is never materialized; every statement about it
is phrased through windows at doubling radii, with "inconclusive" a
first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .homology import (
    HomologySummary,
    IntegerChainComplex,
    homology,
    homology_of_complex,
    induced_homology_map,
    induced_map_is_isomorphism,
    simplex_boundary,
)
from .lattices import LatticeSubgroup
from .simplicial import ComplexError, SimplicialComplex, SimplicialMap


class PeriodicError(ValueError):
    pass


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box with rational corners."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    @staticmethod
    def of(lo, hi) -> "Box":
        lo = tuple(_frac(x) for x in lo)
        hi = tuple(_frac(x) for x in hi)
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise PeriodicError("degenerate box")
        return Box(lo, hi)

    def translated(self, t) -> "Box":
        return Box(
            tuple(a + x for a, x in zip(self.lo, t)),
            tuple(b + x for b, x in zip(self.hi, t)),
        )

    def meets(self, other: "Box") -> bool:
        return all(
            max(a, c) < min(b, d)
            for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersect(self, other: "Box"):
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def meets_cube(self, w) -> bool:
        w = _frac(w)
        return all(a < w and b > -w for a, b in zip(self.lo, self.hi))


def _lattice_points_in_open_box(lattice: LatticeSubgroup, lo, hi):
    """Coefficient tuples c with lattice-combination strictly inside (lo, hi).

    Rows of the HNF basis have strictly increasing pivot columns, so the
    pivot coordinates bound the coefficients one at a time.
    """
    rows = lattice.basis
    d = lattice.ambient
    r = len(rows)
    if r == 0:
        yield ()
        return
    pivots = [next(j for j in range(d) if row[j]) for row in rows]

    def rec(i, prefix_vec, coeffs):
        if i == r:
            if all(lo[j] < prefix_vec[j] < hi[j] for j in range(d)):
                yield tuple(coeffs)
            return
        p = pivots[i]
        h = rows[i][p]
        lo_c = (lo[p] - prefix_vec[p]) / h
        hi_c = (hi[p] - prefix_vec[p]) / h
        if h < 0:
            lo_c, hi_c = hi_c, lo_c
        from math import ceil, floor

        c_min = floor(lo_c) + 1
        c_max = ceil(hi_c) - 1
        for c in range(c_min, c_max + 1):
            nxt = tuple(prefix_vec[j] + c * rows[i][j] for j in range(d))
            yield from rec(i + 1, nxt, coeffs + [c])

    yield from rec(0, tuple(Fraction(0) for _ in range(d)), [])


def lattice_vector(lattice: LatticeSubgroup, coeffs) -> tuple[int, ...]:
    d = lattice.ambient
    out = [0] * d
    for c, row in zip(coeffs, lattice.basis):
        if c:
            for j in range(d):
                out[j] += c * row[j]
    return tuple(out)


@dataclass(frozen=True)
class BoxUnion:
    """Orbit-representative boxes under a rank-r integer translation lattice.

    Own-translate overlaps are rejected: each box is disjoint from all of its
    nonzero lattice translates, the structural form of the elementwise
    invariance hypothesis.
    """

    dim: int
    lattice: LatticeSubgroup
    boxes: tuple[Box, ...]

    def __post_init__(self):
        if self.lattice.ambient != self.dim:
            raise PeriodicError("lattice ambient rank differs from the box dimension")
        if self.lattice.rank > self.dim:
            raise PeriodicError("lattice rank exceeds the dimension")
        if len(set(self.boxes)) != len(self.boxes):
            raise PeriodicError("duplicate boxes")
        for b in self.boxes:
            if len(b.lo) != self.dim:
                raise PeriodicError("box dimension mismatch")
            size = tuple(h - l for l, h in zip(b.lo, b.hi))
            lo = tuple(-s for s in size)
            for c in _lattice_points_in_open_box(self.lattice, lo, size):
                if any(c):
                    raise PeriodicError(
                        "a box properly overlaps its own lattice translate")

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def vertex_box(self, v) -> Box:
        j, c = v
        return self.boxes[j].translated(lattice_vector(self.lattice, c))

    def window_vertices(self, w) -> list:
        """(box index, coefficient tuple) pairs whose boxes meet [-w, w]^dim."""
        out = []
        w = _frac(w)
        for j, b in enumerate(self.boxes):
            lo = tuple(-w - h for h in b.hi)
            hi = tuple(w - l for l in b.lo)
            for c in _lattice_points_in_open_box(self.lattice, lo, hi):
                out.append((j, c))
        return sorted(out)

    def window_complex(self, w) -> SimplicialComplex:
        """Nerve of the window's boxes; simplices are subsets with a common
        point, decided by exact interval arithmetic."""
        verts = self.window_vertices(w)
        boxes = {v: self.vertex_box(v) for v in verts}
        simplices = [(v,) for v in verts]
        inter = {(v,): boxes[v] for v in verts}
        frontier = list(inter)
        order = {v: i for i, v in enumerate(verts)}
        while frontier:
            new = []
            for alpha in frontier:
                base = inter[alpha]
                for v in verts[order[alpha[-1]] + 1:]:
                    meet = base.intersect(boxes[v])
                    if meet is not None:
                        beta = alpha + (v,)
                        inter[beta] = meet
                        new.append(beta)
            frontier = new
        return SimplicialComplex(frozenset(inter))


def window_nerve_homology(bu: BoxUnion, w, reduced=False) -> HomologySummary:
    return homology_of_complex(bu.window_complex(w), reduced=reduced)


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


@dataclass
class StabilizationResult:
    outcomes: dict[int, DegreeOutcome]
    radii: list[int]
    top_degree: int

    def conclusive(self, degrees=None) -> bool:
        degs = degrees if degrees is not None else list(self.outcomes)
        return all(
            self.outcomes.get(d, DegreeOutcome("stable", 0)).status != "inconclusive"
            for d in degs
        )

    def top_nonzero_reduced_degree(self) -> int:
        best = 0
        for d, o in sorted(self.outcomes.items()):
            if o.status == "stable" and (o.betti or o.torsion):
                best = max(best, d)
        return best


def _component_map_outcome(small: SimplicialComplex, big: SimplicialComplex,
                           bigger: SimplicialComplex) -> DegreeOutcome:
    """Reduced degree-0 stabilization via component tracking."""

    def components(cx):
        parent = {v: v for v in cx.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in cx.simplices:
            if len(s) == 2:
                a, b = find(s[0]), find(s[1])
                if a != b:
                    parent[a] = b
        return {v: find(v) for v in cx.vertices}

    c_small, c_big, c_bigger = components(small), components(big), components(bigger)

    def outcome(cs, cb):
        reps_small = {}
        for v, root in cs.items():
            reps_small.setdefault(root, v)
        images = {cb[v] for v in reps_small.values()}
        injective = len(images) == len(reps_small)
        surjective = len(images) == len(set(cb.values()))
        if injective and surjective:
            return "iso"
        if len(images) <= 1:
            return "zero"
        return "neither"

    o1 = outcome(c_small, c_big)
    o2 = outcome(c_big, c_bigger)
    if o1 == "iso" and o2 == "iso":
        return DegreeOutcome("stable", betti=len(set(c_big.values())) - 1)
    if o1 == "zero" and o2 == "zero":
        return DegreeOutcome("zero_image")
    return DegreeOutcome("inconclusive")


def stabilization_check(builder, degrees=None, w_max: int = 16) -> StabilizationResult:
    """Doubling-window stabilization for a radius-indexed complex family.

    A degree is stable when the two consecutive inclusion-induced maps
    (w -> 2w -> 4w) are isomorphisms, zero-image when both kill every class,
    and inconclusive otherwise; the scan stops at the first radius triple
    that resolves every requested degree, or at w_max.
    """
    from .homology import chain_complex, degree_homology, induced_map_on_homology, simplicial_chain_map

    if w_max < 2:
        raise PeriodicError("w_max must be at least 2")
    radii = [1]
    while radii[-1] * 2 <= w_max:
        radii.append(radii[-1] * 2)
    if len(radii) < 3:
        raise PeriodicError("w_max admits no doubling triple")
    complexes: dict[int, SimplicialComplex] = {}
    ccs: dict[int, object] = {}
    hcache: dict[tuple[int, int], object] = {}
    cmaps: dict[tuple[int, int], dict] = {}

    def cx(w):
        if w not in complexes:
            complexes[w] = builder(w)
            ccs[w] = chain_complex(complexes[w])
        return complexes[w]

    def hdeg(w, d):
        key = (w, d)
        if key not in hcache:
            hcache[key] = degree_homology(ccs[w], d)
        return hcache[key]

    def induced(w1, w2, d):
        if (w1, w2) not in cmaps:
            incl = SimplicialMap.inclusion(complexes[w1], complexes[w2])
            cmaps[w1, w2] = simplicial_chain_map(incl, ccs[w1], ccs[w2])
        return induced_map_on_homology(
            ccs[w1], ccs[w2], cmaps[w1, w2], d, src_h=hdeg(w1, d), dst_h=hdeg(w2, d)
        )

    best: dict[int, DegreeOutcome] = {}
    top_seen = 0
    used = []
    for i in range(len(radii) - 2):
        w1, w2, w4 = radii[i], radii[i + 1], radii[i + 2]
        used = [w1, w2, w4]
        small, big, bigger = cx(w1), cx(w2), cx(w4)
        top = max(small.dimension, big.dimension, bigger.dimension, 0)
        top_seen = max(top_seen, top)
        degs = degrees if degrees is not None else range(0, top + 1)
        outcomes = {}
        for d in degs:
            if d == 0:
                outcomes[0] = _component_map_outcome(small, big, bigger)
                continue
            if d > top:
                outcomes[d] = DegreeOutcome("stable", betti=0)
                continue
            m1 = induced(w1, w2, d)
            m2 = induced(w2, w4, d)
            if induced_map_is_isomorphism(m1) and induced_map_is_isomorphism(m2):
                mid = hdeg(w2, d)
                betti, torsion = mid.summary_entry()
                outcomes[d] = DegreeOutcome("stable", betti=betti, torsion=torsion)
            elif m1.is_zero and m2.is_zero:
                outcomes[d] = DegreeOutcome("zero_image")
            else:
                outcomes[d] = DegreeOutcome("inconclusive")
        for d, o in outcomes.items():
            if best.get(d, DegreeOutcome("inconclusive")).status == "inconclusive":
                best[d] = o
        if all(o.status != "inconclusive" for o in best.values()) and (
            degrees is None or all(d in best for d in degrees)
        ):
            break
    return StabilizationResult(outcomes=best, radii=used, top_degree=top_seen)


# ---------------------------------------------------------------------------
# full-coverage test for rank = dimension
# ---------------------------------------------------------------------------


def _covers_closed_box(boxes: list[Box], lo, hi) -> bool:
    """Exact test that open boxes cover the closed box [lo, hi]."""
    dim = len(lo)

    def rec(axis, constraints, candidates):
        if axis == dim:
            return bool(candidates)
        a, b = lo[axis], hi[axis]
        cuts = sorted({x for box in candidates for x in (box.lo[axis], box.hi[axis])
                       if a < x < b})
        points = [a] + cuts + [b]
        # degenerate fragments at each cut point and open fragments between
        fragments = []
        for p in points:
            fragments.append((p, p))
        for s, t in zip(points, points[1:]):
            fragments.append((s, t))
        for s, t in fragments:
            if s == t:
                sub = [box for box in candidates if box.lo[axis] < s < box.hi[axis]]
            else:
                sub = [box for box in candidates if box.lo[axis] <= s and box.hi[axis] >= t]
            if not rec(axis + 1, None, sub):
                return False
        return True

    return rec(0, None, list(boxes))


def full_coverage_check(bu: BoxUnion) -> bool:
    """For a full-rank lattice: do the box translates cover R^dim?

    The staircase cell [0, d_1] x ... x [0, d_dim] of the HNF diagonal is a
    fundamental domain, so covering it is equivalent.
    """
    if bu.rank != bu.dim:
        raise PeriodicError("full coverage is only defined for full-rank lattices")
    diag = []
    for i, row in enumerate(bu.lattice.basis):
        pivot = next(j for j in range(bu.dim) if row[j])
        diag.append((pivot, row[pivot]))
    cell_hi = [Fraction(0)] * bu.dim
    for pivot, v in diag:
        cell_hi[pivot] = Fraction(abs(v))
    lo = [Fraction(0)] * bu.dim
    candidates = []
    for j, b in enumerate(bu.boxes):
        blo = tuple(-h for h in b.hi)
        bhi = tuple(c - l for c, l in zip(cell_hi, b.lo))
        for c in _lattice_points_in_open_box(
            bu.lattice,
            tuple(x - 1 for x in blo),
            tuple(x + 1 for x in bhi),
        ):
            candidates.append(b.translated(lattice_vector(bu.lattice, c)))
    candidates = [b for b in candidates
                  if all(x < ch and y > 0 for x, ch, y in zip(b.lo, cell_hi, b.hi))]
    return _covers_closed_box(candidates, lo, cell_hi)


@dataclass(frozen=True)
class LocalVanishingVerdict:
    ok: bool
    branch: str  # "full-coverage" | "stabilized"
    inconclusive: bool
    detail: dict
    certificate: dict | None = None


def local_vanishing_check(bu: BoxUnion, n: int, r: int, w_max: int = 16) -> LocalVanishingVerdict:
    """Stabilized reduced homology vanishes from degree n-1-r upward; in the
    full-rank case the box translates must cover all of R^(n-1)."""
    if r != bu.rank:
        raise PeriodicError(f"declared rank {r} differs from lattice rank {bu.rank}")
    if n - 1 != bu.dim:
        raise PeriodicError(f"declared n-1 = {n - 1} differs from box dimension {bu.dim}")
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
    result = stabilization_check(bu.window_complex, degrees=None, w_max=w_max)
    relevant = [d for d in range(threshold, result.top_degree + 1)]
    inconclusive = any(
        result.outcomes.get(d, DegreeOutcome("stable", 0)).status == "inconclusive"
        for d in relevant
    )
    bad = {
        d: result.outcomes[d]
        for d in relevant
        if d in result.outcomes
        and result.outcomes[d].status != "inconclusive"
        and not result.outcomes[d].stabilized_trivial()
    }
    ok = not inconclusive and not bad
    return LocalVanishingVerdict(
        ok=ok,
        branch="stabilized",
        inconclusive=inconclusive,
        detail={
            "threshold_degree": threshold,
            "radii": result.radii,
            "outcomes": {
                str(d): {"status": o.status, "betti": o.betti, "torsion": list(o.torsion)}
                for d, o in sorted(result.outcomes.items())
            },
        },
        certificate=(
            {"nonvanishing_degrees": sorted(bad)} if bad else None
        ),
    )


# ---------------------------------------------------------------------------
# quotient of the periodic nerve by the lattice
# ---------------------------------------------------------------------------


def _orbit_normalize(simplex, lattice: LatticeSubgroup):
    """Translate so the lex-min vertex has zero coefficients."""
    base = min(simplex)[1]
    if not any(base):
        return tuple(sorted(simplex))
    return tuple(sorted((j, tuple(x - y for x, y in zip(c, base))) for j, c in simplex))


def quotient_complex(bu: BoxUnion) -> IntegerChainComplex:
    """Quotient of the infinite periodic nerve by the free lattice action,
    as a chain complex over orbit representatives.

    The global vertex order is translation invariant, so face signs descend.
    """
    reps: set[tuple] = set()
    for j, box in enumerate(bu.boxes):
        base_vertex = (j, tuple([0] * bu.rank))
        # neighbors whose boxes meet box j
        candidates = []
        for j2, b2 in enumerate(bu.boxes):
            lo = tuple(l - h2 for l, h2 in zip(box.lo, b2.hi))
            hi = tuple(h - l2 for h, l2 in zip(box.hi, b2.lo))
            for c in _lattice_points_in_open_box(bu.lattice, lo, hi):
                v = (j2, c)
                if v > base_vertex:
                    candidates.append(v)
        candidates.sort()
        boxes = {v: bu.vertex_box(v) for v in candidates}
        boxes[base_vertex] = box

        def extend(simplex, inter):
            reps.add(tuple(simplex))
            last = simplex[-1]
            for v in candidates:
                if v <= last:
                    continue
                meet = inter.intersect(boxes[v])
                if meet is not None:
                    simplex.append(v)
                    extend(simplex, meet)
                    simplex.pop()

        extend([base_vertex], box)

    by_degree: dict[int, list] = {}
    for s in reps:
        by_degree.setdefault(len(s) - 1, []).append(s)
    for d in by_degree:
        by_degree[d].sort()
    index = {d: {s: i for i, s in enumerate(lst)} for d, lst in by_degree.items()}
    boundaries: dict[int, dict[int, dict[int, int]]] = {}
    for d, lst in by_degree.items():
        if d == 0:
            continue
        cols = {}
        for col, s in enumerate(lst):
            entry: dict[int, int] = {}
            for sign, f in simplex_boundary(s):
                norm = _orbit_normalize(f, bu.lattice)
                row = index[d - 1][norm]
                entry[row] = entry.get(row, 0) + sign
            cols[col] = {k: v for k, v in entry.items() if v}
        boundaries[d] = cols
    return IntegerChainComplex(basis=by_degree, boundaries=boundaries)


@dataclass(frozen=True)
class QuotientCornerVerdict:
    ok: bool
    inconclusive: bool
    k: int | None
    degree: int | None
    detail: dict


def quotient_corner_check(bu: BoxUnion, w_max: int = 16) -> QuotientCornerVerdict:
    """With k the top stabilized nonzero reduced degree of the windows (0 when
    everything vanishes), the quotient complex has H_{r+k} != 0."""
    result = stabilization_check(bu.window_complex, degrees=None, w_max=w_max)
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

    @staticmethod
    def of(rows, rank: int) -> "FiniteCoverSpec":
        sub = LatticeSubgroup.from_generators(rows, rank)
        if sub.rank != rank:
            raise PeriodicError("sublattice must have finite index")
        return FiniteCoverSpec(sub)

    def reduce(self, g):
        return tuple(self.sublattice.reduce(list(g)))

    def elements(self) -> list[tuple[int, ...]]:
        rank = self.sublattice.ambient
        zero = tuple([0] * rank)
        seen = {self.reduce(zero)}
        frontier = [self.reduce(zero)]
        while frontier:
            new = []
            for g in frontier:
                for i in range(rank):
                    for sgn in (1, -1):
                        h = list(g)
                        h[i] += sgn
                        h = self.reduce(h)
                        if h not in seen:
                            seen.add(h)
                            new.append(h)
            frontier = new
        return sorted(seen)

    def add(self, g, h):
        return self.reduce(tuple(a + b for a, b in zip(g, h)))


class CoverWindow:
    """Regular G-cover of a window nerve via the coefficient cocycle."""

    def __init__(self, bu: BoxUnion, spec: FiniteCoverSpec, w):
        self.bu = bu
        self.spec = spec
        self.base = bu.window_complex(w)
        simplices = set()
        for s in self.base.simplices:
            c0 = min(s)[1]
            for g in spec.elements():
                lifted = tuple(sorted(
                    (j, c, spec.add(g, tuple(x - y for x, y in zip(c, c0))))
                    for j, c in s
                ))
                simplices.add(lifted)
        self.complex = SimplicialComplex(frozenset(simplices))

    def deck(self, g0):
        """Deck transformation as a vertex map."""
        return {
            v: (v[0], v[1], self.spec.add(v[2], g0)) for v in self.complex.vertices
        }

    def lift(self, coeff_shift):
        """Lift of the lattice translation through the covering-aligned
        sheets: translation in the base paired with the matching deck shift,
        so lifted simplices go to lifted simplices within their sheets."""
        shift_cls = self.spec.reduce(coeff_shift)
        return {
            v: (
                v[0],
                tuple(a + b for a, b in zip(v[1], coeff_shift)),
                self.spec.add(v[2], shift_cls),
            )
            for v in self.complex.vertices
        }

    def alternative_lift(self, coeff_shift):
        """Lift through the constant sheet system; differs from ``lift`` by
        the deck transformation of coeff_shift."""
        return {
            v: (v[0], tuple(a + b for a, b in zip(v[1], coeff_shift)), v[2])
            for v in self.complex.vertices
        }

    def project(self, v):
        return (v[0], v[1])


def _vertex_map_into(small: CoverWindow, big: CoverWindow, vmap):
    """Simplicial map from small.complex into big.complex given a vertex map."""
    return SimplicialMap(small.complex, big.complex, vmap)


@dataclass(frozen=True)
class CoverLiftVerdict:
    ok: bool
    inconclusive: bool
    checks: dict
    detail: dict


def cover_lift_check(bu: BoxUnion, spec: FiniteCoverSpec, n: int, r: int,
                     w_max: int = 16) -> CoverLiftVerdict:
    """The translation action lifts through chosen sheets to a group action
    commuting with the deck group, acting trivially on stabilized cover
    homology, with the cover's reduced homology vanishing from degree
    n-1-r; a full-rank tiling lifts to |G| disjoint copies."""
    if r != bu.rank:
        raise PeriodicError("declared rank differs from lattice rank")
    if n - 1 != bu.dim:
        raise PeriodicError("declared n-1 differs from box dimension")
    elements = spec.elements()
    order = len(elements)
    checks: dict = {"deck_order": order}

    if bu.rank == bu.dim:
        if not full_coverage_check(bu):
            raise PeriodicError("full-rank cover scenario without full coverage")
        cw = CoverWindow(bu, spec, 4)
        comp = _component_count(cw.complex)
        base_comp = _component_count(cw.base)
        checks["components"] = comp
        checks["expected_components"] = order * base_comp
        ok = comp == order * base_comp
        return CoverLiftVerdict(
            ok=ok, inconclusive=False, checks=checks,
            detail={"branch": "product-cover"},
        )

    margin = max(
        (abs(x) for row in bu.lattice.basis for x in row), default=1
    )
    w_small = 2
    w_big = w_small + 2 * margin
    small = CoverWindow(bu, spec, w_small)
    big = CoverWindow(bu, spec, w_big)
    units = [tuple(1 if i == j else 0 for j in range(bu.rank)) for i in range(bu.rank)]

    # (a) group action: composing unit lifts agrees with the combined lift
    action_ok = True
    for e1 in units:
        for e2 in units:
            l1 = small.lift(e1)
            combined = {
                v: (
                    w[0],
                    tuple(a + b for a, b in zip(w[1], e2)),
                    spec.add(w[2], spec.reduce(e2)),
                )
                for v, w in l1.items()
            }
            direct = small.lift(tuple(a + b for a, b in zip(e1, e2)))
            if combined != direct:
                action_ok = False
    checks["group_action"] = action_ok

    # lifted maps are simplicial into the bigger window
    simplicial_ok = True
    lift_maps = {}
    for e in units:
        try:
            lift_maps[e] = _vertex_map_into(small, big, small.lift(e))
        except ComplexError:
            simplicial_ok = False
    checks["lift_simplicial"] = simplicial_ok

    # (b) commutes with the deck group
    commute_ok = True
    for e in units:
        lift = small.lift(e)
        for g0 in elements:
            deck_small = small.deck(g0)
            for v in small.complex.vertices:
                left = lift[deck_small[v]]
                moved = lift[v]
                right = (moved[0], moved[1], spec.add(moved[2], g0))
                if left != right:
                    commute_ok = False
    checks["commutes_with_deck"] = commute_ok

    # (d) stabilized vanishing on the cover
    threshold = n - 1 - r
    result = stabilization_check(
        lambda w: CoverWindow(bu, spec, w).complex, degrees=None, w_max=w_max
    )
    relevant = range(threshold, result.top_degree + 1)
    inconclusive = any(
        result.outcomes.get(d, DegreeOutcome("stable", 0)).status == "inconclusive"
        for d in relevant
    )
    vanish = not inconclusive and all(
        result.outcomes.get(d, DegreeOutcome("stable", 0)).stabilized_trivial()
        for d in relevant
    )
    checks["cover_vanishing"] = vanish

    # (c) trivial on homology: for every generator cycle z of the small
    # window, lift(z) - z bounds in the big window (checked by an exact
    # integer solve), and components are preserved
    trivial_ok = simplicial_ok
    if simplicial_ok:
        from .homology import chain_complex, degree_homology
        from .snf import smith_normal_form, solve_integer

        small_cc = chain_complex(small.complex)
        big_cc = chain_complex(big.complex)
        big_index = {
            d: {s: i for i, s in enumerate(big_cc.basis.get(d, []))}
            for d in big_cc.basis
        }
        for d in range(1, max(small.complex.dimension, 0) + 1):
            h = degree_homology(small_cc, d)
            if not h.generators:
                continue
            bmat = big_cc.dense_boundary(d + 1)
            bsnf = smith_normal_form(bmat) if bmat and bmat[0] else None
            for e in units:
                f = lift_maps[e]
                for gen in h.generators:
                    diff = [0] * big_cc.dim(d)
                    for col, v in enumerate(gen):
                        if not v:
                            continue
                        s = small_cc.basis[d][col]
                        diff[big_index[d][s]] += v
                        img, sign = f.image_simplex(s)
                        if sign == 0:
                            raise PeriodicError("lift collapsed a simplex")
                        diff[big_index[d][img]] -= v * sign
                    if any(diff):
                        if bsnf is None or solve_integer(bmat, diff, bsnf) is None:
                            trivial_ok = False
        # degree 0: each component maps into the same component as inclusion
        comp_big = _component_labels(big.complex)
        for e in units:
            lift = small.lift(e)
            for v in small.complex.vertices:
                if comp_big[lift[v]] != comp_big[v]:
                    trivial_ok = False
    checks["acts_trivially_on_homology"] = trivial_ok

    # sheet independence: the alternative sheet system's lift differs from
    # the canonical one by exactly the deck transformation of the shift
    sheet_ok = True
    for e in units:
        canonical = small.lift(e)
        alt = small.alternative_lift(e)
        g0 = spec.reduce(e)
        for v in small.complex.vertices:
            a = alt[v]
            if canonical[v] != (a[0], a[1], spec.add(a[2], g0)):
                sheet_ok = False
    checks["sheet_choice_deck_difference"] = sheet_ok

    ok = (
        action_ok and simplicial_ok and commute_ok and trivial_ok
        and vanish and sheet_ok and not inconclusive
    )
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


def _component_count(cx: SimplicialComplex) -> int:
    return len(set(_component_labels(cx).values()))


def _component_labels(cx: SimplicialComplex):
    parent = {v: v for v in cx.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in cx.simplices:
        if len(s) == 2:
            a, b = find(s[0]), find(s[1])
            if a != b:
                parent[a] = b
    return {v: find(v) for v in cx.vertices}
