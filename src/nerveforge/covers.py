"""Covers of simplicial complexes: nerves, saturation, goodness, and the
homology assembly bound."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .homology import HomologySummary, homology_of_complex
from .simplicial import SimplicialComplex, nerve_of, union_all


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class Cover:
    """Indexed subcomplexes of a shared ambient complex.

    Pieces must be distinct, nonempty and downward closed frozensets; a
    cover declared ``covering`` must exhaust the ambient simplices.  Only
    facets are checked: if every facet of every simplex of a piece is in
    the piece, then by induction on size so is every face.

    ``_reduced_homology`` memoizes, per instance, the reduced homology of
    each intersection the cover checks read, keyed on the intersection's
    simplex ``frozenset``. A set's homology is a function of the set alone,
    so an entry cannot go stale. ``_nerve`` is the cover's nerve, built once
    and shared by the cover checks. Neither memo is a field, so ``==`` and
    ``repr`` ignore them, and they are dropped with the cover.
    """

    ambient: SimplicialComplex
    pieces: dict  # index -> frozenset of simplices
    covering: bool = False

    def __post_init__(self):
        seen = {}
        for i, sub in self.pieces.items():
            if not isinstance(sub, frozenset):
                raise CoverError(f"piece {i!r} is not a frozenset")
            if not sub:
                raise CoverError(f"piece {i!r} is empty")
            if not sub <= self.ambient.simplices:
                raise CoverError(f"piece {i!r} is not inside the ambient complex")
            for s in sub:
                if len(s) > 1:
                    for k in range(len(s)):
                        if (f := s[:k] + s[k + 1:]) not in sub:
                            raise CoverError(f"piece {i!r} is not downward closed at {f}")
            if sub in seen.values():
                raise CoverError("duplicate pieces in cover")
            seen[i] = sub
        if self.covering and self.union() != self.ambient.simplices:
            raise CoverError("cover declared covering but does not exhaust the ambient")

    @property
    def indices(self):
        return sorted(self.pieces)

    def union(self) -> frozenset:
        return union_all(self.pieces.values())

    def union_complex(self) -> SimplicialComplex:
        return SimplicialComplex(self.union())

    @cached_property
    def _nerve(self) -> "NerveComplex":
        return nerve(self)

    @cached_property
    def _homology_memo(self) -> dict:
        return {}

    def _reduced_homology(self, simplices: frozenset) -> HomologySummary:
        """Reduced homology of the subcomplex ``simplices``, computed once."""
        memo = self._homology_memo
        summ = memo.get(simplices)
        if summ is None:
            summ = memo[simplices] = homology_of_complex(
                SimplicialComplex(simplices), reduced=True)
        return summ


@dataclass(frozen=True)
class NerveComplex:
    """Nerve with the intersection subcomplex stored per simplex."""

    complex: SimplicialComplex
    intersections: dict  # tuple of indices -> frozenset of ambient simplices

    def simplices(self):
        return sorted(self.intersections, key=lambda a: (len(a), a))


def nerve(cover: Cover) -> NerveComplex:
    """Simplices are exactly the index sets with nonempty intersection."""
    inter = dict(nerve_of({i: cover.pieces[i] for i in cover.indices},
                          lambda a, b: (a & b) or None))
    return NerveComplex(SimplicialComplex(frozenset(inter)), inter)


def saturate(nv: NerveComplex, alpha: tuple, cover: Cover) -> tuple:
    """The largest simplex with the same intersection: {i | X_i >= X_alpha}."""
    x = nv.intersections.get(tuple(sorted(alpha)))
    if x is None:
        raise CoverError(f"{alpha!r} is not a simplex of the nerve")
    return tuple(sorted(i for i in cover.indices if x <= cover.pieces[i]))


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    entries: dict  # nerve simplex -> (acyclic flag, reduced HomologySummary)

    def as_json(self):
        return {
            "good": self.good,
            "simplices": {
                ",".join(map(str, a)): {
                    "acyclic": flag,
                    "reduced_homology": summ.as_json(),
                }
                for a, (flag, summ) in sorted(self.entries.items())
            },
        }


def goodness_check(cover: Cover) -> GoodnessReport:
    """Reduced homology of every nonempty intersection; good iff all vanish.

    Each distinct intersection is computed once, through the cover's memo.
    """
    nv = cover._nerve
    items = nv.simplices()

    def one(alpha):
        summ = cover._reduced_homology(nv.intersections[alpha])
        return alpha, (summ == HomologySummary.of({}), summ)

    entries = dict(sorted(one(a) for a in items))
    return GoodnessReport(good=all(flag for flag, _ in entries.values()), entries=entries)


@dataclass(frozen=True)
class AssemblyVerdict:
    hypotheses_hold: bool
    conclusion_holds: bool
    implication_holds: bool
    degree_bound: int
    detail: dict
    certificate: dict | None = None


def assembly_bound_check(cover: Cover, n: int) -> AssemblyVerdict:
    """If every k-simplex of the reduced nerve (the chains of saturated
    simplices under strict inclusion) has coefficient homology vanishing in
    degrees >= n-k and the reduced nerve has no homology in degrees >= n,
    then the union has none either; a certificate is returned when the
    implication fails (which must never happen).

    A chain's coefficient homology is that of the intersection at its top
    simplex, and its test gets stronger as k grows, so at each saturated
    simplex s the longest chain ending there binds: s is tested at its
    height, 0 with no saturated simplex strictly inside s, else one more
    than the largest height among those. Distinct saturated simplices have
    distinct intersections, so each is read once from the cover's memo
    (``Cover._reduced_homology``), keyed on the intersection's simplex set.

    The reduced nerve's homology is read off the nerve itself, which has
    the same homology and fewer simplices.
    """
    nv = cover._nerve
    saturated = sorted({saturate(nv, a, cover) for a in nv.intersections},
                       key=lambda s: (len(s), s))
    height = {}
    for s in saturated:
        # every saturated subset of s is already placed, and is strict
        vs = set(s)
        height[s] = max((h + 1 for t, h in height.items() if vs.issuperset(t)),
                        default=0)
    coeff_ok = all(
        cover._reduced_homology(nv.intersections[s]).is_trivial_at_or_above(n - k)
        for s, k in height.items())

    # saturation is a closure operator on the nerve's face poset, so the
    # reduced nerve is homotopy equivalent to the (smaller) nerve (Quillen)
    nerve_summary = homology_of_complex(nv.complex)
    nerve_ok = nerve_summary.is_trivial_at_or_above(n)

    union_summary = homology_of_complex(cover.union_complex())
    conclusion = union_summary.is_trivial_at_or_above(n)

    hypotheses = coeff_ok and nerve_ok
    certificate = None
    if hypotheses and not conclusion:
        certificate = {
            "union_homology": union_summary.as_json(),
            "degree_bound": n,
        }
    return AssemblyVerdict(
        hypotheses_hold=hypotheses,
        conclusion_holds=conclusion,
        implication_holds=not (hypotheses and not conclusion),
        degree_bound=n,
        detail={
            "coefficients_vanish": coeff_ok,
            "reduced_nerve_vanishes": nerve_ok,
            "reduced_nerve_homology": nerve_summary.as_json(),
            "union_homology": union_summary.as_json(),
        },
        certificate=certificate,
    )
