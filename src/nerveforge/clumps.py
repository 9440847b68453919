"""Clump calculus over group-labeled patch systems and the unfolding space.

Patches are subcomplexes labeled by lattice subgroups.  Clumps are unions of
nerve intersections whose generated label group contains a given group; the
maximal-clump machinery finds the clumps definable by infinite minimal
groups together with their largest minimal groups.

Every lattice operation is done once per ``PatchSystem``, where its result
is needed, and nothing outlives the patch system:

- ``PatchNerve`` labels each nerve simplex with one ``join`` of its
  prefix's label and the last patch's, and keeps the distinct labels;
- ``_candidate_groups`` closes the distinct labels under ``intersect``,
  meeting each unordered pair once;
- ``is_minimal`` makes one ``virtually_contains`` join per distinct label
  that does not contain the group, and ``clump`` one ``contains`` test per
  distinct label;
- ``maximal_clumps`` runs the above once and keeps its result on the
  patch system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .covers import Cover, nerve
from .homology import (
    HomologySummary,
    TotalComplex,
    chain_complex,
    degree_homology,
    homology,
    homology_of_complex,
)
from .lattices import (
    LatticeSubgroup,
    intersect,
    join,
    join_all,
    virtually_contains,
)
from .simplicial import SimplicialComplex, union_all


class ClumpError(ValueError):
    pass


@dataclass(frozen=True)
class Patch:
    support: frozenset
    group: LatticeSubgroup
    parabolic: bool = False
    rank_annotation: int | None = None


@dataclass(frozen=True)
class PatchSystem:
    """Patches over an ambient complex, with optional enlargements.

    ``_maximal_clumps`` keeps the result of ``maximal_clumps``, and
    ``_patch_nerve`` keeps the one ``PatchNerve`` that every clump check
    reads.  Both are per-instance memos that are not part of ``==``,
    ``hash`` or ``repr``; ``dataclasses.replace`` builds an instance with
    empty ones.  A patch system is not changed after it is built.
    """

    ambient: SimplicialComplex
    patches: dict  # index -> Patch
    enlargements: dict = field(default_factory=dict)  # key tuple -> frozenset

    def __post_init__(self):
        ranks = {p.group.ambient for p in self.patches.values()}
        if len(ranks) > 1:
            raise ClumpError("patch labels live in different ambient lattice ranks")
        for key, sup in self.enlargements.items():
            base = self._plain_intersection(tuple(sorted(key)))
            if base is None:
                raise ClumpError(f"enlargement for non-simplex {key}")
            if not base <= sup:
                raise ClumpError(f"enlargement for {key} does not contain the patch piece")
            if not sup <= self.ambient.simplices:
                raise ClumpError(f"enlargement for {key} leaves the ambient complex")

    @cached_property
    def _patch_nerve(self) -> "PatchNerve":
        return PatchNerve(self)

    @cached_property
    def _maximal_clumps(self) -> tuple:
        return tuple(_find_maximal_clumps(self))

    def _plain_intersection(self, sigma: tuple):
        out = None
        for i in sigma:
            if i not in self.patches:
                return None
            s = self.patches[i].support
            out = s if out is None else out & s
        return out

    def cover(self) -> Cover:
        return Cover(self.ambient, {i: p.support for i, p in self.patches.items()})

    @property
    def lattice_ambient(self) -> int:
        return next(iter(self.patches.values())).group.ambient

    def union_support(self) -> frozenset:
        return union_all([p.support for p in self.patches.values()])

    def enlargement_of(self, sigma: tuple) -> frozenset:
        """Per-simplex enlargement: explicit entry, else intersection of the
        member patches' entries, else the plain intersection (identity)."""
        sigma = tuple(sorted(sigma))
        if sigma in self.enlargements:
            return self.enlargements[sigma]
        if self.enlargements:
            parts = []
            for i in sigma:
                parts.append(self.enlargements.get((i,), self.patches[i].support))
            out = parts[0]
            for p in parts[1:]:
                out = out & p
            return out
        base = self._plain_intersection(sigma)
        if base is None:
            raise ClumpError(f"{sigma} is not a nerve simplex")
        return base


class PatchNerve:
    """Nerve of the patch supports with the join of its patch labels per
    simplex (``groups``) and the distinct labels among them (``labels``).

    Faces come first in ``nerve.simplices()``, so each simplex's label is
    one join of its prefix's label with its last patch's label.
    """

    def __init__(self, ps: PatchSystem):
        self.nerve = nerve(ps.cover())
        self.groups: dict[tuple, LatticeSubgroup] = {}
        for sigma in self.nerve.simplices():
            g = ps.patches[sigma[-1]].group
            self.groups[sigma] = join(self.groups[sigma[:-1]], g) if sigma[1:] else g
        self.labels = tuple(dict.fromkeys(self.groups.values()))

    def simplices(self):
        return list(self.groups)

    def intersection(self, sigma):
        return self.nerve.intersections[tuple(sorted(sigma))]


@dataclass(frozen=True)
class Clump:
    group: LatticeSubgroup
    support: frozenset
    simplices: tuple

    def is_empty(self):
        return not self.support


def clump(ps: PatchSystem, n: LatticeSubgroup) -> Clump:
    """Union of the intersections whose generated label contains n."""
    pn = ps._patch_nerve
    holds = {g: g.contains(n) for g in pn.labels}
    contributing = tuple(sigma for sigma, g in pn.groups.items() if holds[g])
    support = union_all([pn.intersection(s) for s in contributing])
    return Clump(group=n, support=support, simplices=contributing)


@dataclass(frozen=True)
class IntersectionFormulaVerdict:
    ok: bool
    certificate: tuple | None = None


def intersection_formula_check(
    ps: PatchSystem, n: LatticeSubgroup, m: LatticeSubgroup
) -> IntersectionFormulaVerdict:
    """Y_N ∩ Y_M = Y_<N,M> as exact subcomplex equality."""
    lhs = clump(ps, n).support & clump(ps, m).support
    rhs = clump(ps, join(n, m)).support
    if lhs == rhs:
        return IntersectionFormulaVerdict(ok=True)
    diff = (lhs - rhs) | (rhs - lhs)
    return IntersectionFormulaVerdict(ok=False, certificate=sorted(diff)[0])


def is_minimal(ps: PatchSystem, n: LatticeSubgroup) -> bool:
    """Every simplex label either contains n or meets it in infinite index.

    n ∩ g has finite index in n exactly when rank(n ∩ g) = rank(n), which
    is when g virtually contains n.  So n is minimal when no distinct label
    g that fails to contain n virtually contains it: one join per label.
    """
    return not any(
        not g.contains(n) and virtually_contains(g, n)
        for g in ps._patch_nerve.labels
    )


@dataclass(frozen=True)
class MaximalClump:
    support: frozenset
    group: LatticeSubgroup  # the largest minimal group
    rank: int
    simplices: tuple
    big_support: frozenset

    def key(self):
        return (-len(self.support), self.group.key())


def _candidate_groups(pn: PatchNerve) -> list[LatticeSubgroup]:
    """Closure of the simplex labels under intersection; every maximal clump
    is definable by a minimal group from this finite set.

    Each group is met with every group before it, once, so each unordered
    pair of the closure is intersected once."""
    pool = list(pn.labels)
    seen = set(pool)
    for i, a in enumerate(pool):
        for b in pool[:i]:
            c = intersect(a, b)
            if c not in seen:
                seen.add(c)
                pool.append(c)
    return pool


def maximal_clumps(ps: PatchSystem) -> list[MaximalClump]:
    """Clumps definable by infinite minimal groups, each with its largest
    minimal group, filtered to those virtually containing some infinite
    patch label.

    Computed once per patch system; each call returns a fresh list."""
    return list(ps._maximal_clumps)


def _find_maximal_clumps(ps: PatchSystem) -> list[MaximalClump]:
    candidates = [
        g for g in _candidate_groups(ps._patch_nerve)
        if g.is_infinite() and is_minimal(ps, g)
    ]
    by_support: dict[frozenset, list[LatticeSubgroup]] = {}
    for g in candidates:
        y = clump(ps, g)
        if y.is_empty():
            continue
        by_support.setdefault(y.support, []).append(g)

    out = []
    d = ps.lattice_ambient
    for support, groups in by_support.items():
        n_alpha = join_all(groups, d)
        if not is_minimal(ps, n_alpha):
            raise ClumpError("join of minimal groups failed to be minimal")
        y = clump(ps, n_alpha)
        if y.support != support:
            raise ClumpError("largest minimal group defines a different clump")
        keep = any(
            p.group.is_infinite() and virtually_contains(n_alpha, p.group)
            for p in ps.patches.values()
        )
        if not keep:
            continue
        big = union_all([ps.enlargement_of(s) for s in y.simplices]) if y.simplices else frozenset()
        out.append(
            MaximalClump(
                support=support,
                group=n_alpha,
                rank=n_alpha.rank,
                simplices=y.simplices,
                big_support=big,
            )
        )
    out.sort(key=MaximalClump.key)
    return out


@dataclass(frozen=True)
class GrowingRanksVerdict:
    ok: bool
    ranks: tuple[int, ...]


def growing_ranks_check(chain: list[MaximalClump]) -> GrowingRanksVerdict:
    """Along a strictly decreasing chain of maximal clumps the minimal-group
    ranks grow at least linearly."""
    for a, b in zip(chain, chain[1:]):
        if not (b.support < a.support):
            raise ClumpError("chain of clumps is not strictly decreasing")
    ranks = tuple(c.rank for c in chain)
    k = len(chain) - 1
    ok = all(r2 > r1 for r1, r2 in zip(ranks, ranks[1:])) and (
        not chain or ranks[-1] >= k + ranks[0]
    )
    return GrowingRanksVerdict(ok=ok, ranks=ranks)


def clump_chains(clumps: list[MaximalClump]) -> list[tuple[int, ...]]:
    """All strictly decreasing chains (by support) of maximal-clump indices."""
    order = sorted(range(len(clumps)), key=lambda i: -len(clumps[i].support))
    chains: list[tuple[int, ...]] = []

    def extend(chain):
        chains.append(tuple(chain))
        last = chain[-1]
        for j in order:
            if clumps[j].support < clumps[last].support:
                chain.append(j)
                extend(chain)
                chain.pop()

    for i in order:
        extend([i])
    return chains


@dataclass
class UnfoldingSpace:
    clumps: list[MaximalClump]
    chains: list[tuple[int, ...]]
    unfolded: TotalComplex       # coefficients: big supports
    folded: TotalComplex         # coefficients: plain supports
    union_support: frozenset

    def push_cycle(self, cycle: dict, d: int) -> list[int]:
        """Lift a cycle of the clump union through the folded model and push
        it into the unfolding complex."""
        lifted = self.folded.lift_cycle(cycle, d)
        out = [0] * self.unfolded.cc.dim(d)
        for col, v in enumerate(lifted):
            if v:
                lab = self.folded.cc.basis[d][col]
                out[self.unfolded.index[d][lab]] += v
        return out


def unfolding_space(ps: PatchSystem) -> UnfoldingSpace:
    """Total complexes over strictly decreasing maximal-clump chains, with
    coefficients the enlarged (resp. plain) clump supports."""
    clumps_list = maximal_clumps(ps)
    if not clumps_list:
        raise ClumpError("no maximal clumps: unfolding space is empty")
    chains = clump_chains(clumps_list)
    unfolded = TotalComplex(chains, lambda o: clumps_list[o[-1]].big_support)
    folded = TotalComplex(chains, lambda o: clumps_list[o[-1]].support)
    union = union_all([c.support for c in clumps_list])
    return UnfoldingSpace(
        clumps=clumps_list,
        chains=chains,
        unfolded=unfolded,
        folded=folded,
        union_support=union,
    )


@dataclass(frozen=True)
class UnfoldingVanishingVerdict:
    ok: bool
    hypotheses_hold: bool
    detail: dict
    violations: tuple = ()


def unfolding_vanishing_check(ps: PatchSystem, n: int, r: int) -> UnfoldingVanishingVerdict:
    """Per-chain coefficient vanishing implies the unfolding complex has no
    homology in degrees >= n-1-r and the union's classes die there.

    A chain's coefficients are its last clump's enlarged support; each
    clump's reduced homology is computed once, however many chains end at
    it."""
    threshold = n - 1 - r
    if threshold < 1:
        raise ClumpError("degree threshold below 1; scenario constants invalid")
    us = unfolding_space(ps)
    violations = []
    coeff_homology: dict[int, HomologySummary] = {}
    for chain in us.chains:
        k = len(chain) - 1
        need = n - 1 - (k + r)
        last = chain[-1]
        if last not in coeff_homology:
            coeff_homology[last] = homology_of_complex(
                SimplicialComplex(us.clumps[last].big_support), reduced=True)
        summ = coeff_homology[last]
        if not summ.is_trivial_at_or_above(max(need, 1)):
            violations.append(
                {"chain": chain, "required_degree": need, "homology": summ.as_json()}
            )
    hypotheses = not violations

    u_summary = homology(us.unfolded.cc)
    vanish = u_summary.is_trivial_at_or_above(threshold)

    union_cx = SimplicialComplex(us.union_support)
    composite_zero = True
    top = union_cx.dimension
    plain_cc = chain_complex(union_cx)
    for d in range(threshold, top + 1):
        h = degree_homology(plain_cc, d)
        if not h.generators:
            continue
        tgt = degree_homology(us.unfolded.cc, d)
        for gen in h.generators:
            cycle = {
                plain_cc.basis[d][i]: v for i, v in enumerate(gen) if v
            }
            pushed = us.push_cycle(cycle, d)
            if not tgt.class_is_zero(pushed):
                composite_zero = False
    ok = hypotheses and vanish and composite_zero
    return UnfoldingVanishingVerdict(
        ok=ok,
        hypotheses_hold=hypotheses,
        detail={
            "threshold_degree": threshold,
            "unfolding_homology": u_summary.as_json(),
            "unfolding_vanishes": vanish,
            "composite_zero": composite_zero,
        },
        violations=tuple(
            tuple(sorted(v.items())) for v in violations
        ),
    )


@dataclass(frozen=True)
class EngulfingVerdict:
    ok: bool
    failures: tuple = ()


def engulfing_check(ps: PatchSystem) -> EngulfingVerdict:
    """Semisimple enlargements reverse inclusion: for semisimple rho inside
    sigma, the rho-enlargement contains the sigma-enlargement; consequently
    the semisimple union engulfs the mixed region."""
    pn = ps._patch_nerve
    semisimple = {i for i, p in ps.patches.items() if not p.parabolic}
    failures = []
    simplices = pn.simplices()
    for rho in simplices:
        if not set(rho) <= semisimple:
            continue
        z_rho = ps.enlargement_of(rho)
        for sigma in simplices:
            if set(rho) < set(sigma):
                if not ps.enlargement_of(sigma) <= z_rho:
                    failures.append(("containment", rho, sigma))
    s_union = union_all([pn.intersection(s) for s in simplices if set(s) <= semisimple])
    s_big = union_all([ps.enlargement_of((i,)) for i in sorted(semisimple)]) if semisimple else frozenset()
    mixed = [
        s for s in simplices
        if (set(s) & semisimple) and (set(s) - semisimple)
    ]
    mixed_big = union_all([ps.enlargement_of(s) for s in mixed])
    if not (mixed_big | s_union) <= s_big:
        failures.append(("engulfing", None, None))
    return EngulfingVerdict(ok=not failures, failures=tuple(failures))


def patch_union_decomposition_ok(ps: PatchSystem) -> bool:
    """Union of patches = union of maximal clumps plus finite-label patches."""
    clumps_list = maximal_clumps(ps)
    rhs = union_all(
        [c.support for c in clumps_list]
        + [p.support for p in ps.patches.values() if not p.group.is_infinite()]
    )
    return ps.union_support() == rhs
