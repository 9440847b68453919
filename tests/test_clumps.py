import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nerveforge import lattices
from nerveforge.clumps import (
    Clump,
    ClumpError,
    Patch,
    PatchNerve,
    PatchSystem,
    _candidate_groups,
    clump,
    clump_chains,
    engulfing_check,
    growing_ranks_check,
    intersection_formula_check,
    is_minimal,
    maximal_clumps,
    patch_union_decomposition_ok,
    unfolding_space,
    unfolding_vanishing_check,
)
from nerveforge.construct import (grid_complex, interval_subcomplex, path_complex, rect_subcomplex,
                                  two_ball_gluing)
from nerveforge.homology import HomologySummary, homology, homology_of_complex
from nerveforge.jsonio import patch_system_from_json, patch_system_to_json
from nerveforge.lattices import LatticeSubgroup, intersect, join, join_all, virtually_contains
from nerveforge.scenarios import _label_alphabet, generate
from nerveforge.simplicial import SimplicialComplex
from nerveforge.snf import solve_integer

from stock_complexes import cycle_complex


def L(rows, d=2):
    return LatticeSubgroup.from_generators(rows, d)


E1 = L([[1, 0]])
E2 = L([[0, 1]])
DIAG = L([[1, 1]])
TWO_E1 = L([[2, 0]])
Z2 = L([[1, 0], [0, 1]])
TRIV = L([])

LABEL_ALPHABET = [E1, E2, DIAG, TWO_E1, Z2, TRIV,
                  L([[0, 1], [2, 0]]), L([[1, 1], [2, 0]])]


def interval_patch_system(path, spans, labels, parabolic=None):
    patches = {}
    for k, ((a, b), g) in enumerate(zip(spans, labels)):
        patches[k] = Patch(
            support=interval_subcomplex(path, a, b),
            group=g,
            parabolic=bool(parabolic and parabolic[k]),
        )
    return PatchSystem(ambient=path, patches=patches)


def introduction_system():
    ambient, u, v, membrane, cycle = two_ball_gluing()
    patches = {
        "U": Patch(support=u, group=E1),
        "V": Patch(support=v, group=E2),
        "W": Patch(support=membrane, group=Z2),
    }
    return PatchSystem(ambient=ambient, patches=patches), cycle


def test_group_of_simplex():
    path = path_complex(6)
    ps = interval_patch_system(path, [(0, 3), (2, 5)], [E1, E2])
    pn = PatchNerve(ps)
    # the join of the patch labels over each nerve simplex
    assert pn.groups[(0,)] == E1
    assert pn.groups[(0, 1)] == Z2
    assert (0, 7) not in pn.groups


def test_group_of_simplex_monotone_exhaustive():
    path = path_complex(6)
    rng = random.Random(0)
    for _ in range(20):
        spans = []
        while len(spans) < 4:
            cand = (rng.randrange(4), rng.randrange(3, 7))
            if cand[0] < cand[1] and cand not in spans:
                spans.append(cand)
        labels = [rng.choice(LABEL_ALPHABET) for _ in range(4)]
        ps = interval_patch_system(path, spans, labels)
        pn = PatchNerve(ps)
        for sigma in pn.simplices():
            for tau in pn.simplices():
                if set(sigma) <= set(tau):
                    assert pn.groups[tau].contains(pn.groups[sigma])


def test_clump_trivial_group_is_union():
    path = path_complex(6)
    ps = interval_patch_system(path, [(0, 3), (2, 5)], [E1, E2])
    y = clump(ps, TRIV)
    assert y.support == ps.union_support()


def test_clump_too_large_group_is_empty():
    path = path_complex(6)
    ps = interval_patch_system(path, [(0, 3), (2, 5)], [E1, TWO_E1])
    y = clump(ps, Z2)
    assert y.is_empty()


def test_clump_introduction_model():
    ps, _ = introduction_system()
    u = ps.patches["U"].support
    v = ps.patches["V"].support
    membrane = ps.patches["W"].support
    assert clump(ps, E1).support == u
    assert clump(ps, E2).support == v
    assert clump(ps, Z2).support == membrane
    assert membrane == u & v


def exhaustive_small_systems():
    """Deterministic corpus of <=4-patch interval systems over the alphabet."""
    path = path_complex(5)
    span_sets = [
        [(0, 2), (1, 3), (2, 4), (3, 5)],
        [(0, 3), (1, 4), (2, 5), (0, 5)],
        [(0, 2), (2, 4), (1, 5), (0, 4)],
    ]
    rng = random.Random(42)
    systems = []
    for _ in range(40):
        spans = rng.choice(span_sets)
        k = rng.randrange(2, 5)
        labels = [rng.choice(LABEL_ALPHABET) for _ in range(k)]
        systems.append(interval_patch_system(path, spans[:k], labels))
    return systems


def test_intersection_formula_exhaustive_pairs():
    for ps in exhaustive_small_systems():
        labels = [p.group for p in ps.patches.values()]
        sublattices = set()
        for r in range(len(labels) + 1):
            for combo in combinations(labels, r):
                g = TRIV
                for x in combo:
                    g = join(g, x)
                sublattices.add(g)
        for n in sublattices:
            for m in sublattices:
                v = intersection_formula_check(ps, n, m)
                assert v.ok, (n, m, v.certificate)


def test_is_minimal_examples():
    path = path_complex(6)
    assert is_minimal(interval_patch_system(path, [(0, 3)], [E1]), TRIV)
    # rank-1 group meeting a label in finite index without containment
    ps = interval_patch_system(path, [(0, 3)], [TWO_E1])
    assert not is_minimal(ps, E1)
    # containment or rank drop everywhere
    ps2 = interval_patch_system(path, [(0, 3), (2, 5)], [E1, E2])
    assert is_minimal(ps2, E1)
    assert is_minimal(ps2, E2)


def test_minimal_join_closure_exhaustive():
    for ps in exhaustive_small_systems():
        labels = [p.group for p in ps.patches.values()]
        sublattices = set()
        for r in range(1, len(labels) + 1):
            for combo in combinations(labels, r):
                g = TRIV
                for x in combo:
                    g = join(g, x)
                sublattices.add(g)
        minimal = [g for g in sublattices if is_minimal(ps, g)]
        for n in minimal:
            for m in minimal:
                assert is_minimal(ps, join(n, m))


def test_maximal_clumps_single_patch():
    path = path_complex(4)
    ps = interval_patch_system(path, [(0, 4)], [E1])
    mcs = maximal_clumps(ps)
    assert len(mcs) == 1
    assert mcs[0].support == ps.patches[0].support
    assert mcs[0].group == E1


def test_maximal_clumps_introduction_model():
    ps, _ = introduction_system()
    mcs = maximal_clumps(ps)
    supports = {mc.support for mc in mcs}
    u = ps.patches["U"].support
    v = ps.patches["V"].support
    w = ps.patches["W"].support
    assert supports == {u, v, w}
    by_support = {mc.support: mc for mc in mcs}
    assert by_support[u].group == E1
    assert by_support[v].group == E2
    assert by_support[w].group == Z2
    assert by_support[w].rank == 2


def test_maximal_clumps_postconditions():
    for ps in exhaustive_small_systems():
        mcs = maximal_clumps(ps)
        supports = [mc.support for mc in mcs]
        # closed under intersections
        for a in mcs:
            for b in mcs:
                meet = a.support & b.support
                if meet:
                    assert meet in supports, "intersection of maximal clumps escaped"
        # every infinite-label patch is inside some maximal clump
        for p in ps.patches.values():
            if p.group.is_infinite():
                assert any(p.support <= s for s in supports)
        # order reversal with infinite index on strict containment
        for a in mcs:
            for b in mcs:
                if a.support > b.support:
                    assert b.group.contains(a.group)
                    assert a.group.rank < b.group.rank
        assert patch_union_decomposition_ok(ps)


def test_growing_ranks_introduction_chain():
    ps, _ = introduction_system()
    mcs = maximal_clumps(ps)
    by_rank = {mc.rank: mc for mc in mcs}
    chain = [by_rank[1], by_rank[2]]
    if not (chain[1].support < chain[0].support):
        chain = [m for m in mcs if m.group == L([[1, 0]])] + [by_rank[2]]
    v = growing_ranks_check(chain)
    assert v.ok and v.ranks[1] >= 1 + v.ranks[0]


def test_growing_ranks_all_chains_corpus():
    for ps in exhaustive_small_systems():
        mcs = maximal_clumps(ps)
        for chain_idx in clump_chains(mcs):
            chain = [mcs[i] for i in chain_idx]
            assert growing_ranks_check(chain).ok


def test_growing_ranks_rejects_bad_chain():
    ps, _ = introduction_system()
    mcs = maximal_clumps(ps)
    with pytest.raises(ClumpError):
        growing_ranks_check([mcs[-1], mcs[0]] if len(mcs[-1].support) < len(mcs[0].support) else [mcs[0], mcs[-1]])


def test_unfolding_identity_enlargement_matches_union():
    ps, _ = introduction_system()
    us = unfolding_space(ps)
    h_unfolded = homology(us.unfolded.cc)
    union = SimplicialComplex(us.union_support)
    assert h_unfolded == homology_of_complex(union)


def test_unfolding_functoriality_identity_enlargement():
    # with identity enlargements the union classes map isomorphically
    path = path_complex(6)
    ps = interval_patch_system(path, [(0, 3), (2, 5), (1, 4)], [E1, E2, DIAG])
    us = unfolding_space(ps)
    union = SimplicialComplex(us.union_support)
    assert homology(us.unfolded.cc) == homology_of_complex(union)


def test_unfolding_introduction_cycle_dies_and_fills():
    ps, cycle = introduction_system()
    us = unfolding_space(ps)
    pushed = us.push_cycle(cycle, 2)
    from nerveforge.homology import degree_homology

    h2 = degree_homology(us.unfolded.cc, 2)
    assert h2.class_is_zero(pushed)
    # exact chain arithmetic: boundary of filling equals the pushed cycle
    mat = us.unfolded.cc.dense_boundary(3)
    filling = solve_integer(mat, pushed)
    assert filling is not None
    recovered = [
        sum(mat[i][j] * filling[j] for j in range(len(filling)))
        for i in range(len(mat))
    ]
    assert recovered == pushed


def test_unfolding_vanishing_introduction():
    ps, _ = introduction_system()
    v = unfolding_vanishing_check(ps, n=4, r=1)
    assert v.hypotheses_hold
    assert v.ok
    assert v.detail["threshold_degree"] == 2


def test_maximal_clumps_memo_is_per_instance(monkeypatch):
    import dataclasses

    import nerveforge.clumps as clumps_module

    calls = []
    find = clumps_module._find_maximal_clumps

    def counted(ps):
        calls.append(ps)
        return find(ps)

    monkeypatch.setattr(clumps_module, "_find_maximal_clumps", counted)
    ps, _ = introduction_system()
    first = maximal_clumps(ps)
    assert first
    first.clear()
    again = maximal_clumps(ps)
    assert again and again is not maximal_clumps(ps)
    assert unfolding_space(ps).clumps == again
    assert len(calls) == 1
    # the memo takes no part in ==, repr or replace
    fresh, _ = introduction_system()
    assert fresh == ps and repr(fresh) == repr(ps)
    copy = dataclasses.replace(ps)
    assert maximal_clumps(copy) == again
    assert len(calls) == 2


def test_patch_nerve_built_once_per_patch_system(monkeypatch):
    import dataclasses

    import nerveforge.clumps as clumps_module

    built = []

    class Counted(PatchNerve):
        def __init__(self, ps):
            built.append(ps)
            super().__init__(ps)

    monkeypatch.setattr(clumps_module, "PatchNerve", Counted)
    ps, _ = introduction_system()
    # every check the benchmark runs on a patch system, and the rest that
    # build a nerve when given none
    assert maximal_clumps(ps)
    assert engulfing_check(ps).ok
    assert unfolding_vanishing_check(ps, n=4, r=1).ok
    assert patch_union_decomposition_ok(ps)
    assert is_minimal(ps, E1)
    assert not clump(ps, E1).is_empty()
    assert intersection_formula_check(ps, E1, E2).ok
    assert built == [ps]
    # the memo takes no part in ==, repr or replace
    fresh, _ = introduction_system()
    assert fresh == ps and repr(fresh) == repr(ps)
    copy = dataclasses.replace(ps)
    assert engulfing_check(copy).ok
    assert len(built) == 2 and built[1] is copy


def test_unfolding_with_cone_enlargements():
    # enlarge each patch to a cone: vanishing becomes easy and the check passes
    path = path_complex(6)
    base = interval_patch_system(path, [(0, 2), (1, 4), (3, 6)], [E1, DIAG, E2])
    big = interval_subcomplex(path, 0, 6)
    ps = PatchSystem(
        ambient=path,
        patches=base.patches,
        enlargements={(k,): big for k in base.patches},
    )
    us = unfolding_space(ps)
    assert homology(us.unfolded.cc) == HomologySummary.of({0: (1, ())})


def test_unfolding_vanishing_detects_hypothesis_violation():
    # a clump with a circle as its enlarged support violates the coefficient
    # hypothesis at chain length 0 for n=4, r=2
    circle = cycle_complex(4)
    ps = PatchSystem(
        ambient=circle,
        patches={0: Patch(support=circle.simplices, group=E1)},
    )
    v = unfolding_vanishing_check(ps, n=4, r=2)
    assert not v.hypotheses_hold


def test_engulfing_default_scheme_and_violation():
    path = path_complex(6)
    ps = interval_patch_system(
        path, [(0, 3), (2, 5)], [E1, E2], parabolic=[False, True]
    )
    big0 = interval_subcomplex(path, 0, 4)
    big1 = interval_subcomplex(path, 1, 6)
    ps_big = PatchSystem(
        ambient=path, patches=ps.patches, enlargements={(0,): big0, (1,): big1}
    )
    assert engulfing_check(ps_big).ok
    # deliberate violation: the mixed simplex gets an enlargement escaping
    # the semisimple one
    bad = PatchSystem(
        ambient=path,
        patches=ps.patches,
        enlargements={
            (0,): interval_subcomplex(path, 2, 3) | ps.patches[0].support,
            (1,): big1,
            (0, 1): interval_subcomplex(path, 2, 6),
        },
    )
    assert not engulfing_check(bad).ok


# ---------------------------------------------------------------------------
# one homology computation per clump against the per-chain loop (property)
# ---------------------------------------------------------------------------

def loop_unfolding_violations(ps, n, r):
    """Reference: the coefficient hypothesis with one homology computation
    per clump chain."""
    us = unfolding_space(ps)
    violations = []
    for chain in us.chains:
        need = n - 1 - (len(chain) - 1 + r)
        summ = homology_of_complex(
            SimplicialComplex(us.clumps[chain[-1]].big_support), reduced=True)
        if not summ.is_trivial_at_or_above(max(need, 1)):
            violations.append(
                {"chain": chain, "required_degree": need, "homology": summ.as_json()})
    return tuple(tuple(sorted(v.items())) for v in violations)


CIRCLE = cycle_complex(6)


def arc(start, length):
    """Full subcomplex of the 6-cycle on ``length + 1`` consecutive vertices
    from ``start``; length 5 or more is the whole circle."""
    vs = {(start + t) % 6 for t in range(length + 1)}
    return frozenset(s for s in CIRCLE.simplices if set(s) <= vs)


@st.composite
def circle_patch_systems(draw):
    """2-4 patches on a 6-cycle, each an arc or the whole circle, labelled
    from the alphabet; sometimes each patch is enlarged to a longer arc, so
    clump supports and enlarged supports with a 1-cycle are common."""
    count = draw(st.integers(2, 4))
    starts = draw(st.lists(st.integers(0, 5), min_size=count, max_size=count))
    lengths = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
    supports = [arc(a, b) for a, b in zip(starts, lengths)]
    assume(len(set(supports)) == count)
    patches = {k: Patch(support=sup, group=draw(st.sampled_from(LABEL_ALPHABET)))
               for k, sup in enumerate(supports)}
    enlargements = {}
    if draw(st.booleans()):
        grow = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        enlargements = {(k,): arc(a, b + g)
                        for k, (a, b, g) in enumerate(zip(starts, lengths, grow))}
    return PatchSystem(ambient=CIRCLE, patches=patches, enlargements=enlargements)


@settings(max_examples=120, deadline=None)
@given(circle_patch_systems(), st.integers(3, 5), st.integers(0, 2))
def test_unfolding_vanishing_matches_per_chain_loop(ps, n, r):
    assume(n - 1 - r >= 1 and maximal_clumps(ps))
    v = unfolding_vanishing_check(ps, n, r)
    ref = loop_unfolding_violations(ps, n, r)
    assert v.violations == ref
    assert v.hypotheses_hold == (not ref)
    assert v.ok == (not ref and v.detail["unfolding_vanishes"]
                    and v.detail["composite_zero"])


# ---------------------------------------------------------------------------
# the lattice work of the clump calculus against the meet-rank loop and the
# frontier closure (property)
# ---------------------------------------------------------------------------

def ref_is_minimal(ps, n):
    """Reference: no simplex label fails to contain n while meeting it in
    full rank."""
    return not any(not g.contains(n) and intersect(n, g).rank >= n.rank
                   for g in ps._patch_nerve.groups.values())


def ref_candidate_groups(ps):
    """Reference: the simplex labels closed under intersection, meeting each
    new group with the whole pool until no group is new; by key."""
    pool = {g.key(): g for g in ps._patch_nerve.groups.values()}
    frontier = list(pool.values())
    while frontier:
        new = []
        for a in frontier:
            for b in list(pool.values()):
                c = intersect(a, b)
                if c.key() not in pool:
                    pool[c.key()] = c
                    new.append(c)
        frontier = new
    return pool


def ref_maximal_clumps(ps):
    """Reference: (support, group, simplices) of each maximal clump, from the
    reference closure and minimality and a per-simplex containment test."""
    pn = ps._patch_nerve
    by_support = {}
    for g in ref_candidate_groups(ps).values():
        if g.is_infinite() and ref_is_minimal(ps, g):
            simplices = tuple(s for s in pn.simplices() if pn.groups[s].contains(g))
            support = frozenset().union(*(pn.intersection(s) for s in simplices))
            if support:
                by_support.setdefault(support, []).append(g)
    out = []
    for support, groups in by_support.items():
        n_alpha = join_all(groups, ps.lattice_ambient)
        if any(p.group.is_infinite() and virtually_contains(n_alpha, p.group)
               for p in ps.patches.values()):
            simplices = tuple(s for s in pn.simplices() if pn.groups[s].contains(n_alpha))
            out.append((support, n_alpha, simplices))
    return sorted(out, key=lambda c: (-len(c[0]), c[1].key()))


def lattices_in(d):
    vectors = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    return st.lists(vectors, max_size=d).map(lambda rows: L(rows, d))


@st.composite
def path_patch_systems(draw):
    """1-4 distinct interval patches on the 6-path, labelled from the scenario
    alphabet, or with random subgroups of Z^2 or of Z^3."""
    label = draw(st.sampled_from([st.sampled_from(_label_alphabet()),
                                  lattices_in(2), lattices_in(3)]))
    interval = st.tuples(st.integers(0, 5), st.integers(1, 6)).filter(lambda t: t[0] < t[1])
    spans = draw(st.lists(interval, min_size=1, max_size=4, unique=True))
    labels = [draw(label) for _ in spans]
    return interval_patch_system(path_complex(6), spans, labels)


@settings(max_examples=150, deadline=None)
@given(path_patch_systems())
def test_clump_lattice_work_matches_the_reference_loops(ps):
    pn = ps._patch_nerve
    for sigma, g in pn.groups.items():
        assert g == join_all([ps.patches[i].group for i in sigma], ps.lattice_ambient)
    assert set(pn.labels) == set(pn.groups.values())
    pool = ref_candidate_groups(ps)
    assert {g.key() for g in _candidate_groups(pn)} == set(pool)
    trials = [*pool.values(), L([], ps.lattice_ambient),
              *(join(a, b) for a, b in combinations(pn.labels, 2))]
    for n in trials:
        assert is_minimal(ps, n) == ref_is_minimal(ps, n)
    assert [(c.support, c.group, c.simplices) for c in maximal_clumps(ps)] == \
        ref_maximal_clumps(ps)


def test_lattice_work_does_not_depend_on_earlier_patch_systems(monkeypatch):
    """A patch system makes the same HNF calls whatever ran before it: no
    lattice result outlives the patch system that computed it."""
    calls = []
    hnf = lattices.hermite_normal_form

    def counted(rows, d):
        calls.append(d)
        return hnf(rows, d)

    monkeypatch.setattr(lattices, "hermite_normal_form", counted)
    # labels that no other test draws, so nothing can have met them before
    path = path_complex(6)
    payload = patch_system_to_json(interval_patch_system(
        path, [(0, 3), (2, 5), (1, 4)],
        [L([[7, 0, 0]], 3), L([[0, 11, 0]], 3), L([[7, 0, 0], [0, 0, 13]], 3)]))

    def hnf_calls():
        ps = patch_system_from_json(payload)
        before = len(calls)
        assert maximal_clumps(ps)
        unfolding_vanishing_check(ps, n=4, r=1)
        return len(calls) - before

    first = hnf_calls()
    assert first
    for seed in range(3):
        maximal_clumps(patch_system_from_json(
            generate("lattice-patch-system", seed=seed).payload))
    assert hnf_calls() == first
