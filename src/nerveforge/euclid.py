"""Exact rational Euclidean isometries, minsets and arrangements.

Each isometry and each affine subspace holds one state, its integer form
``_ints``:

- an isometry ``x -> a x + b`` is ``(A, b, d)`` with ``a = A/d`` and
  ``b = b/d`` over ``int``s, ``d`` the least common denominator;
- an affine subspace is its base over one denominator and the primitive
  ``int`` rows that ``snf.echelon`` returns for its directions.

The exact ``Fraction`` fields, an isometry's ``a`` and ``b`` and a
subspace's ``base`` and its ``directions`` in reduced row echelon form, are
views of that form, computed on first read and kept; ``repr`` shows them.

Composition, powers, inverses, commutation, orientation signs, minsets,
intersections, containment and projections run on the integer forms and
set their linear systems up over ``int``s for the one fraction-free
elimination, ``snf.echelon``. ``EuclideanIsometry.of`` validates its input
(``AᵀA = d²I``); the isometries derived from validated ones (products,
inverses, powers) are exactly orthogonal and are built without a re-check.

Distances are compared on their squares, and the one place where sums of
square roots must be compared (the isometry subadditivity check) groups
the radicands into square classes, exact within a class, with interval
refinement between classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul

from . import snf
from .homology import (chain_complex, degree_homology, homology, homology_of_complex,
                       induced_map_on_homology, simplicial_chain_map)
from .simplicial import SimplicialComplex, SimplicialMap, nerve_of


class EuclidError(ValueError):
    pass


Vec = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(_frac(x) for x in xs)


def _scaled(m):
    """(int matrix, d) with m = int matrix / d, d the lcm of the denominators
    of the ``int`` or ``Fraction`` entries."""
    d = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def _fracs(xs, d) -> Vec:
    """The vector xs / d of ``int``s xs as ``Fraction``s."""
    if d == 1:
        return tuple(map(Fraction, xs))
    return tuple(Fraction(x, d) for x in xs)


def _mat_vec(m, v) -> list[int]:
    return [sum(map(mul, row, v)) for row in m]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _solve(a, b):
    """Integer form of one solution of a x = b and of a nullspace basis:
    ``(x, den, null)`` with the solution ``x / den`` (``int``s) and the
    ``int`` null vectors ``null``, or None when there is no solution.

    Both are read off the fraction-free echelon form of ``[a | b]``: a pivot
    in the last column means no solution; otherwise the solution is the last
    column over the pivot entries, zero at the free columns, and each free
    column gives one null vector. ``den`` is the lcm of the pivot entries.
    """
    n = len(a[0]) if a else 0
    rows = snf.echelon([list(row) + [bb] for row, bb in zip(a, b)])
    if rows and rows[-1][0] == n:
        return None
    den = lcm(*(row[p] for p, row in rows))
    x = [0] * n
    for p, row in rows:
        x[p] = row[n] * (den // row[p])
    pivots = {p for p, _ in rows}
    null = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = den
            for p, row in rows:
                v[p] = -row[f] * (den // row[p])
            null.append(v)
    return x, den, null


def solve_rational(a, b):
    """One solution of a x = b over Q plus a nullspace basis, or None.

    The solution is zero at the free columns; the null vector of a free
    column is 1 there and zero at the other free columns.
    """
    sol = _solve(a, b)
    if sol is None:
        return None
    x, den, null = sol
    return _fracs(x, den), [_fracs(v, den) for v in null]


def _rref(rows) -> list[Vec]:
    """``snf.echelon`` rows divided by their pivot entries."""
    return [tuple(Fraction(x, row[p]) for x in row) for p, row in rows]


def rational_row_space_basis(rows):
    """Reduced row echelon basis of the span (canonical over Q)."""
    return _rref(snf.echelon(rows))


def _in_span(v: list[int], rows: dict[int, list[int]]) -> bool:
    """Whether the ``int`` vector ``v`` lies in the span of echelon ``rows``."""
    return not any(snf.reduce_by_echelon(rows, v))


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(directions); directions viewed in reduced echelon form.

    The one field is the integer form ``_ints = (base, den, rows)``: the
    base is ``base / den`` over ``int``s in lowest terms, and ``rows`` maps
    each pivot to the primitive ``int`` row that ``snf.echelon`` gives for
    it. The rows' signs are not normalized, so ``==`` and ``hash`` compare
    the subspaces, not the forms, and ``repr`` shows the ``Fraction`` views.
    """

    _ints: tuple

    @staticmethod
    def of(base, directions) -> "AffineSubspace":
        (b,), d = _scaled([vec(base)])
        rows = [vec(r) for r in directions]
        if any(len(r) != len(b) for r in rows):
            raise EuclidError("direction length differs from the base's")
        return AffineSubspace._of_ints(b, d, snf.echelon(rows))

    @staticmethod
    def _of_ints(base: list[int], den: int, rows) -> "AffineSubspace":
        """The subspace base / den + span(rows), from ``int``s: ``rows`` are
        the ``(pivot, row)`` pairs of ``snf.echelon``."""
        g = gcd(den, *base)
        if g > 1:
            base, den = [x // g for x in base], den // g
        return AffineSubspace((base, den, dict(rows)))

    @staticmethod
    def full(dim: int) -> "AffineSubspace":
        return AffineSubspace._of_ints([0] * dim, 1, list(enumerate(snf.identity_matrix(dim))))

    @cached_property
    def base(self) -> Vec:
        return _fracs(*self._ints[:2])

    @cached_property
    def directions(self) -> tuple[Vec, ...]:
        return tuple(_rref(self._ints[2].items()))

    def __repr__(self):
        return f"AffineSubspace(base={self.base!r}, directions={self.directions!r})"

    @property
    def dim(self) -> int:
        return len(self._ints[2])

    @property
    def ambient_dim(self) -> int:
        return len(self._ints[0])

    def _offsets(self, x: list[int], dx: int):
        """(x / dx - base) as ``(ints, den)``."""
        base, den, _ = self._ints
        return [u * den - v * dx for u, v in zip(x, base)], den * dx

    def _has_point(self, x: list[int], dx: int) -> bool:
        """Whether the point x / dx (``int``s) lies in the subspace."""
        return _in_span(self._offsets(x, dx)[0], self._ints[2])

    def _has_direction(self, v) -> bool:
        (ints,), _ = _scaled([v])
        return _in_span(ints, self._ints[2])

    def contains(self, other: "AffineSubspace") -> bool:
        base, den, rows = other._ints
        mine = self._ints[2]
        return self._has_point(base, den) and all(_in_span(r, mine) for r in rows.values())

    def __eq__(self, other):
        return (
            isinstance(other, AffineSubspace)
            and self.dim == other.dim
            and self.contains(other)
            and other.contains(self)
        )

    def __hash__(self):
        return hash((self.dim, self.ambient_dim))

    def _project(self, vectors):
        """Orthogonal projections of ``int`` vectors onto the direction
        space, as ``(images, den)`` with each projection ``image / den``.

        The Gram system ``R Rᵀ c = R v`` of the direction rows ``R`` is
        eliminated once for every right-hand side; it is nonsingular, so
        each echelon row has one pivot among the first ``k`` columns and the
        coefficients are the right-hand columns over the pivot entries.
        """
        rows = list(self._ints[2].values())
        k = len(rows)
        gram = [[sum(map(mul, r, s)) for s in rows] + [sum(map(mul, r, v)) for v in vectors]
                for r in rows]
        ech = snf.echelon(gram)
        den = lcm(*(row[p] for p, row in ech))
        coeffs = [[c * (den // row[p]) for c in row[k:]] for p, row in ech]
        images = [[sum(c[j] * r[i] for c, r in zip(coeffs, rows)) for i in range(len(v))]
                  for j, v in enumerate(vectors)]
        return images, den

    def project_subspace(self, other: "AffineSubspace") -> "AffineSubspace":
        """Image of another affine subspace under the orthogonal projection."""
        if not self._ints[2]:
            return self
        obase, oden, orows = other._ints
        diff, dd = self._offsets(obase, oden)
        (img, *dirs), den = self._project([diff, *orows.values()])
        base = self._ints[0]
        return AffineSubspace._of_ints(
            [u * oden * den + v for u, v in zip(base, img)], dd * den, snf.echelon(dirs))

    def intersect(self, other: "AffineSubspace"):
        """Intersection subspace, or None when empty.

        Solves ``Σ x_i r_i - Σ y_j s_j = other.base - self.base`` over the
        direction rows ``r`` of ``self`` and ``s`` of ``other``.
        """
        base, den, rows = self._ints
        obase, oden, orows = other._ints
        mine, theirs = list(rows.values()), list(orows.values())
        a = [[r[i] for r in mine] + [-s[i] for s in theirs] for i in range(len(base))]
        sol = _solve(a, [u * den - v * oden for u, v in zip(obase, base)])
        if sol is None:
            return None
        x, xden, null = sol
        k = len(mine)
        dirs = [[sum(z[j] * r[i] for j, r in enumerate(mine)) for i in range(len(base))]
                for z in null] if k else []
        point = [u * oden * xden + sum(c * r[i] for c, r in zip(x, mine))
                 for i, u in enumerate(base)]
        return AffineSubspace._of_ints(point, den * oden * xden, snf.echelon(dirs))


def intersect_all_subspaces(spaces):
    out = spaces[0]
    for s in spaces[1:]:
        out = out.intersect(s)
        if out is None:
            return None
    return out


def _reduced(m, b, d):
    """The integer form (m, b, d) over its least common denominator."""
    g = gcd(d, *b, *(x for row in m for x in row))
    if g == 1:
        return m, b, d
    return [[x // g for x in row] for row in m], [x // g for x in b], d // g


def _compose(f, g):
    """Integer form of f after g, both integer forms."""
    m1, b1, d1 = f
    m2, b2, d2 = g
    return _reduced(snf.mat_mul(m1, m2),
                    [x + d2 * y for x, y in zip(_mat_vec(m1, b2), b1)], d1 * d2)


@dataclass(frozen=True)
class EuclideanIsometry:
    """x -> A x + b with A exactly orthogonal and rational.

    The one field is the integer form ``_ints = (A, b, d)``, tuples over
    ``int``s with ``a = A/d`` and ``b = b/d``; ``a`` and ``b`` are the
    ``Fraction`` views, and ``repr`` shows them. The form is canonical:
    every builder leaves ``d > 0`` and ``gcd(d, entries) = 1`` (``_scaled``
    takes the lcm of the denominators, ``_reduced`` divides by the gcd), so
    two isometries are equal exactly when their forms are, and the
    dataclass ``==`` and ``hash`` on ``_ints`` agree with equality of
    ``a`` and ``b``.

    ``of`` is the validating constructor and checks ``AᵀA = I``. ``compose``,
    ``power``, ``identity`` and ``translation`` trust their inputs: a
    product or transpose of orthogonal matrices is orthogonal.
    """

    _ints: tuple

    @staticmethod
    def of(a, b) -> "EuclideanIsometry":
        am = [vec(row) for row in a]
        bv = vec(b)
        n = len(bv)
        if len(am) != n or any(len(r) != n for r in am):
            raise EuclidError("shape mismatch")
        (*m, bi), d = _scaled(am + [bv])
        if snf.mat_mul(_transpose(m), m) != [[d * d * x for x in row]
                                              for row in snf.identity_matrix(n)]:
            raise EuclidError("linear part is not orthogonal")
        return EuclideanIsometry._trusted(m, bi, d)

    @staticmethod
    def _trusted(m, b, d) -> "EuclideanIsometry":
        """Build from an integer form over its least common denominator whose
        linear part is known to be orthogonal, without the check."""
        return EuclideanIsometry((tuple(map(tuple, m)), tuple(b), d))

    @staticmethod
    def translation(v) -> "EuclideanIsometry":
        (b,), d = _scaled([vec(v)])
        m = [[d * x for x in row] for row in snf.identity_matrix(len(b))]
        return EuclideanIsometry._trusted(m, b, d)

    @staticmethod
    def identity(dim: int) -> "EuclideanIsometry":
        return EuclideanIsometry._trusted(snf.identity_matrix(dim), [0] * dim, 1)

    @cached_property
    def a(self) -> tuple[Vec, ...]:
        m, _, d = self._ints
        return tuple(_fracs(row, d) for row in m)

    @cached_property
    def b(self) -> Vec:
        _, b, d = self._ints
        return _fracs(b, d)

    def __repr__(self):
        return f"EuclideanIsometry(a={self.a!r}, b={self.b!r})"

    @property
    def dim(self) -> int:
        return len(self._ints[1])

    def _moved(self, x: list[int], dx: int) -> list[int]:
        """The image of the point x / dx (``int``s), over ``d * dx``."""
        m, b, d = self._ints
        return [y + dx * c for y, c in zip(_mat_vec(m, x), b)]

    def _step(self, x: list[int], dx: int) -> list[int]:
        """The displacement of the point x / dx (``int``s), over ``d * dx``."""
        d = self._ints[2]
        return [y - d * z for y, z in zip(self._moved(x, dx), x)]

    def _same_dim(self, other: "EuclideanIsometry"):
        if self.dim != other.dim:
            raise EuclidError(f"isometries of dimensions {self.dim} and {other.dim}")

    def compose(self, other: "EuclideanIsometry") -> "EuclideanIsometry":
        """self after other."""
        self._same_dim(other)
        return EuclideanIsometry._trusted(*_compose(self._ints, other._ints))

    def _inverse_ints(self):
        m, b, d = self._ints
        mt = _transpose(m)
        return _reduced([[d * x for x in row] for row in mt], [-x for x in _mat_vec(mt, b)], d * d)

    def power(self, k: int) -> "EuclideanIsometry":
        """Square-and-multiply on integer forms; no squaring after the top
        bit."""
        if k == 0:
            return EuclideanIsometry.identity(self.dim)
        if k == 1:
            return self
        out, base = None, self._ints if k > 0 else self._inverse_ints()
        k = abs(k)
        while True:
            if k & 1:
                out = base if out is None else _compose(out, base)
            k >>= 1
            if not k:
                return EuclideanIsometry._trusted(*out)
            base = _compose(base, base)

    def commutes_with(self, other: "EuclideanIsometry") -> bool:
        """Compares the integer forms of both products, ``(A1 A2, A1 b2 +
        d2 b1)`` and ``(A2 A1, A2 b1 + d1 b2)``, both over ``d1 d2``."""
        self._same_dim(other)
        return _compose(self._ints, other._ints) == _compose(other._ints, self._ints)

    def displacement_sq(self, x) -> Fraction:
        (xs,), dx = _scaled([vec(x)])
        v = self._step(xs, dx)
        return Fraction(sum(map(mul, v, v)), (self._ints[2] * dx) ** 2)

    def det(self) -> int:
        """The orientation sign ±1 of the linear part a = A/d.

        An orthogonal matrix is diagonalizable over C with eigenvalues of
        modulus 1; its non-real eigenvalues pair off with their conjugates,
        each pair with product 1, and its real eigenvalues are ±1.  So
        det a = (-1)^dim ker(a + I), and ker(a + I) = ker(A + dI), whose
        dimension is n minus the rank that ``snf.rational_rank`` gives."""
        m, _, d = self._ints
        shifted = [[x + d * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
        return (-1) ** (len(m) - snf.rational_rank(shifted))

    def _maps_into(self, sub: AffineSubspace) -> bool:
        """Whether the isometry maps ``sub`` into itself (onto it, since an
        isometry keeps the dimension)."""
        base, den, rows = sub._ints
        m = self._ints[0]
        return (sub._has_point(self._moved(base, den), self._ints[2] * den)
                and all(_in_span(_mat_vec(m, r), rows) for r in rows.values()))


@dataclass(frozen=True)
class MinsetSubspace:
    """Affine locus where the displacement attains its minimum."""

    subspace: AffineSubspace
    min_displacement_sq: Fraction
    translation: Vec  # how the isometry translates its own minset


def minset(phi: EuclideanIsometry) -> MinsetSubspace:
    """Exact least-squares locus of |(A - I)x + b|.

    With ``a = A/d`` and ``b = b/d`` the normal equations are
    ``MᵀM x = -Mᵀ b`` for ``M = A - dI``: the factor ``d²`` cancels, so they
    are set up and solved over ``int``s.
    """
    m, b, d = phi._ints
    mm = [[x - d if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    mt = _transpose(mm)
    sol = _solve(snf.mat_mul(mt, mm), [-x for x in _mat_vec(mt, b)])
    if sol is None:
        raise EuclidError("normal equations unsolvable (impossible for rational data)")
    x0, den, null = sol
    sub = AffineSubspace._of_ints(x0, den, snf.echelon(null))
    v = phi._step(x0, den)
    dv = d * den
    return MinsetSubspace(subspace=sub, min_displacement_sq=Fraction(sum(map(mul, v, v)), dv * dv),
                          translation=_fracs(v, dv))


def check_commuting(gens: list[EuclideanIsometry]):
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if not g.commutes_with(h):
                raise EuclidError("generators do not commute")


def minset_of_group(gens: list[EuclideanIsometry], dim: int | None = None) -> AffineSubspace:
    """Intersection of the generator minsets (equals the group minset for
    commuting isometries)."""
    if not gens:
        if dim is None:
            raise EuclidError("dimension needed for the trivial group")
        return AffineSubspace.full(dim)
    check_commuting(gens)
    spaces = [minset(g).subspace for g in gens]
    out = intersect_all_subspaces(spaces)
    if out is None:
        raise EuclidError("commuting generators with empty joint minset")
    return out


def translation_lattice_on(sub: AffineSubspace, gens: list[EuclideanIsometry]):
    """Translation vectors of the generators on an invariant subspace ⊆ the
    common minset; returns (rank, echelon basis of the Q-span)."""
    base, den, rows = sub._ints
    vs = []
    for g in gens:
        v = g._step(base, den)
        if not _in_span(v, rows):
            raise EuclidError("translation vector leaves the subspace")
        vs.append(v)
    basis = rational_row_space_basis(vs)
    return len(basis), basis


@dataclass(frozen=True)
class SplittingReport:
    ok: bool
    rank: int
    checks: dict
    min_a: AffineSubspace
    intersection: AffineSubspace | None


def splitting_check(a_gens, b_gens) -> SplittingReport:
    """Verify Min(A) = C x R^r with B acting compatibly: B preserves Min(A),
    Min(A) ∩ Min(B) carries the same R^r factor, and the projection of
    Min(B) to Min(A) equals the intersection."""
    check_commuting(list(a_gens) + list(b_gens))
    min_a = minset_of_group(list(a_gens)) if a_gens else None
    if min_a is None:
        raise EuclidError("empty A")
    r, t_basis = translation_lattice_on(min_a, list(a_gens))

    checks = {}
    checks["b_preserves_min_a"] = all(h._maps_into(min_a) for h in b_gens)

    dim = min_a.ambient_dim
    min_b = minset_of_group(list(b_gens), dim=dim)
    inter = min_a.intersect(min_b)
    checks["intersection_nonempty"] = inter is not None
    if inter is not None:
        checks["same_euclidean_factor"] = all(inter._has_direction(t) for t in t_basis)
        proj = min_a.project_subspace(min_b)
        checks["projection_equals_intersection"] = proj == inter
    ok = all(checks.values())
    return SplittingReport(ok=ok, rank=r, checks=checks, min_a=min_a, intersection=inter)


# ---------------------------------------------------------------------------
# arrangements and the enlargement ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arrangement:
    """Commuting-where-intersecting abelian isometry groups with a power
    ladder base; ``pieces`` lists the index sets whose minset intersections
    make up the modeled union.

    Each ladder level ``(i, k)`` is computed once per instance: its
    generators ``g^(base^k)`` and, when asked for, their minset. The memo is
    not part of ``==``, ``hash`` or ``repr``, and ``dataclasses.replace``
    starts a new one.
    """

    dim: int
    base: int
    groups: tuple[tuple[EuclideanIsometry, ...], ...]
    pieces: tuple[tuple[int, ...], ...] = ()
    _levels: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.base < 1:
            raise EuclidError("ladder base must be >= 1")
        if any(g.dim != self.dim for gens in self.groups for g in gens):
            raise EuclidError(f"a generator's dimension differs from {self.dim}")
        mins = [minset_of_group(list(g), dim=self.dim) for g in self.groups]
        for i, (gens, sub) in enumerate(zip(self.groups, mins)):
            self._levels[(i, 0)] = (tuple(gens), sub)
        for i in range(len(self.groups)):
            for j in range(i + 1, len(self.groups)):
                if mins[i].intersect(mins[j]) is not None:
                    for g in self.groups[i]:
                        for h in self.groups[j]:
                            if not g.commutes_with(h):
                                raise EuclidError(
                                    f"groups {i} and {j} intersect but do not commute")

    def effective_pieces(self):
        return self.pieces if self.pieces else tuple((i,) for i in range(len(self.groups)))

    def _level(self, i: int, k: int):
        """Memo entry (generators, minset or None) of level k of group i."""
        entry = self._levels.get((i, k))
        if entry is None:
            e = self.base ** k
            entry = self._levels[(i, k)] = (tuple(g.power(e) for g in self.groups[i]), None)
        return entry

    def level_generators(self, i: int, k: int):
        return list(self._level(i, k)[0])

    def level_minset(self, i: int, k: int) -> AffineSubspace:
        gens, sub = self._level(i, k)
        if sub is None:
            sub = minset_of_group(list(gens), dim=self.dim)
            self._levels[(i, k)] = (gens, sub)
        return sub


def nerve_of_subspaces(spaces: list[AffineSubspace]) -> SimplicialComplex:
    """Nerve of affine subspaces; intersections decided by exact feasibility."""
    return SimplicialComplex(frozenset(
        alpha for alpha, _ in nerve_of(dict(enumerate(spaces)), AffineSubspace.intersect)))


@dataclass(frozen=True)
class VanishingVerdict:
    ok: bool
    detail: dict
    hypothesis_violations: tuple[str, ...] = ()


def sigma_group_rank(arr: Arrangement, sigma) -> int:
    """Rank of the translations of the piece's level-1 generators on their
    joint minset.

    The generators of the whole piece must commute. Their joint minset is
    the intersection of the memoized level minsets of the piece's groups;
    its base point depends on the order of intersection, but the
    translation vector of each generator is the same at every point of it.
    """
    gens = [g for i in sigma for g in arr.level_generators(i, 1)]
    check_commuting(gens)
    sub = intersect_all_subspaces([arr.level_minset(i, 1) for i in sigma])
    if sub is None:
        raise EuclidError("commuting generators with empty joint minset")
    rank, _ = translation_lattice_on(sub, gens)
    return rank


def semisimple_vanish_check(arr: Arrangement, common_gens, k: int, n: int) -> VanishingVerdict:
    """Nerve homology of the level-k sub-arrangement grouped by a common
    rank-r group vanishes in degrees >= n-1-r, and each piece projects onto
    the common minset compatibly with its Euclidean factor."""
    violations = []
    for gens in arr.groups:
        for g in gens:
            if g.det() != 1:
                violations.append("orientation-reversing generator")
    common = [g for g in common_gens]
    min_n = minset_of_group(common, dim=arr.dim)
    r, t_basis = translation_lattice_on(min_n, common)

    pieces = arr.effective_pieces()
    spaces = []
    for sigma in pieces:
        sub = intersect_all_subspaces([arr.level_minset(i, k) for i in sigma])
        if sub is not None:
            spaces.append(sub)
        rank_sigma = sigma_group_rank(arr, sigma)
        if rank_sigma != r:
            violations.append(f"piece {sigma} has level-1 rank {rank_sigma} != {r}")
    nerve_cx = nerve_of_subspaces(spaces)
    summary = homology_of_complex(nerve_cx)
    vanish = summary.is_trivial_at_or_above(n - 1 - r)

    factorization_ok = True
    for sub in spaces:
        inter = min_n.intersect(sub)
        proj = min_n.project_subspace(sub)
        if inter is None or proj != inter:
            factorization_ok = False
        elif not all(inter._has_direction(t) for t in t_basis):
            factorization_ok = False

    ok = vanish and factorization_ok and not violations
    return VanishingVerdict(
        ok=ok,
        detail={
            "rank": r,
            "threshold_degree": n - 1 - r,
            "nerve_homology": summary.as_json(),
            "vanishing": vanish,
            "projected_factorization": factorization_ok,
        },
        hypothesis_violations=tuple(violations),
    )


def almost_abelian_vanishing_check(arr: Arrangement, n: int, r: int) -> VanishingVerdict:
    """The level inclusion M -> M^K with K = 2^(n-2-r) kills homology in
    degrees >= n-1-r, given every piece group has level-1 rank >= r.

    The nerve inclusion's chain map is the simplicial map's between the
    two nerves' chain complexes (``simplicial_chain_map``); the nerves'
    homology is read off both, except on graphs (union-find).
    """
    if n - 2 - r < 0:
        raise EuclidError("need r <= n-2")
    violations = []
    pieces = arr.effective_pieces()
    kept, spaces0 = [], []
    for sigma in pieces:
        sub = intersect_all_subspaces([arr.level_minset(i, 0) for i in sigma])
        if sub is None:
            continue
        kept.append(sigma)
        spaces0.append(sub)
        rank_sigma = sigma_group_rank(arr, sigma)
        if rank_sigma < r:
            violations.append(f"piece {sigma} has level-1 rank {rank_sigma} < {r}")
    if violations:
        return VanishingVerdict(ok=False, detail={}, hypothesis_violations=tuple(violations))

    big_k = 2 ** (n - 2 - r)
    spaces_k = [
        intersect_all_subspaces([arr.level_minset(i, big_k) for i in sigma]) for sigma in kept
    ]
    if any(s is None for s in spaces_k):
        raise EuclidError("a piece vanished while enlarging, nesting violated")
    n0 = nerve_of_subspaces(spaces0)
    nk = nerve_of_subspaces(spaces_k)
    if not n0 <= nk:
        raise EuclidError("level-K nerve does not contain the level-0 nerve")
    cc_0, cc_k = chain_complex(n0), chain_complex(nk)
    incl = simplicial_chain_map(SimplicialMap(n0, nk, {v: v for v in n0.vertices}), cc_0, cc_k)

    top = max(n0.dimension, 0)
    maps = {}
    all_zero = True
    for d in range(max(n - 1 - r, 0), top + 1):
        m = induced_map_on_homology(incl, degree_homology(cc_0, d), degree_homology(cc_k, d))
        maps[d] = {
            "is_zero": m.is_zero,
            "source": [o for o in m.source_orders],
            "target": [o for o in m.target_orders],
        }
        if not m.is_zero:
            all_zero = False
    nerve_homology = [(homology(cc) if c.dimension > 1 else homology_of_complex(c)).as_json()
                      for c, cc in ((n0, cc_0), (nk, cc_k))]
    return VanishingVerdict(
        ok=all_zero,
        detail={
            "level": big_k,
            "threshold_degree": n - 1 - r,
            "induced_maps": maps,
            "nerve_homology_level0": nerve_homology[0],
            "nerve_homology_levelK": nerve_homology[1],
        },
    )


# ---------------------------------------------------------------------------
# exact comparison of sums of square roots (isometry subadditivity)
# ---------------------------------------------------------------------------


def _rational_sqrt(q: Fraction):
    """sqrt(q) for q >= 0 when it is rational, else None.

    In lowest terms n/d is a square exactly when n*d is, and then
    sqrt(n/d) = sqrt(n*d)/d.
    """
    m = q.numerator * q.denominator
    root = isqrt(m)
    return Fraction(root, q.denominator) if root * root == m else None


def _sqrt_bounds(q: Fraction, prec: int):
    """Rational lower/upper bounds of sqrt(q) with gap <= 2^-prec."""
    n, d = q.numerator, q.denominator
    scale = 1 << prec
    lo = isqrt(n * d * scale * scale)
    low = Fraction(lo, d * scale)
    high = Fraction(lo + 1, d * scale)
    return low, high


def sqrt_leq_sum_of_sqrts(a: Fraction, bs: list[Fraction]) -> bool:
    """Decide sqrt(a) <= sum sqrt(b_i) exactly."""
    a = _frac(a)
    bs = [_frac(b) for b in bs]
    if a < 0 or any(b < 0 for b in bs):
        raise EuclidError("negative radicand")
    bs = [b for b in bs if b]
    if a == 0:
        return True
    if not bs:
        return False
    # Group the radicands into square classes: b joins the class of its
    # representative r when b*r is a rational square, and then
    # sqrt(b) = (sqrt(b*r)/r) * sqrt(r) exactly.
    combined: dict[Fraction, Fraction] = {}
    for b in bs:
        for r in combined:
            root = _rational_sqrt(b * r)
            if root is not None:
                combined[r] += root / r
                break
        else:
            combined[b] = Fraction(1)
    if len(combined) == 1:
        # both sides single radicals: compare squares
        (r, c), = combined.items()
        return a <= c * c * r
    # Square roots of distinct squarefree integers are linearly independent
    # over Q (Besicovitch), so with two or more classes the sides differ and
    # interval bounds separate them.
    for prec in (16, 32, 64, 128, 256, 512, 1024):
        lo_a, hi_a = _sqrt_bounds(a, prec)
        lo_sum = sum(_sqrt_bounds(b, prec)[0] for b in bs)
        hi_sum = sum(_sqrt_bounds(b, prec)[1] for b in bs)
        if hi_a <= lo_sum:
            return True
        if lo_a > hi_sum:
            return False
    raise EuclidError("radical comparison did not separate (unexpectedly deep tie)")


@dataclass(frozen=True)
class SubadditivityVerdict:
    ok: bool
    lhs_sq: Fraction
    rhs_terms_sq: tuple[Fraction, ...]


def subadditivity_check(isometries: list[EuclideanIsometry], point) -> SubadditivityVerdict:
    """d(g_1...g_r x, x) <= sum_i d(g_i x, x), compared exactly."""
    x = vec(point)
    prod = None
    for g in isometries:
        prod = g if prod is None else prod.compose(g)
    if prod is None:
        raise EuclidError("empty isometry list")
    lhs = prod.displacement_sq(x)
    terms = tuple(g.displacement_sq(x) for g in isometries)
    ok = sqrt_leq_sum_of_sqrts(lhs, list(terms))
    return SubadditivityVerdict(ok=ok, lhs_sq=lhs, rhs_terms_sq=terms)


# ---------------------------------------------------------------------------
# stock rational rotations
# ---------------------------------------------------------------------------


def pythagorean_rotation(m: int, k: int):
    """2x2 rational rotation with cos = (m^2-k^2)/(m^2+k^2), sin = 2mk/(m^2+k^2)."""
    den = m * m + k * k
    c = Fraction(m * m - k * k, den)
    s = Fraction(2 * m * k, den)
    return [[c, -s], [s, c]]


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[pos + i][pos + j] = _frac(v)
        pos += len(b)
    return out
