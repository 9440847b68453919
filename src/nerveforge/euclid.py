"""Exact rational Euclidean isometries, minsets and arrangements.

All geometry is affine-subspace arithmetic over Fractions; comparisons of
distances are made on squares, and the one place where sums of square roots
must be compared (the isometry subadditivity check) groups the radicands
into square classes, exact within a class, with interval refinement between
classes.

Matrix products are taken over integers: ``mat_mul`` scales each operand to
an ``int`` matrix over one common denominator. ``EuclideanIsometry.of``
validates its input; the isometries derived from validated ones (products,
inverses, powers) are exactly orthogonal and are built without a re-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm

from . import snf
from .homology import homology_of_complex, induced_homology_map
from .simplicial import SimplicialComplex, SimplicialMap, nerve_of


class EuclidError(ValueError):
    pass


Vec = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(_frac(x) for x in xs)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vscale(c, a: Vec) -> Vec:
    c = _frac(c)
    return tuple(c * x for x in a)


def norm_sq(a: Vec) -> Fraction:
    return vdot(a, a)


def mat_apply(m, x: Vec) -> Vec:
    return tuple(vdot(vec(row), x) for row in m)


def _scaled(m):
    """(int matrix, d) with m = int matrix / d, d the lcm of the denominators."""
    d = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def mat_mul(a, b):
    """Exact product of int or Fraction matrices, taken over integers."""
    ia, da = _scaled(a)
    ib, db = _scaled(b)
    d = da * db
    return [[Fraction(v, d) for v in row] for row in snf.mat_mul(ia, ib)]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def identity_mat(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def solve_rational(a, b):
    """One solution of a x = b over Q plus a nullspace basis, or None.

    Both are read off the echelon form of ``[a | b]``: a pivot in the last
    column means no solution; otherwise ``x`` is the last column at the
    pivots, and each free column gives one null vector.
    """
    n = len(a[0]) if a else 0
    rows = snf.echelon([list(row) + [bb] for row, bb in zip(a, b)])
    if rows and rows[-1][0] == n:
        return None
    x = [Fraction(0)] * n
    for p, row in rows:
        x[p] = Fraction(row[n], row[p])
    pivots = {p for p, _ in rows}
    null = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for p, row in rows:
                v[p] = Fraction(-row[f], row[p])
            null.append(tuple(v))
    return tuple(x), null


def rational_row_space_basis(rows):
    """Reduced row echelon basis of the span (canonical over Q)."""
    return [tuple(Fraction(x, row[p]) for x in row) for p, row in snf.echelon(rows)]


def in_row_space(v, basis) -> bool:
    """Whether ``v`` lies in the span of ``basis``, which must be in reduced
    row echelon form, as ``AffineSubspace.directions`` are.

    Subtracting ``v[p]·row`` for each row's pivot ``p`` leaves ``v`` zero at
    every pivot; what is left is zero exactly when ``v`` is in the span.
    """
    for row in basis:
        c = v[next(j for j, x in enumerate(row) if x)]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return not any(v)


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(directions); directions kept in reduced echelon form."""

    base: Vec
    directions: tuple[Vec, ...]

    @staticmethod
    def of(base, directions) -> "AffineSubspace":
        b = vec(base)
        dirs = tuple(rational_row_space_basis([vec(d) for d in directions]))
        return AffineSubspace(b, dirs)

    @staticmethod
    def full(dim: int) -> "AffineSubspace":
        return AffineSubspace.of([0] * dim, identity_mat(dim))

    @staticmethod
    def point(p) -> "AffineSubspace":
        return AffineSubspace.of(p, [])

    @property
    def dim(self) -> int:
        return len(self.directions)

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    def contains_point(self, p) -> bool:
        return in_row_space(vsub(vec(p), self.base), self.directions)

    def contains(self, other: "AffineSubspace") -> bool:
        if not self.contains_point(other.base):
            return False
        return all(in_row_space(d, self.directions) for d in other.directions)

    def __eq__(self, other):
        return (
            isinstance(other, AffineSubspace)
            and self.dim == other.dim
            and self.contains(other)
            and other.contains(self)
        )

    def __hash__(self):
        return hash((self.dim, self.ambient_dim))

    def translate(self, v) -> "AffineSubspace":
        return AffineSubspace(vadd(self.base, vec(v)), self.directions)

    def project_point(self, x) -> Vec:
        """Orthogonal (closest point) projection of x onto the subspace."""
        x = vec(x)
        if not self.directions:
            return self.base
        diff = vsub(x, self.base)
        gram = [[vdot(d, e) for e in self.directions] for d in self.directions]
        rhs = [vdot(d, diff) for d in self.directions]
        sol = solve_rational(gram, rhs)
        coeffs = sol[0]
        out = self.base
        for c, d in zip(coeffs, self.directions):
            out = vadd(out, vscale(c, d))
        return out

    def project_subspace(self, other: "AffineSubspace") -> "AffineSubspace":
        """Image of another affine subspace under the orthogonal projection."""
        base = self.project_point(other.base)
        imgs = []
        for d in other.directions:
            img = vsub(self.project_point(vadd(other.base, d)), base)
            imgs.append(img)
        return AffineSubspace.of(base, imgs)

    def intersect(self, other: "AffineSubspace"):
        """Intersection subspace, or None when empty."""
        n = self.ambient_dim
        cols = len(self.directions) + len(other.directions)
        a = [[Fraction(0)] * cols for _ in range(n)]
        for j, d in enumerate(self.directions):
            for i in range(n):
                a[i][j] = d[i]
        for j, d in enumerate(other.directions):
            for i in range(n):
                a[i][len(self.directions) + j] = -d[i]
        b = vsub(other.base, self.base)
        sol = solve_rational(a, list(b))
        if sol is None:
            return None
        k = len(self.directions)
        base = self.base
        for c, d in zip(sol[0][:k], self.directions):
            base = vadd(base, vscale(c, d))
        dirs = mat_mul([z[:k] for z in sol[1]], self.directions) if k else []
        return AffineSubspace.of(base, dirs)


def intersect_all_subspaces(spaces):
    out = spaces[0]
    for s in spaces[1:]:
        out = out.intersect(s)
        if out is None:
            return None
    return out


@dataclass(frozen=True)
class EuclideanIsometry:
    """x -> A x + b with A exactly orthogonal and rational.

    ``of`` is the validating constructor and checks ``AᵀA = I``. ``compose``,
    ``inverse``, ``power``, ``identity`` and ``translation`` trust their
    inputs: a product or transpose of orthogonal matrices is orthogonal.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: Vec

    @staticmethod
    def of(a, b) -> "EuclideanIsometry":
        am = tuple(tuple(_frac(x) for x in row) for row in a)
        bv = vec(b)
        n = len(bv)
        if len(am) != n or any(len(r) != n for r in am):
            raise EuclidError("shape mismatch")
        if mat_mul(mat_transpose(am), am) != identity_mat(n):
            raise EuclidError("linear part is not orthogonal")
        return EuclideanIsometry(am, bv)

    @staticmethod
    def _trusted(a, b) -> "EuclideanIsometry":
        """Build from a linear part known to be orthogonal, without the check."""
        return EuclideanIsometry(tuple(map(tuple, a)), tuple(b))

    @staticmethod
    def translation(v) -> "EuclideanIsometry":
        v = vec(v)
        return EuclideanIsometry._trusted(identity_mat(len(v)), v)

    @staticmethod
    def identity(dim: int) -> "EuclideanIsometry":
        return EuclideanIsometry._trusted(identity_mat(dim), (Fraction(0),) * dim)

    @property
    def dim(self) -> int:
        return len(self.b)

    def apply(self, x) -> Vec:
        return vadd(mat_apply(self.a, vec(x)), self.b)

    def compose(self, other: "EuclideanIsometry") -> "EuclideanIsometry":
        """self after other."""
        a = mat_mul(self.a, other.a)
        b = vadd(mat_apply(self.a, other.b), self.b)
        return EuclideanIsometry._trusted(a, b)

    def inverse(self) -> "EuclideanIsometry":
        at = mat_transpose(self.a)
        return EuclideanIsometry._trusted(at, vscale(-1, mat_apply(at, self.b)))

    def power(self, k: int) -> "EuclideanIsometry":
        """Square-and-multiply from ``self``; no squaring after the top bit."""
        if k < 0:
            return self.inverse().power(-k)
        if k == 0:
            return EuclideanIsometry.identity(self.dim)
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out.compose(base)
            k >>= 1
            if not k:
                return out
            base = base.compose(base)

    def commutes_with(self, other: "EuclideanIsometry") -> bool:
        return self.compose(other) == other.compose(self)

    def displacement_sq(self, x) -> Fraction:
        return norm_sq(vsub(self.apply(x), vec(x)))

    def det(self) -> Fraction:
        m, d = _scaled(self.a)
        return Fraction(snf.determinant(m), d ** len(m))


@dataclass(frozen=True)
class MinsetSubspace:
    """Affine locus where the displacement attains its minimum."""

    subspace: AffineSubspace
    min_displacement_sq: Fraction
    translation: Vec  # how the isometry translates its own minset

    @property
    def dim(self):
        return self.subspace.dim


def minset(phi: EuclideanIsometry) -> MinsetSubspace:
    """Exact least-squares locus of |(A - I)x + b|."""
    n = phi.dim
    m = [[phi.a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    mt = mat_transpose(m)
    mtm = mat_mul(mt, m)
    rhs = [-v for v in mat_apply(mt, phi.b)]
    sol = solve_rational(mtm, rhs)
    if sol is None:
        raise EuclidError("normal equations unsolvable (impossible for rational data)")
    x0, null = sol
    sub = AffineSubspace.of(x0, null)
    v = vsub(phi.apply(x0), vec(x0))
    return MinsetSubspace(subspace=sub, min_displacement_sq=norm_sq(v), translation=v)


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
    vs = []
    for g in gens:
        v = vsub(g.apply(sub.base), sub.base)
        if not in_row_space(v, sub.directions):
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
    preserved = True
    for h in b_gens:
        img = AffineSubspace.of(
            h.apply(min_a.base), [mat_apply(h.a, d) for d in min_a.directions]
        )
        if img != min_a:
            preserved = False
    checks["b_preserves_min_a"] = preserved

    dim = len(min_a.base)
    min_b = minset_of_group(list(b_gens), dim=dim)
    inter = min_a.intersect(min_b)
    checks["intersection_nonempty"] = inter is not None
    if inter is not None:
        checks["same_euclidean_factor"] = all(
            in_row_space(t, inter.directions) for t in t_basis
        )
        proj = min_a.project_subspace(min_b)
        checks["projection_equals_intersection"] = proj == inter
    ok = all(checks.values())
    return SplittingReport(ok=ok, rank=r, checks=checks, min_a=min_a, intersection=inter)


def closest_point_projection(c: AffineSubspace, x) -> Vec:
    return c.project_point(x)


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


def ladder(arr: Arrangement, k_max: int):
    """Per-level minsets and nerves with the nesting checks.

    Returns dict with minsets[level][i], nerves[level], inclusion maps
    between consecutive nerves, and a nesting verdict.
    """
    minsets = []
    for k in range(k_max + 1):
        minsets.append([arr.level_minset(i, k) for i in range(len(arr.groups))])
    nesting_ok = True
    for k in range(1, k_max + 1):
        for i in range(len(arr.groups)):
            if not minsets[k][i].contains(minsets[k - 1][i]):
                nesting_ok = False
    nerves = [nerve_of_subspaces(minsets[k]) for k in range(k_max + 1)]
    inclusions = []
    inclusion_ok = True
    for k in range(1, k_max + 1):
        if nerves[k].contains_complex(nerves[k - 1]):
            inclusions.append(SimplicialMap.inclusion(nerves[k - 1], nerves[k]))
        else:
            inclusion_ok = False
            inclusions.append(None)
    return {
        "minsets": minsets,
        "nerves": nerves,
        "inclusions": inclusions,
        "nesting_ok": nesting_ok,
        "nerve_inclusion_ok": inclusion_ok,
    }


def nerve_of_subspaces(spaces: list[AffineSubspace]) -> SimplicialComplex:
    """Nerve of affine subspaces; intersections decided by exact feasibility."""
    return SimplicialComplex(frozenset(
        alpha for alpha, _ in nerve_of(dict(enumerate(spaces)), AffineSubspace.intersect)))


@dataclass(frozen=True)
class VanishingVerdict:
    ok: bool
    detail: dict
    hypothesis_violations: tuple[str, ...] = ()


def sigma_group_rank(arr: Arrangement, sigma, level: int = 1) -> int:
    gens = [g for i in sigma for g in arr.level_generators(i, level)]
    sub = minset_of_group(gens, dim=arr.dim)
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
        rank_sigma = sigma_group_rank(arr, sigma, level=1)
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
        elif not all(in_row_space(t, inter.directions) for t in t_basis):
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
    degrees >= n-1-r, given every piece group has level-1 rank >= r."""
    if n - 2 - r < 0:
        raise EuclidError("need r <= n-2")
    violations = []
    pieces = arr.effective_pieces()
    kept = []
    for sigma in pieces:
        sub = intersect_all_subspaces([arr.level_minset(i, 0) for i in sigma])
        if sub is None:
            continue
        kept.append(sigma)
        rank_sigma = sigma_group_rank(arr, sigma, level=1)
        if rank_sigma < r:
            violations.append(f"piece {sigma} has level-1 rank {rank_sigma} < {r}")
    if violations:
        return VanishingVerdict(ok=False, detail={}, hypothesis_violations=tuple(violations))

    big_k = 2 ** (n - 2 - r)
    spaces0 = [
        intersect_all_subspaces([arr.level_minset(i, 0) for i in sigma]) for sigma in kept
    ]
    spaces_k = [
        intersect_all_subspaces([arr.level_minset(i, big_k) for i in sigma]) for sigma in kept
    ]
    if any(s is None for s in spaces_k):
        raise EuclidError("a piece vanished while enlarging, nesting violated")
    n0 = nerve_of_subspaces(spaces0)
    nk = nerve_of_subspaces(spaces_k)
    if not nk.contains_complex(n0):
        raise EuclidError("level-K nerve does not contain the level-0 nerve")
    incl = SimplicialMap.inclusion(n0, nk)

    top = max(n0.dimension, 0)
    maps = {}
    all_zero = True
    for d in range(max(n - 1 - r, 0), top + 1):
        m = induced_homology_map(incl, d)
        maps[d] = {
            "is_zero": m.is_zero,
            "source": [o for o in m.source_orders],
            "target": [o for o in m.target_orders],
        }
        if not m.is_zero:
            all_zero = False
    return VanishingVerdict(
        ok=all_zero,
        detail={
            "level": big_k,
            "threshold_degree": n - 1 - r,
            "induced_maps": maps,
            "nerve_homology_level0": homology_of_complex(n0).as_json(),
            "nerve_homology_levelK": homology_of_complex(nk).as_json(),
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
    bs = [_frac(b) for b in bs if _frac(b) != 0]
    if a == 0:
        return True
    if not bs:
        return False
    if a < 0 or any(b < 0 for b in bs):
        raise EuclidError("negative radicand")
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
