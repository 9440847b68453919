"""Upper unitriangular integer matrix groups: words, ranks, central elements.

Supported sizes are 3 and 4, enough for nilpotency classes 2 and 3; the rank
is computed as the dimension of the rational Lie algebra generated by the
logarithms of the generators (a terminating polynomial for unipotent
matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class NilpotentError(ValueError):
    pass


Matrix = tuple[tuple[int, ...], ...]


def identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    k = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k))
        for i in range(k)
    )


def mat_inv_unitriangular(m: Matrix) -> Matrix:
    """Inverse via the terminating Neumann series of the nilpotent part."""
    k = len(m)
    n = tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(k)) for i in range(k))
    out = identity(k)
    power = identity(k)
    sign = 1
    for _ in range(1, k):
        power = mat_mul(power, n)
        sign = -sign
        out = tuple(
            tuple(out[i][j] + sign * power[i][j] for j in range(k)) for i in range(k)
        )
    return out


def is_unitriangular(m, k: int) -> bool:
    for i in range(k):
        for j in range(k):
            v = m[i][j]
            if i == j and v != 1:
                return False
            if i > j and v != 0:
                return False
            if not isinstance(v, int):
                return False
    return True


def elementary(k: int, i: int, j: int, v: int = 1) -> Matrix:
    if not (0 <= i < j < k):
        raise NilpotentError("elementary entry must be strictly upper")
    return tuple(
        tuple(1 if a == b else (v if (a, b) == (i, j) else 0) for b in range(k))
        for a in range(k)
    )


@dataclass(frozen=True)
class UnitriangularGroup:
    size: int
    generators: tuple[Matrix, ...]

    def __post_init__(self):
        if self.size not in (3, 4):
            raise NilpotentError("only sizes 3 and 4 are supported")
        for g in self.generators:
            if not is_unitriangular(g, self.size):
                raise NilpotentError("generator is not unitriangular")

    @property
    def nilpotency_class_bound(self) -> int:
        return self.size - 1

    def is_trivial(self) -> bool:
        ident = identity(self.size)
        return all(g == ident for g in self.generators)


@dataclass(frozen=True)
class GroupWord:
    """Word in the generators: (generator index, ±1) letters."""

    group: UnitriangularGroup
    letters: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.letters)

    def evaluate(self) -> Matrix:
        out = identity(self.group.size)
        for idx, exp in self.letters:
            g = self.group.generators[idx]
            out = mat_mul(out, g if exp == 1 else mat_inv_unitriangular(g))
        return out

    def inverse_letters(self):
        return tuple((idx, -exp) for idx, exp in reversed(self.letters))


def commutator_word(w: GroupWord, gen_index: int) -> GroupWord:
    """[w, g] = w^-1 g^-1 w g as a word; length 2*len(w) + 2."""
    letters = (
        w.inverse_letters()
        + ((gen_index, -1),)
        + w.letters
        + ((gen_index, 1),)
    )
    return GroupWord(w.group, letters)


def commutes_with_all_generators(m: Matrix, g: UnitriangularGroup) -> bool:
    return all(mat_mul(m, h) == mat_mul(h, m) for h in g.generators)


def small_central_element(g: UnitriangularGroup) -> GroupWord:
    """Nontrivial central word of length at most 3^(size-1).

    Commutator descent: start at the first nontrivial generator; while the
    current word is not central, replace it by its commutator with the first
    generator it fails to commute with.  Generator scan order is input order,
    so the output is deterministic.
    """
    if g.is_trivial():
        raise NilpotentError("trivial group has no nontrivial central element")
    ident = identity(g.size)
    start = next(i for i, m in enumerate(g.generators) if m != ident)
    word = GroupWord(g, ((start, 1),))
    value = word.evaluate()
    while True:
        witness = None
        for i, h in enumerate(g.generators):
            if mat_mul(value, h) != mat_mul(h, value):
                witness = i
                break
        if witness is None:
            bound = 3 ** g.nilpotency_class_bound
            if word.length > bound:
                raise NilpotentError("descent exceeded the word-length bound")
            return word
        word = commutator_word(word, witness)
        value = word.evaluate()
        if value == ident:
            raise NilpotentError("commutator descent reached the identity")


# ---------------------------------------------------------------------------
# rank via the Lie algebra of logarithms
# ---------------------------------------------------------------------------


def unitriangular_log(m: Matrix):
    """log(I + N) as a rational matrix; exact since N is nilpotent."""
    k = len(m)
    n = [[Fraction(m[i][j] - (1 if i == j else 0)) for j in range(k)] for i in range(k)]
    out = [[Fraction(0)] * k for _ in range(k)]
    power = [[Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]
    for t in range(1, k):
        power = [
            [sum(power[i][s] * n[s][j] for s in range(k)) for j in range(k)]
            for i in range(k)
        ]
        coeff = Fraction((-1) ** (t + 1), t)
        for i in range(k):
            for j in range(k):
                out[i][j] += coeff * power[i][j]
    return out


def _bracket(x, y):
    k = len(x)
    xy = [[sum(x[i][s] * y[s][j] for s in range(k)) for j in range(k)] for i in range(k)]
    yx = [[sum(y[i][s] * x[s][j] for s in range(k)) for j in range(k)] for i in range(k)]
    return [[xy[i][j] - yx[i][j] for j in range(k)] for i in range(k)]


def _flatten(m):
    return [v for row in m for v in row]


def _rational_span_dim(vectors) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for j in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][j]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j] / pv
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def hirsch_rank(g: UnitriangularGroup) -> int:
    """Dimension over Q of the Lie algebra generated by generator logarithms,
    closed under brackets."""
    k = g.size
    basis_mats = [unitriangular_log(m) for m in g.generators]
    basis_mats = [m for m in basis_mats if any(any(r) for r in m)]
    while True:
        dim = _rational_span_dim([_flatten(m) for m in basis_mats]) if basis_mats else 0
        new = list(basis_mats)
        for x in basis_mats:
            for y in basis_mats:
                b = _bracket(x, y)
                if any(any(r) for r in b):
                    new.append(b)
        new_dim = _rational_span_dim([_flatten(m) for m in new]) if new else 0
        if new_dim == dim:
            return dim
        basis_mats = new
