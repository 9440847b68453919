"""Upper unitriangular integer matrix groups: words, ranks, central elements.

Supported sizes are 3 and 4, enough for nilpotency classes 2 and 3.  The
rank is the dimension of the rational Lie algebra generated by the
logarithms of the generators (a terminating polynomial for unipotent
matrices), the Mal'cev algebra of the group (Segal, *Polycyclic Groups*,
ch. 6).  Its closure stops once it spans all k(k-1)/2 strictly upper
triangular directions.  A central word is found by a commutator descent
that carries the word's value from step to step instead of evaluating each
longer word again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import sub

from . import snf


class NilpotentError(ValueError):
    pass


Matrix = tuple[tuple[int, ...], ...]


def identity(k: int) -> Matrix:
    return tuple(map(tuple, snf.identity_matrix(k)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(map(tuple, snf.mat_mul(a, b)))


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
    """A k x k matrix of ``int`` entries (``bool`` excluded), with ones on
    the diagonal and zeros below it."""
    if not isinstance(m, (tuple, list)) or len(m) != k:
        return False
    for i, row in enumerate(m):
        if not isinstance(row, (tuple, list)) or len(row) != k:
            return False
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                return False
            if (i == j and v != 1) or (i > j and v != 0):
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
                raise NilpotentError(
                    f"generator is not a {self.size}x{self.size} unitriangular int matrix")
        object.__setattr__(
            self, "generators", tuple(tuple(map(tuple, g)) for g in self.generators))

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
        """Product of the letters; each generator is inverted at most once."""
        gens = self.group.generators
        inverses: dict[int, Matrix] = {}
        out = identity(self.group.size)
        for idx, exp in self.letters:
            if exp == 1:
                out = mat_mul(out, gens[idx])
            else:
                if idx not in inverses:
                    inverses[idx] = mat_inv_unitriangular(gens[idx])
                out = mat_mul(out, inverses[idx])
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
    current word w is not central, replace it by its commutator with the
    first generator h it fails to commute with.  Generator scan order is
    input order, so the output is deterministic.

    The value W of w is carried from step to step: the products Wh and hW
    that showed h to be a witness give the next value
    [w, h] = W^-1 h^-1 W h = (hW)^-1 (Wh), one inverse and one product,
    while the word's letters grow as ``commutator_word`` spells them.
    """
    if g.is_trivial():
        raise NilpotentError("trivial group has no nontrivial central element")
    ident = identity(g.size)
    start = next(i for i, m in enumerate(g.generators) if m != ident)
    word = GroupWord(g, ((start, 1),))
    value = g.generators[start]
    while True:
        for i, h in enumerate(g.generators):
            wh, hw = mat_mul(value, h), mat_mul(h, value)
            if wh != hw:
                break
        else:
            bound = 3 ** g.nilpotency_class_bound
            if word.length > bound:
                raise NilpotentError("descent exceeded the word-length bound")
            return word
        word = commutator_word(word, i)
        value = mat_mul(mat_inv_unitriangular(hw), wh)
        if value == ident:
            raise NilpotentError("commutator descent reached the identity")


# ---------------------------------------------------------------------------
# rank via the Lie algebra of logarithms
# ---------------------------------------------------------------------------


def _scaled_log(m: Matrix) -> Matrix:
    """(k-1)! * log(I + N) as an integer matrix.

    log(I + N) = sum_{t<k} (-1)^(t+1) N^t / t terminates because N^k = 0,
    and (k-1)!/t is an integer for every t < k.
    """
    k = len(m)
    n = tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(k)) for i in range(k))
    f = factorial(k - 1)
    out = [[0] * k for _ in range(k)]
    power = identity(k)
    for t in range(1, k):
        power = mat_mul(power, n)
        coeff = (f if t % 2 else -f) // t
        for i in range(k):
            for j in range(k):
                out[i][j] += coeff * power[i][j]
    return tuple(tuple(row) for row in out)


def unitriangular_log(m: Matrix):
    """log(I + N) as a rational matrix; exact since N is nilpotent."""
    f = factorial(len(m) - 1)
    return [[Fraction(v, f) for v in row] for row in _scaled_log(m)]


def _bracket(x: Matrix, y: Matrix) -> Matrix:
    """[x, y] = xy - yx from two integer products."""
    xy, yx = snf.mat_mul(x, y), snf.mat_mul(y, x)
    return tuple(tuple(map(sub, a, b)) for a, b in zip(xy, yx))


def hirsch_rank(g: UnitriangularGroup) -> int:
    """Dimension over Q of the Lie algebra generated by generator logarithms.

    The closure is built incrementally over an echelon basis of integer
    matrices: the scaled logarithms of the generators join first, then each
    basis element is bracketed once with every element before it, and a
    bracket joins only when it lies outside the current span. When the walk
    ends, the bracket of every pair of basis elements lies in the span, so the
    span is the Lie algebra.

    Every logarithm is strictly upper triangular, and so is every bracket of
    two such matrices, so the span has dimension at most k(k-1)/2.  Once the
    basis reaches it, no further bracket can join and the walk stops.
    """
    full = g.size * (g.size - 1) // 2
    rows: dict = {}
    basis: list[Matrix] = []

    def join(m: Matrix) -> bool:
        """Add m to the basis when it is outside the span; True once the
        basis is full."""
        if snf.add_to_echelon(rows, [x for row in m for x in row]):
            basis.append(m)
        return len(basis) == full

    if any(join(_scaled_log(m)) for m in g.generators):
        return full
    i = 0
    while i < len(basis):
        for j in range(i):
            if join(_bracket(basis[j], basis[i])):
                return full
        i += 1
    return len(basis)
