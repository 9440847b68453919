"""Subgroups of Z^d in canonical Hermite normal form.

The HNF here is row-style: the basis matrix is in row echelon form with
positive pivots and entries above each pivot reduced into [0, pivot), which
makes the representation unique per subgroup.  It is the module's one
elimination: every subgroup, join and intersection is read off one HNF.
"""

from __future__ import annotations

from dataclasses import dataclass


class LatticeError(ValueError):
    pass


def hermite_normal_form(rows: list[list[int]], d: int) -> list[list[int]]:
    """Canonical HNF basis (list of rows) of the subgroup generated by rows."""
    work = [list(map(int, r)) for r in rows if any(r)]
    for r in work:
        if len(r) != d:
            raise LatticeError(f"generator of length {len(r)} in ambient rank {d}")
    basis: list[list[int]] = []
    for col in range(d):
        carry = []
        pivot = None
        for r in work:
            if r[col]:
                if pivot is None:
                    pivot = r
                else:
                    # gcd elimination in this column
                    while r[col]:
                        q = pivot[col] // r[col]
                        for j in range(d):
                            pivot[j] -= q * r[j]
                        pivot, r = r, pivot
                    carry.append(r)
            elif any(r):
                carry.append(r)
        if pivot is not None:
            if pivot[col] < 0:
                pivot = [-x for x in pivot]
            basis.append(pivot)
        work = carry
    # reduce entries above pivots
    pivots = []
    for r in basis:
        col = next(j for j in range(d) if r[j])
        pivots.append(col)
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            col = pivots[k]
            p = basis[k][col]
            q = basis[i][col] // p
            if q:
                for j in range(d):
                    basis[i][j] -= q * basis[k][j]
    return basis


@dataclass(frozen=True)
class LatticeSubgroup:
    """Subgroup of Z^d with its unique HNF row basis."""

    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_generators(rows, ambient: int) -> "LatticeSubgroup":
        hnf = hermite_normal_form(list(rows), ambient)
        return LatticeSubgroup(ambient, tuple(tuple(r) for r in hnf))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_trivial(self) -> bool:
        return not self.basis

    def is_infinite(self) -> bool:
        return bool(self.basis)

    def reduce(self, vec):
        """Residue of vec after subtracting basis multiples (back-substitution):
        each row in turn subtracts the floor quotient at its pivot."""
        v = list(map(int, vec))
        if len(v) != self.ambient:
            raise LatticeError("vector has the wrong length")
        for row in self.basis:
            col = next(j for j, x in enumerate(row) if x)
            q = v[col] // row[col]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return v

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains(self, other: "LatticeSubgroup") -> bool:
        if other.ambient != self.ambient:
            raise LatticeError("ambient rank mismatch")
        return all(self.contains_vector(r) for r in other.basis)

    def key(self):
        return (self.ambient, self.basis)


def join(a: LatticeSubgroup, b: LatticeSubgroup) -> LatticeSubgroup:
    """Smallest subgroup containing both (HNF of the concatenated bases)."""
    if a.ambient != b.ambient:
        raise LatticeError("ambient rank mismatch")
    return LatticeSubgroup.from_generators(list(a.basis) + list(b.basis), a.ambient)


def join_all(groups, ambient: int) -> LatticeSubgroup:
    rows = [r for g in groups for r in g.basis]
    return LatticeSubgroup.from_generators(rows, ambient)


def intersect(a: LatticeSubgroup, b: LatticeSubgroup) -> LatticeSubgroup:
    """Intersection, read off one HNF in Z^d ⊕ Z^d (Zassenhaus).

    The rows (x, x) for x in a's basis and (y, 0) for y in b's generate
    R = {(x + y, x) : x in a, y in b}.  An element of R is zero in the
    first half exactly when x = -y, that is, when it is (0, z) with z in
    a ∩ b.  The rows of an echelon basis whose pivot lies in the second
    half are a basis of that part of R, and reduced above their pivots
    they are the HNF of a ∩ b: the unique basis of that shape.
    """
    if a.ambient != b.ambient:
        raise LatticeError("ambient rank mismatch")
    d = a.ambient
    rows = [list(x) * 2 for x in a.basis] + [list(y) + [0] * d for y in b.basis]
    hnf = hermite_normal_form(rows, 2 * d)
    return LatticeSubgroup(d, tuple(tuple(r[d:]) for r in hnf if not any(r[:d])))


def virtually_contains(big: LatticeSubgroup, small: LatticeSubgroup) -> bool:
    """True iff small ∩ big has finite index in small.

    That holds exactly when rank(big ∩ small) = rank(small), that is, when
    small lies in the rational span of big, which is when joining small to
    big leaves the rank of big unchanged.
    """
    return join(big, small).rank == big.rank
