"""Exact integer matrix normal forms and linear solvers.

Everything here works over arbitrary-precision Python ints; fixed-width
arithmetic is deliberately avoided.  Matrices are lists of lists (dense) or
sparse ``{row: {col: value}}`` dicts; all public entry points accept dense
input and choose sparse internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class SNFError(ValueError):
    """The normal-form reduction reached a state its invariants exclude."""


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Dense integer matrix product."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += v * bk[j]
    return out


def mat_vec(a, x):
    return [sum(r[j] * x[j] for j in range(len(x)) if r[j]) for r in a]


@dataclass
class SNFResult:
    """U @ m @ V == D, with U, V unimodular and D the diagonal normal form."""

    factors: tuple[int, ...]  # nonzero diagonal entries, divisibility chain
    rows: int
    cols: int
    u: list[list[int]] | None = None
    v: list[list[int]] | None = None
    u_inv: list[list[int]] | None = None
    v_inv: list[list[int]] | None = None

    @property
    def rank(self) -> int:
        return len(self.factors)

    def diagonal_matrix(self) -> list[list[int]]:
        d = [[0] * self.cols for _ in range(self.rows)]
        for i, f in enumerate(self.factors):
            d[i][i] = f
        return d


class _Sparse:
    """Mutable sparse integer matrix with row dicts and a column index."""

    def __init__(self, dense):
        self.rows: dict[int, dict[int, int]] = {}
        self.col_index: dict[int, set[int]] = {}
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                if v:
                    self.rows.setdefault(i, {})[j] = v
                    self.col_index.setdefault(j, set()).add(i)

    def set(self, i, j, v):
        if v:
            self.rows.setdefault(i, {})[j] = v
            self.col_index.setdefault(j, set()).add(i)
        else:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
                ci = self.col_index[j]
                ci.discard(i)
                if not ci:
                    del self.col_index[j]

    def get(self, i, j):
        return self.rows.get(i, {}).get(j, 0)

    def add_row(self, src, dst, c):
        """row[dst] += c * row[src]"""
        if not c:
            return
        for j, v in list(self.rows.get(src, {}).items()):
            self.set(dst, j, self.get(dst, j) + c * v)

    def add_col(self, src, dst, c):
        """col[dst] += c * col[src]"""
        if not c:
            return
        for i in list(self.col_index.get(src, set())):
            self.set(i, dst, self.get(i, dst) + c * self.rows[i][src])

    def swap_rows(self, a, b):
        if a == b:
            return
        ra, rb = self.rows.get(a), self.rows.get(b)
        for j in set((ra or {}).keys()) | set((rb or {}).keys()):
            ci = self.col_index[j]
            ina, inb = a in ci, b in ci
            if ina != inb:
                if ina:
                    ci.discard(a)
                    ci.add(b)
                else:
                    ci.discard(b)
                    ci.add(a)
        if ra is None and rb is None:
            return
        if ra is None:
            self.rows[a] = rb
            del self.rows[b]
        elif rb is None:
            self.rows[b] = ra
            del self.rows[a]
        else:
            self.rows[a], self.rows[b] = rb, ra

    def swap_cols(self, a, b):
        if a == b:
            return
        touched = self.col_index.get(a, set()) | self.col_index.get(b, set())
        for i in list(touched):
            row = self.rows.get(i, {})
            va, vb = row.get(a, 0), row.get(b, 0)
            self.set(i, a, vb)
            self.set(i, b, va)

    def scale_row(self, i, c):
        for j in list(self.rows.get(i, {}).keys()):
            self.rows[i][j] *= c

    def nonzero_in_region(self, start):
        """Iterate (|v|, i, j, v) over entries with i >= start and j >= start."""
        for i, row in self.rows.items():
            if i < start:
                continue
            for j, v in row.items():
                if j >= start:
                    yield (abs(v), i, j, v)


class _Transform:
    """Tracks a unimodular matrix and its inverse under elementary ops."""

    def __init__(self, n, want_inverse):
        self.m = identity_matrix(n)
        self.inv = identity_matrix(n) if want_inverse else None
        self.n = n

    # Row operation E applied on the left of the tracked product: m := E m,
    # inv := inv E^{-1} (column ops on inv).
    def row_add(self, src, dst, c):
        m = self.m
        for j in range(self.n):
            if m[src][j]:
                m[dst][j] += c * m[src][j]
        if self.inv is not None:
            inv = self.inv
            for i in range(self.n):
                if inv[i][dst]:
                    inv[i][src] -= c * inv[i][dst]

    def row_swap(self, a, b):
        self.m[a], self.m[b] = self.m[b], self.m[a]
        if self.inv is not None:
            for r in self.inv:
                r[a], r[b] = r[b], r[a]

    def row_scale(self, i, c):  # c = ±1 only
        self.m[i] = [c * x for x in self.m[i]]
        if self.inv is not None:
            for r in self.inv:
                r[i] = c * r[i]

    # Column operation: m := m E, inv := E^{-1} inv (row ops on inv).
    def col_add(self, src, dst, c):
        m = self.m
        for i in range(self.n):
            if m[i][src]:
                m[i][dst] += c * m[i][src]
        if self.inv is not None:
            inv = self.inv
            for j in range(self.n):
                if inv[dst][j]:
                    inv[src][j] -= c * inv[dst][j]

    def col_swap(self, a, b):
        for r in self.m:
            r[a], r[b] = r[b], r[a]
        if self.inv is not None:
            self.inv[a], self.inv[b] = self.inv[b], self.inv[a]

    def col_scale(self, j, c):
        for r in self.m:
            r[j] = c * r[j]
        if self.inv is not None:
            self.inv[j] = [c * x for x in self.inv[j]]


def smith_normal_form(matrix, want_u=True, want_v=True,
                      want_u_inv=False, want_v_inv=False) -> SNFResult:
    """Smith normal form over the integers.

    Pivot choice is the smallest-magnitude nonzero entry of the remaining
    block, ties broken by (row, column) index, so the output is
    deterministic.  Returns invariant factors (positive, each dividing the
    next) and the requested unimodular transforms with U @ m @ V diagonal.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = _Sparse(matrix)
    tu = _Transform(m, want_u_inv) if (want_u or want_u_inv) else None
    tv = _Transform(n, want_v_inv) if (want_v or want_v_inv) else None

    def row_add(src, dst, c):
        a.add_row(src, dst, c)
        if tu:
            tu.row_add(src, dst, c)

    def col_add(src, dst, c):
        a.add_col(src, dst, c)
        if tv:
            tv.col_add(src, dst, c)

    limit = min(m, n)
    t = 0
    while t < limit:
        pivot = None
        for key in a.nonzero_in_region(t):
            if pivot is None or key[:3] < pivot[:3]:
                pivot = key
                if key[0] == 1:
                    # magnitude 1 can still lose ties; finish the scan only
                    # over other magnitude-1 entries
                    best = key
                    for other in a.nonzero_in_region(t):
                        if other[0] == 1 and other[:3] < best[:3]:
                            best = other
                    pivot = best
                    break
        if pivot is None:
            break
        _, pi, pj, _ = pivot
        a.swap_rows(t, pi)
        if tu:
            tu.row_swap(t, pi)
        a.swap_cols(t, pj)
        if tv:
            tv.col_swap(t, pj)

        while True:
            p = a.get(t, t)
            done = True
            for i in list(a.col_index.get(t, set())):
                if i == t:
                    continue
                if i < t:
                    continue
                v = a.get(i, t)
                q = v // p
                row_add(t, i, -q)
                if a.get(i, t):
                    # remainder smaller than pivot: swap it up and restart
                    a.swap_rows(t, i)
                    if tu:
                        tu.row_swap(t, i)
                    done = False
                    break
            if not done:
                continue
            p = a.get(t, t)
            for j in list(a.rows.get(t, {}).keys()):
                if j == t or j < t:
                    continue
                v = a.get(t, j)
                q = v // p
                col_add(t, j, -q)
                if a.get(t, j):
                    a.swap_cols(t, j)
                    if tv:
                        tv.col_swap(t, j)
                    done = False
                    break
            if done:
                break
        t += 1

    diag = [a.get(i, i) for i in range(limit)]
    rank = sum(1 for d in diag if d)

    # Normalize signs.
    for i in range(rank):
        if diag[i] < 0:
            a.scale_row(i, -1)
            if tu:
                tu.row_scale(i, -1)
            diag[i] = -diag[i]

    # Enforce the divisibility chain d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            x, y = a.get(i, i), a.get(i + 1, i + 1)
            if y % x == 0:
                continue
            changed = True
            col_add(i + 1, i, 1)  # puts y at (i+1, i)
            # gcd elimination in the 2x2 block
            while a.get(i + 1, i):
                p = a.get(i, i)
                v = a.get(i + 1, i)
                q = v // p
                row_add(i, i + 1, -q)
                if a.get(i + 1, i):
                    a.swap_rows(i, i + 1)
                    if tu:
                        tu.row_swap(i, i + 1)
            # clear fill-in at (i, i+1)
            p = a.get(i, i)
            v = a.get(i, i + 1)
            if v % p:
                raise SNFError("divisibility fix failed")
            col_add(i, i + 1, -(v // p))
            for k in (i, i + 1):
                if a.get(k, k) < 0:
                    a.scale_row(k, -1)
                    if tu:
                        tu.row_scale(k, -1)

    factors = tuple(a.get(i, i) for i in range(limit) if a.get(i, i))
    return SNFResult(
        factors=factors,
        rows=m,
        cols=n,
        u=tu.m if (tu and want_u) else None,
        v=tv.m if (tv and want_v) else None,
        u_inv=tu.inv if tu else None,
        v_inv=tv.inv if tv else None,
    )


def integer_rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return smith_normal_form(matrix, want_u=False, want_v=False).rank


def rational_rank(matrix) -> int:
    """Rank over Q by fraction-free Gaussian elimination (independent of SNF)."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
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
        if rank == len(rows):
            break
    return rank


def kernel_basis(matrix) -> list[list[int]]:
    """Basis of the right integer kernel {x : matrix @ x = 0} (as columns)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    res = smith_normal_form(matrix, want_u=False, want_v=True)
    return [[res.v[i][j] for i in range(n)] for j in range(res.rank, n)]


def row_kernel_basis(matrix) -> list[list[int]]:
    """Basis of {z : z @ matrix = 0}, rows of the result."""
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    if n == 0:
        return identity_matrix(m)
    res = smith_normal_form(matrix, want_u=True, want_v=False)
    return [list(res.u[i]) for i in range(res.rank, m)]


def solve_integer(matrix, b, snf: SNFResult | None = None):
    """One integer solution x of matrix @ x = b, or None if unsolvable.

    A precomputed SNF (with u and v) may be passed to amortize repeated
    solves against the same matrix.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if snf is None:
        snf = smith_normal_form(matrix)
    c = mat_vec(snf.u, b) if m else []
    y = [0] * n
    for i in range(m):
        d = snf.factors[i] if i < snf.rank else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return mat_vec(snf.v, y) if n else []


def determinant(matrix) -> int:
    """Exact integer determinant (Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def lcm(a: int, b: int) -> int:
    return abs(a * b) // gcd(a, b) if a and b else 0
