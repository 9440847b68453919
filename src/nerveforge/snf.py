"""Exact integer matrix normal forms and linear solvers.

Everything here works over arbitrary-precision Python ints; fixed-width
arithmetic is deliberately avoided.  Matrices are lists of lists (dense) or
sparse ``{row: {col: value}}`` dicts; all public entry points accept dense
input and choose sparse internals.

This module is the package's exact linear-algebra kernel: ``mat_mul`` and
``identity_matrix`` for integer matrices, the Smith normal form, and one
fraction-free elimination, ``echelon`` over ``add_to_echelon``, behind every
rational rank, row space, membership test, linear solve and orientation
sign.

``smith_normal_form`` keeps the matrix being reduced as row dicts with a
column index and a heap of pivot candidates, and each unimodular transform
it tracks as sparse lines together with its inverse: the rows of ``U`` and
columns of ``V`` that its elementary operations act on, and the columns of
``U⁻¹`` and rows of ``V⁻¹`` that the inverse operations act on.
``SNFResult`` hands those lines to callers, and no dense transform matrix
is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, lcm


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


Line = dict[int, int]


@dataclass
class SNFResult:
    """U @ m @ V == D, with U, V unimodular and D the diagonal normal form.

    The transforms are sparse lines ``{index: value}``: ``u_rows[i]`` is row
    i of U, ``v_cols[j]`` column j of V, ``u_inv_cols[j]`` column j of U⁻¹
    and ``v_inv_rows[i]`` row i of V⁻¹.  A transform and its inverse come
    together: U and U⁻¹ are both ``None`` unless U was requested, and the
    same holds for V and V⁻¹.  So columns rank.. of V span the right kernel
    and rows rank.. of U the left kernel.
    """

    factors: tuple[int, ...]  # nonzero diagonal entries, divisibility chain
    rows: int
    cols: int
    u_rows: list[Line] | None = None
    v_cols: list[Line] | None = None
    u_inv_cols: list[Line] | None = None
    v_inv_rows: list[Line] | None = None

    @property
    def rank(self) -> int:
        return len(self.factors)


class _Sparse:
    """Mutable sparse integer matrix with row dicts, a column index and a
    heap of pivot keys ``(|v|, i, j)``.

    Every write of a nonzero entry, and every entry a row swap moves, pushes
    its key; keys are never updated in place.  So each nonzero entry has a
    key for its current magnitude and position, and a key that no longer
    matches its entry is stale and is dropped when it reaches the top.
    """

    def __init__(self, dense):
        self.rows: dict[int, dict[int, int]] = {}
        self.col_index: dict[int, set[int]] = {}
        heap = []
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                if v:
                    self.rows.setdefault(i, {})[j] = v
                    self.col_index.setdefault(j, set()).add(i)
                    heap.append((abs(v), i, j))
        heap.sort()
        self.heap = heap

    def set(self, i, j, v):
        if v:
            self.rows.setdefault(i, {})[j] = v
            self.col_index.setdefault(j, set()).add(i)
            heappush(self.heap, (abs(v), i, j))
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
        heap = self.heap
        for i in (a, b):
            for j, v in self.rows.get(i, {}).items():
                heappush(heap, (abs(v), i, j))

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

    def smallest_in_region(self, t):
        """The least key ``(|v|, i, j)`` over nonzero entries with
        ``i >= t`` and ``j >= t``, or None.

        Top keys that fail these tests are dropped for good: the
        region only shrinks as ``t`` grows, and an entry that regains a
        dropped magnitude pushes a new key when it is written.
        """
        heap = self.heap
        rows = self.rows
        while heap:
            key = heap[0]
            mag, i, j = key
            if i >= t and j >= t and abs(rows.get(i, {}).get(j, 0)) == mag:
                return key
            heappop(heap)
        return None


def _axpy(y: Line, x: Line, c: int):
    """y += c * x on sparse lines, for c != 0; entries that cancel leave y."""
    for k, v in x.items():
        w = y.get(k, 0) + c * v
        if w:
            y[k] = w
        else:
            del y[k]


class _Transform:
    """A unimodular matrix and its inverse, as sparse lines.

    ``lines[k]`` is line k of the tracked matrix, the kind of line its
    operations act on: a row of U, whose operations are row operations, or a
    column of V, whose operations are column operations.  ``inv_lines[k]``
    is line k of the inverse, of the other kind (a column of U⁻¹, a row of
    V⁻¹), where the inverse operation acts.  Every operation updates both,
    and each touches only nonzero entries.
    """

    def __init__(self, n):
        self.lines: list[Line] = [{k: 1} for k in range(n)]
        self.inv_lines: list[Line] = [{k: 1} for k in range(n)]

    def add(self, src, dst, c):
        """line[dst] += c * line[src]; on the inverse, line[src] -= c * line[dst]."""
        if not c:
            return
        _axpy(self.lines[dst], self.lines[src], c)
        _axpy(self.inv_lines[src], self.inv_lines[dst], -c)

    def swap(self, a, b):
        lines, inv = self.lines, self.inv_lines
        lines[a], lines[b] = lines[b], lines[a]
        inv[a], inv[b] = inv[b], inv[a]

    def negate(self, k):
        self.lines[k] = {x: -v for x, v in self.lines[k].items()}
        self.inv_lines[k] = {x: -v for x, v in self.inv_lines[k].items()}


def smith_normal_form(matrix, want_u=True, want_v=True) -> SNFResult:
    """Smith normal form over the integers.

    Pivot choice is the smallest-magnitude nonzero entry of the remaining
    block, ties broken by (row, column) index, so the output is
    deterministic.  The pivot comes from the heap of ``(|v|, i, j)`` keys
    that every write pushes, not from a rescan of the block; stale keys are
    dropped, so the pivot is the block's least key exactly as a full scan
    would find it.  Returns invariant factors (positive, each dividing the
    next) and the requested unimodular transforms with U @ m @ V diagonal,
    each with its inverse, as the sparse lines that ``SNFResult`` describes.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = _Sparse(matrix)
    tu = _Transform(m) if want_u else None
    tv = _Transform(n) if want_v else None

    def row_add(src, dst, c):
        a.add_row(src, dst, c)
        if tu:
            tu.add(src, dst, c)

    def col_add(src, dst, c):
        a.add_col(src, dst, c)
        if tv:
            tv.add(src, dst, c)

    def row_swap(i, j):
        a.swap_rows(i, j)
        if tu:
            tu.swap(i, j)

    def col_swap(i, j):
        a.swap_cols(i, j)
        if tv:
            tv.swap(i, j)

    def row_negate(i):
        a.scale_row(i, -1)
        if tu:
            tu.negate(i)

    limit = min(m, n)
    t = 0
    while t < limit:
        pivot = a.smallest_in_region(t)
        if pivot is None:
            break
        _, pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)

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
                    row_swap(t, i)
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
                    col_swap(t, j)
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
            row_negate(i)
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
                    row_swap(i, i + 1)
            # clear fill-in at (i, i+1)
            p = a.get(i, i)
            v = a.get(i, i + 1)
            if v % p:
                raise SNFError("divisibility fix failed")
            col_add(i, i + 1, -(v // p))
            for k in (i, i + 1):
                if a.get(k, k) < 0:
                    row_negate(k)

    factors = tuple(a.get(i, i) for i in range(limit) if a.get(i, i))
    return SNFResult(
        factors=factors,
        rows=m,
        cols=n,
        u_rows=tu.lines if tu else None,
        v_cols=tv.lines if tv else None,
        u_inv_cols=tu.inv_lines if tu else None,
        v_inv_rows=tv.inv_lines if tv else None,
    )


def _cancel(x: list[int], y: list[int], p: int) -> list[int]:
    """A multiple of x minus a multiple of y, zero at p (for y[p] != 0)."""
    g = gcd(x[p], y[p])
    a, b = y[p] // g, x[p] // g
    return [a * s - b * t for s, t in zip(x, y)]


def reduce_by_echelon(rows: dict[int, list[int]], v: list[int]) -> list[int]:
    """A nonzero multiple of the int vector ``v`` minus a combination of the
    echelon ``rows`` (pivot -> primitive int row), zero at every pivot.

    Every row is zero at every other row's pivot, so one cancelling pass
    leaves ``v`` zero at every pivot, and what remains is zero exactly when
    ``v`` lies in the rational span of the rows.  Neither argument is changed.
    """
    for p, row in rows.items():
        if v[p]:
            v = _cancel(v, row, p)
    return v


def add_to_echelon(rows: dict[int, list[int]], v: list[int]) -> bool:
    """Add the int vector ``v`` to the echelon ``rows`` (pivot -> primitive
    int row) unless it lies in their rational span; True when it was added.

    ``v`` is reduced by ``reduce_by_echelon``; a nonzero remainder is divided
    by its content and stored under its first nonzero column, which is first
    cancelled from the earlier rows the same way.
    """
    v = reduce_by_echelon(rows, v)
    g = gcd(*v)
    if not g:
        return False
    v = [x // g for x in v]
    p = next(j for j, x in enumerate(v) if x)
    for q, row in rows.items():
        if row[p]:
            row = _cancel(row, v, p)
            g = gcd(*row)
            rows[q] = [x // g for x in row]
    rows[p] = v
    return True


def echelon(rows) -> list[tuple[int, list[int]]]:
    """Fraction-free reduced echelon form of ``int`` or ``Fraction`` rows.

    Each row is scaled to integers over the lcm of its denominators and
    folded in by ``add_to_echelon``.  Returns ``(pivot, primitive int row)``
    pairs sorted by pivot; dividing each row by its pivot entry gives the
    reduced row echelon form over Q.
    """
    out: dict[int, list[int]] = {}
    for r in rows:
        d = lcm(*(x.denominator for x in r))
        add_to_echelon(out, [x.numerator * (d // x.denominator) for x in r])
    return sorted(out.items())


def rational_rank(matrix) -> int:
    """Rank over Q by fraction-free elimination (independent of SNF)."""
    return len(echelon(matrix))


def solve_integer(matrix, b):
    """One integer solution x of matrix @ x = b, or None if unsolvable."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    snf = smith_normal_form(matrix)
    x = [0] * n
    for i, row in enumerate(snf.u_rows):
        c = sum(v * b[k] for k, v in row.items())
        d = snf.factors[i] if i < snf.rank else 0
        if d:
            if c % d:
                return None
            q = c // d  # y[i], and x = V y
            for k, v in snf.v_cols[i].items():
                x[k] += q * v
        elif c:
            return None
    return x
