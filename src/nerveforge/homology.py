"""Integer chain complexes, exact homology, and induced maps on homology.

Homology bases are chosen deterministically from the Smith normal form
transforms, so induced-map matrices are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .simplicial import SimplicialComplex, SimplicialMap
from .snf import identity_matrix, smith_normal_form, solve_integer


class ChainComplexError(ValueError):
    pass


def simplex_boundary(s: tuple):
    """Faces with alternating signs by position."""
    if len(s) == 1:
        return []
    return [((-1) ** i, s[:i] + s[i + 1:]) for i in range(len(s))]


@dataclass(frozen=True)
class IntegerChainComplex:
    """Per-degree bases (label lists) and sparse boundaries.

    ``boundaries[d]`` maps a degree-d basis index to ``{row: value}`` over
    degree-(d-1) basis indices.  The identity boundary-of-boundary == 0 is
    checked exactly at construction.
    """

    basis: dict[int, list]
    boundaries: dict[int, dict[int, dict[int, int]]]

    def __post_init__(self):
        for d in sorted(self.boundaries):
            if d - 1 not in self.basis and self.boundaries[d]:
                raise ChainComplexError(f"boundary in degree {d} without degree {d-1} basis")
        for d in sorted(self.basis):
            self._check_square_zero(d)

    def _check_square_zero(self, d):
        outer = self.boundaries.get(d, {})
        inner = self.boundaries.get(d + 1, {})
        for col, chain in inner.items():
            acc: dict[int, int] = {}
            for mid, v in chain.items():
                for row, w in outer.get(mid, {}).items():
                    acc[row] = acc.get(row, 0) + v * w
            if any(acc.values()):
                raise ChainComplexError(f"boundary squared is nonzero in degree {d + 1}")

    def degrees(self):
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, []))

    def dense_boundary(self, d: int) -> list[list[int]]:
        """Matrix of the boundary C_d -> C_{d-1}, rows by the lower basis."""
        rows = self.dim(d - 1)
        cols = self.dim(d)
        out = [[0] * cols for _ in range(rows)]
        for col, chain in self.boundaries.get(d, {}).items():
            for row, v in chain.items():
                out[row][col] = v
        return out


def chain_complex(c: SimplicialComplex) -> IntegerChainComplex:
    """Simplicial chain complex with bases sorted lexicographically."""
    basis: dict[int, list] = {}
    index: dict[tuple, int] = {}
    for d in range(c.dimension + 1):
        basis[d] = c.simplices_of_dim(d)
        for i, s in enumerate(basis[d]):
            index[s] = i
    boundaries: dict[int, dict[int, dict[int, int]]] = {}
    for d in range(1, c.dimension + 1):
        cols = {}
        for col, s in enumerate(basis[d]):
            cols[col] = {index[f]: sign for sign, f in simplex_boundary(s)}
        boundaries[d] = cols
    return IntegerChainComplex(basis=basis, boundaries=boundaries)


@dataclass(frozen=True)
class HomologySummary:
    """Per-degree Betti numbers and torsion invariant factors (> 1, each
    dividing the next).  Degrees with trivial homology are omitted."""

    data: dict[int, tuple[int, tuple[int, ...]]] = field(default_factory=dict)

    @staticmethod
    def of(entries: dict[int, tuple[int, tuple[int, ...]]]) -> "HomologySummary":
        clean = {
            d: (betti, tuple(tor))
            for d, (betti, tor) in entries.items()
            if betti or tor
        }
        return HomologySummary(clean)

    def betti(self, d: int) -> int:
        return self.data.get(d, (0, ()))[0]

    def torsion(self, d: int) -> tuple[int, ...]:
        return self.data.get(d, (0, ()))[1]

    def is_trivial_at_or_above(self, n: int) -> bool:
        return all(d < n for d in self.data)

    def top_nonzero_degree(self):
        return max(self.data) if self.data else None

    def __eq__(self, other):
        return isinstance(other, HomologySummary) and self.data == other.data

    def __hash__(self):
        return hash(tuple(sorted(self.data.items())))

    def as_json(self):
        return {str(d): {"betti": b, "torsion": list(t)} for d, (b, t) in sorted(self.data.items())}


def _boundary_rank_and_factors(cc: IntegerChainComplex, d: int):
    mat = cc.dense_boundary(d)
    if not mat or not mat[0]:
        return 0, ()
    res = smith_normal_form(mat, want_u=False, want_v=False)
    return res.rank, res.factors


def homology(cc: IntegerChainComplex, degrees=None, reduced: bool = False) -> HomologySummary:
    """Betti numbers and torsion of ker(boundary)/im(boundary) per degree."""
    if degrees is None:
        degrees = cc.degrees()
    ranks: dict[int, tuple[int, tuple[int, ...]]] = {}

    def rk(d):
        if d not in ranks:
            ranks[d] = _boundary_rank_and_factors(cc, d)
        return ranks[d]

    entries = {}
    nonempty = any(cc.dim(d) for d in cc.degrees())
    for d in degrees:
        n = cc.dim(d)
        if n == 0:
            continue
        rank_d = rk(d)[0] if cc.dim(d - 1) else 0
        rank_up, factors_up = rk(d + 1) if cc.dim(d + 1) else (0, ())
        betti = n - rank_d - rank_up
        torsion = tuple(f for f in factors_up if f > 1)
        if reduced and d == 0 and nonempty:
            betti -= 1
        entries[d] = (betti, torsion)
    return HomologySummary.of(entries)


def homology_of_complex(c: SimplicialComplex, degrees=None, reduced: bool = False) -> HomologySummary:
    return homology(chain_complex(c), degrees=degrees, reduced=reduced)


def is_acyclic(c: SimplicialComplex) -> bool:
    """Vanishing reduced integer homology in every degree."""
    if c.is_empty():
        return False
    return homology_of_complex(c, reduced=True) == HomologySummary.of({})


class DegreeHomology:
    """Homology of one degree with an explicit, deterministic generator basis.

    Generators are cycles; ``orders[i]`` is 0 for a free generator and the
    torsion order otherwise.  ``coordinates`` expresses any cycle in this
    basis (torsion coordinates reduced into [0, order)).

    One Smith normal form ``U ∂_d V = D`` (rank r) gives both the cycle
    lattice and coordinates in it.  Columns r..n-1 of ``V`` are a basis of
    the cycles.  A cycle ``x = V y`` has ``U⁻¹ D y = ∂x = 0``, so
    ``y[:r] = 0`` and its kernel coordinates are ``(V⁻¹ x)[r:]``.  Rows
    r..n-1 of ``V⁻¹`` are kept sparse and indexed by chain position, so a
    sparse cycle touches only its own entries.  Whether a vector is a cycle is
    decided by an exact sparse product with the boundary columns of ∂_d.
    The boundaries of ∂_{d+1} in these coordinates are the relations whose
    own normal form picks the generators and their orders.
    """

    def __init__(self, cc: IntegerChainComplex, d: int):
        self.cc = cc
        self.d = d
        n = cc.dim(d)
        self.n = n
        self._boundary = cc.boundaries.get(d, {}) if cc.dim(d - 1) else {}
        # kernel basis columns of V, and per chain index i the nonzero
        # entries {k: V⁻¹[r + k][i]}
        if not self._boundary:
            kernel = [{j: 1} for j in range(n)]
            self._coord_cols = [{i: 1} for i in range(n)]
        else:
            res = smith_normal_form(cc.dense_boundary(d), want_u=False,
                                    want_v=True, want_v_inv=True)
            r = res.rank
            kernel = [{i: res.v[i][j] for i in range(n) if res.v[i][j]}
                      for j in range(r, n)]
            self._coord_cols = [{} for _ in range(n)]
            for k, row in enumerate(res.v_inv[r:]):
                for i, v in enumerate(row):
                    if v:
                        self._coord_cols[i][k] = v
        z = len(kernel)
        self.z = z

        # boundaries are cycles (IntegerChainComplex checks ∂∂ = 0), so
        # their kernel coordinates need no cycle check
        up = cc.boundaries.get(d + 1, {})
        relation_cols = [
            self._kernel_coords(up.get(col, {})) for col in range(cc.dim(d + 1))
        ] if z else []
        if relation_cols:
            rel = [[col[i] for col in relation_cols] for i in range(z)]
            res = smith_normal_form(rel, want_u=True, want_v=False, want_u_inv=True)
            dfac = list(res.factors) + [0] * (z - res.rank)
            u, u_inv = res.u, res.u_inv
        else:
            dfac = [0] * z
            u = u_inv = identity_matrix(z)
        self.kept = [i for i in range(z) if dfac[i] != 1]
        self.orders = [dfac[i] for i in self.kept]
        # only the kept rows of U matter for coordinates
        self._u_rows = [{k: v for k, v in enumerate(u[i]) if v} for i in self.kept]
        self.generators = []
        for i in self.kept:
            gen = [0] * n
            for k in range(z):
                c = u_inv[k][i]
                if c:
                    for row, v in kernel[k].items():
                        gen[row] += c * v
            self.generators.append(gen)

    def _kernel_coords(self, chain: dict[int, int]) -> list[int]:
        """(V⁻¹ x)[r:] for a cycle x given as {index: value}."""
        y = [0] * self.z
        cols = self._coord_cols
        for i, x in chain.items():
            for k, v in cols[i].items():
                y[k] += x * v
        return y

    def _is_cycle(self, chain: dict[int, int]) -> bool:
        acc: dict[int, int] = {}
        bnd = self._boundary
        for i, x in chain.items():
            for row, v in bnd.get(i, {}).items():
                acc[row] = acc.get(row, 0) + x * v
        return not any(acc.values())

    @property
    def rank(self) -> int:
        return sum(1 for o in self.orders if o == 0)

    def summary_entry(self):
        return (self.rank, tuple(sorted(o for o in self.orders if o > 1)))

    def coordinates(self, cycle: list[int]):
        """Coordinates of a cycle's class in the generator basis, or None if
        the vector is not a cycle."""
        chain = {i: x for i, x in enumerate(cycle) if x}
        if not self._is_cycle(chain):
            return None
        y = self._kernel_coords(chain)
        out = []
        for row, o in zip(self._u_rows, self.orders):
            w = sum(v * y[k] for k, v in row.items())
            out.append(w % o if o else w)
        return out

    def class_is_zero(self, cycle: list[int]) -> bool:
        coords = self.coordinates(cycle)
        if coords is None:
            raise ChainComplexError("vector is not a cycle")
        return not any(coords)


def degree_homology(cc: IntegerChainComplex, d: int) -> DegreeHomology:
    return DegreeHomology(cc, d)


# ---------------------------------------------------------------------------
# chain maps and induced maps on homology
# ---------------------------------------------------------------------------

ChainMap = dict[int, dict[int, dict[int, int]]]  # degree -> col -> {row: val}


def simplicial_chain_map(f: SimplicialMap, src: IntegerChainComplex,
                         dst: IntegerChainComplex) -> ChainMap:
    """Chain map of f between the already built chain complexes of its
    source and target."""
    dst_index = {d: {s: i for i, s in enumerate(labels)} for d, labels in dst.basis.items()}
    cm: ChainMap = {}
    for d, labels in src.basis.items():
        cols = {}
        for col, s in enumerate(labels):
            img, sign = f.image_simplex(s)
            if sign:
                cols[col] = {dst_index[d][img]: sign}
        cm[d] = cols
    return cm


def chain_map_of_simplicial(f: SimplicialMap) -> tuple[IntegerChainComplex, IntegerChainComplex, ChainMap]:
    src = chain_complex(f.source)
    dst = chain_complex(f.target)
    return src, dst, simplicial_chain_map(f, src, dst)


def apply_chain_map(cm: ChainMap, d: int, vec: list[int], target_dim: int) -> list[int]:
    out = [0] * target_dim
    cols = cm.get(d, {})
    for col, v in enumerate(vec):
        if v:
            for row, w in cols.get(col, {}).items():
                out[row] += v * w
    return out


@dataclass
class InducedMap:
    """Matrix of an induced map on homology in the deterministic bases."""

    matrix: list[list[int]]  # rows: target generators, cols: source generators
    source_orders: list[int]
    target_orders: list[int]
    is_zero: bool
    degree_flagged: bool = False  # degree outside both complexes' ranges

    def compose_after(self, earlier: "InducedMap") -> "InducedMap":
        rows = len(self.matrix)
        mid = len(earlier.matrix)
        cols = len(earlier.matrix[0]) if mid and earlier.matrix else (
            len(earlier.source_orders))
        out = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for k in range(mid):
                a = self.matrix[i][k]
                if a:
                    for j in range(cols):
                        out[i][j] += a * earlier.matrix[k][j]
        for i, o in enumerate(self.target_orders):
            if o:
                out[i] = [x % o for x in out[i]]
        return InducedMap(
            matrix=out,
            source_orders=list(earlier.source_orders),
            target_orders=list(self.target_orders),
            is_zero=all(not any(r) for r in out),
        )


def induced_map_on_homology(
    src_cc: IntegerChainComplex,
    dst_cc: IntegerChainComplex,
    cm: ChainMap,
    d: int,
    src_h: DegreeHomology | None = None,
    dst_h: DegreeHomology | None = None,
) -> InducedMap:
    if src_cc.dim(d) == 0 or dst_cc.dim(d) == 0:
        src_h = src_h or degree_homology(src_cc, d)
        dst_h = dst_h or degree_homology(dst_cc, d)
        flagged = src_cc.dim(d) == 0 and dst_cc.dim(d) == 0
        return InducedMap(
            matrix=[[0] * len(src_h.orders) for _ in dst_h.orders],
            source_orders=list(src_h.orders),
            target_orders=list(dst_h.orders),
            is_zero=True,
            degree_flagged=flagged,
        )
    src_h = src_h or degree_homology(src_cc, d)
    dst_h = dst_h or degree_homology(dst_cc, d)
    cols = []
    zero = True
    for g in src_h.generators:
        img = apply_chain_map(cm, d, g, dst_cc.dim(d))
        coords = dst_h.coordinates(img)
        if coords is None:
            raise ChainComplexError("chain map image of a cycle is not a cycle")
        if any(coords):
            zero = False
        cols.append(coords)
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(len(dst_h.orders))]
    return InducedMap(
        matrix=matrix,
        source_orders=list(src_h.orders),
        target_orders=list(dst_h.orders),
        is_zero=zero,
    )


def induced_homology_map(f: SimplicialMap, d: int) -> InducedMap:
    """Matrix of H_d(f) in the generator bases, with an exact zero-map flag."""
    src, dst, cm = chain_map_of_simplicial(f)
    return induced_map_on_homology(src, dst, cm, d)


def _group_map_is_bijective(matrix, source_orders, target_orders) -> bool:
    """Exact bijectivity test for a map of finitely generated abelian groups
    presented by generator orders (0 = free) and a coordinate matrix."""
    rows, cols = len(target_orders), len(source_orders)
    if rows == 0 and cols == 0:
        return True
    # surjective: columns of [matrix | diag(target_orders)] generate Z^rows
    aug = [list(matrix[i]) + [target_orders[i] if j == i else 0 for j in range(rows)]
           for i in range(rows)]
    if rows:
        res = smith_normal_form(aug, want_u=False, want_v=False)
        if res.rank < rows or any(f != 1 for f in res.factors):
            return False
    # injective: kernel of the induced map is trivial
    stacked = [list(matrix[i]) + [-(target_orders[i]) if j == i else 0 for j in range(rows)]
               for i in range(rows)]
    if not stacked:
        # target trivial: injective iff source trivial
        return all(o == 1 for o in source_orders) or cols == 0
    res = smith_normal_form(stacked, want_u=False, want_v=True)
    n = cols + rows
    for j in range(res.rank, n):
        x = [res.v[i][j] for i in range(cols)]
        for xi, o in zip(x, source_orders):
            if o == 0:
                if xi != 0:
                    return False
            elif xi % o:
                return False
    return True


def induced_map_is_isomorphism(m: InducedMap) -> bool:
    return _group_map_is_bijective(m.matrix, m.source_orders, m.target_orders)


# ---------------------------------------------------------------------------
# total complexes of coefficient diagrams
# ---------------------------------------------------------------------------


class TotalComplex:
    """Total complex of a one-directional coefficient diagram.

    ``objects`` index the horizontal direction; an object o has horizontal
    degree ``len(o) - 1``.  ``coeff(o)`` is the simplex set of its coefficient
    subcomplex and ``face(o, l)`` the object under dropping position l (or
    None to omit the face).  Coefficient maps along faces are simplex-identity
    inclusions, so coeff(face(o, l)) must contain coeff(o).
    """

    def __init__(self, objects, coeff, face):
        self.objects = sorted(objects, key=lambda o: (len(o), o))
        self.coeff = {o: frozenset(coeff(o)) for o in self.objects}
        self.face = face
        basis: dict[int, list] = {}
        for o in self.objects:
            k = len(o) - 1
            for s in sorted(self.coeff[o]):
                basis.setdefault(k + len(s) - 1, []).append((o, s))
        for d in basis:
            basis[d].sort()
        index = {d: {lab: i for i, lab in enumerate(labels)} for d, labels in basis.items()}
        boundaries: dict[int, dict[int, dict[int, int]]] = {}
        for d, labels in basis.items():
            if d == 0:
                continue
            cols = {}
            low = index.get(d - 1, {})
            for col, (o, s) in enumerate(labels):
                k = len(o) - 1
                entry: dict[int, int] = {}
                for sign, f in simplex_boundary(s):
                    row = low.get((o, f))
                    if row is None:
                        raise ChainComplexError("coefficient complex not downward closed")
                    entry[row] = entry.get(row, 0) + sign
                vsign = (-1) ** (len(s) - 1)
                for l in range(k + 1):
                    fo = face(o, l)
                    if fo is None:
                        continue
                    row = low.get((fo, s))
                    if row is None:
                        raise ChainComplexError(
                            f"face coefficient does not contain simplex {s}")
                    entry[row] = entry.get(row, 0) + vsign * ((-1) ** l)
                cols[col] = {r: v for r, v in entry.items() if v}
            if cols:
                boundaries[d] = cols
        self.cc = IntegerChainComplex(basis=basis, boundaries=boundaries)
        self.index = index

    def column_objects(self, k: int):
        return [o for o in self.objects if len(o) - 1 == k]

    def inject_colored_chain(self, colored: dict[tuple, dict[tuple, int]], d: int) -> list[int]:
        """Vector for a chain assigned to horizontal-degree-0 objects."""
        vec = [0] * self.cc.dim(d)
        for o, chain in colored.items():
            for s, v in chain.items():
                vec[self.index[d][(o, s)]] += v
        return vec

    def lift_cycle(self, cycle: dict[tuple, int], d: int):
        """Zig-zag a degree-d cycle of the union into a total-complex cycle.

        Returns the lifted vector; raises if some stage is unsolvable (which
        would mean the diagram's rows are not exact).
        """
        zero_objs = self.column_objects(0)
        colored: dict[tuple, dict[tuple, int]] = {}
        for s, v in cycle.items():
            if not v:
                continue
            home = next((o for o in zero_objs if s in self.coeff[o]), None)
            if home is None:
                raise ChainComplexError(f"cycle simplex {s} not covered by the diagram")
            colored.setdefault(home, {})[s] = v
        total = self.inject_colored_chain(colored, d)
        # correct column by column
        current = list(total)
        for k in range(0, d):
            defect = self._vertical_defect(current, d, k)
            if not any(defect.values()):
                break
            sol = self._solve_horizontal(defect, k, d - k - 1)
            for lab, v in sol.items():
                current[self.index[d][lab]] += v
        return current

    def _vertical_defect(self, vec, d, k):
        """Component of the boundary of vec in (horizontal k, vertical d-1-k)."""
        out: dict[tuple, int] = {}
        bnd = self.cc.boundaries.get(d, {})
        labels = self.cc.basis[d]
        low = self.cc.basis.get(d - 1, [])
        for col, v in enumerate(vec):
            if not v:
                continue
            for row, w in bnd.get(col, {}).items():
                o, s = low[row]
                if len(o) - 1 == k:
                    key = (o, s)
                    out[key] = out.get(key, 0) + v * w
        return {k2: v for k2, v in out.items() if v}

    def _solve_horizontal(self, defect, k, j):
        """Find a (k+1, j)-chain whose total-boundary horizontal part equals
        -defect.  Uses the horizontal component matrix only."""
        sources = [
            (o, s) for o in self.column_objects(k + 1) for s in sorted(self.coeff[o])
            if len(s) - 1 == j
        ]
        targets = [
            (o, s) for o in self.column_objects(k) for s in sorted(self.coeff[o])
            if len(s) - 1 == j
        ]
        tindex = {lab: i for i, lab in enumerate(targets)}
        matrix = [[0] * len(sources) for _ in targets]
        vsign = (-1) ** j
        for col, (o, s) in enumerate(sources):
            for l in range(len(o)):
                fo = self.face(o, l)
                if fo is None:
                    continue
                row = tindex.get((fo, s))
                if row is None:
                    raise ChainComplexError("face outside diagram")
                matrix[row][col] += vsign * ((-1) ** l)
        b = [-defect.get(lab, 0) for lab in targets]
        if not sources:
            if any(b):
                raise ChainComplexError("horizontal lift unsolvable: no sources")
            return {}
        x = solve_integer(matrix, b)
        if x is None:
            raise ChainComplexError("horizontal lift unsolvable (rows not exact?)")
        return {lab: x[i] for i, lab in enumerate(sources) if x[i]}
