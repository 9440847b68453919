"""Integer chain complexes, exact homology, and induced maps on homology.

Homology is read from a collapsed complex: greedy elementary collapses
(Kaczynski, Mischaikow and Mrozek, *Computational Homology*, ch. 4) remove
each free face together with its only coface, and what is left is a
subcomplex whose inclusion is a chain equivalence.  Homology bases come
from the collapse order, which is fixed by the basis order, plus the Smith
normal form transforms of the collapsed boundaries, so induced-map
matrices are reproducible across runs.

A map on homology has one route: a chain map and the ``DegreeHomology`` of
its source and target go to ``induced_map_on_homology``.  The chain map of
a simplicial map, an inclusion included, comes from ``simplicial_chain_map``
between already built chain complexes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .simplicial import SimplicialComplex, SimplicialMap, _component_labels
from .snf import smith_normal_form, solve_integer


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
    degree-(d-1) basis indices.  The public constructors, direct
    construction and ``of_cells``, check the identity boundary-of-boundary
    == 0 exactly; ``of_cells`` builds the ``TotalComplex`` chain complexes
    and the lattice quotients of ``periodic.quotient_complex``.
    ``_trusted`` does not check it.  It builds the chain complexes whose
    boundaries square to zero by construction:

    - the simplicial chain complex (``chain_complex``), by the sign rule of
      ``simplex_boundary``;
    - the collapsed subcomplex (``collapse``), whose boundaries are
      restrictions of a valid complex's to a set of cells closed under
      faces, and so inherit the identity.
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

    @staticmethod
    def of_cells(basis: dict[int, list], faces) -> "IntegerChainComplex":
        """Chain complex on the labelled cells ``basis[d]``, where
        ``faces(label)`` lists the ``(sign, face label)`` pairs of a cell's
        boundary; a face must be a label of the degree below.

        A column maps each face's index to its sign, so a face listed twice
        would keep one sign where their sum is due. No caller lists one
        twice: a simplex's faces are distinct; two faces of one quotient
        simplex in the same lattice orbit would put a box and its own
        translate in one simplex, which ``BoxUnion`` rejects; and a
        ``TotalComplex`` cell's vertical faces ``(o, f)`` and horizontal
        faces ``(o', s)`` differ in their object, and the faces o' of o are
        distinct.
        """
        return IntegerChainComplex(basis=basis, boundaries=_cell_boundaries(basis, faces))

    @staticmethod
    def _trusted(basis, boundaries) -> "IntegerChainComplex":
        """Build without the ∂∂ = 0 check, for boundaries known to square
        to zero."""
        cc = object.__new__(IntegerChainComplex)
        object.__setattr__(cc, "basis", basis)
        object.__setattr__(cc, "boundaries", boundaries)
        return cc

    @cached_property
    def collapse(self) -> "Collapse":
        """Greedy elementary collapses, computed once per instance.

        A cell σ is free when it has exactly one coface τ left and
        ⟨∂τ,σ⟩ = ±1; the pair (σ, τ) is then removed.  No coface η of τ is
        left, since ⟨∂∂η,σ⟩ = ⟨∂η,τ⟩⟨∂τ,σ⟩ must vanish; so the cells left
        stay closed under faces, and their boundaries are restrictions of
        the parent's and square to zero without a new check.  The queue is
        seeded in (degree, basis index) order, and a cell joins it again
        when its cofaces drop to one.
        """
        bnd = self.boundaries
        cof = {d: [[] for _ in labels] for d, labels in self.basis.items()}
        for d in self.basis:
            for col, chain in bnd.get(d, {}).items():
                for row, v in chain.items():
                    if v:
                        cof[d - 1][row].append(col)
        left = {d: [len(c) for c in cs] for d, cs in cof.items()}
        alive = {d: [True] * len(cs) for d, cs in cof.items()}
        pairs: dict[int, list[tuple[int, int, int]]] = {d: [] for d in self.basis}
        queue = deque((d, i) for d in sorted(left)
                      for i, k in enumerate(left[d]) if k == 1)
        popleft, push = queue.popleft, queue.append
        while queue:
            d, s = popleft()
            counts = left[d]
            # a removed cell has no coface left
            if counts[s] != 1:
                continue
            up = alive[d + 1]
            for t in cof[d][s]:
                if up[t]:
                    break
            col = bnd[d + 1][t]
            c = col[s]
            if c != 1 and c != -1:
                continue
            alive[d][s] = up[t] = False
            pairs[d].append((s, t, c))
            # t's faces lose a coface, then so do s's
            for r, v in col.items():
                if v:
                    counts[r] -= 1
                    if counts[r] == 1:
                        push((d, r))
            faces = bnd[d].get(s) if d in bnd else None
            if faces:
                counts = left[d - 1]
                for r, v in faces.items():
                    if v:
                        counts[r] -= 1
                        if counts[r] == 1:
                            push((d - 1, r))

        cells = {d: [i for i, a in enumerate(flags) if a] for d, flags in alive.items()}
        index = {d: {i: k for k, i in enumerate(cs)} for d, cs in cells.items()}
        boundaries = {}
        for d, cols in bnd.items():
            rows = index.get(d - 1, {})
            boundaries[d] = {
                k: {rows[r]: v for r, v in cols[i].items() if v}
                for k, i in enumerate(cells.get(d, ())) if i in cols}
        basis = {d: [self.basis[d][i] for i in cs] for d, cs in cells.items()}
        return Collapse(IntegerChainComplex._trusted(basis, boundaries), cells, pairs)

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


def _cell_boundaries(basis: dict[int, list], faces) -> dict[int, dict[int, dict[int, int]]]:
    """Sparse boundary columns of the cells ``basis[d]`` from ``faces``, as
    ``IntegerChainComplex.of_cells`` describes; raises
    ``ChainComplexError`` when a face is not a cell of the degree below."""
    boundaries: dict[int, dict[int, dict[int, int]]] = {}
    for d, labels in basis.items():
        if d == 0:
            continue
        index = {f: i for i, f in enumerate(basis.get(d - 1, ()))}
        cols = {}
        for col, label in enumerate(labels):
            cell_faces = faces(label)
            try:
                cols[col] = {index[f]: sign for sign, f in cell_faces}
            except KeyError as e:
                raise ChainComplexError(
                    f"face {e.args[0]!r} of {label!r} is not a cell of "
                    f"degree {d - 1}") from None
        boundaries[d] = cols
    return boundaries


@dataclass(frozen=True)
class Collapse:
    """A complex's collapsed subcomplex ``cc``.

    ``cells[d]`` lists the parent's degree-d basis positions of the cells
    left, in order, so ``cc.basis[d][k]`` is the parent's
    ``basis[d][cells[d][k]]``.  ``pairs[d]`` lists the removed pairs
    ``(σ, τ, ⟨∂τ,σ⟩)`` whose free face σ has degree d, as parent basis
    positions, in collapse order.
    """

    cc: IntegerChainComplex
    cells: dict[int, list[int]]
    pairs: dict[int, list[tuple[int, int, int]]]


def chain_complex(c: SimplicialComplex) -> IntegerChainComplex:
    """Simplicial chain complex with bases sorted lexicographically.

    Raises ``ChainComplexError`` when a face of a simplex of ``c`` is not
    in ``c``.  The complex is built with ``IntegerChainComplex._trusted``:
    simplicial boundaries square to zero by the sign rule (Kaczynski,
    Mischaikow and Mrozek, *Computational Homology*, ch. 2).  For a
    simplex s = (v_0, ..., v_n), ``simplex_boundary`` gives
    ∂s = Σ_i (-1)^i s∖v_i.  In ∂∂s, the face s∖{v_j, v_i} with j < i comes
    from dropping v_i first (sign (-1)^i, then v_j sits at position j,
    sign (-1)^j) and from dropping v_j first (sign (-1)^j, then v_i sits at
    position i - 1, sign (-1)^(i-1)).  The two terms cancel, and they are
    the only ones, since the n + 1 facets of s are distinct.
    """
    basis: list[list] = [[] for _ in range(c.dimension + 1)]
    for s in c.simplices:
        basis[len(s) - 1].append(s)
    for labels in basis:
        labels.sort()
    basis = dict(enumerate(basis))
    return IntegerChainComplex._trusted(basis, _cell_boundaries(basis, simplex_boundary))


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
    """Betti numbers and torsion of ker(boundary)/im(boundary) per degree,
    read from the Smith normal forms of the collapsed complex."""
    if degrees is None:
        degrees = cc.degrees()
    small = cc.collapse.cc
    ranks: dict[int, tuple[int, tuple[int, ...]]] = {}

    def rk(d):
        if d not in ranks:
            ranks[d] = _boundary_rank_and_factors(small, d)
        return ranks[d]

    entries = {}
    nonempty = any(cc.dim(d) for d in cc.degrees())
    for d in degrees:
        if cc.dim(d) == 0:
            continue
        rank_d = rk(d)[0] if small.dim(d - 1) else 0
        rank_up, factors_up = rk(d + 1) if small.dim(d + 1) else (0, ())
        betti = small.dim(d) - rank_d - rank_up
        torsion = tuple(f for f in factors_up if f > 1)
        if reduced and d == 0 and nonempty:
            betti -= 1
        entries[d] = (betti, torsion)
    return HomologySummary.of(entries)


def homology_of_complex(c: SimplicialComplex, reduced: bool = False) -> HomologySummary:
    """``homology(chain_complex(c), reduced=reduced)``.

    A complex of dimension at most 1 is a graph with V vertices, E edges
    and C components: H_0 = Z^C and H_1 = Z^(E - V + C), with no torsion.
    C comes from one union-find over the edges (Tarjan, JACM 1975), and no
    chain complex, collapse or Smith normal form is built.  An edge whose
    endpoint is not a vertex raises ``ChainComplexError`` as
    ``chain_complex`` does.
    """
    if c.dimension > 1:
        return homology(chain_complex(c), reduced=reduced)
    vertices = [s[0] for s in c.simplices if len(s) == 1]
    edges = [s for s in c.simplices if len(s) == 2]
    try:
        components = len(set(_component_labels(vertices, edges).values()))
    except KeyError as e:
        raise ChainComplexError(
            f"face {(e.args[0],)!r} of an edge is not a cell of degree 0") from None
    entries = {}
    if vertices:
        entries[0] = (components - 1 if reduced else components, ())
    if edges:
        entries[1] = (len(edges) - len(vertices) + components, ())
    return HomologySummary.of(entries)


class DegreeHomology:
    """Homology of one degree with an explicit, deterministic generator basis.

    Generators are cycles; ``orders[i]`` is 0 for a free generator and the
    torsion order otherwise.  ``coordinates`` expresses any cycle in this
    basis (torsion coordinates reduced into [0, order)).

    The normal forms run on ``cc.collapse.cc``, the collapsed subcomplex,
    so the basis comes from the collapse order plus the Smith normal form.
    Its cycles are cycles of ``cc`` and the inclusion is a chain
    equivalence, so generators are embedded back into ``cc``'s degree-d
    basis.  A cycle of ``cc`` is pushed into the subcomplex by walking the
    degree-d pairs (σ, τ) in collapse order and subtracting
    ``x_σ·⟨∂τ,σ⟩·∂τ`` at each: every step changes x by a boundary and clears
    σ, and a later ∂τ never has an earlier σ as a face.

    In the subcomplex, one Smith normal form ``U ∂_d V = D`` (rank r) gives
    both the cycle lattice and coordinates in it.  Columns r..n-1 of ``V``
    are a basis of the cycles.  A cycle ``x = V y`` has
    ``U⁻¹ D y = ∂x = 0``, so ``y[:r] = 0`` and its kernel coordinates are
    ``(V⁻¹ x)[r:]``.  Rows r..n-1 of ``V⁻¹`` are regrouped by chain
    position, so a sparse cycle touches only its own entries; both
    transforms are read as the sparse lines the normal form keeps, and no
    dense n×n matrix is built.  Whether a vector is a cycle is decided by an
    exact sparse product with the boundary columns of ``cc``'s ∂_d.
    The boundaries of ∂_{d+1} in these coordinates are the relations whose
    own normal form picks the generators and their orders.
    """

    def __init__(self, cc: IntegerChainComplex, d: int):
        self.cc = cc
        self.d = d
        self.n = cc.dim(d)
        self._boundary = cc.boundaries.get(d, {}) if cc.dim(d - 1) else {}
        collapse = cc.collapse
        small = collapse.cc
        cells = collapse.cells.get(d, [])
        self._index = {i: k for k, i in enumerate(cells)}
        self._pairs = collapse.pairs.get(d, ())
        n = small.dim(d)
        boundary = small.boundaries.get(d, {}) if small.dim(d - 1) else {}
        # kernel basis columns of V, and per chain index i the nonzero
        # entries {k: V⁻¹[r + k][i]}
        if not boundary:
            kernel = [{j: 1} for j in range(n)]
            self._coord_cols = [{i: 1} for i in range(n)]
        else:
            res = smith_normal_form(small.dense_boundary(d), want_u=False)
            r = res.rank
            kernel = res.v_cols[r:]
            self._coord_cols = [{} for _ in range(n)]
            for k, row in enumerate(res.v_inv_rows[r:]):
                for i, v in row.items():
                    self._coord_cols[i][k] = v
        z = len(kernel)
        self.z = z

        # boundaries are cycles (∂∂ = 0 holds in every IntegerChainComplex,
        # checked at construction or known for the trusted ones), so their
        # kernel coordinates need no cycle check
        up = small.boundaries.get(d + 1, {})
        relation_cols = [
            self._kernel_coords(up.get(col, {})) for col in range(small.dim(d + 1))
        ] if z else []
        if relation_cols:
            rel = [[col[i] for col in relation_cols] for i in range(z)]
            res = smith_normal_form(rel, want_v=False)
            dfac = list(res.factors) + [0] * (z - res.rank)
            u_rows, u_inv_cols = res.u_rows, res.u_inv_cols
        else:
            dfac = [0] * z
            u_rows = u_inv_cols = [{i: 1} for i in range(z)]
        self.kept = [i for i in range(z) if dfac[i] != 1]
        self.orders = [dfac[i] for i in self.kept]
        # only the kept rows of U matter for coordinates
        self._u_rows = [u_rows[i] for i in self.kept]
        self.generators = []
        for i in self.kept:
            gen = [0] * self.n
            for k, c in u_inv_cols[i].items():
                for row, v in kernel[k].items():
                    gen[cells[row]] += c * v
            self.generators.append(gen)

    def _kernel_coords(self, chain: dict[int, int]) -> list[int]:
        """(V⁻¹ x)[r:] for a cycle x of the collapsed complex given as
        {index: value}."""
        y = [0] * self.z
        cols = self._coord_cols
        for i, x in chain.items():
            for k, v in cols[i].items():
                y[k] += x * v
        return y

    def _collapsed(self, chain: dict[int, int]) -> dict[int, int]:
        """A cycle of ``cc``, moved by boundaries onto the collapsed
        complex and indexed by its basis."""
        if self._pairs:
            up = self.cc.boundaries[self.d + 1]
            for s, t, c in self._pairs:
                x = chain.get(s)
                if x:
                    for r, v in up[t].items():
                        chain[r] = chain.get(r, 0) - x * c * v
        index = self._index
        return {index[i]: x for i, x in chain.items() if x}

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
        if len(cycle) != self.n:
            raise ChainComplexError(
                f"vector of length {len(cycle)} in degree {self.d}, "
                f"which has {self.n} cells")
        chain = {i: x for i, x in enumerate(cycle) if x}
        if not self._is_cycle(chain):
            return None
        y = self._kernel_coords(self._collapsed(chain))
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


def induced_map_on_homology(cm: ChainMap, src_h: DegreeHomology,
                            dst_h: DegreeHomology) -> InducedMap:
    """Matrix of the map the chain map ``cm`` induces from ``src_h`` to
    ``dst_h``, homology of one degree, in their generator bases, with an
    exact zero-map flag.  Raises ``ChainComplexError`` when ``cm`` sends a
    generator to a vector that is not a cycle."""
    cols = []
    zero = True
    for g in src_h.generators:
        coords = dst_h.coordinates(apply_chain_map(cm, src_h.d, g, dst_h.n))
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


def induced_map_is_isomorphism(m: InducedMap) -> bool:
    """Whether the induced map is an isomorphism, from one normal form.

    ``orders`` are invariant factors other than 1, plus a 0 per free
    generator, as ``DegreeHomology`` gives them; two such groups are
    isomorphic exactly when their sorted orders are equal.  Finitely
    generated abelian groups are Hopfian (Mal'cev, *Mat. Sb.* 8, 1940): an
    onto map between two isomorphic ones is an isomorphism, since composed
    with an isomorphism back it is an onto endomorphism, hence injective.
    So the map is an isomorphism exactly when the orders agree and it is
    onto, that is, when the columns of ``[matrix | diag(target_orders)]``
    generate Z^rows: rank ``rows`` with every invariant factor 1."""
    if sorted(m.source_orders) != sorted(m.target_orders):
        return False
    rows = len(m.target_orders)
    if not rows:
        return True
    aug = [list(m.matrix[i]) + [m.target_orders[i] if j == i else 0 for j in range(rows)]
           for i in range(rows)]
    res = smith_normal_form(aug, want_u=False, want_v=False)
    return res.rank == rows and all(f == 1 for f in res.factors)


# ---------------------------------------------------------------------------
# total complexes of coefficient diagrams
# ---------------------------------------------------------------------------


class TotalComplex:
    """Total complex of a one-directional coefficient diagram.

    ``objects`` are vertex tuples indexing the horizontal direction; an
    object o has horizontal degree ``len(o) - 1``, and its faces are o with
    one position dropped (a 1-tuple has none).  ``coeff(o)`` is the simplex
    set of its coefficient subcomplex.  Coefficient maps along faces are
    simplex-identity inclusions, so the coefficients of each face of o must
    contain coeff(o).

    A cell ``(o, s)`` has vertical faces ``(o, f)`` for the faces f of s and
    horizontal faces ``(o', s)`` for the faces o' of o; both carry the signs
    of ``simplex_boundary``, the horizontal ones times ``(-1) ** dim s``.
    """

    def __init__(self, objects, coeff):
        self.objects = sorted(objects, key=lambda o: (len(o), o))
        self.coeff = {o: frozenset(coeff(o)) for o in self.objects}
        basis: dict[int, list] = {}
        for o in self.objects:
            k = len(o) - 1
            for s in self.coeff[o]:
                basis.setdefault(k + len(s) - 1, []).append((o, s))
        for d in basis:
            basis[d].sort()

        def faces(cell):
            o, s = cell
            vsign = (-1) ** (len(s) - 1)
            out = [(sign, (o, f)) for sign, f in simplex_boundary(s)]
            out += [(vsign * sign, (f, s)) for sign, f in simplex_boundary(o)]
            return out

        self.cc = IntegerChainComplex.of_cells(basis, faces)

    @cached_property
    def index(self) -> dict:
        """Per degree, each cell label's basis position."""
        return {d: {lab: i for i, lab in enumerate(labels)}
                for d, labels in self.cc.basis.items()}

    def lift_cycle(self, cycle: dict[tuple, int], d: int):
        """Zig-zag a degree-d cycle of the union into a total-complex cycle.

        Each simplex of the cycle goes to the first horizontal-degree-0
        object whose coefficients hold it; then, column by column, a chain
        one column to the right cancels what is left of the boundary.
        Returns the lifted vector; raises if some stage is unsolvable (which
        would mean the diagram's rows are not exact).
        """
        homes = [o for o in self.objects if len(o) == 1]
        current = [0] * self.cc.dim(d)
        for s, v in cycle.items():
            if not v:
                continue
            home = next((o for o in homes if s in self.coeff[o]), None)
            if home is None:
                raise ChainComplexError(f"cycle simplex {s} not covered by the diagram")
            current[self.index[d][(home, s)]] += v
        for k in range(d):
            defect = self._vertical_defect(current, d, k)
            if not defect:
                break
            for col, v in self._solve_horizontal(defect, k, d).items():
                current[col] += v
        return current

    def _vertical_defect(self, vec, d, k):
        """Component of the boundary of vec in (horizontal k, vertical d-1-k)."""
        out: dict[tuple, int] = {}
        bnd = self.cc.boundaries.get(d, {})
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

    def _solve_horizontal(self, defect, k, d):
        """A degree-d chain on horizontal-degree-(k+1) cells whose boundary's
        horizontal-degree-k part is -defect, as ``{basis index: value}``.
        The matrix is the block of the boundary ``cc.boundaries[d]`` between
        those two columns."""
        cols = [i for i, (o, _) in enumerate(self.cc.basis[d]) if len(o) == k + 2]
        low = self.cc.basis[d - 1]
        rows = {i: p for p, i in enumerate(
            i for i, (o, _) in enumerate(low) if len(o) == k + 1)}
        b = [-defect.get(low[i], 0) for i in rows]
        if not cols:
            if any(b):
                raise ChainComplexError("horizontal lift unsolvable: no sources")
            return {}
        matrix = [[0] * len(cols) for _ in rows]
        bnd = self.cc.boundaries[d]
        for c, col in enumerate(cols):
            for row, v in bnd[col].items():
                if row in rows:
                    matrix[rows[row]][c] = v
        x = solve_integer(matrix, b)
        if x is None:
            raise ChainComplexError("horizontal lift unsolvable (rows not exact?)")
        return {col: x[c] for c, col in enumerate(cols) if x[c]}
