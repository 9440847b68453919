"""JSON (de)serialization for every wire format the tool exposes.

Rationals travel as "p/q" strings; complexes as vertex/simplex lists with
faces implied.

The ``*_from_json`` readers are where input is validated.  Each one builds
its objects through the validating constructors (``close_downward``,
``Cover``, ``PatchSystem``, ``Arrangement``, ``EuclideanIsometry.of``,
``BoxUnion.of``, ...), and raises a ``ValueError`` subclass on bad
input: ``FormatError`` for input of the wrong shape (a missing key, a value
of the wrong type, vertex ids of mixed types) and the constructors' own
errors for well-formed input that violates their conditions.

The ``*_to_json`` writers trust their objects.  ``_cover_json``,
``_patch_system_json``, ``_arrangement_json`` and ``_box_union_json``
write the cover, patch-system, arrangement and box-union payloads from the
parts, without building the object, for the scenario generators; the
readers build and validate it once, when the payload is read.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .clumps import Patch, PatchSystem
from .euclid import Arrangement, EuclideanIsometry
from .lattices import LatticeSubgroup
from .periodic import BoxUnion, FiniteCoverSpec
from .simplicial import ComplexError, SimplicialComplex, close_downward
from .covers import Cover


class FormatError(ValueError):
    pass


def _reader(read):
    """``read`` with malformed input reported as ``FormatError``.  Inside a
    reader, a ``KeyError``, ``IndexError``, ``TypeError``,
    ``AttributeError`` or plain ``ValueError`` (``int("x")``) comes from
    input of the wrong shape, and a ``ComplexError`` from simplices that are
    not valid complex input.  The constructors' own errors pass through."""
    @functools.wraps(read)
    def checked(*args, **kwargs):
        try:
            return read(*args, **kwargs)
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as e:
            if isinstance(e, ValueError) and type(e) not in (ValueError, ComplexError):
                raise
            raise FormatError(f"{read.__name__}: {type(e).__name__}: {e}") from e
    return checked


def rational_to_json(x) -> str:
    """``x`` as a "p/q" string in lowest terms; a ``Fraction`` is read as it
    is, anything else is made one first."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# "p" or "p/q" in ASCII digits, as ``rational_to_json`` writes them
_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rational_from_json(x) -> Fraction:
    """A JSON int, or a string that ``Fraction`` reads, as a ``Fraction``;
    ``FormatError`` for anything else.

    A string of the form "p" or "p/q" with ASCII digits is read with
    ``int``, which gives what ``Fraction(x)`` gives, at a fraction of its
    cost; every other string goes through ``Fraction(x)``."""
    if isinstance(x, bool):
        raise FormatError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            if _PLAIN_RATIONAL.fullmatch(x):
                p, _, q = x.partition("/")
                return Fraction(int(p), int(q)) if q else Fraction(int(p))
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad rational {x!r}") from e
    raise FormatError(f"not a rational: {x!r}")


def _write_simplices(simplices) -> list:
    return [list(s) for s in sorted(simplices, key=lambda s: (len(s), s))]


def complex_to_json(c: SimplicialComplex) -> dict:
    return {"vertices": sorted(c.vertices), "simplices": _write_simplices(c.simplices)}


def _label(x):
    """Vertex label from JSON: arrays (tuples written as JSON text) become
    tuples again, recursively, so that labels stay hashable."""
    if isinstance(x, list):
        return tuple(_label(y) for y in x)
    return x


def _list(x, what: str) -> list:
    """``x``, which must be a JSON array: a string or an object would
    otherwise be read as one, by its characters or keys."""
    if not isinstance(x, list):
        raise FormatError(f"{what} must be a list, not {type(x).__name__}")
    return x


def _read_simplices(data, what: str) -> list:
    """The simplex lists of ``data`` as label tuples."""
    return [tuple(_label(v) for v in _list(s, "a simplex")) for s in _list(data, what)]


@_reader
def complex_from_json(data: dict) -> SimplicialComplex:
    if not isinstance(data, dict) or "simplices" not in data:
        raise FormatError("complex JSON needs a 'simplices' list")
    raw = _read_simplices(data["simplices"], "'simplices'")
    if len(set(raw)) != len(raw):
        raise FormatError("duplicate simplices in complex JSON")
    verts = [(_label(v),) for v in _list(data.get("vertices", []), "'vertices'")]
    return SimplicialComplex(close_downward(raw + verts))


@_reader
def subcomplex_from_json(ambient: SimplicialComplex, data) -> frozenset:
    simplices = close_downward(_read_simplices(data, "a piece"))
    if not simplices <= ambient.simplices:
        raise FormatError("piece is not inside the ambient complex")
    return simplices


def _by_str_key(items: dict) -> list:
    return sorted(items.items(), key=lambda kv: str(kv[0]))


def _cover_json(ambient: SimplicialComplex, pieces: dict) -> dict:
    """The payload that ``cover_from_json`` reads as
    ``Cover(ambient, pieces, covering=False)``, written from the parts
    without building the cover."""
    return {
        "ambient": complex_to_json(ambient),
        "pieces": {str(i): _write_simplices(sub) for i, sub in _by_str_key(pieces)},
        "covering": False,
    }


@_reader
def cover_from_json(data: dict) -> Cover:
    ambient = complex_from_json(data["ambient"])
    pieces = {
        key: subcomplex_from_json(ambient, val)
        for key, val in data["pieces"].items()
    }
    return Cover(ambient, pieces, covering=bool(data.get("covering", False)))


def group_to_json(g: LatticeSubgroup) -> dict:
    return {"kind": "lattice", "ambient": g.ambient, "rows": [list(r) for r in g.basis]}


@_reader
def group_from_json(data: dict) -> LatticeSubgroup:
    kind = data.get("kind")
    if kind != "lattice":
        raise FormatError(f"unknown group kind {kind!r}")
    return LatticeSubgroup.from_generators(data["rows"], int(data["ambient"]))


def patch_system_to_json(ps: PatchSystem) -> dict:
    return _patch_system_json(ps.ambient, ps.patches, ps.enlargements)


def _patch_system_json(ambient: SimplicialComplex, patches: dict, enlargements: dict) -> dict:
    """``patch_system_to_json(PatchSystem(ambient, patches, enlargements))``,
    written from the parts without building the patch system."""
    order = _by_str_key(patches)
    out = {
        "ambient": complex_to_json(ambient),
        "pieces": {str(i): _write_simplices(p.support) for i, p in order},
        "groups": {str(i): group_to_json(p.group) for i, p in order},
        "flags": {
            str(i): {"parabolic": p.parabolic, "rank": p.rank_annotation}
            for i, p in order if p.parabolic or p.rank_annotation is not None
        },
    }
    if enlargements:
        out["enlargements"] = {
            ",".join(map(str, key)): _write_simplices(sub)
            for key, sub in sorted(enlargements.items(), key=lambda kv: tuple(map(str, kv[0])))
        }
    return out


def _parse_index(raw: str):
    return int(raw) if raw.lstrip("-").isdigit() else raw


@_reader
def patch_system_from_json(data: dict) -> PatchSystem:
    ambient = complex_from_json(data["ambient"])
    groups = data.get("groups", {})
    flags = data.get("flags", {})
    patches = {}
    for key, val in data["pieces"].items():
        idx = _parse_index(key)
        if idx in patches:
            raise FormatError(f"piece keys {key!r} and an earlier one name patch {idx!r}")
        if key not in groups:
            raise FormatError(f"patch {key!r} has no group label")
        f = flags.get(key, {})
        patches[idx] = Patch(
            support=subcomplex_from_json(ambient, val),
            group=group_from_json(groups[key]),
            parabolic=bool(f.get("parabolic", False)),
            rank_annotation=f.get("rank"),
        )
    enlargements = {}
    for key, val in data.get("enlargements", {}).items():
        idx = tuple(sorted(_parse_index(p) for p in key.split(",")))
        if idx in enlargements:
            raise FormatError(f"enlargement keys {key!r} and an earlier one name {idx!r}")
        enlargements[idx] = subcomplex_from_json(ambient, val)
    return PatchSystem(ambient=ambient, patches=patches, enlargements=enlargements)


def isometry_to_json(g: EuclideanIsometry) -> dict:
    return {
        "A": [[rational_to_json(x) for x in row] for row in g.a],
        "b": [rational_to_json(x) for x in g.b],
    }


@_reader
def isometry_from_json(data: dict) -> EuclideanIsometry:
    a = [[rational_from_json(x) for x in row] for row in data["A"]]
    b = [rational_from_json(x) for x in data["b"]]
    return EuclideanIsometry.of(a, b)


def _arrangement_json(dim: int, base: int, groups, pieces=()) -> dict:
    """The payload that ``arrangement_from_json`` reads as
    ``Arrangement(dim, base, groups, pieces)``, written from the parts
    without building the arrangement."""
    out = {
        "dim": dim,
        "base": base,
        "groups": [[isometry_to_json(g) for g in gens] for gens in groups],
    }
    if pieces:
        out["pieces"] = [list(p) for p in pieces]
    return out


@_reader
def arrangement_from_json(data: dict) -> Arrangement:
    groups = tuple(
        tuple(isometry_from_json(g) for g in gens) for gens in data["groups"]
    )
    pieces = tuple(tuple(int(i) for i in p) for p in data.get("pieces", []))
    return Arrangement(
        dim=int(data["dim"]), base=int(data["base"]), groups=groups, pieces=pieces
    )


def _box_union_json(dim: int, rows, corners) -> dict:
    """The payload that ``box_union_from_json`` reads as
    ``BoxUnion.of(dim, rows, corners)``, written from the parts without
    building the union. The lattice rows are written as given, so they
    should be in Hermite normal form, as ``construct.lattice_boxes``
    gives them."""
    return {
        "dim": dim,
        "lattice": [list(r) for r in rows],
        "boxes": [
            {"lo": [rational_to_json(x) for x in lo],
             "hi": [rational_to_json(x) for x in hi]}
            for lo, hi in corners
        ],
    }


@_reader
def box_union_from_json(data: dict) -> BoxUnion:
    dim = int(data["dim"])
    corners = [([rational_from_json(x) for x in b["lo"]], [rational_from_json(x) for x in b["hi"]])
               for b in data["boxes"]]
    return BoxUnion.of(dim, data.get("lattice", []), corners)


@_reader
def cover_spec_from_json(data: dict, rank: int) -> FiniteCoverSpec:
    return FiniteCoverSpec.of(data["sublattice"], rank)
