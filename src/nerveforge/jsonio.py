"""JSON (de)serialization for every wire format the tool exposes.

Rationals travel as "p/q" strings; complexes as vertex/simplex lists with
faces implied; all loaders validate and raise ValueError subclasses on bad
input.
"""

from __future__ import annotations

from fractions import Fraction

from .clumps import Patch, PatchSystem
from .euclid import Arrangement, EuclideanIsometry
from .lattices import LatticeSubgroup
from .nilpotent import UnitriangularGroup
from .periodic import Box, BoxUnion, FiniteCoverSpec
from .simplicial import ComplexError, SimplicialComplex, close_downward
from .covers import Cover


class FormatError(ValueError):
    pass


def rational_to_json(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rational_from_json(x) -> Fraction:
    if isinstance(x, bool):
        raise FormatError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad rational {x!r}") from e
    raise FormatError(f"not a rational: {x!r}")


def complex_to_json(c: SimplicialComplex) -> dict:
    return {
        "vertices": sorted(c.vertices),
        "simplices": [list(s) for s in sorted(c.simplices, key=lambda s: (len(s), s))],
    }


def _label(x):
    """Vertex label from JSON: arrays (tuples written as JSON text) become
    tuples again, recursively, so that labels stay hashable."""
    if isinstance(x, list):
        return tuple(_label(y) for y in x)
    return x


def _simplex(s) -> tuple:
    return tuple(_label(v) for v in s)


def complex_from_json(data: dict) -> SimplicialComplex:
    if not isinstance(data, dict) or "simplices" not in data:
        raise FormatError("complex JSON needs a 'simplices' list")
    raw = [_simplex(s) for s in data["simplices"]]
    if len(set(raw)) != len(raw):
        raise FormatError("duplicate simplices in complex JSON")
    verts = [(_label(v),) for v in data.get("vertices", [])]
    try:
        simplices = close_downward(list(raw) + verts)
        return SimplicialComplex(simplices)
    except ComplexError as e:
        raise FormatError(str(e)) from e


def subcomplex_from_json(ambient: SimplicialComplex, data) -> frozenset:
    simplices = close_downward([_simplex(s) for s in data])
    if not simplices <= ambient.simplices:
        raise FormatError("piece is not inside the ambient complex")
    return simplices


def cover_to_json(cover: Cover) -> dict:
    return {
        "ambient": complex_to_json(cover.ambient),
        "pieces": {
            str(i): [list(s) for s in sorted(sub, key=lambda s: (len(s), s))]
            for i, sub in sorted(cover.pieces.items(), key=lambda kv: str(kv[0]))
        },
        "covering": cover.covering,
    }


def cover_from_json(data: dict) -> Cover:
    ambient = complex_from_json(data["ambient"])
    pieces = {
        key: subcomplex_from_json(ambient, val)
        for key, val in data["pieces"].items()
    }
    return Cover(ambient, pieces, covering=bool(data.get("covering", False)))


def group_to_json(g) -> dict:
    if isinstance(g, LatticeSubgroup):
        return {"kind": "lattice", "ambient": g.ambient, "rows": [list(r) for r in g.basis]}
    if isinstance(g, UnitriangularGroup):
        return {
            "kind": "unitriangular",
            "size": g.size,
            "generators": [[list(row) for row in m] for m in g.generators],
        }
    raise FormatError(f"unknown group object {type(g).__name__}")


def group_from_json(data: dict):
    kind = data.get("kind")
    if kind == "lattice":
        return LatticeSubgroup.from_generators(data["rows"], int(data["ambient"]))
    if kind == "unitriangular":
        gens = tuple(tuple(tuple(int(x) for x in row) for row in m)
                     for m in data["generators"])
        return UnitriangularGroup(int(data["size"]), gens)
    raise FormatError(f"unknown group kind {kind!r}")


def patch_system_to_json(ps: PatchSystem) -> dict:
    cover = {
        "ambient": complex_to_json(ps.ambient),
        "pieces": {
            str(i): [list(s) for s in sorted(p.support, key=lambda s: (len(s), s))]
            for i, p in sorted(ps.patches.items(), key=lambda kv: str(kv[0]))
        },
    }
    cover["groups"] = {
        str(i): group_to_json(p.group)
        for i, p in sorted(ps.patches.items(), key=lambda kv: str(kv[0]))
    }
    cover["flags"] = {
        str(i): {"parabolic": p.parabolic, "rank": p.rank_annotation}
        for i, p in sorted(ps.patches.items(), key=lambda kv: str(kv[0]))
        if p.parabolic or p.rank_annotation is not None
    }
    if ps.enlargements:
        cover["enlargements"] = {
            ",".join(map(str, key)): [list(s) for s in sorted(sub, key=lambda s: (len(s), s))]
            for key, sub in sorted(ps.enlargements.items(), key=lambda kv: tuple(map(str, kv[0])))
        }
    return cover


def _parse_index(raw: str):
    return int(raw) if raw.lstrip("-").isdigit() else raw


def patch_system_from_json(data: dict) -> PatchSystem:
    ambient = complex_from_json(data["ambient"])
    groups = data.get("groups", {})
    flags = data.get("flags", {})
    patches = {}
    for key, val in data["pieces"].items():
        idx = _parse_index(key)
        if key not in groups:
            raise FormatError(f"patch {key!r} has no group label")
        g = group_from_json(groups[key])
        if not isinstance(g, LatticeSubgroup):
            raise FormatError("patch labels must be lattice subgroups")
        f = flags.get(key, {})
        patches[idx] = Patch(
            support=subcomplex_from_json(ambient, val),
            group=g,
            parabolic=bool(f.get("parabolic", False)),
            rank_annotation=f.get("rank"),
        )
    enlargements = {}
    for key, val in data.get("enlargements", {}).items():
        idx = tuple(sorted(_parse_index(p) for p in key.split(",")))
        enlargements[idx] = subcomplex_from_json(ambient, val)
    return PatchSystem(ambient=ambient, patches=patches, enlargements=enlargements)


def isometry_to_json(g: EuclideanIsometry) -> dict:
    return {
        "A": [[rational_to_json(x) for x in row] for row in g.a],
        "b": [rational_to_json(x) for x in g.b],
    }


def isometry_from_json(data: dict) -> EuclideanIsometry:
    a = [[rational_from_json(x) for x in row] for row in data["A"]]
    b = [rational_from_json(x) for x in data["b"]]
    return EuclideanIsometry.of(a, b)


def arrangement_to_json(arr: Arrangement) -> dict:
    out = {
        "dim": arr.dim,
        "base": arr.base,
        "groups": [[isometry_to_json(g) for g in gens] for gens in arr.groups],
    }
    if arr.pieces:
        out["pieces"] = [list(p) for p in arr.pieces]
    return out


def arrangement_from_json(data: dict) -> Arrangement:
    groups = tuple(
        tuple(isometry_from_json(g) for g in gens) for gens in data["groups"]
    )
    pieces = tuple(tuple(int(i) for i in p) for p in data.get("pieces", []))
    return Arrangement(
        dim=int(data["dim"]), base=int(data["base"]), groups=groups, pieces=pieces
    )


def box_union_to_json(bu: BoxUnion) -> dict:
    return {
        "dim": bu.dim,
        "lattice": [list(r) for r in bu.lattice.basis],
        "boxes": [
            {"lo": [rational_to_json(x) for x in b.lo],
             "hi": [rational_to_json(x) for x in b.hi]}
            for b in bu.boxes
        ],
    }


def box_union_from_json(data: dict) -> BoxUnion:
    dim = int(data["dim"])
    lattice = LatticeSubgroup.from_generators(data.get("lattice", []), dim)
    boxes = tuple(
        Box.of([rational_from_json(x) for x in b["lo"]],
               [rational_from_json(x) for x in b["hi"]])
        for b in data["boxes"]
    )
    return BoxUnion(dim=dim, lattice=lattice, boxes=boxes)


def cover_spec_from_json(data: dict, rank: int) -> FiniteCoverSpec:
    return FiniteCoverSpec.of(data["sublattice"], rank)
