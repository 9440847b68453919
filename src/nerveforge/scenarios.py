"""Scenarios: constants with the scale ladder, deterministic generators, and
the canonical JSON envelope consumed by the verifier."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import construct
from .clumps import Patch, PatchSystem
from .construct import grid_complex, interval_subcomplex, path_complex, rect_subcomplex
from .euclid import EuclideanIsometry, block_diagonal, pythagorean_rotation
from .jsonio import (
    _arrangement_json,
    _cover_json,
    _patch_system_json,
    box_union_to_json,
    isometry_to_json,
    patch_system_to_json,
    rational_from_json,
    rational_to_json,
)
from .lattices import LatticeSubgroup
from .snf import identity_matrix


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Constants:
    """Scale-ladder constants; the base plays the factorial-bound role."""

    n: int
    base: int
    epsilon: Fraction
    mu: Fraction | None = None
    lam: Fraction | None = None

    def __post_init__(self):
        if self.n < 1 or self.base < 1:
            raise ScenarioError("n and base must be positive")
        for v in (self.epsilon, self.mu, self.lam):
            if v is not None and v <= 0:
                raise ScenarioError("constants must be positive rationals")


@dataclass(frozen=True)
class ScaleLadder:
    epsilon1: Fraction      # enlarged patch scale
    epsilon2: Fraction      # second enlargement scale
    threshold: Fraction | None
    ok: bool


def scale_ladder(c: Constants) -> ScaleLadder:
    """epsilon' = base * 3^n * epsilon, epsilon'' = 3^n * base * epsilon', and
    the thin-part gate epsilon < mu / (base^(2^(n-3)+2) * 3^n)."""
    factor = c.base * 3 ** c.n
    eps1 = factor * c.epsilon
    eps2 = factor * eps1
    threshold = None
    ok = True
    if c.mu is not None:
        if c.n < 3:
            raise ScenarioError("thin-part threshold needs n >= 3")
        threshold = c.mu / (c.base ** (2 ** (c.n - 3) + 2) * 3 ** c.n)
        ok = c.epsilon < threshold
    return ScaleLadder(epsilon1=eps1, epsilon2=eps2, threshold=threshold, ok=ok)


def constants_to_json(c: Constants) -> dict:
    out = {"n": c.n, "base": c.base, "epsilon": rational_to_json(c.epsilon)}
    if c.mu is not None:
        out["mu"] = rational_to_json(c.mu)
    if c.lam is not None:
        out["lambda"] = rational_to_json(c.lam)
    return out


def _require(data: dict, keys, what: str):
    missing = [k for k in keys if k not in data]
    if missing:
        raise ScenarioError(f"missing {', '.join(map(repr, missing))} in {what}")


def constants_from_json(data: dict) -> Constants:
    _require(data, ("n", "base", "epsilon"), "constants")
    return Constants(
        n=int(data["n"]),
        base=int(data["base"]),
        epsilon=rational_from_json(data["epsilon"]),
        mu=rational_from_json(data["mu"]) if "mu" in data else None,
        lam=rational_from_json(data["lambda"]) if "lambda" in data else None,
    )


KINDS = ("cover", "patch-system", "arrangement", "box-union", "composite")


@dataclass(frozen=True)
class Scenario:
    kind: str
    payload: dict
    constants: Constants | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        if self.constants is not None and self.constants.mu is not None:
            ladder = scale_ladder(self.constants)
            if not ladder.ok:
                raise ScenarioError(
                    "constants violate the declared thin-part inequality")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "payload": self.payload, "seed": self.seed}
        if self.constants is not None:
            out["constants"] = constants_to_json(self.constants)
        return out

    @staticmethod
    def from_json(data: dict) -> "Scenario":
        _require(data, ("kind", "payload"), "scenario envelope")
        constants = None
        if "constants" in data:
            constants = constants_from_json(data["constants"])
        return Scenario(
            kind=data["kind"],
            payload=data["payload"],
            constants=constants,
            seed=int(data.get("seed", 0)),
        )


DEFAULT_CONSTANTS = Constants(
    n=4, base=2, epsilon=Fraction(1, 2000), mu=Fraction(1), lam=Fraction(1)
)


# ---------------------------------------------------------------------------
# generators (all randomness flows through one seeded generator)
# ---------------------------------------------------------------------------

GENERATOR_VERSION = "nerveforge-gen-1"

LABEL_VECTORS = [(1, 0), (0, 1), (1, 1), (2, 0)]


@cache
def _label_alphabet() -> tuple:
    """The distinct subgroups spanned by subsets of ``LABEL_VECTORS``, in
    key order; built on first use and kept."""
    seen = {}
    for r in range(len(LABEL_VECTORS) + 1):
        for combo in combinations(LABEL_VECTORS, r):
            g = LatticeSubgroup.from_generators([list(v) for v in combo], 2)
            seen[g.key()] = g
    return tuple(seen[k] for k in sorted(seen))


def generate(family: str, params: dict | None = None, seed: int = 0) -> Scenario:
    """Deterministic scenario generation; identical (family, params, seed)
    yields identical output.

    Payloads are written from the parts the generator draws, through the
    same writers as ``jsonio``'s ``*_to_json``, without building the
    ``Cover``, ``PatchSystem`` or ``Arrangement`` they describe.  They are
    validated once, by the ``jsonio`` readers that read them.
    """
    params = dict(params or {})
    rng = random.Random(seed)
    builders = {
        "random-box-cover": _gen_box_cover,
        "lattice-patch-system": _gen_patch_system,
        "commuting-arrangement": _gen_arrangement,
        "periodic-boxes": _gen_periodic,
        "introduction-model": _gen_introduction,
    }
    if family not in builders:
        raise ScenarioError(f"unknown family {family!r}")
    return builders[family](params, rng, seed)


def _positive(key: str, value) -> int:
    """``value`` as an int, or ``ScenarioError`` naming ``key`` when it is
    not a positive integer."""
    try:
        n = int(value)
    except (TypeError, ValueError):
        n = 0
    if n < 1:
        raise ScenarioError(f"parameter {key!r} must be a positive integer, not {value!r}")
    return n


def _one_of(key: str, value, choices: tuple):
    """``value``, or ``ScenarioError`` naming ``key`` when it is not one of
    ``choices``."""
    if value not in choices:
        raise ScenarioError(f"parameter {key!r} must be one of {choices}, not {value!r}")
    return value


def _distinct_pieces(count: int, draw) -> dict:
    """Up to ``count`` distinct nonempty pieces from ``draw()``, in at most
    200 draws, keyed 0, 1, ... in the order found."""
    pieces = {}
    for _ in range(200):
        if len(pieces) >= count:
            break
        sub = draw()
        if sub and sub not in pieces.values():
            pieces[len(pieces)] = sub
    return pieces


def _gen_box_cover(params, rng, seed) -> Scenario:
    dim = _one_of("dim", params.get("dim", rng.choice([1, 2])), (1, 2))
    n_pieces = int(params.get("pieces", rng.randrange(3, 7)))
    mixed = _one_of("mode", params.get("mode", "good"), ("good", "mixed")) == "mixed"
    if dim == 1:
        size = _positive("grid", params.get("grid", 6))
        ambient = path_complex(size)

        def draw():
            a = rng.randrange(size)
            b = min(size, a + rng.randrange(1, 4))
            sub = interval_subcomplex(ambient, a, b)
            if mixed and rng.random() < 0.3:
                a2 = rng.randrange(size)
                sub = sub | interval_subcomplex(ambient, a2, min(size, a2 + 1))
            return sub
    else:
        g = _positive("grid", params.get("grid", 3))
        ambient = grid_complex(g, g)

        def draw():
            i0 = rng.randrange(g)
            j0 = rng.randrange(g)
            i1 = min(g, i0 + rng.randrange(1, 3))
            j1 = min(g, j0 + rng.randrange(1, 3))
            sub = rect_subcomplex(ambient, i0, i1, j0, j1)
            if mixed and rng.random() < 0.35:
                a0 = rng.randrange(g)
                b0 = rng.randrange(g)
                sub = sub | rect_subcomplex(ambient, a0, min(g, a0 + 1), b0, min(g, b0 + 1))
            return sub
    return Scenario(
        kind="cover",
        payload=_cover_json(ambient, _distinct_pieces(n_pieces, draw)),
        constants=DEFAULT_CONSTANTS,
        seed=seed,
    )


SPAN_POOLS = [
    [(0, 2), (1, 3), (2, 4), (3, 5)],
    [(0, 3), (1, 4), (2, 5), (0, 5)],
    [(0, 2), (2, 4), (1, 5), (0, 4)],
]


def _gen_patch_system(params, rng, seed) -> Scenario:
    count = int(params.get("patches", rng.randrange(2, 5)))
    count = min(count, 4)
    with_enlargements = bool(params.get("with_enlargements", False))
    alphabet = _label_alphabet()
    path = path_complex(6)
    spans = rng.choice(SPAN_POOLS)[:count]
    patches = {}
    for k, (a, b) in enumerate(spans):
        patches[k] = Patch(
            support=interval_subcomplex(path, a, b),
            group=rng.choice(alphabet),
            parabolic=rng.random() < 0.4,
        )
    enlargements = {}
    if with_enlargements:
        for k, (a, b) in enumerate(spans):
            enlargements[(k,)] = interval_subcomplex(path, max(0, a - 1), min(6, b + 1))
    return Scenario(
        kind="patch-system",
        payload=_patch_system_json(path, patches, enlargements),
        constants=DEFAULT_CONSTANTS,
        seed=seed,
    )


def _glide_plane(dim, axis, offset, shift_axis):
    a = identity_matrix(dim)
    a[axis][axis] = -1
    b = [Fraction(0)] * dim
    b[axis] = 2 * Fraction(offset)
    b[shift_axis] = Fraction(1)
    return EuclideanIsometry.of(a, b)


def _screw_z(angle_quarter: bool, shift=1):
    rot = [[0, -1, 0], [1, 0, 0], [0, 0, 1]] if angle_quarter else \
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
    return EuclideanIsometry.of(rot, [0, 0, shift])


def _gen_arrangement(params, rng, seed) -> Scenario:
    style = params.get(
        "style", rng.choice(["square-cycle", "parallel-planes", "translations"])
    )
    payload: dict = {"style": style}
    if style == "square-cycle":
        side = int(params.get("side", rng.choice([2, 3, 4])))
        groups = tuple(
            (g,) for g in (
                _glide_plane(3, 0, 0, 2),
                _glide_plane(3, 1, 0, 2),
                _glide_plane(3, 0, side, 2),
                _glide_plane(3, 1, side, 2),
            )
        )
        payload.update(_arrangement_json(3, 2, groups))
        payload.update({"n": 3, "r": 1})
    elif style == "square-cycle-4d":
        side = int(params.get("side", rng.choice([2, 3])))
        trans_w = EuclideanIsometry.translation([0, 0, 0, 1])
        groups = tuple(
            (g, trans_w) for g in (
                _glide_plane(4, 0, 0, 2),
                _glide_plane(4, 1, 0, 2),
                _glide_plane(4, 0, side, 2),
                _glide_plane(4, 1, side, 2),
            )
        )
        payload.update(_arrangement_json(4, 2, groups))
        payload.update({"n": 4, "r": 2})
    elif style == "parallel-planes":
        count = int(params.get("count", rng.randrange(2, 5)))
        groups = tuple(
            (_glide_plane(3, 0, 2 * i + 1, 2),) for i in range(count)
        )
        payload.update(_arrangement_json(3, 2, groups))
        payload.update({"n": 3, "r": 1})
    elif style == "translations":
        count = int(params.get("count", rng.randrange(2, 4)))
        groups = tuple(
            (EuclideanIsometry.translation(
                [rng.randrange(1, 3), rng.randrange(0, 2), 0]),)
            for _ in range(count)
        )
        payload.update(_arrangement_json(3, 2, groups))
        payload.update({"n": 3, "r": 1})
    elif style == "shared-axis":
        groups = ((_screw_z(True),), (_screw_z(False),))
        payload.update(_arrangement_json(3, 2, groups))
        payload.update({"n": 4, "r": 1})
        payload["common_group"] = [
            isometry_to_json(EuclideanIsometry.translation([0, 0, 1]))
        ]
    elif style == "splitting-pair":
        dim = int(params.get("dim", rng.randrange(2, 7)))
        a, b = random_commuting_pair(rng, dim)
        payload["pair"] = {
            "dim": dim,
            "a": [isometry_to_json(g) for g in a],
            "b": [isometry_to_json(g) for g in b],
        }
    else:
        raise ScenarioError(f"unknown arrangement style {style!r}")
    return Scenario(
        kind="arrangement", payload=payload, constants=DEFAULT_CONSTANTS, seed=seed
    )


def random_commuting_pair(rng, dim):
    """Block-diagonal commuting generator pairs: rotations share 2D blocks,
    translations live where both linear parts are trivial."""
    blocks = []
    remaining = dim
    while remaining:
        if remaining >= 2 and rng.random() < 0.5:
            blocks.append(2)
            remaining -= 2
        else:
            blocks.append(1)
            remaining -= 1

    def build():
        mats = []
        for k in blocks:
            if k == 2 and rng.random() < 0.6:
                m, c = rng.choice([(2, 1), (3, 2), (4, 1), (3, 1)])
                mats.append(pythagorean_rotation(m, c))
            else:
                mats.append(identity_matrix(k))
        return mats

    a_blocks = build()
    b_blocks = build()
    ta = [Fraction(0)] * dim
    tb = [Fraction(0)] * dim
    pos = 0
    for k, ab, bb in zip(blocks, a_blocks, b_blocks):
        ident = identity_matrix(k)
        if ab == ident and bb == ident:
            for t in range(k):
                ta[pos + t] = Fraction(rng.randrange(-2, 3))
                tb[pos + t] = Fraction(rng.randrange(-2, 3))
        pos += k
    ga = EuclideanIsometry.of(block_diagonal(a_blocks), ta)
    gb = EuclideanIsometry.of(block_diagonal(b_blocks), tb)
    return [ga], [gb]


# the parameters each periodic family takes besides family, spacing and deck
PERIODIC_PARAMS = {"strip": {"dim", "boxes_per_period"}, "tube": {"boxes_per_period"},
                   "hollow-tube": set(), "slab": set(), "tiling": {"dim"}}
PERIODIC_FAMILIES = tuple(PERIODIC_PARAMS)


def _gen_periodic(params, rng, seed) -> Scenario:
    family = params.get("family")
    if family is None:
        family = rng.choice(PERIODIC_FAMILIES)
    if family not in PERIODIC_PARAMS:
        raise ScenarioError(f"unknown periodic family {family!r}")
    extra = sorted(params.keys() - {"family", "spacing", "deck"} - PERIODIC_PARAMS[family])
    if extra:
        raise ScenarioError(f"periodic family {family!r} takes no parameter {extra[0]!r}")
    dim = _positive("dim", params.get("dim", 2))
    spacing = _positive("spacing", params.get("spacing", rng.choice([2, 3])))
    if family in ("strip", "tube"):
        # a tube is a 3-D strip of narrower cross-sections
        bu = construct.strip_boxes(
            spacing=spacing,
            boxes_per_period=_positive(
                "boxes_per_period", params.get("boxes_per_period", rng.choice([2, 3]))),
            dim=dim if family == "strip" else 3,
            width=Fraction(rng.choice([1, 2, 3] if family == "strip" else [1, 2]), 2),
            overlap=Fraction(1, rng.choice([4, 8])),
        )
    elif family == "hollow-tube":
        bu = construct.hollow_tube_boxes(
            spacing=spacing, half_core=Fraction(rng.choice([1, 2]), 2)
        )
    elif family == "slab":
        bu = construct.slab_boxes(
            spacing=spacing,
            thickness=Fraction(rng.choice([1, 2]), 2),
            overlap=Fraction(1, rng.choice([4, 8])),
        )
    else:
        bu = construct.tiling_boxes(dim=dim, spacing=spacing, overlap=Fraction(1, 4))
    payload = box_union_to_json(bu)
    payload["family"] = family
    payload["n"] = bu.dim + 1
    payload["r"] = bu.rank
    if "deck" in params:
        m = _positive("deck", params["deck"])
        rows = [[m if i == j == 0 else (1 if i == j else 0)
                 for j in range(bu.rank)] for i in range(bu.rank)]
        payload["cover"] = {"sublattice": rows}
    return Scenario(
        kind="box-union", payload=payload, constants=DEFAULT_CONSTANTS, seed=seed
    )


def introduction_patch_system():
    """The two-ball model with clump labels: the illustrative configuration
    with a rank-2 overlap group."""
    ambient, u, v, membrane, cycle = construct.two_ball_gluing()
    patches = {
        "U": Patch(support=u, group=LatticeSubgroup.from_generators([[1, 0]], 2)),
        "V": Patch(support=v, group=LatticeSubgroup.from_generators([[0, 1]], 2)),
        "W": Patch(
            support=membrane,
            group=LatticeSubgroup.from_generators([[1, 0], [0, 1]], 2),
        ),
    }
    ps = PatchSystem(ambient=ambient, patches=patches)
    return ps, cycle


def _gen_introduction(params, rng, seed) -> Scenario:
    n = int(params.get("n", 4))
    ps, cycle = introduction_patch_system()
    payload = {
        "patch_system": patch_system_to_json(ps),
        "cover": _cover_json(ps.ambient, {k: ps.patches[k].support for k in ("U", "V")}),
        "cycle": [[coeff, list(s)] for s, coeff in sorted(cycle.items())],
        "cycle_degree": 2,
        "n": n,
        "r": 1,
    }
    return Scenario(
        kind="composite", payload=payload, constants=DEFAULT_CONSTANTS, seed=seed
    )
