"""Generated payloads are pinned byte for byte.

Each case's digest is the SHA-256 of the concatenated ``scenario_digest``
of seeds 0-11, recorded before the generators stopped building the
``Cover``, ``PatchSystem`` and ``Arrangement`` objects they describe. The
benchmark catalog's digest covers every non-unitriangular item of
``periodic-mix`` and then ``finite-mix``, in catalog order. A digest must
not depend on ``PYTHONHASHSEED``; CI runs this file under two hash seeds.
"""

import hashlib
import importlib.util
import json
import pathlib
from fractions import Fraction

import pytest

from nerveforge import construct
from nerveforge.jsonio import box_union_to_json
from nerveforge.periodic import PeriodicError
from nerveforge.scenarios import ScenarioError, generate

SEEDS = range(12)

CASES = [
    ("random-box-cover", {},
     "e629d35e97958f6a2cb6c016779ee5a8e3c9bdcd48a7a10ba27ab6070b2fd3d6"),
    ("random-box-cover", {"dim": 1, "mode": "good"},
     "79edfd9fce24a872da358bd988c061bb3afa1f0942a4b98cf250614ef20335c8"),
    ("random-box-cover", {"dim": 1, "mode": "mixed"},
     "ba06a36976c9a3c82faa5abe0c33964be52aab39db2f63b6fab4f257cf5af360"),
    ("random-box-cover", {"dim": 2, "mode": "good"},
     "3c5dd8445bf8defc6454f2f5cf1ec0bb2beff38ed7b4da2e856a75d2ce37e5db"),
    ("random-box-cover", {"dim": 2, "mode": "mixed"},
     "7dcc12645c0c739ee23acdd08a73cc0d7e080ec691b83b7e6ab7f39d439b08b3"),
    ("lattice-patch-system", {},
     "5b4ad76d23567cb9de04fa5e89313e7b65d53f7216be757e19e81b13ec3c814a"),
    ("lattice-patch-system", {"with_enlargements": True},
     "12f906ece9a5747ff43326c6c7fe4070e44bcd7a81c41d9b8aae052e91676fcd"),
    ("commuting-arrangement", {},
     "7237b578efed84783cd34ff05ad46950dba4f21bce9ba1fba932e383beb55dd0"),
    ("commuting-arrangement", {"style": "square-cycle"},
     "58ec2914c2dbe1c717f5512e1888bd3960069b39a805fff265956dee8433dd0d"),
    ("commuting-arrangement", {"style": "square-cycle-4d"},
     "8a632adcd76e14b08b6d0873defc4064943c18f3f10fa384ae5a9cd4eee04aa7"),
    ("commuting-arrangement", {"style": "parallel-planes"},
     "065e65ae5fdea868bdf58a0fe555e9afade2242ce04640d84084d43917d74b8c"),
    ("commuting-arrangement", {"style": "translations"},
     "94967e7d5ab389940887fec5739d1e2630ea687c8bac5afb0d585b46131f202b"),
    ("commuting-arrangement", {"style": "shared-axis"},
     "5a8d5a988a396cbd9d2e16afcf7ed01f7a49026a5075410f16f1007c7a51f7db"),
    ("commuting-arrangement", {"style": "splitting-pair"},
     "c40c0cdc9d9e09b471b40f309e7f3d4bf6f68881630f764cae6a7926532bf70e"),
    ("periodic-boxes", {},
     "13bf22179475a4a480363fb0a9c382aba58aab89b74cfb3331b2cb39170a8817"),
    ("periodic-boxes", {"family": "strip"},
     "fcb349fe2d39d6fd8685b4eb64b1ba559c88c82bfb2ddba7a7bedccedf7a48f4"),
    ("periodic-boxes", {"family": "tube"},
     "4e949237b15546cf3cdd4a18f6c26b18be495e3e0d7384e14083672b43876007"),
    ("periodic-boxes", {"family": "hollow-tube"},
     "1cb2a22fe1f9c5d78c3822f7ea1fc0f01419e012e2cde28e6a0514c9b870e1ab"),
    ("periodic-boxes", {"family": "slab"},
     "af39e7b6e692e0a143864cbb1d3ea956a48e18d459845ab3808201804931f671"),
    ("periodic-boxes", {"family": "tiling"},
     "a8a9ffaa7ae4f5fe7f95a736e94913082fdc5b7307c8d8e8f61dd41dfd7fa978"),
    ("periodic-boxes", {"family": "tiling", "dim": 3, "deck": 2},
     "cb4dd1c2e6265bc7d6f6c6f8a4988d0b6336164c6473a87bcb34183da2bef378"),
    ("introduction-model", {},
     "d7382b440696677c571eeabeee1fbd148d8b5f30cbb62d1f02dc9e6821cb37d0"),
]

CATALOG_DIGEST = "e6d762ce9e7cc97b2fc808b30d0e7a0b876a8b045585ce748d2fdb8a6d2c5c6e"

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def scenario_digest(scenario) -> str:
    """SHA-256 of the scenario's canonical JSON text, keys sorted."""
    canon = json.dumps(scenario.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def combined_digest(cases) -> str:
    h = hashlib.sha256()
    for family, params, seed in cases:
        h.update(scenario_digest(generate(family, params, seed)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("family,params,digest", CASES,
                         ids=[f"{f}-{'-'.join(map(str, p.values())) or 'default'}"
                              for f, p, _ in CASES])
def test_generated_payloads_are_pinned(family, params, digest):
    assert combined_digest((family, params, seed) for seed in SEEDS) == digest


def test_benchmark_catalog_payloads_are_pinned():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    items = [item for w in ("periodic-mix", "finite-mix") for item in workloads.catalog(w)
             if item["family"] != "unitriangular"]
    assert combined_digest((i["family"], i["params"], i["seed"]) for i in items) == CATALOG_DIGEST


# Family builder arguments that no scenario passes, with the SHA-256 of the
# union's ``box_union_to_json`` text, keys sorted, recorded before the four
# builders became calls of ``construct.lattice_boxes``.
FAMILY_CASES = [
    ("strip_boxes", {"dim": 3, "boxes_per_period": 3},
     "c22dcfdcd867e1a0e2cf8923925dd86c4769ba1806919f730a07f540159bd30b"),
    ("strip_boxes", {"spacing": 3, "dim": 1, "width": 1, "overlap": Fraction(1, 3)},
     "d2b73fbd19930977e18469e4e81d221ce3a5fd182e953d1762d91ec5c9e562b7"),
    ("slab_boxes", {"thickness": 1},
     "d96124430f05c9d6bd1102ecc64ee4cc2c93fbd3e6a85bab635d2681c7c75637"),
    ("slab_boxes", {"spacing": 4, "overlap": Fraction(1, 3)},
     "c424f8253ffeb0eddcdbed7f9d57980165c3d2befcf643983fda3955a85a60ac"),
    ("tiling_boxes", {"dim": 3, "overlap": Fraction(1, 3)},
     "b26f0ca69ca8ba1efb8a87c9024a9041ec317b9b34ddb1ae84fbc0009c3b0638"),
    ("tiling_boxes", {"dim": 1, "spacing": 5},
     "fd62e5448ab5339a586427200cc1b2bac584814f57c6c2e451d3743ce4f68947"),
    ("hollow_tube_boxes", {"half_core": 1},
     "1fb47e55cf912106da6067c0a08d94e3a4b39396bd97d4ee4dcb430776edbaff"),
    ("hollow_tube_boxes", {"spacing": 5, "half_core": Fraction(1, 3)},
     "0e418c04c5edc54c9d027195a3f36998bb698f0415483d53480bca7a77c3af58"),
]


@pytest.mark.parametrize("builder,kwargs,digest", FAMILY_CASES,
                         ids=[f"{b}-{'-'.join(f'{k}={v}' for k, v in kw.items())}"
                              for b, kw, _ in FAMILY_CASES])
def test_family_builders_are_pinned(builder, kwargs, digest):
    bu = getattr(construct, builder)(**kwargs)
    text = json.dumps(box_union_to_json(bu), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("family,key", [
    ("strip", "r"), ("strip", "thickness"),
    ("tube", "dim"), ("tube", "r"),
    ("hollow-tube", "dim"), ("hollow-tube", "boxes_per_period"), ("hollow-tube", "r"),
    ("slab", "dim"), ("slab", "boxes_per_period"), ("slab", "r"),
    ("tiling", "boxes_per_period"), ("tiling", "r"),
])
def test_periodic_boxes_rejects_a_parameter_its_family_does_not_take(family, key):
    with pytest.raises(ScenarioError, match=repr(key)):
        generate("periodic-boxes", {"family": family, "spacing": 3, key: 4}, 0)


BAD_PARAMS = [
    ("periodic-boxes", {"family": "strip", "dim": 0}, "dim"),
    ("periodic-boxes", {"family": "strip", "dim": -1}, "dim"),
    ("periodic-boxes", {"family": "tiling", "dim": -1}, "dim"),
    ("periodic-boxes", {"family": "strip", "spacing": 0}, "spacing"),
    ("periodic-boxes", {"family": "slab", "spacing": -2}, "spacing"),
    ("periodic-boxes", {"family": "strip", "boxes_per_period": 0}, "boxes_per_period"),
    ("periodic-boxes", {"family": "strip", "deck": 0}, "deck"),
    ("periodic-boxes", {"family": "tube", "deck": -1}, "deck"),
    ("random-box-cover", {"dim": 3}, "dim"),
    ("random-box-cover", {"dim": 0}, "dim"),
    ("random-box-cover", {"mode": "bad"}, "mode"),
    ("random-box-cover", {"dim": 1, "grid": 0}, "grid"),
    ("random-box-cover", {"dim": 2, "grid": 0}, "grid"),
]


@pytest.mark.parametrize("family,params,key", BAD_PARAMS,
                         ids=[f"{f}-{'-'.join(f'{k}={v}' for k, v in p.items())}"
                              for f, p, _ in BAD_PARAMS])
def test_generators_reject_a_bad_parameter_by_name(family, params, key):
    with pytest.raises(ScenarioError, match=repr(key)):
        generate(family, params, 0)


def test_lattice_boxes_rejects_boxes_that_meet_their_translates():
    with pytest.raises(PeriodicError, match="own translates"):
        construct.lattice_boxes(2, 1, [((), ())], 1)
