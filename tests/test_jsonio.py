import json

import pytest

from nerveforge import jsonio
from nerveforge.scenarios import Scenario, generate

# One entry per generator family and shape of payload.
CASES = [
    ("random-box-cover", {"dim": 1, "mode": "good"}),
    ("random-box-cover", {"dim": 1, "mode": "mixed"}),
    ("random-box-cover", {"dim": 2, "mode": "good"}),
    ("random-box-cover", {"dim": 2, "mode": "mixed"}),
    ("lattice-patch-system", {}),
    ("lattice-patch-system", {"with_enlargements": True}),
    ("commuting-arrangement", {"style": "square-cycle"}),
    ("commuting-arrangement", {"style": "square-cycle-4d"}),
    ("commuting-arrangement", {"style": "parallel-planes"}),
    ("commuting-arrangement", {"style": "translations"}),
    ("commuting-arrangement", {"style": "shared-axis"}),
    ("commuting-arrangement", {"style": "splitting-pair"}),
    ("periodic-boxes", {"family": "strip", "spacing": 2}),
    ("periodic-boxes", {"family": "tube", "spacing": 2, "deck": 2}),
    ("periodic-boxes", {"family": "hollow-tube", "spacing": 3}),
    ("periodic-boxes", {"family": "slab", "spacing": 3}),
    ("periodic-boxes", {"family": "tiling", "spacing": 2}),
    ("introduction-model", {}),
]


def read_payload(kind, payload):
    """Every object the scenario's payload describes, through the readers."""
    if kind == "cover":
        return [jsonio.cover_from_json(payload)]
    if kind == "patch-system":
        return [jsonio.patch_system_from_json(payload)]
    if kind == "arrangement":
        out = []
        if "groups" in payload:
            out.append(jsonio.arrangement_from_json(payload))
        for g in payload.get("common_group", []):
            out.append(jsonio.isometry_from_json(g))
        if "pair" in payload:
            out += [jsonio.isometry_from_json(g)
                    for g in payload["pair"]["a"] + payload["pair"]["b"]]
        return out
    if kind == "box-union":
        bu = jsonio.box_union_from_json(payload)
        out = [bu]
        if "cover" in payload:
            out.append(jsonio.cover_spec_from_json(payload["cover"], bu.rank))
        return out
    if kind == "composite":
        return [jsonio.patch_system_from_json(payload["patch_system"]),
                jsonio.cover_from_json(payload["cover"])]
    raise AssertionError(f"no reader for kind {kind!r}")


@pytest.mark.parametrize("family,params", CASES)
def test_scenario_survives_json_text(family, params):
    scenario = generate(family, params, 0)
    text = json.dumps(scenario.to_json())
    back = Scenario.from_json(json.loads(text))
    assert back.digest() == scenario.digest()
    assert read_payload(back.kind, back.payload) == read_payload(
        scenario.kind, scenario.payload)


def test_tuple_vertex_labels_come_back_as_tuples():
    payload = generate("random-box-cover", {"dim": 2, "mode": "good"}, 0).payload
    cover = jsonio.cover_from_json(json.loads(json.dumps(payload)))
    assert all(isinstance(v, tuple) for v in cover.ambient.vertices)
