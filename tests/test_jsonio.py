import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nerveforge import jsonio
from nerveforge.scenarios import Scenario, ScenarioError, constants_from_json, generate

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


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("family,params", CASES)
def test_scenario_survives_json_text(family, params):
    scenario = generate(family, params, 0)
    text = json.dumps(scenario.to_json())
    back = Scenario.from_json(json.loads(text))
    assert canonical(back.to_json()) == canonical(scenario.to_json())
    assert read_payload(back.kind, back.payload) == read_payload(
        scenario.kind, scenario.payload)


def test_tuple_vertex_labels_come_back_as_tuples():
    payload = generate("random-box-cover", {"dim": 2, "mode": "good"}, 0).payload
    cover = jsonio.cover_from_json(json.loads(json.dumps(payload)))
    assert all(isinstance(v, tuple) for v in cover.ambient.vertices)


POINT = {"simplices": [[0]]}
EDGE = {"simplices": [[0, 1]]}
LATTICE = {"kind": "lattice", "ambient": 1, "rows": [[1]]}

# (reader, arguments): each argument list is malformed, and every reader
# must report it as FormatError, not as KeyError, TypeError and the like.
MALFORMED = [
    ("rational_from_json", ([1],)),
    ("rational_from_json", ("1/0",)),
    ("complex_from_json", ({},)),
    ("complex_from_json", ({"simplices": 5},)),
    ("complex_from_json", ({"simplices": [5]},)),
    ("complex_from_json", ({"simplices": "ab"},)),
    ("complex_from_json", ({"simplices": [{"0": 1}]},)),
    ("complex_from_json", ({"simplices": [[0, 1], ["a", "b"]]},)),
    ("complex_from_json", ({"simplices": [[0, 0]]},)),
    ("complex_from_json", ({"simplices": [[0]], "vertices": 3},)),
    ("subcomplex_from_json", (jsonio.complex_from_json(EDGE), 5)),
    ("subcomplex_from_json", (jsonio.complex_from_json(EDGE), [0])),
    ("subcomplex_from_json", (jsonio.complex_from_json(EDGE), ["01"])),
    ("subcomplex_from_json", (jsonio.complex_from_json(EDGE), [[0, "a"]])),
    ("subcomplex_from_json", (jsonio.complex_from_json(EDGE), [[2]])),
    ("cover_from_json", ({},)),
    ("cover_from_json", ({"ambient": POINT},)),
    ("cover_from_json", ({"ambient": POINT, "pieces": [[0]]},)),
    ("cover_from_json", ({"ambient": POINT, "pieces": {"0": 0}},)),
    ("group_from_json", ({},)),
    ("group_from_json", ([],)),
    ("group_from_json", ({"kind": "lattice"},)),
    ("group_from_json", ({"kind": "lattice", "ambient": "x", "rows": []},)),
    ("group_from_json", ({"kind": "unitriangular", "generators": []},)),
    ("patch_system_from_json", ({},)),
    ("patch_system_from_json", ({"ambient": POINT, "pieces": {"0": [[0]]}},)),
    ("patch_system_from_json", ({"ambient": POINT, "pieces": {"0": [[0]]},
                                 "groups": {"0": LATTICE}, "flags": []},)),
    ("patch_system_from_json", ({"ambient": POINT, "pieces": {"0": [[0]]},
                                 "groups": {"0": LATTICE}, "enlargements": {"0": 5}},)),
    ("isometry_from_json", ({"A": [[1]]},)),
    ("isometry_from_json", ({"A": 1, "b": [0]},)),
    ("isometry_from_json", ({"A": [[1]], "b": ["x"]},)),
    ("arrangement_from_json", ({},)),
    ("arrangement_from_json", ({"dim": 1, "base": 2, "groups": 5},)),
    ("arrangement_from_json", ({"dim": 1, "base": 2, "groups": [[{"A": [[1]]}]]},)),
    ("box_union_from_json", ({},)),
    ("box_union_from_json", ({"dim": 2},)),
    ("box_union_from_json", ({"dim": "x", "boxes": []},)),
    ("box_union_from_json", ({"dim": 1, "boxes": [{"lo": ["0"]}]},)),
    ("box_union_from_json", ({"dim": 1, "boxes": [5]},)),
    ("cover_spec_from_json", ({}, 1)),
    ("cover_spec_from_json", ({"sublattice": 5}, 1)),
]


def test_every_reader_has_malformed_cases():
    readers = {name for name in vars(jsonio) if name.endswith("_from_json")}
    assert readers == {name for name, _ in MALFORMED}


@pytest.mark.parametrize("reader,args", MALFORMED,
                         ids=[f"{name}-{k}" for k, (name, _) in enumerate(MALFORMED)])
def test_readers_report_malformed_input_as_format_error(reader, args):
    with pytest.raises(jsonio.FormatError):
        getattr(jsonio, reader)(*args)


def test_mixed_vertex_types_across_simplices_are_rejected():
    # each simplex alone is homogeneous; together they mix int and str ids
    with pytest.raises(jsonio.FormatError, match="mixed vertex id types"):
        jsonio.complex_from_json({"simplices": [[0, 1], ["a", "b"]]})
    with pytest.raises(jsonio.FormatError, match="mixed vertex id types"):
        jsonio.complex_from_json({"simplices": [[0, 1]], "vertices": ["a"]})


@pytest.mark.parametrize("data", [{}, {"kind": "cover"}, {"payload": {}}])
def test_scenario_envelope_without_kind_or_payload_is_rejected(data):
    with pytest.raises(ScenarioError, match="missing .* in scenario envelope"):
        Scenario.from_json(data)


@pytest.mark.parametrize("data", [
    {"base": 2, "epsilon": "1/2"},
    {"n": 4, "epsilon": "1/2"},
    {"n": 4, "base": 2},
])
def test_constants_without_n_base_or_epsilon_are_rejected(data):
    with pytest.raises(ScenarioError, match="missing .* in constants"):
        constants_from_json(data)
    with pytest.raises(ScenarioError, match="missing .* in constants"):
        Scenario.from_json({"kind": "cover", "payload": {}, "constants": data})


def test_piece_keys_naming_one_patch_are_rejected():
    # "1" and "01" both parse to patch 1
    data = {"ambient": EDGE, "pieces": {"1": [[0]], "01": [[1]]},
            "groups": {"1": LATTICE, "01": LATTICE}}
    with pytest.raises(jsonio.FormatError, match="piece keys"):
        jsonio.patch_system_from_json(data)


def test_enlargement_keys_naming_one_set_are_rejected():
    # "0,1" and "1,0" both parse and sort to the patch pair (0, 1)
    data = {"ambient": EDGE, "pieces": {"0": [[0]], "1": [[1]]},
            "groups": {"0": LATTICE, "1": LATTICE},
            "enlargements": {"0,1": [[0, 1]], "1,0": [[0]]}}
    with pytest.raises(jsonio.FormatError, match="enlargement keys"):
        jsonio.patch_system_from_json(data)
    del data["enlargements"]["1,0"]
    assert set(jsonio.patch_system_from_json(data).enlargements) == {(0, 1)}


def test_groups_are_lattices_only():
    # a well-formed unitriangular group is not a wire format
    heisenberg = {"kind": "unitriangular", "size": 3,
                  "generators": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]]}
    with pytest.raises(jsonio.FormatError, match="unknown group kind"):
        jsonio.group_from_json(heisenberg)
    data = {"ambient": POINT, "pieces": {"0": [[0]]}, "groups": {"0": heisenberg}}
    with pytest.raises(jsonio.FormatError, match="unknown group kind"):
        jsonio.patch_system_from_json(data)
    group = jsonio.group_from_json(LATTICE)
    assert jsonio.group_to_json(group) == LATTICE


def fraction_reading(text):
    """What ``Fraction(text)`` gives: the value, or None when it raises."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


# strings near the "p/q" form: signs, spaces, dots, underscores, exponents,
# non-ASCII digits, zero and huge denominators
rational_texts = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**30, 10**30), st.integers(-5, 10**30)),
    st.integers().map(str),
    st.text(st.sampled_from("0123456789-+/ ._e٣²\n"), max_size=8),
)


@given(rational_texts)
@example("1/0")
@example("3/-4")
@example(" 1/2")
@example("1.5")
@example("1_0/3")
@example("-0/7")
@example("007/014")
@example("1/")
@example("-")
@example("٣/4")
@example("1/2\n")
def test_rational_from_json_reads_a_string_as_fraction_does(text):
    expected = fraction_reading(text)
    if expected is None:
        with pytest.raises(jsonio.FormatError):
            jsonio.rational_from_json(text)
    else:
        got = jsonio.rational_from_json(text)
        assert type(got) is Fraction and got == expected
