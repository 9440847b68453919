"""Scenario -> exact check dispatcher used by the benchmark.

The package has no verifier yet, so the benchmark brings its own: it maps
``Scenario.kind`` (plus ``style`` for arrangements and ``cover`` for box
unions) to the matching checks, reads every payload through the public
``*_from_json`` readers, and reduces the verdicts to canonical JSON.

Readers get the in-memory payload dict, not JSON text: the text round trip
of 2-D ``random-box-cover`` payloads raises ``TypeError: unhashable type:
'list'`` in ``jsonio.complex_from_json``, because grid vertices are tuples
and JSON text turns them into lists.
"""

from __future__ import annotations

import json

from nerveforge import clumps, covers, euclid, jsonio, nilpotent, periodic, scenarios

# Constants carries no r; 1 is the smallest clump rank and leaves the
# unfolding threshold n-1-r at 2 for the default n = 4.
DEFAULT_R = 1
# Semisimple vanishing is checked at the first ladder level.
SEMISIMPLE_LEVEL = 1


def canonical(obj):
    """Plain JSON value with sorted keys, lists for tuples and sets."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(v) for v in obj), key=repr)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def canonical_text(verdict) -> str:
    return json.dumps(verdict, sort_keys=True, separators=(",", ":"))


def _n_r(scenario):
    payload = scenario.payload
    n = payload.get("n", scenario.constants.n if scenario.constants else None)
    r = payload.get("r", DEFAULT_R)
    return int(n), int(r)


def _cover_checks(cover, n):
    good = covers.goodness_check(cover)
    asm = covers.assembly_bound_check(cover, n)
    return {
        "goodness": good.as_json(),
        "assembly": {
            "hypotheses_hold": asm.hypotheses_hold,
            "conclusion_holds": asm.conclusion_holds,
            "implication_holds": asm.implication_holds,
            "detail": asm.detail,
        },
    }


def _patch_checks(ps, n, r):
    found = clumps.maximal_clumps(ps)
    out = {
        "maximal_clumps": [
            {"size": len(c.support), "rank": c.rank, "group": c.group.key()}
            for c in found
        ],
        "engulfing": {"ok": clumps.engulfing_check(ps).ok},
    }
    # unfolding_space refuses a system without maximal clumps.
    if found:
        v = clumps.unfolding_vanishing_check(ps, n, r)
        out["unfolding"] = {
            "ok": v.ok,
            "hypotheses_hold": v.hypotheses_hold,
            "detail": v.detail,
        }
    return out


def _vanishing(v):
    return {"ok": v.ok, "detail": v.detail, "violations": v.hypothesis_violations}


def _arrangement_checks(payload, n, r):
    style = payload["style"]
    if style == "splitting-pair":
        pair = payload["pair"]
        a = [jsonio.isometry_from_json(g) for g in pair["a"]]
        b = [jsonio.isometry_from_json(g) for g in pair["b"]]
        rep = euclid.splitting_check(a, b)
        return {"splitting": {"ok": rep.ok, "rank": rep.rank, "checks": rep.checks}}
    arr = jsonio.arrangement_from_json(payload)
    if style == "shared-axis":
        common = [jsonio.isometry_from_json(g) for g in payload["common_group"]]
        v = euclid.semisimple_vanish_check(arr, common, SEMISIMPLE_LEVEL, n)
        return {"semisimple": _vanishing(v)}
    if style in ("square-cycle", "square-cycle-4d", "parallel-planes", "translations"):
        v = euclid.almost_abelian_vanishing_check(arr, n, r)
        return {"almost_abelian": _vanishing(v)}
    raise ValueError(f"no check for arrangement style {style!r}")


def _box_union_checks(payload, n, r):
    bu = jsonio.box_union_from_json(payload)
    lv = periodic.local_vanishing_check(bu, n, r)
    out = {
        "local_vanishing": {
            "ok": lv.ok, "branch": lv.branch, "inconclusive": lv.inconclusive,
            "detail": lv.detail, "certificate": lv.certificate,
        }
    }
    inconclusive = lv.inconclusive
    if bu.rank < bu.dim:
        qc = periodic.quotient_corner_check(bu)
        out["quotient_corner"] = {
            "ok": qc.ok, "inconclusive": qc.inconclusive, "k": qc.k,
            "degree": qc.degree, "detail": qc.detail,
        }
        inconclusive = inconclusive or qc.inconclusive
    if "cover" in payload:
        spec = jsonio.cover_spec_from_json(payload["cover"], bu.rank)
        cl = periodic.cover_lift_check(bu, spec, n, r)
        out["cover_lift"] = {
            "ok": cl.ok, "inconclusive": cl.inconclusive,
            "checks": cl.checks, "detail": cl.detail,
        }
        inconclusive = inconclusive or cl.inconclusive
    return out, inconclusive


def check_scenario(scenario) -> dict:
    """Run every check the scenario's kind calls for; canonical verdict."""
    kind = scenario.kind
    payload = scenario.payload
    n, r = _n_r(scenario)
    inconclusive = False
    if kind == "cover":
        checks = _cover_checks(jsonio.cover_from_json(payload), n)
    elif kind == "patch-system":
        checks = _patch_checks(jsonio.patch_system_from_json(payload), n, r)
    elif kind == "arrangement":
        checks = _arrangement_checks(payload, n, r)
    elif kind == "box-union":
        checks, inconclusive = _box_union_checks(payload, n, r)
    elif kind == "composite":
        checks = _patch_checks(jsonio.patch_system_from_json(payload["patch_system"]), n, r)
        checks.update(_cover_checks(jsonio.cover_from_json(payload["cover"]), n))
    else:
        raise ValueError(f"no check for scenario kind {kind!r}")
    return canonical({"kind": kind, "n": n, "r": r, "inconclusive": inconclusive,
                      "checks": checks})


def run_item(item) -> dict:
    """Generate one scenario (or group) and return its canonical verdict."""
    if item["family"] == "unitriangular":
        return check_group(item)
    scenario = scenarios.generate(item["family"], item["params"], item["seed"])
    return check_scenario(scenario)


def _group(item):
    return nilpotent.UnitriangularGroup(
        item["size"], tuple(tuple(tuple(row) for row in m) for m in item["generators"]))


def check_group(item) -> dict:
    g = _group(item)
    word = nilpotent.small_central_element(g)
    return {"kind": "unitriangular", "inconclusive": False,
            "hirsch_rank": nilpotent.hirsch_rank(g),
            "central_word": [list(letter) for letter in word.letters]}


def central_word_is_valid(item, verdict) -> bool:
    """Independent check of a central word: it commutes with every
    generator and does not evaluate to the identity."""
    g = _group(item)
    word = nilpotent.GroupWord(g, tuple(tuple(x) for x in verdict["central_word"]))
    value = word.evaluate()
    return (value != nilpotent.identity(g.size)
            and nilpotent.commutes_with_all_generators(value, g))
