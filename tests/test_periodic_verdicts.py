"""The periodic checks' verdicts on generated unions, pinned byte for byte.

``DIGEST`` is the SHA-256 of the canonical JSON of ``local_vanishing_check``,
``quotient_corner_check`` (rank < dim) and ``cover_lift_check`` (with a
deck), one line per item, over strip, tube and tiling at spacing 2 and 3
and slab and hollow tube at spacing 3, each with no deck and with decks 2
and 3, seeds 0-2: 72 items, beyond the benchmark catalog. It was recorded
before the translate enumeration read the union's scaled lattice rows. CI
runs this file under two hash seeds, so a set-order dependence in the
periodic path fails it.

ROADMAP item 7 will re-pin it: tying the scan's first radius to the
union's scale changes the radii that ``local_vanishing_check`` reports on
these items, and may turn a reading inconclusive, so the digest changes
with it. The new digest is to be recorded with every changed verdict
compared item by item.
"""

import dataclasses
import hashlib
import json

from nerveforge import jsonio, periodic
from nerveforge.scenarios import generate

FAMILIES = [("strip", 2), ("strip", 3), ("tube", 2), ("tube", 3), ("tiling", 2),
            ("tiling", 3), ("slab", 3), ("hollow-tube", 3)]
DECKS = [None, 2, 3]
SEEDS = range(3)
DIGEST = "2d42c49ff774fec7f46adb7b9bb00c4cb07534f1dd5473349b7a745a7268a943"


def verdicts_text(family, spacing, deck, seed) -> str:
    """Canonical JSON of the item's verdicts, keys sorted."""
    params = {"family": family, "spacing": spacing}
    if deck is not None:
        params["deck"] = deck
    payload = generate("periodic-boxes", params, seed).payload
    bu = jsonio.box_union_from_json(payload)
    n, r = payload["n"], payload["r"]
    out = {"local_vanishing": periodic.local_vanishing_check(bu, n, r)}
    if bu.rank < bu.dim:
        out["quotient_corner"] = periodic.quotient_corner_check(bu)
    if "cover" in payload:
        spec = jsonio.cover_spec_from_json(payload["cover"], bu.rank)
        out["cover_lift"] = periodic.cover_lift_check(bu, spec, n, r)
    return json.dumps({k: dataclasses.asdict(v) for k, v in out.items()},
                      sort_keys=True, separators=(",", ":"))


def test_periodic_verdicts_are_pinned():
    text = "".join(verdicts_text(family, spacing, deck, seed) + "\n"
                   for family, spacing in FAMILIES for deck in DECKS for seed in SEEDS)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGEST
