"""Workload catalogs and the seeded item order.

Every workload is a fixed catalog of items.  One pass of a run executes each
catalog item once, in an order drawn from the workload seed; a run repeats
passes until its time is up.  Keeping the catalog fixed lets the expected
verdicts be recorded once, and makes every seed measure the same mix of
input sizes, so runs with different seeds are comparable.
"""

from __future__ import annotations

import json
import random

# (family, params, generator seeds).  Per-item costs on a
# 2-core x86 container are noted so the mix can be re-sized.  Spacing-2 slabs
# (6-7 s) and hollow tubes with larger decks (5-30 s) would each outweigh a
# whole pass, so they are left out.
PERIODIC_MIX = [
    # 4-60 ms: small windows, the quotient complex, cover lifts through a
    # deck group of order 2, and full-rank tilings on the coverage branch
    ("periodic-boxes", {"family": "strip", "spacing": 2}, [0]),
    ("periodic-boxes", {"family": "strip", "spacing": 3}, [0]),
    ("periodic-boxes", {"family": "tube", "spacing": 2}, [0]),
    ("periodic-boxes", {"family": "tube", "spacing": 3}, [0]),
    ("periodic-boxes", {"family": "tiling", "spacing": 2}, [0]),
    ("periodic-boxes", {"family": "tiling", "spacing": 3}, [0]),
    ("periodic-boxes", {"family": "strip", "spacing": 2, "deck": 2}, [0]),
    ("periodic-boxes", {"family": "strip", "spacing": 3, "deck": 2}, [0]),
    ("periodic-boxes", {"family": "tube", "spacing": 2, "deck": 2}, [0]),
    ("periodic-boxes", {"family": "tube", "spacing": 3, "deck": 2}, [0]),
    ("periodic-boxes", {"family": "tiling", "spacing": 3, "deck": 2}, [0]),
    # 0.2-0.45 s: windows of thousands of simplices, time in homology and
    # snf.  This band holds both the median and the 90th percentile, so
    # neither sits at a gap between item sizes.  (Hollow-tube generator
    # seeds 1, 2, 3 and 7 draw the thin core.)
    ("periodic-boxes", {"family": "tiling", "spacing": 2, "deck": 2}, [0]),
    ("periodic-boxes", {"family": "hollow-tube", "spacing": 3}, [1, 2, 3, 7]),
    ("periodic-boxes", {"family": "slab", "spacing": 3}, list(range(8))),
    # 1.2-1.9 s: a thick-core hollow tube, and its thin-core sibling lifted
    # through a deck group
    ("periodic-boxes", {"family": "hollow-tube", "spacing": 3}, [0]),
    ("periodic-boxes", {"family": "hollow-tube", "spacing": 3, "deck": 2}, [1]),
]

ARRANGEMENT_STYLES = ("square-cycle", "square-cycle-4d", "parallel-planes",
                      "translations", "shared-axis", "splitting-pair")

FINITE_MIX = [
    ("random-box-cover", {"dim": 1, "mode": "good"}, list(range(12))),
    ("random-box-cover", {"dim": 1, "mode": "mixed"}, list(range(12))),
    ("random-box-cover", {"dim": 2, "mode": "good"}, list(range(12))),
    ("random-box-cover", {"dim": 2, "mode": "mixed"}, list(range(12))),
    ("lattice-patch-system", {}, list(range(12))),
    ("lattice-patch-system", {"with_enlargements": True}, list(range(12))),
    ("commuting-arrangement", {"style": "square-cycle"}, list(range(6))),
    ("commuting-arrangement", {"style": "square-cycle-4d"}, [0, 1]),
    ("commuting-arrangement", {"style": "parallel-planes"}, list(range(6))),
    ("commuting-arrangement", {"style": "translations"}, list(range(6))),
    ("commuting-arrangement", {"style": "shared-axis"}, [0, 1, 2, 3]),
    ("commuting-arrangement", {"style": "splitting-pair"}, list(range(12))),
    ("introduction-model", {}, [0, 1]),
]

# Random unitriangular groups made by the benchmark, one Hirsch rank and one
# central word each: only the nilpotent Lie closure runs for them.
# (matrix size, generator count) -> groups per pass
HIRSCH_RANKS = [((3, 1), 16), ((3, 2), 16), ((3, 3), 16),
                ((4, 1), 16), ((4, 2), 16), ((4, 3), 16)]

WORKLOADS = ("periodic-mix", "finite-mix")


def item_key(item) -> str:
    fields = {k: v for k, v in item.items() if k != "generators"}
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def _unitriangular(rng, size):
    while True:
        m = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0)
              for j in range(size)] for i in range(size)]
        if any(m[i][j] for i in range(size) for j in range(i + 1, size)):
            return m


def _hirsch_items():
    items = []
    for (size, gens), count in HIRSCH_RANKS:
        for k in range(count):
            rng = random.Random(f"hirsch:{size}:{gens}:{k}")
            items.append({
                "family": "unitriangular", "size": size, "gens": gens, "seed": k,
                "generators": [_unitriangular(rng, size) for _ in range(gens)],
            })
    return items


def catalog(workload: str) -> list[dict]:
    """Every item of one pass, in catalog order."""
    table = {"periodic-mix": PERIODIC_MIX, "finite-mix": FINITE_MIX}.get(workload)
    if table is None:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    items = [{"family": family, "params": params, "seed": s}
             for family, params, seeds in table for s in seeds]
    if workload == "finite-mix":
        items += _hirsch_items()
    return items


def pass_order(items: list, seed: int, pass_index: int) -> list:
    """The items of one pass, shuffled by the workload seed."""
    order = list(items)
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order
