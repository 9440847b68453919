"""One workload run in a fresh process; prints a JSON report as its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]

Without ``--trace`` it runs whole passes over the workload's catalog until at
least S seconds have passed, timing each item from ``generate`` to verdict.
With ``--trace`` it runs one pass twice untraced (a warm-up, then timed) and
the same pass traced, so the counts repeat exactly and the wall-time
difference is the tracing overhead.
Verdicts are compared with the recorded ones after the timed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import dispatch  # noqa: E402
import workloads  # noqa: E402


MIN_SAMPLES = 100


def expected_path(workload: str) -> str:
    return os.path.join(HERE, "expected", f"{workload}.json")


def run_pass(keyed_items, run_item):
    """[(key, seconds, canonical verdict text or None, error or None)].

    Verdict texts are interned, so repeated passes keep one copy each."""
    out = []
    for key, item in keyed_items:
        t0 = perf_counter()
        try:
            verdict = run_item(item)
        except Exception as e:  # a raise is a failed item, not a crash
            t1 = perf_counter()
            out.append((key, t1 - t0, None, f"{type(e).__name__}: {e}"))
            continue
        t1 = perf_counter()
        out.append((key, t1 - t0, sys.intern(dispatch.canonical_text(verdict)), None))
    return out


def compare(items_by_key, results, expected):
    """(failed count, inconclusive count, first few failure notes)."""
    expected_text = {k: dispatch.canonical_text(v) for k, v in expected.items()}
    failed = inconclusive = 0
    notes = []
    for key, _, text, error in results:
        problem = error
        if problem is None:
            verdict = json.loads(text)
            inconclusive += bool(verdict.get("inconclusive"))
            if key not in expected_text:
                problem = "no recorded verdict"
            elif text != expected_text[key]:
                problem = "verdict differs from the recorded one"
            elif verdict["kind"] == "unitriangular" and not dispatch.central_word_is_valid(
                    items_by_key[key], verdict):
                problem = "central word is not central or is the identity"
        if problem is not None:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{key}: {problem}")
    return failed, inconclusive, notes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--items", type=int, default=None,
                    help="use only the first N items of each pass (self-tests)")
    ap.add_argument("--record", action="store_true",
                    help="write the expected verdicts of the whole catalog")
    args = ap.parse_args(argv)

    catalog = [(workloads.item_key(it), it) for it in workloads.catalog(args.workload)]
    items_by_key = dict(catalog)
    if args.record:
        results = run_pass(catalog, dispatch.run_item)
        errors = [(k, e) for k, _, _, e in results if e is not None]
        if errors:
            raise SystemExit(f"items raised while recording: {errors[:3]}")
        os.makedirs(os.path.dirname(expected_path(args.workload)), exist_ok=True)
        with open(expected_path(args.workload), "w") as f:
            f.write("{\n" + ",\n".join(
                f"{json.dumps(k)}: {text}" for k, _, text, _ in sorted(results)) + "\n}\n")
        print(json.dumps({"recorded": len(results),
                          "seconds": {k: round(t, 4) for k, t, _, _ in results}}))
        return

    with open(expected_path(args.workload)) as f:
        expected = json.load(f)

    report = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        import tracing

        items = workloads.pass_order(catalog, args.seed, 0)[:args.items]
        # a warm-up pass first, so the untraced and traced passes both find
        # warm caches and their difference is the tracing overhead
        warm = run_pass(items, dispatch.run_item)
        t0 = perf_counter()
        plain = run_pass(items, dispatch.run_item)
        untraced_wall = perf_counter() - t0
        tracer = tracing.Tracer()
        tracer.install()
        traced_item = tracer.span(tracing.ITEM, dispatch.run_item)
        t0 = perf_counter()
        traced = run_pass(items, traced_item)
        traced_wall = perf_counter() - t0
        tracer.uninstall()
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
        times = tracer.self_times()
        results = warm + plain + traced
        report.update({
            "layers": tracing.layer_metrics(tracer),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "self_time_sum_s": sum(t[1] for t in times.values()),
            "traced_equals_untraced": [r[2] for r in plain] == [r[2] for r in traced],
        })
    else:
        results = []
        t0 = perf_counter()
        pass_index = 0
        # whole passes, and enough samples for a 90th percentile with ten
        # samples beyond it
        while perf_counter() - t0 < args.seconds or len(results) < MIN_SAMPLES:
            items = workloads.pass_order(catalog, args.seed, pass_index)[:args.items]
            results += run_pass(items, dispatch.run_item)
            pass_index += 1
        report["wall_s"] = perf_counter() - t0
        report["passes"] = pass_index

    failed, inconclusive, notes = compare(items_by_key, results, expected)
    report.update({
        "item_seconds": [t for _, t, _, _ in results],
        "attempted": len(results),
        "failed": failed,
        "inconclusive": inconclusive,
        "failure_notes": notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(report))


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(1)
