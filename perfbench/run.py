"""nerveforge benchmark: exact verdicts per second, latency, memory, set-up.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]

Run from the repository root.  Each run first times fresh-process imports of
the package (``setup_s``), then runs the workload in a fresh child process
(``worker.py``) with ``PYTHONHASHSEED`` fixed and ``NERVEFORGE_THREADS``
unset: one client in a closed loop, no extra threads.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a summary with the
environment, sample count, percentile used, failed and inconclusive shares.
``--record`` writes the expected verdicts of every catalog item.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Import timings per run, half before and half after the workload, so that
# their median spans the run's window of machine speed.
IMPORT_RUNS = 4
CHILD_TIMEOUT_S = 150
MODULES = ("scenarios", "jsonio", "covers", "clumps", "euclid", "periodic", "nilpotent")
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); "
    + "; ".join(f"import nerveforge.{m}" for m in MODULES)
    + "; print(time.perf_counter() - t)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NERVEFORGE_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {args[:2]} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def import_seconds() -> list[float]:
    """Fresh-process import times, with bytecode caches already written."""
    return [float(run_child(["-c", IMPORT_SNIPPET])) for _ in range(IMPORT_RUNS)]


def percentile_with_tail(values, p=90, tail=10):
    """(percentile, value): p, or the highest percentile that still has
    ``tail`` samples beyond it."""
    n = len(values)
    while p > 50 and n * (100 - p) / 100 < tail:
        p -= 1
    return p, statistics.quantiles(values, n=100)[p - 1]


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def bench_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args) -> tuple[dict, dict]:
    run_child(["-c", IMPORT_SNIPPET])  # writes __pycache__
    imports = import_seconds()
    worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        worker.append("--trace")
    report = json.loads(run_child(worker))
    setup_s = statistics.median(imports + import_seconds())
    attempted, failed = report["attempted"], report["failed"]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "environment": environment(), "samples": attempted,
        "failed_share": failed / attempted,
        "inconclusive_share": report["inconclusive"] / attempted,
        "failure_notes": report["failure_notes"],
    }
    if args.trace:
        layers = dict(report["layers"])
        layers["package.import_s"] = setup_s
        layers["trace.traced_wall_s"] = report["traced_wall_s"]
        layers["trace.untraced_wall_s"] = report["untraced_wall_s"]
        summary["traced_equals_untraced"] = report["traced_equals_untraced"]
        summary["self_time_sum_s"] = report["self_time_sum_s"]
        metrics = {}
        for m in bench_config()["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0), "unit": m["unit"]}
        correct = failed == 0 and report["traced_equals_untraced"]
    else:
        times = report["item_seconds"]
        p, tail_s = percentile_with_tail(times)
        summary.update({"passes": report["passes"], "wall_s": report["wall_s"],
                        "tail_percentile": p})
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "verdicts_per_s": {"value": attempted / report["wall_s"], "unit": "1/s"},
            "verdict_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
            "verdict_p90_ms": {"value": tail_s * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "conclusive_share": {"value": 1 - summary["inconclusive_share"], "unit": "ratio"},
        }
        correct = failed == 0
    return summary, {"correct": correct, "attempted": attempted, "failed": failed,
                     "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nerveforge", "__init__.py")):
        raise SystemExit("run from the repository root: src/nerveforge is missing")
    if args.record:
        for name in [args.workload] if args.workload else workloads.WORKLOADS:
            print(run_child([os.path.join(HERE, "worker.py"), "--workload", name,
                             "--seed", "0", "--seconds", "0", "--record"]))
        return
    if args.workload is None:
        ap.error("--workload is required")
    summary, result = measure(args)
    print(json.dumps(summary))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
