"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workloads all --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints for every metric its median and quartiles (Python's
``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to a third of the bound ``BENCHMARK.json`` gives it.
``--out`` keeps every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="all", help="comma list, or all")
    p.add_argument("--seeds", default="1-10", help="a-b or comma list")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write all values and summaries here as JSON")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = list(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    seeds = seeds_arg(args.seeds)

    report = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for wl in names:
        runs = []
        for seed in seeds:
            res = one_run(wl, seed, seconds, args.trace)
            runs.append(res)
            print(f"{wl} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "values": values,
                             **summarize(values)}
        report["workloads"][wl] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        print(f"{'':2}{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            third = f"{bound / 3:8.3f}" if bound else f"{'':8}"
            print(f"  {name:40} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{m['spread']:8.3f} {third}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
