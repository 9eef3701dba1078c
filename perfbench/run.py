"""seqideal benchmark: one workload per run, in-process through the public API.

    python3 perfbench/run.py --workload gf2-analyze-bm --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
raw spans are written to ``perfbench/out/``.  Lines before it start with
``#`` and are for people.  Exit status is 0 when the run completed (its
correctness is in the JSON), 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path

from spans import Recorder, Tracer
from workloads import WORKLOADS, OpTimer, clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
LAYERS = ("field", "bivariate", "vop_engine", "oracles", "rueppel", "cli")
SETUP_REPS = 15
DEFAULT_SEED = 1


def machine_facts() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} cpu={cpu}"


def modules():
    """The six layers as one namespace (imported if need be)."""
    return argparse.Namespace(
        **{layer: importlib.import_module(f"seqideal.{layer}") for layer in LAYERS}
    )


def load_modules():
    """Import every layer afresh, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "seqideal" or m.startswith("seqideal.")]:
        del sys.modules[name]
    importlib.import_module("seqideal")
    return modules()


def setup(wl, seed):
    """Import, field construction, input generation and one warm-up op on
    a short input; returns (seconds, modules, field, inputs)."""
    t0 = clock()
    mods = load_modules()
    field = mods.field.field_from_tag(wl.field_tag)
    rng = random.Random(seed)
    inputs = [wl.make_input(rng, field, wl.n) for _ in range(wl.pool)]
    warm = wl.make_input(random.Random(f"warm-{seed}"), field, wl.warm_n)
    wl.run(mods, field, warm, OpTimer())
    return clock() - t0, mods, field, inputs


def measure(wl, mods, field, inputs, seconds, tracer=None):
    """Run whole passes over the input pool until ``seconds`` have gone.

    With a tracer, rounds alternate untraced and traced on the same
    input, so the two halves see the same inputs in the same order.
    """
    timer = OpTimer()
    oracle_cache: dict = {}
    stats = {"attempted": 0, "failed": 0, "terms": 0, "traced_rounds": []}
    per_input = 2 if tracer else 1
    deadline = clock() + seconds
    k = 0
    while True:
        i = (k // per_input) % len(inputs)
        traced = tracer is not None and k % 2 == 1
        first_op = timer.next_op
        if traced:
            timer.rec = tracer.rec
            tracer.install()
        try:
            r = wl.run(mods, field, inputs[i], timer)
        finally:
            if traced:
                tracer.uninstall()
                timer.rec = None
        try:
            ok = r.output is not None and wl.check(
                mods, field, inputs[i], r.output, oracle_cache, i
            )
        except Exception:
            ok = False
        stats["attempted"] += r.attempted
        stats["failed"] += r.raised if ok else r.attempted
        stats["terms"] += r.terms
        if traced:
            stats["traced_rounds"].append(range(first_op, timer.next_op))
        k += 1
        if k % (per_input * len(inputs)) == 0 and clock() >= deadline:
            break
    return timer, stats


def tail(times):
    """The op-time tail as (value, label): the highest nearest-rank
    percentile, up to p99, with at least ten ops above it; the maximum
    when there are ten ops or fewer.  Nothing above p99 is used: on a
    shared two-CPU machine those ops are scheduler and collector pauses
    (p99.9 of gfp-stream-fork read 2.7 ms in one 10 s run and 4.9 ms in
    the next, while p99 read 1.24 and 1.29 ms)."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of {n} ops"
    k = min(n - 11, math.ceil(n * 0.99) - 1)
    return s[k], f"p{100 * (k + 1) / n:.2f} of {n} ops"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(timer, stats, setup_times):
    times = timer.times
    tail_s, tail_label = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = [
        f"op_tail_s is the {tail_label}",
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    return {
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "terms_per_s": metric(stats["terms"] / sum(times), "terms/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
    }, lines


# per-layer self times, as mean seconds per traced op; only spans that
# every workload reaches, so none of these reads zero by construction
SELF_GROUPS = {
    "vop_engine.self_s": lambda n: n.startswith("vop_engine."),
    "field.self_s": lambda n: n.startswith("field."),
    "vop_engine.VOPState.advance.self_s": lambda n: n == "vop_engine.VOPState.advance",
    "vop_engine.discrepancy_window.self_s": lambda n: n == "vop_engine.discrepancy_window",
    "field.submul_at.self_s": lambda n: n.startswith("field.") and n.endswith(".submul_at"),
    "field.dot.self_s": lambda n: n.startswith("field.") and n.endswith(".dot"),
}

# exact counts per op over the first traced pass through the input pool
COUNTS = (
    "vop_engine.synthesize.calls",
    "vop_engine.VOPState.advance.calls",
    "vop_engine.VOPState.copy.calls",
    "vop_engine.discrepancy_window.calls",
    "vop_engine.discrepancy_window.coeffs",
    "vop_engine.submul_at.calls",
    "vop_engine.submul_at.coeffs",
    "vop_engine.length_changes",
    "oracles.berlekamp_massey.calls",
    "oracles.submul_at.calls",
    "oracles.dai_ea.calls",
    "bivariate.InverseForm.calls",
    "bivariate.UniPoly.divmod.calls",
    "rueppel.ralg.calls",
    "rueppel.clmul.calls",
    "rueppel.clmul.bits",
    "cli.parse_sequence_text.tokens",
    "cli.report.bytes",
)
MAXIMA = ("field.q.max_coeff_bits",)


def per_layer(timer, stats, rec, pool):
    traced = [t for t, on in zip(timer.times, timer.traced) if on]
    untraced = [t for t, on in zip(timer.times, timer.traced) if not on]
    traced_p50 = statistics.median(traced)
    untraced_p50 = statistics.median(untraced)
    out = {
        "trace.op_p50_s": metric(traced_p50, "s"),
        "trace.overhead_s": metric(traced_p50 - untraced_p50, "s"),
    }
    totals = rec.totals()
    n_traced = len(traced)
    for key, pred in SELF_GROUPS.items():
        total = sum(row[1] for name, row in totals.items() if pred(name))
        out[key] = metric(total / n_traced, "s")

    first_pass = [op for r in stats["traced_rounds"][:pool] for op in r]
    summed = {key: sum(rec.counts.get((op, key), 0) for op in first_pass) for key in COUNTS}
    for key in COUNTS:
        out[key] = metric(summed[key] / len(first_pass), "count")
    window = summed["vop_engine.discrepancy_window.calls"]
    ratio = summed["vop_engine.submul_at.calls"] / window if window else 0.0
    out["vop_engine.nonzero_discrepancy_ratio"] = metric(ratio, "ratio")
    for key in MAXIMA:
        out[key] = metric(max((rec.maxima.get((op, key), 0) for op in first_pass), default=0), "bits")

    lines = [
        f"traced {n_traced} ops, untraced {len(untraced)} ops: op_p50 {traced_p50:.6f} s traced,"
        f" {untraced_p50:.6f} s untraced, overhead {traced_p50 - untraced_p50:+.6f} s",
        f"counts are per op over the first traced pass ({len(first_pass)} ops)",
        f"{'span':48} {'total_s/op':>12} {'self_s/op':>12} {'calls/op':>12}",
    ]
    rows = sorted(rec.totals(by_caller=True).items(), key=lambda kv: -kv[1][1])
    for name, (total, self_s, calls) in rows:
        lines.append(
            f"{name:48} {total / n_traced:12.6f} {self_s / n_traced:12.6f} {calls / n_traced:12.2f}"
        )
    by_layer: dict[str, float] = {}
    for name, row in totals.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row[1] / n_traced
    lines.append(
        "self time per traced op by layer: "
        + ", ".join(f"{k} {v:.6f} s" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1]))
        + f"; sum {sum(by_layer.values()):.6f} s, traced op mean {sum(traced) / n_traced:.6f} s"
    )
    return out, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "seqideal" / "__init__.py").is_file():
        print(f"error: no seqideal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    print(f"# seqideal benchmark workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine_facts()}")

    setup_times = []
    for _ in range(SETUP_REPS):
        took, mods, field, inputs = setup(wl, args.seed)
        setup_times.append(took)

    rec = tracer = None
    if args.trace:
        rec = Recorder()
        tracer = Tracer(mods, field, rec)
    timer, stats = measure(wl, mods, field, inputs, args.seconds, tracer)

    if args.trace:
        metrics, lines = per_layer(timer, stats, rec, wl.pool)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv"
        rec.write(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(timer, stats, setup_times)

    attempted, failed = stats["attempted"], stats["failed"]
    lines.append(f"ops attempted {attempted}, failed {failed}, error_rate {failed / attempted:g}")
    for line in lines:
        print("# " + line)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
