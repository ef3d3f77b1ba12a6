"""Repeat the benchmark over seeds, report run-to-run spread, record the baseline.

    python3 perfbench/spread.py runs --seeds 1-10 [--workload W ...] [--trace 1] [--record]
    python3 perfbench/spread.py reference

``runs`` starts ``run.py`` once per workload and seed, in a fresh process as
a harness would, and prints per metric the median, the quartiles and the
spread (q3 - q1) / median. With ``--record`` it stores them in
baseline.json next to the machine facts; a traced record also stores the
tracing overhead and the slowest ops of the first seed. ``reference`` runs
each exact-oracle workload once at seed 0 and writes the plan values the
output checks compare against to reference.json. Run both from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import run as bench
import workloads

HERE = Path(__file__).resolve().parent
BASELINE_FILE = HERE / "baseline.json"
EXACT_WORKLOADS = ("ratio-exact", "depot-variants")


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    tail = lines[next(i for i, line in enumerate(lines) if line.startswith("tail:")):-1]
    return result, tail


def summarize(values):
    """Median, quartiles and the spread (q3 - q1) / median, as a harness computes them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def machine():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def cmd_runs(args) -> int:
    names = args.workload or list(workloads.NAMES)
    record = json.loads(BASELINE_FILE.read_text()) if BASELINE_FILE.is_file() else {}
    section = "per_layer" if args.trace else "end_to_end"
    failed = False
    for name in names:
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        tail = None
        for seed in seeds(args.seeds):
            result, lines = run_once(name, seed, args.seconds, args.trace)
            tail = tail or lines
            if not result["correct"]:
                failed = True
                print(f"{name} seed {seed}: correct=false, {result['failed']}/{result['attempted']} failed")
            for metric, m in result["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        print(f"{name}: {len(seeds(args.seeds))} seeds")
        stats = {}
        for metric, values in per_metric.items():
            s = summarize(values)
            stats[metric] = {"unit": units[metric], **s}
            print(f"  {metric:<36} {units[metric]:<6} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}")
        entry = record.setdefault("workloads", {}).setdefault(name, {"why": workloads.WHY[name]})
        entry[section] = stats
        if args.trace:
            entry["tail_ops"] = tail
            if "end_to_end" in entry:
                overhead = stats["traced_wall_s"]["median"] - entry["end_to_end"]["wall_s"]["median"]
                entry["tracing_overhead_s"] = overhead
                print(f"  tracing overhead: {overhead:.4g} s on a median wall_s of "
                      f"{entry['end_to_end']['wall_s']['median']:.4g} s")
    if args.record:
        record["machine"] = machine()
        record["seconds"] = args.seconds
        record.setdefault("seeds", {})[section] = args.seeds
        BASELINE_FILE.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failed else 0


def cmd_reference(args) -> int:
    bench.REFERENCE_FILE.write_text("{}\n")
    out = {}
    root = Path.cwd()
    for name in EXACT_WORKLOADS:
        r, result = bench.run(name, bench.REFERENCE_SEED, 0, False, root)
        if not result["correct"]:
            print(f"{name}: outputs failed their checks; reference not written", file=sys.stderr)
            return 1
        refs = {}
        for op in r.ops:
            if op.kind != "solve":
                continue
            inst = checks.Instance(bench.load_json(r.workdir / op.instance))
            plan = bench.load_json(r.workdir / op.plan)
            refs[op.name] = {"J": plan["objective"],
                             "value": checks.variant_value(inst, [tuple(p) for p in plan["paths"]], op.variant)}
        out[name] = refs
    bench.REFERENCE_FILE.write_text(json.dumps(out, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workload", action="append", choices=workloads.NAMES)
    r.add_argument("--seconds", type=float, help="defaults to run_seconds of BENCHMARK.json")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--record", action="store_true")
    r.set_defaults(func=cmd_runs)
    ref = sub.add_parser("reference")
    ref.set_defaults(func=cmd_reference)
    args = ap.parse_args(argv)
    if args.cmd == "runs" and args.seconds is None:
        args.seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
