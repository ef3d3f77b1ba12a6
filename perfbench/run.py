"""Benchmark of tso: certified-plan latency, plan quality and a per-module split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``tso`` from ``src/`` and drives
it in this one process through ``tso.cli.main(argv)``, the entry point of the
``tso`` script. Each workload is a closed loop: one client, one op at a time.
Set-up writes the workload's instance files (see workloads.py), then passes
over the op list run until the next pass would end after ``--seconds``; at
least one pass always runs. Every op's output is checked (checks.py) and a
failed check counts the op as failed. Every reported time excludes a small
calibration job that runs throughout and is scaled to a reference host
speed (calibrate.py), because the host's own speed drifts by a third.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of tracing.py, and the spans
go to the work directory. Work files live in ``.perfbench-work/`` under the
current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

SETUP_REPS = 5
HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0
TAIL_BEYOND = 10


def _fresh_tso(root: Path):
    """Import tso from root/src, discarding any copy already imported."""
    for name in [m for m in sys.modules if m == "tso" or m.startswith("tso.")]:
        del sys.modules[name]
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    tso = importlib.import_module("tso")
    importlib.import_module("tso.cli")
    return tso


def _modules():
    return {name: mod for name, mod in sys.modules.items() if name == "tso" or name.startswith("tso.")}


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str, seed: int) -> dict:
    if seed != REFERENCE_SEED or not REFERENCE_FILE.is_file():
        return {}
    return load_json(REFERENCE_FILE).get(workload, {})


class Run:
    """State of one benchmark run: the op log and, when traced, the tracer."""

    def __init__(self, workload, seed, seconds, trace, root: Path, select=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sampler = calibrate.SpeedSampler()
        self.tracer = tracing.Tracer(self.sampler.clock) if trace else None
        self.root = root
        self.workdir = root / ".perfbench-work" / f"{workload}-s{seed}-t{int(trace)}"
        self.select = select
        # Raw times exclude the calibration job; rescale() converts them to the
        # reference speed once all job samples are in.
        self.raw_setups: list[tuple[float, float, float]] = []  # (raw s, start, end)
        self.setup_times: list[float] = []
        self.pass_times: list[float] = []
        self.raw_pass_times: list[float] = []
        self.log: list[dict] = []  # one record per executed op
        self.missing: list[str] = []
        self.reference = load_reference(workload, seed)

    def setup(self):
        """Import tso and write every instance, SETUP_REPS times; keep the last ops."""
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        for rep in range(SETUP_REPS):
            start = self.timer()
            tso = _fresh_tso(self.root)
            if self.tracer is not None:
                self.missing = self.tracer.install(_modules())
                self.tracer.op = f"setup{rep}"
            ops = workloads.setup(tso, self.workload, self.seed, self.workdir)
            self.raw_setups.append(self.elapsed(start))
        self.tso = tso
        self.ops = [op for op in ops if self.select is None or self.select(op)]
        if not self.ops:
            raise ValueError("no ops selected")

    def timer(self):
        return time.perf_counter(), self.sampler.busy

    def elapsed(self, start):
        """(raw seconds since ``start`` without the calibration job, start, end)."""
        p0, b0 = start
        p1, b1 = self.timer()
        return (p1 - p0) - (b1 - b0), p0, p1

    def rescale(self):
        """Convert every raw time to the reference speed (see calibrate.py)."""
        self.setup_times = [raw * self.sampler.scale(p0, p1) for raw, p0, p1 in self.raw_setups]
        for e in self.log:
            e["ms"] = e["raw_ms"] * self.sampler.scale(*e["span"])
        passes = sorted({e["pass"] for e in self.log})
        self.pass_times = [sum(e["ms"] for e in self.log if e["pass"] == n) / 1000.0 for n in passes]
        self.raw_pass_times = [sum(e["raw_ms"] for e in self.log if e["pass"] == n) / 1000.0 for n in passes]

    def run_op(self, op, pass_no: int) -> dict:
        argv = [a.replace("{dir}", str(self.workdir)) for a in op.argv]
        op_id = f"{pass_no}:{op.name}"
        sink = io.StringIO()
        rec = None
        if self.tracer is not None:
            self.tracer.op = op_id
            rec = self.tracer.open(f"cli.{op.kind}")
        start = self.timer()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.tso.cli.main(argv)
        except Exception:  # a crash is a failed op, not a failed run
            code = None
            print(f"op {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        raw, p0, p1 = self.elapsed(start)
        if rec is not None:
            self.tracer.close(rec)
            self.tracer.op = None
        entry = {"op": op, "id": op_id, "pass": pass_no, "raw_ms": 1000.0 * raw, "span": (p0, p1),
                 "problems": [], "known": []}
        if code == 0:
            self.check(op, entry)
        else:
            entry["problems"].append(f"exit code {code}")
        for msg in entry["problems"]:
            print(f"FAILED {self.workload} seed {self.seed} {op.name}: {msg}", file=sys.stderr)
        return entry

    def check(self, op, entry):
        """Fill the entry's problems (which fail the op), known-defect findings and J/U."""
        try:
            inst = checks.Instance(load_json(self.workdir / op.instance))
            plan = load_json(self.workdir / op.plan)
            if op.kind == "simulate":
                entry["problems"] += checks.simulation_problems(inst, load_json(self.workdir / op.out),
                                                                plan["objective"])
                return
            entry["problems"] += checks.plan_problems(inst, plan, oracle=op.oracle, variant=op.variant,
                                                      team=op.team, reference=self.reference.get(op.name))
            entry["known"] += checks.variant_field_problems(inst, plan, op.variant)
            if not entry["problems"]:
                entry["j_over_u"] = checks.value_over_bound(inst, plan, op.variant)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            entry["problems"].append(f"unreadable output: {exc!r}")

    def execute(self):
        """Passes over the op list until another would overrun --seconds."""
        t_start = time.perf_counter()
        pass_no = 0
        while True:
            t_pass = time.perf_counter()
            self.log += [self.run_op(op, pass_no) for op in self.ops]
            pass_no += 1
            now = time.perf_counter()
            if now - t_start + (now - t_pass) > self.seconds:
                break

    # -- metrics ---------------------------------------------------------

    def latencies(self, kind):
        return [e["ms"] for e in self.log if e["op"].kind == kind]

    def tail(self):
        """(latency, percentile) of the highest percentile with TAIL_BEYOND solves per pass beyond it."""
        per_pass = sum(1 for op in self.ops if op.kind == "solve")
        if per_pass <= TAIL_BEYOND:
            return None, None
        p = 100.0 * (per_pass - TAIL_BEYOND) / per_pass
        return tracing.quantile(self.latencies("solve"), p / 100.0), p

    def j_over_u(self):
        ratios = [e["j_over_u"] for e in self.log if "j_over_u" in e]
        return statistics.fmean(ratios) if ratios else 0.0

    def end_to_end(self) -> dict:
        tail, _p = self.tail()
        out = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "wall_s": (statistics.median(self.pass_times), "s"),
            "plan_ms_p50": (tracing.quantile(self.latencies("solve"), 0.5), "ms"),
            "plan_ms_tail": (tail, "ms"),
            "simulate_ms_p50": (tracing.quantile(self.latencies("simulate"), 0.5), "ms"),
            "j_over_u_mean": (self.j_over_u(), "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if tail is None:  # too few solves per pass for a tail
            del out["plan_ms_tail"]
        return out

    def per_layer(self) -> dict:
        # Over the first pass: later passes repeat it, and a run's pass count
        # follows the host's speed, so totals over all passes would not repeat.
        layer = tracing.layer_metrics(self.tracer, [f"setup{r}" for r in range(SETUP_REPS)],
                                      {e["id"] for e in self.log if e["pass"] == 0})
        # Times at the reference speed over the whole run, rates inversely, counts as they are.
        scale = self.sampler.run_scale()
        factor = {"s": scale, "ms": scale, "1/s": 1.0 / scale}
        out = {name: (value * factor.get(tracing.unit(name), 1), tracing.unit(name))
               for name, value in layer.items() if value is not None}
        out["traced_wall_s"] = (statistics.median(self.pass_times), "s")
        return out

    # -- report ----------------------------------------------------------

    def tail_table(self, n=5):
        nodes = {}
        if self.tracer is not None:
            for name, _s, _e, _p, op, value in self.tracer.spans:
                if name in ("orienteering.exact", "orienteering.arc"):
                    nodes[op] = nodes.get(op, 0) + (value or 0)
        slowest = {}
        for e in self.log:
            if e["ms"] > slowest.get(e["op"].name, {"ms": -1.0})["ms"]:
                slowest[e["op"].name] = e
        rows = sorted(slowest.values(), key=lambda e: -e["ms"])[:n]
        lines = [f"tail: {n} slowest ops (seed {self.seed})",
                 f"  {'op':<28} {'kind':<8} {'p_s':>5} {'variant':<11} {'ms':>10} {'oracle nodes':>13}"]
        for e in rows:
            op = e["op"]
            count = nodes.get(e["id"], "-") if self.tracer is not None else "-"
            lines.append(f"  {op.name:<28} {op.kind:<8} {op.p_s:>5} {op.variant:<11} {e['ms']:>10.1f} {count!s:>13}")
        return lines

    def report(self, metrics: dict) -> list[str]:
        solves = len(self.latencies("solve"))
        sims = len(self.latencies("simulate"))
        failed = sum(1 for e in self.log if e["problems"])
        _t, p = self.tail()
        notes = {
            "setup_s": f"median of {SETUP_REPS} set-ups, each importing tso afresh",
            "wall_s": f"median of {len(self.pass_times)} passes of {len(self.ops)} ops, "
                      f"raw {statistics.median(self.raw_pass_times):.4g} s",
            "plan_ms_p50": f"n={solves}",
            "plan_ms_tail": f"p{p:.1f}, n={solves}, {TAIL_BEYOND} per pass beyond" if p else "",
            "simulate_ms_p50": f"n={sims}",
            "traced_wall_s": "tracing overhead = traced_wall_s - untraced wall_s",
        }
        lines = [f"workload {self.workload} seed {self.seed} trace {int(self.tracer is not None)}"]
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:<36} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
        lines.append(f"  {'failed_frac':<36} {failed / len(self.log):>14.6g} {'1':<6} {failed}/{len(self.log)} ops")
        known = [e for e in self.log if e["known"]]
        if known:
            lines.append(f"  known defect in {len(known)} solve ops, not counted as failed: {known[0]['known'][0]}")
        if self.missing:
            lines.append("  missing sites: " + ", ".join(self.missing))
        if self.tracer is not None:
            lines += self.sanity(metrics)
        return lines + self.tail_table()

    def sanity(self, metrics) -> list[str]:
        op_s = sum(e["raw_ms"] for e in self.log) / 1000.0 * self.sampler.run_scale()
        exact_s = metrics.get("orienteering.exact_s", (None,))[0]
        calls = metrics.get("orienteering.exact_calls", (None,))[0]
        if exact_s is None or calls is None:
            return ["  sanity: exact-oracle metrics missing"]
        share = exact_s / op_s
        line = f"  sanity: orienteering.exact_s is {share:.1%} of summed op time, {calls} exact calls"
        if self.workload == "ratio-exact":
            line += " (expect >= 90%)" if share >= 0.9 else " (EXPECTED >= 90%)"
        if self.workload == "grasp-heuristic":
            line += " (expect 0)" if calls == 0 else " (EXPECTED 0)"
        return [line]


def run(workload, seed, seconds, trace, root: Path, select=None) -> tuple[Run, dict]:
    """Set up, execute and measure one run; returns the run and its result line."""
    r = Run(workload, seed, seconds, trace, root, select)
    with r.sampler:
        r.setup()
        r.execute()
    r.rescale()
    metrics = r.per_layer() if trace else r.end_to_end()
    for line in r.report(metrics):
        print(line)
    if trace:
        r.tracer.write(r.workdir / "trace.jsonl")
    failed = sum(1 for e in r.log if e["problems"])
    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v, _u in metrics.values()),
        "attempted": len(r.log),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return r, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "tso" / "__init__.py").is_file():
        print(f"error: no tso sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    _r, result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
