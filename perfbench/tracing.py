"""Spans around the public functions of each tso module, installed from outside.

A wrapper replaces a function at the name its caller looks up, such as
``tso.greedy.solve_exact`` or ``tso.graph.dijkstra``; nothing under ``src/``
changes. Spans stay in memory as [name, start, end, parent, op, value] and
are written out when the run ends. A site whose target no longer exists is
recorded as missing, and every metric that reads only missing sites is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

import numpy as np

# (module, attribute, span name). A span name may sit behind several sites
# when callers import the same function under different modules.
SPAN_SITES = (
    ("tso.instances", "feasible_random_instance", "instances.draw"),
    ("tso.instances", "hex_instance", "instances.draw"),
    ("tso.instances", "feasibility_check", "instances.feasibility"),
    ("tso.graph", "dijkstra", "graph.dijkstra"),
    ("tso.greedy", "feasibility_check", "graph.feasibility"),
    ("tso.greedy", "solve_exact", "orienteering.exact"),
    ("tso.greedy", "solve_arc_exact", "orienteering.arc"),
    ("tso.greedy", "solve_heuristic", "orienteering.heuristic"),
    ("tso.greedy", "discrete_derivative", "objective.gain"),
    ("tso.greedy", "team_plan", "objective.team_plan"),
    ("tso.greedy", "visit_count_distribution", "objective.count_dist"),
    ("tso.objective", "visit_count_distribution", "objective.count_dist"),
    ("tso.greedy", "multi_visit_objective", "objective.variant_value"),
    ("tso.greedy", "edge_team_objective", "objective.variant_value"),
    ("tso.cli", "simulate_team", "objective.simulate"),
    ("tso.cli", "greedy_survivors", "greedy.run"),
    ("tso.cli", "compute_bounds", "greedy.bounds"),
)
# Hot, cheap calls whose metric is a count: no span, just a counter.
COUNT_SITES = (
    ("tso.graph", "log_transform", "graph.log_transform"),
    ("tso.greedy", "log_transform", "graph.log_transform"),
    ("tso.greedy", "visit_profile", "objective.profile"),
    ("tso.objective", "visit_profile", "objective.profile"),
)
ORACLES = ("orienteering.exact", "orienteering.arc", "orienteering.heuristic")
USEFUL_GAIN = 1e-6


def _nodes(result):
    return getattr(result, "nodes_expanded", None)


def _gains(result):
    return list(getattr(result, "gains", ()))


def _trials(result):
    return getattr(result, "trials", None)


RESULT_VALUE = {
    "orienteering.exact": _nodes,
    "orienteering.arc": _nodes,
    "orienteering.heuristic": _nodes,
    "greedy.run": _gains,
    "objective.simulate": _trials,
}


class Tracer:
    """In-memory spans and counters for one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self.present: set[str] = set()

    def open(self, name):
        rec = [name, self.clock(), 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec, value=None):
        rec[2] = self.clock()
        rec[5] = value
        self.stack.pop()

    def _span_wrapper(self, name, fn):
        extract = RESULT_VALUE.get(name)

        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(rec)
                raise
            self.close(rec, extract(result) if extract else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name, self.op] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, modules) -> list[str]:
        """Wrap every site found in ``modules`` (name -> module); return the missing sites."""
        missing = []
        for sites, make in ((SPAN_SITES, self._span_wrapper), (COUNT_SITES, self._count_wrapper)):
            for mod_name, attr, name in sites:
                mod = modules.get(mod_name)
                fn = getattr(mod, attr, None) if mod is not None else None
                if not callable(fn):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(mod, attr, make(name, fn))
                self.present.add(name)
        return missing

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, value in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "value": value}) + "\n")


UNIT_SUFFIXES = (("_ms_p50", "ms"), ("_ms_p99", "ms"), ("_per_s", "1/s"), ("_frac", "1"), ("_s", "s"))


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name; everything else is a count."""
    return next((u for suffix, u in UNIT_SUFFIXES if metric.endswith(suffix)), "count")


_GRID = 20_000  # integration points for the Beta weights of quantile()


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1); 0.0 for an empty sample.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics. Unlike
    a single order statistic it does not jump when the quantile falls in a
    gap between clusters of op latencies, and it averages the noise of the
    neighbouring ops instead of taking one op's.
    """
    if len(values) < 2:
        return float(values[0]) if len(values) else 0.0
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = (np.arange(_GRID) + 0.5) / _GRID
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.arange(_GRID + 1) / _GRID, cdf))
    return float(weights @ x)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(spans, children, i, names=None) -> float:
    """Span i's duration minus the part its children (or those of the given names) cover."""
    start, end = spans[i][1], spans[i][2]
    kids = [c for c in children.get(i, ()) if names is None or spans[c][0] in names]
    return (end - start) - _covered((spans[c][1], spans[c][2]) for c in kids)


def _usefulness(spans, children, greedy_runs):
    """(share of oracle calls whose path's true gain exceeds USEFUL_GAIN, seconds in the rest).

    The k-th oracle call under a greedy run chose the k-th path, whose true
    marginal gain is the run's gains[k]. If the counts disagree the pairing
    is unknown and both values are None.
    """
    useful = calls = 0
    wasted = 0.0
    for g in greedy_runs:
        oracle = [c for c in children.get(g, ()) if spans[c][0] in ORACLES]
        gains = spans[g][5] or []
        if len(oracle) != len(gains):
            return None, None
        for c, gain in zip(oracle, gains):
            calls += 1
            if gain > USEFUL_GAIN:
                useful += 1
            else:
                wasted += spans[c][2] - spans[c][1]
    return (useful / calls if calls else None), wasted


# Metric name -> the span or counter names it reads. Which end-to-end metric
# each layer should move, and where:
#   instances.*      setup_s on ratio-exact and grasp-heuristic (most p_s=0.95
#                    draws are rejected)
#   graph.*          plan_ms_p50 on ratio-exact, where the median op is cheap and
#                    greedy, bounds and feasibility each rebuild a log graph
#   orienteering.exact_*, useful_call_frac, wasted_s
#                    wall_s and plan_ms_tail on ratio-exact
#   orienteering.arc_*        wall_s on depot-variants
#   orienteering.heuristic_*  wall_s and plan_ms_p50 on grasp-heuristic
#   objective.*      wall_s and simulate_ms_p50 on depot-variants (multi_visit
#                    and simulate ops); barely ratio-exact
#   greedy.*         plan_ms_p50 on ratio-exact and grasp-heuristic
#   cli.io_s         plan_ms_p50 on all three workloads
LAYER_SOURCES = {
    "instances.draw_s": ("instances.draw",),
    "instances.draws_tried": ("instances.feasibility",),
    "graph.dijkstra_calls": ("graph.dijkstra",),
    "graph.dijkstra_s": ("graph.dijkstra",),
    "graph.log_transform_calls": ("graph.log_transform",),
    "graph.feasibility_calls": ("graph.feasibility",),
    "graph.feasibility_s": ("graph.feasibility",),
    "orienteering.exact_calls": ("orienteering.exact",),
    "orienteering.exact_s": ("orienteering.exact",),
    "orienteering.exact_nodes": ("orienteering.exact",),
    "orienteering.exact_nodes_max": ("orienteering.exact",),
    "orienteering.exact_call_ms_p50": ("orienteering.exact",),
    "orienteering.exact_call_ms_p99": ("orienteering.exact",),
    "orienteering.arc_calls": ("orienteering.arc",),
    "orienteering.arc_s": ("orienteering.arc",),
    "orienteering.arc_nodes": ("orienteering.arc",),
    "orienteering.heuristic_calls": ("orienteering.heuristic",),
    "orienteering.heuristic_s": ("orienteering.heuristic",),
    "orienteering.heuristic_candidates": ("orienteering.heuristic",),
    "orienteering.useful_call_frac": ("greedy.run",),
    "orienteering.wasted_s": ("greedy.run",),
    "objective.profile_calls": ("objective.profile",),
    "objective.gain_s": ("objective.gain",),
    "objective.team_plan_s": ("objective.team_plan",),
    "objective.count_dist_s": ("objective.count_dist",),
    "objective.variant_value_s": ("objective.variant_value",),
    "objective.simulate_s": ("objective.simulate",),
    "objective.simulate_trials_per_s": ("objective.simulate",),
    "greedy.self_s": ("greedy.run",),
    "greedy.bounds_s": ("greedy.bounds",),
    "cli.io_s": ("greedy.run", "greedy.bounds"),
}


def layer_metrics(tracer: Tracer, setup_ops, run_ops) -> dict:
    """Per-layer totals over the given ops (instances.* over one set-up, median of the repetitions).

    ``setup_ops`` and ``run_ops`` are the op ids of the set-up repetitions
    and of the ops to total. A metric whose sources were all missing is None.
    """
    spans = tracer.spans
    run_ops = set(run_ops)
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for i, (name, _s, _e, parent, op, _v) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
        if op in run_ops:
            by_name.setdefault(name, []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def values(name):
        return [spans[i][5] or 0 for i in by_name.get(name, ())]

    def per_setup(name, fn):
        return statistics.median(
            fn([i for i, s in enumerate(spans) if s[0] == name and s[4] == op]) for op in setup_ops
        )

    def counted(name):
        return sum(n for (counter, op), n in tracer.counts.items() if counter == name and op in run_ops)

    useful_frac, wasted = _usefulness(spans, children, by_name.get("greedy.run", ()))
    io = sum(self_time(spans, children, i, ("greedy.run", "greedy.bounds")) for i in by_name.get("cli.solve", ()))
    exact_ms = [1000.0 * dur(i) for i in by_name.get("orienteering.exact", ())]
    sim_s = total("objective.simulate")

    out = {
        "instances.draw_s": per_setup("instances.draw", lambda ix: sum(dur(i) for i in ix)),
        "instances.draws_tried": per_setup("instances.feasibility", len),
        "graph.dijkstra_calls": calls("graph.dijkstra"),
        "graph.dijkstra_s": total("graph.dijkstra"),
        "graph.log_transform_calls": counted("graph.log_transform"),
        "graph.feasibility_calls": calls("graph.feasibility"),
        "graph.feasibility_s": total("graph.feasibility"),
        "orienteering.exact_calls": calls("orienteering.exact"),
        "orienteering.exact_s": total("orienteering.exact"),
        "orienteering.exact_nodes": sum(values("orienteering.exact")),
        "orienteering.exact_nodes_max": max(values("orienteering.exact"), default=0),
        "orienteering.exact_call_ms_p50": quantile(exact_ms, 0.50),
        "orienteering.exact_call_ms_p99": quantile(exact_ms, 0.99),
        "orienteering.arc_calls": calls("orienteering.arc"),
        "orienteering.arc_s": total("orienteering.arc"),
        "orienteering.arc_nodes": sum(values("orienteering.arc")),
        "orienteering.heuristic_calls": calls("orienteering.heuristic"),
        "orienteering.heuristic_s": total("orienteering.heuristic"),
        "orienteering.heuristic_candidates": sum(values("orienteering.heuristic")),
        "orienteering.useful_call_frac": useful_frac,
        "orienteering.wasted_s": wasted,
        "objective.profile_calls": counted("objective.profile"),
        "objective.gain_s": total("objective.gain"),
        "objective.team_plan_s": total("objective.team_plan"),
        "objective.count_dist_s": total("objective.count_dist"),
        "objective.variant_value_s": total("objective.variant_value"),
        "objective.simulate_s": sim_s,
        "objective.simulate_trials_per_s": sum(values("objective.simulate")) / sim_s if sim_s else 0.0,
        "greedy.self_s": sum(self_time(spans, children, i) for i in by_name.get("greedy.run", ())),
        "greedy.bounds_s": total("greedy.bounds"),
        "cli.io_s": io,
    }
    for metric, sources in LAYER_SOURCES.items():
        if not any(s in tracer.present for s in sources):
            out[metric] = None
    return out
