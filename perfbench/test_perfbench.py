"""Self-tests of the benchmark, on small op subsets so they finish in seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run as bench
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = ("orienteering.exact_nodes", "orienteering.exact_calls", "orienteering.arc_calls",
            "orienteering.arc_nodes", "orienteering.heuristic_calls", "graph.dijkstra_calls",
            "instances.draws_tried")


def light_ratio(op):
    return op.p_s >= 0.85


def light_depot(op):
    return op.p_s >= 0.8


def _run(workload, seed, trace, select):
    r, result = bench.run(workload, seed, 0, trace, ROOT, select)
    files = {p.name: p.read_bytes() for p in sorted(r.workdir.glob("*.json"))}
    return r, result, files


@pytest.fixture(scope="module")
def pairs():
    """Per workload: an untraced run and two traced runs of the same subset."""
    out = {}
    for workload, seed, select in (("ratio-exact", 0, light_ratio), ("depot-variants", 3, light_depot),
                                   ("grasp-heuristic", 2, light_ratio)):
        out[workload] = [_run(workload, seed, trace, select) for trace in (False, True, True)]
    return out


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tracing_changes_no_output_file(pairs, workload):
    (_r0, plain, files0), (_r1, traced, files1), _ = pairs[workload]
    assert plain["correct"] and traced["correct"]
    assert any(name.endswith(".plan.json") for name in files0)
    assert files0 == files1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_deterministic_counters_repeat(pairs, workload):
    _, (_r1, first, _f1), (_r2, second, _f2) = pairs[workload]
    for name in COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["orienteering.exact_calls"]["value"] + \
        first["metrics"]["orienteering.heuristic_calls"]["value"] > 0


def test_reference_values_are_checked_at_seed_0(pairs):
    (r, result, _files), _, _ = pairs["ratio-exact"]
    assert result["correct"]
    solves = [op.name for op in r.ops if op.kind == "solve"]
    assert solves and all(name in r.reference for name in solves)


def test_missing_wrapper_target_is_reported_not_fatal(tmp_path):
    tso = bench._fresh_tso(ROOT)
    del tso.greedy.solve_arc_exact
    tracer = tracing.Tracer()
    missing = tracer.install(bench._modules())
    assert missing == ["tso.greedy.solve_arc_exact"]
    ops = workloads.setup(tso, "depot-variants", 0, tmp_path)
    op = next(op for op in ops if op.kind == "solve" and op.p_s == 0.9 and op.variant == "node")
    tracer.op = "0:x"
    rec = tracer.open("cli.solve")
    assert tso.cli.main([a.replace("{dir}", str(tmp_path)) for a in op.argv]) == 0
    tracer.close(rec)
    layer = tracing.layer_metrics(tracer, ["setup"], ["0:x"])
    assert layer["orienteering.arc_calls"] is None and layer["orienteering.arc_nodes"] is None
    assert layer["orienteering.exact_calls"] == workloads.HEX_OVERSIZE


def test_traced_split_sanity():
    heavy = bench.run("ratio-exact", 0, 0, True, ROOT,
                      select=lambda op: op.p_s == 0.5 and op.rep > 0)[1]["metrics"]
    grasp = bench.run("grasp-heuristic", 0, 0, True, ROOT, select=light_ratio)[1]["metrics"]
    op_s = heavy["traced_wall_s"]["value"]
    assert heavy["orienteering.exact_s"]["value"] >= 0.9 * op_s
    assert grasp["orienteering.exact_calls"]["value"] == 0
    assert grasp["orienteering.heuristic_calls"]["value"] > 0


def test_checks_catch_broken_plans(pairs):
    (r, _result, files), _, _ = pairs["depot-variants"]
    op = next(op for op in r.ops if op.kind == "solve" and op.variant == "edge")
    inst = checks.Instance(json.loads(files[op.instance]))
    plan = json.loads(files[op.plan])
    kw = dict(oracle="exact", variant="edge", team=op.team)
    assert checks.plan_problems(inst, plan, **kw) == []

    def broken(**changes):
        doc = json.loads(files[op.plan])
        doc.update(changes)
        return checks.plan_problems(inst, doc, **kw)

    assert broken(objective=plan["objective"] * 1.001)
    assert broken(paths=[p[:-1] for p in plan["paths"]])
    assert broken(paths=[p[:1] + p[1:2] * 2 + p[2:] for p in plan["paths"]])
    assert broken(bounds={**plan["bounds"], "U2": 1e-3})
    assert broken(bounds={**plan["bounds"], "certified": False})
    assert checks.plan_problems(inst, plan, **kw, reference={"J": plan["objective"] + 0.01, "value": 0.0})
    sim = {"estimate": plan["objective"] + 0.5, "std_error": 0.01, "trials": 10**5}
    assert checks.simulation_problems(inst, sim, plan["objective"])
    assert not checks.simulation_problems(inst, {**sim, "estimate": plan["objective"]}, plan["objective"])


def test_relabel_is_an_isomorphism():
    tso = bench._fresh_tso(ROOT)
    doc = workloads._hex_tables(tso.graph.instance_to_dict(tso.instances.hex_instance(p_s=0.7)))
    assert workloads.relabel(doc, 0, (1,)) is doc
    out = workloads.relabel(doc, 4, (1,))
    new = workloads.relabelling([n["id"] for n in doc["nodes"]], 4, (1,))
    assert sorted(new.values()) == sorted(new) and any(k != v for k, v in new.items())
    assert (out["start"], out["terminal"]) == (new[doc["start"]], new[doc["terminal"]])
    a, b = checks.Instance(doc), checks.Instance(out)
    assert b.survival == {(new[u], new[v]): w for (u, v), w in a.survival.items()}
    assert b.edge_rewards == {(new[u], new[v]): d for (u, v), d in a.edge_rewards.items()}
    assert b.multi_visit == {new[v]: row for v, row in a.multi_visit.items()}
    assert b.nodes == sorted(b.nodes)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ratio-exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
