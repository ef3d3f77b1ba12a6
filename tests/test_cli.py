from __future__ import annotations

import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tso
from tso.cli import CSV_HEADER, _bench_cell, bench_rows, build_parser, fmt, main
from tso.greedy import VARIANTS

DATA = Path(__file__).parent / "data"


def _gen(tmp_path, name="inst.json", nodes=6, p_s=0.7, seed=0):
    path = tmp_path / name
    rc = main([
        "gen", "--complete", "--nodes", str(nodes), "--p-s", str(p_s),
        "--seed", str(seed), "--out", str(path),
    ])
    assert rc == 0
    return path


def test_fmt_is_short_and_stable():
    assert fmt(0.7) == "0.7"
    assert fmt(1.0) == "1"
    assert fmt(4.145567168435) == "4.14556717"


def test_negative_seed_exits_one(tmp_path, capsys):
    # Every subcommand with --seed names the flag; numpy's own message did
    # not, and the exact oracle, which draws nothing, used to accept it.
    inst = _gen(tmp_path)
    plan = tmp_path / "plan.json"
    assert main(["solve", str(inst), "--out", str(plan)]) == 0
    capsys.readouterr()
    for argv in (
        ["gen", "--complete", "--nodes", "6"],
        ["solve", str(inst)],
        ["solve", str(inst), "--oracle", "heuristic"],
        ["simulate", str(inst), "--plan", str(plan)],
        ["bench", "--suite", "hex"],
    ):
        assert main(argv + ["--seed", "-1"]) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --seed must be >= 0, got -1\n"), argv


def test_gen_complete_round_trip(tmp_path):
    path = _gen(tmp_path, nodes=7, seed=3)
    g = tso.load_instance(path)
    assert g.num_nodes == 7
    assert tso.validate_instance(g) == []
    again = tmp_path / "again.json"
    rc = main(["gen", "--complete", "--nodes", "7", "--p-s", "0.7", "--seed", "3", "--out", str(again)])
    assert rc == 0
    assert path.read_bytes() == again.read_bytes()


def test_gen_hex_preset(tmp_path, capsys):
    path = tmp_path / "hex.json"
    assert main(["gen", "--preset", "hex", "--out", str(path)]) == 0
    g = tso.load_instance(path)
    assert g.num_nodes == 19
    assert main(["gen", "--preset", "hex"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 19


def test_gen_complete_defaults_are_the_flags_it_always_had(capsys):
    # --nodes, --weight-min, --weight-max and --seed have no argparse default,
    # so that --preset can refuse them; --complete fills in 10, 0.3, 1.0 and 0.
    assert main(["gen", "--complete"]) == 0
    implicit = capsys.readouterr().out
    assert main(["gen", "--complete", "--nodes", "10", "--weight-min", "0.3", "--weight-max", "1.0", "--seed", "0"]) == 0
    assert capsys.readouterr().out == implicit
    doc = json.loads(implicit)
    assert len(doc["nodes"]) == 10 and all(0.3 <= e["survival"] < 1.0 for e in doc["edges"])


def test_hex_bench_takes_seed_zero(tmp_path):
    out = tmp_path / "hex.csv"
    assert main(["bench", "--suite", "hex", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "bench-hex.csv").read_bytes()


def test_gen_needs_a_shape(capsys):
    assert main(["gen"]) == 1
    assert capsys.readouterr().err == "error: choose --complete or --preset hex\n"


@pytest.mark.parametrize("argv, message", [
    (["--preset", "hex", "--p-s", "1.5"], "p_s 1.5 out of (0,1]"),
    (["--preset", "hex", "--team", "0"], "team size 0 < 1"),
    (["--complete", "--nodes", "5", "--team", "-2"], "team size -2 < 1"),
])
def test_gen_refuses_an_instance_solve_would_reject(tmp_path, capsys, argv, message):
    out = tmp_path / "inst.json"
    assert main(["gen", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid instance: ") and message in err and err.count("\n") == 1, err
    assert not out.exists()
    assert main(["gen", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_solve_writes_plan_with_certificate(tmp_path, capsys):
    inst = _gen(tmp_path, p_s=0.6)
    plan_path = tmp_path / "plan.json"
    rc = main(["solve", str(inst), "--team", "2", "--out", str(plan_path)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("J=") and "certified=true" in line

    g = tso.load_instance(inst)
    doc = json.loads(plan_path.read_text())
    paths = tso.paths_from_plan_dict(doc)
    assert len(paths) == 2
    for p in paths:
        prof = tso.visit_profile(g, p)
        assert prof.survival >= g.p_s - 1e-9
    j, _ = tso.team_objective(g, paths)
    assert doc["objective"] == pytest.approx(j, abs=1e-9)
    bounds = doc["bounds"]
    assert set(bounds) == {"U1", "U2", "U3", "factor", "certified"}
    u = min(bounds["U1"], bounds["U2"], bounds["U3"])
    assert j <= u + 1e-9
    assert j >= bounds["factor"] * u - 1e-9
    assert len(doc["marginal_gains"]) == 2
    assert "variant" not in doc


def test_solve_stdout_without_out(tmp_path, capsys):
    inst = _gen(tmp_path)
    assert main(["solve", str(inst)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "paths" in doc and "bounds" in doc


def test_solve_edge_variant_reports_value(tmp_path, capsys):
    g = tso.SurvivalGraph(
        node_ids=[1, 2, 4],
        priorities={1: 1.0, 2: 1.0, 4: 1.0},
        edges=[(1, 2, 0.9), (2, 4, 0.9), (1, 4, 1.0)],
        start=1,
        terminal=4,
        p_s=0.8,
        edge_rewards={(1, 2): 1.0},
    )
    inst = tmp_path / "edge.json"
    tso.save_instance(g, inst)
    assert main(["solve", str(inst), "--variant", "edge"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "edge"
    assert doc["variant_objective"] == pytest.approx(0.9, abs=1e-12)
    assert tso.paths_from_plan_dict(doc) == [(1, 2, 4)]


def test_an_empty_edge_reward_table_pays_no_edge(tmp_path, capsys):
    # Without a table every edge pays 1.0: (0, 1, 2) crosses (0, 1) with
    # chance 0.9 and (1, 2) with 0.81. A given table, even an empty one,
    # pays only its entries, and a round trip through the instance file
    # keeps it.
    doc = {
        "version": 1, "nodes": [{"id": v, "priority": 1.0} for v in range(3)],
        "edges": [{"from": 0, "to": 1, "survival": 0.9}, {"from": 1, "to": 2, "survival": 0.9},
                  {"from": 0, "to": 2, "survival": 1.0}],
        "start": 0, "terminal": 2, "p_s": 0.8,
    }
    tables = {"none": None, "empty": [], "zero": [{"from": 0, "to": 1, "d": 0.0}]}
    for name, table in tables.items():
        inst = tmp_path / f"{name}.json"
        inst.write_text(json.dumps(doc if table is None else {**doc, "edge_rewards": table}))
        again = tmp_path / f"{name}-again.json"
        tso.save_instance(tso.load_instance(inst), again)
        assert json.loads(again.read_text()).get("edge_rewards") == table
        for path in (inst, again):
            assert main(["solve", str(path), "--team", "1", "--variant", "edge"]) == 0
            value = json.loads(capsys.readouterr().out)["variant_objective"]
            assert value == pytest.approx(1.71 if table is None else 0.0, abs=1e-12), (name, path.name)


@pytest.mark.parametrize("variant", ["edge", "multi_visit"])
def test_solve_variant_objective_is_team_value(tmp_path, capsys, variant):
    # With --oversize the run plans more paths than it writes; the reported
    # variant value must belong to the written team paths.
    base = tso.random_complete_instance(6, 0.5, 1.0, 0.6, seed=2)
    table = tso.MultiVisitTable(M=2, d={v: [1.0, 0.5] for v in base.node_ids})
    g = tso.SurvivalGraph(
        node_ids=base.node_ids,
        priorities=base.priorities,
        edges=base.edges,
        start=base.start,
        terminal=base.terminal,
        p_s=base.p_s,
        multi_visit=table,
    )
    inst = tmp_path / "inst.json"
    tso.save_instance(g, inst)
    assert main(["solve", str(inst), "--team", "2", "--oversize", "6", "--variant", variant]) == 0
    doc = json.loads(capsys.readouterr().out)
    paths = tso.paths_from_plan_dict(doc)
    assert len(paths) == 2
    if variant == "edge":
        want = tso.edge_team_objective(g, paths, {(u, v): 1.0 for u, v, _w in g.edges})
    else:
        want = tso.multi_visit_objective(g, paths, table.d, table.M)
    assert doc["variant_objective"] == pytest.approx(want, abs=1e-12)


def test_exact_subcommand(tmp_path, capsys):
    inst = _gen(tmp_path, nodes=5, p_s=0.6)
    out = tmp_path / "exact.json"
    assert main(["exact", str(inst), "--team", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("J=")
    doc = json.loads(out.read_text())
    assert doc["exact"] is True
    g = tso.load_instance(inst)
    want = tso.solve_exact_tso(g, team_size=2)
    assert doc["objective"] == pytest.approx(want.objective, abs=1e-12)


@pytest.mark.parametrize("command", ["solve", "exact"])
def test_team_zero_is_refused_and_no_team_means_the_instance_size(tmp_path, capsys, command):
    # --team 0 is a team size like any other, so it is refused as gen refuses
    # it; only a missing --team falls back to the instance's team size.
    inst = tmp_path / "inst.json"
    assert main(["gen", "--complete", "--nodes", "5", "--p-s", "0.6", "--team", "2", "--out", str(inst)]) == 0
    out = tmp_path / "plan.json"
    assert main([command, str(inst), "--team", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: team size must be >= 1\n"
    assert not out.exists()
    assert main([command, str(inst), "--out", str(out)]) == 0
    capsys.readouterr()
    default = out.read_bytes()
    assert len(tso.paths_from_plan_dict(json.loads(default))) == 2
    assert main([command, str(inst), "--team", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == default


def test_simulate_subcommand(tmp_path, capsys):
    inst = _gen(tmp_path, p_s=0.6)
    plan_path = tmp_path / "plan.json"
    main(["solve", str(inst), "--team", "2", "--out", str(plan_path)])
    capsys.readouterr()
    sim_out = tmp_path / "sim.json"
    rc = main([
        "simulate", str(inst), "--plan", str(plan_path),
        "--trials", "20000", "--seed", "1", "--out", str(sim_out),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("estimate ")
    assert lines[1].startswith("std_error ")
    assert lines[2].startswith("survival robot_0 ")
    assert lines[3].startswith("survival robot_1 ")
    doc = json.loads(sim_out.read_text())
    assert doc["trials"] == 20000
    plan_doc = json.loads(plan_path.read_text())
    assert abs(doc["estimate"] - plan_doc["objective"]) <= 5.0 * doc["std_error"]


def test_feasible_subcommand(tmp_path, capsys):
    g = tso.SurvivalGraph(
        node_ids=[1, 2, 3, 4],
        priorities={v: 1.0 for v in [1, 2, 3, 4]},
        edges=[(1, 2, 0.9), (2, 4, 0.9), (1, 3, 0.8), (3, 4, 0.8), (1, 4, 1.0)],
        start=1,
        terminal=4,
        p_s=0.8,
    )
    inst = tmp_path / "diamond.json"
    tso.save_instance(g, inst)
    assert main(["feasible", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "X nonempty: true" in out
    assert "3 false" in out
    assert main(["feasible", str(inst), "--brute-force"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.strip().splitlines()[2:]]
    assert all(ln.endswith(" yes") for ln in rows)


def test_exit_code_infeasible(tmp_path, capsys):
    g = tso.SurvivalGraph(
        node_ids=[1, 2],
        priorities={1: 1.0, 2: 1.0},
        edges=[(1, 2, 0.5)],
        start=1,
        terminal=2,
        p_s=0.9,
    )
    inst = tmp_path / "bad.json"
    tso.save_instance(g, inst)
    assert main(["solve", str(inst)]) == 2
    assert "infeasible:" in capsys.readouterr().err


def test_exit_code_guard(tmp_path, capsys):
    inst = _gen(tmp_path, nodes=13, p_s=0.5)
    assert main(["exact", str(inst)]) == 3
    assert "guard violation:" in capsys.readouterr().err
    assert main(["feasible", str(inst), "--brute-force"]) == 3
    assert "guard violation: brute-force feasibility limited to 12 nodes, instance has 13" in capsys.readouterr().err
    # n ** 2000 teams overflow a float, which counts as over the limit.
    six = _gen(tmp_path, name="six.json", nodes=6, p_s=0.6)
    assert main(["exact", str(six), "--team", "2000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard violation: ") and err.endswith(
        "^2000 candidate teams times 2000 robots exceed the enumeration limit 10000000\n"), err


def test_huge_team_sizes_exit_three(tmp_path, capsys):
    # A file's team_size and --oversize can be any integer; at 2**70 either
    # one ran without end. The refusal comes before any planning.
    doc = tso.instance_to_dict(tso.hex_instance())
    hexi, huge = tmp_path / "hex.json", tmp_path / "huge.json"
    hexi.write_text(json.dumps(doc), encoding="utf-8")
    huge.write_text(json.dumps(dict(doc, team_size=2**70)), encoding="utf-8")
    for argv in (["solve", str(huge)], ["solve", str(hexi), "--oversize", str(2**70)]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"guard violation: greedy planning limited to {tso.greedy.MAX_PATHS} paths, asked for {2**70}\n")


def test_exit_code_errors(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["solve", str(broken)]) == 1
    invalid = tmp_path / "invalid.json"
    doc = tso.instance_to_dict(tso.random_complete_instance(4, 0.5, 1.0, 0.7))
    doc["nodes"][1]["priority"] = -3.0
    invalid.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", str(invalid)]) == 1
    assert "invalid instance" in capsys.readouterr().err


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_json_nested_too_deeply_exits_one(tmp_path, capsys):
    # json.load raises RecursionError on it.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    inst = _gen(tmp_path)
    for argv in (["solve", str(deep)], ["feasible", str(deep)], ["simulate", str(inst), "--plan", str(deep)]):
        assert main(argv) == 1, argv
        _one_line_error(capsys)


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"),
     "error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_one(monkeypatch, capsys, exc, message):
    # A complete graph's arrays grow with V^2: at V=100,000 numpy cannot
    # allocate them. The generator is swapped for one that raises, so the
    # test allocates nothing.
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(tso.cli, "random_complete_instance", fail)
    assert main(["gen", "--complete", "--nodes", "100000"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_exact_team_deeper_than_the_recursion_limit(tmp_path, capsys):
    one = tmp_path / "one.json"
    tso.save_instance(tso.SurvivalGraph(
        node_ids=[1, 2], priorities={1: 1.0, 2: 1.0}, edges=[(1, 2, 0.9)], start=1, terminal=2, p_s=0.5,
    ), one)
    out = tmp_path / "one.plan.json"
    assert main(["exact", str(one), "--team", "3000", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "J=1\n"
    assert json.loads(out.read_text())["paths"] == [[1, 2]] * 3000
    # One team, but 20,000,000 robots' work: the guard refuses it.
    assert main(["exact", str(one), "--team", "20000000"]) == 3
    err = capsys.readouterr().err
    assert err == ("guard violation: 1^20000000 candidate teams times 20000000 robots exceed the enumeration limit"
                   " 10000000\n"), err


@pytest.mark.parametrize("p_s", ["1e-17", "5e-324"])
def test_solve_on_a_p_s_too_small_for_the_bounds_exits_one(tmp_path, capsys, p_s):
    inst = _gen(tmp_path, nodes=5, p_s=p_s)
    capsys.readouterr()
    assert main(["solve", str(inst), "--team", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: p_s {float(p_s)!r} is too small for the bounds: 1 - exp(-p_s) rounds to 0.0\n", err


def test_malformed_instance_shapes_exit_one(tmp_path, capsys):
    good = tso.instance_to_dict(tso.hex_instance())
    three_rows = dict(good, multi_visit={"M": 2, "d": [[1.0, 0.5]] * 3})
    # Integer fields take JSON integers only: int() would read the last five
    # as node 18, start 0, edge (0, 1), team size 1 and M = 2 and solve them.
    mv = dict(good, multi_visit={"M": 2, "d": [[1.0, 0.5]] * len(good["nodes"])})
    float_from = [dict(good["edges"][0], **{"from": 0.0})] + good["edges"][1:]
    bad_docs = [
        dict(good, nodes=5),
        dict(good, edges=[[0, 1, 0.9]]),
        dict(good, start=None),
        [good],
        three_rows,
        dict(mv, nodes=good["nodes"][:-1] + [dict(good["nodes"][-1], id=18.5)]),
        dict(mv, start="0"),
        dict(mv, edges=float_from),
        dict(mv, team_size=True),
        dict(mv, multi_visit=dict(mv["multi_visit"], M="2")),
    ]
    # Number fields take JSON numbers only: float() would read each of these
    # as 1.0, 0.7, 2.0, 1.0 or 1.0 and solve it.
    true_survival = [dict(good["edges"][0], survival=True)] + good["edges"][1:]
    rows = mv["multi_visit"]["d"]
    number_cases = [
        (dict(mv, edges=true_survival), "edge survival must be a number, got True"),
        (dict(mv, p_s="0.7"), "p_s must be a number, got '0.7'"),
        (dict(mv, nodes=[dict(good["nodes"][0], priority="2")] + good["nodes"][1:]),
         "priority must be a number, got '2'"),
        (dict(mv, edge_rewards=[{"from": 0, "to": 1, "d": "1"}]), "edge reward must be a number, got '1'"),
        (dict(mv, multi_visit=dict(mv["multi_visit"], d=[[True, 0.5]] + rows[1:])),
         "multi-visit entry must be a number, got True"),
        (dict(mv, nodes=[dict(good["nodes"][0], priority=10**400)] + good["nodes"][1:]),
         f"priority {10**400} is too large for a float"),
    ]
    # Lists and objects are named as the integer and number fields are, not
    # by the TypeError of the first subscript that fails on them.
    number_cases += [
        (dict(mv, nodes=3.5), "nodes must be a list, got 3.5"),
        (dict(mv, nodes=["x"] + good["nodes"][1:]), "nodes entry must be an object, got 'x'"),
        (dict(mv, edges=None), "edges must be a list, got None"),
        (dict(mv, edges=good["edges"][:-1] + [[0, 1, 0.9]]), "edges entry must be an object, got [0, 1, 0.9]"),
        (dict(mv, edge_rewards="x"), "edge_rewards must be a list, got 'x'"),
        (dict(mv, edge_rewards=[1.5]), "edge_rewards entry must be an object, got 1.5"),
        (dict(mv, multi_visit=[2]), "multi_visit must be an object, got [2]"),
        (dict(mv, multi_visit=dict(mv["multi_visit"], d=3)), "multi-visit d must be a list, got 3"),
        (dict(mv, multi_visit=dict(mv["multi_visit"], d=rows[:-1] + [0.5])), "multi-visit d entry must be a list, got 0.5"),
    ]
    for k, doc in enumerate(bad_docs):
        inst = tmp_path / f"bad{k}.json"
        inst.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", str(inst), "--variant", "multi_visit"]) == 1, k
        _one_line_error(capsys)
    for k, (doc, message) in enumerate(number_cases):
        inst = tmp_path / f"number{k}.json"
        inst.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", str(inst), "--variant", "multi_visit"]) == 1, message
        assert capsys.readouterr().err == f"error: {message}\n"
    inst = tmp_path / "mv.json"
    inst.write_text(json.dumps(mv), encoding="utf-8")
    assert main(["solve", str(inst), "--variant", "multi_visit"]) == 0
    # "directed" takes a JSON bool only: bool() would read "false" as true
    # and load hex with 84 arcs. A second reward on one edge would replace
    # the first: the pair below solved with a gain of 4.9.
    a, b = good["edges"][0]["from"], good["edges"][0]["to"]
    once = dict(good, edge_rewards=[{"from": a, "to": b, "d": 1.0}])
    twice = dict(good, edge_rewards=once["edge_rewards"] + [{"from": a, "to": b, "d": 5.0}])
    shape_cases = [
        (dict(once, directed="false"), "directed must be true or false, got 'false'"),
        (dict(once, directed=0), "directed must be true or false, got 0"),
        (dict(once, directed=None), "directed must be true or false, got None"),
        (twice, f"duplicate edge reward on ({a},{b})"),
    ]
    for k, (doc, message) in enumerate(shape_cases):
        inst = tmp_path / f"shape{k}.json"
        inst.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", str(inst), "--team", "1", "--variant", "edge"]) == 1, message
        assert capsys.readouterr().err == f"error: {message}\n"
    inst = tmp_path / "once.json"
    inst.write_text(json.dumps(once), encoding="utf-8")
    assert main(["solve", str(inst), "--team", "1", "--variant", "edge"]) == 0


def _hex_doc_with(field, value):
    """Hex p_s=0.7 document with unit edge rewards, an M=2 table, and one entry set to value."""
    doc = tso.instance_to_dict(tso.hex_instance(p_s=0.7))
    doc["edge_rewards"] = [{"from": e["from"], "to": e["to"], "d": 1.0} for e in doc["edges"]]
    doc["multi_visit"] = {"M": 2, "d": [[1.0, 0.5] for _ in doc["nodes"]]}
    if field == "edge":
        doc["edge_rewards"][3]["d"] = value
    elif field == "multi_visit":
        doc["multi_visit"]["d"][4][0] = value
    else:
        doc["nodes"][3]["priority"] = value
    return doc


@pytest.mark.parametrize("field, value, variant, message", [
    ("edge", math.nan, "edge", "edge reward on (0,4) is nan, not finite"),
    ("edge", math.inf, "edge", "edge reward on (0,4) is inf, not finite"),
    ("multi_visit", math.nan, "multi_visit", "multi-visit row for node 4 has a non-finite entry"),
    ("priority", math.inf, "node", "node 3 priority inf not positive and finite"),
], ids=["edge-nan", "edge-inf", "multi-visit-nan", "priority-inf"])
def test_non_finite_rewards_exit_one(tmp_path, capsys, field, value, variant, message):
    # Unchecked, these plan to a NaN or infinite value and write it as JSON
    # that no strict parser reads, or blame the wrong input.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_hex_doc_with(field, value)), encoding="utf-8")
    assert main(["solve", str(inst), "--variant", variant, "--team", "2"]) == 1
    assert capsys.readouterr().err == f"error: invalid instance: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(nodes=[], edges=[]),
     "invalid instance: instance has no nodes; start node 0 not in instance; terminal node 0 not in instance"),
    (lambda d: d["nodes"].append(d["nodes"][3]), "invalid instance: duplicate node id 3"),
    (lambda d: d["edges"].append({"from": 0, "to": 99, "survival": 0.9}),
     "invalid instance: edge (0,99) references unknown node"),
    (lambda d: d.update(terminal=99), "invalid instance: terminal node 99 not in instance"),
    (lambda d: d.update(multi_visit={"M": 0, "d": [[]] * 19}), "invalid instance: multi-visit M 0 < 1"),
    (lambda d: d.update(multi_visit={"M": 2, "d": [[1.0, 0.5, 0.25]] + [[1.0, 0.5]] * 18}),
     "invalid instance: multi-visit row for node 0 has 3 entries, expected 2"),
    # A table-wide M mismatch gives one clause, not one per row.
    (lambda d: d.update(multi_visit={"M": 3, "d": [[1.0, 0.5]] * 19}),
     "invalid instance: 19 multi-visit rows have the wrong length, the first: "
     "multi-visit row for node 0 has 2 entries, expected 3"),
    (lambda d: d.update(edge_rewards=[{"from": 0, "to": 0, "d": 1.0}]), "invalid instance: edge reward on missing edge (0,0)"),
    (lambda d: d.update(edge_rewards=[{"from": 0, "to": 1, "d": -1.0}]), "invalid instance: edge reward on (0,1) negative"),
    # Unchecked, `solve --variant multi_visit` on the first fails in the
    # oracle on a reward the user never wrote, and on the second a lone
    # robot solves as if the row were valid.
    (lambda d: d.update(multi_visit={"M": 2, "d": [[1.0, 0.5]] * 4 + [[-1.0, -2.0]] + [[1.0, 0.5]] * 14}),
     "invalid instance: multi-visit row for node 4 has a negative entry"),
    (lambda d: d.update(multi_visit={"M": 2, "d": [[1.0, 0.5]] * 4 + [[1.0, -2.0]] + [[1.0, 0.5]] * 14}),
     "invalid instance: multi-visit row for node 4 has a negative entry"),
    (lambda d: d.update(version=2), "unsupported instance version 2"),
    # True == 1 in Python, but JSON true is no version number.
    (lambda d: d.update(version=True), "unsupported instance version True"),
], ids=["no-nodes", "duplicate-node", "unknown-edge-end", "unknown-terminal", "multi-visit-M",
        "multi-visit-row-length", "multi-visit-all-rows", "reward-off-edge", "negative-reward",
        "multi-visit-negative-row", "multi-visit-negative-entry", "version", "version-true"])
def test_invalid_instance_file_exits_one(tmp_path, capsys, edit, message):
    doc = tso.instance_to_dict(tso.hex_instance())  # 19 nodes, depot 0
    edit(doc)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", str(inst)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_plan_shapes_exit_one(tmp_path, capsys):
    inst = _gen(tmp_path)
    hexi = tmp_path / "hex.json"
    tso.save_instance(tso.hex_instance(), hexi)
    # Each error names the field, as the instance errors do.
    cases = [(inst, doc, message) for doc, message in [
        ([[0, 5]], "plan must be a JSON object"),
        ({"paths": 3}, "paths must be a list, got 3"),
        ({"paths": [[0, None]]}, "plan entry must be an integer, got None"),
        ({"plan": []}, "plan lacks field 'paths'"),
        ({}, "plan lacks field 'paths'"),
    ]]
    # int() would read each of these as the hex tour (0, 1, 2, 0).
    cases += [(hexi, {"paths": p}, message) for p, message in [
        (["0120"], "paths entry must be a list, got '0120'"),
        ([[0, 1.9, 2, 0]], "plan entry must be an integer, got 1.9"),
        ([[0, True, 2, 0]], "plan entry must be an integer, got True"),
    ]]
    for k, (instance, doc, message) in enumerate(cases):
        plan = tmp_path / f"plan{k}.json"
        plan.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", str(instance), "--plan", str(plan), "--trials", "10"]) == 1, k
        assert capsys.readouterr().err == f"error: {message}\n", k
    # Every path runs from the start to the terminal: on hex both are node 0,
    # on the open instance they are 0 and 5.
    for instance, path, ends in [
        (hexi, [1, 2, 3], "start 0 to terminal 0"),
        (hexi, [0, 1, 2], "start 0 to terminal 0"),
        (inst, [0, 1, 2], "start 0 to terminal 5"),
        (inst, [0], "start 0 to terminal 5"),
    ]:
        plan.write_text(json.dumps({"paths": [path]}), encoding="utf-8")
        assert main(["simulate", str(instance), "--plan", str(plan), "--trials", "10"]) == 1, path
        assert capsys.readouterr().err == f"error: plan path {path} does not run from {ends}\n"
    for paths in ([[0, 1, 2, 0]], [[0]]):  # a tour, and a depot's stay-home path
        plan.write_text(json.dumps({"paths": paths}), encoding="utf-8")
        assert main(["simulate", str(hexi), "--plan", str(plan), "--trials", "10"]) == 0


def test_module_entry_point(tmp_path):
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tso", "gen", "--complete", "--nodes", "5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_is_reentrant(tmp_path, monkeypatch, capsys):
    # One process reuses one parser across calls, an argparse error among
    # them; each call must give what a fresh `python -m tso` gives, so no
    # flag or default leaks from one call into the next.
    calls = [
        (["solve", "inst.json", "--team", "3", "--out", "plan3.json"], "plan3.json"),
        (["solve", "inst.json", "--oracle", "nope"], None),
        (["simulate", "inst.json", "--plan", "plan3.json", "--trials", "500", "--out", "sim.json"], "sim.json"),
        (["solve", "inst.json", "--variant", "edge", "--out", "edge.json"], "edge.json"),
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for d in (here, fresh):
        d.mkdir()
        inst = str(d / "inst.json")
        assert main(["gen", "--complete", "--nodes", "6", "--p-s", "0.6", "--team", "2", "--out", inst]) == 0
    capsys.readouterr()
    monkeypatch.chdir(here)
    src = str(Path(tso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, out in calls:
        rc = main(argv)
        got = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "tso", *argv], cwd=fresh, env=env, capture_output=True, text=True)
        assert (rc, got.out) == (proc.returncode, proc.stdout), argv
        assert got.err.splitlines()[-1:] == proc.stderr.splitlines()[-1:], argv
        if out:
            assert (here / out).read_bytes() == (fresh / out).read_bytes(), argv
    assert rc == 0
    assert len(json.loads((here / "edge.json").read_text())["paths"]) == 2


def test_one_log_graph_per_run(tmp_path, monkeypatch, capsys):
    # The bounds read the greedy run's LogGraph: solve builds one, and so
    # does a bench cell for all of its team prefixes.
    calls = []
    real = tso.greedy.log_transform

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(tso.greedy, "log_transform", counted)
    assert main(["solve", str(_gen(tmp_path)), "--team", "2", "--oversize", "4"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert len(_bench_cell("hex", 0, 0, 0.70, False)) == 6
    assert len(calls) == 1


def test_bench_hex_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["bench", "--suite", "hex", "--out", str(a)]) == 0
    assert main(["bench", "--suite", "hex", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    lines = a.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    js = []
    for ln in lines[1:]:
        inst, v, team, p_s, oracle, j, u, ratio, ms = ln.split(",")
        assert inst == "hex" and v == "19" and oracle == "exact" and ms == "0"
        assert float(ratio) == pytest.approx(float(j) / float(u), rel=1e-6)
        assert float(ratio) >= 1.0 - math.exp(-float(p_s)) - 1e-9
        js.append(float(j))
    assert js == sorted(js)


def test_heuristic_solve_matches_golden(tmp_path, capsys):
    """A GRASP-oracle plan is pinned across commits, as the exact-oracle bench CSVs are."""
    inst = tmp_path / "inst.json"
    tso.save_instance(tso.feasible_random_instance(20, 0.3, 1.0, 0.6, seed=(0, 1)), inst)
    plan = tmp_path / "plan.json"
    argv = ["solve", str(inst), "--oracle", "heuristic", "--team", "5", "--seed", "1", "--out", str(plan)]
    assert main(argv) == 0
    assert plan.read_bytes() == (DATA / "solve-heuristic.plan.json").read_bytes()


def test_bench_rejects_unknown_suite(capsys):
    assert main(["bench", "--suite", "cube"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: tso bench")
    # Only the start: how argparse quotes the choices depends on the Python version.
    assert err[-1].startswith("tso bench: error: argument --suite: invalid choice: 'cube' (choose from ")


@pytest.mark.parametrize("argv, message", [
    (["solve", "inst.json", "--oracle", "nope"], "tso solve: error: argument --oracle: invalid choice: 'nope'"),
    (["simulate", "inst.json"], "tso simulate: error: the following arguments are required: --plan"),
    (["cube"], "tso: error: argument command: invalid choice: 'cube'"),
    (["solve", "inst.json", "--bogus"], "tso: error: unrecognized arguments: --bogus"),
    (["gen", "--complete", "--preset", "hex", "--nodes", "5", "--seed", "3"],
     "tso gen: error: argument --preset: not allowed with argument --complete"),
    (["gen", "--preset", "hex", "--nodes", "5"], "tso gen: error: argument --nodes: not allowed with argument --preset"),
    (["gen", "--preset", "hex", "--seed", "0"], "tso gen: error: argument --seed: not allowed with argument --preset"),
    (["gen", "--preset", "hex", "--weight-min", "0.9"],
     "tso gen: error: argument --weight-min: not allowed with argument --preset"),
    (["gen", "--preset", "hex", "--p-s", "0.6", "--weight-max", "0.9"],
     "tso gen: error: argument --weight-max: not allowed with argument --preset"),
    (["bench", "--suite", "hex", "--seed", "5"],
     "tso bench: error: argument --seed: the hex suite has one graph and takes no seed"),
], ids=["invalid-choice", "missing-required", "unknown-subcommand", "unknown-flag", "complete-and-preset",
        "preset-and-nodes", "preset-and-seed", "preset-and-weight-min", "preset-and-weight-max", "hex-bench-seed"])
def test_usage_errors_exit_one(capsys, argv, message):
    # Exit code 2 means an infeasible instance; a usage error is "any other
    # error" and returns 1 from main, with argparse's lines on stderr.
    assert main(argv) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith("usage: tso") and got.err.count("usage:") == 1
    assert got.err.splitlines()[-1].startswith(message)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tso solve")


@pytest.mark.parametrize("field, variant", [("priority", "node"), ("multi_visit", "multi_visit")])
def test_non_json_output_exits_one(tmp_path, capsys, field, variant):
    # A finite but huge entry passes validation and plans to an infinite
    # bound; strict JSON has no Infinity or NaN, so nothing is written.
    doc = _hex_doc_with(field, 1e308)
    if field == "multi_visit":
        doc["multi_visit"]["d"][4] = [1e308, 1e308]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    plan = tmp_path / "plan.json"
    kept = tmp_path / "kept.json"
    old = (DATA / "solve-heuristic.plan.json").read_bytes()
    kept.write_bytes(old)
    for out in (["--out", str(kept)], ["--out", str(plan)], []):
        assert main(["solve", str(inst), "--variant", variant, "--team", "2", *out]) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith("error: Out of range float values are not JSON compliant")
        assert len(got.err.splitlines()) == 1
    assert not plan.exists()
    assert kept.read_bytes() == old


def _writing_ops(tmp_path):
    """argv without --out of every subcommand that writes an --out file, keyed by subcommand."""
    inst = _gen(tmp_path, p_s=0.6)
    plan = tmp_path / "plan.json"
    assert main(["solve", str(inst), "--team", "2", "--out", str(plan)]) == 0
    return {
        "gen": ["gen", "--complete", "--nodes", "6", "--p-s", "0.6"],
        "solve": ["solve", str(inst), "--team", "2"],
        "exact": ["exact", str(inst), "--team", "2"],
        "simulate": ["simulate", str(inst), "--plan", str(plan), "--trials", "500"],
        "bench": ["bench", "--suite", "hex"],
    }


WRITERS = ["gen", "solve", "exact", "simulate", "bench"]


@pytest.mark.parametrize("command", WRITERS)
def test_out_in_place_over_a_longer_file_devnull_and_a_fifo(tmp_path, capsys, command):
    # A regular file is written over and cut to length, so it ends with the
    # bytes a fresh file gets; /dev/null and a FIFO cannot be cut and are
    # written without the cut.
    argv = _writing_ops(tmp_path)[command]
    fresh, longer, fifo = tmp_path / "fresh.out", tmp_path / "longer.out", tmp_path / "fifo"
    capsys.readouterr()
    assert main(argv + ["--out", str(fresh)]) == 0
    want = capsys.readouterr()
    longer.write_bytes(b"x" * (len(fresh.read_bytes()) + 9000))
    assert main(argv + ["--out", str(longer)]) == 0
    assert capsys.readouterr() == want
    assert longer.read_bytes() == fresh.read_bytes()
    assert main(argv + ["--out", os.devnull]) == 0
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(argv + ["--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [fresh.read_bytes()]


@pytest.mark.parametrize("command", WRITERS)
def test_out_to_a_directory_or_a_missing_directory_exits_one(tmp_path, capsys, command):
    argv = _writing_ops(tmp_path)[command]
    missing = tmp_path / "missing" / "out.json"
    for out, message in ((tmp_path, "[Errno 21] Is a directory"), (missing, "[Errno 2] No such file or directory")):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}: {str(out)!r}\n"
    assert not missing.parent.exists()


def test_a_new_out_file_gets_the_mode_open_gives(tmp_path, capsys):
    inst = _gen(tmp_path)
    old = os.umask(0o027)
    try:
        assert main(["solve", str(inst), "--out", str(tmp_path / "plan.json")]) == 0
        with open(tmp_path / "by-open.json", "w"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "plan.json").stat().st_mode)
    assert mode == 0o640 == stat.S_IMODE((tmp_path / "by-open.json").stat().st_mode)


def test_bench_timing_fills_only_the_ms_column(tmp_path):
    # --timing is the one documented exception to byte-identical output.
    out = tmp_path / "hex.csv"
    assert main(["bench", "--suite", "hex", "--timing", "--out", str(out)]) == 0
    got = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()]
    want = [ln.split(",") for ln in (DATA / "bench-hex.csv").read_text(encoding="utf-8").splitlines()]
    assert got[0] == want[0] and [r[:-1] for r in got] == [r[:-1] for r in want]
    assert all(float(r[-1]) > 0 for r in got[1:])


def test_bench_rows_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'cube'"):
        bench_rows("cube")


def test_bench_csvs_match_golden(ratio_bench, tmp_path):
    """Bench bytes are pinned across commits, not only across repeat runs."""
    text, _elapsed = ratio_bench
    assert text == (DATA / "bench-ratio.csv").read_text(encoding="utf-8")
    out = tmp_path / "hex.csv"
    assert main(["bench", "--suite", "hex", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "bench-hex.csv").read_bytes()


def test_bench_runs_in_this_process_whatever_tso_threads_says(tmp_path, monkeypatch):
    # bench runs its cells in this process and reads no TSO_THREADS: neither
    # a pool size nor a value that is not an integer changes a byte, and
    # nothing forks.
    def no_fork():
        raise OSError("tso bench must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "ratio.csv"
    for threads in ("4", "abc"):
        monkeypatch.setenv("TSO_THREADS", threads)
        assert main(["bench", "--suite", "ratio", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "bench-ratio.csv").read_bytes()


# Values a mutation swaps in: wrong types, non-finite floats, out-of-range
# numbers, an integer no float holds, and empty containers.
HOSTILE = ["x", None, True, math.nan, math.inf, -math.inf, -1, 0, 1.5, 2**70, [], {}]


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    """Valid (instance, plan) documents the fuzzer mutates, with what it mutates: the instance or the plan."""
    hexd = tso.instance_to_dict(tso.hex_instance())
    multi = dict(hexd, multi_visit={"M": 2, "d": [[1.0, 0.5] for _ in hexd["nodes"]]})
    six = tso.instance_to_dict(tso.random_complete_instance(6, 0.5, 1.0, 0.6, seed=(500, 0)))
    six["edge_rewards"] = [{"from": e["from"], "to": e["to"], "d": 0.5} for e in six["edges"][::3]]
    plans = []
    for doc in (hexd, multi, six):
        g = tso.instance_from_dict(doc)
        plan = tso.greedy_survivors(g, tso.GreedyConfig(2)).plan
        plans.append(tso.plan_to_dict(g, plan))
    seeds = [(doc, plan, "instance") for doc, plan in zip((hexd, multi, six), plans)]
    return seeds + [(hexd, plans[0], "plan")], tmp_path_factory.mktemp("fuzz")


def _mutate(rnd, doc):
    """doc with 1-3 entries, drawn by rnd, swapped for a hostile value, deleted, or duplicated in their list."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rnd.randint(1, 3)):
        # Every (container, key) in doc, the root's own entries included.
        sites, stack = [], [doc]
        while stack:
            box = stack.pop()
            for k in list(box) if isinstance(box, dict) else range(len(box)):
                sites.append((box, k))
                if isinstance(box[k], (dict, list)):
                    stack.append(box[k])
        box, k = rnd.choice(sites)
        action = rnd.choice(["swap", "drop", "copy"] if isinstance(box, list) else ["swap", "drop"])
        if action == "swap":
            box[k] = rnd.choice(HOSTILE)
        elif action == "drop":
            del box[k]
        else:
            box.insert(k, box[k])
    return doc


FUZZ_COMMANDS = (
    [["solve", "--team", "2", "--oracle", o, "--variant", v] for o in ("exact", "heuristic") for v in VARIANTS]
    + [["feasible"], ["feasible", "--brute-force"], ["exact", "--team", "2"], ["simulate", "--trials", "50"]]
)


# Capped at 150 derandomized examples, about two seconds. The examples seed
# a Random that makes every choice, since Hypothesis's own draws lean to the
# first entry of each list. Every command fixes --team, so each solve plans
# two robots whatever team_size a mutation leaves; a file's team_size above
# greedy.MAX_PATHS is refused with exit 3 (test_huge_team_sizes_exit_three).
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rnd=st.randoms(use_true_random=True))
def test_mutated_files_exit_with_one_line(fuzz_seeds, rnd):
    seeds, folder = fuzz_seeds
    doc, plan, target = rnd.choice(seeds)
    if target == "plan":
        plan, command = _mutate(rnd, plan), ["simulate", "--trials", "50"]
    else:
        doc, command = _mutate(rnd, doc), rnd.choice(FUZZ_COMMANDS)
    inst, plan_file = folder / "inst.json", folder / "plan.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    plan_file.write_text(json.dumps(plan), encoding="utf-8")
    argv = [command[0], str(inst)] + (["--plan", str(plan_file)] if command[0] == "simulate" else []) + command[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    if rc:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n") and lines[0].strip(), (argv, err.getvalue())
