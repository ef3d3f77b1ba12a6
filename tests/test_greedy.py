from __future__ import annotations

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import tso
from tso.cli import main

import oracles


def _linear_reward(g, path, rewards):
    return sum(rewards.get(v, 0.0) for v in set(path[1:]))


def test_readme_library_example_runs(capsys):
    # The first python block under README's "## Library" heading, as printed.
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    code = library[library.index("```python\n") + len("```python\n"):]
    code = code[:code.index("```")]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    run, cert, sim = scope["run"], scope["cert"], scope["sim"]
    first, second = capsys.readouterr().out.splitlines()
    assert first == f"{run.plan.objective} {cert.upper} {cert.certified}"
    assert cert.certified and run.plan.objective <= cert.upper
    estimate, freq = second.split(" ", 1)
    # Python floats print as plain numbers; numpy 2 scalars would not.
    assert float(estimate) == sim.estimate and ast.literal_eval(freq) == sim.survival_freq
    assert len(sim.survival_freq) == len(run.plan.paths) == 3


def test_config_validation():
    with pytest.raises(ValueError):
        tso.GreedyConfig(team_size=0)
    with pytest.raises(ValueError):
        tso.GreedyConfig(team_size=2, oversize=1)
    with pytest.raises(ValueError):
        tso.GreedyConfig(team_size=1, oracle="annealing")
    with pytest.raises(ValueError):
        tso.GreedyConfig(team_size=1, variant="tour")
    # Up to MAX_PATHS paths are planned; one more is a size-guard refusal.
    cap = tso.greedy.MAX_PATHS
    assert tso.GreedyConfig(team_size=cap).total_paths == tso.GreedyConfig(1, oversize=cap).total_paths == cap
    for cfg in (dict(team_size=cap + 1), dict(team_size=1, oversize=cap + 1)):
        with pytest.raises(tso.SizeGuardError, match=f"greedy planning limited to {cap} paths, asked for {cap + 1}"):
            tso.GreedyConfig(**cfg)


def test_infeasible_instance_raises():
    g = tso.SurvivalGraph(
        node_ids=[1, 2],
        priorities={1: 1.0, 2: 1.0},
        edges=[(1, 2, 0.5)],
        start=1,
        terminal=2,
        p_s=0.9,
    )
    with pytest.raises(tso.InfeasibleInstanceError):
        tso.greedy_survivors(g, tso.GreedyConfig(team_size=1))


def test_diamond_team_of_two(diamond):
    res = tso.greedy_survivors(diamond, tso.GreedyConfig(team_size=2))
    assert res.paths == [(1, 2, 4), (1, 2, 4)]
    assert res.plan.objective == pytest.approx(1.9539, abs=1e-12)
    assert res.gains[0] == pytest.approx(1.71, abs=1e-12)
    assert res.gains[1] == pytest.approx(0.2439, abs=1e-12)
    assert res.variant_value is None


def test_gains_are_objective_increments(hexg):
    instances = [tso.hex_instance()] + [
        tso.feasible_random_instance(8, 0.3, 1.0, 0.7, seed=(80, s)) for s in range(4)
    ]
    for g in instances:
        res = tso.greedy_survivors(g, tso.GreedyConfig(team_size=4))
        for k in range(4):
            before = tso.team_plan(g, res.paths[:k]).objective
            after = tso.team_plan(g, res.paths[: k + 1]).objective
            assert res.gains[k] == pytest.approx(after - before, abs=1e-12)


def test_gains_non_increasing(diamond, loop5, hexg):
    cases = [diamond, loop5, hexg] + [
        tso.feasible_random_instance(8, 0.3, 1.0, 0.7, seed=(81, s)) for s in range(6)
    ]
    for g in cases:
        res = tso.greedy_survivors(g, tso.GreedyConfig(team_size=4))
        for a, b in zip(res.gains, res.gains[1:]):
            assert b <= a + 1e-9


def test_prefix_consistency(loop5, tmp_path):
    full = tso.greedy_survivors(loop5, tso.GreedyConfig(team_size=1, oversize=4))
    assert len(full.paths) == 4
    for k in (1, 2, 3):
        short = tso.greedy_survivors(loop5, tso.GreedyConfig(team_size=k))
        assert short.paths == full.paths[:k]
        assert short.gains == pytest.approx(full.gains[:k], abs=0.0)
    # tso solve reports the gains of the team's K paths, not the oversized run's.
    inst, plan = tmp_path / "loop5.json", tmp_path / "plan.json"
    tso.save_instance(loop5, inst)
    assert main(["solve", str(inst), "--team", "1", "--oversize", "4", "--out", str(plan)]) == 0
    assert json.loads(plan.read_text(encoding="utf-8"))["marginal_gains"] == full.gains[:1]


def test_first_path_maximizes_linearized_reward(loop5, diamond):
    for g in (loop5, diamond):
        lg = tso.log_transform(g)
        zeta = tso.max_visit_probabilities(lg)
        rewards = {j: zeta[j] * g.priority(j) for j in g.node_ids}
        res = tso.greedy_survivors(g, tso.GreedyConfig(team_size=1))
        best = max(_linear_reward(g, p, rewards) for p in oracles.feasible_paths(g))
        assert _linear_reward(g, res.paths[0], rewards) == pytest.approx(best, abs=1e-12)


def test_second_path_maximizes_discounted_reward(loop5):
    # The reward table for robot 2 discounts node j by its chance of being
    # missed by robot 1, evaluated at the step where robot 1 arrives.
    res = tso.greedy_survivors(loop5, tso.GreedyConfig(team_size=2))
    lg = tso.log_transform(loop5)
    zeta = tso.max_visit_probabilities(lg)
    first = tso.visit_profile(loop5, res.paths[0])
    rewards = {}
    for j in loop5.node_ids:
        rewards[j] = zeta[j] * loop5.priority(j) * (1.0 - first.visit_prob.get(j, 0.0))
    best = max(_linear_reward(loop5, p, rewards) for p in oracles.feasible_paths(loop5))
    assert _linear_reward(loop5, res.paths[1], rewards) == pytest.approx(best, abs=1e-12)


def test_proxy_can_undershoot_best_true_gain(loop5):
    # On this instance the linearized reward prefers a first tour whose true
    # objective is not the single-tour optimum; the guarantee still holds.
    res = tso.greedy_survivors(loop5, tso.GreedyConfig(team_size=1))
    assert res.paths == [(1, 3, 5, 4, 1)]
    best_single = max(oracles.team_objective_brute(loop5, [p]) for p in oracles.feasible_paths(loop5))
    assert res.plan.objective < best_single
    factor = 1.0 - math.exp(-loop5.p_s)
    assert res.plan.objective >= factor * best_single - 1e-9


def test_gain_hits_zero_once_everything_is_covered():
    g = tso.SurvivalGraph(
        node_ids=[1, 2, 3],
        priorities={1: 1.0, 2: 1.0, 3: 1.0},
        edges=[(1, 2, 1.0), (2, 3, 1.0)],
        start=1,
        terminal=3,
        p_s=0.9,
    )
    res = tso.greedy_survivors(g, tso.GreedyConfig(team_size=2))
    assert res.paths[0] == (1, 2, 3)
    assert res.gains[0] == pytest.approx(2.0, abs=0.0)
    assert res.gains[1] == pytest.approx(0.0, abs=0.0)


def test_multi_visit_single_level_matches_node_variant():
    g = tso.feasible_random_instance(7, 0.4, 1.0, 0.7, seed=82)
    table = tso.MultiVisitTable(M=1, d={v: [g.priority(v)] for v in g.node_ids})
    g_mv = tso.SurvivalGraph(
        node_ids=g.node_ids,
        priorities=g.priorities,
        edges=g.edges,
        start=g.start,
        terminal=g.terminal,
        p_s=g.p_s,
        multi_visit=table,
    )
    node = tso.greedy_survivors(g, tso.GreedyConfig(team_size=3))
    mv = tso.greedy_survivors(g_mv, tso.GreedyConfig(team_size=3, variant="multi_visit"))
    assert mv.paths == node.paths
    assert mv.variant_value == pytest.approx(node.plan.objective, abs=1e-12)


def test_multi_visit_worthless_second_visit_matches_node_variant():
    g = tso.feasible_random_instance(7, 0.4, 1.0, 0.7, seed=83)
    table = tso.MultiVisitTable(M=2, d={v: [g.priority(v), 0.0] for v in g.node_ids})
    g_mv = tso.SurvivalGraph(
        node_ids=g.node_ids,
        priorities=g.priorities,
        edges=g.edges,
        start=g.start,
        terminal=g.terminal,
        p_s=g.p_s,
        multi_visit=table,
    )
    node = tso.greedy_survivors(g, tso.GreedyConfig(team_size=3))
    mv = tso.greedy_survivors(g_mv, tso.GreedyConfig(team_size=3, variant="multi_visit"))
    assert mv.paths == node.paths
    assert mv.variant_value == pytest.approx(node.plan.objective, abs=1e-12)


def test_multi_visit_requires_table(diamond):
    with pytest.raises(ValueError):
        tso.greedy_survivors(diamond, tso.GreedyConfig(team_size=1, variant="multi_visit"))


def test_multi_visit_gains_match_objective_increments():
    g0 = tso.feasible_random_instance(6, 0.4, 1.0, 0.7, seed=84)
    table = tso.MultiVisitTable(M=3, d={v: [1.0, 0.6, 0.2] for v in g0.node_ids})
    g = tso.SurvivalGraph(
        node_ids=g0.node_ids,
        priorities=g0.priorities,
        edges=g0.edges,
        start=g0.start,
        terminal=g0.terminal,
        p_s=g0.p_s,
        multi_visit=table,
    )
    res = tso.greedy_survivors(g, tso.GreedyConfig(team_size=3, variant="multi_visit"))
    for k in range(3):
        before = tso.multi_visit_objective(g, res.paths[:k], table.d, table.M)
        after = tso.multi_visit_objective(g, res.paths[: k + 1], table.d, table.M)
        assert res.gains[k] == pytest.approx(after - before, abs=1e-12)
    assert res.variant_value == pytest.approx(
        tso.multi_visit_objective(g, res.paths, table.d, table.M), abs=1e-12
    )


def test_edge_variant_steers_toward_rewarded_edges(diamond):
    g = tso.SurvivalGraph(
        node_ids=diamond.node_ids,
        priorities=diamond.priorities,
        edges=diamond.edges,
        start=diamond.start,
        terminal=diamond.terminal,
        p_s=diamond.p_s,
        edge_rewards={(1, 2): 1.0},
    )
    res = tso.greedy_survivors(g, tso.GreedyConfig(team_size=1, variant="edge"))
    assert res.paths == [(1, 2, 4)]
    assert res.variant_value == pytest.approx(0.9, abs=1e-12)
    g2 = tso.SurvivalGraph(
        node_ids=diamond.node_ids,
        priorities=diamond.priorities,
        edges=diamond.edges,
        start=diamond.start,
        terminal=diamond.terminal,
        p_s=diamond.p_s,
        edge_rewards={(1, 4): 1.0},
    )
    res2 = tso.greedy_survivors(g2, tso.GreedyConfig(team_size=1, variant="edge"))
    assert res2.paths == [(1, 4)]
    assert res2.variant_value == pytest.approx(1.0, abs=0.0)


def _hex_with_some_edge_rewards():
    """The hex depot with rewards on every third edge only."""
    g = tso.hex_instance(p_s=0.6)
    rewards = {(u, v): 0.5 + 0.1 * (k % 7) for k, (u, v, _w) in enumerate(g.edges) if k % 3 == 0}
    return tso.SurvivalGraph(
        node_ids=g.node_ids, priorities=g.priorities, edges=g.edges,
        start=g.start, terminal=g.terminal, p_s=g.p_s, edge_rewards=rewards,
    )


def test_edge_variant_gains_match_objective_increments():
    # Gains are differences of edge_team_objective values, float for float.
    for g, team in ((tso.feasible_random_instance(6, 0.4, 1.0, 0.7, seed=85), 3), (_hex_with_some_edge_rewards(), 6)):
        res = tso.greedy_survivors(g, tso.GreedyConfig(team_size=team, oversize=2 * team, variant="edge"))
        table = g.edge_rewards or {(u, v): 1.0 for u, v, _ in g.edges}
        for k in range(2 * team):
            before = tso.edge_team_objective(g, res.paths[:k], table)
            after = tso.edge_team_objective(g, res.paths[: k + 1], table)
            assert res.gains[k] == after - before, (g.num_nodes, k)


def test_edge_variant_refuses_a_reward_off_the_arcs():
    # The edge model places each reward at its arc's slot of the oracle's
    # array; a reward on no arc of the graph has no slot and must raise,
    # not be left out of the oracle's rewards while the value still counts it.
    g = tso.hex_instance(p_s=0.7)
    for off in ((0, 18), (0, 99)):
        h = tso.SurvivalGraph(node_ids=g.node_ids, priorities=g.priorities, edges=g.edges, start=g.start,
                              terminal=g.terminal, p_s=g.p_s, edge_rewards={(0, 1): 1.0, off: 2.0})
        with pytest.raises(KeyError, match=re.escape(repr(off))):
            tso.greedy_survivors(h, tso.GreedyConfig(team_size=2, variant="edge"))


def test_edge_variant_rejects_heuristic_oracle(diamond):
    with pytest.raises(ValueError, match="edge-reward planning requires the exact oracle"):
        tso.GreedyConfig(team_size=1, variant="edge", oracle="heuristic")


def test_heuristic_oracle_close_and_uncertified():
    for seed in range(4):
        g = tso.feasible_random_instance(8, 0.3, 1.0, 0.7, seed=(86, seed))
        exact = tso.greedy_survivors(g, tso.GreedyConfig(team_size=2))
        heur = tso.greedy_survivors(g, tso.GreedyConfig(team_size=2, oracle="heuristic", seed=1))
        again = tso.greedy_survivors(g, tso.GreedyConfig(team_size=2, oracle="heuristic", seed=1))
        assert heur.paths == again.paths
        cert = tso.compute_bounds(heur, heur.config.team_size, heur.config.total_paths)
        assert not cert.certified
        exact_cert = tso.compute_bounds(exact, exact.config.team_size, exact.config.total_paths)
        assert exact_cert.certified


@pytest.mark.parametrize("p_s", [0.5, 0.6, 0.7])
def test_renaming_the_nodes_changes_no_plan(p_s):
    # Every tie goes by position in node_ids, so renaming the nodes with
    # their order kept changes no greedy plan and no GRASP call, read
    # through the renaming. Hex's repeated survivals tie many paths, and
    # 1000 - 7v runs the ids against the index order.
    rng = np.random.default_rng((41, round(10 * p_s)))
    base = tso.hex_instance(p_s)
    g = dataclasses.replace(
        base, edge_rewards={(u, v): float(rng.uniform(0.5, 1.5)) for u, v, _ in base.edges},
        multi_visit=tso.MultiVisitTable(M=3, d={v: sorted(rng.uniform(0.2, 1.0, 3).tolist(), reverse=True) for v in base.node_ids}),
    )
    new = {v: 1000 - 7 * v for v in g.node_ids}
    h = oracles.renamed(g, new)
    for team in (2, 4, 6):
        for variant, oracle in [("node", "exact"), ("node", "heuristic"), ("edge", "exact"),
                                ("multi_visit", "exact"), ("multi_visit", "heuristic")]:
            cfg = tso.GreedyConfig(team_size=team, oracle=oracle, variant=variant)
            want, got = tso.greedy_survivors(g, cfg), tso.greedy_survivors(h, cfg)
            assert got.paths == [tuple(new[v] for v in p) for p in want.paths], (team, variant, oracle)
            assert repr(got.plan.objective) == repr(want.plan.objective), (team, variant, oracle)
            assert repr(got.variant_value) == repr(want.variant_value), (team, variant, oracle)
    lg, lh = tso.log_transform(g), tso.log_transform(h)
    for draw in range(20):
        rewards = {v: float(rng.uniform(0.0, 1.0)) if rng.uniform() < 0.6 else 0.0 for v in g.node_ids}
        for seed in range(3):
            want = tso.solve_heuristic(lg, rewards, seed=seed)
            got = tso.solve_heuristic(lh, {new[v]: r for v, r in rewards.items()}, seed=seed)
            assert (list(got.path), repr(got.reward), got.nodes_expanded) == (
                [new[v] for v in want.path], repr(want.reward), want.nodes_expanded), (draw, seed)


def test_heuristic_run_searches_each_source_once(monkeypatch):
    # A GRASP run reads every tree through the LogGraph's memo: the start's
    # for ζ and the first skeleton, one per leg source, and one reverse tree,
    # to the terminal. LogGraph.tree runs each tree as a graph.search, which
    # is counted with the direction of the tree it builds; GRASP's banned
    # searches go through orienteering.search and are not counted.
    g = tso.feasible_random_instance(20, 0.3, 1.0, 0.5, seed=(0, 0))
    calls, building = [], []
    tree, search = tso.graph.LogGraph.tree, tso.graph.search

    def counted_tree(lg, i, reverse=False):
        building.append(reverse)
        try:
            return tree(lg, i, reverse)
        finally:
            building.pop()

    def counted_search(rows, src, *args):
        calls.append((g.node_ids[src], building[-1]))
        return search(rows, src, *args)

    monkeypatch.setattr(tso.graph.LogGraph, "tree", counted_tree)
    monkeypatch.setattr(tso.graph, "search", counted_search)
    tso.greedy_survivors(g, tso.GreedyConfig(team_size=5, oracle="heuristic"))
    assert (g.start, False) in calls and len(calls) == len(set(calls))
    assert [c for c in calls if c[1]] == [(g.terminal, True)]


def test_diamond_bound_values(diamond):
    one = tso.greedy_survivors(diamond, tso.GreedyConfig(team_size=1))
    cert1 = tso.compute_bounds(one, one.config.team_size, one.config.total_paths)
    assert cert1.u1 == pytest.approx(1.9, abs=1e-12)
    assert cert1.factor == pytest.approx(1.0 - math.exp(-0.8), abs=1e-15)
    assert cert1.upper == pytest.approx(1.9, abs=1e-12)
    assert one.plan.objective == pytest.approx(1.71, abs=1e-12)

    two = tso.greedy_survivors(diamond, tso.GreedyConfig(team_size=2))
    cert2 = tso.compute_bounds(two, two.config.team_size, two.config.total_paths)
    # Node 2: 1 - 0.1^2, node 4: capped at 1, node 3 unreachable in budget.
    assert cert2.u1 == pytest.approx(1.99, abs=1e-12)
    assert cert2.u2 == pytest.approx(1.9539 / (1.0 - math.exp(-0.8)), abs=1e-9)
    assert cert2.upper == pytest.approx(1.99, abs=1e-12)


def test_depot_bound_counts_start_once(loop5):
    res = tso.greedy_survivors(loop5, tso.GreedyConfig(team_size=1))
    cert = tso.compute_bounds(res, res.config.team_size, res.config.total_paths)
    expected = sum(
        oracles.best_visit_probability(loop5, j)
        for j in loop5.node_ids
        if oracles.node_truly_visitable(loop5, j)
    )
    assert cert.u1 == pytest.approx(expected, abs=1e-12)


def test_oversize_run_tightens_factor(loop5):
    res = tso.greedy_survivors(loop5, tso.GreedyConfig(team_size=1, oversize=8))
    cert = tso.compute_bounds(res, res.config.team_size, res.config.total_paths)
    oversize_factor = 1.0 - math.exp(-0.75 * 8)
    assert oversize_factor > cert.factor
    assert cert.value == res.plan.objective
    assert cert.u3 == tso.team_plan(loop5, res.paths).objective / oversize_factor
    assert cert.u3 <= cert.u2 * (1.0 + 1e-12)


def test_bounds_dominate_brute_force_optimum():
    for seed in range(5):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(87, seed))
        for team in (1, 2):
            res = tso.greedy_survivors(g, tso.GreedyConfig(team_size=team))
            cert = tso.compute_bounds(res, res.config.team_size, res.config.total_paths)
            opt, _ = oracles.best_team_brute(g, team)
            assert cert.upper >= opt - 1e-9
            assert res.plan.objective >= cert.factor * opt - 1e-9


def test_bounds_to_dict_keys(diamond):
    res = tso.greedy_survivors(diamond, tso.GreedyConfig(team_size=1))
    doc = tso.bounds_to_dict(tso.compute_bounds(res, res.config.team_size, res.config.total_paths))
    assert set(doc) == {"U1", "U2", "U3", "factor", "certified"}


def test_hex_team_paths_respect_survival(hexg):
    res = tso.greedy_survivors(hexg, tso.GreedyConfig(team_size=4))
    for prof in res.plan.profiles:
        assert prof.survival >= hexg.p_s - 1e-9
    values = [tso.team_plan(hexg, res.paths[:k]).objective for k in range(5)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def _with_tables(g, seed):
    """g with a non-increasing M=3 multi-visit row per node and a reward on every edge, drawn from seed."""
    rng = np.random.default_rng(seed)
    table = tso.MultiVisitTable(M=3, d={v: sorted(rng.uniform(0.2, 1.0, 3).tolist(), reverse=True) for v in g.node_ids})
    return tso.SurvivalGraph(
        node_ids=g.node_ids, priorities=g.priorities, edges=g.edges, start=g.start, terminal=g.terminal,
        p_s=g.p_s, multi_visit=table, edge_rewards={(u, v): float(rng.uniform(0.5, 1.5)) for u, v, _w in g.edges},
    )


def _value_from_scratch(g, variant, paths):
    if variant == "edge":
        return tso.edge_team_objective(g, paths, g.edge_rewards)
    if variant == "multi_visit":
        return tso.multi_visit_objective(g, paths, g.multi_visit.d, g.multi_visit.M)
    return tso.team_plan(g, paths).objective


_VALUE_CASES = [(f"hex-p{p_s}", tso.hex_instance(p_s=p_s), 6) for p_s in (0.5, 0.6, 0.7, 0.8, 0.9)] + [
    (f"ratio-p{p_s}-r{rep}", tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(0, rep)), 3)
    for p_s in (0.5, 0.7, 0.9) for rep in range(2)
]


@pytest.mark.parametrize("variant", tso.greedy.VARIANTS)
@pytest.mark.parametrize("name, g0, team", _VALUE_CASES, ids=[c[0] for c in _VALUE_CASES])
def test_run_values_are_from_scratch_values(variant, name, g0, team):
    # The value the run records after each robot is the one the objective
    # functions compute afresh on its paths so far, to the bit; the
    # certificate's value is the team's entry and u3's the whole run's.
    g = _with_tables(g0, 7)
    run = tso.greedy_survivors(g, tso.GreedyConfig(team, oversize=2 * team, variant=variant))
    assert len(run.values) == len(run.paths) == 2 * team
    for k in range(len(run.paths)):
        assert repr(run.values[k]) == repr(_value_from_scratch(g, variant, run.paths[: k + 1])), k
    cert = tso.compute_bounds(run, team, 2 * team)
    assert repr(cert.value) == repr(run.values[team - 1])
    assert repr(run.variant_value) == repr(None if variant == "node" else run.values[team - 1])
    if variant == "node":
        assert repr(run.values[team - 1]) == repr(run.plan.objective)


@pytest.mark.parametrize("variant", ["multi_visit", "edge"])
@pytest.mark.parametrize("p_s", [0.5, 0.7])
def test_depot_variant_solve_matches_golden(tmp_path, capsys, variant, p_s):
    """Multi-visit and edge plans of a hex depot team are pinned across commits, as the bench CSVs are."""
    inst = tmp_path / "inst.json"
    tso.save_instance(_with_tables(tso.hex_instance(p_s=p_s), 7), inst)
    plan = tmp_path / "plan.json"
    assert main(["solve", str(inst), "--team", "6", "--oversize", "36", "--variant", variant, "--out", str(plan)]) == 0
    golden = Path(__file__).parent / "data" / f"solve-hex-p{p_s}-{variant}.plan.json"
    assert plan.read_bytes() == golden.read_bytes()


def test_grasp_multi_visit_solve_matches_golden(tmp_path):
    """GRASP reads MultiVisitRewards.rewards(); its hex depot plan is pinned across commits."""
    inst = tmp_path / "inst.json"
    tso.save_instance(_with_tables(tso.hex_instance(p_s=0.7), 7), inst)
    plan = tmp_path / "plan.json"
    argv = ["solve", str(inst), "--team", "6", "--oversize", "36", "--variant", "multi_visit", "--oracle", "heuristic"]
    assert main([*argv, "--out", str(plan)]) == 0
    golden = Path(__file__).parent / "data" / "solve-hex-p0.7-multi_visit-heuristic.plan.json"
    assert plan.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("variant", ["edge", "multi_visit"])
def test_runs_of_70_robots_match_the_reference_loops(variant):
    # 70 robots, past the visit-count table's first 64 rows, on a hex depot
    # whose start edges survive with chance 1.0. Before every robot its
    # rewards, and after it the run's value, are the floats of the per-node
    # loops in tests/oracles.py or of a plain left-to-right edge sum.
    base = tso.hex_instance(p_s=0.7)
    sure = [(u, v, 1.0 if u == base.start else w) for u, v, w in base.edges]
    g = _with_tables(tso.SurvivalGraph(node_ids=base.node_ids, priorities={}, edges=sure, start=0, terminal=0, p_s=0.7), 7)
    run = tso.greedy_survivors(g, tso.GreedyConfig(6, oversize=70, variant=variant))
    model = tso.greedy.MODELS[variant](run.lg)
    arcs = run.lg.table(tso.orienteering._Steps).arcs
    mv, ref = g.multi_visit, {v: [1.0] for v in g.node_ids}
    miss = dict.fromkeys(g.edge_rewards, 1.0)
    w = {(u, v): model.zeta[u] * g.survival[(u, v)] * d for (u, v), d in g.edge_rewards.items()}
    for k, path in enumerate(run.paths):
        if variant == "edge":
            want = [w.get(e, 0.0) for e in arcs]
        else:
            nxt = oracles.next_visit_reward_reference(g, ref, mv.d, mv.M)
            want = [model.zeta[j] * nxt[j] for j in g.node_ids]
        assert repr(model.rewards().tolist()) == repr(want), k
        model.add(path)
        prof = tso.visit_profile(g, path)
        oracles.fold_visit_counts_reference(ref, prof)
        for e, a in prof.crossings:
            miss[e] *= 1.0 - a
            w[e] *= 1.0 - a
        if variant == "edge":
            value = 0.0
            for e, d in g.edge_rewards.items():
                value += d * (1.0 - miss[e])
        else:
            value = float(oracles.multi_visit_value_reference(g, ref, mv.d, mv.M))
        assert repr(run.values[k]) == repr(model.values[k]) == repr(value), k
    assert any(p == 1.0 for path in run.paths for p in tso.visit_profile(g, path).visit_prob.values())


def test_edge_rewards_of_minus_zero_write_zero(tmp_path):
    # Every edge pays -0.0: the run's value is a sum of -0.0 terms, which
    # adds from 0.0 and so is written as 0.0.
    base = tso.hex_instance(p_s=0.7)
    g = tso.SurvivalGraph(
        node_ids=base.node_ids, priorities={}, edges=base.edges, start=0, terminal=0, p_s=0.7,
        edge_rewards={(u, v): -0.0 for u, v, _w in base.edges},
    )
    inst, plan = tmp_path / "inst.json", tmp_path / "plan.json"
    tso.save_instance(g, inst)
    assert main(["solve", str(inst), "--team", "2", "--oversize", "4", "--variant", "edge", "--out", str(plan)]) == 0
    assert repr(json.loads(plan.read_text())["variant_objective"]) == "0.0"
    run = tso.greedy_survivors(g, tso.GreedyConfig(2, oversize=4, variant="edge"))
    assert repr(run.values) == "[0.0, 0.0, 0.0, 0.0]"


def test_bounds_read_the_run_without_replaying_it(monkeypatch):
    # compute_bounds reads the values the run recorded; it builds no visit
    # profile and no team plan.
    g = _with_tables(tso.hex_instance(p_s=0.7), 7)
    runs = [tso.greedy_survivors(g, tso.GreedyConfig(3, oversize=6, variant=v)) for v in tso.greedy.VARIANTS]
    calls = []
    for mod in (tso.greedy, tso.objective):
        for name in ("visit_profile", "team_plan"):
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    for run in runs:
        tso.compute_bounds(run, 3, 6)
    assert calls == []


def test_bounds_refuse_a_prefix_the_run_does_not_have():
    run = tso.greedy_survivors(tso.hex_instance(p_s=0.7), tso.GreedyConfig(2))
    for team_size, total_paths in ((6, 2), (2, 6), (3, 3), (0, 2), (2, 0)):
        with pytest.raises(ValueError, match="must be in 1..2"):
            tso.compute_bounds(run, team_size, total_paths)
    assert tso.compute_bounds(run, 1, 2).value == run.values[0]


@pytest.mark.parametrize("p_s, team_size, total_paths", [(1e-17, 2, 2), (5e-324, 2, 2), (1e-16, 2, 1)])
def test_bounds_refuse_a_p_s_whose_factor_rounds_to_zero(p_s, team_size, total_paths):
    # 1 - exp(-x) is 0.0 for x below about 5.5e-17. At p_s 1e-16 only U3's
    # factor, at p_s * total_paths / team_size, is 0.0.
    run = tso.greedy_survivors(tso.random_complete_instance(5, 0.5, 1.0, p_s, seed=3), tso.GreedyConfig(2))
    with pytest.raises(ValueError, match=f"p_s {p_s!r} is too small"):
        tso.compute_bounds(run, team_size, total_paths)
    if p_s == 1e-16:
        assert tso.compute_bounds(run, 2, 2).factor == 1.0 - math.exp(-1e-16) > 0.0
