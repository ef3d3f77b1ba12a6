from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import tso
from tso import orienteering
from tso.graph import INF, _tour_cost, check_path, tree_path

import oracles


def test_validate_accepts_fixtures(diamond, loop5, hexg):
    assert tso.validate_instance(diamond) == []
    assert tso.validate_instance(loop5) == []
    assert tso.validate_instance(hexg) == []


def test_validate_rejects_bad_data():
    def make(**overrides):
        kw = dict(
            node_ids=[1, 2],
            priorities={1: 1.0, 2: 1.0},
            edges=[(1, 2, 0.9)],
            start=1,
            terminal=2,
            p_s=0.5,
        )
        kw.update(overrides)
        return tso.SurvivalGraph(**kw)

    assert tso.validate_instance(make(edges=[(1, 2, 0.9), (1, 2, 0.8)]))
    assert tso.validate_instance(make(edges=[(1, 1, 0.9), (1, 2, 0.9)]))
    assert tso.validate_instance(make(edges=[(1, 2, 1.5)]))
    assert tso.validate_instance(make(edges=[(1, 2, 0.0)]))
    assert tso.validate_instance(make(priorities={1: 1.0, 2: -2.0}))
    assert tso.validate_instance(make(p_s=0.0))
    assert tso.validate_instance(make(p_s=1.5))
    assert tso.validate_instance(make(start=7))
    assert tso.validate_instance(make(team_size=0))


def test_validate_multi_visit_rows():
    table = tso.MultiVisitTable(M=2, d={1: [1.0, 0.5], 2: [1.0, 0.5]})
    g = tso.SurvivalGraph(
        node_ids=[1, 2],
        priorities={1: 1.0, 2: 1.0},
        edges=[(1, 2, 0.9)],
        start=1,
        terminal=2,
        p_s=0.5,
        multi_visit=table,
    )
    assert tso.validate_instance(g) == []
    increasing = tso.MultiVisitTable(M=2, d={1: [0.5, 1.0]})
    g_bad = tso.SurvivalGraph(
        node_ids=[1, 2],
        priorities={1: 1.0, 2: 1.0},
        edges=[(1, 2, 0.9)],
        start=1,
        terminal=2,
        p_s=0.5,
        multi_visit=increasing,
    )
    assert tso.validate_instance(g_bad)


def test_multi_visit_table_needs_a_row_per_node(hexg):
    # A short table used to be accepted, and the nodes past its end earned 0.
    doc = tso.instance_to_dict(hexg)
    doc["multi_visit"] = {"M": 2, "d": [[1.0, 0.5]] * 3}
    with pytest.raises(ValueError, match="3 rows for 19 nodes"):
        tso.instance_from_dict(doc)
    g = tso.SurvivalGraph(
        node_ids=hexg.node_ids,
        priorities=hexg.priorities,
        edges=hexg.edges,
        start=hexg.start,
        terminal=hexg.terminal,
        p_s=hexg.p_s,
        multi_visit=tso.MultiVisitTable(M=2, d={v: [1.0, 0.5] for v in hexg.node_ids[:3]}),
    )
    problems = tso.validate_instance(g)
    assert len(problems) == 1 and "no row for nodes" in problems[0]
    with pytest.raises(ValueError, match="row for every node"):
        tso.greedy_survivors(g, tso.GreedyConfig(team_size=1, variant="multi_visit"))


def test_check_path_rules(diamond, loop5):
    check_path(diamond, (1, 2, 4))
    check_path(loop5, (1, 3, 5, 2, 1))
    with pytest.raises(ValueError):
        check_path(diamond, (1, 5, 4))
    with pytest.raises(ValueError):
        check_path(diamond, ())
    with pytest.raises(ValueError):
        check_path(diamond, (1, 3, 2, 4))  # no edge 3 -> 2
    with pytest.raises(ValueError):
        check_path(loop5, (1, 3, 5, 4, 5, 2, 1))  # interior repeat


def test_log_transform_costs(diamond):
    lg = tso.log_transform(diamond)
    assert lg.costs[1][2] == pytest.approx(-math.log(0.9), abs=1e-15)
    assert lg.costs[1][4] == 0.0
    assert lg.budget == pytest.approx(-math.log(0.8), abs=1e-15)


def test_arc_table_is_in_index_order_whatever_the_edge_order():
    # Index order here runs against the node ids, and the edges come shuffled:
    # the table, and every search that reads it, must not see the edge order.
    hexg = tso.hex_instance(p_s=0.6)
    ids = hexg.node_ids[::-1]
    index = {v: i for i, v in enumerate(ids)}
    shuffled = [hexg.edges[i] for i in np.random.default_rng(5).permutation(len(hexg.edges))]
    ordered = sorted(hexg.edges, key=lambda e: (index[e[0]], index[e[1]]))
    assert shuffled != ordered
    runs = []
    for edges in (shuffled, ordered):
        g = dataclasses.replace(hexg, node_ids=ids, edges=edges)
        lg = tso.log_transform(g)
        for table in (lg.costs, lg.into):
            assert list(table) == ids
            for row in table.values():
                assert list(row) == sorted(row, key=index.get)
        rewards = {v: 1.0 + (v % 3) for v in ids}
        runs.append((
            tso.dijkstra(lg, 0)[1], tso.dijkstra(lg, 0, reverse=True)[1], _tour_cost(lg),
            tso.orienteering.prefix_catalog(lg).paths(),
            tso.solve_heuristic(tso.OrienteeringProblem(lg, rewards=rewards), seed=3),
        ))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("w", [1.0000001, 2.0, 0.0, -0.5, float("nan"), float("inf")])
def test_log_transform_refuses_survival_outside_unit_interval(diamond, w):
    # A survival above 1 would give a negative cost, which the searches'
    # stop rules and the catalog's pruning assume never happens.
    edges = [(u, v, w if (u, v) == (1, 3) else s) for u, v, s in diamond.edges]
    g = dataclasses.replace(diamond, edges=edges)
    with pytest.raises(ValueError, match=r"edge \(1,3\) survival .* out of \(0,1\]"):
        tso.log_transform(g)


def test_dijkstra_matches_enumeration_on_randoms():
    for seed in range(10):
        g = tso.random_complete_instance(6, 0.3, 1.0, 0.6, seed=(41, seed))
        lg = tso.log_transform(g)
        dist = lg.distances_from(g.start)
        for j in g.node_ids:
            best = oracles.best_visit_probability(g, j)
            assert math.exp(-dist[j]) == pytest.approx(best, abs=1e-12)


def test_dijkstra_reverse_agrees_with_forward():
    g = tso.random_complete_instance(6, 0.3, 1.0, 0.6, seed=17)
    lg = tso.log_transform(g)
    to_term = lg.distances_to(g.terminal)
    for j in g.node_ids:
        fwd = tso.dijkstra(lg, j)[0][g.terminal]
        assert to_term[j] == pytest.approx(fwd, abs=1e-15)


def test_shortest_path_nodes(diamond):
    lg = tso.log_transform(diamond)
    parent = tso.dijkstra(lg, 1)[1]
    assert tree_path(parent, 1, 4) == [1, 4]
    assert tree_path(parent, 1, 2) == [1, 2]
    sparse = tso.SurvivalGraph(
        node_ids=[1, 2, 3],
        priorities={1: 1.0, 2: 1.0, 3: 1.0},
        edges=[(1, 2, 0.9)],
        start=1,
        terminal=3,
        p_s=0.5,
    )
    dist, parent = tso.dijkstra(tso.log_transform(sparse), 1)
    assert dist[3] == INF
    assert tree_path(parent, 1, 3) is None


def _search_readings(g, queries):
    """Parent trees from every node both ways, feasibility verdicts and GRASP legs of g, keyed by node id."""
    lg = tso.log_transform(g)
    trees = {v: (tso.dijkstra(lg, v)[1], tso.dijkstra(lg, v, reverse=True)[1]) for v in g.node_ids}
    rep = tso.feasibility_check(g)
    legs = [repr(orienteering._leg_avoiding(lg, *q)) for q in queries]
    return trees, rep.reachable, rep.x_nonempty, legs


def test_searches_ignore_the_order_of_node_ids():
    # The hex graph's survivals repeat, so many paths tie. Every search pops
    # by (dist, node id) and keeps the first popped parent, so listing the
    # same nodes in another order changes no tree, verdict or leg.
    base = tso.hex_instance(p_s=0.6)
    rng = np.random.default_rng(31)
    ids, limit = base.node_ids, -math.log(base.p_s) + 1e-9
    queries = []
    for _ in range(300):
        src, dst = (ids[i] for i in rng.choice(len(ids), 2, replace=False))
        banned = {v for v in ids if v != src and rng.uniform() < 0.3} | {src}
        queries.append((src, dst, banned, float(rng.uniform(0.0, 1.2 * limit))))
    want = _search_readings(base, queries)
    assert "None" in want[3] and any(leg != "None" for leg in want[3])
    for k in range(5):
        order = [ids[i] for i in rng.permutation(len(ids))]
        assert _search_readings(dataclasses.replace(base, node_ids=order), queries) == want, k


def test_equal_sums_keep_the_first_popped_parent():
    # 0 -> 2 -> 3 and 0 -> 1 -> 3 add the same two costs in another order,
    # so node 3 gets the same float from node 2 (popped first, at the
    # smaller distance) and from node 1, which has the smaller id.
    g = tso.SurvivalGraph(
        node_ids=[0, 1, 2, 3], priorities={v: 1.0 for v in range(4)},
        edges=[(0, 1, 0.5), (0, 2, 0.9), (1, 3, 0.9), (2, 3, 0.5)],
        start=0, terminal=3, p_s=0.4,
    )
    lg = tso.log_transform(g)
    dist, parent = tso.dijkstra(lg, 0)
    assert dist[2] < dist[1] and dist[2] + lg.costs[2][3] == dist[1] + lg.costs[1][3] == dist[3]
    assert parent[3] == 2 and tree_path(parent, 0, 3) == [0, 2, 3]
    leg = orienteering._leg_avoiding(lg, 0, 3, {0}, 0.0)
    assert leg == oracles.grasp_leg(g, 0, 3, {0}) == ((0, 2, 3), dist[3])


def test_zeta_diamond_values(diamond):
    lg = tso.log_transform(diamond)
    zeta = tso.max_visit_probabilities(lg)
    assert zeta[1] == 1.0
    assert zeta[2] == pytest.approx(0.9, abs=1e-12)
    assert zeta[3] == pytest.approx(0.8, abs=1e-12)
    assert zeta[4] == pytest.approx(1.0, abs=1e-12)


def test_zeta_bounds_every_feasible_visit():
    for seed in range(6):
        g = tso.feasible_random_instance(6, 0.3, 1.0, 0.6, seed=(42, seed))
        lg = tso.log_transform(g)
        zeta = tso.max_visit_probabilities(lg)
        for path in oracles.feasible_paths(g):
            prof = tso.visit_profile(g, path)
            for j, p in prof.visit_prob.items():
                assert p <= zeta[j] + 1e-12


def test_feasibility_diamond(diamond):
    rep = tso.feasibility_check(diamond)
    assert rep.x_nonempty
    assert not rep.reachable[1]  # open instance: the start never counts
    assert rep.reachable[2]
    assert not rep.reachable[3]
    assert rep.reachable[4]


def test_feasibility_depot_start_needs_a_tour(loop5):
    rep = tso.feasibility_check(loop5)
    assert rep.x_nonempty
    assert rep.reachable[1]
    # Cheapest return tour survives with probability 0.8664.
    assert math.exp(-_tour_cost(tso.log_transform(loop5))[0]) == pytest.approx(0.8664, abs=1e-12)

    tight = tso.SurvivalGraph(
        node_ids=loop5.node_ids,
        priorities=loop5.priorities,
        edges=loop5.edges,
        start=loop5.start,
        terminal=loop5.terminal,
        p_s=0.9,
    )
    rep_tight = tso.feasibility_check(tight)
    assert not rep_tight.x_nonempty
    assert not rep_tight.reachable[1]
    assert oracles.feasible_paths(tight) == []
    with pytest.raises(tso.InfeasibleInstanceError):
        tso.greedy_survivors(tight, tso.GreedyConfig(team_size=1))


def test_feasibility_internal_consistency():
    for seed in range(8):
        g = tso.random_complete_instance(7, 0.3, 1.0, 0.7, seed=(43, seed))
        rep = tso.feasibility_check(g)
        lg = tso.log_transform(g)
        dist, parent = tso.dijkstra(lg, g.start)
        assert not rep.reachable[g.start]  # open instances
        for j in g.node_ids[1:]:
            # Shortest start -> j, then shortest j -> terminal off that leg's edges.
            leg = tree_path(parent, g.start, j)
            cost = dist[j] + tso.dijkstra(lg, j, banned=frozenset(zip(leg, leg[1:])))[0][g.terminal]
            assert rep.reachable[j] == (cost <= -math.log(g.p_s) + 1e-9)


def test_brute_force_feasibility_diamond(diamond):
    assert tso.brute_force_feasibility(diamond, 2)
    assert not tso.brute_force_feasibility(diamond, 3)
    assert tso.brute_force_feasibility(diamond, 4)


def test_brute_force_feasibility_matches_enumeration():
    for seed in range(10):
        g = tso.random_complete_instance(6, 0.3, 1.0, 0.6, seed=(44, seed))
        for j in g.node_ids:
            if j == g.start:
                continue
            assert tso.brute_force_feasibility(g, j) == oracles.node_truly_visitable(g, j)


def test_x_nonempty_exact_on_randoms():
    for seed in range(20):
        g = tso.random_complete_instance(5, 0.3, 1.0, 0.9, seed=(45, seed))
        rep = tso.feasibility_check(g)
        assert rep.x_nonempty == bool(oracles.feasible_paths(g))


def test_has_feasible_path_matches_feasibility_check_and_enumeration(loop5):
    # Complete digraphs at tight and loose budgets, the same graphs as depot
    # tours at node 0, and loop5 at its own and a tighter budget.
    graphs = [loop5, tso.SurvivalGraph(
        node_ids=loop5.node_ids, priorities=loop5.priorities, edges=loop5.edges,
        start=loop5.start, terminal=loop5.terminal, p_s=0.9,
    )]
    for seed in range(12):
        g = tso.random_complete_instance(5, 0.3, 1.0, (0.5, 0.8, 0.95)[seed % 3], seed=(46, seed))
        graphs += [g, tso.SurvivalGraph(
            node_ids=g.node_ids, priorities=g.priorities, edges=g.edges, start=0, terminal=0, p_s=g.p_s,
        )]
    flags = []
    for g in graphs:
        flag = tso.has_feasible_path(tso.log_transform(g))
        assert flag == tso.feasibility_check(g).x_nonempty == bool(oracles.feasible_paths(g))
        flags.append((g.start == g.terminal, flag))
    assert set(flags) == {(False, False), (False, True), (True, False), (True, True)}


def test_instance_round_trip(tmp_path, loop5):
    path = tmp_path / "loop5.json"
    tso.save_instance(loop5, path)
    back = tso.load_instance(path)
    assert back.node_ids == loop5.node_ids
    assert back.edges == loop5.edges
    assert back.start == loop5.start
    assert back.terminal == loop5.terminal
    assert back.p_s == loop5.p_s
    assert back.priorities == loop5.priorities


def test_save_instance_refuses_non_json_floats(tmp_path, hexg):
    # json.load reads Infinity back, but strict JSON has no such value.
    hexg.priorities[3] = math.inf
    path = tmp_path / "inf.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        tso.save_instance(hexg, path)
    assert not path.exists()


def test_instance_dict_undirected_expansion():
    doc = {
        "version": 1,
        "nodes": [{"id": 1}, {"id": 2}],
        "edges": [{"from": 1, "to": 2, "survival": 0.9}],
        "directed": False,
        "start": 1,
        "terminal": 2,
        "p_s": 0.5,
    }
    g = tso.instance_from_dict(doc)
    assert (1, 2, 0.9) in g.edges
    assert (2, 1, 0.9) in g.edges
    assert g.priorities[1] == 1.0


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "nodes": []}), encoding="utf-8")
    with pytest.raises((KeyError, ValueError)):
        tso.load_instance(bad)
