from __future__ import annotations

import numpy as np
import pytest

import tso
from tso.orienteering import path_reward

import oracles


def _problem(g, rewards=None, edge_rewards=None, budget=None):
    return tso.OrienteeringProblem(
        lg=tso.log_transform(g), rewards=rewards, edge_rewards=edge_rewards, budget=budget
    )


def _depot_graphs(loop5, seed_tag, count):
    """loop5 plus random complete digraphs turned into depot tours at node 0."""
    graphs = [loop5]
    for seed in range(count):
        g = tso.random_complete_instance(5, 0.5, 1.0, 0.6, seed=(seed_tag, seed))
        graphs.append(tso.SurvivalGraph(
            node_ids=g.node_ids, priorities=g.priorities, edges=g.edges,
            start=g.start, terminal=g.start, p_s=g.p_s,
        ))
    return graphs


def _random_rewards(g, rng):
    """Node rewards on every node and arc rewards on every arc, arcs into the start included."""
    nodes = {v: float(rng.uniform(0.0, 1.0)) for v in g.node_ids}
    arcs = {(u, v): float(rng.uniform(0.0, 1.0)) for u, v, _ in g.edges}
    return nodes, arcs


def test_rejects_bad_rewards(diamond):
    with pytest.raises(ValueError):
        _problem(diamond, rewards={2: -1.0})
    with pytest.raises(ValueError):
        _problem(diamond, edge_rewards={(4, 1): 1.0})
    with pytest.raises(ValueError):
        _problem(diamond, edge_rewards={(1, 2): -0.5})


def test_diamond_visit_probability_rewards(diamond):
    lg = tso.log_transform(diamond)
    zeta = tso.max_visit_probabilities(lg)
    rewards = {v: zeta[v] * diamond.priority(v) for v in diamond.node_ids if v != diamond.start}
    res = tso.solve_exact(_problem(diamond, rewards=rewards))
    assert res.path == (1, 2, 4)
    assert res.reward == pytest.approx(1.9, abs=1e-12)
    assert res.exact


def test_exact_matches_enumeration_on_randoms():
    for seed in range(12):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(70, seed))
        rng = np.random.default_rng((71, seed))
        rewards = {v: float(rng.uniform(0.0, 1.0)) for v in g.node_ids}
        res = tso.solve_exact(_problem(g, rewards=rewards))
        best, maximizers = oracles.orienteering_brute(g, rewards)
        assert res.reward == pytest.approx(best, abs=1e-12)
        assert res.path in maximizers


def test_exact_breaks_ties_toward_smallest_path():
    # Equal weights and unit rewards: (0,1,4), (0,2,4), (0,3,4) all collect 2.
    g = tso.random_complete_instance(5, 0.9, 0.9, 0.75, seed=0)
    rewards = {v: 1.0 for v in g.node_ids}
    res = tso.solve_exact(_problem(g, rewards=rewards))
    best, maximizers = oracles.orienteering_brute(g, rewards)
    assert res.reward == pytest.approx(best, abs=1e-12)
    assert res.path == (0, 1, 4)
    assert res.path == min(maximizers)


def test_reward_bound_only_prunes(loop5):
    graphs = [tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(72, seed)) for seed in range(6)]
    graphs += _depot_graphs(loop5, 79, 6)
    for seed, g in enumerate(graphs):
        rewards, arc_rewards = _random_rewards(g, np.random.default_rng((73, seed)))
        for solve, p in (
            (tso.solve_exact, _problem(g, rewards=rewards)),
            (tso.solve_arc_exact, _problem(g, edge_rewards=arc_rewards)),
        ):
            fast = solve(p)
            slow = solve(p, use_reward_bound=False)
            assert fast.path == slow.path, (seed, solve.__name__)
            assert fast.reward == slow.reward
            assert fast.nodes_expanded <= slow.nodes_expanded


def test_zero_cost_edge_survives_zero_budget(diamond):
    res = tso.solve_exact(_problem(diamond, rewards={4: 1.0}, budget=0.0))
    assert res.path == (1, 4)
    assert res.reward == pytest.approx(1.0, abs=0.0)


def test_all_zero_rewards_still_feasible(diamond):
    res = tso.solve_exact(_problem(diamond, rewards={}))
    assert res.reward == 0.0
    tso.visit_profile(diamond, res.path)
    assert res.path[0] == 1 and res.path[-1] == 4


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
        tso.solve_exact(_problem(g, rewards={2: 1.0}))
    with pytest.raises(tso.InfeasibleInstanceError):
        tso.solve_heuristic(_problem(g, rewards={2: 1.0}))


def test_depot_with_no_affordable_tour_stays_home(loop5):
    res = tso.solve_exact(_problem(loop5, rewards={5: 1.0}, budget=0.0))
    assert res.path == (1,)
    assert res.reward == 0.0


def test_depot_tour_collects_start_on_return(loop5):
    rewards = {v: 1.0 for v in loop5.node_ids}
    res = tso.solve_exact(_problem(loop5, rewards=rewards))
    assert res.reward == pytest.approx(4.0, abs=1e-12)
    assert res.path == (1, 3, 5, 2, 1)
    assert path_reward(_problem(loop5, rewards=rewards), res.path) == pytest.approx(4.0)


def test_heuristic_at_most_exact_and_deterministic():
    for seed in range(8):
        g = tso.feasible_random_instance(6, 0.4, 1.0, 0.6, seed=(74, seed))
        rng = np.random.default_rng((75, seed))
        rewards = {v: float(rng.uniform(0.0, 1.0)) for v in g.node_ids}
        p = _problem(g, rewards=rewards)
        exact = tso.solve_exact(p)
        heur = tso.solve_heuristic(p, seed=seed)
        again = tso.solve_heuristic(p, seed=seed)
        assert heur.path == again.path
        assert heur.reward == again.reward
        assert not heur.exact
        assert heur.reward <= exact.reward + 1e-12
        assert path_reward(p, heur.path) == pytest.approx(heur.reward, abs=1e-12)


def test_heuristic_paths_stay_feasible():
    for seed in range(6):
        g = tso.feasible_random_instance(6, 0.4, 1.0, 0.6, seed=(76, seed))
        p = _problem(g, rewards={v: 1.0 for v in g.node_ids})
        res = tso.solve_heuristic(p, seed=seed, restarts=8)
        prof = tso.visit_profile(g, res.path)
        assert prof.survival >= g.p_s - 1e-9
        assert res.path[0] == g.start and res.path[-1] == g.terminal


def test_arc_exact_matches_enumeration(loop5):
    graphs = [tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(77, seed)) for seed in range(8)]
    graphs += _depot_graphs(loop5, 80, 8)
    tours = 0
    for seed, g in enumerate(graphs):
        rng = np.random.default_rng((78, seed))
        rewards = {(u, v): float(rng.uniform(0.0, 1.0)) for u, v, _ in g.edges}
        p = _problem(g, edge_rewards=rewards)
        res = tso.solve_arc_exact(p)
        slow = tso.solve_arc_exact(p, use_reward_bound=False)
        assert (res.path, res.reward) == (slow.path, slow.reward), seed
        best, maximizers = oracles.arc_orienteering_brute(g, rewards)
        if g.start == g.terminal and not maximizers:
            assert res.path == (g.start,) and res.reward == 0.0
            continue
        tours += g.start == g.terminal
        assert res.reward == pytest.approx(best, abs=1e-12)
        assert res.path in maximizers
    assert tours >= 5


def test_arc_exact_unit_reward_edge(diamond):
    res = tso.solve_arc_exact(_problem(diamond, edge_rewards={(1, 2): 1.0}))
    assert res.path == (1, 2, 4)
    assert res.reward == pytest.approx(1.0, abs=0.0)


def test_arc_bound_agreement(diamond):
    p = _problem(diamond, edge_rewards={(1, 2): 1.0, (2, 4): 0.5})
    fast = tso.solve_arc_exact(p)
    slow = tso.solve_arc_exact(p, use_reward_bound=False)
    assert fast.path == slow.path
    assert fast.reward == slow.reward
