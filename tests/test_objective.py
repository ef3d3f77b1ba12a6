from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tso

import oracles


def _line3():
    """1 -> 2 -> 3 with 0.9 edges; one feasible path visiting 3 at 0.81."""
    return tso.SurvivalGraph(
        node_ids=[1, 2, 3],
        priorities={1: 1.0, 2: 1.0, 3: 1.0},
        edges=[(1, 2, 0.9), (2, 3, 0.9)],
        start=1,
        terminal=3,
        p_s=0.5,
    )


def test_visit_profile_counts_depot_return():
    g = tso.SurvivalGraph(
        node_ids=[1, 2],
        priorities={1: 1.0, 2: 1.0},
        edges=[(1, 2, 0.9), (2, 1, 0.9)],
        start=1,
        terminal=1,
        p_s=0.5,
    )
    prof = tso.visit_profile(g, (1, 2, 1))
    assert prof.visit_prob[2] == pytest.approx(0.9, abs=1e-15)
    assert prof.visit_prob[1] == pytest.approx(0.81, abs=1e-15)
    assert prof.survival == pytest.approx(0.81, abs=1e-15)


def test_two_robots_on_same_096_node(loop5):
    prof = tso.visit_profile(loop5, (1, 3, 5, 2, 1))
    assert prof.visit_prob[5] == pytest.approx(0.96, abs=1e-15)
    x = tso.team_visit_probability(loop5, [prof, prof])
    assert x[5] == pytest.approx(0.9984, abs=1e-12)


def test_diamond_doubled_path_value(diamond):
    j, x = tso.team_objective(diamond, [(1, 2, 4), (1, 2, 4)])
    assert x[2] == pytest.approx(0.99, abs=1e-12)
    assert x[4] == pytest.approx(0.9639, abs=1e-12)
    assert j == pytest.approx(1.9539, abs=1e-12)


def test_team_objective_matches_brute():
    for seed in range(6):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(50, seed))
        catalog = oracles.feasible_paths(g)
        rng = np.random.default_rng((51, seed))
        paths = [catalog[int(rng.integers(len(catalog)))] for _ in range(3)]
        j, _ = tso.team_objective(g, paths)
        assert j == pytest.approx(oracles.team_objective_brute(g, paths), abs=1e-12)


def test_discrete_derivative_is_objective_difference():
    for seed in range(6):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(52, seed))
        catalog = oracles.feasible_paths(g)
        rng = np.random.default_rng((53, seed))
        existing = [catalog[int(rng.integers(len(catalog)))] for _ in range(2)]
        cand = catalog[int(rng.integers(len(catalog)))]
        gain = tso.discrete_derivative(g, cand, existing)
        before, _ = tso.team_objective(g, existing)
        after, _ = tso.team_objective(g, existing + [cand])
        assert gain == pytest.approx(after - before, abs=1e-12)


def test_discrete_derivative_submodular():
    # Adding to a superset never gains more than adding to the subset.
    for seed in range(6):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(54, seed))
        catalog = oracles.feasible_paths(g)
        rng = np.random.default_rng((55, seed))
        small = [catalog[int(rng.integers(len(catalog)))]]
        big = small + [catalog[int(rng.integers(len(catalog)))]]
        cand = catalog[int(rng.integers(len(catalog)))]
        g_small = tso.discrete_derivative(g, cand, small)
        g_big = tso.discrete_derivative(g, cand, big)
        assert g_big <= g_small + 1e-12
        assert g_big >= -1e-15


def test_visit_count_distribution_example():
    g = _line3()
    # Hand-built profiles: robots hit node 3 with probability 0.9 and 0.81.
    profiles = [
        tso.VisitProfile(path=(1, 3), survival_prefix=(1.0, 0.9), visit_prob={3: 0.9}),
        tso.VisitProfile(path=(1, 2, 3), survival_prefix=(1.0, 0.9, 0.81), visit_prob={2: 0.9, 3: 0.81}),
    ]
    dist = tso.visit_count_distribution(g, profiles)[3]
    assert dist == pytest.approx([0.019, 0.252, 0.729], abs=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=8))
def test_visit_count_distribution_matches_brute(probs):
    g = _line3()
    profiles = [
        tso.VisitProfile(path=(1, 3), survival_prefix=(1.0, p), visit_prob={3: p})
        for p in probs
    ]
    dist = tso.visit_count_distribution(g, profiles)[3]
    brute = oracles.poisson_binomial_brute(probs)
    assert dist == pytest.approx(brute, abs=1e-12)
    # Folding one robot at a time gives the floats of a table sized up front.
    table = np.zeros(len(probs) + 1)
    table[0] = 1.0
    for p in probs:
        table[1:] = table[1:] * (1.0 - p) + table[:-1] * p
        table[0] *= 1.0 - p
    assert dist.tolist() == table.tolist()


@st.composite
def _visit_count_cases(draw):
    """Shuffled node ids, M, per-robot visit chances and a non-increasing table over some of the nodes."""
    ids = draw(st.permutations(range(10, 10 + draw(st.integers(1, 6)))))
    M = draw(st.sampled_from([1, 2, 3, 5]))
    chance = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    robots = [draw(st.dictionaries(st.sampled_from(ids), chance)) for _ in range(draw(st.integers(0, 7)))]
    reward = st.floats(min_value=0.0, max_value=2.0)
    covered = draw(st.lists(st.sampled_from(ids), unique=True))
    table = {v: sorted(draw(st.lists(reward, min_size=M, max_size=M)), reverse=True) for v in covered}
    return ids, M, robots, table


@settings(max_examples=300, deadline=None)
@given(_visit_count_cases())
def test_visit_counts_match_the_per_node_loops(case):
    # Bit for bit, after every robot: the count rows, the value and the next
    # rewards of the whole-table fold against the original per-node loops.
    ids, M, robots, table = case
    g = tso.SurvivalGraph(node_ids=ids, priorities={}, edges=[], start=ids[0], terminal=ids[0], p_s=0.5)
    counts = tso.objective.VisitCounts(g, table, M, [])
    ref = {v: [1.0] for v in ids}
    profiles = [tso.VisitProfile(path=(), survival_prefix=(1.0,), visit_prob=z) for z in robots]
    for k in range(len(profiles) + 1):
        if k:
            counts.fold(profiles[k - 1:k])
            oracles.fold_visit_counts_reference(ref, profiles[k - 1])
        assert repr(counts.c.tolist()) == repr([ref[v] for v in ids]), k
        assert repr(float(counts.value())) == repr(float(oracles.multi_visit_value_reference(g, ref, table, M))), k
        want = oracles.next_visit_reward_reference(g, ref, table, M)
        assert repr(counts.next_reward().tolist()) == repr([float(x) for x in want.values()]), k
    dist = tso.visit_count_distribution(g, profiles)
    assert repr({v: row.tolist() for v, row in dist.items()}) == repr(ref)


def test_multi_visit_example():
    g = _line3()
    paths = [(1, 2, 3), (1, 2, 3)]
    value = tso.multi_visit_objective(g, paths, {3: [1.0, 0.5]}, M=2)
    # P(>=1 visit) = 0.9639, P(2 visits) = 0.6561 at node 3.
    assert value == pytest.approx(1.29195, abs=1e-12)


def test_multi_visit_reduces_to_team_objective():
    for seed in range(4):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(56, seed))
        catalog = oracles.feasible_paths(g)
        rng = np.random.default_rng((57, seed))
        paths = [catalog[int(rng.integers(len(catalog)))] for _ in range(2)]
        table = {v: [g.priority(v)] for v in g.node_ids}
        j, _ = tso.team_objective(g, paths)
        assert tso.multi_visit_objective(g, paths, table, M=1) == pytest.approx(j, abs=1e-12)


def test_multi_visit_matches_brute():
    for seed in range(4):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(58, seed))
        catalog = oracles.feasible_paths(g)
        rng = np.random.default_rng((59, seed))
        paths = [catalog[int(rng.integers(len(catalog)))] for _ in range(3)]
        table = {v: [1.0, 0.5, 0.25] for v in g.node_ids}
        got = tso.multi_visit_objective(g, paths, table, M=3)
        want = oracles.multi_visit_objective_brute(g, paths, table, 3)
        assert got == pytest.approx(want, abs=1e-12)


def test_multi_visit_rejects_increasing_rows():
    g = _line3()
    with pytest.raises(ValueError):
        tso.multi_visit_objective(g, [(1, 2, 3)], {3: [0.5, 1.0]}, M=2)


def test_edge_objective_overlap(diamond):
    value = tso.edge_team_objective(diamond, [(1, 2, 4), (1, 2, 4)], {(1, 2): 1.0})
    assert value == pytest.approx(0.99, abs=1e-12)


def test_edge_objective_matches_brute():
    for seed in range(4):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(60, seed))
        catalog = oracles.feasible_paths(g)
        rng = np.random.default_rng((61, seed))
        paths = [catalog[int(rng.integers(len(catalog)))] for _ in range(2)]
        rewards = {}
        for u, v, _ in g.edges:
            rewards[(u, v)] = float(rng.uniform(0.0, 1.0))
        got = tso.edge_team_objective(g, paths, rewards)
        want = oracles.edge_objective_brute(g, paths, rewards)
        assert got == pytest.approx(want, abs=1e-12)


def test_edge_objective_rejects_unknown_edge(diamond):
    with pytest.raises(ValueError):
        tso.edge_team_objective(diamond, [(1, 4)], {(4, 1): 1.0})


def test_plan_round_trip(loop5):
    plan = tso.team_plan(loop5, [(1, 3, 5, 2, 1), (1, 4, 5, 2, 1)])
    doc = tso.plan_to_dict(loop5, plan)
    assert tso.paths_from_plan_dict(doc) == [(1, 3, 5, 2, 1), (1, 4, 5, 2, 1)]
    assert doc["objective"] == pytest.approx(plan.objective, abs=0.0)
    assert len(doc["per_path_survival"]) == 2


def test_simulate_team_deterministic(loop5):
    paths = [(1, 3, 5, 2, 1), (1, 4, 5, 2, 1)]
    a = tso.simulate_team(loop5, paths, trials=20000, seed=7)
    b = tso.simulate_team(loop5, paths, trials=20000, seed=7)
    assert a.estimate == b.estimate
    assert a.survival_freq == b.survival_freq
    c = tso.simulate_team(loop5, paths, trials=20000, seed=8)
    assert c.estimate != a.estimate


def test_simulate_team_accuracy(loop5):
    paths = [(1, 3, 5, 2, 1), (1, 4, 5, 2, 1)]
    j, _ = tso.team_objective(loop5, paths)
    res = tso.simulate_team(loop5, paths, trials=100000, seed=3)
    assert abs(res.estimate - j) <= 4.0 * res.std_error
    for k, p in enumerate(paths):
        true_surv = tso.visit_profile(loop5, p).survival
        se = math.sqrt(true_surv * (1.0 - true_surv) / res.trials)
        assert abs(res.survival_freq[k] - true_surv) <= 4.0 * se


@pytest.fixture(scope="module")
def sim_plans():
    """Plans the Monte-Carlo loop is pinned on, by name: (graph, paths).

    The ratio plans are five-robot GRASP teams on the bench suite's first
    20-node graph at each p_s; at p_s 0.5 the team takes 71 steps. The hex
    graph gets random non-integer priorities, and its team ends with a robot
    that stays home; "home" is a team of two robots that stay home, which
    draws no number, and "empty" is no team.
    """
    plans = {}
    for p_s in (0.5, 0.7, 0.9):
        g = tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(0, 0))
        plans[f"ratio-{p_s}"] = (g, tso.greedy_survivors(g, tso.GreedyConfig(5, oracle="heuristic")).paths)
    base = tso.hex_instance(p_s=0.5)
    rng = np.random.default_rng(19)
    g = tso.SurvivalGraph(
        node_ids=base.node_ids,
        priorities={v: float(rng.uniform(0.1, 3.0)) for v in base.node_ids},
        edges=[(u, v, w) for (u, v), w in base.survival.items()],
        start=base.start,
        terminal=base.terminal,
        p_s=base.p_s,
    )
    team = tso.greedy_survivors(g, tso.GreedyConfig(4, oracle="heuristic")).paths
    plans["hex"] = (g, list(team) + [(g.start,)])
    plans["empty"] = (g, [])
    plans["home"] = (g, [(g.start,), (g.start,)])
    return plans


# Trial counts straddle the 1 << 16 chunk: one row, one full chunk, one
# chunk plus a row, and a chunk plus a partial one.
@pytest.mark.parametrize("name, trials", [
    ("ratio-0.5", 20000), ("ratio-0.7", 20000), ("ratio-0.9", 20000), ("ratio-0.5", 65537),
    ("hex", 1), ("hex", 65536), ("hex", 65537), ("hex", 100001),
    ("empty", 1), ("empty", 65537), ("home", 1), ("home", 65537),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_simulate_team_matches_reference_bits(sim_plans, name, trials, seed):
    g, paths = sim_plans[name]
    got = tso.simulate_team(g, paths, trials, seed=seed)
    assert repr(got) == repr(oracles.simulate_team_reference(g, paths, trials, seed=seed))


def test_simulate_team_peak_memory_within_reference(sim_plans):
    # numpy reports its buffers to tracemalloc. The draws are the largest
    # block, so the node-major copies must not be made while they are alive.
    g, paths = sim_plans["ratio-0.5"]
    assert sum(len(p) - 1 for p in paths) >= 70
    peaks = []
    for simulate in (tso.simulate_team, oracles.simulate_team_reference):
        tracemalloc.start()
        try:
            simulate(g, paths, 20000, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def test_simulate_team_rejects_zero_trials(loop5):
    with pytest.raises(ValueError):
        tso.simulate_team(loop5, [(1, 3, 5, 2, 1)], trials=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_team_objective_monotone_in_paths(seed):
    g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(62, seed))
    catalog = oracles.feasible_paths(g)
    rng = np.random.default_rng((63, seed))
    paths = [catalog[int(rng.integers(len(catalog)))] for _ in range(3)]
    values = []
    for q in range(len(paths) + 1):
        j, _ = tso.team_objective(g, paths[:q])
        values.append(j)
    assert values[0] == 0.0
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12
