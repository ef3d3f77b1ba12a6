from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tso
from tso.orienteering import path_reward

import oracles

HEURISTIC_PINS = Path(__file__).parent / "data" / "heuristic-pins.json"


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
    with pytest.raises(ValueError):
        _problem(diamond, edge_rewards={(1, 2): float("nan")})


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


def test_reward_bound_only_prunes(monkeypatch, loop5):
    # The bound runs in the branch and bound, so the catalog is off here.
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
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


def _sparse_digraph(seed):
    """A chain 0 -> ... -> n-1 plus random arcs, so most reverse arcs are missing.

    Every third graph is a depot tour at node 0, which needs a random arc home.
    """
    rng = np.random.default_rng((91, seed))
    n = int(rng.integers(6, 10))
    edges = [(v, v + 1, float(rng.uniform(0.9, 1.0))) for v in range(n - 1)]
    edges += [
        (u, v, float(rng.uniform(0.7, 1.0)))
        for u in range(n) for v in range(n) if u != v and v != u + 1 and rng.uniform() < 0.3
    ]
    return tso.SurvivalGraph(
        node_ids=list(range(n)), priorities={v: 1.0 for v in range(n)}, edges=sorted(edges),
        start=0, terminal=0 if seed % 3 == 2 else n - 1, p_s=0.3,
    )


def _heuristic_cases():
    """(name, graph, rewards): two ratio cells, a hex depot, ten sparse digraphs,
    and three complete digraphs on a loose budget.

    About 40% of the rewards are 0, so local search has free nodes to drop,
    and on the complete digraphs its segment reversal finds gains.
    """
    graphs = [(f"ratio-p{p_s}", tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(0, 0))) for p_s in (0.5, 0.8)]
    graphs.append(("hex-p0.6", tso.hex_instance(p_s=0.6)))
    graphs += [(f"sparse-{seed}", _sparse_digraph(seed)) for seed in range(10)]
    graphs += [(f"complete-{seed}", tso.random_complete_instance(9, 0.5, 1.0, 0.3, seed=(94, seed))) for seed in range(3)]
    for k, (name, g) in enumerate(graphs):
        rng = np.random.default_rng((92, k))
        rewards = {v: float(rng.uniform(0.0, 1.0)) if rng.uniform() < 0.6 else 0.0 for v in g.node_ids}
        yield name, g, rewards


def _heuristic_record(p, seed):
    try:
        res = tso.solve_heuristic(p, seed=seed)
    except tso.InfeasibleInstanceError:
        return {"infeasible": True}
    return {"path": list(res.path), "reward": repr(res.reward), "nodes_expanded": res.nodes_expanded}


def test_heuristic_results_are_pinned():
    # Paths, rewards and candidate counts of the GRASP oracle, recorded before
    # its cost rows and leg cache existed. Seeds 0-2 share one LogGraph per case.
    pins = json.loads(HEURISTIC_PINS.read_text(encoding="utf-8"))
    seen = set()
    for name, g, rewards in _heuristic_cases():
        lg = tso.log_transform(g)
        got = [_heuristic_record(tso.OrienteeringProblem(lg=lg, rewards=rewards), seed) for seed in range(3)]
        assert got == pins[name], name
        seen.add(name)
    assert seen == set(pins)


def test_heuristic_calls_sharing_a_log_graph_match_fresh_ones():
    # The cost rows and legs cached on a LogGraph hold no rewards and no
    # budget, so a call must not depend on which calls ran on it before.
    for seed in range(6):
        g = _sparse_digraph(seed) if seed % 2 else tso.feasible_random_instance(8, 0.4, 1.0, 0.4, seed=(83, seed))
        rng = np.random.default_rng((84, seed))
        shared = tso.log_transform(g)
        for k, budget in enumerate((None, 0.5, 1.2, 0.25)):
            rewards = {v: float(rng.uniform(0.0, 1.0)) for v in g.node_ids}
            kw = dict(rewards=rewards, budget=budget)
            try:
                fresh = tso.solve_heuristic(_problem(g, **kw), seed=k, restarts=16)
            except tso.InfeasibleInstanceError:
                with pytest.raises(tso.InfeasibleInstanceError):
                    tso.solve_heuristic(tso.OrienteeringProblem(lg=shared, **kw), seed=k, restarts=16)
                continue
            again = tso.solve_heuristic(tso.OrienteeringProblem(lg=shared, **kw), seed=k, restarts=16)
            assert (again.path, again.reward, again.nodes_expanded) == (
                fresh.path, fresh.reward, fresh.nodes_expanded), (seed, budget)


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


LEVELS = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def adversarial_cases(draw):
    """Small digraphs with free (survival 1.0) edges, depot tours, tied or all-zero
    rewards, and p_s sometimes exactly the survival product of a walk from the start."""
    n = draw(st.integers(3, 6))
    edges = [
        (u, v, draw(st.sampled_from([1.0, 1.0, 0.9, 0.8, 0.5])))
        for u in range(n) for v in range(n) if u != v and draw(st.booleans())
    ]
    depot = draw(st.booleans())
    p_s = draw(st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]))
    if draw(st.booleans()):
        walk, v = [], 0
        for _ in range(draw(st.integers(1, 3))):
            out = [e for e in edges if e[0] == v]
            if not out:
                break
            e = draw(st.sampled_from(out))
            walk.append(e[2])
            v = e[1]
        p_s = math.prod(walk) if walk else p_s
    g = tso.SurvivalGraph(
        node_ids=list(range(n)), priorities={v: 1.0 for v in range(n)}, edges=edges,
        start=0, terminal=0 if depot else n - 1, p_s=p_s,
    )
    rewards = {v: draw(LEVELS) for v in g.node_ids}
    arcs = {(u, v): draw(LEVELS) for u, v, _ in edges}
    return g, rewards, arcs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(adversarial_cases())
def test_exact_oracles_on_adversarial_graphs(case):
    # The catalog, the branch and bound with and without its reward bound,
    # and brute force agree on the path and on the reward's bits.
    g, rewards, arcs = case
    for solve, kw, brute in (
        (tso.solve_exact, dict(rewards=rewards), oracles.orienteering_brute(g, rewards)),
        (tso.solve_arc_exact, dict(edge_rewards=arcs), oracles.arc_orienteering_brute(g, arcs)),
    ):
        best, maximizers = brute
        p = _problem(g, **kw)
        try:
            fast = solve(p)
        except tso.InfeasibleInstanceError:
            assert g.start != g.terminal and not maximizers
            with pytest.raises(tso.InfeasibleInstanceError):
                solve(p, use_reward_bound=False)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tso.orienteering, "CATALOG_CAP", 0)
                with pytest.raises(tso.InfeasibleInstanceError):
                    solve(_problem(g, **kw))
            continue
        assert fast.nodes_expanded == _catalog(p).prefixes
        slow = solve(p, use_reward_bound=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tso.orienteering, "CATALOG_CAP", 0)
            bounded = solve(_problem(g, **kw))
        for other in (slow, bounded):
            assert (fast.path, repr(fast.reward)) == (other.path, repr(other.reward)), solve.__name__
        assert fast.nodes_expanded == slow.nodes_expanded
        assert bounded.nodes_expanded <= slow.nodes_expanded
        if fast.path == (g.start,):
            # A depot robot stays home only when no tour collects anything.
            assert g.start == g.terminal and fast.reward == 0.0 and best <= 1e-12
        else:
            assert fast.reward == pytest.approx(best, abs=1e-12)
            assert fast.path in maximizers


def _catalog(p):
    return p.lg._catalog_cache[(p.start, p.terminal, p.budget)]


def test_catalog_over_its_cap_falls_back_to_branch_and_bound(monkeypatch):
    g = tso.feasible_random_instance(8, 0.5, 1.0, 0.3, seed=(85, 0))
    nodes, arcs = _random_rewards(g, np.random.default_rng(86))

    def run(cap):
        monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", cap)
        lg = tso.log_transform(g)
        got = [tso.solve_exact(tso.OrienteeringProblem(lg=lg, rewards=nodes)),
               tso.solve_arc_exact(tso.OrienteeringProblem(lg=lg, edge_rewards=arcs))]
        return [(r.path, repr(r.reward)) for r in got], [r.nodes_expanded for r in got], list(lg._catalog_cache.values())

    answers, counts, (cat,) = run(tso.orienteering.CATALOG_CAP)
    assert counts == [cat.prefixes] * 2 and cat.prefixes > 100
    fits = run(cat.prefixes)
    assert fits[0] == answers and fits[1] == counts and fits[2][0] is not None
    bounded = run(0)
    over = run(cat.prefixes - 1)
    assert over == bounded
    assert over[0] == answers and over[2] == [None]
    assert all(n <= cat.prefixes for n in over[1])
    with pytest.raises(tso.SizeGuardError, match=f"{cat.prefixes - 1} prefixes"):
        tso.enumerate_feasible_paths(g)


def test_calls_sharing_a_log_graph_match_fresh_ones(monkeypatch):
    # The catalogs and search tables cached on a LogGraph hold no rewards, so
    # a call must not depend on which calls ran on that LogGraph before. A
    # catalog is keyed by (start, terminal, budget) and serves node and arc
    # rewards alike; with the catalog off, the branch and bound keeps tables
    # per (terminal, reward kind).
    for cap in (tso.orienteering.CATALOG_CAP, 0):
        monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", cap)
        for seed in range(4):
            g = tso.feasible_random_instance(7, 0.4, 1.0, 0.5, seed=(81, seed))
            rng = np.random.default_rng((82, seed))
            calls = []
            for budget in (None, 0.4, 0.9, 0.2):
                nodes, arcs = _random_rewards(g, rng)
                nodes[g.node_ids[3]] = 0.0
                calls.append((tso.solve_exact, dict(rewards=nodes, budget=budget)))
                calls.append((tso.solve_arc_exact, dict(edge_rewards=arcs, budget=budget)))
            shared = tso.log_transform(g)
            served = set()
            for solve, kw in calls:
                try:
                    fresh = solve(_problem(g, **kw))
                except tso.InfeasibleInstanceError:
                    with pytest.raises(tso.InfeasibleInstanceError):
                        solve(tso.OrienteeringProblem(lg=shared, **kw))
                    continue
                again = solve(tso.OrienteeringProblem(lg=shared, **kw))
                assert (again.path, again.reward, again.nodes_expanded) == (
                    fresh.path, fresh.reward, fresh.nodes_expanded), (seed, solve.__name__, kw["budget"])
                served.add((g.start, g.terminal, shared.budget if kw["budget"] is None else kw["budget"]))
            assert set(shared._catalog_cache) == served
            if cap:
                assert None not in shared._catalog_cache.values()
                assert {key[1] for key in shared._search_cache} <= {"arc"}
            else:
                assert set(shared._catalog_cache.values()) <= {None}
                assert {key[1] for key in shared._search_cache} == {"node", "arc"}


def _count_oracle_nodes(monkeypatch):
    """Record nodes_expanded of every exact-oracle call greedy makes."""
    counts = []
    for name in ("solve_exact", "solve_arc_exact"):
        solve = getattr(tso.greedy, name)

        def counted(p, solve=solve):
            res = solve(p)
            counts.append(res.nodes_expanded)
            return res

        monkeypatch.setattr(tso.greedy, name, counted)
    return counts


def _effort_case(variant):
    if variant == "node":
        return tso.feasible_random_instance(20, 0.3, 1.0, 0.6, seed=(0, 0)), tso.GreedyConfig(5, oversize=30)
    hexg = tso.hex_instance(p_s=0.6)
    table = tso.MultiVisitTable(M=3, d={v: [1.0, 0.6, 0.3] for v in hexg.node_ids})
    g = tso.SurvivalGraph(
        node_ids=hexg.node_ids, priorities=hexg.priorities, edges=hexg.edges,
        start=hexg.start, terminal=hexg.terminal, p_s=hexg.p_s, multi_visit=table,
    )
    return g, tso.GreedyConfig(6, oversize=36, variant=variant)


@pytest.mark.parametrize("variant, calls, total", [
    ("node", 30, 122_588),
    ("edge", 36, 16_020),
    ("multi_visit", 36, 11_666),
])
def test_greedy_search_effort_is_pinned(monkeypatch, variant, calls, total):
    # Totals of the branch and bound over one greedy run per reward kind,
    # with the catalog off; a change to the search order, the bound or its
    # float order moves them.
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    g, cfg = _effort_case(variant)
    counts = _count_oracle_nodes(monkeypatch)
    tso.greedy_survivors(g, cfg)
    assert (len(counts), sum(counts)) == (calls, total)


@pytest.mark.parametrize("variant, calls, prefixes", [
    ("node", 30, 14_451),
    ("edge", 36, 517),
    ("multi_visit", 36, 517),
])
def test_greedy_catalog_effort_is_pinned(monkeypatch, variant, calls, prefixes):
    # The same greedy runs on the catalog: one catalog per run, whose prefix
    # count every call reports, and the branch and bound's paths and gains.
    g, cfg = _effort_case(variant)
    counts = _count_oracle_nodes(monkeypatch)
    run = tso.greedy_survivors(g, cfg)
    assert counts == [prefixes] * calls
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    reference = tso.greedy_survivors(g, cfg)
    assert run.paths == reference.paths
    assert [repr(x) for x in run.gains] == [repr(x) for x in reference.gains]
