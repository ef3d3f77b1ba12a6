from __future__ import annotations

import dataclasses
import gc
import json
import math
import re
import timeit
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tso
from tso import orienteering
from tso.graph import check_path, ordered_sum, tree_path
from tso.orienteering import _base_path, _path_cost, path_reward

import oracles

HEURISTIC_PINS = Path(__file__).parent / "data" / "heuristic-pins.json"


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


def _reference(solve, lg, **kw):
    """The recursive branch and bound of oracles, unbounded, for the oracle solve and its one reward dict kw."""
    (rewards,) = kw.values()
    return oracles.branch_and_bound(lg, rewards, "node" if solve is tso.solve_exact else "arc")


def _random_rewards(g, rng):
    """Node rewards on every node and arc rewards on every arc, arcs into the start included."""
    nodes = {v: float(rng.uniform(0.0, 1.0)) for v in g.node_ids}
    arcs = {(u, v): float(rng.uniform(0.0, 1.0)) for u, v, _ in g.edges}
    return nodes, arcs


def test_rejects_bad_rewards(diamond):
    lg = tso.log_transform(diamond)
    with pytest.raises(ValueError):
        tso.solve_exact(lg, {2: -1.0})
    with pytest.raises(ValueError):
        tso.solve_arc_exact(lg, {(4, 1): 1.0})
    # Keys that are no arc at all: a node, and an arc with a third entry.
    for key in (2, (1, 2, 5)):
        with pytest.raises(ValueError, match=re.escape(f"reward on missing edge {key}")):
            tso.solve_arc_exact(lg, {key: 9.0})
    with pytest.raises(ValueError):
        tso.solve_arc_exact(lg, {(1, 2): -0.5})
    with pytest.raises(ValueError):
        tso.solve_arc_exact(lg, {(1, 2): float("nan")})


def _as_arrays(lg, nodes, arcs):
    """The reward dicts as the arrays greedy's models hand the oracles: by node index, and in _Steps.arcs order."""
    return (np.array([nodes.get(v, 0.0) for v in lg.graph.node_ids]),
            np.array([arcs.get(e, 0.0) for e in lg.table(orienteering._Steps).arcs]))


@pytest.mark.parametrize("cap", [orienteering.CATALOG_CAP, 0])
def test_reward_arrays_give_what_reward_dicts_give(monkeypatch, cap):
    # Rewards from {0.0, 0.5, 1.0} tie many paths. Each oracle must return
    # the same path, float bits and effort for a dict and for its array, on
    # open and depot graphs, with the catalog and with the bounded search.
    monkeypatch.setattr(orienteering, "CATALOG_CAP", cap)
    ties = 0
    for seed in range(6):
        g = tso.feasible_random_instance(7, 0.4, 1.0, 0.5, seed=(90, seed))
        if seed % 2:
            g = dataclasses.replace(g, terminal=g.start)
        rng = np.random.default_rng((91, seed))
        for _draw in range(2):
            nodes = {v: float(rng.choice([0.0, 0.5, 1.0])) for v in g.node_ids}
            arcs = {(u, v): float(rng.choice([0.0, 0.5, 1.0])) for u, v, _ in g.edges}
            lg = tso.log_transform(g)
            node_arr, arc_arr = _as_arrays(lg, nodes, arcs)
            for solve, rewards, array in (
                (tso.solve_exact, nodes, node_arr),
                (tso.solve_arc_exact, arcs, arc_arr),
                (tso.solve_heuristic, nodes, node_arr),
            ):
                by_dict, by_array = solve(lg, rewards), solve(tso.log_transform(g), array)
                assert (by_array.path, repr(by_array.reward), by_array.nodes_expanded) == (
                    by_dict.path, repr(by_dict.reward), by_dict.nodes_expanded), (seed, solve.__name__)
            paths = oracles.feasible_paths(g)
            sums = [ordered_sum(nodes[v] for v in path[1:]) for path in paths]
            ties += sums.count(max(sums, default=None)) > 1
    assert ties >= 6


@pytest.mark.parametrize("cap", [orienteering.CATALOG_CAP, 0])
def test_bad_reward_arrays_are_refused_as_bad_dicts_are(monkeypatch, diamond, cap):
    # An array is checked whole, and its first bad entry is named as _check
    # names a dict's: node 3, or arc (1, 4), the third of each. -0.0 passes,
    # as it does in a dict.
    monkeypatch.setattr(orienteering, "CATALOG_CAP", cap)
    lg = tso.log_transform(diamond)
    arcs = lg.table(orienteering._Steps).arcs
    for solve, keys in ((tso.solve_exact, diamond.node_ids), (tso.solve_heuristic, diamond.node_ids),
                        (tso.solve_arc_exact, arcs)):
        for bad in (math.nan, math.inf, -math.inf, -1.0, -5e-324):
            array = np.full(len(keys), 0.5)
            array[2:] = bad
            with pytest.raises(ValueError) as by_dict:
                solve(lg, {keys[2]: bad, keys[-1]: bad})
            with pytest.raises(ValueError, match=re.escape(str(by_dict.value))):
                solve(lg, array)
            assert str(by_dict.value).startswith("negative, infinite or NaN reward on ")
        zero = {k: -0.0 for k in keys}
        got, want = solve(lg, np.full(len(keys), -0.0)), solve(lg, zero)
        assert (got.path, repr(got.reward)) == (want.path, repr(want.reward))


def test_reward_arrays_of_another_length_are_refused(diamond):
    lg = tso.log_transform(diamond)
    for solve, n, kind in ((tso.solve_exact, 4, "node"), (tso.solve_heuristic, 4, "node"), (tso.solve_arc_exact, 5, "edge")):
        for wrong in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)), np.zeros(0), np.float64(1.0)):
            with pytest.raises(ValueError, match=re.escape(f"{kind} rewards of shape {np.shape(wrong)}, expected ({n},)")):
                solve(lg, wrong)


def test_empty_arc_array_on_a_graph_without_arcs():
    # No arc, so no path: the open graph is infeasible, and the depot robot
    # stays home, for an empty array as for an empty dict.
    for terminal in (2, 1):
        g = tso.SurvivalGraph(node_ids=[1, 2], priorities={1: 1.0, 2: 1.0}, edges=[], start=1, terminal=terminal, p_s=0.5)
        for rewards in ({}, np.zeros(0)):
            if terminal == 2:
                with pytest.raises(tso.InfeasibleInstanceError):
                    tso.solve_arc_exact(tso.log_transform(g), rewards)
            else:
                res = tso.solve_arc_exact(tso.log_transform(g), rewards)
                assert (res.path, repr(res.reward), res.nodes_expanded) == ((1,), "0.0", 1)


def test_reward_on_unknown_node_is_refused(diamond):
    for solve in (tso.solve_exact, tso.solve_heuristic):
        with pytest.raises(ValueError, match="reward on unknown node 9"):
            solve(tso.log_transform(diamond), {2: 1.0, 9: 1.0})


@pytest.mark.parametrize("cap", [orienteering.CATALOG_CAP, 0])
def test_infinite_rewards_are_refused_on_both_sides_of_the_cap(monkeypatch, diamond, cap):
    # Node 3 and arc (1, 3) lie on no feasible path. An inf there would give
    # (1, 2, 4) from the catalog, but 0 * inf = NaN in the bounded search's
    # reward bound, which then finds no path. The largest finite reward
    # there gives (1, 2, 4) on both sides.
    monkeypatch.setattr(orienteering, "CATALOG_CAP", cap)
    for solve, key, what, other in (
        (tso.solve_exact, 3, "node 3", {2: 1.0}),
        (tso.solve_arc_exact, (1, 3), "edge (1, 3)", {(1, 2): 1.0}),
    ):
        field = "rewards" if solve is tso.solve_exact else "edge_rewards"
        for r in (math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"negative, infinite or NaN reward on {re.escape(what)}"):
                solve(tso.log_transform(diamond), **{field: {**other, key: r}})
        res = solve(tso.log_transform(diamond), **{field: {**other, key: 1.7976931348623157e308}})
        assert (res.path, res.reward) == ((1, 2, 4), 1.0)


def test_diamond_visit_probability_rewards(diamond):
    lg = tso.log_transform(diamond)
    zeta = tso.max_visit_probabilities(lg)
    rewards = {v: zeta[v] * diamond.priority(v) for v in diamond.node_ids if v != diamond.start}
    res = tso.solve_exact(lg, rewards)
    assert res.path == (1, 2, 4)
    assert res.reward == pytest.approx(1.9, abs=1e-12)


def test_exact_matches_enumeration_on_randoms():
    for seed in range(12):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(70, seed))
        rng = np.random.default_rng((71, seed))
        rewards = {v: float(rng.uniform(0.0, 1.0)) for v in g.node_ids}
        res = tso.solve_exact(tso.log_transform(g), rewards)
        best, maximizers = oracles.orienteering_brute(g, rewards)
        assert res.reward == pytest.approx(best, abs=1e-12)
        assert res.path in maximizers


def test_exact_breaks_ties_toward_smallest_path():
    # Equal weights and unit rewards: (0,1,4), (0,2,4), (0,3,4) all collect 2.
    g = tso.random_complete_instance(5, 0.9, 0.9, 0.75, seed=0)
    rewards = {v: 1.0 for v in g.node_ids}
    res = tso.solve_exact(tso.log_transform(g), rewards)
    best, maximizers = oracles.orienteering_brute(g, rewards)
    assert res.reward == pytest.approx(best, abs=1e-12)
    assert res.path == (0, 1, 4)
    assert res.path == min(maximizers)


@pytest.mark.parametrize("s, b, c, d, t, node_ids, deep", [
    # Index order is id order; (s, b, c, t) is the smaller sequence.
    (0, 1, 2, 3, 4, [0, 1, 2, 3, 4], True),
    # d comes before b by index but after it by id: (s, d, t) is smaller.
    (0, 1, 2, 3, 4, [0, 3, 1, 2, 4], False),
    # b comes before d by index but after it by id: (s, b, c, t) is smaller.
    (0, 3, 2, 1, 4, [0, 3, 2, 1, 4], True),
])
def test_equal_rewards_at_two_depths_go_to_the_smaller_index_sequence(s, b, c, d, t, node_ids, deep):
    # (s, d, t) and (s, b, c, t) collect the same float, 0.75 = 0.25 + 0.5, by
    # node and by arc rewards. The search keeps the first of them in DFS
    # order, the smaller node-index sequence, whichever depth it ends at.
    edges = [(s, b, 0.9), (b, c, 0.9), (c, t, 0.9), (s, d, 0.9), (d, t, 0.9)]
    g = tso.SurvivalGraph(node_ids=node_ids, priorities={v: 1.0 for v in node_ids}, edges=edges,
                          start=s, terminal=t, p_s=0.5)
    expected = (s, b, c, t) if deep else (s, d, t)
    for solve, kw in (
        (tso.solve_exact, dict(rewards={b: 0.25, c: 0.5, d: 0.75})),
        (tso.solve_arc_exact, dict(edge_rewards={(s, b): 0.25, (b, c): 0.5, (s, d): 0.75})),
    ):
        got = solve(tso.log_transform(g), **kw)
        reference = _reference(solve, tso.log_transform(g), **kw)
        assert (got.path, repr(got.reward)) == (reference.path, repr(reference.reward)) == (expected, "0.75")


def test_reward_bound_only_prunes(monkeypatch, loop5):
    # The bound runs in the bounded search, so the catalog is off here.
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    graphs = [tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(72, seed)) for seed in range(6)]
    graphs += _depot_graphs(loop5, 79, 6)
    for seed, g in enumerate(graphs):
        rewards, arc_rewards = _random_rewards(g, np.random.default_rng((73, seed)))
        for solve, kw in ((tso.solve_exact, dict(rewards=rewards)), (tso.solve_arc_exact, dict(edge_rewards=arc_rewards))):
            lg = tso.log_transform(g)
            fast = solve(lg, **kw)
            slow = _reference(solve, lg, **kw)
            assert fast.path == slow.path, (seed, solve.__name__)
            assert fast.reward == slow.reward
            assert fast.nodes_expanded <= slow.nodes_expanded


def test_zero_cost_edge_survives_zero_budget(diamond):
    res = tso.solve_exact(tso.log_transform(dataclasses.replace(diamond, p_s=1.0)), {4: 1.0})
    assert res.path == (1, 4)
    assert res.reward == pytest.approx(1.0, abs=0.0)


def test_all_zero_rewards_still_feasible(diamond):
    res = tso.solve_exact(tso.log_transform(diamond), {})
    assert res.reward == 0.0
    tso.visit_profile(diamond, res.path)
    assert res.path[0] == 1 and res.path[-1] == 4


def test_infeasible_instance_raises(monkeypatch):
    # The cheapest start-terminal path exceeds the budget, directly or via
    # node 3: the catalog has no leaf, and the bounded search and the
    # reference no incumbent.
    direct = tso.SurvivalGraph(
        node_ids=[1, 2],
        priorities={1: 1.0, 2: 1.0},
        edges=[(1, 2, 0.5)],
        start=1,
        terminal=2,
        p_s=0.9,
    )
    via = dataclasses.replace(
        direct, node_ids=[1, 2, 3], priorities={1: 1.0, 2: 1.0, 3: 1.0},
        edges=[(1, 2, 0.5), (1, 3, 0.8), (3, 2, 0.95)],
    )
    message = "no start-terminal path within the survival budget"
    for g in (direct, via):
        for cap in (orienteering.CATALOG_CAP, 0):
            monkeypatch.setattr(orienteering, "CATALOG_CAP", cap)
            for solve, kw in (
                (tso.solve_exact, dict(rewards={v: 1.0 for v in g.node_ids[1:]})),
                (tso.solve_arc_exact, dict(edge_rewards={(1, 2): 1.0})),
            ):
                for run in (solve, lambda lg, solve=solve, **kw: _reference(solve, lg, **kw)):
                    with pytest.raises(tso.InfeasibleInstanceError, match=message):
                        run(tso.log_transform(g), **kw)
        with pytest.raises(tso.InfeasibleInstanceError, match=message):
            tso.solve_heuristic(tso.log_transform(g), {2: 1.0})


def test_depot_with_no_affordable_tour_stays_home(monkeypatch, loop5):
    for cap in (orienteering.CATALOG_CAP, 0):
        monkeypatch.setattr(orienteering, "CATALOG_CAP", cap)
        res = tso.solve_exact(tso.log_transform(dataclasses.replace(loop5, p_s=1.0)), {5: 1.0})
        assert res.path == (1,), cap
        assert res.reward == 0.0


def test_depot_with_affordable_tours_and_zero_rewards_stays_home(monkeypatch, loop5):
    # Three tours fit, but each collects 0.0, no more than staying home,
    # which comes first: both engines keep the robot at the depot.
    assert len(tso.enumerate_feasible_paths(loop5, max_nodes=5)) == 3
    for cap in (orienteering.CATALOG_CAP, 0):
        monkeypatch.setattr(orienteering, "CATALOG_CAP", cap)
        lg = tso.log_transform(loop5)
        for solve, kw in (
            (tso.solve_exact, dict(rewards={v: 0.0 for v in loop5.node_ids})),
            (tso.solve_arc_exact, dict(edge_rewards={(u, v): 0.0 for u, v, _w in loop5.edges})),
        ):
            res = solve(lg, **kw)
            assert (res.path, repr(res.reward)) == ((1,), "0.0"), (cap, solve.__name__)


def test_depot_tour_collects_start_on_return(loop5):
    rewards = {v: 1.0 for v in loop5.node_ids}
    res = tso.solve_exact(tso.log_transform(loop5), rewards)
    assert res.reward == pytest.approx(4.0, abs=1e-12)
    assert res.path == (1, 3, 5, 2, 1)
    assert path_reward(rewards, res.path) == pytest.approx(4.0)


def test_heuristic_at_most_exact_and_deterministic():
    for seed in range(8):
        g = tso.feasible_random_instance(6, 0.4, 1.0, 0.6, seed=(74, seed))
        rng = np.random.default_rng((75, seed))
        rewards = {v: float(rng.uniform(0.0, 1.0)) for v in g.node_ids}
        lg = tso.log_transform(g)
        exact = tso.solve_exact(lg, rewards)
        heur = tso.solve_heuristic(lg, rewards, seed=seed)
        again = tso.solve_heuristic(lg, rewards, seed=seed)
        assert heur.path == again.path
        assert heur.reward == again.reward
        assert heur.reward <= exact.reward + 1e-12
        assert path_reward(rewards, heur.path) == pytest.approx(heur.reward, abs=1e-12)


def test_heuristic_paths_stay_feasible():
    for seed in range(6):
        g = tso.feasible_random_instance(6, 0.4, 1.0, 0.6, seed=(76, seed))
        res = tso.solve_heuristic(tso.log_transform(g), {v: 1.0 for v in g.node_ids}, seed=seed, restarts=8)
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


def _shuffled(g, seed):
    """g with node v renamed 1000 - 7v and node_ids listed in a fixed shuffled order, so index order is not id order."""
    new = {v: 1000 - 7 * v for v in g.node_ids}
    order = np.random.default_rng(seed).permutation(g.num_nodes)
    return tso.SurvivalGraph(
        node_ids=[new[g.node_ids[i]] for i in order], priorities={new[v]: d for v, d in g.priorities.items()},
        edges=[(new[u], new[v], w) for u, v, w in g.edges], start=new[g.start], terminal=new[g.terminal], p_s=g.p_s,
    )


def _heuristic_cases():
    """(name, graph, rewards): two ratio cells, a hex depot, ten sparse digraphs,
    three complete digraphs on a loose budget, 100- and 200-node complete graphs,
    and the hex depot and the first ratio cell with shuffled node ids.

    About 40% of the rewards are 0, so local search has free nodes to drop,
    and on the complete digraphs its segment reversal finds gains. Hex's
    repeated survivals tie many paths, and its shuffled copy lists the nodes
    in another order, so every search there pops tied nodes in the shuffled
    index order; a search that broke ties by node id would take other legs.
    """
    graphs = [(f"ratio-p{p_s}", tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(0, 0))) for p_s in (0.5, 0.8)]
    graphs.append(("hex-p0.6", tso.hex_instance(p_s=0.6)))
    graphs += [(f"sparse-{seed}", _sparse_digraph(seed)) for seed in range(10)]
    graphs += [(f"complete-{seed}", tso.random_complete_instance(9, 0.5, 1.0, 0.3, seed=(94, seed))) for seed in range(3)]
    graphs += [(f"complete-{n}", tso.feasible_random_instance(n, 0.3, 1.0, 0.7, seed=(1, 0))) for n in (100, 200)]
    graphs += [(f"{name}-shuffled", _shuffled(g, k)) for k, (name, g) in enumerate([graphs[2], graphs[0]])]
    for k, (name, g) in enumerate(graphs):
        rng = np.random.default_rng((92, k))
        rewards = {v: float(rng.uniform(0.0, 1.0)) if rng.uniform() < 0.6 else 0.0 for v in g.node_ids}
        yield name, g, rewards


def _heuristic_record(lg, rewards, seed):
    try:
        res = tso.solve_heuristic(lg, rewards, seed=seed)
    except tso.InfeasibleInstanceError:
        return {"infeasible": True}
    return {"path": list(res.path), "reward": repr(res.reward), "nodes_expanded": res.nodes_expanded}


def test_heuristic_results_are_pinned():
    # Paths, rewards and candidate counts of the GRASP oracle, recorded before
    # its cost rows and leg cache existed; complete-100 was recorded before
    # its scans read arcs cheapest first, complete-200 before its legs read
    # per-source trees. Seeds 0-2 share one LogGraph per case.
    pins = json.loads(HEURISTIC_PINS.read_text(encoding="utf-8"))
    seen = set()
    for name, g, rewards in _heuristic_cases():
        lg = tso.log_transform(g)
        got = [_heuristic_record(lg, rewards, seed) for seed in range(3)]
        assert got == pins[name], name
        seen.add(name)
    assert seen == set(pins)


def test_heuristic_calls_sharing_a_log_graph_match_fresh_ones():
    # The cost rows and legs cached on a LogGraph hold no rewards, so a call
    # must not depend on which calls ran on it before. The rewards vary on
    # one LogGraph per budget; the budget varies across fresh graphs.
    for seed in range(6):
        base = _sparse_digraph(seed) if seed % 2 else tso.feasible_random_instance(8, 0.4, 1.0, 0.4, seed=(83, seed))
        rng = np.random.default_rng((84, seed))
        for k, p_s in enumerate((base.p_s, math.exp(-0.5), math.exp(-1.2), math.exp(-0.25))):
            g = dataclasses.replace(base, p_s=p_s)
            shared = tso.log_transform(g)
            for call in range(2):
                rewards = {v: float(rng.uniform(0.0, 1.0)) for v in g.node_ids}
                try:
                    fresh = tso.solve_heuristic(tso.log_transform(g), rewards, seed=k + call, restarts=16)
                except tso.InfeasibleInstanceError:
                    with pytest.raises(tso.InfeasibleInstanceError):
                        tso.solve_heuristic(shared, rewards, seed=k + call, restarts=16)
                    continue
                again = tso.solve_heuristic(shared, rewards, seed=k + call, restarts=16)
                assert (again.path, again.reward, again.nodes_expanded) == (
                    fresh.path, fresh.reward, fresh.nodes_expanded), (seed, p_s, call)


def _counted_heuristic_call(monkeypatch, p_s, name):
    """(result, calls of orienteering.<name>) of one 64-restart seed-0 call on a ratio graph with every reward 1.0."""
    g = tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(0, 0))
    calls = []
    inner = getattr(orienteering, name)

    def counted(*args):
        calls.append(name)
        return inner(*args)

    monkeypatch.setattr(orienteering, name, counted)
    res = tso.solve_heuristic(tso.log_transform(g), {v: 1.0 for v in g.node_ids}, seed=0, restarts=64)
    return res, len(calls)


@pytest.mark.parametrize("p_s, searches, path, reward, expanded", [
    (0.8, 10, [0, 10, 4, 1, 8, 12, 14, 19], "7.0", 150),
    (0.95, 1, [0, 19], "1.0", 0),
])
def test_restarts_reaching_one_state_share_its_local_search(monkeypatch, p_s, searches, path, reward, expanded):
    # On a tight budget most of the 64 restarts end in a (path, cost) that an
    # earlier restart of the call ended in, and local search runs once per
    # distinct end state. The result was recorded before the memo existed.
    res, calls = _counted_heuristic_call(monkeypatch, p_s, "_local_search")
    assert calls == searches
    assert (list(res.path), repr(res.reward), res.nodes_expanded) == (path, reward, expanded)


def _row_builds(lg):
    """Candidate rows _random_skeleton built on lg: once at a trie node whose row is False, twice at a tuple."""
    builds, stack = 0, [lg.table(orienteering._trie)]
    while stack:
        node = stack.pop()
        builds += 0 if node.row is None else 1 if node.row is False else 2
        stack += [kid for kid in node.kids.values() if kid is not None]
    return builds


def test_random_skeleton_stops_at_an_empty_candidate_row():
    # At p_s 0.95 no waypoint is affordable from the start, so each of the 63
    # skeleton restarts reads the start's empty row once and stops.
    g = tso.feasible_random_instance(20, 0.3, 1.0, 0.95, seed=(0, 0))
    lg = tso.log_transform(g)
    res = tso.solve_heuristic(lg, {v: 1.0 for v in g.node_ids}, seed=0, restarts=64)
    assert _row_builds(lg) <= 63
    assert not lg.table(orienteering._trie).kids
    assert (list(res.path), res.nodes_expanded) == ([0, 19], 0)


def _skeleton_graphs():
    """(name, graph): ratio draws from loose to tight, sparse digraphs, and hex as a depot tour and open."""
    for i in range(2):
        for p_s in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95):
            yield f"ratio-{i}-{p_s}", tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(0, i))
    for seed in range(6):
        yield f"sparse-{seed}", _sparse_digraph(seed)
    for p_s in (0.5, 0.7, 0.9):
        hexg = tso.hex_instance(p_s=p_s)
        yield f"hex-depot-{p_s}", hexg
        yield f"hex-open-{p_s}", dataclasses.replace(hexg, terminal=14)


def test_skeleton_trie_matches_the_reference_walk():
    # The walk down the trie kept on a LogGraph against the walk that
    # recomputed every state. Per graph, one LogGraph and one generator
    # serve 80 calls at hops 1-16, as the restarts of several solve_heuristic
    # calls do; the reference runs on its own LogGraph with an equal
    # generator. Skeleton, cost bits and the generator's state must agree
    # after every call, and over all graphs the trie must hold rejected
    # draws, closings that backtrack, and walks that end at the start.
    seen = {"rejected": 0, "backtracked": 0, "none": 0}
    for k, (name, g) in enumerate(_skeleton_graphs()):
        shared, own = tso.log_transform(g), tso.log_transform(g)
        a, b = np.random.default_rng((99, k)), np.random.default_rng((99, k))
        for call in range(80):
            hops = 1 + (call * 7) % 16
            want = oracles.random_skeleton(own, a, hops)
            got = orienteering._random_skeleton(shared, b, hops)
            assert (got is None) == (want is None), (name, call)
            if got is not None:
                assert ([g.node_ids[i] for i in got[0]], repr(got[1])) == (want[0], repr(want[1])), (name, call)
            assert b.bit_generator.state == a.bit_generator.state, (name, call)
        stack = [(shared.table(orienteering._trie), 0)]
        while stack:
            node, length = stack.pop()
            length += len(node.leg)
            seen["rejected"] += sum(kid is None for kid in node.kids.values())
            seen["backtracked"] += bool(node.end) and node.end[0] < length
            seen["none"] += node.end == ()
            stack += [(kid, length) for kid in node.kids.values() if kid is not None]
    assert all(seen.values()), seen


def test_skeleton_trie_on_the_draw_source_matches_the_generator_walk():
    # solve_heuristic's walks draw from _Draws; the reference walk draws
    # from default_rng with the same seed. Skeleton, cost bits and one
    # probe draw from each source after every call must agree, so both
    # sources stay in step whatever the walks drew.
    for k, (name, g) in enumerate(_skeleton_graphs()):
        shared, own = tso.log_transform(g), tso.log_transform(g)
        a, b = np.random.default_rng((98, k)), orienteering._Draws((98, k))
        for call in range(40):
            hops = 1 + (call * 5) % 16
            want = oracles.random_skeleton(own, a, hops)
            got = orienteering._random_skeleton(shared, b, hops)
            assert (got is None) == (want is None), (name, call)
            if got is not None:
                assert ([g.node_ids[i] for i in got[0]], repr(got[1])) == (want[0], repr(want[1])), (name, call)
            n = 2 + call * 7919
            assert b.integers(n) == int(a.integers(n)), (name, call)


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, (1, 0), (5, 3)])
def test_draws_match_generator_integers(seed):
    # _Draws reproduces numpy's 32-bit Lemire path of Generator.integers:
    # int and tuple seeds, n == 1 (no half read), small n, n whose
    # rejection zone is large (3 * 2**30 rejects a quarter of the halves)
    # and n == 2**32 (the raw half), interleaved, over more draws than one
    # batch of 512 halves holds.
    sizes = [1, 2, 3, 5, 20, 63, 1000, 3 << 30, (1 << 31) + 1, (1 << 32) - 1, 1 << 32]
    want, got = np.random.default_rng(seed), orienteering._Draws(seed)
    order = np.random.default_rng(11)
    for i in range(3000):
        n = sizes[i % len(sizes)] if i < 2 * len(sizes) else int(order.choice(sizes))
        x = got.integers(n)
        assert type(x) is int
        assert x == int(want.integers(n)), (i, n)
        if n == 1:
            # No half was read: the next draw still matches.
            assert got.integers(1 << 32) == int(want.integers(1 << 32)), i


@pytest.mark.parametrize("n", [0, -3, (1 << 32) + 1, 1 << 40])
def test_draws_refuse_n_outside_the_32_bit_path(n):
    draws = orienteering._Draws(0)
    with pytest.raises(ValueError):
        draws.integers(n)
    if n < 1:
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(n)


def test_one_skeleton_trie_serves_a_greedy_run(monkeypatch):
    # The K=5 GRASP greedy run on the seed-0 ratio graph at p_s 0.8 makes 5
    # calls of 63 skeleton walks each, on one LogGraph. Walks repeat states
    # across calls, so the trie answers most candidate rows and legs; the
    # reward-dependent work does not move. Before the trie the run built
    # 1,216 candidate rows and made 2,205 _leg_avoiding calls. Of the 282
    # legs asked for now, 155 miss their source trees and run the banned
    # search. The 50 local searches scan 8 distinct paths for a reversal;
    # without the LogGraph's reversal table they made 58 scans.
    calls = {name: 0 for name in ("_leg_avoiding", "search", "_insertions", "_local_search", "_reversal")}
    for name in calls:
        inner = getattr(orienteering, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(orienteering, name, counted)
    g = tso.feasible_random_instance(20, 0.3, 1.0, 0.8, seed=(0, 0))
    run = tso.greedy_survivors(g, tso.GreedyConfig(5, oracle="heuristic"))
    assert calls == {"_leg_avoiding": 282, "search": 155, "_insertions": 78, "_local_search": 50, "_reversal": 8}
    assert _row_builds(run.lg) == 154
    assert repr(run.plan.objective) == "10.806457809382373"


def test_a_dropped_log_graph_frees_its_skeleton_trie_without_the_collector():
    # Trie nodes point only to their kids. With parent pointers each node
    # made a cycle, and every op's trie waited for the cycle collector: the
    # benchmark's peak RSS rose by 2 MB. No other table on the LogGraph
    # points back to it either: the catalog, its _Steps, the cost-sorted
    # rows, the trees, GRASP's cost matrix, detour lists and reversal
    # results, and the bounded search's distance table.
    g = tso.feasible_random_instance(20, 0.3, 1.0, 0.8, seed=(0, 0))
    rewards = {v: 1.0 for v in g.node_ids}

    def bounded_search(lg):
        st = lg.table(orienteering._Steps)
        return orienteering._bounded_search(lg, np.ones(g.num_nodes), np.ones(len(st.arcs) + 1), True, -math.inf, None)

    # The first bounded search of a process leaves numpy's one-time cyclic
    # garbage (signature parsing), which is not the LogGraph's.
    bounded_search(tso.log_transform(g))
    gc.collect()
    gc.disable()
    try:
        lg = tso.log_transform(g)
        tso.solve_heuristic(lg, rewards, seed=0)
        assert lg.table(orienteering._trie).kids
        # The detour table is a flat list, None where no list was built.
        assert any(lg.table(orienteering._detours)) and lg.table(orienteering._reversals)
        assert lg._tables[orienteering._matrix] and lg._tables[orienteering._rows] and lg._from_trees and lg._to_trees
        tso.solve_exact(lg, rewards)
        bounded_search(lg)
        assert lg._tables[orienteering.prefix_catalog] is not None
        assert lg._tables[orienteering._within] is not None
        del lg
        assert gc.collect() == 0
    finally:
        gc.enable()


def _scan_graphs():
    """(name, graph): complete and sparse digraphs, depot tours, arcs of survival
    1.0 (cost -0.0), and arc costs drawn from four values, so many tie."""
    for seed in range(3):
        g = tso.random_complete_instance(8, 0.4, 1.0, 0.3, seed=(95, seed))
        yield f"complete-{seed}", g
        yield f"complete-depot-{seed}", dataclasses.replace(g, terminal=g.start)
    for seed in range(6):
        yield f"sparse-{seed}", _sparse_digraph(seed)
    for seed in range(4):
        rng = np.random.default_rng((96, seed))
        n = 8
        edges = [
            (u, v, float(rng.choice([0.6, 0.8, 0.9, 1.0])))
            for u in range(n) for v in range(n) if u != v and rng.uniform() < 0.7
        ]
        edges += [(v, v + 1, 1.0) for v in range(n - 1) if not any(e[:2] == (v, v + 1) for e in edges)]
        yield f"ties-{seed}", tso.SurvivalGraph(
            node_ids=list(range(n)), priorities={v: 1.0 for v in range(n)}, edges=sorted(edges),
            start=0, terminal=0 if seed % 2 else n - 1, p_s=0.35,
        )


def _leg_verdict(g, leg, cost, extra):
    """The leg if it fits at cost, else None."""
    limit = -math.log(g.p_s) + oracles.BUDGET_TOL
    return leg if leg is not None and cost + leg[1] + extra <= limit else None


def _rank_key(g, rewards):
    """GRASP's insertion rank: reward per added cost, highest first, then delta, node index and position."""
    return lambda t: (-(rewards.get(t[0], 0.0) / max(t[2], 1e-12)), t[2], g.index[t[0]], t[1])


def test_scans_match_their_full_scan_references(monkeypatch):
    # Every insertion list and leg GRASP asks for while it runs is held
    # against the unbounded scans in oracles: the insertion list equal in
    # content, rank order and float bits, at the caller's cost and at three
    # other costs; each leg equal to the reference's where that fits, and
    # None where it does not.
    orig_insertions, orig_leg = orienteering._insertions, orienteering._leg_avoiding
    seen = {"insertions": 0, "legs": 0, "rejected": 0}

    # GRASP works on node indices; the references on node ids.
    def insertions(lg, rew, path, cost):
        out = orig_insertions(lg, rew, path, cost)
        ids = lg.graph.node_ids
        rewards, walk = dict(zip(ids, rew)), [ids[i] for i in path]
        limit = lg.budget + 1e-9
        for c in (cost, 0.0, 0.5 * (cost + limit), limit):
            got = out if c == cost else orig_insertions(lg, rew, path, c)
            want = oracles.grasp_insertions(lg.graph, rewards, walk, c, set(walk))
            assert repr([(ids[j], i, d) for j, i, d in got]) == repr(sorted(want, key=_rank_key(lg.graph, rewards)))
        seen["insertions"] += len(out)
        return out

    def leg_avoiding(lg, src, dst, banned, cost):
        got = orig_leg(lg, src, dst, banned, cost)
        ids = lg.graph.node_ids
        extra = tso.dijkstra(lg, lg.graph.terminal, reverse=True)[0][ids[dst]]
        want = _leg_verdict(lg.graph, oracles.grasp_leg(lg.graph, ids[src], ids[dst], {ids[i] for i in banned}), cost, extra)
        assert repr(got and (tuple(ids[i] for i in got[0]), got[1])) == repr(want)
        seen["legs"] += 1
        seen["rejected"] += want is None
        return got

    monkeypatch.setattr(orienteering, "_insertions", insertions)
    monkeypatch.setattr(orienteering, "_leg_avoiding", leg_avoiding)
    for k, (name, g) in enumerate(_scan_graphs()):
        rng = np.random.default_rng((97, k))
        rewards = {v: float(rng.uniform(0.0, 1.0)) if rng.uniform() < 0.6 else 0.0 for v in g.node_ids}
        try:
            tso.solve_heuristic(tso.log_transform(g), rewards, seed=k, restarts=24)
        except tso.InfeasibleInstanceError:
            continue
    assert seen["insertions"] > 500 and seen["legs"] > 500 and 0 < seen["rejected"] < seen["legs"], seen


def test_one_insertion_ranking_serves_both_callers(monkeypatch):
    # _insertions ranks once. Its first entry is what _local_search took as
    # max(key=(ratio, -delta, -index)) over the list in (index, position)
    # order, where max keeps the first of equal keys: the smallest position.
    # Its top quarter is what solve_heuristic drew from after its own sort.
    # Rewards from two values and arc costs from four (some -0.0) make the
    # first two entries tie on ratio alone, on ratio and delta, and as one
    # node at two positions.
    orig = orienteering._insertions
    ties = {"ratio": 0, "ratio and delta": 0, "one node": 0}

    def insertions(lg, rew, path, cost):
        got = orig(lg, rew, path, cost)
        g = lg.graph
        # The list over node ids, as the references read it.
        rewards, out = dict(zip(g.node_ids, rew)), [(g.node_ids[j], i, d) for j, i, d in got]
        listed = sorted(out, key=lambda t: (g.index[t[0]], t[1]))

        def ratio(t):
            return rewards.get(t[0], 0.0) / max(t[2], 1e-12)

        if out:
            assert repr(out[0]) == repr(max(listed, key=lambda t: (ratio(t), -t[2], -g.index[t[0]])))
        old = sorted(listed, key=_rank_key(g, rewards))
        top = max(1, (len(out) + 3) // 4)
        assert repr(out[:top]) == repr(old[:top])
        if len(out) > 1 and ratio(out[0]) == ratio(out[1]):
            a, b = out[:2]
            ties["ratio" if a[2] != b[2] else "ratio and delta" if a[0] != b[0] else "one node"] += 1
        return got

    monkeypatch.setattr(orienteering, "_insertions", insertions)
    for k, (name, g) in enumerate(_scan_graphs()):
        rng = np.random.default_rng((99, k))
        rewards = {v: float(rng.choice([0.0, 0.5, 1.0])) for v in g.node_ids}
        try:
            tso.solve_heuristic(tso.log_transform(g), rewards, seed=k, restarts=24)
        except tso.InfeasibleInstanceError:
            continue
    assert all(ties.values()), ties


def test_detour_lists_hold_every_fit_at_cost_zero_sorted_by_delta():
    # After GRASP runs, each detour list kept on the LogGraph is held
    # against its arc's full list: every j with arcs a->j and j->b whose
    # delta = aj + jb - ab fits at cost 0.0, with the bits of that float,
    # sorted by delta. Over all graphs some lists have tied deltas and some
    # arcs have a j that both arcs reach but that fails at cost 0.0.
    seen = {"lists": 0, "tied": 0, "left out": 0}
    for k, (name, g) in enumerate(_scan_graphs()):
        lg = tso.log_transform(g)
        try:
            tso.solve_heuristic(lg, {v: 1.0 for v in g.node_ids}, seed=k, restarts=24)
        except tso.InfeasibleInstanceError:
            continue
        costs, ids = oracles.arc_costs(lg), g.node_ids
        # The table is a flat list over node indices, at a * n + b for arc (a, b).
        for k, fits in enumerate(lg.table(orienteering._detours)):
            if fits is None:
                continue
            (a, b), deltas, nodes = (ids[i] for i in divmod(k, len(ids))), fits[0], [ids[j] for j in fits[1]]
            both = {j: costs[a][j] + costs[j][b] - costs[a][b] for j in costs[a] if b in costs[j]}
            want = {j: d for j, d in both.items() if 0.0 + d <= lg.limit}
            assert sorted(nodes) == sorted(want) and len(nodes) == len(deltas), (name, a, b)
            assert [repr(d) for d in deltas] == [repr(want[j]) for j in nodes], (name, a, b)
            assert list(deltas) == sorted(deltas), (name, a, b)
            seen["lists"] += 1
            seen["tied"] += len(set(deltas)) < len(deltas)
            seen["left out"] += len(want) < len(both)
    assert all(seen.values()), seen


def test_local_search_on_a_filled_reversal_table_matches_a_fresh_one(monkeypatch):
    # Three calls with different rewards share one LogGraph per graph, so
    # later local searches read reversals that earlier ones scanned. Each
    # local search is run again on a fresh LogGraph, whose table is empty:
    # path and cost bits must agree, and the shared tables must have saved
    # scans and kept reversals that improve.
    orig = orienteering._local_search
    scans = {"shared": 0, "fresh": 0}

    def local_search(lg, rew, path, cost):
        fresh = tso.log_transform(lg.graph)
        want = orig(fresh, rew, list(path), cost)
        scans["fresh"] += len(fresh.table(orienteering._reversals))
        before = len(lg.table(orienteering._reversals))
        got = orig(lg, rew, path, cost)
        scans["shared"] += len(lg.table(orienteering._reversals)) - before
        assert repr(got) == repr(want)
        return got

    monkeypatch.setattr(orienteering, "_local_search", local_search)
    improving = 0
    for k, (name, g) in enumerate(_scan_graphs()):
        lg = tso.log_transform(g)
        rng = np.random.default_rng((90, k))
        for call in range(3):
            rewards = {v: float(rng.choice([0.0, 0.5, 1.0])) for v in g.node_ids}
            try:
                tso.solve_heuristic(lg, rewards, seed=(k, call), restarts=24)
            except tso.InfeasibleInstanceError:
                break
        improving += sum(rev is not None for rev in lg.table(orienteering._reversals).values())
    assert 0 < scans["shared"] < scans["fresh"] and improving, (scans, improving)


def test_legs_match_the_reference_at_every_cost(monkeypatch):
    # Random queries, each on a fresh LogGraph and again on one shared per
    # graph, at costs from 0 to past the budget. A leg fits with extra =
    # dist_to(terminal)[dst], 0.0 for the closing leg. The reference's leg
    # comes back to the bit where it fits, and None where it does not. On
    # every graph, source trees answer some fresh queries and the banned
    # search the others.
    banned_searches = []
    search = orienteering.search

    def counted(rows, src, dst, *args):
        banned_searches.append(dst is not None)
        return search(rows, src, dst, *args)

    monkeypatch.setattr(orienteering, "search", counted)
    for k, (name, g) in enumerate(_scan_graphs()):
        rng = np.random.default_rng((98, k))
        shared = tso.log_transform(g)
        dist_t = tso.dijkstra(shared, g.terminal, reverse=True)[0]
        limit = shared.budget + 1e-9
        answered = {"tree": 0, "search": 0}
        for _ in range(60):
            src, dst = (g.node_ids[i] for i in rng.choice(len(g.node_ids), 2, replace=False))
            banned = {v for v in g.node_ids if v != src and rng.uniform() < 0.3} | {src}
            cost = float(rng.choice([0.0, -0.0, rng.uniform(0.0, 1.2 * limit)]))
            extra = dist_t[dst]
            ref = oracles.grasp_leg(g, src, dst, banned)
            want = _leg_verdict(g, ref, cost, extra)
            for lg in (tso.log_transform(g), shared):
                banned_searches.clear()
                got = oracles.library_leg(lg, src, dst, banned, cost)
                assert repr(got) == repr(want), (name, src, dst, cost)
                if lg is not shared:
                    answered["search" if any(banned_searches) else "tree"] += 1
        assert answered["tree"] and answered["search"], (name, answered)


def test_banned_leg_is_returned_only_where_it_fits(monkeypatch):
    # A chain 0 -> 1 -> 2 -> 3 of survival 0.9, a detour 0 -> 4 -> 2 of 0.85
    # and a direct 0 -> 3 of 0.5. The tree from 0 reaches 2 through 1, so a
    # query that bans 1 runs the banned search, every time it is asked.
    g = tso.SurvivalGraph(
        node_ids=[0, 1, 2, 3, 4], priorities={v: 1.0 for v in range(5)},
        edges=[(0, 1, 0.9), (0, 3, 0.5), (0, 4, 0.85), (1, 2, 0.9), (2, 3, 0.9), (4, 2, 0.85)],
        start=0, terminal=3, p_s=0.5,
    )
    lg = tso.log_transform(g)
    searches = []
    search = orienteering.search

    def counted(rows, src, dst, *args):
        searches.append(g.node_ids[dst])
        return search(rows, src, dst, *args)

    monkeypatch.setattr(orienteering, "search", counted)
    # cost + leg + dist_to(3)[2] exceeds the budget ln 2 at 0.5 and above; it fits at 0.0.
    leg = ((0, 4, 2), -math.log(0.85) + -math.log(0.85))
    assert tso.dijkstra(lg, 0)[1][2] == 1
    assert oracles.grasp_leg(g, 0, 2, {0, 1, 3}) == leg
    for cost, want in [(0.5, None), (0.6, None), (0.0, leg), (0.9, None), (0.0, leg)]:
        assert oracles.library_leg(lg, 0, 2, {0, 1, 3}, cost) == want, cost
    assert searches == [2] * 5
    # The tree's own leg keeps the contract too, with no search: None where
    # it cannot fit.
    tree_leg = ((0, 1, 2), -math.log(0.9) + -math.log(0.9))
    assert oracles.library_leg(lg, 0, 2, {0, 3}, 0.5) is None
    assert oracles.library_leg(lg, 0, 2, {0, 3}, 0.0) == tree_leg == oracles.grasp_leg(g, 0, 2, {0, 3})
    assert searches == [2] * 5


def _base_path_cases(loop5):
    """(name, graph): ratio draws, hex open and as a depot at two starts, loop5, sparse digraphs."""
    for i in range(3):
        for p_s in (0.5, 0.8):
            yield f"ratio-{i}-{p_s}", tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(0, i))
    hexg = tso.hex_instance(p_s=0.6)
    yield "hex-depot", hexg
    yield "hex-depot-at-3", dataclasses.replace(hexg, start=3, terminal=3)
    for t in (9, 14):
        yield f"hex-open-{t}", dataclasses.replace(hexg, start=0, terminal=t)
    yield "loop5", loop5
    for seed in range(6):
        yield f"sparse-{seed}", _sparse_digraph(seed)


def test_base_path_cost_is_its_path_cost(loop5):
    # GRASP's first skeleton reads the memoized Dijkstra tree of the start,
    # and its cost must be the float _path_cost sums along the path, bit for bit.
    for name, g in _base_path_cases(loop5):
        lg = tso.log_transform(g)
        walk, cost = _base_path(lg)
        assert repr(cost) == repr(_path_cost(lg, walk)), name
        # _base_path and _path_cost work on node indices.
        path = [g.node_ids[i] for i in walk]
        assert path[0] == g.start and path[-1] == g.terminal, name
        if g.start != g.terminal:
            assert path == tree_path(tso.dijkstra(lg, g.start)[1], g.start, g.terminal), name
            continue
        check_path(g, path)
        dist = tso.dijkstra(lg, g.start)[0]
        returns = [dist[v] + w for v, w in oracles.arc_costs(lg, reverse=True)[g.start].items() if v != g.start]
        assert len(path) > 1 and cost == min(returns), name


def test_base_path_tie_between_returns_goes_to_the_first_in_neighbour():
    # Two tours home, 0 -> 1 -> 0 and 0 -> 2 -> 0, cost -ln(0.9) - ln(0.8)
    # in either order, the same float. Node 2 comes before node 1 in
    # node_ids, so its return is the first in-neighbour of the start by index.
    edges = [(0, 1, 0.9), (1, 0, 0.8), (0, 2, 0.8), (2, 0, 0.9)]
    for node_ids, first in (([0, 2, 1], 2), ([0, 1, 2], 1)):
        g = tso.SurvivalGraph(node_ids=node_ids, priorities={}, edges=edges, start=0, terminal=0, p_s=0.5)
        lg = tso.log_transform(g)
        costs = {v: tso.dijkstra(lg, 0)[0][v] + oracles.arc_costs(lg)[v][0] for v in (1, 2)}
        assert costs[1] == costs[2]
        assert _base_path(lg) == ([0, g.index[first], 0], costs[first])
        # A p_s above either tour's survival leaves too tight a budget: the robot stays home.
        tight = tso.log_transform(dataclasses.replace(g, p_s=math.exp(1e-6 - costs[1])))
        assert tight.budget < costs[1]
        assert _base_path(tight) == ([0], 0.0)


def test_arc_exact_matches_enumeration(loop5):
    graphs = [tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(77, seed)) for seed in range(8)]
    graphs += _depot_graphs(loop5, 80, 8)
    tours = 0
    for seed, g in enumerate(graphs):
        rng = np.random.default_rng((78, seed))
        rewards = {(u, v): float(rng.uniform(0.0, 1.0)) for u, v, _ in g.edges}
        lg = tso.log_transform(g)
        res = tso.solve_arc_exact(lg, rewards)
        slow = oracles.branch_and_bound(lg, rewards, "arc")
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
    res = tso.solve_arc_exact(tso.log_transform(diamond), {(1, 2): 1.0})
    assert res.path == (1, 2, 4)
    assert res.reward == pytest.approx(1.0, abs=0.0)


def test_arc_bound_agreement(diamond):
    lg, rewards = tso.log_transform(diamond), {(1, 2): 1.0, (2, 4): 0.5}
    fast = tso.solve_arc_exact(lg, rewards)
    slow = oracles.branch_and_bound(lg, rewards, "arc")
    assert fast.path == slow.path
    assert fast.reward == slow.reward


LEVELS = st.sampled_from([0.0, 0.5, 1.0])
# Rewards whose sums round differently in different orders; with no zeros,
# every step changes the sum.
ULP_LEVELS = st.sampled_from([1e-16, 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52])


@st.composite
def adversarial_cases(draw, levels=LEVELS):
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
    rewards = {v: draw(levels) for v in g.node_ids}
    arcs = {(u, v): draw(levels) for u, v, _ in edges}
    return g, rewards, arcs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(adversarial_cases())
def test_exact_oracles_on_adversarial_graphs(case):
    # The catalog, the bounded search, the recursive reference and brute
    # force agree on the path and on the reward's bits.
    g, rewards, arcs = case
    for solve, kw, brute in (
        (tso.solve_exact, dict(rewards=rewards), oracles.orienteering_brute(g, rewards)),
        (tso.solve_arc_exact, dict(edge_rewards=arcs), oracles.arc_orienteering_brute(g, arcs)),
    ):
        best, maximizers = brute
        lg = tso.log_transform(g)
        try:
            fast = solve(lg, **kw)
        except tso.InfeasibleInstanceError:
            assert g.start != g.terminal and not maximizers
            with pytest.raises(tso.InfeasibleInstanceError):
                _reference(solve, lg, **kw)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tso.orienteering, "CATALOG_CAP", 0)
                with pytest.raises(tso.InfeasibleInstanceError):
                    solve(tso.log_transform(g), **kw)
            continue
        assert fast.nodes_expanded == _catalog(lg).prefixes
        slow = _reference(solve, lg, **kw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tso.orienteering, "CATALOG_CAP", 0)
            bounded = solve(tso.log_transform(g), **kw)
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


def test_reward_bound_keeps_an_ulp_better_path(monkeypatch):
    # In item order the bound at node 2 adds 1e-16 + 1.0 + 1e-16 to 1.0, the
    # incumbent 0 -> 1 -> 2 -> 3 -> 4; in path order 0 -> 2 -> 3 -> 1 -> 4
    # collects 1.0000000000000002.
    g = tso.SurvivalGraph(
        node_ids=list(range(5)), priorities={}, start=0, terminal=4, p_s=0.5,
        edges=[(u, v, 0.99) for u in range(5) for v in range(5) if u != v],
    )
    rewards = {1: 1.0, 2: 1e-16, 3: 1e-16}
    answers = [tso.solve_exact(tso.log_transform(g), rewards)]
    answers += [oracles.branch_and_bound(tso.log_transform(g), rewards, use_reward_bound=b) for b in (False, True)]
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    answers.append(tso.solve_exact(tso.log_transform(g), rewards))
    for res in answers:
        assert (res.path, repr(res.reward)) == ((0, 2, 3, 1, 4), "1.0000000000000002")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(adversarial_cases(ULP_LEVELS))
def test_bounded_search_on_rounding_adversarial_rewards(case):
    # The bounded search returns the unbounded reference's path and bits.
    g, rewards, arcs = case
    for solve, kw in ((tso.solve_exact, dict(rewards=rewards)), (tso.solve_arc_exact, dict(edge_rewards=arcs))):
        try:
            slow = _reference(solve, tso.log_transform(g), **kw)
        except tso.InfeasibleInstanceError:
            continue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tso.orienteering, "CATALOG_CAP", 0)
            bounded = solve(tso.log_transform(g), **kw)
        assert (bounded.path, repr(bounded.reward)) == (slow.path, repr(slow.reward)), solve.__name__
        assert bounded.nodes_expanded <= slow.nodes_expanded


@pytest.mark.parametrize("n, weight_min, p_s, depot", [
    (8, 0.6, 0.3, True),
    (9, 0.8, 0.5, False),
    (10, 0.6, 0.3, False),
])
def test_catalog_ties_at_scale(monkeypatch, n, weight_min, p_s, depot):
    # Thousands of leaves whose rewards come from {0.0, 0.5, 1.0}, half of
    # them 0.0, so many tie at the top, within a depth and across depths.
    # The catalog must pick the search's leaf, the first maximizer in
    # lexicographic order, with the same float. Small tiles cut the leaves
    # into several runs, some of them mixing depths.
    monkeypatch.setattr(orienteering, "_BLOCK", 1000)
    g = tso.random_complete_instance(n, weight_min, 1.0, p_s, seed=(400, n))
    if depot:
        g = dataclasses.replace(g, terminal=g.start)
    lg = tso.log_transform(g)
    paths = tso.enumerate_feasible_paths(g)
    rng = np.random.default_rng((401, n))
    levels, odds = [0.0, 0.5, 1.0], [0.5, 0.25, 0.25]
    most, across = {}, 0
    for _draw in range(3):
        nodes = {v: float(rng.choice(levels, p=odds)) for v in g.node_ids}
        arcs = {(u, v): float(rng.choice(levels, p=odds)) for u, v, _ in g.edges}
        for solve, kw, value in (
            (tso.solve_exact, dict(rewards=nodes), lambda path: ordered_sum(nodes[v] for v in path[1:])),
            (tso.solve_arc_exact, dict(edge_rewards=arcs), lambda path: ordered_sum(arcs[e] for e in zip(path, path[1:]))),
        ):
            got = solve(lg, **kw)
            reference = _reference(solve, tso.log_transform(g), **kw)
            assert (got.path, repr(got.reward)) == (reference.path, repr(reference.reward)), solve.__name__
            sums = [value(path) for path in paths]
            top = max(sums)
            tied = [path for path, r in zip(paths, sums) if r == top]
            assert (got.path, got.reward) == (tied[0], top)
            most[solve] = max(most.get(solve, 0), len(tied))
            across += len({len(path) for path in tied}) > 1
    assert len(paths) >= 2000 and min(most.values()) > 1 and across
    assert len(_catalog(lg).tiles) > 1


def test_all_zero_rewards_tie_every_leaf():
    # On an open path every leaf ties at 0.0, and the search keeps the first
    # leaf in DFS order: the first of paths(). The tie step works on whole
    # rows, so it costs about what the sums do, not a pass over 13k leaves.
    g = tso.random_complete_instance(9, 0.8, 1.0, 0.3, seed=(400, 9))
    lg = tso.log_transform(g)
    for solve in (tso.solve_exact, tso.solve_arc_exact):
        got = solve(lg, {})
        paths = _catalog(lg).paths()
        assert len(paths) >= 10_000
        assert (got.path, repr(got.reward)) == (paths[0], "0.0")
    cat = _catalog(lg)
    # One reward per arc, then the sentinel's 0.0.
    zero, spread = np.zeros(len(cat.arcs) + 1), np.append(np.random.default_rng(402).random(len(cat.arcs)), 0.0)

    def fastest(rew):
        return min(timeit.repeat(lambda: cat.best(rew), number=3, repeat=5))

    assert fastest(zero) < 10 * fastest(spread)


@pytest.mark.parametrize("depot", [False, True])
def test_catalog_ties_within_one_depth_run_and_across_depths(monkeypatch, depot):
    # best() takes the first tied leaf when every tied leaf lies in its depth's
    # run, and compares the first tied leaf of each depth otherwise. A
    # reference that sums every leaf left to right and takes the smallest
    # arc sequence among all tied leaves must agree, to the float, for
    # single maximizers, ties inside one depth and ties across depths.
    monkeypatch.setattr(orienteering, "_BLOCK", 64)
    g = tso.random_complete_instance(6, 0.6, 1.0, 0.4, seed=(404, 6))
    if depot:
        g = dataclasses.replace(g, terminal=g.start)
    cat = tso.log_transform(g).table(orienteering.prefix_catalog)
    leaves = [tuple(k for k in cat._arcs(i) if k < len(cat.arcs)) for i in range(sum(cat.level_leaves))]
    rng = np.random.default_rng(405)
    seen = set()
    for _draw in range(60):
        rew = np.append(rng.choice([0.0, 0.25, 0.5, 1.0], len(cat.arcs)), 0.0)
        sums = [ordered_sum(rew[k] for k in leaf) for leaf in leaves]
        top = max(sums)
        tied = [leaf for leaf, r in zip(leaves, sums) if r == top]
        seen.add("one" if len(tied) == 1 else "depth" if len({len(t) for t in tied}) == 1 else "across")
        got = cat.best(rew)
        assert (repr(got[0]), got[1]) == (repr(float(top)), min(tied))
    assert seen == {"one", "depth", "across"} and len(cat.tiles) > 1


def _ladder(n=11):
    """Forward arcs from each of 0..n-1 to every later node, 0 to n-1: a leaf per set of inner nodes, of 1 to n-1 steps."""
    edges = [(u, v, 1.0 if v == u + 1 else 0.99) for u in range(n) for v in range(u + 1, n)]
    return tso.SurvivalGraph(node_ids=list(range(n)), priorities={}, edges=edges, start=0, terminal=n - 1, p_s=0.5)


@pytest.mark.parametrize("block", [8192, 10, 3])
def test_tile_sums_keep_the_search_floats(monkeypatch, block):
    # The ladder's 512 leaves take 1 to 10 steps. At the default block one
    # tile holds them all, the shorter ones padded with the sentinel; at
    # small blocks the deepest leaf shares a tile of two columns with the
    # next, as no tile has a lone column, which numpy would sum pairwise.
    # Rewards of mixed magnitude (1e-16 next to 1.0) round differently in
    # any other order, so the float tells whether each leaf was summed from
    # 0.0 in path order.
    monkeypatch.setattr(orienteering, "_BLOCK", block)
    g = _ladder()
    lg = tso.log_transform(g)
    rng = np.random.default_rng(405)
    levels = [1e-16, 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52]
    for _draw in range(8):
        nodes = {v: float(rng.choice(levels)) for v in g.node_ids}
        arcs = {(u, v): float(rng.choice(levels)) for u, v, _ in g.edges}
        for solve, kw in ((tso.solve_exact, dict(rewards=nodes)), (tso.solve_arc_exact, dict(edge_rewards=arcs))):
            got = solve(lg, **kw)
            reference = _reference(solve, tso.log_transform(g), **kw)
            assert (got.path, repr(got.reward)) == (reference.path, repr(reference.reward)), solve.__name__
    cat = _catalog(lg)
    first = cat.tiles[0][1]
    assert sum(cat.level_leaves) == 512
    assert min(tile.shape[1] for _lo, tile in cat.tiles) >= 2
    if block == 8192:
        assert len(cat.tiles) == 1 and first.shape == (10, 512) and (first == len(cat.arcs)).any()
    else:
        assert first.shape == (10, 2)


def test_a_single_leaf_catalog_pads_its_tile_with_a_sentinel_column():
    # Ratio draw 0 at p_s = 0.9 has one feasible path, of 3 steps. Its tile
    # is (3, 2): the leaf, then a padding column all sentinel, which scores
    # 0.0 and is never read. The leaf still sums from 0.0 in path order:
    # rewards of mixed magnitude give the reference's float to the bit.
    g = tso.feasible_random_instance(20, 0.3, 1.0, 0.9, seed=(0, 0))
    lg = tso.log_transform(g)
    paths = tso.enumerate_feasible_paths(g, max_nodes=20)
    assert len(paths) == 1
    rng = np.random.default_rng(406)
    levels = [1e-16, 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52]
    for _draw in range(8):
        nodes = {v: float(rng.choice(levels)) for v in g.node_ids}
        arcs = {(u, v): float(rng.choice(levels)) for u, v, _ in g.edges}
        for solve, kw in ((tso.solve_exact, dict(rewards=nodes)), (tso.solve_arc_exact, dict(edge_rewards=arcs))):
            got = solve(lg, **kw)
            reference = _reference(solve, tso.log_transform(g), **kw)
            assert (got.path, repr(got.reward)) == (paths[0], repr(reference.reward)), solve.__name__
    cat = _catalog(lg)
    ((lo, tile),) = cat.tiles
    assert (lo, tile.shape, cat.level_leaves) == (0, (3, 2), [0, 0, 1, 0])
    assert (tile[:, 1] == len(cat.arcs)).all() and (tile[:, 0] < len(cat.arcs)).all()


def test_negative_zero_rewards_sum_to_positive_zero(monkeypatch):
    # Every sum starts at +0.0, so -0.0 rewards leave +0.0, as the search's
    # collected + reward[k] does; every leaf ties, and the first one wins.
    g = _ladder()
    for block in (8192, 3):
        monkeypatch.setattr(orienteering, "_BLOCK", block)
        for solve, kw in (
            (tso.solve_exact, dict(rewards={v: -0.0 for v in g.node_ids})),
            (tso.solve_arc_exact, dict(edge_rewards={(u, v): -0.0 for u, v, _ in g.edges})),
        ):
            got = solve(tso.log_transform(g), **kw)
            assert (got.path, repr(got.reward)) == (tuple(range(11)), "0.0"), (block, solve.__name__)


def _catalog(lg):
    """The one catalog that calls on lg have built."""
    return lg._tables[orienteering.prefix_catalog]


@pytest.mark.parametrize("terminal", [1, 5])
def test_bounded_search_ties_go_to_the_first_index_sequence(monkeypatch, terminal):
    # Chunks do not find leaves in index order: the root's chunk yields the
    # leaf (0, t) before any leaf under (0, a), a < t. With every reward 0.0
    # each bound is 0.0 and equals the incumbent; with equal rewards many
    # paths tie at the top. The search must still return the reference's
    # path, the smallest node-index sequence among the maximizers, and its
    # float: at terminal 5 and all-zero rewards, (0, 1, 2, 3, 4, 5).
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    g = tso.random_complete_instance(6, 0.8, 1.0, 0.5, seed=(403, 0))
    g = dataclasses.replace(g, terminal=terminal)
    cases = [
        (tso.solve_exact, dict(rewards={})),
        (tso.solve_exact, dict(rewards={v: 1.0 for v in g.node_ids})),
        (tso.solve_arc_exact, dict(edge_rewards={})),
        (tso.solve_arc_exact, dict(edge_rewards={(u, v): 0.5 for u, v, _w in g.edges})),
    ]
    for solve, kw in cases:
        got = solve(tso.log_transform(g), **kw)
        reference = _reference(solve, tso.log_transform(g), **kw)
        assert (got.path, repr(got.reward)) == (reference.path, repr(reference.reward)), (solve.__name__, kw)
    first = tso.solve_exact(tso.log_transform(g), {})
    assert (first.path, repr(first.reward)) == ({1: (0, 1), 5: (0, 1, 2, 3, 4, 5)}[terminal], "0.0")


def test_bounded_search_memory(monkeypatch):
    # The search holds its live stack of chunks, each with its prefixes'
    # paths, and drops a chunk once expanded; it keeps nothing per prefix
    # expanded. Greedy's first call here tests 82,662 prefixes' bounds and
    # traced a peak of 1.9 MiB.
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    g = tso.feasible_random_instance(20, 0.3, 1.0, 0.4, seed=(1, 0))
    lg = tso.log_transform(g)
    rewards = tso.greedy.NodeRewards(lg).rewards()
    tracemalloc.start()
    try:
        res = tso.solve_exact(lg, rewards)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.nodes_expanded == 82_662
    assert peak < 3 * 2**20
    # The model's array is by node index; the reference reads a dict by node id.
    reference = oracles.branch_and_bound(lg, dict(zip(g.node_ids, rewards.tolist())))
    assert (res.path, repr(res.reward)) == (reference.path, repr(reference.reward))


def test_catalog_over_its_cap_falls_back_to_branch_and_bound(monkeypatch):
    g = tso.feasible_random_instance(8, 0.5, 1.0, 0.3, seed=(85, 0))
    nodes, arcs = _random_rewards(g, np.random.default_rng(86))

    def run(cap):
        monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", cap)
        lg = tso.log_transform(g)
        got = [tso.solve_exact(lg, nodes), tso.solve_arc_exact(lg, arcs)]
        return [(r.path, repr(r.reward)) for r in got], [r.nodes_expanded for r in got], [lg._tables[orienteering.prefix_catalog]]

    answers, counts, (cat,) = run(tso.orienteering.CATALOG_CAP)
    assert counts == [cat.prefixes] * 2 and cat.prefixes > 100
    fits = run(cat.prefixes)
    assert fits[0] == answers and fits[1] == counts and fits[2][0] is not None
    bounded = run(0)
    over = run(cat.prefixes - 1)
    assert over == bounded
    assert over[0] == answers and over[2] == [None]
    assert all(n <= cat.prefixes for n in over[1])
    with pytest.raises(tso.SizeGuardError, match=f"path enumeration limited to {cat.prefixes - 1} prefixes"):
        tso.enumerate_feasible_paths(g)
    with pytest.raises(tso.SizeGuardError, match=f"brute-force feasibility limited to {cat.prefixes - 1} prefixes"):
        tso.brute_force_feasibility(g, g.terminal)


def test_calls_sharing_a_log_graph_match_fresh_ones(monkeypatch):
    # The catalog cached on a LogGraph holds no rewards, so a call must not
    # depend on which calls ran on that LogGraph before. A LogGraph holds one
    # catalog, which serves node and arc rewards alike. The rewards vary on
    # one LogGraph per budget; the budget varies across fresh graphs.
    for cap in (tso.orienteering.CATALOG_CAP, 0):
        monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", cap)
        served = 0
        for seed in range(4):
            base = tso.feasible_random_instance(7, 0.4, 1.0, 0.5, seed=(81, seed))
            rng = np.random.default_rng((82, seed))
            for p_s in (base.p_s, math.exp(-0.4), math.exp(-0.9), math.exp(-0.2)):
                g = dataclasses.replace(base, p_s=p_s)
                calls = []
                for _draw in range(2):
                    nodes, arcs = _random_rewards(g, rng)
                    nodes[g.node_ids[3]] = 0.0
                    calls.append((tso.solve_exact, dict(rewards=nodes)))
                    calls.append((tso.solve_arc_exact, dict(edge_rewards=arcs)))
                shared = tso.log_transform(g)
                held = []
                for solve, kw in calls:
                    try:
                        fresh = solve(tso.log_transform(g), **kw)
                    except tso.InfeasibleInstanceError:
                        with pytest.raises(tso.InfeasibleInstanceError):
                            solve(shared, **kw)
                        continue
                    again = solve(shared, **kw)
                    assert (again.path, again.reward, again.nodes_expanded) == (
                        fresh.path, fresh.reward, fresh.nodes_expanded), (seed, solve.__name__, p_s)
                    held.append(_catalog(shared))
                # The first call builds the one catalog; node and arc calls after it reuse it.
                assert all(cat is held[0] for cat in held)
                if held:
                    assert (held[0] is None) == (cap == 0)
                    served += 1
                else:
                    # Infeasible: the one catalog holds the root alone, so no leaf.
                    cat = _catalog(shared)
                    assert cat is None if cap == 0 else cat.prefixes == 1
        assert served >= 12


def _count_oracle_nodes(monkeypatch):
    """Record nodes_expanded of every exact-oracle call greedy makes."""
    counts = []
    for name in ("solve_exact", "solve_arc_exact"):
        solve = getattr(tso.greedy, name)

        def counted(*args, solve=solve):
            res = solve(*args)
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
    ("node", 30, 176_412),
    ("edge", 36, 17_702),
    ("multi_visit", 36, 16_800),
])
def test_greedy_search_effort_is_pinned(monkeypatch, variant, calls, total):
    # Totals of the bounded search over one greedy run per reward kind, with
    # the catalog off: the prefixes whose bound was tested. A change to the
    # chunk size, the push order, the bound or its float order moves them.
    # The recursive search this one replaced tested 122,756, 16,020 and
    # 11,666 bounds: it tested each prefix against every leaf found before
    # it, where all the prefixes of a chunk meet the incumbent of its pop.
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    g, cfg = _effort_case(variant)
    counts = _count_oracle_nodes(monkeypatch)
    tso.greedy_survivors(g, cfg)
    assert (len(counts), sum(counts)) == (calls, total)


def test_bounded_search_keeps_its_tables_on_the_log_graph(monkeypatch):
    # The steps and the per-node distance rows hold no rewards, so a greedy
    # run's 30 calls search from each node at most once. A call on a
    # LogGraph that earlier calls of either reward kind filled returns what
    # a call on a fresh one returns, to the float and the effort.
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    sources = []
    search = orienteering.search

    def counted(rows, src, *args, **kwargs):
        sources.append(src)
        return search(rows, src, *args, **kwargs)

    monkeypatch.setattr(orienteering, "search", counted)
    g, cfg = _effort_case("node")
    tso.greedy_survivors(g, cfg)
    assert 0 < len(sources) == len(set(sources)) <= g.num_nodes
    for seed in range(4):
        g = tso.feasible_random_instance(8, 0.4, 1.0, 0.5, seed=(86, seed))
        shared = tso.log_transform(g)
        rng = np.random.default_rng((87, seed))
        for _call in range(3):
            rewards, arc_rewards = _random_rewards(g, rng)
            for solve, kw in ((tso.solve_exact, dict(rewards=rewards)), (tso.solve_arc_exact, dict(edge_rewards=arc_rewards))):
                fresh = solve(tso.log_transform(g), **kw)
                again = solve(shared, **kw)
                assert (again.path, repr(again.reward), again.nodes_expanded) == (
                    fresh.path, repr(fresh.reward), fresh.nodes_expanded), (seed, solve.__name__)


def _frozen(x):
    """x's value as plain data: vars() of objects, and the dtype, shape and bytes of arrays."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, dict):
        return {k: _frozen(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_frozen(v) for v in x]
    if hasattr(x, "__dict__"):
        return type(x).__name__, _frozen(vars(x))
    return repr(x)


@pytest.mark.parametrize("cap", [orienteering.CATALOG_CAP, 0])
def test_no_exact_call_writes_into_a_per_graph_table(monkeypatch, hexg, cap):
    # The tables an exact call keeps on its LogGraph (_Steps, the catalog,
    # _rows, _within) hold no rewards, and no later call writes into them.
    # The first call, without rewards, keeps the depot robot home: below
    # the cap the bounded search pops only the root. The later calls search
    # the whole graph.
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", cap)
    lg = tso.log_transform(hexg)
    nodes, arcs = _random_rewards(hexg, np.random.default_rng(88))
    assert tso.solve_exact(lg, {}).path == (hexg.start,)
    tables = _frozen(lg._tables)
    assert len(tables) == (2 if cap else 4)
    tso.solve_arc_exact(lg, {})
    assert tso.solve_exact(lg, nodes).reward > 0.0
    assert tso.solve_arc_exact(lg, arcs).reward > 0.0
    assert _frozen(lg._tables) == tables


def test_no_oracle_writes_into_the_rewards_it_is_handed(monkeypatch, hexg):
    # Greedy hands each oracle its reward model's own array, uncopied, and
    # updates that array after the call, so an oracle must leave it as it
    # was: the same float bits, as a library caller's dict keeps its keys,
    # order and bits. Hex's catalog fits; with the cap at 0 the node oracle
    # runs the bounded search.
    nodes, arcs = _random_rewards(hexg, np.random.default_rng(89))
    lg = tso.log_transform(hexg)
    node_arr, arc_arr = _as_arrays(lg, nodes, arcs)

    def held(rewards):
        return rewards.tobytes() if isinstance(rewards, np.ndarray) else repr(rewards)

    for solve, rewards in ((tso.solve_exact, nodes), (tso.solve_arc_exact, arcs), (tso.solve_heuristic, nodes),
                           (tso.solve_exact, node_arr), (tso.solve_arc_exact, arc_arr), (tso.solve_heuristic, node_arr)):
        before = held(rewards)
        assert solve(lg, rewards).reward > 0.0
        assert held(rewards) == before, solve.__name__
    assert _catalog(lg) is not None
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    bounded = tso.log_transform(hexg)
    for rewards in (nodes, node_arr):
        before = held(rewards)
        assert tso.solve_exact(bounded, rewards).reward > 0.0
        assert held(rewards) == before and _catalog(bounded) is None


def test_one_steps_table_and_one_row_table_per_log_graph(monkeypatch):
    # The catalog build makes lg's _Steps before it stops at the cap, and
    # the bounded search reads that one. GRASP reads the one cost-sorted
    # row table, and the bounded search reads it cut at limit.
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    made = {"_Steps": 0, "_rows": 0}
    init, rows = orienteering._Steps.__init__, orienteering._rows

    def counted_init(self, lg):
        made["_Steps"] += 1
        init(self, lg)

    def counted_rows(lg):
        made["_rows"] += 1
        return rows(lg)

    monkeypatch.setattr(orienteering._Steps, "__init__", counted_init)
    monkeypatch.setattr(orienteering, "_rows", counted_rows)
    g = tso.feasible_random_instance(8, 0.4, 1.0, 0.5, seed=(86, 0))
    run = tso.greedy_survivors(g, tso.GreedyConfig(3))
    assert made == {"_Steps": 1, "_rows": 1}
    tso.solve_heuristic(run.lg, {v: 1.0 for v in g.node_ids})
    assert made == {"_Steps": 1, "_rows": 1}


def test_stopped_searches_read_the_shared_rows_cut_at_limit(monkeypatch):
    # The bounded search's distances, _within, come from searches over the
    # one cost-sorted row table cut at limit. The cut changes no search
    # from cost 0.0: row v of _within holds the dist bits of a search over
    # the uncut shared rows from v, and INF where it reaches nothing.
    graphs = [tso.feasible_random_instance(150, 0.3, 1.0, 0.9, seed=(1, 0))]
    graphs += [tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(0, i))
               for i in range(3) for p_s in (0.3, 0.5, 0.7, 0.9, 0.95)]
    read = []
    search = orienteering.search

    def recorded(rows, *args, **kwargs):
        read.append(rows)
        return search(rows, *args, **kwargs)

    monkeypatch.setattr(orienteering, "search", recorded)
    dropped = 0
    for g in graphs:
        lg = tso.log_transform(g)
        shared = lg.table(orienteering._rows)
        read.clear()
        within = lg.table(orienteering._within)
        filtered = {v: sorted(((u, w) for u, w in row.items() if w <= lg.limit), key=lambda t: t[1])
                    for v, row in oracles.arc_costs(lg).items()}
        # The rows are lists over node indices, heads as indices.
        ids = g.node_ids
        assert len(read) == g.num_nodes and all(
            {ids[i]: [(ids[u], w) for u, w in row] for i, row in enumerate(rows)} == filtered for rows in read)
        dropped += sum(map(len, shared)) > sum(map(len, filtered.values()))
        for i, v in enumerate(ids):
            dist = search(shared, i, limit=lg.limit)[0]
            assert repr(within[i].tolist()) == repr(dist), v
    assert dropped


def test_results_do_not_depend_on_the_builtin_sum(monkeypatch):
    # From Python 3.12 builtin sum() of floats is compensated. Shadowing it
    # with math.fsum in the planning modules runs that arithmetic here: a GRASP
    # pin and the multi-visit search effort must not move.
    for mod in (tso.orienteering, tso.greedy, tso.objective):
        monkeypatch.setattr(mod, "sum", math.fsum, raising=False)
    pins = json.loads(HEURISTIC_PINS.read_text(encoding="utf-8"))
    name, g, rewards = next(case for case in _heuristic_cases() if case[0] == "complete-1")
    lg = tso.log_transform(g)
    got = [_heuristic_record(lg, rewards, seed) for seed in range(3)]
    assert got == pins[name]
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    g, cfg = _effort_case("multi_visit")
    counts = _count_oracle_nodes(monkeypatch)
    tso.greedy_survivors(g, cfg)
    assert (len(counts), sum(counts)) == (36, 16_800)


@pytest.mark.parametrize("variant, calls, prefixes", [
    ("node", 30, 14_451),
    ("edge", 36, 517),
    ("multi_visit", 36, 517),
])
def test_greedy_catalog_effort_is_pinned(monkeypatch, variant, calls, prefixes):
    # The same greedy runs on the catalog: one catalog per run, whose prefix
    # count every call reports, and the bounded search's paths and gains.
    g, cfg = _effort_case(variant)
    counts = _count_oracle_nodes(monkeypatch)
    run = tso.greedy_survivors(g, cfg)
    assert counts == [prefixes] * calls
    monkeypatch.setattr(tso.orienteering, "CATALOG_CAP", 0)
    reference = tso.greedy_survivors(g, cfg)
    assert run.paths == reference.paths
    assert [repr(x) for x in run.gains] == [repr(x) for x in reference.gains]


@pytest.mark.parametrize("depot", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_catalog_on_graphs_above_64_nodes(depot, reverse):
    # Visited sets of more than 64 nodes take two uint64 words. Reversing
    # the index order moves the start into the second word (and the open
    # path's terminal into the first); some leaves pass through nodes there.
    # The bounded search reads the same words.
    base = tso.feasible_random_instance(70, 0.3, 1.0, 0.9, seed=(64, 70))
    node_ids = base.node_ids[::-1] if reverse else base.node_ids
    g = tso.SurvivalGraph(
        node_ids=node_ids, priorities=base.priorities, edges=base.edges,
        start=base.start, terminal=base.start if depot else base.terminal, p_s=base.p_s,
    )
    nodes, arcs = _random_rewards(g, np.random.default_rng((65, int(depot), int(reverse))))
    lg = tso.log_transform(g)
    for solve, kw in ((tso.solve_exact, dict(rewards=nodes)), (tso.solve_arc_exact, dict(edge_rewards=arcs))):
        got = solve(lg, **kw)
        reference = _reference(solve, tso.log_transform(g), **kw)
        assert (got.path, repr(got.reward), got.nodes_expanded) == (
            reference.path, repr(reference.reward), reference.nodes_expanded)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tso.orienteering, "CATALOG_CAP", 0)
            bounded = solve(tso.log_transform(g), **kw)
        assert (bounded.path, repr(bounded.reward)) == (reference.path, repr(reference.reward)), solve.__name__
    cat = _catalog(lg)
    assert cat.prefixes > 100
    assert any(g.index[v] >= 64 for path in cat.paths() for v in path[1:-1])


# Per-depth leaf counts of the heaviest benchmark graph (ratio draw 0 at
# p_s = 0.5), recorded from the depth-first build that the level-by-level
# one replaced.
HEAVY_LEAVES = [1, 7, 52, 228, 869, 2328, 4948, 8596, 12045, 13845, 12569, 8892, 4722, 1825, 428, 59, 0]


def test_heavy_catalog_shape_and_build_memory():
    # The build holds every depth's parent positions and last arcs, two
    # frontiers and one chunk's tables at a time, then the tiles: about
    # 2.6 MiB traced at its peak, stored catalog included.
    g = tso.feasible_random_instance(20, 0.3, 1.0, 0.5, seed=(0, 0))
    lg = tso.log_transform(g)
    tracemalloc.start()
    try:
        cat = tso.orienteering.prefix_catalog(lg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert cat.level_leaves == HEAVY_LEAVES
    arcs = sum(int((tile < len(cat.arcs)).sum()) for _lo, tile in cat.tiles)
    assert arcs == sum(d * n for d, n in enumerate(HEAVY_LEAVES, 1)) == 708_918
    # The sentinels that pad a tile's shorter leaves stay few.
    assert sum(tile.size for _lo, tile in cat.tiles) <= 1.05 * 708_918
    assert cat.prefixes == 231_433
    assert len(cat.paths()) == sum(HEAVY_LEAVES) == 71_414
