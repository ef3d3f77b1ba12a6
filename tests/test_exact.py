from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

import tso
from tso import exact

import oracles


def test_diamond_catalog(diamond):
    paths = tso.enumerate_feasible_paths(diamond)
    assert paths == [(1, 2, 4), (1, 4)]
    assert len(paths) == 2
    assert sorted(paths) == sorted(oracles.feasible_paths(diamond))


def test_loop5_catalog_is_the_three_tours(loop5):
    paths = tso.enumerate_feasible_paths(loop5)
    assert paths == [(1, 3, 5, 2, 1), (1, 3, 5, 4, 1), (1, 4, 5, 2, 1)]
    for p in paths:
        assert tso.visit_profile(loop5, p).survival >= loop5.p_s - 1e-9


def test_catalog_matches_enumeration_oracle():
    for seed in range(8):
        g = tso.feasible_random_instance(6, 0.4, 1.0, 0.6, seed=(90, seed))
        paths = tso.enumerate_feasible_paths(g)
        assert sorted(paths) == sorted(oracles.feasible_paths(g))


def test_catalog_rejects_oversized_instance():
    # The prefix cap, not a node count, bounds the catalog: a 13-node graph
    # whose catalog fits is enumerated, and a 20-node one at p_s 0.3 (CLI
    # `gen --complete --nodes 20 --p-s 0.3 --seed 1`) is refused.
    g = tso.random_complete_instance(13, 0.5, 1.0, 0.5, seed=0)
    n = len(tso.enumerate_feasible_paths(g))
    assert n > 0
    with pytest.raises(tso.SizeGuardError, match=rf"^{n}\^3 candidate teams times 3 robots exceed the enumeration limit 10000000$"):
        tso.solve_exact_tso(g, team_size=3)
    big = tso.random_complete_instance(20, 0.3, 1.0, 0.3, seed=1)
    with pytest.raises(tso.SizeGuardError, match=r"^path enumeration limited to 1048576 prefixes$"):
        tso.enumerate_feasible_paths(big)


def test_team_enumeration_guard(monkeypatch):
    g = tso.feasible_random_instance(6, 0.4, 1.0, 0.6, seed=91)
    # n ** 2000 overflows a float; the guard counts that as over the limit.
    n = len(tso.enumerate_feasible_paths(g))
    assert n > 1
    with pytest.raises(tso.SizeGuardError,
                       match=rf"^{n}\^2000 candidate teams times 2000 robots exceed the enumeration limit 10000000$"):
        tso.solve_exact_tso(g, team_size=2000)
    monkeypatch.setattr(tso.exact, "ENUMERATION_LIMIT", 10)
    with pytest.raises(tso.SizeGuardError):
        tso.solve_exact_tso(g, team_size=3)


def test_team_guard_counts_the_robots(monkeypatch):
    # One path makes one team at any size, but the team's work grows with
    # it: 1^K teams times K robots meets the limit, before a profile is built.
    g = tso.SurvivalGraph(node_ids=[1, 2], priorities={1: 1.0, 2: 1.0}, edges=[(1, 2, 0.9)], start=1, terminal=2, p_s=0.5)
    monkeypatch.setattr(tso.exact, "ENUMERATION_LIMIT", 3)
    assert tso.solve_exact_tso(g, team_size=3).paths == [(1, 2)] * 3
    with pytest.raises(tso.SizeGuardError, match=r"^1\^4 candidate teams times 4 robots exceed the enumeration limit 3$"):
        tso.solve_exact_tso(g, team_size=4)
    tracemalloc.start()
    try:
        with pytest.raises(tso.SizeGuardError, match=r"^1\^20000000 candidate teams times 20000000 robots"):
            tso.solve_exact_tso(g, team_size=20_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_every_guard_fires_before_a_path_is_built(monkeypatch):
    # A miss table of exactly TABLE_LIMIT cells is built. Then, with
    # PrefixCatalog.paths raising, each refusal still comes as a
    # SizeGuardError: the team guard on the six-node CLI test graph and on a
    # 12-node graph of 475,132 leaves, and the table guard one cell lower.
    six = tso.random_complete_instance(6, 0.3, 1.0, 0.6, seed=0)
    n = sum(tso.log_transform(six).table(tso.orienteering.prefix_catalog).level_leaves)
    monkeypatch.setattr(tso.exact, "TABLE_LIMIT", n * 6)
    assert tso.solve_exact_tso(six, team_size=1).objective > 0

    def no_paths(self):
        raise AssertionError("paths built before a guard")

    monkeypatch.setattr(tso.orienteering.PrefixCatalog, "paths", no_paths)
    with pytest.raises(tso.SizeGuardError, match=r"\^2000 candidate teams times 2000 robots"):
        tso.solve_exact_tso(six, team_size=2000)
    dense = tso.random_complete_instance(12, 0.9, 1.0, 0.7, seed=10)
    with pytest.raises(tso.SizeGuardError, match=r"^475132\^2 candidate teams times 2 robots"):
        tso.solve_exact_tso(dense, team_size=2)
    monkeypatch.setattr(tso.exact, "TABLE_LIMIT", n * 6 - 1)
    with pytest.raises(tso.SizeGuardError, match=rf"^{n} paths times 6 nodes exceed the table limit {n * 6 - 1} cells$"):
        tso.solve_exact_tso(six, team_size=1)


def test_one_path_serves_a_team_deeper_than_the_recursion_limit():
    # A one-path catalog passes the guard at any team size, and the
    # multisets are enumerated without one stack frame per robot.
    g = tso.SurvivalGraph(node_ids=[1, 2], priorities={1: 1.0, 2: 1.0}, edges=[(1, 2, 0.9)], start=1, terminal=2, p_s=0.5)
    plan = tso.solve_exact_tso(g, team_size=5000)
    assert plan.paths == [(1, 2)] * 5000
    assert plan.objective == 1.0


def test_exact_team_empty_catalog_raises():
    g = tso.SurvivalGraph(
        node_ids=[1, 2],
        priorities={1: 1.0, 2: 1.0},
        edges=[(1, 2, 0.5)],
        start=1,
        terminal=2,
        p_s=0.9,
    )
    with pytest.raises(tso.InfeasibleInstanceError):
        tso.solve_exact_tso(g, team_size=1)


def test_exact_team_rejects_bad_team_size(diamond):
    with pytest.raises(ValueError):
        tso.solve_exact_tso(diamond, team_size=0)


def test_diamond_exact_pair(diamond):
    plan = tso.solve_exact_tso(diamond, team_size=2)
    assert plan.paths == [(1, 2, 4), (1, 2, 4)]
    assert plan.objective == pytest.approx(1.9539, abs=1e-12)


def test_loop5_exact_pair(loop5):
    plan = tso.solve_exact_tso(loop5, team_size=2)
    assert plan.paths == [(1, 3, 5, 2, 1), (1, 4, 5, 2, 1)]
    best, arg = oracles.best_team_brute(loop5, 2)
    assert plan.objective == pytest.approx(best, abs=1e-12)
    assert plan.paths == list(arg)
    assert plan.objective == pytest.approx(4.84716877, abs=5e-9)


def test_exact_matches_brute_on_randoms():
    for seed in range(6):
        g = tso.feasible_random_instance(5, 0.4, 1.0, 0.6, seed=(92, seed))
        for team in (1, 2, 3):
            plan = tso.solve_exact_tso(g, team_size=team)
            best, _ = oracles.best_team_brute(g, team)
            assert plan.objective == pytest.approx(best, abs=1e-12)
            assert list(plan.paths) == sorted(plan.paths)


def test_exact_breaks_ties_toward_smallest_multiset():
    g = tso.random_complete_instance(5, 0.9, 0.9, 0.75, seed=0)
    plan = tso.solve_exact_tso(g, team_size=2)
    best, arg = oracles.best_team_brute(g, 2)
    assert plan.paths == [(0, 1, 4), (0, 2, 4)]
    assert plan.paths == list(arg)
    assert plan.objective == pytest.approx(best, abs=1e-12)


def test_exact_never_below_greedy():
    for seed in range(5):
        g = tso.feasible_random_instance(6, 0.4, 1.0, 0.6, seed=(93, seed))
        for team in (1, 2):
            greedy = tso.greedy_survivors(g, tso.GreedyConfig(team_size=team))
            exact = tso.solve_exact_tso(g, team_size=team)
            assert exact.objective >= greedy.plan.objective - 1e-12


def test_hex_single_robot_exact(hexg):
    plan = tso.solve_exact_tso(hexg, team_size=1)
    assert plan.paths == [(0, 1, 6, 16, 5, 0)]
    assert plan.objective == pytest.approx(4.1455671684, abs=5e-10)


def test_brute_force_reachable_matches_the_feasible_paths():
    # The backward pass over the catalog's levels against the nodes read off
    # its path tuples, on criterion 8's 100 graphs, open and as depot tours.
    reached = 0
    for i in range(100):
        g = tso.random_complete_instance(5 + i % 4, 0.3, 1.0, (0.5, 0.7, 0.9)[i % 3], seed=(300, i))
        for h in (g, dataclasses.replace(g, terminal=g.start)):
            want = {v for p in tso.enumerate_feasible_paths(h) for v in p[1:]}
            assert exact.brute_force_reachable(h) == want, (i, h.terminal)
            reached += len(want)
    assert 0 < reached < 2 * sum(5 + i % 4 for i in range(100))
