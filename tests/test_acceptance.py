"""Acceptance gate: one test per shipped guarantee.

Each pytest -v line below is the pass/fail record for its criterion. The
expensive pieces (the exhaustive-team grid, the ratio benchmark) time
themselves and fail if they blow their wall-clock allowance, so a pass also
certifies the runtime.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
import tso
from tso.cli import CSV_HEADER, _bound_for_prefix, main
from tso.exact import brute_force_feasibility
from tso.orienteering import solve_exact, solve_heuristic


def _bench_rows(text):
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        inst, v, team, p_s, oracle, j, u, ratio, ms = line.split(",")
        rows.append((inst, int(v), int(team), float(p_s), oracle,
                     float(j), float(u), float(ratio), ms))
    return rows


def test_criterion_1_pairwise_team_visit(loop5):
    """Two robots passing one node at 0.96 each cover it at 0.9984."""
    tour = (1, 3, 5, 2, 1)
    profiles = [tso.visit_profile(loop5, tour) for _ in range(2)]
    assert profiles[0].visit_prob[5] == pytest.approx(0.96, abs=1e-12)
    x = tso.team_visit_probability(loop5, profiles)
    assert x[5] == pytest.approx(0.9984, abs=1e-12)


def test_criterion_2_greedy_guarantee_vs_exact():
    """Greedy keeps (1 - e^-p_s) of the exhaustive team optimum, 54 cases."""
    t0 = time.perf_counter()
    cases = 0
    for v in (5, 6, 7):
        for pi, p_s in enumerate((0.5, 0.7, 0.9)):
            for rep in (0, 1):
                g = tso.feasible_random_instance(v, 0.3, 1.0, p_s, seed=(201, v, pi, rep))
                factor = 1.0 - math.exp(-p_s)
                for team in (1, 2, 3):
                    opt = tso.solve_exact_tso(g, team).objective
                    run = tso.greedy_survivors(g, tso.GreedyConfig(team_size=team, oracle="exact"))
                    assert run.plan.objective >= factor * opt - 1e-9, (v, p_s, rep, team)
                    cases += 1
    assert cases == 54
    assert time.perf_counter() - t0 < 300.0


def test_criterion_3_objective_axioms():
    """Normalized, monotone, diminishing returns over 200 sampled triples."""
    rng = np.random.default_rng(42)
    checked = 0
    for i in range(20):
        v = 5 + i % 3
        p_s = (0.5, 0.7, 0.9)[i % 3]
        g = tso.feasible_random_instance(v, 0.3, 1.0, p_s, seed=(205, i))
        catalog = tso.enumerate_feasible_paths(g)
        j_empty, _ = tso.team_objective(g, [])
        assert abs(j_empty) <= 1e-12
        for _ in range(10):
            smaller = [catalog[rng.integers(len(catalog))]
                       for _ in range(int(rng.integers(0, 4)))]
            larger = smaller + [catalog[rng.integers(len(catalog))]
                                for _ in range(1 + int(rng.integers(0, 2)))]
            candidate = catalog[rng.integers(len(catalog))]
            j_small, _ = tso.team_objective(g, smaller)
            j_large, _ = tso.team_objective(g, larger)
            assert j_large >= j_small - 1e-12
            gain_small = tso.discrete_derivative(g, candidate, smaller)
            gain_large = tso.discrete_derivative(g, candidate, larger)
            assert gain_small >= gain_large - 1e-12
            assert gain_large >= -1e-12
            checked += 1
    assert checked == 200


def test_criterion_4_oracle_quality():
    """Branch and bound matches brute force; GRASP never beats it and stays close.

    The 0.9 mean floor is the shipped quality bar for the twenty-node suite;
    the exact-match half is the hard correctness gate.
    """
    for i in range(100):
        v = 5 + i % 3
        p_s = (0.5, 0.7, 0.9)[i % 3]
        g = tso.feasible_random_instance(v, 0.3, 1.0, p_s, seed=(203, i))
        lg = tso.log_transform(g)
        zeta = tso.max_visit_probabilities(lg)
        rewards = {j: zeta[j] * g.priorities[j] for j in g.node_ids}
        ex = solve_exact(lg, rewards)
        best, maximizers = oracles.orienteering_brute(g, rewards)
        assert abs(ex.reward - best) <= 1e-12, (i, ex.reward, best)
        assert ex.path in maximizers
        he = solve_heuristic(lg, rewards, seed=i)
        assert he.reward <= ex.reward + 1e-9

    ratios = []
    for i in range(10):
        p_s = 0.7 if i % 2 == 0 else 0.85
        g = tso.feasible_random_instance(20, 0.3, 1.0, p_s, seed=(202, i))
        lg = tso.log_transform(g)
        zeta = tso.max_visit_probabilities(lg)
        rewards = {j: zeta[j] * g.priorities[j] for j in g.node_ids}
        ex = solve_exact(lg, rewards)
        he = solve_heuristic(lg, rewards, seed=i)
        assert he.reward <= ex.reward + 1e-9
        ratios.append(he.reward / ex.reward if ex.reward > 0 else 1.0)
    mean = sum(ratios) / len(ratios)
    print(f"twenty-node heuristic/exact mean {mean:.4f} min {min(ratios):.4f}")
    assert mean >= 0.9, f"mean heuristic/exact {mean:.4f}"


def test_criterion_5_ratio_suite(ratio_bench):
    """Every bench ratio clears its floor; means rise with team size."""
    text, elapsed = ratio_bench
    rows = _bench_rows(text)
    assert len(rows) == 350
    by_cell: dict[float, dict[int, list[float]]] = {}
    for _inst, _v, team, p_s, _oracle, j, u, ratio, _ms in rows:
        assert j <= u + 1e-9
        assert ratio >= (1.0 - math.exp(-p_s)) - 1e-9, (team, p_s, ratio)
        by_cell.setdefault(p_s, {}).setdefault(team, []).append(ratio)
    for p_s, per_team in by_cell.items():
        means = [sum(v) / len(v) for _k, v in sorted(per_team.items())]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:])), (p_s, means)
    assert elapsed < 900.0


def test_criterion_6_hex_depot_team(hexg):
    """Six hex tours all survive the 0.70 bar; value grows with the team."""
    run = tso.greedy_survivors(hexg, tso.GreedyConfig(team_size=6, oversize=36, oracle="exact"))
    for prof in run.plan.profiles:
        assert prof.survival_prefix[-1] >= 0.70 - 1e-9
    values = []
    for team in range(1, 7):
        j, cert = _bound_for_prefix(run, team)
        assert j >= (1.0 - math.exp(-0.70)) * cert.upper - 1e-9
        values.append(j)
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert tso.solve_exact_tso(hexg, 1, max_nodes=19).objective == pytest.approx(4.1455671684, abs=1e-12)
    assert tso.solve_exact_tso(hexg, 2, max_nodes=19).objective == pytest.approx(7.767349819674367, abs=1e-12)


def test_criterion_7_simulation_agreement():
    """Monte-Carlo estimates track the closed form within sampling error."""
    for i in range(20):
        v = 8 if i % 2 == 0 else 10
        p_s = (0.6, 0.7, 0.85)[i % 3]
        team = 1 + i % 3
        g = tso.feasible_random_instance(v, 0.3, 1.0, p_s, seed=(204, i), team_size=team)
        run = tso.greedy_survivors(g, tso.GreedyConfig(team_size=team, oracle="exact"))
        res = tso.simulate_team(g, run.plan.paths, 10**5, seed=i)
        # Rule-of-three floor: a deviation the sample never saw contributes
        # at most a few parts per trial count, and the sample error is zero.
        floor = 8.0 * sum(g.priorities.values()) / res.trials
        assert abs(res.estimate - run.plan.objective) <= 4 * res.std_error + floor, i
        for k, prof in enumerate(run.plan.profiles):
            p_true = prof.survival_prefix[-1]
            assert p_true >= p_s - 1e-9
            se = math.sqrt(p_true * (1.0 - p_true) / res.trials)
            assert res.survival_freq[k] >= p_s - 1e-9 - 4 * se, (i, k)


def test_criterion_8_feasibility_audit():
    """Nonemptiness flag exact on 100 instances; node flags one-sided and rare."""
    overclaim = 0
    miss = 0
    pairs = 0
    flag_wrong = 0
    for i in range(100):
        v = 5 + i % 4
        p_s = (0.5, 0.7, 0.9)[i % 3]
        g = tso.random_complete_instance(v, 0.3, 1.0, p_s, seed=(300, i))
        rep = tso.feasibility_check(g)
        if rep.x_nonempty != brute_force_feasibility(g, g.terminal):
            flag_wrong += 1
        for j in g.node_ids:
            truth = brute_force_feasibility(g, j)
            overclaim += rep.reachable[j] and not truth
            miss += truth and not rep.reachable[j]
            pairs += 1
    assert flag_wrong == 0
    assert pairs == 650
    assert miss == 0
    assert overclaim == 8
    print(f"per-node discrepancy rate {overclaim / pairs:.6f} "
          f"({overclaim}/{pairs}, all optimistic)")


def test_criterion_9_deterministic_outputs(ratio_bench, tmp_path, capsys, monkeypatch):
    """Same bytes from solve and bench across repeat runs and thread counts."""
    inst = tmp_path / "inst.json"
    rc = main(["gen", "--complete", "--nodes", "8", "--p-s", "0.7",
               "--seed", "11", "--out", str(inst)])
    assert rc == 0
    plans = []
    summaries = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main(["solve", str(inst), "--team", "2", "--seed", "5", "--out", str(out)]) == 0
        plans.append(out.read_bytes())
        summaries.append(capsys.readouterr().out)
    assert plans[0] == plans[1]
    assert summaries[0] == summaries[1]

    hex_runs = []
    for threads, name in (("1", "hex1.csv"), ("1", "hex2.csv"), ("4", "hex4.csv")):
        monkeypatch.setenv("TSO_THREADS", threads)
        out = tmp_path / name
        assert main(["bench", "--suite", "hex", "--out", str(out)]) == 0
        hex_runs.append(out.read_bytes())
    assert hex_runs[0] == hex_runs[1] == hex_runs[2]

    # The ratio suite is the one with enough cells to actually engage the
    # worker pool, so the cross-thread comparison runs there.
    monkeypatch.setenv("TSO_THREADS", "4")
    pooled = tmp_path / "ratio4.csv"
    assert main(["bench", "--suite", "ratio", "--out", str(pooled)]) == 0
    serial_text, _elapsed = ratio_bench
    assert pooled.read_text(encoding="utf-8") == serial_text
