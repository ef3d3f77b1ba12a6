"""Probabilistic semantics of team plans.

A robot following a path survives each edge independently with the edge's
survival probability. The prefix survival E[a_n] is the chance it is still
alive after step n, which is also the chance it visits the step-n node. The
team objective J is the priority-weighted expected number of nodes visited
by at least one robot. Visits count from step 1, so the start node only
counts when a tour returns to it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .graph import SurvivalGraph, check_path, json_int


@dataclass
class VisitProfile:
    path: tuple[int, ...]
    survival_prefix: tuple[float, ...]
    visit_prob: dict[int, float]

    @property
    def survival(self) -> float:
        return self.survival_prefix[-1]

    def z(self, node) -> float:
        return self.visit_prob.get(node, 0.0)


@dataclass
class TeamPlan:
    paths: list[tuple[int, ...]]
    profiles: list[VisitProfile]
    objective: float
    node_visit_prob: dict[int, float]


def visit_profile(g: SurvivalGraph, path) -> VisitProfile:
    """Survival prefixes and per-node visit probabilities of one path."""
    check_path(g, path)
    prefix = [1.0]
    visit = {}
    for n in range(1, len(path)):
        prefix.append(prefix[-1] * g.survival[(path[n - 1], path[n])])
        visit[path[n]] = prefix[-1]
    return VisitProfile(path=tuple(path), survival_prefix=tuple(prefix), visit_prob=visit)


def team_visit_probability(g: SurvivalGraph, profiles) -> dict[int, float]:
    """Per node, the chance at least one robot visits it: 1 - prod(1 - z)."""
    x = {}
    for v in g.node_ids:
        miss = 1.0
        for pr in profiles:
            miss *= 1.0 - pr.z(v)
        x[v] = 1.0 - miss
    return x


def team_objective(g: SurvivalGraph, paths):
    """Expected weighted number of nodes visited by at least one robot.

    Returns (J, per-node visit probability dict).
    """
    plan = team_plan(g, paths)
    return plan.objective, plan.node_visit_prob


def team_plan(g: SurvivalGraph, paths) -> TeamPlan:
    profiles = [visit_profile(g, p) for p in paths]
    x = team_visit_probability(g, profiles)
    j = sum(g.priority(v) * x[v] for v in g.node_ids)
    return TeamPlan(paths=[tuple(p) for p in paths], profiles=profiles, objective=j, node_visit_prob=x)


def discrete_derivative(g: SurvivalGraph, candidate, existing) -> float:
    """Marginal gain of adding candidate to an existing set of paths.

    Equals sum_j E[z_j(candidate)] d_j prod_k (1 - E[z_j(rho_k)]), which is
    exactly the objective difference.
    """
    return profile_gain(g, visit_profile(g, candidate), [visit_profile(g, p) for p in existing])


def profile_gain(g: SurvivalGraph, cand: VisitProfile, existing) -> float:
    """discrete_derivative on profiles already built: cand's gain over the existing profiles."""
    gain = 0.0
    for v, z in cand.visit_prob.items():
        miss = 1.0
        for pr in existing:
            miss *= 1.0 - pr.z(v)
        gain += g.priority(v) * z * miss
    return gain


def visit_count_distribution(g: SurvivalGraph, profiles) -> dict[int, np.ndarray]:
    """Per node, P(exactly m robots visit) for m = 0..q.

    Successes are independent Bernoulli(E[z_j(rho_k)]); the distribution is
    Poisson-binomial, computed by the usual dynamic program, one robot at a
    time (fold_visit_counts).
    """
    counts = {v: [1.0] for v in g.node_ids}
    for pr in profiles:
        fold_visit_counts(counts, pr)
    return {v: np.array(dp) for v, dp in counts.items()}


def fold_visit_counts(counts: dict[int, list[float]], profile: VisitProfile) -> None:
    """Add one robot to per-node count distributions (lists), in place.

    Appending a zero and then updating performs exactly the float operations
    of a table sized for every robot up front, whose tail is still zero. A
    node the robot never visits (p = 0) keeps its values, since x * 1.0 + 0.0
    == x, so only the path's nodes are updated.
    """
    for dp in counts.values():
        dp.append(0.0)
    for v, p in profile.visit_prob.items():
        dp, q = counts[v], 1.0 - p
        for m in range(len(dp) - 1, 0, -1):
            dp[m] = dp[m] * q + dp[m - 1] * p
        dp[0] *= q


def multi_visit_objective(g: SurvivalGraph, paths, table, M: int) -> float:
    """Value when the m-th visit to node j pays table[j][m-1].

    Rows must be non-increasing in m (diminishing returns); the value is
    sum_j sum_m table[j][m-1] * P(at least m visits to j).
    """
    profiles = [visit_profile(g, p) for p in paths]
    return multi_visit_value(g, visit_count_distribution(g, profiles), table, M)


def multi_visit_value(g: SurvivalGraph, counts, table, M: int) -> float:
    """multi_visit_objective from per-node count distributions already built."""
    for v, row in table.items():
        for a, b in zip(row, row[1:M]):
            if b > a + 1e-15:
                raise ValueError(f"multi-visit rewards for node {v} increase with visit count")
    total = 0.0
    for v in g.node_ids:
        row = table.get(v)
        if row is None:
            continue
        dp = counts[v]
        # P(at least m) via reversed cumulative sum of the count distribution.
        at_least = np.cumsum(dp[::-1])[::-1]
        for m in range(1, min(M, len(dp) - 1) + 1):
            total += row[m - 1] * at_least[m]
    return total


def edge_team_objective(g: SurvivalGraph, paths, rewards) -> float:
    """Expected reward over edges traversed by at least one robot."""
    for e in rewards:
        if e not in g.survival:
            raise ValueError(f"reward on missing edge {e}")
    # Per path, edge (path[n-1], path[n]) is crossed with probability survival_prefix[n].
    profiles = [visit_profile(g, p) for p in paths]
    traversals = [dict(zip(zip(pr.path, pr.path[1:]), pr.survival_prefix[1:])) for pr in profiles]
    total = 0.0
    for e, d in rewards.items():
        miss = 1.0
        for tr in traversals:
            miss *= 1.0 - tr.get(e, 0.0)
        total += d * (1.0 - miss)
    return total


# ---------------------------------------------------------------------------
# Monte-Carlo validation

@dataclass
class SimulationResult:
    estimate: float
    std_error: float
    survival_freq: list[float]
    trials: int


def simulate_team(g: SurvivalGraph, paths, trials: int, seed=0) -> SimulationResult:
    """Sample the team objective by simulating every edge traversal.

    Each trial draws one Bernoulli per edge per robot. Randomness comes from
    a single seeded generator consumed in a fixed (trial-major) layout: trial
    t always sees the same uniform block regardless of chunking, so results
    are reproducible bit for bit.

    The work runs node-major: each chunk's draws are compared once against
    every step's survival, then copied to one bool row per step; a path ANDs
    each step's row into the next in place and ORs it into its node's row.
    Every output float is the one a trial-major loop over the same draws
    gives: the compare is elementwise on the same floats, AND and OR on bools
    are exact, the matmul sees the same C-order (trials, nodes) bool matrix,
    so BLAS sums each trial in the same order, and the survival counts are
    integers. tests/oracles.py keeps that loop as the reference.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for p in paths:
        check_path(g, p)
    w_all = np.array([g.survival[(p[n - 1], p[n])] for p in paths for n in range(1, len(p))])
    slot = np.cumsum([0] + [len(p) - 1 for p in paths])
    width = slot[-1]
    d_vec = np.array([g.priority(v) for v in g.node_ids])
    node_pos = g.index

    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    alive_counts = np.zeros(len(paths))
    done = 0
    chunk = 1 << 16
    while done < trials:
        rows = min(chunk, trials - done)
        u = rng.random((rows, width)) if width else np.zeros((rows, 0))
        ok = u < w_all
        del u  # the draws are the chunk's largest block; free them before the copy
        ok = np.ascontiguousarray(ok.T)
        visited = np.zeros((g.num_nodes, rows), dtype=bool)
        for k, p in enumerate(paths):
            steps = ok[slot[k]:slot[k + 1]]  # row n - 1: path k survived steps 1..n
            for n in range(1, len(p)):
                if n > 1:
                    steps[n - 1] &= steps[n - 2]
                visited[node_pos[p[n]]] |= steps[n - 1]
            alive_counts[k] += np.count_nonzero(steps[-1]) if len(steps) else rows
        samples = np.ascontiguousarray(visited.T) @ d_vec
        total += samples.sum()
        total_sq += (samples * samples).sum()
        done += rows

    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        se = math.sqrt(var / trials)
    else:
        se = 0.0
    freq = [c / trials for c in alive_counts]
    return SimulationResult(estimate=mean, std_error=se, survival_freq=freq, trials=trials)


# ---------------------------------------------------------------------------
# Plan files

def plan_to_dict(g: SurvivalGraph, plan: TeamPlan) -> dict:
    return {
        "paths": [list(p) for p in plan.paths],
        "objective": plan.objective,
        "per_node_visit_prob": [plan.node_visit_prob[v] for v in g.node_ids],
        "per_path_survival": [pr.survival for pr in plan.profiles],
    }


def paths_from_plan_dict(doc: dict) -> list[tuple[int, ...]]:
    """Paths of a plan document; ValueError unless it holds a list of lists of integer node ids."""
    try:
        return [tuple(json_int(v, "plan entry") for v in p) for p in doc["paths"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"plan needs a 'paths' list of node-id lists ({exc})") from None
