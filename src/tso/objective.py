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

from .graph import SurvivalGraph, check_path, json_int, ordered_sum


@dataclass
class VisitProfile:
    path: tuple[int, ...]
    survival_prefix: tuple[float, ...]
    visit_prob: dict[int, float]

    @property
    def survival(self) -> float:
        return self.survival_prefix[-1]

    @property
    def crossings(self):
        """(edge, chance the robot crosses it) for each step of the path."""
        return zip(zip(self.path, self.path[1:]), self.survival_prefix[1:])


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


class Coverage:
    """Per key of a reward table, the chance that no robot so far collected it.

    Each robot folds in as (key, chance) pairs; keys off the table are
    skipped. Misses multiply in robot order and a key a robot misses keeps
    its float (x * (1.0 - 0.0) == x), so greedy's running Coverage reads the
    same bits as a fresh one folding the same paths.
    """

    def __init__(self, table):
        self.table = table
        self.miss = dict.fromkeys(table, 1.0)

    def fold(self, chances) -> None:
        for k, p in chances:
            if k in self.miss:
                self.miss[k] *= 1.0 - p

    def gain(self, chances) -> float:
        """What folding in chances would add to value(): the sum of d * p * miss over them."""
        return ordered_sum(self.table[k] * p * self.miss[k] for k, p in chances)

    def value(self) -> float:
        """The sum of d * (1 - miss) in table order."""
        return ordered_sum(d * (1.0 - self.miss[k]) for k, d in self.table.items())


def node_coverage(g: SurvivalGraph, profiles) -> Coverage:
    """Node priorities covered by the robots of the given visit profiles."""
    cover = Coverage({v: g.priority(v) for v in g.node_ids})
    for pr in profiles:
        cover.fold(pr.visit_prob.items())
    return cover


def team_visit_probability(g: SurvivalGraph, profiles) -> dict[int, float]:
    """Per node, the chance at least one robot visits it: 1 - prod(1 - z)."""
    return {v: 1.0 - miss for v, miss in node_coverage(g, profiles).miss.items()}


def team_objective(g: SurvivalGraph, paths):
    """Expected weighted number of nodes visited by at least one robot.

    Returns (J, per-node visit probability dict).
    """
    plan = team_plan(g, paths)
    return plan.objective, plan.node_visit_prob


def team_plan(g: SurvivalGraph, paths) -> TeamPlan:
    profiles = [visit_profile(g, p) for p in paths]
    cover = node_coverage(g, profiles)
    x = {v: 1.0 - miss for v, miss in cover.miss.items()}
    return TeamPlan(paths=[tuple(p) for p in paths], profiles=profiles, objective=cover.value(), node_visit_prob=x)


def discrete_derivative(g: SurvivalGraph, candidate, existing) -> float:
    """Marginal gain of adding candidate to an existing set of paths.

    Equals sum_j E[z_j(candidate)] d_j prod_k (1 - E[z_j(rho_k)]), which is
    exactly the objective difference.
    """
    cover = node_coverage(g, [visit_profile(g, p) for p in existing])
    return cover.gain(visit_profile(g, candidate).visit_prob.items())


class VisitCounts:
    """Per node in g.node_ids order, P(exactly m of the robots so far visit it), m = 0..robots: one row of c each.

    fold runs the Poisson-binomial DP's per-node loop, dp[m] = dp[m] * q +
    dp[m - 1] * p for m = robots..1 and then dp[0] *= q, as whole-row ops on
    the path's rows: the same products and sums, so the same floats. value
    and next_reward read table (the m-th visit to j pays table[j][m - 1],
    checked once here) and add left to right from 0.0, never pairwise.
    tests/oracles.py keeps the per-node loops as the reference.
    """

    def __init__(self, g: SurvivalGraph, table, M: int, profiles):
        rising = [v for v, row in table.items() if any(b > a + 1e-15 for a, b in zip(row, row[1:M]))]
        if rising:
            raise ValueError(f"multi-visit rewards for node {rising[0]} increase with visit count")
        self.index = g.index
        self.rows = [g.index[v] for v in g.node_ids if v in table]
        self.d = np.array([table[v][:M] for v in g.node_ids if v in table], dtype=float).reshape(len(self.rows), M)
        self.c = np.ones((g.num_nodes, 1))
        self.fold(profiles)

    def fold(self, profiles) -> None:
        for pr in profiles:
            rows = [self.index[v] for v in pr.visit_prob]
            p = np.array(list(pr.visit_prob.values()))[:, None]
            q = 1.0 - p
            new = np.zeros((len(self.c), self.c.shape[1] + 1))
            new[:, :-1] = self.c
            old = new[rows]
            new[rows, 1:] = old[:, 1:] * q + old[:, :-1] * p
            new[rows, :1] = old[:, :1] * q
            self.c = new

    def value(self) -> float:
        """sum_j sum_m table[j][m-1] * P(at least m visits to j), row-major over the table's nodes."""
        top = min(self.d.shape[1], self.c.shape[1] - 1)
        at_least = np.cumsum(self.c[self.rows, ::-1], axis=1)[:, ::-1]
        return ordered_sum((self.d[:, :top] * at_least[:, 1:top + 1]).ravel().tolist())

    def next_reward(self) -> np.ndarray:
        """Per table node, what one more visit pays in expectation: sum_m table[j][m] * P(exactly m visits)."""
        c = self.c[self.rows]
        total = np.zeros(len(self.rows))
        for m in range(min(self.d.shape[1], c.shape[1])):
            total += self.d[:, m] * c[:, m]
        return total


def visit_count_distribution(g: SurvivalGraph, profiles) -> dict[int, np.ndarray]:
    """Per node, P(exactly m robots visit) for m = 0..q: Poisson-binomial in the robots' visit chances."""
    return dict(zip(g.node_ids, VisitCounts(g, {}, 0, profiles).c))


def multi_visit_objective(g: SurvivalGraph, paths, table, M: int) -> float:
    """Value when the m-th visit to node j pays table[j][m-1].

    Rows must be non-increasing in m (diminishing returns); the value is
    sum_j sum_m table[j][m-1] * P(at least m visits to j).
    """
    return VisitCounts(g, table, M, [visit_profile(g, p) for p in paths]).value()


def edge_team_objective(g: SurvivalGraph, paths, rewards) -> float:
    """Expected reward over edges traversed by at least one robot."""
    for e in rewards:
        if e not in g.survival:
            raise ValueError(f"reward on missing edge {e}")
    cover = Coverage(rewards)
    for p in paths:
        cover.fold(visit_profile(g, p).crossings)
    return cover.value()


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
        u = rng.random((rows, width))
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
