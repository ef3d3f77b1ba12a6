"""Sequential greedy team planning on the linearized objective.

Each robot in turn gets the path maximizing an optimistic reward: node j is
worth zeta_j times the expected value still uncollected at j, where zeta_j
is the best single-robot visit probability. After a path is chosen, the
weight of every node it visits shrinks by that path's probability of the
visit, and the next robot plans against the updated weights. With an exact
oracle the plan is within a 1 - exp(-p_s) factor of the best K-path team,
and oversized runs tighten that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    InfeasibleInstanceError,
    LogGraph,
    SizeGuardError,
    SurvivalGraph,
    has_feasible_path,
    log_transform,
    max_visit_probabilities,
    ordered_sum,
)
from .objective import TeamPlan, VisitCounts, array_sum, node_coverage, team_plan, visit_profile
from .orienteering import _Steps, solve_arc_exact, solve_exact, solve_heuristic
# Not called here, but perfbench/tracing.py wraps them at tso.greedy.
from .graph import feasibility_check  # noqa: F401
from .objective import discrete_derivative, edge_team_objective, multi_visit_objective, visit_count_distribution  # noqa: F401

# A run plans at most this many paths. Each path costs an oracle call and
# is kept, so a team_size or oversize of 2**70, which a file or the command
# line may give, would run without end. The benchmark plans at most 36.
MAX_PATHS = 1000


@dataclass
class GreedyConfig:
    team_size: int
    oversize: int | None = None
    oracle: str = "exact"
    variant: str = "node"
    seed: int = 0

    def __post_init__(self):
        if self.team_size < 1:
            raise ValueError("team size must be >= 1")
        if self.oversize is not None and self.oversize < self.team_size:
            raise ValueError("oversize must be >= team size")
        if self.oracle not in ("exact", "heuristic"):
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "edge" and self.oracle != "exact":
            raise ValueError("edge-reward planning requires the exact oracle")
        if self.total_paths > MAX_PATHS:
            raise SizeGuardError(f"greedy planning limited to {MAX_PATHS} paths, asked for {self.total_paths}")

    @property
    def total_paths(self) -> int:
        return self.oversize if self.oversize is not None else self.team_size


@dataclass
class GreedyResult:
    config: GreedyConfig
    lg: LogGraph  # the log graph the run planned on; its bounds read the same one
    model: RewardModel  # the run's reward model; its bounds read its caps
    paths: list[tuple[int, ...]]
    gains: list[float]
    values: list[float]  # values[k]: the variant's value of paths[:k + 1]
    plan: TeamPlan

    @property
    def variant_value(self) -> float | None:
        """The variant's value of the team paths; None for the node variant, whose value is the plan's objective."""
        return None if self.config.variant == "node" else self.values[self.config.team_size - 1]


@dataclass
class BoundCertificate:
    u1: float
    u2: float
    u3: float
    factor: float
    value: float  # the team's value, which u2 divides by factor
    certified: bool

    @property
    def upper(self) -> float:
        return min(self.u1, self.u2, self.u3)


# ---------------------------------------------------------------------------
# Reward models: everything that differs between the variants.

class RewardModel:
    """One reward variant and the paths chosen so far.

    It supplies rewards(), the next robot's oracle rewards as float64, by
    node index or in _Steps.arcs order (the model's own array where it
    keeps one: no oracle writes into it), update(profile), which takes in
    an added path's visit profile, appends the variant's
    value of the paths so far to values and returns the path's true gain
    (the change in that value), and the U1 caps: one (a, extra, b, p, d)
    per reward d a walk start ~> a, extra, b ~> terminal could collect with
    chance <= p. caps reads only state that never changes after
    construction (ζ, the priorities, the edge table, the multi-visit rows),
    so a run's own model gives the same caps after any number of paths.
    """

    def __init__(self, lg: LogGraph):
        self.g = g = lg.graph
        self.zeta = zeta = max_visit_probabilities(lg)
        self.z = np.array([zeta[j] for j in g.node_ids])  # zeta by node index
        self.paths: list[tuple[int, ...]] = []
        self.values: list[float] = []
        # A visit counts from step 1, so the start only on depot tours.
        self.visitable = [j for j in g.node_ids if j != g.start or g.start == g.terminal]

    def add(self, path) -> float:
        """Record the next robot's path and return its true marginal gain."""
        prof = visit_profile(self.g, path)
        self.paths.append(prof.path)
        return self.update(prof)

    def advance(self, value) -> float:
        """Record value as the value of the paths so far; return the gain over the last one."""
        gain = value - (self.values[-1] if self.values else 0.0)
        self.values.append(value)
        return gain


class NodeRewards(RewardModel):
    """Node j pays its priority once, to the first robot that visits it: J itself."""

    def __init__(self, lg: LogGraph):
        super().__init__(lg)
        self.nu = self.z * [self.g.priority(j) for j in self.g.node_ids]
        self.cover = node_coverage(self.g, [])

    def rewards(self):
        return self.nu

    def update(self, prof) -> float:
        # Through a memoryview, each item is a Python float: the same products
        # as numpy's, at a third of its per-item cost.
        nu, idx = self.nu.data, self.g.index
        for n in range(1, len(prof.path)):
            nu[idx[prof.path[n]]] *= 1.0 - prof.survival_prefix[n]
        # discrete_derivative's sum of d * z * miss, not a difference of values.
        gain = self.cover.gain(prof.visit_prob.items())
        self.cover.fold(prof.visit_prob.items())
        self.values.append(self.cover.value())
        return gain

    def caps(self, lg, team_size):
        return [(j, 0.0, j, self.zeta[j], self.g.priority(j)) for j in self.visitable]


class EdgeRewards(RewardModel):
    """Edge (u, v) pays d_uv once, to the first robot that survives across it.

    Its miss chances are a float64 vector in table order, folded in place as
    Coverage.fold folds them; array_sum gives Coverage.value's float.
    """

    def __init__(self, lg: LogGraph):
        super().__init__(lg)
        g, arcs = self.g, lg.table(_Steps).arcs
        self.table = dict(g.edge_rewards) if g.edge_rewards is not None else {(u, v): 1.0 for u, v, _w in g.edges}
        # Per rewarded arc, its position in the table and in arcs, the order of the oracle's array; a reward off the arcs raises KeyError.
        pos = {e: k for k, e in enumerate(arcs)}
        self.at = {e: (k, pos[e]) for k, e in enumerate(self.table)}
        self.d = np.array(list(self.table.values()), dtype=float)
        self.miss = np.ones(len(self.d))
        self.w = np.zeros(len(arcs))
        self.w[[pos[e] for e in self.table]] = [self.zeta[u] * g.survival[(u, v)] * d for (u, v), d in self.table.items()]

    def rewards(self):
        return self.w

    def update(self, prof) -> float:
        miss, w = self.miss.data, self.w.data  # item updates as in NodeRewards.update
        for e, a in prof.crossings:
            if e in self.at:  # an unrewarded arc keeps its 0.0 weight
                k, i = self.at[e]
                miss[k] *= 1.0 - a
                w[i] *= 1.0 - a
        return self.advance(array_sum(self.d * (1.0 - self.miss)))

    def caps(self, lg, team_size):
        # A robot traverses (u, v) with probability at most zeta_u * omega.
        zeta, survival, idx = self.zeta, self.g.survival, self.g.index
        return [(u, lg.out[idx[u]][idx[v]], v, zeta[u] * survival[(u, v)], d) for (u, v), d in self.table.items()]


class MultiVisitRewards(RewardModel):
    """The m-th robot to visit node j pays d_j[m-1]."""

    def __init__(self, lg: LogGraph):
        super().__init__(lg)
        self.mv = self.g.multi_visit
        if self.mv is None or any(j not in self.mv.d for j in self.g.node_ids):
            raise ValueError("multi-visit planning needs a reward row for every node")
        self.counts = VisitCounts(self.g, self.mv.d, self.mv.M, [])

    def rewards(self):
        # Node j is worth zeta_j times its expected next-visit reward.
        return self.z * self.counts.next_reward()

    def update(self, prof) -> float:
        self.counts.fold([prof])
        return self.advance(self.counts.value())

    def caps(self, lg, team_size):
        # P(at least m robots visit) vanishes for m > K and is otherwise
        # at most the team visit probability.
        top = min(self.mv.M, team_size)
        return [(j, 0.0, j, self.zeta[j], ordered_sum(self.mv.d[j][:top])) for j in self.visitable]


MODELS = {"node": NodeRewards, "edge": EdgeRewards, "multi_visit": MultiVisitRewards}
VARIANTS = tuple(MODELS)


def _oracle_call(cfg: GreedyConfig, lg: LogGraph, rewards: np.ndarray, iteration: int):
    if cfg.variant == "edge":
        return solve_arc_exact(lg, rewards)
    if cfg.oracle == "exact":
        return solve_exact(lg, rewards)
    # Separate stream per iteration keeps later robots independent of how
    # many restarts earlier ones consumed.
    return solve_heuristic(lg, rewards, seed=(cfg.seed, iteration))


def greedy_survivors(g: SurvivalGraph, cfg: GreedyConfig) -> GreedyResult:
    """Plan total_paths paths one robot at a time.

    The first team_size paths are the team plan; extra paths only sharpen
    the oversized-team bound. Marginal gains are true objective increments
    of each path against its predecessors (for the active variant), and
    values[k] is the variant's value of the first k + 1 paths.
    """
    lg = log_transform(g)
    model = MODELS[cfg.variant](lg)
    if not has_feasible_path(lg):
        raise InfeasibleInstanceError("feasibility check found no start-terminal path within the survival budget")
    gains = [model.add(_oracle_call(cfg, lg, model.rewards(), k).path) for k in range(cfg.total_paths)]
    return GreedyResult(cfg, lg, model, model.paths, gains, model.values, team_plan(g, model.paths[: cfg.team_size]))


def compute_bounds(run: GreedyResult, team_size: int, total_paths: int) -> BoundCertificate:
    """Upper bounds on the best team_size-team value, read off a greedy run and its LogGraph.

    u1 caps each reward by the chance that any of K independent robots
    collects it, 1 - (1 - p)^K for the model's single-robot cap p, and counts
    it only if the shortest way in plus the shortest way out fits the budget
    (every path collecting it induces such a walk); the start counts only on
    depot tours. u2 divides the value of the run's first K paths by
    1 - exp(-p_s), u3 that of its first total_paths by their larger factor;
    both values are the ones the run recorded as it planned.
    The caps are the run's own model's, and both distance trees are the
    ones kept on run.lg.
    Heuristic-oracle certificates are not certified: the factor arguments
    assume an exact subproblem solver. Raises ValueError where a factor
    rounds to 0.0, as it does for p_s below about 5.5e-17.
    """
    if not (1 <= team_size <= len(run.paths) and 1 <= total_paths <= len(run.paths)):
        raise ValueError(f"team_size {team_size} and total_paths {total_paths} must be in 1..{len(run.paths)}, the run's paths")
    lg, g, K = run.lg, run.lg.graph, team_size
    factor = 1.0 - math.exp(-g.p_s)
    factor3 = 1.0 - math.exp(-g.p_s * total_paths / K)
    if factor == 0.0 or factor3 == 0.0:
        raise ValueError(f"p_s {g.p_s!r} is too small for the bounds: 1 - exp(-p_s) rounds to 0.0")
    idx = g.index
    dist_in, dist_out = lg.tree(idx[g.start])[0], lg.tree(idx[g.terminal], reverse=True)[0]
    u1 = ordered_sum(
        (1.0 - (1.0 - p) ** K) * d
        for a, extra, b, p, d in run.model.caps(lg, K)
        if dist_in[idx[a]] + extra + dist_out[idx[b]] <= lg.limit
    )
    value = run.values[K - 1]
    return BoundCertificate(
        u1=u1,
        u2=value / factor,
        u3=run.values[total_paths - 1] / factor3,
        factor=factor,
        value=value,
        certified=run.config.oracle == "exact",
    )


def bounds_to_dict(cert: BoundCertificate) -> dict:
    return {
        "U1": cert.u1,
        "U2": cert.u2,
        "U3": cert.u3,
        "factor": cert.factor,
        "certified": cert.certified,
    }
