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

from .graph import (
    BUDGET_TOL,
    InfeasibleInstanceError,
    SurvivalGraph,
    has_feasible_path,
    log_transform,
    max_visit_probabilities,
)
# feasibility_check, discrete_derivative and visit_count_distribution are
# not called here, but perfbench/tracing.py wraps them at tso.greedy.
from .graph import feasibility_check  # noqa: F401
from .objective import (  # noqa: F401
    TeamPlan,
    discrete_derivative,
    edge_team_objective,
    fold_visit_counts,
    multi_visit_objective,
    multi_visit_value,
    profile_gain,
    team_plan,
    visit_count_distribution,
    visit_profile,
)
from .orienteering import OrienteeringProblem, solve_arc_exact, solve_exact, solve_heuristic


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

    @property
    def total_paths(self) -> int:
        return self.oversize if self.oversize is not None else self.team_size


@dataclass
class GreedyResult:
    config: GreedyConfig
    paths: list[tuple[int, ...]]
    gains: list[float]
    plan: TeamPlan
    variant_value: float | None = None

    @property
    def team_paths(self):
        return self.paths[: self.config.team_size]

    @property
    def team_gains(self):
        return self.gains[: self.config.team_size]


@dataclass
class BoundCertificate:
    u1: float
    u2: float
    u3: float
    factor: float
    oversize_factor: float
    certified: bool

    @property
    def upper(self) -> float:
        return min(self.u1, self.u2, self.u3)


# ---------------------------------------------------------------------------
# Reward models: everything that differs between the variants.

class RewardModel:
    """One reward variant and the paths chosen so far.

    It supplies the next robot's oracle problem, update(profile), which
    takes in an added path's visit profile and returns its true gain (the
    change in the variant's value), the value of a set of paths, and the U1
    caps: one (a, extra, b, p, d) per reward d a walk start ~> a, extra,
    b ~> terminal could collect with chance <= p.
    """

    def __init__(self, g: SurvivalGraph, zeta):
        self.g = g
        self.zeta = zeta
        self.paths: list[tuple[int, ...]] = []
        self.total = 0.0
        # A visit counts from step 1, so the start only on depot tours.
        self.visitable = [j for j in g.node_ids if j != g.start or g.start == g.terminal]

    def add(self, path) -> float:
        """Record the next robot's path and return its true marginal gain."""
        prof = visit_profile(self.g, path)
        gain = self.update(prof)
        self.paths.append(prof.path)
        return gain

    def advance(self, new_value) -> float:
        """Gain from the value of the paths so far to new_value, which becomes that value."""
        gain, self.total = new_value - self.total, new_value
        return gain


class NodeRewards(RewardModel):
    """Node j pays its priority once, to the first robot that visits it: J itself."""

    def __init__(self, g: SurvivalGraph, zeta):
        super().__init__(g, zeta)
        self.nu = {j: zeta[j] * g.priority(j) for j in g.node_ids}
        self.profiles = []

    def problem(self, lg) -> OrienteeringProblem:
        return OrienteeringProblem(lg, rewards=dict(self.nu))

    def update(self, prof) -> float:
        for n in range(1, len(prof.path)):
            self.nu[prof.path[n]] *= 1.0 - prof.survival_prefix[n]
        gain = profile_gain(self.g, prof, self.profiles)
        self.profiles.append(prof)
        return gain

    def value(self, paths) -> float:
        return team_plan(self.g, paths).objective

    def caps(self, lg, team_size):
        return [(j, 0.0, j, self.zeta[j], self.g.priority(j)) for j in self.visitable]


class EdgeRewards(RewardModel):
    """Edge (u, v) pays d_uv once, to the first robot that survives across it."""

    def __init__(self, g: SurvivalGraph, zeta):
        super().__init__(g, zeta)
        self.table = dict(g.edge_rewards) if g.edge_rewards else {(u, v): 1.0 for u, v, _w in g.edges}
        self.w = {(u, v): zeta[u] * g.survival[(u, v)] * d for (u, v), d in self.table.items()}
        # Per rewarded edge, the chance that no robot so far has crossed it.
        self.miss = dict.fromkeys(self.table, 1.0)

    def problem(self, lg) -> OrienteeringProblem:
        return OrienteeringProblem(lg, edge_rewards=dict(self.w))

    def update(self, prof) -> float:
        path = prof.path
        for e, a in zip(zip(path, path[1:]), prof.survival_prefix[1:]):
            if e in self.w:
                self.w[e] *= 1.0 - a
                self.miss[e] *= 1.0 - a
        # An edge off the path keeps its miss (x * (1.0 - 0.0) == x), so this
        # is edge_team_objective of every path so far, float for float.
        total = 0.0
        for e, d in self.table.items():
            total += d * (1.0 - self.miss[e])
        return self.advance(total)

    def value(self, paths) -> float:
        return edge_team_objective(self.g, paths, self.table)

    def caps(self, lg, team_size):
        # A robot traverses (u, v) with probability at most zeta_u * omega.
        zeta, survival = self.zeta, self.g.survival
        return [(u, lg.costs[(u, v)], v, zeta[u] * survival[(u, v)], d) for (u, v), d in self.table.items()]


class MultiVisitRewards(RewardModel):
    """The m-th robot to visit node j pays d_j[m-1]."""

    def __init__(self, g: SurvivalGraph, zeta):
        if g.multi_visit is None or any(j not in g.multi_visit.d for j in g.node_ids):
            raise ValueError("multi-visit planning needs a reward row for every node")
        super().__init__(g, zeta)
        self.mv = g.multi_visit
        # Per node, P(exactly m of the robots so far visit it), one robot folded in at a time.
        self.counts = {j: [1.0] for j in g.node_ids}

    def problem(self, lg) -> OrienteeringProblem:
        # Node j is worth zeta_j times its expected next-visit reward.
        nu = {}
        for j in self.g.node_ids:
            row, dp = self.mv.d[j], self.counts[j]
            nu[j] = self.zeta[j] * sum(row[m] * dp[m] for m in range(min(self.mv.M, len(dp))))
        return OrienteeringProblem(lg, rewards=nu)

    def update(self, prof) -> float:
        fold_visit_counts(self.counts, prof)
        return self.advance(multi_visit_value(self.g, self.counts, self.mv.d, self.mv.M))

    def value(self, paths) -> float:
        return multi_visit_objective(self.g, paths, self.mv.d, self.mv.M)

    def caps(self, lg, team_size):
        # P(at least m robots visit) vanishes for m > K and is otherwise
        # at most the team visit probability.
        top = min(self.mv.M, team_size)
        return [(j, 0.0, j, self.zeta[j], sum(self.mv.d[j][:top])) for j in self.visitable]


MODELS = {"node": NodeRewards, "edge": EdgeRewards, "multi_visit": MultiVisitRewards}
VARIANTS = tuple(MODELS)


def _oracle_call(cfg: GreedyConfig, problem: OrienteeringProblem, iteration: int):
    if problem.edge_rewards is not None:
        if cfg.oracle != "exact":
            raise ValueError("edge-reward planning requires the exact oracle")
        return solve_arc_exact(problem)
    if cfg.oracle == "exact":
        return solve_exact(problem)
    # Separate stream per iteration keeps later robots independent of how
    # many restarts earlier ones consumed.
    return solve_heuristic(problem, seed=(cfg.seed, iteration))


def greedy_survivors(g: SurvivalGraph, cfg: GreedyConfig) -> GreedyResult:
    """Plan total_paths paths one robot at a time.

    The first team_size paths are the team plan; extra paths only sharpen
    the oversized-team bound. Marginal gains are true objective increments
    of each path against its predecessors (for the active variant), and
    variant_value is the variant's value of the team paths (None for the
    node variant, whose value is the plan's objective).
    """
    lg = log_transform(g)
    model = MODELS[cfg.variant](g, max_visit_probabilities(lg))
    if not has_feasible_path(lg):
        raise InfeasibleInstanceError("feasibility check found no start-terminal path within the survival budget")
    gains = [model.add(_oracle_call(cfg, model.problem(lg), k).path) for k in range(cfg.total_paths)]
    team = model.paths[: cfg.team_size]
    variant_value = None if isinstance(model, NodeRewards) else model.value(team)
    return GreedyResult(cfg, model.paths, gains, team_plan(g, team), variant_value)


def compute_bounds(g: SurvivalGraph, cfg: GreedyConfig, paths) -> BoundCertificate:
    """Upper bounds on the best achievable K-team value, given greedy's paths.

    paths holds cfg.total_paths greedy paths, the team's first. u1 caps each
    reward by the chance that any of K independent robots collects it: no
    robot exceeds the model's single-robot cap p, so the team collects it
    with probability at most 1 - (1 - p)^K. A reward counts only if some
    budget-feasible walk reaches it (shortest way in plus shortest way out
    fits the budget; every path collecting it induces such a walk), and the
    start is excluded unless the instance is a depot tour (it is only
    visitable by returning). u2 divides the greedy value by the team factor
    1 - exp(-p_s); u3 does the same with the oversized run and its larger
    factor. Certificates from heuristic oracles are not certified: the
    factor arguments assume an exact subproblem solver.
    """
    K = cfg.team_size
    factor = 1.0 - math.exp(-g.p_s)
    oversize_factor = 1.0 - math.exp(-g.p_s * cfg.total_paths / K)

    lg = log_transform(g)
    model = MODELS[cfg.variant](g, max_visit_probabilities(lg))
    dist_in = lg.distances_from(g.start)
    dist_out = lg.distances_to(g.terminal)
    u1 = sum(
        (1.0 - (1.0 - p) ** K) * d
        for a, extra, b, p, d in model.caps(lg, K)
        if dist_in[a] + extra + dist_out[b] <= lg.budget + BUDGET_TOL
    )
    return BoundCertificate(
        u1=u1,
        u2=model.value(paths[:K]) / factor,
        u3=model.value(paths) / oversize_factor,
        factor=factor,
        oversize_factor=oversize_factor,
        certified=cfg.oracle == "exact",
    )


def bounds_to_dict(cert: BoundCertificate) -> dict:
    return {
        "U1": cert.u1,
        "U2": cert.u2,
        "U3": cert.u3,
        "factor": cert.factor,
        "certified": cert.certified,
    }
