"""Survival-constrained team orienteering.

Plan paths for a team of robots on a graph whose edges may destroy the
robot that crosses them. Each robot must reach the terminal with
probability at least p_s; the team maximizes the expected priority-weighted
number of nodes visited by at least one surviving robot. The greedy
planner carries a computable upper bound, so every plan ships with a
worst-case optimality ratio.
"""

from .exact import brute_force_feasibility, enumerate_feasible_paths, solve_exact_tso
from .graph import (
    BUDGET_TOL,
    FeasibilityReport,
    InfeasibleInstanceError,
    MultiVisitTable,
    SizeGuardError,
    SurvivalGraph,
    dijkstra,
    feasibility_check,
    has_feasible_path,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    log_transform,
    max_visit_probabilities,
    save_instance,
    validate_instance,
)
from .greedy import (
    BoundCertificate,
    GreedyConfig,
    GreedyResult,
    bounds_to_dict,
    compute_bounds,
    greedy_survivors,
)
from .instances import feasible_random_instance, hex_instance, random_complete_instance
from .objective import (
    SimulationResult,
    TeamPlan,
    VisitProfile,
    discrete_derivative,
    edge_team_objective,
    multi_visit_objective,
    paths_from_plan_dict,
    plan_to_dict,
    simulate_team,
    team_objective,
    team_plan,
    team_visit_probability,
    visit_count_distribution,
    visit_profile,
)
from .orienteering import OracleResult, solve_arc_exact, solve_exact, solve_heuristic

__version__ = "0.1.0"

