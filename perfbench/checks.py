"""Output checks, recomputed from the instance file without importing tso.

The ``*_problems`` functions return a list of problems; an empty list means
the output passed. Tolerances are relative and far below any difference
two distinct plans make on these instances, so they absorb only summation
order.
"""

from __future__ import annotations

REL_TOL = 1e-9
SIM_SIGMAS = 5.0


class Instance:
    def __init__(self, doc: dict):
        self.nodes = [rec["id"] for rec in doc["nodes"]]
        self.priority = {rec["id"]: float(rec.get("priority", 1.0)) for rec in doc["nodes"]}
        self.survival = {(rec["from"], rec["to"]): float(rec["survival"]) for rec in doc["edges"]}
        self.start = doc["start"]
        self.terminal = doc["terminal"]
        self.p_s = float(doc["p_s"])
        mv = doc.get("multi_visit")
        self.multi_visit = dict(zip(self.nodes, mv["d"])) if mv else None
        self.edge_rewards = {(r["from"], r["to"]): float(r["d"]) for r in doc.get("edge_rewards", [])}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _prefixes(inst: Instance, path) -> list[float]:
    """Survival after each step; entry n is the chance the robot visits path[n]."""
    out = [1.0]
    for u, v in zip(path, path[1:]):
        out.append(out[-1] * inst.survival[(u, v)])
    return out


def path_problems(inst: Instance, path) -> list[str]:
    if not path or path[0] != inst.start:
        return [f"path {path} does not start at {inst.start}"]
    if path[-1] != inst.terminal:
        return [f"path {path} does not end at {inst.terminal}"]
    interior = path[:-1] if len(path) > 1 and path[-1] == path[0] else path
    if len(set(interior)) != len(interior):
        return [f"path {path} is not simple"]
    missing = [(u, v) for u, v in zip(path, path[1:]) if (u, v) not in inst.survival]
    if missing:
        return [f"path {path} uses missing edge {missing[0]}"]
    if _prefixes(inst, path)[-1] < inst.p_s * (1.0 - REL_TOL):
        return [f"path {path} survives with {_prefixes(inst, path)[-1]} < p_s {inst.p_s}"]
    return []


def team_value(inst: Instance, paths) -> float:
    """J: priority-weighted chance each node is visited (from step 1) by some robot."""
    miss = {v: 1.0 for v in inst.nodes}
    for p in paths:
        for v, z in zip(p[1:], _prefixes(inst, p)[1:]):
            miss[v] *= 1.0 - z
    return sum(inst.priority[v] * (1.0 - miss[v]) for v in inst.nodes)


def edge_value(inst: Instance, paths) -> float:
    miss = {e: 1.0 for e in inst.edge_rewards}
    for p in paths:
        for e, a in zip(zip(p, p[1:]), _prefixes(inst, p)[1:]):
            if e in miss:
                miss[e] *= 1.0 - a
    return sum(d * (1.0 - miss[e]) for e, d in inst.edge_rewards.items())


def multi_visit_value(inst: Instance, paths) -> float:
    """Sum over nodes of d[m-1] * P(at least m robots visit), Poisson-binomial counts."""
    visits = {v: [] for v in inst.nodes}
    for p in paths:
        for v, z in zip(p[1:], _prefixes(inst, p)[1:]):
            visits[v].append(z)
    total = 0.0
    for v, row in inst.multi_visit.items():
        dist = [1.0]
        for z in visits[v]:
            dist = [a * (1.0 - z) + b * z for a, b in zip(dist + [0.0], [0.0] + dist)]
        for m, d in enumerate(row, start=1):
            total += d * sum(dist[m:])
    return total


def variant_value(inst: Instance, paths, variant: str) -> float:
    """The value the certificate bounds: node J, or the edge / multi-visit objective."""
    if variant == "edge":
        return edge_value(inst, paths)
    if variant == "multi_visit":
        return multi_visit_value(inst, paths)
    return team_value(inst, paths)


def plan_problems(inst: Instance, plan: dict, *, oracle: str, variant: str, team: int, reference=None) -> list[str]:
    """Checks on a ``tso solve`` plan file; reference is {"J": .., "value": ..} or None.

    J is the plan's node objective. The bound certifies the active variant's
    value, so the upper-bound check uses that value of the team's paths.
    """
    paths = [tuple(p) for p in plan["paths"]]
    if len(paths) != team:
        return [f"{len(paths)} paths for a team of {team}"]
    problems = [msg for p in paths for msg in path_problems(inst, p)]
    if problems:
        return problems
    j = plan["objective"]
    recomputed = team_value(inst, paths)
    if not _close(j, recomputed):
        problems.append(f"plan J {j!r} != recomputed {recomputed!r}")
    bounds = plan["bounds"]
    upper = min(bounds["U1"], bounds["U2"], bounds["U3"])
    value = variant_value(inst, paths, variant)
    if value > upper * (1.0 + REL_TOL):
        problems.append(f"{variant} value {value!r} exceeds U {upper!r}")
    if bounds["certified"] is not (oracle == "exact"):
        problems.append(f"certified={bounds['certified']} under the {oracle} oracle")
    if reference is not None:
        if not _close(j, reference["J"]):
            problems.append(f"J {j!r} != reference {reference['J']!r}")
        if not _close(value, reference["value"]):
            problems.append(f"{variant} value {value!r} != reference {reference['value']!r}")
    return problems


def value_over_bound(inst: Instance, plan: dict, variant: str) -> float:
    """J/U: the variant value of the team's paths over the certified upper bound."""
    bounds = plan["bounds"]
    return variant_value(inst, [tuple(p) for p in plan["paths"]], variant) / min(bounds["U1"], bounds["U2"], bounds["U3"])


def variant_field_problems(inst: Instance, plan: dict, variant: str) -> list[str]:
    """Does the plan's ``variant_objective`` equal the variant value of its paths?

    With --oversize the program reports the value of all oversize paths
    next to the team's paths, so this is reported as a known defect, not
    counted as a failed op.
    """
    if variant == "node":
        return []
    value = variant_value(inst, [tuple(p) for p in plan["paths"]], variant)
    field = plan.get("variant_objective")
    if not isinstance(field, (int, float)) or not _close(field, value):
        return [f"variant_objective {field!r} != {variant} value of the plan's paths {value!r}"]
    return []


def simulation_problems(inst: Instance, sim: dict, j: float) -> list[str]:
    """The Monte-Carlo estimate must lie within SIM_SIGMAS standard errors of J.

    A floor of a few parts per trial count keeps a sample that never saw a
    rare event (zero standard error) from failing on that alone.
    """
    floor = 8.0 * sum(inst.priority.values()) / sim["trials"]
    gap = abs(sim["estimate"] - j)
    if gap > SIM_SIGMAS * sim["std_error"] + floor:
        return [f"simulate estimate {sim['estimate']!r} is {gap:.3g} from J {j!r} (se {sim['std_error']:.3g})"]
    return []
