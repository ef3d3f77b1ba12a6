"""Instance generators and the hexagonal benchmark preset."""

from __future__ import annotations

import numpy as np

from .graph import InfeasibleInstanceError, SurvivalGraph, has_feasible_path, log_transform
# Not called here, but perfbench/tracing.py wraps it at tso.instances.
from .graph import feasibility_check  # noqa: F401

HEX_SAFE = 0.98
HEX_RISKY = 0.91


def random_complete_instance(
    num_nodes: int,
    weight_min: float,
    weight_max: float,
    p_s: float,
    seed=0,
    team_size: int = 1,
) -> SurvivalGraph:
    """Complete digraph with independent uniform survival weights.

    Weights are drawn from [weight_min, weight_max) in fixed (source, sink)
    order, so a seed pins the instance exactly. Node 0 is the start, the
    last node the terminal; priorities are all 1.
    """
    if not (0.0 < weight_min <= weight_max <= 1.0):
        raise ValueError(f"bad weight range [{weight_min}, {weight_max}]")
    if not (0.0 < p_s <= 1.0):
        raise ValueError(f"p_s {p_s} out of (0,1]")
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    ids = list(range(num_nodes))
    weights = iter(rng.uniform(weight_min, weight_max, num_nodes * (num_nodes - 1)).tolist())
    edges = [(u, v, next(weights)) for u in ids for v in ids if u != v]
    return SurvivalGraph(
        node_ids=ids,
        priorities={v: 1.0 for v in ids},
        edges=edges,
        start=0,
        terminal=num_nodes - 1,
        p_s=p_s,
        team_size=team_size,
    )


def feasible_random_instance(
    num_nodes: int,
    weight_min: float,
    weight_max: float,
    p_s: float,
    seed=0,
    team_size: int = 1,
    max_attempts: int = 10000,
) -> SurvivalGraph:
    """Random complete instance with at least one start-terminal path in budget.

    Tight thresholds reject most weight draws outright (at p_s = 0.95 only
    about one complete graph in ten admits any feasible path), so this
    walks the fixed attempt sequence (seed, 0), (seed, 1), ... and returns
    the first feasible draw. Deterministic for a given seed.
    """
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    for attempt in range(max_attempts):
        g = random_complete_instance(
            num_nodes, weight_min, weight_max, p_s,
            seed=base + (attempt,), team_size=team_size,
        )
        if has_feasible_path(log_transform(g)):
            return g
    raise InfeasibleInstanceError(
        f"no feasible draw in {max_attempts} attempts for p_s={p_s} seed={seed}"
    )


def hex_edges() -> list[tuple[int, int, float]]:
    """Undirected edge set of the 19-node hexagonal benchmark graph.

    Layout (this list is the authoritative definition of the preset):
      node 0       the central depot
      nodes 1..6   inner hexagon ring, in ring order
      nodes 7..18  outer ring of twelve, in ring order, with outer node 7
                   adjacent to inner node 1

    Connectivity: the center joins each inner node with the safe weight;
    both rings close on themselves; inner node i also joins the three outer
    nodes at ring positions 2(i-1)-1, 2(i-1), 2(i-1)+1 (mod 12). Everything
    except the center spokes carries the risky weight.
    """
    edges = []
    for i in range(1, 7):
        edges.append((0, i, HEX_SAFE))
        edges.append((i, i % 6 + 1, HEX_RISKY))
        for p in (2 * (i - 1) - 1, 2 * (i - 1), 2 * (i - 1) + 1):
            edges.append((i, 7 + p % 12, HEX_RISKY))
    for p in range(12):
        edges.append((7 + p, 7 + (p + 1) % 12, HEX_RISKY))
    return edges


def hex_instance(p_s: float = 0.70, team_size: int = 1) -> SurvivalGraph:
    """The hexagonal depot-return benchmark: start and terminal at the center."""
    ids = list(range(19))
    directed = []
    for u, v, w in hex_edges():
        directed.append((u, v, w))
        directed.append((v, u, w))
    directed.sort(key=lambda e: (e[0], e[1]))
    return SurvivalGraph(
        node_ids=ids,
        priorities={v: 1.0 for v in ids},
        edges=directed,
        start=0,
        terminal=0,
        p_s=p_s,
        team_size=team_size,
    )
