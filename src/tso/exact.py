"""Exhaustive ground truth for small instances.

Enumerates every feasible path, then searches all K-multisets of them for
the best team objective, or reads off which nodes some feasible path visits.
Guards are hard errors: a ground-truth oracle must never silently
approximate.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from . import orienteering
from .graph import INF, InfeasibleInstanceError, SizeGuardError, SurvivalGraph, log_transform
from .objective import TeamPlan, team_plan, visit_profile


def _catalog(g: SurvivalGraph, max_nodes: int, what: str) -> orienteering.PrefixCatalog:
    """g's prefix catalog, whose leaves are its feasible paths.

    A path is feasible when its log cost is at most the LogGraph's limit, the
    test every oracle uses. Raises SizeGuardError, naming what, above
    max_nodes (callers may raise the limit deliberately; budget pruning is
    what actually keeps the search small) and when the catalog would exceed
    orienteering.CATALOG_CAP prefixes.
    """
    if g.num_nodes > max_nodes:
        raise SizeGuardError(f"{what} limited to {max_nodes} nodes, instance has {g.num_nodes}")
    cat = orienteering.prefix_catalog(log_transform(g))
    if cat is None:
        raise SizeGuardError(f"{what} limited to {orienteering.CATALOG_CAP} prefixes")
    return cat


def enumerate_feasible_paths(g: SurvivalGraph, max_nodes: int = 12) -> list[tuple[int, ...]]:
    """All start-terminal paths (at least one edge) meeting the survival bound.

    In the catalog's DFS order: lexicographic by node index.
    """
    return _catalog(g, max_nodes, "path enumeration").paths()


def brute_force_reachable(g: SurvivalGraph, max_nodes: int = 12) -> set:
    """Every node some feasible path visits after step 0: the heads of the arcs in the catalog's tiles.

    Every arc there, the sentinel aside, is a step of a feasible path, and
    every step of one is there, so no path is built. Reading the arcs a
    tile at a time keeps numpy's temporaries small.
    """
    cat = _catalog(g, max_nodes, "brute-force feasibility")
    return {cat.arcs[k][1] for _lo, tile in cat.tiles for k in np.unique(tile).tolist() if k < len(cat.arcs)}


def brute_force_feasibility(g: SurvivalGraph, node, max_nodes: int = 12) -> bool:
    """Exact reachability: does some feasible path visit node after step 0?"""
    return node in brute_force_reachable(g, max_nodes)


def solve_exact_tso(
    g: SurvivalGraph,
    team_size: int,
    max_nodes: int = 12,
    enumeration_limit: int = 10**7,
) -> TeamPlan:
    """Best K-multiset of feasible paths by exhaustive search.

    The objective only depends on the multiset, so enumeration runs over
    non-decreasing index tuples in lexicographic order, the first K-1
    indices from itertools and the last one vectorized. Ties go to the
    lexicographically smallest multiset. Guarded, before any visit profile
    is built, by catalog^K teams times K robots against the enumeration
    limit; a count too large for a float exceeds it.
    """
    if team_size < 1:
        raise ValueError("team size must be >= 1")
    paths = _catalog(g, max_nodes, "path enumeration").paths()
    n = len(paths)
    if n == 0:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    try:
        work = float(n) ** team_size * team_size
    except OverflowError:
        work = INF
    if work > enumeration_limit:
        raise SizeGuardError(
            f"{n}^{team_size} candidate teams times {team_size} robots exceed the enumeration limit {enumeration_limit}"
        )

    d = np.array([g.priority(v) for v in g.node_ids])
    miss = np.ones((n, g.num_nodes))
    for i, path in enumerate(paths):
        for v, z in visit_profile(g, path).visit_prob.items():
            miss[i, g.index[v]] = 1.0 - z
    weight_total = d.sum()

    best, team, head = -INF, None, None
    for chosen in combinations_with_replacement(range(n), team_size - 1):
        if chosen[:-1] != head:
            # The product over a new head, left to right; each of its
            # tuples multiplies its last index in.
            head, base = chosen[:-1], np.ones(g.num_nodes)
            for i in head:
                base = base * miss[i]
        first = chosen[-1] if chosen else 0
        prod = base * miss[first] if chosen else base
        vals = weight_total - (miss[first:] * prod) @ d
        i = int(np.argmax(vals))
        if float(vals[i]) > best:
            best, team = float(vals[i]), chosen + (first + i,)
    return team_plan(g, [paths[i] for i in team])
