"""Exhaustive ground truth, guarded by the work it does.

Enumerates every feasible path, then searches all K-multisets of them for
the best team objective, or reads off which nodes some feasible path visits.
Guards are hard errors raised before any path is built: a ground-truth
oracle must never silently approximate.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from . import orienteering
from .graph import INF, InfeasibleInstanceError, SizeGuardError, SurvivalGraph, log_transform
from .objective import TeamPlan, team_plan

# Candidate teams times robots that solve_exact_tso may score.
ENUMERATION_LIMIT = 10**7
# Cells of solve_exact_tso's (paths, nodes) float64 miss table: 128 MiB. A
# catalog holds at most CATALOG_CAP leaves, so this admits every graph of up
# to 16 nodes whose catalog fits.
TABLE_LIMIT = 1 << 24


def _catalog(g: SurvivalGraph, what: str) -> orienteering.PrefixCatalog:
    """g's prefix catalog, whose leaves are its feasible paths.

    A path is feasible when its log cost is at most the LogGraph's limit, the
    test every oracle uses. Raises SizeGuardError, naming what, above
    orienteering.CATALOG_CAP prefixes.
    """
    cat = orienteering.prefix_catalog(log_transform(g))
    if cat is None:
        raise SizeGuardError(f"{what} limited to {orienteering.CATALOG_CAP} prefixes")
    return cat


def enumerate_feasible_paths(g: SurvivalGraph) -> list[tuple[int, ...]]:
    """All start-terminal paths (at least one edge) meeting the survival bound.

    In the catalog's DFS order: lexicographic by node index.
    """
    return _catalog(g, "path enumeration").paths()


def brute_force_reachable(g: SurvivalGraph) -> set:
    """Every node some feasible path visits after step 0: the heads of the arcs in the catalog's tiles.

    Every arc there, the sentinel aside, is a step of a feasible path, and
    every step of one is there, so no path is built. Reading the arcs a
    tile at a time keeps numpy's temporaries small.
    """
    cat = _catalog(g, "brute-force feasibility")
    return {cat.arcs[k][1] for _lo, tile in cat.tiles for k in np.unique(tile).tolist() if k < len(cat.arcs)}


def brute_force_feasibility(g: SurvivalGraph, node) -> bool:
    """Exact reachability: does some feasible path visit node after step 0?"""
    return node in brute_force_reachable(g)


def solve_exact_tso(g: SurvivalGraph, team_size: int) -> TeamPlan:
    """Best K-multiset of feasible paths by exhaustive search.

    The objective only depends on the multiset, so enumeration runs over
    non-decreasing index tuples in lexicographic order, the first K-1
    indices from itertools and the last one vectorized. Ties go to the
    lexicographically smallest multiset. Guarded, before any path is built,
    by catalog^K teams times K robots against ENUMERATION_LIMIT (a count
    too large for a float exceeds it) and by the miss table's cells against
    TABLE_LIMIT.
    """
    if team_size < 1:
        raise ValueError("team size must be >= 1")
    cat = _catalog(g, "path enumeration")
    n = sum(cat.level_leaves)
    if n == 0:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    try:
        work = float(n) ** team_size * team_size
    except OverflowError:
        work = INF
    if work > ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"{n}^{team_size} candidate teams times {team_size} robots exceed the enumeration limit {ENUMERATION_LIMIT}"
        )
    if n * g.num_nodes > TABLE_LIMIT:
        raise SizeGuardError(f"{n} paths times {g.num_nodes} nodes exceed the table limit {TABLE_LIMIT} cells")

    paths = cat.paths()
    d = np.array([g.priority(v) for v in g.node_ids])
    miss = np.ones((n, g.num_nodes))
    for row, path in zip(miss, paths):  # visit_profile's running products: catalog paths are valid
        z = 1.0
        for a, b in zip(path, path[1:]):
            z *= g.survival[(a, b)]
            row[g.index[b]] = 1.0 - z
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
