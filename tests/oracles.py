"""Slow reference implementations, kept independent of the library code.

Everything here works straight off the instance data: simple-path DFS,
joint-outcome expectations, subset sums, and GRASP's scans without their
budget stops. The point
is to pin the fast implementations against code that shares none of their
machinery, so values these produce are frozen into tests as ground truth.

``simulate_team_reference`` is one exception: a verbatim copy of the
library's original trial-major Monte-Carlo loop, result type and path check
included. A random estimate has no brute-force value to pin, so any faster
loop is instead held to this one's exact output: the same stream, the same
chunks and the same ``repr`` of the result.

``branch_and_bound`` is another: a verbatim copy of the library's
recursive branch and bound, which once ran the exact oracle above its
catalog's cap and is now the audit reference for the catalog and for the
chunked search that replaced it, to the path and the reward's bits.
``random_skeleton`` is a third: GRASP's skeleton walk as it ran before its
states were kept in a trie, the reference for the trie's draws and
skeletons.

The multi-visit references at the end are the last: verbatim copies of the
library's original per-node loops over count lists. The brute-force value
agrees with them only to a tolerance, so the whole-table fold, value and
next rewards are held to these loops' floats instead.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from tso import orienteering
from tso.graph import INF, InfeasibleInstanceError, check_path, ordered_sum
from tso.objective import SimulationResult
from tso.orienteering import OracleResult

BUDGET_TOL = 1e-9


def edge_weights(g):
    return {(u, v): w for u, v, w in g.edges}


def _adjacency(g):
    adj: dict[int, list[int]] = {v: [] for v in g.node_ids}
    for u, v, _w in g.edges:
        adj[u].append(v)
    for u in adj:
        adj[u].sort()
    return adj


def survival(g, path) -> float:
    ew = edge_weights(g)
    s = 1.0
    for a, b in zip(path, path[1:]):
        s *= ew[(a, b)]
    return s


def log_cost(g, path) -> float:
    ew = edge_weights(g)
    return sum(-math.log(ew[(a, b)]) for a, b in zip(path, path[1:]))


def simple_paths_to(g, target):
    """All simple paths start -> target with at least one edge.

    Interior nodes never repeat and never revisit the start; the target is
    final only. When target == start this enumerates depot tours.
    """
    adj = _adjacency(g)
    out: list[tuple[int, ...]] = []

    def walk(path, seen):
        for v in adj[path[-1]]:
            if v == target:
                out.append(tuple(path) + (v,))
                continue
            if v in seen or v == g.start:
                continue
            walk(path + [v], seen | {v})

    walk([g.start], {g.start})
    return out


def feasible_paths(g):
    """Start-terminal paths whose log cost fits the budget."""
    budget = -math.log(g.p_s)
    return [
        p for p in simple_paths_to(g, g.terminal)
        if log_cost(g, p) <= budget + BUDGET_TOL
    ]


def best_visit_probability(g, node) -> float:
    """Max survival product over simple start -> node paths, return leg ignored."""
    if node == g.start:
        return 1.0
    best = 0.0
    for p in simple_paths_to(g, node):
        best = max(best, survival(g, p))
    return best


def robot_outcomes(g, path):
    """(visited frozenset, edge frozenset, completed, probability) per outcome.

    A robot either dies on its i-th edge or finishes the path. Visits count
    positions 1.. only, so a depot tour credits the start on the way back.
    """
    ew = edge_weights(g)
    outcomes = []
    alive = 1.0
    for i in range(1, len(path)):
        w = ew[(path[i - 1], path[i])]
        die = alive * (1.0 - w)
        if die > 0.0:
            outcomes.append((
                frozenset(path[1:i]),
                frozenset(zip(path[: i - 1], path[1:i])),
                False,
                die,
            ))
        alive *= w
    outcomes.append((
        frozenset(path[1:]),
        frozenset(zip(path, path[1:])),
        True,
        alive,
    ))
    return outcomes


def team_objective_brute(g, paths) -> float:
    """Expected priority-weighted count of nodes visited by anyone."""
    per_robot = [robot_outcomes(g, p) for p in paths]
    total = 0.0
    for combo in itertools.product(*per_robot):
        prob = 1.0
        visited = set()
        for nodes, _edges, _done, p in combo:
            prob *= p
            visited |= nodes
        total += prob * sum(g.priorities[j] for j in visited)
    return total


def visit_probability_brute(g, paths, node) -> float:
    per_robot = [robot_outcomes(g, p) for p in paths]
    hit = 0.0
    for combo in itertools.product(*per_robot):
        prob = 1.0
        seen = False
        for nodes, _edges, _done, p in combo:
            prob *= p
            seen = seen or node in nodes
        if seen:
            hit += prob
    return hit


def multi_visit_objective_brute(g, paths, table, M) -> float:
    """Expected reward when the m-th distinct visit of j pays table[j][m-1]."""
    per_robot = [robot_outcomes(g, p) for p in paths]
    total = 0.0
    for combo in itertools.product(*per_robot):
        prob = 1.0
        counts: dict[int, int] = {}
        for nodes, _edges, _done, p in combo:
            prob *= p
            for j in nodes:
                counts[j] = counts.get(j, 0) + 1
        value = 0.0
        for j, c in counts.items():
            row = table.get(j, [])
            value += sum(row[: min(c, M)])
        total += prob * value
    return total


def edge_objective_brute(g, paths, rewards) -> float:
    """Expected reward over edges traversed by at least one robot."""
    per_robot = [robot_outcomes(g, p) for p in paths]
    total = 0.0
    for combo in itertools.product(*per_robot):
        prob = 1.0
        used = set()
        for _nodes, edges, _done, p in combo:
            prob *= p
            used |= edges
        total += prob * sum(rewards.get(e, 0.0) for e in used)
    return total


def survival_probability_brute(g, path) -> float:
    """Chance the robot completes the whole path."""
    return sum(p for _n, _e, done, p in robot_outcomes(g, path) if done)


def poisson_binomial_brute(probs):
    """Distribution of the number of successes, by subset enumeration."""
    n = len(probs)
    dist = [0.0] * (n + 1)
    for mask in range(1 << n):
        p = 1.0
        k = 0
        for i in range(n):
            if mask >> i & 1:
                p *= probs[i]
                k += 1
            else:
                p *= 1.0 - probs[i]
        dist[k] += p
    return dist


def path_reward(path, rewards) -> float:
    return sum(rewards.get(j, 0.0) for j in set(path[1:]))


def orienteering_brute(g, rewards):
    """(best reward, all maximizing paths) over the feasible catalog."""
    best = -1.0
    arg: list[tuple[int, ...]] = []
    for p in feasible_paths(g):
        r = path_reward(p, rewards)
        if r > best + 1e-12:
            best, arg = r, [p]
        elif abs(r - best) <= 1e-12:
            arg.append(p)
    return best, arg


def arc_orienteering_brute(g, rewards):
    best = -1.0
    arg: list[tuple[int, ...]] = []
    for p in feasible_paths(g):
        r = sum(rewards.get(e, 0.0) for e in set(zip(p, p[1:])))
        if r > best + 1e-12:
            best, arg = r, [p]
        elif abs(r - best) <= 1e-12:
            arg.append(p)
    return best, arg


def _node_table(lg, v, items, step_item, bit, dist_to_t):
    """Bound items (need, head bit, k) and steps (u, cost, dist_to_t[u], bit of u, k) of node v."""
    dv = lg.distances_from(v)
    bound = [(dv[a] + extra + dist_to_t[b], bit[b], k) for k, (a, extra, b) in enumerate(items)]
    steps = [(u, w, dist_to_t[u], bit[u], step_item[(v, u)]) for u, w in lg.costs[v].items()]
    return bound, steps


def branch_and_bound(p, kind="node", use_reward_bound=False):
    """Depth-first branch and bound shared by node ("node") and arc ("arc") rewards.

    With use_reward_bound=False it is the reference the catalog and the
    bounded search are checked against.

    Item k is (a, extra, b), paid reward[k]: one (j, 0.0, j) per node in
    index order, or one (a, cost(a, b), b) per arc in (tail, head) index order. It is a
    reward that a walk v ~> a, then extra, then b ~> terminal could still
    collect, at a need of dist(v, a) + extra + dist(b, terminal); a step
    v -> u pays its own item. An item whose head b is already visited (and
    is not the terminal) is out of reach, because a simple path never
    re-enters a visited node. A node's table of needs and steps is built on
    its first expansion and kept for the rest of the call. Visited nodes
    form an int bitmask in which the terminal's bit is 0.

    Children are explored in ascending node-index order and the incumbent
    only improves strictly, so the first maximizer reached is the
    lexicographically smallest one. Pruning: (a) the cheapest completion
    exceeds the remaining budget, (b) current reward plus every item still
    in reach cannot beat the incumbent; it can be disabled for audits.
    Every budget test keeps one float expression.

    Rule (b) holds in floats too. A completion pays collected plus some of
    the terms the bound adds, so its exact sum is at most the bound's. Both
    floats are left-to-right sums of at most N = len(items) terms >= 0 after
    collected, each within a factor 1 +- N*u/(1 - N*u) of its exact sum (u =
    2^-53), so the completion's is at most bound * (1 + 4N*u). Rule (b)
    prunes only when bound * (1 + 8N*u), the slack factor exact in a float,
    is at most the incumbent; rounding the product loses at most a factor
    1 - u. Without the slack, 1e-16 + 1.0 + 1e-16 in item order gave 1.0 and
    pruned a path that collects 1e-16 + 1e-16 + 1.0 = 1.0000000000000002.
    """
    lookup = ((p.rewards if kind == "node" else p.edge_rewards) or {}).get
    lg = p.lg
    g = lg.graph
    start, terminal, budget, limit = g.start, g.terminal, lg.budget, lg.limit
    depot = start == terminal
    dist_to_t = lg.distances_to(terminal)
    idx = g.index
    arcs = [(v, u) for v, row in lg.costs.items() for u in row]
    if kind == "node":
        keys, items = g.node_ids, [(j, 0.0, j) for j in g.node_ids]
        step_item = {(a, b): idx[b] for a, b in arcs}
    else:
        keys, items = arcs, [(a, lg.costs[a][b], b) for a, b in arcs]
        step_item = {e: k for k, e in enumerate(arcs)}
    bit = {v: 0 if v == terminal else 1 << i for i, v in enumerate(g.node_ids)}
    reward = [lookup(key, 0.0) for key in keys]
    slack = 1.0 + len(items) * 2.0 ** -50
    tables = {}

    # A depot robot may stay home; an open path has no incumbent yet.
    best_reward, best_path = (0.0, (start,)) if depot else (-INF, None)
    expanded = 0

    def dfs(v, cost, collected, visited, path):
        nonlocal best_reward, best_path, expanded
        expanded += 1
        try:
            bound_items, steps = tables[v]
        except KeyError:
            bound_items, steps = tables[v] = _node_table(lg, v, items, step_item, bit, dist_to_t)
        if use_reward_bound:
            bound = collected
            room = budget - cost + BUDGET_TOL
            for need, head, k in bound_items:
                if need <= room and not visited & head:
                    bound += reward[k]
            if bound * slack <= best_reward:
                return
        for u, w, to_t, b, k in steps:
            if visited & b:
                continue
            c = cost + w
            if u == terminal:
                if c <= limit:
                    r = collected + reward[k]
                    if r > best_reward:
                        best_reward = r
                        best_path = tuple(path) + (u,)
                continue
            if c + to_t > limit:
                continue
            path.append(u)
            dfs(u, c, collected + reward[k], visited | b, path)
            path.pop()

    try:
        dfs(start, 0.0, 0.0, bit[start], [start])
    finally:
        dfs = None  # the closure refers to itself; drop the cycle now, not at the next GC
    if best_path is None:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    return OracleResult(path=best_path, reward=best_reward, exact=True, nodes_expanded=expanded)


def best_team_brute(g, team_size):
    """(best objective, lexicographically smallest maximizing multiset)."""
    catalog = sorted(feasible_paths(g))
    best = -1.0
    arg = None
    for combo in itertools.combinations_with_replacement(catalog, team_size):
        j = team_objective_brute(g, list(combo))
        if j > best + 1e-12:
            best, arg = j, combo
        elif abs(j - best) <= 1e-12 and combo < arg:
            arg = combo
    return best, arg


def node_truly_visitable(g, node) -> bool:
    """Does any feasible path visit node at a step past the start?"""
    return any(node in p[1:] for p in feasible_paths(g))


def log_costs(g):
    """Arc costs -ln(survival): the same floats the library's log graph holds."""
    return {(u, v): -math.log(w) for u, v, w in g.edges}


def grasp_insertions(g, rewards, path, cost, visited):
    """GRASP's feasible (node, position, delta) insertions by a full scan.

    Every positive-reward node off the path, in node_ids order, against
    every path arc in order; delta is aj + jb - ab, kept when cost + delta
    fits the budget.
    """
    c = log_costs(g)
    limit = -math.log(g.p_s) + BUDGET_TOL
    out = []
    for j in g.node_ids:
        if j in visited or rewards.get(j, 0.0) <= 0.0:
            continue
        for i, (a, b) in enumerate(zip(path, path[1:])):
            if (a, j) in c and (j, b) in c:
                delta = c[(a, j)] + c[(j, b)] - c[(a, b)]
                if cost + delta <= limit:
                    out.append((j, i + 1, delta))
    return out


def grasp_leg(g, src, dst, banned):
    """Cheapest src-dst leg whose interior skips banned, as (nodes, cost) or None.

    Dijkstra with no budget: heap entries (distance, node), a node's
    distance and predecessor change only on a strict improvement, and the
    search stops when dst pops.
    """
    c = log_costs(g)
    adj = _adjacency(g)
    dist = {src: 0.0}
    prev = {}
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, math.inf):
            continue
        if v == dst:
            break
        for u in adj[v]:
            if u != dst and u in banned:
                continue
            nd = d + c[(v, u)]
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                prev[u] = v
                heapq.heappush(heap, (nd, u))
    if dst not in prev:
        return None
    nodes = [dst]
    while nodes[-1] != src:
        nodes.append(prev[nodes[-1]])
    return tuple(reversed(nodes)), dist[dst]


def random_skeleton(lg, rng, hops: int):
    """GRASP's random skeleton walk as the library ran it before its states were kept in a trie.

    Each hop rebuilds its candidate row and asks for its legs afresh, and
    the closing phase backtracks over a list of waypoints. It filters
    node_ids by the distances of the LogGraph's trees and reads the
    library's legs (_leg_avoiding), which test_orienteering holds against
    grasp_leg, and returns (path list, cost) or None.
    """
    g = lg.graph
    terminal = g.terminal
    dist_t = lg.distances_to(terminal)
    limit = lg.limit
    path = [g.start]
    used = {g.start}
    waypoints = [0]
    cost = 0.0
    v = g.start
    for _ in range(hops):
        dist = lg.distances_from(v)
        cands = [j for j in g.node_ids if j not in used and j != terminal and cost + dist[j] + dist_t[j] <= limit]
        if not cands:
            break
        for _draw in range(3):
            if not cands:
                break
            j = cands[rng.integers(len(cands))]
            leg = orienteering._leg_avoiding(lg, v, j, used | {terminal}, cost)
            if leg is not None and cost + leg[1] + dist_t[j] <= limit:
                path += leg[0][1:]
                used.update(leg[0][1:])
                waypoints.append(len(path) - 1)
                cost += leg[1]
                v = j
                break
            cands.remove(j)
    while len(path) > 1:
        tail = orienteering._leg_avoiding(lg, v, terminal, used, cost)
        if tail is not None and cost + tail[1] <= limit:
            return path + list(tail[0][1:]), cost + tail[1]
        waypoints.pop()
        del path[waypoints[-1] + 1:]
        used = set(path)
        cost = orienteering._path_cost(lg, path)
        v = path[-1]
    return None


def simulate_team_reference(g, paths, trials: int, seed=0) -> SimulationResult:
    """Sample the team objective by simulating every edge traversal.

    Each trial draws one Bernoulli per edge per robot. Randomness comes from
    a single seeded generator consumed in a fixed (trial-major) layout: trial
    t always sees the same uniform block regardless of chunking, so results
    are reproducible bit for bit.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for p in paths:
        check_path(g, p)
    weights = [np.array([g.survival[(p[n - 1], p[n])] for n in range(1, len(p))]) for p in paths]
    slot = np.cumsum([0] + [len(w) for w in weights])
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
        visited = np.zeros((rows, g.num_nodes), dtype=bool)
        for k, p in enumerate(paths):
            w = weights[k]
            if len(w) == 0:
                alive_counts[k] += rows
                continue
            ok = u[:, slot[k]:slot[k + 1]] < w
            reach = np.logical_and.accumulate(ok, axis=1)
            for n in range(1, len(p)):
                visited[:, node_pos[p[n]]] |= reach[:, n - 1]
            alive_counts[k] += reach[:, -1].sum()
        samples = visited @ d_vec
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


def fold_visit_counts_reference(counts: dict[int, list[float]], profile) -> None:
    """Add one robot to per-node count distributions (lists), in place."""
    for dp in counts.values():
        dp.append(0.0)
    for v, p in profile.visit_prob.items():
        dp, q = counts[v], 1.0 - p
        for m in range(len(dp) - 1, 0, -1):
            dp[m] = dp[m] * q + dp[m - 1] * p
        dp[0] *= q


def multi_visit_value_reference(g, counts, table, M: int) -> float:
    """The multi-visit value from per-node count distributions already built."""
    for v, row in table.items():
        for a, b in zip(row, row[1:M]):
            if b > a + 1e-15:
                raise ValueError(f"multi-visit rewards for node {v} increase with visit count")
    # P(at least m) via reversed cumulative sum of the count distribution.
    at_least = {v: np.cumsum(dp[::-1])[::-1] for v, dp in counts.items()}
    return ordered_sum(
        table[v][m - 1] * at_least[v][m]
        for v in g.node_ids if v in table
        for m in range(1, min(M, len(at_least[v]) - 1) + 1)
    )


def next_visit_reward_reference(g, counts, table, M: int) -> dict[int, float]:
    """Per table node, the greedy model's expected next-visit reward before its factor zeta_j."""
    return {j: ordered_sum(d * p for d, p in zip(table[j][:M], counts[j])) for j in g.node_ids if j in table}
