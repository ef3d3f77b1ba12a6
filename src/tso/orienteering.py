"""Oracles for the budgeted reward-collection subproblem on the log graph.

Maximize summed node (or edge) rewards over a start-terminal path whose
log-cost stays within the budget. Reward is collected from step 1 onward,
so the start node pays only when a tour returns to it. The exact solver is
a depth-first branch and bound; the heuristic is randomized greedy insertion
with local search (GRASP).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graph import INF, BUDGET_TOL, InfeasibleInstanceError, LogGraph, shortest_path


@dataclass
class OrienteeringProblem:
    lg: LogGraph
    rewards: dict[int, float] | None = None
    edge_rewards: dict[tuple[int, int], float] | None = None
    budget: float | None = None
    start: int | None = None
    terminal: int | None = None

    def __post_init__(self):
        g = self.lg.graph
        if self.budget is None:
            self.budget = self.lg.budget
        if self.start is None:
            self.start = g.start
        if self.terminal is None:
            self.terminal = g.terminal
        if self.rewards is not None:
            for v, r in self.rewards.items():
                if r < 0 or r != r:
                    raise ValueError(f"negative or NaN reward on node {v}")
        if self.edge_rewards is not None:
            for e, r in self.edge_rewards.items():
                if e not in self.lg.costs:
                    raise ValueError(f"reward on missing edge {e}")
                if r < 0:
                    raise ValueError(f"negative reward on edge {e}")


@dataclass
class OracleResult:
    path: tuple[int, ...]
    reward: float
    exact: bool
    nodes_expanded: int = 0


def path_reward(p: OrienteeringProblem, path) -> float:
    """Reward actually collected by a path: nodes at steps >= 1, once each."""
    rewards = p.rewards or {}
    return sum(rewards.get(v, 0.0) for v in path[1:])


def solve_exact(p: OrienteeringProblem, use_reward_bound: bool = True) -> OracleResult:
    """Branch and bound over simple paths with node rewards; returns a true maximizer."""
    rewards = p.rewards or {}
    nodes = p.lg.graph.node_ids
    items = [(j, 0.0, j, rewards[j]) for j in nodes if rewards.get(j, 0.0) > 0.0]
    return _branch_and_bound(p, dict.fromkeys(nodes, rewards), items, use_reward_bound)


def solve_arc_exact(p: OrienteeringProblem, use_reward_bound: bool = True) -> OracleResult:
    """Branch and bound with rewards on edges instead of nodes."""
    rewards = p.edge_rewards or {}
    lg = p.lg
    idx = lg.graph.index
    gain = {v: {} for v in lg.graph.node_ids}
    for (a, b), r in rewards.items():
        gain[a][b] = r
    ordered = sorted(rewards.items(), key=lambda t: (idx[t[0][0]], idx[t[0][1]]))
    items = [(a, lg.costs[(a, b)], b, r) for (a, b), r in ordered if r > 0.0]
    return _branch_and_bound(p, gain, items, use_reward_bound)


def _branch_and_bound(p: OrienteeringProblem, gain, items, use_reward_bound: bool) -> OracleResult:
    """Depth-first branch and bound shared by node and arc rewards.

    A step v -> u pays gain[v].get(u, 0.0). Each bound item (a, extra, b, r)
    is a reward r that a walk v ~> a, then extra, then b ~> terminal could
    still collect; a node reward j is the item (j, 0.0, j, r_j), an arc
    reward the item (a, cost(a, b), b, r). An item whose head b is already
    visited (and is not the terminal) is out of reach, because a simple path
    never re-enters a visited node.

    Children are explored in ascending node-index order and the incumbent
    only improves strictly, so the first maximizer reached is the
    lexicographically smallest one. Pruning: (a) the cheapest completion
    exceeds the remaining budget, (b) current reward plus every item still
    in reach cannot beat the incumbent (admissible, so rule (b) never
    removes the returned optimum; it can be disabled for audits).
    """
    g = p.lg.graph
    lg = p.lg
    start, terminal, budget = p.start, p.terminal, p.budget
    depot = start == terminal
    dist_to_t = lg.distances_to(terminal)

    # A depot robot may stay home; an open path has no incumbent yet.
    best_reward, best_path = (0.0, (start,)) if depot else (-INF, None)
    expanded = 0

    def optimistic(v, visited, cost, collected):
        remaining = budget - cost
        bound = collected
        dv = lg.distances_from(v)
        for a, extra, b, r in items:
            if b in visited and b != terminal:
                continue
            if dv[a] + extra + dist_to_t[b] <= remaining + BUDGET_TOL:
                bound += r
        return bound

    def dfs(v, cost, collected, visited, path):
        nonlocal best_reward, best_path, expanded
        expanded += 1
        if use_reward_bound and optimistic(v, visited, cost, collected) <= best_reward:
            return
        pay = gain[v]
        for u, _w in g.adjacency[v]:
            c = cost + lg.costs[(v, u)]
            if u == terminal:
                if c <= budget + BUDGET_TOL:
                    r = collected + pay.get(u, 0.0)
                    if r > best_reward:
                        best_reward = r
                        best_path = tuple(path) + (u,)
                continue
            if u in visited:
                continue
            if c + dist_to_t[u] > budget + BUDGET_TOL:
                continue
            path.append(u)
            dfs(u, c, collected + pay.get(u, 0.0), visited | {u}, path)
            path.pop()

    if dist_to_t[start] > budget + BUDGET_TOL and not depot:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    dfs(start, 0.0, 0.0, {start}, [start])
    if best_path is None:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    return OracleResult(path=best_path, reward=best_reward, exact=True, nodes_expanded=expanded)


# ---------------------------------------------------------------------------
# GRASP heuristic

def _base_path(p: OrienteeringProblem):
    """Cheapest feasible skeleton: shortest return for depots, shortest path otherwise."""
    g = p.lg.graph
    lg = p.lg
    if p.start != p.terminal:
        path = shortest_path(lg, p.start, p.terminal)
        if path is None:
            raise InfeasibleInstanceError("no start-terminal path within the survival budget")
        cost = sum(lg.costs[(a, b)] for a, b in zip(path, path[1:]))
        if cost > p.budget + BUDGET_TOL:
            raise InfeasibleInstanceError("no start-terminal path within the survival budget")
        return list(path), cost
    best = None
    dist = lg.distances_from(p.start)
    for v, _w in g.reverse_adjacency[p.start]:
        if v == p.start or dist[v] == INF:
            continue
        cost = dist[v] + lg.costs[(v, p.start)]
        if cost <= p.budget + BUDGET_TOL and (best is None or cost < best[1]):
            leg = shortest_path(lg, p.start, v)
            if leg is not None and len(set(leg)) == len(leg):
                best = (leg + [p.start], cost)
    if best is None:
        return [p.start], 0.0
    return list(best[0]), best[1]


def _path_cost(lg, path):
    return sum(lg.costs[(a, b)] for a, b in zip(path, path[1:]))


def _leg_avoiding(lg, src, dst, banned):
    """Cheapest src-to-dst leg whose interior skips the banned nodes."""
    g = lg.graph
    dist = {src: 0.0}
    prev = {}
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, INF):
            continue
        if v == dst:
            break
        for u, _w in g.adjacency[v]:
            if u != dst and u in banned:
                continue
            nd = d + lg.costs[(v, u)]
            if nd < dist.get(u, INF):
                dist[u] = nd
                prev[u] = v
                heapq.heappush(heap, (nd, u))
    if dst not in prev:
        return None
    leg = [dst]
    while leg[-1] != src:
        leg.append(prev[leg[-1]])
    return leg[::-1], dist[dst]


def _random_skeleton(p: OrienteeringProblem, rng, hops: int):
    """Random affordable detour: collision-free legs through sampled waypoints.

    Pure insertion cannot leave the direct skeleton when the straight edge
    already eats most of the budget; routing restarts through waypoints
    reaches path shapes insertion alone never builds. Each waypoint is drawn
    from the nodes still affordable with a straight run home afterwards, and
    each leg avoids nodes the skeleton already holds. If the closing leg
    fails or busts the budget, the walk backtracks one waypoint at a time; a
    walk that cannot leave the start yields None.
    """
    g = p.lg.graph
    lg = p.lg
    dist_t = lg.distances_to(p.terminal)
    path = [p.start]
    used = {p.start}
    waypoints = [0]
    cost = 0.0
    v = p.start
    for _ in range(hops):
        dv = lg.distances_from(v)
        cands = [
            j for j in g.node_ids
            if j not in used and j != p.terminal
            and cost + dv[j] + dist_t[j] <= p.budget + BUDGET_TOL
        ]
        for _draw in range(3):
            if not cands:
                break
            j = cands[rng.integers(len(cands))]
            leg = _leg_avoiding(lg, v, j, used | {p.terminal})
            if leg is not None and cost + leg[1] + dist_t[j] <= p.budget + BUDGET_TOL:
                path += leg[0][1:]
                used.update(leg[0][1:])
                waypoints.append(len(path) - 1)
                cost += leg[1]
                v = j
                break
            cands.remove(j)
    while len(path) > 1:
        tail = _leg_avoiding(lg, v, p.terminal, used)
        if tail is not None and cost + tail[1] <= p.budget + BUDGET_TOL:
            return path + tail[0][1:], cost + tail[1]
        waypoints.pop()
        del path[waypoints[-1] + 1:]
        used = set(path)
        cost = _path_cost(lg, path)
        v = path[-1]
    return None


def _insertions(p: OrienteeringProblem, path, cost, visited):
    """Feasible (node, position, delta-cost) insertions of positive-reward nodes."""
    g = p.lg.graph
    lg = p.lg
    rewards = p.rewards or {}
    out = []
    for j in g.node_ids:
        if j in visited or rewards.get(j, 0.0) <= 0.0:
            continue
        for i in range(len(path) - 1):
            a, b = path[i], path[i + 1]
            if (a, j) not in lg.costs or (j, b) not in lg.costs:
                continue
            delta = lg.costs[(a, j)] + lg.costs[(j, b)] - lg.costs[(a, b)]
            if cost + delta <= p.budget + BUDGET_TOL:
                out.append((j, i + 1, delta))
    return out


def _local_search(p: OrienteeringProblem, path, cost):
    """Hill-climb: best insertions, free-node drops, and 2-exchanges."""
    g = p.lg.graph
    lg = p.lg
    rewards = p.rewards or {}
    improved = True
    while improved:
        improved = False
        visited = set(path)
        # Best reward-per-cost insertion first.
        cands = _insertions(p, path, cost, visited)
        if cands:
            j, pos, delta = max(cands, key=lambda t: (rewards.get(t[0], 0.0) / max(t[2], 1e-12), -t[2], -g.index[t[0]]))
            path.insert(pos, j)
            cost += delta
            improved = True
            continue
        # Drop interior nodes that pay nothing but cost something.
        for i in range(1, len(path) - 1):
            j = path[i]
            if rewards.get(j, 0.0) > 0.0:
                continue
            a, b = path[i - 1], path[i + 1]
            if (a, b) not in lg.costs:
                continue
            delta = lg.costs[(a, b)] - lg.costs[(a, j)] - lg.costs[(j, b)]
            if delta < -1e-12:
                del path[i]
                cost += delta
                improved = True
                break
        if improved:
            continue
        # Segment reversal when every reversed edge exists and cost drops.
        n = len(path)
        for i in range(1, n - 1):
            if improved:
                break
            for k in range(i + 1, n - 1):
                seg = path[i:k + 1]
                ok = all((seg[t + 1], seg[t]) in lg.costs for t in range(len(seg) - 1))
                if not ok:
                    continue
                a, b = path[i - 1], path[k + 1]
                if (a, seg[-1]) not in lg.costs or (seg[0], b) not in lg.costs:
                    continue
                old = lg.costs[(a, seg[0])] + _path_cost(lg, seg) + lg.costs[(seg[-1], b)]
                new = lg.costs[(a, seg[-1])] + _path_cost(lg, seg[::-1]) + lg.costs[(seg[0], b)]
                if new < old - 1e-12:
                    path[i:k + 1] = seg[::-1]
                    cost += new - old
                    improved = True
                    break
    return path, cost


def solve_heuristic(p: OrienteeringProblem, seed=0, restarts: int = 64) -> OracleResult:
    """GRASP: randomized greedy insertion plus local search, best of restarts.

    Deterministic for a fixed seed. The first restart grows the cheapest
    feasible skeleton; later restarts grow a random edge walk of varying
    depth, then all repeatedly insert a node drawn from the best candidates
    ranked by reward per added cost.
    """
    g = p.lg.graph
    rewards = p.rewards or {}
    rng = np.random.default_rng(seed)
    base, base_cost = _base_path(p)
    best = None
    evaluated = 0
    for restart in range(max(1, restarts)):
        skeleton = _random_skeleton(p, rng, 2 ** ((restart - 1) % 5)) if restart else None
        if skeleton is None:
            path, cost = list(base), base_cost
        else:
            path, cost = list(skeleton[0]), skeleton[1]
        while True:
            visited = set(path)
            cands = _insertions(p, path, cost, visited)
            evaluated += len(cands)
            if not cands:
                break
            cands.sort(key=lambda t: (-(rewards.get(t[0], 0.0) / max(t[2], 1e-12)), t[2], g.index[t[0]], t[1]))
            rcl = cands[:max(1, (len(cands) + 3) // 4)]
            j, pos, delta = rcl[rng.integers(len(rcl))]
            path.insert(pos, j)
            cost += delta
        path, cost = _local_search(p, path, cost)
        reward = path_reward(p, path)
        key = (-reward, tuple(g.index[v] for v in path))
        if best is None or key < best[0]:
            best = (key, tuple(path), reward)
    return OracleResult(path=best[1], reward=best[2], exact=False, nodes_expanded=evaluated)
