"""Oracles for the budgeted reward-collection subproblem on the log graph.

Maximize summed node (or edge) rewards over a start-terminal path whose
log-cost stays within the budget. Reward is collected from step 1 onward,
so the start node pays only when a tour returns to it. The exact solver
scores a per-graph catalog of every budget-feasible prefix, with a
depth-first branch and bound for graphs whose catalog would be too large;
the heuristic is randomized greedy insertion with local search (GRASP).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass

import numpy as np

from .graph import INF, BUDGET_TOL, InfeasibleInstanceError, LogGraph, shortest_path, tree_path


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
                if r < 0 or r != r:
                    raise ValueError(f"negative or NaN reward on edge {e}")


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
    """Best path for node rewards: the lexicographically smallest maximizer.

    The first call for a (start, terminal, budget) on a LogGraph enumerates
    every budget-feasible prefix once into a PrefixCatalog kept on that
    LogGraph; this and every later call there, such as greedy's next robot,
    only sums its rewards over the catalog in numpy. Each prefix's sum is
    its parent's sum plus the reward of its last step: the same IEEE
    additions, in the same order, as the branch and bound's
    `collected + reward[k]`, so each path's reward is bit-equal to the
    search's. The first maximum over the leaves in DFS order is the
    search's first strict improvement, which is the lexicographically
    smallest maximizer, so both give the same path and the same float. A
    depot robot stays home unless the best tour collects more than 0.0.
    nodes_expanded of a catalog call is the number of non-leaf prefixes,
    root included: what the branch and bound expands without its reward
    bound.

    A catalog holds at most CATALOG_CAP prefixes. Above that its build
    stops, and this call and every later one on the same (start, terminal,
    budget) run the branch and bound with its reward bound.
    use_reward_bound=False always runs the branch and bound without it, the
    audit reference. The build costs about one unbounded search, twice the
    bounded one, so a lone call is slower than the bounded search; the
    calls of one greedy run share it.
    """
    return _exact(p, "node", (p.rewards or {}).get, use_reward_bound)


def solve_arc_exact(p: OrienteeringProblem, use_reward_bound: bool = True) -> OracleResult:
    """solve_exact with rewards on edges instead of nodes; the same catalog serves both."""
    return _exact(p, "arc", (p.edge_rewards or {}).get, use_reward_bound)


def _exact(p: OrienteeringProblem, kind: str, lookup, use_reward_bound: bool) -> OracleResult:
    lg = p.lg
    depot = p.start == p.terminal
    if not depot and lg.distances_to(p.terminal)[p.start] > p.budget + BUDGET_TOL:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    cat = prefix_catalog(lg, p.start, p.terminal, p.budget) if use_reward_bound else None
    if cat is None:
        return _branch_and_bound(p, kind, lookup, use_reward_bound)
    if kind == "node":
        rew = np.array([lookup(v, 0.0) for v in lg.graph.node_ids], dtype=float)[cat.heads]
    else:
        rew = np.array([lookup(e, 0.0) for e in cat.arcs], dtype=float)
    top = cat.best(rew)
    if top is not None and (not depot or top[0] > 0.0):
        reward, d, i = top
        return OracleResult(path=cat.path(d, i), reward=reward, exact=True, nodes_expanded=cat.prefixes)
    if not depot:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    return OracleResult(path=(p.start,), reward=0.0, exact=True, nodes_expanded=cat.prefixes)


# ---------------------------------------------------------------------------
# Path catalog

# A catalog holds at most this many prefixes. Stored, a prefix takes 3
# bytes and a leaf 10 (a prefix has at most one step into the terminal, so
# leaves never outnumber prefixes): about 13 MiB at the cap. A call adds
# about 40 bytes per prefix of its two largest levels while it runs. The heaviest
# benchmark graph (ratio draw 0 at p_s = 0.5) has 231,433 prefixes and
# 71,414 leaves.
CATALOG_CAP = 1 << 20


class _CatalogFull(Exception):
    pass


@dataclass
class PrefixCatalog:
    """Every budget-feasible prefix of one (start, terminal, budget), as the unbounded search visits them.

    arcs lists the graph's arcs in (tail, head) index order and heads their
    heads' node indices. levels[d] describes the steps out of the prefixes
    of d steps, each list in DFS order: the number of children of each
    prefix, the arc of each prefix of d + 1 steps, and the leaves (steps
    into the terminal) as DFS rank among all leaves, position of the parent
    prefix in its level, and arc. Child counts are uint8, arcs int16 and
    ranks and positions int32 while they fit. prefixes counts the root too.
    """

    start: int
    arcs: list
    heads: np.ndarray
    levels: list
    prefixes: int
    leaves: int

    def best(self, rew):
        """(reward, depth, index) of the first best leaf in DFS order, given each arc's reward; None without leaves.

        A prefix's sum is its parent's plus the reward of its last arc, as
        the search adds collected + reward[k].
        """
        top = None
        col = np.zeros(1)
        for d, (kid_count, kid_arc, leaf_rank, leaf_parent, leaf_arc) in enumerate(self.levels):
            if len(leaf_rank):
                sums = col[leaf_parent] + rew[leaf_arc]
                i = int(np.argmax(sums))
                key = (float(sums[i]), -int(leaf_rank[i]))
                if top is None or key > top[0]:
                    top = (key, d, i)
            col = np.repeat(col, kid_count)
            col += rew[kid_arc]
        return None if top is None else (top[0][0], top[1], top[2])

    def path(self, d, i) -> tuple:
        """Node sequence of leaf i of level d."""
        _kc, _ka, _lr, leaf_parent, leaf_arc = self.levels[d]
        nodes = [self.arcs[leaf_arc[i]][1]]
        pos = leaf_parent[i]
        for kid_count, kid_arc, *_leaves in reversed(self.levels[:d]):
            nodes.append(self.arcs[kid_arc[pos]][1])
            pos = np.searchsorted(np.cumsum(kid_count), pos, side="right")
        nodes.append(self.start)
        return tuple(reversed(nodes))

    def paths(self) -> list[tuple]:
        """Every leaf's node sequence, in DFS order: lexicographic by node index."""
        heads = [b for _a, b in self.arcs]
        out = [None] * self.leaves
        level = [(self.start,)]
        for kid_count, kid_arc, leaf_rank, leaf_parent, leaf_arc in self.levels:
            for r, q, k in zip(leaf_rank.tolist(), leaf_parent.tolist(), leaf_arc.tolist()):
                out[r] = level[q] + (heads[k],)
            parents = np.repeat(np.arange(len(level)), kid_count).tolist()
            level = [level[q] + (heads[k],) for q, k in zip(parents, kid_arc.tolist())]
        return out


def prefix_catalog(lg: LogGraph, start, terminal, budget) -> PrefixCatalog | None:
    """The catalog of (start, terminal, budget), built on first use and kept on lg; None above CATALOG_CAP."""
    key = (start, terminal, budget)
    if key not in lg._catalog_cache:
        lg._catalog_cache[key] = _build_catalog(lg, start, terminal, budget)
    return lg._catalog_cache[key]


def _build_catalog(lg: LogGraph, start, terminal, budget) -> PrefixCatalog | None:
    """Record the search of _branch_and_bound without its reward bound.

    Same steps in the same order, the same visited bits, `c <= limit` at
    the terminal and `c + to_t > limit` to cut a prefix; no check on the
    start, so an infeasible one gives a catalog without leaves. A step
    that fails its test at cost 0.0 is left out of its node's list: costs
    are never negative and float addition is monotone, so it would fail at
    every cost.
    """
    g = lg.graph
    cap = CATALOG_CAP
    limit = budget + BUDGET_TOL
    dist_to_t = lg.distances_to(terminal)
    arcs, _items, arc_of, bit, _tables = _search_tables(lg, terminal, "arc")
    steps = {
        v: [(u, lg.costs[(v, u)], dist_to_t[u], bit[u], arc_of[(v, u)]) for u, _w in nbrs
            if lg.costs[(v, u)] + (0.0 if u == terminal else dist_to_t[u]) <= limit]
        for v, nbrs in g.adjacency.items()
    }
    count = "B" if max(map(len, steps.values())) < 1 << 8 else "i"
    code = "h" if len(arcs) <= 1 << 15 else "i"
    levels = [tuple(array(c) for c in (count, code, "i", "i", code)) for _ in g.node_ids]
    prefixes = leaves = 0

    def dfs(v, cost, visited, d, pos):
        nonlocal prefixes, leaves
        prefixes += 1
        if prefixes > cap:
            raise _CatalogFull
        kid_count, kid_arc, leaf_rank, leaf_parent, leaf_arc = levels[d]
        kids = 0
        for u, w, to_t, b, k in steps[v]:
            if visited & b:
                continue
            c = cost + w
            if u == terminal:
                if c <= limit:
                    leaf_rank.append(leaves)
                    leaf_parent.append(pos)
                    leaf_arc.append(k)
                    leaves += 1
                continue
            if c + to_t > limit:
                continue
            kid_arc.append(k)
            kids += 1
            dfs(u, c, visited | b, d + 1, len(kid_arc) - 1)
        # A prefix's count lands when its subtree is done; prefixes of one
        # depth finish in the order they start, so counts stay in DFS order.
        kid_count.append(kids)

    try:
        dfs(start, 0.0, bit[start], 0, 0)
    except _CatalogFull:
        return None
    finally:
        dfs = None  # the closure refers to itself; drop the cycle now, not at the next GC
    while len(levels) > 1 and not levels[-1][1] and not levels[-1][2]:
        levels.pop()
    return PrefixCatalog(
        start=start,
        arcs=arcs,
        heads=np.array([g.index[b] for _a, b in arcs], dtype=np.intp),
        levels=[tuple(np.frombuffer(a, dtype=a.typecode) for a in level) for level in levels],
        prefixes=prefixes,
        leaves=leaves,
    )


# ---------------------------------------------------------------------------
# Branch and bound: the fallback above CATALOG_CAP and the audit reference

def _search_tables(lg: LogGraph, terminal, kind: str):
    """Search tables of one terminal and reward kind, cached on lg for every later call.

    Returns (reward keys, items, step_item, head bits, per-node tables). Item k
    is (a, extra, b), paid reward[keys[k]]: one (j, 0.0, j) per node in index
    order, or one (a, cost(a, b), b) per arc in (tail, head) index order.
    """
    key = (terminal, kind)
    if key not in lg._search_cache:
        g = lg.graph
        idx = g.index
        arcs = sorted(lg.costs, key=lambda e: (idx[e[0]], idx[e[1]]))
        if kind == "node":
            keys, items = g.node_ids, [(j, 0.0, j) for j in g.node_ids]
            step_item = {(a, b): idx[b] for a, b in arcs}
        else:
            keys, items = arcs, [(a, lg.costs[(a, b)], b) for a, b in arcs]
            step_item = {e: k for k, e in enumerate(arcs)}
        bit = {v: 0 if v == terminal else 1 << i for i, v in enumerate(g.node_ids)}
        lg._search_cache[key] = (keys, items, step_item, bit, {})
    return lg._search_cache[key]


def _node_table(lg: LogGraph, v, items, step_item, bit, dist_to_t):
    """Bound items (need, head bit, k) and steps (u, cost, dist_to_t[u], bit of u, k) of node v."""
    dv = lg.distances_from(v)
    bound = [(dv[a] + extra + dist_to_t[b], bit[b], k) for k, (a, extra, b) in enumerate(items)]
    steps = [(u, lg.costs[(v, u)], dist_to_t[u], bit[u], step_item[(v, u)]) for u, _w in lg.graph.adjacency[v]]
    return bound, steps


def _branch_and_bound(p: OrienteeringProblem, kind: str, lookup, use_reward_bound: bool) -> OracleResult:
    """Depth-first branch and bound shared by node and arc rewards.

    It serves the calls whose catalog would exceed CATALOG_CAP and, with
    use_reward_bound=False, is the reference the catalog is checked against.
    Each bound item (a, extra, b) is a reward that a walk v ~> a, then extra,
    then b ~> terminal could still collect, at a need of
    dist(v, a) + extra + dist(b, terminal); a step v -> u pays its own item.
    An item whose head b is already visited (and is not the terminal) is out
    of reach, because a simple path never re-enters a visited node. Needs,
    steps and head bits depend on the graph only, so a node's table is built
    on its first expansion and reused by every later call on the same
    LogGraph; a call builds only its reward list. Visited nodes form an int
    bitmask in which the terminal's bit is 0.

    Children are explored in ascending node-index order and the incumbent
    only improves strictly, so the first maximizer reached is the
    lexicographically smallest one. Pruning: (a) the cheapest completion
    exceeds the remaining budget, (b) current reward plus every item still
    in reach cannot beat the incumbent (admissible, so rule (b) never
    removes the returned optimum; it can be disabled for audits). Sums run
    in item order and every budget test keeps one float expression; items
    with zero reward stay (x + 0.0 == x). So prunes and results do not
    depend on which calls built the tables.
    """
    lg = p.lg
    start, terminal, budget = p.start, p.terminal, p.budget
    limit = budget + BUDGET_TOL
    depot = start == terminal
    dist_to_t = lg.distances_to(terminal)
    keys, items, step_item, bit, tables = _search_tables(lg, terminal, kind)
    reward = [lookup(key, 0.0) for key in keys]

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
            if bound <= best_reward:
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


# ---------------------------------------------------------------------------
# GRASP heuristic

def _grasp_tables(lg: LogGraph):
    """(rows, cost_of, legs) of lg, built by its first GRASP call and kept for every later one.

    rows[v] holds v's out-arcs (u, cost) in adjacency order and cost_of[a][b]
    is the cost of arc (a, b). legs maps (src, dst, frozenset(banned)) to what
    _leg_avoiding returns for it. None of them holds rewards or a budget, so
    the calls of a greedy run, which share one LogGraph, share them too.
    """
    if lg._grasp_cache is None:
        costs = lg.costs
        rows = {v: tuple((u, costs[(v, u)]) for u, _w in nbrs) for v, nbrs in lg.graph.adjacency.items()}
        lg._grasp_cache = (rows, {v: dict(row) for v, row in rows.items()}, {})
    return lg._grasp_cache


def _base_path(p: OrienteeringProblem):
    """Cheapest feasible skeleton: shortest return for depots, shortest path otherwise."""
    lg = p.lg
    if p.start != p.terminal:
        path = shortest_path(lg, p.start, p.terminal)
        if path is None:
            raise InfeasibleInstanceError("no start-terminal path within the survival budget")
        cost = _path_cost(lg, path)
        if cost > p.budget + BUDGET_TOL:
            raise InfeasibleInstanceError("no start-terminal path within the survival budget")
        return path, cost
    best = None
    dist, parent = lg.shortest_tree(p.start)
    for v, _w in lg.graph.reverse_adjacency[p.start]:
        if v == p.start or dist[v] == INF:
            continue
        cost = dist[v] + lg.costs[(v, p.start)]
        if cost <= p.budget + BUDGET_TOL and (best is None or cost < best[1]):
            leg = tree_path(parent, p.start, v)
            if leg is not None and len(set(leg)) == len(leg):
                best = (leg + [p.start], cost)
    if best is None:
        return [p.start], 0.0
    return best


def _path_cost(lg, path):
    # Left to right, as the reversal scan of _local_search sums; sum() of
    # floats compensates from Python 3.12 on and would not match it there.
    cost = 0.0
    for a, b in zip(path, path[1:]):
        cost += lg.costs[(a, b)]
    return cost


def _leg_avoiding(lg, src, dst, banned):
    """Cheapest src-to-dst leg whose interior skips the banned nodes, as (nodes, cost) or None.

    A leg depends on the graph alone, so it is searched once per LogGraph
    and kept, with its nodes as a tuple, in the leg cache of _grasp_tables.
    """
    rows, _cost_of, legs = _grasp_tables(lg)
    key = (src, dst, frozenset(banned))
    if key in legs:
        return legs[key]
    dist = {src: 0.0}
    prev = {}
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, INF):
            continue
        if v == dst:
            break
        for u, w in rows[v]:
            if u != dst and u in banned:
                continue
            nd = d + w
            if nd < dist.get(u, INF):
                dist[u] = nd
                prev[u] = v
                heapq.heappush(heap, (nd, u))
    leg = None
    if dst in prev:
        nodes = [dst]
        while nodes[-1] != src:
            nodes.append(prev[nodes[-1]])
        leg = (tuple(reversed(nodes)), dist[dst])
    legs[key] = leg
    return leg


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
    limit = p.budget + BUDGET_TOL
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
            and cost + dv[j] + dist_t[j] <= limit
        ]
        for _draw in range(3):
            if not cands:
                break
            j = cands[rng.integers(len(cands))]
            leg = _leg_avoiding(lg, v, j, used | {p.terminal})
            if leg is not None and cost + leg[1] + dist_t[j] <= limit:
                path += leg[0][1:]
                used.update(leg[0][1:])
                waypoints.append(len(path) - 1)
                cost += leg[1]
                v = j
                break
            cands.remove(j)
    while len(path) > 1:
        tail = _leg_avoiding(lg, v, p.terminal, used)
        if tail is not None and cost + tail[1] <= limit:
            return path + list(tail[0][1:]), cost + tail[1]
        waypoints.pop()
        del path[waypoints[-1] + 1:]
        used = set(path)
        cost = _path_cost(lg, path)
        v = path[-1]
    return None


def _insertions(p: OrienteeringProblem, path, cost, visited):
    """Feasible (node, position, delta-cost) insertions of positive-reward nodes."""
    _rows, cost_of, _legs = _grasp_tables(p.lg)
    rewards = p.rewards or {}
    limit = p.budget + BUDGET_TOL
    # Per path arc (a, b): a's cost row, b and cost(a, b).
    arcs = [(cost_of[a], b, cost_of[a][b]) for a, b in zip(path, path[1:])]
    out = []
    for j in p.lg.graph.node_ids:
        if j in visited or rewards.get(j, 0.0) <= 0.0:
            continue
        from_j = cost_of[j]
        for i, (from_a, b, ab) in enumerate(arcs):
            aj = from_a.get(j)
            if aj is None:
                continue
            jb = from_j.get(b)
            if jb is None:
                continue
            delta = aj + jb - ab
            if cost + delta <= limit:
                out.append((j, i + 1, delta))
    return out


def _local_search(p: OrienteeringProblem, path, cost):
    """Hill-climb from a path that admits no insertion.

    Each round drops an interior node that pays nothing but costs something
    or, failing that, reverses a segment to lower the cost (a 2-exchange),
    then makes the best reward-per-cost insertion while one fits. It stops
    at the first round that finds neither a drop nor a reversal.
    """
    g = p.lg.graph
    _rows, cost_of, _legs = _grasp_tables(p.lg)
    rewards = p.rewards or {}
    while True:
        improved = False
        # Drop interior nodes that pay nothing but cost something.
        for i in range(1, len(path) - 1):
            j = path[i]
            if rewards.get(j, 0.0) > 0.0:
                continue
            a, b = path[i - 1], path[i + 1]
            ab = cost_of[a].get(b)
            if ab is None:
                continue
            delta = ab - cost_of[a][j] - cost_of[j][b]
            if delta < -1e-12:
                del path[i]
                cost += delta
                improved = True
                break
        if not improved:
            # Segment reversal when every reversed edge exists and cost drops.
            # The segment path[i..k] costs fwd forward and back[k][i] reversed,
            # each summed along its own direction as _path_cost sums a path.
            # back[k] stops at the first missing reverse arc, which every
            # longer segment ending at k also holds.
            n = len(path)
            back = []
            for k in range(n - 1):
                run, row = 0.0, {}
                for i in range(k - 1, 0, -1):
                    w = cost_of[path[i + 1]].get(path[i])
                    if w is None:
                        break
                    run += w
                    row[i] = run
                back.append(row)
            for i in range(1, n - 1):
                from_a, head = cost_of[path[i - 1]], path[i]
                fwd = 0.0
                for k in range(i + 1, n - 1):
                    tail = path[k]
                    fwd += cost_of[path[k - 1]][tail]
                    rev = back[k].get(i)
                    if rev is None:
                        break
                    b = path[k + 1]
                    a_tail, head_b = from_a.get(tail), cost_of[head].get(b)
                    if a_tail is None or head_b is None:
                        continue
                    old = from_a[head] + fwd + cost_of[tail][b]
                    new = a_tail + rev + head_b
                    if new < old - 1e-12:
                        path[i:k + 1] = path[i:k + 1][::-1]
                        cost += new - old
                        improved = True
                        break
                if improved:
                    break
        if not improved:
            return path, cost
        while cands := _insertions(p, path, cost, set(path)):
            j, pos, delta = max(cands, key=lambda t: (rewards.get(t[0], 0.0) / max(t[2], 1e-12), -t[2], -g.index[t[0]]))
            path.insert(pos, j)
            cost += delta


def solve_heuristic(p: OrienteeringProblem, seed=0, restarts: int = 64) -> OracleResult:
    """GRASP: randomized greedy insertion plus local search, best of restarts.

    The first restart grows the cheapest feasible skeleton; later restarts
    grow a random skeleton through 1, 2, 4, 8 or 16 waypoints. Each restart
    then repeatedly inserts a node drawn from the best quarter of the
    feasible insertions, ranked by reward per added cost, and ends in local
    search. The best path by reward wins, ties going to the smaller
    node-index sequence; nodes_expanded counts the insertions evaluated.

    Deterministic for a fixed seed. The cost rows and legs it reads are
    cached on p.lg (_grasp_tables) and hold neither rewards nor the budget,
    so a call returns the same result whichever calls ran on that LogGraph
    before.
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
