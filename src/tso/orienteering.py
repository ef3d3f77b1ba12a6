"""Oracles for the budgeted reward-collection subproblem on the log graph.

Maximize summed node (or edge) rewards over a start-terminal path whose
log-cost stays within the budget. Reward is collected from step 1 onward,
so the start node pays only when a tour returns to it. The exact solver
scores a per-graph catalog of every budget-feasible prefix, with a
depth-first branch and bound for graphs whose catalog would be too large;
the heuristic is randomized greedy insertion with local search (GRASP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import INF, BUDGET_TOL, InfeasibleInstanceError, LogGraph, _tour_cost, ordered_sum, search, tree_path


@dataclass
class OrienteeringProblem:
    lg: LogGraph
    rewards: dict[int, float] | None = None
    edge_rewards: dict[tuple[int, int], float] | None = None

    def __post_init__(self):
        if self.rewards is not None:
            for v, r in self.rewards.items():
                if v not in self.lg.graph.index:
                    raise ValueError(f"reward on unknown node {v}")
                if r < 0 or r != r:
                    raise ValueError(f"negative or NaN reward on node {v}")
        if self.edge_rewards is not None:
            for e, r in self.edge_rewards.items():
                if e[1] not in self.lg.costs.get(e[0], ()):
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
    return ordered_sum(rewards.get(v, 0.0) for v in path[1:])


def solve_exact(p: OrienteeringProblem, use_reward_bound: bool = True) -> OracleResult:
    """Best path for node rewards: the lexicographically smallest maximizer.

    The first call on a LogGraph lists every budget-feasible prefix of its
    graph once, one depth at a time, and keeps its leaves, the feasible
    paths, as one arc table in a PrefixCatalog on that LogGraph; this and
    every later call there, such as greedy's next robot, only sums its
    rewards over that table, one gather-add per row. Each leaf's sum adds
    its arcs' rewards to 0.0 from the start on: the same IEEE additions, in
    the same order, as the branch and bound's `collected + reward[k]`, so
    each path's reward is bit-equal to the search's. The search keeps its
    first strict improvement in DFS order, the lexicographically smallest
    maximizer by node index; the catalog picks the same leaf
    (PrefixCatalog.best), so both give the same path and the same float. A
    depot robot stays home unless the best tour collects more than 0.0.
    nodes_expanded of a catalog call is its number of prefixes, root
    included: what the branch and bound expands without its reward bound.

    A catalog holds at most CATALOG_CAP prefixes. Above that its build
    stops, and this call and every later one on the same LogGraph run the
    branch and bound with its reward bound.
    use_reward_bound=False always runs the branch and bound without it, the
    audit reference. The build is vectorized: a lone call costs about as
    much as one bounded search on small graphs and less on large ones.
    """
    return _exact(p, "node", (p.rewards or {}).get, use_reward_bound)


def solve_arc_exact(p: OrienteeringProblem, use_reward_bound: bool = True) -> OracleResult:
    """solve_exact with rewards on edges instead of nodes; the same catalog serves both."""
    return _exact(p, "arc", (p.edge_rewards or {}).get, use_reward_bound)


def _exact(p: OrienteeringProblem, kind: str, lookup, use_reward_bound: bool) -> OracleResult:
    if (p.edge_rewards if kind == "node" else p.rewards) is not None:
        raise ValueError(f"the {kind} oracle takes {kind} rewards only")
    g = p.lg.graph
    depot = g.start == g.terminal
    cat = prefix_catalog(p.lg) if use_reward_bound else None
    if cat is None:
        return _branch_and_bound(p, kind, lookup, use_reward_bound)
    if kind == "node":
        rew = np.array([lookup(v, 0.0) for v in g.node_ids], dtype=float)[cat.heads]
    else:
        rew = np.array([lookup(e, 0.0) for e in cat.arcs], dtype=float)
    top = cat.best(rew)
    if top is not None and (not depot or top[0] > 0.0):
        reward, i = top
        return OracleResult(path=cat.path(i), reward=reward, exact=True, nodes_expanded=cat.prefixes)
    if not depot:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    return OracleResult(path=(g.start,), reward=0.0, exact=True, nodes_expanded=cat.prefixes)


# ---------------------------------------------------------------------------
# Path catalog

# A catalog holds at most this many prefixes. What it keeps is one arc per
# (leaf, step): the sum of its leaves' depths, 2 bytes each (int16 up to
# 2^15 arcs, int32 past that). A prefix has at most one step into the
# terminal, so leaves never outnumber prefixes, but a leaf of d steps takes
# d entries, so the table can outgrow the prefix count many times over.
# While it runs, the build holds per prefix its parent's position in the
# previous depth (uint16 while that depth holds at most 2^16 prefixes,
# uint32 past that) and its last arc, as much per leaf, and two depths'
# frontiers, each prefix with a node index, a float64 cost and ceil(V / 64)
# uint64 words (17 bytes up to 64 nodes), plus one chunk's tables; it then
# walks the leaves back into the table, freeing the depths as it goes. A
# call holds a float64 sum per leaf and one block's gather while it runs,
# and on a tie the tied leaves' positions. The heaviest benchmark
# graph (ratio draw 0 at p_s = 0.5) has 231,433 prefixes, 44,946 at its
# widest depth, and 71,414 leaves, whose table holds 708,918 arcs (1.4
# MiB); its build traces a peak of about 2.6 MiB.
CATALOG_CAP = 1 << 20

# Arcs a call gathers at once: longer rows are scored in pieces, so that
# no temporary outgrows 64 KiB. Freeing a larger one shrinks the heap, and
# the next call faults its pages in again: on the heaviest benchmark graph
# that made a call two to four times slower.
_BLOCK = 8192

# Parents expanded together by the build. A chunk's (parent, step) cost
# table takes 8 KiB per step of the node with the most steps: 152 KiB on
# the 20-node complete benchmark graphs.
_CHUNK = 1024


@dataclass
class PrefixCatalog:
    """Every budget-feasible start-terminal path of one LogGraph, as one arc table over its leaves.

    arcs lists the graph's arcs in (tail, head) index order and heads their
    heads' node indices. A leaf, a prefix's step into the terminal, is one
    feasible path. Leaves run deepest first, and rows[r] holds arc r of
    every leaf of more than r steps, so no row is padded. blocks cuts rows
    into (lo, arcs) pieces of at most _BLOCK arcs of leaves lo, lo + 1, ...
    level_prefixes[d] counts the prefixes of d steps and level_leaves[d]
    the leaves out of them; prefixes counts the root too.
    """

    start: int
    arcs: list
    heads: np.ndarray
    rows: list
    blocks: list
    level_prefixes: list
    level_leaves: list
    prefixes: int

    def best(self, rew):
        """(reward, leaf) of the best leaf given each arc's reward; None without leaves.

        Each leaf's sum adds its arcs' rewards to 0.0 from the start on,
        block by block in row order, as the search adds collected +
        reward[k]: the same floats. Among equal sums the search keeps the
        first in DFS order, the smallest node-index sequence, which is the
        smallest arc sequence, arcs being numbered in (tail, head) index
        order from one start. Row by row, only the tied leaves with the
        smallest arc there stay; no prefix enters the terminal, so no leaf
        is a prefix of another and tied leaves agreeing so far all have the
        next row.
        """
        if not self.rows:
            return None
        sums = np.zeros(len(self.rows[0]))
        for lo, arcs in self.blocks:
            sums[lo:lo + len(arcs)] += rew.take(arcs)
        top = sums.max()
        tied = np.flatnonzero(sums == top)
        for row in self.rows:
            if len(tied) == 1:
                break
            step = row.take(tied)
            tied = tied[step == step.min()]
        return float(top), int(tied[0])

    def path(self, i) -> tuple:
        """Node sequence of leaf i."""
        return (self.start,) + tuple(self.arcs[row[i]][1] for row in self.rows if i < len(row))

    def paths(self) -> list[tuple]:
        """Every leaf's node sequence in DFS order: lexicographic by node index."""
        seqs = []
        ends = [len(row) for row in self.rows]
        # Leaves ends[k]..ends[k - 1] - 1 take k steps.
        for k, (lo, hi) in enumerate(zip(ends[1:] + [0], ends), 1):
            seqs += zip(*(row[lo:hi].tolist() for row in self.rows[:k]))
        seqs.sort()
        return [(self.start,) + tuple(self.arcs[k][1] for k in seq) for seq in seqs]


def prefix_catalog(lg: LogGraph) -> PrefixCatalog | None:
    """The catalog of lg, built on first use and kept on lg; None above CATALOG_CAP."""
    if not lg._catalog_cache:
        lg._catalog_cache = (_build_catalog(lg),)
    return lg._catalog_cache[0]


def _build_catalog(lg: LogGraph) -> PrefixCatalog | None:
    """The prefixes of _branch_and_bound's search without its reward bound, listed one depth at a time.

    Each depth's frontier holds, per prefix, its node index, its cost and
    its visited nodes as ceil(V / 64) uint64 words in which the terminal's
    bit is 0. It is expanded _CHUNK prefixes at a time against a padded
    (node, step) table in lg.costs order. Out of a prefix of cost `cost`,
    a step of cost w to the terminal is a leaf when `cost + w <= limit`,
    and a step to a free node u is a child unless
    `cost + w + to_t[u] > limit`: the search's own float expressions.
    np.flatnonzero over a chunk's (parent, step) grid lists its children in
    parent order, then step order, so each depth comes out in the search's
    order. There is no check on the start, so an infeasible one gives a
    catalog without leaves. A step to a node other than the terminal that
    fails its test at cost 0.0 is left out of the table: costs are never
    negative and float addition is monotone, so it would fail at every
    cost. The build stops, returning None, as soon as the prefixes counted
    exceed CATALOG_CAP.
    """
    g = lg.graph
    start, terminal = g.start, g.terminal
    idx = g.index
    n = len(g.node_ids)
    limit = lg.limit
    dist_to_t = lg.distances_to(terminal)
    arcs = _arcs(lg)
    node_dt = np.min_scalar_type(n - 1)
    arc_dt = np.int16 if len(arcs) <= 1 << 15 else np.int32
    words = -(-n // 64)

    # Per node: its steps to other nodes, padded with infinite costs, and
    # the cost of its step to the terminal, infinite when it has none.
    tails = np.repeat(np.arange(n), [len(row) for row in lg.costs.values()])
    heads = np.array([idx[b] for _a, b in arcs], dtype=np.intp)
    arc_w = np.array([c for row in lg.costs.values() for c in row.values()])
    head_t = np.array([dist_to_t[v] for v in g.node_ids])[heads]
    into_t = heads == idx[terminal]
    ks = np.flatnonzero(~into_t & (arc_w + head_t <= limit))
    cell = tails[ks], np.arange(len(ks)) - tails[ks].searchsorted(tails[ks])
    width = int(cell[1].max(initial=-1)) + 1
    head = np.zeros((n, width), node_dt)
    w = np.full((n, width), INF)
    to_t = np.zeros((n, width))
    arc = np.zeros((n, width), arc_dt)
    head[cell], w[cell], to_t[cell], arc[cell] = heads[ks], arc_w[ks], head_t[ks], ks
    ks = np.flatnonzero(into_t)
    leaf_w = np.full(n, INF)
    leaf_k = np.zeros(n, arc_dt)
    leaf_w[tails[ks]], leaf_k[tails[ks]] = arc_w[ks], ks
    word = (head >> 6).astype(np.intp).ravel()
    bit = np.left_shift(np.uint64(1), (head & 63).astype(np.uint64)).ravel()
    head, arc, w_flat = head.ravel(), arc.ravel(), w.ravel()

    node = np.array([idx[start]], node_dt)
    cost = np.zeros(1)
    vis = np.zeros((1, words), np.uint64)
    if start != terminal:
        vis[0, idx[start] >> 6] = np.uint64(1) << np.uint64(idx[start] & 63)
    prefixes = 1
    if prefixes > CATALOG_CAP:
        return None
    levels = []
    level_prefixes = []
    while len(node):
        level_prefixes.append(len(node))
        pos_dt = np.min_scalar_type(len(node) - 1)
        parts = []
        vis_flat = vis.reshape(-1)
        for lo in range(0, len(node), _CHUNK):
            nd = node[lo:lo + _CHUNK].astype(np.intp)
            cs = cost[lo:lo + _CHUNK]
            leaf = np.flatnonzero(cs + leaf_w.take(nd) <= limit)
            c = w.take(nd, axis=0)
            c += cs[:, None]
            c += to_t.take(nd, axis=0)
            fit = np.flatnonzero(c <= limit)
            del c
            r = fit // width
            steps = nd.take(r) * width + (fit - r * width)
            r += lo
            at = r * words + word.take(steps)
            keep = np.flatnonzero((vis_flat.take(at) & bit.take(steps)) == 0)
            r, steps = r.take(keep), steps.take(keep)
            prefixes += len(r)
            if prefixes > CATALOG_CAP:
                return None
            kid_vis = vis.take(r, axis=0)
            kid_vis.reshape(-1)[np.arange(0, len(r) * words, words) + word.take(steps)] |= bit.take(steps)
            parts.append((
                r.astype(pos_dt), arc.take(steps), (leaf + lo).astype(pos_dt), leaf_k.take(nd.take(leaf)),
                head.take(steps), cost.take(r) + w_flat.take(steps), kid_vis,
            ))
        # Join one field at a time, each freeing its chunks before the next.
        fields = [list(f) for f in zip(*parts)]
        del node, cost, vis, vis_flat, parts
        kid_parent, kid_arc, leaf_parent, leaf_arc, node, cost, vis = (
            np.concatenate(fields.pop(0)) for _ in range(7))
        levels.append((kid_parent, kid_arc, leaf_parent, leaf_arc))

    # Row r holds arc r of the leaves of more than r steps: those out of
    # depths r and deeper, deepest first. The rows are slices of one array,
    # which keeps the heap from fragmenting. Walking back from the deepest
    # depth with a leaf, freeing each once read, pos holds the position in
    # depth r + 1 of each deeper leaf's prefix of r + 1 steps.
    level_leaves = [len(leaf_arc) for _kp, _ka, _lp, leaf_arc in levels]
    lens = [m for m in np.cumsum(level_leaves[::-1])[::-1].tolist() if m]
    del levels[len(lens):]
    rows = np.split(np.empty(sum(lens), arc_dt), np.cumsum(lens)[:-1]) if lens else []
    pos = np.zeros(0, np.intp)
    for row in reversed(rows):
        kid_parent, kid_arc, leaf_parent, leaf_arc = levels.pop()
        np.concatenate((kid_arc.take(pos), leaf_arc), out=row)
        pos = np.concatenate((kid_parent.take(pos), leaf_parent))
    return PrefixCatalog(
        start=start, arcs=arcs, heads=heads, rows=rows,
        blocks=[(lo, row[lo:lo + _BLOCK]) for row in rows for lo in range(0, len(row), _BLOCK)],
        level_prefixes=level_prefixes, level_leaves=level_leaves, prefixes=prefixes,
    )


# ---------------------------------------------------------------------------
# Branch and bound: the fallback above CATALOG_CAP and the audit reference

def _arcs(lg: LogGraph) -> list:
    """The graph's arcs in (tail, head) index order, as lg.costs lists them: the arc numbering of catalogs and searches."""
    return [(v, u) for v, row in lg.costs.items() for u in row]


def _node_table(lg: LogGraph, v, items, step_item, bit, dist_to_t):
    """Bound items (need, head bit, k) and steps (u, cost, dist_to_t[u], bit of u, k) of node v."""
    dv = lg.distances_from(v)
    bound = [(dv[a] + extra + dist_to_t[b], bit[b], k) for k, (a, extra, b) in enumerate(items)]
    steps = [(u, w, dist_to_t[u], bit[u], step_item[(v, u)]) for u, w in lg.costs[v].items()]
    return bound, steps


def _branch_and_bound(p: OrienteeringProblem, kind: str, lookup, use_reward_bound: bool) -> OracleResult:
    """Depth-first branch and bound shared by node and arc rewards.

    It serves the calls whose catalog would exceed CATALOG_CAP and, with
    use_reward_bound=False, is the reference the catalog is checked against.
    Item k is (a, extra, b), paid reward[k]: one (j, 0.0, j) per node in
    index order, or one (a, cost(a, b), b) per arc in _arcs order. It is a
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
    lg = p.lg
    g = lg.graph
    start, terminal, budget, limit = g.start, g.terminal, lg.budget, lg.limit
    depot = start == terminal
    dist_to_t = lg.distances_to(terminal)
    idx = g.index
    arcs = _arcs(lg)
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


# ---------------------------------------------------------------------------
# GRASP heuristic

def _grasp_tables(lg: LogGraph):
    """(rows, legs, cands) of lg, built by its first GRASP call and kept for every later one.

    rows[v] holds lg.costs[v]'s (head, cost) pairs stable-sorted by cost, so
    heads of equal cost stay in index order. legs maps (src, dst,
    frozenset(banned)) to a (leg, cost) entry of _leg_avoiding, and cands
    maps a source to its _leg_tree candidate row. None of them holds
    rewards, so the calls of a greedy run, which share one LogGraph, share
    them too.

    The scans over rows stop at the first arc whose bound fails. Costs are
    -ln(survival) >= 0 (log_transform refuses any other survival), and
    round-to-nearest is monotone: x <= y gives fl(x + z) <= fl(y + z) and
    fl(x - z) <= fl(y - z), and fl(x + c) >= x for c >= 0. So a bound built
    from the same operations as a fit test, with a part >= 0 left out,
    never exceeds that test's left side, and it grows with the arc's cost:
    once it fails for one arc it fails for every later one. No float slack
    is needed.
    """
    if lg._grasp_cache is None:
        rows = {v: tuple(sorted(row.items(), key=lambda t: t[1])) for v, row in lg.costs.items()}
        lg._grasp_cache = (rows, {}, {})
    return lg._grasp_cache


def _base_path(p: OrienteeringProblem):
    """Cheapest feasible skeleton: shortest return for depots, shortest path otherwise."""
    lg = p.lg
    start, terminal, limit = lg.graph.start, lg.graph.terminal, lg.limit
    # Each cost is bit-equal to _path_cost of its path. graph.search sets
    # dist[v] and parent[v] together, dist[v] as dist[parent[v]] +
    # cost(parent[v], v), with dist[parent[v]] final by then. So dist[v]
    # sums the tree path's arc costs left to right from 0.0, and a tour adds
    # its return arc last. Tree paths are simple.
    dist, parent = lg.shortest_tree(start)
    if start != terminal:
        if dist[terminal] > limit:
            raise InfeasibleInstanceError("no start-terminal path within the survival budget")
        return tree_path(parent, start, terminal), dist[terminal]
    cost, last = _tour_cost(lg)
    if cost > limit:
        return [start], 0.0
    return tree_path(parent, start, last) + [start], cost


def _path_cost(lg, path):
    # Left to right, as the reversal scan of _local_search sums.
    return ordered_sum(lg.costs[a][b] for a, b in zip(path, path[1:]))


def _leg_tree(lg, src):
    """(dist, prev, cands): src's tree, kept by lg.shortest_tree, and its candidate row, built on first use and kept.

    cands lists, in node_ids order, (j, dist[j], dist_to(terminal)[j]) for
    each j other than the terminal with `dist[j] + dist_to(terminal)[j] <=
    limit`: _random_skeleton's candidate test at cost 0.0, for waypoints
    from src. A node that fails it at cost 0.0 fails it at every cost, as
    float addition is monotone and costs are >= 0 (see _grasp_tables); so
    does a node with an INF distance.
    """
    dist, prev = lg.shortest_tree(src)
    memo = _grasp_tables(lg)[2]
    cands = memo.get(src)
    if cands is None:
        g = lg.graph
        dist_t = lg.distances_to(g.terminal)
        cands = memo[src] = [
            (j, dist[j], dist_t[j]) for j in g.node_ids
            if j != g.terminal and dist[j] + dist_t[j] <= lg.limit
        ]
    return dist, prev, cands


def _leg_avoiding(lg, src, dst, banned, cost):
    """Cheapest src-to-dst leg whose interior skips the banned nodes, as (nodes, cost) or None.

    The caller, at cost `cost`, uses a leg only if `cost + leg + extra <=
    limit`, where extra = dist_to(terminal)[dst]: 0.0 for the closing leg.
    The banned search stops each row at the first improving arc with `cost
    + (d + w) + extra > limit`, that test with the partial distance d + w
    in place of the leg (see _grasp_tables for why such a bound never
    rejects what the test accepts). If the leg of the unbounded search
    fits, every node on it passes, and every relaxation dropped is longer
    than the leg, so it would pop after dst: the nodes popped before dst
    get the same dist and prev, and the search returns the same leg. If it
    does not fit, no relaxation into dst passes and the search returns
    None, which the caller rejects as it would the leg.

    When the path to dst in src's tree has an interior that avoids banned,
    that path is the unbounded banned search's leg, and it is returned if
    it fits, else None. Both searches pop in (dist, node id) order and keep
    the first popped predecessor that gives the smallest float (see
    graph.search). Each node of the path has the same dist in the banned
    search, as its path survives and a ban only removes relaxations. Its
    tree prev is popped first among the surviving predecessors: an earlier
    banned predecessor with an equal sum would itself have been the tree's
    prev, and a surviving one whose dist the ban raised reached the same
    sum from its smaller tree dist, so it popped earlier in the tree too.
    Nodes popped after dst change no prev on the path, because updates need
    a strict < and costs are >= 0.

    Any other query runs the banned search. A leg depends on the graph
    alone, so each key's (leg, cost) entry is kept in the leg cache of
    _grasp_tables. A found leg answers every later query, whose caller
    tests again whether it fits. A None answers only queries at its cost or
    above, where the leg fits no better; any other query searches again.
    """
    extra = lg.distances_to(lg.graph.terminal)[dst]
    dist, prev = lg.shortest_tree(src)
    nodes = tree_path(prev, src, dst, banned)
    if nodes is not None:
        return (tuple(nodes), dist[dst]) if cost + dist[dst] + extra <= lg.limit else None
    rows, legs, _cands = _grasp_tables(lg)
    key = (src, dst, frozenset(banned))
    hit = legs.get(key)
    if hit is not None and (hit[0] is not None or cost >= hit[1]):
        return hit[0]
    dist, prev = search(rows, src, dst, banned, cost, extra, lg.limit)
    nodes = tree_path(prev, src, dst, banned)
    leg = None if nodes is None else (tuple(nodes), dist[dst])
    legs[key] = (leg, cost)
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
    lg = p.lg
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
        # v's candidate row, filtered by the same floats in the same order
        # as cost + dist(v, j) + dist_to(terminal)[j] (see _leg_tree).
        cands = [j for j, a, b in _leg_tree(lg, v)[2] if j not in used and cost + a + b <= limit]
        if not cands:
            # Nothing was drawn and v, cost and used are unchanged, so every
            # later hop would find this row empty too.
            break
        for _draw in range(3):
            if not cands:
                break
            j = cands[rng.integers(len(cands))]
            leg = _leg_avoiding(lg, v, j, used | {terminal}, cost)
            if leg is not None and cost + leg[1] + dist_t[j] <= limit:
                path += leg[0][1:]
                used.update(leg[0][1:])
                waypoints.append(len(path) - 1)
                cost += leg[1]
                v = j
                break
            cands.remove(j)
    while len(path) > 1:
        tail = _leg_avoiding(lg, v, terminal, used, cost)
        if tail is not None and cost + tail[1] <= limit:
            return path + list(tail[0][1:]), cost + tail[1]
        waypoints.pop()
        del path[waypoints[-1] + 1:]
        used = set(path)
        cost = _path_cost(lg, path)
        v = path[-1]
    return None


def _insertions(p: OrienteeringProblem, path, cost, visited):
    """Feasible (node, position, delta-cost) insertions of positive-reward nodes.

    Listed by node index, then position. Node j fits between a and b when
    `cost + (aj + jb - ab) <= limit`. Per path arc, the scan reads a's arcs
    cheapest first and stops at the first with `cost + (aj - ab) > limit`:
    the same test with jb >= 0 left out, which never fails where the test
    passes (see _grasp_tables), and fails for every costlier arc after it.
    """
    rows = _grasp_tables(p.lg)[0]
    costs = p.lg.costs
    rewards = p.rewards or {}
    limit = p.lg.limit
    index = p.lg.graph.index
    out = []
    for i, (a, b) in enumerate(zip(path, path[1:]), 1):
        ab = costs[a][b]
        for j, aj in rows[a]:
            if cost + (aj - ab) > limit:
                break
            if j in visited or rewards.get(j, 0.0) <= 0.0:
                continue
            jb = costs[j].get(b)
            if jb is None:
                continue
            delta = aj + jb - ab
            if cost + delta <= limit:
                out.append((j, i, delta))
    out.sort(key=lambda t: (index[t[0]], t[1]))
    return out


def _local_search(p: OrienteeringProblem, path, cost):
    """Hill-climb from a path that admits no insertion.

    Each round drops an interior node that pays nothing but costs something
    or, failing that, reverses a segment to lower the cost (a 2-exchange),
    then makes the best reward-per-cost insertion while one fits. It stops
    at the first round that finds neither a drop nor a reversal.
    """
    g = p.lg.graph
    costs = p.lg.costs
    rewards = p.rewards or {}
    while True:
        improved = False
        # Drop interior nodes that pay nothing but cost something.
        for i in range(1, len(path) - 1):
            j = path[i]
            if rewards.get(j, 0.0) > 0.0:
                continue
            a, b = path[i - 1], path[i + 1]
            ab = costs[a].get(b)
            if ab is None:
                continue
            delta = ab - costs[a][j] - costs[j][b]
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
                    w = costs[path[i + 1]].get(path[i])
                    if w is None:
                        break
                    run += w
                    row[i] = run
                back.append(row)
            for i in range(1, n - 1):
                from_a, head = costs[path[i - 1]], path[i]
                fwd = 0.0
                for k in range(i + 1, n - 1):
                    tail = path[k]
                    fwd += costs[path[k - 1]][tail]
                    rev = back[k].get(i)
                    if rev is None:
                        break
                    b = path[k + 1]
                    a_tail, head_b = from_a.get(tail), costs[head].get(b)
                    if a_tail is None or head_b is None:
                        continue
                    old = from_a[head] + fwd + costs[tail][b]
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

    Deterministic for a fixed seed. The trees, cost rows, candidate rows
    and legs it reads are cached on p.lg (shortest_tree, _grasp_tables) and
    hold no rewards, only facts of the graph and its budget, so a call
    returns the same result whichever calls ran on that LogGraph before.

    Restarts often reach a state an earlier restart of the same call
    reached, so two memos keyed by (tuple(path), cost) live for the call:
    rcls holds a state's insertion count and candidate list, ends the
    ranking key, path and reward its local search ends in. They give the
    same results as recomputing. Within a call the rewards and the LogGraph
    are fixed and the sort key is total, and _insertions, _local_search and
    path_reward draw nothing from rng and read only (path, cost) besides
    them. Each visit still adds its count to nodes_expanded and draws from
    rng as before. cost belongs in the key because one node sequence can
    carry different cost floats after different insertion orders. The
    memos depend on the rewards, so they must not go on p.lg.
    """
    if p.edge_rewards is not None:
        raise ValueError("the GRASP oracle takes node rewards only")
    g = p.lg.graph
    rewards = p.rewards or {}
    rng = np.random.default_rng(seed)
    base, base_cost = _base_path(p)
    rcls, ends = {}, {}
    best = None
    evaluated = 0
    for restart in range(max(1, restarts)):
        skeleton = _random_skeleton(p, rng, 2 ** ((restart - 1) % 5)) if restart else None
        if skeleton is None:
            path, cost = list(base), base_cost
        else:
            path, cost = list(skeleton[0]), skeleton[1]
        while True:
            at = (tuple(path), cost)
            hit = rcls.get(at)
            if hit is None:
                cands = _insertions(p, path, cost, set(path))
                cands.sort(key=lambda t: (-(rewards.get(t[0], 0.0) / max(t[2], 1e-12)), t[2], g.index[t[0]], t[1]))
                # A tuple: the collector stops tracking tuples of plain values,
                # where every kept list would be walked at each collection.
                hit = rcls[at] = (len(cands), tuple(cands[:max(1, (len(cands) + 3) // 4)]))
            count, rcl = hit
            evaluated += count
            if not count:
                break
            j, pos, delta = rcl[rng.integers(len(rcl))]
            path.insert(pos, j)
            cost += delta
        end = ends.get(at)
        if end is None:
            path, _cost = _local_search(p, path, cost)
            reward = path_reward(p, path)
            end = ends[at] = ((-reward, tuple(g.index[v] for v in path)), tuple(path), reward)
        if best is None or end[0] < best[0]:
            best = end
    return OracleResult(path=best[1], reward=best[2], exact=False, nodes_expanded=evaluated)
