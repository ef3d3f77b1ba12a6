"""Oracles for the budgeted reward-collection subproblem on the log graph.

Maximize summed node (or edge) rewards over a start-terminal path whose
log-cost stays within the budget. Reward is collected from step 1 onward,
so the start node pays only when a tour returns to it. The exact solver
scores a per-graph catalog of every budget-feasible prefix, with a
depth-first search that prunes by a reward bound for graphs whose catalog
would be too large; both expand prefixes with one kernel, _Steps.expand.
The heuristic is randomized greedy insertion with local search (GRASP).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .graph import INF, BUDGET_TOL, InfeasibleInstanceError, LogGraph, _tour_cost, ordered_sum, search, tree_path


@dataclass
class OracleResult:
    path: tuple[int, ...]
    reward: float
    nodes_expanded: int = 0


def _reward_array(rewards, keys, kind: str) -> np.ndarray:
    """rewards as float64 in keys order: an array in that order, as it is, or a dict by key, absent keys 0.0.

    ValueError on an array of another length, else naming the first key off keys or with a negative, infinite or NaN reward.
    """
    if isinstance(rewards, dict):
        known = set(keys)
        for key, r in rewards.items():
            if key not in known:
                raise ValueError(f"reward on {'unknown' if kind == 'node' else 'missing'} {kind} {key}")
            if not 0.0 <= r < INF:
                raise ValueError(f"negative, infinite or NaN reward on {kind} {key}")
        return np.array([rewards.get(k, 0.0) for k in keys], dtype=float)
    rew = np.asarray(rewards, dtype=float)
    if rew.shape != (len(keys),):
        raise ValueError(f"{kind} rewards of shape {rew.shape}, expected ({len(keys)},)")
    if not (rew.min(initial=0.0) >= 0.0 and rew.max(initial=0.0) < INF):
        raise ValueError(f"negative, infinite or NaN reward on {kind} {keys[np.flatnonzero(~((rew >= 0.0) & (rew < INF)))[0]]}")
    return rew


def path_reward(rewards, path) -> float:
    """Reward actually collected by a path: rewards[v] of its nodes at steps >= 1, once each, summed left to right.

    rewards holds every node of path: a dict by node id, or GRASP's list by index.
    """
    return ordered_sum(rewards[v] for v in path[1:])


def solve_exact(lg: LogGraph, rewards) -> OracleResult:
    """Best path for node rewards: the lexicographically smallest maximizer.

    The first call on a LogGraph lists every budget-feasible prefix of its
    graph once and keeps the leaves, the feasible paths, as one arc table
    in a PrefixCatalog on that LogGraph. This and every later call there
    sums its rewards over that table (PrefixCatalog.best) and reports the
    prefixes, root included, as nodes_expanded. A depot robot stays home
    unless the best tour collects more than 0.0. Above CATALOG_CAP prefixes
    the build stops, and the calls on that LogGraph run _bounded_search,
    which expands prefixes with the build's kernel and returns the same
    path and float. No oracle writes into the rewards it is handed, a dict or an array by node index.
    """
    return _exact(lg, _reward_array(rewards, lg.graph.node_ids, "node"), True)


def solve_arc_exact(lg: LogGraph, edge_rewards) -> OracleResult:
    """solve_exact with rewards on edges instead of nodes, a dict by (u, v) or an array in _Steps.arcs order; the same catalog serves both."""
    return _exact(lg, _reward_array(edge_rewards, lg.table(_Steps).arcs, "edge"), False)


def _exact(lg: LogGraph, item_rew, nodes: bool) -> OracleResult:
    """The exact oracle on lg for one reward per node (node_ids order) if nodes, else per arc (_Steps.arcs order).

    Both engines keep the larger float, then the smaller arc sequence, the
    smaller node-index sequence as arcs are numbered in (tail, head) index
    order. A depot's incumbent is (0.0, no arcs), staying home; ties keep it.
    """
    st = lg.table(_Steps)
    # One reward per arc, then the sentinel arc's 0.0 (see PrefixCatalog).
    rew = np.zeros(len(st.arcs) + 1)
    rew[:-1] = item_rew.take(st.heads) if nodes else item_rew
    best = (0.0, ()) if st.depot else (-INF, None)
    cat = lg.table(prefix_catalog)
    if cat is None:
        (reward, arcs), expanded = _bounded_search(lg, item_rew, rew, nodes, *best)
    else:
        top, expanded = cat.best(rew), cat.prefixes
        reward, arcs = top if top[0] > best[0] else best
    if arcs is None:
        raise InfeasibleInstanceError("no start-terminal path within the survival budget")
    return OracleResult((lg.graph.start,) + tuple([st.arcs[k][1] for k in arcs]), float(reward), expanded)


# ---------------------------------------------------------------------------
# Path catalog

# A catalog holds at most this many prefixes. What it keeps is its tiles:
# one arc per (leaf, step), 2 bytes each (int16 below 2^15 arcs, int32 from
# there), plus a sentinel after each leaf shorter than its tile's first,
# and a padding column of sentinels when a last leaf is left alone. A
# prefix has at most one step into the terminal, so leaves never outnumber
# prefixes, but a leaf of d steps takes d entries, so the tiles can outgrow
# the prefix count many times over. While it runs, the build holds per
# prefix its parent's position in the previous depth (uint16 while that
# depth holds at most 2^16 prefixes, uint32 past that) and its last arc, as
# much per leaf, and two depths' frontiers, each prefix with a node index, a
# float64 cost and ceil(V / 64) uint64 words (17 bytes up to 64 nodes),
# plus one chunk's tables; it then walks the leaves back into the tiles,
# freeing the depths as it goes. A call holds a float64 sum per leaf and one
# tile's gather while it runs, and on a tie the tied leaves' positions. The
# heaviest benchmark graph (ratio draw 0 at p_s = 0.5) has 231,433
# prefixes, 44,946 at its widest depth, and 71,414 leaves of 708,918 arcs,
# whose tiles hold 713,406 entries (1.4 MiB); its build traces a peak of
# about 2.6 MiB.
CATALOG_CAP = 1 << 20

# Entries of a tile, and so of a call's gather: no gather outgrows 64 KiB
# unless a leaf takes more than _BLOCK / 2 steps. Freeing a larger temporary shrinks
# the heap, and the next call faults its pages in again: on the heaviest
# benchmark graph that made a call two to four times slower.
_BLOCK = 8192

# Prefixes expanded together by the build and, with node rewards, by the
# bounded search. A chunk's (prefix, step) cost table takes 8 KiB per step
# of the node with the most steps: 152 KiB on the 20-node complete
# benchmark graphs. The search's (prefix, item) mask takes _CHUNK * V
# entries; with one item per arc its chunks shrink to keep it so.
_CHUNK = 1024


@dataclass
class PrefixCatalog:
    """Every budget-feasible start-terminal path of one LogGraph, as depth-major tiles of arcs.

    arcs lists the graph's arcs in (tail, head) index order; len(arcs) is
    the sentinel arc. A leaf, a prefix's step into the terminal, is one
    feasible path. Leaves run deepest first, in runs of w = max(2, min(_BLOCK
    // d, leaves left)), d the depth of a run's first leaf. tiles holds (lo,
    tile) per run, tile a C-order (d, w) array whose column c lists leaf lo
    + c's arcs, padded with the sentinel; a column past the last leaf is all
    sentinel. level_leaves[d] counts the leaves of d + 1 steps; prefixes
    counts every prefix, the root too.
    """

    start: int
    arcs: list
    tiles: list
    level_leaves: list
    prefixes: int

    def __post_init__(self):
        # ends[r]: one past the last leaf of the r-th deepest depth's run.
        self.ends = list(accumulate(self.level_leaves[::-1]))

    def best(self, rew):
        """(reward, arcs) of the best leaf given each arc's reward, the sentinel's 0.0 last; (-INF, None) without leaves.

        Each leaf's sum adds its arcs' rewards to 0.0 in path order, as the
        bounded search adds collected + reward[k]: the same floats. numpy sums a
        tile row by row, as no tile has a lone column, the one shape it sums
        pairwise, and a sentinel's +0.0 moves no bit of a sum begun at +0.0.
        Ties go to the smallest arc sequence (see _exact). The build lists each
        depth's leaves in that order, so only the first tied leaf of each depth
        can win, the first of all if no tie lies past its depth's run.
        """
        if not self.tiles:
            return -INF, None
        # One slot more for the last tile's padding column, if it has one.
        sums = np.empty(sum(self.level_leaves) + 1)
        for lo, tile in self.tiles:
            np.add.reduce(rew.take(tile), axis=0, initial=0.0, out=sums[lo:lo + tile.shape[1]])
        sums = sums[:-1]
        top = sums.max()
        tied = np.flatnonzero(sums == top)
        i = int(tied[0])
        if tied[-1] >= self.ends[bisect_right(self.ends, i)]:
            # The first tied leaf at or after the start of each depth's run:
            # the first of each depth among them, and no leaf but tied ones.
            at = np.searchsorted(tied, [0] + self.ends)
            i = min(set(tied.take(at, mode="clip").tolist()), key=self._arcs)
        return float(top), tuple([k for k in self._arcs(i) if k < len(self.arcs)])

    def _arcs(self, i) -> list:
        """Leaf i's arcs, padded with the sentinel to its tile's depth: no leaf is a prefix of another, so the padding orders none."""
        lo, tile = next(t for t in reversed(self.tiles) if t[0] <= i)
        return tile[:, i - lo].tolist()

    def paths(self) -> list[tuple]:
        """Every leaf's node sequence in DFS order: lexicographic by node index."""
        # The padding column, all sentinel, sorts last.
        cols = sorted(col for _lo, tile in self.tiles for col in tile.T.tolist())[:sum(self.level_leaves)]
        return [(self.start,) + tuple(self.arcs[k][1] for k in col if k < len(self.arcs)) for col in cols]


class _Steps:
    """The padded (node, step) table of a LogGraph, and the one kernel that expands prefixes over it.

    A prefix is a node index, a float64 cost and its visited nodes as
    ceil(V / 64) uint64 words, in which the terminal's bit is 0; root is
    the one at the start. Per node, the table holds its steps to other
    nodes in lg.out order, padded with infinite costs, and the cost of its
    step to the terminal, infinite when it has none. A step to a node other
    than the terminal that fails its test at cost 0.0 is left out: costs
    are never negative and float addition is monotone, so it would fail at
    every cost. arcs lists lg's arcs in (tail, head) index order, as
    lg.out lists them: the arc numbering of catalogs and searches. tails,
    heads and arc_w give each its tail and head indices and its cost, and
    to_t is each node's distance to the terminal. lg's one _Steps
    (lg.table(_Steps)) serves every exact call, and no call writes into it.
    """

    def __init__(self, lg: LogGraph):
        g = lg.graph
        idx = g.index
        n = len(g.node_ids)
        self.limit = lg.limit
        self.start, self.terminal, self.depot = idx[g.start], idx[g.terminal], g.start == g.terminal
        self.arcs = [(g.node_ids[i], g.node_ids[j]) for i, row in enumerate(lg.out) for j in row]
        self.node_dt = np.min_scalar_type(n - 1)
        self.arc_dt = np.int16 if len(self.arcs) < 1 << 15 else np.int32
        self.words = -(-n // 64)
        self.to_t = np.array(lg.tree(self.terminal, reverse=True)[0])
        self.tails = tails = np.repeat(np.arange(n), [len(row) for row in lg.out])
        self.heads = heads = np.array([j for row in lg.out for j in row], dtype=np.intp)
        self.arc_w = arc_w = np.array([c for row in lg.out for c in row.values()])
        head_t = self.to_t[heads]
        into_t = heads == self.terminal
        ks = np.flatnonzero(~into_t & (arc_w + head_t <= self.limit))
        cell = tails[ks], np.arange(len(ks)) - tails[ks].searchsorted(tails[ks])
        self.width = width = int(cell[1].max(initial=-1)) + 1
        head, arc = np.zeros((n, width), self.node_dt), np.zeros((n, width), self.arc_dt)
        self.w, self.step_t = np.full((n, width), INF), np.zeros((n, width))
        head[cell], self.w[cell], self.step_t[cell], arc[cell] = heads[ks], arc_w[ks], head_t[ks], ks
        ks = np.flatnonzero(into_t)
        self.leaf_w, self.leaf_k = np.full(n, INF), np.zeros(n, self.arc_dt)
        self.leaf_w[tails[ks]], self.leaf_k[tails[ks]] = arc_w[ks], ks
        # Flat, as the kernel reads them at flat (node, step) positions.
        self.word = (head >> 6).astype(np.intp).ravel()
        self.bit = np.left_shift(np.uint64(1), (head & 63).astype(np.uint64)).ravel()
        self.head, self.arc, self.w_flat = head.ravel(), arc.ravel(), self.w.ravel()
        vis = np.zeros((1, self.words), np.uint64)
        if not self.depot:
            vis[0, self.start >> 6] = np.uint64(1) << np.uint64(self.start & 63)
        self.root = np.array([self.start], self.node_dt), np.zeros(1), vis

    def expand(self, node, cost, vis):
        """(parent, arc, leaf, leaf_arc, node, cost, vis) out of a chunk of prefixes.

        Out of a prefix of cost `cost`, a step of cost w to the terminal is
        a leaf when `cost + w <= limit`, and a step to a free node u is a
        child unless `cost + w + to_t[u] > limit`: every budget test of the
        exact oracle is one of these float expressions. np.flatnonzero over
        the chunk's (prefix, step) grid lists the children in prefix order,
        then step order: parent holds each child's position in the chunk and
        arc its last arc; node, cost and vis are the children's. leaf lists
        the chunk's positions with a leaf, leaf_arc their arcs into the
        terminal.
        """
        nd = node.astype(np.intp)
        leaf = np.flatnonzero(cost + self.leaf_w.take(nd) <= self.limit)
        c = self.w.take(nd, axis=0)
        c += cost[:, None]
        c += self.step_t.take(nd, axis=0)
        fit = np.flatnonzero(c <= self.limit)
        del c
        width, words = self.width, self.words
        r = fit // width
        # Flat positions in the (node, step) table.
        steps = nd.take(r) * width + (fit - r * width)
        at = r * words + self.word.take(steps)
        keep = np.flatnonzero((vis.reshape(-1).take(at) & self.bit.take(steps)) == 0)
        r, steps = r.take(keep), steps.take(keep)
        kid_vis = vis.take(r, axis=0)
        kid_vis.reshape(-1)[np.arange(0, len(r) * words, words) + self.word.take(steps)] |= self.bit.take(steps)
        return (r, self.arc.take(steps), leaf, self.leaf_k.take(nd.take(leaf)), self.head.take(steps),
                cost.take(r) + self.w_flat.take(steps), kid_vis)


def prefix_catalog(lg: LogGraph) -> PrefixCatalog | None:
    """Every budget-feasible prefix of lg, listed one depth at a time; None above CATALOG_CAP.

    Callers read it as lg.table(prefix_catalog), which builds it once per
    LogGraph. Each depth's frontier is expanded _CHUNK prefixes at a time
    by _Steps.expand, which lists a chunk's children in parent order, then
    step order, so each depth comes out in lexicographic order by node
    index. There is no check on the start, so an infeasible one gives a
    catalog without leaves. The build stops, returning None, as soon as the
    prefixes counted exceed CATALOG_CAP.
    """
    st = lg.table(_Steps)
    node, cost, vis = st.root
    prefixes = 1
    if prefixes > CATALOG_CAP:
        return None
    levels = []
    while len(node):
        pos_dt = np.min_scalar_type(len(node) - 1)
        parts = []
        for lo in range(0, len(node), _CHUNK):
            r, kid_arc, leaf, *rest = st.expand(node[lo:lo + _CHUNK], cost[lo:lo + _CHUNK], vis[lo:lo + _CHUNK])
            prefixes += len(r)
            if prefixes > CATALOG_CAP:
                return None
            parts.append(((r + lo).astype(pos_dt), kid_arc, (leaf + lo).astype(pos_dt), *rest))
        # Join one field at a time, each freeing its chunks before the next.
        fields = [list(f) for f in zip(*parts)]
        del node, cost, vis, parts
        kid_parent, kid_arc, leaf_parent, leaf_arc, node, cost, vis = (
            np.concatenate(fields.pop(0)) for _ in range(7))
        levels.append((kid_parent, kid_arc, leaf_parent, leaf_arc))

    # lens[r] counts the leaves of more than r steps, the first lens[r]
    # leaves: row r of the tiles holds their arcs r, then the sentinel, also
    # in a padding column past the last leaf. No tile has one column, which
    # numpy would sum pairwise (see PrefixCatalog.best). The
    # tiles are slices of one array, which keeps the heap from fragmenting.
    # Walking back from the deepest depth with a leaf, freeing each once
    # read, row holds arc r of the first lens[r] leaves and pos the position
    # in depth r + 1 of each deeper leaf's prefix of r + 1 steps.
    level_leaves = [len(leaf_arc) for _kp, _ka, _lp, leaf_arc in levels]
    lens = [m for m in np.cumsum(level_leaves[::-1])[::-1].tolist() if m]
    del levels[len(lens):]
    cuts, lo = [], 0
    while lens and lo < lens[0]:
        d = sum(m > lo for m in lens)
        cuts.append((lo, d, max(2, min(_BLOCK // d, lens[0] - lo))))
        lo += cuts[-1][2]
    at = np.cumsum([0] + [d * w for _lo, d, w in cuts]).tolist()
    flat = np.empty(at[-1], st.arc_dt)
    tiles = [(lo, flat[a:a + d * w].reshape(d, w)) for (lo, d, w), a in zip(cuts, at)]
    pos = np.zeros(0, np.intp)
    for r in reversed(range(len(lens))):
        kid_parent, kid_arc, leaf_parent, leaf_arc = levels.pop()
        row = np.concatenate((kid_arc.take(pos), leaf_arc))
        pos = np.concatenate((kid_parent.take(pos), leaf_parent))
        for lo, tile in tiles:
            if lo >= lens[r]:
                break
            k = min(tile.shape[1], lens[r] - lo)
            tile[r, :k], tile[r, k:] = row[lo:lo + k], len(st.arcs)
    return PrefixCatalog(start=lg.graph.start, arcs=st.arcs, tiles=tiles, level_leaves=level_leaves, prefixes=prefixes)


# ---------------------------------------------------------------------------
# Bounded search: the exact oracle above CATALOG_CAP

def _rows(lg: LogGraph) -> list:
    """rows[i]: lg.out[i]'s (head index, cost) pairs sorted by cost, equal costs by head index.

    lg.table(_rows) is the one cost-sorted table of lg: GRASP's banned leg
    search reads it, and _within cuts it.
    """
    return [tuple(sorted(row.items(), key=lambda t: (t[1], t[0]))) for row in lg.out]


def _within(lg: LogGraph) -> np.ndarray:
    """dist[v, u] over node indices: the shortest v-to-u distance, INF past limit (lg.table(_within)).

    Row v is a graph.search from v stopped at limit, over _rows cut at
    limit: the stopped search relaxes no arc past limit, and the cut drops
    the arcs it would only scan. It gives the same floats as an unstopped
    search up to limit, and a longer distance fails every test of the
    bounded search as INF does, since a need adds costs >= 0 to it.
    """
    rows = [tuple(t for t in row if t[1] <= lg.limit) for row in lg.table(_rows)]
    return np.array([search(rows, v, limit=lg.limit)[0] for v in range(len(rows))])


def _bounded_search(lg: LogGraph, item_rew, rew, nodes: bool, best, best_path):
    """((reward, arcs), prefixes expanded) from the incumbent (best, best_path): a depth-first search over _Steps.expand that prunes by a reward bound.

    Item k is (a, extra, b), paid item_rew[k]: one (j, 0.0, j) per node in
    index order if nodes, else one (a, cost(a, b), b) per arc in _Steps.arcs
    order; rew holds each arc's reward, as _exact maps it. A walk v ~> a,
    extra, b ~> terminal could still collect item k, at a need of
    _within[v, a] + extra + dist(b, terminal), unless b is visited.

    A stack holds chunks of prefixes with their paths (arcs), collected
    rewards, costs and visited words. A popped chunk is pruned, its leaves
    are scored and its children are pushed in chunks, the last first; then
    its arrays are dropped, so memory follows the live stack. A chunk's
    (prefix, item) mask holds about _CHUNK * V entries. The prefixes
    expanded are those popped, whose bound was tested. The incumbent is the
    best (reward, arcs) so far by _exact's order: the larger float, then
    the smaller arc sequence.

    A prefix's bound is collected plus the masked sum of the rewards with
    need <= budget - cost + BUDGET_TOL. A completion pays collected plus
    some of those terms, so its exact sum is at most the bound's. Each
    float sums at most N + 1 terms >= 0, N = len(items): the completion
    left to right, the bound as collected plus numpy's pairwise sum of the
    masked row. In any bracketing a term meets at most N roundings, each
    within a factor 1 +- u (u = 2^-53), so the completion's float is at
    most bound * ((1 + u) / (1 - u))^N < bound * (1 + 4N*u). slack = 1 +
    8N*u is exact, and rounding bound * slack loses at most a factor 1 - u:
    a completion is below bound * slack if bound is a normal float, and at
    most bound if it is 0.0 or subnormal, as then every partial sum is
    exact. A prefix is pruned when bound * slack is below the incumbent, or
    equals it and the prefix's path does not come before the incumbent's.
    The tie matters at bound 0.0: chunks find (s, t) before the leaves
    under (s, a), index(a) < index(t). Without the slack, 1e-16 + 1.0 +
    1e-16 in item order gave 1.0 and pruned a path that collects 1e-16 +
    1e-16 + 1.0 = 1.0000000000000002.
    """
    st = lg.table(_Steps)
    n = len(lg.graph.node_ids)
    a, b, extra = (np.arange(n), np.arange(n), np.zeros(n)) if nodes else (st.tails, st.heads, st.arc_w)
    need = lg.table(_within).take(a, axis=1) + extra + st.to_t.take(b)
    slack = 1.0 + len(item_rew) * 2.0 ** -50
    chunk = max(1, _CHUNK * n // max(1, len(item_rew)))
    expanded = 0
    node, cost, vis = st.root
    stack = [(node, cost, vis, np.zeros(1), np.zeros((1, 0), st.arc_dt))]
    while stack:
        node, cost, vis, got, paths = stack.pop()
        expanded += len(node)
        # Bit j of a prefix's visited words is column j of bits; the terminal's is 0.
        reach = need.take(node, axis=0) <= (lg.budget - cost + BUDGET_TOL)[:, None]
        bits = np.unpackbits(vis.astype("<u8", copy=False).view(np.uint8), axis=1, count=n, bitorder="little")
        reach &= (bits if nodes else bits.take(b, axis=1)) == 0
        top = (got + (reach * item_rew).sum(axis=1)) * slack
        live = top > best
        # A tie with the incumbent survives only ahead of it in arc order.
        for i in np.flatnonzero(top == best).tolist():
            live[i] = tuple(paths[i].tolist()) < best_path
        keep = np.flatnonzero(live)
        node, cost, vis, got, paths = (x.take(keep, axis=0) for x in (node, cost, vis, got, paths))
        r, kid_arc, leaf, leaf_arc, *kids = st.expand(node, cost, vis)
        if len(leaf):
            val = got.take(leaf) + rew.take(leaf_arc)
            top = val.max()
            on = val == top
            path = tuple(min(np.column_stack((paths.take(leaf[on], axis=0), leaf_arc[on])).tolist()))
            if top > best or (top == best and path < best_path):
                best, best_path = top, path
        # Children as (node, cost, vis, collected, path), pushed last chunk first.
        kids += got.take(r) + rew.take(kid_arc), np.column_stack((paths.take(r, axis=0), kid_arc))
        stack += [tuple(x[lo:lo + chunk] for x in kids) for lo in reversed(range(0, len(r), chunk))]
    return (best, best_path), expanded


# ---------------------------------------------------------------------------
# GRASP heuristic. It runs on node indices: every node, path, leg, table key
# and tree below is an index into node_ids, and solve_heuristic turns the
# rewards into a list by index and its path into node ids once, on return.

class _Draws:
    """GRASP's random indices: integers(n) returns, as an int, what np.random.default_rng(seed).integers(n) returns.

    default_rng(seed) draws from PCG64(seed). For 1 < n <= 2**32 numpy's
    integers(n) reads 32-bit halves of the bit generator's 64-bit words,
    the low half first, and maps each half u by Lemire's multiply-shift
    (ACM TOMACS 29(1), 2019): with m = u * n, the draw is m >> 32, and a
    half whose m mod 2**32 is below 2**32 mod n is rejected for the next
    one. At n == 2**32 that gives u, as numpy returns it; n == 1 gives 0
    and reads no half. Here the words come in batches from random_raw and
    the rule runs on plain ints, without the numpy argument handling that
    costs most of a scalar Generator.integers call. Larger n, which numpy
    serves from whole 64-bit words, is refused, as is n < 1.
    """

    __slots__ = ("_bits", "_halves")

    def __init__(self, seed):
        self._bits = np.random.PCG64(seed)
        self._halves = []

    def integers(self, n: int) -> int:
        if not 1 < n <= 1 << 32:
            if n == 1:
                return 0
            raise ValueError(f"integers(n) takes 1 <= n <= 2**32, not {n}")
        halves = self._halves
        while True:
            if not halves:
                # Little-endian words viewed as pairs of halves, low first,
                # reversed so that pop() takes them in order.
                halves += self._bits.random_raw(256).astype("<u8", copy=False).view("<u4")[::-1].tolist()
            m = halves.pop() * n
            low = m & 0xFFFFFFFF
            # 2**32 mod n < n, so a low part >= n never needs the modulo.
            if low >= n or low >= (1 << 32) % n:
                return m >> 32


def _trie(lg: LogGraph):
    """Root _Walk of GRASP's skeleton trie of lg (lg.table(_trie)), built by its first call and kept.

    The trie holds no rewards, so the calls of a greedy run, which share one
    LogGraph, share it too. GRASP's other per-graph state is lg.tree and
    lg.table of _rows, _matrix, _detours and _reversals.

    The trie gives the skeletons and draws of a walk that recomputes every
    state. A state is the walk's path and cost float, and it is a function
    of the waypoints accepted since the start: a leg's verdict and nodes
    depend only on the graph and the query (see _leg_avoiding), so a
    node's child for waypoint j, or its rejection, is the same whichever
    walk asks first. A node's candidate row is a function of its path and
    cost, so a kept row equals a recomputed one. Each hop then draws
    rng.integers(len(row)) on the row, and again on the row less each
    waypoint rejected so far, in the same order: a kept row is copied before
    its first removal, so it never changes. The closing phase draws nothing
    and reads only the states on the one trie path to its node, so its
    result is kept on the node. Equal draw calls leave the draw source in
    equal states, so the walks that follow draw the same numbers too.
    """
    return _Walk((lg.graph.index[lg.graph.start],), 0.0)


def _matrix(lg: LogGraph) -> list:
    """GRASP's arc costs of lg (lg.table(_matrix)): m[a][b] is lg.out[a][b], None where a has no arc to b."""
    return [[row.get(b) for b in range(len(lg.out))] for row in lg.out]


def _base_path(lg: LogGraph):
    """Cheapest feasible skeleton: shortest return for depots, shortest path otherwise."""
    g, limit = lg.graph, lg.limit
    start, terminal = g.index[g.start], g.index[g.terminal]
    # Each cost is bit-equal to _path_cost of its path. graph.search sets
    # dist[v] and prev[v] together, dist[v] as dist[prev[v]] +
    # cost(prev[v], v), with dist[prev[v]] final by then. So dist[v] sums
    # the tree path's arc costs left to right from 0.0, and a tour adds its
    # return arc last. Tree paths are simple.
    dist, prev = lg.tree(start)
    if start != terminal:
        if dist[terminal] > limit:
            raise InfeasibleInstanceError("no start-terminal path within the survival budget")
        return tree_path(prev, start, terminal), dist[terminal]
    cost, last = _tour_cost(lg)
    if cost > limit:
        return [start], 0.0
    return tree_path(prev, start, last) + [start], cost


def _path_cost(lg, path):
    # Left to right over node indices, as the reversal scan of _local_search sums.
    m = lg.table(_matrix)
    return ordered_sum(m[a][b] for a, b in zip(path, path[1:]))


def _leg_avoiding(lg, src, dst, banned, cost):
    """Cheapest src-to-dst leg whose interior skips the banned nodes, as (nodes, cost) if it fits at cost, else None.

    The leg fits when `cost + leg + extra <= limit`, where extra is dst's
    distance to the terminal: 0.0 for the closing leg.

    When the path to dst in src's tree has an interior that avoids banned,
    that path is the unbounded banned search's leg. Both searches pop in
    (dist, node index) order and keep the first popped predecessor that
    gives the smallest float (see graph.search). Each node of the path has the
    same dist in the banned search, as its path survives and a ban only
    removes relaxations. Its tree prev is popped first among the surviving
    predecessors: an earlier banned predecessor with an equal sum would
    itself have been the tree's prev, and a surviving one whose dist the ban
    raised reached the same sum from its smaller tree dist, so it popped
    earlier in the tree too. Nodes popped after dst change no prev on the
    path, because updates need a strict < and costs are >= 0.

    Any other query runs the banned search, which stops each row at the
    first improving arc with `cost + (d + w) + extra > limit`, the fit test
    with the partial distance d + w in place of the leg. Costs are
    -ln(survival) >= 0 (log_transform refuses any other survival) and
    round-to-nearest is monotone, so a partial distance never exceeds the
    leg's float, and the bound never rejects what the test accepts with no
    float slack. If the leg of the unbounded search fits, every node on it
    passes, and every relaxation dropped is longer than the leg, so it
    would pop after dst: the nodes popped before dst get the same dist and
    prev, and the search returns the same leg. If it does not fit, no
    relaxation into dst passes and the search finds no leg.
    """
    extra = lg.tree(lg.graph.index[lg.graph.terminal], reverse=True)[0][dst]
    dist, prev = lg.tree(src)
    nodes = tree_path(prev, src, dst, banned)
    if nodes is None:
        dist, prev = search(lg.table(_rows), src, dst, banned, cost, extra, lg.limit)
        nodes = tree_path(prev, src, dst, banned)
    if nodes is None or cost + dist[dst] + extra > lg.limit:
        return None
    return tuple(nodes), dist[dst]


class _Walk:
    """A state of the skeleton walk: a node of the trie that lg.table(_trie) keeps.

    leg holds the nodes the state's last leg added (the start, at the root)
    and cost the walk's float. row is None before the first visit, False
    after it, which built a row and dropped it, and from the second visit
    on the tuple that visit built, as most states of a large graph are
    visited once. kids maps each waypoint drawn here to its state, or to
    None where the leg was rejected; end is the closing phase's result,
    None until a walk first closes here. Nodes point only to their kids, so
    a dropped LogGraph frees its trie without the cycle collector.
    """

    __slots__ = ("leg", "cost", "row", "kids", "end")

    def __init__(self, leg, cost):
        self.leg, self.cost = leg, cost
        self.row = self.end = None
        self.kids = {}


def _random_skeleton(lg: LogGraph, rng, hops: int):
    """Random affordable detour, as a new (path list, cost) or None: collision-free legs through sampled waypoints.

    Pure insertion cannot leave the direct skeleton when the straight edge
    already eats most of the budget; routing restarts through waypoints
    reaches path shapes insertion alone never builds. Each hop draws a
    waypoint from its candidate row, up to three times, dropping each whose
    leg (avoiding the nodes the skeleton holds) fails; a hop with an empty
    row ends the walk. The row lists in index order each j off the path,
    other than the terminal, with `cost + dist[j] + dist_to(terminal)[j] <=
    limit`, dist from the path's last node: still affordable with a
    straight run home afterwards. Then, if the closing leg fails or busts
    the budget, the walk backtracks one waypoint at a time; a walk that
    cannot leave the start yields None.

    Only rng.integers(n) is called, so rng is a _Draws or a Generator. The
    walk moves down the trie of lg.table(_trie), whose nodes (_Walk) keep
    what a state's row, legs and closing computed; see _trie for why that
    gives the same draws and skeletons.
    """
    n, terminal, limit = lg.graph.num_nodes, lg.graph.index[lg.graph.terminal], lg.limit
    dist_t = lg.tree(terminal, reverse=True)[0]
    node = lg.table(_trie)
    trail, path = [node], list(node.leg)
    for _ in range(hops):
        cost, row, kids = node.cost, node.row, node.kids
        if not isinstance(row, tuple):
            used = set(path)
            dist = lg.tree(path[-1])[0]
            cands = [j for j in range(n) if j not in used and j != terminal and cost + dist[j] + dist_t[j] <= limit]
            node.row = False if row is None else tuple(cands)
            row = cands
        if not row:
            # Nothing is drawn and the state is unchanged, so every later
            # hop would find this row empty too.
            break
        cands = row
        for _draw in range(3):
            if not cands:
                break
            k = rng.integers(len(cands))
            j = cands[k]
            if j not in kids:
                leg = _leg_avoiding(lg, path[-1], j, {terminal, *path}, cost)
                kids[j] = None if leg is None else _Walk(leg[0][1:], cost + leg[1])
            if kids[j] is not None:
                node = kids[j]
                trail.append(node)
                path += node.leg
                break
            if isinstance(cands, tuple):
                cands = list(cands)
            del cands[k]
    if node.end is None:
        node.end = _closing(lg, trail, path)
    if not node.end:
        return None
    kept, tail, cost = node.end
    return path[:kept] + list(tail[1:]), cost


def _closing(lg, trail, path):
    """(kept, tail, cost) of the closing phase of a walk down the trie nodes trail to path; () if it backs up to the start.

    The skeleton is path[:kept], then the tail leg after its first node.
    The first tail is tried at the last node's cost. Each backtrack drops
    the last leg and tries again at _path_cost of the shorter path, a
    left-to-right sum that may differ in its last bits from the cost its
    state carries, so a closing is not its ancestors' closing and is kept
    per node.
    """
    terminal = lg.graph.index[lg.graph.terminal]
    cost = trail[-1].cost
    kept = len(path)
    for node in trail[:0:-1]:
        tail = _leg_avoiding(lg, path[kept - 1], terminal, set(path[:kept]), cost)
        if tail is not None:
            return kept, tail[0], cost + tail[1]
        kept -= len(node.leg)
        cost = _path_cost(lg, path[:kept])
    return ()


def _detours(lg: LogGraph) -> list:
    """GRASP's detour lists of lg (lg.table(_detours)): at a * n + b the list of path arc (a, b), None until the first _insertions that scans it.

    The list of (a, b) holds each j with arcs a->j and j->b whose delta =
    aj + jb - ab, _insertions' own float, passes the fit test at cost 0.0,
    `0.0 + delta <= limit`, sorted by delta: the deltas as a float64 array,
    8 bytes each where a tuple of floats takes 32, and the nodes as a
    tuple. Round-to-nearest is monotone and costs are >= 0, so at any cost
    the fits are a prefix of the list, and an entry left out never fits.
    """
    return [None] * lg.graph.num_nodes ** 2


def _detour_list(lg: LogGraph, a, b) -> tuple:
    m = lg.table(_matrix)
    ab = m[a][b]
    deltas = {j: aj + jb - ab for j, aj in enumerate(m[a]) if aj is not None and (jb := m[j][b]) is not None}
    nodes = sorted((j for j, delta in deltas.items() if 0.0 + delta <= lg.limit), key=deltas.get)
    return array("d", map(deltas.get, nodes)), tuple(nodes)


def _insertions(lg: LogGraph, rew, path, cost):
    """Feasible (node, position, delta-cost) insertions of positive-reward nodes off path, best first; rew[j] is node j's reward.

    GRASP's one rank order: reward per added cost, highest first, then
    delta, node index and position, ascending. The key is total, as a node
    is listed once per position. Node j fits between a and b when `cost +
    (aj + jb - ab) <= limit`; per path arc, the scan walks the arc's detour
    list (see _detours) and stops at the first entry that does not fit.
    """
    detours = lg.table(_detours)
    limit, n = lg.limit, lg.graph.num_nodes
    visited = set(path)
    out = []
    for i, (a, b) in enumerate(zip(path, path[1:]), 1):
        fits = detours[a * n + b]
        if fits is None:
            fits = detours[a * n + b] = _detour_list(lg, a, b)
        for delta, j in zip(*fits):
            if cost + delta > limit:
                break
            if j not in visited and rew[j] > 0.0:
                out.append((j, i, delta))
    out.sort(key=lambda t: (-(rew[t[0]] / max(t[2], 1e-12)), t[2], t[0], t[1]))
    return out


def _reversals(lg: LogGraph) -> dict:
    """GRASP's reversal results of lg (lg.table(_reversals)): _reversal of each path tuple, which reads only the path and the costs."""
    return {}


def _reversal(m, path):
    """(i, k, new - old) of the first segment reversal path[i..k] that lowers the cost over the arc costs m (_matrix); else None."""
    # The segment path[i..k] costs fwd forward and back[k][i] reversed,
    # each summed along its own direction as _path_cost sums a path.
    # back[k] stops at the first missing reverse arc, which every
    # longer segment ending at k also holds.
    n = len(path)
    back = []
    for k in range(n - 1):
        run, row = 0.0, {}
        for i in range(k - 1, 0, -1):
            w = m[path[i + 1]][path[i]]
            if w is None:
                break
            run += w
            row[i] = run
        back.append(row)
    for i in range(1, n - 1):
        from_a, head = m[path[i - 1]], path[i]
        fwd = 0.0
        for k in range(i + 1, n - 1):
            tail = path[k]
            fwd += m[path[k - 1]][tail]
            rev = back[k].get(i)
            if rev is None:
                break
            b = path[k + 1]
            a_tail, head_b = from_a[tail], m[head][b]
            if a_tail is None or head_b is None:
                continue
            old = from_a[head] + fwd + m[tail][b]
            new = a_tail + rev + head_b
            if new < old - 1e-12:
                return i, k, new - old
    return None


def _local_search(lg: LogGraph, rew, path, cost):
    """Hill-climb from a path that admits no insertion; rew[j] is node j's reward.

    Each round drops an interior node that pays nothing but costs something
    or, failing that, reverses a segment to lower the cost (a 2-exchange),
    then makes the first insertion of _insertions' rank order while one
    fits. It stops at the first round that finds neither a drop nor a
    reversal.
    """
    m = lg.table(_matrix)
    reversals = lg.table(_reversals)
    while True:
        # Drop an interior node that pays nothing but costs something.
        for i in range(1, len(path) - 1):
            j = path[i]
            if rew[j] > 0.0:
                continue
            a, b = path[i - 1], path[i + 1]
            ab = m[a][b]
            if ab is None:
                continue
            delta = ab - m[a][j] - m[j][b]
            if delta < -1e-12:
                del path[i]
                cost += delta
                break
        else:
            key = tuple(path)
            if key not in reversals:
                reversals[key] = _reversal(m, path)
            if reversals[key] is None:
                return path, cost
            i, k, gain = reversals[key]
            path[i:k + 1] = path[i:k + 1][::-1]
            cost += gain
        while cands := _insertions(lg, rew, path, cost):
            j, pos, delta = cands[0]
            path.insert(pos, j)
            cost += delta


def solve_heuristic(lg: LogGraph, rewards, seed=0, restarts: int = 64) -> OracleResult:
    """GRASP: randomized greedy insertion plus local search, best of restarts.

    The first restart grows the cheapest feasible skeleton; later restarts
    grow a random skeleton through 1, 2, 4, 8 or 16 waypoints. Each restart
    then repeatedly inserts a node drawn from the best quarter of the
    feasible insertions, ranked by reward per added cost, and ends in local
    search. The best path by reward wins, ties going to the smaller
    node-index sequence; nodes_expanded counts the insertions evaluated.

    Deterministic for a fixed seed. The trees, cost rows and matrix,
    skeleton trie (with its candidate rows and legs), detour lists and
    reversal results it reads are kept on lg (lg.tree, _rows, _matrix,
    _trie, _detours, _reversals) and hold no rewards, only facts of the
    graph and its budget. A walk that reaches a trie node an earlier walk
    made, in this call or an earlier one, reads its row, its children and
    its closing instead of recomputing them, and makes the same draws with
    the same arguments (see _trie). So a call returns the same result, to
    the bits of its reward, whichever calls ran on that LogGraph before.
    The draws come from _Draws(seed), which gives the values of
    np.random.default_rng(seed).integers at a fifth of the cost.

    Restarts often reach a state an earlier restart of the same call
    reached, so two memos keyed by (tuple(path), cost) live for the call:
    rcls holds a state's insertion count and candidate list, ends the
    ranking key and reward its local search ends in. They give the same
    results as recomputing. Within a call the rewards and the LogGraph
    are fixed and the sort key is total, and _insertions, _local_search and
    the reward sum draw nothing from rng and read only (path, cost) besides
    them. Each visit still adds its count to nodes_expanded and draws from
    rng as before. cost belongs in the key because one node sequence can
    carry different cost floats after different insertion orders. The
    memos depend on the rewards, so they must not go on lg.
    """
    ids = lg.graph.node_ids
    rew = _reward_array(rewards, ids, "node").tolist()
    rng = _Draws(seed)
    base, base_cost = _base_path(lg)
    rcls, ends = {}, {}
    best = None
    evaluated = 0
    for restart in range(max(1, restarts)):
        skeleton = _random_skeleton(lg, rng, 2 ** ((restart - 1) % 5)) if restart else None
        if skeleton is None:
            path, cost = list(base), base_cost
        else:
            path, cost = skeleton
        while True:
            at = (tuple(path), cost)
            hit = rcls.get(at)
            if hit is None:
                cands = _insertions(lg, rew, path, cost)
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
            path, _cost = _local_search(lg, rew, path, cost)
            reward = path_reward(rew, path)
            end = ends[at] = ((-reward, tuple(path)), reward)
        if best is None or end[0] < best[0]:
            best = end
    return OracleResult(path=tuple(ids[j] for j in best[0][1]), reward=best[1], nodes_expanded=evaluated)
