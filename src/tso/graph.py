"""Instance model and shortest-path machinery for survival-constrained routing.

A SurvivalGraph is a directed simple graph whose edges carry survival
probabilities in (0, 1]. Planning happens on the log-transformed view, where
edge costs are -ln(survival) and the per-robot chance constraint becomes a
path budget of -ln(p_s).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

INF = float("inf")

# Budget comparisons are non-strict with this absolute slack in log domain,
# so a path with survival exactly p_s is feasible.
BUDGET_TOL = 1e-9


def ordered_sum(xs) -> float:
    """xs added left to right from 0.0: builtin sum() of floats is compensated from Python 3.12 on."""
    total = 0.0
    for x in xs:
        total += x
    return total


class InfeasibleInstanceError(Exception):
    """No start-terminal path satisfies the survival constraint."""


class SizeGuardError(Exception):
    """Instance exceeds the size limit of an exhaustive routine."""


@dataclass
class MultiVisitTable:
    """Per-node marginal rewards for repeated visits: d[j][m-1] pays the m-th visit."""

    M: int
    d: dict[int, list[float]]


@dataclass
class SurvivalGraph:
    node_ids: list[int]
    priorities: dict[int, float]
    edges: list[tuple[int, int, float]]
    start: int
    terminal: int
    p_s: float
    team_size: int = 1
    multi_visit: MultiVisitTable | None = None
    edge_rewards: dict[tuple[int, int], float] | None = None

    def __post_init__(self):
        self.index = {v: i for i, v in enumerate(self.node_ids)}
        self.survival = {(u, v): w for u, v, w in self.edges}

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def priority(self, v) -> float:
        return self.priorities.get(v, 1.0)


def validate_instance(g: SurvivalGraph) -> list[str]:
    """Check type invariants; returns a list of violations (empty means valid)."""
    problems = []
    if not g.node_ids:
        problems.append("instance has no nodes")
    seen = set()
    for v in g.node_ids:
        if v in seen:
            problems.append(f"duplicate node id {v}")
        seen.add(v)
    for v, d in g.priorities.items():
        if v not in seen:
            problems.append(f"priority for unknown node {v}")
        elif not 0 < d < INF:
            problems.append(f"node {v} priority {d} not positive and finite")
    pairs = set()
    for u, v, w in g.edges:
        if u not in seen or v not in seen:
            problems.append(f"edge ({u},{v}) references unknown node")
            continue
        if u == v:
            problems.append(f"self-loop on node {u}")
        if (u, v) in pairs:
            problems.append(f"not simple: duplicate edge ({u},{v})")
        pairs.add((u, v))
        if not (0.0 < w <= 1.0):
            problems.append(f"edge ({u},{v}) survival {w} out of (0,1]")
    if g.start not in seen:
        problems.append(f"start node {g.start} not in instance")
    if g.terminal not in seen:
        problems.append(f"terminal node {g.terminal} not in instance")
    if not (0.0 < g.p_s <= 1.0):
        problems.append(f"p_s {g.p_s} out of (0,1]")
    if g.team_size < 1:
        problems.append(f"team size {g.team_size} < 1")
    if g.multi_visit is not None:
        mv = g.multi_visit
        if mv.M < 1:
            problems.append(f"multi-visit M {mv.M} < 1")
        missing = [v for v in g.node_ids if v not in mv.d]
        if missing:
            problems.append(f"multi-visit table has no row for nodes {missing}")
        # One clause for the rows of the wrong length, however many there are.
        if wrong := [v for v, row in mv.d.items() if len(row) != mv.M]:
            many = f"{len(wrong)} multi-visit rows have the wrong length, the first: " if len(wrong) > 1 else ""
            problems.append(f"{many}multi-visit row for node {wrong[0]} has {len(mv.d[wrong[0]])} entries, expected {mv.M}")
        for v, row in mv.d.items():
            if v not in seen:
                problems.append(f"multi-visit row for unknown node {v}")
            if not all(math.isfinite(x) for x in row):
                problems.append(f"multi-visit row for node {v} has a non-finite entry")
            if any(b > a + 1e-15 for a, b in zip(row, row[1:])):
                problems.append(f"multi-visit rewards for node {v} increase with visit count")
    if g.edge_rewards:
        for (u, v), d in g.edge_rewards.items():
            if (u, v) not in g.survival:
                problems.append(f"edge reward on missing edge ({u},{v})")
            elif not math.isfinite(d):
                problems.append(f"edge reward on ({u},{v}) is {d}, not finite")
            elif d < 0:
                problems.append(f"edge reward on ({u},{v}) negative")
    return problems


def check_path(g: SurvivalGraph, path) -> None:
    """Raise ValueError unless path is a valid node sequence in g.

    Nodes must be unique, except that the final node may equal the first
    (depot-return tours). Every adjacent pair must be an edge.
    """
    if len(path) == 0:
        raise ValueError("empty node sequence")
    for v in path:
        if v not in g.index:
            raise ValueError(f"path visits unknown node {v}")
    interior = path[:-1] if len(path) > 1 and path[-1] == path[0] else path
    if len(set(interior)) != len(interior):
        raise ValueError(f"path revisits a node: {list(path)}")
    for u, v in zip(path, path[1:]):
        if (u, v) not in g.survival:
            raise ValueError(f"path uses missing edge ({u},{v})")


# ---------------------------------------------------------------------------
# Log-domain view

@dataclass
class LogGraph:
    """A SurvivalGraph's arc costs and budget in the log domain, with the trees and tables kept on them."""

    graph: SurvivalGraph
    # The one arc table: costs[u][v] is the cost of arc (u, v), one dict per
    # node with its heads in node-index order; into[v][u] is the same cost
    # per head, its tails in index order.
    costs: dict[int, dict[int, float]]
    into: dict[int, dict[int, float]]
    budget: float
    limit: float  # the budget test of every search: a log cost fits when <= limit
    _from_cache: dict = field(default_factory=dict, repr=False)
    _to_cache: dict = field(default_factory=dict, repr=False)
    _tables: dict = field(default_factory=dict, repr=False)

    def table(self, build):
        """build(self), called on first use and kept, None too: an oracle's table, with no rewards and no reference back to self."""
        if build not in self._tables:
            self._tables[build] = build(self)
        return self._tables[build]

    def shortest_tree(self, source):
        """Memoized (distances, parent tree) of dijkstra from source (no deletions)."""
        tree = self._from_cache.get(source)
        if tree is None:
            tree = self._from_cache[source] = dijkstra(self, source)
        return tree

    def distances_from(self, source) -> dict[int, float]:
        """Memoized single-source distances (no deletions)."""
        return self.shortest_tree(source)[0]

    def distances_to(self, target) -> dict[int, float]:
        """Memoized distances from every node to target."""
        if target not in self._to_cache:
            self._to_cache[target] = dijkstra(self, target, reverse=True)[0]
        return self._to_cache[target]


def log_transform(g: SurvivalGraph) -> LogGraph:
    """Arc costs -ln(survival), budget -ln(p_s), and the limit every budget test reads.

    Raises ValueError on a survival outside (0, 1]: the searches and their
    stop rules rely on costs >= 0. Edges off node_ids are left out.
    """
    idx = g.index
    arcs = []
    for u, v, w in g.edges:
        if not 0.0 < w <= 1.0:
            raise ValueError(f"edge ({u},{v}) survival {w} out of (0,1]")
        if u in idx and v in idx:
            arcs.append((idx[u] * len(idx) + idx[v], u, v, -math.log(w)))
    costs, into = {v: {} for v in g.node_ids}, {v: {} for v in g.node_ids}
    # One sort by (tail, head) index puts both tables in index order.
    for _key, u, v, c in sorted(arcs):
        costs[u][v] = into[v][u] = c
    budget = -math.log(g.p_s)
    return LogGraph(graph=g, costs=costs, into=into, budget=budget, limit=budget + BUDGET_TOL)


def search(rows, src, dst=None, banned=(), cost=0.0, extra=0.0, limit=INF):
    """(dist, prev) of Dijkstra from src over rows; both hold reached nodes only.

    rows[v] holds v's arcs as (head, cost) pairs, costs >= 0. The one tie
    rule of every shortest path here: the heap pops by (dist, node id), and
    dist[u] and prev[u] change only on a strict improvement, so prev[u] is
    the first popped predecessor that gives u's smallest float. The result
    depends neither on the order of a row nor on the order of node_ids.

    An arc that would lower dist[u] is tested further. If `cost + (d + w) +
    extra > limit`, the rest of v's row is dropped; with a finite limit,
    rows must list heads cheapest first. Float addition is monotone, so
    every later arc fails the test too, and arcs that lower nothing change
    nothing. Then u is skipped if it is in banned and is not dst. The
    search stops when dst pops; dst=None runs it out.
    """
    dist = {src: 0.0}
    prev = {}
    heap = [(0.0, src)]
    get, pop, push = dist.get, heapq.heappop, heapq.heappush
    while heap:
        d, v = pop(heap)
        if d > dist[v]:
            continue
        if v == dst:
            break
        for u, w in rows[v]:
            nd = d + w
            if nd < get(u, INF):
                if cost + nd + extra > limit:
                    break
                if u in banned and u != dst:
                    continue
                dist[u] = nd
                prev[u] = v
                push(heap, (nd, u))
    return dist, prev


def dijkstra(lg: LogGraph, source, reverse=False):
    """Single-source shortest paths on the log graph: search over lg.costs, with no budget.

    Its tie rule is search's: pops by (dist, node id), and each node's
    parent is the first popped predecessor that gives its smallest float.
    reverse runs the search over lg.into, giving distances TO source. Every
    node gets an entry: INF and a None parent where the search did not reach.
    """
    dist, prev = search({v: row.items() for v, row in (lg.into if reverse else lg.costs).items()}, source)
    nodes = lg.graph.node_ids
    full, parent = dict.fromkeys(nodes, INF), dict.fromkeys(nodes)
    full.update(dist)
    parent.update(prev)
    return full, parent


def tree_path(parent, source, target, banned=()):
    """Node sequence from source to target in a search's parent tree rooted at source.

    None if target is not in the tree or an interior node of the path is in
    banned. The tree holds each node's first popped predecessor (see search).
    """
    if source == target:
        return [source]
    path = [target]
    v = parent.get(target)
    while v != source:
        if v is None or v in banned:
            return None
        path.append(v)
        v = parent.get(v)
    path.append(source)
    path.reverse()
    return path


def max_visit_probabilities(lg: LogGraph) -> dict[int, float]:
    """Per node, the largest probability any single feasible robot reaches it.

    zeta_j = exp(-shortest log-cost from the start); 1 at the start itself,
    0 for unreachable nodes. The return leg is deliberately ignored, so this
    is an upper bound on any path's probability of visiting j.
    """
    dist = lg.distances_from(lg.graph.start)
    zeta = {}
    for v in lg.graph.node_ids:
        zeta[v] = math.exp(-dist[v]) if dist[v] < INF else 0.0
    return zeta


# ---------------------------------------------------------------------------
# Feasibility

@dataclass
class FeasibilityReport:
    reachable: dict[int, bool]
    x_nonempty: bool


def _tour_cost(lg: LogGraph):
    """Cheapest real return to the start (at least one edge), as (cost, last node before it).

    Reads the memoized distances from the start. Among equal costs the first
    in-neighbour in lg.into[start], that is by node index, wins; (INF, None)
    when no return exists.
    """
    start = lg.graph.start
    dist_s = lg.distances_from(start)
    return min(
        ((dist_s[v] + w, v) for v, w in lg.into[start].items() if v != start and dist_s[v] < INF),
        key=lambda t: t[0],
        default=(INF, None),
    )


def has_feasible_path(lg: LogGraph) -> bool:
    """Is there a start-terminal path (on depot instances a real tour) within the budget?

    Exact, from one Dijkstra: the distances from the start that
    lg.distances_from keeps.
    """
    g = lg.graph
    cost = _tour_cost(lg)[0] if g.start == g.terminal else lg.distances_from(g.start)[g.terminal]
    return cost <= lg.limit


def feasibility_check(g: SurvivalGraph) -> FeasibilityReport:
    """Per-node reachability via the two-leg deletion procedure, the one query that removes arcs.

    For each node j: shortest start->j on the log graph, delete that path's
    arcs from lg.costs' rows, then search j->terminal in what remains until
    the terminal pops (its distance is then final); j is flagged reachable
    when the combined cost fits the budget. A visit only counts from step 1
    on, so the start is never reachable on open instances, and on depot
    instances it needs a real tour (shortest return with at least one edge).
    The nonemptiness flag is has_feasible_path's, which is exact.

    The deletion step can be wrong in both directions on adversarial graphs
    (the legs may share interior nodes, and deleting the first leg can sever
    the only return); exact.brute_force_feasibility is the exact reference.
    """
    lg = log_transform(g)
    dist_s, parent_s = lg.shortest_tree(g.start)
    rows = {v: row.items() for v, row in lg.costs.items()}
    reachable = {}
    for j in g.node_ids:
        if j == g.start:
            cost = _tour_cost(lg)[0] if g.start == g.terminal else INF
        elif dist_s[j] == INF:
            cost = INF
        else:
            leg = tree_path(parent_s, g.start, j)
            back = dict(rows)
            back.update((a, [(u, w) for u, w in rows[a] if u != b]) for a, b in zip(leg, leg[1:]))
            cost = dist_s[j] + search(back, j, g.terminal)[0].get(g.terminal, INF)
        reachable[j] = cost <= lg.limit
    return FeasibilityReport(reachable=reachable, x_nonempty=has_feasible_path(lg))


# ---------------------------------------------------------------------------
# Instance files

def instance_to_dict(g: SurvivalGraph) -> dict:
    doc = {
        "version": 1,
        "directed": True,
        "nodes": [{"id": v, "priority": g.priority(v)} for v in g.node_ids],
        "edges": [{"from": u, "to": v, "survival": w} for u, v, w in g.edges],
        "start": g.start,
        "terminal": g.terminal,
        "p_s": g.p_s,
        "team_size": g.team_size,
    }
    if g.multi_visit is not None:
        doc["multi_visit"] = {"M": g.multi_visit.M, "d": [list(g.multi_visit.d[v]) for v in g.node_ids]}
    if g.edge_rewards is not None:
        doc["edge_rewards"] = [{"from": u, "to": v, "d": d} for (u, v), d in sorted(g.edge_rewards.items(), key=lambda t: (g.index[t[0][0]], g.index[t[0][1]]))]
    return doc


def instance_from_dict(doc: dict) -> SurvivalGraph:
    """Instance from its JSON document; ValueError on any malformed shape."""
    if not isinstance(doc, dict):
        raise ValueError("instance must be a JSON object")
    try:
        return _parse_instance(doc)
    except KeyError as exc:
        raise ValueError(f"instance lacks field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed instance: {exc}") from None


def json_int(x, what: str) -> int:
    """x if it is a JSON integer; ValueError for anything else, bools, floats and strings included."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def json_float(x, what: str) -> float:
    """float(x) if x is a JSON number (int or float); ValueError for anything else, bools and strings included."""
    if type(x) not in (int, float):
        raise ValueError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} {x} is too large for a float") from None


def json_bool(x, what: str) -> bool:
    """x if it is a JSON boolean; ValueError for anything else, strings, numbers and null included."""
    if type(x) is not bool:
        raise ValueError(f"{what} must be true or false, got {x!r}")
    return x


def json_list(x, what: str, entry=None) -> list:
    """x if it is a JSON list, each entry a JSON object (entry=dict) or list (entry=list) if entry is given; ValueError otherwise."""
    if type(x) is not list:
        raise ValueError(f"{what} must be a list, got {x!r}")
    for e in x if entry else ():
        if type(e) is not entry:
            raise ValueError(f"{what} entry must be {'an object' if entry is dict else 'a list'}, got {e!r}")
    return x


def _parse_instance(doc: dict) -> SurvivalGraph:
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise ValueError(f"unsupported instance version {version!r}")
    directed = json_bool(doc.get("directed", True), "directed")
    node_ids = []
    priorities = {}
    for rec in json_list(doc["nodes"], "nodes", dict):
        v = json_int(rec["id"], "node id")
        node_ids.append(v)
        priorities[v] = json_float(rec.get("priority", 1.0), "priority")
    edges = []
    for rec in json_list(doc["edges"], "edges", dict):
        u, v, w = json_int(rec["from"], "edge endpoint"), json_int(rec["to"], "edge endpoint"), json_float(rec["survival"], "edge survival")
        edges.append((u, v, w))
        if not directed:
            edges.append((v, u, w))
    multi = None
    if "multi_visit" in doc:
        mv = doc["multi_visit"]
        if type(mv) is not dict:
            raise ValueError(f"multi_visit must be an object, got {mv!r}")
        d = json_list(mv["d"], "multi-visit d", list)
        if len(d) != len(node_ids):
            raise ValueError(f"multi-visit table has {len(d)} rows for {len(node_ids)} nodes")
        rows = {v: [json_float(x, "multi-visit entry") for x in row] for v, row in zip(node_ids, d)}
        multi = MultiVisitTable(M=json_int(mv["M"], "multi-visit M"), d=rows)
    rewards = None
    if "edge_rewards" in doc:
        rewards = {}
        for r in json_list(doc["edge_rewards"], "edge_rewards", dict):
            e = json_int(r["from"], "edge endpoint"), json_int(r["to"], "edge endpoint")
            if e in rewards:
                raise ValueError(f"duplicate edge reward on ({e[0]},{e[1]})")
            rewards[e] = json_float(r["d"], "edge reward")
    return SurvivalGraph(
        node_ids=node_ids,
        priorities=priorities,
        edges=edges,
        start=json_int(doc["start"], "start"),
        terminal=json_int(doc["terminal"], "terminal"),
        p_s=json_float(doc["p_s"], "p_s"),
        team_size=json_int(doc.get("team_size", 1), "team_size"),
        multi_visit=multi,
        edge_rewards=rewards,
    )


def load_instance(path) -> SurvivalGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_instance(g: SurvivalGraph, path) -> None:
    """Write g as strict JSON; ValueError, before the file is opened, on an infinite or NaN float."""
    text = json.dumps(instance_to_dict(g), indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
