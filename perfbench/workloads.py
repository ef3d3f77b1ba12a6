"""The benchmark's three workloads: instance files written at set-up, then ops.

Every workload starts from fixed reference graphs and lets the seed pick an
isomorphic relabelling of each one. Redrawing the graphs per seed would
swamp any bound: the exact oracle's cost is heavy-tailed across draws (one
p_s = 0.5 graph can cost 50 times the median one), and the whole ratio
suite took from 31 to 46 s over master seeds 0-5. A relabelling keeps the
problem and its difficulty (oracle node counts moved by about 1%), but
changes every index-order tie-break and search order the program sees.
Seed 0 is the identity, so at seed 0 the ratio instances are exactly those
of ``tso bench --suite ratio``, and the plans can be compared with recorded
reference values. Other seeds may legitimately pick another maximizer among
equal-reward paths, because the oracle breaks ties by node index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATIO_PS = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)
# The first five of the suite's ten draws per p_s: one pass of the exact
# workload then fits the run length while still holding the suite's
# heaviest cell (rep 0 at p_s = 0.5).
RATIO_REPS = 5
RATIO_NODES = 20
RATIO_TEAM = 5
RATIO_OVERSIZE = 30
HEX_PS = (0.5, 0.6, 0.7, 0.8, 0.9)
HEX_TEAM = 6
HEX_OVERSIZE = 36
VARIANTS = ("node", "edge", "multi_visit")
MULTI_VISIT_M = 3
TABLE_SEED = 1
# Large enough for the 5-standard-error check to be tight, small enough that
# the arrays stay a few MB: at 10^5 trials the median simulate op of the
# depot workload spread by 22% over five seeds.
SIM_TRIALS = 20_000

WHY = {
    "ratio-exact": (
        "the ratio suite under the exact oracle, the case the paper's guarantee is about; "
        "solve_exact does nearly all the work and p_s=0.5 makes the heavy tail"
    ),
    "grasp-heuristic": (
        "the same graphs under the GRASP oracle, which never calls solve_exact; "
        "an exact-oracle change must leave it unchanged"
    ),
    "depot-variants": (
        "hex depot tours under node, edge and multi-visit rewards plus Monte-Carlo checks; "
        "stresses the arc oracle, the Poisson-binomial objective and simulate"
    ),
}
NAMES = tuple(WHY)


@dataclass
class Op:
    """One CLI call. ``argv`` holds ``{dir}`` where the work directory goes."""

    name: str
    kind: str  # "solve" or "simulate"
    argv: list[str]
    instance: str
    plan: str
    out: str
    oracle: str = "exact"
    variant: str = "node"
    p_s: float = 0.0
    team: int = 0
    rep: int = 0  # draw index of a ratio graph


def relabelling(ids, seed: int, key) -> dict:
    """Old id -> new id: a permutation of ``ids`` drawn from (seed, *key); identity at seed 0."""
    if seed == 0:
        return {v: v for v in ids}
    perm = np.random.default_rng((seed, *key)).permutation(len(ids))
    return {v: ids[int(perm[i])] for i, v in enumerate(ids)}


def relabel(doc: dict, seed: int, key) -> dict:
    """Instance document with node ids permuted by ``relabelling``.

    Nodes and edges are listed in increasing new id, as the generators list
    them, so only the labelling differs from the source instance.
    """
    if seed == 0:
        return doc
    ids = [rec["id"] for rec in doc["nodes"]]
    new = relabelling(ids, seed, key)

    def arcs(records):
        return sorted(({**rec, "from": new[rec["from"]], "to": new[rec["to"]]} for rec in records),
                      key=lambda r: (r["from"], r["to"]))

    out = dict(doc)
    out["nodes"] = sorted(({**rec, "id": new[rec["id"]]} for rec in doc["nodes"]), key=lambda r: r["id"])
    out["edges"] = arcs(doc["edges"])
    out["start"] = new[doc["start"]]
    out["terminal"] = new[doc["terminal"]]
    if "multi_visit" in doc:
        rows = dict(zip((new[v] for v in ids), doc["multi_visit"]["d"]))
        out["multi_visit"] = {"M": doc["multi_visit"]["M"], "d": [rows[rec["id"]] for rec in out["nodes"]]}
    if "edge_rewards" in doc:
        out["edge_rewards"] = arcs(doc["edge_rewards"])
    return out


def _write(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _hex_tables(doc: dict) -> dict:
    """Add a non-increasing M=3 multi-visit table and edge rewards drawn from TABLE_SEED.

    The tables stay fixed and the seed relabels them with the graph, so that
    here too the seed changes labels only, not the problem.
    """
    rng = np.random.default_rng(TABLE_SEED)
    out = dict(doc)
    out["multi_visit"] = {
        "M": MULTI_VISIT_M,
        "d": [sorted(rng.uniform(0.2, 1.0, MULTI_VISIT_M).tolist(), reverse=True) for _ in doc["nodes"]],
    }
    out["edge_rewards"] = [
        {"from": rec["from"], "to": rec["to"], "d": float(rng.uniform(0.5, 1.5))} for rec in doc["edges"]
    ]
    return out


def setup(tso, name: str, seed: int, workdir: Path) -> list[Op]:
    """Draw and write every instance of a workload; return its ops in run order.

    ``tso`` is the imported package; functions are looked up on its modules
    at call time, so a traced run sees its wrappers.
    """
    ops: list[Op] = []

    def add(tag, inst, solve_args, **kw):
        plan = f"{tag}.plan.json"
        ops.append(Op(
            name=tag, kind="solve", instance=inst, plan=plan, out=plan,
            argv=["solve", f"{{dir}}/{inst}", *solve_args, "--out", f"{{dir}}/{plan}"], **kw,
        ))
        sim = f"{tag}.sim.json"
        ops.append(Op(
            name=tag + "/sim", kind="simulate", instance=inst, plan=plan, out=sim,
            argv=["simulate", f"{{dir}}/{inst}", "--plan", f"{{dir}}/{plan}", "--trials", str(SIM_TRIALS),
                  "--seed", str(seed), "--out", f"{{dir}}/{sim}"],
            **kw,
        ))

    if name in ("ratio-exact", "grasp-heuristic"):
        for rep in range(RATIO_REPS):
            for pi, p_s in enumerate(RATIO_PS):
                g = tso.instances.feasible_random_instance(RATIO_NODES, 0.3, 1.0, p_s, seed=(0, rep))
                inst = f"ratio-r{rep}-p{p_s}.json"
                _write(workdir / inst, relabel(tso.graph.instance_to_dict(g), seed, (rep, pi)))
                if name == "ratio-exact":
                    oracle, args = "exact", ["--oversize", str(RATIO_OVERSIZE)]
                else:
                    oracle, args = "heuristic", ["--oracle", "heuristic", "--seed", str(seed)]
                add(f"r{rep}-p{p_s}", inst, ["--team", str(RATIO_TEAM), *args],
                    oracle=oracle, p_s=p_s, team=RATIO_TEAM, rep=rep)
    elif name == "depot-variants":
        for pi, p_s in enumerate(HEX_PS):
            g = tso.instances.hex_instance(p_s=p_s)
            inst = f"hex-p{p_s}.json"
            doc = _hex_tables(tso.graph.instance_to_dict(g))
            _write(workdir / inst, relabel(doc, seed, (pi,)))
            for variant in VARIANTS:
                args = ["--team", str(HEX_TEAM), "--oversize", str(HEX_OVERSIZE), "--variant", variant]
                add(f"hex-p{p_s}-{variant}", inst, args, oracle="exact", variant=variant, p_s=p_s, team=HEX_TEAM)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops
