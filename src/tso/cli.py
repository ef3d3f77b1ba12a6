"""Command-line front end: generate, solve, bound, simulate, benchmark.

Exit codes: 0 success, 2 infeasible instance, 3 size-guard violation,
1 any other error, a usage error included. Outputs are deterministic for
fixed flags and seeds; bench --timing is the single documented exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .exact import brute_force_reachable, solve_exact_tso
from .graph import (
    InfeasibleInstanceError,
    SizeGuardError,
    feasibility_check,
    instance_to_dict,
    load_instance,
    validate_instance,
    write_text,
)
from .greedy import VARIANTS, GreedyConfig, bounds_to_dict, compute_bounds, greedy_survivors
from .instances import feasible_random_instance, hex_instance, random_complete_instance
from .objective import paths_from_plan_dict, plan_to_dict, simulate_team

RATIO_PS_GRID = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)
RATIO_SEEDS = 10
RATIO_NODES = 20
RATIO_MAX_TEAM = 5
HEX_MAX_TEAM = 6
OVERSIZE_PER_TEAM = 6  # bound runs use L = 6K extra paths

CSV_HEADER = "instance,V,K,p_s,oracle,J,U,ratio,ms"


def fmt(x) -> str:
    return format(float(x), ".9g")


def _write_text(out, text):
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _write_json(out, doc):
    # A non-finite float (an overflowed bound, say) raises ValueError here, before any file is opened.
    _write_text(out, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _checked(g):
    problems = validate_instance(g)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    return g


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen(args) -> int:
    # The --complete flags, None unless given: the preset takes none of them.
    shape = {"nodes": 10, "weight_min": 0.3, "weight_max": 1.0, "seed": 0}
    if args.preset == "hex":
        if given := [k for k in shape if getattr(args, k) is not None]:
            args.usage(f"argument --{given[0].replace('_', '-')}: not allowed with argument --preset")
        g = hex_instance(p_s=args.p_s, team_size=args.team)
    elif args.complete:
        n, lo, hi, seed = (d if getattr(args, k) is None else getattr(args, k) for k, d in shape.items())
        g = random_complete_instance(n, lo, hi, args.p_s, seed=seed, team_size=args.team)
    else:
        raise ValueError("choose --complete or --preset hex")
    _write_json(args.out, instance_to_dict(_checked(g)))
    return 0


def cmd_solve(args) -> int:
    g = _checked(load_instance(args.instance))
    cfg = GreedyConfig(
        team_size=g.team_size if args.team is None else args.team,
        oversize=args.oversize,
        oracle=args.oracle,
        variant=args.variant,
        seed=args.seed,
    )
    result = greedy_survivors(g, cfg)
    cert = compute_bounds(result, cfg.team_size, cfg.total_paths)
    doc = plan_to_dict(g, result.plan)
    doc["marginal_gains"] = result.gains[: cfg.team_size]
    doc["bounds"] = bounds_to_dict(cert)
    if result.variant_value is not None:
        doc["variant"] = cfg.variant
        doc["variant_objective"] = result.variant_value
    _write_json(args.out, doc)
    if args.out:
        print(f"J={fmt(result.plan.objective)} U={fmt(cert.upper)} certified={str(cert.certified).lower()}")
    return 0


def cmd_exact(args) -> int:
    g = _checked(load_instance(args.instance))
    plan = solve_exact_tso(g, g.team_size if args.team is None else args.team)
    doc = plan_to_dict(g, plan)
    doc["exact"] = True
    _write_json(args.out, doc)
    if args.out:
        print(f"J={fmt(plan.objective)}")
    return 0


def cmd_simulate(args) -> int:
    g = _checked(load_instance(args.instance))
    with open(args.plan, "r", encoding="utf-8") as fh:
        paths = paths_from_plan_dict(json.load(fh))
    for p in paths:
        if p[:1] != (g.start,) or p[-1:] != (g.terminal,):
            raise ValueError(f"plan path {list(p)} does not run from start {g.start} to terminal {g.terminal}")
    res = simulate_team(g, paths, args.trials, seed=args.seed)
    if args.out:
        _write_json(args.out, {
            "estimate": res.estimate,
            "std_error": res.std_error,
            "survival_freq": res.survival_freq,
            "trials": res.trials,
        })
    lines = [f"estimate {fmt(res.estimate)}", f"std_error {fmt(res.std_error)}"]
    for k, f in enumerate(res.survival_freq):
        lines.append(f"survival robot_{k} {fmt(f)}")
    print("\n".join(lines))
    return 0


def cmd_feasible(args) -> int:
    g = _checked(load_instance(args.instance))
    rep = feasibility_check(g)
    # A guard refusal comes before the first line: no half report.
    brute = brute_force_reachable(g) if args.brute_force else None
    print(f"X nonempty: {str(rep.x_nonempty).lower()}")
    print("node reachable brute agree" if args.brute_force else "node reachable")
    for v in g.node_ids:
        line = f"{v} {str(rep.reachable[v]).lower()}"
        if brute is not None:
            line += f" {str(v in brute).lower()} {'yes' if rep.reachable[v] == (v in brute) else 'NO'}"
        print(line)
    return 0


# ---------------------------------------------------------------------------
# Benchmark suites

def _bound_for_prefix(run, team_size):
    """(J, certificate) of the first team_size paths of an oversized greedy run, read through run.lg."""
    cert = compute_bounds(run, team_size, min(OVERSIZE_PER_TEAM * team_size, len(run.paths)))
    return cert.value, cert


def _bench_cell(suite, master, rep, p_s, timing):
    """CSV rows of one benchmark graph: one greedy run, one row per team prefix."""
    if suite == "ratio":
        g = feasible_random_instance(RATIO_NODES, 0.3, 1.0, p_s, seed=(master, rep))
        label, max_team = f"ratio-v{RATIO_NODES}-s{rep}", RATIO_MAX_TEAM
    else:
        g = hex_instance(p_s=p_s)
        label, max_team = "hex", HEX_MAX_TEAM
    t0 = time.perf_counter()
    run = greedy_survivors(g, GreedyConfig(max_team, oversize=OVERSIZE_PER_TEAM * max_team, oracle="exact"))
    ms = (time.perf_counter() - t0) * 1000.0 if timing else 0.0
    rows = []
    for team in range(1, max_team + 1):
        j, cert = _bound_for_prefix(run, team)
        rows.append((label, g.num_nodes, team, p_s, "exact", j, cert.upper, j / cert.upper, ms))
    return rows


def bench_rows(suite: str, master_seed: int = 0, timing: bool = False):
    if suite == "ratio":
        cells = [(rep, p_s) for rep in range(RATIO_SEEDS) for p_s in RATIO_PS_GRID]
    elif suite == "hex":
        cells = [(0, 0.70)]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return [row for rep, p_s in cells for row in _bench_cell(suite, master_seed, rep, p_s, timing)]


def cmd_bench(args) -> int:
    if args.suite == "hex" and args.seed:
        args.usage("argument --seed: the hex suite has one graph and takes no seed")
    rows = bench_rows(args.suite, master_seed=args.seed, timing=args.timing)
    lines = [CSV_HEADER]
    for inst, v, team, p_s, oracle, j, u, ratio, ms in rows:
        lines.append(f"{inst},{v},{team},{fmt(p_s)},{oracle},{fmt(j)},{fmt(u)},{fmt(ratio)},{fmt(ms)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------

class UsageError(Exception):
    """A command line the parser rejected, after it printed its usage and message lines to stderr."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError, for main to return 1, not exit with 2 (infeasible)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise UsageError


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call (not at import) and reused.

    Reuse is safe: parse_args returns a fresh Namespace on each call, no
    argument has a mutable default, and set_defaults holds this module's
    cmd_* functions, which look up greedy_survivors, compute_bounds and
    simulate_team as module globals at call time, and, as usage, the error
    method of the subcommand's parser. Do not change the result.
    """
    p = _Parser(prog="tso", description="Survival-constrained team path planning.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--nodes", type=int)
    g.add_argument("--weight-min", type=float)
    g.add_argument("--weight-max", type=float)
    g.add_argument("--p-s", dest="p_s", type=float, default=0.7)
    mode = g.add_mutually_exclusive_group()
    mode.add_argument("--complete", action="store_true", help="complete digraph with uniform weights")
    mode.add_argument("--preset", choices=["hex"], help="named benchmark graph")
    g.add_argument("--team", type=int, default=1)
    g.add_argument("--seed", type=int)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen, usage=g.error)

    s = sub.add_parser("solve", help="greedy team plan with bound certificate")
    s.add_argument("instance")
    s.add_argument("--oracle", choices=["exact", "heuristic"], default="exact")
    s.add_argument("--team", type=int, help="defaults to the instance team size")
    s.add_argument("--oversize", type=int, default=None)
    s.add_argument("--variant", choices=VARIANTS, default="node")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("exact", help="exhaustive optimum (guarded by catalog size and team count)")
    e.add_argument("instance")
    e.add_argument("--team", type=int, help="defaults to the instance team size")
    e.add_argument("--out")
    e.set_defaults(func=cmd_exact)

    m = sub.add_parser("simulate", help="Monte-Carlo check of a plan file")
    m.add_argument("instance")
    m.add_argument("--plan", required=True)
    m.add_argument("--trials", type=int, default=10000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out")
    m.set_defaults(func=cmd_simulate)

    f = sub.add_parser("feasible", help="per-node reachability report")
    f.add_argument("instance")
    f.add_argument("--brute-force", action="store_true")
    f.set_defaults(func=cmd_feasible)

    b = sub.add_parser("bench", help="benchmark suite, CSV output")
    b.add_argument("--suite", choices=["ratio", "hex"], required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--timing", action="store_true", help="record wall times (breaks byte-identical output)")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bench, usage=b.error)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if (getattr(args, "seed", 0) or 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError:
        return 1
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    # json.load raises RecursionError on a file nested too deeply; nothing
    # else in tso recurses. numpy's MemoryError names the allocation it could
    # not make; an exception without a message is named by its class.
    except (ValueError, KeyError, OSError, RecursionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
