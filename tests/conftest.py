from __future__ import annotations

import os
import time

import pytest

import tso
from tso.cli import main


@pytest.fixture(scope="session")
def ratio_bench(tmp_path_factory):
    """One single-process ratio-suite run, shared by every test that reads its CSV."""
    out = tmp_path_factory.mktemp("bench") / "ratio.csv"
    saved = os.environ.get("TSO_THREADS")
    os.environ["TSO_THREADS"] = "1"
    t0 = time.perf_counter()
    try:
        rc = main(["bench", "--suite", "ratio", "--out", str(out)])
    finally:
        if saved is None:
            os.environ.pop("TSO_THREADS", None)
        else:
            os.environ["TSO_THREADS"] = saved
    assert rc == 0
    return out.read_text(encoding="utf-8"), time.perf_counter() - t0


@pytest.fixture
def diamond() -> tso.SurvivalGraph:
    """Four nodes, two routes of different risk plus a safe direct edge.

    Node 3 sits on a route too risky for p_s = 0.8, so it is unreachable;
    the interesting route 1 -> 2 -> 4 survives with probability 0.81.
    """
    return tso.SurvivalGraph(
        node_ids=[1, 2, 3, 4],
        priorities={1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0},
        edges=[(1, 2, 0.9), (2, 4, 0.9), (1, 3, 0.8), (3, 4, 0.8), (1, 4, 1.0)],
        start=1,
        terminal=4,
        p_s=0.8,
    )


@pytest.fixture
def loop5() -> tso.SurvivalGraph:
    """Five-node depot tour with exactly three feasible loops.

    Two robots both pass node 5 (the first with probability 0.96), and the
    direct out-and-back over node 4 misses the budget at 0.72 < 0.75, so
    the catalog is exactly the three longer tours.
    """
    return tso.SurvivalGraph(
        node_ids=[1, 2, 3, 4, 5],
        priorities={i: 1.0 for i in range(1, 6)},
        edges=[
            (1, 3, 1.0), (3, 5, 0.96), (5, 2, 0.95), (2, 1, 0.95),
            (1, 4, 0.9), (4, 5, 0.95), (5, 4, 0.99), (4, 1, 0.8),
        ],
        start=1,
        terminal=1,
        p_s=0.75,
    )


@pytest.fixture
def hexg() -> tso.SurvivalGraph:
    return tso.hex_instance()
