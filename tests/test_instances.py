from __future__ import annotations

import collections

import pytest

import tso


def test_random_complete_is_deterministic():
    a = tso.random_complete_instance(6, 0.3, 1.0, 0.7, seed=5)
    b = tso.random_complete_instance(6, 0.3, 1.0, 0.7, seed=5)
    c = tso.random_complete_instance(6, 0.3, 1.0, 0.7, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges
    assert a.start == 0 and a.terminal == 5
    assert tso.validate_instance(a) == []


def test_random_complete_weight_range():
    g = tso.random_complete_instance(7, 0.4, 0.6, 0.7, seed=1)
    assert len(g.edges) == 7 * 6
    for _u, _v, w in g.edges:
        assert 0.4 <= w < 0.6
    flat = tso.random_complete_instance(5, 0.9, 0.9, 0.7, seed=1)
    assert {w for _u, _v, w in flat.edges} == {0.9}


def test_random_complete_weights_are_pinned():
    # One uniform draw per edge in (source, sink) order, recorded before the
    # per-edge draws became one sized draw; the two give the same stream.
    g = tso.random_complete_instance(3, 0.5, 1.0, 0.6, seed=(5, 1))
    assert [(u, v) for u, v, _w in g.edges] == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert [repr(w) for _u, _v, w in g.edges] == [
        "0.8871020901869406", "0.7353613415940465", "0.8479401721710574",
        "0.9082688229214859", "0.7689684645523596", "0.758648111434913",
    ]


def test_random_complete_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tso.random_complete_instance(1, 0.3, 1.0, 0.7)
    with pytest.raises(ValueError):
        tso.random_complete_instance(5, 0.0, 1.0, 0.7)
    with pytest.raises(ValueError):
        tso.random_complete_instance(5, 0.8, 0.3, 0.7)
    with pytest.raises(ValueError):
        tso.random_complete_instance(5, 0.3, 1.0, 0.0)


def test_hex_structure(hexg):
    assert hexg.num_nodes == 19
    assert len(hexg.edges) == 84
    assert hexg.start == 0 and hexg.terminal == 0
    assert hexg.p_s == pytest.approx(0.70)
    assert all(hexg.priority(v) == 1.0 for v in hexg.node_ids)
    weights = collections.Counter(w for _u, _v, w in hexg.edges)
    assert weights == {0.98: 12, 0.91: 72}
    out_deg = collections.Counter(u for u, _v, _w in hexg.edges)
    assert out_deg[0] == 6
    assert sum(out_deg.values()) == 84
    # Every arc has its reverse: the grid is an undirected layout.
    arcs = {(u, v) for u, v, _w in hexg.edges}
    assert all((v, u) in arcs for u, v in arcs)
    assert tso.validate_instance(hexg) == []
    assert tso.feasibility_check(hexg).x_nonempty


def test_hex_accepts_other_thresholds():
    g = tso.hex_instance(p_s=0.5, team_size=3)
    assert g.p_s == 0.5
    assert g.team_size == 3
    assert g.edges == tso.hex_instance().edges


def test_feasible_random_instance_deterministic():
    a = tso.feasible_random_instance(8, 0.3, 1.0, 0.9, seed=(3, 1))
    b = tso.feasible_random_instance(8, 0.3, 1.0, 0.9, seed=(3, 1))
    assert a.edges == b.edges
    assert tso.feasibility_check(a).x_nonempty


def test_feasible_random_instance_resamples_tight_budgets():
    # At p_s = 0.95 most draws admit no feasible path; the helper must keep
    # drawing until one does.
    for rep in range(3):
        g = tso.feasible_random_instance(20, 0.3, 1.0, 0.95, seed=(4, rep))
        assert tso.feasibility_check(g).x_nonempty


def test_feasible_random_instance_gives_up():
    with pytest.raises(tso.InfeasibleInstanceError):
        tso.feasible_random_instance(8, 0.3, 0.4, 0.99, seed=0, max_attempts=5)
