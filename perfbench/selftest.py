"""Tests of the benchmark itself: its output checks catch planted errors,
its seeded conjugation keeps the problems isomorphic, and its tracer
computes self time.  From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The q=11 proof under a conjugated group takes about 40 s on a 2-vCPU box.
"""

from __future__ import annotations

import time

from pgarcs import Solution, admits_group, compress_arc, solve_feasible

import workloads
from checks import Checks
from tracer import NullTracer, Tracer

NULL = NullTracer()
SEED = 7
Q4_WRONG = workloads.Q4_OPTIMUM - 1


def test_planted_wrong_optimum_counts_as_failed():
    s = workloads.prove_setup(NULL, 0, None)["systems"]["q4_r3_max"]
    checks = Checks()
    planted = Solution(x=(0,) * s.cs.ell, objective=Q4_WRONG, status="Optimal")
    checks.record(s.inst, workloads.q4_problems(s, planted, NULL))
    assert (checks.attempted, checks.failed) == (1, 1)
    assert any("optimum 8, expected 9" in p for p in checks.problems)


def test_corrupted_witness_counts_as_failed():
    st = workloads.rediscover_setup(NULL, 0, None)
    s, arc = st["systems"]["q25_r3_n39"]
    _, _, r, n = workloads.ARCS["q25_r3_n39"]
    x = compress_arc(s.orb, arc.points)
    checks = Checks()
    good = Solution(x=x, objective=n, status="FeasibleFound")
    checks.record("true witness", workloads.rediscover_problems(s, good, n, NULL))
    assert checks.failed == 0
    for j in (x.index(0), x.index(1)):  # add one orbit, or drop one
        bad = list(x)
        bad[j] = 1 - bad[j]
        corrupted = Solution(x=tuple(bad), objective=n, status="FeasibleFound")
        checks.record("corrupted witness", workloads.rediscover_problems(s, corrupted, n, NULL))
    short = Solution(x=x[:-1], objective=n, status="FeasibleFound")
    checks.record("short witness", workloads.rediscover_problems(s, short, n, NULL))
    infeasible = Solution(x=x, objective=0, status="ProvedInfeasible")
    checks.record("infeasible corpus arc", workloads.rediscover_problems(s, infeasible, n, NULL))
    assert (checks.attempted, checks.failed) == (5, 4)


def test_exception_counts_as_failed():
    checks = Checks()
    try:
        raise ValueError("planted")
    except ValueError:
        checks.crashed("op")
    assert (checks.attempted, checks.failed) == (1, 1)
    assert "planted" in checks.problems[0]


def test_seed_zero_is_the_identity():
    st = workloads.rediscover_setup(NULL, 0, None)
    for s, _ in st["systems"].values():
        assert workloads.seeded_alpha(s.plane.spec, 0, s.inst) is None


def test_conjugated_corpus_arcs_are_admitted_by_conjugated_groups():
    plain = workloads.rediscover_setup(NULL, 0, None)["systems"]
    moved = workloads.rediscover_setup(NULL, SEED, None)["systems"]
    for inst, (s, arc) in moved.items():
        assert admits_group(arc, s.group), inst
        assert len(arc.points) == workloads.ARCS[inst][3]
        assert s.cs.ell == plain[inst][0].cs.ell
        assert s.group.order == plain[inst][0].group.order
    assert any(moved[i][1].points != plain[i][1].points for i in moved)


def test_conjugated_q11_system_keeps_ell_and_verdict():
    s = workloads.prove_setup(NULL, SEED, None)["systems"]["q11_r2_inv"]
    assert s.cs.ell == workloads.Q11_ELL
    sol = solve_feasible(s.model, workloads.Q11_TARGET, budget=workloads.BUDGETS["q11_r2_inv"])
    assert workloads.q11_problems(s, sol) == []


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.phase = "timed"
    with tr.span("classify.run_exclusion"):
        time.sleep(0.02)
        with tr.span("solver.class"):
            time.sleep(0.03)
    (outer,) = tr.durations("classify.run_exclusion")
    (inner,) = tr.durations("solver.class")
    self_s = tr.self_times("timed")
    assert self_s == {"classify": outer - inner, "solver": inner}
    assert self_s["classify"] >= 0.02 and inner >= 0.03
    assert tr.top_level("timed") == outer
