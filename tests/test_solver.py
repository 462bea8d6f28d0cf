import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import random_cyclic_group
from pgarcs.condense import condense
from pgarcs.errors import BudgetExceededError
from pgarcs.gf import Field
from pgarcs.group import closure, make_element, orbits
from pgarcs.solver import (
    FEASIBLE_FOUND,
    OPTIMAL,
    PROVED_INFEASIBLE,
    TIMEOUT,
    IlpModel,
    _Incumbent,
    _Lp,
    _Search,
    exhaustive_oracle,
    greedy_warm_start,
    lp_bound,
    solve_feasible,
    solve_max,
)

C0_Q13 = ((0, 1, 0), (1, 0, 0), (0, 0, 12))
C0_Q3 = ((0, 1, 0), (1, 0, 0), (0, 0, 2))
C0_Q7 = ((0, 1, 0), (1, 0, 0), (0, 0, 6))


def full_plane_model(plane_for, q, r):
    plane = plane_for(q)
    od = orbits(plane, closure(plane.spec, []))
    return IlpModel(condense(plane, od, r))


def involution_model(plane_for, q, matrix, r):
    plane = plane_for(q)
    od = orbits(plane, closure(plane.spec, [make_element(plane.spec, matrix)]))
    return IlpModel(condense(plane, od, r))


def brute_force_best(model, fixed=None):
    """Exact optimum over completions of a partial assignment."""
    fixed = fixed or {}
    free = [j for j in range(model.n) if j not in fixed]
    best = -1
    for bits in itertools.product((0, 1), repeat=len(free)):
        x = [0] * model.n
        for j, v in fixed.items():
            x[j] = v
        for j, v in zip(free, bits):
            x[j] = v
        if model.check_feasible(x):
            best = max(best, model.objective(x))
    return best


def test_oracle_fano(plane_for):
    model = full_plane_model(plane_for, 2, 2)
    sol = exhaustive_oracle(model)
    assert sol.objective == 4
    assert sol.status == OPTIMAL
    assert model.check_feasible(sol.x)
    assert model.objective(sol.x) == 4


def test_oracle_q4_r2(plane_for):
    assert exhaustive_oracle(full_plane_model(plane_for, 4, 2)).objective == 6


def test_oracle_slack_constraints(plane_for):
    for q in (2, 3, 4):
        model = full_plane_model(plane_for, q, q + 1)
        assert exhaustive_oracle(model).objective == q * q + q + 1


def test_oracle_size_cap(plane_for):
    with pytest.raises(BudgetExceededError):
        exhaustive_oracle(full_plane_model(plane_for, 5, 2))


def test_solve_max_small_planes(plane_for):
    for q, r, want in ((2, 2, 4), (3, 3, 9)):
        model = full_plane_model(plane_for, q, r)
        sol = solve_max(model, budget=60)
        assert sol.status == OPTIMAL
        assert sol.objective == want
        assert model.check_feasible(sol.x)
        assert model.objective(sol.x) == sol.objective


def test_solve_max_matches_brute_force_on_condensed(plane_for):
    rng = random.Random(11)
    for q in (3, 4, 5):
        plane = plane_for(q)
        od = orbits(plane, random_cyclic_group(plane.spec, rng))
        r = rng.randrange(1, q + 1)
        model = IlpModel(condense(plane, od, r))
        sol = solve_max(model, budget=60)
        assert sol.status == OPTIMAL
        if model.n <= 18:
            assert sol.objective == brute_force_best(model)
        else:
            assert sol.objective == exhaustive_oracle(model).objective


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(q=st.sampled_from((2, 3, 4, 5)), seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6))
def test_solver_agrees_with_oracle_on_random_cyclic_groups(plane_for, q, seed, r):
    plane = plane_for(q)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(seed)))
    cs = condense(plane, od, min(r, q + 1))
    assume(cs.ell <= 20)
    model = IlpModel(cs)
    opt = exhaustive_oracle(model).objective
    sol = solve_max(model, budget=5)
    assert sol.status == OPTIMAL
    assert sol.objective == opt
    assert solve_feasible(model, opt + 1, budget=5).status == PROVED_INFEASIBLE
    hit = solve_feasible(model, opt, budget=5)
    assert hit.status == FEASIBLE_FOUND
    assert model.check_feasible(hit.x)
    assert model.objective(hit.x) >= opt


def test_q7_involution_class_proved_infeasible(plane_for):
    # the slowest class of the q=7 exclusion sweep: no (16,3)-arc is
    # stabilised by a homology involution, since m_3(2,7) = 15
    model = involution_model(plane_for, 7, C0_Q7, 3)
    assert model.n == 33
    assert solve_feasible(model, target=16, budget=10).status == PROVED_INFEASIBLE


def test_solve_feasible_target_zero(plane_for):
    model = full_plane_model(plane_for, 2, 2)
    sol = solve_feasible(model, target=0)
    assert sol.status == FEASIBLE_FOUND
    assert sol.objective == 0


def test_solve_feasible_proved_infeasible(plane_for):
    model = full_plane_model(plane_for, 2, 2)
    sol = solve_feasible(model, target=5, budget=60)
    assert sol.status == PROVED_INFEASIBLE
    # never contradicted by the oracle
    assert exhaustive_oracle(model).objective < 5


def test_solve_feasible_hits_target(plane_for):
    model = full_plane_model(plane_for, 3, 3)
    sol = solve_feasible(model, target=9, budget=60)
    assert sol.status == FEASIBLE_FOUND
    assert sol.objective >= 9
    assert model.check_feasible(sol.x)


def test_solve_feasible_timeout_on_hard_instance(plane_for):
    plane = plane_for(13)
    od = orbits(plane, closure(plane.spec, [make_element(plane.spec, C0_Q13)]))
    model = IlpModel(condense(plane, od, 5))
    sol = solve_feasible(model, target=50, budget=0.5)
    assert sol.status == TIMEOUT
    assert sol.objective < 50


def test_lp_bound_fully_fixed(plane_for):
    model = full_plane_model(plane_for, 2, 2)
    fixed = {0: 1, 1: 1, 2: 0, 3: 0, 4: 1, 5: 0, 6: 0}
    assert lp_bound(model, fixed) == model.objective([fixed[j] for j in range(7)])


def test_lp_bound_dominates_optimum(plane_for):
    model = full_plane_model(plane_for, 2, 2)
    assert lp_bound(model) >= 4


def test_lp_bound_violated_fixing(plane_for):
    model = full_plane_model(plane_for, 2, 1)
    line = [j for j, a in enumerate(model.A[0]) if a][:2]
    assert lp_bound(model, {line[0]: 1, line[1]: 1}) == float("-inf")


def test_lp_bound_monotone_under_zero_fixings(plane_for):
    model = full_plane_model(plane_for, 3, 2)
    rng = random.Random(12)
    for _ in range(10):
        fixed = {}
        prev = lp_bound(model, fixed)
        order = list(range(model.n))
        rng.shuffle(order)
        for j in order[:6]:
            fixed[j] = 0
            cur = lp_bound(model, fixed)
            assert cur <= prev
            prev = cur


def test_lp_bound_safety_audit(plane_for):
    models = (full_plane_model(plane_for, 2, 2), involution_model(plane_for, 3, C0_Q3, 2))
    assert models[1].n == 9
    rng = random.Random(13)
    for model in models:
        for _ in range(25):
            fixed = {}
            for j in range(model.n):
                roll = rng.random()
                if roll < 0.25:
                    fixed[j] = 1
                elif roll < 0.5:
                    fixed[j] = 0
            bound = lp_bound(model, fixed)
            exact = brute_force_best(model, fixed)
            if exact < 0:
                assert bound == float("-inf") or bound >= 0
            else:
                assert bound >= exact


def test_search_restores_lp_to_fresh_root(plane_for):
    plane = plane_for(5)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(16)))
    for model in (full_plane_model(plane_for, 4, 3), IlpModel(condense(plane, od, 2))):
        lp = _Lp(model)
        fresh_bound, _ = _Lp(model).solve()
        warm = greedy_warm_start(model)
        search = _Search(model, lp, _Incumbent(warm.x, warm.objective), float("inf"))
        search.run()
        assert search.nodes > 1
        assert list(lp.highs.getLp().col_lower_) == [0.0] * model.n
        assert list(lp.highs.getLp().col_upper_) == [1.0] * model.n
        assert lp.solve()[0] == fresh_bound


def test_greedy_warm_start_full_selection(plane_for):
    for q in (2, 4):
        model = full_plane_model(plane_for, q, q + 1)
        sol = greedy_warm_start(model)
        assert sol.objective == q * q + q + 1
        assert all(sol.x)


def test_greedy_warm_start_quality_q4(plane_for):
    sol = greedy_warm_start(full_plane_model(plane_for, 4, 2))
    assert sol.objective >= 5


def test_greedy_warm_start_always_feasible(plane_for):
    rng = random.Random(14)
    for q in (3, 5, 7):
        plane = plane_for(q)
        od = orbits(plane, random_cyclic_group(plane.spec, rng))
        model = IlpModel(condense(plane, od, rng.randrange(1, q + 2)))
        sol = greedy_warm_start(model)
        assert model.check_feasible(sol.x)
        assert sol.objective == model.objective(sol.x)


def test_determinism(plane_for):
    plane = plane_for(7)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(15)))
    model = IlpModel(condense(plane, od, 2))
    a = solve_max(model, budget=60, deterministic=True)
    b = solve_max(model, budget=60, deterministic=True)
    assert a.x == b.x
    assert a.objective == b.objective
    assert a.nodes_explored == b.nodes_explored


def test_threads_same_optimum(plane_for):
    model = full_plane_model(plane_for, 3, 2)
    seq = solve_max(model, budget=60, deterministic=True)
    par = solve_max(model, budget=60, threads=2, deterministic=False)
    assert par.status == OPTIMAL
    assert par.objective == seq.objective


def test_trivial_group_condensation_solves_identically(plane_for):
    plane = plane_for(3)
    od = orbits(plane, closure(plane.spec, []))
    cs = condense(plane, od, 2)
    assert [list(row) for row in cs.A] == plane.inc.tolist()
    model = IlpModel(cs)
    assert solve_max(model, budget=60).objective == exhaustive_oracle(model).objective


def test_solution_invariants(plane_for):
    model = full_plane_model(plane_for, 4, 3)
    sol = solve_max(model, budget=60)
    assert sol.status in (OPTIMAL, TIMEOUT)
    assert model.check_feasible(sol.x)
    assert sol.objective == model.objective(sol.x)
    assert sol.nodes_explored >= 1
    assert sol.wall_time >= 0


def test_search_branches_to_the_optimum_without_lp_optima(plane_for):
    model = full_plane_model(plane_for, 3, 2)
    lp = _Lp(model)
    lp.highs.setOptionValue("simplex_iteration_limit", 0)
    assert lp.solve() == (sum(model.w), None)
    search = _Search(model, lp, _Incumbent((0,) * model.n, 0), float("inf"))
    search.run()
    assert not search.timed_out
    assert search.incumbent.objective == exhaustive_oracle(model).objective
    assert model.check_feasible(search.incumbent.x)
