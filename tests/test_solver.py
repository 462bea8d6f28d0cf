import hashlib
import itertools
import random
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import random_cyclic_group
from pgarcs import solver
from pgarcs.arcs import load_corpus_arc
from pgarcs.condense import condense, format_system, parse_system
from pgarcs.errors import BudgetExceededError
from pgarcs.geometry import _normalized_triples
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
    _lns_phase,
    _Search,
    exhaustive_oracle,
    greedy_warm_start,
    lp_bound,
    solve_feasible,
    solve_max,
)
from test_geometry import dot_product_incidence

C0_Q13 = ((0, 1, 0), (1, 0, 0), (0, 0, 12))
C0_Q3 = ((0, 1, 0), (1, 0, 0), (0, 0, 2))
C0_Q7 = ((0, 1, 0), (1, 0, 0), (0, 0, 6))
C3_Q7 = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
C4_Q7 = ((1, 2, 1), (6, 6, 3), (0, 0, 6))
# sha256 of the LNS offer sequence in test_lns_trajectory_is_frozen, taken
# before the incremental kernel replaced the re-summing one
LNS_TRAJECTORY_SHA256 = "a181790d48d47f6c53935afdc779e7e9d0e788a678ba9ac814ece176107059fa"
# sha256 of the warm starts in test_greedy_warm_start_is_frozen, taken
# before the warm start moved onto the packed row loads
GREEDY_WARM_START_SHA256 = "43dfd6d568cb59070dc140730c02ab0abb5c5b16aa617c2a3a30140302bcac95"


def full_plane_model(plane_for, q, r):
    plane = plane_for(q)
    od = orbits(plane, closure(plane.spec, []))
    return IlpModel(condense(plane, od, r))


def cyclic_model(plane_for, q, matrix, r):
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
@given(
    q=st.sampled_from((2, 3, 4, 5, 7)),
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 6),
    generators=st.integers(1, 2),
)
def test_solver_agrees_with_oracle_on_random_cyclic_groups(plane_for, q, seed, r, generators):
    # one random cyclic group, or the group that two of them generate,
    # whose normalizer symmetry is the centralizers' intersection
    plane = plane_for(q)
    rng = random.Random(seed)
    gens = [g for _ in range(generators) for g in random_cyclic_group(plane.spec, rng).generators]
    try:
        group = closure(plane.spec, gens, cap=5000)
    except BudgetExceededError:
        assume(False)
    cs = condense(plane, orbits(plane, group), min(r, q + 1))
    assume(cs.ell <= 22)
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
    # a bare branch and bound from an empty incumbent must branch, here
    # under the normalizer's symmetry
    search = _Search(model, _Lp(model), _Incumbent((0,) * model.n, 0), float("inf"))
    search.run()
    assert (search.timed_out, search.incumbent.objective) == (False, opt)
    assert model.check_feasible(search.incumbent.x)
    proof = _Search(model, _Lp(model), _Incumbent((0,) * model.n, 0), float("inf"), target=opt + 1)
    proof.run()
    assert (proof.timed_out, proof.target_hit) == (False, False)


def test_q7_involution_class_proved_infeasible(plane_for):
    # the slowest class of the q=7 exclusion sweep: no (16,3)-arc is
    # stabilised by a homology involution, since m_3(2,7) = 15
    model = cyclic_model(plane_for, 7, C0_Q7, 3)
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


def test_solve_feasible_honours_a_budget_shorter_than_its_root_lp(plane_for):
    # the root LP over 333 orbits alone takes about 0.2 s
    plane = plane_for(31)
    pa = load_corpus_arc("q31_r25_n734.arc", plane=plane)
    model = IlpModel(condense(plane, orbits(plane, closure(plane.spec, pa.group.generators)), 25))
    budget = 0.02
    t0 = time.monotonic()
    sol = solve_feasible(model, target=734, budget=budget)
    assert time.monotonic() - t0 <= budget + 0.1
    assert sol.status == TIMEOUT


def test_solve_feasible_honours_a_budget_shorter_than_its_lns(plane_for):
    # 4,000 ruin-and-recreate moves over 333 orbits outlast a 0.1 s budget
    plane = plane_for(31)
    pa = load_corpus_arc("q31_r25_n734.arc", plane=plane)
    model = IlpModel(condense(plane, orbits(plane, closure(plane.spec, pa.group.generators)), 25))
    budget = 0.1
    t0 = time.monotonic()
    sol = solve_feasible(model, target=734, budget=budget)
    assert time.monotonic() - t0 <= budget + 0.3
    assert sol.status == TIMEOUT
    assert model.check_feasible(sol.x)


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
    models = (full_plane_model(plane_for, 2, 2), cyclic_model(plane_for, 3, C0_Q3, 2))
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


def test_greedy_warm_start_is_frozen(plane_for):
    # the warm start reaches the incumbent through its constructor, not
    # through an offer, so the LNS digest below does not cover it
    rng = random.Random(17)
    models = [full_plane_model(plane_for, q, r) for q in (2, 3, 4) for r in range(1, q + 2)]
    models += [cyclic_model(plane_for, 7, m, r) for m in (C0_Q7, C3_Q7) for r in (2, 3, 4)]
    for q in (3, 4, 5, 7, 8, 9):
        plane = plane_for(q)
        od = orbits(plane, random_cyclic_group(plane.spec, rng))
        models += [IlpModel(condense(plane, od, r)) for r in (2, 3, q)]
    starts = [greedy_warm_start(model) for model in models]
    assert all(model.check_feasible(s.x) for model, s in zip(models, starts))
    digest = hashlib.sha256(repr([(s.x, s.objective) for s in starts]).encode()).hexdigest()
    assert digest == GREEDY_WARM_START_SHA256


def test_determinism(plane_for):
    plane = plane_for(7)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(15)))
    model = IlpModel(condense(plane, od, 2))
    a = solve_max(model, budget=60)
    b = solve_max(model, budget=60)
    assert a.x == b.x
    assert a.objective == b.objective
    assert a.nodes_explored == b.nodes_explored
    assert a.symmetry == b.symmetry


def test_trivial_group_condensation_solves_identically(plane_for):
    plane = plane_for(3)
    od = orbits(plane, closure(plane.spec, []))
    cs = condense(plane, od, 2)
    assert [list(row) for row in cs.A] == dot_product_incidence(plane.spec, _normalized_triples(3)).tolist()
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


def lns_trajectory(model, budget, target=None):
    """The (x, objective) offers of the whole LNS schedule, run alone from
    the greedy start."""
    offers = []

    class Recording(_Incumbent):
        def offer(self, x, objective):
            offers.append((tuple(x), objective))
            return super().offer(x, objective)

    warm = greedy_warm_start(model)
    for _ in _lns_phase(model, Recording(warm.x, warm.objective), budget, float("inf"), target=target):
        pass
    return offers


def test_lns_trajectory_is_frozen(plane_for):
    # the ruin-and-recreate phase must replay move for move: the same
    # (x, objective) offers in the same order.  Budget 10 runs 2 restarts
    # of 2,000 moves, budget 20 runs 3 restarts of 3,000.
    offers = []
    models = (
        full_plane_model(plane_for, 4, 3),
        cyclic_model(plane_for, 7, C0_Q7, 4),
        cyclic_model(plane_for, 7, C3_Q7, 4),
    )
    for model in models:
        start = len(offers)
        for budget in (10, 20):
            offers += lns_trajectory(model, budget)
        assert all(model.check_feasible(x) and model.objective(x) == obj for x, obj in offers[start:])
    assert len(offers) == 41
    assert hashlib.sha256(repr(offers).encode()).hexdigest() == LNS_TRAJECTORY_SHA256


def tap_lns(monkeypatch):
    """Record the offers of the LNS that a solve runs and count the steps
    the search takes from it; a step is at most one move."""
    offers, steps = [], []
    lns_phase = solver._lns_phase

    class Tap:
        def __init__(self, incumbent):
            self.incumbent = incumbent

        @property
        def objective(self):
            return self.incumbent.objective

        def offer(self, x, objective):
            offers.append((tuple(x), objective))
            return self.incumbent.offer(x, objective)

    def tapped(model, incumbent, *args, **kwargs):
        for step in lns_phase(model, Tap(incumbent), *args, **kwargs):
            steps.append(step)
            yield step

    monkeypatch.setattr(solver, "_lns_phase", tapped)
    return offers, steps


def test_lns_offers_inside_a_proof_are_a_prefix_of_its_trajectory(plane_for, monkeypatch):
    model = cyclic_model(plane_for, 7, C0_Q7, 3)
    offers, _ = tap_lns(monkeypatch)
    assert solve_feasible(model, target=16, budget=10).status == PROVED_INFEASIBLE
    standalone = lns_trajectory(model, 10, target=16)
    assert 0 < len(offers) <= len(standalone)
    assert offers == standalone[: len(offers)]


def test_the_lns_moves_at_most_ell_times_per_node(plane_for, monkeypatch):
    # the budget-60 schedule has 63,000 moves; the proof takes 107 nodes
    model = cyclic_model(plane_for, 7, C0_Q7, 3)
    _, steps = tap_lns(monkeypatch)
    sol = solve_feasible(model, target=16)
    assert (sol.status, sol.nodes_explored) == (PROVED_INFEASIBLE, 107)
    assert 0 < len(steps) <= model.n * (sol.nodes_explored + 1)


def test_an_lns_witness_stops_the_search(plane_for, monkeypatch):
    # greedy 26, optimum 29: the LNS reaches 29 after 4 nodes, where the
    # search alone needs 34
    model = cyclic_model(plane_for, 7, C4_Q7, 5)
    assert model.n == 17 and exhaustive_oracle(model).objective == 29
    offers, steps = tap_lns(monkeypatch)
    sol = solve_feasible(model, target=29)
    assert (sol.status, sol.objective, sol.nodes_explored) == (FEASIBLE_FOUND, 29, 4)
    assert model.check_feasible(sol.x) and model.objective(sol.x) == 29
    assert offers[-1] == (sol.x, 29)
    assert len(steps) <= model.n * (sol.nodes_explored + 1)
    warm = greedy_warm_start(model)
    alone = _Search(model, _Lp(model), _Incumbent(warm.x, warm.objective), float("inf"), target=29)
    alone.run()
    assert alone.target_hit and alone.nodes == 34


def test_orbital_branching_shrinks_the_q7_involution_proof(plane_for):
    model = cyclic_model(plane_for, 7, C0_Q7, 3)
    sol = solve_feasible(model, target=16, budget=10)
    assert sol.status == PROVED_INFEASIBLE
    assert sol.symmetry == 1008  # GL(2,7) modulo the involution
    # a parsed system carries no group: the plain search, same verdict
    parsed = IlpModel(parse_system(format_system(model.system)))
    assert parsed.symmetry() is None
    plain = solve_feasible(parsed, target=16, budget=10)
    assert plain.status == PROVED_INFEASIBLE
    assert plain.symmetry == 1
    assert plain.nodes_explored > 5 * sol.nodes_explored


def test_parsed_system_reaches_the_same_optimum(plane_for):
    model = full_plane_model(plane_for, 3, 2)
    parsed = IlpModel(parse_system(format_system(model.system)))
    a, b = solve_max(model, budget=60), solve_max(parsed, budget=60)
    assert (a.status, b.status) == (OPTIMAL, OPTIMAL)
    assert a.objective == b.objective == exhaustive_oracle(model).objective
    assert (a.symmetry, b.symmetry) == (5616, 1)


def test_symmetry_listing_honours_the_deadline(plane_for, monkeypatch):
    model = full_plane_model(plane_for, 3, 2)
    with pytest.raises(BudgetExceededError):
        model.symmetry(0.0)
    # the listing is retried by the next caller, not given up
    assert len(model.symmetry()) == 5616

    def late(deadline):
        raise BudgetExceededError("deadline passed while listing the normalizer")

    fresh = full_plane_model(plane_for, 3, 2)
    monkeypatch.setattr(fresh, "symmetry", late)
    search = _Search(fresh, _Lp(fresh), _Incumbent((0,) * fresh.n, 0), float("inf"))
    search.run()
    assert search.timed_out and search.nodes == 1


# (q, r, generator, target) -> (status, objective, nodes_explored, symmetry)
# on each return path of the body that solve_max (target None) and
# solve_feasible share, as recorded before they shared it
RETURN_PATHS = {
    "target_not_positive": ((2, 2, None, 0), (FEASIBLE_FOUND, 0, 0, 1)),
    "root_bound_below_target": ((2, 2, None, 8), (PROVED_INFEASIBLE, 0, 1, 1)),
    "heuristic_reaches_target": ((3, 3, None, 9), (FEASIBLE_FOUND, 9, 0, 1)),
    "heuristic_meets_root_bound": ((3, 4, None, None), (OPTIMAL, 13, 1, 1)),
    "search_proves_optimum": ((3, 2, None, None), (OPTIMAL, 4, 9, 5616)),
    "search_proves_infeasible": ((7, 3, C0_Q7, 16), (PROVED_INFEASIBLE, 15, 107, 1008)),
}


@pytest.mark.parametrize("path", sorted(RETURN_PATHS))
def test_return_paths_keep_their_status_and_counts(plane_for, path):
    (q, r, matrix, target), want = RETURN_PATHS[path]
    model = full_plane_model(plane_for, q, r) if matrix is None else cyclic_model(plane_for, q, matrix, r)
    sol = solve_max(model) if target is None else solve_feasible(model, target)
    assert (sol.status, sol.objective, sol.nodes_explored, sol.symmetry) == want
    assert model.check_feasible(sol.x) and model.objective(sol.x) == sol.objective


def test_a_solve_accepts_only_one_thread(plane_for):
    model = full_plane_model(plane_for, 2, 2)
    with pytest.raises(ValueError):
        solve_max(model, threads=2)
    assert solve_max(model, threads=1).status == OPTIMAL
