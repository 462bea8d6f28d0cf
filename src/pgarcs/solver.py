"""Exact and budgeted 0/1 maximization of w.x subject to A.x <= r.u.

Depth-first branch and bound, 1-branch first, with most-fractional
branching.  Each search keeps one HiGHS LP relaxation and changes one
column's bounds per step, so every node re-solves warm from the previous
basis.  No node is pruned on a float: an LP bound is the integer safe
bound of Neumaier and Shcherbina (Math. Prog. 99, 2004), computed in
int64 from the scaled, floored row duals, and infeasible fixings are
caught by integer row loads.  When HiGHS reports no optimum the node
branches on its heaviest free variable.  Incumbents come from a
descending-weight greedy warm start improved by 1-flip/1-swap local
search, followed by a seeded ruin-and-recreate phase whose restart and
iteration counts depend only on the budget value.  Its moves are frozen
(a test pins the incumbents it offers).  The greedy start, the search and
the ruin-and-recreate phase share one representation of the row loads, a
packed integer (`IlpModel.packed`), so trying a variable is one addition
and one mask.  solve_max with
deterministic=True runs it to the end and replays bit-identically;
solve_feasible and other runs stop it at the deadline.  A chunked
exhaustive oracle covers tiny instances.  Budget exhaustion is reported
as a Timeout status, never an error; the root LP gets the remaining
budget as its time limit, and a limited root counts as no optimum.
solve_max and solve_feasible share one body and run one single-threaded
search from the root.

A system condensed from a group G carries the symmetry of the normalizer
N(G) in PGL(3,q), which maps G-invariant arcs to G-invariant arcs and so
permutes the variables; a parsed system carries none.  The search uses it
by orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, Math.
Prog. 126, 2011).  A node holds a group of variable permutations that
maps its fixings onto themselves: at the root the permutations listed
for the model (group.normalizer_permutations, each checked to preserve A
and w).  It branches on the usual variable j: the 1-child fixes x_j = 1
and keeps the stabilizer of j, the 0-child fixes the whole orbit of j to
0 and keeps the group.  Any selection of the node with some x_i = 1 on that
orbit is mapped by the group onto one with x_j = 1, feasible, of the
same weight and still inside the node, so the children lose no optimum
and no witness.  The list is built when a search first branches.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from itertools import compress

import numpy as np

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # the pybind11 HiGHS bindings arrived in scipy 1.15
    raise ImportError("pgarcs needs scipy>=1.15 for its HiGHS bindings") from exc

from .condense import CondensedSystem
from .errors import BudgetExceededError

__all__ = [
    "IlpModel",
    "Solution",
    "exhaustive_oracle",
    "greedy_warm_start",
    "lp_bound",
    "solve_feasible",
    "solve_max",
]

OPTIMAL = "Optimal"
FEASIBLE_FOUND = "FeasibleFound"
PROVED_INFEASIBLE = "ProvedInfeasible"
TIMEOUT = "Timeout"

ORACLE_MAX_VARS = 25
LP_ROUND_EPS = 1e-6
LP_TOL = 1e-9
CERT_BITS = 20  # row duals are scaled by 2**CERT_BITS and floored


class IlpModel:
    """max w.x, A.x <= rhs, x in {0,1}^n, all data nonnegative integers."""

    def __init__(self, system: CondensedSystem):
        self.system = system
        self.n = system.ell
        self.w = tuple(system.w)
        self.A = tuple(tuple(row) for row in system.A)
        self.m = len(self.A)
        self.rhs = (system.r,) * self.m
        if any(len(row) != self.n for row in self.A):
            raise ValueError("constraint matrix is not ell x ell")
        if any(v < 0 for row in self.A for v in row) or any(v < 0 for v in self.w):
            raise ValueError("model data must be nonnegative")
        self._normalizer = system.normalizer
        self._symmetry = None

    def symmetry(self, deadline=float("inf")):
        """The variable permutations the group's normalizer induces, as an
        int16 array with one row per distinct permutation, or None when the
        system carries no group or too large a normalizer.  Listed on the
        first call, which raises BudgetExceededError past the deadline."""
        if self._normalizer is not None:
            found = self._normalizer(deadline)
            self._symmetry = None if found is None else found[1]
            self._normalizer = None
        return self._symmetry

    @functools.cached_property
    def packed(self):
        """(empty, guard, col): the row loads as one integer, b bits per
        row, each row offset so that its top bit is set exactly when the
        load exceeds the rhs.  `empty` is the load of no selection, `guard`
        holds the top bits and col[j] is column j, so x_j fits when
        (loads + col[j]) & guard is 0, and inserting or dropping it is one
        addition.  Built on first use, so setting up a model does not pay.

        No field ever carries into the next one: b - 1 bits hold any rhs,
        and a b-bit field holds a full row plus one coefficient.  A search
        node fixes at most one variable to 1 and is pruned at once if that
        overflows; the greedy pass and the LNS insert only variables that fit.
        """
        b = max(max(self.rhs), max(map(max, self.A))).bit_length() + 1
        half = 1 << (b - 1)
        guard = sum(half << (b * i) for i in range(self.m))
        empty = sum((half - 1 - rhs) << (b * i) for i, rhs in enumerate(self.rhs))
        col = [sum(row[j] << (b * i) for i, row in enumerate(self.A)) for j in range(self.n)]
        return empty, guard, col

    def check_feasible(self, x) -> bool:
        return all(
            sum(a * x[j] for j, a in enumerate(row)) <= b
            for row, b in zip(self.A, self.rhs)
        )

    def objective(self, x) -> int:
        return sum(wj for wj, xj in zip(self.w, x) if xj)


@dataclass
class Solution:
    x: tuple
    objective: int
    status: str
    nodes_explored: int = 0
    wall_time: float = 0.0
    symmetry: int = 1  # distinct variable permutations at the branch-and-bound root


class _Lp:
    """The LP relaxation of one model, kept in a single HiGHS object.

    `set_col` changes one column's bounds; `solve` re-runs HiGHS, which
    starts from the previous basis.  Every bound it returns is certified in
    integers from the row duals (see `_certify`), so float error can only
    weaken it.
    """

    def __init__(self, model: IlpModel):
        n, m = model.n, model.m
        self.A = np.array(model.A, dtype=np.int64)
        self.b = np.array(model.rhs, dtype=np.int64)
        self.w_scaled = np.array(model.w, dtype=np.int64) << CERT_BITS
        rows, cols = np.nonzero(self.A)
        self.highs = h = _highs._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        h.setOptionValue("primal_feasibility_tolerance", LP_TOL)
        h.setOptionValue("dual_feasibility_tolerance", LP_TOL)
        status = h.passModel(
            n, m, len(rows), int(_highs.MatrixFormat.kRowwise), int(_highs.ObjSense.kMinimize), 0.0,
            -np.array(model.w, dtype=np.float64), np.zeros(n), np.ones(n),
            np.full(m, -_highs.kHighsInf), self.b.astype(np.float64),
            np.searchsorted(rows, np.arange(m)).astype(np.int32), cols.astype(np.int32),
            self.A[rows, cols].astype(np.float64), np.zeros(n, dtype=np.int32),
        )
        if status == _highs.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected the LP relaxation")
        self.lo = np.zeros(n, dtype=np.int64)
        self.hi = np.ones(n, dtype=np.int64)
        # scaled multipliers stay below this, so no int64 sum can overflow
        self.y_max = float(2**62 // (1 + int(self.A.sum() + self.b.sum())))

    def set_col(self, j, lo, hi):
        self.lo[j], self.hi[j] = lo, hi
        self.highs.changeColBounds(j, float(lo), float(hi))

    def _certify(self, row_dual) -> int:
        """Neumaier-Shcherbina safe bound: with S = 2**CERT_BITS, any
        integer y >= 0 and d = S.w - y.A, every feasible completion has
        S.w.x = y.A.x + d.x <= y.b + sum_j max(lo_j d_j, hi_j d_j)."""
        y = np.fmin(np.fmax(-np.asarray(row_dual), 0.0) * (1 << CERT_BITS), self.y_max)
        y = np.floor(y).astype(np.int64)
        d = self.w_scaled - y @ self.A
        total = int(y @ self.b) + int(np.maximum(self.lo * d, self.hi * d).sum())
        return total >> CERT_BITS

    def solve(self, time_limit=None):
        """(bound, x): a certified integer upper bound over all completions
        of the current fixing, and the LP point.  When HiGHS does not report
        an optimum, within time_limit seconds if one is given, the bound is
        the weight of everything not fixed to 0 and x is None."""
        if time_limit is None:
            self.highs.run()
        else:
            self.highs.setOptionValue("time_limit", max(time_limit, 0.0))
            self.highs.run()
            self.highs.setOptionValue("time_limit", _highs.kHighsInf)
        if self.highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
            return int(self.w_scaled @ self.hi) >> CERT_BITS, None
        sol = self.highs.getSolution()
        return self._certify(sol.row_dual), sol.col_value


def lp_bound(model: IlpModel, fixed=None):
    """Certified upper bound on the integer optimum over all completions of
    `fixed`.

    -inf signals that the fixing already violates a constraint.
    """
    lp = _Lp(model)
    for j, v in (fixed or {}).items():
        lp.set_col(j, v, v)
    if (lp.A @ lp.lo > lp.b).any():
        return float("-inf")
    return lp.solve()[0]


def greedy_warm_start(model: IlpModel) -> Solution:
    """Feasible start: descending-weight insertion, then 1-flip / 1-swap
    local search to a local optimum."""
    t0 = time.monotonic()
    n, w = model.n, model.w
    empty, guard, col = model.packed
    x = [0] * n
    loads, obj = _greedy_fill(sorted(range(n), key=lambda j: (-w[j], j)), x, empty, 0, w, col, guard)

    improved = True
    while improved:
        selected = sum(x)
        loads, obj = _greedy_fill(range(n), x, loads, obj, w, col, guard)
        improved = sum(x) > selected
        for jout in range(n):
            if not x[jout]:
                continue
            for jin in range(n):
                if x[jin] or w[jin] <= w[jout]:
                    continue
                if not (loads - col[jout] + col[jin]) & guard:
                    x[jout], x[jin] = 0, 1
                    loads += col[jin] - col[jout]
                    obj += w[jin] - w[jout]
                    improved = True
                    break
            if improved:
                break

    xt = tuple(x)
    assert model.check_feasible(xt)
    return Solution(
        x=xt,
        objective=obj,
        status=FEASIBLE_FOUND,
        wall_time=time.monotonic() - t0,
    )


def exhaustive_oracle(model: IlpModel) -> Solution:
    """Exact optimum by enumerating all 2^n selections (n <= 25)."""
    t0 = time.monotonic()
    n = model.n
    if n > ORACLE_MAX_VARS:
        raise BudgetExceededError(f"exhaustive oracle limited to {ORACLE_MAX_VARS} variables, got {n}")
    A = np.array(model.A, dtype=np.float32)
    w = np.array(model.w, dtype=np.float32)
    rhs = np.array(model.rhs, dtype=np.float32)
    shifts = np.arange(n, dtype=np.uint32)
    best_obj = -1
    best_mask = 0
    chunk = 1 << 16
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        bits = ((masks[:, None] >> shifts) & 1).astype(np.float32)
        feasible = (bits @ A.T <= rhs).all(axis=1)
        obj = bits @ w
        obj[~feasible] = -1.0
        i = int(np.argmax(obj))
        if obj[i] > best_obj:
            best_obj = int(obj[i])
            best_mask = int(masks[i])
    x = tuple((best_mask >> j) & 1 for j in range(n))
    return Solution(
        x=x,
        objective=best_obj,
        status=OPTIMAL,
        nodes_explored=1 << n,
        wall_time=time.monotonic() - t0,
    )


class _Incumbent:
    """Monotone best-known feasible solution."""

    def __init__(self, x, objective):
        self.x = x
        self.objective = objective

    def offer(self, x, objective):
        if objective > self.objective:
            self.x = x
            self.objective = objective
            return True
        return False


_UNLISTED = object()  # a search's group until its root first branches


class _Search:
    """One depth-first branch-and-bound pass from the root, bounding with
    its own LP, whose column bounds follow the assignment trail."""

    def __init__(self, model, lp, incumbent, deadline, target=None):
        self.model = model
        self.lp = lp
        self.incumbent = incumbent
        self.deadline = deadline
        self.target = target
        self.value = [None] * model.n
        self.loads, self.guard, self.col = model.packed
        self.fixed_w = 0
        self.sum_free_w = sum(model.w)
        self.free = model.n
        self.nodes = 0
        self.timed_out = False
        self.target_hit = False
        self.group = _UNLISTED  # the node's symmetry group, None when trivial
        self.symmetry = 1  # the group's order at the root

    # -- assignment trail ---------------------------------------------

    def _set(self, j, v):
        self.value[j] = v
        self.lp.set_col(j, v, v)
        self.free -= 1
        self.sum_free_w -= self.model.w[j]
        if v:
            self.fixed_w += self.model.w[j]
            self.loads += self.col[j]

    def _unset(self, j):
        v = self.value[j]
        self.value[j] = None
        self.lp.set_col(j, 0, 1)
        self.free += 1
        self.sum_free_w += self.model.w[j]
        if v:
            self.fixed_w -= self.model.w[j]
            self.loads -= self.col[j]

    def _offer(self, x, obj):
        if self.incumbent.offer(x, obj):
            if self.target is not None and obj >= self.target:
                self.target_hit = True

    def _threshold(self):
        if self.target is not None:
            return self.target - 1
        return self.incumbent.objective

    # -- symmetry ---------------------------------------------------------

    def _root_group(self):
        """The model's symmetry, None when it has no nontrivial permutation."""
        perms = self.model.symmetry(self.deadline)
        if perms is None:
            return None
        self.symmetry = len(perms)
        return perms if len(perms) > 1 else None

    def _split(self, j):
        """The orbit of j under the node's group and the stabilizer of j."""
        if self.group is None:
            return (j,), None
        images = self.group[:, j]
        stab = self.group[images == j]
        return tuple(np.unique(images).tolist()), (stab if len(stab) > 1 else None)

    # -- node processing ------------------------------------------------

    def _eval(self, stack):
        self.nodes += 1
        if time.monotonic() > self.deadline:
            self.timed_out = True
            return
        if self.loads & self.guard:
            return
        if self.fixed_w > self.incumbent.objective:
            x = tuple(v if v else 0 for v in self.value)
            self._offer(x, self.fixed_w)
        if self.target_hit or not self.free:
            return
        threshold = self._threshold()
        if self.fixed_w + self.sum_free_w <= threshold:
            return
        bound, frac = self.lp.solve()
        if bound <= threshold:
            return
        if frac is not None:
            fracs = [
                (min(frac[j], 1.0 - frac[j]), j)
                for j in range(self.model.n)
                if self.value[j] is None
            ]
            worst, j_star = max(
                fracs, key=lambda t: (t[0], self.model.w[t[1]], -t[1])
            )
            if worst <= LP_ROUND_EPS:
                x = tuple(
                    v if v is not None else int(round(frac[j]))
                    for j, v in enumerate(self.value)
                )
                if self.model.check_feasible(x):
                    obj = self.model.objective(x)
                    self._offer(x, obj)
                    if bound <= max(threshold, obj):
                        return
                # otherwise branch: the rounding is infeasible or the
                # certified bound leaves room above it
        else:
            j_star = max(
                (j for j in range(self.model.n) if self.value[j] is None),
                key=lambda j: (self.model.w[j], -j),
            )
        if self.group is _UNLISTED:
            try:
                self.group = self._root_group()
            except BudgetExceededError:
                self.timed_out = True
                return
        orbit, stab = self._split(j_star)
        stack.extend(
            [("unset", orbit), ("set", orbit, 0, self.group), ("unset", (j_star,)), ("set", (j_star,), 1, stab)]
        )

    def run(self):
        stack = []
        self._eval(stack)
        while stack and not self.timed_out and not self.target_hit:
            op = stack.pop()
            if op[0] == "unset":
                for j in op[1]:
                    self._unset(j)
            else:
                _, js, v, self.group = op
                for j in js:
                    self._set(j, v)
                self._eval(stack)


def _shuffled(items, draws, getrandbits):
    """random.shuffle(list(items)) unrolled, with the same draws: for
    (i, i + 1, k) in `draws`, getrandbits(k) rejected until below i + 1."""
    out = list(items)
    for i, i1, k in draws:
        r = getrandbits(k)
        while r >= i1:
            r = getrandbits(k)
        out[i], out[r] = out[r], out[i]
    return out


def _greedy_fill(order, x, loads, obj, w, col, guard):
    """Insert every variable of `order` that still fits; return the new
    packed loads and objective (see `IlpModel.packed`)."""
    for j in order:
        if not x[j] and not (loads + col[j]) & guard:
            x[j] = 1
            obj += w[j]
            loads += col[j]
    return loads, obj


def _lns_phase(model, incumbent, budget, deadline, deterministic, target=None):
    """Seeded ruin-and-recreate incumbent improvement.

    Each restart grows a shuffled greedy fill, then repeatedly drops a few
    selected variables and refills in a fresh shuffled order, keeping
    non-worsening moves.  Restart and iteration counts are derived from
    the budget value alone; only non-deterministic runs also watch the
    wall clock.  The row loads are packed (`IlpModel.packed`), so a
    rejected move restores the best loads by reference.
    """
    n, w = model.n, model.w
    total = sum(w)
    if incumbent.objective >= total:
        return
    restarts = max(2, min(12, int(budget / 10) + 1))
    iters = max(2000, min(50_000, int(budget * 150)))
    base_order = sorted(range(n), key=lambda j: (-w[j], j))
    draws = [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    empty, guard, col = model.packed
    for seed in range(restarts):
        rng = random.Random(seed)
        bits = rng.getrandbits
        x = [0] * n
        loads, obj = _greedy_fill(_shuffled(base_order, draws, bits), x, empty, 0, w, col, guard)
        best_obj, best_x, best_loads = obj, x[:], loads
        incumbent.offer(tuple(x), obj)
        if target is not None and incumbent.objective >= target:
            return
        for it in range(iters):
            if not deterministic and time.monotonic() > deadline:
                return
            sel = list(compress(range(n), x))
            if not sel:
                break
            for j in rng.sample(sel, min(3 + it % 6, len(sel))):
                x[j] = 0
                obj -= w[j]
                loads -= col[j]
            loads, obj = _greedy_fill(_shuffled(base_order, draws, bits), x, loads, obj, w, col, guard)
            if obj < best_obj:
                x, loads, obj = best_x[:], best_loads, best_obj
                continue
            best_x, best_loads = x[:], loads
            if obj > best_obj:
                best_obj = obj
                incumbent.offer(tuple(x), obj)
                if target is not None and incumbent.objective >= target:
                    return
                if obj >= total:
                    return


def _initial_incumbent(model, budget, deadline, deterministic, root_bound, target=None):
    warm = greedy_warm_start(model)
    incumbent = _Incumbent(warm.x, warm.objective)
    if target is not None and incumbent.objective >= target:
        return incumbent
    if incumbent.objective >= root_bound:
        return incumbent
    _lns_phase(model, incumbent, budget, deadline, deterministic, target=target)
    return incumbent


def _solve(model, budget, deterministic, target=None):
    """The body of solve_max (target None) and solve_feasible."""
    t0 = time.monotonic()

    def done(x, objective, status, nodes, symmetry=1):
        wall = time.monotonic() - t0
        return Solution(x=x, objective=objective, status=status, nodes_explored=nodes, wall_time=wall, symmetry=symmetry)

    if target is not None and target <= 0:
        return done((0,) * model.n, 0, FEASIBLE_FOUND, 0)
    deadline = t0 + budget
    lp = _Lp(model)
    root_bound, _ = lp.solve(time_limit=deadline - time.monotonic())
    if target is not None and root_bound < target:
        return done((0,) * model.n, 0, PROVED_INFEASIBLE, 1)
    incumbent = _initial_incumbent(model, budget, deadline, deterministic, root_bound, target=target)
    if target is not None and incumbent.objective >= target:
        return done(incumbent.x, incumbent.objective, FEASIBLE_FOUND, 0)
    if incumbent.objective >= root_bound:  # with a target, root_bound >= target > incumbent
        return done(incumbent.x, incumbent.objective, OPTIMAL, 1)
    search = _Search(model, lp, incumbent, deadline, target=target)
    search.run()
    if search.target_hit:
        status = FEASIBLE_FOUND
    elif search.timed_out:
        status = TIMEOUT
    else:
        status = OPTIMAL if target is None else PROVED_INFEASIBLE
    return done(incumbent.x, incumbent.objective, status, search.nodes, search.symmetry)


def solve_max(
    model: IlpModel,
    budget: float = 60.0,
    threads: int = 1,
    deterministic: bool = True,
) -> Solution:
    """Branch and bound to a proven optimum within the time budget.

    Returns status Optimal when the search tree is exhausted, otherwise
    Timeout carrying the best incumbent found.  A solve is one
    single-threaded search, so `threads` must be 1; the keyword is kept
    because callers, the benchmark among them, pass threads=1.
    """
    if threads != 1:
        raise ValueError(f"threads={threads}: a solve runs one single-threaded search")
    return _solve(model, budget, deterministic)


def solve_feasible(model: IlpModel, target: int, budget: float = 60.0) -> Solution:
    """Search for any feasible x with w.x >= target.

    FeasibleFound as soon as the incumbent reaches the target,
    ProvedInfeasible when the exhausted search shows the maximum is below
    it, Timeout otherwise.
    """
    return _solve(model, budget, False, target=target)
