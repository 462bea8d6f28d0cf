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
iteration counts depend only on the budget value, so deterministic runs
replay bit-identically.  A chunked exhaustive oracle covers tiny
instances.  Budget exhaustion is reported as a Timeout status, never an
error.  The optional thread pool only shares a monotone incumbent.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from itertools import product

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
        # column supports: per variable, the rows it loads and by how much
        self.col_support = tuple(
            tuple((i, self.A[i][j]) for i in range(self.m) if self.A[i][j])
            for j in range(self.n)
        )

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

    def solve(self):
        """(bound, x): a certified integer upper bound over all completions
        of the current fixing, and the LP point.  When HiGHS does not report
        an optimum, the bound is the weight of everything not fixed to 0 and
        x is None."""
        self.highs.run()
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
    n, m = model.n, model.m
    x = [0] * n
    loads = [0] * m

    def fits(j, skip=None):
        for i, a in model.col_support[j]:
            load = loads[i] + a
            if skip is not None:
                load -= model.A[i][skip]
            if load > model.rhs[i]:
                return False
        return True

    def insert(j):
        x[j] = 1
        for i, a in model.col_support[j]:
            loads[i] += a

    def remove(j):
        x[j] = 0
        for i, a in model.col_support[j]:
            loads[i] -= a

    for j in sorted(range(n), key=lambda j: (-model.w[j], j)):
        if fits(j):
            insert(j)

    improved = True
    while improved:
        improved = False
        for j in range(n):
            if not x[j] and fits(j):
                insert(j)
                improved = True
        for jout in range(n):
            if not x[jout]:
                continue
            for jin in range(n):
                if x[jin] or model.w[jin] <= model.w[jout]:
                    continue
                if fits(jin, skip=jout):
                    remove(jout)
                    insert(jin)
                    improved = True
                    break
            if improved:
                break

    xt = tuple(x)
    assert model.check_feasible(xt)
    return Solution(
        x=xt,
        objective=model.objective(xt),
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
    """Monotone best-known feasible solution, shared across workers."""

    def __init__(self, x, objective):
        self.x = x
        self.objective = objective
        self._lock = threading.Lock()

    def offer(self, x, objective):
        if objective > self.objective:
            with self._lock:
                if objective > self.objective:
                    self.x = x
                    self.objective = objective
                    return True
        return False


class _Search:
    """One depth-first branch-and-bound pass over a subtree, bounding with
    its own LP, whose column bounds follow the assignment trail."""

    def __init__(self, model, lp, incumbent, deadline, target=None):
        self.model = model
        self.lp = lp
        self.incumbent = incumbent
        self.deadline = deadline
        self.target = target
        self.value = [None] * model.n
        self.loads = [0] * model.m
        self.fixed_w = 0
        self.sum_free_w = sum(model.w)
        self.free = model.n
        self.violations = 0
        self.nodes = 0
        self.timed_out = False
        self.target_hit = False

    # -- assignment trail ---------------------------------------------

    def _set(self, j, v):
        self.value[j] = v
        self.lp.set_col(j, v, v)
        self.free -= 1
        self.sum_free_w -= self.model.w[j]
        if v:
            self.fixed_w += self.model.w[j]
            for i, a in self.model.col_support[j]:
                if self.loads[i] <= self.model.rhs[i] < self.loads[i] + a:
                    self.violations += 1
                self.loads[i] += a

    def _unset(self, j):
        v = self.value[j]
        self.value[j] = None
        self.lp.set_col(j, 0, 1)
        self.free += 1
        self.sum_free_w += self.model.w[j]
        if v:
            self.fixed_w -= self.model.w[j]
            for i, a in self.model.col_support[j]:
                self.loads[i] -= a
                if self.loads[i] <= self.model.rhs[i] < self.loads[i] + a:
                    self.violations -= 1

    def _offer(self, x, obj):
        if self.incumbent.offer(x, obj):
            if self.target is not None and obj >= self.target:
                self.target_hit = True

    def _threshold(self):
        if self.target is not None:
            return self.target - 1
        return self.incumbent.objective

    # -- node processing ------------------------------------------------

    def _eval(self, stack):
        self.nodes += 1
        if time.monotonic() > self.deadline:
            self.timed_out = True
            return
        if self.violations:
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
        stack.extend(
            [("unset", j_star), ("set", j_star, 0), ("unset", j_star), ("set", j_star, 1)]
        )

    def run(self, prefix=()):
        for j, v in prefix:
            self._set(j, v)
        if self.violations:
            return
        stack = []
        self._eval(stack)
        while stack and not self.timed_out and not self.target_hit:
            op = stack.pop()
            if op[0] == "unset":
                self._unset(op[1])
            else:
                self._set(op[1], op[2])
                self._eval(stack)


def _greedy_fill(model, x, loads, order):
    for j in order:
        if not x[j]:
            ok = True
            for i, a in model.col_support[j]:
                if loads[i] + a > model.rhs[i]:
                    ok = False
                    break
            if ok:
                x[j] = 1
                for i, a in model.col_support[j]:
                    loads[i] += a


def _lns_phase(model, incumbent, budget, deadline, deterministic, target=None):
    """Seeded ruin-and-recreate incumbent improvement.

    Each restart grows a shuffled greedy fill, then repeatedly drops a few
    selected variables and refills in a fresh shuffled order, keeping
    non-worsening moves.  Restart and iteration counts are derived from
    the budget value alone; only non-deterministic runs also watch the
    wall clock.
    """
    n = model.n
    total = sum(model.w)
    if incumbent.objective >= total:
        return
    restarts = max(2, min(12, int(budget / 10) + 1))
    iters = max(2000, min(50_000, int(budget * 150)))
    base_order = sorted(range(n), key=lambda j: (-model.w[j], j))
    for seed in range(restarts):
        rng = random.Random(seed)
        x = [0] * n
        loads = [0] * model.m
        order = list(base_order)
        rng.shuffle(order)
        _greedy_fill(model, x, loads, order)
        best_obj = sum(model.w[j] for j in range(n) if x[j])
        best_x = list(x)
        incumbent.offer(tuple(best_x), best_obj)
        if target is not None and incumbent.objective >= target:
            return
        for it in range(iters):
            if not deterministic and time.monotonic() > deadline:
                return
            sel = [j for j in range(n) if x[j]]
            if not sel:
                break
            out = rng.sample(sel, min(3 + it % 6, len(sel)))
            for j in out:
                x[j] = 0
                for i, a in model.col_support[j]:
                    loads[i] -= a
            order = list(base_order)
            rng.shuffle(order)
            _greedy_fill(model, x, loads, order)
            obj = sum(model.w[j] for j in range(n) if x[j])
            if obj >= best_obj:
                if obj > best_obj:
                    best_obj = obj
                    best_x = list(x)
                    incumbent.offer(tuple(best_x), best_obj)
                    if target is not None and incumbent.objective >= target:
                        return
                    if best_obj >= total:
                        return
                else:
                    best_x = list(x)
            else:
                x = list(best_x)
                loads = [0] * model.m
                for j in range(n):
                    if x[j]:
                        for i, a in model.col_support[j]:
                            loads[i] += a


def _initial_incumbent(model, budget, deadline, deterministic, root_bound, target=None):
    warm = greedy_warm_start(model)
    incumbent = _Incumbent(warm.x, warm.objective)
    if target is not None and incumbent.objective >= target:
        return incumbent
    if incumbent.objective >= root_bound:
        return incumbent
    _lns_phase(model, incumbent, budget, deadline, deterministic, target=target)
    return incumbent


def solve_max(
    model: IlpModel,
    budget: float = 60.0,
    threads: int = 1,
    deterministic: bool = True,
) -> Solution:
    """Branch and bound to a proven optimum within the time budget.

    Returns status Optimal when the search tree is exhausted, otherwise
    Timeout carrying the best incumbent found.
    """
    t0 = time.monotonic()
    deadline = t0 + budget
    if deterministic:
        threads = 1
    lp = _Lp(model)
    root_bound, root_x = lp.solve()
    incumbent = _initial_incumbent(model, budget, deadline, deterministic, root_bound)
    if incumbent.objective >= root_bound:
        return Solution(
            x=incumbent.x,
            objective=incumbent.objective,
            status=OPTIMAL,
            nodes_explored=1,
            wall_time=time.monotonic() - t0,
        )
    if threads <= 1:
        search = _Search(model, lp, incumbent, deadline)
        search.run()
        nodes = search.nodes
        timed_out = search.timed_out
    else:
        nodes, timed_out = _parallel_max(model, root_x, incumbent, deadline, threads)
    return Solution(
        x=incumbent.x,
        objective=incumbent.objective,
        status=TIMEOUT if timed_out else OPTIMAL,
        nodes_explored=nodes,
        wall_time=time.monotonic() - t0,
    )


def _parallel_max(model, frac, incumbent, deadline, threads):
    depth = max(1, min(model.n, (2 * threads - 1).bit_length()))
    if frac is not None:
        ranked = sorted(
            range(model.n),
            key=lambda j: (-min(frac[j], 1.0 - frac[j]), -model.w[j], j),
        )
    else:
        ranked = sorted(range(model.n), key=lambda j: (-model.w[j], j))
    split_vars = ranked[:depth]
    searches = []
    jobs = []
    for assignment in product((1, 0), repeat=len(split_vars)):
        prefix = tuple(zip(split_vars, assignment))
        s = _Search(model, _Lp(model), incumbent, deadline)
        searches.append(s)
        jobs.append((s, prefix))
    threads_list = []
    queue = list(jobs)
    qlock = threading.Lock()

    def worker():
        while True:
            with qlock:
                if not queue:
                    return
                s, prefix = queue.pop(0)
            s.run(prefix)

    for _ in range(threads):
        t = threading.Thread(target=worker)
        t.start()
        threads_list.append(t)
    for t in threads_list:
        t.join()
    nodes = sum(s.nodes for s in searches)
    timed_out = any(s.timed_out for s in searches)
    return nodes, timed_out


def solve_feasible(model: IlpModel, target: int, budget: float = 60.0) -> Solution:
    """Search for any feasible x with w.x >= target.

    FeasibleFound as soon as the incumbent reaches the target,
    ProvedInfeasible when the exhausted search shows the maximum is below
    it, Timeout otherwise.
    """
    t0 = time.monotonic()
    if target <= 0:
        return Solution(x=(0,) * model.n, objective=0, status=FEASIBLE_FOUND, wall_time=0.0)
    deadline = t0 + budget
    lp = _Lp(model)
    root_bound, _ = lp.solve()
    if root_bound < target:
        return Solution(
            x=(0,) * model.n,
            objective=0,
            status=PROVED_INFEASIBLE,
            nodes_explored=1,
            wall_time=time.monotonic() - t0,
        )
    incumbent = _initial_incumbent(model, budget, deadline, True, root_bound, target=target)
    if incumbent.objective >= target:
        return Solution(
            x=incumbent.x,
            objective=incumbent.objective,
            status=FEASIBLE_FOUND,
            wall_time=time.monotonic() - t0,
        )
    search = _Search(model, lp, incumbent, deadline, target=target)
    search.run()
    if search.target_hit:
        status = FEASIBLE_FOUND
    elif search.timed_out:
        status = TIMEOUT
    else:
        status = PROVED_INFEASIBLE
    return Solution(
        x=incumbent.x,
        objective=incumbent.objective,
        status=status,
        nodes_explored=search.nodes,
        wall_time=time.monotonic() - t0,
    )
