"""Exact and budgeted 0/1 maximization of w.x subject to A.x <= r.

Depth-first branch and bound, 1-branch first, with most-fractional
branching.  Each search keeps one HiGHS LP relaxation, and a node is
held once, as that LP's column bounds: the fixings are `lo` and `hi`,
they change along one trail of fixed variables (undone last fixed,
first freed, right before the next fixing), and the node's weight
bounds are w.lo and w.hi.  So every node re-solves warm from the
previous basis.  No node is pruned on a float: an LP bound is the
integer safe bound of Neumaier and Shcherbina (Math. Prog. 99, 2004),
computed in int64 from the scaled, floored row duals (the weights sum
below 2**(63 - CERT_BITS), so it cannot wrap), and infeasible fixings
are caught by integer row loads.  When HiGHS reports no optimum the node
branches on its heaviest free variable.  Incumbents come from a
descending-weight greedy warm start and a seeded ruin-and-recreate phase
(LNS) whose restart and iteration counts depend only on the budget
value.  Its moves are frozen (a test pins the incumbents it offers).
The greedy start, the search and the LNS share one representation of the
row loads, a packed integer (`IlpModel.packed`), so trying a variable is
one addition and one mask.

The LNS runs in step with the search: before each node it makes ell
moves (ell = model.n).  A node re-solves an LP over ell columns and a
move refills up to ell variables, so neither side starves the other.
The solve ends when the search ends; the moves left over are dropped,
and a search that outlasts the schedule goes on alone.  solve_max and
solve_feasible share one body and run one single-threaded search from
the root.  A chunked exhaustive oracle covers tiny instances.

A solve stops by two rules, each decided in one place.  The target: the
incumbent that the search and the LNS share holds it and says when it
is reached (`hit`); either side stops there, so an LNS witness stops the
search at its next node.  A target search prunes on target - 1, so its
nodes do not depend on the LNS; a max search prunes on the incumbent,
which holds only feasible points.  The deadline: one time, computed once
per solve, that every part of it stops on.  A search node past it raises
BudgetExceededError, as does the normalizer listing, and the body turns
that one exception into a Timeout status, never an error.  The LNS
returns at it, and every LP, the root's and each node's alike, is cut
there and counts as no optimum.  A solve that ends within its budget
reaches none of these, so it replays bit-identically.

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
and no witness.  The list is built when the root branches, so a search
that never branches reports symmetry 1.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from itertools import compress, islice

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
    """max w.x, A.x <= r, x in {0,1}^n, A square, all data nonnegative integers
    and w summing below 2**(63 - CERT_BITS), so that the LP's int64
    certificate cannot wrap.  A is the system's read-only int64 array,
    shared with the LP, not copied."""

    def __init__(self, system: CondensedSystem):
        self.system = system
        self.n = system.ell
        self.w = tuple(system.w)
        self.A = np.asarray(system.A, dtype=np.int64)
        self.r = system.r
        if self.A.shape != (self.n, self.n):
            raise ValueError("constraint matrix is not ell x ell")
        if (self.A < 0).any() or any(v < 0 for v in self.w):
            raise ValueError("model data must be nonnegative")
        total = sum(self.w)
        if total >= 1 << (63 - CERT_BITS):
            raise ValueError(
                f"the weights sum to {total}, not below 2**{63 - CERT_BITS}: "
                f"the LP certificate scales them by 2**{CERT_BITS} in int64"
            )
        self._symmetry = system.normalizer  # the listing, until a call completes it

    def symmetry(self, deadline=float("inf")):
        """The variable permutations the group's normalizer induces, as an
        int16 array with one row per distinct permutation, or None when the
        system carries no group or too large a normalizer.  Listed by the
        first call that ends by the deadline; a call past it raises
        BudgetExceededError and leaves the listing to the next."""
        if callable(self._symmetry):
            found = self._symmetry(deadline)
            self._symmetry = None if found is None else found[1]
        return self._symmetry

    @functools.cached_property
    def packed(self):
        """(empty, guard, col): the row loads as one integer, b bits per
        row, each row offset so that its top bit is set exactly when the
        load exceeds r.  `empty` is the load of no selection, `guard`
        holds the top bits and col[j] is column j, so x_j fits when
        (loads + col[j]) & guard is 0, and inserting or dropping it is one
        addition.  Built on first use, a column as one base-2 string of its
        b-bit fields, so setting up a model does not pay.

        No field ever carries into the next one: b - 1 bits hold r,
        and a b-bit field holds a full row plus one coefficient.  A search
        node fixes at most one variable to 1 and is pruned at once if that
        overflows; the greedy pass and the LNS insert only variables that fit.
        """
        b = max(self.r, int(self.A.max())).bit_length() + 1
        half = 1 << (b - 1)
        ones = sum(1 << (b * i) for i in range(self.n))
        guard, empty = half * ones, (half - 1 - self.r) * ones
        fields = [format(v, f"0{b}b") for v in range(half)]
        col = [int("".join(map(fields.__getitem__, column)), 2) for column in self.A[::-1].T.tolist()]
        return empty, guard, col

    def check_feasible(self, x) -> bool:
        return bool((self.A @ np.asarray(x) <= self.r).all())

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
    starts from the previous basis, and stops it at `deadline` (a
    time.monotonic() value; none by default).  Every bound it returns is
    certified in integers from the row duals (see `_certify`), so float
    error can only weaken it.
    """

    def __init__(self, model: IlpModel, deadline=float("inf")):
        n, r = model.n, model.r
        self.A = model.A
        self.r = r
        self.w = np.array(model.w, dtype=np.int64)
        self.w_scaled = self.w << CERT_BITS
        rows, cols = np.nonzero(self.A)
        self.deadline = deadline
        self.highs = h = _highs._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        h.setOptionValue("primal_feasibility_tolerance", LP_TOL)
        h.setOptionValue("dual_feasibility_tolerance", LP_TOL)
        status = h.passModel(
            n, n, len(rows), int(_highs.MatrixFormat.kRowwise), int(_highs.ObjSense.kMinimize), 0.0,
            -np.array(model.w, dtype=np.float64), np.zeros(n), np.ones(n),
            np.full(n, -_highs.kHighsInf), np.full(n, float(r)),
            np.searchsorted(rows, np.arange(n)).astype(np.int32), cols.astype(np.int32),
            self.A[rows, cols].astype(np.float64), np.zeros(n, dtype=np.int32),
        )
        if status == _highs.HighsStatus.kError:
            raise ValueError("HiGHS rejected the LP relaxation")
        self.lo = np.zeros(n, dtype=np.int64)
        self.hi = np.ones(n, dtype=np.int64)
        # scaled multipliers stay below this, so no int64 sum can overflow
        self.y_max = float(2**62 // (1 + int(self.A.sum()) + n * r))

    def set_col(self, j, lo, hi):
        self.lo[j], self.hi[j] = lo, hi
        self.highs.changeColBounds(j, float(lo), float(hi))

    def _certify(self, row_dual) -> int:
        """Neumaier-Shcherbina safe bound: with S = 2**CERT_BITS, any
        integer y >= 0 and d = S.w - y.A, every feasible completion has
        S.w.x = y.A.x + d.x <= r.sum_i(y_i) + sum_j max(lo_j d_j, hi_j d_j)."""
        y = np.fmin(np.fmax(-np.asarray(row_dual), 0.0) * (1 << CERT_BITS), self.y_max)
        y = np.floor(y).astype(np.int64)
        d = self.w_scaled - y @ self.A
        total = self.r * int(y.sum()) + int(np.maximum(self.lo * d, self.hi * d).sum())
        return total >> CERT_BITS

    def solve(self):
        """(bound, x): a certified integer upper bound over all completions
        of the current fixing, and the LP point.  When HiGHS does not report
        an optimum before the deadline, the bound is the weight of
        everything not fixed to 0 and x is None.

        HiGHS holds its time_limit against a run clock that sums every run
        of the object, so the limit is that clock plus the time left."""
        left = max(self.deadline - time.monotonic(), 0.0)
        self.highs.setOptionValue("time_limit", self.highs.getRunTime() + left)
        self.highs.run()
        if self.highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
            return int(self.w @ self.hi), None
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
    if not model.check_feasible(lp.lo):
        return float("-inf")
    return lp.solve()[0]


def greedy_warm_start(model: IlpModel) -> Solution:
    """Feasible start: insert every variable that still fits, in
    descending weight."""
    t0 = time.monotonic()
    n, w = model.n, model.w
    empty, guard, col = model.packed
    x = [0] * n
    _, obj = _greedy_fill(sorted(range(n), key=lambda j: (-w[j], j)), x, empty, 0, w, col, guard)
    xt = tuple(x)
    assert model.check_feasible(xt)
    return Solution(x=xt, objective=obj, status=FEASIBLE_FOUND, wall_time=time.monotonic() - t0)


def exhaustive_oracle(model: IlpModel) -> Solution:
    """Exact optimum by enumerating all 2^n selections (n <= 25)."""
    t0 = time.monotonic()
    n = model.n
    if n > ORACLE_MAX_VARS:
        raise BudgetExceededError(f"exhaustive oracle limited to {ORACLE_MAX_VARS} variables, got {n}")
    A = model.A.astype(np.float32)
    w = np.array(model.w, dtype=np.float32)
    shifts = np.arange(n, dtype=np.uint32)
    best_obj = -1
    best_mask = 0
    chunk = 1 << 16
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        bits = ((masks[:, None] >> shifts) & 1).astype(np.float32)
        feasible = (bits @ A.T <= model.r).all(axis=1)
        obj = bits @ w
        obj[~feasible] = -1.0
        i = int(np.argmax(obj))
        if obj[i] > best_obj:
            best_obj = int(obj[i])
            best_mask = int(masks[i])
    x = tuple((best_mask >> j) & 1 for j in range(n))
    return Solution(x=x, objective=best_obj, status=OPTIMAL, nodes_explored=1 << n, wall_time=time.monotonic() - t0)


class _Incumbent:
    """Monotone best-known feasible solution, shared by the search and the
    LNS, and the solve's target (None for a maximization)."""

    def __init__(self, x, objective, target=None):
        self.x = x
        self.objective = objective
        self.target = target

    @property
    def hit(self):
        """Whether the objective has reached the target."""
        return self.target is not None and self.objective >= self.target

    @property
    def threshold(self):
        """The bound at or below which a node is pruned: target - 1, so
        that a target search's nodes do not depend on the LNS, else the
        objective."""
        return self.objective if self.target is None else self.target - 1

    def offer(self, x, objective):
        if objective > self.objective:
            self.x = x
            self.objective = objective
            return True
        return False


def _split(group, j):
    """The orbit of j under `group` and the stabilizer of j, None when
    trivial."""
    if group is None:
        return (j,), None
    images = group[:, j]
    stab = group[images == j]
    return tuple(np.unique(images).tolist()), (stab if len(stab) > 1 else None)


class _Search:
    """One depth-first branch-and-bound pass from the root, bounding with
    its own LP.  A node is held once, in the LP's column bounds: `lp.lo`
    and `lp.hi` are its fixings, `trail` lists the fixed variables in the
    order they were fixed, and the packed loads follow the trail.  A stack
    entry (depth, variables, value, group) is a child: taking it frees
    every variable fixed since the trail was `depth` long, last fixed
    first, then fixes `variables` to `value`; `group` is the child's."""

    def __init__(self, model, lp, incumbent):
        self.model = model
        self.lp = lp
        self.incumbent = incumbent
        self.loads, self.guard, self.col = model.packed
        self.trail = []
        self.nodes = 0
        self.symmetry = 1  # the order of the root's group

    def _fix(self, depth, variables=(), value=0):
        lp = self.lp
        while len(self.trail) > depth:
            j = self.trail.pop()
            if lp.lo[j]:
                self.loads -= self.col[j]
            lp.set_col(j, 0, 1)
        for j in variables:
            lp.set_col(j, value, value)
            if value:
                self.loads += self.col[j]
        self.trail += variables

    def _eval(self, stack, lns, group):
        model, lp, incumbent = self.model, self.lp, self.incumbent
        next(islice(lns, model.n, model.n), None)  # ell LNS moves
        if incumbent.hit:  # the LNS reached the target
            return
        self.nodes += 1
        if time.monotonic() > lp.deadline:
            raise BudgetExceededError("deadline passed in the search")
        if self.loads & self.guard:
            return
        fixed_w = int(lp.w @ lp.lo)
        if fixed_w > incumbent.objective:
            incumbent.offer(tuple(lp.lo.tolist()), fixed_w)
            if incumbent.hit:
                return
        threshold = incumbent.threshold
        if int(lp.w @ lp.hi) <= threshold:
            return
        bound, frac = lp.solve()
        if bound <= threshold:
            return
        free = (lp.lo < lp.hi).nonzero()[0].tolist()
        if frac is not None:
            worst, j_star = max(
                [(min(frac[j], 1.0 - frac[j]), j) for j in free], key=lambda t: (t[0], model.w[t[1]], -t[1])
            )
            if worst <= LP_ROUND_EPS:
                x = lp.lo.tolist()
                for j in free:
                    x[j] = int(round(frac[j]))
                if model.check_feasible(x):
                    obj = model.objective(x)
                    incumbent.offer(tuple(x), obj)
                    if bound <= max(threshold, obj):
                        return
                # otherwise branch: the rounding is infeasible or the
                # certified bound leaves room above it
        else:
            j_star = max(free, key=lambda j: (model.w[j], -j))
        if not self.trail:  # the root lists the model's group when it first branches
            perms = model.symmetry(lp.deadline)  # BudgetExceededError past it
            if perms is not None:
                self.symmetry = len(perms)
                group = perms if len(perms) > 1 else None
        orbit, stab = _split(group, j_star)
        depth = len(self.trail)
        stack += (depth, orbit, 0, group), (depth, (j_star,), 1, stab)

    def run(self, lns=()):
        """Search until the tree is exhausted or the incumbent hits its
        target, advancing the iterator `lns` by ell steps before each node,
        then free the LP; BudgetExceededError once a node is past the
        deadline."""
        stack = []
        self._eval(stack, lns, None)
        while stack and not self.incumbent.hit:
            depth, variables, value, group = stack.pop()
            self._fix(depth, variables, value)
            self._eval(stack, lns, group)
        self._fix(0)


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


def _lns_phase(model, incumbent, budget, deadline):
    """Seeded ruin-and-recreate incumbent improvement, a generator that
    yields before each move, so that a search can run it in step.

    Each restart grows a shuffled greedy fill, then repeatedly drops a few
    selected variables and refills in a fresh shuffled order, keeping
    non-worsening moves.  Restart and iteration counts are derived from
    the budget value alone; the wall clock only stops the phase at the
    deadline.  It also stops when the incumbent hits its target.  The row
    loads are packed (`IlpModel.packed`), so a rejected move restores the
    best loads by reference.
    """
    n, w = model.n, model.w
    total = sum(w)
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
        if incumbent.hit:
            return
        for it in range(iters):
            yield
            if time.monotonic() > deadline:
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
                if incumbent.hit or obj >= total:
                    return


def _solve(model, budget, target=None):
    """The body of solve_max (target None) and solve_feasible."""
    if not math.isfinite(budget):
        raise ValueError(f"budget={budget}: the budget must be a finite number of seconds")
    t0 = time.monotonic()

    def done(x, objective, status, nodes, symmetry=1):
        wall = time.monotonic() - t0
        return Solution(x=x, objective=objective, status=status, nodes_explored=nodes, wall_time=wall, symmetry=symmetry)

    if target is not None and target <= 0:
        return done((0,) * model.n, 0, FEASIBLE_FOUND, 0)
    deadline = t0 + budget
    lp = _Lp(model, deadline)
    root_bound, _ = lp.solve()
    if target is not None and root_bound < target:
        return done((0,) * model.n, 0, PROVED_INFEASIBLE, 1)
    warm = greedy_warm_start(model)
    incumbent = _Incumbent(warm.x, warm.objective, target)
    if incumbent.hit:
        return done(incumbent.x, incumbent.objective, FEASIBLE_FOUND, 0)
    if incumbent.objective >= root_bound:  # with a target, root_bound >= target > incumbent
        return done(incumbent.x, incumbent.objective, OPTIMAL, 1)
    search = _Search(model, lp, incumbent)
    try:
        search.run(_lns_phase(model, incumbent, budget, deadline))
        status = OPTIMAL if target is None else PROVED_INFEASIBLE
    except BudgetExceededError:
        status = TIMEOUT
    if incumbent.hit:  # a rounded witness can precede a late root-group listing
        status = FEASIBLE_FOUND
    return done(incumbent.x, incumbent.objective, status, search.nodes, search.symmetry)


def solve_max(
    model: IlpModel,
    budget: float = 60.0,
    threads: int = 1,
) -> Solution:
    """Branch and bound to a proven optimum within the time budget.

    Returns status Optimal when the search tree is exhausted, otherwise
    Timeout carrying the best incumbent found.  A solve is one
    single-threaded search, so `threads` must be 1; the keyword is kept
    because callers, the benchmark among them, pass threads=1.
    """
    if threads != 1:
        raise ValueError(f"threads={threads}: a solve runs one single-threaded search")
    return _solve(model, budget)


def solve_feasible(model: IlpModel, target: int, budget: float = 60.0) -> Solution:
    """Search for any feasible x with w.x >= target.

    FeasibleFound as soon as the incumbent reaches the target,
    ProvedInfeasible when the exhausted search shows the maximum is below
    it, Timeout otherwise.
    """
    return _solve(model, budget, target=target)
