"""Cyclic subgroups of PGL(3,q) for prime q, up to conjugacy, and the
automorphism-exclusion sweep.

Conjugacy is decided by one batched rule over an (N, 3, 3) array of
residues mod p (_label_codes).  A non-scalar m satisfies at most one
monic quadratic x^2 + b1 x + b0: b1 = -m^2[r][s]/m[r][s] and b0 =
-(m^2[r][r] + b1 m[r][r]) at the first nonzero off-diagonal m[r][s] in
the order (0,1), (0,2), (1,0), (1,2), (2,0), (2,1), or (x - a)(x - b)
for two different diagonal entries a, b.  If m^2 + b1 m + b0 I = 0 the
invariant factors (the GL label) are x + c2 - b1 and that quadratic, c2
the x^2 coefficient of the characteristic polynomial, else that
polynomial alone; a scalar a gives x - a three times.  A label is coded
as one integer, shape.p^3 plus its free coefficients read as base-p
digits, so within a shape integer order is tuple order.  Conjugate in
PGL means some scalar multiple lam.m has a conjugate label, and lam
scales coefficient i of a degree-d factor by lam^(d-i), so the PGL label
is the least code over lam.  One representative per GL class comes from
the rational-form families, and one per PGL label is a transversal of
the classes of PGL(3,q).  The sweep condenses the plane by each <g>,
asks the solver whether a selection reaches n points, and checks any
witness as an (n,r)-arc.  The call that labels the coprime powers of
each generator g also labels g^(m/d) for each prime d < m dividing its
order m, so a class carries its prime-order subgroups' signatures, and
is excluded without a solve, the solved class in `implied_by`, when one
of them or its own is an excluded class's.  A checkpoint file is keyed
by q, r and n; one with another key is refused, never overwritten.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .arcs import Arc, verify_arc
from .condense import condense, expand_solution
from .errors import BudgetExceededError
from .geometry import build_plane
from .gf import Field, is_prime
from .group import GroupElement, closure, format_group_file, make_element, orbits
from .solver import FEASIBLE_FOUND, PROVED_INFEASIBLE, TIMEOUT, IlpModel, solve_feasible

__all__ = [
    "ConjClassRep",
    "ExclusionReport",
    "enumerate_cyclic_classes",
    "format_class_list",
    "gl3_class_representatives",
    "run_exclusion",
    "subgroup_class_count",
]

ENUMERATION_MAX_P = 13
STATUSES = (PROVED_INFEASIBLE, FEASIBLE_FOUND, TIMEOUT, "Skipped")  # the statuses of a class record

VERDICT_RIGID = "RigidOrNonexistent"
VERDICT_LISTED = "RigidOrListedGroups"
VERDICT_INCONCLUSIVE = "Inconclusive"


_ROWS, _COLS = np.array(((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))).T  # off-diagonal search order
_CYCLIC, _SPLIT, _SCALAR = range(3)  # label shapes: a cubic; linear and quadratic; three linear


def _label_codes(p: int, m):
    """The GL and the PGL label code of each matrix of an (N, 3, 3) int64
    array of residues mod p, as two (N,) int64 arrays: the module's rule."""
    at = np.arange(len(m))
    m2 = m @ m % p
    first = np.full(len(m), 6)  # 6: diagonal
    for k in range(5, -1, -1):
        first = np.where(m[:, _ROWS[k], _COLS[k]] != 0, k, first)
    r, s = _ROWS[first % 6], _COLS[first % 6]
    (x, y, z), (u, v, w), (g, h, i) = m[:, 0].T, m[:, 1].T, m[:, 2].T
    b = np.where(v != x, v, i)
    inverse = np.array([0] + [pow(t, p - 2, p) for t in range(1, p)])
    b1 = np.where(first < 6, -m2[at, r, s] * inverse[m[at, r, s]], -(x + b)) % p
    b0 = np.where(first < 6, -(m2[at, r, r] + b1 * m[at, r, r]), x * b) % p
    quadratic = ~((m2 + b1[:, None, None] * m + b0[:, None, None] * np.eye(3, dtype=np.int64)) % p).any(axis=(1, 2))
    shape = np.where((first == 6) & (x == b), _SCALAR, np.where(quadratic, _SPLIT, _CYCLIC))
    trace, det = x + v + i, x * (v * i - w * h) - y * (u * i - w * g) + z * (u * h - v * g)
    cubic = [-det, v * i - w * h + x * i - z * g + x * v - y * u, -trace]
    split, scalar = np.stack([-trace - b1, b0, b1]), np.stack([-x, 0 * x, 0 * x])
    c = np.select([shape == _CYCLIC, shape == _SPLIT], [np.stack(cubic), split], scalar) % p
    lam = np.array([[pow(t, k, p) for t in range(1, p)] for k in range(4)])  # lam^k, lam = 1 .. p-1
    lead = c[0][:, None] * lam[np.where(shape == _CYCLIC, 3, 1)] % p
    least = ((lead * p + c[1][:, None] * lam[2] % p) * p + c[2][:, None] * lam[1] % p).min(axis=1)
    return shape * p**3 + (c[0] * p + c[1]) * p + c[2], shape * p**3 + least


def _label(p: int, code: int):
    """The label, a tuple of coefficient tuples of Python ints, that a code stands for."""
    shape, digits = divmod(code, p**3)
    c0, c1, c2 = digits // (p * p), digits // p % p, digits % p
    if shape == _CYCLIC:
        return ((c0, c1, c2, 1),)
    return ((c0, 1), (c1, c2, 1)) if shape == _SPLIT else ((c0, 1),) * 3


def gl3_class_representatives(p: int):
    """Exactly one matrix per conjugacy class of GL(3,p).

    Rational-form families: the companion matrix of every monic cubic
    with nonzero constant term (the cyclic classes), a 1x1 eigenvalue
    block a next to the companion of (x-a)(x-b) for nonzero a, b, and the
    scalars.
    """
    if p > 31:
        raise ValueError(f"p={p} out of supported range (<= 31)")
    spec = Field(p)
    neg, mul, add = spec.neg_t, spec.mul_t, spec.add_t
    reps = []
    for c0 in range(1, p):
        for c1 in range(p):
            for c2 in range(p):
                reps.append(((0, 0, neg[c0]), (1, 0, neg[c1]), (0, 1, neg[c2])))
    for a in range(1, p):
        for b in range(1, p):
            reps.append(((a, 0, 0), (0, 0, neg[mul[a][b]]), (0, 1, add[a][b])))
    for a in range(1, p):
        reps.append(((a, 0, 0), (0, a, 0), (0, 0, a)))
    assert len(reps) == p**3 - p
    return reps


@dataclass(frozen=True)
class ConjClassRep:
    """One conjugacy class of PGL(3,q): a generator, its projective order,
    its projective label, the signature of the generated cyclic subgroup
    (labels of all coprime powers), equal for two classes iff the
    subgroups are conjugate, and `subgroups`, the signatures of
    <g^(m/d)> for each prime d < m dividing the order m, ascending d."""

    class_id: int
    generator: GroupElement
    projective_order: int
    label: tuple
    signature: tuple
    subgroups: tuple

    @property
    def is_trivial(self):
        return self.projective_order == 1


def enumerate_cyclic_classes(p: int):
    """A transversal of the conjugacy classes of PGL(3,p), prime p.

    One representative per element class, the generators of the cyclic
    candidates for the exclusion sweep; the trivial class is flagged by
    projective_order 1 and sorts first.  The count is q^2+q+2 when 3
    divides q-1 and q^2+q otherwise, the trivial class included.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} must be prime")
    if p > ENUMERATION_MAX_P:
        raise BudgetExceededError(f"full class enumeration supported for p <= {ENUMERATION_MAX_P}, got {p}")
    spec = Field(p)
    reps = gl3_class_representatives(p)
    first = {}  # projective label code -> the first representative with it
    for i, code in enumerate(_label_codes(p, np.array(reps, dtype=np.int64))[1].tolist()):
        first.setdefault(code, i)
    gens = np.array([reps[i] for i in first.values()], dtype=np.int64)
    # the powers g, g^2, ... of every generator at once, until each is scalar
    powers = [gens]
    order = np.zeros(len(gens), dtype=np.int64)
    while True:
        x = powers[-1]
        scalar = (x == x[:, :1, :1] * np.eye(3, dtype=np.int64)).all(axis=(1, 2))
        order[(order == 0) & scalar] = len(powers)
        if order.all():
            break
        powers.append(x @ gens % p)
    order = order.tolist()
    # per power k: the classes where g^k generates <g>, then those where
    # it generates the subgroup of prime order d = m/k < m
    coprime = [[c for c, m in enumerate(order) if k <= m and math.gcd(k, m) == 1] for k in range(1, len(powers) + 1)]
    prime_ks = {m: [m // d for d in range(2, m) if m % d == 0 and is_prime(d)] for m in set(order)}
    prime = [[] for _ in powers]
    for c, m in enumerate(order):
        for k in prime_ks[m]:
            prime[k - 1].append(c)
    codes = iter(_label_codes(p, np.concatenate([x[a + b] for x, a, b in zip(powers, coprime, prime)]))[1].tolist())
    signatures = [set() for _ in order]
    subgroups = [[] for _ in order]  # by ascending k, so descending d
    for a, b in zip(coprime, prime):
        for c in a:
            signatures[c].add(next(codes))
        for c in b:
            subgroups[c].append(next(codes))
    sig_of = {code: tuple(sorted(_label(p, member) for member in sig)) for code, sig in zip(first, signatures)}
    items = sorted(
        (m, sig_of[code], _label(p, code), reps[i], tuple(sig_of[s] for s in reversed(sub)))
        for m, sub, (code, i) in zip(order, subgroups, first.items())
    )
    return [ConjClassRep(i, make_element(spec, g), m, lab, sig, sub) for i, (m, sig, lab, g, sub) in enumerate(items)]


def subgroup_class_count(classes) -> int:
    """Number of distinct cyclic subgroups up to conjugacy (element
    classes merged by signature)."""
    return len({rep.signature for rep in classes})


def format_class_list(classes) -> str:
    """One line per class: id, projective order, and the generator's row
    of the group file format."""
    rows = format_group_file([rep.generator for rep in classes]).splitlines()
    return "\n".join(f"{rep.class_id} {rep.projective_order} {row}" for rep, row in zip(classes, rows)) + "\n"


@dataclass
class ExclusionReport:
    """Outcome of the sweep over all nontrivial cyclic classes."""

    q: int
    r: int
    n: int
    excluded: tuple
    realized: tuple  # classes whose system reached n: a witness, not a timeout
    undecided: tuple
    verdict: str
    classes: tuple = field(default_factory=tuple)

    def to_dict(self):
        return asdict(self)  # copies the class records, so callers may edit them


def _record(rep, budget, status, implied_by=None):
    """A class record with no solve behind it; `_solve_class` fills in the rest."""
    return {
        "id": rep.class_id,
        "order": rep.projective_order,
        "ell": None,
        "status": status,
        "objective": None,
        "nodes": 0,
        "symmetry": 1,
        "time": 0.0,
        "implied_by": implied_by,
        "budget": budget,
    }


def _solve_class(plane, rep, r, n, budget):
    t0 = time.monotonic()
    group = closure(plane.spec, [rep.generator])
    od = orbits(plane, group)
    cs = condense(plane, od, r)
    sol = solve_feasible(IlpModel(cs), target=n, budget=budget)
    if sol.status == FEASIBLE_FOUND:
        found = verify_arc(Arc(plane, expand_solution(plane, od, sol.x)))
        if found.n < n or found.max_multiplicity > r:
            raise RuntimeError(f"class {rep.class_id}: the witness is no ({n},{r})-arc: {found}")
    rec = _record(rep, budget, sol.status)
    rec.update(ell=cs.ell, objective=sol.objective, nodes=sol.nodes_explored, symmetry=sol.symmetry)
    rec["time"] = round(time.monotonic() - t0, 3)
    return rec


def _load_checkpoint(path, key):
    """The records a checkpoint holds for the sweep `key`, with the fields
    older records lack; a file from another sweep, or of another shape,
    or a record filed under another class id, with a budget that is no
    number, a status not in STATUSES, or an `implied_by` that is not null
    or a lower class solved ProvedInfeasible on a ProvedInfeasible record,
    is refused with a ValueError naming it, not replaced."""
    if not (path and os.path.exists(path)):
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"checkpoint {path} is not JSON: {exc}") from exc
    classes = data.get("classes", {}) if isinstance(data, dict) else None
    if not isinstance(classes, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object with a 'classes' object")
    if data.get("key") != key:
        raise ValueError(f"checkpoint {path} is for sweep {data.get('key')!r}, not {key!r}")
    for k, rec in classes.items():
        if not (k.isdecimal() and isinstance(rec, dict) and {"id", "status"} <= rec.keys()):
            raise ValueError(f"checkpoint {path}: class {k!r} is not an integer id with an id and status record")
        if not (type(rec["id"]) is int and str(rec["id"]) == k):  # one key per class, as the sweep writes it
            raise ValueError(f"checkpoint {path}: class {k!r} holds the record of class {rec['id']!r}")
        if type(rec.get("budget")) not in (int, float, type(None)):
            raise ValueError(f"checkpoint {path}: class {k!r} has budget {rec['budget']!r}, not a number")
        if rec["status"] not in STATUSES:
            raise ValueError(f"checkpoint {path}: class {k!r} has status {rec['status']!r}, not one of {STATUSES}")
    records = {int(k): v for k, v in classes.items()}
    for k, rec in classes.items():
        rec.setdefault("symmetry", 1)  # written before the search used any
        rec.setdefault("budget", None)  # written before records held it; retried on Timeout
        src = rec.setdefault("implied_by", None)  # written before the sweep implied any
        solved = records.get(src) if type(src) is int and src < rec["id"] else None
        implied = solved and solved["status"] == PROVED_INFEASIBLE and solved.get("implied_by") is None
        if src is not None and not (implied and rec["status"] == PROVED_INFEASIBLE):
            raise ValueError(
                f"checkpoint {path}: class {k!r} is {rec['status']} implied by {src!r}, not a lower solved exclusion"
            )
    return records


def _save_checkpoint(path, key, records):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"key": key, "version": __version__, "classes": {str(k): v for k, v in records.items()}}, fh)
    os.replace(tmp, path)


def run_exclusion(
    p: int,
    r: int,
    n: int,
    budget_per_class: float = 60.0,
    skip=(),
    threads: int = 1,
    checkpoint: str | None = None,
    progress=None,
) -> ExclusionReport:
    """Solve the target-n feasibility question for every nontrivial cyclic
    class and derive the rigidity verdict.

    A class whose system provably cannot reach n points is excluded, one
    whose system reaches n is realized (a witness that is no (n,r)-arc
    raises RuntimeError), and a timeout (or an explicit skip) leaves it
    undecided.  All classes excluded gives RigidOrNonexistent; any
    realized or undecided class downgrades to RigidOrListedGroups; no
    exclusions at all is Inconclusive.  Timeouts are recorded, never
    raised.  Classes go in id order, so by projective order.  A class is
    excluded without a solve when its signature, or else one of its
    `subgroups` in order, is an excluded class's; its record names that
    solved class in `implied_by` (None on solved records).  Realized,
    timed-out and skipped classes imply nothing.  A skip id that is not
    a nontrivial class raises ValueError before any solve.  With a
    checkpoint path, records, each with its budget, are flushed after
    every class with the tool version and reused on resume, except a
    Timeout under a smaller budget; a file with another sweep's key, or
    none, raises ValueError.  `progress` gets every new record.  Classes
    are solved one at a time, so `threads` must be 1; the keyword is kept
    because callers, the benchmark among them, pass threads=1.
    """
    if threads != 1:
        raise ValueError(f"threads={threads}: the sweep solves one class at a time")
    if n < 1:
        raise ValueError(f"n={n}: the target must be at least 1")
    if not math.isfinite(budget_per_class):
        raise ValueError(f"budget_per_class={budget_per_class}: the budget must be a finite number of seconds")
    classes = enumerate_cyclic_classes(p)
    skip = set(skip)
    unknown = sorted(skip - {rep.class_id for rep in classes if not rep.is_trivial})
    if unknown:
        raise ValueError(f"skip ids {unknown} are not nontrivial classes of PGL(3,{p})")
    plane = build_plane(Field(p))
    key = f"q={p} r={r} n={n}"
    records = _load_checkpoint(checkpoint, key)
    solved_source = {}  # signature of an excluded subgroup -> the solved class behind it
    ordered = []
    for rep in classes:
        if rep.is_trivial:
            continue
        rec = records.get(rep.class_id)
        if rep.class_id in skip:
            rec = rec or _record(rep, budget_per_class, "Skipped")
        elif rec is None or (rec["status"] == TIMEOUT and (rec["budget"] or 0) < budget_per_class):
            source = next((solved_source[s] for s in (rep.signature, *rep.subgroups) if s in solved_source), None)
            if source is None:
                rec = _solve_class(plane, rep, r, n, budget_per_class)
            else:
                rec = _record(rep, budget_per_class, PROVED_INFEASIBLE, implied_by=source)
            if progress:
                progress(rec)
            records[rep.class_id] = rec
            if checkpoint:
                _save_checkpoint(checkpoint, key, records)
        if rec["status"] == PROVED_INFEASIBLE:
            solved_source.setdefault(rep.signature, rep.class_id if rec["implied_by"] is None else rec["implied_by"])
        ordered.append(rec)

    excluded = tuple(rec["id"] for rec in ordered if rec["status"] == PROVED_INFEASIBLE)
    realized = tuple(rec["id"] for rec in ordered if rec["status"] == FEASIBLE_FOUND)
    undecided = tuple(rec["id"] for rec in ordered if rec["status"] not in (PROVED_INFEASIBLE, FEASIBLE_FOUND))
    if excluded and not (realized or undecided):
        verdict = VERDICT_RIGID
    elif excluded:
        verdict = VERDICT_LISTED
    else:
        verdict = VERDICT_INCONCLUSIVE
    return ExclusionReport(
        q=p, r=r, n=n, excluded=excluded, realized=realized, undecided=undecided, verdict=verdict, classes=tuple(ordered)
    )
