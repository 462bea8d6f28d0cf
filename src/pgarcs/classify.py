"""Cyclic subgroups of PGL(3,q) for prime q, up to conjugacy, and the
automorphism-exclusion sweep.

Conjugacy of invertible 3x3 matrices is decided by the invariant-factor
label (canonical_label): a non-scalar matrix satisfies at most one monic
quadratic, fixed by two entries of its square, and the label follows
from whether it does.  Two projective elements are conjugate in PGL iff
some scalar multiple makes the labels match, so the projective label is
the minimum over scalars.  One representative matrix per GL conjugacy
class comes from the rational-form families (companion matrices of
cubics, a scalar block next to a quadratic companion block, and
scalars), and projecting those labels modulo scalars yields exactly one
generator per conjugacy class of PGL(3,q).  For each representative the
sweep condenses the plane by the generated cyclic group, asks the solver
whether any selection reaches the target size n, and combines the
per-class outcomes into a rigidity verdict.  A witness the solver
reports is expanded to the full plane and checked as an (n,r)-arc before
its class counts as realized.  An arc invariant under <g> is invariant
under every subgroup, so a class is recorded as excluded, with the
solved class in `implied_by`, when <g> or one of its prime-order
subgroups is conjugate to an excluded one.  A checkpoint file is keyed
by q, r and n; one with another key is refused, never overwritten.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .arcs import Arc, verify_arc
from .condense import condense, expand_solution
from .errors import BudgetExceededError
from .geometry import build_plane
from .gf import Field, is_prime
from .group import (
    GroupElement,
    _is_scalar,
    char_poly,
    closure,
    det3,
    format_group_file,
    make_element,
    matmul3,
    orbits,
    scalar_powers,
)
from .solver import FEASIBLE_FOUND, PROVED_INFEASIBLE, TIMEOUT, IlpModel, solve_feasible

__all__ = [
    "ConjClassRep",
    "ExclusionReport",
    "canonical_label",
    "enumerate_cyclic_classes",
    "format_class_list",
    "gl3_class_representatives",
    "min_poly",
    "pgl_label",
    "run_exclusion",
    "subgroup_class_count",
]

ENUMERATION_MAX_P = 13

VERDICT_RIGID = "RigidOrNonexistent"
VERDICT_LISTED = "RigidOrListedGroups"
VERDICT_INCONCLUSIVE = "Inconclusive"


def min_poly(spec: Field, m):
    """Monic minimal polynomial of a 3x3 matrix (degree 1, 2 or 3).

    The one monic x^2 + b1 x + b0 that can annihilate a non-scalar m has
    b1 = -m^2[r][s]/m[r][s] and b0 = -(m^2[r][r] + b1 m[r][r]) at the
    first nonzero off-diagonal m[r][s], or is (x - a)(x - b) for different
    diagonal entries a, b; if it fails, the answer is char_poly."""
    add, mul, neg = spec.add_t, spec.mul_t, spec.neg_t
    if _is_scalar(m):
        return (neg[m[0][0]], 1)
    m2 = matmul3(spec, m, m)
    for r, s in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        if m[r][s]:
            b1 = neg[mul[m2[r][s]][spec.inv_t[m[r][s]]]]
            b0 = neg[add[m2[r][r]][mul[b1][m[r][r]]]]
            break
    else:  # diagonal, not scalar
        a = m[0][0]
        b = m[1][1] if m[1][1] != a else m[2][2]
        b1 = neg[add[a][b]]
        b0 = mul[a][b]
    for r in range(3):
        for s in range(3):
            if add[add[m2[r][s]][mul[b1][m[r][s]]]][b0 if r == s else 0]:
                return char_poly(spec, m)
    return (b0, b1, 1)


def canonical_label(spec: Field, m):
    """Invariant factors of the matrix: equal labels iff GL-conjugate.

    One quadratic test, min_poly's, decides them.  A scalar a gives
    (x - a) three times.  A non-scalar m with the quadratic x^2 + b1 x +
    b0 gives x + c2 - b1 and that quadratic, c2 the x^2 coefficient of
    char_poly; without one, char_poly is the one factor.
    """
    if det3(spec, m) == 0:
        raise ValueError("matrix is singular")
    mp = min_poly(spec, m)
    if len(mp) == 4:
        return (mp,)
    if len(mp) == 3:
        c2 = char_poly(spec, m)[2]
        return ((spec.add_t[c2][spec.neg_t[mp[1]]], 1), mp)
    return (mp, mp, mp)


def pgl_label(spec: Field, m):
    """Conjugacy label of the projective class: minimum over scalar
    multiples of the GL label.  The invariant factors of lam.m are those
    of m with coefficient i of each degree-d factor times lam^(d-i)."""
    label = canonical_label(spec, m)
    mul = spec.mul_t
    # lam^0 .. lam^3: no invariant factor has degree above 3
    powers = [(1, lam, mul[lam][lam], mul[mul[lam][lam]][lam]) for lam in range(1, spec.q)]
    # tuples from lists: from generators, the p = 5 and 7 enumerations
    # peaked about 0.25 MiB higher
    return min(
        tuple([tuple([mul[c][pw[len(f) - 1 - i]] for i, c in enumerate(f)]) for f in label])
        for pw in powers
    )


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
    neg = spec.neg_t
    mul = spec.mul_t
    add = spec.add_t
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
    its projective label, and the signature of the generated cyclic
    subgroup (labels of all coprime powers), which is equal for two
    classes iff the generated subgroups are conjugate."""

    class_id: int
    generator: GroupElement
    projective_order: int
    label: tuple
    signature: tuple

    @property
    def is_trivial(self):
        return self.projective_order == 1


def _subgroup_signature(spec, powers):
    """Sorted labels of the generators of <m>, from scalar_powers(m)."""
    sig = {pgl_label(spec, m) for k, m in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1}
    return tuple(sorted(sig))


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
        raise BudgetExceededError(
            f"full class enumeration supported for p <= {ENUMERATION_MAX_P}, got {p}"
        )
    spec = Field(p)
    by_label = {}
    for m in gl3_class_representatives(p):
        by_label.setdefault(pgl_label(spec, m), m)
    items = []
    for lab, m in by_label.items():
        powers = scalar_powers(spec, m)
        items.append((len(powers), _subgroup_signature(spec, powers), lab, m))
    items.sort(key=lambda t: t[:3])
    return [
        ConjClassRep(
            class_id=i,
            generator=make_element(spec, m),
            projective_order=order,
            label=lab,
            signature=sig,
        )
        for i, (order, sig, lab, m) in enumerate(items)
    ]


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


def _excluded_subgroup(spec, rep, by_label, solved_source):
    """The solved class behind an excluded conjugate of <g> or of one of
    its prime-order subgroups <g^(m/d)>, m the order of g; else None."""
    if rep.signature in solved_source:
        return solved_source[rep.signature]
    m = rep.projective_order
    powers = scalar_powers(spec, rep.generator.mat)
    for d in range(2, m):
        if m % d == 0 and is_prime(d):
            sig = by_label[pgl_label(spec, powers[m // d - 1])].signature
            if sig in solved_source:
                return solved_source[sig]
    return None


def _load_checkpoint(path, key):
    """The records a checkpoint holds for the sweep `key`, with the fields
    older records lack; a file from another sweep, or of another shape,
    is refused with a ValueError naming it, not replaced."""
    if not (path and os.path.exists(path)):
        return {}
    with open(path) as fh:
        data = json.load(fh)
    classes = data.get("classes", {}) if isinstance(data, dict) else None
    if not isinstance(classes, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object with a 'classes' object")
    if data.get("key") != key:
        raise ValueError(f"checkpoint {path} is for sweep {data.get('key')!r}, not {key!r}")
    for k, rec in classes.items():
        if not (k.isdecimal() and isinstance(rec, dict) and {"id", "status"} <= rec.keys()):
            raise ValueError(f"checkpoint {path}: class {k!r} is not an integer id with an id and status record")
    records = {int(k): v for k, v in classes.items()}
    for rec in records.values():
        rec.setdefault("symmetry", 1)  # written before the search used any
        rec.setdefault("implied_by", None)  # written before the sweep implied any
        rec.setdefault("budget", None)  # written before records held it; retried on Timeout
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
    excluded without a solve, its record naming the solved class in
    `implied_by` (None on solved records), when an excluded class
    generates a conjugate of <g> or of <g^(m/d)>, d a prime dividing the
    order m; realized, timed-out and skipped classes imply nothing.  With
    a checkpoint path, records, each with its budget, are flushed after
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
    classes = enumerate_cyclic_classes(p)
    plane = build_plane(Field(p))
    skip = set(skip)
    key = f"q={p} r={r} n={n}"
    records = _load_checkpoint(checkpoint, key)
    by_label = {rep.label: rep for rep in classes}
    solved_source = {}  # signature of an excluded subgroup -> the solved class behind it
    ordered = []
    for rep in classes:
        if rep.is_trivial:
            continue
        rec = records.get(rep.class_id)
        if rep.class_id in skip:
            rec = rec or _record(rep, budget_per_class, "Skipped")
        elif rec is None or (rec["status"] == TIMEOUT and (rec["budget"] or 0) < budget_per_class):
            source = _excluded_subgroup(plane.spec, rep, by_label, solved_source)
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
        q=p,
        r=r,
        n=n,
        excluded=excluded,
        realized=realized,
        undecided=undecided,
        verdict=verdict,
        classes=tuple(ordered),
    )
