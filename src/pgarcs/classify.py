"""Cyclic subgroups of PGL(3,q) for prime q, up to conjugacy, and the
automorphism-exclusion sweep.

Conjugacy of invertible 3x3 matrices is decided by the invariant-factor
label (characteristic and minimal polynomial); two projective elements
are conjugate in PGL iff some scalar multiple makes the labels match, so
the projective label is the minimum over scalars.  One representative
matrix per GL conjugacy class comes from the rational-form families
(companion matrices of cubics, a scalar block next to a quadratic
companion block, and scalars), and projecting those labels modulo
scalars yields exactly one generator per conjugacy class of PGL(3,q).
For each representative the sweep condenses the plane by the generated
cyclic group, asks the solver whether any selection reaches the target
size n, and combines the per-class outcomes into a rigidity verdict.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from itertools import combinations

from .condense import condense
from .errors import BudgetExceededError
from .geometry import build_plane
from .gf import Field, is_prime
from .group import (
    GroupElement,
    _is_scalar,
    char_poly,
    closure,
    det3,
    make_element,
    matmul3,
    orbits,
    scalar_powers,
)
from .solver import FEASIBLE_FOUND, PROVED_INFEASIBLE, IlpModel, solve_feasible

__all__ = [
    "ConjClassRep",
    "ExclusionReport",
    "canonical_label",
    "enumerate_cyclic_classes",
    "format_class_list",
    "gl3_class_representatives",
    "min_poly",
    "pgl_label",
    "projective_order",
    "run_exclusion",
    "subgroup_class_count",
]

ENUMERATION_MAX_P = 13

VERDICT_RIGID = "RigidOrNonexistent"
VERDICT_LISTED = "RigidOrListedGroups"
VERDICT_INCONCLUSIVE = "Inconclusive"


def _poly_div_exact(spec: Field, num, den):
    """num / den over GF(q) for monic den, asserting zero remainder."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dd]
        quot[i] = c
        if c:
            for j, dc in enumerate(den):
                num[i + j] = spec.add_t[num[i + j]][spec.neg_t[spec.mul_t[c][dc]]]
    assert not any(num[:dd]), "polynomial division left a remainder"
    return tuple(quot)


def min_poly(spec: Field, m):
    """Monic minimal polynomial of a 3x3 matrix (degree 1, 2 or 3)."""
    if _is_scalar(m):
        return (spec.neg_t[m[0][0]], 1)
    m2 = matmul3(spec, m, m)
    # is m^2 in the span of I and m?  solve b0*I + b1*m = -m^2
    b0 = b1 = None
    eqs = []
    for r in range(3):
        for s in range(3):
            eqs.append((1 if r == s else 0, m[r][s], spec.neg_t[m2[r][s]]))
    for c0, c1, rhs in eqs:
        if c1 and not c0:
            b1 = spec.mul_t[rhs][spec.inv_t[c1]]
            break
    if b1 is None:
        # m is diagonal and not scalar, so two diagonal equations with
        # different entries of m determine b1
        for (c0, c1, r1), (d0, d1, r2) in combinations(eqs, 2):
            det = spec.add_t[spec.mul_t[c0][d1]][spec.neg_t[spec.mul_t[c1][d0]]]
            if det:
                num = spec.add_t[spec.mul_t[c0][r2]][spec.neg_t[spec.mul_t[d0][r1]]]
                b1 = spec.mul_t[num][spec.inv_t[det]]
                break
    if b1 is not None:
        for c0, c1, rhs in eqs:
            if c0:
                b0 = spec.add_t[rhs][spec.neg_t[spec.mul_t[c1][b1]]]
                break
        candidate = (b0, b1, 1)
        if _matrix_annihilated(spec, m, m2, candidate):
            return candidate
    return char_poly(spec, m)


def _matrix_annihilated(spec, m, m2, poly):
    b0, b1, _ = poly
    for r in range(3):
        for s in range(3):
            v = spec.add_t[m2[r][s]][spec.mul_t[b1][m[r][s]]]
            if r == s:
                v = spec.add_t[v][b0]
            if v:
                return False
    return True


def canonical_label(spec: Field, m):
    """Invariant factors of the matrix: equal labels iff GL-conjugate."""
    if det3(spec, m) == 0:
        raise ValueError("matrix is singular")
    cp = char_poly(spec, m)
    mp = min_poly(spec, m)
    if len(mp) == 4:
        return (cp,)
    if len(mp) == 3:
        return (_poly_div_exact(spec, cp, mp), mp)
    return (mp, mp, mp)


def pgl_label(spec: Field, m):
    """Conjugacy label of the projective class: minimum over scalar
    multiples of the GL label.  The invariant factors of lam.m are those
    of m with coefficient i of each degree-d factor times lam^(d-i)."""
    label = canonical_label(spec, m)
    mul = spec.mul_t
    # tuples from lists: from generators, the p = 5 and 7 enumerations
    # peaked about 0.25 MiB higher
    return min(
        tuple([tuple([mul[c][spec.pow(lam, len(f) - 1 - i)] for i, c in enumerate(f)]) for f in label])
        for lam in range(1, spec.q)
    )


def gl3_class_representatives(p: int):
    """Exactly one matrix per conjugacy class of GL(3,p).

    Rational-form families: the companion matrix of every monic cubic
    with nonzero constant term (the cyclic classes), a 1x1 eigenvalue
    block a next to the companion of (x-a)(x-b) for nonzero a, b, and the
    scalars.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} must be prime")
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


def projective_order(spec: Field, m) -> int:
    """Least k >= 1 with m^k scalar."""
    return len(scalar_powers(spec, m))


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
        lab = pgl_label(spec, m)
        if lab not in by_label:
            by_label[lab] = m
    items = []
    for lab, m in by_label.items():
        powers = scalar_powers(spec, m)
        order = len(powers)
        sig = _subgroup_signature(spec, powers)
        items.append((order, sig, lab, m))
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
    """One line per class: id, projective order, nine generator codes."""
    out = []
    for rep in classes:
        codes = " ".join(str(v) for row in rep.generator.mat for v in row)
        out.append(f"{rep.class_id} {rep.projective_order} {codes}")
    return "\n".join(out) + "\n"


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


def _solve_class(plane, rep, r, n, budget):
    t0 = time.monotonic()
    group = closure(plane.spec, [rep.generator])
    od = orbits(plane, group)
    cs = condense(plane, od, r)
    sol = solve_feasible(IlpModel(cs), target=n, budget=budget)
    return {
        "id": rep.class_id,
        "order": rep.projective_order,
        "ell": cs.ell,
        "status": sol.status,
        "objective": sol.objective,
        "nodes": sol.nodes_explored,
        "symmetry": sol.symmetry,
        "time": round(time.monotonic() - t0, 3),
    }


def _load_checkpoint(path, key):
    if path and os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
        if data.get("key") == key:
            return {int(k): v for k, v in data.get("classes", {}).items()}
    return {}


def _save_checkpoint(path, key, records):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"key": key, "classes": {str(k): v for k, v in records.items()}}, fh)
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
    whose system reaches n is realized, and a timeout (or an explicit
    skip) leaves it undecided.  All classes excluded gives
    RigidOrNonexistent; any realized or undecided class downgrades to
    RigidOrListedGroups; no exclusions at all is Inconclusive.  Timeouts
    are recorded, never raised.  With a checkpoint path, per-class
    results are flushed after every class and reused on resume.  Classes
    are solved one at a time, so `threads` must be 1; the keyword is kept
    because callers, the benchmark among them, pass threads=1.
    """
    if threads != 1:
        raise ValueError(f"threads={threads}: the sweep solves one class at a time")
    classes = enumerate_cyclic_classes(p)
    plane = build_plane(Field(p))
    skip = set(skip)
    key = f"q={p} r={r} n={n}"
    records = _load_checkpoint(checkpoint, key)
    for rec in records.values():
        rec.setdefault("symmetry", 1)  # written before the search used any
    for rep in classes:
        if rep.is_trivial or rep.class_id in skip or rep.class_id in records:
            continue
        rec = _solve_class(plane, rep, r, n, budget_per_class)
        if progress:
            progress(rec)
        records[rec["id"]] = rec
        if checkpoint:
            _save_checkpoint(checkpoint, key, records)

    for rep in classes:
        if not rep.is_trivial and rep.class_id in skip and rep.class_id not in records:
            records[rep.class_id] = {
                "id": rep.class_id,
                "order": rep.projective_order,
                "ell": None,
                "status": "Skipped",
                "objective": None,
                "nodes": 0,
                "symmetry": 1,
                "time": 0.0,
            }

    ordered = [records[rep.class_id] for rep in classes if not rep.is_trivial]
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
