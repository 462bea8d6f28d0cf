"""Orbit condensation of the point/line incidence system.

For a group G acting on PG(2,q), the condensed matrix A has one row per
line orbit and one column per point orbit: A[i][j] counts the points of
point-orbit j lying on the representative line of line-orbit i.  A 0/1
orbit-selection vector x with A.x <= r.u expands to a point set meeting
every line in at most r points, of size w.x where w holds the point-orbit
lengths.  A condensed system remembers how to list the permutations of
its variables that the group's normalizer induces; a parsed one has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .errors import NotAdmittedError
from .geometry import Plane
from .group import OrbitData, normalizer_permutations

__all__ = [
    "CondensedSystem",
    "compress_arc",
    "condense",
    "dual_condensation",
    "expand_solution",
    "format_system",
    "parse_system",
]


@dataclass(frozen=True)
class CondensedSystem:
    """Condensed constraint system: ell x ell counts, weights, bound r.

    normalizer, when set, is called with a deadline and returns what
    `group.normalizer_permutations` returns for this system.
    """

    ell: int
    A: tuple
    w: tuple
    r: int
    q: int
    normalizer: object = field(default=None, compare=False, repr=False)

    def row_sums(self):
        return tuple(sum(row) for row in self.A)


def condense(plane: Plane, orb: OrbitData, r: int) -> CondensedSystem:
    """Build the condensed system for the orbit partition and bound r."""
    q = plane.spec.q
    if not 1 <= r <= q + 1:
        raise ValueError(f"r={r} out of range 1..{q + 1}")
    ell = orb.ell
    A = []
    for rep in orb.line_rep:
        row = [0] * ell
        for j in plane.incidence[rep]:
            row[orb.point_orbit_of[j]] += 1
        A.append(tuple(row))
    A = tuple(A)
    system = CondensedSystem(
        ell=ell,
        A=A,
        w=orb.weights,
        r=r,
        q=q,
        normalizer=partial(normalizer_permutations, plane, orb, A, orb.weights),
    )
    assert all(s == q + 1 for s in system.row_sums())
    return system


def dual_condensation(plane: Plane, orb: OrbitData):
    """Counts of lines of line-orbit i through the representative point of
    point-orbit j; used for the double-counting consistency check.  The
    plane is self-dual, so `incidence` lists the lines through a point."""
    ell = orb.ell
    Abar = []
    for rep in orb.point_rep:
        row = [0] * ell
        for i in plane.incidence[rep]:
            row[orb.line_orbit_of[i]] += 1
        Abar.append(tuple(row))
    return tuple(Abar)


def expand_solution(plane: Plane, orb: OrbitData, x):
    """Union of the selected point orbits, as a sorted index tuple."""
    if len(x) != orb.ell:
        raise ValueError(f"selection length {len(x)} != ell {orb.ell}")
    pts = []
    for j, xj in enumerate(x):
        if xj:
            pts.extend(orb.point_orbits[j])
    return tuple(sorted(pts))


def compress_arc(orb: OrbitData, points):
    """The 0/1 orbit-selection vector of an orbit-closed point set.

    Strict: raises NotAdmittedError unless the set is exactly a union of
    orbits, i.e. the group really is a group of automorphisms of the set.
    """
    pset = set(points)
    counts = [0] * orb.ell
    for i in pset:
        counts[orb.point_orbit_of[i]] += 1
    x = []
    for j, c in enumerate(counts):
        if c == 0:
            x.append(0)
        elif c == len(orb.point_orbits[j]):
            x.append(1)
        else:
            raise NotAdmittedError(
                f"point set meets orbit {j} in {c} of {len(orb.point_orbits[j])} points"
            )
    return tuple(x)


def format_system(system: CondensedSystem) -> str:
    out = [f"ell={system.ell} q={system.q} r={system.r}"]
    out.append("w: " + " ".join(str(v) for v in system.w))
    for row in system.A:
        out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def parse_system(text: str) -> CondensedSystem:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    header = dict(tok.split("=") for tok in lines[0].split())
    ell, q, r = int(header["ell"]), int(header["q"]), int(header["r"])
    if not lines[1].startswith("w:"):
        raise ValueError("missing weight line")
    w = tuple(int(v) for v in lines[1][2:].split())
    A = tuple(tuple(int(v) for v in ln.split()) for ln in lines[2 : 2 + ell])
    if len(w) != ell or len(A) != ell or any(len(row) != ell for row in A):
        raise ValueError("condensed system dimensions do not match header")
    return CondensedSystem(ell=ell, A=A, w=w, r=r, q=q)
