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

from .errors import NotAdmittedError, ParseError
from .geometry import Plane
from .gf import header_int, key_values, text_lines
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


def _orbit_counts(plane: Plane, reps, orbit_of, ell):
    """Per representative, how many entries of its row of `incidence`
    fall in each orbit of `orbit_of`."""
    counts = []
    for rep in reps:
        row = [0] * ell
        for j in plane.incidence[rep].tolist():
            row[orbit_of[j]] += 1
        counts.append(tuple(row))
    return tuple(counts)


def condense(plane: Plane, orb: OrbitData, r: int) -> CondensedSystem:
    """Build the condensed system for the orbit partition and bound r."""
    q = plane.spec.q
    if not 1 <= r <= q + 1:
        raise ValueError(f"r={r} out of range 1..{q + 1}")
    A = _orbit_counts(plane, orb.line_rep, orb.point_orbit_of, orb.ell)
    normalizer = partial(normalizer_permutations, plane, orb, A, orb.weights)
    system = CondensedSystem(ell=orb.ell, A=A, w=orb.weights, r=r, q=q, normalizer=normalizer)
    assert all(s == q + 1 for s in system.row_sums())
    return system


def dual_condensation(plane: Plane, orb: OrbitData):
    """Counts of lines of line-orbit i through the representative point of
    point-orbit j; used for the double-counting consistency check.  The
    plane is self-dual, so a row of `incidence` also lists the lines
    through a point."""
    return _orbit_counts(plane, orb.point_rep, orb.line_orbit_of, orb.ell)


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


def _integers(lineno, text, ell, what):
    """The ell integers of a line of text; `what` names them in an error."""
    try:
        values = tuple(int(v) for v in text.split())
    except ValueError:
        raise ParseError(f"expected integers, got {text.strip()!r}", lineno) from None
    if len(values) != ell:
        raise ParseError(f"{len(values)} {what}, expected ell={ell}", lineno)
    return values


def parse_system(text: str) -> CondensedSystem:
    """The inverse of `format_system`; ``#`` starts a comment.  An error in
    the header, the weights or a matrix row names its line."""
    lines = list(text_lines(text))
    if not lines:
        raise ParseError("empty condensed system")
    at, head = lines[0]
    header = key_values(head, at)
    for key in ("ell", "q", "r"):
        if key not in header:
            raise ParseError(f"header has no {key}=", at)
    ell, q, r = (header_int(header, key, dict.fromkeys(header, at)) for key in ("ell", "q", "r"))
    if ell < 1:
        raise ParseError(f"ell={ell} must be at least 1", at)
    if not 1 <= r <= q + 1:
        raise ParseError(f"r={r} out of range 1..{q + 1}", at)
    if len(lines) < 2 or not lines[1][1].startswith("w:"):
        raise ParseError("missing weight line")
    if len(lines) > 2 + ell:
        raise ParseError(f"more matrix rows than ell={ell}")
    w = _integers(lines[1][0], lines[1][1][2:], ell, "weights")
    A = tuple(_integers(lineno, row, ell, "entries in a matrix row") for lineno, row in lines[2:])
    if len(A) != ell:
        raise ParseError(f"{len(A)} matrix rows, expected ell={ell}")
    return CondensedSystem(ell=ell, A=A, w=w, r=r, q=q)
