"""Orbit condensation of the point/line incidence system.

For a group G acting on PG(2,q), the condensed matrix A has one row per
line orbit and one column per point orbit: A[i][j] counts the points of
point-orbit j lying on the representative line of line-orbit i.  A 0/1
orbit-selection vector x with A.x <= r.u expands to a point set meeting
every line in at most r points, of size w.x where w holds the point-orbit
lengths.  A is one read-only int64 array, shared by the model, its LP
and the normalizer check, and counted straight from the partition's
one orbit-id array per side.  A condensed system remembers how to list
the permutations of its variables that the group's normalizer induces;
a parsed one has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

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


@dataclass(frozen=True, eq=False)
class CondensedSystem:
    """Condensed constraint system: ell x ell counts, weights, bound r.

    A is a read-only (ell, ell) int64 array and w a tuple.  Systems
    compare by identity: an array field has no single truth value.
    normalizer, when set, is called with a deadline and returns what
    `group.normalizer_permutations` returns for this system.
    """

    ell: int
    A: np.ndarray
    w: tuple
    r: int
    q: int
    normalizer: object = field(default=None, repr=False)

    def row_sums(self):
        return self.A.sum(axis=1)


def _orbit_counts(plane: Plane, reps, orbit_of, ell):
    """Per representative, how many entries of its row of `incidence`
    fall in each orbit of `orbit_of`, as a read-only (len(reps), ell)
    int64 array: one bincount of the orbit ids, offset by ell per row."""
    ids = orbit_of[plane.incidence[reps]] + ell * np.arange(len(reps))[:, None]
    counts = np.bincount(ids.ravel(), minlength=len(reps) * ell).reshape(len(reps), ell)
    counts.flags.writeable = False
    return counts


def condense(plane: Plane, orb: OrbitData, r: int) -> CondensedSystem:
    """Build the condensed system for the orbit partition and bound r.
    Orbits are numbered in the order of their least members; row i counts
    the points of each point orbit on line orbit i's least member."""
    q = plane.spec.q
    if not 1 <= r <= q + 1:
        raise ValueError(f"r={r} out of range 1..{q + 1}")
    A = _orbit_counts(plane, orb.line_rep, orb.point_orbit_of, orb.ell)
    normalizer = partial(normalizer_permutations, plane, orb, A, orb.weights)
    system = CondensedSystem(ell=orb.ell, A=A, w=orb.weights, r=r, q=q, normalizer=normalizer)
    assert (system.row_sums() == q + 1).all()
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
    return tuple(np.flatnonzero(np.asarray(x)[orb.point_orbit_of]).tolist())


def compress_arc(orb: OrbitData, points):
    """The 0/1 orbit-selection vector of an orbit-closed point set.

    Strict: raises NotAdmittedError unless the set is exactly a union of
    orbits, i.e. the group really is a group of automorphisms of the set.
    """
    counts = np.bincount(orb.point_orbit_of[list(set(points))], minlength=orb.ell)
    bad = np.flatnonzero((counts != 0) & (counts != orb.weights))
    if len(bad):
        j = bad[0]
        raise NotAdmittedError(f"point set meets orbit {j} in {counts[j]} of {orb.weights[j]} points")
    return tuple(np.minimum(counts, 1).tolist())


def format_system(system: CondensedSystem) -> str:
    out = [f"ell={system.ell} q={system.q} r={system.r}"]
    out.append("w: " + " ".join(map(str, system.w)))
    out += (" ".join(map(str, row)) for row in system.A.tolist())
    return "\n".join(out) + "\n"


def _integers(lineno, text, ell, what):
    """The ell integers of a line, each in 0..2**63 - 1 (int64); `what`
    names them in errors."""
    try:
        values = tuple(int(v) for v in text.split())
    except ValueError:
        raise ParseError(f"expected integers, got {text.strip()!r}", lineno) from None
    if len(values) != ell:
        raise ParseError(f"{len(values)} {what}, expected ell={ell}", lineno)
    if min(values) < 0:
        raise ParseError(f"{what} must be nonnegative, got {min(values)}", lineno)
    if max(values) >= 2**63:
        raise ParseError(f"{what} must be below 2**63, got {max(values)}", lineno)
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
    rows = [_integers(lineno, row, ell, "entries in a matrix row") for lineno, row in lines[2:]]
    if len(rows) != ell:
        raise ParseError(f"{len(rows)} matrix rows, expected ell={ell}")
    A = np.array(rows, dtype=np.int64)
    A.flags.writeable = False
    return CondensedSystem(ell=ell, A=A, w=w, r=r, q=q)
