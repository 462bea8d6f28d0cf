"""The projective plane PG(2,q): normalized points, lines as dual triples,
incidence, and subspace counts.

Points are the 1-subspaces of GF(q)^3, stored as coordinate triples scaled
so the leftmost nonzero coordinate is 1.  A line (2-subspace) is stored by
its dual triple d, normalized the same way, and consists of the points x
with d.x = 0.  Enumeration is lexicographic by coded coordinates, so every
plane, matrix, and orbit representative downstream is reproducible.
"""

from __future__ import annotations

import numpy as np

from .gf import Field

__all__ = [
    "Plane",
    "build_plane",
    "gaussian_number",
    "incident",
    "normalize_triple",
]


def gaussian_number(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, in exact integers."""
    if k < 0 or k > n:
        raise ValueError(f"k={k} out of range for n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    return num // den


def normalize_triple(spec: Field, t):
    """Scale so the leftmost nonzero coordinate is 1; rejects (0,0,0)."""
    for c in t:
        if c:
            if c == 1:
                return tuple(t)
            inv = spec.inv_t[c]
            mul = spec.mul_t[inv]
            return tuple(mul[x] for x in t)
    raise ValueError("cannot normalize the zero triple")


def dot(spec: Field, u, v) -> int:
    mul = spec.mul_t
    add = spec.add_t
    return add[add[mul[u[0]][v[0]]][mul[u[1]][v[1]]]][mul[u[2]][v[2]]]


class Plane:
    """PG(2,q) with indexed points/lines and incidence lists.

    Immutable after build_plane; attributes:
      spec          the underlying Field
      points        tuple of normalized coordinate triples, lex order
      lines         tuple of normalized dual triples, lex order
      point_index   triple -> index
      line_index    triple -> index
      incidence     per line, sorted tuple of incident point indices
      lines_through per point, sorted tuple of incident line indices
      inc           numpy uint8 matrix, rows = lines, cols = points
    """

    def __init__(self, spec, points, lines, inc):
        self.spec = spec
        self.points = points
        self.lines = lines
        self.point_index = {t: i for i, t in enumerate(points)}
        self.line_index = {t: i for i, t in enumerate(lines)}
        self.inc = inc
        self.incidence = tuple(tuple(np.flatnonzero(inc[i]).tolist()) for i in range(len(lines)))
        self.lines_through = tuple(tuple(np.flatnonzero(inc[:, j]).tolist()) for j in range(len(points)))

    @property
    def n(self) -> int:
        return len(self.points)

    def __repr__(self):
        return f"Plane(q={self.spec.q}, {self.n} points)"


def _normalized_triples(q: int):
    out = [(0, 0, 1)]
    out.extend((0, 1, c) for c in range(q))
    out.extend((1, b, c) for b in range(q) for c in range(q))
    return tuple(out)


def build_plane(spec: Field) -> Plane:
    """Enumerate PG(2,q) and its full line/point incidence."""
    q = spec.q
    triples = _normalized_triples(q)
    pts = np.array(triples, dtype=np.int16)
    mul = spec.mul_np
    add = spec.add_np
    # inc[i, j] = 1 iff lines[i] . points[j] == 0
    terms = [mul[pts[:, None, k], pts[None, :, k]] for k in range(3)]
    total = add[add[terms[0], terms[1]], terms[2]]
    inc = (total == 0).astype(np.uint8)
    plane = Plane(spec, triples, triples, inc)
    expected = gaussian_number(3, 1, q)
    assert plane.n == expected
    return plane


def incident(spec: Field, line, point) -> bool:
    """True iff the point lies on the line (dual dot product vanishes)."""
    return dot(spec, line, point) == 0
