"""The projective plane PG(2,q): normalized points, lines as dual triples,
incidence, and subspace counts.

Points are the 1-subspaces of GF(q)^3, stored as coordinate triples scaled
so the leftmost nonzero coordinate is 1.  A line (2-subspace) is stored by
its dual triple d, normalized the same way, and consists of the points x
with d.x = 0.  Enumeration is lexicographic by coded coordinates, so every
plane, matrix, and orbit representative downstream is reproducible.
`build_plane` reads each line's q+1 points straight off its equation
d.x = 0: q of them set one coordinate of x to 1 and run a second over
GF(q), the last sets the first to 0 and the second to 1, and d.x = 0
gives the third coordinate.

A `Plane` holds four fields: `spec`, `coords` (the points as an (n, 3)
array), `code_index` (any nonzero vector -> its point) and `incidence`
(the sorted points of each line, an (n, q+1) array).
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
    """Scale so the leftmost nonzero coordinate is 1; rejects (0,0,0).
    Any length works: group elements normalize their nine entries here."""
    for c in t:
        if c:
            if c == 1:
                return tuple(t)
            inv = spec.inv_t[c]
            mul = spec.mul_t[inv]
            return tuple(mul[x] for x in t)
    raise ValueError("cannot normalize the zero triple")


class Plane:
    """PG(2,q) as its field and three read-only numpy arrays.

    The plane is self-dual and stored once: line i is the dual triple of
    point i, so row i of `incidence` lists the points on line i and,
    equally, the lines through point i.

    Immutable after build_plane; attributes:
      spec          the underlying Field
      coords        (n, 3) int16 array of normalized coordinate triples,
                    lex order; row i is point i and the dual triple of
                    line i
      code_index    int16 array of length q^3: the code (x*q + y)*q + z of
                    any nonzero vector -> the index of its point, so one
                    lookup maps vectors that numpy computed to points
      incidence     (n, q+1) int16 array: row i holds the sorted indices
                    of the points on line i, equally of the lines
                    through point i
    """

    def __init__(self, spec, coords, code_index, incidence):
        for a in (coords, code_index, incidence):
            a.flags.writeable = False
        self.spec = spec
        self.coords = coords
        self.code_index = code_index
        self.incidence = incidence

    @property
    def n(self) -> int:
        return len(self.coords)

    def __repr__(self):
        return f"Plane(q={self.spec.q}, {self.n} points)"


def build_plane(spec: Field) -> Plane:
    """Enumerate PG(2,q) and its full line/point incidence.

    The points in lex order are (0,0,1), (0,1,c) and (1,b,c), and the
    scalar multiples of each are entered in `code_index`.  Each line's
    q+1 points are read off its equation, with t, x and y running over
    GF(q):
      line (1,b,c) holds (-(b + c.t), 1, t) and (-c, 0, 1),
      line (0,1,c) holds (x, -c, 1) and (1, 0, 0),
      line (0,0,1) holds (1, y, 0) and (0, 1, 0).
    These vectors are not normalized: one `code_index` lookup names their
    points, and each row is sorted.  Codes are int32, since q^3 nears the
    int16 limit.
    """
    q = spec.q
    n, qq = q * q + q + 1, q * q
    t = np.arange(q, dtype=np.int32)
    pts = np.zeros((n, 3), dtype=np.int16)
    pts[0, 2] = pts[1 : q + 1, 1] = pts[q + 1 :, 0] = 1
    pts[1 : q + 1, 2] = t
    bc = pts[q + 1 :].reshape(q, q, 3)  # a view: row (b, c) is the point (1,b,c)
    bc[..., 1], bc[..., 2] = t[:, None], t

    lam = t[1:, None]
    m = spec.mul_np[1:].astype(np.int32)  # m[lam - 1, a] = lam.a for nonzero lam
    code_index = np.zeros(q**3, dtype=np.int16)  # lam.(0,0,1) has code lam: point 0
    code_index[lam * q + m] = 1 + t  # lam.(0,1,c) = (0, lam, lam.c)
    code_index[(lam * qq + q * m)[..., None] + m[:, None, :]] = q + 1 + np.arange(qq).reshape(q, q)

    neg = spec.mul_np[spec.p - 1].astype(np.int32)  # times -1, whose code is p - 1
    on = np.empty((n, q + 1), dtype=np.int32)  # the code of each point of each line
    on[0, :q], on[0, q] = qq + q * t, q
    on[1 : q + 1, :q], on[1 : q + 1, q] = qq * t + q * neg[:, None] + 1, qq
    bc = on[q + 1 :].reshape(q, q, q + 1)  # a view: row (b, c) is the line (1,b,c)
    bc[..., :q] = neg[spec.add_np[t[:, None, None], spec.mul_np[t[:, None], t]]] * qq + q + t
    bc[..., q] = neg * qq + 1
    return Plane(spec, pts, code_index, np.sort(code_index[on], axis=1))


def incident(spec: Field, line, point) -> bool:
    """True iff the point lies on the line (dual dot product vanishes)."""
    mul, add = spec.mul_t, spec.add_t
    return add[add[mul[line[0]][point[0]]][mul[line[1]][point[1]]]][mul[line[2]][point[2]]] == 0
