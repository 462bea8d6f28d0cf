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


def dot(spec: Field, u, v) -> int:
    mul = spec.mul_t
    add = spec.add_t
    return add[add[mul[u[0]][v[0]]][mul[u[1]][v[1]]]][mul[u[2]][v[2]]]


class Plane:
    """PG(2,q) with indexed points/lines and incidence lists.

    The plane is self-dual and stored once: line i is the dual triple of
    point i, so `lines` is the very tuple `points` and `inc` is symmetric.
    Hence `point_index` also indexes lines, and `incidence` also lists the
    lines through each point.

    Immutable after build_plane; attributes:
      spec          the underlying Field
      points        tuple of normalized coordinate triples, lex order
      lines         the same tuple, read as dual triples
      coords        the points as an (n, 3) int16 array
      point_index   triple -> index, of a point or a line
      code_index    int16 array of length q^3: the code (x*q + y)*q + z of
                    any nonzero vector -> the index of its point, so one
                    lookup maps vectors that numpy computed to points
      incidence     per line, sorted tuple of incident point indices;
                    equally, per point, the lines through it
      inc           symmetric numpy uint8 matrix, rows = lines, cols = points
    """

    def __init__(self, spec, points, code_index, on_lines):
        n = len(points)
        self.spec = spec
        self.points = self.lines = points
        self.coords = np.array(points, dtype=np.int16)
        self.point_index = {t: i for i, t in enumerate(points)}
        self.code_index = code_index
        on_lines = np.sort(on_lines, axis=1)
        self.incidence = tuple(map(tuple, on_lines.tolist()))
        self.inc = np.zeros((n, n), dtype=np.uint8)
        self.inc[np.arange(n)[:, None], on_lines] = 1

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


def _codes(vecs, q):
    v = vecs.astype(np.int32)
    return (v[..., 0] * q + v[..., 1]) * q + v[..., 2]


def _cross(spec: Field, u, v):
    """Cross products of the rows of u and v, shape (N, 3)."""
    add, mul = spec.add_np, spec.mul_np
    neg = np.array(spec.neg_t, dtype=np.int16)
    return np.stack(
        [add[mul[u[:, i], v[:, j]], neg[mul[u[:, j], v[:, i]]]] for i, j in ((1, 2), (2, 0), (0, 1))],
        axis=-1,
    )


def build_plane(spec: Field) -> Plane:
    """Enumerate PG(2,q) and its full line/point incidence.

    A line l with its first nonzero coordinate at k holds the independent
    points u = l x e_(k+1) and v = l x e_(k+2), so its q+1 points are
    u + t.v for t in GF(q), and v.
    """
    q = spec.q
    triples = _normalized_triples(q)
    assert len(triples) == gaussian_number(3, 1, q)
    pts = np.array(triples, dtype=np.int16)
    code_index = np.zeros(q**3, dtype=np.int16)
    code_index[_codes(spec.mul_np[np.arange(1, q)[:, None, None], pts[None]], q)] = np.arange(len(pts))
    k = np.array([t.index(1) for t in triples])  # the leading coordinate is 1
    u, v = (_cross(spec, pts, np.eye(3, dtype=np.int16)[(k + s) % 3]) for s in (1, 2))
    on = spec.add_np[u[:, None], spec.mul_np[np.arange(q)[None, :, None], v[:, None]]]
    return Plane(spec, triples, code_index, code_index[_codes(np.concatenate([on, v[:, None]], axis=1), q)])


def incident(spec: Field, line, point) -> bool:
    """True iff the point lies on the line (dual dot product vanishes)."""
    return dot(spec, line, point) == 0
