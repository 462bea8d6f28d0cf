"""The projective plane PG(2,q): normalized points, lines as dual triples,
incidence, and subspace counts.

Points are the 1-subspaces of GF(q)^3, stored as coordinate triples scaled
so the leftmost nonzero coordinate is 1.  A line (2-subspace) is stored by
its dual triple d, normalized the same way, and consists of the points x
with d.x = 0.  Enumeration is lexicographic by coded coordinates, so every
plane, matrix, and orbit representative downstream is reproducible.

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
    neg = mul[spec.p - 1]  # times -1, whose code is p - 1
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
    on_lines = code_index[_codes(np.concatenate([on, v[:, None]], axis=1), q)]
    return Plane(spec, pts, code_index, np.sort(on_lines, axis=1))


def incident(spec: Field, line, point) -> bool:
    """True iff the point lies on the line (dual dot product vanishes)."""
    mul, add = spec.mul_t, spec.add_t
    return add[add[mul[line[0]][point[0]]][mul[line[1]][point[1]]]][mul[line[2]][point[2]]] == 0
