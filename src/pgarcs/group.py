"""Projective (semi)linear collineations of PG(2,q) and their orbits.

A group element is an invertible 3x3 matrix over GF(q) together with a
Frobenius exponent k; it maps a point x to M . x^(p^k) (coordinatewise
Frobenius first, then the matrix, acting on column vectors), taken up to
scalars.  Matrices are stored scalar-normalized: the first nonzero entry
in row-major order equals 1, which makes equality and hashing of
projective classes exact.  Groups are built by breadth-first closure from
generators, and orbit partitions on points and lines are computed from
the generators' permutations.  A permutation maps all points at once:
numpy applies the Frobenius table and the matrix to `Plane.coords` and
looks the image vectors up in `Plane.code_index`; `apply_to_point` and
`apply_to_line` are the one-point forms.

The normalizer N(G) in PGL(3,q) maps G-orbits to G-orbits, so it permutes
the variables of the orbit-condensed system.  `normalizer_permutations`
lists those permutations explicitly: it solves the linear conditions on
h's nine entries, enumerates each solution space modulo scalars with
numpy, maps a few probe points per candidate, and checks every
permutation it returns against the condensed system.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError, ParseError
from .geometry import Plane, _codes, _cross, normalize_triple
from .gf import Field, text_lines

__all__ = [
    "Group",
    "GroupElement",
    "OrbitData",
    "apply_to_line",
    "apply_to_point",
    "char_poly",
    "closure",
    "compose",
    "conjugate_element",
    "conjugate_group",
    "format_group_file",
    "identity_element",
    "inverse",
    "make_element",
    "normalizer_permutations",
    "orbits",
    "parse_group_file",
    "read_generators",
    "scalar_powers",
    "transpose_element",
]

CLOSURE_CAP = 10**6
NORMALIZER_CAP = 10**5  # candidate matrices modulo scalars; beyond it, no symmetry
_CHUNK = 1 << 14  # (candidate, probe point) pairs mapped per numpy step


@dataclass(frozen=True)
class GroupElement:
    """Scalar-normalized matrix plus Frobenius exponent."""

    mat: tuple
    frob: int = 0


def det3(spec: Field, m) -> int:
    mul = spec.mul_t
    add = spec.add_t
    neg = spec.neg_t
    (a, b, c), (d, e, f), (g, h, i) = m
    t1 = mul[a][add[mul[e][i]][neg[mul[f][h]]]]
    t2 = mul[b][add[mul[d][i]][neg[mul[f][g]]]]
    t3 = mul[c][add[mul[d][h]][neg[mul[e][g]]]]
    return add[add[t1][neg[t2]]][t3]


def char_poly(spec: Field, m):
    """Monic characteristic polynomial, coefficients low degree first."""
    mul = spec.mul_t
    add = spec.add_t
    neg = spec.neg_t
    (a, b, c), (d, e, f), (g, h, i) = m
    tr = add[add[a][e]][i]
    minors = add[
        add[add[mul[e][i]][neg[mul[f][h]]]][add[mul[a][i]][neg[mul[c][g]]]]
    ][add[mul[a][e]][neg[mul[b][d]]]]
    return (neg[det3(spec, m)], minors, neg[tr], 1)


def matmul3(spec: Field, x, y):
    mul = spec.mul_t
    add = spec.add_t
    return tuple(
        tuple(
            add[add[mul[x[i][0]][y[0][j]]][mul[x[i][1]][y[1][j]]]][mul[x[i][2]][y[2][j]]]
            for j in range(3)
        )
        for i in range(3)
    )


def matinv3(spec: Field, m):
    """Inverse via the adjugate; raises on singular input."""
    d = det3(spec, m)
    if d == 0:
        raise ValueError("matrix is singular")
    mul = spec.mul_t
    sub = lambda a, b: spec.add_t[a][spec.neg_t[b]]
    (a, b, c), (e, f, g), (h, i, j) = m
    cof = (
        (sub(mul[f][j], mul[g][i]), sub(mul[c][i], mul[b][j]), sub(mul[b][g], mul[c][f])),
        (sub(mul[g][h], mul[e][j]), sub(mul[a][j], mul[c][h]), sub(mul[c][e], mul[a][g])),
        (sub(mul[e][i], mul[f][h]), sub(mul[b][h], mul[a][i]), sub(mul[a][f], mul[b][e])),
    )
    dinv = spec.inv_t[d]
    row = spec.mul_t[dinv]
    return tuple(tuple(row[v] for v in r) for r in cof)


def _is_scalar(m):
    return m[0][1] == m[0][2] == m[1][0] == m[1][2] == m[2][0] == m[2][1] == 0 and m[0][0] == m[1][1] == m[2][2]


def scalar_powers(spec: Field, m):
    """[m, m^2, ..., m^k] for the least k >= 1 with m^k scalar, so k is the
    projective order of m."""
    powers = [m]
    while not _is_scalar(powers[-1]):
        if len(powers) > spec.q**2 + spec.q:
            raise AssertionError("projective order exceeded the group exponent bound")
        powers.append(matmul3(spec, powers[-1], m))
    return powers


def mat_transpose(m):
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))


def mat_frob(spec: Field, m, k: int):
    if k % spec.e == 0:
        return tuple(tuple(r) for r in m)
    return tuple(tuple(spec.frob(v, k) for v in r) for r in m)


def _normalize_mat(spec: Field, m):
    flat = normalize_triple(spec, [v for row in m for v in row])
    return flat[0:3], flat[3:6], flat[6:9]


def make_element(spec: Field, mat, frob: int = 0) -> GroupElement:
    """Validate, scalar-normalize and wrap a matrix as a group element."""
    mat = tuple(tuple(spec.check(v) for v in row) for row in mat)
    if len(mat) != 3 or any(len(r) != 3 for r in mat):
        raise ValueError("matrix must be 3x3")
    if det3(spec, mat) == 0:
        raise ValueError("matrix is singular")
    return GroupElement(_normalize_mat(spec, mat), frob % spec.e)


def identity_element(spec: Field) -> GroupElement:
    return GroupElement(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0)


def compose(spec: Field, g: GroupElement, h: GroupElement) -> GroupElement:
    """g after h: x -> g(h(x))."""
    mat = matmul3(spec, g.mat, mat_frob(spec, h.mat, g.frob))
    return GroupElement(_normalize_mat(spec, mat), (g.frob + h.frob) % spec.e)


def inverse(spec: Field, g: GroupElement) -> GroupElement:
    kinv = (-g.frob) % spec.e
    mat = mat_frob(spec, matinv3(spec, g.mat), kinv)
    return GroupElement(_normalize_mat(spec, mat), kinv)


def transpose_element(spec: Field, g: GroupElement) -> GroupElement:
    """Same matrix acting on row vectors instead (the transposed action)."""
    return GroupElement(_normalize_mat(spec, mat_transpose(g.mat)), g.frob)


def conjugate_element(spec: Field, alpha: GroupElement, beta: GroupElement) -> GroupElement:
    return compose(spec, compose(spec, alpha, beta), inverse(spec, alpha))


def apply_to_point(spec: Field, g: GroupElement, point):
    """Image of a normalized point: Frobenius, then the matrix, then normalize."""
    x = point if g.frob == 0 else tuple(spec.frob(v, g.frob) for v in point)
    mul = spec.mul_t
    add = spec.add_t
    m = g.mat
    y = tuple(
        add[add[mul[m[i][0]][x[0]]][mul[m[i][1]][x[1]]]][mul[m[i][2]][x[2]]]
        for i in range(3)
    )
    return normalize_triple(spec, y)


def apply_to_line(spec: Field, g: GroupElement, line):
    """Image line, computed from the inverse transpose of the matrix.

    If y = M x^s then d.x = 0 is equivalent to (M^-T d^s).y = 0, so the
    dual triple transforms by the same recipe with M replaced by its
    inverse transpose.
    """
    m = mat_transpose(matinv3(spec, g.mat))
    return apply_to_point(spec, GroupElement(m, g.frob), line)


class Group:
    """A finite subgroup of the collineation group, closed element list."""

    def __init__(self, spec: Field, generators, elements):
        self.spec = spec
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.order = len(self.elements)

    def __repr__(self):
        return f"Group(q={self.spec.q}, order={self.order})"


def closure(spec: Field, generators, cap: int = CLOSURE_CAP) -> Group:
    """Breadth-first closure of the generators, deterministic element order."""
    gens = [g if isinstance(g, GroupElement) else make_element(spec, g) for g in generators]
    ident = identity_element(spec)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = compose(spec, u, g)
                if v not in seen:
                    seen.add(v)
                    elements.append(v)
                    nxt.append(v)
                    if len(elements) > cap:
                        raise BudgetExceededError(
                            f"group closure exceeded cap of {cap} elements"
                        )
        frontier = nxt
    return Group(spec, gens, elements)


def conjugate_group(spec: Field, alpha: GroupElement, group: Group) -> Group:
    """The group alpha G alpha^-1, same order."""
    gens = [conjugate_element(spec, alpha, g) for g in group.generators]
    elems = [conjugate_element(spec, alpha, g) for g in group.elements]
    if len(set(elems)) != group.order:
        raise AssertionError("conjugation must preserve the group order")
    return Group(spec, gens, elems)


def point_permutation(plane: Plane, g: GroupElement):
    """The permutation of point indices induced by the element: every
    point mapped at once, as apply_to_point maps one."""
    spec = plane.spec
    pts = plane.coords
    if g.frob:
        pts = np.array([spec.frob(a, g.frob) for a in range(spec.q)], dtype=np.int16)[pts]
    image = _map_vectors(spec, np.array(g.mat, dtype=np.int16).reshape(1, 9), pts)[0]
    return tuple(plane.code_index[_codes(image, spec.q)].tolist())


def line_permutation(plane: Plane, g: GroupElement):
    """The permutation of line indices, by the inverse transpose of the
    matrix as in apply_to_line (lines and points share their triples)."""
    return point_permutation(plane, GroupElement(mat_transpose(matinv3(plane.spec, g.mat)), g.frob))


@dataclass(frozen=True)
class OrbitData:
    """Orbit partitions of a group on points and lines.

    point_orbits/line_orbits are sorted index tuples; representatives are
    the minimal indices; weights are the point-orbit lengths; ell is the
    common orbit count; *_orbit_of map an index to its orbit id;
    generators are those of the group that made the partition.
    """

    point_orbits: tuple
    line_orbits: tuple
    point_rep: tuple
    line_rep: tuple
    weights: tuple
    ell: int
    point_orbit_of: tuple
    line_orbit_of: tuple
    generators: tuple = ()


def _partition(n, perms):
    orbit_of = [-1] * n
    orbits_ = []
    for start in range(n):
        if orbit_of[start] >= 0:
            continue
        oid = len(orbits_)
        stack = [start]
        orbit_of[start] = oid
        members = [start]
        while stack:
            u = stack.pop()
            for perm in perms:
                v = perm[u]
                if orbit_of[v] < 0:
                    orbit_of[v] = oid
                    members.append(v)
                    stack.append(v)
        orbits_.append(tuple(sorted(members)))
    return tuple(orbits_), tuple(orbit_of)


def orbits(plane: Plane, group: Group) -> OrbitData:
    """Orbit partition from the generators' point/line permutations."""
    if group.spec != plane.spec:
        raise ValueError("group and plane live over different fields")
    pperms = [point_permutation(plane, g) for g in group.generators]
    lperms = [line_permutation(plane, g) for g in group.generators]
    point_orbits, point_orbit_of = _partition(plane.n, pperms)
    line_orbits, line_orbit_of = _partition(plane.n, lperms)
    if len(point_orbits) != len(line_orbits):
        raise AssertionError("point and line orbit counts must agree")
    weights = tuple(len(o) for o in point_orbits)
    assert sum(weights) == plane.n
    return OrbitData(
        point_orbits=point_orbits,
        line_orbits=line_orbits,
        point_rep=tuple(o[0] for o in point_orbits),
        line_rep=tuple(o[0] for o in line_orbits),
        weights=weights,
        ell=len(point_orbits),
        point_orbit_of=point_orbit_of,
        line_orbit_of=line_orbit_of,
        generators=group.generators,
    )


def _null_space(spec: Field, rows, n=9):
    """A basis of {h in GF(q)^n : row . h = 0 for every row}."""
    mul, add, neg, inv = spec.mul_t, spec.add_t, spec.neg_t, spec.inv_t
    mat = [list(row) for row in rows]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        scale = mul[inv[mat[rank][col]]]
        mat[rank] = [scale[v] for v in mat[rank]]
        for i, row in enumerate(mat):
            if i != rank and row[col]:
                f = mul[neg[row[col]]]
                mat[i] = [add[v][f[u]] for v, u in zip(row, mat[rank])]
        pivots.append(col)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for row, col in zip(mat, pivots):
            v[col] = neg[row[free]]
        basis.append(v)
    return basis


def _commutation_rows(spec: Field, g, m):
    """The equations h.g = m.h, linear in the entries h[x][y] (index 3x+y)."""
    rows = []
    for a in range(3):
        for c in range(3):
            row = [0] * 9
            for y in range(3):
                row[3 * a + y] = g[y][c]
            for x in range(3):
                row[3 * x + c] = spec.add_t[row[3 * x + c]][spec.neg_t[m[a][x]]]
            rows.append(row)
    return rows


def _normalizer_spaces(spec: Field, generators):
    """Bases of the solution spaces whose invertible members, modulo
    scalars, form the symmetry group used for the search.

    One generator g of projective order m: h.g = mu.g^k.h for every k
    coprime to m and every scalar mu for which mu.g^k and g share a
    characteristic polynomial, which together is the normalizer of <g>.
    Several generators: h.g_i = mu_i.g_i.h for all i, the intersection of
    their centralizers, a subgroup of N(G).  No generator: all of PGL(3,q).
    """
    mul = spec.mul_t
    mats = [g.mat for g in generators]
    if len(mats) == 1:
        powers = scalar_powers(spec, mats[0])
        targets = [[m for k, m in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1]]
    else:
        targets = [[g] for g in mats]
    options = []
    for g, images in zip(mats, targets):
        want = char_poly(spec, g)
        rows = []
        for m in images:
            c0, c1, c2, _ = char_poly(spec, m)
            for mu in range(1, spec.q):
                mu2 = mul[mu][mu]
                if (mul[mul[mu2][mu]][c0], mul[mu2][c1], mul[mu][c2], 1) == want:
                    scaled = tuple(tuple(mul[mu][v] for v in r) for r in m)
                    rows.append(_commutation_rows(spec, g, scaled))
        options.append(rows)
    spaces = []
    for combo in product(*options):
        basis = _null_space(spec, [row for rows in combo for row in rows])
        if basis:
            spaces.append(basis)
    return spaces


def _map_vectors(spec: Field, mats, vecs):
    """mats (N, 9) applied to vecs (P, 3): images of shape (N, P, 3)."""
    q = spec.q
    add = spec.add_np.ravel()
    times = [spec.mul_np[:, vecs[:, b]] for b in range(3)]  # times[b][c] = c * vecs[:, b]
    out = []
    for a in range(3):
        t = [times[b][mats[:, 3 * a + b]] for b in range(3)]
        out.append(add[add[t[0] * q + t[1]] * q + t[2]])
    return np.stack(out, axis=-1)


def _candidate_images(spec: Field, basis, probe):
    """Images of the probe vectors under every member of span(basis)
    modulo scalars, chunk by chunk: the leading coefficient is 1, the
    trailing dimensions are tabulated once, the others looped over."""
    q = spec.q
    add = spec.add_np.ravel()
    base = _map_vectors(spec, np.array(basis, dtype=np.int16), probe)
    multiples = spec.mul_np[np.arange(q)[:, None, None, None], base[None]]  # c * base[b]
    d = len(basis)
    for lead in range(d):
        free = list(range(lead + 1, d))
        inner = 0
        while inner < len(free) and q ** (inner + 1) * len(probe) <= _CHUNK:
            inner += 1
        split = len(free) - inner
        table = np.zeros((1,) + probe.shape, dtype=np.int16)
        for b in free[split:]:
            table = add[table[:, None] * q + multiples[:, b][None]].reshape((-1,) + probe.shape)
        for coeffs in product(range(q), repeat=split):
            start = base[lead]
            for c, b in zip(coeffs, free):
                start = add[start * q + multiples[c, b]]
            yield add[start[None] * q + table]


def _batched(chunks, size):
    """Concatenate consecutive chunks until each batch holds `size` rows."""
    batch, rows = [], 0
    for chunk in chunks:
        batch.append(chunk)
        rows += len(chunk)
        if rows >= size:
            yield np.concatenate(batch)
            batch, rows = [], 0
    if batch:
        yield np.concatenate(batch)


def _absent(sorted_keys, keys):
    """Mask of the keys that do not occur in the sorted array."""
    if not len(sorted_keys):
        return np.ones(len(keys), dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, keys), mode="clip") != keys


def _is_permutation(perms):
    return (np.sort(perms, axis=1) == np.arange(perms.shape[1])).all()


def normalizer_permutations(plane: Plane, orb: OrbitData, A, w, deadline=math.inf):
    """The permutations of the orbit variables induced by N(G).

    Returns (order, perms): the number of elements of the group found in
    PGL(3,q) (see `_normalizer_spaces`), and an int16 array with one row
    per distinct permutation sigma of the point orbits.  Every row is
    checked, with the line-orbit permutation tau of an element h inducing
    it: w[sigma] = w and A[tau(i)][sigma(j)] = A[i][j], or RuntimeError.
    None when a generator is semilinear or there are more than
    NORMALIZER_CAP candidates; BudgetExceededError once the deadline
    passes.
    """
    spec = plane.spec
    q, ell = spec.q, orb.ell
    if any(g.frob for g in orb.generators):
        return None
    spaces = _normalizer_spaces(spec, orb.generators)
    candidates = sum((q ** len(b) - 1) // (q - 1) for b in spaces)
    if candidates > NORMALIZER_CAP:
        return None
    pts, code_index = plane.coords, plane.code_index
    # probes: the unit vectors, whose images are h's columns, then the
    # representative of every point orbit
    probe = np.concatenate([np.eye(3, dtype=np.int16), pts[list(orb.point_rep)]])
    point_orbit = np.array(orb.point_orbit_of, dtype=np.int16)
    line_orbit = np.array(orb.line_orbit_of, dtype=np.int16)
    line_rep = pts[list(orb.line_rep)]  # lines and points share their triples
    A = np.array(A, dtype=np.int16)
    w = np.array(w)
    rows, cols = np.nonzero(A)
    ident = np.arange(ell)
    weights = np.random.default_rng(0).integers(1 << 62, size=ell)  # row hashes
    order = kernel = count = 0
    seen = np.empty(0, dtype=np.int64)
    perms = np.empty((candidates, ell), dtype=np.int16)  # memory is touched only as rows fill
    chunks = (images for basis in spaces for images in _candidate_images(spec, basis, probe))
    for images in _batched(chunks, _CHUNK // len(probe)):
        if time.monotonic() > deadline:
            raise BudgetExceededError("deadline passed while listing the normalizer")
        a, b, c = images[:, 0], images[:, 1], images[:, 2]
        crosses = (_cross(spec, b, c), _cross(spec, c, a), _cross(spec, a, b))
        t = spec.mul_np[a, crosses[0]]  # det = a . (b x c)
        invertible = np.flatnonzero(spec.add_np[spec.add_np[t[:, 0], t[:, 1]], t[:, 2]])
        sigma = point_orbit[code_index[_codes(images[invertible, 3:], q)]]
        order += len(sigma)
        kernel += int((sigma == ident).all(axis=1).sum())
        keys, first = np.unique(sigma.astype(np.int64) @ weights, return_index=True)
        new = _absent(seen, keys)
        if not new.any():
            continue
        seen = np.sort(np.concatenate([seen, keys[new]]), kind="stable")  # merges two sorted runs
        first = first[new]
        sigma = sigma[first]
        # h^-T is proportional to the matrix with columns b x c, c x a, a x b
        cof = np.stack([x[invertible[first]] for x in crosses], axis=-1).reshape(len(first), 9)
        tau = line_orbit[code_index[_codes(_map_vectors(spec, cof, line_rep), q)]]
        if not (
            _is_permutation(sigma)
            and _is_permutation(tau)
            and (w[sigma] == w).all()
            and (A[tau[:, rows], sigma[:, cols]] == A[rows, cols]).all()
        ):
            raise RuntimeError("a normalizer element does not preserve the condensed system")
        perms[count : count + len(sigma)] = sigma
        count += len(sigma)
    # the kernel of h -> sigma has `kernel` elements, so the image has
    # order / kernel: fewer rows would mean two permutations shared a hash
    if count * kernel != order:
        raise RuntimeError("the permutations found are not the whole image of the group")
    return order, perms[:count]


def read_generators(lines, spec: Field):
    """Generators from `gf.text_lines` pairs: nine codes per line,
    optional trailing frob=<k>."""
    gens = []
    for lineno, line in lines:
        tokens = line.split()
        frob = 0
        if tokens[-1].startswith("frob="):
            try:
                frob = int(tokens[-1][5:])
            except ValueError:
                raise ParseError(f"bad frobenius suffix {tokens[-1]!r}", lineno)
            tokens = tokens[:-1]
        if len(tokens) != 9:
            raise ParseError(f"expected 9 matrix entries, got {len(tokens)}", lineno)
        try:
            vals = [int(t) for t in tokens]
        except ValueError:
            raise ParseError("matrix entries must be integers", lineno)
        mat = (tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9]))
        try:
            gens.append(make_element(spec, mat, frob))
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
    return gens


def parse_group_file(text: str, spec: Field):
    """Generators from the text of a group file."""
    return read_generators(text_lines(text), spec)


def format_group_file(generators) -> str:
    out = []
    for g in generators:
        row = " ".join(str(v) for r in g.mat for v in r)
        if g.frob:
            row += f" frob={g.frob}"
        out.append(row)
    return "\n".join(out) + "\n"
