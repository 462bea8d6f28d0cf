from itertools import combinations

import hashlib

import numpy as np
import pytest

from conftest import normalized_triples
from pgarcs.gf import Field, field_for_order
from pgarcs.geometry import (
    build_plane,
    gaussian_number,
    incident,
    normalize_triple,
)


def brute_force_subspace_count(n, k, q):
    """Count k-subspaces of GF(q)^n by enumerating spans (q prime only)."""
    vectors = []
    for code in range(q**n):
        v = tuple((code // q**i) % q for i in range(n))
        vectors.append(v)

    def span(basis):
        out = {tuple([0] * n)}
        for b in basis:
            out = {
                tuple((x + c * y) % q for x, y in zip(v, b))
                for v in out
                for c in range(q)
            }
        return frozenset(out)

    subspaces = set()
    for basis in combinations(vectors[1:], k):
        s = span(basis)
        if len(s) == q**k:
            subspaces.add(s)
    return len(subspaces)


def test_gaussian_examples():
    assert gaussian_number(3, 1, 5) == 31
    assert gaussian_number(5, 0, 7) == 1
    assert gaussian_number(4, 2, 2) == 35
    assert brute_force_subspace_count(4, 2, 2) == 35
    for q in (2, 3, 4, 5):
        assert gaussian_number(3, 1, q) == q * q + q + 1
        assert gaussian_number(3, 2, q) == q * q + q + 1
    with pytest.raises(ValueError):
        gaussian_number(2, 3, 5)


def incidence_matrix(plane):
    """The n x n 0/1 matrix of the stored incidence: rows lines, columns points."""
    mat = np.zeros((plane.n, plane.n), dtype=np.uint8)
    mat[np.arange(plane.n)[:, None], plane.incidence] = 1
    return mat


def test_fano_plane():
    plane = build_plane(Field(2))
    assert plane.n == 7
    assert plane.incidence.shape == (7, 3)


def test_q31_counts():
    plane = build_plane(Field(31))
    assert plane.n == 993
    assert plane.incidence.shape == (993, 32)


def test_every_pair_on_one_line_q4():
    plane = build_plane(field_for_order(4))
    rows = plane.incidence.tolist()
    for i, j in combinations(range(plane.n), 2):
        common = set(rows[i]) & set(rows[j])
        assert len(common) == 1


def test_incident_examples():
    f = Field(5)
    assert incident(f, (1, 0, 0), (0, 0, 1))
    assert not incident(f, (1, 0, 0), (1, 0, 0))


def test_line_sizes_q16():
    plane = build_plane(field_for_order(16))
    assert plane.incidence.shape == (plane.n, 17)
    # self-dual: j is on line i iff line j passes through point i
    mat = incidence_matrix(plane)
    assert (mat == mat.T).all()


def test_incidence_matrix_row_col_sums():
    for q in (2, 3, 5):
        plane = build_plane(Field(q))
        mat = incidence_matrix(plane)
        assert (mat.sum(axis=1) == q + 1).all()
        assert (mat.sum(axis=0) == q + 1).all()


def test_matrix_matches_incidence_lists_q5():
    plane = build_plane(Field(5))
    triples = normalized_triples(5)
    direct = np.array(
        [[1 if incident(plane.spec, l, p) else 0 for p in triples] for l in triples],
        dtype=np.uint8,
    )
    assert (direct == incidence_matrix(plane)).all()


def test_duality_small_q():
    for q in (2, 3, 4, 5, 7, 8, 9):
        plane = build_plane(field_for_order(q))
        triples = normalized_triples(q)
        # swapping the roles of points and lines gives the transpose
        dual = np.array(
            [[1 if incident(plane.spec, p, l) else 0 for l in triples] for p in triples],
            dtype=np.uint8,
        )
        assert (dual == incidence_matrix(plane).T).all()


def dot_product_incidence(spec, points):
    """inc[i, j] = 1 iff line i . point j = 0, summed with the field's
    tables for every (line, point) pair."""
    pts = np.array(points, dtype=np.int16)
    add, mul = spec.add_np, spec.mul_np
    terms = [mul[pts[:, None, k], pts[None, :, k]] for k in range(3)]
    return (add[add[terms[0], terms[1]], terms[2]] == 0).astype(np.uint8)


# every q up to 31, each with the sha256 of its plane's coords, code_index
# and incidence bytes, in that order, as the u + t.v construction (a
# cross-product basis per line) built them
PLANE_SHA256 = {
    2: "e745db4e4f02d3d161e0d98822754b41522889d38032b57f75c4483a45058c1f",
    3: "22ee4673e7a6bcc6b159596fa5c8b27ec298e6230021e852aaef83b26acd1952",
    4: "7efad6b53c9b09077dddca006fbb20141878b7e08e1eb2f9fddede70b3e58198",
    5: "2b228248ca8eb90453031fe92c012d3344eb841e200b212bb4d8d4cebb36681c",
    7: "5e77ab88186759f176da8a77a44b4e9911739f20c57a154fb3df7669ac45dd76",
    8: "843c784c6749cb756b5b5e88e2783ccf0cf6a2fe5736770342b87da7fbfc7ac0",
    9: "d670ee2d6bff0b95fccae84f2de34d7e6b3ac2320ceffb2fd901f39951da371e",
    11: "5f9ec624f72580cc6cf70d21d0f2a660585b2e5b0eaa214040929f48102ac817",
    13: "0a1a66d97f0489bce2b2d5f5c72ad3fde19cf22795ae88db7750eb6096392497",
    16: "1a0a2d7575cc733815c1020a26ed2977686fbf07053543a4d607ce49c08209ae",
    17: "4cd5b44382d2cfcdbc9fef7649e67a52fc522637f4c1dbd0043b110a264d2e76",
    19: "db9a27c26e8b6aa0ebf3c3c15dd8fdf05902bdb7317ef992608bd802aa066d0d",
    23: "2a79903daddbc45c9e9e72c33c670bff0ae8c1be3607ce690dce46ca7a5bf6a7",
    25: "1c307990147b35066cf87ff2d97a88ebd84a7fb9d10f58c73673c6d3b61706f3",
    27: "7a3e00bb1e76495d23197cc753fe4506df32baf07c2ac6e484a74cfede47d61f",
    29: "8617d6cbb28d97abc8dfbf7a9ef4314754fe4e31f4ee1eafe726fdc8f124fe71",
    31: "673483b0287836983a1a05eec5236e51b56f23f99cdf3e15c3b7bbfe4434287e",
}


@pytest.mark.parametrize("q", PLANE_SHA256)
def test_plane_bytes_are_pinned(q):
    plane = build_plane(field_for_order(q))
    digest = hashlib.sha256()
    for a in (plane.coords, plane.code_index, plane.incidence):
        assert a.dtype == np.int16
        digest.update(a.tobytes())
    assert plane.incidence.shape == (plane.n, q + 1)
    assert digest.hexdigest() == PLANE_SHA256[q]


@pytest.mark.parametrize("q", PLANE_SHA256)
def test_plane_matches_the_dot_product(q):
    spec = field_for_order(q)
    plane = build_plane(spec)
    triples = normalized_triples(q)
    assert plane.coords.dtype == plane.incidence.dtype == np.int16
    assert plane.coords.tolist() == [list(t) for t in triples]
    ref = dot_product_incidence(spec, triples)
    assert plane.incidence.shape == (plane.n, q + 1)
    assert (plane.incidence == np.nonzero(ref)[1].reshape(plane.n, q + 1)).all()
    for i, point in enumerate(triples):
        for lam in range(1, q):
            x, y, z = (spec.mul_t[lam][c] for c in point)
            assert plane.code_index[(x * q + y) * q + z] == i


def test_plane_is_read_only():
    plane = build_plane(Field(3))
    for a in (plane.coords, plane.code_index, plane.incidence):
        with pytest.raises(ValueError):
            a[0] = 0


def test_normalization_idempotent_scale_invariant():
    f = field_for_order(9)
    for t in ((0, 0, 4), (0, 3, 7), (2, 8, 1), (1, 0, 0)):
        norm = normalize_triple(f, t)
        assert normalize_triple(f, norm) == norm
        for lam in range(1, 9):
            scaled = tuple(f.mul_t[lam][c] for c in t)
            assert normalize_triple(f, scaled) == norm
    with pytest.raises(ValueError):
        normalize_triple(f, (0, 0, 0))


def test_counts_match_gaussian():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        plane = build_plane(field_for_order(q))
        assert plane.n == gaussian_number(3, 1, q)
        assert len(plane.incidence) == gaussian_number(3, 2, q)
