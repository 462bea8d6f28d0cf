from itertools import combinations

import numpy as np
import pytest

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


def test_fano_plane():
    plane = build_plane(Field(2))
    assert plane.n == 7
    assert len(plane.lines) == 7
    assert all(len(pts) == 3 for pts in plane.incidence)


def test_q31_counts():
    plane = build_plane(Field(31))
    assert plane.n == 993
    assert len(plane.lines) == 993


def test_every_pair_on_one_line_q4():
    plane = build_plane(field_for_order(4))
    for i, j in combinations(range(plane.n), 2):
        common = set(plane.lines_through[i]) & set(plane.lines_through[j])
        assert len(common) == 1


def test_incident_examples():
    f = Field(5)
    assert incident(f, (1, 0, 0), (0, 0, 1))
    assert not incident(f, (1, 0, 0), (1, 0, 0))


def test_line_sizes_q16():
    plane = build_plane(field_for_order(16))
    assert all(len(pts) == 17 for pts in plane.incidence)
    assert all(len(ls) == 17 for ls in plane.lines_through)


def test_incidence_matrix_row_col_sums():
    for q in (2, 3, 5):
        plane = build_plane(Field(q))
        mat = plane.inc
        assert (mat.sum(axis=1) == q + 1).all()
        assert (mat.sum(axis=0) == q + 1).all()


def test_matrix_matches_incidence_lists_q5():
    plane = build_plane(Field(5))
    rebuilt = np.zeros_like(plane.inc)
    for i, pts in enumerate(plane.incidence):
        for j in pts:
            rebuilt[i, j] = 1
    assert (rebuilt == plane.inc).all()
    # independent double construction from the scalar dot product
    direct = np.array(
        [
            [1 if incident(plane.spec, l, p) else 0 for p in plane.points]
            for l in plane.lines
        ],
        dtype=np.uint8,
    )
    assert (direct == plane.inc).all()


def test_duality_small_q():
    for q in (2, 3, 4, 5, 7, 8, 9):
        plane = build_plane(field_for_order(q))
        mat = plane.inc
        # swapping the roles of points and lines gives the transpose
        dual = np.array(
            [
                [1 if incident(plane.spec, p, l) else 0 for l in plane.lines]
                for p in plane.points
            ],
            dtype=np.uint8,
        )
        assert (dual == mat.T).all()


def test_normalization_idempotent_scale_invariant():
    f = field_for_order(9)
    for t in ((0, 0, 4), (0, 3, 7), (2, 8, 1), (1, 0, 0)):
        norm = normalize_triple(f, t)
        assert normalize_triple(f, norm) == norm
        for lam in range(1, 9):
            scaled = tuple(f.mul(lam, c) for c in t)
            assert normalize_triple(f, scaled) == norm
    with pytest.raises(ValueError):
        normalize_triple(f, (0, 0, 0))


def test_counts_match_gaussian():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        plane = build_plane(field_for_order(q))
        assert plane.n == gaussian_number(3, 1, q)
        assert len(plane.lines) == gaussian_number(3, 2, q)
