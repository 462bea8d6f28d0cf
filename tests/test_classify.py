import functools
import hashlib
import itertools

import numpy as np
import pytest

from pgarcs.classify import (
    canonical_label,
    enumerate_cyclic_classes,
    gl3_class_representatives,
    min_poly,
    pgl_label,
    run_exclusion,
)
from pgarcs.gf import Field
from pgarcs.group import char_poly, closure, compose, inverse, make_element


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_class_count_is_p2_p_2_exactly_when_3_divides_p_minus_1(p):
    # conjugacy classes of PGL(3,p), the trivial class included
    classes = enumerate_cyclic_classes(p)
    assert len(classes) == p * p + p + (2 if (p - 1) % 3 == 0 else 0)
    assert [c.is_trivial for c in classes].count(True) == 1
    assert classes[0].is_trivial


CLASS_DIGESTS = {
    2: "3fedfd2e5d43a0788bc85d3c8d51ff9d9e1b4578c90f273cfe5ab109ba723e81",
    3: "b7a78c28111c5202bdc37db7edde52ca56c30943b8fa1124a5d673a19866a48f",
    5: "922807336348ca4665ae21fb8b54a513354fd4dfb78384c261092040a344f9ba",
    7: "4e2db3af77e04060d65ccfbd5c2e506042bd2ad5a1c51acfc9bd3fab99f1b0ee",
    11: "c4c7e8e007ae80742ca7d5f0c42b913de52bfe305f46a25182374e5bfbd3da19",
}


@pytest.mark.parametrize("p", sorted(CLASS_DIGESTS))
def test_the_class_list_is_frozen(p):
    # ids, orders, labels, signatures and generators, as listed when each
    # scalar multiple still got its own canonical_label
    rows = [
        (c.class_id, c.projective_order, c.label, c.signature, c.generator.mat, c.generator.frob)
        for c in enumerate_cyclic_classes(p)
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CLASS_DIGESTS[p]


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_pgl_label_is_the_least_label_of_a_scalar_multiple(p):
    spec = Field(p)
    for m in gl3_class_representatives(p):
        multiples = (tuple(tuple(spec.mul_t[lam][v] for v in row) for row in m) for lam in range(1, p))
        assert pgl_label(spec, m) == min(canonical_label(spec, x) for x in multiples)


def test_a_sweep_accepts_only_one_thread():
    with pytest.raises(ValueError):
        run_exclusion(3, 2, 5, threads=2)


def invertible_matrices(p):
    """Every invertible 3x3 matrix over GF(p), an (N, 3, 3) array of residues."""
    mats = np.array(list(itertools.product(range(p), repeat=9))).reshape(-1, 3, 3)
    return mats[np.round(np.linalg.det(mats)).astype(np.int64) % p != 0]


def lowest_annihilators(p, mats):
    """Per matrix, the monic polynomial of least degree that it satisfies,
    found by trying every monic polynomial of degree 1, 2 and 3."""
    powers = [np.broadcast_to(np.eye(3, dtype=np.int64), mats.shape)]
    for _ in range(3):
        powers.append(powers[-1] @ mats % p)
    P = np.stack([x.reshape(len(mats), 9) for x in powers], axis=1)  # I, m, m^2, m^3
    found = [None] * len(mats)
    for d in (1, 2, 3):
        coeffs = np.array(list(itertools.product(range(p), repeat=d)))  # low degree first
        hit = ~((np.einsum("cd,ndk->nck", coeffs, P[:, :d]) + P[:, None, d]) % p).any(axis=2)
        for i in np.flatnonzero(hit.any(axis=1)):
            if found[i] is None:
                found[i] = tuple(int(c) for c in coeffs[hit[i].argmax()]) + (1,)
    return found


@pytest.mark.parametrize("p", (2, 3))
def test_min_poly_is_the_lowest_degree_annihilator(p):
    spec = Field(p)
    mats = invertible_matrices(p)
    assert len(mats) == {2: 168, 3: 11232}[p]
    got = [min_poly(spec, tuple(map(tuple, m.tolist()))) for m in mats]
    assert got == lowest_annihilators(p, mats)


def poly_mul(p, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def divides(p, f, g):
    """Whether monic f divides g over GF(p), by long division."""
    g = list(g)
    for top in range(len(g) - 1, len(f) - 2, -1):
        c = g[top]
        for i, a in enumerate(f):
            g[top - len(f) + 1 + i] = (g[top - len(f) + 1 + i] - c * a) % p
    return not any(g)


@pytest.mark.parametrize("p", (2, 3))
def test_the_labels_are_invariant_factors(p):
    # monic, each dividing the next, with the characteristic polynomial
    # as their product
    spec = Field(p)
    for m in invertible_matrices(p):
        m = tuple(map(tuple, m.tolist()))
        label = canonical_label(spec, m)
        assert all(f[-1] == 1 for f in label)
        assert all(divides(p, f, g) for f, g in zip(label, label[1:]))
        assert functools.reduce(functools.partial(poly_mul, p), label) == char_poly(spec, m)


def test_a_diagonal_matrix_is_told_apart_from_a_jordan_block():
    spec = Field(3)
    diagonal = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    assert min_poly(spec, diagonal) == (2, 0, 1)  # x^2 - 1
    assert canonical_label(spec, diagonal) != canonical_label(spec, ((1, 1, 0), (0, 1, 0), (0, 0, 2)))


@functools.cache
def pgl(p):
    """Every element of PGL(3,p) with its inverse."""
    spec = Field(p)
    elements = sorted({make_element(spec, m.tolist()) for m in invertible_matrices(p)}, key=lambda g: g.mat)
    return [(a, inverse(spec, a)) for a in elements]


@pytest.mark.parametrize("p", (2, 3))
def test_the_classes_are_one_element_of_each_conjugacy_class(p):
    spec = Field(p)
    assert len(pgl(p)) == {2: 168, 3: 5616}[p]
    unseen = {a for a, _ in pgl(p)}
    class_of = {}
    while unseen:
        g = min(unseen, key=lambda g: g.mat)
        conjugates = {compose(spec, compose(spec, a, g), a_inv) for a, a_inv in pgl(p)}
        class_of.update(dict.fromkeys(conjugates, g))
        unseen -= conjugates
    reps = [class_of[c.generator] for c in enumerate_cyclic_classes(p)]
    assert sorted(reps, key=lambda g: g.mat) == sorted(set(class_of.values()), key=lambda g: g.mat)


@pytest.mark.parametrize("p", (2, 3))
def test_equal_signatures_exactly_for_conjugate_cyclic_subgroups(p):
    # <g> and <h> are conjugate when g and h have the same order and some
    # a in PGL(3,p) has a.g.a^-1 in <h>
    spec = Field(p)
    classes = [c for c in enumerate_cyclic_classes(p) if not c.is_trivial]
    subgroups = [set(closure(spec, [c.generator]).elements) for c in classes]
    for (i, g), (j, h) in itertools.combinations(enumerate(classes), 2):
        conjugate = g.projective_order == h.projective_order and any(
            compose(spec, compose(spec, a, g.generator), a_inv) in subgroups[j] for a, a_inv in pgl(p)
        )
        assert (g.signature == h.signature) == conjugate, (i, j)
