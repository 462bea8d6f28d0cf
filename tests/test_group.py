import random

import numpy as np
import pytest

from pgarcs.condense import condense
from pgarcs.errors import BudgetExceededError, ParseError
from pgarcs.gf import Field, field_for_order
from pgarcs.geometry import build_plane, incident
from pgarcs.group import (
    GroupElement,
    apply_to_line,
    apply_to_point,
    closure,
    compose,
    conjugate_element,
    conjugate_group,
    format_group_file,
    identity_element,
    inverse,
    line_permutation,
    make_element,
    normalizer_permutations,
    orbits,
    parse_group_file,
    point_permutation,
)

S3_GENS = (
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
)

C0_Q13 = ((0, 1, 0), (1, 0, 0), (0, 0, 12))


def random_invertible(spec, rng):
    while True:
        mat = tuple(
            tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3)
        )
        try:
            return make_element(spec, mat)
        except ValueError:
            continue


def test_identity_fixes_points():
    f = field_for_order(9)
    plane = build_plane(f)
    ident = identity_element(f)
    for p in plane.points:
        assert apply_to_point(f, ident, p) == p
        assert apply_to_line(f, ident, p) == p


def test_cyclic_shift_on_gf16_point():
    f = field_for_order(16)
    g = make_element(f, S3_GENS[0])
    # (1,4,0) -> (4,0,1), normalized to (1,0,inv(4))
    assert apply_to_point(f, g, (1, 4, 0)) == (1, 0, f.inv(4))


def test_action_is_permutation():
    f = Field(7)
    plane = build_plane(f)
    rng = random.Random(1)
    for _ in range(5):
        g = random_invertible(f, rng)
        perm = point_permutation(plane, g)
        assert sorted(perm) == list(range(plane.n))


def test_line_image_matches_pointwise_image():
    f = field_for_order(8)
    plane = build_plane(f)
    rng = random.Random(2)
    for _ in range(5):
        g = random_invertible(f, rng)
        for li in (0, 3, 17):
            line = plane.lines[li]
            moved = apply_to_line(f, g, line)
            image_pts = {
                apply_to_point(f, g, plane.points[j]) for j in plane.incidence[li]
            }
            expected = {plane.points[j] for j in plane.incidence[plane.point_index[moved]]}
            assert image_pts == expected


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 5, 7])
def test_permutations_match_the_pointwise_action(q):
    # linear and, over extension fields, semilinear elements: no corpus
    # group is semilinear, so only this test maps points through a
    # Frobenius power all at once
    f = field_for_order(q)
    plane = build_plane(f)
    idx = plane.point_index
    rng = random.Random(q)
    for frob in [0, 0] + [rng.randrange(1, f.e) for _ in range(3) if f.e > 1]:
        g = GroupElement(random_invertible(f, rng).mat, frob)
        assert point_permutation(plane, g) == tuple(idx[apply_to_point(f, g, p)] for p in plane.points)
        assert line_permutation(plane, g) == tuple(idx[apply_to_line(f, g, l)] for l in plane.lines)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_incidence_preserved_exhaustively(q):
    f = field_for_order(q)
    plane = build_plane(f)
    g = random_invertible(f, random.Random(q))
    pperm = point_permutation(plane, g)
    lmap = {
        i: plane.point_index[apply_to_line(f, g, l)] for i, l in enumerate(plane.lines)
    }
    for i, line in enumerate(plane.lines):
        for j, pt in enumerate(plane.points):
            assert incident(f, line, pt) == incident(
                f, plane.lines[lmap[i]], plane.points[pperm[j]]
            )


def test_s3_closure_order_6():
    for q in (16, 29):
        f = field_for_order(q)
        g = closure(f, [make_element(f, m) for m in S3_GENS])
        assert g.order == 6


def test_empty_generators_trivial_group():
    f = Field(5)
    g = closure(f, [])
    assert g.order == 1
    assert g.elements[0] == identity_element(f)


def test_c0_order_2():
    f = Field(13)
    g = closure(f, [make_element(f, C0_Q13)])
    assert g.order == 2


def test_closure_cap():
    f = Field(11)
    gens = [random_invertible(f, random.Random(3)) for _ in range(2)]
    with pytest.raises(BudgetExceededError):
        closure(f, gens, cap=50)


def test_scalar_normalization():
    f = Field(13)
    m = ((2, 5, 0), (1, 1, 7), (0, 3, 4))
    g1 = make_element(f, m)
    lam = 6
    m2 = tuple(tuple(f.mul(lam, v) for v in row) for row in m)
    assert make_element(f, m2) == g1


def test_action_law_composition():
    f = field_for_order(9)
    plane = build_plane(f)
    rng = random.Random(4)
    g = random_invertible(f, rng)
    h = random_invertible(f, rng)
    gh = compose(f, g, h)
    for p in plane.points:
        assert apply_to_point(f, gh, p) == apply_to_point(f, g, apply_to_point(f, h, p))
    assert compose(f, g, inverse(f, g)) == identity_element(f)


def test_frobenius_twist_composition():
    f = field_for_order(4)
    plane = build_plane(f)
    g = GroupElement(((1, 0, 0), (0, 1, 0), (0, 0, 1)), frob=1)
    h = make_element(f, ((0, 1, 0), (0, 0, 1), (1, 0, 0)), frob=1)
    gh = compose(f, g, h)
    assert gh.frob == 0
    for p in plane.points:
        assert apply_to_point(f, gh, p) == apply_to_point(f, g, apply_to_point(f, h, p))
    assert compose(f, h, inverse(f, h)) == identity_element(f)


def test_trivial_group_orbits():
    f = Field(3)
    plane = build_plane(f)
    od = orbits(plane, closure(f, []))
    assert od.ell == 13
    assert all(w == 1 for w in od.weights)
    assert od.point_rep == tuple(range(13))


def test_s3_orbits_gf29():
    f = Field(29)
    plane = build_plane(f)
    od = orbits(plane, closure(f, [make_element(f, m) for m in S3_GENS]))
    assert sum(od.weights) == 871
    assert len(od.point_orbits) == len(od.line_orbits) == od.ell


def test_c0_orbit_lengths():
    f = Field(13)
    plane = build_plane(f)
    od = orbits(plane, closure(f, [make_element(f, C0_Q13)]))
    assert set(od.weights) <= {1, 2}
    assert all(len(o) in (1, 2) for o in od.line_orbits)


def test_orbit_partition_properties():
    f = Field(7)
    plane = build_plane(f)
    g = closure(f, [random_invertible(f, random.Random(5))])
    od = orbits(plane, g)
    covered = sorted(i for o in od.point_orbits for i in o)
    assert covered == list(range(plane.n))
    assert sum(od.weights) == plane.n
    for oid, orbit in enumerate(od.point_orbits):
        assert od.point_rep[oid] == min(orbit)
        for i in orbit:
            assert od.point_orbit_of[i] == oid
        assert g.order % len(orbit) == 0


def test_conjugate_group():
    f = Field(29)
    s3 = closure(f, [make_element(f, m) for m in S3_GENS])
    ident = identity_element(f)
    assert conjugate_group(f, ident, s3).elements == s3.elements

    plane = build_plane(f)
    rng = random.Random(6)
    alpha = random_invertible(f, rng)
    conj = conjugate_group(f, alpha, s3)
    assert conj.order == 6
    od1 = orbits(plane, s3)
    od2 = orbits(plane, conj)
    assert sorted(od1.weights) == sorted(od2.weights)


def test_conjugate_element_identity():
    f = Field(5)
    rng = random.Random(7)
    a = random_invertible(f, rng)
    b = random_invertible(f, rng)
    assert conjugate_element(f, identity_element(f), b) == b
    ab = conjugate_element(f, a, b)
    assert conjugate_element(f, inverse(f, a), ab) == b


def test_group_file_round_trip():
    f = Field(13)
    gens = [make_element(f, C0_Q13), make_element(f, S3_GENS[0])]
    text = format_group_file(gens)
    assert parse_group_file(text, f) == gens
    assert parse_group_file("# comment\n" + text, f) == gens


def test_group_file_errors():
    f = Field(13)
    with pytest.raises(ParseError):
        parse_group_file("1 2 3\n", f)
    with pytest.raises(ParseError):
        parse_group_file("0 0 0 0 0 0 0 0 0\n", f)  # singular
    with pytest.raises(ParseError):
        parse_group_file("1 0 0 0 1 0 0 0 x\n", f)


def test_singular_matrix_rejected():
    f = Field(5)
    with pytest.raises(ValueError):
        make_element(f, ((1, 2, 3), (2, 4, 6), (0, 0, 1)))


# -- the normalizer's permutations of the orbit variables ------------------


def normalizer_of(plane, group, r=2):
    od = orbits(plane, group)
    cs = condense(plane, od, r)
    return cs, normalizer_permutations(plane, od, cs.A, cs.w)


def test_homology_centralizer_is_gl2():
    plane = build_plane(Field(3))
    homology = make_element(plane.spec, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    cs, (order, perms) = normalizer_of(plane, closure(plane.spec, [homology]))
    assert order == 48  # |GL(2,3)|
    # the group itself acts trivially on its orbits, and nothing else does
    assert len(perms) == 24
    assert cs.ell == 9


def test_trivial_group_gives_all_of_pgl3():
    plane = build_plane(Field(3))
    _, (order, perms) = normalizer_of(plane, closure(plane.spec, []))
    assert order == len(perms) == 5616  # |PGL(3,3)|


def assert_automorphisms(cs, perms):
    """Each permutation, applied to the columns, permutes the rows of A and
    fixes w; checked from the rows themselves, with no line permutation."""
    rows = sorted(cs.A)
    for sigma in perms.tolist():
        assert [cs.w[j] for j in sigma] == list(cs.w)
        assert sorted(tuple(row[j] for j in sigma) for row in cs.A) == rows


def assert_group(perms):
    elems = {tuple(p) for p in perms.tolist()}
    assert len(elems) == len(perms)
    assert tuple(range(perms.shape[1])) in elems
    for a in elems:
        for b in elems:
            assert tuple(a[j] for j in b) in elems


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_normalizer_permutations_are_automorphisms(q):
    plane = build_plane(field_for_order(q))
    spec = plane.spec
    rng = random.Random(q)
    groups = [closure(spec, [random_invertible(spec, rng)]) for _ in range(4)]
    groups.append(closure(spec, [make_element(spec, m) for m in S3_GENS]))
    for group in groups:
        cs, found = normalizer_of(plane, group)
        alpha = random_invertible(spec, rng)
        moved_cs, moved = normalizer_of(plane, conjugate_group(spec, alpha, group))
        if found is None:
            assert moved is None
            continue
        assert moved[0] == found[0] and moved[1].shape == found[1].shape
        for system, (_, perms) in ((cs, found), (moved_cs, moved)):
            assert perms.dtype == np.int16
            assert_automorphisms(system, perms)
            if len(perms) <= 200:
                assert_group(perms)


def test_normalizer_rejects_a_system_it_does_not_preserve():
    plane = build_plane(Field(5))
    od = orbits(plane, closure(plane.spec, [make_element(plane.spec, ((4, 0, 0), (0, 1, 0), (0, 0, 1)))]))
    cs = condense(plane, od, 2)
    w = list(cs.w)
    w[0], w[-1] = w[-1] + 1, w[0]
    with pytest.raises(RuntimeError):
        normalizer_permutations(plane, od, cs.A, w)
    A = [list(row) for row in cs.A]
    A[0][0] += 1
    with pytest.raises(RuntimeError):
        normalizer_permutations(plane, od, A, cs.w)


def test_normalizer_limits():
    plane = build_plane(Field(5))
    # all of PGL(3,5) has 488,281 candidate matrices, over the cap
    assert normalizer_of(plane, closure(plane.spec, []))[1] is None
    semilinear = GroupElement(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)
    plane4 = build_plane(field_for_order(4))
    assert normalizer_of(plane4, closure(plane4.spec, [semilinear]))[1] is None
    od = orbits(plane, closure(plane.spec, [make_element(plane.spec, ((4, 0, 0), (0, 1, 0), (0, 0, 1)))]))
    cs = condense(plane, od, 2)
    with pytest.raises(BudgetExceededError):
        normalizer_permutations(plane, od, cs.A, cs.w, deadline=0.0)
