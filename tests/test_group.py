import functools
import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import normalized_triples, s3_group
from pgarcs.arcs import CORPUS, load_corpus_arc
from pgarcs.classify import enumerate_cyclic_classes
from pgarcs.condense import condense
from pgarcs.errors import BudgetExceededError, ParseError
from pgarcs.gf import Field, field_for_order
from pgarcs.geometry import build_plane, incident
from pgarcs.group import (
    GroupElement,
    apply_to_line,
    apply_to_point,
    char_poly,
    closure,
    cofactor,
    compose,
    conjugate_element,
    conjugate_group,
    det3,
    format_group_file,
    identity_element,
    inverse,
    line_permutation,
    make_element,
    matmul3,
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
    ident = identity_element(f)
    for p in normalized_triples(9):
        assert apply_to_point(f, ident, p) == p
        assert apply_to_line(f, ident, p) == p


def test_cyclic_shift_on_gf16_point():
    f = field_for_order(16)
    g = make_element(f, S3_GENS[0])
    # (1,4,0) -> (4,0,1), normalized to (1,0,inv(4))
    assert apply_to_point(f, g, (1, 4, 0)) == (1, 0, f.inv_t[4])


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
    triples = normalized_triples(8)
    for _ in range(5):
        g = random_invertible(f, rng)
        for li in (0, 3, 17):
            moved = apply_to_line(f, g, triples[li])
            image_pts = {
                apply_to_point(f, g, triples[j]) for j in plane.incidence[li].tolist()
            }
            on_moved = plane.incidence[triples.index(moved)].tolist()
            assert image_pts == {triples[j] for j in on_moved}


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 5, 7])
def test_permutations_match_the_pointwise_action(q):
    # linear and, over extension fields, semilinear elements: no corpus
    # group is semilinear, so only this test maps points through a
    # Frobenius power all at once
    f = field_for_order(q)
    plane = build_plane(f)
    triples = normalized_triples(q)
    idx = {t: i for i, t in enumerate(triples)}
    rng = random.Random(q)
    for frob in [0, 0] + [rng.randrange(1, f.e) for _ in range(3) if f.e > 1]:
        g = GroupElement(random_invertible(f, rng).mat, frob)
        for perm in (point_permutation(plane, g), line_permutation(plane, g)):
            assert perm.dtype == np.int16 and not perm.flags.writeable
        assert point_permutation(plane, g).tolist() == [idx[apply_to_point(f, g, p)] for p in triples]
        assert line_permutation(plane, g).tolist() == [idx[apply_to_line(f, g, l)] for l in triples]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_incidence_preserved_exhaustively(q):
    f = field_for_order(q)
    plane = build_plane(f)
    g = random_invertible(f, random.Random(q))
    pperm = point_permutation(plane, g)
    triples = normalized_triples(q)
    lmap = [triples.index(apply_to_line(f, g, l)) for l in triples]
    for i, line in enumerate(triples):
        for j, pt in enumerate(triples):
            assert incident(f, line, pt) == incident(f, triples[lmap[i]], triples[pperm[j]])


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
    m2 = tuple(tuple(f.mul_t[lam][v] for v in row) for row in m)
    assert make_element(f, m2) == g1


def test_action_law_composition():
    f = field_for_order(9)
    rng = random.Random(4)
    g = random_invertible(f, rng)
    h = random_invertible(f, rng)
    gh = compose(f, g, h)
    for p in normalized_triples(9):
        assert apply_to_point(f, gh, p) == apply_to_point(f, g, apply_to_point(f, h, p))
    assert compose(f, g, inverse(f, g)) == identity_element(f)


def test_frobenius_twist_composition():
    f = field_for_order(4)
    g = GroupElement(((1, 0, 0), (0, 1, 0), (0, 0, 1)), frob=1)
    h = make_element(f, ((0, 1, 0), (0, 0, 1), (1, 0, 0)), frob=1)
    gh = compose(f, g, h)
    assert gh.frob == 0
    for p in normalized_triples(4):
        assert apply_to_point(f, gh, p) == apply_to_point(f, g, apply_to_point(f, h, p))
    assert compose(f, h, inverse(f, h)) == identity_element(f)


def test_trivial_group_orbits():
    f = Field(3)
    plane = build_plane(f)
    od = orbits(plane, closure(f, []))
    assert od.ell == 13
    assert all(w == 1 for w in od.weights)
    assert od.point_rep.tolist() == list(range(13))


def test_s3_orbits_gf29():
    f = Field(29)
    plane = build_plane(f)
    od = orbits(plane, closure(f, [make_element(f, m) for m in S3_GENS]))
    assert sum(od.weights) == 871
    assert len(set(od.point_orbit_of.tolist())) == len(set(od.line_orbit_of.tolist())) == od.ell


def test_c0_orbit_lengths():
    f = Field(13)
    plane = build_plane(f)
    od = orbits(plane, closure(f, [make_element(f, C0_Q13)]))
    assert set(od.weights) <= {1, 2}
    assert set(np.bincount(od.line_orbit_of).tolist()) <= {1, 2}


def test_orbit_partition_properties():
    f = Field(7)
    plane = build_plane(f)
    g = closure(f, [random_invertible(f, random.Random(5))])
    od = orbits(plane, g)
    members = [np.flatnonzero(od.point_orbit_of == oid).tolist() for oid in range(od.ell)]
    covered = sorted(i for o in members for i in o)
    assert covered == list(range(plane.n))
    assert sum(od.weights) == plane.n
    perm = point_permutation(plane, g.generators[0])
    for oid, orbit in enumerate(members):
        assert od.point_rep[oid] == min(orbit)
        for i in orbit:
            assert od.point_orbit_of[i] == oid
        assert g.order % len(orbit) == 0
        assert od.weights[oid] == len(orbit)
        assert sorted(perm[orbit].tolist()) == orbit  # closed under the generator


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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_conjugate_group_conjugates_each_element_in_order(plane_for, name):
    pa = load_corpus_arc(name, plane=plane_for(CORPUS[name][0]))
    spec, g = pa.spec, pa.group
    alpha = random_invertible(spec, random.Random(name))
    assert alpha != identity_element(spec)
    conj = conjugate_group(spec, alpha, g)
    assert conj.elements == tuple(conjugate_element(spec, alpha, e) for e in g.elements)


def test_make_element_needs_a_3x3_matrix():
    with pytest.raises(ValueError, match="^matrix must be 3x3$"):
        make_element(Field(5), ((1, 0, 0), (0, 1, 0)))


def test_orbits_rejects_a_group_over_another_field(plane_for):
    with pytest.raises(ValueError, match="different fields"):
        orbits(plane_for(5), s3_group(field_for_order(7)))


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
    # a semilinear generator of GF(4) carries its Frobenius power
    f4 = field_for_order(4)
    semilinear = [make_element(f4, ((0, 1, 0), (0, 0, 1), (2, 0, 0)), frob=1)]
    text = format_group_file(semilinear)
    assert text == "0 1 0 0 0 1 2 0 0 frob=1\n"
    assert parse_group_file(text, f4) == semilinear


def test_group_file_errors():
    f = Field(13)
    with pytest.raises(ParseError):
        parse_group_file("1 2 3\n", f)
    with pytest.raises(ParseError):
        parse_group_file("0 0 0 0 0 0 0 0 0\n", f)  # singular
    with pytest.raises(ParseError):
        parse_group_file("1 0 0 0 1 0 0 0 x\n", f)
    with pytest.raises(ParseError):
        parse_group_file("1 0 0 0 1 0 0 0 1 frob=x\n", f)


def test_singular_matrix_rejected():
    f = Field(5)
    with pytest.raises(ValueError):
        make_element(f, ((1, 2, 3), (2, 4, 6), (0, 0, 1)))


# -- the cofactor rule behind det3, char_poly, inverse and the line maps ----


I3, ZERO = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 0),) * 3


def random_matrix(spec, rng):
    return tuple(tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3))


def scaled(spec, c, m):
    return tuple(tuple(spec.mul_t[c][v] for v in row) for row in m)


def mat_add(spec, *ms):
    return tuple(tuple(functools.reduce(lambda a, b: spec.add_t[a][b], vals) for vals in zip(*rows)) for rows in zip(*ms))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_cayley_hamilton_and_the_adjugate_over_every_field(q):
    # m^3 + c2 m^2 + c1 m + c0 I = 0, and m times the transposed cofactor
    # matrix is det(m) I, for singular and invertible m alike
    f, rng = field_for_order(q), random.Random(q)
    for _ in range(40):
        m = random_matrix(f, rng)
        c0, c1, c2, one = char_poly(f, m)
        m2 = matmul3(f, m, m)
        assert one == 1 and mat_add(f, matmul3(f, m2, m), scaled(f, c2, m2), scaled(f, c1, m), scaled(f, c0, I3)) == ZERO
        adjugate = tuple(zip(*cofactor(f, m)))
        assert matmul3(f, m, adjugate) == scaled(f, det3(f, m), I3)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_det3_vanishes_exactly_on_matrices_with_a_kernel(q):
    f, rng = field_for_order(q), random.Random(q)
    vectors = [v for v in itertools.product(range(q), repeat=3) if any(v)]
    dets = set()
    for _ in range(300):
        m = random_matrix(f, rng)
        kernel = any(matmul3(f, m, [[c, 0, 0] for c in v]) == ZERO for v in vectors)  # m.(v 0 0) = 0
        dets.add(det3(f, m) == 0)
        assert (det3(f, m) == 0) is kernel
    assert dets == {True, False}


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_a_semilinear_element_composed_with_its_inverse_is_the_identity(q):
    f, rng = field_for_order(q), random.Random(q)
    for _ in range(30):
        m = random_invertible(f, rng)
        g = GroupElement(m.mat, rng.randrange(f.e))
        assert compose(f, g, inverse(f, g)) == compose(f, inverse(f, g), g) == identity_element(f)


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
    A = cs.A.tolist()
    rows = sorted(A)
    for sigma in perms.tolist():
        assert [cs.w[j] for j in sigma] == list(cs.w)
        assert sorted([row[j] for j in sigma] for row in A) == rows


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


# -- the orbit partitions, pinned and checked by brute force ---------------


def orbit_id_groups(key, plane_for):
    """(plane, group) pairs: the corpus groups, the same conjugated by a
    seeded alpha, or every nontrivial cyclic class for a prime p."""
    if key in ("corpus", "corpus-conjugated"):
        pairs = []
        for name in sorted(CORPUS):
            plane = plane_for(CORPUS[name][0])
            group = load_corpus_arc(name, plane=plane).group
            if key == "corpus-conjugated":
                group = conjugate_group(plane.spec, random_invertible(plane.spec, random.Random(name)), group)
            pairs.append((plane, group))
        return pairs
    plane = plane_for(key)
    return [(plane, closure(plane.spec, [c.generator])) for c in enumerate_cyclic_classes(key) if not c.is_trivial]


ORBIT_DIGESTS = {
    "corpus": "21f35f71503b927e95cef30e8364db82063dae107ac7472323ac61c655153836",
    "corpus-conjugated": "479d668b72553d62d58beaa823624a820b077653158a3271be8c2f303473f4bf",
    5: "66d5a2bb613b404d10987846f0e5a86b78d311c6572ac92a5c2397ebede87241",
    7: "5a891e369549dcd7c1546f933eba0315c211259af7150cbb8d6195f188761595",
    13: "786cbfbaaea06f853752d229d484ccb1dc850f81b8fbca2fe1db84305297e109",
}


@pytest.mark.parametrize("key", list(ORBIT_DIGESTS))
def test_the_orbit_ids_are_frozen(plane_for, key):
    # orbit j holds the j-th least member, so the numbering is that of a
    # scan of the indices in ascending order
    rows = []
    for plane, group in orbit_id_groups(key, plane_for):
        od = orbits(plane, group)
        rows.append((np.asarray(od.point_orbit_of).tolist(), np.asarray(od.line_orbit_of).tolist()))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ORBIT_DIGESTS[key]


def brute_force_orbits(spec, group, apply):
    """(orbit id of each index, least members, orbit lengths) from every
    element's image of every triple, ids ranked by least member."""
    triples = normalized_triples(spec.q)
    index = {t: i for i, t in enumerate(triples)}
    least = [min(index[apply(spec, e, t)] for e in group.elements) for t in triples]
    reps = sorted(set(least))
    rank = {m: j for j, m in enumerate(reps)}
    return [rank[m] for m in least], reps, [least.count(m) for m in reps]


def singer_group():
    spec = Field(13)
    singer = next(c for c in enumerate_cyclic_classes(13) if c.projective_order == 183)
    return closure(spec, [singer.generator])


@pytest.mark.parametrize(
    "make",
    (
        lambda: closure(Field(3), []),
        lambda: s3_group(Field(7)),
        lambda: closure(field_for_order(4), [make_element(field_for_order(4), ((0, 1, 0), (0, 0, 1), (2, 0, 0)), frob=1)]),
        lambda: closure(field_for_order(9), [GroupElement(((1, 0, 0), (0, 0, 1), (0, 1, 0)), 1)]),
        singer_group,
        # 2n = 34586 line-side indices: past the int16 range
        lambda: closure(Field(131), [make_element(Field(131), ((1, 0, 0), (0, 1, 0), (0, 0, 130)))]),
    ),
    ids=("trivial-q3", "s3-q7", "semilinear-q4", "semilinear-q9", "singer-183-q13", "homology-q131"),
)
def test_orbits_match_the_images_under_every_element(plane_for, make):
    group = make()
    plane = plane_for(group.spec.q)
    od = orbits(plane, group)
    point_of, point_reps, weights = brute_force_orbits(group.spec, group, apply_to_point)
    line_of, line_reps, _ = brute_force_orbits(group.spec, group, apply_to_line)
    assert np.asarray(od.point_orbit_of).tolist() == point_of
    assert np.asarray(od.line_orbit_of).tolist() == line_of
    assert np.asarray(od.point_rep).tolist() == point_reps
    assert np.asarray(od.line_rep).tolist() == line_reps
    assert list(od.weights) == weights
    assert od.ell == len(point_reps) == len(line_reps)
