import random

import pytest

from conftest import random_cyclic_group, s3_group
from pgarcs.arcs import (
    CORPUS,
    Arc,
    admits_group,
    corpus_text,
    format_arc_file,
    load_corpus_arc,
    map_arc,
    min_distance,
    parse_arc_file,
    to_generator_matrix,
    verify_arc,
)
from pgarcs.condense import compress_arc
from pgarcs.errors import NotAdmittedError, ParseError
from pgarcs.geometry import _normalized_triples
from pgarcs.group import closure, conjugate_group, make_element, orbits


def random_alpha(spec, rng):
    while True:
        mat = tuple(tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3))
        try:
            return make_element(spec, mat)
        except ValueError:
            continue


def test_full_plane_is_arc_with_r_q_plus_1(plane_for):
    plane = plane_for(4)
    arc = Arc(plane=plane, points=tuple(range(plane.n)), r_claimed=5)
    rep = verify_arc(arc)
    assert rep.n == 21
    assert rep.max_multiplicity == 5
    assert rep.lines_at_max == 21
    assert rep.is_arc_for_claimed_r


def test_verify_empty_arc_rejected(plane_for):
    with pytest.raises(ValueError):
        verify_arc(Arc(plane=plane_for(2), points=()))


def test_corpus_144_arc():
    pa = load_corpus_arc("q16_r10_n144.arc")
    rep = verify_arc(pa.arc, pa.group)
    assert (rep.n, rep.max_multiplicity) == (144, 10)
    assert rep.is_arc_for_claimed_r
    assert rep.group_admitted
    assert pa.convention == "column"
    assert pa.group.order == 6


def test_corpus_names_consistent():
    for name, (q, r, n, kind) in CORPUS.items():
        assert f"q{q}_r{r}_n{n}.arc" == name


def test_admits_trivial_group_always(plane_for):
    plane = plane_for(9)
    rng = random.Random(20)
    pts = tuple(sorted(rng.sample(range(plane.n), 12)))
    arc = Arc(plane=plane, points=pts)
    assert admits_group(arc, closure(plane.spec, []))


def test_admits_group_matches_compress(plane_for):
    plane = plane_for(7)
    rng = random.Random(21)
    grp = random_cyclic_group(plane.spec, rng)
    od = orbits(plane, grp)
    union = tuple(sorted(i for o in od.point_orbits[:3] for i in o))
    arc_ok = Arc(plane=plane, points=union)
    assert admits_group(arc_ok, grp)
    compress_arc(od, union)  # must not raise
    broken = union[1:]
    if broken:
        arc_bad = Arc(plane=plane, points=broken)
        admitted = admits_group(arc_bad, grp)
        if not admitted:
            with pytest.raises(NotAdmittedError):
                compress_arc(od, broken)


def test_map_arc_identity_and_parameters(plane_for):
    pa = load_corpus_arc("q25_r3_n39.arc")
    rng = random.Random(22)
    base = verify_arc(pa.arc)
    for _ in range(5):
        alpha = random_alpha(pa.spec, rng)
        moved = map_arc(alpha, pa.arc)
        rep = verify_arc(moved)
        assert rep.n == base.n
        assert rep.max_multiplicity == base.max_multiplicity


def test_map_arc_conjugated_group_admission(plane_for):
    pa = load_corpus_arc("q25_r3_n39.arc")
    rng = random.Random(23)
    alpha = random_alpha(pa.spec, rng)
    moved = map_arc(alpha, pa.arc)
    conj = conjugate_group(pa.spec, alpha, pa.group)
    assert admits_group(moved, conj)


def test_generator_matrix_shape_and_independence(plane_for):
    plane = plane_for(5)
    arc = Arc(plane=plane, points=(0, 5, 11, 17))
    gen = to_generator_matrix(arc)
    assert len(gen) == 3 and all(len(row) == 4 for row in gen)
    cols = list(zip(*gen))
    f = plane.spec
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            for lam in range(1, f.q):
                assert tuple(f.mul_t[lam][v] for v in cols[i]) != cols[j]


def test_single_point_matrix(plane_for):
    plane = plane_for(2)
    arc = Arc(plane=plane, points=(_normalized_triples(2).index((1, 0, 0)),))
    assert to_generator_matrix(arc) == ((1,), (0,), (0,))


def test_min_distance_full_fano(plane_for):
    plane = plane_for(2)
    arc = Arc(plane=plane, points=tuple(range(7)))
    assert min_distance(plane.spec, to_generator_matrix(arc)) == 4


def test_min_distance_corpus_39():
    pa = load_corpus_arc("q25_r3_n39.arc")
    assert min_distance(pa.spec, to_generator_matrix(pa.arc)) == 36


def test_min_distance_finds_the_one_light_codeword_in_every_position(plane_for):
    # a line plus one point off it: only that line's message gives a
    # codeword of weight 1, and over the 91 lines of PG(2,9) it takes
    # every place in the enumeration of messages
    plane = plane_for(9)
    for line in plane.incidence.tolist():
        off = min(set(range(len(plane.incidence))) - set(line))
        arc = Arc(plane=plane, points=tuple(sorted(line + [off])))
        assert min_distance(plane.spec, to_generator_matrix(arc)) == 1


def test_min_distance_rank_check(plane_for):
    plane = plane_for(3)
    arc = Arc(plane=plane, points=tuple(plane.incidence[0].tolist()))
    with pytest.raises(ValueError):
        min_distance(plane.spec, to_generator_matrix(arc))


def test_parse_round_trip(plane_for):
    plane = plane_for(13)
    spec = plane.spec
    gens = [make_element(spec, ((0, 1, 0), (1, 0, 0), (0, 0, 12)))]
    grp = closure(spec, gens)
    od = orbits(plane, grp)
    pts = tuple(sorted(i for o in od.point_orbits[:5] for i in o))
    text = format_arc_file(spec, pts, 5, plane, generators=gens)
    pa = parse_arc_file(text, plane=plane)
    assert pa.arc.points == pts
    assert pa.arc.r_claimed == 5
    assert pa.group.order == 2
    assert pa.admitted and pa.convention == "column"


def test_parse_errors():
    good = "q=5\np=5\ne=1\nr=2\npoints:\n(1,0,0) (0,1,0)\n"
    parse_arc_file(good)
    with pytest.raises(ParseError):
        parse_arc_file(good.replace("(1,0,0)", "(1,0)"))
    with pytest.raises(ParseError):
        parse_arc_file(good.replace("(1,0,0)", "(0,0,0)"))
    with pytest.raises(ParseError):
        parse_arc_file(good.replace("(1,0,0)", "(0,1,0)"))  # duplicate
    with pytest.raises(ParseError):
        parse_arc_file(good.replace("(1,0,0)", "(9,0,0)"))  # out of range
    with pytest.raises(ParseError):
        parse_arc_file("q=25\np=5\ne=2\npoly=1,0,1\nr=2\npoints:\n(1,0,0)\n")  # reducible
    with pytest.raises(ParseError):
        parse_arc_file("q=5\np=5\ne=1\npoints:\n(1,0,0)\n")  # missing r
    with pytest.raises(ParseError):
        parse_arc_file("q=25\nr=2\npoints:\n(1,0,0)\n")  # missing p/e for q=25
    with pytest.raises(ParseError):
        parse_arc_file(good.replace("points:", "group-begin\npoints:"))


def test_parse_reports_line_numbers():
    text = "q=5\np=5\ne=1\nr=2\npoints:\n(1,0,0)\n(banana)\n"
    with pytest.raises(ParseError) as err:
        parse_arc_file(text)
    assert err.value.line == 7


@pytest.mark.parametrize(
    ("text", "line", "message"),
    (
        ("q=5\np=5\ne=1\nr=2\ngroup-begin\n1 0 0 0 1 0 0 0 x\ngroup-end\npoints:\n(1,0,0)\n", 6, "matrix entries"),
        ("q=5\np=x\ne=1\nr=2\npoints:\n(1,0,0)\n", 2, "bad p value 'x'"),
    ),
)
def test_group_block_and_header_errors_carry_the_file_line(text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}: {message}") as err:
        parse_arc_file(text)
    assert err.value.line == line


def test_header_lines_split_at_the_first_equals_sign():
    spaced = "q = 25\np = 5\ne= 2\npoly =2,1,1\nnote=written by hand\nr = 3\npoints:\n(1,0,0) (0,1,0)\n"
    plain = "q=25\np=5\ne=2\npoly=2,1,1\nr=3\npoints:\n(1,0,0) (0,1,0)\n"
    a, b = parse_arc_file(spaced), parse_arc_file(plain)
    assert (a.spec, a.arc.points, a.arc.r_claimed) == (b.spec, b.arc.points, b.arc.r_claimed)
    with pytest.raises(ParseError, match="^line 2: expected header assignment, got 'p 5'$"):
        parse_arc_file(plain.replace("p=5", "p 5"))
    with pytest.raises(ParseError, match="^line 2: bad p value '5 e=2'$"):
        parse_arc_file(plain.replace("p=5\ne=2", "p=5 e=2"))


def test_scaled_tuples_normalize_to_duplicates():
    text = "q=5\np=5\ne=1\nr=2\npoints:\n(0,1,2) (0,2,4)\n"
    with pytest.raises(ParseError):
        parse_arc_file(text)


def test_extension_field_tuples_need_not_be_normalized(plane_for):
    plane = plane_for(25)
    spec = plane.spec
    header = f"q=25\n{spec.spec_string()}\nr=2\npoints:\n".replace(" ", "\n")
    point = (1, 7, 18)
    scaled = "({},{},{})".format(*(spec.mul_t[13][c] for c in point))
    pa = parse_arc_file(header + scaled + "\n", plane=plane)
    assert pa.arc.points == (_normalized_triples(25).index(point),)
    with pytest.raises(ParseError, match="line 7: duplicate point"):
        parse_arc_file(header + f"(1,7,18) {scaled}\n", plane=plane)


def test_corpus_text_unknown_name():
    with pytest.raises(KeyError):
        corpus_text("missing.arc")
