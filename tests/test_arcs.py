import itertools
import random
import re

import numpy as np
import pytest

from conftest import normalized_triples, random_cyclic_group, s3_group
from pgarcs import gf
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
from pgarcs.gf import Field, field_for_order, text_lines
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
    union = tuple(np.flatnonzero(od.point_orbit_of < 3).tolist())  # the first three orbits
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
    arc = Arc(plane=plane, points=(normalized_triples(2).index((1, 0, 0)),))
    assert to_generator_matrix(arc) == ((1,), (0,), (0,))


def test_min_distance_full_fano(plane_for):
    plane = plane_for(2)
    arc = Arc(plane=plane, points=tuple(range(7)))
    assert min_distance(plane.spec, to_generator_matrix(arc)) == 4


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_min_distance_is_n_minus_r_on_the_corpus(name):
    _, r, n, _ = CORPUS[name]
    pa = load_corpus_arc(name)
    assert min_distance(pa.spec, to_generator_matrix(pa.arc)) == n - r


def brute_force_distance(spec, gen):
    """The least weight of a nonzero codeword over all q^3 - 1 messages,
    in the field's tuple tables; 0 when the matrix has rank below 3."""
    add, mul = spec.add_t, spec.mul_t
    return min(
        sum(1 for x, y, z in zip(*gen) if add[add[mul[a][x]][mul[b][y]]][mul[c][z]])
        for a, b, c in itertools.product(range(spec.q), repeat=3)
        if a or b or c
    )


def random_generator_matrix(spec, rng):
    """3 x n, 1 <= n <= 12, with zero columns, repeated (and rescaled)
    columns, and, one time in four, a third row in the span of the
    first two, so that rank 3 is impossible."""
    q = spec.q
    cols = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.1:
            cols.append((0, 0, 0))
        elif kind < 0.3 and cols:
            lam = rng.randrange(1, q)
            cols.append(tuple(spec.mul_t[lam][v] for v in rng.choice(cols)))
        else:
            cols.append(tuple(rng.randrange(q) for _ in range(3)))
    rows = [list(row) for row in zip(*cols)]
    if rng.random() < 0.25:
        a, b = rng.randrange(q), rng.randrange(q)
        rows[2] = [spec.add_t[spec.mul_t[a][x]][spec.mul_t[b][y]] for x, y in zip(rows[0], rows[1])]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9))
def test_min_distance_matches_a_brute_force_enumeration(q):
    spec = field_for_order(q)
    rng = random.Random(q)
    outcomes = set()
    for _ in range(40):
        gen = random_generator_matrix(spec, rng)
        expected = brute_force_distance(spec, gen)
        outcomes.add(expected == 0)
        if expected == 0:
            with pytest.raises(ValueError, match="rank 3"):
                min_distance(spec, gen)
        else:
            assert min_distance(spec, gen) == expected
    assert outcomes == {True, False}  # both full-rank and rank-deficient matrices were drawn


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
    pts = tuple(np.flatnonzero(od.point_orbit_of < 5).tolist())  # the first five orbits
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
    assert pa.arc.points == (normalized_triples(25).index(point),)
    with pytest.raises(ParseError, match="line 7: duplicate point"):
        parse_arc_file(header + f"(1,7,18) {scaled}\n", plane=plane)


def test_a_plane_over_another_field_is_not_used(plane_for):
    plane = plane_for(25)  # poly 2,1,1
    points = "points:\n(1,0,0) (0,1,0) (0,0,1) (1,1,1)\n"
    assert parse_arc_file(f"p=5\ne=2\npoly=2,1,1\nr=2\n{points}", plane=plane).arc.plane is plane
    pa = parse_arc_file(f"p=5\ne=2\npoly=2,0,1\nr=2\n{points}", plane=plane)
    assert pa.spec == pa.arc.plane.spec == Field(5, 2, (2, 0, 1)) != plane.spec
    assert verify_arc(pa.arc).max_multiplicity == 2


@pytest.mark.parametrize("poly", ("2,1,1", "7,6,11"))
def test_a_parse_reuses_the_field_of_a_plane_over_it(plane_for, monkeypatch, poly):
    plane, other = plane_for(25), plane_for(16)
    calls = []
    ring_tables = gf._ring_tables
    monkeypatch.setattr(gf, "_ring_tables", lambda p, f: calls.append(p) or ring_tables(p, f))
    text = corpus_text("q25_r3_n39.arc").replace("poly=2,1,1", f"poly={poly}")  # 7,6,11 = 2,1,1 mod 5
    pa = parse_arc_file(text, plane=plane)
    assert calls == [] and pa.spec is plane.spec and pa.arc.plane is plane
    pa = parse_arc_file(text, plane=other)
    assert calls == [5] and pa.spec == plane.spec and pa.spec is not plane.spec
    assert pa.arc.points == load_corpus_arc("q25_r3_n39.arc").arc.points


def test_corpus_text_unknown_name():
    with pytest.raises(KeyError):
        corpus_text("missing.arc")


def test_parse_arc_file_needs_a_point():
    with pytest.raises(ParseError, match="^no points given$"):
        parse_arc_file("q=5\nr=2\npoints:\n\n")


Q5 = "q=5\np=5\ne=1\nr=2\npoints:\n"
Q25 = "q=25\np=5\ne=2\npoly=2,1,1\nr=2\npoints:\n"


# each fault with its exact message and line; 13.(1,7,18) = (13,2,22) over
# GF(25) with poly 2,1,1
@pytest.mark.parametrize(
    ("text", "line", "message"),
    (
        (Q5 + "(1,0,0) (0,1)\n", 6, "malformed point tuple '(0,1)'"),
        (Q5 + "(1,0,0)\n(0,5,1)\n", 7, "coordinate out of range in '(0,5,1)'"),
        (Q5 + "(99999999999999999999999,0,1)\n", 6, "coordinate out of range in '(99999999999999999999999,0,1)'"),
        (Q5 + "(1,0,0)\n\n(0,0,0) (0,1,0)\n", 8, "the zero triple is not a point"),
        (Q5 + "(0,1,2) (1,1,1)\n(0,1,2)\n", 7, "duplicate point (0,1,2)"),
        (Q5 + "(0,1,2) (1,1,1) (0,01,002)\n", 6, "duplicate point (0,01,002)"),
        (Q25 + "(1,7,18) (0,0,1)\n(13,2,22)\n", 8, "duplicate point (13,2,22)"),
        (Q5 + "# none\n\n", None, "no points given"),
    ),
    ids=("malformed", "range", "huge", "zero", "duplicate", "leading-zeros", "scaled-gf25", "none"),
)
def test_point_reader_names_the_fault_and_its_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_arc_file(text)
    assert str(err.value) == (message if line is None else f"line {line}: {message}")
    assert err.value.line == line


# a tuple's codes are ASCII digits and its separators ASCII whitespace,
# which the number scan reads: anything else makes a malformed token
@pytest.mark.parametrize(("line", "token"), (("(1,0,0) (\u0663,0,1)", "(\u0663,0,1)"), ("(1,0,0)\xa0(0,1,0)", "(1,0,0)\xa0(0,1,0)")))
def test_point_tuples_are_ascii(line, token):
    with pytest.raises(ParseError) as err:
        parse_arc_file(Q5 + line + "\n")
    assert str(err.value) == f"line 6: malformed point tuple {token!r}"


def reference_points(text, plane):
    """The point section read one token at a time: the sorted point
    indices, or the message of the first fault."""
    lines = text_lines(text)
    next(lineno for lineno, line in lines if line == "points:")
    q, seen = plane.spec.q, set()
    for lineno, line in lines:
        for tok in line.split():
            m = re.fullmatch(r"\((\d+),(\d+),(\d+)\)", tok)
            if not m:
                return f"line {lineno}: malformed point tuple {tok!r}"
            x, y, z = (int(v) for v in m.groups())
            if max(x, y, z) >= q:
                return f"line {lineno}: coordinate out of range in {tok!r}"
            if not (x or y or z):
                return f"line {lineno}: the zero triple is not a point"
            idx = int(plane.code_index[(x * q + y) * q + z])
            if idx in seen:
                return f"line {lineno}: duplicate point {tok}"
            seen.add(idx)
    return tuple(sorted(seen)) if seen else "no points given"


MALFORMED = ("(1,2)", "(a,0,0)", "1,2,3", "(1,2,3", "((1,2,3)", "(1, 2,3)", "()")


def inject(rng, spec, tokens, pool):
    """One fault (or a harmless rewrite) put into the token rows, made
    from a tuple of the pool."""
    row = rng.randrange(len(tokens))
    at = rng.randrange(len(tokens[row]) + 1)
    x, y, z = (int(v) for v in re.findall(r"\d+", rng.choice(pool)))
    lam = rng.randrange(1, spec.q)
    kinds = ("malformed", "range", "zero", "copy", "scaled", "zeros", "newline", "comment", "comment-line", "tab", "last")
    kind = rng.choice(kinds)
    tok = {
        "malformed": rng.choice(MALFORMED),
        "range": f"({x},{spec.q + rng.randrange(3)},{z})",
        "zero": "(0,0,0)",
        "copy": f"({x},{y},{z})",
        "scaled": "({},{},{})".format(*(spec.mul_t[lam][c] for c in (x, y, z))),
        "zeros": f"(0{x},{y},00{z})",
        "tab": "\t",
    }.get(kind)
    if kind == "newline":  # break a row in two
        tokens[row : row + 1] = [tokens[row][:at], tokens[row][at:]]
    elif kind == "comment":  # a trailing comment, holding a tuple and a fault
        tokens[row].append(f"# ({x},{y},{z}) (1,2)")
    elif kind == "comment-line":
        tokens.insert(row, ["#", f"({x},{y},{z})"])
    elif kind == "last":  # a fault on the last line only: the whole-section match fails late
        tokens[-1].append(rng.choice(MALFORMED))
    else:
        tokens[row].insert(at, tok)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_point_reader_agrees_with_a_token_loop(plane_for, name):
    plane = plane_for(CORPUS[name][0])
    head, body = corpus_text(name).split("points:\n")
    pool, rng = body.split(), random.Random(name)
    for _ in range(12):
        tokens = [line.split() for line in body.splitlines()]
        for _ in range(rng.randrange(2, 4)):
            inject(rng, plane.spec, tokens, pool)
        text = head + "points:\n" + "\n".join(" ".join(row) for row in tokens) + "\n"
        got = []
        for variant in (text, text.replace("\n", "\r\n")):
            try:
                got.append(parse_arc_file(variant, plane=plane).arc.points)
            except ParseError as err:
                got.append(str(err))
        assert got == [reference_points(text, plane)] * 2


def test_verify_arc_rejects_a_repeated_index(plane_for):
    with pytest.raises(ValueError, match="^duplicate point indices$"):
        verify_arc(Arc(plane=plane_for(5), points=(0, 3, 3)))


def test_admits_group_rejects_a_group_over_another_field(plane_for):
    arc = Arc(plane=plane_for(5), points=(0, 3, 7))
    with pytest.raises(ValueError, match="different fields"):
        admits_group(arc, s3_group(field_for_order(7)))
