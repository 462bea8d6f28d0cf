import hashlib
import random

import numpy as np
import pytest

from conftest import normalized_triples, random_cyclic_group, s3_group
from pgarcs.arcs import CORPUS, Arc, load_corpus_arc, verify_arc
from pgarcs.condense import (
    NotAdmittedError,
    compress_arc,
    condense,
    dual_condensation,
    expand_solution,
    format_system,
    parse_system,
)
from pgarcs.gf import Field
from pgarcs.group import closure, make_element, orbits
from test_geometry import dot_product_incidence

C0_Q13 = ((0, 1, 0), (1, 0, 0), (0, 0, 12))


def line_multiplicities(plane, points):
    """Points of the set on each line, from the dot-product reference."""
    ref = dot_product_incidence(plane.spec, normalized_triples(plane.spec.q))
    return ref[:, list(points)].sum(axis=1)


def test_trivial_group_condensation_is_incidence_matrix(plane_for):
    plane = plane_for(2)
    od = orbits(plane, closure(plane.spec, []))
    cs = condense(plane, od, 2)
    assert cs.ell == 7
    assert cs.w == (1,) * 7
    assert np.array_equal(np.array(cs.A), dot_product_incidence(plane.spec, normalized_triples(2)))


def test_row_sums_s3_gf16(plane_for):
    plane = plane_for(16)
    od = orbits(plane, s3_group(plane.spec))
    for r in (1, 5, 17):
        cs = condense(plane, od, r)
        assert all(s == 17 for s in cs.row_sums())


def test_c0_entries_bounded(plane_for):
    plane = plane_for(13)
    od = orbits(plane, closure(plane.spec, [make_element(plane.spec, C0_Q13)]))
    cs = condense(plane, od, 5)
    assert cs.ell == len(set(od.point_orbit_of.tolist())) == len(set(od.line_orbit_of.tolist()))
    assert set(v for row in cs.A for v in row) <= {0, 1, 2}


def test_r_out_of_range(plane_for):
    plane = plane_for(3)
    od = orbits(plane, closure(plane.spec, []))
    with pytest.raises(ValueError):
        condense(plane, od, 0)
    with pytest.raises(ValueError):
        condense(plane, od, 5)


def test_expand_trivial_cases(plane_for):
    plane = plane_for(5)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(0)))
    assert expand_solution(plane, od, (0,) * od.ell) == ()
    assert expand_solution(plane, od, (1,) * od.ell) == tuple(range(31))
    with pytest.raises(ValueError):
        expand_solution(plane, od, (0,) * (od.ell + 1))


def test_entry_bounds(plane_for):
    plane = plane_for(9)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(1)))
    cs = condense(plane, od, 4)
    for i, row in enumerate(cs.A):
        for j, v in enumerate(row):
            assert 0 <= v <= min(cs.w[j], 10)


def test_double_counting(plane_for):
    for q, seed in ((7, 2), (9, 3), (13, 4)):
        plane = plane_for(q)
        od = orbits(plane, random_cyclic_group(plane.spec, random.Random(seed)))
        cs = condense(plane, od, 2)
        abar = dual_condensation(plane, od)
        for i in range(od.ell):
            for j in range(od.ell):
                assert np.count_nonzero(od.line_orbit_of == i) * cs.A[i][j] == od.weights[j] * abar[j][i]


def test_feasibility_transfer_exhaustive_small(plane_for):
    rng = random.Random(5)
    for q in (2, 3, 4, 5):
        plane = plane_for(q)
        od = orbits(plane, random_cyclic_group(plane.spec, rng))
        r = rng.randrange(1, q + 2)
        cs = condense(plane, od, r)
        for trial in range(40):
            x = [0] * cs.ell
            loads = [0] * cs.ell
            order = list(range(cs.ell))
            rng.shuffle(order)
            for j in order:
                if all(loads[i] + cs.A[i][j] <= r for i in range(cs.ell)):
                    x[j] = 1
                    for i in range(cs.ell):
                        loads[i] += cs.A[i][j]
            pts = expand_solution(plane, od, x)
            assert len(pts) == sum(w for w, xj in zip(cs.w, x) if xj)
            if pts:
                mult = line_multiplicities(plane, pts)
                assert mult.max() <= r
                rep = verify_arc(Arc(plane=plane, points=pts))
                assert (rep.max_multiplicity, rep.lines_at_max) == (mult.max(), (mult == mult.max()).sum())


def test_compress_round_trip(plane_for):
    plane = plane_for(13)
    od = orbits(plane, closure(plane.spec, [make_element(plane.spec, C0_Q13)]))
    rng = random.Random(6)
    for _ in range(10):
        sel = tuple(rng.randrange(2) for _ in range(od.ell))
        pts = expand_solution(plane, od, sel)
        assert compress_arc(od, pts) == sel
        assert expand_solution(plane, od, compress_arc(od, pts)) == pts


def test_compress_empty(plane_for):
    plane = plane_for(5)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(7)))
    assert compress_arc(od, ()) == (0,) * od.ell


def test_compress_rejects_non_orbit_set(plane_for):
    plane = plane_for(9)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(8)))
    big = max(range(od.ell), key=lambda j: od.weights[j])
    assert od.weights[big] > 1
    pts = set(expand_solution(plane, od, tuple(1 if j == big else 0 for j in range(od.ell))))
    pts.discard(int(np.flatnonzero(od.point_orbit_of == big)[0]))
    with pytest.raises(NotAdmittedError):
        compress_arc(od, pts)


def test_system_file_round_trip(plane_for):
    plane = plane_for(7)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(9)))
    cs = condense(plane, od, 3)
    text = format_system(cs)
    back = parse_system(text)
    assert np.array_equal(back.A, cs.A) and back.w == cs.w and (back.ell, back.q, back.r) == (
        cs.ell,
        cs.q,
        cs.r,
    )
    with pytest.raises(ValueError):
        parse_system("ell=2 q=3 r=1\nw: 1\n1 1\n1 1\n")


def test_system_file_comments(plane_for):
    plane = plane_for(5)
    cs = condense(plane, orbits(plane, random_cyclic_group(plane.spec, random.Random(10))), 2)
    header, weights, *rows = format_system(cs).splitlines()
    lines = ["  # an indented comment", f"{header}  # header", f"{weights} # weights"]
    lines += [f"{row} # row {i}" for i, row in enumerate(rows)]
    back = parse_system("\n".join(lines) + "\n")
    assert (back.ell, back.q, back.r, back.w) == (cs.ell, cs.q, cs.r, cs.w)
    assert np.array_equal(back.A, cs.A)


# -- pinned systems ---------------------------------------------------------

# sha256 of format_system at the arc's r and of the rows of
# dual_condensation, for the group bundled with each corpus arc; taken
# while A was still a tuple of tuples
CORPUS_SYSTEM_SHA256 = {
    "q16_r10_n144.arc": (
        "f11c82391ec88f7369502ac68e6d2ee875433d88196bee56c3b4317a30f7875c",
        "fe1d95583e7b8ae94dac4b62a748c8e19d7f5920bc553c6a981a7e6bd69efe60",
    ),
    "q25_r18_n418.arc": (
        "3c6799dd8cd9f34918c079bd36d03c9e028fa0f0cd6a6b145f0c6fff34be5d29",
        "371bd756b21b7f93717c2ff41428088351a699d7dc3988b148efa8e68cdb0c75",
    ),
    "q25_r3_n39.arc": (
        "b748077d8d71c14a895fcfaa4d62d1c6ce3e8760325f156d228ef62ade2f23df",
        "43aa5939e4a3be42481590b0a73815c9fec99d5448bbea65288d4c4b321841ce",
    ),
    "q27_r9_n201.arc": (
        "e11ff9aa81e27941ffef037dbfae778417a821f38deacb88763a8c60f2b66431",
        "b72c5e0072f5dc18906c5de2851e7669d46594cbe6140ad5dd8d066854d2a85c",
    ),
    "q29_r14_n364.arc": (
        "335d0697913f8cba5060a45d112a21b6f3c7daa44780cd95eda4067c169d7c65",
        "1a7517af4e55bfa5bc1e863b0e0525a8a2a99989d75833f030c86cceb50f31fd",
    ),
    "q29_r25_n697.arc": (
        "8d7c2ee81d06cb5f451bef4f7070425e6f0ba2b838d770eb274293341100eb59",
        "26e8df11ff4aa2ada9f55b273a7b1d431adc9336555cbbb6d09eb27d3446ce86",
    ),
    "q31_r25_n734.arc": (
        "3a95efb2e4e1482edd466557f090a2aa897d28db34b0acc4682181f7f44858e1",
        "dddd8d44a0a4f8c0fa01694c7653e8df92d8b589462df5ad211e714be10d2081",
    ),
}
# sha256 of the format_system texts of the full plane for r = 1..q+1, joined
FULL_PLANE_SYSTEMS_SHA256 = {
    2: "a72d35cd5b23a6484785bc0d715d4d23be01054c37b42d5fcbbad11ccd508b9c",
    3: "97c5455849eab42e623aba203908729f703465f5b06c4d552442d08b060ebfaf",
    4: "2f997b765731c60a1d24ab5bd0feffa39799ab7ff8e773480b9fc6530d9dcb9c",
    5: "29d734a836b877adff6da5a8c94366a8294c2752973ac165d8aa4b2aabf5af83",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_system(plane, name):
    """The orbits of the group bundled with a corpus arc and its system at
    the arc's r; `plane` lies over the arc's field."""
    group = load_corpus_arc(name, plane=plane).group
    od = orbits(plane, closure(plane.spec, group.generators))
    return od, condense(plane, od, CORPUS[name][1])


@pytest.mark.parametrize("name", sorted(CORPUS_SYSTEM_SHA256))
def test_corpus_systems_are_pinned(plane_for, name):
    plane = plane_for(CORPUS[name][0])
    od, cs = corpus_system(plane, name)
    dual = "".join(" ".join(str(int(v)) for v in row) + "\n" for row in dual_condensation(plane, od))
    assert (sha256(format_system(cs)), sha256(dual)) == CORPUS_SYSTEM_SHA256[name]


@pytest.mark.parametrize("q", sorted(FULL_PLANE_SYSTEMS_SHA256))
def test_full_plane_systems_are_pinned(plane_for, q):
    plane = plane_for(q)
    od = orbits(plane, closure(plane.spec, []))
    text = "".join(format_system(condense(plane, od, r)) for r in range(1, q + 2))
    assert sha256(text) == FULL_PLANE_SYSTEMS_SHA256[q]


def test_a_condensed_matrix_is_one_read_only_int64_array(plane_for):
    plane = plane_for(7)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(12)))
    cs = condense(plane, od, 3)
    for system in (cs, parse_system(format_system(cs))):
        assert type(system.A) is np.ndarray and system.A.dtype == np.int64
        assert system.A.shape == (system.ell, system.ell) and not system.A.flags.writeable
        with pytest.raises(ValueError):
            system.A[0, 0] += 1
    assert not dual_condensation(plane, od).flags.writeable
