import random

import numpy as np
import pytest

from conftest import random_cyclic_group, s3_group
from pgarcs.arcs import Arc, verify_arc
from pgarcs.condense import (
    NotAdmittedError,
    compress_arc,
    condense,
    dual_condensation,
    expand_solution,
    format_system,
    parse_system,
)
from pgarcs.geometry import _normalized_triples
from pgarcs.gf import Field
from pgarcs.group import closure, make_element, orbits
from test_geometry import dot_product_incidence

C0_Q13 = ((0, 1, 0), (1, 0, 0), (0, 0, 12))


def line_multiplicities(plane, points):
    """Points of the set on each line, from the dot-product reference."""
    ref = dot_product_incidence(plane.spec, _normalized_triples(plane.spec.q))
    return ref[:, list(points)].sum(axis=1)


def test_trivial_group_condensation_is_incidence_matrix(plane_for):
    plane = plane_for(2)
    od = orbits(plane, closure(plane.spec, []))
    cs = condense(plane, od, 2)
    assert cs.ell == 7
    assert cs.w == (1,) * 7
    assert np.array_equal(np.array(cs.A), dot_product_incidence(plane.spec, _normalized_triples(2)))


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
    assert cs.ell == len(od.point_orbits) == len(od.line_orbits)
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
                assert len(od.line_orbits[i]) * cs.A[i][j] == od.weights[j] * abar[j][i]


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
    pts.discard(od.point_orbits[big][0])
    with pytest.raises(NotAdmittedError):
        compress_arc(od, pts)


def test_system_file_round_trip(plane_for):
    plane = plane_for(7)
    od = orbits(plane, random_cyclic_group(plane.spec, random.Random(9)))
    cs = condense(plane, od, 3)
    text = format_system(cs)
    back = parse_system(text)
    assert back.A == cs.A and back.w == cs.w and (back.ell, back.q, back.r) == (
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
    assert (back.ell, back.q, back.r, back.w, back.A) == (cs.ell, cs.q, cs.r, cs.w, cs.A)
