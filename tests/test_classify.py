import functools
import hashlib
import itertools
import json

import numpy as np
import pytest

from pgarcs import __version__, classify
from pgarcs.classify import enumerate_cyclic_classes, gl3_class_representatives, run_exclusion
from pgarcs.condense import condense
from pgarcs.geometry import build_plane
from pgarcs.gf import Field, is_prime
from pgarcs.group import char_poly, closure, compose, inverse, make_element, orbits, scalar_powers
from pgarcs.solver import FEASIBLE_FOUND, IlpModel, Solution, solve_feasible


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
    13: "13bf1eb0e4ed5dc60ad47a995969411fc587d008d6ce02aa30f7882ec0a3f160",
}


@pytest.mark.parametrize("p", sorted(CLASS_DIGESTS))
def test_the_class_list_is_frozen(p):
    # ids, orders, labels, signatures and generators, as listed when each
    # scalar multiple still got its own canonical_label; the repr of a
    # numpy integer differs from a Python int's, so none may leak in
    rows = [
        (c.class_id, c.projective_order, c.label, c.signature, c.generator.mat, c.generator.frob)
        for c in enumerate_cyclic_classes(p)
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CLASS_DIGESTS[p]


def gl_labels(p, mats, pgl=False):
    """The GL label (invariant factors) of every matrix of an (N, 3, 3)
    array, or with pgl=True its PGL label, by one call of the batched rule."""
    codes = classify._label_codes(p, np.asarray(mats, dtype=np.int64))[1 if pgl else 0]
    return [classify._label(p, code) for code in codes.tolist()]


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_pgl_label_is_the_least_label_of_a_scalar_multiple(p):
    reps = gl3_class_representatives(p)
    multiples = np.arange(1, p)[:, None, None, None] * np.array(reps) % p
    labels = gl_labels(p, multiples.reshape(-1, 3, 3))
    assert gl_labels(p, reps, pgl=True) == [min(labels[i :: len(reps)]) for i in range(len(reps))]


def test_a_sweep_accepts_only_one_thread():
    with pytest.raises(ValueError):
        run_exclusion(3, 2, 5, threads=2)


@pytest.mark.parametrize("budget", (float("inf"), float("nan")))
def test_a_sweep_needs_a_finite_budget_before_any_solve(tmp_path, budget):
    path = tmp_path / "checkpoint.json"
    with pytest.raises(ValueError, match=f"^budget_per_class={budget}: the budget must be a finite number of seconds$"):
        run_exclusion(3, 2, 5, budget_per_class=budget, checkpoint=str(path), progress=pytest.fail)
    assert not path.exists()


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
    # the minimal polynomial is the last invariant factor
    mats = invertible_matrices(p)
    assert len(mats) == {2: 168, 3: 11232}[p]
    expected = lowest_annihilators(p, mats)
    assert [label[-1] for label in gl_labels(p, mats)] == expected
    for i in range(0, len(mats), len(mats) // 24):  # one matrix at a time too
        assert gl_labels(p, mats[i : i + 1])[0][-1] == expected[i]


@pytest.mark.parametrize("p", (5, 7))
def test_min_poly_is_the_lowest_degree_annihilator_on_every_matrix_the_enumeration_labels(p):
    # the class representatives and every power of every class generator
    spec = Field(p)
    powers = [m for c in enumerate_cyclic_classes(p) for m in scalar_powers(spec, c.generator.mat)]
    mats = np.array(gl3_class_representatives(p) + powers)
    for chunk in np.array_split(mats, range(256, len(mats), 256)):
        assert [label[-1] for label in gl_labels(p, chunk)] == lowest_annihilators(p, chunk)


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
    mats = invertible_matrices(p)
    for m, label in zip(mats.tolist(), gl_labels(p, mats)):
        m = tuple(map(tuple, m))
        assert all(f[-1] == 1 for f in label)
        assert all(divides(p, f, g) for f, g in zip(label, label[1:]))
        assert functools.reduce(functools.partial(poly_mul, p), label) == char_poly(spec, m)


def test_a_diagonal_matrix_is_told_apart_from_a_jordan_block():
    diagonal, jordan = gl_labels(3, [((1, 0, 0), (0, 1, 0), (0, 0, 2)), ((1, 1, 0), (0, 1, 0), (0, 0, 2))])
    assert diagonal[-1] == (2, 0, 1)  # x^2 - 1
    assert diagonal != jordan


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


def prime_divisors_below(m):
    return [d for d in range(2, m) if m % d == 0 and is_prime(d)]


@pytest.mark.parametrize("p", (2, 3))
def test_subgroups_are_the_prime_order_subgroups_of_each_class(p):
    # entry i is the signature of a class whose cyclic subgroup holds a
    # conjugate of g^(m/d), d the i-th prime below m dividing m
    spec = Field(p)
    classes = enumerate_cyclic_classes(p)
    by_signature = {c.signature: c for c in classes}
    checked = 0
    for c in classes:
        powers = scalar_powers(spec, c.generator.mat)
        m = c.projective_order
        assert len(c.subgroups) == len(prime_divisors_below(m))
        for d, sig in zip(prime_divisors_below(m), c.subgroups):
            h = by_signature[sig]
            assert h.projective_order == d
            subgroup = set(closure(spec, [h.generator]).elements)
            power = make_element(spec, powers[m // d - 1])
            assert any(compose(spec, compose(spec, a, power), a_inv) in subgroup for a, a_inv in pgl(p))
            checked += 1
    assert checked == {2: 1, 3: 5}[p]


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_subgroups_have_the_prime_orders_of_the_class_order_in_ascending_order(p):
    classes = enumerate_cyclic_classes(p)
    order_of = {c.signature: c.projective_order for c in classes}
    for c in classes:
        assert [order_of[sig] for sig in c.subgroups] == prime_divisors_below(c.projective_order)


SWEEP_SOURCE_DIGESTS = {
    (3, 2, 5): "392eb78069b09fc3b063568654d327fe3e73d8122b731724f5d3317d72456579",
    (5, 2, 6): "f0c349ae16522d6120eaca79014480f0b4893ff15e35a2ef9c4138f7a09bec55",
    (5, 2, 7): "643bd738d8ce5429b0cddaa63d9ad030921542fa19e945f986ea35b92b09e62b",
    (7, 3, 16): "a48d0afada0fb943ac6bdf3307903d61f34ff0ed6ad98af7deb9e724438068c3",
}


@pytest.mark.parametrize(("p", "r", "n"), sorted(SWEEP_SOURCE_DIGESTS))
def test_the_sweep_sources_are_frozen(p, r, n):
    # which solved class each implied record names: a class of order 6,
    # 10, 12 or 20 has two prime-order subgroups, the smaller prime first
    rows = [(c["id"], c["status"], c["implied_by"]) for c in run_exclusion(p, r, n, budget_per_class=10).classes]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SWEEP_SOURCE_DIGESTS[p, r, n]


@pytest.mark.parametrize(("p", "r", "n"), ((3, 2, 5), (5, 2, 6), (5, 2, 7)))
def test_every_implied_class_is_excluded_by_its_own_solve(p, r, n):
    # the source is a solved exclusion of <g^k> for some k | m, up to
    # conjugacy, and solving <g> itself proves the implied exclusion
    spec = Field(p)
    plane = build_plane(spec)
    classes = {c.class_id: c for c in enumerate_cyclic_classes(p)}
    by_label = {c.label: c for c in classes.values()}
    records = {rec["id"]: rec for rec in run_exclusion(p, r, n, budget_per_class=10).classes}
    implied = [rec for rec in records.values() if rec["implied_by"] is not None]
    assert implied
    for rec in implied:
        source = records[rec["implied_by"]]
        assert (source["status"], source["implied_by"]) == ("ProvedInfeasible", None)
        g = classes[rec["id"]].generator
        powers = scalar_powers(spec, g.mat)
        m = len(powers)
        labels = gl_labels(p, [powers[k - 1] for k in range(1, m) if m % k == 0], pgl=True)
        subgroups = {by_label[label].signature for label in labels}
        assert classes[source["id"]].signature in subgroups
        assert (rec["nodes"], rec["ell"], rec["objective"]) == (0, None, None)
        cs = condense(plane, orbits(plane, closure(spec, [g])), r)
        assert solve_feasible(IlpModel(cs), target=n, budget=10).status == "ProvedInfeasible"


@pytest.mark.parametrize(("p", "r", "n", "solved"), ((3, 2, 5, 4), (5, 2, 7, 5), (7, 3, 16, 7)))
def test_an_excluded_sweep_solves_one_class_per_prime_order_subgroup(p, r, n, solved):
    rep = run_exclusion(p, r, n, budget_per_class=10)
    assert rep.verdict == "RigidOrNonexistent"
    assert len(rep.classes) == p * p + p - 1 + (2 if (p - 1) % 3 == 0 else 0)
    orders = [c["order"] for c in rep.classes if c["implied_by"] is None]
    prime_order = {c.signature for c in enumerate_cyclic_classes(p) if is_prime(c.projective_order)}
    assert len(orders) == len(prime_order) == solved
    assert all(is_prime(m) for m in orders)


def test_a_checkpointed_involution_implies_every_even_order_class(tmp_path):
    classes = [c for c in enumerate_cyclic_classes(5) if not c.is_trivial]
    (involution,) = [c.class_id for c in classes if c.projective_order == 2]
    rec = {"id": involution, "order": 2, "ell": 19, "status": "ProvedInfeasible", "objective": 6, "nodes": 3, "time": 0.1}
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({"key": "q=5 r=2 n=7", "classes": {str(involution): rec}}))
    rep = run_exclusion(5, 2, 7, budget_per_class=10, checkpoint=str(path))
    implied_by = {c["id"]: c["implied_by"] for c in rep.classes}
    even = [c.class_id for c in classes if c.projective_order % 2 == 0 and c.class_id != involution]
    assert len(even) == 15
    assert {implied_by[i] for i in even} == {involution}
    assert implied_by[involution] is None
    saved = json.loads(path.read_text())
    assert (saved["key"], saved["version"]) == ("q=5 r=2 n=7", __version__)
    assert saved["classes"][str(involution)] == {**rec, "symmetry": 1, "implied_by": None, "budget": None}
    assert all(c["budget"] == 10 for i, c in saved["classes"].items() if i != str(involution))


def test_a_witness_that_is_no_arc_stops_the_sweep(monkeypatch):
    # every orbit selected is the whole plane: 31 points, but 6 on each line
    def every_orbit(model, target, budget):
        return Solution(x=(1,) * model.n, objective=target, status=FEASIBLE_FOUND)

    monkeypatch.setattr(classify, "solve_feasible", every_orbit)
    with pytest.raises(RuntimeError, match=r"class 1: the witness is no \(6,2\)-arc"):
        run_exclusion(5, 2, 6, budget_per_class=10)
