import itertools
import random

import numpy as np
import pytest

from pgarcs.errors import ParseError
from pgarcs.gf import Field, field_for_order, field_from_header, is_irreducible, parse_field_spec

# the three bundled extension fields exercised throughout the suite
GF16 = (2, 4, (1, 0, 0, 1, 1))  # x^4+x^3+1
GF25 = (5, 2, (2, 1, 1))  # x^2+x+2
GF27 = (3, 3, (1, 2, 0, 1))  # x^3+2x+1

SUPPORTED_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 29, 31]


def oracle_add(p, e, a, b):
    """Independent coefficientwise addition mod p on integer codes."""
    out, mult = 0, 1
    for _ in range(e):
        out += ((a % p + b % p) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def oracle_mul(p, e, poly, a, b):
    """Independent polynomial multiplication with long-division reduction."""
    av = [(a // p**i) % p for i in range(e)]
    bv = [(b // p**i) % p for i in range(e)]
    prod = [0] * (2 * e - 1 if e > 1 else 1)
    for i, x in enumerate(av):
        for j, y in enumerate(bv):
            prod[i + j] = (prod[i + j] + x * y) % p
    if e == 1:
        return prod[0]
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        prod[i] = 0
        for j in range(e + 1):
            prod[i - e + j] = (prod[i - e + j] - c * poly[j]) % p
    return sum(c * p**i for i, c in enumerate(prod[:e]))


def test_prime_field_add_inv():
    f = Field(5)
    assert f.add_t[3][4] == 2
    assert f.inv_t[2] == 3
    assert f.mul_t[2][3] == 1


def test_gf25_add_example():
    f = Field(*GF25)
    # 7 = x+2, 23 = 4x+3; the coefficientwise oracle gives 0
    assert oracle_add(5, 2, 7, 23) == 0
    assert f.add_t[7][23] == 0


def test_add_identity_everywhere():
    for q in (9, 16, 25):
        f = field_for_order(q)
        for a in range(f.q):
            assert f.add_t[a][0] == a


def test_gf25_mul_example():
    f = Field(*GF25)
    # x * x = x^2 = 4x+3 mod x^2+x+2, code 23
    assert oracle_mul(5, 2, GF25[2], 5, 5) == 23
    assert f.mul_t[5][5] == 23


def test_gf16_fourth_power():
    f = Field(*GF16)
    x = 2
    acc = 1
    for _ in range(4):
        acc = f.mul_t[acc][x]
    assert acc == 9
    square = f.mul_t[2][2]
    assert f.mul_t[square][square] == 9
    assert oracle_mul(2, 4, GF16[2], oracle_mul(2, 4, GF16[2], 2, 2), oracle_mul(2, 4, GF16[2], 2, 2)) == 9


def test_mul_identity():
    for q in (8, 27):
        f = field_for_order(q)
        for a in range(f.q):
            assert f.mul_t[a][1] == a


def test_mul_matches_oracle_exhaustive():
    """Every table of every supported field against the oracles."""
    for q in SUPPORTED_Q:
        f = field_for_order(q)
        p, e, poly = f.p, f.e, f.poly
        add = [[oracle_add(p, e, a, b) for b in range(q)] for a in range(q)]
        mul = [[oracle_mul(p, e, poly, a, b) for b in range(q)] for a in range(q)]
        assert f.add_t == tuple(map(tuple, add))
        assert f.mul_t == tuple(map(tuple, mul))
        assert f.neg_t == tuple(row.index(0) for row in add)
        assert f.inv_t == (None,) + tuple(row.index(1) for row in mul[1:])
        frob = []
        for a in range(q):
            x = 1
            for _ in range(p):
                x = mul[x][a]
            frob.append(x)
        assert f.frob_t == tuple(frob)
        for table, oracle in ((f.add_np, add), (f.mul_np, mul)):
            assert table.dtype == np.int16
            assert table.tolist() == oracle


def test_inverse_exhaustive_gf25():
    f = Field(*GF25)
    for a in range(1, 25):
        assert f.mul_t[a][f.inv_t[a]] == 1
    assert f.inv_t[0] is None  # 0 has no multiplicative inverse


def test_inv_identity_gf16():
    assert Field(*GF16).inv_t[1] == 1


def test_is_irreducible():
    assert is_irreducible(5, (2, 1, 1))
    assert is_irreducible(3, (1, 2, 0, 1))
    assert is_irreducible(2, (1, 0, 0, 1, 1))
    assert not is_irreducible(5, (1, 0, 1))  # root 2: 4+1=5=0
    assert not is_irreducible(2, (1, 1, 1, 1))  # root 1
    with pytest.raises(ValueError):
        is_irreducible(5, (1, 2))  # non-monic
    with pytest.raises(ValueError):
        is_irreducible(2, (1, 0, 0, 0, 0, 1))  # degree 5 unsupported


def test_reducible_poly_rejected():
    with pytest.raises(ValueError):
        Field(5, 2, (1, 0, 1))
    with pytest.raises(ValueError):
        Field(4)  # 4 is not prime
    with pytest.raises(ValueError):
        Field(5, 2)  # missing polynomial


def test_field_axioms():
    rng = random.Random(42)
    for q in SUPPORTED_Q:
        f = field_for_order(q)
        if q <= 16:
            triples = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
        else:
            triples = [
                (rng.randrange(q), rng.randrange(q), rng.randrange(q))
                for _ in range(500)
            ]
        add, mul = f.add_t, f.mul_t
        for a, b, c in triples:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_frobenius_additive_all_pairs():
    for q in SUPPORTED_Q:
        f = field_for_order(q)
        for a in range(q):
            for b in range(q):
                assert f.frob(f.add_t[a][b]) == f.add_t[f.frob(a)][f.frob(b)]


def test_frobenius_power_is_pth_power():
    f = Field(*GF27)
    for a in range(f.q):
        assert f.frob(a) == f.mul_t[f.mul_t[a][a]][a]
        assert f.frob(a, 3) == a  # full cycle


def test_paper_field_specs_construct():
    for args in (GF16, GF25, GF27):
        Field(*args)


def test_sub_neg():
    f = Field(7)
    for a in range(f.q):
        for b in range(f.q):
            assert f.add_t[f.add_t[a][f.neg_t[b]]][b] == a
    assert f.neg_t[0] == 0


def test_spec_string_round_trip():
    for q in (13, 25, 27):
        f = field_for_order(q)
        g = parse_field_spec(f.spec_string())
        assert f == g
    assert parse_field_spec("p=5 e=2 poly=2,1,1").q == 25
    with pytest.raises(ValueError):
        parse_field_spec("q=25")
    with pytest.raises(ValueError):
        parse_field_spec("p=5 junk")


def test_out_of_range_codes_rejected():
    f = Field(5)
    with pytest.raises(ValueError):
        f.check(5)
    with pytest.raises(ValueError):
        f.check(-1)


def test_decode_encode():
    """Code a0 + a1*p is the element a0 + a1*x, and x has code p."""
    f = Field(*GF25)
    assert f.add_t[2][f.mul_t[1][5]] == 7
    for a in range(f.q):
        assert f.add_t[a % 5][f.mul_t[a // 5][5]] == a


def _poly_mul(p, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _monic(p, d):
    """Every monic polynomial of degree d over GF(p), low degree first."""
    return [c + (1,) for c in itertools.product(range(p), repeat=d)]


@pytest.mark.parametrize("p, degrees", ((2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2,))))
def test_field_rejects_exactly_the_products_of_lower_degree_monics(p, degrees):
    for e in degrees:
        products = {_poly_mul(p, f, g) for d in range(1, e) for f in _monic(p, d) for g in _monic(p, e - d)}
        for poly in _monic(p, e):
            assert is_irreducible(p, poly) == (poly not in products)
            if poly in products:
                with pytest.raises(ValueError, match="reducible"):
                    Field(p, e, poly)
            else:
                assert Field(p, e, poly).q == p**e


FIELD_SPECS = {
    2: "p=2 e=1", 3: "p=3 e=1", 4: "p=2 e=2 poly=1,1,1", 5: "p=5 e=1", 7: "p=7 e=1",
    8: "p=2 e=3 poly=1,1,0,1", 9: "p=3 e=2 poly=1,0,1", 11: "p=11 e=1", 13: "p=13 e=1",
    16: "p=2 e=4 poly=1,0,0,1,1", 17: "p=17 e=1", 19: "p=19 e=1", 23: "p=23 e=1",
    25: "p=5 e=2 poly=2,1,1", 27: "p=3 e=3 poly=1,2,0,1", 29: "p=29 e=1", 31: "p=31 e=1",
}


@pytest.mark.parametrize("q", sorted(FIELD_SPECS))
def test_field_for_order_is_pinned(q):
    assert field_for_order(q).spec_string() == FIELD_SPECS[q]


@pytest.mark.parametrize("q", (6, 32))
def test_field_for_order_refuses_an_unsupported_order(q):
    with pytest.raises(ValueError, match=f"^unsupported field order {q}$"):
        field_for_order(q)


@pytest.mark.parametrize(
    ("kv", "message"),
    (
        ({"r": "2"}, "missing field headers (p=/e= or prime q=)"),
        ({"p": "5", "e": "2", "poly": "2,x"}, "line 4: bad poly value '2,x'"),
        ({"q": "9", "p": "3"}, "line 1: q=9 does not match p^e=3"),
    ),
)
def test_field_from_header_rejects_bad_headers(kv, message):
    with pytest.raises(ParseError) as exc:
        field_from_header(kv, {"q": 1, "p": 2, "e": 3, "poly": 4, "r": 5})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    ("kv", "message"),
    (
        ({"r": "2"}, "missing field headers (p=/e= or prime q=)"),
        ({"q": "26", "p": "5", "e": "2", "poly": "2,1,1"}, "line 1: q=26 does not match p^e=25"),
        ({"p": "5", "e": "2", "poly": "1,0,1"}, "polynomial (1, 0, 1) is reducible over GF(5)"),
        ({"p": "5", "e": "2"}, "extension field needs an irreducible polynomial"),
        ({"p": "0", "e": "2", "poly": "2,1,1"}, "p=0 is not prime"),
    ),
)
@pytest.mark.parametrize("known", (Field(3), Field(5, 2, (2, 1, 1))))
def test_a_known_field_changes_no_header_error(kv, message, known):
    for field in (None, known):
        with pytest.raises(ParseError) as exc:
            field_from_header(kv, {"q": 1, "p": 2, "e": 3, "poly": 4, "r": 5}, field)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    ("args", "message"),
    (((2, 0), "e=0 must be positive"), ((3, 2, (1, 1)), "polynomial must have 3 coefficients")),
)
def test_field_rejects_a_bad_degree_or_polynomial_length(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Field(*args)
