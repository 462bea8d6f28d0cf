"""Exact arithmetic in GF(p^e) with integer-coded elements.

An element a_0 + a_1*x + ... + a_{e-1}*x^{e-1} is stored as the integer
a_0 + a_1*p + ... + a_{e-1}*p^{e-1}.  Extension fields reduce modulo a
monic irreducible polynomial supplied at construction (coefficients low
degree first); GF(p) itself is GF(p)[x]/(x).

Arithmetic is table lookup.  One numpy pass over the base-p digits of
the codes builds the q x q addition table (digitwise sums mod p) and
multiplication table (digit polynomials multiplied, then reduced modulo
the field polynomial); negation, inversion and the Frobenius map are read
off those two.  The same pass is the irreducibility test: the quotient
ring is a field exactly when no product of nonzero elements is zero.
Fields are immutable after construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Field",
    "field_for_order",
    "is_irreducible",
    "is_prime",
    "parse_field_spec",
]

# default irreducible polynomials (low degree first) for the supported
# non-prime orders
DEFAULT_POLYS = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 0, 0, 1, 1),
    25: (2, 1, 1),
    27: (1, 2, 0, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _ring_tables(p: int, poly):
    """Add and mul tables of GF(p)[x]/(poly) on integer codes, as (q, q)
    int64 arrays with q = p^deg(poly).

    The add table is the digitwise sum mod p; the mul table is the
    product of the digit polynomials, reduced from the top degree down by
    x^e = -(poly_0 + ... + poly_(e-1) x^(e-1)).  poly is monic of degree 1
    to 4, low degree first.
    """
    poly = [c % p for c in poly]
    e = len(poly) - 1
    if e < 1:
        raise ValueError("polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    if e > 4:
        raise ValueError("irreducibility test supports degree <= 4 only")
    # row a of digits holds the base-p digits of code a, low degree first
    digits = np.indices((p,) * e).reshape(e, p**e)[::-1].T
    weights = np.array([p**i for i in range(e)])
    add = ((digits[:, None] + digits) % p * weights).sum(axis=-1)
    prod = np.zeros((p**e, p**e, 2 * e - 1), dtype=np.int64)
    for i in range(e):
        prod[:, :, i : i + e] += digits[:, None, i, None] * digits
    for k in range(2 * e - 2, e - 1, -1):
        prod[:, :, k - e : k] -= prod[:, :, k, None] * poly[:e]
    mul = (prod[:, :, :e] % p * weights).sum(axis=-1)
    return add, mul


def _is_field(mul):
    """A finite ring is a field exactly when it has no zero divisors: no
    zero in its mul table off row and column 0."""
    return all(0 not in row[1:] for row in mul[1:])


def is_irreducible(p: int, poly) -> bool:
    """True iff the monic polynomial has no nontrivial factor over GF(p),
    that is, iff GF(p)[x]/(poly) is a field.  Degrees above 4 are not
    supported."""
    return _is_field(_ring_tables(p, poly)[1].tolist())


class Field:
    """GF(p^e) as its add, mul, neg, inv and Frobenius tables.

    Parameters: prime p, degree e, and for e > 1 a monic irreducible
    polynomial of degree e over GF(p) as a list of e+1 coefficients, low
    degree first.  For e = 1 the polynomial is ignored and the field is
    GF(p)[x]/(x).

    Attributes, all read-only:
      add_t, mul_t   q x q tuples of element codes
      neg_t, frob_t  length-q tuples: -a and a^p
      inv_t          length-q tuple: the inverse of a, None at 0
      add_np, mul_np the add and mul tables as (q, q) int16 arrays
    """

    def __init__(self, p: int, e: int = 1, poly=None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if e < 1:
            raise ValueError(f"e={e} must be positive")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.poly = None
        else:
            if poly is None:
                raise ValueError("extension field needs an irreducible polynomial")
            poly = tuple(c % p for c in poly)
            if len(poly) != e + 1:
                raise ValueError(f"polynomial must have {e + 1} coefficients")
            self.poly = poly
        add, mul = _ring_tables(p, poly if e > 1 else (0, 1))
        self.add_t = tuple(map(tuple, add.tolist()))
        self.mul_t = tuple(map(tuple, mul.tolist()))
        if not _is_field(self.mul_t):
            raise ValueError(f"polynomial {poly} is reducible over GF({p})")
        elems = np.arange(self.q)
        frob = elems
        for _ in range(p - 1):
            frob = mul[frob, elems]
        self.neg_t = self.mul_t[p - 1]  # -a = (-1).a, and -1 has code p - 1
        self.inv_t = (None,) + tuple(row.index(1) for row in self.mul_t[1:])
        self.frob_t = tuple(frob.tolist())
        self.add_np = add.astype(np.int16)
        self.mul_np = mul.astype(np.int16)
        self.add_np.flags.writeable = self.mul_np.flags.writeable = False

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"element code {a!r} out of range for GF({self.q})")
        return a

    def frob(self, a: int, k: int = 1) -> int:
        """k-fold Frobenius a -> a^(p^k)."""
        for _ in range(k % self.e):
            a = self.frob_t[a]
        return a

    def spec_string(self) -> str:
        if self.e == 1:
            return f"p={self.p} e=1"
        return f"p={self.p} e={self.e} poly=" + ",".join(str(c) for c in self.poly)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.poly) == (other.p, other.e, other.poly)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.poly))

    def __repr__(self):
        return f"Field({self.spec_string()!r})"


def parse_field_spec(text: str) -> Field:
    """Parse the text form ``p=<p> e=<e> poly=<a0>,<a1>,...`` into a Field."""
    kv = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"bad field spec token {token!r}")
        key, val = token.split("=", 1)
        kv[key] = val
    try:
        p = int(kv["p"])
        e = int(kv.get("e", "1"))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad field spec {text!r}") from exc
    poly = None
    if "poly" in kv:
        poly = [int(c) for c in kv["poly"].split(",")]
    return Field(p, e, poly)


def field_for_order(q: int) -> Field:
    """Field of order q using a fixed default polynomial for non-primes."""
    if is_prime(q):
        return Field(q)
    if q in DEFAULT_POLYS:
        p = 2
        while q % p:
            p += 1
        e = 0
        n = q
        while n > 1:
            n //= p
            e += 1
        return Field(p, e, DEFAULT_POLYS[q])
    raise ValueError(f"unsupported field order {q}")
