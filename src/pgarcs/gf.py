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

Every text reader of the package (arc, group, condensed-system and
bundled-table files) reads its lines through `text_lines`.  Field specs
and condensed-system headers are `key_values` tokens; an arc file holds
one ``key=value`` per header line.  Every field is built by
`field_from_header`, the rule behind `parse_field_spec`.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError

__all__ = [
    "Field",
    "field_for_order",
    "field_from_header",
    "header_int",
    "is_irreducible",
    "is_prime",
    "key_values",
    "parse_field_spec",
    "text_lines",
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


def text_lines(text: str):
    """(line number, text before any ``#``, stripped) for each line of
    text that keeps any; numbers count every line from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def key_values(text: str, line=None) -> dict:
    """The ``key=value`` tokens of text as a dict of strings."""
    kv = {}
    for token in text.split():
        key, eq, val = token.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {token!r}", line)
        kv[key] = val
    return kv


def header_int(kv: dict, key: str, lines=None) -> int:
    """kv[key] as an int; `lines` maps a key to its line, for the ParseError."""
    try:
        return int(kv[key])
    except ValueError:
        raise ParseError(f"bad {key} value {kv[key]!r}", (lines or {}).get(key)) from None


def field_from_header(kv: dict, lines=None) -> Field:
    """The field that ``p= e= poly=`` keys name (e defaults to 1, poly is
    read only for e > 1), or a prime ``q=`` alone; a ``q=`` next to p=
    must equal p^e.  `lines` is as for `header_int`."""
    at = lines or {}
    if "p" in kv:
        p = header_int(kv, "p", at)
        e = header_int(kv, "e", at) if "e" in kv else 1
    elif "q" in kv:
        p, e = header_int(kv, "q", at), 1
        if not is_prime(p):
            raise ParseError("non-prime q needs explicit p=, e= and poly= headers", at.get("q"))
    else:
        raise ParseError("missing field headers (p=/e= or prime q=)")
    poly = None
    if e > 1 and "poly" in kv:
        try:
            poly = [int(c) for c in kv["poly"].split(",")]
        except ValueError:
            raise ParseError(f"bad poly value {kv['poly']!r}", at.get("poly")) from None
    try:
        spec = Field(p, e, poly)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if "q" in kv and header_int(kv, "q", at) != spec.q:
        raise ParseError(f"q={kv['q']} does not match p^e={spec.q}", at.get("q"))
    return spec


def parse_field_spec(text: str) -> Field:
    """Parse the text form ``p=<p> e=<e> poly=<a0>,<a1>,...`` (or a prime
    ``q=<q>``) into a Field."""
    return field_from_header(key_values(text))


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
