"""Exact arithmetic in GF(p^e) with integer-coded elements.

An element a_0 + a_1*x + ... + a_{e-1}*x^{e-1} is stored as the integer
a_0 + a_1*p + ... + a_{e-1}*p^{e-1}.  Extension fields reduce modulo a
monic irreducible polynomial supplied at construction (coefficients low
degree first).  Multiplication, inversion and powering run on log/antilog
tables built once per field from a multiplicative generator found by
search; addition is a precomputed q x q table.

Fields are immutable after construction and every operation is a pure
table lookup, so instances are safe to share across threads.
"""

from __future__ import annotations

import functools

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


def _poly_eval(p, poly, a):
    """Evaluate poly (low degree first) at a, all mod p."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * a + c) % p
    return acc


def _poly_divmod(p, num, den):
    """Long division of coefficient lists over GF(p); den must be monic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd] % p
        if c:
            quot[i] = c
            for j, dc in enumerate(den):
                num[i + j] = (num[i + j] - c * dc) % p
    rem = [c % p for c in num[:dd]]
    return quot, rem


def is_irreducible(p: int, poly) -> bool:
    """True iff the monic polynomial has no nontrivial factor over GF(p).

    Exhaustive: root search rules out linear factors (sufficient through
    degree 3); degree 4 additionally tries every monic quadratic divisor.
    Degrees above 4 are not supported.
    """
    poly = [c % p for c in poly]
    deg = len(poly) - 1
    if deg < 1:
        raise ValueError("polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    if deg > 4:
        raise ValueError("irreducibility test supports degree <= 4 only")
    if deg == 1:
        return True
    for a in range(p):
        if _poly_eval(p, poly, a) == 0:
            return False
    if deg == 4:
        for b0 in range(p):
            for b1 in range(p):
                _, rem = _poly_divmod(p, poly, [b0, b1, 1])
                if not any(rem):
                    return False
    return True


class Field:
    """GF(p^e) with precomputed add/mul/inv tables.

    Parameters: prime p, degree e, and for e > 1 a monic irreducible
    polynomial of degree e over GF(p) as a list of e+1 coefficients, low
    degree first.  For e = 1 the polynomial is ignored.
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
            if not is_irreducible(p, poly):
                raise ValueError(f"polynomial {poly} is reducible over GF({p})")
            self.poly = poly
        self._build_tables()

    # -- element coding -------------------------------------------------

    def decode(self, a: int):
        """Coefficient vector (low degree first) of the coded element."""
        self.check(a)
        coeffs = []
        for _ in range(self.e):
            a, c = divmod(a, self.p)
            coeffs.append(c)
        return tuple(coeffs)

    def encode(self, coeffs) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c % self.p
        return code

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"element code {a!r} out of range for GF({self.q})")
        return a

    # -- table construction ---------------------------------------------

    def _raw_mul(self, a, b):
        """Polynomial product reduced modulo the field polynomial."""
        p, e = self.p, self.e
        if e == 1:
            return (a * b) % p
        av = [0] * e
        bv = [0] * e
        x = a
        for i in range(e):
            x, av[i] = divmod(x, p)
        x = b
        for i in range(e):
            x, bv[i] = divmod(x, p)
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.e):
                    prod[i - e + j] = (prod[i - e + j] - c * self.poly[j]) % p
        return self.encode(prod[:e])

    def _build_tables(self):
        p, q = self.p, self.q
        # addition is coefficientwise mod p
        add = []
        for a in range(q):
            av = [0] * self.e
            x = a
            for i in range(self.e):
                x, av[i] = divmod(x, p)
            row = []
            for b in range(q):
                bv = []
                x = b
                for i in range(self.e):
                    x, c = divmod(x, p)
                    bv.append((av[i] + c) % p)
                row.append(self.encode(bv))
            add.append(tuple(row))
        self.add_t = tuple(add)
        self.neg_t = tuple(self.add_t[a].index(0) for a in range(q))

        # locate a multiplicative generator by search
        gen = None
        for cand in range(1, q):
            seen = set()
            x = 1
            for _ in range(q - 1):
                seen.add(x)
                x = self._raw_mul(x, cand)
            if len(seen) == q - 1:
                gen = cand
                break
        assert gen is not None
        exp = [1] * (q - 1)
        log = [0] * q  # log[0] unused
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, gen)
        self.generator = gen
        self._exp = tuple(exp)
        self._log = tuple(log)

        mul = []
        for a in range(q):
            if a == 0:
                mul.append((0,) * q)
                continue
            la = log[a]
            row = [0] * q
            for b in range(1, q):
                row[b] = exp[(la + log[b]) % (q - 1)]
            mul.append(tuple(row))
        self.mul_t = tuple(mul)
        self.inv_t = (None,) + tuple(exp[(q - 1 - log[a]) % (q - 1)] for a in range(1, q))
        # Frobenius a -> a^p
        self.frob_t = tuple(self.pow(a, p) for a in range(q))

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_t[self.check(a)][self.check(b)]

    def neg(self, a: int) -> int:
        return self.neg_t[self.check(a)]

    def sub(self, a: int, b: int) -> int:
        return self.add_t[self.check(a)][self.neg_t[self.check(b)]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_t[self.check(a)][self.check(b)]

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_t[a]

    def div(self, a: int, b: int) -> int:
        return self.mul_t[self.check(a)][self.inv(b)]

    def pow(self, a: int, k: int) -> int:
        self.check(a)
        if k < 0:
            return self.pow(self.inv(a), -k)
        if a == 0:
            return 1 if k == 0 else 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def frob(self, a: int, k: int = 1) -> int:
        """k-fold Frobenius a -> a^(p^k)."""
        for _ in range(k % self.e):
            a = self.frob_t[a]
        return a

    def elements(self):
        return range(self.q)

    # -- misc --------------------------------------------------------

    @functools.cached_property
    def add_np(self):
        return np.array(self.add_t, dtype=np.int16)

    @functools.cached_property
    def mul_np(self):
        return np.array(self.mul_t, dtype=np.int16)

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
