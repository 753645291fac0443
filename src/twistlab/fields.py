"""Exact arithmetic in finite fields on integer codes, plus polynomial helpers.

A field is F[X] modulo a monic irreducible polynomial over a smaller field F.
An element is its code: its coordinates in the basis 1, X, X^2, ... packed
in base |F|.  Each field builds exp[i] = g^i and log[g^i] = i for g the
least code of full multiplicative order, so products, powers and inverses
are index arithmetic.  Every field here is built over its prime field GF(r)
in steps, so a code is also the base-r integer of its GF(r) digits, and
addition is digit-wise mod r: XOR when r = 2.  Odd characteristic adds
a + b = a * (1 + b/a) through zech[i] = log(1 + g^i), built only there.
The choice is made once, when a field is built: in characteristic 2 its
add and sub are bound to operator.xor on the instance, otherwise the class
methods take the Zech path, so no sum tests the characteristic.

GF(q), q = r^e, is GF(r)[X] modulo the least irreducible monic polynomial of
degree e (the first in increasing encoding order, so the construction is
deterministic); the tower levels (tower.py) are built over GF(q) the same way.
Irreducibility is Ben-Or's test, gcds with X^(Q^i) - X.
"""

from __future__ import annotations

import math
from array import array
from operator import xor

from .errors import InternalFaultError

# log of zero, and zech[i] where 1 + g^i = 0
_NO_LOG = -1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for t in range(2, math.isqrt(n) + 1):
        if n % t == 0:
            return False
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (r, d) with q = r^d and r prime; raise ValueError otherwise."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    r = q
    for t in range(2, math.isqrt(q) + 1):
        if q % t == 0:
            r = t
            break
    d, m = 0, q
    while m % r == 0:
        m //= r
        d += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return r, d


class PrimeField:
    """GF(r) for a prime r: integers mod r."""

    def __init__(self, r: int):
        self.q = self.char = r

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"inverse of zero in GF({self.q})")
        return pow(a, -1, self.q)


class ExtensionField:
    """base[X]/(modulus) on integer codes, with exp/log (and odd-r zech) tables."""

    def __init__(self, base, modulus):
        self.base = base
        self.char = base.char
        self.modulus = tuple(modulus)
        self.degree = len(self.modulus) - 1
        self.order = base.q**self.degree
        self.units = self.order - 1  # order of the multiplicative group
        self.exp, self.log, self.zech = self._build_tables()
        if self.char == 2:  # sums are XOR: bound here, so no call tests char
            self.add = self.sub = xor

    # -- code arithmetic -------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.units]

    def add(self, a: int, b: int) -> int:
        """a + b through zech; characteristic 2 binds XOR over this method."""
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self.units]
        return 0 if z == _NO_LOG else self.exp[(la + z) % self.units]

    def neg(self, a: int) -> int:
        # -1 is the prime-field digit r - 1
        return a if self.char == 2 else self.mul(a, self.char - 1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return self.exp[-self.log[a] % self.units]

    def from_int(self, n: int) -> int:
        """Image of the rational integer n under the prime-field embedding."""
        return n % self.char

    def _digits(self, code: int) -> tuple:
        return tuple(code // self.base.q**i % self.base.q for i in range(self.degree))

    def _code(self, digits) -> int:
        return sum(c * self.base.q**i for i, c in enumerate(digits))

    # -- table construction ----------------------------------------------------

    def _build_tables(self):
        """exp, log and zech over the least code of full multiplicative order;
        zech is None in characteristic 2, where add is XOR.

        The generator is the first code g with g^(units/l) != 1 for each prime
        l dividing units; above degree 1 the search starts at Q = |base|, as
        smaller codes are constants, of order dividing Q - 1.  The powers take
        Horner's rule on the base-Q digits of units/l through g's times table
        and the Q-power Frobenius, base-linear and so tabulated the same way.
        Only that g is walked: exp is its orbit of 1, and log[x] = i is written
        on the way.  An orbit that misses 1 or ends early means zero divisors.

        Until the tables exist, codes add digit-wise mod r on their base-r
        digits, by XOR when r = 2.  For odd r both are spread to base 2r - 1,
        where digit sums cannot carry, added as integers and folded back mod
        r, through tables of the low and high halves of the digits; the walk
        keeps g's multiplication tables spread.
        """
        r, units, q, d = self.char, self.units, self.base.q, self.degree
        if r == 2:
            add = xor
        else:
            n = round(math.log(self.order, r))  # base-r digits of a code
            h, wide = n // 2, 2 * r - 1
            split, wide_split = r**h, wide**h
            spread_lo, spread_hi = _rebase(r, r, wide, n, h)
            fold_lo, fold_hi = _rebase(r, wide, r, n, h)

            def spread(a: int) -> int:
                return spread_lo[a % split] + spread_hi[a // split]

            def add(a: int, b: int) -> int:
                s = spread(a) + spread(b)
                return fold_lo[s % wide_split] + fold_hi[s // wide_split]

        frob_lo, frob_hi, half = self._times_tables(1, add, q)
        primes = {x for t in range(1, math.isqrt(units) + 1) if units % t == 0
                  for x in (t, units // t) if is_prime(x)}
        for g in range(1 if d == 1 else q, self.order):  # if none passes, the walk fails
            lo, hi, _ = self._times_tables(g, add)
            for ell in primes:  # x = g^(units/l), by Horner's rule
                x, e = 1, units // ell
                for i in reversed(range(d)):
                    x = add(frob_lo[x % half], frob_hi[x // half])
                    for _ in range(e // q**i % q):
                        x = add(lo[x % half], hi[x // half])
                if x == 1:
                    break
            else:  # g has full order
                break
        exp, log, x = array("i", [0]) * units, array("i", [_NO_LOG]) * self.order, 1
        if r == 2:  # half is a power of 2
            mask, shift = half - 1, half.bit_length() - 1
            for i in range(units):
                exp[i] = x
                log[x] = i
                x = lo[x & mask] ^ hi[x >> shift]
                if x == 1:
                    break
        else:
            lo, hi = [spread(t) for t in lo], [spread(t) for t in hi]
            for i in range(units):
                exp[i] = x
                log[x] = i
                s = lo[x % half] + hi[x // half]
                x = fold_lo[s % wide_split] + fold_hi[s // wide_split]
                if x == 1:
                    break
        if x != 1 or i != units - 1:
            raise ValueError(f"modulus {list(self.modulus)} is not irreducible over GF({q})")
        # adding 1 changes the lowest base-r digit only
        zech = None if r == 2 else array(
            "i", (log[x + 1 - r if x % r == r - 1 else x + 1] for x in exp))
        return exp, log, zech

    def _scale(self, c: int, a: int) -> int:
        """Code of the base-field scalar c times the element with code a."""
        return a * c if c < 2 else self._code([self.base.mul(c, x) for x in self._digits(a)])

    def _times_tables(self, g: int, add, e: int = 1):
        """(lo, hi, split) with g * x^e = add(lo[x % split], hi[x // split]),
        e = 1 or |base| (so base-linear): lo and hi hold it on the low and high
        halves of the digits, spanned from g * X^(e j) (shift and reduce)."""
        q, d = self.base.q, self.degree
        top, split = q ** (d - 1), q ** (d // 2)
        x_to_d = self._code([self.base.neg(c) for c in self.modulus[:-1]])
        tables, image = ([0], [0]), g
        for j in range(d):
            half = tables[q**j >= split]
            multiples = [self._scale(c, image) for c in range(q)]
            half[:] = [add(t, s) for s in multiples for t in half]
            for _ in range(e):
                image = add(image % top * q, self._scale(image // top, x_to_d))
        return tables[0], tables[1], split


def _rebase(r: int, src: int, dst: int, n: int, h: int):
    """(lo, hi) for n-digit base-src numbers split after digit h: lo[x] and
    hi[y] rewrite the digits of x and of y * src^h, each reduced mod r, in
    base dst."""

    def table(positions):
        out = [0]
        for j in positions:
            out = [t + w for w in [c % r * dst**j for c in range(src)] for t in out]
        return out

    return table(range(h)), table(range(h, n))


class BaseField(ExtensionField):
    """GF(q) for a prime power q = r^e: GF(r)[X] modulo the least irreducible
    monic polynomial of degree e (X itself when q is prime)."""

    def __init__(self, q: int):
        r, e = factor_prime_power(q)
        self.q = q
        prime = PrimeField(r)
        super().__init__(prime, least_irreducible_poly(prime, e))

    def __eq__(self, other):
        return (
            isinstance(other, BaseField)
            and self.q == other.q
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        return f"BaseField(q={self.q})"


# ---------------------------------------------------------------------------
# Polynomials over a field F (PrimeField or ExtensionField): coefficient
# lists, ascending degree, trimmed.


def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_mod(F, a, b):
    """Remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    inv_lead = F.inv(b[-1])
    while len(rem) >= len(b) and rem:
        shift = len(rem) - len(b)
        c = F.mul(rem[-1], inv_lead)
        for i, bc in enumerate(b):
            rem[shift + i] = F.sub(rem[shift + i], F.mul(c, bc))
        rem = poly_trim(rem)
    return rem


def _mulmod(F, a, b, f):
    """a * b mod f."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    return poly_mod(F, prod, f)


def is_irreducible(F, poly) -> bool:
    """Ben-Or's test for a monic poly of degree d over F, |F| = Q.

    poly is reducible iff it has an irreducible factor of some degree
    i <= d/2, that is iff gcd(X^(Q^i) - X, poly) != 1 for such an i.
    """
    f = poly_trim(poly)
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        x = h
        for bit in bin(F.q)[3:]:  # h <- h^Q mod f, left-to-right binary
            h = _mulmod(F, h, h, f)
            if bit == "1":
                h = _mulmod(F, h, x, f)
        a, b = f, poly_trim([F.sub(c, int(i == 1)) for i, c in enumerate(h + [0, 0])])
        while b:
            a, b = b, poly_mod(F, a, b)
        if len(a) > 1:
            return False
    return len(f) > 1


def least_irreducible_poly(F, degree: int):
    """First irreducible monic polynomial of the given degree, scanning in
    increasing coefficient-encoding order."""
    q = F.q
    for code in range(q**degree):
        poly = [code // q**i % q for i in range(degree)] + [1]
        if is_irreducible(F, poly):
            return poly
    raise InternalFaultError(  # pragma: no cover - irreducibles always exist
        f"no monic irreducible of degree {degree} over GF({F.q})"
    )
