"""Exact arithmetic in small prime-power fields GF(q), plus polynomial helpers.

Elements of GF(q) are encoded as integers in [0, q): for q = r^d the base-r
digits of the encoding are the coefficients of a polynomial over GF(r),
reduced modulo a fixed irreducible modulus of degree d.  The modulus is the
first irreducible monic polynomial in increasing encoding order, so the
construction is deterministic.  All operations are table driven; the order is
capped so the tables stay small.
"""

from __future__ import annotations

import math

from .errors import BudgetError, InternalFaultError

# Largest base-field order for which the q x q operation tables are built.
MAX_BASE_ORDER = 1024


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


class BaseField:
    """GF(q) for a prime power q, with int-encoded elements and op tables."""

    def __init__(self, q: int):
        if q > MAX_BASE_ORDER:
            raise BudgetError(
                f"base field order {q} exceeds the table budget {MAX_BASE_ORDER}"
            )
        r, d = factor_prime_power(q)
        self.q = q
        self.char = r
        self.degree = d
        if d == 1:
            # GF(r)[X]/(X) is GF(r) itself; X is the first monic of degree 1.
            self.modulus = (0, 1)
        else:
            prime = BaseField(r)
            self.modulus = tuple(least_irreducible_poly(prime, d))
        self._build_tables()

    def _digits(self, a: int) -> list[int]:
        r, out = self.char, []
        for _ in range(self.degree):
            a, rem = divmod(a, r)
            out.append(rem)
        return out

    def _encode(self, digits) -> int:
        val = 0
        for c in reversed(digits):
            val = val * self.char + c
        return val

    def _build_tables(self):
        q, r, d = self.q, self.char, self.degree
        if d == 1:
            self._add = [(a + b) % r for a in range(q) for b in range(q)]
            self._mul = [(a * b) % r for a in range(q) for b in range(q)]
            self._neg = [(-a) % r for a in range(q)]
        else:
            mod = [c for c in self.modulus[:-1]]  # modulus is monic
            self._add = [0] * (q * q)
            self._mul = [0] * (q * q)
            self._neg = [self._encode([(-c) % r for c in self._digits(a)]) for a in range(q)]
            digit_cache = [self._digits(a) for a in range(q)]
            for a in range(q):
                da = digit_cache[a]
                for b in range(q):
                    db = digit_cache[b]
                    self._add[a * q + b] = self._encode(
                        [(x + y) % r for x, y in zip(da, db)]
                    )
                    conv = [0] * (2 * d - 1)
                    for i, x in enumerate(da):
                        if x:
                            for j, y in enumerate(db):
                                conv[i + j] = (conv[i + j] + x * y) % r
                    # reduce: X^d = -mod (mod is monic), folded repeatedly
                    for i in range(2 * d - 2, d - 1, -1):
                        c = conv[i]
                        if c:
                            conv[i] = 0
                            for j, mc in enumerate(mod):
                                conv[i - d + j] = (conv[i - d + j] - c * mc) % r
                    self._mul[a * q + b] = self._encode(conv[:d])
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a * q + b] == 1:
                    self._inv[a] = b
                    break

    def add(self, a: int, b: int) -> int:
        return self._add[a * self.q + b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a * self.q + self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return self._inv[a]

    def from_int(self, n: int) -> int:
        """Image of the rational integer n under the prime-field embedding."""
        return n % self.char

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
# Polynomials over a BaseField: coefficient lists, ascending degree, trimmed.


def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_divmod(F: BaseField, a, b):
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    while len(rem) >= len(b) and rem:
        shift = len(rem) - len(b)
        c = F.mul(rem[-1], inv_lead)
        quo[shift] = c
        for i, bc in enumerate(b):
            rem[shift + i] = F.sub(rem[shift + i], F.mul(c, bc))
        rem = poly_trim(rem)
    return poly_trim(quo), rem


def _monic_polys(F: BaseField, degree: int):
    q = F.q
    for code in range(q**degree):
        coeffs, c = [], code
        for _ in range(degree):
            c, rem = divmod(c, q)
            coeffs.append(rem)
        coeffs.append(1)
        yield coeffs


def is_irreducible(F: BaseField, poly) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by X
        return False
    for j in range(1, deg // 2 + 1):
        for g in _monic_polys(F, j):
            _, rem = poly_divmod(F, poly, g)
            if not rem:
                return False
    return True


def least_irreducible_poly(F: BaseField, degree: int):
    """First irreducible monic polynomial of the given degree, scanning in
    increasing coefficient-encoding order."""
    for poly in _monic_polys(F, degree):
        if is_irreducible(F, poly):
            return poly
    raise InternalFaultError(  # pragma: no cover - irreducibles always exist
        f"no monic irreducible of degree {degree} over GF({F.q})"
    )
