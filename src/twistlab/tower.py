"""Finite-field towers GF(q) = L_0 <= L_1 <= L_2 <= ... with L_m = GF(q^(p^m)).

Each level is GF(q)[X] modulo a deterministic irreducible defining polynomial
of degree p^m.  An element is its code: its coordinates in the basis 1, X,
X^2, ... packed in base q.  Each level builds exp[i] = g^i, log[g^i] = i and
zech[i] = log(1 + g^i) for g the least code of full multiplicative order, so
products, powers, inverses and the q-power Frobenius are index arithmetic
and a + b = a * (1 + b/a) goes through zech.  Levels embed into the next
through a stored image of X (the root of the defining polynomial with least
coordinate vector), applied through a code table.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

from .errors import BudgetError, InternalFaultError
from .fields import (
    BaseField,
    is_irreducible,
    is_prime,
    factor_prime_power,
    least_irreducible_poly,
)

DEFAULT_FIELD_BUDGET = 1 << 20

# log of zero, and zech[i] where 1 + g^i = 0
_NO_LOG = -1


@dataclass(frozen=True)
class TowerConfig:
    """Shape of a tower: prime p, base order q, highest level k_max."""

    p: int
    q: int
    k_max: int

    def validate(self, budget: int = DEFAULT_FIELD_BUDGET):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        factor_prime_power(self.q)  # raises if not a prime power
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        # raise the order one level at a time and stop at the first level
        # past the budget, so a huge k_max is refused without big integers
        order = self.q
        for m in range(1, self.k_max + 1):
            order **= self.p
            if order > budget:
                raise BudgetError(
                    f"field order {self.q}^({self.p}^{m}) at level {m} "
                    f"(k_max {self.k_max}) exceeds the budget {budget}"
                )


class FieldElement:
    """An element of one tower level, stored as its base-q code."""

    __slots__ = ("level", "code")

    def __init__(self, level: "TowerLevel", code: int):
        self.level = level
        self.code = code

    @property
    def coords(self) -> tuple:
        """Coordinates over GF(q) in the basis 1, X, X^2, ...: the code's digits."""
        return self.level._digits(self.code)

    def _check(self, other):
        if self.level is not other.level and self.level != other.level:
            raise ValueError("field elements belong to different levels")

    def is_zero(self) -> bool:
        return self.code == 0

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.level, self.level.add(self.code, other.code))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FieldElement(self.level, self.level.neg(self.code))

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.level.from_base(self.level.base.from_int(other))
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.level, self.level.mul(self.code, other.code))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        lvl = self.level
        if e == 0:
            return lvl.one()
        if not self.code:
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return self
        return FieldElement(lvl, lvl.exp[lvl.log[self.code] * e % lvl.units])

    def inverse(self):
        return self ** -1

    def frobenius(self, times: int):
        """Apply x -> x^(q^times); negative counts wrap around."""
        return self.level.frobenius(self, times)

    def in_base_field(self) -> bool:
        return self.code < self.level.base.q

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.level.m == other.level.m
            and self.code == other.code
        )

    def __hash__(self):
        return hash((self.level.m, self.code))

    def __repr__(self):
        return f"FieldElement(level={self.level.m}, coords={self.coords})"


class TowerLevel:
    """One level L_m = GF(q^(p^m)) with its defining polynomial and tables."""

    def __init__(self, m: int, base: BaseField, modulus):
        self.m = m
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.order = base.q**self.degree
        self.units = self.order - 1  # order of the multiplicative group
        self.embedding_up = None  # coords in level m+1, set by the builder
        self.exp, self.log, self.zech = self._build_tables()
        # Frobenius^t multiplies logs by q^t
        self._frob_factor = [pow(base.q, t, self.units) for t in range(self.degree)]

    # -- code arithmetic, the same API as BaseField -----------------------------

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.units]

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self.units]
        return 0 if z == _NO_LOG else self.exp[(la + z) % self.units]

    def neg(self, a: int) -> int:
        return self.mul(a, self.base.neg(1))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return self.exp[-self.log[a] % self.units]

    def _digits(self, code: int) -> tuple:
        return tuple(code // self.base.q**i % self.base.q for i in range(self.degree))

    def _code(self, digits) -> int:
        return sum(c * self.base.q**i for i, c in enumerate(digits))

    # -- table construction ----------------------------------------------------

    def _build_tables(self):
        """exp, log and zech over the least code of full multiplicative order.

        exp is the orbit of 1 under multiplication by a candidate g; the
        first candidate whose orbit has length |L_m| - 1 is the generator.
        A shorter orbit is marked in log, since its members have smaller
        order too and need no walk of their own.
        """
        q, units = self.base.q, self.units
        exp = array("i", [0]) * units
        log = array("i", [_NO_LOG]) * self.order
        add = self._add_build
        for g in range(1, self.order):
            if log[g] != _NO_LOG:
                continue
            lo, hi, split = self._times_tables(g)
            x = 1
            for i in range(units):
                exp[i] = x
                x = add(lo[x % split], hi[x // split])
                if x == 1:
                    break
            if x != 1:  # an orbit that misses 1 means zero divisors
                raise ValueError(f"level {self.m}: modulus is not irreducible")
            if i == units - 1:
                break
            for j in range(i + 1):
                log[exp[j]] = 0
        for i, x in enumerate(exp):
            log[x] = i
        # adding 1 changes digit 0 only: shift[c] = code(c + 1) - code(c)
        shift = [self.base.add(c, 1) - c for c in range(q)]
        zech = array("i", (log[x + shift[x % q]] for x in exp))
        return exp, log, zech

    def _add_build(self, a: int, b: int) -> int:
        """Sum of two codes before the tables exist: bitwise in characteristic
        2, where the base-q digits are bit fields, digit by digit otherwise."""
        if self.base.char == 2:
            return a ^ b
        F, q = self.base, self.base.q
        out, place = 0, 1
        while a or b:
            a, x = divmod(a, q)
            b, y = divmod(b, q)
            out += F.add(x, y) * place
            place *= q
        return out

    def _scale(self, c: int, a: int) -> int:
        """Code of the base-field scalar c times the element with code a."""
        return self._code([self.base.mul(c, x) for x in self._digits(a)])

    def _times_tables(self, g: int):
        """(lo, hi, split) with code(g * x) = lo[x % split] + hi[x // split]:
        lo and hi hold g times every element of the low and high halves of
        the digits, spanned from g * X^j (shift and reduce)."""
        q, d, add = self.base.q, self.degree, self._add_build
        top, split = q ** (d - 1), q ** (d // 2)
        x_to_d = self._code([self.base.neg(c) for c in self.modulus[:-1]])
        tables, image = ([0], [0]), g
        for j in range(d):
            half = tables[q**j >= split]
            multiples = [self._scale(c, image) for c in range(q)]
            half[:] = [add(t, s) for s in multiples for t in half]
            image = add(image % top * q, self._scale(image // top, x_to_d))
        return tables[0], tables[1], split

    # -- elements --------------------------------------------------------------

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def generator(self) -> FieldElement:
        """Root of the defining polynomial: the class of X (level 0: -c_0)."""
        if self.degree == 1:
            return FieldElement(self, self.base.neg(self.modulus[0]))
        return FieldElement(self, self.base.q)

    def element(self, coords) -> FieldElement:
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise ValueError(
                f"level {self.m} needs {self.degree} coordinates, got {len(coords)}"
            )
        if not all(0 <= c < self.base.q for c in coords):
            raise ValueError(f"coordinates must lie in [0, {self.base.q})")
        return FieldElement(self, self._code(coords))

    def from_base(self, c: int) -> FieldElement:
        return FieldElement(self, c)

    def from_code(self, code: int) -> FieldElement:
        return FieldElement(self, code)

    def elements(self):
        """All elements in increasing integer-encoding order."""
        for code in range(self.order):
            yield FieldElement(self, code)

    def random_element(self, rng, nonzero: bool = False) -> FieldElement:
        lo = 1 if nonzero else 0
        return FieldElement(self, rng.randrange(lo, self.order))

    def frobenius(self, x: FieldElement, times: int) -> FieldElement:
        if x.level is not self and x.level != self:
            raise ValueError("element does not belong to this level")
        t = times % self.degree  # Frobenius has order p^m = degree
        if t == 0 or not x.code:
            return x
        return FieldElement(
            self, self.exp[self.log[x.code] * self._frob_factor[t] % self.units]
        )

    def __eq__(self, other):
        return (
            isinstance(other, TowerLevel)
            and self.m == other.m
            and self.base == other.base
            and self.modulus == other.modulus
            and self.embedding_up == other.embedding_up
        )

    def __hash__(self):
        return hash((self.m, self.base.q, self.modulus))

    def __repr__(self):
        return f"TowerLevel(m={self.m}, order={self.order})"


class Tower:
    """The materialized chain of levels 0..k_max with compatible embeddings."""

    def __init__(self, config: TowerConfig, levels):
        self.config = config
        self.levels = list(levels)
        # _up[m][code] is the code in level m+1 of the level-m element code
        self._up = [
            _embedding_table(lower, upper)
            for lower, upper in zip(self.levels, self.levels[1:])
        ]

    @property
    def p(self):
        return self.config.p

    @property
    def q(self):
        return self.config.q

    @property
    def k_max(self):
        return self.config.k_max

    def level(self, m: int) -> TowerLevel:
        if not 0 <= m <= self.k_max:
            raise ValueError(f"level {m} not materialized (k_max={self.k_max})")
        return self.levels[m]

    def embed(self, x: FieldElement, target_level: int) -> FieldElement:
        """Image of x under the composed ring embedding into a higher level."""
        if target_level < x.level.m:
            raise ValueError(
                f"cannot embed from level {x.level.m} down to {target_level}"
            )
        upper = self.level(target_level)
        code = x.code
        for m in range(x.level.m, target_level):
            code = self._up[m][code]
        return FieldElement(upper, code)

    def frobenius(self, x: FieldElement, times: int) -> FieldElement:
        return self.levels[x.level.m].frobenius(x, times)

    def fixed_subfield_dim(self, times: int, level: int) -> int:
        """Degree over GF(q) of the subfield fixed by Frobenius^times on L_level."""
        steps = self.p**level
        self.level(level)
        return math.gcd(times % steps, steps)

    def __eq__(self, other):
        return (
            isinstance(other, Tower)
            and self.config == other.config
            and self.levels == other.levels
        )

    def __repr__(self):
        return f"Tower(p={self.p}, q={self.q}, k_max={self.k_max})"


def _embedding_table(lower: TowerLevel, upper: TowerLevel):
    """Codes in upper of every element of lower, by Horner at the image of X."""
    theta = upper._code(lower.embedding_up)
    table = array("i", [0]) * lower.order
    for code in range(lower.order):
        acc = 0
        for c in reversed(lower._digits(code)):
            acc = upper.add(upper.mul(acc, theta), c)
        table[code] = acc
    return table


def _eval_poly(level: TowerLevel, coeffs, x: FieldElement) -> FieldElement:
    """Evaluate a polynomial with GF(q) coefficients at x (Horner)."""
    acc = level.zero()
    for c in reversed(coeffs):
        acc = acc * x + level.from_base(c)
    return acc


def _root_candidates(lower: TowerLevel, upper: TowerLevel):
    """The copy of lower inside upper: zero and the (|lower| - 1)-th roots of
    unity, the powers of g^((|upper| - 1) / (|lower| - 1))."""
    yield upper.zero()
    step = upper.units // lower.units
    for j in range(lower.units):
        yield FieldElement(upper, upper.exp[j * step])


def _find_embedding(lower: TowerLevel, upper: TowerLevel):
    roots = [
        x.coords
        for x in _root_candidates(lower, upper)
        if _eval_poly(upper, lower.modulus, x).is_zero()
    ]
    if not roots:
        raise InternalFaultError(
            f"defining polynomial of level {lower.m} has no root in level {upper.m}"
        )
    return min(roots)


@functools.lru_cache(maxsize=None)
def _build_tower_cached(p: int, q: int, k_max: int, budget: int) -> Tower:
    config = TowerConfig(p, q, k_max)
    config.validate(budget)
    base = BaseField(q)
    levels = []
    for m in range(k_max + 1):
        modulus = least_irreducible_poly(base, p**m)
        levels.append(TowerLevel(m, base, modulus))
    for m in range(k_max):
        levels[m].embedding_up = _find_embedding(levels[m], levels[m + 1])
    return Tower(config, levels)


def build_tower(config: TowerConfig, budget: int = DEFAULT_FIELD_BUDGET) -> Tower:
    """Materialize all levels of the configured tower.

    Towers are immutable and cached, so repeated calls with an equal
    configuration return the same object.
    """
    return _build_tower_cached(config.p, config.q, config.k_max, budget)


def tower_to_json(tower: Tower) -> dict:
    return {
        "p": tower.p,
        "q": tower.q,
        "k_max": tower.k_max,
        "levels": [
            {
                "m": lvl.m,
                "defining_polynomial": list(lvl.modulus),
                "embedding_up": list(lvl.embedding_up) if lvl.embedding_up else None,
            }
            for lvl in tower.levels
        ],
    }


def tower_from_json(data: dict, budget: int = DEFAULT_FIELD_BUDGET) -> Tower:
    """Rebuild a tower from its JSON description (bit-exact round trip)."""
    config = TowerConfig(data["p"], data["q"], data["k_max"])
    config.validate(budget)
    base = BaseField(config.q)
    levels = []
    for entry in data["levels"]:
        modulus = tuple(entry["defining_polynomial"])
        if len(modulus) - 1 != config.p ** entry["m"]:
            raise ValueError(f"level {entry['m']} polynomial has wrong degree")
        if not all(0 <= c < config.q for c in modulus) or modulus[-1] != 1:
            raise ValueError(f"level {entry['m']} polynomial is not monic over GF(q)")
        if not is_irreducible(base, modulus):
            raise ValueError(f"level {entry['m']} polynomial is not irreducible")
        levels.append(TowerLevel(entry["m"], base, modulus))
    for m, entry in enumerate(data["levels"][:-1]):
        up = entry["embedding_up"]
        if up is None:
            raise ValueError(f"level {m} is missing its embedding")
        image = levels[m + 1].element(up)
        if not _eval_poly(levels[m + 1], levels[m].modulus, image).is_zero():
            raise ValueError(f"stored embedding for level {m} is not a root")
        levels[m].embedding_up = tuple(up)
    return Tower(config, levels)
