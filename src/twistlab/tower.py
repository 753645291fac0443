"""Finite-field towers GF(q) = L_0 <= L_1 <= L_2 <= ... with L_m = GF(q^(p^m)).

Each level is GF(q)[X] modulo a deterministic irreducible defining polynomial
of degree p^m (the least one, by Ben-Or's test), built like GF(q) itself
(fields.ExtensionField): an element is its code, its base-q coordinates in
the basis 1, X, X^2, ...  Products, powers and inverses go through exp/log
tables; sums are XOR in characteristic 2 and otherwise use a Zech table,
which only odd characteristic builds.  The q-power Frobenius multiplies logs
by q.  Levels embed into the next through a stored image of X (the root of
the defining polynomial with least coordinate vector), via a code table.

All values are immutable after construction and every operation is pure.
build_tower caches a tower by (p, q, k_max), and fields.py a level's tables
by its field, so any tower with that level (of another k_max, or read from
JSON) shares them: tower_from_json only checks and assembles.
"""

from __future__ import annotations

import functools
from array import array
from itertools import chain
from typing import NamedTuple

from .errors import BudgetError, InternalFaultError
from .fields import (
    BaseField,
    ExtensionField,
    is_irreducible,
    is_prime,
    factor_prime_power,
    least_irreducible_poly,
)

DEFAULT_FIELD_BUDGET = 1 << 20


class TowerConfig(NamedTuple):
    """Shape of a tower: prime p, base order q, highest level k_max."""

    p: int
    q: int
    k_max: int

    def validate(self, budget: int = DEFAULT_FIELD_BUDGET):
        def refuse(m):
            raise BudgetError(
                f"field order {self.q}^({self.p}^{m}) at level {m} "
                f"(k_max {self.k_max}) exceeds the budget {budget}"
            )

        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.p < 2:
            raise ValueError(f"p must be prime, got {self.p}")
        # level 1 has order q^p >= max(q, 2^p): a huge q or p is refused by
        # comparisons, so the trial divisions below only see small numbers
        if self.q > budget or self.q >= 2 and self.p >= budget.bit_length():
            refuse(1)
        factor_prime_power(self.q)  # raises if not a prime power
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        # raise the order one level at a time and stop at the first level
        # past the budget, so a huge k_max is refused without big integers
        order = self.q
        for m in range(1, self.k_max + 1):
            order **= self.p
            if order > budget:
                refuse(m)


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


class TowerLevel(ExtensionField):
    """One level L_m = GF(q^(p^m)): GF(q)[X] modulo its defining polynomial."""

    def __init__(self, m: int, base: BaseField, modulus):
        self.m = m
        self.embedding_up = None  # coords in level m+1, set by the builder
        super().__init__(base, modulus)
        # Frobenius^t multiplies logs by q^t
        self._frob_factor = [pow(base.q, t, self.units) for t in range(self.degree)]

    # -- elements --------------------------------------------------------------

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def generator(self) -> FieldElement:
        return FieldElement(self, self.generator_code())

    def generator_code(self) -> int:
        """Root of the defining polynomial: the class of X (level 0: -c_0)."""
        return self.base.q if self.degree > 1 else self.base.neg(self.modulus[0])

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
        return FieldElement(self, self.frob_code(x.code, times))

    def frob_code(self, code: int, times: int) -> int:
        """Code of x^(q^times) for x of this code; Frobenius has order p^m."""
        if not code:
            return 0
        f = self._frob_factor[times % self.degree]
        return self.exp[self.log[code] * f % self.units]

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
        return FieldElement(upper, self.embed_code(x.code, x.level.m, target_level))

    def embed_code(self, code: int, source: int, target: int) -> int:
        """Code in level target of the level-source element with this code,
        through the per-level embedding tables; target >= source."""
        for m in range(source, target):
            code = self._up[m][code]
        return code

    def __eq__(self, other):
        return (
            isinstance(other, Tower)
            and self.config == other.config
            and self.levels == other.levels
        )

    def __repr__(self):
        return f"Tower(p={self.p}, q={self.q}, k_max={self.k_max})"


def _horner(level: TowerLevel, coeffs, x: int) -> int:
    """Code of the polynomial with GF(q) coefficients at the code x."""
    acc = 0
    for c in reversed(coeffs):
        acc = level.add(level.mul(acc, x), c)
    return acc


def _embedding_table(lower: TowerLevel, upper: TowerLevel):
    """Codes in upper of every element of lower, spanned GF(q)-linearly from
    the images of 1, theta, ..., theta^(d-1), theta the image of X."""
    theta, table, image = upper._code(lower.embedding_up), [0], 1
    for _ in range(lower.degree):
        multiples = [upper.mul(c, image) for c in range(lower.base.q)]
        table = [upper.add(t, s) for s in multiples for t in table]
        image = upper.mul(image, theta)
    return array("i", table)


def _find_embedding(lower: TowerLevel, upper: TowerLevel):
    """Least root, by coordinate tuple, of lower's defining polynomial among
    the copy of lower inside upper: zero and the (|lower| - 1)-th roots of
    unity, the powers of g^((|upper| - 1) / (|lower| - 1)).  The polynomial
    is irreducible over GF(q), so its roots are the lower.degree Frobenius
    conjugates of the first one found."""
    step = upper.units // lower.units
    candidates = chain([0], (upper.exp[j * step] for j in range(lower.units)))
    root = next((x for x in candidates if not _horner(upper, lower.modulus, x)), None)
    if root is None:
        raise InternalFaultError(
            f"defining polynomial of level {lower.m} has no root in level {upper.m}"
        )
    return min(upper._digits(upper.frob_code(root, i)) for i in range(lower.degree))


@functools.lru_cache(maxsize=None)
def _build_tower(config: TowerConfig) -> Tower:
    base = BaseField(config.q)
    levels = [TowerLevel(m, base, least_irreducible_poly(base, config.p**m))
              for m in range(config.k_max + 1)]
    for lower, upper in zip(levels, levels[1:]):
        lower.embedding_up = _find_embedding(lower, upper)
    return Tower(config, levels)


def build_tower(config: TowerConfig, budget: int = DEFAULT_FIELD_BUDGET) -> Tower:
    """Materialize all levels of the configured tower, once the budget admits
    it.  Towers are immutable and cached by (p, q, k_max), so repeated calls
    with an equal configuration return the same object."""
    config.validate(budget)
    return _build_tower(config)


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
    """Rebuild a tower from its JSON description (bit-exact round trip): levels
    m = 0..k_max in order, each modulus monic irreducible of degree p^m, each
    embedding but the top's a root; else a ValueError names the level."""
    config = TowerConfig(data["p"], data["q"], data["k_max"])
    config.validate(budget)
    entries = data["levels"]
    if len(entries) != config.k_max + 1:
        raise ValueError(f"k_max {config.k_max} needs levels 0..{config.k_max}, "
                         f"got {len(entries)} entries")
    base, levels = BaseField(config.q), []
    for m, entry in enumerate(entries):
        if entry.get("m") != m:
            raise ValueError(f"level {m} is listed as m = {entry.get('m')!r}")
        modulus = tuple(entry.get("defining_polynomial") or ())
        if len(modulus) - 1 != config.p**m:
            raise ValueError(f"level {m} polynomial has wrong degree")
        if not all(0 <= c < config.q for c in modulus) or modulus[-1] != 1:
            raise ValueError(f"level {m} polynomial is not monic over GF(q)")
        if not is_irreducible(base, modulus):
            raise ValueError(f"level {m} polynomial is not irreducible")
        levels.append(TowerLevel(m, base, modulus))
    if entries[-1].get("embedding_up") is not None:
        raise ValueError(f"level {config.k_max} is the top, so it takes no embedding")
    for m, (entry, upper) in enumerate(zip(entries, levels[1:])):
        up = entry.get("embedding_up")
        if up is None:
            raise ValueError(f"level {m} is missing its embedding")
        if _horner(upper, levels[m].modulus, upper.element(up).code):
            raise ValueError(f"stored embedding for level {m} is not a root")
        levels[m].embedding_up = tuple(up)
    return Tower(config, levels)
