"""Finite-field towers GF(q) = L_0 <= L_1 <= L_2 <= ... with L_m = GF(q^(p^m)).

Each level is represented as polynomials over GF(q) modulo a deterministic
irreducible defining polynomial of degree p^m.  Levels embed into the next
level through an explicitly stored image of the level generator (a root of
the defining polynomial in the field above, chosen with lexicographically
least coordinate vector).  The q-power Frobenius generates each level's
automorphism group over GF(q); it is GF(q)-linear and applied through cached
matrices.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import BudgetError, InternalFaultError
from .fields import (
    BaseField,
    is_prime,
    factor_prime_power,
    least_irreducible_poly,
    nullspace,
)

DEFAULT_FIELD_BUDGET = 1 << 20

# Above this order, root searches restrict to the embedded-subfield candidates
# instead of scanning the whole level.
_BRUTE_FORCE_ORDER = 1 << 12


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
    """An element of one tower level, as a coordinate vector over GF(q)."""

    __slots__ = ("level", "coords")

    def __init__(self, level: "TowerLevel", coords):
        self.level = level
        self.coords = tuple(coords)

    def _check(self, other):
        if self.level is not other.level and self.level != other.level:
            raise ValueError("field elements belong to different levels")

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other):
        self._check(other)
        F = self.level.base
        return FieldElement(
            self.level, [F.add(a, b) for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self._check(other)
        F = self.level.base
        return FieldElement(
            self.level, [F.sub(a, b) for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        F = self.level.base
        return FieldElement(self.level, [F.neg(a) for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.level.from_base(self.level.base.from_int(other))
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.level, self.level._mul_coords(self.coords, other.coords))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        if e == 0:
            return self.level.one()
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return self
        e %= self.level.order - 1
        out, base = self.level.one(), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.level.order - 2)

    def frobenius(self, times: int):
        """Apply x -> x^(q^times); negative counts wrap around."""
        return self.level.frobenius(self, times)

    def in_base_field(self) -> bool:
        return not any(self.coords[1:])

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.level.m == other.level.m
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.level.m, self.coords))

    def __repr__(self):
        return f"FieldElement(level={self.level.m}, coords={self.coords})"


class TowerLevel:
    """One level L_m = GF(q^(p^m)) with its defining polynomial."""

    def __init__(self, m: int, base: BaseField, modulus):
        self.m = m
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.order = base.q**self.degree
        self.embedding_up = None  # coords in level m+1, set by the builder
        # reduction[i] = coords of X^(degree+i) modulo the defining polynomial
        self._reduction = self._build_reduction()
        self._frob_cache = {}
        # memoized Frobenius values; levels are small enough to remember all
        self._frob_values = {}

    def _build_reduction(self):
        F, d = self.base, self.degree
        rows = []
        cur = [F.neg(c) for c in self.modulus[:-1]]  # X^d
        rows.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                nxt = [F.add(a, F.mul(top, b)) for a, b in zip(nxt, rows[0])]
            cur = nxt
            rows.append(tuple(cur))
        return rows

    def _mul_coords(self, a, b):
        F, d = self.base, self.degree
        if d == 1:
            return (F.mul(a[0], b[0]),)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] = F.add(conv[i + j], F.mul(x, y))
        out = conv[:d]
        for i in range(d, 2 * d - 1):
            c = conv[i]
            if c:
                red = self._reduction[i - d]
                for j, rc in enumerate(red):
                    if rc:
                        out[j] = F.add(out[j], F.mul(c, rc))
        return tuple(out)

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.degree)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.degree - 1))

    def generator(self) -> FieldElement:
        """Root of the defining polynomial: the class of X (level 0: -c_0)."""
        if self.degree == 1:
            return FieldElement(self, (self.base.neg(self.modulus[0]),))
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

    def element(self, coords) -> FieldElement:
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise ValueError(
                f"level {self.m} needs {self.degree} coordinates, got {len(coords)}"
            )
        return FieldElement(self, coords)

    def from_base(self, c: int) -> FieldElement:
        return FieldElement(self, (c,) + (0,) * (self.degree - 1))

    def from_code(self, code: int) -> FieldElement:
        q, coords = self.base.q, []
        for _ in range(self.degree):
            code, rem = divmod(code, q)
            coords.append(rem)
        return FieldElement(self, coords)

    def elements(self):
        """All elements in increasing integer-encoding order."""
        for code in range(self.order):
            yield self.from_code(code)

    def random_element(self, rng, nonzero: bool = False) -> FieldElement:
        lo = 1 if nonzero else 0
        return self.from_code(rng.randrange(lo, self.order))

    def _frobenius_matrix(self, t: int):
        if t in self._frob_cache:
            return self._frob_cache[t]
        F, d = self.base, self.degree
        if t == 0:
            mat = tuple(
                tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
            )
        elif t == 1:
            theta = self.generator()
            cols = [(theta ** (j * F.q)).coords for j in range(d)]
            mat = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
        else:
            m1 = self._frobenius_matrix(1)
            prev = self._frobenius_matrix(t - 1)
            mat = tuple(
                tuple(
                    functools.reduce(
                        F.add, (F.mul(m1[i][l], prev[l][j]) for l in range(d)), 0
                    )
                    for j in range(d)
                )
                for i in range(d)
            )
        self._frob_cache[t] = mat
        return mat

    def frobenius(self, x: FieldElement, times: int) -> FieldElement:
        if x.level is not self and x.level != self:
            raise ValueError("element does not belong to this level")
        t = times % self.degree  # Frobenius has order p^m = degree
        if t == 0:
            return x
        key = (t, x.coords)
        hit = self._frob_values.get(key)
        if hit is not None:
            return hit
        F = self.base
        mat = self._frobenius_matrix(t)
        coords = []
        for row in mat:
            acc = 0
            for mv, xv in zip(row, x.coords):
                if mv and xv:
                    acc = F.add(acc, F.mul(mv, xv))
            coords.append(acc)
        out = FieldElement(self, coords)
        if len(self._frob_values) < (1 << 16):
            self._frob_values[key] = out
        return out

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
        self.level(target_level)
        while x.level.m < target_level:
            lower = x.level
            upper = self.levels[lower.m + 1]
            img = FieldElement(upper, lower.embedding_up)
            acc = upper.zero()
            for c in reversed(x.coords):
                acc = acc * img + upper.from_base(c)
            x = acc
        return x

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


def _eval_poly(level: TowerLevel, coeffs, x: FieldElement) -> FieldElement:
    """Evaluate a polynomial with GF(q) coefficients at x (Horner)."""
    acc = level.zero()
    for c in reversed(coeffs):
        acc = acc * x + level.from_base(c)
    return acc


def _root_candidates(lower: TowerLevel, upper: TowerLevel):
    """Candidate roots of lower.modulus inside upper.

    Small levels are scanned exhaustively.  Larger ones restrict to the copy
    of the lower field inside upper: the kernel of the GF(q)-linear map
    x -> x^N - x with N = |lower|, found by linear algebra.
    """
    if upper.order <= _BRUTE_FORCE_ORDER:
        yield from upper.elements()
        return
    F, d = upper.base, upper.degree
    theta = upper.generator()
    n_low = lower.order
    rows = [[0] * d for _ in range(d)]
    for j in range(d):
        img = (theta**j) ** n_low
        for i in range(d):
            rows[i][j] = F.sub(img.coords[i], 1 if i == j else 0)
    basis = nullspace(F, rows)
    if len(basis) != lower.degree:
        raise InternalFaultError(
            f"subfield of order {n_low} in level {upper.m} has wrong dimension"
        )
    q = F.q
    for code in range(n_low):
        coords = [0] * d
        c = code
        for vec in basis:
            c, digit = divmod(c, q)
            if digit:
                coords = [F.add(a, F.mul(digit, b)) for a, b in zip(coords, vec)]
        yield FieldElement(upper, coords)


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
