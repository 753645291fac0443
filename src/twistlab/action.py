"""The acting group: rank-n free abelian words mapped into tower automorphisms.

Each generator acts as a power of Frobenius whose exponent is a p-adic
integer, stored as an immutable tuple of digit positions (digits restricted
to {0,1}, so truncation modulo p^k reads off the positions below k and never
carries).  Every level up to EXPONENT_HORIZON is truncated once, when the
action is built, so a word acts on level k through the linear form
sum(g_i * t_i) mod p^k.  Group words are plain integer tuples.

Independence of the chosen exponents is never assumed: a certificate is
searched for exhaustively over a coefficient box at increasing truncation
levels, and experiments that need independence refuse to run without one.
Each level's search meets in the middle of the box [-B, B]^n, so it costs
about (2B+1)^ceil(n/2) residues instead of (2B+1)^n.  Truncations never carry,
so a relation found at one level is summed once at the horizon, and every
further level that sum shows it still kills is skipped without a search.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

from .errors import BudgetError, IndependenceError
from .fields import is_prime

# Highest truncation level: of certification searches, of serialized
# exponents and of the default exponents' digit positions.  Truncation is
# pure integer arithmetic, so this is unrelated to (and far above)
# materialized levels.
EXPONENT_HORIZON = 64

# Vectors per certification level, both halves: rank <= 7 fits at bound 8.
CERTIFICATION_BUDGET = 2**17


class PAdicExponent(tuple):
    """A p-adic integer sum(p^e for e in E): the sorted digit positions E."""

    def __new__(cls, positions=()):
        positions = sorted(set(positions))
        if positions and positions[0] < 0:
            raise ValueError("digit positions must be nonnegative")
        return super().__new__(cls, positions)

    @classmethod
    def one(cls) -> "PAdicExponent":
        return cls((0,))

    @classmethod
    def from_positions(cls, positions) -> "PAdicExponent":
        return cls(positions)

    def positions_below(self, bound: int) -> tuple:
        return tuple(e for e in self if e < bound)


def truncate(exponent: PAdicExponent, p: int, k: int) -> int:
    """Residue of the exponent modulo p^k (digits at positions >= k are cut)."""
    if not 0 <= k <= EXPONENT_HORIZON:
        raise ValueError(f"truncation level must lie in [0, {EXPONENT_HORIZON}], got {k}")
    # digits in {0,1}: the partial sum is already reduced
    return sum(p**e for e in exponent if e < k)


def default_exponents(n: int) -> list:
    """The default Z-independent family: a_1 = 1 and, for i >= 2, digit
    positions (n*t + i)^2 below the horizon — gaps grow fast enough that no
    small integer relation survives truncation once the level is large
    enough."""
    roots = range(math.isqrt(EXPONENT_HORIZON - 1) + 1)
    return [PAdicExponent.one()] + [
        PAdicExponent(j * j for j in roots[i::n]) for i in range(2, n + 1)]


class ActionConfig:
    """The acting group: rank n, prime p, one p-adic exponent per generator.

    Duplicate or dependent exponents are representable (the certificate
    examples need them); certification is what refuses to run with them,
    since a duplicate pair is a small integer relation at every level.
    """

    def __init__(self, n: int, p: int, exponents: Sequence[PAdicExponent]):
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if len(exponents) != n:
            raise ValueError(f"need {n} exponents, got {len(exponents)}")
        if exponents[0].positions_below(EXPONENT_HORIZON) != (0,):
            raise ValueError("the first exponent must be 1 (positions {0})")
        self.n = n
        self.p = p
        self.exponents = tuple(exponents)
        self._truncations = [tuple(truncate(a, p, k) for a in self.exponents)
                             for k in range(EXPONENT_HORIZON + 1)]

    def truncations(self, k: int) -> tuple:
        """The exponents modulo p^k, for 0 <= k <= EXPONENT_HORIZON."""
        if not 0 <= k <= EXPONENT_HORIZON:
            raise ValueError(
                f"truncation level must lie in [0, {EXPONENT_HORIZON}], got {k}")
        return self._truncations[k]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "horizon": EXPONENT_HORIZON,
            "exponents": [list(a.positions_below(EXPONENT_HORIZON))
                          for a in self.exponents],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ActionConfig":
        exps = [PAdicExponent.from_positions(pos) for pos in data["exponents"]]
        return cls(data["n"], data["p"], exps)

    def __repr__(self):
        return f"ActionConfig(n={self.n}, p={self.p})"


def default_action(n: int, p: int) -> ActionConfig:
    return ActionConfig(n, p, default_exponents(n))


def action_exponent(config: ActionConfig, word: Sequence[int], k: int) -> int:
    """Frobenius power by which the group word acts on level k."""
    if len(word) != config.n:
        raise ValueError(f"word has length {len(word)}, expected {config.n}")
    mod = config.p**k
    ts = config.truncations(k)
    return sum(g * t for g, t in zip(word, ts)) % mod


def check_certification_budget(n: int, coeff_bound: int):
    """Raise BudgetError if one level's search for rank n at this bound would
    tabulate more than CERTIFICATION_BUDGET vectors (both halves of the box)."""
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    h, width = (n + 1) // 2, 2 * coeff_bound + 1
    # width > 2: a rank past twice the budget's bit length needs no power
    if (n > 2 * CERTIFICATION_BUDGET.bit_length()
            or width**h + width ** (n - h) > CERTIFICATION_BUDGET):
        raise BudgetError(f"certifying rank {n} at coefficient bound {coeff_bound}"
                          f" exceeds the budget {CERTIFICATION_BUDGET} vectors per level")


def _sums(ts, span) -> list:
    """sum(c_i * t_i) for c in itertools.product(span, repeat=len(ts)), in
    that order: a sumset, one list comprehension per coordinate."""
    acc = [0]
    for t in ts:
        acc = [r + c * t for r in acc for c in span]
    return acc


def find_relation(config: ActionConfig, coeff_bound: int, k: int):
    """First nonzero m in itertools.product order over [-B, B]^n, B the
    coeff_bound, with sum(m_i a_i) = 0 mod p^k; None if the box has none.

    Exhaustive, met in the middle: m = (u, v) with u the first ceil(n/2)
    entries; v is tabulated once as residue -> least v, and the u residues
    stream in product order past that table until one cancels.  m and -m
    come in pairs, so u = 0 (which always hits, through v = 0) is reached
    only if no nonzero u hits, and it pairs with the least nonzero v of
    residue 0, which precedes v = 0 if it exists.
    """
    check_certification_budget(config.n, coeff_bound)
    n, h = config.n, (config.n + 1) // 2
    mod = config.p**k
    ts = config.truncations(k)
    span = range(-coeff_bound, coeff_bound + 1)
    v_res = [r % mod for r in _sums(ts[h:], span)]
    vs = list(itertools.product(span, repeat=n - h))
    least_v = dict(zip(reversed(v_res), reversed(vs)))
    *head, last = ts[:h]
    u_res = (-(r + c * last) % mod for r in _sums(head, span) for c in span)
    u = next(itertools.compress(itertools.product(span, repeat=h),
                                map(least_v.__contains__, u_res)))
    if any(u):
        return u + least_v[-sum(c * t for c, t in zip(u, ts)) % mod]
    return u + least_v[0] if any(least_v[0]) else None


def independence_certificate(config: ActionConfig, coeff_bound: int, k: int) -> bool:
    """True iff no nonzero vector with entries in [-coeff_bound, coeff_bound]
    kills the truncated exponents modulo p^k."""
    return find_relation(config, coeff_bound, k) is None


@functools.lru_cache(maxsize=None)
def least_certified_level(config: ActionConfig, coeff_bound: int) -> int:
    """Smallest truncation level at which the box certificate passes.

    Certification is integer arithmetic only, so the level may exceed any
    materialized tower level.  A witness m found at level k kills every level
    j <= v_p(sum(m_i a_i)), the sum taken at the horizon, so the search
    resumes past that valuation (capped at the horizon, whose first relation
    is the reported one).  Cached per (action, bound).
    """
    p, top, k = config.p, config.truncations(EXPONENT_HORIZON), 1
    while True:
        witness = find_relation(config, coeff_bound, k)
        if witness is None:
            return k
        if k == EXPONENT_HORIZON:
            break
        s = sum(m * t for m, t in zip(witness, top))
        k += 1
        while k < EXPONENT_HORIZON and s % p**k == 0:
            k += 1
    raise IndependenceError(
        f"no truncation level <= {EXPONENT_HORIZON} certifies independence at coefficient"
        f" bound {coeff_bound}; blocking relation {witness}",
        relation=witness,
    )


def restriction_order(config: ActionConfig, word: Sequence[int], k: int) -> int:
    """Order of the word's action on level k (additive order of its exponent)."""
    if not any(word):
        raise ValueError("the zero word acts trivially at every level")
    mod = config.p**k
    e = action_exponent(config, word, k)
    return mod // math.gcd(mod, e)
