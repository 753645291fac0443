"""Growth measurement for finitely generated subalgebras of a level ring.

The span of all products of length <= N decomposes per group word into a
coefficient subspace of the level field, so exact dimensions over GF(q) come
from per-word row reduction on level codes, whose base-q digits are the
coordinates: no global basis is ever materialized.  Each step multiplies
only the vectors added in the previous step by the generator terms.  A word
is packed into one integer, so w + h is an integer add; the weights put its
action exponent, which is linear in the word, in the packed residue mod the
level degree, so a product is log arithmetic with the twist read from the
level's Frobenius factors and no exponent is carried.

A word's space is a list of deg slots, slot i the row leading at base-q
digit i (0 while empty), and one slot counting its dimension; a lead table,
one byte per code of the level, gives a code's leading digit by one lookup.
Rows are stored scaled to leading digit 1, so a code below 2 * q^i, which
leads with digit 1, subtracts its row as it is and only other codes scale it
first: over GF(2) every code does.  The frontier maps each word to a list of
its new log coefficients, appended in place, so each (word, term) pair looks
up its target w + h and tests it for saturation once, and stops reducing
into it as soon as it fills; a full word's slots are then replaced by (), so
the test is one truth test and the rows are freed.  Each space is the span
of everything reached so far, so the rows do not depend on insertion order.

The growth exponent is estimated as the least-squares slope of log dim
against log N over the top half of the table, and is labelled an estimate:
the table is exact, the slope is not a proof.
"""

from __future__ import annotations

import math
from array import array
from operator import mul as _mul_ints
from typing import NamedTuple, Optional, Sequence

from .errors import ContextMismatchError
from .ring import RingContext, RingElement, same_context


class GrowthTable(NamedTuple):
    """Exact dimensions dim_F(span of products of length <= N), N = 0..N_max."""

    generators: list  # always includes 1
    rows: list  # rows[N] = dimension at N
    n_max: int
    truncated_at: Optional[int] = None  # budget cutoff marker, if any

    def to_csv(self) -> str:
        lines = ["N,dim"]
        for n, d in enumerate(self.rows):
            lines.append(f"{n},{d}")
        if self.truncated_at is not None:
            lines.append(f"# truncated at N={self.truncated_at} (budget)")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "generators": [g.to_literal() for g in self.generators],
            "rows": list(self.rows),
            "n_max": self.n_max,
            "truncated_at": self.truncated_at,
        }


def growth_table(ctx: RingContext, generators: Optional[Sequence[RingElement]] = None,
                 n_max: int = 16, max_vectors: int = 500_000) -> GrowthTable:
    """Tabulate exact subalgebra growth for the generator set.

    The identity is always adjoined, so rows are nondecreasing.  If the
    vector budget is exceeded the table is returned truncated, with the
    cutoff recorded.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if max_vectors < 1:
        raise ValueError(f"max_vectors must be >= 1, got {max_vectors}")
    if generators is None:
        generators = ctx.default_generators()
    for g in generators:
        if not same_context(g.ctx, ctx):
            raise ContextMismatchError(
                f"generator lives in a different context: {g.ctx} vs {ctx}"
            )
    gen_set = [ctx.one()] + [g for g in generators if not g.is_zero()]
    level = ctx.level
    exp, log, units, deg = level.exp, level.log, level.units, level.degree
    sub, mul, inv, frob = level.sub, level.mul, level.inv, level._frob_factor
    q = level.base.q
    powers = [q**i for i in range(deg)]
    # lead[c] is the index of the leading base-q digit of the code c > 0:
    # codes in [q^i, q^(i+1)) map to i
    lead = array("b", [0])
    for i, power in enumerate(powers):
        lead += array("b", [i]) * (power * (q - 1))
    # a reached word's coordinates a_i lie within +-n_max * r, r the largest
    # generator coordinate.  A word packs as sum(a_i * c_i) with weights
    # c_i = t_i + big * radix^i: the t_i are the exponents mod deg = p^k, so
    # the packed word mod deg is the word's action exponent, and big, a
    # multiple of deg above twice |sum(a_i * t_i)|, keeps the balanced
    # radix-(2 * n_max * r + 1) digits apart, so packing is injective
    r = max((abs(a) for g in gen_set for h in g.codes for a in h), default=0)
    radix = 2 * n_max * r + 1
    big = deg * ctx.n * radix
    weights = [t + big * radix**i for i, t in enumerate(ctx.ts)]
    # generator terms, in order, as (packed word, log coefficient)
    terms = [(sum(map(_mul_ints, h, weights)), log[d])
             for g in gen_set[1:] for h, d in g.codes.items()]
    # a code leading at digit i leads with digit 1 iff it is below twos[i]
    twos = [2 * power for power in powers]
    # packed word -> [row leading at digit i, for i < deg] + [dimension], or ()
    spaces = {0: [1] + [0] * (deg - 1) + [1]}
    frontier = {0: [0]}  # packed word -> log coefficients new in the last step
    rows = [1]
    truncated_at = None
    for step in range(1, n_max + 1):
        new_entries = {}
        for word, lcs in frontier.items():
            f = frob[word % deg]
            for h, ld in terms:
                w = word + h
                space = spaces.get(w)
                # the one saturation test of this (word, term): only a missing
                # word (None) and a full one (()) are falsy
                if not space:
                    if space is not None:
                        continue
                    space = spaces[w] = [0] * (deg + 1)
                fld = f * ld
                for lc in lcs:
                    lv = (lc + fld) % units
                    vec = exp[lv]
                    while vec:
                        i = lead[vec]
                        row = space[i]
                        if not row:
                            break
                        vec = sub(vec, row if vec < twos[i] else mul(vec // powers[i], row))
                    else:  # reduced to zero: already in the span
                        continue
                    space[i] = vec if vec < twos[i] else mul(inv(vec // powers[i]), vec)
                    lvs = new_entries.get(w)
                    if lvs is None:
                        new_entries[w] = [lv]
                    else:
                        lvs.append(lv)
                    space[deg] += 1
                    if space[deg] == deg:  # full: free its rows, skip it from now on
                        spaces[w] = ()
                        break
        frontier = new_entries
        rows.append(rows[-1] + sum(map(len, new_entries.values())))
        if rows[-1] > max_vectors:
            truncated_at = step
            break
    return GrowthTable(
        generators=gen_set, rows=rows,
        n_max=len(rows) - 1, truncated_at=truncated_at,
    )


class GKEstimate(NamedTuple):
    slope: float
    residual: float

    def __float__(self):
        return self.slope


def gk_estimate(table: GrowthTable, min_points: int = 6) -> GKEstimate:
    """Least-squares slope of log dim vs log N over the top half of the table.

    A stabilized table gives slope 0.  Raises when the fit window is too
    short to be meaningful.
    """
    lo = max(1, table.n_max // 2)
    points = [
        (math.log(n), math.log(table.rows[n])) for n in range(lo, table.n_max + 1)
    ]
    if len(points) < min_points:
        raise ValueError(
            f"table too short: {len(points)} fit points, need {min_points}"
        )
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    residual = math.sqrt(
        sum((y - slope * x - intercept) ** 2 for x, y in points) / len(points)
    )
    return GKEstimate(slope=slope, residual=residual)
