"""Growth measurement for finitely generated subalgebras of a level ring.

The span of all products of length <= N decomposes per group word into a
coefficient subspace of the level field, so exact dimensions over GF(q) come
from per-word row reduction on level codes, whose base-q digits are the
coordinates: no global basis is ever materialized.  Each step multiplies
only the vectors added in the previous step by the generator terms, and
saturated words are skipped.  A word is packed into one balanced mixed-radix
integer, so w + h is an integer add; each new vector carries its log
coefficient and its word's action exponent, which is linear in the word, so
a product is log arithmetic with the twist read from the level's Frobenius
factors.  A word's space is a dict {leading base-q digit: row}.

The growth exponent is estimated as the least-squares slope of log dim
against log N over the top half of the table, and is labelled an estimate:
the table is exact, the slope is not a proof.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    powers = [level.base.q**i for i in range(deg)]
    # a reached word's coordinates lie within +-n_max * r, r the largest
    # generator coordinate, so this balanced radix packs words injectively
    r = max((abs(a) for g in gen_set for h in g.codes for a in h), default=0)
    radix = 2 * n_max * r + 1
    # generator terms, in order, as (packed word, log coefficient, exponent)
    terms = [(sum(a * radix**i for i, a in enumerate(h)), log[d], ctx.word_exponent(h))
             for g in gen_set[1:] for h, d in g.codes.items()]
    spaces = {0: {0: 1}}  # packed word -> {leading digit: row}
    frontier = [(0, 0, 0)]  # (packed word, log coefficient, exponent) new in the last step
    rows = [1]
    truncated_at = None
    for step in range(1, n_max + 1):
        new_entries = []
        for word, lc, e in frontier:
            f = frob[e]
            for h, ld, eh in terms:
                w = word + h
                space = spaces.get(w)
                if space is None:
                    space = spaces[w] = {}
                elif len(space) == deg:
                    continue
                lv = (lc + f * ld) % units
                vec = exp[lv]
                while vec:
                    i = bisect_right(powers, vec) - 1
                    lead, row = vec // powers[i], space.get(i)
                    if row is None:
                        space[i] = vec if lead == 1 else mul(inv(lead), vec)
                        new_entries.append((w, lv, (e + eh) % deg))
                        break
                    # over GF(2) lead is always 1 and the reduction is one XOR
                    vec = sub(vec, row if lead == 1 else mul(lead, row))
        frontier = new_entries
        rows.append(rows[-1] + len(new_entries))
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
