"""Growth measurement for finitely generated subalgebras of a level ring.

The span of all products of length <= N decomposes per group word into a
coefficient subspace of the level field, so exact dimensions over GF(q) come
from per-word row reduction on level codes, whose base-q digits are the
coordinates: no global basis is ever materialized.  Each step multiplies
only the vectors added in the previous step by the generators, by log
arithmetic (RingContext.twist), and saturated words are skipped.

The growth exponent is estimated as the least-squares slope of log dim
against log N over the top half of the table, and is labelled an estimate:
the table is exact, the slope is not a proof.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .ring import RingContext, RingElement


class _RowSpace:
    """Incremental echelon basis of a subspace of the level field over GF(q).

    Vectors are level codes; each row is keyed by its leading base-q digit,
    scaled to 1 there by a level multiply (a scalar's code is itself).
    """

    __slots__ = ("level", "powers", "rows")

    def __init__(self, level, powers):
        self.level = level
        self.powers = powers  # powers[i] = q**i, i < degree
        self.rows = {}

    def insert(self, vec: int) -> bool:
        """Reduce vec against the basis; returns True if the rank grew."""
        level, powers, rows = self.level, self.powers, self.rows
        while vec:
            h = bisect_right(powers, vec) - 1
            lead, row = vec // powers[h], rows.get(h)
            if row is None:
                rows[h] = vec if lead == 1 else level.mul(level.inv(lead), vec)
                return True
            # over GF(2) lead is always 1 and the reduction is one XOR
            vec = level.sub(vec, row if lead == 1 else level.mul(lead, row))
        return False

    def full(self) -> bool:
        return len(self.rows) == len(self.powers)


@dataclass
class GrowthTable:
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
    gen_set = [ctx.one()] + [g for g in generators if not g.is_zero()]
    level = ctx.level
    exp, log, units = level.exp, level.log, level.units
    powers = [level.base.q**i for i in range(level.degree)]
    # generator terms, in order, as (word, log of coefficient)
    terms = [(h, log[d]) for g in gen_set[1:] for h, d in g.codes.items()]
    zero_word = (0,) * ctx.n
    spaces = {zero_word: _RowSpace(level, powers)}
    spaces[zero_word].insert(1)
    frontier = [(zero_word, 0)]  # (word, log coefficient) new in the last step
    rows = [1]
    truncated_at = None
    for step in range(1, n_max + 1):
        new_entries = []
        for word, lc in frontier:
            f = ctx.twist(word)
            for h, ld in terms:
                w = tuple(a + b for a, b in zip(word, h))
                space = spaces.get(w)
                if space is None:
                    space = spaces[w] = _RowSpace(level, powers)
                elif space.full():
                    continue
                lv = (lc + f * ld) % units
                if space.insert(exp[lv]):
                    new_entries.append((w, lv))
        frontier = new_entries
        rows.append(rows[-1] + len(new_entries))
        if rows[-1] > max_vectors:
            truncated_at = step
            break
    return GrowthTable(
        generators=gen_set, rows=rows,
        n_max=len(rows) - 1, truncated_at=truncated_at,
    )


@dataclass(frozen=True)
class GKEstimate:
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
