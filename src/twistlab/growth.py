"""Growth measurement for finitely generated subalgebras of a level ring.

The span of all products of length <= N decomposes per group word into a
coefficient subspace of the level field, so exact dimensions over GF(q) come
from per-word row reduction: no global basis is ever materialized.  Each
step multiplies only the vectors added in the previous step by the
generators, and saturated words are skipped.

The growth exponent is estimated as the least-squares slope of log dim
against log N over the top half of the table, and is labelled an estimate:
the table is exact, the slope is not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .ring import RingContext, RingElement


class _RowSpace:
    """Incremental echelon basis of a subspace of the level field over GF(q)."""

    __slots__ = ("field", "dim", "rows", "pivots")

    def __init__(self, field, dim: int):
        self.field = field
        self.dim = dim
        self.rows = []
        self.pivots = []

    def insert(self, vec) -> bool:
        """Reduce vec against the basis; returns True if the rank grew."""
        F = self.field
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                if c != 1:  # rows are 1 at the pivot: over GF(2) c is always 1
                    row = [F.mul(c, b) for b in row]
                vec = [F.sub(a, b) for a, b in zip(vec, row)]
        piv = next((i for i, v in enumerate(vec) if v), None)
        if piv is None:
            return False
        inv = F.inv(vec[piv])
        self.rows.append(vec if inv == 1 else [F.mul(inv, v) for v in vec])
        self.pivots.append(piv)
        return True

    def full(self) -> bool:
        return len(self.rows) == self.dim


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
    if generators is None:
        generators = ctx.default_generators()
    generators = [g for g in generators]
    gen_set = [ctx.one()] + [g for g in generators if not g.is_zero()]
    deg = ctx.level.degree
    spaces: dict = {}
    frontier = []  # (word, coefficient) vectors new in the previous step

    zero_word = (0,) * ctx.n
    one_vec = ctx.level.one()
    spaces[zero_word] = _RowSpace(ctx.level.base, deg)
    spaces[zero_word].insert(one_vec.coords)
    frontier.append((zero_word, one_vec))
    # seed with the generators themselves (products of length 1)
    rows = [1]
    truncated_at = None
    total = 1

    def insert_term(word, coeff) -> bool:
        space = spaces.get(word)
        if space is None:
            space = _RowSpace(ctx.level.base, deg)
            spaces[word] = space
        if space.full():
            return False
        return space.insert(coeff.coords)

    for step in range(1, n_max + 1):
        new_entries = []
        for word, coeff in frontier:
            e = ctx.word_exponent(word)
            for g in gen_set[1:]:
                for h, d in g.terms.items():
                    w = tuple(a + b for a, b in zip(word, h))
                    val = coeff * ctx.frob(d, e)
                    if val.is_zero():
                        continue
                    if insert_term(w, val):
                        new_entries.append((w, val))
                        total += 1
        frontier = new_entries
        rows.append(rows[-1] + len(new_entries))
        if total > max_vectors:
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
