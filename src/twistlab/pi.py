"""Polynomial-identity experiments with the standard alternating polynomials.

The standard polynomial of degree m is the signed sum of all m! orderings of
its arguments.  It is evaluated by expanding on the first factor over index
subsets, S(T) = sum_i (-1)^{#{j in T : j < i}} x_i S(T - {i}), one subset
size at a time on {word: code} dicts.  From size L >= m/2 on, it finishes
with S_m = sum_{|A| = m-L} eps(A) S(A) S(A^c) once those term pairs are no
more than one more size would cost; at L = m - 1 the two agree, so no input
costs more term pairs or code-level twisted products (ring._mul_codes) than
the full recurrence.  Identity testing samples random tuples from a level
ring: the standard polynomials are multilinear, and the level ring sits
inside its central quotient division ring with central denominators, so a
multilinear identity holds on the ring iff it holds on the quotient.
Vanishing results are reported as "vanished in N trials", never as proofs;
non-identities are proved by the exhibited witness with its exact nonzero
value.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

from .errors import BudgetError
from . import ring

MAX_DEGREE = 8  # guard: under m * 2^(m-1) twisted products; 574 at m = 8 on monomials

# Sample-element sizes per degree: the support of a product grows with the
# product of its factors' supports, so high degrees draw sparser elements.
_DEGREE_MAX_TERMS = {2: 3, 4: 3, 6: 2, 8: 1}


def standard_polynomial(elements: Sequence[ring.RingElement]) -> ring.RingElement:
    """Alternating sum over all orderings of the arguments, computed exactly.

    S(T) for every index subset T of one size is built from the subsets one
    smaller: putting x_i first inverts it against every smaller index of T,
    so the sign picks x_i or its negated copy.  Putting A before A^c inverts
    each a in A against every smaller index of A^c.
    """
    m = len(elements)
    if m == 0:
        raise ValueError("need at least one argument")
    if m > MAX_DEGREE:
        raise BudgetError(f"degree {m} exceeds the budget {MAX_DEGREE}")
    for x in elements[1:]:
        elements[0]._check(x)
    ctx = elements[0].ctx
    neg = ctx.level.neg
    xs = [x.codes for x in elements]
    if m == 1:
        return ring._from_codes(ctx, xs[0])
    full = (1 << m) - 1
    signed = (xs, [{w: neg(c) for w, c in x.items()} for x in xs])
    low, layer = {}, {1 << i: x for i, x in enumerate(xs)}
    for size in range(1, m):
        if 2 * size <= m:
            low[size] = layer  # a finish takes S(A), |A| <= m/2, from these
        if 2 * size >= m:
            finish = sum(len(v) * len(layer[full ^ a]) for a, v in low[m - size].items())
            grow = sum(len(v) * len(xs[i]) for t, v in layer.items()
                       for i in range(m) if not t >> i & 1)
            if finish <= grow:  # certain at size m - 1, where the two agree
                out: dict = {}
                for a, lhs in low[m - size].items():
                    if sum((a >> i).bit_count() for i in range(m) if not a >> i & 1) & 1:
                        lhs = {w: neg(c) for w, c in lhs.items()}
                    ring._mul_codes(ctx, lhs, layer[full ^ a], out)
                return ring._from_codes(ctx, out)
        grown: dict = {}
        for rest, value in layer.items():
            for i in range(m):
                if not rest >> i & 1:
                    odd = (rest & ((1 << i) - 1)).bit_count() & 1
                    out = grown.setdefault(rest | 1 << i, {})
                    ring._mul_codes(ctx, signed[odd][i], value, out)
        layer = {t: {w: c for w, c in v.items() if c} for t, v in grown.items()}


class PIReport(NamedTuple):
    """Outcome of sampling one standard polynomial on one level ring."""

    k: int
    degree: int
    trials: int
    vanish_count: int
    witness: Optional[dict]  # {"elements": [...], "value": RingElement}
    seed: int

    def is_identity_evidence(self) -> bool:
        return self.vanish_count == self.trials

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "degree": self.degree,
            "trials": self.trials,
            "vanish_count": self.vanish_count,
            "seed": self.seed,
            "witness": None,
        }
        if self.witness is not None:
            out["witness"] = {
                "elements": [e.to_literal() for e in self.witness["elements"]],
                "value": self.witness["value"].to_literal(),
            }
        return out


def test_identity(ctx: ring.RingContext, degree: int, trials: int, seed: int,
                  stop_on_witness: bool = False, max_terms: int = 3) -> PIReport:
    """Evaluate the standard polynomial on random tuples.

    With stop_on_witness the run ends at the first nonzero value, which is
    the honest mode for non-identity searches; the report's trial count is
    the number actually run.
    """
    if degree < 2 or degree % 2 != 0:
        raise ValueError(f"identity testing uses even degrees >= 2, got {degree}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if degree > MAX_DEGREE:
        raise BudgetError(f"degree {degree} exceeds the budget {MAX_DEGREE}")
    rng = random.Random(seed)
    vanish = 0
    witness = None
    for run in range(1, trials + 1):
        args = [ctx.random_element(rng, max_terms=max_terms) for _ in range(degree)]
        value = standard_polynomial(args)
        if value.is_zero():
            vanish += 1
        elif witness is None:
            witness = {"elements": args, "value": value}
            if stop_on_witness:
                break
    return PIReport(
        k=ctx.k, degree=degree, trials=run, vanish_count=vanish,
        witness=witness, seed=seed,
    )


class ScanRow(NamedTuple):
    """Identity/non-identity frontier measured at one level."""

    k: int
    largest_failing_degree: Optional[int]
    smallest_vanishing_degree: Optional[int]
    reports: tuple
    untested: tuple

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "largest_failing_degree": self.largest_failing_degree,
            "smallest_vanishing_degree": self.smallest_vanishing_degree,
            "reports": [r.to_json_dict() for r in self.reports],
            "untested": list(self.untested),
        }


def pi_degree_scan(contexts: Sequence[ring.RingContext], trials: int, seed: int,
                   max_degree: int = MAX_DEGREE) -> list:
    """Measure the failing/vanishing frontier for each level.

    Degrees below the expected identity threshold 2*p^k are searched for
    witnesses (early stop); degrees at or above it run every requested trial
    as vanishing confirmation.  Degrees beyond the budget are reported
    untested, never extrapolated.  An empty level list is refused, since it
    would measure nothing.
    """
    if not contexts:
        raise ValueError("need at least one level to scan")
    rows = []
    for ctx in contexts:
        threshold = 2 * ctx.tower.p**ctx.k
        reports = []
        largest_failing = None
        smallest_vanishing = None
        for m in range(2, max_degree + 1, 2):
            report = test_identity(
                ctx, m, trials, seed=seed + m, stop_on_witness=m < threshold,
                max_terms=_DEGREE_MAX_TERMS.get(m, 1),
            )
            reports.append(report)
            if report.witness is not None:
                largest_failing = m
            elif smallest_vanishing is None:
                smallest_vanishing = m
        rows.append(
            ScanRow(
                k=ctx.k,
                largest_failing_degree=largest_failing,
                smallest_vanishing_degree=smallest_vanishing,
                reports=tuple(reports),
                untested=tuple(range(max_degree + 2, threshold + 1, 2)),
            )
        )
    return rows
