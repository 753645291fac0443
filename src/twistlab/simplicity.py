"""Support shrinking: a constructive route from any nonzero element to a unit
inside the two-sided ideal it generates.

At a level where two support points g0, g1 act by distinct automorphisms,
the combination  r*d - sigma_g0(d)*r  (for a field element d separating the
two automorphisms) cancels the g0 component, keeps the g1 component nonzero,
and stays inside the ideal of r.  Iterating reaches a homogeneous element,
which is a unit.  Levels must be ascended first when the current level does
not separate the support, which is exactly why single levels have proper
ideals while the full tower union does not.

Every run returns an auditable trace that can be replayed step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import action_exponent
from .errors import InternalFaultError, SeparationError
from .ring import RingContext, RingElement, _from_codes
from .tower import FieldElement


@dataclass(frozen=True)
class ShrinkStep:
    """One elimination r -> r*d - lam*r at the recorded level."""

    level: int
    d: FieldElement
    g0: tuple  # eliminated support point
    g1: tuple  # support point guaranteed to survive
    lam: FieldElement  # sigma_g0(d)

    def to_json_dict(self) -> dict:
        return {
            "k": self.level,
            "d": list(self.d.coords),
            "lam": list(self.lam.coords),
            "g0": list(self.g0),
            "g1": list(self.g1),
        }


@dataclass(frozen=True)
class ShrinkTrace:
    input_element: RingElement
    separating_level: int
    steps: tuple
    final_unit: RingElement

    def to_json_dict(self) -> dict:
        return {
            "input": self.input_element.to_literal(),
            "separating_level": self.separating_level,
            "steps": [s.to_json_dict() for s in self.steps],
            "final_unit": self.final_unit.to_literal(),
        }


def random_separable_element(ctx: RingContext, rng, max_support: int = 4,
                             coord_bound: int = 2):
    """Random element whose support is guaranteed to separate within k_max.

    Support points get pairwise distinct first coordinates from a window
    narrower than p^k_max, so the first generator alone tells them apart at
    some materialized level; remaining coordinates are free.  This is the
    honest sampling regime for shrink experiments at desk scale: exponents
    whose digits start high keep some directions unseparated below budget.
    """
    window = ctx.tower.p**ctx.tower.k_max - 1
    size = rng.randint(2, max(2, min(max_support, window)))
    firsts = rng.sample(range(-coord_bound, -coord_bound + window), size)
    codes = {}
    for f in firsts:
        word = (f,) + tuple(
            rng.randint(-coord_bound, coord_bound) for _ in range(ctx.n - 1)
        )
        codes[word] = rng.randrange(1, ctx.level.order)
    return _from_codes(ctx, codes)


def separating_level(ctx: RingContext, support) -> int:
    """Least materialized level where all support points act by pairwise
    distinct automorphisms."""
    support = [tuple(w) for w in support]
    if len(support) < 2:
        raise ValueError("separation needs at least two support points")
    pairs = [
        tuple(a - b for a, b in zip(support[i], support[j]))
        for i in range(len(support))
        for j in range(i + 1, len(support))
    ]
    blocking = None
    for k in range(1, ctx.tower.k_max + 1):
        blocking = None
        for diff in pairs:
            if action_exponent(ctx.action, diff, k) == 0:
                blocking = diff
                break
        if blocking is None:
            return k
    # name one blocking pair explicitly in the error
    raise SeparationError(
        f"no materialized level separates the support; increase k_max "
        f"(blocked difference {blocking} at k_max={ctx.tower.k_max})",
        blocking_pair=blocking,
    )


def _separating_multiplier(ctx: RingContext, g0, g1) -> FieldElement:
    """First power-basis element moved differently by the two automorphisms."""
    e0 = ctx.word_exponent(g0)
    e1 = ctx.word_exponent(g1)
    if e0 == e1:
        raise ValueError(
            f"level {ctx.k} does not separate {g0} and {g1}; ascend first"
        )
    theta = ctx.theta()
    cur = ctx.level.one()
    for _ in range(ctx.level.degree):
        if ctx.frob(cur, e0) != ctx.frob(cur, e1):
            return cur
        cur = cur * theta
    raise InternalFaultError(
        "distinct automorphisms agreed on the whole power basis"
    )


def shrink_once(r: RingElement, g0, g1):
    """One elimination step; returns (smaller element, step record).

    Precondition: g0 and g1 are distinct support points of r and the current
    level separates them.  The output r*d - sigma_g0(d)*r drops g0 from the
    support, keeps g1, and lies in the two-sided ideal generated by r.
    """
    ctx = r.ctx
    g0, g1 = tuple(g0), tuple(g1)
    if g0 not in r.codes or g1 not in r.codes or g0 == g1:
        raise ValueError("g0 and g1 must be distinct support points of r")
    d = _separating_multiplier(ctx, g0, g1)
    lam = ctx.frob(d, ctx.word_exponent(g0))
    out = r * d - lam * r
    if g0 in out.codes or g1 not in out.codes:
        raise InternalFaultError("shrink step did not act as predicted")
    if len(out.codes) >= len(r.codes):
        raise InternalFaultError("shrink step failed to reduce the support")
    step = ShrinkStep(level=ctx.k, d=d, g0=g0, g1=g1, lam=lam)
    return out, step


def unit_in_ideal(r: RingElement) -> ShrinkTrace:
    """Shrink r to a homogeneous unit inside its own two-sided ideal.

    Ascends to the least level separating the whole support, then eliminates
    the lexicographically least support point against the next one until a
    single term remains.  The result is verified to invert exactly.
    """
    if r.is_zero():
        raise ValueError("the zero element generates the zero ideal")
    if r.is_homogeneous():
        trace = ShrinkTrace(
            input_element=r, separating_level=r.ctx.k, steps=(), final_unit=r
        )
        _verify_unit(trace.final_unit)
        return trace
    level = separating_level(r.ctx, r.support())
    work = r if level <= r.ctx.k else r.lift_to(r.ctx.lift_level(level))
    steps = []
    cur = work
    while not cur.is_homogeneous():
        support = cur.support()
        cur, step = shrink_once(cur, support[0], support[1])
        steps.append(step)
    if len(steps) > len(r.codes) - 1:
        raise InternalFaultError("shrinking took more steps than support size")
    trace = ShrinkTrace(
        input_element=r,
        separating_level=level,
        steps=tuple(steps),
        final_unit=cur,
    )
    _verify_unit(trace.final_unit)
    return trace


def _verify_unit(u: RingElement):
    inv = u.invert_unit()
    if u * inv != u.ctx.one() or inv * u != u.ctx.one():
        raise InternalFaultError("final unit failed to invert exactly")


def replay_trace(trace: ShrinkTrace) -> RingElement:
    """Recompute the final unit from the input using only the recorded steps.

    Returns the replayed element; auditors compare it with trace.final_unit.
    """
    r = trace.input_element
    if trace.steps:
        first_level = trace.steps[0].level
        if first_level > r.ctx.k:
            r = r.lift_to(r.ctx.lift_level(first_level))
    for step in trace.steps:
        if step.level != r.ctx.k:
            r = r.lift_to(r.ctx.lift_level(step.level))
        r = r * step.d - step.lam * r
    return r
