"""Support shrinking: a constructive route from any nonzero element to a unit
inside the two-sided ideal it generates.

At a level where two support points g0, g1 act by distinct automorphisms,
the combination  r*theta - sigma_g0(theta)*r  cancels the g0 component, keeps
the g1 component nonzero, and stays inside the ideal of r.  The multiplier is
always the level generator theta: it generates the level field over GF(q),
so distinct Frobenius powers differ on it.  The coefficient of that
combination at w is c_w * (sigma_w(theta) - sigma_g0(theta)).  Eliminating
the support in sorted order therefore needs only s_w = sigma_w(theta), one
value per point: the steps are read off the s_w, and the surviving top
point w_t keeps c_(w_t) * prod (s_(w_t) - s_w) over the other points.
Levels must be ascended first when the current level does not separate the
support, which is exactly why single levels have proper ideals while the
full tower union does not.

Every run returns an auditable trace; replaying it recomputes each step as
the products r*d - lam*r through the ring kernel on codes, independently of
the s_w.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalFaultError, SeparationError
from . import ring
from .tower import FieldElement


class ShrinkStep(NamedTuple):
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


class ShrinkTrace(NamedTuple):
    input_element: ring.RingElement
    separating_level: int
    steps: tuple
    final_unit: ring.RingElement

    def to_json_dict(self) -> dict:
        return {
            "input": self.input_element.to_literal(),
            "separating_level": self.separating_level,
            "steps": [s.to_json_dict() for s in self.steps],
            "final_unit": self.final_unit.to_literal(),
        }


def random_separable_element(ctx: ring.RingContext, rng, max_support: int = 4,
                             coord_bound: int = 2):
    """Random element whose support is guaranteed to separate within k_max.

    Support points get pairwise distinct first coordinates from a window
    narrower than p^k_max, so the first generator alone tells them apart at
    some materialized level; remaining coordinates are free.  This is the
    honest sampling regime for shrink experiments at desk scale: exponents
    whose digits start high keep some directions unseparated below budget.
    """
    window = ctx.tower.p**ctx.tower.k_max - 1
    if window < 2:
        raise ValueError(f"a window of {window} first coordinates (p^k_max - 1) "
                         "cannot hold two distinct support points")
    size = rng.randint(2, max(2, min(max_support, window)))
    firsts = rng.sample(range(-coord_bound, -coord_bound + window), size)
    codes = {}
    for f in firsts:
        word = (f,) + tuple(
            rng.randint(-coord_bound, coord_bound) for _ in range(ctx.n - 1)
        )
        codes[word] = rng.randrange(1, ctx.level.order)
    return ring._from_codes(ctx, codes)


def separating_level(ctx: ring.RingContext, support) -> int:
    """Least materialized level where all support points act by pairwise
    distinct automorphisms.

    g - h acts trivially iff g and h act alike, so each level compares the
    exponents of the points instead of those of their differences.
    """
    support = [tuple(w) for w in support]
    if any(len(w) != ctx.n for w in support):
        raise ValueError(f"every word must have length {ctx.n}")
    return _separation(ctx, support)[0]


def _separation(ctx: ring.RingContext, support: list) -> tuple:
    """(separating level, the points' action exponents at k_max)."""
    if len(support) < 2:
        raise ValueError("separation needs at least two support points")
    top = list(map(ctx.lift_level(ctx.tower.k_max)._exponent, support))
    for k in range(1, ctx.tower.k_max + 1):
        exps = [e % ctx.action.p**k for e in top]  # truncations agree mod p^k
        if len(set(exps)) == len(exps):
            return k, top
    # name the first colliding pair (i < j) at k_max explicitly in the error
    i = next(i for i, e in enumerate(exps) if e in exps[i + 1:])
    j = exps.index(exps[i], i + 1)
    blocking = tuple(a - b for a, b in zip(support[i], support[j]))
    raise SeparationError(
        f"no materialized level separates the support; increase k_max "
        f"(blocked difference {blocking} at k_max={ctx.tower.k_max})",
        blocking_pair=blocking,
    )


def unit_in_ideal(r: ring.RingElement) -> ShrinkTrace:
    """Shrink r to a homogeneous unit inside its own two-sided ideal.

    Works at K = max(separating level, home level) and eliminates the
    support points w_0 < ... < w_t in lexicographic order, each against the
    next one.  With s_w = sigma_w(theta), step i is (w_i, w_(i+1), s_(w_i)),
    and the last point survives with coefficient
    c_(w_t) * prod_i (s_(w_t) - s_(w_i)), which is nonzero because the s_w
    are pairwise distinct.  The result is verified to invert exactly.
    """
    if r.is_zero():
        raise ValueError("the zero element generates the zero ideal")
    ctx, support = r.ctx, r.support()
    if len(support) == 1:
        _verify_unit(r)
        return ShrinkTrace(input_element=r, separating_level=ctx.k, steps=(),
                           final_unit=r)
    level, top = _separation(ctx, support)
    work = ctx.lift_level(max(level, ctx.k))
    field = work.level
    theta = field.generator_code()
    # frob_code reads each k_max exponent mod p^K, which is its level-K exponent
    s = [field.frob_code(theta, e) for e in top]
    if len(set(s)) != len(s):
        raise InternalFaultError("the level generator does not separate the support")
    d = field.from_code(theta)
    steps = tuple(
        ShrinkStep(level=work.k, d=d, g0=support[i], g1=support[i + 1],
                   lam=field.from_code(s[i]))
        for i in range(len(s) - 1)
    )
    coeff = ctx.tower.embed_code(r.codes[support[-1]], ctx.k, work.k)
    for si in s[:-1]:
        coeff = field.mul(coeff, field.sub(s[-1], si))
    unit = ring._from_codes(work, {support[-1]: coeff})
    _verify_unit(unit)
    return ShrinkTrace(input_element=r, separating_level=level, steps=steps,
                       final_unit=unit)


def _verify_unit(u: ring.RingElement):
    inv, one = u.invert_unit().codes, {(0,) * u.ctx.n: 1}
    if (ring._mul_codes(u.ctx, u.codes, inv, {}) != one
            or ring._mul_codes(u.ctx, inv, u.codes, {}) != one):
        raise InternalFaultError("final unit failed to invert exactly")


def replay_trace(trace: ShrinkTrace) -> ring.RingElement:
    """Recompute the final unit from the input using only the recorded steps.

    Each step is the product r*d - lam*r, made through the ring kernel on
    codes after lifting to the step's level; nothing is taken from the
    one-pass computation.  Returns the replayed element; auditors compare it
    with trace.final_unit.
    """
    r = trace.input_element
    ctx, codes = r.ctx, r.codes
    for step in trace.steps:
        if step.level != ctx.k:
            if step.level < ctx.k:
                raise ValueError("cannot lift to a lower level")
            up, embed = ctx.lift_level(step.level), ctx.tower.embed_code
            codes = {w: embed(c, ctx.k, up.k) for w, c in codes.items()}
            ctx = up
        d, lam = ctx._coeff(step.d), ctx.level.neg(ctx._coeff(step.lam))
        zero = (0,) * ctx.n
        out = ring._mul_codes(ctx, codes, {zero: d} if d else {}, {})
        out = ring._mul_codes(ctx, {zero: lam} if lam else {}, codes, out)
        codes = {w: c for w, c in out.items() if c}
    return ring._from_codes(ctx, codes)
