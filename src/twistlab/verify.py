"""Invariant suites for every module, runnable as one deterministic batch.

run_all runs one table of checks.  Each row names a check, the least tower
level it needs and a cap on its trials, and yields a record with the counts
the check actually ran and one of three outcomes: passed (True), failed
(False), or not run (None, its detail saying "not run: ..." and why).  A
check is not run when its evidence would be vacuous: a row that needs level
2 at k_max = 1 (the loop decides that once), or a sampler that cannot draw
at this size.  A check that raises a TwistlabError other than BudgetError
fails its row with the message, and the other rows still run; a budget
refusal still aborts the batch.

A sampled check is a trial: one draw from the shared rng, returning the
failures that draw found; _sampled sums them over the draws.  The batch is
seeded, so two runs with the same configuration and seed produce identical
results (and identical serialized reports).
"""

from __future__ import annotations

import itertools
import math
import random
from functools import partial, reduce
from typing import NamedTuple, Optional

from .action import (
    ActionConfig,
    action_exponent,
    default_action,
    independence_certificate,
    restriction_order,
    truncate,
)
from .center import (
    decompose_over_center,
    exit_level,
    free_basis,
    is_central,
    is_central_structural,
    kernel_lattice,
    recompose,
)
from .errors import BudgetError, InternalFaultError, NotAUnitError, TwistlabError
from .growth import gk_estimate, growth_table
from .pi import MAX_DEGREE, pi_degree_scan, standard_polynomial
from .quotient import (
    CentralFraction,
    _bareiss,
    _combine,
    _mul,
    _read_back,
    _untwisted,
    center_of_quotient_test,
    invert,
    splitting_representation,
)
from .ring import RingContext, _from_codes, parse_element
from .simplicity import (
    random_separable_element,
    replay_trace,
    separating_level,
    unit_in_ideal,
)
from .tower import Tower, build_tower, tower_from_json, tower_to_json, TowerConfig


class Outcome(NamedTuple):
    """What one check found; run_all names it after its table row."""

    passed: Optional[bool]  # None: not run
    detail: str


class CheckResult(NamedTuple):
    name: str
    passed: Optional[bool]  # None: not run
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _sampled(trials: int, noun: str, trial, *args) -> Outcome:
    """trials draws of trial(*args), each returning the failures it found."""
    bad = sum(trial(*args) for _ in range(trials))
    return Outcome(bad == 0, f"{trials} {noun}, {bad} failures")


def _tower_field_axioms(tower: Tower, rng) -> int:
    lvl = tower.level(rng.randint(0, tower.k_max))
    a, b, c = (lvl.random_element(rng) for _ in range(3))
    return (((a + b) * c != a * c + b * c or (a * b) * c != a * (b * c))
            + (not a.is_zero() and a * a.inverse() != lvl.one()))


def _tower_embeddings(tower: Tower, rng) -> int:
    m = rng.randint(0, tower.k_max - 1)
    m2 = rng.randint(m, tower.k_max - 1)
    m3 = rng.randint(m2, tower.k_max)
    x = tower.level(m).random_element(rng)
    t = rng.randint(-3, 6)
    y = tower.level(m).random_element(rng)
    x3 = tower.embed(x, m3)
    return ((tower.embed(tower.embed(x, m2), m3) != x3)
            + (tower.embed(x.frobenius(t), m3) != x3.frobenius(t))
            + (tower.embed(x * y, m3) != x3 * tower.embed(y, m3)))


def check_tower_fixed_field(tower: Tower) -> Outcome:
    """Exhaustive: Frobenius fixes exactly the embedded base field."""
    bad = sum(sum(lvl.frob_code(c, 1) == c for c in range(lvl.order)) != tower.q
              for lvl in map(tower.level, range(tower.k_max + 1)))
    return Outcome(bad == 0,
                   f"levels 0..{tower.k_max} enumerated, {bad} failures")


def check_tower_json(tower: Tower) -> Outcome:
    ok = tower_from_json(tower_to_json(tower)) == tower
    return Outcome(ok, "bit-exact round trip")


def _action_homomorphism(action: ActionConfig, k_max: int, rng) -> int:
    k = rng.randint(1, k_max)
    mod = action.p**k
    g, h = (tuple(rng.randint(-6, 6) for _ in range(action.n)) for _ in range(2))
    gh = tuple(a + b for a, b in zip(g, h))
    eg, eh = action_exponent(action, g, k), action_exponent(action, h, k)
    return ((action_exponent(action, gh, k) != (eg + eh) % mod)
            + (eg != action_exponent(action, g, k + 1) % mod))


def check_action_surjectivity(action: ActionConfig, k_max: int) -> Outcome:
    e1 = tuple(1 if i == 0 else 0 for i in range(action.n))
    bad = sum(action_exponent(action, e1, k) % action.p == 0
              for k in range(1, k_max + 1))
    return Outcome(bad == 0, f"levels 1..{k_max}, {bad} failures")


def _action_torsion(action: ActionConfig, rng) -> int:
    g = tuple(rng.randint(-4, 4) for _ in range(action.n))
    if not any(g):
        return 0
    orders = [restriction_order(action, g, k) for k in range(1, 9)]
    # a certified config cannot keep a small word trivial this long
    return (any(b < a for a, b in zip(orders, orders[1:]))
            + (orders[-1] <= 1 and independence_certificate(action, 8, 8)))


def _ring_axioms(ctx: RingContext, rng) -> int:
    r, s, t = (ctx.random_element(rng) for _ in range(3))
    one = ctx.one()
    return (((r * s) * t != r * (s * t))
            + (r * (s + t) != r * s + r * t or (s + t) * r != s * r + t * r)
            + (r * one != r or one * r != r))


def _ring_domain(ctx: RingContext, rng) -> int:
    r, s = ctx.random_element(rng), ctx.random_element(rng)
    prod = r * s
    if prod.is_zero():
        return 1
    gw, gc = r.leading_term()
    hw, hc = s.leading_term()
    w = tuple(a + b for a, b in zip(gw, hw))
    expect = gc * ctx.level.frobenius(hc, ctx.word_exponent(gw))
    lw, lc = prod.leading_term()
    return lw != w or lc != expect


def _ring_units(ctx: RingContext, rng) -> int:
    hom = ctx.random_element(rng, max_terms=1)
    inhom, other = (ctx.random_element(rng, min_terms=2, max_terms=3) for _ in range(2))
    try:
        inhom.invert_unit()
        inverted = True
    except NotAUnitError:
        inverted = False
    one = ctx.one()
    return (hom * hom.invert_unit() != one) + inverted + (inhom * other == one)


def _ring_level_embedding(ctx: RingContext, rng) -> int:
    up = ctx.lift_level(ctx.k + 1)
    r, s = ctx.random_element(rng), ctx.random_element(rng)
    return (((r * s).lift_to(up) != r.lift_to(up) * s.lift_to(up))
            + ((r + s).lift_to(up) != r.lift_to(up) + s.lift_to(up)))


def check_ring_commutation_rule(ctx: RingContext) -> Outcome:
    theta, p, k = ctx.theta(), ctx.tower.p, ctx.k
    bad = sum(x * ctx.scalar(theta) != ctx.level.frobenius(theta, truncate(e, p, k)) * x
              for x, e in zip(map(ctx.gen, range(1, ctx.n + 1)), ctx.action.exponents))
    return Outcome(
        bad == 0, f"all {ctx.n} generators against the field generator, {bad} failures")


def _ring_literal(ctx: RingContext, rng) -> int:
    r = ctx.random_element(rng)
    return parse_element(ctx, r.to_literal()) != r


def _random_central(ctx: RingContext, lat, rng):
    """1 to 3 lattice words with coordinates in [-2, 2] and nonzero GF(q)
    coefficients: a member of the center."""
    codes = {}
    for _ in range(rng.randint(1, 3)):
        coords = tuple(rng.randint(-2, 2) for _ in lat.basis)
        codes[lat.from_lattice_coordinates(coords)] = rng.randrange(1, ctx.tower.q)
    return _from_codes(ctx, codes)


def check_center_agreement(ctx: RingContext, rng, trials: int) -> Outcome:
    lat = kernel_lattice(ctx)

    def draw(i):  # even draws at random; odd ones central, sometimes perturbed
        if i % 2 == 0:
            return ctx.random_element(rng)
        r = _random_central(ctx, lat, rng)
        return r + ctx.random_element(rng, max_terms=1) if rng.random() < 0.3 else r
    bad = sum(is_central(r) != is_central_structural(r, lat)
              for r in map(draw, range(trials)))
    return Outcome(
        bad == 0 and lat.index == ctx.tower.p**ctx.k,
        f"{trials} elements at k={ctx.k}, {bad} disagreements, "
        f"index {lat.index} (expected {ctx.tower.p ** ctx.k})",
    )


def check_center_lattice_cover(ctx: RingContext) -> Outcome:
    """Every bounded word acting trivially lies in the lattice, and no basis
    row acts nontrivially."""
    lat = kernel_lattice(ctx)
    bound = 2 * ctx.tower.p**ctx.k
    bad = sum(action_exponent(ctx.action, w, ctx.k) == 0 and not lat.contains(w)
              for w in itertools.product(range(-bound, bound + 1), repeat=ctx.n))
    return Outcome(bad == 0,
                   f"all words with coordinates in [-{bound}, {bound}], {bad} misses")


def _center_round_trip(ctx: RingContext, fb, lat, rng) -> int:
    r = ctx.random_element(rng)
    return recompose(decompose_over_center(r, fb, lat), fb) != r


def check_center_freeness(ctx: RingContext, rng, trials: int) -> Outcome:
    lat = kernel_lattice(ctx)
    fb = free_basis(ctx, lat)
    passed, detail = _sampled(trials, "round trips", _center_round_trip,
                              ctx, fb, lat, rng)
    return Outcome(passed and fb.size() == ctx.tower.p ** (2 * ctx.k),
                   f"rank {fb.size()}, {detail}")


def check_center_nesting(ctx: RingContext) -> Outcome:
    lat = kernel_lattice(ctx)
    lat_up = kernel_lattice(ctx.lift_level(ctx.k + 1))
    bad = sum(not lat.contains(row) for row in lat_up.basis)
    return Outcome(bad == 0, f"H_(k+1) basis inside H_k, {bad} failures")


def _shrink_and_replay(elements) -> int:
    r = next(elements)
    trace = unit_in_ideal(r)
    return ((len(trace.steps) != len(r.codes) - 1)
            + (replay_trace(trace) != trace.final_unit))


def check_simplicity(ctx: RingContext, rng, trials: int) -> Outcome:
    try:  # every draw first: shrinking and replay use no randomness
        elements = [random_separable_element(ctx, rng) for _ in range(trials)]
    except ValueError as exc:  # too few levels to separate two points
        return Outcome(None, f"not run: {exc}")
    return _sampled(trials, "random elements", _shrink_and_replay, iter(elements))


def check_simplicity_ascent(ctx: RingContext) -> Outcome:
    """Central-looking elements of one level force an ascent."""
    x1 = ctx.gen(1)
    r = ctx.one() + x1 ** (ctx.tower.p**ctx.k)
    level = separating_level(ctx, r.support())
    trace = unit_in_ideal(r)
    ok = level > ctx.k and all(s.level > ctx.k for s in trace.steps)
    return Outcome(ok, f"separating level {level} > k={ctx.k}")


def _pi_multilinear(ctx: RingContext, rng) -> int:
    q = ctx.tower.q
    args = [ctx.random_element(rng, max_terms=2) for _ in range(4)]
    extra = ctx.random_element(rng, max_terms=2)
    a = ctx.level.from_base(rng.randrange(q))
    b = ctx.level.from_base(rng.randrange(q))
    blended = a * args[1] + b * extra
    s = standard_polynomial(args)
    lhs = standard_polynomial([args[0], blended, args[2], args[3]])
    rhs = a * s + b * standard_polynomial([args[0], extra, args[2], args[3]])
    # alternating: swapping two arguments negates; a repeat kills it
    swapped = standard_polynomial([args[1], args[0], args[2], args[3]])
    repeated = standard_polynomial([args[0], args[0], args[2], args[3]])
    return (lhs != rhs) + (swapped != -s) + (not repeated.is_zero())


def check_pi_frontier(ctx1: RingContext, ctx2: RingContext, trials: int,
                      seed: int) -> Outcome:
    p = ctx1.tower.p
    ident = 2 * p**ctx1.k  # expected identity degree at the lower level
    upper = 2 * p**ctx2.k
    (low,) = pi_degree_scan([ctx1], trials, seed, min(ident, MAX_DEGREE))
    (high,) = pi_degree_scan([ctx2], trials, seed, min(upper - 2, MAX_DEGREE))
    # every degree below its level's threshold 2p^k fails, every other vanishes
    ok = all(
        (r.witness is not None) == (r.degree < 2 * p**r.k)
        for r in low.reports + high.reports
    )
    by_degree = {r.degree: r for r in low.reports}
    details = [f"k={ctx1.k}: degree 2 witness {by_degree[2].witness is not None}"]
    if ident in by_degree:
        vanish = by_degree[ident]
        details.append(
            f"degree {ident} vanished {vanish.vanish_count}/{vanish.trials}"
        )
        # the frontier must rise: the same degree fails one level up
        details += [
            f"k={ctx2.k}: degree {r.degree} witness {r.witness is not None}"
            for r in high.reports if r.degree >= ident
        ]
    return Outcome(ok, "; ".join(details))


def check_growth(ctx: RingContext, rng) -> Outcome:
    table = growth_table(ctx, None, n_max=20)
    monotone = all(b >= a for a, b in zip(table.rows, table.rows[1:]))
    est = gk_estimate(table)  # reported, not gated: N <= 20 is pre-asymptotic
    # exact sandwich at every N: deg*|B_1(N - deg + 1)| <= dim <= deg*|B_1(N)|,
    # with |B_1(N)| = sum_i 2^i C(n, i) C(N, i) words of l1 norm <= N in Z^n
    n, deg = ctx.n, ctx.level.degree

    def ball(radius):
        return sum(2**i * math.comb(n, i) * math.comb(radius, i)
                   for i in range(n + 1)) if radius >= 0 else 0

    bounded = all(deg * ball(big_n - deg + 1) <= dim <= deg * ball(big_n)
                  for big_n, dim in enumerate(table.rows))
    return Outcome(
        monotone and bounded,
        f"slope {est.slope:.3f} for rank {ctx.n}, top dim {table.rows[-1]}"
        f" <= {ball(table.n_max) * deg}",
    )


def _quotient_division(ctx: RingContext, rng) -> int:
    lat = kernel_lattice(ctx)
    num = ctx.random_element(rng, max_terms=2)
    if num.is_zero():
        return 0
    den_coords = tuple(rng.randint(-1, 1) for _ in lat.basis)
    den = ctx.monomial(1, lat.from_lattice_coordinates(den_coords)) + ctx.one()
    den = ctx.one() if den.is_zero() else den
    if not is_central_structural(den, lat):  # built central: the lattice is at fault
        return 1
    f = CentralFraction(ctx, num, den, lattice=lat)
    g = invert(f)
    one = CentralFraction(ctx, ctx.one(), ctx.one(), lattice=lat)
    return (f * g != one) + (invert(g) != f)


def _quotient_splitting(ctx: RingContext, rng) -> int:
    # rho(r) rho(s) = rho(r s), det rho(r) != 0 for r != 0, column 0 reads back r
    lat, F, mul = kernel_lattice(ctx), ctx.level, _untwisted(ctx.level, ctx.n)
    r, s = ctx.random_element(rng, max_terms=2), ctx.random_element(rng, max_terms=2)
    mr, ms, mrs = (splitting_representation(x, lat) for x in (r, s, r * s))
    d, plus = lat.index, partial(_combine, F.add)
    bad = sum(reduce(plus, (_mul(mul, mr[a][c], ms[c][b]) for c in range(d)), {})
              != mrs[a][b] for a, b in itertools.product(range(d), repeat=2))
    return (bad + (not r.is_zero() and not _bareiss(F, ctx.add_words, mul, mr)[0])
            + (_read_back(ctx, lat, [row[0] for row in mr]) != r))


def check_quotient_center(ctx: RingContext, rng, trials: int) -> Outcome:
    """Base elements commute at every level k..k_max; each drawn central
    element with exit level e <= k_max commutes at e - 1 and not at e, and
    one whose claimed exit lies past k_max still commutes at k_max."""
    lat, top, one = kernel_lattice(ctx), ctx.tower.k_max, ctx.one()
    bad = tested = 0
    for c in range(1, ctx.tower.q):
        f = CentralFraction(ctx, ctx.scalar(ctx.level.from_base(c)), one, lattice=lat)
        bad += sum(not center_of_quotient_test(f, m) for m in range(ctx.k, top + 1))
    for _ in range(trials):
        z = _random_central(ctx, lat, rng)
        e = exit_level(z)
        if e is None:
            continue
        f = CentralFraction(ctx, z, one, lattice=lat)
        if e <= top:
            tested += 1
            bad += not center_of_quotient_test(f, e - 1) or center_of_quotient_test(f, e)
        else:
            bad += not center_of_quotient_test(f, top)
    if tested == bad == 0:  # no draw leaves the center by k_max: no evidence
        return Outcome(None, f"not run: no level above {ctx.k} to probe, none of "
                             f"{trials} draws leaves the center by level {top}")
    return Outcome(
        bad == 0,
        f"{ctx.tower.q - 1} base elements commute at levels {ctx.k}..{top}, {tested}"
        f" proper central elements commute below their exit level and not at it,"
        f" {trials - tested} stay central through level {top}, {bad} failures",
    )


def run_all(p: int, q: int, n: int, k_max: int, seed: int,
            trials: int = 300, action: ActionConfig = None) -> list:
    """Run every module's invariant suite at the configured size: one
    CheckResult per row of the table below, in its order.

    Raises IndependenceError before running anything when the acting
    exponents fail certification (dependent configurations refuse to run),
    and ValueError when trials < 1 (zero trials would pass vacuously).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tower = build_tower(TowerConfig(p, q, k_max))
    if action is None:
        action = default_action(n, p)
    ctx1 = RingContext(tower, action, 1)
    ctx2 = RingContext(tower, action, 2) if k_max >= 2 else None
    rng = random.Random(seed)

    def sub_action(rank):
        if rank == action.n:
            return action
        return ActionConfig(rank, p, action.exponents[:rank])
    rank1 = RingContext(tower, sub_action(1), 1)

    def sampled(noun, trial, *args):  # the check of t draws trial(*args, rng)
        return lambda t: _sampled(t, noun, trial, *args, rng)
    table = [  # (name, level needed, check of t trials, trial cap; None: no cap)
        ("tower.field_axioms", 1, sampled("random triples", _tower_field_axioms, tower),
         None),
        ("tower.embedding_compatibility", 1,
         sampled("random (x, levels) cases", _tower_embeddings, tower), None),
        ("tower.frobenius_fixed_field", 1,
         lambda _: check_tower_fixed_field(tower), None),
        ("tower.json_round_trip", 1, lambda _: check_tower_json(tower), None),
        ("action.homomorphism_and_compatibility", 1,
         sampled("random pairs", _action_homomorphism, action, k_max), None),
        ("action.first_generator_surjective", 1,
         lambda _: check_action_surjectivity(action, k_max), None),
        ("action.restriction_order_growth", 1,
         sampled("random words over k=1..8", _action_torsion, action), 100),
        ("ring.axioms", 1, sampled("random triples", _ring_axioms, ctx1), None),
        ("ring.no_zero_divisors_leading_term", 1,
         sampled("random pairs", _ring_domain, ctx1), None),
        ("ring.graded_division_units", 1,
         sampled("homogeneous/inhomogeneous samples", _ring_units, ctx1), None),
        ("ring.level_embedding_hom", 2,
         sampled("random pairs into level 2", _ring_level_embedding, ctx1), 100),
        ("ring.commutation_rule", 1, lambda _: check_ring_commutation_rule(ctx1), None),
        ("ring.literal_round_trip", 1, sampled("elements", _ring_literal, ctx1), 100),
        ("center.commutator_vs_structural", 1,
         lambda t: check_center_agreement(ctx1, rng, t), None),
        ("center.commutator_vs_structural@2", 2,
         lambda t: check_center_agreement(ctx2, rng, t), 100),
        ("center.lattice_covers_kernel", 1,
         lambda _: check_center_lattice_cover(ctx1), None),
        ("center.free_module_round_trip", 1,
         lambda t: check_center_freeness(ctx1, rng, t), 100),
        ("center.free_module_round_trip@2", 2,
         lambda t: check_center_freeness(ctx2, rng, t), 50),
        ("center.lattice_nesting", 2, lambda _: check_center_nesting(ctx1), None),
        ("simplicity.unit_in_ideal_with_audit", 1,
         lambda t: check_simplicity(ctx1, rng, t), 100),
        ("simplicity.ascends_for_central_elements", 2,
         lambda _: check_simplicity_ascent(ctx1), None),
        ("pi.multilinear_alternating", 1,
         sampled("random 4-tuples", _pi_multilinear, ctx1), 20),
        ("pi.frontier_rises_with_level", 2,
         lambda t: check_pi_frontier(ctx1, ctx2, t, seed), 100),
        ("growth.monotone_and_slope", 1,
         lambda _: check_growth(RingContext(tower, sub_action(min(n, 2)), 1), rng),
         None),
        ("quotient.inverse_and_involution", 1,
         sampled("random fractions", _quotient_division, rank1), 20),
        ("quotient.splitting_representation_hom", 1,
         sampled("random pairs", _quotient_splitting, rank1), 10),
        ("quotient.center_collapses_to_base", 2,
         lambda t: check_quotient_center(rank1, rng, t), 40),
    ]
    results = []
    for name, level, check, cap in table:
        if level > k_max:  # k_max >= 1: a level-2 row at k_max = 1
            outcome = Outcome(None, f"not run: no level above 1 (k_max = {k_max})")
        else:
            try:
                outcome = check(trials if cap is None else min(trials, cap))
            except InternalFaultError as exc:
                outcome = Outcome(False, f"internal consistency fault: {exc}")
            except BudgetError:
                raise
            except TwistlabError as exc:  # any other defect the check surfaced
                outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
        results.append(CheckResult(name, *outcome))
    return results
