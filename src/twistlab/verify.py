"""Invariant suites for every module, runnable as one deterministic batch.

Each check returns a named record with the counts it actually ran, and one of
three outcomes: passed (True), failed (False), or not run (None, its detail
saying "not run: ..." and why).  A check is not run when its evidence would
be vacuous: a check that needs level 2 at k_max = 1 (run_all decides that
once), or a sampler that cannot draw at this size.  The batch is seeded, so
two runs with the same configuration and seed produce identical results (and
identical serialized reports).
"""

from __future__ import annotations

import itertools
import math
import random
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
from .errors import NotAUnitError
from .growth import gk_estimate, growth_table
from .pi import MAX_DEGREE, pi_degree_scan, standard_polynomial
from .quotient import (
    CentralFraction,
    _bareiss,
    center_of_quotient_test,
    invert,
    regular_representation,
)
from .ring import RingContext, _from_codes, parse_element
from .simplicity import (
    random_separable_element,
    replay_trace,
    separating_level,
    unit_in_ideal,
)
from .tower import Tower, build_tower, tower_from_json, tower_to_json, TowerConfig


class CheckResult(NamedTuple):
    name: str
    passed: Optional[bool]  # None: not run
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _sample_words(rng, n, bound, count):
    return [
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(count)
    ]


def check_tower_field_axioms(tower: Tower, rng, trials: int) -> CheckResult:
    bad = 0
    for _ in range(trials):
        lvl = tower.level(rng.randint(0, tower.k_max))
        a, b, c = (lvl.random_element(rng) for _ in range(3))
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
            bad += 1
        if not a.is_zero() and (a * a.inverse()) != lvl.one():
            bad += 1
    return CheckResult(
        "tower.field_axioms", bad == 0, f"{trials} random triples, {bad} failures"
    )


def check_tower_embeddings(tower: Tower, rng, trials: int) -> CheckResult:
    bad = 0
    for _ in range(trials):
        m = rng.randint(0, tower.k_max - 1)
        m2 = rng.randint(m, tower.k_max - 1)
        m3 = rng.randint(m2, tower.k_max)
        x = tower.level(m).random_element(rng)
        if tower.embed(tower.embed(x, m2), m3) != tower.embed(x, m3):
            bad += 1
        t = rng.randint(-3, 6)
        if tower.embed(tower.frobenius(x, t), m3) != tower.frobenius(
            tower.embed(x, m3), t
        ):
            bad += 1
        y = tower.level(m).random_element(rng)
        if tower.embed(x * y, m3) != tower.embed(x, m3) * tower.embed(y, m3):
            bad += 1
    return CheckResult(
        "tower.embedding_compatibility", bad == 0,
        f"{trials} random (x, levels) cases, {bad} failures",
    )


def check_tower_fixed_field(tower: Tower) -> CheckResult:
    """Exhaustive: Frobenius fixes exactly the embedded base field."""
    bad = 0
    for m in range(tower.k_max + 1):
        lvl = tower.level(m)
        fixed = sum(1 for x in lvl.elements() if lvl.frobenius(x, 1) == x)
        if fixed != tower.q:
            bad += 1
    return CheckResult(
        "tower.frobenius_fixed_field", bad == 0,
        f"levels 0..{tower.k_max} enumerated, {bad} failures",
    )


def check_tower_json(tower: Tower) -> CheckResult:
    ok = tower_from_json(tower_to_json(tower)) == tower
    return CheckResult("tower.json_round_trip", ok, "bit-exact round trip")


def check_action_homomorphism(action: ActionConfig, rng, trials: int,
                              k_max: int) -> CheckResult:
    bad = 0
    for _ in range(trials):
        k = rng.randint(1, k_max)
        mod = action.p**k
        g, h = _sample_words(rng, action.n, 6, 2)
        gh = tuple(a + b for a, b in zip(g, h))
        if action_exponent(action, gh, k) != (
            action_exponent(action, g, k) + action_exponent(action, h, k)
        ) % mod:
            bad += 1
        if action_exponent(action, g, k) != action_exponent(action, g, k + 1) % mod:
            bad += 1
    return CheckResult(
        "action.homomorphism_and_compatibility", bad == 0,
        f"{trials} random pairs, {bad} failures",
    )


def check_action_surjectivity(action: ActionConfig, k_max: int) -> CheckResult:
    e1 = tuple(1 if i == 0 else 0 for i in range(action.n))
    bad = sum(
        1
        for k in range(1, k_max + 1)
        if action_exponent(action, e1, k) % action.p == 0
    )
    return CheckResult(
        "action.first_generator_surjective", bad == 0,
        f"levels 1..{k_max}, {bad} failures",
    )


def check_action_torsion(action: ActionConfig, rng, trials: int) -> CheckResult:
    bad = 0
    for _ in range(trials):
        g = tuple(rng.randint(-4, 4) for _ in range(action.n))
        if not any(g):
            continue
        orders = [restriction_order(action, g, k) for k in range(1, 9)]
        if any(b < a for a, b in zip(orders, orders[1:])):
            bad += 1
        if orders[-1] <= 1 and independence_certificate(action, 8, 8):
            # a certified config cannot keep a small word trivial this long
            bad += 1
    return CheckResult(
        "action.restriction_order_growth", bad == 0,
        f"{trials} random words over k=1..8, {bad} failures",
    )


def check_ring_axioms(ctx: RingContext, rng, trials: int) -> CheckResult:
    bad = 0
    one = ctx.one()
    for _ in range(trials):
        r, s, t = (ctx.random_element(rng) for _ in range(3))
        if (r * s) * t != r * (s * t):
            bad += 1
        if r * (s + t) != r * s + r * t or (s + t) * r != s * r + t * r:
            bad += 1
        if r * one != r or one * r != r:
            bad += 1
    return CheckResult(
        "ring.axioms", bad == 0, f"{trials} random triples, {bad} failures"
    )


def check_ring_domain(ctx: RingContext, rng, trials: int) -> CheckResult:
    bad = 0
    for _ in range(trials):
        r, s = ctx.random_element(rng), ctx.random_element(rng)
        prod = r * s
        if prod.is_zero():
            bad += 1
            continue
        gw, gc = r.leading_term()
        hw, hc = s.leading_term()
        w = tuple(a + b for a, b in zip(gw, hw))
        expect = gc * ctx.level.frobenius(hc, ctx.word_exponent(gw))
        lw, lc = prod.leading_term()
        if lw != w or lc != expect:
            bad += 1
    return CheckResult(
        "ring.no_zero_divisors_leading_term", bad == 0,
        f"{trials} random pairs, {bad} failures",
    )


def check_ring_units(ctx: RingContext, rng, trials: int) -> CheckResult:
    bad = 0
    for _ in range(trials):
        hom = ctx.random_element(rng, max_terms=1)
        if hom * hom.invert_unit() != ctx.one():
            bad += 1
        inhom = ctx.random_element(rng, min_terms=2, max_terms=3)
        try:
            inhom.invert_unit()
            bad += 1
        except NotAUnitError:
            pass
        other = ctx.random_element(rng, min_terms=2, max_terms=3)
        if inhom * other == ctx.one():
            bad += 1
    return CheckResult(
        "ring.graded_division_units", bad == 0,
        f"{trials} homogeneous/inhomogeneous samples, {bad} failures",
    )


def check_ring_level_embedding(ctx: RingContext, rng, trials: int) -> CheckResult:
    up = ctx.lift_level(ctx.k + 1)
    bad = 0
    for _ in range(trials):
        r, s = ctx.random_element(rng), ctx.random_element(rng)
        if (r * s).lift_to(up) != r.lift_to(up) * s.lift_to(up):
            bad += 1
        if (r + s).lift_to(up) != r.lift_to(up) + s.lift_to(up):
            bad += 1
    return CheckResult(
        "ring.level_embedding_hom", bad == 0,
        f"{trials} random pairs into level {ctx.k + 1}, {bad} failures",
    )


def check_ring_commutation_rule(ctx: RingContext) -> CheckResult:
    bad = 0
    theta = ctx.theta()
    for i in range(1, ctx.n + 1):
        x = ctx.gen(i)
        e = truncate(ctx.action.exponents[i - 1], ctx.tower.p, ctx.k)
        lhs = x * ctx.scalar(theta)
        rhs = ctx.level.frobenius(theta, e) * x
        if lhs != rhs:
            bad += 1
    return CheckResult(
        "ring.commutation_rule", bad == 0,
        f"all {ctx.n} generators against the field generator, {bad} failures",
    )


def check_ring_literals(ctx: RingContext, rng, trials: int) -> CheckResult:
    bad = 0
    for _ in range(trials):
        r = ctx.random_element(rng)
        if parse_element(ctx, r.to_literal()) != r:
            bad += 1
    return CheckResult(
        "ring.literal_round_trip", bad == 0, f"{trials} elements, {bad} failures"
    )


def _random_central(ctx: RingContext, lat, rng):
    """1 to 3 lattice words with coordinates in [-2, 2] and nonzero GF(q)
    coefficients: a member of the center."""
    codes = {}
    for _ in range(rng.randint(1, 3)):
        coords = tuple(rng.randint(-2, 2) for _ in lat.basis)
        codes[lat.from_lattice_coordinates(coords)] = rng.randrange(1, ctx.tower.q)
    return _from_codes(ctx, codes)


def check_center_agreement(ctx: RingContext, rng, trials: int) -> CheckResult:
    lat = kernel_lattice(ctx)
    bad = 0
    for i in range(trials):
        if i % 2 == 0:
            r = ctx.random_element(rng)
        else:
            # structured samples: random center members, sometimes perturbed
            r = _random_central(ctx, lat, rng)
            if rng.random() < 0.3:
                r = r + ctx.random_element(rng, max_terms=1)
        if is_central(r) != is_central_structural(r, lat):
            bad += 1
    index_ok = lat.index == ctx.tower.p**ctx.k
    return CheckResult(
        "center.commutator_vs_structural", bad == 0 and index_ok,
        f"{trials} elements at k={ctx.k}, {bad} disagreements, "
        f"index {lat.index} (expected {ctx.tower.p ** ctx.k})",
    )


def check_center_lattice_cover(ctx: RingContext) -> CheckResult:
    """Every bounded word acting trivially lies in the lattice, and no basis
    row acts nontrivially."""
    lat = kernel_lattice(ctx)
    p, k = ctx.tower.p, ctx.k
    bound = 2 * p**k
    bad = 0
    span = range(-bound, bound + 1)
    for w in itertools.product(span, repeat=ctx.n):
        if action_exponent(ctx.action, w, k) == 0 and not lat.contains(w):
            bad += 1
    return CheckResult(
        "center.lattice_covers_kernel", bad == 0,
        f"all words with coordinates in [-{bound}, {bound}], {bad} misses",
    )


def check_center_freeness(ctx: RingContext, rng, trials: int) -> CheckResult:
    lat = kernel_lattice(ctx)
    fb = free_basis(ctx, lat)
    rank_ok = fb.size() == ctx.tower.p ** (2 * ctx.k)
    bad = 0
    for _ in range(trials):
        r = ctx.random_element(rng)
        zs = decompose_over_center(r, fb, lat)
        if recompose(zs, fb) != r:
            bad += 1
    return CheckResult(
        "center.free_module_round_trip", bad == 0 and rank_ok,
        f"rank {fb.size()}, {trials} round trips, {bad} failures",
    )


def check_center_nesting(ctx: RingContext) -> CheckResult:
    lat = kernel_lattice(ctx)
    lat_up = kernel_lattice(ctx.lift_level(ctx.k + 1))
    bad = sum(0 if lat.contains(row) else 1 for row in lat_up.basis)
    return CheckResult(
        "center.lattice_nesting", bad == 0,
        f"H_(k+1) basis inside H_k, {bad} failures",
    )


def check_simplicity(ctx: RingContext, rng, trials: int) -> CheckResult:
    bad = 0
    for _ in range(trials):
        try:
            r = random_separable_element(ctx, rng)
        except ValueError as exc:  # too few levels to separate two points
            return CheckResult("simplicity.unit_in_ideal_with_audit", None, f"not run: {exc}")
        trace = unit_in_ideal(r)
        if len(trace.steps) != len(r.codes) - 1:
            bad += 1
        if replay_trace(trace) != trace.final_unit:
            bad += 1
    return CheckResult(
        "simplicity.unit_in_ideal_with_audit", bad == 0,
        f"{trials} random elements, {bad} failures",
    )


def check_simplicity_ascent(ctx: RingContext) -> CheckResult:
    """Central-looking elements of one level force an ascent."""
    x1 = ctx.gen(1)
    r = ctx.one() + x1 ** (ctx.tower.p**ctx.k)
    level = separating_level(ctx, r.support())
    trace = unit_in_ideal(r)
    ok = level > ctx.k and all(s.level > ctx.k for s in trace.steps)
    return CheckResult(
        "simplicity.ascends_for_central_elements", ok,
        f"separating level {level} > k={ctx.k}",
    )


def check_pi_multilinear(ctx: RingContext, rng, trials: int) -> CheckResult:
    bad = 0
    q = ctx.tower.q
    for _ in range(trials):
        args = [ctx.random_element(rng, max_terms=2) for _ in range(4)]
        extra = ctx.random_element(rng, max_terms=2)
        a = ctx.level.from_base(rng.randrange(q))
        b = ctx.level.from_base(rng.randrange(q))
        blended = a * args[1] + b * extra
        lhs = standard_polynomial([args[0], blended, args[2], args[3]])
        rhs = a * standard_polynomial(args) + b * standard_polynomial(
            [args[0], extra, args[2], args[3]]
        )
        if lhs != rhs:
            bad += 1
        # alternating: swapping two arguments negates; a repeat kills it
        swapped = standard_polynomial([args[1], args[0], args[2], args[3]])
        if swapped != -standard_polynomial(args):
            bad += 1
        repeated = standard_polynomial([args[0], args[0], args[2], args[3]])
        if not repeated.is_zero():
            bad += 1
    return CheckResult(
        "pi.multilinear_alternating", bad == 0,
        f"{trials} random 4-tuples, {bad} failures",
    )


def check_pi_frontier(ctx1: RingContext, ctx2: RingContext, trials: int,
                      seed: int) -> CheckResult:
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
    return CheckResult("pi.frontier_rises_with_level", ok, "; ".join(details))


def check_growth(ctx: RingContext, rng) -> CheckResult:
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
    return CheckResult(
        "growth.monotone_and_slope", monotone and bounded,
        f"slope {est.slope:.3f} for rank {ctx.n}, top dim {table.rows[-1]}"
        f" <= {ball(table.n_max) * deg}",
    )


def check_quotient_division(ctx: RingContext, rng, trials: int) -> CheckResult:
    lat = kernel_lattice(ctx)
    one = CentralFraction(ctx, ctx.one(), ctx.one(), lattice=lat)
    bad = 0
    for _ in range(trials):
        num = ctx.random_element(rng, max_terms=2)
        if num.is_zero():
            continue
        den_coords = tuple(rng.randint(-1, 1) for _ in lat.basis)
        den = ctx.monomial(1, lat.from_lattice_coordinates(den_coords)) + ctx.one()
        if den.is_zero():
            den = ctx.one()
        f = CentralFraction(ctx, num, den, lattice=lat)
        g = invert(f)
        if f * g != one:
            bad += 1
        if invert(g) != f:
            bad += 1
    return CheckResult(
        "quotient.inverse_and_involution", bad == 0,
        f"{trials} random fractions, {bad} failures",
    )


def check_quotient_regular_rep(ctx: RingContext, rng, trials: int) -> CheckResult:
    lat = kernel_lattice(ctx)
    fb = free_basis(ctx, lat)
    bad = 0
    for _ in range(trials):
        r, s = ctx.random_element(rng, max_terms=2), ctx.random_element(rng, max_terms=2)
        mr, ms, mrs = (regular_representation(x, fb, lat) for x in (r, s, r * s))
        size = fb.size()
        for a, b in itertools.product(range(size), repeat=2):
            bad += sum((mr[a][c] * ms[c][b] for c in range(size)), ctx.zero()) != mrs[a][b]
        det, _ = _bareiss(ctx.level, ctx.add_words, [[e.codes for e in row] for row in mr])
        bad += not r.is_zero() and not det
    return CheckResult(
        "quotient.regular_representation_hom", bad == 0,
        f"{trials} random pairs, {bad} failures",
    )


def check_quotient_center(ctx: RingContext, rng, trials: int) -> CheckResult:
    """Base elements commute at every level k..k_max; each drawn central
    element with exit level e <= k_max commutes at e - 1 and not at e."""
    lat, top, one = kernel_lattice(ctx), ctx.tower.k_max, ctx.one()
    bad = tested = 0
    for c in range(1, ctx.tower.q):
        f = CentralFraction(ctx, ctx.scalar(ctx.level.from_base(c)), one, lattice=lat)
        bad += sum(not center_of_quotient_test(f, m) for m in range(ctx.k, top + 1))
    for _ in range(trials):
        z = _random_central(ctx, lat, rng)
        e = exit_level(z)
        if e is not None and e <= top:
            tested += 1
            f = CentralFraction(ctx, z, one, lattice=lat)
            bad += not center_of_quotient_test(f, e - 1) or center_of_quotient_test(f, e)
    if tested == bad == 0:  # no draw leaves the center by k_max: no evidence
        return CheckResult("quotient.center_collapses_to_base", None,
                           f"not run: no level above {ctx.k} to probe, none of "
                           f"{trials} draws leaves the center by level {top}")
    return CheckResult(
        "quotient.center_collapses_to_base", bad == 0,
        f"{ctx.tower.q - 1} base elements commute at levels {ctx.k}..{top}, {tested}"
        f" proper central elements commute below their exit level and not at it,"
        f" {trials - tested} stay central through level {top}, {bad} failures",
    )


def run_all(p: int, q: int, n: int, k_max: int, seed: int,
            trials: int = 300, action: ActionConfig = None) -> list:
    """Run every module's invariant suite at the configured size.

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

    def at_level_2(name, check, *args):  # runs only if the tower has level 2
        if ctx2 is None:
            return CheckResult(name, None, f"not run: no level above 1 (k_max = {k_max})")
        return check(*args)

    def sub_action(rank):
        if rank == action.n:
            return action
        return ActionConfig(rank, p, action.exponents[:rank])
    rank1 = RingContext(tower, sub_action(1), 1)
    results = [
        check_tower_field_axioms(tower, rng, trials),
        check_tower_embeddings(tower, rng, trials),
        check_tower_fixed_field(tower),
        check_tower_json(tower),
        check_action_homomorphism(action, rng, trials, k_max),
        check_action_surjectivity(action, k_max),
        check_action_torsion(action, rng, min(trials, 100)),
        check_ring_axioms(ctx1, rng, trials),
        check_ring_domain(ctx1, rng, trials),
        check_ring_units(ctx1, rng, trials),
        at_level_2("ring.level_embedding_hom",
                   check_ring_level_embedding, ctx1, rng, min(trials, 100)),
        check_ring_commutation_rule(ctx1),
        check_ring_literals(ctx1, rng, min(trials, 100)),
        check_center_agreement(ctx1, rng, trials),
        at_level_2("center.commutator_vs_structural",
                   check_center_agreement, ctx2, rng, min(trials, 100)),
        check_center_lattice_cover(ctx1),
        check_center_freeness(ctx1, rng, min(trials, 100)),
        at_level_2("center.free_module_round_trip",
                   check_center_freeness, ctx2, rng, min(trials, 50)),
        at_level_2("center.lattice_nesting", check_center_nesting, ctx1),
        check_simplicity(ctx1, rng, min(trials, 100)),
        at_level_2("simplicity.ascends_for_central_elements",
                   check_simplicity_ascent, ctx1),
        check_pi_multilinear(ctx1, rng, min(trials, 20)),
        at_level_2("pi.frontier_rises_with_level",
                   check_pi_frontier, ctx1, ctx2, min(trials, 100), seed),
        check_growth(RingContext(tower, sub_action(min(n, 2)), 1), rng),
        check_quotient_division(rank1, rng, min(trials, 20)),
        check_quotient_regular_rep(rank1, rng, min(trials, 10)),
        at_level_2("quotient.center_collapses_to_base",
                   check_quotient_center, rank1, rng, min(trials, 40)),
    ]
    return results
