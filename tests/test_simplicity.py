import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab.action import action_exponent, default_action, truncate
from twistlab.errors import InternalFaultError, SeparationError
from twistlab.ring import RingContext, _from_codes
from twistlab.simplicity import (
    ShrinkStep,
    random_separable_element,
    replay_trace,
    separating_level,
    unit_in_ideal,
)
from twistlab.tower import TowerConfig, TowerLevel, build_tower

# -- reference routines ----------------------------------------------------------
# The former step-by-step engine and searches, kept as oracles: one step
# rebuilt the element from its codes, the multiplier scanned the power basis
# for the first element two automorphisms move apart, a step was the
# ring-product combination r*d - lam*r, and separation compared the action
# exponents of all pairwise differences.


def shrink_once(r, g0, g1):
    """One elimination step; returns (smaller element, step record).

    Precondition: g0 and g1 are distinct support points of r and the current
    level separates them.  The output r*d - sigma_g0(d)*r, d = theta, drops
    g0 from the support, keeps g1, and lies in the two-sided ideal generated
    by r.
    """
    ctx = r.ctx
    g0, g1 = tuple(g0), tuple(g1)
    if g0 not in r.codes or g1 not in r.codes or g0 == g1:
        raise ValueError("g0 and g1 must be distinct support points of r")
    if ctx.word_exponent(g0) == ctx.word_exponent(g1):
        raise ValueError(
            f"level {ctx.k} does not separate {g0} and {g1}; ascend first"
        )
    level = ctx.level
    theta = level.generator_code()
    lam = level.frob_code(theta, ctx.word_exponent(g0))
    out = _from_codes(ctx, {
        w: level.mul(c, level.sub(level.frob_code(theta, ctx.word_exponent(w)), lam))
        for w, c in r.codes.items()
    })
    if g0 in out.codes or g1 not in out.codes:
        raise InternalFaultError("shrink step did not act as predicted")
    if len(out.codes) >= len(r.codes):
        raise InternalFaultError("shrink step failed to reduce the support")
    step = ShrinkStep(level=ctx.k, d=level.from_code(theta), g0=g0, g1=g1,
                      lam=level.from_code(lam))
    return out, step


def reference_separating_multiplier(ctx, g0, g1):
    e0 = ctx.word_exponent(g0)
    e1 = ctx.word_exponent(g1)
    if e0 == e1:
        raise ValueError(
            f"level {ctx.k} does not separate {g0} and {g1}; ascend first"
        )
    theta = ctx.theta()
    cur = ctx.level.one()
    for _ in range(ctx.level.degree):
        if ctx.level.frobenius(cur, e0) != ctx.level.frobenius(cur, e1):
            return cur
        cur = cur * theta
    raise InternalFaultError(
        "distinct automorphisms agreed on the whole power basis"
    )


def reference_shrink_once(r, g0, g1):
    d = reference_separating_multiplier(r.ctx, g0, g1)
    lam = r.ctx.level.frobenius(d, r.ctx.word_exponent(g0))
    return r * d - lam * r, d, lam


def reference_separating_level(ctx, support):
    """(level, None), or (None, blocking difference at k_max)."""
    pairs = [
        tuple(a - b for a, b in zip(support[i], support[j]))
        for i in range(len(support))
        for j in range(i + 1, len(support))
    ]
    for k in range(1, ctx.tower.k_max + 1):
        blocking = next(
            (d for d in pairs if action_exponent(ctx.action, d, k) == 0), None
        )
        if blocking is None:
            return k, None
    return None, blocking


# (p, q, k_max): every level of each tower is within the field budget, so
# (3, 2) stops at level 2 (level 3 would be GF(2^27))
SHRINK_TOWERS = [(2, 2, 3), (3, 2, 2), (2, 3, 3)]


def _context(p, q, k_max, k, n=2):
    return RingContext(build_tower(TowerConfig(p, q, k_max)), default_action(n, p), k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shrink_step_matches_power_basis_search_and_ring_products(data):
    # also compares unit_in_ideal's one-pass trace with the iterated steps;
    # (2, 3, 3) has odd q, so level.add and level.sub go through Zech logs
    p, q, k_max = data.draw(st.sampled_from(SHRINK_TOWERS))
    ctx = _context(p, q, k_max, data.draw(st.integers(1, k_max)))
    r = random_separable_element(ctx, random.Random(data.draw(st.integers(0, 2**32))))
    g0, g1 = r.support()[:2]
    if ctx.word_exponent(g0) == ctx.word_exponent(g1):  # refused alike
        with pytest.raises(ValueError) as ours:
            shrink_once(r, g0, g1)
        with pytest.raises(ValueError) as ref:
            reference_shrink_once(r, g0, g1)
        assert str(ours.value) == str(ref.value)
    level = separating_level(ctx, r.support())
    cur = r.lift_to(ctx.lift_level(max(level, ctx.k)))
    steps = []
    while not cur.is_homogeneous():
        g0, g1 = cur.support()[:2]
        out, step = shrink_once(cur, g0, g1)
        ref_out, d, lam = reference_shrink_once(cur, g0, g1)
        assert (step.level, step.d, step.lam, step.g0, step.g1) == (
            cur.ctx.k, d, lam, g0, g1)
        assert out == ref_out
        steps.append(step)
        cur = out
    trace = unit_in_ideal(r)
    assert trace.separating_level == level
    assert trace.steps == tuple(steps)
    assert trace.final_unit == cur
    assert replay_trace(trace) == cur


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_separating_level_matches_pairwise_differences(data):
    k_max = data.draw(st.integers(1, 3))
    ctx = _context(2, 2, k_max, 1, n=data.draw(st.integers(1, 3)))
    word = st.tuples(*[st.integers(-9, 9)] * ctx.n)
    support = data.draw(st.lists(word, min_size=2, max_size=6, unique=True))
    level, blocking = reference_separating_level(ctx, support)
    if level is not None:
        assert separating_level(ctx, support) == level
    else:
        with pytest.raises(SeparationError) as err:
            separating_level(ctx, support)
        assert err.value.blocking_pair == blocking
        assert f"blocked difference {blocking} at k_max={k_max}" in str(err.value)


def test_separating_level_examples(ctx_n2_k1):
    assert separating_level(ctx_n2_k1, [(0, 0), (1, 0)]) == 1
    assert separating_level(ctx_n2_k1, [(0, 0), (2, 0)]) == 2
    # {0, e1 - e2}: least k with the second exponent not 1 mod 2^k
    oracle = next(
        k
        for k in range(1, 9)
        if (1 - truncate(ctx_n2_k1.action.exponents[1], 2, k)) % 2**k != 0
    )
    assert oracle == 1
    assert separating_level(ctx_n2_k1, [(0, 0), (1, -1)]) == oracle


def test_separating_level_needs_two_points(ctx_n2_k1):
    with pytest.raises(ValueError):
        separating_level(ctx_n2_k1, [(0, 0)])
    # words of the wrong length are refused, not read by the compiled exponent
    for support in ([(0, 0), (1,)], [(0, 0), (1, 0, 5)]):
        with pytest.raises(ValueError, match="length 2"):
            separating_level(ctx_n2_k1, support)


def test_separation_error_names_blocking_pair(ctx_n2_k1):
    # the second generator acts trivially at every materialized level
    with pytest.raises(SeparationError) as err:
        separating_level(ctx_n2_k1, [(0, 0), (0, 1)])
    assert "increase k_max" in str(err.value)
    assert err.value.blocking_pair == (0, -1) or err.value.blocking_pair == (0, 1)


def test_shrink_one_plus_x1_in_one_step(ctx_n2_k1):
    # hand computation in GF(4): d = omega, r*omega - omega*r = 1*x1
    r = ctx_n2_k1.one() + ctx_n2_k1.gen(1)
    out, step = shrink_once(r, (0, 0), (1, 0))
    assert out == ctx_n2_k1.gen(1)
    assert step.d == ctx_n2_k1.theta()
    assert step.lam == ctx_n2_k1.theta()  # sigma_0 is the identity
    trace = unit_in_ideal(r)
    assert len(trace.steps) == 1
    assert trace.final_unit == ctx_n2_k1.gen(1)
    assert trace.separating_level == 1


def test_shrink_refuses_unseparated_pair(ctx_n2_k1):
    r = ctx_n2_k1.one() + ctx_n2_k1.gen(1) ** 2
    with pytest.raises(ValueError):
        shrink_once(r, (0, 0), (2, 0))


def test_homogeneous_input_gives_empty_trace(ctx_n2_k1):
    r = ctx_n2_k1.monomial(ctx_n2_k1.theta(), (1, -1))
    trace = unit_in_ideal(r)
    assert trace.steps == ()
    assert trace.final_unit == r


def test_zero_input_rejected(ctx_n2_k1):
    with pytest.raises(ValueError):
        unit_in_ideal(ctx_n2_k1.zero())


def test_ascends_for_one_level_central_elements(ctx_n2_k1):
    # 1 + x1^2 is central at level 1 and generates a proper ideal there;
    # the engine must climb to level 2 where the support separates
    r = ctx_n2_k1.one() + ctx_n2_k1.gen(1) ** 2
    trace = unit_in_ideal(r)
    assert trace.separating_level == 2
    assert all(s.level == 2 for s in trace.steps)
    assert trace.final_unit.is_homogeneous()
    assert replay_trace(trace) == trace.final_unit


def test_shrink_property_fuzz(ctx_n2_k1):
    rng = random.Random(20)
    for _ in range(1000):
        r = random_separable_element(ctx_n2_k1, rng)
        trace = unit_in_ideal(r)
        assert len(trace.steps) <= len(r.terms) - 1
        assert trace.final_unit.is_homogeneous()
        assert not trace.final_unit.is_zero()
        assert replay_trace(trace) == trace.final_unit


def test_steps_record_the_asymmetric_combination(ctx_n2_k1):
    rng = random.Random(21)
    for _ in range(100):
        r = random_separable_element(ctx_n2_k1, rng, max_support=3)
        trace = unit_in_ideal(r)
        cur = (
            r
            if not trace.steps or trace.steps[0].level == r.ctx.k
            else r.lift_to(r.ctx.lift_level(trace.steps[0].level))
        )
        for step in trace.steps:
            nxt = cur * step.d - step.lam * cur
            assert step.g0 in cur.terms and step.g0 not in nxt.terms
            assert step.g1 in nxt.terms
            assert len(nxt.terms) < len(cur.terms)
            expect_lam = cur.ctx.level.frobenius(step.d, cur.ctx.word_exponent(step.g0))
            assert step.lam == expect_lam
            cur = nxt
        assert cur == trace.final_unit


def test_multiplier_is_first_separating_power(ctx_n2_k1):
    # d scans the power basis 1, theta, theta^2, ... and stops at the first
    # element the two automorphisms move apart
    r = ctx_n2_k1.one() + ctx_n2_k1.gen(1)
    _, step = shrink_once(r, (0, 0), (1, 0))
    lvl = ctx_n2_k1.level
    e0 = action_exponent(ctx_n2_k1.action, (0, 0), 1)
    e1 = action_exponent(ctx_n2_k1.action, (1, 0), 1)
    cur = lvl.one()
    while lvl.frobenius(cur, e0) == lvl.frobenius(cur, e1):
        cur = cur * lvl.generator()
    assert step.d == cur


def test_trace_json_shape(ctx_n2_k1):
    trace = unit_in_ideal(ctx_n2_k1.one() + ctx_n2_k1.gen(1))
    data = trace.to_json_dict()
    assert set(data) == {"input", "separating_level", "steps", "final_unit"}
    assert set(data["steps"][0]) == {"k", "d", "lam", "g0", "g1"}


# -- falsified invariants ------------------------------------------------------


def test_colliding_point_values_raise_internal_fault(ctx_n2_k1, monkeypatch):
    r = ctx_n2_k1.one() + ctx_n2_k1.gen(1) + ctx_n2_k1.gen(1) ** 3
    assert len(unit_in_ideal(r).steps) == 2
    # the point exponents come from separating_level, distinct by construction;
    # only a Frobenius that fixes theta can make the point values collide
    with monkeypatch.context() as m:
        m.setattr(TowerLevel, "frob_code", lambda self, code, times: code)
        with pytest.raises(InternalFaultError, match="does not separate the support"):
            unit_in_ideal(r)


def test_point_exponents_are_computed_once(ctx_n2_k1, monkeypatch):
    # the level-K point values reuse the k_max exponents of separating_level;
    # only invert_unit, verifying the final unit, asks the context again
    r = ctx_n2_k1.one() + ctx_n2_k1.gen(1) + ctx_n2_k1.gen(1) ** 3
    calls, word_exponent = [], RingContext.word_exponent
    monkeypatch.setattr(RingContext, "word_exponent",
                        lambda self, w: calls.append(w) or word_exponent(self, w))
    trace = unit_in_ideal(r)
    assert replay_trace(trace) == trace.final_unit
    assert calls == [(-3, 0)]


def test_tampered_trace_does_not_replay(ctx_n2_k1):
    rng = random.Random(22)
    for _ in range(50):
        trace = unit_in_ideal(random_separable_element(ctx_n2_k1, rng))
        assert replay_trace(trace) == trace.final_unit
        for i, step in enumerate(trace.steps):
            bumped = step.lam + step.lam.level.one()
            steps = list(trace.steps)
            steps[i] = step._replace(lam=bumped)
            changed = trace._replace(steps=tuple(steps))
            assert replay_trace(changed) != trace.final_unit
            dropped = trace._replace(steps=trace.steps[:i] + trace.steps[i + 1:])
            assert replay_trace(dropped) != trace.final_unit


def test_replay_refuses_lower_levels_and_foreign_coefficients(ctx_n2_k1):
    r = ctx_n2_k1.one() + ctx_n2_k1.gen(1) ** 2  # separates at level 2
    trace = unit_in_ideal(r)
    assert {s.level for s in trace.steps} == {2}
    lifted = trace._replace(input_element=r.lift_to(ctx_n2_k1.lift_level(3)))
    with pytest.raises(ValueError):
        replay_trace(lifted)
    step = trace.steps[0]
    level3 = ctx_n2_k1.tower.level(3)
    for foreign in (step._replace(d=level3.generator()),
                    step._replace(lam=ctx_n2_k1.theta())):
        with pytest.raises(ValueError):
            replay_trace(trace._replace(steps=(foreign,)))


def test_separable_sampler_refuses_a_one_word_window():
    # at p = 2, k_max = 1 the first coordinates come from p^k_max - 1 = 1
    # word, too few for two support points; run_all reports the check unrun
    ctx = RingContext(build_tower(TowerConfig(2, 2, 1)), default_action(2, 2), 1)
    with pytest.raises(ValueError, match="window of 1 first coordinates"):
        random_separable_element(ctx, random.Random(0))
    from twistlab.verify import run_all
    results = {r.name: r for r in run_all(2, 2, 2, 1, 0, trials=20)}
    check = results["simplicity.unit_in_ideal_with_audit"]
    assert not check.passed
    assert check.detail.startswith("not run: a window of 1 first coordinates")
