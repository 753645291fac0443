import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import action
from twistlab.action import (
    EXPONENT_HORIZON,
    ActionConfig,
    PAdicExponent,
    action_exponent,
    default_action,
    find_relation,
    independence_certificate,
    least_certified_level,
    restriction_order,
    truncate,
)
from twistlab.errors import BudgetError, IndependenceError


def scan_relation(config, coeff_bound, k):
    """Reference: the plain box scan, first nonzero relation in product order."""
    mod = config.p**k
    ts = config.truncations(k)
    span = range(-coeff_bound, coeff_bound + 1)
    for m in itertools.product(span, repeat=config.n):
        if any(m) and sum(c * t for c, t in zip(m, ts)) % mod == 0:
            return m
    return None


def test_truncate_one():
    a = PAdicExponent.one()
    for k in range(1, 12):
        assert truncate(a, 2, k) == 1
        assert truncate(a, 3, k) == 1


def test_truncate_cuts_high_positions():
    a = PAdicExponent.from_positions([0, 3])
    assert truncate(a, 2, 2) == 1
    assert truncate(a, 2, 4) == 9  # 1 + 2^3


def test_truncate_rejects_negative_level():
    with pytest.raises(ValueError):
        truncate(PAdicExponent.one(), 2, -1)


@pytest.mark.parametrize("k", [-1, EXPONENT_HORIZON + 1])
def test_truncation_refuses_levels_outside_the_horizon(action_n2, k):
    # no digit positions are stored past the horizon
    with pytest.raises(ValueError, match="truncation level"):
        truncate(PAdicExponent.one(), 2, k)
    with pytest.raises(ValueError, match="truncation level"):
        action_n2.truncations(k)
    assert action_n2.truncations(EXPONENT_HORIZON) == tuple(
        truncate(a, 2, EXPONENT_HORIZON) for a in action_n2.exponents)


def test_exponents_are_immutable_position_tuples():
    a = PAdicExponent.from_positions([11, 0, 5, 5])
    assert a == (0, 5, 11) and a.positions_below(6) == (0, 5)
    with pytest.raises(ValueError):
        PAdicExponent.from_positions([0, -1])


def test_default_exponent_positions():
    exps = default_action(2, 2).exponents
    assert exps[0].positions_below(64) == (0,)
    # (2t+2)^2 for t = 0, 1, 2, ...
    assert exps[1].positions_below(64) == (4, 16, 36)


def test_action_exponent_examples(action_n2):
    assert action_exponent(action_n2, (0, 0), 3) == 0
    assert action_exponent(action_n2, (1, 0), 3) == 1
    a2 = PAdicExponent.from_positions([0, 3])
    config = ActionConfig(2, 2, [PAdicExponent.one(), a2])
    # truncations at k=2: (1, 1); the word (1,1) acts by 1+1 = 2 mod 4
    assert action_exponent(config, (1, 1), 2) == 2


def test_action_exponent_is_homomorphism(action_n2):
    rng = random.Random(5)
    for _ in range(500):
        k = rng.randint(1, 8)
        mod = 2**k
        g = tuple(rng.randint(-9, 9) for _ in range(2))
        h = tuple(rng.randint(-9, 9) for _ in range(2))
        gh = tuple(a + b for a, b in zip(g, h))
        assert action_exponent(action_n2, gh, k) == (
            action_exponent(action_n2, g, k) + action_exponent(action_n2, h, k)
        ) % mod
        # inverse-limit compatibility
        assert action_exponent(action_n2, g, k) == (
            action_exponent(action_n2, g, k + 1) % mod
        )


def test_surjectivity_via_first_generator(action_n2):
    for k in range(1, 10):
        assert action_exponent(action_n2, (1, 0), k) % 2 == 1  # a unit mod p


def test_certificate_rank_one():
    config = default_action(1, 2)
    for k in range(1, 6):
        assert independence_certificate(config, 2**k - 1, k)
        assert not independence_certificate(config, 2**k, k)  # m = p^k


def test_certificate_dependent_pair_fails():
    config = ActionConfig(2, 2, [PAdicExponent.one(), PAdicExponent.one()])
    assert not independence_certificate(config, 1, 1)
    with pytest.raises(IndependenceError) as err:
        least_certified_level(config, 1)
    assert err.value.relation is not None


def test_certificate_default_config_at_bound_8():
    config = default_action(2, 2)
    # oracle: exhaustive box enumeration, written out directly
    ts = config.truncations(8)
    mod = 2**8
    hits = [
        (m1, m2)
        for m1 in range(-8, 9)
        for m2 in range(-8, 9)
        if (m1, m2) != (0, 0) and (m1 * ts[0] + m2 * ts[1]) % mod == 0
    ]
    assert hits == []
    assert independence_certificate(config, 8, 8)
    assert least_certified_level(config, 8) == 8


def test_restriction_orders(action_n2):
    k = 3
    assert restriction_order(action_n2, (1, 0), k) == 8
    assert restriction_order(action_n2, (2, 0), k) == 4
    with pytest.raises(ValueError):
        restriction_order(action_n2, (0, 0), k)


def test_restriction_order_grows_without_bound(action_n2):
    # exhaustive over the box |g_i| <= 4: orders never drop with the level
    # and always outgrow their starting value by level 8
    from itertools import product

    for g in product(range(-4, 5), repeat=2):
        if not any(g):
            continue
        orders = [restriction_order(action_n2, g, k) for k in range(1, 9)]
        assert all(b >= a for a, b in zip(orders, orders[1:]))
        assert orders[-1] >= 4
        assert orders[-1] > orders[0]


def test_first_exponent_must_be_one():
    with pytest.raises(ValueError):
        ActionConfig(1, 2, [PAdicExponent.from_positions([1])])


def test_config_json_round_trip(action_n2):
    data = action_n2.to_json_dict()
    assert data == {"n": 2, "p": 2, "horizon": 64, "exponents": [[0], [4, 16, 36]]}
    rebuilt = ActionConfig.from_json_dict(data)
    for k in range(1, 16):
        assert rebuilt.truncations(k) == action_n2.truncations(k)


@st.composite
def relation_cases(draw):
    """Exponent families with fresh, duplicate and dependent members."""
    n = draw(st.integers(min_value=1, max_value=5))
    positions = [[0]]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(["fresh", "duplicate", "sum"]))
        if kind == "duplicate":
            positions.append(draw(st.sampled_from(positions)))
            continue
        fresh = sorted(draw(st.sets(st.integers(min_value=0, max_value=9), max_size=3)))
        if kind == "sum":
            # a_j + fresh is a dependent exponent when their digits are disjoint
            base = draw(st.sampled_from(positions))
            fresh = sorted(set(base) | set(fresh)) if not set(base) & set(fresh) else fresh
        positions.append(fresh)
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(min_value=0, max_value=8))
    bound = draw(st.integers(min_value=1, max_value=2 if n == 5 else 4))
    config = ActionConfig(n, p, [PAdicExponent.from_positions(ps) for ps in positions])
    return config, bound, k


@settings(max_examples=400, deadline=None)
@given(relation_cases())
def test_find_relation_matches_box_scan(case):
    config, bound, k = case
    assert find_relation(config, bound, k) == scan_relation(config, bound, k)


def test_find_relation_matches_box_scan_on_default_actions():
    for n in (2, 3, 4):
        config = default_action(n, 2)
        for k in range(1, 25):
            assert find_relation(config, 3, k) == scan_relation(config, 3, k)


def test_relation_with_zero_head():
    # 1, 2^5, 2^3, 2^3 mod 2^6 at bound 1: m_1 = m_2 = 0 is forced, so the
    # only relations pair the duplicate tail, and u = (0, 0) must find them
    config = ActionConfig(4, 2, [PAdicExponent.from_positions(ps)
                                 for ps in ([0], [5], [3], [3])])
    assert scan_relation(config, 1, 6) == (0, 0, -1, 1)
    assert find_relation(config, 1, 6) == (0, 0, -1, 1)
    # rank 1 has an empty tail half
    assert find_relation(default_action(1, 3), 2, 0) == (-2,)
    assert find_relation(default_action(1, 3), 2, 1) is None


def test_least_certified_levels_of_default_actions():
    levels = [least_certified_level(default_action(n, 2), 8) for n in range(1, 8)]
    assert levels == [4, 8, 13, 20, 29, 40, 53]
    # rank 7 is the last that fits the budget; a faster search does not raise it
    with pytest.raises(BudgetError):
        least_certified_level(default_action(8, 2), 8)


def scan_certified_level(config, coeff_bound):
    """Reference: (least certified level, None) by searching every level from
    1 up, or (None, the horizon's relation) when no level certifies."""
    for k in range(1, EXPONENT_HORIZON + 1):
        witness = find_relation(config, coeff_bound, k)
        if witness is None:
            return k, None
    return None, witness


def certified_level(config, coeff_bound):
    """least_certified_level in the form of scan_certified_level."""
    try:
        return least_certified_level(config, coeff_bound), None
    except IndependenceError as err:
        return None, err.relation


PINNED_DEPENDENT = [
    ([[0], [0]], (-8, 8)),
    ([[0], [1, 5], [1, 5]], (0, -8, 8)),
    ([[0], [3], [9], [3, 9]], (-8, -7, -8, 8)),
]


@pytest.mark.parametrize("n", range(1, 7))
def test_skipping_certification_matches_the_level_scan(n):
    for bound in range(1, 9):
        assert (certified_level(default_action(n, 2), bound)
                == scan_certified_level(default_action(n, 2), bound))


@pytest.mark.parametrize("positions, relation", PINNED_DEPENDENT)
def test_skipping_certification_reports_the_horizon_relation(positions, relation):
    def config():
        return ActionConfig(len(positions), 2,
                            [PAdicExponent.from_positions(ps) for ps in positions])
    assert certified_level(config(), 8) == scan_certified_level(config(), 8)
    assert scan_certified_level(config(), 8) == (None, relation)


@pytest.mark.parametrize("n", range(1, 7))
def test_certification_skips_levels_its_witness_kills(n, monkeypatch):
    # the level scan searches all n^2 + 4 levels up to the certified one
    calls, search = [], action.find_relation
    monkeypatch.setattr(action, "find_relation",
                        lambda *a: calls.append(a[2]) or search(*a))
    level = least_certified_level(default_action(n, 2), 8)
    assert calls[-1] == level and len(calls) <= n + 2


@pytest.mark.parametrize("positions, relation", PINNED_DEPENDENT)
def test_blocking_relations_are_pinned(positions, relation):
    config = ActionConfig(len(positions), 2,
                          [PAdicExponent.from_positions(ps) for ps in positions])
    with pytest.raises(IndependenceError) as err:
        least_certified_level(config, 8)
    assert err.value.relation == relation
    assert str(err.value) == ("no truncation level <= 64 certifies independence at"
                              f" coefficient bound 8; blocking relation {relation}")


def test_certification_box_is_budgeted():
    # rank 7 fits the budget at bound 8 (17^4 + 17^3 vectors per level)
    find_relation(default_action(7, 2), 8, 1)
    for n in (8, 9):
        with pytest.raises(BudgetError):
            find_relation(default_action(n, 2), 8, 1)
    with pytest.raises(BudgetError):
        least_certified_level(default_action(9, 2), 8)
