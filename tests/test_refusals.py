"""Refusal paths across the layers: each bad argument raises its own
exception type with a message that names the fault."""

from types import SimpleNamespace

import pytest

from twistlab.action import (
    ActionConfig,
    PAdicExponent,
    action_exponent,
    check_certification_budget,
    default_action,
)
from twistlab.center import free_basis, recompose
from twistlab.errors import ContextMismatchError
from twistlab.fields import factor_prime_power
from twistlab.pi import standard_polynomial
from twistlab.quotient import CentralFraction, _div
from twistlab.ring import RingContext
from twistlab.tower import TowerConfig, build_tower

ONE = PAdicExponent.one()


def _lift_to_another_tower(f):
    other = RingContext(build_tower(TowerConfig(2, 2, 2)), f.action_n2, 2)
    return f.ctx_n2_k1.one().lift_to(other)


def _lift_to_another_action(f):
    # an equal action is another action
    return f.ctx_n2_k1.one().lift_to(RingContext(f.tower223, default_action(2, 2), 2))


def _fraction(ctx):
    return CentralFraction(ctx, ctx.one(), ctx.one())


CASES = {
    "action-rank-0": (lambda f: ActionConfig(0, 2, []),
                      ValueError, "rank must be >= 1, got 0"),
    "action-p-4": (lambda f: ActionConfig(1, 4, [ONE]),
                   ValueError, "p must be prime, got 4"),
    "action-exponent-count": (lambda f: ActionConfig(2, 2, [ONE]),
                              ValueError, "need 2 exponents, got 1"),
    "action-exponent-word-length": (
        lambda f: action_exponent(f.action_n2, (1, 0, 0), 1),
        ValueError, "word has length 3, expected 2"),
    "certification-bound-0": (lambda f: check_certification_budget(2, 0),
                              ValueError, "coeff_bound must be >= 1"),
    "context-p-mismatch": (lambda f: RingContext(f.tower223, default_action(2, 3), 1),
                           ValueError, "tower and action disagree on p"),
    "context-past-k_max": (lambda f: RingContext(f.tower223, f.action_n2, 4),
                           ValueError, "level 4 not materialized (k_max=3)"),
    "lift-to-another-tower": (_lift_to_another_tower, ContextMismatchError,
                              "lift requires the same tower and action"),
    "lift-to-another-action": (_lift_to_another_action, ContextMismatchError,
                               "lift requires the same tower and action"),
    "lift-to-a-lower-level": (lambda f: f.ctx_n2_k2.one().lift_to(f.ctx_n2_k1),
                              ValueError, "cannot lift to a lower level"),
    "tower-level-past-k_max": (lambda f: f.tower223.level(4),
                               ValueError, "level 4 not materialized (k_max=3)"),
    "tower-level-negative": (lambda f: f.tower223.level(-1),
                             ValueError, "level -1 not materialized (k_max=3)"),
    "tower-p-1": (lambda f: TowerConfig(1, 2, 1).validate(),
                  ValueError, "p must be prime, got 1"),
    "field-order-1": (lambda f: factor_prime_power(1),
                      ValueError, "field order must be >= 2, got 1"),
    "recompose-count": (
        lambda f: recompose([f.ctx_n2_k1.one()], free_basis(f.ctx_n2_k1)),
        ValueError, "expected 4 coordinates, got 1"),
    "standard-polynomial-of-nothing": (lambda f: standard_polynomial([]),
                                       ValueError, "need at least one argument"),
    "laurent-division-by-zero": (
        lambda f: _div(f.ctx_n2_k1.level, f.ctx_n2_k1.add_words, {(0, 0): 1}, {}),
        ZeroDivisionError, "division by the zero polynomial"),
    "fraction-parts-across-contexts": (
        lambda f: CentralFraction(f.ctx_n2_k1, f.ctx_n2_k2.one(), f.ctx_n2_k1.one()),
        ContextMismatchError, "fraction parts must share the context"),
    "fraction-sum-across-levels": (
        lambda f: _fraction(f.ctx_n2_k1) + _fraction(f.ctx_n2_k2),
        ContextMismatchError, "cross-level fraction arithmetic requires lifting both"
        " operands to the larger level first"),
}


@pytest.fixture
def fixtures(tower223, action_n2, ctx_n2_k1, ctx_n2_k2):
    return SimpleNamespace(tower223=tower223, action_n2=action_n2,
                           ctx_n2_k1=ctx_n2_k1, ctx_n2_k2=ctx_n2_k2)


@pytest.mark.parametrize("name", CASES)
def test_a_bad_argument_is_refused_by_name(name, fixtures):
    call, error, message = CASES[name]
    with pytest.raises(error) as exc:
        call(fixtures)
    assert type(exc.value) is error and str(exc.value) == message
