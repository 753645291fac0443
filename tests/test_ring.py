import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab.action import (
    EXPONENT_HORIZON,
    ActionConfig,
    PAdicExponent,
    action_exponent,
    default_action,
)
from twistlab import ring
from twistlab.center import kernel_lattice
from twistlab.errors import ContextMismatchError, NotAUnitError
from twistlab.pi import standard_polynomial
from twistlab.quotient import CentralFraction, invert
from twistlab.ring import (
    RingContext,
    RingElement,
    exponent_form,
    parse_element,
    product_kernel,
    word_adder,
)
from twistlab.simplicity import unit_in_ideal
from twistlab.tower import TowerConfig, build_tower, tower_from_json, tower_to_json


def reference_mul(a, b):
    """Product by one FieldElement multiply and Frobenius per term pair."""
    ctx = a.ctx
    out = {}
    for g, c in a.terms.items():
        e = ctx.word_exponent(g)
        for h, d in b.terms.items():
            w = tuple(x + y for x, y in zip(g, h))
            val = c * ctx.level.frobenius(d, e)
            out[w] = out[w] + val if w in out else val
    return RingElement(ctx, out)


def reference_add(a, b, sign=1):
    """a + sign * b by one FieldElement add (and negation) per shared word."""
    out = dict(a.terms)
    for w, c in b.terms.items():
        c = c if sign > 0 else -c
        out[w] = out[w] + c if w in out else c
    return RingElement(a.ctx, out)


def test_twisted_monomial_rule(ctx_n2_k1):
    # x1 * omega = omega^2 * x1 = (omega + 1) * x1 in the level-1 ring
    x1 = ctx_n2_k1.gen(1)
    omega = ctx_n2_k1.theta()
    lhs = x1 * ctx_n2_k1.scalar(omega)
    expect = ctx_n2_k1.monomial(omega * omega, (1, 0))
    assert lhs == expect
    assert lhs == ctx_n2_k1.monomial(omega + ctx_n2_k1.level.one(), (1, 0))


def test_one_is_neutral(ctx_n2_k1):
    rng = random.Random(0)
    one = ctx_n2_k1.one()
    for _ in range(50):
        s = ctx_n2_k1.random_element(rng)
        assert one * s == s
        assert s * one == s


def test_group_words_commute(ctx_n2_k1):
    x1, x2 = ctx_n2_k1.gens()
    assert x1 * x2 == x2 * x1
    assert (x1 * x2).support() == ((1, 1),)


def test_addition_prunes_zeros(ctx_n2_k1):
    x1 = ctx_n2_k1.gen(1)
    omega = ctx_n2_k1.theta()
    r = ctx_n2_k1.monomial(omega, (1, 0))
    assert (r + (-r)).is_zero()
    two_terms = ctx_n2_k1.one() + x1
    assert len(two_terms.terms) == 2
    assert (r + ctx_n2_k1.zero()) == r


def test_homogeneity_and_grading(ctx_n2_k1):
    x1 = ctx_n2_k1.gen(1)
    omega = ctx_n2_k1.theta()
    assert ctx_n2_k1.zero().is_homogeneous()
    r = ctx_n2_k1.monomial(omega, (0, 1)) + x1
    assert not r.is_homogeneous()


def test_invert_unit_examples(ctx_n2_k1):
    one = ctx_n2_k1.one()
    assert one.invert_unit() == one
    x1 = ctx_n2_k1.gen(1)
    assert x1.invert_unit() == ctx_n2_k1.monomial(1, (-1, 0))
    # omega * x1: inverse must be sigma^(-1)(omega^(-1)) on the word -e1
    omega = ctx_n2_k1.theta()
    r = ctx_n2_k1.monomial(omega, (1, 0))
    inv = r.invert_unit()
    assert r * inv == one and inv * r == one
    # hand computation in GF(4): omega^(-1) = omega + 1, sigma^(-1) = sigma
    lvl = ctx_n2_k1.level
    expect_coeff = lvl.frobenius(omega.inverse(), -1)
    assert inv == ctx_n2_k1.monomial(expect_coeff, (-1, 0))


def test_inhomogeneous_elements_are_not_units(ctx_n2_k1):
    with pytest.raises(NotAUnitError):
        ctx_n2_k1.zero().invert_unit()
    with pytest.raises(NotAUnitError):
        (ctx_n2_k1.one() + ctx_n2_k1.gen(1)).invert_unit()


def test_graded_division_fuzz(ctx_n2_k1):
    rng = random.Random(1)
    one = ctx_n2_k1.one()
    for _ in range(2000):
        hom = ctx_n2_k1.random_element(rng, max_terms=1)
        assert hom * hom.invert_unit() == one
        inhom = ctx_n2_k1.random_element(rng, min_terms=2)
        other = ctx_n2_k1.random_element(rng, min_terms=2)
        assert inhom * other != one


def test_leading_term_examples(ctx_n2_k1):
    omega = ctx_n2_k1.theta()
    r = ctx_n2_k1.monomial(omega, (1, 0)) + ctx_n2_k1.one()
    assert r.leading_term() == ((1, 0), omega)
    with pytest.raises(ValueError):
        ctx_n2_k1.zero().leading_term()
    # a different total order flips the answer
    assert r.leading_term(key=lambda w: tuple(-a for a in w))[0] == (0, 0)


def test_leading_term_of_product_is_product_of_leading_terms(ctx_n2_k1):
    rng = random.Random(2)
    for _ in range(100):
        r = ctx_n2_k1.random_element(rng)
        s = ctx_n2_k1.random_element(rng)
        gw, gc = r.leading_term()
        hw, hc = s.leading_term()
        prod = r * s
        assert not prod.is_zero()  # no zero divisors
        lw, lc = prod.leading_term()
        assert lw == tuple(a + b for a, b in zip(gw, hw))
        assert lc == gc * ctx_n2_k1.level.frobenius(hc, ctx_n2_k1.word_exponent(gw))


def test_ring_axioms_fuzz(ctx_n2_k1, ctx_n2_k2):
    rng = random.Random(3)
    for ctx in (ctx_n2_k1, ctx_n2_k2):
        for _ in range(10_000):
            r = ctx.random_element(rng, max_terms=2)
            s = ctx.random_element(rng, max_terms=2)
            t = ctx.random_element(rng, max_terms=2)
            assert (r * s) * t == r * (s * t)
            assert r * (s + t) == r * s + r * t
            assert (s + t) * r == s * r + t * r


def test_commutation_rule_against_all_generators(ctx_n2_k2):
    from twistlab.action import truncate

    ctx = ctx_n2_k2
    theta = ctx.theta()
    for i in (1, 2):
        e = truncate(ctx.action.exponents[i - 1], 2, ctx.k)
        x = ctx.gen(i)
        assert x * ctx.scalar(theta) == ctx.level.frobenius(theta, e) * x


def test_level_embedding_is_ring_hom(ctx_n2_k1, ctx_n2_k2):
    rng = random.Random(4)
    for _ in range(300):
        r = ctx_n2_k1.random_element(rng)
        s = ctx_n2_k1.random_element(rng)
        assert (r * s).lift_to(ctx_n2_k2) == r.lift_to(ctx_n2_k2) * s.lift_to(
            ctx_n2_k2
        )
        assert (r + s).lift_to(ctx_n2_k2) == r.lift_to(ctx_n2_k2) + s.lift_to(
            ctx_n2_k2
        )


def test_context_holds_no_per_word_state(tower223, action_n2, container_sizes):
    ctx = RingContext(tower223, action_n2, 2)
    before = container_sizes(ctx)
    big = RingElement(ctx, {(i, j): 1 for i in range(-50, 50) for j in range(100)})
    theta = ctx.level.generator_code()
    prod = big * ctx.scalar(ctx.theta())  # 10,000 distinct left words
    assert prod.codes == {w: ctx.level.frob_code(theta, action_exponent(action_n2, w, 2))
                          for w in big.codes}
    assert container_sizes(ctx) == before


class _BoundedRandom(random.Random):
    """Fails instead of hanging once a sampler has drawn far too often."""

    def randint(self, a, b):
        self.draws = getattr(self, "draws", 0) + 1
        if self.draws > 10_000:
            raise RuntimeError("the sampler does not terminate")
        return super().randint(a, b)


def test_random_element_refuses_more_terms_than_its_box(ctx_n2_k1):
    # coord_bound 0 leaves one word, the identity
    for min_terms in (0, 2):
        with pytest.raises(ValueError, match="min_terms must lie in"):
            ctx_n2_k1.random_element(_BoundedRandom(1), max_terms=2,
                                     min_terms=min_terms, coord_bound=0)
    for seed in range(20):  # max_terms is capped at the box
        r = ctx_n2_k1.random_element(_BoundedRandom(seed), max_terms=3, coord_bound=0)
        assert r.support() == ((0, 0),)
    r = ctx_n2_k1.random_element(_BoundedRandom(1), max_terms=9, min_terms=9,
                                 coord_bound=1)
    assert len(r.codes) == 9


def test_words_of_another_rank_are_refused(ctx_n2_k1):
    # products read words through zip-like maps, which would cut them short
    for word in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="every word must have length 2"):
            RingElement(ctx_n2_k1, {word: 1})


def test_context_mismatch_raises(ctx_n2_k1, ctx_n1_k1):
    with pytest.raises(ContextMismatchError):
        ctx_n2_k1.one() + ctx_n1_k1.one()


def test_scalar_sides_differ(ctx_n2_k1):
    # left multiplication by a field scalar never twists; right does
    omega = ctx_n2_k1.theta()
    x1 = ctx_n2_k1.gen(1)
    left = omega * x1
    right = x1 * ctx_n2_k1.scalar(omega)
    assert left == ctx_n2_k1.monomial(omega, (1, 0))
    assert left != right


def test_power_and_negative_power(ctx_n2_k1):
    x1 = ctx_n2_k1.gen(1)
    assert x1**3 == ctx_n2_k1.monomial(1, (3, 0))
    assert x1**-2 == ctx_n2_k1.monomial(1, (-2, 0))
    assert (x1**0) == ctx_n2_k1.one()


def test_literal_spec_example(ctx_n2_k1):
    r = parse_element(ctx_n2_k1, "(t+1)*x1^2*x2^-1 + 1")
    omega = ctx_n2_k1.theta()
    expect = ctx_n2_k1.monomial(
        omega + ctx_n2_k1.level.one(), (2, -1)
    ) + ctx_n2_k1.one()
    assert r == expect


def test_literal_generator_powers_are_monomials(ctx_n2_k1, monkeypatch):
    for e in range(-6, 7):
        assert parse_element(ctx_n2_k1, f"x2^{e}") == ctx_n2_k1.gen(2) ** e
    calls = []
    mul = RingElement.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    assert parse_element(ctx_n2_k1, "x1^-7*x2^5") == ctx_n2_k1.monomial(1, (-7, 5))
    assert len(calls) <= 1


def test_literal_round_trip_fuzz(ctx_n2_k1, ctx_n2_k2):
    rng = random.Random(5)
    for ctx in (ctx_n2_k1, ctx_n2_k2):
        for _ in range(300):
            r = ctx.random_element(rng)
            assert parse_element(ctx, r.to_literal()) == r
    assert parse_element(ctx_n2_k1, "0").is_zero()


def test_literal_errors(ctx_n2_k1):
    for bad in ("x3", "t^", "2 +", "(1", "x1^^2", "y1", "5*x1"):
        with pytest.raises(ValueError):
            parse_element(ctx_n2_k1, bad)


def test_degenerate_level_zero_ring(tower223, action_n2):
    ctx0 = RingContext(tower223, action_n2, 0)
    x1, x2 = ctx0.gens()
    omega_free = x1 * x2 + x2 * x1
    assert omega_free == 2 * (x1 * x2)  # commutative: S_0 is a plain group ring
    rng = random.Random(6)
    for _ in range(100):
        r = ctx0.random_element(rng)
        s = ctx0.random_element(rng)
        assert r * s == s * r


@pytest.mark.parametrize("q,levels", [(2, range(4)), (3, range(3))])
def test_code_product_matches_field_element_reference(tower223, q, levels):
    tower = tower223 if q == 2 else build_tower(TowerConfig(2, q, 2))
    rng = random.Random(f"ring-oracle-{q}")
    for n in (1, 2):
        action = default_action(n, 2)
        for k in levels:
            ctx = RingContext(tower, action, k)
            for _ in range(40):
                a = ctx.random_element(rng, max_terms=3, coord_bound=1)
                b = ctx.random_element(rng, max_terms=3, coord_bound=1)
                assert a * b == reference_mul(a, b)
            # x1 - x1 cancels in (1 + x1)(1 - x1) in every characteristic
            one, x1 = ctx.one(), ctx.gen(1)
            prod = (one + x1) * (one - x1)
            assert prod == reference_mul(one + x1, one - x1) == one - x1 * x1
            assert (1,) + (0,) * (n - 1) not in prod.terms


def test_product_makes_no_field_element_per_term_pair(ctx_n2_k2, field_op_counts):
    a = parse_element(ctx_n2_k2, "t + (t^2 + 1)*x1 + t^3*x2^-1")
    b = parse_element(ctx_n2_k2, "1 + t*x1^-1 + (t + 1)*x1*x2")
    field_op_counts.clear()
    prod = a * b
    assert dict(field_op_counts) == {}
    assert prod == reference_mul(a, b)


def test_coefficient_from_another_level_is_refused(tower223, action_n2):
    ctx2 = RingContext(tower223, action_n2, 2)
    low, high = tower223.level(1).generator(), tower223.level(3).generator()
    r = ctx2.one() + ctx2.gen(1)
    for c in (low, high):
        with pytest.raises(ValueError, match="different levels"):
            ctx2.monomial(c, (1, 0))
        with pytest.raises(ValueError, match="different levels"):
            ctx2.scalar(c)
        with pytest.raises(ValueError, match="different levels"):
            r * c
        with pytest.raises(ValueError, match="different levels"):
            c * r
    # the embedded coefficient is the one that belongs here
    theta1 = tower223.embed(low, 2)
    assert r * theta1 == r * ctx2.scalar(theta1) == reference_mul(r, ctx2.scalar(theta1))


def test_constructor_refuses_coefficient_from_another_level(tower223, action_n2):
    ctx2 = RingContext(tower223, action_n2, 2)
    for m in (1, 3):
        with pytest.raises(ValueError, match="different levels"):
            RingElement(ctx2, {(1, 0): tower223.level(m).generator()})
    theta2 = tower223.embed(tower223.level(1).generator(), 2)
    assert RingElement(ctx2, {(1, 0): theta2}) == ctx2.monomial(theta2, (1, 0))


def test_arithmetic_makes_no_field_element(ctx_n2_k2, field_op_counts):
    a = parse_element(ctx_n2_k2, "t + (t^2 + 1)*x1 + t^3*x2^-1")
    b = parse_element(ctx_n2_k2, "1 + t*x1^-1 + (t + 1)*x1*x2")
    c, d = ctx_n2_k2.theta(), parse_element(ctx_n2_k2, "x1 + t*x2 + (t^3 + t)*x1^-1")
    ops = {
        "a + b": lambda: a + b, "a - b": lambda: a - b, "-a": lambda: -a,
        "a * b": lambda: a * b, "c * a": lambda: c * a,
        "standard_polynomial": lambda: standard_polynomial([a, b, d, a + d]),
    }
    for name, op in ops.items():
        field_op_counts.clear()
        op()
        assert field_op_counts["init"] == 0, name


def test_coefficient_from_an_equal_level_is_accepted(tower223, action_n2):
    # a tower read from JSON has equal, not identical, levels
    copy = tower_from_json(tower_to_json(tower223))
    ctx = RingContext(tower223, action_n2, 2)
    theta = copy.level(2).generator()
    assert theta.level is not ctx.level
    assert ctx.scalar(theta) == ctx.scalar(ctx.theta())
    assert theta * ctx.gen(1) == ctx.monomial(ctx.theta(), (1, 0))


def test_integer_coefficients_read_in_the_prime_field():
    ctx = RingContext(build_tower(TowerConfig(2, 3, 1)), default_action(1, 2), 1)
    x1 = ctx.gen(1)
    assert ctx.monomial(4, (1,)) == x1 == 4 * x1 == x1 * 4
    assert ctx.monomial(3, (1,)).is_zero() and (x1 * 3).is_zero()
    assert 2 * x1 == x1 + x1 == -x1


def test_subtraction_builds_no_negation(ctx_n2_k2, monkeypatch):
    a = parse_element(ctx_n2_k2, "t + x1 + t^3*x2^-1")
    b = parse_element(ctx_n2_k2, "t + (t + 1)*x1*x2")
    calls = []
    neg = RingElement.__neg__
    monkeypatch.setattr(RingElement, "__neg__", lambda r: calls.append(1) or neg(r))
    assert a - b == reference_add(a, b, -1)
    assert calls == []


# Ring axioms on every level the code-level arithmetic serves, with an
# independent FieldElement oracle for products and sums.
AXIOM_CONTEXTS = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1), (2, 3, 2),
                  (3, 2, 1), (3, 2, 2)]


@functools.lru_cache(maxsize=None)
def _axiom_context(p, q, k):
    return RingContext(build_tower(TowerConfig(p, q, 3 if (p, q) == (2, 2) else 2)),
                       default_action(2, p), k)


def _elements(ctx, count):
    word = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    code = st.integers(0, ctx.level.order - 1).map(ctx.level.from_code)
    terms = st.dictionaries(word, code, max_size=3)
    return st.lists(terms.map(lambda t: RingElement(ctx, t)),
                    min_size=count, max_size=count)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_axioms_hold_on_codes(data):
    ctx = _axiom_context(*data.draw(st.sampled_from(AXIOM_CONTEXTS)))
    a, b, c = data.draw(_elements(ctx, 3))
    coeff = ctx.level.from_code(data.draw(st.integers(0, ctx.level.order - 1)))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == reference_mul(a, b)
    assert a + b == reference_add(a, b)
    assert a - b == a + (-b) == reference_add(a, b, -1)
    assert (a - a).is_zero() and -(-a) == a
    assert 0 + a == a == sum([a]) and sum([a, b, c]) == (a + b) + c
    assert coeff * a == ctx.scalar(coeff) * a
    assert a * coeff == a * ctx.scalar(coeff)


# Lifts from level j to level k: every pair up to level 3 of (2, 2), and to
# level 2 of (2, 3) and (3, 2).
LIFTS = [(2, 2, j, k) for k in (1, 2, 3) for j in range(k)] + [
    (p, q, j, 2) for p, q in ((2, 3), (3, 2)) for j in (0, 1)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lift_is_a_ring_hom_agreeing_with_the_field_embedding(data):
    p, q, j, k = data.draw(st.sampled_from(LIFTS))
    ctx = _axiom_context(p, q, j)
    up = ctx.lift_level(k)
    a, b = data.draw(_elements(ctx, 2))
    assert (a * b).lift_to(up) == a.lift_to(up) * b.lift_to(up)
    assert (a + b).lift_to(up) == a.lift_to(up) + b.lift_to(up)
    embed = ctx.tower.embed
    assert a.lift_to(up).terms == {w: embed(c, k) for w, c in a.terms.items()}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_word_exponent_is_the_action_exponent(data):
    ctx = _axiom_context(*data.draw(st.sampled_from(AXIOM_CONTEXTS)))
    coord = st.integers(-10**6, 10**6)
    word = data.draw(st.tuples(coord, coord))
    assert ctx.word_exponent(word) == action_exponent(ctx.action, word, ctx.k)


def test_word_exponent_refuses_words_of_the_wrong_length(ctx_n2_k1):
    for word in ((1,), (1, 0, 5)):
        with pytest.raises(ValueError, match=f"word has length {len(word)}, expected 2"):
            ctx_n2_k1.word_exponent(word)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_word_arithmetic_matches_map_and_action_exponent(data):
    n = data.draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8)))
    p = data.draw(st.sampled_from((2, 3, 5)))
    k = data.draw(st.integers(0, EXPONENT_HORIZON))
    positions = st.frozensets(st.integers(0, EXPONENT_HORIZON - 1), max_size=4)
    action = ActionConfig(n, p, [PAdicExponent.one()] + [
        PAdicExponent(data.draw(positions)) for _ in range(n - 1)])
    coord = st.integers(-10**6, 10**6)
    g, h = (data.draw(st.tuples(*[coord] * n)) for _ in range(2))
    assert word_adder(n)(g, h) == tuple(map(operator.add, g, h))
    assert exponent_form(action.truncations(k), p**k)(g) == action_exponent(action, g, k)


class _FormattedInt(int):
    def __format__(self, spec):
        return "1 + 1"


@pytest.mark.parametrize("bad", [2.0, True, "2", _FormattedInt(2)])
def test_compiled_word_arithmetic_takes_only_ints(bad, tower223, monkeypatch):
    compiled = []
    monkeypatch.setattr(ring, "_straight_line", lambda *a, **kw: compiled.append(a))
    level = tower223.level(3)
    refused = [lambda: word_adder(bad), lambda: exponent_form((1, bad), 8),
               lambda: exponent_form((1, 2), bad),
               # the kernel's rank, truncations and modulus
               lambda: product_kernel(level, bad, (1, 2), 8),
               lambda: product_kernel(level, 2, (1, bad), 8),
               lambda: product_kernel(level, 2, (1, 2), bad),
               lambda: product_kernel(level, bad)]
    for make in refused:
        with pytest.raises(TypeError, match="only ints"):
            make()
    assert compiled == []


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("k", [0, 3])
def test_product_kernel_matches_the_reference_at_every_rank(tower223, n, k):
    # level 0 acts trivially, so its kernel compiles with the zero twist
    ctx = RingContext(tower223, default_action(n, 2), k)
    rng = random.Random(10 * n + k)
    for _ in range(30):
        a, b = (ctx.random_element(rng, max_terms=4, coord_bound=1) for _ in range(2))
        assert a * b == reference_mul(a, b)


def test_one_patch_of_the_kernel_reaches_every_caller(ctx_n2_k1, monkeypatch):
    # ring products, standard polynomials, unit checks and inversions all
    # multiply through ring._mul_codes, read from the module at each call
    calls, kernel = [], ring._mul_codes
    monkeypatch.setattr(ring, "_mul_codes", lambda *a: calls.append(a) or kernel(*a))
    x, y = ctx_n2_k1.gen(2), ctx_n2_k1.one() + ctx_n2_k1.gen(1)
    fraction = CentralFraction(ctx_n2_k1, y, ctx_n2_k1.one(),
                               lattice=kernel_lattice(ctx_n2_k1))
    for run in (lambda: x * y, lambda: standard_polynomial([x, y]),
                lambda: unit_in_ideal(y), lambda: invert(fraction)):
        calls.clear()
        run()
        assert calls


def test_a_context_with_a_compiled_source_compiles_nothing(monkeypatch):
    # (n, t_i, p^k) fix the kernel's source text; each context binds its own
    # level's tables to the code compiled for the first
    action = default_action(2, 2)
    first = RingContext(build_tower(TowerConfig(2, 2, 2)), action, 2)
    compiled = []

    def counting_compile(source, *a):
        compiled.append(source)
        return compile(source, *a)

    def counting_exec(code, *a):
        if isinstance(code, str):  # exec of source text compiles it
            compiled.append(code)
        return exec(code, *a)

    monkeypatch.setattr(ring, "compile", counting_compile, raising=False)
    monkeypatch.setattr(ring, "exec", counting_exec, raising=False)
    second = RingContext(first.tower, action, 2)
    char3 = RingContext(build_tower(TowerConfig(2, 3, 2)), action, 2)  # over GF(3^4)
    monkeypatch.undo()
    assert compiled == []
    assert second._product is not first._product
    rng = random.Random(35)
    for _ in range(50):
        a, b = first.random_element(rng), first.random_element(rng)
        assert second._product(a.codes, b.codes, {}) == first._product(a.codes, b.codes, {})
        (g, c), = char3.random_element(rng, max_terms=1).codes.items()
        (h, d), = char3.random_element(rng, max_terms=1).codes.items()
        twisted = char3.level.mul(c, char3.level.frob_code(d, char3.word_exponent(g)))
        assert char3._product({g: c}, {h: d}, {}) == {char3.add_words(g, h): twisted}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_literal_and_terms_round_trip(data):
    ctx = _axiom_context(*data.draw(st.sampled_from(AXIOM_CONTEXTS)))
    word = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    code = st.integers(1, ctx.level.order - 1).map(ctx.level.from_code)
    r = RingElement(ctx, data.draw(st.dictionaries(word, code, max_size=4)))
    assert parse_element(ctx, r.to_literal()) == r
    assert RingElement(ctx, r.terms) == r
