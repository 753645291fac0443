import functools
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistlab.pi
import twistlab.ring
from twistlab.action import default_action
from twistlab.errors import BudgetError, ContextMismatchError
from twistlab.pi import MAX_DEGREE, pi_degree_scan, standard_polynomial
from twistlab.pi import test_identity as run_identity_trials
from twistlab.ring import RingContext, RingElement, _from_codes, _mul_codes
from twistlab.tower import TowerConfig, build_tower


def test_alternating_kills_repeats(ctx_n2_k1):
    rng = random.Random(0)
    for _ in range(50):
        r = ctx_n2_k1.random_element(rng)
        s = ctx_n2_k1.random_element(rng)
        assert standard_polynomial([r, r]).is_zero()
        assert standard_polynomial([r, s, r]).is_zero()
        assert standard_polynomial([s, r, r, s]).is_zero()


def test_degree_two_is_the_commutator(ctx_n2_k1):
    rng = random.Random(1)
    for _ in range(100):
        r = ctx_n2_k1.random_element(rng)
        s = ctx_n2_k1.random_element(rng)
        assert standard_polynomial([r, s]) == r * s - s * r


def test_commutator_witness_x1_theta(ctx_n2_k1):
    # S_2(x1, theta) = (sigma(theta) - theta) x1 = 1 * x1 in the level-1 ring
    x1 = ctx_n2_k1.gen(1)
    theta = ctx_n2_k1.scalar(ctx_n2_k1.theta())
    val = standard_polynomial([x1, theta])
    assert val == x1
    assert not val.is_zero()


def test_transposition_negates(ctx_n2_k1):
    rng = random.Random(2)
    for _ in range(20):
        args = [ctx_n2_k1.random_element(rng, max_terms=2) for _ in range(4)]
        swapped = [args[1], args[0], args[2], args[3]]
        assert standard_polynomial(swapped) == -standard_polynomial(args)


def test_multilinearity_in_each_slot(ctx_n2_k1):
    rng = random.Random(3)
    lvl = ctx_n2_k1.level
    for _ in range(20):
        args = [ctx_n2_k1.random_element(rng, max_terms=2) for _ in range(4)]
        extra = ctx_n2_k1.random_element(rng, max_terms=2)
        a = lvl.from_base(rng.randrange(2))
        b = lvl.from_base(rng.randrange(2))
        slot = rng.randrange(4)
        blended = list(args)
        blended[slot] = a * args[slot] + b * extra
        alt = list(args)
        alt[slot] = extra
        assert standard_polynomial(blended) == a * standard_polynomial(
            args
        ) + b * standard_polynomial(alt)


def test_budget_guards():
    tower = build_tower(TowerConfig(2, 2, 2))
    ctx = RingContext(tower, default_action(1, 2), 1)
    with pytest.raises(BudgetError):
        standard_polynomial([ctx.one()] * 9)
    with pytest.raises(BudgetError):
        run_identity_trials(ctx, 10, 1, seed=0)
    with pytest.raises(ValueError):
        run_identity_trials(ctx, 3, 1, seed=0)


def test_zero_trials_are_refused_not_reported_as_evidence(ctx_n2_k1):
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_identity_trials(ctx_n2_k1, 4, trials, seed=0)


def test_degree_four_vanishes_at_level_one(ctx_n2_k1):
    report = run_identity_trials(ctx_n2_k1, 4, 300, seed=7)
    assert report.vanish_count == report.trials == 300
    assert report.witness is None
    assert report.is_identity_evidence()


def test_degree_two_witness_at_level_one(ctx_n2_k1):
    report = run_identity_trials(ctx_n2_k1, 2, 300, seed=7, stop_on_witness=True)
    assert report.witness is not None
    assert report.vanish_count < report.trials
    assert not report.witness["value"].is_zero()
    # the witness value is reproducible from the recorded elements
    assert standard_polynomial(report.witness["elements"]) == report.witness["value"]


def test_witnesses_at_level_two(ctx_n2_k2):
    for degree, seed in ((4, 11), (6, 13)):
        report = run_identity_trials(
            ctx_n2_k2, degree, 1000, seed=seed, stop_on_witness=True
        )
        assert report.witness is not None, f"degree {degree}"
        assert report.trials <= 1000


def test_report_json_round_trippable(ctx_n2_k1):
    import json

    report = run_identity_trials(ctx_n2_k1, 2, 50, seed=3, stop_on_witness=True)
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    assert json.loads(blob)["degree"] == 2


def test_scan_frontier_is_monotone(ctx_n2_k1, ctx_n2_k2):
    rows = pi_degree_scan([ctx_n2_k1, ctx_n2_k2], trials=60, seed=5, max_degree=6)
    assert rows[0].largest_failing_degree == 2
    assert rows[0].smallest_vanishing_degree == 4
    assert rows[1].largest_failing_degree == 6
    assert rows[1].smallest_vanishing_degree is None
    assert rows[1].untested == (8,)
    frontier = [r.largest_failing_degree for r in rows]
    assert frontier == sorted(frontier)


def test_finitely_generated_subrings_stay_identities(ctx_n2_k1):
    # local-PI evidence: expressions drawn from a finitely generated subring
    # of the level ring still satisfy the level's standard identity
    rng = random.Random(6)
    for _ in range(20):
        gens = [ctx_n2_k1.random_element(rng, max_terms=2) for _ in range(3)]

        def subring_sample():
            out = gens[rng.randrange(3)]
            for _ in range(rng.randrange(3)):
                nxt = gens[rng.randrange(3)]
                out = out * nxt if rng.random() < 0.6 else out + nxt
            return out

        args = [subring_sample() for _ in range(4)]
        assert standard_polynomial(args).is_zero()


def test_every_tested_degree_fails_at_some_level(tower223, action_n2):
    # not-PI evidence: for each even degree up to the budget there is a
    # materialized level with an exact nonzero witness
    levels = {2: 1, 4: 2, 6: 2, 8: 3}
    for degree, k in levels.items():
        ctx = RingContext(tower223, action_n2, k)
        report = run_identity_trials(
            ctx, degree, 20, seed=21, stop_on_witness=True,
            max_terms=1 if degree == 8 else 2,
        )
        assert report.witness is not None, f"degree {degree} at level {k}"
        assert not report.witness["value"].is_zero()


def test_scan_marks_untested_degrees():
    tower = build_tower(TowerConfig(3, 2, 2))
    ctx = RingContext(tower, default_action(1, 3), 2)
    rows = pi_degree_scan([ctx], trials=5, seed=9, max_degree=4)
    # the expected identity threshold 2*p^k = 18 is far beyond the budget
    assert rows[0].untested == (6, 8, 10, 12, 14, 16, 18)
    assert rows[0].smallest_vanishing_degree is None


def test_vanishing_confirmation_runs_every_trial(ctx_n2_k1):
    # no per-degree cap: each degree at or above the threshold runs the
    # trials it was asked for
    (row,) = pi_degree_scan([ctx_n2_k1], trials=30, seed=4, max_degree=8)
    by_degree = {r.degree: r for r in row.reports}
    for degree in (6, 8):
        assert by_degree[degree].trials == by_degree[degree].vanish_count == 30


def test_scan_refuses_an_empty_level_list():
    with pytest.raises(ValueError, match="at least one level"):
        pi_degree_scan([], trials=5, seed=0)


def reference_standard_polynomial(elements):
    """Reference: the subset recurrence on RingElement products and sums."""
    m = len(elements)
    layer = {1 << i: x for i, x in enumerate(elements)}
    for _ in range(m - 1):
        grown = {}
        for rest, value in layer.items():
            for i, x in enumerate(elements):
                bit = 1 << i
                if rest & bit:
                    continue
                term = x * value
                if bin(rest & (bit - 1)).count("1") & 1:
                    term = -term
                prev = grown.get(rest | bit)
                grown[rest | bit] = term if prev is None else prev + term
        layer = grown
    return layer[(1 << m) - 1]


def _permutation_sum(elements):
    """Reference: the signed sum over every ordering, one product each."""
    ctx = elements[0].ctx
    total = RingElement(ctx, {})
    for perm in itertools.permutations(range(len(elements))):
        inversions = sum(
            perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2)
        )
        product = elements[perm[0]]
        for i in perm[1:]:
            product = product * elements[i]
        total = total + (-product if inversions % 2 else product)
    return total


@pytest.mark.parametrize("p,q,k", [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1),
                                   (2, 3, 2)])
def test_standard_polynomial_matches_permutation_sum(p, q, k):
    # (2, 3) is characteristic 3, where the signs do not cancel
    ctx = RingContext(build_tower(TowerConfig(p, q, k)), default_action(2, p), k)
    rng = random.Random(100 * q + k)
    nonzero_beyond_the_commutator = 0
    for m in range(1, 7):
        args = [ctx.random_element(rng, max_terms=2) for _ in range(m)]
        value = standard_polynomial(args)
        expected = _permutation_sum(args)
        assert value == expected, f"degree {m}"
        assert value.to_literal() == expected.to_literal()
        nonzero_beyond_the_commutator += m >= 3 and not value.is_zero()
    assert nonzero_beyond_the_commutator >= 1


def code_recurrence(elements):
    """Oracle: the subset recurrence grown to the full set on {word: code}
    dicts, one kernel call per (subset, new first index); returns the value
    and the term pairs it multiplied."""
    m = len(elements)
    ctx = elements[0].ctx
    neg = ctx.level.neg
    xs = [x.codes for x in elements]
    signed = (xs, [{w: neg(c) for w, c in x.items()} for x in xs])
    layer = {1 << i: x for i, x in enumerate(xs)}
    pairs = 0
    for _ in range(m - 1):
        grown = {}
        for rest, value in layer.items():
            for i in range(m):
                bit = 1 << i
                if not rest & bit:
                    odd = bin(rest & (bit - 1)).count("1") & 1
                    out = grown.setdefault(rest | bit, {})
                    _mul_codes(ctx, signed[odd][i], value, out)
                    pairs += len(xs[i]) * len(value)
        layer = {t: {w: c for w, c in v.items() if c} for t, v in grown.items()}
    return _from_codes(ctx, layer[(1 << m) - 1]), pairs


def kernel_work(elements):
    """standard_polynomial's value with its kernel calls and term pairs."""
    work = {"calls": 0, "pairs": 0}

    def counting(ctx, left, right, out):
        work["calls"] += 1
        work["pairs"] += len(left) * len(right)
        return _mul_codes(ctx, left, right, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twistlab.ring, "_mul_codes", counting)
        value = standard_polynomial(elements)
    return value, work


def test_degree_eight_uses_at_most_m_2_to_the_m_minus_1_products(ctx_n2_k1):
    # one-term arguments: layers 1..4 cost 56 + 168 + 280 calls, and the
    # finish pairs the 70 subsets of size 4 with their complements; the full
    # recurrence makes 8 * 2^7 - 8 = 1,016
    rng = random.Random(8)
    args = [ctx_n2_k1.random_element(rng, max_terms=1) for _ in range(8)]
    value, work = kernel_work(args)
    assert work["calls"] == 574 <= 8 * 2**7
    assert value == code_recurrence(args)[0]


@functools.lru_cache(maxsize=None)
def _oracle_context(p, q, k):
    return RingContext(build_tower(TowerConfig(p, q, k)), default_action(2, p), k)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_finish_matches_the_full_recurrence_with_no_more_term_pairs(data):
    ctx = _oracle_context(*data.draw(st.sampled_from(
        [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)])))
    m = data.draw(st.integers(1, 8))
    word = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    code = st.integers(1, ctx.level.order - 1).map(ctx.level.from_code)
    terms = st.dictionaries(word, code, min_size=1, max_size=6)
    args = data.draw(st.lists(terms.map(lambda t: RingElement(ctx, t)),
                              min_size=m, max_size=m))
    if data.draw(st.booleans()):
        args[data.draw(st.integers(0, m - 1))] = ctx.zero()
    if m >= 2 and data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(m)))[:2]
        args[j] = args[i]
    value, work = kernel_work(args)
    expected, pairs = code_recurrence(args)
    assert value.to_literal() == expected.to_literal()
    assert work["pairs"] <= pairs


def test_wide_arguments_keep_the_full_recurrence(ctx_n2_k2):
    # S_4 on 10-term arguments: the pairs S(A) S(A^c) over |A| = 2 cost more
    # than a third layer, so the finish waits for size 3, which is the
    # recurrence's own last step
    rng = random.Random(10)
    args = [ctx_n2_k2.random_element(rng, min_terms=10, max_terms=10)
            for _ in range(4)]
    value, work = kernel_work(args)
    expected, pairs = code_recurrence(args)
    assert value.to_literal() == expected.to_literal()
    assert work == {"calls": 4 * 2**3 - 4, "pairs": pairs}


def test_sparse_arguments_finish_at_half_the_degree(ctx_n2_k2):
    # S_6 on 1-2 term arguments, as in the benchmark's level-2 trials: layers
    # 1..2 cost 30 + 60 calls, and the finish pairs the 20 subsets of size 3
    rng = random.Random(6)
    args = [ctx_n2_k2.random_element(rng, max_terms=2) for _ in range(6)]
    value, work = kernel_work(args)
    expected, pairs = code_recurrence(args)
    assert value.to_literal() == expected.to_literal()
    assert not value.is_zero()
    assert work["calls"] == 30 + 60 + 20
    assert work["pairs"] < pairs


@pytest.mark.parametrize("p,q,k", [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1),
                                   (2, 3, 2), (3, 2, 1), (3, 2, 2)])
def test_code_recurrence_matches_ring_element_recurrence(p, q, k):
    ctx = RingContext(build_tower(TowerConfig(p, q, k)), default_action(2, p), k)
    rng = random.Random(f"pi-oracle-{p}-{q}-{k}")
    for m in range(1, 7):
        # plain, with a zero argument, with a repeated argument
        for shape in ("plain", "zero", "repeat")[: 3 if m >= 2 else 2]:
            args = [ctx.random_element(rng, max_terms=2) for _ in range(m)]
            if shape == "zero":
                args[rng.randrange(m)] = ctx.zero()
            elif shape == "repeat":
                i, j = rng.sample(range(m), 2)
                args[j] = args[i]
            value = standard_polynomial(args)
            expected = reference_standard_polynomial(args)
            assert value.to_literal() == expected.to_literal(), (m, shape)
            assert shape == "plain" or value.is_zero()


def test_mixed_contexts_are_refused(ctx_n2_k1, ctx_n2_k2, ctx_n1_k1):
    rng = random.Random(9)
    args = [ctx_n2_k1.random_element(rng) for _ in range(4)]
    for other in (ctx_n2_k2, ctx_n1_k1):
        for slot in (0, 3):
            mixed = list(args)
            mixed[slot] = other.one()
            with pytest.raises(ContextMismatchError):
                standard_polynomial(mixed)
    # also when every argument is zero, so no product would ever see them
    with pytest.raises(ContextMismatchError):
        standard_polynomial([ctx_n2_k1.zero(), ctx_n2_k2.zero()])


def test_degree_eight_makes_at_most_m_2_to_the_m_minus_1_kernel_calls(
    ctx_n2_k2, monkeypatch, field_op_counts
):
    rng = random.Random(8)
    args = [ctx_n2_k2.random_element(rng, max_terms=2) for _ in range(8)]
    counts = {"kernel": 0, "ring_mul": 0}
    kernel, ring_mul = twistlab.ring._mul_codes, RingElement.__mul__

    def counting_kernel(*a):
        counts["kernel"] += 1
        return kernel(*a)

    def counting_ring_mul(self, other):
        counts["ring_mul"] += 1
        return ring_mul(self, other)

    monkeypatch.setattr(twistlab.ring, "_mul_codes", counting_kernel)
    monkeypatch.setattr(RingElement, "__mul__", counting_ring_mul)
    field_op_counts.clear()
    value = standard_polynomial(args)
    assert 0 < counts["kernel"] <= 8 * 2**7
    assert counts["ring_mul"] == 0
    assert dict(field_op_counts) == {}
    monkeypatch.undo()
    assert value == reference_standard_polynomial(args)


def finishing_recurrence(elements):
    """Oracle: the subset recurrence with its finish, on bitmask-keyed dicts,
    as a plain loop; returns the value, the (|left|, |right|) of every kernel
    call in order and the size at which it finished."""
    m, ctx = len(elements), elements[0].ctx
    neg, full, xs = ctx.level.neg, (1 << m) - 1, [x.codes for x in elements]
    signed = (xs, [{w: neg(c) for w, c in x.items()} for x in xs])
    low, layer, calls = {}, {1 << i: x for i, x in enumerate(xs)}, []

    def multiply(left, right, out):
        calls.append((len(left), len(right)))
        _mul_codes(ctx, left, right, out)

    for size in range(1, m):
        if 2 * size <= m:
            low[size] = layer
        if 2 * size >= m:
            finish = sum(len(v) * len(layer[full ^ a]) for a, v in low[m - size].items())
            grow = sum(len(v) * len(xs[i]) for t, v in layer.items()
                       for i in range(m) if not t >> i & 1)
            if finish <= grow:
                out = {}
                for a, lhs in low[m - size].items():
                    # a in A before i in A^c is one inversion for each i < a
                    if sum(bin(a >> i).count("1") for i in range(m) if not a >> i & 1) & 1:
                        lhs = {w: neg(c) for w, c in lhs.items()}
                    multiply(lhs, layer[full ^ a], out)
                return _from_codes(ctx, out), calls, size
        grown = {}
        for rest, value in layer.items():
            for i in range(m):
                if not rest >> i & 1:
                    odd = bin(rest & ((1 << i) - 1)).count("1") & 1
                    multiply(signed[odd][i], value, grown.setdefault(rest | 1 << i, {}))
        layer = {t: {w: c for w, c in v.items() if c} for t, v in grown.items()}


def test_every_kernel_call_keeps_its_operands_and_its_order(ctx_n2_k1, ctx_n2_k2):
    # mixed term counts: sparse tuples finish at half the degree, wide ones
    # grow to the last size; a skipped, added or reordered product fails
    rng = random.Random(33)
    finished_at = set()
    for ctx in (ctx_n2_k1, ctx_n2_k2):
        for m in range(2, MAX_DEGREE + 1):
            for sizes in ([1 + i % 3 for i in range(m)], [1] * m, [6] * min(m, 5)):
                args = [ctx.random_element(rng, min_terms=t, max_terms=t) for t in sizes]
                calls = []

                def recording(c, left, right, out):
                    calls.append((len(left), len(right)))
                    return _mul_codes(c, left, right, out)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(twistlab.ring, "_mul_codes", recording)
                    value = standard_polynomial(args)
                expected, expected_calls, size = finishing_recurrence(args)
                assert calls == expected_calls, (ctx.k, sizes)
                assert list(value.codes.items()) == list(expected.codes.items())
                finished_at.add(size < len(args) - 1)
    assert finished_at == {True, False}


def test_the_subset_plan_is_built_once_per_degree(ctx_n2_k1):
    plan = twistlab.pi._subset_plan
    plan.cache_clear()
    rng = random.Random(34)
    for _ in range(3):
        for m in range(1, MAX_DEGREE + 1):
            standard_polynomial([ctx_n2_k1.random_element(rng, max_terms=1)
                                 for _ in range(m)])
    assert plan.cache_info().misses == MAX_DEGREE - 1  # m = 1 needs no plan
    assert plan.cache_info().currsize == MAX_DEGREE - 1


def test_the_subset_plan_is_stored_compactly():
    m = MAX_DEGREE
    steps, finishes = twistlab.pi._subset_plan(m)
    assert sum(len(src) for src, _, _, _ in steps) <= m * 2 ** (m - 1)
    arrays = [a for step in steps for a in step[:3]] + [a for f in finishes.values() for a in f]
    assert {getattr(a, "typecode", "bytes") for a in arrays} <= {"H", "B", "bytes"}
    assert sum(map(sys.getsizeof, arrays)) < 16_000
