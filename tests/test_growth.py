import random
from itertools import product

import pytest

from twistlab.action import default_action
from twistlab.cli import main
from twistlab.errors import ContextMismatchError
from twistlab.growth import GrowthTable, gk_estimate, growth_table
from twistlab.ring import RingContext
from twistlab.tower import TowerConfig, build_tower


class _CoordRowSpace:
    """Echelon basis on coordinate tuples, reduced entry by entry (the
    reference for growth_table's per-word spaces of codes)."""

    def __init__(self, field, dim):
        self.field, self.dim = field, dim
        self.rows, self.pivots = [], []

    def insert(self, vec) -> bool:
        F = self.field
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                vec = [F.sub(a, F.mul(c, b)) for a, b in zip(vec, row)]
        piv = next((i for i, v in enumerate(vec) if v), None)
        if piv is None:
            return False
        inv = F.inv(vec[piv])
        self.rows.append([F.mul(inv, v) for v in vec])
        self.pivots.append(piv)
        return True

    def full(self) -> bool:
        return len(self.rows) == self.dim


def reference_growth_table(ctx, generators, n_max, max_vectors=500_000):
    """growth_table with one FieldElement product, one Frobenius and one
    coordinate expansion per term pair."""
    gen_set = [ctx.one()] + [g for g in generators if not g.is_zero()]
    deg = ctx.level.degree
    zero_word = (0,) * ctx.n
    spaces = {zero_word: _CoordRowSpace(ctx.level.base, deg)}
    spaces[zero_word].insert(ctx.level.one().coords)
    frontier = [(zero_word, ctx.level.one())]
    rows, truncated_at, total = [1], None, 1
    for step in range(1, n_max + 1):
        new_entries = []
        for word, coeff in frontier:
            e = ctx.word_exponent(word)
            for g in gen_set[1:]:
                for h, d in g.terms.items():
                    w = tuple(a + b for a, b in zip(word, h))
                    val = coeff * ctx.level.frobenius(d, e)
                    space = spaces.setdefault(w, _CoordRowSpace(ctx.level.base, deg))
                    if not val.is_zero() and not space.full() and space.insert(val.coords):
                        new_entries.append((w, val))
                        total += 1
        frontier = new_entries
        rows.append(rows[-1] + len(new_entries))
        if total > max_vectors:
            truncated_at = step
            break
    return GrowthTable(generators=gen_set, rows=rows, n_max=len(rows) - 1,
                       truncated_at=truncated_at)


def global_span_rows(ctx, generators, n_max):
    """dim span(products of length <= N), N = 0..n_max, from ring products and
    one echelon over GF(q) keyed by (word, coordinate): no per-word split, so
    it is exact for generators of any number of terms."""
    F = ctx.level.base
    pivots = {}  # key -> row whose largest key it is, with coefficient 1 there

    def insert(element):
        vec = {(w, i): d for w, c in element.terms.items()
               for i, d in enumerate(c.coords) if d}
        while vec:
            key = max(vec)
            row = pivots.get(key)
            if row is None:
                inv = F.inv(vec[key])
                pivots[key] = {kk: F.mul(inv, d) for kk, d in vec.items()}
                return True
            c = vec[key]
            for kk, d in row.items():
                v = F.sub(vec.get(kk, 0), F.mul(c, d))
                if v:
                    vec[kk] = v
                else:
                    del vec[kk]
        return False

    gens = [g for g in generators if not g.is_zero()]
    insert(ctx.one())
    rows, new = [1], [ctx.one()]
    for _ in range(n_max):
        # span(V^N * V) = V^N + (the products added last) * V, as 1 is in V
        new = [b for b in (a * g for a in new for g in gens) if insert(b)]
        rows.append(len(pivots))
    return rows


def l1_ball(n, radius):
    return sum(
        1
        for w in product(range(-radius, radius + 1), repeat=n)
        if sum(abs(a) for a in w) <= radius
    )


def test_field_generator_stabilizes(ctx_n2_k1):
    theta = ctx_n2_k1.scalar(ctx_n2_k1.theta())
    table = growth_table(ctx_n2_k1, [theta], n_max=12)
    assert table.rows == [1, 2] + [2] * 11
    assert float(gk_estimate(table)) == 0.0


def test_bare_laurent_generators_grow_linearly(ctx_n1_k1):
    g = ctx_n1_k1.gen(1)
    table = growth_table(ctx_n1_k1, [g, g.invert_unit()], n_max=24)
    assert table.rows == [2 * n + 1 for n in range(25)]


def test_default_generators_rank_one_formula(ctx_n1_k1):
    # every reachable word saturates its coefficient space one step after it
    # first appears, so dim(N) = 2*(2N+1) - 2 = 4N for N >= 1
    table = growth_table(ctx_n1_k1, None, n_max=24)
    assert table.rows[0] == 1
    assert table.rows[1:] == [4 * n for n in range(1, 25)]


def test_default_generators_rank_two_formula(ctx_n2_k1):
    # dim(N) = 2*B(N) - (boundary words with no room for theta) = 4N^2 + 2
    table = growth_table(ctx_n2_k1, None, n_max=16)
    for n in range(1, 17):
        assert table.rows[n] == 2 * l1_ball(2, n) - 4 * n == 4 * n * n + 2


def test_rows_monotone_and_bounded(ctx_n2_k2):
    table = growth_table(ctx_n2_k2, None, n_max=10)
    assert all(b >= a for a, b in zip(table.rows, table.rows[1:]))
    for n, dim in enumerate(table.rows):
        assert dim <= l1_ball(2, n) * ctx_n2_k2.level.degree


def test_gk_estimates_land_near_the_rank(tower223):
    from twistlab.action import default_action

    for n, lo, hi in ((1, 0.9, 1.1), (2, 1.85, 2.15)):
        ctx = RingContext(tower223, default_action(n, 2), 1)
        est = gk_estimate(growth_table(ctx, None, n_max=24))
        assert lo <= est.slope <= hi, f"rank {n}: slope {est.slope}"
        assert est.residual < 0.1


def test_estimate_stable_across_levels(tower223):
    from twistlab.action import default_action

    for n in (1, 2):
        action = default_action(n, 2)
        est1 = gk_estimate(growth_table(RingContext(tower223, action, 1), None, n_max=20))
        est2 = gk_estimate(growth_table(RingContext(tower223, action, 2), None, n_max=20))
        assert abs(est1.slope - est2.slope) <= 0.2


def test_estimate_robust_under_generator_change(ctx_n1_k1):
    # same subalgebra presented with unit-scaled and redundant generators
    base = ctx_n1_k1.default_generators()
    omega = ctx_n1_k1.theta()
    x = ctx_n1_k1.gen(1)
    alt = [
        ctx_n1_k1.scalar(omega),
        omega * x,
        (omega * x).invert_unit(),
        x * x,
    ]
    est_base = gk_estimate(growth_table(ctx_n1_k1, base, n_max=20))
    est_alt = gk_estimate(growth_table(ctx_n1_k1, alt, n_max=20))
    assert abs(est_base.slope - est_alt.slope) <= 0.2


def test_short_table_rejected(ctx_n1_k1):
    table = growth_table(ctx_n1_k1, None, n_max=8)
    with pytest.raises(ValueError):
        gk_estimate(table)


def test_budget_cutoff_marks_partial_table(ctx_n2_k1):
    table = growth_table(ctx_n2_k1, None, n_max=24, max_vectors=50)
    assert table.truncated_at is not None
    assert table.n_max < 24


def test_csv_shape(ctx_n1_k1):
    table = growth_table(ctx_n1_k1, None, n_max=12)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "N,dim"
    assert lines[1] == "0,1"
    assert len(lines) == 14


def _assert_matches_reference(ctx, gens, n_max, max_vectors=500_000):
    got = growth_table(ctx, gens, n_max=n_max, max_vectors=max_vectors)
    want = reference_growth_table(ctx, gens, n_max, max_vectors=max_vectors)
    assert (got.rows, got.truncated_at) == (want.rows, want.truncated_at)
    return got


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (2, 4), (2, 9)])
def test_code_echelon_matches_coordinate_reference(p, q):
    tower = build_tower(TowerConfig(p, q, 2))
    rng = random.Random(f"growth-oracle-{p}-{q}")
    for n in (1, 2, 3):
        action = default_action(n, p)
        for k in range(tower.k_max + 1):
            ctx = RingContext(tower, action, k)
            for _ in range(2):
                gens = [ctx.random_element(rng, max_terms=3, coord_bound=1)
                        for _ in range(rng.randint(1, 3))]
                _assert_matches_reference(ctx, gens, 4 if n < 3 else 3)
    ctx = RingContext(tower, default_action(2, p), 2)
    gens = [ctx.random_element(rng, max_terms=3, coord_bound=1) for _ in range(3)]
    table = _assert_matches_reference(ctx, gens, 8, max_vectors=40)
    assert table.truncated_at is not None
    # packed words at their bound: (3N, 0) and (-3N, 1) are both reached at
    # N = n_max with r = 3, and share one integer under a radix of 6N
    for n in (2, 3):
        action = default_action(n, p)
        for k in range(tower.k_max + 1):
            ctx = RingContext(tower, action, k)
            level = ctx.level

            def mono(*word):
                word += (0,) * (n - len(word))
                return ctx.monomial(level.from_code(rng.randrange(1, level.order)), word)

            edge = [mono(3), mono(-3), mono(-3, 1), mono(2, -3),
                    ctx.random_element(rng, max_terms=3, coord_bound=3)]
            scalars = [ctx.scalar(level.random_element(rng, nonzero=True))
                       for _ in range(2)]
            for gens in (edge, scalars):
                for n_max in (0, 1, 3):
                    _assert_matches_reference(ctx, gens, n_max)


@pytest.mark.parametrize("k", [3, 4])
def test_code_echelon_matches_reference_at_levels_3_and_4(k):
    # degree 8 and 16 over GF(2): lead indices up to 15, and words whose
    # frontier holds many vectors when their targets fill
    tower = build_tower(TowerConfig(2, 2, k))
    rng = random.Random(f"growth-high-level-{k}")
    for n in (1, 2):
        ctx = RingContext(tower, default_action(n, 2), k)
        _assert_matches_reference(ctx, ctx.default_generators(), 4)
        for _ in range(2):
            gens = [ctx.random_element(rng, max_terms=3, coord_bound=1)
                    for _ in range(rng.randint(2, 3))]
            _assert_matches_reference(ctx, gens, 4)


@pytest.mark.parametrize("q", [4, 9])
def test_code_echelon_matches_reference_with_leading_digits_above_one(q):
    # at level 2 over GF(4) and GF(9) a code's leading base-q digit ranges
    # over 1..q-1, so rows are scaled before they are stored and reductions
    # subtract multiples; GF(9) reduces through the Zech table
    tower = build_tower(TowerConfig(2, q, 2))
    rng = random.Random(f"growth-leading-digits-{q}")
    for n in (1, 2):
        ctx = RingContext(tower, default_action(n, 2), 2)
        level = ctx.level
        for _ in range(2):
            gens = [ctx.random_element(rng, max_terms=3, coord_bound=1)
                    for _ in range(2)]
            gens.append(ctx.scalar(level.random_element(rng, nonzero=True)))
            _assert_matches_reference(ctx, gens, 4 if n == 1 else 3)


def test_code_echelon_matches_reference_when_truncated_at_level_3():
    tower = build_tower(TowerConfig(2, 2, 3))
    ctx = RingContext(tower, default_action(2, 2), 3)
    rng = random.Random("growth-truncated-level-3")
    gens = [ctx.random_element(rng, max_terms=3, coord_bound=1) for _ in range(3)]
    table = _assert_matches_reference(ctx, gens, 8, max_vectors=150)
    assert table.truncated_at is not None and table.n_max < 8


def test_generators_of_another_context_are_refused(tower223, ctx_n2_k1, ctx_n2_k2):
    # unchecked, zip truncated the rank-3 words ([1, 2, 3, 4, 5]) and the
    # level-1 theta was read as a level-2 code
    ctx_n3 = RingContext(tower223, default_action(3, 2), 1)
    with pytest.raises(ContextMismatchError):
        growth_table(ctx_n2_k1, [ctx_n3.gen(1), ctx_n3.gen(3)], n_max=4)
    with pytest.raises(ContextMismatchError):
        growth_table(ctx_n2_k2, [ctx_n2_k1.scalar(ctx_n2_k1.theta())], n_max=4)


def test_growth_leaves_no_per_word_state_in_the_context(tower223, action_n2,
                                                        container_sizes):
    ctx = RingContext(tower223, action_n2, 1)
    before = container_sizes(ctx)
    table = growth_table(ctx, None, n_max=16)
    assert table.rows[-1] == 4 * 16 * 16 + 2
    assert container_sizes(ctx) == before


@pytest.mark.parametrize("p,q,k,n", [
    (2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 2), (2, 3, 1, 2), (3, 2, 1, 2),
    (2, 2, 3, 1), (2, 2, 2, 3),
])
def test_default_rows_between_exact_ball_bounds(p, q, k, n):
    # deg * |B_1(N - deg + 1)| <= dim V^N <= deg * |B_1(N)|: both sides are
    # degree-n polynomials in N, so the growth exponent is exactly n
    ctx = RingContext(build_tower(TowerConfig(p, q, k)), default_action(n, p), k)
    deg = ctx.level.degree
    table = growth_table(ctx, None, n_max={1: 16, 2: 10, 3: 6}[n])
    for big_n, dim in enumerate(table.rows):
        assert deg * l1_ball(n, big_n - deg + 1) <= dim <= deg * l1_ball(n, big_n), (big_n, dim)


def test_growth_makes_no_field_element_per_product(tower223, action_n2, field_op_counts):
    ctx = RingContext(tower223, action_n2, 2)
    table = growth_table(ctx, None, n_max=8)
    assert table.rows[-1] > 100
    assert dict(field_op_counts) == {}


@pytest.mark.parametrize("kwargs", [{"n_max": -1}, {"max_vectors": 0}])
def test_negative_budgets_are_refused(ctx_n1_k1, kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{name} must be >= "):
        growth_table(ctx_n1_k1, None, **kwargs)


def test_cli_refuses_negative_nmax(capsys):
    assert main(["growth", "--nmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_max must be >= 0, got -1\n"


def test_verify_check_growth_gates_on_the_exact_bound(monkeypatch, ctx_n2_k1):
    from twistlab import verify

    result = verify.check_growth(ctx_n2_k1, None)
    assert result.passed
    assert result.detail == "slope 1.995 for rank 2, top dim 1602 <= 1682"
    real = verify.growth_table

    def short_row(ctx, generators, n_max):
        table = real(ctx, generators, n_max=n_max)
        table.rows[3] = table.rows[2]  # below deg * |B_1(2)| = 26, still monotone
        return table

    monkeypatch.setattr(verify, "growth_table", short_row)
    assert not verify.check_growth(ctx_n2_k1, None).passed


def test_verify_check_growth_reports_the_slope_but_does_not_gate_on_it():
    # at (p, q) = (5, 5) the exact table holds the ball sandwich at every N,
    # while its N <= 20 slope lies outside any +-0.2 window around the rank
    from twistlab import verify

    ctx = RingContext(build_tower(TowerConfig(5, 5, 1)), default_action(2, 5), 1)
    result = verify.check_growth(ctx, None)
    assert result.passed is True
    assert result.detail == "slope 2.207 for rank 2, top dim 3445 <= 4205"


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_growth_matches_the_global_span_oracle_on_monomial_generators(p, q):
    # the code-echelon reference above shares growth_table's per-word split;
    # this oracle does not, and it agrees wherever every generator is a
    # monomial
    tower = build_tower(TowerConfig(p, q, 2))
    rng = random.Random(f"growth-global-span-{p}-{q}")
    for n, k in product((1, 2), (1, 2)):
        ctx = RingContext(tower, default_action(n, p), k)
        level = ctx.level
        gen_sets = [None] + [
            [ctx.monomial(level.from_code(rng.randrange(1, level.order)),
                          [rng.randint(-1, 1) for _ in range(n)])
             for _ in range(rng.randint(1, 3))]
            for _ in range(2)]
        for gens in gen_sets:
            want = global_span_rows(ctx, gens or ctx.default_generators(), 4)
            assert growth_table(ctx, gens, n_max=4).rows == want, (n, k, gens)


def test_global_span_oracle_measures_a_two_term_generator(tower223, action_n1):
    # span(1, a, ..., a^N) for a = x1 + t: the powers of a are independent
    ctx = RingContext(tower223, action_n1, 2)
    a = ctx.gen(1) + ctx.scalar(ctx.theta())
    assert global_span_rows(ctx, [a], 6) == list(range(1, 8))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_growth_of_a_two_term_generator_matches_the_global_span(tower223, action_n1):
    # growth_table puts each term of a product in its own word's space, so it
    # reads 1, 3, 7, 12, 16, 20, 24 here
    ctx = RingContext(tower223, action_n1, 2)
    a = ctx.gen(1) + ctx.scalar(ctx.theta())
    assert growth_table(ctx, [a], n_max=6).rows == global_span_rows(ctx, [a], 6)
