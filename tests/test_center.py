import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistlab.action import (
    EXPONENT_HORIZON,
    ActionConfig,
    PAdicExponent,
    action_exponent,
    default_action,
)
from twistlab import center
from twistlab.center import (
    decompose_over_center,
    exit_level,
    free_basis,
    hnf,
    is_central,
    is_central_structural,
    kernel_lattice,
    lattice_maps,
    recompose,
)
from twistlab.errors import IndependenceError
from twistlab.quotient import CentralFraction, center_of_quotient_test
from twistlab.ring import RingContext, RingElement, _from_codes
from twistlab.tower import TowerConfig, build_tower


def test_hnf_examples():
    assert hnf([[2]]) == [[2]]
    assert hnf([[-2]]) == [[2]]
    # generators of {g1 + g2 = 0 mod 4}
    assert hnf([[1, -1], [0, 4]]) == [[1, -1], [0, 4]]
    assert hnf([[-1, 1], [-4, 0]]) == [[1, -1], [0, 4]]
    assert hnf([[1, 3], [0, 4], [4, 0]]) == [[1, -1], [0, 4]]


def test_hnf_fuzz_against_lattice_oracle():
    # oracle: for square nonsingular input, the HNF must (a) be upper
    # triangular with positive pivots and centered upper entries, (b) contain
    # every input row as an integer combination, and (c) preserve the
    # covolume |det| computed independently over fractions
    from fractions import Fraction

    def det(rows):
        n = len(rows)
        m = [[Fraction(v) for v in r] for r in rows]
        out = Fraction(1)
        for i in range(n):
            piv = next((r for r in range(i, n) if m[r][i]), None)
            if piv is None:
                return Fraction(0)
            if piv != i:
                m[i], m[piv] = m[piv], m[i]
                out = -out
            out *= m[i][i]
            for r in range(i + 1, n):
                f = m[r][i] / m[i][i]
                m[r] = [a - f * b for a, b in zip(m[r], m[i])]
        return out

    def in_lattice(vec, basis):
        v = list(vec)
        for i, row in enumerate(basis):
            if v[i] % row[i]:
                return False
            q = v[i] // row[i]
            v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = det(rows)
        if d == 0:
            continue
        basis = hnf(rows)
        assert len(basis) == n
        index = 1
        for i, row in enumerate(basis):
            assert all(v == 0 for v in row[:i])
            assert row[i] > 0
            index *= row[i]
            for j in range(i):
                assert -basis[i][i] < 2 * basis[j][i] <= basis[i][i]
        assert index == abs(d)
        for row in rows:
            assert in_lattice(row, basis)


def test_hnf_is_canonical_under_row_shuffles():
    rng = random.Random(0)
    base = [[2, 1, 0], [0, 3, 1], [0, 0, 5]]
    for _ in range(20):
        rows = [list(r) for r in base]
        rng.shuffle(rows)
        rows.append([sum(a * b for a, b in zip((1, 2, 3), col)) for col in zip(*base)])
        assert hnf(rows) == hnf(base)


def test_kernel_lattice_rank_one(tower223, action_n1):
    ctx = RingContext(tower223, action_n1, 1)
    lat = kernel_lattice(ctx)
    assert lat.basis == ((2,),)
    assert lat.index == 2


def test_kernel_lattice_spec_example(tower223):
    # a_2 = 1 mod 4 realized with digit positions {0, 2}
    action = ActionConfig(
        2, 2, [PAdicExponent.one(), PAdicExponent.from_positions([0, 2])]
    )
    ctx = RingContext(tower223, action, 2, cert_bound=1)
    lat = kernel_lattice(ctx)
    assert lat.basis == ((1, -1), (0, 4))
    assert lat.index == 4


def test_kernel_index_is_p_to_k(tower223, action_n2):
    for k in (1, 2, 3):
        ctx = RingContext(tower223, action_n2, k)
        assert kernel_lattice(ctx).index == 2**k


def column_reduction_kernel(ts, mod):
    """Kernel basis by column-reducing the map row (t | mod) over an
    identity, then taking the HNF: an independent route to the lattice."""
    n = len(ts)
    row = list(ts) + [mod]
    width = n + 1
    cols = [[row[j]] + [1 if i == j else 0 for i in range(width)] for j in range(width)]
    while True:
        live = [c for c in cols if c[0]]
        if len(live) <= 1:
            break
        live.sort(key=lambda c: abs(c[0]))
        base = live[0]
        for c in live[1:]:
            q = c[0] // base[0]
            for i in range(width + 1):
                c[i] -= q * base[i]
    return tuple(tuple(r) for r in hnf([c[1 : n + 1] for c in cols if c[0] == 0]))


@settings(max_examples=80, deadline=None)
@given(
    p_k=st.sampled_from([(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
    positions=st.lists(
        st.sets(st.integers(min_value=0, max_value=7), min_size=1), max_size=3
    ),
)
def test_kernel_lattice_equals_column_reduction_oracle(p_k, positions):
    p, k = p_k
    exponents = [PAdicExponent.one()]
    exponents += [PAdicExponent.from_positions(ps) for ps in positions]
    action = ActionConfig(len(exponents), p, exponents)
    try:
        ctx = RingContext(build_tower(TowerConfig(p, 2, max(k, 1))), action, k,
                          cert_bound=1)
    except IndependenceError:
        assume(False)
    lat = kernel_lattice(ctx)
    assert lat.basis == column_reduction_kernel(action.truncations(k), p**k)
    assert lat.index == p**k
    for row in lat.basis:
        assert action_exponent(action, row, k) == 0
    assert kernel_lattice(ctx) is lat


def test_kernel_refuses_without_certification(tower223, action_n2):
    ctx = RingContext(tower223, action_n2, 1, certify=False)
    with pytest.raises(IndependenceError):
        kernel_lattice(ctx)


def test_dependent_exponents_refuse_at_context_construction(tower223):
    action = ActionConfig(2, 2, [PAdicExponent.one(), PAdicExponent.one()])
    with pytest.raises(IndependenceError):
        RingContext(tower223, action, 1)


def test_lattice_membership_bounded_enumeration(ctx_n2_k2):
    from itertools import product

    from twistlab.action import action_exponent

    lat = kernel_lattice(ctx_n2_k2)
    bound = 2 * 4
    for w in product(range(-bound, bound + 1), repeat=2):
        in_kernel = action_exponent(ctx_n2_k2.action, w, 2) == 0
        assert lat.contains(w) == in_kernel


def test_reduce_splits_into_box_representative_and_lattice_coordinates(ctx_n2_k2):
    from itertools import product

    lat = kernel_lattice(ctx_n2_k2)
    box = set(lat.box_representatives())
    for w in product(range(-9, 10), repeat=2):
        r, coords = lat.reduce(w)
        assert r in box
        h = lat.from_lattice_coordinates(coords)
        assert tuple(a + b for a, b in zip(r, h)) == w
        assert lat.lattice_coordinates(h) == coords
        if any(r):
            with pytest.raises(ValueError, match="not in the kernel lattice"):
                lat.lattice_coordinates(w)


# -- compiled lattice maps against the loops they replaced ---------------------


def loop_reduce(basis, word):
    """Row-by-row reduction of a word into the fundamental box."""
    v = list(word)
    n = len(v)
    coords = []
    for i in range(n):
        q = v[i] // basis[i][i]
        coords.append(q)
        if q:
            for j in range(i, n):
                v[j] -= q * basis[i][j]
    return tuple(v), tuple(coords)


def loop_from_lattice_coordinates(basis, coords):
    n = len(basis)
    word = [0] * n
    for c, row in zip(coords, basis):
        for j in range(n):
            word[j] += c * row[j]
    return tuple(word)


def _lattice(p, q, n, k, action=None):
    tower = build_tower(TowerConfig(p, q, max(k, 1)))
    action = action or default_action(n, p)
    return kernel_lattice(RingContext(tower, action, k, cert_bound=1))


# default actions give diagonal bases; the spec example and the digit
# positions below give bases with nonzero off-diagonal entries
LATTICE_CELLS = (
    [(2, 2, n, k) for n in range(1, 5) for k in range(1, 5)]
    + [(3, 3, 2, 2), (2, 4, 2, 3), (5, 5, 2, 1)]
)
POSITIONS = ([[0, 2]], [[1], [0, 3]], [[0, 1, 5], [2]], [[1, 2], [3], [0, 4]])


@pytest.fixture(scope="module")
def lattices():
    lats = [_lattice(*cell) for cell in LATTICE_CELLS]
    for p, k in ((2, 2), (2, 3), (3, 2)):
        for ps in POSITIONS:
            exps = [PAdicExponent.one()] + [PAdicExponent.from_positions(x) for x in ps]
            try:
                lats.append(_lattice(p, 2, len(exps), k,
                                     ActionConfig(len(exps), p, exps)))
            except IndependenceError:
                pass
    assert any(row[j] for lat in lats for i, row in enumerate(lat.basis)
               for j in range(i + 1, len(row)))
    return lats


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_compiled_lattice_maps_match_the_loops(lattices, data):
    lat = data.draw(st.sampled_from(lattices))
    n = len(lat.basis)
    word = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * n))
    assert lat.reduce(word) == loop_reduce(lat.basis, word)
    assert lat.from_lattice_coordinates(word) == loop_from_lattice_coordinates(
        lat.basis, word)
    assert lat.contains(word) == (not any(loop_reduce(lat.basis, word)[0]))


@pytest.mark.parametrize("basis", [
    ((2.5,),), (("2",),), ((1, 0), (0, 4.5)), ((True, 1), (0, 6)),
    ((type("Sneaky", (int,), {})(6),),),
])
def test_lattice_map_generator_refuses_anything_but_ints(basis):
    with pytest.raises(TypeError, match="only ints"):
        lattice_maps(basis)


def test_lattice_maps_and_representatives_are_built_once(ctx_n2_k2, action_n2,
                                                        monkeypatch):
    # one lattice, maps and all, per (action, level): other contexts of that
    # action at that level share it, and an equal action is another action
    lat = kernel_lattice(ctx_n2_k2)
    compiled = []
    monkeypatch.setattr(center, "lattice_maps",
                        lambda basis: compiled.append(basis) or lattice_maps(basis))
    others = [RingContext(build_tower(TowerConfig(2, 2, k_max)), action_n2, 2,
                          cert_bound=bound) for k_max, bound in ((2, 8), (3, 3))]
    assert all(kernel_lattice(ctx) is lat for ctx in others)
    assert compiled == []
    twin = kernel_lattice(RingContext(ctx_n2_k2.tower, default_action(2, 2), 2))
    assert twin is not lat and twin.basis == lat.basis and compiled == [lat.basis]
    assert lat.box_representatives() is lat.box_representatives()
    assert list(lat.box_representatives()) == sorted(lat.box_representatives())


def test_lattice_nesting(tower223, action_n2):
    lats = [
        kernel_lattice(RingContext(tower223, action_n2, k)) for k in (1, 2, 3)
    ]
    for lower, upper in zip(lats, lats[1:]):
        for row in upper.basis:
            assert lower.contains(row)


def test_is_central_examples(ctx_n2_k1):
    assert is_central(ctx_n2_k1.one())
    theta = ctx_n2_k1.scalar(ctx_n2_k1.theta())
    assert not is_central(theta)  # moved by the first generator
    lat = kernel_lattice(ctx_n2_k1)
    for row in lat.basis:
        h = ctx_n2_k1.monomial(1, row)
        assert is_central(h)
        # direct product verification against every generator
        for g in ctx_n2_k1.gens() + [theta]:
            assert h * g == g * h


def test_centrality_agreement_fuzz(ctx_n2_k1, ctx_n2_k2):
    rng = random.Random(7)
    for ctx in (ctx_n2_k1, ctx_n2_k2):
        lat = kernel_lattice(ctx)
        for i in range(1000):
            if i % 2 == 0:
                r = ctx.random_element(rng)
            else:
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    coords = tuple(rng.randint(-2, 2) for _ in lat.basis)
                    terms[lat.from_lattice_coordinates(coords)] = (
                        ctx.level.from_base(1)
                    )
                r = RingElement(ctx, terms)
                if rng.random() < 0.5:
                    r = r + ctx.random_element(rng, max_terms=1)
            assert is_central(r) == is_central_structural(r, lat)


def test_free_basis_rank(ctx_n2_k1, ctx_n2_k2):
    assert free_basis(ctx_n2_k1).size() == 4
    assert free_basis(ctx_n2_k2).size() == 16


def test_decompose_zero_and_basis_elements(ctx_n2_k1):
    lat = kernel_lattice(ctx_n2_k1)
    fb = free_basis(ctx_n2_k1, lat)
    zs = decompose_over_center(ctx_n2_k1.zero(), fb, lat)
    assert all(z.is_zero() for z in zs)
    for idx, b in enumerate(fb.elements):
        zs = decompose_over_center(b, fb, lat)
        for j, z in enumerate(zs):
            assert z == (ctx_n2_k1.one() if j == idx else ctx_n2_k1.zero())


def test_decompose_recompose_round_trip(ctx_n2_k1, ctx_n2_k2):
    rng = random.Random(9)
    for ctx in (ctx_n2_k1, ctx_n2_k2):
        lat = kernel_lattice(ctx)
        fb = free_basis(ctx, lat)
        for _ in range(1000 if ctx.k == 1 else 200):
            r = ctx.random_element(rng)
            assert recompose(decompose_over_center(r, fb, lat), fb) == r


def test_decomposition_coordinates_are_central(ctx_n2_k1):
    rng = random.Random(10)
    lat = kernel_lattice(ctx_n2_k1)
    fb = free_basis(ctx_n2_k1, lat)
    for _ in range(100):
        r = ctx_n2_k1.random_element(rng)
        for z in decompose_over_center(r, fb, lat):
            assert is_central_structural(z, lat)


def test_unique_coordinates_on_random_central_combinations(ctx_n2_k1):
    rng = random.Random(11)
    lat = kernel_lattice(ctx_n2_k1)
    fb = free_basis(ctx_n2_k1, lat)
    for _ in range(200):
        zs = []
        for _ in range(fb.size()):
            terms = {}
            if rng.random() < 0.7:
                coords = tuple(rng.randint(-1, 1) for _ in lat.basis)
                terms[lat.from_lattice_coordinates(coords)] = (
                    ctx_n2_k1.level.from_base(1)
                )
            zs.append(RingElement(ctx_n2_k1, terms))
        r = recompose(zs, fb)
        assert decompose_over_center(r, fb, lat) == zs


def test_level_three_center(tower223, action_n2):
    ctx = RingContext(tower223, action_n2, 3)
    lat = kernel_lattice(ctx)
    assert lat.index == 8
    fb = free_basis(ctx, lat)
    assert fb.size() == 64
    rng = random.Random(14)
    for _ in range(100):
        r = ctx.random_element(rng)
        assert is_central(r) == is_central_structural(r, lat)
    for _ in range(25):
        r = ctx.random_element(rng)
        assert recompose(decompose_over_center(r, fb, lat), fb) == r


def test_degenerate_level_zero(tower223, action_n2):
    ctx0 = RingContext(tower223, action_n2, 0)
    lat = kernel_lattice(ctx0)
    assert lat.index == 1
    assert lat.basis == ((1, 0), (0, 1))
    fb = free_basis(ctx0, lat)
    assert fb.size() == 1
    rng = random.Random(12)
    for _ in range(50):
        r = ctx0.random_element(rng)
        assert is_central(r)  # the whole ring is its own center
        assert recompose(decompose_over_center(r, fb, lat), fb) == r


@pytest.mark.parametrize("p,q,n,k_max", [
    (2, 2, 2, 4), (2, 2, 1, 4), (3, 3, 1, 2), (2, 4, 2, 3),
])
def test_exit_level_matches_the_commutation_probe(p, q, n, k_max):
    # oracle: a central z of R_1 commutes in the quotient ring at level m,
    # by the product probe, iff m lies below its exit level
    ctx = RingContext(build_tower(TowerConfig(p, q, k_max)), default_action(n, p), 1)
    lat = kernel_lattice(ctx)
    rng = random.Random(1000 * p + 100 * q + 10 * n + k_max)
    exits = []
    for _ in range(30):
        codes = {}
        for _ in range(rng.randint(1, 3)):
            coords = tuple(rng.randint(-8, 8) for _ in range(n))
            codes[lat.from_lattice_coordinates(coords)] = rng.randrange(1, q)
        z = _from_codes(ctx, codes)
        e = exit_level(z)
        f = CentralFraction(ctx, z, ctx.one(), lattice=lat)
        for m in range(1, k_max + 1):
            assert center_of_quotient_test(f, m) == (e is None or m < e), (z, e, m)
        exits.append(e)
    # both sides are exercised: exits inside the tower and above it
    assert any(e is not None and e <= k_max for e in exits)
    assert any(e is None or e > k_max for e in exits)


def test_exit_level_of_base_field_scalars_is_undecided(ctx_n2_k1):
    for c in range(1, ctx_n2_k1.tower.q):
        assert exit_level(ctx_n2_k1.scalar(ctx_n2_k1.level.from_base(c))) is None
    assert exit_level(ctx_n2_k1.zero()) is None


def test_exit_level_past_the_horizon_is_undecided_not_central():
    # a_2 = 1 + 2^64 agrees with a_1 = 1 at the horizon, so x^(1, -1) acts
    # trivially on every level up to it: its exit level 65 lies past the
    # horizon and is reported as None
    action = ActionConfig(
        2, 2, [PAdicExponent.one(), PAdicExponent((0, EXPONENT_HORIZON))])
    ctx = RingContext(build_tower(TowerConfig(2, 2, 3)), action, 1, certify=False)
    z = ctx.monomial(1, (1, -1))
    assert exit_level(z) is None
    assert all(is_central(z.lift_to(ctx.lift_level(m))) for m in (1, 2, 3))
    # the vanishing word hides no other word: x^(2, 0) leaves at level 2
    assert exit_level(z + ctx.monomial(1, (2, 0))) == 2
    assert exit_level(ctx.monomial(1, (4, 0)) + ctx.monomial(1, (2, -2))) == 3
