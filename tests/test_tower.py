import random

import pytest

from twistlab.errors import BudgetError
from twistlab.fields import is_irreducible
from twistlab.tower import (
    TowerConfig,
    build_tower,
    tower_from_json,
    tower_to_json,
)


def test_level_orders_p2_q2(tower223):
    assert [lvl.order for lvl in tower223.levels[:3]] == [2, 4, 16]


def test_level_orders_p3_q2():
    t = build_tower(TowerConfig(3, 2, 1))
    assert [lvl.order for lvl in t.levels] == [2, 8]


def test_level_orders_p2_q3():
    t = build_tower(TowerConfig(2, 3, 2))
    assert [lvl.order for lvl in t.levels] == [3, 9, 81]


def test_budget_error_is_raised_before_building():
    with pytest.raises(BudgetError):
        build_tower(TowerConfig(3, 3, 3))  # 3^27 blows the default budget


def test_budget_refuses_huge_k_max_at_once():
    # the first level past the budget decides; q^(p^k_max) is never built
    with pytest.raises(BudgetError, match=r"2\^\(2\^5\) at level 5"):
        TowerConfig(2, 2, 10**9).validate()
    with pytest.raises(BudgetError):
        TowerConfig(3, 3, 10**9).validate(budget=10**100)
    TowerConfig(2, 2, 4).validate()  # 2^16 is within the default budget


def test_config_validation():
    with pytest.raises(ValueError):
        build_tower(TowerConfig(4, 2, 1))  # p not prime
    with pytest.raises(ValueError):
        build_tower(TowerConfig(2, 6, 1))  # q not a prime power
    with pytest.raises(ValueError):
        build_tower(TowerConfig(2, 2, 0))  # k_max too small


def test_defining_polynomials_are_irreducible(tower223):
    base = tower223.levels[0].base
    for lvl in tower223.levels:
        assert is_irreducible(base, list(lvl.modulus)) or lvl.degree == 1
        assert lvl.modulus[-1] == 1  # monic


def test_embed_fixes_one_and_zero(tower223):
    one0 = tower223.level(0).one()
    assert tower223.embed(one0, 2) == tower223.level(2).one()
    zero1 = tower223.level(1).zero()
    assert tower223.embed(zero1, 3) == tower223.level(3).zero()


def test_embed_rejects_downward(tower223):
    x = tower223.level(2).one()
    with pytest.raises(ValueError):
        tower223.embed(x, 1)


def test_embedding_is_a_root_by_exhaustive_search(tower223):
    # oracle: find all roots of the level-m polynomial inside level m+1 by
    # brute force, independently of the builder's search
    for m in range(0, 3):
        lower, upper = tower223.level(m), tower223.level(m + 1)
        roots = []
        for x in upper.elements():
            acc = upper.zero()
            for c in reversed(lower.modulus):
                acc = acc * x + upper.from_base(c)
            if acc.is_zero():
                roots.append(x.coords)
        assert len(roots) == lower.degree  # separable: full root count
        assert lower.embedding_up == min(roots)  # lex-least chosen


def test_embed_generator_matches_stored_image(tower223):
    theta1 = tower223.level(1).generator()
    assert tower223.embed(theta1, 2).coords == tower223.level(1).embedding_up


def test_frobenius_identity_and_full_order(tower223):
    lvl = tower223.level(2)
    for x in lvl.elements():
        assert lvl.frobenius(x, 0) == x
        assert lvl.frobenius(x, 4) == x  # Galois group of L_2 has order p^2


def test_frobenius_on_gf4(tower223):
    # omega^2 = omega + 1 from the defining relation omega^2+omega+1 = 0
    lvl = tower223.level(1)
    omega = lvl.generator()
    assert lvl.frobenius(omega, 1) == omega * omega == omega + lvl.one()


def test_frobenius_matches_power_map(tower223):
    # oracle: the definition x -> x^(q^t), computed by plain exponentiation
    rng = random.Random(8)
    for m in range(tower223.k_max + 1):
        lvl = tower223.level(m)
        for _ in range(100):
            x = lvl.random_element(rng)
            for t in (1, 2):
                assert lvl.frobenius(x, t) == x ** (tower223.q**t)
            y = lvl.random_element(rng)
            assert lvl.frobenius(x * y, 1) == lvl.frobenius(x, 1) * lvl.frobenius(y, 1)
            assert lvl.frobenius(x + y, 1) == lvl.frobenius(x, 1) + lvl.frobenius(y, 1)


def test_frobenius_negative_times(tower223):
    lvl = tower223.level(2)
    rng = random.Random(0)
    for _ in range(50):
        x = lvl.random_element(rng)
        assert lvl.frobenius(lvl.frobenius(x, 1), -1) == x
        assert lvl.frobenius(x, -1) == lvl.frobenius(x, 3)


def test_fixed_subfield_dims(tower223):
    assert tower223.fixed_subfield_dim(1, 2) == 1
    assert tower223.fixed_subfield_dim(2, 2) == 2
    assert tower223.fixed_subfield_dim(4, 2) == 4
    assert tower223.fixed_subfield_dim(0, 2) == 4
    assert tower223.fixed_subfield_dim(-1, 2) == 1


def test_fixed_subfield_dim_by_enumeration(tower223):
    # oracle: count fixed points of Frobenius^t; must equal q^gcd(t, p^m)
    q = tower223.q
    for m in (1, 2):
        lvl = tower223.level(m)
        for t in range(0, lvl.degree + 1):
            fixed = sum(1 for x in lvl.elements() if lvl.frobenius(x, t) == x)
            assert fixed == q ** tower223.fixed_subfield_dim(t, m)


def test_fixed_field_of_frobenius_is_base(tower223):
    for m in range(tower223.k_max + 1):
        lvl = tower223.level(m)
        fixed = [x for x in lvl.elements() if lvl.frobenius(x, 1) == x]
        embedded = {tower223.embed(tower223.level(0).from_code(c), m).coords
                    for c in range(tower223.q)}
        assert {x.coords for x in fixed} == embedded


def test_embedding_compatibility_chain(tower223):
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randint(0, 2)
        m2 = rng.randint(m, 2)
        m3 = rng.randint(m2, 3)
        x = tower223.level(m).random_element(rng)
        assert tower223.embed(tower223.embed(x, m2), m3) == tower223.embed(x, m3)


def test_embedding_commutes_with_frobenius(tower223):
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(0, 2)
        m2 = rng.randint(m, 3)
        t = rng.randint(-4, 8)
        x = tower223.level(m).random_element(rng)
        assert tower223.embed(tower223.frobenius(x, t), m2) == tower223.frobenius(
            tower223.embed(x, m2), t
        )


def test_embedding_is_ring_homomorphism(tower223):
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(0, 2)
        x = tower223.level(m).random_element(rng)
        y = tower223.level(m).random_element(rng)
        assert tower223.embed(x + y, 3) == tower223.embed(x, 3) + tower223.embed(y, 3)
        assert tower223.embed(x * y, 3) == tower223.embed(x, 3) * tower223.embed(y, 3)


@pytest.mark.parametrize("p,q,k_max,trials", [(2, 2, 3, 10_000), (2, 3, 2, 3_000), (3, 2, 2, 3_000)])
def test_field_axioms_fuzz(p, q, k_max, trials):
    tower = build_tower(TowerConfig(p, q, k_max))
    rng = random.Random(17)
    for m in range(k_max + 1):
        lvl = tower.level(m)
        one = lvl.one()
        for _ in range(trials):
            a, b, c = (lvl.random_element(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == lvl.zero()
            assert a * one == a
        for _ in range(500):
            a = lvl.random_element(rng, nonzero=True)
            assert a * a.inverse() == one


def test_json_round_trip_is_bit_exact(tower223):
    import json

    blob = json.dumps(tower_to_json(tower223), sort_keys=True)
    rebuilt = tower_from_json(json.loads(blob))
    assert rebuilt == tower223
    assert json.dumps(tower_to_json(rebuilt), sort_keys=True) == blob


def test_json_rejects_corrupt_embedding(tower223):
    data = tower_to_json(tower223)
    data["levels"][0]["embedding_up"] = [1, 1]  # not a root of X
    with pytest.raises(ValueError):
        tower_from_json(data)


def test_towers_are_cached():
    assert build_tower(TowerConfig(2, 2, 3)) is build_tower(TowerConfig(2, 2, 3))


def test_large_level_uses_subfield_root_search():
    # order 2^16 exceeds the plain-scan cutoff, so the embedding search runs
    # through the embedded-subfield candidates; validate the root directly
    t = build_tower(TowerConfig(2, 2, 4))
    lower, upper = t.level(3), t.level(4)
    assert upper.order == 1 << 16
    image = upper.element(lower.embedding_up)
    acc = upper.zero()
    for c in reversed(lower.modulus):
        acc = acc * image + upper.from_base(c)
    assert acc.is_zero()
    rng = random.Random(23)
    for _ in range(25):
        x = lower.random_element(rng)
        y = lower.random_element(rng)
        assert t.embed(x * y, 4) == t.embed(x, 4) * t.embed(y, 4)
        assert t.embed(t.frobenius(x, 1), 4) == t.frobenius(t.embed(x, 4), 1)
