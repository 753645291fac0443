import json
import math
import random
from operator import xor

import pytest

from twistlab import fields
from twistlab import tower as tower_module
from twistlab import verify
from twistlab.errors import BudgetError, InternalFaultError
from twistlab.fields import is_irreducible
from twistlab.tower import (
    DEFAULT_FIELD_BUDGET,
    FieldElement,
    TowerConfig,
    _embedding_table,
    _find_embedding,
    _horner,
    build_tower,
    tower_from_json,
    tower_to_json,
)
from twistlab.verify import check_tower_fixed_field, check_tower_json


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


# -- reference embedding search ------------------------------------------------
# The former search on field elements, kept as an oracle for the code-level
# Horner evaluation: every candidate in the copy of the lower level is a
# FieldElement, and the polynomial is evaluated by element arithmetic.


def reference_eval_poly(level, coeffs, x):
    acc = level.zero()
    for c in reversed(coeffs):
        acc = acc * x + level.from_base(c)
    return acc


def reference_root_candidates(lower, upper):
    yield upper.zero()
    step = upper.units // lower.units
    for j in range(lower.units):
        yield FieldElement(upper, upper.exp[j * step])


def reference_find_embedding(lower, upper):
    roots = [
        x.coords
        for x in reference_root_candidates(lower, upper)
        if reference_eval_poly(upper, lower.modulus, x).is_zero()
    ]
    if not roots:
        raise InternalFaultError("no root")
    return min(roots)


def _largest_k_max(p, q):
    """Highest k_max whose tower fits the default field budget; a smaller
    k_max builds the same levels, so its embeddings are a prefix of these."""
    k = 1
    while True:
        try:
            TowerConfig(p, q, k + 1).validate()
        except BudgetError:
            return k
        k += 1


@pytest.mark.parametrize("p,q", [(p, q) for p in (2, 3) for q in (2, 3, 4)])
def test_embeddings_match_field_element_search(p, q):
    tower = build_tower(TowerConfig(p, q, _largest_k_max(p, q)))
    for lower, upper in zip(tower.levels, tower.levels[1:]):
        assert lower.embedding_up == reference_find_embedding(lower, upper)


def horner_embedding_table(lower, upper):
    """One Horner evaluation at the image of X per element of lower."""
    theta = upper._code(lower.embedding_up)
    return [_horner(upper, lower._digits(code), theta) for code in range(lower.order)]


def full_root_scan(lower, upper):
    """Least root over every candidate in the copy of lower, on codes."""
    step = upper.units // lower.units
    candidates = [0] + [upper.exp[j * step] for j in range(lower.units)]
    return min(upper._digits(x) for x in candidates
               if not _horner(upper, lower.modulus, x))


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (2, 9), (5, 5)])
def test_spanned_tables_and_first_root_conjugates_match_the_oracles(p, q):
    tower = build_tower(TowerConfig(p, q, _largest_k_max(p, q)))
    for lower, upper in zip(tower.levels, tower.levels[1:]):
        assert _find_embedding(lower, upper) == full_root_scan(lower, upper)
        assert list(_embedding_table(lower, upper)) == horner_embedding_table(
            lower, upper)


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


def fixed_subfield_dim(tower, times: int, level: int) -> int:
    """Degree over GF(q) of the subfield fixed by Frobenius^times on L_level:
    gcd(times, p^level), Frobenius having order p^level there."""
    steps = tower.p**level
    tower.level(level)
    return math.gcd(times % steps, steps)


def test_fixed_subfield_dims(tower223):
    assert fixed_subfield_dim(tower223, 1, 2) == 1
    assert fixed_subfield_dim(tower223, 2, 2) == 2
    assert fixed_subfield_dim(tower223, 4, 2) == 4
    assert fixed_subfield_dim(tower223, 0, 2) == 4
    assert fixed_subfield_dim(tower223, -1, 2) == 1


def test_fixed_subfield_dim_by_enumeration(tower223):
    # oracle: count fixed points of Frobenius^t; must equal q^gcd(t, p^m)
    q = tower223.q
    for m in (1, 2):
        lvl = tower223.level(m)
        for t in range(0, lvl.degree + 1):
            fixed = sum(1 for x in lvl.elements() if lvl.frobenius(x, t) == x)
            assert fixed == q ** fixed_subfield_dim(tower223, t, m)


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
        assert tower223.embed(x.frobenius(t), m2) == tower223.embed(x, m2).frobenius(t)


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


@pytest.mark.parametrize("config", [(2, 2, 3), (7, 7, 1)])
def test_json_of_a_built_tower_returns_the_cached_build(config, monkeypatch):
    # the levels read are new objects, but they take the built levels' tables
    tower = build_tower(TowerConfig(*config))
    data = json.loads(json.dumps(tower_to_json(tower)))

    def no_tables(*args):
        raise AssertionError("a table was rebuilt")

    monkeypatch.setattr(fields.ExtensionField, "_build_tables", no_tables)
    read = tower_from_json(data)
    assert read == tower
    assert all(a.exp is b.exp and a.log is b.log and a.zech is b.zech
               for a, b in zip(read.levels, tower.levels))
    assert check_tower_json(tower).passed


def test_towers_and_a_json_read_build_each_fields_tables_once(monkeypatch):
    built, build = [], fields.ExtensionField._build_tables

    def counted(field):
        built.append((field.char, field.base.q, field.modulus))
        return build(field)

    monkeypatch.setattr(fields, "_TABLES", {})  # every field is new
    monkeypatch.setattr(fields.ExtensionField, "_build_tables", counted)
    uncached = tower_module._build_tower.__wrapped__  # a new tower, not the cached one
    small, big = uncached(TowerConfig(2, 3, 1)), uncached(TowerConfig(2, 3, 2))
    read = tower_from_json(tower_to_json(big))
    # GF(3) (the base, and level 0), GF(3^2) and GF(3^4)
    assert read == big and len(built) == len(set(built)) == 3
    for m in range(3):
        towers = [t for t in (small, big, read) if m <= t.k_max]
        assert len({id(t.level(m).exp) for t in towers}) == 1


def _refuse(*args):
    raise AssertionError("built something")


def test_towers_are_cached_by_shape_alone_after_the_budget_check(monkeypatch):
    tower = build_tower(TowerConfig(2, 2, 3))
    # GF(2^8) at level 3: a budget of 2^8 admits it
    for budget in (DEFAULT_FIELD_BUDGET + 1, 256):
        assert build_tower(TowerConfig(2, 2, 3), budget=budget) is tower
    monkeypatch.setattr(tower_module, "_build_tower", _refuse)
    monkeypatch.setattr(fields.ExtensionField, "_build_tables", _refuse)
    for config, budget in (((2, 2, 3), 255), ((2, 2, 5), DEFAULT_FIELD_BUDGET)):
        with pytest.raises(BudgetError, match="exceeds the budget"):
            build_tower(TowerConfig(*config), budget=budget)


def _conjugate_embedding(tower, m):
    """The Frobenius conjugate of level m's stored root in level m + 1: a
    root too, so the JSON describes another valid embedding."""
    upper = tower.level(m + 1)
    root = upper._code(tower.level(m).embedding_up)
    return list(upper._digits(upper.frob_code(root, 1)))


# Planted defects in the JSON the round-trip row reads: a valid description
# of another tower is another tower, and a broken one is refused.
@pytest.mark.parametrize("config,level,key,value", [
    # X^2 + X + 2 is irreducible over GF(3) but not the least, X^2 + 1
    ((2, 3, 1), 1, "defining_polynomial", [2, 1, 1]),
    ((2, 2, 2), 1, "embedding_up", _conjugate_embedding),
], ids=["another-irreducible-modulus", "another-root-embedding"])
def test_json_round_trip_row_fails_on_another_tower(config, level, key, value,
                                                    monkeypatch):
    tower = build_tower(TowerConfig(*config))
    data = tower_to_json(tower)
    if callable(value):
        value = value(tower, level)
    assert data["levels"][level][key] != value
    data["levels"][level][key] = value
    other = tower_from_json(data)
    assert other != tower and tower_to_json(other) == data
    monkeypatch.setattr(verify, "tower_to_json", lambda t: data)
    assert check_tower_json(tower).passed is False


def test_json_round_trip_row_refuses_an_embedding_that_is_no_root(monkeypatch):
    tower = build_tower(TowerConfig(2, 2, 2))
    data = tower_to_json(tower)
    data["levels"][1]["embedding_up"] = [1, 1, 0, 0]  # 1 + X, no root of X^2 + X + 1
    monkeypatch.setattr(verify, "tower_to_json", lambda t: data)
    with pytest.raises(ValueError, match="stored embedding for level 1 is not a root"):
        check_tower_json(tower)


def _drop(key, m):
    def edit(levels):
        del levels[m][key]
    return edit


def _set(key, m, value):
    def edit(levels):
        levels[m][key] = value
    return edit


# each malformed level list of the (2, 2, 2) tower is refused, naming the level
@pytest.mark.parametrize("edit,message", [
    (lambda levels: levels.pop(), "k_max 2 needs levels 0..2, got 2 entries"),
    (lambda levels: levels.append(dict(levels[-1], m=3)),
     "k_max 2 needs levels 0..2, got 4 entries"),
    (_drop("m", 1), "level 1 is listed as m = None"),
    (lambda levels: levels.reverse(), "level 0 is listed as m = 2"),
    (_drop("defining_polynomial", 1), "level 1 polynomial has wrong degree"),
    (_set("embedding_up", 2, [0, 1, 0, 0]),
     "level 2 is the top, so it takes no embedding"),
    (_set("embedding_up", 0, None), "level 0 is missing its embedding"),
    (_drop("embedding_up", 1), "level 1 is missing its embedding"),
], ids=["top-level-removed", "level-past-k_max", "no-m", "levels-out-of-order",
        "no-defining-polynomial", "embedding-on-the-top", "null-embedding",
        "no-embedding"])
def test_json_refuses_a_malformed_level_list(edit, message):
    data = tower_to_json(build_tower(TowerConfig(2, 2, 2)))
    edit(data["levels"])
    with pytest.raises(ValueError) as exc:
        tower_from_json(data)
    assert str(exc.value) == message


def test_json_rejects_corrupt_embedding(tower223):
    data = tower_to_json(tower223)
    data["levels"][0]["embedding_up"] = [1, 1]  # not a root of X
    with pytest.raises(ValueError):
        tower_from_json(data)


def test_json_rejects_malformed_embedding_coordinates(tower223):
    # the root check runs on codes; [code of the root, 0, 0, 0] packs to the
    # root's code too, so only the coordinate check refuses it
    data = tower_to_json(tower223)
    root = tower223.level(2)._code(tower223.level(1).embedding_up)
    for up, match in (([root, 0, 0, 0], r"must lie in \[0, 2\)"),
                      ([0, 0, 0], "needs 4 coordinates")):
        data["levels"][1]["embedding_up"] = up
        with pytest.raises(ValueError, match=match):
            tower_from_json(data)


def test_towers_are_cached():
    assert build_tower(TowerConfig(2, 2, 3)) is build_tower(TowerConfig(2, 2, 3))


def test_large_level_embedding_is_a_root():
    # at order 2^16 the embedding search runs over the copy of level 3 inside
    # level 4 only; validate the root directly
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
        assert t.embed(x.frobenius(1), 4) == t.embed(x, 4).frobenius(1)


# -- reference coordinate arithmetic ------------------------------------------
# The former representation, kept as an oracle for the level tables: a product
# is a convolution followed by reduction by the defining polynomial, and
# Frobenius is repeated q-th powers.


def ref_add(level, a, b):
    return tuple(level.base.add(x, y) for x, y in zip(a, b))


def ref_neg(level, a):
    return tuple(level.base.neg(x) for x in a)


def ref_mul(level, a, b):
    F, d, mod = level.base, level.degree, level.modulus
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = F.add(conv[i + j], F.mul(x, y))
    for i in range(2 * d - 2, d - 1, -1):  # X^i = -X^(i-d) * (mod - X^d)
        c, conv[i] = conv[i], 0
        for j in range(d):
            conv[i - d + j] = F.sub(conv[i - d + j], F.mul(c, mod[j]))
    return tuple(conv[:d])


def ref_pow(level, a, e):
    out = (1,) + (0,) * (level.degree - 1)
    for _ in range(e):
        out = ref_mul(level, out, a)
    return out


def ref_frobenius(level, a, times):
    for _ in range(times):
        a = ref_pow(level, a, level.base.q)
    return a


def assert_matches_reference(level, a, b):
    x, y = a.coords, b.coords
    assert (a * b).coords == ref_mul(level, x, y)
    assert (a + b).coords == ref_add(level, x, y)
    assert (a - b).coords == ref_add(level, x, ref_neg(level, y))
    assert level.sub(a.code, b.code) == (a - b).code


def assert_unary_matches_reference(level, a):
    x = a.coords
    assert (-a).coords == ref_neg(level, x)
    for t in range(level.degree):
        assert level.frobenius(a, t).coords == ref_frobenius(level, x, t)
    assert (a**3).coords == ref_pow(level, x, 3)
    if not a.is_zero():
        assert ref_mul(level, x, a.inverse().coords) == level.one().coords
        assert level.inv(a.code) == a.inverse().code
        assert (a**-2).coords == ref_pow(level, a.inverse().coords, 2)


@pytest.mark.parametrize("p,q,k_max,levels", [(2, 2, 3, 4), (2, 3, 2, 3), (3, 2, 2, 2)])
def test_tables_match_coordinate_arithmetic_exhaustively(p, q, k_max, levels):
    tower = build_tower(TowerConfig(p, q, k_max))
    checked = 0
    for lvl in tower.levels:
        if lvl.order > 256:
            continue
        elements = list(lvl.elements())
        for a in elements:
            assert_unary_matches_reference(lvl, a)
            for b in elements:
                assert_matches_reference(lvl, a, b)
        checked += 1
    assert checked == levels  # every level of at most 256 elements


@pytest.mark.parametrize("p,q,k_max", [(2, 2, 4), (2, 4, 3)])
def test_tables_match_coordinate_arithmetic_at_the_top_level(p, q, k_max):
    lvl = build_tower(TowerConfig(p, q, k_max)).level(k_max)
    assert lvl.order == 1 << 16
    rng = random.Random(31)
    for _ in range(2000):
        a, b = lvl.random_element(rng), lvl.random_element(rng)
        assert_matches_reference(lvl, a, b)
    for _ in range(50):
        a = lvl.random_element(rng, nonzero=True)
        assert ref_mul(lvl, a.coords, a.inverse().coords) == lvl.one().coords
        assert lvl.frobenius(a, 1).coords == ref_frobenius(lvl, a.coords, 1)


@pytest.mark.parametrize("p,q,k_max", [(2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 5, 2)])
def test_products_match_sympy_galois_tools(p, q, k_max):
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def dense(coords):  # sympy lists coefficients highest degree first
        out = list(reversed(coords))
        while out and out[0] == 0:
            out.pop(0)
        return out

    tower = build_tower(TowerConfig(p, q, k_max))
    rng = random.Random(5)
    for lvl in tower.levels:
        modulus = dense(lvl.modulus)
        for _ in range(300):
            a, b = lvl.random_element(rng), lvl.random_element(rng)
            want = gt.gf_rem(gt.gf_mul(dense(a.coords), dense(b.coords), q, ZZ),
                             modulus, q, ZZ)
            assert dense((a * b).coords) == want


def test_table_generator_is_least_code_of_full_order():
    # for (2, 2) the class X generates levels 1 and 2; at level 3 it has
    # order 51 in a group of order 255, so the generator is X + 1
    tower = build_tower(TowerConfig(2, 2, 4))
    assert [lvl.exp[1] for lvl in tower.levels[1:]] == [2, 2, 3, 3]
    x = tower.level(3).generator()
    assert min(e for e in range(1, 256) if (x**e).code == 1) == 51
    for lvl in tower.levels:
        assert sorted(lvl.exp) == list(range(1, lvl.order))
        assert all(lvl.exp[lvl.log[c]] == c for c in range(1, lvl.order))


@pytest.mark.parametrize("config", [(2, 2, 4), (3, 3, 2), (2, 4, 2), (5, 5, 1)],
                         ids=lambda c: "-".join(map(str, c)))
def test_generator_is_the_least_code_of_full_order_by_brute_force(config):
    # the order of each code g = 1, 2, ... is walked by repeated products;
    # the first of order |L| - 1 must be the generator the tables chose
    for lvl in build_tower(TowerConfig(*config)).levels:
        for g in range(1, lvl.order):
            x, order = g, 1
            while x != 1:
                x, order = lvl.mul(x, g), order + 1
            if order == lvl.units:
                break
        assert lvl.exp[1 % lvl.units] == g, (config, lvl.m)


# Parent-commit outputs of tower_to_json; the embedding is the root with the
# least coordinate tuple, which is not the least code.  The q = 1024 and
# q = 729 towers were recorded with the trial-division irreducibility test.
GOLDEN_TOWERS = {
    (2, 2, 4): [
        ([0, 1], [0, 0]),
        ([1, 1, 1], [0, 1, 1, 0]),
        ([1, 1, 0, 0, 1], [0, 0, 0, 0, 0, 1, 1, 1]),
        ([1, 1, 0, 1, 1, 0, 0, 0, 1],
         [0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1]),
        ([1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], None),
    ],
    (2, 3, 3): [
        ([0, 1], [0, 0]),
        ([1, 0, 1], [0, 1, 2, 2]),
        ([2, 1, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1, 0]),
        ([2, 0, 1, 0, 0, 0, 0, 0, 1], None),
    ],
    (3, 2, 2): [
        ([0, 1], [0, 0, 0]),
        ([1, 1, 0, 1], [0, 0, 1, 1, 1, 1, 1, 1, 0]),
        ([1, 1, 0, 0, 0, 0, 0, 0, 0, 1], None),
    ],
    (2, 4, 3): [
        ([0, 1], [0, 0]),
        ([2, 1, 1], [2, 1, 2, 0]),
        ([1, 2, 1, 0, 1], [0, 3, 1, 1, 0, 1, 1, 1]),
        ([2, 1, 0, 1, 0, 0, 0, 0, 1], None),
    ],
    (2, 5, 2): [
        ([0, 1], [0, 0]),
        ([2, 0, 1], [0, 0, 1, 0]),
        ([2, 0, 0, 0, 1], None),
    ],
    (3, 3, 2): [
        ([0, 1], [0, 0, 0]),
        ([1, 2, 0, 1], [0, 0, 1, 0, 2, 0, 2, 0, 0]),
        ([1, 0, 1, 2, 0, 0, 0, 0, 0, 1], None),
    ],
    (2, 1024, 1): [
        ([0, 1], [0, 0]),
        ([128, 1, 1], None),
    ],
    (2, 729, 1): [
        ([0, 1], [0, 0]),
        ([3, 0, 1], None),
    ],
}


@pytest.mark.parametrize("config", sorted(GOLDEN_TOWERS),
                         ids=lambda c: "-".join(map(str, c)))
def test_tower_json_matches_golden(config):
    p, q, k_max = config
    want = {
        "p": p, "q": q, "k_max": k_max,
        "levels": [
            {"m": m, "defining_polynomial": poly, "embedding_up": up}
            for m, (poly, up) in enumerate(GOLDEN_TOWERS[config])
        ],
    }
    got = tower_to_json(build_tower(TowerConfig(p, q, k_max)))
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("config,m,poly,match", [
    ((2, 2, 3), 2, [1, 0, 0, 0, 1], "irreducible"),  # (X + 1)^4
    ((2, 2, 3), 2, [1, 1, 0, 0, 2], "monic"),
    ((2, 2, 3), 2, [1, 5, 0, 0, 1], "monic"),
    # the monic polynomial just before the least irreducible X^2 + X + 128,
    # so reducible, though it has no root 0 or 1
    ((2, 1024, 1), 1, [127, 1, 1], "irreducible"),
], ids=["poly0-irreducible", "poly1-monic", "poly2-monic", "q1024-irreducible"])
def test_json_rejects_bad_polynomial(config, m, poly, match):
    data = tower_to_json(build_tower(TowerConfig(*config)))
    data["levels"][m]["defining_polynomial"] = poly
    with pytest.raises(ValueError, match=match):
        tower_from_json(data)


def test_fixed_field_check_enumerates_large_levels(monkeypatch):
    # level 2 of (2, 17, 2) has 17^4 = 83521 elements; a wrong Frobenius
    # there must fail the check instead of being skipped
    tower = build_tower(TowerConfig(2, 17, 2))
    assert tower.level(2).order == 83521
    assert check_tower_fixed_field(tower).passed
    monkeypatch.setattr(tower.level(2), "frob_code", lambda code, times: code)
    result = check_tower_fixed_field(tower)
    assert not result.passed and "1 failures" in result.detail


def prime_digitwise(r, a, b, sign):
    """Code of a + sign * b added digit by digit mod r on the base-r digits of
    the codes: every field here is built over GF(r) in steps, so this is the
    coordinate sum in any of them."""
    out, power = 0, 1
    while a or b:
        out += (a % r + sign * (b % r)) % r * power
        a, b, power = a // r, b // r, power * r
    return out


@pytest.mark.parametrize("p,q,k_max", [(2, 2, 4), (3, 4, 1), (2, 3, 2), (3, 3, 1), (2, 9, 1)])
@pytest.mark.parametrize("rebuild", [False, True], ids=["build_tower", "tower_from_json"])
def test_bound_sums_match_prime_digit_arithmetic(p, q, k_max, rebuild):
    tower = build_tower(TowerConfig(p, q, k_max))
    if rebuild:  # another budget keys another build: new level objects, each
        # binding its sums afresh
        tower = tower_from_json(json.loads(json.dumps(tower_to_json(tower))),
                                budget=DEFAULT_FIELD_BUDGET + 1)
        assert tower is not build_tower(TowerConfig(p, q, k_max))
    r = tower.level(0).char
    rng = random.Random(f"bound-sums-{p}-{q}-{k_max}")
    for field in [tower.level(0).base] + tower.levels:
        # characteristic 2 binds XOR as add and sub; odd characteristic keeps
        # the Zech methods of the class
        assert (field.add is xor and field.sub is xor) == (r == 2)
        for _ in range(400):
            a, b = rng.randrange(field.order), rng.randrange(field.order)
            assert field.add(a, b) == prime_digitwise(r, a, b, 1)
            assert field.sub(a, b) == prime_digitwise(r, a, b, -1)
            assert field.neg(a) == prime_digitwise(r, 0, a, -1)
