import random

import pytest

from twistlab.fields import (
    BaseField,
    ExtensionField,
    PrimeField,
    factor_prime_power,
    is_irreducible,
    is_prime,
    poly_mod,
)


def prime_powers(limit):
    out = []
    for r in filter(is_prime, range(2, limit + 1)):
        x = r
        while x <= limit:
            out.append(x)
            x *= r
    return sorted(out)


# -- reference q x q tables ---------------------------------------------------
# The former GF(q) construction, kept as an oracle for the code tables: every
# sum and product is tabulated pair by pair, a product as a convolution of the
# base-r digit vectors reduced by the modulus.


def reference_tables(q, modulus):
    r, d = factor_prime_power(q)

    def digits(a):
        return [a // r**i % r for i in range(d)]

    def encode(ds):
        return sum(c * r**i for i, c in enumerate(ds))

    mod = list(modulus[:-1])  # modulus is monic
    add, mul = [0] * (q * q), [0] * (q * q)
    neg = [encode([(-c) % r for c in digits(a)]) for a in range(q)]
    for a in range(q):
        da = digits(a)
        for b in range(q):
            db = digits(b)
            add[a * q + b] = encode([(x + y) % r for x, y in zip(da, db)])
            conv = [0] * (2 * d - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % r
            for i in range(2 * d - 2, d - 1, -1):  # X^d = -(mod - X^d)
                c, conv[i] = conv[i], 0
                for j, mc in enumerate(mod):
                    conv[i - d + j] = (conv[i - d + j] - c * mc) % r
            mul[a * q + b] = encode(conv[:d])
    inv = [0] + [next(b for b in range(1, q) if mul[a * q + b] == 1) for a in range(1, q)]
    return add, mul, neg, inv


@pytest.mark.parametrize("q", prime_powers(128))
def test_code_tables_match_pairwise_tables(q):
    F = BaseField(q)
    add, mul, neg, inv = reference_tables(q, F.modulus)
    for a in range(q):
        assert F.neg(a) == neg[a]
        if a:
            assert F.inv(a) == inv[a]
        for b in range(q):
            assert F.add(a, b) == add[a * q + b]
            assert F.sub(a, b) == add[a * q + neg[b]]
            assert F.mul(a, b) == mul[a * q + b]
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("q", [2048, 4096, 3**7, 5**5])
def test_large_base_fields_build_and_satisfy_the_axioms(q):
    # no order cap: GF(q) is built by the same orbit walk as every level
    F = BaseField(q)
    assert sorted(F.exp) == list(range(1, q))
    rng = random.Random(q)
    for _ in range(2000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0 and F.sub(F.add(a, b), b) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1


def _dense(digits):  # sympy lists coefficients highest degree first
    out = list(reversed(digits))
    while out and out[0] == 0:
        out.pop(0)
    return out


def _sympy_field(q):
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    F = BaseField(q)
    r, d = factor_prime_power(q)
    assert len(F.modulus) == d + 1 and F.modulus[-1] == 1
    modulus = _dense(F.modulus)
    assert gt.gf_irreducible_p(modulus, r, ZZ)
    for code in range(r**d):  # every smaller monic of degree d is reducible
        smaller = [code // r**i % r for i in range(d)] + [1]
        if smaller == list(F.modulus):
            break
        assert not gt.gf_irreducible_p(_dense(smaller), r, ZZ)

    def product(a, b):
        digits = [[x // r**i % r for i in range(d)] for x in (a, b)]
        return gt.gf_rem(gt.gf_mul(_dense(digits[0]), _dense(digits[1]), r, ZZ),
                         modulus, r, ZZ)

    return F, product


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_products_match_sympy_exhaustively(q):
    F, product = _sympy_field(q)
    for a in range(q):
        for b in range(q):
            assert _dense(F._digits(F.mul(a, b))) == product(a, b)


def test_products_match_sympy_at_1024():
    F, product = _sympy_field(1024)
    rng = random.Random(1024)
    for _ in range(2000):
        a, b = rng.randrange(1024), rng.randrange(1024)
        assert _dense(F._digits(F.mul(a, b))) == product(a, b)


# -- reference irreducibility test ----------------------------------------------
# The former is_irreducible, kept as an oracle for Ben-Or's test: trial
# division by every monic polynomial of degree <= deg/2.


def monic_polys(F, degree):
    q = F.q
    for code in range(q**degree):
        yield [code // q**i % q for i in range(degree)] + [1]


def trial_division_irreducible(F, poly):
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by X
        return False
    for j in range(1, deg // 2 + 1):
        for g in monic_polys(F, j):
            if not poly_mod(F, poly, g):
                return False
    return True


@pytest.mark.parametrize("field,q,max_degree", [
    (PrimeField, 2, 8), (BaseField, 2, 8), (PrimeField, 3, 5), (BaseField, 3, 5),
    (BaseField, 4, 3), (BaseField, 9, 3),
], ids=["prime2", "2", "prime3", "3", "4", "9"])
def test_ben_or_matches_trial_division(field, q, max_degree):
    field = field(q)
    for degree in range(max_degree + 1):
        for poly in monic_polys(field, degree):
            assert is_irreducible(field, poly) == trial_division_irreducible(field, poly), poly


@pytest.mark.parametrize("r,max_degree", [(2, 8), (3, 5), (5, 3)])
def test_ben_or_matches_sympy(r, max_degree):
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    F = PrimeField(r)
    for degree in range(1, max_degree + 1):
        for poly in monic_polys(F, degree):
            assert is_irreducible(F, poly) == gt.gf_irreducible_p(_dense(poly), r, ZZ), poly


@pytest.mark.parametrize("q,modulus", [
    (2, [1, 0, 1]),  # (X + 1)^2
    (2, [1, 0, 0, 1]),  # (X + 1)(X^2 + X + 1)
    (3, [2, 0, 1]),  # (X + 1)(X + 2)
    (3, [0, 0, 1]),  # X^2
    (4, [1, 0, 1]),  # (X + 1)^2
])
def test_a_reducible_modulus_is_refused_by_name(q, modulus):
    with pytest.raises(ValueError) as exc:
        ExtensionField(BaseField(q), modulus)
    assert str(exc.value) == f"modulus {modulus} is not irreducible over GF({q})"
