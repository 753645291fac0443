import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import quotient, ring
from twistlab.action import ActionConfig, PAdicExponent, default_action
from twistlab.center import free_basis, is_central_structural, kernel_lattice, recompose
from twistlab.errors import BudgetError, InternalFaultError, NotAUnitError
from twistlab.fields import BaseField
from twistlab.quotient import (
    CentralFraction,
    LaurentPoly,
    _central_multiple,
    _norm_powers,
    _untwisted,
    bareiss_determinant,
    bareiss_solve,
    center_of_quotient_test,
    invert,
    regular_representation,
    splitting_representation,
)
from twistlab.ring import RingContext, _from_codes, parse_element
from twistlab.tower import TowerConfig, build_tower
from twistlab.verify import check_quotient_center, run_all


@pytest.fixture(scope="module")
def lat1(ctx_n1_k1):
    return kernel_lattice(ctx_n1_k1)


def central_to_laurent(z, lattice):
    """A central element with GF(q) coefficients as a Laurent polynomial in
    the lattice basis."""
    field = z.ctx.level.base
    assert all(c < field.q for c in z.codes.values())
    return LaurentPoly(field, len(lattice.basis), {
        lattice.lattice_coordinates(w): c for w, c in z.codes.items()})


def laurent_to_central(poly, ctx, lattice):
    """The element of L[Lambda] with these lattice coordinates, the inverse
    of central_to_laurent."""
    return _from_codes(ctx, {
        lattice.from_lattice_coordinates(e): c for e, c in poly.terms.items()})


def frac(ctx, num, den=None, lat=None):
    return CentralFraction(ctx, num, den if den is not None else ctx.one(), lattice=lat)


# -- Laurent polynomial layer -------------------------------------------------


def random_laurent(rng, field, nvars, terms=3, span=3):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(-span, span) for _ in range(nvars))
        out[e] = rng.randrange(1, field.q)
    return LaurentPoly(field, nvars, out)


def test_laurent_exact_division_round_trip(ctx_n2_k1):
    rng = random.Random(0)
    field = ctx_n2_k1.level.base
    for _ in range(200):
        a = random_laurent(rng, field, 2)
        b = random_laurent(rng, field, 2)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
        assert (a * b).exact_div(a) == b
        assert LaurentPoly.zero(field, 2).exact_div(b).is_zero()


def test_laurent_inexact_division_raises(ctx_n2_k1):
    field = ctx_n2_k1.level.base
    a = LaurentPoly(field, 1, {(0,): 1, (1,): 1})  # 1 + u
    b = LaurentPoly(field, 1, {(0,): 1, (2,): 1})  # 1 + u^2 = (1+u)^2 in char 2
    assert b.exact_div(a) == a
    with pytest.raises(InternalFaultError):
        LaurentPoly(field, 1, {(0,): 1, (3,): 1}).exact_div(
            LaurentPoly(field, 1, {(0,): 1, (2,): 1})
        )


def general_exact_div(a, b):
    """Division after normalizing both operands by their monomial content,
    the path exact_div takes for every divisor of more than one term."""
    F = a.field
    m_a, m_b = a.min_exponents(), b.min_exponents()
    rem = a.shift(tuple(-v for v in m_a)).terms
    b = b.shift(tuple(-v for v in m_b))
    quo = {}
    lead_b, lead_bc = b.leading()
    while rem:
        lead_a = max(rem)
        mono = tuple(x - y for x, y in zip(lead_a, lead_b))
        assert all(v >= 0 for v in mono), "inexact"
        c = quo[mono] = F.mul(rem[lead_a], F.inv(lead_bc))
        for e, d in b.terms.items():
            e = tuple(x + y for x, y in zip(e, mono))
            if v := F.sub(rem.get(e, 0), F.mul(c, d)):
                rem[e] = v
            else:
                del rem[e]
    shift_back = tuple(x - y for x, y in zip(m_a, m_b))
    return LaurentPoly(F, a.nvars, quo).shift(shift_back)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_monomial_divisors_are_units(q):
    rng = random.Random(q)
    field = BaseField(q)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        a = random_laurent(rng, field, nvars, terms=rng.randint(0, 6))
        m = random_laurent(rng, field, nvars, terms=1)
        assert (a * m).exact_div(m) == a
        assert a.exact_div(m) == general_exact_div(a, m)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_norm_powers_by_frobenius_match_repeated_products(p, q):
    # the digits are taken in the characteristic of the coefficients, which
    # is not p at (3, 2) and (2, 3)
    ctx = RingContext(build_tower(TowerConfig(p, q, 1)), default_action(2, p), 1)
    rng = random.Random(10 * p + q)
    for d in range(1, 10):
        nrd = LaurentPoly(ctx.level, 2, {
            (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randrange(1, ctx.level.order)
            for _ in range(rng.randint(1, 4))})
        powers = [LaurentPoly.constant(ctx.level, 2, 1)]
        for _ in range(d):
            powers.append(powers[-1] * nrd)
        assert _norm_powers(ctx.level, _untwisted(ctx.level, 2), nrd.terms, d) == (
            powers[d - 1].terms, powers[d].terms)


def schoolbook_mul(a, b):
    """Product terms through the field's own mul and add, one pair at a time."""
    F = a.field
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = F.add(out.get(e, 0), F.mul(c1, c2))
    return {e: c for e, c in out.items() if c}


# odd characteristic (3, 9 and the level GF(3^4)) adds through the Zech table
MUL_FIELDS = [BaseField(q) for q in (2, 3, 4, 9)] + [
    build_tower(TowerConfig(2, 3, 2)).level(2)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_laurent_mul_on_tables_matches_schoolbook(data):
    field = data.draw(st.sampled_from(MUL_FIELDS))
    nvars = data.draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(-2, 2)] * nvars)
    terms = st.dictionaries(exponents, st.integers(0, field.order - 1), max_size=5)
    a = LaurentPoly(field, nvars, data.draw(terms))
    b = LaurentPoly(field, nvars, data.draw(terms))
    assert (a * b).terms == schoolbook_mul(a, b)


def test_bareiss_determinant_small_cases(ctx_n2_k1):
    field = ctx_n2_k1.level.base
    one = LaurentPoly.constant(field, 1, 1)
    zero = LaurentPoly.zero(field, 1)
    u = LaurentPoly(field, 1, {(1,): 1})
    assert bareiss_determinant([[one]]) == one
    assert bareiss_determinant([[one, u], [u, one]]) == one + (-(u * u))
    assert bareiss_determinant([[zero, one], [one, zero]]) == -one
    assert bareiss_determinant([[u, u], [u, u]]).is_zero()


def test_bareiss_matches_cofactor_expansion(ctx_n2_k1):
    # oracle: direct cofactor expansion over the Laurent ring for 3x3 inputs
    rng = random.Random(9)
    field = ctx_n2_k1.level.base

    def cofactor_det(m):
        if len(m) == 1:
            return m[0][0]
        out = LaurentPoly.zero(field, m[0][0].nvars)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = m[0][j] * cofactor_det(minor)
            out = out + term if j % 2 == 0 else out - term
        return out

    for _ in range(50):
        mat = [
            [random_laurent(rng, field, 2, terms=2, span=2) for _ in range(3)]
            for _ in range(3)
        ]
        assert bareiss_determinant(mat) == cofactor_det(mat)


def random_matrix(rng, field, nvars, size):
    """A small Laurent matrix; some are singular, some need a row swap."""
    mat = [
        [random_laurent(rng, field, nvars, terms=rng.randint(0, 2), span=2)
         for _ in range(size)]
        for _ in range(size)
    ]
    shape = rng.randrange(4)
    if shape == 0 and size > 1:
        # a zero leading entry forces a row swap at the first step
        mat[0][0] = LaurentPoly.zero(field, nvars)
    elif shape == 1 and size > 1:
        # a row that is a monomial multiple of another: singular
        mono = LaurentPoly(field, nvars, {(1,) * nvars: rng.randrange(1, field.q)})
        mat[-1] = [mono * e for e in mat[0]]
    return mat


def cramer_reference(mat, rhs):
    """N_j = det(M with column j replaced by rhs), as the solve promises."""
    n = len(mat)
    return [
        bareiss_determinant(
            [[rhs[a] if b == j else mat[a][b] for b in range(n)] for a in range(n)]
        )
        for j in range(n)
    ]


@pytest.mark.parametrize("q", [3, 5])
def test_bareiss_determinant_matches_sympy(q):
    # independent oracle: sympy's determinant over Z[u], reduced mod q, of the
    # matrix with each row's negative exponents cleared by a monomial factor
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20 + q)
    field = BaseField(q)
    for case in range(40):
        nvars = 1 + case % 2
        size = 1 + case % 5
        mat = random_matrix(rng, field, nvars, size)
        gens = sympy.symbols(f"u1:{nvars + 1}")
        shifts = [tuple(-v for v in LaurentPoly(field, nvars, {
            e: 1 for entry in row for e in entry.terms}).min_exponents())
            for row in mat]
        cleared = [[entry.shift(sh) for entry in row] for row, sh in zip(mat, shifts)]

        def to_expr(poly):
            out = 0
            for e, c in poly.terms.items():
                mono = c
                for g, a in zip(gens, e):
                    mono = mono * g**a
                out += mono
            return out

        expected = sympy.Matrix(
            [[to_expr(x) for x in row] for row in cleared]
        ).det(method="berkowitz")
        expected_terms = {
            e: int(c) % q
            for e, c in sympy.Poly(sympy.expand(expected), *gens).terms()
            if int(c) % q
        }
        total = tuple(sum(col) for col in zip(*shifts))
        got = bareiss_determinant(mat).shift(total)
        assert got.terms == expected_terms, (case, mat)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_bareiss_solve_matches_cramer(q):
    rng = random.Random(30 + q)
    field = BaseField(q)
    solved = singular = 0
    for case in range(120):
        nvars = 1 + case % 2
        size = 1 + case % 5
        mat = random_matrix(rng, field, nvars, size)
        one = LaurentPoly.constant(field, nvars, 1)
        zero = LaurentPoly.zero(field, nvars)
        e1 = [one] + [zero] * (size - 1)
        rhs = e1 if case % 3 else [
            random_laurent(rng, field, nvars, terms=2, span=2) for _ in range(size)
        ]
        det, sol = bareiss_solve(mat, rhs)
        assert det == bareiss_determinant(mat)
        if det.is_zero():
            assert sol is None
            singular += 1
            continue
        solved += 1
        assert sol == cramer_reference(mat, rhs)
        for a in range(size):
            acc = zero
            for b in range(size):
                acc = acc + mat[a][b] * sol[b]
            assert acc == det * rhs[a]
    assert solved > 50 and singular > 10


def test_bareiss_solve_row_swap_sign():
    # [[0, 1], [1, 0]] over GF(3): det = -1, and M N = det * e1 needs N = (0, -1)
    field = BaseField(3)
    one, zero = LaurentPoly.constant(field, 1, 1), LaurentPoly.zero(field, 1)
    det, sol = bareiss_solve([[zero, one], [one, zero]], [one, zero])
    assert det == -one
    assert sol == [zero, -one]
    assert bareiss_solve([[one]]) == (one, None)


def test_central_laurent_round_trip(ctx_n2_k2):
    rng = random.Random(1)
    lat = kernel_lattice(ctx_n2_k2)
    from twistlab.ring import RingElement

    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            coords = tuple(rng.randint(-2, 2) for _ in lat.basis)
            terms[lat.from_lattice_coordinates(coords)] = ctx_n2_k2.level.from_base(1)
        z = RingElement(ctx_n2_k2, terms)
        poly = central_to_laurent(z, lat)
        assert laurent_to_central(poly, ctx_n2_k2, lat) == z


# -- fractions ----------------------------------------------------------------


def test_fraction_cancellation_laws(ctx_n1_k1, lat1):
    rng = random.Random(2)
    one = frac(ctx_n1_k1, ctx_n1_k1.one(), lat=lat1)
    for _ in range(50):
        r = ctx_n1_k1.random_element(rng)
        z = ctx_n1_k1.monomial(1, lat1.basis[0]) + ctx_n1_k1.one()
        rz = frac(ctx_n1_k1, r, z, lat1)
        # r/1 * 1/z == r/z and (r/z) * (z/1) == r/1
        assert frac(ctx_n1_k1, r, lat=lat1) * frac(
            ctx_n1_k1, ctx_n1_k1.one(), z, lat1
        ) == rz
        assert rz * frac(ctx_n1_k1, z, lat=lat1) == frac(ctx_n1_k1, r, lat=lat1)
        assert rz + (-rz) == frac(ctx_n1_k1, ctx_n1_k1.zero(), lat=lat1)
    assert one * one == one


def test_fraction_ring_laws_fuzz(ctx_n1_k1, lat1):
    rng = random.Random(7)
    t_plus_1 = ctx_n1_k1.monomial(1, lat1.basis[0]) + ctx_n1_k1.one()

    def sample():
        num = ctx_n1_k1.random_element(rng, max_terms=2)
        den = ctx_n1_k1.one() if rng.random() < 0.5 else t_plus_1
        return CentralFraction(ctx_n1_k1, num, den, lattice=lat1)

    for _ in range(100):
        f, g, h = sample(), sample(), sample()
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (g + h) * f == g * f + h * f


def test_fraction_rejects_noncentral_denominator(ctx_n1_k1, lat1):
    theta = ctx_n1_k1.scalar(ctx_n1_k1.theta())
    with pytest.raises(ValueError):
        CentralFraction(ctx_n1_k1, ctx_n1_k1.one(), theta, lattice=lat1)
    with pytest.raises(ZeroDivisionError):
        CentralFraction(ctx_n1_k1, ctx_n1_k1.one(), ctx_n1_k1.zero(), lattice=lat1)


def test_cross_level_lift_preserves_value(ctx_n1_k1, lat1):
    ctx2 = ctx_n1_k1.lift_level(2)
    lat2 = kernel_lattice(ctx2)
    x = ctx_n1_k1.gen(1)
    f = frac(ctx_n1_k1, x, lat=lat1)
    lifted = f.lift_to(ctx2)
    direct = frac(ctx2, ctx2.gen(1), lat=lat2)
    assert lifted == direct


def test_cross_level_lift_redenominates(ctx_n1_k1, lat1):
    # x1^2 is central at level 1 but twists at level 2: the lifted fraction
    # needs a new central denominator, and must still equal the original
    ctx2 = ctx_n1_k1.lift_level(2)
    lat2 = kernel_lattice(ctx2)
    z = ctx_n1_k1.gen(1) ** 2
    r = ctx_n1_k1.one() + ctx_n1_k1.gen(1)
    f = CentralFraction(ctx_n1_k1, r, z, lattice=lat1)
    lifted = f.lift_to(ctx2)
    assert is_central_structural(lifted.den, lat2)
    # cross-check: lifted == (lift r) / (lift z) via num * den identities
    assert lifted.num * z.lift_to(ctx2) == lifted.den * r.lift_to(ctx2)


def test_regular_representation_of_identity_and_center(ctx_n1_k1, lat1):
    fb = free_basis(ctx_n1_k1, lat1)
    mat = regular_representation(ctx_n1_k1.one(), fb, lat1)
    for a in range(fb.size()):
        for b in range(fb.size()):
            expect = ctx_n1_k1.one() if a == b else ctx_n1_k1.zero()
            assert mat[a][b] == expect
    z = ctx_n1_k1.monomial(1, lat1.basis[0])
    matz = regular_representation(z, fb, lat1)
    for a in range(fb.size()):
        for b in range(fb.size()):
            assert matz[a][b] == (z if a == b else ctx_n1_k1.zero())


def test_regular_representation_is_multiplicative(ctx_n1_k1, lat1):
    rng = random.Random(3)
    fb = free_basis(ctx_n1_k1, lat1)
    size = fb.size()
    for _ in range(100):
        r = ctx_n1_k1.random_element(rng, max_terms=2)
        s = ctx_n1_k1.random_element(rng, max_terms=2)
        mr = regular_representation(r, fb, lat1)
        ms = regular_representation(s, fb, lat1)
        mrs = regular_representation(r * s, fb, lat1)
        for a in range(size):
            for b in range(size):
                acc = ctx_n1_k1.zero()
                for c in range(size):
                    acc = acc + mr[a][c] * ms[c][b]
                assert acc == mrs[a][b]


def test_determinant_never_vanishes_for_nonzero_elements(ctx_n1_k1, lat1):
    rng = random.Random(4)
    fb = free_basis(ctx_n1_k1, lat1)
    for _ in range(30):
        r = ctx_n1_k1.random_element(rng)
        mat = regular_representation(r, fb, lat1)
        lmat = [[central_to_laurent(e, lat1) for e in row] for row in mat]
        assert not bareiss_determinant(lmat).is_zero()


def test_invert_homogeneous_numerator(ctx_n1_k1, lat1):
    x = ctx_n1_k1.gen(1)
    g = invert(frac(ctx_n1_k1, x, lat=lat1))
    assert g.num == x.invert_unit()
    assert g.den == ctx_n1_k1.one()


# -- reference inversion of a unit numerator ----------------------------------------
# The former homogeneous branch of invert, kept as an oracle: c x^g / z inverts
# to z (c x^g)^(-1) / 1, with no reduced norm formed.


def normalized(f, lat):
    """Divide out the denominator's monomial content and make its lex-leading
    coefficient 1, through a ring product by that unit."""
    den_poly = central_to_laurent(f.den, lat)
    content = den_poly.min_exponents()
    base = f.ctx.level.base
    inv_lead = base.inv(den_poly.leading()[1])
    new_den = LaurentPoly(base, den_poly.nvars, {
        e: base.mul(inv_lead, c)
        for e, c in den_poly.shift(tuple(-v for v in content)).terms.items()})
    mono_word = lat.from_lattice_coordinates(tuple(-v for v in content))
    unit = f.ctx.monomial(f.ctx.level.from_base(inv_lead), mono_word)
    return CentralFraction(
        f.ctx, unit * f.num, laurent_to_central(new_den, f.ctx, lat), lattice=lat)


def reference_invert_homogeneous(f, lat):
    inv = f.den * f.num.invert_unit()
    return normalized(CentralFraction(f.ctx, inv, f.ctx.one(), lattice=lat), lat)


@pytest.mark.parametrize("p,q,n,k", [(2, 2, n, k) for n in (1, 2) for k in range(4)]
                         + [(2, 3, 1, k) for k in range(4)]
                         + [(3, 2, 2, k) for k in range(3)])
def test_invert_homogeneous_numerators_match_unit_inverse(p, q, n, k):
    tower = build_tower(TowerConfig(p, q, max(k, 1)))
    ctx = RingContext(tower, default_action(n, p), k)
    lat = kernel_lattice(ctx)
    rng = random.Random(100 * k + 10 * n + p)
    for _ in range(4):
        num = ctx.random_element(rng, max_terms=1)
        central = ctx.monomial(ctx.level.from_base(rng.randrange(1, q)),
                               lat.from_lattice_coordinates(
                                   [rng.randint(-2, 2) for _ in range(n)]))
        for den in (ctx.one(), central, central + ctx.one()):
            if den.is_zero():
                continue
            f = CentralFraction(ctx, num, den, lattice=lat)
            got, want = invert(f), reference_invert_homogeneous(f, lat)
            assert (got.num.to_literal(), got.den.to_literal()) == (
                want.num.to_literal(), want.den.to_literal())


def test_invert_one_plus_x1(ctx_n1_k1, lat1):
    f = frac(ctx_n1_k1, ctx_n1_k1.one() + ctx_n1_k1.gen(1), lat=lat1)
    g = invert(f)
    one = frac(ctx_n1_k1, ctx_n1_k1.one(), lat=lat1)
    assert f * g == one and g * f == one
    # hand value: (1+x1)^2 = 1 + x1^2 is central, so (1+x1)/(1+x1^2) inverts f
    hand = CentralFraction(
        ctx_n1_k1,
        ctx_n1_k1.one() + ctx_n1_k1.gen(1),
        ctx_n1_k1.one() + ctx_n1_k1.gen(1) ** 2,
        lattice=lat1,
    )
    assert g == hand


def test_invert_random_fractions_and_involution(ctx_n1_k1, lat1):
    rng = random.Random(5)
    one = frac(ctx_n1_k1, ctx_n1_k1.one(), lat=lat1)
    for _ in range(30):
        num = ctx_n1_k1.random_element(rng, max_terms=2)
        den = ctx_n1_k1.monomial(1, lat1.basis[0]) + ctx_n1_k1.one()
        f = CentralFraction(ctx_n1_k1, num, den, lattice=lat1)
        g = invert(f)
        assert f * g == one
        assert invert(g) == f


def test_invert_rejects_zero_and_inverts_at_rank_3(ctx_n1_k1, lat1, tower223):
    with pytest.raises(NotAUnitError):
        invert(frac(ctx_n1_k1, ctx_n1_k1.zero(), lat=lat1))
    ctx3 = RingContext(tower223, default_action(3, 2), 1)
    f = frac(ctx3, ctx3.one() + ctx3.gen(1))
    one = frac(ctx3, ctx3.one())
    assert f * invert(f) == one and invert(f) * f == one


BULKY = "1 + x1 + x1^2 + x1^3 + x1^5"  # 5 terms at degree 8: 5^8 > 2^17


def metered_charges(monkeypatch):
    """(kernel name, pairs) of every charge made inside a budget, in order."""
    charges, charge = [], ring._Meter.charge

    def spy(meter, pairs):
        if meter.cap is not None:
            charges.append((sys._getframe(1).f_code.co_name, pairs))
        charge(meter, pairs)

    monkeypatch.setattr(ring._Meter, "charge", spy)
    return charges


def test_bulky_numerator_inverts_under_the_cap(tower223, monkeypatch):
    # the size estimate |supp(s)|^d refused this; measured, it is small work
    ctx = RingContext(tower223, default_action(1, 2), 3)
    f = frac(ctx, parse_element(ctx, BULKY))
    charges = metered_charges(monkeypatch)
    g = invert(f)
    one = frac(ctx, ctx.one())
    assert f * g == one and g * f == one
    # Bareiss products and divisions, and the ring products after it
    assert {kernel for kernel, _ in charges} == {"_mul", "_div", "_mul_codes"}
    assert sum(p for _, p in charges) < quotient.INVERSION_CAP // 1000


def test_each_kernel_call_charges_the_term_pairs_it_forms(tower223, monkeypatch):
    ctx = RingContext(tower223, default_action(1, 2), 3)
    f = frac(ctx, parse_element(ctx, BULKY))
    formed = []

    def recount(module, name, pairs):
        kernel = getattr(module, name)

        def wrapped(*args):
            out = kernel(*args)
            formed.append(pairs(*args[-3 if name == "_mul_codes" else -2:], out))
            return out

        monkeypatch.setattr(module, name, wrapped)

    recount(ring, "_mul_codes", lambda a, b, into, out: len(a) * len(b))
    recount(quotient, "_mul", lambda a, b, out: len(a) * len(b))
    # a one-term divisor scales each term once; otherwise each quotient term
    # meets every divisor term
    recount(quotient, "_div", lambda a, b, out: len(a) if len(b) == 1 else len(out) * len(b))
    charges = metered_charges(monkeypatch)
    invert(f)
    assert sum(p for _, p in charges) == sum(formed) > 0


@pytest.mark.parametrize("cap", [0, 50, 1000])
def test_refused_inversion_stops_within_one_kernel_call(tower223, monkeypatch, cap):
    ctx = RingContext(tower223, default_action(1, 2), 3)
    f = frac(ctx, parse_element(ctx, BULKY))
    monkeypatch.setattr(quotient, "INVERSION_CAP", cap)
    charged = metered_charges(monkeypatch)
    with pytest.raises(BudgetError, match=rf"^work cap of {cap} term pairs exceeded: "
                       r"\d+ counted$") as exc:
        invert(f)
    charges = [p for _, p in charged]
    used = int(str(exc.value).split()[-2])
    # the call that crossed the cap was the last one; the reading is at most
    # the cap plus that call's work
    assert used == sum(charges) and sum(charges[:-1]) <= cap < used
    assert used <= cap + charges[-1]
    assert ring._METER.cap is None  # the budget closes on the way out


def test_budgets_refuse_to_nest_and_keep_the_outer_cap():
    meter = ring._METER
    with meter.budget(100):
        meter.charge(60)
        with pytest.raises(InternalFaultError, match="work cap of 100 term pairs is open"):
            meter.budget(10**9)
        # the refused inner budget neither reset the reading nor lifted the cap
        assert (meter.used, meter.cap) == (60, 100)
        with pytest.raises(BudgetError, match="work cap of 100 term pairs exceeded: 110"):
            meter.charge(50)
    assert meter.cap is None


def test_redenominating_lift_is_metered_and_nothing_else_is(ctx_n1_k1, lat1,
                                                            monkeypatch):
    ctx2 = ctx_n1_k1.lift_level(2)
    r = ctx_n1_k1.one() + ctx_n1_k1.gen(1)
    f = CentralFraction(ctx_n1_k1, r, ctx_n1_k1.gen(1) ** 2, lattice=lat1)
    monkeypatch.setattr(quotient, "INVERSION_CAP", 0)
    with pytest.raises(BudgetError):
        f.lift_to(ctx2)
    # no cap outside inversion and re-denomination: ring and Laurent products,
    # central liftings and the Bareiss solve run as before
    assert r * r == ctx_n1_k1.one() + ctx_n1_k1.gen(1) ** 2
    assert frac(ctx_n1_k1, r, lat=lat1).lift_to(ctx2).num == r.lift_to(ctx2)
    field = BaseField(2)
    one = LaurentPoly.constant(field, 1, 1)
    u = LaurentPoly(field, 1, {(1,): 1})
    assert bareiss_solve([[one, u], [u, one]])[0] == one + u * u


@pytest.mark.parametrize("n,k,literal", [
    (1, 4, "1 + t*x1^3"),  # d = 16
    (4, 3, "1 + x1*x3 + t*x2*x4^-1"),  # rank 4, d = 8
])
def test_invert_at_level_4_and_rank_4(n, k, literal):
    ctx = RingContext(build_tower(TowerConfig(2, 2, k)), default_action(n, 2), k)
    f = frac(ctx, parse_element(ctx, literal))
    g = invert(f)
    one = frac(ctx, ctx.one())
    assert f * g == one and g * f == one


# -- the degree-p^k splitting against the p^(2k) regular representation --------


def reference_central_multiple(s, ctx, lat):
    """The p^(2k) path: left multiplication on the free center-module basis,
    then one Bareiss solve of [M | e_1] for the determinant and the adjugate
    column."""
    fb = free_basis(ctx, lat)
    mat = [[central_to_laurent(e, lat) for e in row]
           for row in regular_representation(s, fb, lat)]
    one = LaurentPoly.constant(mat[0][0].field, mat[0][0].nvars, 1)
    e1 = [one] + [LaurentPoly.zero(one.field, one.nvars)] * (len(mat) - 1)
    det, adj = bareiss_solve(mat, e1)
    s_prime = recompose([laurent_to_central(c, ctx, lat) for c in adj], fb)
    return s_prime, laurent_to_central(det, ctx, lat), det


def context(p, q, k, n):
    return RingContext(build_tower(TowerConfig(p, q, k)), default_action(n, p), k)


ORACLE_CASES = [
    (2, 2, 1, 1, 6), (2, 2, 2, 1, 4), (2, 2, 3, 1, 2),
    (2, 2, 1, 2, 6), (2, 2, 2, 2, 3), (2, 2, 1, 3, 4),
    (3, 2, 1, 1, 4), (3, 2, 1, 2, 3),
    (2, 3, 1, 1, 4), (2, 3, 2, 1, 2),
    (3, 3, 1, 1, 3),
]


@pytest.mark.parametrize("p,q,k,n,count", ORACLE_CASES)
def test_central_multiple_matches_regular_representation(p, q, k, n, count):
    # the returned pair is exactly the p^(2k) adjugate column and
    # determinant, and that determinant is Nrd^(p^k)
    ctx = context(p, q, k, n)
    lat = kernel_lattice(ctx)
    d = p**k
    rng = random.Random(1000 * p + 100 * q + 10 * k + n)
    for _ in range(count):
        s = ctx.random_element(rng, max_terms=3, min_terms=2)
        s_prime, w, det = reference_central_multiple(s, ctx, lat)
        assert _central_multiple(s, ctx, lat) == (s_prime, w)
        nrd, _ = bareiss_solve(reference_splitting(s, lat))
        power = LaurentPoly.constant(nrd.field, nrd.nvars, 1)
        for _ in range(d):
            power = power * nrd
        assert power == det


def reference_invert(f, lat):
    """The former invert: clear the numerator through _central_multiple, then
    normalize f.den s' / w by a ring product with the denominator's unit."""
    s, w = _central_multiple(f.num, f.ctx, lat)
    return normalized(CentralFraction(f.ctx, f.den * s, w, lattice=lat), lat)


@pytest.mark.parametrize("p,q,k,n,count", ORACLE_CASES)
def test_invert_matches_reference_bytes(p, q, k, n, count):
    # normalization folded into the central factor keeps every byte of the
    # normalized central multiple, over the denominators 1, c u^a and 1 + c u^a
    ctx = context(p, q, k, n)
    lat = kernel_lattice(ctx)
    rng = random.Random(2000 * p + 200 * q + 20 * k + n)
    for _ in range(count):
        num = ctx.random_element(rng, max_terms=3)
        central = ctx.monomial(ctx.level.from_base(rng.randrange(1, q)),
                               lat.from_lattice_coordinates(
                                   [rng.randint(-2, 2) for _ in range(n)]))
        for den in (ctx.one(), central, central + ctx.one()):
            if den.is_zero():
                continue
            f = CentralFraction(ctx, num, den, lattice=lat)
            got, want = invert(f), reference_invert(f, lat)
            assert (got.num.to_literal(), got.den.to_literal()) == (
                want.num.to_literal(), want.den.to_literal())


# -- the former inversion on LaurentPoly, kept as an oracle --------------------
# Before central values stayed {Lambda-word: code} dicts, invert built rho(s),
# Nrd(s), the adjugate column and the norm powers as LaurentPoly objects in
# lattice coordinates, read the adjugate back through from_lattice_coordinates
# and normalized by a LaurentPoly product with the unit.


def reference_splitting(s, lat):
    """rho(s) with LaurentPoly entries keyed by lattice coordinates."""
    ctx, reps = s.ctx, lat.box_representatives()
    slot = {w: (i, -ctx.word_exponent(w)) for i, w in enumerate(reps)}
    entries = [[{} for _ in reps] for _ in reps]
    for w, c in s.codes.items():
        for j, wj in enumerate(reps):
            wi, lam = lat.reduce(ctx.add_words(w, wj))
            i, neg_e = slot[wi]
            entries[i][j][lam] = ctx.level.frob_code(c, neg_e)
    return [[LaurentPoly(ctx.level, len(lat.basis), e) for e in row] for row in entries]


def splitting_view(s, lat):
    """splitting_representation with every entry viewed in lattice coordinates."""
    return [[LaurentPoly(s.ctx.level, len(lat.basis),
                         {lat.lattice_coordinates(w): c for w, c in e.items()})
             for e in row] for row in splitting_representation(s, lat)]


def reference_norm_powers(nrd, d):
    F, r = nrd.field, nrd.field.char

    def power(m):
        out, t = LaurentPoly.constant(F, nrd.nvars, 1), 1
        while m:
            m, digit = divmod(m, r)
            for _ in range(digit):
                out = out * LaurentPoly(F, nrd.nvars, {
                    tuple(t * v for v in e): F.exp[F.log[c] * t % F.units]
                    for e, c in nrd.terms.items()})
            t *= r
        return out

    return power(d - 1), power(d)


def reference_laurent_invert(f, lat):
    ctx = f.ctx
    one = LaurentPoly.constant(ctx.level, len(lat.basis), 1)
    e0 = [one] + [LaurentPoly.zero(ctx.level, one.nvars)] * (lat.index - 1)
    nrd, adj = bareiss_solve(reference_splitting(f.num, lat), e0)
    codes = {}
    for wi, a in zip(lat.box_representatives(), adj):
        e = ctx.word_exponent(wi)
        for v, c in a.terms.items():
            word = ctx.add_words(wi, lat.from_lattice_coordinates(v))
            codes[word] = ctx.level.frob_code(c, e)
    s_adj = _from_codes(ctx, codes)
    power, norm = reference_norm_powers(nrd, lat.index)
    u = LaurentPoly(ctx.level, nrd.nvars, {
        tuple(-v for v in norm.min_exponents()): ctx.level.inv(norm.leading()[1])})
    num = f.den * s_adj * laurent_to_central(power * u, ctx, lat)
    return num, laurent_to_central(norm * u, ctx, lat)


# the default actions have diagonal kernel lattices, where the monomial content
# in words and in lattice coordinates agree; exponents 1 and 1 + 2^3 at p = 2
# give the skewed bases (1, 1), (0, 2) at k = 1 and (1, -1), (0, 4) at k = 2
SKEW = (PAdicExponent.one(), PAdicExponent.from_positions([0, 3]))
LAURENT_ORACLE_CASES = [(2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 1, 2), (2, 2, 2, 2),
                        (2, 4, 1, 1), (3, 3, 1, 1), (2, 2, 2, 1, SKEW),
                        (2, 2, 2, 2, SKEW), (2, 4, 2, 1, SKEW)]


def seeded_fractions(p, q, n, k, exponents=None, count=4):
    ctx = context(p, q, k, n) if exponents is None else RingContext(
        build_tower(TowerConfig(p, q, k)), ActionConfig(n, p, exponents), k)
    lat = kernel_lattice(ctx)
    rng = random.Random(3000 * p + 300 * q + 30 * n + k)
    for _ in range(count):
        num = ctx.random_element(rng, max_terms=3, min_terms=2)
        central = ctx.monomial(ctx.level.from_base(rng.randrange(1, q)),
                               lat.from_lattice_coordinates(
                                   [rng.randint(-2, 2) for _ in range(n)]))
        for den in (ctx.one(), central, central + ctx.one()):
            if not den.is_zero():
                yield CentralFraction(ctx, num, den, lattice=lat), lat


@pytest.mark.parametrize("case", LAURENT_ORACLE_CASES, ids=lambda c: "-".join(
    map(str, c[:4])) + "-skew" * (len(c) > 4))
def test_invert_matches_former_laurent_path(case):
    for f, lat in seeded_fractions(*case):
        got = invert(f)
        num, den = reference_laurent_invert(f, lat)
        assert (got.num.to_literal(), got.den.to_literal()) == (
            num.to_literal(), den.to_literal())


def test_invert_constructs_no_laurent_poly(monkeypatch):
    calls, init = [], LaurentPoly.__init__
    monkeypatch.setattr(LaurentPoly, "__init__",
                        lambda self, *a: calls.append(a) or init(self, *a))
    for case in LAURENT_ORACLE_CASES:
        for f, lat in seeded_fractions(*case, count=2):
            invert(f)
            _central_multiple(f.num, f.ctx, lat)
    assert calls == []
    LaurentPoly.constant(BaseField(2), 1, 1)  # the counter sees a view
    assert len(calls) == 1


def test_wrong_adjugate_entry_fails_reduced_norm_check(ctx_n1_k1, lat1, monkeypatch):
    f = frac(ctx_n1_k1, ctx_n1_k1.one() + ctx_n1_k1.gen(1), lat=lat1)
    invert(f)
    solve = quotient._bareiss

    def corrupted(field, add, mul, matrix, rhs=None):
        det, adj = solve(field, add, mul, matrix, rhs)
        return det, [quotient._combine(field.add, adj[0], {(0,): 1})] + adj[1:]

    monkeypatch.setattr(quotient, "_bareiss", corrupted)
    with pytest.raises(InternalFaultError, match="reduced-norm verification failed"):
        invert(f)


def test_numerator_off_its_denominator_fails_inverse_check(ctx_n1_k1, lat1,
                                                           monkeypatch):
    f = frac(ctx_n1_k1, ctx_n1_k1.one() + ctx_n1_k1.gen(1), lat=lat1)
    invert(f)
    reduced_norm = quotient._reduced_norm

    def corrupted(s, ctx, lattice):
        s_adj, *powers = reduced_norm(s, ctx, lattice)
        return (s_adj + ctx.one(), *powers)

    monkeypatch.setattr(quotient, "_reduced_norm", corrupted)
    with pytest.raises(InternalFaultError, match="inverse verification failed"):
        invert(f)


def mat_mul(a, b):
    zero = LaurentPoly.zero(a[0][0].field, a[0][0].nvars)
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = zero
            for x, col in zip(row, b):
                acc = acc + x * col[j]
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("p,k,n", [(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1)])
def test_splitting_representation_is_multiplicative_on_basis_monomials(p, k, n):
    ctx = context(p, 2, k, n)
    lat = kernel_lattice(ctx)
    d = p**k
    theta = ctx.theta()
    monomials = [ctx.monomial(theta**a, w)
                 for a in range(d) for w in lat.box_representatives()]
    assert len(monomials) == d * d
    rho = {id(m): splitting_view(m, lat) for m in monomials}
    for x in monomials:
        assert rho[id(x)] == reference_splitting(x, lat)
        for y in monomials:
            assert mat_mul(rho[id(x)], rho[id(y)]) == splitting_view(x * y, lat)
    assert splitting_view(ctx.one(), lat) == [
        [LaurentPoly.constant(ctx.level, n, 1 if i == j else 0) for j in range(d)]
        for i in range(d)
    ]


def test_ore_fractions_reduce_to_central_denominators(ctx_n1_k1, lat1):
    # any r * s^(-1) equals a central fraction: clear s through its central
    # multiple and check the rewriting by cross-multiplication
    rng = random.Random(6)
    for _ in range(20):
        r = ctx_n1_k1.random_element(rng, max_terms=2)
        s = ctx_n1_k1.random_element(rng, max_terms=2)
        if s.is_zero():
            continue
        s_prime, w = _central_multiple(s, ctx_n1_k1, lat1)
        assert is_central_structural(w, lat1) and not w.is_zero()
        assert s * s_prime == w and s_prime * s == w
        # r s^(-1) = (r s') / w  <=>  (r s') * s == w * r
        num = r * s_prime
        assert num * s == w * r


def test_normalized_denominator_is_monic_and_content_free(ctx_n1_k1, lat1):
    t_word = lat1.basis[0]
    den = ctx_n1_k1.monomial(1, tuple(-a for a in t_word)) + ctx_n1_k1.monomial(
        1, t_word
    )
    f = CentralFraction(ctx_n1_k1, ctx_n1_k1.gen(1), den, lattice=lat1)
    for g in (normalized(f, lat1), invert(invert(f))):
        poly = central_to_laurent(g.den, lat1)
        assert poly.min_exponents() == (0,)
        _, lead = poly.leading()
        assert lead == 1
        assert g == f


@pytest.mark.parametrize("p,q,k,n", [(2, 2, 1, 1), (2, 2, 1, 2), (3, 2, 1, 1),
                                     (2, 3, 1, 2), (3, 3, 1, 1), (2, 4, 1, 1),
                                     (2, 2, 2, 1)])
def test_invert_denominator_is_monic_and_content_free(p, q, k, n):
    # invert folds the normalizing unit into its central factor: the returned
    # denominator has no monomial content and lex-leading coefficient 1, also
    # where the raw Nrd^d has content, or a leading coefficient other than 1
    # (a d-th power in GF(q), so only where GF(q)* has d-th powers besides 1)
    ctx = context(p, q, k, n)
    lat = kernel_lattice(ctx)
    one = frac(ctx, ctx.one(), lat=lat)
    rng = random.Random(40 + 10 * p + q + k + n)
    raw_content = raw_lead = 0
    for _ in range(12):
        num = ctx.random_element(rng, max_terms=3, min_terms=2)
        f = frac(ctx, num, lat=lat)
        g = invert(f)
        poly = central_to_laurent(g.den, lat)
        assert poly.min_exponents() == (0,) * n
        assert poly.leading()[1] == 1
        assert f * g == one
        raw = central_to_laurent(_central_multiple(num, ctx, lat)[1], lat)
        raw_content += any(raw.min_exponents())
        raw_lead += raw.leading()[1] != 1
    assert raw_content > 0
    assert raw_lead > 0 or math.gcd(p**k, q - 1) == q - 1


def test_center_probe_base_field_passes(ctx_n1_k1, lat1):
    for c in range(1, 2):
        f = frac(ctx_n1_k1, ctx_n1_k1.scalar(ctx_n1_k1.level.from_base(c)), lat=lat1)
        for probe in (1, 2, 3):
            assert center_of_quotient_test(f, probe)


def test_center_probe_rejects_proper_central_elements(ctx_n1_k1, lat1):
    z = ctx_n1_k1.gen(1) ** 2  # central here, twisted one level up
    f = frac(ctx_n1_k1, z, lat=lat1)
    assert center_of_quotient_test(f, 1)
    assert not center_of_quotient_test(f, 2)
    theta = frac(ctx_n1_k1, ctx_n1_k1.scalar(ctx_n1_k1.theta()), lat=lat1)
    assert not center_of_quotient_test(theta, 1)


def test_center_probe_is_representation_independent(ctx_n1_k1, lat1):
    # (c*z)/z is the scalar c in disguise and passes every probe
    z = ctx_n1_k1.one() + ctx_n1_k1.gen(1) ** 2
    f = CentralFraction(ctx_n1_k1, z, z, lattice=lat1)
    for probe in (1, 2, 3):
        assert center_of_quotient_test(f, probe)


def test_quotient_center_check_refuses_to_pass_without_a_higher_level():
    # at k = k_max the probe level is the home level, where every central
    # element stays central: the check returns at once and does not pass
    ctx = RingContext(build_tower(TowerConfig(2, 2, 1)), default_action(2, 2), 1)
    result = check_quotient_center(ctx, random.Random(0), 5)
    assert not result.passed
    assert "no level above 1 to probe" in result.detail
    # the whole batch at k_max = 1 returns, and reports the check as not passed
    results = {r.name: r for r in run_all(3, 3, 2, 1, 0, trials=20)}
    assert not results["quotient.center_collapses_to_base"].passed


def test_probe_below_level_rejected(ctx_n1_k1, lat1, tower223):
    ctx2 = RingContext(tower223, default_action(1, 2), 2)
    lat2 = kernel_lattice(ctx2)
    f = frac(ctx2, ctx2.one(), lat=lat2)
    with pytest.raises(ValueError):
        center_of_quotient_test(f, 1)
