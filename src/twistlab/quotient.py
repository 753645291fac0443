"""Central fractions: division-ring arithmetic over a level ring.

The center of a level ring R_k is a Laurent polynomial ring over GF(q) in n
variables (one per kernel-lattice basis row), so the ring of fractions with
central denominators realizes the quotient division ring.  Inversion goes
through the degree-d splitting, d = p^k: left multiplication on R_k as a free
right L[Lambda]-module (L the level field, Lambda the kernel lattice) is a
d x d matrix rho(s) over that commutative ring.  One fraction-free (Bareiss)
solve of rho(s) v = e_0 (monomial divisors taken as units) gives det rho(s) =
Nrd(s), the reduced norm, and an adjugate column, read back as s_adj with
s s_adj = s_adj s = Nrd(s) central.  invert returns f.den s_adj Nrd^(d-1) /
Nrd^d, normalized through Nrd^(d-1); the powers multiply termwise Frobenius
images Nrd^(r^j), r the characteristic.  Each inversion checks that rho(s) is
nonsingular, that Nrd(s) is central, both products s s_adj and s_adj s, and
f.num num == f.den den on the result; a failure raises InternalFaultError.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Optional

from .center import (
    FreeBasis,
    KernelLattice,
    decompose_over_center,
    is_central_structural,
    kernel_lattice,
)
from .errors import BudgetError, ContextMismatchError, InternalFaultError, NotAUnitError
from .ring import RingContext, RingElement, _from_codes, same_context, word_adder

# Largest |supp(s)|^(p^k) for which s is inverted: every minor that Bareiss
# forms from the splitting matrix expands to at most that many terms.
INVERSION_BUDGET = 2**17


class LaurentPoly:
    """Sparse Laurent polynomial over a code-arithmetic field (GF(q) or a
    tower level): {exponent vector: coefficient code}."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms: Optional[dict] = None):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c: int):
        return cls(field, nvars, {(0,) * nvars: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        F = self.field
        for e, c in other.terms.items():
            out[e] = F.add(out.get(e, 0), c)
        return LaurentPoly(self.field, self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        F = self.field
        for e, c in other.terms.items():
            out[e] = F.sub(out.get(e, 0), c)
        return LaurentPoly(self.field, self.nvars, out)

    def __neg__(self):
        return LaurentPoly.zero(self.field, self.nvars) - self

    def __mul__(self, other):
        # c1 c2 = exp(log c1 + log c2) on the field's tables, as ring._mul_codes
        F = self.field
        exp, log, units, add = F.exp, F.log, F.units, F.add
        add_exps = word_adder(self.nvars)
        right = [(e, log[c]) for e, c in other.terms.items()]
        out: dict = {}
        for e1, c1 in self.terms.items():
            l1 = log[c1]
            for e2, l2 in right:
                e = add_exps(e1, e2)
                v = exp[(l1 + l2) % units]
                prev = out.get(e)
                out[e] = v if prev is None else add(prev, v)
        return LaurentPoly(F, self.nvars, out)

    def shift(self, offset):
        add_exps = word_adder(self.nvars)
        return LaurentPoly(
            self.field, self.nvars,
            {add_exps(e, offset): c for e, c in self.terms.items()},
        )

    def min_exponents(self) -> tuple:
        """Per-variable minimum exponent (the monomial content)."""
        return tuple(map(min, zip(*self.terms))) if self.terms else (0,) * self.nvars

    def leading(self) -> tuple:
        """Lex-greatest exponent vector with its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self/other; raises InternalFaultError if inexact.

        A one-term divisor c u^e is a unit, so self is shifted by -e and
        scaled by c^(-1).  Other operands are normalized by their monomial
        content (a unit), so the division happens between ordinary
        polynomials; the quotient's content is restored afterwards.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        F = self.field
        if len(other.terms) == 1:
            (e, c), = other.terms.items()
            neg, inv, add_exps = tuple(-v for v in e), F.inv(c), word_adder(self.nvars)
            return LaurentPoly(F, self.nvars, {
                add_exps(a, neg): F.mul(x, inv) for a, x in self.terms.items()})
        m_self, m_other = self.min_exponents(), other.min_exponents()
        rem = self.shift(tuple(-v for v in m_self)).terms
        b = other.shift(tuple(-v for v in m_other))
        quo: dict = {}
        lead_b, lead_bc = b.leading()
        inv_lead = F.inv(lead_bc)
        add_exps = word_adder(self.nvars)
        # both operands are ordinary after the content shift, so the lex
        # leading exponent strictly decreases in a well-order: this terminates
        while rem:
            lead_a = max(rem)
            mono = tuple(map(operator.sub, lead_a, lead_b))
            if any(v < 0 for v in mono):
                raise InternalFaultError("polynomial division is not exact")
            c = quo[mono] = F.mul(rem[lead_a], inv_lead)
            for e, d in b.terms.items():  # rem -= c x^mono b, in place
                e = add_exps(e, mono)
                if v := F.sub(rem.get(e, 0), F.mul(c, d)):
                    rem[e] = v
                else:
                    del rem[e]
        shift_back = tuple(map(operator.sub, m_self, m_other))
        return LaurentPoly(F, self.nvars, quo).shift(shift_back)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def to_literal(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [] if c == 1 and any(e) else [str(c)]
            for i, a in enumerate(e, start=1):
                if a == 0:
                    continue
                factors.append(f"u{i}" if a == 1 else f"u{i}^{a}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.to_literal()})"


def central_to_laurent(z: RingElement, lattice: KernelLattice) -> LaurentPoly:
    """View a central element as a Laurent polynomial in the lattice basis."""
    field = z.ctx.level.base
    terms = {}
    for w, c in z.codes.items():
        if c >= field.q:
            raise ValueError("element has a coefficient outside GF(q)")
        terms[lattice.lattice_coordinates(w)] = c
    return LaurentPoly(field, len(lattice.basis), terms)


def laurent_to_central(poly: LaurentPoly, ctx: RingContext,
                       lattice: KernelLattice) -> RingElement:
    """The element of L[Lambda] with these lattice coordinates; central when
    every coefficient lies in GF(q)."""
    return _from_codes(ctx, {
        lattice.from_lattice_coordinates(e): c for e, c in poly.terms.items()
    })


def bareiss_solve(matrix, rhs=None):
    """Fraction-free solve of M x = rhs over the Laurent ring (Bareiss 1968).

    Single-step Bareiss elimination with row pivoting on [M | rhs], then
    fraction-free back-substitution.  Returns (det M, N) with M N = det * rhs,
    so N is the adjugate of M times rhs.  A product with a zero operand is
    skipped, not formed.  Every division goes through exact_div and is exact
    over the polynomial ring.  N is None when there is no right-hand side or
    M is singular.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    zero = LaurentPoly.zero(matrix[0][0].field, matrix[0][0].nvars)
    m = [list(row) + ([] if rhs is None else [rhs[i]])
         for i, row in enumerate(matrix)]
    width = len(m[0])
    sign = 1
    prev = None  # the first step would divide by the constant 1
    for i in range(n - 1):
        pivot_row = next((r for r in range(i, n) if not m[r][i].is_zero()), None)
        if pivot_row is None:
            return zero, None
        if pivot_row != i:
            m[i], m[pivot_row] = m[pivot_row], m[i]
            sign = -sign
        top, pivot = m[i], m[i][i]
        for row in m[i + 1:]:
            lead = row[i]
            for c in range(i + 1, width):
                num = pivot * row[c] if row[c].terms else zero
                if lead.terms and top[c].terms:
                    num = num - lead * top[c]
                row[c] = num if prev is None else num.exact_div(prev)
            row[i] = zero
        prev = pivot
    det = m[n - 1][n - 1]
    sol = None
    if rhs is not None and not det.is_zero():
        # the last eliminated entry is already det * x_(n-1) (a Cramer minor);
        # above it, U_ii * (det x_i) = det * y_i - sum_(j>i) U_ij * (det x_j)
        sol = [None] * (n - 1) + [m[n - 1][n]]
        for i in range(n - 2, -1, -1):
            acc = det * m[i][n] if m[i][n].terms else zero
            for j in range(i + 1, n):
                if m[i][j].terms and sol[j].terms:
                    acc = acc - m[i][j] * sol[j]
            sol[i] = acc.exact_div(m[i][i])
    if sign < 0:
        det = -det
        if sol is not None:
            sol = [-v for v in sol]
    return det, sol


def bareiss_determinant(matrix) -> LaurentPoly:
    """Fraction-free determinant of a square LaurentPoly matrix."""
    return bareiss_solve(matrix)[0]


def regular_representation(r: RingElement, basis: FreeBasis,
                           lattice: KernelLattice) -> list:
    """Matrix of left multiplication by r on the free center-module basis.

    Entry [a][b] is the a-th central coordinate of r * basis[b]; the map is a
    ring homomorphism into p^(2k) x p^(2k) matrices over the center.
    Inversion uses the smaller splitting_representation; this one witnesses
    the rank-p^(2k) freeness and is the reference that inversion is checked
    against.
    """
    cols = [decompose_over_center(r * b, basis, lattice) for b in basis.elements]
    size = basis.size()
    return [[cols[b][a] for b in range(size)] for a in range(size)]


def splitting_representation(s: RingElement, lattice: KernelLattice) -> list:
    """Matrix rho(s) of left multiplication by s on the right L[Lambda]-module
    basis x^(w_i), w_i the lattice's box representatives, over Laurent
    polynomials with level-field codes.
    No ring product is formed: with w + w_j = w_i + lambda,
    c x^w x^(w_j) = x^(w_i) sigma_(w_i)^(-1)(c) x^lambda lands in entry
    (i, j), and no other term of s shares that slot.
    """
    ctx, reps = s.ctx, lattice.box_representatives()
    slot = {w: (i, -ctx.word_exponent(w)) for i, w in enumerate(reps)}
    add_words, frob_code = ctx.add_words, ctx.level.frob_code
    entries = [[{} for _ in reps] for _ in reps]
    for w, c in s.codes.items():
        for j, wj in enumerate(reps):
            wi, lam = lattice.reduce(add_words(w, wj))
            i, neg_e = slot[wi]
            entries[i][j][lam] = frob_code(c, neg_e)
    nvars = len(lattice.basis)
    return [[LaurentPoly(ctx.level, nvars, e) for e in row] for row in entries]


class CentralFraction:
    """A level-ring numerator over a nonzero central denominator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: RingContext, num: RingElement, den: RingElement,
                 lattice: Optional[KernelLattice] = None):
        if not same_context(num.ctx, ctx) or not same_context(den.ctx, ctx):
            raise ContextMismatchError("fraction parts must share the context")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        lat = lattice if lattice is not None else kernel_lattice(ctx)
        if not is_central_structural(den, lat):
            raise ValueError("denominator is not central at this level")
        self.ctx = ctx
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _check(self, other: "CentralFraction"):
        if not same_context(self.ctx, other.ctx):
            raise ContextMismatchError(
                "cross-level fraction arithmetic requires lifting both "
                "operands to the larger level first"
            )

    def __add__(self, other):
        self._check(other)
        return CentralFraction(
            self.ctx,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __neg__(self):
        return CentralFraction(self.ctx, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # denominators are central, so they slide out of the product
        return CentralFraction(
            self.ctx, self.num * other.num, self.den * other.den
        )

    def __eq__(self, other):
        if not isinstance(other, CentralFraction):
            return NotImplemented
        self._check(other)
        return self.num * other.den == other.num * self.den

    def to_literal(self) -> str:
        return f"({self.num.to_literal()}) / ({self.den.to_literal()})"

    def __repr__(self):
        return f"CentralFraction({self.to_literal()})"

    def lift_to(self, target: RingContext) -> "CentralFraction":
        """Image in a higher-level fraction ring.

        The lifted denominator usually stays central; when the finer level
        twists it, the fraction is re-denominated through the inversion
        machinery (and so under INVERSION_BUDGET, raising BudgetError).
        """
        if same_context(self.ctx, target):
            return self
        num = self.num.lift_to(target)
        den = self.den.lift_to(target)
        lat = kernel_lattice(target)
        if is_central_structural(den, lat):
            return CentralFraction(target, num, den, lattice=lat)
        s, w = _central_multiple(den, target, lat)
        return CentralFraction(target, num * s, w, lattice=lat)


def _reduced_norm(s: RingElement, ctx: RingContext, lattice: KernelLattice):
    """(s_adj, Nrd(s)) with s * s_adj = s_adj * s = Nrd(s) central, both
    verified; Nrd(s) = det rho(s) comes back as a Laurent polynomial in the
    lattice coordinates."""
    if s.is_zero():
        raise ZeroDivisionError("zero denominator")
    d = lattice.index
    if len(s.codes) ** d > INVERSION_BUDGET:
        raise BudgetError(
            f"inverting a {len(s.codes)}-term element at degree {d} may form "
            f"{len(s.codes)}^{d} terms per minor, over the budget {INVERSION_BUDGET}"
        )
    one = LaurentPoly.constant(ctx.level, len(lattice.basis), 1)
    e0 = [one] + [LaurentPoly.zero(ctx.level, one.nvars)] * (d - 1)
    reps = lattice.box_representatives()
    nrd, adj = bareiss_solve(splitting_representation(s, lattice), e0)
    if nrd.is_zero():
        raise InternalFaultError("splitting representation of a nonzero element "
                                 "is singular; this falsifies the construction")
    # s_adj = sum_i x^(w_i) adj_i, and x^(w_i) c x^v = sigma_(w_i)(c) x^(w_i + v):
    # splitting_representation run backwards, with no ring product
    add_words, frob_code, codes = ctx.add_words, ctx.level.frob_code, {}
    for wi, a in zip(reps, adj):
        e = ctx.word_exponent(wi)
        for v, c in a.terms.items():
            codes[add_words(wi, lattice.from_lattice_coordinates(v))] = frob_code(c, e)
    s_adj = _from_codes(ctx, codes)
    w = laurent_to_central(nrd, ctx, lattice)
    if (not is_central_structural(w, lattice)
            or s * s_adj != w or s_adj * s != w):
        raise InternalFaultError("reduced-norm verification failed")
    return s_adj, nrd


def _norm_powers(nrd: LaurentPoly, d: int):
    """(Nrd^(d-1), Nrd^d) from the base-r digits of the exponents, r the
    characteristic.  Nrd^(r^j) is termwise, c u^e -> c^(r^j) u^(r^j e), so
    Nrd^m takes one product less than the digit sum of m: at d = 2^k in
    characteristic 2, k - 1 for Nrd^(d-1) and none for Nrd^d."""
    F, r = nrd.field, nrd.field.char

    def power(m):
        factors, t = [], 1
        while m:
            m, digit = divmod(m, r)
            if digit:
                factors += [LaurentPoly(F, nrd.nvars, {
                    tuple(t * v for v in e): F.exp[F.log[c] * t % F.units]
                    for e, c in nrd.terms.items()})] * digit
            t *= r
        return (reduce(operator.mul, factors) if factors
                else LaurentPoly.constant(F, nrd.nvars, 1))

    return power(d - 1), power(d)


def _central_multiple(s: RingElement, ctx: RingContext, lattice: KernelLattice):
    """s' and central w != 0 with s * s' = s' * s = w, which rewrites a ring
    denominator as a central one: (s_adj Nrd^(d-1), Nrd^d), exactly the
    adjugate column and determinant of the p^(2k) regular representation,
    since N(s) = Nrd(s)^d (Reiner, Maximal Orders, 9)."""
    s_adj, nrd = _reduced_norm(s, ctx, lattice)
    power, norm = _norm_powers(nrd, lattice.index)
    return (s_adj * laurent_to_central(power, ctx, lattice),
            laurent_to_central(norm, ctx, lattice))


def invert(f: CentralFraction) -> CentralFraction:
    """Exact inverse of a nonzero central fraction, verified to multiply to 1.

    The numerator s is cleared through its reduced norm (BudgetError past
    INVERSION_BUDGET), which verifies s s_adj = s_adj s = Nrd(s) central.
    The inverse is f.den s_adj Nrd^(d-1) / Nrd^d, normalized on the way: the
    central unit u = lead^(-1) x^(-content) of Nrd^d is folded into the
    central factor Nrd^(d-1), so the denominator Nrd^d u is content-free with
    lex-leading coefficient 1.  Before it is returned, f.num * num ==
    f.den * den is checked, which is f * g == 1.  A homogeneous numerator has
    a monomial reduced norm, so it gets denominator 1 and its unique inverse.
    """
    if f.is_zero():
        raise NotAUnitError("the zero fraction has no inverse")
    ctx = f.ctx
    lat = kernel_lattice(ctx)
    s_adj, nrd = _reduced_norm(f.num, ctx, lat)
    power, norm = _norm_powers(nrd, lat.index)
    content = norm.min_exponents()
    u = LaurentPoly(ctx.level, nrd.nvars, {
        tuple(-v for v in content): ctx.level.inv(norm.leading()[1])})
    num = f.den * s_adj * laurent_to_central(power * u, ctx, lat)
    den = laurent_to_central(norm * u, ctx, lat)
    if f.num * num != f.den * den:
        raise InternalFaultError("inverse verification failed")
    return CentralFraction(ctx, num, den, lattice=lat)


def center_of_quotient_test(f: CentralFraction, probe_level: int) -> bool:
    """Does the fraction commute with everything at the probe level?

    Lift numerator r and denominator z and test r*u*z == z*u*r against each
    group generator u and the probe level's field generator; because z is
    central at the home level, this is equivalent to the fraction being
    central in the probe-level quotient ring, without inverting anything.
    Elements of GF(q) pass at every probe level; anything else eventually
    fails as the probe level grows.
    """
    if probe_level < f.ctx.k:
        raise ValueError("probe level must not be below the fraction's level")
    target = f.ctx.lift_level(probe_level)
    r = f.num.lift_to(target)
    z = f.den.lift_to(target)
    probes = target.gens() + [target.scalar(target.theta())]
    for u in probes:
        if r * u * z != z * u * r:
            return False
    return True
