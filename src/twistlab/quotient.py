"""Central fractions: division-ring arithmetic over a level ring.

The center of a level ring R_k is GF(q)[Lambda], Lambda the kernel lattice:
Laurent polynomials in n variables, whose fractions realize the quotient
division ring.  A central value keeps its form in R_k, a {Lambda-word: level
code} dict on which every sigma_w acts trivially; one core computes on such
dicts from a field, a word adder and a product kernel (product, subtraction,
exact division, Bareiss solve); LaurentPoly is the lattice-coordinate view.

Inversion goes through the degree-d splitting, d = p^k: left multiplication
on R_k as a free right L[Lambda]-module (L the level field) is a d x d matrix
rho(s).  One fraction-free (Bareiss) solve of rho(s) v = e_0 gives det rho(s)
= Nrd(s), the reduced norm, and an adjugate column, read back as s_adj with
s s_adj = s_adj s = Nrd(s) central.  invert returns f.den s_adj Nrd^(d-1) /
Nrd^d, normalized by a shift and a scaling, the one step that reads lattice
coordinates; the powers multiply termwise Frobenius images Nrd^(r^j), r the
characteristic.  Each inversion checks that rho(s) is nonsingular, that
Nrd(s) is central, s s_adj, s_adj s, and f.num num == f.den den on the
result; a failure raises InternalFaultError.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from typing import Optional

from .center import (FreeBasis, KernelLattice, decompose_over_center,
                     is_central_structural, kernel_lattice)
from .errors import ContextMismatchError, InternalFaultError, NotAUnitError
from .ring import (_METER, RingContext, RingElement, _from_codes, product_kernel,
                   same_context, word_adder)

INVERSION_CAP = 2**22  # term pairs one inversion may form: seconds of kernel work


# -- the core, on {word: nonzero code} dicts of a commutative Laurent ring: F
# the field, add the word sum and mul _untwisted(F, n), the zero-twist kernel;
# ctx.level, ctx.add_words on Lambda-words in inversion, the view's in LaurentPoly
_untwisted = lru_cache(maxsize=None, typed=True)(product_kernel)


def _combine(op, a: dict, b: dict) -> dict:
    """Termwise op(a, b) for op a field's add or sub, zero codes dropped."""
    out = dict(a)
    for e, c in b.items():
        if v := op(out.get(e, 0), c):
            out[e] = v
        else:  # op(0, c) != 0, so e was in out
            del out[e]
    return out


def _mul(mul, a: dict, b: dict) -> dict:
    """a * b through the untwisted kernel mul, zero codes dropped."""
    _METER.charge(len(a) * len(b))
    return {e: c for e, c in mul(a, b, {}).items() if c}


def _scaled(F, add, a: dict, offset, c: int = 1) -> dict:
    """c x^offset a: a shift and a scaling."""
    return {add(e, offset): x if c == 1 else F.mul(x, c) for e, x in a.items()}


def _content(words) -> tuple:
    """Per-variable minimum exponent (the monomial content) of nonzero terms."""
    return tuple(map(min, zip(*words)))


def _div(F, add, a: dict, b: dict) -> dict:
    """Exact quotient a / b; raises InternalFaultError if inexact.

    A one-term divisor c u^e is a unit: a is shifted by -e and scaled by
    c^(-1).  Otherwise both are normalized by their monomial content in word
    coordinates and divided as ordinary polynomials; on Lambda-words that is
    F[Z^n], free over F[Lambda], so the quotient is the one in F[Lambda].
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(b) == 1:
        (e, c), = b.items()
        _METER.charge(len(a))
        return _scaled(F, add, a, tuple(-v for v in e), F.inv(c))
    if not a:
        return {}
    m_a, m_b = _content(a), _content(b)
    rem = _scaled(F, add, a, tuple(-v for v in m_a))
    b = _scaled(F, add, b, tuple(-v for v in m_b))
    lead_b = max(b)
    inv_lead, mul, sub, quo = F.inv(b[lead_b]), F.mul, F.sub, {}
    # both operands are ordinary after the content shift, so the lex leading
    # exponent strictly decreases in a well-order: this terminates
    while rem:
        lead_a = max(rem)
        mono = tuple(x - y for x, y in zip(lead_a, lead_b))
        if any(v < 0 for v in mono):
            raise InternalFaultError("polynomial division is not exact")
        c = quo[mono] = mul(rem[lead_a], inv_lead)
        for e, d in b.items():  # rem -= c x^mono b, in place
            e = add(e, mono)
            if v := sub(rem.get(e, 0), mul(c, d)):
                rem[e] = v
            else:
                del rem[e]
    _METER.charge(len(quo) * len(b))
    return _scaled(F, add, quo, tuple(x - y for x, y in zip(m_a, m_b)))


def _bareiss(F, add, mul, matrix, rhs=None):
    """Fraction-free solve of M x = rhs on core dicts (Bareiss 1968).

    Single-step elimination with row pivoting on [M | rhs], then fraction-free
    back-substitution: (det M, N) with M N = det * rhs, N the adjugate of M
    times rhs, None without rhs or when M is singular.  Products with a zero
    operand are skipped, and every division is exact (_div).
    """
    n, sub = len(matrix), F.sub
    m = [list(row) + ([] if rhs is None else [rhs[i]])
         for i, row in enumerate(matrix)]
    width, sign, prev = len(m[0]), 1, None  # prev None: no division at step 0
    for i in range(n - 1):
        pivot_row = next((r for r in range(i, n) if m[r][i]), None)
        if pivot_row is None:
            return {}, None
        if pivot_row != i:
            m[i], m[pivot_row] = m[pivot_row], m[i]
            sign = -sign
        top, pivot = m[i], m[i][i]
        for row in m[i + 1:]:
            lead = row[i]
            for c in range(i + 1, width):
                num = _mul(mul, pivot, row[c]) if row[c] else {}
                if lead and top[c]:
                    num = _combine(sub, num, _mul(mul, lead, top[c]))
                row[c] = num if prev is None else _div(F, add, num, prev)
            row[i] = {}
        prev = pivot
    det, sol = m[n - 1][n - 1], None
    if rhs is not None and det:
        # the last eliminated entry is already det * x_(n-1) (a Cramer minor);
        # above it, U_ii * (det x_i) = det * y_i - sum_(j>i) U_ij * (det x_j)
        sol = [None] * (n - 1) + [m[n - 1][n]]
        for i in range(n - 2, -1, -1):
            acc = _mul(mul, det, m[i][n]) if m[i][n] else {}
            for j in range(i + 1, n):
                if m[i][j] and sol[j]:
                    acc = _combine(sub, acc, _mul(mul, m[i][j], sol[j]))
            sol[i] = _div(F, add, acc, m[i][i])
    if sign < 0:
        det = _combine(sub, {}, det)
        sol = sol and [_combine(sub, {}, v) for v in sol]
    return det, sol


class LaurentPoly:
    """Lattice-coordinate view: a sparse Laurent polynomial over a
    code-arithmetic field (GF(q) or a tower level), {exponent vector:
    coefficient code}, computed on the core."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms: Optional[dict] = None):
        self.field, self.nvars = field, nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c: int):
        return cls(field, nvars, {(0,) * nvars: c})

    def is_zero(self) -> bool:
        return not self.terms

    def _view(self, terms: dict) -> "LaurentPoly":
        return LaurentPoly(self.field, self.nvars, terms)

    def __add__(self, other):
        return self._view(_combine(self.field.add, self.terms, other.terms))

    def __sub__(self, other):
        return self._view(_combine(self.field.sub, self.terms, other.terms))

    def __neg__(self):
        return self._view(_combine(self.field.sub, {}, self.terms))

    def __mul__(self, other):
        return self._view(_mul(_untwisted(self.field, self.nvars), self.terms, other.terms))

    def shift(self, offset):
        return self._view(_scaled(self.field, word_adder(self.nvars),
                                  self.terms, offset))

    def min_exponents(self) -> tuple:
        """Per-variable minimum exponent (the monomial content)."""
        return _content(self.terms) if self.terms else (0,) * self.nvars

    def leading(self) -> tuple:
        """Lex-greatest exponent vector with its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self/other; raises InternalFaultError if inexact."""
        return self._view(_div(self.field, word_adder(self.nvars),
                               self.terms, other.terms))

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and (self.nvars, self.terms) == (
            other.nvars, other.terms)

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


def bareiss_solve(matrix, rhs=None):
    """The core's Bareiss solve on a LaurentPoly matrix: (det M, N) with
    M N = det * rhs; N is None without rhs or when M is singular."""
    if not matrix:
        raise ValueError("empty matrix")
    view = matrix[0][0]
    det, sol = _bareiss(view.field, word_adder(view.nvars),
                        _untwisted(view.field, view.nvars),
                        [[e.terms for e in row] for row in matrix],
                        None if rhs is None else [v.terms for v in rhs])
    return view._view(det), sol and [view._view(v) for v in sol]


def bareiss_determinant(matrix) -> LaurentPoly:
    """Fraction-free determinant of a square LaurentPoly matrix."""
    return bareiss_solve(matrix)[0]


def regular_representation(r: RingElement, basis: FreeBasis,
                           lattice: KernelLattice) -> list:
    """Matrix of left multiplication by r on the free center-module basis.

    Entry [a][b] is the a-th central coordinate of r * basis[b]; the map is a
    ring homomorphism into p^(2k) x p^(2k) matrices over the center.  Nothing
    in the package calls it: inversion and verify-all work through the smaller
    splitting_representation, and this stays as the tests' reference for it.
    """
    cols = [decompose_over_center(r * b, basis, lattice) for b in basis.elements]
    size = basis.size()
    return [[cols[b][a] for b in range(size)] for a in range(size)]


def splitting_representation(s: RingElement, lattice: KernelLattice) -> list:
    """Matrix rho(s) of left multiplication by s on the right L[Lambda]-module
    basis x^(w_i), w_i the lattice's box representatives, with entries
    {Lambda-word: level code}.
    No ring product is formed: with v = w + w_j in the box of w_i,
    c x^w x^(w_j) = x^(w_i) sigma_(w_i)^(-1)(c) x^(v - w_i) lands in entry
    (i, j) at the Lambda-word v - w_i, and no other term of s shares that slot.
    """
    ctx, reps = s.ctx, lattice.box_representatives()
    slot = {w: (i, tuple(-a for a in w), -ctx.word_exponent(w))
            for i, w in enumerate(reps)}
    add_words, frob_code, to_box = ctx.add_words, ctx.level.frob_code, lattice.reduce
    entries = [[{} for _ in reps] for _ in reps]
    for w, c in s.codes.items():
        for j, wj in enumerate(reps):
            v = add_words(w, wj)
            i, neg_wi, neg_e = slot[to_box(v)[0]]
            entries[i][j][add_words(v, neg_wi)] = frob_code(c, neg_e)
    return entries


def _read_back(ctx: RingContext, lattice: KernelLattice, column) -> RingElement:
    """sum_i x^(w_i) column_i in R_k, splitting_representation run backwards
    with no ring product: x^(w_i) c x^v = sigma_(w_i)(c) x^(w_i + v).  Column
    0 of rho(s) reads back s, since w_0 = 0."""
    add_words, frob_code, codes = ctx.add_words, ctx.level.frob_code, {}
    for wi, a in zip(lattice.box_representatives(), column):
        e = ctx.word_exponent(wi)
        for v, c in a.items():
            codes[add_words(wi, v)] = frob_code(c, e)
    return _from_codes(ctx, codes)


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
        self.ctx, self.num, self.den = ctx, num, den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _check(self, other: "CentralFraction"):
        if not same_context(self.ctx, other.ctx):
            raise ContextMismatchError("cross-level fraction arithmetic requires "
                                       "lifting both operands to the larger level first")

    def __add__(self, other):
        self._check(other)
        return CentralFraction(self.ctx, self.num * other.den + other.num * self.den,
                               self.den * other.den)

    def __neg__(self):
        return CentralFraction(self.ctx, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # denominators are central, so they slide out of the product
        return CentralFraction(self.ctx, self.num * other.num, self.den * other.den)

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
        machinery (and so under INVERSION_CAP, raising BudgetError).
        """
        if same_context(self.ctx, target):
            return self
        num, den = self.num.lift_to(target), self.den.lift_to(target)
        lat = kernel_lattice(target)
        if is_central_structural(den, lat):
            return CentralFraction(target, num, den, lattice=lat)
        s, w = _central_multiple(den, target, lat)
        return CentralFraction(target, num * s, w, lattice=lat)


def _reduced_norm(s: RingElement, ctx: RingContext, lattice: KernelLattice):
    """(s_adj, Nrd^(d-1), Nrd^d) with s * s_adj = s_adj * s = Nrd(s) = det
    rho(s) central, both verified; the powers are {Lambda-word: code}."""
    if s.is_zero():
        raise ZeroDivisionError("zero denominator")
    e0 = [{(0,) * ctx.n: 1}] + [{}] * (lattice.index - 1)
    mul = _untwisted(ctx.level, ctx.n)
    nrd, adj = _bareiss(ctx.level, ctx.add_words, mul,
                        splitting_representation(s, lattice), e0)
    if not nrd:
        raise InternalFaultError("splitting representation of a nonzero element "
                                 "is singular; this falsifies the construction")
    s_adj, w = _read_back(ctx, lattice, adj), _from_codes(ctx, nrd)
    if (not is_central_structural(w, lattice)
            or s * s_adj != w or s_adj * s != w):
        raise InternalFaultError("reduced-norm verification failed")
    return (s_adj, *_norm_powers(ctx.level, mul, nrd, lattice.index))


def _norm_powers(F, mul, nrd: dict, d: int):
    """(Nrd^(d-1), Nrd^d) from the base-r digits of the exponents, r the
    characteristic.  Nrd^(r^j) is termwise, c u^e -> c^(r^j) u^(r^j e), so
    Nrd^m takes one product less than the digit sum of m: at d = 2^k in
    characteristic 2, k - 1 for Nrd^(d-1) and none for Nrd^d."""
    exp, log, units, r = F.exp, F.log, F.units, F.char

    def power(m):
        factors, t = [], 1
        while m:
            m, digit = divmod(m, r)
            if digit:
                factors += [{tuple(t * v for v in e): exp[log[c] * t % units]
                             for e, c in nrd.items()}] * digit
            t *= r
        return (reduce(partial(_mul, mul), factors) if factors
                else {(0,) * len(next(iter(nrd))): 1})

    return power(d - 1), power(d)


def _central_multiple(s: RingElement, ctx: RingContext, lattice: KernelLattice):
    """s' and central w != 0 with s * s' = s' * s = w, which rewrites a ring
    denominator as a central one: (s_adj Nrd^(d-1), Nrd^d), exactly the
    adjugate column and determinant of the p^(2k) regular representation,
    since N(s) = Nrd(s)^d (Reiner, Maximal Orders, 9)."""
    with _METER.budget(INVERSION_CAP):
        s_adj, power, norm = _reduced_norm(s, ctx, lattice)
        return s_adj * _from_codes(ctx, power), _from_codes(ctx, norm)


def invert(f: CentralFraction) -> CentralFraction:
    """Exact inverse of a nonzero central fraction, verified to multiply to 1.

    The numerator s is cleared through its reduced norm (BudgetError past
    INVERSION_CAP).  The inverse is f.den s_adj Nrd^(d-1) / Nrd^d, with
    the central unit u = lead^(-1) x^(-content) of Nrd^d, both read in
    lattice coordinates, folded into both powers as a shift and a scaling:
    the denominator Nrd^d u is content-free with lex-leading coefficient 1.
    f.num * num == f.den * den, which is f * g == 1, is checked.  A
    homogeneous numerator has a monomial reduced norm, so it gets
    denominator 1 and its unique inverse.
    """
    if f.is_zero():
        raise NotAUnitError("the zero fraction has no inverse")
    ctx, F, add = f.ctx, f.ctx.level, f.ctx.add_words
    lat = kernel_lattice(ctx)
    with _METER.budget(INVERSION_CAP):
        s_adj, power, norm = _reduced_norm(f.num, ctx, lat)
        coords = {lat.lattice_coordinates(w): c for w, c in norm.items()}
        unit = lat.from_lattice_coordinates(tuple(-v for v in _content(coords)))
        inv_lead = F.inv(coords[max(coords)])
        num = f.den * s_adj * _from_codes(ctx, _scaled(F, add, power, unit, inv_lead))
        den = _from_codes(ctx, _scaled(F, add, norm, unit, inv_lead))
        if f.num * num != f.den * den:
            raise InternalFaultError("inverse verification failed")
        return CentralFraction(ctx, num, den, lattice=lat)


def center_of_quotient_test(f: CentralFraction, probe_level: int) -> bool:
    """Does the fraction commute with everything at the probe level?

    Lift numerator r and denominator z and test r*u*z == z*u*r against each
    group generator u and the probe level's field generator; as z is central
    at the home level, that is the fraction being central in the probe-level
    quotient ring, with nothing inverted.  Elements of GF(q) pass at every
    probe level; anything else eventually fails as the probe level grows.
    """
    if probe_level < f.ctx.k:
        raise ValueError("probe level must not be below the fraction's level")
    target = f.ctx.lift_level(probe_level)
    r, z = f.num.lift_to(target), f.den.lift_to(target)
    return all(r * u * z == z * u * r
               for u in target.gens() + [target.scalar(target.theta())])
