"""Central fractions: division-ring arithmetic over a level ring.

The center of a level ring is a Laurent polynomial ring over GF(q) in n
variables (one per kernel-lattice basis row), so the ring of fractions with
central denominators realizes the quotient division ring.  Inversion goes
through the regular representation: left multiplication by the numerator on
the free center-module basis is a matrix M over the center, and one
fraction-free (Bareiss) solve of M v = e_1 gives det M and the adjugate
column together.  They make an element s and a central w with r s = s r = w,
hence (z s)/w inverts r/z.  Every inverse is verified by exact
multiplication before it is returned.

A singular representation matrix for a nonzero element would falsify the
construction; it aborts loudly rather than being handled.
"""

from __future__ import annotations

from typing import Optional

from .center import (
    FreeBasis,
    KernelLattice,
    decompose_over_center,
    free_basis,
    is_central_structural,
    kernel_lattice,
)
from .errors import BudgetError, ContextMismatchError, InternalFaultError, NotAUnitError
from .ring import RingContext, RingElement, same_context

# Default desk-scale ceiling for inversion: matrix size p^(2k) and rank n.
MAX_MATRIX_SIZE = 16
MAX_RANK = 2


class LaurentPoly:
    """Sparse Laurent polynomial over GF(q): {exponent vector: coefficient}."""

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
        F = self.field
        return LaurentPoly(
            self.field, self.nvars, {e: F.neg(c) for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        F = self.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = F.add(out.get(e, 0), F.mul(c1, c2))
        return LaurentPoly(self.field, self.nvars, out)

    def scale(self, c: int):
        F = self.field
        return LaurentPoly(
            self.field, self.nvars, {e: F.mul(c, v) for e, v in self.terms.items()}
        )

    def shift(self, offset):
        return LaurentPoly(
            self.field,
            self.nvars,
            {tuple(a + b for a, b in zip(e, offset)): c for e, c in self.terms.items()},
        )

    def min_exponents(self) -> tuple:
        """Per-variable minimum exponent (the monomial content)."""
        if not self.terms:
            return (0,) * self.nvars
        mins = [min(e[i] for e in self.terms) for i in range(self.nvars)]
        return tuple(mins)

    def leading(self) -> tuple:
        """Lex-greatest exponent vector with its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self/other; raises InternalFaultError if inexact.

        Both operands are normalized by their monomial content (a unit), so
        the division happens between ordinary polynomials; the quotient's
        content is restored afterwards.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.field, self.nvars)
        F = self.field
        m_self, m_other = self.min_exponents(), other.min_exponents()
        a = self.shift(tuple(-v for v in m_self))
        b = other.shift(tuple(-v for v in m_other))
        quo: dict = {}
        lead_b, lead_bc = b.leading()
        inv_lead = F.inv(lead_bc)
        # both operands are ordinary after the content shift, so the lex
        # leading exponent strictly decreases in a well-order: this terminates
        while not a.is_zero():
            lead_a, lead_ac = a.leading()
            mono = tuple(x - y for x, y in zip(lead_a, lead_b))
            if any(v < 0 for v in mono):
                raise InternalFaultError("polynomial division is not exact")
            c = F.mul(lead_ac, inv_lead)
            quo[mono] = c
            piece = LaurentPoly(F, self.nvars, {mono: c})
            a = a - piece * b
        shift_back = tuple(x - y for x, y in zip(m_self, m_other))
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
    for w, c in z.terms.items():
        if not c.in_base_field():
            raise ValueError("element has a coefficient outside GF(q)")
        terms[lattice.lattice_coordinates(w)] = c.coords[0]
    return LaurentPoly(field, len(lattice.basis), terms)


def laurent_to_central(poly: LaurentPoly, ctx: RingContext,
                       lattice: KernelLattice) -> RingElement:
    terms = {}
    for e, c in poly.terms.items():
        word = lattice.from_lattice_coordinates(e)
        terms[word] = ctx.level.from_base(c)
    return RingElement(ctx, terms)


def bareiss_solve(matrix, rhs=None):
    """Fraction-free solve of M x = rhs over the Laurent ring (Bareiss 1968).

    Single-step Bareiss elimination with row pivoting on [M | rhs], then
    fraction-free back-substitution.  Returns (det M, N) with M N = det * rhs,
    so N is the adjugate of M times rhs.  Every division goes through
    exact_div and is exact over the polynomial ring.  N is None when there is
    no right-hand side or M is singular.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    field = matrix[0][0].field
    nvars = matrix[0][0].nvars
    zero = LaurentPoly.zero(field, nvars)
    m = [list(row) + ([] if rhs is None else [rhs[i]])
         for i, row in enumerate(matrix)]
    width = len(m[0])
    sign = 1
    prev = LaurentPoly.constant(field, nvars, 1)
    for i in range(n - 1):
        pivot_row = next((r for r in range(i, n) if not m[r][i].is_zero()), None)
        if pivot_row is None:
            return zero, None
        if pivot_row != i:
            m[i], m[pivot_row] = m[pivot_row], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, width):
                num = m[i][i] * m[r][c] - m[r][i] * m[i][c]
                m[r][c] = num.exact_div(prev)
            m[r][i] = zero
        prev = m[i][i]
    det = m[n - 1][n - 1]
    sol = None
    if rhs is not None and not det.is_zero():
        # the last eliminated entry is already det * x_(n-1) (a Cramer minor);
        # above it, U_ii * (det x_i) = det * y_i - sum_(j>i) U_ij * (det x_j)
        sol = [None] * (n - 1) + [m[n - 1][n]]
        for i in range(n - 2, -1, -1):
            acc = det * m[i][n]
            for j in range(i + 1, n):
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
    ring homomorphism into matrices over the center.
    """
    cols = [decompose_over_center(r * b, basis, lattice) for b in basis.elements]
    size = basis.size()
    return [[cols[b][a] for b in range(size)] for a in range(size)]


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

    @classmethod
    def from_element(cls, r: RingElement,
                     lattice: Optional[KernelLattice] = None) -> "CentralFraction":
        return cls(r.ctx, r, r.ctx.one(), lattice=lattice)

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

    def lift_to(self, target: RingContext,
                allow_large: bool = False) -> "CentralFraction":
        """Image in a higher-level fraction ring.

        The lifted denominator usually stays central; when the finer level
        twists it, the fraction is re-denominated through the inversion
        machinery.
        """
        if same_context(self.ctx, target):
            return self
        num = self.num.lift_to(target)
        den = self.den.lift_to(target)
        lat = kernel_lattice(target)
        if is_central_structural(den, lat):
            return CentralFraction(target, num, den, lattice=lat)
        s, w = _central_multiple(den, target, lat, allow_large=allow_large)
        return CentralFraction(target, num * s, w, lattice=lat)


def _central_multiple(s: RingElement, ctx: RingContext, lattice: KernelLattice,
                      allow_large: bool = False):
    """Find s' and central w with s * s' = s' * s = w != 0.

    This is the denominator-clearing step: it rewrites any nonzero ring
    denominator as a central one.
    """
    if s.is_zero():
        raise ZeroDivisionError("zero denominator")
    _guard_size(ctx, allow_large)
    basis = free_basis(ctx, lattice)
    mat = regular_representation(s, basis, lattice)
    lmat = [[central_to_laurent(entry, lattice) for entry in row] for row in mat]
    field, nvars = lmat[0][0].field, lmat[0][0].nvars
    e1 = [LaurentPoly.constant(field, nvars, 1)]
    e1 += [LaurentPoly.zero(field, nvars)] * (len(lmat) - 1)
    det, adj_coords = bareiss_solve(lmat, e1)
    if det.is_zero():
        raise InternalFaultError(
            "regular representation of a nonzero element is singular; "
            "this falsifies the construction"
        )
    s_prime = None
    for coord, b in zip(adj_coords, basis.elements):
        piece = laurent_to_central(coord, ctx, lattice) * b
        s_prime = piece if s_prime is None else s_prime + piece
    w = laurent_to_central(det, ctx, lattice)
    if s * s_prime != w or s_prime * s != w:
        raise InternalFaultError("central multiple verification failed")
    return s_prime, w


def _guard_size(ctx: RingContext, allow_large: bool):
    size = ctx.level.degree * ctx.tower.p**ctx.k  # p^(2k) for tower levels
    if not allow_large and (size > MAX_MATRIX_SIZE or ctx.n > MAX_RANK):
        raise BudgetError(
            f"inversion at matrix size {size} with rank {ctx.n} exceeds the "
            f"default desk-scale guard; pass allow_large=True to override"
        )


def invert(f: CentralFraction, allow_large: bool = False) -> CentralFraction:
    """Exact inverse of a nonzero central fraction, verified to multiply to 1.

    Homogeneous numerators invert directly; otherwise the numerator is
    cleared to a central element via the regular representation.
    """
    if f.is_zero():
        raise NotAUnitError("the zero fraction has no inverse")
    ctx = f.ctx
    lat = kernel_lattice(ctx)
    if f.num.is_homogeneous():
        inv_num = f.num.invert_unit()
        result = CentralFraction(ctx, f.den * inv_num, ctx.one(), lattice=lat)
    else:
        s, w = _central_multiple(f.num, ctx, lat, allow_large=allow_large)
        result = CentralFraction(ctx, f.den * s, w, lattice=lat)
    product = f * result
    if product != CentralFraction(ctx, ctx.one(), ctx.one(), lattice=lat):
        raise InternalFaultError("inverse verification failed")
    return normalized(result, lat)


def normalized(f: CentralFraction, lattice: Optional[KernelLattice] = None) -> CentralFraction:
    """Divide out the denominator's monomial content and make its
    lex-leading coefficient 1."""
    lat = lattice if lattice is not None else kernel_lattice(f.ctx)
    den_poly = central_to_laurent(f.den, lat)
    content = den_poly.min_exponents()
    _, lead = den_poly.leading()
    field = f.ctx.level.base
    inv_lead = field.inv(lead)
    new_den = den_poly.shift(tuple(-v for v in content)).scale(inv_lead)
    # the same unit adjusts the numerator: multiply by the inverse monomial
    mono_word = lat.from_lattice_coordinates(tuple(-v for v in content))
    unit = f.ctx.monomial(f.ctx.level.from_base(inv_lead), mono_word)
    return CentralFraction(
        f.ctx, unit * f.num, laurent_to_central(new_den, f.ctx, lat), lattice=lat
    )


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
