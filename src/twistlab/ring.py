"""Twisted group rings at one tower level.

Elements are finitely supported sums of terms c*g where g is an integer
vector (a word in the rank-n free abelian group) and c lives in the level
field.  The product of monomials twists the right coefficient by the
automorphism attached to the left word:

    (c g)(d h) = (c * sigma_g(d)) (g + h)

with sigma_g = Frobenius^(action exponent of g at this level), the linear form
sum(g_i * t_i) mod p^k in the action's level-k truncations t_i.

A context builds its product kernel once, when it is built, from the ints
n, t_i and p^k (product_kernel): the for targets unpack the words, g + h is
a tuple display, the exponent (g0*t_0 + ... + g{n-1}*t_{n-1}) % p^k is
inline, and the level's exp, log, units, add and Frobenius factors are bound
then, so a term pair makes no Python call but a collision's field sum.  The
quotient core builds it with the zero twist.  exponent_form and word_adder
(per rank) build the exponent and the word sum alone.  Each source text is
compiled once per process, and every build binds its own tables to that
code.  Only exact ints reach the compiler.

Homogeneous elements (single-term) are exactly the units.  An element
stores its coefficients as level codes, {word: nonzero code}, so structural
equality is semantic equality; sums, products, lifts and literals work on
that dict directly, products through the one kernel _mul_codes.  The
FieldElement view {word: FieldElement} is built on demand.

A context bundles the tower, the acting group, the level with its
truncations, and the independence certification made at its creation.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .action import ActionConfig, least_certified_level
from .errors import BudgetError, ContextMismatchError, InternalFaultError, NotAUnitError
from .tower import FieldElement, Tower

DEFAULT_CERT_BOUND = 8


class RingContext:
    """One twisted group ring: level-k coefficients, rank-n words."""

    def __init__(self, tower: Tower, action: ActionConfig, k: int,
                 cert_bound: int = DEFAULT_CERT_BOUND, certify: bool = True):
        if action.p != tower.p:
            raise ValueError("tower and action disagree on p")
        self.tower = tower
        self.action = action
        self.k = k
        self.n = action.n
        self.level = tower.level(k)  # refuses an unmaterialized level
        self.cert_bound = cert_bound if certify else None
        # Raises IndependenceError when the configured exponents admit a
        # small relation at every truncation level up to the horizon.
        self.cert_level = least_certified_level(action, cert_bound) if certify else None
        self.ts = action.truncations(k)
        self.mod = action.p**k
        self.add_words = word_adder(self.n)
        self._exponent = exponent_form(self.ts, self.mod)
        self._product = product_kernel(self.level, self.n, self.ts, self.mod)
        self._lifted = {}

    def word_exponent(self, word) -> int:
        """Frobenius power by which the word acts on this level."""
        if len(word) != self.n:
            raise ValueError(f"word has length {len(word)}, expected {self.n}")
        return self._exponent(word)

    # -- element factories ---------------------------------------------------

    def zero(self) -> "RingElement":
        return _from_codes(self, {})

    def one(self) -> "RingElement":
        return self.monomial(1, (0,) * self.n)

    def _coeff(self, coeff) -> int:
        """Code of an int read in the prime field, or of a field element of
        this level; an element of another level is refused."""
        level = self.level
        if isinstance(coeff, int):
            return coeff % level.char
        if coeff.level is not level and coeff.level != level:
            raise ValueError("field elements belong to different levels")
        return coeff.code

    def monomial(self, coeff, word) -> "RingElement":
        code = self._coeff(coeff)
        word = tuple(word)
        if len(word) != self.n:
            raise ValueError(f"word has length {len(word)}, expected {self.n}")
        return _from_codes(self, {word: code})

    def gen(self, i: int, e: int = 1) -> "RingElement":
        """x_i^e, i 1-based: one monomial, as every Frobenius fixes 1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        word = tuple(e if j == i - 1 else 0 for j in range(self.n))
        return self.monomial(1, word)

    def gens(self) -> list:
        return [self.gen(i) for i in range(1, self.n + 1)]

    def theta(self) -> FieldElement:
        """The level field generator."""
        return self.level.generator()

    def scalar(self, c: FieldElement) -> "RingElement":
        return self.monomial(c, (0,) * self.n)

    def default_generators(self) -> list:
        """theta and all x_i^(+-1): generates the ring as an algebra over GF(q)."""
        gens = [_from_codes(self, {(0,) * self.n: self.level.generator_code()})]
        for i in range(1, self.n + 1):
            gens.extend([self.gen(i), self.gen(i, -1)])
        return gens

    def random_element(self, rng, max_terms: int = 3, coord_bound: int = 2,
                       min_terms: int = 1) -> "RingElement":
        """Sparse random element: min_terms..max_terms distinct words of the
        box [-coord_bound, coord_bound]^n (max_terms capped at its size)."""
        box = (2 * coord_bound + 1) ** self.n
        if not 1 <= min_terms <= box:
            raise ValueError(f"min_terms must lie in [1, {box}], got {min_terms}")
        n_terms = rng.randint(min_terms, min(max_terms, box))
        codes = {}
        while len(codes) < n_terms:
            word = tuple(
                rng.randint(-coord_bound, coord_bound) for _ in range(self.n)
            )
            codes[word] = rng.randrange(1, self.level.order)
        return _from_codes(self, codes)

    def lift_level(self, k: int) -> "RingContext":
        """Context at a higher level over the same tower and action."""
        if k == self.k:
            return self
        ctx = self._lifted.get(k)
        if ctx is None:
            ctx = RingContext(
                self.tower, self.action, k,
                cert_bound=self.cert_bound or DEFAULT_CERT_BOUND,
                certify=self.cert_bound is not None,
            )
            self._lifted[k] = ctx
        return ctx

    def __repr__(self):
        return (
            f"RingContext(p={self.tower.p}, q={self.tower.q}, n={self.n}, k={self.k})"
        )


def same_context(a: RingContext, b: RingContext) -> bool:
    return a is b or (
        a.tower is b.tower and a.action is b.action and a.k == b.k
    )


class RingElement:
    """A finitely supported sum of twisted monomials; immutable.

    The stored coefficients are codes, {word: nonzero code}; terms is a
    read-only view of them as {word: FieldElement}.
    """

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: RingContext, terms: dict):
        """terms: {word of length n: field element of ctx's level, or an int
        read in the prime field}; a field element of another level is refused."""
        if any(len(w) != ctx.n for w in terms):
            raise ValueError(f"every word must have length {ctx.n}")
        self.ctx = ctx
        codes = {w: ctx._coeff(c) for w, c in terms.items()}
        self.codes = {w: c for w, c in codes.items() if c}

    @property
    def terms(self) -> dict:
        level = self.ctx.level
        return {w: FieldElement(level, c) for w, c in self.codes.items()}

    def _check(self, other: "RingElement"):
        if not same_context(self.ctx, other.ctx):
            raise ContextMismatchError(
                f"operands live in different contexts: {self.ctx} vs {other.ctx}"
            )

    def support(self) -> tuple:
        return tuple(sorted(self.codes))

    def coefficient(self, word) -> FieldElement:
        return FieldElement(self.ctx.level, self.codes.get(tuple(word), 0))

    def is_zero(self) -> bool:
        return not self.codes

    def is_homogeneous(self) -> bool:
        return len(self.codes) <= 1

    def leading_term(self, key=None):
        """Support point maximal in the given total order, with coefficient.

        The default order is lexicographic on word vectors; any key function
        inducing a total group order may be passed instead.
        """
        if not self.codes:
            raise ValueError("the zero element has no leading term")
        w = max(self.codes, key=key) if key is not None else max(self.codes)
        return w, self.coefficient(w)

    def _combine(self, other, op):
        """Term-wise op(self, other) on codes, for op = level.add or sub."""
        if isinstance(other, int):
            other = self.ctx.scalar(other)
        self._check(other)
        out = dict(self.codes)
        for w, c in other.codes.items():
            out[w] = op(out.get(w, 0), c)
        return _from_codes(self.ctx, out)

    def __add__(self, other):
        return self._combine(other, self.ctx.level.add)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ctx.level.neg
        return _from_codes(self.ctx, {w: neg(c) for w, c in self.codes.items()})

    def __sub__(self, other):
        return self._combine(other, self.ctx.level.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = self.ctx.scalar(other)
        self._check(other)
        return _from_codes(self.ctx, _mul_codes(self.ctx, self.codes, other.codes, {}))

    def __rmul__(self, other):
        # Left multiplication by a plain coefficient never twists.
        if not isinstance(other, (int, FieldElement)):
            return NotImplemented
        return self.ctx.scalar(other) * self

    def __pow__(self, e: int):
        if e < 0:
            return self.invert_unit() ** (-e)
        out = self.ctx.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def invert_unit(self) -> "RingElement":
        """Inverse of a homogeneous element c*g; anything else is not a unit."""
        if len(self.codes) != 1:
            raise NotAUnitError(
                "only nonzero homogeneous elements are units; support size "
                f"{len(self.codes)}"
            )
        (g, c), = self.codes.items()
        neg_g = tuple(-a for a in g)
        level = self.ctx.level
        inv = level.frob_code(level.inv(c), self.ctx.word_exponent(neg_g))
        return _from_codes(self.ctx, {neg_g: inv})

    def lift_to(self, target: RingContext) -> "RingElement":
        """Image under the coefficient embedding into a higher-level context."""
        if same_context(self.ctx, target):
            return self
        if self.ctx.tower is not target.tower or self.ctx.action is not target.action:
            raise ContextMismatchError("lift requires the same tower and action")
        if target.k < self.ctx.k:
            raise ValueError("cannot lift to a lower level")
        embed, k = target.tower.embed_code, self.ctx.k
        return _from_codes(
            target, {w: embed(c, k, target.k) for w, c in self.codes.items()}
        )

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.monomial(other, (0,) * self.ctx.n)
        if not isinstance(other, RingElement):
            return NotImplemented
        return same_context(self.ctx, other.ctx) and self.codes == other.codes

    def __repr__(self):
        return f"RingElement({self.to_literal()})"

    # -- literal syntax -------------------------------------------------------

    def to_literal(self) -> str:
        """Canonical literal: terms in lexicographic word order, coefficients
        as polynomials in the level generator t over GF(q)."""
        if not self.codes:
            return "0"
        digits = self.ctx.level._digits
        return " + ".join(
            _term_literal(w, digits(self.codes[w])) for w in sorted(self.codes)
        )


def _from_codes(ctx: RingContext, codes: dict) -> RingElement:
    """The element with coefficients {word: code}, zero codes dropped."""
    out = RingElement.__new__(RingElement)
    out.ctx = ctx
    out.codes = {w: c for w, c in codes.items() if c}
    return out


class _Meter:
    """Term pairs the product kernels form in `with _METER.budget(cap):`,
    charged once per call, so refused work stops within one call of the cap.
    Budgets do not nest: opening one inside another is a fault."""

    used, cap = 0, None  # cap None: no budget is open and nothing is refused

    def budget(self, cap: int) -> "_Meter":
        if self.cap is not None:
            raise InternalFaultError(f"a work cap of {self.cap} term pairs is open")
        self.used, self.cap = 0, cap
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.cap = None

    def charge(self, pairs: int):
        self.used += pairs
        if self.cap is not None and self.used > self.cap:
            raise BudgetError(f"work cap of {self.cap} term pairs exceeded: "
                              f"{self.used} counted")


_METER = _Meter()


def _mul_codes(ctx: RingContext, left: dict, right: dict, out: dict) -> dict:
    """Add left * right into out, on {word: nonzero code} dicts, by the
    context's kernel; out may hold zeros.  Every twisted product calls this
    module attribute, so one patch of ring._mul_codes reaches them all."""
    if _METER.cap is not None:  # checked inline: most calls run outside a budget
        _METER.charge(len(left) * len(right))
    return ctx._product(left, right, out)


_COMPILED: dict = {}  # source text -> code object, for the process


def _straight_line(name: str, args: str, expr: str, steps=(), **bound):
    """The function name(args) running steps, then returning expr, with the
    globals bound and no builtins; each source text is compiled once."""
    namespace, body = {}, "".join(f"    {step}\n" for step in steps)
    source = f"def {name}({args}):\n{body}    return {expr}\n"
    code = _COMPILED.get(source)
    if code is None:
        code = _COMPILED[source] = compile(source, "<string>", "exec")
    exec(code, {**bound, "__builtins__": {}}, namespace)
    return namespace[name]


def _check_ints(*values):
    """Only exact ints are formatted into compiled source, so no user text
    (nor an int subclass with its own formatting) can reach the compiler."""
    if any(type(v) is not int for v in values):
        raise TypeError("compiled word arithmetic takes only ints")


@lru_cache(maxsize=None, typed=True)
def word_adder(n: int):
    """g, h -> g + h on words of length n: one tuple display, compiled once
    per rank."""
    _check_ints(n)
    sums = "".join(f"g[{i}] + h[{i}], " for i in range(n))
    return _straight_line(f"add_words_{n}", "g, h", f"({sums})")


def _exponent(ts, mod: int, coord: str = "g{}") -> str:
    """Source of (g[0]*t_0 + ... + g[n-1]*t_{n-1}) % mod, coord.format(i) read
    as g[i]: zero truncations drop out and unit ones multiply by nothing."""
    terms = [coord.format(i) + ("" if t == 1 else f" * {t}") for i, t in enumerate(ts) if t]
    return f"({' + '.join(terms)}) % {mod}" if terms else "0"


def exponent_form(ts, mod: int):
    """g -> (g[0]*t_0 + ... + g[n-1]*t_{n-1}) % mod, compiled straight-line."""
    _check_ints(mod, *ts)
    return _straight_line("word_exponent", "g", _exponent(ts, mod, "g[{}]"))


def product_kernel(field, n: int, ts=(), mod: int = 1):
    """(left, right, out) -> out plus left * right, on {word: nonzero code}
    dicts of rank-n words over field: (c g)(d h) = exp(log c + f log d)
    (g + h), f the Frobenius factor at g's exponent, or none with no nonzero
    truncation.  Sums accumulate by field.add, so out may hold zeros."""
    _check_ints(n, mod, *ts)
    g, h = ("".join(f"{x}{i}, " for i in range(n)) for x in "gh")
    e = _exponent(ts, mod)
    return _straight_line("mul_codes", "left, right, out", "out", (
        f"for ({g}), c in left.items():",
        f"    lc, f = log[c], frob[{e}]" if e != "0" else "    lc = log[c]",
        f"    for ({h}), d in right.items():",
        f"        w = ({''.join(f'g{i} + h{i}, ' for i in range(n))})",
        f"        val = exp[(lc + {'f * ' if e != '0' else ''}log[d]) % units]",
        "        prev = out.get(w)",
        "        out[w] = val if prev is None else add(prev, val)"),
        exp=field.exp, log=field.log, units=field.units, add=field.add,
        frob=field._frob_factor if e != "0" else None)


def _coeff_literal(coords) -> tuple:
    """Literal for a field coefficient given by its coordinates; returns
    (text, needs_parens)."""
    monomials = []
    for i, c in reversed(tuple(enumerate(coords))):
        if not c:
            continue
        if i == 0:
            monomials.append(str(c))
        else:
            t = "t" if i == 1 else f"t^{i}"
            monomials.append(t if c == 1 else f"{c}*{t}")
    text = " + ".join(monomials)
    return text, len(monomials) > 1


def _term_literal(word, coords) -> str:
    word_factors = []
    for i, a in enumerate(word, start=1):
        if a == 0:
            continue
        word_factors.append(f"x{i}" if a == 1 else f"x{i}^{a}")
    ctext, parens = _coeff_literal(coords)
    if not word_factors:
        return f"({ctext})" if parens else ctext
    word_text = "*".join(word_factors)
    if ctext == "1":
        return word_text
    return (f"({ctext})" if parens else ctext) + "*" + word_text


# One token per run of x_i^e joined by "*" without spaces (stopping before a
# generator with a spaced "^"), per t^e written without spaces and per
# coefficient sum as _coeff_literal writes it; any other text reads one
# symbol per token.
_POWER = r"x\d+(?:\^-?\d+)?"
_MONOMIAL = r"(?:(?:\d+\*)?t(?:\^\d+)?|\d+)"
_TOKEN = re.compile(rf"\s*({_POWER}(?:\*{_POWER}(?!\s*\^|\d))*|[*+]|t(?:\^\d+)?"
                    rf"|\({_MONOMIAL}(?: \+ {_MONOMIAL})*\)|\d+|[()\-^])|(.)", re.S)
_MAX_NESTING = 100


def _first(tok):
    """The one-symbol token that tok starts with, which error messages name."""
    return tok and (tok[0] if tok[0] in "(t^*" else tok.split("*")[0].partition("^")[0])


class _Parser:
    """Recursive-descent parser for the element literal syntax, on
    {word: code} dicts.

    Grammar (informally):
        element := ['-'] term (('+'|'-') term)*
        term    := factor ('*' factor)*
        factor  := '(' element ')' | INT | 't' ['^' INT] | 'x'I ['^' ['-'] INT]

    The factors of a term multiply in the ring through _mul_codes, except
    that factors x^h with coefficient 1 gather in one pending word: every
    sigma_g fixes 1, so it shifts the words before it, and it enters the
    product as the left factor x^h of the next other factor.  t^e, alone or
    summed in a coefficient token, is read from the level's exp/log tables.
    Integer literals are GF(q) encodings (integers mod q for prime q).
    Parentheses nest at most _MAX_NESTING deep: no literal exhausts the stack.
    """

    def __init__(self, ctx: RingContext, text: str):
        self.ctx = ctx
        self.zero = (0,) * ctx.n
        self.depth = 0
        theta = ctx.level.generator_code()  # 0 at level 0, whose modulus is X
        self.theta_log = ctx.level.log[theta] if theta else None
        toks = [tok for tok, _ in reversed(_TOKEN.findall(text))]
        if "" in toks:  # a character that starts no token
            at = next(m.start() for m in _TOKEN.finditer(text) if m.lastindex == 2)
            raise ValueError(f"bad element literal near {text[at:at + 12]!r}")
        self.toks = [None] + toks  # a stack: the next token is last

    def parse(self) -> dict:
        out = self.element()
        if self.toks[-1] is not None:
            raise ValueError(f"trailing input at {_first(self.toks[-1])!r}")
        return out

    def element(self) -> dict:
        level, out = self.ctx.level, {}
        op = level.add
        if self.toks[-1] == "-":
            self.toks.pop()
            op = level.sub
        while True:
            for w, c in self.term().items():
                out[w] = op(out.get(w, 0), c)
            if self.toks[-1] != "+" and self.toks[-1] != "-":
                return {w: c for w, c in out.items() if c}
            op = level.sub if self.toks.pop() == "-" else level.add

    def term(self) -> dict:
        ctx, toks = self.ctx, self.toks
        out, shift = None, [0] * ctx.n  # the term so far is out * x^shift; None is 1
        while True:
            tok = toks.pop()
            if tok is None:
                raise ValueError("unexpected end of literal")
            if toks[-1] == "^" and tok[0] in "tx" and "^" not in tok:  # spaced: one token
                toks.pop()
                sign = toks.pop() if tok != "t" and toks[-1] == "-" else ""
                digits = toks.pop()
                if digits is None or not digits.isdigit():
                    raise ValueError(f"expected integer, got {_first(digits)!r}")
                tok = f"{tok}^{sign}{digits}"
            if tok[0] == "x":
                for power in tok.split("*"):
                    name, _, e = power.partition("^")
                    i = int(name[1:])
                    if not 1 <= i <= ctx.n:
                        raise ValueError(f"generator index {i} out of range 1..{ctx.n}")
                    shift[i - 1] += int(e or 1)
            else:
                right = self.factor(tok)
                if len(right) == 1 and 1 in right.values():
                    shift = list(ctx.add_words(shift, *right))
                elif out is None and not any(shift):
                    out = right
                else:
                    left = {tuple(shift): 1} if out is None else _shifted(ctx, out, shift)
                    out = {w: c for w, c in _mul_codes(ctx, left, right, {}).items() if c}
                    shift = [0] * ctx.n
            if toks[-1] != "*":
                break
            toks.pop()
        if out is None:
            return {tuple(shift): 1}
        return _shifted(ctx, out, shift) if any(shift) else out

    def factor(self, tok: str) -> dict:
        """A parenthesized element, or a coefficient: an integer, t^e, or a
        coefficient token (c*t^e, c and t^e joined by " + ", in parentheses)."""
        if tok[0] == "(":
            if self.depth == _MAX_NESTING:
                raise ValueError(f"parentheses nest more than {_MAX_NESTING} deep")
            if tok == "(":
                self.depth += 1
                inner = self.element()
                tok = self.toks.pop()
                if tok != ")":
                    raise ValueError(f"expected ')', got {_first(tok)!r}")
                self.depth -= 1
                return inner
        elif tok[0] != "t" and not tok.isdigit():
            raise ValueError(f"unexpected token {tok!r}")
        level, lg, q, code = self.ctx.level, self.theta_log, self.ctx.tower.q, 0
        for monomial in tok.strip("()").split(" + "):
            c, power = 1, monomial
            if monomial[0] != "t":
                digits, _, power = monomial.partition("*")
                c = int(digits)
                if c >= q:
                    raise ValueError(f"coefficient encoding {c} out of range for GF({q})")
            if power:  # theta^e; theta = 0 at level 0
                e = int(power[2:] or 1)
                t = level.exp[lg * e % level.units] if lg is not None else int(not e)
                c = t if c == 1 else level.mul(c, t)
            code = level.add(code, c)
        return {self.zero: code} if code else {}


def _shifted(ctx: RingContext, codes: dict, h) -> dict:
    """codes * x^h: every sigma_g fixes the coefficient 1, so words just shift."""
    add_words = ctx.add_words
    return {add_words(g, h): c for g, c in codes.items()}


def parse_element(ctx: RingContext, text: str) -> RingElement:
    """Parse the element literal syntax; round-trips with to_literal()."""
    return _from_codes(ctx, _Parser(ctx, text).parse())
