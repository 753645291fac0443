"""The literal parser against the former one, kept here as the reference.

The reference parses each factor to a RingElement and multiplies them with
RingElement.__mul__; parse_element works on {word: code} dicts.  Both must
agree on every literal, canonical or not, and on every error message.
"""

import random
import re

import pytest

from twistlab import ring
from twistlab.action import default_action
from twistlab.ring import RingContext, RingElement, _from_codes, parse_element
from twistlab.tower import TowerConfig, build_tower

# -- reference parser -------------------------------------------------------------


TOKEN = re.compile(r"\s*(\d+|[t()*+\-^]|x\d+)")


def tokenize(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad element literal near {text[pos:pos+12]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class ReferenceParser:
    """The former recursive-descent parser, on one RingElement per factor.

    Grammar (informally):
        element := ['-'] term (('+'|'-') term)*
        term    := factor ('*' factor)*
        factor  := '(' element ')' | INT | 't' ['^' INT] | 'x'I ['^' ['-'] INT]

    A term denotes coefficient * group word: coefficient factors multiply in
    the level field, x-factors add exponents per variable.  Integer literals
    are GF(q) encodings (for prime q they read as integers mod q).
    """

    def __init__(self, ctx: RingContext, tokens):
        self.ctx = ctx
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> RingElement:
        out = self.element()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return out

    def element(self) -> RingElement:
        # terms accumulate as codes: one wrap per literal, not one per + or -
        level, out = self.ctx.level, {}
        op = level.add
        if self.peek() == "-":
            self.take()
            op = level.sub
        while True:
            for w, c in self.term().codes.items():
                out[w] = op(out.get(w, 0), c)
            if self.peek() not in ("+", "-"):
                return _from_codes(self.ctx, out)
            op = level.sub if self.take() == "-" else level.add

    def term(self) -> RingElement:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> RingElement:
        tok = self.take()
        if tok is None:
            raise ValueError("unexpected end of literal")
        if tok == "(":
            inner = self.element()
            self.expect(")")
            return inner
        if tok == "t":
            exp = 1
            if self.peek() == "^":
                self.take()
                exp = self._int()
            return self.ctx.scalar(self.ctx.theta() ** exp)
        if tok.startswith("x"):
            idx = int(tok[1:])
            exp = 1
            if self.peek() == "^":
                self.take()
                exp = self._signed_int()
            return self.ctx.gen(idx, exp)
        if tok.isdigit():
            code = int(tok)
            if code >= self.ctx.tower.q:
                raise ValueError(
                    f"coefficient encoding {code} out of range for GF({self.ctx.tower.q})"
                )
            return self.ctx.scalar(self.ctx.level.from_base(code))
        raise ValueError(f"unexpected token {tok!r}")

    def _int(self) -> int:
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ValueError(f"expected integer, got {tok!r}")
        return int(tok)

    def _signed_int(self) -> int:
        if self.peek() == "-":
            self.take()
            return -self._int()
        return self._int()


def reference_parse(ctx: RingContext, text: str) -> RingElement:
    return ReferenceParser(ctx, tokenize(text)).parse()


# -- tests ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=[2, 3, 4], ids=lambda q: f"q{q}")
def contexts(request):
    # level 0 has theta = 0 (its modulus is X), so t reads as 0 there
    tower = build_tower(TowerConfig(2, request.param, 2))
    rank2, rank4 = default_action(2, 2), default_action(4, 2)
    return [RingContext(tower, rank2, k) for k in (0, 1, 2)] + [
        RingContext(tower, rank4, 1)]


def random_literal(rng, q, n, depth=0):
    """A valid literal, mostly not canonical: coefficients after words,
    repeated variables, nested parentheses, products of sums, integer
    coefficients, signs and optional spaces."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [random_factor(rng, q, n, depth) for _ in range(rng.randint(1, 4))]
        terms.append(rng.choice(["*", " * "]).join(factors))
    text = "-" if rng.random() < 0.25 else ""
    text += terms[0]
    for t in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-"]) + t
    return text


def random_factor(rng, q, n, depth):
    kind = rng.choice("(ntxx" if depth < 2 else "ntxx")
    if kind == "(":
        return "(" + random_literal(rng, q, n, depth + 1) + ")"
    if kind == "n":
        return str(rng.randrange(q))
    if kind == "t":
        return "t" + (f"^{rng.randrange(6)}" if rng.random() < 0.6 else "")
    word = f"x{rng.randint(1, n)}"
    return word + (f"^{rng.randint(-3, 3)}" if rng.random() < 0.7 else "")


LISTED = [
    "x1*t", "x1*t + t*x1", "x2^-1*t^3*x1", "x1*x1^-1", "x1^2*x2*x1^-2*x2^-1*t",
    "-t", "-x1*t - 1", "((t))", "(1 + x1)*(t + x2)", "(x1 + t)*(x1 - t)*x2",
    "((x1 + 1)*(x2 + t))*((t^2 + x1^-1)*x2)", "0", "0*x1", "1 - 1", "x1 - x1",
    "t^0", "x1^0*t", "(t + 1)*x1^2*x2^-1 + 1", "t", "t^3 + t^0*x2",
    # x-factors between coefficient factors, and 1 among them
    "x1*t*x2^-1*(t + 1)*x1^2", "x1^-1*x2*(x1 + t)*x2^2*t^3*x1",
    "t*x1*1*x2*t^0*(x2 + 1)*x1^-1", "x2^3*(t*x1 - x2)*x2^-3*(1 + t^2*x1)",
    "(x1*t)*x2*((x2*t)*x1)*t", "x1*0*x2", "x2*(x1)*t^2*(1)*x2^-2",
    # token boundaries: spaced exponents, and sums that are not one token
    "x1 ^ - 2*t ^ 3", "( t^2 + 1 )*x2", "(t^2+1)*x1", "(t + 1)*(t^2 + t)*x1",
    # a run of generator powers ends before a generator with a spaced exponent
    "x1^2*x2 ^ 3", "x1*x2 ^ -1",
]
# over q = 3 and 4 only: a coefficient token with c*t^i monomials
LISTED_Q34 = ["(2*t^2 + t + 2)*x1^-1"]
# over rank 4 only
LISTED_RANK4 = [
    "x3*t*x4^-2*(t + x1)*x3^-1", "x4^2*x3*x2*x1*t^2*x4^-1*(x3 - t)",
    "(t + x4)*x3^-3*t*x2^2*(1 + x3)*x4",
]


def test_parser_matches_reference_on_listed_literals(contexts):
    for ctx in contexts:
        q = ctx.tower.q
        coefficients = [f"{c}*x1*t - x2*{c}" for c in range(q)]
        listed = LISTED + (LISTED_RANK4 if ctx.n == 4 else []) + (LISTED_Q34 if q > 2 else [])
        for text in listed + coefficients:
            assert parse_element(ctx, text) == reference_parse(ctx, text), text


def test_parser_matches_reference_on_seeded_literals(contexts):
    rng = random.Random(11)
    for ctx in contexts:
        for _ in range(200):
            text = random_literal(rng, ctx.tower.q, ctx.n)
            assert parse_element(ctx, text) == reference_parse(ctx, text), text


MALFORMED = [
    "x3", "x0", "t^", "t^-1", "2 +", "(1", "1)", "()", "x1^^2", "x1^-", "y1",
    "5*x1", "", "1 ", " ", "x1 x2", "x9 + ??", "1 + ?", "x", "+1", "--1",
    "1 + (x1", "t^x1", "(1))", "1 +* 2",
    # token boundaries; (t + 5) is out of range at q = 2
    "x1^2^3", "(t + 5)*x1", "(t + 1", "x1^2x2", "(t^2 + t)^2", "x1 (t + 1)",
    # runs of generator powers: errors name the run's first generator, and
    # check each generator in turn
    "(x1)x2*x1", "x1*x3", "x1*x2^", "x1*x2^12 ^ 2", "x1*x12 ^ 2",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_literals_keep_their_messages(ctx_n2_k1, text):
    with pytest.raises(ValueError) as want:
        reference_parse(ctx_n2_k1, text)
    with pytest.raises(ValueError) as got:
        parse_element(ctx_n2_k1, text)
    assert str(got.value) == str(want.value)


def test_canonical_literals_make_no_twist(tower223, monkeypatch):
    # every twisted product goes through the kernel _mul_codes
    calls, kernel = [], ring._mul_codes
    monkeypatch.setattr(ring, "_mul_codes",
                        lambda *a: calls.append(a) or kernel(*a))
    for n in (2, 4):
        ctx = RingContext(tower223, default_action(n, 2), 2)
        rng = random.Random(3)
        for _ in range(50):
            text = ctx.random_element(rng, max_terms=5).to_literal()
            assert parse_element(ctx, text).to_literal() == text
        assert calls == []
        parse_element(ctx, "(1 + x1)*t")  # the counter sees a product that twists
        assert len(calls) == 1
        calls.clear()


def test_nesting_depth_is_bounded(ctx_n2_k1):
    x1 = ctx_n2_k1.gen(1)
    assert parse_element(ctx_n2_k1, "(" * 100 + "x1" + ")" * 100) == x1
    for depth in (101, 3000):
        with pytest.raises(ValueError, match="parentheses nest more than 100 deep"):
            parse_element(ctx_n2_k1, "(" * depth + "x1" + ")" * depth)
    # a coefficient token's parentheses count as one level
    t1 = parse_element(ctx_n2_k1, "t + 1")
    assert parse_element(ctx_n2_k1, "(" * 99 + "(t + 1)" + ")" * 99) == t1
    with pytest.raises(ValueError, match="parentheses nest more than 100 deep"):
        parse_element(ctx_n2_k1, "(" * 100 + "(t + 1)" + ")" * 100)
