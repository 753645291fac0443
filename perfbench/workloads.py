"""The four benchmark workloads: seeded inputs, item runners and output checks.

Input generation is stdlib only and never calls the library's samplers, so a
change to ``RingContext.random_element`` or ``random_separable_element`` cannot
change a workload.  Every input reaches the program as an element literal.

Each workload is a fixed list of *cells* (one experiment shape each) and each
cell a fixed number of items.  The seed picks words and coefficients; the
shape of every item (degree, level, term counts, support size) is fixed by
its position in the list, so different seeds give the same amount of work.

All workloads use p = q = 2, so a level-m coefficient is a polynomial of
degree < 2^m in the level generator t over GF(2), written from the bits of
an integer code.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb

P = 2
Q = 2


def _rng(workload: str, seed: int, cell: str) -> random.Random:
    # one stream per cell, so resizing one cell leaves the others unchanged
    return random.Random(f"{workload}:{seed}:{cell}")


# -- literals -----------------------------------------------------------------


def coeff_literal(code: int) -> tuple:
    """Literal of the GF(2)[t] polynomial whose bit i is the t^i coefficient;
    returns (text, needs_parens)."""
    mons = []
    for i in reversed(range(code.bit_length())):
        if code >> i & 1:
            mons.append("1" if i == 0 else "t" if i == 1 else f"t^{i}")
    return " + ".join(mons), len(mons) > 1


def term_literal(word, code: int) -> str:
    factors = [
        f"x{i}" if a == 1 else f"x{i}^{a}"
        for i, a in enumerate(word, start=1) if a
    ]
    text, parens = coeff_literal(code)
    ctext = f"({text})" if parens else text
    if not factors:
        return ctext
    word_text = "*".join(factors)
    return word_text if text == "1" else f"{ctext}*{word_text}"


def element_literal(terms: dict) -> str:
    """Canonical literal (terms in lexicographic word order) of {word: code}."""
    return " + ".join(term_literal(w, terms[w]) for w in sorted(terms))


def sparse_terms(rng, n: int, level: int, count: int, bound: int = 2) -> dict:
    """count distinct words in [-bound, bound]^n with nonzero level coefficients."""
    order = Q ** (P**level)
    terms = {}
    while len(terms) < count:
        word = tuple(rng.randint(-bound, bound) for _ in range(n))
        terms[word] = rng.randrange(1, order)
    return terms


def default_truncations(n: int, k: int) -> list:
    """Residues mod p^k of the library's default exponents, computed here from
    their definition (a_1 = 1, a_i has digit positions (n t + i)^2)."""
    ts = [1 % P**k]
    for i in range(2, n + 1):
        total, t = 0, 0
        while (n * t + i) ** 2 < k:
            total += P ** ((n * t + i) ** 2)
            t += 1
        ts.append(total % P**k)
    return ts


def central_word(rng, n: int, k: int) -> tuple:
    """A nonzero word acting trivially on level k (so x^word is central)."""
    ts = default_truncations(n, k)
    mod = P**k
    while True:
        rest = [rng.randint(-1, 1) for _ in range(n - 1)]
        first = -sum(h * t for h, t in zip(rest, ts[1:])) % mod
        word = (first + mod * rng.randint(-1, 0), *rest)
        if any(word):
            return word


def l1_ball_size(n: int, radius: int) -> int:
    """Number of integer points of l1 norm <= radius in Z^n: choose the i
    nonzero coordinates, their signs, and a composition of at most radius."""
    return sum(2**i * comb(n, i) * comb(radius, i) for i in range(n + 1))


# -- workloads ----------------------------------------------------------------
#
# Each workload has: name; generate(seed) -> JSON-able inputs; setup(tl,
# inputs) -> prepared items (tl is the package's modules, see worker.py);
# run(tl, item) -> output, the timed call; canonical(out) -> the text hashed
# into the digest; check(item, out) -> None, or why the output is wrong.


def _contexts(tl, k_max: int, cells) -> dict:
    """Tower, one shared action per rank, one context and lattice per (n, k)."""
    tower = tl.tower.build_tower(tl.tower.TowerConfig(P, Q, k_max))
    actions, ctxs = {}, {}
    for n, k in sorted(cells):
        if n not in actions:
            actions[n] = tl.action.default_action(n, P)
        ctx = tl.ring.RingContext(tower, actions[n], k)
        tl.center.kernel_lattice(ctx)
        ctxs[(n, k)] = ctx
    return ctxs


class PiTrials:
    """standard_polynomial on seeded argument tuples (n = 2, k_max = 3)."""

    name = "pi_trials"
    N = 2
    K_MAX = 3
    # (cell, degree m, level k, max terms per argument, items)
    CELLS = (
        ("s4_k1", 4, 1, 3, 50),
        ("s4_k2", 4, 2, 3, 50),
        ("s6_k2", 6, 2, 2, 12),
        ("s6_k3", 6, 3, 2, 6),
        ("s8_k2", 8, 2, 1, 1),
    )

    def generate(self, seed):
        items = []
        for cell, m, k, max_terms, count in self.CELLS:
            rng = _rng(self.name, seed, cell)
            for i in range(count):
                args = [
                    element_literal(sparse_terms(
                        rng, self.N, k, 1 + (i * m + j) % max_terms))
                    for j in range(m)
                ]
                items.append({"cell": cell, "k": k, "args": args})
        return {"items": items}

    def setup(self, tl, inputs):
        ctxs = _contexts(tl, self.K_MAX, {(self.N, it["k"]) for it in inputs["items"]})
        return [
            dict(it, elements=[tl.ring.parse_element(ctxs[(self.N, it["k"])], a)
                               for a in it["args"]])
            for it in inputs["items"]
        ]

    def run(self, tl, item):
        return tl.pi.standard_polynomial(item["elements"])

    def canonical(self, out):
        return out.to_literal()

    def check(self, item, out):
        # S_4 is a polynomial identity of the level-1 ring (2 p^k = 4)
        if item["k"] == 1 and not out.is_zero():
            return "S_4 did not vanish at level 1"
        return None


class InvertFractions:
    """invert(CentralFraction) on seeded fractions (k_max = 2)."""

    name = "invert_fractions"
    K_MAX = 2
    # (cell, n, k, items)
    CELLS = (
        ("n1_k1", 1, 1, 90),
        ("n2_k1", 2, 1, 90),
        ("n1_k2", 1, 2, 4),
        ("n2_k2", 2, 2, 4),
    )
    # Level-2 numerators: two terms in one of these shapes, moved by a seeded
    # word.  With free words one level-2 inversion costs 1x to 8x another (the
    # spread of the words along central directions sets the Laurent degrees),
    # so a few such items would make the run time depend on the seed.
    SHAPES = {
        1: (((0,), (1,)), ((0,), (2,))),
        2: (((0, 0), (1, 0)), ((0, 0), (1, 1))),
    }

    def _numerator(self, rng, n, k, i):
        if k == 1:  # 2 or 3 free terms, alternating
            return sparse_terms(rng, n, k, 2 + i % 2)
        shape = self.SHAPES[n][i % len(self.SHAPES[n])]
        shift = [rng.randint(-2, 2) for _ in range(n)]
        order = Q ** (P**k)
        return {tuple(a + b for a, b in zip(w, shift)): rng.randrange(1, order)
                for w in shape}

    def generate(self, seed):
        items = []
        for cell, n, k, count in self.CELLS:
            rng = _rng(self.name, seed, cell)
            for i in range(count):
                num = self._numerator(rng, n, k, i)
                den = {(0,) * n: 1, central_word(rng, n, k): 1}
                items.append({"cell": cell, "n": n, "k": k,
                              "num": element_literal(num),
                              "den": element_literal(den)})
        return {"items": items}

    def setup(self, tl, inputs):
        cells = {(it["n"], it["k"]) for it in inputs["items"]}
        ctxs = _contexts(tl, self.K_MAX, cells)
        prepared = []
        for it in inputs["items"]:
            ctx = ctxs[(it["n"], it["k"])]
            lat = tl.center.kernel_lattice(ctx)
            frac = tl.quotient.CentralFraction(
                ctx, tl.ring.parse_element(ctx, it["num"]),
                tl.ring.parse_element(ctx, it["den"]), lattice=lat)
            prepared.append(dict(it, fraction=frac))
        return prepared

    def run(self, tl, item):
        return tl.quotient.invert(item["fraction"])

    def canonical(self, out):
        return f"{out.num.to_literal()} / {out.den.to_literal()}"

    def check(self, item, out):
        f = item["fraction"]
        # f g = 1 and g f = 1, written with ring products only
        if f.num * out.num != f.den * out.den or out.num * f.num != out.den * f.den:
            return "f * g is not 1"
        return None


class ShrinkAscent:
    """unit_in_ideal then replay_trace (n = 4, k_max = 4)."""

    name = "shrink_ascent"
    N = 4
    K_MAX = 4
    HOME_LEVELS = (1, 2)
    ITEMS = 600
    COORD_BOUND = 2
    MAX_SUPPORT = 6

    def generate(self, seed):
        rng = _rng(self.name, seed, "elements")
        # the random_separable_element rule: first coordinates pairwise
        # distinct inside a window narrower than p^k_max, the rest free
        window = P**self.K_MAX - 1
        b = self.COORD_BOUND
        items = []
        for i in range(self.ITEMS):
            home = self.HOME_LEVELS[i % len(self.HOME_LEVELS)]
            size = 2 + i % (self.MAX_SUPPORT - 1)
            firsts = rng.sample(range(-b, -b + window), size)
            order = Q ** (P**home)
            terms = {
                (f, *(rng.randint(-b, b) for _ in range(self.N - 1))):
                    rng.randrange(1, order)
                for f in firsts
            }
            items.append({"home": home, "element": element_literal(terms)})
        return {"items": items}

    def setup(self, tl, inputs):
        ctxs = _contexts(tl, self.K_MAX, {(self.N, k) for k in self.HOME_LEVELS})
        return [
            dict(it, element=tl.ring.parse_element(ctxs[(self.N, it["home"])],
                                                   it["element"]))
            for it in inputs["items"]
        ]

    def run(self, tl, item):
        trace = tl.simplicity.unit_in_ideal(item["element"])
        return trace, tl.simplicity.replay_trace(trace)

    def canonical(self, out):
        return json.dumps(out[0].to_json_dict(), sort_keys=True)

    def check(self, item, out):
        trace, replayed = out
        if replayed != trace.final_unit:
            return "replay differs from the final unit"
        if len(trace.final_unit.terms) != 1:
            return "final unit is not homogeneous"
        return None


class GrowthSpan:
    """growth_table on seeded generator sets and on the default generators."""

    name = "growth_span"
    K_MAX = 4
    # (cell, n, k, n_max, seeded generator sets); plus one default-generator
    # table per cell with the same n_max.  The counts put the median item
    # inside the (2,2) block and the 90th percentile inside the (2,4) block.
    CELLS = (
        ("n2_k2", 2, 2, 6, 40),
        ("n3_k2", 3, 2, 4, 30),
        ("n2_k3", 2, 3, 5, 16),
        ("n2_k4", 2, 4, 4, 14),
    )

    @staticmethod
    def _word_pairs(n):
        """Pairs of distinct words from {0, +-e_i}.  Generator j of set i
        takes pair 3i + 7j (cyclically), so every seed builds the same words
        and picks only the coefficients: with free words one table costs up
        to 8x another in the same cell."""
        words = [(0,) * n] + [tuple(s if j == i else 0 for j in range(n))
                              for i in range(n) for s in (1, -1)]
        return list(combinations(words, 2))

    def generate(self, seed):
        items = []
        for cell, n, k, n_max, count in self.CELLS:
            rng = _rng(self.name, seed, cell)
            pairs = self._word_pairs(n)
            order = Q ** (P**k)
            x1 = element_literal({(1,) + (0,) * (n - 1): 1})
            for i in range(count):
                gens = [
                    element_literal({w: rng.randrange(1, order)
                                     for w in pairs[(3 * i + 7 * j) % len(pairs)]})
                    for j in range(2 + i % 2)
                ]
                items.append({"cell": cell, "n": n, "k": k, "n_max": n_max,
                              "gens": gens + [x1]})
            items.append({"cell": cell, "n": n, "k": k, "n_max": n_max,
                          "gens": None})
        return {"items": items}

    def setup(self, tl, inputs):
        cells = {(it["n"], it["k"]) for it in inputs["items"]}
        ctxs = _contexts(tl, self.K_MAX, cells)
        prepared = []
        for it in inputs["items"]:
            ctx = ctxs[(it["n"], it["k"])]
            gens = None
            if it["gens"] is not None:
                gens = [tl.ring.parse_element(ctx, g) for g in it["gens"]]
            prepared.append(dict(it, ctx=ctx, elements=gens))
        return prepared

    def run(self, tl, item):
        return tl.growth.growth_table(item["ctx"], item["elements"],
                                      n_max=item["n_max"])

    def canonical(self, out):
        return ",".join(map(str, out.rows)) + f";{out.truncated_at}"

    def check(self, item, out):
        rows = out.rows
        if rows[0] != 1 or any(b < a for a, b in zip(rows, rows[1:])):
            return "growth rows decrease"
        # default generators (theta, x_i^(+-1)) have words of l1 norm <= 1
        gens = item["elements"] or ()
        radius = max([1] + [sum(map(abs, w)) for g in gens for w in g.terms])
        deg = P ** item["k"]
        for n_len, dim in enumerate(rows):
            if dim > deg * l1_ball_size(item["n"], n_len * radius):
                return f"row {n_len} exceeds deg * |l1 ball|"
        return None


WORKLOADS = {w.name: w for w in (PiTrials(), InvertFractions(),
                                 ShrinkAscent(), GrowthSpan())}
