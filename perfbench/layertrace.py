"""Opt-in tracing of twistlab's layers, installed from outside the package.

``install(tl)`` replaces functions and methods of the library with wrappers:
class attributes for methods, module attributes for functions (patched in
every module that calls them by name).  The library's own files are never
edited.  Each wrapper records at its layer boundary:

* counts (calls and the work measures listed in README.md);
* time: a stack of open frames gives each boundary its *self* time, its
  duration minus the durations of the wrapped calls made inside it;
* spans (name, start, end, parent) for the coarse boundaries, kept in
  memory and written out at exit.  The hot leaf boundaries (field and ring
  products, Frobenius, embeddings, Laurent arithmetic) are aggregated only,
  since one span each would cost more memory than the run itself.

Recording happens only while ``Tracer.active`` is set, so the benchmark's own
output checks are not counted.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

class Tracer:
    def __init__(self):
        self.active = False
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.stack = []  # open frames: [start, child time, span index]
        self.spans = []  # [name, start, end, parent span index or -1]
        self.frob_keys = set()
        self.marks = {}  # count readings taken on entry to a boundary

    def timed(self, name, fn, span=False, before=None, after=None):
        """Wrap fn as a timed boundary; before(args) and after(args, result)
        update counts."""
        perf = time.perf_counter
        stack, spans = self.stack, self.spans
        self_s, incl_s = self.self_s, self.incl_s

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            parent = stack[-1][2] if stack else -1
            start = perf()
            idx = parent
            if span:
                idx = len(spans)
                spans.append([name, start, None, parent])
            frame = [start, 0.0, idx]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                incl_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                if span:
                    spans[idx][2] = end
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """Count calls only; the time stays with the caller."""
        counts = self.counts

        def wrapper(*args):
            if self.active:
                counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, name):
        """Context manager for a benchmark-level span (set-up or one item)."""
        return _Root(self, name)


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        tr.active = True
        start = time.perf_counter()
        self.idx = len(tr.spans)
        tr.spans.append([self.name, start, None, -1])
        self.frame = [start, 0.0, self.idx]
        tr.stack.append(self.frame)

    def __exit__(self, *exc):
        tr = self.tracer
        end = time.perf_counter()
        tr.stack.pop()
        tr.spans[self.idx][2] = end
        tr.self_s[self.name] += end - self.frame[0] - self.frame[1]
        tr.incl_s[self.name] += end - self.frame[0]
        tr.active = False
        return False


def _relation_vectors(config, coeff_bound, k, witness):
    """Candidate vectors find_relation scanned: the witness's position in its
    itertools.product order over [-B, B]^n, or the whole box."""
    side = 2 * coeff_bound + 1
    if witness is None:
        return side**config.n
    pos = 0
    for c in witness:
        pos = pos * side + (c + coeff_bound)
    return pos + 1


def install(tl) -> Tracer:
    """Wrap the layer boundaries of the imported package namespace ``tl``."""
    tr = Tracer()
    counts = tr.counts
    T, R, Q = tl.tower, tl.ring, tl.quotient

    def bump(key):
        def before(args):
            counts[key] += 1
        return before

    # fields: base-field table operations, counted only
    for attr in ("mul", "add"):
        setattr(tl.fields.BaseField, attr,
                tr.counted(f"fields.{attr}_calls", getattr(tl.fields.BaseField, attr)))

    # tower
    def mul_before(args):
        # field * ring element returns NotImplemented and is not a multiply
        if not isinstance(args[1], R.RingElement):
            counts[f"tower.mul_calls.k{args[0].level.m}"] += 1

    def frob_before(args):
        level, x, times = args
        counts["tower.frob_calls"] += 1
        tr.frob_keys.add((level.m, times % level.degree, x.coords))

    T.FieldElement.__mul__ = tr.timed("tower.mul", T.FieldElement.__mul__,
                                      before=mul_before)
    T.TowerLevel.frobenius = tr.timed("tower.frob", T.TowerLevel.frobenius,
                                      before=frob_before)
    T.Tower.embed = tr.timed("tower.embed", T.Tower.embed,
                             before=bump("tower.embed_calls"))
    T.build_tower = tr.timed("tower.build", T.build_tower, span=True)

    # action: certification runs inside RingContext, which imported it by name
    def relation_after(args, witness):
        config, coeff_bound, k = args
        counts["action.relation_vectors"] += _relation_vectors(
            config, coeff_bound, k, witness)

    tl.action.find_relation = tr.timed("action.find_relation",
                                       tl.action.find_relation, after=relation_after)
    R.least_certified_level = tr.timed("action.cert", R.least_certified_level,
                                       span=True)
    exponent = tr.counted("action.exponent_calls", tl.action.action_exponent)
    for mod in (R, tl.center, tl.simplicity):
        mod.action_exponent = exponent

    # ring
    def ring_mul_before(args):
        a, b = args
        counts["ring.mul_calls"] += 1
        if isinstance(b, R.RingElement):
            counts["ring.term_pairs"] += len(a.terms) * len(b.terms)
        else:
            counts["ring.term_pairs"] += len(a.terms)

    R.RingElement.__mul__ = tr.timed("ring.mul", R.RingElement.__mul__,
                                     before=ring_mul_before)
    R.RingElement.lift_to = tr.timed(
        "ring.lift", R.RingElement.lift_to, span=True,
        before=bump("ring.lift_calls"))
    R.parse_element = tr.timed("ring.parse", R.parse_element, span=True)

    # center
    tl.center.kernel_lattice = tr.timed("center.lattice", tl.center.kernel_lattice,
                                        span=True)
    Q.decompose_over_center = tr.timed(
        "center.decompose", Q.decompose_over_center,
        before=bump("center.decompose_calls"))

    # simplicity
    def unit_after(args, trace):
        counts["simplicity.items"] += 1
        counts["simplicity.steps"] += len(trace.steps)
        if trace.separating_level > args[0].ctx.k:
            counts["simplicity.ascents"] += 1

    S = tl.simplicity
    S.unit_in_ideal = tr.timed("simplicity.unit", S.unit_in_ideal, span=True,
                               after=unit_after)
    S.replay_trace = tr.timed("simplicity.replay", S.replay_trace, span=True)

    # pi: ring products made inside each evaluation
    def eval_before(args):
        counts["pi.eval_calls"] += 1
        tr.marks["pi"] = counts["ring.mul_calls"]

    def eval_after(args, out):
        counts["pi.products"] += counts["ring.mul_calls"] - tr.marks["pi"]

    tl.pi.standard_polynomial = tr.timed("pi.eval", tl.pi.standard_polynomial,
                                         span=True, before=eval_before,
                                         after=eval_after)

    # growth: vectors kept against Frobenius calls made while tabulating
    def table_before(args):
        tr.marks["growth"] = counts["tower.frob_calls"]

    def table_after(args, table):
        counts["growth.vectors"] += table.rows[-1]
        counts["growth.frob_calls"] += (counts["tower.frob_calls"]
                                        - tr.marks["growth"])

    tl.growth.growth_table = tr.timed("growth.table", tl.growth.growth_table,
                                      span=True, before=table_before,
                                      after=table_after)

    # quotient
    Q.invert = tr.timed("quotient.invert", Q.invert, span=True)
    Q.regular_representation = tr.timed(
        "quotient.regrep", Q.regular_representation, span=True,
        before=bump("quotient.regrep_calls"))
    Q.bareiss_determinant = tr.timed(
        "quotient.bareiss", Q.bareiss_determinant, span=True,
        before=bump("quotient.bareiss_calls"))
    Q.LaurentPoly.__mul__ = tr.counted("quotient.laurent_mul_calls",
                                       Q.LaurentPoly.__mul__)
    Q.LaurentPoly.exact_div = tr.counted("quotient.exact_div_calls",
                                         Q.LaurentPoly.exact_div)
    # the exact multiply-and-compare that invert runs on its own result
    for attr in ("__mul__", "__eq__"):
        setattr(Q.CentralFraction, attr,
                tr.timed("quotient.verify", getattr(Q.CentralFraction, attr),
                         span=True))
    return tr


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer figure of one traced pass, by metric name."""
    c, s, inc = tr.counts, tr.self_s, tr.incl_s

    def ratio(num, den):
        return num / den if den else 0.0

    frob_calls = c["tower.frob_calls"]
    out = {
        "fields.mul_calls": c["fields.mul_calls"],
        "fields.add_calls": c["fields.add_calls"],
        "tower.build_s": inc["tower.build"],
    }
    for m in range(5):
        out[f"tower.mul_calls.k{m}"] = c[f"tower.mul_calls.k{m}"]
    out.update({
        "tower.mul_self_s": s["tower.mul"],
        "tower.frob_calls": frob_calls,
        "tower.frob_self_s": s["tower.frob"],
        "tower.frob_repeat_ratio": ratio(frob_calls - len(tr.frob_keys), frob_calls),
        "tower.embed_calls": c["tower.embed_calls"],
        "tower.embed_self_s": s["tower.embed"],
        "action.cert_s": inc["action.cert"],
        "action.relation_vectors": c["action.relation_vectors"],
        "action.exponent_calls": c["action.exponent_calls"],
        "ring.mul_calls": c["ring.mul_calls"],
        "ring.term_pairs": c["ring.term_pairs"],
        "ring.mul_self_s": s["ring.mul"],
        "ring.lift_calls": c["ring.lift_calls"],
        "ring.lift_self_s": s["ring.lift"],
        "ring.parse_s": inc["ring.parse"],
        "center.lattice_s": inc["center.lattice"],
        "center.decompose_calls": c["center.decompose_calls"],
        "center.decompose_self_s": s["center.decompose"],
        "simplicity.unit_self_s": s["simplicity.unit"],
        "simplicity.replay_self_s": s["simplicity.replay"],
        "simplicity.steps": c["simplicity.steps"],
        "simplicity.ascent_ratio": ratio(c["simplicity.ascents"],
                                         c["simplicity.items"]),
        "pi.eval_calls": c["pi.eval_calls"],
        "pi.eval_self_s": s["pi.eval"],
        "pi.products_per_eval": ratio(c["pi.products"], c["pi.eval_calls"]),
        "growth.table_self_s": s["growth.table"],
        "growth.vectors": c["growth.vectors"],
        "growth.useful_ratio": ratio(c["growth.vectors"], c["growth.frob_calls"]),
        "quotient.invert_self_s": s["quotient.invert"],
        "quotient.regrep_calls": c["quotient.regrep_calls"],
        "quotient.regrep_self_s": s["quotient.regrep"],
        "quotient.bareiss_calls": c["quotient.bareiss_calls"],
        "quotient.bareiss_self_s": s["quotient.bareiss"],
        "quotient.laurent_mul_calls": c["quotient.laurent_mul_calls"],
        "quotient.exact_div_calls": c["quotient.exact_div_calls"],
        "quotient.verify_self_s": s["quotient.verify"],
        "trace.unattributed_s": s["item"] + s["setup"],
    })
    return out
