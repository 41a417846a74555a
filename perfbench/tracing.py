"""Per-layer spans and counts for the traced run, installed from outside.

`install()` wraps twistkit's public functions and methods in place: every
module namespace that binds a wrapped function gets the wrapper (so
`certificates.groebner_basis` is traced as well as `groebner.groebner_basis`,
and recursion through module globals is counted), and methods are replaced
on their class.  Nothing under `src/` is edited.

A span wrapper records (name, start, end, parent, job) in memory; a nested
call to a span of the same name (recursion) is folded into the outer span.
A span's self time is its duration minus the time its child spans cover.
Counter wrappers only count, which keeps the hottest calls cheap.  Counts
made by a job that does not complete are dropped, so the counts of two
traced runs agree exactly; self times keep everything.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("forests", "discs", "pearl", "laurent", "groebner", "certificates", "germs",
          "matrices", "cli")

# per_layer metrics reported by every traced run, zero where a layer is bypassed
SELF_TIMES = (
    "forests.enumerate", "forests.count", "forests.words", "forests.iso",
    "discs.classes", "discs.bounded",
    "pearl.potential", "pearl.toric", "pearl.d2",
    "laurent.hom_apply",
    "groebner.basis", "groebner.gcd",
    "certificates.certify", "certificates.membership", "certificates.regularity",
    "germs.equivalent",
    "cli.run",
)
COUNTS = (
    "forests.enumerate.trees", "forests.count.calls", "forests.canonical_form.calls",
    "discs.bounded.calls", "discs.classes.found", "discs.unbounded",
    "pearl.d2.calls",
    "laurent.hom_apply.calls", "laurent.new.calls", "laurent.mul.calls", "laurent.add.calls",
    "laurent.times_monomial.calls",
    "groebner.basis.calls", "groebner.basis.size", "groebner.normal_form.calls",
    "groebner.normal_form.nonzero", "groebner.leading_term.calls", "groebner.gcd.calls",
    "certificates.membership.gcd_route", "certificates.membership.groebner_route",
    "certificates.regularity.quotient_dim_sum",
    "germs.equivalent.calls", "germs.candidates", "germs.witnesses",
    "matrices.calls",
)


def _basis_size(result):
    return len(result[0] if isinstance(result, tuple) else result)


# (module, attribute, span name or None, counters, result hook)
# A hook maps the result to extra {counter: increment}.
TARGETS = (
    ("forests", "enumerate_ample_trees", "forests.enumerate", (),
     lambda r: {"forests.enumerate.trees": len(r)}),
    ("forests", "count_ample_trees", "forests.count", ("forests.count.calls",), None),
    ("forests", "canonical_form", None, ("forests.canonical_form.calls",), None),
    *(("forests", name, "forests.words", (), None) for name in (
        "word_to_tree", "parse_forest", "parse_word", "print_tree", "print_forest", "print_word")),
    ("forests", "is_isomorphic", "forests.iso", (), None),
    ("discs", "enumerate_candidate_classes", "discs.classes", (),
     lambda r: {"discs.classes.found": len(r)}),
    ("discs", "feasible_region_bounded", "discs.bounded", ("discs.bounded.calls",),
     lambda r: {"discs.unbounded": int(not r.bounded)}),
    ("pearl", "Potential.__init__", "pearl.potential", (), None),
    ("pearl", "Potential.toric_differential", "pearl.toric", (), None),
    ("pearl", "pearl_d2", "pearl.d2", ("pearl.d2.calls",), None),
    ("pearl", "pearl_d2_from_vs", "pearl.d2", (), None),
    ("laurent", "RingHom.apply", "laurent.hom_apply", ("laurent.hom_apply.calls",), None),
    ("laurent", "LaurentPoly.__init__", None, ("laurent.new.calls",), None),
    ("laurent", "LaurentPoly.__mul__", None, ("laurent.mul.calls",), None),
    ("laurent", "LaurentPoly.__add__", None, ("laurent.add.calls",), None),
    ("laurent", "LaurentPoly.times_monomial", None, ("laurent.times_monomial.calls",), None),
    ("groebner", "groebner_basis", "groebner.basis", ("groebner.basis.calls",),
     lambda r: {"groebner.basis.size": _basis_size(r)}),
    ("groebner", "normal_form", None, ("groebner.normal_form.calls",),
     lambda r: {"groebner.normal_form.nonzero": int(not r[0].is_zero)}),
    ("groebner", "leading_term", None, ("groebner.leading_term.calls",), None),
    ("groebner", "univariate_gcd", "groebner.gcd", ("groebner.gcd.calls",), None),
    ("groebner", "univariate_extended_gcd", "groebner.gcd", ("groebner.gcd.calls",), None),
    ("certificates", "certify_nondisplaceable", "certificates.certify", (), None),
    ("certificates", "ideal_contains_one", "certificates.membership", (),
     lambda r: {f"certificates.membership.{r.method}_route": 1}),
    ("certificates", "regularity_via_hom", "certificates.regularity", (), None),
    ("certificates", "regular_sequence_check", "certificates.regularity", (),
     lambda r: {"certificates.regularity.quotient_dim_sum": r.quotient_dimension or 0}),
    ("germs", "germ_equivalent", "germs.equivalent", ("germs.equivalent.calls",),
     lambda r: {"germs.witnesses": int(type(r).__name__ == "UnimodularWitness")}),
    *(("matrices", name, None, ("matrices.calls",), None) for name in (
        "mat", "identity", "transpose", "mat_mul", "mat_vec", "mat_det", "mat_inv", "mat_rank",
        "as_int_matrix", "is_unimodular")),
    ("cli", "run", "cli.run", (), None),
)
# extra counters for one binding: mat_mul as called from germs is a candidate test
BINDING_COUNTERS = {("twistkit.germs", "mat_mul"): ("germs.candidates",)}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.stack = []  # [span index, child time]
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.job_counts = Counter()
        self.job = None
        self.failing = None
        self.failing_layer = None

    # -- jobs ----------------------------------------------------------------

    def start_job(self, job_id):
        self.job = job_id
        self.job_counts = Counter()
        self.stack.clear()  # an alarm inside a wrapper's own bookkeeping leaves debris

    def end_job(self, completed):
        if completed:
            self.counts.update(self.job_counts)
        self.job_counts = Counter()
        self.job = None

    def failed_layer(self, exc):
        """The layer whose span was innermost when `exc` was raised."""
        return self.failing_layer if exc is self.failing else "bench"

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, span, counters, hook):
        tracer = self

        def counted(*args, **kwargs):
            counts = tracer.job_counts
            for key in counters:
                counts[key] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                counts.update(hook(result))
            return result

        if span is None:
            return counted

        def spanned(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1][0]][0] == span:
                return counted(*args, **kwargs)
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else None
            record = [span, time.perf_counter(), None, parent, tracer.job]
            tracer.spans.append(record)
            stack.append([index, 0.0])
            try:
                return counted(*args, **kwargs)
            except BaseException as exc:
                if tracer.failing is not exc:
                    tracer.failing = exc
                    tracer.failing_layer = span.split(".")[0]
                raise
            finally:
                record[2] = end = time.perf_counter()
                _, child = stack.pop()
                duration = end - record[1]
                tracer.self_time[span] += duration - child
                if stack:
                    stack[-1][1] += duration

        return spanned

    def per_layer(self):
        """Self times and exact counts, every name present."""
        out = {f"{name}.self_s": self.self_time.get(name, 0.0) for name in SELF_TIMES}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        calls = self.counts.get("groebner.normal_form.calls", 0)
        nonzero = self.counts.get("groebner.normal_form.nonzero", 0)
        out["groebner.normal_form.useful_ratio"] = nonzero / calls if calls else 0.0
        candidates = self.counts.get("germs.candidates", 0)
        witnesses = self.counts.get("germs.witnesses", 0)
        out["germs.candidate_hit_ratio"] = witnesses / candidates if candidates else 0.0
        return out


def install():
    """Import twistkit, wrap every target in every binding, return the tracer."""
    for module_name in {target[0] for target in TARGETS}:
        importlib.import_module(f"twistkit.{module_name}")
    tracer = Tracer()
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "twistkit" or name.startswith("twistkit.")]
    for module_name, attr, span, counters, hook in TARGETS:
        module = sys.modules[f"twistkit.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(getattr(cls, method), span, counters, hook))
            continue
        original = getattr(module, attr)
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if value is original:
                    extra = BINDING_COUNTERS.get((namespace.__name__, name), ())
                    setattr(namespace, name,
                            tracer.wrap(original, span, counters + extra, hook))
    return tracer
