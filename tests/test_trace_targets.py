"""Every twistkit name the benchmark's tracer wraps still exists, and each
result hook still reads the result of its own function.

`perfbench/tracing.py` wraps the functions and methods listed in `TARGETS`
(and counts some bindings in `BINDING_COUNTERS`) with no fallback, so a
deleted or renamed name would break every traced benchmark run, and a hook
reads fields of its function's result (`.bounded`, `.method`,
`.quotient_dimension`, `normal_form`'s `r[0]`), so a removed field or a
changed return shape would too.  The module is executed from its source
text here, without `install()`, so nothing is wrapped and nothing is written
under `perfbench/`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_loader("perfbench_tracing", loader=None)
    module = importlib.util.module_from_spec(spec)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def resolve(module_name, attr):
    value = importlib.import_module(module_name)
    for part in attr.split("."):
        value = getattr(value, part)
    return value


def test_every_traced_name_resolves():
    tracing = load_tracing()
    wrapped = set()
    for module_name, attr, *_ in tracing.TARGETS:
        wrapped.add(resolve(f"twistkit.{module_name}", attr))
    for namespace, name in tracing.BINDING_COUNTERS:
        # a counted binding must be one of the functions the tracer wraps
        assert resolve(namespace, name) in wrapped, (namespace, name)


def hook_calls():
    """(module, attribute) -> argument tuples of real calls, covering each
    branch a hook reads."""
    from twistkit.discs import ConstraintTable, HomologyBasis
    from twistkit.laurent import GF2, RATIONAL, LaurentPoly
    from twistkit.presets import (
        circle_constraint_table, clifford_germ, theta_constraint_table, theta_germ,
    )

    v = ("x", "y")
    x, y = (LaurentPoly.var(RATIONAL, v, name) for name in v)
    one = LaurentPoly.one(RATIONAL, v)
    t = LaurentPoly.var(GF2, ("t",), "t")
    unbounded = ConstraintTable(
        HomologyBasis(names=("A", "B"), boundary_matrix=((1, 0), (0, 1)), n_torus_rank=2),
        rows=(), maslov_vector=(2, 0), target_maslov=2,
    )
    return {
        ("forests", "enumerate_ample_trees"): [(4,)],
        ("discs", "enumerate_candidate_classes"): [(theta_constraint_table(),)],
        ("discs", "feasible_region_bounded"): [(circle_constraint_table(),), (unbounded,)],
        ("groebner", "groebner_basis"): [([x - one],), ([x - one, y], True)],
        ("groebner", "normal_form"): [(x * y + one, [x - one]), (x * y, [x])],
        ("certificates", "ideal_contains_one"): [([t + t * t],), ([x - one, y + one],)],
        ("certificates", "regular_sequence_check"): [(x + x ** -1 + y + y ** -1,), (x,)],
        ("germs", "germ_equivalent"): [(theta_germ(), theta_germ()),
                                      (theta_germ(), clifford_germ())],
    }


def test_every_result_hook_reads_its_own_result():
    tracing = load_tracing()
    calls = hook_calls()
    hooked = [(m, a, hook) for m, a, _, _, hook in tracing.TARGETS if hook is not None]
    assert {(m, a) for m, a, _ in hooked} == set(calls)
    for module_name, attr, hook in hooked:
        fn = resolve(f"twistkit.{module_name}", attr)
        seen = []
        for args in calls[module_name, attr]:
            counts = hook(fn(*args))
            assert set(counts) <= set(tracing.COUNTS), (attr, counts)
            assert all(type(n) is int for n in counts.values()), (attr, counts)
            seen.append(counts)
        if len(seen) > 1:  # the calls take different branches of the hook
            assert seen[0] != seen[1], (attr, seen)
