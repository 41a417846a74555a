"""Every twistkit name the benchmark's tracer wraps still exists.

`perfbench/tracing.py` wraps the functions and methods listed in `TARGETS`
(and counts some bindings in `BINDING_COUNTERS`) with no fallback, so a
deleted or renamed name would break every traced benchmark run.  The module
is executed from its source text here, without `install()`, so nothing is
wrapped and nothing is written under `perfbench/`.
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
