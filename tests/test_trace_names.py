"""The benchmark's traced names exist in the library.

``perfbench/layers.py`` names each per-layer metric by a span, and
``perfbench/tracer.py`` can only open a span around a public function or
method that is still there; a metric whose name is gone is left out of a
traced run.  This test resolves every span the layers read, so a change
that drops or renames a traced name fails here rather than in a traced
benchmark result that lacks the metric.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers, tracer = _load("layers"), _load("tracer")
SPANS = sorted({span for _, span, _, _ in layers.METRICS} | set(layers.COUNTERS))


def _traced(owner, name):
    """Whether the tracer wraps ``name`` on a module or class: a public
    function defined there, or a method whose attribute is public or one of
    the arithmetic dunders it reports under that operation name."""
    if isinstance(owner, types.ModuleType):
        value = vars(owner).get(name)
        return (isinstance(value, types.FunctionType)
                and value.__module__ == owner.__name__ and not name.startswith("_"))
    attrs = [a for a, op in tracer.DUNDER_OPS.items() if op == name]
    if not name.startswith("_"):
        attrs.append(name)
    return any(isinstance(vars(owner).get(a), (types.FunctionType, classmethod, staticmethod))
               for a in attrs)


def test_the_layers_name_spans():
    # A change of the layers' format must not leave the test below empty.
    assert len(SPANS) >= 20


@pytest.mark.parametrize("span", SPANS)
def test_every_traced_span_resolves_to_a_public_library_name(span):
    module_name, *path = span.split(".")
    module = importlib.import_module(f"hirotaweb.{module_name}")
    if len(path) == 1:
        assert _traced(module, path[0]), span
    else:
        cls_name, op = path
        cls = vars(module).get(cls_name)
        assert isinstance(cls, type) and cls.__module__ == module.__name__, span
        assert _traced(cls, op), span
