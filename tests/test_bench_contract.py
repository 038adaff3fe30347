"""The benchmark's tracer reports functions of this package by name.

bench/tracer.py lists them in REPORTED, and its install() raises when one is
missing, so deleting or renaming one of them breaks the traced benchmark
run.  This test reads REPORTED without installing the tracer.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name", tracer.REPORTED)
def test_reported_function_is_public(name):
    # ff_det is reported once per entry ring, as exact.ff_det.<ring>; the
    # test for a public function is the one install() applies
    layer, attr = name.split(".")[:2]
    assert layer in tracer.LAYERS
    module = importlib.import_module("%s.%s" % (tracer.PACKAGE, layer))
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert callable(fn) and not isinstance(fn, type), name
    assert getattr(fn, "__module__", None) == module.__name__, name
