"""The names the benchmark's tracer wraps exist where it looks them up.

`sixbench/tracer.py` replaces sixch functions and methods by name when a
traced benchmark run starts; a name it reads that sixch no longer has makes
every traced run raise.  These tests load the tracer by path (it needs only
the standard library at import) and check each name `Tracer.install` reads,
without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "sixbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("sixbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def sixch_module(name):
    return importlib.import_module(f"sixch.{name}")


@pytest.mark.parametrize("name", tracer.SIXCH_MODULES)
def test_traced_modules_import(name):
    sixch_module(name)


@pytest.mark.parametrize("module, cls, meth", [
    (module, cls, meth) for module, classes in tracer.METHODS.items()
    for cls, methods in classes.items() for meth in methods])
def test_traced_methods_are_defined_on_their_class(module, cls, meth):
    # install reads vars(cls)[meth]: an inherited method would not do
    assert callable(vars(getattr(sixch_module(module), cls))[meth])


@pytest.mark.parametrize("module, attr", [
    (module, attr) for table in (tracer.PRIVATE, tracer.COUNTED)
    for module, attrs in table.items() for attr in attrs])
def test_private_and_counted_helpers_exist(module, attr):
    assert callable(getattr(sixch_module(module), attr))


@pytest.mark.parametrize("attr", tracer.FFT_NAMES)
def test_fft_entry_points_bound_in_grid(attr):
    assert callable(getattr(sixch_module("grid"), attr))


def test_stepper_krylov_and_scheme_table():
    stepper = sixch_module("stepper")
    assert callable(stepper.lgmres)
    assert stepper._STEPPERS and all(callable(fn) for fn in stepper._STEPPERS.values())
