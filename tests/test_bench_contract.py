"""The names the benchmark's tracer wraps exist where it looks them up.

`sixbench/tracer.py` replaces sixch functions and methods by name when a
traced benchmark run starts; a name it reads that sixch no longer has makes
every traced run raise.  These tests load the tracer by path (it needs only
the standard library at import) and check each name `Tracer.install` reads,
without installing it in this process.  The last ones check that each span
name `sixbench/run.py` sums is one the tracer reports.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# `sixbench/run.py` sums the trace by span name, and a name the trace lacks
# reads as 0 without error; a renamed step function would make every traced
# run divide by zero.
RUN_PATH = TRACER_PATH.with_name("run.py")


def _summed_span_names() -> set[str]:
    """The names run.py's `_per_layer` passes to calls() and total(), the
    module-level tuples it unpacks there (EVALUATORS, FFT_SPANS) included."""
    tree = ast.parse(RUN_PATH.read_text())
    tuples = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Tuple)}
    per_layer = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_per_layer")
    names = set()
    for call in ast.walk(per_layer):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("calls", "total"):
            for arg in call.args:
                if isinstance(arg, ast.Starred):
                    names.update(tuples[arg.value.id])
                else:
                    names.add(ast.literal_eval(arg))
    return names


SUMMED = sorted(_summed_span_names())


@pytest.fixture(scope="module")
def traced_names():
    """Every span and counter name the tracer reports, read from an install in
    a fresh interpreter (install rebinds sixch's functions process-wide)."""
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import sixch.cli; "
              "from tracer import Tracer; t = Tracer(); t.install(); "
              "print(json.dumps([*t.stats, *t.counts]))")
    src = str(TRACER_PATH.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script, str(TRACER_PATH.parent)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return set(json.loads(out))


def test_summed_names_found():
    assert {"stepper.step_imex", "stepper.step_implicit", "model.apriori_diagnostics",
            "potential.eval_beta"} <= set(SUMMED)


@pytest.mark.parametrize("name", SUMMED)
def test_summed_span_is_traced(traced_names, name):
    assert name in traced_names
