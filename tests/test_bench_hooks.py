"""The benchmark's hooks into the package: the functions the tracer wraps and
the public ops the op table replays must keep existing under these names, or
`bench/run.py --trace 1` breaks while every other test still passes."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _bench_module("tracer")


@pytest.mark.parametrize("module,function", tracer.TRACED, ids=tracer.TRACED_NAMES)
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"sevreg.{module}"), function))


def test_op_table_runs_and_names_every_op():
    ops = _bench_module("ops")
    table = ops.op_table(0, reps=1)
    assert tuple(sorted(table)) == ops.OP_NAMES
    assert all(t > 0.0 for t in table.values())
