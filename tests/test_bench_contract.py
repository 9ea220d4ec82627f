"""Smoke test of what the benchmark in ``perfbench/`` needs from the program.

The benchmark wraps module attributes of ``tvbound`` to record spans and
reads fields of the results; a change that breaks either ends a benchmark
run without its result line.  These tests run the first op of each workload
the way ``perfbench/run.py`` runs a traced op.  They only read
``perfbench/``.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from spans import WRAPPED, Recorder  # noqa: E402

WORKLOADS = ("gaussian_table", "atomic_exact", "certified")


def test_wrapped_attributes_resolve():
    for module_name, attr, _, _ in WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_op_runs_traced(workload):
    op = workloads.build_ops(workload)[0]
    workloads.prepare([op])
    recorder = Recorder()
    with recorder.installed():
        out = workloads.describe(op, *workloads.run_op(op))
    workloads.check(op, out)
    assert out.error == ""
    solves = [attrs for name, *_, attrs in recorder.spans if name == "conic.solve"]
    assert solves
    for attrs in solves:
        for key in ("iterations", "residual", "block_order_sum"):
            assert math.isfinite(attrs[key]), (key, attrs)
