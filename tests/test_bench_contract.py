"""Smoke test of what the benchmark in ``perfbench/`` needs from the program.

The benchmark wraps module attributes of ``tvbound`` to record spans and
reads fields of the results; a change that breaks either ends a benchmark
run without its result line.  These tests run the first op of each workload
(and the ops in ``EXTRA_OPS``) the way ``perfbench/run.py`` runs a traced
op, and check that the CLI's import-time metric cannot turn the result line
into invalid JSON.  They only read ``perfbench/``.
"""

import importlib
import math
import os
import subprocess
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


# ops run besides each workload's first: EX3 n=4 has one free variable and
# blocks that keep a constant kernel on the kernel face, and in EX1 n=4 that
# face leaves no variable at all
EXTRA_OPS = {"atomic_exact": ("EX1 n=4", "EX3 n=4")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_op_runs_traced(workload):
    ops = workloads.build_ops(workload)
    ops = ops[:1] + [op for op in ops if op.name in EXTRA_OPS.get(workload, ())]
    assert len(ops) == 1 + len(EXTRA_OPS.get(workload, ()))
    workloads.prepare(ops)
    for op in ops:
        recorder = Recorder()
        with recorder.installed():
            out = workloads.describe(op, *workloads.run_op(op))
        workloads.check(op, out)
        assert out.error == "", op.name
        solves = [attrs for name, *_, attrs in recorder.spans if name == "conic.solve"]
        assert solves
        for attrs in solves:
            for key in ("iterations", "residual", "block_order_sum"):
                assert math.isfinite(attrs[key]), (op.name, key, attrs)


def test_cli_import_time_of_scipy_integrate_is_finite():
    # A traced run reports the time ``import tvbound.cli`` spends importing
    # scipy.integrate.  For a module the CLI does not import, run.py's
    # _importtime_us gives NaN, which json.dumps writes as a bare NaN into
    # the result line.  This test goes once the benchmark reports 0 there.
    saved = os.environ.copy()
    try:
        run = importlib.import_module("run")  # pins BLAS threads on import
    finally:
        os.environ.clear()
        os.environ.update(saved)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tvbound.cli"],
        capture_output=True, text=True, env=run.child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert math.isfinite(run._importtime_us(proc.stderr, "scipy.integrate"))
