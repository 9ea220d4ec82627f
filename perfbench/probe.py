"""One fresh interpreter per call, started by ``run.py``.

    python perfbench/probe.py setup <workload>
        Import tvbound, run the workload's warm-up op and print the
        monotonic clock (ns) at its end; ``run.py`` subtracts the time it
        started this process to get one ``setup_s`` sample.

    python -X importtime perfbench/probe.py cli <cli config>
        One CLI probe: import ``tvbound.cli``, run
        ``bound --config <cli config> --format json``, print the CLI's output
        on stdout, and write the clock at start, after the import and at the
        end as the last line of stderr.  Exits with the CLI's code.

Both then time the calibration kernel of ``hostspeed.py`` (``host_ms``),
after the timed part, so that the sample comes from the CPU the probe ran on.

Both expect ``PYTHONPATH`` to name the checkout's ``src/`` and BLAS to be
pinned in the environment, as ``run.py`` arranges.
"""

import time

START_NS = time.perf_counter_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HOST_SAMPLES = 3


def host_ms() -> list:
    from hostspeed import HostSpeed

    speed = HostSpeed()
    return [speed.sample() for _ in range(HOST_SAMPLES)]


def setup(workload: str) -> int:
    import workloads

    op = workloads.build_ops(workload)[0]
    workloads.set_reference_moments(op)
    workloads.run_op(op)
    warm_end_ns = time.perf_counter_ns()
    print(json.dumps({"warm_end_ns": warm_end_ns, "host_ms": host_ms()}))
    return 0


def cli(config: str) -> int:
    import tvbound.cli

    imported_ns = time.perf_counter_ns()
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        code = tvbound.cli.main(["bound", "--config", config, "--format", "json"])
    done_ns = time.perf_counter_ns()
    sys.stdout.write(output.getvalue())
    sys.stdout.flush()
    report = {"start_ns": START_NS, "imported_ns": imported_ns, "done_ns": done_ns,
              "host_ms": host_ms()}
    print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    if sys.argv[1] == "cli":
        sys.exit(cli(sys.argv[2]))
    sys.exit(f"unknown probe mode {sys.argv[1]!r}")
