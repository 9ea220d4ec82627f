"""Benchmark of tvbound, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from the
checkout's ``src/``.  Workloads (see ``BENCHMARK.json`` for why each exists):

    gaussian_table  9 published Gaussian pairs x levels 1-4, default settings
    atomic_exact    atomic pairs at levels 1 .. exactness + 2, kernel reduction
                    on, Hahn-Jordan extraction at and above exactness
    certified       the 11 non-table property-matrix cases, certify=True,
                    each op ends with verify_certificate

Each workload is a closed loop with a single caller: one op at a time, the
next issued when the last returns, in passes over the workload's ops shuffled
by ``--seed``.  Every pass runs the same ops.  Passes run while the next is
expected to end within ``--seconds``, and at least one.  BLAS is pinned to
one thread here and in every child process.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs each op twice, untraced and traced in alternating order, and reports the
per-layer metrics from the spans of the traced runs (see ``spans.py``) plus
the tracing overhead, the paired difference of the two.  On
``gaussian_table`` it also runs ``CLI_PROBES`` fresh ``tvbound.cli bound``
processes under ``python -X importtime`` for the ``cli`` layer; they are
checked, and one that fails makes the run incorrect, but they are not ops.
Every op is checked (oracle TV, monotone levels, certificate value,
extraction); a failed op is counted, not raised.  Time metrics are given at
the reference host speed of ``hostspeed.py``.  The last line of stdout is
the JSON result; the full record, with the raw end-to-end values, exact
counts, versions and ``src/`` size, is written under ``perfbench/out/``, and
with ``--trace 1`` the spans too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CLI_CONFIG = "perfbench/cli_config.json"
WORKLOADS = ("gaussian_table", "atomic_exact", "certified")
SETUP_PROBES = 3          # fresh processes per run for setup_s
CLI_PROBES = 3            # CLI processes per traced gaussian_table run
CHILD_TIMEOUT_S = 120.0
STATUSES = ("Optimal", "MaxIter", "NumericalFailure", "Infeasible")

# metric names and units, in the order of BENCHMARK.json
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])
# span name -> per-layer metric of its mean self time per op
SELF_TIME_METRICS = {
    "conic.solve": "conic.solve_ms",
    "relaxation.assemble": "relaxation.assemble_ms",
    "relaxation.solve_level": "relaxation.solve_level_self_ms",
    "relaxation.solve_hierarchy": "relaxation.solve_hierarchy_self_ms",
    "measures.moments": "measures.moments_ms",
    "certificates.recover": "certificates.recover_ms",
    "certificates.verify": "certificates.verify_ms",
    "extraction.hahn_jordan": "extraction.hahn_jordan_ms",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ---------------------------------------------------------------- environment

def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, where it exposes one."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_files": len(files),
    }


# ---------------------------------------------------------------- set-up

def measure_setup(workload: str) -> list:
    """setup_s samples: interpreter start to end of the warm-up op, each in a
    fresh process, as (raw seconds, factor to the reference speed from the
    probe's own calibration samples).  Oracles are not part of it."""
    from hostspeed import scale_of

    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), "setup", workload],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(((report["warm_end_ns"] - spawned) / 1e9, scale_of(report["host_ms"])))
    return samples


# ---------------------------------------------------------------- in-process

def timed_op(op, recorder=None):
    """Run one op, return its Outcome; an op that raises is a failed op."""
    import workloads as W

    start = time.perf_counter()
    try:
        if recorder is None:
            produced = W.run_op(op)
        else:
            with recorder.span("bench.op"):
                produced = W.run_op(op)
    except Exception as exc:  # the loop must go on; the failure is counted
        out = W.Outcome(status="exception", error=f"{type(exc).__name__}: {exc}")
    else:
        out = W.describe(op, *produced)
    out.latency_s = time.perf_counter() - start
    W.check(op, out)
    return out


def measure(ops, plain_op, traced_op, seed: int, seconds: float, recorder, speed) -> dict:
    """The closed loop: whole passes, each over ``ops`` shuffled by ``seed``.

    A further pass starts while, at the mean pass time so far, it would end
    by ``seconds``; so every pass is whole, whatever the host's speed.  With
    a recorder every op runs twice, plain and traced, in alternating order.
    Between ops, at least ``EVERY_S`` apart, ``speed`` takes a calibration
    sample, and each op is scaled to the reference speed by the samples
    around the one taken next after it.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    passes = []
    waiting = []                           # outcomes without a sample yet
    sampled = []                           # (outcomes, index of their sample)

    def calibrate():
        speed.sample()
        sampled.append((list(waiting), len(speed.samples) - 1))
        waiting.clear()

    start = time.perf_counter()
    while True:
        done = []
        for k in rng.permutation(len(ops)):
            op = ops[k]
            if recorder is None:
                out = plain_op(op)
                done.append((op, out, None))
                waiting.append(out)
            else:
                recorder.op += 1
                # alternate which form runs first, so neither gains from order
                if recorder.op % 2 == 0:
                    base = plain_op(op)
                    out = traced_op(op)
                else:
                    out = traced_op(op)
                    base = plain_op(op)
                done.append((op, out, base))
                waiting.extend((out, base))
            if speed.due():
                calibrate()
        calibrate()
        passes.append(done)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    factors = speed.factors()
    for outs, index in sampled:
        for out in outs:
            out.scale = factors[index]
    return {"passes": passes, "elapsed_s": elapsed, "recorder": recorder}


def run_in_process(workload: str, seed: int, seconds: float, traced: bool, speed) -> dict:
    import workloads as W
    from spans import Recorder

    ops = W.build_ops(workload)
    W.prepare(ops)                         # inputs and oracles, before timing
    timed_op(ops[0])                       # warm-up, not measured
    recorder = Recorder() if traced else None

    def traced_op(op):
        with recorder.installed():
            return timed_op(op, recorder)

    run = measure(ops, timed_op, traced_op, seed, seconds, recorder, speed)
    for done in run["passes"]:
        W.check_monotone([(op, out) for op, out, _ in done])
    run.update(verifies=workload == "certified", cli=[])
    if traced and workload == "gaussian_table":
        run["cli"] = run_cli_probes()
    return run


# ---------------------------------------------------------------- cli

def _importtime_us(stderr: str, module: str) -> float:
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if name.strip() == module:
                return float(cumulative)
    return math.nan


def run_cli_probes() -> list:
    """Fresh ``tvbound.cli bound`` processes on the CLI config, each under
    ``python -X importtime``; returns an (Outcome, timings) pair for each.

    The first call warms the file cache and gives no timings; the next
    ``CLI_PROBES`` split the call into interpreter start, ``import
    tvbound.cli`` and the run itself, in ms at the reference speed.
    """
    import workloads as W
    from hostspeed import scale_of

    case = W.CliCase.load(str(ROOT / CLI_CONFIG))
    argv = [sys.executable, "-X", "importtime", str(BENCH / "probe.py"), "cli", CLI_CONFIG]
    probes = []
    for k in range(CLI_PROBES + 1):
        spawned = time.perf_counter_ns()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            probes.append((W.Outcome(status="timeout", error="cli call timed out"), None))
            continue
        timings = None
        if proc.returncode == 0 and k > 0:
            report = json.loads(proc.stderr.strip().splitlines()[-1])
            scale = scale_of(report["host_ms"])
            timings = {key: value * scale for key, value in {
                "interpreter_ms": (report["start_ns"] - spawned) / 1e6,
                "import_ms": _importtime_us(proc.stderr, "tvbound.cli") / 1e3,
                "import_scipy_integrate_ms": _importtime_us(proc.stderr, "scipy.integrate") / 1e3,
                "run_ms": (report["done_ns"] - report["imported_ns"]) / 1e6,
            }.items()}
        probes.append((case.outcome(proc.returncode, proc.stdout), timings))
    return probes


# ---------------------------------------------------------------- metrics

def outcomes(run: dict) -> list:
    """(op name, Outcome, plain Outcome or None) for every op of every pass;
    with tracing, the first Outcome is the traced one."""
    return [(op.name, out, plain) for done in run["passes"] for op, out, plain in done]


def pass_counts(run: dict) -> dict:
    """Exact counts of the first pass, from the results the layers returned;
    ``repeat`` says whether every pass gave the same counts, as it should."""
    per_pass = []
    for done in run["passes"]:
        per_pass.append({
            "ops": len(done),
            "failed": sum(not out.ok for _, out, _ in done),
            "ipm_iterations": sum(out.iterations for _, out, _ in done),
            "block_order_sum": sum(out.block_order_sum for _, out, _ in done),
            "statuses": dict(sorted(Counter(out.status for _, out, _ in done).items())),
        })
    return dict(per_pass[0], passes=len(per_pass),
                repeat=all(p == per_pass[0] for p in per_pass))


def op_medians_ms(named_latencies) -> list:
    """Each op's median latency over the run, in ms, from (op name, seconds).

    The median latency is taken over these rather than over every sample:
    a workload's ops form clusters (zero-iteration ops against long IPM
    runs), and a few slow samples of the ops next to the median would
    otherwise move it across a gap between clusters.
    """
    per_op = {}
    for name, seconds in named_latencies:
        per_op.setdefault(name, []).append(seconds * 1e3)
    return [statistics.median(v) for v in per_op.values()]


def end_to_end(run: dict, setup: list, scaled: bool = True) -> dict:
    """The end-to-end metrics, with times at the reference speed, or raw as
    measured when ``scaled`` is false."""
    import workloads as W

    named = [(name, out.latency_s * (out.scale if scaled else 1.0))
             for name, out, _ in outcomes(run)]
    outs = [out for _, out, _ in outcomes(run)]
    ok = [out for out in outs if out.ok]
    latencies = [seconds * 1e3 for _, seconds in named]
    return {
        "latency_ms_p50": statistics.median(op_medians_ms(named)),
        "latency_ms_p90": (
            statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            if len(latencies) > 1 else latencies[0]
        ),
        # run time is the caller's time in ops, without the checks between them
        "throughput_ops_s": len(ok) * 1e3 / sum(latencies),
        "ok_share": len(ok) / len(outs),
        "accuracy_digits_p50": (
            statistics.median(W.accuracy_digits(out.residual) for out in ok) if ok else 0.0
        ),
        "setup_s": statistics.median(raw * (scale if scaled else 1.0) for raw, scale in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: dict) -> dict:
    """Per-layer metrics from the spans of the traced ops.  Times are mean
    self time per op over the run, at the reference speed; counts and shares
    are those of the first pass, so that a seed reproduces them exactly."""
    import workloads as W
    from spans import self_times

    spans = run["recorder"].spans
    ops = outcomes(run)
    n_ops = len(ops)
    first_pass = len(run["passes"][0])     # op ids 0 .. first_pass - 1
    scales = [out.scale for _, out, _ in ops]    # indexed by op id

    def span_ms(span) -> float:
        return (span[2] - span[1]) / 1e6 * scales[span[4]]

    self_ms = Counter()
    for span, ns in zip(spans, self_times(spans)):
        self_ms[span[0]] += ns / 1e6 * scales[span[4]]
    op_ms = sum(span_ms(span) for span in spans if span[0] == "bench.op")
    solve_spans = [span for span in spans if span[0] == "conic.solve"]
    solve_ms = sum(span_ms(span) for span in solve_spans)
    iterating = [(span_ms(span), span[5]["iterations"])
                 for span in solve_spans if span[5].get("iterations", 0) > 0]

    def first(name: str, key: str | None = None) -> list:
        return [span[5] for span in spans if span[0] == name and span[4] < first_pass
                and (key is None or key in span[5])]

    solves = first("conic.solve", "status")
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = self_ms[span_name] / n_ops
    metrics["conic.share"] = solve_ms / op_ms
    if iterating:
        metrics["conic.ms_per_iter"] = sum(ms for ms, _ in iterating) / sum(
            its for _, its in iterating)
    if solves:
        metrics["conic.solves"] = len(solves)
        metrics["conic.iterations"] = sum(a["iterations"] for a in solves)
        metrics["conic.iterations_p50"] = statistics.median(a["iterations"] for a in solves)
        metrics["conic.converged_share"] = sum(a["residual"] <= a["tol"] for a in solves) / len(solves)
        metrics["conic.zero_iter_share"] = sum(a["iterations"] == 0 for a in solves) / len(solves)
        metrics["conic.accepted_loose"] = sum(
            a["status"] == "Optimal" and a["residual"] > a["tol"] for a in solves)
        for status in STATUSES:
            metrics[f"conic.status.{status}"] = sum(a["status"] == status for a in solves)
        metrics["relaxation.block_order_sum"] = sum(a["block_order_sum"] for a in solves)
    assembles = first("relaxation.assemble", "reduced")
    if assembles:
        metrics["relaxation.reduced_share"] = sum(a["reduced"] for a in assembles) / len(assembles)
    extractions = first("extraction.hahn_jordan")
    if extractions:
        metrics["extraction.flat_share"] = sum("error" not in a for a in extractions) / len(extractions)
    if run["verifies"]:
        first_outs = [out for _, out, _ in run["passes"][0]]
        verified = [out for out in first_outs if out.verified is not None]
        metrics["certificates.verified_share"] = sum(
            out.verified <= out.rho + W.CERT_SLACK for out in verified) / len(first_outs)
        metrics["certificates.cert_gap_max"] = max(
            (out.rho - out.verified for out in verified), default=0.0)

    probes = [timings for _, timings in run["cli"] if timings]
    if probes:
        for key in ("interpreter_ms", "import_ms", "import_scipy_integrate_ms", "run_ms"):
            metrics[f"cli.{key}"] = statistics.median(p[key] for p in probes)
    traced_ms = [out.latency_s * 1e3 * out.scale for _, out, _ in ops]
    plain_ms = [plain.latency_s * 1e3 * plain.scale for _, _, plain in ops]
    metrics["bench.self_ms"] = self_ms["bench.op"] / n_ops
    metrics["trace.latency_ms_p50"] = statistics.median(
        op_medians_ms((name, out.latency_s * out.scale) for name, out, _ in ops))
    metrics["trace.layers_share"] = 1.0 - self_ms["bench.op"] / op_ms
    metrics["trace.overhead_ms"] = statistics.median(t - p for t, p in zip(traced_ms, plain_ms))
    metrics["trace.overhead_share"] = sum(traced_ms) / sum(plain_ms) - 1.0
    return metrics


# ---------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tvbound" / "__init__.py").is_file():
        print(f"error: no tvbound package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tvbound

    if Path(tvbound.__file__).resolve().parent != (SRC / "tvbound").resolve():
        print(f"error: imported tvbound from {tvbound.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)

    from hostspeed import REFERENCE_MS, HostSpeed

    traced = bool(args.trace)
    speed = HostSpeed()
    setup = [] if traced else measure_setup(args.workload)
    run = run_in_process(args.workload, args.seed, args.seconds, traced, speed)

    spec = PER_LAYER if traced else END_TO_END
    values = per_layer(run) if traced else end_to_end(run, setup)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in spec}
    raw = {} if traced else end_to_end(run, setup, scaled=False)
    host_ms = [ms for _, ms in speed.samples]
    ops = [(name, out) for name, out, _ in outcomes(run)]
    failed = [f"{name}: {out.error}" for name, out in ops if not out.ok]
    # a CLI probe is a check of the run, not an op: any failure of it is wrong
    cli_errors = [out.error for out, _ in run["cli"] if not out.ok]
    latencies = {}
    for name, out in ops:
        latencies.setdefault(name, []).append(out.latency_s * 1e3)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": len(ops), "failed": len(failed), "failed_share": len(failed) / len(ops),
        "wrong": sum(out.wrong for _, out in ops) + len(cli_errors),
        "cli_probes": len(run["cli"]), "cli_errors": cli_errors,
        "elapsed_s": run["elapsed_s"], "setup_samples_s": [raw_s for raw_s, _ in setup],
        "counts_per_pass": pass_counts(run),
        "failures": Counter(failed), "metrics": metrics, "raw_metrics": raw,
        "host_speed": {
            "reference_ms": REFERENCE_MS, "samples": len(host_ms),
            "median_ms": statistics.median(host_ms),
            "min_ms": min(host_ms), "max_ms": max(host_ms),
        },
        "op_latency_ms_p50": {name: statistics.median(v) for name, v in sorted(latencies.items())},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        run["recorder"].write(str(OUT / f"{stem}.spans.jsonl"))

    for name, metric in metrics.items():
        line = f"{name:36s} {metric['value']:14.6g} {metric['unit']}"
        print(line + (f"   (raw {raw[name]:.6g})" if name in raw else ""))
    print("host_speed", json.dumps(record["host_speed"]))
    print(f"{'failed_share':36s} {record['failed_share']:14.6g} share")
    print("counts_per_pass", json.dumps(record["counts_per_pass"]))
    print("environment", json.dumps(record["environment"]))
    for failure, times in record["failures"].items():
        print(f"failed x{times}: {failure}")
    for error in cli_errors:
        print(f"cli probe failed: {error}")
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
