"""Summarize the run records under ``perfbench/out/`` as one BENCH file.

    python3 perfbench/summarize.py > perfbench/BENCH_<label>.json

For each workload and trace mode it gives every metric's median, quartiles
and relative spread (quartile distance over median) across the seeds run,
the same for the raw end-to-end values,
the exact counts of each seed's first pass, and the environment of the
first record.
"""

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def quartiles(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def summarize(records: list) -> dict:
    summary = {"seeds": sorted(r["seed"] for r in records), "metrics": {}, "raw_metrics": {}}
    for name, first in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        summary["metrics"][name] = dict(unit=first["unit"], **quartiles(values))
    for name in records[0]["raw_metrics"]:
        summary["raw_metrics"][name] = quartiles([r["raw_metrics"][name] for r in records])
    summary["counts_per_pass"] = {r["seed"]: r["counts_per_pass"] for r in records}
    summary["attempted"] = sum(r["attempted"] for r in records)
    summary["failed"] = sum(r["failed"] for r in records)
    summary["wrong"] = sum(r["wrong"] for r in records)
    return summary


def main() -> int:
    groups = {}
    for path in sorted(OUT.glob("*.json")):
        record = json.loads(path.read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    if not groups:
        print(f"no records under {OUT}", file=sys.stderr)
        return 1
    first = next(iter(groups.values()))[0]
    report = {"environment": first["environment"], "seconds": first["seconds"], "runs": {}}
    for (workload, trace), records in sorted(groups.items()):
        report["runs"][f"{workload}/trace{trace}"] = summarize(records)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
