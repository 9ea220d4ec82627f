"""Bit-level fingerprint of the solver's results, for refactors that must
not change them.

    python3 tools/fingerprint.py OUT [--root CHECKOUT]
    python3 tools/fingerprint.py --compare A B

The first form imports ``tvbound`` from ``CHECKOUT/src`` and the benchmark's
ops from ``CHECKOUT/perfbench/workloads.py`` (``CHECKOUT`` defaults to the
checkout holding this file), runs two sets of solves and writes one
tab-separated row per solve to ``OUT``:

* the 212 ops of the three benchmark workloads, each run as the benchmark
  runs it (``workloads.run_op``), with the verified certificate value and
  the extracted atoms;
* a wide sweep of 598 solves: every ``atomic_exact`` pair at n = 1 ..
  exactness + 6 (+ 2 for the 2-D pair), with default settings and with
  ``certify=True``, and the nine published Gaussian pairs and Exponential 1
  against 2 at n = 5..14 with default settings.

A row holds the status, rho as a float hex, the iteration count and the
pair's exact TV as a float hex, computed once per pair as the benchmark's
``workloads.prepare`` does (``exact_tv_atomic`` or
``exact_tv_univariate_density``).  BLAS is pinned to one thread, since its
thread count changes summation orders.  The second form lists the rows of
two such files that differ, then sums them up per group
(``bench/gaussian_table``, ``bench/atomic_exact``, ``bench/certified``,
``wide``): how many rows are bit-identical (``36 of 36 identical``); how
many differ only in the extracted atoms, every other field bit-identical,
and the largest absolute change of an atom's point or weight among them
(inf when the atom counts differ); how many differ only in the TV, and the
largest |delta TV| among them; per
file the status counts, the IPM iteration total, the number of Optimal rows
whose rho exceeds the TV by more than 1e-4 (the default ``accept_tol``) and
the largest Optimal rho - TV, and the benchmark ops that failed (not
Optimal, or an error text); then every row whose status changed, the
largest |delta rho| over the rows Optimal on both sides, and every such row
whose rho moved by more than 1e-4.  It exits 1 if any row differs.
To fingerprint an older commit, export it (``git archive``) and pass its
directory as ``--root``.  A run takes under a minute on one core.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WIDE_LEVELS_ABOVE_EXACT = 6
WIDE_LEVELS_ABOVE_EXACT_2D = 2
WIDE_DENSITY_LEVELS = range(5, 15)


def _hex(value) -> str:
    return "-" if value is None else float(value).hex()


def _atoms(measure) -> str:
    return ",".join(f"{_hex(p)}:{_hex(w)}" for p, w in zip(measure.points[:, 0], measure.weights))


def _solve_row(res, op) -> list:
    return [res.status.value, _hex(res.rho), str(res.solve.iterations), _hex(op.oracle)]


def benchmark_rows(W):
    for workload in ("gaussian_table", "atomic_exact", "certified"):
        ops = W.build_ops(workload)
        W.prepare(ops)
        for op in ops:
            res, extracted, verified, error = W.run_op(op)
            atoms = "-" if extracted is None else "|".join(_atoms(m) for m in extracted)
            yield f"bench/{workload}/{op.name}", _solve_row(res, op) + [_hex(verified), atoms, error]


def wide_rows(W):
    from tvbound.measures import Exponential, Gaussian
    from tvbound.relaxation import HierarchySettings, solve_hierarchy

    ops = []
    settings = (("default", HierarchySettings()), ("certify", HierarchySettings(certify=True)))
    for name, mu, nu, exact in W.atomic_pairs():
        above = WIDE_LEVELS_ABOVE_EXACT if mu.dim == 1 else WIDE_LEVELS_ABOVE_EXACT_2D
        for label, setting in settings:
            ops += [(label, W.Op(name, n, mu, nu, setting))
                    for n in range(1, exact + above + 1)]
    pairs = [(f"gauss({m1},{s1})/({m2},{s2})", Gaussian(m1, s1), Gaussian(m2, s2))
             for (m1, s1), (m2, s2) in W.GAUSSIAN_PAIRS]
    pairs.append(("exponential-1-vs-2", Exponential(1.0), Exponential(2.0)))
    ops += [("default", W.Op(name, n, mu, nu, HierarchySettings()))
            for name, mu, nu in pairs for n in WIDE_DENSITY_LEVELS]
    W.prepare([op for _, op in ops])
    for label, op in ops:
        res = solve_hierarchy(op.mu, op.nu, [op.level], op.settings)[0]
        yield f"wide/{op.pair}/{label}/n={op.level}", _solve_row(res, op)


def record(out: Path, root: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import tvbound
    import workloads as W

    if Path(tvbound.__file__).resolve().parent != (root / "src" / "tvbound").resolve():
        sys.exit(f"error: imported tvbound from {tvbound.__file__}, not {root / 'src'}")
    start = time.perf_counter()
    count = 0
    with open(out, "w") as fh:
        for rows in (benchmark_rows(W), wide_rows(W)):
            for key, fields in rows:
                fh.write("\t".join([key, *fields]) + "\n")
                count += 1
    print(f"{count} rows in {time.perf_counter() - start:.1f} s -> {out}")


def _read(path: Path) -> dict:
    rows = {}
    for line in path.read_text().splitlines():
        key, _, fields = line.partition("\t")
        rows[key] = fields
    return rows


GROUPS = ("bench/gaussian_table", "bench/atomic_exact", "bench/certified", "wide")
# the default ``accept_tol``: an Optimal rho above the TV by more than this
# is counted, and a rho that moves by more on a row Optimal on both sides is
# listed
ACCEPT_TOL = 1e-4


def _fields(row) -> list:
    """Status, rho, iterations and TV, and on a benchmark row the verified
    value, the atoms and the error text; a missing row reads as
    ``(missing)``."""
    return row.split("\t") if row is not None else ["(missing)", "-", "0", "-"]


def _only_in(column: int, old: list, new: list) -> bool:
    """Whether two rows' fields differ in ``column`` and nowhere else."""
    return (len(old) > column and old[column] != new[column]
            and old[:column] + old[column + 1:] == new[:column] + new[column + 1:])


def _atom_shift(old: str, new: str) -> float:
    """Largest absolute change of an atom's point or weight between two atom
    fields; inf when the atoms do not pair up one to one."""

    def parse(text):
        return [[tuple(map(float.fromhex, atom.split(":"))) for atom in measure.split(",") if atom]
                for measure in text.split("|")]

    if "-" in (old, new):
        return math.inf
    a, b = parse(old), parse(new)
    if [len(m) for m in a] != [len(m) for m in b]:
        return math.inf
    return max((abs(x - y) for ma, mb in zip(a, b) for pa, pb in zip(ma, mb)
                for x, y in zip(pa, pb)), default=0.0)


def summarize(a: Path, b: Path, left: dict, right: dict) -> None:
    """Per group: how many rows are bit-identical; how many differ only in
    the extracted atoms, with the largest change of an atom's point or
    weight among them; how many differ only in the TV, with the largest
    |delta TV| among them; each file's status counts, iteration total, Optimal
    rows above the TV by more than
    ``ACCEPT_TOL`` with the largest Optimal rho - TV, and failed benchmark
    ops (not Optimal, or an error text); then every row whose status
    changed, the largest |delta rho| over the rows Optimal on both sides,
    and every such row whose rho moved by more than ``ACCEPT_TOL``."""
    keys = list(left) + [k for k in right if k not in left]
    for group in GROUPS:
        mine = [k for k in keys if k.startswith(group + "/")]
        same = sum(left.get(k) == right.get(k) for k in mine)
        print(f"\n== {group}: {same} of {len(mine)} identical")
        pairs = [(_fields(left.get(k)), _fields(right.get(k))) for k in mine]
        shifts = [_atom_shift(old[5], new[5]) for old, new in pairs if _only_in(5, old, new)]
        line = f"  {len(shifts)} rows differ only in the extracted atoms"
        if shifts:
            line += f"; largest change of an atom's point or weight {max(shifts):.3g}"
        print(line)
        tv_moves = [abs(float.fromhex(new[3]) - float.fromhex(old[3]))
                    for old, new in pairs if _only_in(3, old, new)]
        line = f"  {len(tv_moves)} rows differ only in the TV"
        if tv_moves:
            line += f"; largest |delta TV| {max(tv_moves):.3g}"
        print(line)
        for path, rows in ((a, left), (b, right)):
            fields = {k: _fields(rows.get(k)) for k in mine}
            statuses = Counter(f[0] for f in fields.values())
            counts = ", ".join(f"{s} {n}" for s, n in sorted(statuses.items()))
            print(f"  {path}: {counts}; {sum(int(f[2]) for f in fields.values())} iterations")
            excess = [float.fromhex(f[1]) - float.fromhex(f[3])
                      for f in fields.values() if f[0] == "Optimal"]
            if excess:
                above = sum(e > ACCEPT_TOL for e in excess)
                print(f"    {above} Optimal rows above TV + {ACCEPT_TOL:g}; "
                      f"largest Optimal rho - TV {max(excess):.3g}")
            for key, f in fields.items():
                if len(f) > 6 and (f[0] != "Optimal" or f[6]):
                    print(f"    failed {key}: {f[0]} {f[6]}".rstrip())
        moved = {}
        for key in mine:
            old, new = _fields(left.get(key)), _fields(right.get(key))
            if old[0] != new[0]:
                print(f"  status {key}: {old[0]} -> {new[0]} ({old[2]} -> {new[2]} iterations)")
            elif old[0] == "Optimal":
                moved[key] = (float.fromhex(old[1]), float.fromhex(new[1]))
        if moved:
            worst = max(abs(new_rho - old_rho) for old_rho, new_rho in moved.values())
            print(f"  largest |delta rho| over {len(moved)} rows Optimal on both: {worst:.3g}")
        for key, (old_rho, new_rho) in moved.items():
            if abs(new_rho - old_rho) > ACCEPT_TOL:
                print(f"  rho {key}: {old_rho!r} -> {new_rho!r}")


def compare(a: Path, b: Path) -> int:
    left, right = _read(a), _read(b)
    differ = 0
    for key in list(left) + [k for k in right if k not in left]:
        if left.get(key) != right.get(key):
            differ += 1
            print(f"{key}\n  {a}: {left.get(key, '(missing)')}\n  {b}: {right.get(key, '(missing)')}")
    summarize(a, b, left, right)
    print(f"{len(left)} and {len(right)} rows, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="file to write the rows to")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="list the rows of two fingerprint files that differ, and sum them up")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give an output file or --compare A B")
    record(args.out, args.root.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
