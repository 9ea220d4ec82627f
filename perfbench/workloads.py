"""The three benchmark workloads: their ops, oracles and correctness checks.

An op is one level of one measure pair: a call of
``solve_hierarchy(mu, nu, [n], settings)`` and then the workload's
follow-up call (Hahn-Jordan extraction or certificate verification).  The
CLI probes of a traced ``gaussian_table`` run are checked by ``CliCase``.

Everything here is imported only after ``run.py`` has pinned BLAS to one
thread and put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import tvbound.certificates as certificates
import tvbound.extraction as extraction
import tvbound.relaxation as relaxation
from tvbound.conic import SolveStatus
from tvbound.errors import TvBoundError
from tvbound.measures import (
    Atomic,
    Exponential,
    Gaussian,
    Mixture,
    exact_tv_atomic,
    exact_tv_univariate_density,
    moments,
)
from tvbound.relaxation import HierarchySettings

ORACLE_SLACK = 1e-4      # rho <= TV + this
CERT_SLACK = 1e-6        # verified certificate value <= rho + this
MATCH_TOL = 1e-5         # extracted pair reproduces mu - nu moments to this
DIGITS_CAP = 16.0        # accuracy digits of an exactly-zero residual
RANDOM_DRAWS = 4         # draws of random atomic pairs in atomic_exact

# the 9 published Gaussian pairs of acceptance criterion 1
GAUSSIAN_PAIRS = (
    ((0.0, 0.1), (1.0, 0.1)),
    ((0.0, 0.2), (1.0, 0.2)),
    ((0.0, 0.1), (1.0, 0.5)),
    ((0.0, 0.5), (1.0, 0.5)),
    ((0.5, 0.1), (1.0, 0.1)),
    ((0.5, 0.1), (1.0, 0.5)),
    ((0.8, 0.1), (1.0, 0.1)),
    ((0.8, 0.05), (1.0, 0.1)),
    ((0.8, 0.05), (1.0, 0.01)),
)

EX1 = (
    Atomic.univariate([-1.0, 0.0, 1.0, 2.0], [0.25] * 4),
    Atomic.univariate([-0.7, 0.3, 1.3, 2.3], [0.25] * 4),
)
EX2 = (
    Atomic.univariate([-1.0, 0.0, 1.0, 2.0], [0.25] * 4),
    Atomic.univariate([-2.0, -1.0, 0.1, 1.5], [0.25] * 4),
)
EX3 = (
    Atomic.univariate([0.0, 0.3, 0.4, 0.9], [0.25] * 4),
    Atomic.univariate([0.3, 0.6, 0.7, 1.2], [0.25] * 4),
)
TWO_VS_THREE = (
    Atomic.univariate([-1.0, 1.0], [0.6, 0.4]),
    Atomic.univariate([-1.0, 0.2, 1.3], [0.3, 0.4, 0.3]),
)
FIVE_ATOMS = (
    Atomic.univariate([-1.8, -0.9, 0.0, 0.9, 1.8], [0.2] * 5),
    Atomic.univariate([-1.5, -0.5, 0.5, 1.5, 2.1], [0.2] * 5),
)


def dirac_pair(eps: float):
    return Atomic.univariate([0.0], [1.0]), Atomic.univariate([eps], [1.0])


@dataclass
class Op:
    """One level of one pair, plus what the benchmark needs to check it."""

    pair: str
    level: int
    mu: object
    nu: object
    settings: HierarchySettings
    extract: bool = False
    verify: bool = False
    oracle: float = math.nan
    diff_moments: np.ndarray | None = None   # mu - nu to degree 2n, for extraction
    mu_moments: object = None                # inputs of verify_certificate
    nu_moments: object = None

    @property
    def name(self) -> str:
        return f"{self.pair} n={self.level}"


@dataclass
class Outcome:
    """What one op produced, filled in by the timed call and the checks."""

    latency_s: float = math.nan
    scale: float = math.nan        # latency_s * scale is at the reference speed
    rho: float = math.nan
    status: str = ""
    iterations: int = 0
    block_order_sum: int = 0
    residual: float = math.nan     # max(primal residual, dual residual, gap)
    verified: float | None = None
    extracted: tuple | None = None
    error: str = ""                # why the op failed, empty when it passed
    wrong: bool = False            # a result reported as valid failed a check

    @property
    def ok(self) -> bool:
        return not self.error


def accuracy_digits(residual: float) -> float:
    return -math.log10(max(residual, 10.0 ** -DIGITS_CAP))


# ---------------------------------------------------------------- op lists

def gaussian_table_ops() -> list[Op]:
    settings = HierarchySettings()
    return [
        Op(f"gauss({m1},{s1})/({m2},{s2})", n, Gaussian(m1, s1), Gaussian(m2, s2), settings)
        for (m1, s1), (m2, s2) in GAUSSIAN_PAIRS
        for n in (1, 2, 3, 4)
    ]


def _random_atoms(rng: np.random.Generator, count: int) -> Atomic:
    while True:
        pts = np.sort(rng.uniform(-2.0, 2.0, count))
        if count == 1 or float(np.min(np.diff(pts))) >= 0.05:
            break
    weights = rng.uniform(0.05, 1.0, count)
    return Atomic.univariate(pts, weights / weights.sum())


def atomic_pairs() -> list[tuple]:
    """(name, mu, nu, exactness level) of ``atomic_exact``.

    The random pairs have 1..5 atoms each, one pair per count in each of
    ``RANDOM_DRAWS`` draws.  They and the 2-D points come from one fixed
    generator, so every pass and every seed runs the same ops and the
    failures of a run are the same share of its ops whatever the number of
    passes.  Four draws are enough to show the random pairs' known failures
    (a MaxIter below exactness, a rank that does not stabilize at it).
    """
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, (6, 2))
    pairs = [
        ("EX1", *EX1, 4),
        ("EX2", *EX2, 4),
        ("EX3", *EX3, 4),
        ("two-vs-three", *TWO_VS_THREE, 3),
        ("five-atom", *FIVE_ATOMS, 5),
        ("dirac-0.1", *dirac_pair(0.1), 1),
        ("dirac-1e-3", *dirac_pair(1e-3), 1),
        # 2-D atoms: flat at n with basis_size(2, n - 1) >= 6, i.e. n = 3
        ("2d-six-atom", Atomic(pts, [1 / 6] * 6), Atomic(pts + 0.3, [1 / 6] * 6), 3),
    ]
    for draw in range(RANDOM_DRAWS):
        for count in range(1, 6):
            pairs.append((f"random{draw}-{count}", _random_atoms(rng, count),
                          _random_atoms(rng, count), count))
    return pairs


def atomic_exact_ops() -> list[Op]:
    settings = HierarchySettings(kernel_reduce=True)
    ops = []
    for name, mu, nu, exact in atomic_pairs():
        for n in range(1, exact + 3):
            # Hahn-Jordan extraction is univariate
            ops.append(Op(name, n, mu, nu, settings, extract=n >= exact and mu.dim == 1))
    return ops


def property_matrix_cases() -> list[tuple]:
    """The 11 non-table cases of the criterion-5 property matrix."""
    mix_a = Mixture(((0.5, Gaussian(-1.0, 0.3)), (0.5, Gaussian(1.0, 0.3))))
    mix_b = Mixture(((0.3, Gaussian(0.0, 0.2)), (0.7, Gaussian(1.0, 0.4))))
    mix_c = Mixture(((0.6, Exponential(1.0)), (0.4, Gaussian(2.0, 0.5))))
    return [
        ("bimodal-vs-normal", mix_a, Gaussian(0.0, 0.8), (1, 2, 3)),
        ("two-component-vs-normal", mix_b, Gaussian(0.5, 0.5), (1, 2, 3)),
        ("exp-mixture-vs-normal", mix_c, Gaussian(1.0, 1.0), (1, 2, 3)),
        ("exponential-1-vs-2", Exponential(1.0), Exponential(2.0), (1, 2, 3)),
        ("exponential-vs-normal", Exponential(1.5), Gaussian(1.0, 0.6), (1, 2, 3)),
        ("EX1", *EX1, (1, 2, 3, 4)),
        ("EX2", *EX2, (1, 2, 3, 4)),
        ("EX3", *EX3, (1, 2, 3, 4)),
        ("two-vs-three", *TWO_VS_THREE, (1, 2, 3)),
        ("five-atom", *FIVE_ATOMS, (1, 2, 3)),
        ("dirac-0.5", *dirac_pair(0.5), (1, 2)),
    ]


def certified_ops() -> list[Op]:
    settings = HierarchySettings(certify=True)
    return [
        Op(name, n, mu, nu, settings, verify=True)
        for name, mu, nu, levels in property_matrix_cases()
        for n in levels
    ]


def build_ops(workload: str) -> list[Op]:
    """The ops of one pass; every pass runs the same ops."""
    if workload == "gaussian_table":
        return gaussian_table_ops()
    if workload == "atomic_exact":
        return atomic_exact_ops()
    if workload == "certified":
        return certified_ops()
    raise ValueError(f"{workload} has no in-process ops")


def set_reference_moments(op: Op) -> None:
    """Inputs of the follow-up checks, from the specs rather than the solve."""
    if op.extract or op.verify:
        op.mu_moments = moments(op.mu, op.mu.dim, 2 * op.level)
        op.nu_moments = moments(op.nu, op.nu.dim, 2 * op.level)
        op.diff_moments = op.mu_moments.values - op.nu_moments.values


def prepare(ops: list[Op]) -> None:
    """Compute every op's oracle and reference moments; runs before timing."""
    oracles = {}
    for op in ops:
        if op.pair not in oracles:
            if isinstance(op.mu, Atomic):
                oracles[op.pair] = exact_tv_atomic(op.mu, op.nu)
            else:
                oracles[op.pair] = exact_tv_univariate_density(op.mu, op.nu)
        op.oracle = oracles[op.pair]
        set_reference_moments(op)


# ---------------------------------------------------------------- running

def run_op(op: Op) -> tuple:
    """The timed body of an in-process op.

    Every call goes through a module attribute, so that the traced run sees
    the wrapped functions.  A failed extraction is part of the op's outcome,
    not an abort: it is returned as the error text.
    """
    res = relaxation.solve_hierarchy(op.mu, op.nu, [op.level], op.settings)[0]
    extracted = verified = None
    error = ""
    if res.status == SolveStatus.OPTIMAL:
        if op.extract:
            try:
                extracted = extraction.recover_hahn_jordan(res)
            except TvBoundError as exc:
                error = f"extraction failed: {exc!r}"
        if op.verify:
            verified = certificates.verify_certificate(
                res.certificate, op.mu_moments, op.nu_moments
            )
    return res, extracted, verified, error


def describe(op: Op, res, extracted, verified, error) -> Outcome:
    """Everything the checks and the counts need from one op's result."""
    solve = res.solve
    residual = max(solve.primal_residual, solve.dual_residual, solve.gap)
    return Outcome(
        rho=float(res.rho),
        status=res.status.value,
        iterations=int(solve.iterations),
        block_order_sum=sum(blk.size for blk in res.problem.program.blocks),
        residual=float(residual),
        verified=verified,
        extracted=extracted,
        error=error,
    )


def _extraction_error(op: Op, extracted) -> str:
    """Reproduce mu - nu from the extracted atoms, independently of the library."""
    plus, minus = extracted
    degrees = np.arange(2 * op.level + 1)
    recon = np.zeros(2 * op.level + 1)
    for measure, sign in ((plus, 1.0), (minus, -1.0)):
        for point, weight in zip(measure.points[:, 0], measure.weights):
            recon += sign * weight * point ** degrees
    scale = max(1.0, float(np.max(np.abs(op.diff_moments))))
    err = float(np.max(np.abs(recon - op.diff_moments))) / scale
    return f"extracted pair misses mu - nu by {err:.2e}" if not err <= MATCH_TOL else ""


def check(op: Op, out: Outcome) -> None:
    """Single-op checks; records the failure on ``out.error``.

    A non-Optimal status or a failed extraction is an honest failure; a
    value that contradicts the oracle, the certificate or mu - nu also marks
    the op ``wrong``.
    """
    if out.status != SolveStatus.OPTIMAL.value:
        out.error = out.error or f"status {out.status}"
        return
    wrong = ""
    if not out.rho <= op.oracle + ORACLE_SLACK:
        wrong = f"rho {out.rho!r} above oracle TV {op.oracle!r}"
    elif op.verify and not out.verified <= out.rho + CERT_SLACK:
        wrong = f"certificate value {out.verified!r} above rho {out.rho!r}"
    elif out.extracted is not None:
        wrong = _extraction_error(op, out.extracted)
    if wrong:
        out.error, out.wrong = wrong, True


def check_monotone(done: list) -> None:
    """rho nondecreasing across a pair's levels, within 2 * accept_tol.

    ``done`` holds the (op, outcome) pairs of one pass; levels whose solve
    was not Optimal are skipped, as ``monotone_within`` does.
    """
    by_pair = {}
    for op, out in done:
        if out.status == SolveStatus.OPTIMAL.value:
            by_pair.setdefault(op.pair, []).append((op, out))
    for entries in by_pair.values():
        entries.sort(key=lambda e: e[0].level)
        for (_, low), (op, high) in zip(entries[:-1], entries[1:]):
            slack = 2.0 * op.settings.accept_tol
            if high.rho < low.rho - slack and not high.error:
                high.error = f"rho dropped {low.rho!r} -> {high.rho!r}"
                high.wrong = True


# ---------------------------------------------------------------- cli

@dataclass
class CliCase:
    """The fixed configuration of the CLI probes and its in-process reference."""

    config_path: str
    levels: list
    reference: list    # in-process rho per level for the same config
    oracle: float

    @property
    def name(self) -> str:
        return f"cli n={self.levels[0]}..{self.levels[-1]}"

    @classmethod
    def load(cls, config_path: str) -> "CliCase":
        """Read the config and solve it in-process; runs before timing."""
        with open(config_path) as fh:
            raw = json.load(fh)
        lo, hi = (int(v) for v in raw["levels"].split(".."))
        levels = list(range(lo, hi + 1))
        mu = Gaussian(raw["mu"]["mean"], raw["mu"]["stddev"])
        nu = Gaussian(raw["nu"]["mean"], raw["nu"]["stddev"])
        solver = raw["solver"]
        settings = HierarchySettings(
            tol=solver["tol"], max_iter=solver["max_iter"], accept_tol=solver["accept_tol"]
        )
        sweep = relaxation.solve_hierarchy(mu, nu, levels, settings)
        return cls(
            config_path, levels, [float(r.rho) for r in sweep],
            exact_tv_univariate_density(mu, nu),
        )

    def outcome(self, returncode: int, stdout: str) -> Outcome:
        out = Outcome(status=f"exit {returncode}")
        if returncode != 0:
            out.error = f"exit code {returncode}"
            return out
        try:
            rows = json.loads(stdout)["rows"]
        except (ValueError, KeyError) as exc:
            out.error = f"unreadable output: {exc!r}"
            out.wrong = True
            return out
        out.status = SolveStatus.OPTIMAL.value
        out.rho = float(rows[-1]["rho_n"])
        out.residual = max(
            max(r["primal_residual"], r["dual_residual"], r["gap"]) for r in rows
        )
        got = [float(r["rho_n"]) for r in rows]
        if [r["n"] for r in rows] != self.levels:
            out.error = f"levels {[r['n'] for r in rows]} != {self.levels}"
        elif got != self.reference:
            out.error = f"rho_n {got} != in-process {self.reference}"
        elif not max(got) <= self.oracle + ORACLE_SLACK:
            out.error = f"rho_n {got} above oracle TV {self.oracle!r}"
        out.wrong = bool(out.error)
        return out
