"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 is asserted exactly as stated against all 36 published Gaussian
table entries.  Two of those entries are unreachable for any convergent
solver (see test_criterion_1_supplement): the value printed for
(0.8,0.1)/(1,0.1) at n=4 contradicts the same table's row (0,0.5)/(1,0.5),
which is the identical problem up to an affine change of variables, and the
value for (0.8,0.05)/(1,0.1) at n=4 lies 0.068 below an independently
verified dual certificate.  The criterion is left to fail honestly on those
two entries; the supplement pins the corrected values with certificates.
"""

import numpy as np
import pytest

from tvbound.certificates import nishiyama_bound, verify_certificate
from tvbound.conic import ConicProgram, PsdBlock, SolveStatus, SolverSettings, solve
from tvbound.extraction import extract_atoms, recover_hahn_jordan
from tvbound.measures import (
    Atomic,
    Exponential,
    Gaussian,
    Mixture,
    exact_tv_atomic,
    exact_tv_univariate_density,
    moments,
)
from tvbound.relaxation import HierarchySettings, solve_hierarchy, solve_level

from oracles import barrier_solve, random_sdp_instance

GAUSSIAN_TABLE = (
    ((0.0, 0.1), (1.0, 0.1), (1.9231, 1.9936, 1.9991, 1.9997)),
    ((0.0, 0.2), (1.0, 0.2), (1.7241, 1.9049, 1.9376, 1.9390)),
    ((0.0, 0.1), (1.0, 0.5), (1.4706, 1.6267, 1.6283, 1.7032)),
    ((0.0, 0.5), (1.0, 0.5), (1.0000, 1.0000, 1.1653, 1.1897)),
    ((0.5, 0.1), (1.0, 0.1), (1.7241, 1.9049, 1.9375, 1.9378)),
    ((0.5, 0.1), (1.0, 0.5), (0.8197, 0.8497, 1.1249, 1.1294)),
    ((0.8, 0.1), (1.0, 0.1), (1.0000, 1.0000, 1.1645, 1.1709)),
    ((0.8, 0.05), (1.0, 0.1), (1.2800, 1.3507, 1.4123, 1.4290)),
    ((0.8, 0.05), (1.0, 0.01), (1.8349, 1.9616, 1.9785, 1.9852)),
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


def report(number, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {verdict}{suffix}", flush=True)


@pytest.fixture(scope="module")
def gaussian_sweeps():
    out = {}
    for (m1, s1), (m2, s2), _ in GAUSSIAN_TABLE:
        out[(m1, s1, m2, s2)] = solve_hierarchy(
            Gaussian(m1, s1), Gaussian(m2, s2), [1, 2, 3, 4]
        )
    return out


def test_criterion_1_gaussian_golden_table(gaussian_sweeps):
    tol = 1.5e-2
    failures = []
    for (m1, s1), (m2, s2), expected in GAUSSIAN_TABLE:
        sweep = gaussian_sweeps[(m1, s1, m2, s2)]
        for res, target in zip(sweep, expected):
            assert res.status == SolveStatus.OPTIMAL
            assert res.wall_ms < 1000.0, "solve exceeded the 1 s budget"
            if not np.isfinite(res.rho) or abs(res.rho - target) > tol:
                failures.append(
                    f"({m1},{s1})/({m2},{s2}) n={res.level}: "
                    f"rho={res.rho:.4f} table={target}"
                )
    report(
        1, "gaussian golden table", not failures,
        "; ".join(failures) if failures else "36/36 entries within 1.5e-2",
    )
    assert not failures, (
        "table entries beyond tolerance (see module docstring; the corrected "
        f"values carry verified certificates): {failures}"
    )


def test_criterion_1_supplement_disputed_entries_verified(gaussian_sweeps):
    # row (0.8,0.1)/(1,0.1) is row (0,0.5)/(1,0.5) after x -> (x-0.8)/0.2,
    # so their hierarchies must coincide; the reference table's own row 4
    # value at n=4 (1.1897) then contradicts its row 7 value (1.1709)
    row4 = gaussian_sweeps[(0.0, 0.5, 1.0, 0.5)]
    row7 = gaussian_sweeps[(0.8, 0.1, 1.0, 0.1)]
    for a, b in zip(row4.rhos, row7.rhos):
        assert a == pytest.approx(b, abs=2e-4)
    assert row4.rhos[3] == pytest.approx(1.1897, abs=1e-3)

    # both disputed n=4 values are backed by independently verified dual
    # certificates: the certified value is a true lower bound on rho_4
    for (m1, s1), (m2, s2), floor in (
        ((0.8, 0.1), (1.0, 0.1), 1.188),
        ((0.8, 0.05), (1.0, 0.1), 1.495),
    ):
        mu = moments(Gaussian(m1, s1), 1, 8)
        nu = moments(Gaussian(m2, s2), 1, 8)
        res = solve_level(mu, nu, 4, HierarchySettings(certify=True))
        value = verify_certificate(res.certificate, mu, nu)
        assert value >= floor
    print("\nACCEPTANCE 1 supplement: corrected values certificate-verified", flush=True)


def test_golden_table_solves_converge(gaussian_sweeps):
    # a solve accepted on the stall rule meets only accept_tol; at least 30
    # of the 36 table solves must reach tol itself
    reasons = [res.solve.stop_reason for sweep in gaussian_sweeps.values() for res in sweep]
    assert len(reasons) == 36
    assert reasons.count("converged") >= 30, reasons


def test_criterion_2_nishiyama_identity(gaussian_sweeps):
    worst = 0.0
    for (m1, s1), (m2, s2), _ in GAUSSIAN_TABLE:
        rho1 = gaussian_sweeps[(m1, s1, m2, s2)][0].rho
        bound = nishiyama_bound(m1, s1, m2, s2)
        worst = max(worst, abs(rho1 - bound))
    report(2, "nishiyama identity at level 1", worst <= 5e-4, f"worst |rho1 - bound| = {worst:.2e}")
    assert worst <= 5e-4


def test_criterion_3_discrete_exactness():
    checks = [
        ("example 1 (disjoint)", EX1, 4, 2.0, 1e-3),
        ("example 2 (common point)", EX2, 4, 1.5, 2e-3),
        ("example with close atoms", EX3, 4, 1.5, 1e-3),
        ("table row n=4", EX1, 4, 2.0, 1e-3),
        ("table row n=5", EX1, 5, 2.0, 1e-3),
    ]
    worst = 0.0
    for name, (mu, nu), level, target, tolerance in checks:
        res = solve_hierarchy(mu, nu, [level])[0]
        err = abs(res.rho - target)
        worst = max(worst, err)
        assert res.status == SolveStatus.OPTIMAL, name
        assert err <= tolerance, f"{name}: rho={res.rho} target={target}"
    report(3, "discrete exactness at n >= max(m1, m2)", True, f"worst error {worst:.1e}")


def test_criterion_4_mutual_singularity_toy():
    for eps in (0.1, 0.01):
        mu = Atomic.univariate([0.0], [1.0])
        nu = Atomic.univariate([eps], [1.0])
        res = solve_hierarchy(mu, nu, [1])[0]
        assert res.status == SolveStatus.OPTIMAL
        assert abs(res.rho - 2.0) <= 1e-6, f"eps={eps}: rho={res.rho!r}"
    # stress case, logged with its relaxed tolerance
    mu = Atomic.univariate([0.0], [1.0])
    nu = Atomic.univariate([1e-3], [1.0])
    res = solve_hierarchy(mu, nu, [1])[0]
    stress_err = abs(res.rho - 2.0)
    assert stress_err <= 1e-3
    report(
        4, "dirac pair detection", True,
        f"eps in {{0.1, 0.01}} exact to 1e-6; eps=1e-3 stress error {stress_err:.2e}",
    )


def _property_matrix():
    mix_a = Mixture(((0.5, Gaussian(-1.0, 0.3)), (0.5, Gaussian(1.0, 0.3))))
    mix_b = Mixture(((0.3, Gaussian(0.0, 0.2)), (0.7, Gaussian(1.0, 0.4))))
    mix_c = Mixture(((0.6, Exponential(1.0)), (0.4, Gaussian(2.0, 0.5))))
    cases = []
    for (m1, s1), (m2, s2), _ in GAUSSIAN_TABLE:
        cases.append((
            f"gauss {(m1, s1)} vs {(m2, s2)}",
            Gaussian(m1, s1), Gaussian(m2, s2), [1, 2, 3, 4], "density",
        ))
    cases += [
        ("bimodal vs wide normal", mix_a, Gaussian(0.0, 0.8), [1, 2, 3], "density"),
        ("two-component vs normal", mix_b, Gaussian(0.5, 0.5), [1, 2, 3], "density"),
        ("exp mixture vs normal", mix_c, Gaussian(1.0, 1.0), [1, 2, 3], "density"),
        ("exponential rates 1 vs 2", Exponential(1.0), Exponential(2.0), [1, 2, 3], "density"),
        ("exponential vs normal", Exponential(1.5), Gaussian(1.0, 0.6), [1, 2, 3], "density"),
        ("discrete disjoint", *EX1, [1, 2, 3, 4], "atomic"),
        ("discrete common point", *EX2, [1, 2, 3, 4], "atomic"),
        ("discrete close atoms", *EX3, [1, 2, 3, 4], "atomic"),
        ("two against three atoms",
         Atomic.univariate([-1.0, 1.0], [0.6, 0.4]),
         Atomic.univariate([-1.0, 0.2, 1.3], [0.3, 0.4, 0.3]), [1, 2, 3], "atomic"),
        ("five-atom pair",
         Atomic.univariate([-1.8, -0.9, 0.0, 0.9, 1.8], [0.2] * 5),
         Atomic.univariate([-1.5, -0.5, 0.5, 1.5, 2.1], [0.2] * 5), [1, 2, 3], "atomic"),
        ("dirac pair", Atomic.univariate([0.0], [1.0]),
         Atomic.univariate([0.5], [1.0]), [1, 2], "atomic"),
    ]
    return cases


def test_criterion_5_monotone_lower_bounds():
    settings = HierarchySettings()
    slack = 2.0 * settings.accept_tol
    cases = _property_matrix()
    assert len(cases) >= 20
    worst_dip = 0.0
    worst_over = -np.inf
    for name, mu, nu, levels, kind in cases:
        if kind == "atomic":
            oracle = exact_tv_atomic(mu, nu)
        else:
            oracle = exact_tv_univariate_density(mu, nu)
        sweep = solve_hierarchy(mu, nu, levels, settings)
        rhos = [r.rho for r in sweep if r.status == SolveStatus.OPTIMAL]
        assert len(rhos) == len(levels), f"{name}: non-optimal level"
        for a, b in zip(rhos[:-1], rhos[1:]):
            worst_dip = max(worst_dip, a - b)
            assert b >= a - slack, f"{name}: rho dropped {a} -> {b}"
        for rho in rhos:
            worst_over = max(worst_over, rho - oracle)
            assert rho <= oracle + 1e-4, f"{name}: rho={rho} > TV={oracle}"
    report(
        5, "monotone, below the oracle TV", True,
        f"{len(cases)} cases; worst dip {worst_dip:.1e}, worst overshoot {worst_over:.1e}",
    )


def test_criterion_6_duality():
    # all table rows at levels where the certificate is representable in
    # float64 (Gram norms <= ~1e6); the extreme near-atomic row at n=3 has
    # Gram norms ~4e9, where an absolute 1e-4 gap is beyond double
    # precision, so it is held to weak duality like the atomic cases
    density = [
        (Gaussian(m1, s1), Gaussian(m2, s2), n)
        for (m1, s1), (m2, s2), _ in GAUSSIAN_TABLE[:-1]
        for n in (1, 3)
    ]
    density += [
        (Gaussian(0.8, 0.05), Gaussian(1.0, 0.01), 1),
        (Gaussian(0.8, 0.05), Gaussian(1.0, 0.01), 2),
        (Mixture(((0.5, Gaussian(-1.0, 0.3)), (0.5, Gaussian(1.0, 0.3)))),
         Gaussian(0.0, 0.8), 2),
        (Exponential(1.0), Exponential(2.0), 2),
    ]
    atomic = [(EX2[0], EX2[1], 2), (EX3[0], EX3[1], 2),
              (Atomic.univariate([0.0], [1.0]), Atomic.univariate([0.1], [1.0]), 1),
              (Gaussian(0.8, 0.05), Gaussian(1.0, 0.01), 3)]

    worst_weak = -np.inf
    worst_gap = 0.0
    n_checked = 0
    for mu_spec, nu_spec, n in density:
        mu = moments(mu_spec, 1, 2 * n)
        nu = moments(nu_spec, 1, 2 * n)
        res = solve_level(mu, nu, n, HierarchySettings(certify=True))
        value = verify_certificate(res.certificate, mu, nu)
        worst_weak = max(worst_weak, value - res.rho)
        worst_gap = max(worst_gap, abs(res.rho - value))
        assert value <= res.rho + 1e-6
        assert abs(res.rho - value) <= 1e-4, "density case must close the gap"
        n_checked += 1
    for mu_spec, nu_spec, n in atomic:
        mu = moments(mu_spec, 1, 2 * n)
        nu = moments(nu_spec, 1, 2 * n)
        res = solve_level(
            mu, nu, n, HierarchySettings(certify=True, accept_tol=1e-3)
        )
        value = verify_certificate(res.certificate, mu, nu)
        worst_weak = max(worst_weak, value - res.rho)
        assert value <= res.rho + 1e-6
        n_checked += 1
    report(
        6, "weak duality and density gap closure", True,
        f"{n_checked} optimal solves; worst cert-rho = {worst_weak:.1e}, "
        f"worst density gap {worst_gap:.1e}",
    )


def test_criterion_7_extraction_roundtrip():
    rng = np.random.default_rng(20240808)
    worst_pt = worst_w = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 6))
        while True:
            pts = np.sort(rng.uniform(-2.0, 2.0, r))
            if r == 1 or float(np.min(np.diff(pts))) >= 0.05:
                break
        weights = rng.uniform(0.05, 1.0, r)
        seq = moments(Atomic.univariate(pts, weights), 1, 2 * r)
        measure = extract_atoms(seq, r, rank_tol=1e-10)
        worst_pt = max(worst_pt, float(np.max(np.abs(measure.points1d - pts))))
        worst_w = max(worst_w, float(np.max(np.abs(measure.weights - weights))))
    assert worst_pt <= 1e-6 and worst_w <= 1e-6

    res = solve_hierarchy(
        Atomic.univariate([0.0], [1.0]), Atomic.univariate([0.1], [1.0]), [1]
    )[0]
    plus, minus = recover_hahn_jordan(res)
    hj_err = max(
        abs(plus.points1d[0] - 0.0), abs(minus.points1d[0] - 0.1),
        abs(plus.weights[0] - 1.0), abs(minus.weights[0] - 1.0),
    )
    assert hj_err <= 1e-6
    report(
        7, "extraction round trip", True,
        f"100 measures: locations <= {worst_pt:.1e}, weights <= {worst_w:.1e}; "
        f"Hahn-Jordan error {hj_err:.1e}",
    )


def test_criterion_8_solver_oracle_and_determinism():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        c, f0, coeffs, x0 = random_sdp_instance(rng)
        program = ConicProgram(c=c, blocks=(PsdBlock(f0, coeffs),))
        settings = SolverSettings(tol=1e-8, accept_tol=1e-6)
        res = solve(program, settings)
        assert res.status == SolveStatus.OPTIMAL
        oracle_val, _ = barrier_solve(c, [(f0, coeffs)], x0)
        worst = max(worst, abs(res.objective - oracle_val))
        assert res.objective == pytest.approx(oracle_val, abs=1e-4)
        res2 = solve(program, settings)
        assert res2.x.tobytes() == res.x.tobytes()
        assert res2.objective == res.objective
        assert all(
            a.tobytes() == b.tobytes()
            for a, b in zip(res.block_duals, res2.block_duals)
        )
    report(
        8, "solver matches brute-force oracle, deterministic", True,
        f"100 programs; worst deviation {worst:.1e}",
    )
