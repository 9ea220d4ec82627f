"""Command-line front end.

Subcommands:
    bound    hierarchy sweep, one row per level (rho_n, dual value, gap,
             status, and wall_ms, the time of the conic solve alone)
    exact    exact TV oracle for atomic, empirical or density specs
    extract  atomic Hahn-Jordan pair from the optimal pseudo-moments
    moments  dump the truncated moment sequences of both measures
    certify  recover, verify and dump the dual SOS certificate

Configuration is a versioned JSON file; measure specs mirror the library's
MeasureSpec variants:

    {"version": 1,
     "mu": {"type": "gaussian", "mean": 0.0, "stddev": 0.1},
     "nu": {"type": "atomic", "atoms": [{"point": 0.0, "weight": 1.0}]},
     "levels": "1..4",
     "solver": {"tol": 1e-8, "max_iter": 250, "accept_tol": 1e-4},
     "format": "csv", "seed": 0, "normalized": false}

An empirical measure is either {"type": "empirical", "samples": [...]} or
{"type": "empirical", "source": {...spec...}, "count": N}; the latter draws
the sample with the config seed.  "levels" is an "A..B" range, one level,
or a list of the literal levels.  Each "solver" key is optional and has
the default of ``HierarchySettings``; an unknown key is refused.  A "scale"
field, which older configs carry, must be true: every solve recenters and
rescales the variable.
Flags override config fields.  Exit codes: 0 success, 2 solver failure,
3 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np
# no command uses scipy; the CLI still loads scipy.integrate because
# perfbench/run.py times this import and has no value yet for a module the
# CLI does not load (ROADMAP item 12)
import scipy.integrate  # noqa: F401

from .certificates import _identity_residuals, verify_certificate
from .conic import SolveStatus
from .errors import NotFlat, TvBoundError
from .indexing import basis_size
from .measures import (
    Atomic,
    Empirical,
    Exponential,
    Gaussian,
    MeasureSpec,
    Mixture,
    exact_tv_atomic,
    exact_tv_univariate_density,
    moments,
    sample,
)
from .relaxation import HierarchySettings, solve_hierarchy
from .extraction import recover_hahn_jordan

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


class ConfigError(Exception):
    pass


def parse_measure(obj, rng: np.random.Generator) -> MeasureSpec:
    """Build a MeasureSpec from its JSON form."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"measure spec must be an object with a 'type': {obj!r}")
    kind = obj["type"]
    try:
        if kind == "gaussian":
            return Gaussian(float(obj["mean"]), float(obj["stddev"]))
        if kind == "exponential":
            return Exponential(float(obj["rate"]))
        if kind == "atomic":
            pts, ws = [], []
            for atom in obj["atoms"]:
                point = atom["point"]
                pts.append([point] if np.isscalar(point) else list(point))
                ws.append(float(atom["weight"]))
            return Atomic(np.array(pts, dtype=float), ws)
        if kind == "mixture":
            comps = [
                (float(c["weight"]), parse_measure(c["spec"], rng))
                for c in obj["components"]
            ]
            return Mixture(tuple(comps))
        if kind == "empirical":
            if "samples" in obj:
                return Empirical(np.array(obj["samples"], dtype=float))
            source = parse_measure(obj["source"], rng)
            count = int(obj["count"])
            return Empirical(sample(source, count, rng))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind!r} measure spec: {exc}") from exc
    raise ConfigError(f"unknown measure type {kind!r}")


def parse_levels(obj) -> list[int]:
    """Levels from one level, an ``"A..B"`` range or a list of the literal
    levels; an empty range is refused."""
    try:
        if isinstance(obj, str) and ".." in obj:
            lo, hi = obj.split("..")
            levels = list(range(int(lo), int(hi) + 1))
            if not levels:
                raise ConfigError(f"empty level range {obj!r}")
            return levels
        if isinstance(obj, (int, str)):
            return [int(obj)]
        if isinstance(obj, list):
            return [int(v) for v in obj]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse levels from {obj!r}: {exc}") from exc
    raise ConfigError(f"cannot parse levels from {obj!r}")


# the "solver" keys of a config, each with its type
_SOLVER_KEYS = {"tol": float, "max_iter": int, "accept_tol": float}


def _parse_settings(solver, tol) -> HierarchySettings:
    """Settings from the config's "solver" object and the --tol flag; a key
    that neither gives keeps its ``HierarchySettings`` default."""
    if not isinstance(solver, dict):
        raise ConfigError(f"'solver' must be an object: {solver!r}")
    unknown = sorted(set(solver) - set(_SOLVER_KEYS))
    if unknown:
        raise ConfigError(f"unknown solver keys {unknown}; known: {sorted(_SOLVER_KEYS)}")
    given = dict(solver) if tol is None else dict(solver, tol=tol)
    try:
        return HierarchySettings(**{key: _SOLVER_KEYS[key](v) for key, v in given.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc


@dataclass
class RunConfig:
    mu: MeasureSpec
    nu: MeasureSpec
    levels: list
    settings: HierarchySettings
    fmt: str
    seed: int
    normalized: bool


def load_config(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    version = raw.get("version", 1)
    if version != 1:
        raise ConfigError(f"unsupported config version {version}")
    try:
        seed = int(args.seed if args.seed is not None else raw.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad seed: {exc}") from exc
    rng = np.random.default_rng(seed)
    if "mu" not in raw or "nu" not in raw:
        raise ConfigError("config needs 'mu' and 'nu' measures")
    mu = parse_measure(raw["mu"], rng)
    nu = parse_measure(raw["nu"], rng)
    levels = parse_levels(args.levels if args.levels else raw.get("levels", "1..4"))
    if not levels or any(n < 1 for n in levels):
        raise ConfigError(f"levels must be positive: {levels}")
    if raw.get("scale", True) is not True:
        raise ConfigError("'scale' can only be true: every solve recenters and rescales")
    settings = _parse_settings(raw.get("solver", {}), args.tol)
    fmt = args.format or raw.get("format", "pretty")
    if fmt not in ("csv", "json", "pretty"):
        raise ConfigError(f"unknown format {fmt!r}")
    normalized = args.normalized or bool(raw.get("normalized", False))
    if args.command != "exact":  # the exact oracles read no moments
        _warn_if_undersampled(mu, "mu", levels)
        _warn_if_undersampled(nu, "nu", levels)
    return RunConfig(mu, nu, levels, settings, fmt, seed, normalized)


def _warn_if_undersampled(spec, name, levels):
    if isinstance(spec, Empirical):
        need = 100 * basis_size(spec.dim, 2 * max(levels))
        if spec.samples.shape[0] < need:
            print(
                f"warning: {name} has {spec.samples.shape[0]} samples; "
                f"fewer than 100 per moment ({need}) for level {max(levels)}",
                file=sys.stderr,
            )


def _scale_out(value: float, cfg: RunConfig) -> float:
    return value / 2.0 if cfg.normalized else value


def cmd_bound(cfg: RunConfig) -> int:
    sweep = solve_hierarchy(cfg.mu, cfg.nu, cfg.levels, cfg.settings)
    rows = []
    for res in sweep:
        rows.append({
            "n": res.level,
            "rho_n": _scale_out(res.rho, cfg),
            "dual_value": _scale_out(res.solve.dual_objective, cfg),
            "gap": res.solve.gap,
            "status": res.status.value,
            "wall_ms": res.wall_ms,
            "primal_residual": res.solve.primal_residual,
            "dual_residual": res.solve.dual_residual,
            "iterations": res.solve.iterations,
            "stop_reason": res.solve.stop_reason,
            "untrusted": res.status != SolveStatus.OPTIMAL,
        })
    if cfg.fmt == "csv":
        print("n,rho_n,dual_value,gap,status,wall_ms")
        for row in rows:
            print(
                f"{row['n']},{row['rho_n']:.10g},{row['dual_value']:.10g},"
                f"{row['gap']:.4g},{row['status']},{row['wall_ms']:.1f}"
            )
    elif cfg.fmt == "json":
        print(json.dumps({"rows": rows, "monotone": sweep.monotone}, indent=2))
    else:
        print(f"{'n':>3} {'rho_n':>12} {'dual_value':>12} {'gap':>9} {'status':>10} {'wall_ms':>9}")
        for row in rows:
            flag = "  [untrusted]" if row["untrusted"] else ""
            print(
                f"{row['n']:>3} {row['rho_n']:>12.6f} {row['dual_value']:>12.6f} "
                f"{row['gap']:>9.2e} {row['status']:>10} {row['wall_ms']:>9.1f}{flag}"
            )
    return EXIT_SOLVER if any(r["untrusted"] for r in rows) else EXIT_OK


def _as_atomic(spec: MeasureSpec) -> MeasureSpec:
    """An empirical spec as its N atoms of weight 1/N; any other as it is."""
    if isinstance(spec, Empirical):
        return Atomic(spec.samples, np.full(len(spec.samples), 1.0 / len(spec.samples)))
    return spec


def cmd_exact(cfg: RunConfig) -> int:
    mu, nu = _as_atomic(cfg.mu), _as_atomic(cfg.nu)
    if isinstance(mu, Atomic) and isinstance(nu, Atomic):
        tv = exact_tv_atomic(mu, nu)
        method = "atomic"
    else:
        try:
            tv = exact_tv_univariate_density(cfg.mu, cfg.nu)
            # the density oracle's label in the output, which scripts read
            method = "quadrature"
        except (ValueError, TvBoundError) as exc:
            print(f"error: no exact oracle applies: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    value = _scale_out(tv, cfg)
    if cfg.fmt == "json":
        print(json.dumps({"tv": value, "method": method}))
    elif cfg.fmt == "csv":
        print("tv,method")
        print(f"{value:.10g},{method}")
    else:
        print(f"TV = {value:.10f}  ({method})")
    return EXIT_OK


def _atoms_payload(measure) -> list:
    return [
        {"point": list(map(float, p)), "weight": float(w)}
        for p, w in zip(measure.points, measure.weights)
    ]


def cmd_extract(cfg: RunConfig) -> int:
    level = max(cfg.levels)
    res = solve_hierarchy(cfg.mu, cfg.nu, [level], cfg.settings)[0]
    if res.status != SolveStatus.OPTIMAL:
        print(f"error: level {level} solve ended {res.status.value}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        plus, minus = recover_hahn_jordan(res)
    except NotFlat as exc:
        payload = {"n": level, "rho_n": _scale_out(res.rho, cfg), "flat": False,
                   "detail": str(exc)}
        if cfg.fmt == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(f"n={level}  rho_n={payload['rho_n']:.6f}  not flat: no atomic "
                  "representative at this level (expected for densities)")
        return EXIT_OK
    payload = {
        "n": level,
        "rho_n": _scale_out(res.rho, cfg),
        "flat": True,
        "phi_plus": _atoms_payload(plus),
        "phi_minus": _atoms_payload(minus),
    }
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"n={level}  rho_n={payload['rho_n']:.6f}")
        for name, m in (("phi+", plus), ("phi-", minus)):
            atoms = ", ".join(
                f"({float(p[0]):.6g}: {float(w):.6g})" for p, w in zip(m.points, m.weights)
            )
            print(f"  {name}: {atoms}")
    return EXIT_OK


def cmd_moments(cfg: RunConfig) -> int:
    degree = 2 * max(cfg.levels)
    mu_seq = moments(cfg.mu, cfg.mu.dim, degree)
    nu_seq = moments(cfg.nu, cfg.nu.dim, degree)
    basis = mu_seq.basis
    if cfg.fmt == "json":
        print(json.dumps({
            "degree": degree,
            "alphas": [list(a) for a in basis.indices],
            "mu": mu_seq.values.tolist(),
            "nu": nu_seq.values.tolist(),
        }, indent=2))
    else:
        print("alpha,mu,nu")
        for alpha, a, b in zip(basis.indices, mu_seq.values, nu_seq.values):
            label = alpha[0] if len(alpha) == 1 else "'" + " ".join(map(str, alpha)) + "'"
            print(f"{label},{a:.12g},{b:.12g}")
    return EXIT_OK


def cmd_certify(cfg: RunConfig) -> int:
    level = max(cfg.levels)
    res = solve_hierarchy(cfg.mu, cfg.nu, [level], replace(cfg.settings, certify=True))[0]
    if res.status != SolveStatus.OPTIMAL:
        print(f"error: level {level} solve ended {res.status.value}", file=sys.stderr)
        return EXIT_SOLVER
    cert = res.certificate
    value = verify_certificate(cert, res.mu_moments, res.nu_moments)
    one_minus_p, one_plus_p = _identity_residuals(cert)
    payload = {
        "n": level,
        "rho_n": _scale_out(res.rho, cfg),
        "verdict": "OK",
        "verified_value": _scale_out(value, cfg),
        "p": cert.p.tolist(),
        "gram_eigenvalues": {
            "sigma0": np.linalg.eigvalsh(cert.gram_sigma0).tolist(),
            "sigma1": np.linalg.eigvalsh(cert.gram_sigma1).tolist(),
            "psi0": np.linalg.eigvalsh(cert.gram_psi0).tolist(),
            "psi1": np.linalg.eigvalsh(cert.gram_psi1).tolist(),
        },
        "identity_residuals": {
            "one_minus_p": one_minus_p,
            "one_plus_p": one_plus_p,
        },
    }
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"n={level}  rho_n={payload['rho_n']:.6f}  verdict OK  "
              f"verified value {payload['verified_value']:.6f}")
        print(f"  p coefficients: {np.array2string(cert.p, precision=6)}")
        for name, eigs in payload["gram_eigenvalues"].items():
            print(f"  eig({name}): {np.array2string(np.array(eigs), precision=3)}")
        print(f"  identity residuals: {payload['identity_residuals']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvbound",
        description="Lower bounds on the total variation distance from moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("bound", cmd_bound),
        ("exact", cmd_exact),
        ("extract", cmd_extract),
        ("moments", cmd_moments),
        ("certify", cmd_certify),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--levels", help="level range A..B or single level")
        p.add_argument("--tol", type=float, help="solver tolerance override")
        p.add_argument("--format", choices=("csv", "json", "pretty"),
                       help="output format; a bound row's wall_ms times the conic "
                            "solve alone, not the assembly or the rest of the level")
        p.add_argument("--seed", type=int, help="RNG seed for empirical specs")
        p.add_argument("--normalized", action="store_true",
                       help="report distances on the [0, 1] scale")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(cfg)
    except TvBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
