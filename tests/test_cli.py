import json

import pytest

from tvbound.cli import ConfigError, build_parser, load_config, main, parse_levels
from tvbound.measures import Gaussian
from tvbound.relaxation import HierarchySettings, solve_hierarchy

GAUSS_ROW = {
    "version": 1,
    "mu": {"type": "gaussian", "mean": 0.0, "stddev": 0.1},
    "nu": {"type": "gaussian", "mean": 1.0, "stddev": 0.1},
    "levels": "1..2",
    "format": "csv",
}

DELTA = {
    "version": 1,
    "mu": {"type": "atomic", "atoms": [{"point": 0.0, "weight": 1.0}]},
    "nu": {"type": "atomic", "atoms": [{"point": 0.1, "weight": 1.0}]},
    "levels": 1,
}

DISCRETE = {
    "version": 1,
    "mu": {"type": "atomic",
           "atoms": [{"point": p, "weight": 0.25} for p in (-1.0, 0.0, 1.0, 2.0)]},
    "nu": {"type": "atomic",
           "atoms": [{"point": p, "weight": 0.25} for p in (-2.0, -1.0, 0.1, 1.5)]},
    "levels": 4,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def strip_wall(csv_text):
    lines = csv_text.strip().splitlines()
    return [",".join(ln.split(",")[:-1]) for ln in lines]


def test_bound_csv_columns_and_values(tmp_path, capsys):
    code = main(["bound", "--config", write_config(tmp_path, GAUSS_ROW)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,rho_n,dual_value,gap,status,wall_ms"
    row1 = lines[1].split(",")
    assert row1[0] == "1"
    assert float(row1[1]) == pytest.approx(1.9231, abs=1e-3)
    assert row1[4] == "Optimal"
    assert float(row1[5]) < 1000.0


def test_bound_csv_stable_across_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, GAUSS_ROW)
    main(["bound", "--config", cfg])
    first = capsys.readouterr().out
    main(["bound", "--config", cfg])
    second = capsys.readouterr().out
    # wall-clock column necessarily varies; everything else is bytewise equal
    assert strip_wall(first) == strip_wall(second)


def test_bound_identical_measures(tmp_path, capsys):
    cfg = dict(GAUSS_ROW, nu=GAUSS_ROW["mu"], levels="1..3")
    code = main(["bound", "--config", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert abs(float(line.split(",")[1])) <= 1e-6


def test_bound_discrete_example(tmp_path, capsys):
    cfg = dict(DISCRETE, format="json")
    code = main(["bound", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["rho_n"] == pytest.approx(1.5, abs=2e-3)


def test_bound_json_reports_iterations(tmp_path, capsys):
    cfg = dict(GAUSS_ROW, format="json")
    code = main(["bound", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    # the CLI's defaults for a config without a "solver" section
    settings = HierarchySettings(tol=1e-8, max_iter=250, accept_tol=1e-4)
    sweep = solve_hierarchy(Gaussian(0.0, 0.1), Gaussian(1.0, 0.1), [1, 2], settings)
    assert [row["iterations"] for row in rows] == [res.solve.iterations for res in sweep]
    assert [row["stop_reason"] for row in rows] == [res.solve.stop_reason for res in sweep]
    assert all(row["iterations"] > 0 for row in rows)


def test_levels_flag_overrides(tmp_path, capsys):
    code = main([
        "bound", "--config", write_config(tmp_path, GAUSS_ROW), "--levels", "1..1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_normalized_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, DELTA)
    main(["bound", "--config", cfg, "--format", "csv"])
    plain = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
    main(["bound", "--config", cfg, "--format", "csv", "--normalized"])
    halved = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
    assert plain == pytest.approx(2.0, abs=1e-6)
    assert halved == pytest.approx(1.0, abs=1e-6)


def test_bound_pretty_flags_untrusted_rows(tmp_path, capsys):
    cfg = {k: v for k, v in GAUSS_ROW.items() if k != "format"}
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["n", "rho_n", "dual_value", "gap", "status", "wall_ms"]
    assert [row.split()[0] for row in rows] == ["1", "2"]
    assert all("Optimal" in row and "[untrusted]" not in row for row in rows)
    assert float(rows[0].split()[1]) == pytest.approx(1.9231, abs=1e-3)

    cfg["solver"] = {"max_iter": 1}
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 2
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 2
    assert all("MaxIter" in row and row.endswith("[untrusted]") for row in rows)


def test_exact_atomic(tmp_path, capsys):
    code = main(["exact", "--config", write_config(tmp_path, DISCRETE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.5" in out


def test_exact_atomic_csv(tmp_path, capsys):
    code = main(["exact", "--config", write_config(tmp_path, dict(DISCRETE, format="csv"))])
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines() == ["tv,method", "1.5,atomic"]


def test_exact_density(tmp_path, capsys):
    cfg = {
        "version": 1,
        "mu": {"type": "gaussian", "mean": 0.0, "stddev": 0.5},
        "nu": {"type": "gaussian", "mean": 1.0, "stddev": 0.5},
        "format": "json",
    }
    code = main(["exact", "--config", write_config(tmp_path, cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["tv"] == pytest.approx(1.36538, abs=1e-4)


def test_exact_no_oracle_applies(tmp_path, capsys):
    cfg = {
        "version": 1,
        "mu": {"type": "empirical", "samples": [[0.0], [1.0]]},
        "nu": {"type": "gaussian", "mean": 0.0, "stddev": 1.0},
    }
    code = main(["exact", "--config", write_config(tmp_path, cfg)])
    assert code == 3



@pytest.mark.parametrize("nu", [
    {"type": "atomic", "atoms": [{"point": 0.0, "weight": 1.0}]},
    {"type": "empirical", "samples": [[0.0]]},
])
def test_exact_empirical_is_atomic(tmp_path, capsys, nu):
    # a sample of N points is atomic, each point of weight 1/N
    cfg = {
        "version": 1,
        "mu": {"type": "empirical", "samples": [[0.0], [1.0]]},
        "nu": nu,
        "format": "json",
    }
    code = main(["exact", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"tv": 1.0, "method": "atomic"}

def test_extract_dirac_pair(tmp_path, capsys):
    cfg = dict(DELTA, format="json")
    code = main(["extract", "--config", write_config(tmp_path, cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["flat"] is True
    assert payload["phi_plus"][0]["point"][0] == pytest.approx(0.0, abs=1e-6)
    assert payload["phi_minus"][0]["point"][0] == pytest.approx(0.1, abs=1e-6)


def test_extract_density_reports_not_flat(tmp_path, capsys):
    cfg = {
        "version": 1,
        "mu": {"type": "gaussian", "mean": 0.0, "stddev": 0.5},
        "nu": {"type": "gaussian", "mean": 1.0, "stddev": 0.5},
        "levels": 2,
        "format": "json",
    }
    code = main(["extract", "--config", write_config(tmp_path, cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["flat"] is False


def test_extract_pretty_flat_and_not_flat(tmp_path, capsys):
    assert main(["extract", "--config", write_config(tmp_path, DELTA)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n=1  rho_n=2.000000"
    assert lines[1].split(": (")[0] == "  phi+"
    assert lines[2].split(": (")[0] == "  phi-"
    point, weight = lines[2].split(": (")[1].rstrip(")").split(": ")
    assert float(point) == pytest.approx(0.1, abs=1e-6)
    assert float(weight) == pytest.approx(1.0, abs=1e-6)

    cfg = {
        "version": 1,
        "mu": {"type": "gaussian", "mean": 0.0, "stddev": 0.5},
        "nu": {"type": "gaussian", "mean": 1.0, "stddev": 0.5},
        "levels": 2,
    }
    assert main(["extract", "--config", write_config(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=2  rho_n=")
    assert "not flat: no atomic representative" in out


def test_moments_dump(tmp_path, capsys):
    cfg = {
        "version": 1,
        "mu": {"type": "gaussian", "mean": 0.0, "stddev": 1.0},
        "nu": {"type": "gaussian", "mean": 0.0, "stddev": 1.0},
        "levels": 2,
        "format": "json",
    }
    code = main(["moments", "--config", write_config(tmp_path, cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["mu"] == [1.0, 0.0, 1.0, 0.0, 3.0]


def test_certify_gaussian_row(tmp_path, capsys):
    cfg = dict(GAUSS_ROW, levels=1, format="json")
    code = main(["certify", "--config", write_config(tmp_path, cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "OK"
    assert payload["verified_value"] == pytest.approx(1.9231, abs=1e-3)
    assert payload["identity_residuals"]["one_plus_p"] <= 1e-6


def test_certify_pretty(tmp_path, capsys):
    cfg = dict(GAUSS_ROW, levels=1, format="pretty")
    assert main(["certify", "--config", write_config(tmp_path, cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "verdict OK" in lines[0]
    assert float(lines[0].split("verified value ")[1]) == pytest.approx(1.9231, abs=1e-3)
    assert lines[1].startswith("  p coefficients: [")
    assert [ln.split(":")[0] for ln in lines[2:6]] == [
        "  eig(sigma0)", "  eig(sigma1)", "  eig(psi0)", "  eig(psi1)"]
    assert lines[6].startswith("  identity residuals: {'one_minus_p': ")


def test_empirical_source_sampling_deterministic(tmp_path, capsys):
    cfg = {
        "version": 1,
        "mu": {"type": "empirical",
               "source": {"type": "gaussian", "mean": 0.0, "stddev": 1.0},
               "count": 4000},
        "nu": {"type": "gaussian", "mean": 1.0, "stddev": 1.0},
        "levels": 1,
        "seed": 7,
        "format": "csv",
    }
    path = write_config(tmp_path, cfg)
    main(["bound", "--config", path])
    first = capsys.readouterr().out
    main(["bound", "--config", path])
    second = capsys.readouterr().out
    assert strip_wall(first) == strip_wall(second)


def test_empirical_undersampling_warning(tmp_path, capsys):
    cfg = {
        "version": 1,
        "mu": {"type": "empirical", "samples": [[0.0], [0.5], [1.0]]},
        "nu": {"type": "gaussian", "mean": 0.0, "stddev": 1.0},
        "levels": 2,
    }
    main(["moments", "--config", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert "fewer than 100 per moment" in err


def test_exact_does_not_warn_about_undersampling(tmp_path, capsys):
    # the exact oracles read no moments, so the sample size does not matter
    cfg = {
        "version": 1,
        "mu": {"type": "empirical", "samples": [[0.0], [1.0]]},
        "nu": {"type": "atomic", "atoms": [{"point": 0.0, "weight": 1.0}]},
    }
    assert main(["exact", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("payload", [
    dict(GAUSS_ROW, solver={"tol": "abc"}),
    dict(GAUSS_ROW, seed="x"),
    dict(GAUSS_ROW, solver=5),
    dict(GAUSS_ROW, solver={"max_iters": 100}),
    [GAUSS_ROW],
    dict(GAUSS_ROW, solver={"max_iter": 0}),
    dict(GAUSS_ROW, solver={"tol": -1}),
    dict(GAUSS_ROW, solver={"max_iter": 3, "accept_tol": "inf"}),
], ids=["tol-not-a-number", "seed-not-a-number", "solver-not-an-object",
        "unknown-solver-key", "config-not-an-object", "max-iter-zero", "tol-negative",
        "accept-tol-infinite"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, payload):
    assert main(["bound", "--config", write_config(tmp_path, payload)]) == 3
    assert capsys.readouterr().err.startswith("config error:")


def test_settings_come_from_the_keys_given(tmp_path):
    def settings(payload, *flags):
        path = write_config(tmp_path, payload)
        return load_config(build_parser().parse_args(["bound", "--config", path, *flags])).settings

    assert settings(GAUSS_ROW) == HierarchySettings()
    assert settings(dict(GAUSS_ROW, solver={"max_iter": 100}), "--tol", "1e-6") == \
        HierarchySettings(tol=1e-6, max_iter=100)


def test_bad_config_exit_codes(tmp_path, capsys):
    assert main(["bound", "--config", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bound", "--config", str(bad)]) == 3
    wrong = write_config(tmp_path, {"version": 1, "mu": {"type": "nope"}, "nu": {}}, "w.json")
    assert main(["bound", "--config", wrong]) == 3
    noversion = write_config(tmp_path, dict(GAUSS_ROW, version=99), "v.json")
    assert main(["bound", "--config", noversion]) == 3


# solve_hierarchy raises DimensionMismatch; main reports it as a config error
@pytest.mark.parametrize("command", ["extract", "certify"])
def test_dimension_mismatch_exits_with_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dict(DELTA, nu={
        "type": "atomic", "atoms": [{"point": [0.1, 0.0], "weight": 1.0}]}))
    assert main([command, "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_bad_levels_rejected(tmp_path):
    cfg = write_config(tmp_path, dict(GAUSS_ROW, levels="0..2"))
    assert main(["bound", "--config", cfg]) == 3


def test_certify_failed_certificate_exits_solver_failure(tmp_path, capsys):
    # the level-5 certificate of this pair fails its identity check
    cfg = write_config(tmp_path, dict(DELTA, levels=5))
    assert main(["certify", "--config", cfg]) == 2
    assert "NumericalFailure" in capsys.readouterr().err


def test_level_lists_are_literal():
    assert parse_levels([2, 4]) == [2, 4]
    assert parse_levels([2, 4, 6]) == [2, 4, 6]
    assert parse_levels("2..4") == [2, 3, 4]
    with pytest.raises(ConfigError, match="empty level range"):
        parse_levels("4..2")


def test_levels_default_and_list_in_config(tmp_path, capsys):
    cfg = {k: v for k, v in GAUSS_ROW.items() if k != "levels"}
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]
    cfg["levels"] = [2, 4]
    assert main(["bound", "--config", write_config(tmp_path, cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "4"]


def test_scale_field_must_be_true(tmp_path, capsys):
    # perfbench/cli_config.json carries "scale": true
    on = write_config(tmp_path, dict(GAUSS_ROW, scale=True), "on.json")
    assert main(["bound", "--config", on]) == 0
    off = write_config(tmp_path, dict(GAUSS_ROW, scale=False), "off.json")
    assert main(["bound", "--config", off]) == 3
    assert "scale" in capsys.readouterr().err
