import csv
import math
from pathlib import Path

import pytest
import yaml

from mmfp import cli, verify
from mmfp.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, body: dict) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(body), encoding="utf-8")
    return path


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


AOI_SMALL = {
    "experiment": "aoi",
    "seed": 0,
    "scenario": {"k": 2, "mu": 1.0},
    "solver": {"max_outer": 60},
}

RADAR_SMALL = {
    "experiment": "radar",
    "seed": 0,
    "scenario": {
        "l_samples": 1,
        "n_tx": [2],
        "n_rx": [2],
        "theta_pi": [0.15],
        "p_dbm": 10.0,
    },
}

SECURE_SMALL = {
    "experiment": "secure",
    "seed": 0,
    "scenario": {
        "h2": [[1.0]],
        "ht2": [],
        "sigma2_dbm": 0.0,
        "sigma2_tilde_dbm": 0.0,
        "p_dbm": 3.0,
    },
}

# two interfering cells, both eavesdropped
TRADEOFF_SMALL = {
    "experiment": "secure-tradeoff",
    "seed": 0,
    "scenario": {
        "h2": [[1.0, 0.1], [0.09, 0.87]],
        "ht2": [[0.5, 0.11], [0.13, 0.39]],
        "sigma2_dbm": -10.0,
        "sigma2_tilde_dbm": 0.0,
        "p_dbm": 10.0,
    },
}

SECURE_TWO_CELLS = dict(TRADEOFF_SMALL, experiment="secure")


class TestConfigValidation:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
    def test_shipped_configs_validate_and_round_trip(self, name):
        cfg = cli.load_config(CONFIG_DIR / name)
        cli.validate_config(cfg, for_sweep="sweep" in cfg)
        assert yaml.safe_load(yaml.safe_dump(cfg)) == cfg

    def test_missing_field_names_the_field(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "aoi", "scenario": {"k": 3}})
        with pytest.raises(ConfigError, match="mu"):
            cli.validate_config(cli.load_config(path))

    def test_unknown_scenario_key_rejected(self, tmp_path):
        body = {"experiment": "aoi", "scenario": {"k": 3, "mu": 1.0, "extra": 1}}
        with pytest.raises(ConfigError, match="extra"):
            cli.validate_config(body)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="typo"):
            cli.validate_config(
                {"experiment": "aoi", "scenario": {"k": 1, "mu": 1.0}, "typo": 1}
            )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            cli.validate_config({"experiment": "nope", "scenario": {}})

    def test_sweep_requires_axis(self):
        cfg = {"experiment": "aoi", "scenario": {"k": 1, "mu": 1.0}}
        with pytest.raises(ConfigError, match="sweep"):
            cli.validate_config(cfg, for_sweep=True)


class TestRunCommand:
    def test_aoi_run_writes_bundle(self, tmp_path):
        path = write_config(tmp_path, dict(AOI_SMALL, oracle=True))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        trace = read_csv(out / "trace.csv")
        assert trace[0] == ["iter", "objective", "wall_ms", "inner_iters"]
        summary = dict(read_csv(out / "summary.csv")[1:])
        assert summary["experiment"] == "aoi"
        assert float(summary["oracle_gap_rel"]) <= 1e-3
        assert summary["status"] == "converged"

    def test_missing_field_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "aoi", "scenario": {"k": 3}})
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mu" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        code = cli.main(
            ["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "body, traces",
        [
            (AOI_SMALL, ["trace.csv"]),
            (RADAR_SMALL, ["trace.csv"]),
            (SECURE_SMALL, ["trace_direct.csv", "trace_fast.csv"]),
        ],
        ids=["aoi", "radar", "secure"],
    )
    def test_determinism_of_objective_column(self, tmp_path, body, traces):
        path = write_config(tmp_path, body)
        cols = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
            # objective columns, exact strings
            cols.append([[r[1] for r in read_csv(out / t)[1:]] for t in traces])
        assert cols[0] == cols[1]

    def test_secure_run_writes_both_traces(self, tmp_path):
        path = write_config(tmp_path, SECURE_SMALL)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "trace_direct.csv").exists()
        assert (out / "trace_fast.csv").exists()

    def test_radar_run_small(self, tmp_path):
        path = write_config(tmp_path, RADAR_SMALL)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = dict(read_csv(out / "summary.csv")[1:])
        assert float(summary["final_sum_crb"]) <= float(summary["initial_sum_crb"])

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("body", [AOI_SMALL, TRADEOFF_SMALL], ids=["aoi", "tradeoff"])
    def test_bad_solver_options_exit_2(self, tmp_path, capsys, body, command):
        # the tradeoff keeps its own solver budgets but still checks the section
        if command == "sweep":
            body = dict(body, sweep={"k": [2]} if body["experiment"] == "aoi" else {"eta": [1.0]})
        bad = [
            ({"solver": {"max_outer": -1}}, "bad solver options"),
            ({"solver": {"max_outer": 2.5}}, "bad solver options"),
            ({"solver": {"max_outer": True}}, "bad solver options"),
            ({"solver": {"outer_tol": math.nan}}, "bad solver options"),
            ({"solver": {"inner_tol": math.inf}}, "bad solver options"),
            ({"seed": True}, "'seed' must be an integer"),
        ]
        for fields, message in bad:
            path = write_config(tmp_path, dict(body, **fields))
            code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
            assert code == 2, fields
            assert message in capsys.readouterr().err, fields

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "body, key, value",
        [
            (AOI_SMALL, "k", "abc"),
            (RADAR_SMALL, "n_tx", 2),
            (RADAR_SMALL, "beta", [["abc"]]),
            (SECURE_TWO_CELLS, "h2", 2),
            # non-finite numbers, and powers too large for a float
            (AOI_SMALL, "mu", math.nan),
            (AOI_SMALL, "mu", math.inf),
            (SECURE_TWO_CELLS, "p_dbm", math.nan),
            (SECURE_TWO_CELLS, "p_dbm", math.inf),
            (SECURE_TWO_CELLS, "p_dbm", 4000.0),
            (SECURE_TWO_CELLS, "h2", [[math.nan, 0.1], [0.09, 0.87]]),
            (SECURE_TWO_CELLS, "w", [math.nan, 1.0]),
            (RADAR_SMALL, "p_dbm", math.nan),
            (RADAR_SMALL, "p_dbm", math.inf),
            (RADAR_SMALL, "p_dbm", 4000.0),
            (RADAR_SMALL, "theta_pi", [math.nan]),
            (RADAR_SMALL, "sigma2_dbm", math.nan),
            (RADAR_SMALL, "beta", math.nan),
        ],
        ids=[
            "aoi-k-string", "radar-n_tx-number", "radar-beta-string", "secure-h2-number",
            "aoi-mu-nan", "aoi-mu-inf",
            "secure-p_dbm-nan", "secure-p_dbm-inf", "secure-p_dbm-4000", "secure-h2-entry-nan",
            "secure-w-entry-nan",
            "radar-p_dbm-nan", "radar-p_dbm-inf", "radar-p_dbm-4000", "radar-theta_pi-entry-nan",
            "radar-sigma2_dbm-nan", "radar-beta-nan",
        ],
    )
    def test_ill_typed_scenario_value_exits_2(self, tmp_path, capsys, body, key, value, command):
        body = dict(body, scenario=dict(body["scenario"], **{key: value}))
        if command == "sweep":
            axis = {"aoi": "k", "radar": "p_dbm"}.get(body["experiment"], "eta")
            body["sweep"] = {axis: [body["scenario"].get(axis, 1.0)]}
        path = write_config(tmp_path, body)
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: bad scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "fields",
        [{"beta": 0.0}, {"beta": [[0.0, 1.0], [1.0, 1.0]]}, {"n_tx": [1, 2], "n_rx": [1, 2]}],
        ids=["all-gains-zero", "self-gain-zero", "single-antenna-arrays"],
    )
    def test_zero_angle_derivative_exits_2(self, tmp_path, capsys, fields, command):
        # radar 0's response does not move with its angle, so its bound is
        # infinite for every waveform
        scenario = dict(RADAR_SMALL["scenario"], n_tx=[2, 2], n_rx=[2, 2], theta_pi=[0.15, 0.3])
        body = dict(RADAR_SMALL, scenario=dict(scenario, **fields))
        if command == "sweep":
            body["sweep"] = {"p_dbm": [10.0]}
        path = write_config(tmp_path, body)
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "angle derivative of radar 0's response is identically zero" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, body",
        [
            ("sweep", dict(TRADEOFF_SMALL, experiment="secure", sweep={"eta": ["x"]})),
            ("run", dict(TRADEOFF_SMALL, scenario=dict(TRADEOFF_SMALL["scenario"], etas=["x"]))),
            ("run", dict(TRADEOFF_SMALL, scenario=dict(TRADEOFF_SMALL["scenario"], etas=5))),
            ("run", dict(TRADEOFF_SMALL, scenario=dict(TRADEOFF_SMALL["scenario"], etas="123"))),
            ("run", dict(TRADEOFF_SMALL, scenario=dict(TRADEOFF_SMALL["scenario"], etas=[]))),
        ],
        ids=["sweep-eta-string", "run-etas-string", "run-etas-number", "run-etas-text", "run-etas-empty"],
    )
    def test_ill_typed_eta_exits_2(self, tmp_path, capsys, command, body):
        path = write_config(tmp_path, body)
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: bad eta values" in capsys.readouterr().err


class TestSweepCommand:
    def test_aoi_sweep_rows(self, tmp_path):
        body = dict(AOI_SMALL, sweep={"k": [1, 2]})
        path = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3  # header + one row per point
        assert rows[0][0] == "k"
        for row in rows[1:]:
            assert float(row[2]) <= float(row[3]) + 1e-9  # alg <= equal-rate
            assert float(row[2]) <= float(row[4]) + 1e-9  # alg <= max-rate

    def test_radar_sweep_rows_match_run(self, tmp_path):
        path = write_config(tmp_path, dict(RADAR_SMALL, sweep={"p_dbm": [5.0, 10.0]}))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["p_dbm", "initial_sum_crb", "final_sum_crb", "reduction",
                           "outer_iterations", "stationarity_residual"]
        assert [float(r[0]) for r in rows[1:]] == [5.0, 10.0]
        for row in rows[1:]:
            assert float(row[2]) <= float(row[1])
        # the 10 dBm point reports what `mmfp run` reports for that scenario
        path = write_config(tmp_path, RADAR_SMALL)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        summary = dict(read_csv(tmp_path / "run" / "summary.csv")[1:])
        assert rows[2][1:] == [summary[k] for k in rows[0][1:]]

    def test_secure_sweeps_write_the_tradeoff_frontier(self, tmp_path):
        body = dict(TRADEOFF_SMALL, scenario=dict(TRADEOFF_SMALL["scenario"], etas=[0.5]))
        path = write_config(tmp_path, body)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        frontier = read_csv(tmp_path / "run" / "frontier.csv")
        assert len(frontier) == 2 and float(frontier[1][0]) == 0.5
        for experiment in ("secure-tradeoff", "secure"):
            body = dict(TRADEOFF_SMALL, experiment=experiment, sweep={"eta": [0.5]})
            path = write_config(tmp_path, body)
            out = tmp_path / experiment
            assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
            assert read_csv(out / "sweep.csv") == frontier

    def test_sweep_without_axis_exits_2(self, tmp_path):
        path = write_config(tmp_path, AOI_SMALL)
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_verify_command_runs_a_suite(capsys):
    for suite in ("lagrangian", "core", "matrix"):
        assert cli.main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        for check in verify.CHECKS:
            assert (f"[{suite}] {check.name}" in out) == (check.suite == suite)


def test_env_var_seed_used_when_config_omits_it(tmp_path, monkeypatch):
    body = {"experiment": "aoi", "scenario": {"k": 1, "mu": 1.0}}
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    assert cli._seed_of(body) == 7
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    assert cli._seed_of(body) == 0
    assert cli._seed_of(dict(body, seed=3)) == 3


def test_bad_env_var_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    path = write_config(tmp_path, {key: AOI_SMALL[key] for key in ("experiment", "scenario")})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {cli.SEED_ENV_VAR} must be an integer" in capsys.readouterr().err
