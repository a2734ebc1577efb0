import csv
import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from mmfp import aoi, cli, radar, secure, solver, verify
from mmfp.errors import ConfigError, DomainError, MonotonicityError

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

# two radars and one sample: MM climbs from the flat start (with a sample
# per radar, as in RADAR_SMALL, it starts at the bound and maps once)
RADAR_TWO = {
    "experiment": "radar",
    "seed": 0,
    "scenario": {
        "l_samples": 1,
        "n_tx": [3, 2],
        "n_rx": [2, 2],
        "theta_pi": [0.15, 0.3],
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
SECURE_TWO_CELLS = {
    "experiment": "secure",
    "seed": 0,
    "scenario": {
        "h2": [[1.0, 0.1], [0.09, 0.87]],
        "ht2": [[0.5, 0.11], [0.13, 0.39]],
        "sigma2_dbm": -10.0,
        "sigma2_tilde_dbm": 0.0,
        "p_dbm": 10.0,
    },
}


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

    def test_secure_tradeoff_experiment_is_gone(self):
        # the frontier is the secure sweep
        with pytest.raises(ConfigError, match="unknown experiment 'secure-tradeoff'"):
            cli.validate_config(dict(SECURE_TWO_CELLS, experiment="secure-tradeoff"))

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

    def test_sweep_section_under_run_exits_2(self, tmp_path, capsys):
        # it would otherwise run the scenario once and ignore the sweep
        config = CONFIG_DIR / "secure_tradeoff.yaml"
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "a 'sweep' section is run by 'mmfp sweep', not 'mmfp run'" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("run", dict(AOI_SMALL, oracle="no"), "'oracle' must be true or false, got 'no'"),
            ("run", dict(AOI_SMALL, oracle=1), "'oracle' must be true or false, got 1"),
            # the oracle's own refusal, with its reason
            ("run", dict(AOI_SMALL, scenario={"k": 5, "mu": 1.0}, oracle=True),
             f"{cli._ORACLE_ONLY}: exhaustive search is limited to K <= 3"),
            ("run", dict(SECURE_SMALL, oracle=True), f"{cli._ORACLE_ONLY}: exhaustive search is implemented for L = 2 only"),
            ("run", dict(RADAR_SMALL, oracle=True), cli._ORACLE_ONLY),
            ("sweep", dict(AOI_SMALL, sweep={"k": [2]}, oracle=True), cli._ORACLE_ONLY),
            ("sweep", dict(SECURE_TWO_CELLS, sweep={"eta": [1.0]}, oracle=True), cli._ORACLE_ONLY),
        ],
        ids=["string", "integer", "aoi-k5", "secure-one-cell", "radar", "aoi-sweep", "secure-sweep"],
    )
    def test_oracle_that_cannot_run_exits_2(self, tmp_path, capsys, command, body, message):
        path = write_config(tmp_path, body)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not any(out.glob("*.csv"))  # refused before any solve

    def test_oracle_runs_once_before_the_solve(self, tmp_path, monkeypatch):
        calls = []
        oracle_grid, run_algorithm1 = aoi.oracle_grid, aoi.run_algorithm1

        def oracle(scenario):
            calls.append("oracle_grid")
            return oracle_grid(scenario)

        def solve(scenario, opts):
            calls.append("run_algorithm1")
            return run_algorithm1(scenario, opts)

        monkeypatch.setattr(aoi, "oracle_grid", oracle)
        monkeypatch.setattr(aoi, "run_algorithm1", solve)
        path = write_config(tmp_path, dict(AOI_SMALL, scenario={"k": 3, "mu": 1.0}, oracle=True))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert calls == ["oracle_grid", "run_algorithm1"]

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("radar", {"p_dbm": -60.0}),
            ("radar", {"p_dbm": 60.0}),
            ("secure", {"p_dbm": -60.0}),
            ("secure", {"p_dbm": 60.0}),
            ("secure", {"w": [0.0, 0.0]}),
            ("aoi", {"k": 1}),
        ],
        ids=["radar-minus60dbm", "radar-60dbm", "secure-minus60dbm", "secure-60dbm", "secure-zero-weights", "aoi-k1"],
    )
    def test_extreme_shipped_input_exits_0_with_finite_csvs(self, tmp_path, name, edit):
        # no answer is asserted: only that the run ends cleanly, never in NaN
        cfg = cli.load_config(CONFIG_DIR / f"{name}.yaml")
        path = write_config(tmp_path, dict(cfg, scenario=dict(cfg["scenario"], **edit)))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        numbers = []
        for csv_path in out.glob("*.csv"):
            for cell in (c for row in read_csv(csv_path) for c in row):
                try:
                    numbers.append(float(cell))
                except ValueError:
                    pass
        assert numbers and all(math.isfinite(v) for v in numbers)

    def test_missing_config_file_exits_2(self, tmp_path):
        code = cli.main(
            ["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "body, traces",
        [
            (AOI_SMALL, ["trace.csv"]),
            (RADAR_TWO, ["trace.csv"]),
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
        path = write_config(tmp_path, RADAR_TWO)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = dict(read_csv(out / "summary.csv")[1:])
        assert int(summary["outer_iterations"]) > 2
        assert float(summary["final_sum_crb"]) < float(summary["initial_sum_crb"])

    @pytest.mark.parametrize("name, outer", [("radar", None), ("radar_orthogonal", 1)])
    def test_radar_summary_ends_with_its_certificate(self, tmp_path, name, outer):
        # the bound and the final sum's ratio to it follow every older key;
        # with a sample per radar the start is the bound and MM maps once
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(CONFIG_DIR / f"{name}.yaml"), "--out", str(out)]) == 0
        rows = read_csv(out / "summary.csv")[1:]
        assert [k for k, _ in rows[-3:]] == ["power_4", "crb_lower_bound", "bound_ratio"]
        summary = dict(rows)
        bound = radar.crb_lower_bound(cli._build_radar(cli.load_config(CONFIG_DIR / f"{name}.yaml")["scenario"]))
        assert float(summary["crb_lower_bound"]) == bound
        assert float(summary["bound_ratio"]) == float(summary["final_sum_crb"]) / bound
        assert float(summary["bound_ratio"]) >= 1.0 - 1e-12
        if outer is not None:
            assert float(summary["bound_ratio"]) <= 1.0 + 1e-9
            assert int(summary["outer_iterations"]) == outer and summary["status"] == "converged"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("body", [AOI_SMALL, RADAR_SMALL, SECURE_TWO_CELLS], ids=["aoi", "radar", "tradeoff"])
    def test_bad_solver_options_exit_2(self, tmp_path, capsys, body, command):
        # the secure sweep is the tradeoff: it keeps its own fixed budgets,
        # so any 'solver' section there is an error
        tradeoff = command == "sweep" and body["experiment"] == "secure"
        if command == "sweep":
            axis = {"aoi": {"k": [2]}, "radar": {"p_dbm": [10.0]}}
            body = dict(body, sweep=axis.get(body["experiment"], {"eta": [1.0]}))
        bad = [
            ({"solver": {"max_outer": -1}}, "bad solver options"),
            ({"solver": {"max_outer": 2.5}}, "bad solver options"),
            ({"solver": {"max_outer": True}}, "bad solver options"),
            ({"solver": {"outer_tol": math.nan}}, "bad solver options"),
            ({"solver": {"inner_tol": math.inf}}, "bad solver options"),
            # the seed changes nothing but is still checked
            ({"seed": True}, "bad solver options: seed must be an integer"),
            ({"seed": 2.5}, "bad solver options: seed must be an integer"),
            ({"seed": -1}, "bad solver options: seed must be at least 0"),
            # extrapolation is chosen by the command, not by the config
            ({"solver": {"accelerate": True}}, "unknown field 'solver.accelerate'"),
        ]
        for fields, message in bad:
            if tradeoff and "solver" in fields:
                message = "'solver' does not apply to the secure sweep: it keeps fixed budgets"
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
            # integer fields take integers only: no truncated floats, no bools
            (AOI_SMALL, "k", 2.5),
            (AOI_SMALL, "k", True),
            (RADAR_SMALL, "l_samples", 1.9),
            (RADAR_SMALL, "n_tx", [2.7]),
            (RADAR_SMALL, "n_rx", [True]),
            # real fields take real numbers only: no bools, no strings
            (AOI_SMALL, "mu", True),
            (AOI_SMALL, "mu", "1.5"),
            (SECURE_TWO_CELLS, "p_dbm", True),
            (SECURE_TWO_CELLS, "sigma2_dbm", True),
            (SECURE_TWO_CELLS, "sigma2_tilde_dbm", False),
            (SECURE_TWO_CELLS, "w", [True, 1.0]),
            (SECURE_TWO_CELLS, "h2", [[True, 0.1], [0.09, 0.87]]),
            (SECURE_TWO_CELLS, "ht2", [[0.5, 0.11], [0.13, True]]),
            (RADAR_SMALL, "p_dbm", True),
            (RADAR_SMALL, "sigma2_dbm", [True]),
            (RADAR_SMALL, "theta_pi", [True]),
            (RADAR_SMALL, "beta", True),
            (RADAR_SMALL, "beta", [[True]]),
        ],
        ids=[
            "aoi-k-string", "radar-n_tx-number", "radar-beta-string", "secure-h2-number",
            "aoi-mu-nan", "aoi-mu-inf",
            "secure-p_dbm-nan", "secure-p_dbm-inf", "secure-p_dbm-4000", "secure-h2-entry-nan",
            "secure-w-entry-nan",
            "radar-p_dbm-nan", "radar-p_dbm-inf", "radar-p_dbm-4000", "radar-theta_pi-entry-nan",
            "radar-sigma2_dbm-nan", "radar-beta-nan",
            "aoi-k-float", "aoi-k-bool", "radar-l_samples-float", "radar-n_tx-entry-float",
            "radar-n_rx-entry-bool",
            "aoi-mu-bool", "aoi-mu-string", "secure-p_dbm-bool", "secure-sigma2_dbm-bool",
            "secure-sigma2_tilde_dbm-bool", "secure-w-entry-bool", "secure-h2-entry-bool",
            "secure-ht2-entry-bool", "radar-p_dbm-bool", "radar-sigma2_dbm-entry-bool",
            "radar-theta_pi-entry-bool", "radar-beta-bool", "radar-beta-entry-bool",
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
        [
            {"beta": 0.0},
            {"beta": [[0.0, 1.0], [1.0, 1.0]]},
            {"n_tx": [1, 2], "n_rx": [1, 2]},
            # cos(pi/2) = 6e-17: only rounding moves the response
            {"theta_pi": [0.5, 0.3]},
            {"theta_pi": [-0.5, 0.3]},
        ],
        ids=["all-gains-zero", "self-gain-zero", "single-antenna-arrays", "endfire", "endfire-negative"],
    )
    def test_zero_angle_derivative_exits_2(self, tmp_path, capsys, fields, command):
        # radar 0's response does not move with its angle (to rounding), so
        # its bound is infinite for every waveform
        scenario = dict(RADAR_SMALL["scenario"], n_tx=[2, 2], n_rx=[2, 2], theta_pi=[0.15, 0.3])
        body = dict(RADAR_SMALL, scenario=dict(scenario, **fields))
        if command == "sweep":
            body["sweep"] = {"p_dbm": [10.0]}
        path = write_config(tmp_path, body)
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "angle derivative of radar 0's response is zero to rounding" in capsys.readouterr().err

    def test_integer_fields_accept_numpy_integers(self):
        assert cli._build_aoi({"k": np.int64(2), "mu": 1.0}).k == 2
        scenario = dict(RADAR_SMALL["scenario"], l_samples=np.int32(2), n_tx=[np.int64(3)])
        sc = cli._build_radar(scenario)
        assert (sc.l_samples, sc.n_tx) == (2, (3,)) and type(sc.l_samples) is int

    def test_radar_run_builds_one_model(self, tmp_path, monkeypatch):
        # the stationarity residual is taken on the problem the solve used
        builds = []

        class CountedProblem(radar.RadarMmProblem):
            def __init__(self, scenario):
                builds.append(scenario)
                super().__init__(scenario)

        monkeypatch.setattr(radar, "RadarMmProblem", CountedProblem)
        path = write_config(tmp_path, RADAR_SMALL)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("sweep", dict(SECURE_TWO_CELLS, sweep={"eta": ["x"]}), "bad eta values"),
            ("sweep", dict(SECURE_TWO_CELLS, sweep={"eta": [True]}), "bad eta values"),
            # the frontier is the secure sweep alone: 'scenario.etas' is gone
            *(
                ("run", dict(SECURE_TWO_CELLS, scenario=dict(SECURE_TWO_CELLS["scenario"], etas=etas)),
                 "unknown field 'scenario.etas'")
                for etas in (["x"], 5, "123", [])
            ),
        ],
        ids=["sweep-eta-string", "sweep-eta-bool", "run-etas-string", "run-etas-number", "run-etas-text",
             "run-etas-empty"],
    )
    def test_ill_typed_eta_exits_2(self, tmp_path, capsys, command, body, message):
        path = write_config(tmp_path, body)
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_per_cell_secure_noise(self, tmp_path):
        # 0, 10 and 20 dBm are exactly 1, 10 and 100 mW
        noise = {"sigma2_dbm": [0.0, 10.0], "sigma2_tilde_dbm": [10.0, 0.0], "p_dbm": 20.0}
        cfg = dict(SECURE_TWO_CELLS, scenario=dict(SECURE_TWO_CELLS["scenario"], **noise))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        sc = secure.SecureScenario(
            h2=cfg["scenario"]["h2"], ht2=cfg["scenario"]["ht2"],
            sigma2=[1.0, 10.0], sigma2_tilde=[10.0, 1.0], p_max=100.0, w=1.0,
        )
        _, rows = cli._run_secure(sc, solver.SolveOptions(), None)
        cli._write_summary(tmp_path, "secure", rows)
        assert (out / "summary.csv").read_bytes() == (tmp_path / "summary.csv").read_bytes()

    def test_no_eavesdropper_takes_an_empty_noise_list(self, tmp_path):
        cfg = dict(SECURE_SMALL, scenario=dict(SECURE_SMALL["scenario"], sigma2_tilde_dbm=[]))
        assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"sigma2_dbm": [-10.0]}, "'scenario.sigma2_dbm' must be a number or a list of length 2"),
            ({"sigma2_tilde_dbm": [0.0, 0.0, 0.0]}, "'scenario.sigma2_tilde_dbm' must be a number or a list of length 2"),
            ({"p_dbm": [10.0, 10.0]}, "'scenario.p_dbm' must be a number"),
        ],
        ids=["sigma2_dbm", "sigma2_tilde_dbm", "p_dbm"],
    )
    def test_secure_list_of_the_wrong_length_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, fields, message
    ):
        def no_solve(*args):
            raise AssertionError("a scenario was solved")

        monkeypatch.setattr(secure, "run_algorithm3", no_solve)
        cfg = dict(SECURE_TWO_CELLS, scenario=dict(SECURE_TWO_CELLS["scenario"], **fields))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "mu, hint",
        [("1e3", "write 1000.0 for a number"), ("1.0e300", "write 1.0e+300 for a number"), ("abc", None)],
        ids=["no-dot", "unsigned-exponent", "text"],
    )
    def test_yaml_exponent_reads_as_text_and_exits_2(self, tmp_path, capsys, mu, hint):
        path = tmp_path / "config.yaml"
        path.write_text(f"experiment: aoi\nscenario:\n  k: 2\n  mu: {mu}\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: bad scenario: mu must be a real number, got '{mu}'" in err
        assert (hint in err) if hint else "write" not in err


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
        path = write_config(tmp_path, dict(RADAR_TWO, sweep={"p_dbm": [5.0, 10.0]}))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["p_dbm", "initial_sum_crb", "final_sum_crb", "reduction",
                           "outer_iterations", "stationarity_residual", "crb_lower_bound", "bound_ratio"]
        assert [float(r[0]) for r in rows[1:]] == [5.0, 10.0]
        for row in rows[1:]:
            assert float(row[2]) <= float(row[1])
        # the 10 dBm point starts where `mmfp run` starts and, extrapolated,
        # ends at least as low
        path = write_config(tmp_path, RADAR_TWO)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        summary = dict(read_csv(tmp_path / "run" / "summary.csv")[1:])
        assert rows[2][1] == summary["initial_sum_crb"]
        assert float(rows[2][2]) <= float(summary["final_sum_crb"]) * (1.0 + 1e-9)
        assert int(rows[2][4]) < int(summary["outer_iterations"])

    @pytest.mark.xfail(strict=True, reason="extrapolation can cross to a worse stationary point: this row ends 46% above run's")
    def test_radar_sweep_row_ends_no_higher_than_run_on_three_radars(self, tmp_path):
        scenario = {"l_samples": 2, "n_tx": [2, 1, 2], "n_rx": [3, 2, 2],
                    "theta_pi": [0.15, 0.3, 0.33], "p_dbm": 10.0}
        body = dict(RADAR_TWO, scenario=scenario)
        path = write_config(tmp_path, dict(body, sweep={"p_dbm": [10.0]}))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        (row,) = read_csv(tmp_path / "out" / "sweep.csv")[1:]
        path = write_config(tmp_path, body)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        summary = dict(read_csv(tmp_path / "run" / "summary.csv")[1:])
        assert float(row[2]) <= float(summary["final_sum_crb"]) * (1.0 + 1e-9)

    def test_aoi_sweep_rows_match_run(self, tmp_path):
        path = write_config(tmp_path, dict(AOI_SMALL, sweep={"k": [3]}))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        (row,) = read_csv(tmp_path / "out" / "sweep.csv")[1:]
        body = dict(AOI_SMALL, scenario=dict(AOI_SMALL["scenario"], k=3))
        path = write_config(tmp_path, body)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        summary = dict(read_csv(tmp_path / "run" / "summary.csv")[1:])
        start = read_csv(tmp_path / "run" / "trace.csv")[1][1]
        assert row[0] == "3"
        assert row[3:5] == [summary["baseline_equal_rate_sum_aoi"], summary["baseline_max_rate_sum_aoi"]]
        assert float(row[2]) <= float(summary["final_sum_aoi"]) * (1.0 + 1e-9)
        assert float(row[2]) <= float(start)

    def test_secure_sweeps_write_the_tradeoff_frontier(self, tmp_path):
        # two cells, the first eavesdropped: eta weights the open second cell
        body = dict(SECURE_TWO_CELLS["scenario"], ht2=[[0.5, 0.11]])
        path = write_config(tmp_path, dict(SECURE_TWO_CELLS, scenario=body, sweep={"eta": [0.5, 2]}))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        scenario = cli._build_secure(body)
        points = [secure.tradeoff_point(scenario, eta) for eta in (0.5, 2.0)]
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == cli._EXPERIMENTS["secure"].header
        assert rows[1:] == [[repr(v) for v in p] for p in points]
        assert rows[1][1:] != rows[2][1:]  # eta moves the answer
        facts = {key: str(value) for key, value in secure.frontier_facts(points).items()}
        assert dict(read_csv(out / "summary.csv")[1:]) == {"experiment": "secure", "points": "2", **facts}

    def test_shipped_tradeoff_config_is_criterion_4s_sweep(self):
        # acceptance criterion 4 checks this frontier through the library
        cfg = cli.validate_config(cli.load_config(CONFIG_DIR / "secure_tradeoff.yaml"), for_sweep=True)
        assert cfg["sweep"]["eta"] == np.logspace(-3, 2, 26).tolist()
        shipped, benchmark = cli._build_secure(cfg["scenario"]), secure.five_link_benchmark()
        assert all(np.array_equal(a, b) for a, b in zip(astuple(shipped), astuple(benchmark)))

    @pytest.mark.parametrize(
        "body, values, message",
        [
            (AOI_SMALL, {"k": [1, 2, 2.5]}, "bad scenario"),
            (RADAR_SMALL, {"p_dbm": [5.0, 10.0, "x"]}, "bad scenario"),
            (SECURE_TWO_CELLS, {"eta": [0.5, 2.0, True]}, "bad eta values"),
            (SECURE_TWO_CELLS, {"eta": [1.0, -1.0]}, "bad eta values: weights must be nonnegative"),
            # the scenario's own weight check, which names every finite field
            (SECURE_TWO_CELLS, {"eta": [1.0, math.nan]}, "bad eta values: gains, noise powers, power cap and weights"),
            (SECURE_TWO_CELLS, {"eta": [1.0, math.inf]}, "bad eta values: gains, noise powers, power cap and weights"),
            # good values, but every cell is eavesdropped: eta would weight no cell
            (SECURE_TWO_CELLS, {"eta": [0.5, 2.0, 100.0]}, "sweep.eta weights the open cells, and this scenario has no open cell"),
        ],
        ids=[
            "aoi-k", "radar-p_dbm", "secure-eta", "secure-eta-negative", "secure-eta-nan", "secure-eta-inf",
            "secure-eta-no-open-cell",
        ],
    )
    def test_bad_last_value_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch, body, values, message):
        def no_solve(*args):
            raise AssertionError("a sweep point was solved")

        name = body["experiment"]
        monkeypatch.setitem(cli._EXPERIMENTS, name, replace(cli._EXPERIMENTS[name], row=no_solve))
        path = write_config(tmp_path, dict(body, sweep=values))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_sweep_without_axis_exits_2(self, tmp_path):
        path = write_config(tmp_path, AOI_SMALL)
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", "experiment: [aoi", "cannot parse config"),
        ("run", yaml.safe_dump([AOI_SMALL]), "config must be a mapping"),
        ("run", yaml.safe_dump(dict(AOI_SMALL, scenario=[2, 1.0])), "'scenario' must be a mapping"),
        ("run", yaml.safe_dump(dict(AOI_SMALL, solver=[60])), "'solver' must be a mapping"),
        ("sweep", yaml.safe_dump(dict(AOI_SMALL, sweep=[2, 3])), "'sweep' must be a mapping"),
        ("sweep", yaml.safe_dump(dict(AOI_SMALL, sweep={"k": []})), "'sweep.k' must be a nonempty list"),
    ],
    ids=["yaml-parse-error", "config-list", "scenario-list", "solver-list", "sweep-list", "sweep-empty"],
)
def test_malformed_config_exits_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, body",
    [
        ("run", dict(AOI_SMALL, scenario={"k": 2, "mu": -1.0})),
        ("sweep", dict(AOI_SMALL, sweep={"k": [3, 0]})),
        ("run", dict(AOI_SMALL, scenario={"k": 4, "mu": 1.0}, oracle=True)),
    ],
    ids=["scenario", "sweep-point", "oracle"],
)
def test_config_that_exits_2_makes_no_output_directory(tmp_path, command, body):
    # the scenario, every sweep point and the oracle are checked before --out is made
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "error, message",
    [
        (MonotonicityError("objective decreased"), "invariant violation: objective decreased"),
        (DomainError("ratio 0 outside domain"), "error: ratio 0 outside domain"),
    ],
    ids=["monotonicity", "other-mmfp-error"],
)
def test_solve_error_exits_3(tmp_path, capsys, monkeypatch, error, message):
    def fail(scenario, opts):
        raise error

    monkeypatch.setattr(aoi, "run_algorithm1", fail)
    path = write_config(tmp_path, AOI_SMALL)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert message in capsys.readouterr().err


def test_output_under_a_regular_file_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    path = write_config(tmp_path, AOI_SMALL)
    assert cli.main(["run", "--config", str(path), "--out", str(blocker / "out")]) == 4
    assert "i/o error:" in capsys.readouterr().err


# every CSV column and summary key that `run` and a one-point `sweep` write,
# in order; perfbench reads final_sum_aoi, final_sum_crb, outer_iterations,
# alg_sum_aoi and each method's objective_nats and outer_iterations
MM_KEYS = ["outer_iterations", "status", "stationarity_residual"]
TRACE_HEADER = ["iter", "objective", "wall_ms", "inner_iters"]
SECURE_METHOD_KEYS = ["objective_nats", "objective_bits", *MM_KEYS, "iters_to_1e-6"]
LAYOUTS = {
    "aoi": (
        dict(AOI_SMALL, scenario={"k": 3, "mu": 1.0}, oracle=True),
        ["trace.csv"],
        ["final_sum_aoi", *MM_KEYS, "baseline_equal_rate_sum_aoi", "baseline_max_rate_sum_aoi",
         "oracle_sum_aoi", "oracle_gap_rel", "rate_0", "rate_1", "rate_2"],
        dict(AOI_SMALL, sweep={"k": [3]}),
        ["k", "mu", "alg_sum_aoi", "equal_rate_sum_aoi", "max_rate_sum_aoi",
         "reduction_vs_equal", "reduction_vs_max", "outer_iterations"],
        None,
    ),
    "radar": (
        RADAR_TWO,
        ["trace.csv"],
        ["initial_sum_crb", "final_sum_crb", "reduction", *MM_KEYS, "power_0", "power_1",
         "crb_lower_bound", "bound_ratio"],
        dict(RADAR_TWO, sweep={"p_dbm": [10.0]}),
        ["p_dbm", "initial_sum_crb", "final_sum_crb", "reduction", "outer_iterations",
         "stationarity_residual", "crb_lower_bound", "bound_ratio"],
        None,
    ),
    "secure": (
        dict(SECURE_TWO_CELLS, oracle=True),
        ["trace_direct.csv", "trace_fast.csv"],
        [*(f"direct_{k}" for k in SECURE_METHOD_KEYS), *(f"fast_{k}" for k in SECURE_METHOD_KEYS),
         "baseline_objective_nats", "oracle_objective_nats", "direct_oracle_gap_nats", "fast_oracle_gap_nats",
         "direct_power_0", "direct_power_1", "fast_power_0", "fast_power_1"],
        # the first cell eavesdropped, so eta weights the open second cell
        dict(SECURE_TWO_CELLS, scenario=dict(SECURE_TWO_CELLS["scenario"], ht2=[[0.5, 0.11]]), sweep={"eta": [1.0]}),
        ["eta", "fast_secure_bits", "fast_open_bits", "direct_secure_bits", "direct_open_bits",
         "baseline_secure_bits", "baseline_open_bits",
         "fast_objective_nats", "direct_objective_nats", "baseline_objective_nats"],
        ["points", "open_rates_nondecreasing", "secure_rates_nonincreasing", "max_method_gap_bits",
         "dominates_baseline"],
    ),
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_output_layout_is_pinned(tmp_path, name):
    run_body, traces, summary_keys, sweep_body, sweep_header, sweep_summary_keys = LAYOUTS[name]
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert cli.main(["run", "--config", str(write_config(tmp_path, run_body)), "--out", str(run_out)]) == 0
    assert sorted(p.name for p in run_out.iterdir()) == sorted([*traces, "summary.csv"])
    assert all(read_csv(run_out / t)[0] == TRACE_HEADER for t in traces)
    assert read_csv(run_out / "summary.csv")[0] == ["key", "value"]
    assert [k for k, _ in read_csv(run_out / "summary.csv")[1:]] == ["experiment", *summary_keys]
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, sweep_body)), "--out", str(sweep_out)]) == 0
    assert read_csv(sweep_out / "sweep.csv")[0] == sweep_header
    assert len(read_csv(sweep_out / "sweep.csv")) == 2
    if sweep_summary_keys is None:
        assert not (sweep_out / "summary.csv").exists()
    else:
        assert [k for k, _ in read_csv(sweep_out / "summary.csv")[1:]] == ["experiment", *sweep_summary_keys]


def test_verify_command_runs_a_suite(capsys):
    for suite in ("lagrangian", "core", "matrix"):
        assert cli.main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        for check in verify.CHECKS:
            assert (f"[{suite}] {check.name}" in out) == (check.suite == suite)


def test_seed_sets_no_solver_option():
    # a config may omit the seed; any valid one, numpy integers too, gives
    # the options of the 'solver' section alone
    body = {"experiment": "aoi", "scenario": {"k": 1, "mu": 1.0}, "solver": {"max_outer": 7}}
    expected = solver.SolveOptions(max_outer=7)
    for seed in (None, 0, 3, np.int64(5)):
        assert cli._solve_options(body if seed is None else dict(body, seed=seed)) == expected


def test_seed_changes_no_radar_output(tmp_path):
    # no solve draws random numbers, the radar start included
    cfg = cli.load_config(CONFIG_DIR / "radar.yaml")
    outs = [tmp_path / "seed0", tmp_path / "seed7"]
    for seed, out in zip((0, 7), outs):
        path = write_config(tmp_path, dict(cfg, seed=seed))
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    traces = [read_csv(out / "trace.csv") for out in outs]
    wall = traces[0][0].index("wall_ms")
    without_wall = [[r[:wall] + r[wall + 1 :] for r in trace] for trace in traces]
    assert without_wall[0] == without_wall[1]
