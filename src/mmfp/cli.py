"""Experiment runner: ``mmfp run | sweep | verify``.

``run`` executes one experiment from a YAML config and writes CSV traces
plus a key/value summary; ``sweep`` repeats an experiment along a declared
axis (source count, power budget, or rate weight) writing one row per
point; ``verify`` executes the seeded property suites.

Configs use dBm for powers/noises (converted to mW internally), angles as
multiples of pi, and rates per unit time. Unknown keys are rejected.
Exit codes: 0 success, 2 bad config, 3 invariant violation or failed
verification, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import aoi, radar, secure, solver, verify
from .errors import ConfigError, InvalidInputError, MmfpError, MonotonicityError
from .units import dbm_to_mw, nats_to_bits

SEED_ENV_VAR = "MMFP_SEED"

# the seed is a top-level key
_SOLVER_KEYS = {f.name for f in fields(solver.SolveOptions)} - {"seed"}

def load_config(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing required field '{where}{key}'")
    return cfg[key]


def _reject_unknown(cfg: dict, allowed, where: str):
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown field '{where}{key}'")


def validate_config(cfg: dict, for_sweep: bool = False) -> dict:
    """Strict validation; returns the config unchanged on success."""
    _reject_unknown(cfg, {"experiment", "seed", "scenario", "solver", "oracle", "sweep"}, "")
    experiment = _require(cfg, "experiment", "")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {sorted(_EXPERIMENTS)}"
        )
    scenario = _require(cfg, "scenario", "")
    if not isinstance(scenario, dict):
        raise ConfigError("'scenario' must be a mapping")
    schema = _EXPERIMENTS[experiment].keys
    _reject_unknown(scenario, set(schema), "scenario.")
    for key, required in schema.items():
        if required:
            _require(scenario, key, "scenario.")
    solver_cfg = cfg.get("solver", {})
    if not isinstance(solver_cfg, dict):
        raise ConfigError("'solver' must be a mapping")
    _reject_unknown(solver_cfg, _SOLVER_KEYS, "solver.")
    if "seed" in cfg and (isinstance(cfg["seed"], bool) or not isinstance(cfg["seed"], int)):
        raise ConfigError("'seed' must be an integer")
    if for_sweep:
        sweep = _require(cfg, "sweep", "")
        if not isinstance(sweep, dict):
            raise ConfigError("'sweep' must be a mapping")
        axis = _EXPERIMENTS[experiment].axis
        _reject_unknown(sweep, {axis}, "sweep.")
        values = _require(sweep, axis, "sweep.")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"'sweep.{axis}' must be a nonempty list")
    return cfg


def _seed_of(cfg: dict) -> int:
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc


def _solve_options(cfg: dict) -> solver.SolveOptions:
    fields = dict(cfg.get("solver", {}))
    fields["seed"] = _seed_of(cfg)
    try:
        return solver.SolveOptions(**fields)
    except (TypeError, InvalidInputError) as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc


def _build_aoi(scenario: dict) -> aoi.AoiScenario:
    try:
        return aoi.AoiScenario(k=int(scenario["k"]), mu=float(scenario["mu"]))
    # ill-typed, invalid (InvalidInputError is a ValueError) or too large for a float
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _per_radar(value, m: int, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * m
    if isinstance(value, list) and len(value) == m:
        return tuple(float(v) for v in value)
    raise ConfigError(f"'scenario.{name}' must be a number or a list of length {m}")


def _build_radar(scenario: dict) -> radar.RadarScenario:
    try:
        n_tx = tuple(int(v) for v in scenario["n_tx"])
        n_rx = tuple(int(v) for v in scenario["n_rx"])
        m = len(n_tx)
        theta = tuple(math.pi * float(v) for v in scenario["theta_pi"])
        beta_cfg = scenario.get("beta", 1.0)
        if isinstance(beta_cfg, (int, float)):
            beta = tuple(tuple(complex(beta_cfg) for _ in range(m)) for _ in range(m))
        else:
            beta = tuple(tuple(complex(v) for v in row) for row in beta_cfg)
        sigma2 = tuple(
            dbm_to_mw(v) for v in _per_radar(scenario.get("sigma2_dbm", 0.0), m, "sigma2_dbm")
        )
        power = tuple(dbm_to_mw(v) for v in _per_radar(scenario["p_dbm"], m, "p_dbm"))
        sc = radar.RadarScenario(
            n_tx=n_tx, n_rx=n_rx, theta=theta, beta=beta,
            sigma2=sigma2, power=power, l_samples=int(scenario["l_samples"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc
    for m in range(sc.m_radars):
        if not np.any(radar.response_derivative(sc, m)):
            raise ConfigError(
                f"bad scenario: the angle derivative of radar {m}'s response is identically zero "
                "(zero self-gain, or one antenna on both arrays): its bound is infinite"
            )
    return sc


def _build_secure(scenario: dict) -> secure.SecureScenario:
    try:
        return secure.SecureScenario(
            h2=np.asarray(scenario["h2"], dtype=float),
            ht2=np.asarray(scenario["ht2"], dtype=float),
            sigma2=dbm_to_mw(float(scenario["sigma2_dbm"])),
            sigma2_tilde=dbm_to_mw(float(scenario["sigma2_tilde_dbm"])),
            p_max=dbm_to_mw(float(scenario["p_dbm"])),
            w=np.asarray(scenario.get("w", 1.0), dtype=float),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_trace(path: Path, trace: solver.IterationTrace) -> None:
    _write_csv(
        path,
        ["iter", "objective", "wall_ms", "inner_iters"],
        [[r.outer_index, float(r.objective), float(r.wall_ms), r.inner_iterations] for r in trace.records],
    )


def _write_summary(path: Path, rows: list[tuple[str, object]]) -> None:
    _write_csv(path, ["key", "value"], [[k, v] for k, v in rows])


def _solve_aoi(scenario: aoi.AoiScenario, opts: solver.SolveOptions):
    rates, trace = aoi.run_algorithm1(scenario, opts)
    _, equal_val = aoi.baseline_equal_rate(scenario)
    _, max_val = aoi.baseline_max_rate(scenario)
    return rates, trace, float(equal_val), float(max_val)


def _run_aoi(cfg: dict, scenario: aoi.AoiScenario, opts: solver.SolveOptions, out: Path) -> None:
    rates, trace, equal_val, max_val = _solve_aoi(scenario, opts)
    _write_trace(out / "trace.csv", trace)
    resid = solver.stationarity_residual(aoi.build_aoi_problem(scenario), rates)
    rows = [
        ("experiment", "aoi"),
        ("final_sum_aoi", float(trace.records[-1].objective)),
        ("outer_iterations", trace.outer_iterations),
        ("status", trace.status),
        ("stationarity_residual", float(resid)),
        ("baseline_equal_rate_sum_aoi", equal_val),
        ("baseline_max_rate_sum_aoi", max_val),
    ]
    if cfg.get("oracle", False) and scenario.k <= 3:
        _, oracle_val = aoi.oracle_grid(scenario)
        gap = abs(trace.records[-1].objective - oracle_val) / oracle_val
        rows += [("oracle_sum_aoi", float(oracle_val)), ("oracle_gap_rel", float(gap))]
    rows += [(f"rate_{k}", float(rates[k])) for k in range(scenario.k)]
    _write_summary(out / "summary.csv", rows)


def _aoi_row(scenario: aoi.AoiScenario, k, opts: solver.SolveOptions) -> list:
    _, trace, equal_val, max_val = _solve_aoi(scenario, opts)
    alg = float(trace.records[-1].objective)
    return [
        scenario.k, float(scenario.mu), alg, equal_val, max_val,
        float(1 - alg / equal_val), float(1 - alg / max_val), trace.outer_iterations,
    ]


def _solve_radar(scenario: radar.RadarScenario, opts: solver.SolveOptions):
    """Waveforms, trace, the initial and final bound sums with the relative
    reduction, and the stationarity residual."""
    waveforms, trace = radar.run_algorithm2(scenario, opts)
    problem = radar.RadarMmProblem(scenario)
    resid = solver.stationarity_residual(problem, radar.stack_waveforms(waveforms))
    first, last = trace.objectives[0], trace.objectives[-1]
    bounds = [float(first), float(last), float(1.0 - last / first)]
    return waveforms, trace, bounds, float(resid)


def _run_radar(cfg: dict, scenario: radar.RadarScenario, opts: solver.SolveOptions, out: Path) -> None:
    waveforms, trace, bounds, resid = _solve_radar(scenario, opts)
    _write_trace(out / "trace.csv", trace)
    rows = [
        ("experiment", "radar"),
        *zip(("initial_sum_crb", "final_sum_crb", "reduction"), bounds),
        ("outer_iterations", trace.outer_iterations),
        ("status", trace.status),
        ("stationarity_residual", resid),
    ]
    rows += [
        (f"power_{m}", float(np.real(np.vdot(s, s)))) for m, s in enumerate(waveforms)
    ]
    _write_summary(out / "summary.csv", rows)


def _radar_row(scenario: radar.RadarScenario, p_dbm, opts: solver.SolveOptions) -> list:
    _, trace, bounds, resid = _solve_radar(scenario, opts)
    return [float(p_dbm), *bounds, trace.outer_iterations, resid]


def _run_secure(cfg: dict, scenario: secure.SecureScenario, opts: solver.SolveOptions, out: Path) -> None:
    p3, tr3 = secure.run_algorithm3(scenario, opts)
    p4, tr4 = secure.run_algorithm4(scenario, opts)
    _write_trace(out / "trace_direct.csv", tr3)
    _write_trace(out / "trace_fast.csv", tr4)
    v3 = secure.weighted_sum_rate(scenario, p3)
    v4 = secure.weighted_sum_rate(scenario, p4)
    _, base_val = secure.baseline_max_power_linear_search(scenario)
    rows = [
        ("experiment", "secure"),
        ("direct_objective_nats", float(v3)),
        ("direct_objective_bits", float(nats_to_bits(v3))),
        ("direct_outer_iterations", tr3.outer_iterations),
        ("direct_iters_to_1e-6", solver.iterations_to_relative_convergence(tr3, 1e-6)),
        ("fast_objective_nats", float(v4)),
        ("fast_objective_bits", float(nats_to_bits(v4))),
        ("fast_outer_iterations", tr4.outer_iterations),
        ("fast_iters_to_1e-6", solver.iterations_to_relative_convergence(tr4, 1e-6)),
        ("baseline_objective_nats", float(base_val)),
    ]
    if cfg.get("oracle", False) and scenario.l_cells == 2:
        _, oracle_val = secure.oracle_grid_2d(scenario)
        rows += [
            ("oracle_objective_nats", float(oracle_val)),
            ("direct_oracle_gap_nats", float(abs(v3 - oracle_val))),
            ("fast_oracle_gap_nats", float(abs(v4 - oracle_val))),
        ]
    rows += [(f"direct_power_{i}", float(p3[i])) for i in range(scenario.l_cells)]
    rows += [(f"fast_power_{i}", float(p4[i])) for i in range(scenario.l_cells)]
    _write_summary(out / "summary.csv", rows)


_FRONTIER_HEADER = [
    "eta",
    "fast_secure_bits", "fast_open_bits",
    "direct_secure_bits", "direct_open_bits",
    "baseline_secure_bits", "baseline_open_bits",
    "fast_objective_nats", "direct_objective_nats", "baseline_objective_nats",
]


def _frontier_row(p: secure.TradeoffPoint) -> list:
    return [float(v) for v in astuple(p)]


def _etas(values) -> list[float]:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"bad eta values: expected a nonempty list of numbers, got {values!r}")
    try:
        return [float(e) for e in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad eta values: {exc}") from exc


def _tradeoff_row(scenario: secure.SecureScenario, eta, opts: solver.SolveOptions) -> list:
    """One frontier point; the tradeoff keeps its own solver budgets, so
    ``opts`` is unused."""
    return _frontier_row(secure.tradeoff_sweep(scenario, _etas([eta]))[0])


def _run_tradeoff(cfg: dict, scenario: secure.SecureScenario, opts: solver.SolveOptions, out: Path) -> None:
    etas = cfg["scenario"].get("etas")
    if etas is None:
        etas = np.logspace(-3, 2, 26).tolist()
    points = secure.tradeoff_sweep(scenario, _etas(etas))
    _write_csv(out / "frontier.csv", _FRONTIER_HEADER, [_frontier_row(p) for p in points])
    rows = [
        ("experiment", "secure-tradeoff"),
        ("points", len(points)),
        *secure.frontier_facts(points).items(),
    ]
    _write_summary(out / "summary.csv", rows)


@dataclass(frozen=True)
class _Experiment:
    """What ``run``, ``sweep`` and :func:`validate_config` know of one
    experiment: its scenario keys (key -> required), the builder of its
    model scenario, the ``run`` writer, the sweep axis, and the
    ``sweep.csv`` header with the row of one sweep point."""

    keys: dict[str, bool]
    build: Callable[[dict], object]
    run: Callable[[dict, object, solver.SolveOptions, Path], None]
    axis: str
    header: list[str]
    row: Callable[[object, object, solver.SolveOptions], list]


_SECURE_KEYS = {
    "h2": True,
    "ht2": True,
    "sigma2_dbm": True,
    "sigma2_tilde_dbm": True,
    "p_dbm": True,
    "w": False,
}

_EXPERIMENTS = {
    "aoi": _Experiment(
        {"k": True, "mu": True}, _build_aoi, _run_aoi, "k",
        ["k", "mu", "alg_sum_aoi", "equal_rate_sum_aoi", "max_rate_sum_aoi",
         "reduction_vs_equal", "reduction_vs_max", "outer_iterations"],
        _aoi_row,
    ),
    "radar": _Experiment(
        {
            "l_samples": True,
            "n_tx": True,
            "n_rx": True,
            "theta_pi": True,
            "beta": False,
            "sigma2_dbm": False,
            "p_dbm": True,
        },
        _build_radar, _run_radar, "p_dbm",
        ["p_dbm", "initial_sum_crb", "final_sum_crb", "reduction",
         "outer_iterations", "stationarity_residual"],
        _radar_row,
    ),
    # a sweep of either secure experiment is the tradeoff along eta
    "secure": _Experiment(
        _SECURE_KEYS, _build_secure, _run_secure, "eta", _FRONTIER_HEADER, _tradeoff_row
    ),
    "secure-tradeoff": _Experiment(
        dict(_SECURE_KEYS, etas=False), _build_secure, _run_tradeoff, "eta",
        _FRONTIER_HEADER, _tradeoff_row,
    ),
}


def _start(args, for_sweep: bool):
    """Validated config, its experiment, the solver options and the output
    directory, shared by ``run`` and ``sweep``."""
    cfg = validate_config(load_config(args.config), for_sweep=for_sweep)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, _EXPERIMENTS[cfg["experiment"]], _solve_options(cfg), out


def _cmd_run(args) -> int:
    cfg, exp, opts, out = _start(args, for_sweep=False)
    exp.run(cfg, exp.build(cfg["scenario"]), opts, out)
    return 0


def _cmd_sweep(args) -> int:
    cfg, exp, opts, out = _start(args, for_sweep=True)
    rows = []
    for value in cfg["sweep"][exp.axis]:
        # eta is no scenario key: the row applies it to the scenario's weights
        point = dict(cfg["scenario"], **{exp.axis: value}) if exp.axis in exp.keys else cfg["scenario"]
        rows.append(exp.row(exp.build(point), value, opts))
    _write_csv(out / "sweep.csv", exp.header, rows)
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    failed = 0
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  [{r.suite}] {r.name}")
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} invariants hold")
    return 0 if failed == 0 else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mmfp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment along its sweep axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--suite", default="all", choices=list(verify.SUITES) + ["all"]
    )
    p_verify.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MonotonicityError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MmfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
