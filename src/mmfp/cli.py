"""Experiment runner: ``mmfp run | sweep | verify``.

``run`` executes one experiment from a YAML config and writes CSV traces
plus a key/value summary; ``sweep`` repeats an experiment along a declared
axis (source count, power budget, or rate weight) writing one row per
point, plus the frontier facts for the secure tradeoff; ``verify``
executes the seeded property suites.

Configs use dBm for powers/noises (converted to mW internally), angles as
multiples of pi, and rates per unit time. Unknown keys are rejected.
Exit codes: 0 success, 2 bad config, 3 invariant violation or failed
verification, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from . import aoi, radar, secure, solver, verify
from .errors import ConfigError, InvalidInputError, MmfpError, MonotonicityError, count, real
from .units import dbm_to_mw, nats_to_bits

# extrapolation is chosen by the command
_SOLVER_KEYS = {f.name for f in fields(solver.SolveOptions)} - {"accelerate"}
_ORACLE_ONLY = "'oracle: true' applies only to 'mmfp run' on a scenario its grid oracle can search"
# libyaml's parser where PyYAML was built with it: the same safe
# constructor, so the same objects, parsed about ten times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_YAML_LOADER)
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
    exp = _EXPERIMENTS[experiment]
    _reject_unknown(scenario, set(exp.keys), "scenario.")
    for key, required in exp.keys.items():
        if required:
            _require(scenario, key, "scenario.")
    if for_sweep and exp.fixed_budgets is not None and "solver" in cfg:
        raise ConfigError(
            f"'solver' does not apply to the {experiment} sweep: it keeps fixed budgets, {exp.fixed_budgets}"
        )
    solver_cfg = cfg.get("solver", {})
    if not isinstance(solver_cfg, dict):
        raise ConfigError("'solver' must be a mapping")
    _reject_unknown(solver_cfg, _SOLVER_KEYS, "solver.")
    oracle = cfg.get("oracle", False)
    if not isinstance(oracle, bool):
        raise ConfigError(f"'oracle' must be true or false, got {oracle!r}")
    if oracle and (for_sweep or exp.oracle is None):
        raise ConfigError(_ORACLE_ONLY)
    if not for_sweep:
        if "sweep" in cfg:
            raise ConfigError("a 'sweep' section is run by 'mmfp sweep', not 'mmfp run'")
        return cfg
    sweep = _require(cfg, "sweep", "")
    if not isinstance(sweep, dict):
        raise ConfigError("'sweep' must be a mapping")
    _reject_unknown(sweep, {exp.axis}, "sweep.")
    values = _require(sweep, exp.axis, "sweep.")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"'sweep.{exp.axis}' must be a nonempty list")
    return cfg


def _solve_options(cfg: dict) -> solver.SolveOptions:
    try:
        opts = solver.SolveOptions(**cfg.get("solver", {}))
        # the top-level seed is checked and changes nothing: no solve draws random numbers
        if count("seed", cfg.get("seed", 0)) < 0:
            raise InvalidInputError(f"seed must be at least 0, got {cfg['seed']!r}")
        return opts
    except (TypeError, InvalidInputError) as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc


def _build_aoi(scenario: dict) -> aoi.AoiScenario:
    try:
        return aoi.AoiScenario(k=scenario["k"], mu=real("mu", scenario["mu"]))
    # ill-typed, invalid (InvalidInputError is a ValueError) or too large for a float
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _mw_per_entry(value, m: int, name: str) -> tuple[float, ...]:
    """A dBm field as ``m`` powers in mW: one number for all, or a list of ``m``."""
    value = real(name, value)
    if isinstance(value, float):
        value = [value] * m
    elif len(value) != m:
        raise ConfigError(f"'scenario.{name}' must be a number or a list of length {m}")
    return tuple(dbm_to_mw(v) for v in value)


def _build_radar(scenario: dict) -> radar.RadarScenario:
    try:
        n_tx = tuple(scenario["n_tx"])
        n_rx = tuple(scenario["n_rx"])
        m = len(n_tx)
        theta = tuple(math.pi * v for v in real("theta_pi", scenario["theta_pi"]))
        beta = real("beta", scenario.get("beta", 1.0))
        rows = [[beta] * m] * m if isinstance(beta, float) else beta
        beta = tuple(tuple(complex(v) for v in row) for row in rows)
        # the scenario also refuses a radar whose angle derivative vanishes
        return radar.RadarScenario(
            n_tx=n_tx, n_rx=n_rx, theta=theta, beta=beta,
            sigma2=_mw_per_entry(scenario.get("sigma2_dbm", 0.0), m, "sigma2_dbm"),
            power=_mw_per_entry(scenario["p_dbm"], m, "p_dbm"), l_samples=scenario["l_samples"],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _build_secure(scenario: dict) -> secure.SecureScenario:
    try:
        # the gains fix the number of noise entries; until then the noises are placeholders
        sc = secure.SecureScenario(
            h2=np.asarray(real("h2", scenario["h2"]), dtype=float),
            ht2=np.asarray(real("ht2", scenario["ht2"]), dtype=float),
            sigma2=1.0, sigma2_tilde=1.0, p_max=1.0,
            w=np.asarray(real("w", scenario.get("w", 1.0)), dtype=float),
        )
        p_dbm = real("p_dbm", scenario["p_dbm"])
        if isinstance(p_dbm, list):
            raise ConfigError("'scenario.p_dbm' must be a number: one power cap shared by every cell")
        return replace(
            sc, p_max=dbm_to_mw(p_dbm),
            sigma2=_mw_per_entry(scenario["sigma2_dbm"], sc.l_cells, "sigma2_dbm"),
            sigma2_tilde=_mw_per_entry(scenario["sigma2_tilde_dbm"], sc.k_eavesdropped, "sigma2_tilde_dbm"),
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


def _write_summary(out: Path, experiment: str, rows: list[tuple[str, object]]) -> None:
    """``out/summary.csv``: the experiment's name, then ``rows``."""
    _write_csv(out / "summary.csv", ["key", "value"], [["experiment", experiment], *([k, v] for k, v in rows)])


def _oracle_value(search: Callable, scenario) -> float:
    """The grid oracle's value; an oracle that refuses the scenario is a
    config error, before any solve."""
    try:
        return float(search(scenario)[1])
    except InvalidInputError as exc:
        raise ConfigError(f"{_ORACLE_ONLY}: {exc}") from exc


def _mm_rows(problem, x, trace: solver.IterationTrace) -> list[tuple[str, object]]:
    """The MM account of one solve: its outer iterations, its stop status
    and the stationarity residual at its answer ``x``."""
    resid = solver.stationarity_residual(problem, x)
    return [
        ("outer_iterations", trace.outer_iterations), ("status", trace.status), ("stationarity_residual", float(resid)),
    ]


def _run_aoi(scenario: aoi.AoiScenario, opts: solver.SolveOptions, oracle_val: float | None):
    rates, trace = aoi.run_algorithm1(scenario, opts)
    final = float(trace.records[-1].objective)
    rows = [
        ("final_sum_aoi", final),
        *_mm_rows(aoi.build_aoi_problem(scenario), rates, trace),
        ("baseline_equal_rate_sum_aoi", float(aoi.baseline_equal_rate(scenario)[1])),
        ("baseline_max_rate_sum_aoi", float(aoi.baseline_max_rate(scenario)[1])),
    ]
    if oracle_val is not None:
        rows += [("oracle_sum_aoi", oracle_val), ("oracle_gap_rel", abs(final - oracle_val) / oracle_val)]
    rows += [(f"rate_{k}", float(rates[k])) for k in range(scenario.k)]
    return {"trace.csv": trace}, rows


def _aoi_row(scenario: aoi.AoiScenario, k, opts: solver.SolveOptions) -> list:
    s = dict(_run_aoi(scenario, opts, None)[1])
    alg, equal_val, max_val = s["final_sum_aoi"], s["baseline_equal_rate_sum_aoi"], s["baseline_max_rate_sum_aoi"]
    return [
        scenario.k, float(scenario.mu), alg, equal_val, max_val,
        1 - alg / equal_val, 1 - alg / max_val, s["outer_iterations"],
    ]


def _run_radar(scenario: radar.RadarScenario, opts: solver.SolveOptions, _oracle_val: None):
    """The bound sums at the start and the end with their relative
    reduction, the MM account, each radar's power, and the certificate:
    the scenario's ``crb_lower_bound`` and the final sum's ratio to it."""
    problem = radar.RadarMmProblem(scenario)
    waveforms, trace = problem.solve(opts)
    first, last = trace.objectives[0], trace.objectives[-1]
    floor = radar.crb_lower_bound(scenario)
    rows = [
        ("initial_sum_crb", float(first)), ("final_sum_crb", float(last)), ("reduction", float(1.0 - last / first)),
        *_mm_rows(problem, radar.stack_waveforms(waveforms), trace),
        *((f"power_{m}", float(np.real(np.vdot(s, s)))) for m, s in enumerate(waveforms)),
        ("crb_lower_bound", floor), ("bound_ratio", float(last / floor)),
    ]
    return {"trace.csv": trace}, rows


# the radar sweep.csv columns after p_dbm: keys of the run's summary
_RADAR_SWEEP_KEYS = ("initial_sum_crb", "final_sum_crb", "reduction", "outer_iterations",
                     "stationarity_residual", "crb_lower_bound", "bound_ratio")


def _run_secure(scenario: secure.SecureScenario, opts: solver.SolveOptions, oracle_val: float | None):
    solved = {"direct": secure.run_algorithm3(scenario, opts), "fast": secure.run_algorithm4(scenario, opts)}
    values = {name: secure.weighted_sum_rate(scenario, p) for name, (p, _) in solved.items()}
    problems = {"direct": secure.build_direct_problem(scenario), "fast": secure.build_fast_problem(scenario)}
    rows = []
    for name, (p, trace) in solved.items():
        rows += [
            (f"{name}_objective_nats", float(values[name])),
            (f"{name}_objective_bits", float(nats_to_bits(values[name]))),
            *((f"{name}_{key}", v) for key, v in _mm_rows(problems[name], p, trace)),
            (f"{name}_iters_to_1e-6", solver.iterations_to_relative_convergence(trace, 1e-6)),
        ]
    _, base_val = secure.baseline_max_power_linear_search(scenario)
    rows.append(("baseline_objective_nats", float(base_val)))
    if oracle_val is not None:
        rows.append(("oracle_objective_nats", oracle_val))
        rows += [(f"{name}_oracle_gap_nats", float(abs(v - oracle_val))) for name, v in values.items()]
    rows += [(f"{name}_power_{i}", float(v)) for name, (p, _) in solved.items() for i, v in enumerate(p)]
    return {f"trace_{name}.csv": trace for name, (_, trace) in solved.items()}, rows


def _eta(scenario: secure.SecureScenario, value) -> float:
    """``value`` as an open-cell weight, checked by the scenario itself:
    finite and nonnegative."""
    try:
        eta = real("eta", value)
        scenario.with_weights(eta)
        return eta
    except InvalidInputError as exc:
        raise ConfigError(f"bad eta values: {exc}") from exc


@dataclass(frozen=True)
class _Experiment:
    """What ``run``, ``sweep`` and :func:`validate_config` know of one
    experiment: its scenario keys (key -> required), the builder of its
    model scenario, ``run``'s solve (traces by file name and summary rows,
    given the oracle value), its grid oracle if it has one, the sweep axis,
    the ``sweep.csv`` header with the row of one sweep point, what
    ``sweep`` writes to ``summary.csv`` from all rows, if anything, and the
    solver budgets of a sweep that keeps its own."""

    keys: dict[str, bool]
    build: Callable[[dict], object]
    run: Callable[[object, solver.SolveOptions, float | None], tuple[dict, list[tuple[str, object]]]]
    oracle: Callable[[object], tuple] | None
    axis: str
    header: list[str]
    row: Callable[[object, object, solver.SolveOptions], Sequence]
    summary: Callable[[list], list[tuple[str, object]]] | None = None
    fixed_budgets: str | None = None


# the model functions are looked up at call time, so patching them reaches the CLI
_EXPERIMENTS = {
    "aoi": _Experiment(
        {"k": True, "mu": True}, _build_aoi, _run_aoi, lambda sc: aoi.oracle_grid(sc), "k",
        ["k", "mu", "alg_sum_aoi", "equal_rate_sum_aoi", "max_rate_sum_aoi",
         "reduction_vs_equal", "reduction_vs_max", "outer_iterations"],
        _aoi_row,
    ),
    "radar": _Experiment(
        {"l_samples": True, "n_tx": True, "n_rx": True, "theta_pi": True, "beta": False, "sigma2_dbm": False, "p_dbm": True},
        _build_radar, _run_radar, None, "p_dbm", ["p_dbm", *_RADAR_SWEEP_KEYS],
        lambda sc, p_dbm, opts: [float(p_dbm), *map(dict(_run_radar(sc, opts, None)[1]).get, _RADAR_SWEEP_KEYS)],
    ),
    # the secure sweep is the tradeoff frontier along the open-cell weight
    "secure": _Experiment(
        {"h2": True, "ht2": True, "sigma2_dbm": True, "sigma2_tilde_dbm": True, "p_dbm": True, "w": False},
        _build_secure, _run_secure, lambda sc: secure.oracle_grid_2d(sc), "eta", list(secure.TradeoffPoint._fields),
        lambda sc, eta, _opts: secure.tradeoff_point(sc, eta),
        lambda points: [("points", len(points)), *secure.frontier_facts(points).items()],
        "secure._SWEEP_OPTS for each start and secure._POLISH_OPTS for the best one",
    ),
}


def _start(args, for_sweep: bool):
    """Validated config, its experiment, the solver options and the output
    directory, shared by ``run`` and ``sweep``. Each makes the directory
    once every check has passed, so a config that exits 2 leaves none."""
    cfg = validate_config(load_config(args.config), for_sweep=for_sweep)
    return cfg, _EXPERIMENTS[cfg["experiment"]], _solve_options(cfg), Path(args.out)


def _cmd_run(args) -> int:
    cfg, exp, opts, out = _start(args, for_sweep=False)
    scenario = exp.build(cfg["scenario"])
    oracle_val = _oracle_value(exp.oracle, scenario) if cfg.get("oracle", False) else None
    out.mkdir(parents=True, exist_ok=True)
    traces, rows = exp.run(scenario, opts, oracle_val)
    for name, trace in traces.items():
        _write_trace(out / name, trace)
    _write_summary(out, cfg["experiment"], rows)
    return 0


def _cmd_sweep(args) -> int:
    cfg, exp, opts, out = _start(args, for_sweep=True)
    # a sweep writes only each point's answer, not its trace: extrapolate
    opts = replace(opts, accelerate=True)
    # build every point, and check every value, before solving any
    values = cfg["sweep"][exp.axis]
    if exp.axis in exp.keys:
        points = [(exp.build(dict(cfg["scenario"], **{exp.axis: value})), value) for value in values]
    else:  # eta is no scenario key: the row applies it to the scenario's weights
        scenario = exp.build(cfg["scenario"])
        points = [(scenario, _eta(scenario, value)) for value in values]
        if scenario.k_eavesdropped == scenario.l_cells:
            raise ConfigError("sweep.eta weights the open cells, and this scenario has no open cell: every cell is eavesdropped")
    out.mkdir(parents=True, exist_ok=True)
    rows = [exp.row(scenario, value, opts) for scenario, value in points]
    _write_csv(out / "sweep.csv", exp.header, rows)
    if exp.summary is not None:
        _write_summary(out, cfg["experiment"], exp.summary(rows))
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

    for name, fn, help_text in (
        ("run", _cmd_run, "run one experiment from a config file"),
        ("sweep", _cmd_sweep, "run an experiment along its sweep axis"),
    ):
        p_cmd = sub.add_parser(name, help=help_text)
        p_cmd.add_argument("--config", required=True)
        p_cmd.add_argument("--out", required=True)
        p_cmd.set_defaults(fn=fn)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--suite", default="all", choices=list(verify.SUITES) + ["all"]
    )
    p_verify.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MonotonicityError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MmfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
