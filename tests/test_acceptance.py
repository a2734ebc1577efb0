"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Budgets are wall-clock upper bounds on this suite's
reference hardware class; they are asserted, not merely reported.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from mmfp import aoi, cli, radar, secure, solver, verify
from mmfp.units import nats_to_bits

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {name}: {detail}")


def interp_curve(xs, ys, x: float) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    order = np.argsort(xs)
    return float(np.interp(x, xs[order], ys[order]))


def test_criterion_1_aoi_global_optimality():
    t0 = time.perf_counter()
    scenario = aoi.AoiScenario(k=3, mu=1.0)
    _, trace = aoi.run_algorithm1(scenario)
    _, oracle_val = aoi.oracle_grid(scenario)
    final = trace.records[-1].objective
    gap = abs(final - oracle_val) / oracle_val
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-3 and trace.outer_iterations <= 50 and elapsed < 60.0
    report(
        1,
        "AoI global optimality (K=3)",
        ok,
        f"oracle gap {gap:.2e} (<=1e-3), {trace.outer_iterations} outer iterations (<=50), {elapsed:.1f}s (<60s)",
    )
    assert gap <= 1e-3
    assert trace.outer_iterations <= 50
    assert elapsed < 60.0


def test_criterion_2_aoi_improvement_ratios():
    t0 = time.perf_counter()
    scenario = aoi.AoiScenario(k=10, mu=1.0)
    _, trace = aoi.run_algorithm1(scenario)
    alg = trace.records[-1].objective
    _, equal_val = aoi.baseline_equal_rate(scenario)
    _, max_val = aoi.baseline_max_rate(scenario)
    vs_equal = 1.0 - alg / equal_val
    vs_max = 1.0 - alg / max_val
    elapsed = time.perf_counter() - t0
    ok = 0.35 <= vs_equal <= 0.45 and 0.65 <= vs_max <= 0.75 and elapsed < 120.0
    report(
        2,
        "AoI improvement ratios (K=10)",
        ok,
        f"{100*vs_equal:.1f}% below equal-rate (40+-5), {100*vs_max:.1f}% below max-rate (70+-5), {elapsed:.1f}s (<2min)",
    )
    assert 0.35 <= vs_equal <= 0.45
    assert 0.65 <= vs_max <= 0.75
    assert elapsed < 120.0


def test_criterion_3_secure_global_optimality():
    t0 = time.perf_counter()
    scenario = secure.two_link_benchmark()
    p3, tr3 = secure.run_algorithm3(scenario)
    p4, tr4 = secure.run_algorithm4(scenario)
    _, oracle_val = secure.oracle_grid_2d(scenario)
    gap3 = abs(secure.weighted_sum_rate(scenario, p3) - oracle_val)
    gap4 = abs(secure.weighted_sum_rate(scenario, p4) - oracle_val)
    iters3 = solver.iterations_to_relative_convergence(tr3, 1e-6)
    iters4 = solver.iterations_to_relative_convergence(tr4, 1e-6)
    elapsed = time.perf_counter() - t0
    ok = gap3 <= 1e-3 and gap4 <= 1e-3 and iters3 <= iters4 and elapsed < 120.0
    report(
        3,
        "secure global optimality (L=2, K=2)",
        ok,
        f"oracle gaps {gap3:.2e}/{gap4:.2e} nats (<=1e-3), "
        f"direct {iters3} <= fast {iters4} iterations to 1e-6, {elapsed:.1f}s (<2min)",
    )
    assert gap3 <= 1e-3 and gap4 <= 1e-3
    assert iters3 <= iters4
    assert elapsed < 120.0


def test_criterion_4_secure_tradeoff():
    t0 = time.perf_counter()
    # the shipped sweep: the five-cell scenario and its 26 weights
    cfg = cli.load_config(CONFIGS / "secure_tradeoff.yaml")
    scenario = cli._build_secure(cfg["scenario"])
    etas = cfg["sweep"]["eta"]
    points = [secure.tradeoff_point(scenario, eta) for eta in etas]
    facts = secure.frontier_facts(points)
    monotone = facts["open_rates_nondecreasing"] and facts["secure_rates_nonincreasing"]
    agreement = facts["max_method_gap_bits"]
    dominance = facts["dominates_baseline"]
    opens = [p.fast_open_bits for p in points]
    secures = [p.fast_secure_bits for p in points]
    # qualitative check of the large open-rate gain over the baseline at
    # the 3.4-bits abscissa: both curves interpolated there (the scalarized
    # frontier jumps across it, so nearest-point evaluation is degenerate)
    fp_at = interp_curve(secures, opens, 3.4)
    base_at = interp_curve(
        [p.baseline_secure_bits for p in points], [p.baseline_open_bits for p in points], 3.4
    )
    anecdote = fp_at >= 2.0 * base_at
    elapsed = time.perf_counter() - t0
    ok = monotone and agreement <= 1e-2 and dominance and anecdote and elapsed < 600.0
    report(
        4,
        "secure tradeoff frontier (L=5, K=2)",
        ok,
        f"monotone={monotone}, method agreement {agreement:.2e} bits (<=1e-2), "
        f"dominates baseline={dominance}, open-rate gain at 3.4 bits: {fp_at:.2f} vs {base_at:.2f} "
        f"(ratio {fp_at / max(base_at, 1e-12):.2f} >= 2), {elapsed:.0f}s (<10min)",
    )
    assert monotone
    assert agreement <= 1e-2
    assert dominance
    assert anecdote
    assert elapsed < 600.0


def test_criterion_5_radar_reduction():
    t0 = time.perf_counter()
    scenario = radar.benchmark_scenario(30.0)
    waveforms, trace = radar.run_algorithm2(scenario)
    values = trace.objectives
    monotone = verify.monotone(values, -1.0)
    reduction_ok = values[-1] <= 0.4 * values[0]
    problem = radar.RadarMmProblem(scenario)
    z = radar.stack_waveforms(waveforms)
    resid = solver.stationarity_residual(problem, z)
    f_abs = abs(problem.objective(z))
    stationary = resid <= 1e-5 * (1.0 + f_abs)
    finals = []
    for p_dbm in (10.0, 15.0, 20.0, 25.0, 30.0):
        _, tr = radar.run_algorithm2(radar.benchmark_scenario(p_dbm))
        finals.append(tr.objectives[-1])
    sweep_monotone = bool(np.all(np.diff(finals) <= 1e-12))
    elapsed = time.perf_counter() - t0
    ok = monotone and reduction_ok and stationary and sweep_monotone and elapsed < 900.0
    report(
        5,
        "radar bound reduction (P=30 dBm + sweep)",
        ok,
        f"monotone={monotone}, reduction {100*(1-values[-1]/values[0]):.1f}% (>=60), "
        f"stationarity {resid:.2e} (<= {1e-5*(1+f_abs):.2e}), sweep nonincreasing={sweep_monotone}, "
        f"{elapsed:.0f}s (<15min)",
    )
    assert monotone
    assert reduction_ok
    assert stationary
    assert sweep_monotone
    assert elapsed < 900.0


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    results = verify.run_suite("all")
    failed = [r for r in results if not r.passed]
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 300.0
    report(
        6,
        "property-based verification",
        ok,
        f"{len(results) - len(failed)}/{len(results)} invariants hold, {elapsed:.0f}s (<5min)",
    )
    for r in failed:
        print(f"  failed: [{r.suite}] {r.name}")
    assert not failed
    assert elapsed < 300.0
