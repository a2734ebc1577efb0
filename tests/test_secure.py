import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mmfp import cli, secure, solver, verify
from mmfp.errors import DomainError, InvalidInputError
from mmfp.lagrangian_dual import log_ratio_surrogate
from mmfp.secure import (
    SecureScenario,
    _weighted_sum_rate_batch,
    baseline_max_power_linear_search,
    build_direct_problem,
    build_fast_problem,
    oracle_grid_2d,
    run_algorithm3,
    run_algorithm4,
    secret_rate,
    sweep_start_points,
    tradeoff_point,
    two_link_benchmark,
    weighted_sum_rate,
)
from mmfp.units import dbm_to_mw, nats_to_bits

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def single_link(k_eaves=0, h=1.0, ht=0.5, sigma2=1.0, sigma2_tilde=1.0, p_max=1.0):
    return SecureScenario(
        h2=[[h]],
        ht2=[[ht]] if k_eaves else np.zeros((0, 1)),
        sigma2=sigma2,
        sigma2_tilde=np.full(k_eaves, sigma2_tilde),
        p_max=p_max,
        w=1.0,
    )


class TestRates:
    def test_unit_snr_single_link(self):
        sc = single_link()
        rate = secret_rate(sc, [1.0], 0)
        assert rate == pytest.approx(math.log(2.0))
        assert nats_to_bits(rate) == pytest.approx(1.0)

    def test_identical_channels_give_zero_secrecy(self):
        sc = SecureScenario(
            h2=[[1.0]], ht2=[[1.0]], sigma2=1.0, sigma2_tilde=1.0, p_max=1.0, w=1.0
        )
        assert secret_rate(sc, [0.7], 0) == pytest.approx(0.0)

    def test_leakage_rewrite_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            assert verify.leakage_rewrite(*verify.random_leakage_case(rng))

    def test_leakage_rewrite_checks_the_direct_problem(self, monkeypatch):
        # leakage rows without the own signal in their denominator: the
        # rewrite no longer holds, so the row checks the direct method's
        # live fractions
        sinr_fractions = secure._sinr_fractions

        def own_signal_dropped(sc, whole_row_leakage):
            return sinr_fractions(sc, whole_row_leakage=False)

        monkeypatch.setattr(secure, "_sinr_fractions", own_signal_dropped)
        rng = np.random.default_rng(0)
        failed = 0
        for _ in range(200):
            try:
                failed += not verify.leakage_rewrite(*verify.random_leakage_case(rng))
            except DomainError:  # a ratio at or above 1 under log1m
                failed += 1
        assert failed > 0

    def test_zero_weights_give_zero_objective(self):
        sc = two_link_benchmark().with_weights([0.0, 0.0])
        assert weighted_sum_rate(sc, [5.0, 5.0]) == 0.0


class TestDirectMethod:
    def test_aux_unit_case(self):
        sc = single_link()
        aux = build_direct_problem(sc).update_aux(np.array([1.0]))
        assert aux == pytest.approx([1.0])

    def test_aux_safeguard_at_zero_power(self):
        sc = single_link(k_eaves=1)
        problem = build_direct_problem(sc)
        aux = problem.update_aux(np.array([0.0]))
        assert not problem.outers[1].increasing  # the eavesdropper row
        assert np.all(np.isfinite(aux))

    def test_aux_restores_interior_bracket(self):
        # plugging the update back in gives a min bracket above one, which
        # keeps the log term finite
        rng = np.random.default_rng(1)
        for _ in range(200):
            sc = verify.random_secure_scenario(rng)
            if sc.k_eavesdropped == 0:
                continue
            p = rng.uniform(0.1, sc.p_max, sc.l_cells)
            problem = build_direct_problem(sc)
            y_tilde = problem.update_aux(p)[sc.l_cells:]
            for k in range(sc.k_eavesdropped):
                row = sc.ht2[k]
                total = float(row @ p) + sc.sigma2_tilde[k]
                bracket = 2 * y_tilde[k] * math.sqrt(total) - y_tilde[k] ** 2 * row[k] * p[k]
                assert bracket > 1.0

    def test_surrogate_tight_at_anchor(self):
        sc = two_link_benchmark()
        p = np.array([3.0, 8.0])
        problem = build_direct_problem(sc)
        value, _ = problem.surrogate(p, problem.update_aux(p))
        assert value == pytest.approx(weighted_sum_rate(sc, p), abs=1e-12)

    def test_surrogate_gradient_matches_finite_differences(self):
        # probe near the anchor, where the min-side brackets stay in domain
        sc = two_link_benchmark()
        problem = build_direct_problem(sc)
        anchor = np.array([3.0, 8.0])
        aux = problem.update_aux(anchor)
        p = np.array([3.3, 7.6])
        value, g = problem.surrogate(p, aux)
        assert np.isfinite(value)
        assert verify.gradient_matches(lambda x: problem.surrogate(x, aux)[0], g, p)

    def test_no_eavesdroppers_is_pure_max_fp(self):
        sc = single_link()
        problem = build_direct_problem(sc)
        assert all(outer.increasing for outer in problem.outers)

    def test_single_link_no_eaves_goes_to_cap(self):
        sc = single_link(p_max=4.0)
        p, _ = run_algorithm3(sc)
        assert p[0] == pytest.approx(4.0, abs=1e-8)

    def test_dominated_eavesdropper_shuts_down(self):
        # eavesdropper SNR slope dominates the user's: rate is nonpositive
        # and decreasing, so the optimal power is zero
        sc = single_link(k_eaves=1, h=0.5, ht=2.0, sigma2=1.0, sigma2_tilde=0.5, p_max=3.0)
        p, _ = run_algorithm3(sc, solver.SolveOptions(max_outer=2000))
        assert weighted_sum_rate(sc, p) <= 1e-6
        assert p[0] <= 1e-3 * sc.p_max


class TestFastMethod:
    def test_gamma_values(self):
        sc = single_link()
        aux = build_fast_problem(sc).update_aux(np.array([1.0]))
        assert aux.gamma == pytest.approx([1.0])

    def test_gamma_tilde_zero_power(self):
        sc = single_link(k_eaves=1)
        aux = build_fast_problem(sc).update_aux(np.array([0.0]))
        assert aux.gamma[1:] == pytest.approx([0.0])  # the eavesdropper row

    def test_gamma_tilde_below_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sc = verify.random_secure_scenario(rng)
            p = rng.uniform(0.0, sc.p_max, sc.l_cells)
            gamma_tilde = build_fast_problem(sc).update_aux(p).gamma[sc.l_cells:]
            assert np.all(gamma_tilde >= 0.0) and np.all(gamma_tilde < 1.0)

    def test_objective_fr_tight_at_optimal_gammas(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            sc = verify.random_secure_scenario(rng)
            p = rng.uniform(0.1, sc.p_max, sc.l_cells)
            assert verify.secure_surrogates_tight(sc, p)

    def test_zero_power_zero_objective(self):
        sc = two_link_benchmark()
        p = np.zeros(2)
        assert log_ratio_surrogate(build_fast_problem(sc), p, p) == pytest.approx(0.0)

    def test_full_surrogate_chain(self):
        sc = two_link_benchmark()
        p = np.array([2.0, 7.0])
        problem = build_fast_problem(sc)
        aux = problem.update_aux(p)
        full, _ = problem.surrogate(p, aux)
        assert full == pytest.approx(log_ratio_surrogate(problem, p, p), abs=1e-10)
        assert full == pytest.approx(weighted_sum_rate(sc, p), abs=1e-10)

    def test_subproblem_gradient_matches_finite_differences(self):
        sc = two_link_benchmark()
        problem = build_fast_problem(sc)
        rng = np.random.default_rng(5)
        aux = problem.update_aux(rng.uniform(1.0, 9.0, 2))
        p = rng.uniform(1.0, 9.0, 2)
        _, g = problem.surrogate(p, aux)
        assert verify.gradient_matches(lambda x: problem.surrogate(x, aux)[0], g, p)


class TestAlgorithmsOnBenchmark:
    def test_both_reach_the_grid_oracle(self):
        sc = two_link_benchmark()
        p3, _ = run_algorithm3(sc)
        p4, _ = run_algorithm4(sc)
        _, oracle_val = oracle_grid_2d(sc)
        assert abs(weighted_sum_rate(sc, p3) - oracle_val) <= 1e-3
        assert abs(weighted_sum_rate(sc, p4) - oracle_val) <= 1e-3

    def test_direct_converges_in_fewer_outer_iterations(self):
        sc = two_link_benchmark()
        _, tr3 = run_algorithm3(sc)
        _, tr4 = run_algorithm4(sc)
        i3 = solver.iterations_to_relative_convergence(tr3, 1e-6)
        i4 = solver.iterations_to_relative_convergence(tr4, 1e-6)
        assert i3 <= i4

    def test_traces_monotone(self):
        sc = two_link_benchmark()
        for runner in (run_algorithm3, run_algorithm4):
            _, trace = runner(sc)
            assert verify.monotone(trace.objectives)

    @pytest.mark.xfail(
        reason="ROADMAP item 1: the scale-blind stop ends the run after 1 outer iteration at the "
        "all-max start, 'converged' at 1.6658 nats",
    )
    @pytest.mark.parametrize("runner", [run_algorithm3, run_algorithm4], ids=["direct", "fast"])
    def test_reach_the_peak_power_baseline_at_60_dbm(self, runner):
        # the peak-power baseline silences cell 0 and reaches 3.1049 nats
        sc = dataclasses.replace(two_link_benchmark(), p_max=dbm_to_mw(60.0))
        p, _ = runner(sc)
        _, base_val = baseline_max_power_linear_search(sc)
        assert weighted_sum_rate(sc, p) >= base_val - 1e-9


class TestBaselineAndOracle:
    def test_single_link_baseline_is_cap(self):
        sc = single_link(p_max=2.0)
        p, _ = baseline_max_power_linear_search(sc)
        assert p[0] == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "cells, eavesdropped, first",
        [(1, 0, 0), (1, 1, 0), (2, 0, 1), (2, 2, 1), (3, 0, 1), (3, 3, 3), (4, 2, 2)],
    )
    def test_baseline_tie_takes_the_first_scan_at_level_0(self, cells, eavesdropped, first):
        # with zero weights every candidate ties: the answer is the first
        # group at the cap and the rest at 0
        h2 = np.full((cells, cells), 0.1) + 0.9 * np.eye(cells)
        ht2 = np.full((eavesdropped, cells), 0.1) + 0.4 * np.eye(eavesdropped, cells)
        sc = SecureScenario(h2=h2, ht2=ht2, sigma2=1.0, sigma2_tilde=1.0, p_max=3.0, w=0.0)
        p, v = baseline_max_power_linear_search(sc)
        assert p.tolist() == [3.0] * first + [0.0] * (cells - first) and v == 0.0

    def test_baseline_deterministic(self):
        sc = two_link_benchmark()
        p1, v1 = baseline_max_power_linear_search(sc)
        p2, v2 = baseline_max_power_linear_search(sc)
        assert np.array_equal(p1, p2) and v1 == v2

    def test_algorithm_dominates_baseline(self):
        sc = two_link_benchmark()
        _, base_val = baseline_max_power_linear_search(sc)
        p3, _ = run_algorithm3(sc)
        assert weighted_sum_rate(sc, p3) >= base_val - 1e-9

    def test_oracle_requires_two_cells(self):
        with pytest.raises(InvalidInputError):
            oracle_grid_2d(single_link())

    def test_oracle_no_eavesdropper_symmetric_interference_free(self):
        sc = SecureScenario(
            h2=[[1.0, 0.0], [0.0, 1.0]], ht2=np.zeros((0, 2)),
            sigma2=1.0, sigma2_tilde=np.zeros(0), p_max=2.0, w=1.0,
        )
        p, _ = oracle_grid_2d(sc)
        assert np.allclose(p, [2.0, 2.0])

    def test_oracle_refinement_stable(self):
        # the oracle's value barely moves when its grid is twice as coarse
        sc = two_link_benchmark()
        _, v1 = solver.grid_search(
            0.0, sc.p_max, sc.p_max / 500, 2, lambda rows: _weighted_sum_rate_batch(sc, rows), 1
        )
        _, v2 = oracle_grid_2d(sc)
        assert abs(v1 - v2) <= 1e-5


    @staticmethod
    def _rows_of_two_or_more(monkeypatch, rows_seen):
        """Make every rate evaluation fail the test on a single row, whose
        value rounds differently, and tally the rows it gets."""

        def checked(sc, rows, lo_rows=None):
            if lo_rows is None:
                assert len(rows) >= 2, "rates evaluated on a single row"
                rows_seen.append(len(rows))
            return _weighted_sum_rate_batch(sc, rows, lo_rows)

        monkeypatch.setattr(secure, "_weighted_sum_rate_batch", checked)

    def test_oracle_matches_a_full_grid_scan_bitwise(self, monkeypatch):
        def scan(sc, axes):
            g0, g1 = np.meshgrid(*axes, indexing="ij")
            batch = np.column_stack([g0.ravel(), g1.ravel()])
            values = _weighted_sum_rate_batch(sc, batch)
            return batch[int(np.argmax(values))], float(values.max())

        # the shipped config, the two-link benchmark across its powers, ties
        # (one or both weights zero, no eavesdropper and no interference) and
        # seeded random draws
        shipped = cli._build_secure(cli.load_config(CONFIGS / "secure.yaml")["scenario"])
        bench = two_link_benchmark()
        cases = [shipped] + [dataclasses.replace(bench, p_max=dbm_to_mw(d)) for d in (-20, 0, 5, 15, 20, 30, 40, 60)]
        cases += [bench.with_weights([1.0, 0.0]), bench.with_weights([0.0, 0.0])]
        cases.append(SecureScenario(
            h2=np.eye(2), ht2=np.zeros((0, 2)), sigma2=1.0, sigma2_tilde=np.zeros(0), p_max=2.0, w=1.0,
        ))
        rng = np.random.default_rng(11)
        while len(cases) < 32:
            sc = verify.random_secure_scenario(rng)
            if sc.l_cells == 2:
                cases.append(sc)
        self._rows_of_two_or_more(monkeypatch, [])
        for sc in cases:
            # 1,001 powers per cell from 0 to p_max, then one refinement
            step = sc.p_max / 1000
            want_p, want_v = scan(sc, [np.arange(0.0, sc.p_max + step / 2, step)] * 2)
            ref_p, ref_v = scan(sc, [np.clip(c + step / 10 * np.arange(-10, 11), 0.0, sc.p_max) for c in want_p])
            if ref_v > want_v:
                want_p, want_v = ref_p, ref_v
            p, v = oracle_grid_2d(sc)
            assert p.tobytes() == want_p.tobytes()
            assert v == want_v

    def test_oracle_scans_a_tie_everywhere_once(self, monkeypatch):
        # with both weights zero no box can be pruned: the rows evaluated
        # stay within 5% of the 1,001^2 grid and the 21^2 refinement
        rows_seen = []
        self._rows_of_two_or_more(monkeypatch, rows_seen)
        p, v = oracle_grid_2d(two_link_benchmark().with_weights([0.0, 0.0]))
        assert p.tolist() == [0.0, 0.0] and v == 0.0
        assert sum(rows_seen) <= 1.05 * (1001**2 + 21**2)

    def test_oracle_scans_in_bounded_memory(self):
        # one full-grid batch of the 1001 x 1001 scan peaks near 140 MB;
        # with both weights zero every value ties and nothing is pruned
        for w in ([1.0, 1.0], [0.0, 0.0]):
            tracemalloc.start()
            try:
                oracle_grid_2d(two_link_benchmark().with_weights(w))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20


def five_cells():
    """The shipped tradeoff sweep's five-cell scenario, read from its config."""
    return cli._build_secure(cli.load_config(CONFIGS / "secure_tradeoff.yaml")["scenario"])


class TestTradeoffSweep:
    def test_start_points_cover_structured_corners(self):
        sc = five_cells()
        starts = sweep_start_points(sc)
        cap = sc.p_max
        as_tuples = {tuple(np.round(s, 9)) for s in starts}
        assert tuple([cap] * 5) in as_tuples
        assert (cap, cap, 0.0, 0.0, 0.0) in as_tuples
        assert (0.0, cap, 0.0, 0.0, 0.0) in as_tuples

    def test_three_point_sweep_properties(self):
        sc = five_cells()
        pts = [tradeoff_point(sc, eta) for eta in (0.01, 1.0, 100.0)]
        opens = [p.fast_open_bits for p in pts]
        secures = [p.fast_secure_bits for p in pts]
        assert np.all(np.diff(opens) >= -1e-9)
        assert np.all(np.diff(secures) <= 1e-9)
        for p in pts:
            assert p.fast_objective_nats >= p.baseline_objective_nats - 1e-9
            assert p.direct_objective_nats >= p.baseline_objective_nats - 1e-9
            assert abs(p.fast_secure_bits - p.direct_secure_bits) <= 1e-2
            assert abs(p.fast_open_bits - p.direct_open_bits) <= 1e-2

    def test_one_point_builds_each_problem_and_the_start_set_once(self, monkeypatch):
        calls = dict.fromkeys(
            ["build_fast_problem", "build_direct_problem", "sweep_start_points",
             "baseline_max_power_linear_search", "run_mm"], 0,
        )

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(secure, name, counted(name, getattr(secure, name)))
        tradeoff_point(five_cells(), 1.0)
        assert calls["build_fast_problem"] == calls["build_direct_problem"] == calls["sweep_start_points"] == 1
        # once for the start set's argmax start, once for the baseline row
        assert calls["baseline_max_power_linear_search"] <= 2
        # seven per method: six distinct starts, then the polish
        assert calls["run_mm"] == 14


class TestRateSplit:
    @staticmethod
    def _left_to_right(rates):
        total = 0.0
        for r in rates:
            total += r
        return nats_to_bits(total)

    def test_sums_left_to_right_on_the_five_cell_config(self):
        sc = five_cells()
        k = sc.k_eavesdropped
        rng = np.random.default_rng(12)
        points = [*sweep_start_points(sc), *(rng.uniform(0.0, sc.p_max, sc.l_cells) for _ in range(50))]
        for p in points:
            rates = secure._rates(sc, p[None])[0].tolist()
            want = (self._left_to_right(rates[:k]), self._left_to_right(rates[k:]))
            assert secure._rate_split(sc, p) == want

    def test_is_not_a_compensated_sum(self, monkeypatch):
        # left to right, 1e16 + 1.0 rounds back to 1e16 and the open cells
        # sum to 0.0; a compensated sum (builtin sum from Python 3.12) gives 1.0
        monkeypatch.setattr(secure, "_rates", lambda scenario, p: np.array([[1.0, 2.0, 1e16, 1.0, -1e16]]))
        assert secure._rate_split(five_cells(), np.zeros(5)) == (nats_to_bits(3.0), 0.0)


def test_both_problems_have_the_weighted_sum_rate_as_objective():
    # some cells carry zero weight and some transmit at zero power
    rng = np.random.default_rng(9)
    for _ in range(200):
        sc = verify.random_secure_scenario(rng)
        sc = sc.with_weights(np.where(rng.random(sc.l_cells) < 0.3, 0.0, sc.w))
        p = rng.uniform(0.0, sc.p_max, sc.l_cells)
        p[rng.random(sc.l_cells) < 0.2] = 0.0
        ws = weighted_sum_rate(sc, p)
        tol = 1e-12 * (1 + abs(ws))
        assert build_direct_problem(sc).objective(p) == pytest.approx(ws, abs=tol)
        assert build_fast_problem(sc).objective(p) == pytest.approx(ws, abs=tol)


@pytest.mark.parametrize("build", [build_direct_problem, build_fast_problem], ids=["direct", "fast"])
def test_surrogate_tight_at_a_silent_cell(build):
    # cell 0 transmits nothing, so its eavesdropper row has a zero numerator
    sc = two_link_benchmark()
    p = np.array([0.0, 1.0])
    problem = build(sc)
    aux = problem.update_aux(p)
    parts = [aux] if isinstance(aux, np.ndarray) else [aux.gamma, aux.y, aux.const]
    assert all(np.all(np.isfinite(v)) for v in parts)
    value, _ = problem.surrogate(p, aux)
    assert abs(value - problem.objective(p)) <= 1e-9


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        SecureScenario(h2=[[0.0]], ht2=np.zeros((0, 1)), sigma2=1.0,
                       sigma2_tilde=np.zeros(0), p_max=1.0, w=1.0)
    with pytest.raises(InvalidInputError):
        SecureScenario(h2=[[1.0]], ht2=np.zeros((0, 1)), sigma2=-1.0,
                       sigma2_tilde=np.zeros(0), p_max=1.0, w=1.0)
    with pytest.raises(InvalidInputError):
        SecureScenario(h2=[[1.0]], ht2=[[0.5], [0.5]], sigma2=1.0,
                       sigma2_tilde=[1.0, 1.0], p_max=1.0, w=1.0)
