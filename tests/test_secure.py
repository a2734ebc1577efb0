import math
import tracemalloc

import numpy as np
import pytest

from mmfp import solver, verify
from mmfp.errors import InvalidInputError
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
    tradeoff_sweep,
    two_link_benchmark,
    five_link_benchmark,
    weighted_sum_rate,
)
from mmfp.units import nats_to_bits


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
        value, _ = problem.surrogate(p, problem.update_aux(p, eps=0.0))
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


class TestBaselineAndOracle:
    def test_single_link_baseline_is_cap(self):
        sc = single_link(p_max=2.0)
        p, _ = baseline_max_power_linear_search(sc)
        assert p[0] == pytest.approx(2.0)

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
        sc = two_link_benchmark()
        _, v1 = oracle_grid_2d(sc, step=sc.p_max / 500)
        _, v2 = oracle_grid_2d(sc)
        assert abs(v1 - v2) <= 1e-5


    def test_oracle_matches_a_full_grid_scan_bitwise(self):
        def full_grid_oracle(sc, step):
            def scan(center, half_width, local_step):
                offsets = np.arange(-half_width, half_width + local_step / 2, local_step)
                g0, g1 = np.meshgrid(
                    *(np.unique(np.clip(c + offsets, 0.0, sc.p_max)) for c in center), indexing="ij"
                )
                batch = np.column_stack([g0.ravel(), g1.ravel()])
                values = _weighted_sum_rate_batch(sc, batch)
                return batch[int(np.argmax(values))], float(values.max())

            best_p, best_v = scan(np.full(2, sc.p_max / 2), sc.p_max / 2, step)
            ref_p, ref_v = scan(best_p, step, step / 10.0)
            return (ref_p, ref_v) if ref_v > best_v else (best_p, best_v)

        rng = np.random.default_rng(11)
        cases = [(two_link_benchmark(), None)]
        for _ in range(4):
            sc = verify.random_secure_scenario(rng)
            while sc.l_cells != 2:
                sc = verify.random_secure_scenario(rng)
            cases.append((sc, sc.p_max / float(rng.integers(50, 300))))
        for sc, step in cases:
            p, v = oracle_grid_2d(sc, step)
            want_p, want_v = full_grid_oracle(sc, step if step is not None else sc.p_max / 1000.0)
            assert p.tobytes() == want_p.tobytes()
            assert v == want_v

    def test_oracle_scans_in_bounded_memory(self):
        # one full-grid batch of the 1001 x 1001 scan peaks near 140 MB
        tracemalloc.start()
        try:
            oracle_grid_2d(two_link_benchmark())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTradeoffSweep:
    def test_start_points_cover_structured_corners(self):
        sc = five_link_benchmark()
        starts = sweep_start_points(sc)
        cap = sc.p_max
        as_tuples = {tuple(np.round(s, 9)) for s in starts}
        assert tuple([cap] * 5) in as_tuples
        assert (cap, cap, 0.0, 0.0, 0.0) in as_tuples
        assert (0.0, cap, 0.0, 0.0, 0.0) in as_tuples

    def test_three_point_sweep_properties(self):
        sc = five_link_benchmark()
        pts = tradeoff_sweep(sc, [0.01, 1.0, 100.0])
        opens = [p.fast_open for p in pts]
        secures = [p.fast_secure for p in pts]
        assert np.all(np.diff(opens) >= -1e-9)
        assert np.all(np.diff(secures) <= 1e-9)
        for p in pts:
            assert p.fast_objective_nats >= p.baseline_objective_nats - 1e-9
            assert p.direct_objective_nats >= p.baseline_objective_nats - 1e-9
            assert abs(p.fast_secure - p.direct_secure) <= 1e-2
            assert abs(p.fast_open - p.direct_open) <= 1e-2


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
