import math

import numpy as np
import pytest

from mmfp import solver, verify
from mmfp.errors import DomainError, InvalidInputError
from mmfp.radar import (
    RadarMmProblem,
    RadarScenario,
    benchmark_scenario,
    response_derivative,
    response_matrix,
    run_algorithm2,
    stack_waveforms,
    steering_derivative,
    steering_vector,
    sum_crb,
    unstack_waveforms,
)


def tiny_scenario(theta=(0.0,), n_tx=(1,), n_rx=(2,), sigma2=(1.0,), power=(1.0,), l_samples=1):
    m = len(n_tx)
    beta = tuple(tuple(1.0 + 0.0j for _ in range(m)) for _ in range(m))
    return RadarScenario(
        n_tx=n_tx, n_rx=n_rx, theta=theta, beta=beta,
        sigma2=sigma2, power=power, l_samples=l_samples,
    )


def two_radar_scenario():
    return RadarScenario(
        n_tx=(2, 2), n_rx=(3, 2), theta=(0.4, 1.1),
        beta=((1.0, 0.6 + 0.2j), (0.5 - 0.1j, 1.0)),
        sigma2=(1.0, 0.8), power=(5.0, 4.0), l_samples=2,
    )


class TestSteering:
    def test_broadside(self):
        assert np.allclose(steering_vector(3, 0.0), [1, 1, 1])

    def test_endfire(self):
        assert np.allclose(steering_vector(2, math.pi / 2), [1, -1])

    def test_single_antenna(self):
        assert np.allclose(steering_vector(1, 0.7), [1])
        assert np.allclose(steering_derivative(1, 0.7), [0])

    def test_unit_modulus_and_leading_one(self):
        a = steering_vector(5, 0.9)
        assert a[0] == 1.0
        assert np.allclose(np.abs(a), 1.0)

    def test_derivative_at_endfire_vanishes(self):
        assert np.allclose(steering_derivative(2, math.pi / 2), [0, 0], atol=1e-12)

    def test_derivative_at_broadside(self):
        assert np.allclose(steering_derivative(2, 0.0), [0, -1j * math.pi])

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            theta = float(rng.uniform(-1.2, 1.2))
            assert verify.steering_derivative_matches(n, theta)


class TestResponse:
    def test_scalar(self):
        sc = tiny_scenario(n_rx=(1,))
        sc2 = RadarScenario(
            n_tx=(1,), n_rx=(1,), theta=(0.0,), beta=((2.0,),),
            sigma2=(1.0,), power=(1.0,), l_samples=1,
        )
        assert np.allclose(response_matrix(sc2, 0, 0), [[2.0]])

    def test_broadside_all_ones(self):
        sc = tiny_scenario(theta=(0.0, 0.0), n_tx=(2, 2), n_rx=(2, 2),
                           sigma2=(1.0, 1.0), power=(1.0, 1.0))
        assert np.allclose(response_matrix(sc, 0, 1), np.ones((2, 2)))

    def test_rank_one(self):
        sc = two_radar_scenario()
        for m in range(2):
            for mp in range(2):
                assert np.linalg.matrix_rank(response_matrix(sc, m, mp)) == 1

    def test_derivative_single_antenna_is_zero(self):
        sc = tiny_scenario(n_rx=(1,))
        assert np.allclose(response_derivative(sc, 0), [[0.0]])

    def test_derivative_vanishes_at_endfire(self):
        sc = tiny_scenario(theta=(math.pi / 2,), n_tx=(2,), n_rx=(2,))
        assert np.allclose(response_derivative(sc, 0), np.zeros((2, 2)), atol=1e-12)

    def test_derivative_matches_finite_difference(self):
        sc = two_radar_scenario()
        for m in range(2):
            assert verify.response_derivative_matches(sc, m)


def rank1_lifts(waveforms):
    """The lift variables ``s s^H`` at which the lifted covariance is the
    interference-plus-noise covariance of the waveforms."""
    return [np.outer(s, s.conj()) for s in waveforms]


class TestCovariance:
    def test_single_radar_is_noise_only(self):
        s = [np.array([1.0 + 0j])]
        K = RadarMmProblem(tiny_scenario()).covariance(s, 0, rank1_lifts(s))
        assert np.allclose(K, np.eye(2))

    def test_zero_waveforms(self):
        sc = two_radar_scenario()
        waveforms = [np.zeros(sc.waveform_length(m), dtype=complex) for m in range(2)]
        K = RadarMmProblem(sc).covariance(waveforms, 0, rank1_lifts(waveforms))
        assert np.allclose(K, sc.sigma2[0] * np.eye(K.shape[0]))

    def test_positive_definite_with_interference(self):
        sc = two_radar_scenario()
        rng = np.random.default_rng(1)
        waveforms = [
            rng.standard_normal(sc.waveform_length(m)) + 1j * rng.standard_normal(sc.waveform_length(m))
            for m in range(2)
        ]
        K = RadarMmProblem(sc).covariance(waveforms, 1, rank1_lifts(waveforms))
        assert np.linalg.eigvalsh(K).min() >= sc.sigma2[1] - 1e-12


class TestFisherInformation:
    def test_hand_evaluated_two_element_array(self):
        problem = RadarMmProblem(tiny_scenario())
        s = [np.array([1.0 + 0j])]
        assert problem.fisher(s, 0) == pytest.approx(2 * math.pi**2)
        assert problem.sum_crb(s) == pytest.approx(1.0 / (2 * math.pi**2))

    def test_zero_derivative_gives_infinite_bound(self):
        # single-antenna arrays have a constant response: the angle
        # derivative is exactly zero
        problem = RadarMmProblem(tiny_scenario(n_rx=(1,)))
        s = [np.array([1.0 + 0j])]
        assert problem.fisher(s, 0) == 0.0
        assert problem.sum_crb(s) == math.inf

    def test_endfire_bound_is_effectively_infinite(self):
        # cos(pi/2) is 6e-17 in floats, so the curvature is astronomically
        # small rather than exactly zero
        sc = tiny_scenario(theta=(math.pi / 2,))
        s = [np.array([1.0 + 0j])]
        assert sum_crb(sc, s) > 1e25

    def test_quadratic_power_scaling_without_interference(self):
        problem = RadarMmProblem(tiny_scenario(power=(100.0,)))
        j1 = problem.fisher([np.array([1.0 + 0j])], 0)
        j2 = problem.fisher([np.array([3.0 + 0j])], 0)
        assert j2 == pytest.approx(9.0 * j1)


class TestAuxAndSubproblem:
    def test_aux_single_radar(self):
        sc = tiny_scenario()
        s = [np.array([1.0 + 0j])]
        y = RadarMmProblem(sc).update_aux(stack_waveforms(s)).Y[0]
        d = np.kron(np.eye(1), response_derivative(sc, 0))
        assert np.allclose(y, (d @ s[0]) / sc.sigma2[0])

    def test_aux_matches_matrix_module_auxiliary(self):
        # Y = K^{-1} v is the width-1 case of the matrix auxiliary B^{-1} sqrtA
        from mmfp import fp_matrix

        sc = two_radar_scenario()
        rng = np.random.default_rng(7)
        waveforms = [
            rng.standard_normal(sc.waveform_length(m)) + 1j * rng.standard_normal(sc.waveform_length(m))
            for m in range(2)
        ]
        problem = RadarMmProblem(sc)
        aux = problem.update_aux(stack_waveforms(waveforms))
        for m in range(2):
            y = aux.Y[m]
            v = np.kron(np.eye(sc.l_samples), response_derivative(sc, m)) @ waveforms[m]
            k_mat = problem.covariance(waveforms, m, rank1_lifts(waveforms))
            y_matrix = fp_matrix.opt_y(v[:, None], k_mat)
            assert np.allclose(y[:, None], y_matrix, atol=1e-12)

    def test_bracket_equals_half_curvature_at_update(self):
        sc = two_radar_scenario()
        rng = np.random.default_rng(2)
        waveforms = [
            (rng.standard_normal(sc.waveform_length(m)) + 1j * rng.standard_normal(sc.waveform_length(m)))
            for m in range(2)
        ]
        assert verify.bracket_is_half_curvature(sc, waveforms)
        problem = RadarMmProblem(sc)
        aux = problem.update_aux(stack_waveforms(waveforms))
        value, _ = problem.surrogate(stack_waveforms(waveforms), aux)
        assert value == pytest.approx(-problem.sum_crb(waveforms), rel=1e-10)

    def test_bracket_away_from_anchor_equals_matrix_q_plus(self):
        # the hand-coded bracket is the width-1 matrix max-side bracket
        # Re q_plus(D_m s_m, K_m(s), Y_m(anchor)) at any waveforms s
        from mmfp import fp_matrix

        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            sc = verify.random_radar_scenario(rng)
            problem = RadarMmProblem(sc)
            anchor, z = (
                problem.feasible.project(rng.standard_normal(problem.total_real_dim))
                for _ in range(2)
            )
            aux = problem.update_aux(anchor)
            waveforms = problem.split(z)
            q, _ = problem._brackets(waveforms, aux)
            for m in range(sc.m_radars):
                v = np.kron(np.eye(sc.l_samples), response_derivative(sc, m)) @ waveforms[m]
                k_mat = problem.covariance(waveforms, m, rank1_lifts(waveforms))
                y = aux.Y[m][:, None]
                ref = fp_matrix.q_plus(v[:, None], k_mat, y)[0, 0].real
                scale = 2 * abs(np.vdot(y, v)) + np.vdot(y, k_mat @ y).real
                assert abs(q[m] - ref) <= 1e-12 * scale
                checked += 1
        assert checked >= 200

    def test_surrogate_equals_the_two_pass_formula_bitwise(self):
        # each cross inner product is computed once and reused by the
        # brackets and the gradient; the answer must not move by one bit
        rng = np.random.default_rng(6)
        for sc in [benchmark_scenario()] * 5 + [verify.random_radar_scenario(rng) for _ in range(100)]:
            problem = RadarMmProblem(sc)
            dim = problem.total_real_dim
            anchor = problem.feasible.project(rng.standard_normal(dim))
            z = problem.feasible.project(anchor + 0.1 * rng.standard_normal(dim))
            aux = problem.update_aux(anchor)
            waveforms = problem.split(z)
            q, _ = problem._brackets(waveforms, aux)
            value, grad = problem.surrogate(z, aux)
            weights = 0.5 / (q * q)
            grad_c = [weights[m] * aux.affine[m] for m in range(sc.m_radars)]
            for m in range(sc.m_radars):
                for mp in range(sc.m_radars):
                    if mp != m:
                        a = aux.cross[m][mp]
                        grad_c[mp] = grad_c[mp] - weights[m] * a * np.vdot(a, waveforms[mp])
            want = np.concatenate([np.concatenate([2.0 * c.real, 2.0 * c.imag]) for c in grad_c])
            assert value == float(np.sum(-0.5 / q))
            assert grad.tobytes() == want.tobytes()

    def test_subproblem_gradient_matches_finite_differences(self):
        sc = two_radar_scenario()
        problem = RadarMmProblem(sc)
        rng = np.random.default_rng(3)
        z = problem.feasible.project(rng.standard_normal(problem.total_real_dim))
        aux = problem.update_aux(z)
        _, g = problem.surrogate(z, aux)
        assert verify.gradient_matches(lambda t: problem.surrogate(t, aux)[0], g, z)
        # at its own anchor the surrogate's gradient is the objective's
        rng = np.random.default_rng(11)
        for _ in range(30):
            problem = RadarMmProblem(verify.random_radar_scenario(rng))
            z = problem.feasible.project(rng.standard_normal(problem.total_real_dim))
            g_fd = solver.central_diff_grad(problem.objective, z)
            g = problem.objective_grad(z)
            assert np.max(np.abs(g - g_fd)) <= 1e-6 * np.max(np.abs(g_fd))

    def test_rejects_nonpositive_bracket(self):
        sc = two_radar_scenario()
        problem = RadarMmProblem(sc)
        rng = np.random.default_rng(4)
        z = problem.feasible.project(rng.standard_normal(problem.total_real_dim))
        aux = problem.update_aux(z)
        value, grad = problem.surrogate(np.zeros_like(z), aux)
        assert value == -math.inf and grad is None
        with pytest.raises(DomainError):
            problem.objective_grad(np.zeros_like(z))


class TestAlgorithm2:
    def test_single_radar_matches_eigen_oracle(self):
        sc = tiny_scenario(n_tx=(4,), n_rx=(6,), theta=(math.pi / 6,), power=(100.0,))
        opts = solver.SolveOptions(outer_tol=1e-13, inner_tol=1e-13, max_outer=3000)
        waveforms, trace = run_algorithm2(sc, opts)
        s = waveforms[0]
        d = np.kron(np.eye(1), response_derivative(sc, 0))
        w, U = np.linalg.eigh(d.conj().T @ d)
        align = abs(np.vdot(U[:, -1], s)) / np.linalg.norm(s)
        assert align >= 1.0 - 1e-9
        assert np.real(np.vdot(s, s)) == pytest.approx(100.0, rel=1e-9)
        j_max = 2.0 * w[-1] * 100.0 / sc.sigma2[0]
        assert RadarMmProblem(sc).fisher(waveforms, 0) == pytest.approx(j_max, rel=1e-9)

    def test_trace_monotone_and_powers_saturate(self):
        sc = two_radar_scenario()
        waveforms, trace = run_algorithm2(sc)
        assert verify.monotone(trace.objectives, -1.0)
        for m, s in enumerate(waveforms):
            assert np.real(np.vdot(s, s)) <= sc.power[m] + 1e-9

    def test_lift_consistency_at_solution(self):
        sc = two_radar_scenario()
        waveforms, _ = run_algorithm2(sc)
        assert verify.lift_reproduces_objective(sc, waveforms)


class TestStackHelpers:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        waveforms = [rng.standard_normal(3) + 1j * rng.standard_normal(3),
                     rng.standard_normal(5) + 1j * rng.standard_normal(5)]
        z = stack_waveforms(waveforms)
        back = unstack_waveforms(z, [3, 5])
        for a, b in zip(waveforms, back):
            assert np.allclose(a, b)

    def test_initial_waveforms_are_feasible_and_nondegenerate(self):
        sc = benchmark_scenario(30.0)
        waveforms = RadarMmProblem(sc).initial_waveforms()
        for m, s in enumerate(waveforms):
            assert np.real(np.vdot(s, s)) <= sc.power[m] + 1e-9
            d = np.kron(np.eye(sc.l_samples), response_derivative(sc, m))
            assert np.linalg.norm(d @ s) > 0


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        tiny_scenario(sigma2=(0.0,))
    with pytest.raises(InvalidInputError):
        RadarScenario(n_tx=(1, 1), n_rx=(1,), theta=(0.0,), beta=((1.0,),),
                      sigma2=(1.0,), power=(1.0,), l_samples=1)
