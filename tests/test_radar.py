import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mmfp import solver, verify
from mmfp.errors import DomainError, InvalidInputError
from mmfp.radar import (
    RadarMmProblem,
    RadarScenario,
    _top_eigenpair,
    benchmark_scenario,
    crb_lower_bound,
    flat_waveforms,
    response_derivative,
    response_matrix,
    run_algorithm2,
    stack_waveforms,
    steering_derivative,
    steering_vector,
    sum_crb,
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


def mm_from_flat(sc, opts=None):
    """Waveforms and bound-sum trace of MM from the flat start, checked to
    have climbed. :func:`run_algorithm2` starts at the bound when L >= M,
    as always at M = 1, and then maps once."""
    problem = RadarMmProblem(sc)
    z, trace = solver.run_mm(problem, stack_waveforms(flat_waveforms(sc)), opts or solver.SolveOptions())
    trace = trace.negated()
    assert trace.outer_iterations > 2 and trace.objectives[-1] < trace.objectives[0]
    return problem.split(z), trace


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
        # one receive antenna on radar 0 and one transmit antenna on radar 1:
        # the cross response from 1 into 0 is 1 x 1
        sc = RadarScenario(
            n_tx=(2, 1), n_rx=(1, 2), theta=(0.0, 0.0), beta=((1.0, 2.0), (1.0, 1.0)),
            sigma2=(1.0, 1.0), power=(1.0, 1.0), l_samples=1,
        )
        assert np.allclose(response_matrix(sc, 0, 1), [[2.0]])

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
        # a constant response: the scenario refuses the radar
        with pytest.raises(InvalidInputError, match="angle derivative of radar 0's response is zero"):
            tiny_scenario(n_rx=(1,))

    def test_derivative_vanishes_at_endfire(self):
        with pytest.raises(InvalidInputError, match="angle derivative of radar 0's response is zero"):
            tiny_scenario(theta=(math.pi / 2,), n_tx=(2,), n_rx=(2,))

    def test_derivative_matches_finite_difference(self):
        sc = two_radar_scenario()
        for m in range(2):
            assert verify.response_derivative_matches(sc, m)


def random_large_scenario(rng, m):
    """M radars with unequal array sizes in 1..16 and L in 1..8, wider than
    :func:`verify.random_radar_scenario` draws. A draw the scenario refuses
    (a radar with one antenna on both arrays) is drawn again."""
    while True:
        try:
            return RadarScenario(
                n_tx=tuple(int(v) for v in rng.integers(1, 17, m)),
                n_rx=tuple(int(v) for v in rng.integers(1, 17, m)),
                theta=tuple(float(v) for v in rng.uniform(0.1, 1.3, m)),
                beta=tuple(
                    tuple(complex(*rng.uniform([0.3, -0.5], [1.5, 0.5])) for _ in range(m)) for _ in range(m)
                ),
                sigma2=tuple(float(v) for v in rng.uniform(0.5, 2.0, m)),
                power=tuple(float(v) for v in 10 ** rng.uniform(-1, 2, m)),
                l_samples=int(rng.integers(1, 9)),
            )
        except InvalidInputError:
            pass


def per_pair_surrogate(problem, aux, z):
    """Brackets, value and gradient pair by pair: one ``np.vdot`` per pair,
    scalar ``abs(d) ** 2`` and every subtraction in ascending radar order."""
    waveforms = problem.split(z)
    radars = range(len(waveforms))
    lifts = [problem.lifts(m) for m in radars]
    affine = [d.conj().T @ aux.Y[m] for m, (d, _) in enumerate(lifts)]
    cross = [{mp: t.conj().T @ aux.Y[m] for mp, t in lifts[m][1].items()} for m in radars]
    dots = [{mp: np.vdot(a, waveforms[mp]) for mp, a in cross[m].items()} for m in radars]
    q = np.empty(len(waveforms))
    for m in radars:
        q[m] = 2.0 * float(np.real(np.vdot(affine[m], waveforms[m]))) - aux.noise[m]
        for d in dots[m].values():
            q[m] -= abs(d) ** 2
    weights = 0.5 / (q * q)
    grad_c = [weights[m] * affine[m] for m in radars]
    for m in radars:
        for mp, a in cross[m].items():
            grad_c[mp] = grad_c[mp] - weights[m] * a * dots[m][mp]
    return q, float(np.sum(-0.5 / q)), 2.0 * stack_waveforms(grad_c)


class TestCovariance:
    def test_single_radar_is_noise_only(self):
        s = [np.array([1.0 + 0j])]
        K = RadarMmProblem(tiny_scenario()).covariance(s, 0)
        assert np.allclose(K, np.eye(2))

    def test_zero_waveforms(self):
        sc = two_radar_scenario()
        waveforms = [np.zeros(sc.waveform_length(m), dtype=complex) for m in range(2)]
        K = RadarMmProblem(sc).covariance(waveforms, 0)
        assert np.allclose(K, sc.sigma2[0] * np.eye(K.shape[0]))

    def test_positive_definite_with_interference(self):
        sc = two_radar_scenario()
        waveforms = verify.random_waveforms(np.random.default_rng(1), sc)
        K = RadarMmProblem(sc).covariance(waveforms, 1)
        assert np.linalg.eigvalsh(K).min() >= sc.sigma2[1] - 1e-12


class TestFisherInformation:
    def test_hand_evaluated_two_element_array(self):
        problem = RadarMmProblem(tiny_scenario())
        s = [np.array([1.0 + 0j])]
        assert problem.fisher(s, 0) == pytest.approx(2 * math.pi**2)
        assert problem.sum_crb(s) == pytest.approx(1.0 / (2 * math.pi**2))

    def test_zero_derivative_gives_infinite_bound(self):
        # single-antenna arrays have a constant response: the angle
        # derivative is exactly zero, and the scenario refuses the radar
        with pytest.raises(InvalidInputError, match="angle derivative of radar 0's response is zero"):
            tiny_scenario(n_rx=(1,))
        # a zero waveform has a zero derivative signal
        problem = RadarMmProblem(tiny_scenario())
        s = [np.array([0j])]
        assert problem.fisher(s, 0) == 0.0
        assert problem.sum_crb(s) == math.inf

    def test_endfire_bound_is_effectively_infinite(self):
        # cos(pi/2) is 6e-17 in floats, so the curvature would be
        # astronomically small rather than exactly zero: refused as zero
        with pytest.raises(InvalidInputError, match="angle derivative of radar 0's response is zero"):
            tiny_scenario(theta=(math.pi / 2,))

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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_bound_and_auxiliaries_equal_the_dense_solve_bitwise(self, m):
        # fisher, sum_crb and update_aux share one solve; each must be the
        # dense per-radar K_m^{-1} D_m s_m to the bit. Every other draw
        # would give radar 0 one antenna on each array, a zero derivative
        # signal, which the scenario refuses
        rng = np.random.default_rng(40 + m)
        for draw in range(6):
            sc = random_large_scenario(rng, m)
            if draw % 2:
                with pytest.raises(InvalidInputError, match="angle derivative of radar 0's response is zero"):
                    replace(sc, n_tx=(1, *sc.n_tx[1:]), n_rx=(1, *sc.n_rx[1:]))
            problem = RadarMmProblem(sc)
            waveforms = verify.random_waveforms(rng, sc)
            aux = problem.update_aux(stack_waveforms(waveforms))
            bound = 0.0
            for r in range(m):
                v = problem.lifts(r)[0] @ waveforms[r]
                y = np.linalg.solve(problem.covariance(waveforms, r), v)
                j = 2.0 * float(np.real(v.conj() @ y))
                assert aux.Y[r].tobytes() == y.tobytes()
                assert problem.fisher(waveforms, r) == j
                bound = bound + 1.0 / j if j > 0.0 else math.inf
            assert problem.sum_crb(waveforms) == bound

    def test_aux_matches_matrix_module_auxiliary(self):
        # Y = K^{-1} v is the width-1 case of the matrix auxiliary B^{-1} sqrtA
        from mmfp import fp_matrix

        sc = two_radar_scenario()
        waveforms = verify.random_waveforms(np.random.default_rng(7), sc)
        problem = RadarMmProblem(sc)
        aux = problem.update_aux(stack_waveforms(waveforms))
        for m in range(2):
            y = aux.Y[m]
            v = np.kron(np.eye(sc.l_samples), response_derivative(sc, m)) @ waveforms[m]
            k_mat = problem.covariance(waveforms, m)
            y_matrix = fp_matrix.opt_y(v[:, None], k_mat)
            assert np.allclose(y[:, None], y_matrix, atol=1e-12)

    def test_bracket_equals_half_curvature_at_update(self):
        sc = two_radar_scenario()
        waveforms = verify.random_waveforms(np.random.default_rng(2), sc)
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
            q, _ = problem._brackets(z, aux)
            for m in range(sc.m_radars):
                v = np.kron(np.eye(sc.l_samples), response_derivative(sc, m)) @ waveforms[m]
                k_mat = problem.covariance(waveforms, m)
                y = aux.Y[m][:, None]
                ref = fp_matrix.q_plus(v[:, None], k_mat, y)[0, 0].real
                scale = 2 * abs(np.vdot(y, v)) + np.vdot(y, k_mat @ y).real
                assert abs(q[m] - ref) <= 1e-12 * scale
                checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("m", [1, 3, 5, 8, "benchmark", "small"])
    def test_padded_surrogate_equals_the_per_pair_formula_bitwise(self, m):
        # unequal waveform lengths pad every row but the longest; M >= 3
        # fixes an order among the cross terms, M = 1 has none; the
        # benchmark scenario and verify's small draws are the shipped and
        # the checked sizes
        rng = np.random.default_rng(6 if isinstance(m, str) else 20 + m)
        draw = {"benchmark": benchmark_scenario, "small": lambda: verify.random_radar_scenario(rng)}.get(
            m, lambda: random_large_scenario(rng, m)
        )
        draws = {"benchmark": 5, "small": 100}.get(m, 12)
        compared = 0
        for _ in range(draws):
            problem = RadarMmProblem(draw())
            dim = problem.total_real_dim
            for _ in range(3):
                anchor = problem.feasible.project(10 ** rng.uniform(-1, 1) * rng.standard_normal(dim))
                z = problem.feasible.project(anchor + 10 ** rng.uniform(-3, -1) * rng.standard_normal(dim))
                aux = problem.update_aux(anchor)
                q_want, value_want, grad_want = per_pair_surrogate(problem, aux, z)
                q, _ = problem._brackets(z, aux)
                value, grad = problem.surrogate(z, aux)
                assert q.tobytes() == q_want.tobytes()
                if np.all(q > 0.0):
                    assert value == value_want and grad.tobytes() == grad_want.tobytes()
                    compared += 1
                else:
                    assert grad is None
        assert compared >= 2 * draws

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


def _fisher_positive_scenario(seed, m_radars):
    """A :func:`random_large_scenario` with fewer samples than radars, so
    that it starts flat and MM has to move, whose every curvature is
    positive at the start."""
    rng = np.random.default_rng(seed)
    while True:
        sc = random_large_scenario(rng, m_radars)
        if sc.l_samples >= m_radars:
            continue
        problem = RadarMmProblem(sc)
        waveforms = problem.initial_waveforms()
        if all(problem.fisher(waveforms, m) > 0.0 for m in range(sc.m_radars)):
            return sc


def _same_aux(a, b):
    return (
        all(x.tobytes() == y.tobytes() for x, y in zip(a.Y, b.Y))
        and all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("linear", "rows"))
        and a.noise == b.noise
    )


class TestOneSolvePerAnchor:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        return calls

    @pytest.mark.parametrize("draw", ["benchmark", (32, 3), (33, 4)])
    def test_run_algorithm2_solves_each_covariance_once_per_anchor(self, solves, draw):
        # run_mm evaluates the objective and then updates the auxiliaries at
        # the same point: M solves at the start and M per outer iteration
        # whose inner solve moved the point (one that took no step returns
        # its start, whose solves are kept)
        sc = benchmark_scenario() if draw == "benchmark" else _fisher_positive_scenario(*draw)
        solves.clear()
        _, trace = run_algorithm2(sc, solver.SolveOptions(max_outer=40))
        moved = sum(r.inner_iterations > 0 for r in trace.records[1:])
        assert moved >= 2
        assert len(solves) == sc.m_radars * (moved + 1)

    def test_code_start_solves_each_covariance_once(self, solves):
        # with a sample per radar MM starts at the optimum and never moves
        sc = replace(_fisher_positive_scenario(32, 3), l_samples=3)
        solves.clear()
        _, trace = run_algorithm2(sc, solver.SolveOptions(max_outer=40))
        assert [r.inner_iterations for r in trace.records] == [0, 0]
        assert len(solves) == sc.m_radars

    def test_objective_grad_after_the_objective_solves_nothing(self, solves):
        sc = two_radar_scenario()
        problem = RadarMmProblem(sc)
        z = problem.feasible.project(np.random.default_rng(8).standard_normal(problem.total_real_dim))
        problem.objective(z)
        problem.objective_grad(z)
        problem.update_aux(z)
        # the bound and the curvatures read the pairs the objective solved
        waveforms = problem.split(z)
        bound = problem.sum_crb(waveforms)
        assert bound == -problem.objective(z)
        assert sum(1.0 / problem.fisher(waveforms, m) for m in range(sc.m_radars)) == bound
        assert len(solves) == sc.m_radars

    def test_objective_only_points_take_no_auxiliary_rows(self, solves, monkeypatch):
        # the rows D_m^H Y_m and T_mm'^H Y_m are taken by update_aux alone:
        # the objective at a point, and every point MM tests but does not
        # update its auxiliaries at, takes none
        rows = []
        aux_rows = RadarMmProblem._aux_rows
        monkeypatch.setattr(RadarMmProblem, "_aux_rows", lambda problem, Y: rows.append(1) or aux_rows(problem, Y))
        sc = _fisher_positive_scenario(32, 3)
        solves.clear()
        problem = RadarMmProblem(sc)
        rng = np.random.default_rng(10)
        a, b = (problem.feasible.project(rng.standard_normal(problem.total_real_dim)) for _ in range(2))
        problem.objective(a)
        problem.objective(b)
        assert rows == [] and len(solves) == 2 * sc.m_radars
        problem.update_aux(b)
        assert rows == [1] and len(solves) == 2 * sc.m_radars
        # the shipped sweep's 10 dBm row: its extrapolated points are tested
        # by the objective alone
        sc = benchmark_scenario(10.0)
        rows.clear()
        solves.clear()
        _, trace = run_algorithm2(sc, solver.SolveOptions(accelerate=True))
        assert any(r.extrapolated for r in trace.records)
        assert len(rows) == trace.outer_iterations < len(solves) // sc.m_radars

    def test_kept_solves_never_go_stale(self):
        # alternating two points, or changing a point in place between the
        # objective and the auxiliaries, must give a fresh problem's answers
        rng = np.random.default_rng(9)
        for sc in [two_radar_scenario(), benchmark_scenario(15.0), random_large_scenario(rng, 4)]:
            problem = RadarMmProblem(sc)
            a, b = (problem.feasible.project(rng.standard_normal(problem.total_real_dim)) for _ in range(2))
            for z in (a, b, a, a, b):
                fresh = RadarMmProblem(sc)
                assert problem.objective(z).hex() == fresh.objective(z).hex()
                assert _same_aux(problem.update_aux(z), fresh.update_aux(z))
            z = a.copy()
            problem.objective(z)
            z *= 0.5
            assert _same_aux(problem.update_aux(z), RadarMmProblem(sc).update_aux(z))
            z[0] = -z[0]
            assert problem.objective_grad(z).tobytes() == RadarMmProblem(sc).objective_grad(z).tobytes()
            z[:] = b
            assert problem.objective(z).hex() == RadarMmProblem(sc).objective(z).hex()

    def test_shared_solves_are_read_only(self):
        problem = RadarMmProblem(two_radar_scenario())
        aux = problem.update_aux(problem.feasible.project(np.ones(problem.total_real_dim)))
        with pytest.raises(ValueError):
            aux.Y[0][0] = 0.0
        with pytest.raises(ValueError):
            aux.linear[0, 0, 0] = 0.0

    def test_lifts_equal_the_kronecker_products(self):
        # value equality: the off-block zeros of np.kron may carry a sign
        rng = np.random.default_rng(12)
        single = tiny_scenario(
            theta=(0.3, 0.9), n_tx=(1, 1), n_rx=(2, 3), sigma2=(1.0, 1.0), power=(1.0, 1.0), l_samples=3
        )
        scenarios = [benchmark_scenario(), tiny_scenario(n_tx=(2,), n_rx=(1,)), single]
        for sc in scenarios + [random_large_scenario(rng, 3) for _ in range(5)]:
            problem = RadarMmProblem(sc)
            eye = np.eye(sc.l_samples)
            for m in range(sc.m_radars):
                d, cross = problem.lifts(m)
                assert np.array_equal(d, np.kron(eye, response_derivative(sc, m)))
                assert sorted(cross) == [mp for mp in range(sc.m_radars) if mp != m]
                for mp, t in cross.items():
                    assert np.array_equal(t, np.kron(eye, response_matrix(sc, m, mp)))


def _eight_radar_scenario():
    """M = L = 8 radars with 16 antennas on each array, the size of the
    benchmark's radar sets: all their lifts together take 16 MB."""
    rng = np.random.default_rng(30)
    m = 8
    beta = rng.uniform(0.5, 1.5, (m, m)) * np.exp(2j * math.pi * rng.uniform(size=(m, m)))
    return RadarScenario(
        n_tx=(16,) * m, n_rx=(16,) * m, theta=tuple(float(v) for v in rng.uniform(-1.4, 1.4, m)),
        beta=tuple(tuple(complex(v) for v in row) for row in beta),
        sigma2=(1.0,) * m, power=(10.0,) * m, l_samples=8,
    )


class TestTransientLifts:
    """The problem keeps the responses, not their lifts: each new point
    writes every lift in turn into one zeroed buffer that lives for that
    point, and clears it again after use."""

    @pytest.mark.parametrize("draw", ["benchmark", "one-radar", "four-radars"])
    def test_each_point_lifts_into_one_cleared_buffer(self, monkeypatch, draw):
        rng = np.random.default_rng(31)
        sc = {"benchmark": benchmark_scenario, "one-radar": lambda: random_large_scenario(rng, 1),
              "four-radars": lambda: random_large_scenario(rng, 4)}[draw]()
        buffers, passes = [], []
        make, lifted = RadarMmProblem._lift_buffer, RadarMmProblem._lifted

        def counted(problem):
            buf = make(problem)
            buffers.append(weakref.ref(buf))
            return buf

        def checked(problem, buf, m):
            dense_d, dense_cross = problem.lifts(m)
            taken = []
            for mp, t in lifted(problem, buf, m):
                assert np.array_equal(t, dense_d if mp == m else dense_cross[mp])
                taken.append(mp)
                yield mp, t
            passes.append((m, taken, not buf.any()))

        monkeypatch.setattr(RadarMmProblem, "_lift_buffer", counted)
        monkeypatch.setattr(RadarMmProblem, "_lifted", checked)
        problem = RadarMmProblem(sc)
        assert buffers == []
        m = sc.m_radars
        # each radar takes its derivative lift and then its cross lifts, and
        # leaves the buffer all zeros
        one_pass = [(r, [r, *(mp for mp in range(m) if mp != r)], True) for r in range(m)]
        for point in range(2):
            z = problem.feasible.project(rng.standard_normal(problem.total_real_dim))
            problem.objective(z)
            problem.objective(z)
            assert len(buffers) == 2 * point + 1 and passes == one_pass
            # the auxiliary rows take a buffer of their own
            problem.update_aux(z)
            assert len(buffers) == 2 * point + 2 and passes == 2 * one_pass
            assert all(ref() is None for ref in buffers)
            passes.clear()

    def test_lifts_do_not_outlive_a_point(self):
        # kept for the problem's life, the lifts took 16.9 MB after construction
        sc = _eight_radar_scenario()
        z = np.random.default_rng(32).standard_normal(2 * sum(sc.waveform_length(m) for m in range(8)))
        tracemalloc.start()
        try:
            problem = RadarMmProblem(sc)
            built = tracemalloc.get_traced_memory()[0]
            z = problem.feasible.project(z)
            problem.objective(z)
            problem.update_aux(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built < 1e6
        assert peak < 6e6


class TestAlgorithm2:
    def test_single_radar_matches_eigen_oracle(self):
        sc = tiny_scenario(n_tx=(4,), n_rx=(6,), theta=(math.pi / 6,), power=(100.0,))
        opts = solver.SolveOptions(outer_tol=1e-13, inner_tol=1e-13, max_outer=3000)
        waveforms, trace = mm_from_flat(sc, opts)
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
        waveforms, trace = mm_from_flat(sc)
        assert verify.monotone(trace.objectives, -1.0)
        for m, s in enumerate(waveforms):
            assert np.real(np.vdot(s, s)) <= sc.power[m] + 1e-9

    def test_lift_consistency_at_solution(self):
        sc = two_radar_scenario()
        waveforms, _ = mm_from_flat(sc)
        assert verify.lift_reproduces_objective(sc, waveforms)


class TestStackHelpers:
    def test_round_trip(self):
        problem = RadarMmProblem(tiny_scenario(theta=(0.2, 0.7), n_tx=(3, 5), n_rx=(2, 2),
                                               sigma2=(1.0, 1.0), power=(1.0, 1.0)))
        assert problem.s_dims == [3, 5]
        rng = np.random.default_rng(5)
        waveforms = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in problem.s_dims]
        back = problem.split(stack_waveforms(waveforms))
        for a, b in zip(waveforms, back):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m", range(1, 9))
    def test_split_inverts_stack_bitwise_at_unequal_lengths(self, m):
        rng = np.random.default_rng(80 + m)
        for _ in range(5):
            problem = RadarMmProblem(random_large_scenario(rng, m))
            waveforms = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in problem.s_dims]
            # the interleave copies floats: signed zeros and infinities survive
            waveforms[-1][0] = complex(-0.0, -math.inf)
            back = problem.split(stack_waveforms(waveforms))
            assert [s.tobytes() for s in back] == [s.tobytes() for s in waveforms]

    def test_initial_waveforms_are_feasible_and_nondegenerate(self):
        sc = benchmark_scenario(30.0)
        waveforms = RadarMmProblem(sc).initial_waveforms()
        for m, s in enumerate(waveforms):
            assert np.real(np.vdot(s, s)) <= sc.power[m] + 1e-9
            d = np.kron(np.eye(sc.l_samples), response_derivative(sc, m))
            assert np.linalg.norm(d @ s) > 0


def _bounded_scenario(rng, m, l_samples):
    """A :func:`random_large_scenario` with ``l_samples`` samples; the
    scenario refuses a radar whose bound is infinite."""
    return replace(random_large_scenario(rng, m), l_samples=l_samples)


class TestCodeStart:
    """With ``L >= M`` radar m starts at ``sqrt(P_m) e_m kron u_m``; its
    interference is orthogonal to its derivative signal, so the start is
    the bound, and MM takes one map that does not move it."""

    CASES = {"l-equals-m": (4, 4), "l-above-m": (3, 7), "one-radar": (1, 5)}

    @pytest.mark.parametrize("case", CASES)
    def test_start_attains_the_bound_at_full_power(self, case):
        m, l_samples = self.CASES[case]
        rng = np.random.default_rng(50 + m + l_samples)
        scenarios = [_bounded_scenario(rng, m, l_samples) for _ in range(5)]
        if case == "l-equals-m":
            scenarios += [two_radar_scenario(), replace(benchmark_scenario(30.0), l_samples=5)]
        for sc in scenarios:
            assert verify.codes_attain_bound(sc)
            for s, power in zip(RadarMmProblem(sc).initial_waveforms(), sc.power):
                assert np.real(np.vdot(s, s)) == pytest.approx(power, rel=1e-12)

    @pytest.mark.parametrize("case", CASES)
    def test_run_algorithm2_maps_once_at_the_bound(self, case):
        m, l_samples = self.CASES[case]
        rng = np.random.default_rng(60 + m + l_samples)
        for _ in range(3):
            sc = _bounded_scenario(rng, m, l_samples)
            waveforms, trace = run_algorithm2(sc)
            bound = crb_lower_bound(sc)
            assert trace.status == "converged"
            assert [r.inner_iterations for r in trace.records] == [0, 0]
            assert abs(trace.objectives[-1] - bound) <= 1e-12 * bound
            assert abs(sum_crb(sc, waveforms) - bound) <= 1e-12 * bound

    def test_fewer_samples_than_radars_start_flat_bitwise(self):
        # the shipped radar configs have L = 4 < M = 5: their outputs rest on this
        rng = np.random.default_rng(70)
        scenarios = [benchmark_scenario(p) for p in (-60.0, 10.0, 30.0, 60.0)]
        scenarios += [_bounded_scenario(rng, m, int(rng.integers(1, m))) for m in (2, 3, 5, 8)]
        for sc in scenarios:
            assert sc.l_samples < sc.m_radars
            start = RadarMmProblem(sc).initial_waveforms()
            assert [s.tobytes() for s in start] == [s.tobytes() for s in flat_waveforms(sc)]

    def test_bound_is_below_every_feasible_waveform_set(self):
        # wider arrays, gains and budgets than the verify row draws
        rng = np.random.default_rng(71)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            sc = _bounded_scenario(rng, m, int(rng.integers(1, 2 * m + 1)))
            problem = RadarMmProblem(sc)
            for waveforms in (flat_waveforms(sc), verify.random_waveforms(rng, sc)):
                assert verify.crb_above_bound(problem, problem.feasible.project(stack_waveforms(waveforms)))

    def test_zero_derivative_bound_is_infinite(self):
        with pytest.raises(InvalidInputError, match="angle derivative of radar 1's response is zero"):
            replace(two_radar_scenario(), beta=((1.0, 0.6 + 0.2j), (0.5 - 0.1j, 0.0)))
        with pytest.raises(InvalidInputError, match="angle derivative of radar 0's response is zero"):
            tiny_scenario(n_tx=(1,), n_rx=(1,))
        # a self-gain this small passes, but its bound overflows
        sc = replace(two_radar_scenario(), beta=((1.0, 0.6 + 0.2j), (0.5 - 0.1j, 1e-160)))
        assert crb_lower_bound(sc) == math.inf

    def test_top_eigenpair_matches_the_hermitian_eigensolver(self):
        # the 2 x 2 closed form against LAPACK; one antenna on either array
        # leaves dG_mm rank 1
        rng = np.random.default_rng(72)
        rank_one = 0
        for _ in range(400):
            n_tx, n_rx = (int(v) for v in rng.integers(1, 17, 2))
            if n_tx == n_rx == 1:
                continue
            sc = tiny_scenario(theta=(float(rng.uniform(-1.5, 1.5)),), n_tx=(n_tx,), n_rx=(n_rx,))
            sc = replace(sc, beta=((complex(*rng.uniform(-2.0, 2.0, 2)),),))
            dg = response_derivative(sc, 0)
            h = dg.conj().T @ dg
            lam, u = _top_eigenpair(sc, 0)
            top = np.linalg.eigvalsh(h)[-1]
            assert abs(lam - top) <= 1e-13 * top
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
            assert np.linalg.norm(h @ u - lam * u) <= 1e-13 * lam
            rank_one += min(n_tx, n_rx) == 1
        assert rank_one >= 20

    def test_the_bound_and_the_code_start_call_no_eigensolver(self, monkeypatch):
        # the first LAPACK eigensolver call in a process pages in about 1 MB
        def refuse(*args, **kwargs):
            raise AssertionError("an eigensolver was called")

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        sc = replace(benchmark_scenario(30.0), l_samples=5)
        waveforms, trace = run_algorithm2(sc)
        assert trace.objectives[-1] == pytest.approx(crb_lower_bound(sc), rel=1e-12)


def _flat_start_scenario(rng):
    """M radars with 1..6 antennas per array, often one on an array, and
    half the angles at ``sin(theta) = 2j / N_T``, where the transmit
    steering vector sums to zero; a self-gain is sometimes zero, and the
    scenario then refuses the draw."""
    m = int(rng.integers(1, 4))
    n_tx = tuple(int(v) for v in rng.choice([1, 1, 2, 3, 4, 5, 6], m))
    n_rx = tuple(int(v) for v in rng.choice([1, 1, 2, 3, 4, 5, 6], m))
    theta = []
    for n in n_tx:
        if rng.random() < 0.5:
            theta.append(math.asin(2 * int(rng.integers(-(n // 2), n // 2 + 1)) / n))
        else:
            theta.append(float(rng.uniform(-1.5, 1.5)))
    beta = [[complex(*rng.uniform([-1.5, -1.5], [1.5, 1.5])) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        if rng.random() < 0.1:
            beta[i][i] = 0.0
    return RadarScenario(
        n_tx=n_tx, n_rx=n_rx, theta=tuple(theta), beta=tuple(map(tuple, beta)),
        sigma2=(1.0,) * m, power=tuple(float(v) for v in 10 ** rng.uniform(-1, 2, m)),
        l_samples=int(rng.integers(1, 4)),
    )


class TestFlatStart:
    """At the flat start every block of ``D_m s`` is a multiple of ``dG_mm
    1``, and at the code start ``D_m s_m`` is ``e_m kron dG_mm u_m``; each
    vanishes only where ``dG_mm`` does, which the scenario refuses: no
    start can make a zero-derivative radar's bound finite, so none is
    needed."""

    def test_derivative_signal_is_zero_only_where_the_derivative_is(self):
        rng = np.random.default_rng(17)
        seen = {"refused": 0, "tx_null": 0, "one_antenna": 0}
        for _ in range(400):
            try:
                sc = _flat_start_scenario(rng)
            except InvalidInputError:
                seen["refused"] += 1
                continue
            problem = RadarMmProblem(sc)
            for m, s in enumerate(problem.initial_waveforms()):
                d = problem.lifts(m)[0]
                scale = np.linalg.norm(d, "fro") * np.linalg.norm(s)
                assert np.linalg.norm(d @ s) >= 1e-6 * scale, (sc, m)
                n = sc.n_tx[m]
                seen["tx_null"] += n > 1 and abs(np.sum(steering_vector(n, sc.theta[m]))) < 1e-9
                seen["one_antenna"] += min(n, sc.n_rx[m]) == 1
        # the draws reach every case the premise names
        assert min(seen.values()) >= 20, seen

    def test_zero_self_gain_bound_is_infinite_from_any_start(self):
        # so the scenario refuses it
        with pytest.raises(InvalidInputError, match="angle derivative of radar 1's response is zero"):
            replace(two_radar_scenario(), beta=((1.0, 0.6 + 0.2j), (0.5 - 0.1j, 0.0)))


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        tiny_scenario(sigma2=(0.0,))
    with pytest.raises(InvalidInputError):
        RadarScenario(n_tx=(1, 1), n_rx=(1,), theta=(0.0,), beta=((1.0,),),
                      sigma2=(1.0,), power=(1.0,), l_samples=1)


@pytest.mark.parametrize(
    "radar, change",
    [
        (0, {"n_tx": (1, 2), "n_rx": (1, 2)}),
        (1, {"theta": (0.3, -math.pi / 2)}),
        (1, {"beta": ((1.0, 1.0), (1.0, 0.0))}),
    ],
    ids=["one-antenna-arrays", "endfire", "zero-self-gain"],
)
def test_scenario_refuses_a_radar_whose_bound_is_infinite(radar, change):
    # the library refuses what the CLI refuses, before any solve
    base = dict(
        n_tx=(2, 2), n_rx=(2, 2), theta=(0.3, 0.6), beta=((1.0, 1.0), (1.0, 1.0)),
        sigma2=(1.0, 1.0), power=(1.0, 1.0), l_samples=1,
    )
    with pytest.raises(InvalidInputError, match=f"angle derivative of radar {radar}'s response is zero"):
        RadarScenario(**{**base, **change})


@pytest.mark.parametrize(
    "counts", [{"n_tx": (2.5,)}, {"n_tx": (True,)}, {"n_rx": (2.0,)}, {"l_samples": 1.5}, {"l_samples": True}]
)
def test_count_fields_must_be_integers(counts):
    # a float count was truncated or failed inside numpy; a bool was a 1
    with pytest.raises(InvalidInputError, match="must be an integer"):
        tiny_scenario(**counts)


def test_count_fields_accept_numpy_integers():
    sc = tiny_scenario(n_tx=(np.int64(2),), n_rx=(np.int32(3),), l_samples=np.int64(2))
    assert (sc.n_tx, sc.n_rx, sc.l_samples) == ((2,), (3,), 2)
    assert all(type(v) is int for v in (*sc.n_tx, *sc.n_rx, sc.l_samples))
