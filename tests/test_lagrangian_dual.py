import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfp import solver, verify
from mmfp.errors import DomainError, InvalidInputError
from mmfp.fp_core import affine_fractions
from mmfp.lagrangian_dual import (
    LogRatioMmProblem,
    log_ratio_objective,
    log_ratio_surrogate,
    opt_gamma,
    opt_gamma_tilde,
    zeta_minus,
    zeta_plus,
)


class TestClosedForms:
    def test_opt_gamma_values(self):
        assert opt_gamma(1.0, 2.0) == 0.5
        assert opt_gamma(0.0, 5.0) == 0.0
        assert opt_gamma(3.0, 3.0) == 1.0

    def test_opt_gamma_tilde_values(self):
        assert opt_gamma_tilde(1.0, 3.0) == 0.25
        assert opt_gamma_tilde(0.0, 1.0) == 0.0
        assert opt_gamma_tilde(1.0, 1.0) == 0.5

    def test_gamma_tilde_stays_below_one(self):
        assert opt_gamma_tilde(1e12, 1e-6) < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            opt_gamma(1.0, 0.0)
        with pytest.raises(InvalidInputError):
            opt_gamma_tilde(-1.0, 1.0)


class TestZetaPlus:
    def test_tight_at_optimum(self):
        assert zeta_plus(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.log(2.0))

    def test_zero_ratio(self):
        assert zeta_plus(1.0, 0.0, 0.0, 1.0) == 0.0

    def test_hand_evaluated_bound_case(self):
        value = zeta_plus(2.0, 0.0, 1.0, 1.0)
        assert value == pytest.approx(1.0)
        assert value <= 2.0 * math.log(2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.05, 5.0), st.floats(0.05, 5.0),
        st.floats(0.1, 3.0), st.floats(0.0, 10.0),
    )
    def test_recovery_and_bound(self, A, B, w, gamma):
        best = zeta_plus(w, opt_gamma(A, B), A, B)
        assert best == pytest.approx(w * math.log1p(A / B), rel=1e-12, abs=1e-12)
        assert zeta_plus(w, gamma, A, B) <= best + 1e-10


class TestZetaMinus:
    def test_tight_at_optimum(self):
        assert zeta_minus(1.0, 0.5, 1.0, 1.0) == pytest.approx(-math.log(2.0))

    def test_zero_ratio(self):
        assert zeta_minus(1.0, 0.0, 0.0, 1.0) == 0.0

    def test_bound_case(self):
        value = zeta_minus(1.0, 0.0, 1.0, 1.0)
        assert value == pytest.approx(-1.0)
        assert value <= -math.log(2.0)

    def test_domain_error_at_one(self):
        with pytest.raises(DomainError):
            zeta_minus(1.0, 1.0, 1.0, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.05, 5.0), st.floats(0.05, 5.0),
        st.floats(0.1, 3.0), st.floats(0.0, 0.999),
    )
    def test_recovery_and_bound(self, A, B, w, gamma_tilde):
        best = zeta_minus(w, opt_gamma_tilde(A, B), A, B)
        assert best == pytest.approx(-w * math.log1p(A / B), rel=1e-12, abs=1e-12)
        assert zeta_minus(w, gamma_tilde, A, B) <= best + 1e-10


def test_stationarity_of_closed_forms_by_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(200):
        A = float(rng.uniform(0.05, 5.0))
        B = float(rng.uniform(0.05, 5.0))
        w = float(rng.uniform(0.1, 3.0))
        assert verify.closed_forms_stationary(A, B, w)


def _log_ratio_problem(rows, feasible=None):
    """``rows`` holds ``(a, a0, b, b0, weight, maximize)`` per log-ratio
    ``+/- weight * ln(1 + (a.x + a0)/(b.x + b0))``."""
    a, a0, b, b0, weights, maximize = (np.array(c) for c in zip(*rows))
    return LogRatioMmProblem(affine_fractions(a, a0, b, b0), weights, maximize, feasible)


class TestLogRatioSurrogate:
    def test_tight_at_anchor(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            problem, dim = verify.random_log_ratio_problem(rng, offset=0.2)
            x = rng.uniform(0.1, 3.0, dim)
            assert verify.dual_sandwich(problem, x, x)

    def test_hand_evaluated_single_max_term(self):
        # anchor ratio 1, query ratio 3: ln2 - 1 + 2*(3/4) = ln2 + 0.5 <= ln4
        problem = _log_ratio_problem([([1.0], 0.0, [0.0], 1.0, 1.0, True)])
        value = log_ratio_surrogate(problem, np.array([3.0]), np.array([1.0]))
        assert value == pytest.approx(math.log(2.0) + 0.5)
        assert value <= math.log(4.0)

    def test_min_only_instances_stay_below_objective(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            problem = _log_ratio_problem([
                (rng.uniform(0.1, 1.0, dim), 0.2, rng.uniform(0.1, 1.0, dim), 1.0,
                 float(rng.uniform(0.1, 2.0)), False)
                for _ in range(int(rng.integers(1, 4)))
            ])
            x = rng.uniform(0.1, 3.0, dim)
            anchor = rng.uniform(0.1, 3.0, dim)
            assert verify.dual_sandwich(problem, x, anchor)

    def test_bound_random_mixed(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            problem, dim = verify.random_log_ratio_problem(rng, offset=0.2)
            x = rng.uniform(0.1, 3.0, dim)
            anchor = rng.uniform(0.1, 3.0, dim)
            assert verify.dual_sandwich(problem, x, anchor)

    def test_zero_weight_row_is_dropped(self):
        # the dead row's ratio 1e300/1e-300 overflows to inf, so its zeta
        # would be 0 * ln(1 + inf) = nan; dropped, it adds nothing
        dead = ([0.0], 1e300, [0.0], 1e-300, 0.0, True)
        live = ([1.0], 0.0, [0.0], 1.0, 1.0, True)
        x, anchor = np.array([3.0]), np.array([1.0])
        value = log_ratio_surrogate(_log_ratio_problem([dead, live]), x, anchor)
        assert value == log_ratio_surrogate(_log_ratio_problem([live]), x, anchor) == pytest.approx(math.log(2.0) + 0.5)

    def test_zeta_depends_on_x_only_through_fractions(self):
        # with the auxiliary frozen, subtracting the fraction term leaves a
        # constant in x
        w, g, gt = 1.3, 0.8, 0.4
        pairs = [(0.5, 1.0), (2.0, 0.7), (4.0, 3.0)]
        from mmfp.lagrangian_dual import zeta_minus, zeta_plus

        consts_plus = {
            round(zeta_plus(w, g, A, B) - w * (1 + g) * A / (A + B), 12) for A, B in pairs
        }
        consts_minus = {
            round(zeta_minus(w, gt, A, B) + w * (1 - gt) * A / B, 12) for A, B in pairs
        }
        assert len(consts_plus) == 1 and len(consts_minus) == 1


def test_nested_sandwich_on_random_instances():
    # quadratic transform of the zetas <= zetas <= log-ratio objective,
    # all three equal at the anchor
    rng = np.random.default_rng(7)
    for _ in range(200):
        problem, dim = verify.random_log_ratio_problem(rng, offset=0.2, feasible=solver.box_set(0.0, 3.0))
        anchor = rng.uniform(0.1, 3.0, dim)
        aux = problem.update_aux(anchor)
        x = rng.uniform(0.1, 3.0, dim)
        inner, _ = problem.surrogate(x, aux)
        assert inner <= log_ratio_surrogate(problem, x, anchor) + 1e-10
        assert verify.dual_sandwich(problem, x, anchor)
        true = log_ratio_objective(problem, anchor)
        assert problem.surrogate(anchor, aux)[0] == pytest.approx(true, abs=1e-10)


class TestLogRatioMmProblem:
    def _problem(self, rng, dim=2):
        rows = []
        for maximize in (True, True, False):
            a = rng.uniform(0.2, 1.0, dim)
            b = rng.uniform(0.2, 1.0, dim)
            rows.append((a, 0.3, b, 1.0, float(rng.uniform(0.2, 1.5)), maximize))
        return _log_ratio_problem(rows, solver.box_set(np.zeros(dim), np.ones(dim)))

    def test_surrogate_tight_and_bounded(self):
        rng = np.random.default_rng(4)
        problem = self._problem(rng)
        x = rng.uniform(0.2, 0.9, 2)
        aux = problem.update_aux(x)
        value, _ = problem.surrogate(x, aux)
        assert value == pytest.approx(problem.objective(x), abs=1e-10)
        y = rng.uniform(0.2, 0.9, 2)
        value_off, _ = problem.surrogate(y, aux)
        assert value_off <= problem.objective(y) + 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        problem = self._problem(rng)
        x = rng.uniform(0.2, 0.9, 2)
        assert verify.gradient_matches(problem.objective, problem.objective_grad(x), x)
        aux = problem.update_aux(rng.uniform(0.2, 0.9, 2))
        _, gs = problem.surrogate(x, aux)
        assert verify.gradient_matches(lambda z: problem.surrogate(z, aux)[0], gs, x)

    def test_mm_run_is_monotone(self):
        rng = np.random.default_rng(6)
        problem = self._problem(rng)
        _, trace = solver.run_mm(problem, np.full(2, 0.5))
        assert verify.monotone(trace.objectives)

    def test_zero_weight_row_adds_nothing(self):
        # the weight-0 row takes part with an outer of weight 0: at its 0/1
        # ratio it adds an exact 0 with slope 0, so the surrogate is the
        # live row's alone
        dead = ([1.0], 0.0, [1.0], 1.0, 0.0, False)
        live = ([1.0], 0.5, [0.5], 1.0, 1.0, True)
        box = solver.box_set(np.zeros(1), np.ones(1))
        problem = _log_ratio_problem([dead, live], box)
        alone = _log_ratio_problem([live], box)
        x = np.array([0.0])
        aux = problem.update_aux(x)
        value, grad = problem.surrogate(x, aux)
        assert np.isfinite(value)
        assert aux.gamma.tolist() == [opt_gamma_tilde(0.0, 1.0), opt_gamma(0.5, 1.0)]
        assert [o.weight for o in aux.outers] == [0.0, 1.0 + opt_gamma(0.5, 1.0)]
        want_value, want_grad = alone.surrogate(x, alone.update_aux(x))
        assert (value, grad.tolist()) == (want_value, want_grad.tolist())

    def test_gamma_follows_row_order(self):
        # one gamma per row, in row order: A/B on a max row, A/(A+B) on a
        # min row, whatever the weight
        rows = [
            ([1.0], 0.5, [0.5], 1.0, 1.0, False),
            ([1.0], 0.0, [1.0], 1.0, 0.0, True),
            ([2.0], 1.0, [1.0], 2.0, 0.7, True),
            ([1.0], 0.0, [1.0], 1.0, 0.0, False),
            ([0.5], 0.5, [1.0], 0.5, 1.3, False),
        ]
        problem = _log_ratio_problem(rows, solver.box_set(np.zeros(1), np.ones(1)))
        x = np.array([0.5])
        aux = problem.update_aux(x)
        assert aux.gamma.tolist() == [
            opt_gamma_tilde(1.0, 1.25), opt_gamma(0.5, 1.5), opt_gamma(2.0, 2.5),
            opt_gamma_tilde(0.5, 1.5), opt_gamma_tilde(0.75, 1.0),
        ]
        assert [o.increasing for o in aux.outers] == [False, True, True, False, False]
        assert aux.y.shape == aux.gamma.shape
        assert np.isfinite(problem.surrogate(x, aux)[0])


def test_weight_validation():
    fractions = affine_fractions([[1.0]], [0.0], [[1.0]], [0.0])
    for w in (-0.5, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="finite and nonnegative"):
            LogRatioMmProblem(fractions, [w], [True], None)
    with pytest.raises(InvalidInputError):
        LogRatioMmProblem(fractions, [1.0], ["between"], None)
    with pytest.raises(InvalidInputError):
        LogRatioMmProblem(fractions, [1.0, 1.0], [True], None)
