import math

import numpy as np
import pytest

from mmfp import solver, verify
from mmfp.errors import InvalidInputError, InvalidStartError, MonotonicityError
from mmfp.fp_core import MixedFpProblem, OuterFunction, affine_fractions
from mmfp.solver import (
    FeasibleSet,
    IterationRecord,
    IterationTrace,
    SolveOptions,
    block_ball_set,
    box_set,
    central_diff_grad,
    grid_argmax,
    iterations_to_relative_convergence,
    maximize_subproblem,
    project_ball,
    run_mm,
    stationarity_residual,
)


class TestProjections:
    def test_box_clamp(self):
        assert np.allclose(box_set(0.0, 1.0).project(np.array([2.0, -1.0])), [1.0, 0.0])

    def test_box_interior_unchanged(self):
        x = np.array([0.3, 0.7])
        assert np.allclose(box_set(0.0, 1.0).project(x), x)

    def test_box_at_lower_bound(self):
        lo = np.array([0.1, 0.2])
        assert np.allclose(box_set(lo, 1.0).project(lo), lo)

    def test_box_invalid_bounds(self):
        with pytest.raises(InvalidInputError):
            box_set(1.0, 0.0)

    def test_ball_inside_unchanged(self):
        x = np.array([3.0, 4.0])
        assert np.allclose(project_ball(x, 25.0), x)

    def test_ball_scales_to_boundary(self):
        assert np.allclose(project_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_ball_zero_fixed(self):
        assert np.allclose(project_ball(np.zeros(3), 4.0), np.zeros(3))

    def test_ball_complex(self):
        z = np.array([3.0 + 4.0j])
        out = project_ball(z, 1.0)
        assert np.real(np.vdot(out, out)) == pytest.approx(1.0)

    def test_box_set_validates_once_and_matches_np_clip(self):
        with pytest.raises(InvalidInputError):
            box_set(np.array([0.0, 2.0]), 1.0)
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            lo = rng.uniform(-2.0, 0.5, n) if rng.random() < 0.5 else float(rng.uniform(-2.0, 0.5))
            hi = rng.uniform(0.5, 3.0, n)
            x = rng.standard_normal(n) * 3
            got = box_set(lo, hi).project(x)
            want = np.clip(x, lo, hi)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_block_ball_set_validates_once_and_matches_project_ball(self):
        with pytest.raises(InvalidInputError):
            block_ball_set([(0, 2), (2, 3)], [1.0, 0.0])
        rng = np.random.default_rng(9)
        for _ in range(200):
            sizes = rng.integers(1, 5, size=int(rng.integers(1, 4)))
            stops = np.cumsum(sizes)
            blocks = [(int(b - n), int(b)) for n, b in zip(sizes, stops)]
            radii_sq = [float(r) for r in rng.uniform(0.1, 4.0, len(blocks))]
            x = rng.standard_normal(int(stops[-1])) * rng.uniform(0.1, 3.0)
            x_before = x.copy()
            got = block_ball_set(blocks, radii_sq).project(x)
            want = np.concatenate([project_ball(x[a:b], r2) for (a, b), r2 in zip(blocks, radii_sq)])
            assert got.tobytes() == want.tobytes()
            assert x.tobytes() == x_before.tobytes()  # scaled in place, but in a copy

    def test_projection_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(4) * 3
            box = box_set(-1.0, 1.0)
            p1 = box.project(x)
            assert np.allclose(box.project(p1), p1, atol=1e-12)
            b1 = project_ball(x, 2.0)
            assert np.allclose(project_ball(b1, 2.0), b1, atol=1e-12)


def _full_grid_argmax(axes, values):
    batch = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    v = values(batch)
    i = int(np.argmax(v))
    return batch[i], float(v[i])


class TestGridArgmax:
    @pytest.mark.parametrize("block_rows", [1, 5, 7, 64, 4096])
    def test_matches_argmax_over_the_full_grid(self, monkeypatch, block_rows):
        # blocks from one row to the whole grid, most of them dividing no
        # grid evenly, and ties from rounding the values to a few levels
        monkeypatch.setattr(solver, "_GRID_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows)
        for _ in range(60):
            dims = int(rng.integers(1, 4))
            axes = [rng.uniform(-1.0, 1.0, int(rng.integers(1, 12))) for _ in range(dims)]
            w = rng.standard_normal(dims)
            levels = int(rng.integers(1, 6))

            def values(rows):
                return np.round(levels * np.sin(rows @ w)) / levels

            point, value = grid_argmax(axes, values)
            want_point, want_value = _full_grid_argmax(axes, values)
            assert point.tobytes() == want_point.tobytes()
            assert value == want_value

    def test_first_of_tied_maxima_wins(self, monkeypatch):
        monkeypatch.setattr(solver, "_GRID_BLOCK_ROWS", 3)
        point, value = grid_argmax([np.arange(4.0), np.arange(5.0)], lambda rows: np.zeros(len(rows)))
        assert point.tolist() == [0.0, 0.0] and value == 0.0
        point, _ = grid_argmax([np.arange(4.0), np.arange(5.0)], lambda rows: (rows[:, 0] >= 2).astype(float))
        assert point.tolist() == [2.0, 0.0]


def _quadratic(center: np.ndarray):
    def fn(x):
        d = x - center
        return -float(d @ d), -2.0 * d

    return fn


class TestMaximizeSubproblem:
    def test_clipped_quadratic(self):
        feasible = box_set(np.zeros(1), np.ones(1))
        x, info = maximize_subproblem(
            _quadratic(np.array([3.0])), feasible, np.array([0.2]), SolveOptions()
        )
        assert x[0] == pytest.approx(1.0, abs=1e-7)
        assert info.converged

    def test_ball_projection_optimum(self):
        center = np.array([3.0, 4.0])
        feasible = FeasibleSet(project=lambda x: project_ball(x, 1.0))
        x, _ = maximize_subproblem(
            _quadratic(center), feasible, np.array([0.1, 0.0]), SolveOptions()
        )
        assert np.allclose(x, [0.6, 0.8], atol=1e-6)

    def test_log_utility_stationary_point(self):
        def fn(x):
            p = float(x[0])
            return math.log1p(p) - 0.5 * p, np.array([1.0 / (1.0 + p) - 0.5])

        x, _ = maximize_subproblem(
            fn, box_set(np.zeros(1), np.full(1, 10.0)), np.array([5.0]), SolveOptions()
        )
        assert x[0] == pytest.approx(1.0, abs=1e-6)

    def test_invalid_start_raises(self):
        feasible = FeasibleSet(
            project=box_set(0.0, 1.0).project,
            in_domain=lambda x: bool(np.all(x > 0.5)),
        )
        with pytest.raises(InvalidStartError):
            maximize_subproblem(
                _quadratic(np.array([1.0])), feasible, np.array([0.2]), SolveOptions()
            )

    def test_accepted_iterates_stay_in_domain(self):
        # objective finite only on the guarded half-box; line search must
        # never step outside it
        visited = []

        def fn(x):
            visited.append(x.copy())
            if x[0] <= 0.25:
                return -math.inf, None
            return -((x[0] - 0.3) ** 2), np.array([-2 * (x[0] - 0.3)])

        feasible = FeasibleSet(
            project=box_set(0.0, 1.0).project,
            in_domain=lambda x: bool(x[0] > 0.25),
        )
        x, _ = maximize_subproblem(fn, feasible, np.array([0.9]), SolveOptions())
        assert x[0] == pytest.approx(0.3, abs=1e-6)
        assert all(v[0] > 0.25 for v in visited)

    def test_never_returns_worse_point(self):
        fn = _quadratic(np.array([0.4, -0.1]))
        feasible = box_set(np.full(2, -1.0), np.ones(2))
        x0 = np.array([0.9, 0.9])
        x, _ = maximize_subproblem(fn, feasible, x0, SolveOptions(max_inner=3))
        assert fn(x)[0] >= fn(x0)[0]


def _ratio_problem(num, den, outer, lo, hi):
    """One ratio ``num(t)/den(t)`` of ``t = x[0]``; ``num`` and ``den``
    return a value and a derivative."""

    def fractions(x):
        (a, da), (b, db) = num(float(x[0])), den(float(x[0]))
        return np.array([a]), np.array([b]), np.array([[da]]), np.array([[db]])

    return MixedFpProblem(
        fractions,
        (outer,),
        box_set(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)),
    )


def _unit(t):
    return 1.0, 0.0


def _shifted_square(t):
    return (t - 2.0) ** 2 + 1.0, 2.0 * (t - 2.0)


def _two_affine_ratios(a, b, a0, b0):
    """``(a.x + a0[0])/(b.x + b0[0])`` under log1p and ``(b.x + a0[1])/(a.x +
    b0[1])`` under the negated identity, on the unit box."""
    return MixedFpProblem(
        affine_fractions([a, b], a0, [b, a], b0),
        (OuterFunction.log1p(), OuterFunction.neg_identity()),
        box_set(np.zeros(2), np.ones(2)),
    )


class TestRunMm:
    def test_single_max_ratio_hits_upper_bound(self):
        problem = _ratio_problem(lambda t: (t, 1.0), _unit, OuterFunction.identity(), [0.0], [1.0])
        x, trace = run_mm(problem, np.array([0.1]))
        assert x[0] == pytest.approx(1.0, abs=1e-8)
        assert trace.records[-1].objective == pytest.approx(1.0, abs=1e-8)
        assert trace.outer_iterations <= 3

    def test_single_min_ratio_interior_optimum(self):
        problem = _ratio_problem(
            _shifted_square, _unit, OuterFunction.neg_identity(), [0.0], [5.0]
        )
        x, _ = run_mm(problem, np.array([4.5]))
        assert x[0] == pytest.approx(2.0, abs=1e-5)

    def test_mixed_toy_matches_grid_oracle(self):
        a = np.array([0.8, 0.3])
        b = np.array([0.2, 0.9])
        problem = _two_affine_ratios(a, b, [0.5, 0.4], [1.0, 1.2])
        x0 = np.full(2, 0.5)
        x, trace = run_mm(problem, x0)
        assert trace.records[-1].objective >= problem.objective(x0) - 1e-12
        grid = np.linspace(0.0, 1.0, 201)
        best = max(
            problem.objective(np.array([u, v])) for u in grid for v in grid
        )
        assert trace.records[-1].objective == pytest.approx(best, abs=1e-4)

    def test_trace_is_monotone(self):
        problem = _ratio_problem(
            lambda t: (t * t, 2.0 * t), lambda t: (1.0 + t, 1.0), OuterFunction.log1p(), [0.0], [4.0]
        )
        _, trace = run_mm(problem, np.array([0.5]))
        assert verify.monotone(trace.objectives)

    def test_surrogate_consistency_across_iterations(self):
        # at each outer step the surrogate is tight at the incoming point
        # and the subproblem can only improve it
        a = np.array([0.6, 0.2])
        b = np.array([0.3, 0.8])
        problem = _two_affine_ratios(a, b, [0.4, 0.3], [1.0, 1.1])
        x = np.full(2, 0.5)
        opts = SolveOptions()
        for _ in range(5):
            aux = problem.update_aux(x)
            incoming, _ = problem.surrogate(x, aux)
            assert incoming == pytest.approx(problem.objective(x), abs=1e-9)
            x, _ = maximize_subproblem(
                lambda z: problem.surrogate(z, aux), problem.feasible, x, opts
            )
            outgoing, _ = problem.surrogate(x, aux)
            assert outgoing >= incoming - 1e-12

    def test_monotonicity_violation_raises(self):
        class Broken:
            feasible = box_set(np.zeros(1), np.ones(1))

            def __init__(self):
                self.calls = 0

            def objective(self, x):
                self.calls += 1
                return float(-self.calls)  # strictly decreasing: a bug by construction

            def update_aux(self, x):
                return None

            def surrogate(self, x, aux):
                return 0.0, np.zeros(1)

        with pytest.raises(MonotonicityError):
            run_mm(Broken(), np.array([0.5]))


class TestStationarityResidual:
    def test_interior_maximum(self):
        problem = _ratio_problem(
            _shifted_square, _unit, OuterFunction.neg_identity(), [0.0], [5.0]
        )
        assert stationarity_residual(problem, np.array([2.0])) <= 1e-6

    def test_boundary_optimum_with_inward_gradient(self):
        problem = _ratio_problem(lambda t: (t, 1.0), _unit, OuterFunction.identity(), [0.0], [1.0])
        assert stationarity_residual(problem, np.array([1.0])) <= 1e-6

    def test_non_stationary_point_detected(self):
        problem = _ratio_problem(
            _shifted_square, _unit, OuterFunction.neg_identity(), [0.0], [5.0]
        )
        assert stationarity_residual(problem, np.array([0.5])) > 0.01


def test_central_diff_grad_on_polynomial():
    fn = lambda x: float(x[0] ** 3 + 2 * x[1] ** 2)
    x = np.array([1.2, -0.7])
    g = central_diff_grad(fn, x)
    assert np.allclose(g, [3 * 1.2**2, 4 * -0.7], rtol=1e-6)


def test_iterations_to_relative_convergence():
    records = [
        IterationRecord(i, v, 0.0, 1)
        for i, v in enumerate([0.0, 1.0, 1.5, 1.5 + 1e-9, 1.5 + 2e-9])
    ]
    trace = IterationTrace(records=records)
    assert iterations_to_relative_convergence(trace, 1e-6) == 3


def test_solve_options_validation():
    with pytest.raises(InvalidInputError):
        SolveOptions(outer_tol=0.0)
    with pytest.raises(InvalidInputError):
        SolveOptions(inner_tol=-1.0)
    with pytest.raises(InvalidInputError):
        SolveOptions(max_inner=0)
    with pytest.raises(InvalidInputError):
        SolveOptions(max_outer=0)
