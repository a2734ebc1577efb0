import math
from dataclasses import fields, replace

import numpy as np
import pytest

from mmfp import aoi, radar, secure, solver, verify
from mmfp.errors import DomainError, InvalidInputError, InvalidStartError, MonotonicityError
from mmfp.fp_core import MixedFpProblem, OuterFunction, affine_fractions
from mmfp.solver import (
    _ARMIJO_C,
    _BACKTRACK_FACTOR,
    _MAX_BACKTRACKS,
    _NONMONOTONE_WINDOW,
    _STALL_LIMIT,
    _STEP_MAX,
    _STEP_MIN,
    FeasibleSet,
    InnerResult,
    IterationRecord,
    IterationTrace,
    SolveOptions,
    block_ball_set,
    box_set,
    central_diff_grad,
    grid_argmax,
    grid_search,
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


def _full_grid_search(lo, hi, step, dims, values, rounds):
    best, best_value = _full_grid_argmax([np.arange(lo, hi + step / 2, step)] * dims, values)
    for _ in range(rounds):
        step /= 10.0
        point, value = _full_grid_argmax([np.clip(b + step * np.arange(-10, 11), lo, hi) for b in best], values)
        if value > best_value:
            best, best_value = point, value
    return best, best_value


def _at_least_two_rows(values, rows_seen=None):
    """``values`` that fails the test on a batch of one row, whose value
    some functions round differently, and tallies the rows it gets."""

    def checked(rows):
        assert len(rows) >= 2, "values called on a single row"
        if rows_seen is not None:
            rows_seen.append(len(rows))
        return values(rows)

    return checked


def _bounded_function(rng, dims):
    """Values rounded to a few levels, so with plateaus: a monotone part
    (arctan, rising or falling per axis) plus a peak at a random point,
    and a valid bound of them over each box: each part at its own best
    point of the box, plus a random slack."""
    signs = rng.choice([-1.0, 1.0], dims)
    peak = rng.uniform(-1.0, 1.0, dims)
    w = rng.uniform(0.0, 2.0, dims)
    levels = int(rng.integers(1, 30))
    slack = float(rng.choice([0.0, 0.01, 0.3]))

    def values(rows):
        return np.round(levels * (np.arctan(3 * rows) @ signs - np.abs(rows - peak) @ w)) / levels

    def bound(lo, hi):
        rising = np.where(signs > 0, hi, lo)
        raw = np.arctan(3 * rising) @ signs - np.abs(np.clip(peak, lo, hi) - peak) @ w
        return np.round(levels * raw) / levels + slack

    return values, bound


class TestBoundedGridArgmax:
    @pytest.mark.parametrize("block_rows", [3, 7, 64, 4096])
    def test_matches_argmax_over_the_full_grid(self, monkeypatch, block_rows):
        # 2-D and 3-D grids larger than a block, sorted and unsorted axes
        monkeypatch.setattr(solver, "_GRID_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(100 + block_rows)
        for _ in range(40):
            dims = int(rng.integers(2, 4))
            sizes = rng.integers(2, 40 if block_rows < 4096 else [0, 0, 200, 40][dims], dims)
            if rng.random() < 0.5:
                axes = [np.sort(rng.uniform(-1.0, 1.0, n)) for n in sizes]
            else:
                axes = [rng.uniform(-1.0, 1.0, n) for n in sizes]
            values, bound = _bounded_function(rng, dims)
            point, value = grid_argmax(axes, _at_least_two_rows(values), bound)
            want_point, want_value = _full_grid_argmax(axes, values)
            assert point.tobytes() == want_point.tobytes()
            assert value == want_value

    @pytest.mark.parametrize("dims", [2, 3])
    def test_all_tie_costs_one_scan(self, dims):
        # nothing can be pruned: the rows evaluated stay within 5% of the grid
        axes = [np.linspace(0.0, 1.0, {2: 300, 3: 50}[dims])] * dims
        rows_seen = []
        values = _at_least_two_rows(lambda rows: np.zeros(len(rows)), rows_seen)
        point, value = grid_argmax(axes, values, lambda lo, hi: np.zeros(len(lo)))
        assert point.tolist() == [0.0] * dims and value == 0.0
        assert sum(rows_seen) <= 1.05 * math.prod(map(len, axes))

    def test_a_lone_surviving_point_is_not_a_one_row_batch(self, monkeypatch):
        # a strict peak at the far corner of an odd grid: its leaf box holds
        # that one point, and every other box is pruned
        monkeypatch.setattr(solver, "_GRID_BLOCK_ROWS", 64)
        axes = [np.arange(33.0), np.arange(17.0)]
        corner = np.array([32.0, 16.0])

        def values(rows):
            return -np.abs(rows - corner).sum(axis=1)

        point, value = grid_argmax(axes, _at_least_two_rows(values), lambda lo, hi: values(np.clip(corner, lo, hi)))
        assert point.tolist() == [32.0, 16.0] and value == 0.0


class TestGridSearch:
    @staticmethod
    def _cases(seed):
        # random boxes and steps that divide no box evenly, values rounded
        # to a few levels so that ties occur in the coarse and refined scans
        rng = np.random.default_rng(seed)
        for _ in range(25):
            dims = int(rng.integers(1, 4))
            lo = float(rng.uniform(-2.0, 1.0))
            hi = lo + float(rng.uniform(0.1, 3.0))
            step = (hi - lo) / float(rng.uniform(2.0, [40.0, 20.0, 8.0][dims - 1]))
            w = rng.standard_normal(dims)
            levels = int(rng.integers(2, 50))

            def values(rows, w=w, levels=levels):
                return np.round(levels * np.sin(rows @ w)) / levels

            yield lo, hi, step, dims, values

    @pytest.mark.parametrize("rounds", [0, 1, 2, 3])
    def test_matches_a_full_grid_search_bitwise(self, rounds):
        for lo, hi, step, dims, values in self._cases(rounds):
            point, value = grid_search(lo, hi, step, dims, values, rounds)
            want_point, want_value = _full_grid_search(lo, hi, step, dims, values, rounds)
            assert point.tobytes() == want_point.tobytes()
            assert value == want_value

    @pytest.mark.parametrize("block_rows", [7, 4096])
    def test_bounded_matches_a_full_grid_search_bitwise(self, monkeypatch, block_rows):
        # with small blocks the 21-point refinements are pruned too
        monkeypatch.setattr(solver, "_GRID_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(200 + block_rows)
        for _ in range(20):
            dims = int(rng.integers(2, 4))
            lo = float(rng.uniform(-2.0, 0.0))
            hi = lo + float(rng.uniform(0.5, 3.0))
            step = (hi - lo) / float(rng.uniform(10.0, [0, 0, 150.0, 40.0][dims]))
            values, bound = _bounded_function(rng, dims)
            rounds = int(rng.integers(0, 4))
            point, value = grid_search(lo, hi, step, dims, _at_least_two_rows(values), rounds, bound)
            want_point, want_value = _full_grid_search(lo, hi, step, dims, values, rounds)
            assert point.tobytes() == want_point.tobytes()
            assert value == want_value

    def test_more_rounds_never_lower_the_value(self):
        for lo, hi, step, dims, values in self._cases(7):
            found = [grid_search(lo, hi, step, dims, values, rounds)[1] for rounds in range(5)]
            assert found == sorted(found)


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

    def test_non_finite_start_objective_raises(self):
        # an in-domain start whose value is -inf (a surrogate's reject
        # signal) has no ascent to measure from
        with pytest.raises(InvalidStartError, match="non-finite objective"):
            maximize_subproblem(
                lambda x: (-math.inf, None), box_set(0.0, 1.0), np.array([0.5]), SolveOptions()
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


def _reference_maximize_subproblem(objective, feasible, x0, opts, step0=None):
    """:func:`maximize_subproblem` before its step reused the last trial's
    move and ``d @ d``, verbatim but for this docstring: the bits it pins."""
    x = np.asarray(x0, dtype=float).copy()
    if not feasible.in_domain(x):
        raise InvalidStartError("subproblem start is outside the open domain")
    f, g = objective(x)
    if not math.isfinite(f):
        raise InvalidStartError("subproblem start has non-finite objective")

    t = step0 if step0 is not None else 1.0 / (1.0 + float(np.linalg.norm(g)))
    t = min(max(t, _STEP_MIN), _STEP_MAX)
    window = [f] * _NONMONOTONE_WINDOW
    x_best, f_best = x, f
    last_gain = 0
    converged = False
    iters = 0

    for iters in range(1, opts.max_inner + 1):
        r = x - feasible.project(x + g)
        residual = math.sqrt(float(r @ r))  # np.linalg.norm's sqrt(dot(r, r))
        if residual <= opts.inner_tol * (1.0 + abs(f)):
            converged = True
            iters -= 1
            break
        if iters - last_gain > _STALL_LIMIT:
            break

        f_ref = min(window)  # ascent mirror of the descent reference
        accepted = False
        tt = t
        x_old, g_old = x, g
        for _ in range(_MAX_BACKTRACKS):
            trial = feasible.project(x + tt * g)
            d = trial - x
            if float(d @ d) == 0.0:
                break
            if feasible.in_domain(trial):
                ft, gt = objective(trial)
                if math.isfinite(ft) and ft >= f_ref + _ARMIJO_C * float(g @ d):
                    x, f, g = trial, ft, gt
                    accepted = True
                    break
            tt *= _BACKTRACK_FACTOR
        if not accepted:
            break
        window.pop(0)
        window.append(f)
        if f > f_best:
            if f > f_best + 1e-13 * (1.0 + abs(f_best)):
                last_gain = iters
            x_best, f_best = x, f
        # spectral step from the accepted move
        dx = x - x_old
        dg = g - g_old
        denom = -float(dx @ dg)  # >= 0 for concave objectives
        if denom > 0:
            t = float(dx @ dx) / denom
        else:
            t = tt * 2.0
        t = min(max(t, _STEP_MIN), _STEP_MAX)

    if f_best > f:
        x = x_best
        converged = False
    return x, InnerResult(iterations=iters, converged=converged, step=t)


def _subproblem_runs():
    """Seeded ``(problem, start, max_outer)`` MM runs of every application
    whose subproblems backtrack, reject trials with ``-inf`` and stop on a
    stall. The secure starts are late iterates of the plain runs from the
    second ``_accelerated_cases`` draw, where the inner solve crawls."""
    (direct, full), (fast, _), (climbing, flat) = list(_accelerated_cases(2))[7:10]
    p = float(full[0])
    yield aoi.build_aoi_problem(aoi.AoiScenario(k=6, mu=1.5)), np.full(6, 0.25), 20
    yield direct, np.array([1.2610488386979167e-15, p, p, 0.8719026955327588]), 3
    yield direct, np.array([2.4005624976018325e-13, p, p, 0.8719026955509551]), 3
    yield fast, np.array([3.8630732577276316e-13, p, p, 0.8060075108111963]), 2
    yield fast, full, 8
    yield climbing, flat, 30
    sc = radar.benchmark_scenario(10.0)
    yield radar.RadarMmProblem(sc), radar.stack_waveforms(radar.flat_waveforms(sc)), 4


class _Logged:
    """An objective and a feasible set that log their calls in order:
    ``("P", projection)`` and ``("O", point, value)``."""

    def __init__(self, objective, feasible):
        self.log = []
        self._objective, self._feasible = objective, feasible
        self.feasible = FeasibleSet(project=self._project, in_domain=feasible.in_domain)

    def _project(self, x):
        out = self._feasible.project(x)
        self.log.append(("P", out.copy()))
        return out

    def objective(self, x):
        value, grad = self._objective(x)
        self.log.append(("O", x.copy(), value))
        return value, grad


class TestSameBitsAsReference:
    def test_matches_the_reference_copy_bitwise(self, monkeypatch):
        seen = {"subproblems": 0, "backtracks": 0, "rejected": 0, "stalls": 0}
        current = solver.maximize_subproblem

        def both(objective, feasible, x0, opts, step0=None):
            runs = []
            for impl in (current, _reference_maximize_subproblem):
                logged = _Logged(objective, feasible)
                runs.append((*impl(logged.objective, logged.feasible, x0, opts, step0), logged.log))
            (x, info, log), (x_ref, info_ref, log_ref) = runs
            assert x.tobytes() == x_ref.tobytes()
            assert (info.iterations, info.converged) == (info_ref.iterations, info_ref.converged)
            assert info.step.hex() == info_ref.step.hex()
            assert [e[0] for e in log] == [e[0] for e in log_ref]
            assert all(a[-1].tobytes() == b[-1].tobytes() for a, b in zip(log, log_ref) if a[0] == "P")
            values = [e[2] for e in log if e[0] == "O"]
            seen["subproblems"] += 1
            seen["backtracks"] += len(values) - 1 > info.iterations
            seen["rejected"] += -math.inf in values
            # the stall test is the one exit taken right after a residual
            # projection that does not meet the tolerance
            if [e[0] for e in log[-2:]] == ["O", "P"] and info.iterations < opts.max_inner:
                (_, x_last, f_last), (_, projected) = log[-2:]
                residual = math.sqrt(float((x_last - projected) @ (x_last - projected)))
                seen["stalls"] += residual > opts.inner_tol * (1.0 + abs(f_last))
            return x, info

        monkeypatch.setattr(solver, "maximize_subproblem", both)
        for problem, start, max_outer in _subproblem_runs():
            run_mm(problem, start, SolveOptions(max_outer=max_outer))
        assert min(seen.values()) >= 2, seen


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
        (OuterFunction("log1p"), OuterFunction("neg_identity")),
        box_set(np.zeros(2), np.ones(2)),
    )


class TestRunMm:
    def test_out_of_domain_start_raises(self):
        problem = MixedFpProblem(
            affine_fractions([[1.0]], [0.0], [[0.0]], [1.0]),
            (OuterFunction("identity"),),
            FeasibleSet(project=box_set(0.0, 1.0).project, in_domain=lambda x: bool(x[0] > 0.5)),
        )
        with pytest.raises(InvalidStartError, match="initial point is outside the open domain"):
            run_mm(problem, np.array([0.2]))

    def test_single_max_ratio_hits_upper_bound(self):
        problem = _ratio_problem(lambda t: (t, 1.0), _unit, OuterFunction("identity"), [0.0], [1.0])
        x, trace = run_mm(problem, np.array([0.1]))
        assert x[0] == pytest.approx(1.0, abs=1e-8)
        assert trace.records[-1].objective == pytest.approx(1.0, abs=1e-8)
        assert trace.outer_iterations <= 3

    def test_single_min_ratio_interior_optimum(self):
        problem = _ratio_problem(
            _shifted_square, _unit, OuterFunction("neg_identity"), [0.0], [5.0]
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
            lambda t: (t * t, 2.0 * t), lambda t: (1.0 + t, 1.0), OuterFunction("log1p"), [0.0], [4.0]
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


def _accelerated_cases(draws: int):
    """Seeded ``(problem, start)`` pairs from every application's random
    generator: mixed and log-ratio programs, secure (direct and fast) and
    radar."""
    rng = np.random.default_rng(13)
    for _ in range(draws):
        problem, dim = verify.random_mixed_problem(rng)
        yield problem, rng.uniform(0.5, 2.0, dim)
        problem, dim = verify.random_log_ratio_problem(rng, feasible=box_set(0.0, 3.0))
        yield problem, rng.uniform(0.0, 3.0, dim)
        sc = verify.random_secure_scenario(rng)
        yield secure.build_direct_problem(sc), np.full(sc.l_cells, sc.p_max)
        yield secure.build_fast_problem(sc), np.full(sc.l_cells, sc.p_max)
        # from the flat start: with L >= M the MM start is the bound, where
        # no extrapolation is tried
        sc = verify.random_radar_scenario(rng)
        yield radar.RadarMmProblem(sc), radar.stack_waveforms(radar.flat_waveforms(sc))


class _Recorder:
    """Forwards the MM protocol of ``problem`` and logs the objective values
    ``run_mm`` asks for: ``values[0]`` at the start, then per map the plain
    map's value followed by any extrapolation trials. With ``spoil``, every
    trial's value is passed through it before ``run_mm`` sees it, so a trial
    can be made worse."""

    def __init__(self, problem, spoil=None):
        self.problem = problem
        self.feasible = problem.feasible
        self.spoil = spoil
        self.values = [[]]

    def update_aux(self, x):
        self.values.append([])
        return self.problem.update_aux(x)

    def surrogate(self, x, aux):
        return self.problem.surrogate(x, aux)

    def objective(self, x):
        value = self.problem.objective(x)
        self.values[-1].append(value)
        if self.spoil is not None and len(self.values[-1]) > 1:
            return self.spoil(value)
        return value


def _raise_domain_error(value):
    raise DomainError("spoiled trial")


class TestAcceleration:
    ON = SolveOptions(accelerate=True)

    def test_accelerated_traces_are_monotone(self):
        accepted = 0
        for problem, x0 in _accelerated_cases(8):
            x, trace = run_mm(problem, x0, self.ON)
            assert verify.monotone(trace.objectives)
            assert trace.records[-1].objective == problem.objective(x)
            accepted += sum(r.extrapolated for r in trace.records)
        assert accepted > 0

    def test_accepted_steps_beat_the_plain_map_of_their_cycle(self):
        accepted = 0
        for problem, x0 in _accelerated_cases(8):
            recorder = _Recorder(problem)
            _, trace = run_mm(recorder, x0, self.ON)
            for record, values in zip(trace.records[1:], recorder.values[1:]):
                plain, *trials = values
                if record.extrapolated:
                    accepted += 1
                    assert record.objective == trials[-1] >= plain
                else:
                    assert record.objective == plain
        assert accepted > 0

    @pytest.mark.parametrize(
        "spoil", [lambda v: v - 1.0 - abs(v), lambda v: math.nan, _raise_domain_error],
        ids=["worse", "nan", "domain-error"],
    )
    def test_rejected_extrapolations_keep_the_plain_map(self, spoil):
        # every trial is rejected, so each cycle keeps x2: the run is plain
        # MM (on a budget, as plain MM crawls on some of these draws)
        plain_opts = SolveOptions(max_outer=30, max_inner=100)
        trials = 0
        for problem, x0 in _accelerated_cases(3):
            recorder = _Recorder(problem, spoil)
            x, trace = run_mm(recorder, x0, replace(plain_opts, accelerate=True))
            x_plain, plain = run_mm(problem, x0, plain_opts)
            assert x.tobytes() == x_plain.tobytes()
            assert trace.objectives.tobytes() == plain.objectives.tobytes()
            assert not any(r.extrapolated for r in trace.records)
            trials += sum(len(v) - 1 for v in recorder.values[1:])
        assert trials > 0

    def test_negated_trace_keeps_the_flag(self):
        records = [IterationRecord(0, 1.0, 0.0, 0), IterationRecord(1, 2.0, 0.5, 3, True)]
        negated = IterationTrace(records=records).negated().records
        assert [(r.objective, r.extrapolated) for r in negated] == [(-1.0, False), (-2.0, True)]


class TestStationarityResidual:
    def test_interior_maximum(self):
        problem = _ratio_problem(
            _shifted_square, _unit, OuterFunction("neg_identity"), [0.0], [5.0]
        )
        assert stationarity_residual(problem, np.array([2.0])) <= 1e-6

    def test_boundary_optimum_with_inward_gradient(self):
        problem = _ratio_problem(lambda t: (t, 1.0), _unit, OuterFunction("identity"), [0.0], [1.0])
        assert stationarity_residual(problem, np.array([1.0])) <= 1e-6

    def test_non_stationary_point_detected(self):
        problem = _ratio_problem(
            _shifted_square, _unit, OuterFunction("neg_identity"), [0.0], [5.0]
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
    # a zero objective that stays zero has converged, as in run_mm's stall test
    zeros = IterationTrace(records=[IterationRecord(i, 0.0, 0.0, 1) for i in range(3)])
    assert iterations_to_relative_convergence(zeros, 1e-6) == 1
    # a trace that never stalls gives its last outer index
    climbing = IterationTrace(records=[IterationRecord(i, 2.0**i, 0.0, 1) for i in range(4)])
    assert iterations_to_relative_convergence(climbing, 1e-6) == 3


def test_solve_options_validation():
    with pytest.raises(InvalidInputError):
        SolveOptions(outer_tol=0.0)
    with pytest.raises(InvalidInputError):
        SolveOptions(inner_tol=-1.0)
    with pytest.raises(InvalidInputError):
        SolveOptions(max_inner=0)
    with pytest.raises(InvalidInputError):
        SolveOptions(max_outer=0)


def test_solve_options_counts_follow_the_scenario_count_rule():
    # numpy integers pass and are stored as int; floats, bools and counts
    # below 1 are rejected with the field's name
    opts = SolveOptions(max_outer=np.int64(5), max_inner=np.int32(7))
    assert (opts.max_outer, opts.max_inner) == (5, 7)
    assert all(type(v) is int for v in (opts.max_outer, opts.max_inner))
    for value in (2.5, True, -1):
        with pytest.raises(InvalidInputError, match="max_outer"):
            SolveOptions(max_outer=value)
    with pytest.raises(InvalidInputError, match="max_inner"):
        SolveOptions(max_inner=3.0)


def test_solve_options_hold_no_seed():
    # no solve draws random numbers; the config's seed is checked by the CLI
    assert [f.name for f in fields(SolveOptions)] == ["outer_tol", "max_outer", "inner_tol", "max_inner", "accelerate"]
    with pytest.raises(TypeError, match="seed"):
        SolveOptions(seed=0)


def test_solve_options_accelerate_takes_bools_only():
    assert SolveOptions().accelerate is False
    assert SolveOptions(accelerate=np.bool_(True)).accelerate is True
    for value in (1, 0, "yes", None, 1.0):
        with pytest.raises(InvalidInputError, match="accelerate"):
            SolveOptions(accelerate=value)
