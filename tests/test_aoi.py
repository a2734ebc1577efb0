import math
import tracemalloc

import numpy as np
import pytest

from mmfp import aoi, solver, verify
from mmfp.aoi import (
    AoiScenario,
    _sum_aoi_batch,
    avg_aoi,
    baseline_equal_rate,
    baseline_max_rate,
    build_aoi_problem,
    oracle_grid,
    run_algorithm1,
    sum_aoi,
)
from mmfp.errors import InvalidInputError
from mmfp.solver import grid_search


class TestAvgAoi:
    def test_first_source_unit_rate(self):
        assert avg_aoi(0, [1.0], 1.0) == pytest.approx(2.0)

    def test_first_source_half_rate(self):
        assert avg_aoi(0, [0.5], 1.0) == pytest.approx(3.0)

    def test_second_source_with_load(self):
        assert avg_aoi(1, [1.0, 1.0], 1.0) == pytest.approx(6.5)

    def test_zero_rate_diverges(self):
        assert avg_aoi(0, [0.0, 1.0], 1.0) == math.inf


def _fraction_rows(source: int, rates, mu: float) -> tuple[float, float]:
    """Source ``source``'s two fractions, rows ``2 source`` and ``2 source +
    1`` of the AoI problem."""
    A, B, _, _ = build_aoi_problem(AoiScenario(k=len(rates), mu=mu)).fractions(np.asarray(rates, dtype=float))
    return A[2 * source] / B[2 * source], A[2 * source + 1] / B[2 * source + 1]


class TestDecomposition:
    def test_first_source(self):
        assert _fraction_rows(0, [1.0], 1.0) == pytest.approx((1.0, 1.0))

    def test_second_source(self):
        assert _fraction_rows(1, [1.0, 1.0], 1.0) == pytest.approx((2.5, 4.0))

    def test_parts_sum_to_whole(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            assert verify.age_split(*verify.random_age_case(rng))


class TestProblemConstruction:
    def test_term_count(self):
        assert len(build_aoi_problem(AoiScenario(k=1, mu=1.0)).outers) == 2

    def test_fractions_reproduce_the_decomposition(self):
        # rows 2k and 2k+1 are source k's two fractions, in order, and they
        # sum to its age
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            mu = float(rng.uniform(0.2, 3.0))
            lam = rng.uniform(0.01, 1.0, k) * mu
            for src in range(k):
                first, second = _fraction_rows(src, lam, mu)
                assert first + second == pytest.approx(avg_aoi(src, lam, mu), rel=1e-12)

    def test_objective_is_negative_total_age(self):
        problem = build_aoi_problem(AoiScenario(k=2, mu=1.0))
        assert problem.objective(np.array([1.0, 1.0])) == pytest.approx(-8.5)

    def test_gradient_matches_finite_differences(self):
        problem = build_aoi_problem(AoiScenario(k=3, mu=1.5))
        rng = np.random.default_rng(1)
        for _ in range(10):
            lam = rng.uniform(0.1, 1.4, 3)
            assert verify.fraction_gradients(problem, lam)

    def test_domain_excludes_zero_rates(self):
        problem = build_aoi_problem(AoiScenario(k=2, mu=1.0))
        assert not problem.feasible.in_domain(np.array([0.0, 0.5]))
        assert problem.feasible.in_domain(np.array([0.5, 0.5]))


class TestAlgorithm1:
    def test_single_source_goes_to_full_rate(self):
        rates, trace = run_algorithm1(AoiScenario(k=1, mu=1.0))
        assert rates[0] == pytest.approx(1.0, abs=1e-8)
        assert trace.records[-1].objective == pytest.approx(2.0, abs=1e-8)

    def test_three_sources_match_grid_oracle(self):
        scenario = AoiScenario(k=3, mu=1.0)
        _, trace = run_algorithm1(scenario)
        _, oracle_val = oracle_grid(scenario)
        final = trace.records[-1].objective
        assert abs(final - oracle_val) <= 1e-3 * oracle_val

    def test_trace_is_nonincreasing(self):
        _, trace = run_algorithm1(AoiScenario(k=4, mu=1.0))
        assert verify.monotone(trace.objectives, -1.0)


class TestBaselines:
    def test_equal_rate_single_source(self):
        rates, value = baseline_equal_rate(AoiScenario(k=1, mu=1.0))
        assert rates[0] == pytest.approx(1.0, abs=1e-3)
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_equal_rate_matches_dense_scan(self):
        scenario = AoiScenario(k=2, mu=1.0)
        _, value = baseline_equal_rate(scenario)
        grid = np.linspace(1e-4, 1.0, 10000)
        dense = min(sum_aoi(np.full(2, v), 1.0) for v in grid)
        assert value <= dense + 1e-8

    def test_max_rate_values(self):
        assert baseline_max_rate(AoiScenario(k=1, mu=1.0))[1] == pytest.approx(2.0)
        assert baseline_max_rate(AoiScenario(k=2, mu=1.0))[1] == pytest.approx(8.5)

    def test_algorithm_dominates_baselines(self):
        for k in range(1, 11):
            scenario = AoiScenario(k=k, mu=1.0)
            _, trace = run_algorithm1(scenario)
            final = trace.records[-1].objective
            assert final <= baseline_equal_rate(scenario)[1] + 1e-9
            assert final <= baseline_max_rate(scenario)[1] + 1e-9


class TestOracle:
    def test_single_source_full_rate(self):
        rates, _ = oracle_grid(AoiScenario(k=1, mu=1.0))
        assert rates[0] == pytest.approx(1.0)

    def test_refinement_is_stable(self):
        # a fourth refinement round barely moves the oracle's value
        _, v1 = oracle_grid(AoiScenario(k=2, mu=1.0))
        _, neg_v2 = grid_search(0.0, 1.0, 0.02, 2, lambda rows: -_sum_aoi_batch(rows, 1.0), 4)
        assert -neg_v2 <= v1
        assert abs(v1 + neg_v2) <= 1e-5 * v1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_a_full_grid_scan_bitwise(self, monkeypatch, k):
        def at_least_two_rows(rows, mu):
            assert len(rows) >= 2, "ages evaluated on a single row"
            return _sum_aoi_batch(rows, mu)

        def no_descent(*_args):
            raise AssertionError("a grid of one block is pruned")

        monkeypatch.setattr(aoi, "_sum_aoi_batch", at_least_two_rows)
        if k < 3:  # the 51^k grid fits in one block and scans as without a bound
            monkeypatch.setattr(solver, "_unpruned", no_descent)

        def scan(axes, mu):
            batch = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
            values = _sum_aoi_batch(batch, mu)
            return batch[int(np.argmin(values))], float(values.min())

        for mu in (1.0, 0.37, 0.5, 2.0, 7.3):
            # 51 rates per source from 0 (infinite age) to mu, then three refinements
            step = 0.02 * mu
            want, want_val = scan([np.arange(0.0, mu + step / 2, step)] * k, mu)
            for _ in range(3):
                step /= 10.0
                rates, val = scan([np.clip(b + step * np.arange(-10, 11), 0.0, mu) for b in want], mu)
                if val < want_val:
                    want, want_val = rates, val
            got, got_val = oracle_grid(AoiScenario(k=k, mu=mu))
            assert got.tobytes() == want.tobytes()
            assert got_val == want_val

    def test_scans_in_bounded_memory(self):
        # one full-grid batch of the 50^3 coarse scan peaks near 21 MB
        tracemalloc.start()
        try:
            oracle_grid(AoiScenario(k=3, mu=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_refuses_large_source_counts(self):
        with pytest.raises(InvalidInputError):
            oracle_grid(AoiScenario(k=4, mu=1.0))


def test_total_age_is_order_sensitive():
    assert verify.total_age_order_sensitive(np.array([0.3, 0.9, 0.6]))


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        AoiScenario(k=0, mu=1.0)
    with pytest.raises(InvalidInputError):
        AoiScenario(k=2, mu=0.0)


@pytest.mark.parametrize("k", [2.5, 2.0, True])
def test_source_count_must_be_an_integer(k):
    # k=2.5 built a scenario whose equal-rate baseline answered for two sources
    with pytest.raises(InvalidInputError, match="must be an integer"):
        AoiScenario(k=k, mu=1.0)


def test_source_count_accepts_numpy_integers():
    sc = AoiScenario(k=np.int64(3), mu=1.0)
    assert sc.k == 3 and type(sc.k) is int
