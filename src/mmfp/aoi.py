"""Update-rate control minimizing the average age of information.

``K`` sources push updates at rates ``lambda_k`` into one preemptive
last-come-first-serve server of rate ``mu``. With ``rho_k = lambda_k / mu``
and the accumulated earlier load ``rhat_k = sum_{i<k} rho_i``, the
long-run average age of source ``k`` is

    (1 + rho + 3*rhat + 3*rhat*rho + 3*rhat^2 + rhat^2*rho + rhat^3)
    -----------------------------------------------------------------
                      mu * rho * (1 + rhat)

which algebraically splits into two convex-over-concave fractions

    (rhat^2 + 3*rhat + 1) / (mu * (1 + rhat))  +  (rhat + 1)^2 / (mu * rho),

so minimizing the sum age over the box ``0 <= lambda_k <= mu`` is a
min-only mixed fractional program with ``2K`` ratios. Note the age is
*not* symmetric under permuting the rates: ``rhat_k`` depends on the
source order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .fp_core import MixedFpProblem, OuterFunction
from .solver import IterationTrace, SolveOptions, box_set, grid_argmax, run_mm

# Rates at or below this fraction of mu are outside the open domain: the
# average age diverges as lambda_k -> 0.
_RATE_FLOOR_REL = 1e-9


@dataclass(frozen=True)
class AoiScenario:
    """Number of sources and the shared service rate (packets/unit time)."""

    k: int
    mu: float

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("need at least one source")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise InvalidInputError("service rate must be positive and finite")


def _loads(rates: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Own loads ``rho`` and accumulated earlier loads ``rhat`` along the
    last axis of a rate vector or a (batch, K) rate array."""
    rho = np.asarray(rates, dtype=float) / mu
    earlier = np.cumsum(rho[..., :-1], axis=-1)
    rho_hat = np.concatenate((np.zeros(rho.shape[:-1] + (1,)), earlier), axis=-1)
    return rho, rho_hat


def _ages(rate_rows: np.ndarray, mu: float) -> np.ndarray:
    """Average age of every source, row by row of a (batch, K) rate array;
    ``+inf`` where a source's own rate is zero."""
    rho, rho_hat = _loads(rate_rows, mu)
    num = (
        1
        + rho
        + 3 * rho_hat
        + 3 * rho_hat * rho
        + 3 * rho_hat**2
        + rho_hat**2 * rho
        + rho_hat**3
    )
    with np.errstate(divide="ignore"):
        return np.where(rho > 0, num / (mu * np.maximum(rho, 1e-300) * (1 + rho_hat)), np.inf)


def _sum_aoi_batch(rate_rows: np.ndarray, mu: float) -> np.ndarray:
    """Total average age of each row of a (batch, K) rate array."""
    return _ages(rate_rows, mu).sum(axis=1)


def avg_aoi(source: int, rates, mu: float) -> float:
    """Average age of ``source`` (0-based) at the given rate vector.

    Returns ``+inf`` when the source's own rate is zero.
    """
    return float(_ages(np.asarray(rates, dtype=float)[None], mu)[0, source])


def avg_aoi_decomposed(source: int, rates, mu: float) -> tuple[float, float]:
    """The two-fraction split of :func:`avg_aoi`; the parts sum to it exactly."""
    rho, rho_hat = _loads(rates, mu)
    r = rho[source]
    h = rho_hat[source]
    first = (h * h + 3 * h + 1) / (mu * (1 + h))
    second = math.inf if r <= 0 else (h + 1) ** 2 / (mu * r)
    return first, second


def sum_aoi(rates, mu: float) -> float:
    """Total average age across all sources."""
    return float(_sum_aoi_batch(np.asarray(rates, dtype=float)[None], mu)[0])


def build_aoi_problem(scenario: AoiScenario) -> MixedFpProblem:
    """Min-only mixed FP whose objective equals minus the total average age.

    All ``2K`` ratios carry the decreasing outer ``-r``; source k gives rows
    ``2k`` and ``2k+1`` of its two fractions. Numerators are convex and
    denominators concave in the rates, with analytic Jacobians; one
    ``cumsum`` gives every ``rhat_k``.
    """
    k_sources = scenario.k
    mu = scenario.mu
    # both fractions of source k depend on the earlier rates through rhat_k
    earlier = np.repeat(np.tri(k_sources, k=-1), 2, axis=0)
    jac_b = earlier.copy()
    jac_b[1::2] = np.eye(k_sources)
    jac_b.flags.writeable = False

    def fractions(x: np.ndarray):
        _, rhat = _loads(x, mu)
        A = np.column_stack([rhat**2 + 3 * rhat + 1, (rhat + 1) ** 2]).ravel()
        B = np.column_stack([mu * (1 + rhat), x]).ravel()
        dA = np.column_stack([2 * rhat + 3, 2 * (rhat + 1)]).ravel() / mu
        return A, B, dA[:, None] * earlier, jac_b

    floor = _RATE_FLOOR_REL * mu
    feasible = box_set(0.0, mu, in_domain=lambda x: bool(np.all(np.asarray(x) > floor)))
    outers = (OuterFunction.neg_identity(1.0),) * (2 * k_sources)
    return MixedFpProblem(fractions, outers, feasible)


def run_algorithm1(
    scenario: AoiScenario, opts: SolveOptions | None = None
) -> tuple[np.ndarray, IterationTrace]:
    """Alternating rate control from the interior start ``lambda_k = mu/K``.

    The returned trace reports the total average age (positive,
    nonincreasing) per outer iteration.
    """
    problem = build_aoi_problem(scenario)
    x0 = np.full(scenario.k, scenario.mu / scenario.k)
    rates, trace = run_mm(problem, x0, opts)
    return rates, trace.negated()


def baseline_max_rate(scenario: AoiScenario) -> tuple[np.ndarray, float]:
    """Every source transmits at the full service rate."""
    rates = np.full(scenario.k, scenario.mu)
    return rates, sum_aoi(rates, scenario.mu)


def baseline_equal_rate(scenario: AoiScenario) -> tuple[np.ndarray, float]:
    """Best common rate: dense 1-D grid scan plus golden-section refinement."""
    mu = scenario.mu
    n = 10_000  # grid step mu / n
    lam = mu * np.arange(1, n + 1) / n
    values = _sum_aoi_batch(np.repeat(lam[:, None], scenario.k, axis=1), mu)
    i_best = int(np.argmin(values))
    lo = lam[max(i_best - 1, 0)]
    hi = lam[min(i_best + 1, n - 1)]

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)

    def f(v: float) -> float:
        return sum_aoi(np.full(scenario.k, v), mu)

    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    best = (a + b) / 2.0
    if f(best) > values[i_best]:
        best = float(lam[i_best])
    return np.full(scenario.k, best), f(best)


def oracle_grid(scenario: AoiScenario, refine_rounds: int = 3) -> tuple[np.ndarray, float]:
    """Exhaustive grid search over the rate box, then local refinement; each
    grid is scanned in fixed-size blocks (:func:`~mmfp.solver.grid_argmax`).

    Cost grows exponentially in ``K``; refuses ``K > 3``.
    """
    if scenario.k > 3:
        raise InvalidInputError("exhaustive search is limited to K <= 3")
    mu = scenario.mu

    def neg_age(rate_rows: np.ndarray) -> np.ndarray:
        return -_sum_aoi_batch(rate_rows, mu)

    step = 0.02 * mu
    best, best_neg = grid_argmax([np.arange(step, mu + step / 2, step)] * scenario.k, neg_age)
    for _ in range(refine_rounds):
        step /= 10.0
        rates, neg = grid_argmax([np.clip(b + step * np.arange(-10, 11), 1e-9 * mu, mu) for b in best], neg_age)
        if neg > best_neg:
            best, best_neg = rates, neg
    return best, -best_neg
