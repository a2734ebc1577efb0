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

from .errors import InvalidInputError, count
from .fp_core import MixedFpProblem, OuterFunction
from .solver import IterationTrace, SolveOptions, box_set, grid_search, run_mm

# Rates at or below this fraction of mu are outside the open domain: the
# average age diverges as lambda_k -> 0.
_RATE_FLOOR_REL = 1e-9


@dataclass(frozen=True)
class AoiScenario:
    """Number of sources and the shared service rate (packets/unit time)."""

    k: int
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "k", count("k", self.k))
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


def sum_aoi(rates, mu: float) -> float:
    """Total average age across all sources."""
    return float(_sum_aoi_batch(np.asarray(rates, dtype=float)[None], mu)[0])


def _age_fractions(rhat: np.ndarray, own: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The two-fraction split of every source's age: numerators and
    denominators along the last axis, rows ``2k`` and ``2k+1`` for source
    k, from its accumulated earlier load ``rhat_k`` and its own rate
    (a rate vector or a (batch, K) rate array)."""
    A, B = np.empty((2,) + own.shape[:-1] + (2 * own.shape[-1],))
    A[..., 0::2] = rhat**2 + 3 * rhat + 1
    A[..., 1::2] = (rhat + 1) ** 2
    B[..., 0::2] = mu * (1 + rhat)
    B[..., 1::2] = own
    return A, B


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
        A, B = _age_fractions(rhat, x, mu)
        dA = np.empty(2 * k_sources)
        dA[0::2] = 2 * rhat + 3
        dA[1::2] = 2 * (rhat + 1)
        dA /= mu
        return A, B, dA[:, None] * earlier, jac_b

    floor = _RATE_FLOOR_REL * mu
    feasible = box_set(0.0, mu, in_domain=lambda x: bool((np.asarray(x) > floor).all()))
    outers = (OuterFunction("neg_identity", 1.0),) * (2 * k_sources)
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
    """Best common rate, by :func:`~mmfp.solver.grid_search` on a grid of
    step ``mu/10,000`` refined six times."""
    mu, k = scenario.mu, scenario.k
    best, neg_age = grid_search(0.0, mu, mu / 10_000, 1, lambda v: -_sum_aoi_batch(np.repeat(v, k, axis=1), mu), 6)
    return np.repeat(best, k), -neg_age


def _sum_aoi_lower_bound(lo_rows: np.ndarray, hi_rows: np.ndarray, mu: float) -> np.ndarray:
    """Lower bound of the total age over each box ``[lo, hi]`` of rates, from
    the two-fraction split: both fractions of source k grow with ``rhat_k``
    and the second falls with ``rho_k``, so the earlier rates sit at ``lo``
    and the own rate at ``hi`` (``+inf`` where that is zero)."""
    A, B = _age_fractions(_loads(lo_rows, mu)[1], hi_rows, mu)
    with np.errstate(divide="ignore"):
        return (A / B).sum(axis=1)


def oracle_grid(scenario: AoiScenario) -> tuple[np.ndarray, float]:
    """Exhaustive search over the rate box by :func:`~mmfp.solver.grid_search`:
    51 points per rate, then three refinements. Boxes of rates whose age
    bound cannot reach the incumbent are not scanned; the answer is the
    full scan's.

    Cost grows exponentially in ``K``; refuses ``K > 3``.
    """
    if scenario.k > 3:
        raise InvalidInputError("exhaustive search is limited to K <= 3")
    mu = scenario.mu
    best, neg_age = grid_search(
        0.0, mu, 0.02 * mu, scenario.k,
        lambda rows: -_sum_aoi_batch(rows, mu), 3,
        lambda lo, hi: -_sum_aoi_lower_bound(lo, hi, mu),
    )
    return best, -neg_age
