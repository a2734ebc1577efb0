"""Power control maximizing weighted secure data rates.

``L`` base stations each serve one downlink user; the first ``K`` cells
also contain an eavesdropper. With transmit powers ``p`` (mW), legitimate
gain matrix ``h2[i, j] = |h_ij|^2`` (receiver i, transmitter j) and
eavesdropper gains ``ht2[k, j]``, cell i's rate in nats is

    R_i = ln(1 + S_i) - ln(1 + St_i)   (i < K, secrecy rate)
    R_i = ln(1 + S_i)                  (i >= K)

where ``S_i`` is the user SINR and ``St_k`` the eavesdropper SINR. The
eavesdropper penalty also equals ``ln(1 - ht2[kk] p_k / (sum_j ht2[kj] p_j
+ noise))`` with the whole-row denominator, which is the form whose ratio
is minimized by a decreasing outer, so the weighted sum rate is a mixed
max-and-min fractional program over the box ``0 <= p_i <= P``.

Two solvers are provided:

* :func:`run_algorithm3` -- the ratio transforms applied directly to the
  logarithmic objective (tighter surrogate, per-iteration subproblems
  contain logarithms);
* :func:`run_algorithm4` -- the dual decoupling of
  :mod:`mmfp.lagrangian_dual` first moves the ratios out of the
  logarithms, then the same transforms give a logarithm-free concave
  subproblem (looser surrogate, cheaper iterations).

Weights multiply each cell's full rate in both methods, so both optimize
the same objective. Rates are converted to bits only at reporting
boundaries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .fp_core import Fractions, MixedFpProblem, OuterFunction, affine_fractions
from .lagrangian_dual import LogRatioMmProblem
from .solver import IterationTrace, MmProblem, SolveOptions, box_set, grid_search, run_mm
from .units import dbm_to_mw, nats_to_bits


@dataclass(frozen=True)
class SecureScenario:
    """Channel gains (linear), noise powers and the shared power cap (mW).

    ``h2`` is L x L (legitimate links), ``ht2`` is K x L (eavesdroppers of
    the first K cells); ``w`` are the nonnegative per-cell rate weights.
    """

    h2: np.ndarray
    ht2: np.ndarray
    sigma2: np.ndarray
    sigma2_tilde: np.ndarray
    p_max: float
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h2", np.asarray(self.h2, dtype=float))
        if self.h2.ndim != 2 or self.h2.shape[0] != self.h2.shape[1]:
            raise InvalidInputError("h2 must be square")
        object.__setattr__(self, "ht2", np.asarray(self.ht2, dtype=float).reshape(-1, self.h2.shape[0]))
        object.__setattr__(self, "sigma2", np.broadcast_to(np.asarray(self.sigma2, dtype=float), (self.h2.shape[0],)).copy())
        object.__setattr__(self, "sigma2_tilde", np.broadcast_to(np.asarray(self.sigma2_tilde, dtype=float), (self.ht2.shape[0],)).copy())
        object.__setattr__(self, "w", np.broadcast_to(np.asarray(self.w, dtype=float), (self.h2.shape[0],)).copy())
        if self.ht2.shape[0] > self.h2.shape[0]:
            raise InvalidInputError("cannot have more eavesdroppers than cells")
        arrays = (self.h2, self.ht2, self.sigma2, self.sigma2_tilde, self.w)
        if not (all(np.isfinite(a).all() for a in arrays) and math.isfinite(self.p_max)):
            raise InvalidInputError("gains, noise powers, power cap and weights must be finite")
        if (self.h2 < 0).any() or (self.ht2 < 0).any():
            raise InvalidInputError("channel gains must be nonnegative")
        if (self.h2.diagonal() <= 0).any():
            raise InvalidInputError("direct-link gains must be positive")
        if (self.ht2.diagonal() <= 0).any():  # eavesdropper k sits in cell k
            raise InvalidInputError("eavesdropper self-cell gains must be positive")
        if (self.sigma2 <= 0).any() or (self.sigma2_tilde <= 0).any():
            raise InvalidInputError("noise powers must be positive")
        if self.p_max <= 0:
            raise InvalidInputError("power cap must be positive")
        if (self.w < 0).any():
            raise InvalidInputError("weights must be nonnegative")

    @property
    def l_cells(self) -> int:
        return self.h2.shape[0]

    @property
    def k_eavesdropped(self) -> int:
        return self.ht2.shape[0]

    def with_weights(self, w) -> "SecureScenario":
        return replace(self, w=np.asarray(w, dtype=float))


def two_link_benchmark() -> SecureScenario:
    """Two mutually interfering cells, both eavesdropped (experiment setup)."""
    return SecureScenario(
        h2=[[1.0, 0.1], [0.09, 0.87]],
        ht2=[[0.5, 0.11], [0.13, 0.39]],
        sigma2=dbm_to_mw(-10.0),
        sigma2_tilde=dbm_to_mw(0.0),
        p_max=dbm_to_mw(10.0),
        w=1.0,
    )


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------


def _sinrs(
    scenario: SecureScenario, p_rows: np.ndarray, lo_rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """User SINRs (batch, L) and eavesdropper SINRs (batch, K) for each row
    of a (batch, L) power array. With ``lo_rows``, row pairs are boxes
    ``[lo, p]`` and the SINRs are the users' largest and the eavesdroppers'
    smallest over each box: every SINR rises with its own power and falls
    with the others'."""
    lo = p_rows if lo_rows is None else lo_rows
    k = scenario.k_eavesdropped  # eavesdropper k sits in cell k
    gain, gain_t = scenario.h2.diagonal(), scenario.ht2.diagonal()
    interference = lo @ scenario.h2.T - lo * gain  # (batch, L): power seen at user i from the others
    leakage = p_rows @ scenario.ht2.T - p_rows[:, :k] * gain_t
    return p_rows * gain / (interference + scenario.sigma2), lo[:, :k] * gain_t / (leakage + scenario.sigma2_tilde)


def _rates(scenario: SecureScenario, p_rows: np.ndarray, lo_rows: np.ndarray | None = None) -> np.ndarray:
    """Per-cell rates in nats, row by row of a (batch, L) power array; with
    ``lo_rows``, an upper bound of each rate over each box ``[lo, p]``."""
    sinr, eaves = _sinrs(scenario, p_rows, lo_rows)
    rates = np.log1p(sinr)
    rates[:, : scenario.k_eavesdropped] -= np.log1p(eaves)
    return rates


def _weighted_sum_rate_batch(
    scenario: SecureScenario, p_rows: np.ndarray, lo_rows: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized :func:`weighted_sum_rate` over rows of a (batch, L) array;
    with ``lo_rows``, an upper bound of it over each box ``[lo, p]``, since
    the weights are nonnegative (monotonic optimization; Tuy, SIAM J.
    Optim. 2000)."""
    return _rates(scenario, p_rows, lo_rows) @ scenario.w


def secret_rate(scenario: SecureScenario, p, i: int) -> float:
    """Cell i's rate in nats; negative values are possible for
    eavesdropped cells."""
    return float(_rates(scenario, np.asarray(p, dtype=float)[None])[0, i])


def weighted_sum_rate(scenario: SecureScenario, p) -> float:
    """Objective of both algorithms, in nats."""
    return float(_weighted_sum_rate_batch(scenario, np.asarray(p, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# Direct method: ratio transforms applied to the logarithmic objective
# ---------------------------------------------------------------------------


def _sinr_fractions(scenario: SecureScenario, whole_row_leakage: bool) -> Fractions:
    """L user rows, then K eavesdropper rows: row k's own received power
    ``gains[k, k] * p_k`` over noise plus the power received from the other
    transmitters (from all of them on the eavesdropper rows with
    ``whole_row_leakage``)."""
    gains = np.concatenate([scenario.h2, scenario.ht2])
    rows = np.arange(gains.shape[0])
    cols = np.concatenate([np.arange(scenario.l_cells), np.arange(scenario.k_eavesdropped)])
    own = np.zeros_like(gains)
    own[rows, cols] = gains[rows, cols]
    rest = gains - own
    if whole_row_leakage:
        rest[scenario.l_cells:] = scenario.ht2
    noise = np.concatenate([scenario.sigma2, scenario.sigma2_tilde])
    return affine_fractions(own, 0.0, rest, noise)


def build_direct_problem(scenario: SecureScenario) -> MixedFpProblem:
    """Mixed FP with L increasing log terms (user SINRs) and K decreasing
    ones (whole-row leakage fractions)."""
    outers = [OuterFunction("log1p", w) for w in scenario.w]
    outers += [OuterFunction("log1m", w) for w in scenario.w[: scenario.k_eavesdropped]]
    fractions = _sinr_fractions(scenario, whole_row_leakage=True)
    return MixedFpProblem(fractions, tuple(outers), box_set(0.0, scenario.p_max))


def run_algorithm3(scenario: SecureScenario, opts: SolveOptions | None = None) -> tuple[np.ndarray, IterationTrace]:
    """Direct power control from the max-power start."""
    return run_mm(build_direct_problem(scenario), np.full(scenario.l_cells, scenario.p_max), opts)


# ---------------------------------------------------------------------------
# Fast method: dual decoupling first, then the ratio transforms
# ---------------------------------------------------------------------------


def build_fast_problem(scenario: SecureScenario) -> LogRatioMmProblem:
    """Log-ratio form of the same objective for the nested decoupling: user
    SINRs on the max side, eavesdropper SINRs on the min side."""
    n, k = scenario.l_cells, scenario.k_eavesdropped
    return LogRatioMmProblem(
        _sinr_fractions(scenario, whole_row_leakage=False),
        np.concatenate([scenario.w, scenario.w[:k]]),
        np.arange(n + k) < n,
        box_set(0.0, scenario.p_max),
    )


def run_algorithm4(scenario: SecureScenario, opts: SolveOptions | None = None) -> tuple[np.ndarray, IterationTrace]:
    """Fast power control: dual update, bracket update, box-constrained
    concave maximization, repeated from the max-power start. The trace
    records the true weighted sum rate."""
    return run_mm(build_fast_problem(scenario), np.full(scenario.l_cells, scenario.p_max), opts)


# ---------------------------------------------------------------------------
# Baseline and oracle
# ---------------------------------------------------------------------------


def baseline_max_power_linear_search(scenario: SecureScenario) -> tuple[np.ndarray, float]:
    """Best of two peak-power scans: one group of cells at the cap while the
    other scans 2,001 levels from 0, then the reverse. The first group is
    the first L - 1 cells for L <= 2, else the eavesdropped cells (at least
    one)."""
    n = scenario.l_cells
    first = np.arange(n) < (n - 1 if n <= 2 else max(scenario.k_eavesdropped, 1))
    levels = np.linspace(0.0, scenario.p_max, 2001)[:, None]
    candidates = np.vstack([np.where(first, scenario.p_max, levels), np.where(first, levels, scenario.p_max)])
    values = _weighted_sum_rate_batch(scenario, candidates)
    best = int(np.argmax(values))
    return candidates[best].copy(), float(values[best])


def oracle_grid_2d(scenario: SecureScenario) -> tuple[np.ndarray, float]:
    """Exhaustive two-cell search by :func:`~mmfp.solver.grid_search`:
    1,001 points per power, then one refinement. Boxes of powers whose rate
    bound cannot reach the incumbent are not scanned; the answer is the
    full scan's."""
    if scenario.l_cells != 2:
        raise InvalidInputError("exhaustive search is implemented for L = 2 only")
    p_cap = scenario.p_max
    return grid_search(
        0.0, p_cap, p_cap / 1000, 2,
        lambda rows: _weighted_sum_rate_batch(scenario, rows), 1,
        lambda lo, hi: _weighted_sum_rate_batch(scenario, hi, lo),
    )


# ---------------------------------------------------------------------------
# Tradeoff points
# ---------------------------------------------------------------------------


class TradeoffPoint(NamedTuple):
    """One weight setting of the secure-vs-open rate tradeoff; the field
    names, in order, are the columns of the frontier CSV."""

    eta: float
    fast_secure_bits: float  # sum rate of eavesdropped cells, fast method
    fast_open_bits: float  # sum rate of the remaining cells, fast method
    direct_secure_bits: float
    direct_open_bits: float
    baseline_secure_bits: float
    baseline_open_bits: float
    fast_objective_nats: float
    direct_objective_nats: float
    baseline_objective_nats: float


def _rate_split(scenario: SecureScenario, p: np.ndarray) -> tuple[float, float]:
    """The eavesdropped and the open cells' sum rates in bits, each summed
    left to right: from Python 3.12 the builtin ``sum`` of floats is
    compensated, and the columns would then follow the interpreter."""
    k = scenario.k_eavesdropped
    rates = _rates(scenario, p[None])[0].tolist()
    return nats_to_bits(reduce(operator.add, rates[:k], 0.0)), nats_to_bits(reduce(operator.add, rates[k:], 0.0))


def sweep_start_points(scenario: SecureScenario) -> list[np.ndarray]:
    """Deterministic start set for the nonconvex weight sweep.

    The objective has several stationary basins whose ranking flips along
    the sweep (e.g. for small open-cell weights the best policy silences
    all but one eavesdropped cell). Both methods solve from the same
    structured starts and keep the best, which keeps their frontiers on the
    winning basin: all-max, each block alone at the cap, each eavesdropped
    cell alone at the cap, and the peak-power scan baseline's argmax (MM
    refinement from there guarantees the baseline is dominated).
    """
    n = scenario.l_cells
    k = scenario.k_eavesdropped
    cap = scenario.p_max
    starts = [np.full(n, cap)]
    block = np.zeros(n)
    block[:k] = cap
    starts.append(block)
    starts.append(cap - block)
    for j in range(k):
        single = np.zeros(n)
        single[j] = cap
        starts.append(single)
    starts.append(baseline_max_power_linear_search(scenario)[0])
    unique = []
    for s in starts:
        if not any(np.array_equal(s, u) for u in unique):
            unique.append(s)
    return unique


# Per-start budget for sweep exploration: losing basins are truncated early.
# Only each point's answer is reported, so both budgets extrapolate the MM map.
_SWEEP_OPTS = SolveOptions(outer_tol=1e-9, max_outer=150, max_inner=1500, accelerate=True)
# The winning start is re-polished to a tight fixed point (warm start makes
# this cheap); this is what keeps the two methods' frontiers coincident.
_POLISH_OPTS = SolveOptions(outer_tol=1e-11, max_outer=3000, max_inner=10000, accelerate=True)


def _solve_best(problem: MmProblem, scenario: SecureScenario, starts: list[np.ndarray]) -> np.ndarray:
    """The best by weighted sum rate of MM on ``problem`` from each start,
    then polished; the polish is kept unless it loses."""
    best_p = None
    best_val = -math.inf
    for p0 in starts:
        p, _ = run_mm(problem, p0, _SWEEP_OPTS)
        val = weighted_sum_rate(scenario, p)
        if val > best_val:
            best_p, best_val = p, val
    polished, _ = run_mm(problem, best_p, _POLISH_OPTS)
    return polished if weighted_sum_rate(scenario, polished) >= best_val else best_p


def tradeoff_point(scenario: SecureScenario, eta: float) -> TradeoffPoint:
    """The tradeoff at open-cell weight ``eta``: both methods (best over the
    shared start set of :func:`sweep_start_points`) and the peak-power scan
    baseline. Points are independent of each other."""
    w = scenario.w.copy()
    w[scenario.k_eavesdropped:] = eta
    sc = scenario.with_weights(w)
    starts = sweep_start_points(sc)
    p_fast = _solve_best(build_fast_problem(sc), sc, starts)
    p_dir = _solve_best(build_direct_problem(sc), sc, starts)
    p_base, base_obj = baseline_max_power_linear_search(sc)
    # fields in order: each method's rate split, then each one's objective
    splits = [r for p in (p_fast, p_dir, p_base) for r in _rate_split(sc, p)]
    return TradeoffPoint(float(eta), *splits, weighted_sum_rate(sc, p_fast), weighted_sum_rate(sc, p_dir), base_obj)


def frontier_facts(points: list[TradeoffPoint]) -> dict[str, bool | float]:
    """What a frontier must show, keyed as in the tradeoff summary: the
    fast method's open rates nondecreasing and secure rates nonincreasing
    along the sweep (to 1e-9 bits), the largest rate gap between the two
    methods in bits, and both methods at least matching the baseline's
    objective (to 1e-9 nats) at every point."""
    opens = [p.fast_open_bits for p in points]
    secures = [p.fast_secure_bits for p in points]
    return {
        "open_rates_nondecreasing": bool(np.all(np.diff(opens) >= -1e-9)),
        "secure_rates_nonincreasing": bool(np.all(np.diff(secures) <= 1e-9)),
        "max_method_gap_bits": float(max(
            max(abs(p.fast_secure_bits - p.direct_secure_bits), abs(p.fast_open_bits - p.direct_open_bits))
            for p in points
        )),
        "dominates_baseline": all(
            p.fast_objective_nats >= p.baseline_objective_nats - 1e-9
            and p.direct_objective_nats >= p.baseline_objective_nats - 1e-9
            for p in points
        ),
    }
