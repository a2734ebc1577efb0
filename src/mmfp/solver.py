"""Alternating-optimization driver and first-order convex subproblem solver.

The driver alternates two steps until the objective stalls:

1. update the auxiliary variables of the active ratio transform in closed
   form at the current point (this makes the surrogate tight there), and
2. maximize the resulting concave surrogate over the feasible set with
   projected gradient ascent.

Because every surrogate used in this package minorizes the true objective
and touches it at the anchor, the true objective is nondecreasing across
iterations; a decrease beyond numerical slack raises
:class:`~mmfp.errors.MonotonicityError` since it can only mean a bug.

Feasible sets are products of boxes and Euclidean balls, optionally
restricted by an open-domain predicate (e.g. strictly positive rates).
Line search only accepts in-domain trial points, so no accepted iterate
ever evaluates a logarithm or reciprocal outside its domain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .errors import InvalidInputError, InvalidStartError, MonotonicityError

# Hard clamps on the Barzilai-Borwein step to keep the line search sane on
# degenerate curvature estimates.
_STEP_MIN = 1e-14
_STEP_MAX = 1e14
_MAX_BACKTRACKS = 80
_ARMIJO_C = 1e-4  # sufficient-increase fraction
_BACKTRACK_FACTOR = 0.5
# Length of the nonmonotone line-search reference window.
_NONMONOTONE_WINDOW = 10
# Abandon a subproblem after this many iterations without improving the
# incumbent; the outer loop's auxiliary update re-tightens the surrogate and
# resolves such stalls far more cheaply than further inner crawling.
_STALL_LIMIT = 200
# Accept a sustained objective stall as converged after this many
# consecutive sub-tolerance outer iterations even without an alternation
# fixed point.
_OUTER_STALL_STREAK = 8


def _always_true(_x: np.ndarray) -> bool:
    return True


@dataclass(frozen=True)
class FeasibleSet:
    """Closed convex constraint set with an optional open-domain predicate.

    ``project`` maps any point to its Euclidean projection onto the closed
    set (idempotent); ``in_domain`` tests the open domain on which the
    objective is finite and smooth.
    """

    project: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], bool] = _always_true


def project_ball(x: np.ndarray, radius_sq: float) -> np.ndarray:
    """Projection onto the centered Euclidean ball of squared radius.

    Works for real or complex vectors (norm over all entries).
    """
    if radius_sq <= 0:
        raise InvalidInputError("radius_sq must be positive")
    x = np.asarray(x)
    nrm_sq = float(np.real(np.vdot(x, x)))
    if nrm_sq <= radius_sq:
        return x.copy()
    return x * np.sqrt(radius_sq / nrm_sq)


def box_set(lo, hi, in_domain: Callable[[np.ndarray], bool] | None = None) -> FeasibleSet:
    """Box ``[lo, hi]``; the bounds are validated here, once, and broadcast
    against each projected point."""
    lo_arr = np.asarray(lo, dtype=float)
    hi_arr = np.asarray(hi, dtype=float)
    if np.any(lo_arr > hi_arr):
        raise InvalidInputError("box lower bound exceeds upper bound")
    return FeasibleSet(
        project=lambda x: np.minimum(np.maximum(x, lo_arr), hi_arr),
        in_domain=in_domain or _always_true,
    )


def block_ball_set(
    blocks: list[tuple[int, int]],
    radii_sq: list[float],
    in_domain: Callable[[np.ndarray], bool] | None = None,
) -> FeasibleSet:
    """Product of per-block Euclidean balls over a stacked real vector.

    ``blocks`` holds (start, stop) index pairs; block ``b`` is constrained to
    squared norm at most ``radii_sq[b]``.
    """
    if len(blocks) != len(radii_sq):
        raise InvalidInputError("blocks and radii_sq length mismatch")
    if any(r2 <= 0 for r2 in radii_sq):
        raise InvalidInputError("radius_sq must be positive")

    def proj(x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=float).copy()
        for (a, b), r2 in zip(blocks, radii_sq):
            nrm_sq = float(np.real(np.vdot(out[a:b], out[a:b])))
            if nrm_sq > r2:  # project_ball's scaling, in place
                out[a:b] *= np.sqrt(r2 / nrm_sq)
        return out

    return FeasibleSet(project=proj, in_domain=in_domain or _always_true)


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and limits for the outer MM loop and inner solver."""

    outer_tol: float = 1e-8
    max_outer: int = 500
    inner_tol: float = 1e-7
    max_inner: int = 10000
    seed: int = 0

    def __post_init__(self):
        for name in ("outer_tol", "inner_tol"):
            tol = getattr(self, name)
            if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
                raise InvalidInputError(f"{name} must be a finite positive number, got {tol!r}")
        for name in ("max_outer", "max_inner"):
            limit = getattr(self, name)
            if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
                raise InvalidInputError(f"{name} must be an integer of at least 1, got {limit!r}")


@dataclass(frozen=True)
class IterationRecord:
    outer_index: int
    objective: float
    wall_ms: float
    inner_iterations: int


@dataclass
class IterationTrace:
    """Per-outer-iteration history of an MM run.

    ``objective`` is in the run's maximization convention (nats for rate
    objectives); application wrappers may re-sign it for reporting.
    """

    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max_iterations"  # or "converged"

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    @property
    def outer_iterations(self) -> int:
        return self.records[-1].outer_index if self.records else 0

    def negated(self) -> "IterationTrace":
        """The same run reporting ``-objective``, the minimized quantity."""
        records = [
            IterationRecord(r.outer_index, -r.objective, r.wall_ms, r.inner_iterations)
            for r in self.records
        ]
        return IterationTrace(records=records, status=self.status)


@dataclass(frozen=True)
class InnerResult:
    iterations: int
    converged: bool
    step: float


@runtime_checkable
class MmProblem(Protocol):
    """Duck-typed contract the MM driver needs from a problem.

    ``surrogate`` returns ``(value, gradient)``; a value of ``-inf`` marks a
    point rejected by the transform's open domain (gradient then unused).
    """

    feasible: FeasibleSet

    def objective(self, x: np.ndarray) -> float: ...

    def update_aux(self, x: np.ndarray): ...

    def surrogate(self, x: np.ndarray, aux) -> tuple[float, np.ndarray | None]: ...


def maximize_subproblem(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray | None]],
    feasible: FeasibleSet,
    x0: np.ndarray,
    opts: SolveOptions,
    step0: float | None = None,
) -> tuple[np.ndarray, InnerResult]:
    """Spectral projected gradient ascent: Barzilai-Borwein steps with a
    nonmonotone (windowed) Armijo backtracking line search.

    ``objective`` must be concave on the open domain; it returns a value and
    its gradient. Only in-domain trial points can be accepted. Terminates
    when the fixed-step projected-gradient residual
    ``||x - project(x + g)||`` falls below ``inner_tol * (1 + |f|)`` or when
    ``max_inner`` is hit. The returned point never has a lower objective
    than the start (best iterate wins on the rare nonmonotone dip).
    """
    x = np.asarray(x0, dtype=float).copy()
    if not feasible.in_domain(x):
        raise InvalidStartError("subproblem start is outside the open domain")
    f, g = objective(x)
    if not np.isfinite(f):
        raise InvalidStartError("subproblem start has non-finite objective")

    t = step0 if step0 is not None else 1.0 / (1.0 + float(np.linalg.norm(g)))
    t = min(max(t, _STEP_MIN), _STEP_MAX)
    window = [f] * _NONMONOTONE_WINDOW
    x_best, f_best, g_best = x, f, g
    last_gain = 0
    converged = False
    iters = 0

    for iters in range(1, opts.max_inner + 1):
        residual = float(np.linalg.norm(x - feasible.project(x + g)))
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
            if float(np.linalg.norm(d)) == 0.0:
                break
            if feasible.in_domain(trial):
                ft, gt = objective(trial)
                if np.isfinite(ft) and ft >= f_ref + _ARMIJO_C * float(g @ d):
                    x, f, g = trial, ft, gt
                    accepted = True
                    break
            tt *= _BACKTRACK_FACTOR
        if not accepted:
            break
        window.pop(0)
        window.append(f)
        if f > f_best + 1e-13 * (1.0 + abs(f_best)):
            x_best, f_best, g_best = x, f, g
            last_gain = iters
        elif f > f_best:
            x_best, f_best, g_best = x, f, g
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
        x, f, g = x_best, f_best, g_best
        converged = False
    return x, InnerResult(iterations=iters, converged=converged, step=t)


def run_mm(
    problem: MmProblem,
    x0: np.ndarray,
    opts: SolveOptions | None = None,
) -> tuple[np.ndarray, IterationTrace]:
    """Alternate closed-form auxiliary updates with surrogate maximization.

    Stops when the relative objective change falls below ``outer_tol`` or
    after ``max_outer`` iterations. The returned trace is monotone
    nondecreasing in the true objective up to slack ``1e-9 * (1 + |f|)``
    (inexact inner solves); a larger decrease raises MonotonicityError.
    """
    opts = opts or SolveOptions()
    x = np.asarray(x0, dtype=float).copy()
    if not problem.feasible.in_domain(x):
        raise InvalidStartError("initial point is outside the open domain")
    f = problem.objective(x)
    trace = IterationTrace(records=[IterationRecord(0, f, 0.0, 0)])
    step: float | None = None
    stall_streak = 0

    for outer in range(1, opts.max_outer + 1):
        tic = time.perf_counter()
        aux = problem.update_aux(x)
        x, info = maximize_subproblem(
            lambda z: problem.surrogate(z, aux), problem.feasible, x, opts, step0=step
        )
        step = info.step
        f_new = problem.objective(x)
        wall_ms = 1e3 * (time.perf_counter() - tic)
        if f_new < f - 1e-9 * (1.0 + abs(f)):
            raise MonotonicityError(
                f"objective decreased from {f!r} to {f_new!r} at outer iteration {outer}"
            )
        trace.records.append(IterationRecord(outer, f_new, wall_ms, info.iterations))
        # Relative objective stall alone can be transient (tight surrogates
        # crawl through flat regions and pick up again), so convergence is
        # declared when the stall comes with an alternation fixed point:
        # the warm-started subproblem had (almost) nothing left to do. A
        # sustained stall is accepted as a fallback cutoff.
        stalled = abs(f_new - f) <= opts.outer_tol * max(abs(f), abs(f_new), 1e-300)
        stall_streak = stall_streak + 1 if stalled else 0
        f = f_new
        if stalled and (info.iterations <= 1 or stall_streak >= _OUTER_STALL_STREAK):
            trace.status = "converged"
            break

    return x, trace


def iterations_to_relative_convergence(trace: IterationTrace, tol: float) -> int:
    """First outer iteration whose relative objective change is below
    ``tol`` (trace length if it never is)."""
    vals = trace.objectives
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[i - 1]) <= tol * max(abs(vals[i]), abs(vals[i - 1]), 1e-300):
            return int(trace.records[i].outer_index)
    return int(trace.records[-1].outer_index)


_GRID_BLOCK_ROWS = 4096  # rows per grid_argmax block: its temporaries stay in cache


def grid_argmax(axes: list[np.ndarray], values: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, float]:
    """First maximizer of ``values`` (one value per row of a (rows,
    len(axes)) batch) over the row-major grid of ``axes``, and its value:
    the row ``np.argmax`` picks over the full ``meshgrid`` batch. The grid
    is scanned in blocks of about ``_GRID_BLOCK_ROWS`` rows, a chunk of the
    leading axis times the grid of the others, so memory stays bounded."""
    lead, *rest = axes
    chunk = max(1, _GRID_BLOCK_ROWS // math.prod(map(len, rest)))
    found = []
    for start in range(0, len(lead), chunk):
        grids = np.meshgrid(lead[start : start + chunk], *rest, indexing="ij")
        block = np.stack([g.ravel() for g in grids], axis=1)
        v = values(block)
        i = int(np.argmax(v))
        found.append((v[i], block[i].copy()))
    value, point = found[int(np.argmax([f[0] for f in found]))]  # first block holding the maximum
    return point, float(value)


def central_diff_grad(fun: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate relative step."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def stationarity_residual(problem, x: np.ndarray) -> float:
    """First-order optimality measure ``||x - project(x + grad f(x))||``
    from the problem's analytic objective gradient."""
    x = np.asarray(x, dtype=float)
    g = problem.objective_grad(x)
    return float(np.linalg.norm(x - problem.feasible.project(x + g)))
