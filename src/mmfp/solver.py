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

With ``SolveOptions.accelerate`` set, every two MM maps are followed by a
safeguarded squared extrapolation (SQUAREM, scheme S3; Varadhan & Roland,
Scand. J. Statist. 2008), kept only where the true objective is at least
the plain map's, so the trace stays monotone.

Feasible sets are products of boxes and Euclidean balls, optionally
restricted by an open-domain predicate (e.g. strictly positive rates).
Line search only accepts in-domain trial points, so no accepted iterate
ever evaluates a logarithm or reciprocal outside its domain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol

import numpy as np

from .errors import DomainError, InvalidInputError, InvalidStartError, MonotonicityError, count

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
# Squared-extrapolation trials per cycle: each rejection halves the distance
# from the step length alpha to -1, where the extrapolation is the plain map,
# and costs one true-objective evaluation.
_EXTRAPOLATION_TRIALS = 4


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


def block_ball_set(blocks: list[tuple[int, int]], radii_sq: list[float]) -> FeasibleSet:
    """Product of per-block Euclidean balls over a stacked real vector.

    ``blocks`` holds ascending, disjoint (start, stop) index pairs; block
    ``b`` is constrained to squared norm at most ``radii_sq[b]``. The vector
    ends at the last stop; entries outside every block are free.
    """
    if len(blocks) != len(radii_sq):
        raise InvalidInputError("blocks and radii_sq length mismatch")
    if any(r2 <= 0 for r2 in radii_sq):
        raise InvalidInputError("radius_sq must be positive")
    stops = [0, *(i for block in blocks for i in block)]
    if any(b < a for a, b in zip(stops, stops[1:])):
        raise InvalidInputError("blocks must be ascending and disjoint")
    dim = stops[-1]
    # each entry's factor: its block's, or the trailing 1.0 outside every block
    slot = np.full(dim, len(blocks), dtype=np.intp)
    for i, (a, b) in enumerate(blocks):
        slot[a:b] = i
    pairs = [(a, b, float(r2)) for (a, b), r2 in zip(blocks, radii_sq)]

    def proj(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (dim,):
            raise InvalidInputError(f"expected a vector of length {dim}, got shape {x.shape}")
        factors = []
        for a, b, r2 in pairs:
            seg = x[a:b]
            nrm_sq = float(seg.dot(seg))  # the BLAS dot np.vdot and @ take, dispatched faster
            # project_ball's scaling; exactly 1.0 keeps a block inside its ball
            factors.append(math.sqrt(r2 / nrm_sq) if nrm_sq > r2 else 1.0)
        factors.append(1.0)
        # one multiply into a fresh array: the line search keeps earlier points
        out = np.array(factors)[slot]
        out *= x
        return out

    return FeasibleSet(project=proj)


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and limits for the outer MM loop and inner solver.

    ``accelerate`` adds the safeguarded squared extrapolation of the MM map
    (see :func:`run_mm`): fewer maps to an answer at least as good, but a
    trace that is no longer the plain MM iteration.
    """

    outer_tol: float = 1e-8
    max_outer: int = 500
    inner_tol: float = 1e-7
    max_inner: int = 10000
    accelerate: bool = False

    def __post_init__(self):
        for name in ("outer_tol", "inner_tol"):
            tol = getattr(self, name)
            if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
                raise InvalidInputError(f"{name} must be a finite positive number, got {tol!r}")
        for name in ("max_outer", "max_inner"):
            value = count(name, getattr(self, name))
            if value < 1:
                raise InvalidInputError(f"{name} must be at least 1, got {value!r}")
            object.__setattr__(self, name, value)
        if not isinstance(self.accelerate, (bool, np.bool_)):
            raise InvalidInputError(f"accelerate must be a bool, got {self.accelerate!r}")
        object.__setattr__(self, "accelerate", bool(self.accelerate))


@dataclass(frozen=True)
class IterationRecord:
    """One MM map. ``extrapolated`` marks a map that closed an accelerated
    cycle with an accepted extrapolation; ``objective`` is then the
    extrapolated point's."""

    outer_index: int
    objective: float
    wall_ms: float
    inner_iterations: int
    extrapolated: bool = False


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
        records = [replace(r, objective=-r.objective) for r in self.records]
        return IterationTrace(records=records, status=self.status)


@dataclass(frozen=True)
class InnerResult:
    iterations: int
    converged: bool
    step: float


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
    if not math.isfinite(f):
        raise InvalidStartError("subproblem start has non-finite objective")

    t = step0 if step0 is not None else 1.0 / (1.0 + math.sqrt(float(g.dot(g))))  # np.linalg.norm(g)
    t = min(max(t, _STEP_MIN), _STEP_MAX)
    window = [f] * _NONMONOTONE_WINDOW
    x_best, f_best = x, f
    last_gain = 0
    converged = False
    iters = 0

    for iters in range(1, opts.max_inner + 1):
        r = x - feasible.project(x + g)
        # np.linalg.norm's sqrt(dot(r, r)); ndarray.dot is the BLAS dot @
        # takes, dispatched faster
        residual = math.sqrt(float(r.dot(r)))
        if residual <= opts.inner_tol * (1.0 + abs(f)):
            converged = True
            iters -= 1
            break
        if iters - last_gain > _STALL_LIMIT:
            break

        f_ref = min(window)  # ascent mirror of the descent reference
        accepted = False
        tt = t
        g_old = g
        for _ in range(_MAX_BACKTRACKS):
            trial = feasible.project(x + tt * g)
            d = trial - x
            dd = float(d.dot(d))
            if dd == 0.0:
                break
            if feasible.in_domain(trial):
                ft, gt = objective(trial)
                if math.isfinite(ft) and ft >= f_ref + _ARMIJO_C * float(g.dot(d)):
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
        # spectral step from the accepted move, which is the last trial's d
        denom = -float(d.dot(g - g_old))  # >= 0 for concave objectives
        if denom > 0:
            t = dd / denom
        else:
            t = tt * 2.0
        t = min(max(t, _STEP_MIN), _STEP_MAX)

    if f_best > f:
        x = x_best
        converged = False
    return x, InnerResult(iterations=iters, converged=converged, step=t)


def _squared_extrapolation(
    problem: MmProblem, x0: np.ndarray, x1: np.ndarray, x2: np.ndarray, f2: float
) -> tuple[np.ndarray, float] | None:
    """SQUAREM's S3 step from the cycle ``x0 -> x1 -> x2`` of two MM maps.

    With ``r = x1 - x0``, ``v = x2 - x1 - r`` and ``alpha = min(-|r|/|v|,
    -1)``, the trial is ``project(x0 - 2 alpha r + alpha^2 v)``; it is kept
    when it is in the domain and its true objective is finite and at least
    ``f2``. A rejection moves alpha halfway to -1, where the trial would be
    ``x2`` itself. Returns the kept point and its objective, or None (keep
    ``x2``).
    """
    r = x1 - x0
    v = x2 - x1 - r
    vv = float(v @ v)
    if vv == 0.0:
        return None
    alpha = min(-math.sqrt(float(r @ r)) / math.sqrt(vv), -1.0)
    for _ in range(_EXTRAPOLATION_TRIALS):
        if alpha == -1.0:
            break
        trial = problem.feasible.project(x0 - 2.0 * alpha * r + alpha * alpha * v)
        if problem.feasible.in_domain(trial):
            try:
                f_trial = problem.objective(trial)
            except DomainError:
                f_trial = math.nan
            if math.isfinite(f_trial) and f_trial >= f2:
                return trial, f_trial
        alpha = (alpha - 1.0) / 2.0
    return None


def ascent_slack(f):
    """How far the true objective may fall across one MM map, from ``f``
    (a value or an array of them): ``1e-9 * (1 + |f|)``, the rounding of
    inexact inner solves. More raises MonotonicityError."""
    return 1e-9 * (1.0 + abs(f))


def _relative_change_within(old: float, new: float, tol: float) -> bool:
    """``|new - old| <= tol * max(|old|, |new|)``: the outer stall test and
    the trace's convergence count."""
    return abs(new - old) <= tol * max(abs(old), abs(new), 1e-300)


def run_mm(
    problem: MmProblem,
    x0: np.ndarray,
    opts: SolveOptions | None = None,
) -> tuple[np.ndarray, IterationTrace]:
    """Alternate closed-form auxiliary updates with surrogate maximization.

    Stops when the relative objective change falls below ``outer_tol`` or
    after ``max_outer`` iterations. The returned trace is monotone
    nondecreasing in the true objective up to :func:`ascent_slack`; a
    larger decrease raises MonotonicityError.

    With ``opts.accelerate``, every two maps that do not stop the run close
    a cycle with :func:`_squared_extrapolation`, and the next cycle starts
    from the kept point. The stop test runs on each plain map, before any
    extrapolation; the trace keeps one record per map.
    """
    opts = opts or SolveOptions()
    x = np.asarray(x0, dtype=float).copy()
    if not problem.feasible.in_domain(x):
        raise InvalidStartError("initial point is outside the open domain")
    f = problem.objective(x)
    trace = IterationTrace(records=[IterationRecord(0, f, 0.0, 0)])
    step: float | None = None
    stall_streak = 0
    cycle = [x]  # the points of the open extrapolation cycle

    for outer in range(1, opts.max_outer + 1):
        tic = time.perf_counter()
        aux = problem.update_aux(x)
        x, info = maximize_subproblem(
            lambda z: problem.surrogate(z, aux), problem.feasible, x, opts, step0=step
        )
        step = info.step
        f_new = problem.objective(x)
        if f_new < f - ascent_slack(f):
            raise MonotonicityError(
                f"objective decreased from {f!r} to {f_new!r} at outer iteration {outer}"
            )
        # Relative objective stall alone can be transient (tight surrogates
        # crawl through flat regions and pick up again), so convergence is
        # declared when the stall comes with an alternation fixed point:
        # the warm-started subproblem had (almost) nothing left to do. A
        # sustained stall is accepted as a fallback cutoff.
        stalled = _relative_change_within(f, f_new, opts.outer_tol)
        stall_streak = stall_streak + 1 if stalled else 0
        converged = stalled and (info.iterations <= 1 or stall_streak >= _OUTER_STALL_STREAK)
        extrapolated = False
        if opts.accelerate and not converged:
            cycle.append(x)
            if len(cycle) == 3:
                kept = _squared_extrapolation(problem, *cycle, f_new)
                if kept is not None:
                    x, f_new = kept
                    extrapolated = True
                cycle = [x]
        wall_ms = 1e3 * (time.perf_counter() - tic)
        trace.records.append(IterationRecord(outer, f_new, wall_ms, info.iterations, extrapolated))
        f = f_new
        if converged:
            trace.status = "converged"
            break

    return x, trace


def iterations_to_relative_convergence(trace: IterationTrace, tol: float) -> int:
    """First outer iteration whose relative objective change is below
    ``tol`` (trace length if it never is)."""
    vals = trace.objectives
    for i in range(1, len(vals)):
        if _relative_change_within(vals[i - 1], vals[i], tol):
            return int(trace.records[i].outer_index)
    return int(trace.records[-1].outer_index)


_GRID_BLOCK_ROWS = 4096  # rows per grid_argmax block: its temporaries stay in cache
_INCUMBENT_BOXES = 16  # boxes per level of the bounded descent whose points seed the incumbent
_PRUNE_REL = 1e-9  # a box is pruned when its bound is below the incumbent by this, relative


def _scan(blocks, values: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, float]:
    """First row holding the largest value over row-major blocks of rows."""
    found = []
    for block in blocks:
        v = values(block)
        i = int(np.argmax(v))
        found.append((v[i], block[i].copy()))
    value, point = found[int(np.argmax([f[0] for f in found]))]  # first block holding the maximum
    return point, float(value)


def _unpruned(
    axes: list[np.ndarray],
    values: Callable[[np.ndarray], np.ndarray],
    bound: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray | None:
    """Row-major flat indices of the grid points whose value may reach the
    grid maximum, or ``None`` where pruning does not pay.

    Halves every box side level by level, from one box holding the grid
    down to two points a side, and bounds all the boxes of a level in one
    ``bound`` call. The incumbent is the best value evaluated so far at the
    corners, edge midpoints and centres of the ``_INCUMBENT_BOXES`` boxes
    with the largest bounds; a box is pruned when its bound is below it by
    more than ``_PRUNE_REL`` relative. A level of more than
    ``_GRID_BLOCK_ROWS`` boxes that still keeps half the grid gives up: the
    values tie or the bound is loose, and a plain scan is cheaper."""
    shape = np.array([len(a) for a in axes])[:, None]
    dims = len(axes)
    halves = np.indices((2,) * dims).reshape(dims, 1, -1)  # child offsets of a box, in box units
    picks = np.indices((3,) * dims).reshape(dims, -1)  # first, middle or last index per axis
    side = 1 << (int(shape.max()) - 1).bit_length()
    boxes = np.zeros((dims, 1), dtype=np.intp)  # one column per box: its indices in units of ``side``
    incumbent = -math.inf
    while side > 2:
        side //= 2
        boxes = (2 * boxes[:, :, None] + halves).reshape(dims, -1)
        boxes = boxes[:, np.all(boxes * side < shape, axis=0)]
        first = boxes * side
        last = np.minimum(first + side, shape) - 1
        lo = np.column_stack([np.minimum.reduceat(a, np.arange(0, len(a), side))[b] for a, b in zip(axes, boxes)])
        hi = np.column_stack([np.maximum.reduceat(a, np.arange(0, len(a), side))[b] for a, b in zip(axes, boxes)])
        upper = bound(lo, hi)
        top = np.argpartition(-upper, min(_INCUMBENT_BOXES, len(upper) - 1))[:_INCUMBENT_BOXES]
        ends = np.stack([first[:, top], (first[:, top] + last[:, top]) // 2, last[:, top]], axis=2)
        points = np.column_stack([a[e[:, pick].ravel()] for a, e, pick in zip(axes, ends, picks)])
        incumbent = max(incumbent, float(np.max(values(points))))
        boxes = boxes[:, upper >= incumbent - _PRUNE_REL * (1.0 + abs(incumbent))]
        if len(upper) > _GRID_BLOCK_ROWS and boxes.shape[1] * side**dims > np.prod(shape) / 2:
            return None
    offsets = np.indices((side,) * dims).reshape(dims, 1, -1)
    points = (side * boxes[:, :, None] + offsets).reshape(dims, -1)
    points = points[:, np.all(points < shape, axis=0)]
    return np.sort(np.ravel_multi_index(tuple(points), tuple(shape.ravel())))


def grid_argmax(
    axes: list[np.ndarray],
    values: Callable[[np.ndarray], np.ndarray],
    bound: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """First maximizer of ``values`` (one value per row of a (rows,
    len(axes)) batch) over the row-major grid of ``axes``, and its value:
    the row ``np.argmax`` picks over the full ``meshgrid`` batch. The grid
    is scanned in blocks of about ``_GRID_BLOCK_ROWS`` rows, a chunk of the
    leading axis times the grid of the others, so memory stays bounded.

    ``bound(lo_rows, hi_rows)``, if given, is an upper bound of ``values``
    over each box ``[lo, hi]``, e.g. from monotonicity (Tuy, SIAM J. Optim.
    2000). On a grid larger than one block, the scan then evaluates only
    the points of the boxes whose bound can reach a value already
    evaluated (:func:`_unpruned`), in row-major order, in batches of at
    most ``_GRID_BLOCK_ROWS`` rows and never of one row, which some
    ``values`` round differently; the answer is the full scan's."""
    lead, *rest = axes
    chunk = max(1, _GRID_BLOCK_ROWS // math.prod(map(len, rest)))
    flat = None if bound is None or len(lead) <= chunk else _unpruned(axes, values, bound)
    if flat is None:
        blocks = (
            np.stack([g.ravel() for g in np.meshgrid(lead[start : start + chunk], *rest, indexing="ij")], axis=1)
            for start in range(0, len(lead), chunk)
        )
    else:
        flat = np.repeat(flat, 2) if flat.size == 1 else flat
        batches = np.array_split(flat, -(-flat.size // _GRID_BLOCK_ROWS))  # near-equal sizes: two rows or more each
        shape = tuple(map(len, axes))
        blocks = (np.column_stack([a[i] for a, i in zip(axes, np.unravel_index(b, shape))]) for b in batches)
    return _scan(blocks, values)


def grid_search(
    lo: float,
    hi: float,
    step: float,
    dims: int,
    values: Callable[[np.ndarray], np.ndarray],
    rounds: int,
    bound: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """Maximizer of ``values`` (one value per row of a (rows, dims) batch)
    over the cube ``[lo, hi]^dims``, and its value: the first maximizer on
    the grid of spacing ``step`` (:func:`grid_argmax`), then ``rounds``
    scans of 21 points per axis at a tenth of the previous spacing around
    the incumbent, clipped to the cube, each replacing it only when strictly
    better, so more rounds never lower the value. ``bound`` is passed to
    every scan."""
    best, best_value = grid_argmax([np.arange(lo, hi + step / 2, step)] * dims, values, bound)
    for _ in range(rounds):
        step /= 10.0
        point, value = grid_argmax([np.clip(b + step * np.arange(-10, 11), lo, hi) for b in best], values, bound)
        if value > best_value:
            best, best_value = point, value
    return best, best_value


def central_diff_grad(fun: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate relative step
    ``1e-6 * (1 + |x_i|)``. For an array-valued ``fun`` the partial
    derivatives stack along a new first axis."""
    x = np.asarray(x, dtype=float)
    g = []
    for i in range(x.size):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.array(g)


def stationarity_residual(problem, x: np.ndarray) -> float:
    """First-order optimality measure ``||x - project(x + grad f(x))||``
    from the problem's analytic objective gradient."""
    x = np.asarray(x, dtype=float)
    g = problem.objective_grad(x)
    return float(np.linalg.norm(x - problem.feasible.project(x + g)))
