"""Dual decoupling for log-ratio objectives.

Objectives of the form

    sum_n w_n * ln(1 + A_n/B_n)  -  sum_m w_m * ln(1 + A_m/B_m)

are awkward for numerical solvers because the ratios sit inside logarithms.
Introducing one auxiliary per ratio moves them outside:

    zeta+ (w, g, A, B)  = w*ln(1+g)  - w*g  + w*(1+g) * A/(A+B)
    zeta- (w, gt, A, B) = w*ln(1-gt) + w*gt - w*(1-gt) * A/B

Maximizing over the auxiliaries recovers the log terms exactly; the
closed-form maximizers are ``g = A/B`` and ``gt = A/(A+B)``. With the
auxiliaries frozen at an anchor point, the summed zetas minorize the
original objective and depend on x only through the two plain fractions,
so one more pass of the quadratic transform of :mod:`mmfp.fp_core` yields
a logarithm-free concave subproblem (:class:`LogRatioMmProblem`).

All values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .fp_core import Fractions, OuterFunction, _check_ratio, _closed_form_aux, _quadratic_transform
from .solver import FeasibleSet

# Keep ln(1 - gamma_tilde) finite; the closed form can only approach 1 when
# the denominator vanishes, which feasibility excludes.
_GAMMA_TILDE_MAX = 1.0 - 1e-12


def opt_gamma(A: float, B: float) -> float:
    """Maximizer ``A/B`` of the increasing-side zeta over its auxiliary."""
    _check_ratio(A, B)
    return A / B


def opt_gamma_tilde(A: float, B: float) -> float:
    """Maximizer ``A/(A+B)`` of the decreasing-side zeta, clamped below 1."""
    _check_ratio(A, B)
    return min(A / (A + B), _GAMMA_TILDE_MAX)


def zeta_plus(w: float, gamma: float, A: float, B: float) -> float:
    """Increasing-side piece; equals ``w*ln(1 + A/B)`` at ``gamma = A/B``."""
    if gamma < 0:
        raise InvalidInputError("gamma must be nonnegative")
    return w * math.log1p(gamma) - w * gamma + w * (1.0 + gamma) * A / (A + B)


def zeta_minus(w: float, gamma_tilde: float, A: float, B: float) -> float:
    """Decreasing-side piece; equals ``-w*ln(1 + A/B)`` at
    ``gamma_tilde = A/(A+B)``."""
    if gamma_tilde < 0:
        raise InvalidInputError("gamma_tilde must be nonnegative")
    if gamma_tilde >= 1.0:
        raise DomainError("gamma_tilde must be below 1")
    return w * math.log1p(-gamma_tilde) + w * gamma_tilde - w * (1.0 - gamma_tilde) * A / B


def log_ratio_objective(problem: "LogRatioMmProblem", x: np.ndarray) -> float:
    """``sum_n +/- w_n * ln(1 + A_n/B_n)``, plus on the rows marked
    ``maximize``, minus on the others."""
    A, B, _, _ = problem.fractions(np.asarray(x, dtype=float))
    total = 0.0
    for w, mx, a, b in zip(
        problem.weights.tolist(), problem.maximize.tolist(), A.tolist(), B.tolist()
    ):
        sgn = 1.0 if mx else -1.0
        total += sgn * w * math.log1p(a / b)
    return total


def log_ratio_surrogate(problem: "LogRatioMmProblem", x: np.ndarray, anchor: np.ndarray) -> float:
    """Summed zetas with auxiliaries held at their anchor-point optima.

    Never exceeds the true log-ratio objective; equals it at ``x = anchor``.
    Zero-weight rows are dropped entirely (their zetas are identically 0
    but would otherwise manufacture 0 * inf at degenerate ratios).
    """
    A, B, _, _ = problem.fractions(np.asarray(x, dtype=float))
    A0, B0, _, _ = problem.fractions(np.asarray(anchor, dtype=float))
    value = 0.0
    for w, mx, a, b, a0, b0 in zip(
        problem.weights.tolist(), problem.maximize.tolist(),
        A.tolist(), B.tolist(), A0.tolist(), B0.tolist(),
    ):
        if w == 0.0:
            continue
        if mx:
            value += zeta_plus(w, opt_gamma(a0, b0), a, b)
        else:
            value += zeta_minus(w, opt_gamma_tilde(a0, b0), a, b)
    return value


@dataclass(frozen=True)
class LogRatioAux:
    """Frozen auxiliaries for one MM step, one entry per row in row
    order: the dual auxiliary (``gamma`` on a max row, ``gamma_tilde`` on a
    min row), the outer function of the row's induced ratio and that
    ratio's quadratic-transform auxiliary; plus the gamma-only zeta
    pieces."""

    gamma: np.ndarray
    outers: tuple[OuterFunction, ...]
    y: np.ndarray
    const: float  # gamma-only zeta pieces, independent of x


@dataclass(frozen=True)
class LogRatioMmProblem:
    """Log-ratio maximization driven by the nested decoupling.

    ``fractions(x)`` returns ``(A, B, JA, JB)`` as in
    :class:`mmfp.fp_core.MixedFpProblem`; row ``n`` enters the objective as
    ``+w_n * ln(1 + A_n/B_n)`` where ``maximize[n]`` and as ``-w_n * ln(1 +
    A_n/B_n)`` elsewhere. One outer MM step freezes the gammas, which turns
    the objective into a mixed sum of plain ratios in x: ``w(1+g) *
    A/(A+B)`` under an identity outer per max row and ``w(1-gt) * A/B``
    under a negated identity per min row (the factor is the outer's
    weight). A row of weight 0 gets an outer of weight 0: it adds an exact
    0 with slope 0, and 0 when its bracket clamps. The quadratic transform of
    :mod:`mmfp.fp_core` then gives a concave, logarithm-free subproblem.
    Implements the driver protocol of :mod:`mmfp.solver`.
    """

    fractions: Fractions
    weights: np.ndarray
    maximize: np.ndarray
    feasible: FeasibleSet

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        maximize = np.asarray(self.maximize)
        if maximize.dtype != bool or weights.ndim != 1 or maximize.shape != weights.shape:
            raise InvalidInputError("maximize must be a boolean array with one entry per weight")
        if not np.all((weights >= 0) & (weights < math.inf)):
            raise InvalidInputError("weights must be finite and nonnegative")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "maximize", maximize)

    def objective(self, x: np.ndarray) -> float:
        return log_ratio_objective(self, x)

    def objective_grad(self, x: np.ndarray) -> np.ndarray:
        A, B, JA, JB = self.fractions(np.asarray(x, dtype=float))
        s = np.where(self.maximize, self.weights, -self.weights) / (B * (A + B))
        return JA.T @ (s * B) - JB.T @ (s * A)

    def update_aux(self, x: np.ndarray) -> LogRatioAux:
        A, B, _, _ = self.fractions(np.asarray(x, dtype=float))
        gamma = []
        outers = []
        const = 0.0
        for w, mx, a, b in zip(self.weights.tolist(), self.maximize.tolist(), A.tolist(), B.tolist()):
            if mx:
                g = opt_gamma(a, b)
                const += w * (math.log1p(g) - g)
                outers.append(OuterFunction("identity", w * (1.0 + g)))
            else:
                g = opt_gamma_tilde(a, b)
                const += w * (math.log1p(-g) + g)
                outers.append(OuterFunction("neg_identity", w * (1.0 - g)))
            gamma.append(g)
        y = _closed_form_aux(outers, A, np.where(self.maximize, A + B, B))
        return LogRatioAux(gamma=np.array(gamma), outers=tuple(outers), y=y, const=const)

    def surrogate(self, x: np.ndarray, aux: LogRatioAux) -> tuple[float, np.ndarray | None]:
        A, B, JA, JB = self.fractions(np.asarray(x, dtype=float))
        B = np.where(self.maximize, A + B, B)
        JB = np.where(self.maximize[:, None], JA + JB, JB)
        return _quadratic_transform(aux.outers, A, B, JA, JB, aux.y, aux.const)
