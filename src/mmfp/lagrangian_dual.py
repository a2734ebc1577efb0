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
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidInputError
from .fp_core import OuterFunction, SmoothFn, _closed_form_aux, _quadratic_transform
from .solver import FeasibleSet

# Keep ln(1 - gamma_tilde) finite; the closed form can only approach 1 when
# the denominator vanishes, which feasibility excludes.
_GAMMA_TILDE_MAX = 1.0 - 1e-12


def opt_gamma(A: float, B: float) -> float:
    """Maximizer ``A/B`` of the increasing-side zeta over its auxiliary."""
    if A < 0 or B <= 0:
        raise InvalidInputError(f"need A >= 0 and B > 0, got A={A}, B={B}")
    return A / B


def opt_gamma_tilde(A: float, B: float) -> float:
    """Maximizer ``A/(A+B)`` of the decreasing-side zeta, clamped below 1."""
    if A < 0 or B <= 0:
        raise InvalidInputError(f"need A >= 0 and B > 0, got A={A}, B={B}")
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


@dataclass(frozen=True)
class LogRatioTerm:
    """One weighted log-ratio ``+/- w * ln(1 + A(x)/B(x))``."""

    numerator: SmoothFn
    denominator: SmoothFn
    weight: float
    side: str  # "max" or "min"

    def __post_init__(self):
        if self.side not in ("max", "min"):
            raise InvalidInputError(f"side must be 'max' or 'min', got {self.side!r}")
        if self.weight < 0:
            raise InvalidInputError("weight must be nonnegative")


@dataclass(frozen=True)
class GammaState:
    gamma: np.ndarray  # one per max-side term
    gamma_tilde: np.ndarray  # one per min-side term


def _gammas_at(terms: list[LogRatioTerm], x: np.ndarray) -> GammaState:
    gamma = []
    gamma_tilde = []
    for term in terms:
        A = term.numerator.value(x)
        B = term.denominator.value(x)
        if term.side == "max":
            gamma.append(opt_gamma(A, B))
        else:
            gamma_tilde.append(opt_gamma_tilde(A, B))
    return GammaState(gamma=np.array(gamma), gamma_tilde=np.array(gamma_tilde))


def log_ratio_objective(terms: list[LogRatioTerm], x: np.ndarray) -> float:
    total = 0.0
    for term in terms:
        r = term.numerator.value(x) / term.denominator.value(x)
        sgn = 1.0 if term.side == "max" else -1.0
        total += sgn * term.weight * math.log1p(r)
    return total


def log_ratio_surrogate(terms: list[LogRatioTerm], x: np.ndarray, anchor: np.ndarray) -> float:
    """Summed zetas with auxiliaries held at their anchor-point optima.

    Never exceeds the true log-ratio objective; equals it at ``x = anchor``.
    Zero-weight terms are dropped entirely (their zetas are identically 0
    but would otherwise manufacture 0 * inf at degenerate ratios).
    """
    live = [t for t in terms if t.weight > 0]
    gs = _gammas_at(live, np.asarray(anchor, dtype=float))
    value = 0.0
    i_max = 0
    i_min = 0
    for term in live:
        A = term.numerator.value(x)
        B = term.denominator.value(x)
        if term.side == "max":
            value += zeta_plus(term.weight, float(gs.gamma[i_max]), A, B)
            i_max += 1
        else:
            value += zeta_minus(term.weight, float(gs.gamma_tilde[i_min]), A, B)
            i_min += 1
    return value


@dataclass(frozen=True)
class LogRatioAux:
    """Frozen auxiliaries for one MM step: the gammas, the outer function of
    each live term's induced ratio, the quadratic-transform auxiliaries of
    those ratios, and the gamma-only zeta pieces."""

    gammas: GammaState
    outers: tuple[OuterFunction, ...]
    y: np.ndarray
    y_tilde: np.ndarray
    const: float  # gamma-only zeta pieces, independent of x


@dataclass(frozen=True)
class LogRatioMmProblem:
    """Log-ratio maximization driven by the nested decoupling.

    One outer MM step freezes the gammas, which turns the objective into a
    mixed sum of plain ratios in x: ``w(1+g) * A/(A+B)`` under an identity
    outer per max-side term and ``w(1-gt) * A/B`` under a negated identity
    per min-side term (the factor is the outer's weight). The quadratic
    transform of :mod:`mmfp.fp_core` then gives a concave,
    logarithm-free subproblem. Implements the driver protocol of
    :mod:`mmfp.solver`.
    """

    terms: tuple[LogRatioTerm, ...]
    feasible: FeasibleSet

    @cached_property
    def _live(self) -> tuple[LogRatioTerm, ...]:
        return tuple(t for t in self.terms if t.weight > 0)

    def objective(self, x: np.ndarray) -> float:
        return log_ratio_objective(list(self.terms), x)

    def objective_grad(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros_like(np.asarray(x, dtype=float))
        for term in self.terms:
            A = term.numerator.value(x)
            B = term.denominator.value(x)
            gA = term.numerator.grad(x)
            gB = term.denominator.grad(x)
            sgn = 1.0 if term.side == "max" else -1.0
            g += sgn * term.weight * (gA * B - A * gB) / (B * (A + B))
        return g

    def update_aux(self, x: np.ndarray, eps: float = 1e-12) -> LogRatioAux:
        gamma = []
        gamma_tilde = []
        ratios = []
        const = 0.0
        for term in self._live:
            A = term.numerator.value(x)
            B = term.denominator.value(x)
            w = term.weight
            if term.side == "max":
                g = opt_gamma(A, B)
                gamma.append(g)
                const += w * (math.log1p(g) - g)
                ratios.append((OuterFunction.identity(w * (1.0 + g)), A, A + B))
            else:
                gt = opt_gamma_tilde(A, B)
                gamma_tilde.append(gt)
                const += w * (math.log1p(-gt) + gt)
                ratios.append((OuterFunction.neg_identity(w * (1.0 - gt)), A, B))
        y, y_tilde = _closed_form_aux(ratios, eps)
        return LogRatioAux(
            gammas=GammaState(gamma=np.array(gamma), gamma_tilde=np.array(gamma_tilde)),
            outers=tuple(outer for outer, _, _ in ratios),
            y=y,
            y_tilde=y_tilde,
            const=const,
        )

    def _induced_ratios(self, x: np.ndarray, outers):
        for term, outer in zip(self._live, outers):
            A = term.numerator.value(x)
            B = term.denominator.value(x)
            gA = term.numerator.grad(x)
            gB = term.denominator.grad(x)
            if term.side == "max":
                yield outer, A, A + B, gA, gA + gB
            else:
                yield outer, A, B, gA, gB

    def surrogate(self, x: np.ndarray, aux: LogRatioAux) -> tuple[float, np.ndarray | None]:
        x = np.asarray(x, dtype=float)
        return _quadratic_transform(
            x, self._induced_ratios(x, aux.outers), aux.y, aux.y_tilde, aux.const
        )
