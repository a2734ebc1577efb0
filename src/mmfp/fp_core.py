"""Scalar ratio transforms for mixed max-and-min fractional programs.

A mixed fractional program maximizes

    sum_n f_n(A_n(x) / B_n(x)),    A_n >= 0, B_n > 0 on the feasible set,

where each outer function ``f_n`` is concave and either increasing (the
ratio is to be *maximized*) or decreasing (the ratio is to be *minimized*).
Two per-ratio decoupling devices remove the fractional coupling:

* max side:  ``A/B  ->  2*y*sqrt(A) - y**2 * B``      (tight at y = sqrt(A)/B)
* min side:  ``A/B  ->  1 / [2*yt*sqrt(B) - yt**2 * A]_+``
                                                  (tight at yt = sqrt(B)/A)

``[.]_+`` clamps a nonpositive bracket to an infinitesimal positive value so
its reciprocal is IEEE ``+inf``; a decreasing outer then evaluates to its
limit at infinity (``-inf`` for the unbounded-below kinds), which the MM
driver treats as "reject this trial point", never as a crash.

Holding the auxiliaries at their closed-form values for an anchor point
turns the transformed objective into a minorizing surrogate that touches
the true objective at the anchor, which is what the alternating driver in
:mod:`mmfp.solver` exploits.

All logarithms are natural; unit conversions happen at reporting
boundaries only. All operations here are pure functions of immutable
inputs and safe for concurrent evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InvalidInputError
from .solver import FeasibleSet

# Smallest positive double; 1/sentinel overflows to +inf, realizing the
# limit semantics of the positive-part clamp.
POSITIVE_UNDERFLOW = 5e-324

# Absolute floor applied inside *gradients* of 2*y*sqrt(A(x)) terms; the
# derivative is unbounded as A -> 0+ and a finite cap keeps line searches
# numerically sane without affecting values.
_SQRT_GRAD_FLOOR = 1e-24


def plus_part(a: float) -> float:
    """Positive-part clamp: ``a`` if positive, else a 0+ sentinel whose
    reciprocal is ``+inf``."""
    return a if a > 0.0 else POSITIVE_UNDERFLOW


def quad_surrogate(A: float, B: float, y: float) -> float:
    """Decoupled max-side value ``2*y*sqrt(A) - y**2 * B``.

    Never exceeds ``A/B``; equality holds exactly at ``y = sqrt(A)/B``.
    """
    if A < 0 or B <= 0:
        raise InvalidInputError(f"need A >= 0 and B > 0, got A={A}, B={B}")
    return 2.0 * y * math.sqrt(A) - y * y * B


def opt_y(A: float, B: float) -> float:
    """Maximizer ``sqrt(A)/B`` of the max-side bracket over y."""
    if A < 0 or B <= 0:
        raise InvalidInputError(f"need A >= 0 and B > 0, got A={A}, B={B}")
    return math.sqrt(A) / B


def inv_quad_surrogate(A: float, B: float, y_tilde: float) -> float:
    """Decoupled min-side value ``1 / [2*yt*sqrt(B) - yt**2 * A]_+``.

    Never falls below ``A/B``; equality holds at ``yt = sqrt(B)/A``. A
    nonpositive bracket yields ``+inf`` (clamp case), never an exception.
    """
    if A < 0 or B <= 0:
        raise InvalidInputError(f"need A >= 0 and B > 0, got A={A}, B={B}")
    return 1.0 / plus_part(2.0 * y_tilde * math.sqrt(B) - y_tilde * y_tilde * A)


def opt_y_tilde(A: float, B: float, eps: float = 1e-12) -> float:
    """Safeguarded minimizer ``sqrt(B) / (A + eps)`` of the min-side value.

    ``eps > 0`` keeps the auxiliary finite as ``A -> 0+``; ``eps = 0`` is
    accepted as the exact limit form used for surrogate anchors.
    """
    if A < 0 or B <= 0:
        raise InvalidInputError(f"need A >= 0 and B > 0, got A={A}, B={B}")
    if eps < 0:
        raise InvalidInputError("eps must be nonnegative")
    return math.sqrt(B) / (A + eps)


# ---------------------------------------------------------------------------
# Outer functions
# ---------------------------------------------------------------------------

_INCREASING_KINDS = frozenset({"identity", "log1p", "neg_half_inverse"})
_DECREASING_KINDS = frozenset({"log1m", "neg_identity"})


@dataclass(frozen=True)
class OuterFunction:
    """One of the five concave outer functions applied to a ratio.

    kind            f(r)              monotonicity   domain
    --------------  ----------------  -------------  ---------
    identity        w * r             increasing     all r
    log1p           w * ln(1 + r)     increasing     r > -1
    log1m           w * ln(1 - r)     decreasing     r < 1
    neg_half_inverse  -1 / (2 r)      increasing     r > 0
    neg_identity    -w * r            decreasing     all r

    The closed enumeration lets the driver rely on certified monotonicity
    and concavity; arbitrary user callables could not.
    """

    kind: str
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in _INCREASING_KINDS | _DECREASING_KINDS:
            raise InvalidInputError(f"unknown outer function kind {self.kind!r}")
        if self.weight < 0:
            raise InvalidInputError("outer function weight must be nonnegative")

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, w: float = 1.0) -> "OuterFunction":
        return cls("identity", w)

    @classmethod
    def log1p(cls, w: float = 1.0) -> "OuterFunction":
        return cls("log1p", w)

    @classmethod
    def log1m(cls, w: float = 1.0) -> "OuterFunction":
        return cls("log1m", w)

    @classmethod
    def neg_half_inverse(cls) -> "OuterFunction":
        return cls("neg_half_inverse", 1.0)

    @classmethod
    def neg_identity(cls, w: float = 1.0) -> "OuterFunction":
        return cls("neg_identity", w)

    # -- behaviour ----------------------------------------------------
    @property
    def increasing(self) -> bool:
        return self.kind in _INCREASING_KINDS

    def _value_slope(self, r: float) -> tuple[float, float] | None:
        """``(f(r), f'(r))``, or ``None`` when ``r`` is outside the domain.

        The one home of the five formulas: a single kind dispatch and a
        single domain test per call.
        """
        kind = self.kind
        w = self.weight
        if kind == "identity":
            return w * r, w
        if kind == "neg_identity":
            return -w * r, -w
        if kind == "log1p":
            return (w * math.log1p(r), w / (1.0 + r)) if r > -1.0 else None
        if kind == "log1m":
            return (w * math.log1p(-r), -w / (1.0 - r)) if r < 1.0 else None
        # neg_half_inverse; two divisions, because r*r underflows to 0 for
        # tiny r and 0.5/0.0 raises where 0.5/r/r overflows to inf
        return (-0.5 / r, 0.5 / r / r) if r > 0.0 else None

    def _checked(self, r: float) -> tuple[float, float]:
        pair = self._value_slope(r)
        if pair is None:
            raise DomainError(f"ratio {r} outside domain of {self.kind}")
        return pair

    def evaluate(self, r: float) -> float:
        return self._checked(r)[0]

    def derivative(self, r: float) -> float:
        return self._checked(r)[1]

    def limit_at_infinity(self) -> float:
        """Limit of f(r) as r -> +inf (extended-real)."""
        if self.kind == "neg_half_inverse":
            return 0.0
        if self.weight == 0.0:
            return 0.0
        if self.kind in ("log1m", "neg_identity"):
            return -math.inf
        return math.inf  # identity, log1p


# ---------------------------------------------------------------------------
# Ratio terms and the mixed problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothFn:
    """Scalar-valued smooth function of the decision vector with gradient."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RatioTerm:
    """One ratio ``numerator/denominator`` with its outer function and side.

    At every queried feasible point the numerator must be nonnegative and
    the denominator strictly positive. A max-side term requires an
    increasing outer, a min-side term a decreasing one.
    """

    numerator: SmoothFn
    denominator: SmoothFn
    outer: OuterFunction
    side: str  # "max" or "min"

    def __post_init__(self):
        if self.side not in ("max", "min"):
            raise InvalidInputError(f"side must be 'max' or 'min', got {self.side!r}")
        if self.side == "max" and not self.outer.increasing:
            raise InvalidInputError("max-side term needs an increasing outer function")
        if self.side == "min" and self.outer.increasing:
            raise InvalidInputError("min-side term needs a decreasing outer function")

    def ratio(self, x: np.ndarray) -> float:
        return self.numerator.value(x) / self.denominator.value(x)


@dataclass(frozen=True)
class AuxState:
    """Closed-form auxiliaries: ``y`` per max-side term, ``y_tilde`` per
    min-side term, in term order."""

    y: np.ndarray
    y_tilde: np.ndarray


@dataclass(frozen=True)
class MixedFpProblem:
    """Ratio-term list plus feasible-set descriptor.

    Implements the driver protocol of :mod:`mmfp.solver`: true objective,
    closed-form auxiliary update, and the minorizing surrogate with its
    gradient.
    """

    terms: tuple[RatioTerm, ...]
    feasible: FeasibleSet

    def __post_init__(self):
        if len(self.terms) == 0:
            raise InvalidInputError("a mixed FP problem needs at least one term")

    # -- true objective ------------------------------------------------
    def objective(self, x: np.ndarray) -> float:
        total = 0.0
        for i, term in enumerate(self.terms):
            A = term.numerator.value(x)
            B = term.denominator.value(x)
            if A < 0 or B <= 0:
                raise DomainError(
                    f"term {i}: need A >= 0 and B > 0, got A={A}, B={B}", term_index=i
                )
            r = A / B
            pair = term.outer._value_slope(r)
            if pair is None:
                raise DomainError(
                    f"term {i}: ratio {r} outside domain of {term.outer.kind}",
                    term_index=i,
                )
            total += pair[0]
        return total

    def objective_grad(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros_like(np.asarray(x, dtype=float))
        for term in self.terms:
            A = term.numerator.value(x)
            B = term.denominator.value(x)
            gA = term.numerator.grad(x)
            gB = term.denominator.grad(x)
            r = A / B
            g += term.outer.derivative(r) * (gA * B - A * gB) / (B * B)
        return g

    # -- auxiliary update and surrogate -----------------------------------
    def update_aux(self, x: np.ndarray, eps: float = 1e-12) -> AuxState:
        y, y_tilde = _closed_form_aux(
            ((t.outer, t.numerator.value(x), t.denominator.value(x)) for t in self.terms),
            eps,
        )
        return AuxState(y=y, y_tilde=y_tilde)

    def surrogate(self, x: np.ndarray, aux: AuxState) -> tuple[float, np.ndarray | None]:
        """Surrogate value and gradient at ``x`` for fixed auxiliaries.

        Returns ``(-inf, None)`` when a min-side bracket is nonpositive or
        an outer-domain constraint fails (reject-point signal).
        """
        x = np.asarray(x, dtype=float)
        ratios = (
            (t.outer, t.numerator.value(x), t.denominator.value(x),
             t.numerator.grad(x), t.denominator.grad(x))
            for t in self.terms
        )
        return _quadratic_transform(x, ratios, aux.y, aux.y_tilde)


# ---------------------------------------------------------------------------
# The quadratic transform, shared by every scalar ratio program
# ---------------------------------------------------------------------------


def _closed_form_aux(ratios, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Auxiliaries that make the quadratic transform tight at the point
    where ``ratios`` was evaluated.

    ``ratios`` yields ``(outer, A, B)`` per ratio. A ratio under an
    increasing outer gets ``y = sqrt(A)/B``, one under a decreasing outer
    ``y_tilde = sqrt(B)/(A + eps)``; each array keeps the ratio order.
    """
    y = []
    y_tilde = []
    for outer, A, B in ratios:
        if outer.increasing:
            y.append(opt_y(A, B))
        else:
            y_tilde.append(opt_y_tilde(A, B, eps))
    return np.array(y), np.array(y_tilde)


def _quadratic_transform(
    x: np.ndarray, ratios, y: np.ndarray, y_tilde: np.ndarray, value: float = 0.0
) -> tuple[float, np.ndarray | None]:
    """``value`` plus the transformed ratios, with the gradient in ``x``.

    ``ratios`` yields ``(outer, A, B, grad A, grad B)`` at ``x``, in the
    order the auxiliaries were made by :func:`_closed_form_aux`. A ratio
    under an increasing outer contributes ``f(2*y*sqrt(A) - y**2 * B)``,
    one under a decreasing outer ``f(1 / [2*yt*sqrt(B) - yt**2 * A]_+)``.
    Returns ``(-inf, None)`` as soon as a term leaves its domain (reject
    signal); ``ratios`` is not read past that term.
    """
    grad = np.zeros_like(x)
    i_max = 0
    i_min = 0
    for outer, A, B, gA, gB in ratios:
        if outer.increasing:
            y_i = float(y[i_max])
            i_max += 1
            if A < 0:
                return -math.inf, None
            pair = outer._value_slope(2.0 * y_i * math.sqrt(A) - y_i * y_i * B)
            if pair is None:
                return -math.inf, None
            coeff = y_i / math.sqrt(max(A, _SQRT_GRAD_FLOOR)) if y_i != 0.0 else 0.0
            value += pair[0]
            grad += pair[1] * (coeff * gA - y_i * y_i * gB)
        else:
            yt = float(y_tilde[i_min])
            i_min += 1
            if B < 0:
                return -math.inf, None
            bracket = 2.0 * yt * math.sqrt(B) - yt * yt * A
            if bracket <= 0.0:
                lim = outer.limit_at_infinity()
                if lim == -math.inf:
                    return -math.inf, None
                value += lim  # bounded outer: clamp contributes its limit
                continue
            pair = outer._value_slope(1.0 / bracket)
            if pair is None:
                return -math.inf, None
            g_bracket = (yt / math.sqrt(max(B, POSITIVE_UNDERFLOW))) * gB - yt * yt * gA
            value += pair[0]
            grad += pair[1] * (-1.0 / (bracket * bracket)) * g_bracket
    return value, grad


def mixed_surrogate(problem: MixedFpProblem, x: np.ndarray, anchor: np.ndarray) -> float:
    """Minorizing surrogate anchored at ``anchor`` and evaluated at ``x``.

    Auxiliaries use the exact closed forms (zero safeguard), so the value
    equals the true objective at ``x = anchor`` and never exceeds it
    elsewhere. Returns ``-inf`` when a min-side clamp fires under an outer
    that is unbounded below.
    """
    aux = problem.update_aux(np.asarray(anchor, dtype=float), eps=0.0)
    value, _ = problem.surrogate(np.asarray(x, dtype=float), aux)
    return value


def affine_fn(coeffs: Sequence[float], offset: float = 0.0) -> SmoothFn:
    """Affine helper ``offset + sum_i coeffs[i] * x[i]``."""
    c = np.array(coeffs, dtype=float)
    c.flags.writeable = False  # shared by every gradient call
    # ndarray.dot: the same BLAS product as ``c @ x`` at half the call cost
    return SmoothFn(value=lambda x: float(offset + c.dot(x)), grad=lambda x: c)
