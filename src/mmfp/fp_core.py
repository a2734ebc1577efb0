"""Scalar ratio transforms for mixed max-and-min fractional programs.

A mixed fractional program maximizes

    sum_n f_n(A_n(x) / B_n(x)),    A_n >= 0, B_n > 0 on the feasible set,

where each outer function ``f_n`` is concave and either increasing (the
ratio is to be *maximized*) or decreasing (the ratio is to be *minimized*).
One per-ratio device, the quadratic transform, removes the fractional
coupling on both sides:

* max side:  ``A/B  ->  2*y*sqrt(A) - y**2 * B``      (tight at y = sqrt(A)/B)
* min side:  the max-side bracket of the flipped ratio ``B/A``, reciprocated:
             ``A/B  ->  1 / [2*yt*sqrt(B) - yt**2 * A]_+``
                                                  (tight at yt = sqrt(B)/A)

``[.]_+`` clamps a nonpositive bracket to an infinitesimal positive value so
its reciprocal is IEEE ``+inf``. Both decreasing outers tend to ``-inf``
there, so a clamped ratio of nonzero weight rejects the point, a signal the
MM driver handles, never a crash; a clamped ratio of weight 0 adds 0.

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
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidInputError
from .solver import FeasibleSet

# Smallest positive double; 1/sentinel overflows to +inf, realizing the
# limit semantics of the positive-part clamp.
POSITIVE_UNDERFLOW = 5e-324

# Offset in the min-side auxiliary ``sqrt(B)/(A + Y_TILDE_SAFEGUARD)``:
# keeps it finite as ``A -> 0+``.
Y_TILDE_SAFEGUARD = 1e-12

# Absolute floor applied inside *gradients* of max-side 2*y*sqrt(A(x))
# terms; the derivative is unbounded as A -> 0+ and a finite cap keeps line
# searches numerically sane without affecting values. The min side floors
# its flipped ``sqrt(B)`` at POSITIVE_UNDERFLOW instead: a denominator can
# fall below 1e-24 on a working input.
_SQRT_GRAD_FLOOR = 1e-24


def plus_part(a: float) -> float:
    """Positive-part clamp: ``a`` if positive, else a 0+ sentinel whose
    reciprocal is ``+inf``."""
    return a if a > 0.0 else POSITIVE_UNDERFLOW


def _check_ratio(A: float, B: float) -> None:
    """Reject a ratio outside the transforms' domain ``A >= 0, B > 0``."""
    if A < 0 or B <= 0:
        raise InvalidInputError(f"need A >= 0 and B > 0, got A={A}, B={B}")


def quad_surrogate(A: float, B: float, y: float) -> float:
    """Decoupled max-side value ``2*y*sqrt(A) - y**2 * B``.

    Never exceeds ``A/B``; equality holds exactly at ``y = sqrt(A)/B``.
    """
    _check_ratio(A, B)
    return 2.0 * y * math.sqrt(A) - y * y * B


def opt_y(A: float, B: float) -> float:
    """Maximizer ``sqrt(A)/B`` of the max-side bracket over y."""
    _check_ratio(A, B)
    return math.sqrt(A) / B


def inv_quad_surrogate(A: float, B: float, y_tilde: float) -> float:
    """Decoupled min-side value ``1 / [2*yt*sqrt(B) - yt**2 * A]_+``.

    Never falls below ``A/B``; equality holds at ``yt = sqrt(B)/A``. A
    nonpositive bracket yields ``+inf`` (clamp case), never an exception.
    """
    _check_ratio(A, B)
    return 1.0 / plus_part(2.0 * y_tilde * math.sqrt(B) - y_tilde * y_tilde * A)


def opt_y_tilde(A: float, B: float) -> float:
    """Safeguarded min-side auxiliary ``sqrt(B) / (A + Y_TILDE_SAFEGUARD)``.

    The exact auxiliary is the max-side ``opt_y(B, A)`` of the flipped
    ratio, which needs ``A > 0``; the safeguard keeps it finite as ``A ->
    0+``.
    """
    _check_ratio(A, B)
    return math.sqrt(B) / (A + Y_TILDE_SAFEGUARD)


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
    neg_half_inverse  -w / (2 r)      increasing     r > 0
    neg_identity    -w * r            decreasing     all r

    The closed enumeration lets the driver rely on certified monotonicity
    and concavity; arbitrary user callables could not.
    """

    kind: str
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in _INCREASING_KINDS | _DECREASING_KINDS:
            raise InvalidInputError(f"unknown outer function kind {self.kind!r}")
        if not 0.0 <= self.weight < math.inf:
            raise InvalidInputError("outer function weight must be finite and nonnegative")

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
        return (-0.5 * w / r, 0.5 * w / r / r) if r > 0.0 else None

    def _checked(self, r: float) -> tuple[float, float]:
        pair = self._value_slope(r)
        if pair is None:
            raise DomainError(f"ratio {r} outside domain of {self.kind}")
        return pair

    def evaluate(self, r: float) -> float:
        return self._checked(r)[0]

    def derivative(self, r: float) -> float:
        return self._checked(r)[1]


# ---------------------------------------------------------------------------
# The mixed problem
# ---------------------------------------------------------------------------

# ``x -> (A, B, JA, JB)``: the ``n`` numerators and denominators, shape
# ``(n,)``, and their ``(n, dim)`` Jacobians.
Fractions = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MixedFpProblem:
    """Ratio vector ``A(x)/B(x)``, one outer function per ratio, and the
    feasible set.

    At every queried feasible point each numerator must be nonnegative and
    each denominator strictly positive. A ratio under an increasing outer
    is maximized, one under a decreasing outer minimized. Implements the
    driver protocol of :mod:`mmfp.solver`: true objective, closed-form
    auxiliary update, and the minorizing surrogate with its gradient.
    """

    fractions: Fractions
    outers: tuple[OuterFunction, ...]
    feasible: FeasibleSet

    def __post_init__(self):
        if len(self.outers) == 0:
            raise InvalidInputError("a mixed FP problem needs at least one ratio")

    # -- true objective ------------------------------------------------
    def _outer_terms(self, A: np.ndarray, B: np.ndarray) -> tuple[float, list[float]]:
        """The objective ``sum_n f_n(A_n/B_n)`` and each outer's slope, in
        ratio order; a ratio with ``A < 0``, ``B <= 0`` or outside its
        outer's domain raises :class:`DomainError` naming its index."""
        total = 0.0
        slopes = []  # one per ratio so far: its length is the index at hand
        for outer, a, b in zip(self.outers, A.tolist(), B.tolist()):
            if a < 0 or b <= 0:
                raise DomainError(f"ratio {len(slopes)}: need A >= 0 and B > 0, got A={a}, B={b}", term_index=len(slopes))
            r = a / b
            pair = outer._value_slope(r)
            if pair is None:
                raise DomainError(f"ratio {len(slopes)}: {r} outside domain of {outer.kind}", term_index=len(slopes))
            value, slope = pair
            total += value
            slopes.append(slope)
        return total, slopes

    def objective(self, x: np.ndarray) -> float:
        A, B, _, _ = self.fractions(np.asarray(x, dtype=float))
        return self._outer_terms(A, B)[0]

    def objective_grad(self, x: np.ndarray) -> np.ndarray:
        A, B, JA, JB = self.fractions(np.asarray(x, dtype=float))
        slopes = np.array(self._outer_terms(A, B)[1]) / B
        return JA.T @ slopes - JB.T @ (slopes * A / B)

    # -- auxiliary update and surrogate -----------------------------------
    def update_aux(self, x: np.ndarray) -> np.ndarray:
        """One closed-form auxiliary per ratio, in ratio order (see
        :func:`_closed_form_aux`)."""
        A, B, _, _ = self.fractions(np.asarray(x, dtype=float))
        return _closed_form_aux(self.outers, A, B)

    def surrogate(self, x: np.ndarray, aux: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Surrogate value and gradient at ``x`` for fixed auxiliaries.

        Returns ``(-inf, None)`` when a min-side bracket is nonpositive or
        an outer-domain constraint fails (reject-point signal).
        """
        A, B, JA, JB = self.fractions(np.asarray(x, dtype=float))
        return _quadratic_transform(self.outers, A, B, JA, JB, aux)


# ---------------------------------------------------------------------------
# The quadratic transform, shared by every scalar ratio program
# ---------------------------------------------------------------------------


def _closed_form_aux(outers, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Auxiliaries that make the quadratic transform tight at the point
    where ``A`` and ``B`` were evaluated, one per ratio in ratio order:
    ``y = sqrt(A)/B`` under an increasing outer, the safeguarded ``y_tilde
    = sqrt(B)/(A + Y_TILDE_SAFEGUARD)`` under a decreasing one.
    """
    return np.array([
        opt_y(a, b) if outer.increasing else opt_y_tilde(a, b)
        for outer, a, b in zip(outers, A.tolist(), B.tolist())
    ])


def _quadratic_transform(
    outers, A, B, JA, JB, aux: np.ndarray, value: float = 0.0
) -> tuple[float, np.ndarray | None]:
    """``value`` plus the transformed ratios, with the gradient in ``x``.

    ``A``, ``B`` and their Jacobians ``JA``, ``JB`` are evaluated at ``x``;
    ``aux`` comes from :func:`_closed_form_aux`. Every ratio is bracketed
    as ``2*y*sqrt(top) - y**2 * bottom`` with ``(top, bottom)`` = ``(A,
    B)`` under an increasing outer, which takes ``f(bracket)``, and ``(B,
    A)`` under a decreasing one, which takes ``f(1 / [bracket]_+)``, its
    ``y`` then being the min-side ``y_tilde``. The gradient is ``JA.T @ cA
    + JB.T @ cB`` with one coefficient per ratio in each of ``cA`` and
    ``cB``. Returns ``(-inf, None)`` as soon as a ratio leaves its domain
    (reject signal).
    """
    n = len(outers)
    cA = [0.0] * n
    cB = [0.0] * n
    for i, (outer, a, b, y) in enumerate(zip(outers, A.tolist(), B.tolist(), aux.tolist())):
        increasing = outer.increasing
        top, bottom = (a, b) if increasing else (b, a)
        if top < 0:
            return -math.inf, None
        bracket = 2.0 * y * math.sqrt(top) - y * y * bottom
        if increasing:
            pair = outer._value_slope(bracket)
        elif bracket <= 0.0:
            # the clamped ratio is +inf, where a decreasing outer of
            # nonzero weight tends to -inf and one of weight 0 adds 0
            if outer.weight != 0.0:
                return -math.inf, None
            continue
        else:
            pair = outer._value_slope(1.0 / bracket)
        if pair is None:
            return -math.inf, None
        value += pair[0]
        # d f(1/bracket) = -f' / bracket**2 * d bracket
        slope = pair[1] if increasing else -pair[1] / (bracket * bracket)
        root = math.sqrt(max(top, _SQRT_GRAD_FLOOR if increasing else POSITIVE_UNDERFLOW))
        # d bracket = y / sqrt(top) * d top - y**2 * d bottom; each side
        # keeps its rounding order, which the shipped answers depend on
        c_top = slope * (y / root) if increasing else slope * y / root
        c_bottom = -slope * y * y
        cA[i], cB[i] = (c_top, c_bottom) if increasing else (c_bottom, c_top)
    return value, JA.T @ cA + JB.T @ cB


def affine_fractions(NA, a0, NB, b0) -> Fractions:
    """Ratios ``(NA @ x + a0) / (NB @ x + b0)``.

    The coefficient matrices are copied once, here, and returned read-only
    as the Jacobians of every call.
    """
    NA, a0, NB, b0 = (np.array(v, dtype=float) for v in (NA, a0, NB, b0))
    for v in (NA, a0, NB, b0):
        v.flags.writeable = False

    def fractions(x: np.ndarray):
        return NA @ x + a0, NB @ x + b0, NA, NB

    return fractions
