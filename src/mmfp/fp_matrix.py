"""Matrix-ratio extension of the mixed fractional-programming transforms.

The matrix analog of a ratio is ``sqrtA^H B^{-1} sqrtA`` where ``sqrtA`` is
any d x l factor with ``sqrtA sqrtA^H = A`` (l <= d). The decoupling
brackets become

* max side:  ``Q+ = sqrtA(x)^H Y + Y^H sqrtA(x) - Y^H B(x) Y``
             (PSD-dominated by the ratio; tight at ``Y = B^{-1} sqrtA``)
* min side:  ``Q- = sqrtB(x)^H Yt + Yt^H sqrtB(x) - Yt^H A(x) Yt``, the
             max-side bracket of the flipped ratio: ``q_plus`` and ``opt_y``
             on ``(sqrtB, A)`` (tight at ``Yt = A^{-1} sqrtB``; the
             surrogate feeds ``(Q-)^{-1}`` to the decreasing outer and
             requires ``Q- > 0``)

Decreasing outers must satisfy the spectral identity
``f((sqrtA^H B^{-1} sqrtA)^{-1}) = f(sqrtB^H A^{-1} sqrtB)``
(:func:`cyclic_check`); trace- and logdet-based outers do, because the two
arguments share a spectrum for full-rank factors.

All operations are pure functions over immutable matrix values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, IllConditionedError, InvalidInputError, NotPsdError

# Condition-number ceiling for trusting a dense solve.
_COND_LIMIT = 1e14
# Strict positive definiteness: smallest eigenvalue must clear this fraction
# of the trace.
_PD_REL_TOL = 1e-12


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize ``(M + M^H)/2`` to suppress floating-point asymmetry."""
    return 0.5 * (M + M.conj().T)


def require_hermitian(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M)
    scale = np.linalg.norm(M, "fro")
    if np.linalg.norm(M - M.conj().T, "fro") > 1e-10 * max(scale, 1e-300):
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    return M


def _solve_pd(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``B X = rhs`` for Hermitian positive definite ``B``."""
    B = np.atleast_2d(np.asarray(B))
    if np.linalg.cond(B) > _COND_LIMIT:
        raise IllConditionedError("denominator matrix is numerically singular")
    return np.linalg.solve(B, rhs)


def matrix_ratio(A_sqrt: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Hermitian PSD matrix ratio ``sqrtA^H B^{-1} sqrtA``."""
    A_sqrt = np.atleast_2d(np.asarray(A_sqrt))
    return hermitize(A_sqrt.conj().T @ _solve_pd(B, A_sqrt))


def q_plus(A_sqrt: np.ndarray, B: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Max-side bracket ``sqrtA^H Y + Y^H sqrtA - Y^H B Y`` (l x l Hermitian)."""
    A_sqrt = np.atleast_2d(np.asarray(A_sqrt))
    B = np.atleast_2d(np.asarray(B))
    Y = np.atleast_2d(np.asarray(Y))
    if Y.shape != A_sqrt.shape or B.shape != (A_sqrt.shape[0], A_sqrt.shape[0]):
        raise InvalidInputError(
            f"shape mismatch: sqrtA {A_sqrt.shape}, B {B.shape}, Y {Y.shape}"
        )
    cross = A_sqrt.conj().T @ Y
    return hermitize(cross + cross.conj().T - Y.conj().T @ B @ Y)


def opt_y(A_sqrt: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Bracket-maximizing auxiliary ``B^{-1} sqrtA`` (PSD order)."""
    return _solve_pd(B, np.atleast_2d(np.asarray(A_sqrt)))


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Square d x d factor ``F`` with ``F F^H = M`` via Hermitian
    eigendecomposition, its columns in descending eigenvalue order.

    Eigenvalues in ``[-1e-9 * ||M||_F, 0)`` are clamped to zero; anything
    more negative raises :class:`NotPsdError`.
    """
    M = np.atleast_2d(np.asarray(M))
    require_hermitian(M)
    if M.shape[0] < 1:
        raise InvalidInputError("need a nonempty matrix")
    scale = np.linalg.norm(M, "fro")
    w, U = np.linalg.eigh(hermitize(M))
    if w.min() < -1e-9 * max(scale, 1e-300):
        raise NotPsdError(f"eigenvalue {w.min()} too negative for a PSD matrix")
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    F = U[:, order] * np.sqrt(w[order])
    if np.linalg.norm(F @ F.conj().T - M, "fro") > 1e-10 * max(scale, 1e-300):
        raise InvalidInputError("the factor does not reproduce the matrix")
    return F


def cyclic_check(f_minus: str, A_sqrt: np.ndarray, B_sqrt: np.ndarray) -> bool:
    """Test utility: does ``f((sqrtA^H B^{-1} sqrtA)^{-1}) == f(sqrtB^H A^{-1} sqrtB)``?

    ``f_minus`` selects the spectral evaluation: ``"trace"`` or ``"logdet"``
    (the latter meaning ``logdet(I + .)``). Requires full-rank square roots.
    True iff the two sides agree to relative 1e-9.
    """
    if f_minus not in ("trace", "logdet"):
        raise InvalidInputError("f_minus must be 'trace' or 'logdet'")
    A_sqrt = np.atleast_2d(np.asarray(A_sqrt))
    B_sqrt = np.atleast_2d(np.asarray(B_sqrt))
    A = hermitize(A_sqrt @ A_sqrt.conj().T)
    B = hermitize(B_sqrt @ B_sqrt.conj().T)
    inner = matrix_ratio(A_sqrt, B)
    if np.linalg.cond(inner) > _COND_LIMIT:
        raise IllConditionedError("ratio matrix is numerically singular")
    lhs_arg = np.linalg.inv(inner)
    rhs_arg = matrix_ratio(B_sqrt, A)
    f = MatrixOuter(f_minus).evaluate
    lhs, rhs = f(lhs_arg), f(rhs_arg)
    return abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# Matrix outer functions and the mixed surrogate
# ---------------------------------------------------------------------------

_MATRIX_INCREASING = frozenset({"trace", "logdet", "neg_half_inverse_trace"})
_MATRIX_DECREASING = frozenset({"neg_trace", "neg_logdet"})


@dataclass(frozen=True)
class MatrixOuter:
    """Concave outer function on l x l Hermitian PSD arguments.

    kind                     f(X)                       monotonicity
    -----------------------  -------------------------  ------------
    trace                    w * tr(X)                  increasing
    logdet                   w * logdet(I + X)          increasing
    neg_half_inverse_trace   -w * tr(X^{-1}) / 2        increasing
    neg_trace                -w * tr(X)                 decreasing
    neg_logdet               -w * logdet(I + X)         decreasing

    With 1 x 1 arguments these reduce to the scalar outer functions
    (identity, log1p, neg_half_inverse, neg_identity).
    """

    kind: str
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in _MATRIX_INCREASING | _MATRIX_DECREASING:
            raise InvalidInputError(f"unknown matrix outer kind {self.kind!r}")
        if not 0.0 <= self.weight < math.inf:
            raise InvalidInputError("weight must be finite and nonnegative")

    @property
    def increasing(self) -> bool:
        return self.kind in _MATRIX_INCREASING

    def evaluate(self, X: np.ndarray) -> float:
        X = np.atleast_2d(np.asarray(X))
        if self.kind == "trace":
            return self.weight * float(np.real(np.trace(X)))
        if self.kind == "neg_trace":
            return -self.weight * float(np.real(np.trace(X)))
        if self.kind == "neg_half_inverse_trace":
            w_eig = np.linalg.eigvalsh(hermitize(X))
            if w_eig.min() <= 0:
                raise DomainError("argument must be positive definite")
            return -0.5 * self.weight * float(np.sum(1.0 / w_eig))
        # sign of the determinant alone misses negative-definite arguments
        # of even dimension, so test eigenvalues
        w_eig = np.linalg.eigvalsh(hermitize(X))
        if w_eig.min() <= -1.0:
            raise DomainError("I + X is not positive definite")
        logabs = float(np.sum(np.log1p(w_eig)))
        return (self.weight if self.kind == "logdet" else -self.weight) * logabs


@dataclass(frozen=True)
class MatrixRatioTerm:
    """One matrix ratio with numerator/denominator maps and an outer function.

    ``numerator(x)`` must be Hermitian PSD, ``denominator(x)`` Hermitian PD,
    both d x d; their square roots are d x d. An increasing outer puts the
    ratio on the max side, a decreasing one on the min side.
    """

    numerator: Callable[[np.ndarray], np.ndarray]
    denominator: Callable[[np.ndarray], np.ndarray]
    outer: MatrixOuter


def is_strictly_pd(M: np.ndarray) -> bool:
    """Positive definiteness with a numeric margin relative to the trace."""
    M = np.atleast_2d(np.asarray(M))
    w = np.linalg.eigvalsh(hermitize(M))
    return bool(w.min() > _PD_REL_TOL * max(float(np.real(np.trace(M))), 1e-300))


def matrix_mixed_objective(terms: list[MatrixRatioTerm], x: np.ndarray) -> float:
    """Sum of outer functions applied to the matrix ratios at ``x``."""
    total = 0.0
    for term in terms:
        A_sqrt = psd_sqrt(term.numerator(x))
        total += term.outer.evaluate(matrix_ratio(A_sqrt, term.denominator(x)))
    return total


def matrix_mixed_surrogate(
    terms: list[MatrixRatioTerm], x: np.ndarray, anchor: np.ndarray
) -> float:
    """Minorizing surrogate for the matrix mixed objective, anchored at
    ``anchor``.

    Every term is bracketed by ``q_plus`` at the ``opt_y`` of the anchor,
    a max-side term on its ratio, a min-side term on the flipped ratio.
    Max-side terms contribute ``f(Q+)``; min-side terms contribute
    ``f((Q-)^{-1})`` and require ``Q-`` strictly positive definite, else the
    point is rejected with ``-inf`` (line-search signal).
    """
    value = 0.0
    for term in terms:
        top, bottom = term.numerator, term.denominator
        if not term.outer.increasing:
            top, bottom = bottom, top
        Y = opt_y(psd_sqrt(top(anchor)), bottom(anchor))
        bracket = q_plus(psd_sqrt(top(x)), bottom(x), Y)
        if term.outer.increasing:
            try:
                value += term.outer.evaluate(bracket)
            except DomainError:
                return -math.inf
        elif not is_strictly_pd(bracket):
            return -math.inf
        else:
            value += term.outer.evaluate(np.linalg.inv(bracket))
    return value
