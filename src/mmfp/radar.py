"""Waveform design minimizing the sum of estimation-error lower bounds
across mutually interfering radar sets.

``M`` co-channel radars observe a common point target. Radar ``m`` collects
``L`` echo samples through an ``N_R_m``-element uniform linear array while
every radar ``m'`` transmits the vectorized waveform ``s_m'`` through its
``N_T_m'``-element array. The cross-radar echo response is the rank-1
matrix ``G_mm' = beta_mm' * a_R(theta_m) a_T(theta_m')^T``, lifted to
sample space as ``T_mm' = I_L kron G_mm'``. With

    K_m  = sum_{m' != m} (T_mm' s_m')(T_mm' s_m')^H + sigma_m^2 I
    v_m  = (I_L kron dG_mm/dtheta) s_m

the curvature of radar m's likelihood in its arrival angle is
``J_m = 2 v_m^H K_m^{-1} v_m`` and the estimator-variance lower bound is
``1/J_m``. The design problem minimizes ``sum_m 1/J_m`` under per-radar
power balls ``||s_m||^2 <= P_m``.

Each ``v_m^H K_m^{-1} v_m`` is a width-1 matrix ratio; its max-side
decoupling bracket

    Q_m = 2 Re(Y_m^H v_m) - sum_{m' != m} |Y_m^H T_mm' s_m'|^2
          - sigma_m^2 ||Y_m||^2

is concave in the stacked real coordinates of all waveforms jointly (the
lifted covariance variable that would make ``K_m`` affine is eliminated:
the bracket is nonincreasing in its slack, so the rank-1 choice is
optimal for the subproblem). The driver alternates ``Y_m = K_m^{-1} v_m``
with maximizing ``sum_m -1/(2 Q_m)``, whose value at the update point is
exactly ``-sum_m 1/J_m``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .solver import (
    IterationTrace,
    SolveOptions,
    block_ball_set,
    project_ball,
    run_mm,
)
from .units import dbm_to_mw


@dataclass(frozen=True)
class RadarScenario:
    """Geometry, reflection gains, noise and power budgets of the radar set.

    ``beta[m, m']`` is the complex reflection gain from radar ``m'`` into
    radar ``m``; ``sigma2`` and ``power`` are in mW; ``theta`` in radians.
    """

    n_tx: tuple[int, ...]
    n_rx: tuple[int, ...]
    theta: tuple[float, ...]
    beta: tuple[tuple[complex, ...], ...]
    sigma2: tuple[float, ...]
    power: tuple[float, ...]
    l_samples: int

    def __post_init__(self):
        m = len(self.n_tx)
        if m < 1 or self.l_samples < 1:
            raise InvalidInputError("need at least one radar and one sample")
        if not (len(self.n_rx) == len(self.theta) == len(self.sigma2) == len(self.power) == m):
            raise InvalidInputError("per-radar field lengths disagree")
        if len(self.beta) != m or any(len(row) != m for row in self.beta):
            raise InvalidInputError("beta must be M x M")
        if min(self.n_tx) < 1 or min(self.n_rx) < 1:
            raise InvalidInputError("antenna counts must be at least 1")
        numbers = [*self.theta, *self.sigma2, *self.power, *(v for row in self.beta for v in row)]
        if not all(cmath.isfinite(v) for v in numbers):
            raise InvalidInputError("angles, gains, noise powers and power budgets must be finite")
        if min(self.sigma2) <= 0 or min(self.power) <= 0:
            raise InvalidInputError("noise powers and power budgets must be positive")

    @property
    def m_radars(self) -> int:
        return len(self.n_tx)

    def waveform_length(self, m: int) -> int:
        return self.l_samples * self.n_tx[m]


def benchmark_scenario(p_dbm: float = 30.0) -> RadarScenario:
    """Five co-channel radars with unit reflection gains and unit noise
    (experiment setup)."""
    theta = (math.pi / 6, math.pi / 3, math.pi / 4, 2 * math.pi / 5, 3 * math.pi / 7)
    ones = tuple(tuple(1.0 + 0.0j for _ in range(5)) for _ in range(5))
    return RadarScenario(
        n_tx=(4, 2, 2, 2, 2),
        n_rx=(6, 4, 4, 4, 4),
        theta=theta,
        beta=ones,
        sigma2=(1.0,) * 5,
        power=(dbm_to_mw(p_dbm),) * 5,
        l_samples=4,
    )


def steering_vector(n: int, theta: float) -> np.ndarray:
    """Half-wavelength ULA response: entries ``exp(-j*pi*k*sin(theta))``."""
    if n < 1:
        raise InvalidInputError("need at least one antenna")
    return np.exp(-1j * math.pi * np.arange(n) * math.sin(theta))


def steering_derivative(n: int, theta: float) -> np.ndarray:
    """Entrywise angle derivative of :func:`steering_vector`."""
    if n < 1:
        raise InvalidInputError("need at least one antenna")
    k = np.arange(n)
    return -1j * math.pi * k * math.cos(theta) * np.exp(-1j * math.pi * k * math.sin(theta))


def response_matrix(scenario: RadarScenario, m: int, m_prime: int) -> np.ndarray:
    """Rank-1 echo response ``beta * a_R(theta_m) a_T(theta_m')^T``.

    Plain transpose on the transmit steering vector, not conjugate.
    """
    a_r = steering_vector(scenario.n_rx[m], scenario.theta[m])
    a_t = steering_vector(scenario.n_tx[m_prime], scenario.theta[m_prime])
    return complex(scenario.beta[m][m_prime]) * np.outer(a_r, a_t)


def response_derivative(scenario: RadarScenario, m: int) -> np.ndarray:
    """Angle derivative of the self-response ``G_mm`` (product rule over
    both steering vectors)."""
    a_r = steering_vector(scenario.n_rx[m], scenario.theta[m])
    a_t = steering_vector(scenario.n_tx[m], scenario.theta[m])
    da_r = steering_derivative(scenario.n_rx[m], scenario.theta[m])
    da_t = steering_derivative(scenario.n_tx[m], scenario.theta[m])
    return complex(scenario.beta[m][m]) * (np.outer(da_r, a_t) + np.outer(a_r, da_t))


def stack_waveforms(waveforms: list[np.ndarray]) -> np.ndarray:
    """Concatenate ``[Re s_m; Im s_m]`` blocks into one real vector."""
    parts = []
    for s in waveforms:
        parts.append(np.real(s))
        parts.append(np.imag(s))
    return np.concatenate(parts)


def unstack_waveforms(z: np.ndarray, dims: list[int]) -> list[np.ndarray]:
    out = []
    pos = 0
    for d in dims:
        re = z[pos : pos + d]
        im = z[pos + d : pos + 2 * d]
        out.append(re + 1j * im)
        pos += 2 * d
    return out


@dataclass(frozen=True)
class RadarAux:
    """Frozen auxiliaries plus per-term constants for fast bracket evaluation.

    ``affine[m] = D_m^H Y_m``; ``cross[m][m'] = T_mm'^H Y_m``, keyed like
    ``T[m]``; ``noise[m] = sigma_m^2 ||Y_m||^2``.
    """

    Y: list[np.ndarray]
    affine: list[np.ndarray]
    cross: list[dict[int, np.ndarray]]
    noise: list[float]


class RadarMmProblem:
    """The radar bound-sum program over the stacked real waveform
    coordinates: its sample-space lifts, the bound and the driver protocol.

    ``T[m]`` maps each other radar ``m'`` (ascending) to the cross lift
    ``I_L kron G_mm'``; only cross lifts enter a covariance. ``D[m] = I_L
    kron dG_mm`` is the derivative lift. Both are built once here.
    """

    def __init__(self, scenario: RadarScenario):
        self.scenario = scenario
        radars = range(scenario.m_radars)
        eye_l = np.eye(scenario.l_samples)
        self.T = [
            {mp: np.kron(eye_l, response_matrix(scenario, m, mp)) for mp in [*radars[:m], *radars[m + 1 :]]}
            for m in radars
        ]
        self.D = [np.kron(eye_l, response_derivative(scenario, m)) for m in radars]
        self.s_dims = [scenario.waveform_length(m) for m in radars]
        # block layout of the stacked real decision vector [Re s_m; Im s_m]
        ends = np.cumsum([2 * d for d in self.s_dims]).tolist()
        self.total_real_dim = ends[-1]
        self.feasible = block_ball_set(list(zip([0, *ends[:-1]], ends)), list(scenario.power))

    def covariance(self, waveforms: list[np.ndarray], m: int, lifts: list | None = None) -> np.ndarray:
        """``K_m`` of the waveforms, or with the PSD lift variables ``lifts``
        in place of the waveforms' rank-1 outer products."""
        K = self.scenario.sigma2[m] * np.eye(self.D[m].shape[0], dtype=complex)
        for mp, t in self.T[m].items():
            if lifts is None:
                u = t @ waveforms[mp]
                K += np.outer(u, u.conj())
            else:
                K += t @ lifts[mp] @ t.conj().T
        return K

    def fisher(self, waveforms: list[np.ndarray], m: int, lifts: list | None = None) -> float:
        """Likelihood curvature ``2 v^H K^{-1} v`` in radar m's arrival angle.

        Zero when the derivative signal vanishes (the bound is then infinite).
        """
        v = self.D[m] @ waveforms[m]
        if np.linalg.norm(v) == 0.0:
            return 0.0
        K = self.covariance(waveforms, m, lifts)
        return 2.0 * float(np.real(v.conj() @ np.linalg.solve(K, v)))

    def sum_crb(self, waveforms: list[np.ndarray], lifts: list | None = None) -> float:
        """Sum of the per-radar estimator-variance lower bounds ``1/J_m``."""
        total = 0.0
        for m in range(self.scenario.m_radars):
            j = self.fisher(waveforms, m, lifts)
            if j <= 0.0:
                return math.inf
            total += 1.0 / j
        return total

    def initial_waveforms(self, seed: int = 0) -> list[np.ndarray]:
        """Flat max-power start, perturbed only if the derivative signal is
        degenerate there."""
        rng = np.random.default_rng(seed)
        waveforms = []
        for n, d, power in zip(self.s_dims, self.D, self.scenario.power):
            s = np.full(n, math.sqrt(power / n), dtype=complex)
            d_scale = np.linalg.norm(d, "fro") * np.linalg.norm(s)
            if np.linalg.norm(d @ s) <= 1e-12 * max(d_scale, 1e-300):
                noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                s = s + 1e-3 * np.linalg.norm(s) * noise / np.linalg.norm(noise)
                s = project_ball(s, power)
            waveforms.append(s)
        return waveforms

    def split(self, z: np.ndarray) -> list[np.ndarray]:
        return unstack_waveforms(np.asarray(z, dtype=float), self.s_dims)

    def objective(self, z: np.ndarray) -> float:
        return -self.sum_crb(self.split(z))  # maximization convention

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`objective`: the surrogate is a smooth
        minorizer that touches the objective at its anchor, so the two
        gradients agree there."""
        _, grad = self.surrogate(z, self.update_aux(z))
        if grad is None:
            raise DomainError("the surrogate rejects its own anchor: a likelihood curvature is zero")
        return grad

    def update_aux(self, z: np.ndarray) -> RadarAux:
        waveforms = self.split(z)
        radars = range(self.scenario.m_radars)
        Y = [np.linalg.solve(self.covariance(waveforms, m), self.D[m] @ waveforms[m]) for m in radars]
        affine = [self.D[m].conj().T @ Y[m] for m in radars]
        cross = [{mp: t.conj().T @ Y[m] for mp, t in self.T[m].items()} for m in radars]
        noise = [self.scenario.sigma2[m] * float(np.real(np.vdot(Y[m], Y[m]))) for m in radars]
        return RadarAux(Y=Y, affine=affine, cross=cross, noise=noise)

    def _brackets(self, waveforms: list[np.ndarray], aux: RadarAux) -> tuple[np.ndarray, list[dict]]:
        """Per-radar brackets ``q_m`` and the cross dots they use,
        ``dots[m][m'] = cross[m][m']^H s_m'``, keyed like ``T[m]``."""
        dots = [{mp: np.vdot(a, waveforms[mp]) for mp, a in cross.items()} for cross in aux.cross]
        q = np.empty(len(dots))
        for m, dots_m in enumerate(dots):
            val = 2.0 * float(np.real(np.vdot(aux.affine[m], waveforms[m]))) - aux.noise[m]
            for d in dots_m.values():
                val -= abs(d) ** 2
            q[m] = val
        return q, dots

    def surrogate(self, z: np.ndarray, aux: RadarAux) -> tuple[float, np.ndarray | None]:
        waveforms = self.split(z)
        q, dots = self._brackets(waveforms, aux)
        if np.any(q <= 0.0):
            return -math.inf, None
        value = float(np.sum(-0.5 / q))
        weights = 0.5 / (q * q)  # d(-1/(2q))/dq
        grad_c = [weights[m] * a for m, a in enumerate(aux.affine)]
        for m, cross in enumerate(aux.cross):
            for mp, a in cross.items():
                grad_c[mp] -= weights[m] * a * dots[m][mp]
        return value, 2.0 * stack_waveforms(grad_c)


def sum_crb(scenario: RadarScenario, waveforms: list[np.ndarray]) -> float:
    """Sum of the per-radar estimator-variance lower bounds ``1/J_m``."""
    return RadarMmProblem(scenario).sum_crb(waveforms)


def run_algorithm2(
    scenario: RadarScenario, opts: SolveOptions | None = None
) -> tuple[list[np.ndarray], IterationTrace]:
    """Alternating waveform design; the trace reports the bound sum
    (positive, nonincreasing) per outer iteration."""
    opts = opts or SolveOptions()
    problem = RadarMmProblem(scenario)
    z0 = stack_waveforms(problem.initial_waveforms(seed=opts.seed))
    z, trace = run_mm(problem, z0, opts)
    return problem.split(z), trace.negated()
