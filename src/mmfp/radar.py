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

from .errors import DomainError, InvalidInputError, count
from .solver import (
    IterationTrace,
    SolveOptions,
    block_ball_set,
    run_mm,
)
from .units import dbm_to_mw


@dataclass(frozen=True)
class RadarScenario:
    """Geometry, reflection gains, noise and power budgets of the radar set.

    ``beta[m, m']`` is the complex reflection gain from radar ``m'`` into
    radar ``m``; ``sigma2`` and ``power`` are in mW; ``theta`` in radians.
    A radar whose angle derivative is zero to rounding is refused: no
    waveform gives it a finite bound.
    """

    n_tx: tuple[int, ...]
    n_rx: tuple[int, ...]
    theta: tuple[float, ...]
    beta: tuple[tuple[complex, ...], ...]
    sigma2: tuple[float, ...]
    power: tuple[float, ...]
    l_samples: int

    def __post_init__(self):
        for name in ("n_tx", "n_rx"):
            object.__setattr__(self, name, tuple(count(name, v) for v in getattr(self, name)))
        object.__setattr__(self, "l_samples", count("l_samples", self.l_samples))
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
        for r in range(m):
            # |dG_rr| <= pi*(n_tx+n_rx)*|cos theta_r|*|G_rr|, so this fires at
            # endfire, where cos(pi/2) = 6e-17 leaves rounding in the derivative
            scale = math.pi * (self.n_tx[r] + self.n_rx[r]) * np.linalg.norm(response_matrix(self, r, r))
            if np.linalg.norm(response_derivative(self, r)) <= 1e-12 * scale:
                raise InvalidInputError(
                    f"the angle derivative of radar {r}'s response is zero to rounding "
                    "(zero self-gain, one antenna on both arrays, or an endfire angle): its bound is infinite"
                )

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
    return _steering(n, theta)[1]


def _steering(n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`steering_vector` and :func:`steering_derivative` of one array,
    from one steering vector."""
    a = steering_vector(n, theta)
    return a, -1j * math.pi * np.arange(n) * math.cos(theta) * a


def _response(beta: complex, a_r: np.ndarray, a_t: np.ndarray) -> np.ndarray:
    return complex(beta) * np.outer(a_r, a_t)


def _derivative(beta: complex, a_r: np.ndarray, da_r: np.ndarray, a_t: np.ndarray, da_t: np.ndarray) -> np.ndarray:
    return complex(beta) * (np.outer(da_r, a_t) + np.outer(a_r, da_t))


def response_matrix(scenario: RadarScenario, m: int, m_prime: int) -> np.ndarray:
    """Rank-1 echo response ``beta * a_R(theta_m) a_T(theta_m')^T``.

    Plain transpose on the transmit steering vector, not conjugate.
    """
    a_r = steering_vector(scenario.n_rx[m], scenario.theta[m])
    a_t = steering_vector(scenario.n_tx[m_prime], scenario.theta[m_prime])
    return _response(scenario.beta[m][m_prime], a_r, a_t)


def response_derivative(scenario: RadarScenario, m: int) -> np.ndarray:
    """Angle derivative of the self-response ``G_mm`` (product rule over
    both steering vectors)."""
    rx, tx = _steering(scenario.n_rx[m], scenario.theta[m]), _steering(scenario.n_tx[m], scenario.theta[m])
    return _derivative(scenario.beta[m][m], *rx, *tx)


def stack_waveforms(waveforms: list[np.ndarray]) -> np.ndarray:
    """Concatenate ``[Re s_m; Im s_m]`` blocks into one real vector."""
    parts = []
    for s in waveforms:
        parts.append(np.real(s))
        parts.append(np.imag(s))
    return np.concatenate(parts)


def flat_waveforms(scenario: RadarScenario) -> list[np.ndarray]:
    """Each radar's budget spread evenly over its entries: the MM start when
    L < M, and a start that MM has to climb from at L >= M too."""
    lengths = [scenario.waveform_length(m) for m in range(scenario.m_radars)]
    return [np.full(n, math.sqrt(power / n), dtype=complex) for n, power in zip(lengths, scenario.power)]


@dataclass(frozen=True)
class RadarAux:
    """Frozen auxiliaries, zero-padded to the longest waveform:
    ``linear[0, m] = D_m^H Y_m``; ``linear[1 + m, m'] = T_mm'^H Y_m``, zero
    at ``m' = m``; ``rows[m', m] = conj(linear[1 + m, m'])`` but ``rows[m',
    m'] = conj(linear[0, m'])``, the rows the dots with ``s_m'`` take;
    ``noise[m] = sigma_m^2 ||Y_m||^2``.
    """

    Y: list[np.ndarray]
    linear: np.ndarray
    rows: np.ndarray
    noise: list[float]


class RadarMmProblem:
    """The radar bound-sum program over the stacked real waveform
    coordinates: its responses, the bound and the driver protocol.

    The problem keeps each radar's ``N_R x N_T`` responses, not their
    sample-space lifts. :meth:`lifts` allocates one radar's lifts, the
    dense reference; a new point writes each lift in turn into one zeroed
    buffer that lives for that point alone, and clears it again after use.
    """

    def __init__(self, scenario: RadarScenario):
        self.scenario = scenario
        radars = range(scenario.m_radars)
        rx = [_steering(scenario.n_rx[m], scenario.theta[m]) for m in radars]
        tx = [_steering(scenario.n_tx[m], scenario.theta[m]) for m in radars]
        self._responses = [
            {mp: _response(scenario.beta[m][mp], rx[m][0], tx[mp][0]) for mp in [*radars[:m], *radars[m + 1 :]]}
            for m in radars
        ]
        self._derivatives = [_derivative(scenario.beta[m][m], *rx[m], *tx[m]) for m in radars]
        self.s_dims = [scenario.waveform_length(m) for m in radars]
        # block layout of the stacked real decision vector [Re s_m; Im s_m]
        ends = np.cumsum([2 * d for d in self.s_dims]).tolist()
        starts = [0, *ends[:-1]]
        self.total_real_dim = ends[-1]
        # row m of the padded (M, D) waveform array holds s_m; entries 2k and
        # 2k + 1 of its float view are Re and Im s_m[k], at z[_interleave[m,
        # 2k]] and z[_interleave[m, 2k + 1]]; padding indexes the zero that
        # ends _z. _gather is the inverse: the float-view entry of each z.
        dims, k = np.array(self.s_dims)[:, None], np.arange(max(self.s_dims))
        first = np.array(starts)[:, None] + k
        parts = np.stack([first, first + dims], axis=2)
        self._interleave = np.where((k < dims)[..., None], parts, self.total_real_dim).reshape(len(dims), -1)
        flat = self._interleave.ravel()
        ok = flat < self.total_real_dim
        self._gather = np.empty(self.total_real_dim, dtype=np.intp)
        self._gather[flat[ok]] = np.flatnonzero(ok)
        self._z = np.zeros(self.total_real_dim + 1)
        # (first, stop, length) of each run of adjacent radars of one length
        cuts = [m for m in radars[1:] if self.s_dims[m] != self.s_dims[m - 1]]
        self._runs = [(a, b, self.s_dims[a]) for a, b in zip([0, *cuts], [*cuts, len(radars)])]
        self.feasible = block_ball_set(list(zip(starts, ends)), list(scenario.power))
        # the (v_m, K_m^{-1} v_m) pairs of the last stacked point solved, by
        # its bytes: run_mm asks for the objective and then the auxiliaries
        # at the same point
        self._solved_key: bytes | None = None
        self._solved_pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def _lift(self, g: np.ndarray) -> np.ndarray:
        """``I_L kron g``: ``g`` in each of the L diagonal blocks of zeros."""
        l, (r, c) = self.scenario.l_samples, g.shape
        out = np.zeros((l * r, l * c), dtype=complex)
        _blocks(out, l)[...] = g
        return out

    def _lift_buffer(self) -> np.ndarray:
        """Flat zeros the size of the problem's largest lift, for :meth:`_lifted`."""
        sc = self.scenario
        return np.zeros(sc.l_samples**2 * max(sc.n_rx) * max(sc.n_tx), dtype=complex)

    def _lifted(self, buf: np.ndarray, m: int):
        """Radar m's derivative lift (keyed m) and then its cross lifts (keyed
        m'), as in :meth:`lifts`, but each written into the leading entries of
        the flat zeroed ``buf`` and cleared again when the caller moves on."""
        l = self.scenario.l_samples
        for mp, g in [(m, self._derivatives[m]), *self._responses[m].items()]:
            lift = _leading(buf, l * g.shape[0], l * g.shape[1])
            blocks = _blocks(lift, l)
            blocks[...] = g
            yield mp, lift
            blocks[...] = 0.0

    def lifts(self, m: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Radar m's derivative lift ``D_m = I_L kron dG_mm`` and its cross
        lifts ``{m': I_L kron G_mm'}`` over each other radar (ascending);
        only cross lifts enter a covariance."""
        return self._lift(self._derivatives[m]), {mp: self._lift(g) for mp, g in self._responses[m].items()}

    def covariance(self, waveforms: list[np.ndarray], m: int) -> np.ndarray:
        """Interference-plus-noise covariance ``K_m`` of the waveforms."""
        n = self.scenario.l_samples * self.scenario.n_rx[m]
        us = (t @ waveforms[mp] for mp, t in self.lifts(m)[1].items())
        return self._covariance(m, us, np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex))

    def _covariance(self, m: int, us, K: np.ndarray, uu: np.ndarray) -> np.ndarray:
        """``K`` filled with ``sigma_m^2 I + sum_u u u^H`` over the
        interference vectors ``us``, in order; ``uu`` is scratch."""
        K[...] = 0.0
        np.fill_diagonal(K, self.scenario.sigma2[m])
        for u in us:
            K += np.outer(u, u.conj(), out=uu)
        return K

    def _solved(self, z: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every radar's derivative signal ``v_m = D_m s_m`` and ``K_m^{-1}
        v_m`` at the stacked point ``z``: the one solve behind the bound and
        the auxiliaries, once per point. The lifts, ``K_m`` and its scratch
        take three buffers that live for the point alone. The pairs are
        read-only, as callers share them."""
        key = np.asarray(z, dtype=float).tobytes()
        if key != self._solved_key:
            waveforms = self.split(z)
            buf = self._lift_buffer()
            n = self.scenario.l_samples * max(self.scenario.n_rx)
            K, uu = np.empty(n * n, dtype=complex), np.empty(n * n, dtype=complex)
            pairs = []
            for m in range(self.scenario.m_radars):
                lifted = self._lifted(buf, m)
                v = next(lifted)[1] @ waveforms[m]
                # the rest of the pass: the cross lifts, one at a time
                us = (t @ waveforms[mp] for mp, t in lifted)
                k = len(v)
                y = np.linalg.solve(self._covariance(m, us, _leading(K, k, k), _leading(uu, k, k)), v)
                v.flags.writeable = y.flags.writeable = False
                pairs.append((v, y))
            self._solved_key, self._solved_pairs = key, pairs
        return self._solved_pairs

    def _aux_rows(self, Y: list[np.ndarray]) -> np.ndarray:
        """``linear`` of :class:`RadarAux`: the rows ``D_m^H Y_m`` and
        ``T_mm'^H Y_m``, each lift written in turn into one zeroed buffer."""
        buf = self._lift_buffer()
        linear = np.zeros((len(Y) + 1, len(Y), max(self.s_dims)), dtype=complex)
        for m, y in enumerate(Y):
            # (y^H D)^H is D^H y to the bit on these lifts, without a
            # conjugated copy of each lift
            yc = y.conj()
            for mp, t in self._lifted(buf, m):
                linear[0 if mp == m else 1 + m, mp, : self.s_dims[mp]] = (yc @ t).conj()
        linear.flags.writeable = False
        return linear

    def fisher(self, waveforms: list[np.ndarray], m: int) -> float:
        """Likelihood curvature ``2 v^H K^{-1} v`` in radar m's arrival angle,
        from the pairs the objective reads; zero when the derivative signal
        vanishes (the bound is then infinite)."""
        return _curvature(*self._solved(stack_waveforms(waveforms))[m])

    def sum_crb(self, waveforms: list[np.ndarray]) -> float:
        """Sum of the per-radar estimator-variance lower bounds ``1/J_m``:
        minus :meth:`objective` at the stacked waveforms."""
        return _bound(self._solved(stack_waveforms(waveforms)))

    def initial_waveforms(self) -> list[np.ndarray]:
        """Max-power start. With at least as many samples as radars, radar m
        sends ``sqrt(P_m) e_m kron u_m``: ``e_m`` is column m of the unitary
        L x L DFT and ``u_m`` the top eigenvector of ``dG_mm^H dG_mm``. Every
        interference vector into radar m is then orthogonal to its
        derivative signal, and the start attains :func:`crb_lower_bound`.
        Otherwise the start is :func:`flat_waveforms`; ``D_m s`` is zero
        there only where ``D_m`` is, which the scenario refuses."""
        sc = self.scenario
        l, radars = sc.l_samples, range(sc.m_radars)
        if l < len(radars):
            return flat_waveforms(sc)
        # exponents reduced mod L, so no phase exceeds 2 pi
        codes = np.exp(-2j * math.pi * (np.outer(np.arange(l), radars) % l) / l) / math.sqrt(l)
        return [math.sqrt(sc.power[m]) * np.kron(codes[:, m], _top_eigenpair(sc, m)[1]) for m in radars]

    def _pack(self, z: np.ndarray) -> np.ndarray:
        """The waveforms of the stacked vector ``z`` as padded rows."""
        self._z[:-1] = z
        return self._z[self._interleave].view(complex)

    def split(self, z: np.ndarray) -> list[np.ndarray]:
        return [s[:d] for s, d in zip(self._pack(z), self.s_dims)]

    def objective(self, z: np.ndarray) -> float:
        return -_bound(self._solved(z))  # maximization convention

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`objective`: the surrogate is a smooth
        minorizer that touches the objective at its anchor, so the two
        gradients agree there."""
        _, grad = self.surrogate(z, self.update_aux(z))
        if grad is None:
            raise DomainError("the surrogate rejects its own anchor: a likelihood curvature is zero")
        return grad

    def update_aux(self, z: np.ndarray) -> RadarAux:
        radars = range(self.scenario.m_radars)
        Y = [y for _, y in self._solved(z)]
        linear = self._aux_rows(Y)
        rows = linear[1:].transpose(1, 0, 2).conj()
        rows[radars, radars] = linear[0].conj()
        noise = [self.scenario.sigma2[m] * float(np.real(np.vdot(Y[m], Y[m]))) for m in radars]
        return RadarAux(Y=Y, linear=linear, rows=rows, noise=noise)

    def _brackets(self, z: np.ndarray, aux: RadarAux) -> tuple[np.ndarray, np.ndarray]:
        """Per-radar brackets ``q_m`` at the stacked waveforms ``z`` and the
        dots they use, ``dots[m, m', 0] = rows[m', m] . s_m'``."""
        # for each m', M dots of length d_m', each the BLAS dot np.vdot
        # takes; padded to D or as one gemv they would round differently.
        # A run of adjacent radars with one length stacks its dots in one
        # matmul, which takes that dot for each of them.
        S = self._pack(z)
        dots = np.concatenate(
            [
                np.matmul(aux.rows[a:b, :, None, :d], S[a:b, None, :d, None])[..., 0].swapaxes(0, 1)
                for a, b, d in self._runs
            ],
            axis=1,
        )
        q = np.empty(len(aux.noise))
        for m, row in enumerate(dots[:, :, 0].tolist()):
            val = 2.0 * row[m].real - aux.noise[m]
            for d in row[:m] + row[m + 1 :]:
                val -= abs(d) ** 2  # scalar abs and ** 2: array forms round differently
            q[m] = val
        return q, dots

    def surrogate(self, z: np.ndarray, aux: RadarAux) -> tuple[float, np.ndarray | None]:
        q, dots = self._brackets(z, aux)
        if (q <= 0.0).any():
            return -math.inf, None
        value = float((-0.5 / q).sum())
        weights = 0.5 / (q * q)  # d(-1/(2q))/dq
        # row m' of the complex gradient is w_m' linear[0, m'] minus, in
        # ascending m, w_m linear[1 + m, m'] dots[m, m'] (zero at m = m'):
        # one sequential subtract.reduce down the stacked terms
        scale = np.empty((len(q) + 1, len(q), 1))
        scale[0, :, 0] = weights
        scale[1:] = weights[:, None, None]
        terms = scale * aux.linear
        terms[1:] *= dots
        grad = np.subtract.reduce(terms).view(float).ravel()[self._gather]
        grad *= 2.0  # on the floats: a complex product would make inf * 0 = nan
        return value, grad

    def solve(self, opts: SolveOptions) -> tuple[list[np.ndarray], IterationTrace]:
        """Alternating waveform design from :meth:`initial_waveforms`; the
        trace reports the bound sum (positive, nonincreasing) per outer
        iteration."""
        z, trace = run_mm(self, stack_waveforms(self.initial_waveforms()), opts)
        return self.split(z), trace.negated()


def _leading(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first ``rows * cols`` entries of the flat ``buf`` as a C-ordered
    matrix: the strides of a fresh array, so BLAS takes the same path. A
    ``[:rows, :cols]`` view of a wider matrix does not: with one column,
    ``y @ t`` leaves BLAS and rounds differently."""
    return buf[: rows * cols].reshape(rows, cols)


def _blocks(lift: np.ndarray, l: int) -> np.ndarray:
    """The L diagonal blocks of an ``(L r) x (L c)`` lift as a writeable
    ``(L, r, c)`` view: ``lift[i r : (i + 1) r, i c : (i + 1) c]`` is block i."""
    rows, cols = lift.shape
    return np.einsum("iaib->iab", lift.reshape(l, rows // l, l, cols // l))


def _curvature(v: np.ndarray, y: np.ndarray) -> float:
    """``2 v^H y``, the likelihood curvature when ``y = K^{-1} v``."""
    return 2.0 * float(np.real(v.conj() @ y))


def _bound(pairs) -> float:
    """Sum of ``1/J_m`` over the ``(v_m, K_m^{-1} v_m)`` pairs; infinite at
    the first curvature that is not positive."""
    total = 0.0
    for v, y in pairs:
        j = _curvature(v, y)
        if j <= 0.0:
            return math.inf
        total += 1.0 / j
    return total


def _top_eigenpair(scenario: RadarScenario, m: int) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of ``dG_mm^H dG_mm`` and a unit eigenvector: the
    most derivative-signal energy one sample's transmit vector can buy.

    ``dG_mm = beta C V^T`` with ``C = [da_R, a_R]`` and ``V = [a_T, da_T]``,
    so its nonzero eigenpairs are those of the 2 x 2 matrix ``|beta|^2 P``,
    ``P = (C^H C)(V^T conj(V))``: for ``P a = mu a`` the eigenvector is
    ``conj(V) a``. Scalar arithmetic, with no LAPACK eigensolver.
    """
    n_r, n_t, theta = scenario.n_rx[m], scenario.n_tx[m], scenario.theta[m]
    # both arrays steer to theta_m: each vector is a head of the longer one
    a, da = steering_vector(max(n_r, n_t), theta), steering_derivative(max(n_r, n_t), theta)
    a_r, da_r, a_t, da_t = a[:n_r], da[:n_r], a[:n_t], da[:n_t]
    # C^H C = [[c00, c01], [conj(c01), c11]] and V^T conj(V) = [[v00, v01], [conj(v01), v11]]
    c00, c11, v00, v11 = (float(np.vdot(x, x).real) for x in (da_r, a_r, a_t, da_t))
    c01, v01 = complex(np.vdot(da_r, a_r)), complex(np.vdot(da_t, a_t))
    p00, p01 = c00 * v00 + c01 * v01.conjugate(), c00 * v01 + c01 * v11
    p10, p11 = c01.conjugate() * v00 + c11 * v01.conjugate(), c01.conjugate() * v01 + c11 * v11
    # half the trace, and det P = det(C^H C) det(V^T conj(V)), both real
    t = 0.5 * (c00 * v00 + c11 * v11) + (c01 * v01.conjugate()).real
    det = (c00 * c11 - abs(c01) ** 2) * (v00 * v11 - abs(v01) ** 2)
    mu = t + math.sqrt(max(t * t - det, 0.0))
    # either row of P - mu I gives the eigenvector; the longer is the better
    # conditioned, and the only nonzero one when P has rank 1 (one antenna)
    row0, row1 = (p01, mu - p00), (mu - p11, p10)
    a0, a1 = row0 if abs(row0[0]) ** 2 + abs(row0[1]) ** 2 >= abs(row1[0]) ** 2 + abs(row1[1]) ** 2 else row1
    u = a_t.conj() * a0 + da_t.conj() * a1
    return abs(complex(scenario.beta[m][m])) ** 2 * mu, u / np.linalg.norm(u)


def crb_lower_bound(scenario: RadarScenario) -> float:
    """``sum_m sigma_m^2 / (2 lambda_max(dG_mm^H dG_mm) P_m)``, below the sum
    of bounds of every feasible waveform set: ``K_m >= sigma_m^2 I`` and
    ``||D_m s_m||^2 <= lambda_max ||s_m||^2``. Infinite where a derivative
    vanishes."""
    total = 0.0
    for m in range(scenario.m_radars):
        lam = _top_eigenpair(scenario, m)[0]
        if lam <= 0.0:
            return math.inf
        total += scenario.sigma2[m] / (2.0 * lam * scenario.power[m])
    return total


def sum_crb(scenario: RadarScenario, waveforms: list[np.ndarray]) -> float:
    """Sum of the per-radar estimator-variance lower bounds ``1/J_m``."""
    return RadarMmProblem(scenario).sum_crb(waveforms)


def run_algorithm2(
    scenario: RadarScenario, opts: SolveOptions | None = None
) -> tuple[list[np.ndarray], IterationTrace]:
    """Alternating waveform design (:meth:`RadarMmProblem.solve`)."""
    return RadarMmProblem(scenario).solve(opts or SolveOptions())
