"""The table of invariants behind ``mmfp verify``.

Each row of :data:`CHECKS` states one structural invariant once: transform
bounds and tightness, spectral identities, algebraic rewrites used by the
applications, gradient consistency against central finite differences, and
ascent monotonicity of the driver. ``draw(rng)`` builds the arguments of one
random instance and ``holds(*instance)`` decides the invariant on it.
:func:`run_suite` evaluates each row of a suite on ``draws`` instances,
drawn in table order from one stream seeded by the suite's position in
:data:`SUITES`. ``mmfp verify``, acceptance criterion 6 and the pytest tests
that restate an invariant all call the same ``holds``, the tests on their
own inputs, and draw from the same public ``random_*`` generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import aoi, fp_core, fp_matrix, radar, secure, solver
from . import lagrangian_dual as ld
from .errors import MmfpError

SUITES = ("core", "matrix", "lagrangian", "apps")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool


@dataclass(frozen=True)
class Check:
    """One row: ``holds(*draw(rng))`` must be true on ``draws`` instances."""

    suite: str
    name: str
    draw: Callable[[np.random.Generator], tuple]
    holds: Callable[..., bool]
    draws: int


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_pd(rng: np.random.Generator, d: int, ridge: float = 0.5) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return fp_matrix.hermitize(A @ A.conj().T + ridge * np.eye(d))


def random_mixed_problem(rng: np.random.Generator):
    """Small random mixed problem with quadratic numerators and affine
    denominators, positive on the box [0.5, 2]^dim; returns it and dim."""
    dim = int(rng.integers(1, 4))
    rows = []
    outers = []
    for _ in range(int(rng.integers(1, 7))):
        rows.append((
            rng.uniform(0.1, 1.0, dim),
            rng.uniform(0.0, 0.5, dim),
            rng.uniform(0.2, 1.0, dim),
            rng.uniform(0.5, 2.0),
        ))
        if rng.random() < 0.5:
            outers.append(fp_core.OuterFunction("log1p", float(rng.uniform(0.2, 2.0))))
        else:
            outers.append(fp_core.OuterFunction("neg_identity", float(rng.uniform(0.2, 2.0))))
    a_lin, a_quad, b_lin, b_off = (np.array(c) for c in zip(*rows))

    def fractions(x):
        return a_lin @ x + a_quad @ (x * x), b_off + b_lin @ x, a_lin + 2 * a_quad * x, b_lin

    feasible = solver.box_set(np.full(dim, 0.5), np.full(dim, 2.0))
    return fp_core.MixedFpProblem(fractions, tuple(outers), feasible), dim


def random_log_ratio_problem(rng: np.random.Generator, offset: float = 0.0, feasible=None):
    """Random ``+/- w * ln(1 + (a.x + offset)/(b.x + b0))`` terms, 1-4 of
    them in 1-3 dimensions, each maximized or minimized at random; returns
    the problem and dim."""
    dim = int(rng.integers(1, 4))
    rows = []
    for _ in range(int(rng.integers(1, 5))):
        rows.append((
            rng.uniform(0.1, 1.0, dim),
            rng.uniform(0.1, 1.0, dim),
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.0, 2.0)),
            bool(rng.random() < 0.5),
        ))
    a, b, b0, weights, maximize = (np.array(c) for c in zip(*rows))
    fractions = fp_core.affine_fractions(a, offset, b, b0)
    return ld.LogRatioMmProblem(fractions, weights, maximize, feasible), dim


def random_secure_scenario(rng: np.random.Generator) -> secure.SecureScenario:
    n = int(rng.integers(1, 6))
    k = int(rng.integers(0, n + 1))
    h2 = rng.uniform(0.01, 0.3, (n, n))
    np.fill_diagonal(h2, rng.uniform(0.5, 1.5, n))
    ht2 = rng.uniform(0.01, 0.3, (k, n))
    for j in range(k):
        ht2[j, j] = rng.uniform(0.1, 0.8)
    return secure.SecureScenario(
        h2=h2,
        ht2=ht2,
        sigma2=rng.uniform(0.05, 1.0, n),
        sigma2_tilde=rng.uniform(0.5, 2.0, k) if k else np.zeros(0),
        p_max=float(rng.uniform(2.0, 20.0)),
        w=rng.uniform(0.1, 2.0, n),
    )


def random_radar_scenario(
    rng: np.random.Generator, m: int | None = None, l_samples: int | None = None
) -> radar.RadarScenario:
    """One or two radars and one or two samples, unless ``m`` and
    ``l_samples`` are given; every draw has a finite bound."""
    m = int(rng.integers(1, 3)) if m is None else m
    beta = tuple(
        tuple(complex(rng.uniform(0.3, 1.0), rng.uniform(-0.3, 0.3)) for _ in range(m))
        for _ in range(m)
    )
    return radar.RadarScenario(
        n_tx=tuple(int(rng.integers(1, 3)) for _ in range(m)),
        n_rx=tuple(int(rng.integers(2, 4)) for _ in range(m)),
        theta=tuple(float(rng.uniform(0.1, 1.3)) for _ in range(m)),
        beta=beta,
        sigma2=tuple(float(rng.uniform(0.5, 2.0)) for _ in range(m)),
        power=tuple(float(rng.uniform(1.0, 20.0)) for _ in range(m)),
        l_samples=int(rng.integers(1, 3)) if l_samples is None else l_samples,
    )


def random_climbing_radar_scenario(rng: np.random.Generator) -> radar.RadarScenario:
    """Two or three radars with fewer samples than radars: the MM start is
    :func:`radar.flat_waveforms`, so MM has to climb (with a sample per
    radar it starts at the bound and maps once)."""
    m = int(rng.integers(2, 4))
    return random_radar_scenario(rng, m, int(rng.integers(1, m)))


def random_waveforms(rng: np.random.Generator, sc: radar.RadarScenario) -> list[np.ndarray]:
    """Complex Gaussian waveforms whose expected energy is each radar's power."""
    return [
        (rng.standard_normal(sc.waveform_length(m)) + 1j * rng.standard_normal(sc.waveform_length(m)))
        * math.sqrt(sc.power[m] / (2 * sc.waveform_length(m)))
        for m in range(sc.m_radars)
    ]


def random_age_case(rng: np.random.Generator):
    """``(source, rates, mu)`` with 1-7 sources whose rates lie below ``mu``."""
    k_sources = int(rng.integers(1, 8))
    mu = float(rng.uniform(0.2, 3.0))
    lam = rng.uniform(0.01, 1.0, k_sources) * mu
    return int(rng.integers(0, k_sources)), lam, mu


def random_leakage_case(rng: np.random.Generator):
    """``(scenario, powers, cell)`` with powers anywhere in ``[0, p_max]``."""
    sc = random_secure_scenario(rng)
    return sc, rng.uniform(0.0, sc.p_max, sc.l_cells), int(rng.integers(0, sc.l_cells))


# ---------------------------------------------------------------------------
# shared predicates
# ---------------------------------------------------------------------------


def gradient_matches(fun: Callable[[np.ndarray], float], g: np.ndarray, x: np.ndarray) -> bool:
    """``g`` agrees with the central finite-difference gradient of ``fun``
    at ``x`` to 1e-5, relative per coordinate."""
    g_fd = solver.central_diff_grad(fun, x)
    return bool(np.all(np.abs(np.asarray(g, dtype=float) - g_fd) <= 1e-5 * (1.0 + np.abs(g_fd))))


def monotone(values: np.ndarray, sign: float = 1.0) -> bool:
    """``sign * values`` never falls by more than ``run_mm``'s
    :func:`~mmfp.solver.ascent_slack`: an ascent trace for ``sign = 1``, a
    descent trace for ``sign = -1``."""
    v = sign * np.asarray(values)
    return bool(np.all(np.diff(v) >= -solver.ascent_slack(v[:-1])))


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------


def quad_bound(A: float, B: float, y: float) -> bool:
    """The max-side surrogate never exceeds the ratio."""
    return fp_core.quad_surrogate(A, B, y) <= A / B + 1e-12


def max_side(A, B, y) -> bool:
    """Bound at ``y``, tightness at ``opt_y`` (to 1e-12 relative above a
    unit ratio: the rounding of ``quad_surrogate`` grows with A/B), and a
    strict gap away from it."""
    y_star = fp_core.opt_y(A, B)
    return (
        quad_bound(A, B, y)
        and abs(fp_core.quad_surrogate(A, B, y_star) - A / B) <= max(1e-12, 1e-12 * A / B)
        and (abs(y - y_star) <= 1e-4 or A <= 1e-8 or fp_core.quad_surrogate(A, B, y) < A / B - 1e-15)
    )


def inv_quad_tight(A: float, B: float) -> bool:
    """The min-side surrogate attains the ratio at ``sqrt(B)/A``."""
    return abs(fp_core.inv_quad_surrogate(A, B, math.sqrt(B) / A) - A / B) <= 1e-9 * (A / B)


def min_side(A, B, yt) -> bool:
    """The min-side surrogate never falls below the ratio and is tight."""
    return fp_core.inv_quad_surrogate(A, B, yt) >= A / B - 1e-12 and inv_quad_tight(A, B)


def mixed_sandwich(problem, x, anchor) -> bool:
    """Surrogate at most the objective at ``x``, equal to it at the anchor,
    with the auxiliaries the MM driver takes there."""
    aux = problem.update_aux(anchor)
    return (
        problem.surrogate(x, aux)[0] <= problem.objective(x) + 1e-9
        and abs(problem.surrogate(anchor, aux)[0] - problem.objective(anchor)) <= 1e-9
    )


def flipped_ratio_lower_bound(a, b) -> bool:
    """The sum of two ratios dominates 4 over the sum of their flips (the
    harmonic mean), strictly unless the ratios are equal."""
    direct = float(np.sum(a / b))
    flipped = 4.0 / float(np.sum(b / a))
    return direct >= flipped - 1e-12 and (
        abs(a[0] / b[0] - a[1] / b[1]) <= 1e-3 or direct > flipped + 1e-12
    )


def fraction_gradients(problem, x) -> bool:
    """Every numerator and denominator Jacobian row, and the objective
    gradient, match finite differences."""
    A, B, JA, JB = problem.fractions(x)
    return all(
        gradient_matches(lambda t: problem.fractions(t)[part][i], jac[i], x)
        for i in range(len(A))
        for part, jac in ((0, JA), (1, JB))
    ) and gradient_matches(problem.objective, problem.objective_grad(x), x)


def outer_derivative_matches(outer: fp_core.OuterFunction, r: float) -> bool:
    fd = solver.central_diff_grad(lambda t: outer.evaluate(t[0]), np.array([r]))[0]
    return abs(outer.derivative(r) - fd) <= max(1e-8 * abs(fd), 1e-12)


def _outer_cases(_rng):
    OF = fp_core.OuterFunction
    return ([
        (outer, r)
        for r in (0.3, 1.0, 2.5)
        for outer in (OF("identity", 1.3), OF("log1p", 0.7), *([OF("log1m", 0.7)] if r < 1 else []),
                      OF("neg_half_inverse"), OF("neg_identity", 2.0))
    ],)


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------


def _random_matrix_pair(rng: np.random.Generator):
    d = int(rng.integers(1, 4))
    return random_pd(rng, d), random_pd(rng, d)


def bracket_below_ratio(A, B, Y) -> bool:
    """``matrix_ratio - q_plus`` is PSD for any auxiliary ``Y``."""
    As = fp_matrix.psd_sqrt(A)
    gap = fp_matrix.matrix_ratio(As, B) - fp_matrix.q_plus(As, B, Y)
    return np.linalg.eigvalsh(fp_matrix.hermitize(gap)).min() >= -1e-10


def _brackets_tight(A, B) -> bool:
    """``q_plus`` is tight at ``opt_y`` on the ratio (``Q+``) and on its
    flip (the min side's ``Q-``)."""
    def tight(top, bottom) -> bool:
        s = fp_matrix.psd_sqrt(top)
        q, ratio = fp_matrix.q_plus(s, bottom, fp_matrix.opt_y(s, bottom)), fp_matrix.matrix_ratio(s, bottom)
        return np.linalg.norm(q - ratio, "fro") <= 1e-10 * max(np.linalg.norm(ratio, "fro"), 1e-12)

    return tight(A, B) and tight(B, A)


def spectral_identity(As, Bs, kinds=("trace", "logdet")) -> bool:
    return all(fp_matrix.cyclic_check(kind, As, Bs) for kind in kinds)


def _scalar_reduction(A, B, y) -> bool:
    mA = np.array([[A]], dtype=complex)
    mB = np.array([[B]], dtype=complex)
    sA = fp_matrix.psd_sqrt(mA)
    sB = fp_matrix.psd_sqrt(mB)
    yt = fp_core.opt_y(B, A)
    bracket = fp_matrix.q_plus(sB, mA, np.array([[yt]]))[0, 0].real
    pairs = [
        (fp_matrix.matrix_ratio(sA, mB)[0, 0].real, A / B),
        (fp_matrix.q_plus(sA, mB, np.array([[y]]))[0, 0].real, fp_core.quad_surrogate(A, B, y)),
        (fp_matrix.opt_y(sA, mB)[0, 0].real, fp_core.opt_y(A, B)),
        (fp_matrix.opt_y(sB, mA)[0, 0].real, yt),
        (1.0 / bracket, fp_core.inv_quad_surrogate(A, B, yt)),
    ]
    return all(abs(u - v) <= 1e-12 * (1 + abs(v)) for u, v in pairs)


def _random_matrix_term_case(rng: np.random.Generator):
    d = int(rng.integers(1, 3))
    a0, a1 = random_pd(rng, d, 1.0), random_pd(rng, d, 0.0)
    b0, b1 = random_pd(rng, d, 1.0), random_pd(rng, d, 0.0)
    term = fp_matrix.MatrixRatioTerm(
        numerator=lambda x: a0 + float(x[0]) * a1,
        denominator=lambda x: b0 + float(x[0]) * b1,
        outer=fp_matrix.MatrixOuter("logdet" if rng.random() < 0.5 else "neg_trace", 1.0),
    )
    x = np.array([float(rng.uniform(0.1, 2.0))])
    anchor = np.array([float(rng.uniform(0.1, 2.0))])
    return [term], x, anchor


def matrix_sandwich(terms, x, anchor) -> bool:
    """Matrix surrogate at most the objective at ``x``, equal to it there
    when anchored at ``x``."""
    f_x = fp_matrix.matrix_mixed_objective(terms, x)
    return (
        fp_matrix.matrix_mixed_surrogate(terms, x, anchor) <= f_x + 1e-10
        and abs(fp_matrix.matrix_mixed_surrogate(terms, x, x) - f_x) <= 1e-9
    )


# ---------------------------------------------------------------------------
# lagrangian
# ---------------------------------------------------------------------------


def _five_point(f, x: float, h: float) -> float:
    """Fourth-order central difference ``f'(x)``."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def closed_forms_stationary(A, B, w) -> bool:
    """``opt_gamma`` and ``opt_gamma_tilde`` are stationary points of the
    zetas and recover ``+/- w ln(1 + A/B)``."""
    g = ld.opt_gamma(A, B)
    gt = ld.opt_gamma_tilde(A, B)
    d_plus = _five_point(lambda t: ld.zeta_plus(w, t, A, B), g, 1e-4 * (1 + g))
    # step must shrink with the distance to the log singularity at 1
    d_minus = _five_point(lambda t: ld.zeta_minus(w, t, A, B), gt, 1e-4 * (1 - gt))
    log = w * math.log1p(A / B)
    tol = 1e-12 * w * (1 + A / B)
    return (
        max(abs(d_plus), abs(d_minus)) <= 1e-8 * min(w, 1.0)
        and abs(ld.zeta_plus(w, g, A, B) - log) <= tol
        and abs(ld.zeta_minus(w, gt, A, B) + log) <= tol
    )


def dual_sandwich(problem, x, anchor) -> bool:
    """The log-ratio dual surrogate is at most the objective at ``x`` and
    equal to it at the anchor."""
    return (
        ld.log_ratio_surrogate(problem, x, anchor) <= ld.log_ratio_objective(problem, x) + 1e-10
        and abs(ld.log_ratio_surrogate(problem, anchor, anchor) - ld.log_ratio_objective(problem, anchor)) <= 1e-10
    )


def _random_log_ratio_case(rng: np.random.Generator):
    problem, dim = random_log_ratio_problem(rng)
    return problem, rng.uniform(0.1, 3.0, dim), rng.uniform(0.1, 3.0, dim)


def _fraction_only(A1, B1, A2, B2, w, g, gt) -> bool:
    # with the auxiliary fixed, the only x-dependence is the plain fraction
    c_plus, c_plus2 = (ld.zeta_plus(w, g, A, B) - w * (1 + g) * A / (A + B) for A, B in ((A1, B1), (A2, B2)))
    c_minus, c_minus2 = (ld.zeta_minus(w, gt, A, B) + w * (1 - gt) * A / B for A, B in ((A1, B1), (A2, B2)))
    return abs(c_plus - c_plus2) <= 1e-12 * (1 + abs(c_plus)) and abs(c_minus - c_minus2) <= 1e-12 * (1 + abs(c_minus))


# ---------------------------------------------------------------------------
# apps
# ---------------------------------------------------------------------------


def age_split(src, lam, mu) -> bool:
    """Source ``src``'s age is the sum of its two fractions, rows ``2 src``
    and ``2 src + 1`` of ``aoi._age_fractions``, the split MM reads."""
    whole = aoi.avg_aoi(src, lam, mu)
    lam = np.asarray(lam, dtype=float)
    A, B = aoi._age_fractions(aoi._loads(lam, mu)[1], lam, mu)
    parts = A[2 * src] / B[2 * src] + A[2 * src + 1] / B[2 * src + 1]
    return abs(whole - parts) <= 1e-12 * (1 + abs(whole))


def total_age_order_sensitive(lam: np.ndarray) -> bool:
    return abs(aoi.sum_aoi(lam, 1.0) - aoi.sum_aoi(lam[::-1], 1.0)) > 1e-6


def leakage_rewrite(sc, p, i) -> bool:
    """Cell i's rate equals the direct method's objective with weight on cell
    i alone: on the direct method's fractions, the log1p outer of its user
    row plus, for an eavesdropped cell, the log1m outer of its whole-row
    leakage row; the rows of weight 0 would add zeros."""
    a = secure.secret_rate(sc, p, i)
    A, B, _, _ = secure._sinr_fractions(sc, whole_row_leakage=True)(np.asarray(p, dtype=float))
    b = 0.0
    for kind, r in [("log1p", i), ("log1m", sc.l_cells + i)][: 1 + (i < sc.k_eavesdropped)]:
        b += fp_core.OuterFunction(kind).evaluate(A[r] / B[r])
    return abs(a - b) <= 1e-12 * (1 + abs(a))


def secure_surrogates_tight(sc, p) -> bool:
    """At its anchor, the fast method's dual surrogate and its quadratic
    transform, and the direct method's surrogate, equal the weighted sum
    rate."""
    ws = secure.weighted_sum_rate(sc, p)
    fast = secure.build_fast_problem(sc)
    dual = ld.log_ratio_surrogate(fast, p, p)
    if abs(dual - ws) > 1e-12 * (1 + abs(ws)):
        return False
    direct = secure.build_direct_problem(sc)
    return (
        abs(fast.surrogate(p, fast.update_aux(p))[0] - dual) <= 1e-10 * (1 + abs(ws))
        and abs(direct.surrogate(p, direct.update_aux(p))[0] - ws) <= 1e-10 * (1 + abs(ws))
    )


def _random_box(rng: np.random.Generator, cap: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A box ``[lo, hi]`` in ``[0, cap]^n``: a point (``lo = hi``) a quarter
    of the time, and some lower corners moved to 0."""
    lo, hi = np.sort(rng.uniform(0.0, cap, (2, n)), axis=0)
    if rng.random() < 0.25:
        hi = lo.copy()
    lo[rng.random(n) < 0.3] = 0.0
    return lo, hi


def _box_points(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every corner of the box and 20 uniform points inside it, as rows."""
    corners = np.indices((2,) * lo.size).reshape(lo.size, -1).T.astype(bool)
    return np.vstack([np.where(corners, hi, lo), rng.uniform(lo, hi, (20, lo.size))])


def _random_secure_box(rng: np.random.Generator):
    """A secure scenario, cross gains zeroed a third of the time, with a
    box of powers and points in it."""
    sc = random_secure_scenario(rng)
    if rng.random() < 1 / 3:
        own_cell = np.arange(sc.l_cells) == np.arange(sc.k_eavesdropped)[:, None]
        sc = replace(sc, h2=np.diag(np.diag(sc.h2)), ht2=sc.ht2 * own_cell)
    lo, hi = _random_box(rng, sc.p_max, sc.l_cells)
    return sc, lo, hi, _box_points(rng, lo, hi)


def secure_bound_dominates(sc, lo, hi, points) -> bool:
    """The box bound the secure grid oracle prunes with is at least the
    weighted sum rate at every given point of the box."""
    upper = float(secure._weighted_sum_rate_batch(sc, hi[None], lo[None])[0])
    rates = secure._weighted_sum_rate_batch(sc, points)
    return bool(np.all(rates <= upper + 1e-12 * (1 + abs(upper))))


def _random_age_box(rng: np.random.Generator):
    k_sources = int(rng.integers(1, 8))
    mu = float(rng.uniform(0.2, 3.0))
    lo, hi = _random_box(rng, mu, k_sources)
    return lo, hi, _box_points(rng, lo, hi), mu


def age_bound_below(lo, hi, points, mu) -> bool:
    """The box bound the age grid oracle prunes with is at most the total
    age at every given point of the box."""
    lower = float(aoi._sum_aoi_lower_bound(lo[None], hi[None], mu)[0])
    ages = aoi._sum_aoi_batch(points, mu)
    return bool(np.all(ages >= lower * (1 - 1e-12) - 1e-12))  # an infinite bound needs infinite ages


def _random_radar_case(rng: np.random.Generator):
    sc = random_radar_scenario(rng)
    return sc, random_waveforms(rng, sc)


def bracket_is_half_curvature(sc, waveforms) -> bool:
    """At the waveforms that set the auxiliaries, each radar's bracket is
    half its Fisher information."""
    problem = radar.RadarMmProblem(sc)
    z = radar.stack_waveforms(waveforms)
    q, _ = problem._brackets(z, problem.update_aux(z))
    half = np.array([problem.fisher(waveforms, m) for m in range(sc.m_radars)]) / 2
    return bool(np.all(np.abs(q - half) <= 1e-10 * np.maximum(np.abs(half), 1e-12)))


def lift_reproduces_objective(sc, waveforms) -> bool:
    """The bound sum at the rank-1 lifts ``S = s s^H``, each ``K_m`` built here
    from them, is the model's, and each ``[[S, s], [s^H, 1]]`` block is PSD."""
    problem = radar.RadarMmProblem(sc)
    lifts = [np.outer(s, s.conj()) for s in waveforms]
    lifted = 0.0
    for m in range(sc.m_radars):
        d, cross = problem.lifts(m)
        K = sc.sigma2[m] * np.eye(d.shape[0]) + sum(t @ lifts[mp] @ t.conj().T for mp, t in cross.items())
        v = d @ waveforms[m]
        j = 2.0 * float(np.real(v.conj() @ np.linalg.solve(K, v)))
        lifted += 1.0 / j if j > 0.0 else math.inf
    direct = problem.sum_crb(waveforms)
    if abs(direct - lifted) > max(1e-10 * abs(direct), 1e-12):
        return False
    blocks = (np.block([[S, s[:, None]], [s.conj()[None, :], np.ones((1, 1))]]) for S, s in zip(lifts, waveforms))
    return all(np.linalg.eigvalsh(fp_matrix.hermitize(block)).min() >= -1e-9 for block in blocks)


def steering_derivative_matches(n: int, theta: float) -> bool:
    fd = solver.central_diff_grad(lambda t: radar.steering_vector(n, t[0]), np.array([theta]))[0]
    return bool(np.all(np.abs(radar.steering_derivative(n, theta) - fd) <= 1e-8 + 1e-5 * np.abs(fd)))


def response_derivative_matches(sc: radar.RadarScenario, m: int) -> bool:
    def response(t):
        theta = tuple(float(t[0]) if i == m else v for i, v in enumerate(sc.theta))
        return radar.response_matrix(replace(sc, theta=theta), m, m)

    fd = solver.central_diff_grad(response, np.array([sc.theta[m]]))[0]
    return bool(np.all(np.abs(radar.response_derivative(sc, m) - fd) <= 1e-5 * (1 + np.abs(fd))))


def _random_bound_case(rng: np.random.Generator):
    """One to four radars with L from 1 to 2M, and projected random waveforms."""
    m = int(rng.integers(1, 5))
    problem = radar.RadarMmProblem(random_radar_scenario(rng, m, int(rng.integers(1, 2 * m + 1))))
    z = problem.feasible.project(radar.stack_waveforms(random_waveforms(rng, problem.scenario)))
    return problem, z


def crb_above_bound(problem, z) -> bool:
    """The sum of bounds at feasible waveforms is at least
    :func:`radar.crb_lower_bound`, up to rounding."""
    return bool(-problem.objective(z) >= radar.crb_lower_bound(problem.scenario) * (1 - 1e-12))


def _random_coded_scenario(rng: np.random.Generator):
    m = int(rng.integers(1, 5))
    return (random_radar_scenario(rng, m, m + int(rng.integers(0, 3))),)


def codes_attain_bound(sc) -> bool:
    """With L >= M the orthogonal-code start's sum of bounds is
    :func:`radar.crb_lower_bound` to 1e-12 relative."""
    problem = radar.RadarMmProblem(sc)
    bound = radar.crb_lower_bound(sc)
    return bool(abs(problem.sum_crb(problem.initial_waveforms()) - bound) <= 1e-12 * bound)


def _random_radar_point(rng: np.random.Generator):
    problem = radar.RadarMmProblem(random_radar_scenario(rng))
    return problem, problem.feasible.project(rng.standard_normal(problem.total_real_dim))


def _radar_derivatives(problem, z) -> bool:
    aux = problem.update_aux(z)
    val, g = problem.surrogate(z, aux)
    if not np.isfinite(val):
        return True  # the surrogate rejects this point; nothing to compare
    sc = problem.scenario
    return (
        gradient_matches(lambda t: problem.surrogate(t, aux)[0], g, z)
        and steering_derivative_matches(sc.n_rx[0], sc.theta[0])
        and response_derivative_matches(sc, 0)
    )


def _seeded(base: int, draw):
    """Draw for a row that runs once on twenty instances, the s-th built
    by ``draw`` from a generator seeded ``base + s``, not from the suite's."""
    return lambda _rng: ([draw(np.random.default_rng(base + s)) for s in range(20)],)


def _monotone_traces(sign: float, runs, **limits):
    """Row check: each of ``runs`` on each scenario, in that order, with
    ``limits`` as solver options, gives a trace monotone in ``sign``'s
    direction (see :func:`monotone`)."""
    opts = solver.SolveOptions(**limits)
    return lambda scenarios: all(monotone(run(sc, opts)[1].objectives, sign) for sc in scenarios for run in runs)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def _uniforms(*bounds):
    """Draw one float from each ``(lo, hi)`` in order."""
    return lambda rng: tuple(float(rng.uniform(lo, hi)) for lo, hi in bounds)


def _random_mixed_case(rng: np.random.Generator):
    problem, dim = random_mixed_problem(rng)
    return problem, rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)


def _random_gradient_case(rng: np.random.Generator):
    problem, dim = random_mixed_problem(rng)
    return problem, rng.uniform(0.6, 1.9, dim)


def _random_bracket_case(rng: np.random.Generator):
    A, B = _random_matrix_pair(rng)
    return A, B, rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape)


def _random_secure_point(rng: np.random.Generator):
    sc = random_secure_scenario(rng)
    return sc, rng.uniform(0.1, sc.p_max, sc.l_cells)


CHECKS: tuple[Check, ...] = (
    Check("core", "max-side bound and tightness", _uniforms((0.0, 10.0), (1e-6, 10.0), (-3.0, 3.0)), max_side, 1000),
    Check("core", "min-side bound and tightness", _uniforms((1e-6, 10.0), (1e-6, 10.0), (-3.0, 3.0)), min_side, 1000),
    Check("core", "surrogate sandwich on random mixed problems", _random_mixed_case, mixed_sandwich, 50),
    Check("core", "flipped-ratio shortcut is only a lower bound",
          lambda rng: (rng.uniform(0.1, 5.0, 2), rng.uniform(0.1, 5.0, 2)), flipped_ratio_lower_bound, 200),
    Check("core", "term and objective gradients match finite differences", _random_gradient_case, fraction_gradients, 30),
    Check("core", "outer-function derivatives match finite differences",
          _outer_cases, lambda cases: all(outer_derivative_matches(*c) for c in cases), 1),
    Check("matrix", "bracket never exceeds the matrix ratio (PSD order)", _random_bracket_case, bracket_below_ratio, 200),
    Check("matrix", "brackets are tight at the closed-form auxiliaries", _random_matrix_pair, _brackets_tight, 200),
    Check("matrix", "spectral identity for trace and logdet outers",
          lambda rng: tuple(fp_matrix.psd_sqrt(M) for M in _random_matrix_pair(rng)), spectral_identity, 200),
    Check("matrix", "1x1 matrix operations reduce to the scalar ones",
          _uniforms((0.1, 5.0), (0.1, 5.0), (-2.0, 2.0)), _scalar_reduction, 200),
    Check("matrix", "matrix surrogate sandwich", _random_matrix_term_case, matrix_sandwich, 40),
    Check("lagrangian", "closed-form auxiliaries are stationary and recover the logs",
          _uniforms((0.01, 5.0), (0.01, 5.0), (0.1, 3.0)), closed_forms_stationary, 500),
    Check("lagrangian", "dual surrogate sandwich on random instances", _random_log_ratio_case, dual_sandwich, 100),
    Check("lagrangian", "no logarithm of any input-dependent quantity remains",
          _uniforms((0.1, 5.0), (0.1, 5.0), (0.1, 5.0), (0.1, 5.0), (0.1, 2.0), (0.0, 4.0), (0.0, 0.9)),
          _fraction_only, 100),
    Check("apps", "age formula equals its two-fraction split", random_age_case, age_split, 10_000),
    Check("apps", "total age is order-sensitive",
          lambda _rng: (np.array([0.3, 0.9, 0.6]),), total_age_order_sensitive, 1),
    Check("apps", "secrecy rate equals its leakage rewrite", random_leakage_case, leakage_rewrite, 10_000),
    Check("apps", "secure surrogates are tight at their anchors", _random_secure_point, secure_surrogates_tight, 200),
    Check("apps", "radar bracket equals half the likelihood curvature", _random_radar_case, bracket_is_half_curvature, 100),
    Check("apps", "rank-1 lift reproduces the covariance objective", _random_radar_case, lift_reproduces_objective, 50),
    Check("apps", "radar derivatives match finite differences", _random_radar_point, _radar_derivatives, 30),
    Check("apps", "age traces are monotone nonincreasing (20 seeds)",
          _seeded(1000, lambda r: aoi.AoiScenario(k=int(r.integers(1, 5)), mu=float(r.uniform(0.5, 2.0)))),
          _monotone_traces(-1.0, (aoi.run_algorithm1,), max_outer=60), 1),
    Check("apps", "secure traces are monotone nondecreasing (20 seeds)",
          _seeded(2000, random_secure_scenario),
          _monotone_traces(1.0, (secure.run_algorithm3, secure.run_algorithm4), max_outer=60, max_inner=2000), 1),
    Check("apps", "radar bound traces are monotone nonincreasing (20 seeds)",
          _seeded(3000, random_climbing_radar_scenario),
          _monotone_traces(-1.0, (radar.run_algorithm2,), max_outer=60, max_inner=2000), 1),
    Check("apps", "secure rate bound dominates every point of its box", _random_secure_box, secure_bound_dominates, 500),
    Check("apps", "age bound lies below every age in its box", _random_age_box, age_bound_below, 500),
    Check("apps", "sum CRB never falls below its bound", _random_bound_case, crb_above_bound, 200),
    Check("apps", "orthogonal codes attain the bound when L >= M", _random_coded_scenario, codes_attain_bound, 100),
)


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them in :data:`SUITES` order."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITES + ('all',)}")
    results = []
    for suite in SUITES if name == "all" else (name,):
        rng = np.random.default_rng(SUITES.index(suite))
        for check in CHECKS:
            if check.suite == suite:
                try:
                    passed = all(check.holds(*check.draw(rng)) for _ in range(check.draws))
                except MmfpError:  # e.g. run_mm's own MonotonicityError: the row fails
                    passed = False
                results.append(CheckResult(suite, check.name, bool(passed)))
    return results
