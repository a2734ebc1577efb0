"""Seeded property suites behind ``mmfp verify``.

Each suite re-checks the library's structural invariants on freshly drawn
random instances: transform bounds and tightness, spectral identities,
algebraic rewrites used by the applications, gradient consistency against
central finite differences, and ascent monotonicity of the driver. Every
check prints one PASS/FAIL line; a suite passes iff all its checks do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import aoi, fp_core, fp_matrix, lagrangian_dual, radar, secure, solver

SUITES = ("core", "matrix", "lagrangian", "apps")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool


def _rand_pd(rng: np.random.Generator, d: int, ridge: float = 0.5) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return fp_matrix.hermitize(A @ A.conj().T + ridge * np.eye(d))


def _rand_mixed_problem(rng: np.random.Generator):
    """Small random mixed problem with quadratic numerators and affine
    denominators, positive on the box [0.5, 2]^dim."""
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
            outers.append(fp_core.OuterFunction.log1p(float(rng.uniform(0.2, 2.0))))
        else:
            outers.append(fp_core.OuterFunction.neg_identity(float(rng.uniform(0.2, 2.0))))
    a_lin, a_quad, b_lin, b_off = (np.array(c) for c in zip(*rows))

    def fractions(x):
        return a_lin @ x + a_quad @ (x * x), b_off + b_lin @ x, a_lin + 2 * a_quad * x, b_lin

    feasible = solver.box_set(np.full(dim, 0.5), np.full(dim, 2.0))
    return fp_core.MixedFpProblem(fractions, tuple(outers), feasible), dim


def _check_grad(fun, grad, x, rel=1e-5) -> bool:
    g = np.asarray(grad(x), dtype=float)
    g_fd = solver.central_diff_grad(fun, x)
    return bool(np.all(np.abs(g - g_fd) <= rel * (1.0 + np.abs(g_fd))))


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------


def suite_core() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    out = []

    ok = True
    for _ in range(1000):
        A = rng.uniform(0.0, 10.0)
        B = rng.uniform(1e-6, 10.0)
        y = rng.uniform(-3.0, 3.0)
        if fp_core.quad_surrogate(A, B, y) > A / B + 1e-12:
            ok = False
            break
        y_star = fp_core.opt_y(A, B)
        if abs(fp_core.quad_surrogate(A, B, y_star) - A / B) > 1e-12:
            ok = False
            break
        if abs(y - y_star) > 1e-4 and A > 1e-8:
            if fp_core.quad_surrogate(A, B, y) >= A / B - 1e-15:
                ok = False
                break
    out.append(CheckResult("core", "max-side bound and tightness", ok))

    ok = True
    for _ in range(1000):
        A = rng.uniform(1e-6, 10.0)
        B = rng.uniform(1e-6, 10.0)
        yt = rng.uniform(-3.0, 3.0)
        if fp_core.inv_quad_surrogate(A, B, yt) < A / B - 1e-12:
            ok = False
            break
        yt_star = math.sqrt(B) / A
        if abs(fp_core.inv_quad_surrogate(A, B, yt_star) - A / B) > 1e-9 * (A / B):
            ok = False
            break
    out.append(CheckResult("core", "min-side bound and tightness", ok))

    ok = True
    for _ in range(50):
        problem, dim = _rand_mixed_problem(rng)
        x = rng.uniform(0.5, 2.0, dim)
        anchor = rng.uniform(0.5, 2.0, dim)
        f_x = problem.objective(x)
        s_anchor = fp_core.mixed_surrogate(problem, anchor, anchor)
        s_x = fp_core.mixed_surrogate(problem, x, anchor)
        if s_x > f_x + 1e-9 or abs(s_anchor - problem.objective(anchor)) > 1e-9:
            ok = False
            break
    out.append(CheckResult("core", "surrogate sandwich on random mixed problems", ok))

    ok = True
    for _ in range(200):
        a = rng.uniform(0.1, 5.0, 2)
        b = rng.uniform(0.1, 5.0, 2)
        direct = float(np.sum(a / b))
        flipped = 4.0 / float(np.sum(b / a))
        if direct < flipped - 1e-12:
            ok = False
            break
        if abs(a[0] / b[0] - a[1] / b[1]) > 1e-3 and direct <= flipped + 1e-12:
            ok = False
            break
    out.append(CheckResult("core", "flipped-ratio shortcut is only a lower bound", ok))

    ok = True
    for _ in range(30):
        problem, dim = _rand_mixed_problem(rng)
        x = rng.uniform(0.6, 1.9, dim)
        for i in range(len(problem.outers)):
            for part in (0, 1):  # numerator, then denominator; Jacobian at part + 2
                fun = lambda t: problem.fractions(t)[part][i]
                if not _check_grad(fun, lambda t: problem.fractions(t)[part + 2][i], x):
                    ok = False
        if not _check_grad(problem.objective, problem.objective_grad, x):
            ok = False
    out.append(CheckResult("core", "term and objective gradients match finite differences", ok))

    ok = True
    for r in [0.3, 1.0, 2.5]:
        for outer in [
            fp_core.OuterFunction.identity(1.3),
            fp_core.OuterFunction.log1p(0.7),
            fp_core.OuterFunction.log1m(0.7) if r < 1 else None,
            fp_core.OuterFunction.neg_half_inverse(),
            fp_core.OuterFunction.neg_identity(2.0),
        ]:
            if outer is None:
                continue
            h = 1e-6 * (1 + abs(r))
            fd = (outer.evaluate(r + h) - outer.evaluate(r - h)) / (2 * h)
            if abs(outer.derivative(r) - fd) > 1e-8 * (1 + abs(fd)):
                ok = False
    out.append(CheckResult("core", "outer-function derivatives match finite differences", ok))
    return out


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------


def suite_matrix() -> list[CheckResult]:
    rng = np.random.default_rng(1)
    out = []

    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 4))
        A = _rand_pd(rng, d)
        B = _rand_pd(rng, d)
        Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gap = fp_matrix.matrix_ratio(fp_matrix.psd_sqrt(A), B) - fp_matrix.q_plus(
            fp_matrix.psd_sqrt(A), B, Y
        )
        if np.linalg.eigvalsh(fp_matrix.hermitize(gap)).min() < -1e-10:
            ok = False
            break
    out.append(CheckResult("matrix", "bracket never exceeds the matrix ratio (PSD order)", ok))

    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 4))
        A = _rand_pd(rng, d)
        B = _rand_pd(rng, d)
        As, Bs = fp_matrix.psd_sqrt(A), fp_matrix.psd_sqrt(B)
        ratio = fp_matrix.matrix_ratio(As, B)
        t1 = fp_matrix.q_plus(As, B, fp_matrix.opt_y(As, B)) - ratio
        mirror = fp_matrix.matrix_ratio(Bs, A)
        t2 = fp_matrix.q_minus(Bs, A, fp_matrix.opt_y_tilde(Bs, A)) - mirror
        if np.linalg.norm(t1, "fro") > 1e-10 * max(np.linalg.norm(ratio, "fro"), 1e-12):
            ok = False
            break
        if np.linalg.norm(t2, "fro") > 1e-10 * max(np.linalg.norm(mirror, "fro"), 1e-12):
            ok = False
            break
    out.append(CheckResult("matrix", "brackets are tight at the closed-form auxiliaries", ok))

    ok = True
    for _ in range(200):
        d = int(rng.integers(1, 4))
        As = fp_matrix.psd_sqrt(_rand_pd(rng, d))
        Bs = fp_matrix.psd_sqrt(_rand_pd(rng, d))
        if not fp_matrix.cyclic_check("trace", As, Bs):
            ok = False
            break
        if not fp_matrix.cyclic_check("logdet", As, Bs):
            ok = False
            break
    out.append(CheckResult("matrix", "spectral identity for trace and logdet outers", ok))

    ok = True
    for _ in range(200):
        A = float(rng.uniform(0.1, 5.0))
        B = float(rng.uniform(0.1, 5.0))
        y = float(rng.uniform(-2.0, 2.0))
        mA = np.array([[A]], dtype=complex)
        mB = np.array([[B]], dtype=complex)
        sA = fp_matrix.psd_sqrt(mA)
        sB = fp_matrix.psd_sqrt(mB)
        checks = [
            (fp_matrix.matrix_ratio(sA, mB)[0, 0].real, A / B),
            (fp_matrix.q_plus(sA, mB, np.array([[y]]))[0, 0].real,
             fp_core.quad_surrogate(A, B, y)),
            (fp_matrix.opt_y(sA, mB)[0, 0].real, fp_core.opt_y(A, B)),
            (fp_matrix.opt_y_tilde(sB, mA)[0, 0].real, fp_core.opt_y_tilde(A, B, 0.0)),
        ]
        bracket = fp_matrix.q_minus(sB, mA, np.array([[fp_core.opt_y_tilde(A, B, 0.0)]]))[0, 0].real
        checks.append((1.0 / bracket, fp_core.inv_quad_surrogate(A, B, fp_core.opt_y_tilde(A, B, 0.0))))
        if any(abs(u - v) > 1e-12 * (1 + abs(v)) for u, v in checks):
            ok = False
            break
    out.append(CheckResult("matrix", "1x1 matrix operations reduce to the scalar ones", ok))

    ok = True
    for _ in range(40):
        d = int(rng.integers(1, 3))
        a0, a1 = _rand_pd(rng, d, 1.0), _rand_pd(rng, d, 0.0)
        b0, b1 = _rand_pd(rng, d, 1.0), _rand_pd(rng, d, 0.0)
        outer = fp_matrix.MatrixOuter("logdet" if rng.random() < 0.5 else "neg_trace", 1.0)
        term = fp_matrix.MatrixRatioTerm(
            numerator=lambda x, a0=a0, a1=a1: a0 + float(x[0]) * a1,
            denominator=lambda x, b0=b0, b1=b1: b0 + float(x[0]) * b1,
            outer=outer,
        )
        x = np.array([float(rng.uniform(0.1, 2.0))])
        anchor = np.array([float(rng.uniform(0.1, 2.0))])
        f_x = fp_matrix.matrix_mixed_objective([term], x)
        if fp_matrix.matrix_mixed_surrogate([term], x, anchor) > f_x + 1e-9:
            ok = False
            break
        if abs(fp_matrix.matrix_mixed_surrogate([term], x, x) - f_x) > 1e-9:
            ok = False
            break
    out.append(CheckResult("matrix", "matrix surrogate sandwich", ok))
    return out


# ---------------------------------------------------------------------------
# lagrangian
# ---------------------------------------------------------------------------


def suite_lagrangian() -> list[CheckResult]:
    rng = np.random.default_rng(2)
    ld = lagrangian_dual
    out = []

    ok = True
    for _ in range(500):
        A = float(rng.uniform(0.01, 5.0))
        B = float(rng.uniform(0.01, 5.0))
        w = float(rng.uniform(0.1, 3.0))
        g = ld.opt_gamma(A, B)
        gt = ld.opt_gamma_tilde(A, B)
        h = 1e-6 * (1 + g)
        d_plus = (ld.zeta_plus(w, g + h, A, B) - ld.zeta_plus(w, g - h, A, B)) / (2 * h)
        # step must shrink with the distance to the log singularity at 1
        h = 1e-5 * (1 - gt)
        d_minus = (ld.zeta_minus(w, gt + h, A, B) - ld.zeta_minus(w, gt - h, A, B)) / (2 * h)
        if abs(d_plus) > 1e-8 * w or abs(d_minus) > 1e-8 * w:
            ok = False
            break
        if abs(ld.zeta_plus(w, g, A, B) - w * math.log1p(A / B)) > 1e-12 * w * (1 + A / B):
            ok = False
            break
        if abs(ld.zeta_minus(w, gt, A, B) + w * math.log1p(A / B)) > 1e-12 * w * (1 + A / B):
            ok = False
            break
    out.append(CheckResult("lagrangian", "closed-form auxiliaries are stationary and recover the logs", ok))

    ok = True
    for _ in range(100):
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
        a, b, off, weights, maximize = (np.array(c) for c in zip(*rows))
        problem = ld.LogRatioMmProblem(
            fp_core.affine_fractions(a, 0.0, b, off), weights, maximize, None
        )
        x = rng.uniform(0.1, 3.0, dim)
        anchor = rng.uniform(0.1, 3.0, dim)
        f_x = ld.log_ratio_objective(problem, x)
        if ld.log_ratio_surrogate(problem, x, anchor) > f_x + 1e-10:
            ok = False
            break
        if abs(ld.log_ratio_surrogate(problem, anchor, anchor) - ld.log_ratio_objective(problem, anchor)) > 1e-10:
            ok = False
            break
    out.append(CheckResult("lagrangian", "dual surrogate sandwich on random instances", ok))

    ok = True
    for _ in range(100):
        A1, B1 = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
        A2, B2 = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
        w, g = float(rng.uniform(0.1, 2)), float(rng.uniform(0.0, 4))
        gt = float(rng.uniform(0.0, 0.9))
        # with the auxiliary fixed, the only x-dependence is the plain fraction
        c_plus = ld.zeta_plus(w, g, A1, B1) - w * (1 + g) * A1 / (A1 + B1)
        c_plus2 = ld.zeta_plus(w, g, A2, B2) - w * (1 + g) * A2 / (A2 + B2)
        c_minus = ld.zeta_minus(w, gt, A1, B1) + w * (1 - gt) * A1 / B1
        c_minus2 = ld.zeta_minus(w, gt, A2, B2) + w * (1 - gt) * A2 / B2
        if abs(c_plus - c_plus2) > 1e-12 * (1 + abs(c_plus)) or abs(c_minus - c_minus2) > 1e-12 * (1 + abs(c_minus)):
            ok = False
            break
    out.append(CheckResult("lagrangian", "no logarithm of any input-dependent quantity remains", ok))
    return out


# ---------------------------------------------------------------------------
# apps
# ---------------------------------------------------------------------------


def _rand_secure_scenario(rng: np.random.Generator) -> secure.SecureScenario:
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
        sigma2_tilde=rng.uniform(0.5, 2.0, max(k, 1))[:k] if k else np.ones(0),
        p_max=float(rng.uniform(2.0, 20.0)),
        w=rng.uniform(0.1, 2.0, n),
    )


def _rand_radar_scenario(rng: np.random.Generator) -> radar.RadarScenario:
    m = int(rng.integers(1, 3))
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
        l_samples=int(rng.integers(1, 3)),
    )


def _trace_monotone(values: np.ndarray, sign: float = 1.0) -> bool:
    v = sign * values
    return bool(np.all(np.diff(v) >= -1e-9 * (1.0 + np.abs(v[:-1]))))


def suite_apps() -> list[CheckResult]:
    rng = np.random.default_rng(3)
    out = []

    ok = True
    for _ in range(10_000):
        k_sources = int(rng.integers(1, 8))
        mu = float(rng.uniform(0.2, 3.0))
        lam = rng.uniform(0.01, 1.0, k_sources) * mu
        src = int(rng.integers(0, k_sources))
        whole = aoi.avg_aoi(src, lam, mu)
        parts = aoi.avg_aoi_decomposed(src, lam, mu)
        if abs(whole - (parts[0] + parts[1])) > 1e-12 * (1 + abs(whole)):
            ok = False
            break
    out.append(CheckResult("apps", "age formula equals its two-fraction split", ok))

    ok = True
    lam = np.array([0.3, 0.9, 0.6])
    if abs(aoi.sum_aoi(lam, 1.0) - aoi.sum_aoi(lam[::-1], 1.0)) < 1e-6:
        ok = False
    out.append(CheckResult("apps", "total age is order-sensitive", ok))

    ok = True
    for _ in range(10_000):
        sc = _rand_secure_scenario(rng)
        p = rng.uniform(0.0, sc.p_max, sc.l_cells)
        i = int(rng.integers(0, sc.l_cells))
        a = secure.secret_rate(sc, p, i)
        b = secure.secret_rate_via_leakage(sc, p, i)
        if abs(a - b) > 1e-12 * (1 + abs(a)):
            ok = False
            break
    out.append(CheckResult("apps", "secrecy rate equals its leakage rewrite", ok))

    ok = True
    for _ in range(200):
        sc = _rand_secure_scenario(rng)
        p = rng.uniform(0.1, sc.p_max, sc.l_cells)
        ws = secure.weighted_sum_rate(sc, p)
        prob4 = secure.build_fast_problem(sc)
        dual = lagrangian_dual.log_ratio_surrogate(prob4, p, p)
        if abs(dual - ws) > 1e-10 * (1 + abs(ws)):
            ok = False
            break
        aux = prob4.update_aux(p, 1e-12)
        v, _ = prob4.surrogate(p, aux)
        if abs(v - dual) > 1e-10 * (1 + abs(ws)):
            ok = False
            break
        prob3 = secure.build_direct_problem(sc)
        aux3 = prob3.update_aux(p, 0.0)
        v3, _ = prob3.surrogate(p, aux3)
        if abs(v3 - ws) > 1e-10 * (1 + abs(ws)):
            ok = False
            break
    out.append(CheckResult("apps", "secure surrogates are tight at their anchors", ok))

    ok = True
    for _ in range(100):
        sc = _rand_radar_scenario(rng)
        waveforms = [
            (rng.standard_normal(sc.waveform_length(m)) + 1j * rng.standard_normal(sc.waveform_length(m)))
            * math.sqrt(sc.power[m] / (2 * sc.waveform_length(m)))
            for m in range(sc.m_radars)
        ]
        problem = radar.RadarMmProblem(sc)
        z = radar.stack_waveforms(waveforms)
        aux = problem.update_aux(z)
        q = problem._brackets(waveforms, aux)
        js = np.array(
            [radar.fisher_information(sc, waveforms, m) for m in range(sc.m_radars)]
        )
        if np.any(np.abs(q - js / 2) > 1e-10 * np.maximum(np.abs(js / 2), 1e-12)):
            ok = False
            break
    out.append(CheckResult("apps", "radar bracket equals half the likelihood curvature", ok))

    ok = True
    for _ in range(50):
        sc = _rand_radar_scenario(rng)
        waveforms = [
            (rng.standard_normal(sc.waveform_length(m)) + 1j * rng.standard_normal(sc.waveform_length(m)))
            * math.sqrt(sc.power[m] / (2 * sc.waveform_length(m)))
            for m in range(sc.m_radars)
        ]
        direct = radar.sum_crb(sc, waveforms)
        lifted = radar.lifted_sum_crb(sc, waveforms, [np.outer(s, s.conj()) for s in waveforms])
        if abs(direct - lifted) > 1e-10 * (1 + abs(direct)):
            ok = False
            break
        for s in waveforms:
            n = s.size
            block = np.zeros((n + 1, n + 1), dtype=complex)
            block[:n, :n] = np.outer(s, s.conj())
            block[:n, n] = s
            block[n, :n] = s.conj()
            block[n, n] = 1.0
            if np.linalg.eigvalsh(fp_matrix.hermitize(block)).min() < -1e-9:
                ok = False
    out.append(CheckResult("apps", "rank-1 lift reproduces the covariance objective", ok))

    ok = True
    for trial in range(30):
        sc = _rand_radar_scenario(rng)
        problem = radar.RadarMmProblem(sc)
        z = problem.feasible.project(
            rng.standard_normal(problem.ops.total_real_dim)
        )
        aux = problem.update_aux(z)
        val, g = problem.surrogate(z, aux)
        if not np.isfinite(val):
            continue
        g_fd = solver.central_diff_grad(lambda t: problem.surrogate(t, aux)[0], z)
        if np.any(np.abs(g - g_fd) > 1e-5 * (1.0 + np.abs(g_fd))):
            ok = False
            break
        n = sc.n_rx[0]
        th = sc.theta[0]
        h = 1e-6
        fd = (radar.steering_vector(n, th + h) - radar.steering_vector(n, th - h)) / (2 * h)
        if np.any(np.abs(radar.steering_derivative(n, th) - fd) > 1e-5 * (1 + np.abs(fd))):
            ok = False
            break
        fd_g = (
            radar.response_matrix(radar.RadarScenario(
                n_tx=sc.n_tx, n_rx=sc.n_rx,
                theta=tuple(t + h if i == 0 else t for i, t in enumerate(sc.theta)),
                beta=sc.beta, sigma2=sc.sigma2, power=sc.power, l_samples=sc.l_samples), 0, 0)
            - radar.response_matrix(radar.RadarScenario(
                n_tx=sc.n_tx, n_rx=sc.n_rx,
                theta=tuple(t - h if i == 0 else t for i, t in enumerate(sc.theta)),
                beta=sc.beta, sigma2=sc.sigma2, power=sc.power, l_samples=sc.l_samples), 0, 0)
        ) / (2 * h)
        if np.any(np.abs(radar.response_derivative(sc, 0) - fd_g) > 1e-5 * (1 + np.abs(fd_g))):
            ok = False
            break
    out.append(CheckResult("apps", "radar derivatives match finite differences", ok))

    ok = True
    for s in range(20):
        rng_s = np.random.default_rng(1000 + s)
        k_sources = int(rng_s.integers(1, 5))
        _, trace = aoi.run_algorithm1(
            aoi.AoiScenario(k=k_sources, mu=float(rng_s.uniform(0.5, 2.0))),
            solver.SolveOptions(max_outer=60),
        )
        if not _trace_monotone(trace.objectives, sign=-1.0):
            ok = False
            break
    out.append(CheckResult("apps", "age traces are monotone nonincreasing (20 seeds)", ok))

    ok = True
    for s in range(20):
        rng_s = np.random.default_rng(2000 + s)
        sc = _rand_secure_scenario(rng_s)
        opts = solver.SolveOptions(max_outer=60, max_inner=2000)
        _, tr3 = secure.run_algorithm3(sc, opts)
        _, tr4 = secure.run_algorithm4(sc, opts)
        if not (_trace_monotone(tr3.objectives) and _trace_monotone(tr4.objectives)):
            ok = False
            break
    out.append(CheckResult("apps", "secure traces are monotone nondecreasing (20 seeds)", ok))

    ok = True
    for s in range(20):
        rng_s = np.random.default_rng(3000 + s)
        sc = _rand_radar_scenario(rng_s)
        opts = solver.SolveOptions(max_outer=60, max_inner=2000, seed=s)
        _, trace = radar.run_algorithm2(sc, opts)
        if not _trace_monotone(trace.objectives, sign=-1.0):
            ok = False
            break
    out.append(CheckResult("apps", "radar bound traces are monotone nonincreasing (20 seeds)", ok))

    return out


_SUITE_FNS: dict[str, Callable[[], list[CheckResult]]] = {
    "core": suite_core,
    "matrix": suite_matrix,
    "lagrangian": suite_lagrangian,
    "apps": suite_apps,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(_SUITE_FNS[key]())
        return results
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITES + ('all',)}")
    return _SUITE_FNS[name]()
