import math

import numpy as np
import pytest

from mmfp import fp_core, fp_matrix, verify
from mmfp.errors import DomainError, IllConditionedError, InvalidInputError, NotPsdError
from mmfp.fp_matrix import (
    MatrixOuter,
    MatrixRatioTerm,
    cyclic_check,
    is_strictly_pd,
    matrix_mixed_surrogate,
    matrix_ratio,
    opt_y,
    psd_sqrt,
    q_plus,
)
from mmfp.verify import random_pd


class TestMatrixRatio:
    def test_scalar_reduction(self):
        assert matrix_ratio(np.array([[2.0]]), np.array([[2.0]]))[0, 0] == pytest.approx(2.0)

    def test_identity_denominator(self):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        out = matrix_ratio(F, np.eye(3))
        assert np.allclose(out, F.conj().T @ F)

    def test_identity_numerator_gives_inverse(self):
        rng = np.random.default_rng(1)
        B = random_pd(rng, 2)
        assert np.allclose(matrix_ratio(np.eye(2), B), np.linalg.inv(B), atol=1e-12)

    def test_singular_denominator_rejected(self):
        B = np.diag([1.0, 1e-30])
        with pytest.raises(IllConditionedError):
            matrix_ratio(np.eye(2), B)


class TestBrackets:
    def test_q_plus_tight_at_optimum(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 3):
            A = random_pd(rng, d)
            B = random_pd(rng, d)
            As = psd_sqrt(A)
            ratio = matrix_ratio(As, B)
            assert np.allclose(q_plus(As, B, opt_y(As, B)), ratio, atol=1e-10)

    def test_q_plus_scalar_reduction(self):
        assert q_plus(np.array([[2.0]]), np.array([[2.0]]), np.array([[1.0]]))[0, 0] == pytest.approx(2.0)

    def test_q_plus_zero_auxiliary(self):
        assert np.allclose(q_plus(np.eye(2), np.eye(2), np.zeros((2, 2))), np.zeros((2, 2)))

    def test_q_plus_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            q_plus(np.eye(2), np.eye(2), np.zeros((3, 2)))

    # the min-side bracket Q- is q_plus on the flipped ratio (sqrtB, A)
    def test_q_minus_tight_at_optimum(self):
        rng = np.random.default_rng(3)
        A = random_pd(rng, 2)
        B = random_pd(rng, 2)
        Bs = psd_sqrt(B)
        assert np.allclose(q_plus(Bs, A, opt_y(Bs, A)), matrix_ratio(Bs, A), atol=1e-10)

    def test_q_minus_scalar(self):
        # A/B = 4: Q- at Yt = sqrt(B)/A is the flipped ratio 1/4
        Bs, A = np.array([[1.0]]), np.array([[4.0]])
        assert q_plus(Bs, A, opt_y(Bs, A))[0, 0] == pytest.approx(0.25)

    def test_q_minus_zero_auxiliary_not_pd(self):
        bracket = q_plus(np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert not is_strictly_pd(bracket)

    def test_bracket_never_exceeds_ratio(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            A = random_pd(rng, d)
            B = random_pd(rng, d)
            Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert verify.bracket_below_ratio(A, B, Y)


class TestAuxiliaries:
    def test_opt_y_scalar(self):
        assert opt_y(np.array([[2.0]]), np.array([[2.0]]))[0, 0] == pytest.approx(1.0)

    def test_opt_y_identity_denominator(self):
        F = np.array([[1.0, 0.5], [0.0, 2.0]])
        assert np.allclose(opt_y(F, np.eye(2)), F)

    def test_opt_y_diagonal(self):
        out = opt_y(np.eye(2), np.diag([1.0, 2.0]))
        assert np.allclose(out, np.diag([1.0, 0.5]))

    # the min-side auxiliary Yt = A^{-1} sqrtB is opt_y on the flipped ratio
    def test_opt_y_tilde_scalar(self):
        assert opt_y(np.array([[2.0]]), np.array([[4.0]]))[0, 0] == pytest.approx(0.5)

    def test_opt_y_tilde_identity(self):
        F = np.array([[1.0, 0.2], [0.0, 0.7]])
        assert np.allclose(opt_y(F, np.eye(2)), F)

    def test_opt_y_tilde_diagonal(self):
        out = opt_y(np.eye(2), np.diag([2.0, 4.0]))
        assert np.allclose(out, np.diag([0.5, 0.25]))


class TestPsdSqrt:
    def test_scalar(self):
        assert psd_sqrt(np.array([[4.0]]))[0, 0] == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert np.allclose(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_diagonal_up_to_unitary(self):
        M = np.diag([9.0, 1.0])
        F = psd_sqrt(M, ell=2)
        assert np.allclose(F @ F.conj().T, M, atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 5):
            M = random_pd(rng, d)
            F = psd_sqrt(M)
            assert np.linalg.norm(F @ F.conj().T - M) <= 1e-10 * np.linalg.norm(M)

    def test_rank_one_thin_factor(self):
        v = np.array([1.0, 2.0, -1.0])
        M = np.outer(v, v)
        F = psd_sqrt(M, ell=1)
        assert F.shape == (3, 1)
        assert np.allclose(F @ F.conj().T, M, atol=1e-10)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_ell_below_rank_rejected(self):
        with pytest.raises(InvalidInputError):
            psd_sqrt(np.diag([1.0, 2.0]), ell=1)

    def test_tiny_negative_eigenvalue_clamped(self):
        M = np.diag([1.0, -1e-14])
        F = psd_sqrt(M)
        assert np.allclose(F @ F.conj().T, np.diag([1.0, 0.0]), atol=1e-12)


class TestCyclicProperty:
    def test_scalar_trace_example(self):
        As = np.array([[math.sqrt(2.0)]])
        Bs = np.array([[math.sqrt(8.0)]])
        assert cyclic_check("trace", As, Bs)

    @pytest.mark.parametrize("kind", ["trace", "logdet"])
    def test_random_pairs(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            As = psd_sqrt(random_pd(rng, d))
            Bs = psd_sqrt(random_pd(rng, d))
            assert verify.spectral_identity(As, Bs, kinds=(kind,))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            cyclic_check("det", np.eye(2), np.eye(2))


class TestMatrixOuter:
    def test_scalar_reductions(self):
        X = np.array([[0.7]])
        assert MatrixOuter("trace", 2.0).evaluate(X) == pytest.approx(1.4)
        assert MatrixOuter("logdet", 1.0).evaluate(X) == pytest.approx(math.log1p(0.7))
        assert MatrixOuter("neg_trace", 2.0).evaluate(X) == pytest.approx(-1.4)
        assert MatrixOuter("neg_half_inverse_trace").evaluate(X) == pytest.approx(-0.5 / 0.7)

    @pytest.mark.parametrize("w", [0.0, 3.0])
    def test_neg_half_inverse_trace_scales_with_weight(self, w):
        X = np.diag([2.0, 4.0])
        assert MatrixOuter("neg_half_inverse_trace", w).evaluate(X) == pytest.approx(-0.375 * w, rel=1e-12)

    @pytest.mark.parametrize("w", [-1.0, math.nan, math.inf])
    def test_weight_must_be_finite_and_nonnegative(self, w):
        with pytest.raises(InvalidInputError, match="finite and nonnegative"):
            MatrixOuter("trace", w)

    def test_logdet_rejects_negative_definite_argument(self):
        # a negative-definite I+X of even size has positive determinant;
        # the domain check must still fire
        X = np.diag([-11.0, -3.0])
        with pytest.raises(DomainError):
            MatrixOuter("logdet", 1.0).evaluate(X)

    def test_side_follows_outer_monotonicity(self):
        # a decreasing outer is bracketed by q_plus on the flipped ratio, an
        # increasing one by q_plus on the ratio
        rng = np.random.default_rng(10)
        a0, a1 = random_pd(rng, 2, 1.0), random_pd(rng, 2, 0.0)
        b0, b1 = random_pd(rng, 2, 1.0), random_pd(rng, 2, 0.0)
        num = lambda x: a0 + float(x[0]) * a1
        den = lambda x: b0 + float(x[0]) * b1
        x, anchor = np.array([1.2]), np.array([0.6])
        y_tilde = opt_y(psd_sqrt(den(anchor)), num(anchor))
        q_min = q_plus(psd_sqrt(den(x)), num(x), y_tilde)
        y = opt_y(psd_sqrt(num(anchor)), den(anchor))
        q_max = q_plus(psd_sqrt(num(x)), den(x), y)
        for kind, expected in (
            ("neg_trace", -float(np.real(np.trace(np.linalg.inv(q_min))))),
            ("trace", float(np.real(np.trace(q_max)))),
        ):
            term = MatrixRatioTerm(num, den, MatrixOuter(kind))
            assert matrix_mixed_surrogate([term], x, anchor) == pytest.approx(expected, rel=1e-12)


class TestMatrixMixedSurrogate:
    def _term(self, rng, d, side):
        a0, a1 = random_pd(rng, d, 1.0), random_pd(rng, d, 0.0)
        b0, b1 = random_pd(rng, d, 1.0), random_pd(rng, d, 0.0)
        outer = MatrixOuter("logdet") if side == "max" else MatrixOuter("neg_trace")
        return MatrixRatioTerm(
            numerator=lambda x: a0 + float(x[0]) * a1,
            denominator=lambda x: b0 + float(x[0]) * b1,
            outer=outer,
        )

    def test_tight_at_anchor(self):
        rng = np.random.default_rng(7)
        terms = [self._term(rng, 2, "max"), self._term(rng, 2, "min")]
        x = np.array([0.8])
        assert verify.matrix_sandwich(terms, x, x)

    def test_scalar_reduction_matches_core(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a0, a1 = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
            b0, b1 = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
            terms = [
                MatrixRatioTerm(
                    numerator=lambda x, a0=a0, a1=a1: np.array([[a0 + a1 * float(x[0])]]),
                    denominator=lambda x, b0=b0, b1=b1: np.array([[b0 + b1 * float(x[0])]]),
                    outer=MatrixOuter("neg_trace", 1.0),
                )
            ]
            core_problem = fp_core.MixedFpProblem(
                fp_core.affine_fractions([[a1]], [a0], [[b1]], [b0]),
                (fp_core.OuterFunction("neg_identity", 1.0),),
                feasible=None,
            )
            x = np.array([rng.uniform(0.1, 2.0)])
            anchor = np.array([rng.uniform(0.1, 2.0)])
            core_value, _ = core_problem.surrogate(x, core_problem.update_aux(anchor))
            assert matrix_mixed_surrogate(terms, x, anchor) == pytest.approx(core_value, abs=1e-12)

    def test_min_side_bound_with_stale_anchor(self):
        rng = np.random.default_rng(9)
        term = self._term(rng, 2, "min")
        x = np.array([1.4])
        anchor = np.array([0.3])
        assert verify.matrix_sandwich([term], x, anchor)

    def test_rejects_non_pd_min_bracket(self):
        # force a wildly stale anchor so the min bracket loses definiteness
        d = 2
        term = MatrixRatioTerm(
            numerator=lambda x: np.eye(d) * (1.0 + 50.0 * float(x[0])),
            denominator=lambda x: np.eye(d),
            outer=MatrixOuter("neg_trace"),
        )
        value = matrix_mixed_surrogate([term], np.array([1.0]), np.array([0.0]))
        assert value == -math.inf
