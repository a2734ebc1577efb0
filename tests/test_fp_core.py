import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfp import fp_core, solver, verify
from mmfp.errors import DomainError, InvalidInputError
from mmfp.fp_core import (
    MixedFpProblem,
    OuterFunction,
    affine_fractions,
    inv_quad_surrogate,
    opt_y,
    opt_y_tilde,
    plus_part,
    quad_surrogate,
)


class TestPlusPart:
    def test_positive_passthrough(self):
        assert plus_part(3.0) == 3.0

    def test_clamp_reciprocal_is_infinite(self):
        assert 1.0 / plus_part(-2.0) == math.inf

    def test_zero_boundary(self):
        assert plus_part(0.0) > 0.0
        assert 1.0 / plus_part(0.0) == math.inf


class TestQuadSurrogate:
    def test_tight_at_optimum(self):
        assert quad_surrogate(4.0, 2.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_zero_auxiliary(self):
        assert quad_surrogate(4.0, 2.0, 0.0) == 0.0

    def test_bound_case(self):
        value = quad_surrogate(1.0, 1.0, 3.0)
        assert value == pytest.approx(-3.0) and value <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            quad_surrogate(-1.0, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            quad_surrogate(1.0, 0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 10.0),
        st.floats(1e-6, 10.0),
        st.floats(-5.0, 5.0),
    )
    def test_never_exceeds_ratio(self, A, B, y):
        assert verify.quad_bound(A, B, y)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(1e-3, 10.0))
    def test_optimal_auxiliary_attains_ratio(self, A, B):
        assert quad_surrogate(A, B, opt_y(A, B)) == pytest.approx(A / B, abs=1e-12, rel=1e-12)

    def test_max_side_row_holds_at_a_large_ratio(self):
        # at A/B = 1e7 the tight value rounds 1.86e-9 away from A/B
        assert abs(quad_surrogate(10.0, 1e-6, opt_y(10.0, 1e-6)) - 1e7) > 1e-12
        assert verify.max_side(10.0, 1e-6, 0.0)

    @pytest.mark.parametrize("A, B", [(10.0, 1e-6), (4.0, 2.0), (1.0, 1.0), (0.1, 1.0), (3.0, 1e-3)])
    def test_max_side_row_rejects_a_relative_tightness_gap(self, monkeypatch, A, B):
        # a surrogate 1e-10 relative below the ratio at its optimum still
        # minorizes it but is not tight
        quad = fp_core.quad_surrogate
        monkeypatch.setattr(fp_core, "quad_surrogate", lambda A, B, y: quad(A, B, y) - 1e-10 * A / B)
        assert verify.quad_bound(A, B, opt_y(A, B))
        assert not verify.max_side(A, B, 0.0)


class TestOptY:
    def test_values(self):
        assert opt_y(4.0, 2.0) == 1.0
        assert opt_y(0.0, 5.0) == 0.0
        assert opt_y(1.0, 4.0) == 0.25

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            opt_y(1.0, -1.0)


class TestInvQuadSurrogate:
    def test_tight_cases(self):
        assert inv_quad_surrogate(1.0, 4.0, 2.0) == pytest.approx(0.25, abs=1e-15)
        assert inv_quad_surrogate(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_clamp_gives_infinity(self):
        assert inv_quad_surrogate(4.0, 1.0, 1.0) == math.inf

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-6, 10.0),
        st.floats(1e-6, 10.0),
        st.floats(-5.0, 5.0),
    )
    def test_never_below_ratio(self, A, B, yt):
        assert verify.min_side(A, B, yt)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-4, 10.0), st.floats(1e-4, 10.0))
    def test_exact_auxiliary_attains_ratio(self, A, B):
        assert verify.inv_quad_tight(A, B)


class TestOptYTilde:
    # the exact min-side auxiliary sqrt(B)/A is the max-side opt_y(B, A) of
    # the flipped ratio; opt_y_tilde is its safeguarded form
    def test_exact_limit_form(self):
        assert opt_y(4.0, 1.0) == 2.0
        assert inv_quad_surrogate(1.0, 4.0, opt_y(4.0, 1.0)) == 0.25

    def test_safeguard_engages(self):
        assert opt_y_tilde(0.0, 1.0) == 1.0 / fp_core.Y_TILDE_SAFEGUARD

    def test_plain_value(self):
        assert opt_y_tilde(3.0, 9.0) == pytest.approx(1.0)

    def test_exact_form_at_zero_numerator_rejected(self):
        # the flipped ratio's denominator is 0
        with pytest.raises(InvalidInputError):
            opt_y(1.0, 0.0)


def _constant(A, B):
    """Ratios ``A_i / B_i`` that do not depend on the 1-D decision."""
    return affine_fractions(np.zeros((len(A), 1)), A, np.zeros((len(B), 1)), B)


def _square_over_one(x):
    return np.array([x[0] ** 2]), np.ones(1), np.array([[2.0 * x[0]]]), np.zeros((1, 1))


def _identity_box_problem(fractions, outers) -> MixedFpProblem:
    return MixedFpProblem(
        fractions, tuple(outers), solver.box_set(np.array([0.0]), np.array([10.0]))
    )


class TestMixedObjective:
    def test_single_max_square_ratio(self):
        problem = _identity_box_problem(_square_over_one, [OuterFunction("identity")])
        assert problem.objective(np.array([3.0])) == pytest.approx(9.0)

    def test_single_min_ratio(self):
        problem = _identity_box_problem(_constant([2.0], [4.0]), [OuterFunction("neg_identity")])
        assert problem.objective(np.array([1.0])) == pytest.approx(-0.5)

    def test_additivity_of_log_terms(self):
        problem = _identity_box_problem(
            _constant([1.0, 3.0], [1.0, 1.0]), [OuterFunction("log1p"), OuterFunction("log1p")]
        )
        expected = math.log(2.0) + math.log(4.0)
        assert problem.objective(np.array([1.0])) == pytest.approx(expected)

    def test_domain_error_names_term(self):
        problem = _identity_box_problem(
            _constant([1.0, 3.0], [1.0, 1.0]), [OuterFunction("log1p"), OuterFunction("log1m")]
        )
        with pytest.raises(DomainError) as err:
            problem.objective(np.array([1.0]))
        assert err.value.term_index == 1

    @pytest.mark.parametrize(
        "numerators, outer",
        [([1.0, -0.5, 2.0], "log1p"), ([1.0, 3.0, 0.5], "log1m")],
        ids=["negative_numerator", "outside_the_outer_domain"],
    )
    def test_gradient_raises_the_objective_domain_error(self, numerators, outer):
        # ratio 1 is the only bad one: a negative numerator whose ratio
        # log1p would still accept, or a ratio above log1m's domain
        problem = _identity_box_problem(
            _constant(numerators, [1.0, 1.0, 1.0]), [OuterFunction("log1p"), OuterFunction(outer), OuterFunction("log1p")]
        )
        errors = []
        for call in (problem.objective, problem.objective_grad):
            with pytest.raises(DomainError) as err:
                call(np.array([1.0]))
            errors.append(err.value)
        assert [e.term_index for e in errors] == [1, 1]
        assert str(errors[0]) == str(errors[1])


def _two_affine_ratios(a, b):
    """``(a.x + 0.3)/(b.x + 1)`` under log1p and ``(b.x + 0.2)/(a.x + 1.5)``
    under the negated identity."""
    return affine_fractions([a, b], [0.3, 0.2], [b, a], [1.0, 1.5])


class TestMixedSurrogate:
    def test_tight_at_anchor(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0.2, 2.0, 2)
            b = rng.uniform(0.2, 2.0, 2)
            problem = MixedFpProblem(
                affine_fractions([a, a], [0.5, 0.1], [b, b], [1.0, 2.0]),
                (OuterFunction("log1p"), OuterFunction("neg_identity")),
                solver.box_set(np.zeros(2), np.ones(2)),
            )
            x = rng.uniform(0.1, 1.0, 2)
            assert verify.mixed_sandwich(problem, x, x)

    def test_hand_evaluated_max_bound(self):
        # numerator x, denominator 1, plain ratio outer; anchor at 4, query at 1
        problem = _identity_box_problem(
            affine_fractions([[1.0]], [0.0], [[0.0]], [1.0]), [OuterFunction("identity")]
        )
        value, _ = problem.surrogate(np.array([1.0]), problem.update_aux(np.array([4.0])))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert value <= problem.objective(np.array([1.0]))

    def test_min_side_clamp_returns_neg_inf(self):
        problem = _identity_box_problem(
            affine_fractions([[1.0]], [0.0], [[0.0]], [1.0]), [OuterFunction("neg_identity")]
        )
        value, _ = problem.surrogate(np.array([4.0]), problem.update_aux(np.array([1.0])))
        assert value == -math.inf
        assert value <= problem.objective(np.array([4.0]))

    @pytest.mark.parametrize(
        "outer, fractions",
        [
            ("identity", affine_fractions([[1.0]], [-2.0], [[0.0]], [1.0])),  # (x - 2) / 1
            ("neg_identity", affine_fractions([[0.0]], [1.0], [[1.0]], [-2.0])),  # 1 / (x - 2)
        ],
        ids=["max-side-numerator", "min-side-denominator"],
    )
    def test_negative_top_rejects_on_either_side(self, outer, fractions):
        # the bracket's square-root argument, A on the max side and B on the
        # min side, is 2 at the anchor and -1 at the query
        problem = _identity_box_problem(fractions, [OuterFunction(outer)])
        assert problem.surrogate(np.array([1.0]), problem.update_aux(np.array([4.0]))) == (-math.inf, None)


class TestOuterFunction:
    @pytest.mark.parametrize(
        "outer, r",
        [
            (OuterFunction("identity", 1.3), 2.0),
            (OuterFunction("log1p", 0.7), 1.5),
            (OuterFunction("log1m", 0.7), 0.4),
            (OuterFunction("neg_half_inverse"), 0.8),
            (OuterFunction("neg_identity", 2.0), 3.0),
        ],
    )
    def test_derivative_matches_finite_difference(self, outer, r):
        assert verify.outer_derivative_matches(outer, r)

    @pytest.mark.parametrize("w", [0.0, 3.0])
    def test_neg_half_inverse_scales_with_weight(self, w):
        outer = OuterFunction("neg_half_inverse", w)
        assert outer == OuterFunction("neg_half_inverse", w)
        assert outer.evaluate(2.0) == -0.25 * w
        assert outer.derivative(2.0) == 0.125 * w

    def test_monotonicity_flags(self):
        assert OuterFunction("identity").increasing
        assert OuterFunction("log1p").increasing
        assert OuterFunction("neg_half_inverse").increasing
        assert not OuterFunction("log1m").increasing
        assert not OuterFunction("neg_identity").increasing

    def test_side_follows_outer_monotonicity(self):
        # one auxiliary per ratio in ratio order, whatever the interleaving:
        # a max-side y under an increasing outer, a min-side y_tilde under a
        # decreasing one
        A = [1.0, 1.0, 9.0, 2.0, 1.0]
        B = [4.0, 4.0, 1.0, 8.0, 0.5]
        problem = _identity_box_problem(
            _constant(A, B),
            [
                OuterFunction("log1m"),
                OuterFunction("identity"),
                OuterFunction("neg_identity"),
                OuterFunction("neg_half_inverse"),
                OuterFunction("log1p"),
            ],
        )
        aux = problem.update_aux(np.array([1.0]))
        assert aux.tolist() == [
            opt_y_tilde(1.0, 4.0),
            opt_y(1.0, 4.0),
            opt_y_tilde(9.0, 1.0),
            opt_y(2.0, 8.0),
            opt_y(1.0, 0.5),
        ]
        assert aux[0] != opt_y(4.0, 1.0)  # the safeguard is in effect
        x = np.array([1.0])
        expected = sum(o.evaluate(a / b) for o, a, b in zip(problem.outers, A, B))
        assert problem.surrogate(x, aux)[0] == pytest.approx(expected, rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            OuterFunction("exotic", 1.0)

    @pytest.mark.parametrize("w", [-1.0, math.nan, math.inf])
    def test_weight_must_be_finite_and_nonnegative(self, w):
        with pytest.raises(InvalidInputError, match="finite and nonnegative"):
            OuterFunction("log1p", w)


def test_flipped_ratio_is_only_a_lower_bound():
    # arithmetic mean of ratios dominates the harmonic mean of the flipped
    # ratios, with equality only for equal ratios
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = rng.uniform(0.1, 5.0, 2)
        b = rng.uniform(0.1, 5.0, 2)
        assert verify.flipped_ratio_lower_bound(a, b)


def test_term_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(0.2, 2.0, 3)
        b = rng.uniform(0.2, 2.0, 3)
        problem = MixedFpProblem(
            _two_affine_ratios(a, b),
            (OuterFunction("log1p"), OuterFunction("neg_identity")),
            solver.box_set(np.zeros(3), np.ones(3)),
        )
        x = rng.uniform(0.2, 0.9, 3)
        assert verify.fraction_gradients(problem, x)


def test_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.2, 2.0, 3)
    b = rng.uniform(0.2, 2.0, 3)
    problem = MixedFpProblem(
        _two_affine_ratios(a, b),
        (OuterFunction("log1p"), OuterFunction("neg_identity")),
        solver.box_set(np.zeros(3), np.ones(3)),
    )
    anchor = rng.uniform(0.2, 0.9, 3)
    aux = problem.update_aux(anchor)
    x = rng.uniform(0.2, 0.9, 3)
    _, g = problem.surrogate(x, aux)
    assert verify.gradient_matches(lambda z: problem.surrogate(z, aux)[0], g, x)


def test_aux_state_matches_closed_forms():
    problem = MixedFpProblem(
        _constant([4.0, 1.0], [2.0, 4.0]),
        (OuterFunction("identity"), OuterFunction("neg_identity")),
        solver.box_set(np.array([0.0]), np.array([1.0])),
    )
    aux = problem.update_aux(np.array([0.5]))
    assert isinstance(aux, np.ndarray)
    assert aux == pytest.approx([1.0, 2.0])


_MAX_KINDS = ("identity", "log1p", "neg_half_inverse")
_MIN_KINDS = ("neg_identity", "log1m")


def _random_quadratic_problem(rng):
    """Random ratios ``(a.x + q.x**2 + a0) / (b.x + b0)`` on ``[0.5, 2]^dim``
    under outers of both sides, about a third of them with zero weight."""
    dim = int(rng.integers(1, 4))
    n = int(rng.integers(1, 8))
    a = rng.uniform(0.0, 1.0, (n, dim))
    q = rng.uniform(0.0, 0.5, (n, dim))
    a0 = rng.uniform(0.0, 0.5, n)
    b = rng.uniform(0.1, 1.0, (n, dim))
    b0 = rng.uniform(0.5, 2.0, n)

    def fractions(x):
        return a @ x + q @ (x * x) + a0, b @ x + b0, a + 2 * q * x, b

    outers = []
    for _ in range(n):
        w = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.1, 2.0))
        kinds = _MAX_KINDS if rng.random() < 0.5 else _MIN_KINDS
        outers.append(OuterFunction(kinds[int(rng.integers(len(kinds)))], w))
    return MixedFpProblem(fractions, tuple(outers), solver.box_set(0.5, 2.0)), dim


def _scalar_reference(problem, x, anchor):
    """The transform term by term from the scalar spec: each outer applied
    to ``quad_surrogate`` (max side) or ``inv_quad_surrogate`` (min side),
    with the safeguarded closed forms the problem takes."""
    A, B, _, _ = problem.fractions(x)
    A0, B0, _, _ = problem.fractions(anchor)
    total = 0.0
    for outer, a, b, a0, b0 in zip(problem.outers, A, B, A0, B0):
        if outer.increasing:
            r = quad_surrogate(a, b, opt_y(a0, b0))
        else:
            r = inv_quad_surrogate(a, b, opt_y_tilde(a0, b0))
        if r == math.inf:
            # a clamped min-side ratio: both decreasing outers tend to -inf,
            # so weight 0 adds 0 and any other weight rejects the point
            if outer.weight != 0.0:
                return -math.inf
            continue
        try:
            total += outer.evaluate(r)
        except DomainError:
            return -math.inf
    return total


def test_array_transform_matches_scalar_reference():
    rng = np.random.default_rng(13)
    n_finite = 0
    for _ in range(500):
        problem, dim = _random_quadratic_problem(rng)
        anchor = rng.uniform(0.5, 2.0, dim)
        # half the queries near the anchor, half anywhere in the box
        scale = 0.1 if rng.random() < 0.5 else 1.5
        x = np.clip(anchor + rng.uniform(-scale, scale, dim), 0.5, 2.0)
        got, _ = problem.surrogate(x, problem.update_aux(anchor))
        want = _scalar_reference(problem, x, anchor)
        if want == -math.inf:
            assert got == -math.inf
            continue
        n_finite += 1
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert n_finite >= 250
