import math

import numpy as np
import pytest

from conftest import SMOOTH_CORPUS, fd_derivatives
from mvlab import calculus, expr, mvp
from mvlab.calculus import Jet3
from mvlab.expr import DomainError
from mvlab.integrate import CounterRng


class TestJet3:
    def test_constant_lift(self):
        j = Jet3.constant(4.2)
        assert (j.d1, j.d2, j.d3) == (0.0, 0.0, 0.0)

    def test_variable_lift(self):
        j = Jet3.variable(1.5)
        assert (j.f, j.d1, j.d2, j.d3) == (1.5, 1.0, 0.0, 0.0)

    def test_division_by_zero(self):
        with pytest.raises(expr._DomainViolation):
            Jet3.variable(1.0) / Jet3.constant(0.0)

    def test_reciprocal_derivatives(self):
        # 1/x at 2: -1/4, 2/8, -6/16
        j = 1.0 / Jet3.variable(2.0)
        assert j.f == 0.5
        assert j.d1 == -0.25
        assert j.d2 == 0.25
        assert j.d3 == -0.375

    def test_array_components(self):
        xs = np.array([1.0, 2.0, 3.0])
        j = Jet3.variable(xs) ** 3
        assert np.allclose(j.d1, 3 * xs**2)
        assert np.allclose(j.d2, 6 * xs)
        assert np.allclose(j.d3, 6.0)


class TestDerivatives1d:
    def test_cubic_monomial(self):
        assert calculus.derivatives_1d(expr.parse("x^3"), 2.0) == (8.0, 12.0, 12.0, 6.0)

    def test_exponential_fixed_point(self):
        assert calculus.derivatives_1d(expr.parse("exp(x)"), 0.0) == (1.0, 1.0, 1.0, 1.0)

    def test_sine_at_zero(self):
        assert calculus.derivatives_1d(expr.parse("sin(x)"), 0.0) == (0.0, 1.0, 0.0, -1.0)

    def test_constant_expression(self):
        assert calculus.derivatives_1d(expr.parse("7"), 3.0) == (7.0, 0.0, 0.0, 0.0)

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError, match="univariate"):
            calculus.derivatives_1d(expr.parse("x + y"), 0.0)

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            calculus.derivatives_1d(expr.parse("log(x)"), -1.0)

    def test_abs_underivable_at_zero(self):
        with pytest.raises(DomainError):
            calculus.derivatives_1d(expr.parse("abs(x)"), 0.0)
        assert calculus.derivatives_1d(expr.parse("abs(x)"), -2.0)[1] == -1.0

    def test_non_finite_is_domain_error(self):
        # f(1) = exp(709) is finite, f'(1) = 709*exp(709) is not
        f = expr.parse("exp(709*x)")
        with pytest.raises(DomainError, match="non-finite value"):
            calculus.derivatives_1d(f, 1.0)
        with pytest.raises(DomainError, match="non-finite value"):
            calculus.first_derivative_many(f, [0.5, 1.0])


def _ad_fd_points(lo, hi):
    # interior points, clear of the domain edges used by log/sqrt corpus entries
    return np.linspace(lo + 0.3, hi - 0.3, 10)


@pytest.mark.parametrize("source,domain", SMOOTH_CORPUS)
def test_ad_matches_finite_differences(source, domain):
    ast = expr.parse(source)
    for x0 in _ad_fd_points(*domain):
        _, d1, d2, d3 = calculus.derivatives_1d(ast, float(x0))
        f1, f2, f3 = fd_derivatives(source, float(x0))
        assert abs(d1 - f1) <= 1e-6 * (1.0 + abs(d1))
        assert abs(d2 - f2) <= 1e-6 * (1.0 + abs(d2))
        assert abs(d3 - f3) <= 1e-4 * (1.0 + abs(d3))


def test_linearity_of_derivatives():
    rng = np.random.default_rng(7)
    f = expr.parse("sin(x)*exp(x/2)")
    g = expr.parse("x^3 - 2*x + 1")
    for _ in range(10):
        alpha, beta = (float(v) for v in rng.uniform(-3, 3, size=2))
        x0 = float(rng.uniform(-1.5, 1.5))
        combo = expr.parse(f"({alpha!r})*(sin(x)*exp(x/2)) + ({beta!r})*(x^3 - 2*x + 1)")
        want = tuple(
            alpha * a + beta * b
            for a, b in zip(calculus.derivatives_1d(f, x0), calculus.derivatives_1d(g, x0))
        )
        got = calculus.derivatives_1d(combo, x0)
        for w, v in zip(want, got):
            assert abs(w - v) <= 1e-11 * (1.0 + abs(w))


def test_first_derivative_many_matches_scalar():
    ast = expr.parse("exp(sin(x)) + x^2")
    xs = np.linspace(-2, 2, 57)
    block = calculus.first_derivative_many(ast, xs)
    for i, x in enumerate(xs):
        assert block[i] == pytest.approx(calculus.derivatives_1d(ast, float(x))[1], rel=1e-14)


class TestGradient:
    def test_polynomial_partials(self):
        assert calculus.gradient(expr.parse("x^2 - y^2"), (1.0, 2.0)) == [2.0, -4.0]

    def test_coordinate_function(self):
        assert calculus.gradient(expr.parse("x"), (3.7, -1.2)) == [1.0, 0.0]

    def test_product(self):
        assert calculus.gradient(expr.parse("x*y"), (3.0, 5.0)) == [5.0, 3.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            calculus.gradient(expr.parse("x3"), (0.0, 0.0))


class TestLaplacian:
    def test_harmonic_polynomial(self):
        assert calculus.laplacian(expr.parse("x^2 - y^2"), (0.3, -0.8)) == 0.0

    def test_radial_square(self):
        assert calculus.laplacian(expr.parse("x^2 + y^2"), (1.0, 1.0)) == 4.0

    def test_radial_square_3d(self):
        assert calculus.laplacian(expr.parse("x^2 + y^2 + z^2"), (0.1, 0.2, 0.3)) == 6.0

    def test_second_partial_vs_fd(self):
        # exp(x*y0) + x^2*y0 varies in x only: its Laplacian is its x-x partial
        y0 = -0.4
        g = expr.parse(f"exp(x*({y0!r})) + x^2*({y0!r})")
        x0 = 0.7
        h = 1e-5

        def f(x):
            return math.exp(x * y0) + x * x * y0

        fd2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
        lap = calculus.laplacian(g, (x0, 0.3))
        assert abs(lap - fd2) <= 1e-5 * (1 + abs(lap))
        fd1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
        dx = calculus.gradient(g, (x0, 0.3))[0]
        assert abs(dx - fd1) <= 1e-8 * (1 + abs(dx))

    def test_non_finite_is_domain_error(self):
        with pytest.raises(DomainError, match="non-finite"):
            calculus.laplacian(expr.parse("exp(700*x)"), (1.9,))
        with pytest.raises(DomainError, match="non-finite"):
            calculus.laplacian_many(expr.parse("exp(700*x) - exp(700*x) + y"),
                                    [(1.5, 0.0), (1.9, 0.0)])
        with pytest.raises(DomainError, match="non-finite"):
            # d2 = 1.5e308 is finite, but the third derivative overflows
            calculus.laplacian(expr.parse("exp(10*x)"), (70.5,))

    def test_overflowing_sum_is_domain_error(self):
        # both second partials are 1e308, finite; their sum is not
        with pytest.raises(DomainError, match="non-finite Laplacian"):
            calculus.laplacian(expr.parse("0.5e308*x^2 + 0.5e308*y^2"), (0.0, 0.0))
        with pytest.raises(DomainError, match="non-finite Laplacian"):
            calculus.laplacian_many(expr.parse("0.5e308*x^2 + 0.5e308*y^2"),
                                    [(0.0, 0.0), (1.0, 1.0)])

    def test_array_exponent(self):
        pts = 1.0 + CounterRng(11).uniforms(100).reshape(50, 2)
        x, y = pts[:, 0], pts[:, 1]
        values, laps = calculus.laplacian_many(expr.parse("x^y"), pts)
        expected = y * (y - 1) * x ** (y - 2) + x**y * np.log(x) ** 2
        np.testing.assert_allclose(values, x**y, rtol=1e-14)
        np.testing.assert_allclose(laps, expected, rtol=1e-13)
        with pytest.raises(DomainError, match="positive base"):
            calculus.laplacian_many(expr.parse("x^y"), [(0.0, 2.0), (1.0, 2.5)])

    def test_builtin_harmonics_vanish(self):
        rng = CounterRng(2024)
        cases = [(f"harmonic2d_{k}", 2) for k in range(7)]
        cases += [("vconst_harmonic", 3), ("affine", 3), ("coordinate_2", 3)]
        for name, n in cases:
            g = mvp.builtin_fields(name, n)
            for _ in range(100):
                pt = tuple(-2.0 + 4.0 * u for u in rng.uniforms(n))
                assert abs(calculus.laplacian(g, pt)) <= 1e-9, (name, pt)


class TestDirectionalDerivative:
    def test_constant_along_v(self):
        assert calculus.directional_derivative(expr.parse("x"), (5.0, -3.0), (0.0, 1.0)) == 0.0

    def test_equals_partial(self):
        assert (
            calculus.directional_derivative(expr.parse("x^2 - y^2"), (1.0, 2.0), (1.0, 0.0))
            == 2.0
        )

    def test_linear_field(self):
        assert calculus.directional_derivative(expr.parse("x + y"), (0.4, 0.9), (0.0, 1.0)) == 1.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit vector"):
            calculus.directional_derivative(expr.parse("x"), (0.0, 0.0), (1.0, 1.0))

    def test_diagonal_direction(self):
        s = 1.0 / math.sqrt(2.0)
        got = calculus.directional_derivative(expr.parse("x^2 - y^2"), (1.0, 2.0), (s, s))
        assert got == pytest.approx((2.0 - 4.0) * s, rel=1e-15)

    def test_one_pass_equals_gradient_dot_v(self):
        v = (0.6, 0.8)
        for source in ("x^2 - y^2", "exp(x)*cos(y)", "sin(x*y) + log(2 + x^2)"):
            g = expr.parse(source)
            for pt in ((1.0, 2.0), (-0.3, 0.7), (1.9, -1.1)):
                terms = [gi * vi for gi, vi in zip(calculus.gradient(g, pt), v)]
                got = calculus.directional_derivative(g, pt, v)
                # relative to the terms: their sum may cancel
                scale = sum(abs(t) for t in terms)
                assert abs(got - sum(terms)) <= 1e-15 * scale, (source, pt)

    def test_ignores_axes_off_v(self):
        # abs is not differentiable at x = 0, but v never moves x
        g = expr.parse("abs(x) + y")
        assert calculus.directional_derivative(g, (0.0, 1.0), (0.0, 1.0)) == 1.0

    def test_non_finite_is_domain_error(self):
        g = expr.parse("exp(700*x) - exp(700*x)")
        with pytest.raises(DomainError, match="non-finite"):
            calculus.directional_derivative(g, (1.9,), (1.0,))
        with pytest.raises(DomainError, match="non-finite"):
            calculus.directional_derivative_many(g, [(1.5, 0.0), (1.9, 0.0)], (1.0, 0.0))


class TestManyPasses:
    FIELDS = ("exp(x)*cos(y) + x*z^2", "sqrt(1 + x^2 + y^2) - log(3 + z)", "7", "y")

    def _points(self, count, n=3):
        rng = CounterRng(99)
        return [tuple(-1.5 + 3.0 * u for u in rng.uniforms(n)) for _ in range(count)]

    def test_laplacian_many_matches_scalar(self):
        pts = self._points(40)
        for source in self.FIELDS:
            g = expr.parse(source)
            values, deltas = calculus.laplacian_many(g, pts)
            assert values.shape == deltas.shape == (40,)
            for pt, value, delta in zip(pts, values, deltas):
                want = calculus.laplacian(g, pt)
                assert abs(delta - want) <= 1e-15 * (1 + abs(want)), (source, pt)
                assert value == pytest.approx(expr.evaluate(g, dict(enumerate(pt, 1))), rel=1e-15)

    def test_directional_derivative_many_matches_scalar(self):
        pts = self._points(40)
        v = (0.48, 0.6, 0.64)
        for source in self.FIELDS:
            g = expr.parse(source)
            got = calculus.directional_derivative_many(g, pts, v)
            assert got.shape == (40,)
            for pt, deriv in zip(pts, got):
                want = calculus.directional_derivative(g, pt, v)
                assert abs(deriv - want) <= 1e-15 * (1 + abs(want)), (source, pt)

    def test_checker_residuals_match_scalar(self):
        box = (-1.5, 1.5)
        v = (0.0, 0.6, 0.8)
        for source in self.FIELDS:
            g = expr.parse(source)
            harm = mvp.check_harmonicity(g, 3, 30, box, 17, tol=1e300)
            vconst = mvp.check_v_constancy(g, v, 3, 30, box, 17, tol=1e300)
            pts = mvp._sample_points(box, 3, 30, 17)
            for pt, r_h, r_v in zip(pts, harm.trial_residuals, vconst.trial_residuals):
                want_h = abs(calculus.laplacian(g, pt))
                want_v = abs(calculus.directional_derivative(g, pt, v))
                assert abs(r_h - want_h) <= 1e-15 * (1 + abs(want_h)), (source, pt)
                assert abs(r_v - want_v) <= 1e-15 * (1 + abs(want_v)), (source, pt)

    def test_points_must_be_rows(self):
        with pytest.raises(ValueError, match="shape"):
            calculus.laplacian_many(expr.parse("x"), [1.0, 2.0])
