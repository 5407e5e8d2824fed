import math
import random

import pytest

from conftest import SMOOTH_CORPUS
from mvlab import expr, mvroot
from mvlab.mvroot import Interval, NoRootError, average_slope, find_abscissas, lambda_of

# closed-form oracles, frozen:
#   exp on [0, 1]: f'(c) = e - 1  =>  c = ln(e - 1)
#   x^3 on [-1, 1]: 3c^2 = 1      =>  c = +-(1/sqrt(3))
LN_E_MINUS_1 = 0.541324854612918
INV_SQRT3 = 0.5773502691896258


class TestInterval:
    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            Interval(2.0, 2.0)
        with pytest.raises(ValueError):
            Interval(3.0, 1.0)

    def test_finiteness_enforced(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)


class TestAverageSlope:
    def test_secant_slope(self):
        assert average_slope(expr.parse("x^2"), Interval(0, 2)) == 2.0

    def test_exponential(self):
        got = average_slope(expr.parse("exp(x)"), Interval(0, 1))
        assert got == pytest.approx(math.e - 1, rel=1e-15)

    def test_equal_endpoints(self):
        assert average_slope(expr.parse("sin(x)"), Interval(0, math.pi)) == pytest.approx(
            0.0, abs=1e-16
        )


class TestLambdaOf:
    def test_midpoint(self):
        assert lambda_of(1.0, Interval(0, 2)) == 0.5

    def test_exp_abscissa(self):
        assert lambda_of(LN_E_MINUS_1, Interval(0, 1)) == pytest.approx(
            0.458675145387082, abs=1e-15
        )

    def test_boundary_maps_outside_open_range(self):
        assert lambda_of(0.0, Interval(0, 1)) == 1.0
        assert lambda_of(1.0, Interval(0, 1)) == 0.0

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            lambda_of(3.0, Interval(0, 2))


class TestFindAbscissas:
    def test_parabola_midpoint(self):
        res = find_abscissas(expr.parse("x^2"), Interval(0, 2))
        assert res.abscissas == (1.0,)
        assert res.lambdas == (0.5,)
        assert not res.degenerate

    def test_exponential_closed_form(self):
        res = find_abscissas(expr.parse("exp(x)"), Interval(0, 1))
        assert len(res.abscissas) == 1
        assert res.abscissas[0] == pytest.approx(LN_E_MINUS_1, abs=1e-12)

    def test_cubic_two_roots(self):
        res = find_abscissas(expr.parse("x^3"), Interval(-1, 1))
        assert len(res.abscissas) == 2
        assert res.abscissas[0] == pytest.approx(-INV_SQRT3, abs=1e-12)
        assert res.abscissas[1] == pytest.approx(INV_SQRT3, abs=1e-12)

    def test_affine_degenerate(self):
        res = find_abscissas(expr.parse("2*x + 5"), Interval(0, 1))
        assert res.degenerate
        assert res.abscissas == ()

    def test_constant_degenerate(self):
        assert find_abscissas(expr.parse("7"), Interval(-1, 1)).degenerate

    def test_no_root_reports_grid(self):
        # f' - slope = cos(4*pi*x) up to roundoff: positive at all three
        # nodes of a 2-cell grid, so both interior crossings are aliased
        f = expr.parse("sin(4*pi*x)/(4*pi)")
        with pytest.raises(NoRootError, match="grid"):
            find_abscissas(f, Interval(0.0, 1.0), grid=2)
        res = find_abscissas(f, Interval(0.0, 1.0), grid=64)
        assert len(res.abscissas) >= 2

    def test_domain_error_propagates(self):
        with pytest.raises(expr.DomainError):
            find_abscissas(expr.parse("log(x)"), Interval(-1.0, 1.0))

    def test_huge_derivative_sign_test(self):
        # phi is ~1e200 at both ends of a cell: a product of neighbours
        # overflows, which the suite turns into an error
        res = find_abscissas(expr.parse("1e200*x^3"), Interval(-1.0, 2.0))
        assert res.abscissas == pytest.approx((1.0,), abs=1e-12)

    def test_residual_bound_and_lambda_consistency(self):
        rng = random.Random(12)
        checked = 0
        for source, (lo, hi) in SMOOTH_CORPUS:
            f = expr.parse(source)
            for _ in range(7):
                a = rng.uniform(lo, hi - 0.5)
                b = rng.uniform(a + 0.4, hi)
                iv = Interval(a, b)
                res = find_abscissas(f, iv)
                if res.degenerate:
                    continue
                from mvlab import calculus

                for c, lam in zip(res.abscissas, res.lambdas):
                    assert iv.a < c < iv.b
                    resid = abs(calculus.derivatives_1d(f, c)[1] - res.average_slope)
                    assert resid <= 1e-10 * (1.0 + abs(res.average_slope)), (source, c)
                    assert lam == lambda_of(c, iv)
                    assert 0.0 < lam < 1.0
                    checked += 1
        assert checked > 100

    def test_existence_on_corpus(self):
        rng = random.Random(40)
        trials = 0
        while trials < 200:
            source, (lo, hi) = SMOOTH_CORPUS[rng.randrange(len(SMOOTH_CORPUS))]
            a = rng.uniform(lo, hi - 0.3)
            b = rng.uniform(a + 0.2, hi)
            res = find_abscissas(expr.parse(source), Interval(a, b))
            assert res.degenerate or len(res.abscissas) >= 1
            trials += 1

    def test_quadratic_family_lambda_half(self):
        rng = random.Random(8)
        for _ in range(100):
            c0, c1 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            c2 = rng.choice([-1, 1]) * rng.uniform(0.2, 4)
            f = expr.parse(f"({c0!r}) + ({c1!r})*x + ({c2!r})*x^2")
            a = rng.uniform(-4, 3)
            b = rng.uniform(a + 0.5, 4.5)
            res = find_abscissas(f, Interval(a, b))
            assert len(res.abscissas) == 1
            assert abs(res.lambdas[0] - 0.5) <= 1e-10


class TestSweepLambda:
    def test_parabola_rows_exact_and_order_undefined(self):
        # away from 0 the arithmetic is inexact, so run on dyadic-friendly h
        sweep = mvroot.sweep_lambda(expr.parse("x^2"), 3.0, 0.25, 2.0, 8)
        assert all(r.status == "ok" for r in sweep.rows)
        assert all(abs(r.lam - 0.5) <= 1e-12 for r in sweep.rows)
        assert sweep.fitted_order is None

    def test_parabola_at_origin_exact(self):
        sweep = mvroot.sweep_lambda(expr.parse("x^2"), 0.0, 1e-3, 1e-1, 20)
        assert all(r.abs_dev == 0.0 for r in sweep.rows)
        assert sweep.fitted_order is None

    def test_exponential_order_two(self):
        sweep = mvroot.sweep_lambda(expr.parse("exp(x)"), 0.0, 1e-3, 1e-1, 20)
        assert sweep.fit_points == 20
        assert sweep.fitted_order == pytest.approx(2.0, abs=0.1)

    def test_cubic_at_inflection(self):
        # both abscissas stay at fixed interval fractions: lambda never
        # approaches 1/2, and |c - x0| shrinks only linearly with h
        sweep = mvroot.sweep_lambda(expr.parse("x^3"), 0.0, 1e-3, 1e-1, 12)
        lams = {round(r.lam, 4) for r in sweep.rows if r.status == "ok"}
        assert lams <= {0.2113, 0.7887}
        assert sweep.fitted_order == pytest.approx(1.0, abs=0.05)

    def test_affine_degenerate_rows(self):
        sweep = mvroot.sweep_lambda(expr.parse("2*x + 5"), 1.0, 0.01, 1.0, 6)
        assert all(r.lam == 0.5 and r.abs_dev == 0.0 for r in sweep.rows)
        assert sweep.fitted_order is None

    def test_failed_rows_excluded(self):
        # f' blows up at x = 0.5: rows whose interval crosses it fail
        sweep = mvroot.sweep_lambda(
            expr.parse("sqrt(x - 0.5)"), 1.5, 0.5, 1.2, 5, grid=64
        )
        statuses = {r.status for r in sweep.rows}
        assert "failed" in statuses and "ok" in statuses

    def test_parameter_validation(self):
        f = expr.parse("x^2")
        with pytest.raises(ValueError):
            mvroot.sweep_lambda(f, 0.0, 0.1, 0.01, 8)
        with pytest.raises(ValueError):
            mvroot.sweep_lambda(f, 0.0, 0.01, 0.1, 3)
