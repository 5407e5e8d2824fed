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

    def test_overflowing_width_refused(self):
        with pytest.raises(ValueError, match=r"interval \[-1e\+308, 1e\+308\] is too wide"):
            Interval(-1e308, 1e308)
        assert Interval(-1e308, 7e307).width == 1.7e308  # a wide, finite width is kept


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

    def test_overflowing_difference_is_domain_error(self):
        # f(-1) and f(1) are finite, f(1) - f(-1) = 2e308 is not: no slope,
        # and no degenerate "every point qualifies" result either
        f = expr.parse("1e308*x")
        with pytest.raises(expr.DomainError, match="non-finite secant slope"):
            average_slope(f, Interval(-1.0, 1.0))
        with pytest.raises(expr.DomainError, match="non-finite secant slope"):
            find_abscissas(f, Interval(-1.0, 1.0))

    @pytest.mark.parametrize("source,domain", SMOOTH_CORPUS)
    def test_is_the_scalar_secant_bit_for_bit(self, source, domain):
        # the one-interval call of the array secant a scan pass takes
        f, rng = expr.parse(source), random.Random(source)
        for _ in range(20):
            a, b = sorted(rng.uniform(*domain) for _ in range(2))
            want = (expr.evaluate(f, {"x": b}) - expr.evaluate(f, {"x": a})) / (b - a)
            got = average_slope(f, Interval(a, b))
            assert type(got) is float and got.hex() == want.hex(), (a, b)


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

    def test_vanishing_third_derivative_order_four(self):
        # c - x0 ~ f'''(x0) h^2 / (6 f''(x0)); with f'''(0) = 0 the x^5 term
        # sets the gap, c ~ h^4 / 2, so order 2 needs f''' != 0 as well
        sweep = mvroot.sweep_lambda(expr.parse("x^2 + x^5"), 0.0, 1e-2, 0.5, 8)
        assert sweep.fit_points == 8
        assert sweep.fitted_order == pytest.approx(4.0, abs=0.05)

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

    def test_overflowing_secant_row_fails(self):
        # only at h = 1 does f(h) - f(-h) overflow; the other rows are affine-like
        sweep = mvroot.sweep_lambda(expr.parse("1e308*x+x^2"), 0.0, 0.5, 1.0, 4)
        assert [r.status for r in sweep.rows] == ["ok", "ok", "ok", "failed"]
        assert all(r.lam == 0.5 for r in sweep.rows[:3])

    def test_parameter_validation(self):
        f = expr.parse("x^2")
        with pytest.raises(ValueError):
            mvroot.sweep_lambda(f, 0.0, 0.1, 0.01, 8)
        with pytest.raises(ValueError):
            mvroot.sweep_lambda(f, 0.0, 0.01, 0.1, 3)

    @pytest.mark.parametrize("h_max,steps", [
        (1.0000000000000002, 4), (1.0000000000000004, 4), (1.0000000000000009, 20),
    ])
    def test_repeated_h_values_rejected(self, h_max, steps):
        # the geometric grid rounds several steps to the same float
        with pytest.raises(ValueError, match="not strictly increasing"):
            mvroot.sweep_lambda(expr.parse("exp(x)"), 0.0, 1.0, h_max, steps)


class TestTolerance:
    """tol is refused as the checkers refuse it: a NaN tol kept only some
    abscissas of sin(5x), an infinite one read x^3 as degenerate."""

    CALLS = [
        ("find_abscissas", lambda f, tol: find_abscissas(f, Interval(-1.0, 3.0), tol=tol)),
        ("sweep_lambda", lambda f, tol: mvroot.sweep_lambda(f, 0.5, 0.01, 0.1, 4, tol=tol)),
    ]

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    @pytest.mark.parametrize("source", ["sin(5*x)", "x^3"])
    @pytest.mark.parametrize("name,call", CALLS, ids=[name for name, _ in CALLS])
    def test_bad_tol_refused(self, name, call, source, tol):
        with pytest.raises(ValueError, match=r"tol must be finite and >= 0, got"):
            call(expr.parse(source), tol)

    @pytest.mark.parametrize("name,call", CALLS, ids=[name for name, _ in CALLS])
    def test_zero_tol_accepted(self, name, call):
        call(expr.parse("sin(5*x)"), 0.0)
