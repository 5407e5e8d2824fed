import json
import math
import random

import pytest

from mvlab import expr, integrate, mvp
from mvlab.expr import print_canonical
from mvlab.mvp import (
    WeightSpec,
    builtin_fields,
    check_ball_mvp,
    check_harmonicity,
    check_interval_mvp,
    check_sphere_mvp,
    check_v_constancy,
    check_weighted_property,
    list_builtins,
)
from mvlab.mvroot import Interval

DOMAIN = Interval(-2.0, 2.0)
BOX = (-2.0, 2.0)


class TestWeightSpec:
    def test_lambda_range(self):
        with pytest.raises(ValueError):
            WeightSpec(0.0)
        with pytest.raises(ValueError):
            WeightSpec(1.0)

    def test_unit_vector_enforced(self):
        with pytest.raises(ValueError):
            WeightSpec(0.3, (1.0, 1.0))
        WeightSpec(0.3, (0.0, 1.0))

    @pytest.mark.parametrize("v", [(math.nan, 1.0), (1.0, math.nan)])
    def test_non_finite_direction_rejected(self, v):
        # abs(nan - 1) > 1e-12 is False: a NaN norm used to pass the check
        with pytest.raises(ValueError, match="unit vector"):
            WeightSpec(0.3, v)

    def test_direction_required_off_half(self):
        g = builtin_fields("coordinate_1", 2)
        with pytest.raises(ValueError, match="direction"):
            check_ball_mvp(g, WeightSpec(0.3), 1, BOX, 10000, 0, 2)


class TestCheckWeightedProperty:
    def test_quadratic_holds_at_half(self):
        f = expr.parse("1 + 3*x - 2*x^2")
        v = check_weighted_property(f, 0.5, 200, DOMAIN, seed=10)
        assert v.holds
        assert v.trials == 200

    def test_cubic_violated_at_half(self):
        v = check_weighted_property(expr.parse("x^3"), 0.5, 100, DOMAIN, seed=10)
        assert not v.holds
        assert len(v.counterexamples) == 10  # capped
        assert v.worst_residual > 1e-3

    def test_cubic_residual_value_on_unit_interval(self):
        # on [0,1]: slope 1, f'(1/2) = 3/4, relative residual (1/4)/2 = 1/8
        f = expr.parse("x^3")
        slope = 1.0
        deriv = 3.0 * 0.25
        expected = abs(slope - deriv) / (1 + slope)
        assert expected == 0.125

    def test_affine_holds_any_lambda(self):
        f = expr.parse("2*x + 5")
        for lam in (0.25, 0.5, 0.9):
            assert check_weighted_property(f, lam, 200, DOMAIN, seed=3).holds

    def test_theorem_dichotomy_random_quadratics(self):
        rng = random.Random(5)
        for _ in range(10):
            c0, c1 = rng.uniform(-3, 3), rng.uniform(-3, 3)
            c2 = rng.choice([-1, 1]) * rng.uniform(0.5, 3)
            f = expr.parse(f"({c0!r}) + ({c1!r})*x + ({c2!r})*x^2")
            assert check_weighted_property(f, 0.5, 50, DOMAIN, seed=77).holds
            for lam in (0.25, 0.75):
                assert not check_weighted_property(f, lam, 50, DOMAIN, seed=77).holds

    def test_verdict_replayable(self):
        f = expr.parse("sin(x)")
        a = check_weighted_property(f, 0.5, 60, DOMAIN, seed=123)
        b = check_weighted_property(f, 0.5, 60, DOMAIN, seed=123)
        assert a == b

    def test_json_shape(self):
        v = check_weighted_property(expr.parse("x^2"), 0.5, 10, DOMAIN, seed=1)
        payload = v.to_json_dict()
        assert set(payload) == {
            "property",
            "holds",
            "trials",
            "worst_residual",
            "worst_case",
            "tolerance",
            "seed",
            "counterexamples",
            "note",
        }
        json.dumps(payload)  # serializable

    def test_domain_error_carries_interval(self):
        with pytest.raises(expr.DomainError):
            check_weighted_property(expr.parse("log(x)"), 0.5, 20, DOMAIN, seed=2)

    @pytest.mark.parametrize("source,domain,message", [
        # f' overflows on the whole domain: every residual was NaN, holds=True
        ("exp(709*x)", Interval(0.992, 1.0), "non-finite value"),
        # f and f' stay finite, but f(b) - f(a) overflows on wide subintervals
        ("1.5e308*sin(x)", Interval(-1.6, 1.6), "non-finite residual"),
    ])
    def test_non_finite_is_domain_error(self, source, domain, message):
        with pytest.raises(expr.DomainError, match=message):
            check_weighted_property(expr.parse(source), 0.5, 20, domain, seed=0)

    def test_lambda_range_validated(self):
        f = expr.parse("x^2")
        with pytest.raises(ValueError):
            check_weighted_property(f, 0.0, 10, DOMAIN, seed=1)
        with pytest.raises(ValueError):
            check_interval_mvp(f, 1.0, 10, DOMAIN, seed=1)


class TestCheckIntervalMvp:
    def test_parabola_holds(self):
        assert check_interval_mvp(expr.parse("x^2"), 0.5, 100, DOMAIN, seed=6).holds

    def test_exp_midpoint_residual_value(self):
        # closed form at x=0, h=1: |(e - 1/e)/2 - 1| ~ 0.1752
        residual = abs((math.e - 1.0 / math.e) / 2.0 - 1.0)
        assert residual == pytest.approx(0.1752011936438014, abs=1e-12)
        v = check_interval_mvp(expr.parse("exp(x)"), 0.5, 100, DOMAIN, seed=6)
        assert not v.holds

    def test_affine_holds(self):
        assert check_interval_mvp(expr.parse("7 - 4*x"), 0.37, 100, DOMAIN, seed=6).holds

    def test_agrees_with_weighted_checker(self):
        for source in ("x^2", "x^3", "exp(x)", "sin(x)", "2*x + 5"):
            f = expr.parse(source)
            for lam in (0.25, 0.5):
                vw = check_weighted_property(f, lam, 60, DOMAIN, seed=9)
                vi = check_interval_mvp(f, lam, 60, DOMAIN, seed=9)
                assert vw.holds == vi.holds, (source, lam)
                assert abs(vw.worst_residual - vi.worst_residual) <= 1e-6

    @pytest.mark.parametrize("checker", [check_weighted_property, check_interval_mvp])
    def test_trial_interval_that_rounds_shut(self, checker):
        # at 1e16 a double's spacing is 2, so a trial of width >= 0.08 can round to one point
        with pytest.raises(ValueError, match="need a < b"):
            checker(expr.parse("x^2"), 0.5, 10, Interval(1e16, 1e16 + 8.0), 1)


class TestBallSphereCheckers:
    def test_coordinate_field_holds_weighted(self):
        g = builtin_fields("coordinate_1", 2)
        w = WeightSpec(0.3, (0.0, 1.0))
        assert check_ball_mvp(g, w, 6, BOX, 20000, 17, 2).holds
        assert check_sphere_mvp(g, w, 6, BOX, 20000, 17, 2).holds

    def test_constant_field_holds(self):
        g = expr.parse("5")
        w = WeightSpec(0.3, (1.0, 0.0))
        assert check_ball_mvp(g, w, 4, BOX, 10000, 1, 2).holds

    def test_harmonic_fails_off_axis_weight(self):
        g = builtin_fields("harmonic2d_2", 2)
        w = WeightSpec(0.3, (1.0, 0.0))
        assert not check_ball_mvp(g, w, 6, BOX, 20000, 17, 2).holds

    def test_harmonic_passes_at_half(self):
        g = builtin_fields("harmonic2d_2", 2)
        assert check_ball_mvp(g, WeightSpec(0.5, (1.0, 0.0)), 6, BOX, 20000, 17, 2).holds
        assert check_sphere_mvp(g, WeightSpec(0.5, (1.0, 0.0)), 6, BOX, 20000, 17, 2).holds

    def test_radial_fails_at_half(self):
        g = expr.parse("x^2 + y^2")
        v = check_ball_mvp(g, WeightSpec(0.5), 4, BOX, 20000, 23, 2)
        assert not v.holds
        assert check_sphere_mvp(g, WeightSpec(0.5), 4, BOX, 20000, 23, 2).holds is False

    def test_half_reduction_v_independent(self):
        g = builtin_fields("harmonic2d_2", 2)
        v1 = check_ball_mvp(g, WeightSpec(0.5, (1.0, 0.0)), 5, BOX, 20000, 31, 2)
        v2 = check_ball_mvp(g, WeightSpec(0.5, (0.0, 1.0)), 5, BOX, 20000, 31, 2)
        assert v1.trial_residuals == v2.trial_residuals

    def test_theorem2_family_all_weights(self):
        cases = [
            (builtin_fields("coordinate_1", 2), 2, (0.0, 1.0)),
            (builtin_fields("vconst_harmonic", 3), 3, (0.0, 0.0, 1.0)),
            (builtin_fields("harmonic2d_3", 3), 3, (0.0, 0.0, 1.0)),
        ]
        for g, n, v in cases:
            for lam in (0.3, 0.5, 0.7):
                w = WeightSpec(lam, v)
                assert check_ball_mvp(g, w, 4, BOX, 20000, 13, n).holds, (n, lam, "ball")
                assert check_sphere_mvp(g, w, 4, BOX, 20000, 13, n).holds, (n, lam, "sphere")
            assert check_harmonicity(g, n, 50, BOX, 13).holds
            assert check_v_constancy(g, v, n, 50, BOX, 13).holds

    def test_trial_seed_derivation_is_stable(self):
        g = builtin_fields("coordinate_1", 2)
        w = WeightSpec(0.3, (0.0, 1.0))
        v1 = check_ball_mvp(g, w, 3, BOX, 10000, 99, 2)
        v2 = check_ball_mvp(g, w, 3, BOX, 10000, 99, 2)
        assert v1 == v2

    def test_non_finite_average_is_domain_error(self):
        # inf - inf sampled near x = 2 used to give NaN residuals and holds=True
        g = expr.parse("exp(700*x) - exp(700*x)")
        with pytest.raises(integrate.McDomainError, match="non-finite value"):
            check_ball_mvp(g, WeightSpec(0.5), 3, (0.9, 1.0), 10000, 1, 2)

    def test_minimum_samples_enforced(self):
        g = builtin_fields("coordinate_1", 2)
        with pytest.raises(ValueError):
            check_ball_mvp(g, WeightSpec(0.5), 2, BOX, 9999, 0, 2)


class TestHarmonicity:
    def test_canonical_harmonic(self):
        assert check_harmonicity(expr.parse("x^2 - y^2"), 2, 100, BOX, 1).holds

    def test_degree_three(self):
        assert check_harmonicity(expr.parse("x^3 - 3*x*y^2"), 2, 100, BOX, 1).holds

    def test_radial_violates(self):
        v = check_harmonicity(expr.parse("x^2 + y^2"), 2, 50, BOX, 1)
        assert not v.holds
        assert v.worst_residual == pytest.approx(4.0, rel=1e-12)

    def test_allowance_past_the_largest_double(self):
        # tol*(1 + |g|) overflowed with a RuntimeWarning and was refused as
        # a non-finite residual, though the Laplacian is 0 everywhere
        v = check_harmonicity(expr.parse("1e300*x"), 1, 3, [(0.5, 1.0)], 1, tol=1e10)
        assert v.holds and v.worst_residual == 0.0

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_is_still_refused(self, tol):
        # an input error, refused before any pass: not a non-finite residual
        with pytest.raises(ValueError, match="tol must be finite and >= 0") as err:
            check_harmonicity(expr.parse("x^2 - y^2"), 2, 3, BOX, 1, tol=tol)
        assert not isinstance(err.value, expr.DomainError)

    @pytest.mark.parametrize("box", [(-math.inf, 1.0), (-1.7e308, 1.7e308)])
    def test_box_width_must_be_finite(self, box):
        # hi - lo overflowed in the point draw with a numpy RuntimeWarning
        with pytest.raises(ValueError, match="invalid box range"):
            check_harmonicity(expr.parse("x"), 2, 3, box, 1)

    @pytest.mark.parametrize("n", [0, 11])
    def test_dimension_range(self, n):
        v = (1.0,) + (0.0,) * (n - 1)
        with pytest.raises(ValueError, match=f"dimension must be 1..10, got {n}"):
            check_harmonicity(expr.parse("x"), n, 3, BOX, 1)
        with pytest.raises(ValueError, match=f"dimension must be 1..10, got {n}"):
            check_v_constancy(expr.parse("x"), v, n, 3, BOX, 1)

    @pytest.mark.parametrize("box", [(1.0,), (1.0, 2.0, 3.0), [(0.0, 1.0), (0.0, 1.0, 2.0)]])
    def test_box_ranges_are_pairs(self, box):
        with pytest.raises(ValueError, match=r"must give each coordinate a \(lo, hi\) range"):
            check_harmonicity(expr.parse("x"), 2, 3, box, 1)


class TestVConstancy:
    def test_coordinate_constant_transverse(self):
        assert check_v_constancy(expr.parse("x"), (0.0, 1.0), 2, 50, BOX, 2).holds

    def test_linear_in_v_violates(self):
        v = check_v_constancy(expr.parse("x + y"), (0.0, 1.0), 2, 50, BOX, 2)
        assert not v.holds
        assert v.worst_residual == pytest.approx(1.0, rel=1e-12)

    def test_harmonic_off_diagonal(self):
        s = 1.0 / math.sqrt(2.0)
        v = check_v_constancy(expr.parse("x^2 - y^2"), (s, s), 2, 50, BOX, 2)
        assert not v.holds

    def test_direction_dimension(self):
        # the ball and sphere checks' message, from the one direction rule
        with pytest.raises(ValueError, match="v has dimension 3, need 2"):
            check_v_constancy(expr.parse("x"), (1.0, 0.0, 0.0), 2, 5, BOX, 2)

    @pytest.mark.parametrize("v,message", [
        ((1.0, 0.0, 0.0), "v has dimension 3, need 2"),
        ((2.0, 0.0), r"v must be a finite unit vector, got \(2.0, 0.0\)"),
    ])
    def test_direction_checked_before_any_point(self, monkeypatch, v, message):
        # as in the ball and sphere checks: v is refused before a bad box or
        # count, and before the points are drawn
        def no_draw(*args):
            raise AssertionError("points drawn before v was checked")
        with pytest.raises(ValueError, match=message):
            check_v_constancy(expr.parse("x"), v, 2, 5, [(0.0, 1.0)], 2)
        with pytest.raises(ValueError, match=message):
            check_v_constancy(expr.parse("x"), v, 2, 0, BOX, 2)
        monkeypatch.setattr(mvp, "_sample_points", no_draw)
        with pytest.raises(ValueError, match=message):
            check_v_constancy(expr.parse("x"), v, 2, 100_000, BOX, 2)


_W = WeightSpec(0.5)
_X2 = expr.parse("x^2")  # the midpoint property holds exactly
_H2 = expr.parse("x^2 - y^2")  # harmonic, and its Laplacian is exactly 0

# each checker on a field that has its property, at a given tol
CHECKERS = {
    "weighted": lambda tol: check_weighted_property(_X2, 0.5, 5, Interval(0, 1), 1, tol=tol),
    "interval": lambda tol: check_interval_mvp(_X2, 0.5, 5, Interval(0, 1), 1, tol=tol),
    "ball": lambda tol: check_ball_mvp(_H2, _W, 2, BOX, 10000, 1, 2, tol=tol),
    "sphere": lambda tol: check_sphere_mvp(_H2, _W, 2, BOX, 10000, 1, 2, tol=tol),
    "harmonicity": lambda tol: check_harmonicity(_H2, 2, 5, BOX, 1, tol=tol),
    "v_constancy": lambda tol: check_v_constancy(expr.parse("x"), (0.0, 1.0), 2, 5, BOX, 1, tol=tol),
}


class TestTolerance:
    """Every checker takes a finite tol >= 0; anything else is an input
    error, as a bad box is, and not a verdict or a numeric failure."""

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    def test_bad_tol_is_value_error(self, checker, tol):
        # a negative tol used to report counterexamples for an exact property
        # and a NaN one a non-finite residual
        with pytest.raises(ValueError, match="tol must be finite and >= 0") as err:
            CHECKERS[checker](tol)
        assert not isinstance(err.value, expr.EvalError)

    @pytest.mark.parametrize("checker", sorted(CHECKERS))
    def test_zero_tol_accepted(self, checker):
        assert CHECKERS[checker](0.0).tolerance == 0.0


class TestCounts:
    """trials, points and samples are integers; any other value is a
    ValueError naming the rule, as a count below its least is."""

    @pytest.mark.parametrize("call,message", [
        pytest.param(lambda: check_weighted_property(_X2, 0.5, 10.5, Interval(0, 1), 1),
                     "trials must be an integer, got 10.5", id="weighted-trials"),
        pytest.param(lambda: check_interval_mvp(_X2, 0.5, 10.5, Interval(0, 1), 1),
                     "trials must be an integer, got 10.5", id="interval-trials"),
        pytest.param(lambda: check_ball_mvp(_H2, _W, 2.5, BOX, 10000, 1, 2),
                     "trials must be an integer, got 2.5", id="ball-trials"),
        pytest.param(lambda: check_sphere_mvp(_H2, _W, 2, BOX, 10000.5, 1, 2),
                     "samples must be an integer, got 10000.5", id="sphere-samples"),
        pytest.param(lambda: check_harmonicity(_H2, 2, 3.5, BOX, 1),
                     "points must be an integer, got 3.5", id="harmonicity-points"),
        pytest.param(lambda: check_harmonicity(_H2, 2.0, 3, BOX, 1),
                     "dimension must be an integer, got 2.0", id="harmonicity-dimension"),
        pytest.param(lambda: check_v_constancy(expr.parse("x"), (0.0, 1.0), 2, 3.5, BOX, 1),
                     "points must be an integer, got 3.5", id="v-constancy-points"),
    ])
    def test_non_integer_is_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestVerdict:
    G = expr.parse("x")

    def test_worst_case_and_counterexamples(self):
        residuals = [1.0, 3.0, 3.0] + [2.0] * 12
        cases = [{"i": i} for i in range(15)]
        v = mvp._verdict("p", self.G, 1.5, 9, residuals, [1.5] * 15, cases.__getitem__)
        assert not v.holds and v.trials == 15 and v.seed == 9
        assert (v.worst_residual, v.worst_case) == (3.0, {"i": 1})  # first maximal
        assert [c["i"] for c in v.counterexamples] == list(range(1, 11))  # first 10
        assert v.counterexamples[0]["residual"] == 3.0
        assert v.trial_residuals == tuple(residuals)

    def test_residual_at_its_allowance_holds(self):
        v = mvp._verdict("p", self.G, 1.0, 0, [0.0, 1.0], [1.0, 1.0], [{}, {}].__getitem__)
        assert v.holds and v.worst_residual == 1.0

    @pytest.mark.parametrize("residual,allowed", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan),
    ])
    def test_non_finite_is_domain_error(self, residual, allowed):
        with pytest.raises(expr.DomainError, match="non-finite residual"):
            mvp._verdict(
                "p", self.G, 1.0, 0, [0.0, residual], [1.0, allowed], [{}, {}].__getitem__
            )


class TestBuiltins:
    def test_harmonic2d_2(self):
        assert print_canonical(builtin_fields("harmonic2d_2", 2)) == print_canonical(
            expr.parse("x1^2 - x2^2")
        )

    def test_harmonic2d_3(self):
        assert builtin_fields("harmonic2d_3", 2) == expr.parse("x^3 - 3*x*y^2")

    def test_harmonic2d_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="harmonic2d_k needs dimension >= 2"):
            builtin_fields("harmonic2d_2", 1)

    def test_vconst_harmonic_ignores_third_axis(self):
        g = builtin_fields("vconst_harmonic", 3)
        assert expr.variables(g) == (1, 2)

    def test_radial_sq(self):
        g = builtin_fields("radial_sq", 3)
        assert expr.evaluate(g, {"x": 1.0, "y": 2.0, "z": 3.0}) == 14.0

    def test_affine(self):
        g = builtin_fields("affine", 2)
        assert expr.evaluate(g, {"x": 1.0, "y": 1.0}) == 5.0

    def test_coordinate_bounds(self):
        with pytest.raises(ValueError):
            builtin_fields("coordinate_3", 2)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_fields("does_not_exist", 2)

    @pytest.mark.parametrize("index", ["+1", "01", " 1", "1 ", "1_0", "\u0661", "-1", "-0",
                                       pytest.param("1" * 5000, id="5000-digits")])
    @pytest.mark.parametrize("prefix", ["coordinate_", "harmonic2d_"])
    def test_index_is_spelled_as_the_catalog_spells_it(self, prefix, index):
        # int() reads each of these but the last; no name of list_builtins() is spelled so
        name = prefix + index
        with pytest.raises(KeyError) as raised:
            builtin_fields(name, 10)
        assert raised.value.args == (f"unknown builtin field {name!r}",)

    @pytest.mark.parametrize("i", [0, 11, 10**30])
    def test_coordinate_index_outside_the_catalog(self, i):
        # no dimension has coordinate i; dimension 10 has all ten
        with pytest.raises(KeyError) as raised:
            builtin_fields(f"coordinate_{i}", 10)
        assert raised.value.args == (f"coordinate_i supports i in 1..10, got {i}",)

    def test_every_listed_name_builds_in_dimension_10(self):
        fields = {name: print_canonical(builtin_fields(name, 10)) for name in list_builtins()}
        assert [fields[f"coordinate_{i}"] for i in range(1, 11)] == [f"x{i}" for i in range(1, 11)]
        assert len(fields) == 20

    def test_listing_covers_catalog(self):
        names = list_builtins()
        assert "harmonic2d_2" in names
        assert "radial_sq" in names
        assert "vconst_harmonic" in names
        assert "affine" in names
