import functools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats
import sympy

from mvlab import expr, integrate
from mvlab.integrate import (
    BallSpec,
    CounterRng,
    McDomainError,
    integrate_1d,
    mc_ball_average,
    mc_sphere_average,
    mix64,
    sample_ball_many,
    sample_sphere_many,
)


class TestCounterRng:
    def test_uniforms_in_unit_interval(self):
        u = CounterRng(123).uniforms(10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_counter_addressable(self):
        a = CounterRng(5)
        first = a.uniforms(100)
        b = CounterRng(5)
        b.uniforms(40)
        assert np.array_equal(first[40:], b.uniforms(60))

    def test_split_streams_differ(self):
        base = CounterRng(7)
        assert not np.array_equal(base.split(0).uniforms(64), base.split(1).uniforms(64))

    def test_split_matches_mix_rule(self):
        key = 0x6A09E667F3BCC908  # folded into the seed before the stride
        assert CounterRng(7).split(3).seed == mix64((7 ^ key) + 4 * integrate.GOLDEN)

    @pytest.mark.parametrize("seed", [0, 12345, (1 << 64) - 1])
    def test_split_seed_is_not_a_parent_output(self, seed):
        # trial t samples from split(t) while uniform draw t is one of its
        # instance coordinates, so the two must not coincide
        draws = CounterRng(seed).uniforms(1000).tolist()
        for t in range(1000):
            split_seed = CounterRng(seed).split(t).seed
            assert split_seed != mix64(seed + (t + 1) * integrate.GOLDEN)
            assert (split_seed >> 11) * 2.0**-53 != draws[t]

    def test_gaussians_moments(self):
        g = CounterRng(99).gaussians(200000)
        assert abs(g.mean()) < 0.01
        assert abs(g.std() - 1.0) < 0.01

    def test_gaussians_odd_count(self):
        assert len(CounterRng(1).gaussians(7)) == 7


class TestIntegrate1d:
    def test_polynomial_exactness(self):
        got = integrate_1d(expr.parse("x^2"), 0.0, 1.0)
        assert abs(got - 1.0 / 3.0) <= 1e-14

    def test_classical_sine(self):
        got = integrate_1d(expr.parse("sin(x)"), 0.0, math.pi)
        assert abs(got - 2.0) <= 1e-12

    def test_single_panel_five_nodes_degree_nine(self):
        got = integrate_1d(expr.parse("x^9"), 0.0, 1.0, panels=1, nodes=5)
        assert abs(got - 0.1) <= 1e-15

    def test_gauss_exactness_property(self):
        # degree <= 2*nodes - 1 integrates exactly; oracle is the exact
        # rational antiderivative evaluated at dyadic endpoints
        rng = random.Random(4)
        for nodes in (2, 5, 16):
            degree = 2 * nodes - 1
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
            a, b = Fraction(-3, 2), Fraction(5, 4)
            exact = sum(
                c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)
            )
            source = " + ".join(
                f"({c.numerator}/{c.denominator})*x^{k}" for k, c in enumerate(coeffs)
            )
            got = integrate_1d(expr.parse(source), float(a), float(b), panels=3, nodes=nodes)
            assert abs(got - float(exact)) <= 1e-14 * (1.0 + abs(float(exact)))

    def test_domain_error_propagates(self):
        with pytest.raises(expr.DomainError):
            integrate_1d(expr.parse("log(x)"), -1.0, 1.0)

    def test_orientation_validated(self):
        with pytest.raises(ValueError):
            integrate_1d(expr.parse("x"), 1.0, 0.0)

    def test_infinite_endpoint_rejected(self):
        with pytest.raises(ValueError, match="interval endpoints must be finite"):
            integrate_1d(expr.parse("1"), 0.0, math.inf)

    def test_overflowing_width_rejected(self):
        with pytest.raises(ValueError, match="b - a overflows"):
            integrate_1d(expr.parse("1"), -1e308, 1e308)

    def test_overflowing_sum_is_domain_error(self):
        with pytest.raises(expr.DomainError, match="non-finite integral"):
            integrate_1d(expr.parse("1e308"), 0.0, 10.0)


class TestBallGeometry:
    def test_dimension_range(self):
        with pytest.raises(ValueError):
            BallSpec((), 1.0)
        with pytest.raises(ValueError):
            BallSpec((0.0,) * 11, 1.0)
        with pytest.raises(ValueError):
            sample_sphere_many(BallSpec((0.0,), 1.0), CounterRng(0), 5)

    @pytest.mark.parametrize(
        "average", [mc_ball_average, mc_sphere_average], ids=["ball_volume", "sphere_area"]
    )
    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, average, h):
        # the ball average is over volume measure, the sphere average over area
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            average(expr.parse("1"), BallSpec((0.0, 0.0, 0.0), h), 1000, 0)

    def test_ballspec_validation(self):
        with pytest.raises(ValueError):
            BallSpec((0.0, 0.0), -1.0)
        with pytest.raises(ValueError):
            BallSpec((0.0, math.nan), 1.0)
        with pytest.raises(ValueError):
            BallSpec((0.0,) * 11, 1.0)
        spec = BallSpec((1.0, 2.0), 0.5)
        assert spec.dim == 2


class TestSampleBall:
    def test_containment(self):
        spec = BallSpec((1.0, -2.0, 0.5), 0.75)
        pts = sample_ball_many(spec, CounterRng(3), 50000)
        r = np.linalg.norm(pts - np.array(spec.center), axis=1)
        assert np.all(r <= spec.radius * (1 + 1e-12))

    def test_coordinate_means_near_center(self):
        spec = BallSpec((1.0, -2.0), 0.5)
        pts = sample_ball_many(spec, CounterRng(11), 1_000_000)
        for i in range(2):
            coord = pts[:, i]
            stderr = coord.std(ddof=1) / math.sqrt(len(coord))
            assert abs(coord.mean() - spec.center[i]) <= 4.0 * stderr

    def test_radial_cdf(self):
        # P(|p - center| <= u*h) = u^n; u = 0.5, n = 3 gives 1/8
        spec = BallSpec((0.0, 0.0, 0.0), 1.0)
        pts = sample_ball_many(spec, CounterRng(21), 400000)
        inside = np.linalg.norm(pts, axis=1) <= 0.5
        p = 0.125
        stderr = math.sqrt(p * (1 - p) / len(pts))
        assert abs(inside.mean() - p) <= 4.0 * stderr

    def test_single_point(self):
        pt = sample_ball_many(BallSpec((0.0, 0.0), 1.0), CounterRng(0), 1)[0]
        assert len(pt) == 2 and math.hypot(*pt) <= 1.0

    def test_one_dimensional(self):
        pts = sample_ball_many(BallSpec((2.0,), 0.5), CounterRng(9), 100000)
        assert np.all(np.abs(pts[:, 0] - 2.0) <= 0.5)
        # uniform on the interval: mean 2, variance 0.25/3
        assert pts[:, 0].mean() == pytest.approx(2.0, abs=0.005)
        assert pts[:, 0].var() == pytest.approx(0.25 / 3.0, rel=0.02)


class TestSampleSphere:
    def test_radius_exact(self):
        spec = BallSpec((1.0, 2.0, 3.0), 0.7)
        pts = sample_sphere_many(spec, CounterRng(5), 50000)
        r = np.linalg.norm(pts - np.array(spec.center), axis=1)
        assert np.all(np.abs(r - spec.radius) <= 1e-12 * spec.radius)

    def test_coordinate_means(self):
        spec = BallSpec((0.5, -0.5), 1.0)
        pts = sample_sphere_many(spec, CounterRng(13), 400000)
        for i in range(2):
            stderr = pts[:, i].std(ddof=1) / math.sqrt(len(pts))
            assert abs(pts[:, i].mean() - spec.center[i]) <= 4.0 * stderr

    def test_angle_uniformity_ks(self):
        spec = BallSpec((0.0, 0.0), 1.0)
        pts = sample_sphere_many(spec, CounterRng(31), 100000)
        angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
        stat = scipy.stats.kstest(angles, "uniform", args=(0.0, 2.0 * math.pi)).statistic
        assert stat < 1.628 / math.sqrt(len(angles))  # 1% critical value

    def test_single_point(self):
        pt = sample_sphere_many(BallSpec((0.0, 0.0), 2.0), CounterRng(1), 1)[0]
        assert math.hypot(*pt) == pytest.approx(2.0, rel=1e-12)

    def test_one_dimension_rejected(self):
        rng = CounterRng(1, counter=10)
        with pytest.raises(ValueError, match="a sphere needs dimension >= 2"):
            sample_sphere_many(BallSpec((0.0,), 1.0), rng, 5)
        assert rng.counter == 10


class TestUnitCircle:
    """`_unit_circle` against (cos, sin) of pi (2u - 1) at 130 bits: seeded
    uniforms, the ties w = +-1/2 of the quarter-turn rint (u = j/8) and
    their neighbours j/8 +- 2^-53, and the quarter turns u = j/4, where the
    point is exact."""

    EDGES = [j / 8 + d for j in range(9) for d in (-(2.0**-53), 0.0, 2.0**-53)
             if 0 <= j / 8 + d < 1]

    @staticmethod
    def _circle(u):
        x = np.empty((2, len(u)))
        x[0] = u
        integrate._unit_circle(x)
        return x

    def test_within_two_ulp_of_exact(self):
        u = np.concatenate([CounterRng(17).uniforms(10_000), self.EDGES])
        x = self._circle(u)
        with mpmath.workprec(130):
            for ui, cos, sin in zip(u.tolist(), *x.tolist()):
                if (4 * ui) % 1 == 0:
                    continue  # test_quarter_turns_exact
                phi = mpmath.pi * (2 * mpmath.mpf(ui) - 1)
                for got, exact in ((cos, mpmath.cos(phi)), (sin, mpmath.sin(phi))):
                    assert abs(got - exact) <= 2 * math.ulp(float(exact)), ui
        norm = x[0] * x[0] + x[1] * x[1] - 1.0
        assert float(np.max(np.abs(norm))) <= 2 * math.ulp(1.0)

    def test_quarter_turns_exact(self):
        x = self._circle(np.array([0.0, 0.25, 0.5, 0.75]))
        assert x.T.tolist() == [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]

    def test_samplers_call_no_libm_trig(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler called a libm trig function")

        monkeypatch.setattr(np, "sin", refuse)
        monkeypatch.setattr(np, "cos", refuse)
        for dim in range(2, 11):
            spec = BallSpec((0.0,) * dim, 1.0)
            sample_ball_many(spec, CounterRng(3), 100)
            sample_sphere_many(spec, CounterRng(3), 100)


def sphere_moment(alpha, n: int) -> Fraction:
    """Exact E[y^alpha] for y uniform on the unit sphere in R^n (Folland,
    Amer. Math. Monthly 108, 2001): 0 unless every alpha_j is even, else
    prod_j (alpha_j - 1)!! / (n (n+2) ... (n + |alpha| - 2)).  `alpha`
    lists the exponents of y_1, y_2, ...; missing ones are 0."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    double_factorials = math.prod(math.prod(range(a - 1, 0, -2)) for a in alpha)
    return Fraction(double_factorials, math.prod(range(n, n + sum(alpha), 2)))


def ball_moment(alpha, n: int) -> Fraction:
    """Exact E[x^alpha] for x uniform in the unit ball of R^n: the radius
    law n r^(n-1) dr contributes n / (n + |alpha|)."""
    return sphere_moment(alpha, n) * Fraction(n, n + sum(alpha))


class TestSamplerLaw:
    """The sampled law against the exact moments of the uniform law on the
    sphere and in the ball, n = 2..10, each within 5 standard errors."""

    COUNT = (1 << 19) + 777  # past 16 Monte Carlo evaluation blocks

    @staticmethod
    def _assert_mean(values, exact, label):
        stderr = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - exact) <= 5.0 * stderr, label

    def _assert_law(self, y, moment):
        """Every degree <= 4 monomial y^alpha of the set y_i, y_i^2, y_i^4
        (each i) and y_i y_j, y_i^2 y_j^2, y_i^3 y_j (each i != j) has its
        exact mean within 5 standard errors.  The sums of y^alpha and of
        y^(2 alpha) come, block by block, from row sums of the powers of y
        and one matrix product per exponent pair."""
        count, n = y.shape
        sums = {}  # exponents -> [sum of y^alpha, sum of y^(2 alpha)]
        for q in range(0, count, 1 << 14):
            powers = [None, np.ascontiguousarray(y[q : q + (1 << 14)].T)]
            for _ in range(7):
                powers.append(powers[-1] * powers[1])  # y^2 .. y^8, one row per coordinate
            blocks = {p: (powers[p].sum(axis=1), powers[2 * p].sum(axis=1)) for p in (1, 2, 4)}
            for a, b in ((1, 1), (2, 2), (3, 1)):
                blocks[a, b] = (powers[a] @ powers[b].T, powers[2 * a] @ powers[2 * b].T)
            for key, (s1, s2) in blocks.items():
                total = sums.setdefault(key, [0.0, 0.0])
                total[0] += s1
                total[1] += s2
        checks = [((i,), (p,), sums[p]) for p in (1, 2, 4) for i in range(n)]
        checks += [((i, j), ab, sums[ab]) for ab in ((1, 1), (2, 2), (3, 1))
                   for i in range(n) for j in range(n) if i < j or (i > j and ab == (3, 1))]
        for where, exponents, (s1, s2) in checks:
            alpha = [0] * n
            for i, a in zip(where, exponents):
                alpha[i] = a
            mean = s1[where] / count
            stderr = math.sqrt((s2[where] / count - mean * mean) / (count - 1))
            assert abs(mean - float(moment(alpha, n))) <= 5.0 * stderr, alpha

    def test_exact_moments_match_closed_forms(self):
        for n in range(2, 11):
            assert sphere_moment((2,), n) == Fraction(1, n)
            assert sphere_moment((0, 4), n) == Fraction(3, n * (n + 2))
            assert sphere_moment((2, 2), n) == Fraction(1, n * (n + 2))
            assert sphere_moment((1,), n) == sphere_moment((3, 1), n) == 0
            # E|x|^2 = n / (n + 2) in the unit ball
            squares = (ball_moment((0,) * i + (2,), n) for i in range(n))
            assert sum(squares) == Fraction(n, n + 2)
            assert ball_moment((), n) == sphere_moment((), n) == 1

    def test_exact_moment_matches_sympy_integral(self):
        # E[y_1^4 y_3^2] on S^2, in spherical coordinates: 3 / (3 * 5 * 7)
        theta, phi = sympy.symbols("theta phi")
        y1, y3 = sympy.sin(theta) * sympy.cos(phi), sympy.cos(theta)
        area_element = sympy.sin(theta)
        inner = sympy.integrate(y1**4 * y3**2 * area_element, (phi, 0, 2 * sympy.pi))
        mean = sympy.integrate(inner, (theta, 0, sympy.pi)) / (4 * sympy.pi)
        assert sympy.Rational(mean) == sympy.Rational(1, 35)
        assert sphere_moment((4, 0, 2), 3) == Fraction(1, 35)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_sphere_moments(self, n):
        spec = BallSpec(tuple(0.5 - 0.25 * i for i in range(n)), 1.5)
        y = (sample_sphere_many(spec, CounterRng(17), self.COUNT) - spec.center) / 1.5
        self._assert_law(y, sphere_moment)
        # on the unit sphere about 0 the points are the directions themselves
        y = sample_sphere_many(BallSpec((0.0,) * n, 1.0), CounterRng(17), self.COUNT)
        assert np.max(np.abs(np.sum(y * y, axis=1) - 1.0)) <= 8 * 2.0**-52

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ball_moments(self, n):
        spec = BallSpec(tuple(0.25 * i - 1.0 for i in range(n)), 0.75)
        x = (sample_ball_many(spec, CounterRng(23), self.COUNT) - spec.center) / 0.75
        self._assert_law(x, ball_moment)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ball_second_moment(self, n):
        h = 0.75
        spec = BallSpec(tuple(0.25 * i - 1.0 for i in range(n)), h)
        x = sample_ball_many(spec, CounterRng(23), self.COUNT) - spec.center
        for i in range(n):
            self._assert_mean(x[:, i], 0.0, ("E[x - c]", i))
        self._assert_mean(np.sum(x * x, axis=1), n * h * h / (n + 2), "E[|x - c|^2]")


class TestMcAverages:
    def test_constant_field_exact(self):
        est = mc_ball_average(expr.parse("5"), BallSpec((0.0, 0.0), 1.0), 10000, 1)
        assert est.estimate == 5.0
        assert est.stderr == 0.0

    def test_harmonic_ball_average_hits_center_value(self):
        est = mc_ball_average(
            expr.parse("x^2 - y^2"), BallSpec((1.0, 2.0), 0.5), 400000, 42
        )
        assert abs(est.estimate - (-3.0)) <= 4.0 * est.stderr

    def test_radial_ball_average(self):
        # polar oracle: mean of r^2 over the unit disk = 1/2
        est = mc_ball_average(
            expr.parse("x^2 + y^2"), BallSpec((0.0, 0.0), 1.0), 400000, 7
        )
        assert abs(est.estimate - 0.5) <= 4.0 * est.stderr

    def test_radial_on_own_sphere_machine_exact(self):
        est = mc_sphere_average(
            expr.parse("x^2 + y^2"), BallSpec((0.0, 0.0), 1.0), 10000, 3
        )
        assert abs(est.estimate - 1.0) <= 1e-14
        assert est.stderr <= 1e-15

    def test_harmonic_sphere_average(self):
        est = mc_sphere_average(
            expr.parse("x^2 - y^2"), BallSpec((1.0, 2.0), 0.5), 400000, 8
        )
        assert abs(est.estimate - (-3.0)) <= 4.0 * est.stderr

    def test_cos_squared_on_circle(self):
        est = mc_sphere_average(expr.parse("x^2"), BallSpec((0.0, 0.0), 1.0), 400000, 9)
        assert abs(est.estimate - 0.5) <= 4.0 * est.stderr

    def test_sequential_determinism(self):
        spec = BallSpec((1.0, 2.0), 0.5)
        a = mc_ball_average(expr.parse("x^2 - y^2"), spec, 50000, 4242)
        b = mc_ball_average(expr.parse("x^2 - y^2"), spec, 50000, 4242)
        assert a == b

    @pytest.mark.parametrize("dim", [3, 5])
    def test_many_blocks_equal_one_draw(self, dim):
        # 33 evaluation blocks, the last a partial one
        g = expr.parse("x^2 - y^2 + x*z")
        spec = BallSpec((1.0, 2.0, -0.5, 0.25, 0.75)[:dim], 0.5)
        samples = 2 * (1 << 19) + 777
        for average, on_sphere in ((mc_ball_average, False), (mc_sphere_average, True)):
            est = average(g, spec, samples, 11)
            expected = _reference_average(g, spec, samples, 11, on_sphere)
            assert (est.estimate, est.stderr) == expected

    @pytest.mark.parametrize("count", [1, 2, 777, 1000])
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_chunk_counter_offsets(self, count, dim):
        spec = BallSpec((0.0,) * dim, 1.0)
        for sampler, on_sphere in ((sample_ball_many, False), (sample_sphere_many, True)):
            if on_sphere and dim == 1:
                continue
            rng = CounterRng(5, counter=10)
            sampler(spec, rng, count)
            assert rng.counter - 10 == integrate._counters_used(count, dim, on_sphere)

    def test_domain_error_reports_point(self):
        with pytest.raises(McDomainError) as err:
            mc_ball_average(expr.parse("sqrt(x)"), BallSpec((0.0, 0.0), 1.0), 10000, 2)
        assert len(err.value.point) == 2
        assert err.value.point[0] < 0

    def test_first_late_offending_sample_reported(self):
        points = np.ones((20000, 2))
        points[[19990, 19995], 0] = [-1.0, -2.0]
        with pytest.raises(McDomainError) as err:
            integrate._eval_at_points(expr.parse("sqrt(x) + y"), points)
        assert err.value.point == (-1.0, 1.0)
        assert "sqrt of a negative argument" in str(err.value.cause)

    def test_non_finite_value_is_domain_error(self):
        with pytest.raises(McDomainError) as err:
            mc_ball_average(expr.parse("exp(700*x) - exp(700*x)"),
                            BallSpec((1.0, 1.0), 1.0), 10000, 2)
        assert err.value.point[0] > 1.0  # exp(700*x) overflows only above x ~ 1.014
        assert "non-finite value" in str(err.value)

    @pytest.mark.parametrize("source,center,radius", [
        ("1e200*x^2", (0.0, 0.0), 1.0),  # the squared deviations overflow
        ("1e308*x+1e308*y", (0.5, 0.5), 0.4),  # the sum behind the mean overflows
    ])
    def test_non_finite_moment_is_domain_error(self, source, center, radius):
        with pytest.raises(expr.DomainError, match="non-finite Monte Carlo moment"):
            mc_ball_average(expr.parse(source), BallSpec(center, radius), 10000, 1)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_ball_average(expr.parse("1"), BallSpec((0.0,), 1.0), 999, 0)

    def test_sphere_needs_two_dims(self):
        with pytest.raises(ValueError):
            mc_sphere_average(expr.parse("x"), BallSpec((0.0,), 1.0), 10000, 0)

    def test_dimension_checked_against_field(self):
        with pytest.raises(ValueError):
            mc_ball_average(expr.parse("x3"), BallSpec((0.0, 0.0), 1.0), 10000, 0)


def _reference_average(g, spec, samples, seed, on_sphere):
    """The streamed average rebuilt from one public sampler draw: the same
    blocks' moments, merged left to right."""
    sampler = sample_sphere_many if on_sphere else sample_ball_many
    points = sampler(spec, CounterRng(seed), samples)
    size = integrate._EVAL_POINTS
    moments = []
    for q in range(0, samples, size):
        values = expr.eval_many(g, dict(enumerate(points[q : q + size].T, start=1)))
        mean = float(np.mean(values))
        moments.append((len(values), mean, float(np.sum((values - mean) ** 2))))
    n, mean, m2 = functools.reduce(integrate._merge_moments, moments)
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


class TestStreamedChunks:
    """An average is one draw, sampled and evaluated in blocks of at most
    _EVAL_POINTS points; the result must be the bits of the same blocks'
    moments over one public sampler draw, merged left to right."""

    @pytest.mark.parametrize("samples", [
        1000, integrate._EVAL_POINTS - 1, integrate._EVAL_POINTS + 1, (1 << 19) + 777,
    ])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_bits_equal_whole_chunk_sampling(self, dim, samples):
        g = expr.parse(f"exp(x1/3) * cos(x{dim}) + x1^4 - 3*x{dim}^2")
        spec = BallSpec(tuple(0.1 * (i + 1) for i in range(dim)), 0.7)
        for average, on_sphere in ((mc_ball_average, False), (mc_sphere_average, True)):
            if on_sphere and dim == 1:
                continue
            est = average(g, spec, samples, 99)
            expected = _reference_average(g, spec, samples, 99, on_sphere)
            assert (est.estimate, est.stderr) == expected

    # (estimate, stderr) at the CLI default of 100,000 samples: 4 evaluation
    # blocks, whose size (_EVAL_POINTS, 32,768 points in every n) fixes the
    # merge order and so these bits
    MULTI_BLOCK_BITS = {
        (2, False): ("0x1.2d03137cec4c3p+0", "0x1.5332deeb95149p-11"),
        (2, True): ("0x1.2d89da176a5d1p+0", "0x1.057fc990edf57p-10"),
        (3, False): ("0x1.e488a8c024efdp-1", "0x1.1986fedcb9e05p-10"),
        (3, True): ("0x1.cbf243f90b654p-1", "0x1.81db61e747a26p-10"),
    }

    @pytest.mark.parametrize("dim,on_sphere", sorted(MULTI_BLOCK_BITS))
    def test_multi_block_bits_pinned(self, dim, on_sphere):
        g = expr.parse("exp(x/3)*cos(y) + x*y^2" if dim == 2 else "exp(x/3)*cos(y) + x*y*z^2")
        spec = BallSpec((0.5, -0.25, 1.0)[:dim], 0.75)
        average = mc_sphere_average if on_sphere else mc_ball_average
        est = average(g, spec, 100_000, 21)
        assert (est.estimate.hex(), est.stderr.hex()) == self.MULTI_BLOCK_BITS[(dim, on_sphere)]

    def test_first_bad_point_after_first_block(self):
        spec = BallSpec((0.0, 0.0), 1.0)
        samples = 1 << 19
        points = sample_ball_many(spec, CounterRng(6), samples)
        # no point of the first one and a half blocks has x > c
        c = float(np.max(points[: 3 * integrate._EVAL_POINTS // 2, 0]))
        first_bad = int(np.argmax(points[:, 0] > c))
        assert first_bad > integrate._EVAL_POINTS
        with pytest.raises(McDomainError) as err:
            mc_ball_average(expr.parse(f"sqrt({c!r} - x)"), spec, samples, 6)
        assert err.value.point == tuple(points[first_bad].tolist())

    def test_peak_memory_does_not_grow_with_samples(self):
        g = expr.parse("x^2 - y^2 + x*z")
        spec = BallSpec((1.0, 2.0, -0.5), 0.5)
        mc_ball_average(g, spec, 1 << 16, 5)  # warm up, untraced

        def peak(samples):
            tracemalloc.start()
            try:
                mc_ball_average(g, spec, samples, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1_000_000) - peak(1 << 16) <= 0.5 * 2**20
