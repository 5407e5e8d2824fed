import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from mvlab import expr, integrate
from mvlab.integrate import (
    BallSpec,
    CounterRng,
    McDomainError,
    ball_volume,
    integrate_1d,
    mc_ball_average,
    mc_sphere_average,
    mix64,
    sample_ball_many,
    sample_sphere_many,
    sphere_area,
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
        assert CounterRng(7).split(3).seed == mix64(7 + 4 * integrate.GOLDEN)

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

    def test_callable_integrand(self):
        got = integrate_1d(lambda xs: np.exp(xs), 0.0, 1.0)
        assert got == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_domain_error_propagates(self):
        with pytest.raises(expr.DomainError):
            integrate_1d(expr.parse("log(x)"), -1.0, 1.0)

    def test_orientation_validated(self):
        with pytest.raises(ValueError):
            integrate_1d(expr.parse("x"), 1.0, 0.0)


class TestBallGeometry:
    def test_disk_area(self):
        assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-15)

    def test_sphere_volume(self):
        assert ball_volume(3, 2.0) == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-15)

    def test_four_dimensional(self):
        assert ball_volume(4, 1.0) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)

    def test_circumference(self):
        assert sphere_area(2, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_sphere_surface(self):
        assert sphere_area(3, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_area(3, 2.0) == pytest.approx(16.0 * math.pi, rel=1e-15)

    def test_against_gamma_closed_form(self):
        for n in range(1, 11):
            for h in (0.5, 1.0, 2.5):
                closed = math.pi ** (n / 2.0) * h**n / math.gamma(n / 2.0 + 1.0)
                assert ball_volume(n, h) == pytest.approx(closed, rel=1e-13)

    def test_area_is_volume_derivative(self):
        # complex-step derivative of the volume recursion: exact to roundoff
        step = 1e-20
        for n in range(2, 11):
            for h in (0.5, 1.0, 2.0):
                dv = integrate._volume_recursion(n, complex(h, step)).imag / step
                assert abs(sphere_area(n, h) - dv) <= 1e-12 * sphere_area(n, h)

    def test_dimension_range(self):
        with pytest.raises(ValueError):
            ball_volume(0, 1.0)
        with pytest.raises(ValueError):
            ball_volume(11, 1.0)
        with pytest.raises(ValueError):
            sphere_area(1, 1.0)

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

    def test_thread_count_never_changes_bits(self):
        # three chunks, the last with an odd number of Box-Muller draws
        g = expr.parse("x^2 - y^2 + x*z")
        spec = BallSpec((1.0, 2.0, -0.5), 0.5)
        samples = 2 * integrate._CHUNK + 777
        for average in (mc_ball_average, mc_sphere_average):
            runs = [average(g, spec, samples, 11, threads=t) for t in (1, 2, 4)]
            assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("count", [1, 2, 777, 1000])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_chunk_counter_offsets(self, count, dim):
        spec = BallSpec((0.0,) * dim, 1.0)
        for sampler, on_sphere in ((sample_ball_many, False), (sample_sphere_many, True)):
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

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one(self, threads):
        # min(threads, chunks) <= 1 used to run the chunks inline
        spec = BallSpec((0.0, 0.0), 1.0)
        for average in (mc_ball_average, mc_sphere_average):
            with pytest.raises(ValueError, match="need threads >= 1"):
                average(expr.parse("x"), spec, 10000, 0, threads=threads)


def _reference_average(g, spec, samples, seed, on_sphere):
    """The streamed average rebuilt from whole public sampler chunks."""
    sampler = sample_sphere_many if on_sphere else sample_ball_many
    rng, moments = CounterRng(seed), []
    for first in range(0, samples, integrate._CHUNK):
        points = sampler(spec, rng, min(integrate._CHUNK, samples - first))
        values = expr.eval_many(g, dict(enumerate(points.T, start=1)))
        mean = float(np.mean(values))
        moments.append((len(values), mean, float(np.sum((values - mean) ** 2))))
    n, mean, m2 = functools.reduce(integrate._merge_moments, moments)
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


class TestStreamedChunks:
    """Each chunk is sampled and evaluated in blocks of _EVAL_POINTS points;
    the result must be the bits of sampling the whole chunk at once."""

    @pytest.mark.parametrize("samples", [
        1000, integrate._EVAL_POINTS - 1, integrate._EVAL_POINTS + 1,
        integrate._CHUNK + 777,
    ])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_bits_equal_whole_chunk_sampling(self, dim, samples):
        g = expr.parse(f"exp(x1/3) * cos(x{dim}) + x1^4 - 3*x{dim}^2")
        spec = BallSpec(tuple(0.1 * (i + 1) for i in range(dim)), 0.7)
        for average, on_sphere in ((mc_ball_average, False), (mc_sphere_average, True)):
            if on_sphere and dim == 1:
                continue
            expected = _reference_average(g, spec, samples, 99, on_sphere)
            for threads in (1, 2):
                est = average(g, spec, samples, 99, threads=threads)
                assert (est.estimate, est.stderr) == expected

    def test_first_bad_point_after_first_block(self):
        spec = BallSpec((0.0, 0.0), 1.0)
        points = sample_ball_many(spec, CounterRng(6), integrate._CHUNK)
        # no point of the first one and a half blocks has x > c
        c = float(np.max(points[: 3 * integrate._EVAL_POINTS // 2, 0]))
        first_bad = int(np.argmax(points[:, 0] > c))
        assert first_bad > integrate._EVAL_POINTS
        with pytest.raises(McDomainError) as err:
            mc_ball_average(expr.parse(f"sqrt({c!r} - x)"), spec, integrate._CHUNK, 6)
        assert err.value.point == tuple(points[first_bad].tolist())
