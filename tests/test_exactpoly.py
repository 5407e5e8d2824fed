import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import mpmath
import pytest
import sympy

from mvlab import exactpoly, expr, mvroot
from mvlab.exactpoly import (
    BivariatePolynomial,
    classify,
    lambda_family,
    mvt_residual,
    poly_from_coeffs,
)


def sympy_residual(coeffs, lam):
    """Independent oracle: p(b) - p(a) - (b-a)*p'(lam*a + (1-lam)*b) as an
    unexpanded sympy expression in the symbols a and b."""
    a, b, x = sympy.symbols("a b x")
    lam_s = sympy.Rational(lam.numerator, lam.denominator)
    p = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs))
    dp = sympy.diff(p, x)
    return p.subs(x, b) - p.subs(x, a) - (b - a) * dp.subs(x, lam_s * a + (1 - lam_s) * b)


def sympy_residual_terms(coeffs, lam):
    """Independent oracle: expand `sympy_residual` with sympy and return
    {(i, j): Fraction} over a^i b^j."""
    a, b = sympy.symbols("a b")
    poly = sympy.Poly(sympy.expand(sympy_residual(coeffs, lam)), a, b)
    out = {}
    for (i, j), c in zip(poly.monoms(), poly.coeffs()):
        q = sympy.Rational(c)
        out[(i, j)] = Fraction(int(q.p), int(q.q))
    return {k: v for k, v in out.items() if v != 0}


def fraction_residual_terms(p, lam):
    """Independent oracle: expand the residual term by term in Fractions,
    adding each product of p(b) - p(a) and (b-a)*p'(lam*a + (1-lam)*b)."""
    terms = {}

    def add(key, value):
        terms[key] = terms.get(key, Fraction(0)) + value

    for k, c in enumerate(p.coeffs):
        if c != 0 and k > 0:  # p(b) - p(a); constant terms cancel
            add((0, k), c)
            add((k, 0), -c)
    for m, c in enumerate(p.coeffs[1:]):  # p' has d = (m+1)*c_(m+1) at x^m
        if c == 0:
            continue
        d = (m + 1) * c
        for i in range(m + 1):  # (lam*a + (1-lam)*b)^m, term a^i b^(m-i)
            t = comb(m, i) * lam**i * (1 - lam) ** (m - i)
            add((i, m - i + 1), -d * t)  # times -b
            add((i + 1, m - i), d * t)  # times +a
    return {k: v for k, v in terms.items() if v != 0}


def _rand_fraction(rng, span=9):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


class TestPolyFromCoeffs:
    def test_direct_construction(self):
        p = poly_from_coeffs([1, 2, 3])
        assert p.coeffs == (Fraction(1), Fraction(2), Fraction(3))
        assert p.degree == 2

    def test_zero_polynomial_canonicalized(self):
        p = poly_from_coeffs([0, 0])
        assert p.coeffs == ()
        assert p.degree is None

    def test_rational_coefficients(self):
        p = poly_from_coeffs(["1/2", "-1/3"])
        assert p.coeffs == (Fraction(1, 2), Fraction(-1, 3))

    def test_trailing_zeros_stripped(self):
        assert poly_from_coeffs([1, 0, 2, 0, 0]).degree == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            poly_from_coeffs([])

    def test_float_is_not_exact(self):
        with pytest.raises(TypeError, match="not an exact rational: 0.5"):
            exactpoly._as_fraction(0.5)
        with pytest.raises(TypeError, match="not an exact rational: 0.5"):
            poly_from_coeffs([1, 0.5])


class TestMvtResidual:
    def test_random_quadratics_vanish_at_half(self):
        rng = random.Random(101)
        for _ in range(100):
            p = poly_from_coeffs([_rand_fraction(rng) for _ in range(3)])
            assert mvt_residual(p, Fraction(1, 2)).is_zero

    def test_cubic_at_half_matches_sympy(self):
        res = mvt_residual(poly_from_coeffs([0, 0, 0, 1]), Fraction(1, 2))
        assert not res.is_zero
        assert dict(res.terms) == sympy_residual_terms(
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)], Fraction(1, 2)
        )
        # and the closed form: (1/4)(b-a)^3
        assert res.as_power_of_difference() == (Fraction(1, 4), 3)

    def test_square_at_third_matches_sympy(self):
        res = mvt_residual(poly_from_coeffs([0, 0, 1]), Fraction(1, 3))
        assert dict(res.terms) == sympy_residual_terms(
            [Fraction(0), Fraction(0), Fraction(1)], Fraction(1, 3)
        )
        assert res.as_power_of_difference() == (Fraction(-1, 3), 2)

    def test_random_cases_match_sympy(self):
        rng = random.Random(55)
        for _ in range(10):
            coeffs = [_rand_fraction(rng) for _ in range(rng.randint(1, 6))]
            lam = Fraction(rng.randint(1, 9), 10)
            p = poly_from_coeffs(coeffs)
            got = dict(mvt_residual(p, lam).terms)
            want = sympy_residual_terms(list(p.coeffs) or [Fraction(0)], lam)
            assert got == want

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), Fraction(999, 1000),
                                     Fraction(2**61 - 1, 2**62)])
    def test_matches_fraction_expansion(self, lam):
        # dense, sparse and monomial polynomials up to the degree cap, and zero
        rng = random.Random(2024)
        degrees = [0, 1, 2, 3, exactpoly.MAX_DEGREE] + [rng.randint(4, 63) for _ in range(4)]
        polys = [poly_from_coeffs([0])]
        for degree in degrees:
            for density in (1.0, 0.2, 0.0):
                coeffs = [_rand_fraction(rng, span=99) if rng.random() < density else 0
                          for _ in range(degree)]
                polys.append(poly_from_coeffs(coeffs + [_rand_fraction(rng, span=99) or 1]))
        for p in polys:
            assert mvt_residual(p, lam).terms == fraction_residual_terms(p, lam), p

    def test_lambda_validated(self):
        with pytest.raises(ValueError):
            mvt_residual(poly_from_coeffs([1]), Fraction(1))
        with pytest.raises(ValueError):
            mvt_residual(poly_from_coeffs([1]), Fraction(0))

    def test_degree_cap(self):
        big = poly_from_coeffs([0] * 65 + [1])
        with pytest.raises(ValueError, match="cap"):
            mvt_residual(big, Fraction(1, 2))

    def test_numeric_symbolic_agreement(self):
        # the expanded residual's rows, evaluated at rational points, equal
        # sympy's unexpanded residual evaluated there, exactly
        rng = random.Random(77)
        coeffs = [_rand_fraction(rng) for _ in range(5)]
        lam = Fraction(3, 10)
        res = mvt_residual(poly_from_coeffs(coeffs), lam)
        direct = sympy_residual(coeffs, lam)
        a_s, b_s = sympy.symbols("a b")
        for _ in range(20):
            a, b = _rand_fraction(rng), _rand_fraction(rng)
            got = sum((Fraction(n, d) * a**i * b**j for i, j, n, d in res.rows), Fraction(0))
            want = sympy.Rational(direct.subs({a_s: a, b_s: b}))
            assert got == Fraction(int(want.p), int(want.q)), (a, b)


def _theorem_predicate(degree, lam):
    # the exact characterization: quadratics iff lam = 1/2, else affine only
    if degree is None or degree <= 1:
        return True
    return degree == 2 and lam == Fraction(1, 2)


class TestClassify:
    def test_quadratic_at_half_satisfies(self):
        assert classify(poly_from_coeffs([1, 2, 3]), Fraction(1, 2)).satisfies

    def test_affine_at_any_lambda(self):
        assert classify(poly_from_coeffs([5, -7]), Fraction(3, 10)).satisfies

    def test_square_at_three_tenths_violates(self):
        verdict = classify(poly_from_coeffs([0, 0, 1]), Fraction(3, 10))
        assert not verdict.satisfies
        assert verdict.residual.as_power_of_difference() == (
            Fraction(-2, 5),
            2,
        )

    def test_exhaustive_monomial_dichotomy(self):
        for d in range(9):
            p = poly_from_coeffs([0] * d + [1])
            for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(9, 10)):
                assert classify(p, lam).satisfies == _theorem_predicate(d, lam), (d, lam)

    def test_affine_closure(self):
        rng = random.Random(33)
        lam = Fraction(1, 2)
        for _ in range(20):
            p = [_rand_fraction(rng) for _ in range(3)]
            q = [_rand_fraction(rng) for _ in range(3)]
            assert classify(poly_from_coeffs(p), lam).satisfies
            assert classify(poly_from_coeffs(q), lam).satisfies
            assert classify(poly_from_coeffs([x + y for x, y in zip(p, q)]), lam).satisfies
            factor = _rand_fraction(rng)
            assert classify(poly_from_coeffs([c * factor for c in p]), lam).satisfies


class TestLambdaFamily:
    @pytest.mark.parametrize("k", [2.5, 2.0])
    def test_non_integer_k(self, k):
        # used to raise "unsupported operand type(s) for <<" from the root
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            lambda_family(k)

    @pytest.mark.parametrize("k", [0, 21])
    def test_k_range(self, k):
        with pytest.raises(ValueError, match=f"k must be in 1..20, got {k}"):
            lambda_family(k)

    def test_residuals_below_threshold(self):
        for k in range(1, 21):
            assert lambda_family(k).residual_check <= 1e-12, k

    def test_weights_are_the_correctly_rounded_60_digit_values(self):
        for k in range(1, 21):
            fam = lambda_family(k)
            with mpmath.workdps(60):
                ratio = mpmath.power(k + 1, -1 / mpmath.mpf(k))
                want = (float(ratio), float(1 - ratio), float(ratio))
            assert (fam.ratio, fam.lambda_left_weight, fam.lambda_abscissa_fraction) == want, k
            assert fam.residual_check == 0.0

    def test_integer_root_brackets_the_ratio(self):
        # y = floor(2^160 (k+1)^(-1/k)): (k+1) y^k <= 2^(160k) < (k+1) (y+1)^k
        for k in range(1, 21):
            n = (1 << (160 * k)) // (k + 1)
            y = exactpoly._iroot(n, k)
            assert (k + 1) * y**k <= 1 << (160 * k) < (k + 1) * (y + 1) ** k, k
            assert y**k <= n < (y + 1) ** k

    def test_lambda_family_needs_no_mpmath(self):
        # mpmath is a test dependency only: the package never imports it
        src = str(pathlib.Path(exactpoly.__file__).parents[1])
        code = "import sys, mvlab; mvlab.lambda_family(7); sys.exit('mpmath' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0

    def test_k1_is_exact_half(self):
        fam = lambda_family(1)
        assert fam.ratio == 0.5
        assert fam.lambda_left_weight == 0.5
        assert fam.lambda_abscissa_fraction == 0.5

    def test_known_ratios(self):
        assert lambda_family(2).ratio == pytest.approx(0.57735027, abs=1e-8)
        assert lambda_family(3).ratio == pytest.approx(0.62996052, abs=1e-8)

    def test_ratio_against_root_finder(self):
        # independent route: bisection for f'(c) = (f(1) - f(0))/1 on [0, 1]
        for k in (2, 3, 5, 8):
            f = expr.parse(f"x^{k + 1}")
            res = mvroot.find_abscissas(f, mvroot.Interval(0.0, 1.0))
            positive = [c for c in res.abscissas if c > 0]
            assert len(positive) == 1
            assert lambda_family(k).ratio == pytest.approx(positive[0], abs=1e-10)

    def test_conventions_disagree_beyond_k1(self):
        fam = lambda_family(2)
        assert fam.lambda_abscissa_fraction != pytest.approx(
            fam.lambda_left_weight, abs=1e-3
        )
        assert fam.lambda_left_weight == pytest.approx(1 - fam.ratio, abs=2e-16)

    def test_linear_additions_preserve_fixed_endpoint_property(self):
        # oracle check in 50-digit arithmetic: for f = x^(k+1) + beta*x + gamma
        # the same ratio still solves the [0, b] abscissa condition
        rng = random.Random(9)
        with mpmath.workdps(50):
            for k in (1, 2, 5, 11, 20):
                ratio = mpmath.power(k + 1, -mpmath.mpf(1) / k)
                beta = mpmath.mpf(rng.randint(-9, 9)) / rng.randint(1, 9)
                gamma = mpmath.mpf(rng.randint(-9, 9)) / rng.randint(1, 9)
                for b in (mpmath.mpf(1) / 2, mpmath.mpf(1), mpmath.mpf(2), mpmath.mpf(5)):
                    secant = (b ** (k + 1) + beta * b + gamma - gamma) / b
                    slope = (k + 1) * (ratio * b) ** k + beta
                    assert abs(secant - slope) <= 1e-12

    def test_k_range_validated(self):
        with pytest.raises(ValueError):
            lambda_family(0)
        with pytest.raises(ValueError):
            lambda_family(21)


class TestBivariatePolynomial:
    def test_power_of_difference_detection(self):
        terms = {(0, 2): Fraction(1), (1, 1): Fraction(-2), (2, 0): Fraction(1)}
        assert BivariatePolynomial.from_terms(terms).as_power_of_difference() == (
            Fraction(1),
            2,
        )

    def test_not_a_pure_power(self):
        terms = {(0, 2): Fraction(1), (1, 0): Fraction(1)}
        assert BivariatePolynomial.from_terms(terms).as_power_of_difference() is None

    def test_str_forms(self):
        assert str(BivariatePolynomial.from_terms({})) == "0"
        # x^4 at lambda = 1/2: no power of (b-a), so the general form
        assert str(mvt_residual(poly_from_coeffs([0, 0, 0, 0, 1]), Fraction(1, 2))) == (
            "1/2*b^4 - 1*a*b^3 + 1*a^3*b - 1/2*a^4"
        )
        assert "(b-a)" in str(
            BivariatePolynomial.from_terms(
                {(0, 1): Fraction(1, 4), (1, 0): Fraction(-1, 4)}
            )
        )

    @pytest.mark.parametrize("coeffs,lam", [
        ([1, -2, 3, 0, Fraction(5, 7), Fraction(-1, 3)], Fraction(2, 7)),
        ([0, 0, 0, 0, 1], Fraction(1, 2)),
        ([Fraction(-3, 4), 0, 0, Fraction(9, 2)], Fraction(3, 10)),
        ([0] * 40 + [Fraction(7, 5)], Fraction(2**61 - 1, 2**62)),
    ])
    def test_insertion_order_is_immaterial(self, coeffs, lam):
        res = mvt_residual(poly_from_coeffs(coeffs), lam)
        items = list(res.terms.items())
        for seed in range(3):
            random.Random(seed).shuffle(items)
            shuffled = BivariatePolynomial.from_terms(dict(items))
            assert str(shuffled) == str(res)
            assert shuffled == res and res == shuffled
            assert shuffled.as_power_of_difference() == res.as_power_of_difference()

    def test_terms_round_trip(self):
        raw = {(2, 0): Fraction(-6, 4), (0, 2): Fraction(3, 2), (1, 0): Fraction(0),
               (0, 1): Fraction(5), (1, 1): Fraction(-7, 3)}
        poly = BivariatePolynomial.from_terms(raw)
        assert poly.terms == {k: v for k, v in raw.items() if v != 0}
        assert all(type(v) is Fraction for v in poly.terms.values())
        assert BivariatePolynomial.from_terms(poly.terms) == poly
        res = mvt_residual(poly_from_coeffs([1, -2, 3, 0, Fraction(5, 7)]), Fraction(2, 7))
        assert BivariatePolynomial.from_terms(res.terms).terms == res.terms

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_power_of_difference_near_misses(self, d):
        gamma = Fraction(-5, 3)
        exact = {(i, d - i): gamma * comb(d, i) * (-1) ** i for i in range(d + 1)}
        assert BivariatePolynomial.from_terms(exact).as_power_of_difference() == (gamma, d)
        for i in range(d + 1):
            flipped = dict(exact)
            flipped[(i, d - i)] = -flipped[(i, d - i)]
            assert BivariatePolynomial.from_terms(flipped).as_power_of_difference() is None
        missing = {k: v for k, v in exact.items() if k != (0, d)}
        assert BivariatePolynomial.from_terms(missing).as_power_of_difference() is None
        for extra in ((0, 0), (0, d - 1), (d - 1, 0)):
            plus = exact | {extra: Fraction(1, 9)}
            assert BivariatePolynomial.from_terms(plus).as_power_of_difference() is None
