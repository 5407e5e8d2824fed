"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Run as `pytest tests/test_acceptance.py -v -s`.

Derived expectations are computed from independent oracles: binomial
expansion over exact rationals for the symbolic residuals, closed forms
for abscissas and ball averages, and statistical 4-standard-error bounds
for Monte Carlo estimates.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from mvlab import cli, exactpoly, expr, integrate, mvp, mvroot
from mvlab.exactpoly import BivariatePolynomial, classify, lambda_family, mvt_residual
from mvlab.integrate import BallSpec, CounterRng, mc_ball_average, mc_sphere_average
from mvlab.mvp import WeightSpec, builtin_fields
from mvlab.mvroot import Interval


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _rand_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _difference_power(gamma: Fraction, d: int) -> BivariatePolynomial:
    """Oracle: gamma * (b - a)^d expanded by the binomial theorem."""
    terms = {
        (i, d - i): gamma * math.comb(d, i) * (-1) ** i for i in range(d + 1)
    }
    return BivariatePolynomial.from_terms(terms)


def test_criterion_1_symbolic_midpoint_dichotomy():
    t0 = time.time()
    rng = random.Random(1001)
    half = Fraction(1, 2)
    ok = True
    for _ in range(100):
        quad = exactpoly.poly_from_coeffs([_rand_fraction(rng) for _ in range(3)])
        ok = ok and mvt_residual(quad, half).is_identically_zero
    for _ in range(100):
        coeffs = [_rand_fraction(rng) for _ in range(3)]
        cubic_coeff = _rand_fraction(rng)
        while cubic_coeff == 0:
            cubic_coeff = _rand_fraction(rng)
        cubic = exactpoly.poly_from_coeffs(coeffs + [cubic_coeff])
        res = mvt_residual(cubic, half)
        ok = ok and not res.is_identically_zero
        ok = ok and res.residual == _difference_power(cubic_coeff / 4, 3)
    elapsed = time.time() - t0
    _report(
        1,
        ok and elapsed < 1.0,
        f"100 quadratics vanish, 100 cubics equal c3*(b-a)^3/4 ({elapsed:.2f}s)",
    )


def test_criterion_2_weighted_linear_only():
    t0 = time.time()
    rng = random.Random(2002)
    ok = True
    for lam in (Fraction(1, 3), Fraction(2, 5), Fraction(9, 10)):
        for _ in range(100):
            affine = exactpoly.poly_from_coeffs(
                [_rand_fraction(rng), _rand_fraction(rng)]
            )
            ok = ok and classify(affine, lam).satisfies
        for _ in range(100):
            c2 = _rand_fraction(rng)
            while c2 == 0:
                c2 = _rand_fraction(rng)
            quad = exactpoly.poly_from_coeffs(
                [_rand_fraction(rng), _rand_fraction(rng), c2]
            )
            ok = ok and not classify(quad, lam).satisfies
    elapsed = time.time() - t0
    _report(
        2,
        ok and elapsed < 1.0,
        f"degree <= 1 satisfies, quadratic terms violate at 3 weights ({elapsed:.2f}s)",
    )


def test_criterion_3_monomial_lambda_family():
    t0 = time.time()
    ok = True
    for k in range(1, 21):
        ok = ok and lambda_family(k).residual_check <= 1e-12
    ok = ok and lambda_family(1).ratio == 0.5
    ok = ok and abs(lambda_family(2).ratio - 0.57735027) <= 1e-8
    ok = ok and abs(lambda_family(3).ratio - 0.62996052) <= 1e-8
    elapsed = time.time() - t0
    _report(
        3,
        ok and elapsed < 1.0,
        f"k=1..20 residuals <= 1e-12, ratios match root-finder oracle ({elapsed:.2f}s)",
    )


def test_criterion_4_abscissa_convergence():
    t0 = time.time()
    sweep_exp = mvroot.sweep_lambda(expr.parse("exp(x)"), 0.0, 1e-3, 1e-1, 20)
    order_ok = (
        sweep_exp.fitted_order is not None
        and abs(sweep_exp.fitted_order - 2.0) <= 0.1
    )
    sweep_sq = mvroot.sweep_lambda(expr.parse("x^2"), 0.0, 1e-3, 1e-1, 20)
    rows_ok = all(
        row.status == "ok" and abs(row.lam - 0.5) <= 1e-12 for row in sweep_sq.rows
    )
    elapsed = time.time() - t0
    _report(
        4,
        order_ok and rows_ok and elapsed < 1.0,
        f"exp fit order {sweep_exp.fitted_order:.3f} (want 2.0 +- 0.1), "
        f"x^2 rows exact ({elapsed:.2f}s)",
    )


def test_criterion_5_harmonic_ball_mean_value():
    t0 = time.time()
    failures = []
    for n in (2, 3):
        for k in (1, 2, 3, 4):
            g = builtin_fields(f"harmonic2d_{k}", n)
            field_seed = 50_000 + 100 * n + k
            rng = CounterRng(field_seed)
            hits = 0
            for trial in range(20):
                coords = rng.uniforms(n)
                center = tuple(-2.0 + 4.0 * float(u) for u in coords)
                h = 0.2 + 0.8 * float(rng.uniforms(1)[0])
                est = mc_ball_average(
                    g,
                    BallSpec(center, h, n),
                    1_000_000,
                    integrate.mix64(field_seed + trial),
                )
                value = expr.evaluate(g, {i + 1: center[i] for i in range(n)})
                if abs(est.estimate - value) <= 4.0 * est.stderr:
                    hits += 1
            if hits < 19:
                failures.append((n, k, hits))
    elapsed = time.time() - t0
    _report(
        5,
        not failures,
        f"harmonic2d_k (k<=4) in n=2,3: >=19/20 trials within 4*stderr at 1e6 "
        f"samples each (failures={failures}, {elapsed:.1f}s)",
    )


def test_criterion_6_weighted_ndim_property():
    t0 = time.time()
    ok = True
    family = [
        (builtin_fields("coordinate_1", 2), 2, (0.0, 1.0)),
        (builtin_fields("vconst_harmonic", 3), 3, (0.0, 0.0, 1.0)),
    ]
    for g, n, v in family:
        for lam in (0.3, 0.7):
            w = WeightSpec(lam, v)
            ok = ok and mvp.check_ball_mvp(
                g, w, 5, (-2.0, 2.0), 100_000, 600 + n, n
            ).holds
            ok = ok and mvp.check_sphere_mvp(
                g, w, 5, (-2.0, 2.0), 100_000, 700 + n, n
            ).holds

    # quantitative necessity: harmonic2d_2 offset along v=(1,0) at lam=0.3
    # around center (1,2) with h=0.5: g(1.2, 2) = -2.56 vs ball average -3
    g = builtin_fields("harmonic2d_2", 2)
    est = mc_ball_average(g, BallSpec((1.0, 2.0), 0.5), 1_000_000, 606)
    measured = abs(expr.evaluate(g, {1: 1.2, 2: 2.0}) - est.estimate)
    gap_ok = abs(measured - 0.44) <= max(0.01, 4.0 * est.stderr)
    elapsed = time.time() - t0
    _report(
        6,
        ok and gap_ok,
        f"family passes ball+sphere at lambda=0.3/0.7; offset residual "
        f"{measured:.4f} (want 0.44 +- 0.01) ({elapsed:.1f}s)",
    )


def test_criterion_7_nonharmonic_quantitative_gap():
    t0 = time.time()
    g = expr.parse("x^2 + y^2")
    spec = BallSpec((0.0, 0.0), 1.0)
    ball = mc_ball_average(g, spec, 1_000_000, 707)
    ball_ok = abs(ball.estimate - 0.5) <= 4.0 * ball.stderr
    sphere = mc_sphere_average(g, spec, 1_000_000, 707)
    sphere_ok = abs(sphere.estimate - 1.0) <= 1e-14 and sphere.stderr <= 1e-15
    w = WeightSpec(0.5)
    ball_violated = not mvp.check_ball_mvp(
        g, w, 3, (-1.0, 1.0), 50_000, 17, 2
    ).holds
    sphere_violated = not mvp.check_sphere_mvp(
        g, w, 3, (-1.0, 1.0), 50_000, 17, 2
    ).holds
    elapsed = time.time() - t0
    _report(
        7,
        ball_ok and sphere_ok and ball_violated and sphere_violated and elapsed < 10.0,
        f"ball avg {ball.estimate:.5f} (want 0.5), sphere avg exact to machine "
        f"precision, both checkers violate at lambda=1/2 ({elapsed:.1f}s)",
    )


_EQUIVALENCE_CORPUS = [
    "x^2",
    "x^3 - 2*x",
    "x^4 - 3*x^2 + 1",
    "2*x + 5",
    "exp(x)",
    "sin(x)",
    "cos(2*x)",
    "tanh(x)",
    "log(x + 5)",
    "sqrt(x + 5)",
    "1/(x + 5)",
    "x*cos(x)",
]


def test_criterion_8_ftc_equivalence():
    t0 = time.time()
    assert len(_EQUIVALENCE_CORPUS) == 12
    domain = Interval(-2.0, 2.0)
    ok = True
    worst_gap = 0.0
    for source in _EQUIVALENCE_CORPUS:
        f = expr.parse(source)
        for lam in (0.25, 0.5):
            vw = mvp.check_weighted_property(f, lam, 40, domain, seed=808)
            vi = mvp.check_interval_mvp(f, lam, 40, domain, seed=808)
            ok = ok and (vw.holds == vi.holds)
            gap = abs(vw.worst_residual - vi.worst_residual)
            worst_gap = max(worst_gap, gap)
            ok = ok and gap <= 1e-6
    elapsed = time.time() - t0
    _report(
        8,
        ok and elapsed < 5.0,
        f"12 functions x 2 weights: identical verdicts, worst residual gap "
        f"{worst_gap:.2e} <= 1e-6 ({elapsed:.1f}s)",
    )


_CLI_COMMANDS = [
    ["poly-verify", "--coeffs", "1,2,3", "--lambda", "1/2"],
    ["poly-verify", "--coeffs", "0,0,0,1", "--lambda", "1/2"],
    ["lambda-family", "--k", "2"],
    ["abscissa", "--fn", "exp(x)", "--a", "0", "--b", "1"],
    ["sweep", "--fn", "exp(x)", "--x0", "0", "--hmin", "0.001", "--hmax", "0.1",
     "--steps", "10"],
    ["check-weighted", "--fn", "1+3*x-2*x^2", "--lambda", "0.5", "--a", "-2",
     "--b", "2", "--trials", "50", "--seed", "7"],
    ["check-interval", "--fn", "exp(x)", "--lambda", "1/4", "--a", "-2",
     "--b", "2", "--trials", "30", "--seed", "7"],
    ["ball-check", "--fn", "x", "--dim", "2", "--lambda", "0.3", "--v", "0,1",
     "--trials", "3", "--samples", "10000", "--seed", "11"],
    ["sphere-check", "--fn", "x^2-y^2", "--dim", "2", "--lambda", "0.5",
     "--trials", "3", "--samples", "10000", "--seed", "11"],
    ["laplacian", "--fn", "x^3 - 3*x*y^2", "--dim", "2", "--points", "40",
     "--seed", "5"],
    ["vderiv", "--fn", "x+y", "--dim", "2", "--v", "0,1", "--points", "20",
     "--seed", "5"],
    ["builtins", "--name", "vconst_harmonic", "--dim", "3"],
    ["parse", "--fn", "x^2 + 3*x"],
]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def test_criterion_9_cli_determinism():
    t0 = time.time()
    ok = True
    for argv in _CLI_COMMANDS:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        same = code1 == code2 and out1 == out2
        ok = ok and same and out1 != ""
        if argv[0] != "sweep":
            # every JSON command emits valid JSON: no NaN or Infinity
            json.loads(out1, parse_constant=_reject_constant)
    elapsed = time.time() - t0
    _report(
        9,
        ok,
        f"{len(_CLI_COMMANDS)} CLI commands re-run byte-identical ({elapsed:.1f}s)",
    )
