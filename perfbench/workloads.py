"""Seeded op lists for the benchmark workloads, each op with its oracle.

An op is one public mvlab call.  Every input (centres, radii, intervals,
coefficients, argv) is drawn from `random.Random(seed)`.  The oracles are
closed forms and exact rational arithmetic computed here, never by mvlab.

Only values are drawn from the seed.  The kind, field, dimension and
degree of every op slot are fixed, so an op list costs the same on every
seed and the timings of different seeds can be compared.

Library functions are looked up on their module at call time, so the
traced run sees the timing wrappers it installs on those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from mvlab import cli, expr, integrate, mvp


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # None when the output meets its oracle
    samples: int = 0  # random points the op draws and evaluates the field at


# A harmonic field's ball/sphere average equals its centre value; the
# estimate must land within this many standard errors (plus roundoff).
SIGMAS = 6.0
ROUNDOFF = 1e-8

MC_LARGE_SAMPLES = 1_000_000
CHECK_SAMPLES = 10_000  # the checkers' minimum
CHECK_TRIALS = 10


def _harmonic2d(k: int, point) -> float:
    """Re((x1 + i*x2)^k), the closed form of mvlab's harmonic2d_k."""
    return ((point[0] + 1j * point[1]) ** k).real


def _within_stderr(gap: float, stderr: float, scale: float) -> bool:
    return gap <= SIGMAS * stderr + ROUNDOFF * (1.0 + abs(scale))


# ---------------------------------------------------------------------------
# mc_large: single Monte Carlo averages at 1e6 samples


def _average_op(k: int, n: int, on_sphere: bool, rng: random.Random) -> Op:
    g = mvp.builtin_fields(f"harmonic2d_{k}", n)
    centre = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    spec = integrate.BallSpec(centre, rng.uniform(0.2, 1.0), n)
    seed = rng.getrandbits(64)
    exact = _harmonic2d(k, centre)
    name = "mc_sphere_average" if on_sphere else "mc_ball_average"

    def call():
        return getattr(integrate, name)(g, spec, MC_LARGE_SAMPLES, seed)

    def check(est) -> str | None:
        if est.samples != MC_LARGE_SAMPLES or est.seed != seed:
            return "estimate does not echo its samples and seed"
        gap = abs(est.estimate - exact)
        if not _within_stderr(gap, est.stderr, exact):
            return f"|estimate - centre value| = {gap:.3g}, stderr {est.stderr:.3g}"
        return None

    return Op(f"{name} harmonic2d_{k} n={n}", call, check, MC_LARGE_SAMPLES)


def mc_large(rng: random.Random) -> list[Op]:
    return [
        _average_op(k, n, on_sphere, rng)
        for n in (2, 3)
        for k in (1, 2, 3, 4)
        for on_sphere in (False, True)
    ]


# ---------------------------------------------------------------------------
# mc_checks: full ball/sphere property checks at the minimum sample count


def _off_half(rng: random.Random) -> float:
    """A weight with |1 - 2*lambda| >= 0.4, so a violation is far above 4 stderr."""
    lam = rng.uniform(0.1, 0.3)
    return lam if rng.random() < 0.5 else 1.0 - lam


def _unit_in_tail(n: int, rng: random.Random) -> tuple[float, ...]:
    """A random unit vector in span(e3..en)."""
    tail = [rng.gauss(0.0, 1.0) for _ in range(n - 2)]
    norm = math.sqrt(sum(t * t for t in tail))
    return (0.0, 0.0) + tuple(t / norm for t in tail)


def _axis(n: int, i: int) -> tuple[float, ...]:
    return tuple(1.0 if j == i else 0.0 for j in range(n))


def _check_cases(n: int, rng: random.Random):
    """(field, lambda, v, radius range, expected to hold) for dimension n."""
    wide = (0.2, 1.0)
    large = (0.5, 1.0)  # radial_sq's defect grows like h^2, its stderr like h
    exp_cos = "exp(x)*cos(y)"  # harmonic in (x1, x2), constant in the rest
    cases = [
        (f"harmonic2d_{n + 1}", 0.5, None, wide, True),
        (exp_cos, 0.5, None, wide, True),
        ("radial_sq", 0.5, None, large, False),
        ("harmonic2d_1", _off_half(rng), _axis(n, 0), wide, False),
    ]
    if n == 2:
        cases += [
            ("coordinate_1", _off_half(rng), _axis(n, 1), wide, True),
            ("radial_sq", _off_half(rng), _axis(n, 0), large, False),
        ]
    else:
        cases += [
            ("vconst_harmonic", _off_half(rng), _unit_in_tail(n, rng), wide, True),
            (exp_cos, _off_half(rng), _unit_in_tail(n, rng), wide, True),
        ]
    return cases


def _field(name: str, n: int):
    if "(" in name:
        return expr.parse(name)
    return mvp.builtin_fields(name, n)


def _property_op(case, n: int, on_sphere: bool, rng: random.Random) -> Op:
    name, lam, v, radii, expect_hold = case
    g = _field(name, n)
    weight = mvp.WeightSpec(lam, v)
    lo = rng.uniform(-3.0, -1.0)
    box = (lo, lo + 4.0)
    seed = rng.getrandbits(64)
    checker = "check_sphere_mvp" if on_sphere else "check_ball_mvp"

    def call():
        return getattr(mvp, checker)(
            g, weight, CHECK_TRIALS, box, CHECK_SAMPLES, seed, n, radius_range=radii
        )

    def check(verdict) -> str | None:
        if verdict.trials != CHECK_TRIALS or verdict.seed != seed:
            return "verdict does not echo its trials and seed"
        if not expect_hold:
            return None if not verdict.holds else "expected a violation, got holds"
        # The checker flags |gap| > 4 stderr, which a true property does on
        # about 6.3e-5 of trials; only a gap beyond 6 stderr is a failure.
        for ce in verdict.counterexamples:
            if not _within_stderr(ce["residual"], ce["stderr"], 1.0):
                return f"counterexample {ce['residual']:.3g} beyond {SIGMAS} stderr"
        return None

    label = f"{checker} {name} n={n} lambda={'1/2' if lam == 0.5 else 'off'}"
    return Op(label, call, check, CHECK_TRIALS * CHECK_SAMPLES)


def mc_checks(rng: random.Random) -> list[Op]:
    ops = []
    for n in (2, 3, 4, 5):
        for on_sphere in (False, True):
            ops += [_property_op(case, n, on_sphere, rng) for case in _check_cases(n, rng)]
    return ops


# ---------------------------------------------------------------------------
# cli_mix: in-process CLI subcommands that never reach the sampler


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_op(argv, code: int, check_payload, samples: int = 0, csv: bool = False) -> Op:
    """An op running `mvlab <argv>` that must exit with `code` and print JSON
    (or, with csv=True, the sweep CSV) that `check_payload` accepts."""

    def check(res: CliResult) -> str | None:
        if res.code != code:
            return f"exit {res.code}, expected {code}: {res.stderr.strip()[:200]}"
        try:
            payload = _parse_sweep_csv(res.stdout) if csv else json.loads(res.stdout)
        except (ValueError, IndexError) as exc:
            return f"unreadable output: {exc}"
        return check_payload(payload)

    return Op(" ".join(argv[:1]), lambda: run_cli(argv), check, samples)


def _parse_sweep_csv(text: str) -> dict:
    lines = text.splitlines()
    if lines[0] != "h,c,lambda,abs_dev,status" or not lines[-1].startswith("# fit: "):
        raise ValueError("not a sweep table")
    rows = []
    for line in lines[1:-1]:
        h, c, lam, _, status = line.split(",")
        rows.append({"h": float(h), "c": float(c), "lambda": float(lam), "status": status})
    return {"rows": rows, "fit": json.loads(lines[-1][len("# fit: "):])}


def _num(x: float) -> str:
    return f"{x:.6f}"


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * (1.0 + abs(want))


def _rational_coeff(rng: random.Random, nonzero: bool = False) -> Fraction:
    low = 1 if nonzero else 0
    return Fraction(rng.randint(low, 9) * rng.choice((-1, 1)), rng.randint(1, 9))


def _random_poly(rng: random.Random, degree: int) -> str:
    """Expression text of a polynomial with decimal coefficients and a
    leading coefficient at least 0.5 in size."""
    coeffs = [round(rng.uniform(-3, 3), 3) for _ in range(degree)]
    coeffs.append(round(rng.choice((-1, 1)) * rng.uniform(0.5, 3), 3))
    return " + ".join(f"({_num(c)})*x^{k}" for k, c in enumerate(coeffs))


# (expression, lowest a, closed-form abscissa c(a, b)); every entry has
# exactly one abscissa on the intervals drawn for it.
_ABSCISSA_CORPUS = [
    ("exp(x)", -2.0, lambda a, b: math.log((math.exp(b) - math.exp(a)) / (b - a))),
    ("x^3", 0.2, lambda a, b: math.sqrt((a * a + a * b + b * b) / 3.0)),
    ("sin(x)", 0.1, lambda a, b: math.acos((math.sin(b) - math.sin(a)) / (b - a))),
    ("log(x)", 0.2, lambda a, b: (b - a) / math.log(b / a)),
    ("1/x", 0.2, lambda a, b: math.sqrt(a * b)),
    ("sqrt(x)", 0.2, lambda a, b: ((math.sqrt(a) + math.sqrt(b)) / 2.0) ** 2),
]


def _abscissa_ops(rng: random.Random) -> list[Op]:
    corpus = _ABSCISSA_CORPUS + [(_random_poly(rng, 2), -2.0, lambda a, b: 0.5 * (a + b))]
    ops = []
    for fn, lowest, closed_form in corpus:
        for _ in range(2):
            a = round(rng.uniform(lowest, lowest + 1.0), 6)
            b = round(a + rng.uniform(0.5, 1.4), 6)  # sin stays inside (0, pi)
            want = closed_form(a, b)

            def check(p, want=want, a=a, b=b):
                if p["degenerate"] or len(p["abscissas"]) != 1:
                    return f"expected one abscissa, got {p['abscissas']}"
                c, lam = p["abscissas"][0], p["lambdas"][0]
                if not _close(c, want, 1e-9) or not _close(lam, (b - c) / (b - a), 1e-12):
                    return f"abscissa {c!r} (lambda {lam!r}), closed form {want!r}"
                return None

            argv = ["abscissa", f"--fn={fn}", f"--a={_num(a)}", f"--b={_num(b)}"]
            ops.append(_cli_op(argv, 0, check))
    return ops


# (expression, x0 range): f''(x0) and f'''(x0) are nonzero, so |c - x0|
# shrinks like h^2 and the fitted order is 2.
_SWEEP_CORPUS = [("exp(x)", (-1.0, 1.0)), ("sin(x)", (0.3, 1.2)),
                 ("log(x)", (0.5, 2.0)), ("x^3", (0.5, 2.0))]
SWEEP_STEPS = 20


def _sweep_ops(rng: random.Random) -> list[Op]:
    def check(p):
        rows = p["rows"]
        if len(rows) != SWEEP_STEPS or any(r["status"] != "ok" for r in rows):
            return "sweep rows missing or failed"
        order = p["fit"]["fitted_order"]
        if order is None or abs(order - 2.0) > 0.1:
            return f"fitted order {order}, expected 2"
        return None

    ops = []
    for i, (fn, (lo, hi)) in enumerate(_SWEEP_CORPUS):
        csv = i % 2 == 0
        argv = ["sweep", f"--fn={fn}", f"--x0={_num(rng.uniform(lo, hi))}",
                "--hmin=1e-3", "--hmax=0.1", f"--steps={SWEEP_STEPS}",
                f"--format={'csv' if csv else 'json'}"]
        ops.append(_cli_op(argv, 0, check, csv=csv))
    return ops


INTERVAL_TRIALS = 50


def _interval_check_ops(rng: random.Random) -> list[Op]:
    def off_half():
        q = rng.randint(3, 9)
        p = rng.choice([p for p in range(1, q) if 2 * p != q])
        return f"{p}/{q}"

    # (subcommand, expression, lambda or None for check-midpoint, holds)
    cases = [
        ("check-midpoint", _random_poly(rng, 2), None, True),
        ("check-midpoint", "exp(x)", None, False),
        ("check-weighted", _random_poly(rng, 1), off_half(), True),
        ("check-weighted", _random_poly(rng, 3), off_half(), False),
        ("check-weighted", _random_poly(rng, 2), off_half(), False),
        ("check-interval", _random_poly(rng, 2), "1/2", True),
        ("check-interval", "exp(x)", "1/2", False),
        ("check-interval", _random_poly(rng, 1), off_half(), True),
    ]
    ops = []
    for command, fn, lam, holds in cases:
        argv = [command, f"--fn={fn}", f"--a={_num(rng.uniform(-3, -1))}",
                f"--b={_num(rng.uniform(1, 3))}", f"--trials={INTERVAL_TRIALS}",
                f"--seed={rng.getrandbits(64)}"]
        if lam is not None:
            argv.append(f"--lambda={lam}")
        ops.append(_cli_op(argv, 0 if holds else 1, _verdict_check(holds, INTERVAL_TRIALS),
                           samples=INTERVAL_TRIALS))
    return ops


def _verdict_check(holds: bool, trials: int):
    def check(p):
        if p["holds"] is not holds or p["trials"] != trials:
            return f"holds={p['holds']} over {p['trials']} trials, expected {holds}"
        return None

    return check


POLY_DEGREES = (0, 1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)


def _horner(coeffs, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _mvt_defect(coeffs, lam: Fraction, a: Fraction, b: Fraction) -> Fraction:
    """p(b) - p(a) - (b-a)*p'(lam*a + (1-lam)*b) in exact arithmetic."""
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    c = lam * a + (1 - lam) * b
    return _horner(coeffs, b) - _horner(coeffs, a) - (b - a) * _horner(deriv, c)


def _eval_residual(text: str, a: Fraction, b: Fraction) -> Fraction:
    """Value of a printed bivariate residual such as "(1/4)*(b-a)^3" or
    "3/7*a^2*b - 1*b^3" at (a, b)."""
    m = re.fullmatch(r"\((-?\d+(?:/\d+)?)\)\*\(b-a\)(?:\^(\d+))?", text)
    if m:
        return Fraction(m[1]) * (b - a) ** int(m[2] or 1)
    total, sign = Fraction(0), 1
    for token in text.split(" "):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        coeff, *factors = token.split("*")
        term = Fraction(coeff)
        for factor in factors:
            var, _, power = factor.partition("^")
            term *= (a if var == "a" else b) ** int(power or 1)
        total += sign * term
    return total


def _poly_verify_ops(rng: random.Random) -> list[Op]:
    ops = []
    for degree in POLY_DEGREES:
        for lam in (Fraction(1, 2), Fraction(rng.randint(1, 6), 7)):
            coeffs = [_rational_coeff(rng) for _ in range(degree)]
            coeffs.append(_rational_coeff(rng, nonzero=True))
            satisfies = degree <= 1 or (degree == 2 and lam == Fraction(1, 2))

            def check(p, coeffs=coeffs, lam=lam, degree=degree, satisfies=satisfies):
                if (p["satisfies"], p["degree"], p["lambda"]) != (satisfies, degree, str(lam)):
                    return f"verdict {p['satisfies']} at degree {p['degree']}, expected {satisfies}"
                if degree == 3 and lam == Fraction(1, 2):
                    want = f"({coeffs[3] / 4})*(b-a)^3"
                    return None if p["residual"] == want else f"residual {p['residual']}"
                for a, b in ((Fraction(1), Fraction(2)), (Fraction(-1), Fraction(3, 2))):
                    if _eval_residual(p["residual"], a, b) != _mvt_defect(coeffs, lam, a, b):
                        return f"residual differs from p(b)-p(a)-(b-a)p'(c) at a={a}, b={b}"
                return None

            argv = ["poly-verify", "--coeffs=" + ",".join(str(c) for c in coeffs),
                    f"--lambda={lam}"]
            ops.append(_cli_op(argv, 0 if satisfies else 1, check))
    return ops


def _lambda_family_ops() -> list[Op]:
    ops = []
    for k in range(1, 21):
        def check(p, k=k):
            ratio = (k + 1) ** (-1.0 / k)
            ok = (p["k"] == k and _close(p["ratio"], ratio, 1e-14)
                  and _close(p["lambda_abscissa_fraction"], ratio, 1e-14)
                  and _close(p["lambda_left_weight"], 1.0 - ratio, 1e-14)
                  and p["residual_check"] <= 1e-12)
            return None if ok else f"lambda-family k={k}: {p}"

        ops.append(_cli_op(["lambda-family", f"--k={k}"], 0, check))
    return ops


# Harmonic fields (zero Laplacian) for the laplacian check, by dimension.
_HARMONIC = {2: "x^3 - 3*x*y^2", 3: "x1^2 + x2^2 - 2*x3^2",
             4: "exp(x1)*cos(x2) + x3*x4", 5: "x1*x2*x3 + x4^2 - x5^2"}
POINTS = 30


def _pointwise_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n in range(2, 6):
        def randomized(command, fn, holds, *extra):
            lo = rng.uniform(-2.5, -1.5)
            argv = [command, f"--fn={fn}", f"--dim={n}", *extra, f"--points={POINTS}",
                    f"--box={_num(lo)},{_num(lo + 4.0)}", f"--seed={rng.getrandbits(64)}"]
            return _cli_op(argv, 0 if holds else 1, _verdict_check(holds, POINTS),
                           samples=POINTS)

        xs = [f"x{i}" for i in range(1, n + 1)]
        point = [rng.uniform(-2, 2) for _ in range(n)]
        at = "--at=" + ",".join(_num(x) for x in point)
        e_n = "--v=" + ",".join(_num(c) for c in _axis(n, n - 1))
        ops.append(randomized("laplacian", _HARMONIC[n], True))
        ops.append(randomized("laplacian", " + ".join(f"{x}^2" for x in xs), False))
        ops.append(randomized("vderiv", " + ".join(f"sin({x})" for x in xs[:-1]), True, e_n))
        ops.append(randomized("vderiv", f"x1 + {xs[-1]}^2", False, e_n))

        # sum a_i x_i^2 + x1*x2 has Laplacian 2*sum(a_i)
        weights = [round(rng.uniform(-2, 2), 3) for _ in range(n)]
        fn = " + ".join(f"({a})*{x}^2" for a, x in zip(weights, xs)) + " + x1*x2"

        def lap_check(p, want=2.0 * sum(weights)):
            ok = _close(p["laplacian"], want, 1e-9)
            return None if ok else f"laplacian {p['laplacian']!r}, expected {want!r}"

        ops.append(_cli_op(["laplacian", f"--fn={fn}", f"--dim={n}", at], 0, lap_check))

        # an affine field's derivative along unit v is b . v
        slopes = [round(rng.uniform(-2, 2), 3) for _ in range(n)]
        raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
        v = [r / math.sqrt(sum(t * t for t in raw)) for r in raw]
        fn = "1.5 + " + " + ".join(f"({s})*{x}" for s, x in zip(slopes, xs))

        def vd_check(p, want=sum(s * c for s, c in zip(slopes, v))):
            ok = _close(p["directional_derivative"], want, 1e-9)
            return None if ok else f"derivative {p['directional_derivative']!r}, expected {want!r}"

        argv = ["vderiv", f"--fn={fn}", f"--dim={n}", "--v=" + ",".join(repr(c) for c in v), at]
        ops.append(_cli_op(argv, 0, vd_check))
    return ops


_CANONICAL_CHARS = re.compile(r"[x0-9.()+\-*/^ ]+")


def _text_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(4):
        i, j = sorted(rng.sample(range(1, 11), 2))
        fn = f"sin(x{i})^2 + cos(x{j})/{rng.randint(2, 9)} - exp(-x{i}*x{j})"

        def parse_check(p, fn=fn, want=[f"x{i}", f"x{j}"]):
            ok = p["source"] == fn and p["variables"] == want and p["canonical"]
            return None if ok else f"parse payload {p}"

        ops.append(_cli_op(["parse", f"--fn={fn}"], 0, parse_check))

    def list_check(p):
        want = {f"harmonic2d_{k}" for k in range(7)} | {"radial_sq", "vconst_harmonic", "affine"}
        return None if want <= set(p["builtins"]) else f"builtins list {p['builtins']}"

    ops.append(_cli_op(["builtins"], 0, list_check))
    for k in (2, 4, 6):
        n = rng.randint(2, 5)
        point = [rng.uniform(-1.5, 1.5) for _ in range(n)]

        def field_check(p, k=k, n=n, point=point):
            text = p["expression"]
            if p["name"] != f"harmonic2d_{k}" or p["dim"] != n:
                return f"builtins payload {p}"
            if not _CANONICAL_CHARS.fullmatch(text):  # eval sees only arithmetic on x1..xn
                return f"unexpected characters in {text!r}"
            names = {f"x{i + 1}": x for i, x in enumerate(point)}
            got = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
            want = _harmonic2d(k, point)
            return None if _close(got, want, 1e-12) else f"{text} = {got!r}, expected {want!r}"

        ops.append(_cli_op(["builtins", f"--name=harmonic2d_{k}", f"--dim={n}"], 0, field_check))
    return ops


def cli_mix(rng: random.Random) -> list[Op]:
    return (_abscissa_ops(rng) + _sweep_ops(rng) + _interval_check_ops(rng)
            + _poly_verify_ops(rng) + _lambda_family_ops() + _pointwise_ops(rng)
            + _text_ops(rng))


WORKLOADS = {"mc_large": mc_large, "mc_checks": mc_checks, "cli_mix": cli_mix}
