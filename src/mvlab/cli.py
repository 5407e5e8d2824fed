"""Command-line front end.

Every solver and checker in the library is exposed as a subcommand that
prints JSON (or CSV for sweep tables) to stdout or --out.  Outputs carry
no timestamps or hostnames, so rerunning the same argv with the same seed
reproduces byte-identical bytes.  Handlers only compute: each returns its
payload and whether the property holds, and `main` alone encodes, writes
and picks the exit code.  Float flags must be finite, so no flag value
can put NaN or Infinity into the JSON.

`build_parser` builds the argparse tree once per process, and `main`
reuses it.  Handlers look up their checker in `mvp` by name at call
time, so a wrapper installed on `mvp` later (a profiler or tracer) still
sees every CLI call.

Exit codes: 0 = property holds / computation succeeded, 1 = property
violated (counterexamples in the output), 2 = usage or expression parse
error (including a non-finite float flag or a rational with more digits
than the interpreter prints), 3 = numeric failure (domain error, no
abscissa found, a non-finite number in the output, an exact residual
coefficient with more digits than the interpreter prints).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any, Sequence

from . import calculus, exactpoly, expr, integrate, mvp, mvroot

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_VIOLATED = 1
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# Flag value parsers


def _parsed(convert, text: str, form: str):
    """convert(text), with a ValueError reported as the form it expected."""
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None


def _seed(text: str) -> int:
    value = _parsed(lambda t: int(t, 0), text, "an integer (decimal or 0x-hex)")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text!r}")
    return value


# count flag bounds, checked before anything is allocated (the library refuses 0)
_MAX_GRID = 1_000_000
_MAX_STEPS = 1_000
_MAX_POINTS = 100_000
_MAX_TRIALS = 10_000
_MAX_SAMPLES = 1_000_000


def _count(bound: int):
    """Argparse type for a count flag: an int no larger than `bound`."""
    def count(text: str) -> int:
        value = _parsed(int, text, "an integer")
        if value > bound:
            raise argparse.ArgumentTypeError(f"must be at most {bound}, got {text!r}")
        return value
    return count


def _finite(text: str) -> float:
    value = _parsed(float, text, "a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        value = _parsed(Fraction, text, "a rational such as 0.25 or 1/4")
    except ZeroDivisionError as exc:  # "1/0"
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc
    try:  # poly-verify prints it exactly, and str(int) has a digit limit
        str(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer"
        ) from None
    return value


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(part) for part in text.split(","))


def _csv_rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(part) for part in text.split(","))


def _float_or_none(v: float | None) -> float | None:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    return v


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, holds), where the payload is a
# JSON-able dict or the sweep CSV text; `main` encodes and writes it.

_Result = tuple[dict[str, Any] | str, bool]


def _cmd_parse(args: argparse.Namespace) -> _Result:
    ast = expr.parse(args.fn)
    return {
        "source": args.fn,
        "canonical": expr.print_canonical(ast),
        "variables": [f"x{i}" for i in expr.variables(ast)],
    }, True


def _cmd_abscissa(args: argparse.Namespace) -> _Result:
    f = expr.parse(args.fn)
    iv = mvroot.Interval(args.a, args.b)
    result = mvroot.find_abscissas(f, iv, grid=args.grid, tol=args.tol)
    return {
        "function": args.fn,
        "a": iv.a,
        "b": iv.b,
        "average_slope": result.average_slope,
        "degenerate": result.degenerate,
        "abscissas": list(result.abscissas),
        "lambdas": list(result.lambdas),
        "grid": args.grid,
        "tol": args.tol,
    }, True


def _cmd_sweep(args: argparse.Namespace) -> _Result:
    f = expr.parse(args.fn)
    result = mvroot.sweep_lambda(
        f, args.x0, args.hmin, args.hmax, args.steps, grid=args.grid, tol=args.tol
    )
    fit = {"fitted_order": _float_or_none(result.fitted_order),
           "points": result.fit_points}
    if args.format == "csv":
        lines = ["h,c,lambda,abs_dev,status"]
        for row in result.rows:
            lines.append(f"{row.h!r},{row.c!r},{row.lam!r},{row.abs_dev!r},{row.status}")
        lines.append("# fit: " + json.dumps(fit))
        return "\n".join(lines) + "\n", True
    return {
        "function": args.fn,
        "x0": args.x0,
        "rows": [
            {
                "h": row.h,
                "c": _float_or_none(row.c),
                "lambda": _float_or_none(row.lam),
                "abs_dev": _float_or_none(row.abs_dev),
                "status": row.status,
            }
            for row in result.rows
        ],
        "fit": fit,
    }, True


def _cmd_poly_verify(args: argparse.Namespace) -> _Result:
    p = exactpoly.poly_from_coeffs(args.coeffs)
    verdict = exactpoly.classify(p, args.lam)
    return {
        "polynomial": str(p),
        "degree": verdict.degree,
        "lambda": str(verdict.lam),
        "satisfies": verdict.satisfies,
        "residual": str(verdict.residual),
    }, verdict.satisfies


def _cmd_lambda_family(args: argparse.Namespace) -> _Result:
    fam = exactpoly.lambda_family(args.k)
    return {
        "k": fam.k,
        "ratio": fam.ratio,
        "lambda_left_weight": fam.lambda_left_weight,
        "lambda_abscissa_fraction": fam.lambda_abscissa_fraction,
        "residual_check": fam.residual_check,
        "note": "exact: (k+1)*(ratio*b)^k = b^k for every b, so the residual is 0",
    }, True


def _cmd_interval_check(args: argparse.Namespace) -> _Result:
    f = expr.parse(args.fn)
    verdict = getattr(mvp, args.checker)(
        f, args.lam, args.trials, mvroot.Interval(args.a, args.b),
        args.seed, args.tol,
    )
    return verdict.to_json_dict(), verdict.holds


def _cmd_offset_check(args: argparse.Namespace) -> _Result:
    g = expr.parse(args.fn)
    verdict = getattr(mvp, args.checker)(
        g, mvp.WeightSpec(args.lam, args.v), args.trials, args.box,
        args.samples, args.seed, args.dim, tol=args.tol,
        radius_range=(args.hmin, args.hmax),
    )
    return verdict.to_json_dict(), verdict.holds


def _one_point(args: argparse.Namespace) -> bool:
    """Whether --at asks for a single point; checks its coordinate count."""
    if args.at is not None and len(args.at) != args.dim:
        raise ValueError(f"--at needs {args.dim} coordinates")
    return args.at is not None


def _cmd_laplacian(args: argparse.Namespace) -> _Result:
    g = expr.parse(args.fn)
    if _one_point(args):
        return {
            "function": args.fn,
            "point": list(args.at),
            "laplacian": calculus.laplacian(g, args.at),
        }, True
    verdict = mvp.check_harmonicity(
        g, args.dim, args.points, args.box, args.seed, args.tol
    )
    return verdict.to_json_dict(), verdict.holds


def _cmd_vderiv(args: argparse.Namespace) -> _Result:
    g = expr.parse(args.fn)
    if _one_point(args):
        return {
            "function": args.fn,
            "point": list(args.at),
            "v": list(args.v),
            "directional_derivative": calculus.directional_derivative(
                g, args.at, args.v
            ),
        }, True
    verdict = mvp.check_v_constancy(
        g, args.v, args.dim, args.points, args.box, args.seed, args.tol
    )
    return verdict.to_json_dict(), verdict.holds


def _cmd_builtins(args: argparse.Namespace) -> _Result:
    if args.name is None:
        return {"builtins": list(mvp.list_builtins())}, True
    ast = mvp.builtin_fields(args.name, args.dim)
    return {
        "name": args.name,
        "dim": args.dim,
        "expression": expr.print_canonical(ast),
    }, True


# ---------------------------------------------------------------------------
# Parser assembly


def _add_fn(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fn", required=True, help="expression text, e.g. 'x^2 - y^2'")


def _add_randomized(sub: argparse.ArgumentParser, tol: float) -> None:
    sub.add_argument("--seed", type=_seed, default=0, help="64-bit seed (decimal or 0x-hex)")
    sub.add_argument("--tol", type=_tolerance, default=tol, help="residual tolerance")


_OUT = argparse.ArgumentParser(add_help=False)
_OUT.add_argument("--out", help="write output to this path instead of stdout")


def _subparser(sub, name: str, text: str) -> argparse.ArgumentParser:
    # `help` shows in the top-level listing, `description` on the subcommand page
    return sub.add_parser(name, help=text, description=text, parents=[_OUT])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: built on the first call, then reused.

    Every caller shares it, so none may add to or change it.
    """
    parser = argparse.ArgumentParser(
        prog="mvlab",
        description=(
            "Verification lab for weighted mean value properties: where does "
            "f'(c) = (f(b)-f(a))/(b-a) hold with c a fixed weighted average "
            "of the endpoints, and which fields satisfy the ball/sphere "
            "average analogues."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subparser(sub, "parse", "parse an expression and echo its canonical form")
    _add_fn(p)
    p.set_defaults(handler=_cmd_parse)

    p = _subparser(sub, "abscissa", "locate every c in (a,b) with f'(c) = (f(b)-f(a))/(b-a)",
    )
    _add_fn(p)
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--grid", type=_count(_MAX_GRID), default=1024, help="scan cells for sign changes")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.set_defaults(handler=_cmd_abscissa)

    p = _subparser(sub, "sweep", (
            "shrink symmetric intervals [x0-h, x0+h], record the abscissa "
            "weight lambda(h), and fit how fast c approaches the midpoint"
        ),
    )
    _add_fn(p)
    p.add_argument("--x0", type=_finite, required=True)
    p.add_argument("--hmin", type=_finite, required=True)
    p.add_argument("--hmax", type=_finite, required=True)
    p.add_argument("--steps", type=_count(_MAX_STEPS), default=20)
    p.add_argument("--grid", type=_count(_MAX_GRID), default=1024)
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="sweep tables default to CSV")
    p.set_defaults(handler=_cmd_sweep)

    for name, checker, identity, tol in (
        ("check-weighted", "check_weighted_property",
         "(f(b)-f(a))/(b-a) = f'(lambda*a + (1-lambda)*b) on random subintervals", 1e-9),
        ("check-midpoint", "check_weighted_property",
         "(f(b)-f(a))/(b-a) = f'((a+b)/2) on random subintervals", 1e-9),
        ("check-interval", "check_interval_mvp",
         "f'(x+(1-2*lambda)*h) = (1/2h) * integral of f' over [x-h, x+h] "
         "on random symmetric intervals", 1e-8),
    ):
        p = _subparser(sub, name, "test " + identity)
        _add_fn(p)
        p.add_argument("--a", type=_finite, required=True, help="domain lower bound")
        p.add_argument("--b", type=_finite, required=True, help="domain upper bound")
        if name == "check-midpoint":
            p.set_defaults(lam=0.5)
        else:
            p.add_argument("--lambda", dest="lam", type=_rational, required=True,
                           help="weight in (0,1), e.g. 0.25 or 1/4")
        p.add_argument("--trials", type=_count(_MAX_TRIALS), default=200)
        _add_randomized(p, tol=tol)
        p.set_defaults(handler=_cmd_interval_check, checker=checker)

    p = _subparser(sub, "poly-verify", (
            "decide exactly (rational arithmetic) whether p(b) - p(a) = "
            "(b-a) * p'(lambda*a + (1-lambda)*b) identically in a, b"
        ),
    )
    p.add_argument("--coeffs", type=_csv_rationals, required=True,
                   help="lowest degree first, e.g. 1,2,3 or 1/2,-1/3")
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    p.set_defaults(handler=_cmd_poly_verify)

    p = _subparser(sub, "lambda-family", (
            "fixed-left-endpoint abscissa of x^(k+1) on [0,b]: the ratio "
            "c/b = (k+1)^(-1/k) for every b, reported in both weight "
            "conventions"
        ),
    )
    p.add_argument("--k", type=int, required=True, help="monomial exponent minus one, 1..20")
    p.set_defaults(handler=_cmd_lambda_family)

    for name, checker, what in (
        ("ball-check", "check_ball_mvp", "solid ball average"),
        ("sphere-check", "check_sphere_mvp", "boundary sphere average"),
    ):
        p = _subparser(sub, name, (
                f"test g(x + (1-2*lambda)*h*v) = {what} of g over B_h(x) "
                "at random centers and radii"
            ),
        )
        _add_fn(p)
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--lambda", dest="lam", type=_rational, required=True)
        p.add_argument("--v", type=_csv_floats, default=None,
                       help="unit direction, e.g. 1,0 (optional at lambda=1/2)")
        p.add_argument("--trials", type=_count(_MAX_TRIALS), default=20)
        p.add_argument("--samples", type=_count(_MAX_SAMPLES), default=100_000)
        p.add_argument("--box", type=_csv_floats, default=(-2.0, 2.0),
                       help="center range lo,hi applied to every coordinate")
        p.add_argument("--hmin", type=_finite, default=0.2, help="smallest radius")
        p.add_argument("--hmax", type=_finite, default=1.0, help="largest radius")
        _add_randomized(p, tol=1e-9)
        p.set_defaults(handler=_cmd_offset_check, checker=checker)

    p = _subparser(sub, "laplacian", "check sum of second partials of g = 0 at random points, or evaluate it at --at",
    )
    _add_fn(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--at", type=_csv_floats, default=None, help="evaluate at one point")
    p.add_argument("--points", type=_count(_MAX_POINTS), default=100)
    p.add_argument("--box", type=_csv_floats, default=(-2.0, 2.0))
    _add_randomized(p, tol=1e-8)
    p.set_defaults(handler=_cmd_laplacian)

    p = _subparser(sub, "vderiv", "check the directional derivative grad(g) . v = 0 at random points, or evaluate it at --at",
    )
    _add_fn(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--v", type=_csv_floats, required=True)
    p.add_argument("--at", type=_csv_floats, default=None)
    p.add_argument("--points", type=_count(_MAX_POINTS), default=100)
    p.add_argument("--box", type=_csv_floats, default=(-2.0, 2.0))
    _add_randomized(p, tol=1e-8)
    p.set_defaults(handler=_cmd_vderiv)

    p = _subparser(sub, "builtins", "list the built-in test fields or print one")
    p.add_argument("--name", default=None)
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(handler=_cmd_builtins)

    return parser


_DETACHED_LIST = re.compile(r"-[^-].*,")  # '-1,2', '-inf,1'; never an option


def _attach_negative_lists(argv: Sequence[str]) -> list[str]:
    """'--box -1,1' -> '--box=-1,1': argparse reads a detached value that
    starts with '-' as a value only when it looks like '-2' or '-.5', and
    takes '-1,1' for an option.  A word with a comma is never an option, so
    it joins the '--flag' (or its abbreviation) before it."""
    out: list[str] = []
    for word in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and flag != "--" and "=" not in flag and _DETACHED_LIST.match(word):
            word = out.pop() + "=" + word
        out.append(word)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        payload, holds = args.handler(args)
    except (expr.DomainError, integrate.McDomainError, mvroot.NoRootError,
            exactpoly.DigitLimitError) as exc:
        print(f"mvlab: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (expr.ExprError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"mvlab: error: {message}", file=sys.stderr)
        return _EXIT_USAGE
    try:  # RFC 8259 has no NaN or Infinity
        text = payload if isinstance(payload, str) else json.dumps(
            payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        print("mvlab: numeric failure: non-finite number in the output", file=sys.stderr)
        return _EXIT_NUMERIC
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK if holds else _EXIT_VIOLATED


if __name__ == "__main__":
    sys.exit(main())
