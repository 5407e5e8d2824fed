"""Command-line front end.

Every solver and checker in the library is exposed as a subcommand that
prints JSON (or CSV for sweep tables) to stdout or --out.  Outputs carry
no timestamps or hostnames, so rerunning the same argv with the same seed
reproduces byte-identical bytes.

Exit codes: 0 = property holds / computation succeeded, 1 = property
violated (counterexamples in the output), 2 = usage or expression parse
error, 3 = numeric failure (domain error, no abscissa found).
"""

from __future__ import annotations

import argparse
import json
import math
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


def _seed(text: str) -> int:
    value = int(text, 0)  # decimal or 0x-hex
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    return Fraction(text)


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _csv_rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(part) for part in text.split(","))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict[str, Any], out: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out)


def _float_or_none(v: float | None) -> float | None:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    return v


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_parse(args: argparse.Namespace) -> int:
    ast = expr.parse(args.fn)
    payload = {
        "source": args.fn,
        "canonical": expr.print_canonical(ast),
        "variables": [f"x{i}" for i in expr.variables(ast)],
    }
    _emit_json(payload, args.out)
    return _EXIT_OK


def _cmd_abscissa(args: argparse.Namespace) -> int:
    f = expr.parse(args.fn)
    iv = mvroot.Interval(args.a, args.b)
    result = mvroot.find_abscissas(f, iv, grid=args.grid, tol=args.tol)
    payload = {
        "function": args.fn,
        "a": iv.a,
        "b": iv.b,
        "average_slope": result.average_slope,
        "degenerate": result.degenerate,
        "abscissas": list(result.abscissas),
        "lambdas": list(result.lambdas),
        "grid": args.grid,
        "tol": args.tol,
    }
    _emit_json(payload, args.out)
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
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
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
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
        }
        _emit_json(payload, args.out)
    return _EXIT_OK


def _cmd_poly_verify(args: argparse.Namespace) -> int:
    p = exactpoly.poly_from_coeffs(args.coeffs)
    verdict = exactpoly.classify(p, args.lam)
    payload = {
        "polynomial": str(p),
        "degree": verdict.degree,
        "lambda": str(verdict.lam),
        "satisfies": verdict.satisfies,
        "residual": str(verdict.residual.residual),
    }
    _emit_json(payload, args.out)
    return _EXIT_OK if verdict.satisfies else _EXIT_VIOLATED


def _cmd_lambda_family(args: argparse.Namespace) -> int:
    fam = exactpoly.lambda_family(args.k)
    payload = {
        "k": fam.k,
        "ratio": fam.ratio,
        "lambda_left_weight": fam.lambda_left_weight,
        "lambda_abscissa_fraction": fam.lambda_abscissa_fraction,
        "residual_check": fam.residual_check,
    }
    _emit_json(payload, args.out)
    return _EXIT_OK


def _verdict_exit(verdict: mvp.PropertyVerdict, out: str | None) -> int:
    _emit_json(verdict.to_json_dict(), out)
    return _EXIT_OK if verdict.holds else _EXIT_VIOLATED


def _cmd_check_weighted(args: argparse.Namespace) -> int:
    f = expr.parse(args.fn)
    lam = 0.5 if getattr(args, "midpoint", False) else float(args.lam)
    verdict = mvp.check_weighted_property(
        f, lam, args.trials, mvroot.Interval(args.a, args.b), args.seed, args.tol
    )
    return _verdict_exit(verdict, args.out)


def _cmd_check_interval(args: argparse.Namespace) -> int:
    f = expr.parse(args.fn)
    verdict = mvp.check_interval_mvp(
        f, float(args.lam), args.trials, mvroot.Interval(args.a, args.b),
        args.seed, args.tol,
    )
    return _verdict_exit(verdict, args.out)


def _cmd_offset_check(args: argparse.Namespace) -> int:
    g = expr.parse(args.fn)
    verdict = args.checker(
        g, mvp.WeightSpec(float(args.lam), args.v), args.trials, args.box,
        args.samples, args.seed, args.dim, tol=args.tol,
        radius_range=(args.hmin, args.hmax), threads=args.threads,
    )
    return _verdict_exit(verdict, args.out)


def _one_point(args: argparse.Namespace) -> bool:
    """Whether --at asks for a single point; checks its coordinate count."""
    if args.at is not None and len(args.at) != args.dim:
        raise ValueError(f"--at needs {args.dim} coordinates")
    return args.at is not None


def _cmd_laplacian(args: argparse.Namespace) -> int:
    g = expr.parse(args.fn)
    if _one_point(args):
        payload = {
            "function": args.fn,
            "point": list(args.at),
            "laplacian": calculus.laplacian(g, args.at),
        }
        _emit_json(payload, args.out)
        return _EXIT_OK
    verdict = mvp.check_harmonicity(
        g, args.dim, args.points, args.box, args.seed, args.tol
    )
    return _verdict_exit(verdict, args.out)


def _cmd_vderiv(args: argparse.Namespace) -> int:
    g = expr.parse(args.fn)
    if _one_point(args):
        payload = {
            "function": args.fn,
            "point": list(args.at),
            "v": list(args.v),
            "directional_derivative": calculus.directional_derivative(
                g, args.at, args.v
            ),
        }
        _emit_json(payload, args.out)
        return _EXIT_OK
    verdict = mvp.check_v_constancy(
        g, args.v, args.dim, args.points, args.box, args.seed, args.tol
    )
    return _verdict_exit(verdict, args.out)


def _cmd_builtins(args: argparse.Namespace) -> int:
    if args.name is None:
        payload: dict[str, Any] = {"builtins": list(mvp.list_builtins())}
    else:
        ast = mvp.builtin_fields(args.name, args.dim)
        payload = {
            "name": args.name,
            "dim": args.dim,
            "expression": expr.print_canonical(ast),
        }
    _emit_json(payload, args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _add_fn(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fn", required=True, help="expression text, e.g. 'x^2 - y^2'")


def _add_randomized(sub: argparse.ArgumentParser, tol: float) -> None:
    sub.add_argument("--seed", type=_seed, default=0, help="64-bit seed (decimal or 0x-hex)")
    sub.add_argument("--tol", type=float, default=tol, help="residual tolerance")


def _subparser(sub, name: str, text: str) -> argparse.ArgumentParser:
    # `help` shows in the top-level listing, `description` on the subcommand page
    return sub.add_parser(name, help=text, description=text)


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(p)
    p.set_defaults(handler=_cmd_parse)

    p = _subparser(sub, "abscissa", "locate every c in (a,b) with f'(c) = (f(b)-f(a))/(b-a)",
    )
    _add_fn(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--grid", type=int, default=1024, help="scan cells for sign changes")
    p.add_argument("--tol", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(handler=_cmd_abscissa)

    p = _subparser(sub, "sweep", (
            "shrink symmetric intervals [x0-h, x0+h], record the abscissa "
            "weight lambda(h), and fit how fast c approaches the midpoint"
        ),
    )
    _add_fn(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--hmin", type=float, required=True)
    p.add_argument("--hmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="sweep tables default to CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    for name, midpoint in (("check-weighted", False), ("check-midpoint", True)):
        p = _subparser(sub, name, (
                "test (f(b)-f(a))/(b-a) = f'("
                + ("(a+b)/2" if midpoint else "lambda*a + (1-lambda)*b")
                + ") on random subintervals"
            ),
        )
        _add_fn(p)
        p.add_argument("--a", type=float, required=True, help="domain lower bound")
        p.add_argument("--b", type=float, required=True, help="domain upper bound")
        if not midpoint:
            p.add_argument("--lambda", dest="lam", type=_rational, required=True,
                           help="weight in (0,1), e.g. 0.25 or 1/4")
        p.add_argument("--trials", type=int, default=200)
        _add_randomized(p, tol=1e-9)
        _add_common(p)
        p.set_defaults(handler=_cmd_check_weighted, midpoint=midpoint)

    p = _subparser(sub, "check-interval", (
            "test f'(x+(1-2*lambda)*h) = (1/2h) * integral of f' over "
            "[x-h, x+h] on random symmetric intervals"
        ),
    )
    _add_fn(p)
    p.add_argument("--a", type=float, required=True, help="domain lower bound")
    p.add_argument("--b", type=float, required=True, help="domain upper bound")
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    p.add_argument("--trials", type=int, default=200)
    _add_randomized(p, tol=1e-8)
    _add_common(p)
    p.set_defaults(handler=_cmd_check_interval)

    p = _subparser(sub, "poly-verify", (
            "decide exactly (rational arithmetic) whether p(b) - p(a) = "
            "(b-a) * p'(lambda*a + (1-lambda)*b) identically in a, b"
        ),
    )
    p.add_argument("--coeffs", type=_csv_rationals, required=True,
                   help="lowest degree first, e.g. 1,2,3 or 1/2,-1/3")
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_poly_verify)

    p = _subparser(sub, "lambda-family", (
            "fixed-left-endpoint abscissa of x^(k+1) on [0,b]: the ratio "
            "c/b = (k+1)^(-1/k) for every b, reported in both weight "
            "conventions"
        ),
    )
    p.add_argument("--k", type=int, required=True, help="monomial exponent minus one, 1..20")
    _add_common(p)
    p.set_defaults(handler=_cmd_lambda_family)

    # checkers are looked up per parser build, so wrappers installed on
    # mvp (profilers, tracers) see CLI calls
    for name, checker, what in (
        ("ball-check", mvp.check_ball_mvp, "solid ball average"),
        ("sphere-check", mvp.check_sphere_mvp, "boundary sphere average"),
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
        p.add_argument("--trials", type=int, default=20)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--box", type=_csv_floats, default=(-2.0, 2.0),
                       help="center range lo,hi applied to every coordinate")
        p.add_argument("--hmin", type=float, default=0.2, help="smallest radius")
        p.add_argument("--hmax", type=float, default=1.0, help="largest radius")
        p.add_argument("--threads", type=int, default=1,
                       help="sampling threads (the output never depends on it)")
        _add_randomized(p, tol=1e-9)
        _add_common(p)
        p.set_defaults(handler=_cmd_offset_check, checker=checker)

    p = _subparser(sub, "laplacian", "check sum of second partials of g = 0 at random points, or evaluate it at --at",
    )
    _add_fn(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--at", type=_csv_floats, default=None, help="evaluate at one point")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--box", type=_csv_floats, default=(-2.0, 2.0))
    _add_randomized(p, tol=1e-8)
    _add_common(p)
    p.set_defaults(handler=_cmd_laplacian)

    p = _subparser(sub, "vderiv", "check the directional derivative grad(g) . v = 0 at random points, or evaluate it at --at",
    )
    _add_fn(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--v", type=_csv_floats, required=True)
    p.add_argument("--at", type=_csv_floats, default=None)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--box", type=_csv_floats, default=(-2.0, 2.0))
    _add_randomized(p, tol=1e-8)
    _add_common(p)
    p.set_defaults(handler=_cmd_vderiv)

    p = _subparser(sub, "builtins", "list the built-in test fields or print one")
    p.add_argument("--name", default=None)
    p.add_argument("--dim", type=int, default=2)
    _add_common(p)
    p.set_defaults(handler=_cmd_builtins)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (expr.DomainError, integrate.McDomainError, mvroot.NoRootError) as exc:
        print(f"mvlab: numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (expr.ExprError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"mvlab: error: {message}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
