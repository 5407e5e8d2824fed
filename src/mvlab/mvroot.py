"""Numerical location of mean value abscissas and midpoint-convergence sweeps.

`find_abscissas` locates every c in (a, b) with f'(c) equal to the secant
slope (f(b) - f(a))/(b - a) by a sign-change scan on a uniform grid
followed by bisection.  Bisection is unconditionally convergent, which
matters because the defect f' - slope may have several roots and flat
stretches; derivative-based polishing is deliberately avoided.

`sweep_lambda` shrinks symmetric intervals [x0-h, x0+h] and tracks how
fast the abscissa nearest the midpoint approaches it: for smooth f with
f''(x0) != 0 the gap |c - x0| scales like h^2, and the sweep fits that
exponent from a log-log regression.  The fit needs f''(x0) != 0 to be
meaningful; x^3 at 0 is the canonical degenerate case (the two abscissas
stay at fixed fractions of the interval and lambda never approaches 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus, expr
from .expr import Node

__all__ = [
    "Interval",
    "AbscissaResult",
    "SweepRow",
    "SweepResult",
    "NoRootError",
    "average_slope",
    "find_abscissas",
    "lambda_of",
    "sweep_lambda",
]


class NoRootError(RuntimeError):
    """Scan found no sign change: roots may be aliased by the grid."""


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class AbscissaResult:
    interval: Interval
    average_slope: float
    abscissas: tuple[float, ...]  # sorted, strictly inside (a, b)
    lambdas: tuple[float, ...]  # matching weights, c = lam*a + (1-lam)*b
    degenerate: bool  # f' constant at the secant slope: every point qualifies


def average_slope(f: Node, iv: Interval) -> float:
    """(f(b) - f(a)) / (b - a)."""
    x = expr.sole_variable(f) or 1  # a constant f ignores its binding
    fa = expr.evaluate(f, {x: iv.a})
    fb = expr.evaluate(f, {x: iv.b})
    return (fb - fa) / iv.width


def lambda_of(c: float, iv: Interval) -> float:
    """Weight lam with c = lam*a + (1-lam)*b, i.e. lam = (b-c)/(b-a).

    Accepts the closed interval; endpoint abscissas map to 0 or 1, which
    callers should treat as outside the admissible open range (0, 1).
    """
    if not iv.a <= c <= iv.b:
        raise ValueError(f"abscissa {c} outside [{iv.a}, {iv.b}]")
    return (iv.b - c) / iv.width


def _bisect(
    phi, lo: float, hi: float, phi_lo: float, target: float
) -> float:
    """Root of phi in [lo, hi] given a sign change; returns the midpoint of
    the final bracket, shrunk well below `target` (floor at float spacing)."""
    floor = 4.0 * np.spacing(max(abs(lo), abs(hi), 1.0))
    goal = max(target / 64.0, floor)
    for _ in range(200):
        if hi - lo <= goal:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        val = phi(mid)
        if val == 0.0:
            return mid
        if (val < 0.0) == (phi_lo < 0.0):
            lo, phi_lo = mid, val
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_abscissas(
    f: Node, iv: Interval, grid: int = 1024, tol: float = 1e-12
) -> AbscissaResult:
    """All mean value abscissas of f on iv, to bracket width <= tol*(b-a).

    If |f'(x) - slope| stays below tol*(1 + |slope|) on every grid point,
    the defect is flat at zero (affine-like f): degenerate=True and no
    individual abscissas are reported.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    slope = average_slope(f, iv)
    step = iv.width / grid
    xs = iv.a + step * np.arange(grid + 1)
    xs[-1] = iv.b
    phi_values = calculus.first_derivative_many(f, xs) - slope

    if np.all(np.abs(phi_values) <= tol * (1.0 + abs(slope))):
        return AbscissaResult(iv, slope, (), (), True)

    def phi(c: float) -> float:
        return calculus.derivatives_1d(f, c)[1] - slope

    roots: list[float] = []
    for i in range(1, grid):
        if phi_values[i] == 0.0:
            roots.append(float(xs[i]))
    # strict sign changes; comparing sign bits cannot overflow like a product
    left, right = phi_values[:-1], phi_values[1:]
    changes = (left != 0.0) & (right != 0.0) & (np.signbit(left) != np.signbit(right))
    for i in np.flatnonzero(changes):
        roots.append(
            _bisect(phi, float(xs[i]), float(xs[i + 1]), float(phi_values[i]),
                    tol * iv.width)
        )

    roots = sorted(r for r in roots if iv.a < r < iv.b)
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 2.0 * tol * iv.width:
            deduped.append(r)
    if not deduped:
        raise NoRootError(
            f"no abscissa found on a {grid}-cell grid; sign changes may be "
            "aliased - retry with a larger grid"
        )
    lambdas = tuple(lambda_of(c, iv) for c in deduped)
    return AbscissaResult(iv, slope, tuple(deduped), lambdas, False)


@dataclass(frozen=True)
class SweepRow:
    h: float
    c: float
    lam: float
    abs_dev: float  # |lam - 1/2|
    status: str  # "ok" | "failed"


@dataclass(frozen=True)
class SweepResult:
    x0: float
    rows: tuple[SweepRow, ...]
    fitted_order: float | None  # slope of log|c - x0| vs log h; None if flat
    fit_points: int


def sweep_lambda(
    f: Node,
    x0: float,
    h_min: float,
    h_max: float,
    steps: int,
    grid: int = 1024,
    tol: float = 1e-12,
) -> SweepResult:
    """Track the midpoint abscissa of f on [x0-h, x0+h] over shrinking h.

    For each geometrically spaced h the root nearest the midpoint is kept
    and (h, c, lam, |lam - 1/2|) recorded.  The reported order is the
    least-squares slope of log|c - x0| against log h, i.e. the exponent at
    which the abscissa converges to the midpoint (2 for smooth f with
    f''(x0) != 0).  Rows whose deviation |lam - 1/2| is below 1e-13 are
    indistinguishable from exact midpoints and are left out of the fit;
    if every row is excluded the order is reported as undefined (None).
    """
    if not 0.0 < h_min < h_max:
        raise ValueError("need 0 < h_min < h_max")
    if steps < 4:
        raise ValueError("need steps >= 4")
    ratio = (h_max / h_min) ** (1.0 / (steps - 1))
    hs = [h_min * ratio**i for i in range(steps)]
    hs[-1] = h_max

    rows: list[SweepRow] = []
    for h in hs:
        iv = Interval(x0 - h, x0 + h)
        try:
            res = find_abscissas(f, iv, grid=grid, tol=tol)
        except (NoRootError, expr.EvalError):
            rows.append(SweepRow(h, math.nan, math.nan, math.nan, "failed"))
            continue
        if res.degenerate:
            rows.append(SweepRow(h, x0, 0.5, 0.0, "ok"))
            continue
        idx = min(range(len(res.abscissas)), key=lambda i: abs(res.abscissas[i] - x0))
        c = res.abscissas[idx]
        lam = res.lambdas[idx]
        rows.append(SweepRow(h, c, lam, abs(lam - 0.5), "ok"))

    fit_h = [r.h for r in rows if r.status == "ok" and r.abs_dev > 1e-13]
    fit_c = [abs(r.c - x0) for r in rows if r.status == "ok" and r.abs_dev > 1e-13]
    if len(fit_h) >= 2:
        slope = float(np.polyfit(np.log(fit_h), np.log(fit_c), 1)[0])
        return SweepResult(x0, tuple(rows), slope, len(fit_h))
    return SweepResult(x0, tuple(rows), None, 0)
