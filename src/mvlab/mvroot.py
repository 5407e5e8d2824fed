"""Numerical location of mean value abscissas and midpoint-convergence sweeps.

`find_abscissas` locates every c in (a, b) with f'(c) equal to the secant
slope (f(b) - f(a))/(b - a) by a sign-change scan on a uniform grid
followed by bisection.  Bisection is unconditionally convergent, which
matters because the defect f' - slope may have several roots and flat
stretches; derivative-based polishing is deliberately avoided.  The
brackets are bisected in lockstep: one array jet pass evaluates every
midpoint that the next six steps of each open bracket could reach, and
each bracket then takes those steps on the values, so a bracket needs ~6
passes where a one-bracket loop made ~36 scalar ones.  `sweep_lambda`
bisects the brackets of all its intervals together, so a sweep makes about
as many passes as one interval does.  Each bracket follows the rules of a
one-bracket loop, so lockstep changes no root.

`sweep_lambda` shrinks symmetric intervals [x0-h, x0+h] and tracks how
fast the abscissa nearest the midpoint approaches it, fitting the
exponent p of |c - x0| ~ h^p from a log-log regression.  For smooth f,
c - x0 ~ f'''(x0) h^2 / (6 f''(x0)), so p = 2 needs both f''(x0) != 0
and f'''(x0) != 0.  When f'''(x0) = 0 the first nonzero odd derivative
f^(k)(x0), k >= 5, sets p = k - 1: x^2 + x^5 at 0 gives p = 4, and a
quadratic keeps c at the midpoint exactly.  The fit needs f''(x0) != 0
to be meaningful; x^3 at 0 is the canonical degenerate case (the two
abscissas stay at fixed fractions of the interval and lambda never
approaches 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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
        if not math.isfinite(self.b - self.a):  # slopes and grids divide by it
            raise ValueError(f"interval [{self.a}, {self.b}] is too wide: b - a overflows")

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


def _secant(f: Node, iv: Interval) -> float:
    # (f(b) - f(a)) / (b - a) as computed: inf when f(b) - f(a) overflows
    fa = expr.evaluate(f, expr._bind_univariate(f, iv.a))
    fb = expr.evaluate(f, expr._bind_univariate(f, iv.b))
    return (fb - fa) / iv.width


def average_slope(f: Node, iv: Interval) -> float:
    """(f(b) - f(a)) / (b - a); a DomainError when it is not finite, as
    when f(b) - f(a) overflows though f(a) and f(b) do not."""
    slope = _secant(f, iv)
    if not math.isfinite(slope):
        raise expr.DomainError(f, "non-finite secant slope")
    return slope


def lambda_of(c: float, iv: Interval) -> float:
    """Weight lam with c = lam*a + (1-lam)*b, i.e. lam = (b-c)/(b-a).

    Accepts the closed interval; endpoint abscissas map to 0 or 1, which
    callers should treat as outside the admissible open range (0, 1).
    """
    if not iv.a <= c <= iv.b:
        raise ValueError(f"abscissa {c} outside [{iv.a}, {iv.b}]")
    return (iv.b - c) / iv.width


# Lockstep bisection: one pass evaluates the next _LEVELS midpoints of every
# open bracket (the 2^_LEVELS - 1 nodes of its bisection tree), and at most
# _GROUP brackets share a pass, so a pass has at most 32,256 points
_LEVELS = 6
_GROUP = 512


@dataclass(eq=False)
class _Scan:
    """The grid scan of one interval: its slope, the interior grid points
    where phi = f' - slope is exactly 0, and its sign-change brackets."""

    iv: Interval
    slope: float
    exact: list[float]
    brackets: list[_Bracket] = field(default_factory=list)


class _Bracket:
    """A sign change of phi = f' - scan.slope on [lo, hi], phi_lo = phi(lo).
    It stops as a one-bracket bisection loop does: when it is no wider than
    goal = max(target/64, 4 ulp), when its midpoint no longer splits it, or
    when phi is exactly 0 at the midpoint; root is then that midpoint."""

    __slots__ = ("scan", "lo", "hi", "phi_lo", "goal", "root")

    def __init__(self, scan: _Scan, lo: float, hi: float, phi_lo: float, target: float):
        self.scan, self.lo, self.hi, self.phi_lo = scan, lo, hi, phi_lo
        self.goal = max(target / 64.0, 4.0 * math.ulp(max(abs(lo), abs(hi), 1.0)))
        self.root: float | None = None

    def steps(self, values: list[float], levels: int) -> bool:
        """Take up to `levels` steps, reading phi at each midpoint from
        `values`, the bracket's tree in the heap order of `_bisection_tree`;
        True while the bracket is still open."""
        lo, hi, phi_lo, node = self.lo, self.hi, self.phi_lo, 0
        for step in range(levels + 1):
            mid = 0.5 * (lo + hi)
            if hi - lo <= self.goal or mid <= lo or mid >= hi:
                self.root = mid
                return False
            if step == levels:
                break
            val = values[node]
            if val == 0.0:
                self.root = mid
                return False
            if (val < 0.0) == (phi_lo < 0.0):
                lo, phi_lo, node = mid, val, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1
        self.lo, self.hi, self.phi_lo = lo, hi, phi_lo
        return True


def _bisect(f: Node, brackets: list[_Bracket]) -> dict[_Scan, expr.EvalError]:
    """Bisect every bracket in lockstep, setting its root.

    The open brackets of a group share one array pass per _LEVELS steps:
    it evaluates every node their next steps could reach, and each bracket
    then takes its steps on those values, so its root is that of a
    one-bracket loop, including its cap of 200 midpoints.  If a pass fails,
    the step is redone on the open brackets' next midpoints alone, with one
    pass per interval; an interval whose pass fails has its error returned,
    keyed by its scan, and its brackets are dropped.
    """
    failed: dict[_Scan, expr.EvalError] = {}
    for first in range(0, len(brackets), _GROUP):
        group = [b for b in brackets[first : first + _GROUP] if b.scan not in failed]
        steps = 0
        while group and steps < 200:
            levels = min(_LEVELS, 200 - steps)
            tree = _bisection_tree(
                np.array([b.lo for b in group]), np.array([b.hi for b in group]), levels
            )
            slope = np.array([b.scan.slope for b in group])[:, None]
            try:
                values = calculus.first_derivative_many(f, tree.ravel()).reshape(tree.shape)
                values = values - slope
            except expr.EvalError:
                levels, values = 1, _phi(f, tree[:, :1], slope, group, failed)
            steps += levels
            group = [
                b for b, vals in zip(group, values.tolist())
                if b.scan not in failed and b.steps(vals, levels)
            ]
        for b in group:  # still open after 200 midpoints
            b.root = 0.5 * (b.lo + b.hi)
    return failed


def _bisection_tree(lo: np.ndarray, hi: np.ndarray, levels: int) -> np.ndarray:
    """The midpoints of the first `levels` bisection steps of each bracket
    [lo[i], hi[i]], shape (len(lo), 2^levels - 1), in heap order: node k
    halves the bracket of its parent (k - 1) // 2, its lower half has node
    2k + 1 and its upper half 2k + 2."""
    tree = np.empty((len(lo), 2**levels - 1))
    a, b = lo[:, None], hi[:, None]
    for j in range(levels):
        m = tree[:, 2**j - 1 : 2 ** (j + 1) - 1]
        np.multiply(0.5, a + b, out=m)
        a, b = np.repeat(a, 2, axis=1), np.repeat(b, 2, axis=1)
        a[:, 1::2] = m
        b[:, 0::2] = m
    return tree


def _phi(
    f: Node, mid: np.ndarray, slope: np.ndarray, group: list[_Bracket],
    failed: dict[_Scan, expr.EvalError],
) -> np.ndarray:
    # one pass per interval, to find whose midpoints fail
    values = np.full(mid.shape, np.nan)
    owners = [b.scan for b in group]
    for scan in dict.fromkeys(owners):
        part = np.array([o is scan for o in owners])
        try:
            values[part] = calculus.first_derivative_many(f, mid[part]) - slope[part]
        except expr.EvalError as exc:
            failed.setdefault(scan, exc)
    return values


def _scan(f: Node, iv: Interval, grid: int, tol: float) -> AbscissaResult | _Scan:
    slope = average_slope(f, iv)
    step = iv.width / grid
    xs = iv.a + step * np.arange(grid + 1)
    xs[-1] = iv.b
    phi_values = calculus.first_derivative_many(f, xs) - slope
    if np.all(np.abs(phi_values) <= tol * (1.0 + abs(slope))):
        return AbscissaResult(iv, slope, (), (), True)
    scan = _Scan(iv, slope, xs[1:-1][phi_values[1:-1] == 0.0].tolist())
    # strict sign changes; comparing sign bits cannot overflow like a product
    left, right = phi_values[:-1], phi_values[1:]
    changes = np.flatnonzero(
        (left != 0.0) & (right != 0.0) & (np.signbit(left) != np.signbit(right))
    )
    scan.brackets = [
        _Bracket(scan, lo, hi, p, tol * iv.width)
        for lo, hi, p in zip(xs[changes].tolist(), xs[changes + 1].tolist(),
                             phi_values[changes].tolist())
    ]
    return scan


def _collect(scan: _Scan, grid: int, tol: float) -> AbscissaResult:
    iv = scan.iv
    roots = sorted(r for r in scan.exact + [b.root for b in scan.brackets] if iv.a < r < iv.b)
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
    return AbscissaResult(iv, scan.slope, tuple(deduped), lambdas, False)


def _abscissas(
    f: Node, ivs: Sequence[Interval], grid: int, tol: float
) -> list[AbscissaResult | expr.EvalError | NoRootError]:
    """`find_abscissas` on each interval of `ivs`: a grid scan per interval,
    then one lockstep bisection of all their brackets.  An interval whose
    slope, scan or bisection fails, or that has no root, gives its error
    in place of a result."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    out: list = []
    for iv in ivs:
        try:
            out.append(_scan(f, iv, grid, tol))
        except expr.EvalError as exc:
            out.append(exc)
    failed = _bisect(f, [b for s in out if isinstance(s, _Scan) for b in s.brackets])
    for k, scan in enumerate(out):
        if isinstance(scan, _Scan):
            try:
                out[k] = failed.get(scan) or _collect(scan, grid, tol)
            except NoRootError as exc:
                out[k] = exc
    return out


def find_abscissas(
    f: Node, iv: Interval, grid: int = 1024, tol: float = 1e-12
) -> AbscissaResult:
    """All mean value abscissas of f on iv, to bracket width <= tol*(b-a).

    If |f'(x) - slope| stays below tol*(1 + |slope|) on every grid point,
    the defect is flat at zero (affine-like f): degenerate=True and no
    individual abscissas are reported.
    """
    result = _abscissas(f, [iv], grid, tol)[0]
    if isinstance(result, Exception):
        raise result
    return result


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
    f''(x0) != 0 and f'''(x0) != 0; 4 for x^2 + x^5 at 0).  Rows whose
    deviation |lam - 1/2| is below 1e-13 are indistinguishable from exact
    midpoints and are left out of the fit; if every row is excluded the
    order is reported as undefined (None).
    """
    if not 0.0 < h_min < h_max:
        raise ValueError("need 0 < h_min < h_max")
    if steps < 4:
        raise ValueError("need steps >= 4")
    if not math.isfinite(h_max / h_min):
        raise ValueError("h_max / h_min overflows: narrow [h_min, h_max]")
    ratio = (h_max / h_min) ** (1.0 / (steps - 1))
    hs = [h_min * ratio**i for i in range(steps)]
    hs[-1] = h_max
    if not all(a < b for a, b in zip(hs, hs[1:])):  # h_max/h_min within a few ulps
        raise ValueError("the h grid is not strictly increasing: widen [h_min, h_max]")

    results = _abscissas(f, [Interval(x0 - h, x0 + h) for h in hs], grid, tol)
    rows: list[SweepRow] = []
    for h, res in zip(hs, results):
        if isinstance(res, Exception):
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
