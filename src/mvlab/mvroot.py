"""Numerical location of mean value abscissas and midpoint-convergence sweeps.

`find_abscissas` locates every c in (a, b) with f'(c) equal to the secant
slope (f(b) - f(a))/(b - a) by a sign-change scan on a uniform grid
followed by bisection.  Bisection is unconditionally convergent, which
matters because the defect f' - slope may have several roots and flat
stretches; derivative-based polishing is deliberately avoided.  One scan
pass covers as many intervals as fit in integrate._EVAL_POINTS (31 at the
default 1024 cells): one eval_many of each end gives their secant slopes
(`_secants`, shared with mvp), one f' pass their grids.  The brackets of
all intervals are bisected in lockstep: one array jet pass evaluates, in
position order, every midpoint the next six steps of each open bracket
could reach, and each bracket binary-searches those values, so it needs
~6 passes where a one-bracket loop made ~36 scalar ones.  It stops as
that loop does, within about 54 midpoints and with no further cap.  A
failing scan or bisection is halved over its intervals
(`expr.split_failures`), so each interval keeps its own error.  Each
slope, grid point and midpoint is computed as a one-interval call
computes it, so neither blocking, lockstep nor halving changes a root.

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

from . import calculus, expr, integrate
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


def _check_tol(tol: float) -> None:
    # an input rule, not a numeric failure: a NaN tol is no DomainError
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def average_slope(f: Node, iv: Interval) -> float:
    """(f(b) - f(a)) / (b - a); a DomainError when it is not finite, as
    when f(b) - f(a) overflows though f(a) and f(b) do not."""
    return _finite_secants(f, np.array([iv.a]), np.array([iv.b])).item()


def _secants(f: Node, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (f(b) - f(a))/(b - a) by one eval_many of each end, unchecked: an
    # overflowing difference is inf or NaN
    fa = expr.eval_many(f, expr._bind_univariate(f, a))
    fb = expr.eval_many(f, expr._bind_univariate(f, b))
    with np.errstate(over="ignore", invalid="ignore"):
        return (fb - fa) / (b - a)


def _finite_secants(f: Node, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    slopes = _secants(f, a, b)
    if not np.isfinite(slopes).all():
        raise expr.DomainError(f, "non-finite secant slope")
    return slopes


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
    exact: list[float] = field(default_factory=list)
    brackets: list[_Bracket] = field(default_factory=list)


class _Bracket:
    """A sign change of phi = f' - slope on [lo, hi], phi_lo = phi(lo).  It
    stops as a one-bracket bisection loop does: when it is no wider than
    goal = max(target/64, 4 ulp), when its midpoint (0.5*lo + 0.5*hi, which
    cannot overflow) no longer splits it, or when phi is exactly 0 there;
    root is then that midpoint.  From width <= 2M to goal >= M*2^-51,
    M = max(|lo|, |hi|, 1), that is within about 54 midpoints."""

    __slots__ = ("lo", "hi", "phi_lo", "slope", "goal", "root")

    def __init__(self, lo: float, hi: float, phi_lo: float, slope: float, target: float):
        self.lo, self.hi, self.phi_lo, self.slope = lo, hi, phi_lo, slope
        self.goal = max(target / 64.0, 4.0 * math.ulp(max(abs(lo), abs(hi), 1.0)))
        self.root: float | None = None

    def steps(self, values: np.ndarray, levels: int) -> bool:
        """Take up to `levels` steps, reading phi at each midpoint from
        `values`, its row of `_bisection_tree`, by a binary search over the
        edges (edge k is column k - 1); True while the bracket is open."""
        lo, hi, phi_lo, lo_edge, hi_edge = self.lo, self.hi, self.phi_lo, 0, 2**levels
        for step in range(levels + 1):
            mid = 0.5 * lo + 0.5 * hi
            if hi - lo <= self.goal or mid <= lo or mid >= hi:
                self.root = mid
                return False
            if step == levels:
                break
            edge = (lo_edge + hi_edge) // 2
            val = values.item(edge - 1)
            if val == 0.0:
                self.root = mid
                return False
            if (val < 0.0) == (phi_lo < 0.0):
                lo, phi_lo, lo_edge = mid, val, edge
            else:
                hi, hi_edge = mid, edge
        self.lo, self.hi, self.phi_lo = lo, hi, phi_lo
        return True


def _bisect(f: Node, brackets: list[_Bracket]) -> None:
    """Set the root of every open bracket of `brackets`, or raise the
    EvalError of a failing pass; a bracket keeps the steps it has taken.

    The open brackets of a group share one array pass per _LEVELS steps:
    it evaluates every node their next steps could reach, and each bracket
    then takes its steps on those values, so its root is that of a
    one-bracket loop.  A node off a bracket's path may fail where the loop
    never evaluates: then the step is taken on the midpoints alone, and
    only a failing midpoint fails the bisection."""
    brackets = [b for b in brackets if b.root is None]
    for first in range(0, len(brackets), _GROUP):
        group = brackets[first : first + _GROUP]
        while group:
            tree = _bisection_tree(
                np.array([b.lo for b in group]), np.array([b.hi for b in group]), _LEVELS
            )
            slope = np.array([b.slope for b in group])[:, None]
            try:
                levels, values = _LEVELS, _defect(f, tree, slope)
            except expr.EvalError:
                mid = 2 ** (_LEVELS - 1) - 1  # the column of each bracket's midpoint
                levels, values = 1, _defect(f, tree[:, mid : mid + 1], slope)
            group = [b for b, row in zip(group, values) if b.steps(row, levels)]


def _bisection_tree(lo: np.ndarray, hi: np.ndarray, levels: int) -> np.ndarray:
    """The midpoints of the first `levels` bisection steps of each bracket
    [lo[i], hi[i]], shape (len(lo), 2^levels - 1), in position order.

    Row i holds the interior edges of the 2^levels cells of the last level,
    in order; the brackets of level j end at every 2^(levels - j)-th edge,
    so each level's midpoints fill the gaps of the level above, each as
    0.5*lo + 0.5*hi, like `_Bracket.steps`."""
    width = 2**levels
    edges = np.empty((len(lo), width + 1))
    edges[:, 0], edges[:, width] = lo, hi
    for j in range(levels):
        stride = width >> j
        half = 0.5 * edges[:, ::stride]
        np.add(half[:, :-1], half[:, 1:], out=edges[:, stride // 2 :: stride])
    return edges[:, 1:-1]


def _defect(f: Node, xs: np.ndarray, slope: np.ndarray) -> np.ndarray:
    # phi = f' - slope by one f' pass; only its sign is read, and an overflow to inf keeps it
    fprime = calculus.first_derivative_many(f, xs.ravel()).reshape(xs.shape)
    with np.errstate(over="ignore"):
        return fprime - slope


def _scan_block(
    f: Node, ivs: Sequence[Interval], grid: int, tol: float
) -> list[AbscissaResult | _Scan]:
    """The grid scans of `ivs` from one pass: their secant slopes, then f'
    over all their grids; a flat interval's result, or its exact zeros and
    sign-change brackets.  A failing pass or non-finite slope raises."""
    a, b = np.array([iv.a for iv in ivs]), np.array([iv.b for iv in ivs])
    slope = _finite_secants(f, a, b)[:, None]
    xs = a[:, None] + ((b - a) / grid)[:, None] * np.arange(grid + 1)
    xs[:, -1] = b
    phi = _defect(f, xs, slope)
    with np.errstate(over="ignore"):  # an inf allowance reads every finite phi as flat
        flat = np.all(np.abs(phi) <= tol * (1.0 + np.abs(slope)), axis=1).tolist()
    out: list[AbscissaResult | _Scan] = [
        AbscissaResult(iv, s, (), (), True) if is_flat else _Scan(iv, s)
        for iv, s, is_flat in zip(ivs, slope.ravel().tolist(), flat)
    ]
    rows, cols = np.nonzero(phi[:, 1:-1] == 0.0)
    for row, x in zip(rows.tolist(), xs[rows, cols + 1].tolist()):
        if not flat[row]:
            out[row].exact.append(x)
    # strict sign changes; comparing sign bits cannot overflow like a product
    left, right = phi[:, :-1], phi[:, 1:]
    rows, cols = np.nonzero(
        (left != 0.0) & (right != 0.0) & (np.signbit(left) != np.signbit(right))
    )
    for row, lo, hi, p in zip(rows.tolist(), xs[rows, cols].tolist(),
                              xs[rows, cols + 1].tolist(), phi[rows, cols].tolist()):
        if not flat[row]:
            scan = out[row]
            scan.brackets.append(_Bracket(lo, hi, p, scan.slope, tol * scan.iv.width))
    return out


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
    """`find_abscissas` on each interval of `ivs`: one scan pass (slopes and
    grids) per block of intervals, then one lockstep bisection of all their
    brackets.  A failing scan or bisection is halved over its intervals
    (`expr.split_failures`), so an interval whose slope, scan or bisection
    fails, or that has no root, gives its own error in place of a result."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    out: list = []
    per_block = max(1, integrate._EVAL_POINTS // (grid + 1))
    for first in range(0, len(ivs), per_block):
        block = ivs[first : first + per_block]
        for _, scans in expr.split_failures(lambda p: _scan_block(f, p, grid, tol), block):
            out.extend(scans if isinstance(scans, list) else [scans])

    def bisect(ks: list[int]) -> None:
        _bisect(f, [b for k in ks for b in out[k].brackets])

    scanned = [k for k, s in enumerate(out) if isinstance(s, _Scan)]
    for ks, failed in expr.split_failures(bisect, scanned):
        for k in ks:
            try:
                out[k] = failed or _collect(out[k], grid, tol)
            except NoRootError as exc:
                out[k] = exc
    return out


def find_abscissas(
    f: Node, iv: Interval, grid: int = 1024, tol: float = 1e-12
) -> AbscissaResult:
    """All mean value abscissas of f on iv, to bracket width <= tol*(b-a).

    If |f'(x) - slope| stays below tol*(1 + |slope|) on every grid point,
    the defect is flat at zero (affine-like f): degenerate=True and no
    individual abscissas are reported.  tol must be finite and >= 0.
    """
    _check_tol(tol)
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
    _check_tol(tol)
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
