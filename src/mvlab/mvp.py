"""Randomized falsifiers for the weighted mean value properties.

Every checker samples seeded random instances (intervals, ball centers,
radii), measures the defect of the identity under test, and returns a
replayable PropertyVerdict.  A verdict of holds means "no violation found
at the tested scale and tolerance" - these checkers falsify; only the
exact residuals in mvlab.exactpoly prove.

Monte Carlo comparisons use the statistical tolerance max(tol, 4*stderr):
a fixed epsilon cannot be sound across radii and dimensions, while four
standard errors keeps the false-violation probability per trial near
6e-5.  The ball and sphere forms of the n-dimensional property are
believed equivalent; the test suite exercises that equivalence on the
built-in fields, treating it as a claim under test rather than an axiom.

Every checker collects its per-trial residuals and allowances and hands
them to `_verdict`, which raises a DomainError when any of them is inf or
NaN: a residual that could not be computed is a numeric failure, never a
verdict.  The evaluations behind the residuals are checked in
`expr.eval_with` and the Monte Carlo moments in `integrate`.

The 1-D checkers evaluate a block of trials at once: each value they
need (f at the endpoints, f' at the quadrature nodes and probes, by an
order-1 jet pass) comes from one array pass per block, and every
operation after it is elementwise, so each residual has the bits of a
one-trial call.  A block that fails is halved down to the trials that
fail, by the one rule of `expr.split_failures`, so the error raised is
the first failing trial's, found in O(log n) passes.

Each input rule is checked in one place: lambda in (0, 1) by
`exactpoly._check_lambda`, the dimension by `expr.check_dimension`,
ball radius and sphere rules in `integrate`, the box in `_as_box`, the
tolerance in `mvroot._check_tol`, and the trial or point count, with every seeded
instance draw, in `_draw`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import calculus, exactpoly, expr, integrate, mvroot
from .expr import Node
from .integrate import BallSpec, CounterRng
from .mvroot import Interval

__all__ = [
    "WeightSpec",
    "PropertyVerdict",
    "check_weighted_property",
    "check_interval_mvp",
    "check_ball_mvp",
    "check_sphere_mvp",
    "check_harmonicity",
    "check_v_constancy",
    "builtin_fields",
    "list_builtins",
]


@dataclass(frozen=True)
class WeightSpec:
    """Weight lam in (0, 1) plus, for n-dimensional checks, the unit
    direction v of the offset; v may be omitted in one dimension."""

    lam: float
    v: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # exact first (float() overflows on 1e400), then rounded (1e-400 -> 0.0)
        lam = float(exactpoly._check_lambda(self.lam))
        object.__setattr__(self, "lam", exactpoly._check_lambda(lam))
        if self.v is not None:
            object.__setattr__(self, "v", calculus.unit_vector(self.v))


@dataclass(frozen=True)
class PropertyVerdict:
    property_name: str
    holds: bool
    trials: int
    worst_residual: float
    worst_case: dict[str, Any] | None
    tolerance: float
    seed: int
    counterexamples: tuple[dict[str, Any], ...]
    trial_residuals: tuple[float, ...] = field(default=(), repr=False)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "property": self.property_name,
            "holds": self.holds,
            "trials": self.trials,
            "worst_residual": self.worst_residual,
            "worst_case": self.worst_case,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "counterexamples": list(self.counterexamples),
        }
        if self.holds:
            out["note"] = "no violation found at tested scale/tolerance"
        return out


_MAX_COUNTEREXAMPLES = 10


def _verdict(
    name: str,
    g: Node,
    tol: float,
    seed: int,
    residuals: list[float],
    allowed: list[float],
    case: Callable[[int], dict[str, Any]],
) -> PropertyVerdict:
    """Verdict over per-trial residuals: trial i is a violation when
    residuals[i] > allowed[i]; the worst case is the first maximal one.
    `case(i)` describes trial i; only the worst trial and the reported
    counterexamples are described, so memory stays per-trial floats.  A
    non-finite residual or allowance is a DomainError."""
    if not all(map(math.isfinite, itertools.chain(residuals, allowed))):
        raise expr.DomainError(g, "non-finite residual")
    violations = (i for i, (r, a) in enumerate(zip(residuals, allowed)) if r > a)
    counterexamples = tuple(
        {**case(i), "residual": residuals[i]}
        for i in itertools.islice(violations, _MAX_COUNTEREXAMPLES)
    )
    worst = max(range(len(residuals)), key=residuals.__getitem__)
    return PropertyVerdict(
        property_name=name,
        holds=not counterexamples,
        trials=len(residuals),
        worst_residual=residuals[worst],
        worst_case=case(worst),
        tolerance=tol,
        seed=seed,
        counterexamples=counterexamples,
        trial_residuals=tuple(residuals),
    )


def _draw(ranges: Sequence[tuple[float, float]], count: int, seed: int, what: str) -> np.ndarray:
    """`count` seeded points lo + u * (hi - lo) in the box `ranges`, one per row."""
    if count < 1:
        raise ValueError(f"need {what} >= 1")
    k = len(ranges)
    lo, hi = np.array(ranges, dtype=float).T
    return lo + CounterRng(seed).uniforms(count * k).reshape(count, k) * (hi - lo)


def _sample_intervals(
    domain: Interval, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (a, b) of seeded random subintervals of `domain`, of width
    >= width/100 so secant slopes stay clear of catastrophic cancellation."""
    u1, u2 = _draw([(0.0, 1.0)] * 2, trials, seed, "trials").T
    gap = domain.width / 100.0
    a = domain.a + u1 * (domain.width - gap)
    b = a + gap + u2 * (domain.b - a - gap)
    return a, b


def _check_intervals(lo: np.ndarray, hi: np.ndarray) -> None:
    # an interval that rounds shut fails as mvroot.Interval fails it
    if not np.all(lo < hi):
        for a, b in zip(lo.tolist(), hi.tolist()):
            Interval(a, b)


def _blocked_residuals(
    residuals_of: Callable[..., np.ndarray], block: int, *columns: np.ndarray
) -> np.ndarray:
    """`residuals_of` over blocks of at most `block` trials, one row of
    each of `columns` per trial.  Each block's residuals are elementwise,
    so each has the bits of a one-trial call.  A block that fails is
    halved down to the trials that fail (`expr.split_failures`), and the
    first failing trial's error is raised."""
    trials = len(columns[0])
    out = np.empty(trials)

    def run(rows: range) -> np.ndarray:
        return residuals_of(*(c[rows.start : rows.stop] for c in columns))

    for i in range(0, trials, block):
        for rows, residuals in expr.split_failures(run, range(i, min(i + block, trials))):
            if isinstance(residuals, ValueError):  # expr.EvalError or a shut interval
                raise residuals
            out[rows.start : rows.stop] = residuals
    return out


def _weighted_residuals(f: Node, lam: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Residuals of a block of check_weighted_property trials: the literal
    secant (f(b) - f(a))/(b - a) by one eval_many of each end (the helper
    `mvroot` scans with), then f' at every probe by one order-1 pass."""
    _check_intervals(a, b)
    # an overflowing secant is not raised here: the block's f' is still
    # computed, so an f' that overflows is the error reported, else _verdict
    # refuses the NaN
    slope = mvroot._secants(f, a, b)
    deriv = calculus.first_derivative_many(f, lam * a + (1.0 - lam) * b)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(slope - deriv) / (1.0 + np.abs(slope))


def check_weighted_property(
    f: Node,
    lam: float,
    trials: int,
    domain: Interval,
    seed: int,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Does (f(b) - f(a))/(b - a) = f'(lam*a + (1-lam)*b) on random
    subintervals of `domain`?  Residuals are relative to 1 + |slope|.
    Blocks of up to integrate._EVAL_POINTS trials share one array pass."""
    lam = WeightSpec(lam).lam
    mvroot._check_tol(tol)
    a, b = _sample_intervals(domain, trials, seed)
    residuals = _blocked_residuals(
        lambda a, b: _weighted_residuals(f, lam, a, b), integrate._EVAL_POINTS, a, b
    )
    return _verdict(
        f"weighted-mean-value(lambda={lam!r})", f, tol, seed, residuals.tolist(),
        [tol] * trials, lambda i: {"a": float(a[i]), "b": float(b[i])},
    )


# Gauss-Legendre rule for the interval average of f' in check_interval_mvp:
# 8 panels of 16 nodes, exact for polynomials of degree <= 31; the nodes and
# probe of up to _EVAL_POINTS // 129 trials are evaluated in one pass
_INTERVAL_PANELS = 8
_INTERVAL_NODES = 16
_INTERVAL_BLOCK = integrate._EVAL_POINTS // (_INTERVAL_PANELS * _INTERVAL_NODES + 1)


def _interval_residuals(f: Node, lam: float, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Residuals of a block of check_interval_mvp trials.  One order-1 pass
    gives f' at every trial's nodes and at its probe x + (1-2*lam)*h; each
    trial keeps its own dot product."""
    lo, hi = x - h, x + h
    _check_intervals(lo, hi)
    nodes, weights = integrate._composite_rule(lo, hi, _INTERVAL_PANELS, _INTERVAL_NODES)
    points = np.concatenate([nodes, (x + (1.0 - 2.0 * lam) * h)[:, None]], axis=1)
    values = calculus.first_derivative_many(f, points.ravel()).reshape(points.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # _verdict refuses inf and NaN
        totals = np.array([np.dot(w, v) for w, v in zip(weights, values[:, :-1])])
        average = totals / (2.0 * h)
        return np.abs(average - values[:, -1]) / (1.0 + np.abs(average))


def check_interval_mvp(
    f: Node,
    lam: float,
    trials: int,
    domain: Interval,
    seed: int,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Does f'(x + (1-2*lam)*h) equal the quadrature average of f' over
    [x-h, x+h]?  Equivalent to check_weighted_property via the fundamental
    theorem of calculus under x = (a+b)/2, h = (b-a)/2; both exist so that
    equivalence itself can be tested.  Shares interval sampling with
    check_weighted_property given the same (domain, trials, seed)."""
    lam = WeightSpec(lam).lam
    mvroot._check_tol(tol)
    a, b = _sample_intervals(domain, trials, seed)
    x, h = 0.5 * (a + b), 0.5 * (b - a)
    residuals = _blocked_residuals(
        lambda x, h: _interval_residuals(f, lam, x, h), _INTERVAL_BLOCK, x, h
    )
    return _verdict(
        f"interval-average(lambda={lam!r})", f, tol, seed, residuals.tolist(),
        [tol] * trials, lambda i: {"x": float(x[i]), "h": float(h[i])},
    )


def _as_box(box: Any, n: int) -> list[tuple[float, float]]:
    given = list(box)
    box = [tuple(given)] * n if given and isinstance(given[0], (int, float)) else given
    if any(len(r) != 2 for r in box):
        raise ValueError(f"box {given} must give each coordinate a (lo, hi) range")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != n:
        raise ValueError(f"box has {len(box)} coordinate ranges, need {n}")
    for lo, hi in box:
        if not (lo < hi and math.isfinite(hi - lo)):  # points are lo + u*(hi - lo)
            raise ValueError(f"invalid box range ({lo}, {hi})")
    return box


def _require_direction(w: WeightSpec, n: int) -> tuple[float, ...]:
    if w.v is None:
        if w.lam == 0.5:
            return tuple([1.0] + [0.0] * (n - 1))  # offset vanishes anyway
        raise ValueError("a direction v is required when lambda != 1/2")
    if len(w.v) != n:
        raise ValueError(f"v has dimension {len(w.v)}, need {n}")
    return w.v


def _check_offset_average(
    name: str,
    g: Node,
    w: WeightSpec,
    trials: int,
    box: Any,
    samples: int,
    seed: int,
    n: int,
    tol: float,
    radius_range: tuple[float, float],
    on_sphere: bool,
) -> PropertyVerdict:
    expr.check_dimension(g, n)
    mvroot._check_tol(tol)
    if samples < 10_000:
        raise ValueError("need samples >= 10000")
    ranges = _as_box(box, n)
    v = _require_direction(w, n)
    h_lo, h_hi = radius_range
    if not 0.0 < h_lo <= h_hi:
        raise ValueError(f"invalid radius range {radius_range}")
    average = integrate.mc_sphere_average if on_sphere else integrate.mc_ball_average

    # the radius range is one more coordinate of the draw; hmin == hmax is fine
    draws = _draw(ranges + [(h_lo, h_hi)], trials, seed, "trials")
    centers, radii = draws[:, :n].tolist(), draws[:, n].tolist()
    residuals, allowed, cases = [], [], []
    for t, (center, h) in enumerate(zip(centers, radii)):
        offset = (1.0 - 2.0 * w.lam) * h
        probe = tuple(c + offset * vi for c, vi in zip(center, v))
        spec = BallSpec(center, h, n)
        est = average(g, spec, samples, CounterRng(seed).split(t).seed)
        lhs = expr.evaluate(g, {i + 1: probe[i] for i in range(n)})
        residuals.append(abs(lhs - est.estimate))
        allowed.append(max(tol, 4.0 * est.stderr))
        cases.append({"center": center, "h": h, "stderr": est.stderr, "allowed": allowed[-1]})
    return _verdict(name, g, tol, seed, residuals, allowed, cases.__getitem__)


def check_ball_mvp(
    g: Node,
    w: WeightSpec,
    trials: int,
    box: Any,
    samples: int,
    seed: int,
    n: int,
    tol: float = 1e-9,
    radius_range: tuple[float, float] = (0.2, 1.0),
) -> PropertyVerdict:
    """Does g(x + (1-2*lam)*h*v) equal the average of g over the ball
    B_h(x), for random centers x in `box` and radii h?  A trial violates
    when the gap exceeds max(tol, 4*stderr)."""
    return _check_offset_average(
        f"ball-average(lambda={w.lam!r})",
        g, w, trials, box, samples, seed, n, tol, radius_range, on_sphere=False,
    )


def check_sphere_mvp(
    g: Node,
    w: WeightSpec,
    trials: int,
    box: Any,
    samples: int,
    seed: int,
    n: int,
    tol: float = 1e-9,
    radius_range: tuple[float, float] = (0.2, 1.0),
) -> PropertyVerdict:
    """Sphere form of check_ball_mvp: the average runs over the boundary
    sphere of B_h(x) instead of the solid ball (dimension >= 2)."""
    return _check_offset_average(
        f"sphere-average(lambda={w.lam!r})",
        g, w, trials, box, samples, seed, n, tol, radius_range, on_sphere=True,
    )


def _sample_points(box: Any, n: int, count: int, seed: int) -> np.ndarray:
    """`count` seeded points uniform in `box`, shape (count, n)."""
    return _draw(_as_box(box, n), count, seed, "points")


def check_harmonicity(
    g: Node,
    n: int,
    points: int,
    box: Any,
    seed: int,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Is the sum of second partials of g zero at random points of `box`?
    Violation when |laplacian| > tol * (1 + |g|)."""
    expr.check_dimension(g, n)
    mvroot._check_tol(tol)
    pts = _sample_points(box, n, points, seed)
    values, deltas = calculus.laplacian_many(g, pts)
    with np.errstate(over="ignore"):  # past the largest double, every finite residual is allowed
        allowed = np.minimum(tol * (1.0 + np.abs(values)), np.finfo(float).max)
    return _verdict(
        "harmonicity", g, tol, seed, np.abs(deltas).tolist(), allowed.tolist(),
        lambda i: {"point": pts[i].tolist()},
    )


def check_v_constancy(
    g: Node,
    v: Sequence[float],
    n: int,
    points: int,
    box: Any,
    seed: int,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Is the directional derivative of g along the unit vector v zero at
    random points of `box`?"""
    expr.check_dimension(g, n)
    mvroot._check_tol(tol)
    pts = _sample_points(box, n, points, seed)
    derivs = calculus.directional_derivative_many(g, pts, v)
    return _verdict(
        "v-constancy", g, tol, seed, np.abs(derivs).tolist(), [tol] * points,
        lambda i: {"point": pts[i].tolist()},
    )


# ---------------------------------------------------------------------------
# Built-in field library
#
# The n-dimensional family behind the weighted property: harmonic in the
# coordinates orthogonal to v, constant along v.  harmonic2d_k is the real
# part of (x1 + i*x2)^k expanded as a polynomial.

_HARMONIC2D = {
    0: "1",
    1: "x1",
    2: "x1^2 - x2^2",
    3: "x1^3 - 3*x1*x2^2",
    4: "x1^4 - 6*x1^2*x2^2 + x2^4",
    5: "x1^5 - 10*x1^3*x2^2 + 5*x1*x2^4",
    6: "x1^6 - 15*x1^4*x2^2 + 15*x1^2*x2^4 - x2^6",
}


def list_builtins() -> tuple[str, ...]:
    names = [f"harmonic2d_{k}" for k in sorted(_HARMONIC2D)]
    names += [f"coordinate_{i}" for i in range(1, expr.MAX_VARIABLES + 1)]
    names += ["radial_sq", "vconst_harmonic", "affine"]
    return tuple(names)


def _catalog_index(name: str, prefix: str) -> int:
    # the index as `list_builtins` spells it: decimal, no sign, space or leading zero
    text = name.removeprefix(prefix)
    try:
        index = int(text)
    except ValueError:  # not a number, or longer than int() reads
        index = -1
    if index < 0 or str(index) != text:
        raise KeyError(f"unknown builtin field {name!r}")
    return index


def builtin_fields(name: str, n: int) -> Node:
    """Catalog of named test fields in dimension n.

    harmonic2d_k: Re((x1 + i*x2)^k), k <= 6 (needs n >= 2);
    coordinate_i: the i-th coordinate (i <= n);
    radial_sq: x1^2 + ... + xn^2;
    vconst_harmonic: harmonic2d_2 in (x1, x2) lifted to n >= 3, constant
    in the remaining coordinates;
    affine: 2 + sum_i i*xi with fixed coefficients.
    """
    expr.check_dimension(None, n)
    if name.startswith("harmonic2d_"):
        k = _catalog_index(name, "harmonic2d_")
        if k not in _HARMONIC2D:
            raise KeyError(f"harmonic2d_k supports k in 0..6, got {k}")
        if n < 2:
            raise ValueError("harmonic2d_k needs dimension >= 2")
        return expr.parse(_HARMONIC2D[k])
    if name.startswith("coordinate_"):
        i = _catalog_index(name, "coordinate_")
        if not 1 <= i <= expr.MAX_VARIABLES:
            raise KeyError(f"coordinate_i supports i in 1..{expr.MAX_VARIABLES}, got {i}")
        if i > n:
            raise ValueError(f"coordinate_{i} needs dimension >= {i}")
        return expr.parse(f"x{i}")
    if name == "radial_sq":
        return expr.parse(" + ".join(f"x{i}^2" for i in range(1, n + 1)))
    if name == "vconst_harmonic":
        if n < 3:
            raise ValueError("vconst_harmonic needs dimension >= 3")
        return expr.parse(_HARMONIC2D[2])
    if name == "affine":
        return expr.parse("2 + " + " + ".join(f"{i}*x{i}" for i in range(1, n + 1)))
    raise KeyError(f"unknown builtin field {name!r}")
