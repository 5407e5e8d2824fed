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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import calculus, expr, integrate, mvroot
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
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.v is not None:
            v = tuple(float(c) for c in self.v)
            object.__setattr__(self, "v", v)
            norm = math.sqrt(sum(c * c for c in v))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"v must be a unit vector (|v| = {norm!r})")


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


class _Recorder:
    """Aggregates per-trial residuals into a PropertyVerdict."""

    def __init__(self, name: str, tolerance: float, seed: int):
        self.name = name
        self.tolerance = tolerance
        self.seed = seed
        self.residuals: list[float] = []
        self.worst = -1.0
        self.worst_case: dict[str, Any] | None = None
        self.counterexamples: list[dict[str, Any]] = []

    def record(
        self, residual: float, case: dict[str, Any], violated: bool
    ) -> None:
        self.residuals.append(residual)
        if residual > self.worst:
            self.worst = residual
            self.worst_case = case
        if violated and len(self.counterexamples) < _MAX_COUNTEREXAMPLES:
            self.counterexamples.append({**case, "residual": residual})

    def verdict(self) -> PropertyVerdict:
        return PropertyVerdict(
            property_name=self.name,
            holds=not self.counterexamples,
            trials=len(self.residuals),
            worst_residual=max(self.worst, 0.0),
            worst_case=self.worst_case,
            tolerance=self.tolerance,
            seed=self.seed,
            counterexamples=tuple(self.counterexamples),
            trial_residuals=tuple(self.residuals),
        )


def _sample_intervals(
    domain: Interval, trials: int, seed: int
) -> list[tuple[float, float]]:
    """Seeded random subintervals of `domain`, separated by >= width/100
    so secant slopes stay clear of catastrophic cancellation."""
    u1, u2 = CounterRng(seed).uniforms(2 * trials).reshape(trials, 2).T
    gap = domain.width / 100.0
    a = domain.a + u1 * (domain.width - gap)
    b = a + gap + u2 * (domain.b - a - gap)
    return list(zip(a.tolist(), b.tolist()))


def check_weighted_property(
    f: Node,
    lam: float,
    trials: int,
    domain: Interval,
    seed: int,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Does (f(b) - f(a))/(b - a) = f'(lam*a + (1-lam)*b) on random
    subintervals of `domain`?  Residuals are relative to 1 + |slope|."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    rec = _Recorder(f"weighted-mean-value(lambda={lam!r})", tol, seed)
    for a, b in _sample_intervals(domain, trials, seed):
        slope = mvroot.average_slope(f, Interval(a, b))
        c = lam * a + (1.0 - lam) * b
        deriv = calculus.derivatives_1d(f, c)[1]
        residual = abs(slope - deriv) / (1.0 + abs(slope))
        rec.record(residual, {"a": a, "b": b}, residual > tol)
    return rec.verdict()


def check_interval_mvp(
    f: Node,
    lam: float,
    trials: int,
    domain: Interval,
    seed: int,
    tol: float = 1e-8,
    panels: int = 8,
    nodes: int = 16,
) -> PropertyVerdict:
    """Does f'(x + (1-2*lam)*h) equal the quadrature average of f' over
    [x-h, x+h]?  Equivalent to check_weighted_property via the fundamental
    theorem of calculus under x = (a+b)/2, h = (b-a)/2; both exist so that
    equivalence itself can be tested.  Shares interval sampling with
    check_weighted_property given the same (domain, trials, seed)."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    rec = _Recorder(f"interval-average(lambda={lam!r})", tol, seed)
    fprime = lambda xs: calculus.first_derivative_many(f, xs)  # noqa: E731
    for a, b in _sample_intervals(domain, trials, seed):
        x = 0.5 * (a + b)
        h = 0.5 * (b - a)
        average = integrate.integrate_1d(fprime, x - h, x + h, panels, nodes) / (
            2.0 * h
        )
        deriv = calculus.derivatives_1d(f, x + (1.0 - 2.0 * lam) * h)[1]
        residual = abs(average - deriv) / (1.0 + abs(average))
        rec.record(residual, {"x": x, "h": h}, residual > tol)
    return rec.verdict()


def _as_box(box: Any, n: int) -> list[tuple[float, float]]:
    box = list(box)
    if box and isinstance(box[0], (int, float)):
        box = [tuple(box)] * n
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != n:
        raise ValueError(f"box has {len(box)} coordinate ranges, need {n}")
    for lo, hi in box:
        if not lo < hi:
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
    threads: int,
    on_sphere: bool,
) -> PropertyVerdict:
    if trials < 1:
        raise ValueError("need trials >= 1")
    if samples < 10_000:
        raise ValueError("need samples >= 10000")
    if on_sphere and n < 2:
        raise ValueError("sphere checks need dimension >= 2")
    ranges = _as_box(box, n)
    v = _require_direction(w, n)
    h_lo, h_hi = radius_range
    if not 0.0 < h_lo <= h_hi:
        raise ValueError(f"invalid radius range {radius_range}")
    average = integrate.mc_sphere_average if on_sphere else integrate.mc_ball_average

    rec = _Recorder(name, tol, seed)
    rng = CounterRng(seed)
    draws = rng.uniforms(trials * (n + 1)).reshape(trials, n + 1)
    lo, hi = np.array(ranges).T
    centers = (lo + draws[:, :n] * (hi - lo)).tolist()
    radii = (h_lo + draws[:, n] * (h_hi - h_lo)).tolist()
    for t, (center, h) in enumerate(zip(centers, radii)):
        offset = (1.0 - 2.0 * w.lam) * h
        probe = tuple(c + offset * vi for c, vi in zip(center, v))
        spec = BallSpec(center, h, n)
        est = average(g, spec, samples, rng.split(t).seed, threads)
        lhs = expr.evaluate(g, {i + 1: probe[i] for i in range(n)})
        residual = abs(lhs - est.estimate)
        allowed = max(tol, 4.0 * est.stderr)
        rec.record(
            residual,
            {
                "center": center,
                "h": h,
                "stderr": est.stderr,
                "allowed": allowed,
            },
            residual > allowed,
        )
    return rec.verdict()


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
    threads: int = 1,
) -> PropertyVerdict:
    """Does g(x + (1-2*lam)*h*v) equal the average of g over the ball
    B_h(x), for random centers x in `box` and radii h?  A trial violates
    when the gap exceeds max(tol, 4*stderr)."""
    return _check_offset_average(
        f"ball-average(lambda={w.lam!r})",
        g, w, trials, box, samples, seed, n, tol, radius_range, threads,
        on_sphere=False,
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
    threads: int = 1,
) -> PropertyVerdict:
    """Sphere form of check_ball_mvp: the average runs over the boundary
    sphere of B_h(x) instead of the solid ball (dimension >= 2)."""
    return _check_offset_average(
        f"sphere-average(lambda={w.lam!r})",
        g, w, trials, box, samples, seed, n, tol, radius_range, threads,
        on_sphere=True,
    )


def _sample_points(box: Any, n: int, count: int, seed: int) -> np.ndarray:
    """`count` seeded points uniform in `box`, shape (count, n)."""
    if count < 1:
        raise ValueError("need points >= 1")
    lo, hi = np.array(_as_box(box, n)).T
    return lo + CounterRng(seed).uniforms(count * n).reshape(count, n) * (hi - lo)


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
    rec = _Recorder("harmonicity", tol, seed)
    pts = _sample_points(box, n, points, seed)
    values, deltas = calculus.laplacian_many(g, pts)
    for pt, value, delta in zip(pts.tolist(), values.tolist(), deltas.tolist()):
        rec.record(abs(delta), {"point": pt}, abs(delta) > tol * (1.0 + abs(value)))
    return rec.verdict()


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
    rec = _Recorder("v-constancy", tol, seed)
    pts = _sample_points(box, n, points, seed)
    derivs = calculus.directional_derivative_many(g, pts, v)
    for pt, deriv in zip(pts.tolist(), derivs.tolist()):
        rec.record(abs(deriv), {"point": pt}, abs(deriv) > tol)
    return rec.verdict()


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


def builtin_fields(name: str, n: int) -> Node:
    """Catalog of named test fields in dimension n.

    harmonic2d_k: Re((x1 + i*x2)^k), k <= 6 (needs n >= 2);
    coordinate_i: the i-th coordinate (i <= n);
    radial_sq: x1^2 + ... + xn^2;
    vconst_harmonic: harmonic2d_2 in (x1, x2) lifted to n >= 3, constant
    in the remaining coordinates;
    affine: 2 + sum_i i*xi with fixed coefficients.
    """
    if not 1 <= n <= expr.MAX_VARIABLES:
        raise ValueError(f"dimension must be 1..{expr.MAX_VARIABLES}, got {n}")
    if name.startswith("harmonic2d_"):
        try:
            k = int(name.removeprefix("harmonic2d_"))
        except ValueError:
            raise KeyError(f"unknown builtin field {name!r}") from None
        if k not in _HARMONIC2D:
            raise KeyError(f"harmonic2d_k supports k in 0..6, got {k}")
        if n < 2:
            raise ValueError("harmonic2d_k needs dimension >= 2")
        return expr.parse(_HARMONIC2D[k])
    if name.startswith("coordinate_"):
        try:
            i = int(name.removeprefix("coordinate_"))
        except ValueError:
            raise KeyError(f"unknown builtin field {name!r}") from None
        if not 1 <= i <= n:
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
