"""Deterministic 1-D quadrature and seeded Monte Carlo over balls/spheres.

Randomness comes from a 64-bit counter-based generator: draw i of a
stream with seed s is mix64(s + (i+1) * GOLDEN), where mix64 is the
splitmix64 finalizer.  Outputs are pure functions of (seed, counter).  A
ball or sphere direction is one angle in n = 2, an angle and Archimedes'
uniform z in n = 3 (no Gaussians, norm or division), and a normalized
Gaussian vector otherwise; `_box_muller` alone lays out Box-Muller pairs,
and `_counters_used` states what a ball or sphere draw consumes.  Within a
call, draws are made in place, in cache-sized blocks of consecutive
counters, so blocking never changes a bit; buffers are local to each call.
A Monte Carlo average of `samples` points is one such draw from counter 0,
the points of one `sample_*_many(spec, CounterRng(seed), samples)` call.
It is sampled and evaluated in order, in blocks of at most _EVAL_POINTS
points that reuse one point buffer, and the blocks' moments merge left to
right, so the block size and merge order fix the bits and peak memory does
not grow with `samples`.

Ball volumes use the integer-dimension recursion V_1 = 2h, V_2 = pi h^2,
V_n = (2 pi h^2 / n) V_{n-2}; no Gamma function is needed for n <= 10.
`_check_ball` states the ball rules (dimension, positive finite radius),
`_check_sphere` the sphere rule, for the sampler and the averages alike:
n = 1 degenerates to two points, which the interval checkers in mvlab.mvp
already cover.

Integrand values are checked in `expr.eval_with`; an inf or NaN merged
mean or standard error, or 1-D integral of an expression (a sum of huge
finite values can overflow), is a DomainError too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import expr, mvroot
from .expr import Node

__all__ = [
    "GOLDEN",
    "mix64",
    "CounterRng",
    "BallSpec",
    "McEstimate",
    "McDomainError",
    "integrate_1d",
    "ball_volume",
    "sphere_area",
    "sample_ball_many",
    "sample_sphere_many",
    "mc_ball_average",
    "mc_sphere_average",
]

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_SPLIT_KEY = 0x6A09E667F3BCC908  # frac(sqrt(2)) * 2^64, folded into split seeds

_U64 = np.uint64
_INV_2_53 = float(2.0**-53)
_BLOCK = 1 << 14  # draws per cache-resident block
_STRIDES = np.arange(_BLOCK, dtype=_U64) * _U64(GOLDEN)  # i * GOLDEN mod 2^64
_STRIDES.flags.writeable = False


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python, exact)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fill_uniforms(seed: int, first: int, out: np.ndarray) -> np.ndarray:
    """out[i] = draw first + i of stream `seed`, len(out) <= _BLOCK; in place."""
    z = _STRIDES[: len(out)] + _U64((seed + (first + 1) * GOLDEN) & _MASK)
    t = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 0)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        if mult:
            z *= _U64(mult)
    np.right_shift(z, _U64(11), out=t)
    return np.multiply(t, _INV_2_53, out=out)


def _box_muller(seed: int, first: int, pairs: int, j: int, out: np.ndarray) -> None:
    """Fill `out` (even length) with the normals of pairs j, j+1, ... of a
    draw of `pairs` Box-Muller pairs from counter `first`: pair i reads u1
    at counter first + i and u2 at first + pairs + i."""
    r = _fill_uniforms(seed, first + j, np.empty(len(out) // 2))
    theta = _fill_uniforms(seed, first + pairs + j, np.empty(len(out) // 2))
    np.negative(r, out=r)
    np.log1p(r, out=r)  # 1-u1 in (0, 1], log is finite
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * math.pi
    np.multiply(r, np.cos(theta), out=out[0::2])
    np.multiply(r, np.sin(theta), out=out[1::2])


class CounterRng:
    """Counter-based uniform/Gaussian stream, addressable and splittable.

    Every output is a pure function of (seed, counter); `split(i)` derives
    stream i via mix64((seed ^ _SPLIT_KEY) + (i+1)*GOLDEN), so a split
    seed is not output i of this stream.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK
        self.counter = counter

    def split(self, i: int) -> "CounterRng":
        return CounterRng(mix64((self.seed ^ _SPLIT_KEY) + (i + 1) * GOLDEN))

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles uniform in [0, 1), consuming `count` counters."""
        out = np.empty(count)
        for j in range(0, count, _BLOCK):
            _fill_uniforms(self.seed, self.counter + j, out[j : j + _BLOCK])
        self.counter += count
        return out

    def gaussians(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller (no rejection, counter-exact),
        from (count + 1) // 2 pairs laid out as `_box_muller` states."""
        pairs = (count + 1) // 2
        out = np.empty(2 * pairs)
        for j in range(0, pairs, _BLOCK):
            _box_muller(self.seed, self.counter, pairs, j, out[2 * j : 2 * (j + _BLOCK)])
        self.counter += 2 * pairs
        return out[:count]


@dataclass(frozen=True)
class BallSpec:
    """Ball of radius `radius` centered at `center` in R^dim, 1 <= dim <= 10."""

    center: tuple[float, ...]
    radius: float
    dim: int

    def __init__(self, center: Sequence[float], radius: float, dim: int | None = None):
        center = tuple(float(c) for c in center)
        if dim is None:
            dim = len(center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "dim", int(dim))
        _check_ball(self.dim, self.radius)
        if len(self.center) != self.dim:
            raise ValueError("center length does not match dim")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("center coordinates must be finite")


def _check_ball(n: int, h: float) -> None:
    expr.check_dimension(None, n)
    if not (math.isfinite(h) and h > 0):
        raise ValueError("radius must be positive and finite")


def _check_sphere(n: int) -> None:
    expr.check_dimension(None, n)
    if n < 2:
        raise ValueError("a sphere needs dimension >= 2; in n = 1 use the interval checkers")


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float  # sample standard deviation / sqrt(samples)
    samples: int
    seed: int


class McDomainError(expr.EvalError):
    """The integrand left its domain at a sampled point."""

    def __init__(self, point: tuple[float, ...], cause: expr.DomainError):
        self.point = point
        self.cause = cause
        super().__init__(f"integrand undefined at sampled point {point}: {cause}")


# ---------------------------------------------------------------------------
# Quadrature

Integrand = Union[Node, Callable[[np.ndarray], np.ndarray]]


def _integrand_values(f: Integrand, points: np.ndarray) -> np.ndarray:
    if callable(f):
        return np.asarray(f(points), dtype=float)
    # a constant integrand still binds x1 so eval_many returns an array
    return expr.eval_many(f, expr._bind_univariate(f, points))


def integrate_1d(
    f: Integrand, a: float, b: float, panels: int = 64, nodes: int = 16
) -> float:
    """Composite Gauss-Legendre quadrature of f over [a, b].

    `panels` equal panels of `nodes` points each; exact (to roundoff) for
    polynomials of degree <= 2*nodes - 1.  The integrand is a parsed
    expression or a vectorized callable.  [a, b] follows the
    `mvroot.Interval` rules.  An expression whose weighted sum overflows
    raises DomainError; a callable's sum is returned unchecked, for its
    caller to check (mvp's interval checker refuses it as a residual).
    """
    mvroot.Interval(a, b)
    if panels < 1 or nodes < 1:
        raise ValueError("panels and nodes must be >= 1")
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])  # (panels,)
    mid = 0.5 * (edges[1:] + edges[:-1])
    points = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    values = _integrand_values(f, points)
    with np.errstate(over="ignore"):
        total = float(np.dot(weights, values))
    if not callable(f) and not math.isfinite(total):
        raise expr.DomainError(f, "non-finite integral")
    return total


# ---------------------------------------------------------------------------
# Ball geometry


def ball_volume(n: int, h: float) -> float:
    """Volume of the n-ball of radius h via the two-step recursion."""
    _check_ball(n, h)
    return _volume_recursion(n, h)


def _volume_recursion(n: int, h):
    # no validation; generic arithmetic so tests can push complex steps through
    if n == 1:
        return 2 * h
    if n == 2:
        return math.pi * h * h
    return (2 * math.pi * h * h / n) * _volume_recursion(n - 2, h)


def sphere_area(n: int, h: float) -> float:
    """Surface area of the (n-1)-sphere of radius h: n * V_n(h) / h."""
    _check_sphere(n)
    return n * ball_volume(n, h) / h


# ---------------------------------------------------------------------------
# Sampling


def _points_per_block(dim: int) -> int:
    return _BLOCK // dim // 2 * 2  # even, so no Box-Muller pair straddles blocks


def _fill_columns(
    spec: BallSpec, seed: int, first: int, count: int, q: int, out: np.ndarray,
    on_sphere: bool,
) -> None:
    """Fill the (dim, m) columns `out` with points q..q+m-1 of a draw of
    `count` points from counter `first`, laid out as `_counters_used` states.
    In n = 2 and 3 each point reads its own counters.  Otherwise the draws
    are those of one gaussians(count*dim) call (point-major), and q is even
    (or q+m = count), so no Box-Muller pair straddles two calls."""
    n = spec.dim
    radii = first + _counters_used(count, n, on_sphere=True)  # after all directions
    step, end = _points_per_block(n), q + out.shape[1]
    g = np.empty(step * n)
    for p in range(q, end, step):
        m = min(step, end - p)
        block = out[:, p - q : p - q + m]
        if n in (2, 3):  # angle phi = pi (2u - 1) at counter first + p
            phi = _fill_uniforms(seed, first + p, g[:m])
            phi *= 2.0
            phi -= 1.0  # exact; libm's sin/cos are cheaper on [-pi, pi) than on [0, 2 pi)
            phi *= math.pi
            np.cos(phi, out=block[0])
            np.sin(phi, out=block[1])
            if n == 3:  # Archimedes: z = 1 - 2u at first + count + p is uniform
                z = _fill_uniforms(seed, first + count + p, block[2])
                z *= -2.0
                z += 1.0
                s = np.subtract(1.0, z, out=g[:m])  # 1 - z and 1 + z are exact
                s *= np.add(1.0, z, out=g[m : 2 * m])
                np.sqrt(s, out=s)  # sqrt(1 - z^2), accurate near the poles
                block[:2] *= s
        else:
            _box_muller(seed, first, (count * n + 1) // 2, p * n // 2,
                        g[: 2 * ((m * n + 1) // 2)])
            rows = g[: m * n].reshape(m, n)
            block[...] = rows.T
            if n >= 8:  # keep numpy's pairwise sum order for long rows
                norms = np.linalg.norm(rows, axis=1)
            else:  # numpy sums rows shorter than 8 left to right: same bits
                norms = np.sqrt(sum(row * row for row in block))
            norms[norms == 0.0] = 1.0  # astronomically unlikely; point degrades to center
            block /= norms
        if not on_sphere:  # radii h * U^(1/n)
            u = _fill_uniforms(seed, radii + p, np.empty(m))
        block *= spec.radius if on_sphere else spec.radius * u ** (1.0 / n)
        block += np.asarray(spec.center)[:, None]


def _sample(spec: BallSpec, rng: CounterRng, count: int, on_sphere: bool) -> np.ndarray:
    out = np.empty((spec.dim, count))
    _fill_columns(spec, rng.seed, rng.counter, count, 0, out, on_sphere)
    rng.counter += _counters_used(count, spec.dim, on_sphere)
    return out.T  # rows are points; the columns stay contiguous


def sample_ball_many(spec: BallSpec, rng: CounterRng, count: int) -> np.ndarray:
    """`count` points uniform in the ball, shape (count, dim).

    Direction: (cos phi, sin phi) in n = 2 and (s cos phi, s sin phi, z)
    with z uniform on [-1, 1] and s = sqrt(1 - z^2) in n = 3, for phi
    uniform on [-pi, pi); a normalized standard Gaussian vector in other
    dimensions.  Radius: h * U^(1/dim); the polynomial radial law is what
    makes the density uniform in volume.
    """
    return _sample(spec, rng, count, on_sphere=False)


def sample_sphere_many(spec: BallSpec, rng: CounterRng, count: int) -> np.ndarray:
    """`count` points uniform on the bounding sphere, shape (count, dim)."""
    _check_sphere(spec.dim)
    return _sample(spec, rng, count, on_sphere=True)


def _counters_used(count: int, dim: int, on_sphere: bool) -> int:
    """Counters sample_{ball,sphere}_many use: the directions, then one
    radius per ball point.  Directions take one angle per point in n = 2,
    an angle and a z per point in n = 3, else (count*dim + 1) // 2
    Box-Muller pairs."""
    directions = count * (dim - 1) if dim in (2, 3) else 2 * ((count * dim + 1) // 2)
    return directions + (0 if on_sphere else count)


# ---------------------------------------------------------------------------
# Monte Carlo averages

_EVAL_POINTS = 1 << 15  # points sampled and evaluated per block of a draw


def _eval_at_points(g: Node, points: np.ndarray) -> np.ndarray:
    try:
        # points are rows over contiguous coordinate columns
        return expr.eval_many(g, dict(enumerate(points.T, start=1)))
    except expr.DomainError as err:
        if len(points) > 1:  # checks are elementwise: halve to the first bad row
            half = len(points) // 2
            _eval_at_points(g, points[:half])
            _eval_at_points(g, points[half:])
        raise McDomainError(tuple(points[0].tolist()), err) from None


def _merge_moments(
    a: tuple[int, float, float], b: tuple[int, float, float]
) -> tuple[int, float, float]:
    # Chan's parallel update of (count, mean, sum of squared deviations)
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    return n, mean, sa + sb + delta * delta * (na * nb / n)


def _mc_average(
    g: Node, spec: BallSpec, samples: int, seed: int, on_sphere: bool
) -> McEstimate:
    expr.check_dimension(g, spec.dim)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    # blocks run in order, so a domain error names the draw's first bad point
    step = _points_per_block(spec.dim)
    size = min(samples, _EVAL_POINTS // step * step)  # whole sampler blocks
    buf = np.empty((spec.dim, size))
    merged = None
    for q in range(0, samples, size):
        cols = buf[:, : min(size, samples - q)]
        _fill_columns(spec, seed, 0, samples, q, cols, on_sphere)
        values = _eval_at_points(g, cols.T)  # a view of buf for a bare coordinate
        with np.errstate(over="ignore", invalid="ignore"):  # checked after the merge
            mean = float(np.mean(values))
            block = (cols.shape[1], mean, float(np.sum((values - mean) ** 2)))
        merged = block if merged is None else _merge_moments(merged, block)
    n, mean, m2 = merged
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise expr.DomainError(g, "non-finite Monte Carlo moment")
    return McEstimate(mean, stderr, n, seed)


def mc_ball_average(g: Node, spec: BallSpec, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the average of g over the ball.

    The points are one draw of `samples` from counter 0, streamed in
    blocks whose moments merge left to right, so identical (g, spec,
    samples, seed) give identical bits and memory does not grow with
    `samples`.
    """
    return _mc_average(g, spec, samples, seed, on_sphere=False)


def mc_sphere_average(g: Node, spec: BallSpec, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the average of g over the bounding sphere."""
    _check_sphere(spec.dim)
    return _mc_average(g, spec, samples, seed, on_sphere=True)
