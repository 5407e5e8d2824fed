"""Deterministic 1-D quadrature and seeded Monte Carlo over balls/spheres.

The 1-D rule is composite Gauss-Legendre.  Its reference nodes and weights
are computed once per node count and kept in a small cache of read-only
arrays (`_gauss_legendre`), and `_composite_rule` lays the rule on a whole
array of intervals at once, each row with the bits of a one-interval call,
so a checker can evaluate the nodes of many intervals in one pass.

Randomness comes from a 64-bit counter-based generator: draw i of a
stream with seed s is mix64(s + (i+1) * GOLDEN), where mix64 is the
splitmix64 finalizer.  Outputs are pure functions of (seed, counter).  A
draw of m ball or sphere points from counter c gives point p the uniforms
u_j at counters c + j*m + p (`_counters_used`), and one direction rule
serves every n (`sample_ball_many`).  Its angles call no libm sin or cos:
`_unit_circle` reduces phi = pi (2u - 1) by quarter turns exactly, in the
style of Cody and Waite (Software Manual for the Elementary Functions,
1980), evaluates sin on [-pi/4, pi/4] by fdlibm's odd polynomial, and
turns the result back by products with 0 and +-1; each coordinate the
tests check against 130-bit values lies within 2 ulp of them.  Within a
call, points are made in cache-sized blocks: `_fill_columns` fills a
block's uniforms from consecutive counters and `_map_uniforms` maps them
to its points, so blocking never changes a bit; buffers are local to each
call.
A Monte Carlo average of `samples` points is one such draw from counter 0,
the points of one `sample_*_many(spec, CounterRng(seed), samples)` call.
It is sampled and evaluated in order, in blocks of at most _EVAL_POINTS
points that reuse one point buffer, and the blocks' moments merge left to
right, so the block size and merge order fix the bits and peak memory does
not grow with `samples`.

`_check_ball` states the ball rules (dimension, positive finite radius),
`_check_sphere` the sphere rule, for the sampler and the averages alike:
n = 1 degenerates to two points, which the interval checkers in mvlab.mvp
already cover.

Integrand values are checked in `expr.eval_with`; an inf or NaN merged
mean or standard error, or 1-D integral (a sum of huge finite values can
overflow), is a DomainError too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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
    # t < 2^53, so its int64 view converts exactly, and faster than uint64 does
    return np.multiply(t.view(np.int64), _INV_2_53, out=out)


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
        """Standard normals via Box-Muller (no rejection, counter-exact): of
        the (count + 1) // 2 pairs, pair i reads u1 at counter + i and u2 at
        counter + pairs + i.  No sampler uses them, as directions come from
        angles and Archimedes' projection; the method stays as a public
        stream that the benchmark tracer still wraps."""
        pairs = (count + 1) // 2
        r, theta = self.uniforms(pairs), self.uniforms(pairs)
        np.negative(r, out=r)
        np.log1p(r, out=r)  # 1-u1 in (0, 1], log is finite
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * math.pi
        out = np.empty(2 * pairs)
        np.multiply(r, np.cos(theta), out=out[0::2])
        np.multiply(r, np.sin(theta), out=out[1::2])
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

@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
    ref_x.flags.writeable = ref_w.flags.writeable = False
    return ref_x, ref_w


def _composite_rule(
    lo: np.ndarray, hi: np.ndarray, panels: int, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, each of shape (len(lo), panels * nodes), of the
    composite rule on every interval [lo[i], hi[i]].  Row i has the bits of
    a one-interval call: linspace along axis 1 makes the same operations
    per row (unless some row's panel width underflows to 0, which numpy
    then handles for all rows at once)."""
    ref_x, ref_w = _gauss_legendre(nodes)
    edges = np.linspace(lo, hi, panels + 1, axis=1)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])  # (len(lo), panels)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    points = (mid[:, :, None] + half[:, :, None] * ref_x).reshape(len(lo), -1)
    weights = (half[:, :, None] * ref_w).reshape(len(lo), -1)
    return points, weights


def integrate_1d(f: Node, a: float, b: float, panels: int = 64, nodes: int = 16) -> float:
    """Composite Gauss-Legendre quadrature of the expression f over [a, b].

    `panels` equal panels of `nodes` points each; exact (to roundoff) for
    polynomials of degree <= 2*nodes - 1.  The reference rule of each node
    count is computed once and cached.  [a, b] follows the
    `mvroot.Interval` rules.  A weighted sum that overflows raises
    DomainError.
    """
    mvroot.Interval(a, b)
    if panels < 1 or nodes < 1:
        raise ValueError("panels and nodes must be >= 1")
    points, weights = _composite_rule(np.array([a]), np.array([b]), panels, nodes)
    # a constant integrand still binds x1 so eval_many returns an array
    values = expr.eval_many(f, expr._bind_univariate(f, points[0]))
    with np.errstate(over="ignore"):
        total = float(np.dot(weights[0], values))
    if not math.isfinite(total):
        raise expr.DomainError(f, "non-finite integral")
    return total


# ---------------------------------------------------------------------------
# Sampling


def _fill_columns(
    spec: BallSpec, seed: int, first: int, count: int, q: int, out: np.ndarray,
    on_sphere: bool,
) -> None:
    """Fill the (dim, m) columns `out` with points q..q+m-1 of a draw of
    `count` points from counter `first`: uniform j of point p is draw
    first + j*count + p, put in row j of its column, and `_map_uniforms`
    turns each column into its point in place."""
    rows, end = _counters_used(1, spec.dim, on_sphere), q + out.shape[1]
    for p in range(q, end, _BLOCK):
        block = out[:, p - q : p - q + min(_BLOCK, end - p)]
        for j in range(rows):
            _fill_uniforms(seed, first + j * count + p, block[j])
        _map_uniforms(block, spec, on_sphere)


def _map_uniforms(x: np.ndarray, spec: BallSpec, on_sphere: bool) -> None:
    """Turn each column of the (dim, m) array `x` into a point, in place.
    Its first dim - 1 (sphere) or dim (ball) rows hold the point's uniforms
    u_j in [0, 1), as `sample_ball_many` states; where they come from
    (counters or any other points of [0, 1)^k) is not this map's concern."""
    n = spec.dim
    if n == 1:  # the ball point c + h (2u - 1)
        x[0] = (2.0 * x[0] - 1.0) * spec.radius + spec.center[0]
        return
    scale = spec.radius if on_sphere else spec.radius * x[n - 1] ** (1.0 / n)
    k = n
    while k > 3:  # lift t w in B^(k-2), rows < k - 2, to S^(k-1); row k - 1 is free
        v = np.subtract(1.0, x[k - 3], out=x[k - 3])  # exact, and in (0, 1]
        t = v ** (1.0 / (k - 2))
        s = np.sqrt(-np.expm1(np.log(v) * (2.0 / (k - 2))))  # sqrt(1 - t^2) as t -> 1 too
        _unit_circle(x[k - 2 : k])
        x[k - 2 : k] *= s * scale
        scale = scale * t
        k -= 2
    if k == 3:  # Archimedes: z = 1 - 2u is uniform on [-1, 1]; row 1 is then free
        x[2] = 1.0 - 2.0 * x[1]
    _unit_circle(x[:2])
    if k == 3:  # 1 -+ z are exact, so s = sqrt(1 - z^2) is accurate at the poles
        x[:2] *= np.sqrt((1.0 - x[2]) * (1.0 + x[2]))
    x[:k] *= scale
    x += np.asarray(spec.center)[:, None]


# sin x = x + x^3 (S1 + x^2 S2 + ... + x^10 S6) on |x| <= pi/4, within 2^-58
# relative: the odd minimax polynomial of fdlibm's k_sin.c (__kernel_sin)
_S1, _S2, _S3 = -1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04
_S4, _S5, _S6 = 2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10


def _unit_circle(x: np.ndarray) -> None:
    """Overwrite the (2, m) array `x` with (cos phi, sin phi), where phi =
    pi (2u - 1) for the uniforms u in its first row; its second row is
    scratch.  The quarter-turn reduction is exact: y = 4u, k = rint(y) in
    {0..4} and w = y - k in [-1/2, 1/2], so phi = k pi/2 - pi + theta for
    theta = (pi/2) w, |theta| <= pi/4.  s = sin theta is fdlibm's
    polynomial, c = sqrt((1 - s)(1 + s)) is accurate as |s| <= 0.7072, and
    the turn by k pi/2 - pi rotates (c, s) by A = cos(k pi/2 - pi) = 1 - |k - 2|
    and B = sin(k pi/2 - pi) = (k - 2)(1 + A), products by 0 or +-1 that are
    exact.  No libm sin or cos is called."""
    y, k = x[0], x[1]
    y *= 4.0
    np.rint(y, out=k)
    y -= k
    y *= 0.5 * math.pi  # theta
    z = y * y
    s = z * _S6
    for coef in (_S5, _S4, _S3, _S2):
        s += coef
        s *= z
    s += _S1
    z *= y
    s *= z
    s += y  # theta + theta^3 (S1 + z (S2 + ...)), in fdlibm's order
    np.subtract(1.0, s, out=z)
    np.add(1.0, s, out=y)
    z *= y
    c = np.sqrt(z, out=z)
    k -= 2.0
    a = np.abs(k, out=y)
    np.subtract(2.0, a, out=a)  # 1 + A
    k *= a  # B
    a -= 1.0  # A
    bs = k * s
    s *= a
    k *= c
    k += s  # B c + A s
    c *= a
    np.subtract(c, bs, out=a)  # A c - B s


def _sample(spec: BallSpec, rng: CounterRng, count: int, on_sphere: bool) -> np.ndarray:
    out = np.empty((spec.dim, count))
    _fill_columns(spec, rng.seed, rng.counter, count, 0, out, on_sphere)
    rng.counter += _counters_used(count, spec.dim, on_sphere)
    return out.T  # rows are points; the columns stay contiguous


def sample_ball_many(spec: BallSpec, rng: CounterRng, count: int) -> np.ndarray:
    """`count` points uniform in the ball, shape (count, dim).

    Point p reads u_j, j = 0..n-1, at counters first + j*count + p.  Its
    direction on S^(n-1) reads u_0..u_{n-2}: (cos phi, sin phi) in n = 2,
    for phi = pi (2 u_0 - 1); (s cos phi, s sin phi, z) in n = 3, for
    Archimedes' z = 1 - 2 u_1 and s = sqrt(1 - z^2); in n >= 4 (t w, s cos
    psi, s sin psi), for w the direction on S^(n-3) from u_0..u_{n-4}, t =
    v^(1/(n-2)) with v = 1 - u_{n-3}, psi from u_{n-2} as phi from u_0, and
    s = sqrt(1 - t^2) taken as sqrt(-expm1(2 log(v) / (n-2))), accurate as
    t -> 1.  As t w is uniform in B^(n-2), the law of the first n - 2
    coordinates of a uniform point on S^(n-1) (Archimedes' projection;
    Barthe, Guedon, Mendelson and Naor, Ann. Probab. 33, 2005), no
    Gaussian, norm or division is needed.  Radius: h u_{n-1}^(1/n), which
    makes the density uniform in volume; in n = 1 the point is c + h (2 u_0
    - 1).  Each angle pi (2u - 1) is reduced exactly to theta = (pi/2)(4u - k),
    k = rint(4u), with |theta| <= pi/4; sin theta is a polynomial and the
    quarter turns k pi/2 - pi are exact, so no libm sin or cos is called
    (`_unit_circle`).
    """
    return _sample(spec, rng, count, on_sphere=False)


def sample_sphere_many(spec: BallSpec, rng: CounterRng, count: int) -> np.ndarray:
    """`count` points uniform on the bounding sphere, shape (count, dim):
    the directions of `sample_ball_many`, at radius h."""
    _check_sphere(spec.dim)
    return _sample(spec, rng, count, on_sphere=True)


def _counters_used(count: int, dim: int, on_sphere: bool) -> int:
    """Counters sample_{ball,sphere}_many use: dim - 1 direction uniforms
    per point, then one radius per ball point."""
    return count * (dim - 1) + (0 if on_sphere else count)


# ---------------------------------------------------------------------------
# Monte Carlo averages

_EVAL_POINTS = 1 << 15  # points sampled and evaluated per block of a draw


def _eval_at_points(g: Node, points: np.ndarray) -> np.ndarray:
    # points are rows over contiguous coordinate columns; every check is
    # elementwise, so a failing pass halves down to its first bad row
    # (`expr.split_failures`), and only a pass with no failure returns
    def run(rows: np.ndarray) -> np.ndarray:
        return expr.eval_many(g, dict(enumerate(rows.T, start=1)))

    for rows, values in expr.split_failures(run, points):
        if isinstance(values, ValueError):  # a DomainError: _mc_average checks g's variables
            raise McDomainError(tuple(rows[0].tolist()), values) from None
    return values


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
    size = min(samples, _EVAL_POINTS)
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
