"""Deterministic 1-D quadrature and seeded Monte Carlo over balls/spheres.

Randomness comes from a 64-bit counter-based generator: draw i of a
stream with seed s is mix64(s + (i+1) * GOLDEN), where mix64 is the
splitmix64 finalizer.  Outputs are pure functions of (seed, counter), so
a Monte Carlo average divides its samples into chunks that read
consecutive counter ranges of one stream: chunk i starts at the counter
where chunk i-1 stopped.  The thread count only decides how many chunks
run at once, so every thread count gives the same bits.  Within a call,
draws are made in place, in cache-sized blocks of consecutive counters,
so blocking never changes a bit; buffers are local to each call, so
threads share no scratch state.  A Monte Carlo chunk is sampled and
evaluated in order, in blocks of _EVAL_POINTS points that reuse one
point buffer, so its peak memory is one values array plus one block; its
moments are still taken over the whole values array.

Ball volumes use the integer-dimension recursion V_1 = 2h, V_2 = pi h^2,
V_n = (2 pi h^2 / n) V_{n-2}; no Gamma function is needed for n <= 10.
Sphere averages in n = 1 are rejected: the "sphere" degenerates to two
points, which the interval checkers in mvlab.mvp already cover.

Integrand values are checked in `expr.eval_with`; an inf or NaN merged
mean or standard error (a sum of huge finite values can overflow) is a
DomainError too.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import expr
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

MAX_DIM = expr.MAX_VARIABLES

_U64 = np.uint64
_INV_2_53 = float(2.0**-53)
_BLOCK = 1 << 14  # draws per cache-resident block


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python, exact)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fill_uniforms(seed: int, first: int, out: np.ndarray) -> np.ndarray:
    """out[i] = draw first + i of stream `seed`, len(out) <= _BLOCK; in place."""
    z = np.arange(len(out), dtype=_U64) * _U64(GOLDEN)
    z += _U64((seed + (first + 1) * GOLDEN) & _MASK)
    t = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 0)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        if mult:
            z *= _U64(mult)
    np.right_shift(z, _U64(11), out=t)
    return np.multiply(t, _INV_2_53, out=out)


def _box_muller(seed: int, first_u1: int, first_u2: int, out: np.ndarray) -> None:
    """Fill `out` (even length) with normals from u1, u2 draws at the counters."""
    r = _fill_uniforms(seed, first_u1, np.empty(len(out) // 2))
    theta = _fill_uniforms(seed, first_u2, np.empty(len(out) // 2))
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
    an independent stream i via mix64(seed + (i+1)*GOLDEN).
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK
        self.counter = counter

    def split(self, i: int) -> "CounterRng":
        return CounterRng(mix64(self.seed + (i + 1) * GOLDEN))

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles uniform in [0, 1), consuming `count` counters."""
        out = np.empty(count)
        for j in range(0, count, _BLOCK):
            _fill_uniforms(self.seed, self.counter + j, out[j : j + _BLOCK])
        self.counter += count
        return out

    def gaussians(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller (no rejection, counter-exact):
        pair j uses draw j as u1 and draw pairs + j as u2."""
        pairs = (count + 1) // 2
        out = np.empty(2 * pairs)
        for j in range(0, pairs, _BLOCK):
            _box_muller(self.seed, self.counter + j, self.counter + pairs + j,
                        out[2 * j : 2 * (j + _BLOCK)])
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
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must be 1..{MAX_DIM}, got {self.dim}")
        if len(self.center) != self.dim:
            raise ValueError("center length does not match dim")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("center coordinates must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")


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
    if isinstance(f, (expr.Num, expr.Var, expr.Neg, expr.BinOp, expr.Call)):
        # a constant integrand still binds x1 so eval_many returns an array
        return expr.eval_many(f, {expr.sole_variable(f) or 1: points})
    return np.asarray(f(points), dtype=float)


def integrate_1d(
    f: Integrand, a: float, b: float, panels: int = 64, nodes: int = 16
) -> float:
    """Composite Gauss-Legendre quadrature of f over [a, b].

    `panels` equal panels of `nodes` points each; exact (to roundoff) for
    polynomials of degree <= 2*nodes - 1.  The integrand is a parsed
    expression or a vectorized callable.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if panels < 1 or nodes < 1:
        raise ValueError("panels and nodes must be >= 1")
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])  # (panels,)
    mid = 0.5 * (edges[1:] + edges[:-1])
    points = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    values = _integrand_values(f, points)
    return float(np.dot(weights, values))


# ---------------------------------------------------------------------------
# Ball geometry


def ball_volume(n: int, h: float) -> float:
    """Volume of the n-ball of radius h via the two-step recursion."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be 1..{MAX_DIM}, got {n}")
    if not h > 0:
        raise ValueError("radius must be positive")
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
    if n == 1:
        raise ValueError(
            "n = 1 has no sphere average (two boundary points); "
            "use the interval checkers instead"
        )
    if not 2 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be 2..{MAX_DIM}, got {n}")
    if not h > 0:
        raise ValueError("radius must be positive")
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
    `count` points from counter `first`.  The draws are those of one
    gaussians(count*dim) call (point-major), then one radius per point.
    q is even (or q+m = count), so no Box-Muller pair straddles two calls."""
    n = spec.dim
    pairs = (count * n + 1) // 2
    step, end = _points_per_block(n), q + out.shape[1]
    g = np.empty(step * n)
    for p in range(q, end, step):
        m = min(step, end - p)
        j, k = first + p * n // 2, (m * n + 1) // 2
        _box_muller(seed, j, j + pairs, g[: 2 * k])
        rows, block = g[: m * n].reshape(m, n), out[:, p - q : p - q + m]
        block[...] = rows.T
        if n >= 8:  # keep numpy's pairwise sum order for long rows
            norms = np.linalg.norm(rows, axis=1)
        else:  # numpy sums rows shorter than 8 left to right: same bits
            norms = np.sqrt(sum(row * row for row in block))
        norms[norms == 0.0] = 1.0  # astronomically unlikely; point degrades to center
        block /= norms
        if not on_sphere:  # radii h * U^(1/n) read the counters after all pairs
            u = _fill_uniforms(seed, first + 2 * pairs + p, np.empty(m))
        block *= spec.radius if on_sphere else spec.radius * u ** (1.0 / n)
        block += np.asarray(spec.center)[:, None]


def _sample(spec: BallSpec, rng: CounterRng, count: int, on_sphere: bool) -> np.ndarray:
    out = np.empty((spec.dim, count))
    _fill_columns(spec, rng.seed, rng.counter, count, 0, out, on_sphere)
    rng.counter += _counters_used(count, spec.dim, on_sphere)
    return out.T  # rows are points; the columns stay contiguous


def sample_ball_many(spec: BallSpec, rng: CounterRng, count: int) -> np.ndarray:
    """`count` points uniform in the ball, shape (count, dim).

    Direction: normalized standard Gaussian vector; radius: h * U^(1/dim);
    the polynomial radial law is what makes the density uniform in volume.
    """
    return _sample(spec, rng, count, on_sphere=False)


def sample_sphere_many(spec: BallSpec, rng: CounterRng, count: int) -> np.ndarray:
    """`count` points uniform on the bounding sphere, shape (count, dim)."""
    return _sample(spec, rng, count, on_sphere=True)


def _counters_used(count: int, dim: int, on_sphere: bool) -> int:
    """Counters sample_{ball,sphere}_many use: Box-Muller pairs, radii."""
    return 2 * ((count * dim + 1) // 2) + (0 if on_sphere else count)


# ---------------------------------------------------------------------------
# Monte Carlo averages

_CHUNK = 1 << 19
_EVAL_POINTS = 1 << 15  # points sampled and evaluated per block of a chunk


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


def _chunk_moments(
    g: Node, spec: BallSpec, seed: int, first: int, count: int, on_sphere: bool
) -> tuple[int, float, float]:
    # blocks run in order, so a domain error names the chunk's first bad point
    step = _points_per_block(spec.dim)
    size = min(count, _EVAL_POINTS // step * step)  # whole sampler blocks
    buf = np.empty((spec.dim, size))
    values = np.empty(count)
    for q in range(0, count, size):
        cols = buf[:, : min(size, count - q)]
        _fill_columns(spec, seed, first, count, q, cols, on_sphere)
        values[q : q + cols.shape[1]] = _eval_at_points(g, cols.T)
    with np.errstate(over="ignore", invalid="ignore"):  # _mc_average checks the merge
        mean = float(np.mean(values))
        values -= mean  # in place: the bits of np.sum((values - mean)**2)
        values *= values
        m2 = float(np.sum(values))
    return count, mean, m2


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
    g: Node,
    spec: BallSpec,
    samples: int,
    seed: int,
    on_sphere: bool,
    threads: int = 1,
) -> McEstimate:
    expr.check_dimension(g, spec.dim)
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    stride = _counters_used(_CHUNK, spec.dim, on_sphere)

    def chunk(first: int) -> tuple[int, float, float]:
        return _chunk_moments(g, spec, seed, first // _CHUNK * stride,
                              min(_CHUNK, samples - first), on_sphere)

    firsts = range(0, samples, _CHUNK)
    workers = min(threads, len(firsts))
    if workers <= 1:
        results = list(map(chunk, firsts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, firsts))
    n, mean, m2 = functools.reduce(_merge_moments, results)
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise expr.DomainError(g, "non-finite Monte Carlo moment")
    return McEstimate(mean, stderr, n, seed)


def mc_ball_average(
    g: Node, spec: BallSpec, samples: int, seed: int, threads: int = 1
) -> McEstimate:
    """Monte Carlo estimate of the average of g over the ball.

    Identical (g, spec, samples, seed) give identical bits at any thread
    count: `threads` only sets how many sample chunks run at once.
    """
    return _mc_average(g, spec, samples, seed, on_sphere=False, threads=threads)


def mc_sphere_average(
    g: Node, spec: BallSpec, samples: int, seed: int, threads: int = 1
) -> McEstimate:
    """Monte Carlo estimate of the average of g over the bounding sphere."""
    if spec.dim < 2:
        raise ValueError("sphere averages need dimension >= 2")
    return _mc_average(g, spec, samples, seed, on_sphere=True, threads=threads)
