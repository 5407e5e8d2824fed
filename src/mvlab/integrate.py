"""Deterministic 1-D quadrature and seeded Monte Carlo over balls/spheres.

Randomness comes from a 64-bit counter-based generator: draw i of a
stream with seed s is mix64(s + (i+1) * GOLDEN), where mix64 is the
splitmix64 finalizer.  Outputs are pure functions of (seed, counter), so
a Monte Carlo average divides its samples into chunks that read
consecutive counter ranges of one stream: chunk i starts at the counter
where chunk i-1 stopped.  The thread count only decides how many chunks
run at once, so every thread count gives the same bits.

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

MAX_DIM = 10

_U64 = np.uint64
_INV_2_53 = float(2.0**-53)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python, exact)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> _U64(30))
    z = z * _U64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> _U64(27))
    z = z * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


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
        idx = self.counter + np.arange(1, count + 1, dtype=np.uint64)
        self.counter += count
        with np.errstate(over="ignore"):
            bits = _mix64_array(_U64(self.seed) + idx * _U64(GOLDEN))
        return (bits >> _U64(11)).astype(np.float64) * _INV_2_53

    def gaussians(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller (no rejection, counter-exact)."""
        pairs = (count + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0, 1], log is finite
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
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


def _directions(rng: CounterRng, count: int, dim: int) -> np.ndarray:
    g = rng.gaussians(count * dim).reshape(count, dim)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0  # astronomically unlikely; point degrades to center
    return g / norms[:, None]


def sample_ball_many(spec: BallSpec, rng: CounterRng, count: int) -> np.ndarray:
    """`count` points uniform in the ball, shape (count, dim).

    Direction: normalized standard Gaussian vector; radius: h * U^(1/dim);
    the polynomial radial law is what makes the density uniform in volume.
    """
    dirs = _directions(rng, count, spec.dim)
    radii = spec.radius * rng.uniforms(count) ** (1.0 / spec.dim)
    return np.asarray(spec.center) + radii[:, None] * dirs


def sample_sphere_many(spec: BallSpec, rng: CounterRng, count: int) -> np.ndarray:
    """`count` points uniform on the bounding sphere, shape (count, dim)."""
    dirs = _directions(rng, count, spec.dim)
    return np.asarray(spec.center) + spec.radius * dirs


def _counters_used(count: int, dim: int, on_sphere: bool) -> int:
    """Counters sample_{ball,sphere}_many use: Box-Muller pairs, radii."""
    return 2 * ((count * dim + 1) // 2) + (0 if on_sphere else count)


# ---------------------------------------------------------------------------
# Monte Carlo averages

_CHUNK = 1 << 19


def _eval_at_points(g: Node, points: np.ndarray) -> np.ndarray:
    try:
        return expr.eval_many(g, dict(enumerate(points.T, start=1)))
    except expr.DomainError as err:
        if len(points) > 1:  # checks are elementwise: halve to the first bad row
            half = len(points) // 2
            _eval_at_points(g, points[:half])
            _eval_at_points(g, points[half:])
        raise McDomainError(tuple(points[0].tolist()), err) from None


def _chunk_moments(
    g: Node, spec: BallSpec, rng: CounterRng, count: int, on_sphere: bool
) -> tuple[int, float, float]:
    sampler = sample_sphere_many if on_sphere else sample_ball_many
    points = sampler(spec, rng, count)
    values = _eval_at_points(g, points)
    with np.errstate(over="ignore", invalid="ignore"):  # _mc_average checks the merge
        mean = float(np.mean(values))
        m2 = float(np.sum((values - mean) ** 2))
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
    used = expr.variables(g)
    if used and used[-1] > spec.dim:
        raise ValueError(f"integrand uses x{used[-1]} but the ball is {spec.dim}-dimensional")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    stride = _counters_used(_CHUNK, spec.dim, on_sphere)

    def chunk(first: int) -> tuple[int, float, float]:
        rng = CounterRng(seed, first // _CHUNK * stride)
        return _chunk_moments(g, spec, rng, min(_CHUNK, samples - first), on_sphere)

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
