"""Bit-exact regression for the counter RNG and the ball/sphere samplers.

The samplers draw in cache-sized blocks; blocking must never change a
bit.  (a) checks `uniforms` against a pure-Python splitmix64 oracle at
counters that straddle block boundaries.  (b) pins the SHA-256 of the
points and the counter advance of `sample_ball_many` for n = 1..10 and
`sample_sphere_many` for n = 2..10 (a sphere needs n >= 2) at counts
around the sampler block size (2^14 points) and past 16 Monte Carlo
evaluation blocks; a Monte Carlo average of `count` points draws in the same layout from
counter 0.  (c) rebuilds the points of every dimension from the oracle,
counter by counter, at the counters the README states.  The n = 1 digest
dates from when every dimension got the one projection rule, the n >= 2
ones from when the angles got the exact quarter-turn reduction and the
sine polynomial; regenerate them only for an intended change of the
random stream, with `PYTHONPATH=src python tests/test_sampler_bits.py`,
and say so in CHANGES.md.
"""

import hashlib
import math

import numpy as np
import pytest

from mvlab import integrate
from mvlab.integrate import (
    GOLDEN,
    BallSpec,
    CounterRng,
    mix64,
    sample_ball_many,
    sample_sphere_many,
)

SEED = 0x5EED
START = 12345  # odd, so blocks do not begin at round counters
COUNTS = (1, 7, (1 << 14) - 1, (1 << 14) + 1, (1 << 19) + 777)

DIGESTS = {
    # (sampler, dim): SHA-256 over COUNTS of the points' bytes and counters used
    ("ball", 1): "7482563a59a0298f2f34624a38812394c4e85b8249437cdd7b8e15b8023cb3d5",
    ("ball", 2): "c8456e8b384d36a8fb2dc5b4c8cdc85fc2a81f448bdaff3bbe9cb8e55fad4833",
    ("ball", 3): "b0ffeac5e864404e9580f29cecbb62f3a87fd9c2bb859add763d080f00524f83",
    ("ball", 4): "230d020998d18441d436a4934ab81a582d00735308046087b774e3e8647cd902",
    ("ball", 5): "d48fd7bcf9e12ef0897109168a4df5d914282d3fe000da8d43c30acbb97a3b66",
    ("ball", 6): "246d92c0506fe9a3ef6ed3678e862d6e859e0a6959e3297ddb218f5f72683cad",
    ("ball", 7): "36557ae41e00e6eceafc47d32378470f92e65c83cd96ef65230031b5cdb51984",
    ("ball", 8): "1570dd77e0d1559e7164d1e76b964603816a8abfd00cdfc2a7925e2047c808b0",
    ("ball", 9): "6d15c4e30296a44075e73e5c451c6f1768525081707d04cdf8aa5de2fcae8dea",
    ("ball", 10): "b3a5059888db519f90a3356f1d7d46ce2906a9267176846967a875dc7b7d2dff",
    ("sphere", 2): "c081a2546e8bc7de752f3cac64bb1ac1366957e56c6ee52ab334a125935ed257",
    ("sphere", 3): "3a7e73c912fda5a8f05b95a644eacce4ef859ddf673dcf7dc37657e89b55628c",
    ("sphere", 4): "1eb6517ebcfe48a57fed100b201352c1e3224d0b34a07399c3db5bb1de4c33fe",
    ("sphere", 5): "c88709d63d2eac9bfbe2dd313c1b04287fc9315092b2e94916d2269cac698deb",
    ("sphere", 6): "af3fe2422fadc578b0365dc7219a5022cc2fbfd915a3bcecb5d1c3215d6309ba",
    ("sphere", 7): "ab0b147fd68f07e668364d0d19ad69bd9a102946334e114bf9e3ba6ffc40ad07",
    ("sphere", 8): "879b4f06a0d3538424602658228a0c5e870f673ec469fe4d5f2f76897c776600",
    ("sphere", 9): "a0bae075b30a5fcb2cf29eaffe78d81748ec9560484fd69ebf138e9fe13de54f",
    ("sphere", 10): "69617f554f94ca6b5c3cb03104e9f81df5c0a00a7fff9bd271397f2cf89e176b",
}

# gaussians(count) over COUNTS plus a count whose pairs just pass two blocks
GAUSSIANS_DIGEST = "5f46a3d333afbdf06e191e72b55b3b004c49b81eed7680a52eb402fb7f3f5f82"

SAMPLERS = {"ball": (sample_ball_many, False), "sphere": (sample_sphere_many, True)}


def _oracle_uniform(seed: int, counter: int) -> float:
    # draw `counter` (0-based) of the stream, in exact integer arithmetic
    z = mix64(seed + (counter + 1) * GOLDEN)
    return (z >> 11) * 2.0**-53


def _digest(kind: str, dim: int) -> str:
    sampler, on_sphere = SAMPLERS[kind]
    spec = BallSpec([0.25 * k - 1.0 for k in range(dim)], 1.5)
    h = hashlib.sha256()
    for count in COUNTS:
        rng = CounterRng(SEED, START)
        points = sampler(spec, rng, count)
        assert points.shape == (count, dim) and points.dtype == np.float64
        used = rng.counter - START
        assert used == integrate._counters_used(count, dim, on_sphere)
        h.update(np.ascontiguousarray(points).tobytes())
        h.update(str(used).encode())
    return h.hexdigest()


def test_uniforms_match_oracle_across_blocks():
    # a call fills blocks from its own start, so 2 blocks + 5 straddles two
    # boundaries; the starting counters exercise the counter arithmetic
    block = integrate._BLOCK
    count = 2 * block + 5
    for seed in (0, 7, (1 << 64) - 1):
        for first in (0, 5, block - 3, (1 << 40) + 1):
            rng = CounterRng(seed, first)
            got = rng.uniforms(count).tolist()
            assert rng.counter == first + count
            assert got == [_oracle_uniform(seed, first + i) for i in range(count)]


def _gaussians_digest() -> str:
    h = hashlib.sha256()
    for count in COUNTS + (4 * (1 << 14) + 3,):
        rng = CounterRng(SEED, START)
        h.update(rng.gaussians(count).tobytes())
        h.update(str(rng.counter - START).encode())
    return h.hexdigest()


# S1..S6 of fdlibm's k_sin.c, from the bit patterns it states
_SIN_COEFS = tuple(
    float.fromhex(h) for h in (
        "-0x1.5555555555549p-3", "0x1.111111110f8a6p-7", "-0x1.a01a019c161d5p-13",
        "0x1.71de357b1fe7dp-19", "-0x1.ae5e68a2b9cebp-26", "0x1.5d93a5acfd57cp-33",
    )
)


def _oracle_circle(u):
    """(cos phi, sin phi) for phi = pi (2u - 1), by the sampler's own
    operations in their order: Python's round ties to even as np.rint
    does, and its float products and sums are IEEE doubles, unfused, as
    numpy's are, so the result is bit for bit the sampler's."""
    y = 4.0 * u
    k = float(round(y))
    theta = (y - k) * (0.5 * math.pi)
    z = theta * theta
    s1, s2, s3, s4, s5, s6 = _SIN_COEFS
    s = z * s6
    for coef in (s5, s4, s3, s2):
        s = (s + coef) * z
    s = theta + (s + s1) * (z * theta)
    c = math.sqrt((1.0 - s) * (1.0 + s))
    d = k - 2.0
    b = d * (2.0 - abs(d))
    a = (2.0 - abs(d)) - 1.0
    return a * c - b * s, b * c + a * s


def _oracle_point(seed, first, count, p, dim, h, on_sphere):
    """Point p, less the centre, of a draw of `count` points from counter
    `first`, with an absolute slack per coordinate.  Uniform j is read at
    first + j*count + p: the direction takes j < dim - 1, a ball radius
    j = dim - 1.  The arithmetic follows the sampler's, operation by
    operation, and the circle (`_oracle_circle`) uses only correctly
    rounded operations, sqrt among them, so it adds no slack: only libm's
    and numpy's pow, log and expm1 may differ (by at most 1 ulp over 2e5
    random arguments).  A factor f = u^(1/m)
    may then be 2 ulp(f) off, and a factor sqrt(-expm1(log(v) 2/m)) 4 ulp
    of itself; the slack sums each such error times the coordinate's other
    factors.  In n = 2 and 3 that is |direction_i| * 2 ulp(rho) for a ball
    point and 0 for a sphere point."""
    u = [_oracle_uniform(seed, first + j * count + p) for j in range(dim - on_sphere)]
    if dim == 1:
        return [h * (2.0 * u[0] - 1.0)], [0.0]
    scale = h if on_sphere else h * u[dim - 1] ** (1.0 / dim)
    factors = [] if on_sphere else [(scale, 2)]  # (factor, ulps it may be off)
    point, slack = [0.0] * dim, [0.0] * dim
    k = dim
    while k > 3:  # (t w, s cos psi, s sin psi) with w on S^(k-3), v = 1 - u
        v = 1.0 - u[k - 3]
        t = v ** (1.0 / (k - 2))
        s = math.sqrt(-math.expm1(math.log(v) * (2.0 / (k - 2))))
        cos, sin = _oracle_circle(u[k - 2])
        point[k - 2 : k] = [cos * (s * scale), sin * (s * scale)]
        slack[k - 2 : k] = [_factor_slack(b, factors + [(s, 4)]) for b in (cos, sin)]
        scale = scale * t
        factors.append((t, 2))
        k -= 2
    cos, sin = _oracle_circle(u[0])
    if k == 3:  # Archimedes' z
        z = 1.0 - 2.0 * u[1]
        s = math.sqrt((1.0 - z) * (1.0 + z))
        base = [cos * s, sin * s, z]
    else:
        base = [cos, sin]
    point[:k] = [b * scale for b in base]
    slack[:k] = [_factor_slack(b, factors) for b in base]
    return point, slack


def _factor_slack(base, factors):
    # sum over the inexact factors f of base * prod(factors) of ulps * ulp(f)
    # times |base * the other factors|
    total = 0.0
    for i, (f, ulps) in enumerate(factors):
        others = base
        for g, _ in factors[:i] + factors[i + 1 :]:
            others *= g
        total += ulps * math.ulp(f) * abs(others)
    return total


def _oracle_indices(count, step):
    # both ends, both sides of every sampler block boundary, and a stride
    near = {k * step + d for k in range(count // step + 1) for d in (-2, -1, 0, 1)}
    picked = {0, 1, 2, count - 2, count - 1} | near | set(range(0, count, 997))
    return sorted(p for p in picked if 0 <= p < count)


@pytest.mark.parametrize("kind,dim", sorted(DIGESTS))
def test_direct_directions_match_oracle(kind, dim):
    sampler, on_sphere = SAMPLERS[kind]
    spec = BallSpec([0.0] * dim, 1.5)
    for first in (0, integrate._BLOCK - 3, (1 << 40) + 1):
        for count in COUNTS:
            rng = CounterRng(SEED, first)
            points = sampler(spec, rng, count)
            assert rng.counter - first == count * (dim - 1) + (0 if on_sphere else count)
            assert rng.counter - first == integrate._counters_used(count, dim, on_sphere)
            for p in _oracle_indices(count, integrate._BLOCK):
                want, slack = _oracle_point(SEED, first, count, p, dim, 1.5, on_sphere)
                for got, w, e in zip(points[p].tolist(), want, slack):
                    # no inexact factor (an n = 2/3 sphere point): the same bits
                    assert got == w if e == 0 else abs(got - w) <= 2 * math.ulp(w) + e, (count, p)


def test_gaussians_digest():
    assert _gaussians_digest() == GAUSSIANS_DIGEST


@pytest.mark.parametrize("kind,dim", sorted(DIGESTS))
def test_sampler_digest(kind, dim):
    assert _digest(kind, dim) == DIGESTS[(kind, dim)]


if __name__ == "__main__":
    print(f'GAUSSIANS_DIGEST = "{_gaussians_digest()}"')
    for kind, dim in sorted(DIGESTS):
        print(f'    ("{kind}", {dim}): "{_digest(kind, dim)}",')
