"""Bit-exact regression for the counter RNG and the ball/sphere samplers.

The samplers draw in cache-sized blocks; blocking must never change a
bit.  (a) checks `uniforms` against a pure-Python splitmix64 oracle at
counters that straddle block boundaries.  (b) pins the SHA-256 of the
points and the counter advance of `sample_ball_many` for n = 1..10 and
`sample_sphere_many` for n = 2..10 (a sphere needs n >= 2) at counts
around the sampler block size (2^14 points) and past 16 Monte Carlo
evaluation blocks; a Monte Carlo average of `count` points draws in the same layout from
counter 0.  (c) rebuilds the points of every dimension from the oracle,
counter by counter, at the counters the README states.  The n = 2 and 3
digests date from when those dimensions got their direct directions, the
n = 1 and 4..10 ones from when every dimension got the one projection
rule; regenerate them only for an intended change of the random stream,
with `PYTHONPATH=src python tests/test_sampler_bits.py`, and say so in
CHANGES.md.
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
    ("ball", 2): "e2d5a000967de6b23c99cb2ebd5dcdc51860f9ded583d8e4cfa29ac9c5ce9880",
    ("ball", 3): "7bc60ea9a73ca28d160e53cbfdbb0e174a54623bdf0a9604d9c2ec4748653212",
    ("ball", 4): "b24fec65ee25a6c968712d5f2fda605d0baee08fcb921a20f79406668ba609b5",
    ("ball", 5): "ed94889012f8216f317de36035fd01f533945d42b808afda67a3c08495c840fe",
    ("ball", 6): "074622e394c3d7a492155bc27c07f30f547e5c961fab5e41d9c9e57b6aa5a9b6",
    ("ball", 7): "be891652ff18e1e5f46dfc11f4ab6268acd13433c8d71b1aeeebd8cafde92e56",
    ("ball", 8): "424f71f6a8d4b9913731f0ed7e985d4a743239a6d1631993159e37f1b5e49284",
    ("ball", 9): "65bd9c60f490bb5eda3632ee8ca758ca8b1cac0b584781a634c539611808219f",
    ("ball", 10): "75448db8dda9188148781b95fd09684e78aa8df2dc19de4dc4cf6c6eedc58706",
    ("sphere", 2): "2a45746f139f3800c2c58e98bfe44398721ba861a4e36afa43a467dbef66f413",
    ("sphere", 3): "8d50c683f9acfa536ca3538a3ea8d569bbb61182a121b040f22dc539b495d4d0",
    ("sphere", 4): "8eb830bf6c84e19627093ccbf95a547b707aaa6dd35b0c5d190aa33b6da22363",
    ("sphere", 5): "0b3e02dfe05bca5c5beb421de515b41584d21269a674ddfb7d9d2ddf2e499543",
    ("sphere", 6): "172e232928f6726e88d023b019982bcc0558e056ea92132bf753cc59feb9896f",
    ("sphere", 7): "491cbe9e4c8e2d4b0473c3e2795bec2afd9c7fc9815bca44adbdb16f79c956da",
    ("sphere", 8): "43dd58e4e3ed1d4d6b954c0e4d8c30f7e284a76d5d3a77c8d76a8e347bce1ba7",
    ("sphere", 9): "5f282432540683c8dce10fcfc0b3384a4157699cf122cd47f40495799f271aa9",
    ("sphere", 10): "97eb54101995befe4d54ad543f610c52fbe2ffa4f6c79daeadc7c3ea205df3a9",
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


def _oracle_circle(u):
    phi = (2.0 * u - 1.0) * math.pi
    return math.cos(phi), math.sin(phi)


def _oracle_point(seed, first, count, p, dim, h, on_sphere):
    """Point p, less the centre, of a draw of `count` points from counter
    `first`, with an absolute slack per coordinate.  Uniform j is read at
    first + j*count + p: the direction takes j < dim - 1, a ball radius
    j = dim - 1.  The arithmetic follows the sampler's, operation by
    operation, so only libm's and numpy's pow, log and expm1 may differ
    (by at most 1 ulp over 2e5 random arguments).  A factor f = u^(1/m)
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
                    assert abs(got - w) <= 2 * math.ulp(w) + e, (count, p)


def test_gaussians_digest():
    assert _gaussians_digest() == GAUSSIANS_DIGEST


@pytest.mark.parametrize("kind,dim", sorted(DIGESTS))
def test_sampler_digest(kind, dim):
    assert _digest(kind, dim) == DIGESTS[(kind, dim)]


if __name__ == "__main__":
    print(f'GAUSSIANS_DIGEST = "{_gaussians_digest()}"')
    for kind, dim in sorted(DIGESTS):
        print(f'    ("{kind}", {dim}): "{_digest(kind, dim)}",')
