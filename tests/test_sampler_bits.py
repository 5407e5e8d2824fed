"""Bit-exact regression for the counter RNG and the ball/sphere samplers.

The samplers draw in cache-sized blocks; blocking must never change a
bit.  (a) checks `uniforms` against a pure-Python splitmix64 oracle at
counters that straddle block boundaries.  (b) pins the SHA-256 of the
points and the counter advance of `sample_ball_many` for n = 1..10 and
`sample_sphere_many` for n = 2..10 (a sphere needs n >= 2) at counts
around the sampler block size and past 16 Monte Carlo evaluation blocks;
a Monte Carlo average of `count` points draws in the same layout from
counter 0.  (c) rebuilds n = 2 and 3 points, whose directions come from an
angle and Archimedes' z rather than Box-Muller, from the oracle at the
counters the README states.  The Box-Muller digests (n = 1 and 4..10)
were generated before the samplers were blocked, the n = 2 and 3 ones
when those dimensions got their direct directions; regenerate them only
for an intended change of the random stream, with
`PYTHONPATH=src python tests/test_sampler_bits.py`, and say so in
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
    ("ball", 1): "a74890c8b90137b986e764f656c207749a3bf22daaab07c3d539f4df69200983",
    ("ball", 2): "e2d5a000967de6b23c99cb2ebd5dcdc51860f9ded583d8e4cfa29ac9c5ce9880",
    ("ball", 3): "7bc60ea9a73ca28d160e53cbfdbb0e174a54623bdf0a9604d9c2ec4748653212",
    ("ball", 4): "61a9286914f1ddecb53a1fe397d1628334c5a5e8bde658e60945eed436d816a8",
    ("ball", 5): "9f25173a999376de94fda128d8b1c652156c4be21131f484dff7ec9434d59149",
    ("ball", 6): "a5cec787d396ec98166f09356e282398c37c05817a6d8424ed203c579b562bb7",
    ("ball", 7): "a25daf901f6ad9c52980bfc3c9effbdaa53fb411c45183ed8351e4a74ca9eb0e",
    ("ball", 8): "68862eb2f1bb6c087f543dddce957cc6d323ee0f642c43b8fab96835f1b887f5",
    ("ball", 9): "e6c9a010f8249f31a9b5a00af30b5e60d0d6565802cd4d6b4b3ed5be0bf03018",
    ("ball", 10): "32bc734fc5636958cc29429904d1927625144574d879c18dbbdc3f2665608c6d",
    ("sphere", 2): "2a45746f139f3800c2c58e98bfe44398721ba861a4e36afa43a467dbef66f413",
    ("sphere", 3): "8d50c683f9acfa536ca3538a3ea8d569bbb61182a121b040f22dc539b495d4d0",
    ("sphere", 4): "48aba7e8182ab736371bfeb6f6d8cea5330fbfdbc853ec5e045ca0ba594ae879",
    ("sphere", 5): "7db9bab0a0ff9c78760255ea4c208409c203fc86c5b3c362b192b505f289ee46",
    ("sphere", 6): "a924b772910c1430e6f4561d8e97f4aef931d1ac5c7863807920e52db295a605",
    ("sphere", 7): "c705ae77411812d6f98890cfd815ac3d28bb451973a8183790d5d896d718be10",
    ("sphere", 8): "0ab2634d7ec27f226a444108d3de54f2ead8af9e6f3de8678c26637be06df9dd",
    ("sphere", 9): "0d7cac3af29c854795e62448d32a7afae617da6175da3776aa67138c1600f99e",
    ("sphere", 10): "abb8858f38e82f8fab2855d3be318225b4041d985c878d3475296b169c3add4e",
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


def _oracle_point(seed, first, count, p, dim, h, on_sphere):
    """(direction, radius) of point p of a draw of `count` points from
    counter `first`: an angle at first + p, in n = 3 a z at first + count
    + p, then a ball radius at first + count*(dim - 1) + p."""
    phi = (2.0 * _oracle_uniform(seed, first + p) - 1.0) * math.pi
    if dim == 2:
        direction = [math.cos(phi), math.sin(phi)]
    else:
        z = 1.0 - 2.0 * _oracle_uniform(seed, first + count + p)
        s = math.sqrt((1.0 - z) * (1.0 + z))
        direction = [math.cos(phi) * s, math.sin(phi) * s, z]
    u = _oracle_uniform(seed, first + count * (dim - 1) + p)
    return direction, h if on_sphere else h * u ** (1.0 / dim)


def _oracle_indices(count, step):
    # both ends, both sides of every sampler block boundary, and a stride
    near = {k * step + d for k in range(count // step + 1) for d in (-2, -1, 0, 1)}
    picked = {0, 1, 2, count - 2, count - 1} | near | set(range(0, count, 997))
    return sorted(p for p in picked if 0 <= p < count)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_direct_directions_match_oracle(kind, dim):
    sampler, on_sphere = SAMPLERS[kind]
    spec, step = BallSpec([0.0] * dim, 1.5), integrate._points_per_block(dim)
    for first in (0, integrate._BLOCK - 3, (1 << 40) + 1):
        for count in COUNTS:
            rng = CounterRng(SEED, first)
            points = sampler(spec, rng, count)
            assert rng.counter - first == count * (dim - 1) + (0 if on_sphere else count)
            assert rng.counter - first == integrate._counters_used(count, dim, on_sphere)
            for p in _oracle_indices(count, step):
                direction, rho = _oracle_point(SEED, first, count, p, dim, 1.5, on_sphere)
                # numpy's array pow and libm's may round u^(1/n) up to 2 ulp apart
                slack = 0.0 if on_sphere else 2 * math.ulp(rho)
                for got, d in zip(points[p].tolist(), direction):
                    want = d * rho
                    assert abs(got - want) <= 2 * math.ulp(want) + abs(d) * slack, (count, p)


def test_gaussians_digest():
    assert _gaussians_digest() == GAUSSIANS_DIGEST


@pytest.mark.parametrize("kind,dim", sorted(DIGESTS))
def test_sampler_digest(kind, dim):
    assert _digest(kind, dim) == DIGESTS[(kind, dim)]


if __name__ == "__main__":
    print(f'GAUSSIANS_DIGEST = "{_gaussians_digest()}"')
    for kind, dim in sorted(DIGESTS):
        print(f'    ("{kind}", {dim}): "{_digest(kind, dim)}",')
