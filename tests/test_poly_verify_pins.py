"""Pinned `poly-verify` outputs over the benchmark's degrees and four weights.

`exactpoly.mvt_residual` builds the residual's integer rows and
`BivariatePolynomial.__str__` prints them; no change to either may move a
byte of what the CLI prints or the exit code it returns.  Each weight's
fourteen runs (degrees 0..6, 8, 12, 16, 24, 32, 48 and 64, seeded rational
coefficients with zeros among them) are pinned as one SHA-256 digest of
their [exit code, stdout] pairs, with the exit codes spelled out.
Regenerate only for an intended change of these outputs, with
`PYTHONPATH=src python tests/test_poly_verify_pins.py`, and say so in
CHANGES.md.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from test_acceptance import _run_cli

DEGREES = (0, 1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64)
LAMBDAS = ("1/2", "3/7", "3/10", f"{2**61 - 1}/{2**62}")


def _coeffs(rng: random.Random, degree: int) -> list[Fraction]:
    # about one coefficient in four is zero; the leading one never is
    coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) if rng.random() < 0.75
              else Fraction(0) for _ in range(degree)]
    return coeffs + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))]


def _runs(lam: str) -> list:
    rng = random.Random(f"poly-verify {lam}")
    return [list(_run_cli(["poly-verify", "--coeffs=" + ",".join(map(str, _coeffs(rng, d))),
                           "--lambda", lam]))
            for d in DEGREES]


def _digest(runs) -> str:
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


DIGESTS = {
    "1/2": "7499e4dfb43316341d07b8486acd34687e15a15dbc0a10aff419ccd0cf7438d7",
    "3/7": "2a22281e2e8e751e82e2eeff4208c8abd7bf7bc444fcf1d7ac94a2ba5b608885",
    "3/10": "c95452c3b86c2b41408eb0f4b9001fef082ac465938cbbb30fc09abb33db2914",
    LAMBDAS[3]: "503a49ab0c98eb0164dbab6cbf9bbc92d435799cac3f45752856630f2a032ce6",
}
# quadratics satisfy only at 1/2; affine and constant polynomials at every weight
EXIT_CODES = {lam: "0 0 1" + " 1" * 11 for lam in LAMBDAS} | {"1/2": "0 0 0" + " 1" * 11}


@pytest.mark.parametrize("lam", LAMBDAS)
def test_poly_verify_output(lam):
    runs = _runs(lam)
    assert " ".join(str(code) for code, _ in runs) == EXIT_CODES[lam]
    assert _digest(runs) == DIGESTS[lam]


if __name__ == "__main__":
    for lam in LAMBDAS:
        runs = _runs(lam)
        print(repr(lam), repr(" ".join(str(code) for code, _ in runs)), _digest(runs))
