"""Exact rational polynomials and their symbolic mean value residuals.

For a univariate polynomial p and a weight 0 < lambda < 1, the residual

    R(a, b) = p(b) - p(a) - (b - a) * p'(lambda*a + (1-lambda)*b)

is itself a polynomial in the two interval endpoints.  Expanding it with
exact rational arithmetic decides *identically* whether the weighted
average of the endpoints serves as a mean value abscissa on every
interval: R == 0 is a proof, not a numerical observation.

Only the coefficient c_s of p contributes to the terms of R of total
degree s: c_s*(b^s - a^s) - (b-a)*s*c_s*(lambda*a + (1-lambda)*b)^(s-1).
Write lambda = P/Q in lowest terms, R' = Q - P and, from the binomial
theorem, the integers T_i = C(s-1, i) * P^i * R'^(s-1-i) with
T_(-1) = T_s = 0.  Then the coefficient of a^i b^(s-i) is

    c_s * ([i = 0] - [i = s] + s * (T_(i-1) - T_i) / Q^(s-1)),

so `mvt_residual` computes each numerator in Python ints.  The row of
degree s comes from the row of degree s-1 by Pascal's rule,
T_i = R' * T'_i + P * T'_(i-1) where T' is the previous row, starting
from the row [1] of s = 1; each term's numerator and denominator are
reduced by one gcd.

`BivariatePolynomial` holds the nonzero terms as (i, j, n, d): the
coefficient of a^i b^j is n/d in lowest terms with d > 0.  The terms
are kept in print order, highest total degree first and then ascending
power of a, so printing and `as_power_of_difference` read the integers
as they are, and Fractions are made only when `terms` is first read.
Both types are values: `mvt_residual` reads a `RationalPolynomial`'s
coefficients directly, so neither type evaluates or does arithmetic.

The monomial family solver handles the fixed-left-endpoint variant: for
f(x) = x^(k+1) on [0, b], the abscissa sits at c = b * (k+1)^(-1/k) for
every b, and two different lambda conventions can describe that point
(see `lambda_family`).  The ratio comes from an integer k-th root of
2^(160k) / (k+1), so both weights are correctly rounded doubles and the
residual is 0 by the identity (k+1) * ratio^k = 1, with no
multiprecision library.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Iterable, Mapping, Union

from . import expr

__all__ = [
    "RationalPolynomial",
    "BivariatePolynomial",
    "PolyVerdict",
    "DigitLimitError",
    "LambdaFamily",
    "poly_from_coeffs",
    "mvt_residual",
    "classify",
    "lambda_family",
    "MAX_DEGREE",
]

RationalLike = Union[Fraction, int, str]

MAX_DEGREE = 64  # bivariate expansion is O(d^2) terms; keep it desk-scale


def _as_fraction(value: RationalLike) -> Fraction:
    if not isinstance(value, (Fraction, int, str)):  # a float is not exact
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value)


class DigitLimitError(OverflowError):
    """An exact value has more decimal digits than the interpreter prints
    (`sys.get_int_max_str_digits`)."""


def _digit_limit_error() -> DigitLimitError:
    # str(int) raises ValueError past sys.get_int_max_str_digits()
    return DigitLimitError(
        "a coefficient has more than "
        f"{sys.get_int_max_str_digits()} digits, the limit for printing "
        "an integer (sys.get_int_max_str_digits)"
    )


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial over Fraction, lowest degree first.

    Canonical form: trailing zero coefficients stripped; the zero
    polynomial has an empty coefficient tuple and degree None.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            try:
                term = "1" if (c == 1 and k > 0) else str(c)
            except ValueError:
                raise _digit_limit_error() from None
            if k == 1:
                term = f"{term}*x" if term != "1" else "x"
            elif k > 1:
                term = f"{term}*x^{k}" if term != "1" else f"x^{k}"
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


def poly_from_coeffs(coeffs: Iterable[RationalLike]) -> RationalPolynomial:
    """Canonical polynomial sum(coeffs[i] * x^i) from any rational-like list."""
    cs = [_as_fraction(c) for c in coeffs]
    if not cs:
        raise ValueError("coefficient list must be nonempty")
    while cs and cs[-1] == 0:
        cs.pop()
    return RationalPolynomial(tuple(cs))


@dataclass(frozen=True, repr=False)
class BivariatePolynomial:
    """Polynomial in formal endpoint variables a, b.

    `rows` holds one (i, j, n, d) per nonzero term n/d * a^i b^j, with
    n/d in lowest terms and d > 0, in print order: highest total degree
    first, then ascending power of a.  Build one with `from_terms`;
    `terms` is the {(i, j): Fraction} view of the same coefficients.
    """

    rows: tuple[tuple[int, int, int, int], ...]

    @staticmethod
    def from_terms(raw: Mapping[tuple[int, int], Fraction]) -> "BivariatePolynomial":
        rows = []
        for (i, j), c in raw.items():
            c = _as_fraction(c)
            if c != 0:
                rows.append((i, j, c.numerator, c.denominator))
        rows.sort(key=lambda row: (-(row[0] + row[1]), row[0]))
        return BivariatePolynomial(tuple(rows))

    @cached_property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """(i, j) -> coefficient of a^i b^j, lowest total degree first."""
        rows = sorted(self.rows, key=lambda row: (row[0] + row[1], row[0]))
        return {(i, j): Fraction(n, d) for i, j, n, d in rows}

    def __repr__(self) -> str:
        return f"BivariatePolynomial(terms={self.terms!r})"

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def as_power_of_difference(self) -> tuple[Fraction, int] | None:
        """If the polynomial is exactly gamma * (b - a)^d, return (gamma, d)."""
        if not self.rows:
            return None
        top = self.rows[0]
        d = top[0] + top[1]
        last = self.rows[-1]
        # d + 1 terms of total degree d are a^0 b^d .. a^d b^0, in that order
        if len(self.rows) != d + 1 or last[0] + last[1] != d:
            return None
        gn, gd = top[2], top[3]
        binom = 1  # C(d, i)
        for i, (_, _, n, den) in enumerate(self.rows):
            if n * gd != (-binom if i & 1 else binom) * gn * den:
                return None
            binom = binom * (d - i) // (i + 1)
        return Fraction(gn, gd), d

    def __str__(self) -> str:
        if not self.rows:
            return "0"
        try:
            power = self.as_power_of_difference()
            if power is not None:
                gamma, d = power
                suffix = "" if d == 1 else f"^{d}"
                return f"({gamma})*(b-a){suffix}"
            top = self.rows[0][0] + self.rows[0][1]
            a_pow = ["", "*a"] + [f"*a^{i}" for i in range(2, top + 1)]
            b_pow = ["", "*b"] + [f"*b^{j}" for j in range(2, top + 1)]
            parts = [(str(n) if d == 1 else f"{n}/{d}") + a_pow[i] + b_pow[j]
                     for i, j, n, d in self.rows]
        except ValueError:
            raise _digit_limit_error() from None
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class PolyVerdict:
    satisfies: bool
    residual: BivariatePolynomial
    degree: int | None
    lam: Fraction


def _check_lambda(lam: Fraction | float) -> Fraction | float:
    # exact for a Fraction, so 1e400 is refused before float() overflows on it
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    return lam


def mvt_residual(p: RationalPolynomial, lam: RationalLike) -> BivariatePolynomial:
    """Exact expansion of p(b) - p(a) - (b-a) * p'(lam*a + (1-lam)*b).

    The result vanishes identically iff the lam-weighted endpoint average
    is a mean value abscissa of p on *every* interval (a polynomial
    identity, so the a < b restriction is immaterial).
    """
    lam = _check_lambda(_as_fraction(lam))
    if p.degree is not None and p.degree > MAX_DEGREE:
        raise ValueError(f"degree {p.degree} exceeds expansion cap {MAX_DEGREE}")

    # the integer formula of the module docstring, one degree s at a time
    P, Q = lam.numerator, lam.denominator
    R = Q - P
    by_degree = []
    T = [1]  # the row of s = 1
    q_pow = 1  # Q^(s-1)
    for s, c in enumerate(p.coeffs[1:], start=1):  # constant terms cancel
        if s > 1:
            T = [R * T[0]] + [R * t + P * u for t, u in zip(T[1:], T)] + [P * T[-1]]
            q_pow *= Q
        if c == 0:
            continue
        cn, den = c.numerator, c.denominator * q_pow
        k = s * cn
        nums = [k * (u - t) for u, t in zip([0] + T, T + [0])]  # T_(-1) = T_s = 0
        edge = cn * q_pow
        nums[0] += edge
        nums[-1] -= edge
        by_degree.append([(i, s - i, num // g, den // g) for i, num in enumerate(nums)
                          if num for g in (gcd(num, den),)])
    return BivariatePolynomial(tuple(chain.from_iterable(reversed(by_degree))))


def classify(p: RationalPolynomial, lam: RationalLike) -> PolyVerdict:
    """satisfies <=> the residual is identically zero (exact decision)."""
    lam = _as_fraction(lam)
    res = mvt_residual(p, lam)
    return PolyVerdict(res.is_zero, res, p.degree, lam)


@dataclass(frozen=True)
class LambdaFamily:
    """Fixed-left-endpoint solution for f(x) = x^(k+1) on [0, b].

    ratio is c/b = (k+1)^(-1/k), independent of b.  Two conventions can
    express the same point as a weight and they differ for k >= 2, so
    both are reported rather than silently picking one:

    - lambda_abscissa_fraction: lambda read directly as c/b (= ratio);
    - lambda_left_weight: lambda in c = lambda*a + (1-lambda)*b with
      a = 0, i.e. 1 - ratio.

    residual_check is |(f(b) - f(0))/b - f'(ratio*b)| for the exact ratio,
    which is 0 for every b: (k+1)*ratio^k = 1, so (k+1)*(ratio*b)^k = b^k
    is an identity, proved rather than measured.
    """

    k: int
    ratio: float
    lambda_left_weight: float
    lambda_abscissa_fraction: float
    residual_check: float


# ratio is read from floor(2^_FAMILY_BITS * ratio), far past a double's 53 bits
_FAMILY_BITS = 160


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def lambda_family(k: int) -> LambdaFamily:
    k = expr._check_count(k, "k")
    if not 1 <= k <= 20:
        raise ValueError(f"k must be in 1..20, got {k}")
    # y = floor(2^B * (k+1)^(-1/k)) is the integer k-th root of 2^(B*k) // (k+1);
    # each weight is one correctly rounded int/int quotient
    one = 1 << _FAMILY_BITS
    y = _iroot((1 << (_FAMILY_BITS * k)) // (k + 1), k)
    return LambdaFamily(
        k=k,
        ratio=y / one,
        lambda_left_weight=(one - y) / one,
        lambda_abscissa_fraction=y / one,
        residual_check=0.0,
    )
