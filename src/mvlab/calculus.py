"""Forward-mode derivatives of parsed expressions.

`Jet2` carries a value and its first two derivatives through arithmetic
(truncated Taylor algebra); the mean value properties need no higher
order.  Seeding the variables along a direction d
(x_j -> Jet2(x_j, d_j, 0)) turns one pass into the univariate jet of
t -> g(x + t*d): d1 is the derivative along d and d2 the second
derivative along it.  Axis seeds give partials and pure second partials
(gradients, Laplacians); a unit seed v gives the directional derivative
in a single pass.  Components may be floats or numpy arrays with
elementwise semantics, so a whole grid of derivative evaluations costs a
single tree walk per direction.

A pass whose readers need only f' runs at order 1: its jets carry
d2 = None, and no u'', no 2/t^3 and no second-order product is formed.
Every d1 is computed by the same operations at either order, so an
order-1 f' has the bits of an order-2 d1 (`first_derivative_many` is
order 1; `derivatives_1d` and the Laplacian stay order 2).  All jets of
one pass share its order, and no pass is redone at another: no rule reads
d1 or d2 to pick a branch.

`Jet2.apply` takes every function's derivatives from one table, u' and u''
as separate rules so an order-1 pass evaluates no u''.  `abs` is not
differentiable at 0: jets raise a domain error when an `abs` argument is
exactly 0 rather than silently picking a subgradient.

Every jet's value is checked with `expr._finite`; derivative parts are
checked by the function that reads them, so an f'' that overflows fails no
caller that reads f' (`derivatives_1d` returns f'' unchecked).  Jets reuse
mvlab.expr's domain rules and its power rules: `expr._walk` picks constant
or varying from the exponent's expression, `Jet2.__pow__` is the constant
rule and x^y = exp(y log x) the varying one, so a float jet has the bits of
its element in an array jet; only the derivative-only rules live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import expr
from .expr import Node, _DomainViolation, _REAL_CARRIERS, _any, _broadcast, _finite, _power

__all__ = [
    "Jet2",
    "derivatives_1d",
    "first_derivative_many",
    "gradient",
    "laplacian",
    "laplacian_many",
    "directional_derivative",
    "directional_derivative_many",
    "unit_vector",
]


def _pow_term(t: Any, coeff: float, q: float) -> Any:
    # coeff * t**q, skipping the power when the coefficient vanishes so
    # integer exponents at t == 0 never touch 0**negative
    if coeff == 0:
        return 0.0
    return coeff * _power(t, q)


# fn -> (u'(t, u), u''(t, u, u')) for every name in expr.FUNCTIONS, u = u(t);
# each keeps the operation order of its closed form, so no bit changes
_DERIVATIVES = {
    "sin": (lambda t, u: np.cos(t), lambda t, u, u1: -u),
    "cos": (lambda t, u: -np.sin(t), lambda t, u, u1: -u),
    "exp": (lambda t, u: u, lambda t, u, u1: u),
    "log": (lambda t, u: 1.0 / t, lambda t, u, inv: -inv * inv),
    "sqrt": (lambda t, u: 0.5 / u, lambda t, u, u1: -0.25 / (u * t)),
    "tanh": (lambda t, u: 1.0 - u * u, lambda t, u, s: -2.0 * u * s),  # s = sech^2
    "abs": (lambda t, u: np.sign(t), lambda t, u, u1: 0.0),
}

# fn -> (where u' is undefined though u is not, message); log's is expr._check_log
_NOT_DIFFERENTIABLE = {
    "sqrt": (lambda t: t <= 0, "sqrt of a non-positive argument (derivative undefined at 0)"),
    "abs": (lambda t: t == 0, "abs is not differentiable at 0"),
}


@dataclass(frozen=True)
class Jet2:
    """Value and first two derivatives of a univariate quantity.

    d2 holds the actual second derivative (not a Taylor coefficient), or
    None in an order-1 pass.  Lifting a constant gives d1=d2=0; lifting
    the variable at x gives value=x, d1=1, d2=0 (None at order 1).
    """

    f: Any
    d1: Any
    d2: Any

    # keep numpy from coercing jets into object arrays; reflected dunders run instead
    __array_ufunc__ = None

    @property
    def parts(self) -> tuple[Any, Any, Any]:
        return (self.f, self.d1, self.d2)

    @staticmethod
    def constant(c: Any) -> "Jet2":
        return Jet2(c, 0.0, 0.0)

    @staticmethod
    def variable(x: Any, order: int = 2) -> "Jet2":
        return Jet2(x, 1.0, 0.0 if order == 2 else None)

    def _lift(self, other: Any) -> "Jet2":
        # expr._walk hands a jet only jets and _REAL_CARRIERS (numpy defers to
        # the reflected dunders, as __array_ufunc__ is None); a constant joins
        # the pass at its order
        if isinstance(other, Jet2):
            return other
        if isinstance(other, _REAL_CARRIERS):
            return Jet2(other, 0.0, None if self.d2 is None else 0.0)
        raise TypeError(f"a jet operand must be a jet or a real, not {type(other).__name__}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other: Any) -> "Jet2":
        o = self._lift(other)
        return Jet2(self.f + o.f, self.d1 + o.d1, None if self.d2 is None else self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.f, -self.d1, None if self.d2 is None else -self.d2)

    def __sub__(self, other: Any) -> "Jet2":
        o = self._lift(other)
        return Jet2(self.f - o.f, self.d1 - o.d1, None if self.d2 is None else self.d2 - o.d2)

    def __rsub__(self, other: Any) -> "Jet2":
        return self._lift(other) - self

    def __mul__(self, other: Any) -> "Jet2":
        o = self._lift(other)
        d1 = self.d1 * o.f + self.f * o.d1
        if self.d2 is None:
            return Jet2(self.f * o.f, d1, None)
        return Jet2(self.f * o.f, d1, self.d2 * o.f + 2.0 * self.d1 * o.d1 + self.f * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Jet2":
        return self * self._lift(other)._reciprocal()

    def __rtruediv__(self, other: Any) -> "Jet2":
        return self._lift(other) * self._reciprocal()

    def _reciprocal(self) -> "Jet2":
        inv = expr._real_divide(1.0, self.f)
        return self._compose(inv, -inv * inv, None if self.d2 is None else 2.0 * _power(inv, 3.0))

    # -- composition with an outer univariate map ----------------------

    def _compose(self, u0: Any, u1: Any, u2: Any) -> "Jet2":
        """Chain rule for u(self); u2 is None, and unread, at order 1."""
        g1 = self.d1
        if self.d2 is None:
            return Jet2(u0, u1 * g1, None)
        return Jet2(u0, u1 * g1, u2 * g1 * g1 + u1 * self.d2)

    def apply(self, fn: str) -> "Jet2":
        """u(self) for the function u named `fn` (a member of expr.FUNCTIONS)."""
        t = self.f
        if fn == "log":
            expr._check_log(t)
        elif fn in _NOT_DIFFERENTIABLE and _any(_NOT_DIFFERENTIABLE[fn][0](t)):
            raise _DomainViolation(_NOT_DIFFERENTIABLE[fn][1])
        u = getattr(np, fn)(t)
        first, second = _DERIVATIVES[fn]
        u1 = first(t, u)
        return self._compose(u, u1, None if self.d2 is None else second(t, u, u1))

    def __pow__(self, p: float) -> "Jet2":
        """self ** p for an exponent p that uses no variable (see `expr._walk`)."""
        p = float(p)
        t = self.f
        if not p.is_integer() and _any(t <= 0):
            raise _DomainViolation("fractional power of a non-positive base")
        expr._check_zero_power(t, p)
        return self._compose(
            _power(t, p),
            _pow_term(t, p, p - 1.0),
            None if self.d2 is None else _pow_term(t, p * (p - 1.0), p - 2.0),
        )


# ---------------------------------------------------------------------------
# Derivative drivers


def _jet(g: Node, env: dict[int, Any]) -> Jet2:
    # the value is checked here, the derivative parts by their readers
    out = expr.eval_with(g, env)
    if isinstance(out, Jet2):
        _finite(g, out.f)
        return out
    return Jet2.constant(out)  # ignores the jets; checked in eval_with


def _univariate_jet(f: Node, x: Any, order: int = 2) -> Jet2:
    return _jet(f, expr._bind_univariate(f, Jet2.variable(x, order)))


def derivatives_1d(f: Node, x0: float) -> tuple[float, float, float]:
    """(f(x0), f'(x0), f''(x0)) by one order-2 jet pass.  f and f' are
    checked finite; f'' is returned as computed (inf or NaN when it
    overflows), so a caller that reads it checks it."""
    j = _univariate_jet(f, float(x0))
    return float(j.f), float(_finite(f, j.d1)), float(j.d2)


def first_derivative_many(f: Node, xs: Sequence[float]) -> np.ndarray:
    """f'(x) at every x in `xs`, computed in a single array-valued order-1
    pass; its bits are those of the order-2 d1."""
    xs = np.asarray(xs, dtype=float)
    return _broadcast(_finite(f, _univariate_jet(f, xs, order=1).d1), xs.shape)


def _seeded_pass(g: Node, coords: Sequence[Any], direction: Sequence[float]) -> Jet2:
    """Jet of t -> g(coords + t*direction) at t = 0: d1 and d2 are the
    first and second derivatives of g along `direction`.  Variables with a
    zero direction component stay plain floats or arrays on the checked
    real path."""
    return _jet(g, {j + 1: x if d == 0 else Jet2(x, d, 0.0)
                    for j, (x, d) in enumerate(zip(coords, direction))})


def _axis(n: int, i: int) -> tuple[float, ...]:
    return tuple(float(j == i) for j in range(n))


def _columns(points: Any) -> list[np.ndarray]:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must have shape (count, dim)")
    return list(pts.T)


def _laplacian_pass(g: Node, coords: Sequence[Any]) -> tuple[Any, Any]:
    # (g, sum of pure second partials): one jet pass per axis
    n = len(coords)
    expr.check_dimension(g, n)
    passes = [_seeded_pass(g, coords, _axis(n, i)) for i in range(n)]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        total = sum(p.d2 for p in passes)
    if not np.isfinite(total).all():  # an inf or NaN d2 makes the sum one
        raise expr.DomainError(g, "non-finite Laplacian")
    return passes[0].f, total


def _directional_pass(g: Node, coords: Sequence[Any], v: Sequence[float]) -> Any:
    if len(v) != len(coords):
        raise ValueError("direction and point dimensions differ")
    direction = unit_vector(v)
    expr.check_dimension(g, len(coords))
    return _finite(g, _seeded_pass(g, coords, direction).d1)


def unit_vector(v: Sequence[float]) -> tuple[float, ...]:
    """v as a tuple of floats, checked to be a direction: every component
    finite and |v| within 1e-12 of 1 (a NaN norm fails the test too)."""
    v = tuple(float(c) for c in v)
    norm = math.sqrt(sum(c * c for c in v))
    if not (all(map(math.isfinite, v)) and abs(norm - 1.0) <= 1e-12):
        raise ValueError(f"v must be a finite unit vector, got {v}")
    return v


def gradient(g: Node, point: Sequence[float]) -> list[float]:
    """Vector of first partials of g at `point`, one jet pass per axis."""
    n = len(point)
    expr.check_dimension(g, n)
    coords = [float(x) for x in point]
    return [float(_finite(g, _seeded_pass(g, coords, _axis(n, i)).d1)) for i in range(n)]


def laplacian(g: Node, point: Sequence[float]) -> float:
    """Sum of pure second partials at `point`, one jet pass per axis."""
    return float(_laplacian_pass(g, [float(x) for x in point])[1])


def laplacian_many(g: Node, points: Any) -> tuple[np.ndarray, np.ndarray]:
    """(g, Laplacian of g) at every row of `points`, shape (count, dim),
    from one array-valued jet pass per axis."""
    coords = _columns(points)
    value, total = _laplacian_pass(g, coords)
    shape = coords[0].shape
    return _broadcast(value, shape), _broadcast(total, shape)


def directional_derivative(g: Node, point: Sequence[float], v: Sequence[float]) -> float:
    """Derivative of g along the unit vector v, one jet pass seeded along v."""
    return float(_directional_pass(g, [float(x) for x in point], v))


def directional_derivative_many(g: Node, points: Any, v: Sequence[float]) -> np.ndarray:
    """Derivative of g along the unit vector v at every row of `points`,
    shape (count, dim), from one array-valued jet pass."""
    coords = _columns(points)
    return _broadcast(_directional_pass(g, coords, v), coords[0].shape)
