"""Forward-mode derivatives of parsed expressions.

`Jet3` carries a value and its first three derivatives through arithmetic
(truncated Taylor algebra).  Seeding the variables along a direction d
(x_j -> Jet3(x_j, d_j, 0, 0)) turns one pass into the univariate jet of
t -> g(x + t*d): d1 is the derivative along d and d2 the second
derivative along it.  Axis seeds give partials and pure second partials
(gradients, Laplacians); a unit seed v gives the directional derivative
in a single pass.  Components may be floats or numpy arrays with
elementwise semantics, so a whole grid of derivative evaluations costs a
single tree walk per direction.

`abs` is not differentiable at 0: jets raise a domain error when an `abs`
argument is exactly 0 rather than silently picking a subgradient.

Every pass goes through `expr.eval_with`, which raises a DomainError when
any part of the resulting jet is inf or NaN; this module has no check of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import expr
from .expr import Node, _DomainViolation, _REAL_CARRIERS, _broadcast

__all__ = [
    "Jet3",
    "derivatives_1d",
    "first_derivative_many",
    "gradient",
    "laplacian",
    "laplacian_many",
    "directional_derivative",
    "directional_derivative_many",
]


def _pow_term(t: Any, coeff: float, q: float) -> Any:
    # coeff * t**q, skipping the power when the coefficient vanishes so
    # integer exponents at t == 0 never touch 0**negative
    if coeff == 0:
        return 0.0
    return coeff * t**q


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives of a univariate quantity.

    d2/d3 hold the actual second/third derivatives (not Taylor
    coefficients).  Lifting a constant gives d1=d2=d3=0; lifting the
    variable at x gives value=x, d1=1, d2=d3=0.
    """

    f: Any
    d1: Any
    d2: Any
    d3: Any

    # keep numpy from coercing jets into object arrays; reflected dunders run instead
    __array_ufunc__ = None

    @property
    def parts(self) -> tuple[Any, Any, Any, Any]:
        """(f, d1, d2, d3); `expr.eval_with` checks each for inf/NaN."""
        return (self.f, self.d1, self.d2, self.d3)

    @staticmethod
    def constant(c: Any) -> "Jet3":
        return Jet3(c, 0.0, 0.0, 0.0)

    @staticmethod
    def variable(x: Any) -> "Jet3":
        return Jet3(x, 1.0, 0.0, 0.0)

    @staticmethod
    def _lift(other: Any) -> "Jet3 | None":
        if isinstance(other, Jet3):
            return other
        if isinstance(other, _REAL_CARRIERS):
            return Jet3.constant(other)
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other: Any) -> "Jet3":
        o = Jet3._lift(other)
        if o is None:
            return NotImplemented
        return Jet3(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __neg__(self) -> "Jet3":
        return Jet3(-self.f, -self.d1, -self.d2, -self.d3)

    def __sub__(self, other: Any) -> "Jet3":
        o = Jet3._lift(other)
        if o is None:
            return NotImplemented
        return Jet3(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __rsub__(self, other: Any) -> "Jet3":
        o = Jet3._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: Any) -> "Jet3":
        o = Jet3._lift(other)
        if o is None:
            return NotImplemented
        return Jet3(
            self.f * o.f,
            self.d1 * o.f + self.f * o.d1,
            self.d2 * o.f + 2.0 * self.d1 * o.d1 + self.f * o.d2,
            self.d3 * o.f + 3.0 * self.d2 * o.d1 + 3.0 * self.d1 * o.d2 + self.f * o.d3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Jet3":
        o = Jet3._lift(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other: Any) -> "Jet3":
        o = Jet3._lift(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def _reciprocal(self) -> "Jet3":
        t = self.f
        if np.any(np.asarray(t) == 0):
            raise _DomainViolation("division by zero")
        inv = 1.0 / t
        return self._compose(inv, -inv * inv, 2.0 * inv**3, -6.0 * inv**4)

    # -- composition with an outer univariate map ----------------------

    def _compose(self, u0: Any, u1: Any, u2: Any, u3: Any) -> "Jet3":
        """Chain rule through third order for u(self)."""
        g1 = self.d1
        return Jet3(
            u0,
            u1 * g1,
            u2 * g1 * g1 + u1 * self.d2,
            u3 * g1 * g1 * g1 + 3.0 * u2 * g1 * self.d2 + u1 * self.d3,
        )

    def sin(self) -> "Jet3":
        s, c = np.sin(self.f), np.cos(self.f)
        return self._compose(s, c, -s, -c)

    def cos(self) -> "Jet3":
        s, c = np.sin(self.f), np.cos(self.f)
        return self._compose(c, -s, -c, s)

    def exp(self) -> "Jet3":
        e = np.exp(self.f)
        return self._compose(e, e, e, e)

    def log(self) -> "Jet3":
        t = self.f
        if np.any(np.asarray(t) <= 0):
            raise _DomainViolation("log of a non-positive argument")
        inv = 1.0 / t
        return self._compose(np.log(t), inv, -inv * inv, 2.0 * inv**3)

    def sqrt(self) -> "Jet3":
        t = self.f
        if np.any(np.asarray(t) <= 0):
            raise _DomainViolation(
                "sqrt of a non-positive argument (derivative undefined at 0)"
            )
        r = np.sqrt(t)
        return self._compose(r, 0.5 / r, -0.25 / (r * t), 0.375 / (r * t * t))

    def tanh(self) -> "Jet3":
        t = np.tanh(self.f)
        s = 1.0 - t * t  # sech^2
        return self._compose(t, s, -2.0 * t * s, s * (6.0 * t * t - 2.0))

    def abs(self) -> "Jet3":
        t = self.f
        if np.any(np.asarray(t) == 0):
            raise _DomainViolation("abs is not differentiable at 0")
        sign = np.sign(t)
        return self._compose(np.abs(t), sign, 0.0, 0.0)

    def __pow__(self, other: Any) -> "Jet3":
        if isinstance(other, Jet3) and not any(
            np.any(np.asarray(d) != 0) for d in (other.d1, other.d2, other.d3)
        ):
            other = other.f
        if isinstance(other, _REAL_CARRIERS) and np.ndim(other) == 0:
            return self._pow_const(other)
        o = Jet3._lift(other)
        if o is None:
            return NotImplemented
        # a varying or array-valued exponent: x^y = exp(y log x)
        if np.any(np.asarray(self.f) <= 0):
            raise _DomainViolation("power with varying exponent needs a positive base")
        return (o * self.log()).exp()

    def __rpow__(self, other: Any) -> "Jet3":
        o = Jet3._lift(other)
        if o is None:
            return NotImplemented
        return o.__pow__(self)

    def _pow_const(self, p: Any) -> "Jet3":
        p = float(p)
        t = self.f
        if not p.is_integer():
            if np.any(np.asarray(t) <= 0):
                raise _DomainViolation("fractional power of a non-positive base")
        elif p < 0 and np.any(np.asarray(t) == 0):
            raise _DomainViolation("zero raised to a negative power")
        return self._compose(
            t**p,
            _pow_term(t, p, p - 1.0),
            _pow_term(t, p * (p - 1.0), p - 2.0),
            _pow_term(t, p * (p - 1.0) * (p - 2.0), p - 3.0),
        )


# ---------------------------------------------------------------------------
# Derivative drivers


def _jet(g: Node, env: dict[int, Any]) -> Jet3:
    # one checked evaluation; a result that ignores the jets is a constant
    out = expr.eval_with(g, env)
    return out if isinstance(out, Jet3) else Jet3.constant(out)


def derivatives_1d(f: Node, x0: float) -> tuple[float, float, float, float]:
    """(f(x0), f'(x0), f''(x0), f'''(x0)) by one order-3 jet pass."""
    out = _jet(f, {expr.sole_variable(f) or 1: Jet3.variable(float(x0))})
    return (float(out.f), float(out.d1), float(out.d2), float(out.d3))


def first_derivative_many(f: Node, xs: Sequence[float]) -> np.ndarray:
    """f'(x) at every x in `xs`, computed in a single array-valued pass."""
    xs = np.asarray(xs, dtype=float)
    return _broadcast(_jet(f, {expr.sole_variable(f) or 1: Jet3.variable(xs)}).d1, xs.shape)


def _check_dimension(g: Node, n: int) -> None:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    used = expr.variables(g)
    if used and used[-1] > n:
        raise ValueError(f"expression uses x{used[-1]} but dimension is {n}")


def _seeded_pass(g: Node, coords: Sequence[Any], direction: Sequence[float]) -> Jet3:
    """Jet of t -> g(coords + t*direction) at t = 0: d1 and d2 are the
    first and second derivatives of g along `direction`.  Variables with a
    zero direction component stay plain floats or arrays on the checked
    real path."""
    return _jet(g, {j + 1: x if d == 0 else Jet3(x, d, 0.0, 0.0)
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
    _check_dimension(g, n)
    passes = [_seeded_pass(g, coords, _axis(n, i)) for i in range(n)]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        total = sum(p.d2 for p in passes)
    if not np.isfinite(total).all():  # each pass is finite, their sum may not be
        raise expr.DomainError(g, "non-finite Laplacian")
    return passes[0].f, total


def _directional_pass(g: Node, coords: Sequence[Any], v: Sequence[float]) -> Any:
    if len(v) != len(coords):
        raise ValueError("direction and point dimensions differ")
    norm = float(np.linalg.norm(np.asarray(v, dtype=float)))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"v must be a unit vector (|v| = {norm!r})")
    _check_dimension(g, len(coords))
    return _seeded_pass(g, coords, [float(c) for c in v]).d1


def gradient(g: Node, point: Sequence[float]) -> list[float]:
    """Vector of first partials of g at `point`, one jet pass per axis."""
    n = len(point)
    _check_dimension(g, n)
    coords = [float(x) for x in point]
    return [float(_seeded_pass(g, coords, _axis(n, i)).d1) for i in range(n)]


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
