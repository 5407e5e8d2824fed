"""Shared corpus and independent reference evaluators for the test suite.

The evaluators here are deliberately written from scratch (plain
structural recursion, no shared helpers with the package) so they can
serve as oracles: `ref_eval` mirrors IEEE double semantics operation by
operation, under the one numeric rule the package states for floats and
arrays alike, and `mp_eval` computes in mpmath working precision for
finite-difference oracles that need headroom below double roundoff.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from mvlab import expr
from mvlab.expr import BinOp, Call, Neg, Num, Var

# (source, safe evaluation domain) - smooth on the stated interval, used for
# abscissa existence sweeps, AD-vs-FD comparisons, and the 1-D checkers.
SMOOTH_CORPUS: list[tuple[str, tuple[float, float]]] = [
    ("x^2", (-2.0, 2.0)),
    ("x^3 - 2*x", (-2.0, 2.0)),
    ("x^4 - 3*x^2 + 1", (-2.0, 2.0)),
    ("2*x + 5", (-2.0, 2.0)),
    ("7", (-2.0, 2.0)),
    ("exp(x)", (-2.0, 2.0)),
    ("exp(-x^2)", (-2.0, 2.0)),
    ("sin(x)", (-2.0, 2.0)),
    ("cos(2*x)", (-2.0, 2.0)),
    ("sin(x)*exp(x/2)", (-2.0, 2.0)),
    ("x*cos(x)", (-2.0, 2.0)),
    ("sin(2*x) + cos(3*x)", (-2.0, 2.0)),
    ("exp(sin(x))", (-2.0, 2.0)),
    ("log(x + 5)", (-2.0, 2.0)),
    ("log(x^2 + 1)", (-2.0, 2.0)),
    ("sqrt(x + 5)", (-2.0, 2.0)),
    ("sqrt(x^2 + 1)", (-2.0, 2.0)),
    ("tanh(x)", (-2.0, 2.0)),
    ("tanh(2*x)", (-2.0, 2.0)),
    ("1/(x + 5)", (-2.0, 2.0)),
    ("1/(x^2 + 2)", (-2.0, 2.0)),
    ("x^2*exp(-x)", (-2.0, 2.0)),
    ("sin(x)^2", (-2.0, 2.0)),
    ("cos(x)^3", (-2.0, 2.0)),
    ("(x + 3)^2.5", (-2.0, 2.0)),
    ("exp(x)/(2 + cos(x))", (-2.0, 2.0)),
    ("x^5/10 - x", (-2.0, 2.0)),
    ("(1 + x^2)^0.5 - x/3", (-2.0, 2.0)),
    ("tanh(x)*sin(x)", (-2.0, 2.0)),
    ("exp(x/3)*cos(2*x)", (-2.0, 2.0)),
]


def _ref_power(base, exponent):
    # the rule for ^: an exponent k in 0..16 is binary powering, which
    # multiplies the result by base^(2^j) for each set bit j of k, lowest
    # bit first; any other exponent is np.power
    if exponent not in range(17):
        return np.power(base, exponent)
    result, square, k = None, base, int(exponent)
    while k:
        if k % 2:
            result = square if result is None else result * square
        k //= 2
        if k:
            square = square * square
    return 1.0 if result is None else result


def ref_eval(node, env):
    """Independent float evaluator: same structural recursion order as the
    package is specified to use, written without touching its internals.
    Every function is its numpy ufunc and ^ follows `_ref_power`."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.index]
    if isinstance(node, Neg):
        return -ref_eval(node.operand, env)
    if isinstance(node, BinOp):
        left = ref_eval(node.left, env)
        right = ref_eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        if node.op == "^":
            return _ref_power(left, right)
        raise AssertionError(node.op)
    if isinstance(node, Call):
        return getattr(np, node.fn)(ref_eval(node.arg, env))
    raise AssertionError(node)


def mp_eval(node, env):
    """Independent mpmath evaluator (values are mpf at working precision)."""
    if isinstance(node, Num):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return env[node.index]
    if isinstance(node, Neg):
        return -mp_eval(node.operand, env)
    if isinstance(node, BinOp):
        left = mp_eval(node.left, env)
        right = mp_eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        if node.op == "^":
            if left < 0 and right == mpmath.floor(right):
                return mpmath.power(left, int(right))
            return mpmath.power(left, right)
        raise AssertionError(node.op)
    if isinstance(node, Call):
        value = mp_eval(node.arg, env)
        fn = {"abs": mpmath.fabs}.get(node.fn) or getattr(mpmath, node.fn)
        return fn(value)
    raise AssertionError(node)


def mp_univariate(source: str):
    """mpmath-valued callable t -> f(t) for a univariate expression."""
    ast = expr.parse(source)
    used = expr.variables(ast)
    assert len(used) <= 1
    index = used[0] if used else 1

    def f(t):
        return mp_eval(ast, {index: mpmath.mpf(t)})

    return f


def fd_derivatives(source: str, x0: float, step: float = 1e-5):
    """Central-difference first/second derivatives at the stated
    step, evaluated in 50-digit arithmetic so the difference quotients are
    limited by truncation error only, not double roundoff."""
    with mpmath.workdps(50):
        f = mp_univariate(source)
        h = mpmath.mpf(step)
        x = mpmath.mpf(x0)
        d1 = (f(x + h) - f(x - h)) / (2 * h)
        d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
        return float(d1), float(d2)


@pytest.fixture
def smooth_corpus():
    return SMOOTH_CORPUS
