"""Expression front end: tokenizer, parser, evaluator, canonical printer.

Grammar (EBNF):

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := "-" unary | power
    power := atom ("^" unary)?
    atom  := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

``^`` is right-associative and unary minus binds looser than ``^``, so
``-x^2`` parses as ``-(x^2)`` and ``2^3^2`` as ``2^(3^2)``.  Function
application binds tighter than every binary operator.  There is no
implicit multiplication: ``2x`` is a lexical/parse error.

Recognized functions (all unary): sin, cos, exp, log (natural), sqrt,
tanh, abs.  The constants ``pi`` and ``e`` expand to number literals at
parse time.  Variables are x1..x10; ``x``, ``y``, ``z`` are aliases for
x1, x2, x3.

Rules stated once here, for every caller: the tokens in `_TOKEN_RE`,
the depth bound `MAX_DEPTH` in `_check_depth` (a parse error, so no walker
nears Python's recursion limit), variable names in `_variable_index`
(binding keys through `_bind`, which refuses two keys for one variable),
a count (grid, steps, trials, points, samples, panels, nodes, k, a draw's
size, dimension) and the minimum it carries in `_check_count`, the
dimension 1..10 in `check_dimension`, the real domain in `_real_divide`,
`_real_pow` and `_real_apply` (also for a jet's value), the power
rule in `_walk` (an exponent that uses no variable is a constant power,
`_real_pow` or the jet's own, and any other a varying power,
`_varying_pow`), and the error of a failing batched pass in
`split_failures`.

Parsing and evaluation are pure; AST nodes are immutable, so one parsed
expression can be evaluated any number of times.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Node",
    "Token",
    "ExprError",
    "LexError",
    "ParseError",
    "ArityError",
    "EvalError",
    "UnboundVariableError",
    "DomainError",
    "FUNCTIONS",
    "CONSTANTS",
    "MAX_VARIABLES",
    "MAX_DEPTH",
    "tokenize",
    "parse",
    "evaluate",
    "eval_many",
    "eval_with",
    "split_failures",
    "print_canonical",
    "variables",
    "check_dimension",
    "sole_variable",
    "neg",
]

MAX_VARIABLES = 10

# `parse` refuses a tree deeper than this (a leaf is depth 1) and text
# nested in more parentheses, so no walker nears Python's recursion limit
MAX_DEPTH = 100

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh", "abs")

CONSTANTS = {"pi": math.pi, "e": math.e}

_ALIASES = {"x": 1, "y": 2, "z": 3}


# ---------------------------------------------------------------------------
# Errors


class ExprError(ValueError):
    """Base class for every error raised by this module."""


class LexError(ExprError):
    """Illegal character in the source text."""

    def __init__(self, source: str, offset: int):
        self.offset = offset
        self.char = source[offset]
        super().__init__(f"illegal character {self.char!r} at offset {offset}")


class ParseError(ExprError):
    """Malformed token stream."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class ArityError(ParseError):
    """Function called with the wrong number of arguments."""


class EvalError(ExprError):
    """Base class for evaluation failures."""


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class DomainError(EvalError):
    """Evaluation left the real domain (log/sqrt of a negative number,
    division by zero, ...).  Carries the offending sub-expression."""

    def __init__(self, expression: "Node", message: str):
        self.expression = expression
        super().__init__(f"{message} in {print_canonical(expression)!r}")


class _DomainViolation(Exception):
    """Internal signal raised by numeric kernels; the tree walker catches
    it and re-raises a DomainError pointing at the offending node."""


# ---------------------------------------------------------------------------
# AST


class _Node:
    """Base of the node types.  A node is immutable, so the variables its
    tree uses are found by one walk, on first use, and kept on it, as are
    its tree's levels."""

    @cached_property
    def _variables(self) -> tuple[int, ...]:
        found: set[int] = set()

        def walk(node: Node) -> None:
            if isinstance(node, Var):
                found.add(node.index)
            for child in _children(node):
                walk(child)

        walk(self)
        return tuple(sorted(found))

    @cached_property
    def _depth(self) -> int:
        # the parser reads it on each node it builds, so this is one level deep
        return 1 + max((child._depth for child in _children(self)), default=0)


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    index: int  # 1-based, 1..MAX_VARIABLES

    @property
    def name(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Node"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call(_Node):
    fn: str  # member of FUNCTIONS
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


def _children(node: Node) -> tuple[Node, ...]:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def neg(operand: Node) -> Node:
    """Negation constructor.  Folds literal operands (`neg(Num(3))` is
    `Num(-3)`) so canonical printing round-trips negative literals."""
    if isinstance(operand, Num):
        return Num(-operand.value)
    return Neg(operand)


def variables(ast: Node) -> tuple[int, ...]:
    """Sorted tuple of the distinct variable indices used by `ast`."""
    return ast._variables


def _check_count(value: Any, what: str, minimum: int | None = None) -> int:
    """`value` as an int, or a ValueError naming the rule when
    `operator.index` refuses it (2.5, 2.0, "3") or it is below `minimum`;
    numpy integers are counts."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise ValueError(f"need {what} >= {minimum}")
    return count


def check_dimension(ast: Node | None, n: int) -> None:
    """Raise ValueError unless n is an integer, 1 <= n <= MAX_VARIABLES
    and `ast` (when given) uses no variable past x_n."""
    if not 1 <= _check_count(n, "dimension") <= MAX_VARIABLES:
        raise ValueError(f"dimension must be 1..{MAX_VARIABLES}, got {n}")
    used = variables(ast) if ast is not None else ()
    if used and used[-1] > n:
        raise ValueError(f"expression uses x{used[-1]} but dimension is {n}")


def sole_variable(ast: Node) -> int | None:
    """Index of the one variable a univariate `ast` uses, or None when it
    uses none.  Raises ValueError when it uses more than one."""
    used = variables(ast)
    if len(used) > 1:
        raise ValueError(f"expression is not univariate (uses {used})")
    return used[0] if used else None


def _bind_univariate(ast: Node, value: Any) -> dict[int, Any]:
    # a constant `ast` ignores its binding, so it gets x1
    return {sole_variable(ast) or 1: value}


# ---------------------------------------------------------------------------
# Tokenizer


class Token(NamedTuple):
    """One lexeme: a named tuple, the cheapest record to build once per token."""

    kind: str  # num | ident | op | lparen | rparen | comma | end
    text: str
    offset: int
    value: float = 0.0


# one alternative per token kind, tried in this order; "ws" is skipped
_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    """Scan `source` into tokens.  Whitespace-insensitive; raises LexError
    with the byte offset of the first illegal character."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexError(source, pos)
        kind, text = m.lastgroup, m.group()
        if kind != "ws":
            tokens.append(Token(kind, text, pos, float(text) if kind == "num" else 0.0))
        pos = m.end()
    tokens.append(Token("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # parentheses open at pos
        # a tree has fewer levels than its text has tokens
        self.shallow = len(tokens) <= MAX_DEPTH

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str) -> Token | None:
        """Consume the next token if it is one of the operators `ops`."""
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def built(self, node: Node, tok: Token) -> Node:
        """`node`, made by the operator or call at `tok`, if within MAX_DEPTH."""
        if not self.shallow:
            _check_depth(node._depth, tok)
        return node

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} after expression", tok.offset)
        return node

    def inner(self, opening: Token) -> Node:
        """An `expr` inside the parenthesis at `opening`."""
        self.nesting += 1
        _check_depth(self.nesting, opening)
        node = self.expr()
        self.nesting -= 1
        return node

    def expr(self) -> Node:
        node = self.term()
        while op := self.accept("+-"):
            node = self.built(BinOp(op.text, node, self.term()), op)
        return node

    def term(self) -> Node:
        node = self.unary()
        while op := self.accept("*/"):
            node = self.built(BinOp(op.text, node, self.unary()), op)
        return node

    def unary(self) -> Node:
        # unary := "-" unary | power and power := atom ("^" unary)?, read as
        # one chain of signed atoms joined by "^" and folded from the right,
        # so only parentheses recurse
        chain: list[tuple[list[Token], Node, Token | None]] = []
        while True:
            signs = []
            while sign := self.accept("-"):
                signs.append(sign)
            atom = self.atom()
            caret = self.accept("^")
            chain.append((signs, atom, caret))
            if caret is None:
                break
        node = None
        for signs, atom, caret in reversed(chain):
            node = atom if caret is None else self.built(BinOp("^", atom, node), caret)
            for sign in reversed(signs):
                node = self.built(neg(node), sign)
        return node

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "lparen":
            node = self.inner(tok)
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("unclosed parenthesis", tok.offset)
            return node
        if tok.kind == "ident":
            return self.ident(tok)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.offset)
        raise ParseError(f"unexpected {tok.text!r}", tok.offset)

    def ident(self, tok: Token) -> Node:
        name = tok.text
        if self.peek().kind == "lparen":
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", tok.offset)
            opening = self.advance()
            args = [self.inner(opening)]
            while self.peek().kind == "comma":
                self.advance()
                args.append(self.inner(opening))
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("unclosed parenthesis", tok.offset)
            if len(args) != 1:
                raise ArityError(
                    f"{name} expects 1 argument, got {len(args)}", tok.offset
                )
            return self.built(Call(name, args[0]), tok)
        if name in CONSTANTS:
            return Num(CONSTANTS[name])
        return self.variable(tok)

    def variable(self, tok: Token) -> Var:
        return Var(_variable_index(tok.text, tok.offset))


def _check_depth(depth: int, tok: Token) -> None:
    if depth > MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH} levels", tok.offset)


def _variable_index(key: str | int, offset: int | None = None) -> int:
    """Index of the variable `key` names (an alias x, y, z, a name x1..x10
    or, as a binding key, the index itself), for parsed text and binding
    keys alike; raises ParseError naming the key as given."""
    if isinstance(key, int) and not isinstance(key, bool):
        index = key
    elif key in _ALIASES:
        return _ALIASES[key]
    else:
        m = re.fullmatch(r"x([0-9]+)", str(key))
        if not m:
            raise ParseError(f"unknown identifier {key!r}", offset)
        index = int(m.group(1))
    if not 1 <= index <= MAX_VARIABLES:
        raise ParseError(f"variable index out of range (x1..x{MAX_VARIABLES}): {key!r}", offset)
    return index


def parse(source: str) -> Node:
    """Parse `source` into an AST.  Raises LexError/ParseError/ArityError."""
    return _Parser(tokenize(source)).parse()


# ---------------------------------------------------------------------------
# Canonical printing


def _format_number(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"non-finite literal {v!r} cannot be printed")
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def print_canonical(ast: Node) -> str:
    """Fully parenthesized canonical text; `parse(print_canonical(a))`
    is structurally equal to `a` for any AST built via `parse` or the
    module constructors (negated literals are stored as negative
    literals, see `neg`)."""
    if isinstance(ast, Num):
        text = _format_number(ast.value)
        # a bare leading minus would rebind under ^, e.g. -1^0 is -(1^0)
        return f"({text})" if text.startswith("-") else text
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{print_canonical(ast.operand)})"
    if isinstance(ast, BinOp):
        return f"({print_canonical(ast.left)}{ast.op}{print_canonical(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.fn}({print_canonical(ast.arg)})"
    raise TypeError(f"not an AST node: {ast!r}")


# ---------------------------------------------------------------------------
# Evaluation
#
# One tree walker serves every numeric carrier type: plain floats, numpy
# arrays and the forward-mode Jet2 from mvlab.calculus, which implements
# the arithmetic dunders plus `apply(fn)` for every name in FUNCTIONS and
# raises _DomainViolation on domain faults.  Each rule below takes a float
# or an array alike: a function is its numpy ufunc, a constant power
# `_power` and a varying one np.power, so f(x) has the same bits whether x
# is a float or an element of any array.
# `eval_with` turns an inf or NaN real result into a DomainError; a jet's
# reader checks the parts it reads with `_finite`.

# real carrier types; anything else (a jet) brings its own arithmetic
_REAL_CARRIERS = (int, float, np.floating, np.ndarray)


def _any(mask: Any) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _real_divide(lhs: Any, rhs: Any) -> Any:
    if _any(rhs == 0):
        raise _DomainViolation("division by zero")
    return lhs / rhs


_SMALL_INT_POWERS = frozenset(range(17))  # exponents `_power` takes by binary powering


def _power(base: Any, expo: float) -> Any:
    # base ** expo for a float, an array or a jet part and a constant expo:
    # binary powering, low bit first (much faster than np.power), for 0..16,
    # np.power otherwise; the callers check domains
    if expo not in _SMALL_INT_POWERS:
        return np.power(base, expo)
    out, square, k = None, base, int(expo)
    while k:
        if k & 1:
            out = square if out is None else out * square
        k >>= 1
        if k:
            square = square * square
    if out is not None:
        return out
    return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0  # a float gives a float


def _check_real_pow(base: Any, expo: Any) -> None:
    if _any((base < 0) & (expo % 1 != 0)):  # an infinite exponent is not an integer
        raise _DomainViolation("fractional power of a negative base")
    if _any((base == 0) & (expo < 0)):
        raise _DomainViolation("zero raised to a negative power")


def _real_pow(base: Any, expo: float) -> Any:
    if expo not in _SMALL_INT_POWERS:  # else no check can fail
        _check_real_pow(base, expo)
    return _power(base, expo)


def _varying_pow(base: Any, expo: Any) -> Any:
    # base ** expo for an expo that uses a variable: np.power of two reals as
    # arrays (a float as one element, for the bits of any array's element),
    # else exp(expo * log(base)) for a base whose value (a jet's f) is positive
    if isinstance(base, _REAL_CARRIERS) and isinstance(expo, _REAL_CARRIERS):
        _check_real_pow(base, expo)
        out = np.power(np.atleast_1d(base), np.atleast_1d(expo))
        return out if np.ndim(base) or np.ndim(expo) else out[0]
    if _any((base if isinstance(base, _REAL_CARRIERS) else base.f) <= 0):
        raise _DomainViolation("power with varying exponent needs a positive base")
    return _apply("exp", expo * _apply("log", base))


def _apply(fn: str, v: Any) -> Any:
    return _real_apply(fn, v) if isinstance(v, _REAL_CARRIERS) else v.apply(fn)


def _real_apply(fn: str, v: Any) -> Any:
    if fn == "log" and _any(v <= 0):
        raise _DomainViolation("log of a non-positive argument")
    if fn == "sqrt" and _any(v < 0):
        raise _DomainViolation("sqrt of a negative argument")
    return getattr(np, fn)(v)  # an inf or NaN result is refused by eval_with


def _finite(ast: Node, value: Any) -> Any:
    """`value` (a float or an array); a DomainError on `ast` if any is inf or NaN."""
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray)
            else math.isfinite(value)):
        raise DomainError(ast, "non-finite value")
    return value


def eval_with(ast: Node, env: Mapping[int, Any]) -> Any:
    """Low-level evaluation: `env` maps variable index -> value, where a
    value may be a float, a numpy array, or a forward-mode number.  Domain
    faults surface as DomainError carrying the offending sub-expression;
    an inf or NaN real result is a DomainError on `ast`.  A forward-mode
    result is returned unchecked, for its reader to check what it reads."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = _walk(ast, env)
    return _finite(ast, out) if isinstance(out, _REAL_CARRIERS) else out


def _broadcast(x: Any, shape: tuple[int, ...]) -> np.ndarray:
    # a result that ignores the array-valued variables is a scalar: spread it
    if isinstance(x, np.ndarray) and x.shape == shape:
        return x
    return np.broadcast_to(np.asarray(x, dtype=float), shape).copy()


def _walk(ast: Node, env: Mapping[int, Any]) -> Any:
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        try:
            return env[ast.index]
        except KeyError:
            raise UnboundVariableError(ast.name) from None
    try:
        if isinstance(ast, Neg):
            return -_walk(ast.operand, env)
        if isinstance(ast, BinOp):
            lhs = _walk(ast.left, env)
            rhs = _walk(ast.right, env)
            if ast.op == "+":
                return lhs + rhs
            if ast.op == "-":
                return lhs - rhs
            if ast.op == "*":
                return lhs * rhs
            if ast.op == "/":
                if isinstance(rhs, _REAL_CARRIERS):
                    return _real_divide(lhs, rhs)
                return lhs / rhs  # AD types check their own denominators
            if ast.op == "^":
                if variables(ast.right):
                    return _varying_pow(lhs, rhs)
                if isinstance(lhs, _REAL_CARRIERS):
                    return _real_pow(lhs, rhs)
                return lhs**rhs  # a jet's constant-power rule
            raise TypeError(f"unknown operator {ast.op!r}")
        if isinstance(ast, Call):
            return _apply(ast.fn, _walk(ast.arg, env))
    except _DomainViolation as exc:
        raise DomainError(ast, str(exc)) from None
    raise TypeError(f"not an AST node: {ast!r}")


def _bind(bindings: Mapping[Any, Any], convert: Callable[[Any], Any]) -> dict[int, Any]:
    """`bindings` keyed by variable index, each value converted; refuses
    two keys that name one variable (x and x1, or "x" and 1)."""
    env: dict[int, Any] = {}
    for key, value in bindings.items():
        index = _variable_index(key)
        if index in env:
            raise ParseError(f"more than one binding names x{index}: {key!r}")
        env[index] = convert(value)
    return env


def evaluate(ast: Node, bindings: Mapping[Any, Any] | None = None) -> float:
    """Evaluate `ast` at the given variable bindings (keys may be names
    like "x", "x2" or 1-based indices).  Standard real semantics; raises
    UnboundVariableError or DomainError (also for an inf or NaN result)."""
    return float(eval_with(ast, _bind(bindings or {}, float)))


def eval_many(ast: Node, bindings: Mapping[Any, Iterable[float]]) -> np.ndarray:
    """Vectorized evaluation over numpy arrays of binding values.  All
    arrays must share a shape; a constant expression broadcasts to it.
    An inf or NaN anywhere in the result raises DomainError."""
    env = _bind(bindings, lambda v: np.asarray(v, dtype=float))
    shape = next(iter(env.values())).shape if env else ()
    return _broadcast(eval_with(ast, env), shape)


def split_failures(run: Callable[[Any], Any], parts: Sequence) -> Iterator[tuple[Any, Any]]:
    """Yield (parts, run(parts)), or, if `run` raises a ValueError (an
    EvalError or a rule such as a shut interval), the pairs of each half of
    `parts` in turn, down to single parts paired with their own error.  For
    an elementwise `run` a failing part costs O(log n) calls, and a consumer
    that stops at the first error makes no further call."""
    try:
        pair = parts, run(parts)
    except ValueError as exc:
        pair = (parts, exc) if len(parts) == 1 else None
    if pair is not None:
        yield pair
        return
    half = len(parts) // 2  # outside the handler, so the failed pass's error is freed
    yield from split_failures(run, parts[:half])
    yield from split_failures(run, parts[half:])
