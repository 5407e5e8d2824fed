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

Parsing and evaluation are pure; AST nodes are immutable and freely
shareable across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Union

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
    "tokenize",
    "parse",
    "evaluate",
    "eval_many",
    "eval_with",
    "print_canonical",
    "variables",
    "check_dimension",
    "sole_variable",
    "neg",
]

MAX_VARIABLES = 10

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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, 1..MAX_VARIABLES

    @property
    def name(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str  # member of FUNCTIONS
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


def neg(operand: Node) -> Node:
    """Negation constructor.  Folds literal operands (`neg(Num(3))` is
    `Num(-3)`) so canonical printing round-trips negative literals."""
    if isinstance(operand, Num):
        return Num(-operand.value)
    return Neg(operand)


def variables(ast: Node) -> tuple[int, ...]:
    """Sorted tuple of the distinct variable indices used by `ast`."""
    found: set[int] = set()

    def walk(node: Node) -> None:
        if isinstance(node, Var):
            found.add(node.index)
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(ast)
    return tuple(sorted(found))


def check_dimension(ast: Node, n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_VARIABLES and `ast` uses no
    variable past x_n."""
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"dimension must be 1..{MAX_VARIABLES}, got {n}")
    used = variables(ast)
    if used and used[-1] > n:
        raise ValueError(f"expression uses x{used[-1]} but dimension is {n}")


def sole_variable(ast: Node) -> int | None:
    """Index of the one variable a univariate `ast` uses, or None when it
    uses none.  Raises ValueError when it uses more than one."""
    used = variables(ast)
    if len(used) > 1:
        raise ValueError(f"expression is not univariate (uses {used})")
    return used[0] if used else None


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class Token:
    kind: str  # num | ident | op | lparen | rparen | comma | end
    text: str
    offset: int
    value: float = 0.0


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WS_RE = re.compile(r"\s+")
_OPS = set("+-*/^")


def tokenize(source: str) -> list[Token]:
    """Scan `source` into tokens.  Whitespace-insensitive; raises LexError
    with the byte offset of the first illegal character."""
    tokens: list[Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        ws = _WS_RE.match(source, pos)
        if ws:
            pos = ws.end()
            continue
        m = _NUMBER_RE.match(source, pos)
        if m:
            tokens.append(Token("num", m.group(), pos, float(m.group())))
            pos = m.end()
            continue
        m = _IDENT_RE.match(source, pos)
        if m:
            tokens.append(Token("ident", m.group(), pos))
            pos = m.end()
            continue
        ch = source[pos]
        if ch in _OPS:
            tokens.append(Token("op", ch, pos))
        elif ch == "(":
            tokens.append(Token("lparen", ch, pos))
        elif ch == ")":
            tokens.append(Token("rparen", ch, pos))
        elif ch == ",":
            tokens.append(Token("comma", ch, pos))
        else:
            raise LexError(source, pos)
        pos += 1
    tokens.append(Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} after expression", tok.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinOp("^", base, self.unary())  # right-associative
        return base

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "lparen":
            node = self.expr()
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
            self.advance()
            args = [self.expr()]
            while self.peek().kind == "comma":
                self.advance()
                args.append(self.expr())
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("unclosed parenthesis", tok.offset)
            if len(args) != 1:
                raise ArityError(
                    f"{name} expects 1 argument, got {len(args)}", tok.offset
                )
            return Call(name, args[0])
        if name in CONSTANTS:
            return Num(CONSTANTS[name])
        return self.variable(tok)

    def variable(self, tok: Token) -> Var:
        name = tok.text
        if name in _ALIASES:
            return Var(_ALIASES[name])
        m = re.fullmatch(r"x([0-9]+)", name)
        if m:
            index = int(m.group(1))
            if 1 <= index <= MAX_VARIABLES:
                return Var(index)
            raise ParseError(
                f"variable index out of range (x1..x{MAX_VARIABLES}): {name!r}",
                tok.offset,
            )
        raise ParseError(f"unknown identifier {name!r}", tok.offset)


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
# One tree walker serves every numeric carrier type: plain floats (checked
# scalar math), numpy arrays (vectorized, checked with np.any), and the
# forward-mode Jet2 from mvlab.calculus, which implements the arithmetic
# dunders plus sin/cos/exp/log/sqrt/tanh/abs methods and raises
# _DomainViolation on domain faults.  `eval_with` is the one checked entry
# point: it is where an inf or NaN result (for a jet, in any of its
# `parts`) becomes a DomainError, for every carrier type.

# real carrier types; anything else (a jet) brings its own arithmetic
_REAL_CARRIERS = (int, float, np.floating, np.ndarray)


def _real_divide(lhs: Any, rhs: Any) -> Any:
    if isinstance(rhs, np.ndarray):
        if np.any(rhs == 0):
            raise _DomainViolation("division by zero")
        return lhs / rhs
    if rhs == 0:
        raise _DomainViolation("division by zero")
    return lhs / rhs


def _small_int_pow(base: np.ndarray, p: int) -> np.ndarray:
    # binary exponentiation: much faster than np.power for small exponents
    out = None
    square = base
    k = p
    while k:
        if k & 1:
            out = square if out is None else out * square
        k >>= 1
        if k:
            square = square * square
    return out if out is not None else np.ones_like(base)


_SMALL_INT_POWERS = frozenset(range(17))  # exponents _small_int_pow takes


def _real_pow(base: Any, expo: Any) -> Any:
    array_in = isinstance(base, np.ndarray) or isinstance(expo, np.ndarray)
    if not array_in:
        base = float(base)
        expo = float(expo)
        if base < 0 and not expo.is_integer():
            raise _DomainViolation("fractional power of a negative base")
        if base == 0 and expo < 0:
            raise _DomainViolation("zero raised to a negative power")
        try:
            return base**expo
        except OverflowError:
            raise _DomainViolation("overflow in power") from None
    if getattr(expo, "ndim", 0) == 0 and float(expo) in _SMALL_INT_POWERS:
        return _small_int_pow(base, int(expo))  # no domain check can fail
    expo_arr = np.asarray(expo)
    base_arr = np.asarray(base)
    fractional = expo_arr != np.floor(expo_arr)
    if np.any((base_arr < 0) & fractional):
        raise _DomainViolation("fractional power of a negative base")
    if np.any((base_arr == 0) & (expo_arr < 0)):
        raise _DomainViolation("zero raised to a negative power")
    return np.power(base, expo)


def _real_apply(fn: str, v: Any) -> Any:
    if isinstance(v, np.ndarray):
        if fn == "log":
            if np.any(v <= 0):
                raise _DomainViolation("log of a non-positive argument")
            return np.log(v)
        if fn == "sqrt":
            if np.any(v < 0):
                raise _DomainViolation("sqrt of a negative argument")
            return np.sqrt(v)
        return getattr(np, fn)(v)
    v = float(v)
    if fn == "log":
        if v <= 0:
            raise _DomainViolation("log of a non-positive argument")
        return math.log(v)
    if fn == "sqrt":
        if v < 0:
            raise _DomainViolation("sqrt of a negative argument")
        return math.sqrt(v)
    if fn == "abs":
        return abs(v)
    try:
        return getattr(math, fn)(v)
    except OverflowError:
        raise _DomainViolation(f"overflow in {fn}") from None


def eval_with(ast: Node, env: Mapping[int, Any]) -> Any:
    """Low-level evaluation: `env` maps variable index -> value, where a
    value may be a float, a numpy array, or a forward-mode number.  Domain
    faults surface as DomainError carrying the offending sub-expression;
    an inf or NaN anywhere in the result is a DomainError on `ast`."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = _walk(ast, env)
    for part in getattr(out, "parts", (out,)):
        if not (np.isfinite(part).all() if isinstance(part, np.ndarray)
                else math.isfinite(part)):
            raise DomainError(ast, "non-finite value")
    return out


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
                if isinstance(lhs, _REAL_CARRIERS) and isinstance(rhs, _REAL_CARRIERS):
                    return _real_pow(lhs, rhs)
                return lhs**rhs
            raise TypeError(f"unknown operator {ast.op!r}")
        if isinstance(ast, Call):
            v = _walk(ast.arg, env)
            if isinstance(v, _REAL_CARRIERS):
                return _real_apply(ast.fn, v)
            return getattr(v, ast.fn)()
    except _DomainViolation as exc:
        raise DomainError(ast, str(exc)) from None
    raise TypeError(f"not an AST node: {ast!r}")


def _normalize_bindings(bindings: Mapping[Any, Any]) -> dict[int, Any]:
    env: dict[int, Any] = {}
    for key, value in bindings.items():
        if isinstance(key, int):
            index = key
        elif key in _ALIASES:
            index = _ALIASES[key]
        else:
            m = re.fullmatch(r"x([0-9]+)", str(key))
            if not m:
                raise ValueError(f"not a variable name: {key!r}")
            index = int(m.group(1))
        if not 1 <= index <= MAX_VARIABLES:
            raise ValueError(f"variable index out of range: {key!r}")
        env[index] = value
    return env


def evaluate(ast: Node, bindings: Mapping[Any, Any] | None = None) -> float:
    """Evaluate `ast` at the given variable bindings (keys may be names
    like "x", "x2" or 1-based indices).  Standard real semantics; raises
    UnboundVariableError or DomainError (also for an inf or NaN result)."""
    env = _normalize_bindings(bindings or {})
    return float(eval_with(ast, {k: float(v) for k, v in env.items()}))


def eval_many(ast: Node, bindings: Mapping[Any, Iterable[float]]) -> np.ndarray:
    """Vectorized evaluation over numpy arrays of binding values.  All
    arrays must share a shape; a constant expression broadcasts to it.
    An inf or NaN anywhere in the result raises DomainError."""
    env = {k: np.asarray(v, dtype=float) for k, v in _normalize_bindings(bindings).items()}
    shape = next(iter(env.values())).shape if env else ()
    return _broadcast(eval_with(ast, env), shape)
