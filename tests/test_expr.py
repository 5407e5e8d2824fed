import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_eval
from mvlab import expr
from mvlab.expr import (
    ArityError,
    BinOp,
    Call,
    DomainError,
    LexError,
    Neg,
    Num,
    ParseError,
    UnboundVariableError,
    Var,
)


class TestTokenize:
    def test_power_expression(self):
        kinds = [(t.kind, t.text) for t in expr.tokenize("x^2")]
        assert kinds == [("ident", "x"), ("op", "^"), ("num", "2"), ("end", "")]

    def test_scientific_literal(self):
        tokens = expr.tokenize("3.5e-2")
        assert tokens[0].kind == "num"
        assert tokens[0].value == 0.035

    def test_illegal_character_offset(self):
        with pytest.raises(LexError) as err:
            expr.tokenize("x $ y")
        assert err.value.offset == 2

    def test_whitespace_insensitive(self):
        loose = [(t.kind, t.text) for t in expr.tokenize(" 1 +  2 ")]
        tight = [(t.kind, t.text) for t in expr.tokenize("1+2")]
        assert loose == tight


class TestParse:
    def test_precedence(self):
        assert expr.parse("x^2 + 3*x") == BinOp(
            "+", BinOp("^", Var(1), Num(2.0)), BinOp("*", Num(3.0), Var(1))
        )

    def test_power_right_associative(self):
        assert expr.parse("2^3^2") == BinOp(
            "^", Num(2.0), BinOp("^", Num(3.0), Num(2.0))
        )
        assert expr.evaluate(expr.parse("2^3^2")) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert expr.evaluate(expr.parse("-x^2"), {"x": 2.0}) == -4.0

    def test_mul_before_add(self):
        assert expr.evaluate(expr.parse("2+3*4")) == 14.0

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError, match="unclosed parenthesis"):
            expr.parse("sin(x")

    def test_arity_error(self):
        with pytest.raises(ArityError):
            expr.parse("sin(x, y)")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            expr.parse("foo(x)")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            expr.parse("alpha + 1")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            expr.parse("2x")

    def test_variable_aliases(self):
        assert expr.parse("y") == Var(2)
        assert expr.parse("z") == Var(3)
        assert expr.parse("x7") == Var(7)

    def test_variable_index_range(self):
        with pytest.raises(ParseError, match="out of range"):
            expr.parse("x11")
        with pytest.raises(ParseError, match="out of range"):
            expr.parse("x0")

    def test_constants_expand_to_literals(self):
        assert expr.parse("pi") == Num(math.pi)
        assert expr.parse("e") == Num(math.e)

    def test_negative_literal_folds(self):
        assert expr.parse("-3") == Num(-3.0)
        assert expr.parse("2^-3") == BinOp("^", Num(2.0), Num(-3.0))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            expr.parse("1 + 2 )")


class TestEvaluate:
    def test_polynomial(self):
        assert expr.evaluate(expr.parse("x^2 + 3*x"), {"x": 2}) == 10.0

    def test_sin_zero(self):
        assert expr.evaluate(expr.parse("sin(x)"), {"x": 0.0}) == 0.0

    def test_log_of_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            expr.evaluate(expr.parse("log(x)"), {"x": -1.0})

    def test_domain_error_carries_subexpression(self):
        with pytest.raises(DomainError) as err:
            expr.evaluate(expr.parse("1 + sqrt(x - 4)"), {"x": 0.0})
        assert expr.print_canonical(err.value.expression) == "sqrt((x1-4))"

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            expr.evaluate(expr.parse("1/x"), {"x": 0.0})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            expr.evaluate(expr.parse("x + y"), {"x": 1.0})

    def test_binding_keys(self):
        ast = expr.parse("x2")
        assert expr.evaluate(ast, {"y": 5}) == 5.0
        assert expr.evaluate(ast, {"x2": 5}) == 5.0
        assert expr.evaluate(ast, {2: 5}) == 5.0

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            expr.evaluate(expr.parse("x^0.5"), {"x": -2.0})

    @pytest.mark.parametrize("source", ["x*x*x", "x*x*x - x*x*x"])
    def test_non_finite_value_is_domain_error(self, source):
        with pytest.raises(DomainError, match="non-finite value"):
            expr.evaluate(expr.parse(source), {"x": 1e200})

    def test_integer_power_of_negative(self):
        assert expr.evaluate(expr.parse("x^3"), {"x": -2.0}) == -8.0


# 50 expressions checked for exact agreement with the reference evaluator
_AGREEMENT_CORPUS = [
    "x^2 + 3*x",
    "1 + 2*x + 3*x^2",
    "x^3 - x",
    "x^4/4",
    "-x^2",
    "2^x",
    "x^2.5",
    "sin(x)",
    "cos(x)",
    "exp(x)",
    "log(x + 3)",
    "sqrt(x + 3)",
    "tanh(x)",
    "abs(x) + 1",
    "sin(cos(x))",
    "exp(sin(x) + cos(x))",
    "sin(x)^2 + cos(x)^2",
    "x/(1 + x^2)",
    "(x + 1)/(x + 3)",
    "1/(2 + sin(x))",
    "x*sin(x) - cos(x)",
    "exp(-x^2/2)",
    "log(exp(x) + 1)",
    "sqrt(x^2 + 1)",
    "tanh(x)*tanh(x)",
    "x - x^3/6 + x^5/120",
    "pi*x",
    "e^x",
    "2*pi*sin(pi*x)",
    "x^2 - 2*x + 1",
    "(x - 1)^2",
    "x^2*(x - 1)",
    "3.5e-2*x",
    "0.5*x^2 + 0.25",
    "-(x + 1)",
    "-x + -x",
    "x - -x",
    "2^-x",
    "x^2^2",
    "(x^2)^2",
    "abs(x - 1)",
    "cos(2*x + 1)",
    "sin(x/2)*cos(x/3)",
    "exp(x)/x",
    "log(x)*x",
    "sqrt(x)*sqrt(x)",
    "x^0.25 + x^0.75",
    "tanh(1/x)",
    "1 - 1/(1 + x)",
    "x*x*x - x/3",
]


def test_reference_evaluator_agreement_exact():
    points = [0.17, 0.5, 1.0, 1.3, 2.0, 2.7, 3.14159, 4.0, 5.5, 8.25]
    assert len(_AGREEMENT_CORPUS) == 50
    for source in _AGREEMENT_CORPUS:
        ast = expr.parse(source)
        for x in points:
            expected = ref_eval(ast, {1: x})
            assert expr.evaluate(ast, {"x": x}) == expected, (source, x)


class TestPrintCanonical:
    def test_fully_parenthesized(self):
        ast = BinOp("+", BinOp("^", Var(1), Num(2.0)), BinOp("*", Num(3.0), Var(1)))
        assert expr.print_canonical(ast) == "((x1^2)+(3*x1))"

    def test_alias_normalization(self):
        assert expr.print_canonical(Var(2)) == "x2"
        assert expr.print_canonical(expr.parse("y")) == "x2"

    def test_literal(self):
        assert expr.print_canonical(Num(0.5)) == "0.5"

    def test_negation(self):
        assert expr.print_canonical(Neg(Var(1))) == "(-x1)"
        assert expr.print_canonical(expr.parse("-sin(x)")) == "(-sin(x1))"

    def test_negative_literal(self):
        assert expr.print_canonical(Num(-3.0)) == "(-3)"
        assert expr.parse("-3") == Num(-3.0)
        assert expr.parse("(-3)^2") == BinOp("^", Num(-3.0), Num(2.0))


# -- round-trip property ----------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)

_leaves = st.one_of(
    st.builds(Num, _finite),
    st.builds(Var, st.integers(min_value=1, max_value=10)),
)


def _extend(children):
    return st.one_of(
        st.builds(
            BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children
        ),
        children.map(expr.neg),
        st.builds(Call, st.sampled_from(list(expr.FUNCTIONS)), children),
    )


_asts = st.recursive(_leaves, _extend, max_leaves=40)


@given(_asts)
@settings(max_examples=300, deadline=None)
def test_roundtrip_parse_print(ast):
    assert expr.parse(expr.print_canonical(ast)) == ast


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_roundtrip_literal(value):
    assert expr.parse(expr.print_canonical(Num(value))) == Num(value)


class TestEvalMany:
    def test_matches_scalar_eval(self):
        ast = expr.parse("sin(x)*exp(x/2) + x^3")
        xs = np.linspace(-2, 2, 101)
        block = expr.eval_many(ast, {"x": xs})
        for i, x in enumerate(xs):
            assert block[i] == pytest.approx(expr.evaluate(ast, {"x": x}), rel=1e-15)

    def test_constant_broadcasts(self):
        out = expr.eval_many(expr.parse("5"), {"x": np.zeros(7)})
        assert out.shape == (7,)
        assert np.all(out == 5.0)

    def test_domain_error_on_any_element(self):
        with pytest.raises(DomainError):
            expr.eval_many(expr.parse("log(x)"), {"x": np.array([1.0, -1.0])})

    @pytest.mark.parametrize("source", ["exp(700*x)", "exp(700*x) - exp(700*x)"])
    def test_non_finite_value_is_domain_error(self, source):
        with pytest.raises(DomainError, match="non-finite value"):
            expr.eval_many(expr.parse(source), {"x": np.array([0.0, 2.0])})

    def test_multivariate(self):
        ast = expr.parse("x^2 - y^2")
        out = expr.eval_many(ast, {"x": np.array([1.0, 2.0]), "y": np.array([2.0, 1.0])})
        assert list(out) == [-3.0, 3.0]


class TestSoleVariable:
    def test_univariate(self):
        assert expr.sole_variable(expr.parse("sin(x3) + x3^2")) == 3

    def test_constant(self):
        assert expr.sole_variable(expr.parse("2 + pi")) is None

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError, match="not univariate"):
            expr.sole_variable(expr.parse("x + y"))
