import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_eval
from mvlab import calculus, expr, mvp
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

    def test_every_kind_with_its_offset(self):
        tokens = [(t.kind, t.text, t.offset) for t in expr.tokenize("abs(x1, .5e1)\t-2^y")]
        assert tokens == [
            ("ident", "abs", 0), ("lparen", "(", 3), ("ident", "x1", 4), ("comma", ",", 6),
            ("num", ".5e1", 8), ("rparen", ")", 12), ("op", "-", 14), ("num", "2", 15),
            ("op", "^", 16), ("ident", "y", 17), ("end", "", 18),
        ]

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

    @pytest.mark.parametrize("source,message,offset", [
        ("(x", "unclosed parenthesis", 0),
        ("", "unexpected end of input", 0),
        ("x +", "unexpected end of input", 3),
        ("x + )", "unexpected ')'", 4),
        ("*x", "unexpected '*'", 0),
    ])
    def test_malformed_input_names_its_offset(self, source, message, offset):
        with pytest.raises(ParseError) as err:
            expr.parse(source)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset


def _levels(node):
    children = [getattr(node, f) for f in ("operand", "left", "right", "arg") if hasattr(node, f)]
    return 1 + max(map(_levels, children), default=0)


class TestDepthBound:
    """parse refuses a tree deeper than MAX_DEPTH, or text nested in more
    parentheses, at the offset of the operator, call or parenthesis that
    passes it, so no walker meets Python's recursion limit."""

    @pytest.mark.parametrize("source,offset", [
        ("(" * 250 + "x" + ")" * 250, 100),  # the 101st parenthesis
        ("+".join(["x"] * 1000), 199),  # the 100th +, 101 levels deep
        ("-" * 1200 + "x", 1100),  # the sign of the 101st level, from the inside
        ("x^" * 100 + "x", 1),  # ^ is right-associative: the first is the 101st level
        ("sin(" * 100 + "x" + ")" * 100, 0),
    ], ids=["parentheses", "sum", "signs", "powers", "calls"])
    def test_too_deep_refused(self, source, offset):
        with pytest.raises(ParseError) as err:
            expr.parse(source)
        assert str(err.value) == f"expression deeper than 100 levels (at offset {offset})"
        assert err.value.offset == offset

    @pytest.mark.parametrize("source", [
        "(" * 100 + "x" + ")" * 100, "+".join(["x"] * 100), "-" * 99 + "x",
        "x^" * 99 + "x", "sin(" * 99 + "x" + ")" * 99, "(x+" * 99 + "x" + ")" * 99,
        "-" * 5000 + "3",  # the signs fold into the literal: one level
    ], ids=["parentheses", "sum", "signs", "powers", "calls", "nested sums", "folded signs"])
    def test_at_the_bound_accepted(self, source):
        ast = expr.parse(source)
        assert _levels(ast) <= expr.MAX_DEPTH == 100
        # canonical text nests no more parentheses than its tree has levels
        assert expr.parse(expr.print_canonical(ast)) == ast
        assert math.isfinite(calculus.derivatives_1d(ast, 1.0)[1])

    def test_builtin_fields_are_shallow(self):
        assert max(_levels(mvp.builtin_fields(name, 10)) for name in mvp.list_builtins()) == 12


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

    @pytest.mark.parametrize("key,message", [
        (-1, "variable index out of range (x1..x10): -1"),
        (11, "variable index out of range (x1..x10): 11"),
        (True, "unknown identifier True"),
    ])
    def test_bad_binding_key_is_named_as_given(self, key, message):
        with pytest.raises(ParseError) as err:
            expr.evaluate(expr.parse("1"), {key: 5})
        assert str(err.value) == message

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            expr.evaluate(expr.parse("x^0.5"), {"x": -2.0})

    def test_power_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="non-finite value"):
            expr.evaluate(expr.parse("10^x"), {"x": 400.0})

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


def _assert_same_bits(got, want, what):
    want = np.asarray(want, dtype=float)
    got = np.broadcast_to(np.asarray(got, dtype=float), want.shape)  # a constant part
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, (what, differ[:5].tolist(), got[differ[:5]], want[differ[:5]])


@pytest.mark.parametrize("source", _AGREEMENT_CORPUS)
def test_scalar_and_array_paths_agree_bitwise(source):
    # one numeric rule: a float gives the bits of its element in an array,
    # for values (evaluate, eval_many) and for order-2 jets (derivatives_1d)
    ast = expr.parse(source)
    xs, scalar = [], []
    for x in np.random.default_rng(2024).uniform(-4.0, 8.0, 3000).tolist():
        try:
            scalar.append((expr.evaluate(ast, {"x": x}), *calculus.derivatives_1d(ast, x)))
        except DomainError:
            continue
        xs.append(x)
        if len(xs) == 1000:
            break
    assert len(xs) == 1000, source
    xs, scalar = np.array(xs), np.array(scalar)
    _assert_same_bits(expr.eval_many(ast, {"x": xs}), scalar[:, 0], (source, "eval_many"))
    jet = expr.eval_with(ast, {1: calculus.Jet2.variable(xs)})
    for part, column in zip(jet.parts, scalar[:, 1:].T):
        _assert_same_bits(part, column, (source, "order-2 jet over all points"))
    for i in range(0, 1000, 25):
        jet = expr.eval_with(ast, {1: calculus.Jet2.variable(xs[i : i + 1])})
        for part, want in zip(jet.parts, scalar[i, 1:]):
            _assert_same_bits(part, [want], (source, "one-point jet", xs[i]))


def test_varying_power_scalar_equals_array():
    # an exponent that uses a variable takes np.power for a float as for an
    # array, so evaluate has the bits of eval_many, for integer y in 0..16 too
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 500), rng.uniform(0.05, 3.0, 500)])
    ys = np.concatenate([rng.integers(0, 17, 500).astype(float), rng.uniform(-4.0, 4.0, 500)])
    ast = expr.parse("x^y")
    scalar = [expr.evaluate(ast, {"x": x, "y": y}) for x, y in zip(xs.tolist(), ys.tolist())]
    _assert_same_bits(scalar, expr.eval_many(ast, {"x": xs, "y": ys}), "x^y")


class TestPrintCanonical:
    def test_fully_parenthesized(self):
        ast = BinOp("+", BinOp("^", Var(1), Num(2.0)), BinOp("*", Num(3.0), Var(1)))
        assert expr.print_canonical(ast) == "((x1^2)+(3*x1))"

    def test_alias_normalization(self):
        assert expr.print_canonical(Var(2)) == "x2"
        assert expr.print_canonical(expr.parse("y")) == "x2"

    def test_literal(self):
        assert expr.print_canonical(Num(0.5)) == "0.5"

    def test_non_finite_literal_is_refused(self):
        with pytest.raises(ValueError, match="non-finite literal inf cannot be printed"):
            expr.print_canonical(Num(math.inf))

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

    @pytest.mark.parametrize("k", [0, 1, 4, 16])
    def test_small_integer_power_equals_np_power(self, k):
        # bases whose powers are exact doubles, negatives and signed zeros too
        xs = np.array([-3.0, -2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        expected = np.power(xs, float(k)).tobytes()
        assert expr.eval_many(expr.parse(f"x^{k}"), {"x": xs}).tobytes() == expected
        # an exponent bound to a 0-d array takes the same path
        assert expr.eval_many(expr.parse("x^y"), {"x": xs, "y": k}).tobytes() == expected

    @pytest.mark.parametrize("source,xs,message", [
        ("x^0.5", [1.0, -1.0], "fractional power of a negative base"),
        ("x^2.5", [0.0, -4.0], "fractional power of a negative base"),
        ("x^(-1)", [1.0, 0.0], "zero raised to a negative power"),
        ("x^(-4)", [0.0, 2.0], "zero raised to a negative power"),
    ])
    def test_power_domain_still_checked(self, source, xs, message):
        with pytest.raises(DomainError, match=message):
            expr.eval_many(expr.parse(source), {"x": np.array(xs)})

    def test_multivariate(self):
        ast = expr.parse("x^2 - y^2")
        out = expr.eval_many(ast, {"x": np.array([1.0, 2.0]), "y": np.array([2.0, 1.0])})
        assert list(out) == [-3.0, 3.0]


def _split_run(bad, calls):
    # a batched run over integer parts: doubles each, or raises a ValueError
    # naming its first part in `bad`; records the size of each call
    def run(parts):
        calls.append(len(parts))
        wrong = [p for p in parts if p in bad]
        if wrong:
            raise ValueError(f"part {wrong[0]} fails")
        return [2 * p for p in parts]

    return run


class TestSplitFailures:
    def test_no_failure_is_one_call(self):
        calls = []
        parts = list(range(9))
        assert list(expr.split_failures(_split_run(set(), calls), parts)) == [
            (parts, [2 * p for p in parts])]
        assert calls == [9]

    @pytest.mark.parametrize("bad", [{0}, {6}, {2, 3}, {0, 5, 6}, set(range(7))])
    @pytest.mark.parametrize("wrap", [list, np.array, lambda r: r])
    def test_pairs_cover_the_parts_in_order(self, bad, wrap):
        run = _split_run(bad, [])
        parts = wrap(range(7))
        pairs = list(expr.split_failures(run, parts))
        assert [p for part, _ in pairs for p in part] == list(range(7))
        for part, result in pairs:
            if isinstance(result, ValueError):
                # a single part, with the error that part raises alone
                assert len(part) == 1 and part[0] in bad
                with pytest.raises(ValueError) as alone:
                    run(part)
                assert str(result) == str(alone.value) == f"part {part[0]} fails"
            else:
                assert not bad & set(part) and list(result) == [2 * p for p in part]
        assert [part[0] for part, r in pairs if isinstance(r, ValueError)] == sorted(bad)

    def test_a_consumer_that_stops_at_the_first_error_makes_no_further_call(self):
        calls = []
        for _, result in expr.split_failures(_split_run({3, 9}, calls), list(range(16))):
            if isinstance(result, ValueError):
                break
        # 16 fails, then its halves down to [3]: [0..7], [0..3], [0, 1] ok, [2, 3], [2] ok, [3]
        assert calls == [16, 8, 4, 2, 2, 1, 1]
        assert str(result) == "part 3 fails"

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 100, 1000, 4097])
    def test_one_failing_part_costs_logarithmic_calls(self, n):
        for bad in sorted({0, n // 3, n // 2, n - 1}):
            calls = []
            pairs = list(expr.split_failures(_split_run({bad}, calls), list(range(n))))
            assert sum(isinstance(r, ValueError) for _, r in pairs) == 1
            assert len(calls) <= 2 * math.ceil(math.log2(n)) + 1

    def test_only_value_errors_are_split(self):
        def run(parts):
            raise TypeError("not a failing part")

        with pytest.raises(TypeError):
            list(expr.split_failures(run, [1, 2, 3]))

    def test_eval_errors_are_split(self):
        f, xs = expr.parse("log(x)"), np.array([1.0, 2.0, -1.0, 4.0])
        pairs = list(expr.split_failures(lambda v: expr.eval_many(f, {"x": v}), xs))
        assert [len(p) for p, _ in pairs] == [2, 1, 1]
        assert isinstance(pairs[1][1], DomainError) and pairs[1][0].tolist() == [-1.0]


class TestSharedRules:
    """Scalar and array evaluation, and parsed text and binding keys, obey
    one rule each."""

    @pytest.mark.parametrize("source", ["sin(1e300*x)", "cos(1e300*x)"])
    def test_infinite_trig_argument_is_domain_error(self, source):
        # the scalar path raised a bare "math domain error" ValueError
        ast = expr.parse(source)
        with pytest.raises(DomainError):
            expr.evaluate(ast, {"x": 1e9})
        with pytest.raises(DomainError):
            expr.eval_many(ast, {"x": np.array([1e9])})

    @pytest.mark.parametrize("name", [
        "x", "y", "z", "x1", "x7", "x10", "x01", "x0", "x11", "x123", "w", "X1", "xx", "x_1",
    ])
    def test_binding_names_follow_the_parser(self, name):
        try:
            index = expr.parse(name).index
        except ParseError as err:
            message = str(err).removesuffix(" (at offset 0)")
            with pytest.raises(ValueError) as scalar:
                expr.evaluate(expr.parse("1"), {name: 2.0})
            with pytest.raises(ValueError) as array:
                expr.eval_many(expr.parse("1"), {name: np.array([2.0])})
            assert str(scalar.value) == str(array.value) == message
        else:
            ast = expr.parse(f"x{index}")
            assert expr.evaluate(ast, {name: 2.0}) == 2.0
            assert expr.eval_many(ast, {name: np.array([2.0])}).tolist() == [2.0]


    @pytest.mark.parametrize("bindings,name", [
        ({"x": 1.0, "x1": 2.0}, "x1"), ({"x": 1.0, 1: 5.0}, "x1"), ({"y": 1.0, "x2": 2.0}, "x2"),
    ])
    def test_two_keys_for_one_variable_are_refused(self, bindings, name):
        # the last key used to win in silence
        message = f"more than one binding names {name}"
        with pytest.raises(ParseError, match=message):
            expr.evaluate(expr.parse("x + y"), bindings)
        with pytest.raises(ParseError, match=message):
            expr.eval_many(expr.parse("x + y"), {k: [v] for k, v in bindings.items()})


class TestSoleVariable:
    def test_univariate(self):
        assert expr.sole_variable(expr.parse("sin(x3) + x3^2")) == 3

    def test_constant(self):
        assert expr.sole_variable(expr.parse("2 + pi")) is None

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError, match="not univariate"):
            expr.sole_variable(expr.parse("x + y"))
