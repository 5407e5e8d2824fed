"""mvlab: a verification lab for weighted mean value properties.

Locates mean value abscissas numerically, proves (exactly, for rational
polynomials) and checks (statistically, for arbitrary expressions) when
weighted endpoint averages serve as mean value abscissas, and runs the
n-dimensional ball/sphere average analogues against harmonic fields.
"""

from .calculus import (
    Jet2,
    derivatives_1d,
    directional_derivative,
    directional_derivative_many,
    gradient,
    laplacian,
    laplacian_many,
)
from .exactpoly import (
    BivariatePolynomial,
    DigitLimitError,
    LambdaFamily,
    PolyVerdict,
    RationalPolynomial,
    classify,
    lambda_family,
    mvt_residual,
    poly_from_coeffs,
)
from .expr import (
    DomainError,
    EvalError,
    ExprError,
    LexError,
    ParseError,
    UnboundVariableError,
    eval_many,
    evaluate,
    parse,
    print_canonical,
    tokenize,
)
from .integrate import (
    BallSpec,
    CounterRng,
    McEstimate,
    integrate_1d,
    mc_ball_average,
    mc_sphere_average,
    sample_ball_many,
    sample_sphere_many,
)
from .mvp import (
    PropertyVerdict,
    WeightSpec,
    builtin_fields,
    check_ball_mvp,
    check_harmonicity,
    check_interval_mvp,
    check_sphere_mvp,
    check_v_constancy,
    check_weighted_property,
    list_builtins,
)
from .mvroot import (
    AbscissaResult,
    Interval,
    NoRootError,
    SweepResult,
    find_abscissas,
    lambda_of,
    sweep_lambda,
)

__version__ = "0.1.0"
