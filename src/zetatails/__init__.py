"""Sums of products of Riemann zeta tails.

Closed-form identities expressing the sum over n of a product of zeta
tails in terms of nested zeta values, exact rational reductions of the
integer cases, and numerics with explicit absolute error bounds for
checking every identity against brute force and against the integral
representation of depth-two values.
"""

from .core import (
    Composition,
    ExponentList,
    MzvIndex,
    compositions,
    converges,
    multinomial,
    weak_ordering_count,
)
from .errors import BoundError, DepthError, DomainError, PrecisionError
from .numerics import (
    EvalReport,
    brute_tail_product_sum,
    mzv,
    mzv_integral,
    polylog,
    tail,
    zeta,
)
from .symbolic import (
    IntegerIndex,
    ZetaPolynomial,
    duality,
    reduce_double_odd,
    reduce_n1,
    sum_theorem_identity,
)
from .tails import (
    BlockTerm,
    TailFormula,
    evaluate_formula,
    integer_square_closed_form,
    proposition_kk1,
    proposition_square,
    repeated_tail_formula,
    tail_product_formula,
    tail_product_sum,
)

__all__ = [
    "BlockTerm",
    "BoundError",
    "Composition",
    "DepthError",
    "DomainError",
    "EvalReport",
    "ExponentList",
    "IntegerIndex",
    "MzvIndex",
    "PrecisionError",
    "TailFormula",
    "ZetaPolynomial",
    "brute_tail_product_sum",
    "compositions",
    "converges",
    "duality",
    "evaluate_formula",
    "integer_square_closed_form",
    "multinomial",
    "mzv",
    "mzv_integral",
    "polylog",
    "proposition_kk1",
    "proposition_square",
    "reduce_double_odd",
    "reduce_n1",
    "repeated_tail_formula",
    "sum_theorem_identity",
    "tail",
    "tail_product_formula",
    "tail_product_sum",
    "weak_ordering_count",
    "zeta",
]

__version__ = "0.1.0"
