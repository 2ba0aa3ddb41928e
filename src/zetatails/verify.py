"""Named verification checks comparing independent evaluation routes.

The fixed suite pins each closed-form identity against the brute-force
outer sum, the integral representation against the nested series, the
duality and sum identities against direct evaluation, and the exact
symbolic reductions against their numeric values.  The random suite draws
seeded instances of the general identities.  Every check reports both
sides, their difference, and the tolerance actually enforced
(stated tolerance plus the reported error bounds).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import numerics, symbolic, tails
from .core import _compositions, weak_ordering_count
from .numerics import EvalReport
from .symbolic import IntegerIndex, ZetaPolynomial


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: float
    rhs: float
    abs_diff: float
    bound: float
    passed: bool


def _numeric_check(name: str, lhs: float, rhs: float, bound: float) -> CheckResult:
    diff = abs(lhs - rhs)
    return CheckResult(name, lhs, rhs, diff, bound, diff <= bound)


def _compare(name: str, a: EvalReport, b: EvalReport, tol: float) -> CheckResult:
    """Two reports agree within the stated tolerance plus both error bounds."""
    return _numeric_check(name, a.value, b.value, tol + a.abs_error_bound + b.abs_error_bound)


def _exact_check(name: str, ok: bool) -> CheckResult:
    return CheckResult(name, 1.0 if ok else 0.0, 1.0, 0.0 if ok else 1.0, 0.0, ok)


F = Fraction

#: Closed forms for the worked product cases, with their stated tolerances.
PRODUCT_CASES: tuple[tuple[tuple[float, ...], dict, float], ...] = (
    ((2.0, 2.0), {(3,): F(3), (4,): F(-5, 2)}, 1e-8),
    ((3.0, 2.0), {(4,): F(2), (2, 3): F(-1)}, 1e-8),
    ((4.0, 3.0), {(6,): F(-5, 6), (3, 3): F(3, 2), (3, 4): F(-1)}, 1e-8),
    ((3.0, 3.0), {(5,): F(-10), (2, 3): F(6), (3, 3): F(-1)}, 1e-8),
    ((2.0, 2.0, 2.0), {(2, 3): F(9), (5,): F(-25, 2), (6,): F(-35, 8)}, 1e-7),
    ((3.0, 2.0, 2.0), {(6,): F(7, 6), (3, 3): F(3, 2), (2, 2, 3): F(-1)}, 1e-7),
    (
        (3.0, 3.0, 2.0),
        {(7,): F(77, 8), (2, 2, 3): F(3), (2, 5): F(-10), (2, 3, 3): F(-1)},
        1e-7,
    ),
    (
        (2.0, 2.0, 2.0, 2.0),
        {(7,): F(-301, 4), (2, 5): F(10), (2, 2, 3): F(102, 5), (8,): F(-175, 24)},
        1e-6,
    ),
)


def admissible_integer_indices(max_weight: int) -> list[IntegerIndex]:
    """Every integer index with first entry >= 2 and weight <= max_weight."""
    return [
        IntegerIndex(parts)
        for w in range(2, max_weight + 1)
        for parts in _compositions(w)
        if parts[0] >= 2
    ]


def _product_case_checks() -> list[CheckResult]:
    checks = []
    for exps, terms, tol in PRODUCT_CASES:
        name = f"brute-({','.join(str(int(p)) for p in exps)})"
        brute = numerics.brute_tail_product_sum(exps)
        checks.append(_compare(name, brute, ZetaPolynomial(terms).evaluate(1e-9), tol))
    return checks


def _integral_checks() -> list[CheckResult]:
    rep = numerics.mzv_integral(2.0, 1.0, 1e-9)
    checks = [_compare("integral-(2,1)", rep, numerics.zeta(3.0, 1e-10), 1e-8)]
    for k in (2.0, 2.5, 3.0):
        checks.append(_compare(f"prop-kk1-k{k}", *tails.proposition_kk1(k), 1e-7))
        checks.append(_compare(f"prop-square-k{k}", *tails.proposition_square(k), 1e-7))
    return checks


def _duality_checks() -> list[CheckResult]:
    checks = []
    indices = admissible_integer_indices(6)
    involution_ok = all(
        symbolic.duality(symbolic.duality(idx)).args == idx.args for idx in indices
    )
    checks.append(_exact_check("duality-involution-w6", involution_ok))
    checks.append(
        _exact_check(
            "duality-tau-(2,1,2)", symbolic.duality((2, 1, 2)).args == (2, 3)
        )
    )
    for idx in indices:
        dual = symbolic.duality(idx)
        a = numerics.mzv(tuple(float(x) for x in idx.args), 1e-9)
        b = numerics.mzv(tuple(float(x) for x in dual.args), 1e-9)
        name = f"duality-({','.join(str(x) for x in idx.args)})"
        checks.append(_compare(name, a, b, 1e-8))
    return checks


def _sum_theorem_checks() -> list[CheckResult]:
    checks = []
    for k in (2, 3):
        for n in range(k + 1, 7):
            indices, rhs_poly = symbolic.sum_theorem_identity(n, k)
            total = reduce(
                operator.add,
                (numerics.mzv(tuple(float(x) for x in idx.args), 1e-9) for idx in indices),
            )
            checks.append(_compare(f"sumthm-n{n}-k{k}", total, rhs_poly.evaluate(1e-9), 1e-8))
    return checks


def _structure_checks() -> list[CheckResult]:
    checks = []
    k2 = tails.tail_product_formula((2.0, 3.0))
    k3 = tails.tail_product_formula((2.0, 3.0, 4.0))
    checks.append(
        _numeric_check("count-merged-k2", float(len(k2.zeta_terms)), 3.0, 0.0)
    )
    checks.append(
        _numeric_check("count-merged-k3", float(len(k3.zeta_terms)), 13.0, 0.0)
    )
    checks.append(
        _numeric_check("count-fubini-4", float(weak_ordering_count(4)), 75.0, 0.0)
    )
    rep = tails.repeated_tail_formula(2.0, 4)
    coeffs = sorted(int(t.coeff) for t in rep.zeta_terms)
    checks.append(
        _exact_check("coeffs-repeated-(2,4)", coeffs == [1, 4, 4, 6, 12, 12, 12, 24])
    )
    return checks


def _symbolic_checks() -> list[CheckResult]:
    checks = []
    checks.append(
        _exact_check(
            "reduce-n1-2-exact", symbolic.reduce_n1(2) == ZetaPolynomial.single(3)
        )
    )
    expected_32 = ZetaPolynomial({(2, 3): F(3), (5,): F(-11, 2)})
    red = symbolic.reduce_double_odd(3, 2)
    checks.append(_exact_check("reduce-(3,2)-exact", red == expected_32))
    direct = numerics.mzv((3.0, 2.0), 1e-9)
    checks.append(_compare("reduce-(3,2)-numeric", red.evaluate(1e-9), direct, 1e-8))
    square3 = tails.integer_square_closed_form(3)
    expected_sq = ZetaPolynomial({(5,): F(-10), (2, 3): F(6), (3, 3): F(-1)})
    checks.append(_exact_check("square-form-p3-exact", square3 == expected_sq))
    return checks


def paper_checks() -> list[CheckResult]:
    checks = []
    checks.extend(_product_case_checks())
    checks.extend(_integral_checks())
    checks.extend(_duality_checks())
    checks.extend(_sum_theorem_checks())
    checks.extend(_structure_checks())
    checks.extend(_symbolic_checks())
    return checks


# ---------------------------------------------------------------------------
# Seeded random suite
# ---------------------------------------------------------------------------


def sample_exponent_list(rng: random.Random) -> tuple[float, ...]:
    """Random arity-2 or arity-3 exponent list satisfying the sum hypothesis.

    Draws are resampled until the exponent sum clears k + 1 by a hair, so
    the reported error bounds stay proportionate at desk scale.
    """
    k = rng.choice((2, 3))
    while True:
        exps = tuple(rng.uniform(1.2, 4.0) for _ in range(k))
        if sum(exps) > k + 1.01:
            return exps


def sample_rq_pair(rng: random.Random) -> tuple[float, float]:
    """Random (r, q) in the domain of the integral representation."""
    r = rng.uniform(1.2, 4.0)
    return r, rng.uniform(2.0 - r + 0.2, 4.0)


def random_checks(seed: int, n_formula: int = 50, n_integral: int = 20) -> list[CheckResult]:
    rng = random.Random(seed)
    checks = []
    for i in range(n_formula):
        exps = sample_exponent_list(rng)
        formula = tails.tail_product_formula(exps)
        lhs = tails.evaluate_formula(formula, exps, 1e-7)
        rhs = numerics.brute_tail_product_sum(exps, 1e-7)
        checks.append(_compare(f"random-formula-{i:02d}", lhs, rhs, 1e-6))
    for i in range(n_integral):
        r, q = sample_rq_pair(rng)
        lhs = numerics.mzv_integral(r, q, 1e-8)
        rhs = numerics.mzv((r, q), 1e-9)
        checks.append(_compare(f"random-integral-{i:02d}", lhs, rhs, 1e-7))
    return checks


def run_suite(suite: str, seed: int = 1) -> list[CheckResult]:
    """Run a named suite; results come back sorted by check name."""
    if suite == "paper":
        checks = paper_checks()
    elif suite == "random":
        checks = random_checks(seed)
    elif suite == "all":
        checks = paper_checks() + random_checks(seed)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return sorted(checks, key=lambda c: c.name)
