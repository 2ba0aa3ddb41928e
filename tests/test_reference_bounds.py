"""Bound-validity audit against an independent multiprecision library.

Every report's abs_error_bound must cover the distance to a 30-digit
reference value.  These tests guard the error model itself, which the
pure-identity tests cannot see; they are skipped when mpmath is absent.
"""

from fractions import Fraction

import pytest

mp = pytest.importorskip("mpmath")

from zetatails import (  # noqa: E402
    ZetaPolynomial,
    evaluate_formula,
    integer_square_closed_form,
    mzv,
    mzv_integral,
    polylog,
    proposition_kk1,
    proposition_square,
    tail,
    tail_product_formula,
    zeta,
)
from zetatails.verify import PRODUCT_CASES  # noqa: E402

mp.mp.dps = 30


def _z(s):
    return mp.zeta(mp.mpf(s))


# closed forms for depth-two and collapsed deeper values
MZV_TRUTHS = {
    (2.0, 1.0): _z(3),
    (3.0, 1.0): mp.mpf(3) / 2 * _z(4) - mp.mpf(1) / 2 * _z(2) ** 2,
    (2.0, 2.0): (_z(2) ** 2 - _z(4)) / 2,
    (3.0, 2.0): 3 * _z(2) * _z(3) - mp.mpf(11) / 2 * _z(5),
    (4.0, 4.0): (_z(4) ** 2 - _z(8)) / 2,
    (2.0, 1.0, 1.0): _z(4),
    (2.0, 2.0, 1.0): 3 * _z(2) * _z(3) - mp.mpf(11) / 2 * _z(5),
    (2.0, 1.0, 1.0, 1.0, 1.0): _z(6),
}


@pytest.mark.parametrize("s", [1.2, 1.5, 2.0, 3.0, 4.0, 5.5, 10.0, 2.0001])
@pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-11])
def test_zeta_bound_covers_truth(s, eps):
    rep = zeta(s, eps)
    err = abs(rep.value - float(_z(s)))
    assert err <= rep.abs_error_bound + 2e-16


@pytest.mark.parametrize("p", [1.3, 2.0, 3.5])
@pytest.mark.parametrize("n", [0, 1, 7, 100, 10**6])
def test_tail_bound_covers_truth(p, n):
    rep = tail(p, n, 1e-10)
    true = float(mp.zeta(mp.mpf(p), n + 1))  # Hurwitz form of the tail
    err = abs(rep.value - true)
    assert err <= rep.abs_error_bound + 2e-16


@pytest.mark.parametrize("q", [-1.5, -0.5, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("x,eps", [(0.1, 1e-11), (0.5, 1e-11), (0.9, 1e-11), (0.99, 1e-9)])
def test_polylog_bound_covers_truth(q, x, eps):
    rep = polylog(q, x, eps)
    err = abs(rep.value - float(mp.polylog(mp.mpf(q), mp.mpf(x))))
    assert err <= rep.abs_error_bound + 5e-16


@pytest.mark.parametrize("args", sorted(MZV_TRUTHS), ids=str)
def test_mzv_bound_covers_truth(args):
    rep = mzv(args, 1e-9 if len(args) <= 2 else 1e-8)
    err = abs(rep.value - float(MZV_TRUTHS[args]))
    assert err <= rep.abs_error_bound + 2e-16


@pytest.mark.parametrize(
    "args", sorted(a for a in MZV_TRUTHS if len(a) == 2), ids=str
)
def test_mzv_integral_bound_covers_truth(args):
    r, q = args
    rep = mzv_integral(r, q, 1e-9)
    err = abs(rep.value - float(MZV_TRUTHS[args]))
    assert err <= rep.abs_error_bound + 2e-16


def _poly_truth(poly):
    return mp.fsum(
        mp.mpf(c.numerator) / c.denominator * mp.fprod(_z(a) for a in mono)
        for mono, c in poly.sorted_terms()
    )


def _covers(rep, truth):
    """The exact distance from the reported value to the truth is within the bound."""
    return abs(mp.mpf(rep.value) - truth) <= rep.abs_error_bound


# pinned closed forms of sum_n prod_j tail(i_j, n), keyed by exponents
CLOSED_FORMS = {exps: ZetaPolynomial(terms) for exps, terms, _ in PRODUCT_CASES}


@pytest.mark.parametrize("exps", sorted(CLOSED_FORMS), ids=str)
def test_evaluate_formula_bound_covers_truth(exps):
    rep = evaluate_formula(tail_product_formula(exps), exps)
    assert _covers(rep, _poly_truth(CLOSED_FORMS[exps]))


@pytest.mark.parametrize(
    "route,k,exps",
    [
        (proposition_kk1, 2.0, (3.0, 2.0)),
        (proposition_square, 2.0, (2.0, 2.0)),
        (proposition_square, 3.0, (3.0, 3.0)),
    ],
    ids=["kk1-2", "square-2", "square-3"],
)
def test_proposition_bounds_cover_truth(route, k, exps):
    truth = _poly_truth(CLOSED_FORMS[exps])
    lhs, rhs = route(k)
    assert _covers(lhs, truth)
    assert _covers(rhs, truth)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_square_closed_form_bound_covers_truth(p):
    poly = integer_square_closed_form(p)
    assert _covers(poly.evaluate(1e-9), _poly_truth(poly))


@pytest.mark.parametrize("exps", sorted(CLOSED_FORMS), ids=str)
def test_zeta_polynomial_bound_covers_truth(exps):
    # once as pinned, once with a constant term (the empty monomial)
    for poly in (CLOSED_FORMS[exps], CLOSED_FORMS[exps] + ZetaPolynomial({(): Fraction(1, 3)})):
        assert _covers(poly.evaluate(1e-9), _poly_truth(poly))


# a target whose unclamped per-factor budget lies below what zeta can reach
@pytest.mark.parametrize("exps", sorted(CLOSED_FORMS), ids=str)
def test_zeta_polynomial_fine_target_covers_truth(exps):
    rep = CLOSED_FORMS[exps].evaluate(1e-11)
    assert rep.abs_error_bound <= 1e-11
    assert _covers(rep, _poly_truth(CLOSED_FORMS[exps]))


@pytest.mark.parametrize("p", [3, 4, 5])
def test_square_closed_form_fine_target_covers_truth(p):
    poly = integer_square_closed_form(p)
    rep = poly.evaluate(1e-11)
    assert rep.abs_error_bound <= 1e-11
    assert _covers(rep, _poly_truth(poly))
