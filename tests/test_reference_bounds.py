"""Bound-validity audit against an independent multiprecision library.

Every report's abs_error_bound must cover the distance to a 30-digit
reference value.  These tests guard the error model itself, which the
pure-identity tests cannot see; they are skipped when mpmath is absent.
"""

import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from zetatails import numerics  # noqa: E402
from zetatails import (  # noqa: E402
    PrecisionError,
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


def _tail_expansion(p, order):
    """a_0..a_order with sum_{m>n} m^(-p) ~ sum_i a_i n^(1-p-i) (Euler-Maclaurin)."""
    p = mp.mpf(p)
    a = [1 / (p - 1), mp.mpf(-1) / 2] + [mp.mpf(0)] * (order - 1)
    for j in range(1, order // 2 + 1):
        a[2 * j] = mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(p, 2 * j - 1)
    return a


def _tail_product_sum(exps, cutoff=64, order=16):
    """sum_{n>=1} prod_j T_j(n), T_j(n) = sum_{m>n} m^(-p_j): the tails by
    recurrence up to the cutoff, past it the product of their expansions,
    each power summed as a Hurwitz zeta value."""
    ps = [mp.mpf(p) for p in exps]
    tails = [mp.zeta(p) for p in ps]
    head = mp.mpf(0)
    for n in range(1, cutoff + 1):
        tails = [t - mp.mpf(n) ** -p for t, p in zip(tails, ps)]
        head += mp.fprod(tails)
    series = [mp.mpf(1)]
    for p in ps:
        a = _tail_expansion(p, order)
        series = [
            mp.fsum(series[i] * a[j - i] for i in range(min(j, len(series) - 1) + 1))
            for j in range(order + 1)
        ]
    sigma = sum(ps) - len(ps)
    return head + mp.fsum(c * mp.zeta(sigma + i, cutoff + 1) for i, c in enumerate(series))


def _depth_two(r, q, cutoff=64, order=16):
    """zeta(r, q) = sum_{m>=1} m^(-q) T_r(m), summed like :func:`_tail_product_sum`."""
    r, q = mp.mpf(r), mp.mpf(q)
    head = mp.fsum(mp.mpf(m) ** -q * mp.zeta(r, m + 1) for m in range(1, cutoff + 1))
    a = _tail_expansion(r, order)
    return head + mp.fsum(c * mp.zeta(q + r - 1 + i, cutoff + 1) for i, c in enumerate(a))


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
@pytest.mark.parametrize(
    "x,eps",
    [(0.1, 1e-11), (0.5, 1e-11), (0.9, 1e-11), (0.99, 1e-9), (math.exp(-1e-4), 1e-9)],
)
def test_polylog_bound_covers_truth(q, x, eps):
    truth = mp.polylog(mp.mpf(q), mp.mpf(x))
    if 8 * sys.float_info.epsilon * truth > eps:
        # the rounding charge of the summed terms alone exceeds the target
        with pytest.raises(PrecisionError):
            polylog(q, x, eps)
        return
    rep = polylog(q, x, eps)
    err = abs(rep.value - float(truth))
    assert err <= rep.abs_error_bound + 5e-16


@pytest.mark.parametrize("s", [-3.3, -1.5, -0.455, -0.2, 0.3, 0.98, 1.02, 1.3, 1.49])
def test_zeta_line_bound_covers_truth(s):
    # the continuation across the strip and the reflection left of it
    from zetatails.numerics import _zeta_line

    value, bound = _zeta_line(s)
    assert abs(value - float(_z(s))) <= bound


@pytest.mark.parametrize("args", sorted(MZV_TRUTHS), ids=str)
def test_mzv_bound_covers_truth(args):
    rep = mzv(args, 1e-9 if len(args) <= 2 else 1e-8)
    err = abs(rep.value - float(MZV_TRUTHS[args]))
    assert err <= rep.abs_error_bound + 2e-16


@pytest.mark.parametrize("args", sorted(a for a in MZV_TRUTHS if len(a) == 2), ids=str)
def test_depth_two_reference_matches_closed_forms(args):
    assert abs(_depth_two(*args) - MZV_TRUTHS[args]) < mp.mpf(10) ** -25


#: q near an integer, where the Gamma and zeta(q - n) poles of the small-t
#: expansion of Li_q(e^-t) nearly cancel
NEAR_INTEGER_Q = [(2.0, 2.0001), (3.0, 1.00001), (2.5, 1.0 + 1e-5), (2.5, 3.0 - 1e-6)]


@pytest.mark.parametrize(
    "args", sorted(a for a in MZV_TRUTHS if len(a) == 2) + NEAR_INTEGER_Q, ids=str
)
def test_mzv_integral_bound_covers_truth(args):
    r, q = args
    rep = mzv_integral(r, q, 1e-9)
    truth = MZV_TRUTHS[args] if args in MZV_TRUTHS else _depth_two(r, q)
    err = abs(rep.value - float(truth))
    assert err <= rep.abs_error_bound + 2e-16


def _integral_between(r, q, edges):
    """integral of t^(r-1) Li_q(e^-t) / (e^t - 1) over each [edges[i], edges[i+1]],
    edges[0] > 0, as sum_{n>=2} n^(-r) [Gamma(r, n a) - Gamma(r, n b)] sum_{m<n} m^(-q):
    exact term by term; Gamma(r, n e) is dropped once n e > r + 100."""
    r, q = mp.mpf(r), mp.mpf(q)
    edges = [mp.mpf(e) for e in edges]
    out = [mp.mpf(0)] * (len(edges) - 1)
    harmonic, n = mp.mpf(0), 1
    while n * edges[0] <= r + 100:
        harmonic += mp.mpf(n) ** -q
        n += 1
        upper = [mp.gammainc(r, n * e) if n * e <= r + 100 else 0 for e in edges]
        weight = mp.mpf(n) ** -r * harmonic
        for i in range(len(out)):
            out[i] += weight * (upper[i] - upper[i + 1])
    return out


def _head_truth(r, q):
    """The integral over [0, 1/2], as Gamma(r) zeta(r, q) less the rest."""
    return mp.gamma(r) * _depth_two(r, q) - _integral_between(r, q, [0.5, mp.inf])[0]


#: integer q, then q = n +- 10^-k: the pole pair at its widest and tightest
HEAD_GRID = [(4.5, -2.0), (3.0, 0.0), (2.0, 1.0), (2.0, 2.0), (2.5, 3.0)] + [
    (r, n + sign * 10.0**-k)
    for n, r in ((1, 2.0), (2, 2.5), (3, 3.0))
    for sign in (-1, 1)
    for k in (2, 3, 5, 7, 9)
]


@pytest.mark.parametrize("r,q", HEAD_GRID, ids=str)
def test_head_bound_covers_truth(r, q):
    value, bound, _ = numerics._head(r, q)
    assert abs(value - _head_truth(r, q)) <= bound


def _random_rq(seed, count):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        r = rng.uniform(1.05, 6.0)
        q = rng.uniform(2.0 - r + 0.05, 6.0)
        pairs.append((r, q))
    return pairs


def _mesh(r, q):
    t_cut, _ = numerics._upper_cut(r, q, 1e-11 * math.gamma(r))
    return numerics._panels(r, q, t_cut, 1e-20)


@pytest.mark.parametrize("r,q", _random_rq(14, 50), ids=lambda x: f"{x:.4f}")
def test_panel_bounds_cover_truth(r, q):
    # the float 16-point sum of every mesh panel against the exact integral
    a, b, big = _mesh(r, q)
    parts, bounds = numerics._panel_sums(r, q, a, b, big)
    truth = _integral_between(r, q, [*a.tolist(), float(b[-1])])
    for part, bound, exact in zip(parts.tolist(), bounds.tolist(), truth):
        assert abs(part - exact) <= bound


def _gauss_legendre_16():
    """Nodes and weights of the 16-point rule at the working precision."""
    nodes = [mp.findroot(lambda x: mp.legendre(16, x), float(x)) for x in np.polynomial.legendre.leggauss(16)[0]]
    weights = [2 / ((1 - x**2) * mp.diff(lambda y: mp.legendre(16, y), x) ** 2) for x in nodes]
    return nodes, weights


@pytest.mark.parametrize("r,q", _random_rq(15, 6), ids=lambda x: f"{x:.4f}")
def test_panel_remainder_covers_exact_rule(r, q):
    # the rule in exact arithmetic errs by no more than its Bernstein bound
    with mp.workdps(50):
        nodes, weights = _gauss_legendre_16()
        a, b, big = _mesh(r, q)
        truth = _integral_between(r, q, [*a.tolist(), float(b[-1])])
        rp, qp = mp.mpf(r), mp.mpf(q)
        for lo, hi, m, exact in zip(a.tolist(), b.tolist(), big.tolist(), truth):
            half, mid = (mp.mpf(hi) - lo) / 2, (mp.mpf(hi) + lo) / 2
            ts = [mid + half * x for x in nodes]
            rule = half * mp.fsum(
                w * t ** (rp - 1) * mp.polylog(qp, mp.exp(-t)) / mp.expm1(t) for w, t in zip(weights, ts)
            )
            assert abs(rule - exact) <= numerics._GL_REMAINDER * float(half) * m


@pytest.mark.parametrize(
    "r,q,eps",
    [(r, q, 1e-9) for r in (1.25, 1.1, 1.01, 1.001, 1.0001) for q in (1.5, 3.0)]
    + [(1.0 + 2.0 * numerics.MIN_GAP, 2.0, 1e-5), (1.02, 3.0, 1e-7)],
    ids=str,
)
def test_mzv_integral_near_r_one_covers_truth(r, q, eps):
    rep = mzv_integral(r, q, eps)
    assert _covers(rep, _depth_two(r, q))


@pytest.mark.parametrize(
    "r,q",
    [(r, n + sign * 1e-7) for r in (2.0, 2.5, 3.0) for n in (1, 2, 3) for sign in (-1, 1)],
    ids=str,
)
def test_mzv_integral_near_integer_q_covers_truth(r, q):
    rep = mzv_integral(r, q, 1e-9)
    assert _covers(rep, _depth_two(r, q))


@pytest.mark.parametrize(
    "r,q,eps",
    [(3.602930087155526, -1.5244686484777583, 1e-9), (2.0, 1.0 + 1e-7, 1e-9), (2.0, 2.0 + 1e-7, 1e-9)]
    + [(1.04, 1.5, 1e-9), (1.02, 3.0, 1e-7)],
    ids=str,
)
def test_former_refusals_cover_truth(r, q, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = mzv_integral(r, q, eps)
    assert _covers(rep, _depth_two(r, q))


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


@pytest.mark.parametrize("exps", sorted(CLOSED_FORMS), ids=str)
def test_tail_product_reference_matches_closed_forms(exps):
    truth = _poly_truth(CLOSED_FORMS[exps])
    assert abs(_tail_product_sum(exps) - truth) < mp.mpf(10) ** -25


def test_evaluate_formula_fine_target_covers_truth():
    # the unclamped per-factor target for zeta(1.5) lies below what it can reach
    exps = (1.5, 2.5, 3.5, 1.7)
    rep = evaluate_formula(tail_product_formula(exps), exps, 4e-12)
    assert rep.abs_error_bound <= 4e-12
    assert _covers(rep, _tail_product_sum(exps))


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
