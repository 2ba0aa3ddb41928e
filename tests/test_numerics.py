import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetatails import (
    DepthError,
    DomainError,
    EvalReport,
    PrecisionError,
    brute_tail_product_sum,
    mzv,
    mzv_integral,
    polylog,
    tail,
    zeta,
)


def combined(*reports):
    return sum(r.abs_error_bound for r in reports)


class TestZeta:
    def test_zeta2_closed_form(self):
        rep = zeta(2.0, 1e-10)
        assert abs(rep.value - math.pi**2 / 6.0) <= rep.abs_error_bound
        assert rep.abs_error_bound <= 1e-10

    def test_zeta4_closed_form(self):
        rep = zeta(4.0, 1e-11)
        assert abs(rep.value - math.pi**4 / 90.0) <= rep.abs_error_bound

    def test_zeta3_partial_sum_bracket(self):
        # independent oracle: 1e7-term partial sum plus integral-test bracket
        n = 10**7
        partial = float(np.sum(np.arange(1.0, n + 1.0) ** -3.0))
        lo = partial + 1.0 / (2.0 * (n + 1.0) ** 2)
        hi = partial + 1.0 / (2.0 * n**2)
        rep = zeta(3.0, 1e-10)
        slop = rep.abs_error_bound + 1e-12  # oracle's own float rounding
        assert lo - slop <= rep.value <= hi + slop

    @pytest.mark.parametrize("s", [1.2, 2.0, 3.7, 10.0, 41.0])
    def test_bound_meets_target(self, s):
        rep = zeta(s, 1e-10)
        assert rep.abs_error_bound <= 1e-10

    @pytest.mark.parametrize("s", [1.0, 0.5, 1.0000005, -2.0])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            zeta(s)

    def test_precision_error_near_pole(self):
        # value ~ 5e5 there; double precision cannot pin it to 1e-10
        with pytest.raises(PrecisionError):
            zeta(1.000002, 1e-10)

    def test_bad_eps(self):
        with pytest.raises(DomainError):
            zeta(2.0, -1e-9)


class TestTail:
    def test_n0_is_zeta(self):
        a = tail(2.5, 0, 1e-11)
        b = zeta(2.5, 1e-11)
        assert abs(a.value - b.value) <= combined(a, b)

    def test_one_term_difference(self):
        t = tail(2.0, 1, 1e-11)
        z = zeta(2.0, 1e-12)
        assert abs(t.value - (z.value - 1.0)) <= combined(t, z) + 1e-15

    def test_integral_bracket(self):
        t = tail(3.0, 10, 1e-11)
        lo = 1.0 / (2.0 * 11**2)
        hi = 1.0 / (2.0 * 10**2)
        assert lo - t.abs_error_bound <= t.value <= hi + t.abs_error_bound

    def test_large_n_direct_expansion(self):
        t = tail(2.0, 10**6, 1e-12)
        # integral-test bracket at n = 1e6
        assert 1.0 / (10**6 + 1) < t.value < 1.0 / 10**6

    def test_domain(self):
        with pytest.raises(DomainError):
            tail(1.0, 5)
        with pytest.raises(DomainError):
            tail(2.0, -1)
        with pytest.raises(DomainError):
            tail(2.0, 1.5)


class TestPolylog:
    def test_li1_logarithm(self):
        rep = polylog(1.0, 0.5, 1e-12)
        assert abs(rep.value - (-math.log(0.5))) <= rep.abs_error_bound + 1e-15

    def test_li2_direct_sum_oracle(self):
        x = 0.3
        direct = math.fsum(x**j / j**2 for j in range(1, 61))
        remainder = x**61 / (61.0**2 * (1.0 - x))
        rep = polylog(2.0, x, 1e-12)
        assert abs(rep.value - direct) <= rep.abs_error_bound + remainder

    @pytest.mark.parametrize("q", [-1.5, 0.0, 0.7, 2.0])
    def test_leading_term_near_zero(self, q):
        x = 1e-9
        rep = polylog(q, x, 1e-15)
        # remaining terms are below x^2 * 2^(1-q) / (1-x)
        assert abs(rep.value - x) <= 2.0 ** (1.0 - q) * x**2 / (1.0 - x) + rep.abs_error_bound

    def test_negative_order_converges(self):
        # Li_{-1}(x) = x/(1-x)^2
        x = 0.4
        rep = polylog(-1.0, x, 1e-12)
        assert abs(rep.value - x / (1.0 - x) ** 2) <= rep.abs_error_bound + 1e-14

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            polylog(2.0, x)


class TestMzv:
    def test_depth2_equals_zeta3(self):
        m = mzv((2.0, 1.0), 1e-9)
        z = zeta(3.0, 1e-11)
        assert abs(m.value - z.value) <= combined(m, z)

    def test_depth1_degenerate(self):
        m = mzv((2.7,), 1e-10)
        z = zeta(2.7, 1e-10)
        assert abs(m.value - z.value) <= combined(m, z)

    def test_depth2_stuffle_closed_form(self):
        # zeta(2,2) = (zeta(2)^2 - zeta(4)) / 2
        m = mzv((2.0, 2.0), 1e-10)
        z2 = zeta(2.0, 1e-12)
        z4 = zeta(4.0, 1e-12)
        expected = (z2.value**2 - z4.value) / 2.0
        assert abs(m.value - expected) <= combined(m, z2, z4) * 3.0 + 1e-13

    def test_real_arguments_against_double_loop(self):
        # brute-force nested truncation oracle with one-sided remainder bracket
        n_cut = 20000
        ns = np.arange(1.0, n_cut + 1.0)
        inner = np.concatenate(([0.0], np.cumsum(ns**-1.7)))
        s_direct = float(np.sum(ns**-2.5 * inner[:-1]))
        # remainder in [0, zeta_upper(1.7) * tail_upper(2.5, n_cut)]
        rem_hi = (1.0 + 1.0 / 0.7) * n_cut**-1.5 / 1.5
        m = mzv((2.5, 1.7), 1e-9)
        assert m.value >= s_direct - m.abs_error_bound - 1e-12
        assert m.value - s_direct <= rem_hi + m.abs_error_bound + 1e-12

    def test_trailing_ones_match_known_reductions(self):
        # zeta(2,1,1) = zeta(4) and zeta(2,1,1,1,1) = zeta(6), both classical
        m = mzv((2.0, 1.0, 1.0), 1e-8)
        z = zeta(4.0, 1e-11)
        assert abs(m.value - z.value) <= combined(m, z)
        m5 = mzv((2.0, 1.0, 1.0, 1.0, 1.0), 1e-7)
        z6 = zeta(6.0, 1e-11)
        assert abs(m5.value - z6.value) <= combined(m5, z6)

    def test_negative_inner_argument(self):
        # oracle: double loop with integral-test bracket on the remainder
        n_cut = 40000
        ns = np.arange(1.0, n_cut + 1.0)
        inner = np.concatenate(([0.0], np.cumsum(ns**1.5)))
        s_direct = float(np.sum(ns**-4.0 * inner[:-1]))
        # remainder terms n^-4 * F(n-1) with F(m) <= (m+1)^2.5 / 2.5, so the
        # remainder is below 1.01 * integral of x^-1.5 / 2.5 past the cutoff
        rem_hi = 1.01 * 2.0 * n_cut**-0.5 / 2.5
        m = mzv((4.0, -1.5), 1e-9)
        assert m.value >= s_direct - m.abs_error_bound
        assert m.value - s_direct <= rem_hi

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            mzv((1.0, 1.0))
        with pytest.raises(DomainError):
            mzv((2.0, 0.0))

    def test_near_boundary_rejected(self):
        with pytest.raises(DomainError):
            mzv((1.0 + 1e-9,))

    def test_depth_cap(self):
        with pytest.raises(DepthError):
            mzv((2.0,) + (1.0,) * 5)

    def test_eps_floor(self):
        with pytest.raises(DomainError):
            mzv((2.0, 1.0), 1e-12)


class TestMzvIntegral:
    def test_case_21_equals_zeta3(self):
        rep = mzv_integral(2.0, 1.0, 1e-9)
        z = zeta(3.0, 1e-11)
        assert abs(rep.value - z.value) <= combined(rep, z)

    def test_matches_nested_sum(self):
        a = mzv_integral(2.5, 1.7, 1e-8)
        b = mzv((2.5, 1.7), 1e-9)
        assert abs(a.value - b.value) <= combined(a, b) + 1e-7

    def test_proposition_feed_case(self):
        # (r, q) = (k+1, k-1) at k = 2.5, both sides independent
        a = mzv_integral(3.5, 1.5, 1e-8)
        b = mzv((3.5, 1.5), 1e-9)
        assert abs(a.value - b.value) <= combined(a, b) + 1e-8

    def test_integer_q_branch(self):
        a = mzv_integral(3.0, 2.0, 1e-8)
        b = mzv((3.0, 2.0), 1e-9)
        assert abs(a.value - b.value) <= combined(a, b) + 1e-8

    def test_negative_q(self):
        a = mzv_integral(3.8, -1.6, 1e-8)
        b = mzv((3.8, -1.6), 1e-9)
        assert abs(a.value - b.value) <= combined(a, b) + 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            mzv_integral(1.0, 2.0)
        with pytest.raises(DomainError):
            mzv_integral(2.0, 0.0)  # q must exceed 2 - r = 0


class TestBruteTailProductSum:
    def test_pair_22(self):
        # 3 zeta(3) - (5/2) zeta(4)
        b = brute_tail_product_sum((2.0, 2.0))
        z3 = zeta(3.0, 1e-12)
        z4 = zeta(4.0, 1e-12)
        expected = 3.0 * z3.value - 2.5 * z4.value
        assert abs(b.value - expected) <= combined(b, z3, z4) * 4.0 + 1e-12

    def test_pair_32(self):
        # 2 zeta(4) - zeta(2) zeta(3)
        b = brute_tail_product_sum((3.0, 2.0))
        z2 = zeta(2.0, 1e-12)
        z3 = zeta(3.0, 1e-12)
        z4 = zeta(4.0, 1e-12)
        expected = 2.0 * z4.value - z2.value * z3.value
        assert abs(b.value - expected) <= combined(b, z2, z3, z4) * 4.0 + 1e-12

    def test_single_factor(self):
        # sum over n of tail(p, n) telescopes to zeta(p-1) - zeta(p)
        b = brute_tail_product_sum((3.0,))
        z2 = zeta(2.0, 1e-12)
        z3 = zeta(3.0, 1e-12)
        assert abs(b.value - (z2.value - z3.value)) <= combined(b, z2, z3) + 1e-13

    def test_direct_partial_sum_bracket(self):
        # oracle: explicit tails via zeta minus partial sums, outer sum to 3000
        n_cut = 3000
        ns = np.arange(1.0, n_cut + 1.0)
        z2 = math.pi**2 / 6.0
        tails_arr = z2 - np.cumsum(ns**-2.0)
        s_direct = float(np.sum(tails_arr**2))
        rem_hi = n_cut**-1.0  # tail(2,n) <= 1/n, so sum_{n>N} <= N^-1... times 1
        b = brute_tail_product_sum((2.0, 2.0))
        assert b.value >= s_direct - b.abs_error_bound - 1e-9
        assert b.value - s_direct <= rem_hi + b.abs_error_bound + 1e-9

    def test_hypothesis_violation(self):
        with pytest.raises(DomainError):
            brute_tail_product_sum((1.5, 1.4))  # sum 2.9 <= 3
        with pytest.raises(DomainError):
            brute_tail_product_sum((0.9, 3.0))

    def test_exact_boundary_rejected(self):
        with pytest.raises(DomainError):
            brute_tail_product_sum((1.5, 1.5))


class TestCrossChecks:
    def test_product_relation_real_arguments(self):
        rng = random.Random(42)
        for _ in range(8):
            n = rng.uniform(1.3, 4.0)
            m = rng.uniform(1.3, 4.0)
            zn = zeta(n, 1e-11)
            zm = zeta(m, 1e-11)
            znm = zeta(n + m, 1e-11)
            ab = mzv((n, m), 1e-9)
            ba = mzv((m, n), 1e-9)
            lhs = zn.value * zm.value
            rhs = ab.value + ba.value + znm.value
            tol = combined(zn, zm, znm, ab, ba) * 5.0 + 1e-12
            assert abs(lhs - rhs) <= tol, (n, m, abs(lhs - rhs), tol)

    def test_oracle_consistency_sample(self):
        from zetatails import evaluate_formula, tail_product_formula

        rng = random.Random(7)
        for _ in range(10):
            k = rng.choice((2, 3))
            while True:
                exps = tuple(rng.uniform(1.2, 4.0) for _ in range(k))
                if sum(exps) > k + 1.01:
                    break
            formula = tail_product_formula(exps)
            lhs = evaluate_formula(formula, exps, 1e-7)
            rhs = brute_tail_product_sum(exps, 1e-7)
            assert abs(lhs.value - rhs.value) <= combined(lhs, rhs) + 1e-6

    def test_integral_sum_equivalence_sample(self):
        rng = random.Random(11)
        for _ in range(5):
            r = rng.uniform(1.2, 4.0)
            q = rng.uniform(2.0 - r + 0.2, 4.0)
            if abs(q - round(q)) <= 1e-3:
                continue
            a = mzv_integral(r, q, 1e-8)
            b = mzv((r, q), 1e-9)
            assert abs(a.value - b.value) <= combined(a, b) + 1e-7


class TestInternalLine:
    """The private zeta-on-the-real-line and polylog-near-one helpers."""

    def test_zeta_line_classical_points(self):
        from zetatails.numerics import _zeta_line

        for s, exact in [(0.0, -0.5), (-1.0, -1.0 / 12.0)]:
            v, b = _zeta_line(s)
            assert abs(v - exact) <= b, (s, v, exact, b)

    def test_zeta_line_reflection_consistency(self):
        # continuation branch against an explicitly assembled reflection route
        from zetatails.numerics import _zeta_line

        for s in (-0.45, -0.2):
            v1, b1 = _zeta_line(s)
            zv, zb = _zeta_line(1.0 - s)
            amp = math.exp(
                s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + math.lgamma(1.0 - s)
            )
            v2 = amp * math.sin(math.pi * s / 2.0) * zv
            assert abs(v1 - v2) <= b1 + amp * zb + 1e-13

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 0.5, -0.7])
    def test_polylog_exp_branches_agree_at_switch(self, q):
        # expansion around t = 0 against the direct series in e^-t
        from zetatails.numerics import _li_exp_direct, _li_exp_small_t

        t = np.array([0.499999, 0.5])
        v_small, e_small = _li_exp_small_t(q, t)
        v_dir, e_dir = _li_exp_direct(q, t)
        gap = float(np.max(np.abs(v_small - v_dir)))
        assert gap <= float(np.max(e_small) + np.max(e_dir)) + 1e-14


class TestErrorBoundHonesty:
    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    @pytest.mark.parametrize("s", [1.4, 2.0, 3.3])
    def test_zeta_refinement(self, s, eps):
        a = zeta(s, eps)
        b = zeta(s, eps / 2.0)
        assert abs(a.value - b.value) <= a.abs_error_bound + 1e-15

    @pytest.mark.parametrize("args", [(2.0, 1.0), (2.5, 1.7), (2.0, 1.0, 1.0)])
    def test_mzv_refinement(self, args):
        a = mzv(args, 1e-7)
        b = mzv(args, 5e-8)
        assert abs(a.value - b.value) <= a.abs_error_bound + 1e-15

    @pytest.mark.parametrize("q,x", [(2.0, 0.5), (1.0, 0.8), (-0.5, 0.3)])
    def test_polylog_refinement(self, q, x):
        a = polylog(q, x, 1e-8)
        b = polylog(q, x, 5e-9)
        assert abs(a.value - b.value) <= a.abs_error_bound + 1e-15

    def test_tail_refinement(self):
        a = tail(2.2, 7, 1e-8)
        b = tail(2.2, 7, 5e-9)
        assert abs(a.value - b.value) <= a.abs_error_bound + 1e-15

    def test_integral_refinement(self):
        a = mzv_integral(2.5, 1.7, 1e-7)
        b = mzv_integral(2.5, 1.7, 5e-8)
        assert abs(a.value - b.value) <= a.abs_error_bound + 1e-15

    def test_brute_refinement(self):
        a = brute_tail_product_sum((2.0, 2.0), 1e-8)
        b = brute_tail_product_sum((2.0, 2.0), 5e-9)
        assert abs(a.value - b.value) <= a.abs_error_bound + 1e-15


class TestHugeExponents:
    """Exponents far past what the expansions can hold in doubles."""

    @pytest.mark.parametrize(
        "route,args",
        [
            (zeta, (1e300,)),
            (mzv, ((1e300, 1.0),)),
            (brute_tail_product_sum, ((1e300, 2.0),)),
            (mzv_integral, (200.0, 1.0)),
            (tail, (2.0, 0, 1e-300)),
        ],
        ids=["zeta", "mzv", "brute", "integral", "tail-tiny-eps"],
    )
    def test_fail_cleanly(self, route, args):
        with pytest.raises((DomainError, PrecisionError)):
            route(*args)

    def test_underflowed_mzv_keeps_a_positive_bound(self):
        # every term lies below the smallest subnormal, so the value rounds to 0
        rep = mzv((1e60, 1.0))
        assert rep.value == 0.0 and rep.abs_error_bound > 0.0

    def test_zeta_still_served_below_overflow(self):
        # 4 * remainder coefficient / eps overflows here, the cutoff does not
        rep = zeta(1e61)
        assert rep.value == 1.0 and rep.abs_error_bound <= 1e-9


def _scaled(mantissas):
    """Floats spread over the whole exponent range, subnormals included."""
    return st.builds(math.ldexp, mantissas, st.integers(min_value=-1074, max_value=300))


@st.composite
def _balls(draw):
    """A report together with an exact point inside its ball."""
    rep = EvalReport(
        draw(_scaled(st.floats(-1.0, 1.0))), draw(_scaled(st.floats(0.0, 1.0))), 1
    )
    t = draw(st.fractions(min_value=-1, max_value=1, max_denominator=10**6))
    return rep, Fraction(rep.value) + t * Fraction(rep.abs_error_bound)


_scalars = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(-1e6, 1e6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)


def _covers(rep, exact):
    return abs(Fraction(rep.value) - exact) <= Fraction(rep.abs_error_bound)


class TestBallArithmetic:
    @given(_balls(), _balls())
    @settings(max_examples=250, deadline=None)
    def test_binary_operations_cover_exact_results(self, a, b):
        (ra, xa), (rb, xb) = a, b
        assert _covers(ra + rb, xa + xb)
        assert _covers(ra - rb, xa - xb)
        assert _covers(-ra, -xa)
        assert _covers(ra * rb, xa * xb)

    @given(_balls(), _scalars)
    @settings(max_examples=250, deadline=None)
    def test_scalar_multiple_covers_exact_result(self, a, c):
        ra, xa = a
        assert _covers(c * ra, Fraction(c) * xa)

    @given(st.lists(_balls(), min_size=1, max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_fsum_and_prod_cover_exact_results(self, balls):
        reports = [r for r, _ in balls]
        assert _covers(EvalReport.fsum(reports), sum(x for _, x in balls))
        few = balls[:3]  # three factors below 2^300 stay inside the float range
        assert _covers(EvalReport.prod(r for r, _ in few), math.prod(x for _, x in few))

    def test_empty_product_is_exact_one(self):
        assert EvalReport.prod([]) == EvalReport(1.0, 0.0, 1)

    def test_terms_used_add_across_operands(self):
        a, b = EvalReport(1.0, 0.0, 2), EvalReport(2.0, 0.0, 5)
        assert (a + b).terms_used == (a * b).terms_used == 7
        assert (3 * a).terms_used == 2
