import math
import os
import random
import subprocess
import sys
import gc
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetatails
from zetatails import numerics
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
    tail_product_formula,
    tail_product_sum,
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

    def test_term_cap(self):
        with pytest.raises(PrecisionError, match=r"1e-09 not reached after 10000000 terms"):
            polylog(2.0, 1.0 - 1e-9)

    @pytest.mark.parametrize("q,x", [(-400.0, 0.5), (-150.0, 0.5), (-1e6, 0.1)])
    def test_overflowing_terms_are_refused(self, q, x):
        with pytest.raises(PrecisionError, match="overflows"):
            polylog(q, x)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
    def test_near_one_sums_in_bounded_memory(self):
        # millions of terms, summed block by block rather than kept in a list;
        # a fresh interpreter reports its own peak resident set
        script = (
            "import zetatails\n"
            "rep = zetatails.polylog(2.0, 0.999999)\n"
            "hwm = next(l for l in open('/proc/self/status') if l.startswith('VmHWM'))\n"
            "print(rep.terms_used, rep.abs_error_bound, int(hwm.split()[1]) // 1024)\n"
        )
        src = os.path.dirname(os.path.dirname(zetatails.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        terms, bound, peak_mb = proc.stdout.split()
        assert int(terms) == 4564348
        assert float(bound) <= 1e-9
        assert int(peak_mb) < 64


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


def _expansions_by_index(args):
    pts = [numerics._zeta_tail_pt(args[0])]
    for a in args[1:]:
        pts.append(numerics._pt_convolve(pts[-1], a))
    return pts


def _build_by_index(args, pts, n):
    ns = np.arange(1.0, n + 1.0)
    ops_left = (n - np.arange(n + 1, dtype=np.float64)) + 8.0
    v_prev = np.ones(n + 1)
    e_prev = np.zeros(n + 1)
    for a, pt in zip(args, pts):
        pw = ns ** (-a)
        seed, seed_err = numerics._pt_eval(pt, n)
        w = pw * v_prev[1:]
        suffix = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
        v = seed + suffix
        werr = pw * e_prev[1:]
        esuf = np.concatenate((np.cumsum(werr[::-1])[::-1], [0.0]))
        rounding = numerics._EPS * ops_left * (np.abs(v) + abs(seed))
        e_prev = seed_err + esuf + rounding
        v_prev = v
    value = float(v_prev[0])
    return value, float(e_prev[0]) * (1.0 + 1e-9) + 4.0 * numerics._EPS * abs(value) + numerics._TINY


def _mzv_by_index(args, target_eps):
    """(value, bound, terms_used) of a served index, evaluated on its own with
    every level built from scratch at every cutoff: the reference the prefix
    walk must equal bit for bit."""
    pts = _expansions_by_index(args)
    n = 64
    while n <= 2**19:
        value, bound = _build_by_index(args, pts, n)
        if bound <= target_eps:
            return value, bound, len(args) * n
        n *= 2
    raise AssertionError(f"reference refuses {args} at {target_eps}")


def _fields(rep):
    return rep.value, rep.abs_error_bound, rep.terms_used


def _first_refusal(indices, target_eps):
    """Class and message of what mzv raises first, one index at a time in
    sorted order."""
    for args in sorted(indices):
        try:
            mzv(args, target_eps)
        except (DomainError, PrecisionError) as exc:
            return type(exc), str(exc)
    raise AssertionError(f"no index of {indices} is refused")


class TestPrefixWalk:
    """``numerics._mzv_many`` equals evaluating each index on its own."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_formula_indices_match_per_index(self, k):
        rng = random.Random(40 + k)
        for _ in range(10):
            while True:
                exps = tuple(rng.uniform(1.25, 4.0) for _ in range(k))
                if sum(exps) > k + 1.5:
                    break
            indices = list(tail_product_formula(exps).merged_by_value(exps))
            reports = numerics._mzv_many(indices, 1e-10)
            assert len(reports) == len(indices)
            for args, rep in zip(indices, reports):
                assert _fields(rep) == _mzv_by_index(args, 1e-10), args

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_mzv_matches_per_index(self, depth):
        rng = random.Random(depth)
        for _ in range(12):
            while True:
                args = (rng.uniform(1.05, 4.0),) + tuple(
                    rng.uniform(-1.0, 3.0) for _ in range(depth - 1)
                )
                if all(sum(args[: j + 1]) > j + 1.05 for j in range(depth)):
                    break
            eps = rng.choice([1e-10, 1e-9, 1e-7])
            assert _fields(mzv(args, eps)) == _mzv_by_index(args, eps), args

    def test_indices_past_the_first_cutoff(self):
        # the two deepest indices need cutoff 128, their prefixes only 64
        indices = [
            (1.4, 0.7, 1.3, 1.5, 0.3),
            (1.1, 1.0, 2.2, -0.1),
            (1.1, 1.0),
            (1.4, 0.7, 1.3, 1.5),
            (1.1, 1.0, 2.2),
            (1.4, 0.7, 2.0),
            (2.0,),
        ]
        reports = numerics._mzv_many(indices, 1e-10)
        cutoffs = [rep.terms_used // len(args) for args, rep in zip(indices, reports)]
        assert cutoffs == [128, 128, 64, 64, 64, 64, 64]
        for args, rep in zip(indices, reports):
            assert _fields(rep) == _mzv_by_index(args, 1e-10), args

    @pytest.mark.parametrize(
        "indices,eps,error,fragment",
        [
            ([(1.5, 2.0), (2.0,) * 6, (2.0, 3.0), (4.0,)], 1e-9, DepthError, "depth 6"),
            ([(3.0, 2.0), (2.0, 1e-7), (1.5, 1.0), (2.0, 0.5)], 1e-9, DomainError, "within"),
            ([(2.0, 2.0), (1.000002, 2.0), (1.5, 1.5)], 1e-10, PrecisionError, "best bound"),
            # a cutoff refusal that sorts before a domain refusal, and after one
            ([(2.0, -0.9), (1.000002,)], 1e-10, PrecisionError, "best bound"),
            ([(1.000002,), (1.0000005, 3.0)], 1e-10, DomainError, "within"),
            ([(500.0,), (400.0, -300.0)], 1e-9, PrecisionError, "not finite"),
            ([(2.0, 2.0), (3.0,)], 1e-11, DomainError, "below 1e-10"),
        ],
        ids=["depth", "margin", "target", "precision-first", "domain-first", "overflow", "floor"],
    )
    def test_refuses_as_mzv_in_sorted_order(self, indices, eps, error, fragment):
        expected = _first_refusal(indices, eps)
        with pytest.raises((DomainError, PrecisionError)) as info:
            numerics._mzv_many(indices, eps)
        assert (type(info.value), str(info.value)) == expected
        assert type(info.value) is error and fragment in str(info.value)


    @pytest.mark.parametrize("block", [None, 1, 2, 5])
    def test_depths_wider_than_the_row_block(self, block, monkeypatch):
        # a row block that splits the kept rows of one depth, and one that
        # splits the children of one parent
        if block is not None:
            monkeypatch.setattr(numerics, "_ROW_BLOCK", block)
        exps = (1.4, 2.7, 1.9, 3.2)
        indices = list(tail_product_formula(exps).merged_by_value(exps))
        widest = max(sum(len(a) > j for a in {a[: j + 1] for a in indices}) for j in range(4))
        assert widest > numerics._ROW_BLOCK
        for args, rep in zip(indices, numerics._mzv_many(indices, 1e-10)):
            assert _fields(rep) == _mzv_by_index(args, 1e-10), args

    def test_argument_minus_one_half_in_a_wide_depth(self):
        # alone, ns ** 0.5 is a square root; the array power of a 2-D pass
        # differs from it in the last bit at some grid points
        a = 4.073218726760583
        indices = [(a, -0.5), (a, 2.024460323623736), (a, 2.408425383179437), (a, 0.4628068429678577)]
        for args, rep in zip(indices, numerics._mzv_many(indices, 1e-9)):
            assert _fields(rep) == _mzv_by_index(args, 1e-9), args

    @pytest.mark.parametrize(
        "indices,eps,error,fragment",
        [
            # a doubling miss, found after the tree is built, sorts first
            ([(2.0,) * 6, (1.000002, 2.0), (1.5, 1.5)], 1e-10, PrecisionError, "best bound"),
            # a margin refusal ends the walk before the non-finite bound
            ([(400.0, -300.0), (2.0, 1e-7), (3.0,)], 1e-9, DomainError, "within"),
        ],
        ids=["miss-before-depth", "margin-before-overflow"],
    )
    def test_refusals_from_different_phases(self, indices, eps, error, fragment):
        expected = _first_refusal(indices, eps)
        with pytest.raises((DomainError, PrecisionError)) as info:
            numerics._mzv_many(indices, eps)
        assert (type(info.value), str(info.value)) == expected
        assert type(info.value) is error and fragment in str(info.value)

    def test_refusal_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            for indices in ([(1.5, 2.0), (2.0,) * 6], [(2.0, 2.0), (1.000002, 2.0)]):
                with pytest.raises((DomainError, PrecisionError)):
                    numerics._mzv_many(indices, 1e-10)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memory_peak_of_a_fivefold_tail_sum(self):
        tail_product_sum((1.6, 2.2, 2.8, 3.3, 1.8))
        tracemalloc.start()
        try:
            tail_product_sum((1.7, 2.3, 2.9, 3.4, 1.9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * 2**20


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

    #: once refused: r + q - 2 = 0.078, where the integrand overflowed to NaN
    #: at the lower cut, and q within 1e-7 of an integer, where the Gamma
    #: and zeta(q - n) poles of the small-t expansion filled the budget
    FORMER_REFUSALS = [
        (3.602930087155526, -1.5244686484777583),
        (2.0, 1.0 + 1e-7),
        (2.0, 2.0 + 1e-7),
    ]

    @pytest.mark.parametrize("r,q", FORMER_REFUSALS)
    def test_refuses_in_bounded_time(self, r, q):
        # a target below the rounding of the value itself
        start = time.perf_counter()
        with pytest.raises(PrecisionError):
            mzv_integral(r, q, 1e-17)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "r,q,eps", [(r, q, 1e-9) for r, q in FORMER_REFUSALS] + [(1.04, 1.5, 1e-9), (1.02, 3.0, 1e-7)]
    )
    def test_former_refusals_are_served(self, r, q, eps):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = mzv_integral(r, q, eps)
        assert time.perf_counter() - start < 1.0
        b = mzv((r, q), 1e-9)
        assert abs(a.value - b.value) <= combined(a, b)

    def test_overflow_is_refused_without_warnings(self):
        # Gamma(r) overflows double precision past r = 171.6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match="overflows"):
                mzv_integral(172.0, 1.0)

    @pytest.mark.parametrize("r,q", [(2.0, 300.0), (2.5, 1000.0), (2.0, 5000.0)])
    def test_large_q_is_served_or_refused_cleanly(self, r, q):
        # the expansion of Li_q(e^-t) needs more than q terms
        try:
            rep = mzv_integral(r, q)
        except PrecisionError as exc:
            assert "terms" in str(exc)
        else:
            # Li_q(e^-t) is e^-t to within 2^-q: zeta(r, q) is zeta(r) - 1
            assert abs(rep.value - (zeta(r, 1e-12).value - 1.0)) <= rep.abs_error_bound + 1e-12

    def test_panels_stay_inside_their_ellipses(self):
        # every panel of the doubling mesh, the clipped last one included,
        # is at most as wide as its left end, so E_rho stays in Re t > 0
        for r, q in [(2.5, 1.7), (1.3, 2.2), (6.0, -3.9), (20.0, 2.5)]:
            t_cut, _ = numerics._upper_cut(r, q, 1e-11)
            a, b, big = numerics._panels(r, q, t_cut, 1e-20)
            assert a[0] == numerics._HEAD_T and b[-1] == t_cut
            assert (a[1:] == b[:-1]).all() and (b - a <= a).all()
            assert np.isfinite(big).all()

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=6.0, exclude_min=True),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_finite_report_or_clean_refusal(self, r, u):
        q = (2.0 - r) + u * (4.0 + r)  # q in (2 - r, 6]
        start = time.perf_counter()
        try:
            rep = mzv_integral(r, q)
        except (DomainError, PrecisionError):
            # only where the value, about zeta(r + q - 1) / (r - 1), so about
            # 1 / ((r - 1)(r + q - 2)), is too large for 1e-9 in doubles
            assert (r - 1.0) * (r + q - 2.0) < 1e-4
        else:
            assert math.isfinite(rep.value) and math.isfinite(rep.abs_error_bound)
        assert time.perf_counter() - start < 2.0


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
        # the head's expansion coefficients summed at t = 1/2 against the
        # direct series in e^-t
        from zetatails.numerics import _li_exp_coefs, _li_series, _li_series_bound

        t, count = 0.5, 40
        coef, err, pair, sing, sing_err = _li_exp_coefs(q, count)
        if pair is None:
            shape = t ** (q - 1.0)
        else:
            e = q - pair - 1.0
            shape = t**pair * (math.expm1(e * math.log(t)) / e if e else math.log(t))
        v_small = math.fsum([sing * shape] + [c * t**n for n, c in enumerate(coef)])
        e_small = (
            sing_err * abs(shape)
            + math.fsum(e * t**n for n, e in enumerate(err))
            + _li_series_bound(q, t, count - 1)
        )
        v_dir, e_dir, _ = _li_series(q, np.exp(-np.array([t])), 1e-18, lambda: "switch")
        assert abs(v_small - float(v_dir[0])) <= e_small + float(e_dir[0]) + 1e-14

    @pytest.mark.parametrize("q", [-1.3, 0.6, 3.7])
    def test_quadrature_polylog_matches_public_polylog(self, q):
        # the quadrature's array branch for t >= 0.5 against scalar polylog
        from zetatails.numerics import _li_exp_neg

        t = np.linspace(0.5, 8.0, 16)
        values, bounds = _li_exp_neg(q, t)
        for x, v, b in zip(np.exp(-t), values, bounds):
            rep = polylog(q, float(x), 1e-12)
            assert abs(v - rep.value) <= b + rep.abs_error_bound

    def test_zeta_line_cache_is_bounded(self):
        from zetatails.numerics import _zeta_line

        maxsize = _zeta_line.cache_info().maxsize
        assert maxsize is not None
        for s in np.linspace(-0.45, 0.95, maxsize + 100):
            _zeta_line(float(s))
        assert _zeta_line.cache_info().currsize <= maxsize


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

    def test_overflowing_level_is_refused_without_warnings(self):
        # n^300 overflows on the grid; the bound check refuses it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match="not finite"):
                mzv((400.0, -300.0))

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
