import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetatails import (
    DomainError,
    IntegerIndex,
    ZetaPolynomial,
    duality,
    mzv,
    reduce_double_odd,
    reduce_n1,
    sum_theorem_identity,
    zeta,
)
from zetatails.verify import admissible_integer_indices

F = Fraction


def _filtered_product(n, depth):
    """Integer indices of weight n and the given depth with first entry >= 2,
    by filtering a Cartesian power; lexicographic like itertools.product."""
    return [
        t
        for t in itertools.product(range(1, n - depth + 2), repeat=depth)
        if sum(t) == n and t[0] >= 2
    ]


def _zp(terms):
    return ZetaPolynomial({m: F(*c) if isinstance(c, tuple) else F(c) for m, c in terms.items()})


small_polys = st.dictionaries(
    keys=st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=2).map(
        lambda xs: tuple(sorted(xs))
    ),
    values=st.fractions(
        min_value=-5, max_value=5, max_denominator=6
    ),
    max_size=4,
).map(ZetaPolynomial)


class TestZetaPolynomial:
    def test_normal_form_drops_zeros(self):
        p = ZetaPolynomial({(3,): F(1)}) - ZetaPolynomial({(3,): F(1)})
        assert not p
        assert p.terms == {}

    def test_monomial_key_is_sorted(self):
        a = ZetaPolynomial.monomial((3, 2))
        b = ZetaPolynomial.monomial((2, 3))
        assert a == b
        assert a.coefficient((2, 3)) == 1

    def test_rejects_argument_below_two(self):
        with pytest.raises(DomainError):
            ZetaPolynomial({(1, 3): F(1)})

    def test_multiplication(self):
        p = ZetaPolynomial.single(2) * ZetaPolynomial.single(3)
        assert p == ZetaPolynomial.monomial((2, 3))
        sq = ZetaPolynomial.single(2)
        assert sq * sq == ZetaPolynomial.monomial((2, 2))

    def test_scalar_multiplication(self):
        p = 3 * ZetaPolynomial.single(5)
        assert p.coefficient((5,)) == 3
        assert (F(1, 2) * p).coefficient((5,)) == F(3, 2)

    def test_weight(self):
        assert ZetaPolynomial.monomial((2, 3)).weight() == 5
        assert _zp({(5,): 1, (2, 3): 1}).weight() == 5
        assert _zp({(5,): 1, (2,): 1}).weight() is None
        assert _zp({(5,): 1, (2,): 1}).is_homogeneous() is False

    def test_evaluate_against_zeta(self):
        p = _zp({(2,): 2, (2, 3): (-1, 2)})
        rep = p.evaluate(1e-10)
        z2 = zeta(2.0, 1e-12)
        z3 = zeta(3.0, 1e-12)
        expected = 2.0 * z2.value - 0.5 * z2.value * z3.value
        assert abs(rep.value - expected) <= rep.abs_error_bound + 1e-11
        # the empty monomial is the exact constant 1
        const = _zp({(): (7, 3), (2,): 1}).evaluate(1e-10)
        assert abs(const.value - (7.0 / 3.0 + z2.value)) <= const.abs_error_bound + 1e-11
        assert _zp({(): 3}).evaluate(1e-10).value == 3.0

    def test_json_round_trip(self):
        p = _zp({(5,): (-11, 2), (2, 3): 3})
        data = json.loads(p.to_json())
        assert data == {
            "terms": [
                {"coeff": "3", "monomial": [2, 3]},
                {"coeff": "-11/2", "monomial": [5]},
            ]
        }
        assert ZetaPolynomial.from_json_dict(data) == p

    def test_str(self):
        assert str(_zp({(2, 3): 3, (5,): (-11, 2)})) == "3*zeta(2)*zeta(3) - 11/2*zeta(5)"
        assert str(_zp({(): 3, (2,): 1})) == "3 + zeta(2)"
        assert str(_zp({(): (-1, 2), (3,): -1})) == "-1/2 - zeta(3)"

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


class TestReduceN1:
    def test_n2(self):
        assert reduce_n1(2) == ZetaPolynomial.single(3)

    def test_n3(self):
        # (3/2) zeta(4) - (1/2) zeta(2)^2 by direct substitution
        assert reduce_n1(3) == _zp({(4,): (3, 2), (2, 2): (-1, 2)})

    def test_n4(self):
        # 2 zeta(5) - zeta(2) zeta(3); the j=2 and j=3 terms merge
        assert reduce_n1(4) == _zp({(5,): 2, (2, 3): -1})

    def test_domain(self):
        with pytest.raises(DomainError):
            reduce_n1(1)
        with pytest.raises(DomainError):
            reduce_n1(2.5)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_numeric_faithfulness(self, n):
        poly = reduce_n1(n)
        rep = poly.evaluate(1e-9)
        direct = mzv((float(n), 1.0), 1e-9)
        assert abs(rep.value - direct.value) <= rep.abs_error_bound + direct.abs_error_bound

    @pytest.mark.parametrize("n", range(2, 8))
    def test_homogeneous(self, n):
        assert reduce_n1(n).weight() == n + 1


class TestReduceDoubleOdd:
    def test_32(self):
        assert reduce_double_odd(3, 2) == _zp({(2, 3): 3, (5,): (-11, 2)})

    def test_23(self):
        # hand substitution: (9/2) zeta(5) - 2 zeta(2) zeta(3)
        assert reduce_double_odd(2, 3) == _zp({(5,): (9, 2), (2, 3): -2})

    def test_product_consistency_triangle(self):
        # both orders plus the combined single value recover the product
        for m, n in [(2, 3), (3, 4), (2, 5), (3, 2)]:
            lhs = (
                reduce_double_odd(m, n)
                + reduce_double_odd(n, m)
                + ZetaPolynomial.single(m + n)
            )
            assert lhs == ZetaPolynomial.monomial((m, n)), (m, n)

    def test_binomial_vanishing_keeps_arguments_valid(self):
        # every stored monomial argument is >= 2 thanks to nil binomials
        for m, n in [(5, 2), (2, 5), (4, 3), (6, 3)]:
            poly = reduce_double_odd(m, n)
            assert all(a >= 2 for mono in poly.terms for a in mono)

    @pytest.mark.parametrize("m,n", [(3, 2), (2, 3), (4, 3), (3, 4), (5, 2), (2, 5)])
    def test_numeric_faithfulness(self, m, n):
        poly = reduce_double_odd(m, n)
        rep = poly.evaluate(1e-9)
        direct = mzv((float(m), float(n)), 1e-9)
        assert abs(rep.value - direct.value) <= rep.abs_error_bound + direct.abs_error_bound

    @pytest.mark.parametrize("m,n", [(3, 2), (2, 5), (4, 3)])
    def test_homogeneous(self, m, n):
        assert reduce_double_odd(m, n).weight() == m + n

    def test_domain(self):
        with pytest.raises(DomainError):
            reduce_double_odd(2, 2)  # even weight
        with pytest.raises(DomainError):
            reduce_double_odd(1, 4)  # divergent left side
        with pytest.raises(DomainError):
            reduce_double_odd(4, 1)  # n = 1 belongs to reduce_n1


def _reduce_n1_by_subtraction(n):
    poly = ZetaPolynomial.single(n + 1, Fraction(n, 2))
    for j in range(2, n):
        poly = poly - ZetaPolynomial.monomial((j, n + 1 - j), Fraction(1, 2))
    return poly


def _reduce_double_odd_by_subtraction(m, n):
    w = m + n
    sign = -1 if m % 2 else 1
    poly = ZetaPolynomial.single(w, Fraction(sign * math.comb(w, n) - 1, 2))
    if sign == 1:
        poly = poly + ZetaPolynomial.monomial((m, n))
    for j in range(1, (w - 1) // 2 + 1):
        c = sum(math.comb(2 * j - 2, k) for k in (m - 1, n - 1) if k <= 2 * j - 2)
        if c:
            poly = poly - ZetaPolynomial.monomial((2 * j - 1, w - 2 * j + 1), sign * c)
    return poly


class TestOnePassBuild:
    """The reductions build one dict; the reference adds one monomial at a time."""

    def test_reduce_n1(self):
        for n in range(2, 31):
            assert reduce_n1(n) == _reduce_n1_by_subtraction(n), n

    def test_reduce_double_odd(self):
        for m in range(2, 31):
            for n in range(2, 31):
                if (m + n) % 2:
                    assert reduce_double_odd(m, n) == _reduce_double_odd_by_subtraction(m, n)

    def test_large_weight_is_fast(self):
        start = time.perf_counter()
        poly = reduce_double_odd(2001, 2000)
        assert time.perf_counter() - start < 1.0
        assert poly.weight() == 4001


class TestSumTheorem:
    def test_weight3_depth2(self):
        indices, rhs = sum_theorem_identity(3, 2)
        assert [idx.args for idx in indices] == [(2, 1)]
        assert rhs == ZetaPolynomial.single(3)

    def test_weight4_depth2(self):
        indices, _ = sum_theorem_identity(4, 2)
        assert sorted(idx.args for idx in indices) == [(2, 2), (3, 1)]

    def test_weight4_depth3(self):
        indices, rhs = sum_theorem_identity(4, 3)
        assert [idx.args for idx in indices] == [(2, 1, 1)]
        assert rhs == ZetaPolynomial.single(4)

    def test_counts(self):
        # depth-2 indices of weight n: first entry 2..n-1
        for n in range(3, 9):
            indices, _ = sum_theorem_identity(n, 2)
            assert len(indices) == n - 2

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 11) for k in range(2, n)])
    def test_matches_filtered_product(self, n, k):
        indices, _ = sum_theorem_identity(n, k)
        assert [idx.args for idx in indices] == _filtered_product(n, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_theorem_identity(3, 3)
        with pytest.raises(DomainError):
            sum_theorem_identity(11, 2)
        with pytest.raises(DomainError):
            sum_theorem_identity(4, 1)


class TestAdmissibleIntegerIndices:
    def test_matches_filtered_product(self):
        # by weight, then lexicographically within one weight
        expected = [
            t
            for w in range(2, 9)
            for t in sorted(t for d in range(1, w) for t in _filtered_product(w, d))
        ]
        assert [idx.args for idx in admissible_integer_indices(8)] == expected


class TestBinomRelation:
    """zeta(p + q) = sum over lead in (p, q) and lead < i < p + q of
    C(i - 1, lead - 1) * zeta(i, p + q - i), written out against mzv."""

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
    def test_numeric_identity(self, p, q):
        n = p + q
        entries = [
            (math.comb(i - 1, lead - 1), (float(i), float(n - i)))
            for lead in (p, q)
            for i in range(lead + 1, n)
        ]
        reports = [mzv(args, 1e-9) for _, args in entries]
        total = sum(c * r.value for (c, _), r in zip(entries, reports))
        z = ZetaPolynomial.single(n).evaluate(1e-10)
        tol = sum(c * r.abs_error_bound for (c, _), r in zip(entries, reports))
        assert abs(total - z.value) <= tol + z.abs_error_bound + 1e-12


class TestProductRelation:
    """The stuffle identity zeta(n) zeta(m) = zeta(n, m) + zeta(m, n) + zeta(n + m)."""

    @pytest.mark.parametrize("n,m", [(2, 3), (4, 3), (2, 2), (3, 3)])
    def test_numeric_identity(self, n, m):
        doubles = [(2, (n, n))] if n == m else [(1, (n, m)), (1, (m, n))]
        lhs = ZetaPolynomial.monomial((n, m)).evaluate(1e-10)
        parts = [mzv(tuple(float(a) for a in args), 1e-9) for _, args in doubles]
        single = zeta(float(n + m), 1e-11)
        rhs = sum(c * r.value for (c, _), r in zip(doubles, parts)) + single.value
        tol = (
            lhs.abs_error_bound
            + sum(c * r.abs_error_bound for (c, _), r in zip(doubles, parts))
            + single.abs_error_bound
        )
        assert abs(lhs.value - rhs) <= tol + 1e-12


class TestDuality:
    def test_depth3_collapse(self):
        assert duality((2, 1, 2)).args == (2, 3)

    def test_weight2_fixed_point(self):
        assert duality((2,)).args == (2,)

    def test_weight3(self):
        assert duality((3,)).args == (2, 1)
        assert duality((2, 1)).args == (3,)

    def test_inadmissible(self):
        with pytest.raises(DomainError):
            duality((1, 2))
        with pytest.raises(DomainError):
            duality((2, 0))

    @pytest.mark.parametrize("idx", admissible_integer_indices(8), ids=str)
    def test_involution_and_weight(self, idx):
        dual = duality(idx)
        assert sum(dual.args) == sum(idx.args)
        assert duality(dual).args == idx.args

    @given(st.sampled_from(admissible_integer_indices(8)))
    @settings(max_examples=80, deadline=None)
    def test_dual_is_admissible(self, idx):
        dual = duality(idx)
        assert dual.args[0] >= 2
        assert all(a >= 1 for a in dual.args)

    def test_integer_index_validation(self):
        with pytest.raises(DomainError):
            IntegerIndex((1, 1))
        idx = IntegerIndex((4, 2))
        assert idx.weight == 6 and idx.depth == 2
