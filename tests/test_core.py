import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetatails import (
    BoundError,
    Composition,
    DomainError,
    ExponentList,
    MzvIndex,
    compositions,
    converges,
    multinomial,
    weak_ordering_count,
)


class TestConverges:
    def test_basic_true(self):
        assert converges((2.0, 1.0))

    def test_boundary_false(self):
        assert not converges((1.0,))

    def test_real_entries(self):
        # 1.5 > 1 and 3.1 > 2
        assert converges((1.5, 1.6))

    @pytest.mark.parametrize(
        "index,expected",
        [
            ((2.0,), True),
            ((1.0, 5.0), False),  # first prefix fails regardless of later entries
            ((2.0, 0.0), False),  # second prefix equals 2 exactly, strict fails
            ((2.0, 0.6), True),
            ((3.0, -0.5, 0.6), True),  # prefixes 3, 2.5, 3.1
            ((3.0, -1.0, 1.0), False),  # second prefix equals 2
        ],
    )
    def test_prefix_criterion(self, index, expected):
        assert converges(index) is expected

    def test_accepts_mzv_index(self):
        assert converges(MzvIndex((2.0, 1.0)))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            converges(())

    @given(
        st.lists(st.floats(min_value=1.01, max_value=5.0), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_each_entry(self, entries, data):
        index = tuple(entries)
        if not converges(index):
            return
        pos = data.draw(st.integers(min_value=0, max_value=len(index) - 1))
        bump = data.draw(st.floats(min_value=0.0, max_value=3.0))
        bigger = index[:pos] + (index[pos] + bump,) + index[pos + 1 :]
        assert converges(bigger)


class TestCompositions:
    def test_k1(self):
        assert [c.parts for c in compositions(1)] == [(1,)]

    def test_k3_exhaustive(self):
        assert [c.parts for c in compositions(3)] == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_k4_exhaustive(self):
        # enumerated by hand, lexicographic by parts
        assert [c.parts for c in compositions(4)] == [
            (1, 1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (1, 3),
            (2, 1, 1),
            (2, 2),
            (3, 1),
            (4,),
        ]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_count_and_distinct(self, k):
        comps = compositions(k)
        assert len(comps) == 2 ** (k - 1)
        assert len({c.parts for c in comps}) == len(comps)
        assert all(c.total == k for c in comps)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_lexicographic_order(self, k):
        parts = [c.parts for c in compositions(k)]
        assert parts == sorted(parts)

    @pytest.mark.parametrize("k", [0, -1, 9, 100])
    def test_out_of_range(self, k):
        with pytest.raises(BoundError):
            compositions(k)

    def test_non_integer(self):
        with pytest.raises(BoundError):
            compositions(2.5)


def _fubini_by_recurrence(n: int) -> int:
    # a(n) = sum_{i=1}^{n} C(n, i) a(n-i), a(0) = 1
    acc = [1]
    for m in range(1, n + 1):
        acc.append(sum(math.comb(m, i) * acc[m - i] for i in range(1, m + 1)))
    return acc[n]


class TestWeakOrderingCount:
    def test_known_values(self):
        assert weak_ordering_count(1) == 1
        assert weak_ordering_count(3) == 13
        # sum of 4!/(j1!...jp!) over the 8 compositions of 4:
        # 24 + 12 + 12 + 4 + 12 + 6 + 4 + 1 = 75
        assert weak_ordering_count(4) == 75

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_recurrence(self, k):
        assert weak_ordering_count(k) == _fubini_by_recurrence(k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_multinomial_identity(self, k):
        total = sum(multinomial(k, c.parts) for c in compositions(k))
        assert total == weak_ordering_count(k)

    def test_out_of_range(self):
        with pytest.raises(BoundError):
            weak_ordering_count(9)


class TestDomainTypes:
    def test_exponent_list(self):
        e = ExponentList((2.0, 3.0))
        assert e.k == 2
        assert list(e) == [2.0, 3.0]

    def test_exponent_list_rejects_empty(self):
        with pytest.raises(DomainError):
            ExponentList(())

    def test_exponent_list_rejects_nan(self):
        with pytest.raises(DomainError):
            ExponentList((2.0, float("nan")))

    def test_composition_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Composition((1, 0))

    def test_composition_total(self):
        assert Composition((2, 1, 3)).total == 6

    def test_mzv_index(self):
        idx = MzvIndex((2.0, 1.0))
        assert idx.depth == 2
        assert idx.weight == 3.0

    def test_mzv_index_rejects_inf(self):
        with pytest.raises(DomainError):
            MzvIndex((float("inf"),))

    def test_multinomial_mismatched_parts(self):
        with pytest.raises(DomainError):
            multinomial(4, (1, 2))
