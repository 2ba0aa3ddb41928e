import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from zetatails import core, numerics, symbolic, tails
from zetatails import (
    BlockTerm,
    BoundError,
    DomainError,
    PrecisionError,
    ZetaPolynomial,
    brute_tail_product_sum,
    converges,
    evaluate_formula,
    integer_square_closed_form,
    mzv,
    proposition_kk1,
    proposition_square,
    TailFormula,
    repeated_tail_formula,
    tail_product_formula,
    tail_product_sum,
    weak_ordering_count,
    zeta,
)

F = Fraction

#: sha256 of ``repeated_tail_formula(2.0, k).to_json()``, keyed by k
REPEATED_DIGESTS = {
    2: "dfc3d16e1df2e3d67106881a84dee60b7fa3be8ec353de5810a2a40279966984",
    3: "148c583d8e60046e3f95d0937b594d36b785551ee5f3125d7fb742a5740c92a1",
    4: "e446fdd1256a787731800209a5d099fb7276bd6d32d4854fae917f92243a941e",
    5: "b21dd68a74947ffd26372d1c0b79bc019f29c7e635a65e9914b4faf4b008fd10",
    6: "9d6b096ddcda33c30f4d1f7dc9b0eaa4b2a660568c37e304dbefba781f36a07a",
}


def _in_canonical_order(formula):
    """Terms sorted by their block sizes (the composition), then by blocks."""
    keys = [(tuple(len(b) for b in t.blocks), t.blocks) for t in formula.zeta_terms]
    return keys == sorted(keys)


class TestBlockTerm:
    def test_arguments_with_offset(self):
        term = BlockTerm(blocks=((1,), (2, 3)), coeff=F(1))
        assert term.arguments((2.0, 3.0, 4.0)) == (2.0, 6.0)

    def test_blocks_must_partition(self):
        with pytest.raises(DomainError):
            BlockTerm(blocks=((1,), (3,)), coeff=F(1))
        with pytest.raises(DomainError):
            BlockTerm(blocks=((1,), (1, 2)), coeff=F(1))

    def test_zero_coeff_rejected(self):
        with pytest.raises(DomainError):
            BlockTerm(blocks=((1,),), coeff=F(0))

    def test_render(self):
        term = BlockTerm(blocks=((2,), (1, 3)), coeff=F(1))
        assert term.render(("p", "q", "r")) == "zeta(q, p+r-1)"

    def test_fields_are_only_what_varies(self):
        # the last-block offset and the product's -1 are fixed by the identity
        assert [f.name for f in dataclasses.fields(BlockTerm)] == ["blocks", "coeff"]
        assert [f.name for f in dataclasses.fields(TailFormula)] == ["k", "zeta_terms"]


class TestTailProductFormula:
    def test_pair_structure(self):
        f = tail_product_formula((2.0, 3.0))
        assert f.k == 2
        assert len(f.zeta_terms) == 3
        assert all(t.coeff == 1 for t in f.zeta_terms)
        assert {t.blocks for t in f.zeta_terms} == {
            ((1,), (2,)),
            ((2,), (1,)),
            ((1, 2),),
        }

    def test_triple_structure(self):
        f = tail_product_formula((2.0, 3.0, 4.0))
        assert len(f.zeta_terms) == 13
        assert all(t.coeff == 1 for t in f.zeta_terms)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_merged_count_is_weak_ordering_count(self, k):
        exps = tuple(2.5 + 0.5 * i for i in range(k))
        f = tail_product_formula(exps)
        assert len(f.zeta_terms) == weak_ordering_count(k)

    def test_premerge_pair_count(self):
        # k! * 2^(k-1) (permutation, composition) pairs feed the merge
        k = 4
        assert math.factorial(k) * 2 ** (k - 1) == 192
        # and the merged coefficients for distinct exponents are all 1
        f = tail_product_formula((2.0, 2.5, 3.0, 3.5))
        assert all(t.coeff == 1 for t in f.zeta_terms)

    def test_k1_degenerate(self):
        f = tail_product_formula((3.0,))
        assert len(f.zeta_terms) == 1
        ev = evaluate_formula(f, (3.0,), 1e-9)
        z2 = zeta(2.0, 1e-12)
        z3 = zeta(3.0, 1e-12)
        assert abs(ev.value - (z2.value - z3.value)) <= ev.abs_error_bound + 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_product_formula((0.9, 3.0))
        with pytest.raises(DomainError):
            tail_product_formula((1.5, 1.5))  # sum not above k + 1
        with pytest.raises(BoundError):
            tail_product_formula(tuple(2.0 for _ in range(9)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_against_permutation_composition_enumeration(self, k):
        # oracle: sum over all (permutation, composition) pairs with weight
        # 1 / (product of part factorials), merged by sorted block lists
        from zetatails import compositions

        exps = tuple(2.5 + 0.5 * i for i in range(k))
        merged = {}
        for perm in itertools.permutations(range(1, k + 1)):
            for comp in compositions(k):
                blocks = []
                start = 0
                for part in comp.parts:
                    blocks.append(tuple(sorted(perm[start : start + part])))
                    start += part
                key = tuple(blocks)
                weight = F(1, math.prod(math.factorial(j) for j in comp.parts))
                merged[key] = merged.get(key, F(0)) + weight
        expected = {k_: c for k_, c in merged.items() if c != 0}
        f = tail_product_formula(exps)
        got = {t.blocks: t.coeff for t in f.zeta_terms}
        assert got == expected

    def test_permutation_invariance(self):
        exps = (2.5, 1.7, 1.9)
        base = tail_product_formula(exps).merged_by_value(exps)
        for perm in itertools.permutations(exps):
            other = tail_product_formula(perm).merged_by_value(perm)
            assert other == base

    def test_instantiated_indices_converge(self):
        rng = random.Random(5)
        for _ in range(20):
            k = rng.choice((2, 3, 4))
            while True:
                exps = tuple(rng.uniform(1.2, 4.0) for _ in range(k))
                if sum(exps) > k + 1.01:
                    break
            f = tail_product_formula(exps)
            for coeff, args in f.instantiate(exps):
                assert converges(args), (exps, args)

    def test_equal_values_do_not_merge_positions(self):
        # merging is by block structure only; value coincidences collapse
        # only under merged_by_value, so the formula stays reusable
        f = tail_product_formula((2.0, 2.0))
        assert len(f.zeta_terms) == 3
        assert f.merged_by_value((2.0, 2.0)) == {(2.0, 1.0): F(2), (3.0,): F(1)}

    def test_render_symbols(self):
        f = tail_product_formula((2.0, 3.0))
        text = f.render(("p", "q"))
        assert "zeta(p, q-1)" in text
        assert "zeta(p+q-1)" in text
        assert text.endswith("- zeta(p)*zeta(q)")

    def test_json_schema(self):
        f = tail_product_formula((2.0, 3.0))
        data = json.loads(f.to_json())
        assert set(data) == {"k", "terms", "product_coeff"}
        assert data["k"] == 2
        assert data["product_coeff"] == "-1"
        assert {json.dumps(t["blocks"]) for t in data["terms"]} == {
            "[[1], [2]]",
            "[[2], [1]]",
            "[[1, 2]]",
        }
        assert all(t["offset_last"] is True for t in data["terms"])

    @pytest.mark.parametrize("k", range(1, 8))
    def test_terms_come_out_in_canonical_order(self, k):
        assert _in_canonical_order(tail_product_formula((2.5,) * k))


class TestRepeatedTailFormula:
    def test_r2_k2(self):
        f = repeated_tail_formula(2.0, 2)
        merged = f.merged_by_value((2.0, 2.0))
        assert merged == {(2.0, 1.0): F(2), (3.0,): F(1)}

    def test_r2_k3(self):
        f = repeated_tail_formula(2.0, 3)
        merged = f.merged_by_value((2.0,) * 3)
        assert merged == {
            (2.0, 2.0, 1.0): F(6),
            (4.0, 1.0): F(3),
            (2.0, 3.0): F(3),
            (5.0,): F(1),
        }

    def test_r2_k4_coefficients(self):
        f = repeated_tail_formula(2.0, 4)
        coeffs = sorted(int(t.coeff) for t in f.zeta_terms)
        assert coeffs == [1, 4, 4, 6, 12, 12, 12, 24]

    @pytest.mark.parametrize("k", range(2, 9))
    def test_terms_come_out_in_canonical_order(self, k):
        assert _in_canonical_order(repeated_tail_formula(2.0, k))

    @pytest.mark.parametrize("k", sorted(REPEATED_DIGESTS))
    def test_json_is_pinned(self, k):
        text = repeated_tail_formula(2.0, k).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == REPEATED_DIGESTS[k]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_specialisation_consistency(self, k):
        r = 2.0
        rep = repeated_tail_formula(r, k).merged_by_value((r,) * k)
        gen = tail_product_formula((r,) * k).merged_by_value((r,) * k)
        assert rep == gen

    def test_domain(self):
        with pytest.raises(DomainError):
            repeated_tail_formula(1.4, 2)  # needs r > 1 + 1/k
        with pytest.raises(DomainError):
            repeated_tail_formula(2.0, 1)
        with pytest.raises(BoundError):
            repeated_tail_formula(2.0, 9)


class TestEvaluateFormula:
    def test_pair_22_closed_form(self):
        f = tail_product_formula((2.0, 2.0))
        ev = evaluate_formula(f, (2.0, 2.0))
        z3 = zeta(3.0, 1e-12)
        z4 = zeta(4.0, 1e-12)
        expected = 3.0 * z3.value - 2.5 * z4.value
        assert abs(ev.value - expected) <= ev.abs_error_bound + 1e-10

    def test_pair_32_closed_form(self):
        f = tail_product_formula((3.0, 2.0))
        ev = evaluate_formula(f, (3.0, 2.0))
        z2 = zeta(2.0, 1e-12)
        z3 = zeta(3.0, 1e-12)
        z4 = zeta(4.0, 1e-12)
        expected = 2.0 * z4.value - z2.value * z3.value
        assert abs(ev.value - expected) <= ev.abs_error_bound + 1e-10

    def test_final_bound_over_target_raises(self):
        # every factor is served, but the summed radius, about 1.2e-12, is not
        exps = (1.5, 2.5, 3.5, 1.7)
        with pytest.raises(PrecisionError, match="achieved bound"):
            evaluate_formula(tail_product_formula(exps), exps, 1e-12)

    def test_triple_real_vs_brute(self):
        exps = (2.5, 1.7, 1.9)
        ev = evaluate_formula(tail_product_formula(exps), exps)
        br = brute_tail_product_sum(exps)
        assert abs(ev.value - br.value) <= ev.abs_error_bound + br.abs_error_bound

    def test_repeated_formula_evaluates(self):
        exps = (2.0, 2.0, 2.0)
        ev = evaluate_formula(repeated_tail_formula(2.0, 3), exps)
        br = brute_tail_product_sum(exps)
        assert abs(ev.value - br.value) <= ev.abs_error_bound + br.abs_error_bound

    def test_fivefold_depth_limit_case(self):
        # arity 5 instantiates a depth-5 index, the deepest the evaluator takes
        exps = (2.0,) * 5
        ev = evaluate_formula(repeated_tail_formula(2.0, 5), exps, 1e-6)
        br = brute_tail_product_sum(exps, 1e-7)
        assert abs(ev.value - br.value) <= ev.abs_error_bound + br.abs_error_bound

    def test_leaves_no_reference_cycles(self):
        # a cycle would hold every grid level of the walk until a collection
        exps = (1.4, 2.2, 2.9, 3.3, 1.9)
        formula = tail_product_formula(exps)
        gc.collect()
        gc.disable()
        try:
            evaluate_formula(formula, exps)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_module_cache_grows_with_exponent_lists(self):
        def cache_sizes():
            sizes = {}
            for module in (core, numerics, symbolic, tails):
                for name, obj in vars(module).items():
                    if hasattr(obj, "cache_info"):
                        sizes[module.__name__, name] = obj.cache_info().currsize
                    elif isinstance(obj, (dict, list, set)) and not name.startswith("__"):
                        sizes[module.__name__, name] = len(obj)
            return sizes

        rng = random.Random(17)
        lists = [tuple(rng.uniform(2.0, 4.0) for _ in range(4)) for _ in range(6)]
        evaluate_formula(tail_product_formula(lists[0]), lists[0])
        before = cache_sizes()
        for exps in lists[1:]:
            evaluate_formula(tail_product_formula(exps), exps)
        after = cache_sizes()
        # zeta values are cached per (argument, target), one per exponent
        key = ("zetatails.numerics", "_zeta_cached")
        assert after.pop(key) - before.pop(key) <= 4 * (len(lists) - 1)
        assert after == before

    def test_arity_mismatch(self):
        f = tail_product_formula((2.0, 2.0))
        with pytest.raises(DomainError):
            evaluate_formula(f, (2.0, 2.0, 2.0))

    def test_nonconvergent_instantiation(self):
        f = tail_product_formula((3.0, 3.0))
        with pytest.raises(DomainError):
            evaluate_formula(f, (1.5, 1.5))


def _outcome(route):
    """(value, bound, terms_used) of a served call, or the class and message
    of its refusal."""
    try:
        rep = route()
    except (DomainError, PrecisionError) as exc:
        return type(exc), str(exc)
    return rep.value, rep.abs_error_bound, rep.terms_used


def _random_exponents(rng, k):
    while True:
        exps = tuple(rng.uniform(1.25, 4.0) for _ in range(k))
        if sum(exps) > k + 1.5:
            return exps


class TestTailProductSum:
    """``tail_product_sum`` is ``evaluate_formula`` on the full formula, bit
    for bit, without listing the formula's terms."""

    @staticmethod
    def _both(exps, eps):
        return (
            _outcome(lambda: evaluate_formula(tail_product_formula(exps), exps, eps)),
            _outcome(lambda: tail_product_sum(exps, eps)),
        )

    def test_matches_the_formula_route(self):
        rng = random.Random(80)
        lists = [_random_exponents(rng, 1 + j % 5) for j in range(40)]
        # repeated exponents, and block sums that coincide: 1.5 + 2.5 == 4.0
        lists += [(2.0,) * 5, (2.5, 2.5, 3.0, 3.0), (1.5, 2.5, 4.0, 3.0)]
        for j, exps in enumerate(lists):
            eps = (None, 1e-9, 1e-7)[j % 3]
            listed, direct = self._both(exps, eps)
            assert isinstance(listed[0], float), (exps, listed)
            assert direct == listed, exps

    @pytest.mark.parametrize(
        "exps,eps",
        [
            ((2.0,) * 9, None),
            ((0.9, 3.0, 3.0), None),
            ((1.25, 1.25, 1.5), None),  # the sum is exactly k + 1
            ((1.0000001, 3.0, 3.0), None),  # within the margin of 1
            ((1.5, 2.5, 3.5, 1.7), 1e-12),  # the summed radius misses the target
            ((2.1, 2.2, 2.3, 2.4, 2.5, 2.6), None),
        ],
    )
    def test_refuses_as_the_formula_route(self, exps, eps):
        listed, direct = self._both(exps, eps)
        assert issubclass(listed[0], Exception), listed
        assert direct == listed

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_merged_indices_match_merged_by_value(self, k):
        rng = random.Random(90 + k)
        lists = [_random_exponents(rng, k) for _ in range(3)]
        if k == 6:
            lists.append((2.0, 2.1, 2.2, 2.3, 2.4, 2.5))
        for exps in lists:
            merged = tails._merged_indices(exps)
            assert merged == tail_product_formula(exps).merged_by_value(exps)
            assert all(type(c) is int for c in merged.values())
            assert sum(merged.values()) == weak_ordering_count(k)
        if k == 6:
            # float coincidences among the block sums merge 153 of 4683 terms
            assert len(merged) == 4530

    def test_builds_no_formula_terms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tail_product_sum listed the formula")

        monkeypatch.setattr(tails, "BlockTerm", refuse)
        monkeypatch.setattr(tails, "TailFormula", refuse)
        exps = (1.7, 2.3, 2.9, 3.4)
        assert tail_product_sum(exps).abs_error_bound <= numerics.DEFAULT_EPS_DEEP

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_past_max_depth_is_refused_at_once(self, k):
        # listing and merging the formula's 545835 terms to reach the
        # refusal took 26 s and 587 MB at k = 8
        src = os.path.dirname(os.path.dirname(tails.__file__))
        child = (
            "import time, sys\n"
            "from zetatails import cli\n"
            "start = time.perf_counter()\n"
            f"code = cli.main(['tail-sum', '--exponents', {','.join(str(2.1 + 0.1 * j) for j in range(k))!r}])\n"
            "elapsed = time.perf_counter() - start\n"
            "status = '/proc/self/status'\n"
            "hwm = [l for l in open(status) if l.startswith('VmHWM')] if sys.platform == 'linux' else []\n"
            "print(code, elapsed, hwm[0].split()[1] if hwm else 0)\n"
        )
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        code, elapsed, hwm_kb = proc.stdout.split()
        assert int(code) == 2
        assert f"depth {k} exceeds the supported maximum 5" in proc.stderr
        assert float(elapsed) < 2.0
        if sys.platform.startswith("linux"):
            assert int(hwm_kb) < 64 * 1024


class TestPropositions:
    def test_kk1_k2_closed_form(self):
        lhs, rhs = proposition_kk1(2.0)
        z2 = zeta(2.0, 1e-12)
        z3 = zeta(3.0, 1e-12)
        z4 = zeta(4.0, 1e-12)
        expected = 2.0 * z4.value - z2.value * z3.value
        assert abs(lhs.value - expected) <= lhs.abs_error_bound + 1e-10
        assert abs(rhs.value - expected) <= rhs.abs_error_bound + 1e-10

    def test_square_k2_closed_form(self):
        lhs, rhs = proposition_square(2.0)
        z3 = zeta(3.0, 1e-12)
        z4 = zeta(4.0, 1e-12)
        expected = 3.0 * z3.value - 2.5 * z4.value
        assert abs(lhs.value - expected) <= lhs.abs_error_bound + 1e-10
        assert abs(rhs.value - expected) <= rhs.abs_error_bound + 1e-10

    def test_square_k3_closed_form(self):
        # -10 zeta(5) + 6 zeta(3) zeta(2) - zeta(3)^2
        lhs, rhs = proposition_square(3.0)
        poly = ZetaPolynomial({(5,): F(-10), (2, 3): F(6), (3, 3): F(-1)})
        closed = poly.evaluate(1e-10)
        assert abs(lhs.value - closed.value) <= lhs.abs_error_bound + closed.abs_error_bound
        assert abs(rhs.value - closed.value) <= rhs.abs_error_bound + closed.abs_error_bound

    @pytest.mark.parametrize("k", [2.0, 2.5, 3.0, 1.8])
    def test_square_sides_agree(self, k):
        lhs, rhs = proposition_square(k)
        assert abs(lhs.value - rhs.value) <= lhs.abs_error_bound + rhs.abs_error_bound

    @pytest.mark.parametrize("k", [2.0, 2.5, 3.0])
    def test_kk1_sides_agree(self, k):
        lhs, rhs = proposition_kk1(k)
        assert abs(lhs.value - rhs.value) <= lhs.abs_error_bound + rhs.abs_error_bound

    def test_domain(self):
        with pytest.raises(DomainError):
            proposition_kk1(1.0)
        with pytest.raises(DomainError):
            proposition_square(1.5)


def _pp3_direct(p: int) -> ZetaPolynomial:
    """Binomial-form polynomial for the squared-tail sum, built independently."""
    sign = (-1) ** p
    poly = ZetaPolynomial.single(2 * p - 1, sign * math.comb(2 * p - 1, p))
    if sign == 1:
        poly = poly + ZetaPolynomial.monomial((p, p - 1), 2)
    for j in range(1, p):
        c = math.comb(2 * j - 1, p - 1)
        if c:
            poly = poly - ZetaPolynomial.monomial((2 * j - 1, 2 * p - 2 * j), 2 * sign * c)
    return poly - ZetaPolynomial.monomial((p, p))


class TestIntegerSquareClosedForm:
    def test_p3(self):
        expected = ZetaPolynomial({(5,): F(-10), (2, 3): F(6), (3, 3): F(-1)})
        assert integer_square_closed_form(3) == expected

    def test_p4_matches_brute(self):
        poly = integer_square_closed_form(4)
        rep = poly.evaluate(1e-10)
        br = brute_tail_product_sum((4.0, 4.0))
        assert abs(rep.value - br.value) <= rep.abs_error_bound + br.abs_error_bound

    @pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
    def test_matches_binomial_form(self, p):
        assert integer_square_closed_form(p) == _pp3_direct(p)

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_coefficient_sign_structure(self, p):
        # the top single value enters with (-1)^p * C(2p-1, p); the mixed
        # zeta(p) zeta(p-1) monomial cancels in normal form for even p
        # (its explicit appearance is eaten by the j = p/2 binomial term)
        # while for odd p the j = (p+1)/2 term leaves exactly 2p
        poly = integer_square_closed_form(p)
        assert poly.coefficient((2 * p - 1,)) == (-1) ** p * math.comb(2 * p - 1, p)
        expected_mixed = 0 if p % 2 == 0 else 2 * p
        assert poly.coefficient((p - 1, p)) == expected_mixed

    def test_unreachable_target_is_refused(self):
        # the clamped per-factor budget leaves a bound of about 1.55e-11
        with pytest.raises(PrecisionError):
            integer_square_closed_form(6).evaluate(1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            integer_square_closed_form(2)
        with pytest.raises(DomainError):
            integer_square_closed_form(3.5)
