"""Per-op correctness checks against independent references.

A completed op passes when every numeric value it reports covers the mpmath
reference (|value - ref| <= its own bound), the two routes of a cross-check
agree within the sum of their bounds, and every exact output matches what
the benchmark derives on its own.  Nothing here calls zetatails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from mpmath import mpf

import bench_ref

#: Exact reductions must match the reference depth-two value this closely.
REDUCE_TOL = mpf("1e-20")


@dataclass
class Check:
    """Verdict on one completed op, with the primary value's error and bound."""

    problems: list[str] = field(default_factory=list)
    err: float | None = None
    bound: float | None = None

    @property
    def passed(self) -> bool:
        return not self.problems


def _covers(check: Check, label: str, value: float, bound: float, ref) -> float:
    err = abs(mpf(value) - ref)
    if not err <= mpf(bound):
        check.problems.append(f"{label}: |value - ref| = {float(err):.3e} > bound {bound:.3e}")
    return float(err)


def _agree(check: Check, label: str, a, b) -> None:
    """Two (value, bound) routes must overlap."""
    gap = abs(mpf(a[0]) - mpf(b[0]))
    if not gap <= mpf(a[1]) + mpf(b[1]):
        check.problems.append(f"{label}: routes differ by {float(gap):.3e} > {a[1] + b[1]:.3e}")


def _canonical_json(check: Check, text: str):
    payload = json.loads(text)
    if json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" != text:
        check.problems.append("JSON is not byte-identical after a parse/re-serialize round trip")
    return payload


def _primary(check: Check, label: str, report_pair, ref) -> None:
    value, bound = report_pair
    check.err = _covers(check, label, value, bound, ref)
    check.bound = bound


@lru_cache(maxsize=None)
def fubini(k: int) -> int:
    """Ordered Bell number by a(k) = sum_{j=1..k} C(k, j) a(k - j), a(0) = 1."""
    if k == 0:
        return 1
    total, binom = 0, 1
    for j in range(1, k + 1):
        binom = binom * (k - j + 1) // j
        total += binom * fubini(k - j)
    return total


def dual_index(args: tuple[int, ...]) -> tuple[int, ...]:
    """Duality on admissible integer indices via their 0/1 words.

    The index (a1, .., ad) is the word x0^(a1-1) x1 ... x0^(ad-1) x1; its dual
    reverses the word and swaps x0 with x1.
    """
    word = []
    for a in args:
        word += [0] * (a - 1) + [1]
    dual_word = [1 - letter for letter in reversed(word)]
    out, run = [], 0
    for letter in dual_word:
        run += 1
        if letter == 1:
            out.append(run)
            run = 0
    return tuple(out)


def _check_tail_sum(check: Check, params, text: str) -> None:
    data = _canonical_json(check, text)
    if data["exponents"] != list(params):
        check.problems.append(f"echoed exponents {data['exponents']} != {list(params)}")
    ref = bench_ref.tail_sum(params)
    formula = (data["value"], data["abs_error_bound"])
    brute = (data["brute_value"], data["brute_abs_error_bound"])
    _primary(check, "formula route", formula, ref)
    _covers(check, "brute route", *brute, ref)
    _agree(check, "formula vs brute", formula, brute)


def _check_depth_two(check: Check, params, text: str, integral) -> None:
    data = _canonical_json(check, text)
    ref = bench_ref.depth_two(*params)
    by_integral = (integral.value, integral.abs_error_bound)
    by_series = (data["value"], data["abs_error_bound"])
    _primary(check, "mzv_integral", by_integral, ref)
    _covers(check, "mzv", *by_series, ref)
    _agree(check, "integral vs series", by_integral, by_series)


def _check_proposition(check: Check, exponents, reports) -> None:
    lhs, rhs = ((r.value, r.abs_error_bound) for r in reports)
    ref = bench_ref.tail_sum(exponents)
    _primary(check, "right side", rhs, ref)
    _covers(check, "left side", *lhs, ref)
    _agree(check, "left vs right", lhs, rhs)


def _check_formula(check: Check, k: int, text: str) -> None:
    data = _canonical_json(check, text)
    terms = data["terms"]
    if data["k"] != k or data["product_coeff"] != "-1":
        check.problems.append(f"header k={data['k']} product_coeff={data['product_coeff']}")
    if len(terms) != fubini(k):
        check.problems.append(f"{len(terms)} terms, expected Fubini({k}) = {fubini(k)}")
    positions = list(range(1, k + 1))
    seen = set()
    for term in terms:
        blocks = tuple(tuple(b) for b in term["blocks"])
        if term["coeff"] != "1" or term["offset_last"] is not True:
            check.problems.append(f"term {blocks}: coeff {term['coeff']}, offset {term['offset_last']}")
        if any(not b for b in blocks) or sorted(i for b in blocks for i in b) != positions:
            check.problems.append(f"term {blocks} is not an ordered set partition of 1..{k}")
        key = tuple(frozenset(b) for b in blocks)
        if key in seen:
            check.problems.append(f"term {blocks} repeats")
        seen.add(key)


def _check_dual(check: Check, args, text: str) -> None:
    data = _canonical_json(check, text)
    dual = tuple(data["dual"])
    if data["args"] != list(args):
        check.problems.append(f"echoed args {data['args']} != {list(args)}")
    if dual != dual_index(args):
        check.problems.append(f"dual {dual} != expected {dual_index(args)}")
    if sum(dual) != sum(args) or dual_index(dual) != tuple(args) or dual[0] < 2:
        check.problems.append(f"dual {dual} of {args} breaks weight, involution or admissibility")


def _check_reduce(check: Check, args, text: str) -> None:
    data = _canonical_json(check, text)
    terms = [(Fraction(t["coeff"]), tuple(t["monomial"])) for t in data["terms"]]
    gap = abs(bench_ref.zeta_polynomial(terms) - bench_ref.depth_two(*map(float, args)))
    if not gap <= REDUCE_TOL:
        check.problems.append(f"reduction of zeta{tuple(args)} is off by {float(gap):.3e}")


def check(op, outcome) -> Check:
    """Check a completed op; ``outcome`` comes from ``bench_ops.execute``."""
    kind, params = op
    result = Check()
    try:
        if kind.startswith("tail_sum."):
            _check_tail_sum(result, params, outcome.text)
        elif kind.startswith("depth2."):
            _check_depth_two(result, params, outcome.text, outcome.reports[0])
        elif kind == "kk1":
            _check_proposition(result, (params[0], params[0] + 1.0), outcome.reports)
        elif kind == "square":
            _check_proposition(result, (params[0], params[0]), outcome.reports)
        elif kind == "polylog":
            rep = outcome.reports[0]
            _primary(result, "polylog", (rep.value, rep.abs_error_bound), bench_ref.polylog(*params))
        elif kind.startswith("formula."):
            _check_formula(result, len(params), outcome.text)
        elif kind == "dual":
            _check_dual(result, params, outcome.text)
        elif kind.startswith("reduce."):
            _check_reduce(result, params, outcome.text)
        else:
            result.problems.append(f"no check for op kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:  # malformed output
        result.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return result
