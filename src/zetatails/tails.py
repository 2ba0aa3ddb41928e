"""Closed forms for sums of products of zeta tails, and their evaluation.

For exponents i1, ..., ik (each above 1, summing past k + 1) the sum over n
of the product of the k tails after n equals a combination of nested zeta
values minus the product of the single values.  The combination runs over
all pairs of a permutation and a composition of k: the composition groups
the permuted exponents into consecutive blocks, each block contributes the
sum of its exponents as one argument, the final argument is lowered by one,
and the pair carries coefficient 1 over the product of part factorials.
Merging pairs with identical block structure leaves one term per weak
ordering of the k indices.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import ExponentList, MAX_K, as_args, compositions, converges, multinomial
from .errors import BoundError, DomainError, PrecisionError
from . import numerics
from .numerics import EvalReport, MIN_GAP
from .symbolic import ZetaPolynomial, reduce_double_odd


@dataclass(frozen=True)
class BlockTerm:
    """One grouped term: ordered blocks of positions, with the last block's
    exponent sum lowered by one."""

    blocks: tuple[tuple[int, ...], ...]
    coeff: Fraction

    def __post_init__(self):
        if self.coeff == 0:
            raise DomainError("block term must have a nonzero coefficient")
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        if not blocks or any(not b for b in blocks):
            raise DomainError("blocks must be nonempty")
        seen = [i for b in blocks for i in b]
        if sorted(seen) != list(range(1, len(seen) + 1)):
            raise DomainError(f"blocks must partition 1..k, got {blocks}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    @property
    def k(self) -> int:
        return sum(len(b) for b in self.blocks)

    def arguments(self, exponents: Sequence[float]) -> tuple[float, ...]:
        """Instantiate the block sums at concrete exponent values."""
        args = [math.fsum(exponents[i - 1] for i in b) for b in self.blocks]
        args[-1] -= 1.0
        return tuple(args)

    def render(self, symbols: Sequence[str]) -> str:
        parts = ["+".join(symbols[i - 1] for i in block) for block in self.blocks]
        return f"zeta({', '.join(parts)}-1)"


@dataclass(frozen=True)
class TailFormula:
    """Combination of grouped terms minus the product of the single values."""

    k: int
    zeta_terms: tuple[BlockTerm, ...]

    def instantiate(self, exponents: Sequence[float]) -> list[tuple[Fraction, tuple[float, ...]]]:
        exps = as_args(exponents)
        if len(exps) != self.k:
            raise DomainError(f"formula has arity {self.k}, got {len(exps)} exponents")
        return [(t.coeff, t.arguments(exps)) for t in self.zeta_terms]

    def merged_by_value(self, exponents: Sequence[float]) -> dict[tuple[float, ...], Fraction]:
        """Coefficients keyed by instantiated argument tuple, merged."""
        merged: dict[tuple[float, ...], Fraction] = {}
        for coeff, args in self.instantiate(exponents):
            merged[args] = merged.get(args, Fraction(0)) + coeff
        return {a: c for a, c in merged.items() if c != 0}

    def render(self, symbols: Sequence[str]) -> str:
        if len(symbols) != self.k:
            raise DomainError(f"need {self.k} symbols, got {len(symbols)}")
        pieces = []
        for term in self.zeta_terms:
            body = term.render(symbols)
            pieces.append(body if term.coeff == 1 else f"{term.coeff}*{body}")
        product = "*".join(f"zeta({s})" for s in symbols)
        return f"{' + '.join(pieces)} - {product}"

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "terms": [
                {
                    "coeff": str(t.coeff),
                    "blocks": [list(b) for b in t.blocks],
                    "offset_last": True,
                }
                for t in self.zeta_terms
            ],
            "product_coeff": "-1",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _ordered_set_partitions(positions: tuple[int, ...], sizes: Sequence[int]):
    """Ordered partitions of ``positions`` into blocks of the given sizes."""
    if not sizes:
        yield ()
        return
    head, *rest = sizes
    for block in itertools.combinations(positions, head):
        chosen = set(block)
        remaining = tuple(p for p in positions if p not in chosen)
        for tail_blocks in _ordered_set_partitions(remaining, rest):
            yield (block,) + tail_blocks


def _check_exponents(exponents: ExponentList | Sequence[float]) -> tuple[float, ...]:
    """The exponents as floats, refused unless the tail formula holds for
    them: at most ``MAX_K`` of them, each above 1, summing past k + 1."""
    exps = as_args(exponents)
    k = len(exps)
    if k > MAX_K:
        raise BoundError(f"k must be at most {MAX_K}, got {k}")
    for p in exps:
        if not p > 1.0:
            raise DomainError(f"every exponent must exceed 1, got {p}")
    if not math.fsum(exps) > k + 1.0:
        raise DomainError(
            f"exponent sum {math.fsum(exps)} must exceed k + 1 = {k + 1}"
        )
    return exps


def tail_product_formula(exponents: ExponentList | Sequence[float]) -> TailFormula:
    """Closed form for the sum over n of the product of k tails.

    Semantically this sums over every (permutation, composition) pair with
    weight 1 over the product of part factorials, merging identical block
    structures; since the permutations filling a fixed ordered block list
    are exactly the within-block rearrangements, each merged term is one
    ordered set partition of the positions with coefficient 1.  Positions
    are merged, not exponent values, so the formula can be re-instantiated
    at any exponent list of the same arity.
    """
    k = len(_check_exponents(exponents))
    positions = tuple(range(1, k + 1))
    one = Fraction(1)
    terms = tuple(
        BlockTerm(blocks=blocks, coeff=one)
        for comp in compositions(k)
        for blocks in _ordered_set_partitions(positions, comp.parts)
    )
    return TailFormula(k=k, zeta_terms=terms)


def _merged_indices(exps: tuple[float, ...]) -> dict[tuple[float, ...], int]:
    """``tail_product_formula(exps).merged_by_value(exps)``, with integer
    counts, straight from the exponent values.

    An ordered set partition is a sequence of disjoint bitmasks over the
    positions; each subset's exponent sum is taken once.
    """
    full = (1 << len(exps)) - 1
    sums = [math.fsum(p for j, p in enumerate(exps) if mask >> j & 1) for mask in range(full + 1)]
    counts: dict[tuple[float, ...], int] = {}
    stack = [((), full)]
    while stack:
        prefix, rest = stack.pop()
        block = rest
        while block:
            if block == rest:
                args = prefix + (sums[block] - 1.0,)
                counts[args] = counts.get(args, 0) + 1
            else:
                stack.append((prefix + (sums[block],), rest ^ block))
            block = (block - 1) & rest
    return counts


def repeated_tail_formula(r: float, k: int) -> TailFormula:
    """Specialisation to k equal exponents r, merged by value.

    One term per composition (j1, ..., jp) of k, with multinomial
    coefficient k!/(j1! ... jp!) and arguments (r*j1, ..., r*jp - 1).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise DomainError(f"k must be an integer >= 2, got {k!r}")
    if k > MAX_K:
        raise BoundError(f"k must be at most {MAX_K}, got {k}")
    r = float(r)
    if not r > 1.0 + 1.0 / k:
        raise DomainError(f"requires r > 1 + 1/k = {1 + 1 / k}, got {r}")
    terms = []
    for comp in compositions(k):
        blocks = []
        start = 0
        for part in comp.parts:
            blocks.append(tuple(range(start + 1, start + part + 1)))
            start += part
        terms.append(
            BlockTerm(blocks=tuple(blocks), coeff=Fraction(multinomial(k, comp.parts)))
        )
    return TailFormula(k=k, zeta_terms=tuple(terms))


def _evaluate_merged(
    exps: tuple[float, ...],
    merged: dict[tuple[float, ...], Fraction | int],
    target_eps: float | None,
) -> EvalReport:
    """The tail sum at ``exps`` from its merged indices and their
    coefficients; :func:`evaluate_formula` and :func:`tail_product_sum`
    differ only in where ``merged`` comes from."""
    k = len(exps)
    if target_eps is None:
        target_eps = numerics.DEFAULT_EPS if k <= 2 else numerics.DEFAULT_EPS_DEEP
    for args in merged:
        if not converges(args):
            raise DomainError(f"instantiated index {args} does not converge")
    coeff_scale = sum(max(1.0, abs(float(c))) for c in merged.values())
    per = target_eps / (4.0 * coeff_scale)
    ordered = sorted(merged.items())
    values = numerics._mzv_many([args for args, _ in ordered], max(per / 2.0, 1e-10))
    terms = [coeff * value for (_, coeff), value in zip(ordered, values)]
    z_eps = target_eps / (8.0 * max(1, k) * 4.0)
    product = EvalReport.prod(
        numerics.zeta(p, max(z_eps, numerics._zeta_floor(p))) for p in exps
    )
    # scaled by -1, not negated, so the product's bound carries one rounding
    # like every other scaled term
    rep = EvalReport.fsum(terms + [-1 * product])
    if rep.abs_error_bound > target_eps:
        raise PrecisionError(f"tail sum: achieved bound {rep.abs_error_bound} > {target_eps}")
    return rep


def evaluate_formula(
    formula: TailFormula,
    exponents: ExponentList | Sequence[float],
    target_eps: float | None = None,
) -> EvalReport:
    """Numeric value of a tail formula at concrete exponents.

    Every instantiated index is evaluated as a nested series, all of them in
    one walk that shares their common argument prefixes, and the single
    product is subtracted, all in :class:`EvalReport` arithmetic.
    """
    exps = as_args(exponents)
    return _evaluate_merged(exps, formula.merged_by_value(exps), target_eps)


def tail_product_sum(
    exponents: ExponentList | Sequence[float], target_eps: float | None = None
) -> EvalReport:
    """Sum over n of the product of the k zeta tails after n, by the closed
    form: the formula-route twin of :func:`numerics.brute_tail_product_sum`.

    Equals ``evaluate_formula(tail_product_formula(exponents), exponents,
    target_eps)`` bit for bit and refuses alike, but takes the merged
    indices straight from the exponents instead of listing the formula's
    Fubini(k) terms.
    """
    exps = _check_exponents(exponents)
    # The first merged index in sorted order is the all-singletons one in
    # ascending order, of depth k: any block of two or more exponents, or
    # the lowered final block, exceeds the smallest exponent left.  The walk
    # checks its depth before anything else.
    numerics._require_depth(len(exps))
    return _evaluate_merged(exps, _merged_indices(exps), target_eps)


def proposition_kk1(k: float, target_eps: float | None = None) -> tuple[EvalReport, EvalReport]:
    """Both routes to the sum over n of tail(k, n) * tail(k+1, n), k > 1.

    Left: the direct outer sum.  Right: zeta combination plus the integral
    representation of the nested value with arguments (k+1, k-1):

        zeta(k)^2/2 + zeta(2k)/2 - zeta(k) zeta(k+1) + integral term.
    """
    k = float(k)
    if not k > 1.0 + MIN_GAP:
        raise DomainError(f"requires k > 1, got {k}")
    if target_eps is None:
        target_eps = numerics.DEFAULT_EPS
    lhs = numerics.brute_tail_product_sum((k, k + 1.0), target_eps / 2.0)
    z_eps = target_eps / 16.0
    zk = numerics.zeta(k, z_eps)
    zk1 = numerics.zeta(k + 1.0, z_eps)
    z2k = numerics.zeta(2.0 * k, z_eps)
    integral = numerics.mzv_integral(k + 1.0, k - 1.0, target_eps / 4.0)
    return lhs, 0.5 * (zk * zk) + 0.5 * z2k - zk * zk1 + integral


def proposition_square(k: float, target_eps: float | None = None) -> tuple[EvalReport, EvalReport]:
    """Both routes to the sum over n of tail(k, n)^2, k > 3/2.

    Left: the direct outer sum.  Right:

        zeta(2k-1) - zeta(k)^2 + 2 * integral term with arguments (k, k-1).
    """
    k = float(k)
    if not k > 1.5 + MIN_GAP:
        raise DomainError(f"requires k > 3/2, got {k}")
    if target_eps is None:
        target_eps = numerics.DEFAULT_EPS
    lhs = numerics.brute_tail_product_sum((k, k), target_eps / 2.0)
    z_eps = target_eps / 16.0
    z2k1 = numerics.zeta(2.0 * k - 1.0, z_eps)
    zk = numerics.zeta(k, z_eps)
    integral = numerics.mzv_integral(k, k - 1.0, target_eps / 8.0)
    return lhs, z2k1 - zk * zk + 2.0 * integral


def integer_square_closed_form(p: int) -> ZetaPolynomial:
    """Exact zeta polynomial for the sum over n of tail(p, n)^2, integer p >= 3.

    Composes the square identity  2*zeta(p, p-1) + zeta(2p-1) - zeta(p)^2
    with the odd-weight reduction of zeta(p, p-1).
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 3:
        raise DomainError(f"requires an integer p >= 3, got {p!r}")
    poly = 2 * reduce_double_odd(p, p - 1)
    poly = poly + ZetaPolynomial.single(2 * p - 1)
    poly = poly - ZetaPolynomial.monomial((p, p))
    return poly
