"""Exact-rational identities on integer-argument nested zeta values.

The normal form for reduction outputs is :class:`ZetaPolynomial`, a
polynomial in the single values zeta(2), zeta(3), ... with Fraction
coefficients; monomials are multisets of arguments kept as sorted tuples,
so zeta(2)*zeta(3) and zeta(3)*zeta(2) share one key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import _compositions
from .errors import DomainError, PrecisionError
from . import numerics

Monomial = tuple[int, ...]

def _even_row_binoms(k: int, count: int) -> list[int]:
    """comb(2i, k) for i = 0..count-1, nil where 2i < k, each from the last."""
    out = []
    c = 0
    for p in range(0, 2 * count, 2):
        if p in (k, k + 1):
            c = math.comb(p, k)
        elif c:
            c = c * p * (p - 1) // ((p - k) * (p - 1 - k))
        out.append(c)
    return out


class ZetaPolynomial:
    """Rational polynomial in single zeta values.

    Immutable in practice: all arithmetic returns new instances, and zero
    coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(sorted(int(a) for a in mono))
            if any(a < 2 for a in mono):
                raise DomainError(f"monomial arguments must be >= 2, got {mono}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[mono] = clean.get(mono, Fraction(0)) + coeff
        self._terms = {m: c for m, c in clean.items() if c != 0}

    @classmethod
    def zero(cls) -> "ZetaPolynomial":
        return cls()

    @classmethod
    def single(cls, arg: int, coeff: Fraction | int = 1) -> "ZetaPolynomial":
        """coeff * zeta(arg)."""
        return cls({(int(arg),): Fraction(coeff)})

    @classmethod
    def monomial(cls, args: Iterable[int], coeff: Fraction | int = 1) -> "ZetaPolynomial":
        """coeff * zeta(a1) * zeta(a2) * ..."""
        return cls({tuple(args): Fraction(coeff)})

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def coefficient(self, mono: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(sorted(int(a) for a in mono)), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZetaPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "ZetaPolynomial") -> "ZetaPolynomial":
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            merged[mono] = merged.get(mono, Fraction(0)) + coeff
        return ZetaPolynomial(merged)

    def __sub__(self, other: "ZetaPolynomial") -> "ZetaPolynomial":
        return self + (-other)

    def __neg__(self) -> "ZetaPolynomial":
        return ZetaPolynomial({m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "ZetaPolynomial":
        if isinstance(other, (int, Fraction)):
            return ZetaPolynomial({m: c * other for m, c in self._terms.items()})
        if isinstance(other, ZetaPolynomial):
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    key = tuple(sorted(m1 + m2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return ZetaPolynomial(out)
        return NotImplemented

    __rmul__ = __mul__

    def weight(self) -> int | None:
        """Common monomial weight, or None if mixed or empty."""
        weights = {sum(m) for m in self._terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self._terms}) <= 1

    def evaluate(self, target_eps: float = numerics.DEFAULT_EPS) -> numerics.EvalReport:
        """Numeric value with propagated error bound; raises
        :class:`PrecisionError` when the bound exceeds ``target_eps``."""
        if not self._terms:
            return numerics.EvalReport(0.0, 0.0, 1)
        # Budget per single-zeta factor, weighted by coefficient size and a
        # crude product magnitude so the propagated bound lands under target.
        scale = sum(
            (len(m) + 1) * max(1.0, abs(float(c))) * 2.0 ** len(m)
            for m, c in self._terms.items()
        )
        per = max(target_eps / (4.0 * scale), numerics._ZETA_FLOOR)
        rep = numerics.EvalReport.fsum(
            coeff * numerics.EvalReport.prod(numerics.zeta(a, per) for a in mono)
            for mono, coeff in sorted(self._terms.items())
        )
        if rep.abs_error_bound > target_eps:
            raise PrecisionError(f"{self}: achieved bound {rep.abs_error_bound} > {target_eps}")
        return rep

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items())

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"coeff": str(coeff), "monomial": list(mono)}
                for mono, coeff in self.sorted_terms()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ZetaPolynomial":
        terms: dict[Monomial, Fraction] = {}
        for entry in data["terms"]:
            terms[tuple(entry["monomial"])] = Fraction(entry["coeff"])
        return cls(terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for a in sorted(set(mono)):
                power = mono.count(a)
                factors.append(f"zeta({a})" if power == 1 else f"zeta({a})^{power}")
            body = "*".join(factors)
            if not body:
                piece = str(coeff)
            elif coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            pieces.append(piece)
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"ZetaPolynomial({self._terms!r})"


@dataclass(frozen=True)
class IntegerIndex:
    """Admissible integer index: first entry >= 2, all entries >= 1."""

    args: tuple[int, ...]

    def __post_init__(self):
        args = tuple(int(a) for a in self.args)
        if len(args) < 1 or any(a < 1 for a in args) or args[0] < 2:
            raise DomainError(f"index must have first entry >= 2, rest >= 1, got {args}")
        object.__setattr__(self, "args", args)

    @property
    def weight(self) -> int:
        return sum(self.args)

    @property
    def depth(self) -> int:
        return len(self.args)

    def __iter__(self):
        return iter(self.args)

    def __len__(self) -> int:
        return len(self.args)


def _as_integer_index(index: IntegerIndex | Sequence[int]) -> IntegerIndex:
    if isinstance(index, IntegerIndex):
        return index
    return IntegerIndex(tuple(index))


def reduce_n1(n: int) -> ZetaPolynomial:
    """Depth-two value with final argument 1 as a zeta polynomial:

        (n/2) zeta(n+1) - (1/2) sum_{j=2}^{n-1} zeta(j) zeta(n+1-j),

    the empty sum for n = 2 leaving plain zeta(3).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"reduce_n1 requires an integer n >= 2, got {n!r}")
    terms: dict[Monomial, Fraction] = {(n + 1,): Fraction(n, 2)}
    for j in range(2, n):
        mono = tuple(sorted((j, n + 1 - j)))
        terms[mono] = terms.get(mono, 0) - Fraction(1, 2)
    return ZetaPolynomial(terms)


def reduce_double_odd(m: int, n: int) -> ZetaPolynomial:
    """Odd-weight depth-two reduction to single zeta values.

    Valid for integers m >= 2, n >= 2 with m + n odd (for n = 1 use
    :func:`reduce_n1`); binomials with upper index below lower are nil.
    """
    for name, v in (("m", m), ("n", n)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"{name} must be an integer, got {v!r}")
    if m < 2 or n < 2:
        raise DomainError(f"reduce_double_odd requires m, n >= 2, got ({m}, {n})")
    w = m + n
    if w % 2 == 0:
        raise DomainError(f"reduce_double_odd requires odd weight, got {w}")
    sign = -1 if m % 2 else 1
    terms: dict[Monomial, Fraction] = {(w,): Fraction(sign * math.comb(w, n) - 1, 2)}
    if sign == 1:
        terms[tuple(sorted((m, n)))] = Fraction(1)
    rows = (w - 1) // 2
    binoms = zip(_even_row_binoms(m - 1, rows), _even_row_binoms(n - 1, rows))
    for j, (bm, bn) in enumerate(binoms, start=1):
        c = bm + bn
        if c:
            mono = tuple(sorted((2 * j - 1, w - 2 * j + 1)))
            terms[mono] = terms.get(mono, 0) - sign * c
    return ZetaPolynomial(terms)


def sum_theorem_identity(n: int, k: int) -> tuple[list[IntegerIndex], ZetaPolynomial]:
    """All admissible integer indices of weight n and depth k, plus zeta(n).

    The generated indices sum (numerically) to the right side; this function
    only enumerates, leaving tolerance policy to the caller.
    """
    for name, v in (("n", n), ("k", k)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"{name} must be an integer, got {v!r}")
    if not (2 <= k < n):
        raise DomainError(f"requires n > k >= 2, got n={n}, k={k}")
    if n > 10:
        raise DomainError(f"n is capped at 10, got {n}")
    indices = [
        IntegerIndex(parts)
        for parts in _compositions(n)
        if len(parts) == k and parts[0] >= 2
    ]
    return indices, ZetaPolynomial.single(n)


def duality(index: IntegerIndex | Sequence[int]) -> IntegerIndex:
    """The involution on admissible integer indices preserving the value.

    Take partial sums, complement them in {1..weight}, reflect via
    a -> weight + 1 - a, and difference back.
    """
    idx = _as_integer_index(index)
    weight = idx.weight
    partial = []
    acc = 0
    for a in idx.args:
        acc += a
        partial.append(acc)
    in_set = set(partial)
    complement = [x for x in range(1, weight + 1) if x not in in_set]
    reflected = sorted(weight + 1 - x for x in complement)
    if not reflected:
        # depth equals weight is impossible for admissible indices except
        # weight-1 lists, which admissibility already excludes
        raise DomainError(f"index {idx.args} has empty dual image")
    diffs = [reflected[0]] + [b - a for a, b in zip(reflected, reflected[1:])]
    return IntegerIndex(tuple(diffs))
