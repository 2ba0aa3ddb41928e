"""Shared domain types and the small combinatorics the identities are built on.

Compositions of k index the classes of weak orderings of k summation
variables, and the ordered Bell (Fubini) numbers count those orderings;
both are needed when expanding a k-fold product of zeta tails.  Everything
here is exact integer / rational arithmetic and pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BoundError, DomainError

# Exact rational coefficients.  fractions.Fraction already keeps values
# reduced with a positive denominator and arbitrary-size integers.
Rational = Fraction

#: Largest supported arity for composition / formula enumeration.  At k = 8
#: a formula already has Fubini(8) + 1 = 545836 terms.
MAX_K = 8


@dataclass(frozen=True)
class ExponentList:
    """Ordered list of real exponents (i1, ..., ik) feeding tail products."""

    exponents: tuple[float, ...]

    def __post_init__(self):
        exps = tuple(float(x) for x in self.exponents)
        if len(exps) < 1:
            raise DomainError("exponent list must be nonempty")
        if not all(math.isfinite(x) for x in exps):
            raise DomainError(f"exponents must be finite, got {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def k(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __len__(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive integers; the parts sum to ``total``."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if len(parts) < 1 or any(p < 1 for p in parts):
            raise DomainError(f"composition parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class MzvIndex:
    """Argument list (a1, ..., am) of a nested zeta series."""

    args: tuple[float, ...]

    def __post_init__(self):
        args = tuple(float(a) for a in self.args)
        if len(args) < 1:
            raise DomainError("index must be nonempty")
        if not all(math.isfinite(a) for a in args):
            raise DomainError(f"index entries must be finite, got {args}")
        object.__setattr__(self, "args", args)

    @property
    def depth(self) -> int:
        return len(self.args)

    @property
    def weight(self) -> float:
        return sum(self.args)

    def __iter__(self):
        return iter(self.args)

    def __len__(self) -> int:
        return len(self.args)


def as_args(index: MzvIndex | ExponentList | Sequence[float]) -> tuple[float, ...]:
    """Coerce an index-like object into a plain tuple of floats."""
    if isinstance(index, MzvIndex):
        return index.args
    if isinstance(index, ExponentList):
        return index.exponents
    args = tuple(float(a) for a in index)
    if not args:
        raise DomainError("index must be nonempty")
    if not all(math.isfinite(a) for a in args):
        raise DomainError(f"index entries must be finite, got {args}")
    return args


def converges(index: MzvIndex | Sequence[float]) -> bool:
    """True iff the nested series for this index converges absolutely.

    The criterion is strict: every partial sum a1 + ... + aj must exceed j.
    """
    args = as_args(index)
    partial = 0.0
    for j, a in enumerate(args, start=1):
        partial += a
        if not partial > j:
            return False
    return True


def _compositions(k: int) -> Iterator[tuple[int, ...]]:
    """Every composition of k >= 0 as a tuple of parts, lexicographically."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def compositions(k: int) -> list[Composition]:
    """All 2**(k-1) compositions of k, lexicographically ordered by parts."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise BoundError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= MAX_K:
        raise BoundError(f"k must be in 1..{MAX_K}, got {k}")
    return [Composition(parts) for parts in _compositions(k)]


def multinomial(k: int, parts: Iterable[int]) -> int:
    """k! / (j1! * ... * jp!) for parts summing to k."""
    parts = tuple(parts)
    if sum(parts) != k:
        raise DomainError(f"parts {parts} do not sum to {k}")
    denom = math.prod(math.factorial(j) for j in parts)
    return math.factorial(k) // denom


def weak_ordering_count(k: int) -> int:
    """Ordered Bell (Fubini) number: weak orderings of k labelled items."""
    return sum(multinomial(k, c.parts) for c in compositions(k))
