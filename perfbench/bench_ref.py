"""High-precision reference values, computed with mpmath and nothing from zetatails.

Every sum the benchmark checks has the shape

    S = sum_{n>=1}  n^(-q) * prod_j T_j(n),    T_j(n) = sum_{i>n} i^(-p_j),

with q = 0 for a sum of products of tails and a single tail for the
depth-two value zeta(r, q) = sum_{m>=1} m^(-q) * T_r(m).

The first N terms are summed exactly, each tail kept by the recurrence
T_j(n) = T_j(n-1) - n^(-p_j) from T_j(0) = zeta(p_j).  Past N each tail is
replaced by its Hurwitz asymptotic expansion (DLMF 25.11.43)

    T_p(x) = x^(1-p) * [ 1/(p-1) - 1/(2x) + sum_i B_2i/(2i)! (p)_(2i-1) x^(-2i) ],

so the summand is x^(-sigma) * G(1/x) with G a power series, and the
remainder is the sum over G's coefficients of c_i * zeta(sigma + i, N + 1),
each a Hurwitz zeta value.  With N = 64 and 20 coefficients the truncation
is far below 1e-25 for every input the workloads draw (the self-check
compares N = 64 against N = 128).  mpmath's ``nsum`` is deliberately not
used: its default extrapolation assumes integer-power asymptotics and is
visibly wrong at real exponents.
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import mp, mpf

DPS = 30
#: The exact reductions carry binomial coefficients up to ~1e17 that cancel
#: to a value of order 2^-m, so their evaluation runs well above DPS.
REDUCE_DPS = 60
CUTOFF = 64
ORDER = 20


def _tail_expansion(p, order: int) -> list:
    """Coefficients a_i of T_p(x) = x^(1-p) * sum_i a_i x^(-i)."""
    a = [mpf(0)] * (order + 1)
    a[0] = 1 / (p - 1)
    a[1] = mpf(-0.5)
    poch = p  # (p)_(2i-1)
    for i in range(1, order // 2 + 1):
        a[2 * i] = mp.bernoulli(2 * i) / mp.factorial(2 * i) * poch
        poch *= (p + 2 * i - 1) * (p + 2 * i)
    return a


def _series_product(a: list, b: list) -> list:
    return [mp.fsum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def weighted_tail_product_sum(exponents, q=0.0, cutoff: int = CUTOFF, order: int = ORDER):
    """sum_{n>=1} n^(-q) * prod_j T_{p_j}(n) as an mpf, at DPS digits."""
    with mp.workdps(DPS):
        ps = [mpf(p) for p in exponents]
        q = mpf(q)
        tails = [mp.zeta(p) for p in ps]
        partial = []
        for n in range(1, cutoff + 1):
            prod = mpf(n) ** (-q)
            for j, p in enumerate(ps):
                tails[j] -= mpf(n) ** (-p)
                prod *= tails[j]
            partial.append(prod)
        series = [mpf(1)] + [mpf(0)] * order
        for p in ps:
            series = _series_product(series, _tail_expansion(p, order))
        sigma = sum(ps) - len(ps) + q
        rest = [c * mp.zeta(sigma + i, cutoff + 1) for i, c in enumerate(series) if c]
        return +mp.fsum(partial + rest)


@lru_cache(maxsize=None)
def tail_sum(exponents: tuple[float, ...]):
    """Sum over n of the product of the tails after n."""
    return weighted_tail_product_sum(exponents)


@lru_cache(maxsize=None)
def depth_two(r: float, q: float):
    """Nested value zeta(r, q) = sum_{n>m>=1} n^(-r) m^(-q)."""
    return weighted_tail_product_sum((r,), q)


@lru_cache(maxsize=None)
def polylog(q: float, x: float):
    """Li_q(x) at the exact binary value of x."""
    with mp.workdps(DPS):
        return +mp.polylog(mpf(q), mpf(x))


def zeta_polynomial(terms):
    """Value of sum c * prod zeta(monomial) over (Fraction c, monomial) pairs,
    at REDUCE_DPS digits."""
    with mp.workdps(REDUCE_DPS):
        total = mp.fsum(
            mpf(c.numerator) / c.denominator * mp.fprod(mp.zeta(a) for a in mono)
            for c, mono in terms
        )
    return total
