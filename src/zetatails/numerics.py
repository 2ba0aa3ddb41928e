"""Floating-point evaluation with explicit absolute error bounds.

Every public operation returns an :class:`EvalReport` carrying a value and a
bound on its absolute error.  The bounds are propagated honestly: series
truncations use Euler-Maclaurin remainders or integral-test estimates,
quadrature panels carry conservative rule-difference estimates, and float
rounding is budgeted explicitly.

The workhorse is an asymptotic representation of zeta-function tails,

    sum_{i>m} i^(-s) = m^(1-s)/(s-1) - m^(-s)/2 + s*m^(-s-1)/12
                       - s(s+1)(s+2)*m^(-s-3)/720 + E(m),

with |E(m)| <= s(s+1)(s+2)(s+3)(s+4) * m^(-s-5) / 30240 for all m >= 1
(the correction terms alternate around the true value because the
derivatives of x^(-s) are of one sign).  Such pure-power expansions stay
pure-power under two operations we need repeatedly:

* weighted tail summation  sum_{n>m} n^(-a) * U(n), which turns each power
  of the expansion of U into another zeta tail, and
* pointwise products, used for products of tails sharing one index.

Nested zeta series of any convergent real index are evaluated by building
tail functions level by level (outermost argument first) with the exact
values kept on an array 1..N and the expansion taking over past N.  The
same machinery accelerates the outer sum of a product of tails.

The double-series integral representation is integrated by adaptive
Gauss-Legendre panels on a geometrically graded mesh; near t = 0 the factor
Li_q(e^(-t)) is produced from its |t| < 2*pi expansion because e^(-t) is
indistinguishable from 1 in double precision there.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import ExponentList, MzvIndex, as_args, converges
from .errors import DepthError, DomainError, PrecisionError

_EPS = sys.float_info.epsilon

#: Exponents and index prefix sums must clear their convergence boundary by
#: this margin; closer calls are rejected rather than attempted, because the
#: leading tail coefficient grows like 1/margin.
MIN_GAP = 1e-6

#: Default error targets: tight for shallow series, relaxed for deep ones.
DEFAULT_EPS = 1e-9
DEFAULT_EPS_DEEP = 1e-7

#: Deepest nested series the evaluator accepts.
MAX_DEPTH = 5


#: Largest absolute rounding error of a float result in the subnormal range.
_TINY = math.ulp(0.0)


def _up(*parts: float) -> float:
    """A float no smaller than the exact sum of the nonnegative ``parts``.

    Each part may carry a couple of roundings of its own (relative eps/2
    each, or _TINY/2 where it underflowed) and the sum adds one more; the
    factor and the _TINY per part cover them all.
    """
    return math.fsum(parts) * (1.0 + 4.0 * _EPS) + len(parts) * _TINY


@dataclass(frozen=True)
class EvalReport:
    """A numeric value together with a rigorous absolute-error bound.

    Reports form a midpoint-radius ("ball") arithmetic in the style of Arb
    (Johansson, IEEE TC 2017): ``+``, ``-``, ``*`` between reports, scaling
    by an int, float or Fraction, and :meth:`fsum` / :meth:`prod`.  Each
    value is the plain float operation on the midpoints; each radius adds
    the propagated input radii and the rounding of that operation, rounded
    upward.  ``terms_used`` adds across operands.
    """

    value: float
    abs_error_bound: float
    terms_used: int

    def __post_init__(self):
        if not (self.abs_error_bound >= 0.0 and math.isfinite(self.abs_error_bound)):
            raise DomainError("error bound must be finite and nonnegative")
        if self.terms_used < 1:
            raise DomainError("terms_used must be at least 1")

    def __add__(self, other: "EvalReport") -> "EvalReport":
        if not isinstance(other, EvalReport):
            return NotImplemented
        v = self.value + other.value
        r = _up(self.abs_error_bound, other.abs_error_bound, _EPS * abs(v))
        return EvalReport(v, r, self.terms_used + other.terms_used)

    def __sub__(self, other: "EvalReport") -> "EvalReport":
        return self + (-other) if isinstance(other, EvalReport) else NotImplemented

    def __neg__(self) -> "EvalReport":
        return EvalReport(-self.value, self.abs_error_bound, self.terms_used)

    def __mul__(self, other) -> "EvalReport":
        if isinstance(other, EvalReport):
            a, ra = abs(self.value), self.abs_error_bound
            b, rb = abs(other.value), other.abs_error_bound
            v = self.value * other.value
            # (a + ra)(b + rb) - ab, expanded so that nothing cancels
            r = _up(a * rb, ra * b, ra * rb, _EPS * abs(v))
            return EvalReport(v, r, self.terms_used + other.terms_used)
        if isinstance(other, (int, float, Fraction)):
            c = float(other)
            v = c * self.value
            # the eps term also covers the conversion of a Fraction or int to float
            r = _up(abs(c) * self.abs_error_bound, _EPS * abs(v))
            return EvalReport(v, r, self.terms_used)
        return NotImplemented

    __rmul__ = __mul__

    @classmethod
    def fsum(cls, reports: Iterable["EvalReport"]) -> "EvalReport":
        """Correctly rounded sum of one or more values; the radii add."""
        reports = list(reports)
        v = math.fsum(r.value for r in reports)
        r = _up(*(r.abs_error_bound for r in reports), _EPS * abs(v))
        return cls(v, r, sum(r.terms_used for r in reports))

    @classmethod
    def prod(cls, reports: Iterable["EvalReport"]) -> "EvalReport":
        """Left-to-right product; the empty product is exactly 1."""
        reports = list(reports)
        return reduce(operator.mul, reports) if reports else cls(1.0, 0.0, 1)


# ---------------------------------------------------------------------------
# Power-tail expansions
# ---------------------------------------------------------------------------

_MAX_PT_TERMS = 48


@dataclass(frozen=True)
class _PowerTail:
    """Finite sum  sum_l c_l * m^(-e_l)  plus remainder |R| <= rc * m^(-re).

    Valid for every real m >= 1.  Terms are kept sorted by exponent and any
    term whose exponent reaches the remainder exponent is folded into the
    remainder coefficient.
    """

    terms: tuple[tuple[float, float], ...]
    rem_coef: float
    rem_exp: float


def _pt_make(terms: list[tuple[float, float]], rem_coef: float, rem_exp: float) -> _PowerTail:
    merged: dict[float, float] = {}
    for c, e in terms:
        if c != 0.0:
            merged[e] = merged.get(e, 0.0) + c
    items = sorted(merged.items())
    kept: list[tuple[float, float]] = []
    for e, c in items:
        if c == 0.0:
            continue
        if e >= rem_exp:
            rem_coef += abs(c)  # m^(-e) <= m^(-rem_exp) for m >= 1
        else:
            kept.append((c, e))
    if len(kept) > _MAX_PT_TERMS:
        # Fold the fastest-decaying terms; the remainder exponent must drop
        # to the smallest folded exponent to stay a valid majorant.
        extra = kept[_MAX_PT_TERMS:]
        kept = kept[:_MAX_PT_TERMS]
        rem_exp = min(rem_exp, min(e for _, e in extra))
        rem_coef += sum(abs(c) for c, _ in extra)
    return _PowerTail(tuple(kept), rem_coef, rem_exp)


def _zeta_tail_pt(beta: float) -> _PowerTail:
    """Expansion of sum_{i>m} i^(-beta), beta > 1."""
    terms = [
        (1.0 / (beta - 1.0), beta - 1.0),
        (-0.5, beta),
        (beta / 12.0, beta + 1.0),
        (-beta * (beta + 1.0) * (beta + 2.0) / 720.0, beta + 3.0),
    ]
    rc = beta * (beta + 1.0) * (beta + 2.0) * (beta + 3.0) * (beta + 4.0) / 30240.0
    return _pt_make(terms, rc, beta + 5.0)


def _pt_convolve(pt: _PowerTail, a: float) -> _PowerTail:
    """Expansion of  sum_{n>m} n^(-a) * pt(n).

    Every composite exponent a + e_l must exceed 1, which is exactly the
    convergence margin the callers enforce.
    """
    terms: list[tuple[float, float]] = []
    rems: list[tuple[float, float]] = []
    for c, e in pt.terms:
        beta = a + e
        if beta <= 1.0 + 1e-9:
            raise PrecisionError(
                f"cannot bound tail: composite exponent {beta} too close to 1"
            )
        sub = _zeta_tail_pt(beta)
        terms.extend((c * c2, e2) for c2, e2 in sub.terms)
        rems.append((abs(c) * sub.rem_coef, sub.rem_exp))
    gamma = a + pt.rem_exp
    if gamma <= 1.0 + 1e-9:
        raise PrecisionError("cannot bound remainder of tail convolution")
    # Integral test on the remainder: sum_{n>m} n^(-gamma) <= m^(1-gamma)/(gamma-1).
    rems.append((pt.rem_coef / (gamma - 1.0), gamma - 1.0))
    rem_exp = min(e for _, e in rems)
    rem_coef = math.fsum(c for c, _ in rems)
    return _pt_make(terms, rem_coef, rem_exp)


def _pt_multiply(p1: _PowerTail, p2: _PowerTail) -> _PowerTail:
    terms = [(c1 * c2, e1 + e2) for c1, e1 in p1.terms for c2, e2 in p2.terms]
    s1 = math.fsum(abs(c) for c, _ in p1.terms)
    s2 = math.fsum(abs(c) for c, _ in p2.terms)
    # an expansion whose terms were all folded has s = 0; any exponent will do
    e1min = min((e for _, e in p1.terms), default=p1.rem_exp)
    e2min = min((e for _, e in p2.terms), default=p2.rem_exp)
    rems = [
        (s1 * p2.rem_coef, e1min + p2.rem_exp),
        (p1.rem_coef * s2, p1.rem_exp + e2min),
        (p1.rem_coef * p2.rem_coef, p1.rem_exp + p2.rem_exp),
    ]
    rem_exp = min(e for _, e in rems)
    rem_coef = math.fsum(c for c, _ in rems)
    return _pt_make(terms, rem_coef, rem_exp)


def _pt_eval(pt: _PowerTail, m: float) -> tuple[float, float]:
    """Evaluate the expansion at m, returning (value, error bound)."""
    vals = [c * m ** (-e) for c, e in pt.terms]
    value = math.fsum(vals)
    abssum = math.fsum(abs(v) for v in vals)
    bound = pt.rem_coef * m ** (-pt.rem_exp) + 16.0 * _EPS * abssum
    return value, bound


# ---------------------------------------------------------------------------
# Single zeta values and tails
# ---------------------------------------------------------------------------


#: Most explicit terms a single series may sum before giving up on a target.
_MAX_SERIES_TERMS = 10_000_000


def _tail_cutoff(pt: _PowerTail, eps: float, name: str) -> int:
    """Smallest m >= 10 at which the expansion remainder drops below eps/4."""
    rc = pt.rem_coef
    if rc <= 0.25 * eps:
        return 10
    ratio = 4.0 * rc / eps
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(rc) + math.log(4.0 / eps)
    n = math.exp(log_ratio / pt.rem_exp)
    if not n <= _MAX_SERIES_TERMS:
        raise PrecisionError(f"{name}: {eps} is out of reach within {_MAX_SERIES_TERMS} terms")
    return max(10, int(math.ceil(n)))


def _check_eps(target_eps: float) -> None:
    if not (target_eps > 0.0 and math.isfinite(target_eps)):
        raise DomainError(f"target_eps must be positive, got {target_eps}")


def _series_tail(p: float, n: int, target_eps: float, name: str) -> EvalReport:
    """sum_{i>n} i^(-p): explicit terms up to the cutoff, the expansion past it.

    The value is never formed as a difference of two nearly equal numbers.
    """
    pt = _zeta_tail_pt(p)
    cutoff = _tail_cutoff(pt, target_eps, name)
    if n >= cutoff:
        value, bound = _pt_eval(pt, n)
        terms = max(len(pt.terms), 1)
    else:
        partial = math.fsum(i ** (-p) for i in range(n + 1, cutoff + 1))
        tv, tb = _pt_eval(pt, cutoff)
        value = partial + tv
        bound = tb + (cutoff - n + 4.0) * _EPS * (abs(partial) + abs(tv))
        terms = cutoff - n
    if not bound <= target_eps:
        raise PrecisionError(f"{name}: achieved bound {bound} > {target_eps}")
    return EvalReport(value, bound, terms)


@lru_cache(maxsize=8192)
def _zeta_cached(s: float, target_eps: float) -> EvalReport:
    est = 1.0 + 0.5**s + 1.0 / (s - 1.0)
    if 8.0 * _EPS * est > 0.5 * target_eps:
        raise PrecisionError(
            f"zeta({s}) cannot be resolved to {target_eps} in double precision"
        )
    return _series_tail(s, 0, target_eps, f"zeta({s})")


def zeta(s: float, target_eps: float = DEFAULT_EPS) -> EvalReport:
    """Riemann zeta at real s > 1, by direct summation plus tail correction."""
    s = float(s)
    _check_eps(target_eps)
    if not s > 1.0 + MIN_GAP:
        raise DomainError(f"zeta requires s > 1 + {MIN_GAP}, got {s}")
    return _zeta_cached(s, float(target_eps))


def tail(p: float, n: int, target_eps: float = DEFAULT_EPS) -> EvalReport:
    """The remainder sum_{i>n} i^(-p) after n terms, computed tail-side.

    For large n the expansion is used directly, otherwise the first terms
    are summed explicitly and the expansion picks up the rest.
    """
    p = float(p)
    _check_eps(target_eps)
    if not p > 1.0 + MIN_GAP:
        raise DomainError(f"tail requires p > 1 + {MIN_GAP}, got {p}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    return _series_tail(p, n, target_eps, f"tail({p},{n})")


# ---------------------------------------------------------------------------
# Polylogarithm on (0, 1)
# ---------------------------------------------------------------------------


def polylog(q: float, x: float, target_eps: float = DEFAULT_EPS) -> EvalReport:
    """Li_q(x) = sum_{j>=1} x^j / j^q for 0 < x < 1 and any real q.

    Straight summation; once the term ratio is provably below 1 the
    geometric majorant of the remaining terms is used as stopping bound.
    """
    q = float(q)
    x = float(x)
    _check_eps(target_eps)
    if not (0.0 < x < 1.0):
        raise DomainError(f"polylog requires 0 < x < 1, got {x}")
    growth = max(0.0, -q)
    terms: list[float] = []
    m = 0
    while True:
        m += 1
        # both powers via libm pow (a couple of ulp each), never a running
        # product, so the per-term float error stays a small multiple of eps
        terms.append(x**m * m ** (-q))
        rho = x * ((m + 1.0) / m) ** growth
        if rho < 1.0:
            nxt = x ** (m + 1) * (m + 1.0) ** (-q)
            geo = nxt / (1.0 - rho)
            if geo <= 0.5 * target_eps:
                break
        if m >= 10_000_000:
            raise PrecisionError(
                f"polylog({q},{x}): {target_eps} not reached after {m} terms"
            )
    value = math.fsum(terms)
    abs_sum = math.fsum(abs(t) for t in terms)
    bound = geo + _EPS * (6.0 * abs_sum + 2.0 * abs(value))
    if bound > target_eps:
        raise PrecisionError(f"polylog({q},{x}): bound {bound} > {target_eps}")
    return EvalReport(value, bound, m)


# ---------------------------------------------------------------------------
# Nested zeta series with real arguments
# ---------------------------------------------------------------------------


def _require_margins(args: tuple[float, ...]) -> None:
    partial = 0.0
    for j, a in enumerate(args, start=1):
        partial += a
        if not partial > j + MIN_GAP:
            if converges(args):
                raise DomainError(
                    f"index {args} is within {MIN_GAP} of the convergence boundary"
                )
            raise DomainError(f"index {args} does not converge")


def _mzv_expansions(args: tuple[float, ...]) -> list[_PowerTail]:
    pts = [_zeta_tail_pt(args[0])]
    for a in args[1:]:
        pts.append(_pt_convolve(pts[-1], a))
    return pts


def _mzv_build(args: tuple[float, ...], pts: list[_PowerTail], n: int) -> tuple[float, float]:
    """One evaluation pass at cutoff n; returns (value, error bound).

    Level j keeps the tail function U_j on the grid 0..n via the backward
    recurrence U_j(m) = U_j(m+1) + (m+1)^(-a_j) * U_{j-1}(m+1), seeded at
    U_j(n) by the level's expansion.  Error envelopes are carried per grid
    point, so the decay of inner tails is not thrown away when a level has
    a growing weight n^(-a_j) with negative a_j.
    """
    ns = np.arange(1.0, n + 1.0)
    ops_left = (n - np.arange(n + 1, dtype=np.float64)) + 8.0
    v_prev = np.ones(n + 1)
    e_prev = np.zeros(n + 1)
    for a, pt in zip(args, pts):
        pw = ns ** (-a)
        seed, seed_err = _pt_eval(pt, n)
        w = pw * v_prev[1:]
        suffix = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
        v = seed + suffix
        werr = pw * e_prev[1:]
        esuf = np.concatenate((np.cumsum(werr[::-1])[::-1], [0.0]))
        rounding = _EPS * ops_left * (np.abs(v) + abs(seed))
        e_prev = seed_err + esuf + rounding
        v_prev = v
    value = float(v_prev[0])
    # _TINY keeps the bound positive when every term underflows to zero
    return value, float(e_prev[0]) * (1.0 + 1e-9) + 4.0 * _EPS * abs(value) + _TINY


def mzv(index: MzvIndex | Sequence[float], target_eps: float | None = None) -> EvalReport:
    """Nested zeta value  sum_{n1 > ... > nk >= 1}  n1^(-a1) ... nk^(-ak).

    Real arguments are accepted whenever every prefix sum a1 + ... + aj
    exceeds j by at least the safety margin.  Depth is capped at
    ``MAX_DEPTH``; the error bound honours ``target_eps`` or the evaluation
    fails with :class:`PrecisionError`.
    """
    args = as_args(index)
    k = len(args)
    if k > MAX_DEPTH:
        raise DepthError(f"depth {k} exceeds the supported maximum {MAX_DEPTH}")
    _require_margins(args)
    if target_eps is None:
        target_eps = DEFAULT_EPS if k <= 2 else DEFAULT_EPS_DEEP
    _check_eps(target_eps)
    if target_eps < 1e-10:
        raise DomainError(f"target_eps below 1e-10 is not supported, got {target_eps}")
    pts = _mzv_expansions(args)
    best: tuple[float, float, int] | None = None
    n = 64
    while n <= 2**19:
        value, bound = _mzv_build(args, pts, n)
        if not math.isfinite(bound):
            raise PrecisionError(f"mzv{args}: bound is not finite at cutoff {n}")
        if best is None or bound < best[1]:
            best = (value, bound, n)
        if bound <= target_eps:
            return EvalReport(value, bound, k * n)
        n *= 2
    raise PrecisionError(
        f"mzv{args}: best bound {best[1]:.3e} > target {target_eps:.3e}"
    )


# ---------------------------------------------------------------------------
# Brute-force oracle for sums of products of tails
# ---------------------------------------------------------------------------


def _brute_build(
    exps: tuple[float, ...],
    pts: list[_PowerTail],
    tail_pt: _PowerTail,
    n: int,
) -> tuple[float, float]:
    ns = np.arange(1.0, n + 1.0)
    factors: list[np.ndarray] = []
    factor_errs: list[float] = []
    for p, pt in zip(exps, pts):
        pw = ns ** (-p)
        seed, seed_err = _pt_eval(pt, n)
        suffix = np.zeros(n)
        if n > 1:
            suffix[:-1] = np.cumsum(pw[1:][::-1])[::-1]
        t_arr = seed + suffix
        factors.append(t_arr)
        factor_errs.append(seed_err + 2.0 * n * _EPS * (float(np.sum(pw)) + abs(seed)))
    prod = reduce(lambda a, b: a * b, factors)
    finite = float(np.sum(prod))
    rounding = (len(exps) + math.log2(n) + 4.0) * _EPS * float(np.sum(np.abs(prod)))
    inherited = 0.0
    for j in range(len(exps)):
        others = [factors[l] for l in range(len(exps)) if l != j]
        loo = reduce(lambda a, b: a * b, others) if others else np.ones(n)
        inherited += factor_errs[j] * float(np.sum(loo)) * 1.05
    tail_v, tail_b = _pt_eval(tail_pt, n)
    value = finite + tail_v
    bound = tail_b + rounding + inherited + 4.0 * _EPS * abs(value)
    return value, bound


def brute_tail_product_sum(
    exponents: ExponentList | Sequence[float], target_eps: float | None = None
) -> EvalReport:
    """Directly sum over n of the product of the k zeta tails after n.

    This is the independent oracle for the closed-form identities: the outer
    sum is truncated at N and the remainder is picked up by the product of
    the per-factor tail expansions, never by any nested-series identity.
    Requires every exponent above 1 and the exponent sum above k + 1.
    """
    exps = as_args(exponents)
    k = len(exps)
    for p in exps:
        if not p > 1.0 + MIN_GAP:
            raise DomainError(f"every exponent must exceed 1 + {MIN_GAP}, got {p}")
    if not sum(exps) > k + 1.0 + MIN_GAP:
        raise DomainError(
            f"exponent sum {sum(exps)} must exceed k + 1 = {k + 1} for convergence"
        )
    if target_eps is None:
        target_eps = DEFAULT_EPS if k <= 2 else DEFAULT_EPS_DEEP
    _check_eps(target_eps)
    pts = [_zeta_tail_pt(p) for p in exps]
    prod_pt = reduce(_pt_multiply, pts)
    tail_pt = _pt_convolve(prod_pt, 0.0)
    best: tuple[float, float, int] | None = None
    n = 256
    while n <= 2**22:
        value, bound = _brute_build(exps, pts, tail_pt, n)
        if not math.isfinite(bound):
            raise PrecisionError(
                f"brute_tail_product_sum{exps}: bound is not finite at cutoff {n}"
            )
        if best is None or bound < best[1]:
            best = (value, bound, n)
        if bound <= target_eps:
            return EvalReport(value, bound, n)
        n *= 2
    raise PrecisionError(
        f"brute_tail_product_sum{exps}: best bound {best[1]:.3e} > {target_eps:.3e}"
    )


# ---------------------------------------------------------------------------
# Zeta on the real line (internal, for the polylog expansion near 1)
# ---------------------------------------------------------------------------

_ZETA_LINE_CACHE: dict[float, tuple[float, float]] = {}


def _zeta_line(s: float) -> tuple[float, float]:
    """(value, bound) for zeta at any real s != 1.

    For s > 1.5 this is the plain series machinery.  On [-0.5, 1.5) the
    tail-corrected partial sum is used unchanged: read as an identity in s
    it extends across the critical strip, with the same first-omitted-term
    remainder bound for s > -5.  Further left the reflection formula maps
    back to arguments >= 2.5.
    """
    cached = _ZETA_LINE_CACHE.get(s)
    if cached is not None:
        return cached
    if s > 1.5:
        rep = _zeta_cached(s, 1e-12)
        out = (rep.value, rep.abs_error_bound)
    elif s >= -0.5:
        n = 64
        partial = math.fsum(i ** (-s) for i in range(1, n + 1))
        corr = [
            n ** (1.0 - s) / (s - 1.0),
            -0.5 * n ** (-s),
            s / 12.0 * n ** (-s - 1.0),
            -s * (s + 1.0) * (s + 2.0) / 720.0 * n ** (-s - 3.0),
        ]
        value = partial + math.fsum(corr)
        rem = abs(s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0)) / 30240.0 * n ** (
            -s - 5.0
        )
        scale = abs(partial) + math.fsum(abs(c) for c in corr)
        out = (value, rem + (n + 8.0) * _EPS * scale)
    else:
        # zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)
        zv, zb = _zeta_line(1.0 - s)
        log_amp = s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + math.lgamma(1.0 - s)
        amp = math.exp(log_amp)
        sin_val = math.sin(math.pi * s / 2.0)
        value = amp * sin_val * zv
        # sin suffers absolute error ~ eps * |pi s / 2| from argument reduction
        sin_err = 2.0 * _EPS * (abs(math.pi * s / 2.0) + 1.0)
        bound = amp * (abs(sin_val) * (zb + 8.0 * _EPS * abs(zv)) + sin_err * abs(zv))
        out = (value, bound * 1.01 + 4.0 * _EPS * abs(value))
    _ZETA_LINE_CACHE[s] = out
    return out


# ---------------------------------------------------------------------------
# Li_q(e^-t) for quadrature nodes
# ---------------------------------------------------------------------------

_LI_SMALL_T = 0.5


def _li_series_bound(q: float, t: np.ndarray, m: int) -> np.ndarray:
    """Majorant of the terms zeta(q-n) (-t)^n / n! summed over n > m.

    Uses |zeta(q-n)| <= 2 (2 pi)^(q-n-1) Gamma(1+n-q) zeta(1+n-q) for
    n - q >= 1, and a geometric ratio below (t/2pi)(1 + |q|/(m+2)).
    """
    n1 = m + 1
    lead = (
        6.0
        * (2.0 * math.pi) ** (q - 1.0)
        * math.exp(math.lgamma(1.0 + n1 - q) - math.lgamma(n1 + 1.0))
        * (t / (2.0 * math.pi)) ** n1
    )
    rho = (np.max(t) / (2.0 * math.pi)) * (1.0 + abs(q) / (m + 2.0))
    if rho >= 0.5:
        raise PrecisionError("polylog expansion called outside its safe range")
    return lead / (1.0 - rho)


def _li_exp_small_t(q: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Li_q(e^-t) for 0 < t <= 0.5 via the expansion around t = 0."""
    q_round = round(q)
    is_int = abs(q - q_round) < 1e-9 and q_round >= 1
    n_min = int(max(12, math.ceil(abs(q)) + 4, math.ceil(q) + 3))
    values = np.zeros_like(t)
    err = np.zeros_like(t)
    max_abs = np.zeros_like(t)
    if is_int:
        # q = 1 never gets here: _li_exp_neg serves it in closed form
        m = int(q_round)
        h = math.fsum(1.0 / l for l in range(1, m))
        log_term = (-t) ** (m - 1) / math.factorial(m - 1) * (h - np.log(t))
        values = values + log_term
        max_abs = np.maximum(max_abs, np.abs(log_term))
    else:
        gamma_term = math.gamma(1.0 - q) * t ** (q - 1.0)
        values = values + gamma_term
        max_abs = np.maximum(max_abs, np.abs(gamma_term))
    tpow = np.ones_like(t)
    fact = 1.0
    n = 0
    while True:
        if not (is_int and n == q_round - 1):
            zv, zb = _zeta_line(q - n)
            term = zv * tpow / fact
            values = values + term
            err = err + zb * np.abs(tpow) / fact
            max_abs = np.maximum(max_abs, np.abs(term))
        n += 1
        tpow = tpow * (-t)
        fact *= n
        if n >= n_min:
            rem = _li_series_bound(q, t, n)
            if np.all(rem <= 1e-18 * (1.0 + max_abs)):
                break
        if n > 80:
            rem = _li_series_bound(q, t, n)
            break
    err = err + rem + 8.0 * _EPS * (max_abs + np.abs(values)) * (n + 2.0)
    return values, err


def _li_exp_direct(q: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Li_q(e^-t) for t >= 0.5 by direct series in x = e^-t <= e^-0.5."""
    x = np.exp(-t)
    growth = max(0.0, -q)
    values = np.zeros_like(t)
    abssum = np.zeros_like(t)
    power = x.copy()
    m = 1
    while True:
        term = power * m ** (-q)
        values = values + term
        abssum = abssum + np.abs(term)
        rho = float(np.max(x)) * ((m + 1.0) / m) ** growth
        power = power * x
        geo = power * (m + 1.0) ** (-q)
        if rho < 1.0:
            bound = geo / (1.0 - rho)
            if np.all(bound <= 1e-18 * (1.0 + np.abs(values))):
                break
        m += 1
        if m > 4000:
            bound = geo / max(1e-3, (1.0 - rho))
            break
    err = bound + (m + 4.0) * _EPS * abssum
    return values, err


def _li_exp_neg(q: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if abs(q - round(q)) < 1e-9 and round(q) == 1:
        vals = -np.log(-np.expm1(-t))
        return vals, 8.0 * _EPS * (np.abs(vals) + 1.0)
    if float(np.max(t)) <= _LI_SMALL_T + 1e-12:
        return _li_exp_small_t(q, t)
    return _li_exp_direct(q, t)


# ---------------------------------------------------------------------------
# Quadrature for the integral representation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _integrand_factory(r: float, q: float) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    def f(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        li, li_err = _li_exp_neg(q, t)
        front = t ** (r - 1.0) / np.expm1(t)
        vals = front * li
        errs = np.abs(front) * li_err + 6.0 * _EPS * np.abs(vals)
        return vals, errs

    return f


def _panel_quad(f, a: float, b: float) -> tuple[float, float, float, int]:
    """Gauss-Legendre 16/32 pair on [a, b]: (I32, rule_est, feval_err, evals)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x16, w16 = _gl_rule(16)
    x32, w32 = _gl_rule(32)
    v16, _ = f(mid + half * x16)
    v32, e32 = f(mid + half * x32)
    i16 = half * float(np.dot(w16, v16))
    i32 = half * float(np.dot(w32, v32))
    feval = half * float(np.dot(w32, e32))
    return i32, abs(i32 - i16), feval, 48


def _adaptive_panel(f, a: float, b: float, budget: float, depth: int = 0) -> tuple[float, float, int]:
    i32, est, feval, evals = _panel_quad(f, a, b)
    bound = 1.5 * est + feval + 8.0 * _EPS * abs(i32)
    if bound <= budget or depth >= 52:
        if depth >= 52 and bound > budget:
            raise PrecisionError(f"quadrature stalled on [{a}, {b}]: bound {bound}")
        return i32, bound, evals
    mid = 0.5 * (a + b)
    l_val, l_bound, l_evals = _adaptive_panel(f, a, mid, 0.5 * budget, depth + 1)
    r_val, r_bound, r_evals = _adaptive_panel(f, mid, b, 0.5 * budget, depth + 1)
    return l_val + r_val, l_bound + r_bound, evals + l_evals + r_evals


def _li_large_t_coef(q: float, t_cut: float) -> float:
    """kappa with Li_q(e^-t) <= kappa * e^-t for all t >= t_cut."""
    if q >= 0.0:
        return 1.0 / (1.0 - math.exp(-t_cut))
    total = 1.0
    m = 2
    while True:
        piece = m ** (-q) * math.exp(-(m - 1.0) * t_cut)
        total += piece
        if piece < 1e-30:
            return total
        m += 1
        if m > 10000:
            raise PrecisionError("large-t polylog coefficient did not converge")


def _upper_cut(r: float, q: float, budget: float) -> tuple[float, float]:
    t_cut = max(20.0, 2.0 * r)
    while t_cut <= 120.0:
        kappa = _li_large_t_coef(q, t_cut) / (1.0 - math.exp(-t_cut))
        denom = 2.0 - (r - 1.0) / t_cut
        bound = kappa * t_cut ** (r - 1.0) * math.exp(-2.0 * t_cut) / denom
        if bound <= budget:
            return t_cut, bound
        t_cut += 4.0
    raise PrecisionError("could not place the upper integration cut")


def _head_bound(r: float, q: float, delta: float) -> float:
    """Upper bound for the integral over (0, delta], using 1/(e^t - 1) <= 1/t."""
    if q > 1.0 + 1e-9:
        zv, zb = _zeta_line(q)
        return (zv + zb) * delta ** (r - 1.0) / (r - 1.0)
    if abs(q - 1.0) <= 1e-9:
        # Li_1(e^-t) <= log(1/t) + 0.3 for t <= 1/2
        return delta ** (r - 1.0) / (r - 1.0) * (
            math.log(1.0 / delta) + 0.3 + 1.0 / (r - 1.0)
        )
    head = math.gamma(1.0 - q) * delta ** (r + q - 2.0) / (r + q - 2.0)
    if q < 0.0:
        head += (abs(q) / math.e) ** abs(q) * delta ** (r + q - 1.0) / (r + q - 1.0)
    return head


def _lower_cut(r: float, q: float, budget: float) -> tuple[float, float]:
    delta = 0.25
    for _ in range(800):
        bound = _head_bound(r, q, delta)
        if bound <= budget:
            return delta, bound
        delta *= 0.5
    raise PrecisionError("could not place the lower integration cut")


def mzv_integral(r: float, q: float, target_eps: float = DEFAULT_EPS) -> EvalReport:
    """Depth-two nested zeta value via its integral representation,

        (1/Gamma(r)) * integral_0^inf  t^(r-1) Li_q(e^-t) / (e^t - 1) dt,

    valid for real r > 1 and q > 2 - r.  Adaptive Gauss-Legendre panels on a
    geometrically graded mesh cover [delta, T]; the end regions are bounded
    analytically.  Panel error estimates come from a 16/32-point rule pair
    with a safety factor, so the reported bound is conservative but not a
    formal proof on the panel interiors.
    """
    r = float(r)
    q = float(q)
    _check_eps(target_eps)
    if not r > 1.0 + MIN_GAP:
        raise DomainError(f"integral representation requires r > 1 + {MIN_GAP}")
    if not q > 2.0 - r + MIN_GAP:
        raise DomainError(f"integral representation requires q > 2 - r + {MIN_GAP}")
    try:
        gam = math.gamma(r)
    except OverflowError:
        raise PrecisionError(f"mzv_integral: Gamma({r}) overflows double precision") from None
    tail_budget = 0.02 * target_eps * gam
    head_budget = 0.02 * target_eps * gam
    t_cut, tail_bound = _upper_cut(r, q, tail_budget)
    delta, head_bound = _lower_cut(r, q, head_budget)

    edges = [delta]
    while edges[-1] < _LI_SMALL_T:
        edges.append(min(_LI_SMALL_T, edges[-1] * 2.0))
    while edges[-1] < t_cut:
        edges.append(min(t_cut, edges[-1] * 2.0))

    f = _integrand_factory(r, q)
    quad_budget = 0.9 * target_eps * gam
    per_panel = quad_budget / len(edges)
    total = 0.0
    total_bound = 0.0
    evals = 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, bnd, n_ev = _adaptive_panel(f, a, b, per_panel)
        total += val
        total_bound += bnd
        evals += n_ev
    # The omitted end regions hold positive mass below their analytic
    # bounds; crediting half of each bound centres the truncation error,
    # which is then within 0.5 * bound (reported with a cushion).
    total += 0.5 * (head_bound + tail_bound)
    value = total / gam
    bound = (total_bound + 0.6 * tail_bound + 0.6 * head_bound) / gam + 6.0 * _EPS * abs(
        value
    )
    if bound > target_eps:
        raise PrecisionError(f"mzv_integral({r},{q}): bound {bound} > {target_eps}")
    return EvalReport(value, bound, evals)
