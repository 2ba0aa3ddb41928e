"""Floating-point evaluation with explicit absolute error bounds.

Every public operation returns an :class:`EvalReport` carrying a value and a
bound on its absolute error.  The bounds are propagated honestly: series
truncations use Euler-Maclaurin remainders or integral-test estimates,
quadrature panels carry Bernstein-ellipse remainder bounds, and float
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
values kept on an array 1..N and the expansion taking over past N.  A level
depends only on its argument prefix and N, so a batch of indices (the merged
indices of a tail formula) is a prefix tree: walked in sorted order, each
distinct prefix gets its expansion once, and the levels at the first cutoff
are then built one depth at a time, a block of nodes per 2-D array pass.
The same machinery accelerates the outer sum of a product of tails.

The double-series integral representation is split at t = 1/2.  Below it
the expansions of Li_q(e^(-t)) and t/(e^t - 1) around t = 0 are integrated
term by term, with the poles of the Gamma term and its zeta partner paired
exactly near integer q; e^(-t) is never formed there.  Above it one
16-point Gauss-Legendre rule per panel of a doubling mesh carries a
Bernstein-ellipse remainder bound, and an analytic bound closes the tail.
For t >= 1/2, and for the public :func:`polylog`, the series
sum_m x^m m^(-q) is summed directly by one kernel that forms its terms a
block at a time and keeps only per-block sums.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
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
    """Expansion of sum_{i>m} i^(-beta), beta > 1; also the continuation
    across the critical strip in :func:`_zeta_line`, hence the abs below."""
    terms = [
        (1.0 / (beta - 1.0), beta - 1.0),
        (-0.5, beta),
        (beta / 12.0, beta + 1.0),
        (-beta * (beta + 1.0) * (beta + 2.0) / 720.0, beta + 3.0),
    ]
    rc = abs(beta * (beta + 1.0) * (beta + 2.0) * (beta + 3.0) * (beta + 4.0)) / 30240.0
    return _pt_make(terms, rc, beta + 5.0)


def _pt_convolve(
    pt: _PowerTail, a: float, zeta_tail: Callable[[float], _PowerTail] = _zeta_tail_pt
) -> _PowerTail:
    """Expansion of  sum_{n>m} n^(-a) * pt(n).

    Every composite exponent a + e_l must exceed 1, which is exactly the
    convergence margin the callers enforce.  ``zeta_tail`` supplies the
    expansion of each zeta tail, so that a caller may memoise it.
    """
    terms: list[tuple[float, float]] = []
    rems: list[tuple[float, float]] = []
    for c, e in pt.terms:
        beta = a + e
        if beta <= 1.0 + 1e-9:
            raise PrecisionError(
                f"cannot bound tail: composite exponent {beta} too close to 1"
            )
        sub = zeta_tail(beta)
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


#: An error target :func:`zeta` meets at every s >= 2 it can evaluate at all.
_ZETA_FLOOR = 5e-14


def _zeta_floor(s: float) -> float:
    """An error target zeta(s) meets; nearer s = 1 it grows like the value,
    whose partial sums carry the float rounding."""
    return _ZETA_FLOOR * max(1.0, 0.75 / (s - 1.0))


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


#: First and largest number of terms the direct polylog series forms at once.
_LI_BLOCK_MIN = 16
_LI_BLOCK_MAX = 4096


def _li_series(
    q: float, x: np.ndarray, tol: float, name: Callable[[], str]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Li_q(x) = sum_{m>=1} x^m m^(-q) summed directly, for each x of a 1-D
    array in (0, 1); returns (values, error bounds, number of terms m).

    Terms come in blocks, each from two pow calls (a couple of ulp each),
    never from a running product, so the per-term float error stays a small
    multiple of eps.  Summation stops at the first m at which, for every x,
    the term ratio past m is provably some rho < 1 and the geometric
    majorant term_(m+1) / (1 - rho) of the rest is at most ``tol``.
    ``name()``, what was asked for, starts the error messages.
    """
    growth = max(0.0, -q)
    col = x[:, None]
    block_sums: list[list[float]] = []
    m0, size = 1, _LI_BLOCK_MIN
    while True:
        ms = np.arange(m0, m0 + size + 1.0)  # one past the block: the next term
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            terms = np.power(col, ms) * np.power(ms, -q)
            rho = col * np.power(ms[1:] / ms[:-1], growth)
            geo = terms[:, 1:] / (1.0 - rho)
        if not np.isfinite(terms).all():
            raise PrecisionError(f"{name()} not reached: a term overflows double precision")
        stops = np.flatnonzero(np.all((rho < 1.0) & (geo <= tol), axis=0))
        used = int(stops[0]) + 1 if stops.size else size
        block_sums.append([math.fsum(row) for row in terms[:, :used].tolist()])
        if stops.size:
            break
        m0 += size
        if m0 > _MAX_SERIES_TERMS:
            raise PrecisionError(f"{name()} not reached after {_MAX_SERIES_TERMS} terms")
        size = min(2 * size, _LI_BLOCK_MAX, _MAX_SERIES_TERMS - m0 + 1)
    values = np.array([math.fsum(row) for row in zip(*block_sums)])
    # Every term is positive, so the sum of their magnitudes is the value:
    # 6 eps per term covers the two pows and their product, 2 eps the block
    # sums and their sum.
    return values, geo[:, used - 1] + 8.0 * _EPS * values, m0 + used - 1


def polylog(q: float, x: float, target_eps: float = DEFAULT_EPS) -> EvalReport:
    """Li_q(x) = sum_{j>=1} x^j / j^q for 0 < x < 1 and any real q.

    Straight summation by :func:`_li_series`; once the term ratio is
    provably below 1 the geometric majorant of the remaining terms is used
    as stopping bound.
    """
    q = float(q)
    x = float(x)
    _check_eps(target_eps)
    if not (0.0 < x < 1.0):
        raise DomainError(f"polylog requires 0 < x < 1, got {x}")
    values, bounds, m = _li_series(
        q, np.array([x]), 0.5 * target_eps, lambda: f"polylog({q},{x}): {target_eps}"
    )
    value, bound = float(values[0]), float(bounds[0])
    if bound > target_eps:
        raise PrecisionError(f"polylog({q},{x}): bound {bound} > {target_eps}")
    return EvalReport(value, bound, m)


# ---------------------------------------------------------------------------
# Nested zeta series with real arguments
# ---------------------------------------------------------------------------


def _double_cutoff(
    build: Callable[[int], tuple[float, float]],
    n: int,
    n_max: int,
    target_eps: float,
    name: Callable[[], str],
) -> tuple[float, float, int]:
    """(value, bound, n) of ``build(n)`` at the first cutoff n, doubled from
    its start up to ``n_max``, whose bound meets ``target_eps``; ``name()``
    starts the error messages."""
    best = math.inf
    while n <= n_max:
        value, bound = build(n)
        if not math.isfinite(bound):
            raise PrecisionError(f"{name()}: bound is not finite at cutoff {n}")
        if bound <= target_eps:
            return value, bound, n
        best = min(best, bound)
        n *= 2
    raise PrecisionError(f"{name()}: best bound {best:.3e} > target {target_eps:.3e}")


def _require_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise DepthError(f"depth {depth} exceeds the supported maximum {MAX_DEPTH}")


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


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """Row-wise sums past each grid point: out[:, m] = sum of x[:, m:], and
    0 at the end of the grid."""
    out = np.zeros((x.shape[0], x.shape[1] + 1))
    x[:, ::-1].cumsum(axis=1, out=out[:, -2::-1])
    return out


def _mzv_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid points 1..n and, on 0..n, eps times the float operations
    left in a level's recurrence (plus 8), which weigh its rounding."""
    grid = np.arange(n + 1.0)
    return grid[1:], _EPS * ((n - grid) + 8.0)


def _mzv_levels(
    nodes: Sequence[tuple[float, float, float]],
    v_prev: np.ndarray,
    e_prev: np.ndarray,
    grid: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Levels of a batch of nested series on the grid 0..n, one row each.

    Node r is (a_j, seed, seed error) of a series whose last argument is
    a_j; its row is the tail function U_j, by the backward recurrence
    U_j(m) = U_j(m+1) + (m+1)^(-a_j) * U_{j-1}(m+1), seeded at U_j(n) by its
    expansion's value; U_0 = 1.  ``v_prev`` and ``e_prev`` hold U_{j-1} and
    its error envelope, a row per node or one row for all; ``grid`` is
    ``_mzv_grid(n)``.  Error envelopes are carried per grid point, so the
    decay of inner tails is not thrown away when a level has a growing
    weight n^(-a_j) with negative a_j.  Returns the values and the
    envelopes.
    """
    ns, eps_ops = grid
    cols = np.array(nodes)
    a, seed, seed_err = cols[:, 0:1], cols[:, 1:2], cols[:, 2:3]
    pw = ns ** -a
    if any(node[0] == -0.5 for node in nodes):
        # ``ns ** 0.5`` on its own is a square root, which the array power
        # misses by an ulp at some grid points
        pw[cols[:, 0] == -0.5] = np.sqrt(ns)
    v = _suffix_sums(pw * v_prev[:, 1:])
    v += seed
    e = _suffix_sums(pw * e_prev[:, 1:])
    e += seed_err
    del pw
    rounding = np.abs(v)
    rounding += np.abs(seed)
    rounding *= eps_ops
    e += rounding
    return v, e


def _mzv_end(v0: float, e0: float) -> tuple[float, float]:
    """(value, error bound) of a nested series from its top level's value
    and envelope at grid point 0."""
    # _TINY keeps the bound positive when every term underflows to zero
    return v0, e0 * (1.0 + 1e-9) + 4.0 * _EPS * abs(v0) + _TINY


def _mzv_path(path: Sequence[tuple[float, float, float]], n: int) -> tuple[float, float]:
    """(value, error bound) at cutoff n of the nested series whose levels
    are the nodes ``path`` (argument, seed, seed error), a level at a time."""
    grid = _mzv_grid(n)
    v, e = np.ones((1, n + 1)), np.zeros((1, n + 1))
    for node in path:
        v, e = _mzv_levels([node], v, e, grid)
    return _mzv_end(float(v[0, 0]), float(e[0, 0]))


#: Most nodes of one depth whose levels one array pass builds.
_ROW_BLOCK = 32


def _mzv_tree(
    nodes: list[list[tuple[float, float, float]]],
    parents: list[list[int]],
    kept: list[list[int]],
    leaves: list[tuple[int, int]],
    n: int,
) -> list[tuple[float, float]]:
    """(value, error bound) at cutoff n of the series ending at each leaf
    (depth, node) of a prefix tree.

    ``nodes[d]`` lists the nodes of depth d + 1 as (argument, seed, seed
    error), ``parents[d]`` the row of each node's parent among the rows kept
    from depth d, and ``kept[d]`` the nodes with children, whose rows are
    kept, in order.  The levels are built one depth at a time, up to
    ``_ROW_BLOCK`` nodes per array pass.
    """
    grid = _mzv_grid(n)
    v_up, e_up = np.ones((1, n + 1)), np.zeros((1, n + 1))
    ends = []
    for level, up_rows, with_children in zip(nodes, parents, kept):
        keep = np.zeros(len(level), dtype=bool)
        keep[with_children] = True
        v_next, e_next = np.empty((2, len(with_children), n + 1))
        v0: list[float] = []
        e0: list[float] = []
        for lo in range(0, len(level), _ROW_BLOCK):
            hi = lo + _ROW_BLOCK
            up = up_rows[lo:hi] if len(v_up) > 1 else slice(None)
            v, e = _mzv_levels(level[lo:hi], v_up[up], e_up[up], grid)
            v0 += v[:, 0].tolist()
            e0 += e[:, 0].tolist()
            rows = slice(bisect_left(with_children, lo), bisect_left(with_children, hi))
            v_next[rows], e_next[rows] = v[keep[lo:hi]], e[keep[lo:hi]]
        ends.append((v0, e0))
        v_up, e_up = v_next, e_next
    return [_mzv_end(ends[d][0][node], ends[d][1][node]) for d, node in leaves]


def _mzv_many(indices: Sequence[tuple[float, ...]], target_eps: float) -> list[EvalReport]:
    """``[mzv(a, target_eps) for a in indices]``, with each distinct argument
    prefix expanded once and its level at the first cutoff built once.

    A level depends only on its argument prefix and the cutoff, so the
    indices form a prefix tree whose nodes are their distinct prefixes.  The
    work runs in three phases.

    1. The indices are walked in sorted order, where a shared prefix is a
       run of neighbours.  The expansions of the current path stay on a
       stack; each index pops back to the prefix it shares with the previous
       one and pushes only its own nodes, each with its expansion's value at
       the first cutoff.  The first index refused (depth, margin, target or
       expansion) ends the walk.
    2. :func:`_mzv_tree` builds the first-cutoff levels one depth at a time
       in array passes, keeping only the rows of nodes with children.  A
       lone index has nothing to share or batch and takes its path.
    3. Each index walked reads its value.  One that misses the target
       doubles on alone, rebuilding its path at each cutoff, as in
       :func:`mzv`; formula indices seldom do.

    Raises what :func:`mzv` raises on the first refused index in sorted
    order.
    """
    zeta_tails: dict[float, _PowerTail] = {}

    def zeta_tail(beta: float) -> _PowerTail:
        if beta not in zeta_tails:
            zeta_tails[beta] = _zeta_tail_pt(beta)
        return zeta_tails[beta]

    def push(pts: list[_PowerTail], a: float) -> _PowerTail:
        pts.append(_pt_convolve(pts[-1], a, zeta_tail) if pts else zeta_tail(a))
        return pts[-1]

    first = 64
    nodes: list[list[tuple[float, float, float]]] = []
    parents: list[list[int]] = []
    kept: list[list[int]] = []
    path: list[list[int]] = []  # per depth of the current path: [node, kept row or -1]
    pts: list[_PowerTail] = []
    prev: tuple[float, ...] = ()
    walked: list[tuple[int, tuple[float, ...]]] = []
    leaves: list[tuple[int, int]] = []
    refusal = None
    for i in sorted(range(len(indices)), key=indices.__getitem__):
        args = indices[i]
        try:
            _require_depth(len(args))
            _require_margins(args)
            _check_eps(target_eps)
            if target_eps < 1e-10:
                raise DomainError(f"target_eps below 1e-10 is not supported, got {target_eps}")
            shared = 0
            while shared < min(len(prev), len(args)) and prev[shared] == args[shared]:
                shared += 1
            del pts[shared:], path[shared:]
            prev = args
            for d in range(shared, len(args)):
                node = (args[d], *_pt_eval(push(pts, args[d]), first))
                if d == len(nodes):
                    for per_depth in (nodes, parents, kept):
                        per_depth.append([])
                row = 0
                if d:
                    up = path[d - 1]
                    if up[1] < 0:
                        up[1] = len(kept[d - 1])
                        kept[d - 1].append(up[0])
                    row = up[1]
                path.append([len(nodes[d]), -1])
                nodes[d].append(node)
                parents[d].append(row)
        except (DomainError, PrecisionError) as exc:
            refusal = exc
            break
        walked.append((i, args))
        leaves.append((len(args) - 1, path[-1][0]))

    reports: list = [None] * len(indices)
    # a level that overflows leaves a non-finite bound, which is refused
    with np.errstate(over="ignore", invalid="ignore"):
        if len(indices) == 1 and walked:
            at_first = [_mzv_path([level[0] for level in nodes], first)]
        else:
            at_first = _mzv_tree(nodes, parents, kept, leaves, first)
        for (i, args), result in zip(walked, at_first):
            (value, bound), n = result, first
            if not bound <= target_eps:
                # the stack still holds the expansions of the last index walked
                path_pts = pts if args == prev else []
                for a in args[len(path_pts) :]:
                    push(path_pts, a)
                value, bound, n = _double_cutoff(
                    lambda n: result
                    if n == first
                    else _mzv_path([(a, *_pt_eval(pt, n)) for a, pt in zip(args, path_pts)], n),
                    first,
                    2**19,
                    target_eps,
                    lambda: f"mzv{args}",
                )
            reports[i] = EvalReport(value, bound, len(args) * n)
    if refusal is not None:
        try:
            raise refusal
        finally:
            # the traceback holds this frame; a frame holding the exception
            # would keep both, and every level, alive until a collection
            refusal = None
    return reports


def mzv(index: MzvIndex | Sequence[float], target_eps: float | None = None) -> EvalReport:
    """Nested zeta value  sum_{n1 > ... > nk >= 1}  n1^(-a1) ... nk^(-ak).

    Real arguments are accepted whenever every prefix sum a1 + ... + aj
    exceeds j by at least the safety margin.  Depth is capped at
    ``MAX_DEPTH``; the error bound honours ``target_eps`` or the evaluation
    fails with :class:`PrecisionError`.
    """
    args = as_args(index)
    if target_eps is None:
        target_eps = DEFAULT_EPS if len(args) <= 2 else DEFAULT_EPS_DEEP
    return _mzv_many([args], target_eps)[0]


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
    value, bound, n = _double_cutoff(
        lambda n: _brute_build(exps, pts, tail_pt, n),
        256,
        2**22,
        target_eps,
        lambda: f"brute_tail_product_sum{exps}",
    )
    return EvalReport(value, bound, n)


# ---------------------------------------------------------------------------
# The integral representation: an analytic head on [0, 1/2], Gauss-Legendre
# panels on [1/2, T] and an analytic tail
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8192)
def _zeta_line(s: float) -> tuple[float, float]:
    """(value, bound) for zeta at any real s != 1.

    From s = -0.5 on this is the partial sum to 64 plus the tail expansion
    at 64: read as an identity in s it extends across the critical strip,
    with the same first-omitted-term remainder bound for s > -5.  Further
    left the reflection formula maps back to arguments >= 1.5, and the
    bound also covers any argument within half an ulp of s, as
    |zeta'| <= A(s) zeta(1-s) (6 + log(1-s)) there: a caller's q - n
    rounds only left of -1/2 (Sterbenz).
    """
    if s >= -0.5:
        # 64 positive terms, each pow within an ulp, and one fsum: 2 eps of
        # the partial sum; the expansion's own rounding is in tb
        partial = math.fsum(i ** (-s) for i in range(1, 65))
        tv, tb = _pt_eval(_zeta_tail_pt(s), 64)
        return partial + tv, tb + 4.0 * _EPS * (abs(partial) + abs(tv))
    # zeta(s) = A(s) sin(pi s / 2) zeta(1-s), A(s) = 2^s pi^(s-1) Gamma(1-s)
    zv, zb = _zeta_line(1.0 - s)
    log_amp = s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + math.lgamma(1.0 - s)
    amp = math.exp(log_amp)
    sin_val = math.sin(math.pi * s / 2.0)
    value = amp * sin_val * zv
    # sin suffers absolute error ~ eps * |pi s / 2| from argument reduction
    sin_err = 2.0 * _EPS * (abs(math.pi * s / 2.0) + 1.0)
    slip = 0.5 * _EPS * abs(s) * (6.0 + math.log(1.0 - s))
    bound = amp * (abs(sin_val) * (zb + 8.0 * _EPS * abs(zv)) + (sin_err + slip) * abs(zv))
    return value, bound * 1.01 + 4.0 * _EPS * abs(value)


#: Where the head ends and the panels begin; a power of two, so that
#: _HEAD_T^k is exact.
_HEAD_T = 0.5


def _bernoulli(count: int) -> tuple[float, ...]:
    """B_j / j! for j < count, the Taylor coefficients of t / (e^t - 1),
    rounded once from their exact values."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(b[k] / math.factorial(m + 1 - k) for k in range(m)))
    return tuple(float(x) for x in b)


#: B_j / j! for j < 24; |B_j| / j! <= 4 / (2 pi)^j bounds the rest.
_BERNOULLI = _bernoulli(24)


def _li_series_bound(q: float, t: float, m: int) -> float:
    """Majorant at 0 < t <= _HEAD_T of |zeta(q-n)| t^n / n! summed over
    n > m >= q.

    Uses |zeta(q-n)| <= 2 (2 pi)^(q-n-1) Gamma(1+n-q) zeta(1+n-q) for
    n - q >= 1, and a geometric ratio below (t/2pi)(1 + |q|/(m+2)).
    """
    n1 = m + 1
    rho = (t / (2.0 * math.pi)) * (1.0 + abs(q) / (m + 2.0))
    if rho >= 0.5:
        raise PrecisionError(f"Li_{q}(e^-t): expansion called outside its safe range")
    log_lead = (
        (q - 1.0) * math.log(2.0 * math.pi)
        + math.lgamma(1.0 + n1 - q)
        - math.lgamma(n1 + 1.0)
        + n1 * math.log(t / (2.0 * math.pi))
    )
    return 6.0 * math.exp(log_lead) / (1.0 - rho)


def _expm1_over(x: float, e: float) -> float:
    """(e^(e x) - 1) / e, and its limit x at e = 0."""
    return math.expm1(e * x) / e if e else x


def _pole_pair(m: int, e: float) -> tuple[float, float, float, float]:
    """(c, c_err, g, g_err) at q = m + 1 + e, |e| <= 1/2, for
    c = Gamma(1-q) + zeta(1+e) s and g = Gamma(1-q) e, s = (-1)^m / m!.

    Both are finite at e = 0.  Gamma(1-q) = -s exp(lam e) / e, with
    lam e = log Gamma(1-e) - sum_{i<=m} log1p(e/i) and log Gamma(1-e) =
    gamma e + sum_{k>=2} zeta(k) e^k / k; so g = -s exp(lam e) and
    c = s (zeta(1+e) - 1/e - expm1(lam e) / e).  zeta(1+e) - 1/e is the
    Euler-Maclaurin sum of :func:`_zeta_tail_pt` at 256, with its leading
    term less 1/e formed as expm1(-e log 256) / e.
    """
    s = (-1) ** m / math.factorial(m)  # 0.0 past m = 170
    parts = [0.5772156649015329]  # Euler's gamma, then the zeta(k) e^(k-1) / k
    lam_err, k = 0.0, 2
    while abs(e) ** (k - 1) > 2.0**-60:
        zv, zb = _zeta_line(float(k))
        parts.append(zv * e ** (k - 1) / k)
        lam_err += zb * abs(e) ** (k - 1) / k
        k += 1
    lam_err += 2.0 * abs(e) ** (k - 1) / (k * (1.0 - abs(e)))  # the rest, zeta(k) <= 2
    parts += [-(math.log1p(e / i) / e if e else 1.0 / i) for i in range(1, m + 1)]
    lam = math.fsum(parts)
    lam_err += 4.0 * _EPS * math.fsum(abs(p) for p in parts)
    cut = 256.0
    partial = math.fsum(np.power(np.arange(1.0, cut + 1.0), -1.0 - e).tolist())
    em = [
        _expm1_over(-math.log(cut), e),
        -0.5 * cut ** (-1.0 - e),
        (1.0 + e) / 12.0 * cut ** (-2.0 - e),
        -(1.0 + e) * (2.0 + e) * (3.0 + e) / 720.0 * cut ** (-4.0 - e),
    ]
    zeta_rest = math.fsum([partial, *em])
    zeta_err = (1.0 + e) * (2.0 + e) * (3.0 + e) * (4.0 + e) * (5.0 + e) / 30240.0
    zeta_err = zeta_err * cut ** (-6.0 - e) + 8.0 * _EPS * (partial + math.fsum(map(abs, em)))
    grow = math.exp(abs(lam * e) + abs(lam_err * e))
    phi = _expm1_over(lam, e)
    c_err = zeta_err + grow * lam_err + 4.0 * _EPS * (abs(zeta_rest) + abs(phi))
    g_err = grow * (abs(e) * lam_err + 4.0 * _EPS)
    return s * (zeta_rest - phi), abs(s) * c_err, -s * math.exp(lam * e), abs(s) * g_err


def _li_exp_coefs(q: float, count: int) -> tuple[list, list, int | None, float, float]:
    """(c, err, pair, sing, sing_err): Li_q(e^-t) for 0 < t < 2 pi as
    sum_{n<count} c_n t^n, each c_n within err[n], the rest past it, and one
    singular term, within sing_err:

    * pair None: sing t^(q-1), sing = Gamma(1-q), and c_n = zeta(q-n) (-1)^n / n!;
    * pair m, within 1/2 of q = m + 1: sing t^m (t^e - 1) / e with
      e = q - m - 1 (t^m log t at e = 0); c_m and sing are the pole pair of
      :func:`_pole_pair`, so integer q needs no case of its own.
    """
    pair = math.floor(q + 0.5) - 1
    if pair < 0:
        pair, sing = None, math.gamma(1.0 - q)
        sing_err = 16.0 * _EPS * abs(sing)
    coef, err = [], []
    for n in range(count):
        if n == pair:
            c, c_err, sing, sing_err = _pole_pair(n, q - n - 1.0)
        else:
            zv, zb = _zeta_line(q - n)
            inverse = 1 / math.factorial(n)  # correctly rounded, 0.0 past n = 170
            c, c_err = (-1) ** n * zv * inverse, zb * inverse
        coef.append(c)
        err.append(c_err)
    return coef, err, pair, sing, sing_err


#: Most terms of the Li_q(e^-t) expansion the head takes; it needs more than q.
_MAX_HEAD_TERMS = 1024


def _head(r: float, q: float) -> tuple[float, float, int]:
    """(value, bound, terms) of the integral of t^(r-1) Li_q(e^-t) / (e^t - 1)
    over [0, d], d = _HEAD_T: the expansions of Li_q(e^-t) and t / (e^t - 1)
    integrated term by term.

    c_n t^n b_j t^j integrates to d^(r-1+n+j) / (r-1+n+j), the Gamma term
    to d^(r+q-2+j) / (r+q-2+j), and a pole pair t^m (t^e - 1) / e to
    d^a (a expm1(e log d) / e - 1) / (a (a+e)), a = r - 1 + m + j.  The
    bound adds the coefficient errors, a rounding charge per term, the
    Li series past its last term, and the Bernoulli series past
    _BERNOULLI against Li_q(e^-t) <= Li_q'(e^-t) <= Gamma(1-q') t^(q'-1),
    q' = min(q, 1/2), plus the largest term (|q|/e)^|q| t^q for q < 0: the
    sum of x^-q e^(-xt) is below its integral and its peak.
    """
    d, p0 = _HEAD_T, r - 1.0  # exact for r > 1
    scale = 1.0 if q >= 0.0 else math.gamma(1.0 - q) * d ** (q - 1.0)
    count = max(16, math.ceil(abs(q)) + 4)
    if count > _MAX_HEAD_TERMS:
        raise PrecisionError(f"Li_{q}(e^-t): the expansion needs over {_MAX_HEAD_TERMS} terms")
    while (rest := _li_series_bound(q, d, count - 1)) > 1e-18 * scale:
        if count + 8 > _MAX_HEAD_TERMS:
            break
        count += 8
    coef, err, pair, sing, sing_err = _li_exp_coefs(q, count)
    b, j = np.array(_BERNOULLI), np.arange(len(_BERNOULLI))
    nj = np.arange(count)[:, None] + j
    w = np.ldexp(d**p0, -nj) / (p0 + nj)  # integrals of t^(r-2+n+j)
    terms = np.array(coef)[:, None] * b * w
    p1 = math.fsum((r, q, -2.0))  # r + q - 2, correctly rounded
    if pair is None:
        sing_terms = sing * b * (np.ldexp(d**p1, -j) / (p1 + j))
    else:
        a = p0 + pair + j
        sing_terms = sing * b * np.ldexp(d**p0, -(pair + j))
        sing_terms *= (a * _expm1_over(math.log(d), q - pair - 1.0) - 1.0) / (a * (p1 + j))
    abs_sing = float(np.abs(sing_terms).sum())
    trunc_li = rest * d**p0 / (r + count - 1.0)
    p = p0 + len(b)  # the Bernoulli remainder's t^(r-2+24) against the majorant
    qm = min(q, 0.5)
    majorant = math.gamma(1.0 - qm) * d ** (p + qm - 1.0) / (p + qm - 1.0) + rest * d**p / p
    if q < 0.0:
        majorant += (-q / math.e) ** -q * d ** (p + q) / (p + q)
    value = math.fsum([*terms.ravel().tolist(), *sing_terms.tolist()])
    bound = _up(
        float(np.array(err) @ (np.abs(b) * w).sum(axis=1)),
        sing_err / max(abs(sing), _TINY) * abs_sing,
        trunc_li,
        4.0 * (2.0 * math.pi) ** -len(b) / (1.0 - d / (2.0 * math.pi)) * majorant,
        _EPS * (6.0 * float(np.abs(terms).sum()) + 16.0 * abs_sing + abs(value)),
    )
    return value, bound, count


def _li_exp_neg(q: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Li_q(e^-t) for t >= _HEAD_T by the direct series, with error bounds."""
    values, bounds, _ = _li_series(q, np.exp(-t), 1e-18, lambda: f"Li_{q}(e^-t): 1e-18")
    return values, bounds


def _integrand_factory(r: float, q: float) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    def f(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        li, li_err = _li_exp_neg(q, t)
        front = t ** (r - 1.0) / np.expm1(t)
        vals = front * li
        errs = np.abs(front) * li_err + 6.0 * _EPS * np.abs(vals)
        return vals, errs

    return f


@lru_cache(maxsize=8)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


#: |I - I_16| <= half * _GL_REMAINDER * max|f| on the Bernstein ellipse
#: E_rho, rho = 4, of a panel of half-width ``half`` (Trefethen, SIAM
#: Review 2008, Thm 4.5: (64/15) rho^(-2n) / (rho^2 - 1), n = 16).  The
#: ellipse's real semi-axis is _RHO_AXIS half-widths.
_GL_REMAINDER = 64.0 / 15.0 * 4.0**-32 / (4.0**2 - 1.0)
_RHO_AXIS = 0.5 * (4.0 + 1.0 / 4.0)

#: The real semi-axis of the thinner ellipse (rho = 3/2) on which Cauchy's
#: estimate bounds f' at distance (_NODE_AXIS - 1) * half for the node rounding.
_NODE_AXIS = 0.5 * (1.5 + 1.0 / 1.5)

#: Most rounds in which :func:`_panels` halves panels.
_PANEL_SPLITS = 6


def _ellipse_bounds(
    r: float, q: float, a: np.ndarray, b: np.ndarray, axis: float
) -> tuple[np.ndarray, np.ndarray]:
    """(M, L) per panel [a, b]: M >= |f| and L >= |Li_q(e^-t)| on its
    ellipse of real semi-axis ``axis`` half-widths, f = t^(r-1) Li_q(e^-t) / (e^t - 1).

    There |t^(r-1)| <= |t|max^(r-1), |Li_q(e^-t)| <= Li_q(e^-Re t) term by
    term and |e^t - 1| >= e^(Re t) - 1, so real evaluations suffice.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    low = mid - axis * half
    # no panel is wider than its left end, which keeps low >= 0.4375 a
    assert (low > 0.0).all(), "a Bernstein ellipse reaches Re t <= 0"
    li, li_err, _ = _li_series(q, np.exp(-low), 1e-3, lambda: f"Li_{q}(e^-t) on an ellipse")
    li_up = 1.01 * (li + li_err)
    return 1.01 * (mid + axis * half) ** (r - 1.0) * li_up / np.expm1(low), li_up


def _panels(r: float, q: float, t_cut: float, budget: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, M) of the panels covering [_HEAD_T, t_cut], M on each E_rho.

    The mesh doubles from _HEAD_T.  For at most _PANEL_SPLITS rounds, a
    panel is halved while its remainder bound exceeds both 2 eps f(mid),
    about its rounding, and ``budget`` per unit of t, times its width.
    """
    edges = [_HEAD_T]
    while edges[-1] < t_cut:
        edges.append(min(t_cut, 2.0 * edges[-1]))
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    f = _integrand_factory(r, q)
    for _ in range(_PANEL_SPLITS):
        big = _ellipse_bounds(r, q, a, b, _RHO_AXIS)[0]
        mid = 0.5 * (a + b)
        share = np.maximum(2.0 * _EPS * f(mid)[0], budget / (t_cut - _HEAD_T))
        over = _GL_REMAINDER * 0.5 * big > share
        if not over.any():
            return a, b, big
        a, b = np.sort(np.concatenate([a, mid[over]])), np.sort(np.concatenate([b, mid[over]]))
    return a, b, _ellipse_bounds(r, q, a, b, _RHO_AXIS)[0]


def _panel_sums(
    r: float, q: float, a: np.ndarray, b: np.ndarray, big: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(I, bound) per panel [a, b]: the 16-point Gauss-Legendre sum, all
    nodes in one integrand call, and its error bound.

    The bound adds the remainder from ``big``, the integrand's own error,
    the weights and the sum, and the rounding of the nodes (4 eps b, and
    eps b at each end) and of e^-t (4 eps in t), through f' and the slope
    of Li_q(e^-t) by Cauchy's estimate on the _NODE_AXIS ellipse.
    """
    x16, w16 = _gl_rule(16)
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * x16
    # t^(r-1) can overflow at large r; the caller refuses a non-finite bound
    with np.errstate(over="ignore", invalid="ignore"):
        vals, errs = _integrand_factory(r, q)(nodes.ravel())
        parts = half * (vals.reshape(nodes.shape) @ w16)
        thin, li_up = _ellipse_bounds(r, q, a, b, _NODE_AXIS)
        front = np.maximum(a ** (r - 1.0), b ** (r - 1.0)) / np.expm1(a)
        reach = _NODE_AXIS - 1.0
        bounds = (
            _GL_REMAINDER * half * big
            + half * (errs.reshape(nodes.shape) @ w16)
            + 32.0 * _EPS * parts
            + _EPS * b * thin * (8.0 / reach + 2.0)
            + 8.0 * _EPS * front * li_up / reach
        )
    return parts, bounds


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


def mzv_integral(r: float, q: float, target_eps: float = DEFAULT_EPS) -> EvalReport:
    """Depth-two nested zeta value via its integral representation,

        (1/Gamma(r)) * integral_0^inf  t^(r-1) Li_q(e^-t) / (e^t - 1) dt,

    valid for real r > 1 and q > 2 - r, in three pieces, each with a
    rigorous bound: [0, 1/2] from the expansions around t = 0 integrated
    term by term (:func:`_head`); [1/2, T] by one 16-point Gauss-Legendre
    rule per panel of the doubling mesh 1/2, 1, 2, ..., T, with a
    Bernstein-ellipse remainder bound (:func:`_panels`, :func:`_panel_sums`);
    [T, inf) bounded analytically, half the bound credited (:func:`_upper_cut`).
    Raises :class:`PrecisionError` when the bounds sum past ``target_eps``.
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
    t_cut, tail_bound = _upper_cut(r, q, 0.02 * target_eps * gam)
    head, head_bound, head_terms = _head(r, q)
    a, b, big = _panels(r, q, t_cut, 1e-9 * target_eps * gam)
    parts, panel_bounds = _panel_sums(r, q, a, b, big)
    total = math.fsum([head, *parts.tolist(), 0.5 * tail_bound])
    # the omitted tail holds positive mass below its bound; crediting half
    # of it centres the truncation error within 0.5 * bound
    total_bound = _up(head_bound, *panel_bounds.tolist(), 0.6 * tail_bound, _EPS * abs(total))
    value = total / gam
    bound = total_bound / gam + 6.0 * _EPS * abs(value)
    if not bound <= target_eps:
        raise PrecisionError(f"mzv_integral({r},{q}): bound {bound} > {target_eps}")
    return EvalReport(value, bound, head_terms + 16 * parts.size)
