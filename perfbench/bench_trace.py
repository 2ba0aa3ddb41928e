"""Spans around the calls into each zetatails module, recorded from outside.

Each public function is wrapped at the name its callers look up (``tails``
calls ``numerics.mzv``; ``core.compositions`` is reached as
``tails.compositions``).  Wrappers exist only while :meth:`Tracer.installed`
is active, so untraced ops run the original functions.  Spans are kept in
memory as (name, start, end, parent, op id, error) plus a few per-call
counters, and turned into per-layer figures at the end.  Spans inside the
program (private helpers, quadrature panels) are out of reach here.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from zetatails import cli, numerics, symbolic, tails

#: (metric prefix, owner object, attribute).  The prefix names the module
#: that defines the function, which is also the layer it is billed to.
WRAPPED = (
    ("cli.main", cli, "main"),
    ("tails.tail_product_formula", tails, "tail_product_formula"),
    ("tails.TailFormula.to_json", tails.TailFormula, "to_json"),
    ("tails.evaluate_formula", tails, "evaluate_formula"),
    ("tails.proposition_kk1", tails, "proposition_kk1"),
    ("tails.proposition_square", tails, "proposition_square"),
    ("numerics.mzv", numerics, "mzv"),
    ("numerics.brute_tail_product_sum", numerics, "brute_tail_product_sum"),
    ("numerics.mzv_integral", numerics, "mzv_integral"),
    ("numerics.polylog", numerics, "polylog"),
    ("numerics.zeta", numerics, "zeta"),
    ("symbolic.reduce_double_odd", symbolic, "reduce_double_odd"),
    ("symbolic.reduce_n1", symbolic, "reduce_n1"),
    ("symbolic.duality", symbolic, "duality"),
    ("core.compositions", tails, "compositions"),
)

MODULES = ("cli", "tails", "numerics", "symbolic", "core")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    error: bool = False
    #: Work the call reports (``terms_used``, or formula terms) and its bound.
    work: float = 0.0
    bound: float | None = None
    #: Positional arguments, kept only where a figure needs them.
    args: tuple = ()
    children: float = field(default=0.0, repr=False)


#: Calls whose arguments the figures compare: mzv prefixes, zeta repeats.
_KEEP_ARGS = {"numerics.mzv", "numerics.zeta"}


def _summarize(span: Span, args: tuple, result) -> None:
    if isinstance(result, numerics.EvalReport):
        span.work = float(result.terms_used)
        span.bound = result.abs_error_bound
    elif isinstance(result, tails.TailFormula):
        span.work = float(len(result.zeta_terms))
    if span.name in _KEEP_ARGS:
        span.args = tuple(tuple(a) if isinstance(a, (list, tuple)) else a for a in args)


class Tracer:
    """Records spans for the ops run inside :meth:`installed`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1, op=self._op)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                span.error = True
                stack.pop()
                raise
            span.end = time.perf_counter()
            stack.pop()
            _summarize(span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Wrap every function in WRAPPED for the duration of one op."""
        originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in WRAPPED]
        self._op = op_id
        try:
            for (name, owner, attr), (_, _, fn) in zip(WRAPPED, originals):
                setattr(owner, attr, self._wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, "error": s.error}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))

    def layer_figures(self, op_seconds: float, ops: int, out_bytes: int) -> dict[str, float]:
        """Per-layer figures over all recorded spans of ``ops`` traced ops.

        Self time is a span's duration minus the durations of its child spans
        (calls are sequential, so children never overlap).  Times are given
        as a share of ``op_seconds``, the wall time of the traced ops, and
        counts and output bytes per traced op, so that no figure grows with
        the number of ops a run gets through.
        """
        spans = self.spans
        for s in spans:
            s.children = 0.0
        for s in spans:
            if s.parent >= 0:
                spans[s.parent].children += s.end - s.start
        by_name: dict[str, list[Span]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for s in spans:
            by_name[s.name].append(s)
            self_s[s.name] += (s.end - s.start) - s.children
        figures: dict[str, float] = {}

        def share(seconds: float) -> float:
            return seconds / op_seconds if op_seconds > 0 else 0.0

        for name, _, _ in WRAPPED:
            figures[f"{name}.share"] = share(self_s[name])
            figures[f"{name}.self_s"] = self_s[name]
        for module in MODULES:
            total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
            figures[f"{module}.self_s"] = total
            figures[f"{module}.share"] = share(total)

        def ok(name):
            return [s for s in by_name[name] if not s.error]

        def per_op(count) -> float:
            return count / ops

        def errors(name):
            return per_op(sum(s.error for s in by_name[name]))

        def bound_p50(name):
            bounds = [s.bound for s in ok(name)]
            return statistics.median(bounds) if bounds else 0.0

        def terms(name):
            return per_op(sum(s.work for s in ok(name)))

        mzv = by_name["numerics.mzv"]
        figures["cli.main.out_bytes"] = per_op(out_bytes)
        figures["tails.tail_product_formula.terms"] = terms("tails.tail_product_formula")
        formula_calls = {i for i, s in enumerate(spans) if s.name == "tails.evaluate_formula"}
        under_formula: dict[int, list[Span]] = defaultdict(list)
        for s in mzv:
            if s.parent in formula_calls:
                under_formula[s.parent].append(s)
        figures["tails.evaluate_formula.indices"] = per_op(sum(map(len, under_formula.values())))
        levels = distinct = 0
        for calls in under_formula.values():
            index_args = [s.args[0] for s in calls]
            levels += sum(map(len, index_args))
            distinct += len({a[:j] for a in index_args for j in range(1, len(a) + 1)})
        figures["numerics.mzv.prefix_reuse"] = 1.0 - distinct / levels if levels else 0.0
        figures["tails.proposition_kk1.errors"] = errors("tails.proposition_kk1")
        figures["tails.proposition_square.errors"] = errors("tails.proposition_square")
        figures["numerics.mzv.calls"] = per_op(len(mzv))
        figures["numerics.mzv.grid_points"] = terms("numerics.mzv")
        figures["numerics.mzv.bound_p50"] = bound_p50("numerics.mzv")
        figures["numerics.mzv.errors"] = errors("numerics.mzv")
        figures["numerics.brute_tail_product_sum.grid_points"] = terms("numerics.brute_tail_product_sum")
        figures["numerics.brute_tail_product_sum.bound_p50"] = bound_p50("numerics.brute_tail_product_sum")
        figures["numerics.mzv_integral.integrand_evals"] = terms("numerics.mzv_integral")
        figures["numerics.mzv_integral.errors"] = errors("numerics.mzv_integral")
        figures["numerics.polylog.terms"] = terms("numerics.polylog")
        figures["numerics.polylog.errors"] = errors("numerics.polylog")
        zeta_args = [s.args for s in by_name["numerics.zeta"]]
        figures["numerics.zeta.calls"] = per_op(len(zeta_args))
        figures["numerics.zeta.repeat_frac"] = (
            1.0 - len(set(zeta_args)) / len(zeta_args) if zeta_args else 0.0
        )
        return figures
