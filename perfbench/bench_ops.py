"""Workload definitions: seeded op streams and the calls that execute them.

An op is a plain tuple ``(kind, params)``.  Each workload draws its ops in
blocks whose class counts are fixed, so the class mix is a fixed proportion
and only the values and the order come from the seed.  Every workload must
run without a failed op, so each sampler's domain stops short of the regions
where the program refuses or stalls today (exponents near 1, weights near the
convergence boundary, q near an integer); the margins are the constants
below, and the excluded regions are listed in ``baseline.json``.

Execution goes through the public surface: ``zetatails.cli.main(argv)`` with
stdout captured where the CLI has a command, public library functions
otherwise.  Functions are looked up on their module at call time, so the
traced run sees the same calls.  This module imports nothing but the standard
library and zetatails, because the set-up measurement runs it in a fresh
interpreter.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import signal
from dataclasses import dataclass

from zetatails import cli, numerics, tails
from zetatails.errors import DomainError, PrecisionError

WORKLOADS = ("tail_sum", "integral", "exact")

#: Class counts per block.  tail_sum: 15/25/35/25 % at k = 2..5.  integral:
#: 40 % depth-two, 15 % each proposition, 30 % polylog.  exact: 25 % dual,
#: 25 % reduce, 8 % formula at each k = 2..5, 18 % formula at k = 6.
BLOCKS = {
    "tail_sum": (("tail_sum.k2", 3), ("tail_sum.k3", 5), ("tail_sum.k4", 7), ("tail_sum.k5", 5)),
    "integral": (("depth2", 8), ("kk1", 3), ("square", 3), ("polylog", 6)),
    "exact": (
        ("dual", 25),
        ("reduce", 25),
        ("formula.k2", 8),
        ("formula.k3", 8),
        ("formula.k4", 8),
        ("formula.k5", 8),
        ("formula.k6", 18),
    ),
}

#: Sub-class counts per block inside one class: of every ten depth-two ops
#: one has an integer q; of every five reduce ops one has n = 1.
SUB_BLOCKS = {
    "depth2": (("generic", 9), ("int", 1)),
    "reduce": (("odd", 4), ("n1", 1)),
}

#: Fixed op run once before any timing, and by the set-up measurement.
WARMUP = {
    "tail_sum": ("tail_sum.k2", (2.0, 2.0)),
    "integral": ("depth2.generic", (2.0, 3.0)),
    "exact": ("formula.k3", (2.0, 3.0, 4.0)),
}

#: Wall-clock limit per op, a guard against a hang: an op still running then
#: is interrupted and counts as failed.  The slowest ops take about 0.4 s,
#: and the host has stalled single ops by up to 5x.
OP_TIME_LIMIT_S = 5.0

#: Domain margins.  No op failed in over 25 000 drawn inside them.  The
#: farthest failures seen outside them: tail-sum refuses or times out for an
#: exponent of 1.13 or a sum within 0.32 of k + 1, proposition_kk1 for
#: k = 1.07 or within 0.00021 of an integer, mzv_integral for r = 1.05,
#: r + q within 0.093 of 2 or q within 0.005 of an integer (ROADMAP item 4),
#: proposition_square for k = 1.68 or within 0.0043 of an integer.
MIN_EXPONENT = 1.25
#: tail-sum exponents must sum above k + 1 + TAIL_SUM_SLACK.
TAIL_SUM_SLACK = 0.5
#: depth-two arguments must have r + q above 2 + DEPTH2_SLACK.
DEPTH2_SLACK = 0.25
#: Non-integer q of depth-two ops and k of both propositions keep this far
#: from an integer.
INTEGER_GAP = 0.02
#: Smallest k drawn for proposition_square.
SQUARE_MIN_K = 1.8

#: Largest weight of the admissible indices fed to ``dual``.
DUAL_MAX_WEIGHT = 12
#: Range of the integer arguments fed to ``reduce``.
REDUCE_RANGE = (2, 30)


class _Sequence:
    """Randomized quasi-Monte Carlo points in [0, 1)^dim.

    Point i is frac(shift + i * alpha) with alpha from the R_d sequence
    (powers of 1/phi_d, phi_d the positive root of x^(d+1) = x + 1) and a
    shift drawn from the seed.  Every point is uniform on the cube, as with
    plain random draws, but a run's points cover it evenly, so a finite run
    sees the same spread of inputs whatever the seed.  That keeps run-to-run
    variation down to the program and the machine.
    """

    def __init__(self, rng: random.Random, dim: int):
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        self.alpha = [phi ** -(j + 1) for j in range(dim)]
        self.shift = [rng.random() for _ in range(dim)]
        self.index = 0

    def next(self) -> list[float]:
        self.index += 1
        return [(s + self.index * a) % 1.0 for s, a in zip(self.shift, self.alpha)]


def _upper_open(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) to (lo, hi]."""
    return hi - (hi - lo) * u


def _dimension(kind: str) -> int:
    if kind.startswith(("tail_sum.k", "formula.k")):
        return int(kind.rsplit("k", 1)[1])
    return {"kk1": 1, "square": 1, "dual": 1, "reduce.n1": 1}.get(kind, 2)


def _off_integer(x: float) -> bool:
    return abs(x - round(x)) >= INTEGER_GAP


def _draw(kind: str, u: list[float], indices: list[tuple[int, ...]]):
    """Op parameters for the point u, or None when they fall outside the domain."""
    if kind.startswith("tail_sum.k"):
        exps = tuple(_upper_open(x, MIN_EXPONENT, 4.0) for x in u)
        return exps if sum(exps) > len(exps) + 1 + TAIL_SUM_SLACK else None
    if kind.startswith("formula.k"):
        # symbolic only: the whole convergent domain, exponents in (1, 4]
        exps = tuple(_upper_open(x, 1.0, 4.0) for x in u)
        return exps if sum(exps) > len(exps) + 1 else None
    if kind.startswith("depth2."):
        # r ~ U(MIN_EXPONENT, 4], q ~ U(2 - r, 4], an integer q snapped to
        r = _upper_open(u[0], MIN_EXPONENT, 4.0)
        q = _upper_open(u[1], 2.0 - r, 4.0)
        if kind == "depth2.int":
            q = float(round(q))
        elif not _off_integer(q):
            return None
        return (r, q) if r + q > 2.0 + DEPTH2_SLACK else None
    if kind == "kk1":
        k = _upper_open(u[0], MIN_EXPONENT, 4.0)
        return (k,) if _off_integer(k) else None
    if kind == "square":
        k = _upper_open(u[0], SQUARE_MIN_K, 4.0)
        return (k,) if _off_integer(k) else None
    if kind == "polylog":
        # q ~ U[0.5, 4], x = exp(-t) with log10 t ~ U[-4, log10 4]
        log_t = -4.0 + (math.log10(4.0) + 4.0) * u[1]
        return 0.5 + 3.5 * u[0], math.exp(-(10.0**log_t))
    if kind == "dual":
        return indices[int(u[0] * len(indices))]
    low, high = REDUCE_RANGE
    span = high - low + 1
    if kind == "reduce.n1":
        return (low + int(u[0] * span), 1)
    if kind == "reduce.odd":
        m, n = (low + int(x * span) for x in u)
        return (m, n) if (m + n) % 2 else None
    raise ValueError(f"unknown op kind {kind!r}")


def admissible_indices(max_weight: int) -> list[tuple[int, ...]]:
    """Integer indices with first entry >= 2, the rest >= 1, weight <= max_weight."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], room: int) -> None:
        out.append(prefix)
        for a in range(1, room + 1):
            extend(prefix + (a,), room - a)

    for first in range(2, max_weight + 1):
        extend((first,), max_weight - first)
    return out


def _shuffled_block(rng: random.Random, counts) -> list[str]:
    block = [name for name, count in counts for _ in range(count)]
    rng.shuffle(block)
    return block


def op_stream(workload: str, seed: int):
    """Endless, reproducible stream of ops for one workload and seed."""
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    indices = admissible_indices(DUAL_MAX_WEIGHT)
    pending_sub: dict[str, list[str]] = {name: [] for name in SUB_BLOCKS}
    sequences: dict[str, _Sequence] = {}
    while True:
        for kind in _shuffled_block(rng, BLOCKS[workload]):
            if kind in SUB_BLOCKS:
                if not pending_sub[kind]:
                    pending_sub[kind] = _shuffled_block(rng, SUB_BLOCKS[kind])
                kind = f"{kind}.{pending_sub[kind].pop()}"
            if kind not in sequences:
                sequences[kind] = _Sequence(rng, _dimension(kind))
            params = None
            while params is None:
                params = _draw(kind, sequences[kind].next(), indices)
            yield kind, params


def _numbers(values) -> str:
    return ",".join(repr(v) for v in values)


def cli_argv(op) -> list[str] | None:
    """The CLI command an op runs, or None for a library-only op."""
    kind, params = op
    if kind.startswith("tail_sum."):
        return ["tail-sum", "--exponents", _numbers(params), "--brute", "--format", "json"]
    if kind.startswith("formula."):
        return ["formula", "--exponents", _numbers(params), "--format", "json"]
    if kind.startswith("depth2."):
        return ["mzv", "--args", _numbers(params), "--format", "json"]
    if kind == "dual":
        return ["dual", "--args", _numbers(params), "--format", "json"]
    if kind.startswith("reduce."):
        return ["reduce", "--args", _numbers(params), "--format", "json"]
    return None


def describe(op) -> str:
    """One stable line per op; equal seeds give byte-identical listings."""
    kind, params = op
    argv = cli_argv(op)
    if kind.startswith("depth2."):
        return f"{kind}: mzv_integral({_numbers(params)}) + zetatails {' '.join(argv)}"
    if argv is not None:
        return f"{kind}: zetatails {' '.join(argv)}"
    name = {"kk1": "proposition_kk1", "square": "proposition_square"}.get(kind, kind)
    return f"{kind}: {name}({_numbers(params)})"


@dataclass
class Outcome:
    """What one op produced: ``ok`` plus CLI text and/or library reports."""

    ok: bool
    error: str = ""
    text: str = ""
    reports: tuple = ()


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class OpTimeout(Exception):
    """Raised inside an op that ran past its time limit."""


def execute(op) -> Outcome:
    """Run one op.  Refusals (exit 2/3, DomainError/PrecisionError), running
    past OP_TIME_LIMIT_S and any other exception end the op as failed, with
    the reason recorded.  The limit uses SIGALRM, so no thread starts."""

    def interrupt(signum, frame):
        raise OpTimeout(f"still running after {OP_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    try:
        return _execute(op)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute(op) -> Outcome:
    kind, params = op
    reports: tuple = ()
    try:
        if kind == "kk1":
            reports = tails.proposition_kk1(*params)
        elif kind == "square":
            reports = tails.proposition_square(*params)
        elif kind == "polylog":
            reports = (numerics.polylog(*params),)
        elif kind.startswith("depth2."):
            reports = (numerics.mzv_integral(*params),)
        argv = cli_argv(op)
        if argv is None:
            return Outcome(True, reports=reports)
        code, text, err = _run_cli(argv)
    except (DomainError, PrecisionError, OpTimeout) as exc:
        return Outcome(False, error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a traceback the program's error contract does not allow
        return Outcome(False, error=f"uncaught {type(exc).__name__}: {exc}")
    if code != 0:
        return Outcome(False, error=f"exit {code}: {err.strip()}")
    return Outcome(True, text=text, reports=reports)
