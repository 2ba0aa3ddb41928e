"""zetatails benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload tail_sum --seed 1 --seconds 20 --trace 0

Runs the workload's seeded op stream for ``--seconds`` seconds of op time in
this single process (no threads; BLAS pinned to one thread), checks every
completed op against mpmath references, prints a readable report, and as the
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it runs part of the stream untraced, then runs the
same ops again traced and untraced in alternation, taking the layer figures
from the traced runs and the tracing overhead from the pairs.  Spans are
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: name -> (unit, better) of the metrics each mode reports, as BENCHMARK.json lists them.
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]}

#: Reported on every run in the readable part; zero or undefined on some
#: workloads, so they gate through ``correct``/``failed`` and the traced run
#: (as ``op.<name>``).
ACCURACY = {
    "fail_frac": ("ratio", "lower"),
    "uncovered_frac": ("ratio", "lower"),
    "err_p50": ("abs", "lower"),
    "bound_p50": ("abs", "lower"),
}

#: Also readable only: the gated times before scaling to reference speed.
UNGATED = {
    "wall_ops_per_s": ("1/s", "higher"),
    "wall_op_p50_ms": ("ms", "lower"),
    "wall_op_p90_ms": ("ms", "lower"),
}

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPS = 5
#: Nominal time of one calibration pass.  The host's speed swings by up to
#: 1.8x within seconds (a fixed k=5 tail-sum took 97 ms to 177 ms in one
#: minute on the 2-vCPU VM the baseline comes from), so every timed interval
#: is scaled by CALIBRATION_REF_S over the mean of the calibration passes run
#: just before and just after it.  Gated times are thus milliseconds at the
#: speed where one pass takes 1 ms; passes took 0.65 ms to 1 ms on that VM.
CALIBRATION_REF_S = 1e-3
#: Stand-in for +inf when a latency percentile lands on a failed op.
FAILED_LATENCY_MS = 1e9
#: Share of ``--seconds`` the traced run spends on its first, untraced pass.
TRACE_WARM_SHARE = 1.0 / 3.0

#: The set-up child prints its peak resident memory in kB (VmHWM) once its
#: warm-up op is done.  Not ru_maxrss: on Linux a child started by fork or
#: vfork and exec keeps the parent's peak in it, so it would read the size of
#: this harness process instead.
_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import zetatails, zetatails.cli, bench_ops; "
    "ok = bench_ops.execute(bench_ops.WARMUP[sys.argv[3]]).ok; "
    "hwm = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]; "
    "print(hwm if ok else 'warm-up failed', flush=True)"
)


def _import_program():
    """Import zetatails from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import zetatails
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import zetatails from {SRC}: {exc}")
    if SRC not in Path(zetatails.__file__).resolve().parents:
        sys.exit(f"perfbench: zetatails resolved to {zetatails.__file__}, not under {SRC}")


def calibration_s() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work that
    does not touch zetatails: a probe of how fast the host runs right now."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(2000):
        acc += math.sqrt(i) * 1.0001
        table[i & 255] = acc
    a = np.arange(1.0, 4097.0)
    for _ in range(12):
        a = np.cumsum(a[::-1])[::-1] * 1e-4 + a**-1.5
    return time.perf_counter() - t0


def scaled(fn):
    """Run fn(); return (its result, its wall time, that time at reference
    speed)."""
    before = calibration_s()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    after = calibration_s()
    return result, wall, wall * CALIBRATION_REF_S / (0.5 * (before + after))


@dataclass
class Record:
    op: tuple
    seconds: float  # op time at reference speed
    wall: float
    ok: bool
    error: str = ""
    passed: bool = True
    problems: tuple = ()
    err: float | None = None
    bound: float | None = None


def measure_setup(workload: str, reps: int) -> tuple[float, float]:
    """Medians over fresh interpreters of the time from spawn to warm-up op
    done (at reference speed) and of the peak resident memory (MB) by then.
    The child's exit is awaited outside the timed part."""
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload]
    times, rss = [], []
    for _ in range(reps):
        children = []

        def spawn_until_ready() -> str:
            children.append(subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT))
            return children[0].stdout.readline().strip()

        line, _, seconds = scaled(spawn_until_ready)
        with children[0] as proc:
            proc.communicate()
        if proc.returncode != 0 or not line.isdigit():
            raise RuntimeError(f"set-up child for {workload} printed {line!r}, exit {proc.returncode}")
        times.append(seconds)
        rss.append(int(line) / 1024.0)
    return statistics.median(times), statistics.median(rss)


def _run_op(op) -> tuple[object, Record]:
    import bench_check
    import bench_ops

    outcome, wall, seconds = scaled(lambda: bench_ops.execute(op))
    rec = Record(op, seconds, wall, outcome.ok, outcome.error)
    if outcome.ok:
        verdict = bench_check.check(op, outcome)
        rec.passed, rec.problems = verdict.passed, tuple(verdict.problems)
        rec.err, rec.bound = verdict.err, verdict.bound
    return outcome, rec


def timed_loop(ops, seconds: float, max_ops: int | None, block: int) -> list[Record]:
    """Closed loop: the next op starts when the previous one and its check end.

    Only op time counts towards ``seconds``; checking happens between ops.
    The loop ends on a block boundary, so every run has the exact class mix.
    """
    records: list[Record] = []
    busy = 0.0
    for op in ops:
        _, rec = _run_op(op)
        records.append(rec)
        busy += rec.seconds
        if (busy >= seconds and len(records) % block == 0) or len(records) == max_ops:
            break
    return records


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def accuracy_figures(records: list[Record]) -> dict[str, float | None]:
    completed = [r for r in records if r.ok]
    errs = [r.err for r in completed if r.err is not None]
    bounds = [r.bound for r in completed if r.bound is not None]
    return {
        "fail_frac": sum(not r.ok for r in records) / len(records),
        "uncovered_frac": sum(not r.passed for r in completed) / len(completed) if completed else 0.0,
        "err_p50": statistics.median(errs) if errs else None,
        "bound_p50": statistics.median(bounds) if bounds else None,
    }


def _rate_and_latency(records: list[Record], durations: list[float], prefix: str) -> dict[str, float]:
    """Goodput over all op time; latency percentiles with failed ops at +inf."""
    latencies = [d * 1e3 if r.ok else math.inf for r, d in zip(records, durations)]
    figures = {
        f"{prefix}ops_per_s": sum(r.ok for r in records) / sum(durations),
        f"{prefix}op_p50_ms": _percentile(latencies, 0.5),
        f"{prefix}op_p90_ms": _percentile(latencies, 0.9),
    }
    return {k: FAILED_LATENCY_MS if math.isinf(v) else v for k, v in figures.items()}


def end_to_end_figures(records: list[Record], setup: tuple[float, float]) -> dict[str, float | None]:
    return {
        "setup_s": setup[0],
        "setup_rss_mb": setup[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_rate_and_latency(records, [r.seconds for r in records], ""),
        **_rate_and_latency(records, [r.wall for r in records], "wall_"),
        **accuracy_figures(records),
    }


def traced_figures(ops, seconds: float, max_ops: int | None, block: int):
    """Untraced pass, then the same ops traced and untraced in alternation.

    The tracing overhead is the median over completed ops of traced over
    untraced wall time, minus 1: the two runs of an op are adjacent, so the
    host's speed swings cancel, and one op stalled by the host does not move
    the median.
    """
    from bench_trace import Tracer

    first_pass = timed_loop(ops, seconds * TRACE_WARM_SHARE, max_ops, block)
    records = list(first_pass)
    tracer = Tracer()
    traced_s = 0.0
    out_bytes = 0
    ratios = []
    for i, rec in enumerate(first_pass):
        pair = {}
        for traced_turn in ((True, False) if i % 2 == 0 else (False, True)):
            if traced_turn:
                with tracer.installed(i):
                    outcome, again = _run_op(rec.op)
                traced_s += again.wall
                out_bytes += len(outcome.text)
            else:
                _, again = _run_op(rec.op)
            pair[traced_turn] = again
            records.append(again)
        if pair[True].ok and pair[False].ok:
            ratios.append(pair[True].wall / pair[False].wall)
    figures = tracer.layer_figures(traced_s, len(first_pass), out_bytes)
    figures["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    # err/bound medians are undefined on exact, which has no numeric values
    figures.update({f"op.{k}": v or 0.0 for k, v in accuracy_figures(first_pass).items()})
    return records, figures, tracer


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_reps: int = SETUP_REPS,
    max_ops: int | None = None,
):
    """Run one workload; returns (summary dict, readable report lines)."""
    import bench_ops

    ops = bench_ops.op_stream(workload, seed)
    block = sum(count for _, count in bench_ops.BLOCKS[workload])
    warm = bench_ops.execute(bench_ops.WARMUP[workload])
    if not warm.ok:
        raise RuntimeError(f"warm-up op failed: {warm.error}")
    if trace:
        records, figures, tracer = traced_figures(ops, seconds, max_ops, block)
        specs = PER_LAYER
        tracer.write(ROOT / ".perfbench_out" / f"trace-{workload}-seed{seed}.json")
    else:
        setup = measure_setup(workload, setup_reps)
        records = timed_loop(ops, seconds, max_ops, block)
        figures = end_to_end_figures(records, setup)
        specs = END_TO_END
    summary = {
        "correct": all(r.passed for r in records),
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {name: {"value": figures[name], "unit": unit} for name, (unit, _) in specs.items()},
    }
    return summary, report_lines(workload, seed, records, figures, trace)


def report_lines(workload, seed, records, figures, trace) -> list[str]:
    import bench_ops
    import bench_trace

    ok = sum(r.ok for r in records)
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  "
        f"ops {len(records)} (completed {ok}, failed {len(records) - ok})  "
        f"op time {sum(r.seconds for r in records):.2f} s"
    ]
    if trace:
        lines.append("  layer                                  self_s      share")
        for name in (*bench_trace.MODULES, *(name for name, _, _ in bench_trace.WRAPPED)):
            lines.append(f"  {name:<36} {figures[name + '.self_s']:>9.4f}  {figures[name + '.share']:>9.4f}")
        named = {k: v for k, v in PER_LAYER.items() if not k.endswith(".share")}
    else:
        named = {**END_TO_END, **ACCURACY, **UNGATED}
    for name, (unit, better) in named.items():
        value = figures[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<44} {shown:>12} {unit:<6} ({better} is better)")
    by_kind: dict[str, list[Record]] = {}
    for r in records:
        by_kind.setdefault(r.op[0], []).append(r)
    for kind in sorted(by_kind):
        group = by_kind[kind]
        done = [r.seconds * 1e3 for r in group if r.ok]
        p50 = f"{statistics.median(done):.3f} ms" if done else "n/a"
        lines.append(f"  class {kind:<20} ops {len(group):>5}  failed {len(group) - len(done):>3}  p50 {p50}")
    seen = set()
    for r in records:
        if (not r.ok or not r.passed) and r.op not in seen:
            seen.add(r.op)
            reason = r.error if not r.ok else "; ".join(r.problems)
            lines.append(f"  {'FAILED' if not r.ok else 'UNCOVERED'} {bench_ops.describe(r.op)} -> {reason}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tail_sum", "integral", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    summary, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
