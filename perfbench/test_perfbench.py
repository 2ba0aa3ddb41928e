"""Self-check of the benchmark: reproducible op lists, sound references and
checks, and every metric named in BENCHMARK.json emitted with its unit.

Runs each workload in a quick mode on a handful of ops.
"""

import itertools
import json
import math

import pytest
from mpmath import mp, mpf

import run

run._import_program()

import bench_check  # noqa: E402
import bench_ops  # noqa: E402
import bench_ref  # noqa: E402

SPEC = run._SPEC
QUICK_OPS = 5


def _listing(workload, seed, n=200):
    return "\n".join(bench_ops.describe(op) for op in itertools.islice(bench_ops.op_stream(workload, seed), n))


@pytest.mark.parametrize("workload", bench_ops.WORKLOADS)
def test_same_seed_gives_byte_identical_op_list(workload):
    assert _listing(workload, 11) == _listing(workload, 11)
    assert _listing(workload, 11) != _listing(workload, 12)


@pytest.mark.parametrize("workload", bench_ops.WORKLOADS)
def test_each_block_has_the_fixed_class_mix(workload):
    block = bench_ops.BLOCKS[workload]
    size = sum(count for _, count in block)
    ops = list(itertools.islice(bench_ops.op_stream(workload, 3), 2 * size))
    for start in (0, size):
        kinds = [op[0].split(".")[0] if op[0].split(".")[0] in bench_ops.SUB_BLOCKS else op[0]
                 for op in ops[start:start + size]]
        assert sorted(kinds) == sorted(name for name, count in block for _ in range(count))


def test_samplers_stay_inside_the_domain():
    lo, gap = bench_ops.MIN_EXPONENT, bench_ops.INTEGER_GAP
    for op in itertools.islice(bench_ops.op_stream("tail_sum", 5), 400):
        exps = op[1]
        assert all(lo < p <= 4.0 for p in exps)
        assert sum(exps) > len(exps) + 1 + bench_ops.TAIL_SUM_SLACK
    for kind, params in itertools.islice(bench_ops.op_stream("integral", 5), 400):
        if kind.startswith("depth2."):
            r, q = params
            assert lo < r <= 4.0 and r + q > 2.0 + bench_ops.DEPTH2_SLACK
            assert q == round(q) if kind == "depth2.int" else abs(q - round(q)) >= gap
        elif kind == "kk1":
            assert lo < params[0] <= 4.0 and abs(params[0] - round(params[0])) >= gap
        elif kind == "square":
            k = params[0]
            assert bench_ops.SQUARE_MIN_K < k <= 4.0 and abs(k - round(k)) >= gap
        else:
            assert 0.5 <= params[0] <= 4.0 and 0.0 < params[1] < 1.0


def test_benchmark_json_names_this_command_and_its_workloads():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_ops.WORKLOADS)


@pytest.mark.parametrize("workload", bench_ops.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_quick_run_emits_every_metric_and_passes_its_checks(workload, trace):
    summary, lines = run.run_workload(workload, 1, 60.0, trace, setup_reps=1, max_ops=QUICK_OPS)
    assert summary["correct"], "\n".join(lines)
    assert summary["failed"] == 0, "\n".join(lines)
    assert summary["attempted"] == (3 if trace else 1) * QUICK_OPS
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == expected
    for m in summary["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    json.dumps(summary)


def test_tail_sum_reference_matches_closed_forms():
    with mp.workdps(30):
        assert abs(bench_ref.tail_sum((2.0, 2.0)) - (3 * mp.zeta(3) - mpf(5) / 2 * mp.zeta(4))) < 1e-27
        assert abs(bench_ref.tail_sum((3.0, 2.0)) - (2 * mp.zeta(4) - mp.zeta(2) * mp.zeta(3))) < 1e-27
        assert abs(bench_ref.depth_two(2.0, 1.0) - mp.zeta(3)) < 1e-27


def test_reference_does_not_depend_on_its_cutoff():
    cases = [params for _, params in itertools.islice(bench_ops.op_stream("tail_sum", 4), 8)]
    cases.append((1.0001, 1.0002, 3.0))  # close to the convergence boundary
    for exps in cases:
        a = bench_ref.weighted_tail_product_sum(exps)
        b = bench_ref.weighted_tail_product_sum(exps, cutoff=128, order=36)
        assert abs(a - b) <= 1e-25 * max(1, abs(a)), exps
    a = bench_ref.weighted_tail_product_sum((3.5,), -1.4)
    b = bench_ref.weighted_tail_product_sum((3.5,), -1.4, cutoff=128, order=36)
    assert abs(a - b) <= 1e-25


def test_fubini_numbers():
    assert [bench_check.fubini(k) for k in range(8)] == [1, 1, 3, 13, 75, 541, 4683, 47293]


def test_dual_index_is_a_weight_preserving_involution():
    assert bench_check.dual_index((2, 1, 2)) == (2, 3)
    assert bench_check.dual_index((2, 1)) == (3,)
    for idx in bench_ops.admissible_indices(9):
        dual = bench_check.dual_index(idx)
        assert sum(dual) == sum(idx) and dual[0] >= 2
        assert bench_check.dual_index(dual) == idx


def _first_completed(workload, kind):
    for op in bench_ops.op_stream(workload, 2):
        if op[0].startswith(kind):
            outcome = bench_ops.execute(op)
            if outcome.ok:
                return op, outcome
    raise AssertionError("unreachable: the op stream is endless")


def test_checks_reject_wrong_outputs():
    op, outcome = _first_completed("tail_sum", "tail_sum.k2")
    assert bench_check.check(op, outcome).passed
    data = json.loads(outcome.text)
    data["value"] += 3 * data["abs_error_bound"]
    outcome.text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert not bench_check.check(op, outcome).passed

    op, outcome = _first_completed("exact", "formula.k3")
    data = json.loads(outcome.text)
    data["terms"] = data["terms"][:-1] + [data["terms"][0]]
    outcome.text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert not bench_check.check(op, outcome).passed

    op, outcome = _first_completed("exact", "reduce.odd")
    data = json.loads(outcome.text)
    data["terms"][0]["coeff"] = str(1 + int(data["terms"][0]["coeff"].split("/")[0]))
    outcome.text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert not bench_check.check(op, outcome).passed

    op, outcome = _first_completed("exact", "dual")
    assert not bench_check.check(op, bench_ops.Outcome(True, text=outcome.text + " ")).passed
