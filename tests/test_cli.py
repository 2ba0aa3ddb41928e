import json
import subprocess
import sys

import pytest

from zetatails import cli, verify
from zetatails.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValueCommands:
    def test_zeta_text(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--args", "2")
        assert code == 0
        assert "value = 1.644934066" in out
        assert "abs_error_bound" in out

    def test_zeta_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--args", "3", "--format", "json")
        assert code == 0
        line = out.strip()
        assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line

    def test_zeta_csv(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--args", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "abs_error_bound"
        assert len(lines) == 2

    def test_mzv(self, capsys):
        code, out, _ = run_cli(capsys, "mzv", "--args", "2,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 1.2020569031595943) < 1e-8

    def test_tail_sum_with_brute(self, capsys):
        code, out, _ = run_cli(
            capsys, "tail-sum", "--exponents", "2,2", "--brute", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        # 3 zeta(3) - (5/2) zeta(4)
        assert abs(payload["value"] - 0.9003626252) < 1e-8
        assert abs(payload["brute_value"] - payload["value"]) <= payload["abs_difference"] + 1e-15
        assert payload["abs_difference"] < 1e-8


class TestSymbolicCommands:
    def test_dual(self, capsys):
        code, out, _ = run_cli(capsys, "dual", "--args", "2,1,2")
        assert code == 0
        assert out.strip() == "2,3"

    def test_dual_json(self, capsys):
        code, out, _ = run_cli(capsys, "dual", "--args", "2,1,2", "--format", "json")
        assert json.loads(out) == {"args": [2, 1, 2], "dual": [2, 3]}

    def test_formula_symbolic_text(self, capsys):
        code, out, _ = run_cli(capsys, "formula", "--exponents", "p,q")
        assert code == 0
        assert out.strip() == (
            "zeta(p, q-1) + zeta(q, p-1) + zeta(p+q-1) - zeta(p)*zeta(q)"
        )

    def test_formula_triple_term_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "formula", "--exponents", "p,q,r", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["k"] == 3
        assert len(payload["terms"]) == 13
        assert payload["product_coeff"] == "-1"

    def test_formula_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "formula", "--exponents", "p,q,r", "--format", "json"
        )
        line = out.strip()
        assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line

    def test_formula_duplicate_symbols(self, capsys):
        code, _, err = run_cli(capsys, "formula", "--exponents", "p,p")
        assert code == 2
        assert "distinct" in err

    def test_reduce_n1(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--args", "4,1")
        assert code == 0
        assert out.strip() == "zeta(4,1) = -zeta(2)*zeta(3) + 2*zeta(5)"

    def test_reduce_odd(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--args", "3,2", "--format", "json")
        payload = json.loads(out)
        assert payload == {
            "terms": [
                {"coeff": "3", "monomial": [2, 3]},
                {"coeff": "-11/2", "monomial": [5]},
            ]
        }


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "zeta", "--bogus", "2")
        assert code == 64

    def test_usage_error_bad_number(self, capsys):
        code, _, _ = run_cli(capsys, "mzv", "--args", "2,x")
        assert code == 64

    def test_usage_error_no_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 64

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--args", "0.5")
        assert code == 2
        assert "domain error" in err

    def test_precision_error(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--args", "1.000002", "--eps", "1e-10")
        assert code == 3
        assert "precision error" in err
        # exponents whose expansion coefficients overflow doubles
        for argv in (("zeta", "--args", "1e300"), ("mzv", "--args", "1e300,1")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert "precision error" in err and "nan" not in err

    def test_negative_eps_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "zeta", "--args", "2", "--eps", "-1")
        assert code == 64


class TestVerifyCommand:
    def test_paper_suite_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--suite", "paper")
        code2, out2, _ = run_cli(capsys, "verify", "--suite", "paper")
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        assert "checks passed" in out1

    def test_verify_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "paper", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        names = [c["name"] for c in payload["checks"]]
        assert names == sorted(names)
        assert all(
            set(c) == {"name", "lhs", "rhs", "abs_diff", "bound", "passed"}
            for c in payload["checks"]
        )

    def test_verify_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "paper", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,lhs,rhs,abs_diff,bound,status"

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        failing = [CheckResult("fabricated", 1.0, 2.0, 1.0, 0.0, False)]
        monkeypatch.setattr(verify, "run_suite", lambda suite, seed: failing)
        code, out, _ = run_cli(capsys, "verify", "--suite", "paper")
        assert code == 1
        assert "FAIL" in out

    def test_random_suite_seeded(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "verify", "--suite", "random", "--seed", "3", "--format", "csv"
        )
        code2, out2, _ = run_cli(
            capsys, "verify", "--suite", "random", "--seed", "3", "--format", "csv"
        )
        assert code1 == 0 and code2 == 0
        assert out1 == out2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zetatails.cli", "dual", "--args", "2,1,2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2,3"
