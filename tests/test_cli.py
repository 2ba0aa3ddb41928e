import hashlib
import json
import os
import subprocess
import sys

import pytest

import zetatails
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

    def test_formula_single_symbol(self, capsys):
        code, out, _ = run_cli(capsys, "formula", "--exponents", "p")
        assert code == 0
        assert out.strip() == "zeta(p-1) - zeta(p)"
        code, symbolic_json, _ = run_cli(capsys, "formula", "--exponents", "p", "--format", "json")
        assert code == 0
        _, numeric_json, _ = run_cli(capsys, "formula", "--exponents", "2.5", "--format", "json")
        assert symbolic_json == numeric_json

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


#: sha256 of ``formula --exponents E --format F`` output, keyed by (E, F)
FORMULA_DIGESTS = {
    ("2.5", "json"): "16c119a5978eaec60f78549c9b169687a5b79a5a0df49af75d04fb62ea7f24ce",
    ("2.5", "csv"): "f0f798cb001c7c127c0174de7657f75c4a3b1c2d3a536a933149cf3afbaf57c0",
    ("2.5", "text"): "e07f8c599745621fea66304b3dbc9a12c8b849b3ab39b4049484be52b345591d",
    ("2.5,3.0", "json"): "6468294c14fde81b2aa1dd9ec9e156d6400111663a38ff556e2433f1232faee1",
    ("2.5,3.0", "csv"): "40438a2c88701037c12698ce732d0d86e87f395cad4e183a91d12c91a3680bc9",
    ("2.5,3.0", "text"): "69a08529a277dc29df88cfb02e5bd3a26012e7a237d083a7305df39d10afbb34",
    ("2.5,3.0,3.5", "json"): "cae328e158669928eb11acbd4cc42918b2dcaa998429e8ce7928646d24596975",
    ("2.5,3.0,3.5", "csv"): "fb87df03ff718d5e1784722a459c61c18dda2361068630e6d334a64486a4beaf",
    ("2.5,3.0,3.5", "text"): "76c222be6f9b4b155533023d5361349f59d0ab6e489ad97251163461bfa8cb64",
    ("2.5,3.0,3.5,4.0", "json"): "0dbd0cebea15b5163b2a7fd0ee46566040b42ce7ad26c78c9c2c095843995a56",
    ("2.5,3.0,3.5,4.0", "csv"): "39a1d0f72beb801683a04788aa59afbfb1f09205ac1edfb1dbc6e5023474e473",
    ("2.5,3.0,3.5,4.0", "text"): "2a234feaf32064c1b9fa47b46d81a96f9631e3d712248cca97b2d44fced6ccc1",
    ("2.5,3.0,3.5,4.0,4.5", "json"): "c7b413c4faf98143d5b71ac45d266dd2b0978d403b841807499a9397895f414f",
    ("2.5,3.0,3.5,4.0,4.5", "csv"): "22cf3c87d64acec6b76b3f0f035db8ecd8c68973de5925057e1609bbd2068dc8",
    ("2.5,3.0,3.5,4.0,4.5", "text"): "8d1fc484c3d58cbff6216adafd6e0b24855a9d0fc7c8cbaba23e125e5f97770b",
    ("2.5,3.0,3.5,4.0,4.5,5.0", "json"): "99f896934a66bd4bf9b66f19f07a275608cc7a37cc49781292ea68b66c6cf9ef",
    ("2.5,3.0,3.5,4.0,4.5,5.0", "csv"): "7163ab4667684c7b11bbf41045b5684b590a1ac3ed9559226d9a129d1848c999",
    ("2.5,3.0,3.5,4.0,4.5,5.0", "text"): "b5c02a657f3bf5fa5e088867f89d1431f5bf8809a37fff1815cbcff358ce662f",
    ("p,q", "json"): "6468294c14fde81b2aa1dd9ec9e156d6400111663a38ff556e2433f1232faee1",
    ("p,q", "csv"): "40438a2c88701037c12698ce732d0d86e87f395cad4e183a91d12c91a3680bc9",
    ("p,q", "text"): "7d719bc5315342a0f2c2aad5929a460c20dadd0f81b1a04d11ae0e2374b4b2d2",
    ("p,q,r", "json"): "cae328e158669928eb11acbd4cc42918b2dcaa998429e8ce7928646d24596975",
    ("p,q,r", "csv"): "fb87df03ff718d5e1784722a459c61c18dda2361068630e6d334a64486a4beaf",
    ("p,q,r", "text"): "4f2e3c10cb9ba93c68cc84b262c4ebd6e435e6be6705783d1e3f1d696b0cbd69",
    ("p,q,r,s", "json"): "0dbd0cebea15b5163b2a7fd0ee46566040b42ce7ad26c78c9c2c095843995a56",
    ("p,q,r,s", "csv"): "39a1d0f72beb801683a04788aa59afbfb1f09205ac1edfb1dbc6e5023474e473",
    ("p,q,r,s", "text"): "dd0bd4415303b7aa8d425028044e96204a8c1053eaca3473313e546bde7c120b",
    ("p,q,r,s,t", "json"): "c7b413c4faf98143d5b71ac45d266dd2b0978d403b841807499a9397895f414f",
    ("p,q,r,s,t", "csv"): "22cf3c87d64acec6b76b3f0f035db8ecd8c68973de5925057e1609bbd2068dc8",
    ("p,q,r,s,t", "text"): "5c40aed7a6070dce90e599ff342abcf6a525f16149348172dc5fbd91c2d9f65b",
    ("p,q,r,s,t,u", "json"): "99f896934a66bd4bf9b66f19f07a275608cc7a37cc49781292ea68b66c6cf9ef",
    ("p,q,r,s,t,u", "csv"): "7163ab4667684c7b11bbf41045b5684b590a1ac3ed9559226d9a129d1848c999",
    ("p,q,r,s,t,u", "text"): "53d14239edb28b3372f23ae452404b68a1c98c547f2608b407801234a5cab7cf",
}


class TestFormulaBytes:
    """The formula output is pinned byte for byte, numeric and symbolic."""

    @pytest.mark.parametrize("exponents,fmt", sorted(FORMULA_DIGESTS), ids=str)
    def test_formula_output_is_pinned(self, capsys, exponents, fmt):
        code, out, _ = run_cli(capsys, "formula", "--exponents", exponents, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == FORMULA_DIGESTS[exponents, fmt]


#: sha256 of ``tail-sum --exponents E --brute --format json`` output, keyed by
#: the exponent lists of ``verify.PRODUCT_CASES``
TAIL_SUM_DIGESTS = {
    "2.0,2.0": "180d445ecc85b663fddae3de35021f61cd6d7ad52c236827582eaacf6a9d318b",
    "3.0,2.0": "028a9388c7620bc377334cd7446d6626a00f4195d49dfd0c3e63433a26a88777",
    "4.0,3.0": "398446b541364234d60631f5a33021ebc54055dc6fcc5bdaa0fb27fd4fbfd3fb",
    "3.0,3.0": "0ffe31a47ed4b0711eef79cb0277bb104ccea12168a74022a574b08e45b38c42",
    "2.0,2.0,2.0": "3c72d6cb20b957ea99d7d893395852f9d41b4305b7975c5c5c55fcbe7f6ba77e",
    "3.0,2.0,2.0": "e9e09f38fc36a7c1324726362af9147615923b4da65ccfdd53e1083c00847ecf",
    "3.0,3.0,2.0": "b05145b65b4226189723aee4c9cb3aff416b9edd61667be26572e9de26fee225",
    "2.0,2.0,2.0,2.0": "cebdb18d59d26b0ecebad627c0ccdce2162e927bca252f32bc7743b0a5f3f085",
}


class TestTailSumBytes:
    """The brute-checked tail sums of the worked product cases are pinned."""

    def test_every_product_case_is_pinned(self):
        cases = {",".join(map(repr, exps)) for exps, _, _ in verify.PRODUCT_CASES}
        assert cases == set(TAIL_SUM_DIGESTS)

    @pytest.mark.parametrize("exponents", sorted(TAIL_SUM_DIGESTS))
    def test_tail_sum_output_is_pinned(self, capsys, exponents):
        code, out, _ = run_cli(
            capsys, "tail-sum", "--exponents", exponents, "--brute", "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TAIL_SUM_DIGESTS[exponents]


#: sha256 of ``tail-sum --exponents E --brute --format json`` output at real
#: exponents, up to k = 5, where the formula route evaluates many nested values
#: sharing argument prefixes
TAIL_SUM_REAL_DIGESTS = {
    "1.4,2.2,2.9,3.3,1.9": "8f01cb8cbce77727efe7e06677269e5656275e2996e53ef51f735378267c7243",
    "3.9,1.3,2.4,1.7,2.2": "1809a2c9b6a1429cd569af41448639f65699c3bd0fbcaba92cfe399a9ce07fb0",
    "2,2,2,2,2": "fd898ac0c3d9769be7df2a6a2d53b2f5e3d6a450030348301acd7cebd76e0c2b",
    "1.5,2.5,3.5,1.7": "779bfd35ca101ab012fb317eff37232602ff9155fd5abcdc4da076cec1aacfa2",
    "1.6,2.7,3.1": "806fd166f182354fb9ece2d8a25f4dc6e63c5904034bf7876e0f2d3baa302d54",
}


class TestRealTailSumBytes:
    @pytest.mark.parametrize("exponents", sorted(TAIL_SUM_REAL_DIGESTS))
    def test_tail_sum_output_is_pinned(self, capsys, exponents):
        code, out, _ = run_cli(
            capsys, "tail-sum", "--exponents", exponents, "--brute", "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TAIL_SUM_REAL_DIGESTS[exponents]


#: sha256 of ``verify --suite all --seed 7 --format json`` output
VERIFY_ALL_DIGEST = "60bb63a041bb1b7440e9045ea726a07e7c279601d651c5029c649eb63daaf169"


class TestVerifyBytes:
    def test_verify_all_output_is_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--seed", "7", "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST


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

    def test_tail_sum_past_max_depth(self, capsys):
        code, _, err = run_cli(capsys, "tail-sum", "--exponents", "2.1,2.2,2.3,2.4,2.5,2.6")
        assert code == 2
        assert "depth 6 exceeds the supported maximum 5" in err

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
        # the child imports the package from where this process found it,
        # which pytest's own pythonpath setting does not pass on
        src = os.path.dirname(os.path.dirname(zetatails.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "zetatails.cli", "dual", "--args", "2,1,2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2,3"

    def test_reused_parser_matches_a_fresh_interpreter(self, capsys, monkeypatch):
        # one parser serves every call in a process; each command run twice
        # here, a usage error and --help must print what a new process prints
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(zetatails.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        commands = [
            ("zeta", "--args", "2.5", "--format", "json"),
            ("mzv", "--args", "2.5,1.5", "--format", "csv"),
            ("tail-sum", "--exponents", "2.2,2.5", "--brute"),
            ("formula", "--exponents", "p,q", "--format", "json"),
            ("reduce", "--args", "3,2"),
            ("dual", "--args", "2,1,2", "--format", "csv"),
            ("verify", "--suite", "paper", "--format", "csv"),
            ("mzv", "--args", "2,x"),
            ("--help",),
            ("tail-sum", "--help"),
        ]
        for argv in commands:
            fresh = subprocess.run(
                [sys.executable, "-m", "zetatails.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            for _ in range(2):
                assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
