"""Command-line front end.

Subcommands evaluate single zetas, nested values, tail-product sums, emit
symbolic formulas and reductions, apply duality, and run the verification
suites.  Output is text, canonical JSON (stable byte-for-byte under a
parse/re-serialize round trip), or CSV.  Exit codes: 0 success, 1 failed
verification, 2 domain error, 3 precision failure, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Sequence

from . import numerics, symbolic, tails, verify
from .errors import DomainError, PrecisionError

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _exponent_tokens(text: str) -> tuple[str, ...]:
    tokens = tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")
    if not tokens:
        raise argparse.ArgumentTypeError("expected at least one exponent")
    for tok in tokens:
        try:
            float(tok)
        except ValueError:
            if not tok.isidentifier():
                raise argparse.ArgumentTypeError(f"bad exponent token {tok!r}")
    return tokens


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0.0:
        raise argparse.ArgumentTypeError("eps must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zetatails", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--eps", type=_positive_float, default=1e-9, help="error target")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text", dest="fmt"
        )

    p = sub.add_parser("zeta", help="single zeta value at real s > 1")
    p.add_argument("--args", type=_float_list, required=True, metavar="S")
    common(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("mzv", help="nested zeta value at a real index")
    p.add_argument("--args", type=_float_list, required=True, metavar="A1,A2,...")
    common(p)
    p.set_defaults(func=_cmd_mzv)

    p = sub.add_parser("tail-sum", help="sum over n of the product of tails")
    p.add_argument("--exponents", type=_float_list, required=True, metavar="P1,P2,...")
    p.add_argument("--brute", action="store_true", help="also run the direct oracle")
    common(p)
    p.set_defaults(func=_cmd_tail_sum)

    p = sub.add_parser("formula", help="emit the symbolic tail-product formula")
    p.add_argument(
        "--exponents", type=_exponent_tokens, required=True, metavar="P,Q,..."
    )
    common(p)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("reduce", help="reduce a depth-two integer value")
    p.add_argument("--args", type=_int_list, required=True, metavar="M,N")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("dual", help="apply the duality involution")
    p.add_argument("--args", type=_int_list, required=True, metavar="A1,A2,...")
    common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("paper", "random", "all"), default="paper")
    p.add_argument("--seed", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: parsing leaves no state
    on it, and building it costs more than most commands."""
    return build_parser()


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _csv_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_report(fmt: str, payload: dict) -> None:
    if fmt == "json":
        print(_dump_json(payload))
    elif fmt == "csv":
        keys = sorted(payload)
        print(_csv_table(keys, [[payload[k] for k in keys]]), end="")
    else:
        for key in sorted(payload):
            print(f"{key} = {payload[key]}")


def _report_payload(command: str, rep: numerics.EvalReport, **extra) -> dict:
    payload = {
        "command": command,
        "value": rep.value,
        "abs_error_bound": rep.abs_error_bound,
        "terms_used": rep.terms_used,
    }
    payload.update(extra)
    return payload


def _cmd_zeta(ns) -> int:
    if len(ns.args) != 1:
        raise DomainError("zeta takes exactly one argument")
    rep = numerics.zeta(ns.args[0], ns.eps)
    _emit_report(ns.fmt, _report_payload("zeta", rep, s=ns.args[0]))
    return 0


def _cmd_mzv(ns) -> int:
    rep = numerics.mzv(ns.args, ns.eps)
    _emit_report(ns.fmt, _report_payload("mzv", rep, args=list(ns.args)))
    return 0


def _cmd_tail_sum(ns) -> int:
    rep = tails.tail_product_sum(ns.exponents, ns.eps)
    extra = {"exponents": list(ns.exponents)}
    if ns.brute:
        oracle = numerics.brute_tail_product_sum(ns.exponents, ns.eps)
        extra.update(
            brute_value=oracle.value,
            brute_abs_error_bound=oracle.abs_error_bound,
            abs_difference=abs(rep.value - oracle.value),
        )
    _emit_report(ns.fmt, _report_payload("tail-sum", rep, **extra))
    return 0


def _cmd_formula(ns) -> int:
    tokens = ns.exponents
    symbolic_mode = any(not _is_number(tok) for tok in tokens)
    if symbolic_mode:
        if len(set(tokens)) != len(tokens):
            raise DomainError("symbolic exponents must be distinct")
        # Generate at placeholder values that meet the sum hypothesis at
        # every arity; the block structure is symbolic.
        values = (3.0,) * len(tokens)
        symbols = tokens
    else:
        values = tuple(float(tok) for tok in tokens)
        symbols = tokens
    formula = tails.tail_product_formula(values)
    if ns.fmt == "json":
        print(formula.to_json())
    elif ns.fmt == "csv":
        rows = [
            [str(t.coeff), json.dumps([list(b) for b in t.blocks]), True]
            for t in formula.zeta_terms
        ]
        rows.append(["-1", "product", False])
        print(_csv_table(("coeff", "blocks", "offset_last"), rows), end="")
    else:
        print(formula.render(symbols))
    return 0


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _cmd_reduce(ns) -> int:
    if len(ns.args) != 2:
        raise DomainError("reduce takes exactly two integer arguments")
    m, n = ns.args
    poly = symbolic.reduce_n1(m) if n == 1 else symbolic.reduce_double_odd(m, n)
    if ns.fmt == "json":
        print(poly.to_json())
    elif ns.fmt == "csv":
        rows = [
            [str(coeff), json.dumps(list(mono))] for mono, coeff in poly.sorted_terms()
        ]
        print(_csv_table(("coeff", "monomial"), rows), end="")
    else:
        print(f"zeta({m},{n}) = {poly}")
    return 0


def _cmd_dual(ns) -> int:
    dual = symbolic.duality(ns.args)
    if ns.fmt == "json":
        print(_dump_json({"args": list(ns.args), "dual": list(dual.args)}))
    elif ns.fmt == "csv":
        print(
            _csv_table(
                ("args", "dual"),
                [[",".join(map(str, ns.args)), ",".join(map(str, dual.args))]],
            ),
            end="",
        )
    else:
        print(",".join(str(a) for a in dual.args))
    return 0


def _cmd_verify(ns) -> int:
    checks = verify.run_suite(ns.suite, ns.seed)
    failures = sum(1 for c in checks if not c.passed)
    if ns.fmt == "json":
        payload = {
            "suite": ns.suite,
            "seed": ns.seed,
            "failures": failures,
            "checks": [
                {
                    "name": c.name,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "abs_diff": c.abs_diff,
                    "bound": c.bound,
                    "passed": c.passed,
                }
                for c in checks
            ],
        }
        print(_dump_json(payload))
    elif ns.fmt == "csv":
        rows = [
            [c.name, repr(c.lhs), repr(c.rhs), repr(c.abs_diff), repr(c.bound), "pass" if c.passed else "FAIL"]
            for c in checks
        ]
        print(_csv_table(("name", "lhs", "rhs", "abs_diff", "bound", "status"), rows), end="")
    else:
        width = max(len(c.name) for c in checks)
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            print(
                f"{c.name:<{width}}  lhs={c.lhs:<24.17g} rhs={c.rhs:<24.17g} "
                f"|diff|={c.abs_diff:<12.6g} bound={c.bound:<12.6g} {status}"
            )
        print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
