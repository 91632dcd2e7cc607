"""Command-line surface for the overpseudoprime toolkit.

Each invocation emits self-contained records: line-delimited JSON objects
in json mode (one per row for streaming commands), CSV where a tabular
schema exists, and a human-oriented text rendering otherwise.  Exit codes:
0 success, 1 domain error, 2 work-budget exhaustion, 3 contract violation.
A reader that closes stdout early still gets 0, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache

from .arith import DEFAULT_WORK_UNITS, PROBABLE_PRIME_THRESHOLD, Budget
from .classify import classify
from .count import _bound_row, bound_report, bound_report_csv, ov_count
from .errors import ContractViolationError, EffortError
from .generate import generate_trace, least_overpseudoprime_with_order
from .order import cyclotomic_cosets
from .primover import (
    _omega_bound,
    _ratio,
    check_mersenne_dichotomy,
    primitive_part,
)
from .witness import common_witness, least_witness


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # budget-exhaustion code; route them through the domain-error path
    def error(self, message):
        raise ValueError(message)


def _probable_warnings(primes) -> list[str]:
    return [
        f"primality of {p} is a probable-prime verdict"
        for p in primes
        if p >= PROBABLE_PRIME_THRESHOLD
    ]


def _record(command: str, inputs: dict, result, budget: Budget,
            warnings: list[str]) -> dict:
    return {
        "command": command,
        "input": inputs,
        "result": result,
        "effort_spent": budget.spent,
        "warnings": warnings,
    }


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    for rec in records:
        out.write(f"# {rec['command']} {rec['input']}\n")
        _emit_text(rec["result"], out, indent="")
        for warning in rec["warnings"]:
            out.write(f"warning: {warning}\n")
        out.write(f"effort spent: {rec['effort_spent']} work units\n")


def _emit_text(value, out, indent: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                out.write(f"{indent}{key}:\n")
                _emit_text(item, out, indent + "  ")
            else:
                out.write(f"{indent}{key}: {item}\n")
    elif isinstance(value, list):
        for item in value:
            # a row of scalars, like a [p, e] pair or a coset, stays on one line
            if isinstance(item, list) and not any(isinstance(v, (dict, list)) for v in item):
                out.write(f"{indent}{' '.join(map(str, item))}\n")
            else:
                _emit_text(item, out, indent)
    else:
        out.write(f"{indent}{value}\n")


def _factor_pairs(fz) -> list[list[int]]:
    return [[p, e] for p, e in fz.factors]


def _cmd_classify(args, budget):
    report = classify(args.n, budget)
    result = {
        "n": report.n,
        "factors": _factor_pairs(report.factorization),
        "factorization_complete": report.factorization.complete,
        "h": report.h,
        "r": report.r,
        "flags": asdict(report.flags),
        "verdict_basis": report.verdict_basis,
    }
    return [_record("classify", {"n": args.n}, result, budget,
                    _probable_warnings(report.factorization.primes()))]


def _cmd_cosets(args, budget):
    dec = cyclotomic_cosets(args.base, args.n)
    result = {
        "modulus": dec.modulus,
        "base": dec.base,
        "r": dec.r,
        "h": dec.h,
        "cosets": [list(c) for c in dec.cosets],
    }
    return [_record("cosets", {"n": args.n, "base": args.base}, result, budget, [])]


def _cmd_primover(args, budget):
    part = primitive_part(args.n, budget)
    warnings = _probable_warnings(p for p, _ in part.primitive_factors)
    result = {
        "n": part.n,
        "primitive_factors": [[p, e] for p, e in part.primitive_factors],
        "cofactor": part.cofactor,
        "complete": part.complete,
        "unfactored": part.unfactored,
        "is_full_overpseudoprime": part.is_full_overpseudoprime,
        "omega": None,
        "omega_bound": None,
        "ratio": None,
    }
    if part.is_full_overpseudoprime:
        omega, bound = _omega_bound(part)
        result["omega"] = omega
        result["omega_bound"] = bound
    else:
        warnings.append("omega bound needs a composite, fully factored cofactor")
    if part.complete and part.cofactor > 1:
        result["ratio"] = _ratio(part)
    else:
        warnings.append("ratio needs a nonempty, fully factored primitive part")
    return [_record("primover", {"n": args.n}, result, budget, warnings)]


def _cmd_dichotomy(args, budget):
    verdict = check_mersenne_dichotomy(args.p, budget)
    result = {"p": args.p, "mersenne": (1 << args.p) - 1, "verdict": verdict}
    return [_record("dichotomy", {"p": args.p}, result, budget, [])]


def _cmd_generate(args, budget):
    trace = generate_trace(args.k, budget)
    warnings = []
    if trace.value is None:
        warnings.append(
            "a bracket has no divisor of full order; no guarantee below k=3"
        )
    result = {
        "k": trace.pair.k,
        "n": trace.pair.n,
        "L": trace.pair.L,
        "M": trace.pair.M,
        "L_factors": _factor_pairs(trace.l_factorization),
        "M_factors": _factor_pairs(trace.m_factorization),
        "primitive_L": list(trace.primitive_l),
        "primitive_M": list(trace.primitive_m),
        "value": trace.value,
        "verified_overpseudoprime": trace.value is not None,
    }
    return [_record("generate", {"k": args.k}, result, budget, warnings)]


def _cmd_table(args, budget):
    if args.n_min < 2 or args.n_max < args.n_min or args.step < 1:
        raise ValueError("need 2 <= n_min <= n_max and step >= 1")
    records = []
    for n in range(args.n_min, args.n_max + 1, args.step):
        value = least_overpseudoprime_with_order(n, budget)
        warnings = [] if value is not None else [
            f"no overpseudoprime of order {n} exists (fewer than two slots)"
        ]
        records.append(_record(
            "table", {"n": n}, {"n": n, "least": value}, budget, warnings,
        ))
    return records


def _table_csv(records) -> str:
    """CSV with header n,least_overpseudoprime; an empty cell when none exists."""
    lines = ["n,least_overpseudoprime"]
    for rec in records:
        value = rec["result"]["least"]
        lines.append(f"{rec['result']['n']},{'' if value is None else value}")
    return "\n".join(lines) + "\n"


def _bound_csv(records) -> str:
    """The x,ov,x_3_4,ratio,x_1_2 CSV of a count or bound-report run."""
    return bound_report_csv([_bound_row(rec["result"]["x"], rec["result"]["ov"])
                             for rec in records])


def _cmd_count(args, budget):
    record = ov_count(args.x, budget)
    result = {
        "x": record.x,
        "ov": record.ov,
        "x_3_4": record.bound,
        "ratio": record.ratio,
        "by_order": [[h, c] for h, c in record.by_order.items()],
    }
    if args.members:
        result["members"] = list(record.members)
    return [_record("count", {"x": args.x}, result, budget, [])]


def _cmd_bound_report(args, budget):
    xs = [int(part) for part in args.xs.split(",") if part]
    return [
        _record("bound-report", {"x": row.x}, asdict(row), budget, [])
        for row in bound_report(xs, budget)
    ]


def _cmd_witness(args, budget):
    record = least_witness(args.n, budget)
    warnings = []
    if record.skipped_noncoprime:
        warnings.append(
            f"{record.skipped_noncoprime} noncoprime bases were skipped, "
            "not counted as witnesses"
        )
    return [_record("witness", {"n": args.n}, asdict(record), budget, warnings)]


def _cmd_common_witness(args, budget):
    ns = [int(part) for part in args.ns.split(",") if part]
    witness = common_witness(ns, args.max, budget)
    result = {"ns": ns, "a_max": args.max, "witness": witness}
    warnings = [] if witness is not None else [
        f"no common witness at or below {args.max}"
    ]
    return [_record("common-witness", {"ns": ns, "a_max": args.max},
                    result, budget, warnings)]


# the CSV writer of each command with a tabular schema; only these take --csv
_CSV_WRITERS = {"table": _table_csv, "count": _bound_csv, "bound-report": _bound_csv}


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="overpseudo",
                     description="Overpseudoprime detection and counting toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=DEFAULT_WORK_UNITS,
                        help="work-unit limit (default %(default)s)")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="text", dest="fmt", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="full pseudoprime taxonomy for one odd number")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("cosets", parents=[common],
                       help="cyclotomic coset decomposition")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=int, default=2)
    p.set_defaults(handler=_cmd_cosets)

    p = sub.add_parser("primover", parents=[common],
                       help="primitive part of 2**n - 1 with bound reports")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_primover)

    p = sub.add_parser("dichotomy", parents=[common],
                       help="classify 2**p - 1 as prime or overpseudoprime")
    p.add_argument("p", type=int)
    p.set_defaults(handler=_cmd_dichotomy)

    p = sub.add_parser("generate", parents=[common],
                       help="Aurifeuillian overpseudoprime construction")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("table", parents=[common],
                       help="least overpseudoprime for each order in a range")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("count", parents=[common],
                       help="count overpseudoprimes up to x")
    p.add_argument("x", type=int)
    p.add_argument("--members", action="store_true",
                   help="include the member list in the output")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("bound-report", parents=[common],
                       help="counting-function sweep against x**(3/4)")
    p.add_argument("xs", help="comma-separated ascending bounds")
    p.set_defaults(handler=_cmd_bound_report)

    p = sub.add_parser("witness", parents=[common],
                       help="least base witnessing an odd composite")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("common-witness", parents=[common],
                       help="least base witnessing every listed composite")
    p.add_argument("ns", help="comma-separated odd composites")
    p.add_argument("--max", type=int, required=True, dest="max",
                   help="largest base to try")
    p.set_defaults(handler=_cmd_common_witness)

    for command in _CSV_WRITERS:
        sub.choices[command].add_argument(
            "--csv", default=None, help="also write the CSV to this file")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.budget < 0:
            raise ValueError("--budget must be >= 0")
        writer = _CSV_WRITERS.get(args.command)
        if args.fmt == "csv" and writer is None:
            raise ValueError(f"csv format is not defined for '{args.command}'")
        budget = Budget(args.budget)
        records = args.handler(args, budget)
        # exact results (a primitive part of 2**n - 1) can exceed the
        # int-to-str digit limit that Python 3.11 sets; lift it for every write
        set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        set_limit(0)
        try:
            path = getattr(args, "csv", None)
            text = writer(records) if path or args.fmt == "csv" else None
            if path:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            if args.fmt == "csv":
                sys.stdout.write(text)
            else:
                _emit(records, args.fmt, sys.stdout)
            sys.stdout.flush()
        finally:
            set_limit(digit_limit)
        return 0
    except BrokenPipeError:
        # the reader is gone; aim stdout at devnull so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EffortError as exc:
        print(f"effort exhausted: {exc}", file=sys.stderr)
        return 2
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
