"""Command-line front door: compute families, run verification suites,
render reports.

Exit codes: 0 success (and, for verify, all non-skipped checks passing),
1 internal failure or failing checks, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import UsageError, WeylPolyError
from .exactpoly import QXPoly, poly_to_json
from .recurrences import ASSEMBLE_FAMILIES, assemble
from .report import VerificationReport
from .verify import SUITES, run_suite

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylpoly",
        description="Exact Eulerian-like polynomial families for Weyl groups: "
        "computation, verification, and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute one polynomial family")
    compute.add_argument("--family", required=True, help=f"one of {', '.join(ASSEMBLE_FAMILIES)}")
    compute.add_argument("--n", required=True, type=int, help="rank")
    compute.add_argument("--q", default=None, help="optional rational q value, e.g. 1/2")
    compute.add_argument("--format", choices=("json", "text"), default="text")

    verify = sub.add_parser("verify", help="run a verification suite, print a JSON report")
    verify.add_argument("--suite", required=True, help=f"one of {', '.join(SUITES)}")
    verify.add_argument("--max-n", type=int, default=None, help="rank ceiling for ranged checks")
    verify.add_argument(
        "--q-samples", default=None, help="comma-separated rationals, e.g. 1/2,1,2,5"
    )
    verify.add_argument("--cap-override", type=int, default=None, help="enumeration cap override")

    report = sub.add_parser("report", help="render a saved verification report")
    report.add_argument("input", help="path to a JSON report produced by verify")
    report.add_argument("--format", choices=("json", "markdown"), default="markdown")
    return parser


def _cmd_compute(args) -> int:
    poly = assemble(args.family, args.n)
    if args.q is not None:
        if not isinstance(poly, QXPoly):
            raise UsageError(f"family {args.family} has no q parameter")
        try:
            q0 = Fraction(args.q)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad rational {args.q!r}") from None
        poly = poly.eval_q(q0)
    if args.format == "json":
        print(json.dumps(poly_to_json(poly)))
    else:
        print(str(poly))
    return 0


def _cmd_verify(args) -> int:
    q_samples = None
    if args.q_samples is not None:  # an empty list is malformed, not the defaults
        try:
            q_samples = tuple(Fraction(part) for part in args.q_samples.split(","))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad q sample list {args.q_samples!r}") from None
    report = run_suite(args.suite, max_n=args.max_n, q_samples=q_samples, cap=args.cap_override)
    print(report.dumps())
    counts = report.counts
    print(
        f"pass: {counts['pass']}  fail: {counts['fail']}  skipped: {counts['skipped']}",
        file=sys.stderr,
    )
    return 0 if report.all_passed else FAILURE_EXIT


def _cmd_report(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            report = VerificationReport.loads(handle.read())
    except (OSError, ValueError, UsageError) as exc:
        raise UsageError(f"cannot read report: {exc}") from None
    if args.format == "json":
        print(report.dumps())
    else:
        print(report.render_markdown(), end="")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except WeylPolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # an internal failure; MemoryError() and the like carry no message
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
