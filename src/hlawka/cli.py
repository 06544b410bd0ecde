"""Command-line front end.

Subcommands: ``verify`` (operator inequality trial suites),
``scalar-verify`` (determinant/permanent/immanant corollaries and the
convex/norm suites), ``counterexample`` (seeded search for violating
inputs), and ``immanant`` (generalized matrix function of a matrix file).

Exit codes: 0 success / no violation, 1 violation found in a family whose
inequality is established (or a confirmed refutation), 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetError, InputError
from .harness import SUITES, RunConfig, run_counterexample, run_scalar_verify, run_verify
from .linalg import DEFAULT_MAX_TENSOR_DIM, load_matrix
from .matfunc import generalized_matrix_function, parse_character_selector
from .report import TrialReport
from .scalar import SearchFamily, SearchStrategy
from .sums import OperatorFamily
from .symgroup import load_character_table
from .util import format_complex_sig17

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--trials", type=int, default=100, help="number of trials")
    parser.add_argument("--tol", type=float, default=None, help="relative tolerance override")
    parser.add_argument("--max-dim", type=int, default=DEFAULT_MAX_TENSOR_DIM,
                        help="tensor dimension budget (refuse, never truncate)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="must be >= 1; kept for compatibility and changes nothing: "
                             "trials run in memory-bounded chunks stacked on one thread")
    parser.add_argument("--out", default=None, help="report file path")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlawka",
        description="Certify tensor-sum operator inequalities, their scalar "
                    "corollaries, and reproduce the known counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="operator inequality trial suite")
    _common_flags(p_verify)
    p_verify.add_argument("--family", required=True,
                          choices=tuple(family.value for family in OperatorFamily))
    p_verify.add_argument("--n", type=int, default=3, help="number of matrices")
    p_verify.add_argument("--p", type=int, default=3, help="tensor power")
    p_verify.add_argument("--dim", type=int, default=2, help="matrix dimension")
    p_verify.add_argument("--m", type=int, default=None, help="subset size (pop-subsets/levels)")
    p_verify.add_argument("--k", type=int, default=None, help="low level (pop-levels)")
    p_verify.add_argument("--ell", type=int, default=None, help="middle level (pop-levels)")
    p_verify.add_argument("--condition-target", type=float, default=10.0)

    p_scalar = sub.add_parser("scalar-verify", help="scalar corollary / convex suite")
    _common_flags(p_scalar)
    p_scalar.add_argument("--family", required=True, choices=tuple(SUITES))
    p_scalar.add_argument("--char", default="det",
                          help="det | perm | partition=<parts> (matrix-function suites)")
    p_scalar.add_argument("--fn", default="all",
                          help="convex function: abs|square|fourth|exp|relu|softplus|all")
    p_scalar.add_argument("--n", type=int, default=3)
    p_scalar.add_argument("--p", type=int, default=None,
                          help="unused for scalar suites; accepted for symmetry")
    p_scalar.add_argument("--dim", type=int, default=3)
    p_scalar.add_argument("--m", type=int, default=None)
    p_scalar.add_argument("--k", type=int, default=None)
    p_scalar.add_argument("--ell", type=int, default=None)
    p_scalar.add_argument("--condition-target", type=float, default=10.0)
    p_scalar.add_argument("--points", default=None,
                          help="comma-separated explicit inputs (single evaluation)")
    p_scalar.add_argument("--include-known", action="store_true",
                          help="evaluate the known refuting input (hlawka-pop, n=4)")

    p_counter = sub.add_parser("counterexample", help="seeded violation search")
    _common_flags(p_counter)
    p_counter.add_argument("--family", required=True,
                           choices=tuple(family.value for family in SearchFamily))
    p_counter.add_argument("--n", type=int, default=4)
    p_counter.add_argument("--dim", type=int, default=2, help="vector dimension (freudenthal)")
    p_counter.add_argument("--strategy", choices=tuple(s.value for s in SearchStrategy),
                           default="random")
    p_counter.add_argument("--fn", default="abs")
    p_counter.add_argument("--include-known", action="store_true")
    p_counter.add_argument("--center", default=None,
                           help="comma-separated center of the sampled region")
    p_counter.add_argument("--radius", type=float, default=2.0)

    p_imm = sub.add_parser("immanant", help="generalized matrix function of a matrix file")
    _common_flags(p_imm)
    p_imm.add_argument("matrix", help="matrix file path")
    p_imm.add_argument("selector", help="det | perm | partition=<parts> | table=<path>")

    return parser


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"unparseable number list {text!r}") from exc


def _emit(report: TrialReport, args) -> None:
    if args.out:
        report.write(args.out, args.fmt)
    summary = (
        f"{report.family}: trials={report.trials} violations={len(report.violations)} "
        f"equality={report.equality_cases} minMargin={report.min_margin}"
    )
    print(summary)
    for flag in report.interpretation_flags:
        print(f"  note: {flag}")


def _config_from(args) -> RunConfig:
    cfg = RunConfig(family=args.family)
    for name in ("n", "p", "dim", "trials", "seed", "tol", "jobs", "k", "ell", "m",
                 "char", "fn", "strategy", "include_known", "radius"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.max_tensor_dim = args.max_dim
    if getattr(args, "condition_target", None) is not None:
        cfg.condition_target = args.condition_target
    if getattr(args, "center", None):
        cfg.center = _parse_floats(args.center)
    if getattr(args, "points", None):
        cfg.points = _parse_floats(args.points)
    return cfg


def _cmd_immanant(args) -> int:
    matrix = load_matrix(args.matrix)
    selector = args.selector
    if selector.startswith("table="):
        group, chi = load_character_table(selector[len("table="):])
        if group.degree != matrix.shape[0]:
            raise InputError(
                f"matrix dimension {matrix.shape[0]} does not match group degree {group.degree}"
            )
    else:
        group, chi = parse_character_selector(selector, matrix.shape[0])
    value = generalized_matrix_function(matrix, group, chi)
    print(format_complex_sig17(value))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "immanant":
            return _cmd_immanant(args)
        cfg = _config_from(args)
        if args.command == "verify":
            report, code = run_verify(cfg)
        elif args.command == "scalar-verify":
            report, code = run_scalar_verify(cfg)
        else:
            report, code = run_counterexample(cfg)
        _emit(report, args)
        return code
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
