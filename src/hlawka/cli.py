"""Command-line front end.

Subcommands: ``verify`` (operator inequality trial suites),
``scalar-verify`` (determinant/permanent/immanant corollaries and the
convex/norm suites), ``counterexample`` (seeded search for violating
inputs), and ``immanant`` (generalized matrix function of a matrix file).
Each flag of the first three but ``--out`` and ``--format`` sets one
:class:`~hlawka.harness.RunConfig` field, and abbreviations are refused.
The parser states no default of a field: an unset ``--seed`` or ``--trials``
takes :class:`~hlawka.harness.RunConfig`'s, any other unset field its
route's value from :data:`hlawka.harness._READS`.

Exit codes: 0 success / no violation, 1 violation found in a family whose
inequality is established (or a confirmed refutation), 2 usage error (a
malformed or unreadable input file, an unwritable ``--out`` included),
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import cache

import numpy as np

from .errors import BudgetError, InputError
from .harness import SUITES, RunConfig, run_counterexample, run_scalar_verify, run_verify
from .linalg import load_matrix
from .matfunc import generalized_matrix_function, parse_character_selector
from .report import TrialReport
from .scalar import CONVEX_KINDS, SEARCH_FAMILIES, SEARCH_STRATEGIES
from .sums import FAMILIES
from .symgroup import load_character_table
from .util import format_complex_sig17

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _trial_parser(sub, command: str, text: str, families) -> argparse.ArgumentParser:
    """A trial subcommand with the flags all its routes read."""
    parser = sub.add_parser(command, help=text, allow_abbrev=False)
    parser.add_argument("--family", required=True, choices=tuple(families))
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="64-bit master seed")
    parser.add_argument("--trials", type=int, default=argparse.SUPPRESS, help="number of trials")
    parser.add_argument("--tol", type=float, help="relative tolerance override, finite and >= 0")
    parser.add_argument("--n", type=int, help="number of inputs")
    parser.add_argument("--dim", type=int, help="matrix or vector dimension")
    parser.add_argument("--out", help="report file path")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: :func:`main`
    parses each command line with it, and parsing changes none of it."""
    parser = argparse.ArgumentParser(
        prog="hlawka",
        description="Certify tensor-sum operator inequalities, their scalar "
                    "corollaries, and reproduce the known counterexamples.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = _trial_parser(sub, "verify", "operator inequality trial suite", FAMILIES)
    p_scalar = _trial_parser(sub, "scalar-verify", "scalar corollary / convex suite", SUITES)
    p_counter = _trial_parser(sub, "counterexample", "seeded violation search", SEARCH_FAMILIES)

    for p_levels in (p_verify, p_scalar):
        p_levels.add_argument("--m", type=int, help="subset size (pop-subsets/levels, pcz)")
        p_levels.add_argument("--k", type=int, help="low level (pop-levels) or radu's k")
        p_levels.add_argument("--ell", type=int, help="middle level (pop-levels)")
        p_levels.add_argument("--condition-target", type=float)
    p_verify.add_argument("--p", type=int, help="tensor power")
    p_verify.add_argument("--max-dim", dest="max_tensor_dim", type=int,
                          help="tensor dimension budget (refuse, never truncate)")
    p_scalar.add_argument("--char", help="det | perm | partition=<parts> (matrix-function suites)")
    p_scalar.add_argument("--points", help="comma-separated explicit inputs (single evaluation)")
    p_counter.add_argument("--strategy", choices=SEARCH_STRATEGIES)
    p_counter.add_argument("--center", help="comma-separated center of the sampled region")
    p_counter.add_argument("--radius", type=float, help="half-width of the region (with --center)")
    for p_convex in (p_scalar, p_counter):
        p_convex.add_argument("--fn", help=f"convex function: {'|'.join(CONVEX_KINDS)}"
                                           "|all (all: scalar-verify only)")
        p_convex.add_argument("--include-known", action="store_const", const=True,
                              help="the known refuting input of --family hlawka-pop")

    p_imm = sub.add_parser("immanant", help="generalized matrix function of a matrix file",
                           allow_abbrev=False)
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
    given = {field.name: getattr(args, field.name)
             for field in dataclasses.fields(RunConfig) if hasattr(args, field.name)}
    for name in ("center", "points"):
        if given.get(name) is not None:
            given[name] = _parse_floats(given[name])
    return RunConfig(**given)


def _cmd_immanant(args) -> int:
    matrix = load_matrix(args.matrix)
    selector = args.selector
    if selector.startswith("table="):
        group, chi = load_character_table(selector[len("table="):])
    else:
        group, chi = parse_character_selector(selector, matrix.shape[0])
    value = generalized_matrix_function(matrix, group, chi)
    if not np.isfinite(value):
        raise InputError("overflow: the matrix function's value exceeds double precision")
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
