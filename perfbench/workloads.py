"""Workload definitions, input seeds and the correctness gate.

A *pass* runs a workload's command list once through ``hlawka.cli.main``,
each command with the same CLI ``--seed``.  This module imports nothing
from ``hlawka`` or numpy, so the orchestrator stays light.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
#: Scratch space for the reports the CLI writes; ignored by git.
OUT_DIR = ROOT / ".bench_build" / "perfbench"

#: CLI seeds whose verdicts are recorded in ``references.json``.  Seed 0 is
#: the CLI default; the others are held out.  Every pass runs at one of them,
#: so every pass is checked against a recorded reference.
REFERENCE_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]
    #: Span names that must record at least one call in a traced run.
    spans: tuple[str, ...]


# All commands run at the CLI defaults --jobs 1 and --condition-target 10.
# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "many-small": Workload(
        commands=(
            "verify --family hlawka3 --dim 2 --p 3 --trials 500",
            "verify --family alternating --n 5 --dim 2 --p 5 --trials 100",
            "scalar-verify --family alternating --char det --n 4 --dim 4 --trials 500",
        ),
        spans=(
            "cli.main", "harness.run_verify", "harness.run_scalar_verify",
            "linalg.random_pd", "linalg.min_eigenvalue", "linalg.psd_certificate",
            "sums.build_difference", "matfunc.scalar_inequality_check",
            "matfunc.generalized_matrix_function", "symgroup.enumerate_group",
            "symgroup.character_values", "report.write",
        ),
    ),
    "dense-power": Workload(
        commands=("verify --family hlawka3 --dim 2 --p 10 --trials 1",),
        spans=(
            "cli.main", "harness.run_verify", "linalg.random_pd", "linalg.min_eigenvalue",
            "linalg.psd_certificate", "sums.build_difference", "report.write",
        ),
    ),
    "big-group": Workload(
        commands=(
            "scalar-verify --family alternating --char partition=4,2,1,1 --n 4 --dim 8 "
            "--trials 4",
        ),
        spans=(
            "cli.main", "harness.run_scalar_verify", "linalg.random_pd",
            "matfunc.scalar_inequality_check", "matfunc.generalized_matrix_function",
            "symgroup.enumerate_group", "symgroup.character_values", "report.write",
        ),
    ),
    "scalar-search": Workload(
        commands=(
            "scalar-verify --family pcz --n 5 --m 3 --trials 1000",
            "counterexample --family freudenthal --n 4 --dim 2 --trials 2000",
            "counterexample --family hlawka-pop --n 4 --strategy coordinate-descent "
            "--trials 50",
        ),
        spans=(
            "cli.main", "harness.run_scalar_verify", "harness.run_counterexample",
            "scalar.counterexample_search", "scalar.evaluator", "report.write",
        ),
    ),
}


def command_trials(command: str) -> int:
    words = command.split()
    return int(words[words.index("--trials") + 1])


def pass_trials(workload: Workload) -> int:
    return sum(command_trials(c) for c in workload.commands)


def cli_seed_order(bench_seed: int) -> list[int]:
    """The CLI seed of each pass, cycled: a permutation of the reference
    seeds drawn from the benchmark seed."""
    order = list(REFERENCE_SEEDS)
    random.Random(bench_seed).shuffle(order)
    return order


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_entry(doc: dict, exit_code: int) -> dict:
    """The fields of a report that the gate compares."""
    return {
        "exitCode": exit_code,
        "violationSeeds": [v["seed"] for v in doc["violations"]],
        "equalityCases": doc["equalityCases"],
        "minMargin": doc["minMargin"],
    }


def check_report(doc: dict, exit_code: int, ref: dict) -> list[str]:
    """Compare one report with its recorded reference; return the mismatches.

    Added report keys and changed bytes are not compared.  ``minMargin`` may
    move by the report's own ``toleranceUsed * max(1, |ref|)``.
    """
    got = reference_entry(doc, exit_code)
    problems = [
        f"{key}: got {got[key]!r}, reference {ref[key]!r}"
        for key in ("exitCode", "violationSeeds", "equalityCases")
        if got[key] != ref[key]
    ]
    margin, ref_margin = got["minMargin"], ref["minMargin"]
    if (margin is None) != (ref_margin is None):
        problems.append(f"minMargin: got {margin!r}, reference {ref_margin!r}")
    elif margin is not None:
        band = doc["toleranceUsed"] * max(1.0, abs(ref_margin))
        if abs(margin - ref_margin) > band:
            problems.append(
                f"minMargin: got {margin!r}, reference {ref_margin!r}, band {band!r}"
            )
    return problems


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer no such
    percentile exists, and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n
