"""Tests of the benchmark itself: the correctness gate, the spans and the tail.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

import tracing
from tracing import Tracer
from worker import PassRunner, Tally, import_cli
from workloads import BENCH_DIR, WORKLOADS, check_report, load_references, tail

#: Runs one traced cold pass of a workload in a fresh process, so lazy
#: set-up has not already run, and prints the span names that fired.
ONE_TRACED_PASS = """
import json, sys, tempfile
from pathlib import Path
from tracing import Tracer
from worker import PassRunner, import_cli
from workloads import load_references
main, _ = import_cli()
tracer = Tracer()
with tempfile.TemporaryDirectory() as tmp, tracer.installed():
    _, problems = PassRunner(main, sys.argv[1], load_references(), Path(tmp)).run(0, tracer)
print(json.dumps({"fired": sorted(n for n, c in tracer.calls.items() if c),
                  "problems": problems}))
"""


@pytest.fixture(scope="module")
def cli_main():
    main, _ = import_cli()
    return main


@pytest.fixture(scope="module")
def references():
    return load_references()


def _report(**changes) -> dict:
    doc = {"toleranceUsed": 1e-8, "minMargin": 5.0, "equalityCases": 0,
           "violations": [{"seed": 11, "margin": -1.0}], "runtimeMs": 3}
    doc.update(changes)
    return doc


def _ref(**changes) -> dict:
    ref = {"exitCode": 1, "violationSeeds": [11], "equalityCases": 0, "minMargin": 5.0}
    ref.update(changes)
    return ref


class TestCheckReport:
    def test_match_ignores_added_keys_and_runtime(self):
        assert check_report(_report(runtimeMs=999, extra=[1, 2]), 1, _ref()) == []

    @pytest.mark.parametrize("ref", [
        _ref(exitCode=0),
        _ref(violationSeeds=[12]),
        _ref(violationSeeds=[11, 12]),
        _ref(equalityCases=1),
        _ref(minMargin=None),
    ])
    def test_mismatch_is_reported(self, ref):
        assert check_report(_report(), 1, ref)

    def test_margin_band_is_relative_to_the_reference(self):
        band = 1e-8 * 5.0
        assert check_report(_report(minMargin=5.0 + 0.5 * band), 1, _ref()) == []
        assert check_report(_report(minMargin=5.0 + 2.0 * band), 1, _ref())


def test_perturbed_reference_margin_counts_as_failure(cli_main, references, tmp_path):
    runner = PassRunner(cli_main, "big-group", references, tmp_path)
    tally = Tally()
    _, problems = runner.run(0)
    tally.add(problems)
    assert problems == []

    (command,) = WORKLOADS["big-group"].commands
    tolerance = json.loads((tmp_path / "report-0.json").read_text())["toleranceUsed"]
    perturbed = copy.deepcopy(references)
    entry = perturbed[command]["0"]
    entry["minMargin"] += 2.0 * tolerance * max(1.0, abs(entry["minMargin"]))
    runner.references = perturbed
    _, problems = runner.run(0)
    tally.add(problems)
    assert any("minMargin" in p for p in problems)
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_span_fires_on_one_pass(name):
    proc = subprocess.run([sys.executable, "-c", ONE_TRACED_PASS, name], cwd=BENCH_DIR,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert set(WORKLOADS[name].spans) <= set(result["fired"])


def test_missing_trace_target_fails_loudly(cli_main, monkeypatch):
    bogus = ("hlawka.harness", "no_such_entry_point", "linalg.random_pd", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (bogus,))
    import hlawka.harness

    original = hlawka.harness.random_pd
    with pytest.raises(AttributeError, match="no_such_entry_point"):
        with Tracer().installed():
            pass
    assert hlawka.harness.random_pd is original


def test_tail_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(30, 0, -1)]
    value, percentile = tail(samples)
    assert value == 20.0
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
