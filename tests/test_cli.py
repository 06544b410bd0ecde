"""CLI subcommands, exit codes, report determinism, format parity."""

import argparse
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hlawka.cli import build_parser, main
from hlawka.harness import SUITES, RunConfig, run_counterexample, run_scalar_verify, run_verify
from hlawka.linalg import PdSampleConfig, random_pd, save_matrix
from hlawka.scalar import CONVEX_NORM_SUITES
from hlawka.sums import OperatorFamily
from hlawka.symgroup import save_character_table
from hlawka.util import format_complex_sig17, format_sig17


def normalized(text: str) -> str:
    return re.sub(r'"runtimeMs": \d+', '"runtimeMs": 0', text)


@pytest.fixture
def id3(tmp_path):
    path = tmp_path / "id3.json"
    save_matrix(path, np.eye(3, dtype=complex))
    return str(path)


class TestVerifyCommand:
    def test_p1_all_equality_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--family", "hlawka3", "--dim", "2", "--p", "1",
                     "--trials", "50", "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["equalityCases"] == 50
        assert doc["violations"] == []
        assert doc["schemaVersion"] == 1

    def test_alternating_n4_exit_zero(self, tmp_path):
        code = main(["verify", "--family", "alternating", "--n", "4", "--dim", "2",
                     "--p", "3", "--trials", "25", "--seed", "2"])
        assert code == 0

    def test_budget_abort_exit_three(self):
        code = main(["verify", "--family", "hlawka3", "--dim", "2", "--p", "13",
                     "--trials", "1"])
        assert code == 3

    def test_budget_boundary_with_small_override(self):
        # 2^3 = 8 fits a budget of 8; 2^4 does not.
        assert main(["verify", "--family", "hlawka3", "--dim", "2", "--p", "3",
                     "--trials", "2", "--max-dim", "8"]) == 0
        assert main(["verify", "--family", "hlawka3", "--dim", "2", "--p", "4",
                     "--trials", "2", "--max-dim", "8"]) == 3

    def test_usage_error_exit_two(self):
        assert main(["verify", "--family", "pop-levels", "--n", "4", "--p", "2",
                     "--trials", "1"]) == 2  # missing k/ell/m
        assert main(["verify", "--family", "hlawka3", "--n", "4", "--trials", "1"]) == 2

    def test_empirical_family_flagged_and_exit_zero(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify", "--family", "pop-subsets", "--n", "4", "--m", "3",
                     "--p", "2", "--trials", "10", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert any("empirical" in f for f in doc["interpretationFlags"])

    def test_jobs_do_not_change_results(self, tmp_path):
        out1, out4 = tmp_path / "r1.json", tmp_path / "r4.json"
        main(["verify", "--family", "pop-pairs", "--n", "4", "--p", "3",
              "--trials", "16", "--seed", "9", "--out", str(out1)])
        main(["verify", "--family", "pop-pairs", "--n", "4", "--p", "3",
              "--trials", "16", "--seed", "9", "--jobs", "4", "--out", str(out4)])
        assert normalized(out1.read_text()) == normalized(out4.read_text())


class TestDeterminism:
    def test_verify_reports_byte_identical_modulo_runtime(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(["verify", "--family", "alternating", "--n", "4", "--dim", "2",
                  "--p", "2", "--trials", "20", "--seed", "77", "--out", str(path)])
            outs.append(normalized(path.read_text()))
        assert outs[0] == outs[1]

    def test_counterexample_reports_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(["counterexample", "--family", "hlawka-pop", "--n", "4",
                  "--trials", "200", "--seed", "3", "--out", str(path)])
            outs.append(normalized(path.read_text()))
        assert outs[0] == outs[1]

    def test_scalar_verify_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(["scalar-verify", "--family", "pcz", "--n", "5", "--m", "3",
                  "--trials", "50", "--seed", "13", "--out", str(path)])
            outs.append(normalized(path.read_text()))
        assert outs[0] == outs[1]


class TestFormatParity:
    def test_csv_and_json_numeric_content_match(self, tmp_path):
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        args = ["verify", "--family", "hlawka3", "--dim", "2", "--p", "3",
                "--trials", "10", "--seed", "4"]
        main(args + ["--out", str(jpath)])
        main(args + ["--out", str(cpath), "--format", "csv"])
        doc = json.loads(jpath.read_text())
        rows = {row[0]: row[1] for row in csv.reader(cpath.read_text().splitlines()[1:])}
        assert float(rows["minMargin"]) == doc["minMargin"]
        assert int(rows["trials"]) == doc["trials"]
        assert float(rows["toleranceUsed"]) == doc["toleranceUsed"]
        assert int(rows["seed"]) == doc["seed"]
        assert float(rows["params.conditionTarget"]) == doc["params"]["conditionTarget"]


class TestScalarVerifyCommand:
    def test_det_hlawka_exit_zero(self):
        code = main(["scalar-verify", "--family", "hlawka3", "--char", "det",
                     "--dim", "3", "--trials", "50", "--seed", "6"])
        assert code == 0

    @pytest.mark.parametrize("family", ["hlawka3", "supermod"])
    def test_three_matrix_families_refuse_other_n(self, family, capsys):
        assert main(["scalar-verify", "--family", family, "--n", "5", "--trials", "1"]) == 2
        assert f"{family} takes exactly three matrices (got --n 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--family", "superadd", "--n", "1"],
        ["--family", "alternating", "--n", "2"],
        ["--family", "pop-subsets", "--n", "4"],
        ["--family", "pop-levels", "--n", "4"],
    ], ids=lambda args: args[1])
    def test_parameter_fault_reads_the_same_under_both_commands(self, args, capsys):
        errors = []
        for command in ("verify", "scalar-verify"):
            assert main([command, *args, "--trials", "2"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: {args[1]} needs ")

    @pytest.mark.parametrize("args, message", [
        (["--family", "radu", "--n", "4", "--k", "9"],
         "radu needs n >= 3 and 2 <= k <= n, got n=4, k=9"),
        (["--family", "radu", "--n", "4"], "radu needs n >= 3 and 2 <= k <= n, got n=4, k=None"),
        (["--family", "pcz", "--n", "5"], "pcz needs 2 <= m < n, got n=5, m=None"),
        (["--family", "pcz", "--n", "5", "--m", "5"], "pcz needs 2 <= m < n, got n=5, m=5"),
        (["--family", "vasc", "--n", "2"], "vasc needs n >= 3, got n=2"),
        (["--family", "pop-levels-scalar", "--n", "4", "--k", "2", "--ell", "2", "--m", "3"],
         "pop-levels-scalar needs 1 <= k < ell < m <= n, got n=4, k=2, ell=2, m=3"),
        (["--family", "popoviciu", "--n", "4"], "popoviciu needs n = 3, got n=4"),
    ], ids=["radu-k9", "radu-no-k", "pcz-no-m", "pcz-m5", "vasc-n2", "pop-levels-scalar",
            "popoviciu-n4"])
    def test_convex_norm_parameter_fault_names_the_suite(self, args, message, capsys):
        # The same table message whether or not a trial runs.
        for trials in ("0", "2"):
            assert main(["scalar-verify", *args, "--trials", trials]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_pcz_suite_exit_zero(self):
        code = main(["scalar-verify", "--family", "pcz", "--n", "5", "--m", "3",
                     "--trials", "100", "--seed", "8"])
        assert code == 0

    def test_known_counterexample_nonzero_exit_margin_minus_two(self, tmp_path):
        out = tmp_path / "hp.json"
        code = main(["scalar-verify", "--family", "hlawka-pop", "--n", "4",
                     "--include-known", "--fn", "abs", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["minMargin"] == -2.0
        assert len(doc["violations"]) == 1
        assert doc["violations"][0]["margin"] == -2.0
        assert doc["violations"][0]["inputs"] == [-10.0, 1.0, 1.0, 9.0]

    def test_hlawka_pop_n3_no_violations(self):
        code = main(["scalar-verify", "--family", "hlawka-pop", "--n", "3",
                     "--trials", "100", "--seed", "10"])
        assert code == 0

    def test_violations_never_exceed_trials(self, tmp_path):
        # With --fn all, several functions can violate on one trial; the
        # report still carries at most one violation entry per trial.
        out = tmp_path / "hp.json"
        main(["scalar-verify", "--family", "hlawka-pop", "--n", "4",
              "--include-known", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert len(doc["violations"]) <= doc["trials"]
        assert doc["violations"][0]["margin"] == -2.0

    def test_explicit_points(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(["scalar-verify", "--family", "hlawka-pop",
                     "--points=-10,1,1,9", "--fn", "abs", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["minMargin"] == -2.0

    def test_immanant_corollary_suite(self):
        code = main(["scalar-verify", "--family", "alternating", "--n", "4",
                     "--char", "partition=2,1", "--dim", "3", "--trials", "25",
                     "--seed", "12"])
        assert code == 0

    def test_norm_suites(self):
        assert main(["scalar-verify", "--family", "norm-hlawka", "--dim", "3",
                     "--trials", "100", "--seed", "1"]) == 0
        assert main(["scalar-verify", "--family", "radu", "--n", "5", "--k", "3",
                     "--dim", "3", "--trials", "100", "--seed", "1"]) == 0

    def test_evaluator_only_families_exit_zero_with_flags(self, tmp_path):
        out = tmp_path / "f.json"
        code = main(["scalar-verify", "--family", "functional-hlawka", "--n", "3",
                     "--trials", "50", "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert any("evaluator-only" in f for f in doc["interpretationFlags"])

    def test_pop_levels_scalar_measures_only(self, tmp_path):
        out = tmp_path / "pl.json"
        code = main(["scalar-verify", "--family", "pop-levels-scalar", "--n", "5",
                     "--k", "1", "--ell", "3", "--m", "5", "--trials", "50",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert any("evaluator-only" in f for f in doc["interpretationFlags"])


class TestParametersCheckedBeforeTheTrials:
    @pytest.mark.parametrize("command, code", [
        ("verify --family hlawka3 --p 13", 3),
        ("verify --family superadd --n 1", 2),
        ("scalar-verify --family pcz --n 5", 2),
        ("scalar-verify --family radu --n 4 --k 9", 2),
    ])
    def test_zero_trials_still_refuse_bad_parameters(self, command, code, tmp_path):
        out = tmp_path / "r.json"
        assert main([*command.split(), "--trials", "0", "--out", str(out)]) == code
        assert not out.exists()


class TestCounterexampleCommand:
    def test_include_known_reports_violation(self, tmp_path):
        out = tmp_path / "ce.json"
        code = main(["counterexample", "--family", "hlawka-pop", "--n", "4",
                     "--include-known", "--trials", "5", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert any(v["inputs"] == [-10.0, 1.0, 1.0, 9.0] for v in doc["violations"])

    def test_freudenthal_n3_empty(self, tmp_path):
        out = tmp_path / "ce.json"
        code = main(["counterexample", "--family", "freudenthal", "--n", "3",
                     "--dim", "3", "--trials", "300", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["violations"] == []

    def test_unknown_family_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["counterexample", "--family", "nonesuch", "--trials", "1"])
        assert err.value.code == 2


class TestImmanantCommand:
    def test_det_of_identity(self, id3, capsys):
        assert main(["immanant", id3, "det"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_perm_of_ones(self, tmp_path, capsys):
        path = tmp_path / "ones.json"
        save_matrix(path, np.ones((3, 3), dtype=complex))
        assert main(["immanant", str(path), "perm"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_partition_of_identity(self, id3, capsys):
        assert main(["immanant", id3, "partition=2,1"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_seventeen_digit_round_trip(self, tmp_path, capsys):
        h = random_pd(PdSampleConfig(dim=3, seed=123))
        path = tmp_path / "m.json"
        save_matrix(path, h)
        assert main(["immanant", str(path), "det"]) == 0
        printed = capsys.readouterr().out.strip()
        from hlawka.matfunc import generalized_matrix_function
        from hlawka.symgroup import CharacterSpec, GroupSpec

        expected = generalized_matrix_function(h.array, GroupSpec.full_symmetric(3),
                                               CharacterSpec.sign())
        assert printed == format_complex_sig17(expected)
        # The 17-significant-digit rendering is bit-exact on re-parse.
        assert float(format_sig17(expected.real)) == expected.real

    def test_table_selector(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        save_character_table(table, [(0, 1, 2), (1, 0, 2)], [1.0, -1.0])
        mat = tmp_path / "d.json"
        save_matrix(mat, np.diag([2.0, 3.0, 5.0]).astype(complex))
        assert main(["immanant", str(mat), f"table={table}"]) == 0
        assert capsys.readouterr().out.strip() == "30"

    def test_missing_file_exit_two(self):
        assert main(["immanant", "/nonexistent.json", "det"]) == 2

    def test_bad_selector_exit_two(self, id3):
        assert main(["immanant", id3, "spectral"]) == 2

    def test_degree_budget_exit_three(self, tmp_path):
        path = tmp_path / "big.json"
        save_matrix(path, np.eye(9, dtype=complex))
        assert main(["immanant", str(path), "perm"]) == 3


class TestFormatting:
    def test_sig17_round_trip(self, rng):
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** int(rng.integers(-20, 20)))
            assert float(format_sig17(x)) == x

    def test_complex_formatting(self):
        assert format_complex_sig17(1.0 + 0j) == "1"
        assert format_complex_sig17(1.5 - 2.25j) == "1.5-2.25i"


class TestHarnessApi:
    def test_psd_only_flag_never_set_for_pd_sampler(self):
        report, code = run_verify(RunConfig(family="hlawka3", p=2, dim=2, trials=5, seed=1))
        assert code == 0
        assert all("psd-only" not in f for f in report.interpretation_flags)

    def test_min_margin_bounds_reported_margins(self):
        report, _ = run_verify(RunConfig(family="superadd", n=3, p=2, dim=2, trials=10, seed=2))
        assert report.min_margin is not None
        for v in report.violations:
            assert report.min_margin <= v["minEigenvalue"]

    def test_counterexample_runner_flags(self):
        report, code = run_counterexample(
            RunConfig(family="freudenthal", n=4, dim=2, trials=50, seed=3)
        )
        assert code == 0
        assert any("search" in f for f in report.interpretation_flags)

    def test_scalar_runner_rejects_unknown_family(self):
        with pytest.raises(Exception):
            run_scalar_verify(RunConfig(family="nonesuch", trials=1, seed=0))


def family_choices(command: str) -> tuple:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a.choices for a in sub.choices[command]._actions if a.dest == "family"))


def readme_statuses() -> dict:
    """Name and status of every row of the README "What is checked" tables."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## What is checked", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `([^`]+)` +\|.*\| *(\w+) *\|$", section, flags=re.M))


class TestRegistryDrift:
    def test_verify_choices_are_the_operator_families(self):
        assert family_choices("verify") == tuple(f.value for f in OperatorFamily)

    def test_scalar_verify_choices_are_the_registry(self):
        assert family_choices("scalar-verify") == tuple(SUITES)

    def test_every_convex_norm_suite_has_one_table_entry(self):
        suites = {name: suite for name, suite in SUITES.items() if suite.sampler != "matrices"}
        assert sorted(suites) == sorted(CONVEX_NORM_SUITES)
        for name, suite in suites.items():
            assert (suite.sampler == "vectors") == (CONVEX_NORM_SUITES[name].term == "norm")

    def test_readme_statuses_match_the_registry(self):
        assert readme_statuses() == {name: suite.status for name, suite in SUITES.items()}
