"""Batched trial engine: stacked calls and chunked suites against the
per-trial oracle, bit for bit."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from conftest import EDGE_SEEDS, numpy_inputs, pd_tuple, random_hermitian, stack_of

import hlawka.harness as harness
import hlawka.matfunc as matfunc
from hlawka.cli import main
from hlawka.errors import InputError
from hlawka.harness import RunConfig, run_scalar_verify, run_verify
from hlawka.linalg import (
    DEFAULT_LOEWNER_TOL,
    DEFAULT_MAX_TENSOR_DIM,
    HermitianStack,
    _kron_power,
    Verdict,
    min_eigenvalue,
    kron,
    psd_certificate,
    random_pd,
    tensor_power,
)
from hlawka.matfunc import (
    _group_data,
    generalized_matrix_function,
    parse_character_selector,
    scalar_inequality_check,
)
from hlawka.report import TrialReport
import hlawka.scalar as scalar
from hlawka.scalar import (
    ScalarCheckResult,
    SUITES,
    ScalarCheckResults,
    convex_catalog,
    row_bytes,
)
from hlawka.symgroup import (
    CharacterSpec,
    GroupSpec,
    character_values,
    cycle_type,
    enumerate_group,
    mn_character,
    partitions_of,
    permutation_sign,
)
from hlawka.sums import FAMILIES, build_difference, working_set
from hlawka.util import derive_seed


def normalized(text: str) -> str:
    return re.sub(r'"runtimeMs": \d+', '"runtimeMs": 0', text)


def tuple_digest(mats) -> str:
    h = hashlib.sha256()
    for m in mats:
        h.update(bytes.fromhex(m.digest))
    return h.hexdigest()


#: The settings the oracles read beyond each case's own: the harness's
#: values for fields a case leaves unset.
VERIFY_SETTINGS = dict(n=3, condition_target=10.0, max_tensor_dim=DEFAULT_MAX_TENSOR_DIM)
SCALAR_SETTINGS = dict(n=3, condition_target=10.0)


def verify_cfg(**settings) -> RunConfig:
    return RunConfig(**{**VERIFY_SETTINGS, **settings})


def scalar_cfg(**settings) -> RunConfig:
    return RunConfig(**{**SCALAR_SETTINGS, **settings})


def oracle_verify(cfg: RunConfig) -> TrialReport:
    """``verify`` one seeded tuple at a time, through the single-matrix calls."""
    family, n = cfg.family, cfg.n
    levels = {k: getattr(cfg, k) for k in ("k", "ell", "m") if getattr(cfg, k) is not None}
    tol = DEFAULT_LOEWNER_TOL if cfg.tol is None else cfg.tol
    margins, violations, equality, psd_only = [], [], 0, False
    for t in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, t)
        mats = pd_tuple(trial_seed, n, cfg.dim, cfg.condition_target)
        psd_only |= not all(min_eigenvalue(m) > 1e-12 for m in mats)
        diff = build_difference(family, mats, cfg.p, cfg.max_tensor_dim, **levels)
        cert = psd_certificate(diff, tol)
        margins.append(cert.min_eigenvalue)
        equality += cert.verdict is Verdict.EQUALITY
        if cert.verdict is Verdict.FAILS:
            violations.append({"inputsDigest": tuple_digest(mats),
                               "minEigenvalue": cert.min_eigenvalue, "seed": trial_seed})
    flags = ["psd-only-inputs: some inputs were not strictly positive definite"] * psd_only
    params_dict = {"n": n, "p": cfg.p, "dim": cfg.dim, "conditionTarget": cfg.condition_target,
                   "maxTensorDim": cfg.max_tensor_dim}
    params_dict.update({k: getattr(cfg, k) for k in ("k", "ell", "m")
                        if getattr(cfg, k) is not None})
    return TrialReport(family=cfg.family, params=params_dict, trials=cfg.trials, seed=cfg.seed,
                       tolerance_used=tol, min_margin=min(margins) if margins else None,
                       equality_cases=equality, violations=violations,
                       interpretation_flags=flags)


def oracle_scalar(cfg: RunConfig) -> TrialReport:
    """The matrix-function half of ``scalar-verify``, one tuple at a time."""
    family, n = cfg.family, cfg.n
    levels = {k: getattr(cfg, k) for k in ("k", "ell", "m") if getattr(cfg, k) is not None}
    group, chi = parse_character_selector(cfg.char, cfg.dim)
    tol = harness.DEFAULT_SCALAR_MATRIX_TOL if cfg.tol is None else cfg.tol
    margins, violations, equality = [], [], 0
    for t in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, t)
        mats = pd_tuple(trial_seed, n, cfg.dim, cfg.condition_target)
        res = scalar_inequality_check(family, mats, group, chi, tol, **levels)
        margins.append(res.margin)
        equality += abs(res.margin) <= tol * res.scale
        if not res.holds:
            violations.append({"inputsDigest": tuple_digest(mats), "margin": res.margin,
                               "seed": trial_seed})
    return TrialReport(family=f"{cfg.family}[{cfg.char}]",
                       params={"n": n, "dim": cfg.dim, "char": cfg.char,
                               "conditionTarget": cfg.condition_target, **levels},
                       trials=cfg.trials, seed=cfg.seed, tolerance_used=tol,
                       min_margin=min(margins) if margins else None, equality_cases=equality,
                       violations=violations)


def assert_same_report(batched: TrialReport, oracle: TrialReport) -> None:
    assert normalized(batched.to_json()) == normalized(oracle.to_json())


def owner(array: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``array`` views."""
    while array.base is not None:
        array = array.base
    return array


def count_chunks(monkeypatch) -> list:
    """Record the stack size of every sampling call the harness makes."""
    sizes = []
    original = harness.random_pd

    def counting(dim, seeds, condition_target):
        sizes.append(len(seeds))
        return original(dim, seeds, condition_target)

    monkeypatch.setattr(harness, "random_pd", counting)
    return sizes


#: One configuration per family; each spans several chunks at the real
#: budget, which counts the build's working set (dim 2, p 4: 4 to 28 KiB
#: per trial, so 18 to 128 trials per chunk).
VERIFY_CASES = [
    dict(family="hlawka3", p=4),
    dict(family="supermod", p=4),
    dict(family="superadd", n=4, p=4),
    dict(family="alternating", n=5, p=4, condition_target=1000.0),  # D = 0 exactly
    dict(family="pop-pairs", n=4, p=4),
    dict(family="pop-subsets", n=5, m=3, p=4),
    dict(family="pop-levels", n=4, k=1, ell=2, m=3, p=4),
]


class TestVerifyAgainstOracle:
    @pytest.mark.parametrize("case", VERIFY_CASES, ids=lambda c: c["family"])
    def test_every_family(self, case, monkeypatch):
        # At a quarter of the default budget every family's 140 trials take
        # four chunks or more.
        cfg = verify_cfg(dim=2, trials=140, seed=5, **case)
        monkeypatch.setattr(harness, "CHUNK_BYTES", harness.CHUNK_BYTES // 4)
        sizes = count_chunks(monkeypatch)
        report, _ = run_verify(cfg)
        n = cfg.n
        # The count of a trial: the build's working set, or the
        # certificate's two differences where larger (alternating's D = 0).
        held = max(working_set(cfg.family, n, cfg.p, 2, k=cfg.k, ell=cfg.ell, m=cfg.m),
                   2 * 2 ** (2 * cfg.p))
        chunk = harness.CHUNK_BYTES // (16 * held)
        assert len(sizes) > 1
        assert sizes == [n * min(chunk, 140 - lo) for lo in range(0, 140, chunk)]
        monkeypatch.undo()
        assert_same_report(report, oracle_verify(cfg))

    def test_violations_are_reported_like_the_oracle(self, monkeypatch):
        # The negated difference of a proven family fails on every trial,
        # through the harness and through the oracle alike.
        original = build_difference
        negated = lambda *args, **kwargs: -original(*args, **kwargs)
        monkeypatch.setattr(harness, "build_difference", negated)
        monkeypatch.setitem(globals(), "build_difference", negated)
        cfg = verify_cfg(family="hlawka3", p=3, dim=2, trials=40, seed=5)
        report, code = run_verify(cfg)
        assert report.violations and code == 1
        assert_same_report(report, oracle_verify(cfg))

    @pytest.mark.parametrize("delta", [None, -1, 0, 1])
    def test_trial_counts_around_a_chunk(self, delta, monkeypatch):
        # hlawka3 at dim 2, p 3: a trial's workspace holds 216 entries: the
        # even steps' tables (three 4x4 pair tables), one 8x8 product, one
        # 4x4 gather, three 2x2 letters, the three 2x2 inputs and the 8x8
        # difference, whose buffer also holds the odd steps' tables.
        assert working_set("hlawka3", 3, 3, 2) == 48 + 64 + 16 + 12 + 12 + 64
        chunk = harness.CHUNK_BYTES // (16 * 216)
        trials = 0 if delta is None else chunk + delta
        cfg = verify_cfg(family="hlawka3", p=3, dim=2, trials=trials, seed=3)
        sizes = count_chunks(monkeypatch)
        report, _ = run_verify(cfg)
        assert sum(sizes) == 3 * trials
        assert len(sizes) == math.ceil(trials / chunk)
        monkeypatch.undo()
        assert_same_report(report, oracle_verify(cfg))

    def test_one_trial(self):
        cfg = verify_cfg(family="pop-pairs", n=4, p=3, dim=2, trials=1, seed=8)
        assert_same_report(run_verify(cfg)[0], oracle_verify(cfg))

    def test_trial_over_budget_runs_alone(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_BYTES", 100)
        cfg = verify_cfg(family="hlawka3", p=2, dim=2, trials=3, seed=4)
        sizes = count_chunks(monkeypatch)
        report, _ = run_verify(cfg)
        assert sizes == [3, 3, 3]
        monkeypatch.undo()
        assert_same_report(report, oracle_verify(cfg))

    @pytest.mark.parametrize("family, n, p, trials", [
        ("hlawka3", 3, 8, 1), ("hlawka3", 3, 3, 1900), ("pop-pairs", 6, 4, 200)])
    def test_the_last_chunk_certifies_beside_its_difference_alone(
            self, family, n, p, trials, monkeypatch):
        # Every chunk but the last certifies with the run's workspace held;
        # the last drops it once its difference is built, so what is traced
        # then is that difference's buffer, of exactly its size, and the
        # chunk's inputs and their digests: the trial loop holds no inputs of
        # the chunk before.  pop-pairs at n 6, p 4 keeps a table of step 2
        # larger than its difference.
        held, owners = [], []
        original = harness.psd_certificate

        def certify(diff, tol):
            held.append(tracemalloc.get_traced_memory()[0])
            owners.append(owner(diff.array).nbytes == diff.array.nbytes)
            return original(diff, tol)

        monkeypatch.setattr(harness, "psd_certificate", certify)
        cfg = RunConfig(family=family, n=n, p=p, dim=2, trials=trials, seed=2)
        run_verify(cfg)  # caches and first-call allocations
        held.clear()
        owners.clear()
        tracemalloc.start()
        try:
            run_verify(cfg)
        finally:
            tracemalloc.stop()
        *chunks, last = held
        entries = working_set(family, n, p, 2)
        count = min(trials, max(1, harness.CHUNK_BYTES // (16 * entries)))
        workspace = 16 * count * entries
        table = 16 * (trials - count * len(chunks)) * 4**p
        assert last < table + 192 * 1024 < workspace
        assert len(chunks) == math.ceil(trials / count) - 1
        assert all(current > last + (workspace - table) // 2 for current in chunks)
        assert owners[-1]

    def test_psd_only_flag_from_the_stacked_check(self, monkeypatch):
        monkeypatch.setattr(harness, "min_eigenvalue",
                            lambda stack: np.zeros(len(stack)))
        report, _ = run_verify(RunConfig(family="hlawka3", p=2, dim=2, trials=2, seed=1))
        assert any("psd-only" in f for f in report.interpretation_flags)


class TestScalarAgainstOracle:
    @pytest.mark.parametrize("case", [
        dict(family="alternating", n=4, dim=4, char="det"),
        dict(family="hlawka3", dim=3, char="perm"),
        dict(family="pop-levels", n=4, k=1, ell=2, m=3, dim=3, char="partition=2,1"),
        dict(family="supermod", dim=4, char="partition=3,1"),
    ], ids=lambda c: f"{c['family']}[{c['char']}]")
    def test_characters(self, case):
        cfg = scalar_cfg(trials=200, seed=6, **case)
        assert_same_report(run_scalar_verify(cfg)[0], oracle_scalar(cfg))

    @pytest.mark.parametrize("delta", [None, -1, 0, 1])
    def test_trial_counts_around_a_chunk(self, delta, monkeypatch):
        # alternating over 4 inputs at dim 4: a trial's row holds 15 subset
        # sums of 32 real coordinates at 16 bytes each, and 64 bytes per term
        # and input, below its sampler's 16 * 9 n dim^2 bytes, which size it.
        assert row_bytes("alternating", 4, 4, 1) == 16 * 15 * 32 + 64 * (15 + 4) < 16 * 9 * 4 * 16
        chunk = harness.CHUNK_BYTES // (16 * 9 * 4 * 16)
        trials = 0 if delta is None else chunk + delta
        cfg = scalar_cfg(family="alternating", n=4, dim=4, char="det", trials=trials, seed=2)
        sizes = count_chunks(monkeypatch)
        report, _ = run_scalar_verify(cfg)
        assert len(sizes) == math.ceil(trials / chunk)
        monkeypatch.undo()
        assert_same_report(report, oracle_scalar(cfg))

    def test_matrix_functions_run_a_block_of_subset_sums_at_a_time(self, tmp_path, monkeypatch):
        # 16383 subsets of 14 inputs: one call per subset and chunk, each on
        # a stack of one trial, made the route per-call overhead at large n.
        calls = []
        original = matfunc.generalized_matrix_function

        def counted(x, group, chi):
            calls.append(len(x))
            return original(x, group, chi)

        monkeypatch.setattr(matfunc, "generalized_matrix_function", counted)
        assert main(["scalar-verify", "--family", "alternating", "--char", "det", "--n", "14",
                     "--dim", "2", "--trials", "2", "--out", str(tmp_path / "r.json")]) == 0
        block = harness.CHUNK_BYTES // (16 * 4 * 2 * 2)  # S_2: two elements of degree 2
        assert sum(calls) == 2 * 16383
        assert len(calls) <= math.ceil(2 * 16383 / block)

    def test_one_trial(self):
        cfg = scalar_cfg(family="alternating", n=4, dim=3, char="perm", trials=1, seed=9)
        assert_same_report(run_scalar_verify(cfg)[0], oracle_scalar(cfg))


def sign_of(digest: str) -> int:
    """-1, 0 or +1, keyed by a trial's input digest, so by its seed."""
    return int(digest[:8], 16) % 3 - 1


def flip_sides(lhs: np.ndarray, rhs: np.ndarray, signs) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sides swapped where its sign is -1, both its rhs where it
    is 0 (an exact zero margin), as they are where it is +1."""
    s = np.reshape(signs, (-1, *[1] * (lhs.ndim - 1)))
    return np.where(s == 1, lhs, rhs), np.where(s == -1, lhs, rhs)


def flipped_build(original):
    """The build with each trial's difference times the sign of its first input."""
    def build(family, mats, *args, **kwargs):
        out = original(family, mats, *args, **kwargs)
        signs = np.array([sign_of(d) for d in mats[0].digests], dtype=np.float64)
        return type(out)._wrap_exact(out._arr * signs[:, None, None])
    return build


def flipped_check(original):
    """The check with each trial's sides flipped by the sign of its first input."""
    def check(family, mats, *args, **kwargs):
        res = original(family, mats, *args, **kwargs)
        many = isinstance(res, ScalarCheckResults)
        rows = res if many else ScalarCheckResults(*(
            np.array([[getattr(res, side)]]) for side in ("lhs", "rhs", "margin", "scale")),
            res.tolerance)
        lhs, rhs = flip_sides(rows.lhs, rows.rhs, [sign_of(d) for d in mats[0].digests])
        out = ScalarCheckResults(lhs, rhs, lhs - rhs, rows.scale, rows.tolerance)
        return out if many else out[0]
    return check


def flipped_search_margin(original):
    """The evaluator with each row's sides flipped by the sign of its data."""
    def evaluate(suite, data, *args, **kwargs):
        record = original(suite, data, *args, **kwargs)
        lhs, rhs = flip_sides(record.lhs, record.rhs,
                              [sign_of(harness._data_digest(row)) for row in data])
        return ScalarCheckResults(lhs, rhs, lhs - rhs, record.scale, record.tolerance,
                                  record.refusals)
    return evaluate


def oracle_convex(cfg: RunConfig) -> TrialReport:
    """A convex suite under every catalog function, one seeded input at a
    time through a block of one: a trial's worst outcome is its first
    lowest margin, as ``min`` picks it."""
    fns = list(convex_catalog())
    margins, violations, equality = [], [], 0
    for t in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, t)
        data = numpy_inputs(cfg.family, np.random.default_rng(trial_seed), cfg.n, cfg.dim)
        block = scalar._search_margin(cfg.family, data[np.newaxis], fns)
        outcomes = []
        for fn, lhs, rhs, scale in zip(fns, *(side[0].tolist() for side in (
                block.lhs, block.rhs, block.scale))):
            result = ScalarCheckResult(lhs, rhs, lhs - rhs, scale, cfg.tol)
            outcomes.append((fn.kind, result.margin, result.verdict))
        equality += all(verdict is Verdict.EQUALITY for _, _, verdict in outcomes)
        kind, margin, verdict = min(outcomes, key=lambda outcome: outcome[1])
        margins.append(margin)
        if verdict is Verdict.FAILS:
            violations.append({"inputsDigest": harness._data_digest(data), "margin": margin,
                               "seed": trial_seed, "inputs": data.tolist(), "fn": kind})
    return TrialReport(family=cfg.family, params={"n": cfg.n, "fn": "all"},
                       trials=cfg.trials, seed=cfg.seed, tolerance_used=cfg.tol,
                       min_margin=min(margins) if margins else None, equality_cases=equality,
                       violations=violations, interpretation_flags=SUITES[cfg.family].notes(cfg.n))


class TestMixedVerdictChunks:
    # Each trial's verdict is flipped by a sign keyed by its inputs (so by
    # its seed), through the harness and the oracle alike: chunks then mix
    # FAILS with HOLDS and EQUALITY rows, and the reports must agree on
    # the order of the violations, equalityCases and minMargin.
    def assert_mixed(self, report: TrialReport, chunks: int) -> None:
        assert chunks > 1
        assert 0 < len(report.violations) < report.trials
        assert 0 < report.equality_cases < report.trials - len(report.violations)

    def test_verify(self, monkeypatch):
        cfg = verify_cfg(family="hlawka3", p=3, dim=2, trials=1500, seed=11)
        flipped = flipped_build(build_difference)
        monkeypatch.setattr(harness, "build_difference", flipped)
        sizes = count_chunks(monkeypatch)
        report, code = run_verify(cfg)
        self.assert_mixed(report, len(sizes))
        assert code == 1
        monkeypatch.setitem(globals(), "build_difference", flipped)
        assert_same_report(report, oracle_verify(cfg))

    def test_matrix_route(self, monkeypatch):
        cfg = scalar_cfg(family="alternating", n=4, dim=4, char="det", trials=400, seed=12)
        flipped = flipped_check(scalar_inequality_check)
        monkeypatch.setattr(harness, "scalar_inequality_check", flipped)
        sizes = count_chunks(monkeypatch)
        report, code = run_scalar_verify(cfg)
        self.assert_mixed(report, len(sizes))
        assert code == 1
        monkeypatch.setitem(globals(), "scalar_inequality_check", flipped)
        assert_same_report(report, oracle_scalar(cfg))

    def test_convex_route(self, monkeypatch):
        cfg = RunConfig(family="popoviciu", fn="all", trials=1200, seed=13, tol=1e-12)
        chunk = harness.CHUNK_BYTES // row_bytes("popoviciu", 3, 1, len(convex_catalog()))
        assert cfg.trials > 2 * chunk
        monkeypatch.setattr(scalar, "_search_margin", flipped_search_margin(scalar._search_margin))
        report, code = run_scalar_verify(cfg)
        self.assert_mixed(report, math.ceil(cfg.trials / chunk))
        assert {v["fn"] for v in report.violations} != {report.violations[0]["fn"]}
        assert_same_report(report, oracle_convex(dataclasses.replace(cfg, n=3)))


class TestCliChunking:
    @pytest.mark.parametrize("command, flag", [
        ("verify --family hlawka3", "--jobs 1"),
        ("scalar-verify --family hlawka3 --char det", "--jobs 1"),
        ("counterexample --family freudenthal", "--jobs 1"),
        ("scalar-verify --family hlawka3 --char det", "--max-dim 8"),
        ("counterexample --family freudenthal", "--max-dim 8"),
        # Not read as an abbreviation of --points, which would evaluate the point 4.
        ("scalar-verify --family jensen", "--p 4"),
    ])
    def test_flags_no_route_reads_are_refused(self, command, flag, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main([*command.split(), "--trials", "2", *flag.split(), "--out", str(out)])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["verify", "--family", "hlawka3"],
        ["scalar-verify", "--family", "jensen"],
        ["counterexample", "--family", "freudenthal"],
    ])
    def test_negative_trials_is_a_usage_error(self, command, capsys):
        assert main(command + ["--trials", "-5"]) == 2
        assert capsys.readouterr().err == "error: trials must be nonnegative\n"

    def test_empty_tuple_is_a_usage_error(self):
        assert main(["verify", "--family", "alternating", "--n", "0", "--trials", "2"]) == 2

    @pytest.mark.parametrize("extra", [["--p", "13"], ["--p", "40"], ["--p", "4", "--max-dim", "8"]])
    def test_budget_refused_before_any_large_allocation(self, extra):
        tracemalloc.start()
        try:
            code = main(["verify", "--family", "hlawka3", "--dim", "2", "--trials", "5"] + extra)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 1 << 20

    def test_report_digests_name_the_sampled_tuple(self, tmp_path, monkeypatch):
        # A negated difference makes every trial a violation.
        original = build_difference
        monkeypatch.setattr(harness, "build_difference",
                            lambda *args, **kwargs: -original(*args, **kwargs))
        path = tmp_path / "r.json"
        main(["verify", "--family", "alternating", "--n", "5", "--dim", "2", "--p", "5",
              "--condition-target", "1000", "--trials", "3", "--seed", "1", "--out", str(path)])
        violations = json.loads(path.read_text())["violations"]
        assert len(violations) == 3
        for v in violations:
            assert v["inputsDigest"] == tuple_digest(pd_tuple(v["seed"], 5, 2, 1000.0))


class TestStackedCalls:
    def test_random_pd_stack_matches_single_samples(self):
        seeds = tuple(derive_seed(11, i) for i in range(6))
        stack = random_pd(3, seeds, 50.0)
        assert (len(stack), stack.dim, stack.array.shape) == (6, 3, (6, 3, 3))
        for i, seed in enumerate(seeds):
            single = random_pd(3, (seed,), 50.0)[0]
            assert stack[i].array.tobytes() == single.array.tobytes()
            assert stack.digests[i] == single.digest

    def test_batch_config_validates_like_the_single_config(self):
        with pytest.raises(InputError):
            random_pd(0, (1,))
        with pytest.raises(InputError):
            random_pd(2, (1, -1))
        with pytest.raises(InputError):
            random_pd(2, (1,), 0.5)

    def test_certificates_and_eigenvalues_per_matrix(self):
        mats = pd_tuple(4, 5, 3)
        stack = stack_of(mats)
        assert psd_certificate(stack) == [psd_certificate(m) for m in mats]
        assert list(min_eigenvalue(stack)) == [min_eigenvalue(m) for m in mats]

    def test_generalized_matrix_function_per_matrix(self):
        mats = pd_tuple(5, 4, 4)
        stack = stack_of(mats)
        for selector in ("det", "perm", "partition=2,2"):
            group, chi = parse_character_selector(selector, 4)
            values = generalized_matrix_function(stack, group, chi)
            assert list(values) == [generalized_matrix_function(m, group, chi) for m in mats]

    def test_build_difference_per_trial_in_canonical_order(self):
        trials = [pd_tuple(derive_seed(6, t), 4, 2) for t in range(5)]
        # Shuffle positions within some trials: each trial is still
        # canonically ordered by its own digests.
        for t in (1, 3):
            trials[t] = trials[t][::-1]
        parts = [stack_of([tr[i] for tr in trials]) for i in range(4)]
        for family in ("alternating", "pop-pairs"):
            stacked = build_difference(family, parts, 3)
            assert isinstance(stacked, HermitianStack) and stacked.dim == 8
            for t, mats in enumerate(trials):
                single = build_difference(family, mats, 3)
                assert stacked[t].array.tobytes() == single.array.tobytes()

    def test_supermod_keeps_each_trials_first_matrix(self):
        trials = [pd_tuple(derive_seed(7, t), 3, 2) for t in range(4)]
        parts = [stack_of([tr[i] for tr in trials]) for i in range(3)]
        stacked = build_difference("supermod", parts, 3)
        for t, mats in enumerate(trials):
            single = build_difference("supermod", mats, 3)
            assert stacked[t].array.tobytes() == single.array.tobytes()

    def test_stacks_of_unequal_length_are_refused(self):
        a = stack_of(pd_tuple(1, 3, 2))
        b = stack_of(pd_tuple(2, 2, 2))
        with pytest.raises(InputError):
            build_difference("superadd", [a, b], 2)
        group, chi = parse_character_selector("det", 2)
        with pytest.raises(InputError):
            scalar_inequality_check("superadd", [a, b], group, chi)

    @pytest.mark.parametrize("shapes, message", [
        (((3, 2), (2, 2)), "stacked inputs must all be stacks of one length"),
        (((3, 2), (3, 3)), "all matrices must share one dimension"),
        (((None, 2), (None, 3)), "all matrices must share one dimension"),
        (((None, 2), (3, 2)), "stacked inputs must all be stacks of one length"),
    ])
    def test_one_input_check_for_both_routes(self, shapes, message):
        # (count, dim) per input; a count of None is one HermitianMatrix.
        mats = [pd_tuple(seed, 1, dim)[0] if count is None
                else stack_of(pd_tuple(seed, count, dim))
                for seed, (count, dim) in enumerate(shapes)]
        group, chi = parse_character_selector("det", 2)
        with pytest.raises(InputError) as tensor:
            build_difference("superadd", mats, 2)
        with pytest.raises(InputError) as scalar:
            scalar_inequality_check("superadd", mats, group, chi)
        assert str(tensor.value) == str(scalar.value) == message


def one_qr_sample(d: int, seed: int, condition_target: float) -> np.ndarray:
    """A log-uniform sample by the one-matrix-at-a-time formula: its own
    QR, spectrum and products, for one seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag)).conj()
    h = (q * np.geomspace(1.0, condition_target, d)) @ q.conj().T
    return (h + h.conj().T) / 2.0


def halves_of(m: int) -> list[np.ndarray]:
    """The rows of the prefix half and of the suffix half, h = m // 2; at
    degree 1 the prefix half has none."""
    return np.split(np.arange(m), [m // 2])


def column_sets(group: GroupSpec, chi: CharacterSpec) -> list:
    """The column-set layout, built from tuples: per column set A =
    sigma({0..h-1}) of the elements with chi != 0, in increasing order of
    sum over A of 2^j, the distinct prefix images and suffix images in
    lexicographic order, and chi per (prefix, suffix) pair."""
    h = group.degree // 2
    sets = {}
    elements = enumerate_group(group)
    for p, c in zip(elements.tolist(), character_values(group, chi, elements).tolist()):
        if c != 0:
            prefixes, suffixes, weights = sets.setdefault(sum(1 << j for j in p[:h]),
                                                          (set(), set(), {}))
            prefixes.add(tuple(p[:h]))
            suffixes.add(tuple(p[h:]))
            weights[tuple(p[:h]), tuple(p[h:])] = c
    return [(sorted(prefixes), sorted(suffixes), weights)
            for _, (prefixes, suffixes, weights) in sorted(sets.items())]


def half_products(arr: np.ndarray, rows: np.ndarray, slots: list) -> np.ndarray:
    """The fancy-indexed gather X[i, sigma(i)] over ``rows`` of each slot's
    image tuple, multiplied left to right, and 0 for a padded slot, None.

    Each gather is made C-ordered: ``prod`` along its rows then multiplies
    one pair at a time as (ac - bd) + (ad + bc)i, where over a column-ordered
    gather (what a column slice of the index gives) it runs numpy's
    vectorized complex multiply, which rounds differently.  No rows give 1.
    """
    images = [a for a in slots if a is not None]
    index = np.array(images, dtype=np.intp).reshape(len(images), len(rows))
    out = np.zeros(len(slots), dtype=np.complex128)
    out[:len(images)] = np.ascontiguousarray(arr[rows[np.newaxis, :], index]).prod(axis=1)
    return out


def padded(images: list, width: int) -> list:
    return [*images, *[None] * (width - len(images))]


def layout_of(group: GroupSpec, chi: CharacterSpec) -> tuple[list, np.ndarray]:
    """Per half, per column set of :func:`column_sets`, its images padded
    with None to the widest set; and W, ``(set, prefix slot, suffix
    slot)``, W_A[a, b] = chi(a u b), 0 off the support: complex for a chi
    with an imaginary part, real otherwise."""
    layout = column_sets(group, chi)
    wp = max(len(prefixes) for prefixes, _, _ in layout)
    ws = max(len(suffixes) for _, suffixes, _ in layout)
    w = np.zeros((len(layout), wp, ws), dtype=np.complex128)
    for b, (prefixes, suffixes, weights) in enumerate(layout):
        for (a, s), c in weights.items():
            w[b, prefixes.index(a), suffixes.index(s)] = c
    halves = ([padded(prefixes, wp) for prefixes, _, _ in layout],
              [padded(suffixes, ws) for _, suffixes, _ in layout])
    return halves, w if w.imag.any() else w.real.copy()


def assert_layout(group: GroupSpec, chi: CharacterSpec) -> None:
    """Both halves of :func:`_group_data` walk up to :func:`layout_of`'s
    images, set by set and slot by slot, and its W has layout_of's bytes."""
    (prefix, suffix), weights = _group_data(group, chi)
    halves, w = layout_of(group, chi)
    m = group.degree
    for levels, rows, want in zip((prefix, suffix), halves_of(m), halves):
        assert walk_up(levels, rows, m) == want
    assert (weights.dtype, weights.tobytes()) == (w.dtype, w.tobytes())


def two_index_gather(arr: np.ndarray, group: GroupSpec, chi: CharacterSpec) -> complex:
    """d(X) by the column-set formula of :func:`layout_of`: per set A, P_A
    and S_A the products of its prefix and suffix images
    (:func:`half_products`, zero-padded to the widest set), Y_A = W_A @ S_A
    as one ``np.matmul`` of a real (w x w) by [Re S_A, Im S_A], (w x 2), or
    of a complex (w x w) by S_A, (w x 1), and one ``np.matmul`` of the row
    of every P_A by the column of every Y_A.
    """
    prefix_rows, suffix_rows = halves_of(arr.shape[0])
    (prefixes, suffixes), w = layout_of(group, chi)
    ps, ys = [], []
    for w_set, prefix, suffix in zip(w, prefixes, suffixes):
        s = half_products(arr, suffix_rows, suffix)
        if np.iscomplexobj(w_set):
            ys.append(np.matmul(w_set, s[:, np.newaxis]))
        else:
            ys.append(np.matmul(w_set, np.stack([s.real, s.imag], axis=-1)).view(np.complex128))
        ps.append(half_products(arr, prefix_rows, prefix))
    y = np.concatenate(ys)
    return complex(np.matmul(np.concatenate(ps)[np.newaxis], y)[0, 0])


def left_to_right_gather(arr: np.ndarray, group: GroupSpec,
                         chi: CharacterSpec) -> tuple[complex, float]:
    """d(X) by the gather X[i, sigma(i)] over every sigma, each product left
    to right, and the scale sum_sigma |chi(sigma) prod_i X[i, sigma(i)]|."""
    perms = enumerate_group(group)
    rows = np.arange(arr.shape[0])
    chis = character_values(group, chi, perms)
    products = arr[rows[np.newaxis, :], perms].prod(axis=1)
    return complex(chis @ products), float(np.abs(chis * products).sum())


def walk_up(levels: list, rows: np.ndarray, m: int) -> list:
    """Per column set, the images sigma(rows) each slot of a half's last
    level gives, read up to the root, None for a padded slot; asserts that
    each level appends its own row, and that a padded slot appends the zero
    entry m * m to node 0."""
    if not len(rows):
        return [[()]]
    (nodes, last), inner = levels[-1], levels[:-1]
    padded_slots = last == m * m
    assert not nodes[padded_slots].any()
    flats = [last]
    for parent, flat in inner[::-1]:
        flats.append(flat[nodes])
        nodes = parent[nodes]
    assert not nodes.any()  # the first level's parent is the root, 0
    images = np.stack(flats[::-1], axis=-1) - rows * m
    assert ((images >= 0) & (images < m)).all(axis=-1)[~padded_slots].all()
    return [[None if pad else tuple(row) for row, pad in zip(*per_set)]
            for per_set in zip(images.tolist(), padded_slots)]


def generated(*gens) -> list[tuple[int, ...]]:
    """The permutation group the images ``gens`` generate."""
    group = {tuple(range(len(gens[0])))}
    frontier = list(group)
    while frontier:
        products = {tuple(g[i] for i in p) for p in frontier for g in gens}
        frontier = [q for q in products if q not in group]
        group.update(frontier)
    return sorted(group)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


class TestKernelsAgainstNumpyFormulas:
    """The kernels the single-matrix calls now share with the stacked ones,
    pinned to the plain numpy formulas they replace, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8])
    def test_random_pd_matches_one_qr_per_matrix(self, dim):
        seeds = EDGE_SEEDS + tuple(derive_seed(dim, i) for i in range(5))
        stack = random_pd(dim, seeds, 100.0)
        for i, seed in enumerate(seeds):
            expected = one_qr_sample(dim, seed, 100.0).tobytes()
            assert random_pd(dim, (seed,), 100.0)[0].array.tobytes() == expected
            assert stack[i].array.tobytes() == expected

    @pytest.mark.parametrize("dim, power", [(1, 5), (2, 1), (2, 4), (3, 3), (4, 2)])
    def test_kron_power_matches_left_associated_np_kron(self, dim, power):
        mats = pd_tuple(dim + power, 4, dim)
        stack = _kron_power(stack_of(mats).array, power)
        for i, m in enumerate(mats):
            expected = reduce(np.kron, [m.array] * power).tobytes()
            assert tensor_power(m, power).array.tobytes() == expected
            assert stack[i].tobytes() == expected

    def test_kron_of_unequal_sizes_matches_np_kron(self):
        a, b = pd_tuple(1, 1, 2)[0].array, pd_tuple(2, 1, 3)[0].array
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()
        assert kron(b, a).tobytes() == np.kron(b, a).tobytes()

    @pytest.mark.parametrize("dim, selector", [
        (3, "det"), (3, "perm"), (4, "det"), (6, "perm"), (7, "partition=3,3,1"),
        (8, "partition=4,2,1,1"),
        # Every irreducible character up to degree 6; most vanish on whole
        # classes, which the trees and the gather leave out.
        *((m, "partition=" + ",".join(map(str, lam))) for m in range(1, 7)
          for lam in partitions_of(m)),
    ])
    def test_generalized_matrix_function_matches_the_two_index_gather(self, dim, selector):
        mats = pd_tuple(dim, 6, dim)
        group, chi = parse_character_selector(selector, dim)
        expected = bits([two_index_gather(m.array, group, chi) for m in mats])
        assert bits([generalized_matrix_function(m, group, chi) for m in mats]) == expected
        assert bits(generalized_matrix_function(stack_of(mats), group, chi)) == expected

    @pytest.mark.parametrize("dim, selector", [
        *((m, selector) for m in range(1, 8) for selector in ("det", "perm")),
        *((m, "partition=" + ",".join(map(str, lam))) for m in range(1, 8)
          for lam in partitions_of(m)),
    ])
    def test_the_left_to_right_gather_agrees_within_its_forward_error_bound(self, dim, selector):
        # Either route forms each product with m - 1 complex multiplies and
        # weighs it with one more, each within sqrt(2) * gamma_2 <= gamma_3
        # of exact (Higham, Accuracy and Stability, Lemma 3.5), and sums at
        # most N = |G| terms in some order, the real and imaginary parts
        # each within gamma_(N-1) of their sums of absolute values: in all
        # within gamma_(3m + 2N) * sum_sigma |chi(sigma) prod_i X[i, sigma(i)]|
        # of d.  The worst difference observed here is 2.8e-15 of the scale.
        rng = np.random.default_rng(dim)
        group, chi = parse_character_selector(selector, dim)
        n = len(enumerate_group(group))
        k = 3 * dim + 2 * n
        bound = 2 * k * 2.0**-53 / (1 - k * 2.0**-53)
        mats = [m.array for m in pd_tuple(dim, 4, dim)]
        mats += [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                 for _ in range(4)]
        for x in mats:
            expected, scale = left_to_right_gather(x, group, chi)
            assert abs(generalized_matrix_function(x, group, chi) - expected) <= bound * scale

    def test_generalized_matrix_function_of_an_explicit_subgroup_matches_the_gather(self):
        # S_3 x S_2 on six letters: its prefix tree has 3, 2, 1 children per
        # node, level by level, and its suffix tree 2, 1, 1, where S_6 has
        # 6, 5, 4 and 3, 2, 1.  Every element maps {0, 1, 2} onto itself, so
        # there is one column set, of 6 prefix and 2 suffix slots, and the
        # complex character gives a complex W.
        group = GroupSpec.explicit(generated((1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5),
                                             (0, 1, 2, 4, 3, 5)))
        rng = np.random.default_rng(13)
        values = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / 4
        chi = CharacterSpec.from_table([1.0, *values[1:]])
        (prefix, suffix), weights = _group_data(group, chi)
        assert [flat.shape for _, flat in prefix] == [(3,), (6,), (1, 6)]
        assert [flat.shape for _, flat in suffix] == [(2,), (2,), (1, 2)]
        assert (weights.dtype, weights.shape) == (np.complex128, (1, 6, 2))
        assert_layout(group, chi)
        mats = pd_tuple(6, 5, 6)
        expected = bits([two_index_gather(m.array, group, chi) for m in mats])
        assert bits([generalized_matrix_function(m, group, chi) for m in mats]) == expected
        assert bits(generalized_matrix_function(stack_of(mats), group, chi)) == expected

    def test_a_subgroup_whose_suffixes_are_out_of_order(self):
        # The dihedral group of the pentagon under a complex table
        # character: in enumeration order its suffixes sigma(2..4) are not
        # sorted, so the suffix tree is built over the support sorted by
        # them, and its last level lists each set's suffixes in order.
        group = GroupSpec.explicit(generated((1, 2, 3, 4, 0), (0, 4, 3, 2, 1)))
        elements = enumerate_group(group)
        suffixes = [tuple(p[2:]) for p in elements.tolist()]
        assert len(elements) == 10 and suffixes != sorted(suffixes)
        rng = np.random.default_rng(31)
        values = (rng.standard_normal(10) + 1j * rng.standard_normal(10)) / 4
        chi = CharacterSpec.from_table([1.0, *values[1:]])
        assert_layout(group, chi)
        mats = [*pd_tuple(8, 5, 5), random_hermitian(rng, 5)]
        expected = bits([two_index_gather(m.array, group, chi) for m in mats])
        assert bits([generalized_matrix_function(m, group, chi) for m in mats]) == expected
        assert bits(generalized_matrix_function(stack_of(mats), group, chi)) == expected

    def test_a_table_character_with_zeros_matches_the_gather(self):
        # The subgroup above under a table character with three zero values,
        # one of them -0 - 0i: the trees leave their elements out, and W
        # weighs their pairs with 0.
        group = GroupSpec.explicit(generated((1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5),
                                             (0, 1, 2, 4, 3, 5)))
        rng = np.random.default_rng(29)
        values = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / 4
        values[[2, 5, 9]] = 0, 0, complex(-0.0, -0.0)
        chi = CharacterSpec.from_table([1.0, *values[1:]])
        _, weights = _group_data(group, chi)
        assert np.count_nonzero(weights) == 9
        assert_layout(group, chi)
        mats = pd_tuple(7, 5, 6)
        expected = bits([two_index_gather(m.array, group, chi) for m in mats])
        assert bits([generalized_matrix_function(m, group, chi) for m in mats]) == expected
        assert bits(generalized_matrix_function(stack_of(mats), group, chi)) == expected

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_degrees_with_an_empty_or_an_odd_half(self, dim):
        # Degree 1 has no prefix rows, and its one prefix slot is the empty
        # product 1; degree 3 splits as 1 + 2.  Zero and negative entries
        # give signed zeros in either half.
        rng = np.random.default_rng(43)
        selectors = ["det", "perm", *("partition=" + ",".join(map(str, lam))
                                      for lam in partitions_of(dim))]
        mats = [(rng.integers(-2, 3, (dim, dim)) * rng.standard_normal((dim, dim))
                 + 1j * rng.integers(-1, 2, (dim, dim)) * rng.standard_normal((dim, dim)))
                for _ in range(12)]
        mats.append(np.full((dim, dim), complex(-0.0, -0.0)))
        for selector in selectors:
            group, chi = parse_character_selector(selector, dim)
            assert [len(levels) for levels in _group_data(group, chi)[0]] == [dim // 2,
                                                                               dim - dim // 2]
            expected = bits([two_index_gather(x, group, chi) for x in mats])
            assert bits([generalized_matrix_function(x, group, chi) for x in mats]) == expected
            stack = HermitianStack._wrap_exact(np.array(mats))
            assert bits(generalized_matrix_function(stack, group, chi)) == expected

    def test_an_overflow_outside_the_support_is_not_formed(self):
        # Under (2,2) chi vanishes on the 4-cycles; only the 4-cycle
        # 0 -> 1 -> 2 -> 3 -> 0 takes all four large entries.  Its halves,
        # 1e200 each, are shared with 3-cycles and formed; W weighs their
        # pair with 0, and 0 * 1e200 adds 0 to Y, so d stays finite.
        # Summing every element gave 0 * inf = NaN.
        group, chi = parse_character_selector("partition=2,2", 4)
        x = np.ones((4, 4), dtype=complex)
        x[[0, 1, 2, 3], [1, 2, 3, 0]] = 1e100
        with np.errstate(all="raise"):
            value = generalized_matrix_function(x, group, chi)
        assert np.isfinite(value)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(left_to_right_gather(x, group, chi)[0])
        with np.errstate(all="raise"):
            assert not np.isfinite(generalized_matrix_function(x, group, CharacterSpec.trivial()))

    @pytest.mark.parametrize("selector", ["det", "perm", "partition=2,2", "partition=3,1"])
    def test_an_overflow_inside_one_half_is_not_finite(self, selector):
        # Rows 0 and 1 are 1e-150, rows 2 and 3 1e200: every product is
        # 1e100 left to right, but the suffix half, 1e400, overflows.  The
        # value is not finite, for the caller to refuse (the immanant
        # command exits 2); the left-to-right gather reads a finite value.
        group, chi = parse_character_selector(selector, 4)
        x = np.repeat([1e-150, 1e-150, 1e200, 1e200], 4).reshape(4, 4).astype(complex)
        assert not np.isfinite(generalized_matrix_function(x, group, chi))
        assert np.isfinite(left_to_right_gather(x, group, chi)[0])
        x[2:] = 1e150  # halves of 1e-300 and 1e300, both finite
        assert np.isfinite(generalized_matrix_function(x, group, chi))

    def test_a_row_reads_zero_outside_the_support(self):
        # A freed block of a layout's size (S_4 has 6 column sets of 2
        # slots, 12 complex entries), filled with NaN, is what numpy's
        # small-allocation cache hands the next array of that size: a padded
        # slot the walk did not write would not match.
        group, chi = parse_character_selector("partition=2,2", 4)
        x = np.arange(16.0).reshape(4, 4).astype(complex)
        expected = bits(two_index_gather(x, group, chi))
        for size in (24, 12):
            np.full(size, np.nan, dtype=complex)
            assert bits(generalized_matrix_function(x, group, chi)) == expected

    @pytest.mark.parametrize("selector", ["det", "perm", "partition=3,1,1", "partition=3,2",
                                          "partition=2,2,1"])
    def test_real_non_hermitian_input_keeps_the_gathers_signed_zeros(self, selector):
        # Negative and zero entries give products of either sign of zero,
        # in the imaginary parts too.
        rng = np.random.default_rng(17)
        group, chi = parse_character_selector(selector, 5)
        for _ in range(20):
            x = (rng.integers(-2, 3, (5, 5)) * rng.standard_normal((5, 5))).astype(complex)
            value = generalized_matrix_function(x, group, chi)
            expected = two_index_gather(x, group, chi)
            assert bits(value) == bits(expected)
            assert value.imag == 0 and np.signbit(value.imag) == np.signbit(expected.imag)

    @pytest.mark.parametrize("group", [
        GroupSpec.full_symmetric(1), GroupSpec.full_symmetric(4), GroupSpec.full_symmetric(7),
        GroupSpec.explicit(generated((1, 2, 0, 3, 4), (0, 1, 2, 4, 3))),
    ], ids=["S1", "S4", "S7", "C3xC2"])
    def test_prefix_tree_leaves_walk_up_to_the_elements(self, group):
        # Each half tree is a prefix tree over its own rows' images, and its
        # last level lists them by column set.
        halves, _ = _group_data(group, CharacterSpec.trivial())
        elements = enumerate_group(group)
        m = group.degree
        for levels, rows in zip(halves, halves_of(m)):
            for k, (_, flat) in enumerate(levels[:-1]):
                # One node per distinct prefix of the half's images.
                assert len(flat) == len({tuple(p[rows[:k + 1]]) for p in elements})
        assert_layout(group, CharacterSpec.trivial())

    @pytest.mark.parametrize("dim, selector", [
        (5, "det"), (4, "partition=2,2"), (5, "partition=3,1,1"), (6, "partition=3,2,1"),
        (6, "partition=2,2,2"), (8, "partition=4,2,1,1"),
    ])
    def test_prefix_tree_leaves_walk_up_to_the_support(self, dim, selector):
        group, chi = parse_character_selector(selector, dim)
        halves, weights = _group_data(group, chi)
        elements = enumerate_group(group)
        chis = character_values(group, chi, elements)
        support = elements[chis != 0]
        assert 0 < len(support) <= len(chis)
        assert np.count_nonzero(weights) == len(support)
        for levels, rows in zip(halves, halves_of(dim)):
            for k, (_, flat) in enumerate(levels[:-1]):
                assert len(flat) == len({tuple(p[rows[:k + 1]]) for p in support})
        assert_layout(group, chi)
        if selector == "partition=4,2,1,1":
            # Per half 8 + 56 + 334 inner nodes and 1640 distinct halves in
            # 70 column sets of 24 slots; W is 70 blocks of 24 x 24 with the
            # 9856 weights of the support.
            for levels in halves:
                assert [flat.shape for _, flat in levels] == [(8,), (56,), (334,), (70, 24)]
                assert np.count_nonzero(levels[-1][1] != 64) == 1640
            assert weights.shape == (70, 24, 24)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_group_data_matches_a_tuple_built_reference(self, m):
        # The tuples, per-element characters and fromiter conversion the
        # array route replaces: every level, last-level layout and W, bytes
        # and dtype.  The trees are built over the elements with chi != 0,
        # all of S_m under det and perm: the prefix tree in enumeration
        # order, the suffix tree in the order of the suffixes; the last level
        # is laid out by column set (in increasing order of sum over A of
        # 2^j), each set's slots in the order of their images, padded with
        # node 0 and the zero entry m * m.
        group = GroupSpec.full_symmetric(m)
        elements = list(itertools.permutations(range(m)))
        types = [cycle_type(p) for p in elements]
        h = m // 2

        def reference_tree(support, rows):
            perms = np.fromiter(itertools.chain.from_iterable(support), dtype=np.intp,
                                count=len(support) * m).reshape(-1, m)
            new = np.zeros(len(perms), dtype=bool)
            new[0] = True
            ids = np.zeros(len(perms), dtype=np.intp)
            levels = []
            for k in rows:
                new[1:] |= perms[1:, k] != perms[:-1, k]
                starts = np.flatnonzero(new)
                levels.append((ids[starts], k * m + perms[starts, k]))
                ids = np.cumsum(new) - 1
            return levels, ids

        def reference_half(support, rows, set_of):
            levels, ids = reference_tree(support, rows)
            if not levels:
                return []
            by_set = {}
            for p, node in zip(support, ids.tolist()):
                nodes = by_set.setdefault(set_of[p], [])
                if node not in nodes:
                    nodes.append(node)
            width = max(map(len, by_set.values()))
            parent = np.zeros((len(by_set), width), dtype=np.intp)
            flat = np.full((len(by_set), width), m * m, dtype=np.intp)
            for s, nodes in by_set.items():
                parent[s, :len(nodes)] = levels[-1][0][nodes]
                flat[s, :len(nodes)] = levels[-1][1][nodes]
            return [*levels[:-1], (parent, flat)]

        def reference(support, values):
            def mask(p):
                return sum(1 << j for j in p[:h])
            masks = sorted({mask(p) for p in support})
            set_of = {p: masks.index(mask(p)) for p in support}
            halves = (reference_half(support, range(h), set_of),
                      reference_half(sorted(support, key=lambda p: p[h:]), range(h, m), set_of))
            prefixes = [sorted({p[:h] for p in support if set_of[p] == s}) for s in range(len(masks))]
            suffixes = [sorted({p[h:] for p in support if set_of[p] == s}) for s in range(len(masks))]
            weights = np.zeros((len(masks), max(map(len, prefixes)), max(map(len, suffixes))))
            for p, v in zip(support, values):
                s = set_of[p]
                weights[s, prefixes[s].index(p[:h]), suffixes[s].index(p[h:])] = v
            return halves, weights

        characters = {"det": [permutation_sign(p) for p in elements],
                      "perm": [1] * len(elements)}
        for lam in partitions_of(m):
            by_type = {t: mn_character(lam, t) for t in set(types)}
            characters["partition=" + ",".join(map(str, lam))] = [by_type[t] for t in types]
        for selector, values in characters.items():
            # Uncached: 82 tables of up to S_8 would outgrow the cache.
            halves, weights = _group_data.__wrapped__(*parse_character_selector(selector, m))
            kept = [(p, v) for p, v in zip(elements, values) if v != 0]
            want_halves, want = reference(*map(list, zip(*kept)))
            for levels, want_levels in zip(halves, want_halves):
                assert len(levels) == len(want_levels)
                arrays = list(itertools.chain.from_iterable(levels))
                wants = list(itertools.chain.from_iterable(want_levels))
                for got, want_array in zip(arrays, wants):
                    assert (got.dtype, got.tobytes()) == (want_array.dtype,
                                                          want_array.tobytes()), selector
            assert (weights.dtype, weights.tobytes()) == (want.dtype, want.tobytes()), selector

    def test_certificate_scale_is_the_matrix_infinity_norm(self):
        mats = pd_tuple(3, 6, 4)
        scales = [float(np.linalg.norm(m.array, np.inf)) for m in mats]
        assert [psd_certificate(m).scale for m in mats] == scales
        assert [c.scale for c in psd_certificate(stack_of(mats))] == scales
