"""Batched trial engine: stacked calls and chunked suites against the
per-trial oracle, bit for bit."""

import hashlib
import json
import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from conftest import pd_tuple, stack_of

import hlawka.harness as harness
from hlawka.cli import main
from hlawka.errors import InputError
from hlawka.harness import SUITES, RunConfig, run_scalar_verify, run_verify
from hlawka.linalg import (
    DEFAULT_LOEWNER_TOL,
    HermitianStack,
    _kron_power,
    PdBatchConfig,
    PdSampleConfig,
    Verdict,
    min_eigenvalue,
    kron,
    psd_certificate,
    random_pd,
    tensor_power,
)
from hlawka.matfunc import (
    generalized_matrix_function,
    parse_character_selector,
    scalar_inequality_check,
)
from hlawka.report import TrialReport
from hlawka.symgroup import character_values, enumerate_group
from hlawka.sums import OperatorFamily, TensorSumParams, build_difference
from hlawka.util import derive_seed

EMPIRICAL_FAMILIES = {f for f in OperatorFamily if SUITES[f.value].status == "empirical"}

EMPIRICAL_FLAG = "empirical-family: inequality not established; margins reported, not assumed"


def normalized(text: str) -> str:
    return re.sub(r'"runtimeMs": \d+', '"runtimeMs": 0', text)


def tuple_digest(mats) -> str:
    h = hashlib.sha256()
    for m in mats:
        h.update(bytes.fromhex(m.digest))
    return h.hexdigest()


def tuple_size(cfg: RunConfig) -> int:
    return 3 if cfg.family in ("hlawka3", "supermod") else cfg.n


def oracle_verify(cfg: RunConfig) -> TrialReport:
    """``verify`` one seeded tuple at a time, through the single-matrix calls."""
    family, n = OperatorFamily(cfg.family), tuple_size(cfg)
    params = TensorSumParams(n=n, p=cfg.p, k=cfg.k, ell=cfg.ell, m=cfg.m)
    tol = DEFAULT_LOEWNER_TOL if cfg.tol is None else cfg.tol
    margins, violations, equality, psd_only = [], [], 0, False
    for t in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, t)
        mats = pd_tuple(trial_seed, n, cfg.dim, cfg.condition_target)
        psd_only |= not all(min_eigenvalue(m) > 1e-12 for m in mats)
        cert = psd_certificate(build_difference(family, mats, params, cfg.max_tensor_dim), tol)
        margins.append(cert.min_eigenvalue)
        equality += cert.verdict is Verdict.EQUALITY
        if cert.verdict is Verdict.FAILS:
            violations.append({"inputsDigest": tuple_digest(mats),
                               "minEigenvalue": cert.min_eigenvalue, "seed": trial_seed})
    flags = [EMPIRICAL_FLAG] if family in EMPIRICAL_FAMILIES else []
    if psd_only:
        flags.append("psd-only-inputs: some inputs were not strictly positive definite")
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
    family, n = OperatorFamily(cfg.family), tuple_size(cfg)
    params = TensorSumParams(n=n, p=cfg.p, k=cfg.k, ell=cfg.ell, m=cfg.m)
    group, chi = parse_character_selector(cfg.char, cfg.dim)
    tol = harness.DEFAULT_SCALAR_MATRIX_TOL if cfg.tol is None else cfg.tol
    margins, violations, equality = [], [], 0
    for t in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, t)
        mats = pd_tuple(trial_seed, n, cfg.dim, cfg.condition_target)
        res = scalar_inequality_check(family, mats, params, group, chi, tol)
        margins.append(res.margin)
        equality += abs(res.margin) <= tol * res.scale
        if not res.holds:
            violations.append({"inputsDigest": tuple_digest(mats), "margin": res.margin,
                               "seed": trial_seed})
    return TrialReport(family=f"{cfg.family}[{cfg.char}]",
                       params={"n": n, "p": cfg.p, "dim": cfg.dim, "char": cfg.char,
                               "conditionTarget": cfg.condition_target},
                       trials=cfg.trials, seed=cfg.seed, tolerance_used=tol,
                       min_margin=min(margins) if margins else None, equality_cases=equality,
                       violations=violations,
                       interpretation_flags=[EMPIRICAL_FLAG] if family in EMPIRICAL_FAMILIES
                       else [])


def assert_same_report(batched: TrialReport, oracle: TrialReport) -> None:
    assert normalized(batched.to_json()) == normalized(oracle.to_json())


def count_chunks(monkeypatch) -> list:
    """Record the stack size of every sampling call the harness makes."""
    sizes = []
    original = harness.random_pd

    def counting(cfg):
        sizes.append(len(cfg.seeds))
        return original(cfg)

    monkeypatch.setattr(harness, "random_pd", counting)
    return sizes


#: One configuration per family; each spans several chunks at the real
#: budget (dim 2, p 4: a 16x16 difference, 4 KiB, per trial: 32 per chunk).
VERIFY_CASES = [
    dict(family="hlawka3", p=4),
    dict(family="supermod", p=4),
    dict(family="superadd", n=4, p=4),
    dict(family="alternating", n=5, p=4, condition_target=1000.0),  # violations
    dict(family="pop-pairs", n=4, p=4),
    dict(family="pop-subsets", n=5, m=3, p=4),
    dict(family="pop-levels", n=4, k=1, ell=2, m=3, p=4),
]


class TestVerifyAgainstOracle:
    @pytest.mark.parametrize("case", VERIFY_CASES, ids=lambda c: c["family"])
    def test_every_family(self, case, monkeypatch):
        cfg = RunConfig(dim=2, trials=70, seed=5, **case)
        sizes = count_chunks(monkeypatch)
        report, _ = run_verify(cfg)
        n = tuple_size(cfg)
        assert sizes == [32 * n, 32 * n, 6 * n]
        monkeypatch.undo()
        assert_same_report(report, oracle_verify(cfg))

    def test_violations_are_reported_like_the_oracle(self):
        cfg = RunConfig(family="alternating", n=5, p=4, dim=2, trials=40, seed=5,
                        condition_target=1000.0)
        report, code = run_verify(cfg)
        assert report.violations and code == 1
        assert_same_report(report, oracle_verify(cfg))

    @pytest.mark.parametrize("delta", [None, -1, 0, 1])
    def test_trial_counts_around_a_chunk(self, delta, monkeypatch):
        # hlawka3 at dim 2, p 3: the largest stacked array is one 8x8 complex
        # difference (1 KiB) per trial.
        chunk = harness.CHUNK_BYTES // (16 * 8 * 8)
        trials = 0 if delta is None else chunk + delta
        cfg = RunConfig(family="hlawka3", p=3, dim=2, trials=trials, seed=3)
        sizes = count_chunks(monkeypatch)
        report, _ = run_verify(cfg)
        assert sum(sizes) == 3 * trials
        assert len(sizes) == math.ceil(trials / chunk)
        monkeypatch.undo()
        assert_same_report(report, oracle_verify(cfg))

    def test_one_trial(self):
        cfg = RunConfig(family="pop-pairs", n=4, p=3, dim=2, trials=1, seed=8)
        assert_same_report(run_verify(cfg)[0], oracle_verify(cfg))

    def test_trial_over_budget_runs_alone(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_BYTES", 100)
        cfg = RunConfig(family="hlawka3", p=2, dim=2, trials=3, seed=4)
        sizes = count_chunks(monkeypatch)
        report, _ = run_verify(cfg)
        assert sizes == [3, 3, 3]
        monkeypatch.undo()
        assert_same_report(report, oracle_verify(cfg))

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
        cfg = RunConfig(trials=200, seed=6, **case)
        assert_same_report(run_scalar_verify(cfg)[0], oracle_scalar(cfg))

    @pytest.mark.parametrize("delta", [None, -1, 0, 1])
    def test_trial_counts_around_a_chunk(self, delta, monkeypatch):
        # det at dim 4: the largest stacked array is the 24x4 complex gather
        # of one determinant (1.5 KiB) per trial.
        chunk = harness.CHUNK_BYTES // (16 * 24 * 4)
        trials = 0 if delta is None else chunk + delta
        cfg = RunConfig(family="alternating", n=4, dim=4, char="det", trials=trials, seed=2)
        sizes = count_chunks(monkeypatch)
        report, _ = run_scalar_verify(cfg)
        assert len(sizes) == math.ceil(trials / chunk)
        monkeypatch.undo()
        assert_same_report(report, oracle_scalar(cfg))

    def test_one_trial(self):
        cfg = RunConfig(family="alternating", n=4, dim=3, char="perm", trials=1, seed=9)
        assert_same_report(run_scalar_verify(cfg)[0], oracle_scalar(cfg))


class TestCliChunking:
    def test_jobs_is_accepted_and_changes_nothing(self, tmp_path):
        outs = []
        for jobs in ("1", "3"):
            path = tmp_path / f"r{jobs}.json"
            assert main(["scalar-verify", "--family", "alternating", "--char", "det", "--n",
                         "4", "--dim", "4", "--trials", "100", "--seed", "3", "--jobs", jobs,
                         "--out", str(path)]) == 0
            outs.append(normalized(path.read_text()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", [
        ["verify", "--family", "hlawka3"],
        ["scalar-verify", "--family", "hlawka3", "--char", "det"],
        ["scalar-verify", "--family", "jensen"],
        ["counterexample", "--family", "freudenthal"],
    ])
    def test_jobs_zero_is_a_usage_error(self, command):
        assert main(command + ["--trials", "2", "--jobs", "0"]) == 2

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

    def test_report_digests_name_the_sampled_tuple(self, tmp_path):
        path = tmp_path / "r.json"
        main(["verify", "--family", "alternating", "--n", "5", "--dim", "2", "--p", "4",
              "--condition-target", "1000", "--trials", "3", "--seed", "1", "--out", str(path)])
        for v in json.loads(path.read_text())["violations"]:
            assert v["inputsDigest"] == tuple_digest(pd_tuple(v["seed"], 5, 2, 1000.0))


class TestStackedCalls:
    def test_random_pd_stack_matches_single_samples(self):
        seeds = tuple(derive_seed(11, i) for i in range(6))
        stack = random_pd(PdBatchConfig(dim=3, seeds=seeds, condition_target=50.0))
        assert (len(stack), stack.dim, stack.array.shape) == (6, 3, (6, 3, 3))
        for i, seed in enumerate(seeds):
            single = random_pd(PdSampleConfig(dim=3, seed=seed, condition_target=50.0))
            assert stack[i].array.tobytes() == single.array.tobytes()
            assert stack.digests[i] == single.digest

    def test_batch_config_validates_like_the_single_config(self):
        with pytest.raises(InputError):
            PdBatchConfig(dim=0, seeds=(1,))
        with pytest.raises(InputError):
            PdBatchConfig(dim=2, seeds=(1, -1))
        with pytest.raises(InputError):
            PdBatchConfig(dim=2, seeds=(1,), condition_target=0.5)

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
        params = TensorSumParams(n=4, p=3)
        for family in (OperatorFamily.ALTERNATING, OperatorFamily.POP_PAIRS):
            stacked = build_difference(family, parts, params)
            assert isinstance(stacked, HermitianStack) and stacked.dim == 8
            for t, mats in enumerate(trials):
                single = build_difference(family, mats, params)
                assert stacked[t].array.tobytes() == single.array.tobytes()

    def test_supermod_keeps_each_trials_first_matrix(self):
        trials = [pd_tuple(derive_seed(7, t), 3, 2) for t in range(4)]
        parts = [stack_of([tr[i] for tr in trials]) for i in range(3)]
        stacked = build_difference(OperatorFamily.SUPERMOD, parts, TensorSumParams(n=3, p=3))
        for t, mats in enumerate(trials):
            single = build_difference(OperatorFamily.SUPERMOD, mats, TensorSumParams(n=3, p=3))
            assert stacked[t].array.tobytes() == single.array.tobytes()

    def test_stacks_of_unequal_length_are_refused(self):
        a = stack_of(pd_tuple(1, 3, 2))
        b = stack_of(pd_tuple(2, 2, 2))
        with pytest.raises(InputError):
            build_difference(OperatorFamily.SUPERADD, [a, b], TensorSumParams(n=2, p=2))
        group, chi = parse_character_selector("det", 2)
        with pytest.raises(InputError):
            scalar_inequality_check(OperatorFamily.SUPERADD, [a, b], TensorSumParams(n=2, p=2),
                                    group, chi)


def one_qr_sample(cfg: PdSampleConfig) -> np.ndarray:
    """A log-uniform sample by the one-matrix-at-a-time formula: its own
    QR, spectrum and products."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag)).conj()
    h = (q * np.geomspace(1.0, cfg.condition_target, d)) @ q.conj().T
    return (h + h.conj().T) / 2.0


def two_index_gather(arr: np.ndarray, selector: str) -> complex:
    """d(X) by the fancy-indexed gather X[i, sigma(i)] over every sigma."""
    group, chi = parse_character_selector(selector, arr.shape[0])
    elements = enumerate_group(group)
    perms = np.array(elements, dtype=np.intp)
    rows = np.arange(arr.shape[0])
    return complex(character_values(group, chi, elements) @ arr[rows[np.newaxis, :], perms].prod(axis=1))


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


class TestKernelsAgainstNumpyFormulas:
    """The kernels the single-matrix calls now share with the stacked ones,
    pinned to the plain numpy formulas they replace, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8])
    def test_random_pd_matches_one_qr_per_matrix(self, dim):
        seeds = tuple(derive_seed(dim, i) for i in range(5))
        stack = random_pd(PdBatchConfig(dim=dim, seeds=seeds, condition_target=100.0))
        for i, seed in enumerate(seeds):
            cfg = PdSampleConfig(dim=dim, seed=seed, condition_target=100.0)
            expected = one_qr_sample(cfg).tobytes()
            assert random_pd(cfg).array.tobytes() == expected
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
        (3, "det"), (3, "perm"), (4, "det"), (4, "partition=2,1,1"), (5, "partition=3,2"),
    ])
    def test_generalized_matrix_function_matches_the_two_index_gather(self, dim, selector):
        mats = pd_tuple(dim, 6, dim)
        group, chi = parse_character_selector(selector, dim)
        expected = bits([two_index_gather(m.array, selector) for m in mats])
        assert bits([generalized_matrix_function(m, group, chi) for m in mats]) == expected
        assert bits(generalized_matrix_function(stack_of(mats), group, chi)) == expected

    def test_certificate_scale_is_the_matrix_infinity_norm(self):
        mats = pd_tuple(3, 6, 4)
        scales = [float(np.linalg.norm(m.array, np.inf)) for m in mats]
        assert [psd_certificate(m).scale for m in mats] == scales
        assert [c.scale for c in psd_certificate(stack_of(mats))] == scales
