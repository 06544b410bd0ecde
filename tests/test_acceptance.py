"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and corpus size is pinned here; nothing is
calibrated elsewhere.
"""

import json
import math
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np

from conftest import input_scale, pd_tuple

from hlawka.cli import main
from hlawka.harness import RunConfig, counterexample_search
from hlawka.linalg import Verdict, psd_certificate
from hlawka.matfunc import (
    determinant_via_elimination,
    generalized_matrix_function,
    permanent_oracle,
    scalar_inequality_check,
)
from hlawka.scalar import (
    KNOWN_HLAWKA_POP_COUNTEREXAMPLE,
    DEFAULT_SCALAR_TOL,
    ConvexFunction,
    conjecture_hlawka_pop_eval,
    convex_catalog,
    freudenthal_alternating,
    jensen_check,
    norm_hlawka,
    pcz_check,
    popoviciu_check,
    radu_check,
    vasc_check,
)
from hlawka.sums import build_difference
from hlawka.symgroup import (
    CharacterSpec,
    GroupSpec,
    class_size,
    mn_character,
    partitions_of,
)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.1f}s): {description}")


def inf_norm(arr) -> float:
    return float(np.linalg.norm(arr, np.inf))


def test_criterion_1_equality_cases():
    with criterion(1, "hlawka3/pop-pairs equality at p in {1,2}, 100 tuples, dims {2,3}"):
        start = time.perf_counter()
        for trial in range(100):
            for dim in (2, 3):
                triple = pd_tuple(trial * 10 + dim, 3, dim)
                quad = pd_tuple(trial * 10 + dim + 5, 4, dim)
                for p in (1, 2):
                    h = build_difference("hlawka3", triple, p)
                    assert inf_norm(h.array) <= 1e-9 * input_scale(triple) ** p
                    q = build_difference("pop-pairs", quad, p)
                    assert inf_norm(q.array) <= 1e-9 * input_scale(quad) ** p
        assert time.perf_counter() - start < 10.0


def test_criterion_2_hlawka3_and_supermod_hold():
    with criterion(2, "500 PD triples, dim 2, p in {3,4,5}: hlawka3 and supermod certificates"):
        start = time.perf_counter()
        for trial in range(500):
            triple = pd_tuple(trial, 3, 2)
            for p in (3, 4, 5):
                h = psd_certificate(build_difference("hlawka3", triple, p), 1e-8)
                assert h.ok, f"trial {trial}, p={p}: min eig {h.min_eigenvalue}"
                s = psd_certificate(build_difference("supermod", triple, p), 1e-8)
                if h.ok:
                    assert s.ok, f"supermod failed where hlawka held (trial {trial}, p={p})"
        assert time.perf_counter() - start < 60.0


def test_criterion_3_alternating():
    with criterion(3, "200 tuples, n in {4,5}, dim 2, p in {2,3,4}: alternating holds; n=3 == hlawka3"):
        start = time.perf_counter()
        for trial in range(200):
            for n in (4, 5):
                mats = pd_tuple(trial * 7 + n, n, 2)
                for p in (2, 3, 4):
                    cert = psd_certificate(build_difference("alternating", mats, p), 1e-8)
                    assert cert.ok, f"trial {trial}, n={n}, p={p}"
        for trial in range(20):
            triple = pd_tuple(trial, 3, 2)
            for p in (1, 2, 3):
                a = build_difference("alternating", triple, p)
                b = build_difference("hlawka3", triple, p)
                assert np.array_equal(a.array, b.array)
        assert time.perf_counter() - start < 120.0


def test_criterion_4_popoviciu_families():
    with criterion(4, "pop-pairs/subsets/levels: 200 tuples, n in {4,5}, p <= 3, equality at p=1"):
        level_triples = {
            4: [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
            5: [(k, l, m) for k in (1, 2, 3) for l in range(k + 1, 5) for m in range(l + 1, 6)],
        }
        for trial in range(200):
            for n in (4, 5):
                mats = pd_tuple(trial * 13 + n, n, 2)
                for p in (1, 2, 3):
                    diffs = [build_difference("pop-pairs", mats, p)]
                    diffs += [build_difference("pop-subsets", mats, p, m=m) for m in range(2, n)]
                    diffs += [build_difference("pop-levels", mats, p, k=k, ell=l, m=m)
                              for (k, l, m) in level_triples[n]]
                    for diff in diffs:
                        if p == 1:
                            cert = psd_certificate(diff, 1e-10)
                            assert cert.verdict is Verdict.EQUALITY
                        else:
                            assert psd_certificate(diff, 1e-8).ok


def test_criterion_5_generalized_matrix_functions():
    with criterion(5, "d(sign)=det, d(trivial)=permanent on 200 matrices; exact MN orthogonality"):
        rng = np.random.default_rng(505)
        for m in (2, 3, 4, 5):
            group = GroupSpec.full_symmetric(m)
            for _ in range(50):
                x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                det = determinant_via_elimination(x)
                d_sign = generalized_matrix_function(x, group, CharacterSpec.sign())
                assert abs(d_sign - det) <= 1e-10 * max(1.0, abs(det))
                perm = permanent_oracle(x)
                d_triv = generalized_matrix_function(x, group, CharacterSpec.trivial())
                assert abs(d_triv - perm) <= 1e-10 * max(1.0, abs(perm))
        for m in range(1, 6):
            parts = list(partitions_of(m))
            for lam1 in parts:
                for lam2 in parts:
                    inner = sum(
                        class_size(mu) * mn_character(lam1, mu) * mn_character(lam2, mu)
                        for mu in parts
                    )
                    assert inner == (math.factorial(m) if lam1 == lam2 else 0)
        imm = generalized_matrix_function(
            np.eye(3), GroupSpec.full_symmetric(3), CharacterSpec.from_partition((2, 1))
        )
        assert imm == 2


def test_criterion_6_scalar_corollaries():
    with criterion(6, "det/perm/immanant corollary margins >= -1e-10*scale, dim 3, n in {3,4}"):
        group = GroupSpec.full_symmetric(3)
        characters = [
            CharacterSpec.sign(),
            CharacterSpec.trivial(),
            CharacterSpec.from_partition((2, 1)),
        ]
        cases = [
            ("hlawka3", 3),
            ("supermod", 3),
            ("alternating", 3),
            ("alternating", 4),
            ("pop-pairs", 3),
            ("pop-pairs", 4),
        ]
        for trial in range(200):
            for family, n in cases:
                mats = pd_tuple(trial * 11 + n, n, 3)
                for chi in characters:
                    res = scalar_inequality_check(family, mats, group, chi)
                    assert res.margin >= -1e-10 * res.scale, (
                        f"{family}/{chi.kind.value} trial {trial}: {res.margin}"
                    )


def test_criterion_7_conjecture_counterexample():
    with criterion(7, "alternating subset-mean pattern on (-10,1,1,9): lhs 40, rhs 42, margin -2"):
        start = time.perf_counter()

        # Independent exact-rational enumeration, recomputed before trusting
        # the frozen values.
        xs = [Fraction(int(x)) for x in KNOWN_HLAWKA_POP_COUNTEREXAMPLE]
        lhs_exact, rhs_exact = Fraction(0), Fraction(0)
        for k in range(1, 5):
            for idx in combinations(range(4), k):
                term = k * abs(sum((xs[i] for i in idx), Fraction(0)) / k)
                if k % 2 == 1:
                    lhs_exact += term
                else:
                    rhs_exact += term
        assert (lhs_exact, rhs_exact) == (Fraction(40), Fraction(42))

        res = conjecture_hlawka_pop_eval(ConvexFunction("abs"), KNOWN_HLAWKA_POP_COUNTEREXAMPLE)
        assert res.lhs == 40.0
        assert res.rhs == 42.0
        assert res.margin == -2.0
        assert time.perf_counter() - start < 1.0


def test_criterion_8_proven_scalar_suites():
    with criterion(8, "1000-trial proven scalar suites over the full convex catalog, dims <= 5"):
        functions = convex_catalog()
        rng_master = 808

        for trial in range(1000):
            rng = np.random.default_rng(rng_master + trial)
            dim = 1 + trial % 5

            vs3 = rng.standard_normal((3, dim))
            res = norm_hlawka(*vs3)
            assert res.margin >= -1e-12 * res.scale

            n = 4 + trial % 2
            k = 2 + trial % (n - 1)
            vs = rng.standard_normal((n, dim))
            res = radu_check(vs, k)
            assert res.margin >= -1e-12 * res.scale

            f = functions[trial % len(functions)]
            xs3 = rng.uniform(-10, 10, 3)
            res = popoviciu_check(f, *xs3)
            assert res.margin >= -1e-12 * res.scale

            xs = rng.uniform(-10, 10, 3 + trial % 3)
            res = jensen_check(f, xs)
            assert res.margin >= -1e-12 * res.scale

            xs_v = rng.uniform(-10, 10, 4 + trial % 3)
            res = vasc_check(f, xs_v)
            assert res.margin >= -1e-12 * res.scale

            n_p = 4 + trial % 2
            m_p = 2 + trial % (n_p - 2)
            res = pcz_check(f, rng.uniform(-10, 10, n_p), m_p)
            assert res.margin >= -1e-12 * res.scale

            fre = freudenthal_alternating(rng.standard_normal((3, max(dim, 1))))
            assert fre.margin >= -1e-12 * fre.scale

        cfg = RunConfig(family="freudenthal", n=4, dim=2, trials=1000, seed=4242)
        abs_fn = ConvexFunction("abs")
        first = counterexample_search("freudenthal", cfg, abs_fn, DEFAULT_SCALAR_TOL)
        second = counterexample_search("freudenthal", cfg, abs_fn, DEFAULT_SCALAR_TOL)
        assert first == second
        for v in first:
            fresh = freudenthal_alternating(np.reshape(v["inputs"], (4, 2)))
            assert fresh.margin == v["margin"] and fresh.margin < 0


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical (config, seed) gives byte-identical reports modulo runtimeMs"):
        def run_twice(args):
            texts = []
            for name in ("x.json", "y.json"):
                path = tmp_path / name
                code = main(args + ["--out", str(path)])
                texts.append(re.sub(r'"runtimeMs": \d+', '"runtimeMs": 0', path.read_text()))
            return code, texts

        commands = [
            ["verify", "--family", "hlawka3", "--dim", "2", "--p", "3",
             "--trials", "40", "--seed", "90"],
            ["verify", "--family", "pop-levels", "--n", "4", "--k", "1", "--ell", "2",
             "--m", "3", "--p", "2", "--trials", "20", "--seed", "91"],
            ["scalar-verify", "--family", "pcz", "--n", "5", "--m", "3",
             "--trials", "40", "--seed", "92"],
            ["scalar-verify", "--family", "alternating", "--n", "4", "--char",
             "partition=2,1", "--dim", "3", "--trials", "20", "--seed", "93"],
            ["counterexample", "--family", "hlawka-pop", "--n", "4",
             "--trials", "150", "--seed", "94"],
            ["counterexample", "--family", "freudenthal", "--n", "4", "--dim", "2",
             "--trials", "150", "--seed", "95"],
        ]
        for args in commands:
            code, (first, second) = run_twice(args)
            assert code == 0
            assert first == second, f"nondeterministic report for {args}"
            parsed = json.loads(first)
            assert parsed["seed"] == int(args[args.index("--seed") + 1])
