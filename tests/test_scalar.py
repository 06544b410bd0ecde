"""Convex/norm inequality evaluators, exact oracles, counterexample search."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, permutations
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDGE_SEEDS, numpy_inputs

from hlawka import harness, linalg, scalar
from hlawka.cli import main
from hlawka.errors import InputError
from hlawka.harness import RunConfig, counterexample_search, run_counterexample, run_scalar_verify
from hlawka.linalg import Verdict, band_verdict
from hlawka.scalar import (
    CONVEX_NORM_SUITES,
    DEFAULT_SCALAR_TOL,
    KNOWN_HLAWKA_POP_COUNTEREXAMPLE,
    SEARCH_STRATEGIES,
    SUITES,
    ConvexFunction,
    _canonical,
    _convex_norm_image,
    _lockstep,
    _search_margin,
    _terms,
    conjecture_hlawka_pop_eval,
    convex_catalog,
    freudenthal_alternating,
    functional_hlawka,
    jensen_check,
    norm_hlawka,
    pcz_check,
    pop_levels_scalar_eval,
    popoviciu_check,
    radu_check,
    sample_inputs,
    suite_terms,
    vasc_check,
)
from hlawka.util import derive_seed

ABS = ConvexFunction("abs")
SQUARE = ConvexFunction("square")
EXP = ConvexFunction("exp")


# ---------------------------------------------------------------------------
# Exact-arithmetic oracles (Fractions) for the piecewise-rational catalog
# ---------------------------------------------------------------------------


def exact_f(kind: str, x: Fraction) -> Fraction:
    if kind == "abs":
        return abs(x)
    if kind == "square":
        return x * x
    if kind == "fourth":
        return x**4
    if kind == "relu":
        return x if x > 0 else Fraction(0)
    raise ValueError(kind)


def exact_hlawka_pop_margin(kind: str, xs) -> Fraction:
    xs = [Fraction(x) for x in xs]
    n = len(xs)
    total = Fraction(0)
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            mean = sum((xs[i] for i in idx), Fraction(0)) / k
            term = k * exact_f(kind, mean)
            total += term if k % 2 == 1 else -term
    return total


def exact_vasc_margin(kind: str, xs) -> Fraction:
    xs = [Fraction(x) for x in xs]
    n = len(xs)
    mean = sum(xs, Fraction(0)) / n
    lhs = sum((exact_f(kind, x) for x in xs), Fraction(0)) + Fraction(n, n - 2) * exact_f(kind, mean)
    rhs = Fraction(2, n - 2) * sum(
        (exact_f(kind, (xs[i] + xs[j]) / 2) for i, j in combinations(range(n), 2)), Fraction(0)
    )
    return lhs - rhs


def exact_pcz_margin(kind: str, xs, m: int) -> Fraction:
    xs = [Fraction(x) for x in xs]
    n = len(xs)
    mean = sum(xs, Fraction(0)) / n
    lhs = math.comb(n - 2, m - 1) * sum((exact_f(kind, x) for x in xs), Fraction(0))
    lhs += n * math.comb(n - 2, m - 2) * exact_f(kind, mean)
    rhs = m * sum(
        (exact_f(kind, sum((xs[i] for i in idx), Fraction(0)) / m) for idx in combinations(range(n), m)),
        Fraction(0),
    )
    return lhs - rhs


class TestConvexCatalog:
    def test_all_kinds_evaluate(self):
        for f in convex_catalog():
            assert math.isfinite(f(0.3))

    def test_softplus_stable_on_tails(self):
        f = ConvexFunction("softplus")
        assert f(1000.0) == pytest.approx(1000.0)
        assert f(-1000.0) == pytest.approx(0.0, abs=1e-300)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            ConvexFunction("cube")

    def test_midpoint_convexity_on_catalog(self, rng):
        for f in convex_catalog():
            for _ in range(200):
                a, b = rng.uniform(-20, 20, 2)
                gap = (f(a) + f(b)) / 2 - f((a + b) / 2)
                assert gap >= -1e-12 * max(1.0, abs(f(a)) + abs(f(b)))


class TestNormHlawka:
    def test_zero_vectors(self):
        res = norm_hlawka(np.zeros(3), np.zeros(3), np.zeros(3))
        assert res.margin == 0.0

    def test_collinear_equality(self):
        e1 = np.array([1.0, 0.0, 0.0])
        res = norm_hlawka(e1, e1, e1)
        assert (res.lhs, res.rhs, res.margin) == (6.0, 6.0, 0.0)

    def test_random_gaussian_suite(self, rng):
        for _ in range(1000):
            a, b, c = rng.standard_normal((3, 3))
            res = norm_hlawka(a, b, c)
            assert res.margin >= -1e-12 * res.scale

    def test_orthogonal_invariance(self, rng):
        vs = rng.standard_normal((3, 4))
        base = norm_hlawka(*vs)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            rotated = norm_hlawka(*(vs @ q.T))
            assert rotated.margin == pytest.approx(base.margin, abs=1e-10 * max(1.0, base.scale))


class TestFreudenthal:
    def test_n3_equals_norm_hlawka(self, rng):
        vs = rng.standard_normal((3, 2))
        assert freudenthal_alternating(vs).margin == norm_hlawka(*vs).margin

    def test_equal_vectors_binomial_cancellation(self):
        # Four copies of e1: subset-sum norms are integers, so the
        # alternating sum 4 - 12 + 12 - 4 cancels exactly.
        vs = np.tile([1.0, 0.0], (4, 1))
        assert freudenthal_alternating(vs).margin == 0.0

    def test_single_nonzero_vector_cancels(self):
        vs = np.zeros((4, 2))
        vs[0] = [3.0, 4.0]
        # Sizes containing the vector: C(3, k-1) subsets of norm 5.
        assert freudenthal_alternating(vs).margin == pytest.approx(0.0, abs=1e-12)

    def test_needs_three(self):
        with pytest.raises(InputError):
            freudenthal_alternating(np.zeros((2, 2)))


class TestRadu:
    def test_reduces_to_hlawka(self, rng):
        vs = rng.standard_normal((3, 3))
        assert radu_check(vs, 2).margin == norm_hlawka(*vs).margin

    def test_zero_tuple(self):
        assert radu_check(np.zeros((4, 2)), 3).margin == 0.0

    def test_trial_suite(self, rng):
        for n in (4, 5):
            for k in range(2, n + 1):
                for _ in range(250):
                    vs = rng.standard_normal((n, 3))
                    res = radu_check(vs, k)
                    assert res.margin >= -1e-12 * res.scale

    def test_parameter_range(self, rng):
        vs = rng.standard_normal((4, 2))
        with pytest.raises(InputError):
            radu_check(vs, 1)
        with pytest.raises(InputError):
            radu_check(vs, 5)


class TestJensen:
    def test_all_equal_exact_zero(self):
        assert jensen_check(SQUARE, [0.5, 0.5, 0.5]).margin == 0.0

    def test_square_example(self):
        res = jensen_check(SQUARE, [0.0, 2.0])
        assert (res.lhs, res.rhs, res.margin) == (4.0, 2.0, 2.0)

    def test_all_functions_suite(self, rng):
        for f in convex_catalog():
            for _ in range(300):
                xs = rng.uniform(-10, 10, rng.integers(1, 7))
                res = jensen_check(f, xs)
                assert res.margin >= -1e-12 * res.scale


class TestPopoviciu:
    def test_all_equal(self):
        assert popoviciu_check(ABS, 0.25, 0.25, 0.25).margin == 0.0

    def test_abs_example(self):
        res = popoviciu_check(ABS, -2.0, 1.0, 1.0)
        assert (res.lhs, res.rhs, res.margin) == (4.0, 4.0, 0.0)

    def test_all_functions_suite(self, rng):
        for f in convex_catalog():
            for _ in range(300):
                xs = rng.uniform(-10, 10, 3)
                res = popoviciu_check(f, *xs)
                assert res.margin >= -1e-12 * res.scale


class TestVasc:
    def test_n3_equals_popoviciu_exactly(self, rng):
        xs = rng.uniform(-10, 10, 3)
        assert vasc_check(ABS, xs).margin == popoviciu_check(ABS, *xs).margin

    def test_all_equal(self):
        res = vasc_check(SQUARE, [1.0] * 4)
        assert res.margin == pytest.approx(0.0, abs=1e-14)

    def test_suite(self, rng):
        for f in convex_catalog():
            for n in (4, 5, 6):
                for _ in range(150):
                    res = vasc_check(f, rng.uniform(-10, 10, n))
                    assert res.margin >= -1e-12 * res.scale


class TestPcz:
    def test_m2_is_scaled_vasc_float(self, rng):
        for n in (4, 5, 6):
            xs = rng.uniform(-10, 10, n)
            p = pcz_check(ABS, xs, 2)
            v = vasc_check(ABS, xs)
            assert p.margin == pytest.approx((n - 2) * v.margin, rel=1e-12, abs=1e-12 * p.scale)

    def test_m2_is_scaled_vasc_exact_arithmetic(self, rng):
        # Exact-rational mode: the identity holds with no tolerance at all.
        for kind in ("abs", "square", "fourth", "relu"):
            for n in (4, 5):
                xs = [Fraction(int(v), 8) for v in rng.integers(-80, 80, n)]
                assert exact_pcz_margin(kind, xs, 2) == (n - 2) * exact_vasc_margin(kind, xs)

    def test_all_equal(self):
        assert pcz_check(ABS, [2.0] * 5, 3).margin == pytest.approx(0.0, abs=1e-14)

    def test_suite(self, rng):
        for f in convex_catalog():
            for n, m in ((4, 3), (5, 3), (5, 4)):
                for _ in range(150):
                    res = pcz_check(f, rng.uniform(-10, 10, n), m)
                    assert res.margin >= -1e-12 * res.scale

    def test_parameter_range(self):
        with pytest.raises(InputError):
            pcz_check(ABS, [1.0, 2.0, 3.0], 3)
        with pytest.raises(InputError):
            pcz_check(ABS, [1.0, 2.0, 3.0, 4.0], 1)


class TestFunctionalHlawka:
    def test_square_polarization_identity(self, rng):
        for _ in range(100):
            a, b, c = rng.uniform(-10, 10, 3)
            res = functional_hlawka(SQUARE, a, b, c)
            assert abs(res.margin) <= 1e-12 * res.scale

    def test_abs_example(self):
        res = functional_hlawka(ABS, 1.0, 1.0, -1.0)
        assert (res.lhs, res.rhs, res.margin) == (4.0, 2.0, 2.0)

    def test_exp_is_recorded_without_assertion(self, rng):
        # Evaluator only: the sign is whatever it is.
        res = functional_hlawka(ConvexFunction("exp"), *rng.uniform(-2, 2, 3))
        assert math.isfinite(res.margin)


class TestConjectureEvaluator:
    def test_known_counterexample_exact_values(self):
        res = conjecture_hlawka_pop_eval(ABS, KNOWN_HLAWKA_POP_COUNTEREXAMPLE)
        assert res.lhs == 40.0
        assert res.rhs == 42.0
        assert res.margin == -2.0
        assert not res.holds

    def test_exact_oracle_confirms_frozen_values(self):
        margin = exact_hlawka_pop_margin("abs", KNOWN_HLAWKA_POP_COUNTEREXAMPLE)
        assert margin == Fraction(-2)

    def test_float_matches_exact_oracle_on_dyadic_points(self, rng):
        for _ in range(50):
            xs = [Fraction(int(v), 4) for v in rng.integers(-40, 40, 4)]
            exact = exact_hlawka_pop_margin("abs", xs)
            float_res = conjecture_hlawka_pop_eval(ABS, [float(x) for x in xs])
            assert float_res.margin == pytest.approx(float(exact), abs=1e-11 * float_res.scale)

    def test_n3_equals_popoviciu(self, rng):
        xs = rng.uniform(-10, 10, 3)
        assert conjecture_hlawka_pop_eval(ABS, xs).margin == popoviciu_check(ABS, *xs).margin

    def test_all_equal_n4(self):
        res = conjecture_hlawka_pop_eval(ABS, [1.0] * 4)
        # Weighted subset counts: lhs 4 + 12, rhs 12 + 4.
        assert res.lhs == 16.0
        assert res.rhs == 16.0
        assert res.margin == 0.0


class TestPopLevelsScalar:
    def test_consistency_with_popoviciu_at_n3(self, rng):
        xs = rng.uniform(-5, 5, 3)
        res = pop_levels_scalar_eval(ABS, xs, 1, 2, 3)
        pop = popoviciu_check(ABS, *xs)
        assert 3 * res.margin == pytest.approx(pop.margin, rel=1e-12, abs=1e-12)

    def test_measures_without_direction(self, rng):
        res = pop_levels_scalar_eval(SQUARE, rng.uniform(-5, 5, 5), 1, 3, 5)
        assert math.isfinite(res.margin)


class TestPermutationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=4, max_size=4))
    def test_point_checks_bitwise_invariant(self, xs):
        families = [
            lambda pts: jensen_check(ABS, pts).margin,
            lambda pts: vasc_check(ABS, pts).margin,
            lambda pts: pcz_check(ABS, pts, 2).margin,
            lambda pts: conjecture_hlawka_pop_eval(ABS, pts).margin,
        ]
        for evaluate in families:
            base = evaluate(xs)
            for perm in permutations(xs):
                assert evaluate(list(perm)) == base

    def test_vector_checks_bitwise_invariant(self, rng):
        vs = [rng.standard_normal(3) for _ in range(4)]
        base = radu_check(vs, 2).margin
        for perm in permutations(range(4)):
            assert radu_check([vs[i] for i in perm], 2).margin == base


#: Coordinates from few values, so that rows repeat vectors, tie in their
#: leading coordinates and hold both 0.0 and -0.0.
COORDINATES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -1e-300, 1e300])


class TestCanonicalSort:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(COORDINATES, min_size=math.prod(shape),
                               max_size=math.prod(shape)).map(
            lambda flat: np.array(flat).reshape(shape))))
    def test_vectors_come_in_sorted_order_bit_for_bit(self, block):
        got = _canonical(block)
        for row, data in zip(got, block):
            assert row.tobytes() == np.array(sorted(data.tolist())).tobytes()

    def test_sorting_one_vector_row_holds_no_more_than_its_row_bytes(self):
        # Sorting by np.lexsort over dim keys peaked at 277.6 MB here.
        data = np.random.default_rng(3).standard_normal((1, 3, 10**5))
        tracemalloc.start()
        try:
            _canonical(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scalar.row_bytes("norm-hlawka", 3, 10**5, 1)


def search(family: str, tol: float = DEFAULT_SCALAR_TOL, **cfg) -> list[dict]:
    # The search under the abs function, as the counterexample command runs it.
    return counterexample_search(family, RunConfig(family=family, **cfg), ABS, tol)


class TestCounterexampleSearch:
    def test_freudenthal_n3_finds_nothing(self):
        assert search("freudenthal", n=3, dim=3, trials=500, seed=42) == []

    def test_hlawka_pop_include_known_finds_it(self):
        found = search("hlawka-pop", n=4, trials=5, seed=0, include_known=True)
        assert found
        assert found[0]["trialIndex"] == 0
        assert found[0]["inputs"] == list(KNOWN_HLAWKA_POP_COUNTEREXAMPLE)
        assert found[0]["margin"] == -2.0

    def test_search_rediscovers_known_region_when_sampled(self):
        found = search("hlawka-pop", n=4, trials=64, seed=7,
                       center=KNOWN_HLAWKA_POP_COUNTEREXAMPLE, radius=1.0)
        assert len(found) >= 1

    def test_raw_config_runs_as_the_command(self):
        # Unset fields take the search route's values, as under the command;
        # the unresolved dim and strategy raised a TypeError.
        cfg = RunConfig(family="freudenthal", n=4, trials=5)
        report, _ = run_counterexample(cfg)
        assert counterexample_search("freudenthal", cfg, ABS, 1e-12) == report.violations

    @pytest.mark.parametrize("suite, family", [("freudenthal", "hlawka-pop"),
                                               ("hlawka-pop", "freudenthal")])
    def test_a_suite_other_than_the_family_is_refused(self, suite, family):
        # The first raised a bare TypeError from sample_shape; the second
        # searched hlawka-pop under a config settled for freudenthal.
        cfg = RunConfig(family=family, n=4, trials=3)
        with pytest.raises(InputError) as refused:
            counterexample_search(suite, cfg, ABS, 1e-12)
        assert str(refused.value) == f"suite {suite!r} differs from the config's family {family!r}"

    def test_deterministic_under_seed(self):
        assert search("hlawka-pop", n=4, trials=300, seed=11) == search(
            "hlawka-pop", n=4, trials=300, seed=11)

    def test_every_find_reverifies(self):
        for v in search("hlawka-pop", n=4, trials=300, seed=11):
            fresh = conjecture_hlawka_pop_eval(ABS, v["inputs"])
            assert fresh.margin == v["margin"]
            assert fresh.margin < 0

    def test_freudenthal_n4_completes_and_reverifies(self):
        for v in search("freudenthal", n=4, dim=2, trials=2000, seed=5):
            fresh = freudenthal_alternating(np.reshape(v["inputs"], (4, 2)))
            assert fresh.margin == v["margin"]
            assert fresh.margin < 0

    def test_coordinate_descent_deterministic(self):
        cfg = dict(n=4, trials=8, seed=3, strategy="coordinate-descent")
        assert search("hlawka-pop", **cfg) == search("hlawka-pop", **cfg)

    def test_coordinate_descent_descends_into_violation(self):
        # Starting near the refuting point, descent must fall in.
        found = search("hlawka-pop", n=4, trials=4, seed=9, strategy="coordinate-descent",
                       center=(-9.0, 1.5, 0.5, 8.0), radius=0.5)
        assert found

    def test_needs_three(self):
        with pytest.raises(InputError):
            search("hlawka-pop", n=2, trials=1, seed=0)

    def test_tolerance_decides_what_is_reported(self):
        found = search("hlawka-pop", 1e-3, n=4, trials=300, seed=11)
        strict = search("hlawka-pop", 1e-12, n=4, trials=300, seed=11)
        assert found and len(found) < len(strict)
        assert {v["trialIndex"] for v in found} < {v["trialIndex"] for v in strict}

        def scale(v):
            return conjecture_hlawka_pop_eval(ABS, v["inputs"]).scale

        for v in found:
            assert v["margin"] < -1e-3 * scale(v)
        for v in strict:
            if v["trialIndex"] not in {w["trialIndex"] for w in found}:
                assert v["margin"] >= -1e-3 * scale(v)

    def test_freudenthal_finds_keep_one_row_per_vector(self):
        found = search("freudenthal", n=5, dim=2, trials=300, seed=2)
        assert found
        for v in found:
            assert len(v["inputs"]) == 5 * 2
            assert all(isinstance(x, float) for x in v["inputs"])
            fresh = freudenthal_alternating(np.reshape(v["inputs"], (5, 2)))
            assert fresh.margin == v["margin"]


class TestSampleInputs:
    SEEDS = np.array(EDGE_SEEDS, dtype=np.uint64)

    def test_shape_follows_the_term_rule(self):
        seeds = self.SEEDS[:2]
        assert sample_inputs("freudenthal", seeds, 4, 3, None, None).shape == (2, 4, 3)
        assert sample_inputs("radu", seeds, 5, 2, None, None).shape == (2, 5, 2)
        assert sample_inputs("hlawka-pop", seeds, 4, 3, None, None).shape == (2, 4)
        assert sample_inputs("jensen", seeds, 6, 3, None, None).shape == (2, 6)

    def test_draws(self):
        # Row t holds the first draws of numpy's generator of seed t.
        points = sample_inputs("hlawka-pop", self.SEEDS, 4, 2, None, None)
        vectors = sample_inputs("freudenthal", self.SEEDS, 4, 2, None, None)
        for seed, point, vector in zip(EDGE_SEEDS, points, vectors, strict=True):
            assert point.tobytes() == np.random.default_rng(seed).uniform(-10.0, 10.0, 4).tobytes()
            assert vector.tobytes() == np.random.default_rng(seed).standard_normal((4, 2)).tobytes()

    def test_center_is_flat_and_checked(self):
        center = np.arange(8.0)
        draw = sample_inputs("freudenthal", self.SEEDS, 4, 2, center, 0.5)
        for seed, row in zip(EDGE_SEEDS, draw, strict=True):
            offsets = np.random.default_rng(seed).uniform(-0.5, 0.5, 8)
            assert row.tobytes() == (center + offsets).reshape(4, 2).tobytes()
        with pytest.raises(InputError, match="center must have 8 coordinates, got 3"):
            sample_inputs("freudenthal", self.SEEDS, 4, 2, (1.0, 2.0, 3.0), 0.5)


class TestOverflowRefused:
    def test_convex_function_overflow_is_inf(self):
        assert ConvexFunction("exp")(800.0) == math.inf
        assert ConvexFunction("fourth")(1e300) == math.inf
        assert ConvexFunction("softplus")(1e308) == 1e308

    @pytest.mark.parametrize("check", [
        lambda: jensen_check(ConvexFunction("exp"), [800.0, 1.0, 2.0]),
        lambda: popoviciu_check(SQUARE, 1e200, 1e200, -1e200),          # a NaN margin
        lambda: popoviciu_check(SQUARE, 1e154, 1e154, 1e154),           # fsum overflows
        lambda: conjecture_hlawka_pop_eval(ConvexFunction("exp"), [705, 706, 707, 708]),
        lambda: norm_hlawka([1e308], [1e308], [1e308]),
    ], ids=["exp-term", "nan-margin", "fsum", "scale", "norm"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_refused_not_judged(self, check):
        with pytest.raises(InputError, match="overflow"):
            check()


class TestVerdict:
    def test_derived_from_the_stored_tolerance(self):
        res = conjecture_hlawka_pop_eval(ABS, KNOWN_HLAWKA_POP_COUNTEREXAMPLE)
        assert res.tolerance == 1e-12
        assert res.verdict is Verdict.FAILS and not res.holds
        # The margin -2 is within 0.03 * scale (82) of zero.
        assert dataclasses.replace(res, tolerance=0.03).verdict is Verdict.EQUALITY
        assert dataclasses.replace(res, tolerance=0.03).holds

    def test_holds_and_equality(self):
        assert jensen_check(SQUARE, [1.0, 2.0, 3.0]).verdict is Verdict.HOLDS
        assert jensen_check(SQUARE, [2.0, 2.0]).verdict is Verdict.EQUALITY


# ---------------------------------------------------------------------------
# Statement oracle: each README formula restated term by term
# ---------------------------------------------------------------------------


def sides(lhs, rhs):
    """(lhs, rhs, margin, scale): each side an fsum of its terms, the scale
    the sum of absolute term sizes (at least 1)."""
    left, right = math.fsum(lhs), math.fsum(rhs)
    return left, right, left - right, max(1.0, math.fsum(map(abs, lhs)) + math.fsum(map(abs, rhs)))


def vector_sum(vs, idx):
    """The vectors of idx added one by one."""
    total = vs[idx[0]]
    for i in idx[1:]:
        total = total + vs[i]
    return total


def norm(v):
    return float(np.linalg.norm(v))


def subset_means(xs, size):
    return [math.fsum(xs[i] for i in idx) / size for idx in combinations(range(len(xs)), size)]


def by_rows(vs):
    """The vectors in lexicographic order."""
    return [np.array(v) for v in sorted(tuple(map(float, v)) for v in vs)]


def oracle_norm_hlawka(vs):
    a, b, c = by_rows(vs)
    return sides([norm(a + b + c), norm(a), norm(b), norm(c)],
                 [norm(a + b), norm(a + c), norm(b + c)])


def oracle_radu(vs, k):
    vs = by_rows(vs)
    n = len(vs)
    lhs = [math.comb(n - 2, k - 1) * norm(v) for v in vs]
    lhs.append(math.comb(n - 2, k - 2) * norm(vector_sum(vs, range(n))))
    return sides(lhs, [norm(vector_sum(vs, idx)) for idx in combinations(range(n), k)])


def oracle_freudenthal(vs):
    vs = by_rows(vs)
    n = len(vs)
    odd = [norm(vector_sum(vs, idx)) for k in range(1, n + 1, 2) for idx in combinations(range(n), k)]
    even = [norm(vector_sum(vs, idx)) for k in range(2, n + 1, 2) for idx in combinations(range(n), k)]
    return sides(odd, even)


def oracle_jensen(f, xs):
    n = len(xs)
    return sides([f(x) for x in xs], [n * f(math.fsum(xs) / n)])


def oracle_popoviciu(f, xs):
    a, b, c = sorted(xs)
    return sides([f(a), f(b), f(c), 3 * f(math.fsum(xs) / 3)],
                 [2 * f((a + b) / 2), 2 * f((a + c) / 2), 2 * f((b + c) / 2)])


def oracle_vasc(f, xs):
    n = len(xs)
    return sides([f(x) for x in xs] + [n / (n - 2) * f(math.fsum(xs) / n)],
                 [2 / (n - 2) * f(mean) for mean in subset_means(xs, 2)])


def oracle_pcz(f, xs, m):
    n = len(xs)
    lhs = [math.comb(n - 2, m - 1) * f(x) for x in xs]
    lhs.append(n * math.comb(n - 2, m - 2) * f(math.fsum(xs) / n))
    return sides(lhs, [m * f(mean) for mean in subset_means(xs, m)])


def oracle_functional_hlawka(f, xs):
    a, b, c = sorted(xs)
    return sides([f(a + b + c), f(a), f(b), f(c)], [f(a + b), f(a + c), f(b + c)])


def oracle_hlawka_pop(f, xs):
    n = len(xs)
    odd = [k * f(mean) for k in range(1, n + 1, 2) for mean in subset_means(xs, k)]
    even = [k * f(mean) for k in range(2, n + 1, 2) for mean in subset_means(xs, k)]
    return sides(odd, even)


def exact_pop_levels_margin(f, xs, k, ell, m) -> Fraction:
    """The pop-levels weights times |S| f(mean_S), weighted and summed
    exactly; only f(mean_S) is taken as computed in floating point."""
    n = len(xs)

    def level(size):
        return size * sum((Fraction(f(mean)) for mean in subset_means(xs, size)), Fraction(0))

    return (Fraction(m - ell, k * math.comb(n, k)) * level(k)
            + Fraction(ell - k, m * math.comb(n, m)) * level(m)
            - Fraction(m - k, ell * math.comb(n, ell)) * level(ell))


#: (name, evaluator, statement oracle, tuple sizes, input kind)
STATEMENT_CASES = [
    ("norm-hlawka", lambda vs: norm_hlawka(*vs), oracle_norm_hlawka, (3,), "vectors"),
    ("radu-k2", lambda vs: radu_check(vs, 2), lambda vs: oracle_radu(vs, 2), (3, 4, 5), "vectors"),
    ("radu-k3", lambda vs: radu_check(vs, 3), lambda vs: oracle_radu(vs, 3), (4, 5), "vectors"),
    ("radu-k=n", lambda vs: radu_check(vs, len(vs)), lambda vs: oracle_radu(vs, len(vs)),
     (3, 4, 5), "vectors"),
    ("freudenthal", freudenthal_alternating, oracle_freudenthal, (3, 4, 5), "vectors"),
    ("jensen", jensen_check, oracle_jensen, (1, 2, 5), "points"),
    ("popoviciu", lambda f, xs: popoviciu_check(f, *xs), oracle_popoviciu, (3,), "points"),
    ("vasc", vasc_check, oracle_vasc, (3, 4, 5, 6), "points"),
    ("pcz-m2", lambda f, xs: pcz_check(f, xs, 2), lambda f, xs: oracle_pcz(f, xs, 2),
     (4, 6), "points"),
    ("pcz-m3", lambda f, xs: pcz_check(f, xs, 3), lambda f, xs: oracle_pcz(f, xs, 3),
     (4, 5, 6), "points"),
    ("pcz-m4", lambda f, xs: pcz_check(f, xs, 4), lambda f, xs: oracle_pcz(f, xs, 4),
     (5, 6), "points"),
    ("functional-hlawka", lambda f, xs: functional_hlawka(f, *xs), oracle_functional_hlawka,
     (3,), "points"),
    ("hlawka-pop", conjecture_hlawka_pop_eval, oracle_hlawka_pop, (3, 4, 5), "points"),
]


class TestAgainstStatementOracle:
    @pytest.mark.parametrize("name, evaluate, statement, sizes, kind", STATEMENT_CASES,
                             ids=[c[0] for c in STATEMENT_CASES])
    def test_bit_for_bit(self, name, evaluate, statement, sizes, kind):
        rng = np.random.default_rng(20261018)
        for n in sizes:
            for trial in range(40):
                if kind == "vectors":
                    vs = rng.standard_normal((n, 1 + trial % 3))
                    cases = [(evaluate(vs), statement(vs))]
                else:
                    xs = rng.uniform(-10, 10, n)
                    if trial % 4 == 0:
                        xs = np.round(xs)  # ties and exact cancellations
                    cases = [(evaluate(f, xs), statement(f, sorted(xs.tolist())))
                             for f in convex_catalog()]
                for got, expected in cases:
                    assert (got.lhs, got.rhs, got.margin, got.scale) == expected

    @pytest.mark.parametrize("n, k, ell, m", [(3, 1, 2, 3), (4, 1, 2, 3), (5, 1, 3, 5),
                                              (6, 2, 3, 5), (6, 1, 4, 6)])
    def test_pop_levels_scalar_within_four_eps_of_the_exact_sum(self, n, k, ell, m):
        rng = np.random.default_rng(20261019)
        for _ in range(30):
            xs = rng.uniform(-10, 10, n)
            for f in convex_catalog():
                got = pop_levels_scalar_eval(f, xs, k, ell, m)
                exact = exact_pop_levels_margin(f, sorted(xs.tolist()), k, ell, m)
                band = 4 * Fraction(np.finfo(float).eps) * Fraction(got.scale)
                assert abs(Fraction(got.margin) - exact) <= band


def test_suite_terms_caches_one_entry_per_parameter_set():
    # However a call spells its parameters, one miss and one shared table.
    scalar._suite_terms.cache_clear()
    first = suite_terms("alternating", 6)
    assert suite_terms("alternating", 6, None, None, None) is first
    assert suite_terms("alternating", n=6, m=None) is first
    info = scalar._suite_terms.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# ---------------------------------------------------------------------------
# Blocks against the per-input oracle
# ---------------------------------------------------------------------------


def oracle_terms(suite: str, data, f=None, **levels) -> list[list[float]]:
    """The terms of one input, each formed on its own as the one-input
    formula states it, on the inputs sorted with Python's ``sorted``: an
    infinite term where the mean rule's ``fsum`` overflows."""
    term = SUITES[suite].term
    arr = np.asarray(data, dtype=np.float64)
    if term == "norm":
        vectors = [np.array(row) for row in sorted(map(tuple, arr.tolist()))]
    else:
        pts = sorted(arr.ravel().tolist())
    sides = suite_terms(suite, arr.shape[0], levels.get("k"), levels.get("ell"), levels.get("m"))
    terms = [[], []]
    with np.errstate(over="ignore", invalid="ignore"):
        for side, out in zip(sides, terms):
            for c, s in side:
                if term == "norm":
                    out.append(c * float(np.linalg.norm(reduce(add, [vectors[i] for i in s]))))
                elif term == "value":
                    out.append(c * f(reduce(add, [pts[i] for i in s])))
                else:
                    try:
                        out.append(c * f(math.fsum(pts[i] for i in s) / len(s)))
                    except OverflowError:
                        out.append(math.inf)
    return terms


def oracle_evaluate(suite: str, data, f=None, **levels) -> tuple:
    """``(lhs, rhs, margin, scale)`` of one input, each side an ``fsum`` of
    :func:`oracle_terms`; :class:`InputError` where the evaluator refuses."""
    if not np.isfinite(np.asarray(data, dtype=np.float64)).all():
        raise InputError("vector entries must be finite" if SUITES[suite].term == "norm"
                         else "points must be finite")
    lhs_terms, rhs_terms = oracle_terms(suite, data, f, **levels)
    try:
        lhs, rhs = math.fsum(lhs_terms), math.fsum(rhs_terms)
        scale = max(1.0, math.fsum(map(abs, lhs_terms)) + math.fsum(map(abs, rhs_terms)))
    except (OverflowError, ValueError):
        lhs = rhs = scale = math.inf
    margin = lhs - rhs
    if not (math.isfinite(margin) and math.isfinite(scale)):
        raise InputError("overflow: a term or a side of the inequality exceeds double precision")
    return lhs, rhs, margin, scale


def oracle_descent(suite: str, fn, start: np.ndarray, evaluated: list | None = None) -> np.ndarray:
    """The coordinate descent from one start, one evaluation after another,
    ended by the first candidate the evaluator refuses; each point it
    evaluates is appended to ``evaluated``, if given."""
    def margin(point):
        if evaluated is not None:
            evaluated.append(point)
        return oracle_evaluate(suite, point, fn)[2]

    point = trial = start.copy()
    try:
        best = margin(point)
        for step in (4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625):
            improved = True
            sweeps = 0
            while improved and sweeps < 20:
                improved = False
                sweeps += 1
                for i in range(point.size):
                    for delta in (step, -step):
                        trial = point.copy()
                        trial.flat[i] += delta
                        value = margin(trial)
                        if value < best - 1e-15:
                            best, point, improved = value, trial, True
    except InputError:
        return trial
    return point


def oracle_search(suite: str, cfg: RunConfig, fn, tol: float) -> list[dict]:
    """The search's report entries, one start after another."""
    cfg, _ = harness._settings(cfg, "counterexample")
    found = []
    for t in range(cfg.trials):
        if t == 0 and cfg.include_known:
            start = np.asarray(KNOWN_HLAWKA_POP_COUNTEREXAMPLE)
        else:
            rng = np.random.default_rng(derive_seed(cfg.seed, t))
            start = numpy_inputs(suite, rng, cfg.n, cfg.dim, cfg.center, cfg.radius)
        point = oracle_descent(suite, fn, start) if cfg.strategy == "coordinate-descent" else start
        _, _, margin, scale = oracle_evaluate(suite, point, fn)
        if band_verdict(margin, abs(margin), scale, tol) is Verdict.FAILS:
            found.append({"inputsDigest": harness._data_digest(point), "margin": margin,
                          "seed": derive_seed(cfg.seed, t), "trialIndex": t,
                          "inputs": point.ravel().tolist()})
    return found


#: (suite, n, dim, levels): every convex/norm suite, and the norm rule's
#: vector sums at dim 1 over subsets of eight and more vectors.
BLOCK_CASES = [
    ("norm-hlawka", 3, 3, {}),
    ("radu", 4, 2, {"k": 3}),
    ("jensen", 4, 1, {}),
    ("popoviciu", 3, 1, {}),
    ("vasc", 5, 1, {}),
    ("pcz", 5, 1, {"m": 3}),
    ("pop-levels-scalar", 5, 1, {"k": 1, "ell": 3, "m": 5}),
    ("functional-hlawka", 3, 1, {}),
    ("hlawka-pop", 4, 1, {}),
    ("freudenthal", 4, 2, {}),
    ("freudenthal", 9, 1, {}),
    ("radu", 9, 1, {"k": 8}),
]


def chunk_size(suite: str, n: int, dim: int, functions: int, **levels) -> int:
    """The trials of one chunk of the harness's convex/norm route."""
    cfg = RunConfig(family=suite, n=n, dim=dim, trials=10**6, fn="all" if functions > 1 else None,
                    **levels)
    return len(next(harness._input_chunks(cfg, harness._trial_bytes(cfg, "convex")))[1])


def block_rows(suite: str, count: int, n: int, dim: int, rng) -> np.ndarray:
    """Seeded inputs, every third row rounded (ties and exact cancellations),
    every third with its first coordinate rounded (ties in the leading key
    only) and every third made nonnegative (the norm rule's equality cases
    at dim 1, where the margin is all rounding)."""
    block = np.stack([numpy_inputs(suite, rng, n, dim) for _ in range(count)])
    block[0::3] = np.round(block[0::3])
    if block.ndim == 3:
        block[1::3, :, 0] = np.round(block[1::3, :, 0])
    block[2::3] = np.abs(block[2::3])
    return block


class TestBlockEqualsRows:
    @pytest.mark.parametrize("suite, n, dim, levels", BLOCK_CASES,
                             ids=[f"{c[0]}-n{c[1]}-dim{c[2]}" for c in BLOCK_CASES])
    def test_every_row_and_function_bit_for_bit(self, suite, n, dim, levels):
        fns = [None] if SUITES[suite].term == "norm" else list(convex_catalog())
        chunk = chunk_size(suite, n, dim, len(fns), **levels)
        rng = np.random.default_rng(20261019)
        for count in sorted({1, chunk - 1, chunk, chunk + 1} - {0}):
            block = block_rows(suite, count, n, dim, rng)
            got = _search_margin(suite, block, fns, **levels)
            image = partial(_convex_norm_image, SUITES[suite].term, fns)
            lhs_terms, rhs_terms, _ = _terms(suite, _canonical(block), image, **levels)
            assert got.refusals == {}
            for t, data in enumerate(block):
                for j, f in enumerate(fns):
                    expected = oracle_terms(suite, data, f, **levels)
                    assert lhs_terms[t, j].tolist() == expected[0]
                    assert rhs_terms[t, j].tolist() == expected[1]
                    assert (got.lhs[t, j], got.rhs[t, j], got.margin[t, j],
                            got.scale[t, j]) == oracle_evaluate(suite, data, f, **levels)

    def test_refusals_name_the_first_refused_row(self):
        rows = np.array([[1.0, 2.0, 3.0], [1e308, 1e308, 1e308], [np.inf, 0.0, 1.0],
                         [1.0, 1.0, 1.0]])
        got = _search_margin("popoviciu", rows, (ABS,))
        assert got.refusals == {1: "overflow: a term or a side of the inequality exceeds "
                                   "double precision", 2: "points must be finite"}
        with pytest.raises(InputError, match="overflow"):
            got.refuse_first()
        with pytest.raises(InputError, match="points must be finite"):
            _search_margin("popoviciu", rows[[0, 2, 1]], (ABS,)).refuse_first()
        for t in (0, 3):
            assert got[t].margin == oracle_evaluate("popoviciu", rows[t], ABS)[2]


#: Levels that every SUITES entry accepts, at n 5 or, where it needs 3, n 3.
TERM_LEVELS = {"pop-subsets": {"m": 3}, "pcz": {"m": 3}, "radu": {"k": 2},
               "pop-levels": {"k": 1, "ell": 2, "m": 3},
               "pop-levels-scalar": {"k": 1, "ell": 2, "m": 3}}


def gathered_terms(suite: str, data: np.ndarray, image, k=None, ell=None, m=None) -> tuple:
    """The oracle of :func:`_terms`: each size's members gathered at once,
    summed left to right into new arrays, and the sizes concatenated."""
    term = SUITES[suite].term
    groups, ((li, lc), (ri, rc)) = scalar._plan(suite, data.shape[1], k, ell, m)
    parts = []
    for size, subsets in groups:
        picked = data[:, subsets]
        if term == "mean" and size > 2:
            [total] = scalar._fsums(picked)
        else:
            total = picked[:, :, 0]
            for j in range(1, size):
                total = total + picked[:, :, j]
        parts.append(total / size if term == "mean" else total)
    values = np.concatenate(parts, axis=1)
    images = image(values)
    overflow = term == "mean" and ~np.isfinite(values).all(axis=1)
    return images[..., li] * lc, images[..., ri] * rc, overflow


class TestTermsInPlace:
    @staticmethod
    def inputs(term, count: int, n: int, rng) -> np.ndarray:
        """``count`` rows of a term rule's inputs: complex 3x3 matrices, 2D
        vectors or points; row 0 has signed zeros and, with more rows, row 1
        sums past double precision."""
        if term is None:
            data = rng.standard_normal((count, n, 3, 3)) + 1j * rng.standard_normal((count, n, 3, 3))
        else:
            data = rng.uniform(-10.0, 10.0, (count, n, 2) if term == "norm" else (count, n))
        data[0, ::2] = -0.0
        if count > 1:
            data[1] = 1e308
        return data

    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_the_sums_equal_the_gathered_sums(self, suite, count):
        # Every term rule: operator sums, value sums, means of pairs and of
        # larger sets (fsum's), and norm sums; one row, whose columns are
        # contiguous, and several.
        levels = TERM_LEVELS.get(suite, {})
        spec = SUITES[suite]
        n = next(n for n in (5, 3) if spec.valid(n, *map(levels.get, ("k", "ell", "m"))))
        data = self.inputs(spec.term, count, n, np.random.default_rng(count))
        seen = []
        if spec.term is None:
            def image(values):
                seen.append(values.copy())
                return values.real.sum(axis=(-2, -1))[:, np.newaxis]
        else:
            fns = (None,) if spec.term == "norm" else convex_catalog()

            def image(values):
                seen.append(values.copy())
                return _convex_norm_image(spec.term, fns, values)

        with np.errstate(all="ignore"):
            got = _terms(suite, data, image, **levels)
            want = gathered_terms(suite, data, image, **levels)
        new, old = seen
        assert (new.shape, new.dtype, new.tobytes()) == (old.shape, old.dtype, old.tobytes())
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_a_det_chunk_peaks_within_its_count(self):
        # many-small's matrix-route line: a full chunk, its inputs sampled
        # and its terms, subset sums and determinants formed, holds no more
        # than its trials times the count of a trial, and 32 KiB for the
        # report and the small arrays around it.  Gathering every member of
        # every subset at once held 1.8 times the count.  A second chunk
        # holds nothing of the first, whose inputs took 0.11 of the count.
        cfg = RunConfig(family="alternating", char="det", n=4, dim=4, trials=1, seed=4)
        resolved, _ = harness._settings(cfg, "matrix")
        count = harness._trial_bytes(resolved, "matrix")
        chunk = harness._chunk_trials(count)

        def peak(trials):
            tracemalloc.start()
            try:
                run_scalar_verify(dataclasses.replace(cfg, trials=trials))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_scalar_verify(dataclasses.replace(cfg, trials=chunk))  # the group's tables, cached
        one = peak(chunk)
        assert one <= chunk * count + 32 * 1024
        assert peak(2 * chunk) <= one + 32 * 1024


class TestLockstepDescents:
    @pytest.mark.parametrize("suite, cfg", [
        ("hlawka-pop", dict(n=4, trials=12, seed=3)),
        ("hlawka-pop", dict(n=4, trials=5, seed=0, include_known=True)),
        ("hlawka-pop", dict(n=4, trials=6, seed=9, center=(-9.0, 1.5, 0.5, 8.0), radius=0.5)),
        ("hlawka-pop", dict(n=5, trials=6, seed=1)),
        ("freudenthal", dict(n=4, dim=2, trials=4, seed=2)),
        ("freudenthal", dict(n=4, dim=2, trials=4, seed=2, center=tuple(range(8)), radius=1.0)),
    ], ids=["plain", "include-known", "center", "n5", "norm", "norm-center"])
    @pytest.mark.parametrize("chunk_bytes", [None, 1], ids=["one-chunk", "chunks-of-one"])
    def test_finds_equal_the_sequential_search(self, suite, cfg, chunk_bytes, monkeypatch):
        if chunk_bytes is not None:
            monkeypatch.setattr(harness, "CHUNK_BYTES", chunk_bytes)
        fn = None if SUITES[suite].term == "norm" else ABS
        for strategy in SEARCH_STRATEGIES:
            config = RunConfig(family=suite, strategy=strategy, **cfg)
            assert counterexample_search(suite, config, fn, 1e-12) == oracle_search(
                suite, config, fn, 1e-12)

    def test_the_descent_computes_no_codes_it_does_not_read(self, tmp_path, monkeypatch):
        # A record forms its codes when first read, and the lockstep rounds
        # read only margins: a chunk computes two, those of search_from's
        # block and of its fresh re-check.
        def counted(module, name: str) -> list:
            calls, original = [], getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, **kw: calls.append(1) or original(*a, **kw))
            return calls

        codes = counted(linalg, "band_verdicts")
        evaluations = counted(scalar, "_search_margin")
        chunks = counted(harness, "search_from")
        out = tmp_path / "r.json"
        assert main(["counterexample", "--family", "hlawka-pop", "--n", "4", "--strategy",
                     "coordinate-descent", "--trials", "50", "--out", str(out)]) == 0
        assert len(evaluations) > 2 * len(chunks) > 0
        assert len(codes) <= 2 * len(chunks)

    # Under exp about 704 one descent is refused at its start, four in
    # their middle, and two end at a finite point.
    @pytest.mark.parametrize("fn, center", [(SQUARE, None), (EXP, None), (EXP, (704.0,) * 4)],
                             ids=["square", "exp", "exp-refused"])
    @pytest.mark.parametrize("rows", [1, 3, 7, 360])
    def test_descended_points_equal_the_sequential_descents(self, rows, fn, center):
        rng = np.random.default_rng(5)
        starts = np.stack([numpy_inputs("hlawka-pop", rng, 4, 1, center, 4.0)
                           for _ in range(7)])
        points = _lockstep("hlawka-pop", fn, starts, rows)
        for start, point in zip(starts, points):
            assert point.tobytes() == oracle_descent("hlawka-pop", fn, start).tobytes()

    @pytest.mark.parametrize("fn, center", [(ABS, None), (EXP, (704.0,) * 4)],
                             ids=["abs", "exp-refused"])
    def test_one_row_a_round_evaluates_the_sequential_candidates(self, fn, center, monkeypatch):
        # From one start at one row a round, the descent evaluates the
        # points the sequential descent does, in its order, and none after
        # a refused one.
        blocks, evaluate = [], scalar._search_margin
        monkeypatch.setattr(scalar, "_search_margin",
                            lambda suite, data, *a, **kw: blocks.append(data.copy())
                            or evaluate(suite, data, *a, **kw))
        rng = np.random.default_rng(5)
        for _ in range(7):
            start = numpy_inputs("hlawka-pop", rng, 4, 1, center, 4.0)
            expected, blocks[:] = [], []
            oracle_descent("hlawka-pop", fn, start, expected)
            _lockstep("hlawka-pop", fn, start[np.newaxis], 1)
            assert [block.tobytes() for block in blocks] == [p.tobytes() for p in expected]

    @staticmethod
    def budget_rows(monkeypatch, config: RunConfig, rows: int) -> None:
        """Set ``CHUNK_BYTES`` so that a chunk of ``config``'s search holds
        ``rows`` trials, which bounds each round of its descents too."""
        cfg, _ = harness._settings(config, "counterexample")
        monkeypatch.setattr(harness, "CHUNK_BYTES",
                            rows * harness._trial_bytes(cfg, "counterexample"))

    # Budgets of 1, 3 and 7 rows end rounds mid-sweep, and 3 and 7 between
    # a coordinate's plus and minus candidates.
    @pytest.mark.parametrize("suite, cfg, kind", [
        ("hlawka-pop", dict(n=4, trials=9, seed=3), "abs"),
        ("hlawka-pop", dict(n=5, trials=6, seed=1), "square"),
        ("hlawka-pop", dict(n=4, trials=6, seed=4), "exp"),
        ("freudenthal", dict(n=4, dim=2, trials=4, seed=2), None),
    ], ids=["abs", "square", "exp", "norm"])
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_round_budgets_keep_the_sequential_finds(self, suite, cfg, kind, rows, monkeypatch):
        config = RunConfig(family=suite, strategy="coordinate-descent", fn=kind, **cfg)
        self.budget_rows(monkeypatch, config, rows)
        fn = kind and ConvexFunction(kind)
        assert counterexample_search(suite, config, fn, 1e-12) == oracle_search(
            suite, config, fn, 1e-12)

    # The exp searches of test_mean_rule_overflow_exits_two, refused in the
    # middle of a descent.
    @pytest.mark.parametrize("center, radius, trials, seed", [
        (700.0, 4.0, 8, 1), (702.0, 4.0, 4, 2), (702.0, 6.0, 4, 2)])
    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    def test_refused_descents_raise_as_the_sequential_search(self, center, radius, trials, seed,
                                                             rows, monkeypatch):
        config = RunConfig(family="hlawka-pop", n=4, strategy="coordinate-descent", fn="exp",
                           center=(center,) * 4, radius=radius, trials=trials, seed=seed)
        if rows is not None:
            self.budget_rows(monkeypatch, config, rows)
        with pytest.raises(InputError) as expected:
            oracle_search("hlawka-pop", config, EXP, 1e-12)
        with pytest.raises(InputError) as got:
            counterexample_search("hlawka-pop", config, EXP, 1e-12)
        assert str(got.value) == str(expected.value) == scalar._OVERFLOW

    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    def test_a_round_holds_at_most_a_chunk_of_rows(self, rows, monkeypatch):
        config = RunConfig(family="hlawka-pop", n=4, strategy="coordinate-descent", trials=20)
        if rows is not None:
            self.budget_rows(monkeypatch, config, rows)
        cfg, _ = harness._settings(config, "counterexample")
        limit = harness._chunk_trials(harness._trial_bytes(cfg, "counterexample"))
        blocks, evaluate = [], scalar._search_margin
        monkeypatch.setattr(scalar, "_search_margin",
                            lambda suite, data, *a, **kw: blocks.append(len(data))
                            or evaluate(suite, data, *a, **kw))
        counterexample_search("hlawka-pop", config, ABS, 1e-12)
        assert limit == (rows or 1440)
        assert blocks and max(blocks) <= limit

    def test_the_benchmark_descent_makes_few_evaluations(self, tmp_path, monkeypatch):
        # One evaluation a candidate of every live descent took 227 at seed
        # 0; a round of sweep blocks takes most of a sweep at once.
        calls, evaluate = [], scalar._search_margin
        monkeypatch.setattr(scalar, "_search_margin",
                            lambda *a, **kw: calls.append(1) or evaluate(*a, **kw))
        assert main(["counterexample", "--family", "hlawka-pop", "--n", "4", "--strategy",
                     "coordinate-descent", "--trials", "50", "--seed", "0",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert 2 < len(calls) <= 100

    def test_zero_trials_on_both_routes(self):
        for strategy in SEARCH_STRATEGIES:
            assert search("hlawka-pop", n=4, trials=0, strategy=strategy) == []
        for family in CONVEX_NORM_SUITES:
            levels = {"radu": {"k": 2}, "pcz": {"m": 2},
                      "pop-levels-scalar": {"k": 1, "ell": 2, "m": 3}}.get(family, {})
            report, code = run_scalar_verify(RunConfig(family=family, trials=0, **levels))
            assert (report.min_margin, report.violations, code) == (None, [], 0)


class TestCatalogBlockBits:
    def test_each_vectorized_function_equals_its_python_function(self):
        rng = np.random.default_rng(20261019)
        tiny = np.finfo(float).smallest_subnormal
        values = np.concatenate([
            rng.uniform(-50.0, 50.0, 40_000),
            rng.uniform(700.0, 712.0, 10_000), rng.uniform(-760.0, -700.0, 10_000),
            rng.uniform(-41.0, -39.0, 10_000), rng.uniform(39.0, 41.0, 10_000),
            rng.uniform(-1e-300, 1e-300, 5_000), tiny * rng.integers(-2**20, 2**20, 5_000),
            10.0 ** rng.uniform(-320, 308, 9_990) * rng.choice([-1.0, 1.0], 9_990),
            [0.0, -0.0, tiny, -tiny, 709.782712893384, -709.782712893384, 40.0, -40.0,
             1e300, -1e300],
        ])
        assert values.size == 100_000
        for f in convex_catalog():
            expected = np.array([f(v) for v in values.tolist()])
            assert f.over(values).tobytes() == expected.tobytes(), f.kind


# ---------------------------------------------------------------------------
# Correctly rounded sums: math.fsum is the oracle
# ---------------------------------------------------------------------------


TINY = np.finfo(float).smallest_subnormal

#: Terms of the sums' oracle: the floats of one binade, [4, 8), whose sums
#: often fall on a half-ulp tie; subnormals; signed zeros, infinities, NaN,
#: values whose sums overflow and a tie of 1; and finite floats of every
#: magnitude.
SUM_TERMS = st.one_of(
    st.integers(0, 2**52 - 1).map(lambda k: 4.0 + k * 2.0**-50),
    st.integers(-2**20, 2**20).map(lambda k: k * TINY),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1.0, 2.0**-53]),
    st.floats(width=64, allow_nan=False, allow_infinity=False),
)


def fsum_or_nan(row) -> float:
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):
        return math.nan


@st.composite
def sum_blocks(draw) -> np.ndarray:
    """A block of 1 to 20 columns whose row count is on either side of the
    cascade's smallest block: a few drawn rows, repeated, each copy with
    its terms in an order of its own."""
    width = draw(st.integers(1, 20))
    rows = draw(st.lists(st.lists(SUM_TERMS, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    count = draw(st.sampled_from([1, scalar._CASCADE_ROWS - 1, scalar._CASCADE_ROWS,
                                  2 * scalar._CASCADE_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.permuted(np.array(rows)[np.arange(count) % len(rows)], axis=1)


class TestCorrectlyRoundedSums:
    @settings(max_examples=300, deadline=None)
    @given(sum_blocks())
    def test_every_row_gets_the_bits_of_fsum(self, block):
        [got] = scalar._fsums(block)
        assert got.tobytes() == np.array([fsum_or_nan(row) for row in block.tolist()]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda w: st.lists(SUM_TERMS, min_size=w, max_size=w)),
           st.integers(0, 1999))
    def test_a_row_alone_and_in_a_2000_row_block(self, row, place):
        block = np.random.default_rng(place).uniform(-10.0, 10.0, (2000, len(row)))
        block[place] = row
        alone, within = scalar._fsums(np.array([row]), block)
        assert alone.tobytes() == within[place:place + 1].tobytes() == np.array(
            [fsum_or_nan(row)]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-1000, 1000), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_sums_just_off_a_half_ulp_tie_get_the_bits_of_fsum(self, exponent, width, seed):
        # b + h is a tie and t moves the exact sum just off it, so Sum2's
        # own result, the tie rounded to even, is off by an ulp in about
        # half the rows: those must not be certified.
        rng = np.random.default_rng(seed)
        count = 2 * scalar._CASCADE_ROWS
        b = np.ldexp(rng.uniform(1.0, 2.0, count), exponent)
        h = np.spacing(b) / 2
        t = np.ldexp(h * rng.choice([-1.0, 1.0], count), -rng.integers(1, 60, count))
        block = np.zeros((count, max(width, 3)))
        block[:, :3] = np.stack([b, h, t], axis=1)
        block = rng.permuted(block, axis=1)
        [got] = scalar._fsums(block)
        assert got.tobytes() == np.array([math.fsum(row) for row in block.tolist()]).tobytes()

    @pytest.mark.parametrize("count", [1, scalar._CASCADE_ROWS])
    def test_zero_sums_get_the_running_interpreters_fsum_bits(self, count):
        # The fsum of -0.0 terms only is 0.0 before Python 3.12 and -0.0
        # from it on; the cascade leaves every zero sum to fsum.
        rows = [[-0.0] * width for width in range(1, 6)] + [
            [0.0, -0.0], [-0.0, 0.0, -0.0], [1.0, -1.0], [-1.0, 1.0, -0.0], [TINY, -TINY],
            [-2.5, 1.25, 1.25]]
        for row in rows:
            [got] = scalar._fsums(np.array([row] * count))
            assert got.tobytes() == np.full(count, math.fsum(row)).tobytes(), row

    @pytest.mark.parametrize("block", [
        np.random.default_rng(1).uniform(0.0, 10.0, (2000, 8)),
        np.random.default_rng(2).standard_normal((2000, 13)),
        4.0 + np.random.default_rng(3).integers(0, 2**20, (2000, 6)) * 2.0**-50,
    ], ids=["uniform", "signed", "binade-ties"])
    def test_the_cascade_certifies_plain_rows(self, block):
        # Only the rows the cascade does not certify go to fsum one at a time.
        sums, certified = scalar._cascade(block)
        assert certified.all()
        assert sums.tobytes() == np.array([math.fsum(row) for row in block.tolist()]).tobytes()

    @pytest.mark.parametrize("suite, data, fns, levels", [
        ("pcz", np.random.default_rng(4).uniform(-10.0, 10.0, (2000, 5)), convex_catalog(),
         {"m": 3}),
        ("freudenthal", np.random.default_rng(5).standard_normal((2000, 4, 2)), (None,), {}),
    ], ids=["pcz", "freudenthal"])
    def test_the_sums_of_a_block_hold_within_its_row_bytes(self, suite, data, fns, levels):
        image = partial(_convex_norm_image, SUITES[suite].term, fns)
        lhs, rhs, _ = _terms(suite, _canonical(data), image, **levels)
        tracemalloc.start()
        try:
            scalar._fsums(lhs, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = data.shape[2] if data.ndim == 3 else None
        assert peak <= len(data) * scalar.row_bytes(suite, data.shape[1], dim, len(fns), **levels)


class TestOneSumPerSide:
    @pytest.mark.parametrize("count", [1, scalar._CASCADE_ROWS])
    @pytest.mark.parametrize("lhs, rhs", [
        ([1.0, -2.0, 3.0], [0.5, 0.25]),
        ([0.5, 0.25], [-1e-300, 4.0, 1e-300]),
        ([1.0, math.nan, 3.0], [0.5, 0.25]),
        ([-0.0, -0.0], [-0.0]),
        ([-0.0, 0.0, -0.0], [2.0, -0.0]),
    ], ids=["negative-lhs", "negative-rhs", "nan", "negative-zeros", "mixed-zeros"])
    def test_the_scale_is_one_or_the_sum_of_the_absolute_terms(self, lhs, rhs, count):
        record = scalar._margins(np.array([[lhs]] * count), np.array([[rhs]] * count), False,
                                 DEFAULT_SCALAR_TOL)
        scale = np.maximum(1.0, np.float64(math.fsum(map(abs, lhs))) + math.fsum(map(abs, rhs)))
        assert record.scale.tobytes() == np.full((count, 1), scale).tobytes()

    def test_two_nonnegative_sides_form_two_sums(self, monkeypatch):
        summed, original = [], scalar._fsums
        monkeypatch.setattr(scalar, "_fsums", lambda *arrays: summed.extend(arrays) or original(
            *arrays))
        terms = np.abs(np.random.default_rng(6).standard_normal((50, 6, 7)))
        scalar._margins(terms, terms[..., :3], False, DEFAULT_SCALAR_TOL)
        assert len(summed) == 2
        terms[3, 2, 5] = -1.0  # on the left side only
        summed.clear()
        scalar._margins(terms, terms[..., :3], False, DEFAULT_SCALAR_TOL)
        assert len(summed) == 3
