"""Convex/norm inequality evaluators, exact oracles, counterexample search."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlawka.errors import InputError
from hlawka.scalar import (
    KNOWN_HLAWKA_POP_COUNTEREXAMPLE,
    ConvexFunction,
    SearchConfig,
    SearchFamily,
    SearchStrategy,
    conjecture_hlawka_pop_eval,
    convex_catalog,
    counterexample_search,
    freudenthal_alternating,
    functional_hlawka,
    jensen_check,
    norm_hlawka,
    pcz_check,
    pop_levels_scalar_eval,
    popoviciu_check,
    radu_check,
    vasc_check,
)

ABS = ConvexFunction("abs")
SQUARE = ConvexFunction("square")


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

    def test_affine_parameters(self):
        f = ConvexFunction("square", shift=1.0, scale=2.0)
        assert f(2.0) == 4.0  # (2*(2-1))^2

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


class TestCounterexampleSearch:
    def test_freudenthal_n3_finds_nothing(self):
        cfg = SearchConfig(n=3, dim=3, trials=500, seed=42)
        assert counterexample_search(SearchFamily.FREUDENTHAL, cfg) == []

    def test_hlawka_pop_include_known_finds_it(self):
        cfg = SearchConfig(n=4, trials=5, seed=0, include_known=True)
        found = counterexample_search(SearchFamily.HLAWKA_POP, cfg)
        assert found
        assert found[0].trial_index == 0
        assert found[0].inputs == KNOWN_HLAWKA_POP_COUNTEREXAMPLE
        assert found[0].margin == -2.0

    def test_search_rediscovers_known_region_when_sampled(self):
        cfg = SearchConfig(
            n=4, trials=64, seed=7, center=KNOWN_HLAWKA_POP_COUNTEREXAMPLE, radius=1.0
        )
        found = counterexample_search(SearchFamily.HLAWKA_POP, cfg)
        assert len(found) >= 1

    def test_deterministic_under_seed(self):
        cfg = SearchConfig(n=4, trials=300, seed=11)
        first = counterexample_search(SearchFamily.HLAWKA_POP, cfg)
        second = counterexample_search(SearchFamily.HLAWKA_POP, cfg)
        assert first == second

    def test_every_find_reverifies(self):
        cfg = SearchConfig(n=4, trials=300, seed=11)
        for v in counterexample_search(SearchFamily.HLAWKA_POP, cfg):
            fresh = conjecture_hlawka_pop_eval(ABS, v.inputs)
            assert fresh.margin == v.margin
            assert fresh.margin < 0

    def test_freudenthal_n4_completes_and_reverifies(self):
        cfg = SearchConfig(n=4, dim=2, trials=2000, seed=5)
        found = counterexample_search(SearchFamily.FREUDENTHAL, cfg)
        for v in found:
            fresh = freudenthal_alternating(np.asarray(v.inputs))
            assert fresh.margin == v.margin
            assert fresh.margin < 0

    def test_coordinate_descent_deterministic(self):
        cfg = SearchConfig(n=4, trials=8, seed=3, strategy=SearchStrategy.COORDINATE_DESCENT)
        first = counterexample_search(SearchFamily.HLAWKA_POP, cfg)
        second = counterexample_search(SearchFamily.HLAWKA_POP, cfg)
        assert first == second

    def test_coordinate_descent_descends_into_violation(self):
        # Starting near the refuting point, descent must fall in.
        cfg = SearchConfig(
            n=4, trials=4, seed=9, strategy=SearchStrategy.COORDINATE_DESCENT,
            center=(-9.0, 1.5, 0.5, 8.0), radius=0.5,
        )
        found = counterexample_search(SearchFamily.HLAWKA_POP, cfg)
        assert found

    def test_needs_three(self):
        with pytest.raises(InputError):
            counterexample_search(SearchFamily.HLAWKA_POP, SearchConfig(n=2, trials=1, seed=0))


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
