"""Difference builders: equality cases, exact identities, trial suites."""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, lcm

import numpy as np
import pytest

from conftest import input_scale, pd_tuple, stack_of

from hlawka.errors import BudgetError, InputError
from hlawka.linalg import HermitianMatrix, Verdict, psd_certificate
from hlawka.sums import (
    OperatorFamily,
    TensorSumParams,
    alternating_difference,
    build_difference,
    hlawka3_difference,
    pop_levels_difference,
    pop_pairs_difference,
    pop_subsets_difference,
    superadditivity_difference,
    supermodularity_difference,
    symmetric_tensor_sum,
)
from hlawka.util import derive_seed


def inf_norm(h: HermitianMatrix) -> float:
    return float(np.abs(h.array).max())


class TestSymmetricTensorSum:
    def test_full_subset_linear(self):
        mats = pd_tuple(1, 4, 2)
        out = symmetric_tensor_sum(mats, 4, 1)
        expected = mats[0] + mats[1] + mats[2] + mats[3]
        assert np.allclose(out.array, expected.array, rtol=0, atol=1e-13)

    def test_pairs_double_count(self):
        mats = pd_tuple(2, 3, 2)
        out = symmetric_tensor_sum(mats, 2, 1)
        expected = 2.0 * (mats[0] + mats[1] + mats[2])
        assert np.allclose(out.array, expected.array, rtol=1e-14)

    def test_term_count_via_scalars(self):
        # With every input [[1]], the k-subset sum is [k], so the total is
        # C(n, k) * k^p: ten summands for n=5, k=2.
        mats = [HermitianMatrix([[1.0]]) for _ in range(5)]
        out = symmetric_tensor_sum(mats, 2, 1)
        assert out.array[0, 0].real == 10 * 2

    def test_parameter_range(self):
        mats = pd_tuple(3, 3, 2)
        with pytest.raises(InputError):
            symmetric_tensor_sum(mats, 0, 1)
        with pytest.raises(InputError):
            symmetric_tensor_sum(mats, 4, 1)

    def test_budget(self):
        mats = pd_tuple(4, 3, 4)
        with pytest.raises(BudgetError):
            symmetric_tensor_sum(mats, 2, 2, max_dim=8)


class TestHlawka3:
    def test_p1_zero(self):
        for seed in range(10):
            mats = pd_tuple(seed, 3, 3)
            diff = hlawka3_difference(*mats, 1)
            assert inf_norm(diff) <= 1e-10 * input_scale(mats)

    def test_p2_zero(self):
        for seed in range(10):
            mats = pd_tuple(100 + seed, 3, 3)
            diff = hlawka3_difference(*mats, 2)
            assert inf_norm(diff) <= 1e-10 * input_scale(mats) ** 2

    def test_p3_holds_trial_suite(self):
        for seed in range(200):
            mats = pd_tuple(seed, 3, 2)
            cert = psd_certificate(hlawka3_difference(*mats, 3))
            assert cert.ok, f"seed {seed}: min eig {cert.min_eigenvalue}"

    def test_supermod_holds_whenever_hlawka_holds(self):
        for seed in range(100):
            mats = pd_tuple(seed, 3, 2)
            h = psd_certificate(hlawka3_difference(*mats, 4))
            s = psd_certificate(supermodularity_difference(*mats, 4))
            if h.ok:
                assert s.ok


class TestSupermodularity:
    def test_p1_zero(self):
        mats = pd_tuple(5, 3, 3)
        assert inf_norm(supermodularity_difference(*mats, 1)) <= 1e-10 * input_scale(mats)

    def test_p2_expansion(self):
        # (A+B+C)^2 + A^2 - (A+B)^2 - (A+C)^2 telescopes to BC + CB.
        a, b, c = pd_tuple(6, 3, 2)
        diff = supermodularity_difference(a, b, c, 2)
        expected = np.kron(b.array, c.array) + np.kron(c.array, b.array)
        scale = np.abs(expected).max()
        assert np.abs(diff.array - expected).max() <= 1e-12 * scale
        assert psd_certificate(diff).ok

    def test_p3_holds_trial_suite(self):
        for seed in range(200):
            mats = pd_tuple(seed, 3, 2)
            assert psd_certificate(supermodularity_difference(*mats, 3)).ok

    def test_first_argument_is_distinguished(self):
        a, b, c = pd_tuple(7, 3, 2)
        same = supermodularity_difference(a, c, b, 3)
        swapped = supermodularity_difference(b, a, c, 3)
        assert np.array_equal(supermodularity_difference(a, b, c, 3).array, same.array)
        assert not np.allclose(supermodularity_difference(a, b, c, 3).array, swapped.array)


class TestSuperadditivity:
    def test_two_matrices_holds(self):
        mats = pd_tuple(8, 2, 2)
        for p in (1, 2, 3, 4):
            assert psd_certificate(superadditivity_difference(mats, p)).ok

    def test_needs_two(self):
        with pytest.raises(InputError):
            superadditivity_difference(pd_tuple(8, 1, 2), 2)


class TestAlternating:
    def test_n3_equals_hlawka3_exactly(self):
        mats = pd_tuple(9, 3, 2)
        a = alternating_difference(mats, 3)
        b = hlawka3_difference(*mats, 3)
        assert np.array_equal(a.array, b.array)

    def test_p1_zero_any_n(self):
        for n in (3, 4, 5):
            mats = pd_tuple(10 + n, n, 2)
            assert inf_norm(alternating_difference(mats, 1)) <= 1e-10 * input_scale(mats)

    def test_n4_p3_trial_suite(self):
        for seed in range(100):
            mats = pd_tuple(seed, 4, 2)
            assert psd_certificate(alternating_difference(mats, 3)).ok

    def test_needs_three(self):
        with pytest.raises(InputError):
            alternating_difference(pd_tuple(11, 2, 2), 2)


class TestPopPairs:
    def test_p1_p2_zero(self):
        mats = pd_tuple(12, 4, 2)
        assert inf_norm(pop_pairs_difference(mats, 1)) <= 1e-10 * input_scale(mats)
        assert inf_norm(pop_pairs_difference(mats, 2)) <= 1e-10 * input_scale(mats) ** 2

    def test_n4_p3_trial_suite(self):
        for seed in range(100):
            mats = pd_tuple(seed, 4, 2)
            assert psd_certificate(pop_pairs_difference(mats, 3)).ok

    def test_equals_pop_subsets_m2_exactly(self):
        mats = pd_tuple(13, 5, 2)
        a = pop_pairs_difference(mats, 3)
        b = pop_subsets_difference(mats, 2, 3)
        assert np.array_equal(a.array, b.array)

    def test_accepts_a_one_shot_iterator(self):
        mats = pd_tuple(14, 4, 2)
        a = pop_pairs_difference(iter(mats), 3)
        assert a.array.tobytes() == pop_pairs_difference(mats, 3).array.tobytes()


class TestPopSubsets:
    def test_p1_zero(self):
        for n, m in ((4, 2), (4, 3), (5, 3), (5, 4)):
            mats = pd_tuple(14 + n + m, n, 2)
            assert inf_norm(pop_subsets_difference(mats, m, 1)) <= 1e-10 * input_scale(mats)

    def test_verdict_recorded_n5_m3_p2(self):
        # No proof is assumed; the certificate is simply recorded.
        mats = pd_tuple(15, 5, 2)
        cert = psd_certificate(pop_subsets_difference(mats, 3, 2))
        assert cert.verdict in (Verdict.HOLDS, Verdict.EQUALITY, Verdict.FAILS)

    def test_parameter_range(self):
        mats = pd_tuple(16, 4, 2)
        for bad_m in (1, 4, 5):
            with pytest.raises(InputError):
                pop_subsets_difference(mats, bad_m, 2)


class TestPopLevels:
    def test_p1_zero(self):
        mats = pd_tuple(17, 4, 2)
        diff = pop_levels_difference(mats, 1, 2, 3, 1)
        assert inf_norm(diff) <= 1e-10 * input_scale(mats)

    def test_n3_is_hlawka_over_three(self):
        # (k, ell, m) = (1, 2, 3) at n=3 has all coefficients 1/3.
        mats = pd_tuple(18, 3, 2)
        levels = pop_levels_difference(mats, 1, 2, 3, 3)
        hlawka = hlawka3_difference(*mats, 3)
        scale = np.abs(hlawka.array).max()
        assert np.abs(3.0 * levels.array - hlawka.array).max() <= 1e-12 * scale

    def test_n4_p3_holds(self):
        for seed in range(50):
            mats = pd_tuple(seed, 4, 2)
            assert psd_certificate(pop_levels_difference(mats, 1, 2, 3, 3)).ok

    def test_parameter_range(self):
        mats = pd_tuple(19, 4, 2)
        for bad in ((2, 2, 3), (0, 1, 2), (1, 3, 2), (1, 2, 5)):
            with pytest.raises(InputError):
                pop_levels_difference(mats, *bad, 2)


class TestSharedProperties:
    @pytest.mark.parametrize("family,params", [
        (OperatorFamily.ALTERNATING, TensorSumParams(n=4, p=2)),
        (OperatorFamily.POP_PAIRS, TensorSumParams(n=4, p=2)),
        (OperatorFamily.POP_SUBSETS, TensorSumParams(n=4, p=2, m=3)),
        (OperatorFamily.POP_LEVELS, TensorSumParams(n=4, p=2, k=1, ell=2, m=3)),
        (OperatorFamily.SUPERADD, TensorSumParams(n=4, p=2)),
        (OperatorFamily.HLAWKA3, TensorSumParams(n=3, p=3)),
    ])
    def test_permutation_invariance_exact(self, family, params, rng):
        mats = pd_tuple(23, params.n, 2)
        base = build_difference(family, mats, params)
        for _ in range(4):
            shuffled = [mats[i] for i in rng.permutation(params.n)]
            again = build_difference(family, shuffled, params)
            assert np.array_equal(base.array, again.array)

    @pytest.mark.parametrize("t", [0.3, 1.7, 6.0])
    def test_homogeneity(self, t):
        # Tested where the difference is genuinely nonzero (p >= n for the
        # alternating family; its p < n differences vanish identically).
        mats = pd_tuple(24, 4, 2)
        for builder, p in ((alternating_difference, 4), (pop_pairs_difference, 3)):
            base = builder(mats, p)
            scaled = builder([t * m for m in mats], p)
            expect = (t**p) * base.array
            scale = max(1.0, np.abs(expect).max())
            assert np.abs(scaled.array - expect).max() <= 1e-10 * scale

    @pytest.mark.parametrize("family,params", [
        (OperatorFamily.HLAWKA3, TensorSumParams(n=3, p=3)),
        (OperatorFamily.SUPERMOD, TensorSumParams(n=3, p=3)),
        (OperatorFamily.ALTERNATING, TensorSumParams(n=5, p=2)),
        (OperatorFamily.POP_LEVELS, TensorSumParams(n=4, p=2, k=1, ell=3, m=4)),
    ])
    def test_output_exactly_hermitian(self, family, params):
        mats = pd_tuple(25, params.n, 3)
        out = build_difference(family, mats, params)
        assert np.array_equal(out.array, out.array.conj().T)

    def test_mixed_dimensions_rejected(self):
        mats = pd_tuple(26, 2, 2) + pd_tuple(26, 1, 3)
        with pytest.raises(InputError):
            alternating_difference(mats, 2)

    def test_budget_propagates(self):
        mats = pd_tuple(27, 3, 4)
        with pytest.raises(BudgetError):
            alternating_difference(mats, 2, max_dim=8)

    def test_psd_inputs_accepted(self):
        # Singular PSD inputs are fine: inequalities are closed under limits.
        rank1 = HermitianMatrix(np.outer([1.0, 1.0], [1.0, 1.0]))
        mats = [rank1, rank1, HermitianMatrix.identity(2)]
        cert = psd_certificate(hlawka3_difference(*mats, 3))
        assert cert.ok


def subsets(n: int, size: int) -> list:
    return list(combinations(range(n), size))


#: Each family's statement as (LHS levels, RHS levels), a level being
#: (weight, index subsets), written from the README table and the module
#: docstring of ``hlawka.sums``.
STATEMENTS = {
    "superadd": lambda n, **_: ([(1, subsets(n, n))], [(1, subsets(n, 1))]),
    "hlawka3": lambda n, **_: ([(1, [(0, 1, 2)]), (1, subsets(3, 1))], [(1, subsets(3, 2))]),
    "supermod": lambda n, **_: ([(1, [(0, 1, 2), (0,)])], [(1, [(0, 1), (0, 2)])]),
    "alternating": lambda n, **_: ([(1, subsets(n, j)) for j in range(n, 0, -2)],
                                   [(1, subsets(n, j)) for j in range(n - 1, 0, -2)]),
    "pop-pairs": lambda n, **_: ([(n - 2, subsets(n, 1)), (1, subsets(n, n))],
                                 [(1, subsets(n, 2))]),
    "pop-subsets": lambda n, m, **_: (
        [(comb(n - 2, m - 1), subsets(n, 1)), (comb(n - 2, m - 2), subsets(n, n))],
        [(1, subsets(n, m))]),
    "pop-levels": lambda n, k, ell, m: (
        [(Fraction(m - ell, k * comb(n, k)), subsets(n, k)),
         (Fraction(ell - k, m * comb(n, m)), subsets(n, m))],
        [(Fraction(m - k, ell * comb(n, ell)), subsets(n, ell))]),
}

WRAPPERS = {
    "superadd": lambda mats, p, **_: superadditivity_difference(mats, p),
    "hlawka3": lambda mats, p, **_: hlawka3_difference(*mats, p),
    "supermod": lambda mats, p, **_: supermodularity_difference(*mats, p),
    "alternating": lambda mats, p, **_: alternating_difference(mats, p),
    "pop-pairs": lambda mats, p, **_: pop_pairs_difference(mats, p),
    "pop-subsets": lambda mats, p, m, **_: pop_subsets_difference(mats, m, p),
    "pop-levels": lambda mats, p, k, ell, m: pop_levels_difference(mats, k, ell, m, p),
}


def pairwise(terms):
    """The pairwise sum restated: blocks of 2^j terms from the left, largest
    first, each summed as a perfect binary tree; then the blocks summed
    starting from the last."""
    terms = list(terms)
    blocks, start = [], 0
    for j in reversed(range(len(terms).bit_length())):
        if len(terms) >> j & 1:
            block = terms[start:start + 2**j]
            start += 2**j
            while len(block) > 1:
                block = [block[i] + block[i + 1] for i in range(0, len(block), 2)]
            blocks.append(block[0])
    total = blocks[-1]
    for block in reversed(blocks[:-1]):
        total = total + block
    return total


def oracle(family: str, mats, p: int, **levels) -> np.ndarray:
    """LHS - RHS in canonical order: a left-associated np.kron power of each
    subset sum, pairwise sums within and across levels, and integer weights
    over one common denominator divided out at the end."""
    fixed = 1 if family == "supermod" else 0
    ordered = mats[:fixed] + sorted(mats[fixed:], key=lambda m: m.digest)
    arrays = [m.array for m in ordered]
    lhs, rhs = STATEMENTS[family](len(mats), **levels)
    den = lcm(*(Fraction(w).denominator for w, _ in lhs + rhs))

    def side(side_levels):
        sums = []
        for weight, subs in side_levels:
            total = pairwise(reduce(np.kron, [pairwise(arrays[i] for i in s)] * p) for s in subs)
            w = int(Fraction(weight) * den)
            sums.append(total if w == 1 else w * total)
        return pairwise(sums)

    diff = side(lhs) - side(rhs)
    return diff if den == 1 else diff / den


ORACLE_CASES = [
    ("superadd", 4, 3, {}),
    ("hlawka3", 3, 3, {}),
    ("supermod", 3, 3, {}),
    ("alternating", 5, 4, {}),
    ("alternating", 7, 3, {}),  # four LHS levels: their grouping decides the bits
    ("pop-pairs", 4, 3, {}),
    ("pop-subsets", 5, 3, {"m": 3}),
    ("pop-levels", 4, 3, {"k": 1, "ell": 2, "m": 3}),  # denominator 12
    ("pop-levels", 5, 2, {"k": 2, "ell": 3, "m": 5}),
]


class TestAgainstStatementOracle:
    @pytest.mark.parametrize("family, n, p, levels", ORACLE_CASES,
                             ids=[f"{c[0]}-n{c[1]}" for c in ORACLE_CASES])
    def test_single_inputs(self, family, n, p, levels):
        for seed in range(3):
            mats = pd_tuple(40 + seed, n, 2)
            expected = oracle(family, mats, p, **levels).tobytes()
            assert WRAPPERS[family](mats, p, **levels).array.tobytes() == expected
            out = build_difference(OperatorFamily(family), mats, TensorSumParams(n=n, p=p, **levels))
            assert out.array.tobytes() == expected

    @pytest.mark.parametrize("family, n, p, levels", ORACLE_CASES,
                             ids=[f"{c[0]}-n{c[1]}" for c in ORACLE_CASES])
    def test_stacked_inputs(self, family, n, p, levels):
        trials = [pd_tuple(derive_seed(50, t), n, 2, 100.0) for t in range(4)]
        parts = [stack_of([mats[i] for mats in trials]) for i in range(n)]
        out = build_difference(OperatorFamily(family), parts, TensorSumParams(n=n, p=p, **levels))
        for t, mats in enumerate(trials):
            assert out[t].array.tobytes() == oracle(family, mats, p, **levels).tobytes()
