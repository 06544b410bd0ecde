"""Generalized matrix functions, the permanent oracle, scalar corollaries."""

import itertools
import math
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest

from conftest import pd_tuple, random_hermitian, stack_of

from hlawka import matfunc
from hlawka.errors import BudgetError, InputError
from hlawka.matfunc import (
    determinant_via_elimination,
    elementary_symmetric_det,
    generalized_matrix_function,
    parse_character_selector,
    permanent_oracle,
    scalar_inequality_check,
)
from hlawka.linalg import HermitianMatrix, HermitianStack, random_pd
from hlawka.scalar import suite_terms
from hlawka.symgroup import CharacterSpec, GroupSpec, enumerate_group, partitions_of


def random_complex(rng, m):
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


class TestAgainstDeterminant:
    def test_sign_character_matches_elimination(self, rng):
        for m in (2, 3, 4, 5):
            group = GroupSpec.full_symmetric(m)
            for _ in range(50):
                x = random_complex(rng, m)
                d = generalized_matrix_function(x, group, CharacterSpec.sign())
                det = determinant_via_elimination(x)
                assert abs(d - det) <= 1e-10 * max(1.0, abs(det))

    def test_trivial_character_matches_permanent_oracle(self, rng):
        for m in (2, 3, 4, 5):
            group = GroupSpec.full_symmetric(m)
            for _ in range(50):
                x = random_complex(rng, m)
                d = generalized_matrix_function(x, group, CharacterSpec.trivial())
                perm = permanent_oracle(x)
                assert abs(d - perm) <= 1e-10 * max(1.0, abs(perm))

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_degrees_six_to_eight_agree_within_the_forward_error_scale(self, m, rng):
        # The column-set blocks that matter start at m = 6 (S_8 has 70 sets
        # of 24 x 24).  Each route's rounding error is a multiple of u times
        # the scale perm(|X|) = sum_sigma |prod_i X[i, sigma(i)]|, the
        # multiple growing with the terms it sums: m! products here, 2^m
        # products of m row sums in Ryser's, ~m^3 steps in elimination.  The
        # bound is m * 2^m * u * perm(|X|); the worst difference seen is 4.6 u
        # perm(|X|).
        group = GroupSpec.full_symmetric(m)
        bound = m * 2**m * 2.0**-53
        for _ in range(10):
            x = random_complex(rng, m)
            scale = permanent_oracle(np.abs(x)).real
            det = generalized_matrix_function(x, group, CharacterSpec.sign())
            perm = generalized_matrix_function(x, group, CharacterSpec.trivial())
            assert abs(det - determinant_via_elimination(x)) <= bound * scale
            assert abs(perm - permanent_oracle(x)) <= bound * scale


class TestPermanentOracle:
    def test_identity(self):
        for m in (1, 2, 5, 8):
            assert permanent_oracle(np.eye(m)) == pytest.approx(1.0)

    def test_all_ones(self):
        for m in (2, 3, 4, 6):
            assert permanent_oracle(np.ones((m, m))).real == pytest.approx(math.factorial(m))

    def test_five_by_five_cross_check(self, rng):
        x = random_complex(rng, 5)
        d = generalized_matrix_function(x, GroupSpec.full_symmetric(5), CharacterSpec.trivial())
        assert abs(permanent_oracle(x) - d) <= 1e-10 * abs(d)

    def test_budget(self):
        with pytest.raises(BudgetError):
            permanent_oracle(np.eye(13))

    def test_brute_force_small(self, rng):
        # Independent O(m!) enumeration for m = 3.
        from itertools import permutations

        x = random_complex(rng, 3)
        brute = sum(x[0, p[0]] * x[1, p[1]] * x[2, p[2]] for p in permutations(range(3)))
        assert abs(permanent_oracle(x) - brute) <= 1e-12 * abs(brute)


class TestImmanants:
    def test_standard_immanant_of_identity(self):
        # Only the identity permutation contributes, so the value is the
        # character degree: 2 for the (2,1) label.
        value = generalized_matrix_function(
            np.eye(3), GroupSpec.full_symmetric(3), CharacterSpec.from_partition((2, 1))
        )
        assert value == pytest.approx(2.0)

    def test_all_ones_permanent_value(self):
        value = generalized_matrix_function(
            np.ones((3, 3)), GroupSpec.full_symmetric(3), CharacterSpec.trivial()
        )
        assert value.real == pytest.approx(6.0)

    def test_psd_inputs_give_nonnegative_reals(self):
        for dim in (3, 4):
            for seed in range(25):
                x = random_pd(dim, (seed,), 30.0)[0]
                for lam in partitions_of(dim):
                    value = generalized_matrix_function(
                        x, GroupSpec.full_symmetric(dim), CharacterSpec.from_partition(lam)
                    )
                    scale = max(1.0, abs(value))
                    assert abs(value.imag) <= 1e-10 * scale
                    assert value.real >= -1e-10 * scale

    def test_partition_character_needs_full_group(self):
        group = GroupSpec.explicit([(0, 1, 2), (1, 0, 2)])
        with pytest.raises(InputError):
            generalized_matrix_function(np.eye(3), group, CharacterSpec.from_partition((2, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            generalized_matrix_function(np.eye(4), GroupSpec.full_symmetric(3), CharacterSpec.sign())

    def test_degree_budget(self):
        with pytest.raises(BudgetError):
            generalized_matrix_function(np.eye(9), GroupSpec.full_symmetric(9), CharacterSpec.sign())

    def test_table_character_on_explicit_group(self, tmp_path):
        # Sign character of the order-2 group {id, (0 1)}.
        group = GroupSpec.explicit([(0, 1, 2), (1, 0, 2)])
        chi = CharacterSpec.from_table([1.0, -1.0])
        x = np.diag([2.0, 3.0, 5.0]).astype(complex)
        value = generalized_matrix_function(x, group, chi)
        # d(X) = prod(diag) * 1 + chi((01)) * x01 x10 x22 = 30 - 0
        assert value == pytest.approx(30.0)


class TestBlocks:
    #: A group and character of degree 4 each: S_4 under three characters,
    #: and a table character of the Klein four-group.
    CASES = {
        "det": (GroupSpec.full_symmetric(4), CharacterSpec.sign()),
        "perm": (GroupSpec.full_symmetric(4), CharacterSpec.trivial()),
        "partition": (GroupSpec.full_symmetric(4), CharacterSpec.from_partition((2, 1, 1))),
        "table": (GroupSpec.explicit([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]),
                  CharacterSpec.from_table([1.0, -1.0, 1.0, -1.0])),
    }

    @staticmethod
    def matrix_bytes(group, chi) -> int:
        """The kernel's estimate of a matrix's share of a block: two float64
        words per matrix entry and the zero entry, per prefix slot and per
        suffix slot, and five per node of the widest level of the walks."""
        halves, weights = matfunc._group_data(group, chi)
        sets, prefix_slots, suffix_slots = weights.shape
        widest = max(flat.size for levels in halves for _, flat in levels)
        return 8 * (2 * (group.degree ** 2 + 1) + 2 * sets * (prefix_slots + suffix_slots)
                    + 5 * widest)

    @classmethod
    def five_matrices(cls, group, chi) -> int:
        """A budget of five matrices by the kernel's estimate, with its 512
        words of fixed overhead."""
        return 8 * 512 + 5 * cls.matrix_bytes(group, chi)

    @pytest.mark.parametrize("name", CASES)
    def test_stacks_around_a_block_equal_each_matrix(self, name, monkeypatch):
        # Blocks of 5 matrices, counted by the half walks, one per half and
        # block: stacks of 4, 5, 6 and 11 run in 1, 1, 2 and 3 blocks.
        group, chi = self.CASES[name]
        monkeypatch.setattr(matfunc, "BLOCK_BYTES", self.five_matrices(group, chi))
        walks = []

        def counted(*args):
            walks.append(args[1].shape[-1])  # the block's matrices
            return walk(*args)

        walk = matfunc._walk
        monkeypatch.setattr(matfunc, "_walk", counted)
        rng = np.random.default_rng(41)
        for count, blocks in ((4, [4]), (5, [5]), (6, [5, 1]), (11, [5, 5, 1])):
            mats = [random_hermitian(rng, 4) for _ in range(count)]
            walks.clear()
            got = generalized_matrix_function(stack_of(mats), group, chi)
            assert walks == [size for size in blocks for _ in range(2)]
            assert got.dtype == np.complex128 and got.shape == (count,)
            for value, mat in zip(got, mats):
                one = generalized_matrix_function(mat, group, chi)
                assert value.tobytes() == np.complex128(one).tobytes()

    @staticmethod
    def traced_peaks(stacks, group, chi) -> list[int]:
        peaks = []
        for stack in stacks:
            tracemalloc.start()
            try:
                generalized_matrix_function(stack, group, chi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_a_stack_holds_one_block_at_a_time(self, monkeypatch):
        # 400 determinants of S_4 in blocks of 5 hold about 13 KB at once,
        # the output's 6.4 KB included, where in one block they hold 386 KB;
        # 800 hold no more, but for the larger output.  A warm run at the
        # measured block size caches the group's tables and fills numpy's
        # cache of small freed buffers, which is kept after a call and would
        # count once against a cold process, by how much depending on what
        # ran before.
        group, chi = self.CASES["det"]
        rng = np.random.default_rng(3)
        mats = [random_hermitian(rng, 4) for _ in range(800)]
        stacks = stack_of(mats[:400]), stack_of(mats)
        monkeypatch.setattr(matfunc, "BLOCK_BYTES", self.five_matrices(group, chi))
        generalized_matrix_function(stacks[1], group, chi)
        few, many = self.traced_peaks(stacks, group, chi)
        assert few < matfunc.BLOCK_BYTES + 400 * 16  # the blocks' budget and the output
        assert many <= few + 400 * 16

    def test_a_big_group_block_holds_four_matrices(self, monkeypatch):
        # big-group's S_8 matrices under (4,2,1,1) run four to a block at
        # the default BLOCK_BYTES, and a block holds less than the budget.
        group, chi = parse_character_selector("partition=4,2,1,1", 8)
        rng = np.random.default_rng(7)
        stack = stack_of([random_hermitian(rng, 8) for _ in range(8)])
        generalized_matrix_function(stack, group, chi)  # the group's tables, cached
        assert (matfunc.BLOCK_BYTES - 8 * 512) // self.matrix_bytes(group, chi) == 4
        (peak,) = self.traced_peaks([stack], group, chi)
        assert peak < matfunc.BLOCK_BYTES + 8 * 16
        walks = []

        def counted(*args):
            walks.append(args[1].shape[-1])
            return walk(*args)

        walk = matfunc._walk
        monkeypatch.setattr(matfunc, "_walk", counted)
        generalized_matrix_function(stack, group, chi)
        assert walks == [4, 4, 4, 4]

    @staticmethod
    def doubled(k: int) -> GroupSpec:
        """S_k acting as sigma + sigma on 2k letters: every element maps the
        first k letters onto themselves, so there is one column set, of k!
        prefix and k! suffix slots, and W_A is diagonal."""
        return GroupSpec.explicit([(*p, *(k + i for i in p))
                                   for p in itertools.permutations(range(k))])

    def test_a_sparse_weight_table_within_the_budget_runs(self, rng):
        # S_5 doubled: W is 120 x 120, 115 KB, with 120 weights.  d is the
        # permanent of X[i, j] * X[5 + i, 5 + j].
        group = self.doubled(5)
        _, weights = matfunc._group_data(group, CharacterSpec.trivial())
        assert weights.shape == (1, 120, 120) and np.count_nonzero(weights) == 120
        mats = [random_hermitian(rng, 10) for _ in range(3)]
        got = generalized_matrix_function(stack_of(mats), group, CharacterSpec.trivial())
        for value, mat in zip(got, mats):
            x = mat.array
            expected = permanent_oracle(x[:5, :5] * x[5:, 5:])
            scale = permanent_oracle(np.abs(x[:5, :5] * x[5:, 5:])).real
            assert abs(value - expected) <= 5 * 2**5 * 2.0**-53 * scale
            one = generalized_matrix_function(mat, group, CharacterSpec.trivial())
            assert value.tobytes() == np.complex128(one).tobytes()

    @pytest.mark.parametrize("k, size", [(6, 4147200), (7, 203212800)])
    def test_a_sparse_weight_table_is_refused_before_it_is_allocated(self, k, size):
        # S_k doubled has k! weights in a k! x k! W: 4.1 MB at k = 6, 203 MB
        # at k = 7 (13 GB at k = 8), over BLOCK_BYTES and over four float64
        # words per weight.  The call refuses it having held under 4 MB.
        group = self.doubled(k)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=f"^column-set weights of {size} bytes "
                               f"for a support of {math.factorial(k)} elements exceed "
                               f"budget {matfunc.BLOCK_BYTES}$"):
                generalized_matrix_function(np.eye(2 * k, dtype=complex), group,
                                            CharacterSpec.trivial())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("name", CASES)
    def test_an_empty_stack_gives_an_empty_complex_array(self, name):
        group, chi = self.CASES[name]
        empty = HermitianStack._wrap_exact(np.zeros((0, 4, 4)))
        got = generalized_matrix_function(empty, group, chi)
        assert got.dtype == np.complex128 and got.shape == (0,)
        with pytest.raises(InputError, match="does not match group degree"):
            generalized_matrix_function(HermitianStack._wrap_exact(np.zeros((0, 3, 3))), group, chi)
        assert scalar_inequality_check("hlawka3", [empty] * 3, group, chi) == []


class TestElementarySymmetricDet:
    def test_full_subset(self):
        mats = pd_tuple(31, 3, 3)
        total = mats[0] + mats[1] + mats[2]
        expected = np.linalg.det(total.array).real
        assert elementary_symmetric_det(mats, 3) == pytest.approx(expected, rel=1e-10)

    def test_singletons(self):
        mats = pd_tuple(32, 4, 2)
        expected = sum(np.linalg.det(m.array).real for m in mats)
        assert elementary_symmetric_det(mats, 1) == pytest.approx(expected, rel=1e-10)

    def test_one_dimensional_alternating_sum_vanishes(self):
        ones = [HermitianMatrix([[1.0]])] * 3
        s1 = elementary_symmetric_det(ones, 1)
        s2 = elementary_symmetric_det(ones, 2)
        s3 = elementary_symmetric_det(ones, 3)
        assert (s3, s2, s1) == (3.0, 6.0, 3.0)
        assert s3 + s1 - s2 == 0.0

    def test_parameter_range(self):
        mats = pd_tuple(33, 3, 2)
        with pytest.raises(InputError):
            elementary_symmetric_det(mats, 0)
        with pytest.raises(InputError):
            elementary_symmetric_det(mats, 4)


class TestScalarInequalityCheck:
    def test_dim1_linear_equality(self):
        ones = [HermitianMatrix([[1.0]])] * 3
        res = scalar_inequality_check(
            "hlawka3",
            ones,
            GroupSpec.full_symmetric(1),
            CharacterSpec.sign(),
        )
        assert (res.lhs, res.rhs, res.margin) == (6.0, 6.0, 0.0)
        assert res.holds

    def test_det_hlawka_trial_suite(self):
        group = GroupSpec.full_symmetric(3)
        for seed in range(100):
            mats = pd_tuple(seed, 3, 3)
            res = scalar_inequality_check(
                "hlawka3", mats, group, CharacterSpec.sign()
            )
            assert res.holds, f"seed {seed}: margin {res.margin}"

    def test_alternating_det_matches_subset_determinant_route(self):
        # Two routes to the same alternating sum: the d-image of the
        # family terms, and direct subset-sum determinants.
        group = GroupSpec.full_symmetric(2)
        for seed in range(20):
            mats = pd_tuple(seed, 4, 2)
            res = scalar_inequality_check(
                "alternating", mats,
                group, CharacterSpec.sign(),
            )
            s = {k: elementary_symmetric_det(mats, k) for k in (1, 2, 3, 4)}
            margin_direct = (s[4] + s[2]) - (s[3] + s[1])
            assert res.margin == pytest.approx(margin_direct, abs=1e-10 * res.scale)

    def test_alternating_det_n4_trial_suite(self):
        group = GroupSpec.full_symmetric(2)
        for seed in range(100):
            mats = pd_tuple(seed, 4, 2)
            res = scalar_inequality_check(
                "alternating", mats,
                group, CharacterSpec.sign(),
            )
            assert res.margin >= -1e-10 * res.scale

    def test_permanent_pop_pairs_suite(self):
        group = GroupSpec.full_symmetric(2)
        for seed in range(50):
            mats = pd_tuple(seed, 4, 2)
            res = scalar_inequality_check(
                "pop-pairs", mats,
                group, CharacterSpec.trivial(),
            )
            assert res.holds

    @pytest.mark.parametrize("family, n, levels, char", [
        ("hlawka3", 3, {}, "det"),
        ("alternating", 5, {}, "perm"),
        ("pop-levels", 5, {"k": 1, "ell": 3, "m": 5}, "partition=2,1"),
    ])
    def test_each_subset_summed_in_input_order(self, family, n, levels, char):
        # The per-subset route: each term's inputs added left to right in
        # input order, its own d, and each side one fsum.
        group, chi = parse_character_selector(char, 3)
        for seed in range(20):
            mats = pd_tuple(seed, n, 3)
            res = scalar_inequality_check(family, mats, group, chi, **levels)
            lhs, rhs = (math.fsum(c * generalized_matrix_function(
                reduce(add, (mats[i].array for i in s)), group, chi).real for c, s in side)
                for side in suite_terms(family, n, *map(levels.get, ("k", "ell", "m"))))
            assert (res.lhs, res.rhs) == (lhs, rhs)

    @pytest.mark.parametrize("family", ["popoviciu", "no-such-family"])
    def test_only_operator_families_are_accepted(self, family):
        # "popoviciu" is a convex/norm suite: its mean-rule terms are not
        # an operator family's.
        with pytest.raises(InputError, match=r"^unknown operator family .*'hlawka3'"):
            scalar_inequality_check(family, pd_tuple(35, 3, 2), GroupSpec.full_symmetric(2),
                                    CharacterSpec.sign())

    def test_group_degree_must_match(self):
        mats = pd_tuple(34, 3, 3)
        with pytest.raises(InputError):
            scalar_inequality_check(
                "hlawka3", mats,
                GroupSpec.full_symmetric(2), CharacterSpec.sign(),
            )


class TestSelectors:
    def test_det_perm_partition(self):
        group, chi = parse_character_selector("det", 3)
        assert chi.kind.value == "SIGN"
        group, chi = parse_character_selector("perm", 3)
        assert chi.kind.value == "TRIVIAL"
        group, chi = parse_character_selector("partition=2,1", 3)
        assert chi.partition == (2, 1)

    def test_errors(self):
        with pytest.raises(InputError):
            parse_character_selector("partition=2,2", 3)
        with pytest.raises(InputError):
            parse_character_selector("spectral", 3)
