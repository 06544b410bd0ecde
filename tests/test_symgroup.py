"""Partitions, permutation groups, Murnaghan-Nakayama characters."""

import math

import pytest

from hlawka.errors import BudgetError, InputError
from hlawka.symgroup import (
    GroupSpec,
    class_size,
    compose,
    cycle_type,
    enumerate_group,
    inverse,
    load_character_table,
    mn_character,
    partitions_of,
    permutation_sign,
    save_character_table,
    validate_partition,
)


class TestPermutations:
    def test_compose_and_inverse(self):
        p = (1, 2, 0)
        q = (0, 2, 1)
        assert compose(p, q) == (1, 0, 2)
        assert compose(p, inverse(p)) == (0, 1, 2)

    def test_cycle_type(self):
        # (0 1 2)(3 4) as an image tuple
        assert cycle_type((1, 2, 0, 4, 3)) == (3, 2)
        assert cycle_type((0, 1, 2)) == (1, 1, 1)

    def test_sign(self):
        assert permutation_sign((0, 1, 2)) == 1
        assert permutation_sign((1, 0, 2)) == -1
        assert permutation_sign((1, 2, 0)) == 1


class TestPartitions:
    def test_validation(self):
        assert validate_partition([3, 2, 2]) == (3, 2, 2)
        with pytest.raises(InputError):
            validate_partition([2, 3])
        with pytest.raises(InputError):
            validate_partition([2, 0])
        with pytest.raises(InputError):
            validate_partition([])

    def test_counts(self):
        # Partition numbers p(1..8) = 1, 2, 3, 5, 7, 11, 15, 22
        expected = [1, 2, 3, 5, 7, 11, 15, 22]
        for m, count in zip(range(1, 9), expected):
            assert len(list(partitions_of(m))) == count

    def test_class_sizes_sum_to_group_order(self):
        for m in range(1, 7):
            assert sum(class_size(mu) for mu in partitions_of(m)) == math.factorial(m)


class TestEnumerateGroup:
    def test_full_symmetric_3(self):
        elems = enumerate_group(GroupSpec.full_symmetric(3))
        assert len(elems) == 6
        assert elems[0] == (0, 1, 2)
        assert elems == sorted(elems)

    def test_degree_guard(self):
        with pytest.raises(BudgetError):
            enumerate_group(GroupSpec.full_symmetric(9))

    def test_degree_guard_names_no_order_it_cannot_print(self):
        # 2000! has more digits than Python converts an int to text.
        with pytest.raises(BudgetError, match=r"^S_2000 has 2000! elements; the guard allows "):
            enumerate_group(GroupSpec.full_symmetric(2000))

    def test_explicit_transposition_group(self):
        elems = enumerate_group(GroupSpec.explicit([(0, 1, 2), (1, 0, 2)]))
        assert elems == [(0, 1, 2), (1, 0, 2)]

    def test_explicit_closure_violation(self):
        # A 3-cycle without its inverse is not closed.
        with pytest.raises(InputError):
            enumerate_group(GroupSpec.explicit([(0, 1, 2), (1, 2, 0)]))

    def test_explicit_missing_identity(self):
        with pytest.raises(InputError):
            enumerate_group(GroupSpec.explicit([(1, 0, 2)]))

    def test_explicit_cyclic_group(self):
        c3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert len(enumerate_group(GroupSpec.explicit(c3))) == 3


class TestMnCharacter:
    def test_trivial_partition_is_constant_one(self):
        for m in range(1, 7):
            for mu in partitions_of(m):
                assert mn_character((m,), mu) == 1

    def test_column_partition_is_sign(self):
        for m in range(1, 7):
            ones = tuple([1] * m)
            for mu in partitions_of(m):
                assert mn_character(ones, mu) == (-1) ** (m - len(mu))

    def test_standard_character_of_s3(self):
        values = {mu: mn_character((2, 1), mu) for mu in partitions_of(3)}
        assert values[(1, 1, 1)] == 2
        assert values[(2, 1)] == 0
        assert values[(3,)] == -1
        # Stated oracle: sum over classes of |class| * chi^2 = |S_3|
        assert sum(class_size(mu) * v * v for mu, v in values.items()) == 6

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_orthogonality_exact(self, m):
        parts = list(partitions_of(m))
        order = math.factorial(m)
        for lam1 in parts:
            for lam2 in parts:
                inner = sum(
                    class_size(mu) * mn_character(lam1, mu) * mn_character(lam2, mu)
                    for mu in parts
                )
                assert inner == (order if lam1 == lam2 else 0)

    def test_dimension_via_identity_class(self):
        # chi(id) is the representation dimension; hook lengths give
        # dim (2,1) = 2, dim (2,2) = 2, dim (3,1) = 3.
        assert mn_character((2, 1), (1, 1, 1)) == 2
        assert mn_character((2, 2), (1, 1, 1, 1)) == 2
        assert mn_character((3, 1), (1, 1, 1, 1)) == 3

    def test_sign_matches_permutation_sign(self):
        for p in enumerate_group(GroupSpec.full_symmetric(4)):
            assert mn_character((1, 1, 1, 1), cycle_type(p)) == permutation_sign(p)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            mn_character((2, 1), (2, 2))


class TestCharacterTableFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        elems = [(0, 1, 2), (1, 0, 2)]
        save_character_table(path, elems, [1.0, -1.0])
        group, chi = load_character_table(path)
        assert enumerate_group(group) == elems
        assert chi.table == (1.0 + 0j, -1.0 + 0j)

    def test_rejects_bad_identity_value(self, tmp_path):
        path = tmp_path / "bad.json"
        save_character_table(path, [(0, 1), (1, 0)], [-1.0, 1.0])
        from hlawka.symgroup import character_values

        group, chi = load_character_table(path)
        with pytest.raises(InputError):
            character_values(group, chi, enumerate_group(group))

    def test_rejects_oversized_values(self, tmp_path):
        path = tmp_path / "big.json"
        save_character_table(path, [(0, 1), (1, 0)], [1.0, 3.0])
        from hlawka.symgroup import character_values

        group, chi = load_character_table(path)
        with pytest.raises(InputError):
            character_values(group, chi, enumerate_group(group))
