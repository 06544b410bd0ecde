"""Partitions, permutation groups, Murnaghan-Nakayama characters."""

import itertools
import math

import numpy as np
import pytest

from hlawka import symgroup
from hlawka.errors import BudgetError, InputError
from hlawka.symgroup import (
    CharacterSpec,
    GroupSpec,
    _class_codes,
    character_values,
    class_size,
    cycle_type,
    enumerate_group,
    load_character_table,
    mn_character,
    partitions_of,
    permutation_sign,
    save_character_table,
    validate_partition,
)


class TestPermutations:
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
        assert (elems.dtype, elems.shape) == (np.intp, (6, 3))
        assert elems.tolist() == [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]

    def test_degree_guard(self):
        with pytest.raises(BudgetError):
            enumerate_group(GroupSpec.full_symmetric(9))

    def test_degree_guard_names_no_order_it_cannot_print(self):
        # 2000! has more digits than Python converts an int to text.
        with pytest.raises(BudgetError, match=r"^S_2000 has 2000! elements; the guard allows "):
            enumerate_group(GroupSpec.full_symmetric(2000))

    def test_explicit_transposition_group(self):
        elems = enumerate_group(GroupSpec.explicit([(0, 1, 2), (1, 0, 2)]))
        assert (elems.dtype, elems.tolist()) == (np.intp, [[0, 1, 2], [1, 0, 2]])

    def test_explicit_rows_are_sorted_and_distinct(self):
        elems = enumerate_group(GroupSpec.explicit([(1, 0, 2), (0, 1, 2), (1, 0, 2)]))
        assert elems.tolist() == [[0, 1, 2], [1, 0, 2]]

    def test_explicit_closure_violation(self):
        # A 3-cycle without its inverse is not closed.
        with pytest.raises(InputError, match=r"^explicit group is not closed under inverse: "
                                             r"\(1, 2, 0\)$"):
            enumerate_group(GroupSpec.explicit([(0, 1, 2), (1, 2, 0)]))

    @pytest.mark.parametrize("degree", [3, 17])
    def test_explicit_composition_violation(self, degree):
        # Two transpositions, each its own inverse, without their product;
        # at degree 17 the row codes outgrow int64.
        rest = tuple(range(3, degree))
        with pytest.raises(InputError, match=r"^explicit group is not closed under composition$"):
            enumerate_group(GroupSpec.explicit([(0, 1, 2, *rest), (1, 0, 2, *rest),
                                                (0, 2, 1, *rest)]))

    def test_explicit_missing_identity(self):
        with pytest.raises(InputError, match=r"^explicit group does not contain the identity$"):
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


def cyclic_product(degree, *cycles):
    """The direct product of the cyclic groups the disjoint ``cycles``
    generate, as image tuples on ``degree`` letters."""
    elements = []
    for powers in itertools.product(*(range(len(c)) for c in cycles)):
        p = list(range(degree))
        for cycle, k in zip(cycles, powers):
            for i, letter in enumerate(cycle):
                p[letter] = cycle[(i + k) % len(cycle)]
        elements.append(tuple(p))
    return elements


EXPLICIT_SUBGROUPS = {
    "C3xC2": cyclic_product(5, (0, 1, 2), (3, 4)),
    "S4 on 17 letters": [p + tuple(range(4, 17)) for p in itertools.permutations(range(4))],
    "C6xC4xC3xC2 on 17 letters": cyclic_product(17, tuple(range(6)), (6, 7, 8, 9),
                                                (10, 11, 12), (13, 14)),
    "C9xC8 on 17 letters": cyclic_product(17, tuple(range(9)), tuple(range(9, 17))),
}


class TestClassPass:
    """Characters formed once per conjugacy class, against the per-element
    Murnaghan-Nakayama value and sign of every element."""

    @staticmethod
    def check_full_symmetric(m, partitions):
        group = GroupSpec.full_symmetric(m)
        elements = list(itertools.permutations(range(m)))
        rows = enumerate_group(group)
        assert rows.dtype == np.intp and rows.tolist() == [list(p) for p in elements]
        types = [cycle_type(p) for p in elements]
        for lam in partitions:
            by_type = {t: mn_character(lam, t) for t in set(types)}
            values = character_values(group, CharacterSpec.from_partition(lam), rows)
            assert values.dtype == np.complex128
            assert values.tolist() == [by_type[t] for t in types], lam
        signs = character_values(group, CharacterSpec.sign(), rows)
        assert signs.tolist() == [permutation_sign(p) for p in elements]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_character_of_s_m_on_every_element(self, m):
        self.check_full_symmetric(m, list(partitions_of(m)))

    def test_s_8_on_every_element(self):
        self.check_full_symmetric(8, [(4, 2, 1, 1), (8,), (1,) * 8, (3, 3, 2)])

    @pytest.mark.parametrize("name", EXPLICIT_SUBGROUPS)
    def test_explicit_subgroup_classes_and_signs(self, name):
        # 17 moved letters take both codes past int64 (17**17, 18**17 > 2**63).
        elements = sorted(EXPLICIT_SUBGROUPS[name])
        group = GroupSpec.explicit(elements)
        rows = enumerate_group(group)
        assert rows.tolist() == [list(p) for p in elements]
        signs = character_values(group, CharacterSpec.sign(), rows)
        assert signs.tolist() == [permutation_sign(p) for p in elements]
        codes = _class_codes(rows)
        types = [cycle_type(p) for p in elements]
        for i, j in itertools.combinations(range(len(elements)), 2):
            assert (codes[i] == codes[j]) == (types[i] == types[j])


    def test_padded_s_6_keeps_int64_codes(self, monkeypatch):
        # Only the 6 moved letters are coded; all 17 took Python-int codes
        # and about 20 times as long.
        elements = [p + tuple(range(6, 17)) for p in itertools.permutations(range(6))]
        dtypes, codes = [], symgroup._codes

        def spy(*args):
            out = codes(*args)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(symgroup, "_codes", spy)
        group = GroupSpec.explicit(elements)
        rows = enumerate_group(group)
        assert rows.tolist() == [list(p) for p in elements]
        signs = character_values(group, CharacterSpec.sign(), rows)
        assert signs.tolist() == [permutation_sign(p) for p in elements]
        assert dtypes and set(dtypes) == {np.dtype(np.int64)}


class TestCharacterTableFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        elems = [(0, 1, 2), (1, 0, 2)]
        save_character_table(path, elems, [1.0, -1.0])
        group, chi = load_character_table(path)
        assert enumerate_group(group).tolist() == [list(p) for p in elems]
        assert chi.table == (1.0 + 0j, -1.0 + 0j)

    def test_rejects_bad_identity_value(self, tmp_path):
        path = tmp_path / "bad.json"
        save_character_table(path, [(0, 1), (1, 0)], [-1.0, 1.0])
        group, chi = load_character_table(path)
        with pytest.raises(InputError):
            character_values(group, chi, enumerate_group(group))

    def test_rejects_oversized_values(self, tmp_path):
        path = tmp_path / "big.json"
        save_character_table(path, [(0, 1), (1, 0)], [1.0, 3.0])
        group, chi = load_character_table(path)
        with pytest.raises(InputError):
            character_values(group, chi, enumerate_group(group))
