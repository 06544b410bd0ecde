"""The difference builder: equality cases, exact identities, trial suites."""

import dataclasses
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb, lcm

import numpy as np
import pytest

from conftest import input_scale, pd_tuple, stack_of

from hlawka.errors import BudgetError, InputError
from hlawka import sums
from hlawka.linalg import HermitianMatrix, Verdict, _kron, psd_certificate, random_pd
from hlawka.sums import FAMILIES, build_difference, symmetric_tensor_sum
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
        for k in (0, 4):
            # The same message as a family's.
            with pytest.raises(InputError, match=rf"^symmetric_tensor_sum needs 1 <= k <= n, "
                                                 rf"got n=3, k={k}$"):
                symmetric_tensor_sum(mats, k, 1)

    def test_budget(self):
        mats = pd_tuple(4, 3, 4)
        with pytest.raises(BudgetError):
            symmetric_tensor_sum(mats, 2, 2, max_dim=8)


class TestHlawka3:
    def test_p1_zero(self):
        for seed in range(10):
            mats = pd_tuple(seed, 3, 3)
            diff = build_difference("hlawka3", mats, 1)
            assert inf_norm(diff) <= 1e-10 * input_scale(mats)

    def test_p2_zero(self):
        for seed in range(10):
            mats = pd_tuple(100 + seed, 3, 3)
            diff = build_difference("hlawka3", mats, 2)
            assert inf_norm(diff) <= 1e-10 * input_scale(mats) ** 2

    def test_p3_holds_trial_suite(self):
        for seed in range(200):
            mats = pd_tuple(seed, 3, 2)
            cert = psd_certificate(build_difference("hlawka3", mats, 3))
            assert cert.ok, f"seed {seed}: min eig {cert.min_eigenvalue}"

    def test_supermod_holds_whenever_hlawka_holds(self):
        for seed in range(100):
            mats = pd_tuple(seed, 3, 2)
            h = psd_certificate(build_difference("hlawka3", mats, 4))
            s = psd_certificate(build_difference("supermod", mats, 4))
            if h.ok:
                assert s.ok


class TestSupermodularity:
    def test_p1_zero(self):
        mats = pd_tuple(5, 3, 3)
        assert inf_norm(build_difference("supermod", mats, 1)) <= 1e-10 * input_scale(mats)

    def test_p2_expansion(self):
        # (A+B+C)^2 + A^2 - (A+B)^2 - (A+C)^2 telescopes to BC + CB.
        a, b, c = pd_tuple(6, 3, 2)
        diff = build_difference("supermod", [a, b, c], 2)
        expected = np.kron(b.array, c.array) + np.kron(c.array, b.array)
        scale = np.abs(expected).max()
        assert np.abs(diff.array - expected).max() <= 1e-12 * scale
        assert psd_certificate(diff).ok

    def test_p3_holds_trial_suite(self):
        for seed in range(200):
            mats = pd_tuple(seed, 3, 2)
            assert psd_certificate(build_difference("supermod", mats, 3)).ok

    def test_first_argument_is_distinguished(self):
        a, b, c = pd_tuple(7, 3, 2)
        same = build_difference("supermod", [a, c, b], 3)
        swapped = build_difference("supermod", [b, a, c], 3)
        assert np.array_equal(build_difference("supermod", [a, b, c], 3).array, same.array)
        assert not np.allclose(build_difference("supermod", [a, b, c], 3).array, swapped.array)


class TestSuperadditivity:
    def test_two_matrices_holds(self):
        mats = pd_tuple(8, 2, 2)
        for p in (1, 2, 3, 4):
            assert psd_certificate(build_difference("superadd", mats, p)).ok

    def test_needs_two(self):
        with pytest.raises(InputError):
            build_difference("superadd", pd_tuple(8, 1, 2), 2)


class TestAlternating:
    def test_n3_equals_hlawka3_exactly(self):
        mats = pd_tuple(9, 3, 2)
        a = build_difference("alternating", mats, 3)
        b = build_difference("hlawka3", mats, 3)
        assert np.array_equal(a.array, b.array)

    def test_p1_zero_any_n(self):
        for n in (3, 4, 5):
            mats = pd_tuple(10 + n, n, 2)
            assert inf_norm(build_difference("alternating", mats, 1)) <= 1e-10 * input_scale(mats)

    def test_n4_p3_trial_suite(self):
        for seed in range(100):
            mats = pd_tuple(seed, 4, 2)
            assert psd_certificate(build_difference("alternating", mats, 3)).ok

    def test_needs_three(self):
        with pytest.raises(InputError):
            build_difference("alternating", pd_tuple(11, 2, 2), 2)


class TestPopPairs:
    def test_p1_p2_zero(self):
        mats = pd_tuple(12, 4, 2)
        assert inf_norm(build_difference("pop-pairs", mats, 1)) <= 1e-10 * input_scale(mats)
        assert inf_norm(build_difference("pop-pairs", mats, 2)) <= 1e-10 * input_scale(mats) ** 2

    def test_n4_p3_trial_suite(self):
        for seed in range(100):
            mats = pd_tuple(seed, 4, 2)
            assert psd_certificate(build_difference("pop-pairs", mats, 3)).ok

    def test_equals_pop_subsets_m2_exactly(self):
        mats = pd_tuple(13, 5, 2)
        a = build_difference("pop-pairs", mats, 3)
        b = build_difference("pop-subsets", mats, 3, m=2)
        assert np.array_equal(a.array, b.array)

    def test_accepts_a_one_shot_iterator(self):
        mats = pd_tuple(14, 4, 2)
        a = build_difference("pop-pairs", iter(mats), 3)
        assert a.array.tobytes() == build_difference("pop-pairs", mats, 3).array.tobytes()


class TestPopSubsets:
    def test_p1_zero(self):
        for n, m in ((4, 2), (4, 3), (5, 3), (5, 4)):
            mats = pd_tuple(14 + n + m, n, 2)
            diff = build_difference("pop-subsets", mats, 1, m=m)
            assert inf_norm(diff) <= 1e-10 * input_scale(mats)

    def test_verdict_recorded_n5_m3_p2(self):
        # No proof is assumed; the certificate is simply recorded.
        mats = pd_tuple(15, 5, 2)
        cert = psd_certificate(build_difference("pop-subsets", mats, 2, m=3))
        assert cert.verdict in (Verdict.HOLDS, Verdict.EQUALITY, Verdict.FAILS)

    def test_parameter_range(self):
        mats = pd_tuple(16, 4, 2)
        for bad_m in (1, 4, 5):
            with pytest.raises(InputError):
                build_difference("pop-subsets", mats, 2, m=bad_m)


class TestPopLevels:
    def test_p1_zero(self):
        mats = pd_tuple(17, 4, 2)
        diff = build_difference("pop-levels", mats, 1, k=1, ell=2, m=3)
        assert inf_norm(diff) <= 1e-10 * input_scale(mats)

    def test_n3_is_hlawka_over_three(self):
        # (k, ell, m) = (1, 2, 3) at n=3 has all coefficients 1/3.
        mats = pd_tuple(18, 3, 2)
        levels = build_difference("pop-levels", mats, 3, k=1, ell=2, m=3)
        hlawka = build_difference("hlawka3", mats, 3)
        scale = np.abs(hlawka.array).max()
        assert np.abs(3.0 * levels.array - hlawka.array).max() <= 1e-12 * scale

    def test_n4_p3_holds(self):
        for seed in range(50):
            mats = pd_tuple(seed, 4, 2)
            assert psd_certificate(build_difference("pop-levels", mats, 3, k=1, ell=2, m=3)).ok

    def test_parameter_range(self):
        mats = pd_tuple(19, 4, 2)
        for bad in ((2, 2, 3), (0, 1, 2), (1, 3, 2), (1, 2, 5)):
            with pytest.raises(InputError):
                build_difference("pop-levels", mats, 2, **dict(zip(("k", "ell", "m"), bad)))


class TestSharedProperties:
    @pytest.mark.parametrize("family,n,p,levels", [
        ("alternating", 4, 2, {}),
        ("pop-pairs", 4, 2, {}),
        ("pop-subsets", 4, 2, {"m": 3}),
        ("pop-levels", 4, 2, {"k": 1, "ell": 2, "m": 3}),
        ("superadd", 4, 2, {}),
        ("hlawka3", 3, 3, {}),
    ])
    def test_permutation_invariance_exact(self, family, n, p, levels, rng):
        mats = pd_tuple(23, n, 2)
        base = build_difference(family, mats, p, **levels)
        for _ in range(4):
            shuffled = [mats[i] for i in rng.permutation(n)]
            again = build_difference(family, shuffled, p, **levels)
            assert np.array_equal(base.array, again.array)

    @pytest.mark.parametrize("t", [0.3, 1.7, 6.0])
    def test_homogeneity(self, t):
        # Tested where the difference is genuinely nonzero (p >= n for the
        # alternating family; its p < n differences vanish identically).
        mats = pd_tuple(24, 4, 2)
        for family, p in (("alternating", 4), ("pop-pairs", 3)):
            base = build_difference(family, mats, p)
            scaled = build_difference(family, [t * m for m in mats], p)
            expect = (t**p) * base.array
            scale = max(1.0, np.abs(expect).max())
            assert np.abs(scaled.array - expect).max() <= 1e-10 * scale

    @pytest.mark.parametrize("family,n,p,levels", [
        ("hlawka3", 3, 3, {}),
        ("supermod", 3, 3, {}),
        ("alternating", 5, 2, {}),
        ("pop-levels", 4, 2, {"k": 1, "ell": 3, "m": 4}),
    ])
    def test_output_exactly_hermitian(self, family, n, p, levels):
        mats = pd_tuple(25, n, 3)
        out = build_difference(family, mats, p, **levels)
        assert np.array_equal(out.array, out.array.conj().T)

    @pytest.mark.parametrize("family", ["popoviciu", "no-such-family"])
    def test_only_operator_families_are_accepted(self, family):
        # "popoviciu" names a convex/norm suite of the same table, not an
        # operator family.
        with pytest.raises(InputError, match=r"^unknown operator family .*'hlawka3'"):
            build_difference(family, pd_tuple(28, 3, 2), 3)

    def test_mixed_dimensions_rejected(self):
        mats = pd_tuple(26, 2, 2) + pd_tuple(26, 1, 3)
        with pytest.raises(InputError):
            build_difference("alternating", mats, 2)

    def test_budget_propagates(self):
        mats = pd_tuple(27, 3, 4)
        with pytest.raises(BudgetError):
            build_difference("alternating", mats, 2, max_dim=8)

    def test_subset_budget_counts_each_level_before_listing_it(self, monkeypatch):
        # C(40, 20) subsets would not fit in memory; the count refuses first.
        with pytest.raises(BudgetError, match=r"C\(40, 36\) = 91390 exceeds budget 65536"):
            build_difference("alternating", pd_tuple(29, 40, 2), 1)
        monkeypatch.setattr(sums, "MAX_LEVEL_SUBSETS", 10)
        sums._plan.cache_clear()  # a plan cached before the budget fell
        assert len(sums._level(5, 2).subsets) == 10
        with pytest.raises(BudgetError, match=r"C\(6, 2\) = 15 exceeds budget 10"):
            symmetric_tensor_sum(pd_tuple(29, 6, 2), 2, 1)

    def test_build_peaks_below_five_outputs(self):
        # numpy reports its buffers to tracemalloc.  The subset route
        # peaked at 5.00 outputs here, and per-set products batched into
        # one stacked product per input at 5.44; the word sum held 3.25
        # outputs in its workspace with a full-row product, and 2.75 with
        # its last row formed in pieces, which peaks at 3.01 with numpy's
        # iterator buffers of the earlier steps' products.
        mats = pd_tuple(30, 3, 2)
        build_difference("hlawka3", mats, 8)  # plan cached outside the count
        tracemalloc.start()
        try:
            out = build_difference("hlawka3", mats, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.05 * out.array.nbytes

    def test_bits_do_not_depend_on_how_rows_are_stacked(self, monkeypatch):
        # A 1-byte budget forms every row of the DP one entry of the row
        # before it at a time: a piece never falls to zero entries.
        mats = pd_tuple(34, 5, 2)
        for family, p, levels in (("alternating", 5, {}), ("superadd", 4, {}),
                                  ("pop-levels", 4, {"k": 1, "ell": 2, "m": 3})):
            stacked = build_difference(family, mats, p, **levels).array
            monkeypatch.setattr(sums, "BLOCK_BYTES", 1)
            assert sums._fit(1, 1) == 1
            one_row = build_difference(family, mats, p, **levels).array
            monkeypatch.undo()
            assert stacked.tobytes() == one_row.tobytes()
        # 3000 bytes forms in pieces only the rows of steps 3 and 4 at dim 2,
        # of 4^4 and 4^5 entries, from pieces of 187 entries of the rows
        # before them: the last piece of step 4 is short.
        monkeypatch.setattr(sums, "BLOCK_BYTES", 3000)
        assert [sums._pieced(4 ** (k + 1)) for k in range(5)] == [False] * 3 + [True] * 2
        assert sums._fit(1, 1) == 187
        for index, (name, spec, n, levels) in enumerate(LAYOUT_TABLES):
            for count in (1, 3):
                parts = chunk(200 + index, n, 2, count)
                got = build(name, spec, levels, parts, 5).array
                assert (got.shape, got.tobytes()) == standard_bits(name, spec, n, levels, parts, 5)

    def test_psd_inputs_accepted(self):
        # Singular PSD inputs are fine: inequalities are closed under limits.
        rank1 = HermitianMatrix(np.outer([1.0, 1.0], [1.0, 1.0]))
        mats = [rank1, rank1, HermitianMatrix.identity(2)]
        cert = psd_certificate(build_difference("hlawka3", mats, 3))
        assert cert.ok


def standard_word_sum(inputs: np.ndarray, plan: sums._WordPlan, p: int) -> np.ndarray:
    """The support-set DP with every table in the standard layout, the
    oldest letter the most significant tensor factor: ``T (x) A_i`` formed
    as ``np.kron`` orders its products, the same sums in the same order."""
    _, count, dim, _ = inputs.shape
    if not plan.steps:
        return np.zeros((count, dim ** p, dim ** p), dtype=np.complex128)

    def kron_into(out, a, b):
        n, m = a.shape[-1], b.shape[-1]
        np.multiply(a[..., :, None, :, None], b[..., None, :, None, :],
                    out=out.reshape(*out.shape[:-2], n, m, n, m))

    table = np.full((2, count, 1, 1), sums._ABSENT)
    table[0] = 1
    for k, step in enumerate(plan.steps):
        wide = table.shape[-1] * dim
        absent = k + 1 < len(plan.steps) and plan.steps[k + 1].absent
        out = np.empty((step.size + absent, count, wide, wide), dtype=np.complex128)
        if absent:
            out[-1] = sums._ABSENT
        for lo, hi, slots in step.classes:
            for t, (i, a, b) in enumerate(slots):
                x = table[a] + table[b]
                if t == 0:
                    kron_into(out[lo:hi], x, inputs[i])
                else:
                    out[lo:hi] += _kron(x, inputs[i])
        for a, merged in zip(inputs, step.merged):
            if merged is not None:
                first, by_weight = merged
                if first:
                    kron_into(out[step.size - 1], sums._weighted_sum(table, by_weight), a)
                else:
                    out[step.size - 1] += _kron(sums._weighted_sum(table, by_weight), a)
        table = out
    total = table[0]
    if plan.den != 1:
        total /= plan.den
    return total


#: One table per operator family, and S_2 of symmetric_tensor_sum: (name,
#: entry, n, levels).
LAYOUT_TABLES = [
    *((name, FAMILIES[name], n, levels) for name, n, levels in (
        ("hlawka3", 3, {}), ("supermod", 3, {}), ("superadd", 3, {}), ("alternating", 4, {}),
        ("pop-pairs", 4, {}), ("pop-subsets", 4, {"m": 3}),
        ("pop-levels", 4, {"k": 1, "ell": 2, "m": 3}))),
    ("symmetric_tensor_sum", sums._TENSOR_SUM, 3, {"k": 2}),
]


class TestStorageLayout:
    # The DP stores each table letter-major, the newest letter's (row,
    # column) entry outermost, and reverses the digits once at the end.  The
    # trap: numpy's SIMD complex multiply is not commutative bit for bit
    # (u * v and v * u can differ in the last bit), so the stored layout
    # must keep the table as the first operand of every product, as the
    # standard layout's T (x) A_i does.
    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize("dim, p", [(dim, p) for dim in (1, 2, 3) for p in range(1, 7)
                                        if dim ** p <= 800])
    @pytest.mark.parametrize("name, spec, n, levels", LAYOUT_TABLES,
                             ids=[table[0] for table in LAYOUT_TABLES])
    def test_bits_match_the_standard_layout(self, name, spec, n, levels, dim, p, count):
        seeds = tuple(derive_seed(60 + p, i) for i in range(n * count))
        samples = random_pd(dim, seeds)
        parts = [samples[i * count:(i + 1) * count] for i in range(n)]
        got = build(name, spec, levels, parts, p).array
        assert (got.shape, got.tobytes()) == standard_bits(name, spec, n, levels, parts, p)

    def test_a_stored_product_has_the_standard_products_bits(self):
        # Entry for entry, a (x) t as stored letter-major is t (x) a of the
        # standard layout with a's row and column digits first, the table
        # the first operand: standard (t_row, a_row, t_col, a_col) is stored
        # (a_row, a_col, t_row, t_col).
        rng = np.random.default_rng(3)
        t, a = (rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
                for _ in range(2))
        standard = _kron(t, a).reshape(2, 4, 4, 4, 4).transpose(0, 2, 4, 1, 3)
        stored = sums._lead(t, a, np.empty((2, 16, 16), dtype=np.complex128))
        assert stored.tobytes() == np.ascontiguousarray(standard).tobytes()


def standard_bits(name, spec, n, levels, parts, p) -> tuple:
    """The shape and bytes of :func:`standard_word_sum` of a LAYOUT_TABLES
    entry over the stacked inputs ``parts``."""
    size = n * len(parts[0]) * parts[0].dim ** 2
    inputs = sums._canonical_arrays(parts, np.empty(size, dtype=np.complex128),
                                    np.empty(size, dtype=np.complex128),
                                    keep_first_fixed=spec.supermod)
    want = standard_word_sum(inputs, plan_of(name, spec, n, p, levels), p)
    return want.shape, want.tobytes()


def chunk(seed: int, n: int, dim: int, count: int) -> list:
    """The inputs of a chunk of ``count`` seeded trials, input i of every
    trial in stack i."""
    samples = random_pd(dim, tuple(derive_seed(seed, i) for i in range(n * count)))
    return [samples[i * count:(i + 1) * count] for i in range(n)]


def build(name, spec, levels, parts, p, workspace=None):
    """The word sum of a LAYOUT_TABLES entry, in ``workspace`` or in one of
    its own."""
    return sums._build(name, spec, parts, p, 4096, levels.get("k"), levels.get("ell"),
                       levels.get("m"), workspace)


def owner(array: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``array`` views."""
    while array.base is not None:
        array = array.base
    return array


def plan_of(name, spec, n, p, levels):
    return sums._plan(name, spec, n, p, levels.get("k"), levels.get("ell"), levels.get("m"))


class TestWorkspace:
    # One workspace serves every chunk of a run: a build overwrites what the
    # one before it left there, and must read none of it.
    def test_every_reused_build_is_a_fresh_build(self):
        # A full chunk, a short last chunk, then another power or table: the
        # buffers shrink and grow, and the absent, merged and table rows
        # move between builds.
        workspace = sums.Workspace()
        for index, (name, spec, n, levels) in enumerate(LAYOUT_TABLES):
            for p, dim, count in ((4, 2, 9), (4, 2, 2), (2, 3, 5), (5, 2, 1), (4, 1, 4),
                                  (1, 2, 3)):
                parts = chunk(100 * index + 10 * p + count, n, dim, count)
                reused = build(name, spec, levels, parts, p, workspace).array.tobytes()
                assert reused == build(name, spec, levels, parts, p).array.tobytes(), (name, p)

    @pytest.mark.parametrize("family, n, p, count", [("hlawka3", 3, 3, 151),
                                                     ("alternating", 5, 5, 8)])
    def test_a_second_chunk_allocates_no_array(self, family, n, p, count):
        # The full chunks of the benchmark's two verify lines.  numpy's ufunc
        # iterator allocates two buffers of bufsize entries for each
        # broadcast product (256 KiB at the default), and the inputs'
        # digests are Python strings: both are kept out of the count, which
        # any table, gather or product of these chunks exceeds.
        workspace = sums.Workspace()
        build_difference(family, chunk(1, n, 2, count), p, workspace=workspace)
        parts = chunk(2, n, 2, count)
        for part in parts:
            part.digests
        bufsize = np.setbufsize(64)
        tracemalloc.start()
        try:
            build_difference(family, parts, p, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < 16 * 1024

    def test_the_working_set_counts_what_the_workspace_holds(self):
        for name, spec, n, levels in LAYOUT_TABLES:
            for p, dim, count in ((4, 2, 9), (2, 3, 5), (1, 2, 3)):
                workspace = sums.Workspace()
                build(name, spec, levels, chunk(7, n, dim, count), p, workspace)
                held = sum(buffer.nbytes for buffer in workspace._held)
                assert held == 16 * count * plan_of(name, spec, n, p, levels).working_set(dim)

    def test_a_build_peaks_at_its_working_set(self):
        # Everything a build holds is in its workspace, so its traced peak
        # is that count, the iterator buffers and a few kB.
        bufsize = np.setbufsize(64)
        try:
            for name, spec, n, levels in LAYOUT_TABLES:
                held = 16 * 4 * plan_of(name, spec, n, 5, levels).working_set(2)
                build(name, spec, levels, chunk(8, n, 2, 4), 5)
                parts = chunk(9, n, 2, 4)
                tracemalloc.start()
                try:
                    build(name, spec, levels, parts, 5)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert held < peak < held + 16 * 1024
        finally:
            np.setbufsize(bufsize)

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_pieced_build_peaks_at_its_working_set(self, count):
        # At the default budget hlawka3 at dim 2, p 8 forms its last row, of
        # 4^8 entries, in pieces of the row before it: the gather and the
        # product hold 2^14 and 2^15 entries a trial, not 4^7 and 4^8.  Its
        # workspace is the count, and its traced peak is that count, the
        # iterator buffers of the earlier steps and a few kB.
        plan = plan_of("hlawka3", FAMILIES["hlawka3"], 3, 8, {})
        assert [sums._pieced(4 ** (k + 1)) for k in range(8)] == [False] * 7 + [True]
        assert plan.buffers(2)[2:4] == (2**15, 2**14)
        held = 16 * count * plan.working_set(2)
        build_difference("hlawka3", chunk(10, 3, 2, count), 8)
        parts = chunk(11, 3, 2, count)
        for part in parts:
            part.digests
        workspace = sums.Workspace()
        bufsize = np.setbufsize(64)
        tracemalloc.start()
        try:
            build_difference("hlawka3", parts, 8, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert sum(buffer.nbytes for buffer in workspace._held) == held
        assert held < peak < held + 16 * 1024

    @pytest.mark.parametrize("family, n, p", [("hlawka3", 3, 3), ("alternating", 5, 5),
                                              ("pop-pairs", 6, 4), ("pop-pairs", 4, 4)])
    def test_a_difference_holds_only_its_own_bytes(self, family, n, p):
        # pop-pairs keeps a table of step p - 2 larger than the difference:
        # at n 6, p 4 at dim 2, and at n 4, p 4 at dim 1.  Neither a short
        # chunk after a full one nor a library build leaves its difference
        # in a larger buffer once the workspace is dropped.
        for dim in (1, 2):
            workspace = sums.Workspace()
            build_difference(family, chunk(3, n, dim, 9), p, workspace=workspace)
            short = build_difference(family, chunk(4, n, dim, 2), p, workspace=workspace).array
            del workspace
            alone = build_difference(family, chunk(4, n, dim, 2), p).array
            for diff in (short, alone):
                assert owner(diff).nbytes == diff.nbytes == 16 * 2 * dim ** (2 * p)
            assert short.tobytes() == alone.tobytes()

    def test_library_builds_keep_their_differences(self):
        # Built without a workspace, each difference has memory of its own.
        first = build_difference("hlawka3", pd_tuple(40, 3, 2), 3)
        before = first.array.tobytes()
        second = build_difference("hlawka3", pd_tuple(41, 3, 2), 3)
        assert first.array.tobytes() == before != second.array.tobytes()
        assert not np.shares_memory(first.array, second.array)


def exact_subset_route(family: str, mats: list[np.ndarray], p: int, **levels) -> np.ndarray:
    """LHS - RHS times the common denominator, from the statement's subset
    powers in integer arithmetic."""
    lhs, rhs = STATEMENTS[family](len(mats), **levels)
    den = lcm(*(Fraction(w).denominator for w, _ in lhs + rhs))
    return sum(sign * int(Fraction(w) * den) * reduce(np.kron, [sum(mats[i] for i in s)] * p)
               for sign, side in ((1, lhs), (-1, rhs)) for w, subs in side for s in subs)


def comb0(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def plan(family: str, n: int, p: int):
    """The cached support-set DP of a family that reads no level."""
    return sums._plan(family, FAMILIES[family], n, p, None, None, None)


class TestSupportCoefficients:
    @pytest.mark.parametrize("family, n, p, levels", [
        ("superadd", 3, 3, {}), ("hlawka3", 3, 3, {}), ("supermod", 3, 4, {}),
        ("alternating", 4, 4, {}), ("pop-pairs", 4, 3, {}), ("pop-subsets", 5, 3, {"m": 3}),
        ("pop-levels", 4, 3, {"k": 1, "ell": 2, "m": 3}),
    ])
    def test_word_sum_is_the_subset_route_exactly(self, family, n, p, levels):
        # Small integer matrices, exact integer arithmetic: the sum over
        # every word in [n]^p of c(supp w) A_w is LHS - RHS.
        rng = np.random.default_rng(n * 10 + p)
        mats = [rng.integers(-3, 4, (2, 2)).astype(object) for _ in range(n)]
        coeff = sums.support_coefficients(family, n, **levels)
        den = lcm(*(c.denominator for c in coeff.values()))
        words = sum(int(coeff[sum(1 << i for i in set(w))] * den)
                    * reduce(np.kron, [mats[i] for i in w])
                    for w in product(range(n), repeat=p))
        assert np.array_equal(words, exact_subset_route(family, mats, p, **levels))

    @pytest.mark.parametrize("family, n, levels", [
        ("hlawka3", 3, {}), ("alternating", 5, {}), ("pop-pairs", 4, {}),
    ])
    def test_integer_inputs_build_exactly(self, family, n, levels):
        # Every partial sum is an integer below 2**53, so nothing rounds.
        rng = np.random.default_rng(n)
        ints = [rng.integers(-3, 4, (2, 2)) for _ in range(n)]
        mats = [HermitianMatrix((a + a.T).astype(float)) for a in ints]
        exact = exact_subset_route(family, [(a + a.T).astype(object) for a in ints], 5, **levels)
        assert np.array_equal(build_difference(family, mats, 5, **levels).array,
                              exact.astype(complex))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_pascal_identity_for_pop_subsets(self, n):
        for m in range(2, n):
            coeff = sums.support_coefficients("pop-subsets", n, m=m)
            for u, c in coeff.items():
                j = u.bit_count()
                assert c == (0 if j < 3 else comb(n - 2, m - 2) - comb0(n - j, m - j))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_coefficient_is_nonnegative_at_every_accepted_parameter_set(self, family):
        # A level listing every subset of one size adds the same count to
        # every set of a size, so where every level does, one set per size
        # stands for all; otherwise (supermod) every set is read.
        spec = FAMILIES[family]
        for n in range(1, 13):
            choices = [range(1, n + 1) if name in spec.levels else [None]
                       for name in ("k", "ell", "m")]
            for k, ell, m in product(*choices):
                if not spec.valid(n, k, ell, m):
                    continue
                coeff = sums.support_coefficients(family, n, k, ell, m)
                sets = coeff
                if all(set(level.subsets) == set(subsets(n, len(level.subsets[0])))
                       for side in spec.sides(n, k, ell, m) for level in side):
                    sets = [(1 << j) - 1 for j in range(1, n + 1)]
                assert min(coeff[u] for u in sets) >= 0, (n, k, ell, m)

    def test_sets_are_listed_in_ascending_bitmask_order(self):
        coeff = sums.support_coefficients("supermod", 3)
        assert list(coeff) == list(range(1, 8))
        assert {u for u, c in coeff.items() if c} == {0b110, 0b111}

    def test_only_sets_that_can_still_reach_a_nonzero_support_are_kept(self):
        # alternating n 5: c != 0 on the full set only, so at p 5 the sets of
        # size k are all kept at step k, and nothing survives at p < 5.
        assert plan("alternating", 5, 5).live == (1, 5, 10, 10, 5)
        assert plan("alternating", 5, 4).steps == ()
        # hlawka3 p 4: the 3 singletons cannot reach {0, 1, 2} in the last
        # step; the full set is the merged accumulator.
        assert plan("hlawka3", 3, 4).live == (1, 3, 6, 4)

    def test_sets_whose_supports_share_one_coefficient_are_merged(self):
        # superadd: c = 1 on every set of two or more inputs, so the DP keeps
        # the empty set, the n singletons and one merged accumulator.
        superadd = plan("superadd", 40, 4)
        assert superadd.live == (1, 40, 41, 41)
        assert superadd.working_set(2) < 3 * 4 ** 8
        # pop-pairs: c = 1 from three inputs up, 0 below; at the last step
        # the singletons are dropped and the 15 pairs stay apart.
        assert plan("pop-pairs", 6, 4).live == (1, 6, 21, 16)

    def test_coefficients_are_read_on_demand_at_any_n(self):
        coeff = sums.support_coefficients("superadd", 40)
        assert len(coeff) == 2**40 - 1
        assert (coeff[1 << 39], coeff[0b11], coeff[2**40 - 1]) == (0, 1, 1)
        with pytest.raises(KeyError):
            coeff[2**40]

    def test_a_swapped_entry_reports_its_negative_coefficient(self, monkeypatch):
        spec = FAMILIES["pop-pairs"]
        swapped = dataclasses.replace(spec, sides=lambda **values: spec.sides(**values)[::-1])
        monkeypatch.setitem(FAMILIES, "pop-pairs-swapped", swapped)
        coeff = sums.support_coefficients("pop-pairs-swapped", 4)
        assert {u.bit_count(): c for u, c in coeff.items()} == {1: 0, 2: 0, 3: -1, 4: -1}
        # The same word sum builds it: the negation of pop-pairs, bit for bit.
        mats = pd_tuple(31, 4, 2)
        assert np.array_equal(build_difference("pop-pairs-swapped", mats, 3).array,
                              -build_difference("pop-pairs", mats, 3).array)

    @pytest.mark.parametrize("family, n, p, levels", [
        ("superadd", 5, 3, {}), ("pop-pairs", 5, 4, {}), ("pop-subsets", 6, 4, {"m": 4}),
        ("pop-levels", 5, 4, {"k": 1, "ell": 2, "m": 3}), ("supermod", 3, 4, {}),
    ])
    def test_merged_sets_build_exactly(self, family, n, p, levels):
        # Integer inputs, every partial sum an integer below 2**53: the
        # merged accumulator's products are the word sum, bit for bit.
        rng = np.random.default_rng(n * 10 + p)
        ints = [rng.integers(-3, 4, (2, 2)) for _ in range(n)]
        mats = [HermitianMatrix((a + a.T).astype(float)) for a in ints]
        exact = exact_subset_route(family, [(a + a.T).astype(object) for a in ints], p, **levels)
        den = lcm(*(c.denominator for c in sums.support_coefficients(family, n, **levels).values()))
        built = build_difference(family, mats, p, **levels).array
        assert np.array_equal(built * den, exact.astype(complex))


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
    ("alternating", 5, 5, {}),
    ("alternating", 7, 3, {}),  # p < n: no word has a support with c != 0
    ("pop-pairs", 4, 3, {}),
    ("pop-subsets", 5, 3, {"m": 3}),
    ("pop-levels", 4, 3, {"k": 1, "ell": 2, "m": 3}),  # denominator 12
    ("pop-levels", 5, 2, {"k": 2, "ell": 3, "m": 5}),
]


#: Double precision's unit roundoff.
UNIT_ROUNDOFF = 2.0**-53


def forward_error_bound(family: str, mats, p: int, **levels) -> float:
    """``p·N·u·Σ_S |c_S|·‖X_S‖∞^p`` over the terms of the statement, N = d^p:
    a bound on the rounding error of either route, summed, entry by entry.
    Every term's entries are bounded by ``‖X_S‖∞^p``, since
    ``‖A⊗B‖∞ = ‖A‖∞‖B‖∞``, and each entry takes O(p·N) roundings."""
    lhs, rhs = STATEMENTS[family](len(mats), **levels)
    arrays = [m.array for m in mats]
    total = sum(abs(Fraction(weight)) * np.linalg.norm(sum(arrays[i] for i in s), np.inf) ** p
                for weight, subs in lhs + rhs for s in subs)
    return p * mats[0].dim**p * UNIT_ROUNDOFF * float(total)


def smallest_support(family: str, n: int, **levels) -> int:
    """The fewest inputs a word needs for a nonzero coefficient."""
    coeff = sums.support_coefficients(family, n, **levels)
    return min(u.bit_count() for u, c in coeff.items() if c)


def assert_matches_subset_route(out: np.ndarray, family: str, mats, p: int, **levels) -> None:
    """The word sum against the subset route: exactly zero where no word
    has a support with c != 0, else within the forward-error bound."""
    if p < smallest_support(family, len(mats), **levels):
        assert not out.any()
    err = np.abs(out - oracle(family, mats, p, **levels)).max()
    assert err <= forward_error_bound(family, mats, p, **levels)


class TestAgainstStatementOracle:
    @pytest.mark.parametrize("family, n, p, levels", ORACLE_CASES,
                             ids=[f"{c[0]}-n{c[1]}" for c in ORACLE_CASES])
    def test_single_inputs(self, family, n, p, levels):
        for seed in range(3):
            mats = pd_tuple(40 + seed, n, 2)
            out = build_difference(family, mats, p, **levels)
            assert_matches_subset_route(out.array, family, mats, p, **levels)

    @pytest.mark.parametrize("family, n, p, levels", ORACLE_CASES,
                             ids=[f"{c[0]}-n{c[1]}" for c in ORACLE_CASES])
    def test_stacked_inputs(self, family, n, p, levels):
        trials = [pd_tuple(derive_seed(50, t), n, 2, 100.0) for t in range(4)]
        parts = [stack_of([mats[i] for mats in trials]) for i in range(n)]
        out = build_difference(family, parts, p, **levels)
        for t, mats in enumerate(trials):
            single = build_difference(family, mats, p, **levels)
            assert out[t].array.tobytes() == single.array.tobytes()
            assert_matches_subset_route(single.array, family, mats, p, **levels)
