"""Hypothesis-driven invariants that cut across modules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pd_tuple

from hlawka.linalg import HermitianMatrix, parse_matrix, dump_matrix
from hlawka.sums import build_difference
from hlawka.util import derive_seed, derive_seeds

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=0.05, max_value=20.0))
def test_difference_homogeneity(t):
    # Genuinely nonzero differences: alternating at p >= n, pairs at p = 3.
    mats4 = pd_tuple(99, 4, 2)
    for family, p in (("alternating", 4), ("pop-pairs", 3)):
        base = build_difference(family, mats4, p).array
        scaled = build_difference(family, [t * m for m in mats4], p).array
        expect = (t**p) * base
        scale = max(1.0, float(np.abs(expect).max()))
        assert float(np.abs(scaled - expect).max()) <= 1e-10 * scale


def test_alternating_difference_vanishes_below_subset_count():
    # The alternating subset sum is an n-th order finite difference, which
    # annihilates the degree-p power map whenever p < n.  Residuals are
    # pure rounding, so they are bounded relative to the term magnitude.
    for n in (3, 4, 5):
        mats = pd_tuple(200 + n, n, 2)
        term_scale = sum(float(np.abs(m.array).max()) for m in mats) ** max(1, n - 1)
        for p in range(1, n):
            diff = build_difference("alternating", mats, p).array
            assert float(np.abs(diff).max()) <= 1e-12 * max(1.0, term_scale)
        strict = build_difference("alternating", mats, n).array
        assert float(np.abs(strict).max()) > 1e-6


@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=0.05, max_value=20.0))
def test_pop_pairs_positive_scaling_keeps_certificate(s):
    mats = [s * m for m in pd_tuple(98, 4, 2)]
    from hlawka.linalg import psd_certificate

    assert psd_certificate(build_difference("pop-pairs", mats, 3)).ok


@settings(max_examples=100, deadline=None)
@given(values=st.lists(finite_doubles, min_size=8, max_size=8))
def test_matrix_file_round_trip_any_doubles(values):
    arr = np.array(values, dtype=np.float64).reshape(2, 4)[:, :2] + 1j * np.array(
        values, dtype=np.float64
    ).reshape(2, 4)[:, 2:]
    back = parse_matrix(dump_matrix(arr))
    assert back.tobytes() == np.ascontiguousarray(arr, dtype=np.complex128).tobytes()


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=4))
def test_hermitian_symmetrization_idempotent(entries):
    a, b, c, d = entries
    h = HermitianMatrix([[a, complex(b, c)], [complex(b, -c), d]])
    again = HermitianMatrix(h.array)
    assert np.array_equal(h.array, again.array)


def test_derive_seed_no_collisions_and_frozen_values():
    seeds = {derive_seed(12345, i) for i in range(100_000)}
    assert len(seeds) == 100_000
    # The finalizer matches the canonical splitmix64 reference stream...
    from hlawka.util import splitmix64

    assert splitmix64(0) == 0xE220A8397B1DCDAF
    # ...and the derived per-trial values are frozen so trial streams stay
    # reproducible across releases.
    assert derive_seed(0, 0) == 7960286522194355700
    assert derive_seed(0, 1) == 487617019471545679


def test_derive_seed_independent_of_other_draws():
    a = [derive_seed(7, i) for i in range(10)]
    b = [derive_seed(7, i) for i in reversed(range(10))]
    assert a == list(reversed(b))


MASK64 = 2**64 - 1
masters = st.one_of(st.sampled_from([0, MASK64]), st.integers(0, MASK64))
indices = st.one_of(st.sampled_from([0, 2**40 - 1]), st.integers(0, 2**40 - 1))


@settings(max_examples=200, deadline=None)
@given(master=masters, index=indices, more=st.lists(indices, max_size=6))
def test_derive_seeds_is_derive_seed_over_arrays(master, index, more):
    # Both edges of the 64-bit range wrap: uint64 arrays wrap mod 2**64 as
    # the scalar form's masks do, and numpy scalar arithmetic, which warns
    # on wraparound, is kept under errstate.
    got = derive_seeds(master, np.array([index, *more]))
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(master, i) for i in (index, *more)]
    assert int(derive_seeds(master, index)) == derive_seed(master, index)
    grid = derive_seeds(np.array([master, MASK64 - master], dtype=np.uint64)[:, None],
                        np.array([index, 0]))
    assert grid.tolist() == [[derive_seed(m, i) for i in (index, 0)]
                             for m in (master, MASK64 - master)]
