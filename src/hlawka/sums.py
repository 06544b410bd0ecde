"""Builders for tensor-sum inequality differences.

Every function here assembles LHS - RHS of one operator inequality family
as a single :class:`~hlawka.linalg.HermitianMatrix`, ready for Loewner
certification.  Given :class:`~hlawka.linalg.HermitianStack` inputs (matrix
``i`` of every trial in stack ``i``), it builds every trial's difference at
once and returns them as a stack, bit for bit the per-trial results.  The
families:

* ``superadd``:    (A1+...+An)^op  >=  sum_i Ai^op
* ``hlawka3``:     (A+B+C)^op + A^op + B^op + C^op  >=  sum of pair powers
* ``supermod``:    (A+B+C)^op + A^op  >=  (A+B)^op + (A+C)^op
* ``alternating``: S_n + S_{n-2} + ...  >=  S_{n-1} + S_{n-3} + ...
* ``pop-pairs``:   (n-2) sum Ai^op + (sum Ai)^op  >=  sum of pair powers
* ``pop-subsets``: binomially weighted version over size-m subsets
* ``pop-levels``:  rationally weighted three-level comparison

where X^op denotes the p-fold Kronecker power and S_k the sum of such
powers over all size-k subset sums.

Determinism: inputs are first canonically ordered by content hash (trial
by trial for stacks), then subsets are enumerated lexicographically and
accumulated with pairwise (tree) summation.  Shuffling the input list
therefore cannot change a single bit of the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_MAX_TENSOR_DIM, HermitianMatrix, HermitianStack, check_tensor_budget
from .linalg import _kron_power as _power


class OperatorFamily(Enum):
    """Catalog of the inequality difference builders."""

    HLAWKA3 = "hlawka3"
    SUPERMOD = "supermod"
    SUPERADD = "superadd"
    ALTERNATING = "alternating"
    POP_PAIRS = "pop-pairs"
    POP_SUBSETS = "pop-subsets"
    POP_LEVELS = "pop-levels"


#: Families whose inequality is established for every p; a FAILS verdict on
#: these is a genuine violation.
PROVEN_FAMILIES = frozenset(
    {
        OperatorFamily.HLAWKA3,
        OperatorFamily.SUPERMOD,
        OperatorFamily.SUPERADD,
        OperatorFamily.ALTERNATING,
        OperatorFamily.POP_PAIRS,
    }
)

#: Families checked empirically only; margins are reported, never assumed.
EMPIRICAL_FAMILIES = frozenset({OperatorFamily.POP_SUBSETS, OperatorFamily.POP_LEVELS})


@dataclass(frozen=True)
class TensorSumParams:
    """Parameters selecting one instance of a difference family."""

    n: int
    p: int
    k: int | None = None
    ell: int | None = None
    m: int | None = None


def _canonical_arrays(mats, *, keep_first_fixed: bool = False) -> list[np.ndarray]:
    hs = [m if isinstance(m, (HermitianMatrix, HermitianStack)) else HermitianMatrix(m)
          for m in mats]
    if not hs:
        raise InputError("need at least one matrix")
    dim = hs[0].dim
    if any(h.dim != dim for h in hs):
        raise InputError("all matrices must share one dimension")
    first = 1 if keep_first_fixed else 0
    if any(isinstance(h, HermitianStack) for h in hs):
        return _canonical_stacks(hs, first)
    return [h.array for h in hs[:first] + sorted(hs[first:], key=lambda h: h.digest)]


def _canonical_stacks(hs: list, first: int) -> list[np.ndarray]:
    # Sort each trial's matrices by their own digests, then gather every
    # position into one contiguous (trials, dim, dim) array.
    if not all(isinstance(h, HermitianStack) and len(h) == len(hs[0]) for h in hs):
        raise InputError("stacked inputs must all be stacks of one length")
    keys = list(zip(*(h.digests for h in hs)))
    order = np.array(
        [list(range(first)) + sorted(range(first, len(hs)), key=k.__getitem__) for k in keys],
        dtype=np.intp,
    ).reshape(len(keys), len(hs))
    stacked = np.stack([h.array for h in hs])
    trial = np.arange(len(keys))
    return [stacked[order[:, i], trial] for i in range(len(hs))]


def _wrap(arr: np.ndarray):
    if arr.ndim == 3:
        return HermitianStack._wrap_exact(arr)
    return HermitianMatrix._wrap_exact(arr)


def _pairwise_sum(terms) -> np.ndarray:
    # Binary-counter pairwise accumulation: deterministic for a fixed term
    # order and keeps at most log2(#terms) partial sums alive.
    stack: list[tuple[int, np.ndarray]] = []
    for term in terms:
        level = 0
        while stack and stack[-1][0] == level:
            _, prev = stack.pop()
            term = prev + term
            level += 1
        stack.append((level, term))
    if not stack:
        raise InputError("empty term sequence")
    acc = None
    for _, part in reversed(stack):
        acc = part if acc is None else acc + part
    return acc


def _subset_power_sum(arrays: list[np.ndarray], k: int, p: int) -> np.ndarray:
    n = len(arrays)
    return _pairwise_sum(
        _power(_pairwise_sum(arrays[i] for i in idx), p)
        for idx in combinations(range(n), k)
    )


def _check_params(n: int, p: int, dim: int, max_dim: int) -> None:
    if p < 1:
        raise InputError("tensor power p must be >= 1")
    check_tensor_budget(dim, p, max_dim)
    if n < 1:
        raise InputError("need at least one matrix")


def symmetric_tensor_sum(
    mats, k: int, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """Sum of p-fold Kronecker powers of all size-k subset sums."""
    arrays = _canonical_arrays(mats)
    n = len(arrays)
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= {n}, got {k}")
    _check_params(n, p, arrays[0].shape[-1], max_dim)
    return _wrap(_subset_power_sum(arrays, k, p))


def alternating_difference(
    mats, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """S_n + S_{n-2} + ...  minus  S_{n-1} + S_{n-3} + ... at power p.

    For p < n the result is identically zero up to rounding: the
    alternating subset sum is an n-th order finite difference, which
    annihilates the degree-p power map.  Strict positivity needs p >= n.
    """
    arrays = _canonical_arrays(mats)
    n = len(arrays)
    if n < 3:
        raise InputError(f"alternating difference needs n >= 3, got {n}")
    _check_params(n, p, arrays[0].shape[-1], max_dim)
    lhs = _pairwise_sum(_subset_power_sum(arrays, j, p) for j in range(n, 0, -2))
    rhs = _pairwise_sum(_subset_power_sum(arrays, j, p) for j in range(n - 1, 0, -2))
    return _wrap(lhs - rhs)


def hlawka3_difference(
    a, b, c, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """(A+B+C)^op + A^op + B^op + C^op - pair powers; the n=3 alternating case."""
    return alternating_difference([a, b, c], p, max_dim)


def supermodularity_difference(
    a, b, c, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """(A+B+C)^op + A^op - (A+B)^op - (A+C)^op; the first matrix is special."""
    arrays = _canonical_arrays([a, b, c], keep_first_fixed=True)
    _check_params(3, p, arrays[0].shape[-1], max_dim)
    aa, bb, cc = arrays
    total = _power(aa + bb + cc, p) + _power(aa, p)
    pairs = _power(aa + bb, p) + _power(aa + cc, p)
    return _wrap(total - pairs)


def superadditivity_difference(
    mats, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """(A1+...+An)^op - (A1^op + ... + An^op) for n >= 2."""
    arrays = _canonical_arrays(mats)
    n = len(arrays)
    if n < 2:
        raise InputError(f"superadditivity needs n >= 2, got {n}")
    _check_params(n, p, arrays[0].shape[-1], max_dim)
    total = _power(_pairwise_sum(iter(arrays)), p)
    parts = _pairwise_sum(_power(arr, p) for arr in arrays)
    return _wrap(total - parts)


def pop_subsets_difference(
    mats, m: int, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """C(n-2,m-1) sum Ai^op + C(n-2,m-2) (sum Ai)^op - size-m subset powers."""
    arrays = _canonical_arrays(mats)
    n = len(arrays)
    if not 2 <= m < n:
        raise InputError(f"need 2 <= m < n, got m={m}, n={n}")
    _check_params(n, p, arrays[0].shape[-1], max_dim)
    c_single = comb(n - 2, m - 1)
    c_total = comb(n - 2, m - 2)
    singles = _subset_power_sum(arrays, 1, p)
    total = _power(_pairwise_sum(iter(arrays)), p)
    subsets = _subset_power_sum(arrays, m, p)
    return _wrap(c_single * singles + c_total * total - subsets)


def pop_pairs_difference(
    mats, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """(n-2) sum Ai^op + (sum Ai)^op - pair powers; the m=2 subset case."""
    mats = list(mats)
    if len(mats) < 3:
        raise InputError("pop-pairs needs n >= 3")
    return pop_subsets_difference(mats, 2, p, max_dim)


def pop_levels_difference(
    mats, k: int, ell: int, m: int, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """Three-level comparison of symmetric tensor sums.

    ((m-ell)/(k C(n,k))) S_k + ((ell-k)/(m C(n,m))) S_m
      - ((m-k)/(ell C(n,ell))) S_ell

    The rational coefficients are brought to a common denominator in exact
    integer arithmetic, applied as integer weights, and the denominator is
    divided out once at the end.
    """
    arrays = _canonical_arrays(mats)
    n = len(arrays)
    if not 1 <= k < ell < m <= n:
        raise InputError(f"need 1 <= k < ell < m <= n, got ({k}, {ell}, {m}), n={n}")
    _check_params(n, p, arrays[0].shape[-1], max_dim)
    c_low = Fraction(m - ell, k * comb(n, k))
    c_high = Fraction(ell - k, m * comb(n, m))
    c_mid = Fraction(m - k, ell * comb(n, ell))
    den = lcm(c_low.denominator, c_high.denominator, c_mid.denominator)
    w_low = int(c_low * den)
    w_high = int(c_high * den)
    w_mid = int(c_mid * den)
    s_low = _subset_power_sum(arrays, k, p)
    s_high = _subset_power_sum(arrays, m, p)
    s_mid = _subset_power_sum(arrays, ell, p)
    combined = w_low * s_low + w_high * s_high - w_mid * s_mid
    return _wrap(combined / den)


def build_difference(
    family: OperatorFamily,
    mats,
    params: TensorSumParams,
    max_dim: int = DEFAULT_MAX_TENSOR_DIM,
) -> HermitianMatrix:
    """Dispatch to the family's builder, validating its parameter shape."""
    mats = list(mats)
    p = params.p
    if family is OperatorFamily.HLAWKA3:
        if len(mats) != 3:
            raise InputError("hlawka3 takes exactly three matrices")
        return hlawka3_difference(*mats, p, max_dim)
    if family is OperatorFamily.SUPERMOD:
        if len(mats) != 3:
            raise InputError("supermod takes exactly three matrices")
        return supermodularity_difference(*mats, p, max_dim)
    if family is OperatorFamily.SUPERADD:
        return superadditivity_difference(mats, p, max_dim)
    if family is OperatorFamily.ALTERNATING:
        return alternating_difference(mats, p, max_dim)
    if family is OperatorFamily.POP_PAIRS:
        return pop_pairs_difference(mats, p, max_dim)
    if family is OperatorFamily.POP_SUBSETS:
        if params.m is None:
            raise InputError("pop-subsets requires the subset size m")
        return pop_subsets_difference(mats, params.m, p, max_dim)
    if family is OperatorFamily.POP_LEVELS:
        if params.k is None or params.ell is None or params.m is None:
            raise InputError("pop-levels requires k, ell, and m")
        return pop_levels_difference(mats, params.k, params.ell, params.m, p, max_dim)
    raise InputError(f"unknown family {family}")
