"""The operator inequality families and their tensor-sum differences.

Every family is one entry of :data:`FAMILIES`: its LHS and RHS as levels,
each an exact weight times a list of index subsets, read as
``sum_S weight * F(X_S)`` for the subset sums ``X_S`` and a functor ``F``.
:func:`build_difference` takes ``F`` to be the p-fold Kronecker power and
assembles LHS - RHS as a single :class:`~hlawka.linalg.HermitianMatrix`,
ready for Loewner certification; :func:`hlawka.matfunc.scalar_inequality_check`
takes a generalized matrix function.  Given
:class:`~hlawka.linalg.HermitianStack` inputs (matrix ``i`` of every trial
in stack ``i``), every trial's difference is built at once and returned as
a stack, bit for bit the per-trial results.  The families:

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

from collections.abc import Callable
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


@dataclass(frozen=True)
class TensorSumParams:
    """Parameters selecting one instance of a difference family."""

    n: int
    p: int
    k: int | None = None
    ell: int | None = None
    m: int | None = None


@dataclass(frozen=True)
class Level:
    """``weight`` times the sum of X_S over the index subsets S, where X_S
    is the image (Kronecker power, generalized matrix function) of the
    subset sum of the inputs indexed by S."""

    weight: Fraction
    subsets: tuple[tuple[int, ...], ...]


def _level(n: int, size: int, weight=1) -> Level:
    return Level(Fraction(weight), tuple(combinations(range(n), size)))


def _alternating(n, k, ell, m):
    return ([_level(n, j) for j in range(n, 0, -2)],
            [_level(n, j) for j in range(n - 1, 0, -2)])


def _pop_subsets(n, m):
    return ([_level(n, 1, comb(n - 2, m - 1)), _level(n, n, comb(n - 2, m - 2))],
            [_level(n, m)])


def _pop_levels(n, k, ell, m):
    return ([_level(n, k, Fraction(m - ell, k * comb(n, k))),
             _level(n, m, Fraction(ell - k, m * comb(n, m)))],
            [_level(n, ell, Fraction(m - k, ell * comb(n, ell)))])


@dataclass(frozen=True)
class FamilySpec:
    """One operator family: the sum of the ``lhs`` levels dominates the sum
    of the ``rhs`` levels.

    ``sides(n, k, ell, m)`` gives ``(lhs, rhs)`` for a valid parameter set;
    ``valid`` tests the condition that ``needs`` states.  ``status`` is
    ``proven`` (a violation is a genuine failure) or ``empirical`` (margins
    are reported, never assumed).  ``arity`` is the only tuple size a
    three-matrix family takes; ``supermod`` keeps input 0 in its place.
    """

    status: str
    needs: str
    valid: Callable[..., bool]
    sides: Callable[..., tuple[list[Level], list[Level]]]
    arity: int | None = None
    supermod: bool = False


#: The one definition of every operator family.
FAMILIES = {
    OperatorFamily.HLAWKA3: FamilySpec(
        "proven", "n = 3", lambda n, k, ell, m: n == 3, _alternating, arity=3),
    OperatorFamily.SUPERMOD: FamilySpec(
        "proven", "n = 3", lambda n, k, ell, m: n == 3,
        lambda n, k, ell, m: ([Level(Fraction(1), ((0, 1, 2), (0,)))],
                              [Level(Fraction(1), ((0, 1), (0, 2)))]),
        arity=3, supermod=True),
    OperatorFamily.SUPERADD: FamilySpec(
        "proven", "n >= 2", lambda n, k, ell, m: n >= 2,
        lambda n, k, ell, m: ([_level(n, n)], [_level(n, 1)])),
    OperatorFamily.ALTERNATING: FamilySpec(
        "proven", "n >= 3", lambda n, k, ell, m: n >= 3, _alternating),
    OperatorFamily.POP_PAIRS: FamilySpec(
        "proven", "n >= 3", lambda n, k, ell, m: n >= 3,
        lambda n, k, ell, m: _pop_subsets(n, 2)),
    OperatorFamily.POP_SUBSETS: FamilySpec(
        "empirical", "2 <= m < n", lambda n, k, ell, m: m is not None and 2 <= m < n,
        lambda n, k, ell, m: _pop_subsets(n, m)),
    OperatorFamily.POP_LEVELS: FamilySpec(
        "empirical", "1 <= k < ell < m <= n",
        lambda n, k, ell, m: None not in (k, ell, m) and 1 <= k < ell < m <= n, _pop_levels),
}


def checked_sides(name: str, spec, n: int, k=None, ell=None, m=None):
    """``spec.sides`` over n inputs, for a :class:`FamilySpec` or any entry
    with its ``needs``, ``valid`` and ``sides``.

    Raises :class:`InputError` naming the parameters when the condition
    fails; every table is read through here, so a fault reads the same on
    every route.
    """
    values = {"n": n, "k": k, "ell": ell, "m": m}
    if not spec.valid(**values):
        shown = [key for key in values if key == "n" or key in spec.needs.split()]
        got = ", ".join(f"{key}={values[key]}" for key in shown)
        raise InputError(f"{name} needs {spec.needs}, got {got}")
    return spec.sides(**values)


def family_levels(
    family: OperatorFamily, n: int, params: TensorSumParams
) -> tuple[list[Level], list[Level]]:
    """The ``(lhs, rhs)`` levels of a family over n inputs; see :func:`checked_sides`."""
    return checked_sides(family.value, FAMILIES[family], n, params.k, params.ell, params.m)


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


def _level_sum(arrays: list[np.ndarray], level: Level, p: int, den: int) -> np.ndarray:
    # Integer weight over the common denominator; a unit weight costs no
    # pass over the d^p x d^p sum.
    total = _pairwise_sum(
        _power(_pairwise_sum(arrays[i] for i in idx), p) for idx in level.subsets
    )
    weight = int(level.weight * den)
    return total if weight == 1 else weight * total


def symmetric_tensor_sum(
    mats, k: int, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """Sum of p-fold Kronecker powers of all size-k subset sums."""
    arrays = _canonical_arrays(mats)
    n = len(arrays)
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= {n}, got {k}")
    check_tensor_budget(arrays[0].shape[-1], p, max_dim)
    return _wrap(_level_sum(arrays, _level(n, k), p, 1))


def build_difference(
    family: OperatorFamily,
    mats,
    params: TensorSumParams,
    max_dim: int = DEFAULT_MAX_TENSOR_DIM,
) -> HermitianMatrix:
    """LHS - RHS of the family's table entry at Kronecker power ``params.p``.

    The tuple size is the number of matrices given.  Each level streams its
    subset powers through pairwise summation, the levels of a side are
    summed pairwise, and with rational weights the common denominator is
    divided out once at the end.
    """
    mats = list(mats)
    sides = family_levels(family, len(mats), params)
    arrays = _canonical_arrays(mats, keep_first_fixed=FAMILIES[family].supermod)
    check_tensor_budget(arrays[0].shape[-1], params.p, max_dim)
    den = lcm(*(level.weight.denominator for side in sides for level in side))
    lhs, rhs = (
        _pairwise_sum(_level_sum(arrays, level, params.p, den) for level in side)
        for side in sides
    )
    diff = lhs - rhs
    return _wrap(diff if den == 1 else diff / den)


def _build(family: OperatorFamily, mats, p: int, max_dim: int, **levels) -> HermitianMatrix:
    mats = list(mats)
    return build_difference(family, mats, TensorSumParams(len(mats), p, **levels), max_dim)


def hlawka3_difference(
    a, b, c, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """(A+B+C)^op + A^op + B^op + C^op - pair powers; the n=3 alternating case."""
    return _build(OperatorFamily.HLAWKA3, [a, b, c], p, max_dim)


def supermodularity_difference(
    a, b, c, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """(A+B+C)^op + A^op - (A+B)^op - (A+C)^op; the first matrix is special."""
    return _build(OperatorFamily.SUPERMOD, [a, b, c], p, max_dim)


def superadditivity_difference(
    mats, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """(A1+...+An)^op - (A1^op + ... + An^op) for n >= 2."""
    return _build(OperatorFamily.SUPERADD, mats, p, max_dim)


def alternating_difference(
    mats, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """S_n + S_{n-2} + ...  minus  S_{n-1} + S_{n-3} + ... at power p.

    For p < n the result is identically zero up to rounding: the
    alternating subset sum is an n-th order finite difference, which
    annihilates the degree-p power map.  Strict positivity needs p >= n.
    """
    return _build(OperatorFamily.ALTERNATING, mats, p, max_dim)


def pop_pairs_difference(
    mats, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """(n-2) sum Ai^op + (sum Ai)^op - pair powers; the m=2 subset case."""
    return _build(OperatorFamily.POP_PAIRS, mats, p, max_dim)


def pop_subsets_difference(
    mats, m: int, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """C(n-2,m-1) sum Ai^op + C(n-2,m-2) (sum Ai)^op - size-m subset powers."""
    return _build(OperatorFamily.POP_SUBSETS, mats, p, max_dim, m=m)


def pop_levels_difference(
    mats, k: int, ell: int, m: int, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianMatrix:
    """Three-level comparison of symmetric tensor sums.

    ((m-ell)/(k C(n,k))) S_k + ((ell-k)/(m C(n,m))) S_m
      - ((m-k)/(ell C(n,ell))) S_ell
    """
    return _build(OperatorFamily.POP_LEVELS, mats, p, max_dim, k=k, ell=ell, m=m)
