"""The operator inequality families and their tensor-sum differences.

Every family is one :class:`FamilySpec` of :data:`FAMILIES`, whose key is
its only name: the CLI's, the reports' and the library's, as in
``build_difference("hlawka3", [a, b, c], p=3)``.  The entry holds its LHS and
RHS as levels, each an exact weight times a list of index subsets, read as
``sum_S weight * F(X_S)`` for the subset sums ``X_S`` and a functor ``F``.
:func:`build_difference` takes ``F`` to be the p-fold Kronecker power and
assembles LHS - RHS over the n inputs it is given, ready for Loewner
certification; :func:`hlawka.matfunc.scalar_inequality_check` takes a
generalized matrix function; the convex/norm suites of :mod:`hlawka.scalar`
are entries with a scalar ``term`` rule in place of ``F``.  Input ``i`` is a
:class:`~hlawka.linalg.HermitianStack` holding matrix ``i`` of every trial
(a :class:`~hlawka.linalg.HermitianMatrix` is the stack of one trial), and
every trial's difference is built at once: a stack of them, or one matrix
for single-matrix inputs.  The families:

* ``superadd``:    (A1+...+An)^op  >=  sum_i Ai^op
* ``hlawka3``:     (A+B+C)^op + A^op + B^op + C^op  >=  sum of pair powers
* ``supermod``:    (A+B+C)^op + A^op  >=  (A+B)^op + (A+C)^op
* ``alternating``: S_n + S_{n-2} + ...  >=  S_{n-1} + S_{n-3} + ...
* ``pop-pairs``:   (n-2) sum Ai^op + (sum Ai)^op  >=  sum of pair powers
* ``pop-subsets``: binomially weighted version over size-m subsets
* ``pop-levels``:  rationally weighted three-level comparison

where X^op denotes the p-fold Kronecker power and S_k the sum of such
powers over all size-k subset sums.  The alternating difference is an n-th
order finite difference, so at p < n it is zero up to rounding; strict
positivity needs p >= n.

Determinism: inputs are first canonically ordered by content hash (trial
by trial for stacks), then subsets are enumerated lexicographically and
accumulated with pairwise (tree) summation.  Shuffling the input list
therefore cannot change a single bit of the output.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import numpy as np

from .errors import BudgetError, InputError
from .linalg import (
    DEFAULT_MAX_TENSOR_DIM,
    HermitianStack,
    _entries,
    _same_shape,
    _single_or_all,
    check_tensor_budget,
)
from .linalg import _kron_power as _power

#: Largest number of subsets one level may list (C(18, 9) = 48620 fits):
#: a level is counted before it is built, and refused beyond this.
MAX_LEVEL_SUBSETS = 2**16


@dataclass(frozen=True)
class Level:
    """``weight`` times the sum of X_S over the index subsets S, where X_S
    is the image (Kronecker power, generalized matrix function) of the
    subset sum of the inputs indexed by S."""

    weight: Fraction
    subsets: tuple[tuple[int, ...], ...]


def _level(n: int, size: int, weight=1) -> Level:
    if comb(n, size) > MAX_LEVEL_SUBSETS:
        raise BudgetError(f"level of the {size}-subsets of {n} inputs: C({n}, {size}) = "
                          f"{comb(n, size)} exceeds budget {MAX_LEVEL_SUBSETS}")
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
    """One ``scalar-verify`` family: the sum of the ``lhs`` levels dominates
    the sum of the ``rhs`` levels.

    ``sides(n, k, ell, m)`` gives ``(lhs, rhs)`` for a valid parameter set;
    ``valid`` tests the condition that ``needs`` states.  ``supermod`` keeps
    input 0 in its place.  ``term`` is ``None`` for an operator family, else
    the term rule of a convex/norm suite.  A violation is a failure under the
    ``status`` ``proven`` or ``refuted``, and over ``proven_at`` inputs; under
    ``empirical`` or ``evaluator`` margins are only reported.  ``notes(n)``
    gives the interpretation flags of a run over n inputs.
    """

    status: str
    needs: str
    valid: Callable[..., bool]
    sides: Callable[..., tuple[list[Level], list[Level]]]
    supermod: bool = False
    term: str | None = None
    notes: Callable[[int], list[str]] = lambda n: []
    proven_at: int | None = None


def _empirical(n: int) -> list[str]:
    return ["empirical-family: inequality not established; margins reported, not assumed"]


#: The one definition of every operator family, keyed by its name.
FAMILIES = {
    "hlawka3": FamilySpec(
        "proven", "n = 3", lambda n, k, ell, m: n == 3, _alternating),
    "supermod": FamilySpec(
        "proven", "n = 3", lambda n, k, ell, m: n == 3,
        lambda n, k, ell, m: ([Level(Fraction(1), ((0, 1, 2), (0,)))],
                              [Level(Fraction(1), ((0, 1), (0, 2)))]),
        supermod=True),
    "superadd": FamilySpec(
        "proven", "n >= 2", lambda n, k, ell, m: n >= 2,
        lambda n, k, ell, m: ([_level(n, n)], [_level(n, 1)])),
    "alternating": FamilySpec(
        "proven", "n >= 3", lambda n, k, ell, m: n >= 3, _alternating),
    "pop-pairs": FamilySpec(
        "proven", "n >= 3", lambda n, k, ell, m: n >= 3,
        lambda n, k, ell, m: _pop_subsets(n, 2)),
    "pop-subsets": FamilySpec(
        "empirical", "2 <= m < n", lambda n, k, ell, m: m is not None and 2 <= m < n,
        lambda n, k, ell, m: _pop_subsets(n, m), notes=_empirical),
    "pop-levels": FamilySpec(
        "empirical", "1 <= k < ell < m <= n",
        lambda n, k, ell, m: None not in (k, ell, m) and 1 <= k < ell < m <= n, _pop_levels,
        notes=_empirical),
}


def operator_family(name: str) -> FamilySpec:
    """The :data:`FAMILIES` entry of ``name``; :class:`InputError` naming
    the operator families for any other name, a convex/norm suite's too."""
    if name not in FAMILIES:
        raise InputError(f"unknown operator family {name!r}; one of {list(FAMILIES)}")
    return FAMILIES[name]


def checked_sides(name: str, spec: FamilySpec, n: int, k=None, ell=None, m=None):
    """``spec.sides`` over n inputs.

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


def _canonical_arrays(mats, *, keep_first_fixed: bool = False) -> list[np.ndarray]:
    # Sort each trial's matrices by their own digests (stable, so equal
    # matrices keep their input order), then gather every position into one
    # contiguous (trials, dim, dim) array.
    if not mats:
        raise InputError("need at least one matrix")
    hs = _same_shape(mats)
    first = 1 if keep_first_fixed else 0
    keys = list(zip(*(h.digests for h in hs)))
    order = np.array(
        [list(range(first)) + sorted(range(first, len(hs)), key=k.__getitem__) for k in keys],
        dtype=np.intp,
    ).reshape(len(keys), len(hs))
    stacked = np.stack([_entries(h) for h in hs])
    trial = np.arange(len(keys))
    return [stacked[order[:, i], trial] for i in range(len(hs))]


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
) -> HermitianStack:
    """Sum of p-fold Kronecker powers of all size-k subset sums."""
    mats = list(mats)
    arrays = _canonical_arrays(mats)
    n = len(arrays)
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= {n}, got {k}")
    check_tensor_budget(arrays[0].shape[-1], p, max_dim)
    total = _level_sum(arrays, _level(n, k), p, 1)
    return _single_or_all(mats[0], HermitianStack._wrap_exact(total))


def build_difference(
    family: str,
    mats,
    p: int,
    max_dim: int = DEFAULT_MAX_TENSOR_DIM,
    *,
    k: int | None = None,
    ell: int | None = None,
    m: int | None = None,
) -> HermitianStack:
    """LHS - RHS of the entry ``FAMILIES[family]`` at Kronecker power ``p``.

    n is the number of matrices given, and ``k``, ``ell``, ``m`` are the
    levels the entry needs.  Each level streams its subset powers through
    pairwise summation, the levels of a side are summed pairwise, and with
    rational weights the common denominator is divided out once at the end.
    """
    spec = operator_family(family)
    mats = list(mats)
    sides = checked_sides(family, spec, len(mats), k, ell, m)
    arrays = _canonical_arrays(mats, keep_first_fixed=spec.supermod)
    check_tensor_budget(arrays[0].shape[-1], p, max_dim)
    den = lcm(*(level.weight.denominator for side in sides for level in side))
    lhs, rhs = (
        _pairwise_sum(_level_sum(arrays, level, p, den) for level in side)
        for side in sides
    )
    diff = lhs - rhs
    return _single_or_all(mats[0], HermitianStack._wrap_exact(diff if den == 1 else diff / den))

