"""Generalized matrix functions and their scalar inequality images.

The central quantity is the permutation-weighted sum

    d(X) = sum over sigma in G of  chi(sigma) * prod_i X[i, sigma(i)]

for a permutation group G and character chi.  With G the full symmetric
group this is the determinant for the sign character, the permanent for
the trivial character, and an immanant for any other partition label.

Applying d to each operator term of a tensor-sum inequality (in place of
Kronecker powers) yields the scalar corollaries checked here.  The
permanent additionally has an independent inclusion-exclusion oracle so
the two routes can cross-check each other.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import fsum

import numpy as np

from .errors import BudgetError, InputError
from .linalg import HermitianMatrix, HermitianStack, _as_array
from .scalar import ScalarCheckResult, _result
from .sums import OperatorFamily, TensorSumParams, family_levels
from .symgroup import CharacterSpec, GroupSpec, character_values, enumerate_group

#: Ryser evaluation enumerates 2^m column subsets; refuse beyond this.
MAX_PERMANENT_DIM = 12


@lru_cache(maxsize=64)
def _group_data(group: GroupSpec, chi: CharacterSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row-major flat index of X[i, sigma(i)], one row per sigma, and chi(sigma)."""
    elements = enumerate_group(group)
    perms = np.array(elements, dtype=np.intp)
    chis = character_values(group, chi, elements)
    return np.arange(group.degree) * group.degree + perms, chis


def generalized_matrix_function(x, group: GroupSpec, chi: CharacterSpec):
    """Evaluate d(X) = sum_sigma chi(sigma) prod_i X[i, sigma(i)].

    A :class:`HermitianStack` gives an array of d(X), one per matrix.
    """
    arr = x.array if isinstance(x, HermitianStack) else _as_array(x)
    m = arr.shape[-1]
    if m != group.degree:
        raise InputError(f"matrix dimension {m} does not match group degree {group.degree}")
    flat, chis = _group_data(group, chi)
    # The gather is contiguous, so a matrix's products round the same in a
    # stack as alone; one matrix-vector product over the whole stack would
    # round differently from the per-matrix dot.
    products = np.take(arr.reshape(-1, m * m), flat, axis=1).prod(axis=-1)
    values = [chis @ row for row in products]
    return np.array(values) if arr.ndim == 3 else complex(values[0])


def determinant_via_elimination(x) -> complex:
    """Gaussian-elimination determinant with partial pivoting.

    The independent route for the sign character.  A product of pivots,
    so 1x1 and diagonal inputs are exact (numpy's det is not).
    """
    a = _as_array(x).copy()
    m = a.shape[0]
    det = 1.0 + 0.0j
    for col in range(m):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if pivot == 0:
            return 0j
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            det = -det
        det *= pivot
        if col + 1 < m:
            factors = a[col + 1 :, col] / pivot
            a[col + 1 :, col:] -= factors[:, np.newaxis] * a[col, col:]
    return complex(det)


def permanent_oracle(x) -> complex:
    """Permanent by Ryser's inclusion-exclusion over column subsets.

    Gray-code ordering updates one column sum per step, so the cost is
    O(2^m * m).  Independent of :func:`generalized_matrix_function`.
    """
    arr = _as_array(x)
    m = arr.shape[0]
    if m > MAX_PERMANENT_DIM:
        raise BudgetError(f"permanent oracle limited to dim <= {MAX_PERMANENT_DIM}, got {m}")
    row_sums = np.zeros(m, dtype=np.complex128)
    total = 0.0 + 0.0j
    prev_gray = 0
    for counter in range(1, 1 << m):
        gray = counter ^ (counter >> 1)
        bit = prev_gray ^ gray
        col = bit.bit_length() - 1
        if gray & bit:
            row_sums += arr[:, col]
        else:
            row_sums -= arr[:, col]
        subset_size = gray.bit_count()
        term = row_sums.prod()
        total += term if (m - subset_size) % 2 == 0 else -term
        prev_gray = gray
    return complex(total)


def elementary_symmetric_det(mats, k: int) -> float:
    """Sum of determinants of all size-k subset sums of Hermitian inputs."""
    hs = [m if isinstance(m, HermitianMatrix) else HermitianMatrix(m) for m in mats]
    n = len(hs)
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if any(h.dim != hs[0].dim for h in hs):
        raise InputError("all matrices must share one dimension")
    terms = []
    for idx in combinations(range(n), k):
        subset = hs[idx[0]]
        for i in idx[1:]:
            subset = subset + hs[i]
        terms.append(determinant_via_elimination(subset.array).real)
    return fsum(terms)


# ---------------------------------------------------------------------------
# Scalar inequality images
# ---------------------------------------------------------------------------


#: The d-image check gives the scalar suites' result type.
ScalarInequalityResult = ScalarCheckResult


def scalar_inequality_check(
    family: OperatorFamily,
    mats,
    params: TensorSumParams,
    group: GroupSpec,
    chi: CharacterSpec,
    tol: float = 1e-10,
) -> ScalarInequalityResult:
    """Check the d-image of a family's inequality on Hermitian inputs.

    Each operator term (a subset sum) is mapped through the generalized
    matrix function instead of a Kronecker power; subset sizes and
    coefficients are unchanged.  For positive semidefinite inputs the
    values are real up to rounding; the real parts are compared.

    With :class:`HermitianStack` inputs (input ``i`` of every trial in
    stack ``i``) every trial is checked at once and a list of results, one
    per trial, is returned.
    """
    hs = [m if isinstance(m, (HermitianMatrix, HermitianStack)) else HermitianMatrix(m)
          for m in mats]
    stacked = any(isinstance(h, HermitianStack) for h in hs)
    n = len(hs)
    if any(h.dim != group.degree for h in hs):
        raise InputError("matrix dimension must equal the group degree")
    if stacked and not all(isinstance(h, HermitianStack) and len(h) == len(hs[0]) for h in hs):
        raise InputError("stacked inputs must all be stacks of one length")
    lhs, rhs = family_levels(family, n, params)

    def evaluate(levels) -> np.ndarray:
        # One row per term, one column per trial.  Subset sums stay in input
        # order (the reports' bits depend on it); fsum rounds each side
        # once, so no grouping of the terms needs fixing.
        values = []
        for level in levels:
            weight = float(level.weight)
            for idx in level.subsets:
                subset = hs[idx[0]]
                for i in idx[1:]:
                    subset = subset + hs[i]
                values.append(weight * np.atleast_1d(generalized_matrix_function(subset, group, chi)).real)
        return np.array(values)

    lhs_values = evaluate(lhs)
    rhs_values = evaluate(rhs)
    results = [_result(lhs_values[:, t], rhs_values[:, t], tol)
               for t in range(lhs_values.shape[1])]
    return results if stacked else results[0]


def parse_character_selector(selector: str, dim: int) -> tuple[GroupSpec, CharacterSpec]:
    """Resolve ``det`` / ``perm`` / ``partition=<parts>`` selectors for S_dim."""
    group = GroupSpec.full_symmetric(dim)
    if selector == "det":
        return group, CharacterSpec.sign()
    if selector == "perm":
        return group, CharacterSpec.trivial()
    if selector.startswith("partition="):
        parts = selector[len("partition="):]
        try:
            lam = tuple(int(x) for x in parts.split(","))
        except ValueError as exc:
            raise InputError(f"unparseable partition {parts!r}") from exc
        if sum(lam) != dim:
            raise InputError(f"partition {lam} does not sum to the dimension {dim}")
        return group, CharacterSpec.from_partition(lam)
    raise InputError(f"unknown character selector {selector!r}")
