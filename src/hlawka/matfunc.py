"""Generalized matrix functions and their scalar inequality images.

The central quantity is the permutation-weighted sum

    d(X) = sum over sigma in G of  chi(sigma) * prod_i X[i, sigma(i)]

for a permutation group G and character chi.  With G the full symmetric
group this is the determinant for the sign character, the permanent for
the trivial character, and an immanant for any other partition label.

Applying d to each operator term of a tensor-sum inequality (in place of
Kronecker powers), the subset sums :func:`~hlawka.scalar._terms` forms for
the convex/norm suites too, yields the scalar corollaries checked here; d
alone states its working set.  The permanent additionally has an
independent inclusion-exclusion oracle so the two routes can cross-check.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import fsum
from operator import add

import numpy as np

from .errors import BudgetError, InputError
from .linalg import HermitianStack, _as_array, _entries, _same_shape, _single_or_all
from .scalar import ScalarCheckResult, _margins, _terms
from .sums import CHUNK_BYTES, operator_family
from .symgroup import CharacterSpec, GroupSpec, character_values, enumerate_group

#: Ryser evaluation enumerates 2^m column subsets; refuse beyond this.
MAX_PERMANENT_DIM = 12

#: Default relative tolerance of the matrix-function corollaries.
DEFAULT_SCALAR_MATRIX_TOL = 1e-10


@lru_cache(maxsize=64)
def _group_data(group: GroupSpec,
                chi: CharacterSpec) -> tuple[tuple[tuple[list, np.ndarray], ...], np.ndarray]:
    """The two half trees of the support of chi, and chi(sigma) on it.

    The support is the elements with chi(sigma) != 0, in the lexicographic
    order :func:`enumerate_group` lists them; an element outside it adds
    nothing to d, so its product is never formed.  With h = m // 2, each
    element's product is that of its prefix half, the entries X[i, sigma(i)]
    for i < h, times that of its suffix half, i >= h.  Each half is a tree
    ``(levels, leaf)`` over its images: the prefix tree over the support in
    order, the suffix tree over the support sorted by its suffix images, so
    that in both the elements sharing the half's first images are
    consecutive.  Level k of a half is a pair ``(parent, flat)`` over its
    nodes: the index of the node's parent among the nodes of the level
    before (0, the root, at the half's first level), and the row-major flat
    index ``i * m + sigma(i)`` of the entry X[i, sigma(i)] the node appends,
    i the half's k-th row.  ``leaf`` gives, per support element in order,
    its node of the half's last level.  At degree 1 the prefix half is
    empty and only the suffix half is listed.
    """
    m = group.degree
    perms = enumerate_group(group)
    chis = character_values(group, chi, perms)
    support = chis != 0
    perms = perms[support]
    h = m // 2
    # lexsort's last key is its first: sort by sigma(h), then sigma(h + 1)...
    order = np.lexsort(perms[:, h:][:, ::-1].T)
    levels, ids = _tree(perms[order], range(h, m))
    leaf = np.empty_like(ids)
    leaf[order] = ids
    halves = _tree(perms, range(h)), (levels, leaf)
    return tuple(half for half in halves if half[0]), chis[support]


def _tree(perms: np.ndarray, rows: range) -> tuple[list, np.ndarray]:
    # Row r starts a node of level k when it differs from row r - 1 in one
    # of the images of the half's rows up to k; the node ids of a level
    # count those starts.
    m = perms.shape[1]
    new = np.zeros(len(perms), dtype=bool)
    new[0] = True
    ids = np.zeros(len(perms), dtype=np.intp)
    levels = []
    for i in rows:
        new[1:] |= perms[1:, i] != perms[:-1, i]
        starts = np.flatnonzero(new)
        levels.append((ids[starts], i * m + perms[starts, i]))
        ids = np.cumsum(new) - 1
    return levels, ids


def _walk(levels: list, leaf: np.ndarray, entries_re: np.ndarray,
          entries_im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The product of one half per support element: real and imaginary
    parts, (element, matrix), from the block's (entry, matrix) parts.

    Each node holds the partial product ((X[i0, s0] * X[i1, s1]) * ...) of
    its images, formed once and shared by every element below it.  Each
    step is spelled in real arithmetic, (a + bi)(c + di) = (ac - bd) +
    (ad + bc)i, so a half has the bits of a left-to-right ``prod`` over its
    entries; numpy's vectorized complex multiply rounds differently.  A
    level gathers whole rows, which costs less per call than a column
    gather when the block is small.
    """
    _, first = levels[0]
    re, im = np.take(entries_re, first, axis=0), np.take(entries_im, first, axis=0)
    for parent, index in levels[1:]:
        pr, pi = np.take(re, parent, axis=0), np.take(im, parent, axis=0)
        cr, ci = np.take(entries_re, index, axis=0), np.take(entries_im, index, axis=0)
        re, im = pr * cr - pi * ci, pr * ci + pi * cr
    return np.take(re, leaf, axis=0), np.take(im, leaf, axis=0)


@np.errstate(over="ignore", invalid="ignore")
def generalized_matrix_function(x, group: GroupSpec, chi: CharacterSpec):
    """Evaluate d(X) = sum_sigma chi(sigma) prod_i X[i, sigma(i)].

    ``x`` is one square matrix, Hermitian or not, or a
    :class:`HermitianStack`, which gives a complex array of d(X), one per
    matrix (empty for an empty stack), the stack walked in blocks within
    :data:`~hlawka.sums.CHUNK_BYTES` (at least one matrix each).  Only the
    products of the support of chi are formed, each as (X[0, s0] * ... *
    X[h - 1, s(h-1)]) * (X[h, sh] * ... * X[m - 1, s(m-1)]) with h = m // 2
    (:func:`_group_data`); a product or half product that overflows gives an
    inf or NaN value, without a warning, for the caller to refuse.
    """
    arr = _entries(x)
    m = arr.shape[-1]
    if m != group.degree:
        raise InputError(f"matrix dimension {m} does not match group degree {group.degree}")
    halves, weights = _group_data(group, chi)
    # Per matrix, a block holds four complex entries per support element
    # and per node of the two trees, and two per matrix entry; tracemalloc
    # measures 0.40 to 0.91 of this over every character of degrees 1 to 8.
    nodes = sum(len(flat) for levels, _ in halves for _, flat in levels)
    block = max(1, CHUNK_BYTES // (16 * (4 * (len(weights) + nodes) + 2 * m * m)))
    flat = arr.reshape(-1, m * m)
    values = np.empty(len(flat), dtype=np.complex128)
    for lo in range(0, len(flat), block):
        part = flat[lo:lo + block]
        entries = part.real.T.copy(), part.imag.T.copy()
        (re, im), *other = [_walk(*half, *entries) for half in halves]
        # The block's products, (matrix, element): the prefix half times the
        # suffix half in the same real arithmetic, written in place.  At
        # degree 1 the one half as it is: a product with 1 would turn -0 to 0.
        products = np.empty((len(part), len(weights)), dtype=np.complex128)
        if other:
            (qr, qi), = other
            np.subtract(re * qr, im * qi, out=products.real.T)
            np.add(re * qi, im * qr, out=products.imag.T)
        else:
            products.real[...], products.imag[...] = re.T, im.T
        # One dot per matrix, stacked: numpy hands each 1 x support @
        # support x 1 product to the dot ``weights @ row`` calls, where a
        # matrix-vector product over the block would round differently.
        values[lo:lo + block] = np.matmul(products[:, np.newaxis], weights[:, np.newaxis])[:, 0, 0]
    return _single_or_all(x, values)


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
    hs = _same_shape(mats)
    n = len(hs)
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return fsum(determinant_via_elimination(reduce(add, map(hs.__getitem__, idx)).array).real
                for idx in combinations(range(n), k))


# ---------------------------------------------------------------------------
# Scalar inequality images
# ---------------------------------------------------------------------------


def scalar_inequality_check(
    family: str,
    mats,
    group: GroupSpec,
    chi: CharacterSpec,
    tol: float = DEFAULT_SCALAR_MATRIX_TOL,
    *,
    k: int | None = None,
    ell: int | None = None,
    m: int | None = None,
) -> ScalarCheckResult:
    """Check the d-image of an operator family's inequality on Hermitian inputs.

    Each operator term (a subset sum) is mapped through the generalized
    matrix function instead of a Kronecker power; subset sizes and
    coefficients are unchanged, n is the input count and ``k``, ``ell``,
    ``m`` are the levels the entry needs.  For positive semidefinite inputs
    the values are real up to rounding; the real parts are compared.

    Input ``i`` is a :class:`HermitianStack` holding input ``i`` of every
    trial (a :class:`~hlawka.linalg.HermitianMatrix` is the stack of one
    trial); every trial is checked at once and a list of results, one per
    trial, is returned, or one result for single-matrix inputs.  The terms
    come from :func:`~hlawka.scalar._terms`, with one
    :func:`generalized_matrix_function` call over every subset sum, formed
    in input order (the reports' bits depend on it).
    """
    operator_family(family)  # refuses a convex/norm suite, whose terms differ
    hs = _same_shape(mats)
    data = np.stack([_entries(h) for h in hs], axis=1)

    def image(sums: np.ndarray) -> np.ndarray:
        # (T, S, dim, dim) subset sums -> (T, 1, S) real parts of d; refuses
        # a dimension other than the group degree.
        values = generalized_matrix_function(HermitianStack._wrap_exact(sums), group, chi)
        return values.real.reshape(sums.shape[:2])[:, np.newaxis]

    margins = _margins(*_terms(family, data, image, k, ell, m))
    margins.refuse_first()
    return _single_or_all(hs[0], [margins.result(t, tol) for t in range(len(data))])


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
