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
from math import fsum, prod
from operator import add

import numpy as np

from .errors import BudgetError, InputError
from .linalg import HermitianStack, _as_array, _entries, _same_shape, _single_or_all
from .scalar import ScalarCheckResult, ScalarCheckResults, _margins, _terms
from .sums import BLOCK_BYTES, operator_family
from .symgroup import CharacterSpec, GroupSpec, character_values, enumerate_group

#: Ryser evaluation enumerates 2^m column subsets; refuse beyond this.
MAX_PERMANENT_DIM = 12

#: Default relative tolerance of the matrix-function corollaries.
DEFAULT_SCALAR_MATRIX_TOL = 1e-10


@lru_cache(maxsize=64)
def _group_data(group: GroupSpec,
                chi: CharacterSpec) -> tuple[tuple[list, list], np.ndarray]:
    """The two half trees of the support of chi, laid out by column set,
    and the weights W that pair their last levels.

    The support is the elements with chi(sigma) != 0, in the lexicographic
    order :func:`enumerate_group` lists them; an element outside it adds
    nothing to d.  With h = m // 2, an element's product is that of its
    prefix half, the entries X[i, sigma(i)] for i < h, times that of its
    suffix half, i >= h.  Grouping the support by its column set A =
    sigma({0..h-1}) gives the generalized Laplace expansion

        d(X) = sum over A of  P_A . (W_A @ S_A),

    P_A and S_A the products of the distinct prefix halves with images A
    and suffix halves with images the complement of A, and W_A[a, b] =
    chi(a u b) (0 where a u b is outside the support).

    Each half is a tree over its images, a list of levels: the prefix tree
    over the support in order, the suffix tree over the support sorted by
    its suffix images, so that in both the elements sharing the half's
    first images are consecutive.  Level k is a pair ``(parent, flat)``: the
    index of each node's parent among the nodes of the level before (0 at
    the first level, which has none), and the row-major flat index ``i * m
    + sigma(i)`` of the entry X[i, sigma(i)] it appends, i the half's k-th
    row.  The last level is laid out as ``(set, slot)`` arrays: the column
    sets in increasing order of sum over A of 2^j, and in each set the
    half's distinct images in lexicographic order, padded to the widest set
    with slots that append the flat index m * m, a zero entry, to node 0:
    a padded slot reads +-0, which W weighs with 0, unless node 0 is not
    finite, and then neither is a half below it, nor d.  At degree 1 the
    prefix half has no levels; its one slot is 1.

    ``W`` is ``(set, prefix slot, suffix slot)``, complex128 for a
    character with a nonzero imaginary part and float64 otherwise.  A
    padded layout can make W far larger than the support, e.g. S_k acting
    as sigma + sigma on 2k letters, one set of k! x k! slots with k!
    weights; a W over :data:`~hlawka.sums.BLOCK_BYTES` and over four cells
    per element of the support is refused with :class:`BudgetError`
    before it is allocated.
    """
    m = group.degree
    perms = enumerate_group(group)
    chis = character_values(group, chi, perms)
    support = chis != 0
    perms, chis = perms[support], chis[support]
    h = m // 2
    _, sets = np.unique((1 << perms[:, :h]).sum(axis=1), return_inverse=True)
    # lexsort's last key is its first: sort by sigma(h), then sigma(h + 1)...
    order = np.lexsort(perms[:, h:][:, ::-1].T)
    prefix, prefix_slot = _layout(*_tree(perms, range(h)), sets, m)
    suffix, ranked = _layout(*_tree(perms[order], range(h, m)), sets[order], m)
    suffix_slot = np.empty_like(ranked)
    suffix_slot[order] = ranked
    values = chis if chis.imag.any() else chis.real
    shape = sets.max() + 1, prefix_slot.max() + 1, suffix[-1][1].shape[1]
    size, limit = prod(shape) * values.itemsize, max(BLOCK_BYTES, 4 * values.nbytes)
    if size > limit:
        raise BudgetError(f"column-set weights of {size} bytes for a support of "
                          f"{len(values)} elements exceed budget {limit}")
    weights = np.zeros(shape, dtype=values.dtype)
    weights[sets, prefix_slot, suffix_slot] = values
    return (prefix, suffix), weights


def _tree(perms: np.ndarray, rows: range) -> tuple[list, np.ndarray]:
    # Row r starts a node of level k when it differs from row r - 1 in one
    # of the images of the half's rows up to k; the node ids of a level
    # count those starts.  Also gives each row its node of the last level.
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


def _layout(levels: list, ids: np.ndarray, sets: np.ndarray,
            m: int) -> tuple[list, np.ndarray]:
    # The last level's nodes move to their (set, slot), the slots of a set
    # in node order; a padded slot appends the zero entry m * m to node 0.
    # Also gives each row its slot.
    count = ids.max() + 1
    node_set = np.empty(count, dtype=np.intp)
    node_set[ids] = sets
    order = np.argsort(node_set, kind="stable")
    sizes = np.bincount(node_set)
    slot = np.empty(count, dtype=np.intp)
    slot[order] = np.arange(count) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    if not levels:
        return levels, slot[ids]
    shape = len(sizes), sizes.max()
    grid = np.zeros(shape, dtype=np.intp), np.full(shape, m * m, dtype=np.intp)
    for array, values in zip(grid, levels[-1]):
        array[node_set, slot] = values
    return [*levels[:-1], grid], slot[ids]


def _times(re, im, c_re, c_im) -> tuple[np.ndarray, np.ndarray]:
    # (re + im i)(c_re + c_im i) as (re c_re - im c_im) + (re c_im + im
    # c_re)i, in place of re, c_re and c_im.
    product = re * c_im
    np.multiply(re, c_re, out=re)
    np.multiply(im, c_im, out=c_im)
    np.subtract(re, c_im, out=re)
    np.multiply(im, c_re, out=c_re)
    np.add(product, c_re, out=product)
    return re, product


def _walk(levels: list, entries: np.ndarray) -> np.ndarray:
    """One half's product per slot, ``(matrix, set, slot, re/im)``, from the
    block's ``(re/im, entry, matrix)`` entries.

    Each node holds the partial product ((X[i0, s0] * X[i1, s1]) * ...) of
    its images, formed once and shared by every slot below it.  Each step
    is spelled in real arithmetic, (a + bi)(c + di) = (ac - bd) + (ad +
    bc)i, so a half has the bits of a left-to-right ``prod`` over its
    entries; numpy's vectorized complex multiply rounds differently.  A
    level gathers whole rows, which costs less per call than a column
    gather when the block is small.  Every ufunc runs on whole arrays; one
    with a strided output would take a buffer of up to 64 KiB.
    """
    entries_re, entries_im = entries
    if not levels:  # the empty product
        shape = 1, 1, entries.shape[-1]
        re, im = np.ones(shape), np.zeros(shape)
    else:
        (_, first), *rest = levels
        re, im = np.take(entries_re, first, axis=0), np.take(entries_im, first, axis=0)
        for parent, flat in rest:
            # The level before is freed here, before the product's arrays.
            re, im = np.take(re, parent, axis=0), np.take(im, parent, axis=0)
            re, im = _times(re, im, np.take(entries_re, flat, axis=0),
                            np.take(entries_im, flat, axis=0))
    out = np.empty((re.shape[2], *re.shape[:2], 2))
    out[..., 0], out[..., 1] = re.transpose(2, 0, 1), im.transpose(2, 0, 1)
    return out


def _block(part: np.ndarray, prefix: list, suffix: list, weights: np.ndarray) -> np.ndarray:
    """d of each matrix of a block, ``(matrix, entry)``; its arrays are
    freed before the next block's.

    Per matrix and column set one product Y_A = W_A @ S_A of the same shape,
    a real (w x w) by S_A's real and imaginary parts, (w x 2), or a complex
    (w x w) by S_A, (w x 1); and per matrix one dot of P with Y, stacked: a
    product over the block would round differently.
    """
    entries = np.zeros((2, part.shape[1] + 1, len(part)))  # and a zero entry
    entries[0, :-1], entries[1, :-1] = part.real.T, part.imag.T
    p, s = _walk(prefix, entries), _walk(suffix, entries)
    y = np.matmul(weights, s.view(weights.dtype)).view(np.complex128)
    return np.matmul(p.view(np.complex128).reshape(len(part), 1, -1),
                     y.reshape(len(part), -1, 1))[:, 0, 0]


@np.errstate(over="ignore", invalid="ignore")
def generalized_matrix_function(x, group: GroupSpec, chi: CharacterSpec):
    """Evaluate d(X) = sum_sigma chi(sigma) prod_i X[i, sigma(i)].

    ``x`` is one square matrix, Hermitian or not, or a
    :class:`HermitianStack`, which gives a complex array of d(X), one per
    matrix (empty for an empty stack), the stack walked in blocks within
    :data:`~hlawka.sums.BLOCK_BYTES` (at least one matrix each).  d is the
    column-set sum of :func:`_group_data`, h = m // 2: per matrix, the
    prefix halves P (X[0, s0] * ... * X[h - 1, s(h-1)]) and suffix halves S
    (X[h, sh] * ... * X[m - 1, s(m-1)]) of the support of chi, laid out by
    column set; Y_A = W_A @ S_A, one (w x w) @ (w x 2) product per matrix
    and set on S_A's real and imaginary parts (a complex (w x w) @ (w x 1)
    for a complex chi); and one dot of P with Y.  A half, a Y or a product
    that overflows gives an inf or NaN value, without a warning, for the
    caller to refuse.  A group whose W :func:`_group_data` refuses raises
    :class:`BudgetError`.
    """
    arr = _entries(x)
    m = arr.shape[-1]
    if m != group.degree:
        raise InputError(f"matrix dimension {m} does not match group degree {group.degree}")
    (prefix, suffix), weights = _group_data(group, chi)
    sets, prefix_slots, suffix_slots = weights.shape
    # A block holds, per matrix, two float64 words per matrix entry, per
    # prefix slot and per suffix slot, and five per node of the widest level
    # of the walks; and, whatever its size, 512 words of array headers and
    # views.  tracemalloc measures 0.73 to 0.93 of the per-matrix words and
    # 1.8 to 2.2 KiB of fixed overhead over every character of degrees 1 to
    # 8 and table characters of explicit groups up to degree 10.
    widest = max(flat.size for levels in (prefix, suffix) for _, flat in levels)
    words = 2 * (m * m + 1) + 2 * sets * (prefix_slots + suffix_slots) + 5 * widest
    block = max(1, (BLOCK_BYTES - 8 * 512) // (8 * words))
    flat = arr.reshape(-1, m * m)
    values = np.empty(len(flat), dtype=np.complex128)
    for lo in range(0, len(flat), block):
        values[lo:lo + block] = _block(flat[lo:lo + block], prefix, suffix, weights)
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
) -> ScalarCheckResult | ScalarCheckResults:
    """Check the d-image of an operator family's inequality on Hermitian inputs.

    Each operator term (a subset sum) is mapped through the generalized
    matrix function instead of a Kronecker power; subset sizes and
    coefficients are unchanged, n is the input count and ``k``, ``ell``,
    ``m`` are the levels the entry needs.  For positive semidefinite inputs
    the values are real up to rounding; the real parts are compared.

    Input ``i`` is a :class:`HermitianStack` holding input ``i`` of every
    trial (a :class:`~hlawka.linalg.HermitianMatrix` is the stack of one
    trial); every trial is checked at once and their
    :class:`~hlawka.scalar.ScalarCheckResults` are returned, or one result
    for single-matrix inputs.  The terms
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

    results = _margins(*_terms(family, data, image, k, ell, m), tol)
    results.refuse_first()
    return _single_or_all(hs[0], results)


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
