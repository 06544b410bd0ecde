"""Scalar and norm-space inequality evaluators; the counterexample search.

Margins are always LHS - RHS; a check "holds" when the margin is at worst
-1e-12 relative to the sum of its absolute terms (:func:`band_verdict`), and
a term or sum that overflows is refused.  Two kinds of evaluator live here:

* proven inequalities (triangle/Hlawka norm inequalities, Jensen,
  Popoviciu and its generalizations) whose margins the trial suites
  assert nonnegative, and
* plain evaluators for statements that are conjectural or known to fail
  (the functional Hlawka form, the alternating norm sum, the alternating
  subset-mean pattern), which only measure.

Every suite is one :class:`~hlawka.sums.FamilySpec` of
:data:`CONVEX_NORM_SUITES`, with the levels of an operator family (exact
weights times index subsets) and a ``term`` rule mapping a subset of the
inputs to a norm or a value of f.  :data:`SUITES` adds the operator
families, and :func:`_terms`, the one term path, evaluates the terms
:func:`suite_terms` gives any entry, for the evaluator here and for the
generalized matrix functions of :mod:`hlawka.matfunc`.

The evaluator, :func:`_search_margin`, takes a block of inputs, ``(T, n)``
points or ``(T, n, dim)`` vectors, and evaluates every row under every
given convex function at once, into one
:class:`~hlawka.linalg.VerdictRecord`, its :class:`ScalarCheckResults`
view.  The public evaluators are blocks of one, item 0 of the record,
and the search runs the coordinate descents of a block in lockstep, each
round one block of the next candidates of every live descent's sweep,
reading only margins.  Each row is canonically sorted first, so
permuting its inputs cannot change a single bit of the result;
each subset's sum or mean is formed once for every function; and each
side's sum is correctly rounded, ``math.fsum``'s bits, by error-free
transforms (:func:`_cascade`) with ``fsum`` as the fallback and the oracle,
so algebraically equal expressions agree exactly.  Every row gets the bits
of the one-input formula :func:`_search_margin` states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, groupby
from math import fsum

import numpy as np

from .errors import BudgetError, InputError
from .linalg import Verdict, VerdictRecord, _draws, band_verdict
from .sums import FAMILIES, FamilySpec, Level, checked_sides
from .sums import _alternating, _level, _pop_subsets

#: Default relative tolerance deciding whether a scalar margin "holds".
DEFAULT_SCALAR_TOL = 1e-12

#: The one catalog of convex functions on the real line: kind -> function.
#: It is fixed because convexity of arbitrary user code cannot be verified.
#: softplus is evaluated stably on both tails.
CONVEX_FUNCTIONS = {
    "abs": abs,
    "square": lambda y: y * y,
    "fourth": lambda y: y**4,
    "exp": math.exp,
    "relu": lambda y: y if y > 0.0 else 0.0,
    "softplus": lambda y: y + math.log1p(math.exp(-y)) if y > 0.0 else math.log1p(math.exp(y)),
}

CONVEX_KINDS = tuple(CONVEX_FUNCTIONS)

#: The catalog functions that numpy evaluates bit for bit as the Python
#: ones.  numpy's SIMD ``exp`` and ``power`` round differently from
#: ``math``, so the other kinds map the Python function over a block.
_EXACT_IN_NUMPY = {
    "abs": np.abs,
    "square": lambda v: v * v,
    "relu": lambda v: np.where(v > 0.0, v, 0.0),
}


@dataclass(frozen=True)
class ConvexFunction:
    """The :data:`CONVEX_FUNCTIONS` entry ``kind``, called on a float."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in CONVEX_FUNCTIONS:
            raise InputError(f"unknown convex function {self.kind!r}; choose from {CONVEX_KINDS}")

    def __call__(self, x: float) -> float:
        # An overflow gives inf, as float arithmetic does, for the check to refuse.
        try:
            return CONVEX_FUNCTIONS[self.kind](float(x))
        except OverflowError:
            return math.inf

    def over(self, values: np.ndarray) -> np.ndarray:
        """The function on every entry of ``values``, each bit as a call
        gives it."""
        exact = _EXACT_IN_NUMPY.get(self.kind)
        if exact is not None:
            with np.errstate(over="ignore"):  # inf, as float arithmetic gives
                return exact(values)
        flat = values.ravel().tolist()
        try:
            out = list(map(CONVEX_FUNCTIONS[self.kind], flat))
        except OverflowError:
            out = list(map(self, flat))
        return np.array(out, dtype=np.float64).reshape(values.shape)


def convex_catalog() -> tuple[ConvexFunction, ...]:
    return tuple(ConvexFunction(kind) for kind in CONVEX_KINDS)


@dataclass(frozen=True)
class ScalarCheckResult:
    """``scale`` is ``max(1, sum of the absolute terms)``; ``verdict``, the
    :func:`~hlawka.linalg.band_verdict` of ``margin``, is derived when read."""

    lhs: float
    rhs: float
    margin: float
    scale: float
    tolerance: float

    @property
    def verdict(self) -> Verdict:
        return band_verdict(self.margin, abs(self.margin), self.scale, self.tolerance)

    @property
    def holds(self) -> bool:
        """True for HOLDS or EQUALITY."""
        return self.verdict is not Verdict.FAILS


class ScalarCheckResults(VerdictRecord):
    """The record of a block of trials, which adds each side, ``lhs`` and
    ``rhs``, as ``(T, F)`` arrays beside the margin; item t is trial t's
    :class:`ScalarCheckResult` under the first function."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: np.ndarray, rhs: np.ndarray, margin: np.ndarray,
                 scale: np.ndarray, tolerance: float, refusals: dict[int, str] | None = None) -> None:
        super().__init__(margin, scale, tolerance, refusals)
        self.lhs, self.rhs = lhs, rhs

    def __getitem__(self, t) -> ScalarCheckResult:
        return ScalarCheckResult(*(float(side[t, 0]) for side in (
            self.lhs, self.rhs, self.margin, self.scale)), tolerance=self.tolerance)


_OVERFLOW = "overflow: a term or a side of the inequality exceeds double precision"


#: A block of fewer rows than this is summed by ``math.fsum`` row by row,
#: the path every row :func:`_cascade` cannot certify takes: below it the
#: cascade's fixed cost, about 12 numpy calls a column, exceeds ``fsum``'s
#: cost a row (the measured break-even, 100 to 250 rows at widths 3 to 15).
_CASCADE_ROWS = 200


def _fsums(*arrays: np.ndarray) -> list[np.ndarray]:
    """``math.fsum`` along the last axis of each array, bit for bit; NaN
    where it refuses a sum that overflows, or inf - inf.  A block of at
    least :data:`_CASCADE_ROWS` rows is summed by :func:`_cascade`, and only
    the rows it does not certify go to ``fsum``."""
    out = []
    for a in arrays:
        rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
        if len(rows) < _CASCADE_ROWS:
            sums = _fsum_rows(rows)
        else:
            sums, certified = _cascade(rows)
            redo = np.flatnonzero(~certified)
            if len(redo):
                sums[redo] = _fsum_rows(rows[redo])
        out.append(sums.reshape(a.shape[:-1]))
    return out


def _fsum_rows(rows: np.ndarray) -> np.ndarray:
    rows = rows.tolist()
    try:
        sums = list(map(fsum, rows))
    except (OverflowError, ValueError):
        sums = [_fsum_or_nan(row) for row in rows]
    return np.array(sums, dtype=np.float64)


def _fsum_or_nan(terms: list) -> float:
    try:
        return fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _two_sum(a: np.ndarray, x: np.ndarray, total: np.ndarray, error: np.ndarray,
             spare: np.ndarray) -> None:
    """TwoSum, into ``total`` and ``error``: ``total = a + x`` rounded and
    ``error`` its rounding error, so that ``total + error == a + x`` exactly
    (short of overflow).  ``spare`` is scratch; none of the three may share
    memory with ``a`` or ``x``."""
    np.add(a, x, out=total)
    np.subtract(total, a, out=spare)    # the part of x in total
    np.subtract(total, spare, out=error)  # the part of a in total
    np.subtract(a, error, out=error)
    np.subtract(x, spare, out=spare)
    np.add(error, spare, out=error)


@np.errstate(all="ignore")  # a row that is not finite is not certified
def _cascade(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sum of each row of an ``(R, w)`` block, and where it is
    certified to be the correctly rounded sum, which is ``math.fsum``'s.

    It is Sum2 of Ogita, Rump & Oishi ("Accurate sum and dot product", SIAM
    J. Sci. Comput. 26, 2005), the TwoSum cascade, run over the columns for
    every row at once.  TwoSum splits each running sum ``s + x`` into ``s``
    and its error ``q``, and a second TwoSum folds each ``q`` into ``qs``
    with a second-order error ``e``; then ``r, d = TwoSum(s, qs)``.  These
    are error-free, so the exact sum is ``r + d + sum(e)``, and ``r`` is its
    correctly rounded value, ties included, if every ``e`` is 0 (then
    ``r = RN(s + qs)`` of the exact sum); or if ``|d| + 2 sum|e|`` is below
    half the spacing from ``r`` toward zero, the smaller of ``r``'s two
    neighbour spacings (the factor 2 covers the roundings of ``sum|e|``,
    summed in floating point).

    A row is not certified where ``r`` is 0, whose sign ``fsum`` decides
    (it changed in Python 3.12), or where a term is not below ``2**1022 /
    w`` in magnitude: a NaN or inf, or a row near overflow, where ``fsum``'s
    own partial sums may overflow, as the cascade's cannot below that."""
    width = rows.shape[1]
    limit = 2.0**1022 / width
    count = len(rows)
    cols = rows.T.copy()  # contiguous columns, and buffers the cascade may overwrite
    s, t, q, spare, r = cols[0], np.empty(count), np.empty(count), np.empty(count), np.empty(count)
    qs = np.zeros(count)
    if width > 1:
        _two_sum(s, cols[1], t, qs, spare)
        s, t = t, s
    errors = np.empty((max(width - 2, 0), count))
    for x, e in zip(cols[2:], errors):
        _two_sum(s, x, t, q, spare)
        s, t = t, s
        _two_sum(qs, q, t, e, spare)
        qs, t = t, qs
    _two_sum(s, qs, r, q, spare)
    d = np.abs(q, out=q)
    bound = np.abs(errors, out=errors).sum(axis=0)
    certified = bound == 0.0
    certified |= d + 2.0 * bound < 0.5 * np.abs(r - np.nextafter(r, 0.0))
    certified &= r != 0.0
    if not (rows.max() < limit and rows.min() > -limit):
        certified &= (np.abs(rows) < limit).all(axis=1)
    return r, certified


def _margins(lhs_terms: np.ndarray, rhs_terms: np.ndarray, overflow, tol: float,
             refused: dict[int, str] | None = None) -> ScalarCheckResults:
    """The record of ``(T, F, L)`` and ``(T, F, R)`` terms under ``tol``,
    each side an ``fsum`` of its terms in order and the scale ``max(1, sum
    of the absolute terms)``.  A row is refused with the message
    ``refused`` gives it, or as an overflow where ``overflow`` marks it or
    where a side, margin or scale of one of its functions is not finite: a
    sum ``fsum`` refuses is NaN, and so is ``max(1, NaN)`` here, while a NaN
    term shows in the margin.

    A side whose terms are all ``>= 0`` is its own sum of absolute terms,
    so it is summed once: a -0.0 term can change only the sign of a zero
    sum, which ``max(1, ...)`` cannot see, and a NaN term fails the test."""
    lhs, rhs = _fsums(lhs_terms, rhs_terms)
    lhs_abs, rhs_abs = (total if (terms >= 0).all() else _fsums(np.abs(terms))[0]
                        for terms, total in ((lhs_terms, lhs), (rhs_terms, rhs)))
    with np.errstate(all="ignore"):  # inf - inf in a refused row
        margin = lhs - rhs
        scale = np.maximum(1.0, lhs_abs + rhs_abs)
        bad = overflow | ~(np.isfinite(margin) & np.isfinite(scale)).all(axis=1)
    overflowed = np.flatnonzero(bad).tolist() if bad.any() else []
    return ScalarCheckResults(lhs, rhs, margin, scale, tol,
                              {**dict.fromkeys(overflowed, _OVERFLOW), **(refused or {})})


def _like(family: str, term: str, status: str = "proven", **kwargs) -> FamilySpec:
    spec = FAMILIES[family]
    return FamilySpec(status, spec.needs, spec.valid, spec.sides, term=term, **kwargs)


def _odd_left(n, k, ell, m):
    # The alternating family with odd subset sizes on the left.
    lhs, rhs = _alternating(n, k, ell, m)
    return (lhs, rhs) if n % 2 else (rhs, lhs)


def _vasc(n, k, ell, m):
    # pop-pairs divided by n - 2.
    return tuple([Level(level.weight / (n - 2), level.subsets) for level in side]
                 for side in _pop_subsets(n, 2))


#: The one definition of every convex/norm suite, keyed by its
#: ``scalar-verify`` family name.
CONVEX_NORM_SUITES = {
    "norm-hlawka": _like("hlawka3", "norm"),
    "radu": FamilySpec(
        "proven", "n >= 3 and 2 <= k <= n",
        lambda n, k, ell, m: k is not None and 2 <= k <= n and n >= 3,
        lambda n, k, ell, m: _pop_subsets(n, k), term="norm"),
    "jensen": FamilySpec(
        "proven", "n >= 1", lambda n, k, ell, m: n >= 1,
        lambda n, k, ell, m: ([_level(n, 1)], [_level(n, n)]), term="mean"),
    "popoviciu": _like("hlawka3", "mean"),
    "vasc": FamilySpec("proven", "n >= 3", lambda n, k, ell, m: n >= 3, _vasc, term="mean"),
    "pcz": _like("pop-subsets", "mean"),
    "pop-levels-scalar": _like("pop-levels", "mean", status="evaluator", notes=(
        lambda n: ["evaluator-only: direction depends on (k, ell, m); margins reported only"])),
    "functional-hlawka": _like("hlawka3", "value", status="evaluator", notes=(
        lambda n: ["evaluator-only: convexity does not imply the functional form"])),
    "hlawka-pop": FamilySpec(
        "refuted", "n >= 3", lambda n, k, ell, m: n >= 3, _odd_left, term="mean",
        notes=lambda n: ["evaluator-only: alternating subset-mean pattern fails for n >= 4"]
        + ["interpretation: subset-size weights extrapolated beyond the n=4 instance"] * (n > 4)),
    "freudenthal": FamilySpec(
        "evaluator", "n >= 3", lambda n, k, ell, m: n >= 3, _odd_left, term="norm",
        notes=lambda n: ["evaluator-only: alternating norm sum fails for n >= 4"] * (n >= 4),
        proven_at=3),
}

#: Every ``scalar-verify`` family, name -> table entry: the operator
#: families, then the convex/norm suites.
SUITES = {**FAMILIES, **CONVEX_NORM_SUITES}


def suite_terms(suite: str, n: int, k=None, ell=None, m=None) -> tuple:
    """The ``(lhs, rhs)`` terms of a :data:`SUITES` entry over n inputs, each
    a ``(coefficient, subset)`` pair as :func:`_search_margin` reads it;
    :class:`InputError` if the parameters fail the entry's condition.
    Coefficients are rounded once per parameter set, so evaluating a term
    does no ``Fraction`` arithmetic.  Cached once per parameter set, however
    the call spells it.
    """
    return _suite_terms(suite, n, k, ell, m)


@lru_cache(maxsize=64)
def _suite_terms(suite: str, n: int, k, ell, m) -> tuple:
    spec = SUITES[suite]
    mean = spec.term == "mean"
    return tuple(
        tuple((float(level.weight * len(s) if mean else level.weight), s)
              for level in side for s in level.subsets)
        for side in checked_sides(suite, spec, n, k, ell, m))


@lru_cache(maxsize=64)
def _plan(suite: str, n: int, k=None, ell=None, m=None) -> tuple:
    """The distinct subsets of a suite's terms, as ``(size, (S, size)
    indices)`` groups by ascending size, and per side each term's column
    among them, in group order, with its coefficient.  The arrays are
    read-only, as every caller shares them."""
    def shared(values, dtype):
        arr = np.array(values, dtype=dtype)
        arr.flags.writeable = False
        return arr

    sides = suite_terms(suite, n, k, ell, m)
    distinct = sorted({s for side in sides for _, s in side}, key=lambda s: (len(s), s))
    column = {s: i for i, s in enumerate(distinct)}
    groups = tuple((size, shared(list(group), np.intp))
                   for size, group in groupby(distinct, key=len))
    return groups, tuple((shared([column[s] for _, s in side], np.intp),
                          shared([c for c, _ in side], np.float64)) for side in sides)


def _canonical(data: np.ndarray) -> np.ndarray:
    """Each row's inputs sorted: points ascending, vectors lexicographically,
    ties in input order, as Python's ``sorted`` orders them.

    A vector's place is the count of vectors before it: each pair of a row
    is compared at the first coordinate where they differ, so the sort
    holds one ``(T, dim)`` mask at a time, a small part of the row."""
    if data.ndim == 2:
        return np.sort(data, axis=1, kind="stable")
    rows = np.arange(len(data))
    place = np.zeros(data.shape[:2], dtype=np.intp)
    for i, j in combinations(range(data.shape[1]), 2):
        first = (data[:, i] != data[:, j]).argmax(axis=1)  # 0 where the two are equal
        j_first = data[rows, j, first] < data[rows, i, first]
        place[:, i] += j_first
        place[:, j] += ~j_first
    out = np.empty_like(data)
    np.put_along_axis(out, place[..., np.newaxis], data, axis=1)
    return out


def row_bytes(suite: str, n: int, dim: int | None, functions: int, k=None, ell=None,
              m=None) -> int:
    """About the bytes :func:`_terms` holds at once per row of a block: 64
    per function and term or input (images, terms and their absolute values,
    as float64 arrays and Python floats), and 16 per term and real
    coordinate of a subset sum (1 a point, ``dim`` a vector, ``2 dim^2`` a
    complex matrix).  tracemalloc measures 40 to 90 bytes per term and
    function on the benchmarked convex/norm suites, and 0.85 of this on a
    227-trial block of 4x4 ``det`` terms over 4 inputs (the stacked inputs,
    the subset sums and one 512 KiB block of the matrix function).  The
    sums (:func:`_fsums`) hold, for one side at a time, 16 bytes per term
    and function and about 50 more per function (the cascade's copy of the
    terms, its second-order errors and its vectors of one float a row),
    which the 64 per term and function covers: 0.22 and 0.13 of the row
    bytes at the peak of a 2000-row ``pcz`` and ``freudenthal`` block."""
    terms = sum(map(len, suite_terms(suite, n, k, ell, m)))
    term = SUITES[suite].term
    width = dim if term == "norm" else 2 * dim * dim if term is None else 1
    return 64 * functions * (terms + n) + 16 * terms * width


def _search_margin(suite: str, data: np.ndarray, fns=(None,), tol: float = DEFAULT_SCALAR_TOL,
                   *, k=None, ell=None, m=None) -> ScalarCheckResults:
    """The record of the convex/norm suite on every row of ``data``,
    ``(T, n)`` points or ``(T, n, dim)`` vectors, under every function of
    ``fns`` (``(None,)`` under the ``norm`` rule, which reads none) and
    ``tol``.  The one evaluator: every trial, search point and public
    evaluator goes through this name, which the benchmark's tracer times as
    ``scalar.evaluator``.

    Row by row it evaluates the one-input formula on the canonically sorted
    inputs, where a level of weight w and a subset S give one term:

    * ``norm``:  ``float(w) * ||sum of the vectors of S||``, one vector a row
    * ``value``: ``float(w) * f(the points of S added one by one)``
    * ``mean``:  ``float(w*|S|) * f(fsum(the points of S) / |S|)``, with the
      exact product ``w*|S|`` rounded once; an overflowing ``fsum`` refuses.

    Each side is the ``fsum`` of its terms.  The block keeps every bit: a
    singleton is its point and a pair's ``fsum`` is ``a + b``, both exact,
    and a larger subset's sum and each side are correctly rounded,
    ``math.fsum``'s bits, by error-free transforms with ``fsum`` as the
    fallback and the oracle (:func:`_fsums`); vector and value sums add
    left to right; a norm is ``sqrt`` of the ``ddot`` that
    ``np.linalg.norm`` calls, through a ``(1, d) @ (d, 1)`` matmul; and
    :meth:`ConvexFunction.over` gives the catalog's bits.  A row with an
    input that is not finite is refused.
    """
    data = np.asarray(data, dtype=np.float64)
    finite = np.isfinite(data).all(axis=tuple(range(1, data.ndim)))
    refused = {}
    if not finite.all():  # evaluated on zeros, and refused
        message = ("vector entries must be finite" if SUITES[suite].term == "norm"
                   else "points must be finite")
        refused = dict.fromkeys(np.flatnonzero(~finite).tolist(), message)
        data = np.where(finite.reshape(-1, *[1] * (data.ndim - 1)), data, 0.0)
    image = partial(_convex_norm_image, SUITES[suite].term, fns)
    return _margins(*_terms(suite, _canonical(data), image, k, ell, m), tol, refused)


def _convex_norm_image(term: str, fns, values: np.ndarray) -> np.ndarray:
    """The ``(T, F, S)`` images of subset values: norms under the ``norm``
    rule, else every function of ``fns``."""
    if term == "norm":
        norms = np.sqrt(values[..., np.newaxis, :] @ values[..., np.newaxis])
        return norms[:, np.newaxis, :, 0, 0]
    return np.array([f.over(values) for f in fns]).swapaxes(0, 1)


@np.errstate(all="ignore")
def _terms(suite: str, data: np.ndarray, image, k=None, ell=None, m=None) -> tuple:
    """The one term path of both ``scalar-verify`` routes: the terms of
    every row of finite ``(T, n, ...)`` inputs, in the order given, as
    ``(T, F, L)`` and ``(T, F, R)`` arrays (:func:`suite_terms` order), with
    ``image`` mapping each distinct subset's ``(T, S, ...)`` sum or mean to
    ``(T, F, S)``; and the ``mean`` rule's overflowed rows (else ``False``).
    An overflowing term is inf or NaN, for :func:`_margins` to refuse, and
    raises no warning."""
    term = SUITES[suite].term
    groups, ((li, lc), (ri, rc)) = _plan(suite, data.shape[1], k, ell, m)
    # Each size's sums are written into its columns of one array, member by
    # member left to right, and a mean's larger sums are fsum's.  The indices
    # are in range, and "clip" lets a contiguous ``out`` take them unbuffered.
    values = np.empty((len(data), sum(len(subsets) for _, subsets in groups), *data.shape[2:]),
                      dtype=data.dtype)
    lo = 0
    for size, subsets in groups:
        out, lo = values[:, lo:lo + len(subsets)], lo + len(subsets)
        if term == "mean" and size > 2:
            [total] = _fsums(data[:, subsets])
            np.divide(total, size, out=out)
            continue
        np.take(data, subsets[:, 0], axis=1, out=out, mode="clip")
        for j in range(1, size):
            np.add(out, np.take(data, subsets[:, j], axis=1), out=out)
        if term == "mean":
            np.divide(out, size, out=out)
    images = image(values)
    overflow = term == "mean" and ~np.isfinite(values).all(axis=1)
    return images[..., li] * lc, images[..., ri] * rc, overflow


def sample_shape(suite: str, n: int, dim: int, center=None) -> tuple[int, ...]:
    """The shape of a suite's seeded inputs: ``(n, dim)`` vectors under the
    norm rule, else ``n`` points; refused unless a ``center`` has one
    coordinate per entry."""
    shape = (n, dim) if SUITES[suite].term == "norm" else (n,)
    if center is not None and np.size(center) != math.prod(shape):
        raise InputError(f"center must have {math.prod(shape)} coordinates, got {np.size(center)}")
    return shape


def sample_inputs(suite: str, seeds: np.ndarray, n: int, dim: int, center,
                  radius) -> np.ndarray:
    """The seeded inputs of a suite for every seed of the uint64 array
    ``seeds``, one ``(T, *sample_shape)`` block whose row t holds the first
    draws of numpy's generator on ``PCG64(SeedSequence(seeds[t]))``, all
    formed in one :func:`~hlawka.linalg._draws` pass: standard Gaussian
    vectors under the norm rule, else uniform points in [-10, 10]; with a
    ``center`` (all coordinates, flat), the center plus uniform offsets in
    [-``radius``, ``radius``]."""
    shape = sample_shape(suite, n, dim, center)
    count = math.prod(shape)
    if center is None:
        draws = (_draws(seeds, count, "normal") if len(shape) == 2
                 else _draws(seeds, count, "uniform", -10.0, 10.0))
    else:
        with np.errstate(over="ignore"):  # inf, which the evaluator refuses
            draws = (np.asarray(center, dtype=np.float64).ravel()
                     + _draws(seeds, count, "uniform", -radius, radius))
    return draws.reshape(len(seeds), *shape)


def _one(suite: str, data, f: ConvexFunction | None = None, **levels) -> ScalarCheckResult:
    """One input of a suite, points or one vector a row, as a block of one."""
    arr = np.asarray(data, dtype=np.float64)
    if SUITES[suite].term != "norm":
        arr = arr.ravel()
    elif arr.ndim == 1:
        arr = arr[:, np.newaxis]
    elif arr.ndim != 2:
        raise InputError("expected a list of equal-length real vectors")
    results = _search_margin(suite, arr[np.newaxis], (f,), **levels)
    results.refuse_first()
    return results[0]


# ---------------------------------------------------------------------------
# Norm-space checks
# ---------------------------------------------------------------------------


def norm_hlawka(a, b, c) -> ScalarCheckResult:
    """||a+b+c|| + ||a|| + ||b|| + ||c||  vs  pairwise sums (Euclidean)."""
    return _one("norm-hlawka", [a, b, c])


def freudenthal_alternating(vectors) -> ScalarCheckResult:
    """Alternating sum of subset-sum norms; size-k subsets carry (-1)^(k-1).

    An evaluator only: the statement is known to fail for four or more
    vectors, so negative margins are findings, not errors.
    """
    return _one("freudenthal", vectors)


def radu_check(vectors, k: int) -> ScalarCheckResult:
    """Binomially weighted bound on the size-k subset-sum norms."""
    return _one("radu", vectors, k=k)


# ---------------------------------------------------------------------------
# Convex-function checks
# ---------------------------------------------------------------------------


def functional_hlawka(f: ConvexFunction, a: float, b: float, c: float) -> ScalarCheckResult:
    """f(a+b+c)+f(a)+f(b)+f(c) vs pair values.  Evaluator only: convexity
    does not guarantee a nonnegative margin."""
    return _one("functional-hlawka", [a, b, c], f)


def jensen_check(f: ConvexFunction, xs) -> ScalarCheckResult:
    """sum f(x_i)  vs  k f(mean)."""
    return _one("jensen", xs, f)


def popoviciu_check(f: ConvexFunction, x1: float, x2: float, x3: float) -> ScalarCheckResult:
    """f(x1)+f(x2)+f(x3)+3 f(mean)  vs  2 * (pairwise midpoint values)."""
    return _one("popoviciu", [x1, x2, x3], f)


def vasc_check(f: ConvexFunction, xs) -> ScalarCheckResult:
    """sum f(x_i) + (n/(n-2)) f(mean)  vs  (2/(n-2)) * midpoint values."""
    return _one("vasc", xs, f)


def pcz_check(f: ConvexFunction, xs, m: int) -> ScalarCheckResult:
    """C(n-2,m-1) sum f(x_i) + n C(n-2,m-2) f(mean)  vs  m * size-m subset means."""
    return _one("pcz", xs, f, m=m)


def pop_levels_scalar_eval(f: ConvexFunction, xs, k: int, ell: int, m: int) -> ScalarCheckResult:
    """Three-level subset-mean comparison with the tensor-sum weights.

    Measures only: the direction is known to depend on (k, ell, m), so no
    suite asserts a sign for this family.
    """
    return _one("pop-levels-scalar", xs, f, k=k, ell=ell, m=m)


def conjecture_hlawka_pop_eval(f: ConvexFunction, xs) -> ScalarCheckResult:
    """Alternating subset-mean pattern: size-k subsets contribute
    k * f(mean) to the LHS for odd k and to the RHS for even k.

    Fails for four points (margins may be negative); evaluator only.
    """
    return _one("hlawka-pop", xs, f)


#: The refuting input for the alternating subset-mean pattern at n=4 with
#: the absolute value: margin is exactly -2.
KNOWN_HLAWKA_POP_COUNTEREXAMPLE = (-10.0, 1.0, 1.0, 9.0)


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------


#: The ``counterexample`` families, keys of :data:`CONVEX_NORM_SUITES`, and
#: its strategies.
SEARCH_FAMILIES = ("freudenthal", "hlawka-pop")
SEARCH_STRATEGIES = ("random", "coordinate-descent")

#: The step sizes of a coordinate descent, largest first, and the sweeps it
#: makes at most at each step.
_DESCENT_STEPS = (4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625)
_MAX_SWEEPS = 20

#: The most a coordinate descent from one start may evaluate: its candidate
#: points times the row bytes of one.  One trial's descent takes about as
#: long as that product is large: ``counterexample --family freudenthal --n
#: 4 --strategy coordinate-descent --trials 1`` took 0.65 s at ``--dim
#: 60``, just within the budget, on a 2-vCPU host, and 9.0 s at ``--dim
#: 200`` with the budget lifted.
MAX_DESCENT_BYTES = 2**30


def check_descent_bytes(suite: str, n: int, dim: int, row: int) -> None:
    """Raise :class:`BudgetError` if the candidates of one descent, the start
    and two per coordinate in each sweep of each step, times ``row`` bytes
    each exceed :data:`MAX_DESCENT_BYTES`."""
    coordinates = math.prod(sample_shape(suite, n, dim))
    candidates = 1 + len(_DESCENT_STEPS) * _MAX_SWEEPS * 2 * coordinates
    if candidates * row > MAX_DESCENT_BYTES:
        raise BudgetError(f"coordinate descent of one trial: {candidates} candidates of {row} "
                          f"bytes = {candidates * row} bytes exceeds budget {MAX_DESCENT_BYTES}")


def _lockstep(suite: str, fn: ConvexFunction | None, starts: np.ndarray,
              rows: int) -> np.ndarray:
    """The point where the coordinate descent from each start of a block
    ends, every descent advanced in lockstep, ``rows`` candidates a round
    at most (at least one a descent).

    A descent greedily minimizes the margin one coordinate at a time under
    a shrinking step: each sweep tries coordinate i plus, then minus, the
    step from the current point, moves to a candidate whose margin is below
    the best by more than 1e-15, and sweeps again at the same step while a
    sweep moved it, :data:`_MAX_SWEEPS` times at most.  Its state is a row
    of arrays: point, best margin, step, sweep count, whether the sweep
    moved it, and the position of its next candidate in the sweep.

    Each round evaluates, as one block, the next ``max(1, rows // live)``
    candidates of each live descent's sweep, built from its current point.
    The first of its rows that is refused or improves decides: a refused
    candidate ends the descent there, so evaluating where the descents end
    refuses as descending from one start after another would, and an
    improving one moves the point, the rows after it being discarded.  A
    row's margin does not depend on its block, so every descent ends where
    it would alone."""
    points = np.array(starts, dtype=np.float64).reshape(len(starts), -1)
    sweep = 2 * points.shape[1]  # the candidates of a sweep
    first = _search_margin(suite, starts, (fn,))
    best = first.margin[:, 0].copy()
    live = np.ones(len(points), dtype=bool)
    live[list(first.refusals)] = False
    step, pos = np.zeros((2, len(points)), dtype=np.intp)
    sweeps = np.ones(len(points), dtype=np.intp)
    improved = np.zeros(len(points), dtype=bool)
    steps = np.array(_DESCENT_STEPS)
    going = np.flatnonzero(live)
    while len(going):
        take = np.minimum(sweep - pos[going], max(1, rows // len(going)))
        owner = np.repeat(going, take)
        at = pos[owner] + np.arange(len(owner)) - np.repeat(np.cumsum(take) - take, take)
        trials = points[owner]
        delta = steps[step[owner]]
        trials[np.arange(len(owner)), at // 2] += np.where(at % 2, -delta, delta)
        block = _search_margin(suite, trials.reshape(-1, *starts.shape[1:]), (fn,))
        refused = np.zeros(len(owner), dtype=bool)
        refused[list(block.refusals)] = True
        hit = np.flatnonzero(refused | (block.margin[:, 0] < best[owner] - 1e-15))
        hit = hit[np.unique(owner[hit], return_index=True)[1]]  # each descent's first
        pos[going] += take
        decided = owner[hit]
        pos[decided] = at[hit] + 1
        points[decided] = trials[hit]
        live[decided[refused[hit]]] = False
        moved = hit[~refused[hit]]
        best[owner[moved]] = block.margin[moved, 0]
        improved[owner[moved]] = True
        ended = going[live[going] & (pos[going] == sweep)]
        again = improved[ended] & (sweeps[ended] < _MAX_SWEEPS)
        sweeps[ended] = np.where(again, sweeps[ended] + 1, 1)
        step[ended[~again]] += 1
        live[ended[step[ended] == len(steps)]] = False
        improved[ended] = False
        pos[ended] = 0
        going = np.flatnonzero(live)
    return points.reshape(starts.shape)


def search_from(suite: str, fn: ConvexFunction | None, tol: float, starts: np.ndarray,
                descend: bool = False, rows: int | None = None
                ) -> list[tuple[int, list, ScalarCheckResult]]:
    """The counterexample search from every start point of a block, after a
    coordinate descent from each when ``descend`` is set, all advanced in
    lockstep (:func:`_lockstep`), ``rows`` candidates a round at most: by
    default as many as the starts, the rows of the block's own evaluation.

    Returns ``(row, inputs, result)`` for every point that violates, in row
    order: ``inputs`` are the values to report (one list per vector under
    the norm rule) and ``result`` a fresh evaluation of exactly those
    values, which must fail too.  A refused row refuses the block, the
    first one's message first.
    """
    points = _lockstep(suite, fn, starts, rows or len(starts)) if descend else starts
    block = _search_margin(suite, points, (fn,), tol)
    block.refuse_first()
    hits = np.flatnonzero(block.code[:, 0] == Verdict.FAILS.code)
    if not len(hits):
        return []
    # Fresh evaluation of the exact values we are about to report.
    inputs = points[hits].tolist()
    results = _search_margin(suite, np.array(inputs), (fn,), tol)
    return [(int(hits[i]), inputs[i], results[i])
            for i in np.flatnonzero(results.code[:, 0] == Verdict.FAILS.code).tolist()]
