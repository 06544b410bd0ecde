"""Scalar and norm-space inequality evaluators; the search from one start point.

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
families, and :func:`suite_terms` gives the terms of any entry to the one
evaluator here and to :mod:`hlawka.matfunc`.  The public evaluators are
wrappers over it.  Inputs are canonically sorted first, so permuting them
cannot change a single bit of the result, and each side is summed with
``math.fsum``, so algebraically equal expressions agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import fsum
from operator import add

import numpy as np

from .errors import InputError
from .linalg import Verdict, band_verdict
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


def _result(lhs_terms, rhs_terms, tol: float = DEFAULT_SCALAR_TOL) -> ScalarCheckResult:
    lhs_terms = list(lhs_terms)
    rhs_terms = list(rhs_terms)
    try:
        lhs = fsum(lhs_terms)
        rhs = fsum(rhs_terms)
        scale = max(1.0, fsum(abs(t) for t in lhs_terms) + fsum(abs(t) for t in rhs_terms))
    except (OverflowError, ValueError):  # fsum refuses an overflowing sum and inf - inf
        lhs = rhs = scale = math.inf
    margin = lhs - rhs
    # max(1, nan) is 1, so a NaN term shows only in the margin.
    if not (math.isfinite(margin) and math.isfinite(scale)):
        raise InputError("overflow: a term or a side of the inequality exceeds double precision")
    return ScalarCheckResult(lhs=lhs, rhs=rhs, margin=margin, scale=scale, tolerance=tol)


def _sorted_points(xs) -> list[float]:
    pts = np.asarray(xs, dtype=np.float64).ravel().tolist()
    if not all(math.isfinite(x) for x in pts):
        raise InputError("points must be finite")
    return sorted(pts)


def _sorted_vectors(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise InputError("expected a list of equal-length real vectors")
    if not np.isfinite(arr).all():
        raise InputError("vector entries must be finite")
    order = sorted(range(arr.shape[0]), key=lambda i: tuple(arr[i]))
    return arr[order]


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


@lru_cache(maxsize=64)
def suite_terms(suite: str, n: int, k=None, ell=None, m=None) -> tuple:
    """The ``(lhs, rhs)`` terms of a :data:`SUITES` entry over n inputs, each
    a ``(coefficient, subset)`` pair as :func:`_evaluate` reads it;
    :class:`InputError` if the parameters fail the entry's condition.
    Coefficients are rounded once per parameter set, so evaluating a term
    does no ``Fraction`` arithmetic.
    """
    spec = SUITES[suite]
    mean = spec.term == "mean"
    return tuple(
        tuple((float(level.weight * len(s) if mean else level.weight), s)
              for level in side for s in level.subsets)
        for side in checked_sides(suite, spec, n, k, ell, m))


def _evaluate(suite: str, data, f: ConvexFunction | None = None, *, k=None, ell=None, m=None,
              tol: float = DEFAULT_SCALAR_TOL) -> ScalarCheckResult:
    """The convex/norm suite on canonically sorted ``data``.  The ``term``
    rule maps a level of weight w and a subset S of the inputs to one term:

    * ``norm``:  ``float(w) * ||sum of the vectors of S||``, one vector a row
    * ``value``: ``float(w) * f(the points of S added one by one)``
    * ``mean``:  ``float(w*|S|) * f(fsum(the points of S) / |S|)``, with the
      exact product ``w*|S|`` rounded once; an overflowing ``fsum`` is an
      infinite term, which :func:`_result` refuses.
    """
    term = SUITES[suite].term
    if term == "norm":
        arr = _sorted_vectors(data)
        sides = suite_terms(suite, arr.shape[0], k, ell, m)
        with np.errstate(over="ignore", invalid="ignore"):  # _result refuses an inf term
            terms = [[c * float(np.linalg.norm(arr[list(s)].sum(axis=0))) for c, s in side]
                     for side in sides]
        return _result(*terms, tol)
    pts = _sorted_points(data)
    sides = suite_terms(suite, len(pts), k, ell, m)
    if term == "value":
        return _result(*([c * f(reduce(add, map(pts.__getitem__, s))) for c, s in side]
                         for side in sides), tol)
    try:
        terms = [[c * f(fsum(map(pts.__getitem__, s)) / len(s)) for c, s in side] for side in sides]
    except OverflowError:  # fsum refuses a subset sum beyond double precision
        terms = [[math.inf], []]
    return _result(*terms, tol)


def sample_shape(suite: str, n: int, dim: int, center=None) -> tuple[int, ...]:
    """The shape of a suite's seeded inputs: ``(n, dim)`` vectors under the
    norm rule, else ``n`` points; refused unless a ``center`` has one
    coordinate per entry."""
    shape = (n, dim) if SUITES[suite].term == "norm" else (n,)
    if center is not None and np.size(center) != math.prod(shape):
        raise InputError(f"center must have {math.prod(shape)} coordinates, got {np.size(center)}")
    return shape


def sample_inputs(suite: str, rng: np.random.Generator, n: int, dim: int,
                  center=None, radius: float = 2.0) -> np.ndarray:
    """Seeded inputs of a suite: standard Gaussian vectors under the norm
    rule, else uniform points in [-10, 10]; with a ``center`` (all
    coordinates, flat), the center plus uniform offsets in [-radius, radius]."""
    shape = sample_shape(suite, n, dim, center)
    if center is None:
        return rng.standard_normal(shape) if len(shape) == 2 else rng.uniform(-10.0, 10.0, shape)
    return np.asarray(center, dtype=np.float64).reshape(shape) + rng.uniform(-radius, radius, shape)


# ---------------------------------------------------------------------------
# Norm-space checks
# ---------------------------------------------------------------------------


def norm_hlawka(a, b, c) -> ScalarCheckResult:
    """||a+b+c|| + ||a|| + ||b|| + ||c||  vs  pairwise sums (Euclidean)."""
    return _evaluate("norm-hlawka", [a, b, c])


def freudenthal_alternating(vectors) -> ScalarCheckResult:
    """Alternating sum of subset-sum norms; size-k subsets carry (-1)^(k-1).

    An evaluator only: the statement is known to fail for four or more
    vectors, so negative margins are findings, not errors.
    """
    return _evaluate("freudenthal", vectors)


def radu_check(vectors, k: int) -> ScalarCheckResult:
    """Binomially weighted bound on the size-k subset-sum norms."""
    return _evaluate("radu", vectors, k=k)


# ---------------------------------------------------------------------------
# Convex-function checks
# ---------------------------------------------------------------------------


def functional_hlawka(f: ConvexFunction, a: float, b: float, c: float) -> ScalarCheckResult:
    """f(a+b+c)+f(a)+f(b)+f(c) vs pair values.  Evaluator only: convexity
    does not guarantee a nonnegative margin."""
    return _evaluate("functional-hlawka", [a, b, c], f)


def jensen_check(f: ConvexFunction, xs) -> ScalarCheckResult:
    """sum f(x_i)  vs  k f(mean)."""
    return _evaluate("jensen", xs, f)


def popoviciu_check(f: ConvexFunction, x1: float, x2: float, x3: float) -> ScalarCheckResult:
    """f(x1)+f(x2)+f(x3)+3 f(mean)  vs  2 * (pairwise midpoint values)."""
    return _evaluate("popoviciu", [x1, x2, x3], f)


def vasc_check(f: ConvexFunction, xs) -> ScalarCheckResult:
    """sum f(x_i) + (n/(n-2)) f(mean)  vs  (2/(n-2)) * midpoint values."""
    return _evaluate("vasc", xs, f)


def pcz_check(f: ConvexFunction, xs, m: int) -> ScalarCheckResult:
    """C(n-2,m-1) sum f(x_i) + n C(n-2,m-2) f(mean)  vs  m * size-m subset means."""
    return _evaluate("pcz", xs, f, m=m)


def pop_levels_scalar_eval(f: ConvexFunction, xs, k: int, ell: int, m: int) -> ScalarCheckResult:
    """Three-level subset-mean comparison with the tensor-sum weights.

    Measures only: the direction is known to depend on (k, ell, m), so no
    suite asserts a sign for this family.
    """
    return _evaluate("pop-levels-scalar", xs, f, k=k, ell=ell, m=m)


def conjecture_hlawka_pop_eval(f: ConvexFunction, xs) -> ScalarCheckResult:
    """Alternating subset-mean pattern: size-k subsets contribute
    k * f(mean) to the LHS for odd k and to the RHS for even k.

    Fails for four points (margins may be negative); evaluator only.
    """
    return _evaluate("hlawka-pop", xs, f)


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


def _search_margin(suite: str, fn: ConvexFunction, tol: float,
                   point: np.ndarray) -> ScalarCheckResult:
    # ``point`` is shaped as sample_inputs gives it.
    return _evaluate(suite, point, fn, tol=tol)


def _coordinate_descent(suite: str, fn: ConvexFunction, tol: float,
                        start: np.ndarray) -> np.ndarray:
    # Greedy per-coordinate minimization of the margin with a shrinking
    # step schedule; deterministic given the start point.
    point = start.copy()
    best = _search_margin(suite, fn, tol, point).margin
    for step in (4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625):
        improved = True
        sweeps = 0
        while improved and sweeps < 20:
            improved = False
            sweeps += 1
            for i in range(point.size):
                for delta in (step, -step):
                    trial = point.copy()
                    trial.flat[i] += delta
                    margin = _search_margin(suite, fn, tol, trial).margin
                    if margin < best - 1e-15:
                        best = margin
                        point = trial
                        improved = True
    return point


def search_from(suite: str, fn: ConvexFunction, tol: float, start: np.ndarray,
                descend: bool = False) -> tuple[list, ScalarCheckResult] | None:
    """One start point of the counterexample search, after a coordinate
    descent from it when ``descend`` is set.

    Returns ``(inputs, result)`` when the point violates: ``inputs`` are the
    values to report (one list per vector under the norm rule) and
    ``result`` a fresh evaluation of exactly those values, which must fail
    too.  Returns ``None`` otherwise.
    """
    point = _coordinate_descent(suite, fn, tol, start) if descend else start
    if _search_margin(suite, fn, tol, point).holds:
        return None
    # Fresh evaluation of the exact values we are about to report.
    inputs = point.tolist()
    confirmed = _search_margin(suite, fn, tol, np.array(inputs))
    return None if confirmed.holds else (inputs, confirmed)
