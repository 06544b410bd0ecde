"""Scalar and norm-space inequality evaluators and counterexample search.

Margins are always LHS - RHS; a check "holds" when the margin is at worst
-1e-12 relative to the magnitude scale of its own terms.  Two kinds of
evaluator live here:

* proven inequalities (triangle/Hlawka norm inequalities, Jensen,
  Popoviciu and its generalizations) whose margins the trial suites
  assert nonnegative, and
* plain evaluators for statements that are conjectural or known to fail
  (the functional Hlawka form, the alternating norm sum, the alternating
  subset-mean pattern), which only measure.

Every suite is one entry of :data:`CONVEX_NORM_SUITES`: the levels of an
operator family of :mod:`hlawka.sums` (exact weights times index subsets)
and a term rule mapping a subset of the inputs to a norm or a value of f.
One evaluator reads the table, and the public evaluators are wrappers
over it.  Inputs are canonically sorted first, so permuting them cannot
change a single bit of the result, and each side is summed with
``math.fsum``, so algebraically equal expressions agree exactly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from math import fsum
from operator import add

import numpy as np

from .errors import InputError
from .sums import FAMILIES, Level, OperatorFamily, checked_sides
from .sums import _alternating, _level, _pop_subsets
from .util import derive_seed

#: Default relative tolerance deciding whether a scalar margin "holds".
DEFAULT_SCALAR_TOL = 1e-12

CONVEX_KINDS = ("abs", "square", "fourth", "exp", "relu", "softplus")


@dataclass(frozen=True)
class ConvexFunction:
    """One of a fixed catalog of convex functions on the real line.

    ``shift`` and ``scale`` pre-compose an affine map, f(x) =
    base(scale * (x - shift)), which preserves convexity for any values.
    The catalog is fixed because convexity of arbitrary user code cannot
    be verified.
    """

    kind: str
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CONVEX_KINDS:
            raise InputError(f"unknown convex function {self.kind!r}; choose from {CONVEX_KINDS}")

    def __call__(self, x: float) -> float:
        y = self.scale * (float(x) - self.shift)
        if self.kind == "abs":
            return abs(y)
        if self.kind == "square":
            return y * y
        if self.kind == "fourth":
            return y**4
        if self.kind == "exp":
            return math.exp(y)
        if self.kind == "relu":
            return y if y > 0.0 else 0.0
        # softplus, evaluated stably on both tails
        if y > 0.0:
            return y + math.log1p(math.exp(-y))
        return math.log1p(math.exp(y))


def convex_catalog() -> tuple[ConvexFunction, ...]:
    return tuple(ConvexFunction(kind) for kind in CONVEX_KINDS)


@dataclass(frozen=True)
class ScalarCheckResult:
    lhs: float
    rhs: float
    margin: float
    scale: float
    holds: bool


def _result(lhs_terms, rhs_terms, tol: float = DEFAULT_SCALAR_TOL) -> ScalarCheckResult:
    lhs_terms = list(lhs_terms)
    rhs_terms = list(rhs_terms)
    lhs = fsum(lhs_terms)
    rhs = fsum(rhs_terms)
    margin = lhs - rhs
    scale = max(1.0, fsum(abs(t) for t in lhs_terms) + fsum(abs(t) for t in rhs_terms))
    return ScalarCheckResult(lhs=lhs, rhs=rhs, margin=margin, scale=scale, holds=margin >= -tol * scale)


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


@dataclass(frozen=True)
class ConvexNormSuite:
    """One convex/norm suite: ``needs``, ``valid`` and ``sides`` as in
    :class:`~hlawka.sums.FamilySpec`, and the ``term`` rule that maps a level
    of weight w and a subset S of the sorted inputs to one term:

    * ``norm``:  ``float(w) * ||sum of the vectors of S||``
    * ``value``: ``float(w) * f(the points of S added one by one)``
    * ``mean``:  ``float(w*|S|) * f(fsum(the points of S) / |S|)``, with the
      exact product ``w*|S|`` rounded once.
    """

    term: str
    needs: str
    valid: Callable[..., bool]
    sides: Callable[..., tuple[list[Level], list[Level]]]


def _like(family: OperatorFamily, term: str) -> ConvexNormSuite:
    spec = FAMILIES[family]
    return ConvexNormSuite(term, spec.needs, spec.valid, spec.sides)


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
    "norm-hlawka": _like(OperatorFamily.HLAWKA3, "norm"),
    "radu": ConvexNormSuite(
        "norm", "n >= 3 and 2 <= k <= n",
        lambda n, k, ell, m: k is not None and 2 <= k <= n and n >= 3,
        lambda n, k, ell, m: _pop_subsets(n, k)),
    "jensen": ConvexNormSuite(
        "mean", "n >= 1", lambda n, k, ell, m: n >= 1,
        lambda n, k, ell, m: ([_level(n, 1)], [_level(n, n)])),
    "popoviciu": _like(OperatorFamily.HLAWKA3, "mean"),
    "vasc": ConvexNormSuite("mean", "n >= 3", lambda n, k, ell, m: n >= 3, _vasc),
    "pcz": _like(OperatorFamily.POP_SUBSETS, "mean"),
    "pop-levels-scalar": _like(OperatorFamily.POP_LEVELS, "mean"),
    "functional-hlawka": _like(OperatorFamily.HLAWKA3, "value"),
    "hlawka-pop": ConvexNormSuite("mean", "n >= 3", lambda n, k, ell, m: n >= 3, _odd_left),
    "freudenthal": ConvexNormSuite("norm", "n >= 3", lambda n, k, ell, m: n >= 3, _odd_left),
}


@lru_cache(maxsize=64)
def suite_terms(suite: str, n: int, k=None, ell=None, m=None) -> tuple:
    """The ``(lhs, rhs)`` terms of a convex/norm suite over n inputs, each a
    ``(coefficient, subset)`` pair; :class:`InputError` if the parameters
    fail the suite's condition.  Coefficients are rounded once per
    parameter set, so evaluating a term does no ``Fraction`` arithmetic.
    """
    spec = CONVEX_NORM_SUITES[suite]
    mean = spec.term == "mean"
    return tuple(
        tuple((float(level.weight * len(s) if mean else level.weight), s)
              for level in side for s in level.subsets)
        for side in checked_sides(suite, spec, n, k, ell, m))


def _evaluate(suite: str, data, f: ConvexFunction | None = None, *, k=None, ell=None, m=None,
              ord: float = 2) -> ScalarCheckResult:
    """The convex/norm suite on canonically sorted ``data``: vectors, one
    per row, under the norm rule and points under the other two."""
    term = CONVEX_NORM_SUITES[suite].term
    if term == "norm":
        arr = _sorted_vectors(data)
        sides = suite_terms(suite, arr.shape[0], k, ell, m)
        return _result(*([c * float(np.linalg.norm(arr[list(s)].sum(axis=0), ord))
                          for c, s in side] for side in sides))
    pts = _sorted_points(data)
    sides = suite_terms(suite, len(pts), k, ell, m)
    if term == "value":
        return _result(*([c * f(reduce(add, map(pts.__getitem__, s))) for c, s in side]
                         for side in sides))
    return _result(*([c * f(fsum(map(pts.__getitem__, s)) / len(s)) for c, s in side]
                     for side in sides))


# ---------------------------------------------------------------------------
# Norm-space checks
# ---------------------------------------------------------------------------


def norm_hlawka(a, b, c, ord: float = 2) -> ScalarCheckResult:
    """||a+b+c|| + ||a|| + ||b|| + ||c||  vs  pairwise sums."""
    return _evaluate("norm-hlawka", [a, b, c], ord=ord)


def freudenthal_alternating(vectors, ord: float = 2) -> ScalarCheckResult:
    """Alternating sum of subset-sum norms; size-k subsets carry (-1)^(k-1).

    An evaluator only: the statement is known to fail for four or more
    vectors, so negative margins are findings, not errors.
    """
    return _evaluate("freudenthal", vectors, ord=ord)


def radu_check(vectors, k: int, ord: float = 2) -> ScalarCheckResult:
    """Binomially weighted bound on the size-k subset-sum norms."""
    return _evaluate("radu", vectors, k=k, ord=ord)


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


class SearchFamily(Enum):
    FREUDENTHAL = "freudenthal"
    HLAWKA_POP = "hlawka-pop"


class SearchStrategy(Enum):
    RANDOM = "random"
    COORDINATE_DESCENT = "coordinate-descent"


@dataclass(frozen=True)
class SearchConfig:
    n: int
    dim: int = 2
    trials: int = 1000
    seed: int = 0
    strategy: SearchStrategy = SearchStrategy.RANDOM
    fn: ConvexFunction = field(default_factory=lambda: ConvexFunction("abs"))
    include_known: bool = False
    center: tuple[float, ...] | None = None
    radius: float = 2.0
    ord: float = 2


@dataclass(frozen=True)
class SearchViolation:
    trial_index: int
    seed: int
    inputs: tuple
    margin: float
    scale: float


def _search_margin(family: SearchFamily, cfg: SearchConfig, point: np.ndarray) -> ScalarCheckResult:
    # One input per row: a vector for freudenthal, a point for hlawka-pop.
    return _evaluate(family.value, point.reshape(cfg.n, -1), cfg.fn, ord=cfg.ord)


def _flat_size(family: SearchFamily, cfg: SearchConfig) -> int:
    return cfg.n * cfg.dim if family is SearchFamily.FREUDENTHAL else cfg.n


def _sample_point(family: SearchFamily, cfg: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    size = _flat_size(family, cfg)
    if cfg.center is not None:
        center = np.asarray(cfg.center, dtype=np.float64)
        if center.size != size:
            raise InputError(f"center must have {size} coordinates, got {center.size}")
        return center + rng.uniform(-cfg.radius, cfg.radius, size)
    if family is SearchFamily.FREUDENTHAL:
        return rng.standard_normal(size)
    return rng.uniform(-10.0, 10.0, size)


def _coordinate_descent(
    family: SearchFamily, cfg: SearchConfig, start: np.ndarray
) -> np.ndarray:
    # Greedy per-coordinate minimization of the margin with a shrinking
    # step schedule; deterministic given the start point.
    point = start.copy()
    best = _search_margin(family, cfg, point).margin
    for step in (4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625):
        improved = True
        sweeps = 0
        while improved and sweeps < 20:
            improved = False
            sweeps += 1
            for i in range(point.size):
                for delta in (step, -step):
                    trial = point.copy()
                    trial[i] += delta
                    margin = _search_margin(family, cfg, trial).margin
                    if margin < best - 1e-15:
                        best = margin
                        point = trial
                        improved = True
    return point


def counterexample_search(family: SearchFamily, cfg: SearchConfig) -> list[SearchViolation]:
    """Search for inputs with a genuinely negative margin.

    Deterministic under the seed: trial t uses the seed derived from
    (seed, t), so results do not depend on execution order.  Every
    candidate is re-verified by a fresh evaluation of its rounded inputs
    before being reported.  An empty result is a valid outcome.
    """
    suite_terms(family.value, cfg.n)  # a parameter fault stops the search here
    violations: list[SearchViolation] = []
    for t in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, t)
        rng = np.random.default_rng(trial_seed)
        if t == 0 and cfg.include_known and family is SearchFamily.HLAWKA_POP and cfg.n == 4:
            point = np.asarray(KNOWN_HLAWKA_POP_COUNTEREXAMPLE)
        else:
            point = _sample_point(family, cfg, rng)
        if cfg.strategy is SearchStrategy.COORDINATE_DESCENT:
            point = _coordinate_descent(family, cfg, point)
        candidate = _search_margin(family, cfg, point)
        if candidate.margin >= -DEFAULT_SCALAR_TOL * candidate.scale:
            continue
        # Fresh evaluation of the exact values we are about to report.
        inputs = tuple(float(x) for x in point.ravel())
        confirmed = _search_margin(family, cfg, np.asarray(inputs))
        if confirmed.margin < -DEFAULT_SCALAR_TOL * confirmed.scale:
            if family is SearchFamily.FREUDENTHAL:
                reported: tuple = tuple(
                    tuple(row) for row in np.asarray(inputs).reshape(cfg.n, cfg.dim)
                )
            else:
                reported = inputs
            violations.append(
                SearchViolation(
                    trial_index=t,
                    seed=trial_seed,
                    inputs=reported,
                    margin=confirmed.margin,
                    scale=confirmed.scale,
                )
            )
    return violations
