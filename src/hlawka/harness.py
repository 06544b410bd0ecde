"""Trial-suite drivers behind the CLI subcommands.

Every ``scalar-verify`` family is one entry of :data:`SUITES`, giving its
sampler, evaluator, status and flags; the operator families among them are
also the ``verify`` suites.  Each runner turns its suite into per-trial
records, and :func:`_run`, the one trial loop, assembles them into a
:class:`~hlawka.report.TrialReport` plus a process exit code: 0 for
success, 1 when a violation is found in a family whose inequality is
established (or a refutation is confirmed), 2 for usage errors, 3 for
budget refusals (the latter two are raised as exceptions and mapped by the
CLI).

Per-trial seeds derive from (master seed, trial index), so how trials are
grouped cannot change any reported number.  The two operator suites run
their trials in chunks stacked on a leading axis: one sampling call, one
build and one certification (or one scalar check) per chunk, each bit for
bit the per-trial result.  A chunk holds as many trials as fit
``CHUNK_BYTES`` in its largest stacked array, and at least one.  Reports
are assembled in trial order.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import (
    DEFAULT_LOEWNER_TOL,
    DEFAULT_MAX_TENSOR_DIM,
    HermitianStack,
    PdBatchConfig,
    Verdict,
    check_tensor_budget,
    min_eigenvalue,
    psd_certificate,
    random_pd,
)
from .matfunc import parse_character_selector, scalar_inequality_check
from .report import TrialReport
from .scalar import (
    DEFAULT_SCALAR_TOL,
    KNOWN_HLAWKA_POP_COUNTEREXAMPLE,
    ConvexFunction,
    ScalarCheckResult,
    SearchConfig,
    SearchFamily,
    SearchStrategy,
    conjecture_hlawka_pop_eval,
    convex_catalog,
    counterexample_search,
    freudenthal_alternating,
    functional_hlawka,
    jensen_check,
    norm_hlawka,
    pcz_check,
    pop_levels_scalar_eval,
    popoviciu_check,
    radu_check,
    suite_terms,
    vasc_check,
)
from .sums import FAMILIES, OperatorFamily, TensorSumParams, build_difference, family_levels
from .symgroup import MAX_SYMMETRIC_DEGREE
from .util import derive_seed

DEFAULT_SCALAR_MATRIX_TOL = 1e-10

#: Byte budget of the largest array stacked over one chunk of trials.  Big
#: enough to amortize per-call overhead on small tuples; a trial over budget
#: runs alone, allocating what a single-trial run allocates.
CHUNK_BYTES = 128 * 1024

#: Bytes per complex128 entry.
_ENTRY_BYTES = 16

_EMPIRICAL_FLAG = "empirical-family: inequality not established; margins reported, not assumed"


@dataclass
class RunConfig:
    """Flat bag of knobs shared by the subcommands."""

    family: str
    n: int = 3
    p: int = 3
    dim: int = 2
    trials: int = 100
    seed: int = 0
    tol: float | None = None
    max_tensor_dim: int = DEFAULT_MAX_TENSOR_DIM
    condition_target: float = 10.0
    jobs: int = 1
    k: int | None = None
    ell: int | None = None
    m: int | None = None
    char: str = "det"
    fn: str = "all"
    strategy: str = "random"
    include_known: bool = False
    center: tuple[float, ...] | None = None
    radius: float = 2.0
    points: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Suite:
    """One ``scalar-verify`` family; the operator families serve ``verify`` too.

    ``sampler`` is ``matrices`` (seeded PD tuples, evaluated through the
    family table of :mod:`hlawka.sums`), ``points`` (uniform reals in
    [-10, 10], checked once per convex function) or ``vectors`` (Gaussian
    vectors of dimension ``--dim``); ``evaluate(cfg, fn, data)`` checks one
    trial of the latter two.  ``status`` is ``proven``, ``empirical``,
    ``evaluator`` or ``refuted``.  A violation exits 1 under ``proven`` and
    ``refuted``, and at the tuple size ``proven_at``, where an evaluator
    states a theorem.  ``notes(n)`` adds interpretation flags.
    """

    status: str
    sampler: str = "matrices"
    evaluate: Callable[..., ScalarCheckResult] | None = None
    notes: Callable[[int], list[str]] = lambda n: []
    proven_at: int | None = None


# The evaluators are looked up by name when called, so the names this module
# binds are the ones every trial goes through.
SUITES = {
    **{family.value: Suite(spec.status) for family, spec in FAMILIES.items()},
    "norm-hlawka": Suite("proven", "vectors", lambda cfg, fn, v: norm_hlawka(*v)),
    "radu": Suite("proven", "vectors", lambda cfg, fn, v: radu_check(v, cfg.k)),
    "jensen": Suite("proven", "points", lambda cfg, fn, x: jensen_check(fn, x)),
    "popoviciu": Suite("proven", "points", lambda cfg, fn, x: popoviciu_check(fn, *x)),
    "vasc": Suite("proven", "points", lambda cfg, fn, x: vasc_check(fn, x)),
    "pcz": Suite("proven", "points", lambda cfg, fn, x: pcz_check(fn, x, cfg.m)),
    "pop-levels-scalar": Suite(
        "evaluator", "points",
        lambda cfg, fn, x: pop_levels_scalar_eval(fn, x, cfg.k, cfg.ell, cfg.m),
        notes=lambda n: ["evaluator-only: direction depends on (k, ell, m); margins reported only"],
    ),
    "functional-hlawka": Suite(
        "evaluator", "points", lambda cfg, fn, x: functional_hlawka(fn, *x),
        notes=lambda n: ["evaluator-only: convexity does not imply the functional form"],
    ),
    "hlawka-pop": Suite(
        "refuted", "points", lambda cfg, fn, x: conjecture_hlawka_pop_eval(fn, x),
        notes=lambda n: ["evaluator-only: alternating subset-mean pattern fails for n >= 4"]
        + ["interpretation: subset-size weights extrapolated beyond the n=4 instance"] * (n > 4),
    ),
    "freudenthal": Suite(
        "evaluator", "vectors", lambda cfg, fn, v: freudenthal_alternating(v),
        notes=lambda n: ["evaluator-only: alternating norm sum fails for n >= 4"] * (n >= 4),
        proven_at=3,
    ),
}


def _check_loop(trials: int, jobs: int) -> None:
    if trials < 0:
        raise InputError("trials must be nonnegative")
    if jobs < 1:
        raise InputError("jobs must be >= 1")


def _tuple_digest(parts: list[HermitianStack], t: int) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(bytes.fromhex(part.digests[t]))
    return h.hexdigest()


def _data_digest(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data, dtype=np.float64).tobytes()).hexdigest()


def _given(cfg: RunConfig) -> dict:
    return {name: getattr(cfg, name) for name in ("k", "ell", "m")
            if getattr(cfg, name) is not None}


def _operator_family(cfg: RunConfig) -> tuple[OperatorFamily, TensorSumParams]:
    """The family and parameters of an operator suite, checked before any
    trial runs; the three-matrix families take no other n."""
    try:
        family = OperatorFamily(cfg.family)
    except ValueError:
        raise InputError(f"unknown operator family {cfg.family!r}") from None
    arity = FAMILIES[family].arity
    if arity is not None and cfg.n != arity:
        raise InputError(f"{cfg.family} takes exactly three matrices (got --n {cfg.n})")
    _check_loop(cfg.trials, cfg.jobs)
    params = TensorSumParams(n=cfg.n, p=cfg.p, k=cfg.k, ell=cfg.ell, m=cfg.m)
    family_levels(family, cfg.n, params)
    return family, params


def _sampled_chunks(cfg: RunConfig, n: int, trial_bytes: int):
    """Yield ``(trial seeds, all inputs, inputs by position)`` per chunk.

    Input ``i`` of trial ``t`` is sampled from ``derive_seed(seed_t, i)``;
    position ``i`` of every trial of the chunk forms one stack.
    """
    size = max(1, CHUNK_BYTES // max(1, trial_bytes))
    for lo in range(0, cfg.trials, size):
        seeds = [derive_seed(cfg.seed, t) for t in range(lo, min(cfg.trials, lo + size))]
        count = len(seeds)
        inputs = random_pd(PdBatchConfig(
            dim=cfg.dim,
            seeds=tuple(derive_seed(s, i) for i in range(n) for s in seeds),
            condition_target=cfg.condition_target,
        ))
        yield seeds, inputs, [inputs[i * count:(i + 1) * count] for i in range(n)]


def _matrix_trials(cfg: RunConfig, largest: int, check, margin_key: str):
    """Per-trial records of an operator suite.

    ``largest`` is the entry count of a trial's largest stacked array
    besides its inputs, and ``check(inputs, parts)`` gives one ``(margin,
    equal, fails)`` per trial of a chunk.
    """
    trial_bytes = _ENTRY_BYTES * max(largest, cfg.n * cfg.dim * cfg.dim)
    for seeds, inputs, parts in _sampled_chunks(cfg, cfg.n, trial_bytes):
        for t, (seed, (margin, equal, fails)) in enumerate(zip(seeds, check(inputs, parts))):
            yield [(None, margin, equal, fails)], (
                lambda kind, worst, t=t, seed=seed, parts=parts:
                {"inputsDigest": _tuple_digest(parts, t), margin_key: worst, "seed": seed})


def _run(cfg: RunConfig, suite: Suite, report: TrialReport, records) -> tuple[TrialReport, int]:
    """The one trial loop: fill ``report`` from per-trial records.

    A record is ``(outcomes, violation)``: one ``(function kind or None,
    margin, within the equality band, violates)`` per evaluated function,
    and ``violation(kind, margin)``, the report entry of the trial's worst
    outcome.  A trial counts as an equality case when all its outcomes are
    and yields at most one violation entry, so violations never outnumber
    trials.  Flags a record source learns while it runs go to the report's
    flags, after the suite's own.
    """
    start = time.perf_counter()
    margins = []
    for outcomes, violation in records:
        margins.extend(margin for _, margin, _, _ in outcomes)
        report.equality_cases += all(equal for _, _, equal, _ in outcomes)
        kind, margin, _, fails = min(outcomes, key=lambda outcome: outcome[1])
        if fails:
            report.violations.append(violation(kind, margin))
    report.min_margin = min(margins) if margins else None
    report.interpretation_flags[:0] = (
        [_EMPIRICAL_FLAG] * (suite.status == "empirical") + suite.notes(cfg.n))
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    binding = suite.status in ("proven", "refuted") or cfg.n == suite.proven_at
    return report, 1 if report.violations and binding else 0


def _report(cfg: RunConfig, family: str, params: dict, tol: float, trials: int) -> TrialReport:
    return TrialReport(family=family, params=params, trials=trials, seed=cfg.seed,
                       tolerance_used=tol, min_margin=None, equality_cases=0, violations=[])


def run_verify(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Sample PD tuples, build the family difference, certify each trial."""
    family, params = _operator_family(cfg)
    side = check_tensor_budget(cfg.dim, cfg.p, cfg.max_tensor_dim)
    tol = DEFAULT_LOEWNER_TOL if cfg.tol is None else cfg.tol
    report = _report(cfg, cfg.family, {
        "n": cfg.n, "p": cfg.p, "dim": cfg.dim, "conditionTarget": cfg.condition_target,
        "maxTensorDim": cfg.max_tensor_dim, **_given(cfg)}, tol, cfg.trials)
    flags = report.interpretation_flags
    psd_only = "psd-only-inputs: some inputs were not strictly positive definite"

    def certify(inputs, parts):
        # Not bound to a name: the chunk's differences are freed before the
        # next chunk builds its own.
        certs = psd_certificate(build_difference(family, parts, params, cfg.max_tensor_dim), tol)
        if not (min_eigenvalue(inputs) > 1e-12).all() and psd_only not in flags:
            flags.append(psd_only)
        return [(c.min_eigenvalue, c.verdict is Verdict.EQUALITY, c.verdict is Verdict.FAILS)
                for c in certs]

    return _run(cfg, SUITES[cfg.family], report,
                _matrix_trials(cfg, side * side, certify, "minEigenvalue"))


def run_scalar_verify(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Scalar suites: either the d-image of an operator family (choose a
    character with --char) or one of the convex/norm evaluators."""
    suite = SUITES.get(cfg.family)
    if suite is None:
        raise InputError(f"unknown scalar-verify family {cfg.family!r}")
    if suite.sampler != "matrices":
        return _run(cfg, suite, *_scalar_trials(cfg, suite))
    family, params = _operator_family(cfg)
    group, chi = parse_character_selector(cfg.char, cfg.dim)
    tol = DEFAULT_SCALAR_MATRIX_TOL if cfg.tol is None else cfg.tol
    report = _report(cfg, f"{cfg.family}[{cfg.char}]", {
        "n": cfg.n, "p": cfg.p, "dim": cfg.dim, "char": cfg.char,
        "conditionTarget": cfg.condition_target}, tol, cfg.trials)

    def check(inputs, parts):
        return [(r.margin, abs(r.margin) <= tol * r.scale, not r.holds)
                for r in scalar_inequality_check(family, parts, params, group, chi, tol)]

    # The largest stacked array is the (group order, degree) gather of one
    # generalized matrix function per trial; orders beyond the guard are
    # refused when it runs.
    order = math.factorial(min(group.degree, MAX_SYMMETRIC_DEGREE + 1))
    return _run(cfg, suite, report, _matrix_trials(cfg, order * group.degree, check, "margin"))


def _scalar_trials(cfg: RunConfig, suite: Suite) -> tuple[TrialReport, Iterator]:
    """The report header and per-trial records of a points or vectors suite."""
    tol = DEFAULT_SCALAR_TOL if cfg.tol is None else cfg.tol
    points = suite.sampler == "points"
    fns = [None]
    if points:
        fns = list(convex_catalog()) if cfg.fn == "all" else [ConvexFunction(cfg.fn)]
    explicit = cfg.points
    if cfg.include_known and cfg.family == "hlawka-pop":
        explicit = KNOWN_HLAWKA_POP_COUNTEREXAMPLE
    n = len(explicit) if (explicit is not None and points) else cfg.n
    trials = 1 if explicit is not None else cfg.trials
    suite_terms(cfg.family, n, cfg.k, cfg.ell, cfg.m)  # a parameter fault stops the run here
    if explicit is not None and not points and len(explicit) % cfg.n:
        raise InputError(f"--points length {len(explicit)} is not divisible by --n {cfg.n}")
    params = {"n": n, "dim": cfg.dim, "fn": cfg.fn, **_given(cfg)}
    if explicit is not None:
        params["points"] = [float(x) for x in np.asarray(explicit).ravel()]
    _check_loop(trials, cfg.jobs)

    def records():
        for t in range(trials):
            trial_seed = derive_seed(cfg.seed, t)
            if explicit is not None:
                data = np.asarray(explicit, dtype=np.float64)
                if not points:
                    data = data.reshape(cfg.n, -1)
            elif points:
                data = np.random.default_rng(trial_seed).uniform(-10.0, 10.0, n)
            else:
                data = np.random.default_rng(trial_seed).standard_normal((n, cfg.dim))
            results = [(fn.kind if fn else None, suite.evaluate(cfg, fn, data)) for fn in fns]
            yield [(kind, r.margin, abs(r.margin) <= tol * r.scale, r.margin < -tol * r.scale)
                   for kind, r in results], (
                lambda kind, worst, data=data, seed=trial_seed: {
                    "inputsDigest": _data_digest(data), "margin": worst, "seed": seed,
                    "inputs": [float(x) for x in data.ravel()], **({"fn": kind} if kind else {})})

    return _report(cfg, cfg.family, params, tol, trials), records()


def run_counterexample(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Drive the scalar counterexample search; completion always exits 0."""
    try:
        family = SearchFamily(cfg.family)
    except ValueError as exc:
        raise InputError(f"counterexample family must be one of "
                         f"{[f.value for f in SearchFamily]}, got {cfg.family!r}") from exc
    try:
        strategy = SearchStrategy(cfg.strategy)
    except ValueError as exc:
        raise InputError(f"unknown strategy {cfg.strategy!r}") from exc
    fn = ConvexFunction(cfg.fn if cfg.fn != "all" else "abs")
    _check_loop(cfg.trials, cfg.jobs)
    search_cfg = SearchConfig(
        n=cfg.n,
        dim=cfg.dim,
        trials=cfg.trials,
        seed=cfg.seed,
        strategy=strategy,
        fn=fn,
        include_known=cfg.include_known,
        center=cfg.center,
        radius=cfg.radius,
    )
    report = _report(cfg, cfg.family, {
        "n": cfg.n, "dim": cfg.dim, "strategy": strategy.value, "fn": fn.kind,
        "includeKnown": cfg.include_known}, DEFAULT_SCALAR_TOL, cfg.trials)
    start = time.perf_counter()
    found = counterexample_search(family, search_cfg)
    report.violations = [
        {
            "inputsDigest": _data_digest(np.asarray(v.inputs)),
            "margin": v.margin,
            "seed": v.seed,
            "trialIndex": v.trial_index,
            "inputs": [float(x) for x in np.asarray(v.inputs).ravel()],
        }
        for v in found
    ]
    report.min_margin = min((v.margin for v in found), default=None)
    report.interpretation_flags.append("search: violations are findings, re-verified before "
                                       "inclusion; an empty list is a valid outcome")
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    return report, 0
