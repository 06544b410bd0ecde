"""Trial-suite drivers behind the CLI subcommands.

Every ``scalar-verify`` family is one :class:`~hlawka.sums.FamilySpec` of
:data:`~hlawka.scalar.SUITES`, an operator family (also a ``verify``
suite) or a convex/norm suite, and the entry sets its flags and exit rule.
Each runner turns its suite into per-trial records, and :func:`_run`, the
one trial loop, assembles them into a :class:`~hlawka.report.TrialReport`
plus a process exit code: 0 for success, 1 when a violation is found in a
family whose inequality is established (or a refutation is confirmed), 2
for usage errors, 3 for budget refusals (the latter two are raised as
exceptions and mapped by the CLI).  ``counterexample`` runs on the same
:class:`RunConfig` in a loop of its own, :func:`counterexample_search`,
and a completed search exits 0.  Every route checks its settings in
:func:`_check_run` before its first trial.

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
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import (
    DEFAULT_LOEWNER_TOL,
    DEFAULT_MAX_TENSOR_DIM,
    HermitianStack,
    PdBatchConfig,
    Verdict,
    _generators,
    band_verdict,
    check_tensor_budget,
    min_eigenvalue,
    psd_certificate,
    random_pd,
)
from .matfunc import DEFAULT_SCALAR_MATRIX_TOL, parse_character_selector, scalar_inequality_check
from .report import TrialReport
from .scalar import (
    DEFAULT_SCALAR_TOL,
    KNOWN_HLAWKA_POP_COUNTEREXAMPLE,
    SEARCH_FAMILIES,
    SEARCH_STRATEGIES,
    SUITES,
    ConvexFunction,
    conjecture_hlawka_pop_eval,
    convex_catalog,
    freudenthal_alternating,
    functional_hlawka,
    jensen_check,
    norm_hlawka,
    pcz_check,
    pop_levels_scalar_eval,
    popoviciu_check,
    radu_check,
    sample_inputs,
    sample_shape,
    search_from,
    suite_terms,
    vasc_check,
)
from .sums import FamilySpec, OperatorFamily, build_difference
from .symgroup import MAX_SYMMETRIC_DEGREE
from .util import derive_seed

#: Byte budget of the largest array stacked over one chunk of trials.  Big
#: enough to amortize per-call overhead on small tuples; a trial over budget
#: runs alone, allocating what a single-trial run allocates.
CHUNK_BYTES = 128 * 1024

#: Bytes per complex128 entry.
_ENTRY_BYTES = 16


@dataclass
class RunConfig:
    """The settings of one run: each flag of a trial subcommand sets one field."""

    family: str
    n: int = 3
    p: int = 3
    dim: int = 2
    trials: int = 100
    seed: int = 0
    tol: float | None = None
    max_tensor_dim: int = DEFAULT_MAX_TENSOR_DIM
    condition_target: float = 10.0
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


# ``evaluate(cfg, fn, data)`` of each convex/norm suite.  Evaluators are looked
# up by name when called, so every trial goes through the names bound here.
_EVALUATORS = {
    "norm-hlawka": lambda cfg, fn, v: norm_hlawka(*v),
    "radu": lambda cfg, fn, v: radu_check(v, cfg.k),
    "jensen": lambda cfg, fn, x: jensen_check(fn, x),
    "popoviciu": lambda cfg, fn, x: popoviciu_check(fn, *x),
    "vasc": lambda cfg, fn, x: vasc_check(fn, x),
    "pcz": lambda cfg, fn, x: pcz_check(fn, x, cfg.m),
    "pop-levels-scalar": lambda cfg, fn, x: pop_levels_scalar_eval(fn, x, cfg.k, cfg.ell, cfg.m),
    "functional-hlawka": lambda cfg, fn, x: functional_hlawka(fn, *x),
    "hlawka-pop": lambda cfg, fn, x: conjecture_hlawka_pop_eval(fn, x),
    "freudenthal": lambda cfg, fn, v: freudenthal_alternating(v),
}


def _tolerance(cfg: RunConfig, default: float) -> float:
    """The run's tolerance: ``cfg.tol`` or the suite's default, refused
    unless finite and >= 0 (a NaN or negative band fails every verdict, an
    infinite one passes every verdict)."""
    tol = default if cfg.tol is None else cfg.tol
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and >= 0, got {tol}")
    return tol


def _check_run(cfg: RunConfig, trials: int) -> None:
    """The settings check every route makes before its first trial: refuse
    a negative trial count, a seed outside [0, 2**64), a dimension below 1
    and a ``center`` region that cannot be sampled."""
    if trials < 0:
        raise InputError("trials must be nonnegative")
    if not 0 <= cfg.seed < 2**64:
        raise InputError("seed must be a 64-bit unsigned integer")
    if cfg.dim < 1:
        raise InputError("dim must be a positive integer")
    if cfg.center is not None:
        # The offsets are drawn from [-radius, radius], a range 2 * radius wide.
        if not (cfg.radius >= 0 and math.isfinite(2 * cfg.radius)):
            raise InputError(f"radius must be >= 0 with 2 * radius finite, got {cfg.radius}")
        sample_shape(cfg.family, cfg.n, cfg.dim, cfg.center)


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


def _check_include_known(cfg: RunConfig, n: int | None = None) -> None:
    """Refuse ``include_known`` beside ``points`` or where it selects no
    input: the known input refutes hlawka-pop, and a search starts from it
    only at its size n."""
    wanted = "--family hlawka-pop" + (f" --n {n}" if n else "")
    got = f"--family {cfg.family}" + (f" --n {cfg.n}" if n else "")
    if cfg.include_known and got != wanted:
        raise InputError(f"--include-known applies only to {wanted}, got {got}")
    if cfg.include_known and cfg.points is not None:
        raise InputError("--include-known and --points select different inputs; give one")


def _operator_family(cfg: RunConfig) -> OperatorFamily:
    """The family of an operator suite, checked with its parameters before
    any trial runs."""
    try:
        family = OperatorFamily(cfg.family)
    except ValueError:
        raise InputError(f"unknown family {cfg.family!r}") from None
    _check_run(cfg, cfg.trials)
    suite_terms(family.value, cfg.n, cfg.k, cfg.ell, cfg.m)
    return family


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
    verdict)`` per trial of a chunk.
    """
    trial_bytes = _ENTRY_BYTES * max(largest, cfg.n * cfg.dim * cfg.dim)
    for seeds, inputs, parts in _sampled_chunks(cfg, cfg.n, trial_bytes):
        for t, (seed, (margin, verdict)) in enumerate(zip(seeds, check(inputs, parts))):
            yield [(None, margin, verdict)], (
                lambda kind, worst, t=t, seed=seed, parts=parts:
                {"inputsDigest": _tuple_digest(parts, t), margin_key: worst, "seed": seed})


def _run(report: TrialReport, spec: FamilySpec, n: int, records) -> tuple[TrialReport, int]:
    """The one trial loop: fill ``report`` from per-trial records.

    A record is ``(outcomes, violation)``: one ``(function kind or None,
    margin, verdict)`` per evaluated function, and ``violation(kind,
    margin)``, the report entry of the trial's worst outcome.  A trial is
    an equality case when all its outcomes are EQUALITY, and it yields one
    violation entry when its worst outcome FAILS, so violations never
    outnumber trials.  The report's flags are the notes of the table entry
    ``spec`` over n inputs, then the flags a record source learns while it
    runs.  A violation exits 1 under the ``spec.status`` ``proven`` or
    ``refuted``, or when n is ``spec.proven_at``.
    """
    start = time.perf_counter()
    for outcomes, violation in records:
        report.equality_cases += all(verdict is Verdict.EQUALITY for _, _, verdict in outcomes)
        kind, margin, verdict = min(outcomes, key=lambda outcome: outcome[1])
        if report.min_margin is None or margin < report.min_margin:
            report.min_margin = margin
        if verdict is Verdict.FAILS:
            report.violations.append(violation(kind, margin))
    report.interpretation_flags[:0] = spec.notes(n)
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    binding = spec.status in ("proven", "refuted") or n == spec.proven_at
    return report, 1 if report.violations and binding else 0


def _report(cfg: RunConfig, family: str, params: dict, tol: float, trials: int) -> TrialReport:
    return TrialReport(family=family, params=params, trials=trials, seed=cfg.seed,
                       tolerance_used=tol, min_margin=None, equality_cases=0, violations=[])


def run_verify(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Sample PD tuples, build the family difference, certify each trial."""
    family = _operator_family(cfg)
    side = check_tensor_budget(cfg.dim, cfg.p, cfg.max_tensor_dim)
    tol = _tolerance(cfg, DEFAULT_LOEWNER_TOL)
    report = _report(cfg, cfg.family, {
        "n": cfg.n, "p": cfg.p, "dim": cfg.dim, "conditionTarget": cfg.condition_target,
        "maxTensorDim": cfg.max_tensor_dim, **_given(cfg)}, tol, cfg.trials)
    flags = report.interpretation_flags
    psd_only = "psd-only-inputs: some inputs were not strictly positive definite"

    def certify(inputs, parts):
        # Not bound to a name: the chunk's differences are freed before the
        # next chunk builds its own.
        certs = psd_certificate(
            build_difference(family, parts, cfg.p, cfg.max_tensor_dim, **_given(cfg)), tol)
        if not (min_eigenvalue(inputs) > 1e-12).all() and psd_only not in flags:
            flags.append(psd_only)
        return [(c.min_eigenvalue, c.verdict) for c in certs]

    return _run(report, SUITES[cfg.family], cfg.n,
                _matrix_trials(cfg, side * side, certify, "minEigenvalue"))


def run_scalar_verify(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Scalar suites: either the d-image of an operator family (choose a
    character with --char) or one of the convex/norm evaluators."""
    _check_include_known(cfg)
    if cfg.family in _EVALUATORS:
        return _run_convex_norm(cfg, SUITES[cfg.family])
    if cfg.points is not None:
        raise InputError(f"--points applies only to a convex/norm family, "
                         f"got --family {cfg.family}")
    family = _operator_family(cfg)
    group, chi = parse_character_selector(cfg.char, cfg.dim)
    tol = _tolerance(cfg, DEFAULT_SCALAR_MATRIX_TOL)
    report = _report(cfg, f"{cfg.family}[{cfg.char}]", {
        "n": cfg.n, "dim": cfg.dim, "char": cfg.char,
        "conditionTarget": cfg.condition_target}, tol, cfg.trials)

    def check(inputs, parts):
        return [(r.margin, r.verdict)
                for r in scalar_inequality_check(family, parts, group, chi, tol, **_given(cfg))]

    # The largest stacked array is the (group order, degree) gather of one
    # generalized matrix function per trial; orders beyond the guard are
    # refused when it runs.
    order = math.factorial(min(group.degree, MAX_SYMMETRIC_DEGREE + 1))
    return _run(report, SUITES[cfg.family], cfg.n,
                _matrix_trials(cfg, order * group.degree, check, "margin"))


def _run_convex_norm(cfg: RunConfig, suite: FamilySpec) -> tuple[TrialReport, int]:
    """A convex/norm suite on seeded inputs, or once on explicit inputs,
    which then set the reported tuple size and vector dimension."""
    tol = _tolerance(cfg, DEFAULT_SCALAR_TOL)
    vectors = suite.term == "norm"
    fns = [None]
    if not vectors:
        fns = list(convex_catalog()) if cfg.fn == "all" else [ConvexFunction(cfg.fn)]
    explicit = KNOWN_HLAWKA_POP_COUNTEREXAMPLE if cfg.include_known else cfg.points
    n = len(explicit) if (explicit is not None and not vectors) else cfg.n
    trials = 1 if explicit is not None else cfg.trials
    suite_terms(cfg.family, n, cfg.k, cfg.ell, cfg.m)  # a parameter fault stops the run here
    params = {"n": n, "dim": cfg.dim, "fn": cfg.fn, **_given(cfg)}
    if explicit is None:
        inputs = (sample_inputs(cfg.family, rng, n, cfg.dim)
                  for rng in _generators(derive_seed(cfg.seed, t) for t in range(trials)))
    else:
        data = np.asarray(explicit, dtype=np.float64)
        if vectors:
            if len(explicit) % n:
                raise InputError(f"--points length {len(explicit)} is not divisible by --n {n}")
            data = data.reshape(n, -1)
            params["dim"] = data.shape[1]
        params["points"] = data.ravel().tolist()
        inputs = [data]
    _check_run(cfg, trials)
    evaluate = _EVALUATORS[cfg.family]

    def records():
        for t, data in enumerate(inputs):
            results = [(fn.kind if fn else None, evaluate(cfg, fn, data)) for fn in fns]
            yield [(kind, r.margin, band_verdict(r.margin, abs(r.margin), r.scale, tol))
                   for kind, r in results], (
                lambda kind, worst, data=data, t=t: {
                    "inputsDigest": _data_digest(data), "margin": worst,
                    "seed": derive_seed(cfg.seed, t),
                    "inputs": [float(x) for x in data.ravel()], **({"fn": kind} if kind else {})})

    return _run(_report(cfg, cfg.family, params, tol, trials), suite, n, records())


def counterexample_search(suite: str, cfg: RunConfig, fn: ConvexFunction,
                          tol: float) -> list[dict]:
    """The search's trial loop: the report entry of every confirmed find.

    Trial t starts from ``sample_inputs`` drawn from the seed derived from
    (seed, t), or under ``include_known`` trial 0 from the known refuting
    input; :func:`~hlawka.scalar.search_from` descends from it under the
    ``coordinate-descent`` strategy and re-verifies what it reports.  An
    empty list is a valid outcome.
    """
    suite_terms(suite, cfg.n)  # a parameter fault stops the search here
    descend = cfg.strategy == "coordinate-descent"
    found = []
    for t, rng in enumerate(_generators(derive_seed(cfg.seed, t) for t in range(cfg.trials))):
        if t == 0 and cfg.include_known:
            start = np.asarray(KNOWN_HLAWKA_POP_COUNTEREXAMPLE)
        else:
            start = sample_inputs(suite, rng, cfg.n, cfg.dim, cfg.center, cfg.radius)
        hit = search_from(suite, fn, tol, start, descend)
        if hit is not None:
            inputs, result = hit
            found.append({"inputsDigest": _data_digest(np.asarray(inputs)),
                          "margin": result.margin, "seed": derive_seed(cfg.seed, t),
                          "trialIndex": t, "inputs": [float(x) for x in np.ravel(inputs)]})
    return found


def run_counterexample(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Drive the counterexample search; completion always exits 0."""
    if cfg.family not in SEARCH_FAMILIES:
        raise InputError(f"counterexample family must be one of "
                         f"{list(SEARCH_FAMILIES)}, got {cfg.family!r}")
    if cfg.strategy not in SEARCH_STRATEGIES:
        raise InputError(f"unknown strategy {cfg.strategy!r}")
    _check_include_known(cfg, len(KNOWN_HLAWKA_POP_COUNTEREXAMPLE))
    fn = ConvexFunction(cfg.fn if cfg.fn != "all" else "abs")
    _check_run(cfg, cfg.trials)
    tol = _tolerance(cfg, DEFAULT_SCALAR_TOL)
    params = {"n": cfg.n, "dim": cfg.dim, "strategy": cfg.strategy, "fn": fn.kind,
              "includeKnown": cfg.include_known}
    if cfg.center is not None:
        params.update(center=list(cfg.center), radius=cfg.radius)
    report = _report(cfg, cfg.family, params, tol, cfg.trials)
    start = time.perf_counter()
    report.violations = counterexample_search(cfg.family, cfg, fn, tol)
    report.min_margin = min((v["margin"] for v in report.violations), default=None)
    report.interpretation_flags.append("search: violations are findings, re-verified before "
                                       "inclusion; an empty list is a valid outcome")
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    return report, 0
