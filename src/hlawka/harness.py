"""Trial-suite drivers behind the CLI subcommands.

Every ``scalar-verify`` family is one :class:`~hlawka.sums.FamilySpec` of
:data:`~hlawka.scalar.SUITES`, an operator family (also a ``verify``
suite) or a convex/norm suite, and the entry sets its flags and exit rule.
Each runner turns each chunk of trials into one
:class:`~hlawka.linalg.VerdictRecord`, and :func:`_run`, the one trial
loop, assembles them into a :class:`~hlawka.report.TrialReport` plus a
process exit code: 0 for success, 1 when a violation is found in a
family whose inequality is established (or a refutation is confirmed), 2
for usage errors, 3 for budget refusals (the latter two are raised as
exceptions and mapped by the CLI).  ``counterexample`` runs on the same
:class:`RunConfig` in a loop of its own, :func:`counterexample_search`,
and a completed search exits 0.  Every run starts with one settings pass,
:func:`_settings`, over one table, :data:`_READS`, of the fields each
route reads and the value each takes when unset.

Per-trial seeds derive from (master seed, trial index), so how trials are
grouped cannot change any reported number.  One chunker, :func:`_chunks`,
splits the trials of every route and derives each chunk's trial seeds as
one uint64 array (:func:`~hlawka.util.derive_seeds`), the seeds every
route reports; a chunk holds as many trials as fit ``CHUNK_BYTES`` (2 MiB)
at :func:`_trial_bytes` a trial, the count the settings pass refuses over
budget, and at least one, and within it the kernels work in blocks of
:data:`~hlawka.sums.BLOCK_BYTES` (512 KiB).  Every route runs its chunks
stacked on a leading axis, each bit for bit the per-trial result: the two
operator suites take one sampling call (input i of a trial seeded from the
trial seed and i), one build and one certification (or one scalar check)
per chunk, every chunk of ``verify`` building in the run's one
:class:`~hlawka.sums.Workspace`, and the convex/norm suites and the search
one block evaluation per chunk (one sampling pass draws the chunk's
inputs; the search's descents one per round).  Reports are assembled in
trial order.
"""

from __future__ import annotations

import hashlib
import math
import re
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InputError
from .linalg import (
    DEFAULT_CONDITION_TARGET,
    DEFAULT_LOEWNER_TOL,
    DEFAULT_MAX_TENSOR_DIM,
    HermitianStack,
    Verdict,
    check_condition_target,
    check_tensor_budget,
    min_eigenvalue,
    psd_certificate,
    random_pd,
    sample_bytes,
)
from .matfunc import DEFAULT_SCALAR_MATRIX_TOL, parse_character_selector, scalar_inequality_check
from .report import TrialReport
from . import scalar
from .scalar import (
    CONVEX_KINDS,
    CONVEX_NORM_SUITES,
    DEFAULT_SCALAR_TOL,
    KNOWN_HLAWKA_POP_COUNTEREXAMPLE,
    SEARCH_FAMILIES,
    SEARCH_STRATEGIES,
    SUITES,
    ConvexFunction,
    check_descent_bytes,
    convex_catalog,
    row_bytes,
    sample_inputs,
    sample_shape,
    search_from,
    suite_terms,
)
# Bound here only for perfbench/tracing.py, which resolves them; ROADMAP item 6.
from .scalar import (
    conjecture_hlawka_pop_eval,
    freudenthal_alternating,
    functional_hlawka,
    jensen_check,
    norm_hlawka,
    pcz_check,
    pop_levels_scalar_eval,
    popoviciu_check,
    radu_check,
    vasc_check,
)
from .sums import (
    CHUNK_BYTES,
    FAMILIES,
    Workspace,
    build_difference,
    check_trial_bytes,
    working_set,
)
from .symgroup import check_symmetric_degree
from .util import derive_seeds


@dataclass
class RunConfig:
    """The settings of one run: each flag of a trial subcommand sets one
    field.  A field left ``None`` takes the value :data:`_READS` gives it on
    the route that runs, and a field set where that route does not read it
    is refused."""

    family: str
    n: int | None = None
    p: int | None = None
    dim: int | None = None
    trials: int = 100
    seed: int = 0
    tol: float | None = None
    max_tensor_dim: int | None = None
    condition_target: float | None = None
    k: int | None = None
    ell: int | None = None
    m: int | None = None
    char: str | None = None
    fn: str | None = None
    strategy: str | None = None
    include_known: bool | None = None
    center: tuple[float, ...] | None = None
    radius: float | None = None
    points: tuple[float, ...] | None = None


_LEVELS = {"k": None, "ell": None, "m": None}

#: Per route: the families it runs, its default tolerance, and the fields it
#: reads in report order, each with the value it takes when unset.  A level
#: is read only where the family's condition names it, ``dim`` on the
#: convex/norm and search routes only under the ``norm`` term and ``fn``
#: only outside it, ``radius`` only with a ``center`` and ``include_known``
#: only by ``hlawka-pop``.  Explicit ``points`` give the ``n`` of a point
#: suite and the ``dim`` of a vector suite.
#: ``seed``, ``trials`` and ``tol`` are read everywhere and reported outside
#: ``params``.
_READS = {
    "verify": (tuple(FAMILIES), DEFAULT_LOEWNER_TOL, {
        "n": 3, "p": 3, "dim": 2, "condition_target": DEFAULT_CONDITION_TARGET,
        "max_tensor_dim": DEFAULT_MAX_TENSOR_DIM, **_LEVELS}),
    "matrix": (tuple(FAMILIES), DEFAULT_SCALAR_MATRIX_TOL, {
        "n": 3, "dim": 3, "char": "det", "condition_target": DEFAULT_CONDITION_TARGET, **_LEVELS}),
    "convex": (tuple(CONVEX_NORM_SUITES), DEFAULT_SCALAR_TOL, {
        "n": 3, "dim": 3, "fn": "all", **_LEVELS, "include_known": False, "points": None}),
    "counterexample": (SEARCH_FAMILIES, DEFAULT_SCALAR_TOL, {
        "n": 4, "dim": 2, "strategy": "random", "fn": "abs", "include_known": False,
        "center": None, "radius": 2.0}),
}


def _settings(cfg: RunConfig, route: str) -> tuple[RunConfig, list[str]]:
    """The one settings pass of a run on ``route``, before its first trial
    and even at ``trials=0``: the resolved config and the fields read, in
    report order.  In this order it refuses a family the route does not run
    and a field set (not ``None``) that the route does not read for the
    family; fills every unset field read from :data:`_READS`; then refuses
    a negative trial count, a seed outside [0, 2**64), a ``dim`` below 1, a
    tolerance not finite and >= 0, a condition target not finite and >= 1,
    an unknown strategy, convex function or character, ``include_known``
    beside ``points`` or in a search at another n than the known input's,
    a ``center`` region that cannot be sampled, parameters the family's
    table entry refuses (explicit inputs set n and one trial first) and, as
    a budget error, a level of more subsets than
    :data:`~hlawka.sums.MAX_LEVEL_SUBSETS` (counted before any is listed),
    vectors that do not split into n rows (they set ``dim``), an ``n`` or
    ``dim`` set to another value than the given points or the known input
    give, and last, as budget errors, a tensor over ``max_tensor_dim``, a
    trial whose :func:`_trial_bytes` exceed
    :data:`~hlawka.sums.MAX_WORKING_SET_BYTES`, a coordinate descent whose
    candidates, that count each, exceed
    :data:`~hlawka.scalar.MAX_DESCENT_BYTES` and a group over the guard.
    """
    families, tol, row = _READS[route]
    if cfg.family not in families:
        raise InputError(f"--family must be one of {list(families)}, got {cfg.family!r}")
    spec = SUITES[cfg.family]
    only = {**{name: name in spec.levels for name in _LEVELS},
            "dim": route in ("verify", "matrix") or spec.term == "norm",
            "fn": spec.term != "norm",
            "radius": cfg.center is not None, "include_known": cfg.family == "hlawka-pop"}
    names = [name for name in row if only.get(name, True)]
    read = {"family", "seed", "trials", "tol", *names}
    for name in (field.name for field in fields(RunConfig)):
        if name not in read and getattr(cfg, name) is not None:
            flag = "max-dim" if name == "max_tensor_dim" else name.replace("_", "-")
            raise InputError(f"--{flag} is not read by --family {cfg.family}")
    given = cfg
    cfg = replace(cfg, tol=tol if cfg.tol is None else cfg.tol,
                  **{name: row[name] for name in names if getattr(cfg, name) is None})

    if cfg.trials < 0:
        raise InputError("trials must be nonnegative")
    if not 0 <= cfg.seed < 2**64:
        raise InputError("seed must be a 64-bit unsigned integer")
    if cfg.dim is not None and cfg.dim < 1:
        raise InputError("dim must be a positive integer")
    # A NaN or negative band fails every verdict, an infinite one passes every verdict.
    if not (math.isfinite(cfg.tol) and cfg.tol >= 0):
        raise InputError(f"tol must be finite and >= 0, got {cfg.tol}")
    if cfg.condition_target is not None:
        check_condition_target(cfg.condition_target)
    if cfg.strategy is not None and cfg.strategy not in SEARCH_STRATEGIES:
        raise InputError(f"unknown strategy {cfg.strategy!r}")
    if cfg.fn is not None and (cfg.fn != "all" or route == "counterexample"):
        ConvexFunction(cfg.fn)  # "all", the whole catalog, only on the convex/norm route
    if cfg.char is not None:
        parse_character_selector(cfg.char, cfg.dim)

    if cfg.include_known and cfg.points is not None:
        raise InputError("--include-known and --points select different inputs; give one")
    if cfg.include_known and route == "counterexample" and cfg.n != 4:
        # A search starts from the known input only at its size.
        raise InputError(f"--include-known applies only to --family hlawka-pop --n 4, "
                         f"got --family hlawka-pop --n {cfg.n}")
    if cfg.center is not None:
        # The offsets are drawn from [-radius, radius], a range 2 * radius wide.
        if not (cfg.radius >= 0 and math.isfinite(2 * cfg.radius)):
            raise InputError(f"radius must be >= 0 with 2 * radius finite, got {cfg.radius}")
        sample_shape(cfg.family, cfg.n, cfg.dim, cfg.center)

    if route == "convex" and (cfg.include_known or cfg.points is not None):
        points = KNOWN_HLAWKA_POP_COUNTEREXAMPLE if cfg.include_known else cfg.points
        cfg = replace(cfg, points=points, trials=1,
                      n=cfg.n if spec.term == "norm" else len(points))
    suite_terms(cfg.family, cfg.n, cfg.k, cfg.ell, cfg.m)
    if cfg.points is not None and spec.term == "norm":
        if len(cfg.points) % cfg.n:
            raise InputError(f"--points length {len(cfg.points)} is not divisible by --n {cfg.n}")
        cfg = replace(cfg, dim=len(cfg.points) // cfg.n)
    if cfg.points is not None:
        # Given points, or the known input --include-known stands for.
        source = ("--points, which give" if given.points is not None
                  else "--include-known, which gives")
        for name in ("n", "dim"):
            if getattr(given, name) not in (None, getattr(cfg, name)):
                raise InputError(f"--{name} {getattr(given, name)} disagrees with {source} "
                                 f"{name} {getattr(cfg, name)}")

    if cfg.p is not None:
        check_tensor_budget(cfg.dim, cfg.p, cfg.max_tensor_dim)
    trial_bytes = _trial_bytes(cfg, route)
    check_trial_bytes(trial_bytes)
    if cfg.strategy == "coordinate-descent":
        check_descent_bytes(cfg.family, cfg.n, cfg.dim, trial_bytes)
    if cfg.char is not None:
        check_symmetric_degree(cfg.dim)
    return cfg, names


def _tuple_digest(parts: list[HermitianStack], t: int) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(bytes.fromhex(part.digests[t]))
    return h.hexdigest()


def _data_digest(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data, dtype=np.float64).tobytes()).hexdigest()


def _chunk_trials(trial_bytes: int) -> int:
    """The trials of a full chunk: as many as fit ``CHUNK_BYTES`` at
    ``trial_bytes`` a trial, and at least one."""
    return max(1, CHUNK_BYTES // max(1, trial_bytes))


def _chunks(cfg: RunConfig, trial_bytes: int):
    """The one chunker: yield ``(first trial, trial seeds)`` per chunk of
    ``cfg.trials`` trials, the seeds of trials t derived from (seed, t) as
    a uint64 array, :func:`_chunk_trials` trials a chunk."""
    size = _chunk_trials(trial_bytes)
    for lo in range(0, cfg.trials, size):
        yield lo, derive_seeds(cfg.seed, np.arange(lo, min(cfg.trials, lo + size)))


def _trial_bytes(cfg: RunConfig, route: str) -> int:
    """The one count of the bytes a trial of ``route`` holds at once under
    the resolved ``cfg``, refused over budget and sizing every chunk and
    descent round: the larger of the route's count and its sampler's peak.
    The route's count is, on ``verify``, 16 (a complex128 entry) times the
    larger of the build's working set and the certificate's two differences
    (the difference and LAPACK's copy of it, held once the build's
    workspace is dropped), and elsewhere the row bytes of the whole catalog
    under ``fn`` "all", else of one function.  The sampler's peak is, on
    the operator routes, the larger of 16 times 9 n dim^2 and n times
    :func:`~hlawka.linalg.sample_bytes` of a sample's 2 dim^2 draws, which
    is larger at dims 1 and 2: tracemalloc reads one p 1 trial's sampling,
    canonical restack and ``min_eigenvalue`` at 7.0 to 8.6 times its n
    dim^2 input entries at dims 20 to 400, all inside
    :func:`~hlawka.linalg.random_pd`, and a full chunk's ``random_pd`` at
    8.2 to 8.6 times at dims 2 to 6 and 11.6 times at dim 1.  On the
    convex/norm and search routes it is ``sample_bytes`` of a trial's draws."""
    if route in ("verify", "matrix"):
        sampler = cfg.n * max(16 * 9 * cfg.dim**2, sample_bytes(2 * cfg.dim**2))
    else:
        sampler = sample_bytes(math.prod(sample_shape(cfg.family, cfg.n, cfg.dim)))
    if route == "verify":
        held = 16 * max(working_set(cfg.family, cfg.n, cfg.p, cfg.dim, k=cfg.k, ell=cfg.ell,
                                    m=cfg.m), 2 * cfg.dim ** (2 * cfg.p))
    else:
        functions = len(CONVEX_KINDS) if cfg.fn == "all" else 1
        held = row_bytes(cfg.family, cfg.n, cfg.dim, functions, cfg.k, cfg.ell, cfg.m)
    return max(held, sampler)


def _matrix_trials(cfg: RunConfig, trial_bytes: int, check, margin_key: str):
    """The ``(record, entry, kinds)`` of each chunk of an operator suite at
    ``trial_bytes`` a trial: ``check(inputs, parts)`` gives the record of
    every trial of a chunk, input i of trial t sampled from
    ``derive_seed(seed_t, i)`` and ``parts[i]`` stacking every trial's."""
    for _, seeds in _chunks(cfg, trial_bytes):
        count = len(seeds)
        inputs = random_pd(cfg.dim, derive_seeds(seeds, np.arange(cfg.n)[:, np.newaxis]).ravel(),
                           cfg.condition_target)
        parts = [inputs[i * count:(i + 1) * count] for i in range(cfg.n)]
        yield check(inputs, parts), lambda t, kind, worst, seeds=seeds, parts=parts: {
            "inputsDigest": _tuple_digest(parts, t), margin_key: worst,
            "seed": int(seeds[t])}, (None,)
        del inputs, parts  # not held while the next chunk is sampled


def _run(report: TrialReport, cfg: RunConfig, records) -> tuple[TrialReport, int]:
    """The one trial loop: fill ``report`` of the resolved ``cfg`` from
    one ``(record, entry, kinds)`` per chunk of trials, in trial order:
    record column j is the function of kind ``kinds[j]`` (``None`` if
    unnamed), and ``entry(t, kind, margin)`` is trial t's report entry.

    A trial's worst outcome is its first lowest margin over the evaluated
    functions, and ``minMargin`` is the first lowest worst margin of the
    run (the sources refuse a margin that is not finite).  A trial is an equality case when all its
    outcomes are EQUALITY, and it yields one violation entry when its worst
    outcome FAILS, so violations never outnumber trials; the entries keep
    trial order.  The report's flags are the notes of the family's table
    entry ``spec`` over n inputs, then the flags a record source learns
    while it runs.  A violation exits 1 under the ``spec.status``
    ``proven`` or ``refuted``, or when n is ``spec.proven_at``.
    """
    spec, n = SUITES[cfg.family], cfg.n
    start = time.perf_counter()
    for record, entry, kinds in records:
        margins, codes = record.margin, record.code
        rows = np.arange(len(margins))
        worst = margins.argmin(axis=1)
        margin, code = margins[rows, worst], codes[rows, worst]
        report.equality_cases += int((codes == Verdict.EQUALITY.code).all(axis=1).sum())
        low = margin[margin.argmin()]
        if report.min_margin is None or low < report.min_margin:
            report.min_margin = float(low)
        for t in np.flatnonzero(code == Verdict.FAILS.code).tolist():
            report.violations.append(entry(t, kinds[worst[t]], float(margin[t])))
        # The chunk's inputs, held by its entry, are not held through the next.
        del record, entry
    report.interpretation_flags[:0] = spec.notes(n)
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    binding = spec.status in ("proven", "refuted") or n == spec.proven_at
    return report, 1 if report.violations and binding else 0


def _report(cfg: RunConfig, names: list[str], family: str) -> TrialReport:
    """An empty report of ``cfg``, whose ``params`` are the fields ``names``
    that are set, in camelCase."""
    params = {re.sub("_(.)", lambda c: c[1].upper(), name): getattr(cfg, name)
              for name in names if getattr(cfg, name) is not None}
    return TrialReport(family=family, params=params, trials=cfg.trials, seed=cfg.seed,
                       tolerance_used=cfg.tol, min_margin=None, equality_cases=0, violations=[])


def run_verify(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Sample PD tuples, build the family difference, certify each trial."""
    cfg, names = _settings(cfg, "verify")
    report = _report(cfg, names, cfg.family)
    flags = report.interpretation_flags
    psd_only = "psd-only-inputs: some inputs were not strictly positive definite"

    # Every chunk builds in one workspace, sized by the first; the last
    # drops it as soon as its difference is built, so the eigensolve runs
    # beside the difference alone.
    workspace, built = Workspace(), 0

    def certify(inputs, parts):
        nonlocal workspace, built
        diff = build_difference(cfg.family, parts, cfg.p, cfg.max_tensor_dim, k=cfg.k,
                                ell=cfg.ell, m=cfg.m, workspace=workspace)
        built += len(parts[0])
        if built == cfg.trials:
            workspace = None
        certs = psd_certificate(diff, cfg.tol)
        if not (min_eigenvalue(inputs) > 1e-12).all() and psd_only not in flags:
            flags.append(psd_only)
        return certs

    return _run(report, cfg, _matrix_trials(cfg, _trial_bytes(cfg, "verify"), certify,
                                            "minEigenvalue"))


def run_scalar_verify(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Scalar suites: either the d-image of an operator family (choose a
    character with --char) or one of the convex/norm evaluators."""
    if cfg.family in CONVEX_NORM_SUITES:
        return _run_convex_norm(*_settings(cfg, "convex"))
    cfg, names = _settings(cfg, "matrix")
    group, chi = parse_character_selector(cfg.char, cfg.dim)
    report = _report(cfg, names, f"{cfg.family}[{cfg.char}]")

    def check(inputs, parts):
        return scalar_inequality_check(cfg.family, parts, group, chi, cfg.tol,
                                       k=cfg.k, ell=cfg.ell, m=cfg.m)

    return _run(report, cfg, _matrix_trials(cfg, _trial_bytes(cfg, "matrix"), check, "margin"))


def _input_chunks(cfg: RunConfig, trial_bytes: int):
    """Yield ``(first trial, trial seeds, inputs)`` per chunk of
    :func:`_chunks`, the inputs one ``(T, n)`` or ``(T, n, dim)`` block:
    ``cfg.points`` as its one trial's, else the ``sample_inputs`` block of
    the chunk's trial seeds, trial 0's being the known refuting input under
    ``include_known``."""
    for lo, seeds in _chunks(cfg, trial_bytes):
        if cfg.points is not None:
            block = np.array(cfg.points, dtype=np.float64).reshape(
                1, *sample_shape(cfg.family, cfg.n, cfg.dim))
        else:
            block = sample_inputs(cfg.family, seeds, cfg.n, cfg.dim, cfg.center, cfg.radius)
            if cfg.include_known and lo == 0:
                block[0] = KNOWN_HLAWKA_POP_COUNTEREXAMPLE
        yield lo, seeds, block


def _run_convex_norm(cfg: RunConfig, names: list[str]) -> tuple[TrialReport, int]:
    """A convex/norm suite on seeded inputs, or once on explicit ``points``,
    one block evaluation per chunk of trials."""
    fns = [None]
    if SUITES[cfg.family].term != "norm":
        fns = list(convex_catalog()) if cfg.fn == "all" else [ConvexFunction(cfg.fn)]
    kinds = tuple(fn.kind if fn else None for fn in fns)

    def records():
        for _, seeds, block in _input_chunks(cfg, _trial_bytes(cfg, "convex")):
            # Looked up on the module, so a wrapper bound there sees every block.
            record = scalar._search_margin(cfg.family, block, fns, cfg.tol, k=cfg.k,
                                           ell=cfg.ell, m=cfg.m)
            record.refuse_first()
            yield record, lambda t, kind, worst, seeds=seeds, block=block: {
                "inputsDigest": _data_digest(block[t]), "margin": worst,
                "seed": int(seeds[t]),
                "inputs": [float(x) for x in block[t].ravel()],
                **({"fn": kind} if kind else {})}, kinds

    return _run(_report(cfg, names, cfg.family), cfg, records())


def counterexample_search(suite: str, cfg: RunConfig, fn: ConvexFunction | None,
                          tol: float) -> list[dict]:
    """The search's trial loop: the report entry of every confirmed find.

    Trial t starts from ``sample_inputs`` drawn from its trial seed, or
    under ``include_known`` trial 0 from the known refuting input;
    :func:`~hlawka.scalar.search_from` searches from a chunk of starts at
    once, descending from each in lockstep under the ``coordinate-descent``
    strategy, each round at most a full chunk's trial count of candidates,
    and re-verifies what it reports.  An empty list is a valid outcome.
    ``cfg`` goes through the settings pass of the search route first,
    which leaves a resolved config as it is; ``suite`` other than its
    family is refused, and ``fn`` is not read under the ``norm`` term.
    """
    if suite != cfg.family:
        raise InputError(f"suite {suite!r} differs from the config's family {cfg.family!r}")
    cfg, _ = _settings(cfg, "counterexample")
    descend = cfg.strategy == "coordinate-descent"
    trial_bytes = _trial_bytes(cfg, "counterexample")
    rows = _chunk_trials(trial_bytes)
    found = []
    for lo, seeds, starts in _input_chunks(cfg, trial_bytes):
        for row, inputs, result in search_from(cfg.family, fn, tol, starts, descend, rows):
            found.append({"inputsDigest": _data_digest(np.asarray(inputs)),
                          "margin": result.margin, "seed": int(seeds[row]),
                          "trialIndex": lo + row, "inputs": [float(x) for x in np.ravel(inputs)]})
    return found


def run_counterexample(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Drive the counterexample search; completion always exits 0."""
    cfg, names = _settings(cfg, "counterexample")
    report = _report(cfg, names, cfg.family)
    start = time.perf_counter()
    fn = None if cfg.fn is None else ConvexFunction(cfg.fn)
    report.violations = counterexample_search(cfg.family, cfg, fn, cfg.tol)
    report.min_margin = min((v["margin"] for v in report.violations), default=None)
    report.interpretation_flags.append("search: violations are findings, re-verified before "
                                       "inclusion; an empty list is a valid outcome")
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    return report, 0
