"""Trial-suite drivers behind the CLI subcommands.

Each runner samples seeded inputs, evaluates one inequality family, and
assembles a :class:`~hlawka.report.TrialReport` plus a process exit code:
0 for success, 1 when a violation is found in a family whose inequality
is established, 2 for usage errors, 3 for budget refusals (the latter two
are raised as exceptions and mapped by the CLI).

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
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import (
    DEFAULT_LOEWNER_TOL,
    DEFAULT_MAX_TENSOR_DIM,
    HermitianStack,
    PdBatchConfig,
    Verdict,
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
    vasc_check,
)
from .sums import (
    EMPIRICAL_FAMILIES,
    PROVEN_FAMILIES,
    OperatorFamily,
    TensorSumParams,
    build_difference,
)
from .symgroup import MAX_SYMMETRIC_DEGREE
from .util import derive_seed

DEFAULT_SCALAR_MATRIX_TOL = 1e-10

#: Byte budget of the largest array stacked over one chunk of trials.  Big
#: enough to amortize per-call overhead on small tuples; a trial over budget
#: runs alone, allocating what a single-trial run allocates.
CHUNK_BYTES = 128 * 1024

#: Bytes per complex128 entry.
_ENTRY_BYTES = 16

#: Scalar suites whose inequality is established (violations exit 1).
PROVEN_SCALAR_SUITES = frozenset({"norm-hlawka", "radu", "jensen", "popoviciu", "vasc", "pcz"})

#: Scalar evaluators that only measure (violations reported, exit 0)...
EVALUATOR_SCALAR_SUITES = frozenset({"functional-hlawka", "pop-levels-scalar", "freudenthal"})

#: ...except the refuted alternating subset-mean pattern, where a confirmed
#: violation is the documented outcome and exits 1.
REFUTED_SCALAR_SUITES = frozenset({"hlawka-pop"})


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
    flags_extra: list[str] = field(default_factory=list)


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


def _operator_family(cfg: RunConfig) -> tuple[OperatorFamily, int]:
    """The family and its tuple size; the three-matrix families take no other n."""
    try:
        family = OperatorFamily(cfg.family)
    except ValueError:
        raise InputError(f"unknown operator family {cfg.family!r}") from None
    if family in (OperatorFamily.HLAWKA3, OperatorFamily.SUPERMOD):
        if cfg.n != 3:
            raise InputError(f"{cfg.family} takes exactly three matrices (got --n {cfg.n})")
        return family, 3
    return family, cfg.n


def _sampled_chunks(cfg: RunConfig, n: int, trial_bytes: int):
    """Yield ``(trial seeds, all inputs, inputs by position)`` per chunk.

    Input ``i`` of trial ``t`` is sampled from ``derive_seed(seed_t, i)``;
    position ``i`` of every trial of the chunk forms one stack.
    """
    _check_loop(cfg.trials, cfg.jobs)
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


def run_verify(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Sample PD tuples, build the family difference, certify each trial."""
    family, n = _operator_family(cfg)
    params = TensorSumParams(n=n, p=cfg.p, k=cfg.k, ell=cfg.ell, m=cfg.m)
    tol = DEFAULT_LOEWNER_TOL if cfg.tol is None else cfg.tol
    pd_tol = 1e-12

    start = time.perf_counter()
    psd_only_seen = False
    violations = []
    margins = []
    equality = 0
    side = max(1, cfg.dim) ** max(1, cfg.p)
    trial_bytes = _ENTRY_BYTES * max(side * side, n * cfg.dim * cfg.dim)
    for seeds, inputs, parts in _sampled_chunks(cfg, n, trial_bytes):
        # Not bound to a name: the chunk's differences are freed before the
        # next chunk builds its own.
        certs = psd_certificate(build_difference(family, parts, params, cfg.max_tensor_dim), tol)
        psd_only_seen |= not (min_eigenvalue(inputs) > pd_tol).all()
        for t, (trial_seed, cert) in enumerate(zip(seeds, certs)):
            margins.append(cert.min_eigenvalue)
            if cert.verdict is Verdict.EQUALITY:
                equality += 1
            if cert.verdict is Verdict.FAILS:
                violations.append({"inputsDigest": _tuple_digest(parts, t),
                                   "minEigenvalue": cert.min_eigenvalue, "seed": trial_seed})

    flags = list(cfg.flags_extra)
    if family in EMPIRICAL_FAMILIES:
        flags.append("empirical-family: inequality not established; margins reported, not assumed")
    if psd_only_seen:
        flags.append("psd-only-inputs: some inputs were not strictly positive definite")

    params_dict = {"n": n, "p": cfg.p, "dim": cfg.dim, "conditionTarget": cfg.condition_target,
                   "maxTensorDim": cfg.max_tensor_dim}
    for name in ("k", "ell", "m"):
        value = getattr(cfg, name)
        if value is not None:
            params_dict[name] = value

    report = TrialReport(
        family=cfg.family,
        params=params_dict,
        trials=cfg.trials,
        seed=cfg.seed,
        tolerance_used=tol,
        min_margin=min(margins) if margins else None,
        equality_cases=equality,
        violations=violations,
        interpretation_flags=flags,
        runtime_ms=int((time.perf_counter() - start) * 1000),
    )
    exit_code = 1 if (violations and family in PROVEN_FAMILIES) else 0
    return report, exit_code


def _convex_functions(selector: str) -> list[ConvexFunction]:
    if selector == "all":
        return list(convex_catalog())
    return [ConvexFunction(selector)]


def _scalar_point_eval(cfg: RunConfig, fn: ConvexFunction, xs):
    fam = cfg.family
    if fam == "jensen":
        return jensen_check(fn, xs)
    if fam == "popoviciu":
        return popoviciu_check(fn, *xs)
    if fam == "vasc":
        return vasc_check(fn, xs)
    if fam == "pcz":
        if cfg.m is None:
            raise InputError("pcz requires --m")
        return pcz_check(fn, xs, cfg.m)
    if fam == "pop-levels-scalar":
        if cfg.k is None or cfg.ell is None or cfg.m is None:
            raise InputError("pop-levels-scalar requires --k, --ell, --m")
        return pop_levels_scalar_eval(fn, xs, cfg.k, cfg.ell, cfg.m)
    if fam == "hlawka-pop":
        return conjecture_hlawka_pop_eval(fn, xs)
    raise InputError(f"unknown scalar family {fam!r}")


_POINT_SUITES = {"jensen", "popoviciu", "vasc", "pcz", "pop-levels-scalar", "hlawka-pop", "functional-hlawka"}
_VECTOR_SUITES = {"norm-hlawka", "radu", "freudenthal"}


def run_scalar_verify(cfg: RunConfig) -> tuple[TrialReport, int]:
    """Scalar suites: either the d-image of an operator family (choose a
    character with --char) or one of the convex/norm evaluators."""
    operator_names = {fam.value for fam in OperatorFamily}
    if cfg.family in operator_names:
        return _run_matrix_function_suite(cfg)
    if cfg.family in _POINT_SUITES or cfg.family in _VECTOR_SUITES:
        return _run_scalar_suite(cfg)
    raise InputError(f"unknown scalar-verify family {cfg.family!r}")


def _run_matrix_function_suite(cfg: RunConfig) -> tuple[TrialReport, int]:
    family, n = _operator_family(cfg)
    params = TensorSumParams(n=n, p=cfg.p, k=cfg.k, ell=cfg.ell, m=cfg.m)
    group, chi = parse_character_selector(cfg.char, cfg.dim)
    tol = DEFAULT_SCALAR_MATRIX_TOL if cfg.tol is None else cfg.tol

    start = time.perf_counter()
    violations = []
    margins = []
    equality = 0
    # The largest stacked array is the (group order, degree) gather of one
    # generalized matrix function per trial; orders beyond the guard are
    # refused when it runs.
    order = math.factorial(min(group.degree, MAX_SYMMETRIC_DEGREE + 1))
    trial_bytes = _ENTRY_BYTES * max(order * group.degree, n * cfg.dim * cfg.dim)
    for seeds, _, parts in _sampled_chunks(cfg, n, trial_bytes):
        results = scalar_inequality_check(family, parts, params, group, chi, tol)
        for t, (trial_seed, res) in enumerate(zip(seeds, results)):
            margins.append(res.margin)
            if abs(res.margin) <= tol * res.scale:
                equality += 1
            if not res.holds:
                violations.append({"inputsDigest": _tuple_digest(parts, t),
                                   "margin": res.margin, "seed": trial_seed})

    flags = list(cfg.flags_extra)
    if family in EMPIRICAL_FAMILIES:
        flags.append("empirical-family: inequality not established; margins reported, not assumed")

    report = TrialReport(
        family=f"{cfg.family}[{cfg.char}]",
        params={"n": n, "p": cfg.p, "dim": cfg.dim, "char": cfg.char,
                "conditionTarget": cfg.condition_target},
        trials=cfg.trials,
        seed=cfg.seed,
        tolerance_used=tol,
        min_margin=min(margins) if margins else None,
        equality_cases=equality,
        violations=violations,
        interpretation_flags=flags,
        runtime_ms=int((time.perf_counter() - start) * 1000),
    )
    exit_code = 1 if (violations and family in PROVEN_FAMILIES) else 0
    return report, exit_code


def _scalar_suite_flags(cfg: RunConfig) -> list[str]:
    flags = list(cfg.flags_extra)
    fam = cfg.family
    if fam == "hlawka-pop":
        flags.append("evaluator-only: alternating subset-mean pattern fails for n >= 4")
        if cfg.n > 4:
            flags.append("interpretation: subset-size weights extrapolated beyond the n=4 instance")
    elif fam == "pop-levels-scalar":
        flags.append("evaluator-only: direction depends on (k, ell, m); margins reported only")
    elif fam == "functional-hlawka":
        flags.append("evaluator-only: convexity does not imply the functional form")
    elif fam == "freudenthal" and cfg.n >= 4:
        flags.append("evaluator-only: alternating norm sum fails for n >= 4")
    return flags


def _run_scalar_suite(cfg: RunConfig) -> tuple[TrialReport, int]:
    fam = cfg.family
    tol = DEFAULT_SCALAR_TOL if cfg.tol is None else cfg.tol
    fns = _convex_functions(cfg.fn) if fam in _POINT_SUITES else [None]

    explicit_points = cfg.points
    if cfg.include_known and fam == "hlawka-pop":
        explicit_points = KNOWN_HLAWKA_POP_COUNTEREXAMPLE
    n = len(explicit_points) if (explicit_points is not None and fam in _POINT_SUITES) else cfg.n
    trials = 1 if explicit_points is not None else cfg.trials
    if fam in ("popoviciu", "norm-hlawka", "functional-hlawka") and n != 3:
        raise InputError(f"{fam} takes exactly three inputs")
    if explicit_points is not None and fam in _VECTOR_SUITES and len(explicit_points) % cfg.n:
        raise InputError(
            f"--points length {len(explicit_points)} is not divisible by --n {cfg.n}"
        )

    start = time.perf_counter()

    def evaluate_point(fn: ConvexFunction | None, data):
        if fam == "norm-hlawka":
            return norm_hlawka(*data)
        if fam == "radu":
            if cfg.k is None:
                raise InputError("radu requires --k")
            return radu_check(data, cfg.k)
        if fam == "freudenthal":
            return freudenthal_alternating(data)
        if fam == "functional-hlawka":
            return functional_hlawka(fn, *data)
        return _scalar_point_eval(cfg, fn, data)

    def one_trial(t: int):
        trial_seed = derive_seed(cfg.seed, t)
        rng = np.random.default_rng(trial_seed)
        if explicit_points is not None:
            data = np.asarray(explicit_points, dtype=np.float64)
            if fam in _VECTOR_SUITES:
                data = data.reshape(cfg.n, -1)
        elif fam in _VECTOR_SUITES:
            data = rng.standard_normal((n, cfg.dim))
        else:
            data = rng.uniform(-10.0, 10.0, n)
        outcomes = []
        for fn in fns:
            res = evaluate_point(fn, data)
            outcomes.append((fn.kind if fn else None, res))
        return t, trial_seed, data, outcomes

    _check_loop(trials, cfg.jobs)
    results = [one_trial(t) for t in range(trials)]

    # At most one violation entry per trial (the worst margin across the
    # evaluated functions), keeping violations.length <= trials.
    violations = []
    margins = []
    equality = 0
    for t, trial_seed, data, outcomes in results:
        digest = hashlib.sha256(np.ascontiguousarray(data, dtype=np.float64).tobytes()).hexdigest()
        margins.extend(res.margin for _, res in outcomes)
        if all(abs(res.margin) <= tol * res.scale for _, res in outcomes):
            equality += 1
        worst_kind, worst = min(outcomes, key=lambda pair: pair[1].margin)
        if worst.margin < -tol * worst.scale:
            entry = {
                "inputsDigest": digest,
                "margin": worst.margin,
                "seed": trial_seed,
                "inputs": [float(x) for x in np.asarray(data).ravel()],
            }
            if worst_kind:
                entry["fn"] = worst_kind
            violations.append(entry)

    params_dict = {"n": n, "dim": cfg.dim, "fn": cfg.fn}
    for name in ("k", "ell", "m"):
        value = getattr(cfg, name)
        if value is not None:
            params_dict[name] = value
    if explicit_points is not None:
        params_dict["points"] = [float(x) for x in np.asarray(explicit_points).ravel()]

    report = TrialReport(
        family=fam,
        params=params_dict,
        trials=trials,
        seed=cfg.seed,
        tolerance_used=tol,
        min_margin=min(margins) if margins else None,
        equality_cases=equality,
        violations=violations,
        interpretation_flags=_scalar_suite_flags(cfg),
        runtime_ms=int((time.perf_counter() - start) * 1000),
    )

    proven = fam in PROVEN_SCALAR_SUITES or (fam == "freudenthal" and cfg.n == 3)
    refutation_confirmed = fam in REFUTED_SCALAR_SUITES and violations
    exit_code = 1 if (violations and proven) or refutation_confirmed else 0
    return report, exit_code


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
    start = time.perf_counter()
    found = counterexample_search(family, search_cfg)
    violations = [
        {
            "inputsDigest": hashlib.sha256(
                np.asarray(v.inputs, dtype=np.float64).tobytes()
            ).hexdigest(),
            "margin": v.margin,
            "seed": v.seed,
            "trialIndex": v.trial_index,
            "inputs": [float(x) for x in np.asarray(v.inputs).ravel()],
        }
        for v in found
    ]
    flags = list(cfg.flags_extra)
    flags.append("search: violations are findings, re-verified before inclusion; "
                 "an empty list is a valid outcome")
    report = TrialReport(
        family=cfg.family,
        params={"n": cfg.n, "dim": cfg.dim, "strategy": strategy.value, "fn": fn.kind,
                "includeKnown": cfg.include_known},
        trials=cfg.trials,
        seed=cfg.seed,
        tolerance_used=DEFAULT_SCALAR_TOL,
        min_margin=min((v.margin for v in found), default=None),
        equality_cases=0,
        violations=violations,
        interpretation_flags=flags,
        runtime_ms=int((time.perf_counter() - start) * 1000),
    )
    return report, 0
