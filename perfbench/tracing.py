"""Spans around the calls into each layer, recorded from outside the library.

Each target is the name a *calling* module binds (``hlawka.harness.random_pd``,
not ``hlawka.linalg.random_pd``), so the span measures the call as the
caller makes it.  A target that no longer exists raises at install time, and
the worker refuses a traced run in which a span its workload declares
records no call: a refactor that moves an entry point fails loudly instead
of reading zero.

Spans are kept in memory as ``(name, parent, start, end)``; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Scalar evaluators as the harness binds them.
_HARNESS_EVALUATORS = (
    "jensen_check", "popoviciu_check", "vasc_check", "pcz_check",
    "pop_levels_scalar_eval", "conjecture_hlawka_pop_eval", "norm_hlawka",
    "radu_check", "freudenthal_alternating", "functional_hlawka",
)


def _psd_counts(tracer, args, out) -> None:
    mat = args[0]
    n = mat.dim if hasattr(mat, "dim") else len(mat)
    c = tracer.counters
    c["linalg.psd_certificate.max_dim"] = max(c["linalg.psd_certificate.max_dim"], n)
    # Householder reduction of a complex Hermitian matrix to tridiagonal
    # form: 4/3 N^3 complex multiply-adds, 8 real flops each.  Computed, not
    # counted.
    c["linalg.psd_certificate.flop_computed"] += 16.0 / 3.0 * n**3


def _build_counts(tracer, args, out) -> None:
    tracer.counters["sums.build_difference.out_bytes"] += out.array.nbytes


def _search_counts(tracer, args, out) -> None:
    tracer.counters["scalar.search.trials"] += args[1].trials
    tracer.counters["scalar.search.hits"] += len(out)


def _report_bytes(tracer, args, out) -> None:
    tracer.counters["report.bytes"] += os.path.getsize(args[1])


#: (module, attribute path, span name, hook run on the arguments and result).
TARGETS = (
    ("hlawka.cli", "run_verify", "harness.run_verify", None),
    ("hlawka.cli", "run_scalar_verify", "harness.run_scalar_verify", None),
    ("hlawka.cli", "run_counterexample", "harness.run_counterexample", None),
    ("hlawka.harness", "random_pd", "linalg.random_pd", None),
    ("hlawka.harness", "min_eigenvalue", "linalg.min_eigenvalue", None),
    ("hlawka.harness", "psd_certificate", "linalg.psd_certificate", _psd_counts),
    ("hlawka.harness", "build_difference", "sums.build_difference", _build_counts),
    ("hlawka.harness", "scalar_inequality_check", "matfunc.scalar_inequality_check", None),
    ("hlawka.matfunc", "generalized_matrix_function", "matfunc.generalized_matrix_function",
     None),
    ("hlawka.matfunc", "enumerate_group", "symgroup.enumerate_group", None),
    ("hlawka.matfunc", "character_values", "symgroup.character_values", None),
    ("hlawka.harness", "counterexample_search", "scalar.counterexample_search",
     _search_counts),
    ("hlawka.scalar", "_search_margin", "scalar.evaluator", None),
    *(("hlawka.harness", name, "scalar.evaluator", None) for name in _HARNESS_EVALUATORS),
    ("hlawka.report", "TrialReport.write", "report.write", _report_bytes),
)

#: Per-layer metrics: name -> unit.  ``.ms`` is inclusive time, ``.self_ms``
#: excludes child spans; all are per pass.
LAYER_UNITS = {
    "cli.self_ms": "ms",
    "harness.self_ms": "ms",
    "linalg.random_pd.calls": "count",
    "linalg.random_pd.ms": "ms",
    "linalg.min_eigenvalue.ms": "ms",
    "linalg.psd_certificate.calls": "count",
    "linalg.psd_certificate.ms": "ms",
    "linalg.psd_certificate.max_dim": "rows",
    "linalg.psd_certificate.flop_computed": "flop",
    "sums.build_difference.calls": "count",
    "sums.build_difference.ms": "ms",
    "sums.build_difference.out_bytes": "bytes",
    "matfunc.scalar_inequality_check.calls": "count",
    "matfunc.scalar_inequality_check.ms": "ms",
    "matfunc.generalized_matrix_function.calls": "count",
    "matfunc.generalized_matrix_function.ms": "ms",
    "symgroup.enumerate_group.ms": "ms",
    "symgroup.character_values.ms": "ms",
    "scalar.counterexample_search.ms": "ms",
    "scalar.evaluator.calls": "count",
    "scalar.evaluator.ms": "ms",
    "scalar.evaluator.calls_per_trial": "calls/trial",
    "scalar.search.hit_ratio": "ratio",
    "report.write.ms": "ms",
    "report.bytes": "bytes",
    "trace.overhead_ms": "ms",
}

#: Metrics of lazy set-up that runs once per process: taken from the cold
#: first pass, since warm passes never reach it.
SETUP_METRICS = ("symgroup.enumerate_group.ms", "symgroup.character_values.ms")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"trace target {module}.{path} does not exist")
    return owner, attr


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.calls.clear()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.calls[name] += 1
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end)

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module, path, name, hook in TARGETS:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        child_s = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for i, (name, _, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - child_s[i]) * 1e3
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        The caller counts in ``counters["scalar.trials"]`` the trials of the
        commands that reached a scalar evaluator.
        """
        t = self.totals()
        c = self.counters
        scalar_trials = c["scalar.trials"]

        def get(name: str, key: str) -> float:
            return t[name][key] if name in t else 0.0

        evaluator_calls = get("scalar.evaluator", "calls")
        search_trials = c["scalar.search.trials"]
        return {
            "cli.self_ms": get("cli.main", "self_ms"),
            "harness.self_ms": sum(v["self_ms"] for k, v in t.items()
                                   if k.startswith("harness.")),
            "linalg.random_pd.calls": get("linalg.random_pd", "calls"),
            "linalg.random_pd.ms": get("linalg.random_pd", "ms"),
            "linalg.min_eigenvalue.ms": get("linalg.min_eigenvalue", "ms"),
            "linalg.psd_certificate.calls": get("linalg.psd_certificate", "calls"),
            "linalg.psd_certificate.ms": get("linalg.psd_certificate", "ms"),
            "linalg.psd_certificate.max_dim": c["linalg.psd_certificate.max_dim"],
            "linalg.psd_certificate.flop_computed": c["linalg.psd_certificate.flop_computed"],
            "sums.build_difference.calls": get("sums.build_difference", "calls"),
            "sums.build_difference.ms": get("sums.build_difference", "ms"),
            "sums.build_difference.out_bytes": c["sums.build_difference.out_bytes"],
            "matfunc.scalar_inequality_check.calls":
                get("matfunc.scalar_inequality_check", "calls"),
            "matfunc.scalar_inequality_check.ms": get("matfunc.scalar_inequality_check", "ms"),
            "matfunc.generalized_matrix_function.calls":
                get("matfunc.generalized_matrix_function", "calls"),
            "matfunc.generalized_matrix_function.ms":
                get("matfunc.generalized_matrix_function", "ms"),
            "symgroup.enumerate_group.ms": get("symgroup.enumerate_group", "ms"),
            "symgroup.character_values.ms": get("symgroup.character_values", "ms"),
            "scalar.counterexample_search.ms": get("scalar.counterexample_search", "ms"),
            "scalar.evaluator.calls": evaluator_calls,
            "scalar.evaluator.ms": get("scalar.evaluator", "ms"),
            "scalar.evaluator.calls_per_trial":
                evaluator_calls / scalar_trials if scalar_trials else 0.0,
            "scalar.search.hit_ratio":
                c["scalar.search.hits"] / search_trials if search_trials else 0.0,
            "report.write.ms": get("report.write", "ms"),
            "report.bytes": c["report.bytes"],
        }
