"""One fresh benchmark process: import the CLI, run passes, check every one.

Started by ``run.py``, which owns the measurement plan::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --role {import,probe,main,trace} --out-dir DIR

Every role times the import of ``hlawka.cli``.  Then:

* ``import``: nothing more;
* ``probe``: the cold first pass, each command repeated right after itself,
  to time lazy set-up;
* ``main``: the same cold pass, then warm passes for ``--seconds``;
* ``trace``: a traced cold pass, then untraced and traced passes in
  alternation for ``--seconds``.

Except in ``trace``, times are converted to reference-machine time by a
:class:`SpeedGauge`; per-layer times from ``trace`` are as measured.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_UNITS, SETUP_METRICS, Tracer
from workloads import (
    SRC,
    WORKLOADS,
    check_report,
    cli_seed_order,
    command_trials,
    load_references,
    pass_trials,
)

#: The tail percentile needs at least eleven warm passes.
MIN_PASSES = 11
MIN_TRACED_PASSES = 3
#: Hard stop for the measuring loop, well inside the run's time limit.
MAX_MEASURE_S = 120.0
#: Median time of ``calibration_job`` on the reference machine: a 2-vCPU
#: Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31.
CALIBRATION_REF_S = 0.016


def import_cli():
    """Import ``hlawka.cli`` from the checkout's ``src`` and time the import."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hlawka.cli

    seconds = time.perf_counter() - start
    origin = Path(hlawka.cli.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise SystemExit(f"hlawka was imported from {origin}, not from {SRC}")
    return hlawka.cli.main, seconds


def calibration_job() -> float:
    """Time a fixed job that shares no code with hlawka: a Python loop and
    small numpy Kronecker products and eigensolves, the mix the CLI runs."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    x = np.eye(4, dtype=np.complex128) + 0.25
    for _ in range(300):
        np.linalg.eigvalsh(np.kron(x[:2, :2], x) + x[0, 0])
    return time.perf_counter() - start


class SpeedGauge:
    """Converts measured times into reference-machine time.

    On a shared host the CPU speed a process gets drifts by tens of percent
    over minutes, which no run length averages away.  The gauge times
    ``calibration_job`` between commands and scales each command's time by
    the reference time over the mean of the calibrations on either side.
    """

    def __init__(self) -> None:
        calibration_job()  # the first call pays numpy's lazy set-up
        self.samples = [calibration_job() for _ in range(3)]
        self._last = statistics.median(self.samples)

    def current(self) -> float:
        """Scale factor for a time measured just before the gauge was made."""
        return CALIBRATION_REF_S / self._last

    def scale(self, seconds: float) -> float:
        """Reference-machine time of ``seconds`` measured since the previous
        calibration."""
        now = calibration_job()
        self.samples.append(now)
        factor = CALIBRATION_REF_S / ((self._last + now) / 2)
        self._last = now
        return seconds * factor

    def speed(self) -> float:
        """Machine speed over the run, relative to the reference."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


class Tally:
    """Passes attempted and failed, with a sample of the mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:3]


class PassRunner:
    """Runs one workload pass through ``main`` and checks each report."""

    def __init__(self, main, workload_name: str, references: dict, out_dir: Path) -> None:
        self.main = main
        self.commands = WORKLOADS[workload_name].commands
        self.references = references
        self.out_dir = out_dir

    def call(self, index: int, cli_seed: int,
             tracer: Tracer | None = None) -> tuple[float, list[str]]:
        """Run one command; return its time in seconds and its mismatches.

        With a tracer, the call runs inside a ``cli.main`` span, and the
        trials of a command that reaches a scalar evaluator are counted.
        """
        command = self.commands[index]
        out = self.out_dir / f"report-{index}.json"
        out.unlink(missing_ok=True)
        argv = command.split() + ["--seed", str(cli_seed), "--out", str(out)]
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        before = tracer.calls["scalar.evaluator"] if tracer else 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                code = self.main(argv)
        except Exception:
            took = time.perf_counter() - start
            return took, [f"{command} --seed {cli_seed}: {traceback.format_exc(limit=3)}"]
        took = time.perf_counter() - start
        if tracer and tracer.calls["scalar.evaluator"] > before:
            tracer.counters["scalar.trials"] += command_trials(command)
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return took, [f"{command} --seed {cli_seed}: no readable report ({exc})"]
        ref = self.references[command][str(cli_seed)]
        return took, [f"{command} --seed {cli_seed}: {p}" for p in check_report(doc, code, ref)]

    def run(self, cli_seed: int, tracer: Tracer | None = None,
            gauge: SpeedGauge | None = None) -> tuple[float, list[str]]:
        """Run one pass; return its time in seconds (CLI calls only, in
        reference-machine time with a gauge) and its mismatches."""
        elapsed = 0.0
        problems: list[str] = []
        for index in range(len(self.commands)):
            took, found = self.call(index, cli_seed, tracer)
            elapsed += gauge.scale(took) if gauge else took
            problems += found
        return elapsed, problems

    def cold_extra(self, cli_seed: int, tally: Tally) -> float:
        """Run the cold first pass with each command repeated right after
        itself; return how much longer the cold calls took in total.

        Repeating a command at once, at the same seed, measures its lazy
        set-up against a warm call made within a second of it, so slow
        drift in machine load cancels.  Counts as two passes.
        """
        extra = 0.0
        cold_problems: list[str] = []
        warm_problems: list[str] = []
        for index in range(len(self.commands)):
            cold, found = self.call(index, cli_seed)
            cold_problems += found
            warm, found = self.call(index, cli_seed)
            warm_problems += found
            extra += cold - warm
        tally.add(cold_problems)
        tally.add(warm_problems)
        return max(0.0, extra)


def _blas_threads() -> int | str:
    # Ask the OpenBLAS that numpy loaded; other BLAS builds report the
    # environment setting.
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_main(runner: PassRunner, gauge: SpeedGauge, seeds: list[int], seconds: float,
             tally: Tally, trials: int) -> dict:
    passes: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and len(passes) >= MIN_PASSES
        if enough or elapsed >= MAX_MEASURE_S:
            break
        took, problems = runner.run(seeds[len(passes) % len(seeds)], gauge=gauge)
        tally.add(problems)
        passes.append(took)
    return {"passes": passes, "speed": gauge.speed(), "trials_per_pass": trials,
            "peak_rss_mb": _peak_rss_mb()}


def run_trace(runner: PassRunner, seeds: list[int], seconds: float, tally: Tally,
              declared: tuple[str, ...]) -> dict:
    tracer = Tracer()
    fired: set[str] = set()

    def traced_pass(seed: int) -> tuple[float, dict]:
        tracer.reset()
        with tracer.installed():
            took, problems = runner.run(seed, tracer)
        tally.add(problems)
        fired.update(tracer.calls)
        return took, tracer.layer_metrics()

    _, cold = traced_pass(seeds[0])
    plain: list[float] = []
    traced: list[float] = []
    warm: list[dict] = []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and len(traced) >= MIN_TRACED_PASSES
        if enough or elapsed >= MAX_MEASURE_S:
            break
        seed = seeds[k % len(seeds)]
        # Alternate the order within each pair so slow drift cancels.
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            if is_traced:
                took, metrics = traced_pass(seed)
                traced.append(took)
                warm.append(metrics)
            else:
                took, problems = runner.run(seed)
                tally.add(problems)
                plain.append(took)
        k += 1

    silent = [name for name in declared if name not in fired]
    if silent:
        raise SystemExit(f"declared spans recorded no call: {', '.join(silent)}")
    layers = {name: statistics.median(m[name] for m in warm)
              for name in LAYER_UNITS if name != "trace.overhead_ms"}
    for name in SETUP_METRICS:
        layers[name] = cold[name]
    layers["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) * 1e3
    return {"layers": layers, "traced_passes": len(traced), "plain_passes": len(plain)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=("import", "probe", "main", "trace"))
    parser.add_argument("--out-dir", required=True, type=Path)
    args = parser.parse_args(argv)

    cli_main, import_s = import_cli()
    tally = Tally()
    result: dict = {}
    if args.role != "import":
        runner = PassRunner(cli_main, args.workload, load_references(), args.out_dir)
        seeds = cli_seed_order(args.seed)
        workload = WORKLOADS[args.workload]
    if args.role == "trace":
        result = run_trace(runner, seeds, args.seconds, tally, workload.spans)
    else:
        if args.role != "import":
            result["cold_extra_s"] = runner.cold_extra(seeds[0], tally)
        # Made after the cold pass, so its numpy calls warm up nothing that
        # pass times.
        gauge = SpeedGauge()
        import_s *= gauge.current()
        if "cold_extra_s" in result:
            result["cold_extra_s"] *= gauge.current()
        if args.role == "main":
            result.update(run_main(runner, gauge, seeds, args.seconds, tally,
                                   pass_trials(workload)))
    result.update(import_s=import_s, attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems[:10], env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
