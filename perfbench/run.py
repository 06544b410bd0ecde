"""Benchmark of the hlawka CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs its commands through
``hlawka.cli.main`` in fresh worker processes (``worker.py``), checks every
pass against ``references.json``, and prints the metrics by name with their
units.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import LAYER_UNITS
from workloads import BENCH_DIR, OUT_DIR, ROOT, SRC, WORKLOADS, tail

#: Fresh processes besides the main worker: some time the import and the
#: cold first pass, some only the import, which is cheaper and noisier.
COLD_PROBES = 3
IMPORT_PROBES = 3
#: Everything, workers included, ends within this many seconds.
DEADLINE_S = 170.0


def worker_env() -> dict:
    """The environment of the workers: one BLAS thread.

    The speed gauge times one CPU; a multi-threaded kernel also depends on
    how much of the other CPUs a shared host gives it, which the gauge
    cannot see.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts the workers of one run, each within what is left of the deadline."""

    def __init__(self, args, deadline: float) -> None:
        self.args = args
        self.deadline = deadline
        self.env = worker_env()

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise SystemExit("out of time before the run finished")
        return left

    def build(self) -> None:
        """Byte-compile the library once, so no worker pays for it."""
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "hlawka")],
                       cwd=ROOT, env=self.env, check=True, timeout=self._remaining(),
                       stdout=subprocess.DEVNULL)

    def worker(self, role: str) -> dict:
        argv = [sys.executable, str(BENCH_DIR / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds), "--role", role,
                "--out-dir", str(OUT_DIR)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{role} worker did not finish in time")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{role} worker failed with exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workers: list[dict]) -> tuple[dict, list[str]]:
    """Metrics of the untraced run, and notes that qualify them.

    ``workers`` holds the import probes, the cold probes and, last, the
    main worker.
    """
    main = workers[-1]
    passes = main["passes"]
    imports = [w["import_s"] for w in workers]
    extras = [w["cold_extra_s"] for w in workers if "cold_extra_s" in w]
    tail_s, tail_pct = tail(passes)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(extras), "s"),
        "trials_per_s": (main["trials_per_pass"] * len(passes) / sum(passes), "1/s"),
        "pass_p50_ms": (statistics.median(passes) * 1e3, "ms"),
        "pass_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = [
        "setup_s is the median import of hlawka.cli over fresh processes ("
        + ", ".join(f"{s:.3f}" for s in imports) + " s) plus the median cold-pass "
        "extra (" + ", ".join(f"{s:.3f}" for s in extras) + " s)",
        f"pass_tail_ms is p{tail_pct:.0f} of {len(passes)} warm passes",
        f"times are in reference-machine time; this machine ran at {main['speed']:.3f} "
        "of the reference speed",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hlawka CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hlawka" / "cli.py").is_file():
        print(f"error: no hlawka sources under {SRC}", file=sys.stderr)
        return 1

    runner = Runner(args, time.monotonic() + DEADLINE_S)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runner.build()
    if args.trace:
        workers = [runner.worker("trace")]
        layers = workers[0]["layers"]
        metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
        notes = [f"{workers[0]['traced_passes']} traced and {workers[0]['plain_passes']} "
                 "untraced warm passes; per-pass medians, set-up spans from the cold pass"]
    else:
        workers = [runner.worker("import") for _ in range(IMPORT_PROBES)]
        workers += [runner.worker("probe") for _ in range(COLD_PROBES)]
        workers.append(runner.worker("main"))
        metrics, notes = end_to_end(workers)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in workers[-1]["env"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'fail_frac':<44} {failed / attempted:>16.6g} ({failed} of {attempted} passes)")
    for note in notes:
        print(f"note: {note}")
    for w in workers:
        for problem in w["problems"]:
            print(f"mismatch: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
