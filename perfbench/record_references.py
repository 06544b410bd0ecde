"""Record the verdicts the correctness gate compares against.

    python3 perfbench/record_references.py

Runs every workload command at every reference seed and rewrites
``references.json``.  Run it only when a change is meant to alter verdicts.
"""

from __future__ import annotations

import contextlib
import io
import json

from worker import import_cli
from workloads import OUT_DIR, REFERENCE_SEEDS, REFERENCES, WORKLOADS, reference_entry


def record() -> dict:
    main, _ = import_cli()
    refs: dict = {}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "reference.json"
    for workload in WORKLOADS.values():
        for command in workload.commands:
            entries = refs.setdefault(command, {})
            for seed in REFERENCE_SEEDS:
                argv = command.split() + ["--seed", str(seed), "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                doc = json.loads(out.read_text(encoding="utf-8"))
                entries[str(seed)] = reference_entry(doc, code)
    return refs


if __name__ == "__main__":
    REFERENCES.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}")
