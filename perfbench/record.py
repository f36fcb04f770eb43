#!/usr/bin/env python3
"""Record the reference output digests in expected.json.

    python3 perfbench/record.py

Runs each workload once, untraced, and stores the SHA-256 of its
standard output (seed normalized, as run.py checks it) and of every
certificate file.  Run it only on a commit whose output is the
reference: the benchmark fails any process whose bytes differ.
"""

from __future__ import annotations

import json
import time

import checks
import run

SEED = 0


def main() -> int:
    expected = {}
    for workload in run.WORKLOADS.values():
        entry = {}

        def capture(stdout, outdir, entry=entry):
            entry["stdout_sha256"] = checks.sha256(stdout.encode("utf-8"))
            if outdir.is_dir():
                entry["files"] = {p.name: checks.sha256(p.read_bytes())
                                  for p in sorted(outdir.iterdir())}
            return []

        sample = run.run_process(workload, SEED, 0, False, time.monotonic() + run.LIMIT_S, capture)
        if sample["problems"]:
            raise SystemExit(f"{workload.name}: {sample['problems']}")
        expected[workload.name] = entry
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
