"""One timed process of the benchmark.

    child.py TIMES_FILE RUN_ID [--trace SPANS_FILE] cli ARG...
    child.py TIMES_FILE RUN_ID [--trace SPANS_FILE] cone OUTDIR

`cli` imports chebcone.cli and calls cli.main(ARG...), which does the
same work as `python -m chebcone.cli ARG...`.  `cone` writes the cone
certificates of depths 0..5 through the public certifier functions.
The clock readings written to TIMES_FILE are CLOCK_MONOTONIC, which the
parent shares, so it can measure the time from spawn to import.  The
peak resident set size is this process's own VmHWM: exec starts a new
memory map, so the parent's memory is not in it, whereas the ru_maxrss
the parent gets from wait4 keeps the high-water mark of the parent's
copy that exec replaced.
"""

import time
import sys

from chebcone import cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402

CONE_DEPTH = 5


def cone_certificates(outdir: str) -> int:
    """Write cone_n{n}_j{j}.json for n <= CONE_DEPTH, as `certify` names them."""
    from chebcone import certifier

    os.makedirs(outdir, exist_ok=True)
    for n in range(CONE_DEPTH + 1):
        for j in (0, 1):
            text = certifier.document_json(certifier.certify_cone(n, j).to_document())
            with open(os.path.join(outdir, f"cone_n{n}_j{j}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0


def peak_rss_kib() -> int:
    """VmHWM of this process, in KiB (Linux /proc)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    times_file, run_id, rest = argv[0], int(argv[1]), argv[2:]
    tracer = spans_file = None
    if rest[0] == "--trace":
        import tracing

        spans_file, rest = rest[1], rest[2:]
        tracer = tracing.Tracer()
        tracer.install()
    kind, args = rest[0], rest[1:]
    if kind == "cli":
        def entry():
            return cli.main(args)
    else:
        def entry():
            return cone_certificates(args[0])
        if tracer is not None:
            entry = tracer.wrap("child.cone_certificates", entry)

    start = time.monotonic()
    code = entry()
    end = time.monotonic()
    sys.stdout.flush()
    with open(times_file, "w", encoding="utf-8") as fh:
        json.dump({"imported": IMPORTED, "main_start": start, "main_end": end,
                   "peak_rss_kib": peak_rss_kib()}, fh)
    if tracer is not None:
        tracer.dump(spans_file, run_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
