#!/usr/bin/env python3
"""chebcone benchmark: fresh-process runs of three workloads.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Run it from anywhere; it finds the repository from its own location and
runs the CLI from `src/` (PYTHONPATH), so nothing has to be installed.
Each sample is one new Python process, started only after the previous
one has exited (a closed loop with one client), because the lru_caches
of the recurrence engine make any second in-process run almost free,
while every CLI invocation pays the cold cost.  One untimed warm-up
process comes first, so that byte-compiling `src/` and a cold file cache
are not timed.

`--trace 0` reports the end-to-end metrics, as medians over the samples,
with times scaled by the speed probe below (`*_ref_s` and `setup_s`);
the unscaled medians are printed above the last line.
`--trace 1` alternates traced and untraced processes and reports the
per-layer metrics of tracing.py.  Every process is checked (checks.py);
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
OUTDIR = "certs"
# every run, warm-up included, ends inside 180 s
LIMIT_S = 170.0
# CPUs this process may use at start, and the one it pins itself to
NPROC = CPU = None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli": chebcone.cli.main(argv); "cone": child.cone_certificates
    argv: tuple[str, ...]  # "{seed}" stands for the CLI seed
    items: int  # checks for verify, certificate documents otherwise
    # checks.check_*(stdout, outdir, expected, items) -> problems
    check: Callable[[str, Path, dict, int], list[str]]
    # per-layer counts that must be 0 in every traced process
    zero_counts: tuple[str, ...] = ()

    def args(self, seed: int) -> list[str]:
        return [arg.format(seed=cli_seed(seed)) for arg in self.argv]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-default", "cli", ("verify", "--seed", "{seed}"), 88,
                 checks.check_verify),
        Workload("certify-d4", "cli", ("certify", "--n", "4", "--out", OUTDIR), 40,
                 checks.check_certify),
        # the bypass workload for mul changes: it must never reach mul
        Workload("cone-d5", "cone", (OUTDIR,), 12, checks.check_certificates,
                 zero_counts=("tilde_ring.mul.calls",)),
    )
}

# The gated metrics.  wall_ref_s, cpu_ref_s, setup_s and items_per_ref_s
# are scaled by the speed probe; setup_s keeps the name the benchmark
# format requires.
END_TO_END = (
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_ref_s", "1/s"),
)
# gated (scaled) name -> name of the same measurement unscaled
UNSCALED = {
    "wall_ref_s": "wall_s",
    "cpu_ref_s": "cpu_s",
    "setup_s": "setup_unscaled_s",
    "items_per_ref_s": "items_per_s",
}

# Speed probe.  On a shared host the same process can take anywhere from
# 1x to 2x its quiet time, in phases lasting from seconds to minutes, and
# its CPU time stretches with its wall time.  A fixed pure-Python kernel
# shaped like chebcone's hot loops (dict accumulation of big-int
# products) is timed in this process right before and right after each
# sample; the sample's times are scaled by PROBE_REFERENCE_S over the mean
# of the two probes.  The reported times are then the times on a host
# where the probe takes PROBE_REFERENCE_S (a quiet 2-vCPU Xeon VM with
# CPython 3.11.7), and they move far less with the neighbours' load.
PROBE_REFERENCE_S = 0.0065
PROBE_REPEATS = 9
PROBE_LEFT = [(i, (i * 2654435761) ** 3) for i in range(0, 400, 2)]
PROBE_RIGHT = [(i, i * 40503 + 1) for i in range(-199, 200, 2)]


def cli_seed(seed: int) -> int:
    """The CLI takes seeds below 2**64."""
    return seed % 2**64


def check_output(workload: Workload, expected: dict, stdout: str, outdir: Path) -> list[str]:
    """The workload's own gate plus the digest of its (seed-normalized) stdout."""
    exp = expected[workload.name]
    problems = workload.check(stdout, outdir, exp, workload.items)
    if checks.sha256(stdout.encode("utf-8")) != exp["stdout_sha256"]:
        problems.append("stdout digest mismatch")
    return problems


def run_process(workload: Workload, seed: int, run_id: int, trace: bool,
                deadline: float, check) -> dict:
    """Spawn one child, wait for it, and return its sample.

    `check(stdout, outdir)` returns the list of output problems; stdout
    has its seed replaced by checks.SEED_TOKEN.
    """
    procdir = WORK / f"{os.getpid()}-{run_id}"
    shutil.rmtree(procdir, ignore_errors=True)
    procdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "times.json", str(run_id)]
    if trace:
        cmd += ["--trace", "spans.json"]
    cmd += [workload.kind, *workload.args(seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    try:
        with open(procdir / "stdout", "wb") as out, open(procdir / "stderr", "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=procdir, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=env)
            killer = threading.Timer(max(0.0, deadline - spawn), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                exited = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        sample = {
            "wall_s": exited - spawn,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "problems": [],
            "layers": None,
        }
        if proc.returncode != 0:
            err_tail = (procdir / "stderr").read_text(errors="replace")[-500:]
            sample["problems"].append(f"exit code {proc.returncode}: {err_tail}")
            return sample
        times = json.loads((procdir / "times.json").read_text())
        sample["setup_s"] = times["imported"] - spawn
        sample["main_s"] = times["main_end"] - times["main_start"]
        sample["peak_rss_mb"] = times["peak_rss_kib"] / 1024
        stdout = (procdir / "stdout").read_text(encoding="utf-8")
        stdout = checks.normalize_seed(stdout, cli_seed(seed))
        sample["problems"] += check(stdout, procdir / OUTDIR)
        if trace:
            try:
                spans = json.loads((procdir / "spans.json").read_text())
                sample["layers"] = tracing.summarize(spans)
            except (OSError, ValueError, KeyError) as exc:
                sample["problems"].append(f"trace: {exc}")
        return sample
    finally:
        shutil.rmtree(procdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


def probe() -> float:
    """Median time of PROBE_REPEATS passes of the speed-probe kernel."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc: dict[int, int] = {}
        for x, cx in PROBE_LEFT:
            for y, cy in PROBE_RIGHT:
                acc[x + y] = acc.get(x + y, 0) + cx * cy
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process, and so every child it starts, to its lowest CPU.

    The parent only waits while a child runs, so nothing is lost.  A
    shared host slows its vCPUs down one at a time; pinned, the speed
    probe measures the CPU the sample ran on, not possibly the other one.
    Returns (CPUs allowed before, CPU pinned to).
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def bench(workload: Workload, seed: int, seconds: float, trace: bool,
          expected: dict) -> dict:
    """Run one workload for `seconds` seconds and return its result."""
    started = time.monotonic()
    deadline = started + LIMIT_S
    load_start = os.getloadavg()

    def check(stdout, outdir):
        return check_output(workload, expected, stdout, outdir)

    samples = [run_process(workload, seed, 0, False, deadline, check)]  # warm-up
    before = probe()
    measure_end = time.monotonic() + seconds
    timed: list[dict] = []
    traced: list[dict] = []
    while True:
        now = time.monotonic()
        longest = max(s["wall_s"] for s in samples)
        if now + 2 * longest > deadline:
            break
        have_enough = timed and (not trace or min(len(traced), len(timed)) >= 2)
        if now >= measure_end and have_enough:
            break
        run_id = len(samples)
        traced_now = trace and run_id % 2 == 1
        sample = run_process(workload, seed, run_id, traced_now, deadline, check)
        after = probe()
        sample["probe_s"] = (before + after) / 2
        before = after
        samples.append(sample)
        (traced if traced_now else timed).append(sample)

    if trace:
        layered = [s for s in traced if s["layers"] is not None]
        for s in layered:
            nonzero = [m for m in workload.zero_counts if s["layers"][m] != 0]
            if nonzero:
                s["problems"].append(f"non-zero counts: {nonzero}")
            differ = [m for m in tracing.EXACT
                      if m in s["layers"] and s["layers"][m] != layered[0]["layers"][m]]
            if differ:
                s["problems"].append(f"counts differ between traced processes: {differ}")
    failed = sum(1 for s in samples if s["problems"])
    problems = [p for s in samples for p in s["problems"]]
    metrics: dict[str, dict] = {}
    spread: dict[str, tuple] = {}
    unscaled: dict[str, tuple] = {}  # printed, not gated
    probe_s = None
    if trace:
        good = [s["layers"] for s in layered]
        untraced = [s["main_s"] for s in timed if "main_s" in s]
        for name, unit in tracing.METRICS:
            if name == "trace.overhead_s":
                values = [statistics.median(g["cli.main.wall_s"] for g in good)
                          - statistics.median(untraced)] if good and untraced else []
            else:
                values = [g[name] for g in good]
            if values:
                spread[name] = (*quartiles(values), len(values))
                # exact counts repeat, so report the count itself, not a mean of two
                value = values[0] if name in tracing.EXACT else spread[name][1]
                metrics[name] = {"value": value, "unit": unit}
    else:
        ok = [s for s in timed if not s["problems"]]
        for s in ok:
            scale = PROBE_REFERENCE_S / s["probe_s"]
            s["setup_unscaled_s"] = s["setup_s"]
            s["items_per_s"] = workload.items / s["wall_s"]
            s["wall_ref_s"] = s["wall_s"] * scale
            s["cpu_ref_s"] = s["cpu_s"] * scale
            s["setup_s"] = s["setup_unscaled_s"] * scale
            s["items_per_ref_s"] = workload.items / s["wall_ref_s"]
        if ok:
            for name, unit in END_TO_END:
                values = [s[name] for s in ok]
                spread[name] = (*quartiles(values), len(values))
                metrics[name] = {"value": spread[name][1], "unit": unit}
                if name in UNSCALED:
                    raw = [s[UNSCALED[name]] for s in ok]
                    unscaled[UNSCALED[name]] = (*quartiles(raw), len(raw), unit)
            probe_s = statistics.median(s["probe_s"] for s in ok)

    meta = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "samples": len(samples) - 1,
        "warmup": 1,
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu": CPU,
        "commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "elapsed_s": time.monotonic() - started,
        "probe_reference_s": PROBE_REFERENCE_S,
        "probe_s": probe_s,
        "unscaled_medians": {name: q[1] for name, q in unscaled.items()},
    }
    return {
        "meta": meta,
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "spread": spread,
        "unscaled": unscaled,
    }


def report(result: dict) -> None:
    """Human-readable lines: every metric with unit, quartiles and sample count."""
    meta = result["meta"]
    print(f"== {meta['workload']} (seed {meta['seed']}, trace {meta['trace']})")
    for name, (q1, median, q3, n) in result["spread"].items():
        unit = result["metrics"][name]["unit"]
        print(f"  {name:42s} {median:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    for name, (q1, median, q3, n, unit) in result["unscaled"].items():
        print(f"  {name:42s} {median:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={n}; unscaled, not gated)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':42s} {failed / attempted:.6g} ratio  ({failed} of {attempted} processes)")
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    print("meta: " + json.dumps(meta))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chebcone" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no chebcone sources under {SRC}\n")
        return 2
    expected = json.loads(EXPECTED.read_text())
    global NPROC, CPU
    NPROC, CPU = pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), expected)
               for n in names]
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['meta']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
