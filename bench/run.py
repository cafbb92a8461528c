"""parabolic-lab benchmark: closed-loop workloads over the exact and surface layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The
seed generates every input.  Each workload is a fixed job list (see
workloads.py).  A pass runs the whole list one job at a time in a fresh
interpreter (worker.py), so a cache or a table the library builds in
memory is paid for again in every pass and cannot turn a repeated input
into a free one.  Passes repeat while --seconds allows, at least three,
and every pass runs the same inputs.  Every job's output is checked by
oracles.py, which shares no code with the library.

Times are scaled to a fixed host speed (hostspeed.py): a reference
kernel is timed every 20 ms during the pass, and each set-up and job
time is divided by the kernel's slowdown over its nominal duration in
that interval.  The raw times and slowdowns are in the report.

--trace 0 takes each job's latency as its median scaled time over the
passes, so neither a slow stretch of the host nor the number of passes
that fit biases it, and reports:

    setup_s      median over the passes: import parabolic_lab + the
                 workload's fixed objects
    wall_s       time to finish the job list: the sum of the job latencies
    job_p50_ms   median job latency
    job_tail_ms  latency at the highest percentile with 10 jobs beyond it
    peak_rss_mb  median over the passes of a pass's peak resident memory

`attempted` is the number of jobs in the list and `failed` the number of
them that raised a library error or failed their check; both depend on
the seed only.  Failed jobs are left out of the latency statistics.
`correct` is false when any check fails or two passes disagree on the
exact outputs, the counts or the failed jobs.

--trace 1 alternates untraced passes with passes whose layer boundaries
are wrapped (tracer.py), at least one of each, and reports the per-layer
metrics (raw seconds, medians over the traced passes) and
trace_overhead_frac, the ratio of the median scaled traced and untraced
pass walls minus one.

The last stdout line is the result object; the line before it is a
report with the machine, the job mix, deterministic counts, the digest
of all exact outputs and the pass layout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 1
TAIL_BEYOND = 10
PASS_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, tiny: bool, trace: bool) -> dict:
    """One pass in a fresh interpreter: worker.py's JSON output."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--tiny"] * tiny + ["--trace"] * trace
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise PassFailed(done.stderr.strip()[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def pass_wall(p: dict, field: str = "scaled_s") -> float:
    return sum(t for t in p[field] if t is not None)


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result, report)."""
    load_start = os.getloadavg()
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        plain.append(run_pass(workload, seed, tiny, False))
        if trace:
            traced.append(run_pass(workload, seed, tiny, True))
        elapsed = time.perf_counter() - begin
        rounds = len(plain)
        if rounds >= (MIN_TRACED_ROUNDS if trace else MIN_PASSES) and \
                elapsed * (rounds + 1) / rounds > seconds:
            break

    passes = plain + traced
    first = plain[0]
    failures = [f for p in passes for f in p["failures"]]
    # every pass runs the same jobs, so a job fails in all of them or in none
    consistent = all(p["digest"] == first["digest"] and p["counts"] == first["counts"]
                     and p["failed"] == first["failed"] for p in passes)
    if not consistent:
        failures.insert(0, "passes disagree on the exact outputs, the counts or the failed jobs")
    wrong = sum(p["wrong"] for p in passes)
    attempted = len(first["kinds"])
    failed = sum(any(p["failed"][i] for p in passes) for i in range(attempted))

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "loadavg_start": load_start,
        "jobs": attempted, "passes": len(plain), "traced_passes": len(traced),
        "input_properties": first["properties"], "counts": first["counts"],
        "exact_digest": first["digest"], "fail_frac": failed / attempted,
        "pass_wall_s": [pass_wall(p) for p in plain],
        "raw_pass_wall_s": [pass_wall(p, "raw_s") for p in plain],
        "host_slowdown": [p["slowdown"] for p in passes],
        "setup_samples_s": [p["setup_s"] for p in plain],
        "raw_setup_samples_s": [p["setup_raw_s"] for p in plain],
        "warmup_s": [p["warmup_s"] for p in passes],
        "check_s": [p["check_s"] for p in passes],
        "rss_mb": [p["rss_mb"] for p in plain],
    }
    if "diag_pass_frac" in first:
        report["diag_verdicts"] = first["diag_verdicts"]
        report["diag_pass_frac"] = first["diag_pass_frac"]
    if trace:
        report["counts"] = dict(first["counts"], sampling_retries=traced[0]["sampling_retries"])
        report["traced_pass_wall_s"] = [pass_wall(p) for p in traced]
        report["spans"] = traced[0]["spans"]
        metrics = _layer_metrics(plain, traced)
    else:
        metrics = _end_to_end(plain, report)
    report["failures"] = failures[:10]
    result = {"correct": wrong == 0 and consistent, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def _end_to_end(plain: list[dict], report: dict) -> dict:
    # every pass runs the same jobs; a job's latency is its median scaled
    # time over the passes, so a slow stretch of the host in one pass
    # moves few jobs
    per_job, by_kind = [], {}
    for i, kind in enumerate(plain[0]["kinds"]):
        times = [p["scaled_s"][i] for p in plain if p["scaled_s"][i] is not None]
        if times:
            per_job.append(statistics.median(times))
            by_kind.setdefault(kind, []).append(per_job[-1] * 1e3)
    ordered = sorted(per_job)
    tail = max(0, len(ordered) - TAIL_BEYOND - 1)
    report.update({
        "latency_jobs": len(ordered),
        "job_tail_percentile": 100.0 * (tail + 1) / len(ordered),
        "latency_by_kind_ms": {k: {"jobs": len(v), "p50": statistics.median(v), "max": max(v)}
                               for k, v in sorted(by_kind.items())},
    })
    return {
        "setup_s": {"value": statistics.median(p["setup_s"] for p in plain), "unit": "s"},
        "wall_s": {"value": sum(per_job), "unit": "s"},
        "job_p50_ms": {"value": statistics.median(ordered) * 1e3, "unit": "ms"},
        "job_tail_ms": {"value": ordered[tail] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in plain), "unit": "MB"},
    }


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {name: {"value": statistics.median(p["layers"][name]["value"] for p in traced),
                      "unit": m["unit"]}
               for name, m in traced[0]["layers"].items()}
    overhead = (statistics.median(pass_wall(p) for p in traced)
                / statistics.median(pass_wall(p) for p in plain) - 1)
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "parabolic_lab" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: a pass failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
