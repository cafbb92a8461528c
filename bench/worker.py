"""One pass over a workload's job list, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--tiny] [--trace]

run.py starts one worker per pass, so whatever the library keeps in
memory (a cache, a table built on first use) does not carry over from
one pass to the next: every pass pays for it again, in its set-up or in
its jobs.  The worker

1. times its set-up: `import parabolic_lab` plus building the
   workload's fixed library objects;
2. warms up, untimed, on one small job of each kind from another seed;
3. generates the job list from the seed, shuffles it (so that a slow
   phase of the host hits every stratum alike) and runs it one job at a
   time, timing each job;
4. checks every output with oracles.py, which shares no code with the
   library, and digests the exact outputs.

All of it runs under a hostspeed.Probe, and every set-up and job time is
given both raw and scaled to the probe's fixed host speed.  It prints
one JSON line with the per-job times, which jobs failed, the failures,
the digest, the deterministic counts and its peak resident memory.  With
--trace the layer boundaries are wrapped (tracer.py) while the jobs run,
and the per-layer totals are added.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WARMUP_SEED_OFFSET = 7919

# (metric name, tracer name, field) read from the traced pass
LAYER_TIMINGS = (
    ("polynomials.charpoly.s", "polynomials.charpoly", "s"),
    ("polynomials.minimal_polynomial.s", "polynomials.minimal_polynomial", "s"),
    ("polynomials.isolate_largest_root_above.s", "polynomials.isolate_largest_root_above", "s"),
    ("polynomials.strip_cyclotomic_factors.s", "polynomials.strip_cyclotomic_factors", "s"),
    ("linalg_exact.kernel_basis.s", "linalg_exact.kernel_basis", "s"),
    ("linalg_exact.det_exact.s", "linalg_exact.det_exact", "s"),
    ("linalg_exact.rank_exact.s", "linalg_exact.rank_exact", "s"),
    ("linalg_exact.solve_exact.s", "linalg_exact.solve_exact", "s"),
    ("linalg_exact.mat_mul.calls", "linalg_exact.mat_mul", "calls"),
    ("linalg_exact.mat_mul.s", "linalg_exact.mat_mul", "s"),
    ("linalg_exact.lll_reduce.s", "linalg_exact.lll_reduce", "s"),
    ("linalg_exact.hnf.s", "linalg_exact.hnf", "s"),
    ("torus.rational_hull.self_s", "torus.rational_hull", "self_s"),
    ("exact.parse_real.s", "exact.parse_real", "s"),
    ("hodge.hafnian.calls", "hodge.hafnian", "calls"),
    ("hodge.hafnian.s", "hodge.hafnian", "s"),
    ("hodge.amgm_rigidity_check.s", "hodge.amgm_rigidity_check", "s"),
    ("isometry.classify.self_s", "isometry.classify", "self_s"),
    ("isometry.limit_nef_class.self_s", "isometry.limit_nef_class", "self_s"),
    ("lattice.scan_orthogonal_negatives.s", "lattice.scan_orthogonal_negatives", "s"),
    ("surface222.fiber_cells.s", "surface222.fiber_cells", "s"),
    ("surface222.axis_quadratic.calls", "surface222.axis_quadratic", "calls"),
    ("surface222.involution.calls", "surface222.involution", "calls"),
    ("surface222.involution.s", "surface222.involution", "s"),
    ("surface222.parabolic_map.calls", "surface222.parabolic_map", "calls"),
    ("surface222.parabolic_map.s", "surface222.parabolic_map", "s"),
    ("surface222.pair_cell.calls", "surface222.pair_cell", "calls"),
    ("surface222.pair_cell.s", "surface222.pair_cell", "s"),
    ("surface222.fiber_orbit.self_s", "surface222.fiber_orbit", "self_s"),
    ("surface222.birkhoff_ergodicity_test.self_s", "surface222.birkhoff_ergodicity_test", "self_s"),
    ("surface222.sample_point.calls", "surface222.sample_point", "calls"),
    ("surface222.sample_point.s", "surface222.sample_point", "s"),
    ("surface222.sample_fiber_point.calls", "surface222.sample_fiber_point", "calls"),
    ("surface222.sample_fiber_point.s", "surface222.sample_fiber_point", "s"),
    ("surface222.eval_test_function.calls", "surface222.eval_test_function", "calls"),
    ("surface222.eval_test_function.s", "surface222.eval_test_function", "s"),
    ("surface222.ergodicity_contrast.self_s", "surface222.ergodicity_contrast", "self_s"),
)
OUTCOME_TAGS = ("Elliptic", "Parabolic", "Loxodromic", "OutsideSOPlus")


def exact_part(value):
    """The exact content of a job summary: ints, strings, bools, Fractions."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [exact_part(v) for v in value if _is_exact(v)]
    if isinstance(value, dict):
        return {k: exact_part(v) for k, v in value.items() if _is_exact(v)}
    return None


def _is_exact(value) -> bool:
    return value is None or isinstance(value, (bool, int, str, Fraction, list, tuple, dict))


def digest(summaries) -> str:
    blob = json.dumps([exact_part(s) for s in summaries], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def one_of_each_kind(jobs) -> list:
    seen = {}
    for job in jobs:
        seen.setdefault(job.kind, job)
    return list(seen.values())


def run_pass(workload_name: str, seed: int, tiny: bool, trace: bool) -> dict:
    with hostspeed.Probe() as probe:
        return _run_pass(probe, workload_name, seed, tiny, trace)


def _run_pass(probe, workload_name: str, seed: int, tiny: bool, trace: bool) -> dict:
    def set_up():
        import parabolic_lab  # noqa: F401  (the import is part of set-up)

    _, import_raw, import_scaled = probe.timed(set_up)
    from parabolic_lab.errors import ContractError, PreconditionError

    import oracles
    import workloads

    w = workloads.WORKLOADS[workload_name]
    fixed, build_raw, build_scaled = probe.timed(w.build)

    lib_errors = (ContractError, PreconditionError)
    failures: list[str] = []

    def execute(job, tracer=None):
        """(raw seconds, scaled seconds, summary); all None if the library raised."""
        kind = w.kinds[job.kind]
        call = lambda: kind.run(fixed, job.data)  # noqa: E731
        try:
            raw_out, raw, scaled = probe.timed(
                (lambda: tracer.job(job.kind, call)) if tracer else call)
        except lib_errors as exc:
            failures.append(f"{job.kind}: {type(exc).__name__}: {exc}")
            return None, None, None
        return raw, scaled, kind.summarize(raw_out)

    t = time.perf_counter()
    for job in one_of_each_kind(w.generate(fixed, seed + WARMUP_SEED_OFFSET, w.tiny)):
        execute(job)
    warmup = time.perf_counter() - t
    failures.clear()

    jobs = w.generate(fixed, seed, w.tiny if tiny else w.sizes)
    random.Random(seed).shuffle(jobs)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            outs = [execute(job, tracer) for job in jobs]
    else:
        outs = [execute(job) for job in jobs]

    t = time.perf_counter()
    failed = [s is None for _, _, s in outs]
    wrong = 0
    for i, (job, (_, _, s)) in enumerate(zip(jobs, outs)):
        if s is None:
            continue
        try:
            w.kinds[job.kind].check(fixed, job.data, s)
        except oracles.CheckFailure as exc:
            failed[i] = True
            wrong += 1
            failures.append(f"{job.kind}: check failed: {exc}")
    check = time.perf_counter() - t

    done = [(j, s) for j, (_, _, s) in zip(jobs, outs) if s is not None]
    out = {
        "setup_raw_s": import_raw + build_raw, "setup_s": import_scaled + build_scaled,
        "warmup_s": warmup, "check_s": check, "slowdown": probe.median_slowdown(),
        "kinds": [j.kind for j in jobs],
        "raw_s": [r for r, _, _ in outs], "scaled_s": [c for _, c, _ in outs],
        "failed": failed, "wrong": wrong,
        "failures": failures[:10],
        "digest": digest([s for _, _, s in outs]),
        "counts": w.counts([j for j, _ in done], [s for _, s in done]),
        "properties": w.properties(jobs),
    }
    if w.verdicts is not None:
        verdicts = w.verdicts([j for j, _ in done], [s for _, s in done])
        out["diag_verdicts"] = len(verdicts)
        out["diag_pass_frac"] = sum(verdicts) / len(verdicts) if verdicts else None
    if tracer is not None:
        out.update(layers(tracer, [s for _, s in done]))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return out


def layers(tracer, summaries) -> dict:
    """Per-layer metrics, sampling retries and the span table of a traced pass."""
    metrics = {}
    for metric, name, field in LAYER_TIMINGS:
        calls, incl, own = tracer.totals(name)
        value = {"calls": calls, "s": incl, "self_s": own}[field]
        metrics[metric] = {"value": value, "unit": "count" if field == "calls" else "s"}
    tags = {}
    for s in summaries:
        if "tag" in s:
            tags[s["tag"]] = tags.get(s["tag"], 0) + 1
    for tag in OUTCOME_TAGS:
        metrics[f"isometry.outcome.{tag}"] = {"value": tags.get(tag, 0), "unit": "count"}
    metrics["surface222.interruptions"] = {
        "value": sum(s.get("interruptions", 0) for s in summaries if "cells_fiber" in s),
        "unit": "count"}
    metrics["surface222.branch_interruptions"] = {
        "value": sum(s.get("branch_interruptions", 0) for s in summaries), "unit": "count"}

    fs = tracer.calls_by_parent("surface222._fs_pair")
    # sample_point draws two pairs per attempt, sample_fiber_point one
    retries = (fs.get("surface222.sample_point", 0) // 2 - tracer.totals("surface222.sample_point")[0]
               + fs.get("surface222.sample_fiber_point", 0)
               - tracer.totals("surface222.sample_fiber_point")[0])
    spans = sorted(([n, p, c, i, s] for (n, p), (c, i, s) in tracer.stats.items()),
                   key=lambda r: -r[3])
    return {"layers": metrics, "sampling_retries": retries, "spans": spans}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_pass(args.workload, args.seed, args.tiny, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
