"""Self-test of the benchmark: tiny runs and corrupted-output rejection.

    python3 bench/selftest.py

Checks that a tiny-size run of every workload completes with every
output correct, untraced and traced, that its metric names are exactly
those of BENCHMARK.json, that two runs of one seed give the same exact
digest and counts, that every output check rejects a deliberately
corrupted result, and that the benchmark refuses to run without the
library sources.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        sys.exit(1)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(W.WORKLOADS),
           "BENCHMARK.json names exactly the defined workloads")
    for name in W.WORKLOADS:
        first, rep1 = run.measure(name, 3, 0, trace=False, tiny=True)
        _, rep2 = run.measure(name, 3, 0, trace=False, tiny=True)
        traced, rep3 = run.measure(name, 3, 0, trace=True, tiny=True)
        expect(first["correct"] and first["failed"] == 0 and first["attempted"] > 0,
               f"{name}: tiny run completes with every output checked")
        expect(set(first["metrics"]) == end_to_end, f"{name}: end-to-end metric names")
        expect(traced["correct"] and traced["failed"] == 0, f"{name}: tiny traced run")
        expect(set(traced["metrics"]) == per_layer, f"{name}: per-layer metric names")
        expect(rep1["exact_digest"] == rep2["exact_digest"] == rep3["exact_digest"]
               and rep1["counts"] == rep2["counts"],
               f"{name}: exact digest and counts repeat across runs")


def rejects(kind: W.Kind, fixed, job: W.Job, summary: dict, what: str) -> None:
    try:
        kind.check(fixed, job.data, summary)
    except oracles.CheckFailure:
        expect(True, f"check rejects {what}")
        return
    expect(False, f"check rejects {what}")


def accepts(kind: W.Kind, fixed, job: W.Job, summary: dict, what: str) -> None:
    kind.check(fixed, job.data, summary)
    expect(True, f"check accepts {what}")


def corrupted_lattice_words() -> None:
    w = W.LATTICE_WORDS
    fixed = w.build()
    pell, u2 = fixed["small"][0], fixed["small"][2]
    te, swap = u2.groups[0][0], u2.groups[0][-1]
    word = w.kinds["word"]
    cases = {}
    for label, fam, g in (("loxodromic", pell, pell.groups[0][0]),
                          ("parabolic", u2, te), ("elliptic", u2, swap)):
        job = W.Job("word", {"family": fam, "g": g, "rank": fam.lattice.rank})
        summary = word.summarize(word.run(fixed, job.data))
        accepts(word, fixed, job, summary, f"a true {label} verdict")
        cases[label] = (job, summary)

    job, s = cases["elliptic"]
    rejects(word, fixed, job, dict(s, tag="Loxodromic", eigenvalue=2), "elliptic tagged loxodromic")
    rejects(word, fixed, job, dict(s, order=s["order"] * 2), "a non-minimal elliptic order")
    job, s = cases["parabolic"]
    rejects(word, fixed, job, {"tag": "Elliptic", "order": 1}, "parabolic tagged elliptic")
    rejects(word, fixed, job, dict(s, limit_direction=[x + 1e-6 for x in s["limit_direction"]]),
            "a limit direction off the fixed vector")
    rejects(word, fixed, job, dict(s, fixed_vector=[2 * x for x in s["fixed_vector"]]),
            "an imprimitive fixed vector")
    job, s = cases["loxodromic"]
    rejects(word, fixed, job, {"tag": "Parabolic", "fixed_vector": [1, 0]}, "loxodromic tagged parabolic")
    rejects(word, fixed, job, dict(s, eigenvalue=s["eigenvalue"] + 1e-20), "a perturbed eigenvalue")

    seed_kind = w.kinds["seed_word"]
    marked, fam = fixed["seed"][(2, 1)]
    job = W.Job("seed_word", {"family": fam, "g": fam.groups[0][0], "rank": 3,
                              "marked": marked, "grid": (2, 1)})
    s = seed_kind.summarize(seed_kind.run(fixed, job.data))
    accepts(seed_kind, fixed, job, s, "a true seed-lattice scan")
    rejects(seed_kind, fixed, job, dict(s, scan=s["scan"][1:]), "a scan missing one vector")


def corrupted_hulls_forms() -> None:
    w = W.HULLS_FORMS
    fixed = w.build()
    jobs = w.generate(fixed, 5, w.tiny)
    for kind_name in ("hull", "hull_exact", "hafnian", "amgm"):
        job = next(j for j in jobs if j.kind == kind_name)
        kind = w.kinds[kind_name]
        s = kind.summarize(kind.run(fixed, job.data))
        accepts(kind, fixed, job, s, f"a true {kind_name} result")
        bad = copy.deepcopy(s)
        if kind_name == "hull":
            bad["relations"][0][-1] += 1
            rejects(kind, fixed, job, bad, "a wrong relation row")
        elif kind_name == "hull_exact":
            bad["relations"] = [[1] + [0] * job.data["n"]]
            bad["dimension"] -= 1
            rejects(kind, fixed, job, bad, "a spurious relation on independent coordinates")
        elif kind_name == "hafnian":
            bad["value"] += 1
            rejects(kind, fixed, job, bad, "an off-by-one hafnian")
        else:
            bad["self_verdict"] = "PremiseViolated"
            rejects(kind, fixed, job, bad, "a wrong rigidity verdict")


def corrupted_surface() -> None:
    w = W.ERGODIC_WORDS
    fixed = w.build()
    jobs = w.generate(fixed, 5, w.tiny)
    for kind_name in ("samples", "fiber_samples"):
        job = next(j for j in jobs if j.kind == kind_name)
        kind = w.kinds[kind_name]
        s = kind.summarize(kind.run(fixed, job.data))
        accepts(kind, fixed, job, s, f"true {kind_name}")
        p = s["points"][0]
        moved = type(p)(p.x, p.y, (p.z[0], p.z[1] + 1e-6), p.residual)
        rejects(kind, fixed, job, {"points": [moved] + s["points"][1:]}, f"an off-surface point ({kind_name})")
    job = next(j for j in jobs if j.kind == "birkhoff")
    kind = w.kinds["birkhoff"]
    s = kind.summarize(kind.run(fixed, job.data))
    accepts(kind, fixed, job, s, "a true Birkhoff report")
    rejects(kind, fixed, job, dict(s, z_score=s["z_score"] + 0.5), "an inconsistent z-score")

    w = W.FIBER_ORBITS
    job = w.generate(fixed, 5, w.tiny)[0]
    kind = w.kinds["fiber"]
    s = kind.summarize(kind.run(fixed, job.data))
    accepts(kind, fixed, job, s, "a true fiber-orbit report")
    rejects(kind, fixed, job, dict(s, cells_visited=s["cells_fiber"] + 1), "more visited cells than exist")


def refuses_without_sources() -> None:
    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without the library sources the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    corrupted_lattice_words()
    corrupted_hulls_forms()
    corrupted_surface()
    refuses_without_sources()
    tiny_runs()
