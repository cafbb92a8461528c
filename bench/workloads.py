"""The benchmark workloads.

Each part below has fixed library objects (built once per process and
timed as set-up), a job list generated from the seed, and per job kind
the library calls to time, a summary of the output, and an independent
check of that summary.  The benchmarked workloads pair the parts, one
workload per side of the library: exact = lattice-words + hulls-forms,
surface = fiber-orbits + ergodic-words.  The jobs of one pass run one
after another in one process, a closed loop with a single client.

Why these four parts:

* lattice-words: isometry, polynomials and linalg_exact do nearly all
  the work.  Small ranks set job_p50_ms (mostly Sturm bisection); the
  rank-10 and rank-18 words set job_tail_ms and most of wall_s (mostly
  Fraction charpoly), so the Sturm and the charpoly work each have a
  metric to move.
* hulls-forms: torus, hodge and exact.  linalg_exact is used for lattice
  reduction (LLL, HNF, rank) rather than elimination on isometries, so a
  change to a shared routine shows on two different uses; the 14x14
  hafnians set the tail.
* fiber-orbits: the scalar, chained surface path on few lanes: two
  involutions per step, fiber_cells probing and per-step cell binning.
  Lock-step batching has nothing to batch here.  The orbits are 5000
  steps on a G = 8 grid, not criterion 8's 10^5 steps at G = 16: one
  criterion-8 fiber takes 2.5 s, so a run could hold only a few fibers
  and no tail percentile.
* ergodic-words: the surface layer with many independent lanes: the
  numpy Monte Carlo space average, sampling with retries, random words
  over two maps, and Birkhoff jobs that share a seed across test
  functions.  Batching or sharing trajectories shows here and can be
  checked against fiber-orbits.  The sampling batches set job_p50_ms,
  the Birkhoff words job_tail_ms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp
import numpy as np

from parabolic_lab import exact, hodge, isometry, lattice, surface222, torus

import oracles


@dataclass
class Job:
    kind: str
    data: dict


@dataclass(frozen=True)
class Kind:
    """How one kind of job runs (timed), summarizes and is checked (untimed)."""

    run: Callable[[dict, dict], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict, dict, dict], None]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], dict]
    generate: Callable[[dict, int, dict], list[Job]]
    kinds: dict[str, Kind]
    sizes: dict
    tiny: dict
    counts: Callable[[list[Job], list[dict]], dict]
    properties: Callable[[list[Job]], dict]
    verdicts: Callable[[list[Job], list[dict]], list[bool]] | None = None


def _stream(seed: int, label: str) -> random.Random:
    """An independent, reproducible stream per (seed, stratum)."""
    return random.Random(f"{seed}:{label}")


# =============================================================================
# lattice-words
# =============================================================================

SEED_GRID = [(a_sq, big_n) for a_sq in (2, 4, 6, 8, 10) for big_n in (1, 2, 3, 4, 5)]
SEED_SCAN_BOX = 10


@dataclass(frozen=True)
class Family:
    """A lattice, a positive witness vector and letter groups for words."""

    lattice: lattice.QuadLattice
    witness: tuple
    groups: tuple


def _pair(lat, e, v):
    t = isometry.eichler_transvection(lat, e, v)
    return [t, isometry.inverse(t)]


def _unit(n: int, i: int) -> tuple:
    return tuple(int(j == i) for j in range(n))


def _small_families() -> list[Family]:
    out = []
    for diag, mat in (((2, -1), ((3, 2), (4, 3))), ((3, -1), ((2, 1), (3, 2)))):
        lat = lattice.diagonal_lattice(*diag)
        g = isometry.LatticeIsometry(lat, mat)
        out.append(Family(lat, (1, 0), ([g, isometry.inverse(g)],)))
    u = lattice.hyperbolic_plane()
    for d in (-2, -4):
        lat = u.direct_sum(lattice.diagonal_lattice(d))
        letters = _pair(lat, (1, 0, 0), (0, 0, 1)) + _pair(lat, (0, 1, 0), (0, 0, 1))
        letters.append(isometry.LatticeIsometry(lat, ((0, 1, 0), (1, 0, 0), (0, 0, -1))))
        out.append(Family(lat, (2, 1, 0), (letters,)))
    lat = u.direct_sum(lattice.diagonal_lattice(-2, -2))
    letters = (
        _pair(lat, (1, 0, 0, 0), (0, 0, 1, 0))
        + _pair(lat, (1, 0, 0, 0), (0, 0, 0, 1))
        + _pair(lat, (0, 1, 0, 0), (0, 0, 1, 1))
    )
    letters.append(isometry.LatticeIsometry(
        lat, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))))
    letters.append(isometry.LatticeIsometry(
        lat, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))))
    out.append(Family(lat, (2, 1, 0, 0), (letters,)))
    return out


def _seed_family(a_sq: int, big_n: int) -> tuple:
    marked = lattice.build_parabolic_seed_lattice(a_sq, big_n)
    lat = marked.lattice
    other = (1, 0, -a_sq // 2)  # the second isotropic vector of the seed lattice
    letters = (
        _pair(lat, marked.y, (0, 1, 0))
        + _pair(lat, marked.y, (0, 1, 1))
        + _pair(lat, other, (0, 1, 0))
    )
    return marked, Family(lat, (1, 0, 0), (letters,))


def _unimodular_family(copies: int) -> Family:
    """U + E8(-1)^copies with transvections along both isotropic axes of U."""
    lat = lattice.hyperbolic_plane()
    for _ in range(copies):
        lat = lat.direct_sum(lattice.e8_lattice())
    n = lat.rank
    groups = []
    for axis in (0, 1):
        letters = []
        for k in range(2, n):
            letters += _pair(lat, _unit(n, axis), _unit(n, k))
        groups.append(letters)
    return Family(lat, (2, 1) + (0,) * (n - 2), tuple(groups))


def build_lattice_words() -> dict:
    return {
        "small": _small_families(),
        "seed": {ab: _seed_family(*ab) for ab in SEED_GRID},
        10: _unimodular_family(1),
        18: _unimodular_family(2),
    }


def _word(family: Family, letters) -> isometry.LatticeIsometry:
    m = oracles.identity(family.lattice.rank)
    for g in letters:
        m = oracles.matmul(m, g.matrix)
    return isometry.LatticeIsometry(family.lattice, tuple(tuple(r) for r in m))


def _random_letters(rng: random.Random, group, length: int):
    return [group[rng.randrange(len(group))] for _ in range(length)]


def _same_axis_pair(rng: random.Random, family: Family):
    """Two letters along one isotropic vector: their product is a transvection."""
    group = family.groups[rng.randrange(2)]
    first = rng.randrange(len(group))
    second = rng.choice([i for i in range(len(group)) if i != first ^ 1])
    return [group[first], group[second]]  # index i ^ 1 is the inverse of i


def _alternating_triple(rng: random.Random, family: Family):
    start = rng.randrange(2)
    return [
        family.groups[(start + k) % 2][rng.randrange(len(family.groups[0]))]
        for k in range(3)
    ]


def generate_lattice_words(fixed: dict, seed: int, sizes: dict) -> list[Job]:
    jobs = []
    rng = _stream(seed, "small")
    families = fixed["small"]
    seen = set()
    k = 0
    while len(jobs) < sizes["small"]:
        # families and lengths 1..4 in turn; a word whose matrix is already
        # in the list is skipped, so no input repeats and a cache keyed on
        # the input gains nothing.  The rank-2 families, whose words are
        # powers of one generator, run out of new words first.
        fam = families[k % len(families)]
        length = 1 + (k // len(families)) % 4
        k += 1
        g = _word(fam, _random_letters(rng, fam.groups[0], length))
        if (id(fam), g.matrix) not in seen:
            seen.add((id(fam), g.matrix))
            jobs.append(Job("word", {"family": fam, "g": g, "rank": fam.lattice.rank}))
    rng = _stream(seed, "seed")
    grid = list(SEED_GRID)
    rng.shuffle(grid)
    for ab in grid[: sizes["seed"]]:
        marked, fam = fixed["seed"][ab]
        g = _word(fam, _random_letters(rng, fam.groups[0], rng.randint(1, 4)))
        jobs.append(Job("seed_word", {"family": fam, "g": g, "rank": 3,
                                      "marked": marked, "grid": ab}))
    for rank in (10, 18):
        fam = fixed[rank]
        rng = _stream(seed, f"rank{rank}")
        for maker, count in ((_same_axis_pair, sizes[f"r{rank}_pair"]),
                             (_alternating_triple, sizes[f"r{rank}_mixed"])):
            for _ in range(count):
                g = _word(fam, maker(rng, fam))
                jobs.append(Job("word", {"family": fam, "g": g, "rank": rank}))
    return jobs


def _classify_and_limit(family: Family, g):
    cls = isometry.classify(g)
    limit = (
        isometry.limit_nef_class(g, family.witness)
        if isinstance(cls, isometry.Parabolic)
        else None
    )
    return cls, limit


def _run_word(fixed, data):
    return _classify_and_limit(data["family"], data["g"])


def _run_seed_word(fixed, data):
    cls, limit = _classify_and_limit(data["family"], data["g"])
    return cls, limit, lattice.scan_orthogonal_negatives(data["marked"], SEED_SCAN_BOX)


def _summarize_class(out) -> dict:
    cls, limit = out[0], out[1]
    s = {"tag": cls.tag}
    if isinstance(cls, isometry.Elliptic):
        s["order"] = cls.order
    elif isinstance(cls, isometry.Parabolic):
        s["fixed_vector"] = list(cls.fixed_vector)
        s["limit_direction"] = list(limit)
    elif isinstance(cls, isometry.Loxodromic):
        s["eigenvalue"] = cls.eigenvalue
    else:
        s["det"] = cls.det
        s["time_preserving"] = cls.time_preserving
    if len(out) == 3:
        s["scan"] = [[list(v), q] for v, q in out[2]]
    return s


def _check_word(fixed, data, s):
    fam = data["family"]
    oracles.check_classification(fam.lattice.gram, data["g"].matrix, fam.witness, s["tag"], s)
    if "marked" in data:
        oracles.check_seed_scan(*data["grid"], SEED_SCAN_BOX, s["scan"])


def _lattice_counts(jobs, outs) -> dict:
    tags = {}
    for o in outs:
        tags[o["tag"]] = tags.get(o["tag"], 0) + 1
    return {
        "outcome": dict(sorted(tags.items())),
        "loxodromic_share": tags.get("Loxodromic", 0) / max(1, len(outs)),
        "scan_vectors": sum(len(o.get("scan", ())) for o in outs),
    }


def _lattice_properties(jobs) -> dict:
    ranks = {}
    for j in jobs:
        ranks[j.data["rank"]] = ranks.get(j.data["rank"], 0) + 1
    big = sum(c for r, c in ranks.items() if r >= 10)
    # short words over two or three letters recur within one job list; a
    # cache keyed on the input gains on these jobs only
    distinct = {(j.kind, id(j.data["family"]), j.data["g"].matrix) for j in jobs}
    return {"jobs_by_rank": dict(sorted(ranks.items())), "rank_ge_10_share": big / len(jobs),
            "repeated_input_share": 1 - len(distinct) / len(jobs)}


LATTICE_WORDS = Workload(
    name="lattice-words",
    build=build_lattice_words,
    generate=generate_lattice_words,
    kinds={"word": Kind(_run_word, _summarize_class, _check_word),
           "seed_word": Kind(_run_seed_word, _summarize_class, _check_word)},
    sizes={"small": 360, "seed": 13, "r10_pair": 2, "r10_mixed": 2,
           "r18_pair": 1, "r18_mixed": 1},
    tiny={"small": 4, "seed": 2, "r10_pair": 1, "r10_mixed": 1, "r18_pair": 1, "r18_mixed": 0},
    counts=_lattice_counts,
    properties=_lattice_properties,
)


# =============================================================================
# hulls-forms
# =============================================================================

HULL_PRECISION = 160
HULL_HEIGHT = 10**6
HULL_TOL = 1e-24
PLANT_MAX_HEIGHT = 1000
SQUAREFREE = (2, 3, 5, 7, 11, 13, 17, 19)


def build_hulls_forms() -> dict:
    return {}


def _planted_instance(rng: random.Random, n: int) -> tuple:
    """(x at 160 bits in [0,1)^n, relation rows) with a saturated planted lattice.

    Relation i reads x[p_i] = sum_j a_ij x[j] + c_i over the free
    coordinates j; each row has a unit in its own pivot column, which
    keeps the lattice saturated.
    """
    while True:
        r = rng.randint(1, n - 1)
        cols = list(range(n))
        rng.shuffle(cols)
        pivots, free = cols[:r], cols[r:]
        with mp.workprec(HULL_PRECISION):
            x = [mp.mpf(0)] * n
            for j in free:
                x[j] = mp.mpf(rng.getrandbits(HULL_PRECISION)) / mp.mpf(2) ** HULL_PRECISION
            rows = []
            for p in pivots:
                coeffs = {j: rng.randint(-7, 7) for j in free}
                y = sum(a * x[j] for j, a in coeffs.items())
                shift = int(mp.floor(y))
                x[p] = y - shift
                row = [0] * (n + 1)
                row[p] = 1
                for j, a in coeffs.items():
                    row[j] = -a
                row[n] = shift
                rows.append(row)
        want = oracles.hermite_rows(rows)
        if max(abs(c) for row in want for c in row) <= PLANT_MAX_HEIGHT:
            return tuple(x), rows


def _exact_coords(rng: random.Random, n: int) -> tuple[str, ...]:
    """Coordinates in distinct Q[sqrt d]: together with 1 they are independent."""
    ds = rng.sample(SQUAREFREE, n)
    out = []
    for d in ds:
        num = rng.choice([k for k in range(-9, 10) if k])
        out.append(f"{num}/{rng.randint(1, 9)}*sqrt{d}+{rng.randint(0, 9)}/{rng.randint(1, 9)}")
    return tuple(out)


def _entry(rng: random.Random, fractional: bool, nonzero: bool = False):
    while True:
        num = rng.randint(-9, 9)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, 5)) if fractional else num


def _hafnian_instance(rng: random.Random, m: int, fractional: bool, family: str):
    """A symmetric m x m matrix with a closed-form hafnian (see oracles)."""
    a = [[0] * m for _ in range(m)]
    if family == "rank1":
        v = [_entry(rng, fractional, nonzero=True) for _ in range(m)]
        for i in range(m):
            for j in range(m):
                a[i][j] = v[i] * v[j] if i != j else _entry(rng, fractional)
        return a, ("rank1", v)
    sizes = []
    while sum(sizes) < m:
        sizes.append(4 if m - sum(sizes) >= 4 and rng.random() < 0.5 else 2)
    perm = list(range(m))
    rng.shuffle(perm)
    blocks, start = [], 0
    for size in sizes:
        idx = perm[start:start + size]
        block = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                block[i][j] = block[j][i] = _entry(rng, fractional)
        for i in range(size):
            for j in range(size):
                a[idx[i]][idx[j]] = block[i][j]
        blocks.append(block)
        start += size
    return a, ("blocks", blocks)


def _pd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + 0.05 * np.eye(n)


def generate_hulls_forms(fixed: dict, seed: int, sizes: dict) -> list[Job]:
    jobs = []
    rng = _stream(seed, "planted")
    for n in range(2, 7):
        for _ in range(sizes["planted_per_n"]):
            x, rows = _planted_instance(rng, n)
            jobs.append(Job("hull", {"n": n, "x": torus.TranslationVector(x, HULL_PRECISION),
                                     "rows": rows}))
    rng = _stream(seed, "exact")
    for k in range(sizes["exact"]):
        coords = _exact_coords(rng, 2 + k % 3)
        jobs.append(Job("hull_exact", {"n": len(coords), "coords": coords, "rows": []}))
    for fractional in (False, True):
        label = "frac" if fractional else "int"
        rng = _stream(seed, f"hafnian-{label}")
        for m, count in sizes[f"hafnian_{label}"].items():
            for k in range(count):
                a, spec = _hafnian_instance(rng, m, fractional, ("rank1", "blocks")[k % 2])
                jobs.append(Job("hafnian", {"m": m, "fractional": fractional,
                                            "matrix": a, "spec": spec}))
    nrng = np.random.default_rng([seed, 0xA6])
    for k in range(sizes["amgm"]):
        n = 1 + k % 5
        h1 = _pd_matrix(nrng, n)
        h2 = h1 * nrng.uniform(1.5, 3.0) if k % 4 == 3 else _pd_matrix(nrng, n)
        jobs.append(Job("amgm", {"h1": hodge.HermitianForm(h1), "h2": hodge.HermitianForm(h2)}))
    return jobs


def _run_hull(fixed, data):
    return torus.rational_hull(data["x"], height_bound=HULL_HEIGHT, tol=HULL_TOL)


def _run_hull_exact(fixed, data):
    x = tuple(exact.parse_real(c) for c in data["coords"])
    return torus.rational_hull(torus.TranslationVector(x), height_bound=HULL_HEIGHT, tol=HULL_TOL)


def _summarize_hull(h) -> dict:
    return {"relations": [list(r) for r in h.relation_basis], "dimension": h.dimension}


def _check_hull(fixed, data, s):
    oracles.check_hull(data["n"], data["rows"], s["relations"], s["dimension"])


def _run_hafnian(fixed, data):
    return hodge.hafnian(data["matrix"])


def _check_hafnian(fixed, data, s):
    oracles.check_hafnian(data["spec"], s["value"])


def _run_amgm(fixed, data):
    return (hodge.amgm_rigidity_check(data["h1"], data["h2"]),
            hodge.amgm_rigidity_check(data["h1"], data["h1"]))


def _check_amgm(fixed, data, s):
    h1, h2 = data["h1"].entries, data["h2"].entries
    oracles.check_rigidity(h1, h2, s["verdict"])
    oracles.check_rigidity(h1, h1, s["self_verdict"])


def _hulls_counts(jobs, outs) -> dict:
    verdicts = {}
    relations = 0
    for j, o in zip(jobs, outs):
        if j.kind.startswith("hull"):
            relations += len(o["relations"])
        elif j.kind == "amgm":
            verdicts[o["verdict"]] = verdicts.get(o["verdict"], 0) + 1
    return {"relations_found": relations, "amgm_verdicts": dict(sorted(verdicts.items()))}


def _hulls_properties(jobs) -> dict:
    mix = {}
    for j in jobs:
        if j.kind == "hafnian":
            key = f"{j.data['m']}{'q' if j.data['fractional'] else 'z'}"
            mix[key] = mix.get(key, 0) + 1
    kinds = {}
    for j in jobs:
        kinds[j.kind] = kinds.get(j.kind, 0) + 1
    return {"hafnian_size_mix": mix, "jobs_by_kind": kinds}


HULLS_FORMS = Workload(
    name="hulls-forms",
    build=build_hulls_forms,
    generate=generate_hulls_forms,
    kinds={
        "hull": Kind(_run_hull, _summarize_hull, _check_hull),
        "hull_exact": Kind(_run_hull_exact, _summarize_hull, _check_hull),
        "hafnian": Kind(_run_hafnian, lambda v: {"value": v}, _check_hafnian),
        "amgm": Kind(_run_amgm, lambda v: {"verdict": v[0].value, "self_verdict": v[1].value},
                     _check_amgm),
    },
    sizes={"planted_per_n": 12, "exact": 20,
           "hafnian_int": {8: 4, 10: 4, 12: 4, 14: 20},
           "hafnian_frac": {8: 4, 10: 4, 12: 4, 14: 1},
           "amgm": 20},
    tiny={"planted_per_n": 1, "exact": 3,
          "hafnian_int": {8: 2, 10: 1}, "hafnian_frac": {8: 2}, "amgm": 4},
    counts=_hulls_counts,
    properties=_hulls_properties,
)


# =============================================================================
# surface workloads
# =============================================================================

FIBER_PAIR = ("y", "z")
COVERAGE_THRESHOLD = 0.95
BIRKHOFF_Z_MAX = 3.0
CONTRAST_RATIO_MIN = 10.0
TEST_RANGES = {"x_abs2": (0.0, 0.25), "x_re": (-0.5, 0.5),
               "y_abs2": (0.0, 0.25), "z_abs2": (0.0, 0.25)}


def build_surface() -> dict:
    return {"surface": surface222.reference_surface()}


def _fs_uniform(rng: np.random.Generator) -> tuple[complex, complex]:
    """A Fubini-Study uniform point of P^1, normalized to max modulus 1."""
    g = rng.normal(size=4)
    c0, c1 = complex(g[0], g[1]), complex(g[2], g[3])
    m = max(abs(c0), abs(c1))
    return (c0 / m, c1 / m)


# -- fiber-orbits ---------------------------------------------------------------

def generate_fiber_orbits(fixed: dict, seed: int, sizes: dict) -> list[Job]:
    jobs = []
    for i in range(sizes["fibers"]):
        base = _fs_uniform(np.random.default_rng([seed, 0xF0, i]))
        jobs.append(Job("fiber", {"base": base, "start_seed": [seed, 0xF1, i],
                                  "orbit_seed": [seed, 0xF2, i],
                                  "steps": sizes["steps"], "grid": sizes["grid"]}))
    return jobs


def _run_fiber(fixed, data):
    s = fixed["surface"]
    start = surface222.sample_fiber_point(
        s, FIBER_PAIR, data["base"], np.random.default_rng(data["start_seed"]))
    rep = surface222.fiber_orbit(
        s, FIBER_PAIR, data["base"], start, data["steps"], grid=data["grid"],
        rng=np.random.default_rng(data["orbit_seed"]))
    return start, rep


def _summarize_fiber(out) -> dict:
    start, rep = out
    return {"start": start, "length": rep.length, "cells_fiber": rep.cells_fiber,
            "cells_visited": rep.cells_visited, "coverage": rep.coverage,
            "interruptions": rep.interruptions, "min_visits": rep.min_visits,
            "mean_visits": rep.mean_visits}


def _check_fiber(fixed, data, s):
    oracles.check_surface_point(fixed["surface"].coeffs, s["start"], "x", data["base"])
    steps = data["steps"]
    oracles.require(s["length"] == steps, "orbit length differs from the request")
    oracles.require(0 < s["cells_fiber"], "fiber with no cells")
    oracles.require(0 <= s["cells_visited"] <= s["cells_fiber"], "visited cells out of range")
    oracles.require(s["coverage"] == s["cells_visited"] / s["cells_fiber"], "coverage ratio wrong")
    oracles.require(s["interruptions"] <= max(1, steps // 1000), "interruptions over budget")
    oracles.require(0 <= s["min_visits"] <= s["mean_visits"], "visit statistics inconsistent")
    oracles.require(s["mean_visits"] * s["cells_fiber"] <= steps + 1, "more visits than points")


def _fiber_verdicts(jobs, outs) -> list[bool]:
    return [o["coverage"] >= COVERAGE_THRESHOLD for o in outs]


def _fiber_counts(jobs, outs) -> dict:
    return {"interruptions": sum(o["interruptions"] for o in outs),
            "cells_fiber": sum(o["cells_fiber"] for o in outs),
            "cells_visited": sum(o["cells_visited"] for o in outs)}


FIBER_ORBITS = Workload(
    name="fiber-orbits",
    build=build_surface,
    generate=generate_fiber_orbits,
    kinds={"fiber": Kind(_run_fiber, _summarize_fiber, _check_fiber)},
    sizes={"fibers": 28, "steps": 5000, "grid": 8},
    tiny={"fibers": 2, "steps": 500, "grid": 4},
    verdicts=_fiber_verdicts,
    counts=_fiber_counts,
    properties=lambda jobs: {"fibers": len(jobs), "steps": jobs[0].data["steps"],
                             "grid": jobs[0].data["grid"]},
)


# -- ergodic-words --------------------------------------------------------------

SHARED_FIDS = ("x_abs2", "x_re", "y_abs2")
FRESH_FIDS = ("x_abs2", "x_re", "y_abs2", "z_abs2")


def generate_ergodic_words(fixed: dict, seed: int, sizes: dict) -> list[Job]:
    rng = _stream(seed, "ergodic")
    b = sizes["birkhoff"]
    jobs = []

    def birkhoff(fid, job_seed, shared):
        jobs.append(Job("birkhoff", {"fid": fid, "seed": job_seed, "shared": shared,
                                     "length": b["length"], "trials": b["trials"],
                                     "mc": b["mc"]}))

    for _ in range(sizes["shared_groups"]):
        job_seed = rng.getrandbits(32)
        for fid in SHARED_FIDS:
            birkhoff(fid, job_seed, True)
    for k in range(sizes["fresh"]):
        birkhoff(FRESH_FIDS[k % len(FRESH_FIDS)], rng.getrandbits(32), False)
    c = sizes["contrast"]
    for _ in range(c["count"]):
        jobs.append(Job("contrast", {"seed": rng.getrandbits(32), "fibers": c["fibers"],
                                     "trials": c["trials"], "length": c["length"]}))
    for k in range(sizes["sample_batches"]):
        fiber = k % 2 == 1
        data = {"seed": [seed, 0x5A, k], "count": sizes["batch"]}
        if fiber:
            data["base"] = _fs_uniform(np.random.default_rng([seed, 0x5B, k]))
        jobs.append(Job("fiber_samples" if fiber else "samples", data))
    return jobs


def _run_birkhoff(fixed, data):
    return surface222.birkhoff_ergodicity_test(
        fixed["surface"], data["fid"], word_length=data["length"], trials=data["trials"],
        mc_samples=data["mc"], seed=data["seed"])


def _in_range(fid: str, value: float) -> bool:
    lo, hi = TEST_RANGES[fid]
    return lo - 1e-12 <= value <= hi + 1e-12


def _check_birkhoff(fixed, data, rep):
    fid = data["fid"]
    means = rep["trial_means"]
    oracles.require(len(means) == data["trials"], "wrong number of trials")
    oracles.require(all(_in_range(fid, m) for m in means), "trial mean outside the function's range")
    oracles.require(_in_range(fid, rep["space_average"]), "space average outside the range")
    ta = float(np.mean(means))
    oracles.require(abs(rep["time_average"] - ta) <= 1e-12 * max(1.0, abs(ta)),
                    "time average is not the mean of the trials")
    se = float(np.hypot(rep["time_se"], rep["space_se"]))
    z = abs(rep["time_average"] - rep["space_average"]) / se
    oracles.require(abs(rep["z_score"] - z) <= 1e-9 * max(1.0, z), "z-score inconsistent")


def _run_contrast(fixed, data):
    return surface222.ergodicity_contrast(
        fixed["surface"], FIBER_PAIR, "y_abs2", n_fibers=data["fibers"],
        trials_per_fiber=data["trials"], word_length=data["length"], seed=data["seed"])


def _check_contrast(fixed, data, rep):
    means = rep["fiber_means"]
    oracles.require(len(means) == data["fibers"], "wrong number of fibers")
    oracles.require(all(_in_range("y_abs2", m) for m in means), "fiber mean outside the range")
    cross = float(np.var(means, ddof=1))
    oracles.require(abs(rep["cross_fiber_variance"] - cross) <= 1e-12 * max(cross, 1e-300),
                    "cross-fiber variance inconsistent")
    ratio = rep["cross_fiber_variance"] / rep["within_fiber_variance"]
    oracles.require(rep["variance_ratio"] == ratio, "variance ratio inconsistent")


def _run_samples(fixed, data):
    rng = np.random.default_rng(data["seed"])
    return [surface222.sample_point(fixed["surface"], rng) for _ in range(data["count"])]


def _run_fiber_samples(fixed, data):
    rng = np.random.default_rng(data["seed"])
    return [surface222.sample_fiber_point(fixed["surface"], FIBER_PAIR, data["base"], rng)
            for _ in range(data["count"])]


def _check_samples(fixed, data, s):
    oracles.require(len(s["points"]) == data["count"], "wrong number of samples")
    base_axis = "x" if "base" in data else None
    for p in s["points"]:
        oracles.check_surface_point(fixed["surface"].coeffs, p, base_axis, data.get("base"))


def _ergodic_verdicts(jobs, outs) -> list[bool]:
    out = []
    for j, o in zip(jobs, outs):
        if j.kind == "birkhoff":
            out.append(o["z_score"] < BIRKHOFF_Z_MAX and not o["mc_unstable"])
        elif j.kind == "contrast":
            out.append(o["variance_ratio"] >= CONTRAST_RATIO_MIN)
    return out


def _ergodic_counts(jobs, outs) -> dict:
    return {"branch_interruptions": sum(o.get("branch_interruptions", 0) for o in outs),
            "samples": sum(len(o.get("points", ())) for o in outs)}


def _ergodic_properties(jobs) -> dict:
    birk = [j for j in jobs if j.kind == "birkhoff"]
    return {"birkhoff_jobs": len(birk),
            "birkhoff_shared_seed_share": sum(j.data["shared"] for j in birk) / max(1, len(birk)),
            "contrast_jobs": sum(j.kind == "contrast" for j in jobs),
            "sample_batches": sum(j.kind.endswith("samples") for j in jobs)}


ERGODIC_WORDS = Workload(
    name="ergodic-words",
    build=build_surface,
    generate=generate_ergodic_words,
    kinds={
        "birkhoff": Kind(_run_birkhoff, dict, _check_birkhoff),
        "contrast": Kind(_run_contrast, dict, _check_contrast),
        "samples": Kind(_run_samples, lambda pts: {"points": pts}, _check_samples),
        "fiber_samples": Kind(_run_fiber_samples, lambda pts: {"points": pts}, _check_samples),
    },
    sizes={"birkhoff": {"length": 1000, "trials": 8, "mc": 10**5},
           "shared_groups": 3, "fresh": 5,
           "contrast": {"count": 1, "fibers": 4, "trials": 3, "length": 3000},
           "sample_batches": 12, "batch": 500},
    tiny={"birkhoff": {"length": 100, "trials": 4, "mc": 10**4},
          "shared_groups": 1, "fresh": 1,
          "contrast": {"count": 1, "fibers": 3, "trials": 2, "length": 200},
          "sample_batches": 2, "batch": 20},
    verdicts=_ergodic_verdicts,
    counts=_ergodic_counts,
    properties=_ergodic_properties,
)


def combine(name: str, *parts: Workload) -> Workload:
    """One benchmarked workload that runs the job lists of several parts."""

    def build() -> dict:
        fixed = {}
        for part in parts:
            fixed.update(part.build())
        return fixed

    def generate(fixed: dict, seed: int, sizes: dict) -> list[Job]:
        return [job for part in parts for job in part.generate(fixed, seed, sizes[part.name])]

    def split(jobs, outs):
        for part in parts:
            pick = [(j, o) for j, o in zip(jobs, outs) if j.kind in part.kinds]
            yield part, [j for j, _ in pick], [o for _, o in pick]

    def counts(jobs, outs) -> dict:
        out = {}
        for part, js, os in split(jobs, outs):
            out[part.name] = part.counts(js, os)
            if part.verdicts is not None:
                verdicts = part.verdicts(js, os)
                out[part.name]["diag_pass_frac"] = sum(verdicts) / max(1, len(verdicts))
        return out

    def verdicts(jobs, outs) -> list[bool]:
        return [v for part, js, os in split(jobs, outs) if part.verdicts is not None
                for v in part.verdicts(js, os)]

    return Workload(
        name=name,
        build=build,
        generate=generate,
        kinds={k: kind for part in parts for k, kind in part.kinds.items()},
        sizes={part.name: part.sizes for part in parts},
        tiny={part.name: part.tiny for part in parts},
        counts=counts,
        properties=lambda jobs: {part.name: part.properties([j for j in jobs if j.kind in part.kinds])
                                 for part in parts},
        verdicts=verdicts if any(part.verdicts is not None for part in parts) else None,
    )


# Two benchmarked workloads, one per side of the library: four workloads
# leave no budget for runs long enough to be steady on a shared 2-vCPU
# host.  The strata are sized so that each end-to-end metric falls inside
# a block of similar jobs and so moves little from one seed to the next:
# in exact, the 360 short words (with the hulls) set job_p50_ms, the
# 14x14 hafnians job_tail_ms, and the rank-18 words and the hafnians make
# up most of wall_s; in surface, the 28 fibers set job_p50_ms and the
# Birkhoff words job_tail_ms.
WORKLOADS = {
    w.name: w for w in (combine("exact", LATTICE_WORDS, HULLS_FORMS),
                        combine("surface", FIBER_ORBITS, ERGODIC_WORDS))
}
