"""Command line harness: every pipeline behind one binary, reproducibly.

Subcommands mirror the library:

    lattice  {seed, signature, isotropic, represent}
    isometry {verify, classify, transvect, limit}
    torus    {orbit, hull, weyl, scan}
    hodge    {fujiki, hafnian, amgm}
    k3       {sample, involve, orbit, ergo}

One table, :data:`COMMANDS`, gives each subcommand its handler and its
options; the parser is built from it, and every subcommand also takes
``--seed`` and ``--out``.  A handler returns its result (or :class:`Csv`
rows for ``--format csv``) and :func:`main` writes the artifact.

Every artifact embeds the resolved configuration, its SHA-256 hash and
the seed.  The configuration is derived in one place: ``{"subcommand":
"<group> <cmd>"}`` plus every resolved option except ``--out`` (so
``torus orbit`` and ``k3 orbit`` record ``format``, ``torus orbit``
records its ``start`` default of zeros, and ``k3 ergo --contrast``
records the ``trials`` and ``mc`` it never reads as null).  Floats are
rendered with 17 significant digits, so identical configurations produce
byte-identical outputs (multi-worker runs merge in task order and use
per-task RNG streams derived from the master seed).  Exit codes: 0
success, 1 usage or malformed input, 2 precondition violation, 3
numerical-contract failure.

Real-valued inputs are exact expressions in the grammar of :mod:`.exact`,
e.g. ``--coords "sqrt2,2*sqrt2"`` or ``--grid "0,1/2,(sqrt5-1)/2"``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import surface222 as s2
from .errors import BranchPointError, ContractError, PreconditionError
from .exact import ParseError, integral, integral_rows, is_number, parse_real, parse_real_vector
from .hodge import (
    FujikiStructure,
    HermitianForm,
    amgm_mixed_ratios,
    amgm_rigidity_check,
    fujiki_polarized,
    fujiki_top,
    hafnian,
)
from .isometry import (
    LatticeIsometry,
    Loxodromic,
    classify,
    eichler_transvection,
    limit_nef_class,
    verify_isometry,
)
from .lattice import (
    QuadLattice,
    _json_int,
    build_parabolic_seed_lattice,
    find_isotropic,
    represents_in_range,
    scan_orthogonal_negatives,
)
from .torus import (
    TranslationVector,
    iterate,
    rational_hull,
    semicontinuity_scan,
    weyl_sum,
)

SEED_ENV = "PARABOLIC_LAB_SEED"

# Caps on the count options, refused with exit 2 before any work starts.  Each sits
# above every value the README, tests, demos and CI use.  A point, an involution pair or
# a fiber report costs 0.4-7 KB, a Monte Carlo sample about 0.15 KB at the draw's peak
# (k3 ergo peaks at 0.35 GB resident at MAX_MC), and every worker is a process.
MAX_POINTS = 10**5  # --n of torus orbit, k3 sample and k3 involve; k3 orbit --fibers
MAX_STEPS = 10**6  # --n of torus weyl and k3 orbit; k3 ergo --l and --trials
MAX_MC = 2 * 10**6  # k3 ergo --mc
MAX_WORKERS = 64  # k3 orbit --workers


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x:
        return '"NaN"'
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(k))}: {render_json(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat:
            return "[" + ", ".join(render_json(v) for v in seq) + "]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def config_hash(config: dict) -> str:
    return hashlib.sha256(render_json(config).encode()).hexdigest()


class Csv(NamedTuple):
    """A handler result to be written as CSV rows under a header line."""

    header: list[str]
    rows: list[list]


def emit(path: str | None, config: dict, result) -> None:
    """Write the artifact to path (stdout if None): CSV for a :class:`Csv` result, else JSON."""
    h = config_hash(config)
    out = sys.stdout if path is None else open(path, "w")
    try:
        if isinstance(result, Csv):
            out.write(f"# config_sha256={h}\n")
            out.write(f"# seed={config.get('seed')}\n")
            out.write(",".join(result.header) + "\n")
            for row in result.rows:
                out.write(
                    ",".join(
                        _fmt_float(v) if isinstance(v, float) else str(v) for v in row
                    )
                    + "\n"
                )
        else:
            artifact = {"config": config, "config_sha256": h, "result": result}
            out.write(render_json(artifact) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _load_json_file(path: str) -> dict:
    """A JSON object from a file; an artifact written by `emit` yields its result."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:  # malformed JSON, or an integer past the digit limit
            raise ParseError(f"{path}: {exc}") from None
    if isinstance(d, dict) and "config_sha256" in d:
        d = d["result"]
    if not isinstance(d, dict):
        raise ParseError(f"{path}: expected a JSON object, not {type(d).__name__}")
    return d


def integer(text: str) -> int:
    """An integer option, read by :func:`integral` like every integral input."""
    return integral(text, "option")


def _int_vector(text: str) -> tuple[int, ...]:
    """A comma separated integer vector such as ``1,0,-2``; no spaces."""
    return tuple(integral(p, "vector") for p in text.split(","))


def _unwrap(spec, key: str, own: str):
    """An input object, inline or from a file; a result that lacks the object's field `own`
    and nests it under `key` (a `lattice seed` or `k3 sample` result) stands for it."""
    if isinstance(spec, str):
        spec = _load_json_file(spec)
    nested = isinstance(spec, dict) and own not in spec and isinstance(spec.get(key), dict)
    return spec[key] if nested else spec


def _load_lattice(spec) -> QuadLattice:
    return QuadLattice.from_json_dict(_unwrap(spec, "lattice", "gram"))


def _load_isometry(path: str) -> tuple[QuadLattice, object]:
    """An isometry file's lattice and its matrix as read, not yet checked.

    The lattice may be inline, a path, or a `lattice seed` result; all
    three are read by :func:`_load_lattice`.
    """
    d = _load_json_file(path)
    return _load_lattice(d["lattice"]), d["matrix"]


def _require_counts(args, **caps: int) -> None:
    """Refuse a count option outside [1, its cap] before any work starts."""
    for name, cap in caps.items():
        if not 1 <= getattr(args, name) <= cap:
            raise PreconditionError(f"--{name} must be between 1 and {cap}")


def _complex_matrix(rows) -> np.ndarray:
    """Rows of numbers or [re, im] pairs; any other entry is a ParseError."""
    def conv(v):
        if is_number(v):
            return complex(v)
        if isinstance(v, list) and len(v) == 2 and all(map(is_number, v)):
            return complex(*v)
        raise ParseError(f"matrix entry {v!r} is neither a number nor an [re, im] pair")

    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == len(rows[0]) for row in rows
    ):
        raise ParseError("matrix must be a list of rows of equal length")
    return np.array([[conv(v) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# lattice subcommands
# ---------------------------------------------------------------------------

def cmd_lattice_seed(args) -> dict:
    marked = build_parabolic_seed_lattice(args.a_sq, args.N)
    lat = marked.lattice
    negatives = scan_orthogonal_negatives(marked, args.scan_bound)
    largest_negative = max((q for _, q in negatives), default=None)
    return {
        "lattice": marked.to_json_dict(),
        "verification": {
            "signature": list(lat.signature),
            "q_y": lat.q(marked.y),
            "q_x": lat.q(marked.x),
            "q_xy": lat.bbf(marked.x, marked.y),
            "q_x_at_most_minus_N": lat.q(marked.x) <= -args.N,
            "scan_bound": args.scan_bound,
            "orthogonal_negatives_found": len(negatives),
            "largest_orthogonal_negative_square": largest_negative,
            "no_negatives_above_minus_2N": all(q <= -2 * args.N for _, q in negatives),
        },
    }


def cmd_lattice_signature(args) -> dict:
    pos, neg = _load_lattice(args.input).signature
    return {"pos": pos, "neg": neg}


def cmd_lattice_isotropic(args) -> dict:
    vecs = find_isotropic(_load_lattice(args.input), args.bound)
    return {"count": len(vecs), "vectors": [list(v) for v in vecs]}


def cmd_lattice_represent(args) -> dict:
    vals = represents_in_range(_load_lattice(args.input), args.lo, args.hi, args.bound)
    return {"values": [{"value": v, "witness": list(w)} for v, w in vals]}


# ---------------------------------------------------------------------------
# isometry subcommands
# ---------------------------------------------------------------------------

def cmd_isometry_verify(args) -> dict:
    lat, matrix = _load_isometry(args.input)
    return {"is_isometry": verify_isometry(lat, integral_rows(matrix, "matrix"))}


def _class_payload(cls) -> dict:
    if isinstance(cls, Loxodromic):
        return {
            "tag": "Loxodromic",
            "lambda": float(cls.eigenvalue),
            "expanding_direction": list(cls.expanding),
            "contracting_direction": list(cls.contracting),
        }
    return {"tag": cls.tag, **asdict(cls)}


def cmd_isometry_classify(args) -> dict:
    return _class_payload(classify(LatticeIsometry(*_load_isometry(args.input))))


def cmd_isometry_transvect(args) -> dict:
    t = eichler_transvection(_load_lattice(args.input), args.e, args.v)
    result = t.to_json_dict()
    result["classification"] = _class_payload(classify(t))
    return result


def cmd_isometry_limit(args) -> dict:
    g = LatticeIsometry(*_load_isometry(args.input))
    return {"direction": list(limit_nef_class(g, args.w))}


# ---------------------------------------------------------------------------
# torus subcommands
# ---------------------------------------------------------------------------

def cmd_torus_orbit(args) -> dict | Csv:
    _require_counts(args, n=MAX_POINTS)
    coords = parse_real_vector(args.coords)
    if args.start is None:  # an empty --start is parsed, and refused, like any other
        args.start = ",".join("0" * len(coords))  # recorded in the config
    x = TranslationVector(coords)
    start = [s.to_mpf(x.precision) for s in parse_real_vector(args.start)]
    pts = iterate(x, start, args.n)
    if args.format == "csv":
        header = ["k"] + [f"x{i+1}" for i in range(len(coords))]
        return Csv(header, [[k + 1] + [float(c) for c in p] for k, p in enumerate(pts)])
    return {"points": [[float(c) for c in p] for p in pts]}


def cmd_torus_hull(args) -> dict:
    coords = parse_real_vector(args.coords)
    return rational_hull(TranslationVector(coords), args.height_bound, args.tol).to_json_dict()


def cmd_torus_weyl(args) -> dict:
    _require_counts(args, n=MAX_STEPS)
    coords = parse_real_vector(args.coords)
    return {"magnitude": weyl_sum(TranslationVector(coords), args.k, args.n)}


def cmd_torus_scan(args) -> dict:
    coords = _load_json_file(args.family)["coords"]
    if not isinstance(coords, list) or not all(
        isinstance(coeffs, list) and all(isinstance(c, str) for c in coeffs) for coeffs in coords
    ):
        raise ParseError("family coords must be a list of lists of expression strings")
    family = [[parse_real(c) for c in coeffs] for coeffs in coords]
    grid = parse_real_vector(args.grid)
    return semicontinuity_scan(family, grid, args.height_bound, args.tol).to_json_dict()


# ---------------------------------------------------------------------------
# hodge subcommands
# ---------------------------------------------------------------------------

def _fraction(x, what: str) -> Fraction:
    """A form constant as an exact Fraction: a JSON number as written, a string in the
    grammar of :mod:`.exact`.  An irrational value is a precondition violation, and
    anything else that is no number a parse error."""
    if isinstance(x, str):
        value = parse_real(x)
        if not value.is_rational():
            raise PreconditionError(f"{what} = {value} is not rational")
        return value.as_fraction()
    try:
        return Fraction(str(x))
    except ValueError:
        raise ParseError(f"{what} {x!r} is not a number") from None


def _float_result(x, what: str) -> float:
    """A hodge result as a float; one that overflows, is not finite or is a
    nonzero exact value that underflows to 0 is a precondition violation."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f) or (f == 0 and x != 0):
        raise PreconditionError(f"{what} is not a finite nonzero float ({f})")
    return f


def cmd_hodge_fujiki(args) -> dict:
    spec = _load_json_file(args.input)
    lat = QuadLattice.from_json_dict(spec)
    structure = FujikiStructure(
        lat,
        n=integral(spec.get("n", 1), "n"),
        c=_fraction(spec.get("c", 1), "c"),
        k=_fraction(spec.get("K", 1), "K"),
    )
    result = {}
    if args.eta is not None:
        eta = _int_vector(args.eta)
        result["top"] = _float_result(fujiki_top(structure, eta), "top")
        result["q_eta"] = _json_int(lat.q(eta))
    if args.etas is not None:
        etas = [_int_vector(part) for part in args.etas.split(";")]
        result["polarized"] = _float_result(fujiki_polarized(structure, etas), "polarized")
    if not result:
        raise PreconditionError("provide --eta and/or --etas")
    return result


def cmd_hodge_hafnian(args) -> dict:
    rows = _load_json_file(args.input)["matrix"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(map(is_number, row)) for row in rows
    ):
        raise ParseError("matrix must be a list of rows of numbers")
    try:
        value = hafnian(rows)  # refuses a ragged, odd, oversized or non-finite matrix first
    except OverflowError:  # an int past the float range beside float entries
        raise PreconditionError("hafnian entry overflows a float") from None
    if rows != [list(col) for col in zip(*rows)]:
        raise PreconditionError("hafnian needs a symmetric matrix")
    if type(value) is float and value == 0 and hafnian(_balanced(rows)):
        raise PreconditionError("hafnian underflows to 0 in floats")
    return {"hafnian": _float_result(value, "hafnian")}


def _balanced(rows) -> list[list[float]]:
    """D A D for D = diag(2^k_i), whose hafnian is 2^(k_1 + ... + k_m) haf(A) exactly.

    Each update k_i = -max_j (e_ij + k_j), e_ij the binary exponent of a nonzero
    off-diagonal a_ij, brings row i's largest scaled entry into [1/2, 1), so after
    each of the m sweeps no off-diagonal entry reaches 1 in modulus; the diagonal,
    which the hafnian never reads, is set to 0.
    """
    exps = [[(j, math.frexp(x)[1]) for j, x in enumerate(row) if x and j != i]
            for i, row in enumerate(rows)]
    k = [0] * len(rows)
    for _ in rows:
        for i, row in enumerate(exps):
            k[i] = -max((e + k[j] for j, e in row), default=0)
    return [[math.ldexp(x, k[i] + k[j]) if i != j else 0.0 for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def cmd_hodge_amgm(args) -> dict:
    spec = _load_json_file(args.input)
    h1 = HermitianForm(_complex_matrix(spec["h1"]))
    h2 = HermitianForm(_complex_matrix(spec["h2"]))
    mean, det = amgm_mixed_ratios(h1, h2)
    verdict = amgm_rigidity_check(h1, h2, args.tol)
    return {"mean": mean, "detratio": det, "verdict": verdict.value}


# ---------------------------------------------------------------------------
# k3 subcommands
# ---------------------------------------------------------------------------

def _surface_from_args(args) -> s2.Surface222:
    s2.u64_seed(args.seed, "seed")
    if args.surface:
        return s2.Surface222.from_json_dict(_unwrap(args.surface, "surface", "coeffs"))
    return s2.random_surface(args.seed)


def _point_dict(p: s2.SurfacePoint) -> dict:
    return {axis: s2.complex_pairs(p.coord(axis)) for axis in s2.AXES} | {"residual": p.residual}


def cmd_k3_sample(args) -> dict:
    _require_counts(args, n=MAX_POINTS)
    surface = _surface_from_args(args)
    rng = np.random.default_rng([args.seed, 0xA5])
    pts = [s2.sample_point(surface, rng) for _ in range(args.n)]
    return {
        "surface": surface.to_json_dict(),
        "points": [_point_dict(p) for p in pts],
        "max_residual": max(p.residual for p in pts),
    }


def cmd_k3_involve(args) -> dict:
    _require_counts(args, n=MAX_POINTS)
    surface = _surface_from_args(args)
    rng = np.random.default_rng([args.seed, 0x17])
    rows = []
    refused = 0
    worst_residual = 0.0
    worst_roundtrip = 0.0
    for _ in range(args.n):
        p = s2.sample_point(surface, rng)
        try:
            q = s2.involution(surface, args.axis, p)
            back = s2.involution(surface, args.axis, q)
        except BranchPointError:
            refused += 1
            continue
        worst_residual = max(worst_residual, q.residual)
        worst_roundtrip = max(worst_roundtrip, s2.point_distance(back, p))
        rows.append({"before": _point_dict(p), "after": _point_dict(q)})
    return {
        "pairs": rows,
        "max_residual": worst_residual,
        "max_roundtrip_distance": worst_roundtrip,
        "refused": refused,
    }


def _fiber_start(surface, pair, seed: int, index: int):
    """Base point, start point and orbit rng of fiber `index`, from the master seed."""
    rng = np.random.default_rng([seed, 0x0F, index])
    base = s2._fs_pair(rng)
    start = s2.sample_fiber_point(surface, pair, base, rng)
    return base, start, np.random.default_rng([seed, 0x0E, index])


def _orbit_task(payload):
    index, surface, pair, n, grid, seed = payload
    base, start, rng = _fiber_start(surface, pair, seed, index)
    return s2.fiber_orbit(surface, pair, base, start, n, grid, rng=rng).to_json_dict()


def _chart_coords(pair) -> tuple[int, float, float]:
    c0, c1 = pair
    if abs(c1) <= abs(c0):
        chart, t = 0, c1 / c0
    else:
        chart, t = 1, c0 / c1
    return chart, t.real, t.imag


def cmd_k3_orbit(args) -> dict | Csv:
    _require_counts(args, n=MAX_STEPS, fibers=MAX_POINTS, workers=MAX_WORKERS, grid=s2.MAX_GRID)
    surface = _surface_from_args(args)
    pair = tuple(args.pair)
    if args.format == "csv":
        # orbit trace dump for the first fiber: chart coordinates + flags
        base, start, rng = _fiber_start(surface, pair, args.seed, 0)
        first, second = pair
        rows = []
        for step, pt in s2.orbit_trace(surface, pair, base, start, args.n, rng=rng):
            cy, yre, yim = _chart_coords(pt.coord(first))
            cz, zre, zim = _chart_coords(pt.coord(second))
            rows.append([step, yre, yim, zre, zim, cy, cz])
        header = [
            "step",
            f"{first}_re", f"{first}_im",
            f"{second}_re", f"{second}_im",
            f"chart_{first}", f"chart_{second}",
        ]
        return Csv(header, rows)
    payloads = [(i, surface, pair, args.n, args.grid, args.seed) for i in range(args.fibers)]
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            reports = list(pool.map(_orbit_task, payloads))
    else:
        reports = [_orbit_task(p) for p in payloads]
    coverages = [r["coverage"] for r in reports]
    return {
        "reports": reports,
        "coverage_min": min(coverages),
        "coverage_mean": sum(coverages) / len(coverages),
    }


def cmd_k3_ergo(args) -> dict:
    _require_counts(args, l=MAX_STEPS)
    if not args.contrast:
        _require_counts(args, trials=MAX_STEPS, mc=MAX_MC)
    surface = _surface_from_args(args)
    if args.contrast:
        args.trials = args.mc = None  # the contrast reads neither; recorded in the config as null
        return s2.ergodicity_contrast(
            surface, ("y", "z"), args.f, word_length=args.l, seed=args.seed
        )
    return s2.birkhoff_ergodicity_test(
        surface,
        args.f,
        word_length=args.l,
        trials=args.trials,
        mc_samples=args.mc,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# the command table and the parser built from it
# ---------------------------------------------------------------------------

def _opt(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One option: its flags and the keyword arguments of ``add_argument``."""
    return flags, kwargs


_INPUT = _opt("-i", "--input", required=True)
_SURFACE = _opt("--surface", default=None, help="surface JSON (default: seeded random)")
_FORMAT = _opt("--format", choices=("json", "csv"), default="json")
_COMMON = [
    _opt("--seed", type=integer, default=None,
         help="master seed (default: env PARABOLIC_LAB_SEED or 0)"),
    _opt("--out", default=None, help="output path (default stdout)"),
]

# (group, cmd) -> (handler, its own options); every subcommand also takes _COMMON
COMMANDS = {
    ("lattice", "seed"): (cmd_lattice_seed, [
        _opt("--a-sq", type=integer, required=True),
        _opt("--N", type=integer, required=True),
        _opt("--scan-bound", type=integer, default=10),
    ]),
    ("lattice", "signature"): (cmd_lattice_signature, [_INPUT]),
    ("lattice", "isotropic"): (cmd_lattice_isotropic, [
        _INPUT,
        _opt("--bound", type=integer, default=5),
    ]),
    ("lattice", "represent"): (cmd_lattice_represent, [
        _INPUT,
        _opt("--lo", type=integer, required=True),
        _opt("--hi", type=integer, required=True),
        _opt("--bound", type=integer, default=5),
    ]),
    ("isometry", "verify"): (cmd_isometry_verify, [_INPUT]),
    ("isometry", "classify"): (cmd_isometry_classify, [_INPUT]),
    ("isometry", "transvect"): (cmd_isometry_transvect, [
        _opt("-i", "--input", required=True, help="lattice JSON file"),
        _opt("--e", type=_int_vector, required=True, help="isotropic vector, e.g. 1,0,0"),
        _opt("--v", type=_int_vector, required=True, help="orthogonal vector with even square"),
    ]),
    ("isometry", "limit"): (cmd_isometry_limit, [
        _INPUT,
        _opt("--w", type=_int_vector, required=True, help="positive-cone start vector"),
    ]),
    ("torus", "orbit"): (cmd_torus_orbit, [
        _opt("--coords", required=True),
        _opt("--start", default=None),
        _opt("--n", type=integer, default=100),
        _FORMAT,
    ]),
    ("torus", "hull"): (cmd_torus_hull, [
        _opt("--coords", required=True),
        _opt("--height-bound", type=integer, default=10**6),
        _opt("--tol", type=float, default=1e-24),
    ]),
    ("torus", "weyl"): (cmd_torus_weyl, [
        _opt("--coords", required=True),
        _opt("--k", type=_int_vector, required=True),
        _opt("--n", type=integer, default=10**4),
    ]),
    ("torus", "scan"): (cmd_torus_scan, [
        _opt("--family", required=True, help="JSON file with coords coefficient lists"),
        _opt("--grid", required=True, help="comma separated exact expressions"),
        _opt("--height-bound", type=integer, default=10**6),
        _opt("--tol", type=float, default=1e-24),
    ]),
    ("hodge", "fujiki"): (cmd_hodge_fujiki, [
        _opt("-i", "--input", required=True, help="lattice JSON with n, c, K fields"),
        _opt("--eta", default=None),
        _opt("--etas", default=None, help="semicolon separated vectors for the polarized sum"),
    ]),
    ("hodge", "hafnian"): (cmd_hodge_hafnian, [
        _opt("-i", "--input", required=True, help="JSON with a 'matrix' field"),
    ]),
    ("hodge", "amgm"): (cmd_hodge_amgm, [
        _opt("-i", "--input", required=True, help="JSON with 'h1' and 'h2'"),
        _opt("--tol", type=float, default=1e-9),
    ]),
    ("k3", "sample"): (cmd_k3_sample, [
        _SURFACE,
        _opt("--n", type=integer, default=10),
    ]),
    ("k3", "involve"): (cmd_k3_involve, [
        _SURFACE,
        _opt("--axis", choices=s2.AXES, default="z"),
        _opt("--n", type=integer, default=10),
    ]),
    ("k3", "orbit"): (cmd_k3_orbit, [
        _SURFACE,
        _opt("--pair", choices=["".join(p) for p in s2.PAIRS], default="yz"),
        _opt("--n", type=integer, default=10**4),
        _opt("--grid", type=integer, default=16),
        _opt("--fibers", type=integer, default=1),
        _opt("--workers", type=integer, default=1),
        _FORMAT,
    ]),
    ("k3", "ergo"): (cmd_k3_ergo, [
        _SURFACE,
        _opt("--f", default="x_abs2", choices=sorted(s2.TEST_FUNCTIONS)),
        _opt("--l", type=integer, default=10**4),
        _opt("--trials", type=integer, default=16),
        _opt("--mc", type=integer, default=10**6),
        _opt("--contrast", action="store_true"),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parabolic-lab",
        description="lattice/isometry kernels and torus/surface dynamics diagnostics",
    )
    groups = ap.add_subparsers(dest="group", required=True)
    commands = {}
    for (group, cmd), (_, options) in COMMANDS.items():
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(dest="cmd", required=True)
        p = commands[group].add_parser(cmd)
        for flags, kwargs in options + _COMMON:
            p.add_argument(*flags, **kwargs)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit 2 for usage errors; the harness contract says 1
        return 0 if exc.code in (0, None) else 1
    handler, _ = COMMANDS[args.group, args.cmd]
    try:
        if args.seed is None:
            args.seed = integral(os.environ.get(SEED_ENV, "0"), SEED_ENV)
        result = handler(args)
        # after the handler, which may resolve a default (torus orbit --start)
        config = {k: v for k, v in vars(args).items() if k not in ("group", "cmd", "out")}
        config["subcommand"] = f"{args.group} {args.cmd}"
        emit(args.out, config, result)
    except (ParseError, FileNotFoundError, KeyError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
