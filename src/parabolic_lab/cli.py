"""Command line harness: every pipeline behind one binary, reproducibly.

Subcommands mirror the library:

    lattice  {seed, signature, isotropic, represent}
    isometry {verify, classify, transvect, limit}
    torus    {orbit, hull, weyl, scan}
    hodge    {fujiki, hafnian, amgm}
    k3       {sample, involve, orbit, ergo}

Every artifact embeds the resolved configuration, its SHA-256 hash and
the seed; floats are rendered with 17 significant digits, so identical
configurations produce byte-identical outputs (multi-worker runs merge
in task order and use per-task RNG streams derived from the master
seed).  Exit codes: 0 success, 1 usage or malformed input, 2
precondition violation, 3 numerical-contract failure.

Real-valued inputs accept exact expressions (rationals, sqrtD, sums,
products, parenthesized groups), e.g. ``--coords "sqrt2,2*sqrt2"`` or
``--grid "0,1/2,(sqrt5-1)/2"``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import surface222 as s2
from .errors import BranchPointError, ContractError, PreconditionError
from .exact import ParseError, parse_real, parse_real_vector
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
    Elliptic,
    LatticeIsometry,
    Loxodromic,
    OutsideSOPlus,
    Parabolic,
    classify,
    eichler_transvection,
    limit_nef_class,
    verify_isometry,
)
from .lattice import (
    QuadLattice,
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


def emit(args, config: dict, result, csv_rows=None, csv_header=None) -> None:
    """Write the artifact (json, or csv when rows are supplied and asked for)."""
    h = config_hash(config)
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        if getattr(args, "format", "json") == "csv" and csv_rows is not None:
            out.write(f"# config_sha256={h}\n")
            out.write(f"# seed={config.get('seed')}\n")
            out.write(",".join(csv_header) + "\n")
            for row in csv_rows:
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
    """A JSON input file; an artifact written by `emit` yields its result."""
    with open(path) as fh:
        d = json.load(fh)
    return d["result"] if isinstance(d, dict) and "config_sha256" in d else d


def _int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise ParseError(f"expected a comma separated integer vector, got {text!r}") from None


def _load_lattice(spec) -> QuadLattice:
    if isinstance(spec, str):
        spec = _load_json_file(spec)
    if "gram" not in spec and "lattice" in spec:  # a `lattice seed` result
        spec = spec["lattice"]
    return QuadLattice.from_json_dict(spec)


def _load_isometry(path: str) -> LatticeIsometry:
    d = _load_json_file(path)
    lat = _load_lattice(d["lattice"])
    return LatticeIsometry(lat, tuple(tuple(int(x) for x in row) for row in d["matrix"]))


def _require_positive(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 1:
            raise PreconditionError(f"--{name} must be >= 1")


def _complex_matrix(rows) -> np.ndarray:
    def conv(v):
        if isinstance(v, (list, tuple)):
            return complex(v[0], v[1])
        return complex(v)

    return np.array([[conv(v) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# lattice subcommands
# ---------------------------------------------------------------------------

def cmd_lattice_seed(args) -> None:
    config = {
        "subcommand": "lattice seed",
        "a_sq": args.a_sq,
        "N": args.N,
        "scan_bound": args.scan_bound,
        "seed": args.seed,
    }
    marked = build_parabolic_seed_lattice(args.a_sq, args.N)
    lat = marked.lattice
    negatives = scan_orthogonal_negatives(marked, args.scan_bound)
    largest_negative = max((q for _, q in negatives), default=None)
    result = {
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
    emit(args, config, result)


def cmd_lattice_signature(args) -> None:
    lat = _load_lattice(args.input)
    config = {"subcommand": "lattice signature", "input": args.input, "seed": args.seed}
    pos, neg = lat.signature
    emit(args, config, {"pos": pos, "neg": neg})


def cmd_lattice_isotropic(args) -> None:
    lat = _load_lattice(args.input)
    config = {
        "subcommand": "lattice isotropic",
        "input": args.input,
        "bound": args.bound,
        "seed": args.seed,
    }
    vecs = find_isotropic(lat, args.bound)
    emit(args, config, {"count": len(vecs), "vectors": [list(v) for v in vecs]})


def cmd_lattice_represent(args) -> None:
    lat = _load_lattice(args.input)
    config = {
        "subcommand": "lattice represent",
        "input": args.input,
        "lo": args.lo,
        "hi": args.hi,
        "bound": args.bound,
        "seed": args.seed,
    }
    vals = represents_in_range(lat, args.lo, args.hi, args.bound)
    emit(
        args,
        config,
        {"values": [{"value": v, "witness": list(w)} for v, w in vals]},
    )


# ---------------------------------------------------------------------------
# isometry subcommands
# ---------------------------------------------------------------------------

def cmd_isometry_verify(args) -> None:
    d = _load_json_file(args.input)
    lat = _load_lattice(d["lattice"])
    config = {"subcommand": "isometry verify", "input": args.input, "seed": args.seed}
    ok = verify_isometry(lat, d["matrix"])
    emit(args, config, {"is_isometry": ok})


def _class_payload(cls) -> dict:
    if isinstance(cls, Elliptic):
        return {"tag": "Elliptic", "order": cls.order}
    if isinstance(cls, Parabolic):
        return {"tag": "Parabolic", "fixed_vector": list(cls.fixed_vector)}
    if isinstance(cls, Loxodromic):
        return {
            "tag": "Loxodromic",
            "lambda": float(cls.eigenvalue),
            "expanding_direction": list(cls.expanding),
            "contracting_direction": list(cls.contracting),
        }
    if isinstance(cls, OutsideSOPlus):
        return {
            "tag": "OutsideSOPlus",
            "det": cls.det,
            "time_preserving": cls.time_preserving,
        }
    raise ContractError(f"unknown classification {cls!r}")


def cmd_isometry_classify(args) -> None:
    g = _load_isometry(args.input)
    config = {"subcommand": "isometry classify", "input": args.input, "seed": args.seed}
    emit(args, config, _class_payload(classify(g)))


def cmd_isometry_transvect(args) -> None:
    lat = _load_lattice(args.input)
    e = _int_vector(args.e)
    v = _int_vector(args.v)
    config = {
        "subcommand": "isometry transvect",
        "input": args.input,
        "e": list(e),
        "v": list(v),
        "seed": args.seed,
    }
    t = eichler_transvection(lat, e, v)
    result = t.to_json_dict()
    result["classification"] = _class_payload(classify(t))
    emit(args, config, result)


def cmd_isometry_limit(args) -> None:
    g = _load_isometry(args.input)
    w = _int_vector(args.w)
    config = {
        "subcommand": "isometry limit",
        "input": args.input,
        "w": list(w),
        "iters": args.iters,
        "seed": args.seed,
    }
    direction = limit_nef_class(g, w, iters=args.iters)
    emit(args, config, {"direction": list(direction)})


# ---------------------------------------------------------------------------
# torus subcommands
# ---------------------------------------------------------------------------

def cmd_torus_orbit(args) -> None:
    coords = parse_real_vector(args.coords)
    start = (
        parse_real_vector(args.start)
        if args.start
        else tuple(Fraction(0) for _ in coords)
    )
    config = {
        "subcommand": "torus orbit",
        "coords": args.coords,
        "start": args.start or "0" + ",0" * (len(coords) - 1),
        "n": args.n,
        "seed": args.seed,
    }
    x = TranslationVector(coords)
    pts = iterate(x, [s.to_mpf(x.precision) for s in map(_as_quad, start)], args.n)
    header = ["k"] + [f"x{i+1}" for i in range(len(coords))]
    rows = [[k + 1] + [float(c) for c in p] for k, p in enumerate(pts)]
    emit(
        args,
        config,
        {"points": [[float(c) for c in p] for p in pts]},
        csv_rows=rows,
        csv_header=header,
    )


def _as_quad(v):
    from .exact import QuadExpr

    return v if isinstance(v, QuadExpr) else QuadExpr.coerce(v)


def cmd_torus_hull(args) -> None:
    coords = parse_real_vector(args.coords)
    config = {
        "subcommand": "torus hull",
        "coords": args.coords,
        "height_bound": args.height_bound,
        "tol": args.tol,
        "seed": args.seed,
    }
    hull = rational_hull(TranslationVector(coords), args.height_bound, args.tol)
    emit(args, config, hull.to_json_dict())


def cmd_torus_weyl(args) -> None:
    coords = parse_real_vector(args.coords)
    k = _int_vector(args.k)
    config = {
        "subcommand": "torus weyl",
        "coords": args.coords,
        "k": list(k),
        "n": args.n,
        "seed": args.seed,
    }
    mag = weyl_sum(TranslationVector(coords), k, args.n)
    emit(args, config, {"magnitude": mag})


def cmd_torus_scan(args) -> None:
    spec = _load_json_file(args.family)
    family = [[parse_real(c) for c in coeffs] for coeffs in spec["coords"]]
    grid = parse_real_vector(args.grid)
    config = {
        "subcommand": "torus scan",
        "family": args.family,
        "grid": args.grid,
        "height_bound": args.height_bound,
        "tol": args.tol,
        "seed": args.seed,
    }
    report = semicontinuity_scan(family, grid, args.height_bound, args.tol)
    emit(args, config, report.to_json_dict())


# ---------------------------------------------------------------------------
# hodge subcommands
# ---------------------------------------------------------------------------

def cmd_hodge_fujiki(args) -> None:
    spec = _load_json_file(args.input)
    lat = QuadLattice.from_json_dict(spec)
    structure = FujikiStructure(
        lat,
        n=int(spec.get("n", 1)),
        c=Fraction(str(spec.get("c", 1))),
        k=Fraction(str(spec.get("K", 1))),
    )
    config = {
        "subcommand": "hodge fujiki",
        "input": args.input,
        "eta": args.eta,
        "etas": args.etas,
        "seed": args.seed,
    }
    result = {}
    if args.eta:
        eta = _int_vector(args.eta)
        result["top"] = float(fujiki_top(structure, eta))
        result["q_eta"] = lat.q(eta)
    if args.etas:
        etas = [_int_vector(part) for part in args.etas.split(";")]
        result["polarized"] = float(fujiki_polarized(structure, etas))
    if not result:
        raise PreconditionError("provide --eta and/or --etas")
    emit(args, config, result)


def cmd_hodge_hafnian(args) -> None:
    spec = _load_json_file(args.input)
    config = {"subcommand": "hodge hafnian", "input": args.input, "seed": args.seed}
    value = hafnian(spec["matrix"])
    emit(args, config, {"hafnian": float(value)})


def cmd_hodge_amgm(args) -> None:
    spec = _load_json_file(args.input)
    h1 = HermitianForm(_complex_matrix(spec["h1"]))
    h2 = HermitianForm(_complex_matrix(spec["h2"]))
    config = {
        "subcommand": "hodge amgm",
        "input": args.input,
        "tol": args.tol,
        "seed": args.seed,
    }
    mean, det = amgm_mixed_ratios(h1, h2)
    verdict = amgm_rigidity_check(h1, h2, args.tol)
    emit(args, config, {"mean": mean, "detratio": det, "verdict": verdict.value})


# ---------------------------------------------------------------------------
# k3 subcommands
# ---------------------------------------------------------------------------

def _surface_from_args(args) -> s2.Surface222:
    if getattr(args, "surface", None):
        return s2.Surface222.from_json_dict(_load_json_file(args.surface))
    return s2.random_surface(args.seed)


def _point_dict(p: s2.SurfacePoint) -> dict:
    return {
        "x": [[p.x[0].real, p.x[0].imag], [p.x[1].real, p.x[1].imag]],
        "y": [[p.y[0].real, p.y[0].imag], [p.y[1].real, p.y[1].imag]],
        "z": [[p.z[0].real, p.z[0].imag], [p.z[1].real, p.z[1].imag]],
        "residual": p.residual,
    }


def cmd_k3_sample(args) -> None:
    _require_positive(args, "n")
    surface = _surface_from_args(args)
    config = {
        "subcommand": "k3 sample",
        "surface": args.surface,
        "n": args.n,
        "seed": args.seed,
    }
    rng = np.random.default_rng([args.seed, 0xA5])
    pts = [s2.sample_point(surface, rng) for _ in range(args.n)]
    emit(
        args,
        config,
        {
            "surface": surface.to_json_dict(),
            "points": [_point_dict(p) for p in pts],
            "max_residual": max(p.residual for p in pts),
        },
    )


def cmd_k3_involve(args) -> None:
    _require_positive(args, "n")
    surface = _surface_from_args(args)
    config = {
        "subcommand": "k3 involve",
        "surface": args.surface,
        "axis": args.axis,
        "n": args.n,
        "seed": args.seed,
    }
    rng = np.random.default_rng([args.seed, 0x17])
    rows = []
    worst_residual = 0.0
    worst_roundtrip = 0.0
    for _ in range(args.n):
        p = s2.sample_point(surface, rng)
        try:
            q = s2.involution(surface, args.axis, p)
            back = s2.involution(surface, args.axis, q)
        except BranchPointError:
            continue
        worst_residual = max(worst_residual, q.residual)
        worst_roundtrip = max(worst_roundtrip, s2.point_distance(back, p))
        rows.append({"before": _point_dict(p), "after": _point_dict(q)})
    emit(
        args,
        config,
        {
            "pairs": rows,
            "max_residual": worst_residual,
            "max_roundtrip_distance": worst_roundtrip,
        },
    )


def _orbit_task(payload):
    index, surface_dict, pair, n, grid, seed = payload
    surface = s2.Surface222.from_json_dict(surface_dict)
    rng = np.random.default_rng([seed, 0x0F, index])
    base = s2._fs_pair(rng)
    start = s2.sample_fiber_point(surface, pair, base, rng)
    report = s2.fiber_orbit(
        surface, pair, base, start, n, grid, rng=np.random.default_rng([seed, 0x0E, index])
    )
    return index, report.to_json_dict()


def _chart_coords(pair) -> tuple[int, float, float]:
    c0, c1 = pair
    if abs(c1) <= abs(c0):
        chart, t = 0, c1 / c0
    else:
        chart, t = 1, c0 / c1
    return chart, t.real, t.imag


def cmd_k3_orbit(args) -> None:
    _require_positive(args, "n", "fibers")
    surface = _surface_from_args(args)
    pair = tuple(args.pair)
    if pair not in s2.PAIRS:
        raise PreconditionError(f"pair must be one of {[''.join(p) for p in s2.PAIRS]}")
    config = {
        "subcommand": "k3 orbit",
        "surface": args.surface,
        "pair": args.pair,
        "n": args.n,
        "grid": args.grid,
        "fibers": args.fibers,
        "workers": args.workers,
        "format": args.format,
        "seed": args.seed,
    }
    if args.format == "csv":
        # orbit trace dump for the first fiber: chart coordinates + flags
        rng = np.random.default_rng([args.seed, 0x0F, 0])
        base = s2._fs_pair(rng)
        start = s2.sample_fiber_point(surface, pair, base, rng)
        first, second = pair
        rows = []
        for step, pt in s2.orbit_trace(
            surface, pair, base, start, args.n,
            rng=np.random.default_rng([args.seed, 0x0E, 0]),
        ):
            cy, yre, yim = _chart_coords(pt.coord(first))
            cz, zre, zim = _chart_coords(pt.coord(second))
            rows.append([step, yre, yim, zre, zim, cy, cz])
        emit(
            args,
            config,
            None,
            csv_rows=rows,
            csv_header=[
                "step",
                f"{first}_re", f"{first}_im",
                f"{second}_re", f"{second}_im",
                f"chart_{first}", f"chart_{second}",
            ],
        )
        return
    payloads = [
        (i, surface.to_json_dict(), pair, args.n, args.grid, args.seed)
        for i in range(args.fibers)
    ]
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_orbit_task, payloads))
    else:
        results = [_orbit_task(p) for p in payloads]
    results.sort(key=lambda t: t[0])
    reports = [r for _, r in results]
    coverages = [r["coverage"] for r in reports]
    emit(
        args,
        config,
        {
            "reports": reports,
            "coverage_min": min(coverages),
            "coverage_mean": sum(coverages) / len(coverages),
        },
    )


def cmd_k3_ergo(args) -> None:
    surface = _surface_from_args(args)
    config = {
        "subcommand": "k3 ergo",
        "surface": args.surface,
        "f": args.f,
        "l": args.l,
        "trials": args.trials,
        "mc": args.mc,
        "contrast": args.contrast,
        "seed": args.seed,
    }
    if args.contrast:
        result = s2.ergodicity_contrast(
            surface, ("y", "z"), args.f, word_length=args.l, seed=args.seed
        )
    else:
        result = s2.birkhoff_ergodicity_test(
            surface,
            args.f,
            word_length=args.l,
            trials=args.trials,
            mc_samples=args.mc,
            seed=args.seed,
        )
    emit(args, config, result)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="master seed (default: env PARABOLIC_LAB_SEED or 0)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parabolic-lab",
        description="lattice/isometry kernels and torus/surface dynamics diagnostics",
    )
    sub = ap.add_subparsers(dest="group", required=True)

    lat = sub.add_parser("lattice").add_subparsers(dest="cmd", required=True)
    p = lat.add_parser("seed")
    p.add_argument("--a-sq", dest="a_sq", type=int, required=True)
    p.add_argument("--N", dest="N", type=int, required=True)
    p.add_argument("--scan-bound", dest="scan_bound", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_lattice_seed)
    p = lat.add_parser("signature")
    p.add_argument("-i", "--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lattice_signature)
    p = lat.add_parser("isotropic")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--bound", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_lattice_isotropic)
    p = lat.add_parser("represent")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--bound", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_lattice_represent)

    iso = sub.add_parser("isometry").add_subparsers(dest="cmd", required=True)
    p = iso.add_parser("verify")
    p.add_argument("-i", "--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_isometry_verify)
    p = iso.add_parser("classify")
    p.add_argument("-i", "--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_isometry_classify)
    p = iso.add_parser("transvect")
    p.add_argument("-i", "--input", required=True, help="lattice JSON file")
    p.add_argument("--e", required=True, help="isotropic vector, e.g. 1,0,0")
    p.add_argument("--v", required=True, help="orthogonal vector with even square")
    _add_common(p)
    p.set_defaults(func=cmd_isometry_transvect)
    p = iso.add_parser("limit")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--w", required=True, help="positive-cone start vector")
    p.add_argument("--iters", type=int, default=2**40)
    _add_common(p)
    p.set_defaults(func=cmd_isometry_limit)

    tor = sub.add_parser("torus").add_subparsers(dest="cmd", required=True)
    p = tor.add_parser("orbit")
    p.add_argument("--coords", required=True)
    p.add_argument("--start", default=None)
    p.add_argument("--n", type=int, default=100)
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_torus_orbit)
    p = tor.add_parser("hull")
    p.add_argument("--coords", required=True)
    p.add_argument("--height-bound", dest="height_bound", type=int, default=10**6)
    p.add_argument("--tol", type=float, default=1e-24)
    _add_common(p)
    p.set_defaults(func=cmd_torus_hull)
    p = tor.add_parser("weyl")
    p.add_argument("--coords", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--n", type=int, default=10**4)
    _add_common(p)
    p.set_defaults(func=cmd_torus_weyl)
    p = tor.add_parser("scan")
    p.add_argument("--family", required=True, help="JSON file with coords coefficient lists")
    p.add_argument("--grid", required=True, help="comma separated exact expressions")
    p.add_argument("--height-bound", dest="height_bound", type=int, default=10**6)
    p.add_argument("--tol", type=float, default=1e-24)
    _add_common(p)
    p.set_defaults(func=cmd_torus_scan)

    hod = sub.add_parser("hodge").add_subparsers(dest="cmd", required=True)
    p = hod.add_parser("fujiki")
    p.add_argument("-i", "--input", required=True, help="lattice JSON with n, c, K fields")
    p.add_argument("--eta", default=None)
    p.add_argument("--etas", default=None, help="semicolon separated vectors for the polarized sum")
    _add_common(p)
    p.set_defaults(func=cmd_hodge_fujiki)
    p = hod.add_parser("hafnian")
    p.add_argument("-i", "--input", required=True, help="JSON with a 'matrix' field")
    _add_common(p)
    p.set_defaults(func=cmd_hodge_hafnian)
    p = hod.add_parser("amgm")
    p.add_argument("-i", "--input", required=True, help="JSON with 'h1' and 'h2'")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p)
    p.set_defaults(func=cmd_hodge_amgm)

    k3 = sub.add_parser("k3").add_subparsers(dest="cmd", required=True)
    p = k3.add_parser("sample")
    p.add_argument("--surface", default=None, help="surface JSON (default: seeded random)")
    p.add_argument("--n", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_k3_sample)
    p = k3.add_parser("involve")
    p.add_argument("--surface", default=None)
    p.add_argument("--axis", choices=("x", "y", "z"), default="z")
    p.add_argument("--n", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_k3_involve)
    p = k3.add_parser("orbit")
    p.add_argument("--surface", default=None)
    p.add_argument("--pair", choices=("yz", "xz", "xy"), default="yz")
    p.add_argument("--n", type=int, default=10**4)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--fibers", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_k3_orbit)
    p = k3.add_parser("ergo")
    p.add_argument("--surface", default=None)
    p.add_argument("--f", default="x_abs2", choices=sorted(s2.TEST_FUNCTIONS))
    p.add_argument("--l", type=int, default=10**4)
    p.add_argument("--trials", type=int, default=16)
    p.add_argument("--mc", type=int, default=10**6)
    p.add_argument("--contrast", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_k3_ergo)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit 2 for usage errors; the harness contract says 1
        return 0 if exc.code in (0, None) else 1
    if args.seed is None:
        args.seed = int(os.environ.get(SEED_ENV, "0"))
    try:
        args.func(args)
    except (ParseError, json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
