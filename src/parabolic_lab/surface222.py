"""Dynamics on a degree-(2, 2, 2) hypersurface in (P^1)^3.

The surface F(x, y, z) = sum c_ijk x^i y^j z^k (degree <= 2 in each
variable) is a double cover of (P^1)^2 in three ways; each covering swap
is a Vieta involution: writing F = A t^2 + B t + C in the chosen variable,
the involution exchanges the two roots,

    t' = -B/A - t   (sum form)      t' = C / (A t)   (product form).

Projectively both are linear: (t0 : t1) -> (A t0 : -(B t0 + A t1)) and
(t0 : t1) -> (A t1 : C t0).  The product form is evaluated with pure
multiplications and is preferred when the root coordinate is moderate;
the sum form covers the remaining cases, and a Newton polish in the
dominant chart pins the image back onto the surface so residuals do not
accumulate along long orbits.

Each surface binds one quadratic former per axis on first use, a closure
over that axis's 27 coefficients (:func:`_quadratic`); every quadratic of
the module but the Monte Carlo draw's comes from it.  The three Vieta
swaps add the one scalar guard and the one Newton polish to it
(:func:`_vieta_swap`), and on top of them sits one bound map per ordered
pair of axes, sigma_second after sigma_first, built on first use too
(:func:`_pair_map`).  It steps a plain (x, y, z, residual)
tuple, and every walk below carries such tuples: no point object is made
per step.  :class:`SurfacePoint` appears only at the edges:
:func:`involution`, :func:`parabolic_map` (a thin wrapper over the bound
map), the points :func:`orbit_trace` yields and the rare nudge or
resample after a refused step.

A composition of two involutions moving different variables fixes the
remaining coordinate bitwise, so it preserves that projection fiberwise;
on a smooth fiber (an elliptic curve) it preserves the holomorphic
1-form dy / (dF/dz) and acts as a translation.  The module's diagnostics
check exactly that: 1-form preservation by finite differences, orbit
coverage of fiber cells, and a random-word Birkhoff comparison of time
averages against the volume with chart density 1 / |dF/dz|^2.  The
Birkhoff comparison is a heuristic consistency check (no pointwise
ergodic theorem is invoked for free-group words); outputs are labeled
accordingly.

Every diagnostic is one :func:`_walk` of bound fiberwise maps: a step
refused near the branch locus costs one interruption and a nudge or
resample (fiber orbits count the two kinds apart).  The budget is 0.1%
of the length for fiber orbits and 1% for random-word and contrast
trajectories; past it, ContractError (CLI exit code 3).  Birkhoff calls
on one surface that differ only in the test function share one run, one
walk and one Monte Carlo draw for every function; the surface memoizes
the last BIRKHOFF_MEMO runs by their arguments and thresholds.
The sampling retries, the fiber-cell probe grid and hit count, the 1-form
check's step and tolerance and a random word's two maps are module
constants (SAMPLE_TRIES, FIBER_REFINE, MIN_HITS, FD_STEP,
TRANSLATION_TOL, WORD_PAIRS), not parameters.

Charts: every P^1 coordinate is stored as a complex pair (c0, c1)
normalized to max(|c0|, |c1|) = 1; renormalization after every map is the
only defense against infinity.  Grid cells for coverage statistics live
on the chart pair (|t| <= 1 vs |t| > 1) with the disc coordinate
w = t / (1 + |t|^2), so each P^1 contributes a chart flag plus a G x G
box index.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property, reduce
from itertools import chain, islice, permutations
from operator import add, itemgetter

import numpy as np

from .errors import BranchPointError, ContractError, PreconditionError
from .exact import ParseError, integral, is_number

AXES = ("x", "y", "z")

ON_SURFACE_TOL = 1e-10
SAMPLE_RESIDUAL_TOL = 1e-12
BRANCH_DISC_REL = 1e-8
LEAD_COEFF_REL = 1e-10
MODERATE_CHART = 0.2  # |c0| below this means "too close to infinity" for affine work
BIN_BLOCK = 1 << 16  # orbit points held for array cell binning at a time (~10 MB)
WALK_BLOCK = 1 << 8  # trajectory points held for the test-function sums at a time
MC_BLOCK = 1 << 14  # Monte Carlo samples whose temporaries are held at a time (~7 MB)
BIRKHOFF_MEMO = 64  # Birkhoff runs a surface keeps, the oldest dropped first
SAMPLE_TRIES = 64  # draws sample_point and sample_fiber_point make before a ContractError
FIBER_REFINE = 6  # fiber_cells probes a FIBER_REFINE * G disc grid per chart
MIN_HITS = 3  # probe hits that make a fiber cell (see fiber_cells)
MAX_GRID = 128  # largest fiber_cells grid: (FIBER_REFINE * G)^2 probes, ~0.4 GB peak at 128
FD_STEP = 1e-6  # the central-difference step of fiber_derivative_ratio
TRANSLATION_TOL = 1e-6  # relative tolerance of translation_check
# the largest coefficient modulus a surface may have: past these, quadratics,
# Monte Carlo weights or their squares overflow or underflow
COEFF_MIN, COEFF_MAX = 1e-50, 1e50

REFERENCE_SEED = 20220222


def complex_pairs(values) -> list[list[float]]:
    """Complex numbers as [re, im] pairs, the form every artifact writes them in."""
    return [[v.real, v.imag] for v in values]


@dataclass(frozen=True, eq=False)
class Surface222:
    """Coefficient tensor c[i][j][k] of x^i y^j z^k, degree <= 2 each."""

    coeffs: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (3, 3, 3):
            raise PreconditionError("coefficient tensor must be 3x3x3")
        if not np.isfinite(c).all():
            raise PreconditionError("surface coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        for axis in range(3):
            lead = np.moveaxis(c, axis, 0)[2]
            if not np.any(np.abs(lead) > 0):
                raise PreconditionError(
                    f"surface is degenerate in {AXES[axis]}: no quadratic term"
                )
        # np.abs returns inf, not an OverflowError, past the largest float
        size = float(np.abs(c).max())
        if not COEFF_MIN <= size <= COEFF_MAX:
            raise PreconditionError(
                f"largest coefficient modulus {size:.3e} outside [{COEFF_MIN:.0e}, {COEFF_MAX:.0e}]"
            )

    @cached_property
    def _quads(self):
        """The quadratic former of each axis (see :func:`_quadratic`)."""
        return tuple(_quadratic(np.moveaxis(self.coeffs, axis, 0).reshape(3, 9).tolist())
                     for axis in range(3))

    @cached_property
    def _swaps(self):
        """The Vieta swap of each axis, over its bound former (see :func:`_vieta_swap`)."""
        return tuple(map(_vieta_swap, self._quads))

    @cached_property
    def _maps(self):
        """sigma_second after sigma_first of each ordered pair, on tuples (see :func:`_pair_map`)."""
        return {pair: _pair_map(self._swaps, *pair) for pair in _BASE_AXIS}

    @cached_property
    def _birkhoff_memo(self):
        """The runs of :func:`_birkhoff_runs` on this surface, by their key."""
        return {}

    def __reduce__(self):
        # the cached swaps and maps are closures, which pickle cannot carry, and the
        # Birkhoff memo is recomputable; rebuild them on demand
        return (Surface222, (self.coeffs, self.seed))

    def to_json_dict(self) -> dict:
        # C order, which the reshape(3, 3, 3) of from_json_dict reads back
        d = {"coeffs": complex_pairs(self.coeffs.ravel().tolist())}
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Surface222":
        flat = d["coeffs"]
        if not isinstance(flat, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(is_number, p)) for p in flat
        ):
            raise ParseError("coeffs must be a list of [re, im] number pairs")
        if len(flat) != 27:
            raise PreconditionError("need 27 complex coefficient pairs")
        c = np.array(
            [complex(re, im) for re, im in flat], dtype=complex
        ).reshape(3, 3, 3)
        seed = d.get("seed")
        if seed is not None:
            seed = u64_seed(seed, "surface seed")
        return cls(c, seed=seed)


def u64_seed(seed, what: str) -> int:
    """A seed read by :func:`exact.integral` that lies in [0, 2^64), else a PreconditionError."""
    seed = integral(seed, what)
    if not 0 <= seed < 2**64:
        raise PreconditionError(f"{what} must lie in [0, 2^64), got {seed}")
    return seed


def random_surface(seed: int) -> Surface222:
    """Random real coefficients in [-1, 1]; the stock of generic test surfaces."""
    rng = np.random.default_rng(seed)
    return Surface222(rng.uniform(-1.0, 1.0, size=(3, 3, 3)).astype(complex), seed=seed)


def reference_surface() -> Surface222:
    """The fixed-seed surface all calibrated diagnostics refer to.

    Smoothness was screened by sampling: no point with all four of
    |F|, |F_x|, |F_y|, |F_z| small was found among 10^6 sampled surface
    points (see tests for the desk-scale rerun).
    """
    return random_surface(REFERENCE_SEED)


class SurfacePoint:
    """A point of (P^1)^3 with projective pairs normalized to max-modulus 1."""

    __slots__ = ("x", "y", "z", "residual")

    def __init__(self, x, y, z, residual: float = float("nan")):
        self.x = x
        self.y = y
        self.z = z
        self.residual = residual

    def coord(self, axis: str):
        return getattr(self, axis)

    def astuple(self) -> tuple:
        """(x, y, z, residual): the form the walks step (see :func:`_pair_map`)."""
        return (self.x, self.y, self.z, self.residual)

    def affine(self, axis: str) -> complex:
        c0, c1 = self.coord(axis)
        if abs(c0) < MODERATE_CHART:
            raise BranchPointError(f"{axis} coordinate too close to infinity for affine work")
        return c1 / c0

    def __repr__(self):
        return f"SurfacePoint(x={self.x}, y={self.y}, z={self.z}, residual={self.residual:.2e})"


def _normalize(pair) -> tuple[complex, complex]:
    c0, c1 = pair
    m = max(abs(c0), abs(c1))
    if m == 0:
        raise ContractError("projective coordinate collapsed to (0, 0)")
    return (c0 / m, c1 / m)


# axis -> (its index, the indices of the two other coordinates)
_SLOTS = {"x": (0, 1, 2), "y": (1, 0, 2), "z": (2, 0, 1)}


def _quadratic(table):
    """F in one axis as A t1^2 + B t1 t0 + C t0^2, a closure over the axis's 3x9 table.

    ``quad(u, v)`` maps the pairs of the two other coordinates (x < y < z
    order; arrays give arrays) to (A, B, C).  table[m][3i + j] multiplies
    t1^m u1^i v1^j, and each coefficient sums its nine products left to right.
    """
    (c0, c1, c2, c3, c4, c5, c6, c7, c8), (b0, b1, b2, b3, b4, b5, b6, b7, b8), \
        (a0, a1, a2, a3, a4, a5, a6, a7, a8) = table

    def quad(u, v):
        u0, u1 = u
        v0, v1 = v
        mu0, mu1, mu2 = u0 * u0, u0 * u1, u1 * u1
        mv0, mv1, mv2 = v0 * v0, v0 * v1, v1 * v1
        p0, p1, p2 = mu0 * mv0, mu0 * mv1, mu0 * mv2
        p3, p4, p5 = mu1 * mv0, mu1 * mv1, mu1 * mv2
        p6, p7, p8 = mu2 * mv0, mu2 * mv1, mu2 * mv2
        c = (c0 * p0 + c1 * p1 + c2 * p2 + c3 * p3 + c4 * p4 + c5 * p5
             + c6 * p6 + c7 * p7 + c8 * p8)
        b = (b0 * p0 + b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5
             + b6 * p6 + b7 * p7 + b8 * p8)
        a = (a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3 + a4 * p4 + a5 * p5
             + a6 * p6 + a7 * p7 + a8 * p8)
        return a, b, c

    return quad


def axis_quadratic(surface: Surface222, point: SurfacePoint, axis: str):
    """(A, B, C) of F in `axis` at `point`, from the surface's bound former
    (:func:`_quadratic`).  The library calls the former directly; this name stays
    for the public API and for the benchmark's tracer, which wraps it by name."""
    i, j, k = _SLOTS[axis]
    p = point.astuple()
    return surface._quads[i](p[j], p[k])


def _guard(a, b, c):
    """(scale, disc) of A t^2 + B t + C; BranchPointError where the swap degenerates.

    scale is max(|A|, |B|, |C|), taken as max() takes it: a later modulus
    replaces the earlier only when strictly greater, NaN included.
    """
    scale = lead = abs(a)
    m = abs(b)
    if m > scale:
        scale = m
    m = abs(c)
    if m > scale:
        scale = m
    if scale == 0:
        raise BranchPointError("quadratic vanished identically at this point")
    if lead < LEAD_COEFF_REL * scale:
        raise BranchPointError("leading coefficient too small; fiber degenerates")
    disc = b * b - 4 * a * c
    if abs(disc) < BRANCH_DISC_REL * scale * scale:
        raise BranchPointError("too close to a branch point")
    return scale, disc


def _polish(a, b, c, c0, c1):
    """(pair, residual) after one or two Newton steps in the dominant chart.

    The pair is normalized as :func:`_normalize` does it and the residual
    is |A t1^2 + B t1 t0 + C t0^2| there, both computed inline.
    """
    for _ in range(2):
        if abs(c1) <= abs(c0):
            t = c1 / c0
            df = 2 * a * t + b
            if df == 0:
                break
            t -= (a * t * t + b * t + c) / df
            c0, c1 = 1.0, t
        else:
            s = c0 / c1
            df = 2 * c * s + b
            if df == 0:
                break
            s -= (c * s * s + b * s + a) / df
            c0, c1 = s, 1.0
    m = abs(c0)
    m1 = abs(c1)
    if m1 > m:
        m = m1
    if m == 0:
        raise ContractError("projective coordinate collapsed to (0, 0)")
    c0 /= m
    c1 /= m
    return (c0, c1), abs(a * c1 * c1 + b * c1 * c0 + c * c0 * c0)


def _vieta_swap(quad):
    """The Vieta root swap in one axis, as a closure over that axis's former.

    ``swap(u, v, t)`` takes the pairs of the two other coordinates (in
    x < y < z order) and of the moving one, and returns (image, residual):
    ``quad(u, v)``, one :func:`_guard` call, the product-or-sum choice and
    the image's normalization inline (max() spelled as comparisons that
    pick the same float), one :func:`_polish` call and the residual test,
    reading the module's thresholds at call time.
    """

    def swap(u, v, t):
        a, b, c = quad(u, v)
        scale, _ = _guard(a, b, c)
        t0, t1 = t
        q0, q1 = a * t1, c * t0
        m = abs(q0)
        m1 = abs(q1)
        if m1 > m:
            m = m1
        tm = abs(t0)
        m1 = abs(t1)
        if m1 > tm:
            tm = m1
        if not m > 1e-6 * scale * tm:
            q0, q1 = a * t0, -(b * t0 + a * t1)
            m = abs(q0)
            m1 = abs(q1)
            if m1 > m:
                m = m1
        if m == 0:
            raise ContractError("projective coordinate collapsed to (0, 0)")
        image, res = _polish(a, b, c, q0 / m, q1 / m)
        if res > ON_SURFACE_TOL * (1.0 if 1.0 > scale else scale):
            raise ContractError(f"involution image off surface: residual {res:.3e}")
        return image, res

    return swap


def involution(surface: Surface222, axis: str, point: SurfacePoint) -> SurfacePoint:
    """The Vieta root swap in `axis`; the other two coordinates are untouched.

    Refuses near the branch locus (small discriminant) or where the
    quadratic degenerates (small leading coefficient); callers resample.
    """
    if axis not in AXES:
        raise PreconditionError(f"axis must be one of {AXES}")
    p = [point.x, point.y, point.z]
    i, j, k = _SLOTS[axis]
    p[i], res = surface._swaps[i](p[j], p[k], p[i])
    return SurfacePoint(p[0], p[1], p[2], res)


PAIRS = (("y", "z"), ("x", "z"), ("x", "y"))
WORD_PAIRS = PAIRS[:2]  # the two fiberwise maps a Birkhoff random word draws from
# each ordered pair of distinct axes -> the remaining (base) axis
_BASE_AXIS = {(first, second): base for first, second, base in permutations(AXES)}


def _pair_axes(pair) -> tuple[str, str, str]:
    """(first, second, base axis) of `pair`; PreconditionError unless it names
    two distinct axes."""
    try:
        first, second = pair
        return first, second, _BASE_AXIS[first, second]
    except (KeyError, TypeError, ValueError):
        raise PreconditionError(f"pair must name two distinct axes of {AXES}, got {pair!r}") from None


def _pair_map(swaps, first: str, second: str):
    """sigma_second after sigma_first as one closure over the two bound swaps.

    ``step(p)`` maps the tuple (x, y, z, residual) to a new tuple carrying
    the second swap's residual; floats and refusals are the swaps', bitwise.
    """
    (i, j, k), (i2, j2, k2) = _SLOTS[first], _SLOTS[second]
    swap, swap2 = swaps[i], swaps[i2]

    def step(p):
        p = list(p)
        p[i], _ = swap(p[j], p[k], p[i])
        p[i2], p[3] = swap2(p[j2], p[k2], p[i2])
        return tuple(p)

    return step


def parabolic_map(surface: Surface222, pair, point: SurfacePoint) -> SurfacePoint:
    """sigma_second after sigma_first; fixes the complementary coordinate bitwise.

    A wrapper over the surface's bound map of the pair; the walks call that
    map on tuples and build no point per step.
    """
    first, second, _ = _pair_axes(pair)
    return SurfacePoint(*surface._maps[first, second](point.astuple()))


def _sample_root(surface: Surface222, parts: dict, axis: str, rng):
    """The point `parts` (two coordinates by axis) completes at a random root in `axis`, or None.

    None when the quadratic fails :func:`_guard` or the polished root
    misses the sampling residual.  The root is qq / a or c / qq with
    qq = -(b +- sqrt(disc)) / 2, the sign avoiding cancellation (the guard
    keeps qq nonzero); which one is drawn from rng only once the guard has
    passed, so retries interleave with the draws.
    """
    i, j, k = _SLOTS[axis]
    a, b, c = surface._quads[i](parts[AXES[j]], parts[AXES[k]])
    try:
        scale, disc = _guard(a, b, c)
    except BranchPointError:
        return None
    sq = cmath.sqrt(disc)
    qq = -(b + sq) / 2 if abs(b + sq) >= abs(b - sq) else -(b - sq) / 2
    root, res = _polish(a, b, c, *_normalize((a, qq) if rng.integers(2) == 0 else (qq, c)))
    if res < SAMPLE_RESIDUAL_TOL * max(scale, 1.0):
        return SurfacePoint(**parts, **{axis: root}, residual=res)
    return None


def _guarded_roots(a, b, c):
    """The guard and both roots of a t^2 + b t + c over arrays of coefficients.

    Keeps the quadratics that pass the same leading-coefficient and branch
    guard as :func:`_sample_root` and returns that mask with, for the kept
    ones, both roots as unnormalized projective pairs (a : qq) and (qq : c),
    qq = -(b +- sqrt(disc)) / 2 with the sign that avoids cancellation.
    """
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    disc = b * b - 4 * a * c
    ok = (scale > 0) & (np.abs(a) >= LEAD_COEFF_REL * scale)
    ok &= np.abs(disc) >= BRANCH_DISC_REL * scale * scale
    a, b, c, disc = a[ok], b[ok], c[ok], disc[ok]
    sq = np.sqrt(disc)
    qq = np.where(np.abs(b + sq) >= np.abs(b - sq), -(b + sq) / 2, -(b - sq) / 2)
    return ok, ((a, qq), (qq, c))


def _fs_pair(rng) -> tuple[complex, complex]:
    """A Fubini-Study-uniform point of P^1: ratio of two complex Gaussians."""
    g = rng.normal(size=4)
    return _normalize((complex(g[0], g[1]), complex(g[2], g[3])))


def sample_point(surface: Surface222, rng) -> SurfacePoint:
    """Random surface point: (x, y) Fubini-Study uniform, z a random root."""
    for _ in range(SAMPLE_TRIES):
        point = _sample_root(surface, {"x": _fs_pair(rng), "y": _fs_pair(rng)}, "z", rng)
        if point is not None:
            return point
    raise ContractError(f"could not sample a surface point in {SAMPLE_TRIES} tries")


def sample_fiber_point(surface: Surface222, pair, base_pair, rng) -> SurfacePoint:
    """Random point on the fiber where the complementary coordinate equals base_pair."""
    first, second, base_axis = _pair_axes(pair)
    base_pair = _normalize(base_pair)
    for _ in range(SAMPLE_TRIES):
        point = _sample_root(surface, {base_axis: base_pair, first: _fs_pair(rng)}, second, rng)
        if point is not None:
            return point
    raise ContractError(f"could not sample a fiber point in {SAMPLE_TRIES} tries")


# ---------------------------------------------------------------------------
# charts, cells, coverage
# ---------------------------------------------------------------------------

def sphere_coord(pair) -> complex:
    """t / (1 + |t|^2) written projectively; scale-invariant, 0 at both 0 and infinity."""
    c0, c1 = pair
    return c1 * c0.conjugate() / (abs(c0) ** 2 + abs(c1) ** 2)


def proj_distance(pair1, pair2) -> float:
    """|c1 d0 - c0 d1| scaled by the representatives' norms; 0 iff equal in P^1.

    Projective pairs are only defined up to a complex scalar, so
    componentwise comparison is meaningless; this is the invariant
    distance proxy.
    """
    c0, c1 = pair1
    d0, d1 = pair2
    denom = max(abs(c0), abs(c1)) * max(abs(d0), abs(d1))
    return abs(c1 * d0 - c0 * d1) / denom


def point_distance(p: SurfacePoint, q: SurfacePoint) -> float:
    """Max projective distance over the three coordinates."""
    return max(proj_distance(p.coord(a), q.coord(a)) for a in AXES)


def _chart_cells(c0, c1, grid: int):
    """The G x G chart-grid cells of arrays of P^1 points (c0 : c1), any scale.

    Each cell comes back as the integer (chart * G + re index) * G + im index.
    """
    chart = np.abs(c1) > np.abs(c0)
    t = np.where(chart, c0, c1) / np.where(chart, c1, c0)
    w = t / (1 + np.abs(t) ** 2)
    ix = np.clip(((w.real + 0.5) * grid).astype(np.int64), 0, grid - 1)
    iy = np.clip(((w.imag + 0.5) * grid).astype(np.int64), 0, grid - 1)
    return (chart * grid + ix) * grid + iy


def _pair_keys(first, second, grid: int):
    """One integer per point for the :func:`pair_cell` of its two fiber coordinates."""
    return _chart_cells(*first, grid) * (2 * grid * grid) + _chart_cells(*second, grid)


def _key_cells(keys, grid: int):
    """The :func:`pair_cell` tuples of an array of keys made by :func:`_pair_keys`."""
    columns = []
    for part in np.divmod(keys, 2 * grid * grid):
        chart, rest = np.divmod(part, grid * grid)
        columns += [chart, *np.divmod(rest, grid)]
    return zip(*(col.tolist() for col in columns))


def pair_cell(point: SurfacePoint, pair, grid: int) -> tuple:
    """The grid cell of a point's two fiber coordinates: (chart flag, re index,
    im index) of each, read off :func:`_pair_keys` on one-element arrays.

    The library bins whole arrays; this scalar form stays because the
    benchmark's tracer, bench/tracer.py, wraps it by name.
    """
    coords = (np.array([[c] for c in point.coord(axis)], dtype=complex) for axis in pair)
    return next(_key_cells(_pair_keys(*coords, grid), grid))


def fiber_cells(surface: Surface222, pair, base_pair, grid: int = 16) -> set:
    """Cells the fiber curve passes through, by dense chart sampling.

    Samples a FIBER_REFINE*G grid on the unit disc of both charts of each
    fiber coordinate, solves the quadratic for the other, and keeps the
    :func:`pair_cell` cells hit at least MIN_HITS times (cells grazed once
    or twice are corner clips an orbit may legitimately take very long to
    visit).  All probes of one sweep are solved as arrays; probes that fail
    the leading-coefficient or branch guard are skipped.  MIN_HITS = 3 was
    calibrated on the fixed-seed reference surface: 10^5 iterates at
    G = 16 then cover at least 95% of the tube on virtually every smooth
    fiber.
    """
    if not 1 <= grid <= MAX_GRID:
        raise PreconditionError(f"grid must be between 1 and {MAX_GRID}")
    first, second, base_axis = _pair_axes(pair)
    base_pair = _normalize(base_pair)
    m = FIBER_REFINE * grid
    u = 2 * (np.arange(m) + 0.5) / m - 1
    cc = (u[:, None] + 1j * u).ravel()
    cc = cc[np.abs(cc) <= 1]
    ones = np.ones_like(cc)
    moving = (np.concatenate([ones, cc]), np.concatenate([cc, ones]))  # both charts
    keys = []
    for sweep_axis, solve_axis in ((first, second), (second, first)):
        i, j, k = _SLOTS[solve_axis]
        parts = {base_axis: base_pair, sweep_axis: moving}
        ok, roots = _guarded_roots(*surface._quads[i](parts[AXES[j]], parts[AXES[k]]))
        swept = (moving[0][ok], moving[1][ok])
        for root in roots:
            coords = {sweep_axis: swept, solve_axis: root}
            keys.append(_pair_keys(coords[first], coords[second], grid))
    cells, hits = np.unique(np.concatenate(keys), return_counts=True)
    return set(_key_cells(cells[hits >= MIN_HITS], grid))


@dataclass(frozen=True)
class FiberOrbitReport:
    """Coverage statistics of one fiber orbit at one grid resolution.

    Its artifact keys are its fields, the base written as [re, im] pairs.
    """

    base: tuple[complex, complex]
    length: int
    grid: int
    cells_fiber: int
    cells_visited: int
    coverage: float
    interruptions: int
    nudges: int
    resamples: int
    min_visits: int
    mean_visits: float

    def to_json_dict(self) -> dict:
        return {**asdict(self), "base": complex_pairs(self.base)}


def _walk(step, recover, start: tuple, length: int, budget: int, stats: dict):
    """Yield the `length` (x, y, z, residual) tuples that repeated `step` takes from `start`.

    A BranchPointError adds one to `stats["interruptions"]` and the walk goes
    on from `recover(point)`; more than `budget` of them raise ContractError.
    """
    stats["interruptions"] = 0
    cur = start
    done = 0
    while done < length:
        try:
            cur = step(cur)
        except BranchPointError:
            stats["interruptions"] += 1
            if stats["interruptions"] > budget:
                raise ContractError(
                    f"{stats['interruptions']} branch interruptions exceed the budget of {budget}"
                ) from None
            cur = recover(cur)
            continue
        done += 1
        yield cur


def _fiber_walk(surface: Surface222, pair, base_pair, start: SurfacePoint, length: int,
                rng, stats: dict):
    """`start` and the :func:`_walk` of `pair`'s bound map from it, as
    (x, y, z, residual) tuples.

    A refused step is nudged along the fiber or, when the nudge fails,
    resampled on it; `stats` counts the "interruptions", "nudges" and
    "resamples" (only the recovery path counts).  The budget is 0.1% of
    the length.  `base_pair` is the caller's, as given: the resample hands
    it to :func:`sample_fiber_point`, which normalizes it once, so the new
    point lies on the very base the caller's entry normalized.
    """
    first, second, _ = _pair_axes(pair)
    if rng is None:
        rng = np.random.default_rng(0)
    stats["nudges"] = stats["resamples"] = 0

    def recover(p):
        try:
            dy = 1e-3 * complex(rng.normal(), rng.normal())
            point = _move_along_fiber(surface, pair, SurfacePoint(*p), dy)
        except (BranchPointError, ContractError):
            stats["resamples"] += 1
            return sample_fiber_point(surface, pair, base_pair, rng).astuple()
        stats["nudges"] += 1
        return point.astuple()

    start = start.astuple()
    return chain([start], _walk(surface._maps[first, second], recover, start, length,
                                max(1, length // 1000), stats))


def orbit_trace(
    surface: Surface222, pair, base_pair, start: SurfacePoint, length: int,
    rng=None, stats: dict | None = None,
):
    """An iterator of (step, point) along the fiberwise orbit, `start` as step 0.

    The walk is :func:`fiber_orbit`'s: branch-point refusals trigger a
    nudge along the fiber (or a resample) and are tallied in `stats`;
    more than 0.1% of the requested length aborts the orbit.
    """
    _normalize(base_pair)  # a collapsed base is refused before the walk, as in fiber_orbit
    walk = _fiber_walk(surface, pair, base_pair, start, length, rng,
                       {} if stats is None else stats)
    return enumerate(SurfacePoint(*p) for p in walk)


def fiber_orbit(
    surface: Surface222,
    pair,
    base_pair,
    start: SurfacePoint,
    length: int,
    grid: int = 16,
    rng=None,
) -> FiberOrbitReport:
    """Iterate the fiberwise map and report coverage of the fiber's grid cells.

    Branch-point refusals are nudged, resampled and budgeted as in
    :func:`orbit_trace`, and the report counts each kind of recovery.
    The report's base, the reference cells and every resample read
    `base_pair` as given and normalize it once each, so all three sit on
    the same fiber to the last bit.
    """
    first, second, _ = _pair_axes(pair)
    reference = fiber_cells(surface, pair, base_pair, grid)
    if not reference:
        raise ContractError("fiber tube sampling found no cells; fiber likely singular")
    i, j = AXES.index(first), AXES.index(second)
    stats: dict = {}
    visit_counts: Counter = Counter()
    coords = []  # (first c0, first c1, second c0, second c1) of each point not yet binned

    def bin_coords():
        c = np.array(coords, dtype=complex).reshape(-1, 4).T
        keys, visits = np.unique(_pair_keys(c[:2], c[2:], grid), return_counts=True)
        visit_counts.update(dict(zip(_key_cells(keys, grid), visits.tolist())))
        coords.clear()

    for p in _fiber_walk(surface, pair, base_pair, start, length, rng, stats):
        coords += p[i]
        coords += p[j]
        if len(coords) == 4 * BIN_BLOCK:
            bin_coords()
    bin_coords()
    hit = set(visit_counts) & reference
    coverage = len(hit) / len(reference)
    ref_visits = [visit_counts.get(cell, 0) for cell in reference]
    return FiberOrbitReport(
        base=_normalize(base_pair),
        length=length,
        grid=grid,
        cells_fiber=len(reference),
        cells_visited=len(hit),
        coverage=coverage,
        interruptions=stats["interruptions"],
        nudges=stats["nudges"],
        resamples=stats["resamples"],
        min_visits=min(ref_visits),
        mean_visits=sum(ref_visits) / len(ref_visits),
    )


# ---------------------------------------------------------------------------
# 1-form / measure diagnostics
# ---------------------------------------------------------------------------

def axis_partial(surface: Surface222, point: SurfacePoint, axis: str) -> complex:
    """dF/d(axis) of the affine polynomial at the point: 2 A t + B.

    A and B are taken at the chart pairs (1, t) of the other coordinates, so
    the value does not depend on their stored representatives; all
    coordinates must sit in moderate charts.
    """
    i, j, k = _SLOTS[axis]
    a, b, _ = surface._quads[i]((1.0 + 0j, point.affine(AXES[j])), (1.0 + 0j, point.affine(AXES[k])))
    return 2 * a * point.affine(axis) + b


def _move_along_fiber(surface: Surface222, pair, point: SurfacePoint, dy: complex) -> SurfacePoint:
    """Shift the first fiber coordinate by dy and Newton-correct the second."""
    first, second = pair
    i, j, k = _SLOTS[second]
    p = list(point.astuple())
    p[AXES.index(first)] = _normalize((1.0 + 0j, point.affine(first) + dy))
    a, b, c = surface._quads[i](p[j], p[k])
    p[i], p[3] = _polish(a, b, c, *p[i])
    scale = max(abs(a), abs(b), abs(c), 1.0)
    if p[3] > ON_SURFACE_TOL * scale:
        raise BranchPointError("could not track the fiber through the shift")
    return SurfacePoint(*p)


def fiber_derivative_ratio(surface: Surface222, pair, map_fn, point: SurfacePoint):
    """(d(first')/d(first) along the fiber, dF/dsecond ratio) for a fiber map.

    The map preserves the fiber 1-form  d(first) / (dF/dsecond)  exactly
    when the two returned values agree; a single involution returns a
    ratio of -1 instead (it flips the form's sign).
    """
    first, second = pair
    image = map_fn(point)
    plus = map_fn(_move_along_fiber(surface, pair, point, FD_STEP))
    minus = map_fn(_move_along_fiber(surface, pair, point, -FD_STEP))
    deriv = (plus.affine(first) - minus.affine(first)) / (2 * FD_STEP)
    ratio = axis_partial(surface, image, second) / axis_partial(surface, point, second)
    return deriv, ratio


def translation_check(surface: Surface222, pair, base_pair, point: SurfacePoint) -> bool:
    """Does the fiberwise map preserve the fiber's holomorphic 1-form at `point`?

    Verifies d(first')/d(first) = (dF/dsecond at image) / (dF/dsecond at
    point) by finite differences.  A fiber automorphism preserving the
    1-form (and of infinite order) is a translation.
    """
    _, _, base_axis = _pair_axes(pair)
    base_pair = _normalize(base_pair)
    if proj_distance(point.coord(base_axis), base_pair) > 1e-9:
        raise PreconditionError("point does not lie on the stated fiber")
    deriv, ratio = fiber_derivative_ratio(
        surface, pair, lambda p: parabolic_map(surface, pair, p), point
    )
    return abs(deriv - ratio) <= TRANSLATION_TOL * max(1.0, abs(ratio))


# ---------------------------------------------------------------------------
# ergodicity diagnostics
# ---------------------------------------------------------------------------

# fid -> (the axis whose sphere coordinate w the function reads, None if none; w -> float)
TEST_FUNCTIONS = {
    "one": (None, lambda w: 1.0),
    "x_abs2": ("x", lambda w: abs(w) ** 2),
    "x_re": ("x", lambda w: w.real),
    "y_abs2": ("y", lambda w: abs(w) ** 2),
    "z_abs2": ("z", lambda w: abs(w) ** 2),
}


def eval_test_function(fid: str, point: SurfacePoint) -> float:
    axis, fn = TEST_FUNCTIONS[fid]
    return float(fn(None if axis is None else sphere_coord(getattr(point, axis))))


def _fs_ratios(rng, samples: int):
    """(t, ok) over the columns of one (4, samples) Gaussian draw g.

    t = (g0 + i g1) / (g2 + i g3) is a Fubini-Study-uniform point of the
    affine chart; ok marks the columns with |g2 + i g3| > 1e-8.
    """
    g = rng.normal(size=(4, samples))
    den = g[2] + 1j * g[3]
    return (g[0] + 1j * g[1]) / den, np.abs(den) > 1e-8


def _mc_draw(surface: Surface222, samples: int, rng):
    """An importance sample of the 1/|dF/dz|^2 chart density: (weights, spheres).

    Proposal: Fubini-Study-uniform (x, y), both z roots; weight
    (1 + |x|^2)^2 (1 + |y|^2)^2 / |dF/dz|^2 per root.  The (x, y) ratios
    are formed over the whole draw; the quadratics, their guard and roots,
    the weights and the sphere coordinates over MC_BLOCK kept columns at a
    time, written into arrays that hold the whole draw.  Each list holds
    one entry per root: its weights, and its sphere coordinates by axis
    (x and y are the same arrays for both roots).

    The quadratics are formed here, not by the surface's z former
    (:func:`_quadratic`): on the affine chart each term is grouped as
    (c * x^i) * y^j and zero coefficients are skipped, where the former
    takes c * (x^i y^j) over projective pairs, so the two round apart and
    sharing the former would move the Monte Carlo floats.
    """
    c = surface.coeffs
    x, xok = _fs_ratios(rng, samples)
    y, yok = _fs_ratios(rng, samples)
    keep = xok & yok
    x, y = x[keep], y[keep]
    weights, wz = np.empty((2, len(x))), np.empty((2, len(x)), complex)
    wx, wy = np.empty_like(x), np.empty_like(y)
    n = 0
    for lo in range(0, len(x), MC_BLOCK):
        bx, by = x[lo:lo + MC_BLOCK], y[lo:lo + MC_BLOCK]
        mx = np.stack([np.ones_like(bx), bx, bx * bx])
        my = np.stack([np.ones_like(by), by, by * by])
        abc = []
        for m in range(3):
            acc = np.zeros_like(bx)
            for i in range(3):
                for j in range(3):
                    cij = c[i, j, m]
                    if cij != 0:
                        acc = acc + cij * mx[i] * my[j]
            abc.append(acc)
        cc, bb, aa = abc
        ok, roots = _guarded_roots(aa, bb, cc)
        bx, by, aa, bb = bx[ok], by[ok], aa[ok], bb[ok]
        hi = n + len(bx)
        fs_weight = (1 + np.abs(bx) ** 2) ** 2 * (1 + np.abs(by) ** 2) ** 2
        wx[n:hi] = bx / (1 + np.abs(bx) ** 2)
        wy[n:hi] = by / (1 + np.abs(by) ** 2)
        for w, z, (r0, r1) in zip(weights, wz, roots):
            tz = r1 / r0
            fz = 2 * aa * tz + bb
            w[n:hi] = fs_weight / np.abs(fz) ** 2
            z[n:hi] = tz / (1 + np.abs(tz) ** 2)
        n = hi
    return list(weights[:, :n]), [{"x": wx[:n], "y": wy[:n], "z": z} for z in wz[:, :n]]


def _mc_space_averages(surface: Surface222, fids, samples: int, rng) -> dict:
    """fid -> (average, standard error, effective sample size) over one :func:`_mc_draw`.

    The self-normalized importance-sampling estimate of each test
    function's space average; the draw, its weights and its effective
    sample size are shared by all `fids`.  The sums run over the whole
    draw, root 0's entries then root 1's, so the floats do not depend on
    MC_BLOCK.  ContractError when the weights sum to 0 (every draw refused).
    """
    weights, spheres = _mc_draw(surface, samples, rng)
    w = np.concatenate(weights)
    wsum = float(np.sum(w))
    if wsum == 0:
        raise ContractError(f"no weight among {samples} Monte Carlo draws; space average undefined")
    ess = wsum**2 / float(np.sum(w**2))
    zero = np.zeros_like(weights[0])  # both roots carry one weight per kept (x, y)
    averages = {}
    for fid in fids:
        axis, fn = TEST_FUNCTIONS[fid]
        v = np.concatenate([np.real(fn(sphere.get(axis)) + zero) for sphere in spheres])
        avg = float(np.sum(w * v) / wsum)
        # delta-method standard error of the self-normalized estimator
        se = float(np.sqrt(np.sum((w * (v - avg)) ** 2)) / wsum)
        averages[fid] = (avg, se, ess)
    return averages


def _trajectory_means(step, recover, start: tuple, length: int, fids):
    """(the mean of each test function in `fids` over a :func:`_walk`, its interruptions).

    The walk steps (x, y, z, residual) tuples and the budget is 1% of the
    length.  The points come WALK_BLOCK at a time; each axis the functions
    read goes through :func:`sphere_coord` once per point, and each sum is
    plain left-to-right float additions, so a mean depends neither on how
    sum() rounds nor on which other functions share the walk.
    """
    reads = [TEST_FUNCTIONS[fid] for fid in fids]
    axes = {axis for axis, _ in reads} - {None}
    stats: dict = {}
    walk = _walk(step, recover, start, length, max(1, length // 100), stats)
    totals = [0.0] * len(reads)
    while block := list(islice(walk, WALK_BLOCK)):
        w = {axis: list(map(sphere_coord, map(itemgetter(AXES.index(axis)), block)))
             for axis in axes}
        w[None] = [None] * len(block)
        totals = [reduce(add, map(fn, w[axis]), total) for total, (axis, fn) in zip(totals, reads)]
    return [total / length for total in totals], stats["interruptions"]


class _Letters:
    """The draws ``int(rng.integers(n))`` makes one call at a time, taken in batches.

    A batch of k draws consumes rng's stream as k single calls do, but
    runs ahead of the walk; :meth:`sync` puts rng back where the single
    calls would have left it, and must come before anything else draws.
    """

    def __init__(self, rng, n: int):
        self.rng, self.n = rng, n
        self.batch, self.used, self.state = [], 0, None

    def __next__(self) -> int:
        if self.used == len(self.batch):
            self.state = self.rng.bit_generator.state
            self.batch, self.used = self.rng.integers(self.n, size=256).tolist(), 0
        self.used += 1
        return self.batch[self.used - 1]

    def sync(self):
        """rng, drawn as far as the letters handed out so far."""
        self.rng.bit_generator.state = self.state
        self.rng.integers(self.n, size=self.used)
        self.batch, self.used = [], 0
        return self.rng


def _birkhoff_runs(surface: Surface222, word_length, trials, mc_samples, seed):
    """(fid -> (trial means, (space average, se, ess)), interruptions) for every fid.

    The letters, starts, resamples and the Monte Carlo draw depend on the
    arguments, never on the fid, so one walk and one draw serve all of
    TEST_FUNCTIONS; the run is memoized as :func:`birkhoff_ergodicity_test` says.
    """
    key = (word_length, trials, mc_samples, seed,
           BRANCH_DISC_REL, LEAD_COEFF_REL, ON_SURFACE_TOL, SAMPLE_RESIDUAL_TOL)
    memo = surface._birkhoff_memo
    if key not in memo:
        fids = tuple(TEST_FUNCTIONS)
        maps = [surface._maps[pair] for pair in WORD_PAIRS]
        trial_means = []
        interruptions = 0
        for t in range(trials):
            rng = np.random.default_rng([seed, 0xB1, t])
            start = sample_point(surface, rng).astuple()
            letters = _Letters(rng, len(maps))
            means, hits = _trajectory_means(  # a fresh letter before every attempt, refused or not
                lambda p: maps[next(letters)](p),
                lambda p: sample_point(surface, letters.sync()).astuple(), start, word_length, fids)
            trial_means.append(means)
            interruptions += hits
        space = _mc_space_averages(surface, fids, mc_samples, np.random.default_rng([seed, 0x5C]))
        if len(memo) == BIRKHOFF_MEMO:
            del memo[next(iter(memo))]
        memo[key] = ({fid: (means, space[fid]) for fid, means in zip(fids, zip(*trial_means))},
                     interruptions)
    return memo[key]


def birkhoff_ergodicity_test(
    surface: Surface222,
    fid: str,
    word_length: int = 10**4,
    trials: int = 16,
    mc_samples: int = 10**6,
    seed: int = 0,
) -> dict:
    """Compare random-word time averages of a test function to the space average.

    Uniform i.i.d. letters from the two fiberwise maps of WORD_PAIRS;
    `trials` independent words and starting points; the space average is
    the Monte Carlo integral against the chart density 1/|dF/dz|^2.  Returns
    both estimates, their spreads, and the z-score of the difference.
    This is a heuristic consistency diagnostic, not a proof; the output
    says so.  A too-small effective MC sample size is flagged, never
    silently ignored.

    Calls on one surface that differ only in `fid` share one run: the
    first walks the trials and draws the MC sample for every test
    function, and the others read the surface's memo.  It is keyed by
    (word_length, trials, mc_samples, seed) and the branch, lead,
    on-surface and sampling thresholds at call time, and keeps the last
    BIRKHOFF_MEMO keys, dropping the oldest first.  The preconditions are
    checked first, a run that raises is not kept, and every call returns a
    fresh report.
    """
    if fid not in TEST_FUNCTIONS:
        raise PreconditionError(f"unknown test function {fid!r}")
    if trials < 2:
        raise PreconditionError("trials must be >= 2 to estimate the time-average spread")
    if word_length < 1:
        raise PreconditionError("word_length must be >= 1")
    if mc_samples < 1:
        raise PreconditionError("mc_samples must be >= 1")
    runs, interruptions = _birkhoff_runs(surface, word_length, trials, mc_samples, seed)
    trial_means, (space_avg, se_space, ess) = runs[fid]
    time_avg = float(np.mean(trial_means))
    se_time = float(np.std(trial_means, ddof=1) / math.sqrt(trials))
    se = math.hypot(se_time, se_space)
    z = abs(time_avg - space_avg) / se if se > 0 else 0.0
    return {
        "note": "heuristic consistency check; random-word averages, not a theorem",
        "test_function": fid,
        "time_average": time_avg,
        "time_se": se_time,
        "trial_means": list(trial_means),
        "space_average": space_avg,
        "space_se": se_space,
        "mc_effective_samples": ess,
        "mc_unstable": not ess >= 1000,
        "z_score": z,
        "word_length": word_length,
        "trials": trials,
        "mc_samples": mc_samples,
        "branch_interruptions": interruptions,
    }


def ergodicity_contrast(
    surface: Surface222,
    pair=("y", "z"),
    fid: str = "y_abs2",
    n_fibers: int = 10,
    trials_per_fiber: int = 6,
    word_length: int = 10**4,
    seed: int = 0,
) -> dict:
    """Single fiberwise map: time averages depend on the fiber, exposing the
    non-ergodic direction.

    Returns within-fiber and cross-fiber variances of trajectory means;
    a large ratio is the detection signal.  `branch_interruptions` counts
    the refused steps over all trajectories.
    """
    if n_fibers < 2 or trials_per_fiber < 2:
        raise PreconditionError("n_fibers and trials_per_fiber must be >= 2 to estimate variances")
    if word_length < 1:
        raise PreconditionError("word_length must be >= 1")
    first, second, base_axis = _pair_axes(pair)
    step = surface._maps[first, second]

    fiber_means = []
    within_vars = []
    interruptions = 0
    for i in range(n_fibers):
        rng = np.random.default_rng([seed, 0xF1, i])
        base = _fs_pair(rng)
        means = []
        for t in range(trials_per_fiber):
            rng_t = np.random.default_rng([seed, 0xF2, i, t])
            start = sample_fiber_point(surface, pair, base, rng_t)
            # resample on the start's stored base: renormalizing `base` may move its last bits
            (mean,), hits = _trajectory_means(
                step,
                lambda p: sample_fiber_point(surface, pair, start.coord(base_axis), rng_t).astuple(),
                start.astuple(), word_length, (fid,))
            means.append(mean)
            interruptions += hits
        fiber_means.append(float(np.mean(means)))
        within_vars.append(float(np.var(means, ddof=1)))
    cross_var = float(np.var(fiber_means, ddof=1))
    within_var = float(np.mean(within_vars))
    return {
        "note": "heuristic consistency check; single-map trajectories stay on one fiber",
        "pair": list(pair),
        "test_function": fid,
        "fiber_means": fiber_means,
        "cross_fiber_variance": cross_var,
        "within_fiber_variance": within_var,
        "variance_ratio": cross_var / within_var if within_var > 0 else float("inf"),
        "branch_interruptions": interruptions,
    }
