"""Translation dynamics on real tori R^n / Z^n.

Orbits of a translation x are dense exactly when x satisfies no integer
relation; the orbit closure is a coset of a subtorus whose dimension is
n minus the number of independent relations k in Z^(n+1) with
k . (x_1, ..., x_n, 1) = 0.  :func:`rational_hull` detects those relations
by lattice basis reduction on the augmented matrix [I | K x] with scale
K = 1/tol: a reduced row is accepted as a relation iff its residue is
below tol AND its height is below the bound.  That acceptance contract is
explicit because floating inputs admit adversarial near-relations; exact
inputs (values in Q[sqrt d]) bypass the issue entirely, since every
candidate is re-verified with exact arithmetic.

Precision budget: with p-bit values, residues carry roundoff of order
2^(1-p) * height * n, so tol must stay well above that; the default
(128-bit values, tol = 1e-24, heights <= 1e6) leaves ~8 decimal digits of
headroom, and planted relations of height <= 1e3 are recovered exactly.

Torus points are kept reduced to [0, 1)^n and re-reduced after every
addition so long orbits do not drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import ContractError, PrecisionError, PreconditionError
from .exact import QuadExpr
from .linalg_exact import hnf, kernel_basis, lll_reduce, rank_exact

DEFAULT_PRECISION = 128
DEFAULT_TOL = 1e-24
DEFAULT_HEIGHT_BOUND = 10**6


def _is_exact_value(v) -> bool:
    return isinstance(v, (int, Fraction, QuadExpr))


@dataclass(frozen=True)
class TranslationVector:
    """A point of the translation torus, reduced to [0, 1)^n.

    Components are either exact (:class:`QuadExpr`) or mpmath floats at
    the stored precision.  Exact components make relation detection
    exact; mpf components follow the documented tolerance contract.
    """

    values: tuple
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        vals = []
        exact = all(_is_exact_value(v) for v in self.values)
        for v in self.values:
            if exact:
                q = QuadExpr.coerce(v)
                vals.append(q - q.floor())
            else:
                with mp.workprec(self.precision):
                    if isinstance(v, QuadExpr):
                        m = v.to_mpf(self.precision)
                    else:
                        m = mp.mpf(v)
                    vals.append(m - mp.floor(m))
        object.__setattr__(self, "values", tuple(vals))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, QuadExpr) for v in self.values)

    def mpf_values(self) -> tuple:
        with mp.workprec(self.precision):
            return tuple(
                v.to_mpf(self.precision) if isinstance(v, QuadExpr) else mp.mpf(v)
                for v in self.values
            )


def as_translation_vector(x) -> TranslationVector:
    if isinstance(x, TranslationVector):
        return x
    return TranslationVector(tuple(x))


@dataclass(frozen=True)
class RationalSubspace:
    """Smallest rational subspace data for a translation vector.

    relation_basis: independent primitive rows k in Z^(n+1) (HNF
    canonical) with |k . (x, 1)| below the tolerance.  subspace_basis: a
    rational basis of {v in R^n : k_x . v = 0 for all relations}, the
    tangent space of the orbit closure.
    """

    dimension: int
    relation_basis: tuple[tuple[int, ...], ...]
    subspace_basis: tuple[tuple[int, ...], ...]
    tol: float
    height_bound: int

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dimension,
            "relations": [list(r) for r in self.relation_basis],
            "tol": self.tol,
            "height_bound": self.height_bound,
        }


def iterate(x, start, count: int) -> list[tuple]:
    """Orbit sample start + k x mod Z^n for k = 1..count (reduced each step)."""
    if count < 1:
        raise PreconditionError("need count >= 1")
    tv = as_translation_vector(x)
    with mp.workprec(tv.precision):
        step = tv.mpf_values()
        cur = [mp.mpf(s) for s in start]
        if len(cur) != tv.n:
            raise PreconditionError("start point has wrong dimension")
        cur = [c - mp.floor(c) for c in cur]
        out = []
        for _ in range(count):
            cur = [c + s for c, s in zip(cur, step)]
            cur = [c - mp.floor(c) for c in cur]
            out.append(tuple(cur))
    return out


def circle_gaps(points) -> tuple[float, float]:
    """(max, min) gap of a finite subset of R/Z; wraps around."""
    pts = sorted(float(p) for p in points)
    if not pts:
        raise PreconditionError("no points")
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(pts[0] + 1 - pts[-1])
    return max(gaps), min(gaps)


def _residue(k, vals) -> mp.mpf:
    return abs(mp.fsum(ki * v for ki, v in zip(k, vals)))


def _exact_residue_zero(k, exact_vals) -> bool:
    total = QuadExpr.rational(0)
    for ki, v in zip(k, exact_vals):
        total = total + QuadExpr.coerce(v) * ki
    return total.is_zero()


def rational_hull(
    x,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
    tol: float = DEFAULT_TOL,
) -> RationalSubspace:
    """Detect integer relations of (x, 1) and return the rational hull.

    See the module docstring for the acceptance contract.  Deterministic
    for fixed precision and parameters.  Raises PrecisionError when tol
    is below what the stored precision can resolve.
    """
    if not 0 < tol < math.inf:
        raise PreconditionError(f"tol must be positive and finite, got {tol}")
    if height_bound < 1:
        raise PreconditionError("height_bound must be >= 1")
    tv = as_translation_vector(x)
    n = tv.n
    with mp.workprec(tv.precision):
        vals = list(tv.mpf_values()) + [mp.mpf(1)]
        tolm = mp.mpf(tol)
        resolution = (
            mp.mpf(2) ** (6 - tv.precision) * (n + 1) * height_bound
        )
        if tolm <= resolution:
            raise PrecisionError(
                f"tol {tol} is below the representable resolution "
                f"{float(resolution):.3g} at {tv.precision} bits"
            )
        scale = 1 / tolm
        rows = []
        for i in range(n + 1):
            row = [0] * (n + 1)
            row[i] = 1
            row.append(int(mp.nint(scale * vals[i])))
            rows.append(row)
        reduced = lll_reduce(rows)
        exact = list(tv.values) + [1] if tv.is_exact else None

        def holds(k) -> bool:
            # the residue contract: exactly zero for exact values, below tol otherwise
            return _exact_residue_zero(k, exact) if exact is not None else _residue(k, vals) < tolm

        accepted = []
        for row in reduced:
            k = row[: n + 1]
            # the float residue is a cheap screen before holds(), exact for exact values
            if max(map(abs, k)) <= height_bound and _residue(k, vals) < tolm and holds(k):
                accepted.append(k)
        # the k-parts are rows of a unimodular transform (the input is [I | K x],
        # and LLL only swaps rows and subtracts integer multiples), so the
        # accepted ones span a saturated lattice and every HNF row is primitive
        relations = hnf(accepted)
        # the returned rows themselves must satisfy the residue contract;
        # HNF mixes accepted rows, so re-verify (combinations of true
        # relations stay tiny, near-relations admitted by a loose tol do not)
        if not all(map(holds, relations)):
            raise ContractError(
                "canonicalized relation fails the residue contract; "
                "tolerance admitted a spurious relation"
            )
        x_parts = [r[:n] for r in relations]
        if x_parts and rank_exact(x_parts) != len(relations):
            raise ContractError(
                "relation x-parts are dependent; tolerance admitted a spurious relation"
            )
    dimension = n - len(relations)
    subspace = kernel_basis(x_parts) if x_parts else kernel_basis([[0] * n])
    return RationalSubspace(
        dimension=dimension,
        relation_basis=tuple(tuple(r) for r in relations),
        subspace_basis=tuple(tuple(v) for v in subspace),
        tol=tol,
        height_bound=height_bound,
    )


def orbit_closure_dim(x) -> int:
    """Dimension of the orbit closure; equals n exactly when orbits are dense."""
    return rational_hull(x).dimension


def weyl_sum(x, k, count: int) -> float:
    """|(1/N) sum_{j<=N} exp(2 pi i k . (j x))|, the equidistribution diagnostic."""
    if not any(k):
        raise PreconditionError("k must be nonzero")
    if count < 1:
        raise PreconditionError("need count >= 1")
    tv = as_translation_vector(x)
    if len(k) != tv.n:
        raise PreconditionError("k must have one entry per coordinate")
    with mp.workprec(tv.precision):
        vals = tv.mpf_values()
        step = mp.fsum(ki * v for ki, v in zip(k, vals))
        step -= mp.floor(step)
        phase = mp.mpf(0)
        total = 0j
        two_pi = 2 * math.pi
        for _ in range(count):
            phase += step
            phase -= mp.floor(phase)
            p = float(phase) * two_pi
            total += complex(math.cos(p), math.sin(p))
    return abs(total) / count


@dataclass(frozen=True)
class ScanReport:
    """Result of :func:`semicontinuity_scan` over a parameter grid."""

    points: tuple[tuple[object, int], ...]  # (t, dim) pairs in grid order
    max_dim: int
    exceptional: tuple  # grid points where the dimension drops

    def to_json_dict(self) -> dict:
        return {
            "points": [[str(t), d] for t, d in self.points],
            "max_dim": self.max_dim,
            "exceptional": [str(t) for t in self.exceptional],
        }


def evaluate_family(family, t) -> tuple[QuadExpr, ...]:
    """Evaluate coordinate polynomials (ascending coefficients) at exact t."""
    te = QuadExpr.coerce(t) if not isinstance(t, QuadExpr) else t
    out = []
    for coeffs in family:
        acc = QuadExpr.rational(0)
        for c in reversed(list(coeffs)):
            ce = c if isinstance(c, QuadExpr) else QuadExpr.coerce(c)
            acc = acc * te + ce
        out.append(acc)
    return tuple(out)


def semicontinuity_scan(
    family,
    grid,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
    tol: float = DEFAULT_TOL,
) -> ScanReport:
    """Hull dimension along an exactly-evaluated family t -> x(t).

    `family` is one list of coefficients per torus coordinate (ascending
    powers of t, entries rational or QuadExpr); grid points may be exact
    irrationals.  The maximal dimension should be attained away from a
    finite exceptional set, which is reported.
    """
    points = []
    for t in grid:
        x = evaluate_family(family, t)
        dim = rational_hull(TranslationVector(x), height_bound, tol).dimension
        points.append((t, dim))
    max_dim = max(d for _, d in points) if points else 0
    exceptional = tuple(t for t, d in points if d < max_dim)
    return ScanReport(points=tuple(points), max_dim=max_dim, exceptional=exceptional)
