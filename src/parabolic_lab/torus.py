"""Translation dynamics on real tori R^n / Z^n.

Orbits of a translation x are dense exactly when x satisfies no integer
relation; the orbit closure is a coset of a subtorus whose dimension is
n minus the number of independent relations k in Z^(n+1) with
k . (x_1, ..., x_n, 1) = 0.  :func:`rational_hull` has two contracts.
Exact inputs (values in Q[sqrt d]) give their whole relation lattice, in
integers from one HNF (see `_exact_relations`); tol and height_bound are
checked and recorded but do not enter.  Float inputs go through lattice
basis reduction on the augmented matrix [I | K x] with scale K = 1/tol: a
reduced row is accepted as a relation iff its residue is below tol AND its
height is below the bound, a contract made explicit because floating
inputs admit adversarial near-relations.

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
from .linalg_exact import hnf, kernel_basis, lll_reduce, scaled_ints

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

    relation_basis: the HNF of the relation lattice, whose rows k in
    Z^(n+1) have k . (x, 1) = 0 for exact x (all of them) or below the
    tolerance for floats.  subspace_basis: a rational basis of {v in R^n :
    k_x . v = 0 for all relations}, the tangent space of the orbit closure.
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


def _exact_relations(values) -> list[list[int]]:
    """Generators of the integer relation lattice of exact values.

    Over one denominator, value j has the integer radicand coefficients
    C[:, j], and k is a relation iff C k = 0, since the sqrt d of distinct
    squarefree d are linearly independent over Q (Besicovitch, J. London
    Math. Soc. 15, 1940).  The HNF of the rows [C[:, j] | e_j] comes from
    unimodular row operations, so the e-parts of its rows whose C part is 0
    span that kernel, saturated (Cohen, GTM 138, 2.4).
    """
    terms = [v.terms for v in values]
    radicands = sorted(set().union(*terms))
    w, m = len(radicands), len(values)
    flat = scaled_ints([t.get(d, 0) for t in terms for d in radicands])[0]
    rows = [flat[j * w:(j + 1) * w] + [int(i == j) for i in range(m)] for j in range(m)]
    return [row[w:] for row in hnf(rows) if not any(row[:w])]


def _lll_relations(tv: TranslationVector, height_bound: int, tol: float) -> list[list[int]]:
    """HNF of the rows of LLL on [I | round(x/tol)] within the height bound and tol."""
    n = tv.n
    with mp.workprec(tv.precision):
        vals = list(tv.mpf_values()) + [mp.mpf(1)]
        tolm = mp.mpf(tol)
        scale = 1 / tolm
        rows = [[int(i == j) for j in range(n + 1)] + [int(mp.nint(scale * v))]
                for i, v in enumerate(vals)]
        accepted = [k for k in (row[: n + 1] for row in lll_reduce(rows))
                    if max(map(abs, k)) <= height_bound and _residue(k, vals) < tolm]
        # the k-parts are rows of a unimodular transform (the input is [I | K x],
        # and LLL only swaps rows and subtracts integer multiples), so the
        # accepted ones span a saturated lattice and every HNF row is primitive
        relations = hnf(accepted)
        # HNF mixes accepted rows, so re-check the returned ones (combinations of
        # true relations stay tiny, near-relations admitted by a loose tol do not)
        if not all(_residue(k, vals) < tolm for k in relations):
            raise ContractError(
                "canonicalized relation fails the residue contract; "
                "tolerance admitted a spurious relation"
            )
    return relations


def rational_hull(
    x,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
    tol: float = DEFAULT_TOL,
) -> RationalSubspace:
    """Detect integer relations of (x, 1) and return the rational hull.

    See the module docstring for the two contracts: exact values give
    their whole relation lattice, floats the relations that pass tol and
    height_bound.  Deterministic for fixed precision and parameters.
    Raises PrecisionError when tol is below what the stored precision can
    resolve, for exact values too.
    """
    if not 0 < tol < math.inf:
        raise PreconditionError(f"tol must be positive and finite, got {tol}")
    if height_bound < 1:
        raise PreconditionError("height_bound must be >= 1")
    tv = as_translation_vector(x)
    n = tv.n
    resolution = Fraction(2) ** (6 - tv.precision) * (n + 1) * height_bound
    if tol <= resolution:
        raise PrecisionError(
            f"tol {tol} is below the representable resolution "
            f"{float(resolution):.3g} at {tv.precision} bits"
        )
    if tv.is_exact:
        relations = hnf(_exact_relations(tv.values + (QuadExpr.rational(1),)))
    else:
        relations = _lll_relations(tv, height_bound, tol)
    subspace = kernel_basis([r[:n] for r in relations] or [[0] * n])
    if n - len(subspace) != len(relations):
        raise ContractError(
            "relation x-parts are dependent; tolerance admitted a spurious relation"
        )
    return RationalSubspace(
        dimension=len(subspace),
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
