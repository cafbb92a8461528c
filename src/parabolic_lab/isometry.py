"""Integral isometries of hyperbolic lattices and their trichotomy.

An isometry of a signature-(1, n) lattice is elliptic (finite order),
parabolic (unique fixed isotropic direction, eigenvalue 1, quasi-unipotent
but not semisimple) or loxodromic (a real eigenvalue pair lambda, 1/lambda
with |lambda| > 1).  Classification here runs entirely on exact data:

* quasi-unipotent <=> every irreducible factor of the characteristic
  polynomial is cyclotomic (checked by stripping cyclotomic divisors);
* on that branch, with L the lcm of the indices of those factors and
  N = g^L - I: semisimple (elliptic, of order L) <=> g^L = I <=> N = 0;
* otherwise g^L is unipotent, and unipotent elements of O(1, n) have
  Jordan blocks of size at most 3 (Ratcliffe, *Foundations of Hyperbolic
  Manifolds*, GTM 149, 4.7), so N^3 = 0 and N^2 has rank 1: the parabolic
  fixed vector is the primitive generator of the image of N^2, and the
  limit direction of g^i(w) is that of the integer vector N^2 w;
* the loxodromic eigenvalue is isolated by Sturm bisection and polished
  with mpmath.

Floating point only ever appears in loxodromic payloads, never in the
classification logic, so spectra close to the unit circle cannot be
misclassified.

Orientation: the trichotomy is a statement about SO+(1, n).  Integral
isometries with determinant -1 or that exchange the two components of the
positive cone are reported as :class:`OutsideSOPlus` instead of being
forced into a tag.

Parabolic elements are constructed explicitly with Eichler transvections:
for an isotropic e and v orthogonal to e with q(v, v) even,

    t(x) = x + q(x, v) e - q(x, e) v - (q(v, v) / 2) q(x, e) e

is an integral isometry fixing e, and is parabolic whenever v is not
proportional to e modulo the radical of the form on e-perp.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

import mpmath as mp

from .errors import ContractError, DimensionMismatchError, PreconditionError
from .exact import integral_rows
from .lattice import QuadLattice, Vector
from .linalg_exact import (
    identity_matrix,
    inverse_unimodular,
    mat_eq,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    primitive_vector,
    transpose,
)
from .polynomials import (
    charpoly,
    evaluate_matrix,
    isolate_largest_root_above,
    squarefree_part,
    strip_cyclotomic_factors,
)

IntMatrix = tuple[tuple[int, ...], ...]

LOXODROMIC_EIGENVALUE_DPS = 50


@dataclass(frozen=True)
class LatticeIsometry:
    """An integer matrix preserving a lattice Gram matrix (columns = images)."""

    lattice: QuadLattice
    matrix: IntMatrix

    def __post_init__(self):
        m = tuple(map(tuple, integral_rows(self.matrix, "matrix")))
        object.__setattr__(self, "matrix", m)
        if not verify_isometry(self.lattice, m):
            raise PreconditionError("matrix does not preserve the Gram matrix")

    def apply(self, v) -> Vector:
        v = self.lattice.check_vector(v)
        return tuple(mat_vec([list(r) for r in self.matrix], list(v)))

    @property
    def det(self) -> int:
        from .linalg_exact import det_exact

        return det_exact([list(r) for r in self.matrix])

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice.to_json_dict(),
            "matrix": [list(row) for row in self.matrix],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LatticeIsometry":
        return cls(QuadLattice.from_json_dict(d["lattice"]), d["matrix"])


# -- classification payloads -------------------------------------------------

@dataclass(frozen=True)
class Elliptic:
    order: int
    tag = "Elliptic"


@dataclass(frozen=True)
class Parabolic:
    fixed_vector: Vector
    tag = "Parabolic"


@dataclass(frozen=True)
class Loxodromic:
    eigenvalue: mp.mpf
    expanding: tuple[float, ...]
    contracting: tuple[float, ...]
    tag = "Loxodromic"


@dataclass(frozen=True)
class OutsideSOPlus:
    det: int
    time_preserving: bool
    tag = "OutsideSOPlus"


IsometryClass = Elliptic | Parabolic | Loxodromic | OutsideSOPlus


# -- operations ---------------------------------------------------------------

def verify_isometry(lattice: QuadLattice, matrix) -> bool:
    """Exact check that matrix^T . gram . matrix == gram."""
    m = [list(row) for row in matrix]
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise DimensionMismatchError("matrix size does not match lattice rank")
    g = [list(row) for row in lattice.gram]
    return mat_eq(mat_mul(transpose(m), mat_mul(g, m)), g)


def compose(g: LatticeIsometry, h: LatticeIsometry) -> LatticeIsometry:
    """g after h (matrix product g.matrix @ h.matrix)."""
    if g.lattice != h.lattice:
        raise PreconditionError("isometries live on different lattices")
    prod = mat_mul([list(r) for r in g.matrix], [list(r) for r in h.matrix])
    return LatticeIsometry(g.lattice, tuple(tuple(r) for r in prod))


def power(g: LatticeIsometry, k: int) -> LatticeIsometry:
    if k >= 0:
        m = mat_pow([list(r) for r in g.matrix], k)
    else:
        m = mat_pow(inverse_unimodular([list(r) for r in g.matrix]), -k)
    return LatticeIsometry(g.lattice, tuple(tuple(r) for r in m))


def inverse(g: LatticeIsometry) -> LatticeIsometry:
    return power(g, -1)


def is_quasi_unipotent(g: LatticeIsometry) -> bool:
    """True iff every irreducible factor of the characteristic polynomial is cyclotomic."""
    rem, _ = strip_cyclotomic_factors(charpoly([list(r) for r in g.matrix]))
    return len(rem) == 1


def is_semisimple(g: LatticeIsometry) -> bool:
    """True iff rad(chi)(M) = 0, chi the charpoly and rad its squarefree part.

    rad(chi) has the roots of the minimal polynomial, each once, so it
    annihilates M exactly when the minimal polynomial is squarefree.  For
    an integer M, rad(chi) has integer coefficients (Gauss), so the Horner
    evaluation is exact and integral.
    """
    m = [list(r) for r in g.matrix]
    return not any(any(row) for row in evaluate_matrix(squarefree_part(charpoly(m)), m))


def is_time_preserving(g: LatticeIsometry) -> bool:
    """Does g preserve the two components of the positive cone?

    For signature (1, n), positive vectors u, v lie in the same component
    iff q(u, v) > 0; test with a fixed positive witness.
    """
    w = g.lattice.positive_witness
    return g.lattice.bbf(g.apply(w), w) > 0


def _outside_so_plus(g: LatticeIsometry) -> OutsideSOPlus | None:
    """The OutsideSOPlus verdict on g, or None when g lies in SO+(1, n)."""
    pos, neg = g.lattice.signature
    if pos != 1 or neg < 1:
        raise PreconditionError(f"classification needs signature (1, n), n >= 1; got {(pos, neg)}")
    det, time_ok = g.det, is_time_preserving(g)
    return None if det == 1 and time_ok else OutsideSOPlus(det=det, time_preserving=time_ok)


def _jordan_data(m, p) -> tuple[int, list[list[int]], list[list[int]]] | None:
    """(L, N, N^2) with N = m^L - I, or None when m is not quasi-unipotent.

    p is the characteristic polynomial of m.  L is the lcm of the indices
    of its cyclotomic factors, so m^L is unipotent.
    """
    rem, factors = strip_cyclotomic_factors(p)
    if len(rem) != 1:
        return None
    order = lcm(*factors)
    nil = mat_sub(mat_pow(m, order), identity_matrix(len(m)))
    return order, nil, mat_mul(nil, nil)


def _fixed_isotropic_vector(g: LatticeIsometry, nil, nil2) -> Vector:
    """Primitive, sign-fixed generator of the image of N^2 (a line when N^3 = 0)."""
    column = next((col for col in zip(*nil2) if any(col)), None)
    if column is None or any(map(any, mat_mul(nil, nil2))):
        raise ContractError("parabolic isometry with N^2 = 0 or N^3 != 0 (bug)")
    v = primitive_vector(column)
    if g.lattice.q(v) != 0 or g.apply(v) != v:
        raise ContractError("extracted fixed vector fails its invariants (bug)")
    return v


def _loxodromic_payload(g: LatticeIsometry, p) -> Loxodromic:
    """Eigenvalue > 1 and the two isotropic eigendirections; p is g's charpoly."""
    interval = isolate_largest_root_above(p, Fraction(1))
    if interval is None:
        raise ContractError("loxodromic isometry with no real eigenvalue > 1 (bug)")
    lo, hi = interval
    with mp.workdps(LOXODROMIC_EIGENVALUE_DPS):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(p)]
        mid = (mp.mpf(lo.numerator) / lo.denominator + mp.mpf(hi.numerator) / hi.denominator) / 2
        lam = +mp.findroot(lambda x: mp.polyval(coeffs, x), mid)
        expanding = _eigenvector(g, lam)
        contracting = _eigenvector(g, 1 / lam)
    scale = max(abs(x) for row in g.lattice.gram for x in row)
    for v in (expanding, contracting):
        qv = _float_q(g.lattice, v)
        if abs(qv) > 1e-9 * max(1.0, scale):
            raise ContractError("loxodromic eigendirection is not isotropic (bug)")
    return Loxodromic(eigenvalue=lam, expanding=expanding, contracting=contracting)


def _float_q(lattice: QuadLattice, v) -> float:
    gv = [sum(r * x for r, x in zip(row, v)) for row in lattice.gram]
    return float(sum(a * b for a, b in zip(v, gv)))


def _eigenvector(g: LatticeIsometry, lam: mp.mpf) -> tuple[float, ...]:
    """Null direction of (M - lam I) by high-precision elimination."""
    n = g.lattice.rank
    a = [[mp.mpf(x) for x in row] for row in g.matrix]
    for i in range(n):
        a[i][i] -= lam
    cols = list(range(n))
    row = 0
    pivots = []
    for col in range(n):
        piv = max(range(row, n), key=lambda r: abs(a[r][col]), default=None)
        if piv is None or abs(a[piv][col]) < mp.mpf(10) ** (-LOXODROMIC_EIGENVALUE_DPS + 8):
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in cols if c not in pivots]
    if not free:
        raise ContractError("no null direction at the computed eigenvalue (bug)")
    fc = free[0]
    v = [mp.mpf(0)] * n
    v[fc] = mp.mpf(1)
    for r, pc in enumerate(pivots):
        v[pc] = -a[r][fc]
    sup = max(abs(x) for x in v)
    v = [x / sup for x in v]
    lead = next(x for x in v if abs(x) > 1e-30)
    if lead < 0:
        v = [-x for x in v]
    return tuple(float(x) for x in v)


def classify(g: LatticeIsometry) -> IsometryClass:
    """Trichotomy of a verified integral isometry of a signature-(1, n) lattice.

    Returns Elliptic/Parabolic/Loxodromic for elements of SO+(1, n) and
    OutsideSOPlus(det, time_preserving) otherwise.
    """
    outside = _outside_so_plus(g)
    if outside is not None:
        return outside
    m = [list(r) for r in g.matrix]
    p = charpoly(m)
    jordan = _jordan_data(m, p)
    if jordan is None:
        # not quasi-unipotent: some eigenvalue is off the unit circle
        return _loxodromic_payload(g, p)
    order, nil, nil2 = jordan
    if not any(map(any, nil)):
        return Elliptic(order=order)
    return Parabolic(fixed_vector=_fixed_isotropic_vector(g, nil, nil2))


def eichler_transvection(lattice: QuadLattice, e, v) -> LatticeIsometry:
    """The integral transvection fixing the isotropic vector e (see module docs).

    Preconditions: q(e, e) = 0, q(e, v) = 0, and q(v, v) even so that the
    matrix is integral.
    """
    e = lattice.check_vector(e)
    v = lattice.check_vector(v)
    if lattice.q(e) != 0:
        raise PreconditionError("e must be isotropic")
    if lattice.bbf(e, v) != 0:
        raise PreconditionError("v must be orthogonal to e")
    qv = lattice.q(v)
    if qv % 2:
        raise PreconditionError("q(v, v) must be even for an integral transvection")
    n = lattice.rank
    ge = [sum(r * x for r, x in zip(row, e)) for row in lattice.gram]
    gv = [sum(r * x for r, x in zip(row, v)) for row in lattice.gram]
    half = qv // 2
    mat = [
        [
            (1 if i == j else 0) + gv[j] * e[i] - ge[j] * v[i] - half * ge[j] * e[i]
            for j in range(n)
        ]
        for i in range(n)
    ]
    t = LatticeIsometry(lattice, tuple(tuple(r) for r in mat))
    if t.apply(e) != e:
        raise ContractError("transvection does not fix e (bug)")
    return t


def limit_nef_class(g: LatticeIsometry, w) -> tuple[float, ...]:
    """Limit direction of g^i(w) for parabolic g and w in the positive cone.

    With N = g^L - I as in :func:`classify`, N^3 = 0 gives
    g^(kL) = I + k N + C(k, 2) N^2, and g fixes the image of N^2, so the
    direction of g^i(w) tends to that of N^2 w.  That vector is exact and
    checked to lie on the fixed line; the one float step is its division
    by the sup norm, signed to make the first nonzero coordinate positive.
    """
    w = [Fraction(x) for x in w]
    if len(w) != g.lattice.rank:
        raise DimensionMismatchError("w has wrong length")
    if sum(a * b for a, b in zip(w, mat_vec(g.lattice.gram, w))) <= 0:
        raise PreconditionError("w must lie in the open positive cone (q(w, w) > 0)")
    if next((x for x in w if x), 0) <= 0:
        raise PreconditionError("w must have positive first nonzero coordinate")
    outside = _outside_so_plus(g)
    m = [list(r) for r in g.matrix]
    jordan = None if outside else _jordan_data(m, charpoly(m))
    if jordan is None or not any(map(any, jordan[1])):
        tag = (outside or (Elliptic if jordan else Loxodromic)).tag
        raise PreconditionError(f"limit direction needs a parabolic isometry, got {tag}")
    v = _fixed_isotropic_vector(g, *jordan[1:])
    limit = mat_vec(jordan[2], w)
    if not any(limit):
        raise ContractError("N^2 w = 0 for w in the positive cone (bug)")
    if any(a * d != b * c for (a, b), (c, d) in combinations(zip(limit, v), 2)):
        raise ContractError("N^2 w is not parallel to the fixed vector (bug)")
    sup = max(map(abs, limit)) * (1 if next(x for x in limit if x) > 0 else -1)
    return tuple(float(x / sup) for x in limit)
