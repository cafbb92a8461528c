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
* off that branch the stripping leaves f, the minimal polynomial of
  lambda and 1/lambda (a Salem number or a quadratic unit; McMullen,
  *J. reine angew. Math.* 545, 2002): lambda is isolated and polished on
  f, and both eigendirections come from one column v(x) of adj(x I - M)
  in Z[x]/(f), certified by M v = x v and q(v, v) = 0 mod f.

Each isometry is classified once, on first use; :func:`classify` and
:func:`limit_nef_class` both read the verdict it keeps.

Floating point only ever appears when a loxodromic payload is rounded,
never in the classification logic or its certificates, so spectra close
to the unit circle cannot be misclassified and an exact 0 prints as 0.0.

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
from functools import cached_property
from itertools import combinations, product
from math import lcm
from operator import mul

import mpmath as mp

from .errors import ContractError, DimensionMismatchError, PreconditionError
from .exact import integral_rows
from .lattice import QuadLattice, Vector
from .linalg_exact import (
    det_exact,
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
    _divmod_monic,
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

    @cached_property
    def _trichotomy(self) -> tuple[IsometryClass, list[list[int]] | None]:
        """(:func:`classify`'s verdict, N^2 if Parabolic else None); a raise caches nothing."""
        pos, neg = self.lattice.signature
        if pos != 1 or neg < 1:
            raise PreconditionError(f"classification needs signature (1, n), n >= 1; got {(pos, neg)}")
        det, time_ok = self.det, is_time_preserving(self)
        if det != 1 or not time_ok:
            return OutsideSOPlus(det=det, time_preserving=time_ok), None
        p = charpoly(self.matrix)
        rem, factors = strip_cyclotomic_factors(p)
        if len(rem) != 1:
            # not quasi-unipotent: some eigenvalue is off the unit circle
            return _loxodromic_payload(self, p, rem), None
        order = lcm(*factors)
        nil = mat_sub(mat_pow(self.matrix, order), identity_matrix(len(self.matrix)))
        if not any(map(any, nil)):
            return Elliptic(order=order), None
        nil2 = mat_mul(nil, nil)
        column = next((col for col in zip(*nil2) if any(col)), None)
        if column is None or any(map(any, mat_mul(nil, nil2))):
            raise ContractError("parabolic isometry with N^2 = 0 or N^3 != 0 (bug)")
        v = primitive_vector(column)  # the sign-fixed generator of the image of N^2
        if self.lattice.q(v) != 0 or self.apply(v) != v:
            raise ContractError("extracted fixed vector fails its invariants (bug)")
        return Parabolic(fixed_vector=v), nil2

    def apply(self, v) -> Vector:
        v = self.lattice.check_vector(v)
        return tuple(mat_vec(self.matrix, v))

    @property
    def det(self) -> int:
        return det_exact(self.matrix)

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice.to_json_dict(),
            "matrix": [list(row) for row in self.matrix],
        }


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
    return LatticeIsometry(g.lattice, mat_mul(g.matrix, h.matrix))


def power(g: LatticeIsometry, k: int) -> LatticeIsometry:
    m = g.matrix if k >= 0 else inverse_unimodular(g.matrix)
    return LatticeIsometry(g.lattice, mat_pow(m, abs(k)))


def inverse(g: LatticeIsometry) -> LatticeIsometry:
    return power(g, -1)


def is_semisimple(g: LatticeIsometry) -> bool:
    """True iff rad(chi)(M) = 0, chi the charpoly and rad its squarefree part.

    rad(chi) has the roots of the minimal polynomial, each once, so it
    annihilates M exactly when the minimal polynomial is squarefree.  For
    an integer M, rad(chi) has integer coefficients (Gauss), so the Horner
    evaluation is exact and integral.
    """
    return not any(map(any, evaluate_matrix(squarefree_part(charpoly(g.matrix)), g.matrix)))


def is_time_preserving(g: LatticeIsometry) -> bool:
    """Does g preserve the two components of the positive cone?

    For signature (1, n), positive vectors u, v lie in the same component
    iff q(u, v) > 0; test with a fixed positive witness.
    """
    w = g.lattice.positive_witness
    return g.lattice.bbf(g.apply(w), w) > 0


def _loxodromic_payload(g: LatticeIsometry, p, f) -> Loxodromic:
    """Eigenvalue > 1 and the two isotropic eigendirections, read off f.

    p is g's charpoly and f its non-cyclotomic factor, whose roots include
    lambda and 1/lambda: the isolation and polish run on f, and one exact
    v(x) mod f (:func:`_eigenvector_mod_f`) is rounded at both roots.
    """
    interval = isolate_largest_root_above(f, Fraction(1))
    if interval is None:
        raise ContractError("loxodromic isometry with no real eigenvalue > 1 (bug)")
    fi = [int(x) for x in f]
    v = _eigenvector_mod_f(g, p, fi)
    lead = next(i for i, vi in enumerate(v) if any(vi))
    with mp.workdps(LOXODROMIC_EIGENVALUE_DPS):
        mid = sum(mp.mpf(end.numerator) / end.denominator for end in interval) / 2
        lam = +mp.findroot(lambda x: mp.polyval(fi[::-1], x), mid)
        directions = []
        for x in (lam, 1 / lam):
            vals = [mp.polyval(vi[::-1], x) for vi in v]
            scale = max(map(abs, vals)) * (1 if vals[lead] > 0 else -1)
            directions.append(tuple(float(y / scale) for y in vals))
    return Loxodromic(lam, *directions)


def _eigenvector_mod_f(g: LatticeIsometry, p, f: list[int]) -> list[list[int]]:
    """The first column of adj(x I - M) that is not 0 mod f, as n polynomials mod f.

    Column j is sum w_k x^k, w_(n-1) = e_j, w_(k-1) = M w_k + p_k e_j
    (Faddeev-LeVerrier).  For an irreducible f it is then not 0 at any root
    r of f, so it spans ker(M - r I) when r is simple.  Certified exactly:
    M v = x v and q(v, v) = 0 mod f.
    """
    m, n, c = g.matrix, len(g.matrix), [int(x) for x in p]
    for j in range(n):
        ws = [[int(i == j) for i in range(n)]]
        for k in range(n - 1, 0, -1):
            ws.append(mat_vec(m, ws[-1]))
            ws[-1][j] += c[k]
        v = [_divmod_monic(coeffs[::-1], f)[1] for coeffs in zip(*ws)]
        if any(map(any, v)):
            break
    else:
        raise ContractError("adj(x I - M) vanishes mod f (bug)")
    cols = [list(col) for col in zip(*v)]  # cols[k] is the coefficient vector of x^k
    x_cols = [[0] * n] + cols[:-1]  # x v(x), before x^deg f is reduced
    if any(mat_vec(m, col) != [a - fk * b for a, b in zip(xc, cols[-1])]
           for col, xc, fk in zip(cols, x_cols, f)):
        raise ContractError("M v(x) != x v(x) mod f (bug)")
    g_cols = [mat_vec(g.lattice.gram, col) for col in cols]
    qvv = [0] * (2 * len(cols) - 1)
    for s, t in product(range(len(cols)), repeat=2):
        qvv[s + t] += sum(map(mul, cols[s], g_cols[t]))
    if any(_divmod_monic(qvv, f)[1]):
        raise ContractError("q(v(x), v(x)) != 0 mod f (bug)")
    return v


def classify(g: LatticeIsometry) -> IsometryClass:
    """Trichotomy of a verified integral isometry of a signature-(1, n) lattice.

    Returns Elliptic/Parabolic/Loxodromic for elements of SO+(1, n) and
    OutsideSOPlus(det, time_preserving) otherwise.  The verdict is computed
    once per isometry and shared with :func:`limit_nef_class`.
    """
    return g._trichotomy[0]


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
    t = LatticeIsometry(lattice, mat)
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
    cls, nil2 = g._trichotomy
    if nil2 is None:
        raise PreconditionError(f"limit direction needs a parabolic isometry, got {cls.tag}")
    v = cls.fixed_vector
    limit = mat_vec(nil2, w)
    if not any(limit):
        raise ContractError("N^2 w = 0 for w in the positive cone (bug)")
    if any(a * d != b * c for (a, b), (c, d) in combinations(zip(limit, v), 2)):
        raise ContractError("N^2 w is not parallel to the fixed vector (bug)")
    sup = max(map(abs, limit)) * (1 if next(x for x in limit if x) > 0 else -1)
    return tuple(float(x / sup) for x in limit)
