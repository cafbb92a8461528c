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
  *J. reine angew. Math.* 545, 2002): lambda is bracketed on f by integer
  Sturm isolation and quadratic interval refinement, and both
  eigendirections come from one column v(x) of adj(x I - M) in Z[x]/(f),
  certified by M v = x v and q(v, v) = 0 mod f.

Each isometry is classified once, on first use; :func:`classify` and
:func:`limit_nef_class` both read the verdict it keeps.  What depends on
the charpoly alone (f, the order L, lambda's bracket and lambda, all
conjugacy invariants) is computed once per distinct charpoly and kept in
a memo of SPECTRUM_MEMO entries, so conjugate and inverse words share it;
det is read off the charpoly.

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
from functools import cached_property, lru_cache
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
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    primitive_vector,
    transpose,
)
from .polynomials import (
    Poly,
    _divmod_monic,
    _homogeneous,
    charpoly,
    isolate_largest_root_above,
    strip_cyclotomic_factors,
)

IntMatrix = tuple[tuple[int, ...], ...]

LOXODROMIC_EIGENVALUE_DPS = 50
SPECTRUM_MEMO = 256  # distinct charpolys whose _spectrum is kept


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
        p = charpoly(self.matrix)
        det, time_ok = (-1) ** (len(p) - 1) * p[0], is_time_preserving(self)  # det = (-1)^n p(0)
        if det != 1 or not time_ok:
            return OutsideSOPlus(det=det, time_preserving=time_ok), None
        f, order, mid, lam = _spectrum(p)
        if order is None:
            # not quasi-unipotent: some eigenvalue is off the unit circle
            return _loxodromic_payload(self, p, f, mid, lam), None
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
    return mat_mul(transpose(m), mat_mul(g, m)) == g


def compose(g: LatticeIsometry, h: LatticeIsometry) -> LatticeIsometry:
    """g after h (matrix product g.matrix @ h.matrix)."""
    if g.lattice != h.lattice:
        raise PreconditionError("isometries live on different lattices")
    return LatticeIsometry(g.lattice, mat_mul(g.matrix, h.matrix))


def power(g: LatticeIsometry, k: int) -> LatticeIsometry:
    """g^k.  For k < 0, M^T G M = G gives M^-1 = G^-1 M^T G.  With the
    lattice's cached D = d G^-1 (G and D symmetric), d M^-1 = D M^T G is
    formed as the transpose of (G M) D, whose left factors G and G M are
    sparse where D is not (`mat_mul` skips their zeros), then divided exactly by d."""
    m = g.matrix
    if k < 0:
        scaled_ginv, d = g.lattice.scaled_gram_inverse
        dinv = transpose(mat_mul(mat_mul(g.lattice.gram, m), scaled_ginv))
        if any(x % d for row in dinv for x in row):
            raise ContractError("G^-1 M^T G is not integral (bug)")
        m = [[x // d for x in row] for row in dinv]
    return LatticeIsometry(g.lattice, mat_pow(m, abs(k)))


def inverse(g: LatticeIsometry) -> LatticeIsometry:
    return power(g, -1)


def is_time_preserving(g: LatticeIsometry) -> bool:
    """Does g preserve the two components of the positive cone?

    For signature (1, n), positive vectors u, v lie in the same component
    iff q(u, v) > 0; test with a fixed positive witness.
    """
    w = g.lattice.positive_witness
    return g.lattice.bbf(g.apply(w), w) > 0


@lru_cache(maxsize=SPECTRUM_MEMO)
def _spectrum(p: Poly) -> tuple[Poly, int | None, tuple[int, int] | None, mp.mpf | None]:
    """(f, L, (num, den), lambda): what the verdict reads off the charpoly p alone.

    f is p stripped of its cyclotomic factors.  If f = 1, L is the lcm of their
    indices and the rest is None; else L is None, num / den is the midpoint of
    f's isolating interval above 1 and lambda that midpoint as an mpf.
    Conjugate and inverse words share p, so this runs once per distinct p.
    """
    f, factors = strip_cyclotomic_factors(p)
    if len(f) == 1:
        return f, lcm(*factors), None, None
    interval = isolate_largest_root_above(f)
    if interval is None:
        raise ContractError("loxodromic isometry with no real eigenvalue > 1 (bug)")
    num, den = (sum(interval) / 2).as_integer_ratio()
    with mp.workdps(LOXODROMIC_EIGENVALUE_DPS):
        lam = mp.mpf(num) / den  # f is monic, so den is a power of two: one rounding
    return f, None, (num, den), lam


def _loxodromic_payload(g: LatticeIsometry, p, f, mid: tuple[int, int], lam: mp.mpf) -> Loxodromic:
    """lambda and the two isotropic eigendirections, read off f.

    p is g's charpoly and f its non-cyclotomic factor, whose roots include
    lambda and 1/lambda; mid = (num, den) is lambda's bracket midpoint from
    :func:`_spectrum`, where one exact v(x) mod f (:func:`_eigenvector_mod_f`)
    is evaluated in ints.
    """
    num, den = mid
    v = _eigenvector_mod_f(g, p, f)
    directions = [_sup_direction([_homogeneous(vi, x, y) for vi in v])
                  for x, y in ((num, den), (den, num))]  # den^k v(lambda), num^k v(1 / lambda)
    return Loxodromic(lam, *directions)


def _sup_direction(vals: list[int]) -> tuple[float, ...]:
    """vals over its sup norm, signed so the first nonzero entry is positive: the sign goes on
    the numerators and the sup stays positive, so an exact 0 is 0 / sup = 0.0, never -0.0."""
    sign, sup = (1 if next(filter(None, vals)) > 0 else -1), max(map(abs, vals))
    return tuple(sign * x / sup for x in vals)


def _eigenvector_mod_f(g: LatticeIsometry, p, f) -> list[list[int]]:
    """The first column of adj(x I - M) that is not 0 mod f, as n polynomials mod f.

    Column j is sum w_k x^k, w_(n-1) = e_j, w_(k-1) = M w_k + p_k e_j
    (Faddeev-LeVerrier).  For an irreducible f it is then not 0 at any root
    r of f, so it spans ker(M - r I) when r is simple.  Certified exactly:
    M v = x v and q(v, v) = 0 mod f.
    """
    m, n = g.matrix, len(g.matrix)
    for j in range(n):
        ws = [[int(i == j) for i in range(n)]]
        for k in range(n - 1, 0, -1):
            ws.append(mat_vec(m, ws[-1]))
            ws[-1][j] += p[k]
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
    ge, gv = mat_vec(lattice.gram, e), mat_vec(lattice.gram, v)
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
    w is read by the lattice's `check_vector`, so it must be integral.
    """
    w = g.lattice.check_vector(w)
    if g.lattice.q(w) <= 0:
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
    return _sup_direction(limit)
