"""Degree-form identities and the Hermitian rigidity check.

Two faces of the same quadratic-form calculus:

* the top-degree identity  integral(eta^(2n)) = c q(eta, eta)^n  and its
  polarized companion, K times a sum over all (2n)! permutations of
  paired q-products.  The permutation sum collapses to perfect matchings:

      sum_sigma prod_i q(eta_{sigma(2i-1)}, eta_{sigma(2i)})
          = 2^n n! haf(Q),   Q_ij = q(eta_i, eta_j),

  with haf the hafnian (sum over perfect matchings), which is how the
  polarized sum is computed, by the matching recursion memoized on the
  set of indices left; the permutation sum itself is kept only as a test
  oracle.  The constants c and K are configuration with default
  1; the ratio polarized/top is measured by tests, never hard-coded.

* the AM-GM rigidity statement for positive Hermitian forms: if
  Tr(H1 H2^-1)/n = 1 and det(H1 H2^-1) = 1 then H1 = H2.  The check
  implements the stability version: premises within tol force
  ||H1 - H2||_max <= C n sqrt(tol) ||H2||_max with C = 4 (empirical
  constant, exercised by tests, not proven).  `Counterexample` is
  reserved for that bound failing, which the underlying inequality
  forbids; returning it signals a numerical bug.

Positive-definiteness, traces and determinants go through Cholesky
factorizations rather than eigenvalue solvers to keep tolerances
analyzable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .lattice import QuadLattice

RIGIDITY_CONSTANT = 4.0
MAX_POLARIZED_VECTORS = 16  # the memoized hafnian keeps 1596 index sets at 2n = 16

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """A positive-definite Hermitian matrix (stand-in for a restricted Kaehler class),
    with finite entries and a determinant that is a positive finite float."""

    entries: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.entries, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise PreconditionError("Hermitian form must be a square matrix")
        if not np.isfinite(h).all():
            raise PreconditionError("Hermitian form entries must be finite")
        scale = max(1.0, float(np.max(np.abs(h))))
        if np.max(np.abs(h - h.conj().T)) > _HERMITIAN_TOL * scale:
            raise PreconditionError("matrix is not Hermitian")
        # entries near the largest float overflow here or in det; that is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            h = (h + h.conj().T) / 2
            h.setflags(write=False)
            object.__setattr__(self, "entries", h)
            try:
                det = self.det()
            except np.linalg.LinAlgError:
                raise PreconditionError("matrix is not positive definite") from None
        if not 0 < det < math.inf:
            raise PreconditionError(f"determinant {det:.3e} is not a positive finite float")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.entries)

    def det(self) -> float:
        diag = np.diag(self.cholesky())
        return float(np.prod(np.abs(diag)) ** 2)


@dataclass(frozen=True)
class FujikiStructure:
    """A lattice form together with the two positive rational constants."""

    lattice: QuadLattice
    n: int
    c: Fraction = Fraction(1)
    k: Fraction = Fraction(1)

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("n must be >= 1")
        if self.c <= 0 or self.k <= 0:
            raise PreconditionError("constants c and K must be positive")


def _q_value(lattice: QuadLattice, u, v):
    """Bilinear form allowing rational/float vectors; exact when inputs are exact."""
    exact = all(isinstance(x, (int, Fraction)) for x in u) and all(
        isinstance(x, (int, Fraction)) for x in v
    )
    if exact:
        gv = [sum(Fraction(r) * Fraction(x) for r, x in zip(row, v)) for row in lattice.gram]
        return sum(Fraction(a) * b for a, b in zip(u, gv))
    gv = [sum(r * float(x) for r, x in zip(row, v)) for row in lattice.gram]
    return sum(float(a) * b for a, b in zip(u, gv))


def fujiki_top(structure: FujikiStructure, eta):
    """c * q(eta, eta)^n."""
    if len(eta) != structure.lattice.rank:
        raise PreconditionError("eta has the wrong length")
    q = _q_value(structure.lattice, eta, eta)
    return structure.c * q**structure.n


def fujiki_polarized(structure: FujikiStructure, etas):
    """K * the (2n)!-permutation sum of paired q-products, as K 2^n n! haf(Q)."""
    etas = list(etas)
    n = structure.n
    if len(etas) != 2 * n:
        raise PreconditionError(f"need exactly {2 * n} vectors")
    if len(etas) > MAX_POLARIZED_VECTORS:
        raise PreconditionError(
            f"polarized sum limited to {MAX_POLARIZED_VECTORS} vectors"
        )
    lat = structure.lattice
    q = [[_q_value(lat, u, v) for v in etas] for u in etas]
    return structure.k * 2**n * math.factorial(n) * hafnian(q)


def hafnian(a):
    """Sum over perfect matchings of a symmetric matrix.

    Pairs the first remaining index with each later one and recurses on
    what is left, memoized on the tuple of remaining indices (the subset
    view of Bjorklund, SODA 2012): a 14 x 14 matrix has 609 such states
    where the plain recursion expands 135135 matchings.  Each state sums
    its terms in the same order as the plain recursion, so float results
    are unchanged and Fraction/int results stay exact.
    Odd dimension is an error; the empty matrix has hafnian 1.
    """
    rows = [list(r) for r in (a.tolist() if isinstance(a, np.ndarray) else a)]
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise PreconditionError("hafnian needs a square matrix")
    if m % 2:
        raise PreconditionError("hafnian needs even dimension")

    memo: dict[tuple[int, ...], object] = {(): 1}

    def rec(idx: tuple[int, ...]):
        if idx in memo:
            return memo[idx]
        first, rest = idx[0], idx[1:]
        total = 0
        for pos, j in enumerate(rest):
            sub = rest[:pos] + rest[pos + 1 :]
            total += rows[first][j] * rec(sub)
        memo[idx] = total
        return total

    return rec(tuple(range(m)))


def amgm_mixed_ratios(h1: HermitianForm, h2: HermitianForm) -> tuple[float, float]:
    """(Tr(H1 H2^-1)/n, det(H1 H2^-1)) through factorizations."""
    if h1.n != h2.n:
        raise PreconditionError("forms must have the same size")
    n = h1.n
    # Tr(H1 H2^-1) = Tr(L^-1 H1 L^-*) with H2 = L L*
    ell = h2.cholesky()
    x = np.linalg.solve(ell, h1.entries)
    y = np.linalg.solve(ell, x.conj().T)
    mean = float(np.trace(y).real) / n
    detratio = h1.det() / h2.det()
    return mean, detratio


class RigidityVerdict(enum.Enum):
    EQUAL = "Equal"
    PREMISE_VIOLATED = "PremiseViolated"
    COUNTEREXAMPLE = "Counterexample"


def amgm_rigidity_check(
    h1: HermitianForm, h2: HermitianForm, tol: float = 1e-9
) -> RigidityVerdict:
    """Rigidity: near-equal mean and determinant ratios force near-equal forms.

    Returns EQUAL when the premises hold within tol and the forms agree
    within the documented stability bound; PREMISE_VIOLATED when the
    ratios are off; COUNTEREXAMPLE only if the bound fails, which the
    AM-GM equality case rules out for positive-definite inputs.  tol must
    be positive and finite.
    """
    if not 0 < tol < math.inf:
        raise PreconditionError(f"tol must be positive and finite, got {tol}")
    mean, detratio = amgm_mixed_ratios(h1, h2)
    if abs(mean - 1) >= tol or abs(detratio - 1) >= tol:
        return RigidityVerdict.PREMISE_VIOLATED
    scale = float(np.max(np.abs(h2.entries)))
    bound = RIGIDITY_CONSTANT * h1.n * (tol**0.5) * max(scale, 1.0)
    if float(np.max(np.abs(h1.entries - h2.entries))) < bound:
        return RigidityVerdict.EQUAL
    return RigidityVerdict.COUNTEREXAMPLE
