"""Output checks that share no kernel with the library under test.

Every check here is written from the definitions (matrix powers, closed
forms, an independently written Hermite normal form, direct polynomial
evaluation) and uses only the standard library, numpy and mpmath.  None
of them calls a parabolic_lab function, so a faster but wrong kernel
cannot vouch for itself.  A failed check raises :class:`CheckFailure`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

import mpmath as mp
import numpy as np

ON_SURFACE_TOL = 1e-10
LIMIT_TOL = 1e-9
EIGEN_DET_REL = 1e-30


class CheckFailure(AssertionError):
    """A job's output contradicts an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# -- integer matrices ---------------------------------------------------------

def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matpow(a, k: int):
    out = identity(len(a))
    base = [list(r) for r in a]
    while k:
        if k & 1:
            out = matmul(out, base)
        base = matmul(base, base)
        k >>= 1
    return out


def form(gram, u, v) -> int:
    return sum(x * y for x, y in zip(u, matvec(gram, v)))


def det_bareiss(a) -> int:
    """Fraction-free Gaussian elimination (Bareiss, 1968)."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def sup_direction(v) -> list[float]:
    """v / max|v_i|, signed so that the first nonzero entry is positive."""
    top = max(abs(x) for x in v)
    out = [float(Fraction(x) / top) for x in v]
    if next(x for x in out if x) < 0:
        out = [-x for x in out]
    return out


# -- isometry classification ----------------------------------------------------

def check_classification(gram, matrix, witness, tag: str, payload: dict) -> None:
    """Verify a trichotomy verdict on an integral isometry from first principles.

    `witness` is a positive vector (q > 0) with positive first nonzero entry;
    `payload` holds the verdict's data: "order" (Elliptic), "fixed_vector"
    and "limit_direction" (Parabolic), "eigenvalue" (Loxodromic), "det" and
    "time_preserving" (OutsideSOPlus).
    """
    m = [list(r) for r in matrix]
    n = len(m)
    if tag == "Elliptic":
        order = payload["order"]
        require(order >= 1, f"elliptic order {order} < 1")
        require(matpow(m, order) == identity(n), f"M^{order} != I")
        for p in prime_factors(order):
            require(matpow(m, order // p) != identity(n), f"order {order} is not minimal")
    elif tag == "Parabolic":
        f = list(payload["fixed_vector"])
        g = 0
        for x in f:
            g = gcd(g, x)
        require(g == 1, f"fixed vector {f} is not primitive")
        require(form(gram, f, f) == 0, f"fixed vector {f} is not isotropic")
        require(matvec(m, f) == f, f"fixed vector {f} is not fixed")
        limit = payload.get("limit_direction")
        require(limit is not None, "parabolic verdict without a limit direction")
        target = sup_direction(f)
        gap = max(abs(a - b) for a, b in zip(limit, target))
        require(gap < LIMIT_TOL, f"limit direction misses the fixed vector by {gap:.2e}")
    elif tag == "Loxodromic":
        lam = payload["eigenvalue"]
        with mp.workdps(60):
            lam = mp.mpf(lam)
            require(lam > 1, f"loxodromic eigenvalue {lam} is not > 1")
            shifted = mp.matrix(m) - lam * mp.eye(n)
            hadamard = prod(
                mp.sqrt(sum(shifted[i, j] ** 2 for j in range(n))) for i in range(n)
            )
            residual = abs(mp.det(shifted))
            require(
                residual <= EIGEN_DET_REL * hadamard,
                f"det(M - lambda I) = {mp.nstr(residual, 5)} is not ~0",
            )
    elif tag == "OutsideSOPlus":
        det = det_bareiss(m)
        time_ok = form(gram, matvec(m, witness), witness) > 0
        require(
            det == payload["det"] and time_ok == payload["time_preserving"],
            "OutsideSOPlus payload disagrees with det / time orientation",
        )
        require(det != 1 or not time_ok, "element of SO+ reported as OutsideSOPlus")
    else:
        raise CheckFailure(f"unknown class tag {tag!r}")


def check_seed_scan(a_sq: int, big_n: int, box: int, found) -> None:
    """Closed form of the scan on [[a^2,0,1],[0,-2N,0],[1,0,0]] with y = (0,0,1).

    v is orthogonal to y iff v_0 = 0, and then q(v) = -2N v_1^2, so the
    negatives in the box are exactly (0, b, c) with b != 0.
    """
    want = sorted(
        ((0, b, c), -2 * big_n * b * b)
        for b in range(-box, box + 1)
        if b
        for c in range(-box, box + 1)
    )
    got = sorted((tuple(v), q) for v, q in found)
    require(got == want, f"seed scan a^2={a_sq} N={big_n}: {len(got)} hits, expected {len(want)}")


# -- rational hulls -------------------------------------------------------------

def hermite_rows(rows) -> list[list[int]]:
    """Row Hermite normal form: positive pivots, entries above a pivot in [0, pivot)."""
    m = [list(r) for r in rows if any(r)]
    out = []
    cols = len(m[0]) if m else 0
    for col in range(cols):
        live = [r for r in m if r[col]]
        if not live:
            continue
        rest = [r for r in m if not r[col]]
        # Euclid on the column: repeatedly reduce by the smallest entry
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            nxt = [piv]
            for r in live[1:]:
                q = r[col] // piv[col]
                r = [x - q * y for x, y in zip(r, piv)]
                (nxt if r[col] else rest).append(r)
            live = nxt
        piv = live[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
        m = [r for r in rest if any(r)]
    for i, piv in enumerate(out):
        col = next(j for j, x in enumerate(piv) if x)
        for k in range(i):
            q = out[k][col] // piv[col]
            if q:
                out[k] = [x - q * y for x, y in zip(out[k], piv)]
    return out


def check_hull(n: int, planted_rows, relation_basis, dimension: int) -> None:
    want = hermite_rows(planted_rows) if planted_rows else []
    got = [list(r) for r in relation_basis]
    require(got == want, f"relation basis {got} != planted HNF {want}")
    require(dimension == n - len(want), f"dimension {dimension} != {n - len(want)}")


# -- hafnians -------------------------------------------------------------------

def double_factorial_odd(m: int) -> int:
    """(m - 1)!! for even m: the number of perfect matchings of m points."""
    return prod(range(m - 1, 0, -2))


def block_hafnian(block) -> object:
    """Hafnian of a 2x2 or 4x4 symmetric block, written out by hand."""
    if len(block) == 2:
        return block[0][1]
    b = block
    return b[0][1] * b[2][3] + b[0][2] * b[1][3] + b[0][3] * b[1][2]


def expected_hafnian(spec) -> object:
    """Closed form for the generator's two matrix families.

    ("rank1", v): haf(v v^T) = (2n-1)!! prod(v) (the diagonal never enters);
    ("blocks", blocks): a permuted block-diagonal matrix has the product of
    its blocks' hafnians.
    """
    family, data = spec
    if family == "rank1":
        return double_factorial_odd(len(data)) * prod(data)
    return prod(block_hafnian(b) for b in data)


def check_hafnian(spec, value) -> None:
    want = expected_hafnian(spec)
    require(value == want, f"hafnian {value} != closed form {want}")


# -- AM-GM rigidity -------------------------------------------------------------

def expected_rigidity(h1: np.ndarray, h2: np.ndarray, tol: float = 1e-9) -> set[str]:
    """Verdicts consistent with the spectrum of H2^-1 H1 (numpy eigvals)."""
    if np.array_equal(h1, h2):
        return {"Equal"}
    lam = np.linalg.eigvals(np.linalg.solve(h2, h1))
    mean = float(np.mean(lam).real)
    det = float(np.prod(lam).real)
    margin = max(abs(mean - 1), abs(det - 1))
    if margin > 100 * tol:
        return {"PremiseViolated"}
    return {"PremiseViolated", "Equal"}


def check_rigidity(h1, h2, verdict: str) -> None:
    allowed = expected_rigidity(h1, h2)
    require(verdict in allowed, f"rigidity verdict {verdict} not in {sorted(allowed)}")


# -- the (2,2,2) surface --------------------------------------------------------

def surface_value(coeffs: np.ndarray, x, y, z) -> complex:
    """F = sum c[i,j,k] x0^(2-i) x1^i y0^(2-j) y1^j z0^(2-k) z1^k."""
    def mono(pair):
        c0, c1 = pair
        return np.array([c0 * c0, c0 * c1, c1 * c1])

    return complex(np.einsum("ijk,i,j,k->", coeffs, mono(x), mono(y), mono(z)))


def check_surface_point(coeffs, point, base_axis: str | None = None, base=None) -> None:
    pairs = (point.x, point.y, point.z)
    for pair in pairs:
        require(abs(max(abs(pair[0]), abs(pair[1])) - 1) < 1e-12, f"pair {pair} not normalized")
    res = abs(surface_value(coeffs, *pairs))
    require(res < ON_SURFACE_TOL, f"point off the surface: |F| = {res:.3e}")
    if base_axis is not None:
        c0, c1 = getattr(point, base_axis)
        d0, d1 = base
        require(abs(c1 * d0 - c0 * d1) < 1e-12, "fiber point left its fiber")
