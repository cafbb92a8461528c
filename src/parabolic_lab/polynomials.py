"""Exact univariate polynomial arithmetic over Q.

Polynomials are tuples of Fractions in ascending degree order with no
trailing zeros (the zero polynomial is the empty tuple).  The module
supplies what the isometry layer needs done exactly: characteristic
polynomials (Faddeev-LeVerrier, in Python ints for integer matrices),
cyclotomic factor stripping, squarefree parts, and Sturm-chain root
isolation.  Its one long division, `_divmod_monic`, is by a monic
divisor, so it never divides: cyclotomic stripping runs it on cached
integer Phi_d, and the loxodromic eigenvectors on f.  The minimal polynomial
is the first relation `linalg_exact.kernel_basis` finds among powers of M.
Gcds, squarefree parts and Sturm chains come from one integer
pseudo-remainder, `_primitive_rem`, whose result is a positive multiple
of the Fraction remainder; largest-root isolation counts sign changes
along that chain and bisects, all in Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm

from .errors import ContractError, PreconditionError
from .linalg_exact import identity_matrix, kernel_basis, mat_mul

Poly = tuple[Fraction, ...]


def poly(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    return len(p) - 1


def _divmod_monic(p, q):
    """(quotient, remainder) of coefficient lists p by a monic q.

    q's leading coefficient is 1, so the loop only multiplies and
    subtracts: int coefficients stay ints, Fractions stay Fractions.
    The remainder is the low len(q) - 1 slots, trailing zeros kept.
    """
    rem, dq = list(p), len(q) - 1
    quo = [0] * max(len(p) - dq, 0)
    for shift in range(len(quo) - 1, -1, -1):
        f = rem[shift + dq]
        if f:
            quo[shift] = f
            for i in range(dq):
                rem[shift + i] -= f * q[i]
    return quo, rem[:dq]


def monic(p: Poly) -> Poly:
    if not p or p[-1] == 1:
        return p
    lead = p[-1]
    return tuple(c / lead for c in p)


def _primitive(p) -> list[int]:
    """p scaled to integers by its denominators' lcm, over their content (sign kept)."""
    p = [c if isinstance(c, int) else Fraction(c) for c in p]
    d = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (d // c.denominator) for c in p]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _primitive_rem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a positive multiple of the remainder of a by a nonzero b.

    Each pseudo-division step by sign(lead b) * b multiplies by |lead b|:
    Collins's primitive remainder sequence (J. ACM 14, 1967), signs kept.
    """
    lead, rem = abs(b[-1]), list(a)
    low = b[:-1] if b[-1] > 0 else [-c for c in b[:-1]]
    while rem and (len(rem) >= len(b) or not rem[-1]):
        f = rem.pop()
        if f:
            shift = len(rem) - len(low)
            rem = [lead * c for c in rem]
            for i, c in enumerate(low):
                rem[shift + i] -= f * c
    return _primitive(rem)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd of p and q, from the primitive remainder sequence in integers."""
    a, b = _primitive(p), _primitive(q)
    while b:
        a, b = b, _primitive_rem(a, b)
    return monic(poly(a))


def _squarefree_ints(p) -> list[int]:
    """Primitive p / gcd(p, p') with a positive lead ([] for p = 0), divided in integers:
    both are primitive, so it is exact by Gauss's lemma, and a remainder raises ContractError."""
    rem, quo = _primitive(p), []
    g = _primitive(poly_gcd(rem, [i * c for i, c in enumerate(rem)][1:])) or [1]
    while len(rem) >= len(g):
        f, r = divmod(rem.pop(), g[-1])
        quo.append(f)
        shift = len(rem) - len(g) + 1
        for i, c in enumerate(g[:-1]):
            rem[shift + i] -= f * c
        if r or (len(rem) < len(g) and any(rem)):
            raise ContractError("gcd(p, p') does not divide p exactly")
    return quo[::-1] if not quo or quo[0] > 0 else [-c for c in reversed(quo)]


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'): same roots, each with multiplicity one; monic."""
    return monic(poly(_squarefree_ints(p)))


def evaluate_matrix(p: Poly, m) -> list[list[Fraction]]:
    n = len(m)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    return acc


def charpoly(m) -> Poly:
    """Characteristic polynomial det(x I - M), monic, via Faddeev-LeVerrier.

    M is scaled once by the lcm D of its entries' denominators, so the
    recursion runs in Python ints and divides each trace by k exactly (a
    nonzero remainder is a bug and raises ContractError).  The coefficient
    of x^(n-k) for D M is D^k times the one for M.
    """
    n = len(m)
    entries = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in m]
    d = lcm(*(x.denominator for row in entries for x in row))
    mi = [[x.numerator * (d // x.denominator) for x in row] for row in entries]
    coeffs = [0] * n + [1]
    mk = [row[:] for row in mi]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ContractError(f"trace of M_{k} is not divisible by {k}")
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = mat_mul(mi, mk)
    return tuple(Fraction(coeffs[n - k], d**k) for k in range(n, -1, -1))


def minimal_polynomial(m) -> Poly:
    """Monic minimal polynomial: the first `kernel_basis` vector of I, M, ..., M^n.

    With M^k flattened into column k, the first free column is the first
    power that depends on the lower ones.  Nothing in the library calls it
    (`is_semisimple` tests rad(chi)(M) = 0); bench/tracer.py wraps it by name.
    """
    n = len(m)
    if not n:
        return poly([1])
    mf = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in m]
    powers = list(accumulate([mf] * n, mat_mul, initial=identity_matrix(n)))
    flat = [[pk[i][j] for pk in powers] for i in range(n) for j in range(n)]
    return monic(poly(kernel_basis(flat)[0]))


@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    result, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def _cyclotomic_ints(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d: x^d - 1 divided by Phi_e for every proper divisor e."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _divmod_monic(num, _cyclotomic_ints(e))[0]
    return tuple(num)


def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial (d >= 1)."""
    if d < 1:
        raise PreconditionError(f"cyclotomic index must be >= 1, got {d}")
    return poly(_cyclotomic_ints(d))


def cyclotomic_indices(max_phi: int) -> list[int]:
    """All d with euler_phi(d) <= max_phi (phi(d) >= sqrt(d/2) bounds d)."""
    bound = 2 * max_phi * max_phi + 2
    return [d for d in range(1, bound + 1) if euler_phi(d) <= max_phi]


@lru_cache(maxsize=None)
def _cyclotomic_table(max_phi: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(d, integer Phi_d) for every d with phi(d) <= max_phi, in increasing d."""
    return tuple((d, _cyclotomic_ints(d)) for d in cyclotomic_indices(max_phi))


def strip_cyclotomic_factors(p: Poly) -> tuple[Poly, dict[int, int]]:
    """Divide out every cyclotomic factor; return (monic remainder, {d: multiplicity}).

    Trial division by the integer Phi_d, in increasing d; each Phi_d is
    monic, so the loop never divides and integral coefficients stay ints.
    """
    found: dict[int, int] = {}
    rem = [c.numerator if c.denominator == 1 else c for c in monic(p)]
    for d, phi_d in _cyclotomic_table(max(degree(p), 1)):
        while len(rem) >= len(phi_d):
            quo, r = _divmod_monic(rem, phi_d)
            if any(r):
                break
            found[d] = found.get(d, 0) + 1
            rem = quo
    return poly(rem), found


def cauchy_root_bound(p: Poly) -> Fraction:
    """All complex roots of p lie strictly inside |z| <= bound."""
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_largest_root_above(p: Poly, lower: Fraction = Fraction(1)) -> tuple[Fraction, Fraction] | None:
    """Isolating interval (lo, hi] for the largest real root of p above `lower`.

    Returns None when there is no real root in (lower, cauchy bound].
    Bisection runs in Python ints on (a / den, b / den], den doubling with
    each halving; callers refine the interval numerically afterwards.

    The Sturm chain of the squarefree part is its primitive remainder
    sequence: each element is a positive multiple of the Fraction one, so
    every sign count is the same.  Once the root is alone in (lo, hi], the
    refinement to width 2^-80 needs only the squarefree part's sign at each
    midpoint, since that root is simple: it lies above a nonzero mid exactly
    when the signs at mid and hi differ, which covers a root at hi itself
    (sign 0 there); a root at mid moves hi onto it.
    """
    sqf = _squarefree_ints(p)
    chain = [c for c in (sqf, [i * c for i, c in enumerate(sqf)][1:]) if c]
    while len(chain) > 1 and (rem := _primitive_rem(chain[-2], chain[-1])):
        chain.append([-c for c in rem])

    def variations(num: int, den: int) -> int:
        signs = [s for s in (_homogeneous_sign(c, num, den) for c in chain) if s]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    lower, hi = Fraction(lower), cauchy_root_bound(p)
    den = lcm(lower.denominator, hi.denominator)
    a, b = lower.numerator * (den // lower.denominator), hi.numerator * (den // hi.denominator)
    va, vb = variations(a, den), variations(b, den)
    if va == vb:
        return None
    # first narrow to an interval holding exactly the largest root
    while va - vb > 1:
        mid, den, a, b = a + b, 2 * den, 2 * a, 2 * b
        vm = variations(mid, den)
        if vm > vb:
            a, va = mid, vm
        else:
            b, vb = mid, vm
    # then shrink until tight enough for numeric polishing
    sign_hi = _homogeneous_sign(sqf, b, den)
    while (b - a) << 80 > den:
        mid, den, a, b = a + b, 2 * den, 2 * a, 2 * b
        sign_mid = _homogeneous_sign(sqf, mid, den)
        if sign_mid and sign_mid != sign_hi:
            a = mid
        else:
            b, sign_hi = mid, sign_mid
    return Fraction(a, den), Fraction(b, den)


def _homogeneous_sign(coeffs: list[int], num: int, den: int) -> int:
    """Sign of p(num / den) for den > 0, from den^deg p(num / den) in integers."""
    acc, power = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        power *= den
        acc = acc * num + c * power
    return (acc > 0) - (acc < 0)
