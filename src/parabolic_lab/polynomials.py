"""Exact univariate polynomial arithmetic in Z[x].

Polynomials are tuples of Python ints in ascending degree order with no
trailing zeros (the zero polynomial is the empty tuple).  The matrix
kernels read M with `exact.integral_rows`, which turns integral entries
into ints and refuses rationals, so all that follows runs in ints:
characteristic polynomials (Faddeev-LeVerrier), cyclotomic factor
stripping, squarefree parts, and Sturm-chain root isolation.  Long
division by a monic divisor, `_divmod_monic`, never divides: cyclotomic
stripping runs it on cached integer Phi_d, and the loxodromic
eigenvectors on f.  The one other division loop is the exact one inside
`_squarefree_ints`.  Contents are divided out by `linalg_exact._primitive`.
The minimal polynomial is the first relation `linalg_exact.kernel_basis`
finds among powers of M.  Gcds, squarefree parts and Sturm chains come
from one integer pseudo-remainder, `_primitive_rem`, whose result is a
positive multiple of the rational remainder; largest-root isolation
counts sign changes along that chain until the root is alone, then
refines by quadratic interval refinement (secant-guided steps that fall
back to halving), all through `_homogeneous`.  The root bound and the
bracket's lower end may be rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import ContractError
from .exact import integral_rows
from .linalg_exact import _primitive, identity_matrix, kernel_basis, mat_mul, scaled_ints

Poly = tuple[int, ...]
ROOT_BITS = 200  # isolation width 2^-ROOT_BITS: keep >= 30 bits past a 50-digit mpf's ~170


def degree(p: Poly) -> int:
    return len(p) - 1


def _divmod_monic(p, q):
    """(quotient, remainder) of coefficient lists p by a monic q.

    q's leading coefficient is 1, so the loop only multiplies and
    subtracts: int coefficients stay ints.
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


def _squarefree_ints(p) -> list[int]:
    """Primitive p / gcd(p, p') with a positive lead ([] for p = 0), divided in integers: the gcd
    ends the primitive remainder sequence, so it is exact by Gauss's lemma (else ContractError)."""
    rem, quo = _primitive(p), []
    g, b = rem[:] or [1], _primitive([i * c for i, c in enumerate(rem)][1:])  # a copy: rem is popped
    while b:
        g, b = b, _primitive_rem(g, b)
    while len(rem) >= len(g):
        f, r = divmod(rem.pop(), g[-1])
        quo.append(f)
        shift = len(rem) - len(g) + 1
        for i, c in enumerate(g[:-1]):
            rem[shift + i] -= f * c
        if r or (len(rem) < len(g) and any(rem)):
            raise ContractError("gcd(p, p') does not divide p exactly")
    return quo[::-1] if not quo or quo[0] > 0 else [-c for c in reversed(quo)]


def charpoly(m) -> Poly:
    """Characteristic polynomial det(x I - M), monic, via Faddeev-LeVerrier.

    M is read by :func:`exact.integral_rows`, so the recursion runs in
    Python ints and divides each trace by k exactly (a nonzero remainder is
    a bug and raises ContractError).
    """
    mi = integral_rows(m, "charpoly")
    n = len(mi)
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
    return tuple(coeffs)


def minimal_polynomial(m) -> Poly:
    """Monic minimal polynomial: the first `kernel_basis` vector of I, M, ..., M^n.

    With M^k flattened into column k, the first free column is the first
    power that depends on the lower ones; M is integral, so that primitive
    relation is monic in Z[x] up to sign.  Nothing in the library calls it;
    bench/tracer.py wraps it by name.
    """
    mi = integral_rows(m, "minimal_polynomial")
    n = len(mi)
    if not n:
        return (1,)
    powers = list(accumulate([mi] * n, mat_mul, initial=identity_matrix(n)))
    v = kernel_basis([[pk[i][j] for pk in powers] for i in range(n) for j in range(n)])[0]
    v = v[: max(k for k, c in enumerate(v) if c) + 1]  # drop the higher powers' zeros
    return tuple(v[-1] * c for c in v)


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


def cyclotomic_indices(max_phi: int) -> list[int]:
    """All d with euler_phi(d) <= max_phi (phi(d) >= sqrt(d/2) bounds d)."""
    bound = 2 * max_phi * max_phi + 2
    return [d for d in range(1, bound + 1) if euler_phi(d) <= max_phi]


@lru_cache(maxsize=None)
def _cyclotomic_table(max_phi: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(d, integer Phi_d) for every d with phi(d) <= max_phi, in increasing d."""
    return tuple((d, _cyclotomic_ints(d)) for d in cyclotomic_indices(max_phi))


def strip_cyclotomic_factors(p: Poly) -> tuple[Poly, dict[int, int]]:
    """Divide p in Z[x] by every cyclotomic factor; return (quotient, {d: multiplicity}).

    Trial division by the integer Phi_d, in increasing d; each Phi_d is
    monic, so the loop never divides and the quotient keeps p's lead (1 for
    the charpoly that classify passes).
    """
    found: dict[int, int] = {}
    for d, phi_d in _cyclotomic_table(max(degree(p), 1)):
        while len(p) >= len(phi_d):
            quo, r = _divmod_monic(p, phi_d)
            if any(r):
                break
            found[d] = found.get(d, 0) + 1
            p = quo
    return tuple(p), found


def cauchy_root_bound(p: Poly) -> Fraction:
    """All complex roots z of p satisfy |z| < bound."""
    if degree(p) < 1:
        return Fraction(1)
    return 1 + Fraction(max(map(abs, p[:-1])), abs(p[-1]))


def isolate_largest_root_above(p: Poly, lower: Fraction = Fraction(1)) -> tuple[Fraction, Fraction] | None:
    """Interval (lo, hi] of width <= 2^-ROOT_BITS holding the largest real root of p above `lower`.

    Returns None when there is no real root in (lower, cauchy bound].
    The interval is kept in Python ints as (a / den, b / den]; every
    refinement multiplies den by a power of two and leaves b - a as it
    is, so den is a power of two when both ends start integral.

    The Sturm chain of the squarefree part is its primitive remainder
    sequence: each element is a positive multiple of the rational one, so
    every sign count is the same.  Bisection on those counts narrows
    (lo, hi] until it holds the root alone.  From there only the
    squarefree part's sign is needed: that part has a positive lead, and
    the root is simple and the largest, so it lies above a point of
    (lo, hi) exactly when the part is negative there.

    Halving would take k more steps, k read off the bit lengths.  Quadratic
    interval refinement (J. Abbott, ACM Commun. Comput. Algebra 48(1),
    2014; Kerber and Sagraloff, ISSAC 2011) finds the same cell of that
    grid: the secant through the end values picks one of 2^s subcells,
    and the signs at its two ends confirm it (s doubles) or not (s
    halves), with one halving step at s = 1.  The sign test is the
    halving's, so a root on a grid point still ends at hi, and the result
    is the bisection's to the last bit in about 30 evaluations, not 200.
    """
    sqf = _squarefree_ints(p)
    chain = [c for c in (sqf, [i * c for i, c in enumerate(sqf)][1:]) if c]
    while len(chain) > 1 and (rem := _primitive_rem(chain[-2], chain[-1])):
        chain.append([-c for c in rem])

    def variations(num: int, den: int) -> int:
        vals = [h for h in (_homogeneous(c, num, den) for c in chain) if h]
        return sum((x > 0) != (y > 0) for x, y in zip(vals, vals[1:]))

    (a, b), den = scaled_ints((lower, cauchy_root_bound(p)))
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
    # then shrink to width 2^-ROOT_BITS: find the cell that k halvings would reach, on their grid
    w, deg, s = b - a, len(sqf) - 1, 1
    k = (((w << ROOT_BITS) - 1) // den).bit_length()
    fa, fb = _homogeneous(sqf, a, den), _homogeneous(sqf, b, den)
    while k:
        s = min(s, k)
        if s == 1:
            mid, den, a, b, fa, fb = a + b, 2 * den, 2 * a, 2 * b, fa << deg, fb << deg
            fm = _homogeneous(sqf, mid, den)
            if fm < 0:
                a, fa = mid, fm
            else:
                b, fb = mid, fm
            k, s = k - 1, 2
            continue
        # the secant through (a, fa) and (b, fb), fa <= 0 <= fb, picks subcell m of 2^s; the
        # signs at its ends confirm the pick (s doubles) or not (s halves, the cell stays)
        last = (1 << s) - 1
        m = (-fa << s) // (fb - fa) if fb else last
        lo, sub = (a << s) + m * w, den << s
        flo = _homogeneous(sqf, lo, sub) if m else fa << deg * s
        if m and flo >= 0:
            s //= 2
            continue
        fhi = _homogeneous(sqf, lo + w, sub) if m < last else fb << deg * s
        if fhi < 0:
            s //= 2
            continue
        a, b, den, fa, fb, k, s = lo, lo + w, sub, flo, fhi, k - s, 2 * s
    return Fraction(a, den), Fraction(b, den)


def _homogeneous(coeffs: list[int], num: int, den: int) -> int:
    """den^deg * p(num / den) in integers, deg = len(coeffs) - 1 (trailing zeros count)."""
    acc, power = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        power *= den
        acc = acc * num + c * power
    return acc
