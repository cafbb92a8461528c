"""Exact univariate polynomial arithmetic over Q.

Polynomials are tuples of Fractions in ascending degree order with no
trailing zeros (the zero polynomial is the empty tuple).  The module
supplies what the isometry layer needs done exactly: characteristic
polynomials (Faddeev-LeVerrier, in Python ints for integer matrices),
minimal polynomials (Krylov, behind `is_semisimple`), cyclotomic factor
stripping, squarefree parts, and Sturm-chain root counting.  Cyclotomic
stripping is integral and fraction-free: trial division by a cached
table of integer Phi_d, which are monic, so the loop never divides.
Largest-root isolation counts with the Sturm chain only until the root
is alone in its interval and then bisects on the sign of the squarefree
part, in integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import ContractError, PreconditionError
from .linalg_exact import mat_mul

Poly = tuple[Fraction, ...]


def poly(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    return len(p) - 1


def poly_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq, lead = degree(q), q[-1]
    while len(rem) - 1 >= dq and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        f = rem[-1] / lead
        quo[shift] = f
        for i, c in enumerate(q):
            rem[shift + i] -= f * c
        rem.pop()
    return poly(quo), poly(rem)


def poly_divides(q: Poly, p: Poly) -> bool:
    return not poly_divmod(p, q)[1]


def derivative(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def monic(p: Poly) -> Poly:
    if not p or p[-1] == 1:
        return p
    lead = p[-1]
    return tuple(c / lead for c in p)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = p, q
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'): same roots, each with multiplicity one."""
    if degree(p) < 1:
        return monic(p)
    g = poly_gcd(p, derivative(p))
    return monic(poly_divmod(p, g)[0])


def is_squarefree(p: Poly) -> bool:
    return degree(poly_gcd(p, derivative(p))) == 0


def evaluate(p: Poly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


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
    """Monic minimal polynomial via Krylov sequences, one basis vector at a time."""
    n = len(m)
    mf = [[Fraction(x) for x in row] for row in m]
    result: Poly = poly([1])
    for start in range(n):
        v = [Fraction(int(i == start)) for i in range(n)]
        krylov = [v]
        # echelon of collected vectors: rows with pivot bookkeeping
        ech: list[list[Fraction]] = []
        piv: list[int] = []
        combos: list[list[Fraction]] = []  # expresses ech rows in krylov coords
        while True:
            w = krylov[-1]
            reduced = list(w)
            combo = [Fraction(0)] * len(krylov)
            combo[-1] = Fraction(1)
            for row, p, cmb in zip(ech, piv, combos):
                f = reduced[p]
                if f:
                    reduced = [x - f * y for x, y in zip(reduced, row)]
                    combo = [
                        x - f * (cmb[i] if i < len(cmb) else 0)
                        for i, x in enumerate(combo)
                    ]
            pivot = next((i for i, x in enumerate(reduced) if x), None)
            if pivot is None:
                # 0 = sum combo[i] v_i with combo[-1] = 1, so combo itself is
                # the monic annihilator of this Krylov sequence
                ann = poly(combo)
                g = poly_gcd(result, ann)
                result = poly_divmod(poly_mul(result, ann), g)[0]
                break
            inv = 1 / reduced[pivot]
            ech.append([x * inv for x in reduced])
            piv.append(pivot)
            combos.append([x * inv for x in combo])
            krylov.append([sum(r * x for r, x in zip(row, w)) for row in mf])
        if degree(result) == n:
            break
    return monic(result)


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


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [poly(p), derivative(p)]
    while chain[-1]:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(poly_neg(rem))
    return [c for c in chain if c]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in (a, b], exactly.

    Works through the squarefree part: the Sturm counting theorem needs a
    squarefree polynomial once endpoints may coincide with (possibly
    multiple) roots.
    """
    if not p or degree(p) == 0:
        return 0
    chain = sturm_chain(squarefree_part(p))
    return _sign_variations(chain, Fraction(a)) - _sign_variations(chain, Fraction(b))


def cauchy_root_bound(p: Poly) -> Fraction:
    """All complex roots of p lie strictly inside |z| <= bound."""
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_largest_root_above(p: Poly, lower: Fraction = Fraction(1)) -> tuple[Fraction, Fraction] | None:
    """Isolating interval (lo, hi] for the largest real root of p above `lower`.

    Returns None when there is no real root in (lower, cauchy bound].
    Bisection keeps everything in exact rationals; callers refine the
    interval numerically afterwards.

    Sturm counts on the squarefree part isolate the root; the refinement
    to width 2^-80 then needs only the sign of that part at each
    midpoint, since its root in (lo, hi] is simple: the root lies above
    a nonzero mid exactly when the signs at mid and hi differ, which
    covers a root at hi itself (sign 0 there); a root at mid moves hi
    onto it.
    """
    sqf = squarefree_part(p)
    chain = sturm_chain(sqf)

    def roots_in(a: Fraction, b: Fraction) -> int:
        return _sign_variations(chain, a) - _sign_variations(chain, b)

    hi = cauchy_root_bound(p)
    if roots_in(lower, hi) == 0:
        return None
    lo = lower
    # first narrow to an interval holding exactly the largest root
    while roots_in(lo, hi) > 1:
        mid = (lo + hi) / 2
        if roots_in(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    # then shrink until tight enough for numeric polishing, in integers:
    # lo = a / den, hi = b / den, and den doubles with every halving
    den = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    scale = lcm(*(c.denominator for c in sqf))
    ints = [c.numerator * (scale // c.denominator) for c in sqf]
    sign_hi = _homogeneous_sign(ints, b, den)
    while (b - a) << 80 > den:
        mid, den, a, b = a + b, 2 * den, 2 * a, 2 * b
        sign_mid = _homogeneous_sign(ints, mid, den)
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
