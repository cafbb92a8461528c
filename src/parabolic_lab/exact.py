"""Exact arithmetic in the ring Q[sqrt(2), sqrt(3), ...].

A :class:`QuadExpr` is a finite sum ``sum_d c_d * sqrt(d)`` with rational
coefficients ``c_d`` and squarefree positive integers ``d`` (``d = 1`` is the
rational part).  Sums and products of such values stay in the ring, which is
all the translation-vector and coefficient-family machinery needs; division
is supported by rationals only.

The module also provides a small expression parser so algebraic inputs such
as ``"2*sqrt2"`` or ``"(sqrt5-1)/2"`` can be entered exactly on a command
line.  Grammar (whitespace ignored)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*' unary) | ('/' number))*
    unary  := '-' unary | atom
    atom   := number | 'sqrt' digits | '(' expr ')'
    number := digits ('/' digits)? | decimal literal

Decimal literals are converted exactly (``0.25`` means 1/4, not a float).
The radicand of ``sqrt`` lies in [1, 10^12], since its squarefree part
is found by trial division up to its square root.  A radicand outside,
a numeral past the interpreter's digit limit (4300 by default) and
nesting past its recursion limit are ParseErrors.

:func:`integral` and :func:`integral_rows` are the one reader of integer
data (Gram matrices, vectors, isometries, LLL/HNF rows, integer options
and the seed), so every integral input obeys one policy.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from math import gcd

import mpmath as mp

from .errors import PreconditionError

Rational = int | Fraction


class ParseError(ValueError):
    """Raised when an expression string cannot be parsed."""


_INTEGER = re.compile(r"-?[0-9]+")


def is_number(x) -> bool:
    """Is x a JSON number (an int or a float, not a bool)?"""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def integral(x, what: str) -> int:
    """An integral input as an int, never truncated.

    Integral numbers pass (2.0 and Fraction(4, 2) included) and other
    numbers (1.5, nan) are a PreconditionError.  A string must be an
    optional '-' and ASCII digits, the JSON form of integers beyond 2^53;
    any other string, a bool, None or anything else that is no number is a
    ParseError, and so is a string longer than the interpreter's limit on
    digits converted to an int.  ``what`` names the input in the message.
    """
    if type(x) is int:  # the common case, kept as cheap as int(x)
        return x
    if isinstance(x, str):
        if _INTEGER.fullmatch(x):
            try:
                return int(x)
            except ValueError:  # more digits than the interpreter converts from a string
                raise ParseError(
                    f"{what} needs integer entries, got a {len(x)}-character string"
                    " past the interpreter's digit limit") from None
    elif isinstance(x, numbers.Real) and not isinstance(x, bool):
        if x % 1 == 0:
            return int(x)
        raise PreconditionError(f"{what} needs integer entries, got {x!r}")
    raise ParseError(f"{what} needs integer entries, got {x!r}")


def integral_rows(rows, what: str) -> list[list[int]]:
    """A matrix as rows of ints, each entry read by :func:`integral`.

    Anything but a list or tuple of lists or tuples is a ParseError, and
    rows of unequal length are a PreconditionError.
    """
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ParseError(f"{what} must be a list of rows")
    m = [[integral(x, what) for x in row] for row in rows]
    if len({len(row) for row in m}) > 1:
        raise PreconditionError(f"{what} needs rows of equal length")
    return m


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s^2 * d with d squarefree; return (s, d).  Trial division needs 1 <= n <= 10^12."""
    if not 0 < n <= 10**12:
        raise ValueError(f"the radicand must lie in [1, 10^12], got {n}")
    s, d = 1, 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= m
    return s, d


class QuadExpr:
    """An element of Q extended by square roots of positive integers.

    Internally a mapping ``{d: coeff}`` over squarefree d >= 1 with nonzero
    Fraction coefficients.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean = {}
        if terms:
            for d, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[d] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExpr is immutable")

    @classmethod
    def rational(cls, q: Rational) -> "QuadExpr":
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt(cls, n: int) -> "QuadExpr":
        s, d = squarefree_decompose(n)
        return cls({d: Fraction(s)})

    @classmethod
    def coerce(cls, value) -> "QuadExpr":
        if isinstance(value, QuadExpr):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to QuadExpr")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = QuadExpr.coerce(other)
        terms = dict(self._terms)
        for d, c in other._terms.items():
            terms[d] = terms.get(d, Fraction(0)) + c
        return QuadExpr(terms)

    __radd__ = __add__

    def __neg__(self):
        return QuadExpr({d: -c for d, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-QuadExpr.coerce(other))

    def __rsub__(self, other):
        return QuadExpr.coerce(other) + (-self)

    def __mul__(self, other):
        other = QuadExpr.coerce(other)
        terms: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                terms[d] = terms.get(d, Fraction(0)) + c1 * c2 * g
        return QuadExpr(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadExpr):
            if not other.is_rational():
                raise TypeError("QuadExpr division only supports rational divisors")
            other = other.as_fraction()
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return QuadExpr({d: c / q for d, c in self._terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported")
        out = QuadExpr.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(d == 1 for d in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def to_mpf(self, prec: int = 128) -> mp.mpf:
        with mp.workprec(prec + 16):
            total = mp.mpf(0)
            for d, c in self._terms.items():
                t = mp.mpf(c.numerator) / c.denominator
                if d != 1:
                    t *= mp.sqrt(d)
                total += t
            return +total

    def floor(self) -> int:
        """Exact integer floor.

        Uses interval refinement: the floor of a value in this ring is
        decidable because equality with an integer is exact.
        """
        prec = 96
        while prec <= 4096:
            with mp.workprec(prec):
                v = self.to_mpf(prec)
                f = mp.floor(v)
                # safe when v is comfortably separated from the integers
                eps = mp.mpf(2) ** (8 - prec) * (1 + abs(v))
                if v - f > eps and (f + 1) - v > eps:
                    return int(f)
                for m in (int(f), int(f) + 1):
                    if (self - m).is_zero():
                        return m
            prec *= 2
        raise ArithmeticError(f"could not determine floor of {self}")

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        try:
            other = QuadExpr.coerce(other)
        except TypeError:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for d in sorted(self._terms):
            c = self._terms[d]
            if d == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt{d}")
            else:
                parts.append(f"{c}*sqrt{d}")
        return " + ".join(parts).replace("+ -", "- ")

    def __float__(self):
        return float(self.to_mpf(80))


_TOKEN = re.compile(
    r"\s*(?:(?P<sqrt>sqrt\s*\d+)|(?P<num>\d+\.\d+|\d+)|(?P<op>[-+*/()]))"
)


def _tokenize(text: str) -> list[str]:
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad character in expression at {text[pos:]!r}")
        tokens.append(m.group(m.lastgroup).replace(" ", ""))
        pos = m.end()
    return tokens


def parse_real(text: str) -> QuadExpr:
    """Parse an exact real expression such as ``"(sqrt5-1)/2"``."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def advance():
        nonlocal pos
        pos += 1

    def parse_atom() -> QuadExpr:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if tok == "(":
            advance()
            value = parse_expr()
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            advance()
            return value
        if tok.startswith("sqrt"):
            advance()
            return QuadExpr.sqrt(int(tok[4:]))
        if tok[0].isdigit():
            advance()
            # Fraction("0.25") is exact in Python >= 3.2 via the decimal path
            num = Fraction(tok)
            if peek() == "/" and pos + 1 < len(tokens) and tokens[pos + 1][0].isdigit():
                advance()
                den = Fraction(tokens[pos])
                advance()
                if den == 0:
                    raise ParseError("division by zero")
                return QuadExpr.rational(num / den)
            return QuadExpr.rational(num)
        raise ParseError(f"unexpected token {tok!r}")

    def parse_unary() -> QuadExpr:
        if peek() == "-":
            advance()
            return -parse_unary()
        if peek() == "+":
            advance()
            return parse_unary()
        return parse_atom()

    def parse_term() -> QuadExpr:
        value = parse_unary()
        while peek() in ("*", "/"):
            op = peek()
            advance()
            if op == "*":
                value = value * parse_unary()
            else:
                divisor = parse_unary()
                try:
                    value = value / divisor
                except (TypeError, ZeroDivisionError) as exc:
                    raise ParseError(str(exc)) from None
        return value

    def parse_expr() -> QuadExpr:
        value = parse_term()
        while peek() in ("+", "-"):
            op = peek()
            advance()
            rhs = parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    try:
        result = parse_expr()
    except (ValueError, RecursionError) as exc:  # digit limit, radicand bound, nesting depth
        raise ParseError(str(exc)) from None
    if pos != len(tokens):
        raise ParseError(f"trailing input {tokens[pos:]!r}")
    return result


def parse_real_vector(text: str) -> tuple[QuadExpr, ...]:
    """Parse a comma separated vector of exact real expressions."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return tuple(parse_real(p) for p in parts)
