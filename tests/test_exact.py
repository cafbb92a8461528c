import math
import operator
import random
from fractions import Fraction

import mpmath as mp
import pytest

from helpers import pell_power
from parabolic_lab.exact import ParseError, QuadExpr, parse_real, parse_real_vector, squarefree_decompose


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)


def test_sqrt_arithmetic():
    r2, r3 = QuadExpr.sqrt(2), QuadExpr.sqrt(3)
    assert r2 * r2 == QuadExpr.rational(2)
    assert r2 * r3 == QuadExpr.sqrt(6)
    assert QuadExpr.sqrt(8) == QuadExpr.rational(2) * r2
    assert (r2 + r3) * (r2 - r3) == QuadExpr.rational(-1)
    assert (r2 + 1) * (r2 - 1) == QuadExpr.rational(1)


def test_power_and_division():
    r5 = QuadExpr.sqrt(5)
    golden = (r5 - 1) / 2
    # golden ratio minus one satisfies g^2 + g - 1 = 0
    assert (golden * golden + golden - 1).is_zero()
    with pytest.raises(TypeError):
        QuadExpr.rational(1) / r5


def test_floor_exact():
    r2 = QuadExpr.sqrt(2)
    assert r2.floor() == 1
    assert (r2 * 5).floor() == 7          # 7.071...
    assert (-r2).floor() == -2
    assert QuadExpr.rational(Fraction(7, 2)).floor() == 3
    assert QuadExpr.rational(-3).floor() == -3
    # value extremely close to an integer but exactly rational
    assert QuadExpr.rational(Fraction(10**30 - 1, 10**30)).floor() == 0


def _mp_floor(v: QuadExpr) -> int:
    """floor(v) from mpmath at 4x the bits of v's coefficients, refused when undecided."""
    bits = 64 + max(c.numerator.bit_length() + c.denominator.bit_length()
                    for c in v.terms.values())
    with mp.workprec(4 * bits):
        x = mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.sqrt(d) for d, c in v.terms.items())
        f = mp.floor(x)
        assert min(x - f, f + 1 - x) > mp.mpf(2) ** -bits
        return int(f)


def _powers(base: QuadExpr, count: int):
    acc = QuadExpr.rational(1)
    for _ in range(count):
        acc = acc * base
        yield acc


def test_floor_matches_an_oversized_mpmath_floor():
    r2, r3, r5 = QuadExpr.sqrt(2), QuadExpr.sqrt(3), QuadExpr.sqrt(5)
    r6, r10, r15 = QuadExpr.sqrt(6), QuadExpr.sqrt(10), QuadExpr.sqrt(15)
    rng = random.Random(12)
    values = []
    for p in _powers(r2 + r3, 40):  # odd powers a sqrt2 + b sqrt3, even ones a + b sqrt6
        values += [p, -p]
    for p in _powers(r3 - r2, 120):  # within (sqrt3 - sqrt2)^k of the integer m
        m = rng.randint(-5, 5)
        values += [p + m, m - p]
    values += list(_powers(r2 + r3 + r5, 12))
    tiny = []
    for base in (r10 - 3, 4 - r15, 5 - 2 * r6, r5 - 2, r6 - r10 + r15 - 2):
        for p in _powers(base, 40):
            values += [p + rng.randint(-9, 9), -p / rng.randint(1, 9)]
            tiny.append(p)
    for _ in range(200):  # near-integers over three radicands, each term of either sign
        p = rng.randint(-9, 9)
        for t in rng.sample(tiny, 3):
            p = p + rng.choice([-1, 1]) * t
        values.append(p)
    for _ in range(200):  # sums over several radicands with negative coefficients
        terms = {d: Fraction(rng.randint(-99, 99), rng.randint(1, 40))
                 for d in rng.sample([1, 2, 3, 5, 6, 7, 10, 15], rng.randint(1, 5))}
        values.append(QuadExpr(terms))
    for v in values:
        if not v.is_rational():
            assert v.floor() == _mp_floor(v), v


def test_floor_of_a_pell_value():
    # (1 + sqrt2)^3300 = a + b sqrt2 and (sqrt2 - 1)^3300 = a - b sqrt2 lies in (0, 2^-4196),
    # so a + b sqrt2 = 2a - (a - b sqrt2) has floor 2a - 1
    a, b = pell_power(3300)
    assert (QuadExpr.sqrt(2) * b + a).floor() == 2 * a - 1
    assert (QuadExpr.sqrt(2) * b - a).floor() == -1
    assert (QuadExpr.sqrt(2) * -b + a).floor() == 0


def test_to_mpf_accuracy():
    val = parse_real("sqrt2+sqrt3")
    assert abs(float(val) - (math.sqrt(2) + math.sqrt(3))) < 1e-12


def test_parser_expressions():
    assert parse_real("3/4") == QuadExpr.rational(Fraction(3, 4))
    assert parse_real("0.25") == QuadExpr.rational(Fraction(1, 4))
    assert parse_real("2*sqrt2") == QuadExpr.sqrt(2) * 2
    assert parse_real("(sqrt5-1)/2") == (QuadExpr.sqrt(5) - 1) / 2
    assert parse_real("-sqrt2 + 1") == QuadExpr.rational(1) - QuadExpr.sqrt(2)
    assert parse_real("sqrt 12") == QuadExpr.sqrt(3) * 2
    assert parse_real("1/3 * sqrt2") == QuadExpr.sqrt(2) / 3
    # '/' associates to the left after any operand, a parenthesized one or a sqrt too
    assert parse_real("(sqrt5-1)/2/3") == (QuadExpr.sqrt(5) - 1) / 6
    assert parse_real("(1)/2/3") == parse_real("1/2/3") == QuadExpr.rational(Fraction(1, 6))
    assert parse_real("sqrt2/7/3") == QuadExpr.sqrt(2) / 21
    assert parse_real("1/(sqrt2*sqrt2)") == QuadExpr.rational(Fraction(1, 2))


def test_parser_vector():
    v = parse_real_vector("sqrt2, 2*sqrt2, (1+sqrt2)/3")
    assert len(v) == 3
    assert v[1] == v[0] * 2
    # whitespace before a comma and after the last expression is ignored
    assert parse_real_vector("sqrt2 , sqrt3 ") == (QuadExpr.sqrt(2), QuadExpr.sqrt(3))


def test_parser_errors():
    for bad in ("", "sqrt", "1 +", "2 ** 3", "(1", "1/0", "1/sqrt2", "1/(1-1)", "1 2", "x",
                "1.", "sqrt2,sqrt3", "sqrt2,", ",sqrt2", "(1,2)"):
        with pytest.raises(ParseError):
            parse_real(bad)
    for bad in ("", "sqrt2,", ",sqrt2", "sqrt2,,sqrt3", "(1,2)"):
        with pytest.raises(ParseError):
            parse_real_vector(bad)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pos": 3}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _tree(rng: random.Random, depth: int, rational: bool = False) -> tuple:
    """A random expression tree; a divisor is a nonzero rational subtree."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(["int", "dec"] if rational else ["int", "dec", "sqrt", "sqrt"])
        if kind == "int":
            return ("int", rng.randint(0, 10 ** rng.randint(1, 12)))
        if kind == "dec":
            return ("dec", rng.randint(0, 99), str(rng.randint(0, 999)).zfill(rng.randint(1, 4)))
        return ("sqrt", rng.randint(1, 50))
    op = rng.choice(["+", "-", "*", "/", "neg", "pos"])
    if op in ("neg", "pos"):
        return (op, _tree(rng, depth - 1, rational))
    rhs = _tree(rng, depth - 1, rational or op == "/")
    if op == "/" and _value(rhs) == 0:
        rhs = ("int", rng.randint(1, 9))
    return (op, _tree(rng, depth - 1, rational), rhs)


def _value(t) -> QuadExpr:
    """The tree's value, formed by QuadExpr's own operators."""
    kind = t[0]
    if kind == "int":
        return QuadExpr.rational(t[1])
    if kind == "dec":
        return QuadExpr.rational(Fraction(t[1] * 10 ** len(t[2]) + int(t[2]), 10 ** len(t[2])))
    if kind == "sqrt":
        return QuadExpr.sqrt(t[1])
    if kind == "neg":
        return -_value(t[1])
    if kind == "pos":
        return _value(t[1])
    return _BINARY[kind](_value(t[1]), _value(t[2]))


def _render(t, rng: random.Random, need: int = 0) -> str:
    """The tree as text with the fewest parentheses its precedence needs, plus random
    redundant ones and random whitespace between tokens."""
    def sp():
        return rng.choice(["", "", " ", "  "])

    kind = t[0]
    if kind == "int":
        text, prec = str(t[1]), 4
    elif kind == "dec":
        text, prec = f"{t[1]}.{t[2]}", 4
    elif kind == "sqrt":
        text, prec = f"sqrt{sp()}{t[1]}", 4
    elif kind in ("neg", "pos"):
        text, prec = ("-" if kind == "neg" else "+") + sp() + _render(t[1], rng, 3), 3
    else:
        prec = _PREC[kind]
        text = _render(t[1], rng, prec) + sp() + kind + sp() + _render(t[2], rng, prec + 1)
    if prec < need or rng.random() < 0.1:
        text = "(" + sp() + text + sp() + ")"
    return text


def test_parser_matches_tree_values():
    # oracle: the value each tree's own QuadExpr operators give, independent of the parser;
    # '/' chains without parentheses are left-nested trees, right-nested ones get parentheses
    rng = random.Random(20211)
    for _ in range(400):
        trees = [_tree(rng, rng.randint(0, 6)) for _ in range(rng.randint(1, 4))]
        text = ",".join(rng.choice(["", " "]) + _render(t, rng) + rng.choice(["", " "])
                        for t in trees)
        want = tuple(_value(t) for t in trees)
        assert parse_real_vector(text) == want, text
        if len(trees) == 1:
            assert parse_real(text) == want[0], text
