import math
import operator
import random
from fractions import Fraction

import pytest

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
