"""One policy for every integral input, in the library and at the command line.

Strings must be an optional '-' and ASCII digits; bools, None and
anything that is no number are a ParseError (exit 1); a number that is
not integral is a PreconditionError (exit 2).
"""

import json
from fractions import Fraction

import pytest

from parabolic_lab.cli import SEED_ENV, main
from parabolic_lab.errors import PreconditionError
from parabolic_lab.exact import ParseError
from parabolic_lab.isometry import LatticeIsometry
from parabolic_lab.lattice import QuadLattice, hyperbolic_plane, is_primitive
from parabolic_lab.linalg_exact import hnf, lll_reduce

U = hyperbolic_plane()

VALUES = [
    ("+7", ParseError),
    ("1_000", ParseError),
    (" 7", ParseError),
    (True, ParseError),
    (None, ParseError),
    ("a", ParseError),
    (1.5, PreconditionError),
    (Fraction(3, 2), PreconditionError),
    (float("nan"), PreconditionError),
]
IDS = ["plus", "underscore", "space", "true", "none", "word", "float", "fraction", "nan"]

ENTRY_POINTS = {
    "QuadLattice": lambda v: QuadLattice(((v, 0), (0, -1))),
    "LatticeIsometry": lambda v: LatticeIsometry(U, ((v, 0), (0, 1))),
    "check_vector": lambda v: U.check_vector((v, 0)),
    "is_primitive": lambda v: is_primitive((v, 1)),
    "lll_reduce": lambda v: lll_reduce([[v, 0], [0, 1]]),
    "hnf": lambda v: hnf([[v, 0], [0, 1]]),
}


@pytest.mark.parametrize("value,expected", VALUES, ids=IDS)
def test_library_entry_points_read_integers_alike(value, expected):
    raised = {}
    for name, call in ENTRY_POINTS.items():
        with pytest.raises(expected) as info:
            call(value)
        raised[name] = type(info.value)
    assert set(raised.values()) == {expected}, raised


def _gram_file(tmp_path, entry) -> str:
    # the seed Gram of a_sq = 2, N = 5, its zero corner replaced by entry
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2, 0, 1], [0, -10, 0], [1, 0, entry]]}))
    return str(path)


def _exit_codes(text, tmp_path, monkeypatch) -> dict:
    seed = ["lattice", "seed", "--a-sq", "2", "--N", "5"]
    lat = tmp_path / "lat.json"
    assert main(seed + ["--out", str(lat)]) == 0
    codes = {
        "--seed": main(seed + ["--seed", text]),
        "--N": main(["lattice", "seed", "--a-sq", "2", "--N", text]),
        "--e": main(["isometry", "transvect", "-i", str(lat),
                     "--e", f"0,0,{text}", "--v", "0,1,0"]),
        "gram": main(["lattice", "signature", "-i", _gram_file(tmp_path, text)]),
    }
    monkeypatch.setenv(SEED_ENV, text)
    codes[SEED_ENV] = main(seed)
    monkeypatch.delenv(SEED_ENV)
    return codes


@pytest.mark.parametrize("value,expected", VALUES, ids=IDS)
def test_cli_entry_points_read_integers_alike(value, expected, tmp_path, monkeypatch, capsys):
    # every option, the seed variable and a Gram file read the same text
    assert set(_exit_codes("1", tmp_path, monkeypatch).values()) == {0}
    text = value if isinstance(value, str) else str(value)
    assert set(_exit_codes(text, tmp_path, monkeypatch).values()) == {1}
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # a Gram file holding the JSON value exits as the library's exception class
    if not isinstance(value, Fraction):
        code = 1 if expected is ParseError else 2
        assert main(["lattice", "signature", "-i", _gram_file(tmp_path, value)]) == code


def test_integers_past_the_digit_limit_are_parse_errors(tmp_path, capsys):
    # 5000 digits: more than the interpreter converts from a string by default
    digits = "1" * 5000
    with pytest.raises(ParseError, match="Gram needs integer entries, got a 5000-character"):
        QuadLattice(((digits, 0), (0, -1)))
    # a Gram entry written as a string, and one written as a bare JSON number
    assert main(["lattice", "signature", "-i", _gram_file(tmp_path, digits)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"gram": [[2, 0, 1], [0, -10, 0], [1, 0, 0]]}).replace(
        "-10", digits))
    assert main(["lattice", "signature", "-i", str(bare)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bare}:") and "Traceback" not in err
