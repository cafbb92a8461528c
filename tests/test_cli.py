import argparse
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parabolic_lab import cli
from parabolic_lab import surface222 as s2
from parabolic_lab.cli import build_parser, main, render_json
from parabolic_lab.hodge import hafnian

from helpers import frozen_mc_space_average, pell_power


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_render_json_deterministic():
    obj = {"b": [1.0, 2.5e-17], "a": {"x": True, "y": None}}
    assert render_json(obj) == render_json(obj)
    # 17 significant digits round-trip the double exactly
    assert float(render_json(obj).split("[1, ")[1].split("]")[0]) == 2.5e-17


def test_lattice_seed_roundtrip(capsys):
    code, out = run_cli(["lattice", "seed", "--a-sq", "2", "--N", "5"], capsys)
    assert code == 0
    art = json.loads(out)
    assert art["result"]["lattice"]["gram"] == [[2, 0, 1], [0, -10, 0], [1, 0, 0]]
    assert art["result"]["verification"]["signature"] == [1, 2]
    assert art["result"]["verification"]["no_negatives_above_minus_2N"]
    assert art["config_sha256"]
    assert art["config"]["seed"] == 0


def test_lattice_seed_artifact_is_pinned(tmp_path, capsys):
    # the scan's count and largest square, byte for byte as the whole-box scan wrote them
    out = tmp_path / "seed.json"
    assert main(["lattice", "seed", "--a-sq", "4", "--N", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / "lattice_seed_a4_N3.json").read_bytes()


@pytest.mark.parametrize("argv, name", [
    ("k3 orbit --pair yz --n 100 --format csv --seed 4", "k3_orbit_yz_n100_seed4.csv"),
    ("k3 ergo --contrast --l 200 --seed 3", "k3_ergo_contrast_l200_seed3.json"),
])
def test_surface_walk_artifacts_are_pinned(argv, name, tmp_path):
    # a fiber-orbit trace and a contrast, byte for byte as the point-per-step walk wrote them
    out = tmp_path / name
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


@pytest.mark.parametrize("argv, name", [
    ("k3 sample --n 50 --seed 5", "k3_sample_n50_seed5.json"),
    ("k3 involve --n 50 --axis x --seed 5", "k3_involve_x_n50_seed5.json"),
    ("k3 orbit --n 2000 --grid 8 --fibers 2 --seed 4", "k3_orbit_n2000_g8_f2_seed4.json"),
], ids=("sample", "involve", "orbit"))
def test_sampling_artifacts_are_pinned(argv, name, tmp_path):
    # root sampling, the swaps and the fiber cells, byte for byte as the
    # probe-point quadratic formed them
    out = tmp_path / name
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


def _classify_artifact(word: str, tmp_path, monkeypatch) -> bytes:
    monkeypatch.delenv("PARABOLIC_LAB_SEED", raising=False)
    monkeypatch.chdir(Path(__file__).parent.parent)
    out = tmp_path / "lox.json"
    assert main(["isometry", "classify", "-i", f"tests/data/{word}", "--out", str(out)]) == 0
    return out.read_bytes()


def test_loxodromic_classify_artifact_is_pinned(tmp_path, monkeypatch, capsys):
    # the product of the seed lattice's transvections along (0, 0, 1) and (1, 0, -1):
    # verdict, eigenvalue and eigendirections byte for byte as the Fraction Sturm chain wrote them
    got = _classify_artifact("loxodromic_isometry.json", tmp_path, monkeypatch)
    assert got == Path("tests/data/isometry_classify_loxodromic.json").read_bytes()


def test_rank10_loxodromic_classify_artifact_is_pinned(tmp_path, monkeypatch, capsys):
    # a three-transvection word on U + E8(-1): its contracting direction has an exact 0 at
    # index 5, which the mpf elimination printed as -2.0164452537927412e-52
    got = _classify_artifact("loxodromic_isometry_rank10.json", tmp_path, monkeypatch)
    assert got == Path("tests/data/isometry_classify_loxodromic_rank10.json").read_bytes()
    assert b"e-52" not in got


def test_rank4_loxodromic_classify_artifact_is_pinned(tmp_path, monkeypatch, capsys):
    # a three-letter word on U + <-2>^2 whose f is the Salem quartic x^4 - 4x^3 - 2x^2 - 4x + 1:
    # lambda is refined on a degree-4 f, where the two pinned words above have a quadratic one
    got = _classify_artifact("loxodromic_isometry_rank4.json", tmp_path, monkeypatch)
    assert got == Path("tests/data/isometry_classify_loxodromic_rank4.json").read_bytes()


def test_outside_so_plus_classify_artifact_is_pinned(tmp_path, monkeypatch, capsys):
    # sigma_x* on the (2,2,2) surface's Neron-Severi lattice, a det -1 reflection:
    # its det is read off the charpoly, and the verdict stays byte for byte as det_exact gave it
    got = _classify_artifact("reflection_isometry_ns.json", tmp_path, monkeypatch)
    assert got == Path("tests/data/isometry_classify_reflection_ns.json").read_bytes()


def test_elliptic_classify_artifact_is_pinned(tmp_path, monkeypatch, capsys):
    # the order-4 rotation of the <-2>^2 summand of U + <-2>^2: an Elliptic verdict,
    # written from its tag and fields like the Parabolic one of the transvect artifact
    got = _classify_artifact("elliptic_isometry_rank4.json", tmp_path, monkeypatch)
    assert got == Path("tests/data/isometry_classify_elliptic_rank4.json").read_bytes()


@pytest.mark.parametrize("argv, name", [
    ("lattice seed --a-sq 2 --N 5", "lattice_seed_a2_N5.json"),
    ("isometry transvect -i tests/data/lattice_seed_a2_N5.json --e 0,0,1 --v 0,1,0",
     "isometry_transvect_a2_N5.json"),
    ("isometry limit -i tests/data/isometry_transvect_a2_N5.json --w 1,0,0",
     "isometry_limit_a2_N5.json"),
], ids=("seed", "transvect", "limit"))
def test_parabolic_limit_chain_is_pinned(argv, name, tmp_path, monkeypatch, capsys):
    # seed lattice -> transvection -> limit direction, each byte for byte as the
    # Fraction-reading limit wrote it; the -i paths are recorded, so they stay repo-relative
    monkeypatch.delenv("PARABOLIC_LAB_SEED", raising=False)
    monkeypatch.chdir(Path(__file__).parent.parent)
    out = tmp_path / name
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert out.read_bytes() == Path("tests/data", name).read_bytes()


def test_byte_identical_outputs(capsys):
    _, out1 = run_cli(["torus", "hull", "--coords", "sqrt2,2*sqrt2"], capsys)
    _, out2 = run_cli(["torus", "hull", "--coords", "sqrt2,2*sqrt2"], capsys)
    assert out1 == out2
    art = json.loads(out1)
    assert art["result"]["dim"] == 1
    assert art["result"]["relations"] == [[2, -1, 0]]


def test_torus_hull_divides_left_to_right(capsys):
    # x1 = (sqrt5-1)/6, so 6*x1 - x2 = -1; reading x1 as 3(sqrt5-1)/2 gave [[2, -3, -1]]
    code, out = run_cli(["torus", "hull", "--coords", "(sqrt5-1)/2/3,sqrt5"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["relations"] == [[6, -1, -1]]


def test_torus_hull_on_a_pell_coordinate(capsys):
    # a + b sqrt2 = (1 + sqrt2)^3300 lies within 2^-4196 below the integer 2a, but is no integer
    a, b = pell_power(3300)
    assert main(["torus", "hull", "--coords", f"{a}+{b}*sqrt2"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    result = json.loads(captured.out)["result"]
    assert result["dim"] == 1 and result["relations"] == []


def test_torus_hull_exact_relation_past_the_height_bound(capsys):
    # exact coordinates give the whole relation lattice, whatever --height-bound says
    code, out = run_cli(["torus", "hull", "--coords", "sqrt2,10000000*sqrt2"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dim"] == 1 and result["relations"] == [[10000000, -1, -4142135]]
    assert result["height_bound"] == 10**6


@pytest.mark.parametrize("option,value", [("--tol", 1e-60), ("--height-bound", 10**30)],
                         ids=["tol-1e-60", "height-bound-10^30"])
def test_torus_hull_exact_coords_past_the_float_resolution(option, value, capsys):
    # the float path's resolution guard reads tol against the precision and the height
    # bound; exact coordinates read neither, so they keep their relations
    code, out = run_cli(["torus", "hull", "--coords", "sqrt2,2*sqrt2", option, str(value)],
                        capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["relations"] == [[2, -1, 0]] and result[option[2:].replace("-", "_")] == value


def test_classify_pipeline(tmp_path, capsys):
    lat = {"rank": 3, "gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]]}
    lat_file = tmp_path / "lat.json"
    lat_file.write_text(json.dumps(lat))
    iso_file = tmp_path / "iso.json"
    code, _ = run_cli(
        ["isometry", "transvect", "-i", str(lat_file), "--e", "1,0,0", "--v", "0,0,1",
         "--out", str(iso_file)],
        capsys,
    )
    assert code == 0
    art = json.loads(iso_file.read_text())
    assert art["result"]["classification"] == {
        "fixed_vector": [1, 0, 0],
        "tag": "Parabolic",
    }
    # the transvect artifact feeds classify and limit as written
    code, out = run_cli(["isometry", "classify", "-i", str(iso_file)], capsys)
    assert code == 0
    assert json.loads(out)["result"] == {"fixed_vector": [1, 0, 0], "tag": "Parabolic"}
    code, out = run_cli(["isometry", "limit", "-i", str(iso_file), "--w", "2,1,0"], capsys)
    assert code == 0
    d = json.loads(out)["result"]["direction"]
    assert abs(d[0] - 1) < 1e-9 and abs(d[1]) < 1e-9 and abs(d[2]) < 1e-9


def test_seed_transvect_classify_limit_chain(tmp_path, capsys):
    seed_file, iso_file = tmp_path / "lattice.json", tmp_path / "isometry.json"
    assert main(["lattice", "seed", "--a-sq", "2", "--N", "5", "--out", str(seed_file)]) == 0
    code, out = run_cli(["lattice", "signature", "-i", str(seed_file)], capsys)
    assert code == 0 and json.loads(out)["result"] == {"pos": 1, "neg": 2}
    # y = (0,0,1) is the seed lattice's isotropic mark; x = (0,1,0) is orthogonal to it
    assert main(["isometry", "transvect", "-i", str(seed_file), "--e", "0,0,1",
                 "--v", "0,1,0", "--out", str(iso_file)]) == 0
    code, out = run_cli(["isometry", "classify", "-i", str(iso_file)], capsys)
    assert code == 0
    assert json.loads(out)["result"] == {"fixed_vector": [0, 0, 1], "tag": "Parabolic"}
    code, out = run_cli(["isometry", "limit", "-i", str(iso_file), "--w", "1,0,0"], capsys)
    assert code == 0
    d = json.loads(out)["result"]["direction"]
    assert abs(d[0]) < 1e-9 and abs(d[1]) < 1e-9 and abs(d[2] - 1) < 1e-9
    # the direction is exact, with no residue of a float iteration
    assert d == [0.0, 0.0, 1.0]
    # the exponent cap of the former doubling loop is no longer an option
    assert main(["isometry", "limit", "-i", str(iso_file), "--w", "1,0,0", "--iters", "8"]) == 1
    capsys.readouterr()


def test_non_integral_gram_entries(tmp_path, capsys):
    # a fractional entry is not truncated to an integer: precondition violation
    frac = tmp_path / "frac.json"
    frac.write_text('{"gram": [[1.5, 0], [0, -1]]}')
    assert main(["lattice", "signature", "-i", str(frac)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # a non-numeric entry is a parse error
    word = tmp_path / "word.json"
    word.write_text('{"gram": [["a", 0], [0, -1]]}')
    assert main(["lattice", "signature", "-i", str(word)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("entry,code", [(1.5, 2), ("a", 1)], ids=["fraction", "word"])
@pytest.mark.parametrize("argv", [
    ["isometry", "classify"],
    ["isometry", "limit", "--w", "1,0,0"],
    ["isometry", "verify"],
], ids=["classify", "limit", "verify"])
def test_non_integral_matrix_entries(argv, entry, code, tmp_path, capsys):
    # the matrix is not truncated to the identity: 1.5 is a precondition violation
    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps({"lattice": {"gram": [[2, 0, 1], [0, -10, 0], [1, 0, 0]]},
                               "matrix": [[entry, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert main(argv[:2] + ["-i", str(iso)] + argv[2:]) == code
    assert "Traceback" not in capsys.readouterr().err


_SEED_GRAM = '{"gram": [[2, 0, 1], [0, -10, 0], [1, 0, 0]]}'


@pytest.mark.parametrize("text,code,message", [
    ('{"lattice": %s}' % _SEED_GRAM, 1, "error: missing key 'matrix'"),
    ('[{"lattice": %s}]' % _SEED_GRAM, 1, "expected a JSON object, not list"),
    ('{"lattice": %s, "matrix": [[1, 0, 0], [0, 1], [0, 0, 1]]}' % _SEED_GRAM, 2, "rows of equal length"),
    ('{"lattice": %s, "matrix": "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"}' % _SEED_GRAM, 1, "list of rows"),
    ('{"lattice": %s, "matrix": [[1.5, 0, 0], [0, 1, 0], [0, 0, 1]]}' % _SEED_GRAM, 2, "got 1.5"),
    ('{"lattice": %s, "matrix": [[true, 0, 0], [0, 1, 0], [0, 0, 1]]}' % _SEED_GRAM, 1, "got True"),
    ('{"lattice": %s, "matrix": [[1e400, 0, 0], [0, 1, 0], [0, 0, 1]]}' % _SEED_GRAM, 2, "got inf"),
    ('{"lattice": %s, "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}' % _SEED_GRAM, 2,
     "does not preserve the Gram matrix"),
    ('{"lattice": {"gram": [[1, 0], [0, 1]]}, "matrix": [[1, 0], [0, 1]]}', 2, "got (2, 0)"),
], ids=["missing-key", "not-an-object", "ragged", "string-matrix", "entry-1.5", "entry-true",
        "entry-1e400", "not-an-isometry", "signature-2-0"])
def test_isometry_classify_bad_inputs(text, code, message, tmp_path, capsys):
    iso = tmp_path / "iso.json"
    iso.write_text(text)
    assert main(["isometry", "classify", "-i", str(iso)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err


@pytest.mark.parametrize("text", ['{"gram": 5}', '{"gram": [1, 2]}', "[1, 2]", "5"],
                         ids=["gram-int", "gram-flat", "top-list", "top-int"])
def test_malformed_lattice_json_is_a_parse_error(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    iso = tmp_path / "iso.json"
    iso.write_text('{"lattice": %s, "matrix": [[1, 0], [0, 1]]}' % text)
    for argv in (["lattice", "signature", "-i", str(bad)],
                 ["isometry", "classify", "-i", str(bad)],
                 ["isometry", "classify", "-i", str(iso)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_exit_codes(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lattice", "signature", "-i", str(bad)]) == 1
    capsys.readouterr()
    assert main(["lattice", "seed", "--a-sq", "3", "--N", "5"]) == 2  # odd a_sq
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    # a branch guard that refuses every step exhausts the walk's budget: numerical
    # contract failure
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 1.0)
    assert main(["k3", "orbit", "--n", "100", "--grid", "4"]) == 3
    assert "numerical contract failure" in capsys.readouterr().err


@pytest.mark.parametrize("coords,code", [
    ("7" * 5000, 1), ("1/" + "7" * 5000, 1), ("0." + "7" * 5000, 1), ("sqrt" + "7" * 5000, 1),
    ("sqrt1000000000000000000000000000057", 1), ("sqrt1000000000001", 1), ("sqrt0", 1),
    ("(" * 3000 + "1" + ")" * 3000, 1), ("sqrt1000000000000", 0),
], ids=["5000-digits", "5000-digit-denominator", "5000-digit-decimal", "5000-digit-radicand",
        "radicand-10^33", "radicand-past-bound", "radicand-0", "nested-3000-deep", "radicand-10^12"])
def test_torus_coords_past_the_grammar_bounds(coords, code, capsys):
    # the digit limit, the radicand bound and the nesting depth are parse errors, not tracebacks
    assert main(["torus", "hull", "--coords=" + coords]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:")


def test_torus_orbit_csv(capsys):
    code, out = run_cli(
        ["torus", "orbit", "--coords", "1/2", "--n", "4", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1].startswith("# seed=")
    assert lines[2] == "k,x1"
    assert [l.split(",")[1] for l in lines[3:]] == ["0.5", "0", "0.5", "0"]


def test_torus_scan_cli(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"coords": [["0", "sqrt2"], ["sqrt2"]]}))
    code, out = run_cli(
        ["torus", "scan", "--family", str(fam), "--grid", "sqrt3/7,1"], capsys
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert [d for _, d in res["points"]] == [2, 1]


@pytest.mark.parametrize("coords", [[[0, 1], [1]], [["0", "1"], 5], 3, [["0", None]]],
                         ids=["numbers", "bare-number", "not-a-list", "null"])
def test_torus_scan_family_must_hold_expression_strings(coords, tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"coords": coords}))
    assert main(["torus", "scan", "--family", str(fam), "--grid", "1"]) == 1
    err = capsys.readouterr().err
    assert "expression strings" in err and "Traceback" not in err


def test_hodge_cli(tmp_path, capsys):
    f = tmp_path / "fujiki.json"
    f.write_text(json.dumps({"rank": 2, "gram": [[0, 1], [1, 0]], "n": 1, "c": "1", "K": "1"}))
    code, out = run_cli(
        ["hodge", "fujiki", "-i", str(f), "--eta", "1,1", "--etas", "1,0;0,1"], capsys
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["top"] == 2.0 and res["polarized"] == 2.0
    code, out = run_cli(["hodge", "fujiki", "-i", str(f), "--eta", "1,0"], capsys)
    assert code == 0 and json.loads(out)["result"]["top"] == 0  # an exact 0 is no underflow
    h = tmp_path / "haf.json"
    h.write_text(json.dumps({"matrix": [[1, 1, 1, 1]] * 4}))
    code, out = run_cli(["hodge", "hafnian", "-i", str(h)], capsys)
    assert json.loads(out)["result"]["hafnian"] == 3
    a = tmp_path / "amgm.json"
    a.write_text(json.dumps({"h1": [[2, 0], [0, 0.5]], "h2": [[1, 0], [0, 1]]}))
    code, out = run_cli(["hodge", "amgm", "-i", str(a)], capsys)
    res = json.loads(out)["result"]
    assert res["verdict"] == "PremiseViolated" and abs(res["mean"] - 1.25) < 1e-12


@pytest.mark.parametrize("h1", [
    [["a", 0], [0, 1]],
    [[None, 0], [0, 1]],
    [[True, 0], [0, 1]],
    [[[1], 0], [0, 1]],
    [[[1, "a"], 0], [0, 1]],
    [[2, 0], 5],
    [[2, 0], [0]],
    "x",
], ids=["word", "null", "bool", "short-pair", "word-in-pair", "flat-row", "ragged", "string"])
def test_hodge_amgm_entries_must_be_numbers(h1, tmp_path, capsys):
    a = tmp_path / "amgm.json"
    a.write_text(json.dumps({"h1": h1, "h2": [[1, 0], [0, 1]]}))
    assert main(["hodge", "amgm", "-i", str(a)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # [re, im] pairs are complex entries
    a.write_text(json.dumps({"h1": [[[2, 0], 0], [0, [0.5, 0]]], "h2": [[1, 0], [0, 1]]}))
    code, out = run_cli(["hodge", "amgm", "-i", str(a)], capsys)
    assert code == 0 and json.loads(out)["result"]["mean"] == 1.25


@pytest.mark.parametrize("field,code", [
    ({"n": 1.5}, 2), ({"c": "x"}, 1), ({"K": "x"}, 1), ({"c": "sqrt2"}, 2), ({"K": "sqrt2/2"}, 2),
    ({"c": "1e3"}, 1), ({"c": "1_000"}, 1), ({"K": "1/0"}, 1), ({"c": "1,2"}, 1), ({"c": True}, 1),
], ids=["n-fraction", "c-word", "K-word", "c-irrational", "K-irrational", "c-exponent",
        "c-underscore", "K-zero-divisor", "c-two-values", "c-bool"])
def test_hodge_fujiki_form_fields(field, code, tmp_path, capsys):
    # n is not truncated to 1; a string constant is read by the exact grammar, so one
    # outside it is a parse error and an irrational one a precondition violation
    f = tmp_path / "fujiki.json"
    f.write_text(json.dumps({"rank": 2, "gram": [[0, 1], [1, 0]], "n": 1, "c": "1", "K": "1",
                             **field}))
    assert main(["hodge", "fujiki", "-i", str(f), "--eta", "1,1"]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("field,top", [
    ({"c": "(1)/2"}, 1.0),
    ({"c": "3/4*2"}, 3.0),
    ({"c": " 0.25 "}, 0.5),
    ({"c": 0.25}, 0.5),
    ({"c": 3}, 6.0),
], ids=["paren-half", "product", "spaced-decimal", "json-float", "json-int"])
def test_hodge_fujiki_constants_are_read_exactly(field, top, tmp_path, capsys):
    # a string c is an expression of the exact grammar, and a JSON number keeps its written value
    f = tmp_path / "fujiki.json"
    f.write_text(json.dumps({**_U_FORM, "n": 1, **field}))
    code, out = run_cli(["hodge", "fujiki", "-i", str(f), "--eta", "1,1"], capsys)
    assert code == 0 and json.loads(out)["result"]["top"] == top


@pytest.mark.parametrize("entry", ["a", True, None, [1]], ids=["word", "bool", "null", "list"])
def test_hodge_hafnian_entries_must_be_numbers(entry, tmp_path, capsys):
    h = tmp_path / "haf.json"
    h.write_text(json.dumps({"matrix": [[1, entry], [entry, 1]]}))
    assert main(["hodge", "hafnian", "-i", str(h)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_U_FORM = {"rank": 2, "gram": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("argv,spec", [
    (["hafnian"], {"matrix": [[0, math.nan], [math.nan, 0]]}),
    (["hafnian"], {"matrix": [[1e200] * 4] * 4}),
    (["hafnian"], {"matrix": [[0.0, 1e200, 1e200, 1.0], [1e200, 0.0, 1.0, -1e200],
                              [1e200, 1.0, 0.0, 1e200], [1.0, -1e200, 1e200, 0.0]]}),
    (["hafnian"], {"matrix": [[10**200] * 4] * 4}),
    (["hafnian"], {"matrix": [[1] * 26] * 26}),
    (["hafnian"], {"matrix": [[1, 2], [3, 4]]}),
    (["hafnian"], {"matrix": [[0.0 if i == j else 1e-200 for j in range(4)] for i in range(4)]}),
    (["hafnian"], {"matrix": [[0, 1e-200, 1, 0], [1e-200, 0, 0, 0], [1, 0, 0, 1e-200],
                              [0, 0, 1e-200, 0]]}),
    (["hafnian"], {"matrix": [[0, 1e-300, 0, 0], [1e-300, 0, 0, 0], [0, 0, 0, 10**400],
                              [0, 0, 10**400, 0]]}),
    (["fujiki", "--eta", "3,5"], {**_U_FORM, "n": 600}),
    (["fujiki", "--eta", "3,5"], {**_U_FORM, "n": 100000}),
    (["fujiki", "--eta", "3,5"], {**_U_FORM, "c": "1" + "0" * 400}),
    (["fujiki", "--etas", "3,5;3,5"], {**_U_FORM, "K": "1" + "0" * 400}),
    (["fujiki", "--eta", "1,1"], {**_U_FORM, "c": "1/1" + "0" * 400}),
    (["fujiki", "--etas", "1,0;0,1"], {**_U_FORM, "K": "1/1" + "0" * 400}),
], ids=["hafnian-nan", "hafnian-inf", "hafnian-nan-result", "hafnian-int-overflow",
        "hafnian-26", "hafnian-asymmetric", "hafnian-float-underflow", "hafnian-wide-range",
        "hafnian-int-beside-float", "fujiki-n600",
        "fujiki-n1e5", "fujiki-c1e400", "fujiki-K1e400", "fujiki-c1e-400", "fujiki-K1e-400"])
def test_hodge_results_outside_the_float_range_are_preconditions(argv, spec, tmp_path, capsys):
    # a non-finite entry, a result that overflows a float or is NaN, a nonzero result
    # that underflows to 0 (exact or float), a matrix past MAX_HAFNIAN, an asymmetric
    # matrix or a q^n past the float range must not print a number
    f = tmp_path / "in.json"
    f.write_text(json.dumps(spec))
    assert main(["hodge", argv[0], "-i", str(f), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "precondition violation" in err and "Traceback" not in err


@pytest.mark.parametrize("matrix,want", [
    ([[0.0, 1e-200, 1e-200, 0.0], [1e-200, 0.0, 0.0, -1e-200],
      [1e-200, 0.0, 0.0, 1e-200], [0.0, -1e-200, 1e-200, 0.0]], 0),
    ([[5.0, 0.0], [0.0, 5.0]], 0),
    ([[0.0 if i == j else 1e-150 for j in range(4)] for i in range(4)], 3e-300),
], ids=["cancelling", "diagonal-only", "small"])
def test_hodge_hafnian_float_zero_is_kept(matrix, want, tmp_path, capsys):
    # the underflow check refuses only a float 0 whose rescaled matrix has a nonzero hafnian
    h = tmp_path / "haf.json"
    h.write_text(json.dumps({"matrix": matrix}))
    code, out = run_cli(["hodge", "hafnian", "-i", str(h)], capsys)
    assert code == 0 and json.loads(out)["result"]["hafnian"] == pytest.approx(want, rel=1e-12)


def test_balanced_hafnian_scales_by_a_power_of_two():
    # haf(D A D) = 2^(k_1 + ... + k_m) haf(A): each row's largest entry lands in [1/2, 1)
    rows = [[7.0, 1e-200, 1.0, 0.0], [1e-200, 7.0, 0.0, 0.0], [1.0, 0.0, 7.0, 1e-200],
            [0.0, 0.0, 1e-200, 7.0]]
    scaled = cli._balanced(rows)
    assert [scaled[i][i] for i in range(4)] == [0.0] * 4
    for i, row in enumerate(scaled):
        assert 0.5 <= max(abs(x) for j, x in enumerate(row) if j != i) < 1
        for j, x in enumerate(row):
            if i != j and rows[i][j]:
                assert math.frexp(x / rows[i][j])[0] == 0.5  # an exact power of two
    assert hafnian(rows) == 0.0 and hafnian(scaled) > 0.25


def test_hodge_fujiki_q_eta_past_53_bits_is_a_string(tmp_path, capsys):
    f = tmp_path / "u.json"
    f.write_text(json.dumps(_U_FORM))
    code, out = run_cli(["hodge", "fujiki", "-i", str(f), "--eta", "9" * 29 + ",1"], capsys)
    assert code == 0 and json.loads(out)["result"]["q_eta"] == "1" + "9" * 28 + "8"
    code, out = run_cli(["hodge", "fujiki", "-i", str(f), "--eta", "3,5"], capsys)
    assert code == 0 and json.loads(out)["result"]["q_eta"] == 30


def test_seed_env_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("PARABOLIC_LAB_SEED", "abc")
    assert main(["lattice", "seed", "--a-sq", "2", "--N", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_k3_sample_cli(capsys):
    code, out = run_cli(["k3", "sample", "--n", "3", "--seed", "5"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert len(res["points"]) == 3 and res["max_residual"] < 1e-12
    _, out2 = run_cli(["k3", "sample", "--n", "3", "--seed", "5"], capsys)
    assert out == out2


@pytest.mark.parametrize("coeffs,code", [
    ([[1, "a"]] + [[1, 0]] * 26, 1),
    (list(range(1, 28)), 1),
    (5, 1),
    ([[float("nan"), 0]] + [[1, 0]] * 26, 2),
    ([[1e300, 0]] + [[1, 0]] * 26, 2),
    ([[1, 0]] * 26 + [[1e308, 1e308]], 2),
    ([[1e-300, 0]] * 27, 2),
], ids=["word-in-pair", "bare-numbers", "not-a-list", "nan", "huge", "modulus-overflows", "tiny"])
def test_k3_surface_file_is_checked(coeffs, code, tmp_path, capsys):
    # a malformed file is a parse error, a non-finite or badly scaled coefficient
    # a precondition violation; neither reaches the sampler
    f = tmp_path / "surface.json"
    f.write_text(json.dumps({"coeffs": coeffs}))
    assert main(["k3", "sample", "--surface", str(f)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:" if code == 1 else "precondition violation:")
    f.write_text(json.dumps({"coeffs": [[1, 0]] * 27}))
    assert main(["k3", "sample", "--n", "1", "--surface", str(f)]) == 0


@pytest.mark.parametrize("seed,code", [
    ("abc", 1), (-1, 2), (2**64, 2), (2**64 - 1, 0), (None, 0), ("absent", 0),
], ids=["word", "negative", "2^64", "u64-max", "null", "absent"])
def test_k3_surface_seed_is_a_u64(seed, code, tmp_path, capsys):
    d = {"coeffs": [[1, 0]] * 27}
    if seed != "absent":
        d["seed"] = seed
    f = tmp_path / "surface.json"
    f.write_text(json.dumps(d))
    assert main(["k3", "sample", "--n", "1", "--surface", str(f)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error:" if code == 1 else "precondition violation:")
        assert "surface seed" in err
    else:
        assert json.loads(out)["result"]["surface"].get("seed") == d.get("seed")


@pytest.mark.parametrize("argv,env,code", [
    (["k3", "sample", "--n", "1", "--seed", "-1"], None, 2),
    (["k3", "sample", "--n", "1", "--seed", str(2**64)], None, 2),
    (["k3", "sample", "--n", "1", "--seed", str(2**64 - 1)], None, 0),
    (["k3", "sample", "--n", "1", "--surface", "SURFACE", "--seed", "-1"], None, 2),
    (["k3", "involve", "--n", "1"], "-5", 2),
    (["k3", "orbit", "--n", "10", "--seed", "-1"], None, 2),
    (["k3", "orbit", "--n", "10", "--format", "csv", "--seed", "-1"], None, 2),
    (["k3", "ergo", "--l", "10", "--trials", "2", "--mc", "100", "--seed", "-1"], None, 2),
    (["k3", "ergo", "--contrast", "--l", "10", "--seed", str(2**64)], None, 2),
], ids=["sample-negative", "sample-2^64", "sample-u64-max", "sample-with-file", "involve-env",
        "orbit", "orbit-csv", "ergo", "contrast-2^64"])
def test_k3_seed_is_a_u64(argv, env, code, tmp_path, monkeypatch, capsys):
    # the --seed and PARABOLIC_LAB_SEED of every k3 subcommand obey a surface file's seed check
    f = tmp_path / "surface.json"
    f.write_text(json.dumps({"coeffs": [[1, 0]] * 27, "seed": 7}))
    if env is None:
        monkeypatch.delenv("PARABOLIC_LAB_SEED", raising=False)
    else:
        monkeypatch.setenv("PARABOLIC_LAB_SEED", env)
    assert main([str(f) if a == "SURFACE" else a for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("precondition violation: seed must lie in [0, 2^64)")


def test_k3_orbit_reads_a_sample_artifact_as_its_surface(capsys):
    # `k3 sample` nests its surface under "surface"; the artifact loads as that surface
    sample = str(Path(__file__).parent / "data" / "k3_sample_n50_seed5.json")
    argv = ["k3", "orbit", "--n", "200", "--grid", "4", "--seed", "5"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    code, out_file = run_cli([*argv, "--surface", sample], capsys)
    assert code == 0
    assert json.loads(out_file)["result"] == json.loads(out)["result"]


def test_k3_involve_cli(capsys, monkeypatch):
    code, out = run_cli(["k3", "involve", "--axis", "z", "--n", "5", "--seed", "3"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["max_residual"] < 1e-10
    assert res["max_roundtrip_distance"] < 1e-9
    assert res["refused"] == 0 and len(res["pairs"]) == 5
    # near the branch locus points are skipped and counted, never dropped silently
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 0.05)
    code, out = run_cli(["k3", "involve", "--axis", "y", "--n", "40", "--seed", "3"], capsys)
    res = json.loads(out)["result"]
    assert code == 0 and res["refused"] > 0
    assert len(res["pairs"]) + res["refused"] == 40


@pytest.mark.parametrize("fid", ["x_re", "z_abs2"])
def test_k3_ergo_space_average_matches_frozen_across_block_boundaries(fid, capsys):
    # the artifact's Monte Carlo figures are the frozen whole-draw estimate on the seed's stream
    samples = 3 * s2.MC_BLOCK + 5
    code, out = run_cli(["k3", "ergo", "--l", "10", "--trials", "2", "--mc", str(samples),
                         "--f", fid, "--seed", "4"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    frozen = frozen_mc_space_average(s2.random_surface(4), fid, samples,
                                     np.random.default_rng([4, 0x5C]))
    assert (res["space_average"], res["space_se"], res["mc_effective_samples"]) == frozen


def test_k3_contrast_counts_interruptions(capsys, monkeypatch):
    monkeypatch.setattr(s2, "BRANCH_DISC_REL", 1e-3)
    code, out = run_cli(["k3", "ergo", "--contrast", "--l", "200", "--f", "y_abs2",
                         "--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["branch_interruptions"] == 7


def test_contrast_config_drops_the_options_it_ignores(capsys):
    # the contrast reads neither --trials nor --mc, so they cannot split equal runs apart
    outs = [run_cli(["k3", "ergo", "--contrast", "--l", "50", *extra], capsys)
            for extra in (["--trials", "2"], ["--trials", "5"], ["--mc", "7"])]
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]
    config = json.loads(outs[0][1])["config"]
    assert config["trials"] is None and config["mc"] is None


def test_k3_orbit_csv_trace(capsys):
    code, out = run_cli(
        ["k3", "orbit", "--pair", "yz", "--n", "4", "--format", "csv", "--seed", "4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2] == "step,y_re,y_im,z_re,z_im,chart_y,chart_z"
    assert len(lines) == 3 + 5  # start point plus 4 steps
    assert [row.split(",")[0] for row in lines[3:]] == ["0", "1", "2", "3", "4"]
    # chart flags are 0/1
    for row in lines[3:]:
        parts = row.split(",")
        assert parts[5] in "01" and parts[6] in "01"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "parabolic_lab.cli", "lattice", "seed", "--a-sq", "2", "--N", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["verification"]["signature"] == [1, 2]


def test_cli_import_loads_no_process_pool():
    # fiber_orbits imports the pool when it starts one, so no other command pays for it
    proc = subprocess.run(
        [sys.executable, "-c", "import parabolic_lab.cli, sys; "
         "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_nonfinite_floats_are_strict_json():
    text = render_json({"a": math.nan, "b": math.inf, "c": -math.inf, "d": 0.5})
    assert json.loads(text, parse_constant=_no_constant) == {
        "a": "NaN", "b": "Infinity", "c": "-Infinity", "d": 0.5,
    }


@pytest.mark.parametrize("argv", [
    ["k3", "sample", "--n", "0"],
    ["k3", "involve", "--n", "0"],
    ["k3", "orbit", "--n", "0"],
    ["k3", "orbit", "--fibers", "0", "--n", "10"],
    ["k3", "ergo", "--trials", "1", "--l", "10", "--mc", "100"],
    ["k3", "ergo", "--trials", "2", "--l", "0", "--mc", "100"],
    ["k3", "ergo", "--contrast", "--l", "0"],
    ["k3", "orbit", "--n", "100", "--grid", "0"],
    ["k3", "orbit", "--n", "100", "--grid", "-3"],
    ["k3", "ergo", "--l", "10", "--trials", "2", "--mc", "0"],
    ["k3", "ergo", "--l", "10", "--trials", "2", "--mc", "-5"],
    ["torus", "hull", "--coords", "sqrt2", "--tol", "nan"],
    ["torus", "hull", "--coords", "sqrt2", "--tol", "inf"],
    ["hodge", "amgm", "-i", "pair.json", "--tol", "nan"],
    ["hodge", "amgm", "-i", "pair.json", "--tol", "0"],
    ["hodge", "amgm", "-i", "pair.json", "--tol", "-1"],
    ["hodge", "amgm", "-i", "pair.json", "--tol", "inf"],
    ["lattice", "seed", "--a-sq", "2", "--N", "1", "--scan-bound", "0"],
    ["lattice", "seed", "--a-sq", "2", "--N", "1", "--scan-bound", "-1"],
    ["lattice", "seed", "--a-sq", "2", "--N", "1", "--scan-bound", "1000000"],
    ["lattice", "represent", "-i", "s.json", "--lo", "-5", "--hi", "5", "--bound", "0"],
    ["lattice", "represent", "-i", "s.json", "--lo", "-5", "--hi", "5", "--bound", "-2"],
    ["k3", "orbit", "--n", "10", "--workers", "0"],
    ["k3", "orbit", "--n", "10", "--workers", "-3"],
    ["k3", "orbit", "--n", "10", "--grid", str(s2.MAX_GRID + 1)],
    ["k3", "orbit", "--n", "10", "--grid", "100000"],
    ["k3", "orbit", "--n", "10", "--grid", "100000", "--format", "csv"],
    ["k3", "orbit", "--n", "10", "--grid", "0", "--format", "csv"],
    ["torus", "weyl", "--coords", "sqrt2,sqrt3", "--k", "1", "--n", "10"],
    ["torus", "weyl", "--coords", "sqrt2", "--k", "1,1", "--n", "10"],
], ids=["sample-n0", "involve-n0", "orbit-n0", "orbit-fibers0", "ergo-trials1", "ergo-l0",
        "contrast-l0", "orbit-grid0", "orbit-grid-neg", "ergo-mc0", "ergo-mc-neg",
        "hull-tol-nan", "hull-tol-inf", "amgm-tol-nan", "amgm-tol0", "amgm-tol-neg",
        "amgm-tol-inf", "seed-scan0", "seed-scan-neg", "seed-scan-past-max",
        "represent-bound0", "represent-bound-neg", "orbit-workers0", "orbit-workers-neg",
        "orbit-grid-past-max", "orbit-grid-100000", "orbit-csv-grid-100000", "orbit-csv-grid0",
        "weyl-k-short", "weyl-k-long"])
def test_degenerate_counts_are_preconditions(argv, tmp_path, monkeypatch, capsys):
    # an empty box, a box past MAX_SCAN (refused before the scan), a tolerance that
    # decides nothing, no worker, a probe grid past MAX_GRID (refused before it is
    # allocated) or a k of the wrong length must not print a result
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pair.json").write_text(json.dumps({"h1": [[1, 0], [0, 1]], "h2": [[1, 0], [0, 1]]}))
    (tmp_path / "s.json").write_text(json.dumps({"rank": 2, "gram": [[0, 1], [1, 0]]}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "precondition violation" in err and "Traceback" not in err


def _subparsers(parser) -> dict:
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def test_workers_and_format_only_where_used(capsys):
    leaves = [(group, cmd, {opt for action in p._actions for opt in action.option_strings})
              for group, gp in _subparsers(build_parser()).items()
              for cmd, p in _subparsers(gp).items()]
    assert len(leaves) == 19
    for group, cmd, opts in leaves:
        assert {"--seed", "--out"} <= opts
        assert ("--workers" in opts) == ((group, cmd) == ("k3", "orbit"))
        assert ("--format" in opts) == (cmd == "orbit")
    assert main(["lattice", "seed", "--a-sq", "2", "--N", "5", "--format", "csv"]) == 1
    assert main(["torus", "hull", "--coords", "sqrt2", "--workers", "2"]) == 1
    capsys.readouterr()


def test_orbit_workers_leave_the_result_unchanged(capsys):
    # the pool gets the surface itself and hands the reports back in fiber order
    argv = ["k3", "orbit", "--n", "500", "--grid", "8", "--fibers", "3", "--seed", "4"]
    results = []
    for workers in ("1", "2"):
        code, out = run_cli([*argv, "--workers", workers], capsys)
        assert code == 0
        results.append(json.loads(out)["result"])
    assert results[0] == results[1]
    assert len(results[0]["reports"]) == 3


def _readme_commands() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in argvs if argv]


# Run at README size these add ~20 s and four worker processes to the suite,
# so they are only parsed; the tests above run the same subcommands small.
_PARSE_ONLY = {("k3", "orbit"), ("k3", "ergo")}


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PARABOLIC_LAB_SEED", raising=False)
    (tmp_path / "form.json").write_text(
        json.dumps({"rank": 2, "gram": [[0, 1], [1, 0]], "n": 1, "c": "1", "K": "1"}))
    (tmp_path / "matrix.json").write_text(json.dumps({"matrix": [[1, 1, 1, 1]] * 4}))
    (tmp_path / "pair.json").write_text(json.dumps({"h1": [[2, 0], [0, 0.5]],
                                                    "h2": [[1, 0], [0, 1]]}))
    commands = _readme_commands()
    assert len(commands) == 14
    ap = build_parser()
    for argv in commands:
        assert argv[0] == "parabolic-lab"
        ap.parse_args(argv[1:])
        if tuple(argv[1:3]) not in _PARSE_ONLY:
            assert main(argv[1:]) == 0, argv
            capsys.readouterr()


# Config hashes of artifacts (seed 0 by default): a change here changes
# every artifact the subcommand writes with these options.
@pytest.mark.parametrize("argv,sha", [
    (["lattice", "seed", "--a-sq", "2", "--N", "5"],
     "5e328379f4244515b991983afc397d9ab696569595965458f0b72d4e237737aa"),
    (["torus", "weyl", "--coords", "(sqrt5-1)/2", "--k", "1", "--n", "100"],
     "2a08fd6e5c1f71a9b17db5c14b4b2fe7224e6c7eac4f95169dac7ae1cfc008f5"),
    (["k3", "orbit", "--pair", "yz", "--n", "200", "--grid", "4"],
     "d7739b8e18cabd0b2198fb0116370d01eaa5886cfe42789d14c1040d12575b3e"),
    (["torus", "orbit", "--coords", "1/2", "--n", "4"],
     "3c793c3dfd2dcd8a9158027a7172089f55bac1e0d2630d15627eb7d002b0e5c8"),
], ids=["lattice-seed", "torus-weyl", "k3-orbit", "torus-orbit"])
def test_config_hashes_pinned(argv, sha, monkeypatch, capsys):
    monkeypatch.delenv("PARABOLIC_LAB_SEED", raising=False)
    code, out = run_cli(argv, capsys)
    assert code == 0
    art = json.loads(out)
    assert art["config_sha256"] == sha
    assert art["config"]["subcommand"] == " ".join(argv[:2])


# -- every option of every subcommand against a fixed list of bad values -----------

_BIG = "1" * 40
_BAD_VALUES = ["0", "-1", "abc", "", "1.5", "nan", _BIG]
_SEED_GRAM = [[2, 0, 1], [0, -10, 0], [1, 0, 0]]
_SWEEP_FILES = {
    "lat.json": {"rank": 3, "gram": _SEED_GRAM},
    "para.json": {"lattice": {"rank": 3, "gram": _SEED_GRAM},
                  "matrix": [[1, 0, 0], [-1, 1, 0], [5, -10, 1]]},  # the README transvection
    "fam.json": {"coords": [["0", "sqrt2"], ["sqrt2"]]},
    "form.json": {"rank": 2, "gram": [[0, 1], [1, 0]], "n": 1, "c": "1", "K": "1"},
    "matrix.json": {"matrix": [[1, 1, 1, 1]] * 4},
    "pair.json": {"h1": [[2, 0], [0, 0.5]], "h2": [[1, 0], [0, 1]]},
}
# a small call of each subcommand that succeeds; the sweep swaps one option's value
_SWEEP_BASE = {
    ("lattice", "seed"): ["--a-sq", "2", "--N", "1"],
    ("lattice", "signature"): ["-i", "lat.json"],
    ("lattice", "isotropic"): ["-i", "lat.json", "--bound", "2"],
    ("lattice", "represent"): ["-i", "lat.json", "--lo", "-5", "--hi", "5", "--bound", "2"],
    ("isometry", "verify"): ["-i", "iso.json"],
    ("isometry", "classify"): ["-i", "iso.json"],
    ("isometry", "transvect"): ["-i", "lat.json", "--e", "0,0,1", "--v", "0,1,0"],
    ("isometry", "limit"): ["-i", "para.json", "--w", "1,0,0"],
    ("torus", "orbit"): ["--coords", "sqrt2", "--n", "4"],
    ("torus", "hull"): ["--coords", "sqrt2,2*sqrt2", "--height-bound", "100"],
    ("torus", "weyl"): ["--coords", "sqrt2", "--k", "1", "--n", "10"],
    ("torus", "scan"): ["--family", "fam.json", "--grid", "0,1/2", "--height-bound", "100"],
    ("hodge", "fujiki"): ["-i", "form.json", "--eta", "1,1"],
    ("hodge", "hafnian"): ["-i", "matrix.json"],
    ("hodge", "amgm"): ["-i", "pair.json"],
    ("k3", "sample"): ["--n", "2"],
    ("k3", "involve"): ["--n", "2"],
    ("k3", "orbit"): ["--n", "20", "--grid", "4"],
    ("k3", "ergo"): ["--l", "10", "--trials", "2", "--mc", "100"],
}
_FILE_OPTIONS = {"--input", "--surface", "--family"}
# values from the list that are legal for an option: there the call must succeed
_REALS = {"0", "-1", "1.5", _BIG}
_LEGAL = {
    ("lattice", "seed"): {"--N": {_BIG}},
    ("lattice", "represent"): {"--lo": {"0", "-1"}, "--hi": {"0", "-1", _BIG}},
    ("torus", "orbit"): {"--coords": _REALS, "--start": _REALS},
    # every CLI coordinate is exact, so no height bound is past the float resolution
    ("torus", "hull"): {"--coords": _REALS, "--tol": {"1.5", _BIG}, "--height-bound": {_BIG}},
    ("torus", "weyl"): {"--coords": _REALS, "--k": {"-1", _BIG}},
    ("torus", "scan"): {"--grid": _REALS, "--tol": {"1.5", _BIG}, "--height-bound": {_BIG}},
    ("hodge", "amgm"): {"--tol": {"1.5", _BIG}},
}


def _legal(command, flag: str) -> set:
    if flag == "--out":
        return set(_BAD_VALUES) - {""}  # any non-empty path names a file
    if flag == "--seed":  # recorded by every subcommand, a u64 for k3
        return {"0"} if command[0] == "k3" else {"0", "-1", _BIG}
    return _LEGAL.get(command, {}).get(flag, set())


def test_sweep_covers_every_subcommand():
    assert set(_SWEEP_BASE) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", list(cli.COMMANDS), ids=" ".join)
def test_every_option_refuses_bad_values(command, tmp_path, monkeypatch, capsys):
    # each value goes to each option (an input file gets it as its contents) in a call
    # that otherwise succeeds: exit 1, 2 or 3 with no traceback, unless the value is legal
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PARABOLIC_LAB_SEED", raising=False)
    for name, spec in _SWEEP_FILES.items():
        (tmp_path / name).write_text(json.dumps(spec))
    (tmp_path / "iso.json").write_bytes((Path(__file__).parent / "data" / "loxodromic_isometry.json")
                                        .read_bytes())
    base = _SWEEP_BASE[command]
    assert main(list(command) + base) == 0  # else every swapped call would fail for that reason
    capsys.readouterr()
    wrong = []
    for flags, kwargs in cli.COMMANDS[command][1] + cli._COMMON:
        flag = flags[-1]
        if kwargs.get("action") == "store_true":
            continue
        for value in _BAD_VALUES:
            if flag == "--workers" and value == _BIG:
                continue  # a large worker count would start processes if it got through
            if flag in _FILE_OPTIONS:
                (tmp_path / "bad.json").write_text(value)
                value_arg = "bad.json"
            else:
                value_arg = value
            argv = list(command) + base
            at = next((i for i, a in enumerate(argv) if a in flags), None)
            if at is None:
                argv += [flag, value_arg]
            else:
                argv[at + 1] = value_arg
            code = main(argv)
            err = capsys.readouterr().err
            legal = value in _legal(command, flag)
            if "Traceback" in err or (code != 0 if legal else code not in (1, 2, 3)):
                wrong.append((flag, value, code))
    assert not wrong, wrong


# count options past their cap, refused before any work starts (a 40-digit count used to
# run until killed, and a 40-digit --mc died in numpy)
_CAPPED = [
    (["torus", "orbit", "--coords", "sqrt2"], "--n", cli.MAX_POINTS),
    (["torus", "weyl", "--coords", "sqrt2", "--k", "1"], "--n", cli.MAX_STEPS),
    (["k3", "sample"], "--n", cli.MAX_POINTS),
    (["k3", "involve"], "--n", cli.MAX_POINTS),
    (["k3", "orbit"], "--n", cli.MAX_STEPS),
    (["k3", "orbit", "--n", "10"], "--fibers", cli.MAX_POINTS),
    (["k3", "orbit", "--n", "10"], "--workers", cli.MAX_WORKERS),
    (["k3", "ergo", "--trials", "2", "--mc", "100"], "--l", cli.MAX_STEPS),
    (["k3", "ergo", "--contrast"], "--l", cli.MAX_STEPS),
    (["k3", "ergo", "--l", "10", "--mc", "100"], "--trials", cli.MAX_STEPS),
    (["k3", "ergo", "--l", "10", "--trials", "2"], "--mc", cli.MAX_MC),
]


@pytest.mark.parametrize("argv,flag,cap", _CAPPED,
                         ids=[f"{a[0]}-{a[1]}{f}" for a, f, _ in _CAPPED])
def test_count_options_are_capped(argv, flag, cap, capsys):
    values = [str(cap + 1)] if flag == "--workers" else [str(cap + 1), _BIG]
    for value in values:
        assert main(argv + [flag, value]) == 2, value
        err = capsys.readouterr().err
        assert f"between 1 and {cap}" in err and "Traceback" not in err


def test_count_caps_sit_above_the_documented_values():
    # every count option in the README command block and the CI workflow stays below its cap
    caps = {(tuple(a[:2]), f): cap for a, f, cap in _CAPPED}
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    argvs = [argv[1:] for argv in _readme_commands()]
    argvs += [shlex.split(line.strip())[1:] for line in workflow.splitlines()
              if line.strip().startswith("parabolic-lab ")]
    seen = 0
    for argv in argvs:
        for flag, value in zip(argv, argv[1:]):
            cap = caps.get((tuple(argv[:2]), flag))
            if cap is not None and value.isdigit():
                assert int(value) < cap, (argv, flag)
                seen += 1
    assert seen >= 6

