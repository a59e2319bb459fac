import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft7Validator

from lipext import extend, schedule_for_instance, validate_instance
from lipext.cli import main

from conftest import corrupted_extension
from test_verification import _triu_steepest

SCHEMA = json.loads((Path(__file__).parent.parent / "docs"
                     / "report_schema.json").read_text())
VALIDATOR = Draft7Validator(SCHEMA)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _grid_file(tmp_path, n=101):
    return _write(tmp_path, "grid.json", {
        "points": {"type": "euclidean",
                   "coords": [[i / (n - 1)] for i in range(n)]},
        "subset": [0, n - 1], "values": [0.0, 1.0]})


def _cloud_file(tmp_path, seed=0, n=40, with_masses=False):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 1, (n, 3)).tolist()
    subset = sorted(int(i) for i in rng.choice(n, size=8, replace=False))
    values = rng.normal(size=8).tolist()
    doc = {"points": {"type": "euclidean", "coords": coords},
           "subset": subset, "values": values}
    if with_masses:
        masses = [0.0] * n
        for s in subset:
            masses[s] = float(rng.uniform(0.2, 1.0))
        doc["masses"] = masses
    return _write(tmp_path, f"cloud{seed}.json", doc)


def _check_schema(path):
    doc = json.loads(Path(path).read_text())
    VALIDATOR.validate(doc)
    return doc


# --- validate ----------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", "--input", _grid_file(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(doc)
    assert doc["ok"] and doc["lipschitz"] == 1.0


def test_validate_triangle_violation(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {
        "points": {"type": "matrix", "d": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
        "subset": [0], "values": [0.0]})
    assert main(["validate", "--input", path]) == 1
    err = json.loads(capsys.readouterr().out)
    assert "triangle" in err["error"] and "witness" in err


def test_validate_rejects_mass_off_subset(tmp_path, capsys):
    path = _write(tmp_path, "m.json", {
        "points": {"type": "euclidean", "coords": [[0.0], [0.5], [1.0]]},
        "subset": [0, 2], "values": [0.0, 1.0], "masses": [1.0, 1.0, 1.0]})
    assert main(["validate", "--input", path]) == 1
    assert "off the subset" in json.loads(capsys.readouterr().out)["error"]


LENGTH = "masses length does not match point count"
# Masses of the wrong kind or shape on the 3-point line, with the start of each
# error: a scalar has no length, so it is a length mismatch like a short list.
MALFORMED_MASSES = {
    "empty": ([], LENGTH), "short": ([1.0, 0.0], LENGTH), "rows": ([[1.0, 0.0, 1.0]], LENGTH),
    "string": ("x", "malformed field"), "object": ({}, "malformed field"),
    "nulls": ([None, None, None], "non-numeric mass"), "true": (True, "non-numeric mass"),
    "int": (2, LENGTH), "float": (2.5, LENGTH), "huge-int": (10 ** 400, LENGTH),
}


@pytest.mark.parametrize("argv", [["validate"], ["energy", "--p", "1", "--radii", "0.5"]],
                         ids=["validate", "energy"])
@pytest.mark.parametrize("case", MALFORMED_MASSES)
def test_malformed_masses_exit1(tmp_path, capsys, argv, case):
    masses, error = MALFORMED_MASSES[case]
    path = _write(tmp_path, "m.json", {
        "points": {"type": "euclidean", "coords": [[0.0], [0.5], [1.0]]},
        "subset": [0, 2], "values": [0.0, 1.0], "masses": masses})
    output = ["--output", str(tmp_path / "out.json")] if argv[0] == "energy" else []
    assert main([*argv, "--input", path, *output]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert out.count("\n") == 1 and err == ""
    assert set(doc) == {"error", "field", "witness"} and doc["field"] == "masses"
    assert doc["error"].startswith(error)
    if error == LENGTH:
        assert doc["witness"]["n"] == 3


def test_validate_missing_values_field(tmp_path, capsys):
    path = _write(tmp_path, "m.json", {
        "points": {"type": "matrix", "d": [[0, 1], [1, 0]]}, "subset": [0]})
    assert main(["validate", "--input", path]) == 1
    assert json.loads(capsys.readouterr().out)["field"] == "values"


@pytest.mark.parametrize("coords,error", [
    # The distance underflows to 0: a duplicate by the computed distances.
    ([[0.0], [1e-200], [1.0]], "duplicate points (zero distance)"),
    # The distance overflows to inf.
    ([[-1e200], [1e200], [0.0]], "non-finite distance"),
], ids=["underflow", "overflow"])
def test_validate_numeric_extremes_exit1(tmp_path, capsys, coords, error):
    path = _write(tmp_path, "x.json", {
        "points": {"type": "euclidean", "coords": coords},
        "subset": [0, 2], "values": [0.0, 1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # e.g. numpy's overflow RuntimeWarning
        assert main(["validate", "--input", path]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": error, "field": "points",
                               "witness": {"i": 0, "j": 1}}
    assert err == ""


def test_validate_cloud_at_scale_1e150(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = _write(tmp_path, "big.json", {
        "points": {"type": "euclidean",
                   "coords": (1e150 * rng.uniform(0, 1, (60, 3))).tolist()},
        "subset": [0, 7, 30], "values": [0.0, 1.0, -2.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    VALIDATOR.validate(doc)
    assert doc["ok"] and 0.0 < doc["lipschitz"] < 1e-148


# --- extend ------------------------------------------------------------------


def test_extend_restriction_and_schema(tmp_path):
    out = str(tmp_path / "f.json")
    assert main(["extend", "--input", _grid_file(tmp_path), "--epsilon", "1",
                 "--queries", "all", "--output", out]) == 0
    doc = _check_schema(out)
    byidx = {e["index"]: e for e in doc["entries"]}
    assert byidx[0]["value"] == 0.0 and byidx[100]["value"] == 1.0
    assert len(doc["entries"]) == 101


def test_extend_query_list_and_default(tmp_path):
    out = str(tmp_path / "f.json")
    grid = _grid_file(tmp_path)
    assert main(["extend", "--input", grid, "--epsilon", "1",
                 "--queries", "3,5,7", "--output", out]) == 0
    assert [e["index"] for e in _check_schema(out)["entries"]] == [3, 5, 7]
    assert main(["extend", "--input", grid, "--epsilon", "1",
                 "--output", out]) == 0
    idx = [e["index"] for e in _check_schema(out)["entries"]]
    assert 0 not in idx and 100 not in idx and len(idx) == 99


@pytest.mark.parametrize("index", ["99999999999999999999", "-99999999999999999999"],
                         ids=["positive", "negative"])
def test_extend_query_index_beyond_intp_exit1(tmp_path, capsys, index):
    # An index no intp can hold is out of range like any other, not a traceback.
    out = tmp_path / "f.json"
    code = main(["extend", "--input", _grid_file(tmp_path), "--epsilon", "1",
                 f"--queries={index}", "--output", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == 1 and not out.exists()
    assert stdout == '{"error": "query index out of range"}\n'
    assert stderr == ""


@pytest.mark.parametrize("index", [99999999999999999999, -99999999999999999999],
                         ids=["positive", "negative"])
def test_validate_subset_index_beyond_intp_exit1(tmp_path, capsys, index):
    # Checked for range before the intp conversion: one JSON error naming the index.
    path = _write(tmp_path, "inst.json", {
        "points": {"type": "euclidean", "coords": [[0.0], [0.5], [1.0]]},
        "subset": [0, index], "values": [0.0, 1.0]})
    code = main(["validate", "--input", path])
    stdout, stderr = capsys.readouterr()
    assert code == 1
    assert stdout == ('{"error": "subset index out of range", "field": "subset", '
                      f'"witness": {{"index": {index}, "n": 3}}}}\n')
    assert stderr == ""


# Each case puts the placeholder HUGE in one number of an instance file.
HUGE_CASES = {
    "lipschitz": ({"lipschitz": "HUGE"},
                  {"error": "lipschitz constant must be a finite nonnegative real",
                   "field": "lipschitz", "witness": {"value": "inf"}}),
    "coordinate": ({"points": {"type": "euclidean", "coords": [[0.0], ["HUGE"], [1.0]]}},
                   {"error": "non-finite coordinate", "field": "points", "witness": {"i": 1}}),
    "distance": ({"points": {"type": "matrix",
                             "d": [[0, "HUGE", 1], ["HUGE", 0, 1], [1, 1, 0]]}},
                 {"error": "non-finite distance", "field": "points",
                  "witness": {"i": 0, "j": 1}}),
    "value": ({"values": [0.0, "HUGE"]},
              {"error": "non-finite value", "field": "values", "witness": {"position": 1}}),
    "mass": ({"masses": ["HUGE", 0.0, 1.0]},
             {"error": "masses must be finite and nonnegative", "field": "masses",
              "witness": {"index": 0}}),
}


@pytest.mark.parametrize("field", HUGE_CASES)
def test_validate_integer_beyond_float_range_exit1(tmp_path, capsys, field):
    # A 401-digit integer is rejected as non-finite, with the report of 1e400.
    edit, error = HUGE_CASES[field]
    doc = {"points": {"type": "euclidean", "coords": [[0.0], [0.5], [1.0]]},
           "subset": [0, 2], "values": [0.0, 1.0], "masses": [1.0, 0.0, 1.0], **edit}
    outs = []
    for number in (str(10 ** 400), "1e400"):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', number))
        assert main(["validate", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out) == error and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def _numpy_error(data):
    """The ``malformed field`` error of a list that numpy cannot read as floats."""
    try:
        np.array(data, dtype=float)
    except ValueError as exc:
        return {"error": f"malformed field: {exc}", "field": "root", "witness": {}}


def _shape_error(error, field):
    return {"error": error, "field": field, "witness": {}}


RAGGED = [[0.0], [0.5, 1.0], [1.0]]

# Each case puts a string or a bool, which numpy would read as a number, in one
# numeric field of an instance file, or gives a field the wrong kind or shape.
# A list in place of the edit is the whole file.
NON_NUMBER_CASES = {
    "lipschitz-string": ({"lipschitz": "1e9"},
                         {"error": "lipschitz constant must be a finite nonnegative real",
                          "field": "lipschitz", "witness": {"type": "str"}}),
    "lipschitz-bool": ({"lipschitz": True},
                       {"error": "lipschitz constant must be a finite nonnegative real",
                        "field": "lipschitz", "witness": {"type": "bool"}}),
    "coordinate": ({"points": {"type": "euclidean", "coords": [[0.0], ["0"], [1.0]]}},
                   {"error": "non-numeric coordinate", "field": "points",
                    "witness": {"position": [1, 0]}}),
    "distance": ({"points": {"type": "matrix", "d": [[0, 1, 1], [1, 0, True], [1, 1, 0]]}},
                 {"error": "non-numeric distance", "field": "points",
                  "witness": {"position": [1, 2]}}),
    "value": ({"values": [0.0, "0"]},
              {"error": "non-numeric value", "field": "values", "witness": {"position": 1}}),
    "mass": ({"masses": [1.0, 0.0, True]},
             {"error": "non-numeric mass", "field": "masses", "witness": {"position": 2}}),
    "root-list": ([1, 2], _shape_error("instance file must be a JSON object", "root")),
    "coords-missing": ({"points": {"type": "euclidean"}},
                       _shape_error("missing field", "points.coords")),
    "d-missing": ({"points": {"type": "matrix"}}, _shape_error("missing field", "points.d")),
    "sphere": ({"points": {"type": "sphere", "coords": [[0.0], [0.5], [1.0]]}},
               {"error": "unknown geometry type", "field": "points.type",
                "witness": {"value": "sphere"}}),
    "coords-ragged": ({"points": {"type": "euclidean", "coords": RAGGED}}, _numpy_error(RAGGED)),
    "coords-1d": ({"points": {"type": "euclidean", "coords": [0.0, 0.5, 1.0]}},
                  _shape_error("coordinates must be a non-empty 2-D array", "points")),
    "coords-empty": ({"points": {"type": "euclidean", "coords": []}},
                     _shape_error("coordinates must be a non-empty 2-D array", "points")),
    "d-not-square": ({"points": {"type": "matrix", "d": [[0, 1, 1], [1, 0, 1]]}},
                     _shape_error("distance matrix must be square and non-empty", "points")),
    "subset-empty": ({"subset": []}, _shape_error("subset must be a non-empty index list",
                                                  "subset")),
    "subset-2d": ({"subset": [[0, 2]]}, _shape_error("subset must be a non-empty index list",
                                                     "subset")),
    # A scalar has no length: a length mismatch like a list of rows, not a Python message.
    "values-scalar": ({"values": 2}, {"error": "values length does not match subset length",
                                      "field": "values", "witness": {"n_values": None,
                                                                     "n_subset": 2}}),
    "values-rows": ({"values": [[1.0, 2.0]]},
                    {"error": "values length does not match subset length", "field": "values",
                     "witness": {"n_values": 1, "n_subset": 2}}),
}


@pytest.mark.parametrize("field", NON_NUMBER_CASES)
def test_validate_string_or_bool_number_exit1(tmp_path, capsys, field):
    edit, error = NON_NUMBER_CASES[field]
    doc = {"points": {"type": "euclidean", "coords": [[0.0], [0.5], [1.0]]},
           "subset": [0, 2], "values": [0.0, 1.0], "masses": [1.0, 0.0, 1.0]}
    doc = {**doc, **edit} if isinstance(edit, dict) else edit
    assert main(["validate", "--input", _write(tmp_path, "bad.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 and json.loads(out) == error and err == ""


def test_validate_nan_lipschitz_exit1(tmp_path, capsys):
    # The witness names the value as a string: a report is strict JSON.
    path = tmp_path / "nan.json"
    path.write_text('{"points": {"type": "euclidean", "coords": [[0.0], [1.0]]}, '
                    '"subset": [0, 1], "values": [0.0, 1.0], "lipschitz": NaN}')
    assert main(["validate", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["witness"] == {"value": "nan"} and err == ""


def test_integer_beyond_the_parser_limit_exit1(tmp_path, capsys):
    # Python's json refuses to read an integer of more than 4300 digits.
    path = tmp_path / "huge.json"
    path.write_text('{"points": {"type": "euclidean", "coords": [[0.0], [1.0]]}, '
                    '"subset": [0, 1], "values": [0.0, 1.0], "lipschitz": '
                    + "9" * 5000 + "}")
    assert main(["validate", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert set(json.loads(out)) == {"error"} and err == ""


def test_extend_bounded_noop_when_dominating(tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    grid = _grid_file(tmp_path)
    assert main(["extend", "--input", grid, "--epsilon", "1",
                 "--output", out1]) == 0
    assert main(["extend", "--input", grid, "--epsilon", "1",
                 "--bounded", "1e9", "--output", out2]) == 0
    assert ([e["value"] for e in _check_schema(out1)["entries"]]
            == [e["value"] for e in _check_schema(out2)["entries"]])


def test_extend_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cloud = _cloud_file(tmp_path)
    for out in (out1, out2):
        assert main(["extend", "--input", cloud, "--epsilon", "0.5",
                     "--queries", "all", "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_extend_cutoff_composition(tmp_path):
    # spread cloud: far points must be zeroed, subset untouched, budget kept
    rng = np.random.default_rng(42)
    core = rng.uniform(0, 1, (20, 2))
    far = rng.uniform(40, 60, (10, 2))
    coords = np.vstack([core, far]).tolist()
    doc = {"points": {"type": "euclidean", "coords": coords},
           "subset": list(range(6)),
           "values": rng.normal(size=6).tolist()}
    path = _write(tmp_path, "spread.json", doc)
    out = str(tmp_path / "cut.json")
    epsilon = 1.0
    assert main(["extend", "--input", path, "--epsilon", str(epsilon),
                 "--queries", "all", "--cutoff", "--output", out]) == 0
    got = _check_schema(out)
    vals = np.array([e["value"] for e in got["entries"]])
    g = np.array(doc["values"])
    coords = np.array(coords)
    d_c = np.min(np.linalg.norm(coords[:, None, :] - coords[None, :6, :], axis=2),
                 axis=1)
    m_sup = np.max(np.abs(vals)) if np.any(vals) else np.max(np.abs(g))
    assert np.all(vals[d_c >= 4.0 * max(m_sup, np.max(np.abs(g))) / epsilon] == 0.0)
    assert np.allclose(vals[:6], g, rtol=0, atol=1e-12)


# --- verify ------------------------------------------------------------------


def test_verify_random_instance_exit0(tmp_path):
    out = str(tmp_path / "v.json")
    assert main(["verify", "--input", _cloud_file(tmp_path), "--epsilon", "1",
                 "--output", out]) == 0
    doc = _check_schema(out)
    assert doc["passed"] is True


def test_verify_corrupted_extension_exit2(tmp_path):
    out = str(tmp_path / "v.json")
    with corrupted_extension():
        code = main(["verify", "--input", _cloud_file(tmp_path), "--epsilon", "1",
                     "--output", out])
    assert code == 2
    doc = _check_schema(out)
    assert doc["passed"] is False
    assert any(c["status"] == "fail" and c["witness"] for c in doc["checks"])


def test_verify_tiny_rbar_extend_schedule_exit1(tmp_path, capsys):
    out = str(tmp_path / "v.json")
    code = main(["verify", "--input", _cloud_file(tmp_path), "--epsilon", "1",
                 "--rbar", "1e-280", "--output", out])
    assert code == 1
    assert "extend schedule" in json.loads(capsys.readouterr().out)["error"]


def test_verify_seeded_reruns_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cloud = _cloud_file(tmp_path, seed=3)
    for out in (out1, out2):
        assert main(["verify", "--input", cloud, "--epsilon", "0.7",
                     "--seed", "11", "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_past_500k_pairs_reads_every_pair(tmp_path):
    # 1001 queries hold 500500 pairs: the global check reads every one of them,
    # so its measured ratio and witness are the one-gather scan's over all
    # queries, and --seed changes nothing but its own echo in params.
    cloud = _cloud_file(tmp_path, n=1001)
    reports = []
    for seed in (0, 1):
        out = tmp_path / f"{seed}.json"
        assert main(["verify", "--input", cloud, "--epsilon", "0.5",
                     "--seed", str(seed), "--output", str(out)]) == 0
        reports.append(_check_schema(out))
    check = next(c for c in reports[0]["checks"] if c["name"] == "global_lipschitz")
    assert check["note"] == "exhaustive"
    inst = validate_instance(json.loads(Path(cloud).read_text()))
    queries = np.arange(inst.n)
    sch = schedule_for_instance(inst, 0.5, queries,
                                locality=(reports[0]["params"]["r_bar"], 0.1))
    want = _triu_steepest(extend(inst, sch, queries), inst)
    assert (check["measured"], check["witness"]["i"], check["witness"]["j"]) == want
    assert [doc["params"].pop("seed") for doc in reports] == [0, 1]
    assert reports[0] == reports[1]


def test_verify_infinite_xi_exit1(tmp_path, capsys):
    code = main(["verify", "--input", _cloud_file(tmp_path), "--epsilon", "1",
                 "--xi", "inf", "--output", str(tmp_path / "v.json")])
    assert code == 1
    assert "xi" in json.loads(capsys.readouterr().out)["error"]


def test_verify_negative_seed_exit1(tmp_path, capsys):
    code = main(["verify", "--input", _cloud_file(tmp_path), "--epsilon", "1",
                 "--seed", "-1", "--output", str(tmp_path / "v.json")])
    assert code == 1
    assert "seed" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("lipschitz", [None, 1.0], ids=["computed", "declared"])
def test_verify_constant_data_at_a_huge_epsilon_exit0(tmp_path, capsys, lipschitz):
    # The budget cones g +- (L + eps) d overflow to +-inf, their correctly rounded
    # values, without a numpy warning.
    doc = {"points": {"type": "euclidean", "coords": [[0.0], [0.5], [1.0], [2.0]]},
           "subset": [0, 2], "values": [1.0, 1.0]}
    if lipschitz is not None:
        doc["lipschitz"] = lipschitz
    out = tmp_path / "v.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--input", _write(tmp_path, "c.json", doc),
                     "--epsilon", "1e308", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in _check_schema(out)["checks"]}
    assert checks["envelope_sandwich"]["status"] == "pass"


# Each bad parameter ends in exit 1 with a JSON error on constant data
# (Lip(g, C) = 0, no schedule is built) and on non-constant data alike.
_POSITIVE = "{} must be a positive finite real"
BAD_PARAMETERS = {
    "verify-rbar-nan": (["verify", "--epsilon", "0.5", "--rbar", "nan"],
                        _POSITIVE.format("r_bar")),
    "verify-rbar-negative": (["verify", "--epsilon", "0.5", "--rbar", "-1"],
                             _POSITIVE.format("r_bar")),
    "extend-epsilon-nan": (["extend", "--epsilon", "nan"], _POSITIVE.format("--epsilon")),
    "extend-epsilon-inf": (["extend", "--epsilon", "inf"], _POSITIVE.format("--epsilon")),
    "extend-anchor-nan": (["extend", "--epsilon", "0.5", "--anchor", "nan"],
                          _POSITIVE.format("--anchor")),
    "extend-anchor-negative": (["extend", "--epsilon", "0.5", "--anchor", "-3"],
                               _POSITIVE.format("--anchor")),
    "energy-epsilon-nan": (["energy", "--p", "1", "--radii", "0.3", "--epsilon", "nan"],
                           _POSITIVE.format("epsilon")),
    "energy-epsilon-negative": (["energy", "--p", "1", "--radii", "0.3", "--epsilon", "-1"],
                                _POSITIVE.format("epsilon")),
    "extend-queries-bad": (["extend", "--epsilon", "0.5", "--queries", "1,x"],
                           "bad --queries list: invalid literal for int() with base 10: 'x'"),
    "extend-queries-empty": (["extend", "--epsilon", "0.5", "--queries", ","],
                             "empty --queries list"),
    "energy-radii-bad": (["energy", "--p", "1", "--radii", "0.5,x"],
                         "bad --radii list: could not convert string to float: 'x'"),
}


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "nonconstant"])
@pytest.mark.parametrize("case", BAD_PARAMETERS.values(), ids=BAD_PARAMETERS.keys())
def test_bad_parameter_exit1_on_both_paths(tmp_path, capsys, case, constant):
    argv, error = case
    path = _cloud_file(tmp_path, with_masses=True)
    if constant:
        doc = json.loads(Path(path).read_text())
        doc["values"] = [0.3] * len(doc["values"])
        path = _write(tmp_path, "constant.json", doc)
    out = tmp_path / "out.json"
    code = main([argv[0], "--input", path, *argv[1:], "--output", str(out)])
    assert code == 1 and not out.exists()
    assert json.loads(capsys.readouterr().out) == {"error": error}


GOLDEN_CLOUD = str(Path(__file__).parent / "golden" / "cloud.json")


@pytest.mark.parametrize("epsilon", ["1e-9", "1e-15", "1e-300"])
@pytest.mark.parametrize("argv", [["verify", "--xi", "0.1"], ["extend", "--queries", "all"],
                                  ["energy", "--p", "2", "--radii", "0.2,0.4,0.6"]],
                         ids=["verify", "extend", "energy"])
def test_tiny_epsilon_runs_or_schedule_too_shallow(tmp_path, capsys, argv, epsilon):
    # eps / L << 1: a report, or a clean ScheduleTooShallow exit, never a traceback.
    out = tmp_path / "out.json"
    code = main([argv[0], "--input", GOLDEN_CLOUD, *argv[1:], "--epsilon", epsilon,
                 "--output", str(out)])
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    if code == 0:
        _check_schema(out)
    else:
        assert code == 1 and not out.exists()
        doc = json.loads(stdout)
        assert set(doc) == {"error", "required_span_low", "required_span_high"}
        assert doc["error"].startswith("extend schedule: ")


# --- energy ------------------------------------------------------------------


def test_energy_endpoint_grid(tmp_path):
    out = str(tmp_path / "e.json")
    grid = _grid_file(tmp_path, n=1001)
    assert main(["energy", "--input", grid, "--p", "2",
                 "--radii", "0.5", "--output", out]) == 0
    doc = _check_schema(out)
    rep = doc["restriction_reports"][0]
    assert rep["E_C"] == 0.0
    assert rep["E_X"] == pytest.approx(2.0, abs=1e-12)
    assert "integrand-level" in doc["note"]


def test_energy_with_masses_and_bad_p(tmp_path, capsys):
    out = str(tmp_path / "e.json")
    cloud = _cloud_file(tmp_path, seed=5, with_masses=True)
    assert main(["energy", "--input", cloud, "--p", "1",
                 "--radii", "0.2,0.5,0.9", "--output", out]) == 0
    _check_schema(out)
    assert main(["energy", "--input", cloud, "--p", "0.5",
                 "--radii", "0.5", "--output", out]) == 1
    assert "p must be" in json.loads(capsys.readouterr().out)["error"]


def test_energy_bad_radii(tmp_path, capsys):
    cloud = _cloud_file(tmp_path, seed=6)
    assert main(["energy", "--input", cloud, "--p", "1",
                 "--radii", "0.5,0.4", "--output", str(tmp_path / "e.json")]) == 1
    assert "radii" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("radii", ["nan", "inf", "0.3,nan"])
def test_energy_non_finite_radii_exit1(tmp_path, capsys, radii):
    cloud = _cloud_file(tmp_path, seed=6, with_masses=True)
    assert main(["energy", "--input", cloud, "--p", "1", "--radii", radii,
                 "--output", str(tmp_path / "e.json")]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_energy_infinite_xi_exit1(tmp_path, capsys):
    cloud = _cloud_file(tmp_path, seed=6, with_masses=True)
    assert main(["energy", "--input", cloud, "--p", "1", "--radii", "0.5",
                 "--xi", "inf", "--output", str(tmp_path / "e.json")]) == 1
    assert "xi" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("flags, error", [
    (["--p", "2000", "--radii", "0.2,0.5"], "energy total does not fit in binary64"),
    (["--p", "2", "--radii", "0.2", "--xi", "1e200"], "energy bound does not fit in binary64"),
], ids=["total", "bound"])
def test_energy_overflow_exit1(tmp_path, capsys, flags, error):
    # lips ** p, or (lip_g + xi) ** p, beyond binary64: an error, not an inf in the report.
    cloud = str(Path(__file__).parent / "golden" / "cloud.json")
    assert main(["energy", "--input", cloud, *flags, "--output", str(tmp_path / "e.json")]) == 1
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 and json.loads(out) == {"error": error} and err == ""


_LIP_OVERFLOW = {"error": "Lipschitz constant of the values does not fit in binary64",
                 "field": "values", "witness": {}}
_SCALE_OVERFLOW = {"error": "lipschitz constant times the diameter does not fit in binary64",
                   "field": "lipschitz", "witness": {"lipschitz": 1e308, "diameter": 3.0}}
_RATIO_UNDERFLOW = {"error": "ratio r_star = eps / (3 (L + eps)) underflows binary64"}
_TOP_OVERFLOW = {"error": "scale overflow extending to index 2"}
_SPAN_UNDERFLOW = {"error": "extend schedule: required scales underflow binary64",
                   "required_span_low": 0.0, "required_span_high": None}
# Three points 1e307 apart on a line, as a distance matrix.
_FAR_LINE = [[0, 1e307, 2e307], [1e307, 0, 1e307], [2e307, 1e307, 0]]


@pytest.mark.parametrize("far, values, lipschitz, argv, error", [
    # Lip(g, C) = |1e308 - -1e308| / 1 overflows.
    (2, [-1e308, 1e308], None, ["validate"], _LIP_OVERFLOW),
    (2, [-1e308, 1e308], None, ["verify", "--epsilon", "1"], _LIP_OVERFLOW),
    (2, [-1e308, 1e308], None, ["extend", "--epsilon", "1"], _LIP_OVERFLOW),
    # L * diameter overflows: every relative tolerance would be inf.
    (3, [0, 1], 1e308, ["verify", "--epsilon", "1"], _SCALE_OVERFLOW),
    (3, [0, 1], 1e308, ["extend", "--epsilon", "1"], _SCALE_OVERFLOW),
    (3, [0, 1], 1e308, ["energy", "--p", "1", "--radii", "0.5"], _SCALE_OVERFLOW),
    (10, [0, 1], 2e307, ["extend", "--epsilon", "2e307"],
     dict(_SCALE_OVERFLOW, witness={"lipschitz": 2e307, "diameter": 10.0})),
    # L * diameter fits, but 3 (L + eps) at the default eps = L does not.
    (3, [0, 1], 5e307, ["energy", "--p", "1", "--radii", "0.5"], _RATIO_UNDERFLOW),
    # r_star = 1 / (3 (5e307 + 1)) is subnormal.
    (3, [0, 1], 5e307, ["extend", "--epsilon", "1"], _RATIO_UNDERFLOW),
    (3, [0, 1], 5e307, ["verify", "--epsilon", "1"], _RATIO_UNDERFLOW),
    # The schedule fits, but the penalization at its top scale does not.
    (3, [0, 1], 5e307, ["extend", "--epsilon", "5e306"],
     {"error": "penalization at the top scale does not fit in binary64"}),
    # 3 L r_{k+1} < xi first holds at an index whose scale underflows binary64.
    (3, [0, 1], 2.5e307, ["verify", "--epsilon", "1e308"],
     {"error": "extend schedule: locality conditions unreachable in binary64",
      "required_span_low": 0.0, "required_span_high": None}),
    # The scale above the top one, which the bank's last band needs, overflows.
    (_FAR_LINE, [0, 1], None, ["extend", "--epsilon", "1"], _TOP_OVERFLOW),
    (_FAR_LINE, [0, 1], None, ["verify", "--epsilon", "1"], _TOP_OVERFLOW),
    (_FAR_LINE, [0, 1], None, ["energy", "--p", "1", "--radii", "1e306"], _TOP_OVERFLOW),
    # The smallest requested scale over 64 underflows to 0: a verification r_bar, an
    # energy radius, or the least distance (5e-324 between points 1 and 2).
    (3, [0, 1], None, ["verify", "--epsilon", "1", "--rbar", "5e-324"], _SPAN_UNDERFLOW),
    (3, [0, 1], None, ["energy", "--p", "1", "--radii", "5e-324"], _SPAN_UNDERFLOW),
    ([[0, 1, 1], [1, 0, 5e-324], [1, 5e-324, 0]], [0, 1], None, ["extend", "--epsilon", "1"],
     _SPAN_UNDERFLOW),
], ids=["validate-lip", "verify-lip", "extend-lip", "verify-scale", "extend-scale",
        "energy-scale", "extend-scale-2e307", "energy-ratio", "extend-ratio",
        "verify-ratio", "extend-penalization", "verify-locality", "extend-top-scale",
        "verify-top-scale", "energy-top-scale", "verify-span-low", "energy-span-low",
        "extend-span-low"])
def test_binary64_overflow_exit1(tmp_path, capsys, far, values, lipschitz, argv, error):
    # ``far`` is the third point of 0, 1, far on the line, or a whole distance matrix.
    points = ({"type": "matrix", "d": far} if isinstance(far, list)
              else {"type": "euclidean", "coords": [[0], [1], [far]]})
    doc = {"points": points, "subset": [0, 1], "values": values}
    if lipschitz is not None:
        doc["lipschitz"] = lipschitz
    path = _write(tmp_path, "x.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy's overflow RuntimeWarning included
        assert main([*argv, "--input", path, "--output", str(tmp_path / "o.json")]) == 1
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 and json.loads(out) == error and err == ""
    assert not (tmp_path / "o.json").exists()


# --- demo --------------------------------------------------------------------


def test_demo_counterexample_pass(capsys):
    assert main(["demo-counterexample", "--n", "1001", "--epsilon", "1",
                 "--xi", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out


def test_demo_coarse_grid(capsys):
    assert main(["demo-counterexample", "--n", "3", "--epsilon", "1",
                 "--xi", "0.1"]) == 0


def test_demo_rejects_zero_xi(capsys):
    assert main(["demo-counterexample", "--n", "11", "--epsilon", "1",
                 "--xi", "0"]) == 1


@pytest.mark.parametrize("xi", ["inf", "nan"])
def test_demo_rejects_non_finite_xi(capsys, xi):
    # an infinite locality bound Lip(g) + xi would pass vacuously
    assert main(["demo-counterexample", "--n", "11", "--epsilon", "1",
                 "--xi", xi]) == 1
    out = capsys.readouterr().out
    assert "RESULT" not in out and "xi" in json.loads(out)["error"]


@pytest.mark.parametrize("n, xi", [("2", "5"), ("11", "1.0"), ("11", "1")])
def test_demo_rejects_xi_at_least_one(capsys, n, xi):
    # the McShane cone's constant 1 is within Lip(g) + xi too: no separation
    assert main(["demo-counterexample", "--n", n, "--xi", xi]) == 1
    out = capsys.readouterr().out
    assert "RESULT" not in out and "(0, 1)" in json.loads(out)["error"]


@pytest.mark.parametrize("flags, error", [
    # A grid beyond 10000 points is rejected before its coordinates are built.
    (["--n", "10001"], "grid needs from 2 to 10000 points"),
    (["--n", "1" + "0" * 400], "grid needs from 2 to 10000 points"),
    (["--epsilon", "-1"], "--epsilon must be positive"),
], ids=["10001", "401-digits", "epsilon-negative"])
def test_demo_bad_argument_exit1(capsys, flags, error):
    assert main(["demo-counterexample", *flags]) == 1
    out = capsys.readouterr().out
    assert json.loads(out) == {"error": error}


def test_demo_runs_just_below_one(capsys):
    assert main(["demo-counterexample", "--n", "11", "--xi", "0.999"]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("radii", [",", "0.5,inf", "-0.1", "0.4,0.4"])
def test_energy_radii_rejected_by_the_shared_check(tmp_path, capsys, radii):
    cloud = _cloud_file(tmp_path, seed=6)
    assert main(["energy", "--input", cloud, "--p", "1", "--radii", radii,
                 "--output", str(tmp_path / "e.json")]) == 1
    assert "radii must be strictly increasing positive finite reals" in (
        json.loads(capsys.readouterr().out)["error"])


# --- plumbing ----------------------------------------------------------------


def test_missing_input_file(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in json.loads(capsys.readouterr().out)["error"]


def test_input_directory_exit1(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path)]) == 1
    assert "cannot read input" in json.loads(capsys.readouterr().out)["error"]


def test_input_not_utf8_exit1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"labels": ["caf\u00e9"]}'.encode("latin-1"))
    assert main(["validate", "--input", str(path)]) == 1
    assert "cannot read input" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_exit1(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "no" / "such.json"
    assert main(["extend", "--input", _grid_file(tmp_path), "--epsilon", "1",
                 "--output", str(out)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith("cannot write output")


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["validate", "--input", str(path)]) == 1
    assert "not valid JSON" in json.loads(capsys.readouterr().out)["error"]


def test_bad_usage_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--input", "x.json"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", "x.json", "--epsilon", "1", "--output", "v.json",
              "--inject-corruption"])   # no such option
    assert exc.value.code == 1


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # Plain np.unique imports numpy.ma, about 20 ms of every cold start; the
    # commands find distinct indices by a sort instead.  A fresh interpreter
    # runs each command in process and reports whether numpy.ma got loaded.
    src = Path(__file__).resolve().parent.parent / "src"
    inst, out = _cloud_file(tmp_path, with_masses=True), str(tmp_path / "out.json")
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1])\n"
        "from lipext.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[2])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n")
    commands = [["validate", "--input", inst],
                ["extend", "--input", inst, "--epsilon", "0.5", "--queries", "all",
                 "--output", out],
                ["verify", "--input", inst, "--epsilon", "0.5", "--output", out],
                ["energy", "--input", inst, "--p", "2", "--radii", "0.2,0.4", "--output", out]]
    run = subprocess.run([sys.executable, "-c", script, str(src), json.dumps(commands)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


MEMORY_PROBE = ("import lipext.cli\n"
                "print(next(int(line.split()[1]) for line in open('/proc/self/status')\n"
                "           if line.startswith('VmPeak:')))\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS and /proc/self/status are Linux only")
@pytest.mark.parametrize("command", [["extend", "--epsilon", "0.5"],
                                     ["verify", "--epsilon", "0.5"]])
def test_out_of_memory_exit1(tmp_path, command):
    """An allocation that fails ends in exit 1 with a JSON error carrying numpy's
    message, not in a traceback.  The child's address space is capped 32 MiB above
    what importing the CLI takes (measured in a child of its own); the 3000 x 3000
    distances of the bank's balls need 68.7 MiB."""
    import resource     # Unix only

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               OPENBLAS_NUM_THREADS="1")    # no BLAS thread buffers in the footprint
    probe = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env,
                           capture_output=True, text=True, check=True)
    cap = int(probe.stdout) * 1024 + (32 << 20)
    rng = np.random.default_rng(19)
    n = 3000
    inst = _write(tmp_path, "big.json", {
        "points": {"type": "euclidean", "coords": rng.uniform(0.0, 1.0, (n, 1)).tolist()},
        "subset": list(range(n)), "values": rng.uniform(0.0, 1.0, n).tolist()})

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    run = subprocess.run([sys.executable, "-m", "lipext.cli", command[0], "--input", inst,
                          *command[1:], "--output", str(tmp_path / "out.json")],
                         env=env, capture_output=True, text=True, preexec_fn=capped)
    assert run.returncode == 1, run.stderr
    doc = json.loads(run.stdout, parse_constant=lambda name: pytest.fail(name))
    assert doc["error"].startswith("out of memory: Unable to allocate")
    assert "Traceback" not in run.stderr
