"""Every input ends in a clean exit: a structure-aware fuzz of the command line.

Each example takes a golden case (an instance file and the flags its report was
generated with), replaces the values at up to two JSON paths of the instance
(``masses`` and ``lipschitz`` included, present or not) and up to two flags with
hostile values, and runs the command in process under the warnings-as-errors
filter.  ``main`` must return 0, 1 or 2, or exit through argparse's usage error
(``SystemExit(1)``, message on stderr); stdout must be strict JSON; an exit-1
payload carries ``error``; every report validates against the report schema.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st
from jsonschema import Draft7Validator

from lipext.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"
VALIDATOR = Draft7Validator(json.loads((ROOT / "docs" / "report_schema.json").read_text()))
NAMES = ("cloud", "graph", "ultrametric", "discrete", "constant", "grid")
DOCS = {name: json.loads((GOLDEN / f"{name}.json").read_text()) for name in NAMES}
CASES = [(c["instance"][:-len(".json")], c["command"], c["flags"])
         for c in json.loads((GOLDEN / "cases.json").read_text())
         if f"{c.get('instance')}"[:-len(".json")] in NAMES]
CASES += [(name, "validate", []) for name in NAMES]
FLAGS = {"validate": [],
         "extend": ["--epsilon", "--queries", "--anchor", "--bounded", "--cutoff"],
         "verify": ["--epsilon", "--xi", "--rbar", "--seed"],
         "energy": ["--p", "--radii", "--xi", "--epsilon"]}
HOSTILE = [0, -0.0, 2, -1, 5e-324, 1e308, -1e308, 10 ** 400, -10 ** 400, 2 ** 63, 0.5,
           None, True, False, "", "1", "nan", [], [[]], [1, [2]], [None], {},
           {"type": "matrix"}]
HOSTILE_FLAGS = ["nan", "inf", "-inf", "0", "-0", "5e-324", "1e-300", "1e308", "1e400",
                 "-1", "0.5", "2", "9223372036854775808", "", "x", "all", "1,2", "3,2,1",
                 "1,,2", None]    # None drops the flag


def _strict(text):
    """``text`` parsed as JSON, rejecting NaN and the infinities."""
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _replace(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``, copying only the containers on it."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replace(copy.get(path[0]) if isinstance(copy, dict) else copy[path[0]],
                             path[1:], value)
    return copy


@st.composite
def _json_path(draw, doc):
    """A top-level key (``masses`` and ``lipschitz`` too), then a descent into it."""
    path = [draw(st.sampled_from(sorted(set(doc) | {"masses", "lipschitz"})))]
    node = doc.get(path[0])
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict)
                   else st.integers(0, len(node) - 1))
        path.append(key)
        node = node[key]
    return path


@st.composite
def _run(draw):
    name, command, flags = draw(st.sampled_from(CASES))
    doc = DOCS[name]
    for _ in range(draw(st.integers(0, 2))):
        doc = _replace(doc, draw(_json_path(doc)), draw(st.sampled_from(HOSTILE)))
    pairs = []
    for flag in flags:      # a golden flag list: options, each but --cutoff with a value
        if flag.startswith("--"):
            pairs.append([flag])
        else:
            pairs[-1].append(flag)
    for _ in range(draw(st.integers(0, 2)) if FLAGS[command] else 0):
        flag, value = draw(st.sampled_from(FLAGS[command])), draw(st.sampled_from(HOSTILE_FLAGS))
        pairs = [p for p in pairs if p[0] != flag]
        if value is not None:
            pairs.append([flag] if flag == "--cutoff" else [flag, value])
    return doc, command, [token for pair in pairs for token in pair]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_run())
def test_every_input_ends_in_a_clean_exit(workdir, run):
    doc, command, flags = run
    source, report = workdir / "instance.json", workdir / "report.json"
    source.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    argv = [command, "--input", str(source), *flags]
    argv += ["--output", str(report)] if command != "validate" else []
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            code = main(argv)
        except SystemExit as usage:     # argparse: bad usage, message on stderr
            assert usage.code == 1 and out.getvalue() == "" and err.getvalue(), argv
            event(f"{command}: usage error")
            return
    assert code in (0, 1, 2), argv
    event(f"{command}: exit {code}")    # shown by --hypothesis-show-statistics
    if code == 1:
        payload = _strict(out.getvalue())
        assert isinstance(payload["error"], str), argv
        return
    VALIDATOR.validate(_strict(out.getvalue() if command == "validate" else report.read_text()))
    assert command == "validate" or out.getvalue() == "", argv
