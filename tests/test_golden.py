"""CLI reports are byte-identical to the stored golden reports.

The instances, flags and reports live in ``tests/golden`` (see its
``generate.py``); each case reruns one CLI command and compares bytes and the
exit code.  A case without an instance (``demo-counterexample``) takes no
``--input``/``--output``: its stdout is compared instead.
"""

import json
from pathlib import Path

import pytest

from lipext import verification
from lipext.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["report"] for c in CASES])
def test_golden_report_bytes(case, tmp_path, capsys):
    if case["instance"] is None:
        assert main([case["command"], *case["flags"]]) == case["exit"]
        got = capsys.readouterr().out.encode("utf-8")
    else:
        out = tmp_path / case["report"]
        argv = [case["command"], "--input", str(GOLDEN / case["instance"]),
                *case["flags"], "--output", str(out)]
        assert main(argv) == case["exit"]
        got = out.read_bytes()
    assert got == (GOLDEN / case["report"]).read_bytes()


GRAPH_CASES = [c for c in CASES if c["instance"] == "graph.json"]


@pytest.mark.parametrize("budget", [None, 4096])
@pytest.mark.parametrize("case", GRAPH_CASES, ids=[c["command"] for c in GRAPH_CASES])
def test_negative_zero_diagonal_gives_the_golden_bytes(case, budget, tmp_path, monkeypatch):
    """The validator admits -0.0 on an explicit matrix's diagonal; every report
    is the one of the matrix with 0.0 there, also the quartile radii of verify
    (with the default entry budget, and with one below the 160-point matrix so
    the selection histograms its bits)."""
    if budget is not None:
        monkeypatch.setattr(verification, "_SCAN_BLOCK", budget)
    doc = json.loads((GOLDEN / "graph.json").read_text())
    for i, row in enumerate(doc["points"]["d"]):
        row[i] = -0.0
    instance = tmp_path / "graph.json"
    instance.write_text(json.dumps(doc))
    assert '[-0.0, ' in instance.read_text()
    out = tmp_path / case["report"]
    argv = [case["command"], "--input", str(instance), *case["flags"], "--output", str(out)]
    assert main(argv) == case["exit"]
    assert out.read_bytes() == (GOLDEN / case["report"]).read_bytes()
