"""CLI reports are byte-identical to the stored golden reports.

The instances, flags and reports live in ``tests/golden`` (see its
``generate.py``); each case reruns one CLI command and compares bytes and the
exit code.  A case without an instance (``demo-counterexample``) takes no
``--input``/``--output``: its stdout is compared instead.
"""

import json
from pathlib import Path

import pytest

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
