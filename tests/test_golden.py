"""CLI reports are byte-identical to the stored golden reports.

The instances, flags and reports live in ``tests/golden`` (see its
``generate.py``); each case reruns one CLI command and compares bytes and the
exit code.  A case without an instance (``demo-counterexample``) takes no
``--input``/``--output``: its stdout is compared instead, and a case marked
``"corrupt"`` runs inside ``conftest.corrupted_extension``.
"""

import contextlib
import json
from pathlib import Path

import pytest

from lipext import metric
from lipext.cli import main

from conftest import corrupted_extension, count_starts, fake_cpus

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _report_bytes(case, tmp_path, capsys):
    with corrupted_extension() if case.get("corrupt") else contextlib.nullcontext():
        if case["instance"] is None:
            assert main([case["command"], *case["flags"]]) == case["exit"]
            return capsys.readouterr().out.encode("utf-8")
        out = tmp_path / case["report"]
        argv = [case["command"], "--input", str(GOLDEN / case["instance"]),
                *case["flags"], "--output", str(out)]
        assert main(argv) == case["exit"]
        return out.read_bytes()


@pytest.mark.parametrize("case", CASES, ids=[c["report"] for c in CASES])
def test_golden_report_bytes(case, tmp_path, capsys):
    assert _report_bytes(case, tmp_path, capsys) == (GOLDEN / case["report"]).read_bytes()


@pytest.mark.parametrize("name", ["_BLOCK", "_TOP_K"])
@pytest.mark.parametrize("case", CASES, ids=[c["report"] for c in CASES])
def test_golden_bytes_do_not_depend_on_block_or_top_k(case, name, tmp_path, capsys,
                                                      monkeypatch):
    """One-row blocks in every scan, or one kept pair (every other ball is settled
    by a walk of its own members in ``ball_lips``): each blocked step is per row
    or per column, or a max, min or histogram over the blocks, so the bytes stay."""
    monkeypatch.setattr(metric, name, 1)
    assert _report_bytes(case, tmp_path, capsys) == (GOLDEN / case["report"]).read_bytes()


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("block", [None, 1024])
@pytest.mark.parametrize("case", CASES, ids=[c["report"] for c in CASES])
def test_golden_bytes_do_not_depend_on_the_worker_count(case, block, cpus, tmp_path, capsys,
                                                        monkeypatch):
    """Every loop on ``metric._pool`` (the triangle strips, the query blocks, the
    cones, the quartile passes) gives the same bytes on 1, 2 and 4 workers, at the
    default budget and at one low enough that each loop has many tasks (and the
    quartile passes of ``large_cloud``'s 600 points are over the floor)."""
    fake_cpus(monkeypatch, cpus)
    started = count_starts(monkeypatch)
    if block is not None:
        monkeypatch.setattr(metric, "_BLOCK", block)
    assert _report_bytes(case, tmp_path, capsys) == (GOLDEN / case["report"]).read_bytes()
    if block is not None and cpus > 1 and case["report"] == "large_cloud.verify.json":
        assert started


POOL_CASES = [c for c in CASES if c["instance"] in ("cloud.json", "large_cloud.json", "graph.json")
              and c["command"] in ("extend", "verify") and not c.get("corrupt")]


@pytest.mark.parametrize("fail", [(1,), (2,), "all"], ids=["first", "second", "every"])
@pytest.mark.parametrize("case", POOL_CASES, ids=[c["report"] for c in POOL_CASES])
def test_golden_bytes_when_a_thread_cannot_start(case, fail, tmp_path, capsys, monkeypatch):
    """Four faked CPUs, a low budget and no work floor (so every loop of more than
    one task asks for threads, also on the 40-point cloud), and ``Thread.start``
    raising on its first call, its second, or every call: the workers that run
    take the tasks of those that could not start, and the bytes stay."""
    fake_cpus(monkeypatch, 4)
    monkeypatch.setattr(metric, "_BLOCK", 1024)
    monkeypatch.setattr(metric, "_FLOOR", 0)
    started = count_starts(monkeypatch, fail)
    assert _report_bytes(case, tmp_path, capsys) == (GOLDEN / case["report"]).read_bytes()
    assert fail != "all" or started == []


GRAPH_CASES = [c for c in CASES if c["instance"] == "graph.json"]


@pytest.mark.parametrize("budget", [None, 4096])
@pytest.mark.parametrize("case", GRAPH_CASES, ids=[c["command"] for c in GRAPH_CASES])
def test_negative_zero_diagonal_gives_the_golden_bytes(case, budget, tmp_path, monkeypatch):
    """The validator admits -0.0 on an explicit matrix's diagonal; every report
    is the one of the matrix with 0.0 there, also the quartile radii of verify
    (with the default entry budget, and with one below the 160-point matrix so
    the selection histograms its bits)."""
    if budget is not None:
        monkeypatch.setattr(metric, "_BLOCK", budget)
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
