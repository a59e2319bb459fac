"""tools/ladder.py: the rung table, its measurement and its checks, on tiny rungs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import ladder  # noqa: E402

# One fresh process adds tiny rungs to the table and runs each, as CI runs a rung,
# then says whether it imported numpy.
RUNNER = """
import sys
from functools import partial
import ladder
from ladder import Rung
cloud, graph = ("cloud_instance", 60, 6, False), ("graph_instance", 60, 6)
ladder.RUNGS.update({
    "tiny": Rung(("validate",), cloud),
    "tiny-verify": Rung(ladder.VERIFY, cloud, check=ladder._exhaustive),
    "wrong-exit": Rung(("validate",), cloud, exit=1),
    "tight": Rung(("validate",), cloud, mb=1.0),
    "corrupt": Rung(("validate",), graph, partial(ladder._far_pair, 3, 50), exit=1,
                    check=ladder._triangle),
})
for rung in sys.argv[2:]:
    print("status", rung, ladder.main([rung, sys.argv[1]]), flush=True)
print("numpy", "numpy" in sys.modules)
"""
TINY = ("tiny", "tiny-verify", "wrong-exit", "tight", "corrupt")


@pytest.fixture(scope="module")
def ladder_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "tools"),
               GITHUB_STEP_SUMMARY=str(out / "summary.md"))
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(out), *TINY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    status = {r: int(c) for _, r, c in (ln.split() for ln in lines if ln.startswith("status "))}
    return out, lines, status


def _said(lines, rung):
    return [ln for ln in lines if ln.startswith(f"- {rung}: ")]


def test_a_tiny_rung_reports_exit_peak_wall_and_cpus(ladder_run):
    out, lines, status = ladder_run
    measured = _said(lines, "tiny")
    assert len(measured) == 1
    assert re.fullmatch(r"- tiny: exit 0 peak RSS \d+\.\d MB wall \d+\.\d\d s cpus \d+",
                        measured[0])
    assert status["tiny"] == 0
    assert measured[0] in (out / "summary.md").read_text().splitlines()
    assert json.loads((out / "tiny.json").read_text())["subset"]


def test_a_report_check_reads_the_report(ladder_run):
    _, lines, status = ladder_run
    assert status["tiny-verify"] == 0
    assert _said(lines, "tiny-verify")[1].startswith("- tiny-verify: global_lipschitz exhaustive ")


@pytest.mark.parametrize("rung", ["wrong-exit", "tight"])
def test_a_wrong_exit_or_a_bound_under_the_peak_fails_the_rung(ladder_run, rung):
    _, lines, status = ladder_run
    assert status[rung] == 1
    assert _said(lines, rung)[0].startswith(f"- {rung}: exit 0 peak RSS ")


def test_the_corrupt_pair_gives_the_triangle_error(ladder_run):
    _, lines, status = ladder_run
    assert status["corrupt"] == 0
    measured, checked = _said(lines, "corrupt")
    assert measured.startswith("- corrupt: exit 1 ")
    assert checked.startswith("- corrupt: error triangle inequality violated witness ")
    assert "'i': 3" in checked and "'k': 50" in checked


def test_the_measuring_process_imports_no_numpy(ladder_run):
    assert ladder_run[1][-1] == "numpy False"


def test_the_workflow_runs_every_rung_of_the_table():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    named = set(re.findall(r"python tools/ladder\.py (\S+)", workflow))
    assert named == set(ladder.RUNGS)
    assert "python -c" not in workflow


@pytest.mark.parametrize("workload, peak, passed", [
    ("verify_graph", 500.0, True), ("extend_cloud", 199.0, True),
    ("extend_cloud", 200.0, False), ("energy_cloud", 60.0, False)])
def test_the_benchmark_verdict_bounds_peak_rss(tmp_path, workload, peak, passed):
    verdict = {"correct": True, "failed": 0, "metrics": {"peak_rss_mb": {"value": peak}}}
    (tmp_path / f"bench.{workload}.out").write_text("run 1\n" + json.dumps(verdict) + "\n")
    assert ladder.RUNGS["bench"].check(tmp_path / f"bench.{workload}")[1] is passed


@pytest.mark.parametrize("verdict, passed", [
    ({"correct": True, "failed": 0, "metrics": {}}, True),
    ({"correct": False, "failed": 0, "metrics": {}}, False),
    ({"correct": True, "failed": 1, "metrics": {}}, False)])
def test_the_traced_verdict_needs_correct_runs_and_no_failure(tmp_path, verdict, passed):
    (tmp_path / "bench-traced.verify_cloud.out").write_text(json.dumps(verdict) + "\n")
    text, ok = ladder.RUNGS["bench-traced"].check(tmp_path / "bench-traced.verify_cloud")
    assert ok is passed
    assert text == f"correct {verdict['correct']} failed {verdict['failed']}"


@pytest.mark.parametrize("global_note, other_note, passed", [
    ("exhaustive", "", True), ("pruned", "", False), ("exhaustive", "statistical: 100 pairs", False)])
def test_the_report_check_needs_every_pair_and_no_statistical_note(
        tmp_path, global_note, other_note, passed):
    checks = [{"name": "global_lipschitz", "note": global_note, "measured": 1.0, "allowed": 2.0},
              {"name": "restriction", "note": other_note}]
    (tmp_path / "r.report.json").write_text(json.dumps({"checks": checks}))
    assert ladder._exhaustive(tmp_path / "r") == (
        f"global_lipschitz {global_note} measured 1.0 allowed 2.0", passed)
