"""The scale ladder: one rung of the CI checks past benchmark size, measured end to end.

Usage, from anywhere:

    python tools/ladder.py RUNG [OUTDIR]

A rung writes its instance file (under OUTDIR, a temporary directory by default),
runs the command under test as a child process and reads the child's exit code, peak
RSS (``ru_maxrss`` through ``os.wait4``) and wall seconds, timed from its start. It
then checks them, and the report, against the rung's table entry. Each line goes to
stdout and, when ``GITHUB_STEP_SUMMARY`` is set, to the run summary. The exit status
is 0 when every check of the rung holds, else 1.

Every child runs with numpy's warnings as errors. This process imports no numpy and
never holds an instance: a child's ``ru_maxrss`` starts from its parent's high-water
mark (vfork), so the instance is written by a separate process and the parent stays
smaller than any child it measures.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WARNINGS = "error::RuntimeWarning,error::DeprecationWarning"
BENCH = ("verify_graph", "verify_cloud", "extend_cloud", "energy_cloud")


@dataclass(frozen=True)
class Rung:
    """``args``: the lipext subcommand and its flags (``--input`` and ``--output`` are
    added), or, for a rung without an instance, perfbench/run.py's flags on each BENCH
    workload.  ``instance``: a perfbench/workloads.py generator and its arguments after
    the seed-0 rng, whose document ``edit`` may change.  ``check`` reads the run's files
    and returns (summary text, passed)."""
    args: tuple[str, ...]
    instance: tuple | None = None
    edit: Callable | None = None
    exit: int = 0
    mb: float = math.inf
    seconds: float = math.inf
    check: Callable | None = None


def _far_pair(i: int, j: int, doc: dict) -> None:
    """Set d(i, j) = d(j, i) = 3 max(d): one triangle inequality fails."""
    d = doc["points"]["d"]
    d[i][j] = d[j][i] = 3 * max(map(max, d))


def _coordinates(dim: int, seed: int, doc: dict) -> None:
    """Replace the coordinates with uniform ones in ``dim`` dimensions from ``seed``."""
    import numpy as np
    n = len(doc["points"]["coords"])
    doc["points"]["coords"] = np.random.default_rng(seed).uniform(0.0, 1.0, (n, dim)).tolist()


def _exhaustive(stem: Path) -> tuple[str, bool]:
    """The global check read every pair, and no check is statistical."""
    checks = json.loads(Path(f"{stem}.report.json").read_text())["checks"]
    g = next(c for c in checks if c["name"] == "global_lipschitz")
    return (f"global_lipschitz {g['note']} measured {g['measured']} allowed {g['allowed']}",
            g["note"] == "exhaustive" and not any("statistical" in c["note"] for c in checks))


def _triangle(stem: Path) -> tuple[str, bool]:
    out = json.loads(Path(f"{stem}.out").read_text())
    return (f"error {out.get('error')} witness {out.get('witness')}",
            out.get("error") == "triangle inequality violated")


def _verdict(bounds: dict, stem: Path) -> tuple[str, bool]:
    """run.py's last line: every run correct, none failed, peak_rss_mb under the bound."""
    r = json.loads(Path(f"{stem}.out").read_text().splitlines()[-1])
    m, workload = r.get("metrics", {}), stem.name.rpartition(".")[2]
    text = "".join(f"{k} {m[k]['value']} " for k in ("wall_s", "setup_s", "peak_rss_mb") if k in m)
    return (f"{text}correct {r.get('correct')} failed {r.get('failed')}",
            r["correct"] is True and r["failed"] == 0
            and (workload not in bounds or m["peak_rss_mb"]["value"] < bounds[workload]))


VERIFY = ("verify", "--epsilon", "0.5")
RUNGS = {
    # n=8000, |C|=800: ball_lips holds d(centers, members) once and reads its kept pairs
    # in place, and the McShane fragment's two profiles share it; the bound leaves room
    # for the runner's numpy build. The global check must read every pair at a size
    # tier-1 does not reach.
    "verify-8000": Rung(VERIFY, ("cloud_instance", 8000, 800, False), mb=120, check=_exhaustive),
    # energy runs ball_lips with the mass support as centers and every point as members,
    # the heaviest use of its kept-pair prefixes and of its recursion.
    "energy-8000": Rung(("energy", "--p", "2", "--radii", "0.2,0.4,0.6"),
                        ("cloud_instance", 8000, 800, True)),
    # The n=16000 rung of ROADMAP item 16. CI runs it again under taskset -c 0 and
    # compares the reports byte for byte: every loop on lipext.metric._pool is over
    # the work floor here, so this checks the multi-worker path at scale.
    "verify-16000": Rung(VERIFY, ("cloud_instance", 16000, 1600, False), check=_exhaustive),
    # The extents come from the closest-pair sweep and the walk of the few points that
    # can reach the diameter: an all-pairs walk at this n overruns the bound.
    "validate-100000": Rung(("validate",), ("cloud_instance", 100000, 1000, False), seconds=10),
    # The triangle certificate at about ten times verify_graph's n^3, on up to 4 strips.
    "validate-matrix-1500": Rung(("validate",), ("graph_instance", 1500, 150)),
    # Rows 3 and 1200 lie in different strips: no worker may lose a violation.
    "validate-matrix-1500-corrupt": Rung(("validate",), ("graph_instance", 1500, 150),
                                         partial(_far_pair, 3, 1200), exit=1, check=_triangle),
    # No benchmark workload reaches the np.sum fill that every Euclidean distance takes
    # from 8 coordinates on.
    "verify-16-coordinates": Rung(VERIFY, ("cloud_instance", 3000, 300, False),
                                  partial(_coordinates, 16, 1)),
    # perfbench/run.py on each workload at the held-out seed 1 (the measured line is
    # run.py's own). It exits 0 even when a run fails, so its verdict is read. verify_graph is the only explicit-matrix path,
    # verify_cloud the only Euclidean run of the whole battery. extend_cloud's bound
    # catches a return of the n*n*dim geometry temporaries (that extend builds no n*n
    # matrix is pinned by tests/test_extension.py), energy_cloud's a cached n*n matrix
    # or a |members|^2 pair-ratio matrix in ball_lips. The warnings filter reaches the
    # CLI processes run.py starts: a numpy overflow fails the run.
    "bench": Rung(("--seconds", "1"),
                  check=partial(_verdict, {"extend_cloud": 200, "energy_cloud": 60})),
    # --trace 1 wraps perfbench/tracer.py's LAYERS in process, and fails a run whose
    # report bytes differ from the first run's.
    "bench-traced": Rung(("--seconds", "1", "--trace", "1"), check=partial(_verdict, {})),
}


def _write(instance: tuple, edit: Callable | None, path: Path) -> None:
    """Write a rung's instance file; runs in its own process, which imports numpy."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import workloads
    doc = getattr(workloads, instance[0])(np.random.default_rng(0), *instance[1:])
    if edit is not None:
        edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def measure(argv: list[str], stdout) -> tuple[int, float, float]:
    """(exit code, peak RSS in MB, wall seconds) of ``python argv`` run to completion
    from the root of the checkout."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL, stdout=stdout,
                            cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"))
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, wall


def _say(label: str, text: str) -> None:
    line = f"- {label}: {text}"
    print(line, flush=True)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as fh:
            fh.write(line + "\n")


def run(name: str, out: Path) -> bool:
    """Run rung ``name`` with its files under ``out``; True when every check holds."""
    rung, out = RUNGS[name], out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    if rung.instance is None:
        runs = [(f"{name}.{w}", ["perfbench/run.py", "--workload", w, "--seed", "1",
                                 *rung.args]) for w in BENCH]
    else:
        writer = multiprocessing.get_context("spawn").Process(
            target=_write, args=(rung.instance, rung.edit, out / f"{name}.json"))
        writer.start()
        writer.join()
        if writer.exitcode != 0:
            _say(name, f"the instance writer exited {writer.exitcode}")
            return False
        stem = out / name
        runs = [(name, ["-m", "lipext.cli", rung.args[0], "--input", f"{stem}.json",
                        *rung.args[1:], "--output", f"{stem}.report.json"])]
    ok = True
    for label, argv in runs:
        with open(out / f"{label}.out", "wb") as sink:
            code, mb, wall = measure(argv, sink)
        # The CPUs of the affinity mask: loops over lipext.metric._pool's floor use up to 4.
        _say(label, f"exit {code} peak RSS {mb:.1f} MB wall {wall:.2f} s "
                    f"cpus {len(os.sched_getaffinity(0))}")
        passed = code == rung.exit and mb <= rung.mb and wall <= rung.seconds
        if passed and rung.check is not None:
            text, passed = rung.check(out / label)
            _say(label, text)
        ok = ok and passed
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one rung of the scale ladder.")
    parser.add_argument("rung", choices=RUNGS)
    parser.add_argument("outdir", nargs="?", type=Path)
    args = parser.parse_args(argv)
    os.environ["PYTHONWARNINGS"] = WARNINGS     # inherited by every child
    with tempfile.TemporaryDirectory() as tmp:
        return 0 if run(args.rung, args.outdir or Path(tmp)) else 1


if __name__ == "__main__":
    sys.exit(main())
