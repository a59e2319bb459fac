"""Benchmark of the lipext command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs one ``lipext`` CLI process at a time, from
``src/`` with ``LIPEXT_THREADS`` unset (its default of 1).  The instance file
is generated from the workload and ``--seed`` alone, under ``.bench_out/``.

``--trace 0`` times ``lipext validate`` a few times (``setup_s``), then runs
the workload's command repeatedly for about ``--seconds`` seconds (``wall_s``
and ``peak_rss_mb``, medians over the runs).  ``--trace 1`` runs the command
once as a CLI process, then in process, untraced and traced in turn (see
tracer.py), and reports the per-layer metrics as medians over the traced runs.

Every run's report is checked (checks.py), and all reports of one invocation
must be byte-identical.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
fail ratio is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import check_report, schema_validator
from tracer import PER_LAYER, layer_metrics, spans_from_json
from workloads import WORKLOADS, instance_bytes

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# The first validate of an invocation runs slow (fresh memory for the child),
# so it is checked but left out of the setup_s median.
SETUP_WARMUP = 1
SETUP_REPEATS = 3
MIN_SAMPLES = 3
# Stop starting children once this many seconds have passed, so that every
# invocation ends well inside 180 s.
DEADLINE_S = 150.0
HERE = Path(__file__).resolve().parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spawn(argv: list[str], env: dict, timeout: float) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB).

    A child still running after ``timeout`` seconds is killed, which reads as
    a failed run.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr)
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def source_digest(root: Path) -> str:
    """sha256 over the program's source tree: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


class Bench:
    """State of one invocation: the instance, the checks and the failure count."""

    def __init__(self, root: Path, name: str, seed: int, trace: int,
                 started: float):
        self.workload = WORKLOADS[name]
        self.kind = self.workload.cli[0]
        self.started = started
        self.work = root / ".bench_out" / f"{name}-{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        data = instance_bytes(name, seed)
        self.instance_path = self.work / "instance.json"
        self.instance_path.write_bytes(data)
        self.instance_sha = sha256(data)
        self.instance = json.loads(data)
        self.validator = schema_validator(root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("LIPEXT_THREADS", None)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}    # command -> sha256 of its first report
        self.checked: set[str] = set()       # report digests that passed the checks

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def command(self, kind: str, report: Path) -> list[str]:
        args = ("validate",) if kind == "validate" else self.workload.cli
        return [*args, "--input", str(self.instance_path), "--output", str(report)]

    def run(self, argv: list[str], kind: str, report: Path) -> tuple[float, float]:
        """Run one child writing ``report``, check it, and count the outcome."""
        report.unlink(missing_ok=True)
        self.attempted += 1
        code, wall, rss = spawn(argv, self.env, self.remaining() + 20.0)
        error = None
        if code != 0:
            error = f"exit code {code}"
        elif not report.exists():
            error = "no report written"
        else:
            digest = sha256(report.read_bytes())
            if self.digests.setdefault(kind, digest) != digest:
                error = "report bytes differ from the first run's"
            elif digest not in self.checked:
                error = check_report(kind, self.validator, self.instance, report)
                if error is None:
                    self.checked.add(digest)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{kind}: {error}")
        return wall, rss

    def cli(self, kind: str) -> tuple[float, float]:
        report = self.work / f"{kind}.json"
        argv = [sys.executable, "-m", "lipext.cli", *self.command(kind, report)]
        return self.run(argv, kind, report)

    def in_process(self, trace: int) -> dict | None:
        """One in-process run; its spans, or None when the run failed."""
        report = self.work / f"{self.kind}.json"
        spans_path = self.work / f"spans{trace}.json"
        argv = [sys.executable, str(HERE / "inproc.py"), str(spans_path),
                str(trace), "--", *self.command(self.kind, report)]
        before = self.failed
        self.run(argv, self.kind, report)
        if self.failed != before or not spans_path.exists():
            return None
        return json.loads(spans_path.read_text())


def _enough(samples: list[float], minimum: int, t0: float, seconds: float,
            bench: Bench) -> bool:
    """Stop when the next run would pass the time budget or the deadline."""
    if len(samples) >= minimum and (time.perf_counter() - t0
                                    + statistics.median(samples) > seconds):
        return True
    return statistics.median(samples) > bench.remaining()


def measure(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, their sample counts and the raw samples."""
    setup = [bench.cli("validate")[0] for _ in range(SETUP_WARMUP + SETUP_REPEATS)]
    walls, rss = [], []
    t0 = time.perf_counter()
    while True:
        wall, peak = bench.cli(bench.kind)
        walls.append(wall)
        rss.append(peak)
        if _enough(walls, MIN_SAMPLES, t0, seconds, bench):
            break
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup[SETUP_WARMUP:]),
               "peak_rss_mb": statistics.median(rss)}
    counts = {"wall_s": len(walls), "setup_s": SETUP_REPEATS,
              "peak_rss_mb": len(rss)}
    return metrics, counts, {"setup_s": setup, "wall_s": walls, "peak_rss_mb": rss}


def _root_s(run: dict) -> float:
    """Duration of an in-process run's root span (its first)."""
    _, start, end, *_ = run["spans"][0]
    return end - start


def trace(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics, their sample counts and the traced-run details."""
    bench.cli(bench.kind)
    rows, absent, durations = [], set(), []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        base, traced = bench.in_process(0), bench.in_process(1)
        durations.append(time.perf_counter() - start)
        if base is not None and traced is not None:
            overhead = _root_s(traced) - _root_s(base)
            rows.append(layer_metrics(spans_from_json(traced["spans"]), overhead))
            absent.update(traced["absent"])
        if _enough(durations, 1, t0, seconds, bench):
            break
    metrics = {name: statistics.median(r[name] for r in rows) if rows else 0.0
               for name, _, _ in PER_LAYER}
    counts = dict.fromkeys(metrics, len(rows))
    return metrics, counts, {"traced_runs": len(rows), "absent": sorted(absent)}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/lipext/cli.py", "docs/report_schema.json"):
        if not (root / needed).is_file():
            print(f"run.py: {needed} not found; run from the root of a lipext "
                  "checkout", file=sys.stderr)
            return 2

    bench = Bench(root, args.workload, args.seed, args.trace, started)
    if args.trace:
        values, counts, detail = trace(bench, args.seconds)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, counts, detail = measure(bench, args.seconds)
        units = dict(END_TO_END)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "instance_sha256": {bench.instance_path.name: bench.instance_sha},
        "report_sha256": bench.digests,
    }
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    (bench.work / "result.json").write_text(json.dumps(
        {"provenance": provenance, "samples": detail, "errors": bench.errors,
         **result}, indent=2))
    if bench.failed == 0:
        # The inputs are regenerated from the seed; keep only the result.
        for path in bench.work.iterdir():
            if path.name != "result.json":
                path.unlink()

    for line in bench.errors:
        print(f"FAILED {line}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit} (median of {counts[name]} runs)")
    print(f"fail_ratio = {bench.failed / bench.attempted!r} "
          f"({bench.failed} of {bench.attempted} runs failed)")
    print(json.dumps({"provenance": provenance, "samples": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
