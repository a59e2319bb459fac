"""Write the golden instances and CLI reports checked by ``tests/test_golden.py``.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/golden/generate.py

Every instance is a function of its fixed seed.  For each instance the script
runs ``verify``, ``extend`` and ``energy`` through ``lipext.cli.main`` and
stores each report next to the instance; ``EXTRA`` adds single runs (the
failure path, a ``verify`` run inside ``conftest.corrupted_extension``, and
``demo-counterexample``, whose stdout is the report).  The flags, exit codes
and a ``"corrupt": true`` on the failure-path case go to ``cases.json``.
Reports pin the byte-identical output contract: regenerate them only for a
change that is meant to alter outputs, and say so in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from lipext.cli import main

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from conftest import corrupted_extension  # noqa: E402


def cloud(seed: int, n: int = 40, size: int = 8, dim: int = 3) -> dict:
    """Euclidean cloud in [0, 1]^dim of n points, |C|=size, with masses on the subset."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, (n, dim))
    subset = np.sort(rng.choice(n, size=size, replace=False))
    values = np.sin(4.0 * coords[subset, 0]) + coords[subset, 2] ** 2
    masses = np.zeros(n)
    masses[subset] = rng.uniform(0.2, 1.0, len(subset))
    return {"points": {"type": "euclidean", "coords": coords.tolist()},
            "subset": subset.tolist(), "values": values.tolist(),
            "masses": masses.tolist()}


def large_cloud(seed: int) -> dict:
    """Euclidean cloud with n=600, |C|=60: its balls span several row chunks."""
    return cloud(seed, n=600, size=60)


def wide_cloud(seed: int) -> dict:
    """Euclidean cloud with n=60, |C|=8 in 16 coordinates: every other instance
    has at most 3, so this one alone fills its matrix by a sum over 8 or more."""
    return cloud(seed, n=60, size=8, dim=16)


def grid(seed: int) -> dict:
    """Unit-interval grid of 21 points with random data on every fourth point."""
    rng = np.random.default_rng(seed)
    n = 21
    subset = list(range(0, n, 4))
    return {"points": {"type": "euclidean",
                       "coords": [[i / (n - 1)] for i in range(n)]},
            "subset": subset,
            "values": rng.uniform(-1.0, 1.0, len(subset)).tolist()}


def ultrametric(seed: int) -> dict:
    """27 leaves of the ternary tree of depth 3; d = 1, 1/2, 1/4 by common prefix."""
    rng = np.random.default_rng(seed)
    digits = np.array([[i // 9, (i // 3) % 3, i % 3] for i in range(27)])
    prefix = np.zeros((27, 27), dtype=int)
    same = np.ones((27, 27), dtype=bool)
    for level in range(3):
        same &= digits[:, None, level] == digits[None, :, level]
        prefix += same
    d = np.where(prefix == 3, 0.0, 0.5 ** prefix)
    subset = np.sort(rng.choice(27, size=9, replace=False))
    return {"points": {"type": "matrix", "d": d.tolist()},
            "subset": subset.tolist(),
            "values": rng.uniform(-1.0, 1.0, len(subset)).tolist()}


def discrete(seed: int) -> dict:
    """Discrete metric on 15 points (every distance 1) with unit-range data."""
    rng = np.random.default_rng(seed)
    n = 15
    d = 1.0 - np.eye(n)
    subset = np.sort(rng.choice(n, size=6, replace=False))
    masses = np.zeros(n)
    masses[subset] = rng.uniform(0.2, 1.0, len(subset))
    return {"points": {"type": "matrix", "d": d.tolist()},
            "subset": subset.tolist(),
            "values": rng.uniform(0.0, 1.0, len(subset)).tolist(),
            "masses": masses.tolist()}


def clustered(seed: int) -> dict:
    """8 anchors in [0, 1]^3, each with 12 points in a 0.004-wide box around it.

    Every point lies so close to its anchor that localized evaluation never
    falls back to the full infimum: the verify report carries no fallback note.
    """
    rng = np.random.default_rng(seed)
    anchors = rng.uniform(0.0, 1.0, (8, 3))
    offsets = rng.uniform(-0.002, 0.002, (8, 12, 3))
    coords = np.vstack([anchors, (anchors[:, None, :] + offsets).reshape(-1, 3)])
    values = np.sin(4.0 * anchors[:, 0]) + anchors[:, 2] ** 2
    return {"points": {"type": "euclidean", "coords": coords.tolist()},
            "subset": list(range(8)), "values": values.tolist()}


def graph(seed: int, n: int = 160) -> dict:
    """Shortest-path metric of a weighted ring on n points plus 2n random chords.

    n = 160 spans 8 strips of side-20 tiles of the triangle certificate
    (isqrt(2^16 // 160) = 20).  |C| = 16, with masses on the subset.
    """
    rng = np.random.default_rng(seed)
    chords = rng.integers(0, n, size=(2 * n, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    edges = np.concatenate([ring, chords])
    weights = np.concatenate([rng.uniform(0.5, 1.5, n),
                              rng.uniform(1.0, 4.0, len(chords))])
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    np.minimum.at(d, (edges[:, 0], edges[:, 1]), weights)
    np.minimum.at(d, (edges[:, 1], edges[:, 0]), weights)
    for k in range(n):  # Floyd-Warshall; every pass keeps d exactly symmetric
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    subset = np.sort(rng.choice(n, size=16, replace=False))
    values = np.sin(d[subset[0], subset]) + 0.1 * rng.uniform(0.0, 1.0, 16)
    masses = np.zeros(n)
    masses[subset] = rng.uniform(0.2, 1.0, 16)
    return {"points": {"type": "matrix", "d": d.tolist()},
            "subset": subset.tolist(), "values": values.tolist(),
            "masses": masses.tolist()}


def snowflake(seed: int) -> dict:
    """Snowflake d**0.5 of a 48-point Euclidean cloud in [0, 1]^2, |C| = 10."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, (48, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt(np.sqrt(np.sum(diff * diff, axis=2)))
    subset = np.sort(rng.choice(48, size=10, replace=False))
    return {"points": {"type": "matrix", "d": d.tolist()},
            "subset": subset.tolist(),
            "values": rng.uniform(-1.0, 1.0, 10).tolist()}


def constant(seed: int) -> dict:
    """Euclidean cloud of 30 points with equal values on |C|=6: Lip(g, C) = 0.

    The supplied budget L = 1 is above the computed constant, so the constant
    extension picks nearest anchors and the energy's cone function is not flat.
    """
    data = cloud(seed, n=30, size=6)
    data["values"] = [0.7] * 6
    data["lipschitz"] = 1.0
    return data


# name -> (builder, seed, {command: flags without --input/--output}).
# Radii sit exactly at pair distances wherever the metric has ties.
CASES = {
    "cloud": (cloud, 0, {
        "verify": ["--epsilon", "0.5", "--xi", "0.1"],
        "extend": ["--epsilon", "0.5", "--queries", "all"],
        "energy": ["--p", "2", "--radii", "0.2,0.4,0.6"]}),
    "large_cloud": (large_cloud, 4, {
        "verify": ["--epsilon", "0.5", "--xi", "0.1"],
        "extend": ["--epsilon", "0.5", "--queries", "all"],
        "energy": ["--p", "2", "--radii", "0.15,0.4,0.9"]}),
    "wide_cloud": (wide_cloud, 9, {
        "verify": ["--epsilon", "0.5", "--xi", "0.1"],
        "extend": ["--epsilon", "0.5", "--queries", "all"],
        "energy": ["--p", "2", "--radii", "1.2,1.5,2"]}),
    "grid": (grid, 1, {
        "verify": ["--epsilon", "0.5", "--rbar", "0.2"],
        "extend": ["--epsilon", "0.5", "--bounded", "2", "--cutoff"],
        "energy": ["--p", "1", "--radii", "0.05,0.2,0.5"]}),
    "ultrametric": (ultrametric, 2, {
        "verify": ["--epsilon", "0.5", "--rbar", "0.5"],
        "extend": ["--epsilon", "0.5", "--queries", "all"],
        "energy": ["--p", "2", "--radii", "0.25,0.5,1"]}),
    "discrete": (discrete, 3, {
        "verify": ["--epsilon", "0.25", "--rbar", "1"],
        "extend": ["--epsilon", "0.25", "--queries", "all"],
        "energy": ["--p", "1.5", "--radii", "1,2"]}),
    "clustered": (clustered, 5, {
        "verify": ["--epsilon", "0.5", "--xi", "0.1"]}),
    "constant": (constant, 6, {
        "verify": ["--epsilon", "0.5", "--xi", "0.1"],
        "extend": ["--epsilon", "0.5", "--queries", "all"],
        "energy": ["--p", "2", "--radii", "0.2,0.5"]}),
    "graph": (graph, 7, {
        "verify": ["--epsilon", "0.5", "--xi", "0.1"],
        "extend": ["--epsilon", "0.5", "--queries", "all"],
        "energy": ["--p", "2", "--radii", "2,4,6"]}),
    "snowflake": (snowflake, 8, {
        "verify": ["--epsilon", "0.5", "--rbar", "0.5"],
        "extend": ["--epsilon", "0.5", "--queries", "all"],
        "energy": ["--p", "1.5", "--radii", "0.4,0.7,1.1"]}),
}


# (report, instance name or None, command, flags, corrupt).  A case without an
# instance takes no --input/--output: its report is what it prints.  A corrupt
# case runs inside corrupted_extension.
EXTRA = [
    ("cloud.verify_corrupt.json", "cloud", "verify", ["--epsilon", "0.5", "--xi", "0.1"],
     True),
    ("demo_counterexample.stdout.txt", None, "demo-counterexample", ["--n", "101"], False),
]


def _run(out_dir: Path, report: str, instance: str | None, command: str,
         flags: list[str], corrupt: bool = False) -> dict:
    with corrupted_extension() if corrupt else contextlib.nullcontext():
        if instance is None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([command, *flags])
            (out_dir / report).write_bytes(buf.getvalue().encode("utf-8"))
        else:
            code = main([command, "--input", str(out_dir / instance), *flags,
                         "--output", str(out_dir / report)])
    row = {"instance": instance, "command": command, "flags": flags,
           "exit": code, "report": report}
    if corrupt:
        row["corrupt"] = True
    return row


def generate(out_dir: Path) -> list[dict]:
    manifest = []
    for name, (build, seed, commands) in CASES.items():
        instance = f"{name}.json"
        (out_dir / instance).write_text(json.dumps(build(seed)) + "\n")
        for command, flags in commands.items():
            manifest.append(_run(out_dir, f"{name}.{command}.json", instance,
                                 command, flags))
    for report, name, command, flags, corrupt in EXTRA:
        manifest.append(_run(out_dir, report, name and f"{name}.json",
                             command, flags, corrupt))
    (out_dir / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


if __name__ == "__main__":
    for row in generate(HERE):
        print(row["report"], "exit", row["exit"], file=sys.stderr)
