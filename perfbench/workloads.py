"""Seeded instance generators and the CLI command of each benchmark workload.

Every instance is a function of ``(workload, seed)`` alone: the same pair
gives a byte-identical instance file, so two commits measured with the same
seed are compared on identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str               # "cloud" or "graph"
    n: int
    subset_size: int
    masses: bool
    cli: tuple[str, ...]    # subcommand and flags; each run adds --input/--output


WORKLOADS = {w.name: w for w in (
    Workload("verify_cloud",
             "Euclidean cloud n=1000 |C|=100: time is the check battery "
             "(lipa_profile, lip_constant, localization)",
             "cloud", 1000, 100, False, ("verify", "--epsilon", "0.5")),
    Workload("extend_cloud",
             "Euclidean cloud n=3000 |C|=300: time is validation and "
             "build_profiles; the check battery is never called",
             "cloud", 3000, 300, False,
             ("extend", "--epsilon", "0.5", "--queries", "all")),
    Workload("energy_cloud",
             "Euclidean cloud n=2000 |C|=200 with masses: thousands of small "
             "ball-restricted lip_constant calls",
             "cloud", 2000, 200, True,
             ("energy", "--p", "2", "--radii", "0.2,0.4,0.6")),
    Workload("verify_graph",
             "shortest-path matrix n=700 |C|=70: the only explicit-matrix path "
             "(cubic triangle scan, large JSON matrix, non-Euclidean balls)",
             "graph", 700, 70, False, ("verify", "--epsilon", "0.5")),
)}


def _rng(name: str, seed: int) -> np.random.Generator:
    # The workload name enters the seed so workloads never share a stream.
    return np.random.default_rng([seed, *name.encode()])


def cloud_instance(rng: np.random.Generator, n: int, subset_size: int,
                   masses: bool) -> dict:
    """Uniform cloud in [0, 1]^3 with g = sin(4 x0) + x2^2 on a random subset."""
    coords = rng.uniform(0.0, 1.0, (n, 3))
    subset = np.sort(rng.choice(n, size=subset_size, replace=False))
    values = np.sin(4.0 * coords[subset, 0]) + coords[subset, 2] ** 2
    doc = {"points": {"type": "euclidean", "coords": coords.tolist()},
           "subset": subset.tolist(), "values": values.tolist()}
    if masses:
        m = np.zeros(n)
        m[subset] = rng.uniform(0.1, 2.0, subset_size)
        doc["masses"] = m.tolist()
    return doc


def shortest_paths(n: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path lengths (Floyd-Warshall, one pivot per pass)."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    i, j = edges[:, 0], edges[:, 1]
    # Parallel edges keep their lightest weight.
    np.minimum.at(d, (i, j), weights)
    np.minimum.at(d, (j, i), weights)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def graph_instance(rng: np.random.Generator, n: int, subset_size: int) -> dict:
    """Shortest-path metric of a weighted ring plus 3n random chords."""
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    chords = rng.integers(0, n, size=(3 * n, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    edges = np.concatenate([ring, chords])
    weights = np.concatenate([rng.uniform(0.5, 1.5, n),
                              rng.uniform(1.0, 4.0, len(chords))])
    d = shortest_paths(n, edges, weights)
    subset = np.sort(rng.choice(n, size=subset_size, replace=False))
    root = int(rng.integers(0, n))
    values = np.sin(d[root, subset]) + 0.1 * rng.uniform(0.0, 1.0, subset_size)
    return {"points": {"type": "matrix", "d": d.tolist()},
            "subset": subset.tolist(), "values": values.tolist()}


def instance_bytes(name: str, seed: int) -> bytes:
    """The instance file of workload ``name`` at ``seed``, as written to disk."""
    w = WORKLOADS[name]
    rng = _rng(name, seed)
    if w.kind == "graph":
        doc = graph_instance(rng, w.n, w.subset_size)
    else:
        doc = cloud_instance(rng, w.n, w.subset_size, w.masses)
    return json.dumps(doc, allow_nan=False).encode()
