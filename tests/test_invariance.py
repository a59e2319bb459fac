"""Metamorphic invariances: the construction reads only distances and values.

Relabeling the points (the subset mapped in its order) must leave every output
fixed at corresponding points, and scaling the geometry and the values by a
power of two must scale every length exactly and leave every slope alone, in
binary64.  The instances are small and exact: 2-D clouds, shortest-path graphs
whose edge weights are multiples of 1/8 and dyadic ultrametrics on 5-bit
labels, the last two with values that are multiples of 1/16, so the matrices
are full of ties and the tie rules are checked too.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from lipext import build_profiles, extend, instance_from_arrays, run_suite, schedule_for_instance
from lipext.extension import _family

EPSILON = 0.5
SEEDS = range(4)
KINDS = ["cloud", "graph", "ultrametric"]
# Check -> whether its measure is a slope (unchanged by a dyadic scaling) or a
# length or value (scaled with it).
SLOPES = ("global_lipschitz", "inf_family", "locality_preservation")
LENGTHS = ("restriction", "envelope_sandwich", "step2_lower_bound", "localization")


def _case(kind, seed):
    """``(geometry, subset, values)``: ``geometry`` is the keyword of
    :func:`instance_from_arrays` that carries the points."""
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        geometry = {"coords": rng.uniform(0.0, 1.0, (30, 2))}
        values = rng.normal(0.0, 1.0, 6)
    elif kind == "graph":
        n = 25
        d = np.full((n, n), np.inf)
        np.fill_diagonal(d, 0.0)
        order = rng.permutation(n)
        edges = [(order[i], order[rng.integers(i)]) for i in range(1, n)]     # a tree
        edges += [tuple(rng.choice(n, 2, replace=False)) for _ in range(n)]
        for i, j in edges:
            d[i, j] = d[j, i] = min(d[i, j], rng.integers(1, 17) / 8.0)
        for k in range(n):      # exact sums: every path length is a multiple of 1/8
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
        geometry = {"dmatrix": d}
        values = rng.integers(0, 4, 6) / 16.0
    else:
        labels = rng.choice(32, 24, replace=False)
        bits = np.frexp(labels[:, None] ^ labels[None, :])[1]    # the highest differing bit
        geometry = {"dmatrix": np.ldexp(1.0, bits - 5) * (bits > 0)}
        values = rng.integers(0, 4, 6) / 16.0
    n = len(next(iter(geometry.values())))
    return geometry, rng.choice(n, 6, replace=False), values


def _run(geometry, subset, values):
    """The battery's report, and the field and bank that it builds."""
    inst = instance_from_arrays(**geometry, subset=subset, values=values)
    report = run_suite(inst, EPSILON)
    queries = np.arange(inst.n)
    schedule = schedule_for_instance(inst, EPSILON, queries,
                                     locality=(report.params["r_bar"], report.params["xi"]))
    profiles = build_profiles(inst, schedule)
    return SimpleNamespace(inst=inst, report=report, profiles=profiles,
                           field=extend(inst, schedule, queries, profiles=profiles))


def _summary(check):
    return check.name, check.status, check.measured, check.allowed, check.tolerance, check.note


@pytest.mark.parametrize("kind", KINDS)
def test_relabeling_maps_every_output(kind):
    """New point ``i`` is old point ``perm[i]``: f, the schedule, the checks and the
    McShane fragment are equal at corresponding points, and each query's
    ``argmin_anchor`` is the lowest new index among the anchors that attain
    its minimum."""
    ties = 0
    for seed in SEEDS:
        geometry, subset, values = _case(kind, seed)
        old = _run(geometry, subset, values)
        n = old.inst.n
        perm = np.random.default_rng(100 + seed).permutation(n)
        inv = np.argsort(perm)
        moved = {key: (a[perm] if key == "coords" else a[np.ix_(perm, perm)])
                 for key, a in geometry.items()}
        new = _run(moved, inv[subset], values)

        assert new.field.values.tobytes() == old.field.values[perm].tobytes()
        assert new.report.schedule_triples == old.report.schedule_triples
        assert new.report.params == old.report.params
        assert [_summary(c) for c in new.report.checks] == [_summary(c) for c in old.report.checks]
        frag_old = old.report.fragments["mcshane_comparison"]
        frag_new = new.report.fragments["mcshane_comparison"]
        assert frag_new["epsilon"] == frag_old["epsilon"]
        assert len(frag_new["centers"]) == len(frag_old["centers"])
        for row_old, row_new in zip(frag_old["centers"], frag_new["centers"]):
            assert row_new == dict(row_old, center=int(inv[row_old["center"]]))

        _, phi = _family(old.inst, old.profiles, np.arange(n))
        attains = phi == phi.min(axis=0)
        ties += int(np.sum(attains.sum(axis=0) > 1))
        want = np.where(attains, inv[old.profiles.anchors][:, None], n).min(axis=0)
        assert np.array_equal(new.field.anchors[inv], want)
    if kind == "ultrametric":
        assert ties > 0     # the rule is exercised, not only the unique minima


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("j", [-3, 5])
def test_dyadic_scaling_scales_lengths_and_keeps_slopes(kind, j):
    """Geometry and values times 2^j: f is exactly 2^j f, every status stays, the
    slope checks measure the same and the length checks exactly 2^j as much."""
    scale = 2.0 ** j
    for seed in SEEDS:
        geometry, subset, values = _case(kind, seed)
        base = _run(geometry, subset, values)
        scaled = _run({key: a * scale for key, a in geometry.items()}, subset, values * scale)

        assert scaled.field.values.tobytes() == (base.field.values * scale).tobytes()
        for c, s in zip(base.report.checks, scaled.report.checks, strict=True):
            assert (s.name, s.status) == (c.name, c.status)
            if c.name in SLOPES:
                assert s.measured == c.measured, c.name
            elif c.name in LENGTHS:
                assert s.measured == (None if c.measured is None else c.measured * scale), c.name
