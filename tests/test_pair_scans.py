"""Exact pair scans: the top-K ball-slope kernel and the certified family check.

``ball_lips`` streams the pair ratios of the members some ball can reach in
row blocks of ``_BLOCK`` entries, keeps the ``_TOP_K`` largest pairs and
answers each ball from the first of them whose farther end lies inside it.
A ball that holds none of them is settled by one walk of its own members,
and no walk of pairs runs inside another.
``check_inf_family`` builds the family from a profile bank, scans every pair
for the family's minimum and scans the members only on the pairs closer than
their slope certificate's ``delta``.  Both are compared with brute force: the
kernel with K patched down to 1 and 2 and around the pair count (ties at the
K-th value, balls answered by their own walk, unsorted and repeated radii, the
tie-heavy metrics of ``test_ties``), with ``_BLOCK`` patched down to blocks of
1, 2 and 7 rows, at the block boundaries, and with first hits on both sides of
each boundary of the prefixes of kept pairs it reads; the family check against the
exhaustive scan of the materialized family, on hand-built and built banks, on
clouds, tie metrics and explicit matrices whose triangle slack sits at the
tolerance, and on the three roundoff terms of ``delta`` (triangle slack, large
data values and continuity jumps), each of which lifts one pair over the
budget.
"""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipext import (ParameterError, ball_lips, build_profiles, check_extension_energy,
                    check_inf_family, check_restriction_monotonicity, energy,
                    instance_from_arrays, lip_constant, lipa_profile, mcshane_upper_many,
                    run_suite, schedule_for_instance, validate_instance, validate_measure)
from lipext import metric

from conftest import bank_rows, dense, family_rows, grid_instance, hand_bank, oracle_lip
from test_ties import IDS, INSTANCES, tie_radii


def _cloud(seed, n):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, (n, 2))
    return instance_from_arrays(coords=coords, subset=[0, 1],
                                values=[0.0, float(np.linalg.norm(coords[0] - coords[1]))])


def _radius_for_count(sorted_d, count):
    """A radius whose open ball holds exactly the ``count`` nearest points."""
    if count == len(sorted_d):
        return 2.0 * sorted_d[-1]
    return float(sorted_d[count])


def test_ball_lips_matches_oracle_across_row_chunks(monkeypatch):
    # Blocks of rows x rows entries: the pairs of a ball of `rows` members are
    # one block, those of a ball with one more member two.  With K = 1 most
    # balls walk their own members, so the balls of the counts below are scanned
    # at those edges.
    rows = 128
    n = 2 * rows + 40
    inst = _cloud(0, n)
    rng = np.random.default_rng(1)
    domain = rng.permutation(n)
    vals = rng.normal(size=n)
    monkeypatch.setattr(metric, "_BLOCK", rows * rows)
    dd = dense(inst)
    for center in (int(domain[0]), int(domain[-1])):
        d_row = dd[center, domain]
        sorted_d = np.sort(d_row)
        counts = [1, 2, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1, n]
        radii = [_radius_for_count(sorted_d, c) for c in counts]
        radii += [sorted_d[1] / 2.0,                       # below the nearest point
                  (sorted_d[rows] + sorted_d[rows + 1]) / 2.0,
                  radii[4]]                                # repeated count
        radii = np.array(radii)[rng.permutation(len(radii))]   # out of order
        order = np.argsort(d_row, kind="stable")
        want = [oracle_lip(inst, vals[inside], domain[inside])
                for inside in (order[d_row[order] < r] for r in radii)]
        for top_k in (metric._TOP_K, 1):
            monkeypatch.setattr(metric, "_TOP_K", top_k)
            assert ball_lips(inst, domain, vals, [center], radii)[0].tolist() == want


def test_ball_lips_empty_and_single_point_balls():
    inst = _cloud(2, 5)
    domain = np.arange(1, 5)
    vals = np.arange(4.0)
    tiny = dense(inst)[0, domain].min() / 2.0
    # center 0 lies outside the domain: its small balls hold no member
    assert ball_lips(inst, domain, vals, [0], [tiny, tiny]).tolist() == [[0.0, 0.0]]
    assert ball_lips(inst, domain, vals, [1], [tiny]).tolist() == [[0.0]]


def test_ball_lips_skips_balls_of_one_member(monkeypatch):
    # A ball of at most one member is 0 by the empty supremum, so its center
    # adds no member to the reach: when every ball holds only its center no
    # pair is walked, and in a mixed call the reach is the members of the
    # larger balls, with every entry still the constant on its ball's members.
    n = 60
    inst = _cloud(5, n)
    rng = np.random.default_rng(6)
    members = np.arange(1, n)
    vals = rng.normal(size=len(members))
    centers = np.concatenate([[0], rng.choice(members, 11, replace=False)])  # 0 is no member
    d_rows = dense(inst)[np.ix_(centers, members)]
    near = np.sort(d_rows, axis=1)[:, 1]        # nearest other member of each member center
    tiny = float(near.min())
    calls = []
    walk = metric._pair_walk
    monkeypatch.setattr(metric, "_pair_walk",
                        lambda inst, pts, rows: calls.append(pts.tolist()) or walk(inst, pts, rows))
    assert ball_lips(inst, members, vals, centers, [tiny / 2, tiny]).tolist() == [[0.0] * 2] * 12
    assert calls == []

    mid = float(np.median(near))                # about half the balls hold two or more
    radii = np.array([mid, tiny, mid / 2])
    inside = d_rows[:, None, :] < radii[:, None]
    live = inside[:, 0].sum(axis=1) > 1
    assert 0 < live.sum() < len(centers)
    want = [[lip_constant(inst, vals[ball], members[ball]) for ball in row] for row in inside]
    for top_k in (metric._TOP_K, 1):
        monkeypatch.setattr(metric, "_TOP_K", top_k)
        calls.clear()
        assert ball_lips(inst, members, vals, centers, radii).tolist() == want
        assert calls[0] == members[inside[live, 0].any(axis=0)].tolist()


def test_ball_lips_rows_match_oracle(monkeypatch):
    # The top-K walk reads 5 centers at a time, the pair scan 111-row blocks.
    monkeypatch.setattr(metric, "_BLOCK", 5 * metric._TOP_K)
    n = 188
    inst = _cloud(3, n)
    rng = np.random.default_rng(4)
    perm = rng.permutation(n)
    domain = perm[: n - 5]
    vals = rng.normal(size=len(domain))
    centers = np.concatenate([perm[n - 5:], perm[:7]])   # five lie outside the domain
    d_rows = inst.distances(centers, domain)
    levels = np.sort(d_rows[0])
    radii = [levels[128], levels[3], 1e-9, levels[3], 9.0, levels[-1]]
    got = ball_lips(inst, domain, vals, centers, radii)
    assert got.shape == (len(centers), len(radii))
    for row, d_row in zip(got, d_rows):
        want = [oracle_lip(inst, vals[d_row < r], domain[d_row < r]) for r in radii]
        assert row.tolist() == want
    # one center is the first row of the batch
    assert np.array_equal(ball_lips(inst, domain, vals, centers[:1], radii), got[:1])


def test_ball_lips_empty_centers_or_radii():
    inst = _cloud(5, 30)
    domain = np.arange(3, 30)
    vals = np.random.default_rng(6).normal(size=len(domain))
    assert ball_lips(inst, domain, vals, [], [0.1, 0.5]).shape == (0, 2)
    assert ball_lips(inst, domain, vals, [0, 4, 9], []).shape == (3, 0)
    assert ball_lips(inst, domain, vals, [], []).shape == (0, 0)


@pytest.mark.parametrize("top_k", [4096, 1])
@pytest.mark.parametrize("kind", ["cloud", "graph"])
def test_ball_lips_rows_give_the_bits_of_one_call_each(monkeypatch, kind, top_k):
    """A 2-D ``values`` shares one pair walk among its rows, and a repeated row
    its ratio block too, and row ``v`` of the answer is the bits of a call with
    that row alone: with every ball answered from the kept pairs or by its own
    walk (K = 1), on a cloud and on the golden shortest-path matrix."""
    if kind == "cloud":
        inst = _cloud(17, 150)
    else:
        golden = Path(__file__).parent / "golden" / "graph.json"
        inst = validate_instance(json.loads(golden.read_text()))
    rng = np.random.default_rng(18)
    members = rng.permutation(inst.n)[: inst.n - 7]
    u, v = rng.normal(size=len(members)), np.round(rng.normal(size=len(members)), 1)
    centers = rng.choice(inst.n, 15, replace=False)
    levels = np.sort(inst.distances(centers[:1], members)[0])
    radii = [levels[3], 0.0, levels[len(levels) // 3], levels[-1], levels[3] * 1.5]
    monkeypatch.setattr(metric, "_TOP_K", top_k)
    walk, vectors = metric._pair_walk, []
    monkeypatch.setattr(metric, "_pair_walk",
                        lambda inst, pts, rows: vectors.append(len(rows)) or walk(inst, pts, rows))
    got = ball_lips(inst, members, np.stack([u, v, u]), centers, radii)
    assert got.shape == (3, len(centers), len(radii)) and vectors[0] == 2
    for row, vals in zip(got, (u, v, u)):
        assert row.tobytes() == ball_lips(inst, members, vals, centers, radii).tobytes()
    assert np.any(got[0] > 0) and np.any(got[1] != got[0])
    with pytest.raises(ParameterError, match="align"):
        ball_lips(inst, members, np.stack([u, v])[None], centers, radii)
    with pytest.raises(ParameterError, match="align"):
        lip_constant(inst, np.stack([u, v]), members)


def test_ball_lips_rejects_values_not_aligned_with_members():
    """A trimmed kernel must not read a longer ``values`` array by index."""
    inst = _cloud(5, 30)
    domain = np.arange(3, 30)
    measure = validate_measure(inst, p=1.0)
    for extra in (-1, 1):
        vals = np.zeros(len(domain) + extra)
        with pytest.raises(ParameterError, match="align"):
            ball_lips(inst, domain, vals, [4], [0.01])
        with pytest.raises(ParameterError, match="align"):
            lipa_profile(inst, domain, vals, 4, [0.01])
        with pytest.raises(ParameterError, match="align"):
            energy(inst, np.arange(30), np.zeros(30 + extra), measure, [0.01])


def test_ball_lips_radii_beyond_the_diameter():
    inst = _cloud(7, 40)
    rng = np.random.default_rng(8)
    domain = rng.permutation(40)[:33]
    vals = rng.normal(size=len(domain))
    diam = inst.diameter()
    whole = lip_constant(inst, vals, domain)
    got = ball_lips(inst, domain, vals, np.arange(40), [diam * 1.0001, 3.0 * diam, 1e300])
    assert np.all(got == whole)


def test_ball_lips_reach_spans_every_center_and_radius():
    """Two far-apart clusters: each center's larger ball needs members that
    only that center reaches, and only at the largest radius."""
    rng = np.random.default_rng(9)
    coords = np.vstack([rng.uniform(0.0, 0.1, (12, 2)), rng.uniform(5.0, 5.1, (12, 2))])
    inst = instance_from_arrays(coords=coords, subset=[0, 1], values=[0.0, 0.0])
    domain = np.arange(24)[::-1]
    vals = rng.normal(size=24)
    centers = [0, 23]
    radii = [0.02, 0.05, 0.2]
    got = ball_lips(inst, domain, vals, centers, radii)
    d_rows = inst.distances(centers, domain)
    for row, d_row in zip(got, d_rows):
        want = [oracle_lip(inst, vals[d_row < r], domain[d_row < r]) for r in radii]
        assert row.tolist() == want
    # the whole cluster (largest radius) is steeper than its small balls
    assert np.all(got[:, 2] > got[:, 0])


def test_ball_lips_holds_one_distance_array():
    """The one |centers| x |members| array is ``d(centers, members)``: the kept pairs
    are read from its columns in place (a copy of the columns in reach traced 2.01x
    |centers| n entries here), and every other buffer has a fixed size."""
    n = 2000
    rng = np.random.default_rng(21)
    coords = rng.uniform(0.0, 1.0, (n, 3))
    inst = instance_from_arrays(coords=coords, subset=[0, 1], values=[0.0, 0.0])
    members, vals = np.arange(n), np.sin(4.0 * coords[:, 0]) + coords[:, 2] ** 2
    centers, radii = np.arange(1000), [0.3, 0.6, 2.0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = ball_lips(inst, members, vals, centers, radii)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    unit = len(centers) * n * 8
    assert peak <= 1.5 * unit, f"traced peak {peak / unit:.2f} x |centers| n"
    for c in (0, 517, 999):
        d_row = inst.distances([c], members)[0]
        assert got[c].tolist() == [lip_constant(inst, vals[d_row < r], members[d_row < r])
                                   for r in radii]


def _top_pairs(inst, domain, vals):
    """The kept pairs of one :class:`~lipext.metric._TopPairs` fold over ``domain``."""
    fold = metric._TopPairs()
    metric._pair_walk(inst, domain, [(vals, [fold])])
    return fold.pairs()


def _oracle_balls(inst, domain, vals, centers, radii):
    d_rows = inst.distances(centers, domain)
    return np.array([[oracle_lip(inst, vals[d_row < r], domain[d_row < r]) for r in radii]
                     for d_row in d_rows])


def _rounded_grid():
    """Integer points on a line with values in {0, 1, 2}: ratios tie everywhere."""
    rng = np.random.default_rng(11)
    inst = instance_from_arrays(coords=np.arange(14.0)[:, None], subset=[0, 1],
                                values=[0.0, 0.0])
    domain = rng.permutation(14)[:12]
    return inst, domain, rng.integers(0, 3, 12).astype(float)


def _tie_case(inst):
    rng = np.random.default_rng(12)
    domain = rng.permutation(inst.n)
    return inst, domain, rng.normal(size=inst.n).round(1)


TOP_K_CASES = [_rounded_grid(), *(_tie_case(inst) for inst in INSTANCES)]
TOP_K_IDS = ["rounded_grid", *IDS]


def _pair_count(domain):
    return len(domain) * (len(domain) - 1) // 2


@pytest.mark.parametrize("k_of_pairs", [lambda p: 1, lambda p: 2, lambda p: p - 1,
                                        lambda p: p, lambda p: p + 1],
                         ids=["1", "2", "pairs-1", "pairs", "pairs+1"])
@pytest.mark.parametrize("case", TOP_K_CASES, ids=TOP_K_IDS)
def test_top_k_kernel_matches_oracle(monkeypatch, case, k_of_pairs):
    inst, domain, vals = case
    top_k = k_of_pairs(_pair_count(domain))
    monkeypatch.setattr(metric, "_TOP_K", top_k)
    radii = tie_radii(inst)
    # unsorted and repeated radii, an empty ball and one beyond the diameter
    radii = np.concatenate([radii[::-1], radii[1::2], [0.0, 1e300]])
    centers = np.arange(inst.n)
    got = ball_lips(inst, domain, vals, centers, radii)
    assert np.array_equal(got, _oracle_balls(inst, domain, vals, centers, radii))


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("k_of_pairs", [lambda p: 1, lambda p: 2, lambda p: p - 1,
                                        lambda p: p, lambda p: p + 1],
                         ids=["1", "2", "pairs-1", "pairs", "pairs+1"])
@pytest.mark.parametrize("case", TOP_K_CASES, ids=TOP_K_IDS)
def test_streamed_kernel_matches_oracle_in_small_blocks(monkeypatch, case, k_of_pairs, rows):
    """Blocks of 1, 2 and 7 rows: the running top-K, the walks of the balls
    without a kept pair (whose fewer members take as many rows or more) and
    ``lip_constant`` all read the ratios block by block."""
    inst, domain, vals = case
    monkeypatch.setattr(metric, "_TOP_K", k_of_pairs(_pair_count(domain)))
    monkeypatch.setattr(metric, "_BLOCK", rows * len(domain))
    radii = tie_radii(inst)     # the largest holds every member, so no member is trimmed
    centers = np.arange(inst.n)
    got = ball_lips(inst, domain, vals, centers, radii)
    assert np.array_equal(got, _oracle_balls(inst, domain, vals, centers, radii))
    assert lip_constant(inst, vals, domain) == oracle_lip(inst, vals, domain)


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_streamed_ties_at_the_kth_value_straddle_blocks(monkeypatch, rows):
    """Every K on the rounded grid in blocks of 1, 2 and 7 rows; at many K the
    pairs tied at the K-th ratio start in more than one row block, so the
    running selection meets the tie in several blocks."""
    inst, domain, vals = TOP_K_CASES[0]
    monkeypatch.setattr(metric, "_BLOCK", rows * len(domain))
    first, second = np.triu_indices(len(domain), 1)
    ratios = (np.abs(vals[first] - vals[second])
              / dense(inst)[domain[first], domain[second]])
    ranked = np.sort(ratios)[::-1]
    radii = tie_radii(inst)
    centers = np.arange(inst.n)
    want = _oracle_balls(inst, domain, vals, centers, radii)
    straddled = 0
    for top_k in range(1, len(ranked) + 2):
        if top_k < len(ranked) and ranked[top_k - 1] == ranked[top_k] > 0:
            blocks = np.unique(first[ratios == ranked[top_k]] // rows)
            straddled += len(blocks) > 1
        monkeypatch.setattr(metric, "_TOP_K", top_k)
        assert np.array_equal(ball_lips(inst, domain, vals, centers, radii), want), top_k
    assert straddled >= 10
    # With K past the pair count every positive pair is kept, once and as i < j.
    first, second, top = _top_pairs(inst, domain, vals)
    assert len(top) < metric._TOP_K and np.all(first < second)
    assert np.array_equal(top, ranked[ranked > 0])


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_one_positive_pair_left_out_is_scanned(monkeypatch, rows):
    """Every pair is positive and K is one less: the least steep pair is left out,
    so the ball that holds only that pair must be scanned, not read as 0."""
    inst = instance_from_arrays(coords=[[0.0], [1.0], [3.0], [7.0]], subset=[0, 1],
                                values=[0.0, 0.1])
    domain, vals = np.arange(4), np.array([0.0, 0.1, 5.0, 20.0])
    monkeypatch.setattr(metric, "_TOP_K", _pair_count(domain) - 1)
    monkeypatch.setattr(metric, "_BLOCK", rows * len(domain))
    radii = [1.5, 2.5, 10.0]
    got = ball_lips(inst, domain, vals, [0], radii)
    assert got[0, 0] == 0.1
    assert np.array_equal(got, _oracle_balls(inst, domain, vals, [0], radii))


def test_top_k_ties_straddle_the_kth_value(monkeypatch):
    """Every K from 1 past the pair count on the rounded grid; at many of them
    the K-th ratio is shared by pairs on both sides of the cut."""
    inst, domain, vals = TOP_K_CASES[0]
    iu = np.triu_indices(len(domain), 1)
    d = dense(inst)[domain[iu[0]], domain[iu[1]]]
    ranked = np.sort(np.abs(vals[iu[0]] - vals[iu[1]]) / d)[::-1]
    radii = tie_radii(inst)
    centers = np.arange(inst.n)
    want = _oracle_balls(inst, domain, vals, centers, radii)
    straddled = 0
    for top_k in range(1, len(ranked) + 2):
        if top_k < len(ranked) and ranked[top_k - 1] == ranked[top_k] > 0:
            straddled += 1
        monkeypatch.setattr(metric, "_TOP_K", top_k)
        assert np.array_equal(ball_lips(inst, domain, vals, centers, radii), want), top_k
    assert straddled >= 10
    # With K past the pair count every positive pair is kept, once and as i < j.
    first, second, top = _top_pairs(inst, domain, vals)
    assert len(top) < metric._TOP_K and np.all(first < second)
    assert np.array_equal(top, ranked[ranked > 0])


@pytest.mark.parametrize("case", [TOP_K_CASES[0], *TOP_K_CASES[3:]],
                         ids=[TOP_K_IDS[0], *TOP_K_IDS[3:]])
def test_top_k_fallback_answers_balls_without_a_top_pair(monkeypatch, case):
    """With K = 1 every ball that misses the steepest pair is answered by its
    own walk, and some such ball is steep but less steep than the top pair.
    (The discrete metric has no such ball: each is one point or the whole space.)"""
    inst, domain, vals = case
    monkeypatch.setattr(metric, "_TOP_K", 1)
    radii = tie_radii(inst)
    centers = np.arange(inst.n)
    got = ball_lips(inst, domain, vals, centers, radii)
    top = lip_constant(inst, vals, domain)
    assert np.any((got > 0) & (got < top))
    assert np.array_equal(got, _oracle_balls(inst, domain, vals, centers, radii))


def test_top_k_kernel_on_a_cloud_with_few_top_pairs(monkeypatch):
    """K = 5 leaves most balls to their own walks, whose pair scans read blocks of
    at most 1000 entries."""
    n = 158
    inst = _cloud(13, n)
    rng = np.random.default_rng(14)
    domain = rng.permutation(n)[: n - 4]
    vals = rng.normal(size=len(domain))
    centers = rng.permutation(n)[:6]
    levels = np.sort(inst.distances(centers[:1], domain)[0])
    radii = [levels[129], levels[2], levels[40], levels[2], 0.3, 5.0]
    want = ball_lips(inst, domain, vals, centers, radii)
    monkeypatch.setattr(metric, "_TOP_K", 5)
    monkeypatch.setattr(metric, "_BLOCK", 1000)
    assert np.array_equal(ball_lips(inst, domain, vals, centers, radii), want)
    assert np.array_equal(want, _oracle_balls(inst, domain, vals, centers, radii))


def _count_walks(monkeypatch):
    """Record each :func:`~lipext.metric._walk_scans` and :func:`~lipext.metric._pair_walk`
    call: ``depths`` the walk scans open at each scan's start (1 for a scan inside
    none), ``walks`` the sorted points of each pair walk."""
    depths, walks, running = [], [], [0]
    scans, walk = metric._walk_scans, metric._pair_walk

    def scan(*args):
        running[0] += 1
        depths.append(running[0])
        try:
            return scans(*args)
        finally:
            running[0] -= 1

    monkeypatch.setattr(metric, "_walk_scans", scan)
    monkeypatch.setattr(metric, "_pair_walk", lambda inst, pts, rows: walks.append(
        sorted(pts.tolist())) or walk(inst, pts, rows))
    return depths, walks


def _steep_line(m=8):
    """The points 0..m of a line, ``domain`` a permutation of them and ``radii`` k + 1/2
    for k = 1..m in random order: ball ``k + 1/2`` at point 0 holds points 0..k."""
    inst = instance_from_arrays(coords=np.arange(m + 1.0)[:, None], subset=[0, 1],
                                values=[0.0, 1.0])
    rng = np.random.default_rng(16)
    return inst, rng.permutation(m + 1), rng.permutation(np.arange(1.0, m + 1.0) + 0.5)


def test_open_balls_settle_by_one_walk_of_their_own_members(monkeypatch):
    """K = 1 on a line whose gaps grow steeper outward: the one kept pair, the
    steepest, lies only in the largest ball, so every other radius is still open
    after the kept pairs and is settled by one walk of exactly its own members, in
    the order of the radii, and no walk scan runs inside another."""
    m = 8
    inst, domain, radii = _steep_line(m)
    vals = domain * (domain + 1) / 2.0         # slope i from point i - 1 to point i
    depths, walks = _count_walks(monkeypatch)
    monkeypatch.setattr(metric, "_TOP_K", 1)
    got = ball_lips(inst, domain, vals, [0], radii)
    assert depths == [1]
    assert walks == [list(range(m + 1)), *(list(range(int(r) + 1)) for r in radii if r < m)]
    assert np.array_equal(got, _oracle_balls(inst, domain, vals, [0], radii))
    assert sorted(got[0].tolist()) == list(range(1, m + 1))


def test_open_balls_of_each_values_row_are_its_own(monkeypatch):
    """K = 1 and three rows of values on the steep line: row 0 is steepest at the far
    end (every radius but the largest stays open), row 1 at the center (none does) and
    row 2 at its one steep step from point 4 to 5 (radii below 5 do).  Each row walks
    its own open balls, after the one walk of the kept pairs that all rows share."""
    m = 8
    inst, domain, radii = _steep_line(m)
    x = np.arange(m + 1.0)
    rows = np.stack([x * (x + 1) / 2, np.cumsum(np.r_[0.0, np.arange(m, 0.0, -1)]),
                     x + 9.0 * (x >= 5)])[:, domain]
    depths, walks = _count_walks(monkeypatch)
    monkeypatch.setattr(metric, "_TOP_K", 1)
    got = ball_lips(inst, domain, rows, [0], radii)
    assert depths == [1]
    assert walks == [list(range(m + 1)), *(list(range(int(r) + 1)) for r in radii if r < m),
                     *(list(range(int(r) + 1)) for r in radii if r < 5)]
    for row, vals in zip(got, rows):
        assert np.array_equal(row, _oracle_balls(inst, domain, vals, [0], radii))
    assert np.all(got[1] == m) and np.all(got[2, 0, radii < 5] == 1.0)


@pytest.mark.parametrize("top_k", [1, 2, 3, 4])
def test_open_balls_at_ties_with_the_kth_kept_ratio(top_k, monkeypatch):
    """Three pairs of a line share the largest ratio 3, each the steepest of its own
    ball.  K below 3 keeps some of the tied pairs and leaves the others out, so the
    balls of those are still open and are walked (one walk each); every ball is 3."""
    inst = instance_from_arrays(coords=np.arange(8.0)[:, None], subset=[0, 1],
                                values=[0.0, 1.0])
    domain, vals = np.arange(8), np.array([0.0, 3, 3, 3, 6, 6, 6, 9])
    centers, radii = [0, 4, 7], [1.5]          # the balls {0, 1}, {3, 4, 5} and {6, 7}
    depths, walks = _count_walks(monkeypatch)
    monkeypatch.setattr(metric, "_TOP_K", top_k)
    got = ball_lips(inst, domain, vals, centers, radii)
    assert got.tolist() == [[3.0]] * 3
    assert np.array_equal(got, _oracle_balls(inst, domain, vals, centers, radii))
    assert depths == [1] and len(walks) == 1 + max(0, 3 - top_k)
    assert all(ball in ([0, 1], [3, 4, 5], [6, 7]) for ball in walks[1:])


@pytest.mark.parametrize("top_k", [1, 2, 5])
def test_open_balls_skip_pairs_at_distance_zero(top_k, monkeypatch):
    """A pseudometric, built without validation: members 10 and 11 repeat the
    coordinates of 2 and 3 with values 100 above them.  A pair at distance 0 is no
    pair, in the kept pairs and in the walk of an open ball alike: the ball at 2 of
    radius 1/2 holds 2 and 10 and is 0, and every ball is the maximum over its pairs
    at a positive distance."""
    line = instance_from_arrays(coords=np.arange(10.0)[:, None], subset=[0, 1],
                                values=[0.0, 1.0])
    inst = replace(line, coords=np.arange(10.0)[[*range(10), 2, 3], None])
    rng = np.random.default_rng(41)
    domain = rng.permutation(12)
    vals = (0.1 * inst.coords[:, 0] + 100.0 * (np.arange(12) >= 10))[domain]
    d = dense(inst)
    radii = tie_radii(inst)
    want = np.zeros((12, len(radii)))
    for (c, j), _ in np.ndenumerate(want):
        ball = np.flatnonzero(d[c, domain] < radii[j])
        a, b = np.triu_indices(len(ball), 1)
        gap, far = np.abs(vals[ball[a]] - vals[ball[b]]), d[domain[ball[a]], domain[ball[b]]]
        want[c, j] = np.max(gap[far > 0] / far[far > 0], initial=0.0)
    depths, walks = _count_walks(monkeypatch)
    monkeypatch.setattr(metric, "_TOP_K", top_k)
    got = ball_lips(inst, domain, vals, np.arange(12), radii)
    assert got.tobytes() == want.tobytes()
    assert radii[0] == 0.5 and got[2, 0] == 0.0 and [2, 10] in walks[1:]
    assert depths == [1]


def test_energy_checks_run_no_walk_scan_inside_another(monkeypatch):
    """The energy workload's shape: a seeded 3-D cloud of 2000 points, |C| = 200 with
    masses, both energy checks at radii 0.2, 0.4 and 0.6.  Many balls are still open
    after their kept pairs, and each is settled by a walk of its own: every walk scan
    runs at the top level (the settling was once a nested one per center)."""
    rng = np.random.default_rng(40)
    coords = rng.uniform(0.0, 1.0, (2000, 3))
    subset = np.sort(rng.choice(2000, size=200, replace=False))
    inst = instance_from_arrays(coords=coords, subset=subset,
                                values=np.sin(4.0 * coords[subset, 0]) + coords[subset, 2] ** 2)
    masses = np.zeros(2000)
    masses[subset] = rng.uniform(0.1, 2.0, 200)
    measure = validate_measure(inst, masses, 2.0)
    h = mcshane_upper_many(inst, inst.lipschitz_L, np.arange(2000))
    depths, walks = _count_walks(monkeypatch)
    assert check_restriction_monotonicity(inst, h, measure, [0.2, 0.4, 0.6])[0].passed
    assert check_extension_energy(inst, measure, [0.2, 0.4, 0.6], 0.05)[0].passed
    assert max(depths) == 1
    assert len(walks) - len(depths) >= 50


def _kept_order_case(seed=1, m=100):
    """``(inst, members, values, centers, hits, order)`` on an explicit metric whose every
    off-diagonal entry lies in [1, 2] (so every triangle holds): ``m`` members with
    distinct pair ratios, and one center per planned row.  A single row puts the two
    ends of the kept pair at position ``k`` (of the descending ratio order) at
    distance 1 and every other member in [1.5, 2], so the balls of radius 1.125 to
    1.375 first hold pair ``k``.  A nested row ``(k, at)`` puts pair ``k``'s ends at 1
    and 1.25 and, at 1, the other end of the first pair from ``at`` on that shares
    the end at 1 and whose third pair comes later: radius 1.375 first holds pair
    ``k``, radii 1.125 and 1.25 that pair, and no far end in between lies below 1.5.
    ``hits`` maps each center to its planned positions at radii 1.375 and 1.125, and
    ``order`` is the two ends of each pair in descending ratio order."""
    single = [63, 64, 65, 255, 256, 257, 319, 320, 321, 1023, 1024, 1025, 4095, 4096]
    nested = [(63, 64), (63, 256), (63, 320), (255, 256)]
    rng = np.random.default_rng(seed)
    n = m + len(single) + len(nested)
    d = np.triu(rng.uniform(1.0, 2.0, (n, n)), 1)
    d += d.T
    values = rng.normal(size=(2, m))
    iu = np.triu_indices(m, 1)
    ratios = np.abs(values[0, iu[0]] - values[0, iu[1]]) / d[iu]
    assert len(np.unique(ratios)) == len(ratios)
    order = np.argsort(-ratios)
    pi, pj = iu[0][order], iu[1][order]
    pos = np.empty((m, m), np.intp)
    pos[pi, pj] = pos[pj, pi] = np.arange(len(order))
    hits = {}
    for c, plan in enumerate([*single, *nested], start=m):
        d[c, :m] = rng.uniform(1.5, 2.0, m)
        k, at = plan if isinstance(plan, tuple) else (plan, None)
        d[c, [pi[k], pj[k]]] = 1.0
        inner, ends = k, {pi[k], pj[k]}
        if at is not None:
            inner = next(q for q in range(at, len(order)) if len(ends & {pi[q], pj[q]}) == 1
                         and pos[tuple(ends ^ {pi[q], pj[q]})] > q)
            d[c, (ends - {pi[inner], pj[inner]}).pop()] = 1.25
            d[c, [pi[inner], pj[inner]]] = 1.0
        hits[c] = (k, inner)
    d[:m, m:] = d[m:, :m].T
    inst = instance_from_arrays(dmatrix=d, subset=[0], values=[0.0])
    return inst, np.arange(m), values, np.arange(m, n), hits, (pi, pj)


@pytest.mark.parametrize("top_k", [4096, 8192, 1, 7, 64, 65])
def test_ball_lips_settles_each_ball_at_its_first_kept_pair(monkeypatch, top_k):
    """The far ends are read in prefixes of the kept pairs (the first 64, then up to
    256, 1024 and 4096), and each ball settles at its first pair inside it.  First
    hits sit on both sides of each prefix boundary, and in nested rows a ball settles
    in one prefix while a smaller one stays open into a later one.  K = 8192 keeps all
    4950 pairs, so no ball walks its own members; K = 4096 leaves the pair at 4096
    to such a walk, and K = 1, 7, 64 and 65 most balls.  The radii repeat, come unsorted,
    and include 0, inf and the rows' second-least distance (1: a ball of no member);
    ``values`` has two rows.  Every entry is the bits of a dense scan."""
    inst, members, values, centers, hits, (pi, pj) = _kept_order_case()
    d = dense(inst)
    for c, planned in hits.items():
        far = np.maximum(d[c, pi], d[c, pj])
        assert tuple(int(np.argmax(far < r)) for r in (1.375, 1.125)) == planned
    radii = np.array([1.25, 2.5, 0.0, 1.125, np.inf, 1.0, 1.375, 1.25, 1.75])
    want = np.zeros((len(values), len(centers), len(radii)))
    for (v, c, j), _ in np.ndenumerate(want):
        ball = members[d[centers[c], members] < radii[j]]
        a, b = np.triu_indices(len(ball), 1)
        vals = values[v, ball]
        want[v, c, j] = np.max(np.abs(vals[a] - vals[b]) / d[ball[a], ball[b]], initial=0.0)
    monkeypatch.setattr(metric, "_TOP_K", top_k)
    got = ball_lips(inst, members, values, centers, radii)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[:, :, 5] == 0.0)      # radius 1: no member
    assert want[0, 0, 1] > 0 and np.all(got[0, :, 1] == want[0, 0, 1])    # 2.5: every member


def test_ball_lips_rejects_a_negative_center():
    inst = _cloud(15, 12)
    with pytest.raises(ParameterError, match="centers"):
        ball_lips(inst, np.arange(12), np.zeros(12), [-1], [0.5])


def test_ball_lips_rejects_an_out_of_range_center():
    inst = _cloud(15, 12)
    with pytest.raises(ParameterError, match="centers"):
        ball_lips(inst, np.arange(12), np.zeros(12), [12], [0.5])


@pytest.mark.parametrize("bad", [float("nan"), -0.1])
def test_ball_lips_rejects_a_nan_or_negative_radius(bad):
    inst = _cloud(15, 12)
    with pytest.raises(ParameterError, match="radii"):
        ball_lips(inst, np.arange(12), np.zeros(12), [0], [0.5, bad])


def test_ball_lips_rejects_two_dimensional_radii():
    inst = _cloud(15, 12)
    with pytest.raises(ParameterError, match="radii"):
        ball_lips(inst, np.arange(12), np.zeros(12), [0], [[0.2, 0.5]])


def test_ball_lips_rejects_duplicate_members():
    inst = _cloud(15, 12)
    members = np.array([0, 1, 2, 1])
    with pytest.raises(ParameterError, match="distinct"):
        ball_lips(inst, members, np.arange(4.0), [0], [0.5])


def test_ball_lips_rejects_non_finite_values():
    inst = _cloud(15, 12)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="finite"):
            ball_lips(inst, np.arange(3), [0.0, bad, 1.0], [0], [0.5])


def test_ball_lips_accepts_zero_and_repeated_radii_and_outside_centers():
    inst = _cloud(16, 12)
    domain = np.arange(2, 12)
    vals = np.random.default_rng(17).normal(size=10)
    radii = [1e300, 0.0, 0.4, 0.4]
    got = ball_lips(inst, domain, vals, [0, 5], radii)      # center 0 is off the domain
    assert np.array_equal(got, _oracle_balls(inst, domain, vals, [0, 5], radii))
    assert np.all(got[:, 1] == 0.0) and np.all(got[:, 2] == got[:, 3])


def _family_case(seed, n=60, size=5):
    """Hand-built rows with random nondecreasing slopes on a cloud, and the
    family they give on a shuffled member list, materialized as the oracle."""
    rng = np.random.default_rng(seed)
    inst = instance_from_arrays(coords=rng.uniform(0.0, 1.0, (n, 2)),
                                subset=np.arange(size), values=rng.normal(size=size))
    members = rng.permutation(n)[: n - 7]
    slopes = np.sort(rng.uniform(0.0, 1.0, (size, 9)), axis=1) * rng.uniform(0.1, 2.0, (size, 1))
    bank = hand_bank(np.arange(size), np.geomspace(0.01, 2.0, 8), slopes)
    family = family_rows(inst, bank, members)
    lips = [lip_constant(inst, row, members) for row in family]
    return inst, members, bank, family, lips


def test_inf_family_pass_measures_the_minimum():
    for seed in range(4):
        inst, members, bank, family, lips = _family_case(seed)
        res = check_inf_family(inst, bank, members, max(lips))
        assert res.status == "pass"
        assert res.measured == lip_constant(inst, family.min(axis=0), members)
        assert res.witness == {"n_functions": len(family)}


def test_inf_family_precondition_names_first_violating_member():
    for seed in range(4):
        inst, members, bank, family, lips = _family_case(seed)
        ranked = np.sort(lips)
        L = (ranked[1] + ranked[2]) / 2.0      # three members exceed L
        first = next(k for k, lip in enumerate(lips) if lip > L)
        res = check_inf_family(inst, bank, members, L)
        assert res.status == "skipped" and "precondition" in res.note
        assert res.witness == {"member": first}
        assert res.measured == lips[first]


def test_inf_family_scans_first_and_last_pairs():
    inst = grid_instance(11)
    members = np.arange(11)
    # Slope 20 on the first band (0, 0.1] and flat beyond, anchored at the
    # first and at the last member: the steepest pairs are the first two and
    # the last two members.
    bank = hand_bank([0, 10], [0.1], [[20.0, 0.0], [20.0, 0.0]])
    family = family_rows(inst, bank, members)
    lips = [lip_constant(inst, row, members) for row in family]
    assert lips == pytest.approx([20.0, 20.0])
    for pos, lip in enumerate(lips):
        assert check_inf_family(inst, bank_rows(bank, [pos]), members, 21.0).measured == lip
    res = check_inf_family(inst, bank_rows(bank, [1, 0]), members, 10.0)
    assert res.witness == {"member": 0} and res.measured == lips[1]


def test_inf_family_single_member_and_bad_arguments():
    inst, members, bank, family, lips = _family_case(5)
    res = check_inf_family(inst, bank_rows(bank, [0]), members, lips[0])
    assert res.status == "pass" and res.measured == lips[0]
    dup = members.copy()
    dup[3] = dup[0]
    with pytest.raises(ParameterError, match="distinct"):
        check_inf_family(inst, bank, dup, max(lips))
    for bad in (bank_rows(bank, []), replace(bank, slopes=bank.slopes[:, 1:]),
                replace(bank, slopes=bank.slopes[0]), replace(bank, anchors=bank.anchors + 5),
                replace(bank, breakpoints=bank.breakpoints[::-1]),
                replace(bank, cumulative=np.full_like(bank.cumulative, np.nan))):
        with pytest.raises(ParameterError):
            check_inf_family(inst, bad, members, max(lips))


def _oracle_inf_family(inst, bank, members, budget):
    """(status, measured, allowed, witness) of the exhaustive scan: the constant
    of every materialized row, then of their minimum."""
    family = family_rows(inst, bank, members)
    limit = budget + 1e-9 * max(1.0, budget)
    for pos, row in enumerate(family):
        lip = lip_constant(inst, row, members)
        if lip > limit:
            return "skipped", lip, limit, {"member": pos}
    got = lip_constant(inst, family.min(axis=0), members)
    return ("pass" if got <= limit else "fail"), got, limit, {"n_functions": len(family)}


def _certified_equals_oracle(inst, bank, members, budget):
    res = check_inf_family(inst, bank, members, budget)
    want = _oracle_inf_family(inst, bank, members, budget)
    assert (res.status, res.measured, res.allowed, res.witness) == want
    return want


def _line(points, g=0.0):
    return instance_from_arrays(coords=[[p] for p in points], subset=[0], values=[g],
                                lipschitz=1.0)


def _slack_at_tolerance():
    # d(0, 1 + h) sits exactly at the validator's slack: fl(fl(1 + h) + tol).
    # The member of slope 0.75 then rises by 0.75 (h + tol) over the pair at
    # distance h = 2**-29 < tol, a ratio of 1.55.
    pos = np.array([0.0, 1.0, 1.0 + 2.0**-29, 2.0])
    d = np.abs(pos[:, None] - pos[None, :])
    d[0, 2] = d[2, 0] = d[0, 2] + metric.TRIANGLE_RTOL * d.max()
    inst = instance_from_arrays(dmatrix=d, subset=[0], values=[0.0], lipschitz=1.0)
    return inst, hand_bank([0], [], [[0.75]]), 1.0


def _large_data_value():
    # g = 1e8: fl(g + pen) moves by one ulp (1.5e-8) between points 1e-9 apart.
    inst = _line([0.0, 1.0, *(0.5 + 1e-9 * np.arange(40))], g=1e8)
    return inst, hand_bank([0], [], [[0.5]]), 1.0


def _jump_at_a_breakpoint():
    # A jump of 1e-6 at t = 0.5 between points 1e-7 apart: a ratio of 10.5.
    inst = _line([0.0, 1.0, 0.5 - 5e-8, 0.5 + 5e-8])
    return inst, hand_bank([0], [0.5], [[0.5, 0.5]], jumps=1e-6), 1.0


ROUNDOFF_CASES = {"triangle_slack": _slack_at_tolerance, "large_g": _large_data_value,
                  "jump": _jump_at_a_breakpoint}


@pytest.mark.parametrize("case", ROUNDOFF_CASES.values(), ids=ROUNDOFF_CASES.keys())
def test_inf_family_certificate_scans_the_pairs_roundoff_lifts(case):
    # Each member is far below the constant in exact arithmetic, yet exceeds
    # it on one close pair: each term of delta must send that pair to the scan.
    inst, bank, budget = case()
    assert _certified_equals_oracle(inst, bank, np.arange(inst.n), budget)[0] == "skipped"


def _cloud_metric(rng):
    """A cloud in dimension 1 to 4, sometimes with near-duplicates of its first points."""
    dim = int(rng.integers(1, 5))
    coords = rng.uniform(0.0, 1.0, (int(rng.integers(2, 30)), dim))
    if rng.random() < 0.5:
        k = int(rng.integers(1, len(coords) + 1))
        shift = rng.normal(size=(k, dim)) * 10.0 ** -float(rng.integers(6, 14))
        coords = np.vstack([coords, coords[:k] + shift])
    subset = rng.choice(len(coords), size=min(len(coords), int(rng.integers(2, 6))),
                        replace=False)
    values = rng.choice([0.0, 1e4, 1e8]) + rng.normal(size=len(subset))
    return instance_from_arrays(coords=coords, subset=subset, values=values)


def _slack_metric(rng):
    """An explicit line metric on dyadic points, some in clusters 2**-30 apart,
    with random entries of the anchor rows raised by exactly the triangle
    tolerance: every such entry next to a collinear triple sits at the slack."""
    base = np.unique(rng.integers(0, 2**12, int(rng.integers(3, 12)))) * 2.0**-10
    pos = np.unique((base[:, None] + np.arange(int(rng.integers(1, 4))) * 2.0**-30).ravel())
    d = np.abs(pos[:, None] - pos[None, :])
    subset = np.searchsorted(pos, rng.choice(base, size=min(len(base), 3), replace=False))
    bump = np.zeros(d.shape, dtype=bool)
    bump[subset] = (rng.random((len(subset), len(pos))) < 0.5) & (d[subset] <= d.max() / 2)
    bump |= bump.T
    np.fill_diagonal(bump, False)
    d[bump] += metric.TRIANGLE_RTOL * d.max()
    return instance_from_arrays(dmatrix=d, subset=subset, values=rng.normal(size=len(subset)))


def _built_bank(inst, rng):
    sch = schedule_for_instance(inst, inst.lipschitz_L * float(rng.choice([0.01, 0.5, 1.0])))
    budget = (inst.lipschitz_L + sch.eps_eff) * float(rng.choice([1.0, 1.0 - 1e-12, 0.75]))
    return build_profiles(inst, sch), budget


def _near_budget_bank(inst, rng):
    """Rows whose largest slope is within 1e-12 of the budget or above it, with
    random jumps at the breakpoints."""
    budget = float(rng.uniform(0.1, 10.0))
    rows, m = int(rng.integers(1, 6)), int(rng.integers(0, 8))
    bp = np.unique(rng.uniform(0.0, 1.5, m)) * inst.diameter()
    bp = bp[bp > 0]
    top = budget * (1.0 + rng.choice([-1e-12, 0.0, 1e-12, 0.5], size=(rows, 1)))
    slopes = top * rng.uniform(0.5, 1.0, (rows, len(bp) + 1))
    slopes[:, -1] = top[:, 0]
    jumps = float(rng.choice([0.0, 1e-9, 1e-6])) * rng.random((rows, len(bp)))
    return hand_bank(rng.choice(inst.subset, size=rows), bp, slopes, jumps), budget


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["cloud", "ties", "slack"]),
       st.sampled_from(["built", "near_budget"]))
def test_inf_family_certificate_matches_the_exhaustive_scan(seed, kind, bank_kind):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        inst = INSTANCES[int(rng.integers(len(INSTANCES)))]
    else:
        inst = (_cloud_metric if kind == "cloud" else _slack_metric)(rng)
    bank, budget = (_built_bank if bank_kind == "built" else _near_budget_bank)(inst, rng)
    if rng.random() < 0.5:
        members = np.arange(inst.n)
    else:
        members = rng.permutation(inst.n)[: int(rng.integers(1, inst.n + 1))]
    _certified_equals_oracle(inst, bank, members, budget)


@pytest.mark.parametrize("n", [11, 1001])
def test_run_suite_rejects_negative_seed_and_non_finite_xi(n):
    inst = grid_instance(n)
    for seed in (-1, True):
        with pytest.raises(ParameterError, match="^seed must be a nonnegative integer$"):
            run_suite(inst, 1.0, seed=seed)
    for xi in (float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="xi"):
            run_suite(inst, 1.0, xi=xi)
