import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lipext import (CheckResult, MetricInstance, ParameterError, ProfileBank, build_profiles,
                    build_schedule, check_extension_energy, check_global_lipschitz,
                    check_inf_family, check_locality_preservation, check_restriction,
                    check_step2, cutoff_support, extend, instance_from_arrays,
                    lip_constant, locality_radius, mcshane_comparison,
                    mcshane_upper_many, run_suite, schedule_for_instance,
                    truncate_bounded, validate_measure)
from lipext import extension, metric, verification
from lipext.verification import _distance_quartiles, check_envelope_sandwich, check_localization

from conftest import (corrupted_extension, dense, grid_instance, hand_bank, oracle_lip,
                      random_instance)
from test_ties import INSTANCES as TIE_INSTANCES


def test_full_suite_passes_on_random_instances():
    for seed in (0, 1, 2, 3):
        inst = random_instance(seed, n_max=90)
        for eps in (inst.lipschitz_L, inst.lipschitz_L / 10.0):
            report = run_suite(inst, eps, seed=seed)
            failing = [c.name for c in report.checks if not c.passed]
            assert report.passed, failing


def test_suite_constant_data_path():
    inst = instance_from_arrays(coords=[[0.0], [0.5], [1.0]], subset=[0, 2],
                                values=[3.0, 3.0], lipschitz=2.0)
    report = run_suite(inst, 1.0)
    assert report.passed
    assert report.schedule_triples is None


def test_corrupted_field_fails_with_witness():
    inst = random_instance(5, n_max=60)
    with corrupted_extension():
        report = run_suite(inst, inst.lipschitz_L)
    assert not report.passed
    for c in report.checks:
        if not c.passed:
            assert c.witness


def test_localization_witness_takes_lowest_index_nearest_anchor():
    # Discrete metric: query 0 is off the subset and every anchor ties as its
    # nearest, so the corrupted value at 0 is localized at the lowest index.
    n = 8
    inst = instance_from_arrays(dmatrix=1.0 - np.eye(n), subset=[6, 3, 5],
                                values=[0.2, 0.9, 0.5])
    with corrupted_extension():
        report = run_suite(inst, inst.lipschitz_L)
    loc = next(c for c in report.checks if c.name == "localization")
    assert loc.status == "fail"
    assert loc.witness["query"] == 0
    assert loc.witness["xbar"] == 3


def test_localization_margin_witness_is_first_query_and_first_row():
    # Flat profiles and a declared L far above Lip(g, C) put the excluded
    # anchors 2 and 1 (subset rows 1 and 2) inside the eps_{k-1} L / 3 margin
    # of queries 4 and 3, which tie: the witness is query 4 and row 1.
    sch = build_schedule(1.0, 1.0, anchor=2.0, span_low=1e-9, span_high=4.0)
    t = float(sch.eps[9])
    d = np.ones((5, 5)) - np.eye(5)
    d[0, 3:] = d[3:, 0] = t
    d[3, 4] = d[4, 3] = t
    inst = instance_from_arrays(dmatrix=d, subset=[0, 2, 1], values=[0.0, 0.5, 0.5],
                                lipschitz=1000.0)
    m = len(sch.eps) + 1
    flat = ProfileBank(inst.subset, sch.eps, np.zeros((3, m)), np.zeros((3, m)))
    field = extend(inst, sch, [4, 3], profiles=flat)
    res = check_localization(inst, field, flat)
    assert res.status == "fail"
    assert res.witness == {"query": 4, "xbar": 0, "k": sch.k_min + 12, "anchor": 2}
    assert res.measured == 0.5 - (0.0 + float(sch.eps[11]) * 1000.0 / 3.0)
    # An anchor exactly on the eps_k sphere at xbar is excluded too.
    d[0, 1] = d[1, 0] = float(sch.eps[12])
    d[1, 3:] = d[3:, 1] = float(sch.eps[12])
    inst = instance_from_arrays(dmatrix=d, subset=[0, 2, 1], values=[0.0, 0.5, 0.25],
                                lipschitz=1000.0)
    field = extend(inst, sch, [4, 3], profiles=flat)
    assert check_localization(inst, field, flat).witness["anchor"] == 1


def test_check_localization_is_one_localized_pass(monkeypatch):
    # The pass that localizes also measures the exclusion margins: each family
    # entry |C| x n is formed once, and each distance twice (the rows' own and
    # d(anchors, xbar)), with no second pass over the localized queries.
    inst = _cloud(1000)
    sch = schedule_for_instance(inst, 0.5)
    profiles = build_profiles(inst, sch)
    field = extend(inst, sch, profiles=profiles)
    formed = {"family": 0, "distances": 0}
    family, distances = extension._family, MetricInstance.distances

    def counted_family(instance, bank, points):
        formed["family"] += len(bank.anchors) * len(points)
        return family(instance, bank, points)

    def counted_distances(self, rows, cols):
        formed["distances"] += len(rows) * len(cols)
        return distances(self, rows, cols)

    for module in (extension, verification):
        monkeypatch.setattr(module, "_family", counted_family)
    monkeypatch.setattr(MetricInstance, "distances", counted_distances)
    assert check_localization(inst, field, profiles).status == "pass"
    size = len(inst.subset) * inst.n
    assert formed == {"family": size, "distances": 2 * size}


def test_check_restriction_witness():
    inst = random_instance(6, n_max=50)
    sch = schedule_for_instance(inst, 1.0)
    field = extend(inst, sch)
    assert check_restriction(field, inst).status == "pass"
    bad = field.values.copy()
    pos = int(np.flatnonzero(inst.subset_positions()[field.queries] >= 0)[0])
    bad[pos] += 1.0
    from dataclasses import replace
    res = check_restriction(replace(field, values=bad), inst)
    assert res.status == "fail"
    assert res.witness["index"] == int(field.queries[pos])


def test_check_global_lipschitz_budgets():
    inst = grid_instance(41)
    field = extend(inst, schedule_for_instance(inst, 1.0))
    ms = mcshane_upper_many(inst, 1.0, np.arange(inst.n))
    from dataclasses import replace
    ms_field = replace(field, values=ms[field.queries])
    assert check_global_lipschitz(ms_field, inst, 1.0).status == "pass"
    assert check_global_lipschitz(field, inst, 2.0).status == "pass"
    res = check_global_lipschitz(ms_field, inst, 0.9)
    assert res.status == "fail" and "ratio" in res.witness


def _triu_steepest(field, inst):
    """(measured, i, j) of the exhaustive scan as one gather over ``np.triu_indices``."""
    q = field.queries
    ii, jj = np.triu_indices(len(q), k=1)
    d = dense(inst)[q[ii], q[jj]]
    ok = d > 0
    ratios = np.abs(field.values[ii[ok]] - field.values[jj[ok]]) / d[ok]
    if len(ratios) == 0:
        return None
    worst = int(np.argmax(ratios))
    return float(ratios[worst]), int(q[ii[ok][worst]]), int(q[jj[ok][worst]])


@pytest.mark.parametrize("rows", [1, 2, 7, None])
def test_global_lipschitz_blocks_match_the_triu_scan(monkeypatch, rows):
    """Row blocks of 1, 2 and 7 rows (and the default) give the measured ratio and
    the first steepest pair of the one-gather scan: with repeated queries (pairs at
    distance 0, one of them far steeper than any true pair), on a constant field
    (every ratio 0, so the witness is the first true pair) and on tied values."""
    inst = grid_instance(21)
    field = extend(inst, schedule_for_instance(inst, 1.0))
    rng = np.random.default_rng(3)
    q = np.concatenate([[4, 4], rng.permutation(inst.n), [7, 4, 0]])
    vals = field.values[q]
    vals[1] += 100.0                      # query 4 twice, with two values
    fields = [replace(field, queries=q, values=vals),
              replace(field, queries=q, values=np.full(len(q), 2.5)),
              replace(field, queries=q, values=np.round(vals, 1)),
              replace(field, queries=np.array([5, 5]), values=np.array([0.0, 1.0]))]
    for fld in fields:
        if rows is not None:
            monkeypatch.setattr(metric, "_BLOCK", rows * len(fld.queries))
        res = check_global_lipschitz(fld, inst, 2.0)
        want = _triu_steepest(fld, inst)
        if want is None:
            assert res.status == "skipped" and res.note == "no distinct pairs"
            continue
        assert (res.measured, res.witness["i"], res.witness["j"]) == want
        assert res.witness["ratio"] == want[0] and res.note == "exhaustive"


def _unvalidated(d):
    """An instance on the symmetric matrix ``d``, positive off its diagonal, with
    no other check: the triangle inequality may fail."""
    return MetricInstance(subset=np.array([0]), values=np.array([0.0]), lipschitz_L=0.0,
                          lipschitz_computed=0.0, dmatrix=np.asarray(d, dtype=float))


def _quartile_instances():
    rng = np.random.default_rng(4)
    out = []
    for n in (2, 3, 50):
        out.append(instance_from_arrays(coords=rng.uniform(0.0, 1.0, (n, 2)), subset=[0],
                                        values=[0.0]))
        steps = np.triu(rng.integers(1, 4, (n, n)).astype(float), 1)
        out.append(_unvalidated(steps + steps.T))   # three distinct distances, repeated
        out.append(_unvalidated(1.0 - np.eye(n)))   # one distance
    # Clouds over several row blocks at the module's own block size, on both
    # sides of the Euclidean fill's switch at 8 coordinates.
    for dim in (3, 16):
        out.append(instance_from_arrays(coords=rng.uniform(0.0, 1.0, (300, dim)), subset=[0],
                                        values=[0.0]))
    # The upper quartile interpolates with t = 0.75, where numpy's two lerp
    # branches give different last bits on these distances.
    d1, d2, d3 = 1.460045139309096, 1.9489436749377653, 3.0552619924444304
    out.append(instance_from_arrays(dmatrix=[[0.0, d1, d2], [d1, 0.0, d3], [d2, d3, 0.0]],
                                    subset=[0], values=[0.0]))
    # The validator admits -0.0 on an explicit matrix's diagonal, which the
    # select never reads.
    out.append(instance_from_arrays(dmatrix=[[-0.0, 1.0, 1.5], [1.0, -0.0, 2.0],
                                             [1.5, 2.0, -0.0]], subset=[0], values=[0.0]))
    return out + TIE_INSTANCES


def _np_quartiles(inst):
    dd = dense(inst)
    return np.quantile(dd[dd > 0], [0.25, 0.5, 0.75]).tolist()


@pytest.mark.parametrize("budget", [None, 1, 7, 50])
def test_distance_quartiles_match_np_quantile(monkeypatch, budget):
    """The streamed quartiles are the bits of ``np.quantile`` over the copied positive
    distances, also with the entry budget patched down so the selection
    histograms several 16-bit digits before it keeps the few entries left."""
    cases = [(inst, _np_quartiles(inst)) for inst in _quartile_instances()]
    if budget is not None:
        monkeypatch.setattr(metric, "_BLOCK", budget)
    for inst, want in cases:
        assert _distance_quartiles(inst) == want, inst.n
    one = instance_from_arrays(coords=[[0.0]], subset=[0], values=[0.0])
    assert _distance_quartiles(one) == [1.0]


def _cloud(n):
    """``n`` seeded points in the unit cube, data on a tenth of them."""
    rng = np.random.default_rng(8)
    coords = rng.uniform(0.0, 1.0, (n, 3))
    subset = np.sort(rng.choice(n, size=n // 10, replace=False))
    return instance_from_arrays(coords=coords, subset=subset,
                                values=np.sin(4.0 * coords[subset, 0]) + coords[subset, 2] ** 2)


def _traced_peak(fn, *args):
    """``(fn(*args), the peak traced bytes above the start)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = fn(*args)
        return got, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_distance_quartiles_memory_is_a_fraction_of_the_matrix():
    """The quartile step walks the upper triangle in blocks: building the matrix,
    or copying the positive distances, would trace at least the 32 MB matrix."""
    n = 2000
    inst = _cloud(n)
    got, peak = _traced_peak(_distance_quartiles, inst)
    assert got == _np_quartiles(inst)
    assert peak <= n * n * 8 / 4, f"traced peak {peak / (n * n * 8):.2f} x the matrix"


def test_run_suite_memory_is_a_fraction_of_the_matrix():
    """No check of the battery, nor the quartiles, holds an n x n array of a
    Euclidean instance: the whole suite traces under half the matrix."""
    n = 2000
    inst = _cloud(n)
    report, peak = _traced_peak(run_suite, inst, 0.5)
    assert report.passed
    assert peak < 0.5 * n * n * 8, f"traced peak {peak / (n * n * 8):.2f} x the matrix"


@pytest.mark.parametrize("n", [1000, 1001])
def test_run_suite_walks_the_pairs_three_times(monkeypatch, n):
    """Walks of at least n/2 points on the seeded cloud: the two radix passes of
    the quartiles, and one walk after ``extend`` that the global, inf-family and
    McShane-fragment scans share (four walks of their own before, six in all).
    Past 500,000 pairs (1001 points) the global scan still reads every pair on
    the shared walk: a sampled scan would walk its sample on its own.  A walk is
    counted in the rows its blocks read, as its workers may share its blocks."""
    inst = _cloud(n)
    rows, upper = [], metric._upper_blocks

    def counted(instance, points, blocks=None):
        for a, d, mask in upper(instance, points, blocks):
            rows.extend([(len(points), len(d))] if len(points) >= inst.n / 2 else [])
            yield a, d, mask

    monkeypatch.setattr(metric, "_upper_blocks", counted)
    report = run_suite(inst, 0.5)
    assert report.passed
    assert next(c for c in report.checks if c.name == "global_lipschitz").note == "exhaustive"
    assert {m for m, _ in rows} == {inst.n}
    assert sum(r for _, r in rows) == 3 * (inst.n - 1)


def _far_cluster():
    """A unit-square cloud with the subset, and five points 100 away with none:
    the quartile radii reach no far point from a subset center, so the fragment
    walks fewer members than the global and inf-family scans."""
    rng = np.random.default_rng(31)
    coords = np.vstack([rng.uniform(0.0, 1.0, (60, 2)), rng.uniform(100.0, 100.5, (5, 2))])
    subset = np.sort(rng.choice(60, 8, replace=False))
    return instance_from_arrays(coords=coords, subset=subset,
                                values=np.sin(3.0 * coords[subset, 0]) + coords[subset, 1])


def _shared_and_alone(inst, epsilon=0.5, xi=0.1):
    """The global, inf-family and fragment parts of ``run_suite``'s report, and the
    same parts from standalone calls on the schedule, bank and field it builds."""
    doc = run_suite(inst, epsilon, xi=xi).to_json()
    shared = [c for c in doc["checks"] if c["name"] in ("global_lipschitz", "inf_family")]
    qs, queries = _distance_quartiles(inst), np.arange(inst.n)
    sch = schedule_for_instance(inst, epsilon, queries, locality=(qs[0], xi))
    bank = build_profiles(inst, sch)
    field, budget = extend(inst, sch, queries, profiles=bank), inst.lipschitz_L + sch.eps_eff
    alone = [check_global_lipschitz(field, inst, budget).to_json(),
             check_inf_family(inst, bank, queries, budget).to_json(),
             mcshane_comparison(inst, sorted(set(qs)), epsilon, field)]
    return shared + [doc["fragments"]["mcshane_comparison"]], alone


@pytest.mark.parametrize("patch", [None, ("_BLOCK", 1), ("_TOP_K", 1)],
                         ids=["default", "one_row_blocks", "top_1"])
def test_shared_walk_gives_the_standalone_checks(monkeypatch, patch):
    """The scans that share ``run_suite``'s walk give the standalone calls' results:
    on tie metrics (the steepest pair is the first in row-major order), and on a
    cloud whose fragment reach is a strict subset of the domain, with one-row
    blocks and with one kept pair; at default settings also on a 1001-point cloud,
    past 500,000 pairs, where the global check still reads every pair."""
    far = _far_cluster()
    nearest_center = far.distances(far.subset, np.arange(far.n)).min(axis=0)
    assert np.any(nearest_center >= max(_distance_quartiles(far)))     # a strict reach
    cases = TIE_INSTANCES + [far] + ([_cloud(1001)] if patch is None else [])
    if patch is not None:
        monkeypatch.setattr(metric, *patch)
    for inst in cases:
        shared, alone = _shared_and_alone(inst)
        assert shared == alone, inst.n
        assert shared[0]["note"] == "exhaustive", inst.n


def test_envelope_sandwich_memory_is_a_fraction_of_the_cone_rows():
    """Both McShane envelopes reduce one block of queries at a time: one pass
    over every query holds three |C| x n arrays (distances, slopes, cones)."""
    n = 2000
    inst = _cloud(n)
    sch = schedule_for_instance(inst, 0.5)
    field = extend(inst, sch)
    res, peak = _traced_peak(check_envelope_sandwich, field, inst, inst.lipschitz_L + sch.eps_eff)
    assert res.status == "pass"
    rows = len(inst.subset) * n * 8
    assert peak < rows, f"traced peak {peak / rows:.2f} x |C| n"


def test_envelope_sandwich_forms_each_cone_distance_once(monkeypatch):
    """Both envelopes come from one pass over the query blocks: |C| n distance
    entries, not one pass per envelope (2 |C| n)."""
    inst = _cloud(1000)
    sch = schedule_for_instance(inst, 0.5)
    field = extend(inst, sch)
    formed, distances = [0], MetricInstance.distances

    def counted(self, rows, cols):
        formed[0] += len(rows) * len(cols)
        return distances(self, rows, cols)

    monkeypatch.setattr(MetricInstance, "distances", counted)
    assert check_envelope_sandwich(field, inst, inst.lipschitz_L + sch.eps_eff).status == "pass"
    assert formed == [len(inst.subset) * inst.n]


def test_check_step2_on_two_point_subset():
    inst = grid_instance(21)
    sch = schedule_for_instance(inst, 1.0)
    profiles = build_profiles(inst, sch)
    res = check_step2(inst, profiles, sch)
    assert res.status == "pass"
    assert res.measured >= -1e-9 * inst.check_scale()


def test_check_step2_random_clouds():
    for seed in (0, 7):
        inst = random_instance(seed, n_max=70)
        sch = schedule_for_instance(inst, inst.lipschitz_L / 2.0)
        res = check_step2(inst, build_profiles(inst, sch), sch)
        assert res.status == "pass"


def test_locality_preservation_on_grid():
    inst = grid_instance(1001)
    sch = schedule_for_instance(inst, 1.0, locality=(0.5, 0.1))
    field = extend(inst, sch)
    res = check_locality_preservation(inst, field, [0], 0.5, 0.1)
    assert res.status == "pass"
    # data on the endpoints has zero local constant, so the bound is xi itself
    assert res.witness["lip_g_plus_xi"] == pytest.approx(0.1)
    assert res.witness["lip_f"] <= 0.1


def test_locality_preservation_random_quartiles():
    inst = random_instance(8, n_max=60)
    dd = dense(inst)
    for q in (0.25, 0.5):
        r_bar = float(np.quantile(dd[dd > 0], q))
        sch = schedule_for_instance(inst, inst.lipschitz_L, locality=(r_bar, 0.2))
        field = extend(inst, sch)
        for xb in inst.subset:
            assert check_locality_preservation(inst, field, [int(xb)],
                                               r_bar, 0.2).passed
        res = check_locality_preservation(inst, field, inst.subset, r_bar, 0.2)
        assert res.passed and res.note == f"worst of {len(inst.subset)} centers"


# Three subset points on a line, each with three off-subset points packed
# within 7 * 2^-40 of it, well inside the scheduled locality radius (~1.3e-9
# at r_bar 0.5, xi 0.1): every locality ball holds four points.
_H = 2.0 ** -40
_OFFSETS = np.array([0.0, _H, 3.0 * _H, 7.0 * _H])


def _clustered():
    coords = np.concatenate([b + _OFFSETS for b in (0.0, 1.0, 2.0)])[:, None]
    inst = instance_from_arrays(coords=coords, subset=[0, 4, 8],
                                values=[0.0, 1.0, 0.5])
    sch = schedule_for_instance(inst, 1.0, locality=(0.5, 0.1))
    return inst, extend(inst, sch), locality_radius(sch, 0.5, 0.1, inst.lipschitz_L)[1]


def test_locality_ball_holds_several_points():
    inst, field, r = _clustered()
    res = check_locality_preservation(inst, field, inst.subset, 0.5, 0.1)
    assert res.passed and res.note == "worst of 3 centers"
    for xb in inst.subset:
        one = check_locality_preservation(inst, field, [int(xb)], 0.5, 0.1)
        ball = np.flatnonzero(dense(inst)[xb] < r)
        assert len(ball) == 4 and one.witness["ball_points"] == 4
        assert one.witness["r"] == r
        want = oracle_lip(inst, field.values[ball], ball)
        assert want > 0.0 and one.witness["lip_f"] == want
    # the batch reports the center with the largest Lip(f, B_r)
    lips = [check_locality_preservation(inst, field, [int(x)], 0.5, 0.1).measured
            for x in inst.subset]
    assert res.measured == max(lips)
    assert res.witness["x_bar"] == int(inst.subset[int(np.argmax(lips))])
    suite = run_suite(inst, 1.0, xi=0.1, r_bar=0.5)
    loc = next(c for c in suite.checks if c.name == "locality_preservation")
    assert loc.to_json() == res.to_json()


def _corrupt(field, **slopes):
    """f = base + slope * offset on the cluster of each named subset point."""
    vals = field.values.copy()
    for name, slope in slopes.items():
        start = {"a": 0, "b": 4, "c": 8}[name]
        vals[start:start + 4] = vals[start] + slope * _OFFSETS
    return replace(field, values=vals)


def test_locality_reports_first_failing_center_with_largest_lip():
    inst, field, _ = _clustered()
    # both a and c fail with the same Lip(f, B_r) = 1: the first listed wins
    tied = _corrupt(field, a=1.0, c=1.0)
    for order in ([0, 4, 8], [8, 4, 0]):
        res = check_locality_preservation(inst, tied, order, 0.5, 0.1)
        assert res.status == "fail" and res.witness["x_bar"] == order[0]
        assert res.witness["lip_f"] == 1.0
    # the larger failing constant wins over the earlier center
    res = check_locality_preservation(inst, _corrupt(field, a=1.0, c=2.0),
                                      [0, 4, 8], 0.5, 0.1)
    assert res.witness["x_bar"] == 8 and res.witness["lip_f"] == 2.0
    # at r_bar 1.5 the bound is Lip(g) + xi = 1.1 at a and b, 0.6 at c: a
    # passes with 1.0, so the failing c (0.8) is reported despite a smaller lip
    res = check_locality_preservation(inst, _corrupt(field, a=1.0, c=0.8),
                                      [0, 4, 8], 1.5, 0.1)
    assert res.status == "fail" and res.witness["x_bar"] == 8
    assert res.witness["lip_g_plus_xi"] == pytest.approx(0.6)


def test_locality_rejects_empty_centers():
    inst, field, _ = _clustered()
    for x_bars in ([], np.array([], dtype=int), [[0]]):
        with pytest.raises(ParameterError):
            check_locality_preservation(inst, field, x_bars, 0.5, 0.1)


def test_check_inf_family():
    inst = grid_instance(11)
    pts = np.arange(inst.n)
    # g(0) + 0.5 d(0, x) and g(10) + 0.25 d(1, x): slopes 0.5 and -0.25 in x.
    fam = hand_bank([0, 10], [0.5], [[0.5, 0.5], [0.25, 0.25]])
    assert check_inf_family(inst, fam, pts, 0.5).status == "pass"
    sch = schedule_for_instance(inst, 1.0)
    profiles = build_profiles(inst, sch)
    budget = inst.lipschitz_L + sch.eps_eff
    assert check_inf_family(inst, profiles, pts, budget).status == "pass"
    bad = hand_bank([0, 10, 0], [0.5], [[0.5, 0.5], [0.25, 0.25], [100.0, 0.0]])
    res = check_inf_family(inst, bad, pts, 0.5)
    assert res.status == "skipped" and "precondition" in res.note


def _dyadic_suite(top):
    """run_suite on the points {0, 1} and 2**-j for 1 <= j < top, data 0, 1 on {0, 1}."""
    points = [0.0, 1.0] + [2.0 ** -j for j in range(1, top)]
    inst = instance_from_arrays(coords=[[p] for p in points], subset=[0, 1],
                                values=[0.0, 1.0])
    return {c.name: c for c in run_suite(inst, 0.5, xi=0.1, r_bar=0.5).checks}


def test_dyadic_instance_pins_the_roundoff_finding():
    # A known, unfixed finding: the locality ball holds many points, but below
    # j = 54 the Euclidean roundoff 1 - 2**-54 == 1 makes d(1, 2**-54) == d(1, 0),
    # and family member 1 measures 8.0 against L + eps = 1.5.
    checks = _dyadic_suite(60)
    fam = checks["inf_family"]
    assert (fam.status, fam.witness, fam.measured, fam.allowed) == (
        "skipped", {"member": 1}, 8.0, 1.5000000015)
    loc = checks["locality_preservation"]
    assert loc.status == "pass"
    assert (loc.witness["ball_points"], loc.witness["lip_f"]) == (26, 0.005208333333333334)
    # Without the pairs below 2**-50 the precondition holds and the check passes.
    fam = _dyadic_suite(50)["inf_family"]
    assert (fam.status, fam.measured) == ("pass", 1.3333333333333333)


def _dyadic_satellites():
    """Anchors 0, .25, .5, .75, 1 (values 0, .5, .6, .6, .6), each followed by seven
    satellites 2**-j away (40 <= j < 47) towards the interior: below it from 0.5 on.
    Every coordinate is a multiple of 2**-46, so every computed distance is exact."""
    x = np.array([a + (1.0 if a < 0.5 else -1.0) * d
                  for a in (0.0, 0.25, 0.5, 0.75, 1.0)
                  for d in [0.0] + [2.0 ** -j for j in range(40, 47)]])
    inst = instance_from_arrays(coords=x[:, None], subset=[0, 8, 16, 24, 32],
                                values=[0.0, 0.5, 0.6, 0.6, 0.6])
    return inst, x


def test_locality_check_separates_the_extension_from_mcshane():
    # The locality balls hold whole satellite clusters, so the headline check
    # Lip(f, B_r(x)) <= Lip(g, C within B_rbar(x)) + xi can fail here.
    inst, x = _dyadic_satellites()
    assert np.array_equal(dense(inst), np.abs(x[:, None] - x[None, :]))
    assert inst.lipschitz_L == 2.0
    suite = run_suite(inst, 0.5, xi=0.1, r_bar=0.3)
    assert suite.passed and all(c.status == "pass" for c in suite.checks)
    sch = schedule_for_instance(inst, 0.5, locality=(0.3, 0.1))
    field = extend(inst, sch, np.arange(inst.n))
    res = check_locality_preservation(inst, field, inst.subset, 0.3, 0.1)
    assert res.passed and res.witness["ball_points"] == 8
    assert res.to_json() == next(c.to_json() for c in suite.checks
                                 if c.name == "locality_preservation")
    # McShane's L-cone envelope keeps slope 2 next to 0.5, where the data allow 0.4.
    cones = replace(field, values=mcshane_upper_many(inst, 2.0, field.queries))
    res = check_locality_preservation(inst, cones, inst.subset, 0.3, 0.1)
    assert res.status == "fail" and res.witness["ball_points"] == 8
    assert (res.witness["x_bar"], res.witness["lip_f"]) == (16, 2.0)
    assert res.witness["lip_g_plus_xi"] == pytest.approx(0.5)


def test_mcshane_comparison_endpoint_grid():
    inst = grid_instance(1001)
    field = extend(inst, schedule_for_instance(inst, 1.0))
    frag = mcshane_comparison(inst, [0.1, 0.3, 0.5], 1.0, field)
    row0 = next(r for r in frag["centers"] if r["center"] == 0)
    assert row0["mcshane"] == [1.0, 1.0, 1.0]
    assert all(e < 1.0 for e in row0["extension"][:1])


def test_mcshane_comparison_rejects_infinite_radius():
    # an infinite radius would put inf into a fragment JSON cannot carry
    inst = grid_instance(11)
    field = extend(inst, schedule_for_instance(inst, 1.0))
    with pytest.raises(ParameterError, match="finite"):
        mcshane_comparison(inst, [0.5, np.inf], 1.0, field)


def test_mcshane_comparison_constant_data():
    inst = instance_from_arrays(coords=[[0.0], [1.0]], subset=[0, 1],
                                values=[2.0, 2.0], lipschitz=1.0)
    frag = mcshane_comparison(inst, [0.5, 1.5], 1.0, extend(inst, None))
    for row in frag["centers"]:
        assert row["mcshane"] == [0.0, 0.0]
        assert row["extension"] == [0.0, 0.0]


def test_report_json_shape():
    inst = random_instance(9, n_max=40)
    report = run_suite(inst, inst.lipschitz_L)
    doc = report.to_json()
    assert doc["kind"] == "verification_report" and doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"restriction", "global_lipschitz", "envelope_sandwich",
            "step2_lower_bound", "localization", "locality_preservation",
            "schedule_laws", "profile_legality", "inf_family"} <= names
    assert "mcshane_comparison" in doc["fragments"]


def test_fail_requires_witness():
    with pytest.raises(ParameterError):
        CheckResult("x", "fail")


def test_envelope_sandwich_check():
    inst = random_instance(10, n_max=50)
    sch = schedule_for_instance(inst, 1.0)
    field = extend(inst, sch)
    assert check_envelope_sandwich(field, inst,
                                   inst.lipschitz_L + sch.eps_eff).passed


# Every scalar parameter rejects a string, None or a bool with its site's
# message: never a TypeError, never True read as 1.  The positive finite reals
# share one message.
def _positive(name):
    return f"^{name} must be a positive finite real$"


BAD_SCALARS = {
    "run_suite-epsilon-bool": (
        lambda inst, sch, fld: run_suite(inst, True), _positive("epsilon")),
    "run_suite-xi-str": (
        lambda inst, sch, fld: run_suite(inst, 0.5, xi="0.1"), _positive("xi")),
    "run_suite-rbar-str": (
        lambda inst, sch, fld: run_suite(inst, 0.5, r_bar="0.5"), _positive("r_bar")),
    "locality_radius-rbar-none": (
        lambda inst, sch, fld: locality_radius(sch, None, 0.1, inst.lipschitz_L),
        _positive("r_bar")),
    "locality_radius-xi-bool": (
        lambda inst, sch, fld: locality_radius(sch, 0.5, True, inst.lipschitz_L),
        _positive("xi")),
    "truncate_bounded-str": (
        lambda inst, sch, fld: truncate_bounded(fld, "2"), _positive("bound")),
    "truncate_bounded-bool": (
        lambda inst, sch, fld: truncate_bounded(fld, True), _positive("bound")),
    "cutoff_support-str": (
        lambda inst, sch, fld: cutoff_support(fld, inst, "1"), _positive("epsilon")),
    "cutoff_support-bool": (
        lambda inst, sch, fld: cutoff_support(fld, inst, True), _positive("epsilon")),
    "extension_energy-xi-str": (lambda inst, sch, fld: check_extension_energy(
        inst, validate_measure(inst), [0.5], "0.1"), _positive("xi")),
    "extension_energy-epsilon-bool": (lambda inst, sch, fld: check_extension_energy(
        inst, validate_measure(inst), [0.5], 0.1, True), _positive("epsilon")),
    "locality-rbar-bool": (lambda inst, sch, fld: schedule_for_instance(
        inst, 1.0, locality=(True, 0.1)), _positive("r_bar")),
    "locality-rbar-nan": (lambda inst, sch, fld: schedule_for_instance(
        inst, 1.0, locality=(float("nan"), 0.1)), _positive("r_bar")),
    "locality-xi-bool": (lambda inst, sch, fld: schedule_for_instance(
        inst, 1.0, locality=(0.5, True)), _positive("xi")),
    # build_schedule and validate_measure keep their own messages.
    **{f"build_schedule-{name}-bool": (
        lambda inst, sch, fld, pos=pos: build_schedule(
            *[True if k == pos else v for k, v in enumerate((1.0, 1.0, 1.0, 0.01, 2.0))]),
        f"^{name} must be a finite real, got True$")
       for pos, name in enumerate(("L", "epsilon", "anchor", "span_low", "span_high"))},
    "validate_measure-p-bool": (
        lambda inst, sch, fld: validate_measure(inst, None, True),
        r"^exponent p must be a finite real >= 1, got True$"),
}


@pytest.mark.parametrize("case", BAD_SCALARS.values(), ids=BAD_SCALARS.keys())
def test_bad_scalar_parameter_rejected(case):
    call, message = case
    inst = grid_instance(11)
    sch = schedule_for_instance(inst, 1.0)
    fld = extend(inst, sch)
    with pytest.raises(ParameterError, match=message):
        call(inst, sch, fld)
