import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lipext import (ParameterError, ProfileBank, ScheduleTooShallow, build_profiles,
                    build_schedule, check_inf_family, check_locality_preservation, check_step2,
                    cutoff_support, extend, extend_localized, instance_from_arrays,
                    locality_radius, mcshane_comparison, mcshane_upper_many,
                    schedule_for_instance, truncate_bounded, validate_instance)
from lipext import extension, metric
from lipext.errors import positive_real
from lipext.extension import BANK_RULE, _bank, evaluation_diameters
from lipext.verification import check_localization

from conftest import (bank_rows, dense, eval_pen, grid_instance, hand_bank, oracle_extend,
                      oracle_mcshane_lower, oracle_mcshane_upper, oracle_pen,
                      random_instance, scales, slope_map)


def _grid_setup(n=1001, epsilon=1.0):
    inst = grid_instance(n)
    sch = schedule_for_instance(inst, epsilon)
    return inst, sch


# --- slope maps (one ball_lips row per anchor) -------------------------------


def test_slopes_vanish_then_saturate_on_endpoint_grid():
    inst, sch = _grid_setup(11)
    smap = slope_map(inst, 0, sch)
    for k, eps_k in scales(sch).items():
        assert smap[k] == (0.0 if eps_k <= 1.0 else 1.0)


def test_slopes_zero_for_constant_values():
    inst = instance_from_arrays(coords=[[0.0], [0.3], [1.0]], subset=[0, 1, 2],
                                values=[2.0, 2.0, 2.0], lipschitz=1.0)
    sch = build_schedule(inst.lipschitz_L, 1.0, 1.0, 0.3 / 64.0, 2.0)
    assert all(v == 0.0 for v in slope_map(inst, 0, sch).values())


def test_slope_of_partial_ball_brute_force():
    # ball of radius 0.7 at the left end holds {0, 0.5}: slope |1-0|/0.5 = 2
    inst = instance_from_arrays(coords=[[0.0], [0.5], [1.0]],
                                subset=[0, 1, 2], values=[0.0, 1.0, 1.0])
    sch = build_schedule(inst.lipschitz_L, 1.0, anchor=0.7,
                         span_low=1e-4, span_high=4.0)
    smap = slope_map(inst, 0, sch)
    k07 = [k for k, e in scales(sch).items() if abs(e - 0.7) < 1e-9]
    assert k07 and smap[k07[0]] == 2.0


def test_slopes_monotone_and_saturate():
    inst = random_instance(1, n_max=60)
    sch = schedule_for_instance(inst, 0.5)
    smap = slope_map(inst, int(inst.subset[0]), sch)
    vals = [smap[k] for k in sorted(smap)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == inst.lipschitz_computed


# --- profile banks / eval_pen ------------------------------------------------


def test_zero_slope_map_gives_pure_ratio_penalty():
    # Constant data has S = 0 at every anchor and scale.
    sch = build_schedule(1.0, 1.0, 1.0, 1e-6, 10.0)
    inst = instance_from_arrays(coords=[[0.0], [0.3], [1.0]], subset=[0, 1, 2],
                                values=[2.0, 2.0, 2.0], lipschitz=1.0)
    prof = build_profiles(inst, sch)
    expected = 3.0 * np.array([sch.ratio[k - sch.k_min - 1]
                               for k in range(sch.k_min + 1, sch.k_max + 1)])
    bands = prof.slopes[0, 1:-1]
    assert np.array_equal(bands, expected)
    assert np.all(bands <= 0.5)
    assert np.all(np.diff(bands) >= 0)


def test_profile_slopes_within_budget():
    inst = random_instance(4)
    sch = schedule_for_instance(inst, 0.7)
    cap = inst.lipschitz_L + sch.eps_eff
    bank = build_profiles(inst, sch)
    assert np.all(bank.slopes >= 0) and np.all(bank.slopes <= cap)
    assert np.array_equal(bank.slopes[:, 0], bank.slopes[:, 1])  # base = first band
    assert np.all(bank.slopes[:, -2] <= bank.slopes[:, -1])      # last band <= tail


def test_pen_zero_and_breakpoint_continuity():
    inst = random_instance(8)
    sch = schedule_for_instance(inst, 1.0)
    bank = build_profiles(inst, sch)
    bp = bank.breakpoints
    for i in range(len(bank.anchors)):
        row = bank_rows(bank, [i])
        assert eval_pen(row, 0.0) == 0.0
        assert bank.cumulative[i, 0] == 0.0
        assert bank.cumulative[i, 1] == bank.slopes[i, 0] * bp[0]
        for b, c in zip(bp, bank.cumulative[i, 1:]):
            assert eval_pen(row, float(b)) == float(c)


def test_eval_pen_tail_and_midpoint():
    sch = build_schedule(1.0, 1.0, 1.0, 1e-6, 10.0)
    prof = _bank(np.array([-1]), np.full((1, len(sch.ratio)), 0.5), sch, L=1.0)
    b, P = prof.breakpoints[-1], prof.cumulative[0, -1]
    assert eval_pen(prof, 3.0 * b) == P + prof.slopes[0, -1] * (3.0 * b - b)
    lo, hi = prof.breakpoints[3], prof.breakpoints[4]
    mid = lo + (hi - lo) / 2.0
    # the band (bp[3], bp[4]) is region 4: value at bp[3] plus its slope
    assert eval_pen(prof, mid) == prof.cumulative[0, 4] + prof.slopes[0, 4] * (mid - lo)


def test_eval_pen_matches_integral_oracle():
    inst = random_instance(9)
    sch = schedule_for_instance(inst, 0.4)
    bank = build_profiles(inst, sch)
    rng = np.random.default_rng(0)
    for t in np.concatenate([rng.uniform(0, 3, 40), bank.breakpoints[:5]]):
        assert eval_pen(bank_rows(bank, [0]), float(t)) == pytest.approx(
            oracle_pen(bank, 0, float(t)), rel=1e-12, abs=1e-300)


def test_pen_monotone_convex_on_samples():
    inst = random_instance(10)
    sch = schedule_for_instance(inst, 1.0)
    prof = bank_rows(build_profiles(inst, sch), [0])
    ts = np.linspace(0.0, 2.5, 200)
    vals = np.array([eval_pen(prof, float(t)) for t in ts])
    assert np.all(np.diff(vals) >= 0)
    second = np.diff(np.diff(vals))
    assert np.all(second >= -1e-12)


# --- McShane envelopes -------------------------------------------------------


def _mcshane_lower(instance, l_prime, queries):
    """The lower McShane envelope: the second half of one cone pass."""
    return extension._cones(instance, l_prime, queries)[1]


def test_mcshane_interval_midpoint():
    inst = instance_from_arrays(coords=[[0.0], [0.5], [1.0]], subset=[0, 2],
                                values=[0.0, 1.0])
    assert mcshane_upper_many(inst, 1.0, [1])[0] == 0.5
    assert _mcshane_lower(inst, 1.0, [1])[0] == 0.5
    assert mcshane_upper_many(inst, 1.0, [0])[0] == 0.0
    assert _mcshane_lower(inst, 1.0, [2])[0] == 1.0


def test_mcshane_singleton_subset_is_cone():
    inst = instance_from_arrays(coords=[[0.0], [2.0]], subset=[0], values=[3.0])
    assert mcshane_upper_many(inst, 1.5, [1])[0] == 3.0 + 1.5 * 2.0
    assert _mcshane_lower(inst, 1.5, [1])[0] == 3.0 - 1.5 * 2.0


def test_mcshane_budget_validation(line3):
    with pytest.raises(ParameterError):
        mcshane_upper_many(line3, 0.5, [1])
    with pytest.raises(ParameterError):
        _mcshane_lower(line3, 0.5, [1])
    for many in (mcshane_upper_many, _mcshane_lower):
        with pytest.raises(ParameterError, match="envelope constant"):
            many(line3, 10 ** 400, [1])


@pytest.mark.parametrize("many", [mcshane_upper_many, _mcshane_lower])
def test_mcshane_envelope_constant_too_long_to_print(line3, many):
    for l_prime in (10 ** 5000, -10 ** 5000):
        with pytest.raises(ParameterError, match="^envelope constant <int "):
            many(line3, l_prime, [1])


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
def test_positive_real_takes_integers_beyond_float_range_as_non_finite(value):
    with pytest.raises(ParameterError, match="xi must be a positive finite real"):
        positive_real("xi", value)
    assert positive_real("xi", 10 ** 300) == 1e300


@pytest.mark.parametrize("many", [mcshane_upper_many, _mcshane_lower])
def test_mcshane_envelope_constant_is_read_as_its_python_float(many):
    """np.float32(1.0) is 1.0, below Lip(g, C) = 1.00000001, which float32 rounds to 1.0."""
    inst = instance_from_arrays(coords=[[0.0], [1.0], [2.0]], subset=[0, 1],
                                values=[0.0, 1.00000001])
    for l_prime in (1.0, np.float32(1.0)):
        with pytest.raises(ParameterError, match=r"^envelope constant 1\.0 below Lip"):
            many(inst, l_prime, [0, 1, 2])


@pytest.mark.parametrize("many", [mcshane_upper_many, _mcshane_lower])
@pytest.mark.parametrize("queries", [[[1, 2], [3]], 3, [0, 3], [True], [0.5]],
                         ids=["ragged", "scalar", "out-of-range", "bool", "float"])
def test_mcshane_envelopes_reject_bad_queries_before_any_block(line3, many, queries):
    with pytest.raises(ParameterError,
                       match=r"^rows and cols must be 1-D lists of point indices in \[0, 3\)$"):
        many(line3, 1.0, queries)


def test_mcshane_matches_oracle():
    inst = random_instance(12)
    lp = inst.lipschitz_L * 1.25
    for y in range(0, inst.n, 7):
        assert mcshane_upper_many(inst, lp, [y])[0] == pytest.approx(
            oracle_mcshane_upper(inst, lp, y), rel=1e-14)
        assert _mcshane_lower(inst, lp, [y])[0] == pytest.approx(
            oracle_mcshane_lower(inst, lp, y), rel=1e-14)


# --- extend ------------------------------------------------------------------


def test_extend_restricts_exactly():
    inst = random_instance(2)
    sch = schedule_for_instance(inst, inst.lipschitz_L / 3.0)
    field = extend(inst, sch)
    pos = inst.subset_positions()[field.queries]
    onc = pos >= 0
    assert np.array_equal(field.values[onc], inst.values[pos[onc]])
    assert np.array_equal(field.anchors[onc], field.queries[onc])


def test_extend_linear_profiles_reproduce_mcshane():
    inst = random_instance(6)
    L = inst.lipschitz_L
    sch = schedule_for_instance(inst, 1.0)
    top = float(2.0 * inst.diameter() + 1.0)
    nc = len(inst.subset)
    linear = ProfileBank(anchors=inst.subset, breakpoints=np.array([top]),
                         slopes=np.full((nc, 2), L),
                         cumulative=np.tile([0.0, L * top], (nc, 1)))
    field = extend(inst, sch, profiles=linear)
    assert np.array_equal(field.values, mcshane_upper_many(inst, L, field.queries))


def test_extend_grid_matches_oracle_and_undershoots_identity():
    inst, sch = _grid_setup(1001)
    profiles = build_profiles(inst, sch)
    field = extend(inst, sch, profiles=profiles)
    rng = np.random.default_rng(3)
    for y in rng.choice(inst.n, size=60, replace=False):
        assert field.values[y] == pytest.approx(
            oracle_extend(inst, profiles, int(y)), rel=1e-12)
    # below the first sub-reference scale every profile slope is < 1, so the
    # extension sits strictly below the identity
    cut = sch.eps_at(-1)
    for y in range(1, inst.n // 2):
        t = y / (inst.n - 1)
        if t >= cut:
            break
        assert field.values[y] < t


def test_extend_constant_data_shortcut():
    inst = instance_from_arrays(coords=[[0.0], [0.4], [1.0]], subset=[0, 2],
                                values=[5.0, 5.0])
    field = extend(inst, None)
    assert np.all(field.values == 5.0)
    assert field.schedule is None


def test_extend_requires_schedule_and_span():
    inst = random_instance(7)
    with pytest.raises(ParameterError):
        extend(inst, None)
    shallow = build_schedule(inst.lipschitz_L, 1.0, anchor=1e-4,
                             span_low=1e-9, span_high=2e-4)
    with pytest.raises(ScheduleTooShallow, match="extend schedule"):
        extend(inst, shallow)
    single = instance_from_arrays(coords=[[0.0]], subset=[0], values=[1.0])
    assert schedule_for_instance(single, 1.0) is None


def _bits(schedule):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v
            for k, v in vars(schedule).items()}


def test_schedule_for_instance_equals_the_build_and_rebuild():
    # At r_bar 0.5 and xi 0.01 the build at min(dmin, r_bar) / 64 stops above the
    # scales the locality conditions need.  The one sweep descends on to them: it
    # has the bits of a second build from their depth, read off a deep schedule.
    raw = json.loads((Path(__file__).parent / "golden" / "cloud.json").read_text())
    inst = validate_instance(raw)
    L = inst.lipschitz_L
    dmin, dmax = evaluation_diameters(inst)
    first = build_schedule(L, 0.5, dmax, min(dmin, 0.5) / 64.0, 2.0 * dmax)
    with pytest.raises(ScheduleTooShallow, match="^extend schedule: "):
        locality_radius(first, 0.5, 0.01, L)
    k, required = locality_radius(build_schedule(L, 0.5, dmax, 1e-200, 2.0 * dmax), 0.5, 0.01, L)
    assert 0.0 < required < dmin
    got = schedule_for_instance(inst, 0.5, locality=(0.5, 0.01))
    want = build_schedule(L, 0.5, dmax, min(dmin, required) / 64.0, 2.0 * dmax)
    assert _bits(got) == _bits(want)
    assert locality_radius(got, 0.5, 0.01, L) == (k, required)
    # Constant data needs no schedule, and locality is checked all the same.
    flat = instance_from_arrays(coords=[[0.0], [0.3], [1.0]], subset=[0, 1, 2],
                                values=[2.0, 2.0, 2.0], lipschitz=1.0)
    assert schedule_for_instance(flat, 1.0, locality=(0.5, 0.01)) is None
    with pytest.raises(ParameterError, match="^r_bar must be a positive finite real$"):
        schedule_for_instance(flat, 1.0, locality=(True, 0.01))


def test_extend_envelope_sandwich_random():
    for seed in range(6):
        inst = random_instance(seed)
        eps = inst.lipschitz_L / 2.0
        sch = schedule_for_instance(inst, eps)
        field = extend(inst, sch)
        budget = inst.lipschitz_L + sch.eps_eff
        up = mcshane_upper_many(inst, budget, field.queries)
        lo = _mcshane_lower(inst, budget, field.queries)
        tol = 1e-12 * inst.check_scale()
        assert np.all(field.values <= up + tol)
        assert np.all(field.values >= lo - tol)


# --- extend_localized --------------------------------------------------------


def _nearest_anchors(inst, queries):
    """Nearest subset point of every query, lowest point index on ties."""
    d = inst.distances(inst.subset, queries)
    return np.array([int(inst.subset[np.flatnonzero(col == col.min())].min())
                     for col in d.T])


def oracle_localized(inst, dd, sch, profiles, y, xbar):
    """(value, anchor, record): the minimum over the anchors of y's localization ball,
    with ``dd = dense(inst)``."""
    d_y = dd[y, xbar]
    ks = [k for k in range(sch.k_min + 2, sch.k_max + 1) if d_y < sch.eps_at(k - 2)]
    record = {"k": ks[0], "xbar": int(xbar)} if ks else "full"
    best, anchor = np.inf, None
    for pos, x in enumerate(inst.subset):
        if ks and not dd[x, xbar] < sch.eps_at(ks[0]):
            continue
        phi = inst.values[pos] + eval_pen(bank_rows(profiles, [pos]), float(dd[x, y]))
        if phi < best or (phi == best and int(x) < anchor):
            best, anchor = phi, int(x)
    return best, anchor, record


def test_localized_at_anchor_returns_value(line3):
    sch = schedule_for_instance(line3, 1.0)
    loc = extend_localized(line3, sch, [0, 2])
    assert loc.values.tolist() == [0.0, 1.0]
    assert loc.anchors.tolist() == [0, 2]
    assert [rec["xbar"] for rec in loc.localization] == [0, 2]


def test_localized_equals_full_on_random_clouds():
    for seed in (0, 5, 9):
        inst = random_instance(seed, n_max=80)
        sch = schedule_for_instance(inst, inst.lipschitz_L)
        profiles = build_profiles(inst, sch)
        field = extend(inst, sch, profiles=profiles)
        loc = extend_localized(inst, sch, field.queries, profiles=profiles)
        assert np.array_equal(loc.values, field.values)
        assert np.array_equal(loc.anchors, field.anchors)
        assert any(rec != "full" for rec in loc.localization)


def test_localized_matches_per_query_oracle():
    for seed in (2, 4, 11):
        inst = random_instance(seed, n_max=60)
        sch = schedule_for_instance(inst, inst.lipschitz_L)
        profiles = build_profiles(inst, sch)
        queries = np.arange(inst.n)
        loc, dd = extend_localized(inst, sch, queries, profiles=profiles), dense(inst)
        # The oracle's record centres y at its nearest anchor.
        for i, (y, xbar) in enumerate(zip(queries, _nearest_anchors(inst, queries))):
            value, anchor, record = oracle_localized(inst, dd, sch, profiles, y, xbar)
            assert loc.values[i] == value, f"seed {seed} query {y}"
            assert loc.anchors[i] == anchor
            assert loc.localization[i] == record


def test_localized_exclusion_margin():
    inst = random_instance(3, n_max=80)
    sch = schedule_for_instance(inst, inst.lipschitz_L)
    profiles = build_profiles(inst, sch)
    field = extend(inst, sch, profiles=profiles)
    L = inst.lipschitz_L
    tol = 1e-9 * inst.check_scale()
    loc = extend_localized(inst, sch, field.queries, profiles=profiles)
    dd, checked = dense(inst), 0
    for qi, (y, rec) in enumerate(zip(field.queries, loc.localization)):
        if rec == "full":
            continue
        k, xbar = rec["k"], rec["xbar"]
        dxb = inst.distances(inst.subset, [xbar])[:, 0]
        for pos in np.flatnonzero(dxb >= sch.eps_at(k)):
            t = float(dd[inst.subset[pos], y])
            phi = inst.values[pos] + eval_pen(bank_rows(profiles, [pos]), t)
            assert phi >= field.values[qi] + sch.eps_at(k - 1) * L / 3.0 - tol
            checked += 1
    assert checked > 0


def _pair_at(d01):
    """Anchors 0 and 2 at distance 1 with g = 0, 1 (so L = 1); query 1 at ``d01`` from 0."""
    d12 = max(1.0, d01)
    d = np.array([[0.0, d01, 1.0], [d01, 0.0, d12], [1.0, d12, 0.0]])
    return instance_from_arrays(dmatrix=d, subset=[0, 2], values=[0.0, 1.0])


def test_localized_tie_boundary_takes_next_scale():
    sch = build_schedule(1.0, 1.0, anchor=2.0, span_low=1e-9, span_high=4.0)
    top = len(sch.eps) - 1
    for j in range(top - 2):
        if sch.eps[j] > 1.0:
            break
        # d(y, xbar) == eps_{k_min + j}: strict < skips that scale.
        inst = _pair_at(float(sch.eps[j]))
        loc = extend_localized(inst, sch, [1])
        assert loc.localization == [{"k": sch.k_min + j + 3, "xbar": 0}]
        assert loc.values[0] == extend(inst, sch, [1]).values[0]
    # d == eps_{k_max - 2} (or beyond, up to the top scale) leaves no stored
    # k: the full infimum.
    for j in (top - 2, top - 1, top):
        inst = _pair_at(float(sch.eps[j]))
        loc = extend_localized(inst, sch, [1, 0])
        assert loc.localization == ["full", {"k": sch.k_min + 2, "xbar": 0}]
        full = extend(inst, sch, [1, 0])
        assert np.array_equal(loc.values, full.values)
        assert np.array_equal(loc.anchors, full.anchors)


def test_localized_ball_is_open_and_keeps_lower_anchors_out():
    # With flat profiles the far anchor 2 (g = 0) would win the full minimum;
    # it sits exactly on the eps_k sphere at xbar = 0, so the open ball drops it.
    sch = build_schedule(1.0, 1.0, anchor=2.0, span_low=1e-9, span_high=4.0)
    j = 9
    e, R = float(sch.eps[j]), float(sch.eps[j + 3])
    d = np.array([[0.0, e, R], [e, 0.0, R], [R, R, 0.0]])
    inst = instance_from_arrays(dmatrix=d, subset=[0, 2], values=[1.0, 0.0])
    m = len(sch.eps) + 1
    flat = ProfileBank(inst.subset, sch.eps, np.zeros((2, m)), np.zeros((2, m)))
    loc = extend_localized(inst, sch, [1], profiles=flat)
    assert loc.localization == [{"k": sch.k_min + j + 3, "xbar": 0}]
    assert (loc.values[0], loc.anchors[0]) == (1.0, 0)
    full = extend(inst, sch, [1], profiles=flat)
    assert (full.values[0], full.anchors[0]) == (0.0, 2)


def test_localized_centre_ties_take_the_lowest_point_index():
    # Query 1 sits midway between the anchors 2 and 0 (subset rows 0 and 1):
    # its centre is point 0, neither the first row nor the highest index.
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    inst = instance_from_arrays(dmatrix=d, subset=[2, 0], values=[1.0, 0.0])
    sch = build_schedule(1.0, 1.0, anchor=2.0, span_low=1e-9, span_high=100.0)
    loc = extend_localized(inst, sch, [1])
    assert loc.localization == [{"k": 2, "xbar": 0}]
    assert loc.values[0] == extend(inst, sch, [1]).values[0]


def test_localized_fallback_when_out_of_range():
    inst = random_instance(1, n_max=40)
    sch = schedule_for_instance(inst, 1.0)
    profiles = build_profiles(inst, sch)
    field = extend(inst, sch, profiles=profiles)
    # The query farthest from its nearest anchor leaves no stored k: every anchor.
    far = int(np.argmax(inst.distances(inst.subset, np.arange(inst.n)).min(axis=0)))
    loc = extend_localized(inst, sch, [far], profiles=profiles)
    assert loc.localization == ["full"]
    assert (loc.values[0], loc.anchors[0]) == (field.values[far], field.anchors[far])


def test_localized_rejects_bad_xbars(line3):
    # Centres are the nearest anchors; a stale fourth positional argument is not
    # read as the bank.
    sch = schedule_for_instance(line3, 1.0)
    with pytest.raises(TypeError):
        extend_localized(line3, sch, [1], [0])


def test_non_integer_indices_rejected_not_truncated(line3):
    # The intp conversion alone would evaluate point 1 for 1.9 and read True as 1.
    sch = schedule_for_instance(line3, 1.0)
    const = instance_from_arrays(coords=[[0.0], [0.5], [1.0]], subset=[0, 2],
                                 values=[3.0, 3.0])
    for queries in ([1.9], [True], [0, True], np.array([1.0]), np.array([True, False])):
        for inst, schedule in ((line3, sch), (const, None)):
            with pytest.raises(ParameterError,
                               match="^queries must be a non-empty 1-D index list$"):
                extend(inst, schedule, queries)
            with pytest.raises(ParameterError, match="^queries must be"):
                extend_localized(inst, schedule, queries)
    # Integer lists and arrays of any integer dtype still go through.
    ref = extend(line3, sch, [1])
    for queries in ((1,), np.array([1], dtype=np.int32), np.array([1], dtype=np.uint8)):
        assert np.array_equal(extend(line3, sch, queries).values, ref.values)
        loc = extend_localized(line3, sch, queries)
        assert loc.queries.tolist() == [1] and np.array_equal(loc.values, ref.values)
    # An index beyond intp is out of range like any other: no OverflowError.
    for huge in (2**70, -2**70):
        with pytest.raises(ParameterError, match="^query index out of range$"):
            extend(line3, sch, [huge])
        with pytest.raises(ParameterError, match="^query index out of range$"):
            extend_localized(line3, sch, [huge])
    for points in ([2**70], [-2**70], [2.0], [-1], [3]):
        with pytest.raises(ParameterError,
                           match="^values requested at indices outside the subset$"):
            line3.g_at(points)
        with pytest.raises(ParameterError, match=r"^rows and cols must be 1-D lists"):
            line3.distances([0], points)
    # The checks take their centers and members by the same rule: no truncation,
    # no wrapping of -1 to the last point and no IndexError.
    deep = schedule_for_instance(line3, 1.0, locality=(0.5, 0.1))
    field = extend(line3, deep)
    for x_bars in ([0.9], [True], [2**70]):
        with pytest.raises(ParameterError, match="^x_bars must be a non-empty 1-D index list$"):
            check_locality_preservation(line3, field, x_bars, 0.5, 0.1)
    assert check_locality_preservation(line3, field, [0], 0.5, 0.1).passed
    for centers in ([2.9], [True], [2**70]):
        with pytest.raises(ParameterError, match="^center must belong to the domain$"):
            mcshane_comparison(line3, [0.5], 1.0, field, centers=centers)
    assert mcshane_comparison(line3, [0.5], 1.0, field, centers=[2])["centers"][0]["center"] == 2
    flat = hand_bank([0, 2], [0.5], np.zeros((2, 2)))
    for members in ([0, 1.5, 2], [0, True, 2], [0, 1, -1], [0, 1, 3], [0, 1, 2**70]):
        with pytest.raises(ParameterError, match=r"^members must be a 1-D list of point"):
            check_inf_family(line3, flat, members, 1.0)
    assert check_inf_family(line3, flat, [0, 1, 2], 1.0).passed


def test_localized_constant_data():
    inst = instance_from_arrays(coords=[[0.0], [0.5], [1.0]], subset=[2, 0],
                                values=[3.0, 3.0], lipschitz=2.0)
    loc = extend_localized(inst, None, [1, 2])
    assert loc.values.tolist() == [3.0, 3.0]
    assert loc.localization == ["full", "full"]


# --- banks read through their own anchors ------------------------------------


@pytest.mark.parametrize("seed", [3, 6])
def test_a_reordered_bank_gives_the_same_bits(seed):
    # Row i of a bank belongs to bank.anchors[i], not to subset[i]: reversing
    # the rows changes no value, tie-break, localization record or check.
    inst = random_instance(seed)
    sch = schedule_for_instance(inst, 0.5)
    bank = build_profiles(inst, sch)
    reverse = bank_rows(bank, np.arange(len(bank.anchors))[::-1])
    full = extend(inst, sch, profiles=bank)
    for fn in (extend, extend_localized):
        want, got = (fn(inst, sch, full.queries, profiles=b) for b in (bank, reverse))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.anchors, want.anchors)
        assert got.localization == want.localization
    assert check_step2(inst, reverse, sch).to_json() == check_step2(inst, bank, sch).to_json()
    loc = check_localization(inst, full, reverse)
    assert loc.status == "pass"
    assert loc.to_json() == check_localization(inst, full, bank).to_json()


def test_a_sub_bank_is_the_infimum_over_its_own_anchors():
    inst = random_instance(4)
    sch = schedule_for_instance(inst, 0.5)
    sub = bank_rows(build_profiles(inst, sch), [0, 1])
    field = extend(inst, sch, profiles=sub)
    for y in field.queries:
        assert field.values[y] == pytest.approx(oracle_extend(inst, sub, int(y)), rel=1e-12)
    assert set(field.anchors.tolist()) <= set(sub.anchors.tolist())
    assert np.array_equal(field.values[sub.anchors], inst.g_at(sub.anchors))
    loc = extend_localized(inst, sch, field.queries, profiles=sub)
    assert np.array_equal(loc.values, field.values)
    assert {rec["xbar"] for rec in loc.localization if rec != "full"} <= set(sub.anchors.tolist())
    assert check_step2(inst, sub, sch).status == "pass"
    assert check_localization(inst, field, sub).status == "pass"


def test_an_empty_bank_is_a_parameter_error():
    inst = random_instance(4)
    sch = schedule_for_instance(inst, 0.5)
    empty = bank_rows(build_profiles(inst, sch), [])
    field = extend(inst, sch)
    message = f"^{BANK_RULE}$"
    with pytest.raises(ParameterError, match=message):
        extend(inst, sch, profiles=empty)
    with pytest.raises(ParameterError, match=message):
        extend_localized(inst, sch, field.queries, profiles=empty)
    with pytest.raises(ParameterError, match=message):
        check_localization(inst, field, empty)
    with pytest.raises(ParameterError, match=message):
        check_inf_family(inst, empty, field.queries, inst.lipschitz_L + 0.5)
    assert check_step2(inst, empty, sch).status == "skipped"


# --- query blocks ------------------------------------------------------------


def oracle_full(inst, dd, profiles, y):
    """(value, anchor): the minimum over every anchor, lowest point index on ties,
    with ``dd = dense(inst)``."""
    best, anchor = np.inf, None
    for pos, x in enumerate(inst.subset):
        phi = inst.values[pos] + eval_pen(bank_rows(profiles, [pos]), float(dd[x, y]))
        if phi < best or (phi == best and int(x) < anchor):
            best, anchor = phi, int(x)
    return best, anchor


def test_extend_over_several_query_blocks_matches_per_query_oracle(monkeypatch):
    # Shuffled queries with repeats in blocks of 3 (|C| x 3 entries), the last
    # one short.
    rng = np.random.default_rng(12)
    n = 261
    inst = instance_from_arrays(coords=rng.uniform(0.0, 1.0, (n, 2)),
                                subset=rng.choice(n, size=25, replace=False),
                                values=rng.normal(size=25))
    sch = schedule_for_instance(inst, inst.lipschitz_L)
    profiles = build_profiles(inst, sch)
    queries = np.concatenate([rng.permutation(n), rng.choice(n, size=131)])
    monkeypatch.setattr(metric, "_BLOCK", 3 * len(inst.subset))
    field = extend(inst, sch, queries, profiles=profiles)
    loc, dd = extend_localized(inst, sch, queries, profiles=profiles), dense(inst)
    for i, (y, xbar) in enumerate(zip(queries, _nearest_anchors(inst, queries))):
        value, anchor, record = oracle_localized(inst, dd, sch, profiles, y, xbar)
        assert (loc.values[i], loc.anchors[i], loc.localization[i]) == (value, anchor, record)
    for i, y in enumerate(queries):
        assert (field.values[i], field.anchors[i]) == oracle_full(inst, dd, profiles, y)
    flat = instance_from_arrays(coords=inst.coords, subset=inst.subset,
                                values=np.full(25, 0.5), lipschitz=1.0)
    const = extend(flat, None, queries)
    assert np.array_equal(const.anchors, _nearest_anchors(flat, queries))


def test_evaluation_diameters_over_row_blocks(monkeypatch):
    # The closest and the farthest pair each join the last rows of two blocks
    # of 128 rows, so a block scan that skips those rows misses them.
    rng = np.random.default_rng(4)
    rows = 128
    n = 2 * rows + 5
    a, b, c = rows - 1, 2 * rows - 1, n - 1
    monkeypatch.setattr(metric, "_BLOCK", rows * n)
    coords = rng.uniform(0.0, 1.0, (n, 2))
    coords[[a, b, c]] = [[-5.0, -5.0], [5.0, 5.0], [-5.0, -5.0 + 1e-7]]
    inst = instance_from_arrays(coords=coords, subset=[0, 1], values=[0.0, 1.0])
    d = dense(inst)
    assert evaluation_diameters(inst) == (float(d[a, c]), float(d[a, b]))
    assert evaluation_diameters(inst) == (float(d[d > 0].min()), float(d.max()))
    queries = rng.permutation(n)[:40]
    pts = np.unique(np.concatenate([inst.subset, queries]))
    sub = d[np.ix_(pts, pts)]
    assert evaluation_diameters(inst, queries) == (float(sub[sub > 0].min()),
                                                   float(sub.max()))


def _cloud_2000():
    """An instance file: 2000 points in the unit cube, data on 200 of them."""
    n = 2000
    rng = np.random.default_rng(5)
    return {"points": {"type": "euclidean", "coords": rng.uniform(0.0, 1.0, (n, 3)).tolist()},
            "subset": sorted(rng.choice(n, size=200, replace=False).tolist()),
            "values": rng.normal(size=200).tolist()}


def test_extend_pipeline_memory_is_a_fraction_of_the_matrix():
    # Validation streams the upper triangle in blocks, and schedule and
    # extension read d(C, .) a block of queries at a time from the
    # coordinates: no n x n array at all (the matrix alone is 1 x), and no
    # n*n*dim difference array.
    n = 2000
    raw = _cloud_2000()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst = validate_instance(raw)
        sch = schedule_for_instance(inst, 0.5)
        field = extend(inst, sch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(field.values) == n
    assert peak <= 0.25 * n * n * 8, f"traced peak {peak / (n * n * 8):.2f} x the matrix"


def test_check_localization_memory_is_a_fraction_of_the_matrix():
    # The check forms the bank's rows only on the localized queries, in column
    # blocks: no |C| x n array of distances, rows or margins.
    n = 2000
    inst = validate_instance(_cloud_2000())
    sch = schedule_for_instance(inst, 0.5)
    profiles = build_profiles(inst, sch)
    field = extend(inst, sch, profiles=profiles)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = check_localization(inst, field, profiles)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak <= n * n * 8 / 4, f"traced peak {peak / (n * n * 8):.2f} x the matrix"


# --- post-processing ---------------------------------------------------------


def test_truncate_bounded_noop_and_clamp():
    inst = random_instance(14)
    sch = schedule_for_instance(inst, 1.0)
    field = extend(inst, sch)
    big = float(np.max(np.abs(field.values))) + 1.0
    assert np.array_equal(truncate_bounded(field, big).values, field.values)
    gmax = float(np.max(np.abs(inst.values)))
    clamped = truncate_bounded(field, gmax)
    assert np.all(np.abs(clamped.values) <= gmax)
    pos = inst.subset_positions()[field.queries]
    onc = pos >= 0
    assert np.array_equal(clamped.values[onc], inst.values[pos[onc]])
    with pytest.raises(ParameterError):
        truncate_bounded(field, gmax / 2.0)


def test_truncate_bounded_reads_a_numpy_bound_as_its_python_float():
    """np.float32(1.0) is 1.0, below sup |g| = 1.00000001, which float32 rounds to 1.0:
    read in float32 it would clamp g(0) to 1.0."""
    inst = instance_from_arrays(coords=[[0.0], [1.0], [2.0]], subset=[0, 2],
                                values=[1.00000001, 0.0])
    field = extend(inst, schedule_for_instance(inst, 0.5), [0, 1, 2])
    for bound in (1.0, np.float32(1.0)):
        with pytest.raises(ParameterError, match=r"^bound 1\.0 below sup \|g\|"):
            truncate_bounded(field, bound)


def test_truncate_bounded_never_increases_pair_ratios():
    inst = random_instance(15)
    sch = schedule_for_instance(inst, 1.0)
    field = extend(inst, sch)
    bound = float(np.quantile(np.abs(field.values), 0.6))
    bound = max(bound, float(np.max(np.abs(inst.values))))
    clamped = truncate_bounded(field, bound)
    q = field.queries
    dist = inst.distances(q, q)
    iu = np.triu_indices(len(q), k=1)
    before = np.abs(field.values[:, None] - field.values[None, :])[iu] / dist[iu]
    after = np.abs(clamped.values[:, None] - clamped.values[None, :])[iu] / dist[iu]
    assert np.all(after <= before + 1e-12)


def test_cutoff_support_shape():
    inst = random_instance(16)
    L = inst.lipschitz_L
    epsilon = L  # build at epsilon/2, cut at epsilon
    sch = schedule_for_instance(inst, epsilon / 2.0)
    field = extend(inst, sch)
    cut = cutoff_support(field, inst, epsilon)
    m_sup = max(float(np.max(np.abs(field.values))), field.g_abs_max)
    d_c = inst.distances(inst.subset, field.queries).min(axis=0)
    far = d_c >= 4.0 * m_sup / epsilon
    assert np.all(cut.values[far] == 0.0)
    near = d_c == 0.0
    assert np.array_equal(cut.values[near], field.values[near])
    # sampled constant within L + eps
    q = field.queries
    dist = inst.distances(q, q)
    iu = np.triu_indices(len(q), k=1)
    ratios = np.abs(cut.values[:, None] - cut.values[None, :])[iu] / dist[iu]
    assert np.max(ratios) <= L + epsilon + 1e-9


def test_cutoff_support_memory_is_a_fraction_of_its_distances():
    # d(., C) is read a query block at a time: no |C| x queries array.  A large
    # epsilon puts the bump's slope inside the cube, so every distance counts.
    n = 4000
    rng = np.random.default_rng(7)
    inst = instance_from_arrays(coords=rng.uniform(0.0, 1.0, (n, 3)),
                                subset=np.arange(0, n, 10), values=rng.normal(size=n // 10))
    field = extend(inst, schedule_for_instance(inst, 0.5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cut = cutoff_support(field, inst, 1000.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    entries = len(inst.subset) * len(field.queries)
    m_sup = max(float(np.max(np.abs(field.values))), field.g_abs_max)
    d_c = inst.distances(inst.subset, field.queries).min(axis=0)    # the whole array, once
    chi = np.clip(2.0 - (1000.0 / (2.0 * m_sup)) * d_c, 0.0, 1.0)
    assert np.any((chi > 0.0) & (chi < 1.0))
    assert np.array_equal(cut.values, chi * field.values)
    assert peak <= entries * 8 / 4, f"traced peak {peak / (entries * 8):.2f} x d(C, queries)"


@pytest.mark.parametrize("scale", [0.1, 1e-3])
def test_cutoff_past_binary64_is_a_bump_of_zero(scale):
    """At eps = 1e308 the bump's slope eps / 2M times a distance passes binary64 (and
    with data near 1e-3, eps / 2M itself does): the bump is 0 there, without an
    overflow warning (an error under the suite's filter), and 1 at distance 0, where
    inf * 0 would give nan."""
    inst = instance_from_arrays(coords=np.arange(8.0)[:, None], subset=[0, 3],
                                values=[0.0, 3.0 * scale])
    field = extend(inst, schedule_for_instance(inst, 0.5))
    cut = cutoff_support(field, inst, 1e308)
    on_c = np.isin(field.queries, inst.subset)
    assert np.array_equal(cut.values[on_c], field.values[on_c])
    assert np.all(cut.values[~on_c] == 0.0) and np.any(field.values[~on_c] != 0.0)


def test_truncation_tail_bound_negligible():
    # the constant-slope base band perturbs pen by at most width * slope,
    # kept below 1e-12 * L * diameter by the schedule depth policy
    for seed in (0, 5, 11):
        inst = random_instance(seed)
        sch = schedule_for_instance(inst, inst.lipschitz_L / 2.0)
        cap = 1e-12 * inst.lipschitz_L * inst.diameter()
        bank = build_profiles(inst, sch)
        assert np.all(bank.breakpoints[0] * bank.slopes[:, 0] <= cap)


def test_cutoff_zero_data_unchanged():
    inst = instance_from_arrays(coords=[[0.0], [1.0], [9.0]], subset=[0, 1],
                                values=[0.0, 0.0], lipschitz=1.0)
    field = extend(inst, None)
    cut = cutoff_support(field, inst, 0.5)
    assert np.array_equal(cut.values, field.values)
