"""The ball-slope kernel on metrics with distance ties everywhere.

Balls are open, so a point at distance exactly ``r`` stays outside the
``r``-ball.  On the discrete metric and on an ultrametric every radius below
is placed exactly at a pair distance (and between them), and each kernel
caller is checked against the brute-force ``oracle_lip`` over ``{d < r}``.
"""

import numpy as np
import pytest

from lipext import (ball_lips, build_profiles, build_schedule, energy,
                    instance_from_arrays, lipa_profile, validate_measure)
from lipext.metric import _ratio

from conftest import dense, oracle_lip, scales, slope_map


def discrete_instance(seed):
    rng = np.random.default_rng(seed)
    n = 9
    subset = np.sort(rng.choice(n, size=5, replace=False))
    return instance_from_arrays(dmatrix=1.0 - np.eye(n), subset=subset,
                                values=rng.uniform(-1.0, 1.0, 5))


def ultrametric_instance(seed):
    """Leaves of the binary tree of depth 4; d = 2**-(common prefix length)."""
    rng = np.random.default_rng(seed)
    bits = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
    agree = np.cumprod(bits[:, None, :] == bits[None, :, :], axis=2).sum(axis=2)
    d = np.where(agree == 4, 0.0, 0.5 ** agree)
    subset = np.sort(rng.choice(16, size=7, replace=False))
    return instance_from_arrays(dmatrix=d, subset=subset,
                                values=rng.uniform(-1.0, 1.0, 7))


INSTANCES = [discrete_instance(0), discrete_instance(1),
             ultrametric_instance(2), ultrametric_instance(3)]
IDS = ["discrete0", "discrete1", "ultrametric2", "ultrametric3"]


def tie_radii(inst):
    """Every pair distance, the midpoints between them and one radius beyond."""
    dd = dense(inst)
    levels = np.unique(dd[dd > 0])
    mids = (levels[:-1] + levels[1:]) / 2.0
    return np.unique(np.concatenate([levels, mids, [levels[0] / 2.0,
                                                    2.0 * levels[-1]]]))


def oracle_ball_lip(inst, domain, values, center, r):
    dd = dense(inst)
    inside = [pos for pos, i in enumerate(domain) if dd[center, i] < r]
    return oracle_lip(inst, values[inside], domain[inside])


def test_metrics_have_ties():
    for inst in INSTANCES:
        dd = dense(inst)
        assert len(np.unique(dd[dd > 0])) < inst.n
    assert np.all(tie_radii(INSTANCES[0]) == [0.5, 1.0, 2.0])


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_pair_ratios_zero_diagonal_and_symmetric(inst):
    domain = np.arange(inst.n)
    vals = np.random.default_rng(5).normal(size=inst.n)
    dd = dense(inst)
    ratios = _ratio(vals[:, None], vals, dd[np.ix_(domain, domain)])
    assert np.all(np.diag(ratios) == 0.0)
    assert np.array_equal(ratios, ratios.T)
    assert ratios[0, 1] == abs(vals[0] - vals[1]) / dd[0, 1]


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_ball_lips_matches_oracle_at_ties(inst):
    rng = np.random.default_rng(7)
    domain = rng.permutation(inst.n)
    vals = rng.normal(size=inst.n)
    radii = tie_radii(inst)
    got = ball_lips(inst, domain, vals, np.arange(inst.n), radii)   # every center
    assert got.shape == (inst.n, len(radii))
    for center in range(inst.n):
        want = [oracle_ball_lip(inst, domain, vals, center, r) for r in radii]
        assert got[center].tolist() == want
    # unsorted radii are answered position by position
    assert np.array_equal(ball_lips(inst, domain, vals, [0], radii[::-1])[0],
                          ball_lips(inst, domain, vals, [0], radii)[0][::-1])


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_ball_lips_centers_off_a_strict_domain(inst):
    """Every point is a center over a strict domain, one radius at a time and all at once."""
    rng = np.random.default_rng(9)
    domain = rng.permutation(inst.n)[: inst.n - 3]
    vals = rng.normal(size=len(domain))
    radii = tie_radii(inst)
    got = ball_lips(inst, domain, vals, np.arange(inst.n), radii)
    for center in range(inst.n):
        want = [oracle_ball_lip(inst, domain, vals, center, r) for r in radii]
        assert got[center].tolist() == want
    for j, r in enumerate(radii):
        assert np.array_equal(ball_lips(inst, domain, vals, np.arange(inst.n), [r])[:, 0],
                              got[:, j])


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_lipa_profile_matches_oracle_at_ties(inst):
    rng = np.random.default_rng(8)
    domain = np.sort(rng.choice(inst.n, size=inst.n - 2, replace=False))
    vals = rng.normal(size=len(domain))
    radii = tie_radii(inst)
    for center in domain:
        got = lipa_profile(inst, domain, vals, int(center), radii)
        assert got.tolist() == [oracle_ball_lip(inst, domain, vals, int(center), r)
                                for r in radii]


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_approx_slopes_match_oracle_at_ties(inst):
    # anchor 1.0 puts a scale exactly on the largest pair distance
    sch = build_schedule(inst.lipschitz_L, 1.0, anchor=1.0,
                         span_low=1e-3, span_high=4.0)
    levels = set(np.unique(dense(inst)).tolist())
    eps = scales(sch)
    assert any(e in levels for e in eps.values())
    bank = build_profiles(inst, sch)
    for pos, x in enumerate(inst.subset):
        smap = slope_map(inst, int(x), sch)
        for k, e in eps.items():
            assert smap[k] == oracle_ball_lip(inst, inst.subset, inst.values, int(x), e)
        # band k of the bank carries S_k + 3 L r_{k-1}, k in [k_min + 2, k_max + 1]
        S = np.array([smap[k] for k in range(sch.k_min + 2, sch.k_max + 2)])
        ratios = np.array([sch.ratio[k - sch.k_min - 1]
                           for k in range(sch.k_min + 1, sch.k_max + 1)])
        assert np.array_equal(bank.slopes[pos, 1:-1],
                              S + 3.0 * inst.lipschitz_L * ratios)


def test_discrete_metric_slope_jumps_past_the_tie():
    inst = INSTANCES[0]
    sch = build_schedule(inst.lipschitz_L, 1.0, anchor=1.0,
                         span_low=1e-3, span_high=4.0)
    smap = slope_map(inst, int(inst.subset[0]), sch)
    assert smap[0] == 0.0           # the open 1-ball holds x alone
    assert smap[1] == inst.lipschitz_computed


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_energy_matches_oracle_at_ties(inst):
    rng = np.random.default_rng(9)
    h = rng.normal(size=inst.n)
    masses = np.zeros(inst.n)
    masses[inst.subset] = rng.uniform(0.2, 1.0, len(inst.subset))
    measure = validate_measure(inst, masses, 2.0)
    allpts = np.arange(inst.n)
    radii = tie_radii(inst)
    for domain in (allpts, inst.subset):
        sides = energy(inst, domain, h[domain], measure, radii)
        assert [side.radius for side in sides] == radii.tolist()
        for r, side in zip(radii, sides):
            want = [oracle_ball_lip(inst, domain, h[domain], int(x), r)
                    for x in measure.support]
            assert side.lips.tolist() == want
