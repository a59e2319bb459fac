import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipext import (ParameterError, ScheduleTooShallow, TrivialInstance,
                    build_schedule, locality_radius)


def canonical():
    return build_schedule(L=1.0, epsilon=1.0, anchor=1.0,
                          span_low=1e-6, span_high=10.0)


def test_r_star_substitution():
    assert canonical().r_star == 1.0 / 6.0


@pytest.mark.parametrize("scalar", [np.float32, np.float64, np.int64])
def test_numpy_scalars_give_the_python_float_schedule(scalar):
    """A numpy scalar is a real like the Python number of the same value."""
    args = dict(L=2.0, epsilon=0.5, anchor=1.0, span_low=0.125, span_high=4.0)
    want = build_schedule(**args)
    for name in args:
        if scalar(args[name]) != args[name]:    # 0.5 and 0.125 are no int64
            continue
        got = build_schedule(**dict(args, **{name: scalar(args[name])}))
        assert got.to_triples() == want.to_triples() and got.anchor == want.anchor
        assert (got.r_star, got.L_eff, got.eps_eff) == (want.r_star, want.L_eff, want.eps_eff)
        assert all(type(v) is float for v in (got.r_star, got.L_eff, got.eps_eff, got.anchor))


@pytest.mark.parametrize("flag", [True, np.bool_(True)])
def test_bools_are_not_reals(flag):
    with pytest.raises(ParameterError, match="epsilon must be a finite real, got"):
        build_schedule(L=1.0, epsilon=flag, anchor=1.0, span_low=1e-6, span_high=10.0)


def test_effective_tolerance_is_min_of_eps_and_L():
    sch = build_schedule(L=1.0, epsilon=5.0, anchor=1.0, span_low=1e-6,
                         span_high=10.0)
    assert sch.eps_eff == 1.0
    assert sch.r_star == 1.0 / 6.0


def test_canonical_unroll():
    # unrolling r_k = r_star * 2**min(k - k_ref, 0) from the anchor
    sch = canonical()
    assert sch.eps_at(0) == 1.0
    assert sch.eps_at(1) == 6.0
    assert sch.eps_at(-1) == (1.0 / 6.0) * 1.0
    assert sch.eps_at(-2) == ((1.0 / 6.0) / 2.0) * ((1.0 / 6.0) * 1.0)
    assert sch.eps_at(sch.k_max) >= 10.0
    assert sch.eps_at(sch.k_min) <= 1e-6


def test_ratio_bound_at_equal_budget():
    # eps_{k-1} <= eps_k / 6 whenever epsilon == L
    for L in (1.0, 0.37, 42.0):
        sch = build_schedule(L=L, epsilon=L, anchor=L, span_low=L * 1e-7,
                             span_high=20.0 * L)
        assert np.all(sch.ratio <= 1.0 / 6.0)
        assert np.all(sch.eps[:-1] <= sch.eps[1:] / 6.0)


def test_trivial_and_invalid_parameters():
    with pytest.raises(TrivialInstance):
        build_schedule(L=0.0, epsilon=1.0, anchor=1.0, span_low=0.1, span_high=1.0)
    with pytest.raises(ParameterError):
        build_schedule(L=1.0, epsilon=0.0, anchor=1.0, span_low=0.1, span_high=1.0)
    with pytest.raises(ParameterError):
        build_schedule(L=1.0, epsilon=1.0, anchor=-1.0, span_low=0.1, span_high=1.0)
    with pytest.raises(ParameterError):
        build_schedule(L=1.0, epsilon=1.0, anchor=1.0, span_low=2.0, span_high=1.0)


def _laws(sch, epsilon):
    bound = epsilon / (3.0 * (sch.L_eff + epsilon))
    assert np.all(sch.ratio <= bound)
    assert np.all(np.diff(sch.ratio) >= 0)
    assert np.all(3.0 * sch.eps[:-2] <= sch.eps[1:-1])
    assert np.all(sch.eps[:-1] == sch.ratio * sch.eps[1:])  # bitwise
    assert sch.r_star <= 1.0 / 6.0
    assert np.all(np.diff(sch.eps) > 0)


def test_schedule_laws_canonical():
    _laws(canonical(), 1.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(0.01, 100.0))
def test_schedule_laws_random(L, epsilon, anchor):
    sch = build_schedule(L, epsilon, anchor, span_low=anchor * 1e-5,
                         span_high=anchor * 8.0)
    _laws(sch, epsilon)


def test_doubling_decay_of_ratios():
    sch = canonical()
    for k in range(sch.k_min + 2, sch.k_max + 1):
        ratio_step = sch.ratio_at(k - 1) / sch.ratio_at(k)
        assert ratio_step == (0.5 if k <= sch.k_ref else 1.0)


def test_slope_cap_consequence():
    # S + 3 L r_k <= L + eps for any S <= L, over the whole stored range
    for L, eps in [(1.0, 1.0), (2.5, 0.3), (10.0, 30.0)]:
        sch = build_schedule(L, eps, anchor=1.0, span_low=1e-5, span_high=9.0)
        assert np.all(L + 3.0 * L * sch.ratio <= L + eps + 1e-12 * (L + eps))


def test_decay_toward_minus_infinity():
    sch = canonical()
    # smallest stored ratio follows the halving law below the reference index
    assert sch.ratio[0] == math.ldexp(sch.r_star, sch.k_min + 1 - sch.k_ref)


# --- locality_radius ---------------------------------------------------------


def test_locality_radius_direct_scan():
    sch = canonical()
    r_bar, xi = 10.0 * sch.eps_at(0), 1.0
    k, r = locality_radius(sch, r_bar, xi, L=1.0)
    # independent scan of the stored schedule
    best = None
    for kk in range(sch.k_min + 2, sch.k_max - 2):
        if sch.eps_at(kk + 3) < r_bar and 3.0 * sch.ratio_at(kk + 1) < xi:
            best = kk
    assert k == best
    assert r == sch.eps_at(k - 2)


def test_locality_radius_huge_xi_reduces_to_radius_condition():
    sch = canonical()
    r_bar = 0.5
    k_inf, _ = locality_radius(sch, r_bar, sys.float_info.max, L=1.0)
    best = None
    for kk in range(sch.k_min + 2, sch.k_max - 2):
        if sch.eps_at(kk + 3) < r_bar:
            best = kk
    assert k_inf == best


def test_locality_radius_extend_schedule_error():
    sch = canonical()
    with pytest.raises(ScheduleTooShallow) as exc:
        locality_radius(sch, sch.eps_at(sch.k_min + 2), 1.0, L=1.0)
    assert "extend schedule" in str(exc.value)
    assert exc.value.required_span_low is not None
    # rebuilding at the reported depth makes the request serviceable
    required = exc.value.required_span_low
    if required > 0:
        deeper = build_schedule(1.0, 1.0, 1.0, required / 64.0, 10.0)
        locality_radius(deeper, sch.eps_at(sch.k_min + 2), 1.0, L=1.0)


def test_locality_radius_parameter_errors():
    sch = canonical()
    with pytest.raises(ParameterError):
        locality_radius(sch, -1.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        locality_radius(sch, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("xi", [math.inf, math.nan])
def test_locality_radius_rejects_non_finite_xi(xi):
    # r_bar must be finite already; an infinite xi would make any bound vacuous
    with pytest.raises(ParameterError, match="xi"):
        locality_radius(canonical(), 0.5, xi, 1.0)


# --- virtual extension and serialization -------------------------------------


def test_virtual_eps_agrees_with_generation_law():
    sch = canonical()
    below = sch.virtual_eps(sch.k_min - 1)
    assert below == math.ldexp(sch.r_star, sch.k_min - sch.k_ref) * sch.eps_at(sch.k_min)
    above = sch.virtual_eps(sch.k_max + 1)
    assert above == pytest.approx(sch.eps_at(sch.k_max) / sch.r_star, rel=1e-15)
    assert sch.virtual_eps(0) == sch.eps_at(0)


def test_triples_roundtrip():
    sch = canonical()
    triples = sch.to_triples()
    assert len(triples) == sch.k_max - sch.k_min + 1
    assert triples[0]["ratio_k"] is None
    for t in triples[1:]:
        assert t["eps_k"] == sch.eps_at(t["k"])
        assert t["ratio_k"] == sch.ratio_at(t["k"])
