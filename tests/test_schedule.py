import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lipext import (ParameterError, ScheduleTooShallow, build_schedule, locality_radius,
                    schedule_for_instance, validate_instance)
from lipext.extension import evaluation_diameters


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


@pytest.mark.parametrize("name", ["L", "epsilon", "anchor", "span_low", "span_high"])
@pytest.mark.parametrize("sign", [1, -1])
def test_integers_beyond_float_range_are_not_finite(name, sign):
    args = dict(L=1.0, epsilon=0.5, anchor=1.0, span_low=1e-6, span_high=10.0)
    with pytest.raises(ParameterError, match=f"{name} must be a finite real, got"):
        build_schedule(**dict(args, **{name: sign * 10 ** 400}))


@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_too_long_to_print_is_a_parameter_error(sign):
    # Python will not print an int of more than 4300 digits; the message names
    # its type instead of raising ValueError.
    with pytest.raises(ParameterError, match="^anchor must be a finite real, got <int "):
        build_schedule(1.0, 0.5, sign * 10 ** 5000, 0.01, 2.0)


def test_locality_radius_rejects_an_integer_beyond_float_range():
    for kwargs in ({"r_bar": 10 ** 400}, {"xi": 10 ** 400}, {"L": 10 ** 400}):
        with pytest.raises(ParameterError):
            locality_radius(canonical(), **dict(dict(r_bar=0.5, xi=0.1, L=1.0), **kwargs))


def test_effective_tolerance_is_min_of_eps_and_L():
    sch = build_schedule(L=1.0, epsilon=5.0, anchor=1.0, span_low=1e-6,
                         span_high=10.0)
    assert sch.eps_eff == 1.0
    assert sch.r_star == 1.0 / 6.0


def test_canonical_unroll():
    # unrolling r_k = r_star * 2**min(k, 0) from the anchor
    sch = canonical()
    assert sch.eps_at(0) == 1.0
    assert sch.eps_at(1) == 6.0
    assert sch.eps_at(-1) == (1.0 / 6.0) * 1.0
    assert sch.eps_at(-2) == ((1.0 / 6.0) / 2.0) * ((1.0 / 6.0) * 1.0)
    assert sch.eps_at(sch.k_max) >= 10.0
    assert sch.eps_at(sch.k_min) <= 1e-6
    for k in (sch.k_min - 1, sch.k_max + 1):
        with pytest.raises(ParameterError, match="^scale index"):
            sch.eps_at(k)


def test_ratio_bound_at_equal_budget():
    # eps_{k-1} <= eps_k / 6 whenever epsilon == L
    for L in (1.0, 0.37, 42.0):
        sch = build_schedule(L=L, epsilon=L, anchor=L, span_low=L * 1e-7,
                             span_high=20.0 * L)
        assert np.all(sch.ratio <= 1.0 / 6.0)
        assert np.all(sch.eps[:-1] <= sch.eps[1:] / 6.0)


def test_trivial_and_invalid_parameters():
    with pytest.raises(ParameterError, match="L = 0"):
        build_schedule(L=0.0, epsilon=1.0, anchor=1.0, span_low=0.1, span_high=1.0)
    with pytest.raises(ParameterError):
        build_schedule(L=1.0, epsilon=0.0, anchor=1.0, span_low=0.1, span_high=1.0)
    with pytest.raises(ParameterError):
        build_schedule(L=1.0, epsilon=1.0, anchor=-1.0, span_low=0.1, span_high=1.0)
    with pytest.raises(ParameterError):
        build_schedule(L=1.0, epsilon=1.0, anchor=1.0, span_low=2.0, span_high=1.0)
    # 3 (L + eps) overflows, so r_star = eps / inf = 0 and the upward sweep would divide by it.
    with pytest.raises(ParameterError, match="r_star"):
        build_schedule(1e308, 1e308, 1.0, 0.01, 2.0)


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
        ratio_step = sch.ratio[k - sch.k_min - 2] / sch.ratio[k - sch.k_min - 1]
        assert ratio_step == (0.5 if k <= 0 else 1.0)


def test_slope_cap_consequence():
    # S + 3 L r_k <= L + eps for any S <= L, over the whole stored range
    for L, eps in [(1.0, 1.0), (2.5, 0.3), (10.0, 30.0)]:
        sch = build_schedule(L, eps, anchor=1.0, span_low=1e-5, span_high=9.0)
        assert np.all(L + 3.0 * L * sch.ratio <= L + eps + 1e-12 * (L + eps))


def test_decay_toward_minus_infinity():
    sch = canonical()
    # smallest stored ratio follows the halving law below the reference index
    assert sch.ratio[0] == math.ldexp(sch.r_star, sch.k_min + 1)
    # and a deeper build continues the same sweep by the same law
    deeper = build_schedule(L=1.0, epsilon=1.0, anchor=1.0, span_low=1e-9, span_high=10.0)
    assert deeper.eps_at(sch.k_min - 1) == math.ldexp(sch.r_star, sch.k_min) * sch.eps_at(sch.k_min)


# --- locality_radius ---------------------------------------------------------


def test_locality_radius_direct_scan():
    sch = canonical()
    r_bar, xi = 10.0 * sch.eps_at(0), 1.0
    k, r = locality_radius(sch, r_bar, xi, L=1.0)
    # independent scan of the stored schedule
    best = None
    for kk in range(sch.k_min + 2, sch.k_max - 2):
        if sch.eps_at(kk + 3) < r_bar and 3.0 * sch.ratio[kk - sch.k_min] < xi:
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
    r_bar = sch.eps_at(sch.k_min + 2)
    with pytest.raises(ScheduleTooShallow, match="^extend schedule: ") as exc:
        locality_radius(sch, r_bar, 1.0, L=1.0)
    assert exc.value.required_span_low is None
    # the same build given the request reaches the depth it needs
    deeper = build_schedule(1.0, 1.0, 1.0, 1e-6, 10.0, locality=(r_bar, 1.0))
    k, r = locality_radius(deeper, r_bar, 1.0, L=1.0)
    assert deeper.k_min <= k - 2 < sch.k_min and r == deeper.eps_at(k - 2)


def test_locality_radius_against_a_deep_schedule():
    # The same schedule built down to 1e-200 holds the same bits at every
    # shared index.  Its first k, descending, with eps_{k+3} < r_bar and
    # 3 L r_{k+1} < xi is the answer when eps_{k-2} is stored in the shallow
    # schedule; otherwise the shallow one raises, and the build given the
    # request descends on to eps_{k-2}.
    outcomes = []
    for L, eps, span_low in itertools.product([0.5, 1.0, 8.0], [1e-3, 0.1, 1.0], [1e-6, 1e-2]):
        sch = build_schedule(L, eps, 1.0, span_low, 4.0)
        deep = build_schedule(L, eps, 1.0, 1e-200, 4.0)
        assert deep.k_max == sch.k_max
        assert np.array_equal(deep.eps[sch.k_min - deep.k_min:], sch.eps)
        for r_bar, xi in itertools.product([1e-5, 0.05, 1.0], [1e-3, 0.1, 0.9]):
            k = next(k for k in range(deep.k_max - 3, deep.k_min + 1, -1)
                     if deep.eps_at(k + 3) < r_bar
                     and 3.0 * L * deep.ratio[k - deep.k_min] < xi)
            outcomes.append(k - 2 >= sch.k_min)
            if outcomes[-1]:
                assert locality_radius(sch, r_bar, xi, L) == (k, sch.eps_at(k - 2))
            else:
                with pytest.raises(ScheduleTooShallow, match="^extend schedule: ") as exc:
                    locality_radius(sch, r_bar, xi, L)
                assert exc.value.required_span_low is None
            got = build_schedule(L, eps, 1.0, span_low, 4.0, locality=(r_bar, xi))
            assert (got.k_min == sch.k_min) == outcomes[-1] and got.k_min >= deep.k_min
            assert locality_radius(got, r_bar, xi, L) == (k, deep.eps_at(k - 2))
            assert np.array_equal(deep.eps[got.k_min - deep.k_min:], got.eps)
            assert np.array_equal(deep.ratio[got.k_min - deep.k_min:], got.ratio)
    assert len(outcomes) == 162 and outcomes.count(False) == 33   # both paths taken


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


def test_locality_radius_reads_numpy_reals_as_python_floats():
    """A float32 ``r_bar`` is compared as the Python float of the same value, not in
    float32: there ``eps_{-3}`` would round to it and the search would stop at k = -7."""
    sch = build_schedule(1.0, 1.0, 1.0, 1e-6, 10.0)
    r_bar = np.float32(sch.eps_at(-3))
    want = locality_radius(sch, float(r_bar), 1.0, 1.0)
    assert want == (-6, sch.eps_at(-8))
    assert locality_radius(sch, r_bar, np.float32(1.0), np.float32(1.0)) == want
    got = build_schedule(1.0, 1.0, 1.0, 1e-6, 10.0, locality=(r_bar, np.float32(1.0)))
    ref = build_schedule(1.0, 1.0, 1.0, 1e-6, 10.0, locality=(float(r_bar), 1.0))
    assert got.to_triples() == ref.to_triples()
    assert locality_radius(got, r_bar, 1.0, 1.0) == locality_radius(ref, float(r_bar), 1.0, 1.0)


# --- one sweep against the build-and-rebuild it replaces ---------------------


def _build_and_rebuild(L, epsilon, anchor, span_low, span_high, r_bar, xi):
    """The two-build reference: build at ``span_low``, find the locality depth by
    the generation law below the stored scales, and rebuild once from it."""
    sch = build_schedule(L, epsilon, anchor, span_low, span_high)
    eps = {sch.k_min + i: float(e) for i, e in enumerate(sch.eps)}
    k = sch.k_max - 3
    while True:
        while k - 2 not in eps:     # the law continued below k_min
            j = min(eps)
            eps[j - 1] = math.ldexp(sch.r_star, min(j, 0)) * eps[j]
            if eps[j - 1] < 1e-300:
                raise ScheduleTooShallow(
                    "extend schedule: locality conditions unreachable in binary64",
                    required_span_low=0.0)
        if eps[k + 3] < r_bar and 3.0 * L * math.ldexp(sch.r_star, min(k + 1, 0)) < xi:
            break
        k -= 1
    if k - 2 >= sch.k_min:
        return sch
    return build_schedule(L, epsilon, anchor, eps[k - 2] / 64.0, span_high)


def _outcome(build):
    """The schedule ``build()`` returns, as bits, or its error's type, message and depth."""
    try:
        sch = build()
    except (ParameterError, ScheduleTooShallow) as exc:
        return type(exc), str(exc), getattr(exc, "required_span_low", None)
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(sch).items()}


def _ten(e):
    """10**e, clamped to the positive binary64 range (5e-324 to 1.6e308)."""
    return 10.0 ** min(max(e, -323.3), 308.2)


@settings(max_examples=300, deadline=None)
@given(st.floats(-310, 310), st.floats(-40, 5), st.floats(-310, 310), st.floats(-3, 40),
       st.floats(-60, 1), st.floats(-80, 2), st.floats(-20, 2))
# A rebuild at index 0 with r_star in (1/64, 1/32]: only eps_0 / 64 gives the reference's k_min.
@example(0.0, -1.15, -20.0, 20.6, 15.0, 8.5, -1.0)
def test_one_sweep_equals_build_and_rebuild(a, eps_rel, c, high_rel, low_rel, rbar_rel, xi_rel):
    # Exponents of ten: epsilon and xi relative to L, the scales relative to the anchor.
    args = (_ten(a), _ten(a + eps_rel), _ten(c), _ten(c + low_rel), _ten(c + high_rel),
            _ten(c + rbar_rel), _ten(a + xi_rel))
    assert (_outcome(lambda: build_schedule(*args[:5], locality=args[5:]))
            == _outcome(lambda: _build_and_rebuild(*args)))


@pytest.mark.parametrize("name, epsilon, r_bar, xi", [
    ("cloud", 0.5, 0.5, 0.01),      # the verify flags with --xi 0.01
    ("grid", None, 0.05, 0.05),     # energy --radii 0.05,0.2,0.5 at its default xi
])
def test_golden_schedules_equal_build_and_rebuild(name, epsilon, r_bar, xi):
    raw = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    inst = validate_instance(raw)
    L = inst.lipschitz_L
    epsilon = L if epsilon is None else epsilon
    dmin, dmax = evaluation_diameters(inst)
    args = (L, epsilon, dmax, min(dmin, r_bar) / 64.0, 2.0 * dmax, r_bar, xi)
    got = _outcome(lambda: schedule_for_instance(inst, epsilon, locality=(r_bar, xi)))
    assert got == _outcome(lambda: _build_and_rebuild(*args))
    # and the first build alone is too shallow: these are rebuild cases
    assert got["k_min"] < build_schedule(*args[:5]).k_min


# --- serialization -------------------------------------------------------------


def test_triples_roundtrip():
    sch = canonical()
    triples = sch.to_triples()
    assert len(triples) == sch.k_max - sch.k_min + 1
    assert triples[0]["ratio_k"] is None
    for t in triples[1:]:
        assert t["eps_k"] == sch.eps_at(t["k"])
        assert t["ratio_k"] == sch.ratio[t["k"] - sch.k_min - 1]
